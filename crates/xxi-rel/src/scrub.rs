//! Memory scrubbing: interval vs uncorrectable-error rate.
//!
//! ECC corrects single flips, but a word that collects a *second* flip
//! before anyone reads (and repairs) it becomes uncorrectable. Scrubbing —
//! periodically sweeping memory, correcting as it goes — bounds the
//! accumulation window. This module provides the analytic model used by
//! experiment E3 and a Monte Carlo cross-check against
//! [`crate::inject::FaultInjector`].
//!
//! With per-bit Poisson flip rate `λ` and 72-bit codewords, the probability
//! a given word takes ≥2 flips within a scrub interval `T` is
//! `1 − e^{−72λT}(1 + 72λT)`; the DUE rate per word is that probability per
//! interval.

use serde::Serialize;

use xxi_core::units::Seconds;

/// Analytic scrubbing model.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct ScrubModel {
    /// Per-bit flip rate, per second.
    pub lambda_per_bit: f64,
    /// Codeword size in bits.
    pub word_bits: u32,
}

impl ScrubModel {
    /// Model for 72-bit SECDED words.
    pub fn secded(lambda_per_bit: f64) -> ScrubModel {
        ScrubModel {
            lambda_per_bit,
            word_bits: 72,
        }
    }

    /// Expected flips per word per interval.
    pub fn flips_per_interval(&self, interval: Seconds) -> f64 {
        self.lambda_per_bit * self.word_bits as f64 * interval.value()
    }

    /// Probability a word accumulates ≥2 flips within one interval (the
    /// per-interval DUE probability with perfect end-of-interval scrub).
    pub fn p_due_per_interval(&self, interval: Seconds) -> f64 {
        let l = self.flips_per_interval(interval);
        1.0 - (-l).exp() * (1.0 + l)
    }

    /// DUE rate per word per second given scrub interval `t`.
    pub fn due_rate(&self, interval: Seconds) -> f64 {
        self.p_due_per_interval(interval) / interval.value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inject::FaultInjector;
    use xxi_core::rng::Rng64;

    #[test]
    fn p_due_grows_quadratically_at_small_rates() {
        let m = ScrubModel::secded(1e-9);
        let p1 = m.p_due_per_interval(Seconds(100.0));
        let p2 = m.p_due_per_interval(Seconds(200.0));
        // Doubling the window quadruples the double-flip probability.
        assert!((p2 / p1 - 4.0).abs() < 0.01, "ratio={}", p2 / p1);
    }

    #[test]
    fn faster_scrubbing_cuts_due_rate() {
        let m = ScrubModel::secded(1e-8);
        let slow = m.due_rate(Seconds(10_000.0));
        let fast = m.due_rate(Seconds(100.0));
        assert!(fast < slow / 50.0, "fast={fast} slow={slow}");
    }

    #[test]
    fn monte_carlo_agrees_with_analytic() {
        // Inject Poisson flips into words and compare the ≥2-flip fraction
        // with the analytic p_due.
        let words = 20_000usize;
        let expected_flips_per_word = 0.05f64;
        let m = ScrubModel::secded(expected_flips_per_word / 72.0);
        let p_analytic = m.p_due_per_interval(Seconds(1.0));

        let mut fi = FaultInjector::new(words, 11);
        // Poisson-sample a total flip count (normal approx is fine here).
        let mut rng = Rng64::new(12);
        let mean = expected_flips_per_word * words as f64;
        let total = (mean + mean.sqrt() * rng.normal()).round().max(0.0) as u64;
        fi.inject(total);
        let (_, _, due, sdc) = fi.scrub_pass();
        let p_mc = (due + sdc) as f64 / words as f64;
        assert!(
            (p_mc - p_analytic).abs() < 4.0 * (p_analytic / words as f64).sqrt() + 2e-4,
            "mc={p_mc} analytic={p_analytic}"
        );
    }
}
