//! Triple modular redundancy (TMR) — the expensive baseline.
//!
//! §2.4's point of comparison: *"current highly-redundant approaches are
//! not energy efficient."* TMR is the canonical such approach: run three
//! copies, majority-vote every output. It **masks** (not merely detects)
//! any single-copy fault at ~200% energy overhead; two faulty copies that
//! agree out-vote the good one — the failure mode quantified here.
//!
//! Together with DMR (detects, 100% overhead) and the invariant checker
//! (detects most, ~1-15% overhead), this completes experiment E15's cost
//! ladder.

use xxi_core::metrics::Metrics;
use xxi_core::rng::Rng64;

/// Outcome of one voted execution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VoteOutcome {
    /// All copies agreed.
    Unanimous,
    /// One copy disagreed and was out-voted (fault masked).
    Masked,
    /// No majority, or a wrong majority (counted separately by caller
    /// comparing with golden output).
    NoMajority,
}

/// A TMR execution harness over a pure function `u64 -> u64`, with fault
/// injection flipping a random output bit of individual copies.
pub struct TmrHarness<F: Fn(u64) -> u64> {
    f: F,
    /// Per-copy, per-execution fault probability.
    pub fault_prob: f64,
    rng: Rng64,
    /// `executions`, `unanimous`, `masked`, `no_majority`, `wrong_majority`.
    pub metrics: Metrics,
}

impl<F: Fn(u64) -> u64> TmrHarness<F> {
    /// Wrap `f` with per-copy `fault_prob`.
    pub fn new(f: F, fault_prob: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&fault_prob));
        TmrHarness {
            f,
            fault_prob,
            rng: Rng64::new(seed),
            metrics: Metrics::new(),
        }
    }

    fn run_copy(&mut self, x: u64) -> u64 {
        let clean = (self.f)(x);
        if self.rng.chance(self.fault_prob) {
            clean ^ (1u64 << self.rng.below(64))
        } else {
            clean
        }
    }

    /// One voted execution: returns `(result, outcome)`.
    pub fn execute(&mut self, x: u64) -> (u64, VoteOutcome) {
        self.metrics.incr("executions");
        let a = self.run_copy(x);
        let b = self.run_copy(x);
        let c = self.run_copy(x);
        let golden = (self.f)(x);
        let (result, outcome) = if a == b && b == c {
            (a, VoteOutcome::Unanimous)
        } else if a == b || a == c {
            (a, VoteOutcome::Masked)
        } else if b == c {
            (b, VoteOutcome::Masked)
        } else {
            (a, VoteOutcome::NoMajority)
        };
        match outcome {
            VoteOutcome::Unanimous => self.metrics.incr("unanimous"),
            VoteOutcome::Masked => self.metrics.incr("masked"),
            VoteOutcome::NoMajority => self.metrics.incr("no_majority"),
        }
        if outcome != VoteOutcome::NoMajority && result != golden {
            // Two copies failed identically — silently wrong output.
            self.metrics.incr("wrong_majority");
        }
        (result, outcome)
    }

    /// Fraction of executions with a correct final output.
    pub fn correct_output_rate(&self) -> f64 {
        let bad = self.metrics.counter("no_majority") + self.metrics.counter("wrong_majority");
        1.0 - bad as f64 / self.metrics.counter("executions").max(1) as f64
    }

    /// Energy overhead vs a single copy: 3 executions + a voter (~2%).
    pub fn energy_overhead() -> f64 {
        2.02
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn work(x: u64) -> u64 {
        x.wrapping_mul(0x9E3779B97F4A7C15).rotate_left(17)
    }

    #[test]
    fn fault_free_is_unanimous() {
        let mut h = TmrHarness::new(work, 0.0, 1);
        for x in 0..1000 {
            let (r, o) = h.execute(x);
            assert_eq!(r, work(x));
            assert_eq!(o, VoteOutcome::Unanimous);
        }
        assert_eq!(h.correct_output_rate(), 1.0);
    }

    #[test]
    fn single_copy_faults_are_masked() {
        // 5% per-copy fault rate: single-copy faults common, double rare.
        let mut h = TmrHarness::new(work, 0.05, 2);
        let n = 20_000;
        let mut wrong = 0;
        for x in 0..n {
            let (r, _) = h.execute(x);
            if r != work(x) {
                wrong += 1;
            }
        }
        let masked = h.metrics.counter("masked");
        assert!(masked > 1_000, "masked={masked}");
        // P(≥2 of 3 faulty) ≈ 3·0.05²·0.95 + 0.05³ ≈ 0.73%; and even then a
        // wrong OUTPUT additionally needs both to flip the same bit (1/64)
        // or a no-majority to land. So wrong outputs are rare.
        assert!((wrong as f64) < 0.01 * n as f64, "wrong={wrong} of {n}");
        assert!(h.correct_output_rate() > 0.99);
    }

    #[test]
    fn high_fault_rates_defeat_tmr() {
        // The masking guarantee collapses once double faults are common —
        // redundancy is not a substitute for reliability engineering.
        let mut h = TmrHarness::new(work, 0.5, 3);
        for x in 0..5_000 {
            h.execute(x);
        }
        assert!(
            h.metrics.counter("no_majority") > 500,
            "no_majority={}",
            h.metrics.counter("no_majority")
        );
        assert!(h.correct_output_rate() < 0.95);
    }

    #[test]
    fn overhead_constant_is_the_point() {
        // The E15 comparison hinges on this: 202% vs the checker's ~1-15%.
        assert!(TmrHarness::<fn(u64) -> u64>::energy_overhead() > 2.0);
    }

    #[test]
    fn masked_rate_matches_binomial_prediction() {
        let p: f64 = 0.08;
        let mut h = TmrHarness::new(work, p, 4);
        let n = 50_000;
        for x in 0..n {
            h.execute(x);
        }
        // P(exactly one faulty) = 3p(1−p)²; (identical double flips are
        // ~1/64 as likely and land in Masked too, negligible here).
        let expect = 3.0 * p * (1.0 - p) * (1.0 - p);
        let got = h.metrics.counter("masked") as f64 / n as f64;
        assert!((got - expect).abs() < 0.01, "got={got} expect={expect}");
    }
}
