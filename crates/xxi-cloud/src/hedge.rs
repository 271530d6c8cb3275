//! Hedged requests — the tail-tolerant mitigation E9 measures.
//!
//! §2.1: *"architectural innovations can guarantee strict worst-case
//! latency requirements."* The software-level state of the art the paper
//! builds on (Dean & Barroso, "The Tail at Scale"): after a deadline
//! (typically the p95), send a duplicate request to another replica and
//! take whichever answers first. Cost: a few percent extra load. Benefit:
//! the p99+ collapses toward the body of the distribution.
//!
//! `hedged_with` models one request; [`hedge_experiment_on`] produces the
//! mitigation table of experiment E9. Its deadline is one screened
//! quantile of 200 000 leaf draws ([`LatencyDist::quantile_on`]): only
//! the draws that can reach the deadline become latencies.

use crate::latency::{LatencyDist, Sampler};
use xxi_core::par::{mc_chunks, Parallelism};
use xxi_core::rng::Rng64;
use xxi_core::stats::percentiles;

/// Outcome of a hedged-request experiment.
#[derive(Clone, Debug)]
pub struct HedgeOutcome {
    /// Hedge deadline used (ms).
    pub deadline_ms: f64,
    /// p50 with hedging.
    pub p50: f64,
    /// p99 with hedging.
    pub p99: f64,
    /// p99.9 with hedging.
    pub p999: f64,
    /// Fraction of requests that actually sent a hedge (extra load).
    pub extra_load: f64,
}

/// Latency of one hedged request: issue to replica A; if no answer by
/// `deadline_ms`, also issue to replica B; completion is the earlier of
/// A's finish and `deadline + B`'s service time. Also returns whether the
/// hedge was sent.
fn hedged_with(service: &Sampler, deadline_ms: f64, rng: &mut Rng64) -> (f64, bool) {
    let a = service.sample(rng);
    if a <= deadline_ms {
        (a, false)
    } else {
        let b = deadline_ms + service.sample(rng);
        (a.min(b), true)
    }
}

/// Run `trials` hedged requests with the deadline at the distribution's
/// `deadline_quantile` (e.g. 0.95) on `exec`; byte-identical output for
/// every executor and thread count.
///
/// The deadline calibration draws from its own sub-seed, independent of
/// the measured trials. (The original implementation calibrated from
/// 200k draws of the *same* `Rng64` stream that then drove the trials,
/// correlating the deadline estimate with the measurement.) It is one
/// [`LatencyDist::quantile_on`] call, which selects the deadline from the
/// few draws a screen cannot place below it.
pub fn hedge_experiment_on(
    dist: LatencyDist,
    deadline_quantile: f64,
    trials: usize,
    seed: u64,
    exec: &dyn Parallelism,
) -> HedgeOutcome {
    assert!((0.0..1.0).contains(&deadline_quantile));
    // Same contract as `fanout_sweep_on`: zero trials would divide
    // `extra_load` by zero and let a NaN flow silently into reports.
    assert!(trials > 0, "hedge experiment needs at least one trial");
    let mut root = Rng64::new(seed);
    let calib_seed = root.next_u64();
    let trial_seed = root.next_u64();
    let deadline = dist.quantile_on(200_000, calib_seed, deadline_quantile * 100.0, exec);
    let service = dist.sampler();
    let per_chunk = mc_chunks(exec, trials, trial_seed, |r, rng| {
        let mut xs = Vec::with_capacity(r.len());
        let mut hedged = 0usize;
        for _ in r {
            let (t, h) = hedged_with(&service, deadline, rng);
            xs.push(t);
            hedged += h as usize;
        }
        (xs, hedged)
    });
    let mut xs = Vec::with_capacity(trials);
    let mut hedged = 0usize;
    for (x, h) in per_chunk {
        xs.extend(x);
        hedged += h;
    }
    let [p50, p99, p999] = percentiles(&xs, [50.0, 99.0, 99.9]);
    HedgeOutcome {
        deadline_ms: deadline,
        p50,
        p99,
        p999,
        extra_load: hedged as f64 / trials as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xxi_core::par::Serial;
    use xxi_core::stats::Summary;

    #[test]
    fn hedging_collapses_the_far_tail_cheaply() {
        let dist = LatencyDist::typical_leaf();
        let mut rng = Rng64::new(1);
        let base = dist.sample_summary(300_000, &mut rng);
        let hedged = hedge_experiment_on(dist, 0.95, 300_000, 2, &Serial);
        // ~5% extra load…
        assert!(
            (hedged.extra_load - 0.05).abs() < 0.01,
            "load={}",
            hedged.extra_load
        );
        // …median untouched…
        assert!((hedged.p50 - base.median()).abs() < 0.3);
        // …and the p99.9 collapses by a large factor (the Tail-at-Scale
        // result shape).
        assert!(
            hedged.p999 < base.percentile(99.9) / 3.0,
            "hedged p999={} base p999={}",
            hedged.p999,
            base.percentile(99.9)
        );
    }

    #[test]
    fn hedged_latency_never_exceeds_unhedged_draw() {
        // By construction min(a, deadline + b) ≤ a.
        let dist = LatencyDist::typical_leaf();
        let service = dist.sampler();
        let mut rng = Rng64::new(3);
        for _ in 0..10_000 {
            let mut probe = rng.clone();
            let a = dist.sample(&mut probe);
            let (t, _) = hedged_with(&service, 10.0, &mut rng);
            // Same RNG stream: first draw is `a`.
            assert!(t <= a + 1e-12);
        }
    }

    #[test]
    fn measured_trials_never_touch_the_calibration_stream() {
        // Regression: the deadline used to be calibrated from 200k draws
        // of the same Rng64 stream that then drove the measured trials,
        // so the measurement depended on the calibration. With disjoint
        // sub-seeds the trial draws are reproducible without performing a
        // single calibration draw.
        let dist = LatencyDist::typical_leaf();
        let out = hedge_experiment_on(dist, 0.95, 20_000, 13, &Serial);
        let mut root = Rng64::new(13);
        let _calib_seed = root.next_u64();
        let trial_seed = root.next_u64();
        let service = dist.sampler();
        let chunks = mc_chunks(&Serial, 20_000, trial_seed, |r, rng| {
            r.map(|_| hedged_with(&service, out.deadline_ms, rng).0)
                .collect::<Vec<f64>>()
        });
        let xs: Vec<f64> = chunks.into_iter().flatten().collect();
        let s = Summary::from_slice(&xs);
        assert_eq!(s.median().to_bits(), out.p50.to_bits());
        assert_eq!(s.percentile(99.9).to_bits(), out.p999.to_bits());
    }

    #[test]
    #[should_panic(expected = "at least one trial")]
    fn zero_trials_is_a_contract_violation_not_a_nan() {
        // Regression: `extra_load = hedged / trials` used to evaluate
        // 0 / 0 = NaN and flow silently into reports; now it's a loud
        // contract violation like the fan-out model's.
        hedge_experiment_on(LatencyDist::typical_leaf(), 0.95, 0, 1, &Serial);
    }

    #[test]
    fn later_deadline_less_load_less_benefit() {
        let dist = LatencyDist::typical_leaf();
        let h95 = hedge_experiment_on(dist, 0.95, 100_000, 4, &Serial);
        let h999 = hedge_experiment_on(dist, 0.999, 100_000, 4, &Serial);
        assert!(h999.extra_load < h95.extra_load / 10.0);
        assert!(h999.p999 >= h95.p999);
    }
}
