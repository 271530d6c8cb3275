//! Fan-out requests and the 63% straggler claim — experiment E9.
//!
//! A root fans a query to `n` leaves and must wait for all of them. The
//! paper: *"if 100 systems must jointly respond to a request, 63% of
//! requests will incur the 99-percentile delay of the individual systems"*
//! — i.e. `P(max of 100 i.i.d. draws > p99) = 1 − 0.99¹⁰⁰ ≈ 0.634`.
//! [`analytic_straggler_prob`] is the formula; [`fanout_latency`] is the
//! Monte Carlo that confirms it for realistic (non-i.i.d.-textbook)
//! latency distributions and produces the full latency-vs-fanout table.
//!
//! Each trial is one [`LatencyDist::sample_max`] call. It screens out the
//! leaves that cannot be the trial's max after their draws, and it skips
//! them only with a margin far wider than any rounding error. So every
//! trial returns the same bits as the max of `fanout` plain `sample`
//! draws, and the generator ends in the same state. The bound and the
//! margin are documented in [`crate::latency`].

use serde::Serialize;

use crate::latency::LatencyDist;
use xxi_core::par::{mc_chunks, Parallelism, Serial};
use xxi_core::rng::Rng64;
use xxi_core::stats::{percentiles, Summary};

/// `P(at least one of n leaves exceeds its own q-quantile) = 1 − q^n`.
///
/// ```
/// use xxi_cloud::fanout::analytic_straggler_prob;
/// // The paper's 63% claim, verbatim.
/// assert!((analytic_straggler_prob(100, 0.99) - 0.634).abs() < 1e-3);
/// ```
pub fn analytic_straggler_prob(fanout: u32, quantile: f64) -> f64 {
    assert!(fanout >= 1);
    assert!((0.0..1.0).contains(&quantile));
    1.0 - quantile.powi(fanout as i32)
}

/// Result of a fan-out Monte Carlo.
#[derive(Clone, Debug, Serialize)]
pub struct FanoutResult {
    /// Fan-out degree.
    pub fanout: u32,
    /// Median request latency (ms).
    pub p50: f64,
    /// 99th-percentile request latency (ms).
    pub p99: f64,
    /// Mean request latency (ms).
    pub mean: f64,
    /// Fraction of requests whose slowest leaf exceeded the single-leaf
    /// p99.
    pub frac_hit_by_leaf_p99: f64,
}

/// Simulate `trials` requests, each the max of `fanout` leaf draws.
pub fn fanout_latency(dist: LatencyDist, fanout: u32, trials: usize, seed: u64) -> FanoutResult {
    fanout_latency_on(dist, fanout, trials, seed, &Serial)
}

/// [`fanout_latency`] on an explicit executor. Chunked via [`mc_chunks`]:
/// the result is a pure function of the arguments — byte-identical for
/// every executor and thread count.
pub fn fanout_latency_on(
    dist: LatencyDist,
    fanout: u32,
    trials: usize,
    seed: u64,
    exec: &dyn Parallelism,
) -> FanoutResult {
    assert!(fanout >= 1 && trials > 0);
    // Domain-separated sub-seeds: the p99 calibration and the measured
    // trials draw from disjoint substream families.
    let mut root = Rng64::new(seed);
    let calib_seed = root.next_u64();
    let trial_seed = root.next_u64();
    // Estimate the single-leaf p99 first.
    let [leaf_p99] = percentiles(&dist.draws_on(200_000, calib_seed, exec), [99.0]);

    let per_chunk = mc_chunks(exec, trials, trial_seed, |r, rng| {
        let mut maxima = Vec::with_capacity(r.len());
        let mut hit = 0usize;
        for _ in r {
            let worst = dist.sample_max(fanout as usize, rng);
            if worst > leaf_p99 {
                hit += 1;
            }
            maxima.push(worst);
        }
        (maxima, hit)
    });
    let mut maxima = Vec::with_capacity(trials);
    let mut hit = 0usize;
    for (m, h) in per_chunk {
        maxima.extend(m);
        hit += h;
    }
    let s = Summary::from_slice(&maxima);
    FanoutResult {
        fanout,
        p50: s.median(),
        p99: s.percentile(99.0),
        mean: s.mean(),
        frac_hit_by_leaf_p99: hit as f64 / trials as f64,
    }
}

/// The E9 sweep: one [`FanoutResult`] per fan-out degree.
pub fn fanout_sweep(
    dist: LatencyDist,
    fanouts: &[u32],
    trials: usize,
    seed: u64,
) -> Vec<FanoutResult> {
    fanout_sweep_on(dist, fanouts, trials, seed, &Serial)
}

/// [`fanout_sweep`] on an explicit executor: each degree's Monte Carlo
/// runs its chunks on `exec`; the sweep order (and every number) is
/// executor-independent.
///
/// Per-degree seeds come from [`Rng64::stream`], the splittable-substream
/// construction — a distinct, decorrelated generator per sweep point.
/// (The original implementation derived them as `seed ^ f`, which
/// collides whenever `seed ^ f == seed' ^ f'` — e.g. seed 10 at fan-out
/// 10 and seed 12 at fan-out 12 both simulated from seed 0 — and feeds
/// nearly identical bit patterns to neighbouring degrees.)
pub fn fanout_sweep_on(
    dist: LatencyDist,
    fanouts: &[u32],
    trials: usize,
    seed: u64,
    exec: &dyn Parallelism,
) -> Vec<FanoutResult> {
    fanouts
        .iter()
        .enumerate()
        .map(|(i, &f)| {
            let sub_seed = Rng64::stream(seed, i as u64).next_u64();
            fanout_latency_on(dist, f, trials, sub_seed, exec)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_63_percent_claim_analytic() {
        // The paper's exact arithmetic.
        let p = analytic_straggler_prob(100, 0.99);
        assert!((p - 0.634).abs() < 0.001, "p={p}");
        // And neighbours for the table.
        assert!((analytic_straggler_prob(10, 0.99) - 0.0956).abs() < 0.001);
        assert!((analytic_straggler_prob(1000, 0.99) - 0.99996).abs() < 0.0001);
        assert!((analytic_straggler_prob(1, 0.99) - 0.01).abs() < 1e-12);
    }

    #[test]
    fn monte_carlo_confirms_63_percent() {
        let r = fanout_latency(LatencyDist::typical_leaf(), 100, 20_000, 7);
        assert!(
            (r.frac_hit_by_leaf_p99 - 0.634).abs() < 0.02,
            "mc={}",
            r.frac_hit_by_leaf_p99
        );
    }

    #[test]
    fn monte_carlo_confirms_for_other_distributions_too() {
        // The 1 − q^n law is distribution-free (it only uses the quantile
        // definition), so it must hold for exponential latencies as well.
        let r = fanout_latency(LatencyDist::Exp { mean_ms: 3.0 }, 50, 20_000, 8);
        let expect = analytic_straggler_prob(50, 0.99);
        assert!(
            (r.frac_hit_by_leaf_p99 - expect).abs() < 0.02,
            "mc={} analytic={expect}",
            r.frac_hit_by_leaf_p99
        );
    }

    #[test]
    fn fanout_pushes_median_into_the_leaf_tail() {
        // The qualitative disaster: at fan-out 100 the MEDIAN request is
        // slower than the 90th percentile leaf.
        let mut rng = Rng64::new(9);
        let leaf = LatencyDist::typical_leaf().sample_summary(200_000, &mut rng);
        let r = fanout_latency(LatencyDist::typical_leaf(), 100, 10_000, 9);
        assert!(
            r.p50 > leaf.percentile(90.0),
            "p50={} leaf p90={}",
            r.p50,
            leaf.percentile(90.0)
        );
    }

    #[test]
    fn sweep_is_monotone_in_fanout() {
        let sweep = fanout_sweep(LatencyDist::typical_leaf(), &[1, 10, 100], 10_000, 10);
        assert_eq!(sweep.len(), 3);
        for w in sweep.windows(2) {
            assert!(w[1].p50 > w[0].p50);
            assert!(w[1].frac_hit_by_leaf_p99 > w[0].frac_hit_by_leaf_p99);
        }
    }

    #[test]
    fn sweep_points_use_disjoint_rng_streams() {
        // Regression: per-degree seeds used to be `seed ^ f`, so the
        // sweep point (seed = 10, fanout = 10) ran from raw seed
        // 10 ^ 10 = 0 — bit-identical to a solo run seeded 0, and
        // likewise for every colliding (seed, degree) pair. With
        // `Rng64::stream` substreams every (seed, position) pair gets its
        // own decorrelated generator.
        let dist = LatencyDist::typical_leaf();
        let sweep10 = fanout_sweep(dist, &[10], 5_000, 10);
        let aliased = fanout_latency(dist, 10, 5_000, 0);
        assert_ne!(
            sweep10[0].p50.to_bits(),
            aliased.p50.to_bits(),
            "XOR seed derivation aliased this sweep point to raw seed 0"
        );
        // And the sweep points themselves reproduce the documented
        // substream construction.
        let sweep = fanout_sweep(dist, &[1, 10, 100], 5_000, 7);
        for (i, &f) in [1u32, 10, 100].iter().enumerate() {
            let sub_seed = Rng64::stream(7, i as u64).next_u64();
            let solo = fanout_latency(dist, f, 5_000, sub_seed);
            assert_eq!(sweep[i].p50.to_bits(), solo.p50.to_bits());
            assert_eq!(sweep[i].p99.to_bits(), solo.p99.to_bits());
        }
    }
}
