//! Fan-out requests and the 63% straggler claim — experiment E9.
//!
//! A root fans a query to `n` leaves and must wait for all of them. The
//! paper: *"if 100 systems must jointly respond to a request, 63% of
//! requests will incur the 99-percentile delay of the individual systems"*
//! — i.e. `P(max of 100 i.i.d. draws > p99) = 1 − 0.99¹⁰⁰ ≈ 0.634`.
//! [`analytic_straggler_prob`] is the formula; [`fanout_sweep_on`] is the
//! Monte Carlo that confirms it for realistic (non-i.i.d.-textbook)
//! latency distributions and produces the full latency-vs-fanout table.
//!
//! Each trial is one [`LatencyDist::sample_max`] call. It screens out the
//! leaves that cannot be the trial's max after their draws, and it skips
//! them only with a margin far wider than any rounding error. So every
//! trial returns the same bits as the max of `fanout` plain `sample`
//! draws, and the generator ends in the same state. Each degree's leaf
//! p99 comes from [`LatencyDist::quantile_on`], which screens the same
//! way. The bounds and the margin are documented in [`crate::latency`].
//!
//! A sweep is one map: every degree's trial chunks, longest first, then
//! every degree's calibration, so no worker idles while a degree's last
//! chunk runs. The numbers do not depend on the order the map runs in.

use std::cmp::Reverse;

use crate::latency::LatencyDist;
use xxi_core::par::{self, Parallelism, Serial, MC_GRAIN};
use xxi_core::rng::Rng64;
use xxi_core::stats::Summary;

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
    // `powi` takes an `i32`; above `i32::MAX` the exponent would wrap
    // negative. `powf` takes every `u32` exactly.
    match i32::try_from(fanout) {
        Ok(n) => 1.0 - quantile.powi(n),
        Err(_) => 1.0 - quantile.powf(f64::from(fanout)),
    }
}

/// Result of a fan-out Monte Carlo.
#[derive(Clone, Debug)]
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

/// The E9 sweep: one [`FanoutResult`] per fan-out degree, each from
/// `trials` requests that take the max of `fanout` leaf draws. Every
/// degree's Monte Carlo runs on one map over `exec`, chunked like
/// [`xxi_core::par::mc_chunks`]: the sweep order and every number are a
/// pure function of the arguments, byte-identical for every executor and
/// thread count.
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
    let runs: Vec<(u32, u64)> = fanouts
        .iter()
        .enumerate()
        .map(|(i, &f)| (f, Rng64::stream(seed, i as u64).next_u64()))
        .collect();
    fanout_runs(dist, &runs, trials, exec)
}

/// A job on the fan-out map.
#[derive(Clone, Copy)]
enum Job {
    /// Trial chunk `chunk` of degree `run`.
    Trials { run: usize, chunk: usize },
    /// Degree `run`'s single-leaf p99.
    Calibrate { run: usize },
}

/// One [`FanoutResult`] per `(fanout, seed)` run. Each seed splits into a
/// calibration sub-seed and a trial sub-seed, so the p99 calibration and
/// the measured trials draw from disjoint substream families. The trials
/// are [`MC_GRAIN`] chunks, chunk `c` on `Rng64::stream(trial_seed, c)`,
/// as [`xxi_core::par::mc_chunks`] lays them out. Every run's chunks and
/// calibration go on one map, longest first: trial chunks by `len ×
/// fanout` leaf draws, then the calibrations, whose leaves are mostly
/// screened. A second map sorts each run's maxima.
fn fanout_runs(
    dist: LatencyDist,
    runs: &[(u32, u64)],
    trials: usize,
    exec: &dyn Parallelism,
) -> Vec<FanoutResult> {
    assert!(trials > 0 && runs.iter().all(|&(f, _)| f >= 1));
    let seeds: Vec<(u64, u64)> = runs
        .iter()
        .map(|&(_, seed)| {
            let mut root = Rng64::new(seed);
            (root.next_u64(), root.next_u64())
        })
        .collect();
    let span = |chunk: usize| chunk * MC_GRAIN..((chunk + 1) * MC_GRAIN).min(trials);
    let mut chunks: Vec<(usize, usize)> = (0..runs.len())
        .flat_map(|run| (0..trials.div_ceil(MC_GRAIN)).map(move |chunk| (run, chunk)))
        .collect();
    chunks.sort_by_key(|&(run, chunk)| Reverse(span(chunk).len() * runs[run].0 as usize));
    let jobs: Vec<Job> = chunks
        .into_iter()
        .map(|(run, chunk)| Job::Trials { run, chunk })
        .chain((0..runs.len()).map(|run| Job::Calibrate { run }))
        .collect();
    let done = par::map(exec, jobs.len(), |j| match jobs[j] {
        Job::Trials { run, chunk } => {
            let mut rng = Rng64::stream(seeds[run].1, chunk as u64);
            let fanout = runs[run].0 as usize;
            span(chunk)
                .map(|_| dist.sample_max(fanout, &mut rng))
                .collect()
        }
        Job::Calibrate { run } => vec![dist.quantile_on(200_000, seeds[run].0, 99.0, &Serial)],
    });
    let mut maxima = vec![vec![0.0; trials]; runs.len()];
    let mut leaf_p99 = vec![0.0; runs.len()];
    for (job, out) in jobs.iter().zip(done) {
        match *job {
            Job::Trials { run, chunk } => maxima[run][span(chunk)].copy_from_slice(&out),
            Job::Calibrate { run } => leaf_p99[run] = out[0],
        }
    }
    par::map(exec, runs.len(), |run| {
        let worst = &maxima[run];
        let hit = worst.iter().filter(|&&w| w > leaf_p99[run]).count();
        let s = Summary::from_slice(worst);
        FanoutResult {
            fanout: runs[run].0,
            p50: s.median(),
            p99: s.percentile(99.0),
            mean: s.mean(),
            frac_hit_by_leaf_p99: hit as f64 / trials as f64,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::Reversed;
    use xxi_stack::pool::Pool;

    /// One degree's run from a raw seed, as a sweep point runs it.
    fn solo(dist: LatencyDist, fanout: u32, trials: usize, seed: u64) -> FanoutResult {
        fanout_runs(dist, &[(fanout, seed)], trials, &Serial).remove(0)
    }

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
    fn the_analytic_probability_takes_every_u32_fanout() {
        // `powi(fanout as i32)` wrapped 3e9 to a negative exponent: −inf.
        assert_eq!(analytic_straggler_prob(3_000_000_000, 0.99), 1.0);
        let q = 1.0 - 1e-10;
        for fanout in [
            i32::MAX as u32,
            i32::MAX as u32 + 1,
            3_000_000_000,
            u32::MAX,
        ] {
            let p = analytic_straggler_prob(fanout, q);
            let want = -(f64::from(fanout) * q.ln()).exp_m1();
            assert!((p - want).abs() < 1e-6, "fanout {fanout}: {p} vs {want}");
        }
        // Below the switch the `powi` bits are kept.
        assert_eq!(
            analytic_straggler_prob(100, 0.99).to_bits(),
            (1.0 - 0.99f64.powi(100)).to_bits()
        );
    }

    #[test]
    fn the_sweep_is_the_same_on_every_executor() {
        let dist = LatencyDist::typical_leaf();
        let fanouts = [1, 10, 50, 100];
        let bits = |rows: Vec<FanoutResult>| -> Vec<[u64; 5]> {
            rows.iter()
                .map(|r| {
                    [
                        u64::from(r.fanout),
                        r.p50.to_bits(),
                        r.p99.to_bits(),
                        r.mean.to_bits(),
                        r.frac_hit_by_leaf_p99.to_bits(),
                    ]
                })
                .collect()
        };
        // Three chunks per degree, the last one short.
        let trials = 2 * MC_GRAIN + 100;
        let want = bits(fanout_sweep_on(dist, &fanouts, trials, 3, &Serial));
        assert_eq!(
            bits(fanout_sweep_on(dist, &fanouts, trials, 3, &Reversed)),
            want
        );
        for threads in [1, 2, 4] {
            let pool = Pool::new(threads);
            let got = bits(fanout_sweep_on(dist, &fanouts, trials, 3, &pool));
            assert_eq!(got, want, "{threads} threads");
        }
    }

    #[test]
    fn monte_carlo_confirms_63_percent() {
        let r = solo(LatencyDist::typical_leaf(), 100, 20_000, 7);
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
        let r = solo(LatencyDist::Exp { mean_ms: 3.0 }, 50, 20_000, 8);
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
        let r = solo(LatencyDist::typical_leaf(), 100, 10_000, 9);
        assert!(
            r.p50 > leaf.percentile(90.0),
            "p50={} leaf p90={}",
            r.p50,
            leaf.percentile(90.0)
        );
    }

    #[test]
    fn sweep_is_monotone_in_fanout() {
        let sweep = fanout_sweep_on(
            LatencyDist::typical_leaf(),
            &[1, 10, 100],
            10_000,
            10,
            &Serial,
        );
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
        let sweep10 = fanout_sweep_on(dist, &[10], 5_000, 10, &Serial);
        let aliased = solo(dist, 10, 5_000, 0);
        assert_ne!(
            sweep10[0].p50.to_bits(),
            aliased.p50.to_bits(),
            "XOR seed derivation aliased this sweep point to raw seed 0"
        );
        // And the sweep points themselves reproduce the documented
        // substream construction.
        let sweep = fanout_sweep_on(dist, &[1, 10, 100], 5_000, 7, &Serial);
        for (i, &f) in [1u32, 10, 100].iter().enumerate() {
            let sub_seed = Rng64::stream(7, i as u64).next_u64();
            let one = solo(dist, f, 5_000, sub_seed);
            assert_eq!(sweep[i].p50.to_bits(), one.p50.to_bits());
            assert_eq!(sweep[i].p99.to_bits(), one.p99.to_bits());
        }
    }
}
