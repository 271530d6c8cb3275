//! Server response-time distributions.
//!
//! Measured leaf-server latencies are well described by a log-normal body
//! with a heavy straggler tail (GC pauses, background daemons, queueing
//! spikes). [`LatencyDist`] offers the three shapes the experiments use.
//!
//! [`LatencyDist::sample_max`] is the fan-out kernel: the largest of `n`
//! draws, bit-identical to folding [`LatencyDist::sample`] with
//! `f64::max`, and leaving the generator in the same state. Every leaf
//! still makes its draws, but for the two log-normal shapes only a leaf
//! that can still be the max is turned into a latency; the exponential
//! shape, which no fan-out workload uses, is a plain fold. A body leaf
//! is `exp(μ + σz)` with `z = box_muller(u, v)`, and
//! `|z| ≤ sqrt(−2 ln u)`. So a leaf whose `u` lies above
//! `exp(−(z* − Δ)²/2)` cannot reach `z*`, the best score so far: the
//! largest body `z`, or a straggler's latency mapped back to z-space.
//! Such a leaf is skipped. Stragglers are always drawn in full, and the
//! cut is recomputed only when `z*` rises. For E9's typical leaf the
//! share of body leaves evaluated is ~14 % at fan-out 100 and ~1.5 % at
//! 1000; over E9's whole fan-out sweep it is ~4 %. `SCREEN_MARGIN`
//! explains why the margin Δ can never flip the max.

use serde::{Deserialize, Serialize};

use xxi_core::par::{mc_chunks, Parallelism};
use xxi_core::rng::Rng64;
use xxi_core::stats::Summary;

/// A response-time distribution (milliseconds).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum LatencyDist {
    /// Exponential with the given mean.
    Exp {
        /// Mean latency (ms).
        mean_ms: f64,
    },
    /// Log-normal parameterized by median and sigma (ln-space).
    LogNormal {
        /// Median latency (ms).
        median_ms: f64,
        /// ln-space standard deviation.
        sigma: f64,
    },
    /// Log-normal body; with probability `p_straggler` the response is
    /// instead Pareto-tailed starting at `tail_start_ms`.
    WithStragglers {
        /// Median of the body (ms).
        median_ms: f64,
        /// ln-space sigma of the body.
        sigma: f64,
        /// Probability a response is a straggler.
        p_straggler: f64,
        /// Straggler minimum latency (ms).
        tail_start_ms: f64,
        /// Pareto shape (smaller = heavier).
        alpha: f64,
    },
}

impl LatencyDist {
    /// A typical leaf server: 5 ms median, modest spread, 1% stragglers
    /// from 50 ms with a heavy tail.
    pub fn typical_leaf() -> LatencyDist {
        LatencyDist::WithStragglers {
            median_ms: 5.0,
            sigma: 0.3,
            p_straggler: 0.01,
            tail_start_ms: 50.0,
            alpha: 1.5,
        }
    }

    /// Draw one response time in milliseconds.
    pub fn sample(&self, rng: &mut Rng64) -> f64 {
        self.sampler().sample(rng)
    }

    /// The variant and the bits of every field: two distributions with
    /// equal keys make the same draws.
    pub(crate) fn bits(&self) -> [u64; 6] {
        match *self {
            LatencyDist::Exp { mean_ms } => [0, mean_ms.to_bits(), 0, 0, 0, 0],
            LatencyDist::LogNormal { median_ms, sigma } => {
                [1, median_ms.to_bits(), sigma.to_bits(), 0, 0, 0]
            }
            LatencyDist::WithStragglers {
                median_ms,
                sigma,
                p_straggler,
                tail_start_ms,
                alpha,
            } => [
                2,
                median_ms.to_bits(),
                sigma.to_bits(),
                p_straggler.to_bits(),
                tail_start_ms.to_bits(),
                alpha.to_bits(),
            ],
        }
    }

    /// This distribution prepared for many draws: see [`Sampler`].
    pub(crate) fn sampler(&self) -> Sampler {
        match *self {
            LatencyDist::Exp { mean_ms } => Sampler::Exp {
                rate: 1.0 / mean_ms,
            },
            LatencyDist::LogNormal { median_ms, sigma } => Sampler::LogNormal {
                mu: median_ms.ln(),
                sigma,
            },
            LatencyDist::WithStragglers {
                median_ms,
                sigma,
                p_straggler,
                tail_start_ms,
                alpha,
            } => Sampler::WithStragglers {
                mu: median_ms.ln(),
                sigma,
                p_straggler,
                tail_start_ms,
                alpha,
                inv_alpha: 1.0 / alpha,
            },
        }
    }

    /// The largest of `n` draws: the bits of
    /// `(0..n).map(|_| self.sample(rng)).fold(f64::MIN, f64::max)`, with
    /// `rng` left in the same state. Each leaf draws exactly what
    /// [`LatencyDist::sample`] draws, in the same order; for the log-normal
    /// shapes, leaves that cannot beat the running max are skipped after
    /// their draws (see the module doc).
    pub fn sample_max(&self, n: usize, rng: &mut Rng64) -> f64 {
        match *self {
            LatencyDist::Exp { .. } => {
                let s = self.sampler();
                (0..n).map(|_| s.sample(rng)).fold(f64::MIN, f64::max)
            }
            LatencyDist::LogNormal { median_ms, sigma } => {
                lognormal_max(n, median_ms, sigma, None, rng)
            }
            LatencyDist::WithStragglers {
                median_ms,
                sigma,
                p_straggler,
                tail_start_ms,
                alpha,
            } => lognormal_max(
                n,
                median_ms,
                sigma,
                Some((p_straggler, tail_start_ms, alpha)),
                rng,
            ),
        }
    }

    /// Draw `n` samples into a [`Summary`].
    pub fn sample_summary(&self, n: usize, rng: &mut Rng64) -> Summary {
        let s = self.sampler();
        let xs: Vec<f64> = (0..n).map(|_| s.sample(rng)).collect();
        Summary::from_slice(&xs)
    }

    /// Draw `n` samples seeded by `seed` into a [`Summary`], on `exec`.
    ///
    /// Chunked through [`mc_chunks`]: the result is a pure function of
    /// `(self, n, seed)` — identical for every executor and thread count.
    /// (It differs from [`LatencyDist::sample_summary`] on a fresh
    /// generator with the same seed; the substream layout is different.)
    pub fn sample_summary_on(&self, n: usize, seed: u64, exec: &dyn Parallelism) -> Summary {
        Summary::from_slice(&self.draws_on(n, seed, exec))
    }

    /// The `n` draws behind [`LatencyDist::sample_summary_on`], in chunk
    /// order, for callers that only select percentiles from them.
    pub(crate) fn draws_on(&self, n: usize, seed: u64, exec: &dyn Parallelism) -> Vec<f64> {
        let s = self.sampler();
        let chunks = mc_chunks(exec, n, seed, |r, rng| {
            r.map(|_| s.sample(rng)).collect::<Vec<f64>>()
        });
        chunks.into_iter().flatten().collect()
    }
}

/// A [`LatencyDist`] prepared for many draws. `ln(median)`, `1 / mean`
/// and `1 / alpha` are computed once, not on every draw. [`Sampler::sample`]
/// is the one body behind [`LatencyDist::sample`]: it makes the same draws
/// in the same order and evaluates the same expressions on them, so a loop
/// that holds a sampler gets the bits of calling `sample` each time. It
/// keeps the asserts of [`Rng64::exp`] and [`Rng64::pareto`] on the draws
/// that make them, so a bad distribution still panics on the same draw.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Sampler {
    /// [`LatencyDist::Exp`]: `rate = 1 / mean_ms`.
    Exp { rate: f64 },
    /// [`LatencyDist::LogNormal`]: `mu = ln(median_ms)`.
    LogNormal { mu: f64, sigma: f64 },
    /// [`LatencyDist::WithStragglers`]: `mu = ln(median_ms)`,
    /// `inv_alpha = 1 / alpha`.
    WithStragglers {
        mu: f64,
        sigma: f64,
        p_straggler: f64,
        tail_start_ms: f64,
        alpha: f64,
        inv_alpha: f64,
    },
}

impl Sampler {
    /// Draw one response time in milliseconds.
    #[inline]
    pub(crate) fn sample(&self, rng: &mut Rng64) -> f64 {
        match *self {
            Sampler::Exp { rate } => rng.exp(rate),
            Sampler::LogNormal { mu, sigma } => rng.lognormal(mu, sigma),
            Sampler::WithStragglers {
                mu,
                sigma,
                p_straggler,
                tail_start_ms,
                alpha,
                inv_alpha,
            } => {
                if rng.chance(p_straggler) {
                    // `rng.pareto(tail_start_ms, alpha)` with `1 / alpha`
                    // taken from the sampler.
                    assert!(tail_start_ms > 0.0 && alpha > 0.0);
                    tail_start_ms / (1.0 - rng.next_f64()).powf(inv_alpha)
                } else {
                    rng.lognormal(mu, sigma)
                }
            }
        }
    }
}

/// The screen's margin Δ. It is taken in z-space as Δ / min(σ, 1), so a
/// skipped leaf sits at least Δ below the running best both in `z` and in
/// `μ + σz`, the argument of its final `exp`. Why this can never flip the
/// max: it only has to absorb rounding, which is a few ulps. The cut's own
/// `exp` errs by under an ulp, and [`CUT_SLACK`] covers that. `ln`,
/// `sqrt`, `cos` and the products err by a few ulps of a score of at most
/// ~8.6 (`u ≥ 2⁻⁵³`), so ~1e-14. The argument `μ + σz` and a straggler's
/// `ln x` err by a few ulps of at most ~745 (beyond that `exp`
/// saturates), so ~1e-13. Δ = 1e-9 is over 1e4 times either, so a
/// skipped leaf's rounded score and argument are strictly below the
/// best's. Rounding is monotone, so its latency is at most the best's,
/// and the max keeps its bits. At E9's σ = 0.3 the gap in the argument
/// is 1e-9, about 4·10⁶ ulps of `μ + σz`.
const SCREEN_MARGIN: f64 = 1e-9;

/// Relative slack on the cut's own `exp`, which can round down by an ulp.
const CUT_SLACK: f64 = 1.0 + 1e-12;

/// The `u` above which a Box–Muller draw has `|z| < zc`: `exp(−zc²/2)`,
/// or 1.0 (no `u ∈ (0, 1]` lies above it) when `zc ≤ 0`.
fn normal_cut(zc: f64) -> f64 {
    if zc > 0.0 {
        (-0.5 * zc * zc).exp() * CUT_SLACK
    } else {
        1.0
    }
}

/// [`LatencyDist::sample_max`] for the log-normal body, with the
/// `(p_straggler, tail_start_ms, alpha)` Pareto tail when given.
fn lognormal_max(
    n: usize,
    median_ms: f64,
    sigma: f64,
    straggler: Option<(f64, f64, f64)>,
    rng: &mut Rng64,
) -> f64 {
    let mu = median_ms.ln();
    // The latency is nondecreasing in z only for σ > 0. Otherwise Δ = ∞
    // keeps the cut at 1.0, and every leaf is evaluated.
    let delta = if sigma > 0.0 {
        SCREEN_MARGIN / sigma.min(1.0)
    } else {
        f64::INFINITY
    };
    let (mut best, mut z_star, mut cut) = (f64::MIN, f64::NEG_INFINITY, 1.0);
    for _ in 0..n {
        if let Some((p, tail_start_ms, alpha)) = straggler {
            if rng.chance(p) {
                let x = rng.pareto(tail_start_ms, alpha);
                if x > best {
                    best = x;
                    let z = (x.ln() - mu) / sigma;
                    if z > z_star {
                        z_star = z;
                        cut = normal_cut(z_star - delta);
                    }
                }
                continue;
            }
        }
        let (u, v) = rng.normal_uv();
        if u > cut {
            continue;
        }
        // `rng.lognormal(mu, sigma)`'s arithmetic on the same draws.
        let z = Rng64::box_muller(u, v);
        best = best.max((mu + sigma * z).exp());
        if z > z_star {
            z_star = z;
            cut = normal_cut(z_star - delta);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exponential_mean() {
        let mut rng = Rng64::new(1);
        let d = LatencyDist::Exp { mean_ms: 10.0 };
        let s = d.sample_summary(100_000, &mut rng);
        assert!((s.mean() - 10.0).abs() < 0.15, "mean={}", s.mean());
    }

    #[test]
    fn lognormal_median() {
        let mut rng = Rng64::new(2);
        let d = LatencyDist::LogNormal {
            median_ms: 5.0,
            sigma: 0.3,
        };
        let s = d.sample_summary(100_001, &mut rng);
        assert!((s.median() - 5.0).abs() < 0.1, "median={}", s.median());
    }

    #[test]
    fn stragglers_fatten_the_tail_not_the_median() {
        let mut rng = Rng64::new(3);
        let body = LatencyDist::LogNormal {
            median_ms: 5.0,
            sigma: 0.3,
        };
        let leaf = LatencyDist::typical_leaf();
        let sb = body.sample_summary(200_001, &mut rng);
        let sl = leaf.sample_summary(200_001, &mut rng);
        assert!((sl.median() - sb.median()).abs() < 0.2);
        assert!(
            sl.percentile(99.9) > 3.0 * sb.percentile(99.9),
            "leaf p999={} body p999={}",
            sl.percentile(99.9),
            sb.percentile(99.9)
        );
    }

    #[test]
    fn typical_leaf_p99_in_tens_of_ms() {
        let mut rng = Rng64::new(4);
        let s = LatencyDist::typical_leaf().sample_summary(300_000, &mut rng);
        let p99 = s.percentile(99.0);
        assert!((10.0..150.0).contains(&p99), "p99={p99}");
    }

    #[test]
    fn all_samples_positive() {
        let mut rng = Rng64::new(5);
        for d in [
            LatencyDist::Exp { mean_ms: 1.0 },
            LatencyDist::typical_leaf(),
        ] {
            for _ in 0..10_000 {
                assert!(d.sample(&mut rng) > 0.0);
            }
        }
    }

    /// What [`LatencyDist::sample_max`] must reproduce bit for bit.
    fn reference_max(d: &LatencyDist, n: usize, rng: &mut Rng64) -> f64 {
        (0..n).map(|_| d.sample(rng)).fold(f64::MIN, f64::max)
    }

    /// All three variants, including adversarial ones where body leaves
    /// often beat stragglers (σ up to 3, the tail starting at or below
    /// the body median) and σ ≤ 0, where nothing may be skipped.
    fn oracle_dists() -> Vec<LatencyDist> {
        let mut v = vec![
            LatencyDist::Exp { mean_ms: 3.0 },
            LatencyDist::Exp { mean_ms: 1e-3 },
            LatencyDist::LogNormal {
                median_ms: 5.0,
                sigma: 0.3,
            },
            LatencyDist::LogNormal {
                median_ms: 0.01,
                sigma: 3.0,
            },
            LatencyDist::LogNormal {
                median_ms: 5.0,
                sigma: 0.0,
            },
            LatencyDist::LogNormal {
                median_ms: 5.0,
                sigma: -0.5,
            },
            LatencyDist::LogNormal {
                median_ms: 5.0,
                sigma: 1e-14,
            },
        ];
        for sigma in [0.3, 1.0, 3.0] {
            for tail_start_ms in [2.5, 5.0, 50.0] {
                for p_straggler in [0.0, 0.01, 0.5, 1.0] {
                    v.push(LatencyDist::WithStragglers {
                        median_ms: 5.0,
                        sigma,
                        p_straggler,
                        tail_start_ms,
                        alpha: 1.5,
                    });
                }
            }
        }
        v
    }

    /// At least `trials` `sample_max` calls over every oracle distribution
    /// and n ∈ {0, 1, 2, 3, 10, 100, 1000}, each compared by bits with
    /// [`reference_max`] on a twin generator. Each n ≥ 1 gets a share of
    /// the calls in proportion to 1/√n, so large n still gets ~√n times
    /// the leaves of small n without dominating the run time. The twins run
    /// in lockstep for a whole (distribution, n) cell, so a call that left
    /// the generator in another state shows in the next raw draw.
    fn check_against_reference(trials: usize) {
        let dists = oracle_dists();
        let ns = [0usize, 1, 2, 3, 10, 100, 1000];
        let weight = |n: usize| 1.0 / (n.max(1) as f64).sqrt();
        let total: f64 = ns.iter().map(|&n| weight(n)).sum();
        for (i, d) in dists.iter().enumerate() {
            for (j, &n) in ns.iter().enumerate() {
                let share = weight(n) / (total * dists.len() as f64);
                let per_cell = (trials as f64 * share).ceil() as usize;
                let mut fast = Rng64::stream(0x5A3, (i * ns.len() + j) as u64);
                let mut slow = fast.clone();
                for t in 0..per_cell {
                    let got = d.sample_max(n, &mut fast);
                    let want = reference_max(d, n, &mut slow);
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "{d:?} n={n} trial {t}: {got} vs {want}"
                    );
                    assert_eq!(
                        fast.next_u64(),
                        slow.next_u64(),
                        "{d:?} n={n} trial {t}: generator state diverged"
                    );
                }
            }
        }
    }

    #[test]
    fn sample_max_matches_the_folded_samples_bit_for_bit() {
        check_against_reference(200_000);
    }

    #[test]
    #[ignore = "20M trials; run in release with --include-ignored"]
    fn sample_max_matches_the_folded_samples_at_scale() {
        check_against_reference(20_000_000);
    }

    /// `LatencyDist::sample` as it was before [`Sampler`], verbatim: what
    /// the sampler must reproduce.
    fn old_sample(d: &LatencyDist, rng: &mut Rng64) -> f64 {
        match *d {
            LatencyDist::Exp { mean_ms } => rng.exp(1.0 / mean_ms),
            LatencyDist::LogNormal { median_ms, sigma } => rng.lognormal(median_ms.ln(), sigma),
            LatencyDist::WithStragglers {
                median_ms,
                sigma,
                p_straggler,
                tail_start_ms,
                alpha,
            } => {
                if rng.chance(p_straggler) {
                    rng.pareto(tail_start_ms, alpha)
                } else {
                    rng.lognormal(median_ms.ln(), sigma)
                }
            }
        }
    }

    #[test]
    fn the_sampler_matches_the_old_sample_bit_for_bit() {
        for (i, d) in oracle_dists().iter().enumerate() {
            let s = d.sampler();
            let mut fast = Rng64::stream(0x5A4, i as u64);
            let mut slow = fast.clone();
            for t in 0..20_000 {
                let got = s.sample(&mut fast);
                let want = old_sample(d, &mut slow);
                assert_eq!(got.to_bits(), want.to_bits(), "{d:?} draw {t}");
                assert_eq!(
                    fast.next_u64(),
                    slow.next_u64(),
                    "{d:?} draw {t}: generator state diverged"
                );
            }
        }
    }

    /// How many draws `draw` makes before it panics, on a fixed stream.
    fn draws_before_panic(draw: impl Fn(&mut Rng64) -> f64) -> usize {
        let made = std::cell::Cell::new(0);
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut rng = Rng64::new(9);
            for _ in 0..10_000 {
                draw(&mut rng);
                made.set(made.get() + 1);
            }
        }));
        assert!(out.is_err(), "no panic in 10 000 draws");
        made.get()
    }

    #[test]
    fn a_bad_distribution_panics_on_the_same_draw_as_before() {
        let straggling = |tail_start_ms: f64, alpha: f64| LatencyDist::WithStragglers {
            median_ms: 5.0,
            sigma: 0.3,
            p_straggler: 0.05,
            tail_start_ms,
            alpha,
        };
        for d in [
            LatencyDist::Exp { mean_ms: -1.0 },
            LatencyDist::Exp { mean_ms: -0.0 },
            LatencyDist::Exp { mean_ms: f64::NAN },
            straggling(0.0, 1.5),
            straggling(50.0, 0.0),
            straggling(50.0, -1.0),
            straggling(50.0, f64::NAN),
        ] {
            // Preparing never panics; only the draw that asserts does.
            let s = d.sampler();
            let new = draws_before_panic(|rng| s.sample(rng));
            let old = draws_before_panic(|rng| old_sample(&d, rng));
            assert_eq!(new, old, "{d:?}");
        }
    }

    #[test]
    #[should_panic(expected = "lambda > 0.0")]
    fn the_sampler_keeps_the_exponential_assert() {
        LatencyDist::Exp { mean_ms: -1.0 }
            .sampler()
            .sample(&mut Rng64::new(1));
    }

    #[test]
    #[should_panic(expected = "alpha > 0.0")]
    fn the_sampler_keeps_the_pareto_assert() {
        LatencyDist::WithStragglers {
            median_ms: 5.0,
            sigma: 0.3,
            p_straggler: 1.0,
            tail_start_ms: 50.0,
            alpha: 0.0,
        }
        .sampler()
        .sample(&mut Rng64::new(1));
    }
}
