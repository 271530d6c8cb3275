//! Server response-time distributions.
//!
//! Measured leaf-server latencies are well described by a log-normal body
//! with a heavy straggler tail (GC pauses, background daemons, queueing
//! spikes). [`LatencyDist`] offers the two shapes the experiments use.
//!
//! [`LatencyDist::sample_max`] is the fan-out kernel: the largest of `n`
//! draws, bit-identical to folding [`LatencyDist::sample`] with
//! `f64::max`, and leaving the generator in the same state. Every leaf
//! still makes its draws, but for the straggler shape only a leaf that
//! can still be the max is turned into a latency; the exponential
//! shape, which no fan-out workload uses, is a plain fold. A body leaf
//! is `exp(μ + σz)` with `z = box_muller(u, v)`, and
//! `|z| ≤ sqrt(−2 ln u)`. So a leaf whose `u` lies above
//! `exp(−(z* − Δ)²/2)` cannot reach `z*`, the best score so far: the
//! largest body `z`, or a straggler's latency mapped back to z-space.
//! Such a leaf is skipped; the coin and `u` are compared as integers, so
//! a skipped leaf costs three raw draws. A leaf that passes takes the
//! exact `r = sqrt(−2 ln u)` and is still skipped if `r` times a
//! polynomial bound on `cos 2πv` stays below the cut, so most of them
//! skip `cos` and `exp`. Stragglers are always drawn in full, and the
//! cut is recomputed only when `z*` rises. Over E9's whole fan-out sweep
//! ~1.4 % of body leaves are turned into latencies (~3.8 % with the `u`
//! bound alone). `SCREEN_MARGIN` explains why the margin Δ can never flip
//! the max.
//!
//! [`LatencyDist::quantile_on`] is the calibration kernel: one
//! percentile of many draws, for fan-out's leaf p99 and the hedge
//! deadlines. It draws a pilot chunk in full, takes a cutoff a safe
//! margin below the target rank, and then only counts the draws the same
//! `u` bound puts below the cutoff; the answer is selected from the few
//! others (see `PILOT_SIGMAS`). An exponential's draws are all evaluated.
//! It is bit-identical to selecting from every draw.

use xxi_core::par::{mc_chunks, Parallelism, MC_GRAIN};
use xxi_core::rng::{chance_cut, Rng64};
use xxi_core::stats::{rank_index, select_rank, Summary};

/// A response-time distribution (milliseconds).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LatencyDist {
    /// Exponential with the given mean.
    Exp {
        /// Mean latency (ms).
        mean_ms: f64,
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
            LatencyDist::WithStragglers {
                median_ms,
                sigma,
                p_straggler,
                tail_start_ms,
                alpha,
            } => [
                1,
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
    /// [`LatencyDist::sample`] draws, in the same order; for the straggler
    /// shape, leaves that cannot beat the running max are skipped after
    /// their draws (see the module doc).
    pub fn sample_max(&self, n: usize, rng: &mut Rng64) -> f64 {
        match *self {
            LatencyDist::Exp { .. } => {
                let s = self.sampler();
                (0..n).map(|_| s.sample(rng)).fold(f64::MIN, f64::max)
            }
            LatencyDist::WithStragglers {
                median_ms,
                sigma,
                p_straggler,
                tail_start_ms,
                alpha,
            } => lognormal_max(n, median_ms, sigma, p_straggler, tail_start_ms, alpha, rng),
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
    /// order: what [`LatencyDist::quantile_on`] selects from.
    pub(crate) fn draws_on(&self, n: usize, seed: u64, exec: &dyn Parallelism) -> Vec<f64> {
        let s = self.sampler();
        let chunks = mc_chunks(exec, n, seed, |r, rng| {
            r.map(|_| s.sample(rng)).collect::<Vec<f64>>()
        });
        chunks.into_iter().flatten().collect()
    }

    /// The `p`-th nearest-rank percentile of `n` draws seeded by `seed`:
    /// the bits of `percentiles(&self.draws_on(n, seed, exec), [p])[0]`,
    /// on the same [`mc_chunks`] substreams, for every executor. Only the
    /// draws that can reach the answer are turned into latencies (see
    /// `PILOT_SIGMAS`). Panics where `percentiles` would: `n == 0` or `p`
    /// outside `[0, 100]`.
    pub fn quantile_on(&self, n: usize, seed: u64, p: f64, exec: &dyn Parallelism) -> f64 {
        self.select_on(n, seed, p, true, exec)
            .or_else(|| self.select_on(n, seed, p, false, exec))
            .expect("with no screen every draw is a candidate") // xxi-allow: panic-path -- see the expect message
    }

    /// One pass of [`LatencyDist::quantile_on`]: screened at the pilot's
    /// cutoff, or with no screen. `None` when the answer lies below the
    /// cutoff.
    fn select_on(
        &self,
        n: usize,
        seed: u64,
        p: f64,
        screened: bool,
        exec: &dyn Parallelism,
    ) -> Option<f64> {
        assert!(n > 0, "percentile of empty summary");
        let i = rank_index(p, n);
        let s = self.sampler();
        let pilot = s.draws(n.min(MC_GRAIN), &mut Rng64::stream(seed, 0));
        let screen = s.screen(&pilot, p, screened);
        let parts = mc_chunks(exec, n, seed, |r, rng| {
            if r.start == 0 {
                screen.split_values(&pilot)
            } else {
                s.split_draws(&screen, r.len(), rng)
            }
        });
        select_above(parts, i)
    }

    /// The serial [`LatencyDist::quantile_on`]: the bits of `p`'s
    /// nearest-rank percentile of `(0..n).map(|_| self.sample(rng))`, with
    /// `rng` left in the same state. The first `min(n, MC_GRAIN)` draws are
    /// the pilot.
    pub fn quantile(&self, n: usize, p: f64, rng: &mut Rng64) -> f64 {
        let start = rng.clone();
        self.select(n, p, true, rng).unwrap_or_else(|| {
            *rng = start;
            self.select(n, p, false, rng)
                .expect("with no screen every draw is a candidate") // xxi-allow: panic-path -- see the expect message
        })
    }

    /// One pass of [`LatencyDist::quantile`], as [`LatencyDist::select_on`].
    fn select(&self, n: usize, p: f64, screened: bool, rng: &mut Rng64) -> Option<f64> {
        assert!(n > 0, "percentile of empty summary");
        let i = rank_index(p, n);
        let s = self.sampler();
        let m = n.min(MC_GRAIN);
        let pilot = s.draws(m, rng);
        let screen = s.screen(&pilot, p, screened);
        let parts = [
            screen.split_values(&pilot),
            s.split_draws(&screen, n - m, rng),
        ];
        select_above(parts, i)
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
            Sampler::WithStragglers {
                mu,
                sigma,
                p_straggler,
                tail_start_ms,
                alpha,
                inv_alpha,
            } => {
                if rng.chance(p_straggler) {
                    straggler(tail_start_ms, alpha, inv_alpha, rng)
                } else {
                    rng.lognormal(mu, sigma)
                }
            }
        }
    }

    /// `len` draws in a vector.
    fn draws(&self, len: usize, rng: &mut Rng64) -> Vec<f64> {
        (0..len).map(|_| self.sample(rng)).collect()
    }

    /// The screen for the `p`-th percentile at the `pilot`'s cutoff (see
    /// [`PILOT_SIGMAS`]), or with no screen (`cutoff = −∞`). It bounds
    /// draws only when the cutoff is positive and finite and the shape is
    /// the log-normal body with σ > 0; otherwise every draw is evaluated.
    fn screen(&self, pilot: &[f64], p: f64, screened: bool) -> Screen {
        let cutoff = if screened {
            pilot_cutoff(pilot, p)
        } else {
            f64::NEG_INFINITY
        };
        let mut screen = Screen {
            cutoff,
            below: 0, // no k lies below 0: nothing is screened
        };
        if let Sampler::WithStragglers { mu, sigma, .. } = *self {
            if cutoff > 0.0 && cutoff.is_finite() && sigma > 0.0 {
                let z = (cutoff.ln() - mu) / sigma;
                screen.below = u_cut(normal_cut(z - SCREEN_MARGIN / sigma.min(1.0)));
            }
        }
        screen
    }

    /// `len` draws split at `screen`'s cutoff. Each makes exactly
    /// [`Sampler::sample`]'s draws, in order, so `rng` ends where `len`
    /// samples leave it. A body draw whose Box–Muller `u` has its integer
    /// `k` below `screen.below` is counted: its `|z|` is under the cutoff's
    /// score less Δ, as in `lognormal_max`. Stragglers and every other draw
    /// are evaluated and split by value.
    fn split_draws(&self, screen: &Screen, len: usize, rng: &mut Rng64) -> Split {
        let mut out = Split::default();
        match *self {
            Sampler::Exp { .. } => {
                for _ in 0..len {
                    screen.keep(self.sample(rng), &mut out);
                }
            }
            Sampler::WithStragglers {
                mu,
                sigma,
                p_straggler,
                tail_start_ms,
                alpha,
                inv_alpha,
            } => {
                let coin = chance_cut(p_straggler);
                for _ in 0..len {
                    if rng.next_u64() >> 11 < coin {
                        let x = straggler(tail_start_ms, alpha, inv_alpha, rng);
                        screen.keep(x, &mut out);
                    } else {
                        screen.body(mu, sigma, rng, &mut out);
                    }
                }
            }
        }
        out
    }
}

/// A straggler's latency: `rng.pareto(tail_start_ms, alpha)` with
/// `1 / alpha` taken from the sampler.
#[inline]
fn straggler(tail_start_ms: f64, alpha: f64, inv_alpha: f64, rng: &mut Rng64) -> f64 {
    assert!(tail_start_ms > 0.0 && alpha > 0.0);
    tail_start_ms / (1.0 - rng.next_f64()).powf(inv_alpha)
}

/// How far below the target rank the pilot's cutoff sits, in binomial
/// standard deviations of the pilot's rank fraction.
///
/// [`LatencyDist::quantile_on`] first draws chunk 0, the pilot, in full.
/// For the `p`-th percentile (`q = p/100`) of a pilot of `m` draws, the
/// cutoff `L` is the pilot's value at rank `q − 4·sqrt(q(1−q)/m)`. Every
/// other draw is screened against `L`: one that provably lies below it is
/// only counted, the rest are evaluated, and those at or above `L` are the
/// candidates. If `below` draws lie below `L`, the answer at rank `i` is
/// candidate `i − below` in sorted order, as long as `i ≥ below`: ties
/// at `L` have equal bits, and `L > 0` keeps zeros out of the candidates.
/// The pilot's fraction below `L` errs by one σ, so the true fraction
/// reaches `q` only ~3·10⁻⁵ of the time. Then `i < below`, and the same
/// code runs again with no screen (`L = −∞`): every draw is a candidate,
/// and the selection is `percentiles` itself. `q ∈ {0, 1}` (σ = 0) or a
/// rank at or below 0 means no screen either.
const PILOT_SIGMAS: f64 = 4.0;

/// The cutoff for the `p`-th percentile from its pilot draws (see
/// [`PILOT_SIGMAS`]); `−∞` for no screen.
fn pilot_cutoff(pilot: &[f64], p: f64) -> f64 {
    let q = p / 100.0;
    let sd = (q * (1.0 - q) / pilot.len() as f64).sqrt();
    let q_cut = q - PILOT_SIGMAS * sd;
    if sd > 0.0 && q_cut > 0.0 {
        select_rank(pilot, rank_index(q_cut * 100.0, pilot.len()))
    } else {
        f64::NEG_INFINITY
    }
}

/// Draws split at a cutoff: how many lie below it, and the others in
/// draw order.
#[derive(Default)]
struct Split {
    below: usize,
    candidates: Vec<f64>,
}

/// The draw at rank `i` of the parts taken together, or `None` when it
/// lies below their cutoff. The candidates keep chunk and draw order, so
/// the zeros of an unscreened sample stay in input order.
fn select_above(parts: impl IntoIterator<Item = Split>, i: usize) -> Option<f64> {
    let mut below = 0;
    let mut candidates = Vec::new();
    for part in parts {
        below += part.below;
        candidates.extend(part.candidates);
    }
    (i >= below).then(|| select_rank(&candidates, i - below))
}

/// A cutoff `L` and the integer form of its bound on a draw's first
/// uniform: see [`Sampler::split_draws`].
struct Screen {
    cutoff: f64,
    below: u64,
}

impl Screen {
    /// File an evaluated draw: a candidate unless it lies below the
    /// cutoff. A NaN is a candidate, so the selection rejects it as
    /// `percentiles` does.
    #[inline]
    fn keep(&self, x: f64, out: &mut Split) {
        if x < self.cutoff {
            out.below += 1;
        } else {
            out.candidates.push(x);
        }
    }

    /// One `rng.lognormal(mu, sigma)` draw, counted if its `u` is screened.
    #[inline]
    fn body(&self, mu: f64, sigma: f64, rng: &mut Rng64, out: &mut Split) {
        let ku = rng.next_u64() >> 11;
        let kv = rng.next_u64() >> 11;
        if ku < self.below {
            out.below += 1;
        } else {
            let z = Rng64::box_muller(1.0 - unit(ku), unit(kv));
            self.keep((mu + sigma * z).exp(), out);
        }
    }

    /// The pilot's own draws, split by value.
    fn split_values(&self, xs: &[f64]) -> Split {
        let mut out = Split::default();
        for &x in xs {
            self.keep(x, &mut out);
        }
        out
    }
}

/// `Rng64::next_f64`'s value for its integer `k = next_u64() >> 11`.
#[inline]
fn unit(k: u64) -> f64 {
    k as f64 * (1.0 / (1u64 << 53) as f64)
}

/// The integer form of a Box–Muller `u > cut`: with `u = 1 − k·2⁻⁵³`
/// (exact, and decreasing in `k`), `u > cut` exactly when
/// `k < u_cut(cut)`. The estimate from `1 − cut` is off by at most an
/// ulp; the two loops settle it with exact compares.
fn u_cut(cut: f64) -> u64 {
    const TOP: u64 = 1 << 53;
    let above = |k: u64| 1.0 - unit(k) > cut;
    // `as` saturates, and maps a NaN to 0.
    let mut k = ((1.0 - cut) * TOP as f64).ceil().clamp(0.0, TOP as f64) as u64;
    while k > 0 && !above(k - 1) {
        k -= 1;
    }
    while k < TOP && above(k) {
        k += 1;
    }
    k
}

/// The screen's margin Δ. It is taken in z-space as Δ / min(σ, 1), so a
/// skipped leaf sits at least Δ below the running best both in `z` and in
/// `μ + σz`, the argument of its final `exp`. Why this can never flip the
/// max: it only has to absorb rounding, which is a few ulps. The cut's own
/// `exp` errs by under an ulp, and [`CUT_SLACK`] covers that; the cut is
/// then applied to `u`'s integer exactly (`u_cut`). A leaf that passes
/// the `u` screen still has `z ≤ r·max(c, 0)` with `r = sqrt(−2 ln u)`,
/// the bits Box–Muller uses, and `c ≥ cos 2πv` a polynomial in
/// `min(v, 1 − v)` (`z_bound`); its slack ([`V_SLACK`], ~1e-12) covers
/// the rounding of the cosine and the polynomial. `ln`,
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

/// Relative and absolute slack on the `v` bound's polynomial: see
/// [`SCREEN_MARGIN`].
const V_SLACK: (f64, f64) = (1.0 + 1e-12, 1e-12);

/// An upper bound on the `z` that `Rng64::box_muller` computes from `v`
/// and `r = sqrt(−2 ln u)`. With `θ = 2π·min(v, 1 − v)`,
/// `cos(2πv) = cos θ ≤ 1 − θ²/2 + θ⁴/24` for every θ, and `z ≤ 0` where
/// the cosine is negative. The slack covers the rounding of `2πv`, of the
/// cosine and of the polynomial (a few ulps of at most ~8.6, so ~1e-14).
#[inline]
fn z_bound(r: f64, v: f64) -> f64 {
    let t = std::f64::consts::TAU * v.min(1.0 - v);
    let t2 = t * t;
    let c = 1.0 - t2 * (0.5 - t2 * (1.0 / 24.0));
    r * c.max(0.0) * V_SLACK.0 + V_SLACK.1
}

/// [`LatencyDist::sample_max`] for the log-normal body with its
/// `(p_straggler, tail_start_ms, alpha)` Pareto tail.
fn lognormal_max(
    n: usize,
    median_ms: f64,
    sigma: f64,
    p_straggler: f64,
    tail_start_ms: f64,
    alpha: f64,
    rng: &mut Rng64,
) -> f64 {
    let mu = median_ms.ln();
    // The latency is nondecreasing in z only for σ > 0. Otherwise Δ = ∞
    // keeps both bounds shut, and every leaf is evaluated.
    let delta = if sigma > 0.0 {
        SCREEN_MARGIN / sigma.min(1.0)
    } else {
        f64::INFINITY
    };
    // `rng.chance(p)` is `next_u64() >> 11 < coin`.
    let (coin, inv_alpha) = (chance_cut(p_straggler), 1.0 / alpha);
    // `z_cut = z* − Δ`, and `u > normal_cut(z_cut)` is `k_u < u_below`.
    let (mut best, mut z_star, mut z_cut, mut u_below) =
        (f64::MIN, f64::NEG_INFINITY, f64::NEG_INFINITY, 0);
    for _ in 0..n {
        if rng.next_u64() >> 11 < coin {
            let x = straggler(tail_start_ms, alpha, inv_alpha, rng);
            if x > best {
                best = x;
                let z = (x.ln() - mu) / sigma;
                if z > z_star {
                    z_star = z;
                    z_cut = z_star - delta;
                    u_below = u_cut(normal_cut(z_cut));
                }
            }
            continue;
        }
        let ku = rng.next_u64() >> 11;
        let kv = rng.next_u64() >> 11;
        if ku < u_below {
            continue;
        }
        // `rng.lognormal(mu, sigma)`'s arithmetic on the same draws.
        let r = (-2.0 * (1.0 - unit(ku)).ln()).sqrt();
        let v = unit(kv);
        if z_bound(r, v) < z_cut {
            continue;
        }
        let z = r * (std::f64::consts::TAU * v).cos();
        best = best.max((mu + sigma * z).exp());
        if z > z_star {
            z_star = z;
            z_cut = z_star - delta;
            u_below = u_cut(normal_cut(z_cut));
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::Reversed;
    use std::ops::Range;
    use xxi_core::par::Serial;
    use xxi_core::stats::percentiles;
    use xxi_stack::pool::Pool;

    /// The log-normal body alone: stragglers with probability 0.
    fn body(median_ms: f64, sigma: f64) -> LatencyDist {
        LatencyDist::WithStragglers {
            median_ms,
            sigma,
            p_straggler: 0.0,
            tail_start_ms: 50.0,
            alpha: 1.5,
        }
    }

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
        let s = body(5.0, 0.3).sample_summary(100_001, &mut rng);
        assert!((s.median() - 5.0).abs() < 0.1, "median={}", s.median());
    }

    #[test]
    fn stragglers_fatten_the_tail_not_the_median() {
        let mut rng = Rng64::new(3);
        let leaf = LatencyDist::typical_leaf();
        let sb = body(5.0, 0.3).sample_summary(200_001, &mut rng);
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

    /// Both variants, including adversarial ones where body leaves often
    /// beat stragglers (σ up to 3, the tail starting at or below the body
    /// median) and σ ≤ 0, where nothing may be skipped.
    fn oracle_dists() -> Vec<LatencyDist> {
        let mut v = vec![
            LatencyDist::Exp { mean_ms: 3.0 },
            LatencyDist::Exp { mean_ms: 1e-3 },
            body(5.0, 0.3),
            body(0.01, 3.0),
            body(5.0, 0.0),
            body(5.0, -0.5),
            body(5.0, 1e-14),
        ];
        // Stragglers a hair above the body median: the best score sits
        // just above z = 0, where both bounds are at their tightest.
        for (sigma, p_straggler) in [(0.3, 0.5), (1.0, 0.9), (3.0, 0.2)] {
            v.push(LatencyDist::WithStragglers {
                median_ms: 5.0,
                sigma,
                p_straggler,
                tail_start_ms: 5.0,
                alpha: 1e9,
            });
        }
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

    /// [`z_bound`] against the `z` Box–Muller computes, at `u` across its
    /// range and `v` at and near 0, ¼, ½, ¾ and 1 (where the cosine is
    /// flat, crosses zero or turns), plus random `v`.
    #[test]
    fn the_v_bound_is_never_below_the_box_muller_z() {
        let mut rng = Rng64::new(0x5A6);
        let top = 1u64 << 53;
        let mut ks: Vec<u64> = Vec::new();
        for centre in [0, top / 4, top / 2, 3 * top / 4, top - 1] {
            for d in 0..2_000u64 {
                ks.push(centre.saturating_add(d).min(top - 1));
                ks.push(centre.saturating_sub(d));
            }
            for shift in 0..53 {
                ks.push(centre.saturating_add(1 << shift).min(top - 1));
                ks.push(centre.saturating_sub(1 << shift));
            }
        }
        ks.extend((0..200_000).map(|_| rng.next_u64() >> 11));
        // θ ≈ 0.0004–0.003, where the polynomial and the cosine agree to
        // within an ulp and only the slack separates them. Near v = 1 the
        // rounding of 2πv costs an ulp more, and the bound without slack
        // falls below the computed z about once in 3 000 draws.
        ks.extend((0..200_000).map(|_| (top >> 14) + rng.below(top >> 11)));
        ks.extend((0..200_000).map(|_| top - (top >> 14) - rng.below(top >> 11)));
        let us = [1.0, 0.5, 1e-3, 1.0 / top as f64, 1.0 - 1.0 / top as f64];
        for (t, &kv) in ks.iter().enumerate() {
            let v = unit(kv);
            let random_u = 1.0 - rng.next_f64();
            for u in us.into_iter().chain([random_u]) {
                let z = Rng64::box_muller(u, v);
                let r = (-2.0 * u.ln()).sqrt();
                assert!(z_bound(r, v) >= z, "case {t}: u={u} v={v} z={z}");
            }
        }
    }

    /// Executors every quantile check runs on.
    fn executors(pool: &Pool) -> [&dyn Parallelism; 3] {
        [&Serial, &Reversed, pool]
    }

    /// Percentiles the quantile checks read, ends included.
    const QUANTILE_PS: [f64; 8] = [0.0, 1.0, 50.0, 90.0, 95.0, 99.0, 99.9, 100.0];

    /// Draw counts the quantile checks use: one chunk, a chunk and one
    /// draw, four chunks, and E9's calibration size.
    const QUANTILE_NS: [usize; 6] = [1, 100, MC_GRAIN, MC_GRAIN + 1, 3 * MC_GRAIN + 1, 200_000];

    /// [`LatencyDist::quantile_on`] against selecting from every draw, on
    /// every executor, for each distribution, draw count and percentile,
    /// at each seed.
    fn check_quantile_on(dists: &[LatencyDist], ns: &[usize], seeds: Range<u64>) {
        let pool = Pool::new(2);
        for d in dists {
            for &n in ns {
                for seed in seeds.clone() {
                    let draws = d.draws_on(n, seed, &Serial);
                    for p in QUANTILE_PS {
                        let want = percentiles(&draws, [p])[0];
                        for exec in executors(&pool) {
                            let got = d.quantile_on(n, seed, p, exec);
                            assert_eq!(
                                got.to_bits(),
                                want.to_bits(),
                                "{d:?} n={n} seed={seed} p{p}: {got} vs {want}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// [`LatencyDist::quantile`] against selecting from `n` plain samples
    /// of a twin generator, which must then be in the same state.
    fn check_serial_quantile(dists: &[LatencyDist], ns: &[usize], seeds: Range<u64>) {
        for (i, d) in dists.iter().enumerate() {
            for &n in ns {
                for seed in seeds.clone() {
                    let start = Rng64::stream(0x5A7 + seed, i as u64);
                    let mut slow = start.clone();
                    let draws: Vec<f64> = (0..n).map(|_| d.sample(&mut slow)).collect();
                    for p in QUANTILE_PS {
                        let want = percentiles(&draws, [p])[0];
                        let mut fast = start.clone();
                        let got = d.quantile(n, p, &mut fast);
                        let what = format!("{d:?} n={n} seed={seed} p{p}");
                        assert_eq!(got.to_bits(), want.to_bits(), "{what}: {got} vs {want}");
                        assert_eq!(
                            fast.next_u64(),
                            slow.clone().next_u64(),
                            "{what}: generator state diverged"
                        );
                    }
                }
            }
        }
    }

    /// Every oracle distribution up to four chunks; E9's calibration size
    /// for the typical leaf and an exponential (the `--include-ignored`
    /// variants take it for every distribution).
    #[test]
    fn quantile_matches_selecting_from_every_draw() {
        let small = &QUANTILE_NS[..5];
        let large = [
            LatencyDist::typical_leaf(),
            LatencyDist::Exp { mean_ms: 3.0 },
        ];
        check_quantile_on(&oracle_dists(), small, 1..2);
        check_quantile_on(&large, &[200_000], 1..2);
        check_serial_quantile(&oracle_dists(), small, 1..2);
        check_serial_quantile(&large, &[200_000], 1..2);
    }

    #[test]
    #[ignore = "screened quantile oracle over 8 seeds; run in release with --include-ignored"]
    fn quantile_on_matches_selecting_from_every_draw_at_many_seeds() {
        check_quantile_on(&oracle_dists(), &QUANTILE_NS, 2..10);
    }

    #[test]
    #[ignore = "screened quantile oracle over 8 seeds; run in release with --include-ignored"]
    fn serial_quantile_matches_the_samples_and_their_end_state_at_many_seeds() {
        check_serial_quantile(&oracle_dists(), &QUANTILE_NS, 2..10);
    }

    /// Seeds whose pilot puts the cutoff above the p99.99 of all 200 000
    /// typical-leaf draws (about one in 600 seeds), so the screened pass
    /// cannot answer and the unscreened one must.
    #[test]
    fn a_cutoff_above_the_answer_falls_back_to_no_screen() {
        let leaf = LatencyDist::typical_leaf();
        let (n, p) = (200_000, 99.99);
        assert_eq!(leaf.select_on(n, 565, p, true, &Serial), None);
        let want = percentiles(&leaf.draws_on(n, 565, &Serial), [p])[0];
        let pool = Pool::new(2);
        for exec in executors(&pool) {
            assert_eq!(leaf.quantile_on(n, 565, p, exec).to_bits(), want.to_bits());
        }
        let mut fast = Rng64::new(786);
        assert_eq!(leaf.select(n, p, true, &mut fast.clone()), None);
        let mut slow = fast.clone();
        let draws: Vec<f64> = (0..n).map(|_| leaf.sample(&mut slow)).collect();
        let want = percentiles(&draws, [p])[0];
        assert_eq!(leaf.quantile(n, p, &mut fast).to_bits(), want.to_bits());
        assert_eq!(fast.next_u64(), slow.next_u64(), "generator state diverged");
    }

    /// The 4σ margin keeps the fallback rare: the screened pass answers
    /// every calibration quantile E9 and E17 take, at 16 seeds each.
    #[test]
    fn the_screened_pass_answers_the_calibrations() {
        let leaf = LatencyDist::typical_leaf();
        for p in [90.0, 95.0, 99.0, 99.9] {
            for seed in 0..16 {
                assert!(
                    leaf.select_on(200_000, seed, p, true, &Serial).is_some(),
                    "p{p} seed {seed}"
                );
                let mut rng = Rng64::new(seed);
                assert!(
                    leaf.select(200_000, p, true, &mut rng).is_some(),
                    "serial p{p} seed {seed}"
                );
            }
        }
    }

    /// A draw equal to the cutoff is a candidate: with σ = 0 every draw
    /// equals the cutoff, and the screened pass still answers.
    #[test]
    fn a_draw_at_the_cutoff_is_a_candidate() {
        let d = body(5.0, 0.0);
        let x = d.sample(&mut Rng64::new(1));
        for p in [1.0, 50.0, 99.0] {
            let got = d.select_on(3 * MC_GRAIN, 1, p, true, &Serial);
            assert_eq!(got.map(f64::to_bits), Some(x.to_bits()), "p{p}");
            let got = d.select(3 * MC_GRAIN, p, true, &mut Rng64::new(1));
            assert_eq!(got.map(f64::to_bits), Some(x.to_bits()), "serial p{p}");
        }
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn quantile_of_no_draws_panics_as_percentiles_does() {
        LatencyDist::typical_leaf().quantile_on(0, 1, 50.0, &Serial);
    }

    /// `LatencyDist::sample` as it was before [`Sampler`], verbatim: what
    /// the sampler must reproduce.
    fn old_sample(d: &LatencyDist, rng: &mut Rng64) -> f64 {
        match *d {
            LatencyDist::Exp { mean_ms } => rng.exp(1.0 / mean_ms),
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
