//! Deterministic pseudo-random generation and workload distributions.
//!
//! Every stochastic model in the workspace (service times, fault arrivals,
//! harvested energy, memory traces) draws from [`Rng64`], a xoshiro256++
//! generator seeded through SplitMix64. Two properties matter here:
//!
//! 1. **Reproducibility** — a seed fully determines an experiment, so every
//!    number in EXPERIMENTS.md can be regenerated.
//! 2. **Substreams** — [`Rng64::stream`] derives an independent stream
//!    from `(seed, index)`, letting parallel workers or per-server arrival
//!    processes stay decorrelated without shared state.
//!
//! The distribution set matches what the paper's scenarios need:
//! exponential and log-normal service times (tail latency, §2.1), Pareto
//! heavy tails (stragglers), Zipf object popularity ("big data" skew,
//! Appendix A), and Gaussian sensor noise.

/// SplitMix64 step — used for seeding and stream splitting.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// xoshiro256++ PRNG (Blackman & Vigna), seeded via SplitMix64.
///
/// Passes BigCrush; period 2²⁵⁶−1; not cryptographic (none of our models
/// need that).
#[derive(Clone, Debug)]
pub struct Rng64 {
    s: [u64; 4],
}

impl Rng64 {
    /// Create a generator from a seed. Any seed (including 0) is fine; the
    /// internal state is expanded with SplitMix64 and cannot be all-zero.
    pub fn new(seed: u64) -> Rng64 {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng64 { s }
    }

    /// The `index`-th substream of `seed`: a generator that is a pure
    /// function of `(seed, index)`, independent of any generator state or
    /// draw order. Parallel Monte Carlo chunks each take their own
    /// substream so results do not depend on which thread ran which chunk
    /// (see `xxi_core::par::mc_chunks`). Adjacent indices are pushed far
    /// apart in seed space by two SplitMix64 passes.
    pub fn stream(seed: u64, index: u64) -> Rng64 {
        let mut sm = seed;
        let root = splitmix64(&mut sm);
        let mut sm2 = root ^ index.wrapping_mul(0xD1B5_4A32_D192_ED03);
        Rng64::new(splitmix64(&mut sm2))
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[0, n)`. Uses Lemire's multiply-shift rejection method to
    /// avoid modulo bias.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is meaningless");
        let mut x = self.next_u64();
        let mut m = (x as u128) * (n as u128);
        let mut l = m as u64;
        if l < n {
            let t = n.wrapping_neg() % n;
            while l < t {
                x = self.next_u64();
                m = (x as u128) * (n as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform integer in the inclusive range `[lo, hi]`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi);
        lo + self.below(hi - lo + 1)
    }

    /// Uniform float in `[lo, hi)`.
    #[inline]
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Bernoulli trial with probability `p` (clamped to `[0,1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Standard normal via Box–Muller (one value per call; the pair's
    /// second member is discarded for simplicity and statelessness).
    pub fn normal(&mut self) -> f64 {
        let (u, v) = self.normal_uv();
        Rng64::box_muller(u, v)
    }

    /// The two uniforms one [`Rng64::normal`] call draws, in draw order:
    /// `u ∈ (0, 1]` (shifted so `ln(u)` is finite) then `v ∈ [0, 1)`.
    #[inline]
    pub fn normal_uv(&mut self) -> (f64, f64) {
        let u = 1.0 - self.next_f64();
        let v = self.next_f64();
        (u, v)
    }

    /// Box–Muller's transform of a [`Rng64::normal_uv`] pair; its
    /// magnitude is at most `sqrt(-2 ln u)`.
    #[inline]
    pub fn box_muller(u: f64, v: f64) -> f64 {
        (-2.0 * u.ln()).sqrt() * (std::f64::consts::TAU * v).cos()
    }

    /// Exponential with rate `lambda` (mean `1/lambda`).
    pub fn exp(&mut self, lambda: f64) -> f64 {
        assert!(lambda > 0.0);
        -(1.0 - self.next_f64()).ln() / lambda
    }

    /// Log-normal with `ln`-space parameters `mu`, `sigma`; a standard model
    /// for server response times (long right tail).
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        (mu + sigma * self.normal()).exp()
    }

    /// Pareto with minimum `x_min` and shape `alpha` (heavier tail for
    /// smaller `alpha`); models stragglers.
    pub fn pareto(&mut self, x_min: f64, alpha: f64) -> f64 {
        assert!(x_min > 0.0 && alpha > 0.0);
        x_min / (1.0 - self.next_f64()).powf(1.0 / alpha)
    }

    /// Pick a uniformly random element.
    pub fn choose<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        assert!(!xs.is_empty());
        &xs[self.below(xs.len() as u64) as usize]
    }
}

/// Lanes in an [`RngLanes`] bank.
pub const LANES: usize = 16;

/// [`Rng64::chance`]'s test as an integer cut: `next_f64() < p` exactly
/// when `next_u64() >> 11 < chance_cut(p)`. Why it is exact: `next_f64`
/// is `k · 2⁻⁵³` for the integer `k = next_u64() >> 11 < 2⁵³`, and
/// `p · 2⁵³` is exact in f64 (a power-of-two scale), so `k · 2⁻⁵³ < p`
/// holds exactly for `k < ⌈p · 2⁵³⌉`.
pub fn chance_cut(p: f64) -> u64 {
    let unit = (1u64 << 53) as f64;
    if p >= 1.0 {
        1 << 53
    } else if p > 0.0 {
        (p * unit).ceil() as u64
    } else {
        0 // p ≤ 0 or NaN: never
    }
}

/// `k as f64` for `k < 2⁵³`, exactly, from integer ops and two f64 adds:
/// the high and low 32-bit halves each land in a double's mantissa under
/// a magic exponent (2⁸⁴ and 2⁵²), and subtracting the magic leaves the
/// exact sum. Unlike `as f64`, this vectorizes without AVX-512's
/// u64 → f64 instruction.
#[inline(always)]
fn u53_to_f64(k: u64) -> f64 {
    let hi = f64::from_bits(0x4530_0000_0000_0000 | (k >> 32)); // 2⁸⁴ + hi·2³²
    let lo = f64::from_bits(0x4330_0000_0000_0000 | (k & 0xFFFF_FFFF)); // 2⁵² + lo
    (hi - f64::from_bits(0x4530_0000_0010_0000)) + lo // − (2⁸⁴ + 2⁵²)
}

/// [`LANES`] independent [`Rng64`] streams stepped in lockstep, stored as
/// struct-of-arrays so each step is a handful of vector ops: lane `l`
/// yields exactly the values `Rng64::new(seeds[l])` would.
#[derive(Clone, Debug)]
pub struct RngLanes {
    s: [[u64; LANES]; 4],
}

impl RngLanes {
    /// Lane `l` seeded as `Rng64::new(seeds[l])`.
    pub fn new(seeds: &[u64; LANES]) -> RngLanes {
        let mut s = [[0; LANES]; 4];
        for (l, &seed) in seeds.iter().enumerate() {
            let one = Rng64::new(seed);
            for (word, v) in s.iter_mut().zip(one.s) {
                word[l] = v;
            }
        }
        RngLanes { s }
    }

    /// Every lane's [`Rng64::next_u64`].
    #[inline(always)]
    pub fn next_u64(&mut self) -> [u64; LANES] {
        let [s0, s1, s2, s3] = &mut self.s;
        let mut out = [0; LANES];
        for l in 0..LANES {
            out[l] = s0[l]
                .wrapping_add(s3[l])
                .rotate_left(23)
                .wrapping_add(s0[l]);
            let t = s1[l] << 17;
            s2[l] ^= s0[l];
            s3[l] ^= s1[l];
            s1[l] ^= s2[l];
            s0[l] ^= s3[l];
            s2[l] ^= t;
            s3[l] = s3[l].rotate_left(45);
        }
        out
    }

    // The lane loops below are spelled out: `<[T; N]>::map` is not
    // reliably inlined, and a call per step stops the vectorizer.

    /// Every lane's [`Rng64::next_f64`], bit for bit.
    #[inline(always)]
    pub fn next_f64(&mut self) -> [f64; LANES] {
        let x = self.next_u64();
        let mut out = [0.0; LANES];
        for l in 0..LANES {
            out[l] = u53_to_f64(x[l] >> 11) * (1.0 / (1u64 << 53) as f64);
        }
        out
    }

    /// Every lane's next value, as [`RngLanes::next_u64`] yields it, but
    /// only the lanes where `skip` is false step: a skipped lane keeps its
    /// state, so its value is the one its next step will yield.
    #[inline(always)]
    pub fn skip_where(&mut self, skip: &[bool; LANES]) -> [u64; LANES] {
        let [s0, s1, s2, s3] = &mut self.s;
        let mut out = [0; LANES];
        for l in 0..LANES {
            out[l] = s0[l]
                .wrapping_add(s3[l])
                .rotate_left(23)
                .wrapping_add(s0[l]);
            // `next_u64`'s step, kept where the lane is skipped. Selecting
            // per word in the loop keeps fewer registers live than a copy
            // of the whole state would.
            let t = s1[l] << 17;
            let n2 = s2[l] ^ s0[l];
            let n3 = s3[l] ^ s1[l];
            let n1 = s1[l] ^ n2;
            let n0 = s0[l] ^ n3;
            if !skip[l] {
                (s0[l], s1[l], s2[l], s3[l]) = (n0, n1, n2 ^ t, n3.rotate_left(45));
            }
        }
        out
    }
}

/// Zipf-distributed ranks over `{0, 1, …, n−1}` with skew `s`.
///
/// Rank `k` (0-based) has probability ∝ 1/(k+1)^s. Sampling inverts the
/// precomputed CDF exactly: a guide table of `m` equal-width buckets of
/// `[0, 1)` (a power of two, about `n/8`, at most 2¹⁶) names the ranks a
/// uniform in each bucket can map to, and a binary search runs only over
/// those.
///
/// Zipf popularity is the canonical "big data" access skew (Appendix A):
/// cache and hybrid-memory experiments use it heavily.
///
/// ```
/// use xxi_core::rng::{Rng64, Zipf};
/// let z = Zipf::new(100, 1.0);
/// assert!(z.pmf(0) > z.pmf(50));          // rank 0 is hottest
/// let mut rng = Rng64::new(7);
/// assert!(z.sample(&mut rng) < 100);
/// ```
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
    /// `guide[j]` is the first rank whose CDF is at least `j/m`, for
    /// `j ∈ [0, m]`, where `m = guide.len() − 1`.
    guide: Vec<usize>,
}

/// Largest guide table: 2¹⁶ buckets.
const ZIPF_MAX_BUCKETS: usize = 1 << 16;

impl Zipf {
    /// Build a Zipf sampler over `n` items with exponent `s ≥ 0`.
    /// `s = 0` degenerates to uniform.
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "Zipf over zero items");
        assert!(
            s >= 0.0 && s.is_finite(),
            "Zipf exponent must be finite and >= 0"
        );
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        // Guard against floating-point shortfall at the top.
        *cdf.last_mut().unwrap() = 1.0; // xxi-allow: panic-path -- cdf has one entry per weight

        // `m` is a power of two, so each `j/m` is exact, and one walk up
        // the CDF finds every bucket's first rank.
        let m = (n / 8).clamp(1, ZIPF_MAX_BUCKETS).next_power_of_two();
        let mut guide = Vec::with_capacity(m + 1);
        let mut rank = 0;
        for j in 0..=m {
            let edge = j as f64 / m as f64;
            while cdf[rank] < edge {
                rank += 1;
            }
            guide.push(rank);
        }
        Zipf { cdf, guide }
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// True if the sampler covers no items (never: `new` rejects n = 0).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Probability of rank `k`.
    // xxi-allow: model-reach -- tests/properties.rs checks that the Zipf pmf sums to 1
    pub fn pmf(&self, k: usize) -> f64 {
        if k == 0 {
            self.cdf[0]
        } else {
            self.cdf[k] - self.cdf[k - 1]
        }
    }

    /// Draw a rank in `[0, n)`: for `u = rng.next_f64()`, the first rank
    /// whose CDF is at least `u`.
    ///
    /// `m` is a power of two, so `u·m` is exact and the bucket
    /// `j = ⌊u·m⌋` has `j/m ≤ u < (j+1)/m`. The answer is therefore
    /// at least `guide[j]` and at most `guide[j+1]`, whose CDF is at least
    /// `(j+1)/m > u`, so the search needs only the ranks in between.
    #[inline]
    pub fn sample(&self, rng: &mut Rng64) -> usize {
        self.rank(rng.next_f64())
    }

    /// The first rank whose CDF is at least `u ∈ [0, 1)`.
    #[inline]
    fn rank(&self, u: f64) -> usize {
        let j = (u * (self.guide.len() - 1) as f64) as usize;
        let (lo, hi) = (self.guide[j], self.guide[j + 1]);
        lo + self.cdf[lo..hi].partition_point(|&c| c < u)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_equal_seeds() {
        let mut a = Rng64::new(7);
        let mut b = Rng64::new(7);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng64::new(1);
        let mut b = Rng64::new(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn stream_is_a_pure_function_of_seed_and_index() {
        let mut a = Rng64::stream(42, 3);
        let mut b = Rng64::stream(42, 3);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn stream_indices_are_decorrelated() {
        let mut a = Rng64::stream(42, 0);
        let mut b = Rng64::stream(42, 1);
        let n = 10_000;
        let matches = (0..n)
            .filter(|_| (a.next_u64() & 1) == (b.next_u64() & 1))
            .count();
        assert!((matches as f64 - n as f64 / 2.0).abs() < 4.0 * (n as f64 / 4.0).sqrt());
        // And a substream differs from the base generator for the seed.
        let mut base = Rng64::new(42);
        let mut s0 = Rng64::stream(42, 0);
        let same = (0..100)
            .filter(|_| base.next_u64() == s0.next_u64())
            .count();
        assert_eq!(same, 0);
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut r = Rng64::new(3);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_is_unbiased_ish() {
        let mut r = Rng64::new(4);
        let n = 7u64;
        let mut counts = [0u64; 7];
        let trials = 70_000;
        for _ in 0..trials {
            counts[r.below(n) as usize] += 1;
        }
        let expected = trials as f64 / n as f64;
        for &c in &counts {
            assert!(
                (c as f64 - expected).abs() < 5.0 * expected.sqrt(),
                "{counts:?}"
            );
        }
    }

    #[test]
    fn range_bounds_inclusive() {
        let mut r = Rng64::new(5);
        let mut saw_lo = false;
        let mut saw_hi = false;
        for _ in 0..10_000 {
            let x = r.range_u64(3, 5);
            assert!((3..=5).contains(&x));
            saw_lo |= x == 3;
            saw_hi |= x == 5;
        }
        assert!(saw_lo && saw_hi);
    }

    #[test]
    fn exponential_mean_matches() {
        let mut r = Rng64::new(6);
        let lambda = 2.0;
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.exp(lambda)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean={mean}");
    }

    #[test]
    fn normal_moments_match() {
        let mut r = Rng64::new(8);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| 10.0 + 3.0 * r.normal()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.05, "mean={mean}");
        assert!((var - 9.0).abs() < 0.3, "var={var}");
    }

    #[test]
    fn lognormal_median_matches() {
        let mut r = Rng64::new(9);
        let mut xs: Vec<f64> = (0..50_001).map(|_| r.lognormal(1.0, 0.5)).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = xs[xs.len() / 2];
        // Median of lognormal(mu, sigma) is e^mu.
        assert!((median - 1.0f64.exp()).abs() < 0.05, "median={median}");
    }

    #[test]
    fn pareto_respects_minimum_and_tail() {
        let mut r = Rng64::new(10);
        let mut above10 = 0;
        let n = 100_000;
        for _ in 0..n {
            let x = r.pareto(1.0, 1.5);
            assert!(x >= 1.0);
            if x > 10.0 {
                above10 += 1;
            }
        }
        // P(X > 10) = 10^-1.5 ≈ 0.0316.
        let p = above10 as f64 / n as f64;
        assert!((p - 0.0316).abs() < 0.005, "p={p}");
    }

    #[test]
    fn zipf_rank0_dominates_and_pmf_sums_to_one() {
        let z = Zipf::new(1000, 1.0);
        let total: f64 = (0..1000).map(|k| z.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(z.pmf(0) > z.pmf(1));
        assert!(z.pmf(1) > z.pmf(10));
        // With s=1, p(0)/p(9) = 10.
        assert!((z.pmf(0) / z.pmf(9) - 10.0).abs() < 1e-6);
    }

    #[test]
    fn zipf_sampling_matches_pmf() {
        let z = Zipf::new(100, 0.8);
        let mut r = Rng64::new(11);
        let n = 200_000;
        let mut counts = vec![0u64; 100];
        for _ in 0..n {
            counts[z.sample(&mut r)] += 1;
        }
        for k in [0usize, 1, 5, 50] {
            let emp = counts[k] as f64 / n as f64;
            let exp = z.pmf(k);
            assert!(
                (emp - exp).abs() < 5.0 * (exp / n as f64).sqrt() + 1e-3,
                "rank {k}: emp={emp} exp={exp}"
            );
        }
    }

    #[test]
    fn zipf_zero_skew_is_uniform() {
        let z = Zipf::new(10, 0.0);
        for k in 0..10 {
            assert!((z.pmf(k) - 0.1).abs() < 1e-12);
        }
    }

    /// `Zipf::sample`'s search before the guide table, kept verbatim as
    /// the oracle: a binary search over the whole CDF.
    fn whole_cdf_rank(z: &Zipf, u: f64) -> usize {
        z.cdf.partition_point(|&c| c < u).min(z.cdf.len() - 1)
    }

    #[test]
    fn zipf_guided_search_matches_the_whole_cdf_search() {
        let top = 1.0 - 1.0 / (1u64 << 53) as f64;
        // n = 1; uniform; n < 8 (one bucket); n not a power of two, with
        // and without the 2¹⁶ cap; a skew so steep the CDF reaches 1.0
        // long before the last rank.
        for (n, s) in [
            (1, 1.0),
            (1000, 0.0),
            (5, 0.7),
            (37, 0.5),
            (100_003, 1.1),
            (1_000_003, 0.99),
            (1000, 8.0),
        ] {
            let z = Zipf::new(n, s);
            let m = z.guide.len() - 1;
            assert!(
                m.is_power_of_two() && m <= ZIPF_MAX_BUCKETS,
                "n = {n}: m = {m}"
            );
            let mut us = vec![0.0, top];
            let mut rng = Rng64::new(n as u64);
            us.extend((0..20_000).map(|_| rng.next_f64()));
            // Every bucket edge and the f64 just below it.
            for j in 1..m {
                let edge = j as f64 / m as f64;
                us.extend([edge, f64::from_bits(edge.to_bits() - 1)]);
            }
            // Every CDF value below 1 and the f64 just above it.
            for &c in z.cdf.iter().filter(|&&c| c < 1.0) {
                us.extend([c, f64::from_bits(c.to_bits() + 1)]);
            }
            for u in us.into_iter().filter(|u| (0.0..1.0).contains(u)) {
                assert_eq!(
                    z.rank(u),
                    whole_cdf_rank(&z, u),
                    "n = {n}, s = {s}, u = {u:e}"
                );
            }
            let mut a = Rng64::new(3);
            let mut b = a.clone();
            for _ in 0..1000 {
                assert_eq!(z.sample(&mut a), whole_cdf_rank(&z, b.next_f64()));
            }
        }
    }

    #[test]
    fn choose_returns_member() {
        let mut r = Rng64::new(13);
        let xs = [10, 20, 30];
        for _ in 0..100 {
            assert!(xs.contains(r.choose(&xs)));
        }
    }

    #[test]
    fn lanes_match_scalar_streams_bit_for_bit() {
        let seeds: [u64; LANES] = std::array::from_fn(|l| match l {
            0 => 0,
            1 => u64::MAX,
            _ => (l as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        });
        let mut lanes = RngLanes::new(&seeds);
        let mut one: Vec<Rng64> = seeds.iter().map(|&s| Rng64::new(s)).collect();
        for step in 0..3_000 {
            match step % 3 {
                0 => {
                    let xs = lanes.next_u64();
                    for (x, r) in xs.iter().zip(&mut one) {
                        assert_eq!(*x, r.next_u64(), "step {step}");
                    }
                }
                1 => {
                    let xs = lanes.next_f64();
                    for (x, r) in xs.iter().zip(&mut one) {
                        assert_eq!(x.to_bits(), r.next_f64().to_bits(), "step {step}");
                    }
                }
                _ => {
                    // Skip a varying subset: none, all, and mixes.
                    let k = step / 3;
                    let skip = std::array::from_fn(|l| (k * 7 + l * l) % 5 < k % 6);
                    let xs = lanes.skip_where(&skip);
                    for ((x, r), skip) in xs.iter().zip(&mut one).zip(skip) {
                        // A skipped lane shows its next value and keeps its
                        // state, which the later steps check.
                        let want = if skip {
                            r.clone().next_u64()
                        } else {
                            r.next_u64()
                        };
                        assert_eq!(*x, want, "step {step}, skip {skip}");
                    }
                }
            }
        }
    }

    #[test]
    fn u53_conversion_and_chance_cut_are_exact_at_the_edges() {
        let top = (1u64 << 53) - 1;
        for k in [
            0,
            1,
            2,
            0xFFFF_FFFF,
            1 << 32,
            (1 << 32) + 1,
            1 << 52,
            top - 1,
            top,
        ] {
            assert_eq!(u53_to_f64(k).to_bits(), (k as f64).to_bits(), "k = {k}");
        }
        let ulp = 1.0 / (1u64 << 53) as f64;
        let ps = [
            f64::NAN,
            f64::NEG_INFINITY,
            -1.0,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            ulp / 2.0,
            ulp,
            ulp * 1.5,
            0.0002,
            0.5,
            1.0 - ulp,
            1.0,
            2.0,
            f64::INFINITY,
        ];
        for p in ps {
            let cut = chance_cut(p);
            // The cut sits where `k · 2⁻⁵³ < p` flips.
            for k in [cut.saturating_sub(1), cut, cut + 1, 0, top] {
                let k = k.min(top);
                let exact = (k as f64) * ulp < p;
                assert_eq!(k < cut, exact, "p = {p:e}, k = {k}, cut = {cut}");
            }
        }
    }

    #[test]
    #[should_panic]
    fn below_zero_panics() {
        Rng64::new(0).below(0);
    }
}
