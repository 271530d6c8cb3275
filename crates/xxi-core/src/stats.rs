//! Streaming and exact statistics.
//!
//! The warehouse-scale experiments (§2.1) hinge on *tail* behaviour — "if
//! 100 systems must jointly respond to a request, 63% of requests will incur
//! the 99-percentile delay of the individual systems". That claim is only
//! reproducible with careful percentile machinery, so this module provides:
//!
//! * [`Streaming`] — Welford's online mean/variance plus min/max/count.
//! * [`Summary`] — exact percentiles from a collected sample (sorting copy).
//! * [`percentiles`] — the same nearest-rank percentiles by selection, for
//!   callers that read nothing else, and [`select_rank`] for one rank.
//!
//! Both order the sample by integer *order keys*: the f64 total-order
//! bits with `-0.0` folded onto `+0.0`, so two keys tie exactly where
//! `partial_cmp` says `Equal`. Tied keys are equal values with equal bits,
//! except the zeros, which are put back in input order. So every result
//! has the bits a stable `partial_cmp` sort would give.
//!
//! Streaming percentiles live in [`crate::obs::LogHistogram`].

/// Welford online moments: numerically stable streaming mean and variance.
#[derive(Clone, Debug, Default)]
pub struct Streaming {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Streaming {
    /// New empty accumulator.
    pub fn new() -> Streaming {
        Streaming {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Add one observation.
    pub fn add(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 for an empty accumulator).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (0 with fewer than two observations).
    // xxi-allow: model-reach -- tests/properties.rs checks `Streaming::merge` with it
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Smallest observation (`+inf` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`−inf` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merge another accumulator into this one (parallel reduction —
    /// Chan et al.'s pairwise update).
    pub fn merge(&mut self, other: &Streaming) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let n = n1 + n2;
        self.mean += delta * n2 / n;
        self.m2 += other.m2 + delta * delta * n1 * n2 / n;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Exact summary statistics over a retained sample.
///
/// Percentiles use the nearest-rank method on the sorted sample, matching
/// how "the 99th-percentile server" is defined in the tail-at-scale
/// argument.
///
/// ```
/// use xxi_core::stats::Summary;
/// let s = Summary::from_slice(&[3.0, 1.0, 2.0, 4.0]);
/// assert_eq!(s.median(), 2.0);
/// assert_eq!(s.percentile(100.0), 4.0);
/// ```
#[derive(Clone, Debug)]
pub struct Summary {
    sorted: Vec<f64>,
    mean: f64,
}

impl Summary {
    /// Build from a sample (copies and sorts; NaNs are rejected).
    ///
    /// The copy is sorted as order keys, then turned back into values in
    /// place; the result has the bits of a stable `partial_cmp` sort.
    pub fn from_slice(xs: &[f64]) -> Summary {
        let mut keys = order_keys(xs);
        keys.sort_unstable();
        let zeros =
            keys.partition_point(|&k| k < ZERO_KEY)..keys.partition_point(|&k| k <= ZERO_KEY);
        let mut sorted: Vec<f64> = keys.into_iter().map(from_key).collect();
        // Every zero came back as +0.0; a stable sort leaves them in
        // input order, signs included.
        for (slot, &z) in sorted[zeros]
            .iter_mut()
            .zip(xs.iter().filter(|&&x| x == 0.0))
        {
            *slot = z;
        }
        let mean = if sorted.is_empty() {
            0.0
        } else {
            sorted.iter().sum::<f64>() / sorted.len() as f64
        };
        Summary { sorted, mean }
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.sorted.len()
    }

    /// Sample mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Minimum (panics when empty).
    pub fn min(&self) -> f64 {
        self.sorted[0]
    }

    /// Maximum (panics when empty).
    pub fn max(&self) -> f64 {
        *self.sorted.last().unwrap() // xxi-allow: panic-path -- documented: panics when empty
    }

    /// Median, alias for `percentile(50)`.
    pub fn median(&self) -> f64 {
        self.percentile(50.0)
    }

    /// Nearest-rank percentile, `p ∈ [0, 100]` (panics when empty).
    pub fn percentile(&self, p: f64) -> f64 {
        assert!(!self.sorted.is_empty(), "percentile of empty summary");
        self.sorted[rank_index(p, self.sorted.len())]
    }
}

/// Nearest-rank percentiles of `xs`, one per entry of `ps`, by selection
/// rather than a full sort.
///
/// Each result has the bits of `Summary::from_slice(xs).percentile(p)`,
/// zeros included, and panics on the same inputs: an empty or
/// NaN-containing sample, or a `p` outside `[0, 100]`. `ps` must be
/// ascending: each percentile is selected from the keys the previous one
/// left above it.
///
/// ```
/// use xxi_core::stats::percentiles;
/// let xs = [3.0, 1.0, 2.0, 4.0];
/// assert_eq!(percentiles(&xs, [50.0, 100.0]), [2.0, 4.0]);
/// ```
pub fn percentiles<const K: usize>(xs: &[f64], ps: [f64; K]) -> [f64; K] {
    let mut keys = order_keys(xs);
    assert!(!keys.is_empty(), "percentile of empty summary");
    // Every key below `settled` is in its sorted place and no greater
    // than any key above it.
    let mut settled = 0;
    let mut last_p = 0.0;
    ps.map(|p| {
        let i = rank_index(p, keys.len());
        assert!(p >= last_p, "percentiles must be ascending");
        last_p = p;
        if i >= settled {
            keys[settled..].select_nth_unstable(i - settled);
            settled = i + 1;
        }
        value_at(xs, i, keys[i])
    })
}

/// The `i`-th smallest of `xs` (0-based), by selection: the bits of
/// `Summary::from_slice(xs)`'s sorted sample at index `i`, zeros in input
/// order. Panics on a NaN or when `i` is out of range.
///
/// ```
/// use xxi_core::stats::select_rank;
/// let xs = [3.0, -0.0, 0.0, 1.0];
/// // The zeros tie, so they keep their input order.
/// assert_eq!(select_rank(&xs, 0).to_bits(), (-0.0f64).to_bits());
/// assert_eq!(select_rank(&xs, 2), 1.0);
/// ```
pub fn select_rank(xs: &[f64], i: usize) -> f64 {
    let mut keys = order_keys(xs);
    assert!(i < keys.len(), "rank {i} of a sample of {}", keys.len());
    let (_, &mut k, _) = keys.select_nth_unstable(i);
    value_at(xs, i, k)
}

/// The value with order key `k` at sorted index `i` of `xs`. The keys
/// fold the zeros together, so a zero key takes the zero of that rank in
/// input order: the zero run starts after the negatives.
fn value_at(xs: &[f64], i: usize, k: u64) -> f64 {
    if k != ZERO_KEY {
        return from_key(k);
    }
    let negatives = xs.iter().filter(|&&x| x < 0.0).count();
    xs.iter()
        .filter(|&&x| x == 0.0)
        .nth(i - negatives)
        .copied()
        .unwrap_or(0.0)
}

/// The 0-based nearest-rank index of percentile `p` in a sorted sample
/// of `n > 0` values: the index [`Summary::percentile`] reads.
pub fn rank_index(p: f64, n: usize) -> usize {
    assert!((0.0..=100.0).contains(&p));
    let rank = (p / 100.0 * n as f64).ceil() as usize;
    rank.clamp(1, n) - 1
}

/// The order key of `+0.0`, and of `-0.0`.
const ZERO_KEY: u64 = 1 << 63;

/// The order key of `x`: its bits mapped so that `u64` order is the f64
/// total order (negatives flipped whole, positives above them), with
/// `-0.0` first folded onto `+0.0`.
fn order_key(x: f64) -> u64 {
    let bits = if x == 0.0 { 0 } else { x.to_bits() };
    bits ^ (((bits as i64 >> 63) as u64) | ZERO_KEY)
}

/// The value whose order key is `k` (`+0.0` for the zero key).
fn from_key(k: u64) -> f64 {
    f64::from_bits(k ^ (((!k as i64) >> 63) as u64 | ZERO_KEY))
}

/// The order keys of `xs`, in input order (panics on a NaN).
fn order_keys(xs: &[f64]) -> Vec<u64> {
    assert!(
        xs.iter().all(|x| !x.is_nan()),
        "Summary over NaN-containing sample"
    );
    xs.iter().map(|&x| order_key(x)).collect()
}

/// The stable `partial_cmp` summary the order keys replaced, verbatim:
/// the oracle that `Summary` and [`percentiles`] must match bit for bit.
#[cfg(test)]
mod reference {
    pub(super) struct Summary {
        pub(super) sorted: Vec<f64>,
        pub(super) mean: f64,
    }

    impl Summary {
        pub(super) fn from_slice(xs: &[f64]) -> Summary {
            assert!(
                xs.iter().all(|x| !x.is_nan()),
                "Summary over NaN-containing sample"
            );
            let mut sorted = xs.to_vec();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let mean = if sorted.is_empty() {
                0.0
            } else {
                sorted.iter().sum::<f64>() / sorted.len() as f64
            };
            Summary { sorted, mean }
        }

        pub(super) fn percentile(&self, p: f64) -> f64 {
            assert!(!self.sorted.is_empty(), "percentile of empty summary");
            assert!((0.0..=100.0).contains(&p));
            if p == 0.0 {
                return self.sorted[0];
            }
            let rank = (p / 100.0 * self.sorted.len() as f64).ceil() as usize;
            self.sorted[rank.clamp(1, self.sorted.len()) - 1]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng64;

    /// Percentiles every oracle case reads, ascending, ends included.
    const GRID: [f64; 12] = [
        0.0, 0.1, 1.0, 10.0, 25.0, 50.0, 50.0, 75.0, 90.0, 99.0, 99.9, 100.0,
    ];

    /// Values whose order is easy to get wrong: both zeros, subnormals,
    /// the infinities and the finite extremes.
    const AWKWARD: [f64; 12] = [
        0.0,
        -0.0,
        5e-324,
        -5e-324,
        f64::MIN_POSITIVE,
        -f64::MIN_POSITIVE,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MAX,
        f64::MIN,
        1.0,
        -1.0,
    ];

    /// A seeded sample of `n` values: awkward values, heavy duplicates
    /// from a small palette, subnormals and signed log-normals, mixed in
    /// a per-sample proportion, then left shuffled or laid out as a sorted
    /// run, a reversed run, or sorted runs.
    fn awkward_sample(rng: &mut Rng64, n: usize) -> Vec<f64> {
        let palette: Vec<f64> = (0..1 + rng.below(6))
            .map(|_| AWKWARD[rng.below(12) as usize] * rng.range_f64(0.5, 2.0))
            .collect();
        let favourite = rng.below(5);
        let mut xs: Vec<f64> = (0..n)
            .map(|_| {
                let kind = if rng.chance(0.7) {
                    favourite
                } else {
                    rng.below(4)
                };
                let sign = if rng.chance(0.5) { -1.0 } else { 1.0 };
                match kind {
                    0 => AWKWARD[rng.below(12) as usize],
                    1 => *rng.choose(&palette),
                    2 => sign * f64::from_bits(rng.below(1 << 52)),
                    _ => sign * rng.lognormal(0.0, 2.0),
                }
            })
            .collect();
        let by_value = |a: &f64, b: &f64| a.partial_cmp(b).unwrap();
        match rng.below(4) {
            0 => xs.sort_by(by_value),
            1 => xs.sort_by(|a, b| by_value(b, a)),
            2 => {
                for run in xs.chunks_mut(1 + rng.below(64) as usize) {
                    run.sort_by(by_value);
                }
            }
            _ => {}
        }
        xs
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// `Summary` and `percentiles` against the reference, bit for bit.
    fn check_against_reference(xs: &[f64]) {
        let want = reference::Summary::from_slice(xs);
        let got = Summary::from_slice(xs);
        let n = xs.len();
        assert_eq!(bits(&got.sorted), bits(&want.sorted), "sorted, n={n}");
        assert_eq!(got.mean.to_bits(), want.mean.to_bits(), "mean, n={n}");
        if xs.is_empty() {
            return;
        }
        let want_grid = GRID.map(|p| want.percentile(p).to_bits());
        assert_eq!(
            GRID.map(|p| got.percentile(p).to_bits()),
            want_grid,
            "n={n}"
        );
        assert_eq!(percentiles(xs, GRID).map(f64::to_bits), want_grid, "n={n}");
        for p in GRID {
            let one = percentiles(xs, [p])[0];
            assert_eq!(one.to_bits(), want.percentile(p).to_bits(), "p{p}, n={n}");
        }
        for i in (0..n).step_by(1 + n / 32).chain([n - 1]) {
            let one = select_rank(xs, i);
            assert_eq!(one.to_bits(), want.sorted[i].to_bits(), "rank {i}, n={n}");
        }
        let tail = percentiles(xs, [50.0, 99.0, 99.9]).map(f64::to_bits);
        let want_tail = [50.0, 99.0, 99.9].map(|p| want.percentile(p).to_bits());
        assert_eq!(tail, want_tail, "n={n}");
    }

    #[test]
    fn order_keys_match_the_stable_partial_cmp_summary() {
        let mut rng = Rng64::new(21);
        for n in 0..=48 {
            check_against_reference(&awkward_sample(&mut rng, n));
        }
        for _ in 0..200 {
            let n = rng.below(2_001) as usize;
            check_against_reference(&awkward_sample(&mut rng, n));
        }
        // Zeros alone, in every sign pattern of length 4.
        for signs in 0..16u32 {
            let xs: Vec<f64> = (0..4)
                .map(|i| if signs >> i & 1 == 1 { -0.0 } else { 0.0 })
                .collect();
            check_against_reference(&xs);
        }
    }

    #[test]
    #[ignore = "2 M samples; run in release with --include-ignored"]
    fn order_keys_match_the_stable_partial_cmp_summary_large() {
        let mut rng = Rng64::new(2_000_000);
        check_against_reference(&awkward_sample(&mut rng, 2_000_000));
        let leaf: Vec<f64> = (0..2_000_000)
            .map(|_| {
                if rng.chance(0.01) {
                    rng.pareto(50.0, 1.5)
                } else {
                    rng.lognormal(5f64.ln(), 0.3)
                }
            })
            .collect();
        check_against_reference(&leaf);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn percentiles_reject_an_empty_sample() {
        percentiles(&[], [50.0]);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn percentiles_reject_nan() {
        percentiles(&[1.0, f64::NAN], [50.0]);
    }

    #[test]
    #[should_panic]
    fn percentiles_reject_p_above_100() {
        percentiles(&[1.0, 2.0], [100.5]);
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn percentiles_must_be_ascending() {
        percentiles(&[1.0, 2.0], [99.0, 50.0]);
    }

    #[test]
    fn streaming_moments_exact_small_case() {
        let mut s = Streaming::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.add(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // Population variance is 4; sample variance = 32/7.
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn streaming_empty_defaults() {
        let s = Streaming::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.count(), 0);
    }

    #[test]
    fn streaming_merge_equals_sequential() {
        let data: Vec<f64> = (0..1000).map(|i| (i as f64).sin() * 10.0 + 3.0).collect();
        let mut all = Streaming::new();
        for &x in &data {
            all.add(x);
        }
        let mut a = Streaming::new();
        let mut b = Streaming::new();
        for &x in &data[..300] {
            a.add(x);
        }
        for &x in &data[300..] {
            b.add(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-9);
        assert!((a.variance() - all.variance()).abs() < 1e-9);
        assert_eq!(a.min(), all.min());
        assert_eq!(a.max(), all.max());
    }

    #[test]
    fn streaming_merge_with_empty_sides() {
        let mut a = Streaming::new();
        let mut b = Streaming::new();
        b.add(5.0);
        a.merge(&b);
        assert_eq!(a.count(), 1);
        assert_eq!(a.mean(), 5.0);
        let empty = Streaming::new();
        a.merge(&empty);
        assert_eq!(a.count(), 1);
    }

    #[test]
    fn summary_percentiles_nearest_rank() {
        let s = Summary::from_slice(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]);
        assert_eq!(s.percentile(0.0), 1.0);
        assert_eq!(s.percentile(10.0), 1.0);
        assert_eq!(s.percentile(50.0), 5.0);
        assert_eq!(s.median(), 5.0);
        assert_eq!(s.percentile(90.0), 9.0);
        assert_eq!(s.percentile(99.0), 10.0);
        assert_eq!(s.percentile(100.0), 10.0);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 10.0);
        assert!((s.mean() - 5.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn summary_rejects_nan() {
        Summary::from_slice(&[1.0, f64::NAN]);
    }

    #[test]
    fn tail_at_scale_claim_reproduced_statistically() {
        // Sanity-check the percentile machinery against the paper's 63%
        // fan-out arithmetic: with fan-out 100 over i.i.d. latencies, the
        // fraction of requests whose max exceeds the single-server p99
        // should be ≈ 1 − 0.99^100 ≈ 0.634.
        let mut rng = Rng64::new(4);
        let server: Vec<f64> = (0..100_000).map(|_| rng.lognormal(0.0, 0.5)).collect();
        let p99 = Summary::from_slice(&server).percentile(99.0);
        let trials = 20_000;
        let mut hit = 0;
        for _ in 0..trials {
            let worst = (0..100)
                .map(|_| rng.lognormal(0.0, 0.5))
                .fold(f64::MIN, f64::max);
            if worst > p99 {
                hit += 1;
            }
        }
        let frac = hit as f64 / trials as f64;
        assert!((frac - 0.634).abs() < 0.03, "frac={frac}");
    }
}
