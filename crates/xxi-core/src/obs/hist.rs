//! A fixed-memory log-bucketed histogram for latency and energy samples.
//!
//! The exact [`crate::stats::Summary`] retains every sample (a `Vec<f64>`
//! plus a sort per query) — fine for a Monte Carlo of 10⁵ trials, fatal
//! for a long DES run recording every request. [`LogHistogram`] is the
//! streaming replacement: ~16 KiB of fixed state, O(1) insert, mergeable
//! across shards, with quantiles accurate to a bounded *relative* error.
//!
//! It serves reports and online policies alike: `xxi-cloud`'s cluster
//! keeps one per shard, fed by every observed attempt, and its adaptive
//! hedging reads that shard's quantile at each dispatch. A quantile query
//! walks the buckets from the exact minimum's, so its cost follows the
//! occupied span, not the range. Insertion order never changes a bucket
//! or an extreme, so merged or replayed streams give bit-identical
//! quantiles.
//!
//! ## Bucketing
//!
//! Positive values are bucketed by their binary exponent (one octave per
//! exponent, covering 2⁻⁶⁴ … 2⁶⁴ — twenty decades either side of 1.0)
//! subdivided into 16 linear sub-buckets taken from the top mantissa bits.
//! The widest bucket is 1/16 of its octave, so any reported quantile is
//! within [`LogHistogram::MAX_REL_ERROR`] (6.25%) of the exact
//! nearest-rank answer — the property tests check this against
//! [`crate::stats::Summary`] on random inputs. Zero and negative samples
//! are counted in dedicated side buckets; min/max/mean are tracked
//! exactly.

use crate::stats::Streaming;

const SUB_BITS: u32 = 4;
const SUB: usize = 1 << SUB_BITS; // 16 sub-buckets per octave
const E_MIN: i32 = -64;
const E_MAX: i32 = 63;
const OCTAVES: usize = (E_MAX - E_MIN + 1) as usize;
const NBUCKETS: usize = OCTAVES * SUB;

/// Streaming log-bucketed histogram with nearest-rank quantile queries.
#[derive(Clone, Debug)]
pub struct LogHistogram {
    buckets: Box<[u64; NBUCKETS]>,
    /// Samples with value exactly zero (or subnormally tiny).
    zeros: u64,
    /// Negative samples (rank below every non-negative sample).
    negatives: u64,
    moments: Streaming,
}

impl Default for LogHistogram {
    fn default() -> LogHistogram {
        LogHistogram::new()
    }
}

impl LogHistogram {
    /// Bound on the relative error of [`LogHistogram::quantile`] for
    /// in-range positive values: half a sub-bucket width either way.
    // xxi-allow: model-reach -- the quantile-error bound tests/properties.rs holds the sketch to
    pub const MAX_REL_ERROR: f64 = 1.0 / SUB as f64;

    /// An empty histogram.
    pub fn new() -> LogHistogram {
        LogHistogram {
            buckets: Box::new([0; NBUCKETS]),
            zeros: 0,
            negatives: 0,
            moments: Streaming::new(),
        }
    }

    /// Record one sample. NaN is rejected with a panic — a NaN latency or
    /// energy is always a model bug.
    #[inline]
    pub fn add(&mut self, x: f64) {
        assert!(!x.is_nan(), "LogHistogram::add(NaN)");
        self.moments.add(x);
        if x <= 0.0 {
            if x == 0.0 {
                self.zeros += 1;
            } else {
                self.negatives += 1;
            }
            return;
        }
        self.buckets[Self::index(x)] += 1;
    }

    /// Bucket index for a finite positive value (out-of-range exponents
    /// saturate into the edge buckets).
    #[inline]
    fn index(x: f64) -> usize {
        let bits = x.to_bits();
        let exp = ((bits >> 52) & 0x7ff) as i32 - 1023;
        if exp < E_MIN {
            return 0;
        }
        if exp > E_MAX {
            return NBUCKETS - 1;
        }
        let sub = ((bits >> (52 - SUB_BITS)) & (SUB as u64 - 1)) as usize;
        (exp - E_MIN) as usize * SUB + sub
    }

    /// Midpoint of bucket `i` — the value quantile queries report.
    fn midpoint(i: usize) -> f64 {
        let exp = E_MIN + (i / SUB) as i32;
        let octave = (exp as f64).exp2();
        octave * (1.0 + ((i % SUB) as f64 + 0.5) / SUB as f64)
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.moments.count()
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// Exact sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        self.moments.mean()
    }

    /// Exact minimum (`+inf` when empty).
    pub fn min(&self) -> f64 {
        self.moments.min()
    }

    /// Exact maximum (`−inf` when empty).
    pub fn max(&self) -> f64 {
        self.moments.max()
    }

    /// Nearest-rank quantile, `q ∈ [0, 1]`; 0.0 on an empty histogram.
    ///
    /// Matches [`crate::stats::Summary::percentile`]'s rank arithmetic,
    /// within [`LogHistogram::MAX_REL_ERROR`] relative error for positive
    /// in-range samples. Ranks falling among negative samples report the
    /// exact minimum; among zeros, 0.0.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0,1]");
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        if rank <= self.negatives {
            return self.min();
        }
        if rank <= self.negatives + self.zeros {
            return 0.0;
        }
        // Every bucket below the exact minimum's is empty, so a positive
        // minimum's bucket is where the walk starts.
        let first = if self.min() > 0.0 {
            Self::index(self.min())
        } else {
            0
        };
        let mut acc = self.negatives + self.zeros;
        for (i, &b) in self.buckets.iter().enumerate().skip(first) {
            acc += b;
            if acc >= rank {
                // Clamp the bucket estimate by the exact extremes.
                return Self::midpoint(i).clamp(self.min(), self.max());
            }
        }
        self.max()
    }

    /// Median.
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> f64 {
        self.quantile(0.90)
    }

    /// 99th percentile.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// 99.9th percentile.
    pub fn p999(&self) -> f64 {
        self.quantile(0.999)
    }

    /// Merge another histogram (shard reduction): counts add, extremes
    /// combine exactly.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.zeros += other.zeros;
        self.negatives += other.negatives;
        self.moments.merge(&other.moments);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng64;
    use crate::stats::Summary;

    #[test]
    fn empty_histogram_defaults() {
        let h = LogHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn quantiles_track_exact_within_bucket_error() {
        let mut rng = Rng64::new(1);
        let xs: Vec<f64> = (0..100_000).map(|_| rng.lognormal(1.5, 0.8)).collect();
        let mut h = LogHistogram::new();
        for &x in &xs {
            h.add(x);
        }
        let s = Summary::from_slice(&xs);
        for p in [1.0, 10.0, 50.0, 90.0, 99.0, 99.9] {
            let exact = s.percentile(p);
            let got = h.quantile(p / 100.0);
            let rel = (got - exact).abs() / exact;
            assert!(
                rel <= LogHistogram::MAX_REL_ERROR,
                "p{p}: got {got}, exact {exact}, rel {rel}"
            );
        }
    }

    #[test]
    fn tiny_and_huge_values_stay_bounded() {
        let mut h = LogHistogram::new();
        for x in [1e-30, 1e-3, 1.0, 1e3, 1e30] {
            h.add(x);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.min(), 1e-30);
        assert_eq!(h.max(), 1e30);
        // Extremes are clamped by the exact min/max.
        assert!(h.quantile(0.0) >= 1e-30);
        assert!(h.quantile(1.0) <= 1e30);
    }

    #[test]
    fn zeros_and_negatives_rank_below_positives() {
        let mut h = LogHistogram::new();
        for x in [-2.0, -1.0, 0.0, 0.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0] {
            h.add(x);
        }
        assert_eq!(h.count(), 10);
        // rank 1-2 → negatives (exact min), 3-4 → zeros, 5+ → positives.
        assert_eq!(h.quantile(0.1), -2.0);
        assert_eq!(h.quantile(0.4), 0.0);
        assert!(h.quantile(0.5) > 4.0);
        assert!((h.mean() - 4.2).abs() < 1e-12);
    }

    #[test]
    fn merge_equals_sequential() {
        // Shard merges and replays in any order give bit-identical quantiles.
        let mut rng = Rng64::new(2);
        let xs: Vec<f64> = (0..20_000).map(|_| rng.exp(0.3)).collect();
        let mut all = LogHistogram::new();
        let mut rev = LogHistogram::new();
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        for (i, &x) in xs.iter().enumerate() {
            all.add(x);
            if i % 2 == 0 {
                a.add(x);
            } else {
                b.add(x);
            }
        }
        for &x in xs.iter().rev() {
            rev.add(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert_eq!(a.min(), all.min());
        assert_eq!(a.max(), all.max());
        for q in [0.5, 0.9, 0.99, 0.999] {
            assert_eq!(a.quantile(q).to_bits(), all.quantile(q).to_bits());
            assert_eq!(rev.quantile(q).to_bits(), all.quantile(q).to_bits());
        }
    }

    #[test]
    fn walk_from_the_minimum_matches_a_walk_from_bucket_zero() {
        let from_zero = |h: &LogHistogram, q: f64| {
            let n = h.count();
            let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
            let mut acc = 0;
            for (i, &b) in h.buckets.iter().enumerate() {
                acc += b;
                if acc >= rank {
                    return LogHistogram::midpoint(i).clamp(h.min(), h.max());
                }
            }
            h.max()
        };
        let mut rng = Rng64::new(3);
        for scale in [1e-15, 1e-3, 1.0, 7.5, 1e12] {
            let mut h = LogHistogram::new();
            for _ in 0..5_000 {
                h.add(scale * rng.lognormal(0.0, 1.0));
            }
            for q in [0.0, 0.001, 0.5, 0.9, 0.99, 0.999, 1.0] {
                assert_eq!(h.quantile(q).to_bits(), from_zero(&h, q).to_bits());
            }
        }
    }

    #[test]
    fn single_sample_is_its_own_quantile() {
        let mut h = LogHistogram::new();
        h.add(7.25);
        for q in [0.0, 0.5, 1.0] {
            let v = h.quantile(q);
            assert!((v - 7.25).abs() / 7.25 <= LogHistogram::MAX_REL_ERROR);
        }
    }

    #[test]
    #[should_panic]
    fn nan_rejected() {
        LogHistogram::new().add(f64::NAN);
    }

    #[test]
    fn fixed_memory_is_octaves_times_subbuckets() {
        // The promise in the module docs: ~16 KiB of buckets.
        assert_eq!(NBUCKETS, 2048);
        assert_eq!(std::mem::size_of::<[u64; NBUCKETS]>(), 16 * 1024);
    }
}
