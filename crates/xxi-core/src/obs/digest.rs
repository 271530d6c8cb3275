//! A tiny streaming quantile digest for online policy decisions.
//!
//! [`LogHistogram`](crate::obs::LogHistogram) is the reporting histogram:
//! 16 KiB, forty decades of range, exact moments. A serving policy that
//! keeps one digest *per shard* and consults it on every dispatch wants
//! something an order of magnitude smaller and just as deterministic —
//! that is [`TailDigest`]: 2 KiB of fixed state, O(1) insert, O(buckets)
//! quantile, mergeable, with the same log-bucketed nearest-rank scheme
//! (16 sub-buckets per octave, so quantiles carry at most
//! [`TailDigest::MAX_REL_ERROR`] = 6.25% relative error).
//!
//! The narrower range (2⁻¹⁶ … 2¹⁶, e.g. ~15 ns … ~65 s when samples are
//! milliseconds) is deliberate: adaptive hedging and its kin only care
//! about values near a request budget; anything outside saturates into
//! the edge octaves and is still clamped by the exact min/max.
//!
//! Unlike P²-style marker estimators, the digest
//! is insertion-order independent: merging shard digests or replaying
//! samples in any order yields bit-identical quantiles, which is what the
//! parallel-determinism contract demands of anything a policy reads.

const SUB_BITS: u32 = 4;
const SUB: usize = 1 << SUB_BITS; // 16 sub-buckets per octave
const E_MIN: i32 = -16;
const E_MAX: i32 = 15;
const OCTAVES: usize = (E_MAX - E_MIN + 1) as usize;
const NBUCKETS: usize = OCTAVES * SUB;

/// Fixed-memory streaming quantile digest (see module docs).
#[derive(Clone, Debug)]
pub struct TailDigest {
    buckets: Box<[u32; NBUCKETS]>,
    /// Samples ≤ 0 — ranked below every positive sample, reported as the
    /// exact minimum.
    nonpos: u64,
    count: u64,
    min: f64,
    max: f64,
}

impl Default for TailDigest {
    fn default() -> TailDigest {
        TailDigest::new()
    }
}

impl TailDigest {
    /// Bound on the relative error of [`TailDigest::quantile`] for
    /// in-range positive samples: one sub-bucket width.
    pub const MAX_REL_ERROR: f64 = 1.0 / SUB as f64;

    /// An empty digest.
    pub fn new() -> TailDigest {
        TailDigest {
            buckets: Box::new([0; NBUCKETS]),
            nonpos: 0,
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Bucket index for a finite positive value; out-of-range exponents
    /// saturate into the edge buckets.
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

    /// Record one sample. NaN panics — a NaN latency is always a bug.
    #[inline]
    pub fn add(&mut self, x: f64) {
        assert!(!x.is_nan(), "TailDigest::add(NaN)");
        self.count += 1;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
        if x <= 0.0 {
            self.nonpos += 1;
            return;
        }
        let i = Self::index(x);
        self.buckets[i] = self.buckets[i].saturating_add(1);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact minimum (`+inf` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Exact maximum (`−inf` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Nearest-rank quantile, `q ∈ [0, 1]`; 0.0 on an empty digest.
    ///
    /// Same rank arithmetic as [`crate::stats::Summary::percentile`] and
    /// [`crate::obs::LogHistogram::quantile`], within
    /// [`TailDigest::MAX_REL_ERROR`] for positive in-range samples.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0,1]");
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        if rank <= self.nonpos {
            return self.min;
        }
        let mut acc = self.nonpos;
        for (i, &b) in self.buckets.iter().enumerate() {
            acc += u64::from(b);
            if acc >= rank {
                return Self::midpoint(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Merge another digest (shard reduction): counts add, extremes
    /// combine exactly.
    pub fn merge(&mut self, other: &TailDigest) {
        for (a, &b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a = a.saturating_add(b);
        }
        self.nonpos += other.nonpos;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng64;
    use crate::stats::Summary;

    #[test]
    fn empty_digest_defaults() {
        let d = TailDigest::new();
        assert!(d.is_empty());
        assert_eq!(d.quantile(0.5), 0.0);
    }

    #[test]
    fn quantiles_track_exact_within_bucket_error() {
        let mut rng = Rng64::new(9);
        let xs: Vec<f64> = (0..50_000).map(|_| rng.lognormal(1.6, 0.4)).collect();
        let mut d = TailDigest::new();
        for &x in &xs {
            d.add(x);
        }
        let s = Summary::from_slice(&xs);
        for p in [10.0, 50.0, 95.0, 99.0, 99.9] {
            let exact = s.percentile(p);
            let got = d.quantile(p / 100.0);
            let rel = (got - exact).abs() / exact;
            assert!(
                rel <= TailDigest::MAX_REL_ERROR,
                "p{p}: got {got}, exact {exact}, rel {rel}"
            );
        }
    }

    #[test]
    fn insertion_order_independent_and_merge_equals_sequential() {
        let mut rng = Rng64::new(10);
        let xs: Vec<f64> = (0..10_000).map(|_| rng.exp(0.2)).collect();
        let mut fwd = TailDigest::new();
        let mut rev = TailDigest::new();
        let mut a = TailDigest::new();
        let mut b = TailDigest::new();
        for &x in &xs {
            fwd.add(x);
        }
        for &x in xs.iter().rev() {
            rev.add(x);
        }
        for (i, &x) in xs.iter().enumerate() {
            if i % 2 == 0 { &mut a } else { &mut b }.add(x);
        }
        a.merge(&b);
        for q in [0.5, 0.9, 0.99, 0.999] {
            assert_eq!(fwd.quantile(q).to_bits(), rev.quantile(q).to_bits());
            assert_eq!(fwd.quantile(q).to_bits(), a.quantile(q).to_bits());
        }
        assert_eq!(a.count(), fwd.count());
        assert_eq!(a.min(), fwd.min());
        assert_eq!(a.max(), fwd.max());
    }

    #[test]
    fn out_of_range_and_nonpositive_samples_stay_bounded() {
        let mut d = TailDigest::new();
        for x in [-1.0, 0.0, 1e-9, 2.5, 1e9] {
            d.add(x);
        }
        assert_eq!(d.count(), 5);
        assert_eq!(d.quantile(0.2), -1.0); // nonpos rank reports exact min
        assert!(d.quantile(1.0) <= 1e9);
        assert!(d.quantile(0.0) >= -1.0);
    }

    #[test]
    fn single_sample_is_its_own_quantile() {
        let mut d = TailDigest::new();
        d.add(12.0);
        for q in [0.0, 0.5, 1.0] {
            let v = d.quantile(q);
            assert!((v - 12.0).abs() / 12.0 <= TailDigest::MAX_REL_ERROR);
        }
    }

    #[test]
    #[should_panic]
    fn nan_rejected() {
        TailDigest::new().add(f64::NAN);
    }

    #[test]
    fn fixed_memory_is_two_kib() {
        assert_eq!(NBUCKETS, 512);
        assert_eq!(std::mem::size_of::<[u32; NBUCKETS]>(), 2 * 1024);
    }
}
