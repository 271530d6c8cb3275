//! Streaming and exact statistics.
//!
//! The warehouse-scale experiments (§2.1) hinge on *tail* behaviour — "if
//! 100 systems must jointly respond to a request, 63% of requests will incur
//! the 99-percentile delay of the individual systems". That claim is only
//! reproducible with careful percentile machinery, so this module provides:
//!
//! * [`Streaming`] — Welford's online mean/variance plus min/max/count.
//! * [`Summary`] — exact percentiles from a collected sample (sorting copy).
//!
//! Streaming percentiles live in [`crate::obs::LogHistogram`].

use serde::{Deserialize, Serialize};

/// Welford online moments: numerically stable streaming mean and variance.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
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
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
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
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Summary {
    sorted: Vec<f64>,
    mean: f64,
}

impl Summary {
    /// Build from a sample (copies and sorts; NaNs are rejected).
    pub fn from_slice(xs: &[f64]) -> Summary {
        assert!(
            xs.iter().all(|x| !x.is_nan()),
            "Summary over NaN-containing sample"
        );
        let mut sorted = xs.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap()); // xxi-allow: panic-path -- samples are finite by construction
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
        assert!((0.0..=100.0).contains(&p));
        if p == 0.0 {
            return self.sorted[0];
        }
        let rank = (p / 100.0 * self.sorted.len() as f64).ceil() as usize;
        self.sorted[rank.clamp(1, self.sorted.len()) - 1]
    }

    /// Fraction of samples strictly greater than `x`.
    pub fn frac_above(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = self.sorted.partition_point(|&v| v <= x);
        (self.sorted.len() - idx) as f64 / self.sorted.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng64;

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
    fn summary_frac_above() {
        let s = Summary::from_slice(&[1.0, 2.0, 3.0, 4.0]);
        assert!((s.frac_above(2.0) - 0.5).abs() < 1e-12);
        assert!((s.frac_above(0.0) - 1.0).abs() < 1e-12);
        assert!((s.frac_above(4.0) - 0.0).abs() < 1e-12);
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
