//! Tests of the per-shard latency digest that online policies read.
//!
//! `xxi-cloud`'s cluster keeps one [`LogHistogram`] per shard and its
//! adaptive hedging reads that shard's quantile at every dispatch. These
//! tests pin what such a policy relies on, with millisecond-scale samples:
//! a bounded quantile error, bit-identical answers however the samples are
//! ordered or sharded, and bounded answers for samples far outside the
//! request budget. The histogram's own tests live in `hist.rs`.

#[cfg(test)]
mod tests {
    use crate::obs::LogHistogram;
    use crate::rng::Rng64;
    use crate::stats::Summary;

    #[test]
    fn empty_digest_defaults() {
        let d = LogHistogram::new();
        assert!(d.is_empty());
        assert_eq!(d.quantile(0.5), 0.0);
    }

    #[test]
    fn quantiles_track_exact_within_bucket_error() {
        let mut rng = Rng64::new(9);
        let xs: Vec<f64> = (0..50_000).map(|_| rng.lognormal(1.6, 0.4)).collect();
        let mut d = LogHistogram::new();
        for &x in &xs {
            d.add(x);
        }
        let s = Summary::from_slice(&xs);
        for p in [10.0, 50.0, 95.0, 99.0, 99.9] {
            let exact = s.percentile(p);
            let got = d.quantile(p / 100.0);
            let rel = (got - exact).abs() / exact;
            assert!(
                rel <= LogHistogram::MAX_REL_ERROR,
                "p{p}: got {got}, exact {exact}, rel {rel}"
            );
        }
    }

    #[test]
    fn insertion_order_independent_and_merge_equals_sequential() {
        let mut rng = Rng64::new(10);
        let xs: Vec<f64> = (0..10_000).map(|_| rng.exp(0.2)).collect();
        let mut fwd = LogHistogram::new();
        let mut rev = LogHistogram::new();
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
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
        let mut d = LogHistogram::new();
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
        let mut d = LogHistogram::new();
        d.add(12.0);
        for q in [0.0, 0.5, 1.0] {
            let v = d.quantile(q);
            assert!((v - 12.0).abs() / 12.0 <= LogHistogram::MAX_REL_ERROR);
        }
    }

    #[test]
    #[should_panic]
    fn nan_rejected() {
        LogHistogram::new().add(f64::NAN);
    }
}
