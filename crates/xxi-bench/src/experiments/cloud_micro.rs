//! The `cloud-fanout` kernel bench: E9's fan-out max on its own, 5 000
//! requests that each take [`LatencyDist::sample_max`] over 100 typical
//! leaves. Like the `des-*` and `noc-mesh` microbenches it lives in the
//! micro registry, so only `xxi bench` reaches it and its committed
//! baseline puts the fan-out max under the `xxi compare` gate. It times
//! only the trials, not `fanout_latency`'s fixed p99 calibration, so its
//! throughput, fan-out leaf draws per second, measures the kernel.

use xxi_cloud::latency::LatencyDist;
use xxi_core::rng::Rng64;
use xxi_core::stats::Summary;
use xxi_core::Report;

use super::{Experiment, RunCtx};

/// `cloud-fanout`: 5 000 requests, each the max of 100 typical leaves.
pub struct CloudFanout;

impl CloudFanout {
    const FANOUT: usize = 100;
    const TRIALS: usize = 5_000;
}

impl Experiment for CloudFanout {
    fn id(&self) -> &'static str {
        "cloud-fanout"
    }

    fn title(&self) -> &'static str {
        "Cloud micro: fan-out 100 max over the typical leaf"
    }

    fn paper_claim(&self) -> &'static str {
        "fan-out microbench: each request waits for the slowest of 100 leaves"
    }

    fn work_units(&self) -> Option<(&'static str, f64)> {
        Some(("leaf-draws", (Self::FANOUT * Self::TRIALS) as f64))
    }

    fn fill(&self, ctx: &RunCtx, r: &mut Report) {
        let dist = LatencyDist::typical_leaf();
        let mut rng = Rng64::new(ctx.seed_or(7));
        let maxima: Vec<f64> = (0..Self::TRIALS)
            .map(|_| dist.sample_max(Self::FANOUT, &mut rng))
            .collect();
        let s = Summary::from_slice(&maxima);
        ctx.count("cloud.mc_trials", Self::TRIALS as u64);
        r.section("fan-out 100");
        r.text(format!(
            "{} requests of {} typical leaves: p50 {:.2} ms, p99 {:.2} ms",
            Self::TRIALS,
            Self::FANOUT,
            s.median(),
            s.percentile(99.0)
        ));
        r.finding("p50", s.median(), "ms");
        r.finding("p99", s.percentile(99.0), "ms");
    }
}
