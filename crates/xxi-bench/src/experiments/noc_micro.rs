//! The `noc-mesh` kernel bench: E13's cycle-stepped mesh on its own, an
//! 8×8 uniform-random run at 0.2 flits/node/cycle (1 000 warm-up plus
//! 4 000 measured cycles). Like the `des-*` microbenches it lives in the
//! micro registry, so only `xxi bench` reaches it and its committed
//! baseline puts the NoC switch loop under the `xxi compare` gate. Its
//! throughput is router-cycles per second: every router pays one switch
//! decision per cycle, busy or not.

use xxi_core::Report;
use xxi_noc::sim::{NocConfig, NocSim};
use xxi_noc::traffic::Pattern;

use super::{Experiment, RunCtx};

/// `noc-mesh`: one 8×8 uniform mesh run at rate 0.2.
pub struct NocMesh;

impl NocMesh {
    const WARMUP: u64 = 1_000;
    const MEASURE: u64 = 4_000;
    const RATE: f64 = 0.2;

    fn config(seed: u64) -> NocConfig {
        NocConfig::mesh8x8(Pattern::Uniform, Self::RATE, seed)
    }
}

impl Experiment for NocMesh {
    fn id(&self) -> &'static str {
        "noc-mesh"
    }

    fn title(&self) -> &'static str {
        "NoC micro: 8x8 uniform mesh at 0.2 flits/node/cycle"
    }

    fn paper_claim(&self) -> &'static str {
        "mesh microbench: round-robin switch allocation with credit backpressure"
    }

    fn work_units(&self) -> Option<(&'static str, f64)> {
        let routers = Self::config(0).mesh.nodes() as u64;
        Some((
            "router-cycles",
            (routers * (Self::WARMUP + Self::MEASURE)) as f64,
        ))
    }

    fn fill(&self, ctx: &RunCtx, r: &mut Report) {
        let res = NocSim::new(Self::config(ctx.seed_or(3))).run(Self::WARMUP, Self::MEASURE);
        ctx.count("noc.flits_delivered", res.delivered);
        ctx.count("noc.link_traversals", res.link_traversals);
        r.section("8x8 uniform mesh");
        r.text(format!(
            "{} + {} cycles at rate {}: {} flits delivered, {} link traversals",
            Self::WARMUP,
            Self::MEASURE,
            Self::RATE,
            res.delivered,
            res.link_traversals
        ));
        r.finding("flits_delivered", res.delivered as f64, "flits");
        r.finding("mean_latency", res.mean_latency, "cycles");
    }
}
