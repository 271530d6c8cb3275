//! E18 — §2.2: "1,000-way parallelism … communication energy will outgrow
//! computation energy." The modeled 1000-way energy balance, plus the
//! observed mesh that carries the halo traffic.
//!
//! Real-thread scaling of the thread pool is a host measurement, so
//! it lives in the bench registry: `xxi bench stack/pool-sum --threads N`.

use xxi_core::table::fnum;
use xxi_core::{Report, Table};
use xxi_mem::energy::MemEnergyTable;
use xxi_noc::link::{Link, LinkKind};
use xxi_noc::sim::{NocConfig, NocSim};
use xxi_noc::topology::Mesh;
use xxi_noc::traffic::Pattern;
use xxi_tech::ops::OpEnergies;
use xxi_tech::NodeDb;

use crate::{quantile_row, quantile_table};

use super::{Experiment, RunCtx};

pub struct E18Scaling;

impl Experiment for E18Scaling {
    fn id(&self) -> &'static str {
        "e18"
    }

    fn title(&self) -> &'static str {
        "1000-way parallelism: the communication-energy wall"
    }

    fn paper_claim(&self) -> &'static str {
        "§2.2: 'communication energy will outgrow computation energy'"
    }

    fn emits_trace(&self) -> bool {
        true
    }

    fn fill(&self, ctx: &RunCtx, r: &mut Report) {
        r.section("Modeled 1000-way stencil: compute vs communication energy per sweep");
        // A 1000-core 22nm chip runs a 2D stencil: each core owns a tile of
        // 256x256 points (f64), computes 5 FMA/point, and exchanges halos
        // (4 edges x 256 points x 8 B) with neighbors each sweep.
        let db = NodeDb::standard();
        let mut t = Table::new(&[
            "node",
            "compute/core (uJ)",
            "halo comms/core (uJ)",
            "comm/compute",
        ]);
        let mesh = Mesh::new_2d(32, 32); // ~1000 cores
        for name in ["90nm", "45nm", "22nm", "7nm"] {
            let node = db.by_name(name).unwrap(); // xxi-allow: panic-path -- ladder name is a fixed constant
            let ops = OpEnergies::at(node);
            let compute = ops.fp_fma * (256.0 * 256.0 * 5.0);
            // Halo exchange crosses ~1 mesh hop of 2 mm wire per neighbor.
            let link = Link::on(node, LinkKind::Electrical { mm: 2.0 });
            let halo_bits = 4.0 * 256.0 * 8.0 * 8.0;
            let comm = link.transfer_energy(halo_bits as u64) * mesh.mean_hops_uniform().max(1.0);
            t.row(&[
                name.to_string(),
                fnum(compute.value() * 1e6),
                fnum(comm.value() * 1e6),
                fnum(comm.value() / compute.value()),
            ]);
        }
        r.table(t);
        r.text(
            "(each halo priced on one link times the mesh's mean hop count under\n \
             uniform traffic: the cost of a placement blind to locality)",
        );

        r.section("All-to-all instead of neighbor halos (the locality-hostile case)");
        let node = db.by_name("22nm").unwrap(); // xxi-allow: panic-path -- ladder name is a fixed constant
        let ops = OpEnergies::at(node);
        let l3 = MemEnergyTable::at(node).l3;
        let compute = ops.fp_fma * (256.0 * 256.0 * 5.0);
        let shuffle_bytes = 256.0 * 256.0 * 8.0; // whole tile shuffled
        let link = Link::on(node, LinkKind::Electrical { mm: 2.0 });
        let comm = link.transfer_energy((shuffle_bytes * 8.0) as u64)
            * Mesh::new_2d(32, 32).mean_hops_uniform()
            + l3 * (shuffle_bytes / 8.0);
        r.finding(
            "all_to_all_comm_ratio_22nm",
            comm.value() / compute.value(),
            "x",
        );
        r.text(format!(
            "22nm: compute {:.1} uJ vs all-to-all comm {:.1} uJ — ratio {:.1}",
            compute.value() * 1e6,
            comm.value() * 1e6,
            comm.value() / compute.value()
        ));

        r.section("Observed 8x8 mesh under the halo traffic: packet-latency tail + energy");
        // The fabric carrying those halos, observed: per-packet latency
        // histograms at a moderate and a near-saturation load, link/router
        // energy on the ledger.
        let mut t = quantile_table("packet latency (cycles)");
        let mut traced = None;
        for rate in [0.1, 0.4] {
            let mut sim = NocSim::new(NocConfig::mesh8x8(Pattern::Uniform, rate, ctx.seed_or(18)));
            // Trace the heavier load (the interesting one to look at).
            if rate > 0.3 {
                sim.trace = ctx.trace();
            }
            let obs = sim.run_observed(2_000, 8_000);
            t.row(&quantile_row(&format!("load {rate}"), &obs.latency));
            if rate > 0.3 {
                traced = Some(obs);
            }
        }
        r.table(t);
        let heavy = traced.expect("0.4 run present"); // xxi-allow: panic-path -- see the expect message
        r.text(format!(
            "throughput at load 0.4: {} flits/node/cycle; throttled injections: {}",
            fnum(heavy.result.throughput),
            heavy.result.throttled
        ));
        r.section("NoC energy ledger (measured phase, load 0.4)");
        r.table(heavy.ledger.table());

        ctx.emit_trace(r, &heavy.trace);

        r.text(
            "\nHeadline: in the model, neighbor-only communication stays affordable\n\
             but its share grows every node, and communication-oblivious\n\
             (all-to-all) patterns already cost multiples of compute at 22nm —\n\
             'rethink how we design for 1,000-way parallelism' is an energy\n\
             statement, not a scheduling one.",
        );
    }
}
