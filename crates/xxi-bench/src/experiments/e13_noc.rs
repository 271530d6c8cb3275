//! E13 — §1.2/§2.3: photonics and 3D stacking "change communication costs
//! radically enough to affect the entire system design."

use xxi_core::par;
use xxi_core::table::fnum;
use xxi_core::units::Seconds;
use xxi_core::{Report, Table};
use xxi_noc::analysis::ideal_uniform_saturation;
use xxi_noc::link::{Link, LinkKind};
use xxi_noc::sim::{load_sweep, load_sweep_on};
use xxi_noc::topology::Mesh;
use xxi_noc::traffic::Pattern;
use xxi_tech::NodeDb;

use super::{Experiment, RunCtx};

pub struct E13Noc;

impl Experiment for E13Noc {
    fn id(&self) -> &'static str {
        "e13"
    }

    fn title(&self) -> &'static str {
        "Interconnect: 3D stacking and photonic links"
    }

    fn paper_claim(&self) -> &'static str {
        "§2.3: 'Photonics ... 3D chip stacking change communication costs radically'"
    }

    fn parallel(&self) -> bool {
        true
    }

    fn fill(&self, ctx: &RunCtx, r: &mut Report) {
        let db = NodeDb::standard();
        let node = db.by_name("22nm").unwrap(); // xxi-allow: panic-path -- ladder name is a fixed constant

        r.section("64 nodes: planar 8x8 vs stacked 4x4x4 (uniform traffic)");
        let rates = [0.02, 0.1, 0.2, 0.3, 0.4];
        let planar = load_sweep_on(
            Mesh::new_2d(8, 8),
            Pattern::Uniform,
            &rates,
            ctx.seed_or(5),
            ctx.exec(),
        );
        let stacked = load_sweep_on(
            Mesh::new_3d(4, 4, 4),
            Pattern::Uniform,
            &rates,
            ctx.seed_or(5),
            ctx.exec(),
        );
        let mut t = Table::new(&[
            "injection rate",
            "2D latency (cyc)",
            "3D latency (cyc)",
            "2D throughput",
            "3D throughput",
        ]);
        for ((r, l2, t2), (_, l3, t3)) in planar.iter().zip(&stacked) {
            t.row(&[fnum(*r), fnum(*l2), fnum(*l3), fnum(*t2), fnum(*t3)]);
        }
        r.table(t);
        r.text(format!(
            "mean hops: 2D {:.2} vs 3D {:.2}; bisection bound: 2D {:.2} vs 3D {:.2} flits/node/cyc",
            Mesh::new_2d(8, 8).mean_hops_uniform(),
            Mesh::new_3d(4, 4, 4).mean_hops_uniform(),
            ideal_uniform_saturation(&Mesh::new_2d(8, 8)),
            ideal_uniform_saturation(&Mesh::new_3d(4, 4, 4)),
        ));

        r.section("Traffic patterns on the 8x8 mesh at rate 0.25");
        let mut t = Table::new(&["pattern", "mean latency (cyc)", "throughput"]);
        let patterns = [
            ("uniform", Pattern::Uniform),
            ("neighbor", Pattern::Neighbor),
            ("transpose", Pattern::Transpose),
            (
                "hotspot 20%",
                Pattern::Hotspot {
                    node: 27,
                    permille: 200,
                },
            ),
        ];
        let rows = par::map(ctx.exec(), patterns.len(), |i| {
            load_sweep(Mesh::new_2d(8, 8), patterns[i].1, &[0.25], ctx.seed_or(6))[0]
        });
        for ((name, _), row) in patterns.iter().zip(rows) {
            t.row(&[name.to_string(), fnum(row.1), fnum(row.2)]);
        }
        r.table(t);

        r.section("Photonic vs electrical link energy (20 mm span, 22nm)");
        let photonic = Link::on(node, LinkKind::Photonic);
        let electrical = Link::on(node, LinkKind::Electrical { mm: 20.0 });
        let crossover = photonic
            .energy_crossover_bits_per_sec(&electrical)
            .expect("crossover exists"); // xxi-allow: panic-path -- see the expect message
        let mut t = Table::new(&[
            "utilization (Gb/s)",
            "electrical (mJ/s)",
            "photonic (mJ/s)",
            "winner",
        ]);
        for gbps in [0.1, 1.0, 5.0, 20.0, 100.0] {
            let bits = (gbps * 1e9) as u64;
            let e = electrical.total_energy(bits, Seconds(1.0)).mj();
            let p = photonic.total_energy(bits, Seconds(1.0)).mj();
            t.row(&[
                fnum(gbps),
                fnum(e),
                fnum(p),
                if p < e { "photonic" } else { "electrical" }.to_string(),
            ]);
        }
        r.table(t);
        r.text(format!("energy crossover: {:.2} Gb/s", crossover / 1e9));
        r.finding("photonic_crossover_gbps", crossover / 1e9, "Gb/s");

        r.text(
            "\nHeadline: stacking cuts mean hops 28% and raises the bisection bound 2x;\n\
             photonics wins long links only above a utilization threshold (standing\n\
             laser power) — both 'change the system design' rather than one number.",
        );
    }
}
