//! E8 — §2.2: the energy pyramid. "an exa-op data center in 10 MW, a
//! peta-op departmental server in 10 kW, a tera-op portable in 10 W, a
//! giga-op sensor in 10 mW" — all four tiers demand 10^11 ops/J.

use xxi_accel::ladder::{efficiency_factor, ImplKind, Kernel};
use xxi_cloud::power::{DatacenterPower, ServerPower};
use xxi_core::table::{fnum, xfactor};
use xxi_core::units::{Energy, Power};
use xxi_core::{Report, Table};
use xxi_tech::ops::OpEnergies;
use xxi_tech::{NodeDb, NtvModel};

use super::{Experiment, RunCtx};

pub struct E8Pyramid;

impl Experiment for E8Pyramid {
    fn id(&self) -> &'static str {
        "e8"
    }

    fn title(&self) -> &'static str {
        "The energy pyramid: every tier demands 1e11 ops/J"
    }

    fn paper_claim(&self) -> &'static str {
        "§2.2: exa-op @ 10 MW ... giga-op @ 10 mW (a uniform 1e11 ops/J)"
    }

    fn fill(&self, _ctx: &RunCtx, r: &mut Report) {
        r.section("The four tiers and the uniform requirement");
        let mut t = Table::new(&[
            "tier",
            "throughput (ops/s)",
            "power budget",
            "required ops/J",
        ]);
        for (tier, ops, pw, pstr) in [
            ("exa-op datacenter", 1e18, 10e6, "10 MW"),
            ("peta-op server", 1e15, 10e3, "10 kW"),
            ("tera-op portable", 1e12, 10.0, "10 W"),
            ("giga-op sensor", 1e9, 10e-3, "10 mW"),
        ] {
            t.row(&[
                tier.to_string(),
                fnum(ops),
                pstr.to_string(),
                fnum(ops / pw),
            ]);
        }
        r.table(t);

        r.section("What 2012-era technology achieves (ops/J)");
        let db = NodeDb::standard();
        let node = db.by_name("22nm").unwrap(); // xxi-allow: panic-path -- ladder name is a fixed constant
        let ops22 = OpEnergies::at(node);

        // A commodity datacenter.
        let dc = DatacenterPower {
            server: ServerPower::commodity_2012(),
            servers: 50_000,
            pue: 1.6,
        };
        // A general-purpose core: 1 / (energy per OoO instruction).
        let general = 1.0 / ops22.fma_instruction_ooo().value();
        // SIMD on a modern core.
        let simd = general * efficiency_factor(node, ImplKind::Simd { lanes: 16 }, Kernel::Fir);
        // A fixed-function accelerator.
        let asic = general * efficiency_factor(node, ImplKind::FixedFunction, Kernel::Fir);
        // NTV on top of the accelerator (energy/op scales with the NTV gain).
        let ntv = NtvModel::new(node.clone(), Energy::from_pj(10.0), Power::from_mw(50.0));
        let (_, mep) = ntv.minimum_energy_point();
        let ntv_gain = ntv.e_op(node.vdd).value() / mep.value();
        let asic_ntv = asic * ntv_gain;

        let required: f64 = 1e11;
        let mut t = Table::new(&["system", "ops/J", "gap to 1e11 ops/J"]);
        for (name, achieved) in [
            ("commodity datacenter (facility)", dc.ops_per_joule(1.0)),
            ("22nm OoO core (compute only)", general),
            ("+ SIMD x16", simd),
            ("+ fixed-function accel", asic),
            ("+ NTV operation", asic_ntv),
        ] {
            t.row(&[
                name.to_string(),
                fnum(achieved),
                xfactor(required / achieved),
            ]);
        }
        r.table(t);

        let gap = required / dc.ops_per_joule(1.0);
        r.finding("commodity_gap", gap, "x");
        r.text(format!(
            "\nHeadline: the pyramid asks for two-to-three orders of magnitude; the\n\
             commodity path is {} short, and the paper's whole lever stack —\n\
             simple cores + specialization + NTV — is what closes it (compute-only;\n\
             the memory ladder of E4 then becomes the next wall).",
            xfactor(gap)
        ));
    }
}
