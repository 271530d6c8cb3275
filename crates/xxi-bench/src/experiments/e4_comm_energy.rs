//! E4 — Table 1 row 4 / §2.2: communication costs more than computation;
//! operand fetch is 1–2 orders of magnitude above the FP op.

use xxi_core::table::{fnum, xfactor};
use xxi_core::{Report, Table};
use xxi_mem::energy::MemEnergyTable;
use xxi_noc::link::{Link, LinkKind};
use xxi_tech::ops::OpEnergies;
use xxi_tech::NodeDb;

use super::{Experiment, RunCtx};

pub struct E4CommEnergy;

impl Experiment for E4CommEnergy {
    fn id(&self) -> &'static str {
        "e4"
    }

    fn title(&self) -> &'static str {
        "The energy ladder: operand fetch vs the FP op itself"
    }

    fn paper_claim(&self) -> &'static str {
        "Table 1 row 4: 'communication more expensive than computation'"
    }

    fn fill(&self, _ctx: &RunCtx, r: &mut Report) {
        let db = NodeDb::standard();

        r.section("The energy ladder per 64-bit access (pJ), across nodes");
        let mut t = Table::new(&[
            "node",
            "FMA",
            "RF",
            "L1",
            "L2",
            "L3",
            "10mm wire",
            "chip-to-chip",
            "DRAM",
        ]);
        for name in ["90nm", "45nm", "22nm", "14nm", "7nm"] {
            let node = db.by_name(name).unwrap(); // xxi-allow: panic-path -- ladder name is a fixed constant
            let e = MemEnergyTable::at(node);
            let ops = OpEnergies::at(node);
            t.row(&[
                name.to_string(),
                fnum(ops.fp_fma.pj()),
                fnum(e.rf.pj()),
                fnum(e.l1.pj()),
                fnum(e.l2.pj()),
                fnum(e.l3.pj()),
                fnum(e.wire_10mm.pj()),
                fnum(e.chip_to_chip.pj()),
                fnum(e.dram.pj()),
            ]);
        }
        r.table(t);

        r.section("Operand fetch vs the operation itself (the §2.2 claim)");
        let mut t = Table::new(&["node", "DRAM/FMA ratio", "3-operand L2 traffic vs FMA"]);
        for node in db.all() {
            let e = MemEnergyTable::at(node);
            let ops = OpEnergies::at(node);
            t.row(&[
                node.name.to_string(),
                xfactor(e.dram_to_fma_ratio(&ops)),
                xfactor(e.l2_operand_traffic().value() / ops.fp_fma.value()),
            ]);
        }
        r.table(t);

        r.section("Link technologies at 22nm (per bit)");
        let node = db.by_name("22nm").unwrap(); // xxi-allow: panic-path -- ladder name is a fixed constant
        let mut t = Table::new(&["link", "pJ/bit", "standing power (mW)"]);
        for (name, kind) in [
            ("on-chip 1mm", LinkKind::Electrical { mm: 1.0 }),
            ("on-chip 10mm", LinkKind::Electrical { mm: 10.0 }),
            ("TSV (3D)", LinkKind::Tsv),
            ("photonic", LinkKind::Photonic),
            ("off-chip SerDes", LinkKind::OffChip),
        ] {
            let l = Link::on(node, kind);
            t.row(&[
                name.to_string(),
                fnum(l.energy_per_bit.pj()),
                fnum(l.standing_power.mw()),
            ]);
        }
        r.table(t);

        let node45 = db.by_name("45nm").unwrap(); // xxi-allow: panic-path -- ladder name is a fixed constant
        r.finding(
            "dram_to_fma_45nm",
            MemEnergyTable::at(node45).dram_to_fma_ratio(&OpEnergies::at(node45)),
            "x",
        );
        r.text(
            "\nHeadline: at 45nm a DRAM operand fetch costs ~240x the FMA; the ratio\n\
             grows every node because logic scales (C*V^2) while wires and interfaces\n\
             barely do — the quantitative root of 'energy first'.",
        );
    }
}
