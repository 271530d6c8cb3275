//! The memory-access energy ladder per technology node — experiment E4.
//!
//! Table 1 row 4 and §2.2 assert that *"communication \[is\] more expensive
//! than computation"* and that operand fetch costs *"one to two orders of
//! magnitude more energy than performing the operation"*. This module
//! encodes the ladder that substantiates those claims, anchored at 45 nm
//! to the widely reproduced Keckler/Horowitz picojoule budgets:
//!
//! | access (64 B line / 64 b word as noted) | 45 nm energy |
//! |---|---|
//! | register file, 64 b                     | 1.5 pJ  |
//! | L1 (32 KiB), 64 b                       | 20 pJ   |
//! | L2 (256 KiB), 64 b                      | 80 pJ   |
//! | L3 (8 MiB slice), 64 b                  | 250 pJ  |
//! | on-chip wire, 64 b across 10 mm         | 160 pJ  |
//! | off-chip DRAM, 64 b incl. interface     | 12 nJ   |
//! | chip-to-chip link, 64 b                 | 1.3 nJ  |
//!
//! SRAM energies scale with logic (`C·V²`); DRAM and off-chip interfaces
//! scale much more slowly (they are dominated by wire capacitance and I/O
//! voltage swings, not transistors) — we model them with the square root of
//! the logic scaling factor, which captures the paper's point: **the
//! compute-to-memory energy gap widens every generation**.

use xxi_core::units::Energy;
use xxi_tech::node::TechNode;
use xxi_tech::ops::OpEnergies;

/// 45 nm anchor values, picojoules per 64-bit access.
mod anchor45 {
    pub const RF_PJ: f64 = 1.5;
    pub const L1_PJ: f64 = 20.0;
    pub const L2_PJ: f64 = 80.0;
    pub const L3_PJ: f64 = 250.0;
    pub const WIRE_10MM_PJ: f64 = 160.0;
    pub const DRAM_PJ: f64 = 12_000.0;
    pub const CHIP_TO_CHIP_PJ: f64 = 1_300.0;
    /// gate_energy_rel of the 45nm node in the standard ladder.
    pub const GATE_ENERGY_REL: f64 = 0.240 / (1.8 * 1.8);
}

/// Per-64-bit-access energies on one node.
#[derive(Clone, Debug)]
pub struct MemEnergyTable {
    /// Register-file read.
    pub rf: Energy,
    /// L1 cache access.
    pub l1: Energy,
    /// L2 cache access.
    pub l2: Energy,
    /// L3 cache access.
    pub l3: Energy,
    /// Driving 64 bits across 10 mm of on-chip wire.
    pub wire_10mm: Energy,
    /// Off-chip DRAM access including interface.
    pub dram: Energy,
    /// Chip-to-chip (in-package) transfer.
    pub chip_to_chip: Energy,
}

impl MemEnergyTable {
    /// The ladder on `node`.
    pub fn at(node: &TechNode) -> MemEnergyTable {
        let logic_scale = node.gate_energy_rel() / anchor45::GATE_ENERGY_REL;
        // Interfaces/wires improve with the square root of logic scaling.
        let wire_scale = logic_scale.sqrt();
        MemEnergyTable {
            rf: Energy::from_pj(anchor45::RF_PJ * logic_scale),
            l1: Energy::from_pj(anchor45::L1_PJ * logic_scale),
            l2: Energy::from_pj(anchor45::L2_PJ * logic_scale),
            l3: Energy::from_pj(anchor45::L3_PJ * logic_scale),
            wire_10mm: Energy::from_pj(anchor45::WIRE_10MM_PJ * wire_scale),
            dram: Energy::from_pj(anchor45::DRAM_PJ * wire_scale),
            chip_to_chip: Energy::from_pj(anchor45::CHIP_TO_CHIP_PJ * wire_scale),
        }
    }

    /// The ratio DRAM-access : FMA-operation on this node — the paper's
    /// "one to two orders of magnitude" claim (and growing).
    pub fn dram_to_fma_ratio(&self, ops: &OpEnergies) -> f64 {
        self.dram.value() / ops.fp_fma.value()
    }

    /// Energy to fetch two 64-bit operands from L2 and write one result
    /// back (3 accesses).
    pub fn l2_operand_traffic(&self) -> Energy {
        self.l2 * 3.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xxi_tech::node::NodeDb;

    #[test]
    fn anchor_values_at_45nm() {
        let db = NodeDb::standard();
        let t = MemEnergyTable::at(db.by_name("45nm").unwrap());
        assert!((t.rf.pj() - 1.5).abs() < 1e-9);
        assert!((t.l1.pj() - 20.0).abs() < 1e-9);
        assert!((t.dram.nj() - 12.0).abs() < 1e-9);
    }

    #[test]
    fn ladder_is_strictly_increasing() {
        let db = NodeDb::standard();
        for node in db.all() {
            let t = MemEnergyTable::at(node);
            assert!(t.rf.value() < t.l1.value());
            assert!(t.l1.value() < t.l2.value());
            assert!(t.l2.value() < t.l3.value());
            assert!(t.l3.value() < t.chip_to_chip.value());
            assert!(t.chip_to_chip.value() < t.dram.value());
        }
    }

    #[test]
    fn operand_fetch_dwarfs_compute_45nm() {
        // §2.2: operand fetch 1-2 orders of magnitude above the FP op.
        let db = NodeDb::standard();
        let node = db.by_name("45nm").unwrap();
        let t = MemEnergyTable::at(node);
        let ops = OpEnergies::at(node);
        let ratio = t.dram_to_fma_ratio(&ops);
        assert!((100.0..1000.0).contains(&ratio), "DRAM/FMA ratio = {ratio}");
        // Even an L2 operand fetch (3 accesses) exceeds the FMA itself.
        assert!(t.l2_operand_traffic().value() > ops.fp_fma.value());
    }

    #[test]
    fn gap_widens_with_scaling() {
        // Logic energy falls faster than interface energy ⇒ the DRAM/FMA
        // ratio grows monotonically across nodes — the trend that makes
        // "communication more expensive than computation" (Table 1 row 4).
        let db = NodeDb::standard();
        let mut prev = 0.0;
        for node in db.all() {
            let ratio = MemEnergyTable::at(node).dram_to_fma_ratio(&OpEnergies::at(node));
            assert!(ratio > prev, "{}: {ratio} <= {prev}", node.name);
            prev = ratio;
        }
    }

    #[test]
    fn all_energies_physical() {
        let db = NodeDb::standard();
        for node in db.all() {
            let t = MemEnergyTable::at(node);
            for e in [t.rf, t.l1, t.l2, t.l3, t.wire_10mm, t.dram, t.chip_to_chip] {
                assert!(e.is_physical() && e.value() > 0.0);
            }
        }
    }

    #[test]
    fn operand_traffic_is_three_accesses() {
        let db = NodeDb::standard();
        let t = MemEnergyTable::at(db.by_name("45nm").unwrap());
        assert!((t.l2_operand_traffic().value() - t.l2.value() * 3.0).abs() < 1e-18);
    }
}
