//! Per-operation compute energies, anchored to published picojoule budgets.
//!
//! The paper (§2.2, "Energy-Efficient Memory Hierarchies"): *"fetching the
//! operands for a floating-point multiply-add can consume one to two orders
//! of magnitude more energy than performing the operation"* — citing
//! Keckler's MICRO 2011 keynote ("Life After Dennard and How I Learned to
//! Love the Picojoule"). This module provides the compute-side energies;
//! the memory/communication side lives in `xxi-mem::energy` and
//! `xxi-noc::link`, and experiment E4 joins them.
//!
//! Anchor values at 45 nm (from the Keckler keynote's widely reproduced
//! table, rounded):
//!
//! | operation                      | energy  |
//! |--------------------------------|---------|
//! | 32-bit integer add             | 0.5 pJ  |
//! | 64-bit FP multiply-add (FMA)   | 50 pJ   |
//! | instruction overhead (fetch/decode/schedule/RF) on an OoO core | ~500 pJ |
//!
//! Energies scale across nodes as `C·V²` via
//! [`TechNode::gate_energy_rel`].

use serde::{Deserialize, Serialize};

use crate::node::TechNode;
use xxi_core::units::Energy;

/// 45 nm anchor values in picojoules.
mod anchor45 {
    pub const INT_ADD_PJ: f64 = 0.5;
    pub const INT_MUL_PJ: f64 = 3.0;
    pub const FP_ADD_PJ: f64 = 15.0;
    pub const FP_FMA_PJ: f64 = 50.0;
    /// Per-instruction overhead of a big out-of-order core: fetch, decode,
    /// rename, schedule, register-file and bypass — everything except the
    /// functional unit.
    pub const OOO_OVERHEAD_PJ: f64 = 500.0;
    /// Per-instruction overhead of a simple in-order core.
    pub const INORDER_OVERHEAD_PJ: f64 = 60.0;
    /// Relative gate energy of the 45 nm node in the standard ladder
    /// (C·V² vs 180 nm) — used to re-anchor to other nodes.
    pub const GATE_ENERGY_REL: f64 = 0.240 * 1.0 * 1.0 / (1.8 * 1.8);
}

/// Per-operation energies on a given technology node.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct OpEnergies {
    /// 32-bit integer add.
    pub int_add: Energy,
    /// 32-bit integer multiply.
    pub int_mul: Energy,
    /// 64-bit floating-point add.
    pub fp_add: Energy,
    /// 64-bit floating-point fused multiply-add.
    pub fp_fma: Energy,
    /// Instruction-delivery overhead on an out-of-order core.
    pub ooo_overhead: Energy,
    /// Instruction-delivery overhead on a simple in-order core.
    pub inorder_overhead: Energy,
}

impl OpEnergies {
    /// Energies for `node`, scaled from the 45 nm anchors by relative
    /// `C·V²`.
    pub fn at(node: &TechNode) -> OpEnergies {
        let scale = node.gate_energy_rel() / anchor45::GATE_ENERGY_REL;
        let pj = |x: f64| Energy::from_pj(x * scale);
        OpEnergies {
            int_add: pj(anchor45::INT_ADD_PJ),
            int_mul: pj(anchor45::INT_MUL_PJ),
            fp_add: pj(anchor45::FP_ADD_PJ),
            fp_fma: pj(anchor45::FP_FMA_PJ),
            ooo_overhead: pj(anchor45::OOO_OVERHEAD_PJ),
            inorder_overhead: pj(anchor45::INORDER_OVERHEAD_PJ),
        }
    }

    /// Total energy of one FMA *instruction* on an OoO core (work +
    /// overhead) — the "general-purpose tax" that specialization strips.
    pub fn fma_instruction_ooo(&self) -> Energy {
        self.fp_fma + self.ooo_overhead
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeDb;

    #[test]
    fn anchor_reproduces_keckler_45nm() {
        let db = NodeDb::standard();
        let e = OpEnergies::at(db.by_name("45nm").unwrap());
        assert!((e.fp_fma.pj() - 50.0).abs() < 1e-9);
        assert!((e.int_add.pj() - 0.5).abs() < 1e-9);
        assert!((e.ooo_overhead.pj() - 500.0).abs() < 1e-9);
    }

    #[test]
    fn overhead_dominates_work_on_general_core() {
        // The 10× tax that motivates specialization (§2.2).
        let db = NodeDb::standard();
        let e = OpEnergies::at(db.by_name("45nm").unwrap());
        let tax = e.ooo_overhead.value() / e.fp_fma.value();
        assert!((tax - 10.0).abs() < 1e-9);
        assert!(e.fma_instruction_ooo().pj() > 500.0);
    }

    #[test]
    fn inorder_core_tax_is_much_smaller() {
        let db = NodeDb::standard();
        let e = OpEnergies::at(db.by_name("45nm").unwrap());
        let tax = e.inorder_overhead.value() / e.fp_fma.value();
        assert!(tax < 2.0, "in-order tax={tax}");
        assert!(e.inorder_overhead.value() < e.ooo_overhead.value() / 5.0);
    }

    #[test]
    fn energies_shrink_with_newer_nodes() {
        let db = NodeDb::standard();
        let e45 = OpEnergies::at(db.by_name("45nm").unwrap());
        let e7 = OpEnergies::at(db.by_name("7nm").unwrap());
        assert!(e7.fp_fma.value() < e45.fp_fma.value());
        // But less than ideal scaling would give: C·V² at 7nm vs 45nm.
        let ratio = e45.fp_fma.value() / e7.fp_fma.value();
        assert!(ratio > 2.0 && ratio < 30.0, "ratio={ratio}");
    }

    #[test]
    fn relative_order_of_op_costs() {
        let db = NodeDb::standard();
        for n in db.all() {
            let e = OpEnergies::at(n);
            assert!(e.int_add.value() < e.int_mul.value());
            assert!(e.int_mul.value() < e.fp_add.value());
            assert!(e.fp_add.value() < e.fp_fma.value());
            assert!(e.fp_fma.value() < e.ooo_overhead.value());
        }
    }
}
