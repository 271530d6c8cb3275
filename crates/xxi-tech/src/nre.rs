//! Non-recurring engineering (NRE) cost data — Table 1 row 5.
//!
//! *"One-time costs to design, verify, fabricate, and test are growing,
//! making them harder to amortize, especially when seeking high efficiency
//! through platform specialization."*
//!
//! Per-node mask and design costs live on [`crate::node::TechNode`]; this
//! module adds the structure around them: an NRE breakdown per
//! implementation style (full-custom ASIC, FPGA, software on a commodity
//! CPU) and per-unit recurring costs, which `xxi-accel::nre` combines into
//! amortization curves and breakeven volumes (experiment E5).

use crate::node::TechNode;

/// How a function is implemented, for costing purposes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ImplStyle {
    /// Full-custom / standard-cell ASIC: pays masks + full design +
    /// verification, cheapest and most efficient per unit.
    Asic,
    /// FPGA: no masks, modest design cost, expensive and less efficient
    /// per unit.
    Fpga,
    /// Software on a commodity CPU: near-zero NRE, highest energy per op.
    CpuSoftware,
}

/// One-time and per-unit costs for implementing a function.
#[derive(Clone, Copy, Debug)]
pub struct CostModel {
    /// One-time cost in millions of USD.
    pub nre_musd: f64,
    /// Recurring cost per unit in USD.
    pub unit_usd: f64,
}

impl CostModel {
    /// Cost per part at a production `volume`.
    pub fn cost_per_part(&self, volume: u64) -> f64 {
        assert!(volume > 0);
        self.nre_musd * 1e6 / volume as f64 + self.unit_usd
    }
}

/// NRE/unit cost for implementing an accelerator-class block on `node`
/// in the given style.
///
/// Calibration: ASIC NRE = masks + 40% of a full-chip design effort
/// (an accelerator is a block, not a whole SoC); FPGA NRE is a small,
/// node-independent engineering effort but units cost 30× the ASIC part;
/// CPU software has trivial NRE and uses an existing commodity part.
pub fn cost_model(node: &TechNode, style: ImplStyle) -> CostModel {
    match style {
        ImplStyle::Asic => CostModel {
            nre_musd: node.mask_cost_musd + 0.4 * node.design_cost_musd,
            unit_usd: 5.0,
        },
        ImplStyle::Fpga => CostModel {
            nre_musd: 1.0,
            unit_usd: 150.0,
        },
        // The software "unit" is the commodity server hardware needed to
        // match one accelerator's throughput — an order of magnitude more
        // silicon than the FPGA part, bought at commodity prices.
        ImplStyle::CpuSoftware => CostModel {
            nre_musd: 0.1,
            unit_usd: 500.0,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeDb;

    #[test]
    fn cost_per_part_amortizes() {
        let cm = CostModel {
            nre_musd: 10.0,
            unit_usd: 5.0,
        };
        assert!((cm.cost_per_part(1_000_000) - 15.0).abs() < 1e-9);
        assert!((cm.cost_per_part(10_000_000) - 6.0).abs() < 1e-9);
        assert!(cm.cost_per_part(1000) > 10_000.0);
    }

    #[test]
    fn asic_nre_grows_sharply_with_node() {
        let db = NodeDb::standard();
        let old = cost_model(db.by_name("180nm").unwrap(), ImplStyle::Asic);
        let new = cost_model(db.by_name("7nm").unwrap(), ImplStyle::Asic);
        assert!(new.nre_musd / old.nre_musd > 50.0);
    }

    #[test]
    fn fpga_and_cpu_nre_are_node_insensitive() {
        let db = NodeDb::standard();
        for style in [ImplStyle::Fpga, ImplStyle::CpuSoftware] {
            let a = cost_model(db.by_name("180nm").unwrap(), style);
            let b = cost_model(db.by_name("7nm").unwrap(), style);
            assert_eq!(a.nre_musd, b.nre_musd);
        }
    }

    #[test]
    fn style_ordering_at_extremes_of_volume() {
        // At tiny volume, CPU software is cheapest per part; at huge
        // volume, the ASIC wins.
        let db = NodeDb::standard();
        let node = db.by_name("22nm").unwrap();
        let asic = cost_model(node, ImplStyle::Asic);
        let fpga = cost_model(node, ImplStyle::Fpga);
        let cpu = cost_model(node, ImplStyle::CpuSoftware);
        let low = 1_000u64;
        let high = 100_000_000u64;
        assert!(cpu.cost_per_part(low) < fpga.cost_per_part(low));
        assert!(fpga.cost_per_part(low) < asic.cost_per_part(low));
        assert!(asic.cost_per_part(high) < cpu.cost_per_part(high));
        assert!(asic.cost_per_part(high) < fpga.cost_per_part(high));
    }

    #[test]
    #[should_panic]
    fn zero_volume_rejected() {
        CostModel {
            nre_musd: 1.0,
            unit_usd: 1.0,
        }
        .cost_per_part(0);
    }
}
