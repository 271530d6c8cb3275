//! Calibrated CMOS technology-node database.
//!
//! One [`TechNode`] per lithography generation from 180 nm (1999) to 7 nm
//! (2019). Values are *stylized but calibrated*: they reproduce the shapes
//! that the white paper's Table 1 asserts (2× density per generation
//! throughout; supply voltage scaling with feature size during the Dennard
//! era and then nearly flat; frequency rising steeply until ~90 nm and then
//! plateauing; leakage growing from a rounding error to a third of total
//! power; mask-set costs growing super-linearly).
//!
//! Absolute values are within the ranges reported by ITRS editions and the
//! CPU DB (Danowitz et al., CACM 2012), which is what the reproduction
//! targets need — the experiments compare *trends across nodes*, not
//! individual chips.

use serde::Serialize;

use xxi_core::units::{Frequency, Volts};
use xxi_core::{Result, XxiError};

/// One CMOS technology generation.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct TechNode {
    /// Human name, e.g. `"45nm"`.
    pub name: &'static str,
    /// Drawn feature size in nanometres.
    pub feature_nm: f64,
    /// Approximate year of volume production.
    pub year: u32,
    /// Nominal supply voltage.
    pub vdd: Volts,
    /// Threshold voltage.
    pub vth: Volts,
    /// Transistor density in millions of transistors per mm².
    pub density_mtr_mm2: f64,
    /// Switched capacitance per gate, relative to the 180 nm node.
    pub cap_rel: f64,
    /// Nominal (shipping-product) clock frequency.
    pub freq: Frequency,
    /// Fraction of total chip power lost to leakage at nominal V/T.
    pub leakage_frac: f64,
    /// Soft-error rate in FIT per megabit of unprotected SRAM at nominal
    /// voltage (1 FIT = 1 failure per 10⁹ device-hours).
    pub ser_fit_per_mbit: f64,
    /// Mask-set cost in millions of USD.
    pub mask_cost_musd: f64,
    /// Typical full-chip design + verification cost in millions of USD.
    pub design_cost_musd: f64,
}

impl TechNode {
    /// `true` if this node predates the end of Dennard scaling (~90 nm /
    /// 2004-2005, when voltage scaling stalled).
    // xxi-allow: model-reach -- checked by xxi-check lint (tech-node-sanity)
    pub fn is_dennard_era(&self) -> bool {
        self.feature_nm > 90.0
    }

    /// Energy of switching one gate once, relative to 180 nm:
    /// `E ∝ C·V²`.
    pub fn gate_energy_rel(&self) -> f64 {
        self.cap_rel * self.vdd.value() * self.vdd.value() / (1.8 * 1.8)
    }

    /// Transistors on a die of `area_mm2`.
    pub fn transistors(&self, area_mm2: f64) -> f64 {
        self.density_mtr_mm2 * 1e6 * area_mm2
    }
}

/// The standard node ladder.
#[derive(Clone, Debug)]
pub struct NodeDb {
    nodes: Vec<TechNode>,
}

impl NodeDb {
    /// The calibrated 180 nm → 7 nm ladder described in the module docs.
    pub fn standard() -> NodeDb {
        let nodes = vec![
            TechNode {
                name: "180nm",
                feature_nm: 180.0,
                year: 1999,
                vdd: Volts(1.8),
                vth: Volts(0.45),
                density_mtr_mm2: 0.5,
                cap_rel: 1.0,
                freq: Frequency::from_ghz(0.8),
                leakage_frac: 0.02,
                ser_fit_per_mbit: 1000.0,
                mask_cost_musd: 0.5,
                design_cost_musd: 10.0,
            },
            TechNode {
                name: "130nm",
                feature_nm: 130.0,
                year: 2001,
                vdd: Volts(1.5),
                vth: Volts(0.40),
                density_mtr_mm2: 1.0,
                cap_rel: 0.70,
                freq: Frequency::from_ghz(1.6),
                leakage_frac: 0.04,
                ser_fit_per_mbit: 1050.0,
                mask_cost_musd: 1.0,
                design_cost_musd: 15.0,
            },
            TechNode {
                name: "90nm",
                feature_nm: 90.0,
                year: 2004,
                vdd: Volts(1.2),
                vth: Volts(0.35),
                density_mtr_mm2: 2.0,
                cap_rel: 0.49,
                freq: Frequency::from_ghz(3.0),
                leakage_frac: 0.10,
                ser_fit_per_mbit: 1100.0,
                mask_cost_musd: 2.0,
                design_cost_musd: 25.0,
            },
            TechNode {
                name: "65nm",
                feature_nm: 65.0,
                year: 2006,
                vdd: Volts(1.1),
                vth: Volts(0.33),
                density_mtr_mm2: 4.0,
                cap_rel: 0.343,
                freq: Frequency::from_ghz(3.2),
                leakage_frac: 0.15,
                ser_fit_per_mbit: 1150.0,
                mask_cost_musd: 3.0,
                design_cost_musd: 40.0,
            },
            TechNode {
                name: "45nm",
                feature_nm: 45.0,
                year: 2008,
                vdd: Volts(1.0),
                vth: Volts(0.32),
                density_mtr_mm2: 8.0,
                cap_rel: 0.240,
                freq: Frequency::from_ghz(3.4),
                leakage_frac: 0.20,
                ser_fit_per_mbit: 1200.0,
                mask_cost_musd: 5.0,
                design_cost_musd: 60.0,
            },
            TechNode {
                name: "32nm",
                feature_nm: 32.0,
                year: 2010,
                vdd: Volts(0.95),
                vth: Volts(0.31),
                density_mtr_mm2: 16.0,
                cap_rel: 0.168,
                freq: Frequency::from_ghz(3.6),
                leakage_frac: 0.25,
                ser_fit_per_mbit: 1250.0,
                mask_cost_musd: 8.0,
                design_cost_musd: 90.0,
            },
            TechNode {
                name: "22nm",
                feature_nm: 22.0,
                year: 2012,
                vdd: Volts(0.90),
                vth: Volts(0.30),
                density_mtr_mm2: 32.0,
                cap_rel: 0.118,
                freq: Frequency::from_ghz(3.7),
                leakage_frac: 0.28,
                ser_fit_per_mbit: 1300.0,
                mask_cost_musd: 12.0,
                design_cost_musd: 150.0,
            },
            TechNode {
                name: "14nm",
                feature_nm: 14.0,
                year: 2014,
                vdd: Volts(0.80),
                vth: Volts(0.30),
                density_mtr_mm2: 64.0,
                cap_rel: 0.082,
                freq: Frequency::from_ghz(3.8),
                leakage_frac: 0.30,
                ser_fit_per_mbit: 1400.0,
                mask_cost_musd: 20.0,
                design_cost_musd: 250.0,
            },
            TechNode {
                name: "10nm",
                feature_nm: 10.0,
                year: 2017,
                vdd: Volts(0.75),
                vth: Volts(0.29),
                density_mtr_mm2: 128.0,
                cap_rel: 0.058,
                freq: Frequency::from_ghz(3.9),
                leakage_frac: 0.32,
                ser_fit_per_mbit: 1500.0,
                mask_cost_musd: 35.0,
                design_cost_musd: 400.0,
            },
            TechNode {
                name: "7nm",
                feature_nm: 7.0,
                year: 2019,
                vdd: Volts(0.70),
                vth: Volts(0.28),
                density_mtr_mm2: 256.0,
                cap_rel: 0.040,
                freq: Frequency::from_ghz(4.0),
                leakage_frac: 0.35,
                ser_fit_per_mbit: 1650.0,
                mask_cost_musd: 60.0,
                design_cost_musd: 650.0,
            },
        ];
        NodeDb { nodes }
    }

    /// All nodes, oldest first.
    pub fn all(&self) -> &[TechNode] {
        &self.nodes
    }

    /// Look up by name (`"45nm"`).
    pub fn by_name(&self, name: &str) -> Result<&TechNode> {
        self.nodes
            .iter()
            .find(|n| n.name == name)
            .ok_or_else(|| XxiError::not_found(format!("technology node {name}")))
    }

    /// Look up by feature size in nanometres.
    // xxi-allow: model-reach -- checked by xxi-check lint (tech-node-sanity)
    pub fn by_feature(&self, nm: f64) -> Result<&TechNode> {
        self.nodes
            .iter()
            .find(|n| (n.feature_nm - nm).abs() < 0.5)
            .ok_or_else(|| XxiError::not_found(format!("technology node {nm}nm")))
    }

    /// Number of generations.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Always false for the standard ladder.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

impl Default for NodeDb {
    fn default() -> Self {
        NodeDb::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_has_ten_generations_in_order() {
        let db = NodeDb::standard();
        assert_eq!(db.len(), 10);
        for w in db.all().windows(2) {
            assert!(w[0].feature_nm > w[1].feature_nm);
            assert!(w[0].year < w[1].year);
        }
    }

    #[test]
    fn moores_law_density_doubles_every_generation() {
        // Table 1 row 1: "Transistor count still 2× every 18-24 months".
        let db = NodeDb::standard();
        for w in db.all().windows(2) {
            let ratio = w[1].density_mtr_mm2 / w[0].density_mtr_mm2;
            assert!((ratio - 2.0).abs() < 1e-9, "{}→{}", w[0].name, w[1].name);
        }
    }

    #[test]
    fn dennard_era_classification() {
        let db = NodeDb::standard();
        assert!(db.by_name("180nm").unwrap().is_dennard_era());
        assert!(db.by_name("130nm").unwrap().is_dennard_era());
        assert!(!db.by_name("90nm").unwrap().is_dennard_era());
        assert!(!db.by_name("7nm").unwrap().is_dennard_era());
    }

    #[test]
    fn voltage_scaling_stalls_post_dennard() {
        // Dennard era: Vdd drops ~0.3 V per generation. Post: ≤0.1 V.
        let db = NodeDb::standard();
        let v180 = db.by_name("180nm").unwrap().vdd.value();
        let v90 = db.by_name("90nm").unwrap().vdd.value();
        let v7 = db.by_name("7nm").unwrap().vdd.value();
        // Big early drop (0.6 V over two generations)…
        assert!(v180 - v90 >= 0.5);
        // …then only 0.5 V over the next seven generations.
        assert!(v90 - v7 <= 0.55);
    }

    #[test]
    fn frequency_plateaus_after_90nm() {
        let db = NodeDb::standard();
        let f90 = db.by_name("90nm").unwrap().freq.ghz();
        let f7 = db.by_name("7nm").unwrap().freq.ghz();
        let f180 = db.by_name("180nm").unwrap().freq.ghz();
        assert!(f90 / f180 > 3.0, "Dennard-era frequency scaling was steep");
        assert!(f7 / f90 < 1.5, "post-Dennard frequency nearly flat");
    }

    #[test]
    fn leakage_grows_to_dominate() {
        let db = NodeDb::standard();
        assert!(db.by_name("180nm").unwrap().leakage_frac <= 0.05);
        assert!(db.by_name("7nm").unwrap().leakage_frac >= 0.30);
        for w in db.all().windows(2) {
            assert!(w[1].leakage_frac >= w[0].leakage_frac);
        }
    }

    #[test]
    fn gate_energy_falls_every_generation() {
        let db = NodeDb::standard();
        for w in db.all().windows(2) {
            assert!(
                w[1].gate_energy_rel() < w[0].gate_energy_rel(),
                "{}→{}",
                w[0].name,
                w[1].name
            );
        }
        // 180nm is by definition 1.0.
        assert!((db.all()[0].gate_energy_rel() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn nre_costs_grow_superlinearly() {
        // Table 1 row 5.
        let db = NodeDb::standard();
        for w in db.all().windows(2) {
            assert!(w[1].mask_cost_musd > w[0].mask_cost_musd);
            assert!(w[1].design_cost_musd > w[0].design_cost_musd);
        }
        let first = &db.all()[0];
        let last = &db.all()[db.len() - 1];
        assert!(last.mask_cost_musd / first.mask_cost_musd > 100.0);
    }

    #[test]
    fn lookup_by_name_and_feature() {
        let db = NodeDb::standard();
        assert_eq!(db.by_name("45nm").unwrap().year, 2008);
        assert_eq!(db.by_feature(22.0).unwrap().name, "22nm");
        assert!(db.by_name("3nm").is_err());
        assert!(db.by_feature(5.0).is_err());
    }

    #[test]
    fn transistor_count_for_typical_die() {
        let db = NodeDb::standard();
        // A 100 mm² die at 22 nm: 3.2 B transistors — the right order for
        // 2012-era chips.
        let t = db.by_name("22nm").unwrap().transistors(100.0);
        assert!((t - 3.2e9).abs() < 1e6);
    }
}
