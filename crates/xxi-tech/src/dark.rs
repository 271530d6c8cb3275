//! Dark silicon: the utilization wall.
//!
//! The consequence of Table 1 row 2: transistor counts double each
//! generation, but the power a package can dissipate is fixed, and
//! switching energy per gate no longer falls 2× per generation. The
//! fraction of a chip that can be active simultaneously at full frequency
//! therefore *shrinks* every generation — "dark silicon" (Esmaeilzadeh et
//! al., ISCA 2011, which the paper's agenda presupposes).
//!
//! [`DarkSilicon`] computes, for each node, the power needed to light up an
//! entire die at nominal voltage/frequency versus a fixed TDP, yielding the
//! active fraction. The paper's prescriptions — parallelism *with simpler
//! cores*, specialization, NTV — are the three levers this model lets the
//! experiments quantify (lower `f`, lower `V`, or spend transistors on
//! occasionally-used accelerators).

use serde::{Deserialize, Serialize};

use crate::node::{NodeDb, TechNode};
use xxi_core::units::Power;

/// Reference full-die power density at the first (180 nm) node, W/mm²,
/// used to anchor the absolute scale. Late-1990s desktop chips ran around
/// 0.3–0.5 W/mm².
const BASE_POWER_DENSITY_W_MM2: f64 = 0.35;

/// Dark-silicon calculator for a fixed die size and package TDP.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DarkSilicon {
    /// Die area in mm².
    pub die_mm2: f64,
    /// Package thermal design power.
    pub tdp: Power,
}

/// Active-fraction result for one node.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DarkPoint {
    /// Node name.
    pub node: &'static str,
    /// Year.
    pub year: u32,
    /// Power to switch the whole die at nominal V/f.
    pub full_power: Power,
    /// Fraction of the die that can be simultaneously active (≤1).
    pub active_fraction: f64,
    /// Dark fraction (1 − active).
    pub dark_fraction: f64,
}

impl DarkSilicon {
    /// A calculator for a `die_mm2` die with thermal budget `tdp`.
    pub fn new(die_mm2: f64, tdp: Power) -> DarkSilicon {
        assert!(die_mm2 > 0.0 && tdp.value() > 0.0);
        DarkSilicon { die_mm2, tdp }
    }

    /// Power to run the entire die at nominal voltage and frequency on
    /// `node`. Scales the anchored 180 nm power density by relative
    /// transistor density × gate energy × frequency.
    pub fn full_die_power(&self, db: &NodeDb, node: &TechNode) -> Power {
        let base = &db.all()[0];
        let density_rel = node.density_mtr_mm2 / base.density_mtr_mm2;
        let energy_rel = node.gate_energy_rel();
        let freq_rel = node.freq.value() / base.freq.value();
        let density_w_mm2 = BASE_POWER_DENSITY_W_MM2 * density_rel * energy_rel * freq_rel;
        Power(density_w_mm2 * self.die_mm2)
    }

    /// Active fraction at nominal V/f on `node`.
    pub fn active_fraction(&self, db: &NodeDb, node: &TechNode) -> f64 {
        (self.tdp.value() / self.full_die_power(db, node).value()).min(1.0)
    }

    /// Sweep the whole ladder.
    pub fn sweep(&self, db: &NodeDb) -> Vec<DarkPoint> {
        db.all()
            .iter()
            .map(|n| {
                let full_power = self.full_die_power(db, n);
                let active_fraction = self.active_fraction(db, n);
                DarkPoint {
                    node: n.name,
                    year: n.year,
                    full_power,
                    active_fraction,
                    dark_fraction: 1.0 - active_fraction,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn calc() -> (NodeDb, DarkSilicon) {
        (NodeDb::standard(), DarkSilicon::new(100.0, Power(100.0)))
    }

    #[test]
    fn early_nodes_are_fully_lit() {
        let (db, d) = calc();
        let n180 = db.by_name("180nm").unwrap();
        assert_eq!(d.active_fraction(&db, n180), 1.0);
        let n130 = db.by_name("130nm").unwrap();
        assert_eq!(d.active_fraction(&db, n130), 1.0);
    }

    #[test]
    fn late_nodes_are_mostly_dark() {
        let (db, d) = calc();
        let n7 = db.by_name("7nm").unwrap();
        let active = d.active_fraction(&db, n7);
        assert!(active < 0.5, "7nm active={active}");
        let n22 = db.by_name("22nm").unwrap();
        let a22 = d.active_fraction(&db, n22);
        assert!(a22 < 1.0, "22nm should already be power-limited: {a22}");
    }

    #[test]
    fn dark_fraction_monotonically_grows_once_limited() {
        let (db, d) = calc();
        let sweep = d.sweep(&db);
        let mut prev = 0.0;
        for p in &sweep {
            assert!(
                p.dark_fraction >= prev - 1e-12,
                "{}: {} < {prev}",
                p.node,
                p.dark_fraction
            );
            prev = p.dark_fraction;
            assert!((p.dark_fraction + p.active_fraction - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn full_die_power_grows_each_generation() {
        let (db, d) = calc();
        let mut prev = 0.0;
        for n in db.all() {
            let p = d.full_die_power(&db, n).value();
            assert!(p > prev, "{}: {p} <= {prev}", n.name);
            prev = p;
        }
    }

    #[test]
    fn bigger_tdp_means_less_dark() {
        let db = NodeDb::standard();
        let small = DarkSilicon::new(100.0, Power(65.0));
        let big = DarkSilicon::new(100.0, Power(250.0));
        let n14 = db.by_name("14nm").unwrap();
        assert!(big.active_fraction(&db, n14) > small.active_fraction(&db, n14));
    }

    #[test]
    #[should_panic]
    fn zero_area_rejected() {
        DarkSilicon::new(0.0, Power(100.0));
    }
}
