//! Core models under Pollack's rule.
//!
//! Pollack's rule — single-thread performance grows roughly with the
//! square root of core area (equivalently, of transistor budget) — is the
//! empirical regularity that makes the paper's "massive on-chip parallelism
//! with simpler, low-power cores" (§2.2) a *quantitative* argument rather
//! than a slogan: four small cores deliver ~4× the throughput of one
//! 4×-area big core, which delivers only ~2× the single-thread performance.

use serde::Serialize;

use xxi_core::units::{Area, Power};
use xxi_tech::node::TechNode;

/// Core microarchitecture class.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum CoreKind {
    /// A small in-order scalar core (area unit 1).
    InOrderSmall,
    /// A mid-size out-of-order core (~4 area units).
    OoOMedium,
    /// An aggressive wide out-of-order core (~16 area units).
    OoOBig,
}

impl CoreKind {
    /// Core area in "base core equivalents" (BCE, the Hill–Marty unit).
    pub fn bce(self) -> f64 {
        match self {
            CoreKind::InOrderSmall => 1.0,
            CoreKind::OoOMedium => 4.0,
            CoreKind::OoOBig => 16.0,
        }
    }

    /// Relative single-thread performance under Pollack's rule (√area).
    pub fn perf(self) -> f64 {
        self.bce().sqrt()
    }
}

/// A core instantiated on a technology node.
#[derive(Clone, Debug, Serialize)]
pub struct CoreModel {
    /// Microarchitecture class.
    pub kind: CoreKind,
    /// Technology node.
    pub node: TechNode,
    /// Physical area of a base (1-BCE) core on this node, mm².
    pub bce_area: Area,
    /// Nominal power of a base core at this node's nominal V/f.
    pub bce_power: Power,
}

impl CoreModel {
    /// Instantiate `kind` on `node`.
    ///
    /// Calibration: a 1-BCE in-order core is ~2 mm² and ~1.0 W at 45 nm
    /// (0.5 W/mm², mid-range for the era),
    /// scaling area with density and power with `C·V²·f`.
    pub fn new(kind: CoreKind, node: TechNode) -> CoreModel {
        let density_rel = node.density_mtr_mm2 / 8.0; // vs 45 nm
        let area_mm2 = 2.0 / density_rel;
        let e_rel = node.gate_energy_rel() / (0.240 / (1.8 * 1.8));
        let f_rel = node.freq.value() / 3.4e9;
        let power = 1.0 * e_rel * f_rel;
        CoreModel {
            kind,
            node,
            bce_area: Area(area_mm2),
            bce_power: Power(power),
        }
    }

    /// Die area of this core.
    pub fn area(&self) -> Area {
        self.bce_area * self.kind.bce()
    }

    /// Nominal power of this core. Power grows with area (more switching
    /// capacitance), not with √area — which is exactly why big cores lose
    /// on efficiency.
    pub fn power(&self) -> Power {
        self.bce_power * self.kind.bce()
    }

    /// Relative single-thread performance (Pollack).
    pub fn perf(&self) -> f64 {
        self.kind.perf()
    }

    /// Throughput in relative-performance units per watt — small cores win.
    // xxi-allow: model-reach -- checked by xxi-check lint (model-constructors)
    pub fn perf_per_watt(&self) -> f64 {
        self.perf() / self.power().value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xxi_tech::node::NodeDb;

    fn node(name: &str) -> TechNode {
        NodeDb::standard().by_name(name).unwrap().clone()
    }

    #[test]
    fn pollack_perf_is_sqrt_area() {
        assert_eq!(CoreKind::InOrderSmall.perf(), 1.0);
        assert_eq!(CoreKind::OoOMedium.perf(), 2.0);
        assert_eq!(CoreKind::OoOBig.perf(), 4.0);
    }

    #[test]
    fn small_cores_win_throughput_per_area_and_watt() {
        let n = node("45nm");
        let small = CoreModel::new(CoreKind::InOrderSmall, n.clone());
        let big = CoreModel::new(CoreKind::OoOBig, n);
        // 16 small cores in the big core's area deliver 16 perf vs 4.
        let small_throughput_per_area = small.perf() / small.area().value();
        let big_throughput_per_area = big.perf() / big.area().value();
        assert!((small_throughput_per_area / big_throughput_per_area - 4.0).abs() < 1e-9);
        assert!(small.perf_per_watt() > 3.0 * big.perf_per_watt());
    }

    #[test]
    fn big_cores_win_single_thread() {
        let n = node("45nm");
        let small = CoreModel::new(CoreKind::InOrderSmall, n.clone());
        let big = CoreModel::new(CoreKind::OoOBig, n);
        assert!(big.perf() > small.perf());
    }

    #[test]
    fn area_shrinks_with_density() {
        let c45 = CoreModel::new(CoreKind::OoOMedium, node("45nm"));
        let c22 = CoreModel::new(CoreKind::OoOMedium, node("22nm"));
        assert!((c45.area().value() / c22.area().value() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn calibration_anchor_45nm() {
        let c = CoreModel::new(CoreKind::InOrderSmall, node("45nm"));
        assert!((c.area().value() - 2.0).abs() < 1e-9);
        assert!((c.power().value() - 1.0).abs() < 1e-9);
    }
}
