//! Power-constrained chip composition.
//!
//! Given a technology node, die area, and TDP, how many cores of which kind
//! fit — physically *and* thermally? On late nodes the thermal bound binds
//! first (dark silicon), which is the quantitative engine behind the
//! paper's pivot to "simpler, low-power cores" and specialization.

use crate::core::{CoreKind, CoreModel};
use crate::hillmarty;
use xxi_core::units::{Area, Power};
use xxi_core::{Result, XxiError};
use xxi_tech::node::TechNode;

/// Chip design parameters.
#[derive(Clone, Debug)]
pub struct ChipConfig {
    /// Technology node.
    pub node: TechNode,
    /// Die area.
    pub die: Area,
    /// Fraction of the die reserved for uncore (caches, NoC, I/O).
    pub uncore_frac: f64,
    /// Package thermal budget.
    pub tdp: Power,
    /// Core microarchitecture.
    pub core_kind: CoreKind,
}

impl ChipConfig {
    /// A desktop-class config: 200 mm², 30% uncore, 95 W.
    pub fn desktop(node: TechNode, core_kind: CoreKind) -> ChipConfig {
        ChipConfig {
            node,
            die: Area(200.0),
            uncore_frac: 0.3,
            tdp: Power(95.0),
            core_kind,
        }
    }
}

/// A composed chip.
#[derive(Clone, Debug)]
pub struct Chip {
    /// The design parameters.
    pub cfg: ChipConfig,
    /// The per-core model.
    pub core: CoreModel,
    /// Cores that fit on the die (area bound).
    pub cores_fit: u64,
    /// Cores that can run simultaneously at nominal V/f (power bound).
    pub cores_powered: u64,
}

impl Chip {
    /// Compose a chip; errors if not even one core fits.
    pub fn compose(cfg: ChipConfig) -> Result<Chip> {
        if !(0.0..1.0).contains(&cfg.uncore_frac) {
            return Err(XxiError::config("uncore fraction must be in [0,1)"));
        }
        let core = CoreModel::new(cfg.core_kind, cfg.node.clone());
        let core_area = core.area().value();
        let avail = cfg.die.value() * (1.0 - cfg.uncore_frac);
        let cores_fit = (avail / core_area).floor() as u64;
        if cores_fit == 0 {
            return Err(XxiError::config("die too small for a single core"));
        }
        // Reserve 20% of TDP for uncore power.
        let core_budget = cfg.tdp.value() * 0.8;
        let cores_powered = ((core_budget / core.power().value()).floor() as u64)
            .min(cores_fit)
            .max(1);
        Ok(Chip {
            cfg,
            core,
            cores_fit,
            cores_powered,
        })
    }

    /// Dark fraction: cores that exist but cannot be powered.
    pub fn dark_fraction(&self) -> f64 {
        1.0 - self.cores_powered as f64 / self.cores_fit as f64
    }

    /// Aggregate throughput (relative-perf units) with all powered cores
    /// busy.
    pub fn throughput(&self) -> f64 {
        self.cores_powered as f64 * self.core.perf()
    }

    /// Hill–Marty speedup of this chip on a workload with parallel
    /// fraction `f`, relative to one base core, accounting for the power
    /// limit.
    pub fn speedup(&self, f: f64) -> f64 {
        let r = self.core.kind.bce();
        let n = self.cores_fit as f64 * r; // total BCEs on die
        let active = self.cores_powered as f64 / self.cores_fit as f64;
        hillmarty::speedup_symmetric_power_limited(f, n, r, active)
    }

    /// Chip power with all powered cores at nominal V/f plus the uncore
    /// reserve.
    pub fn power(&self) -> Power {
        Power(self.cores_powered as f64 * self.core.power().value() + self.cfg.tdp.value() * 0.2)
    }

    /// Throughput per watt.
    pub fn efficiency(&self) -> f64 {
        self.throughput() / self.power().value()
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
    fn early_node_is_area_bound_late_node_power_bound() {
        let old = Chip::compose(ChipConfig::desktop(node("90nm"), CoreKind::OoOBig)).unwrap();
        assert_eq!(old.cores_fit, old.cores_powered, "90nm: no dark silicon");
        let new = Chip::compose(ChipConfig::desktop(node("7nm"), CoreKind::OoOBig)).unwrap();
        assert!(
            new.cores_powered < new.cores_fit,
            "7nm must be power bound: fit={} powered={}",
            new.cores_fit,
            new.cores_powered
        );
        assert!(new.dark_fraction() > 0.2, "dark={}", new.dark_fraction());
    }

    #[test]
    fn small_cores_give_more_throughput_per_chip() {
        let small =
            Chip::compose(ChipConfig::desktop(node("22nm"), CoreKind::InOrderSmall)).unwrap();
        let big = Chip::compose(ChipConfig::desktop(node("22nm"), CoreKind::OoOBig)).unwrap();
        assert!(small.throughput() > big.throughput());
        assert!(small.efficiency() > big.efficiency());
    }

    #[test]
    fn big_cores_win_at_low_parallelism() {
        let small =
            Chip::compose(ChipConfig::desktop(node("22nm"), CoreKind::InOrderSmall)).unwrap();
        let big = Chip::compose(ChipConfig::desktop(node("22nm"), CoreKind::OoOBig)).unwrap();
        assert!(
            big.speedup(0.3) > small.speedup(0.3),
            "big={} small={}",
            big.speedup(0.3),
            small.speedup(0.3)
        );
        assert!(small.speedup(0.999) > big.speedup(0.999));
    }

    #[test]
    fn core_counts_scale_across_nodes() {
        let c45 = Chip::compose(ChipConfig::desktop(node("45nm"), CoreKind::OoOMedium)).unwrap();
        let c14 = Chip::compose(ChipConfig::desktop(node("14nm"), CoreKind::OoOMedium)).unwrap();
        // 8× density, modulo floor() granularity on the 45 nm count.
        assert!((c14.cores_fit as f64 / c45.cores_fit as f64 - 8.0).abs() < 0.5);
    }

    #[test]
    fn chip_power_within_tdp() {
        for n in ["90nm", "45nm", "22nm", "7nm"] {
            for k in [
                CoreKind::InOrderSmall,
                CoreKind::OoOMedium,
                CoreKind::OoOBig,
            ] {
                let chip = Chip::compose(ChipConfig::desktop(node(n), k)).unwrap();
                assert!(
                    chip.power().value() <= chip.cfg.tdp.value() + 1e-9,
                    "{n} {k:?}: {} > {}",
                    chip.power(),
                    chip.cfg.tdp
                );
            }
        }
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut cfg = ChipConfig::desktop(node("45nm"), CoreKind::OoOBig);
        cfg.uncore_frac = 1.0;
        assert!(Chip::compose(cfg).is_err());
        let mut cfg = ChipConfig::desktop(node("180nm"), CoreKind::OoOBig);
        cfg.die = Area(1.0);
        assert!(Chip::compose(cfg).is_err());
    }
}
