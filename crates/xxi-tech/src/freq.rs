//! Voltage–frequency–power relationships.
//!
//! Two standard compact models underpin the NTV analysis in the
//! workspace:
//!
//! * **Alpha-power law** (Sakurai–Newton): gate delay
//!   `t_d ∝ V / (V − V_th)^α` with velocity-saturation exponent `α ≈ 1.3`,
//!   giving maximum frequency `f(V) ∝ (V − V_th)^α / V`.
//! * **Power decomposition**: `P = a·C·V²·f + V·I_leak(V)` where activity
//!   factor `a` captures how much of the chip switches each cycle and
//!   subthreshold leakage grows exponentially as `V_th` (effectively) drops
//!   and with DIBL as `V` rises.

use crate::node::TechNode;
use xxi_core::units::{Frequency, Power, Volts};

/// Velocity-saturation exponent for modern short-channel CMOS.
pub const ALPHA: f64 = 1.3;

/// Maximum stable clock frequency at supply voltage `v`, for a circuit that
/// achieves `node.freq` at `node.vdd` (alpha-power law, normalized to the
/// node's nominal operating point).
///
/// Returns zero at or below threshold: the device still switches
/// (subthreshold conduction) but we model that regime in [`crate::ntv`]
/// where its error behaviour is handled explicitly.
pub fn alpha_power_frequency(node: &TechNode, v: Volts) -> Frequency {
    let vth = node.vth.value();
    let vv = v.value();
    if vv <= vth {
        return Frequency(0.0);
    }
    let nominal = (node.vdd.value() - vth).powf(ALPHA) / node.vdd.value();
    let here = (vv - vth).powf(ALPHA) / vv;
    Frequency(node.freq.value() * here / nominal)
}

/// Subthreshold + gate leakage current at supply `v`, normalized so that at
/// the nominal voltage the node dissipates `node.leakage_frac` of its total
/// nominal power as leakage.
///
/// Voltage dependence: leakage current scales roughly linearly with V for
/// the drain term times an exponential DIBL term `exp((V−V_nom)/V_dibl)`
/// with `V_dibl ≈ 0.25 V`. Lowering supply therefore cuts leakage power
/// super-linearly — one reason NTV is attractive.
pub fn leakage_current(node: &TechNode, v: Volts, nominal_total_power: Power) -> f64 {
    let p_leak_nominal = nominal_total_power.value() * node.leakage_frac;
    let i_nominal = p_leak_nominal / node.vdd.value();
    let dibl = ((v.value() - node.vdd.value()) / 0.25).exp();
    i_nominal * (v.value() / node.vdd.value()) * dibl
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeDb;

    fn node45() -> TechNode {
        NodeDb::standard().by_name("45nm").unwrap().clone()
    }

    #[test]
    fn nominal_point_reproduces_itself() {
        let n = node45();
        let f = alpha_power_frequency(&n, n.vdd);
        assert!((f.ghz() - n.freq.ghz()).abs() < 1e-9);
    }

    #[test]
    fn frequency_zero_at_threshold() {
        let n = node45();
        assert_eq!(alpha_power_frequency(&n, n.vth).value(), 0.0);
        assert_eq!(alpha_power_frequency(&n, Volts(0.1)).value(), 0.0);
    }

    #[test]
    fn frequency_monotonic_in_voltage() {
        let n = node45();
        let mut prev = 0.0;
        for i in 1..=20 {
            let v = Volts(n.vth.value() + 0.03 * i as f64);
            let f = alpha_power_frequency(&n, v).value();
            assert!(f >= prev);
            prev = f;
        }
    }

    #[test]
    fn leakage_drops_superlinearly_with_voltage() {
        let n = node45();
        let p_nom = Power(100.0);
        let i_nom = leakage_current(&n, n.vdd, p_nom);
        let i_low = leakage_current(&n, Volts(0.7), p_nom);
        // 30% voltage cut → >50% leakage current cut (linear × DIBL).
        assert!(i_low < 0.5 * i_nom, "i_low={i_low} i_nom={i_nom}");
    }
}
