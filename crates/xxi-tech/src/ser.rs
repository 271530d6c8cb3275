//! Soft-error-rate (SER) models — Table 1 row 3.
//!
//! The paper: *"The modest levels of transistor unreliability easily hidden
//! (e.g., via ECC)"* has become *"Transistor reliability worsening, no
//! longer easy to hide."* Two effects drive this:
//!
//! 1. **Integration**: per-bit SER is roughly flat across nodes (critical
//!    charge falls, but so does the collection area), yet bits per chip
//!    double each generation — so **per-chip** fault rates climb
//!    relentlessly.
//! 2. **Voltage**: SER rises exponentially as supply voltage drops (the
//!    critical charge `Q_crit ∝ C·V`), which is what couples this module to
//!    the NTV story: the Hazucha–Svensson model gives
//!    `SER ∝ exp(−Q_crit/Q_s)`.
//!
//! Rates are expressed in FIT (failures per 10⁹ device-hours), the industry
//! unit.

use crate::node::TechNode;
use xxi_core::units::Volts;

/// Charge-collection slope for the exponential voltage dependence, as a
/// fraction of nominal critical charge.
const Q_SLOPE_FRAC: f64 = 0.25;

/// Soft-error model for an SRAM/flop array on one node.
#[derive(Clone, Debug)]
pub struct SoftErrorModel {
    /// Technology node.
    pub node: TechNode,
    /// Protected-array megabits on the chip.
    pub mbits: f64,
}

impl SoftErrorModel {
    /// Model for `mbits` of state on `node`.
    pub fn new(node: TechNode, mbits: f64) -> SoftErrorModel {
        assert!(mbits > 0.0);
        SoftErrorModel { node, mbits }
    }

    /// Per-bit FIT at supply `v`.
    ///
    /// At nominal voltage this returns the node's calibrated
    /// `ser_fit_per_mbit / 1e6`; lowering the supply reduces the critical
    /// charge linearly and the upset rate rises exponentially
    /// (Hazucha–Svensson shape).
    pub fn fit_per_bit(&self, v: Volts) -> f64 {
        let nominal = self.node.ser_fit_per_mbit / 1e6;
        let q_ratio = v.value() / self.node.vdd.value(); // Q_crit ∝ C·V
        let boost = ((1.0 - q_ratio) / Q_SLOPE_FRAC).exp();
        nominal * boost
    }

    /// Whole-chip FIT at supply `v`.
    pub fn fit_chip(&self, v: Volts) -> f64 {
        self.fit_per_bit(v) * self.mbits * 1e6
    }

    /// Mean time between upsets, in hours.
    pub fn mtbu_hours(&self, v: Volts) -> f64 {
        1e9 / self.fit_chip(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeDb;

    fn model(name: &str, mbits: f64) -> SoftErrorModel {
        SoftErrorModel::new(NodeDb::standard().by_name(name).unwrap().clone(), mbits)
    }

    #[test]
    fn nominal_fit_matches_calibration() {
        let m = model("45nm", 10.0);
        let fit = m.fit_chip(m.node.vdd);
        assert!((fit - 12_000.0).abs() < 1.0, "fit={fit}"); // 1200 FIT/Mbit × 10
    }

    #[test]
    fn per_chip_rate_grows_across_generations_for_equal_area() {
        // Same die area ⇒ 2× bits per generation ⇒ rising chip FIT even
        // with near-flat per-bit rates.
        let db = NodeDb::standard();
        let mut prev = 0.0;
        for n in db.all() {
            // bits scale with density for a 100 mm² die; assume 10% is SRAM
            // at 6T/bit.
            let mbits = n.transistors(100.0) * 0.1 / 6.0 / 1e6 / 1e6 * 1e6;
            let m = SoftErrorModel::new(n.clone(), mbits);
            let fit = m.fit_chip(n.vdd);
            assert!(fit > prev, "{}: {fit} <= {prev}", n.name);
            prev = fit;
        }
    }

    #[test]
    fn voltage_droop_explodes_ser() {
        let m = model("22nm", 10.0);
        let nominal = m.fit_chip(m.node.vdd);
        let ntv = m.fit_chip(Volts(0.45));
        assert!(ntv / nominal > 5.0, "ratio={}", ntv / nominal);
    }

    #[test]
    fn upset_rate_units_consistent() {
        let m = model("45nm", 100.0);
        // 1 FIT = 1 failure / 1e9 hours = 1/(1e9·3600) per second.
        let per_sec = m.fit_chip(m.node.vdd) / (1e9 * 3600.0);
        let mtbu_h = m.mtbu_hours(m.node.vdd);
        // rate × MTBU = 1 (after unit conversion).
        assert!((per_sec * mtbu_h * 3600.0 - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn zero_bits_rejected() {
        model("45nm", 0.0);
    }
}
