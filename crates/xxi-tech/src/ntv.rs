//! Near-threshold-voltage (NTV) operation.
//!
//! §2.3 of the paper: *"Near-threshold voltage operation has tremendous
//! potential to reduce power but at the cost of reliability, driving a new
//! discipline of resiliency-centered design."*
//!
//! This module models the three quantities that define that trade:
//!
//! 1. **Energy per operation** `E(V) = E_dyn(V) + E_leak(V)`, where the
//!    dynamic term falls as `V²` but the leakage term *rises* at low
//!    voltage because operations take longer (leakage power integrates over
//!    a longer runtime). Their sum has the classic U-shape with a minimum
//!    near or just above the threshold voltage — the **minimum-energy
//!    point (MEP)**.
//! 2. **Timing-error rate** `ε(V)`, rising exponentially as the voltage
//!    margin shrinks (variation-induced delay faults).
//! 3. **Effective energy with recovery**: a resilient design detects errors
//!    (e.g. Razor-style latches or the ECC machinery in `xxi-rel`) and
//!    re-executes, so the *useful* energy per op is
//!    `E(V) / (1 − ε(V))` plus a detection overhead. The experiment (E11)
//!    shows the optimum shifts back up in voltage once errors are priced
//!    in — the quantitative core of "resiliency-centered design".

use crate::freq::{alpha_power_frequency, leakage_current};
use crate::node::TechNode;
use xxi_core::units::{Energy, Power, Volts};

/// NTV energy/error model for one circuit block on one node.
#[derive(Clone, Debug)]
pub struct NtvModel {
    /// The technology node.
    pub node: TechNode,
    /// Energy per operation at the nominal voltage (dynamic part).
    pub e_dyn_nominal: Energy,
    /// Block leakage *power* at nominal voltage.
    pub p_leak_nominal: Power,
    /// Voltage margin (in volts) at which the timing-error rate is
    /// `ERR_AT_MARGIN`; variation-induced failures grow exponentially as
    /// the operating point approaches `vth + margin`.
    pub sigma_v: f64,
}

/// Error rate at one `sigma_v` of margin.
const ERR_AT_ZERO_MARGIN: f64 = 0.5;

impl NtvModel {
    /// Build a model calibrated so the block consumes `e_dyn_nominal` per
    /// op dynamically and leaks `p_leak_nominal` at the nominal voltage.
    pub fn new(node: TechNode, e_dyn_nominal: Energy, p_leak_nominal: Power) -> NtvModel {
        NtvModel {
            node,
            e_dyn_nominal,
            p_leak_nominal,
            sigma_v: 0.05,
        }
    }

    /// Dynamic energy per operation at supply `v`: scales as `V²`.
    pub fn e_dyn(&self, v: Volts) -> Energy {
        let r = v.value() / self.node.vdd.value();
        self.e_dyn_nominal * (r * r)
    }

    /// Leakage energy charged to one operation at supply `v`: leakage power
    /// at `v` times the (longer) cycle time at `v`.
    pub fn e_leak(&self, v: Volts) -> Energy {
        let f = alpha_power_frequency(&self.node, v);
        if f.value() <= 0.0 {
            return Energy(f64::INFINITY);
        }
        // leakage_current is calibrated against a "total power" whose
        // leakage fraction matches the node; invert that calibration.
        let p_total_equiv = Power(self.p_leak_nominal.value() / self.node.leakage_frac);
        let i = leakage_current(&self.node, v, p_total_equiv);
        let p_leak = Power(i * v.value());
        p_leak * f.period()
    }

    /// Total energy per operation at `v`.
    pub fn e_op(&self, v: Volts) -> Energy {
        self.e_dyn(v) + self.e_leak(v)
    }

    /// Raw timing-error probability per operation at `v`: exponential in
    /// the margin above threshold,
    /// `ε = ERR_AT_ZERO_MARGIN · exp(−(V − V_th)/σ_V)`, clamped to `[0, 0.5]`.
    pub fn error_rate(&self, v: Volts) -> f64 {
        let margin = v.value() - self.node.vth.value();
        if margin <= 0.0 {
            return ERR_AT_ZERO_MARGIN;
        }
        (ERR_AT_ZERO_MARGIN * (-margin / self.sigma_v).exp()).min(ERR_AT_ZERO_MARGIN)
    }

    /// Effective energy per *correct* operation for a resilient design that
    /// detects errors (with fractional overhead `detect_overhead`, e.g.
    /// 0.05 for Razor-style detection) and re-executes until success.
    ///
    /// Expected executions per useful op = `1/(1−ε)`.
    pub fn e_op_resilient(&self, v: Volts, detect_overhead: f64) -> Energy {
        let eps = self.error_rate(v);
        let per_try = self.e_op(v) * (1.0 + detect_overhead);
        per_try * (1.0 / (1.0 - eps))
    }

    /// Sweep voltages and return `(V, E_op, ε, f_GHz)` samples from
    /// just-above threshold to nominal.
    pub fn sweep(&self, steps: usize) -> Vec<NtvPoint> {
        assert!(steps >= 2);
        let lo = self.node.vth.value() + 0.02;
        let hi = self.node.vdd.value();
        (0..steps)
            .map(|i| {
                let v = Volts(lo + (hi - lo) * i as f64 / (steps - 1) as f64);
                NtvPoint {
                    v,
                    e_op: self.e_op(v),
                    e_op_resilient: self.e_op_resilient(v, 0.05),
                    error_rate: self.error_rate(v),
                    freq_ghz: alpha_power_frequency(&self.node, v).ghz(),
                }
            })
            .collect()
    }

    /// The minimum-energy point ignoring errors: `(V, E)`.
    pub fn minimum_energy_point(&self) -> (Volts, Energy) {
        self.argmin(|p| p.e_op.value())
    }

    /// The minimum-energy point for the resilient design (errors priced
    /// in): always at a voltage ≥ the raw MEP.
    pub fn resilient_optimum(&self) -> (Volts, Energy) {
        let (v, _) = self.argmin(|p| p.e_op_resilient.value());
        (v, self.e_op_resilient(v, 0.05))
    }

    fn argmin(&self, key: impl Fn(&NtvPoint) -> f64) -> (Volts, Energy) {
        let pts = self.sweep(400);
        let best = pts
            .iter()
            .min_by(|a, b| key(a).partial_cmp(&key(b)).unwrap()) // xxi-allow: panic-path -- energies are finite
            .unwrap(); // xxi-allow: panic-path -- sweep(400) yields points
        (best.v, best.e_op)
    }
}

/// One sample of the NTV sweep.
#[derive(Clone, Copy, Debug)]
pub struct NtvPoint {
    /// Supply voltage.
    pub v: Volts,
    /// Energy per operation (no error recovery).
    pub e_op: Energy,
    /// Energy per correct operation with detection + re-execution.
    pub e_op_resilient: Energy,
    /// Timing-error probability per operation.
    pub error_rate: f64,
    /// Maximum clock frequency in GHz.
    pub freq_ghz: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeDb;

    fn model() -> NtvModel {
        let node = NodeDb::standard().by_name("22nm").unwrap().clone();
        NtvModel::new(node, Energy::from_pj(10.0), Power::from_mw(50.0))
    }

    #[test]
    fn nominal_dynamic_energy_calibrates() {
        let m = model();
        let e = m.e_dyn(m.node.vdd);
        assert!((e.pj() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn energy_curve_is_u_shaped() {
        let m = model();
        let pts = m.sweep(100);
        let (mep_v, mep_e) = m.minimum_energy_point();
        // MEP strictly inside the sweep range: NTV, not sub-threshold, not
        // nominal.
        assert!(mep_v.value() > m.node.vth.value() + 0.02);
        assert!(
            mep_v.value() < m.node.vdd.value() - 0.05,
            "mep at {mep_v:?}"
        );
        // Energy at nominal well above MEP — the "tremendous potential".
        let e_nominal = pts.last().unwrap().e_op;
        assert!(
            e_nominal.value() / mep_e.value() > 2.0,
            "NTV saves {}x",
            e_nominal.value() / mep_e.value()
        );
        // And energy just above threshold is above the MEP too (leakage tax).
        assert!(pts[0].e_op.value() > mep_e.value());
    }

    #[test]
    fn error_rate_explodes_near_threshold() {
        let m = model();
        let nominal = m.error_rate(m.node.vdd);
        let near = m.error_rate(Volts(m.node.vth.value() + 0.05));
        assert!(nominal < 1e-4, "nominal err={nominal}");
        assert!(near > 0.1, "near-threshold err={near}");
        assert_eq!(m.error_rate(m.node.vth), 0.5);
    }

    #[test]
    fn error_rate_monotone_decreasing_in_v() {
        let m = model();
        let mut prev = 1.0;
        for i in 0..50 {
            let v = Volts(m.node.vth.value() + 0.01 * i as f64);
            let e = m.error_rate(v);
            assert!(e <= prev + 1e-15);
            prev = e;
        }
    }

    #[test]
    fn resilient_optimum_sits_above_raw_mep() {
        // The core "resiliency-centered design" result: pricing in error
        // recovery pushes the optimal voltage up.
        let m = model();
        let (raw_v, _) = m.minimum_energy_point();
        let (res_v, res_e) = m.resilient_optimum();
        assert!(
            res_v.value() >= raw_v.value(),
            "resilient optimum {res_v:?} below raw MEP {raw_v:?}"
        );
        // Resilient energy at the optimum is still far below nominal energy.
        let e_nom = m.e_op_resilient(m.node.vdd, 0.05);
        assert!(res_e.value() < e_nom.value());
    }

    #[test]
    fn below_threshold_energy_is_infinite_in_this_model() {
        let m = model();
        assert!(m.e_op(Volts(0.1)).value().is_infinite());
    }

    #[test]
    fn sweep_is_ordered_and_finite() {
        let m = model();
        let pts = m.sweep(50);
        assert_eq!(pts.len(), 50);
        for w in pts.windows(2) {
            assert!(w[1].v.value() > w[0].v.value());
        }
        for p in &pts {
            assert!(p.e_op.value().is_finite());
            assert!(p.freq_ghz >= 0.0);
        }
    }
}
