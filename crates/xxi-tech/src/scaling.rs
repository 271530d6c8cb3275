//! Generational scaling engines — the executable form of Table 1 rows 1–2.
//!
//! The white paper's framing: *"Moore's Law — 2× transistors/chip every
//! 18-24 months → still true"* but *"Dennard Scaling — near-constant
//! power/chip → Gone. Not viable for power/chip to double."*
//!
//! [`ScalingTrajectory`] computes, for a fixed die area across the node
//! ladder, what happens to transistor count, frequency, and chip power
//! under two rule sets:
//!
//! * [`ScalingRule::Dennard`] — the classical rules: each generation,
//!   dimensions ×1/√2, voltage ×1/√2-ish, frequency ×1.4 ⇒ **power/chip
//!   constant** while transistors double. (A counterfactual after ~2005.)
//! * [`ScalingRule::PostDennard`] — the observed reality from
//!   [`crate::node::NodeDb`]: voltage nearly flat, frequency plateaued;
//!   running all transistors at full frequency makes **power/chip grow
//!   ~2× per generation**, which is exactly why it can't be done — see
//!   [`crate::dark`].

use crate::node::{NodeDb, TechNode};

/// Which generational rule set to apply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScalingRule {
    /// Classical Dennard scaling: V and C scale with feature size, f grows
    /// 1.4×/generation, power density constant.
    Dennard,
    /// Observed post-2005 behaviour taken from the node database: V nearly
    /// flat, f plateaued, leakage growing.
    PostDennard,
}

/// One generation's aggregate chip-level figures for a fixed-area die.
#[derive(Clone, Debug, PartialEq)]
pub struct GenPoint {
    /// Node name.
    pub node: &'static str,
    /// Production year.
    pub year: u32,
    /// Transistors on the die, normalized to the first generation.
    pub transistors_rel: f64,
    /// Clock frequency, normalized to the first generation.
    pub freq_rel: f64,
    /// Power required to switch *all* transistors each cycle, normalized to
    /// the first generation ("full utilization" power).
    pub full_power_rel: f64,
    /// Switching energy per gate, normalized to the first generation.
    pub gate_energy_rel: f64,
}

/// A full trajectory across the node ladder under one rule set.
#[derive(Clone, Debug)]
pub struct ScalingTrajectory {
    /// Rule set used.
    pub rule: ScalingRule,
    /// Per-generation points, oldest first.
    pub points: Vec<GenPoint>,
}

impl ScalingTrajectory {
    /// Compute the trajectory for `db` under `rule`, for a fixed die area.
    ///
    /// Full-utilization chip power is modeled as
    /// `P ∝ N_transistors · C_gate · V² · f` (dynamic switching of the whole
    /// die each cycle), which is the quantity Dennard scaling held constant.
    pub fn compute(db: &NodeDb, rule: ScalingRule) -> ScalingTrajectory {
        let base = &db.all()[0];
        let points = db
            .all()
            .iter()
            .enumerate()
            .map(|(gen, n)| match rule {
                ScalingRule::PostDennard => Self::observed_point(base, n),
                ScalingRule::Dennard => Self::dennard_point(base, n, gen),
            })
            .collect();
        ScalingTrajectory { rule, points }
    }

    /// Observed behaviour straight from the calibrated node data.
    fn observed_point(base: &TechNode, n: &TechNode) -> GenPoint {
        let transistors_rel = n.density_mtr_mm2 / base.density_mtr_mm2;
        let freq_rel = n.freq.value() / base.freq.value();
        let gate_energy_rel = n.gate_energy_rel();
        // P ∝ N · C · V² · f = N · E_gate · f
        let full_power_rel = transistors_rel * gate_energy_rel * freq_rel;
        GenPoint {
            node: n.name,
            year: n.year,
            transistors_rel,
            freq_rel,
            full_power_rel,
            gate_energy_rel,
        }
    }

    /// The Dennard counterfactual: ideal constant-field scaling applied
    /// `gen` times. Density still comes from the real ladder (Moore's law
    /// held either way); V, C, f follow the ideal rules:
    /// per generation V ×1/√2? — classical constant-field scaling is
    /// V ×0.7, C ×0.7, f ×1.4, N ×2 ⇒ P ∝ N·C·V²·f = 2·0.7·0.49·1.4 ≈ 0.96
    /// ≈ constant.
    fn dennard_point(base: &TechNode, n: &TechNode, gen: usize) -> GenPoint {
        let k = 0.7f64.powi(gen as i32);
        let transistors_rel = n.density_mtr_mm2 / base.density_mtr_mm2; // 2^gen
        let freq_rel = 1.4f64.powi(gen as i32);
        let v_rel = k; // voltage scales with feature size
        let c_rel = k; // capacitance scales with feature size
        let gate_energy_rel = c_rel * v_rel * v_rel;
        let full_power_rel = transistors_rel * gate_energy_rel * freq_rel;
        GenPoint {
            node: n.name,
            year: n.year,
            transistors_rel,
            freq_rel,
            full_power_rel,
            gate_energy_rel,
        }
    }

    /// Power/chip of the final generation relative to the first — the
    /// headline number: ≈1 under Dennard, ≫1 post-Dennard.
    pub fn final_power_growth(&self) -> f64 {
        self.points.last().map(|p| p.full_power_rel).unwrap_or(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeDb;

    #[test]
    fn dennard_rules_keep_power_near_constant() {
        let db = NodeDb::standard();
        let t = ScalingTrajectory::compute(&db, ScalingRule::Dennard);
        for p in &t.points {
            // 2 · 0.7³ · 1.4 = 0.9604 per generation ⇒ gentle decline, never
            // above 1.
            assert!(
                p.full_power_rel <= 1.0 + 1e-9 && p.full_power_rel > 0.5,
                "{}: {}",
                p.node,
                p.full_power_rel
            );
        }
        assert!(t.final_power_growth() < 1.0);
    }

    #[test]
    fn post_dennard_power_explodes() {
        let db = NodeDb::standard();
        let t = ScalingTrajectory::compute(&db, ScalingRule::PostDennard);
        // Running everything at 7nm full tilt takes ~25-60× the 180nm chip
        // power — "not viable for power/chip to double" (and it more than
        // doubled per decade).
        let growth = t.final_power_growth();
        assert!(growth > 10.0, "growth={growth}");
        // Transistor count grew 512× (9 doublings) regardless.
        assert!((t.points.last().unwrap().transistors_rel - 512.0).abs() < 1e-6);
    }

    #[test]
    fn moore_continues_under_both_rules() {
        let db = NodeDb::standard();
        for rule in [ScalingRule::Dennard, ScalingRule::PostDennard] {
            let t = ScalingTrajectory::compute(&db, rule);
            for w in t.points.windows(2) {
                let r = w[1].transistors_rel / w[0].transistors_rel;
                assert!((r - 2.0).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn dennard_counterfactual_frequency_far_exceeds_reality() {
        let db = NodeDb::standard();
        let dennard = ScalingTrajectory::compute(&db, ScalingRule::Dennard);
        let real = ScalingTrajectory::compute(&db, ScalingRule::PostDennard);
        let f_d = dennard.points.last().unwrap().freq_rel;
        let f_r = real.points.last().unwrap().freq_rel;
        // 1.4^9 ≈ 20.7× vs observed ~5×.
        assert!(f_d > 20.0);
        assert!(f_r < 6.0);
    }

    #[test]
    fn gate_energy_improves_more_slowly_post_dennard() {
        let db = NodeDb::standard();
        let dennard = ScalingTrajectory::compute(&db, ScalingRule::Dennard);
        let real = ScalingTrajectory::compute(&db, ScalingRule::PostDennard);
        let e_d = dennard.points.last().unwrap().gate_energy_rel;
        let e_r = real.points.last().unwrap().gate_energy_rel;
        // Ideal scaling would have cut switching energy ~0.7⁹·0.7¹⁸ ≈ 4e-5;
        // reality only managed ~6e-3 — a big part of the "energy first" gap.
        assert!(e_d < e_r / 10.0, "e_d={e_d} e_r={e_r}");
    }
}
