//! An energy-aware DVFS governor.
//!
//! §2.4 asks how applications can "express Quality-of-Service targets and
//! have the underlying hardware … work together to ensure them". The
//! governor is the runtime half of that contract: given a QoS target
//! (work must complete within each period) and a time-varying load, pick
//! the **lowest-energy operating point that still meets the deadline** —
//! rather than the 20th-century default of racing at maximum frequency.
//!
//! Two policies are compared in the tests:
//! `Performance` (always top frequency) and `EnergyMin` (slowest point
//! that fits). Race-to-idle vs pace-to-deadline is a real tradeoff — with
//! nontrivial idle power racing can win — which is why the governor
//! simulation charges idle power explicitly.

use serde::Serialize;

use xxi_core::units::Volts;
use xxi_core::units::{Energy, Power, Seconds};
use xxi_tech::freq::{dvfs_ladder, OperatingPoint};
use xxi_tech::node::TechNode;

/// Governor policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum GovernorPolicy {
    /// Always run at the highest operating point, then idle.
    Performance,
    /// Pick the lowest-power point that still meets each period's deadline.
    EnergyMin,
}

/// The DVFS governor simulation.
#[derive(Clone, Debug)]
pub struct Governor {
    ladder: Vec<OperatingPoint>,
    /// Idle (clock-gated) power while waiting for the next period.
    pub idle_power: Power,
    /// Cycles of work per unit of load.
    pub cycles_per_unit: f64,
}

/// Result of simulating a load trace.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct GovernorOutcome {
    /// Total energy over the trace.
    pub energy: Energy,
    /// Periods whose work missed the deadline.
    pub deadline_misses: u64,
    /// Periods simulated.
    pub periods: u64,
}

impl Governor {
    /// A governor over `steps` operating points of `node`, for a block of
    /// `nominal_power` at nominal V/f.
    pub fn new(node: &TechNode, nominal_power: Power, steps: usize) -> Governor {
        let v_min = Volts(node.vth.value() + 0.15);
        Governor {
            ladder: dvfs_ladder(node, nominal_power, v_min, steps),
            idle_power: nominal_power * 0.08,
            cycles_per_unit: 1e6,
        }
    }

    /// Operating points, slowest first.
    pub fn ladder(&self) -> &[OperatingPoint] {
        &self.ladder
    }

    /// Pick the operating point for `load` units of work in a period of
    /// `period` under `policy`; `None` if even the fastest point misses.
    pub fn pick(
        &self,
        policy: GovernorPolicy,
        load: f64,
        period: Seconds,
    ) -> Option<&OperatingPoint> {
        let cycles = load * self.cycles_per_unit;
        let fits = |op: &OperatingPoint| cycles / op.f.value() <= period.value();
        match policy {
            GovernorPolicy::Performance => self.ladder.last().filter(|op| fits(op)),
            GovernorPolicy::EnergyMin => self.ladder.iter().find(|op| fits(op)),
        }
    }

    /// Simulate a trace of per-period loads.
    pub fn run(&self, policy: GovernorPolicy, loads: &[f64], period: Seconds) -> GovernorOutcome {
        let mut energy = Energy::ZERO;
        let mut misses = 0u64;
        for &load in loads {
            match self.pick(policy, load, period) {
                Some(op) => {
                    let busy = Seconds(load * self.cycles_per_unit / op.f.value());
                    let idle = Seconds((period.value() - busy.value()).max(0.0));
                    energy += op.power * busy + self.idle_power * idle;
                }
                None => {
                    // Run flat-out the whole period and miss.
                    let top = self.ladder.last().expect("non-empty ladder"); // xxi-allow: panic-path -- see the expect message
                    energy += top.power * period;
                    misses += 1;
                }
            }
        }
        GovernorOutcome {
            energy,
            deadline_misses: misses,
            periods: loads.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xxi_tech::node::NodeDb;

    fn gov() -> Governor {
        let node = NodeDb::standard().by_name("22nm").unwrap().clone();
        Governor::new(&node, Power(10.0), 12)
    }

    /// A load that the top frequency finishes in ~40% of the period.
    fn moderate_period() -> (Vec<f64>, Seconds) {
        let g = gov();
        let top_f = g.ladder().last().unwrap().f.value();
        let period = Seconds(1e-3);
        let load = 0.4 * top_f * period.value() / g.cycles_per_unit;
        (vec![load; 100], period)
    }

    #[test]
    fn both_policies_meet_feasible_deadlines() {
        let g = gov();
        let (loads, period) = moderate_period();
        for policy in [GovernorPolicy::Performance, GovernorPolicy::EnergyMin] {
            let out = g.run(policy, &loads, period);
            assert_eq!(out.deadline_misses, 0, "{policy:?}");
        }
    }

    #[test]
    fn energymin_saves_energy_at_partial_load() {
        let g = gov();
        let (loads, period) = moderate_period();
        let perf = g.run(GovernorPolicy::Performance, &loads, period);
        let emin = g.run(GovernorPolicy::EnergyMin, &loads, period);
        assert!(
            emin.energy.value() < 0.8 * perf.energy.value(),
            "emin={} perf={}",
            emin.energy,
            perf.energy
        );
    }

    #[test]
    fn policies_converge_at_full_load() {
        let g = gov();
        let top_f = g.ladder().last().unwrap().f.value();
        let period = Seconds(1e-3);
        let load = 0.98 * top_f * period.value() / g.cycles_per_unit;
        let perf = g.run(GovernorPolicy::Performance, &[load; 50], period);
        let emin = g.run(GovernorPolicy::EnergyMin, &[load; 50], period);
        assert!((emin.energy.value() - perf.energy.value()).abs() < 0.1 * perf.energy.value());
    }

    #[test]
    fn infeasible_load_reports_misses() {
        let g = gov();
        let top_f = g.ladder().last().unwrap().f.value();
        let period = Seconds(1e-3);
        let load = 2.0 * top_f * period.value() / g.cycles_per_unit;
        let out = g.run(GovernorPolicy::EnergyMin, &[load; 10], period);
        assert_eq!(out.deadline_misses, 10);
    }

    #[test]
    fn picked_point_actually_fits() {
        let g = gov();
        let (loads, period) = moderate_period();
        let op = g.pick(GovernorPolicy::EnergyMin, loads[0], period).unwrap();
        let busy = loads[0] * g.cycles_per_unit / op.f.value();
        assert!(busy <= period.value());
        // And it is genuinely slower than the top point.
        assert!(op.f.value() < g.ladder().last().unwrap().f.value());
    }
}
