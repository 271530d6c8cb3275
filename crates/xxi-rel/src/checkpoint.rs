//! Checkpoint/restart under Poisson failures — Young–Daly.
//!
//! Table A.2 ("Always Online") demands five-nines availability at every
//! scale; §2.4 demands continuous health monitoring with "contingency
//! actions". The foundational quantitative tool is the Young–Daly optimal
//! checkpoint interval `τ* = √(2·δ·M)` for checkpoint cost `δ` and MTBF
//! `M`. This module provides the analytic efficiency model and a
//! discrete-event simulation that validates it (experiment E17).
//!
//! Young–Daly assumes failures are *independent* exponentials, but §2.1's
//! warehouse machines fail in correlated bursts: a rack PDU or switch
//! takes a whole scope down at one instant. [`CheckpointSim::run_planned`]
//! replays a [`FaultPlan`] instead of drawing exponentials — a correlated
//! scope blast costs the job *one* outage no matter how many components
//! it kills, so at equal component-fault budget a correlated plan yields
//! fewer distinct outages and higher efficiency than an independent one.

use xxi_core::des::fault::{FaultInjector, FaultPlan};
use xxi_core::metrics::Metrics;
use xxi_core::rng::Rng64;
use xxi_core::time::SimTime;
use xxi_core::units::Seconds;

/// The Young–Daly optimal checkpoint interval (compute time between
/// checkpoints) for checkpoint cost `delta` and MTBF `mtbf`.
pub fn young_daly_interval(delta: Seconds, mtbf: Seconds) -> Seconds {
    assert!(delta.value() > 0.0 && mtbf.value() > 0.0);
    Seconds((2.0 * delta.value() * mtbf.value()).sqrt())
}

/// First-order analytic machine efficiency (useful work / wall-clock) for
/// checkpoint interval `tau`, checkpoint cost `delta`, restart cost `r`,
/// MTBF `m` (valid when `tau + delta ≪ m`):
/// overheads = checkpointing `δ/τ` + expected rework `(τ+δ)/(2m)` +
/// restarts `r/m`.
pub fn efficiency(tau: Seconds, delta: Seconds, restart: Seconds, mtbf: Seconds) -> f64 {
    let t = tau.value();
    let d = delta.value();
    let m = mtbf.value();
    let overhead = d / (t + d) + (t + d) / (2.0 * m) + restart.value() / m;
    (1.0 - overhead).max(0.0)
}

/// Discrete simulation of a long-running job with checkpointing.
#[derive(Clone, Debug)]
pub struct CheckpointSim {
    /// Compute time between checkpoints.
    pub tau: Seconds,
    /// Time to write a checkpoint.
    pub delta: Seconds,
    /// Time to restart after a failure (load checkpoint, reboot).
    pub restart: Seconds,
    /// Mean time between failures (exponential).
    pub mtbf: Seconds,
}

/// Simulation outcome.
#[derive(Clone, Copy, Debug)]
pub struct SimOutcome {
    /// Wall-clock time to finish the job.
    pub wall: Seconds,
    /// Useful compute accomplished (equals the job size).
    // xxi-allow: model-reach -- checked by xxi lint (rel-checkpoint)
    pub work: Seconds,
    /// Number of failures survived.
    pub failures: u64,
    /// Machine efficiency `work / wall`.
    pub efficiency: f64,
}

impl CheckpointSim {
    /// Simulate a job needing `work` seconds of compute; returns wall-clock
    /// and efficiency. Failure arrivals are exponential; on failure the job
    /// loses progress since the last checkpoint, pays `restart`, and
    /// resumes.
    pub fn run(&self, work: Seconds, seed: u64) -> SimOutcome {
        let mut rng = Rng64::new(seed);
        let mut wall = 0.0f64;
        let mut done = 0.0f64; // checkpointed work
        let mut failures = 0u64;
        let mut next_failure = rng.exp(1.0 / self.mtbf.value());
        let target = work.value();

        while done < target {
            // Attempt one segment: tau compute + delta checkpoint (or the
            // final partial segment).
            let seg = (target - done).min(self.tau.value());
            let seg_cost = seg
                + if done + seg < target {
                    self.delta.value()
                } else {
                    0.0
                };
            if wall + seg_cost <= next_failure {
                wall += seg_cost;
                done += seg;
            } else {
                // Failure mid-segment: lose the partial work.
                wall = next_failure + self.restart.value();
                failures += 1;
                next_failure = wall + rng.exp(1.0 / self.mtbf.value());
            }
        }
        SimOutcome {
            wall: Seconds(wall),
            work,
            failures,
            efficiency: target / wall,
        }
    }
}

/// Outcome of a fault-plan-driven checkpoint run
/// ([`CheckpointSim::run_planned`]).
#[derive(Clone, Debug)]
pub struct PlannedOutcome {
    /// Wall-clock / efficiency outcome, as for [`CheckpointSim::run`].
    pub outcome: SimOutcome,
    /// Distinct outage instants the plan produced — a correlated scope
    /// blast counts once however many components it kills.
    pub outages: u64,
    /// `ckpt.*` counters plus the fault accounting
    /// (`fault.scheduled == fault.fired + fault.cancelled`).
    pub metrics: Metrics,
}

/// The distinct instants at which `plan` disrupts *any* of `components`
/// (kills and pauses; slowdowns and restores are not outages), in
/// ascending order, as wall-clock seconds. Simultaneous disruptions —
/// a correlated scope blast — collapse to one instant.
pub fn outage_instants(plan: &FaultPlan, components: u32) -> Vec<f64> {
    let mut inj = FaultInjector::new(plan, components);
    let mut times: Vec<SimTime> = plan.events().iter().map(|e| e.at).collect();
    times.sort_unstable();
    times.dedup();
    let mut instants = Vec::new();
    let mut prev = inj.total_disruptions();
    for t in times {
        inj.advance(t);
        let d = inj.total_disruptions();
        if d > prev {
            instants.push(t.ms() / 1e3);
            prev = d;
        }
    }
    instants
}

impl CheckpointSim {
    /// [`CheckpointSim::run`] with the exponential failure clock replaced
    /// by a [`FaultPlan`] over `components` machines the job spans: the
    /// job fails at each distinct outage instant (see [`outage_instants`])
    /// that lands before the current segment completes. Outages that
    /// strike while the job is already restarting are absorbed into the
    /// same repair. The returned metrics carry the full plan accounting.
    pub fn run_planned(&self, work: Seconds, plan: &FaultPlan, components: u32) -> PlannedOutcome {
        let instants = outage_instants(plan, components);
        let target = work.value();
        let mut wall = 0.0f64;
        let mut done = 0.0f64;
        let mut failures = 0u64;
        let mut idx = 0usize;
        while done < target {
            let seg = (target - done).min(self.tau.value());
            let seg_cost = seg
                + if done + seg < target {
                    self.delta.value()
                } else {
                    0.0
                };
            while idx < instants.len() && instants[idx] <= wall {
                idx += 1;
            }
            let next_failure = instants.get(idx).copied().unwrap_or(f64::INFINITY);
            if wall + seg_cost <= next_failure {
                wall += seg_cost;
                done += seg;
            } else {
                wall = next_failure + self.restart.value();
                failures += 1;
                idx += 1;
            }
        }
        let mut inj = FaultInjector::new(plan, components);
        inj.advance(SimTime::MAX);
        let mut metrics = Metrics::new();
        metrics.count("ckpt.failures", failures);
        metrics.count("ckpt.outages", instants.len() as u64);
        inj.record(&mut metrics);
        PlannedOutcome {
            outcome: SimOutcome {
                wall: Seconds(wall),
                work,
                failures,
                efficiency: target / wall,
            },
            outages: instants.len() as u64,
            metrics,
        }
    }
}

/// Steady-state availability of a system with failure rate `1/mtbf` and
/// mean repair time `mttr`: `A = MTBF / (MTBF + MTTR)`.
pub fn availability(mtbf: Seconds, mttr: Seconds) -> f64 {
    mtbf.value() / (mtbf.value() + mttr.value())
}

/// Number of leading nines of an availability (e.g. 0.99999 → 5).
pub fn nines(avail: f64) -> u32 {
    assert!((0.0..1.0).contains(&avail));
    // The epsilon absorbs float artifacts like (1 − 0.99) = 0.010000…009.
    (-(1.0 - avail).log10() + 1e-9).floor().max(0.0) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn young_daly_formula() {
        let tau = young_daly_interval(Seconds(60.0), Seconds::from_hours(24.0));
        // √(2·60·86400) = √10368000 ≈ 3220 s.
        assert!((tau.value() - 3219.9).abs() < 1.0, "tau={tau:?}");
    }

    #[test]
    fn simulated_optimum_is_near_young_daly() {
        let delta = Seconds(30.0);
        let mtbf = Seconds::from_hours(4.0);
        let restart = Seconds(60.0);
        let work = Seconds::from_hours(100.0);
        let yd = young_daly_interval(delta, mtbf);

        let eff_at = |tau: Seconds| {
            let sim = CheckpointSim {
                tau,
                delta,
                restart,
                mtbf,
            };
            // Average over seeds to tame variance.
            (0..8).map(|s| sim.run(work, s).efficiency).sum::<f64>() / 8.0
        };

        let at_yd = eff_at(yd);
        let too_short = eff_at(Seconds(yd.value() / 16.0));
        let too_long = eff_at(Seconds(yd.value() * 16.0));
        assert!(at_yd > too_short, "yd={at_yd} too_short={too_short}");
        assert!(at_yd > too_long, "yd={at_yd} too_long={too_long}");
        // And the absolute efficiency at the optimum is high.
        assert!(at_yd > 0.9, "at_yd={at_yd}");
    }

    #[test]
    fn no_failures_with_huge_mtbf() {
        let sim = CheckpointSim {
            tau: Seconds(100.0),
            delta: Seconds(1.0),
            restart: Seconds(10.0),
            mtbf: Seconds(1e12),
        };
        let out = sim.run(Seconds(10_000.0), 1);
        assert_eq!(out.failures, 0);
        // Efficiency = tau/(tau+delta) ≈ 0.99 (no checkpoint after final
        // segment).
        assert!(out.efficiency > 0.98, "eff={}", out.efficiency);
    }

    #[test]
    fn job_always_completes_even_with_harsh_failures() {
        let sim = CheckpointSim {
            tau: Seconds(50.0),
            delta: Seconds(5.0),
            restart: Seconds(20.0),
            mtbf: Seconds(500.0),
        };
        let out = sim.run(Seconds(5_000.0), 2);
        assert!(out.failures > 0);
        assert!(out.efficiency < 1.0 && out.efficiency > 0.3);
        assert!(out.wall.value() > 5_000.0);
    }

    #[test]
    fn availability_and_nines() {
        // Five nines = at most ~5.26 minutes of downtime per year.
        let a = availability(Seconds::from_hours(8760.0), Seconds(315.0 / 60.0 * 60.0));
        assert!(nines(a) >= 5, "a={a}");
        assert_eq!(nines(0.99), 2);
        assert_eq!(nines(0.999), 3);
        assert_eq!(nines(0.9), 1);
        assert_eq!(nines(0.5), 0);
    }

    #[test]
    fn analytic_efficiency_monotone_pieces() {
        let delta = Seconds(30.0);
        let mtbf = Seconds::from_hours(4.0);
        let r = Seconds(60.0);
        let yd = young_daly_interval(delta, mtbf);
        let e_yd = efficiency(yd, delta, r, mtbf);
        let e_short = efficiency(Seconds(yd.value() / 20.0), delta, r, mtbf);
        let e_long = efficiency(Seconds(yd.value() * 20.0), delta, r, mtbf);
        assert!(e_yd > e_short && e_yd > e_long);
    }

    #[test]
    #[should_panic]
    fn zero_mtbf_rejected() {
        young_daly_interval(Seconds(1.0), Seconds(0.0));
    }

    #[test]
    fn empty_plan_means_no_failures() {
        let sim = CheckpointSim {
            tau: Seconds(100.0),
            delta: Seconds(1.0),
            restart: Seconds(10.0),
            mtbf: Seconds(1e12),
        };
        let planned = sim.run_planned(Seconds(10_000.0), &FaultPlan::new(), 16);
        let free = sim.run(Seconds(10_000.0), 1);
        assert_eq!(planned.outcome.failures, 0);
        assert_eq!(planned.outages, 0);
        assert_eq!(
            planned.outcome.wall.value().to_bits(),
            free.wall.value().to_bits()
        );
    }

    #[test]
    fn a_scope_blast_costs_one_outage_not_one_per_component() {
        use xxi_core::des::fault::{Fault, Topology};
        // All 8 machines in one rack, killed together at t = 500 s.
        let topo = Topology::blocks(8, 8);
        let mut plan = FaultPlan::new();
        plan.at_scope(SimTime::from_seconds(Seconds(500.0)), &topo, 0, Fault::Kill);
        let sim = CheckpointSim {
            tau: Seconds(100.0),
            delta: Seconds(2.0),
            restart: Seconds(30.0),
            mtbf: Seconds(1e12),
        };
        let out = sim.run_planned(Seconds(5_000.0), &plan, 8);
        assert_eq!(out.outcome.failures, 1, "one blast, one restart");
        assert_eq!(out.outages, 1);
        assert_eq!(out.metrics.counter("fault.fired"), 8);
    }

    #[test]
    fn correlated_failures_beat_independent_at_equal_budget() {
        use xxi_core::des::fault::{FaultMix, Topology};
        // 64 machines, a fault on half of them over ~56 hours of wall.
        // Independent draws scatter ~32 distinct outages; correlated draws
        // concentrate the same component-fault budget into ~4 rack blasts.
        let horizon = SimTime::from_seconds(Seconds(200_000.0));
        let indep = FaultPlan::seeded(77, horizon, 64, 0.5, FaultMix::kills_only());
        let topo = Topology::blocks(64, 8);
        let corr = FaultPlan::correlated(77, horizon, &topo, 0.5, FaultMix::kills_only());
        assert_eq!(indep.len(), corr.len(), "equal component-fault budget");
        let sim = CheckpointSim {
            tau: Seconds(600.0),
            delta: Seconds(30.0),
            restart: Seconds(120.0),
            mtbf: Seconds(7_000.0), // unused by run_planned
        };
        let work = Seconds(100_000.0);
        let i = sim.run_planned(work, &indep, 64);
        let c = sim.run_planned(work, &corr, 64);
        assert!(
            c.outages < i.outages,
            "corr={} indep={}",
            c.outages,
            i.outages
        );
        assert!(
            c.outcome.efficiency > i.outcome.efficiency,
            "corr={} indep={}",
            c.outcome.efficiency,
            i.outcome.efficiency
        );
        for r in [&i.metrics, &c.metrics] {
            assert_eq!(
                r.counter("fault.scheduled"),
                r.counter("fault.fired") + r.counter("fault.cancelled")
            );
        }
    }
}
