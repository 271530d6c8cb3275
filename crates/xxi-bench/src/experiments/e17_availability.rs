//! E17 — Table A.2 "Always Online": five-nines availability from
//! checkpoint/restart and replication, at what cost.
//!
//! The checkpoint interval sweep (5 intervals x 8 seeds, each a 100 h
//! simulated job) fans out on the executor from [`RunCtx`]; every number
//! is byte-identical for every `--threads` count.

use xxi_cloud::obs::ObservedFanout;
use xxi_core::des::fault::{FaultMix, FaultPlan, Topology};
use xxi_core::obs::Trace;
use xxi_core::par;
use xxi_core::table::fnum;
use xxi_core::units::Seconds;
use xxi_core::{Report, SimTime, Table};
use xxi_rel::checkpoint::{availability, efficiency, nines, young_daly_interval, CheckpointSim};

use crate::{quantile_row, quantile_table};

use super::{Experiment, RunCtx};

pub struct E17Availability;

impl Experiment for E17Availability {
    fn id(&self) -> &'static str {
        "e17"
    }

    fn title(&self) -> &'static str {
        "Always online: checkpointing, replication, observed fan-out"
    }

    fn paper_claim(&self) -> &'static str {
        "Table A.2: 'Always Online' — five 9s at every scale"
    }

    fn emits_trace(&self) -> bool {
        true
    }

    fn parallel(&self) -> bool {
        true
    }

    // 40 checkpoint sims x 100 simulated hours each dominate the run,
    // plus the 2 planned (correlated vs independent) 100 h jobs.
    fn work_units(&self) -> Option<(&'static str, f64)> {
        Some(("sim_hours", 4_200.0))
    }

    fn fill(&self, ctx: &RunCtx, r: &mut Report) {
        let exec = ctx.exec();
        let delta = Seconds(30.0);
        let restart = Seconds(120.0);

        r.section("Young-Daly: optimal checkpoint interval vs MTBF (delta = 30 s)");
        let mut t = Table::new(&["MTBF", "tau* (min)", "analytic efficiency at tau*"]);
        for hours in [1.0, 4.0, 24.0, 24.0 * 7.0] {
            let mtbf = Seconds::from_hours(hours);
            let tau = young_daly_interval(delta, mtbf);
            t.row(&[
                format!("{hours} h"),
                fnum(tau.value() / 60.0),
                fnum(efficiency(tau, delta, restart, mtbf)),
            ]);
        }
        r.table(t);

        r.section("Simulated 100 h job, MTBF 4 h: interval sweep (8 seeds each)");
        let mtbf = Seconds::from_hours(4.0);
        let yd = young_daly_interval(delta, mtbf);
        let mut t = Table::new(&["tau / tau*", "efficiency", "failures survived"]);
        let mults = [0.0625, 0.25, 1.0, 4.0, 16.0];
        // All (interval, seed) pairs fan out together; each result is one
        // run's (efficiency, failures). Aggregation below walks them in a
        // fixed order, so the table is executor-independent.
        let seeds: Vec<u64> = (0..8).map(|s| ctx.seed_or(s)).collect();
        let runs = par::map(exec, mults.len() * 8, |k| {
            let sim = CheckpointSim {
                tau: Seconds(yd.value() * mults[k / 8]),
                delta,
                restart,
                mtbf,
            };
            let o = sim.run(Seconds::from_hours(100.0), seeds[k % 8]);
            (o.efficiency, o.failures)
        });
        ctx.count("ckpt.sims", runs.len() as u64);
        for (m, mult) in mults.iter().enumerate() {
            let mut eff = 0.0;
            let mut fails = 0u64;
            for s in 0..8 {
                let (e, f) = runs[m * 8 + s];
                eff += e / 8.0;
                fails += f / 8;
            }
            ctx.observe("ckpt.efficiency", eff);
            ctx.count("ckpt.failures_survived", fails);
            t.row(&[fnum(*mult), fnum(eff), fails.to_string()]);
        }
        r.table(t);

        r.section("Correlated bursts vs independent failures (equal 32-kill budget)");
        // The same 100 h job on a 64-node machine, checkpointing at tau*,
        // against two planned fault processes with the SAME budget: 32
        // independent kills scattered over the horizon vs the same 32 kills
        // drawn as 4 rack-blasts (8 nodes each, striking at one instant).
        // A blast costs one restart however many nodes it takes out, so the
        // correlated machine loses less work — the blast-radius argument
        // for failure-domain-aware placement.
        let sim = CheckpointSim {
            tau: yd,
            delta,
            restart,
            mtbf,
        };
        let ckpt_horizon = SimTime::from_seconds(Seconds(400_000.0));
        let fp_seed = ctx.seed_or(13);
        let indep = FaultPlan::seeded(fp_seed, ckpt_horizon, 64, 0.5, FaultMix::kills_only());
        let corr = FaultPlan::correlated(
            fp_seed,
            ckpt_horizon,
            &Topology::blocks(64, 8),
            0.5,
            FaultMix::kills_only(),
        );
        let mut t = Table::new(&[
            "fault process",
            "kills",
            "outages",
            "failures hit",
            "efficiency",
            "wall (h)",
        ]);
        let mut accounting = Vec::new();
        let mut planned = Vec::new();
        for (name, plan) in [("independent", &indep), ("correlated (8 racks)", &corr)] {
            let o = sim.run_planned(Seconds::from_hours(100.0), plan, 64);
            ctx.count("ckpt.sims", 1);
            ctx.observe("ckpt.efficiency", o.outcome.efficiency);
            t.row(&[
                name.to_string(),
                plan.events().len().to_string(),
                o.outages.to_string(),
                o.outcome.failures.to_string(),
                fnum(o.outcome.efficiency),
                fnum(o.outcome.wall.hours()),
            ]);
            accounting.push(format!(
                "{name}: scheduled {} == fired {} + cancelled {}",
                o.metrics.counter("fault.scheduled"),
                o.metrics.counter("fault.fired"),
                o.metrics.counter("fault.cancelled"),
            ));
            planned.push(o);
        }
        r.table(t);
        r.text(format!("fault accounting: {}", accounting.join("; ")));
        r.finding(
            "correlated_efficiency_gain",
            planned[1].outcome.efficiency - planned[0].outcome.efficiency,
            "efficiency (correlated - independent, equal budget)",
        );

        r.section("Availability vs repair speed and replication");
        let mut t = Table::new(&[
            "configuration",
            "availability",
            "nines",
            "downtime/yr (min)",
        ]);
        for (name, a) in [
            (
                "1 replica, MTTR 4 h, MTBF 1000 h",
                availability(Seconds::from_hours(1000.0), Seconds::from_hours(4.0)),
            ),
            (
                "1 replica, MTTR 5 min (auto-restart)",
                availability(Seconds::from_hours(1000.0), Seconds(300.0)),
            ),
            ("2 replicas of 99.9%", 1.0 - (1.0 - 0.999f64).powi(2)),
            ("3 replicas of 99.9%", 1.0 - (1.0 - 0.999f64).powi(3)),
        ] {
            t.row(&[
                name.to_string(),
                format!("{a:.7}"),
                nines(a).to_string(),
                fnum((1.0 - a) * 365.25 * 24.0 * 60.0),
            ]);
        }
        r.table(t);

        r.section("Observed fan-out cluster: where an 'online' request's time and energy go");
        // The serving side of "always online": a 100-leaf fan-out on the DES
        // engine with per-request spans, leaf latency histograms, and an
        // energy ledger — with and without hedging at the leaf p95.
        let base = ObservedFanout {
            requests: 2_000,
            ..ObservedFanout::default()
        };
        let plain = base.run(Trace::disabled());
        let hedged_cfg = ObservedFanout {
            hedge_quantile: Some(0.95),
            ..base
        };
        // The trace captures the hedged run (requests, leaves, hedge instants).
        let hedged = hedged_cfg.run(ctx.trace());

        let mut t = quantile_table("request latency (ms)");
        t.row(&quantile_row("fan-out 100", &plain.request_latency));
        t.row(&quantile_row("  + hedge @p95", &hedged.request_latency));
        t.row(&quantile_row("single leaf", &hedged.leaf_latency));
        r.table(t);
        let extra_load = 100.0 * hedged.metrics.counter("hedges") as f64
            / hedged.metrics.counter("leaves") as f64;
        ctx.count("fanout.requests", 2 * 2_000);
        ctx.count("fanout.hedges", hedged.metrics.counter("hedges"));
        ctx.count("fanout.leaves", hedged.metrics.counter("leaves"));
        ctx.observe("fanout.request_p99_ms", hedged.request_latency.p99());
        r.finding("hedge_extra_load_pct", extra_load, "%");
        r.text(format!(
            "hedges sent: {} ({:.1}% extra load)",
            hedged.metrics.counter("hedges"),
            extra_load
        ));

        r.section("Energy ledger, hedged run (per 2000 requests)");
        r.table(hedged.ledger.table());

        ctx.emit_trace(r, &hedged.trace);

        r.text(
            "\nHeadline: the Young-Daly interval maximizes machine efficiency (the\n\
             simulation's optimum sits at tau*, both shorter and longer lose); at an\n\
             equal kill budget, correlated rack-blasts cost fewer restarts than\n\
             independent failures — blast radius, not fault count, is what the\n\
             checkpoint interval has to amortize; five nines needs either\n\
             minutes-scale repair or 3x replication — the paper's point that 'this\n\
             same availability at a few dollars' is a research gap; and the observed\n\
             cluster shows hedging buying back the p99.9 for ~5% extra load while\n\
             leaf compute dominates the request's energy bill.",
        );
    }
}
