//! E21 — fault-tolerant serving: timeouts, retries, and failover keep the
//! tail bounded while replicas die.
//!
//! §2.1 asks for architectures that "guarantee strict worst-case latency
//! requirements"; §2.4 asks the same stack to stay dependable on
//! undependable parts. This experiment runs the fault-injected cluster
//! model (`xxi_cloud::cluster`) over a leaf-kill-rate sweep and shows the
//! serving policy (budgeted timeouts + jittered-backoff retries + replica
//! failover + hedging) holding p99.9 near the fault-free tail, while
//! naive single-attempt serving strands requests on dead replicas for as
//! long as its deadline allows. A gray-failure storm then exercises the
//! failsafe machine's graceful degradation to partial results. Finally a
//! 3×3 policy grid — {round-robin, least-outstanding, power-of-two}
//! routing × {fixed, adaptive, capped-adaptive} hedging — runs under a
//! correlated two-rack blast-radius plan, showing load-aware routing and
//! quantile-tracking hedging beating the static policies on p99.9 at
//! lower retry amplification, and the capped-adaptive guard repairing
//! the digest-poisoning regression that raw adaptive hedging suffers
//! under round-robin.
//!
//! Every sweep fans out on the executor from [`RunCtx`]; all numbers are
//! byte-identical at every `--threads` count. With `--trace`, the
//! winning grid cell re-runs with per-attempt spans (dispatch, retry,
//! hedge, and failover instants) on the Chrome timeline.

use xxi_cloud::cluster::{cluster_sweep_on, ClusterConfig, Hedging, RetryPolicy, Routing};
use xxi_cloud::qos::Budget;
use xxi_core::des::fault::{Fault, FaultMix, FaultPlan, Topology};
use xxi_core::par;
use xxi_core::table::fnum;
use xxi_core::Report;
use xxi_core::{SimTime, Table};

use super::{Experiment, RunCtx};

pub struct E21Faults;

/// The correlated two-rack blast: under the striped topology (rack `r` =
/// replica column `r` of every shard), rack 0's switch degrades — a
/// scope-wide 6× slowdown striking every member at the same instant — at
/// 20% of the horizon, then recovers; rack 1's does the same at 57.5%.
/// During each blast one of every shard's three replicas serves at 6×
/// (past the attempt timeout) and the policies must route around it.
pub(super) fn two_rack_blast(cfg: &ClusterConfig) -> (Topology, FaultPlan) {
    let topo = Topology::striped(cfg.components(), cfg.replicas);
    let horizon = cfg.horizon_ms();
    let mut plan = FaultPlan::new();
    for (rack, start) in [(0, 0.20), (1, 0.575)] {
        plan.at_scope(
            SimTime::from_ms_f64(horizon * start),
            &topo,
            rack,
            Fault::Slow {
                factor: 6.0,
                for_time: SimTime::from_ms_f64(horizon * 0.35),
            },
        );
    }
    (topo, plan)
}

impl Experiment for E21Faults {
    fn id(&self) -> &'static str {
        "e21"
    }

    fn title(&self) -> &'static str {
        "Fault-tolerant serving: retries, failover, graceful degradation"
    }

    fn paper_claim(&self) -> &'static str {
        "§2.1/§2.4: strict latency targets on undependable, fault-ridden parts"
    }

    fn parallel(&self) -> bool {
        true
    }

    fn emits_trace(&self) -> bool {
        true
    }

    // 2 sweeps x 5 rates x 1500 requests + the gray storm's 1200 + the
    // 3x3 policy grid x 1500.
    fn work_units(&self) -> Option<(&'static str, f64)> {
        Some(("requests", 29_700.0))
    }

    fn fill(&self, ctx: &RunCtx, r: &mut Report) {
        let exec = ctx.exec();
        let rates = [0.0, 0.01, 0.02, 0.05, 0.1];

        // The disciplined policy: 60 ms deadline sliced into 18 ms
        // attempts, 3 attempts with jittered exponential backoff and
        // failover, hedge at 10 ms.
        let policy = ClusterConfig {
            requests: 1_500,
            seed: ctx.seed_or(23),
            ..ClusterConfig::default()
        };
        // Naive serving: one attempt, no hedge, and a deadline as slack
        // as its operators' patience (2 s) — requests stranded on dead
        // replicas wait all of it out.
        let naive = ClusterConfig {
            retry: RetryPolicy::none(),
            hedging: Hedging::None,
            budget: Budget::new(2_000.0, 2_000.0),
            seed: ctx.seed_or(41),
            ..policy
        };

        r.section("Cluster: 20 shards x 3 replicas, 1500 requests, 60 ms deadline");
        r.text(format!(
            "policy: {} attempts, {} ms base backoff x{} (jitter {}), {} routing, {}\n\
             naive:  1 attempt, no hedge, 2000 ms deadline",
            policy.retry.max_attempts,
            policy.retry.backoff_base_ms,
            policy.retry.backoff_mult,
            policy.retry.jitter,
            policy.routing.describe(),
            policy.hedging.describe(),
        ));

        r.section("Kill-rate sweep: retry+failover policy vs naive serving");
        let pol = cluster_sweep_on(&policy, &rates, FaultMix::kills_only(), exec);
        let nai = cluster_sweep_on(&naive, &rates, FaultMix::kills_only(), exec);
        let mut t = Table::new(&[
            "kill rate",
            "p99 (ms)",
            "p99.9 (ms)",
            "full %",
            "retry amp",
            "naive p99 (ms)",
            "naive full %",
        ]);
        for (i, rate) in rates.iter().enumerate() {
            let p = &pol[i];
            let n = &nai[i];
            let full = 100.0 * p.full as f64 / p.requests as f64;
            let n_full = 100.0 * n.full as f64 / n.requests as f64;
            t.row(&[
                format!("{:.1}%", rate * 100.0),
                fnum(p.p99),
                fnum(p.p999),
                format!("{full:.2}"),
                fnum(p.retry_amplification),
                fnum(n.p99),
                format!("{n_full:.2}"),
            ]);
            ctx.observe("cluster.policy_p999_ms", p.p999);
            ctx.observe("cluster.naive_p999_ms", n.p999);
            ctx.count("cluster.requests", (p.requests + n.requests) as u64);
            ctx.count("cluster.retries", p.metrics.counter("cluster.retries"));
            ctx.count("cluster.hedges", p.metrics.counter("cluster.hedges"));
            ctx.count("fault.scheduled", p.metrics.counter("fault.scheduled"));
            ctx.count("fault.fired", p.metrics.counter("fault.fired"));
            ctx.count("fault.cancelled", p.metrics.counter("fault.cancelled"));
        }
        r.table(t);

        let base_p999 = pol[0].p999;
        let at1 = &pol[1];
        let tail_ratio = at1.p999 / base_p999;
        ctx.gauge("cluster.goodput_rps_at_1pct", at1.goodput_rps);
        r.finding("policy_p999_over_faultfree_at_1pct_kills", tail_ratio, "x");
        r.finding("naive_p999_at_1pct_kills", nai[1].p999, "ms");
        r.finding(
            "retry_amplification_at_1pct_kills",
            at1.retry_amplification,
            "x",
        );

        r.section("Fault accounting (policy sweep): scheduled == fired + cancelled");
        let mut t = Table::new(&["kill rate", "scheduled", "fired", "cancelled"]);
        for (i, rate) in rates.iter().enumerate() {
            let m = &pol[i].metrics;
            t.row(&[
                format!("{:.1}%", rate * 100.0),
                m.counter("fault.scheduled").to_string(),
                m.counter("fault.fired").to_string(),
                m.counter("fault.cancelled").to_string(),
            ]);
        }
        r.table(t);

        r.section("Gray-failure storm: pauses + slowdowns + a two-shard blackout");
        // One fault per replica (mixed pauses/slows/kills), plus a forced
        // kill of every replica of shards 0 and 1 a quarter into the run:
        // full coverage becomes impossible and the failsafe machine must
        // degrade for requests to keep landing as partial results.
        let gray = ClusterConfig {
            requests: 1_200,
            seed: ctx.seed_or(59),
            ..ClusterConfig::default()
        };
        let mut plan = FaultPlan::seeded(
            gray.seed,
            SimTime::from_ms_f64(gray.horizon_ms()),
            gray.components(),
            1.0,
            FaultMix::gray(),
        );
        let quarter = SimTime::from_ms_f64(gray.horizon_ms() / 4.0);
        for comp in 0..2 * gray.replicas {
            plan.at(quarter, comp, Fault::Kill);
        }
        let storm = gray.run(&plan);
        let mut t = Table::new(&["outcome", "requests", "fraction"]);
        for (name, n) in [
            ("full", storm.full),
            ("partial", storm.partial),
            ("failed", storm.failed),
        ] {
            t.row(&[
                name.to_string(),
                n.to_string(),
                format!("{:.3}", n as f64 / storm.requests as f64),
            ]);
        }
        r.table(t);
        r.text(format!(
            "failsafe transitions: {}   degraded-mode accepts: {}   final mode gauge: {}",
            storm.metrics.counter("failsafe.transitions"),
            storm.metrics.counter("cluster.degraded_accepts"),
            storm.metrics.gauge_value("failsafe.final_mode"),
        ));
        ctx.count("cluster.requests", storm.requests as u64);
        ctx.count(
            "cluster.degraded_accepts",
            storm.metrics.counter("cluster.degraded_accepts"),
        );
        ctx.count(
            "failsafe.transitions",
            storm.metrics.counter("failsafe.transitions"),
        );
        r.finding(
            "gray_storm_partial_fraction",
            storm.partial_frac,
            "of answered",
        );

        r.section("Policy grid: routing x hedging under a correlated two-rack blast");
        // Same cluster, same seed, same plan for all four cells; only the
        // policies differ. The blast (see `two_rack_blast`) slows rack 0,
        // then rack 1 — every shard keeps two healthy replicas
        // throughout, so the grid isolates how well each policy routes
        // around the slow one.
        let grid_base = ClusterConfig {
            requests: 1_500,
            seed: ctx.seed_or(67),
            ..ClusterConfig::default()
        };
        let (topo, blast) = two_rack_blast(&grid_base);
        r.text(format!(
            "topology: {} replicas striped over {} racks; rack 0 slowed 6x \
             from 20% of the run, rack 1 from 57.5%, 35% of the run each",
            grid_base.components(),
            topo.scopes(),
        ));
        let cells = [
            (Routing::RoundRobin, Hedging::fixed(10.0)),
            (Routing::RoundRobin, Hedging::adaptive(0.80)),
            (Routing::RoundRobin, Hedging::adaptive_capped(0.80)),
            (Routing::LeastOutstanding, Hedging::fixed(10.0)),
            (Routing::LeastOutstanding, Hedging::adaptive(0.80)),
            (Routing::LeastOutstanding, Hedging::adaptive_capped(0.80)),
            (Routing::PowerOfTwo, Hedging::fixed(10.0)),
            (Routing::PowerOfTwo, Hedging::adaptive(0.80)),
            (Routing::PowerOfTwo, Hedging::adaptive_capped(0.80)),
        ];
        let grid = par::map(exec, cells.len(), |i| {
            let (routing, hedging) = cells[i];
            let cfg = ClusterConfig {
                routing,
                hedging,
                ..grid_base
            };
            cfg.run(&blast)
        });

        let mut t = Table::new(&[
            "routing",
            "hedging",
            "p99 (ms)",
            "p99.9 (ms)",
            "full %",
            "retry amp",
            "hedges",
            "timeouts",
        ]);
        for ((routing, hedging), out) in cells.iter().zip(&grid) {
            t.row(&[
                routing.describe().to_string(),
                hedging.describe().to_string(),
                fnum(out.p99),
                fnum(out.p999),
                format!("{:.2}", 100.0 * out.full as f64 / out.requests as f64),
                fnum(out.retry_amplification),
                out.metrics.counter("cluster.hedges").to_string(),
                out.metrics.counter("cluster.timeouts").to_string(),
            ]);
            ctx.count("cluster.requests", out.requests as u64);
            ctx.count("cluster.hedges", out.metrics.counter("cluster.hedges"));
            // DES engine telemetry: cancelled timers absorb what used to
            // fire as settled-attempt no-ops; the stale-fire tripwire
            // must stay zero.
            ctx.count("des.events_fired", out.metrics.counter("des.events_fired"));
            ctx.count("des.cancelled", out.metrics.counter("des.cancelled"));
            ctx.count(
                "cluster.stale_fires",
                out.metrics.counter("cluster.stale_fires"),
            );
        }
        r.table(t);

        r.section("Fault accounting (policy grid): scheduled == fired + cancelled");
        let m = &grid[0].metrics;
        r.text(format!(
            "blast plan: scheduled {} == fired {} + cancelled {} (identical across cells)",
            m.counter("fault.scheduled"),
            m.counter("fault.fired"),
            m.counter("fault.cancelled"),
        ));
        ctx.count("fault.scheduled", m.counter("fault.scheduled"));
        ctx.count("fault.fired", m.counter("fault.fired"));
        ctx.count("fault.cancelled", m.counter("fault.cancelled"));

        let rr_fixed = &grid[0];
        let rr_adaptive = &grid[1];
        let rr_capped = &grid[2];
        let lor_adaptive = &grid[4];
        r.finding("grid_rr_fixed_p999", rr_fixed.p999, "ms");
        r.finding("grid_lor_adaptive_p999", lor_adaptive.p999, "ms");
        // The digest-poisoning regression and its guard: under round-robin
        // the blast drags the online p80 past the attempt timeout, so raw
        // adaptive hedges arrive too late to rescue attempts; capping the
        // delay at the static fallback repairs the tail.
        r.finding("grid_rr_adaptive_p999", rr_adaptive.p999, "ms");
        r.finding(
            "grid_capped_hedge_rescue",
            rr_adaptive.p999 / rr_capped.p999,
            "x (round-robin adaptive over capped-adaptive)",
        );
        r.finding(
            "grid_p999_win",
            rr_fixed.p999 / lor_adaptive.p999,
            "x (round-robin+fixed over least-outstanding+adaptive)",
        );
        r.finding(
            "grid_retry_amp_delta",
            rr_fixed.retry_amplification - lor_adaptive.retry_amplification,
            "attempts/query saved",
        );

        // With --trace, re-run the winning cell recording per-attempt
        // spans: dispatch/outcome on track 1+shard, retry/hedge instants
        // alongside, request spans and deadline instants on track 0.
        if ctx.trace_path.is_some() {
            let winner = ClusterConfig {
                routing: Routing::LeastOutstanding,
                hedging: Hedging::adaptive(0.80),
                ..grid_base
            };
            let (_, trace) = winner.run_traced(&blast, ctx.trace());
            ctx.emit_trace(r, &trace);
        }

        r.text(format!(
            "\nHeadline: at a 1% leaf-kill rate the budgeted-retry+failover policy\n\
             holds p99.9 at {}x the fault-free tail ({} ms vs {} ms) for {}x\n\
             request amplification, while naive serving strands requests on dead\n\
             replicas until its 2 s deadline ({} ms p99.9); under a gray-failure\n\
             storm the failsafe machine degrades to partial results instead of\n\
             failing; and when two racks blast at once, load-aware routing plus\n\
             quantile-tracking hedging cut p99.9 from {} ms to {} ms while\n\
             *reducing* retry amplification — the paper's strict-tail and\n\
             dependability agendas only compose when the serving layer spends\n\
             its latency budget this way.",
            fnum(tail_ratio),
            fnum(at1.p999),
            fnum(base_p999),
            fnum(at1.retry_amplification),
            fnum(nai[1].p999),
            fnum(rr_fixed.p999),
            fnum(lor_adaptive.p999),
        ));
    }
}
