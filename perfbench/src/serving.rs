//! `tail-serving`: the calls of E9, E17 and E21 on a 2-worker pool.
//!
//! Host time goes to xxi-cloud on the xxi-core DES and to Monte Carlo on
//! the `par` seam over the xxi-stack pool. The DES runs two ways (the
//! cancel-heavy cluster beside the M/G/1 queue, which cancels nothing)
//! and so does the pool (fine-grained MC chunks beside nine coarse grid
//! cells). The only workload with a pool.

use std::sync::Mutex;

use xxi_cloud::cluster::{
    cluster_sweep_on, ClusterConfig, ClusterOutcome, Hedging, RetryPolicy, Routing,
};
use xxi_cloud::fanout::fanout_sweep_on;
use xxi_cloud::hedge::hedge_experiment_on;
use xxi_cloud::latency::LatencyDist;
use xxi_cloud::obs::{ClusterObservation, ObservedFanout};
use xxi_cloud::qos::Budget;
use xxi_cloud::queueing::{mg1_sweep_on, MG1Queue};
use xxi_core::des::fault::{Fault, FaultMix, FaultPlan, Topology};
use xxi_core::obs::Trace;
use xxi_core::par::{Parallelism, Serial};
use xxi_core::units::Seconds;
use xxi_core::SimTime;
use xxi_rel::checkpoint::{young_daly_interval, CheckpointSim, PlannedOutcome};
use xxi_stack::Pool;

use crate::pass::{Check, Pass, Seeds};
use crate::probe;

/// Worker threads: the host's core count when this benchmark was defined.
const WORKERS: usize = 2;

fn ms_to_sim(ms: f64) -> SimTime {
    SimTime::from_ps((ms * 1e9).round().max(0.0) as u64)
}

pub struct Inputs {
    pub pool: Pool,
    leaf: LatencyDist,
    // E9
    fanout_seed: u64,
    calib_seed: u64,
    /// The calibration call's mean, which sets the M/G/1 arrival rates.
    mean_service_ms: f64,
    queues: Vec<MG1Queue>,
    mg1_seed: u64,
    /// Fault-free, reboot at 50% (30 s), crash at 80% of the rho 0.85 run.
    mg1_plans: [FaultPlan; 3],
    mg1_fault_seed: u64,
    baseline_seed: u64,
    hedge_seed: u64,
    // E17
    ckpt_sweep: Vec<(CheckpointSim, u64)>,
    ckpt: CheckpointSim,
    /// Independent kills, then the same budget as 4 rack blasts.
    ckpt_plans: [FaultPlan; 2],
    observed: [ObservedFanout; 2],
    // E21
    policy: ClusterConfig,
    naive: ClusterConfig,
    gray: ClusterConfig,
    gray_plan: FaultPlan,
    grid: Vec<ClusterConfig>,
    blast: FaultPlan,
}

const FANOUTS: [u32; 6] = [1, 10, 50, 100, 500, 1000];
const RHOS: [f64; 4] = [0.3, 0.5, 0.7, 0.85];
const HEDGE_QUANTILES: [f64; 3] = [0.90, 0.95, 0.99];
const KILL_RATES: [f64; 5] = [0.0, 0.01, 0.02, 0.05, 0.1];
const CKPT_MULTS: [f64; 5] = [0.0625, 0.25, 1.0, 4.0, 16.0];

pub fn setup(seeds: Seeds) -> Inputs {
    let leaf = LatencyDist::typical_leaf();
    let calib_seed = seeds.or(7);
    // E9 sets its M/G/1 arrival rates from the calibration call's mean;
    // computing it here (serially: the result is executor-independent)
    // lets every queue and fault plan exist before timing starts.
    let mean_service_ms = leaf.sample_summary_on(100_000, calib_seed, &Serial).mean();
    let queues: Vec<MG1Queue> = RHOS
        .iter()
        .map(|&rho| MG1Queue {
            lambda_per_ms: rho / mean_service_ms,
            service: leaf,
        })
        .collect();
    let end_ms = 150_000.0 / queues[3].lambda_per_ms;
    let mut reboot = FaultPlan::new();
    reboot.at(
        ms_to_sim(end_ms * 0.5),
        0,
        Fault::Pause {
            for_time: ms_to_sim(30_000.0),
        },
    );
    let mut crash = FaultPlan::new();
    crash.at(ms_to_sim(end_ms * 0.8), 0, Fault::Kill);

    let delta = Seconds(30.0);
    let restart = Seconds(120.0);
    let mtbf = Seconds::from_hours(4.0);
    let yd = young_daly_interval(delta, mtbf);
    let sim = |tau: Seconds| CheckpointSim {
        tau,
        delta,
        restart,
        mtbf,
    };
    let ckpt_sweep = (0..CKPT_MULTS.len() * 8)
        .map(|k| {
            (
                sim(Seconds(yd.value() * CKPT_MULTS[k / 8])),
                seeds.or(k as u64 % 8),
            )
        })
        .collect();
    let ckpt_horizon = SimTime::from_seconds(Seconds(400_000.0));
    let fp_seed = seeds.or(13);
    let ckpt_plans = [
        FaultPlan::seeded(fp_seed, ckpt_horizon, 64, 0.5, FaultMix::kills_only()),
        FaultPlan::correlated(
            fp_seed,
            ckpt_horizon,
            &Topology::blocks(64, 8),
            0.5,
            FaultMix::kills_only(),
        ),
    ];
    // E17 runs its observed fan-out at the struct's own seed, whatever
    // the run's seed.
    let plain = ObservedFanout {
        requests: 2_000,
        ..ObservedFanout::default()
    };
    let hedged = ObservedFanout {
        hedge_quantile: Some(0.95),
        ..plain
    };

    let policy = ClusterConfig {
        requests: 1_500,
        seed: seeds.or(23),
        ..ClusterConfig::default()
    };
    let naive = ClusterConfig {
        retry: RetryPolicy::none(),
        hedging: Hedging::None,
        budget: Budget::new(2_000.0, 2_000.0),
        seed: seeds.or(41),
        ..policy
    };
    let gray = ClusterConfig {
        requests: 1_200,
        seed: seeds.or(59),
        ..ClusterConfig::default()
    };
    let mut gray_plan = FaultPlan::seeded(
        gray.seed,
        ms_to_sim(gray.horizon_ms()),
        gray.components(),
        1.0,
        FaultMix::gray(),
    );
    let quarter = ms_to_sim(gray.horizon_ms() / 4.0);
    for comp in 0..2 * gray.replicas {
        gray_plan.at(quarter, comp, Fault::Kill);
    }
    let grid_base = ClusterConfig {
        requests: 1_500,
        seed: seeds.or(67),
        ..ClusterConfig::default()
    };
    let mut grid = Vec::new();
    for routing in [
        Routing::RoundRobin,
        Routing::LeastOutstanding,
        Routing::PowerOfTwo,
    ] {
        for hedging in [
            Hedging::fixed(10.0),
            Hedging::adaptive(0.80),
            Hedging::adaptive_capped(0.80),
        ] {
            grid.push(ClusterConfig {
                routing,
                hedging,
                ..grid_base
            });
        }
    }

    Inputs {
        pool: Pool::new(WORKERS),
        leaf,
        fanout_seed: seeds.or(42),
        calib_seed,
        mean_service_ms,
        queues,
        mg1_seed: seeds.or(8),
        mg1_plans: [FaultPlan::new(), reboot, crash],
        mg1_fault_seed: seeds.or(11),
        baseline_seed: seeds.or(9),
        hedge_seed: seeds.or(10),
        ckpt_sweep,
        ckpt: sim(yd),
        ckpt_plans,
        observed: [plain, hedged],
        policy,
        naive,
        gray,
        gray_plan,
        grid,
        blast: two_rack_blast(&grid_base),
    }
}

/// E21's correlated blast: rack 0 (replica column 0 of every shard)
/// slows 6x from 20% of the horizon, rack 1 from 57.5%, 35% each.
fn two_rack_blast(cfg: &ClusterConfig) -> FaultPlan {
    let topo = Topology::striped(cfg.components(), cfg.replicas);
    let horizon = cfg.horizon_ms();
    let mut plan = FaultPlan::new();
    for (rack, start) in [(0, 0.20), (1, 0.575)] {
        plan.at_scope(
            ms_to_sim(horizon * start),
            &topo,
            rack,
            Fault::Slow {
                factor: 6.0,
                for_time: ms_to_sim(horizon * 0.35),
            },
        );
    }
    plan
}

fn cluster(o: &ClusterOutcome, c: &mut Check<'_>) {
    for (label, x) in [
        ("p50", o.p50),
        ("p99", o.p99),
        ("p99.9", o.p999),
        ("mean", o.mean),
        ("goodput_rps", o.goodput_rps),
        ("retry_amp", o.retry_amplification),
        ("partial_frac", o.partial_frac),
    ] {
        c.num(label, x);
    }
    for (label, n) in [
        ("requests", o.requests),
        ("full", o.full),
        ("partial", o.partial),
        ("failed", o.failed),
    ] {
        c.int(label, u64::from(n));
    }
    let m = &o.metrics;
    for label in [
        "cluster.attempts",
        "cluster.retries",
        "cluster.hedges",
        "cluster.timeouts",
        "cluster.refused",
        "cluster.lost_responses",
        "cluster.degraded_accepts",
        "failsafe.transitions",
    ] {
        c.int(label, m.counter(label));
    }
    // A cluster run stops at its last event without firing the plan's
    // remainder: E21's naive sweep at 10% kills settles 3 of 6 faults.
    c.faults(m, false);
    let (full, partial, failed) = (o.full, o.partial, o.failed);
    c.law(full + partial + failed == o.requests, || {
        format!(
            "full {full} + partial {partial} + failed {failed} != requests {}",
            o.requests
        )
    });
    let stale = m.counter("cluster.stale_fires");
    c.law(stale == 0, || format!("{stale} stale timer fires"));
    c.count("cloud.cluster_requests", u64::from(o.requests));
    c.count("des.events_fired", m.counter("des.events_fired"));
    c.count("des.cancelled", m.counter("des.cancelled"));
}

fn observed(o: &ClusterObservation, cfg: &ObservedFanout, c: &mut Check<'_>) {
    c.hist(&o.request_latency);
    c.hist(&o.leaf_latency);
    c.ledger(&o.ledger);
    let (requests, leaves) = (o.metrics.counter("requests"), o.metrics.counter("leaves"));
    c.int("requests", requests);
    c.int("leaves", leaves);
    c.int("hedges", o.metrics.counter("hedges"));
    c.law(
        requests == u64::from(cfg.requests) && leaves == requests * u64::from(cfg.fanout),
        || {
            format!(
                "{requests} requests / {leaves} leaves for {} x {}",
                cfg.requests, cfg.fanout
            )
        },
    );
}

fn planned(o: &PlannedOutcome, c: &mut Check<'_>) {
    c.num("efficiency", o.outcome.efficiency);
    c.num("wall_s", o.outcome.wall.value());
    c.int("failures", o.outcome.failures);
    c.int("outages", o.outages);
    c.faults(&o.metrics, true);
}

/// Slots for results computed on the pool, filled by index.
fn slots<T>(n: usize) -> Vec<Mutex<Option<T>>> {
    (0..n).map(|_| Mutex::new(None)).collect()
}

fn drain<T>(slots: Vec<Mutex<Option<T>>>) -> Vec<Option<T>> {
    slots
        .into_iter()
        .map(|m| m.into_inner().unwrap_or_else(|e| e.into_inner()))
        .collect()
}

pub fn pass(inp: &Inputs, p: &mut Pass<'_>) {
    let exec: &dyn Parallelism = &inp.pool;
    let leaf = inp.leaf;

    // --- E9: fan-out, calibration, M/G/1, faulted M/G/1, hedging.
    p.call(
        "cloud.fanout",
        || fanout_sweep_on(leaf, &FANOUTS, 20_000, inp.fanout_seed, exec),
        |rows, c| {
            for r in rows {
                c.num("p50", r.p50);
                c.num("p99", r.p99);
                c.num("mean", r.mean);
                c.num("frac_hit_by_leaf_p99", r.frac_hit_by_leaf_p99);
            }
            c.count("cloud.mc_trials", 20_000 * rows.len() as u64);
        },
    );
    p.call(
        "cloud.calibrate",
        || leaf.sample_summary_on(100_000, inp.calib_seed, exec),
        |s, c| {
            c.num("mean", s.mean());
            c.law(s.mean().to_bits() == inp.mean_service_ms.to_bits(), || {
                "calibration mean differs from the set-up run".to_string()
            });
            c.count("cloud.mc_trials", s.count() as u64);
        },
    );
    p.call(
        "cloud.mg1",
        || mg1_sweep_on(&inp.queues, 150_000, inp.mg1_seed, exec),
        |rows, c| {
            for q in rows {
                c.num("rho", q.rho);
                c.num("mean_ms", q.mean_ms);
                c.num("p50", q.p50);
                c.num("p99", q.p99);
                c.int("completed", q.completed as u64);
            }
            c.count("cloud.mc_trials", 150_000 * rows.len() as u64);
        },
    );
    for plan in &inp.mg1_plans {
        p.call(
            "cloud.mg1_faulted",
            || inp.queues[3].run_faulted(150_000, inp.mg1_fault_seed, plan),
            |f, c| {
                c.num("p50", f.result.p50);
                c.num("p99", f.result.p99);
                c.num("mean_ms", f.result.mean_ms);
                c.int("completed", f.result.completed as u64);
                c.int("lost", f.lost as u64);
                c.int("refused", f.refused as u64);
                let m = &f.metrics;
                let (arrivals, done, lost, refused) = (
                    m.counter("queue.arrivals"),
                    m.counter("queue.completed"),
                    m.counter("queue.lost_jobs"),
                    m.counter("queue.refused_arrivals"),
                );
                c.law(done + lost + refused == arrivals, || {
                    format!(
                        "completed {done} + lost {lost} + refused {refused} != arrivals {arrivals}"
                    )
                });
                c.faults(m, true);
                c.count("cloud.mc_trials", arrivals);
            },
        );
    }
    p.call(
        "cloud.hedge",
        || leaf.sample_summary_on(300_000, inp.baseline_seed, exec),
        |s, c| {
            c.num("p50", s.median());
            c.num("p99", s.percentile(99.0));
            c.num("p99.9", s.percentile(99.9));
            c.count("cloud.mc_trials", s.count() as u64);
        },
    );
    for q in HEDGE_QUANTILES {
        p.call(
            "cloud.hedge",
            || hedge_experiment_on(leaf, q, 300_000, inp.hedge_seed, exec),
            |h, c| {
                c.num("deadline_ms", h.deadline_ms);
                c.num("p50", h.p50);
                c.num("p99", h.p99);
                c.num("p99.9", h.p999);
                c.num("extra_load", h.extra_load);
                c.count("cloud.mc_trials", 300_000);
            },
        );
    }

    // --- E17: checkpoint sweep and planned faults, observed fan-out.
    p.call(
        "rel.checkpoint",
        || {
            let out = slots(inp.ckpt_sweep.len());
            exec.for_tasks(out.len(), &|k| {
                let (sim, seed) = &inp.ckpt_sweep[k];
                let o = sim.run(Seconds::from_hours(100.0), *seed);
                *out[k].lock().unwrap_or_else(|e| e.into_inner()) = Some(o);
            });
            drain(out)
        },
        |runs, c| {
            for o in runs {
                c.law(o.is_some(), || "a checkpoint task never ran".to_string());
                if let Some(o) = o {
                    c.num("efficiency", o.efficiency);
                    c.int("failures", o.failures);
                }
            }
        },
    );
    for plan in &inp.ckpt_plans {
        p.call(
            "rel.checkpoint",
            || inp.ckpt.run_planned(Seconds::from_hours(100.0), plan, 64),
            planned,
        );
    }
    for cfg in &inp.observed {
        p.call(
            "cloud.observed_fanout",
            || cfg.run(Trace::disabled()),
            |o, c| observed(o, cfg, c),
        );
    }

    // --- E21: kill-rate sweeps, the gray storm, the policy grid.
    for base in [&inp.policy, &inp.naive] {
        p.call(
            "cloud.cluster_sweep",
            || cluster_sweep_on(base, &KILL_RATES, FaultMix::kills_only(), exec),
            |rows, c| {
                for o in rows {
                    cluster(o, c);
                }
            },
        );
    }
    p.call(
        "cloud.cluster_run",
        || inp.gray.run(&inp.gray_plan),
        cluster,
    );
    let traced = p.traced();
    let cells = p.call(
        "cloud.cluster_run",
        || {
            let out = slots(inp.grid.len());
            exec.for_tasks(out.len(), &|i| {
                let t0 = if traced { probe::now() } else { 0.0 };
                let o = inp.grid[i].run(&inp.blast);
                let dt = if traced { probe::now() - t0 } else { 0.0 };
                *out[i].lock().unwrap_or_else(|e| e.into_inner()) = Some((o, dt));
            });
            drain(out)
        },
        |cells, c| {
            for cell in cells {
                c.law(cell.is_some(), || "a grid cell never ran".to_string());
                if let Some((o, _)) = cell {
                    cluster(o, c);
                }
            }
        },
    );
    if let Some(cells) = cells {
        p.cell_times = cells.iter().flatten().map(|(_, dt)| *dt).collect();
    }
}
