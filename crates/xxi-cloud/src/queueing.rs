//! An M/G/1 queueing server — where stragglers come from.
//!
//! The fan-out arithmetic takes the leaf latency distribution as given;
//! this module shows why it has a tail at all: a server at utilization ρ
//! amplifies service-time variability into queueing delay (for M/M/1, mean
//! sojourn `= s/(1−ρ)`; the p99 inflates even faster). Experiment E9 uses
//! this to connect "run your servers hotter" to "your fan-out tail gets
//! worse".
//!
//! The server is also a fault-injection client ([`MG1Queue::run_faulted`]):
//! component 0 of a [`FaultPlan`] is the server itself. A kill or pause
//! that fires while jobs are resident (queued or in service) loses them; a
//! dead server refuses new arrivals; a paused server defers service to the
//! pause expiry. [`MG1Queue::run`] is the empty-plan special case —
//! bit-identical to the pre-fault-seam behavior. [`MG1Queue::run_faulted_each`]
//! runs several plans at one seed and draws their shared calibration once.
//!
//! The queue does not run on the DES engine, because its events never
//! interact. A FIFO server fixes each job's finish time the moment the job
//! arrives (Lindley's recursion: it starts when the server frees up), so
//! the run is one loop over the arrivals in order. Finish times never decrease, so
//! the jobs still resident wait in a FIFO, and each is settled (lost or
//! completed) before the first arrival after its finish. The loop makes
//! the DES's draws in the DES's order and gives the bits the DES gave; a
//! `#[cfg(test)]` copy of the DES version is its oracle.

use std::collections::VecDeque;

use crate::latency::LatencyDist;
use xxi_core::des::fault::{FaultInjector, FaultPlan};
use xxi_core::metrics::Metrics;
use xxi_core::par::{self, Parallelism, Serial};
use xxi_core::rng::Rng64;
use xxi_core::stats::Summary;
use xxi_core::time::SimTime;

/// M/G/1 queue configuration.
#[derive(Clone, Debug)]
pub struct MG1Queue {
    /// Mean arrival rate (requests per ms).
    pub lambda_per_ms: f64,
    /// Service-time distribution (ms).
    pub service: LatencyDist,
}

/// Results of a queueing run.
#[derive(Clone, Debug)]
pub struct QueueResult {
    /// Offered utilization ρ = λ·E\[S\].
    pub rho: f64,
    /// Mean sojourn (queueing + service) in ms.
    pub mean_ms: f64,
    /// Median sojourn.
    pub p50: f64,
    /// 99th-percentile sojourn.
    pub p99: f64,
    /// Requests completed.
    pub completed: usize,
}

/// Results of a fault-injected queueing run ([`MG1Queue::run_faulted`]).
#[derive(Clone, Debug)]
pub struct FaultedQueueResult {
    /// Sojourn statistics over the jobs that survived.
    pub result: QueueResult,
    /// Jobs wiped by a crash/reboot while resident (queued or in service).
    pub lost: usize,
    /// Arrivals refused because the server was dead.
    pub refused: usize,
    /// `queue.*` counters plus the fault accounting
    /// (`fault.scheduled == fault.fired + fault.cancelled`).
    pub metrics: Metrics,
}

/// The server is fault-plan component 0.
const SERVER: u32 = 0;

/// A job the server accepted and has not settled yet.
#[derive(Clone, Copy)]
struct Resident {
    arrived_at: SimTime,
    finish: SimTime,
    /// The server's disruption count at arrival: a kill or pause that
    /// fires before `finish` wipes the job with the server's memory.
    epoch: u64,
}

impl MG1Queue {
    /// Run `requests` arrivals and collect sojourn-time statistics (the
    /// first 10% are discarded as warmup).
    ///
    /// The empirical-ρ calibration draws from its own sub-seed, disjoint
    /// from the stream that drives the arrivals and services. (The
    /// original implementation estimated the mean service time from 100k
    /// draws of the *same* `Rng64` that then generated arrivals and
    /// services, so the measured sojourns silently depended on the
    /// calibration draw count.)
    pub fn run(&self, requests: usize, seed: u64) -> QueueResult {
        self.run_faulted(requests, seed, &FaultPlan::new()).result
    }

    /// [`MG1Queue::run`] with the server exposed to a [`FaultPlan`]
    /// (component 0 = the server): a kill or pause wipes every resident
    /// job, a dead server refuses arrivals, a paused server defers
    /// service to the pause expiry, and a slowdown stretches it. With an
    /// empty plan this is bit-identical to the fault-free run.
    pub fn run_faulted(&self, requests: usize, seed: u64, plan: &FaultPlan) -> FaultedQueueResult {
        let mut runs = self.run_faulted_each(requests, seed, std::slice::from_ref(plan), &Serial);
        runs.remove(0)
    }

    /// One [`MG1Queue::run_faulted`] per plan, on `exec`; results come back
    /// in plan order, each with the bits of its own `run_faulted` call.
    /// The runs share one seed, so the service-mean calibration is drawn
    /// once, on the same map as the runs.
    pub fn run_faulted_each(
        &self,
        requests: usize,
        seed: u64,
        plans: &[FaultPlan],
        exec: &dyn Parallelism,
    ) -> Vec<FaultedQueueResult> {
        assert!(requests > 10);
        let (mut runs, means) = runs_and_calibrations(
            plans.len(),
            |i| self.simulate(requests, seed, &plans[i]),
            &[self.service],
            seed,
            exec,
        );
        for run in &mut runs {
            run.result.rho = self.lambda_per_ms * means[0];
        }
        runs
    }

    /// [`MG1Queue::run_faulted`] before its `rho`, which needs the
    /// service-mean calibration: the caller sets it to `lambda_per_ms`
    /// times [`calibrated_mean`].
    fn simulate(&self, requests: usize, seed: u64, plan: &FaultPlan) -> FaultedQueueResult {
        let mut root = Rng64::new(seed);
        let _calib_seed = root.next_u64();
        let mut rng = Rng64::new(root.next_u64());
        let service = self.service.sampler();
        let mut faults = FaultInjector::new(plan, 1);
        let mut resident: VecDeque<Resident> = VecDeque::new();
        let mut sojourns_ms = Vec::with_capacity(requests);
        let (mut lost, mut refused) = (0usize, 0usize);
        // Time the server becomes free.
        let mut server_free_at = SimTime::ZERO;
        let (mut now, mut left) = (SimTime::ZERO, requests);
        loop {
            // Settle the jobs that finish by this arrival, or all of them
            // after the last one. The DES may fire a completion after an
            // arrival at the same instant, but the order cannot change any
            // output: both call `advance` at that instant, neither changes
            // what the other reads, and sojourns still leave the FIFO in
            // arrival order.
            let due = if left > 0 { now } else { SimTime::MAX };
            while let Some(&job) = resident.front() {
                if job.finish > due {
                    break;
                }
                resident.pop_front();
                faults.advance(job.finish);
                if faults.disruptions(SERVER) != job.epoch {
                    lost += 1;
                } else {
                    sojourns_ms.push(job.finish.since(job.arrived_at).ms());
                }
            }
            if left == 0 {
                break;
            }
            left -= 1;
            // The DES's draw order: the next gap (none after the last
            // arrival), then this job's service, then the health check.
            let arrived_at = now;
            if left > 0 {
                let gap = SimTime::from_ms_f64(rng.exp(self.lambda_per_ms));
                now = now.saturating_add(gap);
            }
            faults.advance(arrived_at);
            // The service draw happens before the health check so every
            // arrival consumes the same RNG stream regardless of the plan.
            let service_ms = service.sample(&mut rng);
            let Some(ready) = faults.up_at(SERVER, arrived_at) else {
                // Dead server: the connection is refused, the job is never queued.
                refused += 1;
                continue;
            };
            // A paused server accepts the job but can only start it at the
            // pause expiry; the slowdown in effect at arrival stretches the
            // service.
            let service_ms = service_ms * faults.slowdown(SERVER, arrived_at);
            let start = server_free_at.max(arrived_at).max(ready);
            let finish = start.saturating_add(SimTime::from_ms_f64(service_ms));
            server_free_at = finish;
            resident.push_back(Resident {
                arrived_at,
                finish,
                epoch: faults.disruptions(SERVER),
            });
        }
        // Fire any plan remainder past the last event so the accounting
        // always covers the whole plan.
        faults.advance(SimTime::MAX);
        let warmup = (requests / 10).min(sojourns_ms.len());
        let xs = &sojourns_ms[warmup..];
        let sm = Summary::from_slice(xs);
        let (p50, p99) = if sm.count() == 0 {
            (0.0, 0.0)
        } else {
            (sm.median(), sm.percentile(99.0))
        };
        let mut metrics = Metrics::new();
        metrics.count("queue.arrivals", requests as u64);
        metrics.count("queue.completed", sojourns_ms.len() as u64);
        metrics.count("queue.lost_jobs", lost as u64);
        metrics.count("queue.refused_arrivals", refused as u64);
        faults.record(&mut metrics);
        FaultedQueueResult {
            result: QueueResult {
                rho: f64::NAN,
                mean_ms: sm.mean(),
                p50,
                p99,
                completed: xs.len(),
            },
            lost,
            refused,
            metrics,
        }
    }
}

/// The empirical mean service time behind ρ: 100k draws of `service` on
/// the calibration sub-seed of `seed`.
fn calibrated_mean(service: &LatencyDist, seed: u64) -> f64 {
    let mut calib = Rng64::new(Rng64::new(seed).next_u64());
    service.sample_summary(100_000, &mut calib).mean()
}

/// Run one [`MG1Queue::run`] per configuration on `exec`; results come
/// back in input order. Each run is a sequential loop, so the numbers are
/// independent of the executor — only the wall clock changes when
/// configurations run concurrently. The runs share one seed, so each
/// distinct service (equal by bits) draws its calibration once, and its
/// runs share it; nothing is kept past this call. The calibrations run on
/// the same map as the queues: a queue needs its mean only for `rho`,
/// which is set once the map is done.
pub fn mg1_sweep_on(
    queues: &[MG1Queue],
    requests: usize,
    seed: u64,
    exec: &dyn Parallelism,
) -> Vec<QueueResult> {
    assert!(requests > 10);
    let mut services: Vec<LatencyDist> = Vec::new();
    let slot: Vec<usize> = queues
        .iter()
        .map(|q| {
            let bits = q.service.bits();
            services
                .iter()
                .position(|s| s.bits() == bits)
                .unwrap_or_else(|| {
                    services.push(q.service);
                    services.len() - 1
                })
        })
        .collect();
    let plan = FaultPlan::new();
    let (runs, means) = runs_and_calibrations(
        queues.len(),
        |i| queues[i].simulate(requests, seed, &plan),
        &services,
        seed,
        exec,
    );
    runs.into_iter()
        .zip(queues.iter().zip(slot))
        .map(|(run, (q, s))| QueueResult {
            rho: q.lambda_per_ms * means[s],
            ..run.result
        })
        .collect()
}

/// A job on [`runs_and_calibrations`]' map.
enum Done {
    Run(FaultedQueueResult),
    Mean(f64),
}

/// `runs` queue runs and one [`calibrated_mean`] per service, on one map:
/// the runs first, then the calibrations.
fn runs_and_calibrations(
    runs: usize,
    run: impl Fn(usize) -> FaultedQueueResult + Sync,
    services: &[LatencyDist],
    seed: u64,
    exec: &dyn Parallelism,
) -> (Vec<FaultedQueueResult>, Vec<f64>) {
    let done = par::map(exec, runs + services.len(), |i| match i.checked_sub(runs) {
        None => Done::Run(run(i)),
        Some(s) => Done::Mean(calibrated_mean(&services[s], seed)),
    });
    let (mut results, mut means) = (Vec::with_capacity(runs), Vec::with_capacity(services.len()));
    for d in done {
        match d {
            Done::Run(r) => results.push(r),
            Done::Mean(m) => means.push(m),
        }
    }
    (results, means)
}

/// The DES version of the queue that the loop replaced, verbatim: the
/// loop's oracle.
#[cfg(test)]
mod reference {
    use super::*;
    use xxi_core::des::Sim;

    struct QState {
        rng: Rng64,
        service: LatencyDist,
        lambda_per_ms: f64,
        faults: FaultInjector,
        /// Time the server becomes free.
        server_free_at: SimTime,
        sojourns_ms: Vec<f64>,
        max_requests: usize,
        arrived: usize,
        lost: usize,
        refused: usize,
    }

    fn arrival(sim: &mut Sim<QState>) {
        // Schedule next arrival.
        let s = &mut sim.state;
        s.arrived += 1;
        if s.arrived < s.max_requests {
            let gap = s.rng.exp(s.lambda_per_ms);
            let gap = SimTime::from_ms_f64(gap);
            sim.schedule_in(gap, arrival);
        }
        // Serve this one: FIFO single server.
        let now = sim.now();
        let s = &mut sim.state;
        s.faults.advance(now);
        // The service draw happens before the health check so every arrival
        // consumes the same RNG stream regardless of the fault plan.
        let service_ms = s.service.sample(&mut s.rng);
        let Some(ready) = s.faults.up_at(SERVER, now) else {
            // Dead server: the connection is refused, the job is never queued.
            s.refused += 1;
            return;
        };
        // A paused server accepts the job but can only start it at the pause
        // expiry; the slowdown in effect at arrival stretches the service.
        let service_ms = service_ms * s.faults.slowdown(SERVER, now);
        let start = s.server_free_at.max(now).max(ready);
        let finish = start.saturating_add(SimTime::from_ms_f64(service_ms));
        s.server_free_at = finish;
        // Jobs resident (queued or in service) when a kill/pause fires are
        // wiped with the server's memory: compare disruption epochs.
        let epoch = s.faults.disruptions(SERVER);
        let arrived_at = now;
        sim.schedule_at(finish, move |sim| {
            let s = &mut sim.state;
            s.faults.advance(finish);
            if s.faults.disruptions(SERVER) != epoch {
                s.lost += 1;
                return;
            }
            let sojourn = finish.since(arrived_at);
            s.sojourns_ms.push(sojourn.ms());
        });
    }

    /// The sojourns of a fault-free DES run driven by `des_seed` alone,
    /// with no calibration draw.
    pub(super) fn sojourns(q: &MG1Queue, requests: usize, des_seed: u64) -> Vec<f64> {
        let state = QState {
            rng: Rng64::new(des_seed),
            service: q.service,
            lambda_per_ms: q.lambda_per_ms,
            faults: FaultInjector::new(&FaultPlan::new(), 1),
            server_free_at: SimTime::ZERO,
            sojourns_ms: Vec::new(),
            max_requests: requests,
            arrived: 0,
            lost: 0,
            refused: 0,
        };
        let mut sim = Sim::new(state);
        sim.schedule_at(SimTime::ZERO, arrival);
        sim.run();
        sim.state.sojourns_ms
    }

    /// `MG1Queue::run_faulted` on the DES. When `instants` is given, it
    /// also records the instant of every event fired (each arrival and
    /// each completion).
    pub(super) fn run_faulted(
        q: &MG1Queue,
        requests: usize,
        seed: u64,
        plan: &FaultPlan,
        instants: Option<&mut Vec<SimTime>>,
    ) -> FaultedQueueResult {
        assert!(requests > 10);
        let mut root = Rng64::new(seed);
        let calib_seed = root.next_u64();
        let des_seed = root.next_u64();
        // Empirical mean service time for ρ.
        let mut calib = Rng64::new(calib_seed);
        let mean_s = q.service.sample_summary(100_000, &mut calib).mean();
        let state = QState {
            rng: Rng64::new(des_seed),
            service: q.service,
            lambda_per_ms: q.lambda_per_ms,
            faults: FaultInjector::new(plan, 1),
            server_free_at: SimTime::ZERO,
            sojourns_ms: Vec::with_capacity(requests),
            max_requests: requests,
            arrived: 0,
            lost: 0,
            refused: 0,
        };
        let mut sim = Sim::new(state);
        sim.schedule_at(SimTime::ZERO, arrival);
        match instants {
            None => {
                sim.run();
            }
            Some(at) => {
                while sim.step() {
                    at.push(sim.now());
                }
            }
        }
        // Fire any plan remainder past the last event so the accounting
        // always covers the whole plan.
        sim.state.faults.advance(SimTime::MAX);
        let s = &sim.state;
        let warmup = (requests / 10).min(s.sojourns_ms.len());
        let xs = &s.sojourns_ms[warmup..];
        let sm = Summary::from_slice(xs);
        let (p50, p99) = if sm.count() == 0 {
            (0.0, 0.0)
        } else {
            (sm.median(), sm.percentile(99.0))
        };
        let mut metrics = Metrics::new();
        metrics.count("queue.arrivals", requests as u64);
        metrics.count("queue.completed", s.sojourns_ms.len() as u64);
        metrics.count("queue.lost_jobs", s.lost as u64);
        metrics.count("queue.refused_arrivals", s.refused as u64);
        s.faults.record(&mut metrics);
        FaultedQueueResult {
            result: QueueResult {
                rho: q.lambda_per_ms * mean_s,
                mean_ms: sm.mean(),
                p50,
                p99,
                completed: xs.len(),
            },
            lost: s.lost,
            refused: s.refused,
            metrics,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::Reversed;
    use xxi_core::des::fault::Fault;
    use xxi_stack::pool::Pool;

    /// Every [`QueueResult`] field compared by bits.
    fn assert_same(got: &QueueResult, want: &QueueResult, what: &str) {
        assert_eq!(got.rho.to_bits(), want.rho.to_bits(), "{what}: rho");
        assert_eq!(
            got.mean_ms.to_bits(),
            want.mean_ms.to_bits(),
            "{what}: mean"
        );
        assert_eq!(got.p50.to_bits(), want.p50.to_bits(), "{what}: p50");
        assert_eq!(got.p99.to_bits(), want.p99.to_bits(), "{what}: p99");
        assert_eq!(got.completed, want.completed, "{what}: completed");
    }

    fn mm1(rho: f64) -> MG1Queue {
        // Exponential service with mean 1 ms; λ = ρ.
        MG1Queue {
            lambda_per_ms: rho,
            service: LatencyDist::Exp { mean_ms: 1.0 },
        }
    }

    #[test]
    fn mm1_mean_sojourn_matches_theory() {
        // E[T] = E[S]/(1−ρ).
        for rho in [0.3, 0.6, 0.8] {
            let r = mm1(rho).run(400_000, 42);
            let expect = 1.0 / (1.0 - rho);
            assert!(
                (r.mean_ms - expect).abs() / expect < 0.1,
                "rho={rho}: mean={} expect={expect}",
                r.mean_ms
            );
        }
    }

    #[test]
    fn utilization_inflates_the_tail_superlinearly() {
        let lo = mm1(0.3).run(200_000, 1);
        let hi = mm1(0.9).run(200_000, 1);
        // Mean grows ~7×; p99 grows comparably (M/M/1 sojourn stays
        // exponential) — both large.
        assert!(hi.mean_ms > 5.0 * lo.mean_ms);
        assert!(hi.p99 > 5.0 * lo.p99, "lo={} hi={}", lo.p99, hi.p99);
    }

    #[test]
    fn heavy_tailed_service_is_worse_than_exponential_at_same_rho() {
        // M/G/1 with high service variability (stragglers) has a far worse
        // tail than M/M/1 at equal utilization — Pollaczek–Khinchine in
        // action, and the root cause of leaf stragglers.
        let mm = mm1(0.7).run(200_000, 2);
        let mut rng = Rng64::new(3);
        let leaf = LatencyDist::typical_leaf();
        let mean_s = leaf.sample_summary(100_000, &mut rng).mean();
        let mg = MG1Queue {
            lambda_per_ms: 0.7 / mean_s,
            service: leaf,
        }
        .run(200_000, 2);
        // Two independent 100k-draw mean estimates of a distribution with
        // a Pareto tail disagree by a few percent; loose bound on ρ only.
        assert!((mg.rho - 0.7).abs() < 0.07, "rho={}", mg.rho);
        // Normalize tails by their own mean service time.
        let mm_tail = mm.p99 / 1.0;
        let mg_tail = mg.p99 / mean_s;
        assert!(mg_tail > mm_tail, "mg={mg_tail} mm={mm_tail}");
    }

    #[test]
    fn sweep_on_every_executor_matches_individual_runs() {
        let leaf = MG1Queue {
            lambda_per_ms: 0.1,
            service: LatencyDist::typical_leaf(),
        };
        let qs = [mm1(0.3), leaf, mm1(0.6)];
        let pool = Pool::new(2);
        let execs: [&dyn Parallelism; 3] = [&Serial, &Reversed, &pool];
        for exec in execs {
            let sweep = mg1_sweep_on(&qs, 50_000, 9, exec);
            assert_eq!(sweep.len(), 3);
            for (i, (r, q)) in sweep.iter().zip(&qs).enumerate() {
                assert_same(r, &q.run(50_000, 9), &format!("queue {i}"));
            }
        }
    }

    #[test]
    fn run_faulted_each_matches_one_run_faulted_per_plan() {
        let q = mm1(0.8);
        let instants: Vec<SimTime> = (1..10)
            .map(|k| SimTime::from_ms_f64(k as f64 * 2_000.0))
            .collect();
        let plans: Vec<FaultPlan> = oracle_plans(20_000.0, &instants)
            .into_iter()
            .map(|(_, plan)| plan)
            .collect();
        let pool = Pool::new(2);
        let execs: [&dyn Parallelism; 3] = [&Serial, &Reversed, &pool];
        for exec in execs {
            let runs = q.run_faulted_each(20_000, 5, &plans, exec);
            assert_eq!(runs.len(), plans.len());
            for (i, (got, plan)) in runs.iter().zip(&plans).enumerate() {
                let want = q.run_faulted(20_000, 5, plan);
                let oracle = reference::run_faulted(&q, 20_000, 5, plan, None);
                for w in [&want, &oracle] {
                    assert_same(&got.result, &w.result, &format!("plan {i}"));
                    assert_eq!((got.lost, got.refused), (w.lost, w.refused), "plan {i}");
                }
                assert_eq!(
                    got.metrics.to_string(),
                    want.metrics.to_string(),
                    "plan {i}"
                );
            }
        }
    }

    #[test]
    fn measured_sojourns_never_touch_the_calibration_stream() {
        // Regression: the mean-service calibration used to consume 100k
        // draws of the same Rng64 stream that then drove the DES, so the
        // measured sojourns depended on the calibration draw count. With
        // disjoint sub-seeds the whole simulation is reproducible from
        // the DES sub-seed without a single calibration draw.
        let q = mm1(0.6);
        let result = q.run(50_000, 13);
        let mut root = Rng64::new(13);
        let _calib_seed = root.next_u64();
        let sojourns = reference::sojourns(&q, 50_000, root.next_u64());
        let s = Summary::from_slice(&sojourns[50_000 / 10..]);
        assert_eq!(s.mean().to_bits(), result.mean_ms.to_bits());
        assert_eq!(s.percentile(99.0).to_bits(), result.p99.to_bits());
    }

    #[test]
    fn sweep_shares_a_calibration_only_between_equal_services() {
        // Two services interleaved at one seed: every row must carry its
        // own service's calibrated rho, not the first row's.
        let leaf = MG1Queue {
            lambda_per_ms: 0.05,
            service: LatencyDist::typical_leaf(),
        };
        let qs = [mm1(0.3), leaf.clone(), mm1(0.6), leaf, mm1(0.9)];
        let sweep = mg1_sweep_on(&qs, 5_000, 21, &xxi_core::par::Serial);
        assert_eq!(sweep.len(), qs.len());
        for (r, q) in sweep.iter().zip(&qs) {
            assert_same(r, &q.run(5_000, 21), &format!("{q:?}"));
        }
        assert_ne!(sweep[0].rho.to_bits(), sweep[1].rho.to_bits());
    }

    #[test]
    fn rho_reported_correctly() {
        let r = mm1(0.5).run(50_000, 4);
        assert!((r.rho - 0.5).abs() < 0.01);
        assert!(r.completed > 40_000);
    }

    #[test]
    fn empty_plan_run_faulted_matches_run_bit_for_bit() {
        let q = mm1(0.7);
        let plain = q.run(50_000, 11);
        let faulted = q.run_faulted(50_000, 11, &FaultPlan::new());
        assert_eq!(plain.mean_ms.to_bits(), faulted.result.mean_ms.to_bits());
        assert_eq!(plain.p99.to_bits(), faulted.result.p99.to_bits());
        assert_eq!(plain.completed, faulted.result.completed);
        assert_eq!(faulted.lost, 0);
        assert_eq!(faulted.refused, 0);
    }

    #[test]
    fn a_crash_loses_resident_jobs_and_refuses_later_arrivals() {
        // Kill the server mid-run at high utilization: jobs queued at the
        // kill instant are lost, everything after is refused.
        let mut plan = FaultPlan::new();
        plan.at(SimTime::from_ms_f64(5_000.0), SERVER, Fault::Kill);
        let r = mm1(0.9).run_faulted(20_000, 7, &plan);
        assert!(r.lost > 0, "a hot server holds jobs when the kill lands");
        assert!(r.refused > 0, "post-kill arrivals must be refused");
        // Nothing completes after the kill: sojourns all end before it.
        assert!(r.result.completed < 20_000 - 20_000 / 10);
    }

    #[test]
    fn a_pause_defers_service_and_wipes_the_queue() {
        // Pause (reboot) at t=1s for 2s: resident jobs are lost, arrivals
        // during the pause wait for the expiry instead of being refused.
        let mut plan = FaultPlan::new();
        plan.at(
            SimTime::from_ms_f64(1_000.0),
            SERVER,
            Fault::Pause {
                for_time: SimTime::from_ms_f64(2_000.0),
            },
        );
        let r = mm1(0.8).run_faulted(20_000, 8, &plan);
        assert!(r.lost > 0);
        assert_eq!(r.refused, 0, "a paused server still accepts connections");
        // Jobs arriving during the 2 s outage sojourn for up to ~2 s —
        // far beyond anything a fault-free 0.8-utilization M/M/1 shows.
        assert!(r.result.p99 > 100.0, "p99={}", r.result.p99);
    }

    #[test]
    fn faulted_accounting_is_conserved() {
        let mut plan = FaultPlan::new();
        for k in 0..6 {
            plan.at(
                SimTime::from_ms_f64(1_000.0 * (k + 1) as f64),
                SERVER,
                Fault::Pause {
                    for_time: SimTime::from_ms_f64(200.0),
                },
            );
        }
        plan.at(
            SimTime::from_ms_f64(8_000.0),
            SERVER,
            Fault::Slow {
                factor: 4.0,
                for_time: SimTime::from_ms_f64(500.0),
            },
        );
        let r = mm1(0.8).run_faulted(20_000, 5, &plan);
        let m = &r.metrics;
        assert_eq!(
            m.counter("fault.scheduled"),
            m.counter("fault.fired") + m.counter("fault.cancelled")
        );
        assert_eq!(
            m.counter("queue.arrivals"),
            m.counter("queue.completed")
                + m.counter("queue.lost_jobs")
                + m.counter("queue.refused_arrivals"),
            "every arrival completes, is lost, or is refused"
        );
    }

    /// The services the loop is checked on, each with a rough mean for
    /// setting λ. The last one's services and gaps are a few picoseconds,
    /// so arrivals and completions often share an instant.
    fn oracle_services() -> Vec<(LatencyDist, f64)> {
        // The log-normal body alone: stragglers with probability 0.
        let body = |median_ms, sigma| LatencyDist::WithStragglers {
            median_ms,
            sigma,
            p_straggler: 0.0,
            tail_start_ms: 50.0,
            alpha: 1.5,
        };
        let leaf = LatencyDist::typical_leaf();
        let leaf_mean = leaf.sample_summary(10_000, &mut Rng64::new(0)).mean();
        vec![
            (LatencyDist::Exp { mean_ms: 1.0 }, 1.0),
            (body(1.0, 0.0), 1.0),
            (body(1.0, 0.3), 1.046),
            (leaf, leaf_mean),
            (LatencyDist::Exp { mean_ms: 2e-9 }, 2e-9),
        ]
    }

    /// Fault plans for a run that lasts about `end_ms`; `instants` are
    /// the event instants of the reference's fault-free run.
    fn oracle_plans(end_ms: f64, instants: &[SimTime]) -> Vec<(String, FaultPlan)> {
        let at = |frac: f64| SimTime::from_ms_f64(end_ms * frac);
        let span = |frac: f64| SimTime::from_ms_f64(end_ms * frac);
        let pause = |frac: f64| Fault::Pause {
            for_time: span(frac),
        };
        let mut plans = vec![("empty".to_string(), FaultPlan::new())];
        let mut add = |name: &str, faults: &[(SimTime, Fault)]| {
            let mut plan = FaultPlan::new();
            for &(t, f) in faults {
                plan.at(t, SERVER, f);
            }
            plans.push((name.to_string(), plan));
        };
        add("kill", &[(at(0.5), Fault::Kill)]);
        add(
            "overlapping pauses",
            &[
                (at(0.2), pause(0.3)),
                (at(0.3), pause(0.05)),
                (at(0.45), pause(0.2)),
            ],
        );
        let slow = |factor: f64, frac: f64| Fault::Slow {
            factor,
            for_time: span(frac),
        };
        add("slow", &[(at(0.3), slow(3.0, 0.2))]);
        add(
            "restore after kill",
            &[(at(0.3), Fault::Kill), (at(0.6), Fault::Restore)],
        );
        add(
            "several at one instant",
            &[
                (at(0.5), slow(2.0, 0.1)),
                (at(0.5), pause(0.05)),
                (at(0.5), Fault::Kill),
                (at(0.5), Fault::Restore),
                (at(0.5), pause(0.01)),
            ],
        );
        add(
            "endless pause",
            &[(
                at(0.5),
                Fault::Pause {
                    for_time: SimTime::MAX,
                },
            )],
        );
        add("saturating slowdown", &[(at(0.5), slow(1e300, 0.2))]);
        let n = instants.len();
        for i in [1, n / 5, n / 2, n - 2] {
            let (t, next) = (instants[i], instants[i + 1]);
            add(&format!("pause on event {i}"), &[(t, pause(0.02))]);
            add(&format!("slow on event {i}"), &[(t, slow(5.0, 0.02))]);
            add(
                &format!("kill on event {i}, restore on the next"),
                &[(t, Fault::Kill), (next, Fault::Restore)],
            );
        }
        let last = instants[n - 1];
        add(
            "after the last event",
            &[
                (last.saturating_add(SimTime::from_ps(1)), Fault::Kill),
                (SimTime::MAX, pause(0.1)),
                (SimTime::MAX, Fault::Restore),
            ],
        );
        plans
    }

    /// One oracle case: `run_faulted` against the DES reference, every
    /// result field by bits, plus `lost`, `refused` and every counter.
    fn check_case(q: &MG1Queue, requests: usize, seed: u64, plan: &FaultPlan, what: &str) {
        let got = q.run_faulted(requests, seed, plan);
        let want = reference::run_faulted(q, requests, seed, plan, None);
        assert_same(&got.result, &want.result, what);
        assert_eq!(got.lost, want.lost, "{what}: lost");
        assert_eq!(got.refused, want.refused, "{what}: refused");
        assert_eq!(
            got.metrics.counters().collect::<Vec<_>>(),
            want.metrics.counters().collect::<Vec<_>>(),
            "{what}: counters"
        );
    }

    const ORACLE_RHOS: [f64; 4] = [0.1, 0.85, 0.99, 1.2];

    /// Every service and plan against the reference. With `full`, every
    /// ρ and request count at two seeds; otherwise each (service, plan)
    /// pair runs once, at a (ρ, request count) pair that cycles with the
    /// plan.
    fn check_against_reference(requests: &[usize], full: bool) -> usize {
        let mut cases = 0;
        for (si, (service, mean_ms)) in oracle_services().into_iter().enumerate() {
            for (ri, &rho) in ORACLE_RHOS.iter().enumerate() {
                let q = MG1Queue {
                    lambda_per_ms: rho / mean_ms,
                    service,
                };
                for (ni, &n) in requests.iter().enumerate() {
                    let seed = 0xA11CE + (si * 31 + ri * 7 + ni) as u64;
                    let mut instants = Vec::new();
                    reference::run_faulted(&q, n, seed, &FaultPlan::new(), Some(&mut instants));
                    let end_ms = n as f64 / q.lambda_per_ms;
                    let cell = ri * requests.len() + ni;
                    let cells = ORACLE_RHOS.len() * requests.len();
                    for (pi, (name, plan)) in oracle_plans(end_ms, &instants).iter().enumerate() {
                        let seeds: &[u64] = if full {
                            &[seed, seed ^ 0x5EED]
                        } else if (si + pi) % cells == cell {
                            &[seed]
                        } else {
                            &[]
                        };
                        for &sd in seeds {
                            let what = format!("{service:?} rho={rho} n={n} seed={sd} {name}");
                            check_case(&q, n, sd, plan, &what);
                            cases += 1;
                        }
                    }
                }
            }
        }
        cases
    }

    #[test]
    fn the_loop_matches_the_des_reference_bit_for_bit() {
        // Each of the 5 services meets each of the 21 plans once.
        assert_eq!(
            check_against_reference(&[11, 12, 150, 2_000, 20_000], false),
            5 * 21
        );
    }

    #[test]
    #[ignore = "4 200 cases, ~1 min; run in release with --include-ignored"]
    fn the_loop_matches_the_des_reference_at_scale() {
        check_against_reference(&[11, 13, 100, 2_000, 20_000], true);
    }
}
