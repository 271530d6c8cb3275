//! Fault-injected cluster serving: routing and hedging policies on the
//! DES engine.
//!
//! §2.1's tail-latency agenda and §2.4's dependability agenda meet here:
//! *"architectural innovations can guarantee strict worst-case latency
//! requirements"* only if the serving stack tolerates dead and slow
//! replicas, not just statistical stragglers. This module runs a root →
//! leaf fan-out service on [`xxi_core::des`] while a seeded
//! [`FaultPlan`] kills, pauses, and slows
//! replicas underneath it, and measures what the serving policy buys.
//!
//! The two decisions a root makes per attempt are configuration values,
//! not constants: [`ClusterConfig`] carries one [`Routing`] and one
//! [`Hedging`] value, and each enum implements its policies directly.
//!
//! * **Routing** ([`Routing`]): which replica gets the next attempt.
//!   [`Routing::RoundRobin`] walks the shard's replicas from a random
//!   first pick; [`Routing::LeastOutstanding`] picks the candidate with
//!   the fewest in-flight requests (live per-replica counters), steering
//!   around slow and backed-up replicas; [`Routing::PowerOfTwo`] samples
//!   two candidates on a dedicated [`Rng64::stream`] substream and keeps
//!   the less loaded one — most of least-outstanding's benefit without
//!   reading every counter. Either way the walk is a *permutation*: no
//!   replica is revisited until every one has been tried.
//! * **Hedging** ([`Hedging`]): when to duplicate the first attempt.
//!   [`Hedging::Fixed`] waits a constant delay (the classic Tail-at-Scale
//!   mitigation); [`Hedging::Adaptive`] waits for the shard's *online*
//!   latency quantile, read from a per-shard [`TailDigest`] fed by every
//!   observed attempt — hedges fire early when the shard is fast and back
//!   off on their own when it degrades. [`Hedging::AdaptiveCapped`]
//!   additionally caps the online delay at the static fallback — the
//!   digest-poisoning guard: a blast window of stragglers can inflate the
//!   raw quantile past the attempt timeout and silently disable hedging
//!   exactly when it is needed most.
//!
//! Per-attempt timeout timers, hedge timers, and the request deadline are
//! scheduled through the DES's cancellable `_handle` API and cancelled the
//! moment they become stale (the attempt settled, a second attempt exists,
//! the request closed) — no guarded no-op fires; `des.cancelled` in the
//! outcome metrics accounts for every one, and `cluster.stale_fires`
//! counts the timer fires whose guards found nothing to do (zero under
//! cancellation, asserted in tests).
//!
//! Around the two policies, the serving discipline is fixed: every shard
//! query carries a per-attempt timeout sliced from the request's QoS
//! [`Budget`]; lost attempts retry with jittered
//! exponential backoff and fail over along the permutation; and a
//! root-side [`FailsafeMachine`]
//! degrades gracefully — in `Degraded` mode the root accepts thinner
//! partial results, in `Safe` mode it sheds hedging load entirely.
//!
//! [`ClusterConfig::run`] produces a [`ClusterOutcome`] with goodput, the
//! latency tail (p50/p99/p99.9), retry amplification, and the
//! partial-result fraction; [`ClusterConfig::run_traced`] additionally
//! records per-attempt spans and retry/hedge/failover instants into a
//! Chrome-format [`Trace`]; [`cluster_sweep_on`] sweeps the fault rate on
//! the deterministic executor seam — byte-identical output at every
//! `--threads` count (experiment E21).

use serde::Serialize;

use crate::latency::{LatencyDist, Sampler};
use crate::qos::Budget;
use xxi_core::des::fault::{FaultInjector, FaultMix, FaultPlan};
use xxi_core::des::{Sim, TimerHandle};
use xxi_core::metrics::Metrics;
use xxi_core::obs::{SpanId, TailDigest, Trace};
use xxi_core::par::{self, Parallelism};
use xxi_core::rng::Rng64;
use xxi_core::stats::Summary;
use xxi_core::time::SimTime;
use xxi_rel::failsafe::{FailsafeMachine, Mode};

/// Replica selection: given the failover candidates for one shard
/// attempt, which replica to try next.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum Routing {
    /// Random-start round-robin: take the candidates in failover order.
    /// The random first pick (drawn per shard query at arrival) spreads
    /// load; the rotation spreads retries.
    RoundRobin,
    /// Least-outstanding-requests: the candidate with the fewest
    /// in-flight requests, ties in failover order. Slow or paused
    /// replicas accumulate outstanding attempts and shed new load
    /// automatically.
    LeastOutstanding,
    /// Power-of-two-choices: two probes into the candidates (with
    /// replacement), keeping the one with fewer in-flight requests, ties
    /// in failover order. Two random probes get most of the benefit of
    /// scanning every counter, without the herd behavior of
    /// deterministic least-loaded picks.
    PowerOfTwo,
}

impl Routing {
    /// Short human name for reports.
    pub fn describe(&self) -> &'static str {
        match self {
            Routing::RoundRobin => "round-robin",
            Routing::LeastOutstanding => "least-outstanding",
            Routing::PowerOfTwo => "power-of-two",
        }
    }

    /// Choose from `candidates` (local replica indices in failover
    /// preference order, never empty, none tried since the permutation
    /// restarted); `outstanding[r]` is the live in-flight count of the
    /// shard's local replica `r`. Only [`Routing::PowerOfTwo`] draws from
    /// `rng` — two `below(n)` probes per pick — and the cluster passes a
    /// dedicated substream, never the service-time RNG, so enabling it
    /// cannot shift any other random draw in the run.
    fn pick(&self, candidates: &[u32], outstanding: &[u32], rng: &mut Rng64) -> u32 {
        match self {
            Routing::RoundRobin => candidates[0],
            Routing::LeastOutstanding => {
                let mut best = candidates[0];
                for &c in &candidates[1..] {
                    if outstanding[c as usize] < outstanding[best as usize] {
                        best = c;
                    }
                }
                best
            }
            Routing::PowerOfTwo => {
                let n = candidates.len() as u64;
                let i = rng.below(n) as usize;
                let j = rng.below(n) as usize;
                // Earlier failover position wins ties.
                let x = candidates[i.min(j)];
                let y = candidates[i.max(j)];
                if outstanding[y as usize] < outstanding[x as usize] {
                    y
                } else {
                    x
                }
            }
        }
    }
}

/// When to duplicate the first attempt of a shard query to another
/// replica.
#[derive(Clone, Copy, Debug, PartialEq, Serialize)]
pub enum Hedging {
    /// Never hedge.
    None,
    /// Hedge after a fixed delay — the constant every deployment guide
    /// suggests and no deployment retunes.
    Fixed {
        /// Hedge delay (ms).
        after_ms: f64,
    },
    /// Hedge at the shard's *online* latency quantile: the delay is the
    /// digest's `quantile` once `warmup` attempts have been observed,
    /// `fallback_ms` before that. A fast shard hedges early; a degraded
    /// shard stops wasting duplicates on a tail that moved.
    Adaptive {
        /// Quantile of observed attempt latency to hedge at.
        quantile: f64,
        /// Delay until `warmup` attempts have been observed (ms).
        fallback_ms: f64,
        /// Observations required before the quantile is trusted.
        warmup: u64,
    },
    /// [`Hedging::Adaptive`] with the online delay capped at
    /// `fallback_ms` — the digest-poisoning guard. The raw adaptive
    /// policy trusts the observed quantile unconditionally, so a
    /// correlated blast window full of stragglers drags the quantile
    /// above the attempt timeout and hedging silently turns itself off
    /// for the rest of the run (observable as the round-robin + adaptive
    /// regression in E21's policy grid). Capping at the static fallback
    /// keeps the "hedge earlier when the shard is fast" upside while
    /// bounding the downside at exactly the fixed policy.
    AdaptiveCapped {
        /// Quantile of observed attempt latency to hedge at.
        quantile: f64,
        /// Warmup delay and the cap on the online delay (ms).
        fallback_ms: f64,
        /// Observations required before the quantile is consulted.
        warmup: u64,
    },
}

impl Hedging {
    /// Fixed hedge at `after_ms` ms.
    pub fn fixed(after_ms: f64) -> Hedging {
        Hedging::Fixed { after_ms }
    }

    /// Adaptive hedge at `quantile` with the default 10 ms fallback and
    /// a 64-observation warmup.
    pub fn adaptive(quantile: f64) -> Hedging {
        assert!((0.0..1.0).contains(&quantile));
        Hedging::Adaptive {
            quantile,
            fallback_ms: 10.0,
            warmup: 64,
        }
    }

    /// [`Hedging::adaptive`] with the online delay capped at the same
    /// 10 ms fallback (see [`Hedging::AdaptiveCapped`]).
    pub fn adaptive_capped(quantile: f64) -> Hedging {
        assert!((0.0..1.0).contains(&quantile));
        Hedging::AdaptiveCapped {
            quantile,
            fallback_ms: 10.0,
            warmup: 64,
        }
    }

    /// Human description with parameters, for reports.
    pub fn describe(&self) -> String {
        match *self {
            Hedging::None => "no hedge".to_string(),
            Hedging::Fixed { after_ms } => format!("hedge at {after_ms} ms"),
            Hedging::Adaptive { quantile, .. } => {
                format!("hedge at online p{:.0}", quantile * 100.0)
            }
            Hedging::AdaptiveCapped { quantile, .. } => {
                format!("hedge at online p{:.0} (capped)", quantile * 100.0)
            }
        }
    }

    /// Delay (ms) before hedging, or `None` to never hedge. `digest` is
    /// the shard's online attempt-latency digest; the fixed policies
    /// ignore it. Consulted once per shard query, at first dispatch.
    fn delay_ms(&self, digest: &TailDigest) -> Option<f64> {
        match *self {
            Hedging::None => None,
            Hedging::Fixed { after_ms } => Some(after_ms),
            Hedging::Adaptive {
                quantile,
                fallback_ms,
                warmup,
            } => {
                if digest.count() < warmup {
                    Some(fallback_ms)
                } else {
                    Some(digest.quantile(quantile))
                }
            }
            Hedging::AdaptiveCapped {
                quantile,
                fallback_ms,
                warmup,
            } => {
                if digest.count() < warmup {
                    Some(fallback_ms)
                } else {
                    Some(digest.quantile(quantile).min(fallback_ms))
                }
            }
        }
    }
}

/// Retry policy for one shard query (hedging lives in [`Hedging`]).
#[derive(Clone, Copy, Debug, Serialize)]
pub struct RetryPolicy {
    /// Total attempts allowed per shard (1 = no retries).
    pub max_attempts: u32,
    /// Backoff before the first retry (ms).
    pub backoff_base_ms: f64,
    /// Multiplier applied per additional retry.
    pub backoff_mult: f64,
    /// Jitter fraction: the backoff is scaled by `1 + jitter·U[0,1)` so
    /// synchronized failures don't retry in lockstep.
    pub jitter: f64,
}

impl RetryPolicy {
    /// The robust default: 3 attempts, 1 ms base backoff doubling with
    /// 50% jitter.
    pub fn standard() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 3,
            backoff_base_ms: 1.0,
            backoff_mult: 2.0,
            jitter: 0.5,
        }
    }

    /// Naive serving: one attempt — what a stack that only models
    /// healthy leaves implicitly ships.
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            backoff_base_ms: 0.0,
            backoff_mult: 1.0,
            jitter: 0.0,
        }
    }

    /// Jittered exponential backoff before retry number `nth` (0-based).
    pub fn backoff_ms(&self, nth: u32, rng: &mut Rng64) -> f64 {
        let exp = self.backoff_base_ms * self.backoff_mult.powi(nth as i32);
        exp * (1.0 + self.jitter * rng.next_f64())
    }
}

/// Configuration of one fault-injected serving run.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct ClusterConfig {
    /// Shards per request (every shard must answer for a full result).
    pub shards: u32,
    /// Replicas per shard (failover targets).
    pub replicas: u32,
    /// Leaf service-time distribution (ms).
    pub dist: LatencyDist,
    /// Requests to simulate.
    pub requests: u32,
    /// Request interarrival time (ms).
    pub interarrival_ms: f64,
    /// Network round-trip overhead per attempt (ms); also the fast-fail
    /// delay when a dead replica refuses the connection.
    pub rpc_ms: f64,
    /// The request's QoS budget: deadline + per-attempt timeout.
    pub budget: Budget,
    /// Retry policy (attempts, backoff).
    pub retry: RetryPolicy,
    /// Replica-selection policy.
    pub routing: Routing,
    /// Hedging policy for first attempts.
    pub hedging: Hedging,
    /// Fraction of shards that must answer for a result to count
    /// (full results always need all of them; this is the partial bar).
    pub min_coverage: f64,
    /// RNG seed (service times, replica picks, jitter).
    pub seed: u64,
}

impl Default for ClusterConfig {
    fn default() -> ClusterConfig {
        ClusterConfig {
            shards: 20,
            replicas: 3,
            dist: LatencyDist::typical_leaf(),
            requests: 2_000,
            interarrival_ms: 1.0,
            rpc_ms: 0.2,
            budget: Budget::new(60.0, 18.0),
            retry: RetryPolicy::standard(),
            routing: Routing::RoundRobin,
            hedging: Hedging::fixed(10.0),
            min_coverage: 0.95,
            seed: 23,
        }
    }
}

/// Everything one serving run produced.
#[derive(Clone, Debug, Serialize)]
pub struct ClusterOutcome {
    /// Requests simulated.
    pub requests: u32,
    /// Requests answered by every shard within the deadline.
    pub full: u32,
    /// Requests answered by ≥ the (mode-adjusted) coverage bar at the
    /// deadline — the graceful-degradation path.
    pub partial: u32,
    /// Requests below the coverage bar at the deadline.
    pub failed: u32,
    /// Median request latency (ms; unanswered requests count at the
    /// deadline, the time the client actually waited).
    pub p50: f64,
    /// 99th-percentile request latency (ms).
    pub p99: f64,
    /// 99.9th-percentile request latency (ms).
    pub p999: f64,
    /// Mean request latency (ms).
    pub mean: f64,
    /// Answered (full + partial) requests per simulated second.
    pub goodput_rps: f64,
    /// Attempts per required shard query (1.0 = no extra load).
    pub retry_amplification: f64,
    /// Fraction of answered requests that were partial.
    pub partial_frac: f64,
    /// Counters: attempts, retries, hedges, timeouts, refused, lost,
    /// degraded accepts, failsafe transitions, and the fault-injection
    /// accounting (`fault.scheduled == fault.fired + fault.cancelled`).
    pub metrics: Metrics,
}

/// Why an attempt's books were closed — the `outcome` argument on its
/// trace span.
const OUT_RESPONSE: f64 = 0.0;
const OUT_REFUSED: f64 = 1.0;
const OUT_TIMEOUT: f64 = 2.0;
const OUT_CANCELLED: f64 = 3.0;

/// One dispatched attempt of a shard query.
struct Attempt {
    /// An answer arrived, the connection was refused, or the timeout
    /// fired. Guards double-handling.
    resolved: bool,
    /// In-flight accounting flag: set exactly when the attempt's
    /// connection closes and the replica's outstanding counter is
    /// decremented.
    settled: bool,
    /// When the attempt was dispatched (feeds the shard latency digest).
    sent_at: SimTime,
    /// Local replica index the attempt was routed to.
    replica: u32,
    /// Open trace span (`SpanId::DISABLED` when untraced).
    span: SpanId,
    /// The pending timeout timer; cancelled when the attempt settles
    /// first (`None` on the refused path, which schedules none).
    timeout_timer: Option<TimerHandle>,
}

struct ShardSlot {
    answered: bool,
    given_up: bool,
    /// Attempts dispatched so far (retries and hedges included), in
    /// dispatch order.
    attempts: Vec<Attempt>,
    /// The shard query's pending hedge timer; cancelled as soon as a
    /// second attempt exists or the query closes.
    hedge_timer: Option<TimerHandle>,
    /// Bit `r` set: replica `r` tried since the failover permutation last
    /// restarted.
    tried: u64,
    /// Start of the failover rotation (drawn per shard query).
    first_pick: u32,
}

struct Req {
    start: SimTime,
    answered: u32,
    done: bool,
    span: SpanId,
    /// The request's deadline timer; cancelled when every shard answers
    /// before it fires.
    deadline_timer: Option<TimerHandle>,
    slots: Vec<ShardSlot>,
}

/// Substream index for the power-of-two routing probes (disjoint from the
/// fault-plan streams in `xxi_core::des::fault`).
const ROUTING_STREAM: u64 = 0xFA_207;

struct CState {
    cfg: ClusterConfig,
    /// `cfg.dist`, prepared once for the run's service draws.
    service: Sampler,
    rng: Rng64,
    /// Dedicated substream for [`Routing::PowerOfTwo`] probes; drawn from
    /// only when that policy is configured, so the other policies' runs
    /// see exactly the seed repo's draw sequence.
    route_rng: Rng64,
    faults: FaultInjector,
    machine: FailsafeMachine,
    reqs: Vec<Req>,
    /// Live in-flight attempts per replica (global component id) — the
    /// signal [`Routing::LeastOutstanding`] routes on.
    inflight: Vec<u32>,
    /// Per-shard online attempt-latency digest — the signal the adaptive
    /// [`Hedging`] policies hedge on.
    digests: Vec<TailDigest>,
    /// The failover walk's output, reused by every dispatch.
    candidates: Vec<u32>,
    latencies_ms: Vec<f64>,
    full: u32,
    partial: u32,
    failed: u32,
    degraded_accepts: u32,
    attempts: u64,
    retries: u64,
    hedges: u64,
    timeouts: u64,
    refused: u64,
    lost: u64,
    /// Timer events that fired but found their guards already satisfied —
    /// pure no-ops. Real cancellation keeps this at zero (tested); the
    /// seed engine burned one heap pop + closure call on each.
    stale_fires: u64,
}

/// The failover walk into `out`: local replica indices in rotation order
/// from `first_pick`, restricted to replicas not yet tried (bit `r` of
/// `tried`) — a permutation that never revisits a replica until every
/// one has been offered.
fn failover_candidates(replicas: u32, first_pick: u32, tried: u64, out: &mut Vec<u32>) {
    out.clear();
    out.extend(
        (first_pick..replicas)
            .chain(0..first_pick)
            .filter(|&r| tried >> r & 1 == 0),
    );
}

impl ClusterConfig {
    /// Simulated span of the whole run (ms): last arrival plus a full
    /// deadline. Fault plans should cover this horizon.
    pub fn horizon_ms(&self) -> f64 {
        (self.requests.saturating_sub(1)) as f64 * self.interarrival_ms + self.budget.deadline_ms
    }

    /// Total replica count (`shards * replicas`) — the component space a
    /// [`FaultPlan`] for this cluster addresses, shard-major: replica `r`
    /// of shard `s` is component `s * replicas + r`.
    pub fn components(&self) -> u32 {
        self.shards * self.replicas
    }

    /// Run the simulation under `plan` (pass an empty plan for the
    /// fault-free baseline). Deterministic: a pure function of
    /// `(self, plan)`.
    pub fn run(&self, plan: &FaultPlan) -> ClusterOutcome {
        self.run_traced(plan, Trace::disabled()).0
    }

    /// [`ClusterConfig::run`], recording request spans, per-attempt spans
    /// (with routing and outcome arguments), and retry/hedge/deadline
    /// instants into `trace`. Track 0 carries request-level events; track
    /// `1 + shard` carries that shard's attempts. Tracing never perturbs
    /// the simulation: results are bit-identical with [`Trace::disabled`].
    pub fn run_traced(&self, plan: &FaultPlan, trace: Trace) -> (ClusterOutcome, Trace) {
        assert!(self.shards >= 1 && self.replicas >= 1 && self.requests >= 1);
        assert!(
            self.replicas <= 64,
            "the failover walk tracks replicas in a u64 mask"
        );
        assert!((0.0..=1.0).contains(&self.min_coverage));
        let state = CState {
            cfg: *self,
            service: self.dist.sampler(),
            rng: Rng64::new(self.seed),
            route_rng: Rng64::stream(self.seed, ROUTING_STREAM),
            faults: FaultInjector::new(plan, self.components()),
            // 10 errors in a window escalate to Degraded, 40 to Safe;
            // 50 clean requests recover Degraded -> Normal.
            machine: FailsafeMachine::new(10, 40, 50),
            reqs: Vec::with_capacity(self.requests as usize),
            inflight: vec![0; self.components() as usize],
            digests: vec![TailDigest::new(); self.shards as usize],
            candidates: Vec::with_capacity(self.replicas as usize),
            latencies_ms: Vec::with_capacity(self.requests as usize),
            full: 0,
            partial: 0,
            failed: 0,
            degraded_accepts: 0,
            attempts: 0,
            retries: 0,
            hedges: 0,
            timeouts: 0,
            refused: 0,
            lost: 0,
            stale_fires: 0,
        };
        let mut sim = Sim::with_trace(state, trace);
        for r in 0..self.requests {
            let at = SimTime::from_ms_f64(r as f64 * self.interarrival_ms);
            sim.schedule_at(at, arrive);
        }
        sim.run();

        let des_stats = sim.stats();
        let s = sim.state;
        assert!(
            s.inflight.iter().all(|&n| n == 0),
            "in-flight accounting leaked: every attempt must settle"
        );
        let answered = s.full + s.partial;
        let summary = Summary::from_slice(&s.latencies_ms);
        let horizon_s = self.horizon_ms() * 1e-3;
        let mut metrics = Metrics::new();
        metrics.count("cluster.requests", self.requests as u64);
        metrics.count("cluster.full", s.full as u64);
        metrics.count("cluster.partial", s.partial as u64);
        metrics.count("cluster.failed", s.failed as u64);
        metrics.count("cluster.attempts", s.attempts);
        metrics.count("cluster.retries", s.retries);
        metrics.count("cluster.hedges", s.hedges);
        metrics.count("cluster.timeouts", s.timeouts);
        metrics.count("cluster.refused", s.refused);
        metrics.count("cluster.lost_responses", s.lost);
        metrics.count("cluster.degraded_accepts", s.degraded_accepts as u64);
        metrics.count("cluster.stale_fires", s.stale_fires);
        metrics.count("failsafe.transitions", s.machine.transitions().len() as u64);
        des_stats.record(&mut metrics);
        metrics.gauge(
            "failsafe.final_mode",
            match s.machine.mode() {
                Mode::Normal => 0.0,
                Mode::Degraded => 1.0,
                Mode::Safe => 2.0,
            },
        );
        s.faults.record(&mut metrics);

        let outcome = ClusterOutcome {
            requests: self.requests,
            full: s.full,
            partial: s.partial,
            failed: s.failed,
            p50: summary.median(),
            p99: summary.percentile(99.0),
            p999: summary.percentile(99.9),
            mean: summary.mean(),
            goodput_rps: answered as f64 / horizon_s,
            retry_amplification: s.attempts as f64 / (self.requests as f64 * self.shards as f64),
            partial_frac: if answered == 0 {
                0.0
            } else {
                s.partial as f64 / answered as f64
            },
            metrics,
        };
        (outcome, sim.trace)
    }
}

fn arrive(sim: &mut Sim<CState>) {
    let now = sim.now();
    let cfg = sim.state.cfg;
    let span = sim.trace_begin("request", "cluster", 0);
    let slots = (0..cfg.shards)
        .map(|_| ShardSlot {
            answered: false,
            given_up: false,
            attempts: Vec::new(),
            hedge_timer: None,
            tried: 0,
            first_pick: sim.state.rng.below(cfg.replicas as u64) as u32,
        })
        .collect();
    sim.state.reqs.push(Req {
        start: now,
        answered: 0,
        done: false,
        span,
        deadline_timer: None,
        slots,
    });
    let req = sim.state.reqs.len() - 1;
    for shard in 0..cfg.shards as usize {
        dispatch(sim, req, shard, false);
    }
    let h = sim.schedule_in_handle(SimTime::from_ms_f64(cfg.budget.deadline_ms), move |sim| {
        deadline(sim, req);
    });
    sim.state.reqs[req].deadline_timer = Some(h);
}

/// Cancel the shard query's hedge timer, if one is still pending. Called
/// whenever a permanent no-hedge condition latches (a second attempt
/// exists, the shard answered or gave up, the request closed); cancelling
/// the just-fired timer's own stale handle is a harmless no-op.
fn cancel_hedge(sim: &mut Sim<CState>, req: usize, shard: usize) {
    if let Some(h) = sim.state.reqs[req].slots[shard].hedge_timer.take() {
        sim.cancel(h);
    }
}

/// Launch one attempt of `shard` for `req`. `hedge` marks duplicates
/// launched by the hedging timer (they share the attempt budget but not
/// the retry counter).
fn dispatch(sim: &mut Sim<CState>, req: usize, shard: usize, hedge: bool) {
    let now = sim.now();
    sim.state.faults.advance(now);
    let cfg = sim.state.cfg;
    let elapsed = {
        let r = &sim.state.reqs[req];
        let slot = &r.slots[shard];
        if r.done || slot.answered || slot.given_up {
            return;
        }
        now.since(r.start).ms()
    };
    let Some(timeout_ms) = cfg.budget.attempt_timeout(elapsed) else {
        sim.state.reqs[req].slots[shard].given_up = true;
        cancel_hedge(sim, req, shard);
        return;
    };
    let base = shard * cfg.replicas as usize;
    let (attempt, local) = {
        let s = &mut sim.state;
        let slot = &mut s.reqs[req].slots[shard];
        let attempt = slot.attempts.len();
        if slot.tried == u64::MAX >> (64 - cfg.replicas) {
            // Every replica has been offered: start a fresh permutation.
            slot.tried = 0;
        }
        failover_candidates(cfg.replicas, slot.first_pick, slot.tried, &mut s.candidates);
        let local = cfg.routing.pick(
            &s.candidates,
            &s.inflight[base..base + cfg.replicas as usize],
            &mut s.route_rng,
        );
        debug_assert!(s.candidates.contains(&local), "policy picked a candidate");
        slot.tried |= 1 << local;
        s.inflight[base + local as usize] += 1;
        (attempt, local)
    };
    if attempt >= 1 {
        // A second attempt exists; the hedge-once condition is permanently
        // dead, so its timer (if still pending) is stale.
        cancel_hedge(sim, req, shard);
    }
    let replica = (base + local as usize) as u32;
    sim.state.attempts += 1;
    let span = sim.trace_begin("attempt", "cluster", 1 + shard as u64);
    sim.state.reqs[req].slots[shard].attempts.push(Attempt {
        resolved: false,
        settled: false,
        sent_at: now,
        replica: local,
        span,
        timeout_timer: None,
    });

    if !sim.state.faults.is_up(replica, now) {
        // Connection refused: the dead/paused replica is detected after
        // one RTT, far cheaper than waiting out the timeout.
        sim.state.refused += 1;
        sim.schedule_in(SimTime::from_ms_f64(cfg.rpc_ms), move |sim| {
            settle(sim, req, shard, attempt, OUT_REFUSED);
            let r = &mut sim.state.reqs[req];
            if r.done || r.slots[shard].answered || r.slots[shard].given_up {
                return;
            }
            r.slots[shard].attempts[attempt].resolved = true;
            maybe_retry(sim, req, shard);
        });
    } else {
        let slowdown = sim.state.faults.slowdown(replica, now);
        let service = sim.state.service.sample(&mut sim.state.rng) * slowdown;
        let latency = cfg.rpc_ms + service;
        sim.schedule_in(SimTime::from_ms_f64(latency), move |sim| {
            respond(sim, req, shard, attempt, replica);
        });
        // The timeout declares the attempt lost; late answers that beat
        // the *deadline* still count (work isn't thrown away). Cancelled
        // if the attempt settles first.
        let h = sim.schedule_in_handle(SimTime::from_ms_f64(timeout_ms), move |sim| {
            attempt_timeout(sim, req, shard, attempt);
        });
        sim.state.reqs[req].slots[shard].attempts[attempt].timeout_timer = Some(h);
    }

    // Hedge the first attempt (only): a duplicate to another replica
    // after the hedging policy's delay, unless the failsafe machine is
    // shedding. The delay is read from the shard's live digest *now*, so
    // adaptive policies track the latency the shard currently exhibits.
    if !hedge && attempt == 0 {
        if let Some(h) = cfg.hedging.delay_ms(&sim.state.digests[shard]) {
            if h < timeout_ms {
                let timer = sim.schedule_in_handle(SimTime::from_ms_f64(h), move |sim| {
                    hedge_fire(sim, req, shard);
                });
                sim.state.reqs[req].slots[shard].hedge_timer = Some(timer);
            }
        }
    }
}

/// Close the books on one attempt: its connection is gone (answered,
/// refused, timed out, or torn down with the request), so the replica's
/// in-flight counter drops, the attempt's now-stale timeout timer is
/// cancelled, and the attempt's trace span closes with an `outcome`
/// argument (0 response / 1 refused / 2 timeout / 3 cancelled).
/// Idempotent per attempt; returns whether this call did the settling.
fn settle(sim: &mut Sim<CState>, req: usize, shard: usize, attempt: usize, outcome: f64) -> bool {
    let (local, span, timer) = {
        let a = &mut sim.state.reqs[req].slots[shard].attempts[attempt];
        if a.settled {
            return false;
        }
        a.settled = true;
        (a.replica, a.span, a.timeout_timer.take())
    };
    if let Some(h) = timer {
        // A settled attempt's timeout fire would be a pure no-op (the
        // per-attempt guards all latch); when the timeout itself settles
        // us, its own handle is already stale and this is a no-op.
        sim.cancel(h);
    }
    let comp = shard * sim.state.cfg.replicas as usize + local as usize;
    sim.state.inflight[comp] -= 1;
    sim.trace_end_args(
        span,
        &[
            ("req", req as f64),
            ("attempt", attempt as f64),
            ("replica", f64::from(local)),
            ("outcome", outcome),
        ],
    );
    true
}

/// Tear down every still-open attempt of a finished request (the client
/// hangs up its connections when it has an answer or hits the deadline),
/// cancelling the request's remaining timers on the way out.
fn settle_request(sim: &mut Sim<CState>, req: usize) {
    if let Some(h) = sim.state.reqs[req].deadline_timer.take() {
        sim.cancel(h);
    }
    for shard in 0..sim.state.cfg.shards as usize {
        cancel_hedge(sim, req, shard);
        let attempts = sim.state.reqs[req].slots[shard].attempts.len();
        for attempt in 0..attempts {
            settle(sim, req, shard, attempt, OUT_CANCELLED);
        }
    }
}

fn respond(sim: &mut Sim<CState>, req: usize, shard: usize, attempt: usize, replica: u32) {
    let now = sim.now();
    sim.state.faults.advance(now);
    if !sim.state.faults.is_up(replica, now) {
        // The replica died (or paused) mid-service: the response is lost
        // and only the attempt timeout will notice (the connection stays
        // open — in-flight until then).
        sim.state.lost += 1;
        return;
    }
    settle(sim, req, shard, attempt, OUT_RESPONSE);
    // Every arrived response feeds the shard's online latency digest —
    // the signal adaptive hedging reads.
    let sent = sim.state.reqs[req].slots[shard].attempts[attempt].sent_at;
    let observed = now.since(sent).ms();
    sim.state.digests[shard].add(observed);
    let shards = sim.state.cfg.shards;
    let mut answered_now = false;
    let full_close = {
        let r = &mut sim.state.reqs[req];
        r.slots[shard].attempts[attempt].resolved = true;
        if r.done || r.slots[shard].answered {
            None
        } else {
            r.slots[shard].answered = true;
            answered_now = true;
            r.answered += 1;
            if r.answered < shards {
                None
            } else {
                r.done = true;
                Some((now.since(r.start).ms(), r.span))
            }
        }
    };
    if answered_now {
        // The shard has its answer: a pending hedge timer is stale.
        cancel_hedge(sim, req, shard);
    }
    let Some((latency, span)) = full_close else {
        return;
    };
    settle_request(sim, req);
    sim.trace_end_args(span, &[("latency_ms", latency), ("full", 1.0)]);
    sim.state.latencies_ms.push(latency);
    sim.state.full += 1;
    sim.state.machine.ok();
}

fn attempt_timeout(sim: &mut Sim<CState>, req: usize, shard: usize, attempt: usize) {
    let settled_now = settle(sim, req, shard, attempt, OUT_TIMEOUT);
    {
        let r = &sim.state.reqs[req];
        let slot = &r.slots[shard];
        if r.done || slot.answered || slot.given_up || slot.attempts[attempt].resolved {
            if !settled_now {
                // The fire did literally nothing — a stale timer that
                // cancellation should have reaped. Kept as a tripwire.
                sim.state.stale_fires += 1;
            }
            return;
        }
    }
    sim.state.reqs[req].slots[shard].attempts[attempt].resolved = true;
    sim.state.timeouts += 1;
    maybe_retry(sim, req, shard);
}

/// After a refused connection or a timed-out attempt: back off and fail
/// over to the next replica, if the policy and the budget allow.
fn maybe_retry(sim: &mut Sim<CState>, req: usize, shard: usize) {
    let now = sim.now();
    let cfg = sim.state.cfg;
    let attempts = sim.state.reqs[req].slots[shard].attempts.len() as u32;
    if attempts >= cfg.retry.max_attempts {
        sim.state.reqs[req].slots[shard].given_up = true;
        cancel_hedge(sim, req, shard);
        return;
    }
    let backoff = cfg.retry.backoff_ms(attempts - 1, &mut sim.state.rng);
    let elapsed = now.since(sim.state.reqs[req].start).ms();
    if cfg.budget.attempt_timeout(elapsed + backoff).is_none() {
        sim.state.reqs[req].slots[shard].given_up = true;
        cancel_hedge(sim, req, shard);
        return;
    }
    sim.state.retries += 1;
    sim.trace.instant_args(
        "retry",
        "cluster",
        1 + shard as u64,
        now,
        &[("req", req as f64), ("backoff_ms", backoff)],
    );
    sim.schedule_in(SimTime::from_ms_f64(backoff), move |sim| {
        dispatch(sim, req, shard, false);
    });
}

fn hedge_fire(sim: &mut Sim<CState>, req: usize, shard: usize) {
    let r = &sim.state.reqs[req];
    let slot = &r.slots[shard];
    if r.done || slot.answered || slot.given_up || slot.attempts.len() != 1 {
        // Permanent conditions: cancellation reaps these timers before
        // they fire, so reaching here means a stale fire slipped through.
        sim.state.stale_fires += 1;
        return;
    }
    // Only hedge while hedging leaves room for a retry, and shed hedging
    // load entirely in Safe mode — transient conditions, not staleness.
    if slot.attempts.len() as u32 >= sim.state.cfg.retry.max_attempts {
        return;
    }
    if sim.state.machine.mode() == Mode::Safe {
        return;
    }
    sim.state.hedges += 1;
    let now = sim.now();
    sim.trace.instant_args(
        "hedge",
        "cluster",
        1 + shard as u64,
        now,
        &[("req", req as f64)],
    );
    dispatch(sim, req, shard, true);
}

fn deadline(sim: &mut Sim<CState>, req: usize) {
    let cfg = sim.state.cfg;
    let mode = sim.state.machine.mode();
    let (answered, span) = {
        let r = &mut sim.state.reqs[req];
        if r.done {
            // The deadline timer is cancelled when the request completes;
            // a fire against a done request is a stale fire.
            sim.state.stale_fires += 1;
            return;
        }
        r.done = true;
        (r.answered, r.span)
    };
    settle_request(sim, req);
    let coverage = answered as f64 / cfg.shards as f64;
    // Graceful degradation: under failsafe pressure the root lowers the
    // coverage bar instead of failing requests outright. In Safe mode any
    // answered shard yields a (minimal) result.
    let bar = match mode {
        Mode::Normal => cfg.min_coverage,
        Mode::Degraded => cfg.min_coverage * 0.5,
        Mode::Safe => f64::MIN_POSITIVE,
    };
    // The client waited out the whole deadline either way.
    sim.state.latencies_ms.push(cfg.budget.deadline_ms);
    sim.trace_end_args(span, &[("coverage", coverage), ("full", 0.0)]);
    let now = sim.now();
    sim.trace.instant_args(
        "deadline",
        "cluster",
        0,
        now,
        &[("req", req as f64), ("coverage", coverage)],
    );
    if coverage >= bar && answered > 0 {
        sim.state.partial += 1;
        if coverage < cfg.min_coverage {
            sim.state.degraded_accepts += 1;
        }
    } else {
        sim.state.failed += 1;
    }
    // Either way the SLO took a hit; the machine sees it.
    sim.state.machine.error();
}

/// One [`ClusterConfig::run`] per fault rate on `exec`, with the plan and
/// the sim seeded per-rate via [`Rng64::stream`] — results come back in
/// input order and every number is executor- and thread-count-
/// independent. Rates are *faults per replica* over the run (see
/// [`FaultPlan::seeded`]).
pub fn cluster_sweep_on(
    base: &ClusterConfig,
    rates: &[f64],
    mix: FaultMix,
    exec: &dyn Parallelism,
) -> Vec<ClusterOutcome> {
    par::map(exec, rates.len(), |i| {
        let sub_seed = Rng64::stream(base.seed, i as u64).next_u64();
        let cfg = ClusterConfig {
            seed: sub_seed,
            ..*base
        };
        let plan = FaultPlan::seeded(
            sub_seed,
            SimTime::from_ms_f64(cfg.horizon_ms()),
            cfg.components(),
            rates[i],
            mix,
        );
        cfg.run(&plan)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use xxi_core::des::fault::{Fault, Topology};
    use xxi_core::par::Serial;

    fn small() -> ClusterConfig {
        ClusterConfig {
            requests: 600,
            ..ClusterConfig::default()
        }
    }

    #[test]
    fn fault_free_run_answers_everything_in_budget() {
        let out = small().run(&FaultPlan::new());
        assert_eq!(out.full + out.partial + out.failed, out.requests);
        // Virtually everything completes fully inside the deadline.
        assert!(
            out.full as f64 / out.requests as f64 > 0.99,
            "full={} of {}",
            out.full,
            out.requests
        );
        assert!(out.p999 <= small().budget.deadline_ms + 1e-9);
        assert!(out.goodput_rps > 0.0);
        // Hedges + straggler timeouts add a little extra load, not a lot.
        assert!(
            out.retry_amplification < 1.3,
            "amp={}",
            out.retry_amplification
        );
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let a = small().run(&FaultPlan::new());
        let b = small().run(&FaultPlan::new());
        assert_eq!(a.p999.to_bits(), b.p999.to_bits());
        assert_eq!(
            a.metrics.counter("cluster.attempts"),
            b.metrics.counter("cluster.attempts")
        );
        let c = ClusterConfig {
            seed: 99,
            ..small()
        }
        .run(&FaultPlan::new());
        assert_ne!(a.p999.to_bits(), c.p999.to_bits());
    }

    #[test]
    fn policy_grid_runs_are_deterministic_per_seed() {
        // The new corners of the policy grid are as reproducible as the
        // legacy round-robin + fixed-hedge pair.
        for (routing, hedging) in [
            (Routing::LeastOutstanding, Hedging::fixed(10.0)),
            (Routing::RoundRobin, Hedging::adaptive(0.95)),
            (Routing::LeastOutstanding, Hedging::adaptive(0.95)),
        ] {
            let cfg = ClusterConfig {
                routing,
                hedging,
                ..small()
            };
            let a = cfg.run(&FaultPlan::new());
            let b = cfg.run(&FaultPlan::new());
            assert_eq!(a.p999.to_bits(), b.p999.to_bits());
            assert_eq!(
                a.metrics.counter("cluster.attempts"),
                b.metrics.counter("cluster.attempts")
            );
        }
    }

    /// The failover walk as it was over a `&[bool]` tried list: the
    /// reference the mask walk must reproduce.
    fn failover_candidates_by_flags(replicas: u32, first_pick: u32, tried: &[bool]) -> Vec<u32> {
        (0..replicas)
            .map(|k| (first_pick + k) % replicas)
            .filter(|&r| !tried[r as usize])
            .collect()
    }

    fn walk(replicas: u32, first_pick: u32, tried: u64) -> Vec<u32> {
        let mut out = vec![99; 3];
        failover_candidates(replicas, first_pick, tried, &mut out);
        out
    }

    #[test]
    fn mask_walk_matches_the_flag_walk_exhaustively() {
        for replicas in 1u32..=8 {
            for first in 0..replicas {
                for mask in 0..(1u64 << replicas) {
                    let tried: Vec<bool> = (0..replicas).map(|r| mask & (1 << r) != 0).collect();
                    assert_eq!(
                        walk(replicas, first, mask),
                        failover_candidates_by_flags(replicas, first, &tried),
                        "replicas={replicas} first_pick={first} mask={mask:#b}"
                    );
                }
            }
        }
        // The top bit of a full 64-replica mask.
        assert_eq!(walk(64, 63, u64::MAX >> 1), [63]);
        assert_eq!(walk(64, 5, u64::MAX), Vec::<u32>::new());
    }

    #[test]
    fn failover_candidates_form_a_permutation() {
        // Whatever has been tried, the candidates are distinct untried
        // replicas in rotation order from the first pick.
        for replicas in [1u32, 2, 3, 5] {
            for first in 0..replicas {
                for mask in 0..(1u64 << replicas) {
                    let untried = |r: u32| mask & (1 << r) == 0;
                    let c = walk(replicas, first, mask);
                    assert_eq!(
                        c.len(),
                        (0..replicas).filter(|&r| untried(r)).count(),
                        "every untried replica is offered exactly once"
                    );
                    for w in c.windows(2) {
                        let pos = |r: u32| (r + replicas - first) % replicas;
                        assert!(pos(w[0]) < pos(w[1]), "rotation order from first_pick");
                    }
                    for &r in &c {
                        assert!(untried(r));
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "u64 mask")]
    fn more_than_64_replicas_are_refused() {
        ClusterConfig {
            replicas: 65,
            requests: 1,
            ..ClusterConfig::default()
        }
        .run(&FaultPlan::new());
    }

    #[test]
    fn least_outstanding_never_revisits_a_dead_replica_early() {
        // A dead replica refuses in one RTT, so its outstanding count is
        // almost always the lowest — greedy least-outstanding would send
        // every retry straight back to it. The failover permutation must
        // force untried replicas first so the second attempt lands on a
        // live one and the answer rate stays essentially perfect.
        let cfg = ClusterConfig {
            shards: 1,
            replicas: 3,
            requests: 400,
            routing: Routing::LeastOutstanding,
            hedging: Hedging::None,
            ..ClusterConfig::default()
        };
        let mut plan = FaultPlan::new();
        plan.at(SimTime::ZERO, 0, Fault::Kill);
        plan.at(SimTime::ZERO, 1, Fault::Kill);
        let out = cfg.run(&plan);
        // Stragglers on the one live replica cost a few requests; dead
        // replicas cost none.
        assert!(
            (out.full + out.partial) as f64 / out.requests as f64 > 0.97,
            "answered {}+{} of {} with one live replica",
            out.full,
            out.partial,
            out.requests
        );
        // The sharp regression assertion: each request can be refused at
        // most twice, because the permutation must offer the live
        // replica by the third attempt. Greedy least-outstanding (no
        // permutation) chases the fast-refusing dead replicas and racks
        // up three refusals per request.
        assert!(
            out.metrics.counter("cluster.refused") <= 2 * out.metrics.counter("cluster.requests"),
            "refused {} > 2x requests {}: a dead replica was revisited",
            out.metrics.counter("cluster.refused"),
            out.metrics.counter("cluster.requests")
        );
    }

    #[test]
    fn least_outstanding_steers_around_a_slowed_replica() {
        // One replica of every shard is slowed 8x for the whole run.
        // Round-robin keeps sending a third of first attempts into it;
        // least-outstanding watches the in-flight pile-up and routes
        // around, cutting timeouts and retries.
        let mk = |routing| ClusterConfig {
            requests: 1_000,
            routing,
            hedging: Hedging::None,
            ..ClusterConfig::default()
        };
        let slow_all = |cfg: &ClusterConfig| {
            let mut plan = FaultPlan::new();
            let topo = Topology::striped(cfg.components(), cfg.replicas);
            plan.at_scope(
                SimTime::ZERO,
                &topo,
                0,
                Fault::Slow {
                    factor: 8.0,
                    for_time: SimTime::from_ms_f64(cfg.horizon_ms()),
                },
            );
            plan
        };
        let rr_cfg = mk(Routing::RoundRobin);
        let lor_cfg = mk(Routing::LeastOutstanding);
        let rr = rr_cfg.run(&slow_all(&rr_cfg));
        let lor = lor_cfg.run(&slow_all(&lor_cfg));
        assert!(
            lor.metrics.counter("cluster.timeouts") < rr.metrics.counter("cluster.timeouts"),
            "lor timeouts {} vs rr {}",
            lor.metrics.counter("cluster.timeouts"),
            rr.metrics.counter("cluster.timeouts")
        );
        assert!(
            lor.p99 <= rr.p99,
            "lor p99 {} vs rr p99 {}",
            lor.p99,
            rr.p99
        );
    }

    #[test]
    fn adaptive_hedging_tracks_the_observed_quantile() {
        // Fault-free: after warmup the adaptive delay settles near the
        // leaf p95 (~8 ms), earlier than the 10 ms fixed hedge, so it
        // hedges at least as often.
        let fixed = ClusterConfig {
            hedging: Hedging::fixed(10.0),
            ..small()
        }
        .run(&FaultPlan::new());
        let adaptive = ClusterConfig {
            hedging: Hedging::adaptive(0.95),
            ..small()
        }
        .run(&FaultPlan::new());
        assert!(
            adaptive.metrics.counter("cluster.hedges") >= fixed.metrics.counter("cluster.hedges"),
            "adaptive {} vs fixed {}",
            adaptive.metrics.counter("cluster.hedges"),
            fixed.metrics.counter("cluster.hedges")
        );
        assert!(adaptive.full + adaptive.partial == adaptive.requests);
    }

    #[test]
    fn tracing_never_perturbs_the_simulation() {
        let cfg = ClusterConfig {
            requests: 300,
            routing: Routing::LeastOutstanding,
            hedging: Hedging::adaptive(0.95),
            ..ClusterConfig::default()
        };
        let plan = FaultPlan::seeded(
            cfg.seed,
            SimTime::from_ms_f64(cfg.horizon_ms()),
            cfg.components(),
            0.1,
            FaultMix::gray(),
        );
        let untraced = cfg.run(&plan);
        let (traced, trace) = cfg.run_traced(&plan, Trace::enabled());
        assert_eq!(untraced.p999.to_bits(), traced.p999.to_bits());
        assert_eq!(
            untraced.metrics.counter("cluster.attempts"),
            traced.metrics.counter("cluster.attempts")
        );
        assert!(!trace.is_empty(), "spans were recorded");
        let json = trace.chrome_json();
        assert!(json.contains("\"attempt\""));
        assert!(json.contains("\"request\""));
    }

    #[test]
    fn failover_absorbs_a_dead_replica() {
        // Kill one replica before traffic starts: retries fail over to
        // its siblings and the answer rate stays essentially perfect.
        let mut plan = FaultPlan::new();
        plan.at(SimTime::ZERO, 0, Fault::Kill);
        let out = small().run(&plan);
        assert!(
            (out.full + out.partial) as f64 / out.requests as f64 > 0.99,
            "answered {}+{} of {}",
            out.full,
            out.partial,
            out.requests
        );
        assert!(
            out.metrics.counter("cluster.refused") > 0,
            "dead replica was contacted"
        );
        assert!(
            out.metrics.counter("cluster.retries") > 0,
            "and failed over"
        );
    }

    #[test]
    fn naive_serving_collapses_where_the_policy_holds_the_tail() {
        // The acceptance shape: at a 1% leaf-kill rate the retry+failover
        // policy holds p99.9 within 3x of the fault-free run, while naive
        // (single-attempt, no-timeout-discipline) serving degrades toward
        // whatever deadline it is given — unboundedly, as its SLO slackens.
        let policy = ClusterConfig {
            requests: 1_500,
            ..ClusterConfig::default()
        };
        let baseline = policy.run(&FaultPlan::new());
        let kills = |cfg: &ClusterConfig| {
            FaultPlan::seeded(
                cfg.seed,
                SimTime::from_ms_f64(cfg.horizon_ms()),
                cfg.components(),
                0.01,
                FaultMix::kills_only(),
            )
        };
        let faulted = policy.run(&kills(&policy));
        assert!(
            faulted.p999 <= 3.0 * baseline.p999,
            "policy p999 {} vs fault-free {}",
            faulted.p999,
            baseline.p999
        );

        let naive = ClusterConfig {
            retry: RetryPolicy::none(),
            hedging: Hedging::None,
            budget: Budget::new(2_000.0, 2_000.0),
            ..policy
        };
        let naive_out = naive.run(&kills(&naive));
        assert!(
            naive_out.p999 >= 10.0 * faulted.p999,
            "naive p999 {} vs policy {}",
            naive_out.p999,
            faulted.p999
        );
        // The stranded requests wait out the whole 2 s deadline.
        assert!(
            naive_out.full < naive_out.requests,
            "naive strands requests on the dead replica"
        );
    }

    #[test]
    fn gray_storm_degrades_gracefully_instead_of_failing() {
        // A heavy pause/slow storm pushes the failsafe machine out of
        // Normal; degraded-mode coverage keeps answering partially.
        let cfg = ClusterConfig {
            requests: 1_200,
            ..ClusterConfig::default()
        };
        let mut plan = FaultPlan::seeded(
            cfg.seed,
            SimTime::from_ms_f64(cfg.horizon_ms()),
            cfg.components(),
            1.0,
            FaultMix::gray(),
        );
        // On top of the storm, take out every replica of two shards a
        // quarter into the run: coverage caps at 18/20 < min_coverage, so
        // the failsafe machine must degrade for requests to keep landing.
        let quarter = SimTime::from_ms_f64(cfg.horizon_ms() / 4.0);
        for comp in 0..2 * cfg.replicas {
            plan.at(quarter, comp, Fault::Kill);
        }
        let out = cfg.run(&plan);
        assert_eq!(out.full + out.partial + out.failed, out.requests);
        assert!(
            out.metrics.counter("failsafe.transitions") > 0,
            "machine reacted"
        );
        assert!(out.partial > 0, "partial results happened");
        assert!(
            out.metrics.counter("cluster.degraded_accepts") > 0,
            "degraded mode rescued sub-coverage results"
        );
        // Fault accounting is conserved and surfaced.
        assert_eq!(
            out.metrics.counter("fault.scheduled"),
            out.metrics.counter("fault.fired") + out.metrics.counter("fault.cancelled")
        );
    }

    #[test]
    fn sweep_on_serial_matches_individual_runs_and_is_pure() {
        let base = ClusterConfig {
            requests: 300,
            ..ClusterConfig::default()
        };
        let rates = [0.0, 0.05];
        let sweep = cluster_sweep_on(&base, &rates, FaultMix::kills_only(), &Serial);
        assert_eq!(sweep.len(), 2);
        let again = cluster_sweep_on(&base, &rates, FaultMix::kills_only(), &Serial);
        for (a, b) in sweep.iter().zip(&again) {
            assert_eq!(a.p999.to_bits(), b.p999.to_bits());
            assert_eq!(
                a.metrics.counter("cluster.attempts"),
                b.metrics.counter("cluster.attempts")
            );
        }
        // Faults strictly increase the repair work.
        assert!(sweep[1].metrics.counter("fault.fired") > sweep[0].metrics.counter("fault.fired"));
    }

    #[test]
    fn latencies_never_exceed_the_deadline() {
        let cfg = small();
        let plan = FaultPlan::seeded(
            cfg.seed,
            SimTime::from_ms_f64(cfg.horizon_ms()),
            cfg.components(),
            0.2,
            FaultMix::gray(),
        );
        let out = cfg.run(&plan);
        assert!(out.p999 <= cfg.budget.deadline_ms + 1e-9);
        assert!(out.mean <= cfg.budget.deadline_ms + 1e-9);
    }

    #[test]
    fn backoff_is_exponential_and_jittered() {
        let p = RetryPolicy::standard();
        let mut rng = Rng64::new(5);
        for nth in 0..3 {
            let base = p.backoff_base_ms * p.backoff_mult.powi(nth);
            for _ in 0..100 {
                let b = p.backoff_ms(nth as u32, &mut rng);
                assert!(b >= base && b < base * (1.0 + p.jitter), "nth={nth} b={b}");
            }
        }
    }

    #[test]
    fn policy_names_surface_for_reports() {
        assert_eq!(Routing::RoundRobin.describe(), "round-robin");
        assert_eq!(Routing::LeastOutstanding.describe(), "least-outstanding");
        assert_eq!(Routing::PowerOfTwo.describe(), "power-of-two");
        assert_eq!(Hedging::None.describe(), "no hedge");
        assert_eq!(Hedging::fixed(10.0).describe(), "hedge at 10 ms");
        assert_eq!(Hedging::adaptive(0.95).describe(), "hedge at online p95");
        assert_eq!(
            Hedging::adaptive_capped(0.95).describe(),
            "hedge at online p95 (capped)"
        );
    }

    #[test]
    fn cancellation_eliminates_stale_timer_fires() {
        // Every settled attempt used to leave its timeout timer to fire as
        // a guarded no-op; hedge and deadline timers likewise. With
        // first-class cancellation those timers are reaped instead:
        // `des.cancelled` absorbs them and the stale-fire tripwire reads
        // zero even under a gray-failure storm that exercises timeouts,
        // retries, hedges, and deadline misses all at once.
        let cfg = ClusterConfig {
            requests: 800,
            ..ClusterConfig::default()
        };
        let plan = FaultPlan::seeded(
            cfg.seed,
            SimTime::from_ms_f64(cfg.horizon_ms()),
            cfg.components(),
            0.5,
            FaultMix::gray(),
        );
        let out = cfg.run(&plan);
        assert_eq!(
            out.metrics.counter("cluster.stale_fires"),
            0,
            "a timer fired against an already-settled attempt/request"
        );
        assert!(
            out.metrics.counter("des.cancelled") > 0,
            "settled attempts cancelled their timeout timers"
        );
        // The run still did real timer work: events fired, and the timers
        // that did fire (real timeouts, deadline misses) are all there.
        assert!(out.metrics.counter("des.events_fired") > 0);
        assert!(
            out.metrics.counter("cluster.timeouts") > 0,
            "plan was hot enough"
        );
        // Arena telemetry surfaces alongside: steady-state scheduling
        // recycles slots and stays on the inline path.
        assert!(out.metrics.counter("des.arena_recycled") > 0);
        assert!(out.metrics.counter("des.inline_events") > 0);
    }

    #[test]
    fn power_of_two_runs_are_deterministic_and_leave_other_draws_alone() {
        let cfg = ClusterConfig {
            routing: Routing::PowerOfTwo,
            ..small()
        };
        let a = cfg.run(&FaultPlan::new());
        let b = cfg.run(&FaultPlan::new());
        assert_eq!(a.p999.to_bits(), b.p999.to_bits());
        assert_eq!(
            a.metrics.counter("cluster.attempts"),
            b.metrics.counter("cluster.attempts")
        );
        // The probes draw from a dedicated substream: the service-time
        // draw sequence is untouched, so a round-robin run of the same
        // seed sees the exact same request arrivals and leaf latencies
        // (identical fault-free full-answer accounting).
        let rr = small().run(&FaultPlan::new());
        assert_eq!(a.requests, rr.requests);
        assert_eq!(
            a.metrics.counter("cluster.requests"),
            rr.metrics.counter("cluster.requests")
        );
    }

    #[test]
    fn power_of_two_steers_around_a_slowed_replica() {
        // Same shape as the least-outstanding steering test: one replica
        // of every shard slowed 8x. Two random probes see the pile-up on
        // the slow replica often enough to route most first attempts away
        // from it, cutting timeouts well below round-robin's third.
        let mk = |routing| ClusterConfig {
            requests: 1_000,
            routing,
            hedging: Hedging::None,
            ..ClusterConfig::default()
        };
        let slow_all = |cfg: &ClusterConfig| {
            let mut plan = FaultPlan::new();
            let topo = Topology::striped(cfg.components(), cfg.replicas);
            plan.at_scope(
                SimTime::ZERO,
                &topo,
                0,
                Fault::Slow {
                    factor: 8.0,
                    for_time: SimTime::from_ms_f64(cfg.horizon_ms()),
                },
            );
            plan
        };
        let rr_cfg = mk(Routing::RoundRobin);
        let p2c_cfg = mk(Routing::PowerOfTwo);
        let rr = rr_cfg.run(&slow_all(&rr_cfg));
        let p2c = p2c_cfg.run(&slow_all(&p2c_cfg));
        assert!(
            p2c.metrics.counter("cluster.timeouts") < rr.metrics.counter("cluster.timeouts"),
            "p2c timeouts {} vs rr {}",
            p2c.metrics.counter("cluster.timeouts"),
            rr.metrics.counter("cluster.timeouts")
        );
        assert!(
            p2c.p99 <= rr.p99,
            "p2c p99 {} vs rr p99 {}",
            p2c.p99,
            rr.p99
        );
    }

    #[test]
    fn deterministic_routings_pick_without_drawing() {
        let candidates = [3u32, 1, 4];
        let outstanding = [9u32, 2, 0, 7, 2];
        let mut rng = Rng64::new(7);
        let mut untouched = rng.clone();
        assert_eq!(
            Routing::RoundRobin.pick(&candidates, &outstanding, &mut rng),
            3
        );
        // Replicas 1 and 4 tie at 2 outstanding: failover order wins.
        assert_eq!(
            Routing::LeastOutstanding.pick(&candidates, &outstanding, &mut rng),
            1
        );
        assert_eq!(rng.next_u64(), untouched.next_u64());
    }

    #[test]
    fn two_probe_pick_prefers_less_loaded_and_breaks_ties_by_failover_order() {
        let candidates = [3u32, 1, 4];
        let outstanding = [9u32, 2, 0, 7, 2];
        let mut rng = Rng64::new(7);
        for _ in 0..200 {
            let pick = Routing::PowerOfTwo.pick(&candidates, &outstanding, &mut rng);
            assert!(candidates.contains(&pick));
            // Replica 3 carries the heaviest load of the candidate set; a
            // two-probe pick only returns it when both probes land on it.
            if pick == 3 {
                continue;
            }
            assert!(outstanding[pick as usize] <= outstanding[3]);
        }
        // Ties (replicas 1 and 4 both at 2 outstanding) resolve to the
        // earlier failover position whenever the two probes differ; only
        // a double probe of the later position can return it. Over many
        // draws that makes the earlier candidate a 3:1 favorite.
        let tied = [1u32, 4];
        let (mut first, mut second) = (0, 0);
        for _ in 0..400 {
            match Routing::PowerOfTwo.pick(&tied, &outstanding, &mut rng) {
                1 => first += 1,
                4 => second += 1,
                other => panic!("picked {other} outside the candidate set"),
            }
        }
        assert!(second > 0, "double probes of the later position happen");
        assert!(
            first > 2 * second,
            "tie-break favors failover order: {first} vs {second}"
        );
    }

    #[test]
    fn capped_hedge_ignores_a_poisoned_digest() {
        // Poison the digest the way a correlated blast does: enough
        // straggler samples that the online p80 leaps past the attempt
        // timeout. The raw adaptive policy follows it up (and effectively
        // stops hedging); the capped policy holds at the static fallback.
        let mut digest = TailDigest::new();
        for _ in 0..100 {
            digest.add(120.0);
        }
        let adaptive = Hedging::adaptive(0.8);
        let capped = Hedging::adaptive_capped(0.8);
        assert!(adaptive.delay_ms(&digest).unwrap() > 100.0);
        assert_eq!(capped.delay_ms(&digest).unwrap(), 10.0);
        // On a fast shard both track the digest below the cap.
        let mut fast = TailDigest::new();
        for _ in 0..100 {
            fast.add(4.0);
        }
        let a = adaptive.delay_ms(&fast).unwrap();
        let c = capped.delay_ms(&fast).unwrap();
        assert_eq!(a.to_bits(), c.to_bits());
        assert!(c < 10.0);
        // And before warmup both sit at the fallback.
        assert_eq!(capped.delay_ms(&TailDigest::new()).unwrap(), 10.0);
    }

    #[test]
    fn capped_hedge_survives_the_blast_that_poisons_adaptive() {
        // The E21 policy-grid regression, reproduced at the grid's seed: a
        // correlated rack blast fills the per-shard digests with 6x
        // stragglers, the raw adaptive p80 climbs past the 18 ms attempt
        // timeout, and from then on round-robin + adaptive schedules its
        // hedges too late to beat the timeout — attempts that a 10 ms
        // hedge would have rescued expire instead, and p99.9 blows out
        // past the fixed-hedge cell. Capping the online delay at the
        // static fallback keeps the hedge inside the attempt budget: far
        // fewer timeouts and a tighter tail on the same plan.
        let mk = |hedging| ClusterConfig {
            requests: 1_500,
            seed: 67,
            routing: Routing::RoundRobin,
            hedging,
            ..ClusterConfig::default()
        };
        let blast = |cfg: &ClusterConfig| {
            let topo = Topology::striped(cfg.components(), cfg.replicas);
            let horizon = cfg.horizon_ms();
            let mut plan = FaultPlan::new();
            for (rack, start) in [(0u32, 0.20), (1, 0.575)] {
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
            plan
        };
        let adaptive_cfg = mk(Hedging::adaptive(0.80));
        let capped_cfg = mk(Hedging::adaptive_capped(0.80));
        let adaptive = adaptive_cfg.run(&blast(&adaptive_cfg));
        let capped = capped_cfg.run(&blast(&capped_cfg));
        assert!(
            capped.metrics.counter("cluster.hedges") >= adaptive.metrics.counter("cluster.hedges"),
            "capped hedges {} vs adaptive {}",
            capped.metrics.counter("cluster.hedges"),
            adaptive.metrics.counter("cluster.hedges")
        );
        // The poisoning signature: adaptive's late hedges let attempts
        // expire that the capped delay rescues.
        assert!(
            2 * capped.metrics.counter("cluster.timeouts")
                < adaptive.metrics.counter("cluster.timeouts"),
            "capped timeouts {} vs adaptive {}",
            capped.metrics.counter("cluster.timeouts"),
            adaptive.metrics.counter("cluster.timeouts")
        );
        assert!(
            capped.p999 < adaptive.p999,
            "capped p999 {} vs adaptive {}",
            capped.p999,
            adaptive.p999
        );
    }
}
