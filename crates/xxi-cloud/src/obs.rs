//! An observed fan-out cluster: the tail-at-scale model on the DES engine
//! with full telemetry.
//!
//! [`fanout`](crate::fanout) and [`hedge`](crate::hedge) answer *what* the
//! latency distribution is; this module answers *where a request's time
//! and energy went*. Each simulated request is a root span fanning out to
//! `fanout` leaf spans on the simulated clock; hedges appear as instant
//! events at the deadline; latencies stream into fixed-memory
//! [`LogHistogram`]s and joules into an [`EnergyLedger`] (leaf compute,
//! fabric RPCs, root idle-wait). With tracing disabled the simulation
//! runs identically and records only histograms and the ledger. A hedge
//! deadline is the screened serial quantile ([`LatencyDist::quantile`])
//! of the run generator's first 200 000 draws.
//!
//! Experiment E17 (`xxi run e17`) drives this model and can dump
//! the trace with `--trace <path>` for chrome://tracing.

use xxi_core::des::Sim;
use xxi_core::metrics::Metrics;
use xxi_core::obs::{EnergyLedger, Layer, LogHistogram, SpanId, Trace};
use xxi_core::rng::Rng64;
use xxi_core::time::SimTime;
use xxi_core::units::{Energy, Power, Seconds};

use crate::latency::{LatencyDist, Sampler};

/// Leaf server power while actively serving (W).
const LEAF_ACTIVE: Power = Power(50.0);
/// Root-side power burned while a request waits on its slowest leaf (W).
const ROOT_WAIT: Power = Power(5.0);
/// Fabric energy per RPC message, request or response (J).
const RPC_ENERGY: Energy = Energy(2e-6);

/// Configuration for one observed fan-out run.
#[derive(Clone, Copy, Debug)]
pub struct ObservedFanout {
    /// Leaf service-time distribution (ms).
    pub dist: LatencyDist,
    /// Leaves per request.
    pub fanout: u32,
    /// Number of requests to simulate.
    pub requests: u32,
    /// Request interarrival time (ms).
    pub interarrival_ms: f64,
    /// If set, hedge at this quantile of the leaf distribution (e.g. 0.95):
    /// a duplicate RPC is issued when a leaf is still running at the
    /// deadline, and the leaf finishes at the earlier of the two. The
    /// deadline is that quantile of the first 200 000 draws of the run's
    /// generator, taken by the screened [`LatencyDist::quantile`]: only
    /// the draws that can reach it become latencies, and the leaves then
    /// draw from where the 200 000 draws left the generator.
    pub hedge_quantile: Option<f64>,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ObservedFanout {
    fn default() -> ObservedFanout {
        ObservedFanout {
            dist: LatencyDist::typical_leaf(),
            fanout: 100,
            requests: 1_000,
            interarrival_ms: 1.0,
            hedge_quantile: None,
            seed: 17,
        }
    }
}

/// Everything one observed run produced.
#[derive(Clone, Debug)]
pub struct ClusterObservation {
    /// End-to-end request latency (ms), over all requests.
    pub request_latency: LogHistogram,
    /// Individual leaf service latency (ms), over all leaves of all
    /// requests (effective, i.e. after any hedge won).
    pub leaf_latency: LogHistogram,
    /// Energy attribution: leaf compute, fabric RPCs, root idle-wait.
    pub ledger: EnergyLedger,
    /// Counters: `requests`, `leaves`, `hedges`.
    pub metrics: Metrics,
    /// The event trace (empty if run with [`Trace::disabled`]).
    pub trace: Trace,
}

struct Pending {
    span: SpanId,
    start: SimTime,
    remaining: u32,
}

struct State {
    rng: Rng64,
    /// The run's `dist`, prepared once for every leaf and hedge draw.
    service: Sampler,
    pending: Vec<Pending>,
    request_latency: LogHistogram,
    leaf_latency: LogHistogram,
    /// Holds the `request_ms` observations; the counts below are posted
    /// into it once the run ends.
    metrics: Metrics,
    leaves: u64,
    requests: u64,
    hedges: u64,
    /// Ledger components, each summed in charge order from zero so that
    /// one [`EnergyLedger::charge_batch`] posts it bit for bit. Events:
    /// `leaves` for `leaf_service`, `leaves + hedges` for `fabric_rpc`
    /// and `requests` for `root_wait`.
    leaf_service: Energy,
    fabric_rpc: Energy,
    root_wait: Energy,
}

fn ms_to_sim(ms: f64) -> SimTime {
    SimTime::from_seconds(Seconds(ms * 1e-3))
}

impl ObservedFanout {
    /// Run the simulation, recording into `trace` (pass
    /// [`Trace::disabled`] for a stats-only run — same results, no
    /// events).
    pub fn run(&self, trace: Trace) -> ClusterObservation {
        assert!(self.fanout >= 1 && self.requests >= 1);
        let mut rng = Rng64::new(self.seed);
        let service = self.dist.sampler();
        let deadline_ms = self.hedge_quantile.map(|q| {
            assert!((0.0..1.0).contains(&q));
            self.dist.quantile(200_000, q * 100.0, &mut rng)
        });

        let state = State {
            rng,
            service,
            pending: Vec::with_capacity(self.requests as usize),
            request_latency: LogHistogram::new(),
            leaf_latency: LogHistogram::new(),
            metrics: Metrics::new(),
            leaves: 0,
            requests: 0,
            hedges: 0,
            leaf_service: Energy::ZERO,
            fabric_rpc: Energy::ZERO,
            root_wait: Energy::ZERO,
        };
        let mut sim = Sim::with_trace(state, trace);

        let fanout = self.fanout;
        for r in 0..self.requests {
            let at = ms_to_sim(r as f64 * self.interarrival_ms);
            sim.schedule_at(at, move |sim| {
                arrive(sim, fanout, deadline_ms);
            });
        }
        sim.run();

        let mut s = sim.state;
        let mut ledger = EnergyLedger::new();
        ledger.charge_batch("leaf_service", Layer::Compute, s.leaf_service, s.leaves);
        ledger.charge_batch(
            "fabric_rpc",
            Layer::Network,
            s.fabric_rpc,
            s.leaves + s.hedges,
        );
        ledger.charge_batch("root_wait", Layer::Idle, s.root_wait, s.requests);
        for (name, n) in [
            ("leaves", s.leaves),
            ("requests", s.requests),
            ("hedges", s.hedges),
        ] {
            if n > 0 {
                s.metrics.count(name, n);
            }
        }
        ClusterObservation {
            request_latency: s.request_latency,
            leaf_latency: s.leaf_latency,
            ledger,
            metrics: s.metrics,
            trace: sim.trace,
        }
    }
}

fn arrive(sim: &mut Sim<State>, fanout: u32, deadline_ms: Option<f64>) {
    let span = sim.trace_begin("request", "cloud", 0);
    let start = sim.now();
    sim.state.pending.push(Pending {
        span,
        start,
        remaining: fanout,
    });
    let req = sim.state.pending.len() - 1;

    for leaf in 0..fanout {
        let service = sim.state.service.sample(&mut sim.state.rng);
        let mut effective = service;
        if let Some(d) = deadline_ms {
            if service > d {
                // Leaf still running at the deadline: issue the hedge now
                // (as a simulated event) and finish at the earlier path.
                let second = d + sim.state.service.sample(&mut sim.state.rng);
                effective = service.min(second);
                sim.schedule_in(ms_to_sim(d), move |sim| {
                    sim.trace_instant("hedge", "cloud", 1 + leaf as u64);
                    sim.state.hedges += 1;
                    // Duplicate RPC out and back.
                    sim.state.fabric_rpc += RPC_ENERGY * 2.0;
                });
            }
        }
        sim.schedule_in(ms_to_sim(effective), move |sim| {
            leaf_done(sim, req, leaf, effective);
        });
    }
}

fn leaf_done(sim: &mut Sim<State>, req: usize, leaf: u32, service_ms: f64) {
    let now = sim.now();
    let start = sim.state.pending[req].start;
    sim.trace.span_args(
        "leaf",
        "cloud",
        1 + leaf as u64,
        start,
        now,
        &[("service_ms", service_ms)],
    );
    let s = &mut sim.state;
    s.leaf_latency.add(service_ms);
    s.leaves += 1;
    s.leaf_service += LEAF_ACTIVE * Seconds(service_ms * 1e-3);
    s.fabric_rpc += RPC_ENERGY * 2.0;

    let p = &mut s.pending[req];
    p.remaining -= 1;
    if p.remaining == 0 {
        let span = p.span;
        let latency_ms = now.since(p.start).ms();
        s.request_latency.add(latency_ms);
        s.requests += 1;
        s.metrics.observe("request_ms", latency_ms);
        s.root_wait += ROOT_WAIT * Seconds(latency_ms * 1e-3);
        sim.trace.end_args(span, now, &[("latency_ms", latency_ms)]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ObservedFanout {
        ObservedFanout {
            fanout: 20,
            requests: 400,
            ..ObservedFanout::default()
        }
    }

    #[test]
    fn counts_and_histograms_line_up() {
        let obs = small().run(Trace::disabled());
        assert_eq!(obs.metrics.counter("requests"), 400);
        assert_eq!(obs.metrics.counter("leaves"), 400 * 20);
        assert_eq!(obs.request_latency.count(), 400);
        assert_eq!(obs.leaf_latency.count(), 400 * 20);
        // Fan-out makes the request strictly slower than a typical leaf.
        assert!(obs.request_latency.p50() > obs.leaf_latency.p50());
    }

    #[test]
    fn ledger_attributes_all_three_layers() {
        let obs = small().run(Trace::disabled());
        assert!(obs.ledger.layer_total(Layer::Compute).value() > 0.0);
        assert!(obs.ledger.layer_total(Layer::Network).value() > 0.0);
        assert!(obs.ledger.layer_total(Layer::Idle).value() > 0.0);
        // Leaf compute dominates fabric RPCs at these parameters.
        assert!(
            obs.ledger.component("leaf_service") > obs.ledger.component("fabric_rpc"),
            "{}",
            obs.ledger
        );
    }

    #[test]
    fn hedging_cuts_the_far_tail_for_a_few_percent_load() {
        let base = ObservedFanout {
            requests: 2_000,
            ..ObservedFanout::default()
        };
        let plain = base.run(Trace::disabled());
        let hedged = ObservedFanout {
            hedge_quantile: Some(0.95),
            ..base
        }
        .run(Trace::disabled());
        assert!(
            hedged.request_latency.p999() < plain.request_latency.p999(),
            "hedged={} plain={}",
            hedged.request_latency.p999(),
            plain.request_latency.p999()
        );
        let extra =
            hedged.metrics.counter("hedges") as f64 / hedged.metrics.counter("leaves") as f64;
        assert!((0.02..0.10).contains(&extra), "extra load {extra}");
    }

    #[test]
    fn trace_contains_request_leaf_and_hedge_events() {
        let obs = ObservedFanout {
            fanout: 10,
            requests: 20,
            hedge_quantile: Some(0.9),
            ..ObservedFanout::default()
        }
        .run(Trace::enabled());
        assert!(!obs.trace.is_empty());
        let json = obs.trace.chrome_json();
        for name in ["\"request\"", "\"leaf\"", "\"hedge\""] {
            assert!(json.contains(name), "missing {name}");
        }
    }

    #[test]
    fn tracing_does_not_change_results() {
        let on = small().run(Trace::enabled());
        let off = small().run(Trace::disabled());
        assert_eq!(on.request_latency.p99(), off.request_latency.p99());
        assert_eq!(
            on.ledger.total_spent().value(),
            off.ledger.total_spent().value()
        );
        assert_eq!(off.trace.events_capacity(), 0);
    }
}
