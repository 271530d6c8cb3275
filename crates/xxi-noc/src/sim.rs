//! Synchronous flit-level mesh simulator.
//!
//! A cycle-driven model of a wormhole-class mesh at single-flit-packet
//! granularity: each router has one FIFO per input port; each cycle every
//! output port forwards at most one flit, chosen by rotating round-robin
//! arbitration over the input ports; forwarding requires a free slot in the
//! downstream FIFO (credit backpressure). This is the standard abstraction
//! for latency-vs-offered-load curves: it exhibits the canonical hockey-
//! stick saturation that experiment E13 sweeps.
//!
//! Determinism: arbitration state and the injection RNG are seeded, so a
//! `(config, seed)` pair fully determines the run.
//!
//! # How a cycle is switched
//!
//! Every flit carries `out`, the output port it requests at the router
//! whose queue holds it, looked up once from a route table (built from
//! [`Mesh::route`]) when the flit enters that queue. Each router keeps a
//! 7-bit `busy` mask of its non-empty input queues; routers whose mask is
//! zero cost nothing. For a busy router the head flits fold into
//! `req[out]`, the mask of inputs requesting each output, and the
//! round-robin winner of an output is the first set bit of `req[out]` at or
//! after its pointer (a 7-bit rotate plus `trailing_zeros`).
//!
//! Switching is two-phase: every router decides against start-of-cycle
//! occupancy, then the moves apply in decision order (router ascending,
//! output port ascending), so a flit moves at most one hop per cycle and
//! deliveries reach the statistics and the trace in a fixed sequence.
//! The decisions are independent of router order even without tracking
//! slots claimed earlier in the same cycle: each input queue has exactly
//! one upstream `(router, output)` pair, and an output forwards at most one
//! flit per cycle, so no other decision can claim its downstream slot. A
//! full downstream queue blocks every input requesting that output alike,
//! so such an output is skipped with its pointer unchanged.
//!
//! Queues are flat ring buffers, `queue_depth` flits each, indexed
//! `router * 8 + port` (one spare index per router keeps that a shift),
//! and the per-cycle move list is reused, so stepping never allocates. Link
//! and router energy accumulate in two local sums (each component's
//! charges are one constant, added in charge order) and post to the
//! [`EnergyLedger`] once, at the end of [`NocSim::run_observed`].

use crate::topology::{Dir, Mesh};
use crate::traffic::{neighbors, Pattern};
use xxi_core::obs::{EnergyLedger, Layer, LogHistogram, Trace};
use xxi_core::rng::{chance_cut, Rng64};
use xxi_core::time::SimTime;
use xxi_core::units::Energy;

/// Trace timestamp of a cycle number, assuming a 1 GHz router clock.
fn cycle_ts(cycle: u64) -> SimTime {
    SimTime::from_ns(cycle)
}

/// Link energy per flit traversal (~128-bit flit on a short on-chip wire).
const LINK_HOP_ENERGY: Energy = Energy(2.0e-12);
/// Router switching energy per flit forwarded or ejected.
const ROUTER_ENERGY: Energy = Energy(1.0e-12);

/// Ports per router: the six mesh directions plus local ejection.
const PORTS: usize = Dir::ALL.len();
/// Index of the ejection port.
const LOCAL: usize = PORTS - 1;
/// Queue-index stride per router, `q = router * STRIDE + port`: a power
/// of two, so a queue's router and port are a shift and a mask.
const STRIDE: usize = 8;
/// "No queue": the downstream of the ejection port and of mesh edges.
const NO_QUEUE: usize = usize::MAX;

/// Simulator configuration.
#[derive(Clone, Copy, Debug)]
pub struct NocConfig {
    /// Topology.
    pub mesh: Mesh,
    /// Per-input-port FIFO depth in flits.
    pub queue_depth: usize,
    /// Traffic pattern.
    pub pattern: Pattern,
    /// Injection rate in flits per node per cycle (0–1).
    pub injection_rate: f64,
    /// RNG seed.
    pub seed: u64,
}

impl NocConfig {
    /// A conventional 8×8 mesh at the given injection rate.
    pub fn mesh8x8(pattern: Pattern, injection_rate: f64, seed: u64) -> NocConfig {
        NocConfig {
            mesh: Mesh::new_2d(8, 8),
            queue_depth: 4,
            pattern,
            injection_rate,
            seed,
        }
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct Flit {
    dest: usize,
    injected_at: u64,
    hops: u32,
    /// Output port requested at the router whose queue holds the flit.
    out: u8,
}

/// What [`Pattern::dest`] computes for one source from the mesh alone:
/// `to[..n]` are its Neighbor candidates in `Dir::ALL` order, of which
/// injection draws one, or its one Transpose destination, which it takes
/// without a draw. `n == 0`: the source does not inject.
#[derive(Clone, Copy)]
struct Dests {
    to: [usize; 6],
    n: usize,
}

/// One decision of a cycle: pop the head of input queue `from` and push
/// it onto input queue `to`, or eject it when `to` is [`NO_QUEUE`].
#[derive(Clone, Copy)]
struct Move {
    from: usize,
    to: usize,
}

/// Aggregate results of a run.
///
/// The counters cover the measurement window, the `measure` cycles after
/// warm-up. A flit counts as offered in the cycle its source tries to
/// inject it, and as delivered in the cycle it is ejected, so flits
/// injected during warm-up and still in flight when the window opens are
/// delivered but never offered: `delivered` can exceed
/// `offered − throttled` by at most the buffer capacity,
/// `nodes × 7 × queue_depth`.
#[derive(Clone, Debug)]
pub struct NocResult {
    /// Flits ejected during the measurement window, including flits
    /// injected during warm-up.
    pub delivered: u64,
    /// Injection attempts during the measurement window (a source whose
    /// pattern names no destination does not offer).
    pub offered: u64,
    /// Offered flits refused because the source queue was full.
    pub throttled: u64,
    /// Mean packet latency in cycles (measurement phase).
    pub mean_latency: f64,
    /// Median packet latency in cycles.
    pub p50_latency: f64,
    /// 99th-percentile packet latency in cycles.
    pub p99_latency: f64,
    /// 99.9th-percentile packet latency in cycles.
    pub p999_latency: f64,
    /// Max packet latency in cycles.
    pub max_latency: f64,
    /// Mean hops per delivered flit.
    pub mean_hops: f64,
    /// Delivered throughput in flits/node/cycle.
    pub throughput: f64,
    /// Total link traversals (for energy accounting).
    pub link_traversals: u64,
}

/// Full telemetry from an observed run: the aggregate result plus the
/// per-packet latency/hop distributions, the energy ledger (links and
/// routers, [`Layer::Network`]), and the event trace.
#[derive(Clone, Debug)]
pub struct NocObservation {
    /// The aggregate counters and quantiles.
    pub result: NocResult,
    /// Per-packet latency in cycles (measurement phase).
    pub latency: LogHistogram,
    /// Per-packet hop counts (measurement phase).
    pub hops: LogHistogram,
    /// Energy attribution: `noc_link` and `noc_router`.
    pub ledger: EnergyLedger,
    /// Per-packet spans (`flit` on the destination node's track) and
    /// `throttled` instants; empty unless tracing was enabled.
    pub trace: Trace,
}

/// The simulator.
pub struct NocSim {
    cfg: NocConfig,
    /// `route[cur * nodes + dest]`: the output port of `Mesh::route`.
    route: Vec<u8>,
    /// `downstream[router * STRIDE + out]`: the input queue that output
    /// feeds, or [`NO_QUEUE`].
    downstream: Vec<usize>,
    /// Ring-buffer storage: queue `q = router * STRIDE + port` owns slots
    /// `q * queue_depth .. (q + 1) * queue_depth`.
    slots: Vec<Flit>,
    head: Vec<usize>,
    len: Vec<usize>,
    /// Per router, bit `p` set iff input queue `p` is non-empty.
    busy: Vec<u8>,
    /// Round-robin pointer per router and output port.
    rr: Vec<[u8; PORTS]>,
    /// This cycle's decisions (kept to reuse the allocation).
    moves: Vec<Move>,
    /// Per source, its [`Dests`] under a Neighbor or Transpose pattern;
    /// empty for Uniform and Hotspot, which draw through [`Pattern::dest`].
    dests: Vec<Dests>,
    rng: Rng64,
    cycle: u64,
    latency_hist: LogHistogram,
    hops_hist: LogHistogram,
    /// Measured `noc_link` / `noc_router` energy and charge counts.
    link_energy: Energy,
    link_charges: u64,
    router_energy: Energy,
    router_charges: u64,
    /// Trace recorder: disabled by default; assign [`Trace::enabled`]
    /// before running to capture per-packet spans (timestamped at 1 ns per
    /// cycle) during the measurement phase.
    pub trace: Trace,
    delivered: u64,
    offered: u64,
    throttled: u64,
    link_traversals: u64,
    measuring: bool,
}

impl NocSim {
    /// Build a simulator.
    pub fn new(cfg: NocConfig) -> NocSim {
        assert!(cfg.queue_depth >= 1);
        assert!((0.0..=1.0).contains(&cfg.injection_rate));
        let mesh = cfg.mesh;
        let nodes = mesh.nodes();
        let route = (0..nodes)
            .flat_map(|cur| (0..nodes).map(move |dest| mesh.route(cur, dest).index() as u8))
            .collect();
        let downstream = (0..nodes * STRIDE)
            .map(|q| {
                let (r, out) = (q / STRIDE, q % STRIDE);
                Dir::ALL
                    .get(out)
                    .and_then(|&dir| Some(mesh.neighbor(r, dir)? * STRIDE + dir.opposite().index()))
                    .unwrap_or(NO_QUEUE)
            })
            .collect();
        let dests = match cfg.pattern {
            Pattern::Neighbor => (0..nodes)
                .map(|src| {
                    let (to, n) = neighbors(&mesh, src);
                    Dests { to, n }
                })
                .collect(),
            Pattern::Transpose => (0..nodes)
                .map(|src| {
                    // Transpose never draws.
                    let dest = cfg.pattern.dest(&mesh, src, &mut Rng64::new(0));
                    Dests {
                        to: [dest.unwrap_or(0); 6],
                        n: usize::from(dest.is_some()),
                    }
                })
                .collect(),
            Pattern::Uniform | Pattern::Hotspot { .. } => Vec::new(),
        };
        let queues = nodes * STRIDE;
        NocSim {
            rng: Rng64::new(cfg.seed),
            cfg,
            route,
            downstream,
            slots: vec![Flit::default(); queues * cfg.queue_depth],
            head: vec![0; queues],
            len: vec![0; queues],
            busy: vec![0; nodes],
            rr: vec![[0; PORTS]; nodes],
            moves: Vec::new(),
            dests,
            cycle: 0,
            latency_hist: LogHistogram::new(),
            hops_hist: LogHistogram::new(),
            link_energy: Energy::ZERO,
            link_charges: 0,
            router_energy: Energy::ZERO,
            router_charges: 0,
            trace: Trace::disabled(),
            delivered: 0,
            offered: 0,
            throttled: 0,
            link_traversals: 0,
            measuring: false,
        }
    }

    /// Advance one cycle: inject, then switch.
    pub fn step(&mut self) {
        self.inject();
        self.switch();
        self.cycle += 1;
    }

    /// The output port a flit bound for `dest` requests at `router`.
    fn out_port(&self, router: usize, dest: usize) -> u8 {
        self.route[router * self.cfg.mesh.nodes() + dest]
    }

    /// Append `f` to queue `q`, which must have a free slot.
    fn push(&mut self, q: usize, f: Flit) {
        let depth = self.cfg.queue_depth;
        debug_assert!(self.len[q] < depth);
        let i = self.head[q] + self.len[q];
        let i = if i >= depth { i - depth } else { i };
        self.slots[q * depth + i] = f;
        self.len[q] += 1;
        self.busy[q / STRIDE] |= 1 << (q % STRIDE);
    }

    /// Remove the head of queue `q`, which must be non-empty.
    fn pop(&mut self, q: usize) -> Flit {
        let depth = self.cfg.queue_depth;
        debug_assert!(self.len[q] > 0);
        let f = self.slots[q * depth + self.head[q]];
        let h = self.head[q] + 1;
        self.head[q] = if h == depth { 0 } else { h };
        self.len[q] -= 1;
        self.busy[q / STRIDE] &= !(u8::from(self.len[q] == 0) << (q % STRIDE));
        f
    }

    /// Offer one flit per source with probability `injection_rate`. The
    /// coin is `Rng64::chance`'s draw tested as an integer cut, taken from
    /// the rate each cycle (a caller may change it between steps).
    fn inject(&mut self) {
        let nodes = self.cfg.mesh.nodes();
        let cut = chance_cut(self.cfg.injection_rate);
        for src in 0..nodes {
            if self.rng.next_u64() >> 11 >= cut {
                continue;
            }
            let dest = match self.cfg.pattern {
                Pattern::Neighbor => match self.dests[src] {
                    Dests { n: 0, .. } => continue,
                    Dests { to, n } => to[self.rng.below(n as u64) as usize],
                },
                Pattern::Transpose => match self.dests[src] {
                    Dests { n: 0, .. } => continue,
                    Dests { to, .. } => to[0],
                },
                pattern => match pattern.dest(&self.cfg.mesh, src, &mut self.rng) {
                    Some(dest) => dest,
                    None => continue,
                },
            };
            if self.measuring {
                self.offered += 1;
            }
            let q = src * STRIDE + LOCAL;
            if self.len[q] < self.cfg.queue_depth {
                let out = self.out_port(src, dest);
                self.push(
                    q,
                    Flit {
                        dest,
                        injected_at: self.cycle,
                        hops: 0,
                        out,
                    },
                );
            } else if self.measuring {
                self.throttled += 1;
                self.trace
                    .instant("throttled", "noc", src as u64, cycle_ts(self.cycle));
            }
        }
    }

    fn switch(&mut self) {
        let depth = self.cfg.queue_depth;
        let mut moves = std::mem::take(&mut self.moves);
        moves.clear();
        for r in 0..self.busy.len() {
            let mut pending = self.busy[r];
            if pending == 0 {
                continue;
            }
            // req[out]: the inputs whose head flit requests `out`;
            // outs: the outputs requested at all.
            let mut req = [0u8; PORTS];
            let mut outs = 0u8;
            while pending != 0 {
                let inp = pending.trailing_zeros() as usize;
                pending &= pending - 1;
                let q = r * STRIDE + inp;
                let out = self.slots[q * depth + self.head[q]].out;
                req[out as usize] |= 1 << inp;
                outs |= 1 << out;
            }
            while outs != 0 {
                let out = outs.trailing_zeros() as usize;
                outs &= outs - 1;
                let to = self.downstream[r * STRIDE + out];
                if out != LOCAL && (to == NO_QUEUE || self.len[to] == depth) {
                    continue;
                }
                let rr = self.rr[r][out] as u32;
                let mask = req[out] as u32;
                let rotated = ((mask >> rr) | (mask << (PORTS as u32 - rr))) & 0x7f;
                let inp = (rr + rotated.trailing_zeros()) as usize % PORTS;
                self.rr[r][out] = ((inp + 1) % PORTS) as u8;
                moves.push(Move {
                    from: r * STRIDE + inp,
                    to,
                });
            }
        }

        for &Move { from, to } in &moves {
            let mut f = self.pop(from);
            if to == NO_QUEUE {
                debug_assert_eq!(f.dest, from / STRIDE);
                self.delivered_flit(f);
            } else {
                f.hops += 1;
                self.link_traversals += 1;
                if self.measuring {
                    self.link_energy += LINK_HOP_ENERGY;
                    self.link_charges += 1;
                    self.router_energy += ROUTER_ENERGY;
                    self.router_charges += 1;
                }
                f.out = self.out_port(to / STRIDE, f.dest);
                self.push(to, f);
            }
        }
        self.moves = moves;
    }

    fn delivered_flit(&mut self, f: Flit) {
        if self.measuring {
            self.delivered += 1;
            let cycles = (self.cycle - f.injected_at) as f64;
            self.latency_hist.add(cycles);
            self.hops_hist.add(f.hops as f64);
            self.router_energy += ROUTER_ENERGY;
            self.router_charges += 1;
            self.trace.span_args(
                "flit",
                "noc",
                f.dest as u64,
                cycle_ts(f.injected_at),
                cycle_ts(self.cycle),
                &[("hops", f.hops as f64)],
            );
        }
    }

    /// Run `warmup` cycles unmeasured, then `measure` measured cycles, then
    /// drain-free stop; returns aggregate results.
    pub fn run(self, warmup: u64, measure: u64) -> NocResult {
        self.run_observed(warmup, measure).result
    }

    /// Like [`NocSim::run`] but also returns the per-packet histograms,
    /// the energy ledger, and the trace (enable `self.trace` first to get
    /// events).
    pub fn run_observed(mut self, warmup: u64, measure: u64) -> NocObservation {
        for _ in 0..warmup {
            self.step();
        }
        self.measuring = true;
        let start = self.cycle;
        for _ in 0..measure {
            self.step();
        }
        let cycles = (self.cycle - start) as f64;
        let nodes = self.cfg.mesh.nodes() as f64;
        let result = NocResult {
            delivered: self.delivered,
            offered: self.offered,
            throttled: self.throttled,
            mean_latency: self.latency_hist.mean(),
            p50_latency: self.latency_hist.p50(),
            p99_latency: self.latency_hist.p99(),
            p999_latency: self.latency_hist.p999(),
            max_latency: self.latency_hist.max(),
            mean_hops: self.hops_hist.mean(),
            throughput: self.delivered as f64 / cycles / nodes,
            link_traversals: self.link_traversals,
        };
        let mut ledger = EnergyLedger::new();
        ledger.charge_batch(
            "noc_link",
            Layer::Network,
            self.link_energy,
            self.link_charges,
        );
        ledger.charge_batch(
            "noc_router",
            Layer::Network,
            self.router_energy,
            self.router_charges,
        );
        NocObservation {
            result,
            latency: self.latency_hist,
            hops: self.hops_hist,
            ledger,
            trace: self.trace,
        }
    }
}

/// Sweep injection rates and return `(rate, mean_latency, throughput)`
/// triples — the saturation curve of experiment E13.
pub fn load_sweep(mesh: Mesh, pattern: Pattern, rates: &[f64], seed: u64) -> Vec<(f64, f64, f64)> {
    rates
        .iter()
        .map(|&rate| {
            let cfg = NocConfig {
                mesh,
                queue_depth: 4,
                pattern,
                injection_rate: rate,
                seed,
            };
            let r = NocSim::new(cfg).run(2_000, 8_000);
            (rate, r.mean_latency, r.throughput)
        })
        .collect()
}

/// The simulator as it stood before the request-mask rewrite, kept
/// verbatim as the bit-for-bit oracle: `VecDeque` input FIFOs, a
/// per-cycle `claims` table, a 49-way (output, input) scan calling
/// [`Mesh::route`] per candidate, a ledger charge per hop, and the
/// `Vec`-collecting neighbor pick.
#[cfg(test)]
mod oracle {
    use std::collections::VecDeque;

    use xxi_core::stats::Streaming;

    use super::*;

    /// `Pattern::dest` with the `Vec`-collecting `Neighbor` branch.
    fn reference_dest(pattern: Pattern, mesh: &Mesh, src: usize, rng: &mut Rng64) -> Option<usize> {
        match pattern {
            Pattern::Neighbor => {
                let neighbors: Vec<usize> = crate::topology::Dir::ALL
                    .iter()
                    .filter(|d| **d != crate::topology::Dir::Local)
                    .filter_map(|d| mesh.neighbor(src, *d))
                    .collect();
                if neighbors.is_empty() {
                    None
                } else {
                    Some(*rng.choose(&neighbors))
                }
            }
            _ => pattern.dest(mesh, src, rng),
        }
    }

    #[derive(Clone, Copy, Debug)]
    struct Flit {
        dest: usize,
        injected_at: u64,
        hops: u32,
    }

    struct Router {
        inputs: [VecDeque<Flit>; 7],
        /// Round-robin pointer per output port.
        rr: [usize; 7],
    }

    pub(super) struct RefSim {
        cfg: NocConfig,
        routers: Vec<Router>,
        rng: Rng64,
        cycle: u64,
        latency: Streaming,
        hops: Streaming,
        latency_hist: LogHistogram,
        hops_hist: LogHistogram,
        ledger: EnergyLedger,
        pub(super) trace: Trace,
        delivered: u64,
        offered: u64,
        throttled: u64,
        link_traversals: u64,
        measuring: bool,
    }

    impl RefSim {
        pub(super) fn new(cfg: NocConfig) -> RefSim {
            assert!(cfg.queue_depth >= 1);
            assert!((0.0..=1.0).contains(&cfg.injection_rate));
            let routers = (0..cfg.mesh.nodes())
                .map(|_| Router {
                    inputs: Default::default(),
                    rr: [0; 7],
                })
                .collect();
            RefSim {
                rng: Rng64::new(cfg.seed),
                cfg,
                routers,
                cycle: 0,
                latency: Streaming::new(),
                hops: Streaming::new(),
                latency_hist: LogHistogram::new(),
                hops_hist: LogHistogram::new(),
                ledger: EnergyLedger::new(),
                trace: Trace::disabled(),
                delivered: 0,
                offered: 0,
                throttled: 0,
                link_traversals: 0,
                measuring: false,
            }
        }

        fn step(&mut self) {
            self.inject();
            self.switch();
            self.cycle += 1;
        }

        fn inject(&mut self) {
            let nodes = self.cfg.mesh.nodes();
            for src in 0..nodes {
                if !self.rng.chance(self.cfg.injection_rate) {
                    continue;
                }
                let Some(dest) =
                    reference_dest(self.cfg.pattern, &self.cfg.mesh, src, &mut self.rng)
                else {
                    continue;
                };
                if self.measuring {
                    self.offered += 1;
                }
                let q = &mut self.routers[src].inputs[Dir::Local.index()];
                if q.len() < self.cfg.queue_depth {
                    q.push_back(Flit {
                        dest,
                        injected_at: self.cycle,
                        hops: 0,
                    });
                } else if self.measuring {
                    self.throttled += 1;
                    self.trace
                        .instant("throttled", "noc", src as u64, cycle_ts(self.cycle));
                }
            }
        }

        fn switch(&mut self) {
            // Two-phase: decide all moves against the *current* occupancy, then
            // apply, so a flit moves at most one hop per cycle and router scan
            // order cannot create free-slot races.
            let mesh = self.cfg.mesh;
            // (from_router, from_port) -> (to_router, to_port) or delivery.
            enum Move {
                Hop {
                    from: usize,
                    port: usize,
                    to: usize,
                    to_port: usize,
                },
                Deliver {
                    from: usize,
                    port: usize,
                },
            }
            let mut moves: Vec<Move> = Vec::new();
            // Claimed slots this cycle: (router, port) -> claims.
            let mut claims = vec![[0u8; 7]; self.routers.len()];

            for r in 0..self.routers.len() {
                // Each output port arbitrates independently among input ports.
                for out in Dir::ALL {
                    let out_idx = out.index();
                    let rr = self.routers[r].rr[out_idx];
                    let mut chosen: Option<usize> = None;
                    for k in 0..7 {
                        let inp = (rr + k) % 7;
                        let Some(f) = self.routers[r].inputs[inp].front() else {
                            continue;
                        };
                        if mesh.route(r, f.dest) != out {
                            continue;
                        }
                        // Check downstream capacity.
                        if out == Dir::Local {
                            chosen = Some(inp);
                            break;
                        }
                        let Some(to) = mesh.neighbor(r, out) else {
                            continue;
                        };
                        let to_port = out.opposite().index();
                        let free = self.cfg.queue_depth
                            - self.routers[to].inputs[to_port].len()
                            - claims[to][to_port] as usize;
                        if free > 0 {
                            chosen = Some(inp);
                            break;
                        }
                    }
                    if let Some(inp) = chosen {
                        self.routers[r].rr[out_idx] = (inp + 1) % 7;
                        if out == Dir::Local {
                            moves.push(Move::Deliver { from: r, port: inp });
                        } else {
                            let to = mesh.neighbor(r, out).unwrap();
                            let to_port = out.opposite().index();
                            claims[to][to_port] += 1;
                            moves.push(Move::Hop {
                                from: r,
                                port: inp,
                                to,
                                to_port,
                            });
                        }
                    }
                }
            }

            for m in moves {
                match m {
                    Move::Deliver { from, port } => {
                        let f = self.routers[from].inputs[port].pop_front().unwrap();
                        debug_assert_eq!(f.dest, from);
                        self.delivered_flit(f);
                    }
                    Move::Hop {
                        from,
                        port,
                        to,
                        to_port,
                    } => {
                        let mut f = self.routers[from].inputs[port].pop_front().unwrap();
                        f.hops += 1;
                        self.link_traversals += 1;
                        if self.measuring {
                            self.ledger
                                .charge("noc_link", Layer::Network, LINK_HOP_ENERGY);
                            self.ledger
                                .charge("noc_router", Layer::Network, ROUTER_ENERGY);
                        }
                        self.routers[to].inputs[to_port].push_back(f);
                        debug_assert!(
                            self.routers[to].inputs[to_port].len() <= self.cfg.queue_depth
                        );
                    }
                }
            }
        }

        fn delivered_flit(&mut self, f: Flit) {
            if self.measuring {
                self.delivered += 1;
                let cycles = (self.cycle - f.injected_at) as f64;
                self.latency.add(cycles);
                self.hops.add(f.hops as f64);
                self.latency_hist.add(cycles);
                self.hops_hist.add(f.hops as f64);
                self.ledger
                    .charge("noc_router", Layer::Network, ROUTER_ENERGY);
                self.trace.span_args(
                    "flit",
                    "noc",
                    f.dest as u64,
                    cycle_ts(f.injected_at),
                    cycle_ts(self.cycle),
                    &[("hops", f.hops as f64)],
                );
            }
        }

        pub(super) fn run_observed(mut self, warmup: u64, measure: u64) -> NocObservation {
            for _ in 0..warmup {
                self.step();
            }
            self.measuring = true;
            let start = self.cycle;
            for _ in 0..measure {
                self.step();
            }
            let cycles = (self.cycle - start) as f64;
            let nodes = self.cfg.mesh.nodes() as f64;
            let result = NocResult {
                delivered: self.delivered,
                offered: self.offered,
                throttled: self.throttled,
                mean_latency: self.latency.mean(),
                p50_latency: self.latency_hist.p50(),
                p99_latency: self.latency_hist.p99(),
                p999_latency: self.latency_hist.p999(),
                max_latency: self.latency.max(),
                mean_hops: self.hops.mean(),
                throughput: self.delivered as f64 / cycles / nodes,
                link_traversals: self.link_traversals,
            };
            NocObservation {
                result,
                latency: self.latency_hist,
                hops: self.hops_hist,
                ledger: self.ledger,
                trace: self.trace,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_load_latency_matches_hop_count() {
        // A single flit travels hops × 1 cycle per hop + 1 ejection cycle.
        let cfg = NocConfig::mesh8x8(Pattern::Uniform, 0.005, 7);
        let r = NocSim::new(cfg).run(1_000, 20_000);
        assert!(r.delivered > 100);
        // At near-zero load, latency ≈ mean_hops + small constant.
        assert!(
            (r.mean_latency - r.mean_hops).abs() < 3.0,
            "lat={} hops={}",
            r.mean_latency,
            r.mean_hops
        );
        // Mean hops ≈ analytic uniform mean (≈ 5.25 for 8×8).
        let expect = Mesh::new_2d(8, 8).mean_hops_uniform();
        assert!((r.mean_hops - expect).abs() < 0.5, "hops={}", r.mean_hops);
    }

    #[test]
    fn throughput_tracks_offered_load_below_saturation() {
        let cfg = NocConfig::mesh8x8(Pattern::Uniform, 0.05, 8);
        let r = NocSim::new(cfg).run(2_000, 10_000);
        assert!(
            (r.throughput - 0.05).abs() < 0.01,
            "throughput={}",
            r.throughput
        );
        assert_eq!(r.throttled, 0);
    }

    #[test]
    fn saturation_hockey_stick() {
        // Latency at high load must exceed low-load latency by a lot, and
        // throughput must flatten below offered load.
        let m = Mesh::new_2d(8, 8);
        let sweep = load_sweep(m, Pattern::Uniform, &[0.02, 0.45], 9);
        let (lo_rate, lo_lat, lo_thr) = sweep[0];
        let (hi_rate, hi_lat, hi_thr) = sweep[1];
        assert!(hi_lat > 3.0 * lo_lat, "lo={lo_lat} hi={hi_lat}");
        assert!((lo_thr - lo_rate).abs() < 0.005);
        assert!(
            hi_thr < hi_rate,
            "saturated throughput {hi_thr} < {hi_rate}"
        );
    }

    #[test]
    fn transpose_saturates_earlier_than_uniform() {
        // Dimension-order routing concentrates transpose traffic.
        let m = Mesh::new_2d(8, 8);
        let u = load_sweep(m, Pattern::Uniform, &[0.30], 10)[0];
        let t = load_sweep(m, Pattern::Transpose, &[0.30], 10)[0];
        assert!(
            t.1 > u.1,
            "transpose latency {} should exceed uniform {}",
            t.1,
            u.1
        );
    }

    #[test]
    fn neighbor_traffic_is_cheap() {
        let m = Mesh::new_2d(8, 8);
        let n = load_sweep(m, Pattern::Neighbor, &[0.30], 11)[0];
        // One-hop traffic stays low-latency even at 0.3 flits/node/cycle.
        assert!(n.1 < 10.0, "neighbor latency={}", n.1);
    }

    #[test]
    fn stacked_3d_beats_planar_on_latency() {
        // E13's 3D claim: same node count, lower hop count, lower latency.
        let planar = NocSim::new(NocConfig {
            mesh: Mesh::new_2d(8, 8),
            queue_depth: 4,
            pattern: Pattern::Uniform,
            injection_rate: 0.1,
            seed: 12,
        })
        .run(2_000, 8_000);
        let stacked = NocSim::new(NocConfig {
            mesh: Mesh::new_3d(4, 4, 4),
            queue_depth: 4,
            pattern: Pattern::Uniform,
            injection_rate: 0.1,
            seed: 12,
        })
        .run(2_000, 8_000);
        assert!(stacked.mean_hops < planar.mean_hops);
        assert!(stacked.mean_latency < planar.mean_latency);
    }

    #[test]
    fn conservation_no_flits_lost() {
        // Run with measurement from cycle 0 and drain by injecting nothing:
        // delivered + in-flight == injected.
        let cfg = NocConfig::mesh8x8(Pattern::Uniform, 0.1, 13);
        let mut sim = NocSim::new(cfg);
        sim.measuring = true;
        for _ in 0..1_000 {
            sim.step();
        }
        let injected = sim.offered - sim.throttled;
        sim.cfg.injection_rate = 0.0;
        for _ in 0..10_000 {
            sim.step();
        }
        assert_eq!(sim.delivered, injected);
    }

    #[test]
    fn delivered_is_bounded_by_window_injections_plus_buffer_capacity() {
        // Warm-up flits still in flight when the window opens are delivered
        // but were never offered; at most every buffer slot holds one.
        for rate in [0.1, 0.4] {
            let cfg = NocConfig::mesh8x8(Pattern::Uniform, rate, 18);
            let capacity = (cfg.mesh.nodes() * PORTS * cfg.queue_depth) as u64;
            let r = NocSim::new(cfg).run(2_000, 8_000);
            assert!(
                r.delivered <= r.offered - r.throttled + capacity,
                "rate {rate}: {r:?}"
            );
        }
    }

    #[test]
    fn observed_run_reports_quantiles_energy_and_trace() {
        let mut sim = NocSim::new(NocConfig::mesh8x8(Pattern::Uniform, 0.1, 21));
        sim.trace = Trace::enabled();
        let obs = sim.run_observed(1_000, 4_000);
        let r = &obs.result;
        assert_eq!(obs.latency.count(), r.delivered);
        assert!(r.p50_latency <= r.p99_latency && r.p99_latency <= r.p999_latency);
        assert!(r.p50_latency > 0.0 && r.p999_latency <= r.max_latency);
        // Tail sits above the mean in a congested queueing system.
        assert!(r.p99_latency >= r.mean_latency, "{r:?}");
        // Energy: every measured hop charged a link + router traversal.
        assert!(obs.ledger.component("noc_link").value() > 0.0);
        assert!(obs.ledger.layer_total(Layer::Network).value() == obs.ledger.total_spent().value());
        // Trace has one span per delivered flit.
        assert_eq!(obs.trace.len() as u64, r.delivered);
        assert!(obs.trace.chrome_json().contains("\"flit\""));
    }

    #[test]
    fn tracing_disabled_records_nothing_and_changes_nothing() {
        let plain =
            NocSim::new(NocConfig::mesh8x8(Pattern::Uniform, 0.2, 22)).run_observed(500, 2_000);
        let mut traced = NocSim::new(NocConfig::mesh8x8(Pattern::Uniform, 0.2, 22));
        traced.trace = Trace::enabled();
        let traced = traced.run_observed(500, 2_000);
        assert_eq!(plain.result.delivered, traced.result.delivered);
        assert_eq!(plain.result.p99_latency, traced.result.p99_latency);
        assert_eq!(plain.trace.events_capacity(), 0);
        assert!(!traced.trace.is_empty());
    }

    #[test]
    fn determinism() {
        let r1 = NocSim::new(NocConfig::mesh8x8(Pattern::Uniform, 0.2, 99)).run(500, 2_000);
        let r2 = NocSim::new(NocConfig::mesh8x8(Pattern::Uniform, 0.2, 99)).run(500, 2_000);
        assert_eq!(r1.delivered, r2.delivered);
        assert_eq!(r1.link_traversals, r2.link_traversals);
        assert_eq!(r1.mean_latency, r2.mean_latency);
    }

    /// Bit-for-bit comparison of two observations: every result field
    /// (floats by `to_bits`), both histograms, the ledger and the trace.
    fn assert_same(new: &NocObservation, reference: &NocObservation, case: &str) {
        let (a, b) = (&new.result, &reference.result);
        assert_eq!(
            (a.delivered, a.offered, a.throttled, a.link_traversals),
            (b.delivered, b.offered, b.throttled, b.link_traversals),
            "{case}"
        );
        let floats = |r: &NocResult| {
            [
                r.mean_latency,
                r.p50_latency,
                r.p99_latency,
                r.p999_latency,
                r.max_latency,
                r.mean_hops,
                r.throughput,
            ]
            .map(f64::to_bits)
        };
        assert_eq!(floats(a), floats(b), "{case}");
        // Debug prints every bucket and the exact moments.
        assert_eq!(
            format!("{:?}", new.latency),
            format!("{:?}", reference.latency),
            "{case}"
        );
        assert_eq!(
            format!("{:?}", new.hops),
            format!("{:?}", reference.hops),
            "{case}"
        );
        let entries = |l: &EnergyLedger| {
            l.components()
                .map(|(name, layer, e, n)| (name, layer, e.value().to_bits(), n))
                .collect::<Vec<_>>()
        };
        assert_eq!(entries(&new.ledger), entries(&reference.ledger), "{case}");
        assert_eq!(new.trace.len(), reference.trace.len(), "{case}");
        assert_eq!(
            new.trace.chrome_json(),
            reference.trace.chrome_json(),
            "{case}"
        );
    }

    /// Run `cases` seeded random configurations through the simulator and
    /// the verbatim oracle and require identical observations.
    fn oracle_cases(cases: u64) {
        const SHAPES: [(usize, usize, usize); 5] =
            [(1, 1, 1), (1, 6, 1), (5, 3, 1), (3, 4, 2), (4, 4, 4)];
        let mut rng = Rng64::new(0xC0C13);
        for case in 0..cases {
            let (w, h, d) = if case < 2 * SHAPES.len() as u64 {
                SHAPES[case as usize % SHAPES.len()]
            } else {
                (
                    1 + rng.below(6) as usize,
                    1 + rng.below(6) as usize,
                    1 + rng.below(3) as usize,
                )
            };
            let mesh = Mesh::new_3d(w, h, d);
            let pattern = match rng.below(4) {
                0 => Pattern::Uniform,
                1 => Pattern::Transpose,
                2 => Pattern::Hotspot {
                    node: rng.below(mesh.nodes() as u64) as usize,
                    permille: rng.below(1001) as u32,
                },
                _ => Pattern::Neighbor,
            };
            let injection_rate = match rng.below(6) {
                0 => 0.0,
                1 => 1.0,
                _ => rng.next_f64(),
            };
            let cfg = NocConfig {
                mesh,
                queue_depth: 1 + rng.below(6) as usize,
                pattern,
                injection_rate,
                seed: rng.next_u64(),
            };
            let warmup = rng.below(40);
            let measure = 1 + rng.below(160);
            let traced = rng.below(4) == 0;
            let mut new = NocSim::new(cfg);
            let mut reference = oracle::RefSim::new(cfg);
            if traced {
                new.trace = Trace::enabled();
                reference.trace = Trace::enabled();
            }
            let case = format!("case {case}: {cfg:?} warmup {warmup} measure {measure}");
            assert_same(
                &new.run_observed(warmup, measure),
                &reference.run_observed(warmup, measure),
                &case,
            );
        }
    }

    #[test]
    fn matches_reference_switch_bit_for_bit() {
        oracle_cases(200);
    }

    #[test]
    #[ignore = "5 000 oracle cases; run in release with --include-ignored"]
    fn matches_reference_switch_bit_for_bit_large() {
        oracle_cases(5_000);
    }

    #[test]
    fn matches_reference_on_the_e18_configs() {
        for rate in [0.1, 0.4] {
            let cfg = NocConfig::mesh8x8(Pattern::Uniform, rate, 18);
            assert_same(
                &NocSim::new(cfg).run_observed(500, 1_500),
                &oracle::RefSim::new(cfg).run_observed(500, 1_500),
                &format!("e18 rate {rate}"),
            );
        }
    }
}
