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
//! [`Mesh::route`]) when the flit enters that queue. Arbitration runs for
//! every router at once, on bit planes that hold one bit per router
//! (`nodes.div_ceil(64)` words each; bit `r % 64` of word `r / 64` is
//! router `r`):
//!
//! * `req[o][p]`: routers whose input `p` has a head flit requesting
//!   output `o`;
//! * `blocked[o]`: routers whose output `o` has no downstream queue or a
//!   full one;
//! * `rrsel[o][s]`: routers whose round-robin pointer of output `o` is
//!   `s` (one-hot over `s`);
//! * `win[o][p]`: this cycle's winners, all zero between cycles.
//!
//! **Decide.** Per output and word, the open requests are
//! `req[o][p] & !blocked[o]`. The round-robin winner is the first
//! requesting input at or after the pointer, else the first requesting
//! input at all; bit-sliced, that is one pass over `p` carrying three
//! prefix ORs (of `rrsel`, of the requests at or after the pointer, and of
//! all requests), about 90 word operations per output where a 7×7
//! rotation scan per router takes 147. Outputs nobody requests are
//! skipped. The winners' head bits are cleared from `req` in bulk, and the
//! pointer planes advance (to the winner plus one) only for routers that
//! forwarded.
//!
//! **Apply.** Only the winner planes that are not empty are visited. A
//! pop sets the `req` bit of the queue's new head, a push into an empty
//! queue sets the bit of the pushed flit, and a queue's transitions into
//! and out of "full" set or clear the `blocked` bit of its one upstream
//! `(router, output)`. Every router decides against start-of-cycle
//! occupancy, so a flit moves at most one hop per cycle. No slot-claim
//! table is needed: each input queue has one upstream output, and that
//! output forwards at most one flit per cycle.
//!
//! The hops run in one kernel, `NocSim::hop`, a loop per winner plane
//! `(o, p)` that pops, looks up the route and pushes inline, with every
//! table hoisted out of the loop. Pops and pushes (injection's and
//! deliveries' too) go through `Queues`, which indexes without bounds
//! checks. The index invariants are asserted once, in [`NocSim::new`]:
//! every `route` entry is a port, every `downstream` queue's `upstream` is
//! the output that feeds it (so a hop hands its push the winner's own
//! `(router, o)`), every `upstream` lands in `blocked` (the spare word
//! included), and every destination a source can draw is a node (a
//! hotspot off the mesh is rejected). The outputs at mesh edges are
//! blocked from the start and never unblocked, so a winner always has a
//! downstream queue, and it is not full. Each unchecked index also has a
//! `debug_assert!`, so the debug-build tests, the oracle comparison among
//! them, check every one. The kernel adds its link traversals, charge
//! counts and energy once per call: the same constant, added the same
//! number of times, gives the same bits.
//!
//! **Order.** Hops may apply in any order: a queue is popped at most once
//! and pushed at most once per cycle, a pop and a push on one queue give
//! the same contents and the same plane bits in either order, and every
//! hop adds the same two energy constants. Deliveries are not free: each
//! adds to the latency and hop histograms (whose Welford moments depend on
//! order) and to the trace. They apply after the hops, in router-ascending
//! order (a router ejects at most one flit per cycle), so the statistics,
//! the trace and the ledger see one fixed sequence.
//!
//! # How sources inject
//!
//! Each cycle every source in turn tosses a coin with probability
//! `injection_rate`, and a source that hits draws its destination, all
//! from the simulator's one xoshiro256++ stream, in that order. The stream
//! is drawn 64 values ahead, and the coins of those 64 values are one
//! mask, `next_u64() >> 11 < chance_cut(rate)` per bit, tossed when the
//! block is drawn and again only when the rate's cut changes (a caller
//! may change the rate between steps). A bit scan runs from hit to hit,
//! so a source that does not inject costs one buffered value and no
//! branch of its own. Destination draws (Uniform, Hotspot, Neighbor) take
//! the next values of the same buffer through [`Pattern::dest`]'s
//! generator-free form and `xxi_core::rng::below`, the Lemire draw
//! [`Rng64::below`] makes. Only injection draws from the stream, so each
//! value lands where the unbuffered loop would have used it.
//!
//! Queues are flat ring buffers, `queue_depth` flits each, indexed
//! `router * 8 + port` (one spare index per router keeps that a shift),
//! and the planes are allocated once, so stepping never allocates. Link
//! and router energy accumulate in two local sums (each component's
//! charges are one constant, added in charge order) and post to the
//! [`EnergyLedger`] once, at the end of [`NocSim::run_observed`].

use crate::topology::{Dir, Mesh};
use crate::traffic::{neighbors, Pattern};
use xxi_core::obs::{EnergyLedger, Layer, LogHistogram, Trace};
use xxi_core::par::{self, Parallelism, Serial};
use xxi_core::rng::{below, chance_cut, Rng64};
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

/// One 64-router word of a `[output][port]` family of bit planes: bit
/// `r % 64` of `planes[o][p]` stands for router `r` of that word.
type Planes = [[u64; PORTS]; PORTS];

/// Word index and bit of router `r` in a plane.
fn bit(r: usize) -> (usize, u64) {
    (r / 64, 1 << (r % 64))
}

/// All ones if `c`, else zero.
fn mask(c: bool) -> u64 {
    0u64.wrapping_sub(u64::from(c))
}

/// Values [`Draws`] holds: one 64-bit coin mask's worth.
const BLOCK: usize = 64;

/// The simulator's one xoshiro stream, drawn a block ahead. Only
/// injection draws from it, and it takes every value in stream order, so
/// the buffer moves no draw. `hits` caches the coin of every buffered
/// value for one cut.
struct Draws {
    rng: Rng64,
    buf: [u64; BLOCK],
    /// The next unread value; `< BLOCK` between calls.
    pos: usize,
    /// The [`chance_cut`] that `hits` tests.
    cut: u64,
    /// Bit `j`: `buf[j] >> 11 < cut`, the coin `Rng64::chance` would toss.
    hits: u64,
}

impl Draws {
    fn new(seed: u64) -> Draws {
        let mut draws = Draws {
            rng: Rng64::new(seed),
            buf: [0; BLOCK],
            pos: 0,
            cut: 0,
            hits: 0,
        };
        draws.refill();
        draws
    }

    /// Draw the next block and toss its coins.
    fn refill(&mut self) {
        let mut hits = 0;
        for (j, x) in self.buf.iter_mut().enumerate() {
            *x = self.rng.next_u64();
            hits |= u64::from(*x >> 11 < self.cut) << j;
        }
        (self.pos, self.hits) = (0, hits);
    }

    /// Test the coins against `cut` from now on.
    fn set_cut(&mut self, cut: u64) {
        if cut != self.cut {
            self.cut = cut;
            self.hits = (0..BLOCK).fold(0, |m, j| m | u64::from(self.buf[j] >> 11 < cut) << j);
        }
    }

    /// The next value of the stream.
    #[inline(always)]
    fn next(&mut self) -> u64 {
        let x = self.buf[self.pos];
        self.pos += 1;
        if self.pos == BLOCK {
            self.refill();
        }
        x
    }

    /// Toss one coin for each source of `src..nodes` in order and stop at
    /// the first that hits: `Some(that source)`, or `None` when every one
    /// missed. The misses are skipped by a bit scan of `hits`, so a source
    /// that does not inject costs one buffered value and no branch of its
    /// own.
    #[inline(always)]
    fn next_hit(&mut self, mut src: usize, nodes: usize) -> Option<usize> {
        loop {
            let (left, avail) = (nodes - src, BLOCK - self.pos);
            // `BLOCK` (never `< avail`) when no buffered coin hits.
            let k = (self.hits >> self.pos).trailing_zeros() as usize;
            if k < left.min(avail) {
                self.pos += k + 1;
                if self.pos == BLOCK {
                    self.refill();
                }
                return Some(src + k);
            }
            if left < avail {
                self.pos += left;
                return None;
            }
            src += avail;
            self.refill();
        }
    }
}

/// The queues of a [`NocSim`] and the planes their pops and pushes
/// update, borrowed apart from the rest of it, so that the hop kernel
/// holds every table in hand. Indexed without bounds checks: queue
/// numbers are `< queues`, every `upstream` entry lands in `blocked` (both
/// asserted in [`NocSim::new`]), flits carry ports `< PORTS`, and the
/// switch keeps each `head < depth` and `len <= depth`.
struct Queues<'a> {
    depth: usize,
    slots: &'a mut [Flit],
    head: &'a mut [usize],
    len: &'a mut [usize],
    upstream: &'a [usize],
    req: &'a mut [Planes],
    blocked: &'a mut [[u64; PORTS]],
}

impl Queues<'_> {
    /// Append `f` to queue `q`, which must have a free slot and whose
    /// upstream output (`upstream[q]`, which the caller has in hand) is
    /// `u`: a push into an empty queue makes `f` its head, and one that
    /// fills the queue blocks `u`. The plane updates are unconditional
    /// writes of a masked bit, which keeps the branches of the hot path
    /// predictable.
    #[inline(always)]
    fn push(&mut self, q: usize, u: usize, f: Flit) {
        let depth = self.depth;
        debug_assert!(q < self.len.len() && self.len[q] < depth && self.head[q] < depth);
        debug_assert!(usize::from(f.out) < PORTS && self.upstream[q] == u);
        // SAFETY: `q < queues`, the length of `len` and `head`; its head
        // and length are `< depth`, so `i` is too and the slot index is
        // `< queues * depth`, the length of `slots`.
        let len = unsafe {
            let len = *self.len.get_unchecked(q);
            let i = *self.head.get_unchecked(q) + len;
            let i = if i >= depth { i - depth } else { i };
            *self.slots.get_unchecked_mut(q * depth + i) = f;
            *self.len.get_unchecked_mut(q) = len + 1;
            len
        };
        let (w, b) = bit(q / STRIDE);
        let (uw, ub) = bit(u / STRIDE);
        // SAFETY: `q`'s router is `< nodes`, so its word is `< words`, the
        // length of `req`; `f.out` and `q % STRIDE` are ports; `upstream`
        // lands in `blocked` (asserted in `new`).
        unsafe {
            *self
                .req
                .get_unchecked_mut(w)
                .get_unchecked_mut(usize::from(f.out))
                .get_unchecked_mut(q % STRIDE) |= b & mask(len == 0);
            *self
                .blocked
                .get_unchecked_mut(uw)
                .get_unchecked_mut(u % STRIDE) |= ub & mask(len + 1 == depth);
        }
    }

    /// Remove the head of queue `q`, which must be non-empty and whose
    /// `req` bit the caller has cleared: the next flit, if any, becomes
    /// the head, and a queue that was full unblocks its upstream output.
    #[inline(always)]
    fn pop(&mut self, q: usize) -> Flit {
        let depth = self.depth;
        debug_assert!(q < self.len.len() && self.len[q] > 0 && self.head[q] < depth);
        // SAFETY: as in `push`, and `q < queues` is also the length of
        // `upstream`; the new head is `< depth` too.
        let (len, f, out, u) = unsafe {
            let len = *self.len.get_unchecked(q);
            let h = *self.head.get_unchecked(q);
            let f = *self.slots.get_unchecked(q * depth + h);
            let h = if h + 1 == depth { 0 } else { h + 1 };
            *self.head.get_unchecked_mut(q) = h;
            *self.len.get_unchecked_mut(q) = len - 1;
            // With one flit left the slot at `h` is stale and its bit
            // masked off.
            let out = self.slots.get_unchecked(q * depth + h).out;
            (len, f, usize::from(out), *self.upstream.get_unchecked(q))
        };
        let (w, b) = bit(q / STRIDE);
        let (uw, ub) = bit(u / STRIDE);
        debug_assert!(out < PORTS && uw < self.blocked.len() && u % STRIDE < PORTS);
        // SAFETY: as in `push`.
        unsafe {
            *self
                .req
                .get_unchecked_mut(w)
                .get_unchecked_mut(out)
                .get_unchecked_mut(q % STRIDE) |= b & mask(len > 1);
            *self
                .blocked
                .get_unchecked_mut(uw)
                .get_unchecked_mut(u % STRIDE) &= !(ub & mask(len == depth));
        }
        f
    }
}

/// Aggregate results of a run.
///
/// The counters cover the measurement window, the `measure` cycles after
/// warm-up. A flit counts as offered in the cycle its source tries to
/// inject it, and as delivered in the cycle it is ejected, so flits
/// injected during warm-up and still in flight when the window opens are
/// delivered but never offered: `delivered` can exceed
/// `offered − throttled` by at most the buffer capacity,
/// `nodes × 7 × queue_depth`. Exactly, every flit is delivered, refused or
/// still queued:
///
/// `delivered + in_flight_close == in_flight_open + offered − throttled`.
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
    /// Mean packet latency in cycles (measurement phase); the quantiles
    /// are in [`NocObservation::latency`].
    pub mean_latency: f64,
    /// Delivered throughput in flits/node/cycle.
    pub throughput: f64,
    /// Total link traversals (for energy accounting).
    pub link_traversals: u64,
    /// Flits queued when the measurement window opens.
    // xxi-allow: model-reach -- test oracle: the flit-conservation law above
    pub in_flight_open: u64,
    /// Flits queued when it closes.
    // xxi-allow: model-reach -- test oracle: the flit-conservation law above
    pub in_flight_close: u64,
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
    /// `upstream[q]`: the `router * STRIDE + out` whose output feeds input
    /// queue `q`. Injection queues and mesh edges have none; theirs names
    /// router `64 * words`, whose bits land in the spare last word of
    /// `blocked`, which no decision reads.
    upstream: Vec<usize>,
    /// Per word, `req[w][o][p]`: routers whose input `p` has a head flit
    /// requesting output `o`.
    req: Vec<Planes>,
    /// Per word, `blocked[w][o]`: routers whose output `o` has no
    /// downstream queue or a full one; one spare word at the end.
    blocked: Vec<[u64; PORTS]>,
    /// Per word, `rrsel[w][o][s]`: routers whose round-robin pointer of
    /// output `o` is input `s`.
    rrsel: Vec<Planes>,
    /// Per word, `win[w][o][p]`: this cycle's winners; all zero between
    /// cycles.
    win: Vec<Planes>,
    /// Per source, its [`Dests`] under a Neighbor or Transpose pattern;
    /// empty for Uniform and Hotspot, which draw through [`Pattern::dest`]'s
    /// generator-free form.
    dests: Vec<Dests>,
    /// The injection stream, a block ahead.
    draws: Draws,
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
    ///
    /// # Panics
    ///
    /// If `queue_depth` is 0, `injection_rate` is outside `0..=1`, or a
    /// hotspot names no node of the mesh.
    pub fn new(cfg: NocConfig) -> NocSim {
        assert!(cfg.queue_depth >= 1);
        assert!((0.0..=1.0).contains(&cfg.injection_rate));
        let mesh = cfg.mesh;
        let nodes = mesh.nodes();
        if let Pattern::Hotspot { node, .. } = cfg.pattern {
            assert!(
                node < nodes,
                "hotspot node {node} is not a node of the {nodes}-node mesh"
            );
        }
        let route: Vec<u8> = (0..nodes)
            .flat_map(|cur| (0..nodes).map(move |dest| mesh.route(cur, dest).index() as u8))
            .collect();
        let downstream: Vec<usize> = (0..nodes * STRIDE)
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
        let words = nodes.div_ceil(64);
        let mut upstream = vec![64 * words * STRIDE; queues];
        let mut blocked = vec![[0; PORTS]; words + 1];
        for (u, &to) in downstream.iter().enumerate() {
            let (r, out) = (u / STRIDE, u % STRIDE);
            if to != NO_QUEUE {
                upstream[to] = u;
            } else if out < LOCAL {
                let (w, b) = bit(r);
                blocked[w][out] |= b;
            }
        }
        // The hop kernel indexes these tables without bounds checks.
        assert!(route.iter().all(|&out| usize::from(out) < PORTS));
        assert!(downstream
            .iter()
            .enumerate()
            .all(|(u, &to)| to == NO_QUEUE || upstream[to] == u));
        assert!(upstream
            .iter()
            .all(|&u| u / STRIDE / 64 < blocked.len() && u % STRIDE < PORTS));
        assert!(dests
            .iter()
            .all(|d: &Dests| d.to[..d.n].iter().all(|&to| to < nodes)));
        // Every pointer starts at input 0.
        let rrsel = [[!0, 0, 0, 0, 0, 0, 0]; PORTS];
        NocSim {
            draws: Draws::new(cfg.seed),
            cfg,
            route,
            downstream,
            slots: vec![Flit::default(); queues * cfg.queue_depth],
            head: vec![0; queues],
            len: vec![0; queues],
            upstream,
            req: vec![[[0; PORTS]; PORTS]; words],
            blocked,
            rrsel: vec![rrsel; words],
            win: vec![[[0; PORTS]; PORTS]; words],
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

    /// The queues and the planes their pops and pushes update.
    fn queues(&mut self) -> Queues<'_> {
        Queues {
            depth: self.cfg.queue_depth,
            slots: &mut self.slots,
            head: &mut self.head,
            len: &mut self.len,
            upstream: &self.upstream,
            req: &mut self.req,
            blocked: &mut self.blocked,
        }
    }

    /// Offer one flit per source with probability `injection_rate`. The
    /// coin is `Rng64::chance`'s draw tested as an integer cut, taken from
    /// the rate each cycle (a caller may change it between steps).
    fn inject(&mut self) {
        let nodes = self.cfg.mesh.nodes();
        self.draws.set_cut(chance_cut(self.cfg.injection_rate));
        let mut start = 0;
        while let Some(src) = self.draws.next_hit(start, nodes) {
            start = src + 1;
            let draws = &mut self.draws;
            let dest = match self.cfg.pattern {
                Pattern::Neighbor => match self.dests[src] {
                    Dests { n: 0, .. } => continue,
                    Dests { to, n } => to[below(n as u64, &mut || draws.next()) as usize],
                },
                Pattern::Transpose => match self.dests[src] {
                    Dests { n: 0, .. } => continue,
                    Dests { to, .. } => to[0],
                },
                pattern => match pattern.dest_from(&self.cfg.mesh, src, &mut || draws.next()) {
                    Some(dest) => dest,
                    None => continue,
                },
            };
            // The hop kernel's route lookups rely on it.
            debug_assert!(dest < nodes);
            if self.measuring {
                self.offered += 1;
            }
            let q = src * STRIDE + LOCAL;
            if self.len[q] < self.cfg.queue_depth {
                let f = Flit {
                    dest,
                    injected_at: self.cycle,
                    hops: 0,
                    out: self.out_port(src, dest),
                };
                let u = self.upstream[q];
                self.queues().push(q, u, f);
            } else if self.measuring {
                self.throttled += 1;
                self.trace
                    .instant("throttled", "noc", src as u64, cycle_ts(self.cycle));
            }
        }
    }

    fn switch(&mut self) {
        let planes = self.decide();
        if planes != 0 {
            self.apply(planes);
        }
    }

    /// Arbitrate every output of every router against start-of-cycle
    /// occupancy: fill `win`, clear the winners' head bits from `req` and
    /// advance the pointers of the outputs that forward. Returns the
    /// non-empty winner planes, bit `o * PORTS + p` for `win[..][o][p]`.
    fn decide(&mut self) -> u64 {
        let mut planes = 0u64;
        for w in 0..self.req.len() {
            let (req, rrsel, win) = (&mut self.req[w], &mut self.rrsel[w], &mut self.win[w]);
            for o in 0..PORTS {
                let open = !self.blocked[w][o];
                let reqs = req[o].map(|m| m & open);
                if reqs.iter().fold(0, |a, &m| a | m) == 0 {
                    continue;
                }
                // Prefix ORs over the inputs: `at` holds the routers whose
                // pointer is at or before `p`, `seen_at` those with a
                // request at or after their pointer so far, `seen` those
                // with any request so far.
                let (mut at, mut seen_at, mut seen) = (0u64, 0u64, 0u64);
                let mut first_at = [0u64; PORTS];
                let mut first = [0u64; PORTS];
                for p in 0..PORTS {
                    at |= rrsel[o][p];
                    let after = reqs[p] & at;
                    first_at[p] = after & !seen_at;
                    seen_at |= after;
                    first[p] = reqs[p] & !seen;
                    seen |= reqs[p];
                }
                let wins: [u64; PORTS] =
                    std::array::from_fn(|p| first_at[p] | (first[p] & !seen_at));
                for (p, &m) in wins.iter().enumerate() {
                    req[o][p] &= !m;
                    planes |= u64::from(m != 0) << (o * PORTS + p);
                }
                // The pointer moves to the input after the winner.
                let sel = rrsel[o];
                rrsel[o] =
                    std::array::from_fn(|s| wins[(s + PORTS - 1) % PORTS] | (sel[s] & !seen));
                win[o] = wins;
            }
        }
        planes
    }

    /// Apply the moves `decide` chose: the hops plane by plane, then the
    /// deliveries in router-ascending order. Leaves `win` all zero.
    fn apply(&mut self, planes: u64) {
        // The ejection output's seven planes.
        let ejecting = ((1 << PORTS) - 1) << (LOCAL * PORTS);
        if planes & !ejecting != 0 {
            self.hop(planes & !ejecting);
        }
        if planes & ejecting == 0 {
            return;
        }
        for w in 0..self.win.len() {
            let ejects = std::mem::take(&mut self.win[w][LOCAL]);
            let mut m = ejects.iter().fold(0, |a, &m| a | m);
            // Bit `i` of each ejecting router's winning input, one plane per `i`.
            let index = [1, 2, 4].map(|i| {
                (0..PORTS)
                    .filter(|p| p & i != 0)
                    .fold(0, |a, p| a | ejects[p])
            });
            while m != 0 {
                let b = m.trailing_zeros();
                m &= m - 1;
                let p = (0..3).fold(0, |a, i| a | ((index[i] >> b) & 1) << i) as usize;
                let r = w * 64 + b as usize;
                let f = self.queues().pop(r * STRIDE + p);
                debug_assert_eq!(f.dest, r);
                self.delivered_flit(f);
            }
        }
    }

    /// Move every winner of the hop planes in `planes` one link on: pop
    /// the head of its input `p`, look up the output it requests at the
    /// next router, and push it into the queue that output `o` feeds. The
    /// counters and energy post once per call.
    fn hop(&mut self, mut planes: u64) {
        let nodes = self.cfg.mesh.nodes();
        let NocSim {
            cfg,
            route,
            downstream,
            upstream,
            slots,
            head,
            len,
            req,
            blocked,
            win,
            ..
        } = self;
        let mut queues = Queues {
            depth: cfg.queue_depth,
            slots,
            head,
            len,
            upstream,
            req,
            blocked,
        };
        let mut moved = 0u64;
        while planes != 0 {
            let plane = planes.trailing_zeros() as usize;
            planes &= planes - 1;
            let (o, p) = (plane / PORTS, plane % PORTS);
            for (w, win) in win.iter_mut().enumerate() {
                let mut m = std::mem::take(&mut win[o][p]);
                while m != 0 {
                    moved += 1;
                    let r = w * 64 + m.trailing_zeros() as usize;
                    m &= m - 1;
                    debug_assert!(r < nodes);
                    let feed = r * STRIDE + o;
                    // SAFETY: a winner holds a head flit, so it is a router
                    // `< nodes` (`req` bits are set only for queues that
                    // exist), and `feed < queues`, the length of
                    // `downstream`.
                    let to = unsafe { *downstream.get_unchecked(feed) };
                    // Output `o` won, so it is not blocked: it feeds a
                    // queue (edge outputs are blocked for good in `new`).
                    debug_assert!(to != NO_QUEUE);
                    let f = queues.pop(r * STRIDE + p);
                    let next = to / STRIDE;
                    debug_assert!(f.dest < nodes);
                    // SAFETY: `next < nodes` and every injected `dest` is
                    // `< nodes` (`new` asserts it of the hotspot and of the
                    // `dests` tables; Uniform draws below `nodes`), so the
                    // index is `< nodes²`, the length of `route`.
                    let out = unsafe { *route.get_unchecked(next * nodes + f.dest) };
                    // Built field by field, so no padding byte is copied.
                    let f = Flit {
                        hops: f.hops + 1,
                        out,
                        ..f
                    };
                    // `new` asserts that `feed` is `to`'s upstream.
                    queues.push(to, feed, f);
                }
            }
        }
        self.link_traversals += moved;
        if self.measuring {
            // One constant per charge, added in charge order.
            for _ in 0..moved {
                self.link_energy += LINK_HOP_ENERGY;
                self.router_energy += ROUTER_ENERGY;
            }
            self.link_charges += moved;
            self.router_charges += moved;
        }
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

    /// Flits in the buffers: the sum of the queue lengths.
    fn in_flight(&self) -> u64 {
        self.len.iter().sum::<usize>() as u64
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
        let in_flight_open = self.in_flight();
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
            throughput: self.delivered as f64 / cycles / nodes,
            link_traversals: self.link_traversals,
            in_flight_open,
            in_flight_close: self.in_flight(),
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
/// triples — the saturation curve of experiment E13. Serial; see
/// [`load_sweep_on`].
pub fn load_sweep(mesh: Mesh, pattern: Pattern, rates: &[f64], seed: u64) -> Vec<(f64, f64, f64)> {
    load_sweep_on(mesh, pattern, rates, seed, &Serial)
}

/// [`load_sweep`] on `exec`: one independent [`NocSim`] per rate, each
/// seeded with `seed`, so the triples are the same on every executor. A
/// run's cost grows with its rate, so the highest rates are claimed first.
pub fn load_sweep_on(
    mesh: Mesh,
    pattern: Pattern,
    rates: &[f64],
    seed: u64,
    exec: &dyn Parallelism,
) -> Vec<(f64, f64, f64)> {
    let mut order: Vec<usize> = (0..rates.len()).collect();
    order.sort_by(|&a, &b| rates[b].total_cmp(&rates[a]));
    let runs = par::map(exec, order.len(), |k| {
        let rate = rates[order[k]];
        let cfg = NocConfig {
            mesh,
            queue_depth: 4,
            pattern,
            injection_rate: rate,
            seed,
        };
        let r = NocSim::new(cfg).run(2_000, 8_000);
        (rate, r.mean_latency, r.throughput)
    });
    let mut sweep = vec![(0.0, 0.0, 0.0); rates.len()];
    for (&i, run) in order.iter().zip(runs) {
        sweep[i] = run;
    }
    sweep
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
        pub(super) cfg: NocConfig,
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

        pub(super) fn step(&mut self) {
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

        fn in_flight(&self) -> u64 {
            let queued = |r: &Router| r.inputs.iter().map(VecDeque::len).sum::<usize>();
            self.routers.iter().map(queued).sum::<usize>() as u64
        }

        pub(super) fn run_observed(mut self, warmup: u64, measure: u64) -> NocObservation {
            for _ in 0..warmup {
                self.step();
            }
            self.measuring = true;
            let start = self.cycle;
            let in_flight_open = self.in_flight();
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
                throughput: self.delivered as f64 / cycles / nodes,
                link_traversals: self.link_traversals,
                in_flight_open,
                in_flight_close: self.in_flight(),
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
        let obs = NocSim::new(cfg).run_observed(1_000, 20_000);
        let (r, hops) = (&obs.result, obs.hops.mean());
        assert!(r.delivered > 100);
        // At near-zero load, latency ≈ mean hops + small constant.
        assert!(
            (r.mean_latency - hops).abs() < 3.0,
            "lat={} hops={hops}",
            r.mean_latency
        );
        // Mean hops ≈ analytic uniform mean (≈ 5.25 for 8×8).
        let expect = Mesh::new_2d(8, 8).mean_hops_uniform();
        assert!((hops - expect).abs() < 0.5, "hops={hops}");
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
        .run_observed(2_000, 8_000);
        let stacked = NocSim::new(NocConfig {
            mesh: Mesh::new_3d(4, 4, 4),
            queue_depth: 4,
            pattern: Pattern::Uniform,
            injection_rate: 0.1,
            seed: 12,
        })
        .run_observed(2_000, 8_000);
        assert!(stacked.hops.mean() < planar.hops.mean());
        assert!(stacked.result.mean_latency < planar.result.mean_latency);
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
        let lat = &obs.latency;
        assert_eq!(lat.count(), r.delivered);
        assert!(lat.p50() <= lat.p99() && lat.p99() <= lat.p999());
        assert!(lat.p50() > 0.0 && lat.p999() <= lat.max());
        // Tail sits above the mean in a congested queueing system.
        assert!(lat.p99() >= r.mean_latency, "{r:?}");
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
        assert_eq!(plain.latency.p99(), traced.latency.p99());
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
        let counts = |r: &NocResult| {
            [
                r.delivered,
                r.offered,
                r.throttled,
                r.link_traversals,
                r.in_flight_open,
                r.in_flight_close,
            ]
        };
        assert_eq!(counts(a), counts(b), "{case}");
        let floats = |r: &NocResult| [r.mean_latency, r.throughput].map(f64::to_bits);
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

    /// A seeded random configuration: the first ten cases walk `SHAPES`
    /// twice, later ones draw a mesh of up to 6×6×3; then a pattern, a
    /// rate (0, 1 or uniform), a depth of 1–6 and a seed.
    fn random_config(rng: &mut Rng64, case: u64) -> NocConfig {
        const SHAPES: [(usize, usize, usize); 5] =
            [(1, 1, 1), (1, 6, 1), (5, 3, 1), (3, 4, 2), (4, 4, 4)];
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
        NocConfig {
            mesh,
            queue_depth: 1 + rng.below(6) as usize,
            pattern,
            injection_rate,
            seed: rng.next_u64(),
        }
    }

    /// Run `cases` seeded random configurations through the simulator and
    /// the verbatim oracle and require identical observations.
    fn oracle_cases(cases: u64) {
        let mut rng = Rng64::new(0xC0C13);
        for case in 0..cases {
            let cfg = random_config(&mut rng, case);
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

    /// Shapes whose plane words end exactly at, just past, and well past a
    /// 64-router boundary, including padding bits in the last word.
    #[test]
    fn matches_reference_across_plane_words() {
        const SHAPES: [(usize, usize, usize); 6] = [
            (8, 8, 1),
            (4, 4, 4),
            (13, 5, 1),
            (16, 8, 1),
            (43, 3, 1),
            (1, 64, 2),
        ];
        for (w, h, d) in SHAPES {
            for rate in [0.02, 0.3, 1.0] {
                for queue_depth in [1, 4] {
                    let cfg = NocConfig {
                        mesh: Mesh::new_3d(w, h, d),
                        queue_depth,
                        pattern: Pattern::Uniform,
                        injection_rate: rate,
                        seed: 41,
                    };
                    let mut new = NocSim::new(cfg);
                    let mut reference = oracle::RefSim::new(cfg);
                    new.trace = Trace::enabled();
                    reference.trace = Trace::enabled();
                    assert_same(
                        &new.run_observed(100, 300),
                        &reference.run_observed(100, 300),
                        &format!("{cfg:?}"),
                    );
                }
            }
        }
    }

    #[test]
    fn the_window_conserves_flits_exactly() {
        // Every flit delivered in the window was in flight when it opened
        // or injected during it, and every other one is still in flight.
        let mut rng = Rng64::new(0xC0 ^ 0x5E);
        for case in 0..300 {
            let mut cfg = random_config(&mut rng, case);
            match case % 4 {
                0 => cfg.queue_depth = 1,
                1 => cfg.injection_rate = 1.0,
                2 => (cfg.queue_depth, cfg.injection_rate) = (1, 1.0),
                _ => {}
            }
            let (warmup, measure) = (rng.below(200), 1 + rng.below(400));
            let r = NocSim::new(cfg).run(warmup, measure);
            assert_eq!(
                r.delivered + r.in_flight_close,
                r.in_flight_open + r.offered - r.throttled,
                "case {case}: {cfg:?} warmup {warmup} measure {measure}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "hotspot node 16 is not a node of the 16-node mesh")]
    fn a_hotspot_off_the_mesh_is_rejected() {
        let pattern = Pattern::Hotspot {
            node: 16,
            permille: 500,
        };
        NocSim::new(NocConfig {
            mesh: Mesh::new_2d(4, 4),
            queue_depth: 4,
            pattern,
            injection_rate: 0.1,
            seed: 1,
        });
    }

    #[test]
    fn coin_blocks_follow_a_rate_changed_between_steps() {
        // `inject` re-reads the rate every cycle, so a cut cached with a
        // block of coins must follow it mid-block. Each rate holds for a
        // different number of cycles, so the changes fall at varying
        // offsets within a block.
        let rates = [0.3, 0.0, 1.0, 0.05, 0.3, 0.7, 0.0, 0.01];
        for (mesh, pattern) in [
            (Mesh::new_2d(4, 4), Pattern::Uniform),
            (Mesh::new_3d(5, 3, 2), Pattern::Neighbor),
            (
                Mesh::new_2d(8, 9),
                Pattern::Hotspot {
                    node: 40,
                    permille: 300,
                },
            ),
        ] {
            let cfg = NocConfig {
                mesh,
                queue_depth: 2,
                pattern,
                injection_rate: rates[0],
                seed: 5,
            };
            let (mut new, mut reference) = (NocSim::new(cfg), oracle::RefSim::new(cfg));
            new.trace = Trace::enabled();
            reference.trace = Trace::enabled();
            for (i, &rate) in rates.iter().enumerate() {
                new.cfg.injection_rate = rate;
                reference.cfg.injection_rate = rate;
                for _ in 0..7 + 3 * i {
                    new.step();
                    reference.step();
                }
            }
            let case = format!("{cfg:?}");
            assert_same(
                &new.run_observed(0, 50),
                &reference.run_observed(0, 50),
                &case,
            );
        }
    }

    #[test]
    fn a_one_node_mesh_tosses_coins_and_draws_no_destination() {
        // Uniform on one node: every hit names no destination, so the
        // stream advances by exactly one coin per cycle.
        for rate in [0.0, 0.4, 1.0] {
            let cfg = NocConfig {
                mesh: Mesh::new_2d(1, 1),
                queue_depth: 1,
                pattern: Pattern::Uniform,
                injection_rate: rate,
                seed: 3,
            };
            assert_same(
                &NocSim::new(cfg).run_observed(30, 200),
                &oracle::RefSim::new(cfg).run_observed(30, 200),
                &format!("{cfg:?}"),
            );
        }
        // The next coin after 230 cycles is the stream's 231st value.
        let mut sim = NocSim::new(NocConfig {
            mesh: Mesh::new_2d(1, 1),
            queue_depth: 1,
            pattern: Pattern::Uniform,
            injection_rate: 0.4,
            seed: 3,
        });
        for _ in 0..230 {
            sim.step();
        }
        let mut rng = Rng64::new(3);
        for _ in 0..230 {
            rng.next_u64();
        }
        assert_eq!(sim.draws.next(), rng.next_u64());
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
