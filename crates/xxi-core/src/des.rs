//! A deterministic discrete-event simulation (DES) engine.
//!
//! Several of the paper's arguments are *dynamic* phenomena: tail latencies
//! emerge from queueing and fan-out (§2.1), sensor lifetimes from the
//! interleaving of harvest/compute/transmit (§2.1), NoC congestion from
//! packet interactions (§2.3). Those experiments run on this engine.
//!
//! The [`fault`] submodule is the deterministic fault-injection seam:
//! seeded [`fault::FaultPlan`]s kill, pause, or slow named components at
//! scheduled sim-times, with exact injected-event accounting.
//!
//! ## Model
//!
//! A [`Sim<S>`] owns user state `S` and a pending-event queue. An event is
//! an `FnOnce(&mut Sim<S>)`: when it fires it can mutate the state *and*
//! schedule further events. Events fire in time order; ties are broken by
//! scheduling sequence number, which makes runs **bit-reproducible**
//! regardless of queue internals.
//!
//! ## Engine
//!
//! The ready queue is a hierarchical timer wheel (`des/wheel.rs`): a wide
//! 4096-slot level 0 plus six 512-slot levels hash events by bit-fields
//! of their absolute picosecond tick, cascading coarse buckets toward
//! level 0 only when the clock reaches them. The levels cover every
//! `u64` tick, so the whole [`SimTime`] range (about 213 days) is one
//! timeline. Same-tick events share one level-0 bucket, so FIFO ties
//! cost a single sort of the burst instead of per-event heap
//! comparisons. Event closures live in a recycling arena (`des/arena.rs`):
//! small closures (≤ 64 bytes — the common case) are stored inline in
//! reused slots, so steady-state scheduling is allocation-free; oversized
//! closures take a cold boxed path. Scheduling returns a generation-checked
//! [`TimerHandle`] (via the `_handle` variants) that [`Sim::cancel`]
//! resolves in O(1), unlinking the event from its wheel bucket and
//! freeing its arena slot at once, so it never runs and the clock never
//! visits its tick.
//!
//! ```
//! use xxi_core::{Sim, SimTime};
//!
//! // Count ticks of a 1 ns clock for 1 µs.
//! struct Counter { ticks: u64 }
//! fn tick(sim: &mut Sim<Counter>) {
//!     sim.state.ticks += 1;
//!     sim.schedule_in(SimTime::from_ns(1), tick);
//! }
//!
//! let mut sim = Sim::new(Counter { ticks: 0 });
//! sim.schedule_at(SimTime::ZERO, tick);
//! sim.run_until(SimTime::from_us(1));
//! assert_eq!(sim.state.ticks, 1000);
//! ```

mod arena;
pub mod fault;
mod wheel;

pub use arena::ArenaStats;

use crate::metrics::Metrics;
use crate::obs::{SpanId, Trace};
use crate::time::SimTime;

type EventFn<S> = Box<dyn FnOnce(&mut Sim<S>)>;

/// A cancellation handle for a scheduled event, returned by
/// [`Sim::schedule_at_handle`] / [`Sim::schedule_in_handle`].
///
/// Handles are generation-checked: once the event fires (or its slot is
/// recycled by a later event), the handle goes stale and
/// [`Sim::cancel`] returns `false` instead of touching the new occupant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimerHandle {
    idx: u32,
    gen: u32,
}

/// A snapshot of the engine's own counters, for the `== Runtime ==`
/// telemetry section. See [`Sim::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DesStats {
    /// Events whose closure actually ran.
    pub events_fired: u64,
    /// Events removed by [`Sim::cancel`] before they could fire.
    pub cancelled: u64,
    /// Events still pending (scheduled, neither fired nor cancelled).
    pub pending: u64,
    /// Event-arena allocation counters.
    pub arena: ArenaStats,
}

impl DesStats {
    /// Record the snapshot as `des.*` counters.
    pub fn record(&self, m: &mut Metrics) {
        m.count("des.events_fired", self.events_fired);
        m.count("des.cancelled", self.cancelled);
        m.count("des.arena_high_water", self.arena.high_water);
        m.count("des.arena_recycled", self.arena.recycled);
        m.count("des.inline_events", self.arena.inline_events);
        m.count("des.boxed_events", self.arena.boxed_events);
    }
}

/// The discrete-event simulator. See the [module docs](self) for an example.
pub struct Sim<S> {
    /// User-owned simulation state, freely accessible from events.
    pub state: S,
    /// Event trace recorder. Disabled by default ([`Trace::disabled`]), in
    /// which case every recording call is a single predicted branch and no
    /// memory is ever allocated — the DES hot loop pays nothing. Enable
    /// with [`Sim::with_trace`] or by assigning [`Trace::enabled`].
    pub trace: Trace,
    now: SimTime,
    seq: u64,
    fired: u64,
    cancelled: u64,
    arena: arena::Arena<S>,
    wheel: wheel::Wheel,
}

impl<S> Sim<S> {
    /// Create a simulator at time zero wrapping `state`, tracing disabled.
    pub fn new(state: S) -> Sim<S> {
        Sim {
            state,
            trace: Trace::disabled(),
            now: SimTime::ZERO,
            seq: 0,
            fired: 0,
            cancelled: 0,
            arena: arena::Arena::new(),
            wheel: wheel::Wheel::new(),
        }
    }

    /// Create a simulator with the given trace recorder (typically
    /// [`Trace::enabled`]).
    pub fn with_trace(state: S, trace: Trace) -> Sim<S> {
        let mut sim = Sim::new(state);
        sim.trace = trace;
        sim
    }

    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total number of events fired so far. Cancelled events never fire
    /// and are not counted here — see [`Sim::cancelled`].
    #[inline]
    pub fn events_fired(&self) -> u64 {
        self.fired
    }

    /// Total number of events cancelled so far.
    #[inline]
    pub fn cancelled(&self) -> u64 {
        self.cancelled
    }

    /// Number of events currently pending (scheduled, neither fired nor
    /// cancelled).
    #[inline]
    pub fn pending(&self) -> usize {
        self.wheel.len()
    }

    /// Engine counters for runtime telemetry (`des.*`).
    pub fn stats(&self) -> DesStats {
        DesStats {
            events_fired: self.fired,
            cancelled: self.cancelled,
            pending: self.pending() as u64,
            arena: self.arena.stats(),
        }
    }

    /// Schedule `f` to fire at absolute time `at`.
    ///
    /// Scheduling in the past is a model bug; the event is clamped to fire
    /// at the current time (it will still fire after already-queued events
    /// at `now`, preserving causality).
    pub fn schedule_at(&mut self, at: SimTime, f: impl FnOnce(&mut Sim<S>) + 'static) {
        let _ = self.schedule_at_handle(at, f);
    }

    /// Schedule `f` to fire `delay` after the current time.
    pub fn schedule_in(&mut self, delay: SimTime, f: impl FnOnce(&mut Sim<S>) + 'static) {
        let _ = self.schedule_in_handle(delay, f);
    }

    /// Like [`Sim::schedule_at`], returning a [`TimerHandle`] for
    /// [`Sim::cancel`].
    pub fn schedule_at_handle(
        &mut self,
        at: SimTime,
        f: impl FnOnce(&mut Sim<S>) + 'static,
    ) -> TimerHandle {
        let time = at.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        let (idx, gen) = self.arena.insert(time.ps(), f);
        self.wheel.insert(time.ps(), seq, idx);
        TimerHandle { idx, gen }
    }

    /// Like [`Sim::schedule_in`], returning a [`TimerHandle`] for
    /// [`Sim::cancel`].
    pub fn schedule_in_handle(
        &mut self,
        delay: SimTime,
        f: impl FnOnce(&mut Sim<S>) + 'static,
    ) -> TimerHandle {
        let at = self.now.saturating_add(delay);
        self.schedule_at_handle(at, f)
    }

    /// Cancel a scheduled event in O(1). Returns `true` if the event was
    /// still pending (it will now never run — its closure is dropped and
    /// its arena slot freed immediately); `false` if it already fired, was
    /// already cancelled, or the handle is stale (its slot was recycled).
    ///
    /// A cancelled event is removed from the timeline outright: its wheel
    /// entry is unlinked and the clock never visits its tick. Since user
    /// code only ever runs at the tick of a *surviving* event,
    /// cancellation can never change the firing order or clamping of the
    /// events that remain.
    pub fn cancel(&mut self, handle: TimerHandle) -> bool {
        let Some(time) = self.arena.sched_time(handle.idx, handle.gen) else {
            return false;
        };
        self.wheel.remove(time, handle.idx);
        self.arena.discard(handle.idx);
        self.cancelled += 1;
        true
    }

    /// Fire the earliest pending event if it is strictly before
    /// `horizon_ps`. Returns `true` iff an event fired.
    fn step_before(&mut self, horizon_ps: u64) -> bool {
        matches!(self.wheel.peek_time(), Some(t) if t < horizon_ps) && self.step()
    }

    /// Fire the next pending event, if any. Returns `false` when the queue
    /// is empty.
    pub fn step(&mut self) -> bool {
        let Some(e) = self.wheel.pop() else {
            return false;
        };
        debug_assert!(e.time >= self.now.ps(), "wheel returned past event");
        self.now = SimTime::from_ps(e.time);
        self.fired += 1;
        match self.arena.take(e.idx) {
            arena::Fired::Inline(call, p) => {
                let sim: *mut Sim<S> = self;
                // SAFETY: `take` returned the live thunk for this entry; it
                // runs exactly once, here, and `sim` is `self` — valid and
                // exclusive.
                unsafe { call(p, sim) };
            }
            arena::Fired::Boxed(f) => f(self),
        }
        true
    }

    /// Run until the event queue drains. Returns the number of events fired
    /// by this call.
    pub fn run(&mut self) -> u64 {
        let start = self.fired;
        while self.step() {}
        self.fired - start
    }

    /// Run until the queue drains or the next event would fire at or after
    /// `horizon`. Events at exactly `horizon` do **not** fire, so
    /// `run_until(t)` covers the half-open interval `[now, t)`, and the
    /// clock is left at `min(horizon, last-fired-time)` exclusive of the
    /// horizon itself: at the last drained event's time (always `<
    /// horizon`), or unchanged if nothing drained. Callers that need the
    /// clock *at* the horizon (e.g. to take an end-of-window measurement)
    /// must read [`Sim::now`] and handle the gap explicitly.
    ///
    /// ```
    /// use xxi_core::{Sim, SimTime};
    ///
    /// let mut sim = Sim::new(Vec::new());
    /// for ns in [5u64, 10, 15] {
    ///     sim.schedule_at(SimTime::from_ns(ns), move |s| s.state.push(ns));
    /// }
    /// // Half-open: the event at exactly 10 ns does not fire...
    /// assert_eq!(sim.run_until(SimTime::from_ns(10)), 1);
    /// assert_eq!(sim.state, vec![5]);
    /// // ...and the clock sits at the last fired event, not the horizon.
    /// assert_eq!(sim.now(), SimTime::from_ns(5));
    /// assert_eq!(sim.pending(), 2);
    /// ```
    pub fn run_until(&mut self, horizon: SimTime) -> u64 {
        let start = self.fired;
        while self.step_before(horizon.ps()) {}
        self.fired - start
    }

    /// Run at most `max_events` events.
    pub fn run_events(&mut self, max_events: u64) -> u64 {
        let start = self.fired;
        while self.fired - start < max_events && self.step() {}
        self.fired - start
    }

    /// Open a trace span starting at the current simulated time.
    /// Free (and returns a dead [`SpanId`]) when tracing is disabled.
    #[inline]
    pub fn trace_begin(&mut self, name: &'static str, cat: &'static str, track: u64) -> SpanId {
        let now = self.now;
        self.trace.begin(name, cat, track, now)
    }

    /// Close a trace span at the current simulated time.
    #[inline]
    pub fn trace_end(&mut self, id: SpanId) {
        let now = self.now;
        self.trace.end(id, now);
    }

    /// Close a trace span at the current time with numeric arguments.
    #[inline]
    pub fn trace_end_args(&mut self, id: SpanId, args: &[(&'static str, f64)]) {
        let now = self.now;
        self.trace.end_args(id, now, args);
    }

    /// Record an instant trace event at the current simulated time.
    #[inline]
    pub fn trace_instant(&mut self, name: &'static str, cat: &'static str, track: u64) {
        let now = self.now;
        self.trace.instant(name, cat, track, now);
    }
}

/// Schedule a periodic event: `f` fires every `period` starting at `start`,
/// for as long as `f` returns `true`.
pub fn every<S: 'static>(
    sim: &mut Sim<S>,
    start: SimTime,
    period: SimTime,
    f: impl FnMut(&mut Sim<S>) -> bool + 'static,
) {
    fn arm<S: 'static>(
        sim: &mut Sim<S>,
        at: SimTime,
        period: SimTime,
        mut f: impl FnMut(&mut Sim<S>) -> bool + 'static,
    ) {
        sim.schedule_at(at, move |sim| {
            if f(sim) {
                let next = sim.now().saturating_add(period);
                arm(sim, next, period, f);
            }
        });
    }
    arm(sim, start, period, f);
}

/// The seed repo's `BinaryHeap` engine, kept verbatim as the ordering
/// oracle for the wheel+arena engine's property tests.
#[cfg(test)]
pub(crate) mod oracle {
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    use crate::time::SimTime;

    type EventFn<S> = Box<dyn FnOnce(&mut OracleSim<S>)>;

    struct Scheduled<S> {
        time: SimTime,
        seq: u64,
        f: EventFn<S>,
    }

    impl<S> PartialEq for Scheduled<S> {
        fn eq(&self, other: &Self) -> bool {
            self.time == other.time && self.seq == other.seq
        }
    }
    impl<S> Eq for Scheduled<S> {}
    impl<S> PartialOrd for Scheduled<S> {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl<S> Ord for Scheduled<S> {
        fn cmp(&self, other: &Self) -> Ordering {
            other
                .time
                .cmp(&self.time)
                .then_with(|| other.seq.cmp(&self.seq))
        }
    }

    pub(crate) struct OracleSim<S> {
        pub state: S,
        now: SimTime,
        seq: u64,
        fired: u64,
        heap: BinaryHeap<Scheduled<S>>,
    }

    impl<S> OracleSim<S> {
        pub fn new(state: S) -> OracleSim<S> {
            OracleSim {
                state,
                now: SimTime::ZERO,
                seq: 0,
                fired: 0,
                heap: BinaryHeap::new(),
            }
        }

        pub fn now(&self) -> SimTime {
            self.now
        }

        pub fn events_fired(&self) -> u64 {
            self.fired
        }

        pub fn schedule_at(&mut self, at: SimTime, f: impl FnOnce(&mut OracleSim<S>) + 'static) {
            let time = at.max(self.now);
            let seq = self.seq;
            self.seq += 1;
            self.heap.push(Scheduled {
                time,
                seq,
                f: Box::new(f),
            });
        }

        pub fn step(&mut self) -> bool {
            match self.heap.pop() {
                Some(ev) => {
                    self.now = ev.time;
                    self.fired += 1;
                    (ev.f)(self);
                    true
                }
                None => false,
            }
        }

        pub fn run(&mut self) {
            while self.step() {}
        }

        pub fn run_until(&mut self, horizon: SimTime) {
            while let Some(next) = self.heap.peek() {
                if next.time >= horizon {
                    break;
                }
                self.step();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_fire_in_time_order() {
        let mut sim = Sim::new(Vec::<u32>::new());
        sim.schedule_at(SimTime::from_ns(30), |s| s.state.push(3));
        sim.schedule_at(SimTime::from_ns(10), |s| s.state.push(1));
        sim.schedule_at(SimTime::from_ns(20), |s| s.state.push(2));
        sim.run();
        assert_eq!(sim.state, vec![1, 2, 3]);
        assert_eq!(sim.now(), SimTime::from_ns(30));
        assert_eq!(sim.events_fired(), 3);
    }

    #[test]
    fn ties_break_by_schedule_order() {
        let mut sim = Sim::new(Vec::<u32>::new());
        for i in 0..100 {
            sim.schedule_at(SimTime::from_ns(5), move |s| s.state.push(i));
        }
        sim.run();
        assert_eq!(sim.state, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn events_can_schedule_events() {
        let mut sim = Sim::new(0u64);
        fn chain(sim: &mut Sim<u64>) {
            sim.state += 1;
            if sim.state < 5 {
                sim.schedule_in(SimTime::from_ns(1), chain);
            }
        }
        sim.schedule_at(SimTime::ZERO, chain);
        sim.run();
        assert_eq!(sim.state, 5);
        assert_eq!(sim.now(), SimTime::from_ns(4));
    }

    #[test]
    fn run_until_is_half_open() {
        let mut sim = Sim::new(Vec::<u64>::new());
        for ns in [5u64, 10, 15] {
            sim.schedule_at(SimTime::from_ns(ns), move |s| s.state.push(ns));
        }
        let fired = sim.run_until(SimTime::from_ns(10));
        assert_eq!(fired, 1);
        assert_eq!(sim.state, vec![5]);
        // The clock stays at the last fired event, short of the horizon.
        assert_eq!(sim.now(), SimTime::from_ns(5));
        // The 10 ns event is still pending.
        assert_eq!(sim.pending(), 2);
        sim.run();
        assert_eq!(sim.state, vec![5, 10, 15]);
    }

    #[test]
    fn scheduling_in_the_past_clamps_to_now() {
        let mut sim = Sim::new(Vec::<&'static str>::new());
        sim.schedule_at(SimTime::from_ns(10), |s| {
            // Try to schedule at t=1 while now=10.
            s.schedule_at(SimTime::from_ns(1), |s2| s2.state.push("clamped"));
            s.state.push("first");
        });
        sim.run();
        assert_eq!(sim.state, vec!["first", "clamped"]);
        assert_eq!(sim.now(), SimTime::from_ns(10));
    }

    #[test]
    fn run_events_bounds_work() {
        let mut sim = Sim::new(0u64);
        fn forever(sim: &mut Sim<u64>) {
            sim.state += 1;
            sim.schedule_in(SimTime::from_ns(1), forever);
        }
        sim.schedule_at(SimTime::ZERO, forever);
        let fired = sim.run_events(1000);
        assert_eq!(fired, 1000);
        assert_eq!(sim.state, 1000);
    }

    #[test]
    fn every_repeats_until_false() {
        let mut sim = Sim::new(0u64);
        every(
            &mut sim,
            SimTime::from_ns(10),
            SimTime::from_ns(10),
            |sim| {
                sim.state += 1;
                sim.state < 7
            },
        );
        sim.run();
        assert_eq!(sim.state, 7);
        assert_eq!(sim.now(), SimTime::from_ns(70));
    }

    #[test]
    fn determinism_across_runs() {
        fn run_once(seedlike: u64) -> (u64, SimTime) {
            let mut sim = Sim::new(seedlike);
            fn ev(sim: &mut Sim<u64>) {
                sim.state = sim.state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let d = sim.state % 97;
                if sim.events_fired() < 10_000 {
                    sim.schedule_in(SimTime::from_ps(d), ev);
                    if d.is_multiple_of(3) {
                        sim.schedule_in(SimTime::from_ps(d * 2), |s| {
                            s.state ^= 0xDEAD;
                        });
                    }
                }
            }
            sim.schedule_at(SimTime::ZERO, ev);
            sim.run();
            (sim.state, sim.now())
        }
        assert_eq!(run_once(42), run_once(42));
        assert_ne!(run_once(42).0, run_once(43).0);
    }

    #[test]
    fn sim_trace_records_spans_at_sim_time() {
        use crate::obs::Trace;
        let mut sim = Sim::with_trace((), Trace::enabled());
        sim.schedule_at(SimTime::from_ns(10), |s| {
            let id = s.trace_begin("work", "test", 1);
            s.schedule_in(SimTime::from_ns(5), move |s2| {
                s2.trace_end(id);
                s2.trace_instant("done", "test", 1);
            });
        });
        sim.run();
        assert_eq!(sim.trace.len(), 2);
        let json = sim.trace.chrome_json();
        assert!(json.contains("\"work\""), "{json}");
        assert!(json.contains("\"done\""), "{json}");
    }

    #[test]
    fn default_sim_trace_is_disabled_and_allocation_free() {
        let mut sim = Sim::new(());
        for _ in 0..1000 {
            let id = sim.trace_begin("x", "t", 0);
            sim.trace_end(id);
            sim.trace_instant("y", "t", 0);
        }
        assert!(!sim.trace.is_enabled());
        assert_eq!(sim.trace.events_capacity(), 0);
    }

    #[test]
    fn empty_sim_runs_zero_events() {
        let mut sim = Sim::new(());
        assert_eq!(sim.run(), 0);
        assert!(!sim.step());
        assert_eq!(sim.now(), SimTime::ZERO);
    }

    #[test]
    fn top_wheel_levels_fire_in_order() {
        // Exercise levels 5 and 6 (bit-fields from 2^48 and 2^57 ticks up)
        // and the top-level cascade, across several of their slots and up
        // to `SimTime::MAX` itself, interleaved with near events. Seventeen
        // events push the wheel past its 16-entry near list.
        let mut sim = Sim::new(Vec::<u64>::new());
        let times = [
            1u64,
            500,
            501,
            1 << 20,
            1 << 30,
            (1 << 39) + 5,
            (1 << 48) - 1,
            1 << 48,
            (1 << 48) + 7,
            3 << 48,
            (3 << 48) + 1,
            (1 << 57) - 1,
            1 << 57,
            (5 << 57) + 3,
            1 << 63,
            u64::MAX - 1,
            u64::MAX,
        ];
        // Schedule in a scrambled order.
        for i in 0..times.len() {
            let t = times[(i * 7) % times.len()];
            sim.schedule_at(SimTime::from_ps(t), move |s| s.state.push(t));
        }
        sim.run();
        assert_eq!(sim.state, times.to_vec());
        assert_eq!(sim.now(), SimTime::MAX);
    }

    #[test]
    fn cancel_prevents_firing_and_counts() {
        let mut sim = Sim::new(Vec::<u32>::new());
        sim.schedule_at(SimTime::from_ns(1), |s| s.state.push(1));
        let h = sim.schedule_at_handle(SimTime::from_ns(2), |s| s.state.push(2));
        sim.schedule_at(SimTime::from_ns(3), |s| s.state.push(3));
        assert!(sim.cancel(h));
        // Double-cancel is a no-op.
        assert!(!sim.cancel(h));
        assert_eq!(sim.pending(), 2);
        sim.run();
        assert_eq!(sim.state, vec![1, 3]);
        assert_eq!(sim.events_fired(), 2);
        assert_eq!(sim.cancelled(), 1);
    }

    #[test]
    fn cancel_of_fired_event_is_stale_even_after_slot_reuse() {
        let mut sim = Sim::new(Vec::<u32>::new());
        let h_a = sim.schedule_at_handle(SimTime::from_ns(1), |s| s.state.push(1));
        sim.run();
        assert_eq!(sim.state, vec![1]);
        // B recycles A's arena slot; A's stale handle must not touch it.
        let h_b = sim.schedule_at_handle(SimTime::from_ns(2), |s| s.state.push(2));
        assert!(!sim.cancel(h_a));
        sim.run();
        assert_eq!(sim.state, vec![1, 2]);
        assert_eq!(sim.cancelled(), 0);
        // The fresh handle is stale only after its own event fired.
        assert!(!sim.cancel(h_b));
    }

    #[test]
    fn cancelled_event_never_fires_and_never_advances_the_clock() {
        // Cancellation removes the event from the timeline outright: the
        // clock only ever visits ticks of events that actually fire.
        let mut sim = Sim::new(Vec::<u64>::new());
        let h = sim.schedule_at_handle(SimTime::from_ns(10), |s| s.state.push(10));
        sim.cancel(h);
        sim.run();
        assert!(sim.state.is_empty());
        assert_eq!(sim.now(), SimTime::ZERO);
        assert_eq!(sim.events_fired(), 0);
        assert_eq!(sim.pending(), 0);

        // The same holds for an event 2^60 ps ahead, in the wheel's top
        // level once twenty near events move the queue out of its near
        // list: it is unlinked like any other.
        let far = sim.schedule_at_handle(SimTime::from_ps(1 << 60), |s| s.state.push(60));
        for ns in 1..=20 {
            sim.schedule_at(SimTime::from_ns(ns), move |s| s.state.push(ns));
        }
        assert!(sim.cancel(far));
        sim.run();
        assert_eq!(sim.state, (1..=20).collect::<Vec<u64>>());
        assert_eq!(sim.now(), SimTime::from_ns(20));
        assert_eq!(sim.cancelled(), 2);
        assert_eq!(sim.pending(), 0);
    }

    #[test]
    fn cancel_frees_the_arena_slot_at_once() {
        // Every pending event has a wheel bucket, so cancelling one unlinks
        // it and frees its slot immediately, however far ahead it sits.
        // Twenty near events move the queue out of its near list first.
        let mut sim = Sim::new(());
        for ns in 1..=20 {
            sim.schedule_at(SimTime::from_ns(ns), |_| {});
        }
        let far = sim.schedule_at_handle(SimTime::from_ps(1 << 60), |_| {});
        let before = sim.stats().arena;
        assert!(sim.cancel(far));
        sim.schedule_at(SimTime::from_ps(1 << 61), |_| {});
        let after = sim.stats().arena;
        assert_eq!(after.recycled, before.recycled + 1, "{after:?}");
        assert_eq!(after.high_water, before.high_water, "{after:?}");
        assert_eq!(sim.pending(), 21);
    }

    #[test]
    fn cancelled_closure_is_dropped_exactly_once() {
        use std::cell::Cell;
        use std::rc::Rc;

        struct DropFlag(Rc<Cell<u32>>);
        impl Drop for DropFlag {
            fn drop(&mut self) {
                self.0.set(self.0.get() + 1);
            }
        }

        let drops = Rc::new(Cell::new(0));
        let flag = DropFlag(Rc::clone(&drops));
        let mut sim = Sim::new(());
        let h = sim.schedule_at_handle(SimTime::from_ns(1), move |_| {
            let _keep = &flag;
            unreachable!("cancelled event fired");
        });
        assert_eq!(drops.get(), 0);
        assert!(sim.cancel(h));
        // Cancel drops the closure (and its captures) immediately.
        assert_eq!(drops.get(), 1);
        sim.run();
        assert_eq!(drops.get(), 1);
    }

    #[test]
    fn unfired_closures_drop_with_the_sim() {
        use std::cell::Cell;
        use std::rc::Rc;

        struct DropFlag(Rc<Cell<u32>>);
        impl Drop for DropFlag {
            fn drop(&mut self) {
                self.0.set(self.0.get() + 1);
            }
        }

        let drops = Rc::new(Cell::new(0));
        {
            let mut sim = Sim::new(());
            for _ in 0..3 {
                let flag = DropFlag(Rc::clone(&drops));
                sim.schedule_at(SimTime::from_ns(1), move |_| {
                    let _keep = &flag;
                });
            }
            // Drop the sim with the events still pending.
        }
        assert_eq!(drops.get(), 3);
    }

    #[test]
    fn oversized_closures_take_the_boxed_path() {
        let big = [7u8; 200];
        let mut sim = Sim::new(0u64);
        sim.schedule_at(SimTime::from_ns(1), move |s| {
            s.state = big.iter().map(|&b| b as u64).sum();
        });
        sim.run();
        assert_eq!(sim.state, 7 * 200);
        let stats = sim.stats();
        assert_eq!(stats.arena.boxed_events, 1);
        assert_eq!(stats.arena.inline_events, 0);
    }

    #[test]
    fn arena_recycles_slots_in_steady_state() {
        let mut sim = Sim::new(0u64);
        fn chain(sim: &mut Sim<u64>) {
            sim.state += 1;
            if sim.state < 1000 {
                sim.schedule_in(SimTime::from_ns(1), chain);
            }
        }
        sim.schedule_at(SimTime::ZERO, chain);
        sim.run();
        let stats = sim.stats();
        // One event in flight at a time: the arena never grows past a
        // handful of slots and recycles for the rest of the run.
        assert_eq!(stats.events_fired, 1000);
        assert!(stats.arena.high_water <= 2, "{stats:?}");
        assert!(stats.arena.recycled >= 998, "{stats:?}");
        assert_eq!(stats.arena.inline_events, 1000);
    }

    #[test]
    fn des_stats_record_as_counters() {
        let mut sim = Sim::new(());
        sim.schedule_at(SimTime::from_ns(1), |_| {});
        let h = sim.schedule_at_handle(SimTime::from_ns(2), |_| {});
        sim.cancel(h);
        sim.run();
        let mut m = Metrics::new();
        sim.stats().record(&mut m);
        assert_eq!(m.counter("des.events_fired"), 1);
        assert_eq!(m.counter("des.cancelled"), 1);
        assert!(m.counter("des.arena_high_water") >= 1);
    }

    /// Drive the wheel+arena engine and the seed `BinaryHeap` oracle
    /// through the same randomized program and demand identical firing
    /// logs. Cancellation in the oracle is modeled exactly as the seed
    /// consumers did it: the event still fires but a guard makes it a
    /// no-op — the new engine's contract is that real cancellation is
    /// indistinguishable from that *to user code* (every surviving event
    /// fires at the same tick in the same order; only the clock's idle
    /// walk past cancelled ticks disappears).
    fn check_against_oracle(seed: u64, horizons: &[u64]) {
        use crate::rng::Rng64;
        use std::cell::RefCell;
        use std::collections::HashSet;
        use std::rc::Rc;

        // A step of the shared program, decided by a per-event RNG stream
        // so both engines see identical choices as long as their firing
        // orders match.
        #[derive(Clone, Copy)]
        enum Op {
            /// Schedule a child this many ps ahead (0 = same-tick burst).
            Child(u64),
            /// Schedule a child in the past (clamps to now).
            PastChild,
            /// Cancel the event with this id, if still tracked.
            Cancel(u64),
        }

        fn ops_for(seed: u64, id: u64, next_id: u64, fired: u64) -> Vec<Op> {
            let mut rng = Rng64::stream(seed, id);
            let mut ops = Vec::new();
            if fired > 4000 {
                return ops; // damp the branching process
            }
            for _ in 0..rng.below(4) {
                ops.push(match rng.below(11) {
                    0 => Op::Child(0),
                    1 => Op::PastChild,
                    2 => Op::Cancel(rng.below(next_id.max(1))),
                    // Mix near ticks with jumps into the upper levels,
                    // delays of every magnitude up to bit 63, and delays
                    // that saturate at `SimTime::MAX`.
                    n if n < 8 => Op::Child(rng.below(1 << 16)),
                    8 => Op::Child(rng.below(1 << 52)),
                    9 => Op::Child(rng.next_u64() >> rng.below(64)),
                    _ => Op::Child(u64::MAX),
                });
            }
            ops
        }

        // --- New engine ---
        struct NewState {
            log: Vec<(u64, u64)>,
            next_id: u64,
            handles: Vec<TimerHandle>,
        }
        fn new_fire(sim: &mut Sim<NewState>, seed: u64, id: u64) {
            sim.state.log.push((id, sim.now().ps()));
            let fired = sim.events_fired();
            for op in ops_for(seed, id, sim.state.next_id, fired) {
                match op {
                    Op::Child(d) => {
                        let cid = sim.state.next_id;
                        sim.state.next_id += 1;
                        let at = sim.now().saturating_add(SimTime::from_ps(d));
                        let h = sim.schedule_at_handle(at, move |s| new_fire(s, seed, cid));
                        sim.state.handles.push(h);
                    }
                    Op::PastChild => {
                        let cid = sim.state.next_id;
                        sim.state.next_id += 1;
                        let at = SimTime::from_ps(sim.now().ps() / 2);
                        let h = sim.schedule_at_handle(at, move |s| new_fire(s, seed, cid));
                        sim.state.handles.push(h);
                    }
                    Op::Cancel(target) => {
                        let h = sim.state.handles[target as usize];
                        sim.cancel(h);
                    }
                }
            }
        }

        // --- Oracle: seed engine + guarded-no-op "cancellation" ---
        struct OracleState {
            log: Vec<(u64, u64)>,
            next_id: u64,
            cancelled: Rc<RefCell<HashSet<u64>>>,
            real_fired: u64,
        }
        fn oracle_fire(sim: &mut oracle::OracleSim<OracleState>, seed: u64, id: u64) {
            if sim.state.cancelled.borrow().contains(&id) {
                return; // guarded no-op, exactly like the seed consumers
            }
            sim.state.real_fired += 1;
            sim.state.log.push((id, sim.now().ps()));
            let fired = sim.state.real_fired;
            for op in ops_for(seed, id, sim.state.next_id, fired) {
                match op {
                    Op::Child(d) => {
                        let cid = sim.state.next_id;
                        sim.state.next_id += 1;
                        let at = sim.now().saturating_add(SimTime::from_ps(d));
                        sim.schedule_at(at, move |s| oracle_fire(s, seed, cid));
                    }
                    Op::PastChild => {
                        let cid = sim.state.next_id;
                        sim.state.next_id += 1;
                        let at = SimTime::from_ps(sim.now().ps() / 2);
                        sim.schedule_at(at, move |s| oracle_fire(s, seed, cid));
                    }
                    Op::Cancel(target) => {
                        sim.state.cancelled.borrow_mut().insert(target);
                    }
                }
            }
        }

        let mut new_sim = Sim::new(NewState {
            log: Vec::new(),
            next_id: 0,
            handles: Vec::new(),
        });
        let cancelled = Rc::new(RefCell::new(HashSet::new()));
        let mut ora_sim = oracle::OracleSim::new(OracleState {
            log: Vec::new(),
            next_id: 0,
            cancelled: Rc::clone(&cancelled),
            real_fired: 0,
        });

        // Identical root schedules, including same-tick ties.
        let mut root_rng = Rng64::stream(seed, u64::MAX);
        for _ in 0..32 {
            let t = root_rng.below(1 << 40);
            let id_new = new_sim.state.next_id;
            new_sim.state.next_id += 1;
            let h =
                new_sim.schedule_at_handle(SimTime::from_ps(t), move |s| new_fire(s, seed, id_new));
            new_sim.state.handles.push(h);
            let id_ora = ora_sim.state.next_id;
            ora_sim.state.next_id += 1;
            ora_sim.schedule_at(SimTime::from_ps(t), move |s| oracle_fire(s, seed, id_ora));
        }

        // Every scheduled event is fired, cancelled or still pending.
        fn assert_conserved(sim: &Sim<NewState>, seed: u64) {
            assert_eq!(
                sim.seq,
                sim.events_fired() + sim.cancelled() + sim.pending() as u64,
                "seed {seed}"
            );
        }

        // Run in lock-stepped horizons, comparing at each boundary, then
        // drain both.
        for &h in horizons {
            new_sim.run_until(SimTime::from_ps(h));
            ora_sim.run_until(SimTime::from_ps(h));
            assert_eq!(
                new_sim.state.log, ora_sim.state.log,
                "seed {seed} horizon {h}"
            );
            assert_conserved(&new_sim, seed);
        }
        new_sim.run();
        ora_sim.run();
        assert_eq!(new_sim.state.log, ora_sim.state.log, "seed {seed}");
        assert_conserved(&new_sim, seed);
        assert_eq!(new_sim.pending(), 0, "seed {seed}");
        // The oracle's guarded no-ops still advance its clock; the new
        // engine removes cancelled events from the timeline, so its final
        // clock sits at the last *real* fire — never past the oracle's.
        assert!(new_sim.now() <= ora_sim.now(), "seed {seed}");
        if let Some(&(_, t)) = new_sim.state.log.last() {
            assert_eq!(new_sim.now().ps(), t, "seed {seed}");
        }
        // Every event the oracle fired was either real or a cancelled no-op.
        assert_eq!(
            ora_sim.events_fired(),
            new_sim.events_fired() + new_sim.cancelled(),
            "seed {seed}"
        );
    }

    #[test]
    fn wheel_matches_binary_heap_oracle_on_random_schedules() {
        for seed in 0..12 {
            check_against_oracle(seed, &[]);
        }
    }

    /// `run_until` horizons for the oracle runs, up to the top of the
    /// `SimTime` range.
    const HORIZONS: [u64; 7] = [
        1 << 10,
        1 << 20,
        1 << 36,
        1 << 41,
        1 << 50,
        1 << 58,
        u64::MAX - 1,
    ];

    #[test]
    fn wheel_matches_oracle_across_run_until_horizons() {
        for seed in 100..106 {
            check_against_oracle(seed, &HORIZONS);
        }
    }

    #[test]
    #[ignore = "large run: 200 seeds; CI runs it in release with --include-ignored"]
    fn wheel_matches_oracle_on_many_seeds() {
        for seed in 1000..1200 {
            check_against_oracle(seed, &HORIZONS);
        }
    }
}
