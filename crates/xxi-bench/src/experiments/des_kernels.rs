//! The `des/*` kernels: synthetic event patterns that isolate the DES core
//! (timer wheel + event arena + cancellation) from any model physics.
//!
//! * `des/chain` — one self-rescheduling event, the engine's floor.
//! * `des/spans-off` / `des/spans-on` — the same chain calling the span
//!   API every event, with tracing disabled and enabled. The disabled
//!   row must match `des/chain` (the single-branch fast path), and it
//!   asserts that a disabled trace never allocates.
//! * `des/hold` — a fixed population of self-rescheduling timers, the
//!   classic steady-state "timer hold" loop: level-0 wheel hits and
//!   arena recycling, no cancellation.
//! * `des/churn` — burst-schedule a horizon-spanning batch, drain it,
//!   repeat: insert and cascade through wheel levels 0-5 under churn.
//! * `des/cancel` — the cluster-shaped pattern: every request arms a
//!   hedge, a timeout, and a deadline guard, and settling the request
//!   reaps all three — three of every four scheduled events cancel.
//! * `des/drain` — one huge pre-scheduled backlog (with same-tick
//!   bursts) drained to empty: pop/batch-sort throughput.
//!
//! Each runs the identical seeded schedule every time and returns the
//! number of events fired as its checksum.

use xxi_core::obs::Trace;
use xxi_core::{Rng64, Sim, SimTime};

use super::RunCtx;

/// Per-event delay scale (ps). Big enough to spread events across the
/// lower wheel levels.
const US: u64 = 1_000_000;

const CHAIN: u64 = 100_000;

fn fired(sim: &Sim<Rng64>) -> f64 {
    let stats = sim.stats();
    assert_eq!(
        stats.arena.boxed_events, 0,
        "kernel closures must stay on the inline arena path"
    );
    stats.events_fired as f64
}

pub(super) fn chain(_: &RunCtx) -> f64 {
    fn ev(sim: &mut Sim<u64>) {
        sim.state += 1;
        if sim.state < CHAIN {
            sim.schedule_in(SimTime::from_ps(13), ev);
        }
    }
    let mut sim = Sim::new(0u64);
    sim.schedule_at(SimTime::ZERO, ev);
    sim.run();
    assert_eq!(sim.state, CHAIN);
    sim.state as f64
}

fn traced_chain(trace: Trace) -> Sim<u64> {
    fn ev(sim: &mut Sim<u64>) {
        let span = sim.trace_begin("ev", "des", 0);
        sim.state += 1;
        if sim.state < CHAIN {
            sim.schedule_in(SimTime::from_ps(13), ev);
        }
        sim.trace_end(span);
    }
    let mut sim = Sim::with_trace(0u64, trace);
    sim.schedule_at(SimTime::ZERO, ev);
    sim.run();
    sim
}

pub(super) fn spans_off(_: &RunCtx) -> f64 {
    let sim = traced_chain(Trace::disabled());
    assert_eq!(
        sim.trace.events_capacity(),
        0,
        "disabled tracing must not allocate"
    );
    sim.state as f64
}

pub(super) fn spans_on(_: &RunCtx) -> f64 {
    let sim = traced_chain(Trace::enabled());
    assert_eq!(sim.trace.len(), CHAIN as usize);
    sim.state as f64
}

/// `des/hold`: this many self-rescheduling timers, run until
/// [`HOLD_EVENTS`] have fired.
const HOLD_POPULATION: u64 = 16_384;
pub(super) const HOLD_EVENTS: u64 = 2_000_000;

pub(super) fn hold(_: &RunCtx) -> f64 {
    fn hold(sim: &mut Sim<Rng64>) {
        let delay = 1 + sim.state.below(64 * US);
        sim.schedule_in(SimTime::from_ps(delay), hold);
    }
    let mut sim = Sim::new(Rng64::new(0xD0_11));
    for _ in 0..HOLD_POPULATION {
        let delay = 1 + sim.state.below(64 * US);
        sim.schedule_in(SimTime::from_ps(delay), hold);
    }
    sim.run_events(HOLD_EVENTS);
    fired(&sim)
}

/// `des/churn`: burst-schedule `CHURN_BATCH` timers across a horizon that
/// spans wheel levels 0-5 (delays up to 2^53 ps), drain, repeat.
const CHURN_BATCH: u64 = 250_000;
const CHURN_ROUNDS: u64 = 4;
pub(super) const CHURN_EVENTS: u64 = CHURN_BATCH * CHURN_ROUNDS;

pub(super) fn churn(_: &RunCtx) -> f64 {
    let mut sim = Sim::new(Rng64::new(0xC4_42));
    for _ in 0..CHURN_ROUNDS {
        for _ in 0..CHURN_BATCH {
            // Log-uniform delays: most land in the low levels, a long
            // tail reaches the upper ones (shift up to 2^53 ps).
            let shift = sim.state.below(34);
            let delay = (1 + sim.state.below(1 << 20)) << shift;
            sim.schedule_in(SimTime::from_ps(delay), |_| {});
        }
        sim.run();
    }
    fired(&sim)
}

/// `des/cancel`: the cluster-shaped cancel-heavy pattern, mirroring the
/// `xxi-cloud` request lifecycle.
const CANCEL_REQUESTS: u64 = 589_824;
/// Scheduled events: completion + hedge + timeout + deadline.
pub(super) const CANCEL_EVENTS: u64 = 4 * CANCEL_REQUESTS;

pub(super) fn cancel(_: &RunCtx) -> f64 {
    let mut sim = Sim::new(Rng64::new(0xCA_9C));
    // A rolling open window, like a cluster under steady load: each
    // arrival arms its guard timers exactly as `xxi-cloud::cluster` does
    // (hedge at +6 us, attempt timeout at +18 us, deadline at +40 us), the
    // work settles at +1..4 us and reaps all three.
    fn arrive(sim: &mut Sim<Rng64>, remaining: u64) {
        let work = 1 + sim.state.below(4 * US);
        let hedge = sim.schedule_in_handle(SimTime::from_ps(6 * US), |_| {});
        let timeout = sim.schedule_in_handle(SimTime::from_ps(18 * US), |_| {});
        let deadline = sim.schedule_in_handle(SimTime::from_ps(40 * US), |_| {});
        sim.schedule_in(SimTime::from_ps(work), move |sim| {
            let reaped = sim.cancel(hedge) && sim.cancel(timeout) && sim.cancel(deadline);
            assert!(reaped, "guard timers were still pending");
            if remaining > 0 {
                arrive(sim, remaining - 1);
            }
        });
    }
    const OPEN: u64 = 4_096;
    let per_chain = CANCEL_REQUESTS / OPEN;
    for _ in 0..OPEN {
        arrive(&mut sim, per_chain - 1);
    }
    sim.run();
    assert_eq!(sim.cancelled(), 3 * OPEN * per_chain, "every guard reaped");
    fired(&sim)
}

/// `des/drain`: pre-schedule one huge backlog (with same-tick bursts),
/// then drain it to empty.
pub(super) const DRAIN_EVENTS: u64 = 1_000_000;

pub(super) fn drain(_: &RunCtx) -> f64 {
    let mut sim = Sim::new(Rng64::new(0xD7_A1));
    for _ in 0..DRAIN_EVENTS {
        // Coarse ticks force same-tick FIFO bursts (~4 events/tick).
        let at = sim.state.below(DRAIN_EVENTS / 4) * US;
        sim.schedule_at(SimTime::from_ps(at), |_| {});
    }
    assert_eq!(sim.run(), DRAIN_EVENTS);
    fired(&sim)
}
