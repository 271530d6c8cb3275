//! The deterministic scheduler: virtual threads, bounded exploration,
//! replay.
//!
//! A test body runs under a cooperative scheduler where exactly one
//! *virtual thread* (backed by a real OS thread, but serialized through a
//! single lock + condvar) executes at a time. Every shadow-atomic
//! operation, lock acquisition, condvar wait, join, and spawn is a *yield
//! point*: the scheduler decides which thread runs next. The decision
//! sequence fully determines the execution, so the checker can
//!
//! * enumerate interleavings by **DFS** over the decision tree (with a
//!   preemption bound to keep the space tractable),
//! * fall back to a **seeded random walk** when the bounded space is still
//!   too large, and
//! * **replay** any recorded decision vector to reproduce a failure
//!   deterministically.
//!
//! Weak memory is approximated on top of happens-before vector clocks
//! ([`crate::vclock`]): every store is kept in a per-location history, and
//! a non-SeqCst load may observe any store that is neither older than the
//! newest happens-before-visible store nor older than something the thread
//! already read (coherence). Which store a load observes is itself a
//! scheduling decision, so stale-read bugs (e.g. a `Relaxed` publish) are
//! explored exactly like preemptions. SeqCst accesses and all RMWs read
//! the latest store — slightly stronger than C11, documented and
//! acceptable for a checker that must never report false "passes" on the
//! idioms our runtime uses.

use std::any::Any;
use std::collections::BTreeSet;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, AtomicU64 as StdAtomicU64, Ordering as StdOrdering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use xxi_core::rng::Rng64;

use crate::vclock::VClock;

pub use std::sync::atomic::Ordering;

/// Panic payload used to tear down an execution once a failure is found
/// (or the schedule is pruned). Swallowed by the per-thread runner.
pub(crate) struct Aborted;

/// Per-object registration tag: maps a shadow object to its model slot for
/// the current execution. `serial` distinguishes executions; a stale
/// serial means "re-register". Only the single active virtual thread ever
/// writes these, so the two words need no joint atomicity.
#[derive(Debug)]
pub(crate) struct Meta {
    serial: StdAtomicU64,
    id: AtomicU32,
}

impl Meta {
    pub(crate) const fn new() -> Meta {
        Meta {
            serial: StdAtomicU64::new(0),
            id: AtomicU32::new(0),
        }
    }
}

/// What a virtual thread is currently doing.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Status {
    Runnable,
    /// Waiting for thread `tid` to finish.
    BlockedJoin(usize),
    /// Waiting for model mutex `mid` to be released.
    BlockedLock(usize),
    /// Waiting on model condvar `cid`. `timeout` marks `wait_timeout`
    /// callers, which the scheduler may wake when nothing else can run.
    BlockedCv {
        cid: usize,
        timeout: bool,
    },
    Finished,
}

struct VThread {
    status: Status,
    clock: VClock,
    name: String,
    /// Set by `thread::yield_now`: the thread has announced it cannot make
    /// progress alone (e.g. a spin/retry loop), so the scheduler must
    /// prefer any other runnable thread — a voluntary switch that does not
    /// count against the preemption bound. Cleared when next scheduled.
    yielded: bool,
}

/// One store event in a location's history.
struct StoreEv {
    val: u64,
    /// The storing thread's full clock at the store (orders the event).
    event: VClock,
    /// The clock an acquire load synchronizes with (empty for `Relaxed`
    /// stores; RMWs carry the previous release clock forward, modelling
    /// release sequences).
    msg: VClock,
    by: Option<usize>,
}

struct Loc {
    kind: &'static str,
    stores: Vec<StoreEv>,
    /// Per-thread coherence floor: newest store index each thread has
    /// read or written; loads may not go below it.
    last_read: Vec<usize>,
}

impl Loc {
    fn new(init: u64, kind: &'static str) -> Loc {
        Loc {
            kind,
            stores: vec![StoreEv {
                val: init,
                event: VClock::new(),
                msg: VClock::new(),
                by: None,
            }],
            last_read: Vec::new(),
        }
    }

    fn floor(&self, tid: usize) -> usize {
        self.last_read.get(tid).copied().unwrap_or(0)
    }

    fn set_floor(&mut self, tid: usize, idx: usize) {
        if self.last_read.len() <= tid {
            self.last_read.resize(tid + 1, 0);
        }
        if self.last_read[tid] < idx {
            self.last_read[tid] = idx;
        }
    }
}

struct MutexModel {
    locked_by: Option<usize>,
    release: VClock,
}

/// Why an execution failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FailureKind {
    /// An assertion (or any panic) fired in the test body.
    Panic,
    /// A store overwrote a concurrent store the thread had neither
    /// observed nor synchronized with — the check-then-act signature.
    LostUpdate,
    /// No thread can run and at least one is blocked.
    Deadlock,
}

/// A failing execution: what happened, the decision vector that reproduces
/// it, and the event trace.
#[derive(Clone, Debug)]
pub struct Failure {
    pub kind: FailureKind,
    pub message: String,
    /// Replayable decision vector: pass to [`Checker::replay`].
    pub schedule: Vec<u32>,
    /// Human-readable interleaving trace (one line per event).
    pub trace: String,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "xxi-check failure ({:?}): {}", self.kind, self.message)?;
        writeln!(f, "replayable schedule: {:?}", self.schedule)?;
        writeln!(f, "interleaving trace:")?;
        write!(f, "{}", self.trace)
    }
}

/// The result of an exploration run.
#[derive(Clone, Debug)]
pub struct Report {
    /// Executions attempted (including pruned ones).
    pub schedules: u64,
    /// Executions cut off by the per-execution step limit.
    pub pruned: u64,
    /// True when DFS exhausted the bounded interleaving space.
    pub complete: bool,
    pub failure: Option<Failure>,
}

impl Report {
    /// Panic with a readable report if a failure was found.
    pub fn assert_ok(&self) {
        if let Some(fail) = &self.failure {
            panic!("{fail}\n(after {} schedules)", self.schedules);
        }
    }
}

impl std::fmt::Display for Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.failure {
            Some(fail) => write!(f, "FAIL after {} schedules\n{fail}", self.schedules),
            None => write!(
                f,
                "ok: {} schedules explored ({}, {} pruned)",
                self.schedules,
                if self.complete {
                    "bounded space exhausted"
                } else {
                    "budget reached"
                },
                self.pruned
            ),
        }
    }
}

/// One node of the DFS decision stack: a decision point with `alts`
/// alternatives where alternative `idx` is being explored.
#[derive(Clone, Debug)]
struct DfsNode {
    alts: u32,
    idx: u32,
}

enum DecideMode {
    Dfs { stack: Vec<DfsNode>, depth: usize },
    Random { rng: Rng64 },
    Replay { schedule: Vec<u32>, pos: usize },
}

struct Decider {
    mode: DecideMode,
    /// Chosen alternative at every multi-alternative decision, in order.
    log: Vec<u32>,
}

impl Decider {
    /// Pick one of `alts ≥ 2` alternatives; records the choice for replay.
    fn choose(&mut self, alts: u32) -> u32 {
        let i = match &mut self.mode {
            DecideMode::Dfs { stack, depth } => {
                if *depth < stack.len() {
                    let node = &stack[*depth];
                    assert_eq!(
                        node.alts, alts,
                        "nondeterministic test body: decision {} had {} alternatives, now {}",
                        depth, node.alts, alts
                    );
                    let i = node.idx;
                    *depth += 1;
                    i
                } else {
                    stack.push(DfsNode { alts, idx: 0 });
                    *depth += 1;
                    0
                }
            }
            DecideMode::Random { rng } => rng.below(alts as u64) as u32,
            DecideMode::Replay { schedule, pos } => {
                let i = schedule.get(*pos).copied().unwrap_or(0).min(alts - 1);
                *pos += 1;
                i
            }
        };
        self.log.push(i);
        i
    }
}

enum Next {
    Run(usize),
    AllDone,
    Deadlock,
}

struct ExecState {
    serial: u64,
    bound: u32,
    max_steps: u64,
    threads: Vec<VThread>,
    active: usize,
    preemptions: u32,
    steps: u64,
    locs: Vec<Loc>,
    mutexes: Vec<MutexModel>,
    n_cvs: usize,
    decider: Decider,
    trace: Vec<String>,
    failure: Option<Failure>,
    abort: bool,
    pruned: bool,
    done: bool,
    /// OS threads of this execution still alive.
    live: u32,
}

pub(crate) struct Exec {
    state: Mutex<ExecState>,
    cv: Condvar,
}

static EXEC_SERIAL: StdAtomicU64 = StdAtomicU64::new(0);

thread_local! {
    static CTX: std::cell::RefCell<Option<(Arc<Exec>, usize)>> =
        const { std::cell::RefCell::new(None) };
}

/// The execution context of the current OS thread, if it is a managed
/// virtual thread and we are not unwinding. During unwinding shadow
/// operations fall through to the real primitives so destructors stay
/// safe while the execution is torn down.
pub(crate) fn current() -> Option<(Arc<Exec>, usize)> {
    if std::thread::panicking() {
        return None;
    }
    CTX.with(|c| c.borrow().clone())
}

fn lock_state(exec: &Exec) -> MutexGuard<'_, ExecState> {
    exec.state.lock().unwrap_or_else(|p| p.into_inner())
}

fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

fn acquires(ord: Ordering) -> bool {
    matches!(ord, Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst)
}

fn releases(ord: Ordering) -> bool {
    matches!(ord, Ordering::Release | Ordering::AcqRel | Ordering::SeqCst)
}

fn ord_name(ord: Ordering) -> &'static str {
    match ord {
        Ordering::Relaxed => "Relaxed",
        Ordering::Acquire => "Acquire",
        Ordering::Release => "Release",
        Ordering::AcqRel => "AcqRel",
        Ordering::SeqCst => "SeqCst",
        _ => "?",
    }
}

impl ExecState {
    fn enabled(&self) -> Vec<usize> {
        self.threads
            .iter()
            .enumerate()
            .filter(|(_, t)| t.status == Status::Runnable)
            .map(|(i, _)| i)
            .collect()
    }

    fn trace_ev(&mut self, tid: usize, what: String) {
        let step = self.steps;
        self.trace.push(format!(
            "  [{step:>4}] T{tid}({}) {what}",
            self.threads[tid].name
        ));
    }

    /// Pick the next thread to run. Wakes `wait_timeout` sleepers when
    /// nothing else is runnable; reports deadlock when that does not help.
    fn pick_next(&mut self) -> Next {
        loop {
            let enabled = self.enabled();
            if enabled.is_empty() {
                if self.threads.iter().all(|t| t.status == Status::Finished) {
                    return Next::AllDone;
                }
                let timeouts: Vec<usize> = self
                    .threads
                    .iter()
                    .enumerate()
                    .filter(|(_, t)| matches!(t.status, Status::BlockedCv { timeout: true, .. }))
                    .map(|(i, _)| i)
                    .collect();
                if timeouts.is_empty() {
                    return Next::Deadlock;
                }
                for tid in timeouts {
                    self.threads[tid].status = Status::Runnable;
                    self.trace_ev(tid, "wait_timeout expires".to_string());
                }
                continue;
            }
            let cur = self.active;
            let cur_ok = enabled.contains(&cur);
            let cur_yielded = cur_ok && self.threads[cur].yielded;
            let others: Vec<usize> = enabled.iter().copied().filter(|&t| t != cur).collect();
            let allowed: Vec<usize> = if cur_yielded && !others.is_empty() {
                // The current thread yielded: it must hand off to someone
                // else (a voluntary switch, free of preemption cost). This
                // is what breaks spin/retry livelocks: the lock holder gets
                // to run even after the bound is spent.
                others
            } else if cur_ok && self.preemptions >= self.bound {
                vec![cur]
            } else if cur_ok {
                // Current thread first: the DFS baseline is sequential.
                std::iter::once(cur).chain(others).collect()
            } else {
                enabled
            };
            let i = if allowed.len() == 1 {
                0
            } else {
                self.decider.choose(allowed.len() as u32) as usize
            };
            let next = allowed[i];
            if cur_ok && !cur_yielded && next != cur {
                self.preemptions += 1;
            }
            self.threads[next].yielded = false;
            return Next::Run(next);
        }
    }

    fn snapshot_failure(&mut self, kind: FailureKind, message: String) {
        if self.failure.is_none() {
            let trace = {
                let lines = &self.trace;
                let skip = lines.len().saturating_sub(80);
                let mut s = String::new();
                if skip > 0 {
                    s.push_str(&format!("  ... {skip} earlier events elided ...\n"));
                }
                for l in &lines[skip..] {
                    s.push_str(l);
                    s.push('\n');
                }
                s
            };
            self.failure = Some(Failure {
                kind,
                message,
                schedule: self.decider.log.clone(),
                trace,
            });
        }
        self.abort = true;
    }

    // --- registration -----------------------------------------------------

    fn loc_id(&mut self, meta: &Meta, init: u64, kind: &'static str) -> usize {
        if meta.serial.load(StdOrdering::Relaxed) == self.serial {
            meta.id.load(StdOrdering::Relaxed) as usize
        } else {
            let id = self.locs.len();
            self.locs.push(Loc::new(init, kind));
            meta.id.store(id as u32, StdOrdering::Relaxed);
            meta.serial.store(self.serial, StdOrdering::Relaxed);
            id
        }
    }

    fn mutex_id(&mut self, meta: &Meta) -> usize {
        if meta.serial.load(StdOrdering::Relaxed) == self.serial {
            meta.id.load(StdOrdering::Relaxed) as usize
        } else {
            let id = self.mutexes.len();
            self.mutexes.push(MutexModel {
                locked_by: None,
                release: VClock::new(),
            });
            meta.id.store(id as u32, StdOrdering::Relaxed);
            meta.serial.store(self.serial, StdOrdering::Relaxed);
            id
        }
    }

    fn cv_id(&mut self, meta: &Meta) -> usize {
        if meta.serial.load(StdOrdering::Relaxed) == self.serial {
            meta.id.load(StdOrdering::Relaxed) as usize
        } else {
            let id = self.n_cvs;
            self.n_cvs += 1;
            meta.id.store(id as u32, StdOrdering::Relaxed);
            meta.serial.store(self.serial, StdOrdering::Relaxed);
            id
        }
    }

    // --- the memory model -------------------------------------------------

    /// Which stores may a load by `tid` with `ord` observe? Returns
    /// candidate indices newest-first (so alternative 0 = SC behavior).
    fn load_candidates(&self, tid: usize, loc: usize, ord: Ordering) -> Vec<usize> {
        let stores = &self.locs[loc].stores;
        let latest = stores.len() - 1;
        if ord == Ordering::SeqCst {
            return vec![latest];
        }
        let clk = &self.threads[tid].clock;
        // Newest store that happens-before this load: coherence forbids
        // reading anything older.
        let mut hb_floor = 0;
        for (j, s) in stores.iter().enumerate().rev() {
            if s.event.le(clk) {
                hb_floor = j;
                break;
            }
        }
        let floor = hb_floor.max(self.locs[loc].floor(tid));
        (floor..=latest).rev().collect()
    }

    fn do_load(&mut self, tid: usize, loc: usize, ord: Ordering) -> u64 {
        let cands = self.load_candidates(tid, loc, ord);
        let pick = if cands.len() == 1 {
            0
        } else {
            self.decider.choose(cands.len() as u32) as usize
        };
        let idx = cands[pick];
        let stale = idx + 1 < self.locs[loc].stores.len();
        let (val, msg) = {
            let s = &self.locs[loc].stores[idx];
            (
                s.val,
                if acquires(ord) {
                    Some(s.msg.clone())
                } else {
                    None
                },
            )
        };
        self.locs[loc].set_floor(tid, idx);
        if let Some(msg) = msg {
            self.threads[tid].clock.join(&msg);
        }
        self.threads[tid].clock.tick(tid);
        let kind = self.locs[loc].kind;
        self.trace_ev(
            tid,
            format!(
                "load {kind}#{loc} -> {val} ({}{})",
                ord_name(ord),
                if stale { ", stale" } else { "" }
            ),
        );
        val
    }

    fn do_store(&mut self, tid: usize, loc: usize, val: u64, ord: Ordering) {
        // Lost-update detector: this plain store overwrites a concurrent
        // store the thread neither read nor synchronized with — the
        // check-then-act signature (load, decide, store) that a CAS would
        // have caught.
        let latest_idx = self.locs[loc].stores.len() - 1;
        let fire = {
            let latest = &self.locs[loc].stores[latest_idx];
            match latest.by {
                Some(by) => {
                    by != tid
                        && self.locs[loc].floor(tid) < latest_idx
                        && !latest.event.le(&self.threads[tid].clock)
                }
                None => false,
            }
        };
        if fire {
            let latest = &self.locs[loc].stores[latest_idx];
            let kind = self.locs[loc].kind;
            let msg = format!(
                "lost update on {kind}#{loc}: T{tid} stores {val} over T{}'s unobserved, \
                 unsynchronized store of {} (a compare-exchange would have failed here)",
                latest.by.unwrap(), // xxi-allow: panic-path -- a lost-update report always names the overwriting thread
                latest.val
            );
            self.trace_ev(
                tid,
                format!(
                    "store {kind}#{loc} <- {val} ({}) ** LOST UPDATE **",
                    ord_name(ord)
                ),
            );
            self.snapshot_failure(FailureKind::LostUpdate, msg);
            return;
        }
        self.threads[tid].clock.tick(tid);
        let clk = self.threads[tid].clock.clone();
        let msg = if releases(ord) {
            clk.clone()
        } else {
            VClock::new()
        };
        self.locs[loc].stores.push(StoreEv {
            val,
            event: clk,
            msg,
            by: Some(tid),
        });
        let new_idx = self.locs[loc].stores.len() - 1;
        self.locs[loc].set_floor(tid, new_idx);
        let kind = self.locs[loc].kind;
        self.trace_ev(
            tid,
            format!("store {kind}#{loc} <- {val} ({})", ord_name(ord)),
        );
    }

    /// Atomic read-modify-write: reads the latest store, continues its
    /// release sequence, and appends the new value.
    fn do_rmw(&mut self, tid: usize, loc: usize, new: u64, ord: Ordering, what: &str) -> u64 {
        let latest_idx = self.locs[loc].stores.len() - 1;
        let (old, prev_msg) = {
            let s = &self.locs[loc].stores[latest_idx];
            (s.val, s.msg.clone())
        };
        if acquires(ord) {
            self.threads[tid].clock.join(&prev_msg);
        }
        self.threads[tid].clock.tick(tid);
        let clk = self.threads[tid].clock.clone();
        let mut msg = prev_msg;
        if releases(ord) {
            msg.join(&clk);
        }
        self.locs[loc].stores.push(StoreEv {
            val: new,
            event: clk,
            msg,
            by: Some(tid),
        });
        let new_idx = self.locs[loc].stores.len() - 1;
        self.locs[loc].set_floor(tid, new_idx);
        let kind = self.locs[loc].kind;
        self.trace_ev(
            tid,
            format!("{what} {kind}#{loc}: {old} -> {new} ({})", ord_name(ord)),
        );
        old
    }

    /// A failed compare-exchange is a load of the latest value.
    fn do_cas_fail(&mut self, tid: usize, loc: usize, expected: u64, ord_fail: Ordering) -> u64 {
        let latest_idx = self.locs[loc].stores.len() - 1;
        let (old, msg) = {
            let s = &self.locs[loc].stores[latest_idx];
            (s.val, s.msg.clone())
        };
        if acquires(ord_fail) {
            self.threads[tid].clock.join(&msg);
        }
        self.threads[tid].clock.tick(tid);
        self.locs[loc].set_floor(tid, latest_idx);
        let kind = self.locs[loc].kind;
        self.trace_ev(
            tid,
            format!("cas-fail {kind}#{loc}: expected {expected}, found {old}"),
        );
        old
    }
}

// --- the yield-point protocol --------------------------------------------

/// Abort this execution from the current thread. The guard must already be
/// dropped (panicking while holding it would poison the lock).
fn raise_abort() -> ! {
    panic::panic_any(Aborted)
}

impl Exec {
    fn new(
        serial: u64,
        bound: u32,
        max_steps: u64,
        mode: DecideMode,
        body_name: &str,
    ) -> Arc<Exec> {
        Arc::new(Exec {
            state: Mutex::new(ExecState {
                serial,
                bound,
                max_steps,
                threads: vec![VThread {
                    status: Status::Runnable,
                    clock: VClock::new(),
                    name: body_name.to_string(),
                    yielded: false,
                }],
                active: 0,
                preemptions: 0,
                steps: 0,
                locs: Vec::new(),
                mutexes: Vec::new(),
                n_cvs: 0,
                decider: Decider {
                    mode,
                    log: Vec::new(),
                },
                trace: Vec::new(),
                failure: None,
                abort: false,
                pruned: false,
                done: false,
                live: 1,
            }),
            cv: Condvar::new(),
        })
    }

    /// Enter a yield point: schedule the next thread, wait until this
    /// thread is (re)selected, and return the state guard for the
    /// operation that follows. Panics `Aborted` when the execution is
    /// being torn down.
    fn yield_point(&self, tid: usize) -> MutexGuard<'_, ExecState> {
        let mut st = lock_state(self);
        if st.abort {
            drop(st);
            raise_abort();
        }
        st.steps += 1;
        if st.steps > st.max_steps {
            st.pruned = true;
            st.abort = true;
            self.cv.notify_all();
            drop(st);
            raise_abort();
        }
        match st.pick_next() {
            Next::Run(next) if next == tid => st,
            Next::Run(next) => {
                st.active = next;
                self.cv.notify_all();
                loop {
                    st = self.cv.wait(st).unwrap_or_else(|p| p.into_inner());
                    if st.abort {
                        drop(st);
                        raise_abort();
                    }
                    if st.active == tid && st.threads[tid].status == Status::Runnable {
                        return st;
                    }
                }
            }
            // `tid` itself is runnable, so the scheduler can always run it.
            Next::AllDone | Next::Deadlock => unreachable!("running thread is always schedulable"),
        }
    }

    /// Block the current thread with `status` and hand control to another
    /// thread; returns with the guard once this thread is rescheduled.
    fn block<'a>(
        &'a self,
        mut st: MutexGuard<'a, ExecState>,
        tid: usize,
        status: Status,
    ) -> MutexGuard<'a, ExecState> {
        st.threads[tid].status = status;
        match st.pick_next() {
            Next::Run(next) => {
                st.active = next;
                self.cv.notify_all();
            }
            Next::AllDone => unreachable!("a blocked thread is not finished"),
            Next::Deadlock => {
                let blocked: Vec<String> = st
                    .threads
                    .iter()
                    .enumerate()
                    .filter(|(_, t)| t.status != Status::Finished)
                    .map(|(i, t)| format!("T{i}({}) {:?}", t.name, t.status))
                    .collect();
                st.snapshot_failure(
                    FailureKind::Deadlock,
                    format!(
                        "deadlock: no runnable threads; waiting: {}",
                        blocked.join(", ")
                    ),
                );
                self.cv.notify_all();
                drop(st);
                raise_abort();
            }
        }
        loop {
            st = self.cv.wait(st).unwrap_or_else(|p| p.into_inner());
            if st.abort {
                drop(st);
                raise_abort();
            }
            if st.active == tid && st.threads[tid].status == Status::Runnable {
                return st;
            }
        }
    }

    /// Thread `tid` finished its body: wake joiners and schedule onward.
    fn finish_thread(&self, tid: usize) {
        let mut st = lock_state(self);
        if st.abort {
            return;
        }
        st.threads[tid].status = Status::Finished;
        let joiners: Vec<usize> = st
            .threads
            .iter()
            .enumerate()
            .filter(|(_, t)| t.status == Status::BlockedJoin(tid))
            .map(|(i, _)| i)
            .collect();
        for j in joiners {
            st.threads[j].status = Status::Runnable;
        }
        st.trace_ev(tid, "exits".to_string());
        match st.pick_next() {
            Next::Run(next) => {
                st.active = next;
                self.cv.notify_all();
            }
            Next::AllDone => {
                st.done = true;
                self.cv.notify_all();
            }
            Next::Deadlock => {
                let blocked: Vec<String> = st
                    .threads
                    .iter()
                    .enumerate()
                    .filter(|(_, t)| t.status != Status::Finished)
                    .map(|(i, t)| format!("T{i}({}) {:?}", t.name, t.status))
                    .collect();
                st.snapshot_failure(
                    FailureKind::Deadlock,
                    format!(
                        "deadlock: no runnable threads; waiting: {}",
                        blocked.join(", ")
                    ),
                );
                self.cv.notify_all();
            }
        }
    }
}

// --- shadow-operation entry points (called from `sync` / `thread`) -------

/// True when the calling OS thread is a managed virtual thread.
pub(crate) fn is_managed() -> bool {
    current().is_some()
}

pub(crate) fn op_load(meta: &Meta, init: u64, kind: &'static str, ord: Ordering) -> Option<u64> {
    let (exec, tid) = current()?;
    let mut st = exec.yield_point(tid);
    let loc = st.loc_id(meta, init, kind);
    Some(st.do_load(tid, loc, ord))
}

pub(crate) fn op_store(
    meta: &Meta,
    init: u64,
    kind: &'static str,
    val: u64,
    ord: Ordering,
) -> bool {
    let Some((exec, tid)) = current() else {
        return false;
    };
    let mut st = exec.yield_point(tid);
    let loc = st.loc_id(meta, init, kind);
    st.do_store(tid, loc, val, ord);
    let abort = st.abort;
    drop(st);
    if abort {
        raise_abort();
    }
    true
}

/// Returns `(old, new)` so the caller can mirror `new` into the real atomic.
pub(crate) fn op_rmw(
    meta: &Meta,
    init: u64,
    kind: &'static str,
    ord: Ordering,
    what: &str,
    f: impl FnOnce(u64) -> u64,
) -> Option<(u64, u64)> {
    let (exec, tid) = current()?;
    let mut st = exec.yield_point(tid);
    let loc = st.loc_id(meta, init, kind);
    let old = st.locs[loc].stores.last().expect("history nonempty").val; // xxi-allow: panic-path -- see the expect message
    let new = f(old);
    let old2 = st.do_rmw(tid, loc, new, ord, what);
    debug_assert_eq!(old, old2);
    Some((old, new))
}

pub(crate) fn op_cas(
    meta: &Meta,
    init: u64,
    kind: &'static str,
    expected: u64,
    new: u64,
    ord: Ordering,
    ord_fail: Ordering,
) -> Option<Result<u64, u64>> {
    let (exec, tid) = current()?;
    let mut st = exec.yield_point(tid);
    let loc = st.loc_id(meta, init, kind);
    let latest = st.locs[loc].stores.last().expect("history nonempty").val; // xxi-allow: panic-path -- see the expect message
    if latest == expected {
        let old = st.do_rmw(tid, loc, new, ord, "cas");
        Some(Ok(old))
    } else {
        let old = st.do_cas_fail(tid, loc, expected, ord_fail);
        Some(Err(old))
    }
}

/// A fairness point (for `thread::yield_now`): marks the thread as unable
/// to make progress alone, so the next scheduling decision prefers other
/// runnable threads (see [`ExecState::pick_next`]).
pub(crate) fn op_yield() {
    if let Some((exec, tid)) = current() {
        {
            let mut st = lock_state(&exec);
            if !st.abort {
                st.threads[tid].yielded = true;
                st.trace_ev(tid, "yields".to_string());
            }
        }
        let st = exec.yield_point(tid);
        drop(st);
    }
}

// --- mutex / condvar model ------------------------------------------------

/// Model-acquire: blocks (virtually) until the model mutex is free, then
/// marks it held. The caller then takes the real `std` lock, which is
/// guaranteed uncontended.
pub(crate) fn mutex_lock(meta: &Meta) -> bool {
    let Some((exec, tid)) = current() else {
        return false;
    };
    let mut st = exec.yield_point(tid);
    loop {
        let mid = st.mutex_id(meta);
        if st.mutexes[mid].locked_by.is_none() {
            st.mutexes[mid].locked_by = Some(tid);
            let rel = st.mutexes[mid].release.clone();
            st.threads[tid].clock.join(&rel);
            st.threads[tid].clock.tick(tid);
            st.trace_ev(tid, format!("locks mutex#{mid}"));
            return true;
        }
        st = exec.block(st, tid, Status::BlockedLock(mid));
    }
}

pub(crate) fn mutex_unlock(meta: &Meta) {
    let Some((exec, tid)) = current() else {
        return;
    };
    let mut st = lock_state(&exec);
    if st.abort {
        return;
    }
    let mid = st.mutex_id(meta);
    debug_assert_eq!(st.mutexes[mid].locked_by, Some(tid));
    st.threads[tid].clock.tick(tid);
    st.mutexes[mid].locked_by = None;
    st.mutexes[mid].release = st.threads[tid].clock.clone();
    let waiters: Vec<usize> = st
        .threads
        .iter()
        .enumerate()
        .filter(|(_, t)| t.status == Status::BlockedLock(mid))
        .map(|(i, _)| i)
        .collect();
    for w in waiters {
        st.threads[w].status = Status::Runnable;
    }
    st.trace_ev(tid, format!("unlocks mutex#{mid}"));
}

/// Condvar wait: release the model mutex, drop the real guard via
/// `drop_guard` (while no other thread can run), block until notified or
/// timeout-woken, then re-acquire the model mutex. The caller re-takes the
/// real lock afterwards.
pub(crate) fn cv_wait(cv_meta: &Meta, mutex_meta: &Meta, timeout: bool, drop_guard: impl FnOnce()) {
    let Some((exec, tid)) = current() else {
        drop_guard();
        return;
    };
    let mut st = exec.yield_point(tid);
    let cid = st.cv_id(cv_meta);
    let mid = st.mutex_id(mutex_meta);
    debug_assert_eq!(st.mutexes[mid].locked_by, Some(tid));
    st.threads[tid].clock.tick(tid);
    st.mutexes[mid].locked_by = None;
    st.mutexes[mid].release = st.threads[tid].clock.clone();
    let waiters: Vec<usize> = st
        .threads
        .iter()
        .enumerate()
        .filter(|(_, t)| t.status == Status::BlockedLock(mid))
        .map(|(i, _)| i)
        .collect();
    for w in waiters {
        st.threads[w].status = Status::Runnable;
    }
    // No other virtual thread runs until `block` schedules one, so the
    // real guard can be dropped here without a real-lock race.
    drop_guard();
    st.trace_ev(tid, format!("waits on cv#{cid} (releases mutex#{mid})"));
    st = exec.block(st, tid, Status::BlockedCv { cid, timeout });
    // Woken: re-acquire the model mutex.
    loop {
        if st.mutexes[mid].locked_by.is_none() {
            st.mutexes[mid].locked_by = Some(tid);
            let rel = st.mutexes[mid].release.clone();
            st.threads[tid].clock.join(&rel);
            st.threads[tid].clock.tick(tid);
            st.trace_ev(tid, format!("re-locks mutex#{mid} after cv#{cid}"));
            return;
        }
        st = exec.block(st, tid, Status::BlockedLock(mid));
    }
}

pub(crate) fn cv_notify(cv_meta: &Meta, all: bool) -> bool {
    let Some((exec, tid)) = current() else {
        return false;
    };
    let mut st = lock_state(&exec);
    if st.abort {
        return true;
    }
    let cid = st.cv_id(cv_meta);
    st.threads[tid].clock.tick(tid);
    let waiters: Vec<usize> = st
        .threads
        .iter()
        .enumerate()
        .filter(|(_, t)| matches!(t.status, Status::BlockedCv { cid: c, .. } if c == cid))
        .map(|(i, _)| i)
        .collect();
    let woken: Vec<usize> = if all {
        waiters
    } else {
        waiters.into_iter().take(1).collect()
    };
    for w in &woken {
        st.threads[*w].status = Status::Runnable;
    }
    st.trace_ev(
        tid,
        format!(
            "notify_{} cv#{cid} (wakes {:?})",
            if all { "all" } else { "one" },
            woken
        ),
    );
    true
}

// --- thread model ---------------------------------------------------------

/// Register a new virtual thread (child of `tid`); returns its id. The
/// caller spawns the OS runner.
pub(crate) fn thread_spawn(name: &str) -> Option<(Arc<Exec>, usize)> {
    let (exec, tid) = current()?;
    let mut st = exec.yield_point(tid);
    st.threads[tid].clock.tick(tid);
    let child = st.threads.len();
    let mut clock = st.threads[tid].clock.clone();
    clock.tick(child);
    st.threads.push(VThread {
        status: Status::Runnable,
        clock,
        name: name.to_string(),
        yielded: false,
    });
    st.live += 1;
    st.trace_ev(tid, format!("spawns T{child}({name})"));
    drop(st);
    Some((exec, child))
}

/// Virtually join thread `target`: blocks until it finishes, then joins
/// its clock (everything the child did happens-before the join).
pub(crate) fn thread_join(target: usize) {
    let Some((exec, tid)) = current() else {
        return;
    };
    let mut st = exec.yield_point(tid);
    while st.threads[target].status != Status::Finished {
        st = exec.block(st, tid, Status::BlockedJoin(target));
    }
    let child_clock = st.threads[target].clock.clone();
    st.threads[tid].clock.join(&child_clock);
    st.threads[tid].clock.tick(tid);
    st.trace_ev(tid, format!("joins T{target}"));
}

/// The body of every managed OS thread: install the context, wait to be
/// scheduled, run, tear down. Records non-`Aborted` panics as failures.
pub(crate) fn runner(exec: Arc<Exec>, tid: usize, f: impl FnOnce()) {
    CTX.with(|c| *c.borrow_mut() = Some((Arc::clone(&exec), tid)));
    let result = panic::catch_unwind(AssertUnwindSafe(|| {
        // Wait until scheduled for the first time.
        {
            let mut st = lock_state(&exec);
            loop {
                if st.abort {
                    drop(st);
                    raise_abort();
                }
                if st.active == tid && st.threads[tid].status == Status::Runnable {
                    break;
                }
                st = exec.cv.wait(st).unwrap_or_else(|p| p.into_inner());
            }
        }
        f();
    }));
    CTX.with(|c| *c.borrow_mut() = None);
    match result {
        Ok(()) => exec.finish_thread(tid),
        Err(payload) => {
            if !payload.is::<Aborted>() {
                let mut st = lock_state(&exec);
                let msg = panic_message(payload.as_ref());
                st.trace_ev(tid, format!("panics: {msg}"));
                st.snapshot_failure(FailureKind::Panic, format!("T{tid} panicked: {msg}"));
                exec.cv.notify_all();
            }
        }
    }
    let mut st = lock_state(&exec);
    st.live -= 1;
    exec.cv.notify_all();
}

// --- the explorer ---------------------------------------------------------

/// Exploration configuration. The defaults match the acceptance criteria
/// of the correctness suite: preemption bound 2, 10k-schedule budget.
#[derive(Clone, Debug)]
pub struct Checker {
    pub preemption_bound: u32,
    pub max_schedules: u64,
    pub max_steps: u64,
    /// Extra seeded random-walk schedules run when DFS hits the budget
    /// without exhausting the space.
    pub random_fallback: u64,
    pub seed: u64,
    name: String,
    random_only: bool,
}

impl Default for Checker {
    fn default() -> Checker {
        let seed = std::env::var("XXI_CHECK_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0xC0FF_EE00_2121_0001);
        Checker {
            preemption_bound: 2,
            max_schedules: 10_000,
            max_steps: 50_000,
            random_fallback: 2_000,
            seed,
            name: "body".to_string(),
            random_only: false,
        }
    }
}

impl Checker {
    pub fn new() -> Checker {
        Checker::default()
    }

    pub fn preemption_bound(mut self, bound: u32) -> Checker {
        self.preemption_bound = bound;
        self
    }

    pub fn max_schedules(mut self, n: u64) -> Checker {
        self.max_schedules = n;
        self
    }

    pub fn max_steps(mut self, n: u64) -> Checker {
        self.max_steps = n;
        self
    }

    pub fn seed(mut self, seed: u64) -> Checker {
        self.seed = seed;
        self
    }

    pub fn name(mut self, name: &str) -> Checker {
        self.name = name.to_string();
        self
    }

    /// Skip DFS entirely: explore `max_schedules` seeded random walks.
    /// The right mode for bodies too large for exhaustive exploration
    /// (e.g. the full thread pool).
    pub fn random_walk(mut self) -> Checker {
        self.random_only = true;
        self
    }

    fn run_one(&self, mode: DecideMode, f: &Arc<dyn Fn() + Send + Sync>) -> ExecState {
        let serial = EXEC_SERIAL.fetch_add(1, StdOrdering::Relaxed) + 1;
        let exec = Exec::new(
            serial,
            self.preemption_bound,
            self.max_steps,
            mode,
            &self.name,
        );
        let body = Arc::clone(f);
        let texec = Arc::clone(&exec);
        let h = std::thread::Builder::new()
            .name(format!("xxi-check-{}", self.name))
            .spawn(move || runner(texec, 0, move || body()))
            .expect("spawn checker thread"); // xxi-allow: panic-path -- see the expect message
        {
            let mut st = lock_state(&exec);
            while !((st.done || st.abort) && st.live == 0) {
                st = exec.cv.wait(st).unwrap_or_else(|p| p.into_inner());
            }
        }
        let _ = h.join();
        match Arc::try_unwrap(exec) {
            Ok(e) => e.state.into_inner().unwrap_or_else(|p| p.into_inner()),
            // A leaked JoinHandle can keep a reference; clone out what we
            // need by swapping with a husk.
            Err(e) => {
                let mut st = lock_state(&e);
                ExecState {
                    serial: st.serial,
                    bound: st.bound,
                    max_steps: st.max_steps,
                    threads: std::mem::take(&mut st.threads),
                    active: st.active,
                    preemptions: st.preemptions,
                    steps: st.steps,
                    locs: std::mem::take(&mut st.locs),
                    mutexes: std::mem::take(&mut st.mutexes),
                    n_cvs: st.n_cvs,
                    decider: Decider {
                        mode: std::mem::replace(
                            &mut st.decider.mode,
                            DecideMode::Replay {
                                schedule: Vec::new(),
                                pos: 0,
                            },
                        ),
                        log: std::mem::take(&mut st.decider.log),
                    },
                    trace: std::mem::take(&mut st.trace),
                    failure: st.failure.take(),
                    abort: st.abort,
                    pruned: st.pruned,
                    done: st.done,
                    live: st.live,
                }
            }
        }
    }

    /// Explore interleavings of `f`. DFS over the bounded decision tree by
    /// default; seeded random walks with [`Checker::random_walk`]. Returns
    /// the first failure found, or a clean report.
    pub fn run(&self, f: impl Fn() + Send + Sync + 'static) -> Report {
        let f: Arc<dyn Fn() + Send + Sync> = Arc::new(f);
        let mut schedules = 0u64;
        let mut pruned = 0u64;
        if !self.random_only {
            let mut stack: Vec<DfsNode> = Vec::new();
            loop {
                if schedules >= self.max_schedules {
                    // DFS budget exhausted: seeded random-walk fallback.
                    return self.random_tail(&f, schedules, pruned);
                }
                let st = self.run_one(DecideMode::Dfs { stack, depth: 0 }, &f);
                schedules += 1;
                if st.pruned {
                    pruned += 1;
                }
                if let Some(failure) = st.failure {
                    return Report {
                        schedules,
                        pruned,
                        complete: false,
                        failure: Some(failure),
                    };
                }
                stack = match st.decider.mode {
                    DecideMode::Dfs { stack, .. } => stack,
                    _ => unreachable!(),
                };
                // Advance to the next unexplored branch.
                loop {
                    match stack.last_mut() {
                        None => {
                            return Report {
                                schedules,
                                pruned,
                                complete: true,
                                failure: None,
                            }
                        }
                        Some(node) if node.idx + 1 < node.alts => {
                            node.idx += 1;
                            break;
                        }
                        Some(_) => {
                            stack.pop();
                        }
                    }
                }
            }
        } else {
            for k in 0..self.max_schedules {
                let rng = Rng64::new(
                    self.seed
                        .wrapping_add(k)
                        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                        | 1,
                );
                let st = self.run_one(DecideMode::Random { rng }, &f);
                schedules += 1;
                if st.pruned {
                    pruned += 1;
                }
                if let Some(failure) = st.failure {
                    return Report {
                        schedules,
                        pruned,
                        complete: false,
                        failure: Some(failure),
                    };
                }
            }
            Report {
                schedules,
                pruned,
                complete: false,
                failure: None,
            }
        }
    }

    fn random_tail(
        &self,
        f: &Arc<dyn Fn() + Send + Sync>,
        mut schedules: u64,
        mut pruned: u64,
    ) -> Report {
        for k in 0..self.random_fallback {
            let rng = Rng64::new(
                self.seed
                    .wrapping_add(k)
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    | 1,
            );
            let st = self.run_one(DecideMode::Random { rng }, f);
            schedules += 1;
            if st.pruned {
                pruned += 1;
            }
            if let Some(failure) = st.failure {
                return Report {
                    schedules,
                    pruned,
                    complete: false,
                    failure: Some(failure),
                };
            }
        }
        Report {
            schedules,
            pruned,
            complete: false,
            failure: None,
        }
    }

    /// Re-run `f` once under a recorded decision vector (from
    /// [`Failure::schedule`]); deterministic reproduction of a failure.
    pub fn replay(&self, f: impl Fn() + Send + Sync + 'static, schedule: &[u32]) -> Report {
        let f: Arc<dyn Fn() + Send + Sync> = Arc::new(f);
        let st = self.run_one(
            DecideMode::Replay {
                schedule: schedule.to_vec(),
                pos: 0,
            },
            &f,
        );
        Report {
            schedules: 1,
            pruned: if st.pruned { 1 } else { 0 },
            complete: false,
            failure: st.failure,
        }
    }
}

/// Explore `f` with the default configuration and panic (with the failing
/// schedule and trace) if any explored interleaving fails.
pub fn check(f: impl Fn() + Send + Sync + 'static) {
    Checker::new().run(f).assert_ok();
}

/// The set of distinct values `expr` can produce across interleavings —
/// a convenience for litmus tests. `f` must send its observation through
/// the returned collector.
pub fn observed_values(
    checker: Checker,
    f: impl Fn(&dyn Fn(u64)) + Send + Sync + 'static,
) -> (BTreeSet<u64>, Report) {
    let seen = Arc::new(Mutex::new(BTreeSet::new()));
    let seen2 = Arc::clone(&seen);
    let report = checker.run(move || {
        let seen3 = Arc::clone(&seen2);
        f(&move |v: u64| {
            seen3.lock().unwrap_or_else(|p| p.into_inner()).insert(v);
        });
    });
    let vals = seen.lock().unwrap_or_else(|p| p.into_inner()).clone();
    (vals, report)
}
