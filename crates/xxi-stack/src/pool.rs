//! A work-stealing thread pool over [`crate::deque`].
//!
//! Each worker owns a deque; spawned tasks go to the submitting worker's
//! deque when possible, otherwise to a global injector. Idle workers drain
//! their own deque LIFO, then the injector, then steal from victims in a
//! rotating order. This is the "orchestrate fine-grain multitasking"
//! runtime of §2.2 in ~250 lines; experiment E18 measures its scaling.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use xxi_core::metrics::Metrics;

use crate::deque::{deque, Stealer, Worker};
use crate::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use crate::sync::{thread, Arc, Condvar, Mutex};

type Task = Box<dyn FnOnce() + Send + 'static>;

std::thread_local! {
    /// The worker this OS thread runs, if any: the identity of its pool's
    /// `Shared` (for matching spawns to the right pool), the worker's id
    /// (its index into `Shared::stealers` and `Shared::counters`), and a
    /// pointer to the `Worker` deque owned by the `worker_loop` frame on
    /// this thread. Registered for the lifetime of `worker_loop`; see
    /// `WorkerReg`.
    static CURRENT_WORKER: Cell<(usize, usize, *const Worker<Task>)> =
        const { Cell::new((0, 0, std::ptr::null())) };
}

/// Registers the running worker thread in `CURRENT_WORKER` for the scope
/// of `worker_loop`, and unregisters on drop (including unwinds).
struct WorkerReg;

impl WorkerReg {
    fn new(shared: &Arc<Shared>, id: usize, worker: &Worker<Task>) -> WorkerReg {
        let key = Arc::as_ptr(shared) as usize;
        CURRENT_WORKER.with(|c| c.set((key, id, worker as *const _)));
        WorkerReg
    }
}

impl Drop for WorkerReg {
    fn drop(&mut self) {
        CURRENT_WORKER.with(|c| c.set((0, 0, std::ptr::null())));
    }
}

/// The worker id and deque of the calling thread, when the caller is a
/// worker of the pool identified by `shared`.
fn local_worker(shared: &Arc<Shared>) -> Option<(usize, &Worker<Task>)> {
    let (key, id, ptr) = CURRENT_WORKER.with(|c| c.get());
    if key == Arc::as_ptr(shared) as usize && !ptr.is_null() {
        // SAFETY: the pointer was registered by `WorkerReg::new` on this
        // same thread and is cleared before `worker_loop`'s frame (which
        // owns the `Worker`) is torn down; the key check guarantees it
        // belongs to this pool. `Worker` is only touched from its own
        // thread, which is exactly the calling thread here.
        Some((id, unsafe { &*ptr }))
    } else {
        None
    }
}

/// Per-worker scheduling counters, updated lock-free with relaxed adds by
/// the owning thread only (each worker has its own cache-line-aligned
/// slot, plus one shared slot for external helper threads — see
/// `Shared::counters`). `Pool::stats()` sums the slots into a
/// [`PoolStats`] snapshot.
#[repr(align(64))]
struct WorkerCounters {
    executed: AtomicU64,
    local_pops: AtomicU64,
    steals: AtomicU64,
    failed_steals: AtomicU64,
    injector_pops: AtomicU64,
    parks: AtomicU64,
    wakeups: AtomicU64,
    scope_helps: AtomicU64,
}

impl WorkerCounters {
    const fn new() -> WorkerCounters {
        WorkerCounters {
            executed: AtomicU64::new(0),
            local_pops: AtomicU64::new(0),
            steals: AtomicU64::new(0),
            failed_steals: AtomicU64::new(0),
            injector_pops: AtomicU64::new(0),
            parks: AtomicU64::new(0),
            wakeups: AtomicU64::new(0),
            scope_helps: AtomicU64::new(0),
        }
    }

    #[inline]
    fn bump(c: &AtomicU64) {
        c.fetch_add(1, Ordering::Relaxed);
    }
}

/// A consistent snapshot of the pool's scheduling behaviour, taken by
/// [`Pool::stats`]. All counters are cumulative since `Pool::new`.
///
/// Task-source accounting is exact: every executed task was obtained by
/// exactly one of a local pop, a steal, or a direct injector pop, so
/// `executed == local_pops + steals + injector_pops` whenever the pool is
/// quiescent (e.g. after [`Pool::wait`]). Tasks batch-moved from the
/// injector into a worker's own deque count as local pops when they later
/// run; the injector's push side is visible via `injector_pushes`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Worker threads in the pool.
    pub threads: usize,
    /// Tasks that finished executing.
    pub executed: u64,
    /// Tasks a thread popped from its own deque (LIFO fast path).
    pub local_pops: u64,
    /// Tasks stolen from another worker's deque.
    pub steals: u64,
    /// Steal probes that found the victim's deque empty or lost the race.
    pub failed_steals: u64,
    /// Tasks pushed to the global injector (cross-thread submissions and
    /// local-deque overflows); worker-side spawns should stay local.
    pub injector_pushes: u64,
    /// Tasks executed straight off the global injector.
    pub injector_pops: u64,
    /// Times a worker committed to parking on the idle condvar.
    pub parks: u64,
    /// Times a worker returned from a park. With event-counted parking an
    /// *idle* pool does not wake at all, so this stays flat while no work
    /// is submitted (the old 1 ms poll accumulated ~1000/s per worker).
    pub wakeups: u64,
    /// Tasks run by a thread while it waited inside a scope
    /// (`run_scoped`'s helping-wait), rather than by the worker loop.
    pub scope_helps: u64,
}

impl PoolStats {
    /// Counter-wise difference `self - earlier`, for windowed measurement
    /// (e.g. one bench iteration). Saturates at zero so a stale `earlier`
    /// cannot underflow.
    pub fn since(&self, earlier: &PoolStats) -> PoolStats {
        PoolStats {
            threads: self.threads,
            executed: self.executed.saturating_sub(earlier.executed),
            local_pops: self.local_pops.saturating_sub(earlier.local_pops),
            steals: self.steals.saturating_sub(earlier.steals),
            failed_steals: self.failed_steals.saturating_sub(earlier.failed_steals),
            injector_pushes: self.injector_pushes.saturating_sub(earlier.injector_pushes),
            injector_pops: self.injector_pops.saturating_sub(earlier.injector_pops),
            parks: self.parks.saturating_sub(earlier.parks),
            wakeups: self.wakeups.saturating_sub(earlier.wakeups),
            scope_helps: self.scope_helps.saturating_sub(earlier.scope_helps),
        }
    }

    /// Snapshot the counters into a [`Metrics`] registry under the
    /// `pool.` prefix (counters add on merge, so windowed snapshots can
    /// be rolled up).
    pub fn record(&self, m: &mut Metrics) {
        m.gauge("pool.threads", self.threads as f64);
        m.count("pool.tasks_executed", self.executed);
        m.count("pool.local_pops", self.local_pops);
        m.count("pool.steals", self.steals);
        m.count("pool.failed_steals", self.failed_steals);
        m.count("pool.injector_pushes", self.injector_pushes);
        m.count("pool.injector_pops", self.injector_pops);
        m.count("pool.parks", self.parks);
        m.count("pool.wakeups", self.wakeups);
        m.count("pool.scope_helps", self.scope_helps);
    }
}

struct Shared {
    injector: Mutex<VecDeque<Task>>,
    stealers: Vec<Stealer<Task>>,
    pending: AtomicUsize,
    shutdown: AtomicBool,
    /// Tasks that took the global-injector path (cross-thread submission
    /// or local-deque overflow). Diagnostic: worker-side spawns should
    /// stay local, and the contention regression test asserts they do.
    injected: AtomicUsize,
    /// Per-worker scheduling counters; slot `i` belongs to worker `i`,
    /// the extra last slot to external threads helping from `run_scoped`.
    counters: Vec<WorkerCounters>,
    /// Wakeup epoch of the event-counted parking protocol: bumped after
    /// every task is made visible (and on shutdown). A worker records the
    /// epoch *before* its final emptiness re-check and sleeps only while
    /// the epoch is unchanged, so a task enqueued between the re-check and
    /// the wait is never missed.
    epoch: AtomicU64,
    /// Workers currently parked (or committed to parking) on `idle_cv`.
    /// Incremented under the `idle` lock; lets `notify` skip the lock
    /// entirely when nobody is asleep.
    sleepers: AtomicUsize,
    idle: Mutex<()>,
    idle_cv: Condvar,
    done: Mutex<()>,
    done_cv: Condvar,
}

impl Shared {
    /// Wake (at most) one parked worker after making a task visible.
    ///
    /// The epoch bump publishes "new work exists" to any worker that is
    /// between its emptiness re-check and its wait; the sleeper count
    /// keeps the common case (all workers busy) lock-free.
    fn notify_one(&self) {
        // ORDERING: the epoch bump must be totally ordered against a
        // parker's epoch-load/re-check/wait sequence — SeqCst is what rules
        // out "worker re-checks, sees nothing; we bump; worker sleeps".
        self.epoch.fetch_add(1, Ordering::SeqCst);
        // ORDERING: SeqCst pairs with the parker's sleeper increment under
        // the idle lock; a stale 0 here would skip the wakeup a parked
        // worker needs.
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            let _g = self.idle.lock().unwrap();
            self.idle_cv.notify_one();
        }
    }

    /// Wake every parked worker (shutdown).
    fn notify_all(&self) {
        // ORDERING: as in `notify_one` — the bump must not reorder past a
        // parker's wait-loop epoch check.
        self.epoch.fetch_add(1, Ordering::SeqCst);
        let _g = self.idle.lock().unwrap();
        self.idle_cv.notify_all();
    }
}

/// Completion state of one `run_scoped` call: how many chunk tasks are
/// still outstanding, the first panic payload (if any), and the condvar an
/// external waiter parks on. Chunk tasks hold it via `Arc` so it outlives
/// the scope even if a task is still unwinding when the counter drops.
struct ScopeState {
    remaining: AtomicUsize,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    done: Mutex<bool>,
    done_cv: Condvar,
}

/// The work-stealing pool.
pub struct Pool {
    shared: Arc<Shared>,
    handles: Vec<thread::JoinHandle<()>>,
}

impl Pool {
    /// Spawn a pool with `threads ≥ 1` workers.
    pub fn new(threads: usize) -> Pool {
        assert!(threads >= 1);
        let mut workers: Vec<Worker<Task>> = Vec::with_capacity(threads);
        let mut stealers = Vec::with_capacity(threads);
        for _ in 0..threads {
            let (w, s) = deque::<Task>(1 << 13);
            workers.push(w);
            stealers.push(s);
        }
        let shared = Arc::new(Shared {
            injector: Mutex::new(VecDeque::new()),
            stealers,
            pending: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            injected: AtomicUsize::new(0),
            // One slot per worker plus the shared external-helper slot.
            counters: (0..=threads).map(|_| WorkerCounters::new()).collect(),
            epoch: AtomicU64::new(0),
            sleepers: AtomicUsize::new(0),
            idle: Mutex::new(()),
            idle_cv: Condvar::new(),
            done: Mutex::new(()),
            done_cv: Condvar::new(),
        });
        let handles = workers
            .into_iter()
            .enumerate()
            .map(|(id, w)| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("xxi-worker-{id}"))
                    .spawn(move || worker_loop(id, w, shared))
                    .expect("spawn worker") // xxi-allow: panic-path -- see the expect message
            })
            .collect();
        Pool { shared, handles }
    }

    /// Number of workers.
    pub fn threads(&self) -> usize {
        self.shared.stealers.len()
    }

    /// Submit a task.
    pub fn spawn(&self, f: impl FnOnce() + Send + 'static) {
        self.inject(Box::new(f));
    }

    /// Submission path shared by [`Pool::spawn`] and [`Pool::run_scoped`]:
    /// local-first (the submitting worker's own deque, no lock), with the
    /// global injector as the cross-thread / overflow route.
    fn inject(&self, task: Task) {
        // ORDERING: pending must rise before the task becomes runnable —
        // SeqCst orders it against `run`'s decrement and `wait`'s check so
        // the pool can never look quiescent with a task in flight.
        self.shared.pending.fetch_add(1, Ordering::SeqCst);
        let task = match local_worker(&self.shared) {
            Some((_, w)) => match w.push(task) {
                Ok(()) => {
                    self.shared.notify_one();
                    return;
                }
                // Local deque full: overflow to the injector.
                Err(task) => task,
            },
            None => task,
        };
        self.shared.injected.fetch_add(1, Ordering::Relaxed);
        self.shared.injector.lock().unwrap().push_back(task);
        self.shared.notify_one();
    }

    /// Snapshot the pool's scheduling counters (see [`PoolStats`]).
    ///
    /// Lock-free: sums each worker's relaxed per-slot counters. A snapshot
    /// taken while tasks are in flight is a consistent *lower bound* per
    /// counter; taken while the pool is quiescent (after [`Pool::wait`] or
    /// a scoped call) it is exact.
    pub fn stats(&self) -> PoolStats {
        let mut s = PoolStats {
            threads: self.threads(),
            injector_pushes: self.shared.injected.load(Ordering::Relaxed) as u64,
            ..PoolStats::default()
        };
        for c in &self.shared.counters {
            s.executed += c.executed.load(Ordering::Relaxed);
            s.local_pops += c.local_pops.load(Ordering::Relaxed);
            s.steals += c.steals.load(Ordering::Relaxed);
            s.failed_steals += c.failed_steals.load(Ordering::Relaxed);
            s.injector_pops += c.injector_pops.load(Ordering::Relaxed);
            s.parks += c.parks.load(Ordering::Relaxed);
            s.wakeups += c.wakeups.load(Ordering::Relaxed);
            s.scope_helps += c.scope_helps.load(Ordering::Relaxed);
        }
        s
    }

    /// Block until every spawned task has completed.
    pub fn wait(&self) {
        let mut guard = self.shared.done.lock().unwrap();
        // ORDERING: SeqCst pairs with inject's increment / run's decrement;
        // the check runs under the done lock, so the final decrementer's
        // notify cannot slip between our load and our wait.
        while self.shared.pending.load(Ordering::SeqCst) != 0 {
            guard = self.shared.done_cv.wait(guard).unwrap();
        }
    }

    /// Run `f(i)` for every `i in 0..tasks` on the pool and block until
    /// all invocations complete. Scoped: `f` may borrow from the caller's
    /// stack — no `'static` bound. A panic in any invocation is re-raised
    /// here (first one wins) after every task has finished.
    ///
    /// Safe to call from inside a pool task: the waiting thread *helps*
    /// (drains its own deque, the injector, then steals), so nested scopes
    /// make progress even on a one-worker pool.
    pub fn run_scoped(&self, tasks: usize, f: &(dyn Fn(usize) + Sync)) {
        if tasks == 0 {
            return;
        }
        // SAFETY: the reference is only lifetime-erased, never retyped.
        // We do not return until `remaining` reaches zero, i.e. until
        // every task wrapper (each of which holds the erased reference)
        // has finished running — so the erased `'static` never actually
        // outlives the caller's borrow.
        let f: &'static (dyn Fn(usize) + Sync) = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(f)
        };
        let scope = Arc::new(ScopeState {
            remaining: AtomicUsize::new(tasks),
            panic: Mutex::new(None),
            done: Mutex::new(false),
            done_cv: Condvar::new(),
        });
        for i in 0..tasks {
            let scope = Arc::clone(&scope);
            self.inject(Box::new(move || {
                // Catch so a panicking chunk still counts down (the scope
                // would otherwise wait forever) and the payload reaches
                // the scoped caller instead of killing a worker.
                if let Err(p) = catch_unwind(AssertUnwindSafe(|| f(i))) {
                    let mut slot = scope.panic.lock().unwrap();
                    if slot.is_none() {
                        *slot = Some(p);
                    }
                }
                // ORDERING: SeqCst orders the decrement after the task body
                // and the panic-slot write, and against the waiter's load —
                // reaching 0 must imply every chunk's effects are visible.
                if scope.remaining.fetch_sub(1, Ordering::SeqCst) == 1 {
                    let mut done = scope.done.lock().unwrap();
                    *done = true;
                    scope.done_cv.notify_all();
                }
            }));
        }
        // Help while waiting; park only when every queue is empty, which
        // means the remaining chunks are already running on other threads.
        // ORDERING: SeqCst pairs with the chunk tasks' decrement; observing
        // 0 here is what licenses returning to a caller that reads what the
        // tasks wrote.
        while scope.remaining.load(Ordering::SeqCst) != 0 {
            if self.help_one() {
                continue;
            }
            let done = scope.done.lock().unwrap();
            if !*done {
                drop(scope.done_cv.wait(done).unwrap());
            }
        }
        let payload = scope.panic.lock().unwrap().take();
        if let Some(p) = payload {
            resume_unwind(p);
        }
    }

    /// Run one queued task on the calling thread, if any is available:
    /// the caller's own deque (when it is a worker), then the injector,
    /// then a steal. Returns whether a task was run.
    fn help_one(&self) -> bool {
        let shared = &self.shared;
        let local = local_worker(shared);
        // Helping runs are charged to the calling worker's slot, or to the
        // shared external slot for non-worker threads waiting on a scope.
        let c = match local {
            Some((id, _)) => &shared.counters[id],
            None => shared.counters.last().expect("external counter slot"), // xxi-allow: panic-path -- see the expect message
        };
        if let Some((_, w)) = local {
            if let Some(t) = w.pop() {
                WorkerCounters::bump(&c.local_pops);
                WorkerCounters::bump(&c.scope_helps);
                run(t, shared, c);
                return true;
            }
        }
        let t = shared.injector.lock().unwrap().pop_front();
        if let Some(t) = t {
            WorkerCounters::bump(&c.injector_pops);
            WorkerCounters::bump(&c.scope_helps);
            run(t, shared, c);
            return true;
        }
        for s in &shared.stealers {
            if let Some(t) = s.steal() {
                WorkerCounters::bump(&c.steals);
                WorkerCounters::bump(&c.scope_helps);
                run(t, shared, c);
                return true;
            }
            WorkerCounters::bump(&c.failed_steals);
        }
        false
    }
}

/// The pool is the multi-threaded implementation of the executor seam the
/// Monte Carlo loops in `xxi-cloud` are written against ([`Serial`] being
/// the other one).
///
/// [`Serial`]: xxi_core::par::Serial
impl xxi_core::par::Parallelism for Pool {
    fn for_tasks(&self, tasks: usize, f: &(dyn Fn(usize) + Sync)) {
        self.run_scoped(tasks, f);
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        // ORDERING: SeqCst orders the flag ahead of notify_all's epoch bump
        // so a worker that wakes on the bump cannot miss the shutdown.
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(id: usize, worker: Worker<Task>, shared: Arc<Shared>) {
    let _reg = WorkerReg::new(&shared, id, &worker);
    let n = shared.stealers.len();
    let c = &shared.counters[id];
    loop {
        // 1. Own deque (LIFO).
        if let Some(task) = worker.pop() {
            WorkerCounters::bump(&c.local_pops);
            run(task, &shared, c);
            continue;
        }
        // 2. Global injector: take a batch into the local deque.
        {
            let mut overflow: Option<Task> = None;
            let mut moved = false;
            {
                let mut inj = shared.injector.lock().unwrap();
                for _ in 0..16 {
                    match inj.pop_front() {
                        Some(t) => {
                            moved = true;
                            if let Err(t) = worker.push(t) {
                                // Local deque full: run the overflow task
                                // ourselves, outside the lock.
                                overflow = Some(t);
                                break;
                            }
                        }
                        None => break,
                    }
                }
            }
            if let Some(t) = overflow {
                WorkerCounters::bump(&c.injector_pops);
                run(t, &shared, c);
            }
            if moved {
                continue;
            }
        }
        // 3. Steal from victims, starting after our own id.
        let mut stolen = None;
        for k in 1..n {
            let v = (id + k) % n;
            if let Some(t) = shared.stealers[v].steal() {
                stolen = Some(t);
                break;
            }
            WorkerCounters::bump(&c.failed_steals);
        }
        if let Some(t) = stolen {
            WorkerCounters::bump(&c.steals);
            run(t, &shared, c);
            continue;
        }
        // 4. Nothing anywhere: park until the epoch moves (no polling).
        // ORDERING: SeqCst keeps the shutdown check ordered against Drop's
        // store + notify_all sequence.
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        // Event-counted parking: record the epoch, then re-check every
        // queue. Any task made visible after this load bumps the epoch
        // (see `notify_one`), so either the re-check sees the task or the
        // wait loop below sees the bump — a wakeup can't be lost.
        // ORDERING: SeqCst — the epoch sample must precede the re-check in
        // the same total order the submitter's publish/bump uses.
        let epoch = shared.epoch.load(Ordering::SeqCst);
        let injector_empty = shared.injector.lock().unwrap().is_empty();
        if !injector_empty || !worker.is_empty() || shared.stealers.iter().any(|s| !s.is_empty()) {
            continue;
        }
        let mut guard = shared.idle.lock().unwrap();
        // ORDERING: SeqCst pairs with notify_one's sleeper check; the
        // increment happens under the idle lock, so a submitter either sees
        // it (and notifies) or we see its epoch bump below.
        shared.sleepers.fetch_add(1, Ordering::SeqCst);
        WorkerCounters::bump(&c.parks);
        // ORDERING: SeqCst on both loads — the wait-loop re-check is the
        // second leg of the lost-wakeup protocol (see `notify_one`).
        while shared.epoch.load(Ordering::SeqCst) == epoch
            && !shared.shutdown.load(Ordering::SeqCst)
        {
            guard = shared.idle_cv.wait(guard).unwrap();
        }
        // ORDERING: SeqCst, symmetric with the increment above.
        shared.sleepers.fetch_sub(1, Ordering::SeqCst);
        drop(guard);
        WorkerCounters::bump(&c.wakeups);
    }
}

fn run(task: Task, shared: &Shared, c: &WorkerCounters) {
    task();
    WorkerCounters::bump(&c.executed);
    // ORDERING: SeqCst orders the decrement after the task body, pairing
    // with `wait`'s check — pending hitting 0 implies all effects visible.
    if shared.pending.fetch_sub(1, Ordering::SeqCst) == 1 {
        let _g = shared.done.lock().unwrap();
        shared.done_cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use xxi_core::par::{map, Parallelism, Serial};

    #[test]
    fn runs_all_tasks() {
        let pool = Pool::new(4);
        let counter = Arc::new(AtomicU64::new(0));
        for _ in 0..10_000 {
            let c = Arc::clone(&counter);
            pool.spawn(move || {
                c.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.wait();
        assert_eq!(counter.load(Ordering::SeqCst), 10_000);
    }

    #[test]
    fn map_preserves_order() {
        let pool = Pool::new(4);
        let out = map(&pool, 1000, |i| i * i);
        assert_eq!(out.len(), 1000);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * i);
        }
    }

    #[test]
    fn map_empty() {
        let pool = Pool::new(2);
        let out: Vec<u32> = map(&pool, 0, |_| 1);
        assert!(out.is_empty());
    }

    #[test]
    fn work_actually_spreads_across_threads() {
        let pool = Pool::new(4);
        let ids = Arc::new(Mutex::new(std::collections::HashSet::new()));
        for _ in 0..200 {
            let ids = Arc::clone(&ids);
            pool.spawn(move || {
                std::thread::sleep(std::time::Duration::from_micros(200));
                ids.lock().unwrap().insert(std::thread::current().id());
            });
        }
        pool.wait();
        assert!(ids.lock().unwrap().len() >= 2, "no parallelism observed");
    }

    #[test]
    fn worker_spawns_stay_off_the_injector() {
        // The module docs promise "spawned tasks go to the submitting
        // worker's deque when possible". Regression: every task used to
        // pay the global injector mutex. Fan a root task out into many
        // children from inside a worker; only cross-thread submissions
        // (the root) may touch the injector.
        let pool = Arc::new(Pool::new(2));
        let counter = Arc::new(AtomicU64::new(0));
        let p2 = Arc::clone(&pool);
        let c2 = Arc::clone(&counter);
        pool.spawn(move || {
            for _ in 0..1_000 {
                let c = Arc::clone(&c2);
                p2.spawn(move || {
                    c.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        pool.wait();
        assert_eq!(counter.load(Ordering::SeqCst), 1_000);
        let injected = pool.stats().injector_pushes;
        // The root task came from this (non-worker) thread; children were
        // spawned on a worker and must have gone to its own deque. The
        // deque holds 8192 entries, so none of the 1000 may overflow.
        assert_eq!(
            injected, 1,
            "worker-side spawns hit the injector: {injected}"
        );
    }

    #[test]
    fn cross_thread_spawns_still_run_via_injector() {
        // Submissions from threads outside the pool take the injector
        // path and must still execute.
        let pool = Pool::new(2);
        let counter = Arc::new(AtomicU64::new(0));
        for _ in 0..100 {
            let c = Arc::clone(&counter);
            pool.spawn(move || {
                c.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.wait();
        assert_eq!(counter.load(Ordering::SeqCst), 100);
        assert_eq!(pool.stats().injector_pushes, 100);
    }

    #[test]
    fn local_overflow_falls_back_to_injector() {
        // A worker that spawns more than its deque holds (2^13) must
        // overflow the excess to the injector, not drop or deadlock.
        let pool = Arc::new(Pool::new(1));
        let counter = Arc::new(AtomicU64::new(0));
        let p2 = Arc::clone(&pool);
        let c2 = Arc::clone(&counter);
        let n = (1 << 13) + 500u64;
        pool.spawn(move || {
            for _ in 0..n {
                let c = Arc::clone(&c2);
                p2.spawn(move || {
                    c.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        pool.wait();
        assert_eq!(counter.load(Ordering::SeqCst), n);
        assert!(
            pool.stats().injector_pushes > 1,
            "overflow should have reached the injector"
        );
    }

    #[test]
    fn map_borrows_from_the_stack() {
        // The scoped API's point: no 'static bound, captures may borrow.
        let pool = Pool::new(2);
        let data: Vec<u64> = (0..100).collect();
        let out = map(&pool, 100, |i| data[i] * 2);
        assert_eq!(out[7], 14);
        assert_eq!(out.len(), 100);
        assert_eq!(data.len(), 100); // still borrowed, still alive
    }

    #[test]
    fn map_propagates_panics_and_pool_survives() {
        let pool = Pool::new(2);
        let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
            map(&pool, 64, |i| {
                if i == 17 {
                    panic!("boom at 17");
                }
                i
            })
        }));
        let payload = r.expect_err("panic must propagate to the caller");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
        assert!(msg.contains("boom"), "wrong payload: {msg:?}");
        // The panic was contained to the scope: workers are alive and the
        // pool still runs work.
        let out = map(&pool, 10, |i| i + 1);
        assert_eq!(out[9], 10);
    }

    #[test]
    fn map_panic_drops_each_result_exactly_once() {
        static CREATED: AtomicU64 = AtomicU64::new(0);
        static DROPPED: AtomicU64 = AtomicU64::new(0);
        struct Counted;
        impl Counted {
            fn new() -> Counted {
                CREATED.fetch_add(1, Ordering::SeqCst);
                Counted
            }
        }
        impl Drop for Counted {
            fn drop(&mut self) {
                DROPPED.fetch_add(1, Ordering::SeqCst);
            }
        }
        let pool = Pool::new(2);
        let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
            map(&pool, 100, |i| {
                if i == 99 {
                    panic!("last index");
                }
                Counted::new()
            })
        }));
        assert!(r.is_err());
        // Every result that was constructed must have been dropped by the
        // cleanup path — no leaks, no double drops.
        assert_eq!(
            CREATED.load(Ordering::SeqCst),
            DROPPED.load(Ordering::SeqCst)
        );
    }

    #[test]
    fn nested_scopes_on_one_worker_do_not_deadlock() {
        // A worker that opens a scope must help run its own chunks; with a
        // single worker there is no one else to do it.
        let pool = Pool::new(1);
        let out = map(&pool, 4, |i| {
            let inner = map(&pool, 4, |j| i * 10 + j);
            inner.into_iter().sum::<usize>()
        });
        assert_eq!(out, vec![6, 46, 86, 126]);
    }

    #[test]
    fn scoped_wait_from_external_thread_completes() {
        // run_scoped from a non-worker thread parks on the scope condvar
        // (it may help via the injector); completion must wake it.
        let pool = Pool::new(2);
        let hits = AtomicU64::new(0);
        pool.run_scoped(32, &|_| {
            std::thread::sleep(std::time::Duration::from_micros(100));
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 32);
    }

    #[test]
    fn idle_pool_parks_without_polling() {
        // With the 1 ms poll, 4 idle workers accumulated ~4 wakeups per
        // millisecond; event-counted parking must show none at all while
        // no work arrives.
        let pool = Pool::new(4);
        let counter = Arc::new(AtomicU64::new(0));
        for _ in 0..16 {
            let c = Arc::clone(&counter);
            pool.spawn(move || {
                c.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.wait();
        // Let every worker finish draining and park.
        std::thread::sleep(std::time::Duration::from_millis(50));
        let settled = pool.stats().wakeups;
        std::thread::sleep(std::time::Duration::from_millis(200));
        assert_eq!(
            pool.stats().wakeups,
            settled,
            "idle workers woke up with no work submitted (polling?)"
        );
        // And the pool still works afterwards.
        let c = Arc::clone(&counter);
        pool.spawn(move || {
            c.fetch_add(1, Ordering::Relaxed);
        });
        pool.wait();
        assert_eq!(counter.load(Ordering::SeqCst), 17);
    }

    #[test]
    fn wait_with_no_tasks_returns_immediately() {
        let pool = Pool::new(2);
        pool.wait();
    }

    #[test]
    fn nested_spawns_complete() {
        let pool = Arc::new(Pool::new(4));
        let counter = Arc::new(AtomicU64::new(0));
        for _ in 0..100 {
            let c = Arc::clone(&counter);
            pool.spawn(move || {
                c.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.wait();
        // Second wave after the first completed.
        for _ in 0..100 {
            let c = Arc::clone(&counter);
            pool.spawn(move || {
                c.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.wait();
        assert_eq!(counter.load(Ordering::SeqCst), 200);
    }

    #[test]
    fn stats_source_accounting_is_exact_when_quiescent() {
        let pool = Pool::new(4);
        let counter = Arc::new(AtomicU64::new(0));
        for _ in 0..5_000 {
            let c = Arc::clone(&counter);
            pool.spawn(move || {
                c.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.wait();
        let s = pool.stats();
        assert_eq!(s.threads, 4);
        assert_eq!(s.executed, 5_000, "every spawned task executed: {s:?}");
        assert_eq!(
            s.local_pops + s.steals + s.injector_pops,
            s.executed,
            "each executed task has exactly one source: {s:?}"
        );
        // All 5000 came from this non-worker thread.
        assert_eq!(s.injector_pushes, 5_000, "{s:?}");
    }

    #[test]
    fn stats_since_gives_a_windowed_view() {
        let pool = Pool::new(2);
        pool.run_scoped(64, &|_| {});
        let before = pool.stats();
        pool.run_scoped(10, &|_| {});
        let window = pool.stats().since(&before);
        assert_eq!(window.executed, 10, "{window:?}");
        assert_eq!(
            window.local_pops + window.steals + window.injector_pops,
            10,
            "{window:?}"
        );
        // `since` against a *later* snapshot saturates instead of wrapping.
        let zeroed = before.since(&pool.stats());
        assert_eq!(zeroed.executed, 0);
    }

    #[test]
    fn stats_count_scope_helps_and_record_into_metrics() {
        // A one-worker pool opening a nested scope must help; external
        // waiters may help through the injector as well.
        let pool = Pool::new(1);
        let out = map(&pool, 8, |i| {
            map(&pool, 4, |j| i + j).into_iter().sum::<usize>()
        });
        assert_eq!(out.len(), 8);
        let s = pool.stats();
        assert!(s.scope_helps > 0, "nested scopes must have helped: {s:?}");
        let mut m = xxi_core::metrics::Metrics::new();
        s.record(&mut m);
        assert_eq!(m.counter("pool.tasks_executed"), s.executed);
        assert_eq!(m.counter("pool.scope_helps"), s.scope_helps);
        assert_eq!(m.gauge_value("pool.threads"), 1.0);
    }

    #[test]
    fn speedup_on_compute_bound_work() {
        // Not a strict benchmark, but 4 workers should beat one thread by
        // ≥1.5× on an embarrassingly parallel kernel when ≥2 cores exist.
        // The baseline is `Serial`, not `Pool::new(1)`: a scope's calling
        // thread helps run its tasks, so a one-worker scope runs on two.
        if std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
            < 2
        {
            return;
        }
        const GRAIN: usize = 1_000;
        fn work(n: usize, exec: &dyn Parallelism) -> std::time::Duration {
            let t0 = std::time::Instant::now();
            let partials = map(exec, n / GRAIN, |c| {
                (c * GRAIN..(c + 1) * GRAIN)
                    .map(|i| {
                        let mut x = i as f64 + 1.0;
                        for _ in 0..2_000 {
                            x = (x * 1.000001).sqrt() + 0.5;
                        }
                        x
                    })
                    .sum::<f64>()
            });
            std::hint::black_box(partials);
            t0.elapsed()
        }
        let multi = Pool::new(4);
        // Warm up the pool.
        work(4 * GRAIN, &multi);
        let t1 = work(200_000, &Serial);
        let t4 = work(200_000, &multi);
        let speedup = t1.as_secs_f64() / t4.as_secs_f64();
        assert!(speedup > 1.5, "speedup={speedup}");
    }
}
