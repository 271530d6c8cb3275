//! A work-stealing thread pool over [`crate::deque`].
//!
//! The pool runs one kind of work: a scoped index range, `f(i)` for every
//! `i in 0..tasks` ([`Pool::run_scoped`], which `xxi_core::par::map`
//! reaches through the `Parallelism` seam). Each call is one job. It
//! pushes one claimer task per worker (fewer for short ranges), and each
//! claimer takes indices from the job's atomic counter until the range is
//! used up, so one long index cannot strand the rest behind it. Claimers
//! go to the calling worker's own deque when the caller is a worker, and
//! to a global injector otherwise. Idle workers drain their own deque
//! LIFO, then the injector, then steal from victims in a rotating order.
//! This is the "orchestrate fine-grain multitasking" runtime of §2.2; the
//! `stack/pool-sum` bench kernel measures its scaling.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use xxi_core::metrics::Metrics;

use crate::deque::{deque, Stealer, Worker};
use crate::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use crate::sync::{thread, Arc, Condvar, Mutex};

/// A claimer of one `run_scoped` job; see [`Job::claim`].
type Task = Arc<Job>;

/// Slots in each worker's deque. A scope pushes at most `threads`
/// claimers, so overflow to the injector needs deep nesting on a wide pool.
const DEQUE_CAPACITY: usize = 1 << 13;

std::thread_local! {
    /// The worker this OS thread runs, if any: the identity of its pool's
    /// `Shared` (for matching scopes to the right pool), the worker's id
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
/// slot in `Shared::counters`). `Pool::stats()` sums the slots into a
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
/// The pool's tasks are claimers: a `run_scoped` call over `tasks`
/// indices pushes `min(tasks, threads)` of them. Task-source accounting is
/// exact: every executed claimer was obtained by exactly one of a local
/// pop, a steal, or a direct injector pop, so `executed == local_pops +
/// steals + injector_pops` whenever the pool is quiescent (e.g. once
/// `run_scoped` has returned). Claimers batch-moved from the injector
/// into a worker's own deque count as local pops when they later run; the
/// injector's push side is visible via `injector_pushes`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Worker threads in the pool.
    pub threads: usize,
    /// Claimer tasks that finished: at most `threads` per `run_scoped`
    /// call, however many indices the call covers.
    pub executed: u64,
    /// Tasks a thread popped from its own deque (LIFO fast path).
    pub local_pops: u64,
    /// Tasks stolen from another worker's deque.
    pub steals: u64,
    /// Steal probes that found the victim's deque empty or lost the race.
    pub failed_steals: u64,
    /// Tasks pushed to the global injector (scopes opened outside the
    /// pool, and local-deque overflows); claimers a worker pushes should
    /// stay local.
    pub injector_pushes: u64,
    /// Tasks executed straight off the global injector.
    pub injector_pops: u64,
    /// Times a worker committed to parking on the idle condvar.
    pub parks: u64,
    /// Times a worker returned from a park. With event-counted parking an
    /// *idle* pool does not wake at all, so this stays flat while no work
    /// is submitted (the old 1 ms poll accumulated ~1000/s per worker).
    pub wakeups: u64,
    /// Tasks a worker ran while it waited inside a nested `run_scoped`,
    /// rather than from the worker loop. Threads outside the pool never
    /// run pool work, so only nested scopes add to this.
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
    shutdown: AtomicBool,
    /// Tasks that took the global-injector path (scopes opened outside
    /// the pool, or local-deque overflow). Diagnostic: claimers a worker
    /// pushes should stay local, and a regression test asserts they do.
    injected: AtomicUsize,
    /// Per-worker scheduling counters; slot `i` belongs to worker `i`.
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

/// One `run_scoped` call: the lifetime-erased body and its index range,
/// the claim counter, the claimers still running, the first panic, and
/// the flag and condvar the caller parks on. Claimers hold it via `Arc`,
/// so it outlives the scope while a claimer that found no index left is
/// still returning.
struct Job {
    f: &'static (dyn Fn(usize) + Sync),
    tasks: usize,
    /// The next unclaimed index; it passes `tasks` once all are claimed.
    next: AtomicUsize,
    /// Claimers pushed that have not yet left their claim loop.
    live: AtomicUsize,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    done: Mutex<bool>,
    done_cv: Condvar,
}

impl Job {
    /// The claimer task: run `f` on claimed indices until none are left,
    /// keep the first panic, count itself in `c.executed`, and wake the
    /// caller if it is the last claimer out.
    fn claim(&self, c: &WorkerCounters) {
        loop {
            // ORDERING: Relaxed — the counter only hands each index to
            // one claimer; `f`'s effects are published by `live` below.
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.tasks {
                break;
            }
            // Catch so a panicking index still lets the claimer exit (the
            // scope would otherwise wait forever) and the payload reaches
            // the scoped caller instead of killing a worker.
            if let Err(p) = catch_unwind(AssertUnwindSafe(|| (self.f)(i))) {
                let mut slot = self.panic.lock().unwrap();
                if slot.is_none() {
                    *slot = Some(p);
                }
            }
        }
        // Counted before the exit signal, so stats read after the scope
        // returns are exact.
        WorkerCounters::bump(&c.executed);
        // ORDERING: SeqCst orders the decrement after every index this
        // claimer ran and its panic-slot write, and against the waiter's
        // load — reaching 0 must imply every claimer's effects are visible.
        if self.live.fetch_sub(1, Ordering::SeqCst) == 1 {
            *self.done.lock().unwrap() = true;
            self.done_cv.notify_all();
        }
    }
}

/// The work-stealing pool.
pub struct Pool {
    shared: Arc<Shared>,
    handles: Vec<thread::JoinHandle<()>>,
}

impl Pool {
    /// Spawn a pool with `threads ≥ 1` workers. Scoped work runs on
    /// exactly these threads: a caller outside the pool only waits.
    pub fn new(threads: usize) -> Pool {
        Pool::with_deque_capacity(threads, DEQUE_CAPACITY)
    }

    /// [`Pool::new`] with `capacity` slots per worker deque (a power of
    /// two ≥ 2); small capacities let tests reach the overflow path.
    fn with_deque_capacity(threads: usize, capacity: usize) -> Pool {
        assert!(threads >= 1);
        let mut workers: Vec<Worker<Task>> = Vec::with_capacity(threads);
        let mut stealers = Vec::with_capacity(threads);
        for _ in 0..threads {
            let (w, s) = deque::<Task>(capacity);
            workers.push(w);
            stealers.push(s);
        }
        let shared = Arc::new(Shared {
            injector: Mutex::new(VecDeque::new()),
            stealers,
            shutdown: AtomicBool::new(false),
            injected: AtomicUsize::new(0),
            counters: (0..threads).map(|_| WorkerCounters::new()).collect(),
            epoch: AtomicU64::new(0),
            sleepers: AtomicUsize::new(0),
            idle: Mutex::new(()),
            idle_cv: Condvar::new(),
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

    /// Make a claimer runnable: local-first (the submitting worker's own
    /// deque, no lock), with the global injector as the cross-thread /
    /// overflow route.
    fn inject(&self, task: Task) {
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
    /// counter; taken while the pool is quiescent (after a scoped call) it
    /// is exact.
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

    /// Run `f(i)` for every `i in 0..tasks` on the pool's workers and
    /// block until all invocations complete. Scoped: `f` may borrow from
    /// the caller's stack — no `'static` bound. A panic in any invocation
    /// is re-raised here (first one wins) after every claimer has exited.
    ///
    /// Safe to call from inside a pool task: a waiting worker keeps
    /// running tasks from its own deque, then the injector, so nested
    /// scopes make progress even on a one-worker pool. A caller outside
    /// the pool parks until the job is done and runs no pool work.
    pub fn run_scoped(&self, tasks: usize, f: &(dyn Fn(usize) + Sync)) {
        if tasks == 0 {
            return;
        }
        // SAFETY: the reference is only lifetime-erased, never retyped.
        // We do not return until `done` is set, which the last claimer
        // does once `live` reaches zero, i.e. once every claimer has left
        // its claim loop; a claimer calls `f` only inside that loop — so
        // the erased `'static` is never used past the caller's borrow.
        let f: &'static (dyn Fn(usize) + Sync) = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(f)
        };
        let claimers = tasks.min(self.threads());
        let job = Arc::new(Job {
            f,
            tasks,
            next: AtomicUsize::new(0),
            live: AtomicUsize::new(claimers),
            panic: Mutex::new(None),
            done: Mutex::new(false),
            done_cv: Condvar::new(),
        });
        for _ in 0..claimers {
            self.inject(Arc::clone(&job));
        }
        if let Some((id, w)) = local_worker(&self.shared) {
            // Help while waiting. Once the own deque and the injector are
            // empty, every claimer of this job is held by another worker
            // that will run it, so parking below cannot strand one.
            // ORDERING: SeqCst pairs with the claimers' decrement;
            // observing 0 means there is nothing left to help with.
            while job.live.load(Ordering::SeqCst) != 0 && self.help_one(id, w) {}
        }
        let mut done = job.done.lock().unwrap();
        while !*done {
            done = job.done_cv.wait(done).unwrap();
        }
        drop(done);
        let payload = job.panic.lock().unwrap().take();
        if let Some(p) = payload {
            resume_unwind(p);
        }
    }

    /// Run one queued task on worker `id`, which waits inside a scope: its
    /// own deque first, then the injector. Returns whether a task was run.
    fn help_one(&self, id: usize, w: &Worker<Task>) -> bool {
        let c = &self.shared.counters[id];
        let (task, source) = match w.pop() {
            Some(t) => (t, &c.local_pops),
            None => match self.shared.injector.lock().unwrap().pop_front() {
                Some(t) => (t, &c.injector_pops),
                None => return false,
            },
        };
        WorkerCounters::bump(source);
        WorkerCounters::bump(&c.scope_helps);
        task.claim(c);
        true
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
            task.claim(c);
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
                t.claim(c);
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
            t.claim(c);
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use xxi_core::par::{map, Parallelism, Serial};

    /// Spin (yielding) until `flag` holds `want`.
    fn spin_until(flag: &AtomicU64, want: u64) {
        while flag.load(Ordering::SeqCst) != want {
            std::thread::yield_now();
        }
    }

    #[test]
    fn runs_all_tasks() {
        let pool = Pool::new(4);
        let counter = AtomicU64::new(0);
        pool.run_scoped(10_000, &|_| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
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
        assert_eq!(pool.stats().executed, 0, "an empty range pushes no claimer");
    }

    #[test]
    fn work_actually_spreads_across_threads() {
        let pool = Pool::new(4);
        let ids = Mutex::new(std::collections::HashSet::new());
        pool.run_scoped(200, &|_| {
            std::thread::sleep(std::time::Duration::from_micros(200));
            ids.lock().unwrap().insert(std::thread::current().id());
        });
        let ids = ids.into_inner().unwrap();
        assert!(ids.len() >= 2, "no parallelism observed");
        assert!(
            !ids.contains(&std::thread::current().id()),
            "a caller outside the pool must not run pool work"
        );
    }

    #[test]
    fn worker_spawns_stay_off_the_injector() {
        // The module docs promise claimers go to the submitting worker's
        // deque when possible. Regression: every task used to pay the
        // global injector mutex. Open a scope from inside a worker; only
        // the scope opened on this (non-worker) thread may touch the
        // injector.
        let pool = Pool::new(2);
        let counter = AtomicU64::new(0);
        pool.run_scoped(1, &|_| {
            pool.run_scoped(1_000, &|_| {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(counter.load(Ordering::SeqCst), 1_000);
        let injected = pool.stats().injector_pushes;
        assert_eq!(
            injected, 1,
            "claimers pushed by a worker hit the injector: {injected}"
        );
    }

    #[test]
    fn cross_thread_spawns_still_run_via_injector() {
        // A scope opened outside the pool pushes one claimer per worker
        // through the injector, and every index still runs.
        let pool = Pool::new(2);
        let counter = AtomicU64::new(0);
        pool.run_scoped(100, &|_| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::SeqCst), 100);
        assert_eq!(pool.stats().injector_pushes, 2);
    }

    #[test]
    fn local_overflow_falls_back_to_injector() {
        // A worker that pushes more claimers than its deque holds must
        // overflow the excess to the injector, not drop or deadlock. Three
        // workers with two-slot deques: all three meet inside the outer
        // scope, so none is free to steal while worker 0's nested scope
        // pushes its three claimers.
        let pool = Pool::with_deque_capacity(3, 2);
        let arrived = AtomicU64::new(0);
        let nested_done = AtomicU64::new(0);
        let counter = AtomicU64::new(0);
        pool.run_scoped(3, &|i| {
            arrived.fetch_add(1, Ordering::SeqCst);
            spin_until(&arrived, 3);
            if i == 0 {
                pool.run_scoped(100, &|_| {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
                nested_done.store(1, Ordering::SeqCst);
            } else {
                spin_until(&nested_done, 1);
            }
        });
        assert_eq!(counter.load(Ordering::SeqCst), 100);
        let s = pool.stats();
        // Three outer claimers from this thread, one nested overflow.
        assert_eq!(s.injector_pushes, 4, "{s:?}");
        assert_eq!(s.executed, 6, "{s:?}");
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
        // A worker that opens a scope must help run its own claimers; with
        // a single worker there is no one else to do it.
        let pool = Pool::new(1);
        let out = map(&pool, 4, |i| {
            let inner = map(&pool, 4, |j| i * 10 + j);
            inner.into_iter().sum::<usize>()
        });
        assert_eq!(out, vec![6, 46, 86, 126]);
    }

    #[test]
    fn scoped_wait_from_external_thread_completes() {
        // run_scoped from a non-worker thread parks on the job's condvar;
        // the last claimer out must wake it.
        let pool = Pool::new(2);
        let hits = AtomicU64::new(0);
        pool.run_scoped(32, &|_| {
            std::thread::sleep(std::time::Duration::from_micros(100));
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 32);
    }

    #[test]
    fn one_worker_pool_runs_on_one_thread() {
        // `Pool::new(n)` runs scoped work on exactly `n` threads: the
        // caller outside the pool waits and runs nothing.
        let pool = Pool::new(1);
        let ids = map(&pool, 64, |_| std::thread::current().id());
        assert!(ids.iter().all(|id| *id == ids[0]), "{ids:?}");
        assert_ne!(ids[0], std::thread::current().id());
        let s = pool.stats();
        assert_eq!((s.executed, s.scope_helps), (1, 0), "{s:?}");
    }

    #[test]
    fn idle_pool_parks_without_polling() {
        // With the 1 ms poll, 4 idle workers accumulated ~4 wakeups per
        // millisecond; event-counted parking must show none at all while
        // no work arrives.
        let pool = Pool::new(4);
        let counter = AtomicU64::new(0);
        let bump = |_| {
            counter.fetch_add(1, Ordering::Relaxed);
        };
        pool.run_scoped(16, &bump);
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
        pool.run_scoped(1, &bump);
        assert_eq!(counter.load(Ordering::SeqCst), 17);
    }

    #[test]
    fn nested_spawns_complete() {
        // Two waves of scopes that each open a nested scope per index.
        let pool = Pool::new(4);
        let counter = AtomicU64::new(0);
        for wave in 1..=2u64 {
            pool.run_scoped(10, &|_| {
                pool.run_scoped(10, &|_| {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            });
            assert_eq!(counter.load(Ordering::SeqCst), wave * 100);
        }
    }

    #[test]
    fn stats_source_accounting_is_exact_when_quiescent() {
        let pool = Pool::new(4);
        pool.run_scoped(5_000, &|_| {});
        let s = pool.stats();
        assert_eq!(s.threads, 4);
        assert_eq!(s.executed, 4, "one claimer per worker: {s:?}");
        assert_eq!(
            s.local_pops + s.steals + s.injector_pops,
            s.executed,
            "each executed task has exactly one source: {s:?}"
        );
        // All four claimers came from this non-worker thread.
        assert_eq!(s.injector_pushes, 4, "{s:?}");
    }

    #[test]
    fn stats_since_gives_a_windowed_view() {
        let pool = Pool::new(2);
        pool.run_scoped(64, &|_| {});
        let before = pool.stats();
        pool.run_scoped(10, &|_| {});
        let window = pool.stats().since(&before);
        assert_eq!(window.executed, 2, "{window:?}");
        assert_eq!(
            window.local_pops + window.steals + window.injector_pops,
            2,
            "{window:?}"
        );
        // `since` against a *later* snapshot saturates instead of wrapping.
        let zeroed = before.since(&pool.stats());
        assert_eq!(zeroed.executed, 0);
    }

    #[test]
    fn stats_count_scope_helps_and_record_into_metrics() {
        // A one-worker pool opening a nested scope must help.
        let pool = Pool::new(1);
        let out = map(&pool, 8, |i| {
            map(&pool, 4, |j| i + j).into_iter().sum::<usize>()
        });
        assert_eq!(out.len(), 8);
        let s = pool.stats();
        assert_eq!(s.scope_helps, 8, "each nested scope helps once: {s:?}");
        assert_eq!(s.executed, 9, "{s:?}");
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
