//! A thread pool with one shared queue.
//!
//! The pool runs one kind of work: a scoped index range, `f(i)` for every
//! `i in 0..tasks` ([`Pool::run_scoped`], which `xxi_core::par::map`
//! reaches through the `Parallelism` seam). Each call is one job. It
//! pushes one claimer task per worker (fewer for short ranges), and each
//! claimer takes indices from the job's atomic counter until the range is
//! used up, so one long index cannot strand the rest behind it. The
//! counter balances the load, so the claimers are interchangeable and one
//! FIFO queue under a mutex holds them all: idle workers pop from it or
//! wait on its condvar. This is the "orchestrate fine-grain multitasking"
//! runtime of §2.2; the `stack/pool-sum` bench kernel measures its
//! scaling.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use xxi_core::metrics::Metrics;

use crate::sync::atomic::{AtomicUsize, Ordering};
use crate::sync::{thread, Arc, Condvar, Mutex};

/// A claimer of one `run_scoped` job; see [`Job::claim`].
type Task = Arc<Job>;

std::thread_local! {
    /// The identity (the `Shared` address) of the pool whose worker this
    /// OS thread is, or 0. Registered for the lifetime of `worker_loop`;
    /// see `WorkerReg`.
    static CURRENT_POOL: Cell<usize> = const { Cell::new(0) };
}

/// Registers the running worker thread in `CURRENT_POOL` for the scope of
/// `worker_loop`, and unregisters on drop (including unwinds).
struct WorkerReg;

impl WorkerReg {
    fn new(shared: &Arc<Shared>) -> WorkerReg {
        CURRENT_POOL.with(|c| c.set(Arc::as_ptr(shared) as usize));
        WorkerReg
    }
}

impl Drop for WorkerReg {
    fn drop(&mut self) {
        CURRENT_POOL.with(|c| c.set(0));
    }
}

/// A snapshot of the pool's scheduling behaviour, taken by
/// [`Pool::stats`]. All counters are cumulative since `Pool::new`.
///
/// The pool's tasks are claimers: a `run_scoped` call over `tasks`
/// indices pushes `min(tasks, threads)` of them, and every one is popped
/// once from the shared queue, by an idle worker or by a worker helping
/// inside a nested scope. So once `run_scoped` has returned and the pool
/// is quiescent, `executed` is the sum of `min(tasks, threads)` over the
/// calls, `scope_helps <= executed`, and `wakeups <= parks`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Worker threads in the pool.
    pub threads: usize,
    /// Claimer tasks taken from the queue: at most `threads` per
    /// `run_scoped` call, however many indices the call covers.
    pub executed: u64,
    /// Always 0: the pool has one queue and nothing to steal from. Kept
    /// because the perfbench harness still reads it.
    pub steals: u64,
    /// Always 0, for the same reason as `steals`.
    pub failed_steals: u64,
    /// Times a worker found the queue empty and waited on its condvar.
    pub parks: u64,
    /// Times a worker returned from such a wait. An *idle* pool does not
    /// wake at all, so this stays flat while no work is submitted.
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
            parks: self.parks.saturating_sub(earlier.parks),
            wakeups: self.wakeups.saturating_sub(earlier.wakeups),
            scope_helps: self.scope_helps.saturating_sub(earlier.scope_helps),
            ..PoolStats::default()
        }
    }

    /// Snapshot the counters into a [`Metrics`] registry under the
    /// `pool.` prefix (counters add on merge, so windowed snapshots can
    /// be rolled up).
    pub fn record(&self, m: &mut Metrics) {
        m.gauge("pool.threads", self.threads as f64);
        m.count("pool.tasks_executed", self.executed);
        m.count("pool.parks", self.parks);
        m.count("pool.wakeups", self.wakeups);
        m.count("pool.scope_helps", self.scope_helps);
    }
}

/// What the pool's mutex guards: the queued claimers, the shutdown flag,
/// and the counters, which change only where the lock is already held.
struct Queue {
    claimers: VecDeque<Task>,
    shutdown: bool,
    stats: PoolStats,
}

struct Shared {
    queue: Mutex<Queue>,
    /// Signalled when claimers are pushed and on shutdown.
    work_cv: Condvar,
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
    /// keep the first panic, and wake the caller if it is the last
    /// claimer out.
    fn claim(&self) {
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
        // ORDERING: SeqCst orders the decrement after every index this
        // claimer ran and its panic-slot write, and against the waiter's
        // load — reaching 0 must imply every claimer's effects are visible.
        if self.live.fetch_sub(1, Ordering::SeqCst) == 1 {
            *self.done.lock().unwrap() = true;
            self.done_cv.notify_all();
        }
    }
}

/// The thread pool.
pub struct Pool {
    shared: Arc<Shared>,
    handles: Vec<thread::JoinHandle<()>>,
}

impl Pool {
    /// Spawn a pool with `threads ≥ 1` workers. Scoped work runs on
    /// exactly these threads: a caller outside the pool only waits.
    pub fn new(threads: usize) -> Pool {
        assert!(threads >= 1);
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue {
                claimers: VecDeque::new(),
                shutdown: false,
                stats: PoolStats {
                    threads,
                    ..PoolStats::default()
                },
            }),
            work_cv: Condvar::new(),
        });
        let handles = (0..threads)
            .map(|id| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("xxi-worker-{id}"))
                    .spawn(move || worker_loop(shared))
                    .expect("spawn worker") // xxi-allow: panic-path -- see the expect message
            })
            .collect();
        Pool { shared, handles }
    }

    /// Number of workers.
    pub fn threads(&self) -> usize {
        self.handles.len()
    }

    /// Snapshot the pool's scheduling counters (see [`PoolStats`]). Taken
    /// while the pool is quiescent (after a scoped call) it is exact.
    pub fn stats(&self) -> PoolStats {
        self.shared.queue.lock().unwrap().stats
    }

    /// Run `f(i)` for every `i in 0..tasks` on the pool's workers and
    /// block until all invocations complete. Scoped: `f` may borrow from
    /// the caller's stack — no `'static` bound. A panic in any invocation
    /// is re-raised here (first one wins) after every claimer has exited.
    ///
    /// Safe to call from inside a pool task: a waiting worker keeps
    /// running claimers from the queue, so nested scopes make progress
    /// even on a one-worker pool. A caller outside the pool parks until
    /// the job is done and runs no pool work.
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
        {
            let mut q = self.shared.queue.lock().unwrap();
            q.claimers.extend((0..claimers).map(|_| Arc::clone(&job)));
        }
        for _ in 0..claimers {
            self.shared.work_cv.notify_one();
        }
        if CURRENT_POOL.with(|c| c.get()) == Arc::as_ptr(&self.shared) as usize {
            // Help while waiting. Once the queue is empty, every claimer
            // of this job is held by a thread that is running it, so
            // parking below cannot strand one.
            // ORDERING: SeqCst pairs with the claimers' decrement;
            // observing 0 means there is nothing left to help with.
            while job.live.load(Ordering::SeqCst) != 0 {
                let task = {
                    let mut q = self.shared.queue.lock().unwrap();
                    let Some(task) = q.claimers.pop_front() else {
                        break;
                    };
                    q.stats.executed += 1;
                    q.stats.scope_helps += 1;
                    task
                };
                task.claim();
            }
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
        self.shared.queue.lock().unwrap().shutdown = true;
        self.shared.work_cv.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Pop claimers and run them until the pool shuts down, waiting on
/// `work_cv` whenever the queue is empty. Claimers still queued at
/// shutdown are run first.
fn worker_loop(shared: Arc<Shared>) {
    let _reg = WorkerReg::new(&shared);
    loop {
        let task = {
            let mut q = shared.queue.lock().unwrap();
            if q.claimers.is_empty() && !q.shutdown {
                q.stats.parks += 1;
                while q.claimers.is_empty() && !q.shutdown {
                    q = shared.work_cv.wait(q).unwrap();
                }
                q.stats.wakeups += 1;
            }
            match q.claimers.pop_front() {
                Some(task) => {
                    q.stats.executed += 1;
                    task
                }
                None => return,
            }
        };
        task.claim();
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
    fn scope_from_outside_the_pool_runs_on_the_workers() {
        // A scope opened outside the pool pushes one claimer per worker,
        // the workers run them, and every index still runs.
        let pool = Pool::new(2);
        let counter = AtomicU64::new(0);
        pool.run_scoped(100, &|_| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::SeqCst), 100);
        let s = pool.stats();
        assert_eq!((s.executed, s.scope_helps), (2, 0), "{s:?}");
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
        // Idle workers wait on the queue's condvar and must show no
        // wakeup at all while no work arrives.
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
        // Every claimer a scope pushes is popped once: by a worker's loop,
        // or by a worker helping inside a nested scope.
        let pool = Pool::new(4);
        pool.run_scoped(5_000, &|_| {});
        let s = pool.stats();
        assert_eq!(s.threads, 4);
        assert_eq!(s.executed, 4, "one claimer per worker: {s:?}");
        assert_eq!(s.scope_helps, 0, "the caller is outside the pool: {s:?}");
        // One outer claimer whose nested scope pushes four more.
        pool.run_scoped(1, &|_| pool.run_scoped(4, &|_| {}));
        let s = pool.stats();
        assert_eq!(s.executed, 9, "{s:?}");
        assert!(s.scope_helps <= 4, "{s:?}");
        assert!(s.wakeups <= s.parks, "{s:?}");
    }

    #[test]
    fn stats_since_gives_a_windowed_view() {
        let pool = Pool::new(2);
        pool.run_scoped(64, &|_| {});
        let before = pool.stats();
        pool.run_scoped(10, &|_| {});
        let window = pool.stats().since(&before);
        assert_eq!(window.executed, 2, "{window:?}");
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
