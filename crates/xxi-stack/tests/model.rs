//! Model-checked concurrency suites for the lock-free runtime.
//!
//! Built only with `--features check`: the STM and the pool compile onto
//! `xxi-check`'s shadow primitives and run under its deterministic
//! scheduler. The STM bodies are small enough for *exhaustive*
//! exploration at preemption bound 2; the full pool is explored with
//! seeded random walks. With `--features check,seeded_race` the STM's
//! lock acquisition is deliberately weakened to a check-then-act, and the
//! regression test at the bottom asserts the checker catches it within
//! the schedule budget and can replay the failing interleaving.
#![cfg(feature = "check")]

use std::sync::Arc;

use xxi_check::Checker;
#[cfg(feature = "seeded_race")]
use xxi_check::FailureKind;
use xxi_stack::stm::TxArray;

#[cfg(not(feature = "seeded_race"))]
fn exhaustive(name: &str) -> Checker {
    Checker::new()
        .name(name)
        .preemption_bound(2)
        .max_schedules(60_000)
}

/// Serializability of the TL2 commit protocol: two concurrent increment
/// transactions must both land, in every interleaving.
#[cfg(not(feature = "seeded_race"))]
#[test]
fn stm_concurrent_increments_serialize() {
    let report = exhaustive("stm-increment").run(|| {
        let arr = Arc::new(TxArray::new(1));
        let a2 = Arc::clone(&arr);
        let t = xxi_check::thread::spawn(move || {
            a2.run(|tx| {
                let v = tx.read(0)?;
                tx.write(0, v + 1);
                Ok(())
            });
        });
        arr.run(|tx| {
            let v = tx.read(0)?;
            tx.write(0, v + 1);
            Ok(())
        });
        t.join().unwrap();
        assert_eq!(arr.read_direct(0), 2, "an increment was lost");
    });
    assert!(report.failure.is_none(), "{report}");
    assert!(report.complete, "{report}");
}

/// Conservation under opposing transfers: money moves but is never minted
/// or destroyed, in every interleaving.
#[cfg(not(feature = "seeded_race"))]
#[test]
fn stm_opposing_transfers_conserve() {
    let report = exhaustive("stm-transfer").run(|| {
        let arr = Arc::new(TxArray::new(2));
        arr.write_direct(0, 10);
        arr.write_direct(1, 10);
        let a2 = Arc::clone(&arr);
        let t = xxi_check::thread::spawn(move || {
            xxi_stack::stm::transfer(&a2, 0, 1, 3);
        });
        xxi_stack::stm::transfer(&arr, 1, 0, 5);
        t.join().unwrap();
        assert_eq!(
            arr.read_direct(0) + arr.read_direct(1),
            20,
            "money not conserved"
        );
    });
    assert!(report.failure.is_none(), "{report}");
    assert!(report.complete, "{report}");
}

/// Write skew is excluded by commit-time validation: of two transactions
/// that each read both cells and zero one, only one may act on the stale
/// sum.
#[cfg(not(feature = "seeded_race"))]
#[test]
fn stm_write_skew_excluded() {
    let report = exhaustive("stm-write-skew").run(|| {
        let arr = Arc::new(TxArray::new(2));
        arr.write_direct(0, 1);
        arr.write_direct(1, 1);
        let a2 = Arc::clone(&arr);
        let t = xxi_check::thread::spawn(move || {
            a2.run(|tx| {
                if tx.read(0)? + tx.read(1)? == 2 {
                    tx.write(0, 0);
                }
                Ok(())
            });
        });
        arr.run(|tx| {
            if tx.read(0)? + tx.read(1)? == 2 {
                tx.write(1, 0);
            }
            Ok(())
        });
        t.join().unwrap();
        assert_eq!(
            arr.read_direct(0) + arr.read_direct(1),
            1,
            "write skew: both transactions zeroed from the same snapshot"
        );
    });
    assert!(report.failure.is_none(), "{report}");
    assert!(report.complete, "{report}");
}

/// The full pool (workers, the shared queue, condvar parking) is too
/// large for exhaustive exploration; a seeded random walk over full
/// schedules still exercises cross-thread handoffs deterministically.
#[cfg(not(feature = "seeded_race"))]
#[test]
fn pool_runs_all_tasks_under_random_schedules() {
    use xxi_check::sync::atomic::{AtomicU64, Ordering};
    let report = Checker::new()
        .name("pool-random")
        .random_walk()
        .max_schedules(60)
        .max_steps(200_000)
        .run(|| {
            let pool = xxi_stack::pool::Pool::new(2);
            let counter = AtomicU64::new(0);
            pool.run_scoped(3, &|_| {
                counter.fetch_add(1, Ordering::SeqCst);
            });
            assert_eq!(counter.load(Ordering::SeqCst), 3, "an index was dropped");
            drop(pool);
        });
    assert!(report.failure.is_none(), "{report}");
}

/// Park/notify litmus for the queue's condvar: a single worker racing a
/// single scope opened outside the pool is the minimal lost-wakeup shape —
/// the push and its notify may land anywhere around the worker's emptiness
/// check and its untimed wait, and the caller only parks, so the worker
/// alone must wake to run it. DFS at preemption bound 2 explores the
/// dangerous interleavings; a lost wakeup hangs the scope and is reported
/// as a deadlock. (The body is too large to finish exhaustively; we bound
/// schedules and assert no failure was found.)
#[cfg(not(feature = "seeded_race"))]
#[test]
fn pool_park_notify_loses_no_wakeup() {
    use xxi_check::sync::atomic::{AtomicU64, Ordering};
    let report = Checker::new()
        .name("pool-park-notify")
        .preemption_bound(2)
        .max_schedules(400)
        .max_steps(200_000)
        .run(|| {
            let pool = xxi_stack::pool::Pool::new(1);
            let counter = AtomicU64::new(0);
            pool.run_scoped(1, &|_| {
                counter.fetch_add(1, Ordering::SeqCst);
            });
            assert_eq!(counter.load(Ordering::SeqCst), 1, "index lost");
            drop(pool);
        });
    assert!(report.failure.is_none(), "{report}");
}

/// PoolStats snapshot consistency under the model scheduler: once the
/// scope returns, every claimer of a scope opened outside the pool was
/// taken from the queue exactly once by a worker's loop, none by a helping
/// scope, and no worker can record a wakeup it never parked for — in
/// randomly explored interleavings, not just the ones the wall clock
/// happens to produce.
#[cfg(not(feature = "seeded_race"))]
#[test]
fn pool_stats_accounting_holds_under_random_schedules() {
    use xxi_check::sync::atomic::{AtomicU64, Ordering};
    let report = Checker::new()
        .name("pool-stats")
        .random_walk()
        .max_schedules(40)
        .max_steps(200_000)
        .run(|| {
            let pool = xxi_stack::pool::Pool::new(2);
            let counter = AtomicU64::new(0);
            pool.run_scoped(4, &|_| {
                counter.fetch_add(1, Ordering::SeqCst);
            });
            assert_eq!(counter.load(Ordering::SeqCst), 4);
            let s = pool.stats();
            assert_eq!(s.executed, 2, "one claimer per worker: {s:?}");
            assert_eq!(s.scope_helps, 0, "the caller is outside the pool: {s:?}");
            assert!(s.wakeups <= s.parks, "wakeup without a park: {s:?}");
            drop(pool);
        });
    assert!(report.failure.is_none(), "{report}");
}

/// Nested scopes on a 2-worker pool: both outer claimers can open their
/// inner scope at once, so every worker waits inside a nested scope and
/// no idle worker is left. Only helping from the shared queue lets the
/// inner claimers run; a schedule that strands one hangs and is reported
/// as a deadlock.
#[cfg(not(feature = "seeded_race"))]
#[test]
fn pool_nested_scopes_help_instead_of_deadlocking() {
    use xxi_check::sync::atomic::{AtomicU64, Ordering};
    let report = Checker::new()
        .name("pool-nested")
        .random_walk()
        .max_schedules(40)
        .max_steps(200_000)
        .run(|| {
            let pool = xxi_stack::pool::Pool::new(2);
            let counter = AtomicU64::new(0);
            pool.run_scoped(2, &|_| {
                pool.run_scoped(2, &|_| {
                    counter.fetch_add(1, Ordering::SeqCst);
                });
            });
            assert_eq!(counter.load(Ordering::SeqCst), 4, "an index was dropped");
            let s = pool.stats();
            assert_eq!(s.executed, 6, "two outer and four inner claimers: {s:?}");
            assert!(s.wakeups <= s.parks, "wakeup without a park: {s:?}");
            drop(pool);
        });
    assert!(report.failure.is_none(), "{report}");
}

/// Regression: the planted check-then-act lock acquisition (`seeded_race`)
/// must be caught within the 10k-schedule budget, with a deterministic,
/// replayable interleaving trace.
#[cfg(feature = "seeded_race")]
#[test]
fn seeded_race_is_caught_within_budget_and_replays() {
    fn body() {
        let arr = Arc::new(TxArray::new(1));
        let a2 = Arc::clone(&arr);
        let t = xxi_check::thread::spawn(move || {
            a2.run(|tx| {
                let v = tx.read(0)?;
                tx.write(0, v + 1);
                Ok(())
            });
        });
        arr.run(|tx| {
            let v = tx.read(0)?;
            tx.write(0, v + 1);
            Ok(())
        });
        t.join().unwrap();
        assert_eq!(arr.read_direct(0), 2, "an increment was lost");
    }
    let checker = Checker::new()
        .name("seeded-race")
        .preemption_bound(2)
        .max_schedules(10_000);
    let report = checker.run(body);
    let failure = report
        .failure
        .clone()
        .expect("the seeded race must be found");
    assert!(
        report.schedules < 10_000,
        "must be caught within the budget, took {}",
        report.schedules
    );
    assert!(
        matches!(failure.kind, FailureKind::LostUpdate | FailureKind::Panic),
        "unexpected failure kind: {failure}"
    );
    assert!(!failure.trace.is_empty(), "trace must be printed");
    // The recorded schedule replays to the same failure, deterministically.
    let replay = checker.replay(body, &failure.schedule);
    let again = replay.failure.expect("replay must reproduce the failure");
    assert_eq!(again.kind, failure.kind);
    assert_eq!(again.schedule, failure.schedule);
}
