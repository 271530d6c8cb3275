//! Litmus tests for the deterministic concurrency checker: the classic
//! weak-memory shapes must be *found* at weak orderings and *refuted* at
//! strong ones, check-then-act races must be caught with a replayable
//! schedule, and deadlocks must be reported rather than hung on.

use std::sync::Arc;

use xxi_check::sync::atomic::{AtomicU64, Ordering};
use xxi_check::sync::{Condvar, Mutex};
use xxi_check::{observed_values, thread, Checker, FailureKind};

/// Message passing with `Relaxed` everywhere: the reader may see the flag
/// and still read the stale data value — the checker must find 0.
#[test]
fn mp_relaxed_exhibits_stale_read() {
    let (vals, report) = observed_values(Checker::new().name("mp-relaxed"), |observe| {
        let data = Arc::new(AtomicU64::new(0));
        let flag = Arc::new(AtomicU64::new(0));
        let (d2, f2) = (Arc::clone(&data), Arc::clone(&flag));
        let t = thread::spawn(move || {
            d2.store(42, Ordering::Relaxed);
            f2.store(1, Ordering::Relaxed);
        });
        if flag.load(Ordering::Relaxed) == 1 {
            observe(data.load(Ordering::Relaxed));
        }
        t.join().unwrap();
    });
    assert!(report.failure.is_none(), "{report}");
    assert!(
        report.complete,
        "bounded space should be exhausted: {report}"
    );
    assert!(
        vals.contains(&0),
        "relaxed message passing must admit the stale read, saw {vals:?}"
    );
    assert!(vals.contains(&42), "the intended value must also be seen");
}

/// The same shape with a Release publish and Acquire consume: once the
/// flag is seen, the data store happens-before the read — 0 is impossible.
#[test]
fn mp_release_acquire_is_clean() {
    let (vals, report) = observed_values(Checker::new().name("mp-relacq"), |observe| {
        let data = Arc::new(AtomicU64::new(0));
        let flag = Arc::new(AtomicU64::new(0));
        let (d2, f2) = (Arc::clone(&data), Arc::clone(&flag));
        let t = thread::spawn(move || {
            d2.store(42, Ordering::Relaxed);
            f2.store(1, Ordering::Release);
        });
        if flag.load(Ordering::Acquire) == 1 {
            observe(data.load(Ordering::Relaxed));
        }
        t.join().unwrap();
    });
    assert!(report.failure.is_none(), "{report}");
    assert!(report.complete, "{report}");
    assert_eq!(
        vals.iter().copied().collect::<Vec<_>>(),
        vec![42],
        "release/acquire forbids the stale read"
    );
}

/// Store buffering: with `Relaxed` loads both threads may read the initial
/// values (r1 = r2 = 0); with `SeqCst` that outcome is forbidden.
#[test]
fn sb_relaxed_admits_both_zero_seqcst_forbids_it() {
    fn run(load_ord: Ordering) -> std::collections::BTreeSet<u64> {
        let (vals, report) = observed_values(Checker::new().name("sb"), move |observe| {
            let x = Arc::new(AtomicU64::new(0));
            let y = Arc::new(AtomicU64::new(0));
            let (x2, y2) = (Arc::clone(&x), Arc::clone(&y));
            let t = thread::spawn(move || {
                x2.store(1, Ordering::Relaxed);
                y2.load(load_ord)
            });
            y.store(1, Ordering::Relaxed);
            let r2 = x.load(load_ord);
            let r1 = t.join().unwrap();
            observe(r1 * 2 + r2); // encode the pair as one value
        });
        assert!(report.failure.is_none(), "{report}");
        assert!(report.complete, "{report}");
        vals
    }
    let relaxed = run(Ordering::Relaxed);
    assert!(
        relaxed.contains(&0),
        "store buffering must admit r1=r2=0 at Relaxed, saw {relaxed:?}"
    );
    let seqcst = run(Ordering::SeqCst);
    assert!(
        !seqcst.contains(&0),
        "SeqCst forbids r1=r2=0, but saw {seqcst:?}"
    );
}

/// The planted bug shape: load + independent store (check-then-act). The
/// lost-update detector must catch it quickly and the recorded schedule
/// must replay to the same failure.
#[test]
fn check_then_act_lost_update_is_caught_and_replayable() {
    fn body() {
        let c = Arc::new(AtomicU64::new(0));
        let c2 = Arc::clone(&c);
        let t = thread::spawn(move || {
            let v = c2.load(Ordering::SeqCst);
            c2.store(v + 1, Ordering::SeqCst);
        });
        let v = c.load(Ordering::SeqCst);
        c.store(v + 1, Ordering::SeqCst);
        t.join().unwrap();
        assert_eq!(c.load(Ordering::SeqCst), 2, "an increment was lost");
    }
    let checker = Checker::new().name("check-then-act");
    let report = checker.run(body);
    let failure = report.failure.expect("the race must be found");
    assert_eq!(failure.kind, FailureKind::LostUpdate, "{failure}");
    assert!(
        report.schedules < 10_000,
        "must be found within the schedule budget, took {}",
        report.schedules
    );
    assert!(!failure.trace.is_empty());
    // Deterministic replay from the recorded decision vector.
    let replay = checker.replay(body, &failure.schedule);
    let refailure = replay.failure.expect("replay must reproduce the failure");
    assert_eq!(refailure.kind, FailureKind::LostUpdate);
    assert_eq!(refailure.schedule, failure.schedule);
}

/// The corrected shape — a CAS loop — survives exhaustive exploration.
#[test]
fn cas_loop_increment_passes_exhaustively() {
    let report = Checker::new().name("cas-loop").run(|| {
        let c = Arc::new(AtomicU64::new(0));
        let c2 = Arc::clone(&c);
        let t = thread::spawn(move || {
            let mut cur = c2.load(Ordering::Relaxed);
            while let Err(now) =
                c2.compare_exchange(cur, cur + 1, Ordering::AcqRel, Ordering::Relaxed)
            {
                cur = now;
            }
        });
        let mut cur = c.load(Ordering::Relaxed);
        while let Err(now) = c.compare_exchange(cur, cur + 1, Ordering::AcqRel, Ordering::Relaxed) {
            cur = now;
        }
        t.join().unwrap();
        assert_eq!(c.load(Ordering::SeqCst), 2);
    });
    assert!(report.failure.is_none(), "{report}");
    assert!(report.complete, "{report}");
}

/// fetch_add is atomic by construction: no interleaving loses an update.
#[test]
fn fetch_add_passes_exhaustively() {
    let report = Checker::new().name("fetch-add").run(|| {
        let c = Arc::new(AtomicU64::new(0));
        let c2 = Arc::clone(&c);
        let t = thread::spawn(move || {
            c2.fetch_add(1, Ordering::SeqCst);
        });
        c.fetch_add(1, Ordering::SeqCst);
        t.join().unwrap();
        assert_eq!(c.load(Ordering::SeqCst), 2);
    });
    assert!(report.failure.is_none(), "{report}");
    assert!(report.complete, "{report}");
}

/// Opposite lock orders must be reported as a deadlock, not hang.
#[test]
fn opposite_lock_order_deadlocks() {
    let report = Checker::new().name("deadlock").run(|| {
        let a = Arc::new(Mutex::new(0u32));
        let b = Arc::new(Mutex::new(0u32));
        let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
        let t = thread::spawn(move || {
            let _ga = a2.lock().unwrap();
            let _gb = b2.lock().unwrap();
        });
        {
            let _gb = b.lock().unwrap();
            let _ga = a.lock().unwrap();
        }
        t.join().unwrap();
    });
    let failure = report.failure.expect("deadlock must be detected");
    assert_eq!(failure.kind, FailureKind::Deadlock, "{failure}");
    assert!(failure.message.contains("deadlock"), "{failure}");
}

/// A deadlock found while the body owns a guard whose `Drop` joins a
/// blocked thread (as a thread pool joins its workers) must be reported,
/// not abort the process: the join runs during the teardown unwind, when
/// the joined thread never stored a result.
#[test]
fn deadlock_with_a_joining_destructor_is_reported() {
    struct JoinOnDrop(Option<thread::JoinHandle<()>>);
    impl Drop for JoinOnDrop {
        fn drop(&mut self) {
            if let Some(h) = self.0.take() {
                let _ = h.join();
            }
        }
    }
    fn wait_open(gate: &(Mutex<bool>, Condvar)) {
        let (m, cv) = gate;
        let mut open = m.lock().unwrap();
        while !*open {
            open = cv.wait(open).unwrap();
        }
    }
    let report = Checker::new().name("deadlock-join-on-drop").run(|| {
        // Nobody ever opens the gate, so both threads block forever.
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let g2 = Arc::clone(&gate);
        let _joiner = JoinOnDrop(Some(thread::spawn(move || wait_open(&g2))));
        wait_open(&gate);
    });
    let failure = report.failure.expect("deadlock must be detected");
    assert_eq!(failure.kind, FailureKind::Deadlock, "{failure}");
    assert!(failure.message.contains("deadlock"), "{failure}");
}

/// Mutex + condvar handoff explored exhaustively: the waiter always
/// observes the flag, whichever side runs first.
#[test]
fn condvar_handoff_passes_exhaustively() {
    let report = Checker::new().name("condvar").run(|| {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = Arc::clone(&pair);
        let t = thread::spawn(move || {
            let (m, cv) = &*pair2;
            let mut g = m.lock().unwrap();
            *g = true;
            cv.notify_one();
        });
        let (m, cv) = &*pair;
        let mut g = m.lock().unwrap();
        while !*g {
            g = cv.wait(g).unwrap();
        }
        drop(g);
        t.join().unwrap();
    });
    assert!(report.failure.is_none(), "{report}");
    assert!(report.complete, "{report}");
}

/// Mutual exclusion through the shadow mutex: a non-atomic counter behind
/// a Mutex never loses updates.
#[test]
fn mutex_protected_counter_passes_exhaustively() {
    let report = Checker::new().name("mutex-counter").run(|| {
        let c = Arc::new(Mutex::new(0u64));
        let c2 = Arc::clone(&c);
        let t = thread::spawn(move || {
            let mut g = c2.lock().unwrap();
            *g += 1;
        });
        {
            let mut g = c.lock().unwrap();
            *g += 1;
        }
        t.join().unwrap();
        assert_eq!(*c.lock().unwrap(), 2);
    });
    assert!(report.failure.is_none(), "{report}");
    assert!(report.complete, "{report}");
}

/// Exploration is deterministic: the same body yields the same schedule
/// count and, for failures, the same decision vector.
#[test]
fn exploration_is_deterministic() {
    fn racy() {
        let c = Arc::new(AtomicU64::new(0));
        let c2 = Arc::clone(&c);
        let t = thread::spawn(move || {
            let v = c2.load(Ordering::SeqCst);
            c2.store(v + 1, Ordering::SeqCst);
        });
        let v = c.load(Ordering::SeqCst);
        c.store(v + 1, Ordering::SeqCst);
        t.join().unwrap();
    }
    let r1 = Checker::new().run(racy);
    let r2 = Checker::new().run(racy);
    assert_eq!(r1.schedules, r2.schedules);
    let (f1, f2) = (r1.failure.unwrap(), r2.failure.unwrap());
    assert_eq!(f1.schedule, f2.schedule);
    assert_eq!(f1.kind, f2.kind);
}

/// The seeded random walk also finds the race (fallback strategy).
#[test]
fn random_walk_finds_the_race() {
    let report = Checker::new()
        .random_walk()
        .seed(2121)
        .max_schedules(2_000)
        .name("random-walk")
        .run(|| {
            let c = Arc::new(AtomicU64::new(0));
            let c2 = Arc::clone(&c);
            let t = thread::spawn(move || {
                let v = c2.load(Ordering::SeqCst);
                c2.store(v + 1, Ordering::SeqCst);
            });
            let v = c.load(Ordering::SeqCst);
            c.store(v + 1, Ordering::SeqCst);
            t.join().unwrap();
        });
    assert!(report.failure.is_some(), "{report}");
}
