//! `xxi-check`: correctness tooling for the xxi workspace.
//!
//! Three pillars, matching the paper's cross-layer dependability agenda:
//!
//! 1. **A deterministic concurrency checker** (loom-style). Test bodies
//!    run under a virtual-thread scheduler that explores interleavings —
//!    DFS with a preemption bound, plus a seeded random-walk fallback —
//!    over shadow atomics ([`sync::atomic`]) that track happens-before
//!    vector clocks per memory location. Failures (assertion panics, lost
//!    updates, deadlocks) come with a deterministic, replayable schedule
//!    and a readable interleaving trace. The `xxi-stack` runtime (deque,
//!    STM, pool) compiles onto these shadows via its `sync` facade when
//!    built with `--features check`.
//!
//! 2. **A cross-layer model linter** ([`lint`], run by `xxi lint`). A
//!    rule registry + diagnostic engine that checks the *models* across
//!    crates: dimensional consistency against `xxi_core::units`,
//!    energy-ledger conservation, tech-node scaling sanity, NoC topology
//!    well-formedness, and the shipped experiment configurations.
//!    Diagnostics carry a rule id, severity, and source tag, and can be
//!    emitted as machine-readable JSON.
//!
//! 3. **A workspace source linter** ([`srclint`], run by `xxi src`). A
//!    hand-rolled lexer + item/block scanner that enforces the repo's
//!    code-level invariants statically: deterministic
//!    experiments (no wall-clock time or unseeded randomness), justified
//!    atomic orderings (`// ORDERING:`), audited unsafe code
//!    (`// SAFETY:`), synchronization routed through the `xxi-stack`
//!    `sync` facade, and ordered iteration on report paths. Findings are
//!    suppressible per line (`// xxi-allow: <rule>`) and deterministic
//!    in both text and JSON form.
//!
//! ```
//! use xxi_check::sync::atomic::{AtomicU64, Ordering};
//! use std::sync::Arc;
//!
//! // Two racing increments written with a CAS loop: no interleaving of
//! // this body can lose an update, and the checker proves it for all
//! // schedules within the preemption bound.
//! xxi_check::check(|| {
//!     let c = Arc::new(AtomicU64::new(0));
//!     let c2 = Arc::clone(&c);
//!     let t = xxi_check::thread::spawn(move || {
//!         let mut cur = c2.load(Ordering::Relaxed);
//!         while let Err(now) =
//!             c2.compare_exchange(cur, cur + 1, Ordering::AcqRel, Ordering::Relaxed)
//!         {
//!             cur = now;
//!         }
//!     });
//!     let mut cur = c.load(Ordering::Relaxed);
//!     while let Err(now) = c.compare_exchange(cur, cur + 1, Ordering::AcqRel, Ordering::Relaxed) {
//!         cur = now;
//!     }
//!     t.join().unwrap();
//!     assert_eq!(c.load(Ordering::SeqCst), 2);
//! });
//! ```

pub mod lint;
mod sched;
pub mod srclint;
pub mod sync;
pub mod thread;
pub mod vclock;

pub use sched::{check, observed_values, Checker, Failure, FailureKind, Report};
