//! Synchronization facade: `std::sync` in production, `xxi_check::sync`
//! under `--features check`.
//!
//! The runtime's concurrent code (STM, pool) imports its atomics,
//! locks, and threads from here instead of `std`. Without the `check`
//! feature this re-exports the real primitives — zero overhead, identical
//! behavior, production code unchanged. With it, the same code compiles
//! onto the shadow primitives of `xxi-check`, whose deterministic
//! scheduler can then exhaustively explore interleavings, track
//! happens-before clocks, and replay failures (see `tests/model.rs`).

#[cfg(feature = "check")]
pub use xxi_check::sync::{Arc, Condvar, Mutex};

#[cfg(feature = "check")]
pub mod atomic {
    pub use xxi_check::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
}

#[cfg(feature = "check")]
pub use xxi_check::thread;

#[cfg(not(feature = "check"))]
pub use std::sync::{Arc, Condvar, Mutex};

#[cfg(not(feature = "check"))]
pub mod atomic {
    // xxi-allow: sync-facade -- this IS the facade's production re-export
    pub use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
}

#[cfg(not(feature = "check"))]
// xxi-allow: sync-facade -- this IS the facade's production re-export
pub use std::thread;
