//! # xxi-stack
//!
//! The cross-layer runtime for the `xxi-arch` framework.
//!
//! Table 2's 21st-century column ends with "cross-layer design", and §2.2
//! asks for *"runtimes that manage the memory hierarchy and orchestrate
//! fine-grain multitasking"*. This crate is the runtime layer, built as
//! real parallel code (not a model) where that is meaningful, and as
//! planning models where the hardware below is simulated:
//!
//! * [`pool`] — a thread pool with one shared queue under a mutex. Its
//!   one entry point, `run_scoped`, pushes one claimer per worker that
//!   takes indices from a shared counter; it runs `xxi_core::par::map`
//!   through the `Parallelism` seam, and the `stack/pool-sum` bench
//!   kernel measures its scaling.
//! * [`offload`] — the eco-system planner of §2.1 "Putting It All
//!   Together": split computation between a portable device and the cloud
//!   as connectivity and energy budgets vary (experiment E16).
//! * [`stm`] — a TL2-style software transactional memory, the programmability
//!   mechanism §2.4 singles out ("TM ... is now entering the commercial
//!   mainstream"), with serializability verified under concurrency.
//! * [`sync`] — the synchronization facade: `std::sync` in production,
//!   `xxi-check`'s shadow primitives under `--features check`, so the
//!   deterministic concurrency checker can explore this crate's
//!   interleavings without changing production code.

pub mod offload;
pub mod pool;
pub mod stm;
pub mod sync;

pub use offload::{plan_offload, AppProfile, Decision, DeviceModel, OffloadPlan, Uplink};
pub use pool::Pool;
pub use stm::{transfer, Conflict, Tx, TxArray};
