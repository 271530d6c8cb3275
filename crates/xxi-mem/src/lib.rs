//! # xxi-mem
//!
//! Memory-hierarchy simulation for the `xxi-arch` framework.
//!
//! The white paper makes the memory system a protagonist three times over:
//! communication (data movement) now costs more energy than computation
//! (Table 1 row 4; §2.2 "fetching the operands … one to two orders of
//! magnitude more energy than performing the operation"); emerging
//! non-volatile memories "drive a rethinking of the relationship between
//! memory and storage" (§2.3); and "memory and storage systems consume an
//! increasing fraction of the total data center power budget" (§2.1).
//!
//! Modules:
//!
//! * [`trace`] — synthetic address-trace generators (sequential,
//!   uniform-random, Zipf object popularity) standing in for the
//!   proprietary workload traces the paper's scenarios assume.
//! * [`cache`] — a set-associative cache model with LRU / FIFO / random /
//!   tree-PLRU replacement, write-back + write-allocate, and full stats.
//! * [`dram`] — a banked DRAM model with row-buffer locality and
//!   open/closed page policies.
//! * [`nvm`] — emerging non-volatile device models (PCM, STT-RAM,
//!   memristor, flash): asymmetric read/write latency and energy, limited
//!   write endurance, cell-level wear tracking.
//! * [`wear`] — Start-Gap wear leveling (Qureshi et al., MICRO 2009)
//!   implemented exactly: an algebraic address rotation that spreads hot
//!   writes across the physical array (experiment E12).
//! * [`hybrid`] — a page-migrating hybrid DRAM+NVM main memory, the
//!   "rethought" memory/storage stack of §2.3.
//! * [`energy`] — the per-access energy ladder (register file → L1 → L2 →
//!   L3 → DRAM → NVM) per technology node, anchored to published 45 nm
//!   picojoule budgets (experiment E4).
//! * [`compress`] — frequent-pattern cache-line compression, one of the
//!   paper's named levers for "energy efficiency through specialization
//!   (e.g., through compression …)" (§2.2).

pub mod cache;
pub mod compress;
pub mod dram;
pub mod energy;
pub mod hybrid;
pub mod nvm;
pub mod trace;
pub mod wear;

pub use cache::{AccessKind, Cache, CacheConfig, Replacement};
pub use dram::{Dram, DramConfig};
pub use energy::MemEnergyTable;
pub use hybrid::{HybridConfig, HybridMemory};
pub use nvm::{NvmDevice, NvmTech};
pub use trace::{Access, TraceGen};
pub use wear::StartGap;
