//! # xxi-cpu
//!
//! Core- and chip-level models for the `xxi-arch` framework.
//!
//! Table 2 of the white paper contrasts 20th-century architecture
//! ("single-chip performance … software-invisible ILP") with the
//! 21st-century agenda ("energy first: parallelism, specialization,
//! cross-layer design"). This crate supplies the chip-level machinery for
//! that contrast:
//!
//! * [`core`] — core models governed by **Pollack's rule** (performance ∝
//!   √area): big out-of-order vs small in-order cores, with per-instruction
//!   energy taken from `xxi-tech::ops` and DVFS via `xxi-tech::freq`.
//! * [`hillmarty`] — the Hill–Marty "Amdahl's Law in the Multicore Era"
//!   models: symmetric, asymmetric, and dynamic multicore speedup as a
//!   function of parallel fraction and chip resources (experiment E6).
//! * [`chip`] — a power-constrained chip composer: fills a die at a node
//!   with a chosen core mix, applies the TDP budget (dark silicon, via
//!   `xxi-tech::dark`-style accounting), and reports throughput,
//!   single-thread performance, and energy efficiency.
//! * [`cpudb`] — a stylized CPU-DB (Danowitz et al., CACM 2012)
//!   generational table and the technology-vs-architecture performance
//!   attribution behind the paper's "architecture credited with ~80×
//!   improvement since 1985" (experiment E2).

pub mod chip;
pub mod core;
pub mod cpudb;
pub mod hillmarty;

pub use self::core::{CoreKind, CoreModel};
pub use chip::{Chip, ChipConfig};
pub use cpudb::{attribution, CpuDbEntry, CPU_DB};
pub use hillmarty::{perf_pollack, speedup_asymmetric, speedup_dynamic, speedup_symmetric};
