//! # xxi-accel
//!
//! Specialization models for the `xxi-arch` framework.
//!
//! §2.2 of the white paper: *"Specialization can give 100× higher energy
//! efficiency than a general-purpose compute or memory unit, but no known
//! solutions exist today for harnessing its benefits for broad classes of
//! applications cost-effectively."* This crate makes both halves of that
//! sentence quantitative:
//!
//! * [`ladder`] — the specialization ladder (scalar OoO → scalar in-order →
//!   SIMD → GPU-style manycore → fixed-function), evaluated on four kernel
//!   archetypes by decomposing per-op energy into instruction-delivery
//!   overhead vs functional work (experiment E7). This is the mechanism —
//!   stripping "the layers of mechanisms and abstractions that provide
//!   flexibility" — implemented as an energy-accounting model.
//! * [`cgra`] — a coarse-grain reconfigurable array mapper: places a
//!   dataflow graph onto a grid of function units (the paper's
//!   "coarser-grain semi-programmable building blocks"), counting routing
//!   hops to price communication; quantifies the CGRA's position between
//!   FPGA overhead and ASIC efficiency.
//! * [`nre`] — amortization and breakeven analysis over the
//!   `xxi-tech::nre` cost data: at what volume does an ASIC accelerator
//!   beat an FPGA or plain software? (Table 1 row 5; experiment E5.)

pub mod cgra;
pub mod ladder;
pub mod nre;

pub use cgra::{Cgra, DataflowGraph};
pub use ladder::{ladder_energy_per_op, ImplKind, Kernel};
pub use nre::breakeven_volume;
