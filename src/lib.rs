//! # xxi — *21st Century Computer Architecture*, as executable models
//!
//! Facade crate for the `xxi-arch` workspace: a cross-layer, energy-first
//! computer-architecture simulation framework spanning **sensors to
//! clouds**, built as the executable form of the CCC community white paper
//! *21st Century Computer Architecture* (2012; PPoPP 2014 keynote).
//!
//! The paper is an agenda, not a system — so every quantitative claim and
//! every conceptual table in it became a model plus an experiment here.
//! See `DESIGN.md` for the full inventory and `EXPERIMENTS.md` for
//! paper-vs-measured results. The subsystems:
//!
//! | module | crate | paper hook |
//! |---|---|---|
//! | [`core`] | `xxi-core` | DES engine, units, stats, RNG |
//! | [`tech`] | `xxi-tech` | Table 1: Moore vs Dennard, NTV, SER, dark silicon, NRE |
//! | [`mem`] | `xxi-mem` | caches, DRAM, NVM + Start-Gap, hybrid memory, energy ladder |
//! | [`noc`] | `xxi-noc` | mesh NoC, photonics, 3D stacking, link energy |
//! | [`cpu`] | `xxi-cpu` | Pollack cores, Hill–Marty, chip composer, CPU-DB attribution |
//! | [`accel`] | `xxi-accel` | specialization ladder, CGRA, NRE breakeven |
//! | [`rel`] | `xxi-rel` | SECDED ECC, fault injection, Young–Daly, invariant checker |
//! | [`sec`] | `xxi-sec` | information-flow tracking, protection domains, cache side channels |
//! | [`approx`] | `xxi-approx` | approximate data types, perforation, quality-energy Pareto |
//! | [`sensor`] | `xxi-sensor` | harvesting, radios, on-sensor filtering |
//! | [`cloud`] | `xxi-cloud` | tail latency (the 63% claim), hedging, queueing, DC power, QoS |
//! | [`stack`] | `xxi-stack` | thread-pool runtime, STM, offload planner |
//!
//! ## Quickstart
//!
//! ```
//! use xxi::tech::{NodeDb, ScalingRule, ScalingTrajectory};
//! use xxi::cloud::fanout::analytic_straggler_prob;
//!
//! // Table 1: Dennard scaling is gone — running a 7 nm die flat-out needs
//! // >10× the power of its 180 nm ancestor.
//! let db = NodeDb::standard();
//! let real = ScalingTrajectory::compute(&db, ScalingRule::PostDennard);
//! assert!(real.final_power_growth() > 10.0);
//!
//! // §2.1: with fan-out 100, 63% of requests see the leaf p99.
//! let p = analytic_straggler_prob(100, 0.99);
//! assert!((p - 0.634).abs() < 0.001);
//! ```

pub use xxi_accel as accel;
pub use xxi_approx as approx;
pub use xxi_check as check;
pub use xxi_cloud as cloud;
pub use xxi_core as core;
pub use xxi_cpu as cpu;
pub use xxi_mem as mem;
pub use xxi_noc as noc;
pub use xxi_rel as rel;
pub use xxi_sec as sec;
pub use xxi_sensor as sensor;
pub use xxi_stack as stack;
pub use xxi_tech as tech;

pub use xxi_core::{Result, XxiError};
