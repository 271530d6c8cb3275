//! # xxi-core
//!
//! Foundation crate for the `xxi-arch` framework: an executable model of the
//! research agenda laid out in the community white paper *21st Century
//! Computer Architecture* (CCC, 2012; PPoPP 2014 keynote).
//!
//! The white paper argues that post-Dennard architecture research must treat
//! **energy as the first-class constraint**, span **sensors to clouds**, and
//! cut across layers. Every higher-level crate in the workspace
//! (`xxi-tech`, `xxi-cpu`, `xxi-mem`, `xxi-noc`, `xxi-accel`, `xxi-rel`,
//! `xxi-approx`, `xxi-sensor`, `xxi-cloud`, `xxi-stack`) builds on the
//! primitives defined here:
//!
//! * [`units`] — typed physical quantities (energy, power, time, area,
//!   voltage, operations) so that energy accounting is dimension-checked at
//!   compile time rather than by convention.
//! * [`time`] — picosecond-resolution simulated time for discrete-event
//!   simulation.
//! * [`des`] — a deterministic discrete-event simulation engine used by the
//!   memory, interconnect, sensor-node, and warehouse-scale models, with a
//!   seeded fault-injection seam ([`des::fault`]) that kills, pauses, or
//!   slows named components at scheduled sim-times.
//! * [`stats`] — Welford streaming moments and exact percentiles.
//!   Tail-latency experiments depend on faithful percentile math.
//! * [`rng`] — deterministic, splittable pseudo-random generation plus the
//!   distributions the workload generators need (exponential, log-normal,
//!   Pareto, Zipf, normal).
//! * [`par`] — the executor seam for the Monte Carlo hot loops: the
//!   [`par::Parallelism`] trait (implemented by `xxi-stack`'s pool), the
//!   [`par::Serial`] default, and the fixed-grain [`par::mc_chunks`]
//!   chunking that keeps parallel runs byte-identical to serial ones.
//! * [`table`] — plain-text table rendering used by every experiment so
//!   that reproduced tables look like the paper's.
//! * [`report`] — the structured experiment report (sections of tables,
//!   free text, scalar findings) behind the `xxi` driver: renders the
//!   classic text output byte-identically and a stable JSON schema.
//! * [`metrics`] — a lightweight named-counter registry shared by simulators.
//! * [`obs`] — cross-layer observability: a zero-cost-when-disabled trace
//!   recorder hooked into the DES engine (Chrome `trace_event` export), a
//!   fixed-memory log-bucketed latency histogram, and an energy ledger that
//!   attributes joules to components and layers.
//! * [`error`] — the common error type.
//!
//! ## Design notes
//!
//! Determinism is a hard requirement: every simulation result in
//! EXPERIMENTS.md must be reproducible from a seed. The DES engine breaks
//! event-time ties by insertion sequence, and all stochastic inputs flow
//! through [`rng::Rng64`] seeded explicitly.

pub mod des;
pub mod error;
pub mod metrics;
pub mod obs;
pub mod par;
pub mod report;
pub mod rng;
pub mod stats;
pub mod table;
pub mod time;
pub mod units;

pub use des::fault::{Fault, FaultInjector, FaultMix, FaultPlan};
pub use des::{ArenaStats, DesStats, Sim, TimerHandle};
pub use error::{Result, XxiError};
pub use obs::{EnergyLedger, Layer, LogHistogram, SpanId, Trace};
pub use par::{Parallelism, Serial};
pub use report::{Finding, Item, Report};
pub use rng::Rng64;
pub use stats::{Streaming, Summary};
pub use table::Table;
pub use time::SimTime;
pub use units::{Area, Energy, Frequency, Ops, Power, Seconds, Volts};
