//! Cross-layer observability: tracing, histograms, and energy accounting.
//!
//! The paper argues for architectures judged across layers — sensor to
//! cloud — on latency *distributions* and *energy*, not single means.
//! This module is the measurement substrate that makes those judgments
//! from simulation output:
//!
//! * [`Trace`] — a typed span/instant recorder hooked into the DES engine
//!   ([`crate::des::Sim`]). Zero cost when disabled (one branch, no
//!   allocation); exports Chrome `trace_event` JSON for chrome://tracing
//!   / Perfetto.
//! * [`LogHistogram`] — a fixed-memory (~16 KiB) log-bucketed latency /
//!   energy histogram with p50/p90/p99/p99.9 within 1/16 relative error,
//!   mergeable across shards and insertion-order independent. Replaces
//!   `Vec<f64>`-and-sort percentiles in long-running simulations, and is
//!   the per-shard latency signal adaptive hedging reads online.
//! * [`EnergyLedger`] — joules attributed to named components and
//!   [`Layer`]s (compute / memory / network / idle / harvest), rendered
//!   as a paper-style attribution table.
//!
//! `xxi-cloud`, `xxi-mem`, `xxi-noc`, and `xxi-sensor` instrument their
//! models with these types; `xxi run <id> --trace <path>` writes the
//! traces of the experiments that emit them (e10, e17, e18, e21).

#[cfg(test)]
mod digest;
mod hist;
mod ledger;
mod trace;

pub use hist::LogHistogram;
pub use ledger::{fmt_energy, EnergyLedger, Layer};
pub use trace::{SpanId, Trace, DEFAULT_EVENT_LIMIT};
