//! # xxi-rel
//!
//! Reliability machinery for the `xxi-arch` framework.
//!
//! Table 1 row 3: transistor unreliability is *"no longer easy to hide"*;
//! §2.4 asks for *"lower-overhead approaches that employ dynamic (hardware)
//! checking of invariants supplied by software"*, continuous health
//! monitoring, and failsafe operation for mission-critical devices. Each
//! becomes a module:
//!
//! * [`ecc`] — a real Hamming SECDED(72,64) implementation: encode 64 data
//!   bits into a 72-bit codeword, correct any single-bit flip, detect any
//!   double flip. Property-tested over all 72 single flips and random
//!   double flips.
//! * [`inject`] — a bit-flip fault injector over a protected memory array,
//!   classifying outcomes into corrected / detected-uncorrectable (DUE) /
//!   silent data corruption (SDC).
//! * [`scrub`] — memory scrubbing: the corrected-vs-DUE trade as a function
//!   of scrub interval, with the analytic double-upset probability
//!   cross-checked by Monte Carlo.
//! * [`checkpoint`] — checkpoint/restart under Poisson failures with the
//!   Young–Daly optimal interval; machine efficiency and availability
//!   curves (experiments E17, and E11's recovery costs).
//! * [`invariant`] — the invariant-checking co-processor of §2.4: software
//!   supplies invariants (here, region checksums), a small checker
//!   verifies them periodically; compared against dual-modular redundancy
//!   on coverage per energy (experiment E15).
//! * [`failsafe`] — a failsafe-mode state machine (normal → degraded →
//!   safe) with hysteresis, for the implantable-device scenario.

pub mod checkpoint;
pub mod ecc;
pub mod failsafe;
pub mod inject;
pub mod invariant;
pub mod scrub;

pub use checkpoint::{outage_instants, young_daly_interval, CheckpointSim, PlannedOutcome};
pub use ecc::{Codeword, DecodeResult};
pub use failsafe::{FailsafeMachine, Mode};
pub use inject::{FaultInjector, Outcome};
pub use invariant::{CheckedRegion, CheckerConfig};
pub use scrub::ScrubModel;
