//! # xxi-tech
//!
//! Technology-node models for the `xxi-arch` framework.
//!
//! Table 1 of the white paper ("Technology's Challenges to Computer
//! Architecture") is the paper's empirical backbone: Moore's Law continues,
//! Dennard scaling is gone, transistor reliability is worsening,
//! communication dominates computation, and one-time (NRE) costs are
//! growing. This crate turns each of those rows into a quantitative,
//! testable model:
//!
//! * [`node`] — a calibrated database of CMOS nodes from 180 nm (1999) to
//!   7 nm (2019): supply/threshold voltage, transistor density, gate
//!   capacitance, nominal frequency, leakage, soft-error and cost data.
//! * [`freq`] — the alpha-power-law delay/frequency model and the
//!   leakage-current model (the `V·I_leak` of `P = α·C·V²·f + V·I_leak`).
//! * [`scaling`] — generational scaling engines: the *Dennard rules*
//!   (historical, power-neutral) vs the *post-Dennard reality* (voltage
//!   nearly flat ⇒ power/chip grows with transistor count). Regenerates
//!   Table 1 rows 1–2 (experiment E1).
//! * [`ntv`] — near-threshold-voltage operation: energy per operation vs
//!   supply voltage, the minimum-energy point, and the error-rate cost that
//!   motivates "resiliency-centered design" (§2.3; experiment E11).
//! * [`ser`] — soft-error-rate scaling per node and voltage (Table 1 row 3;
//!   experiment E3).
//! * [`dark`] — the dark-silicon calculator: what fraction of a chip can
//!   switch at once under a fixed power budget (experiments E1/E6).
//! * [`ops`] — per-operation compute energies (ALU, FP, instruction
//!   overhead) per node, anchored to Keckler's 45 nm picojoule figures
//!   (experiments E4/E7).
//! * [`nre`] — non-recurring engineering cost data per node (mask set,
//!   design, verification), feeding the amortization analysis in
//!   `xxi-accel` (Table 1 row 5; experiment E5).

pub mod dark;
pub mod freq;
pub mod node;
pub mod nre;
pub mod ntv;
pub mod ops;
pub mod scaling;
pub mod ser;

pub use dark::DarkSilicon;
pub use freq::{alpha_power_frequency, leakage_current};
pub use node::{NodeDb, TechNode};
pub use ntv::NtvModel;
pub use ops::OpEnergies;
pub use scaling::{ScalingRule, ScalingTrajectory};
pub use ser::SoftErrorModel;
