//! # xxi-noc
//!
//! Interconnect models for the `xxi-arch` framework.
//!
//! The white paper elevates communication to "a full-fledged partner of
//! computation" (§1.2) and singles out two technologies that "change
//! communication costs radically enough to affect the entire system
//! design": **photonics and 3D chip stacking** (§1.2, §2.3). This crate
//! supplies the interconnect substrate those claims are tested on:
//!
//! * [`topology`] — 2D and 3D (stacked) mesh topologies with XYZ
//!   dimension-order routing, hop counts, and bisection analysis.
//! * [`link`] — per-link latency/energy models: electrical on-chip wires
//!   (pJ/bit/mm), photonic waveguides (standing laser power + cheap
//!   modulation, distance-independent), through-silicon vias, and off-chip
//!   SerDes.
//! * [`sim`] — a synchronous flit-level mesh simulator with per-port
//!   buffering, round-robin arbitration, and backpressure; produces the
//!   latency-vs-load curves of experiment E13.
//! * [`traffic`] — traffic patterns: uniform random, transpose, hotspot,
//!   nearest-neighbor.
//! * [`analysis`] — the closed-form saturation bound, cross-validated
//!   against the simulator.

pub mod analysis;
pub mod link;
pub mod sim;
pub mod topology;
pub mod traffic;

pub use link::{Link, LinkKind};
pub use sim::{NocConfig, NocObservation, NocResult, NocSim};
pub use topology::{Dir, Mesh};
pub use traffic::Pattern;
