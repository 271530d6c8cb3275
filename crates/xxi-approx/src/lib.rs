//! # xxi-approx
//!
//! Approximate computing for the `xxi-arch` framework.
//!
//! §2.1: *"given that sensor data is inherently approximate, it opens the
//! potential to effectively apply approximate computing techniques, which
//! can lead to significant energy savings"*; §2.4 lists "approximate data
//! types" among the hardware mechanisms new interfaces should expose.
//!
//! * [`quality`] — the quality metrics approximation is judged by: RMSE,
//!   PSNR, mean relative error.
//! * [`number`] — a tunable-precision real ([`number::ApproxReal`]):
//!   explicit mantissa-bit quantization with an energy model in which
//!   multiply energy scales quadratically and add energy linearly with
//!   mantissa width.
//! * [`perforation`] — loop perforation: execute every k-th iteration and
//!   extrapolate, the classic compiler-level approximation.
//! * [`signal`] — a synthetic biometric-like signal generator (the
//!   paper's on-sensor filtering scenario needs a ground-truth stream).
//! * [`pareto`] — energy-vs-quality sweeps over (precision, perforation)
//!   configurations and the Pareto frontier extraction used by
//!   experiment E14.

pub mod number;
pub mod pareto;
pub mod perforation;
pub mod quality;
pub mod signal;

pub use number::ApproxReal;
pub use pareto::{pareto_frontier, sweep_fir, SweepPoint};
pub use perforation::perforated_mean_filter;
pub use quality::rmse;
pub use signal::SignalGen;
