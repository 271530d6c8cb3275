//! Energy-vs-quality sweeps and Pareto frontiers — experiment E14.
//!
//! Sweeps the two approximation knobs this crate implements — mantissa
//! precision and loop perforation — over the FIR workload, producing
//! `(energy, error)` points and extracting the Pareto-optimal set. The
//! experiment's claim (from the paper's approximate-computing agenda):
//! large energy savings are available at modest quality loss, and the
//! frontier is steep near full precision (the first 2× is nearly free).

use crate::number::{add_energy, mul_energy, quantize_slice};
use crate::perforation::perforated_mean_filter;
use crate::quality::rmse;
use crate::signal::SignalGen;
use xxi_core::units::Energy;

/// One configuration's outcome.
#[derive(Clone, Copy, Debug)]
pub struct SweepPoint {
    /// Mantissa bits used.
    pub bits: u32,
    /// Perforation factor.
    pub perforation: usize,
    /// Total kernel energy.
    pub energy: Energy,
    /// RMSE against the exact full-precision output.
    pub error: f64,
}

/// Sweep (bits × perforation) on a mean-filter workload of `n` samples.
pub fn sweep_fir(n: usize, seed: u64) -> Vec<SweepPoint> {
    let (signal, _) = SignalGen::default().generate(n, seed);
    let w = 8;
    let (exact, _) = perforated_mean_filter(&signal, w, 1);
    let full_mul = Energy::from_pj(50.0);
    let full_add = Energy::from_pj(15.0);

    let mut points = Vec::new();
    for &bits in &[52u32, 32, 24, 16, 12, 8, 6] {
        for &k in &[1usize, 2, 4, 8, 16] {
            let quantized = quantize_slice(&signal, bits);
            let (out, evals) = perforated_mean_filter(&quantized, w, k);
            let error = rmse(&exact, &out);
            // Each window evaluation: w adds + 1 multiply (by 1/w).
            let energy =
                (add_energy(bits, full_add) * w as f64 + mul_energy(bits, full_mul)) * evals as f64;
            points.push(SweepPoint {
                bits,
                perforation: k,
                energy,
                error,
            });
        }
    }
    points
}

/// Extract the Pareto frontier (minimize energy AND error): points not
/// dominated by any other, sorted by energy.
pub fn pareto_frontier(points: &[SweepPoint]) -> Vec<SweepPoint> {
    let mut frontier: Vec<SweepPoint> = points
        .iter()
        .filter(|p| {
            !points.iter().any(|q| {
                (q.energy.value() < p.energy.value() && q.error <= p.error)
                    || (q.energy.value() <= p.energy.value() && q.error < p.error)
            })
        })
        .copied()
        .collect();
    frontier.sort_by(|a, b| a.energy.value().partial_cmp(&b.energy.value()).unwrap()); // xxi-allow: panic-path -- energies are finite by construction
    frontier
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_grid() {
        let pts = sweep_fir(2_000, 1);
        assert_eq!(pts.len(), 7 * 5);
        // The exact config has (near-)zero error.
        let exact = pts
            .iter()
            .find(|p| p.bits == 52 && p.perforation == 1)
            .unwrap();
        assert!(exact.error < 1e-12);
    }

    #[test]
    fn frontier_is_monotone() {
        let pts = sweep_fir(2_000, 2);
        let f = pareto_frontier(&pts);
        assert!(!f.is_empty());
        for w in f.windows(2) {
            assert!(w[1].energy.value() > w[0].energy.value());
            assert!(
                w[1].error <= w[0].error,
                "frontier must trade energy for quality"
            );
        }
    }

    #[test]
    fn frontier_members_are_undominated() {
        let pts = sweep_fir(2_000, 3);
        let f = pareto_frontier(&pts);
        for p in &f {
            for q in &pts {
                let dominates = q.energy.value() < p.energy.value() && q.error < p.error;
                assert!(!dominates, "{q:?} dominates frontier member {p:?}");
            }
        }
    }

    #[test]
    fn big_energy_savings_at_modest_error() {
        // The E14 headline: ≥5× energy saving at ≤10% of signal RMS error.
        let pts = sweep_fir(4_000, 4);
        let full = pts
            .iter()
            .find(|p| p.bits == 52 && p.perforation == 1)
            .unwrap();
        let good_cheap = pts
            .iter()
            .any(|p| p.energy.value() < full.energy.value() / 5.0 && p.error < 0.1);
        assert!(good_cheap, "no cheap high-quality configuration found");
    }
}
