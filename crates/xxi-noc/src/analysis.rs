//! Closed-form interconnect analysis, cross-validated against the
//! simulator.
//!
//! The ideal-throughput bound from Dally & Towles, applied to the mesh
//! topologies in [`crate::topology`], plus (in the tests) the zero-load
//! latency check against mean hop count. These give the experiments an
//! analytic overlay: when the simulator's low-load latency or saturation
//! point drifts from these bounds, something is wrong with the simulator —
//! one of the cross-checks DESIGN.md commits to.

use crate::topology::Mesh;

/// Ideal (bisection-limited) saturation throughput under uniform traffic,
/// in flits per node per cycle: half of all traffic crosses the bisection,
/// which supplies `2·B` link-crossings per cycle (B links each way).
pub fn ideal_uniform_saturation(mesh: &Mesh) -> f64 {
    let n = mesh.nodes() as f64;
    let b = mesh.bisection_links() as f64;
    // rate · n / 2 ≤ 2B  ⇒  rate ≤ 4B/n
    (4.0 * b / n).min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{load_sweep, NocConfig, NocSim};
    use crate::traffic::Pattern;

    #[test]
    fn analytic_saturation_brackets_simulated() {
        // The simulator must saturate at or below the bisection bound and
        // within a reasonable factor of it.
        let mesh = Mesh::new_2d(8, 8);
        let bound = ideal_uniform_saturation(&mesh); // 4·8/64 = 0.5
        assert!((bound - 0.5).abs() < 1e-12);
        let sweep = load_sweep(mesh, Pattern::Uniform, &[0.9], 5);
        let sim_thr = sweep[0].2;
        assert!(
            sim_thr <= bound + 0.02,
            "sim {sim_thr} exceeds bound {bound}"
        );
        assert!(sim_thr > 0.25 * bound, "sim {sim_thr} suspiciously low");
    }

    #[test]
    fn simulated_low_load_latency_matches_analytic_in_cycles() {
        let mesh = Mesh::new_2d(8, 8);
        // With 1-cycle routers and 0-cost links, analytic zero-load latency
        // in cycles = mean hops.
        let cfg = NocConfig {
            mesh,
            queue_depth: 4,
            pattern: Pattern::Uniform,
            injection_rate: 0.005,
            seed: 3,
        };
        let r = NocSim::new(cfg).run(1_000, 20_000);
        let analytic = mesh.mean_hops_uniform();
        assert!(
            (r.mean_latency - analytic).abs() < 3.0,
            "sim={} analytic={analytic}",
            r.mean_latency
        );
    }
}
