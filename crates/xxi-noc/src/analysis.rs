//! Closed-form interconnect analysis, cross-validated against the
//! simulator.
//!
//! Zero-load latency and ideal-throughput formulas from Dally & Towles,
//! applied to the mesh topologies in [`crate::topology`]. These give the
//! experiments an analytic overlay: when the simulator's low-load latency
//! or saturation point drifts from these bounds, something is wrong with
//! the simulator — one of the cross-checks DESIGN.md commits to.

use crate::link::Link;
use crate::topology::Mesh;
use xxi_core::units::{Energy, Seconds};

/// Zero-load latency of a packet traversing `hops` routers: per-hop router
/// pipeline delay plus link traversal.
pub fn zero_load_latency(hops: usize, router_delay: Seconds, link: &Link) -> Seconds {
    Seconds(hops as f64 * (router_delay.value() + link.flit_latency.value()))
}

/// Ideal (bisection-limited) saturation throughput under uniform traffic,
/// in flits per node per cycle: half of all traffic crosses the bisection,
/// which supplies `2·B` link-crossings per cycle (B links each way).
pub fn ideal_uniform_saturation(mesh: &Mesh) -> f64 {
    let n = mesh.nodes() as f64;
    let b = mesh.bisection_links() as f64;
    // rate · n / 2 ≤ 2B  ⇒  rate ≤ 4B/n
    (4.0 * b / n).min(1.0)
}

/// Mean dynamic network energy per packet of `bits` bits under uniform
/// traffic: hops × (router energy + link energy).
pub fn mean_packet_energy(
    mesh: &Mesh,
    bits: u64,
    router_energy_per_bit: Energy,
    link: &Link,
) -> Energy {
    let hops = mesh.mean_hops_uniform();
    (router_energy_per_bit * bits as f64 + link.transfer_energy(bits)) * hops
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkKind;
    use crate::sim::{load_sweep, NocConfig, NocSim};
    use crate::traffic::Pattern;
    use xxi_tech::node::NodeDb;

    fn link() -> Link {
        let db = NodeDb::standard();
        Link::on(
            db.by_name("45nm").unwrap(),
            LinkKind::Electrical { mm: 1.0 },
        )
    }

    #[test]
    fn zero_load_latency_is_linear_in_hops() {
        let l = link();
        let r = Seconds::from_ns(1.0);
        let one = zero_load_latency(1, r, &l);
        let five = zero_load_latency(5, r, &l);
        assert!((five.value() - 5.0 * one.value()).abs() < 1e-18);
    }

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

    #[test]
    fn packet_energy_proportional_to_distance_and_bits() {
        let mesh_small = Mesh::new_2d(4, 4);
        let mesh_big = Mesh::new_2d(16, 16);
        let l = link();
        let re = Energy::from_pj(0.05);
        let small = mean_packet_energy(&mesh_small, 512, re, &l);
        let big = mean_packet_energy(&mesh_big, 512, re, &l);
        assert!(big.value() > 3.0 * small.value());
        let double_bits = mean_packet_energy(&mesh_small, 1024, re, &l);
        assert!((double_bits.value() - 2.0 * small.value()).abs() < 1e-15);
    }
}
