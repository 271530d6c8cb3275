//! A single-hop photonic crossbar, simulated — E13's radical alternative.
//!
//! §2.3: photonics can be exploited "among or even on chips". A photonic
//! crossbar gives every node a single-hop path to every other node
//! (wavelength-routed), turning the mesh's distance-dependent latency into
//! a flat two-phase cost: arbitration for the destination's receiver, then
//! transmission. The simulator models per-destination receiver contention
//! — the crossbar's real bottleneck — with round-robin grant, so hotspot
//! traffic saturates it just like a mesh's hotspot column, while uniform
//! traffic sails through at one "hop".

use std::collections::VecDeque;

use xxi_core::rng::Rng64;
use xxi_core::stats::Streaming;

use crate::topology::Mesh;
use crate::traffic::Pattern;

/// Crossbar simulator configuration.
#[derive(Clone, Copy, Debug)]
pub struct CrossbarConfig {
    /// Number of nodes.
    pub nodes: usize,
    /// Flits per node per cycle offered.
    pub injection_rate: f64,
    /// Traffic pattern (destinations drawn on a virtual mesh of the same
    /// node count, for apples-to-apples with [`crate::sim::NocSim`]).
    pub pattern: Pattern,
    /// Receivers per node (wavelength parallelism).
    pub receivers_per_node: usize,
    /// RNG seed.
    pub seed: u64,
}

/// Results of a crossbar run.
#[derive(Clone, Debug)]
pub struct CrossbarResult {
    /// Mean packet latency in cycles.
    pub mean_latency: f64,
    /// Delivered flits per node per cycle.
    pub throughput: f64,
    /// Flits delivered.
    pub delivered: u64,
}

/// Run the crossbar for `warmup + measure` cycles.
pub fn run_crossbar(cfg: CrossbarConfig, warmup: u64, measure: u64) -> CrossbarResult {
    assert!(cfg.nodes > 1 && cfg.receivers_per_node >= 1);
    // Virtual mesh for destination selection only.
    let side = (cfg.nodes as f64).sqrt() as usize;
    assert_eq!(side * side, cfg.nodes, "use a square node count");
    let mesh = Mesh::new_2d(side, side);
    let mut rng = Rng64::new(cfg.seed);
    // Per-destination queue of (inject_cycle).
    let mut queues: Vec<VecDeque<u64>> = (0..cfg.nodes).map(|_| VecDeque::new()).collect();
    let mut lat = Streaming::new();
    let mut delivered = 0u64;
    let mut measuring = false;
    let total = warmup + measure;
    for cycle in 0..total {
        if cycle == warmup {
            measuring = true;
        }
        // Inject.
        for src in 0..cfg.nodes {
            if rng.chance(cfg.injection_rate) {
                if let Some(dst) = cfg.pattern.dest(&mesh, src, &mut rng) {
                    queues[dst].push_back(cycle);
                }
            }
        }
        // Each destination's receivers grant up to `receivers_per_node`
        // flits per cycle (single-hop transmission).
        for q in queues.iter_mut() {
            for _ in 0..cfg.receivers_per_node {
                if let Some(injected) = q.pop_front() {
                    if measuring && injected >= warmup {
                        // +1 cycle of flight.
                        lat.add((cycle - injected + 1) as f64);
                        delivered += 1;
                    }
                } else {
                    break;
                }
            }
        }
    }
    CrossbarResult {
        mean_latency: lat.mean(),
        throughput: delivered as f64 / measure as f64 / cfg.nodes as f64,
        delivered,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::load_sweep;

    #[test]
    fn uniform_traffic_is_single_hop() {
        let r = run_crossbar(
            CrossbarConfig {
                nodes: 64,
                injection_rate: 0.3,
                pattern: Pattern::Uniform,
                receivers_per_node: 1,
                seed: 1,
            },
            1_000,
            5_000,
        );
        // Mean latency ≈ 1-2 cycles (occasional receiver contention).
        assert!(r.mean_latency < 3.0, "lat={}", r.mean_latency);
        assert!((r.throughput - 0.3).abs() < 0.02);
    }

    #[test]
    fn crossbar_beats_mesh_at_high_uniform_load() {
        // The mesh saturates near its 0.5 bisection bound; the crossbar
        // keeps delivering at 0.7 with low latency.
        let mesh = load_sweep(Mesh::new_2d(8, 8), Pattern::Uniform, &[0.45], 2)[0];
        let xbar = run_crossbar(
            CrossbarConfig {
                nodes: 64,
                injection_rate: 0.45,
                pattern: Pattern::Uniform,
                receivers_per_node: 1,
                seed: 2,
            },
            1_000,
            8_000,
        );
        assert!(
            xbar.mean_latency < mesh.1 / 2.0,
            "xbar={} mesh={}",
            xbar.mean_latency,
            mesh.1
        );
        assert!(xbar.throughput > mesh.2);
    }

    #[test]
    fn hotspot_saturates_the_receiver_not_the_fabric() {
        // 40% of 64 nodes' traffic to one node at rate 0.2 ⇒ the hot
        // receiver is offered 64·0.2·0.4 ≈ 5.1 flits/cycle against 1
        // receiver: queues grow without bound.
        let r = run_crossbar(
            CrossbarConfig {
                nodes: 64,
                injection_rate: 0.2,
                pattern: Pattern::Hotspot {
                    node: 0,
                    permille: 400,
                },
                receivers_per_node: 1,
                seed: 3,
            },
            1_000,
            8_000,
        );
        assert!(r.mean_latency > 50.0, "lat={}", r.mean_latency);
        // Wavelength parallelism (8 receivers) rescues it.
        let wide = run_crossbar(
            CrossbarConfig {
                nodes: 64,
                injection_rate: 0.2,
                pattern: Pattern::Hotspot {
                    node: 0,
                    permille: 400,
                },
                receivers_per_node: 8,
                seed: 3,
            },
            1_000,
            8_000,
        );
        assert!(wide.mean_latency < r.mean_latency / 5.0);
    }

    #[test]
    fn determinism() {
        let cfg = CrossbarConfig {
            nodes: 16,
            injection_rate: 0.25,
            pattern: Pattern::Uniform,
            receivers_per_node: 1,
            seed: 9,
        };
        let a = run_crossbar(cfg, 500, 2_000);
        let b = run_crossbar(cfg, 500, 2_000);
        assert_eq!(a.delivered, b.delivered);
        assert_eq!(a.mean_latency, b.mean_latency);
    }
}
