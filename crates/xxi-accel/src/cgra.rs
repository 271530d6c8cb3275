//! A coarse-grain reconfigurable array (CGRA) mapper.
//!
//! §2.2: *"Research in future accelerators will improve energy efficiency
//! using coarser-grain semi-programmable building blocks (reducing internal
//! inefficiencies) and packet-based interconnection (making more efficient
//! use of expensive wires)."*
//!
//! A CGRA is a grid of word-width function units (FUs) with a routed
//! interconnect. Mapping a dataflow graph onto the grid replaces
//! instruction delivery (the general-purpose tax) with static
//! configuration, at the cost of explicit operand routing. This module
//! implements the pieces that make that trade quantitative:
//!
//! * a [`DataflowGraph`] representation with cycle detection and
//!   topological scheduling;
//! * a greedy placer that puts each operation on the free FU minimizing
//!   Manhattan distance to its producers;
//! * energy accounting: FU ops at near-functional energy, routing at
//!   per-hop wire energy, plus a configuration overhead amortized over
//!   iterations.

use std::collections::VecDeque;

use xxi_core::units::Energy;
use xxi_core::{Result, XxiError};
use xxi_tech::node::TechNode;
use xxi_tech::ops::OpEnergies;

/// A dataflow graph: nodes are word-level operations, edges are data
/// dependences.
#[derive(Clone, Debug, Default)]
pub struct DataflowGraph {
    /// `preds[v]` lists the producers of node `v`.
    preds: Vec<Vec<usize>>,
}

impl DataflowGraph {
    /// An empty graph.
    pub fn new() -> DataflowGraph {
        DataflowGraph::default()
    }

    /// Add an operation with the given producer nodes; returns its id.
    pub fn op(&mut self, producers: &[usize]) -> usize {
        let id = self.preds.len();
        for &p in producers {
            assert!(p < id, "producer {p} must precede consumer {id}");
        }
        self.preds.push(producers.to_vec());
        id
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.preds.len()
    }

    /// True when the graph has no operations.
    pub fn is_empty(&self) -> bool {
        self.preds.is_empty()
    }

    /// Producers of `v`.
    pub fn producers(&self, v: usize) -> &[usize] {
        &self.preds[v]
    }

    /// Topological order (construction guarantees acyclicity; this returns
    /// ids in dependence-respecting order — by construction, 0..n).
    pub fn topo_order(&self) -> Vec<usize> {
        (0..self.len()).collect()
    }

    /// A balanced reduction tree over `leaves` inputs.
    pub fn reduction_tree(leaves: usize) -> DataflowGraph {
        assert!(leaves >= 1);
        let mut g = DataflowGraph::new();
        let mut frontier: VecDeque<usize> = (0..leaves).map(|_| g.op(&[])).collect();
        while frontier.len() > 1 {
            let a = frontier.pop_front().unwrap(); // xxi-allow: panic-path -- loop guard keeps two elements
            let b = frontier.pop_front().unwrap(); // xxi-allow: panic-path -- loop guard keeps two elements
            frontier.push_back(g.op(&[a, b]));
        }
        g
    }
}

/// A CGRA instance: a `w × h` grid of function units.
#[derive(Clone, Debug)]
pub struct Cgra {
    /// Grid width.
    pub w: usize,
    /// Grid height.
    pub h: usize,
    /// Technology node.
    pub node: TechNode,
}

/// Result of mapping a graph onto a CGRA.
#[derive(Clone, Debug)]
pub struct Mapping {
    /// FU coordinates per op, in op order.
    pub place: Vec<(usize, usize)>,
    /// Total Manhattan routing hops across all edges.
    pub total_hops: usize,
}

impl Cgra {
    /// A `w × h` CGRA on `node`.
    pub fn new(w: usize, h: usize, node: TechNode) -> Cgra {
        assert!(w > 0 && h > 0);
        Cgra { w, h, node }
    }

    /// Number of FUs.
    pub fn fus(&self) -> usize {
        self.w * self.h
    }

    /// Greedily place `g`: ops in topological order, each on the free FU
    /// minimizing total Manhattan distance to its already-placed producers
    /// (ties: row-major order, so placement is deterministic).
    pub fn map(&self, g: &DataflowGraph) -> Result<Mapping> {
        if g.len() > self.fus() {
            return Err(XxiError::capacity(format!(
                "graph has {} ops but CGRA has {} FUs",
                g.len(),
                self.fus()
            )));
        }
        let mut place: Vec<(usize, usize)> = Vec::with_capacity(g.len());
        let mut used = vec![false; self.fus()];
        let mut total_hops = 0usize;
        for v in g.topo_order() {
            let mut best: Option<(usize, usize, usize)> = None; // (cost, x, y)
            for y in 0..self.h {
                for x in 0..self.w {
                    if used[y * self.w + x] {
                        continue;
                    }
                    let cost: usize = g
                        .producers(v)
                        .iter()
                        .map(|&p| {
                            let (px, py) = place[p];
                            px.abs_diff(x) + py.abs_diff(y)
                        })
                        .sum();
                    match best {
                        None => best = Some((cost, x, y)),
                        Some((c, _, _)) if cost < c => best = Some((cost, x, y)),
                        _ => {}
                    }
                }
            }
            let (cost, x, y) = best.expect("capacity checked above"); // xxi-allow: panic-path -- see the expect message
            used[y * self.w + x] = true;
            place.push((x, y));
            total_hops += cost;
        }
        Ok(Mapping { place, total_hops })
    }

    /// Energy per graph execution on the CGRA: per-op functional energy
    /// (in-order-free, ×1.2 for the semi-programmable FU tax) plus per-hop
    /// routing energy, plus configuration energy amortized over
    /// `iterations` executions of the same configuration.
    pub fn energy_per_execution(
        &self,
        g: &DataflowGraph,
        mapping: &Mapping,
        iterations: u64,
    ) -> Energy {
        assert!(iterations >= 1);
        let ops = OpEnergies::at(&self.node);
        // Semi-programmable FU: functional energy with a 20% mux/config tax.
        let fu = ops.fp_fma * 1.2;
        // Per-hop routing ≈ 10% of an FMA (word-width switch + short wire).
        let hop = ops.fp_fma * 0.1;
        // Configuring one FU costs ~20 FMA-equivalents (bitstream write).
        let config = ops.fp_fma * 20.0 * g.len() as f64 / iterations as f64;
        fu * g.len() as f64 + hop * mapping.total_hops as f64 + config
    }

    /// Energy per execution of the same graph on a scalar OoO core
    /// (baseline for the efficiency factor).
    pub fn cpu_energy_per_execution(&self, g: &DataflowGraph) -> Energy {
        let ops = OpEnergies::at(&self.node);
        (ops.fp_fma + ops.ooo_overhead) * g.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A linear chain of `n` dependent ops (worst case for parallelism).
    fn chain(n: usize) -> DataflowGraph {
        let mut g = DataflowGraph::new();
        let mut prev: Option<usize> = None;
        for _ in 0..n {
            let id = match prev {
                None => g.op(&[]),
                Some(p) => g.op(&[p]),
            };
            prev = Some(id);
        }
        g
    }
    use xxi_tech::node::NodeDb;

    fn cgra(w: usize, h: usize) -> Cgra {
        Cgra::new(w, h, NodeDb::standard().by_name("45nm").unwrap().clone())
    }

    #[test]
    fn graph_construction_and_topology() {
        let mut g = DataflowGraph::new();
        let a = g.op(&[]);
        let b = g.op(&[]);
        let c = g.op(&[a, b]);
        let d = g.op(&[c]);
        assert_eq!(g.len(), 4);
        assert_eq!(g.producers(c), &[a, b]);
        assert_eq!(g.producers(d), &[c]);
    }

    #[test]
    #[should_panic]
    fn forward_references_rejected() {
        let mut g = DataflowGraph::new();
        g.op(&[3]);
    }

    #[test]
    fn chain_and_tree_builders() {
        let chain = chain(5);
        assert_eq!(chain.len(), 5);
        assert_eq!(chain.producers(4), &[3]);
        let tree = DataflowGraph::reduction_tree(8);
        assert_eq!(tree.len(), 15); // 8 leaves + 7 internal
        assert!(tree.producers(14).len() == 2);
    }

    #[test]
    fn mapping_respects_capacity() {
        let c = cgra(2, 2);
        assert!(c.map(&chain(4)).is_ok());
        assert!(c.map(&chain(5)).is_err());
    }

    #[test]
    fn placement_is_injective() {
        let c = cgra(4, 4);
        let g = DataflowGraph::reduction_tree(8);
        let m = c.map(&g).unwrap();
        let mut seen = std::collections::HashSet::new();
        for &p in &m.place {
            assert!(seen.insert(p), "two ops on one FU");
            assert!(p.0 < 4 && p.1 < 4);
        }
    }

    #[test]
    fn chain_placement_uses_adjacent_fus() {
        // A dependence chain should route mostly single hops.
        let c = cgra(4, 4);
        let g = chain(16);
        let m = c.map(&g).unwrap();
        // 15 edges; greedy snake placement keeps mean hop distance small.
        assert!(m.total_hops <= 2 * 15, "hops={}", m.total_hops);
    }

    #[test]
    fn cgra_beats_cpu_when_config_amortized() {
        let c = cgra(8, 8);
        let g = DataflowGraph::reduction_tree(32);
        let m = c.map(&g).unwrap();
        let cpu = c.cpu_energy_per_execution(&g);
        let once = c.energy_per_execution(&g, &m, 1);
        let amortized = c.energy_per_execution(&g, &m, 100_000);
        // One-shot execution is dominated by configuration cost.
        assert!(once.value() > amortized.value());
        // Amortized, the CGRA lands in the published 5-30× band over a CPU.
        let factor = cpu.value() / amortized.value();
        assert!((4.0..40.0).contains(&factor), "factor={factor}");
        // But below the ASIC's ~100× (the semi-programmable tax).
        assert!(factor < 100.0);
    }

    #[test]
    fn routing_energy_visible_for_spread_graphs() {
        let c = cgra(8, 8);
        let tight = chain(8);
        let mt = c.map(&tight).unwrap();
        // A graph where every op depends on op 0 forces long routes.
        let mut star = DataflowGraph::new();
        let hub = star.op(&[]);
        for _ in 0..30 {
            star.op(&[hub]);
        }
        let ms = c.map(&star).unwrap();
        let hops_per_edge_tight = mt.total_hops as f64 / 7.0;
        let hops_per_edge_star = ms.total_hops as f64 / 30.0;
        assert!(hops_per_edge_star > hops_per_edge_tight);
    }
}
