//! Locality-aware task placement on a mesh.
//!
//! §2.1: *"a key challenge lies in reasoning about locality and enforcing
//! efficient locality properties … a burden which coordination of smart
//! tools, middleware and the architecture might alleviate."* §2.2: *"we
//! need research on how to minimize communication, since energy is largely
//! spent moving data."*
//!
//! The miniature: `t` tasks each read from one data shard; shards are
//! pinned to mesh nodes. A placement assigns each task a mesh node; the
//! cost of a placement is the total communication energy — bytes moved ×
//! hops × per-hop link energy. [`place_greedy`] puts each task as close to
//! its shard as capacity allows, [`place_random`] is the baseline; the
//! tests (and the E18 bench) quantify the gap.

use xxi_core::rng::Rng64;
use xxi_core::units::Energy;
use xxi_noc::link::Link;
use xxi_noc::topology::Mesh;

/// A task that reads `bytes` from data living on mesh node `shard`.
#[derive(Clone, Copy, Debug)]
pub struct Task {
    /// Mesh node holding this task's data.
    pub shard: usize,
    /// Bytes the task pulls from its shard.
    pub bytes: u64,
}

/// Greedy locality-aware placement: tasks (heaviest first) go to the free
/// slot nearest their shard. Each node holds at most `slots_per_node`
/// tasks. Returns one mesh node per task (task order preserved).
pub fn place_greedy(mesh: &Mesh, tasks: &[Task], slots_per_node: usize) -> Vec<usize> {
    assert!(
        slots_per_node * mesh.nodes() >= tasks.len(),
        "not enough slots"
    );
    let mut free = vec![slots_per_node; mesh.nodes()];
    let mut order: Vec<usize> = (0..tasks.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(tasks[i].bytes));
    let mut place = vec![usize::MAX; tasks.len()];
    for i in order {
        let shard = tasks[i].shard;
        let best = (0..mesh.nodes())
            .filter(|&n| free[n] > 0)
            .min_by_key(|&n| (mesh.hops(shard, n), n))
            .expect("capacity checked"); // xxi-allow: panic-path -- see the expect message
        free[best] -= 1;
        place[i] = best;
    }
    place
}

/// Uniform-random placement honoring the same capacity constraint.
pub fn place_random(
    mesh: &Mesh,
    tasks: &[Task],
    slots_per_node: usize,
    rng: &mut Rng64,
) -> Vec<usize> {
    assert!(
        slots_per_node * mesh.nodes() >= tasks.len(),
        "not enough slots"
    );
    let mut slots: Vec<usize> = (0..mesh.nodes())
        .flat_map(|n| std::iter::repeat_n(n, slots_per_node))
        .collect();
    rng.shuffle(&mut slots);
    tasks.iter().enumerate().map(|(i, _)| slots[i]).collect()
}

/// Total communication energy of a placement: per task,
/// `bytes × 8 × hops × link-energy-per-bit`.
pub fn placement_energy(mesh: &Mesh, tasks: &[Task], placement: &[usize], link: &Link) -> Energy {
    assert_eq!(tasks.len(), placement.len());
    let mut total = Energy::ZERO;
    for (t, &node) in tasks.iter().zip(placement) {
        let hops = mesh.hops(t.shard, node) as f64;
        total += link.transfer_energy(t.bytes * 8) * hops;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use xxi_noc::link::LinkKind;
    use xxi_tech::node::NodeDb;

    fn link() -> Link {
        Link::on(
            NodeDb::standard().by_name("22nm").unwrap(),
            LinkKind::Electrical { mm: 1.0 },
        )
    }

    fn tasks(mesh: &Mesh, n: usize, seed: u64) -> Vec<Task> {
        let mut rng = Rng64::new(seed);
        (0..n)
            .map(|_| Task {
                shard: rng.below(mesh.nodes() as u64) as usize,
                bytes: 1000 + rng.below(100_000),
            })
            .collect()
    }

    #[test]
    fn greedy_with_capacity_colocates_every_task() {
        let mesh = Mesh::new_2d(4, 4);
        let ts = tasks(&mesh, 16, 1);
        // One slot per node but shards may repeat; with ample slots (4)
        // every task lands on its shard.
        let p = place_greedy(&mesh, &ts, 4);
        for (t, &n) in ts.iter().zip(&p) {
            assert_eq!(mesh.hops(t.shard, n), 0);
        }
        let e = placement_energy(&mesh, &ts, &p, &link());
        assert_eq!(e, Energy::ZERO);
    }

    #[test]
    fn greedy_beats_random_substantially() {
        let mesh = Mesh::new_2d(8, 8);
        let ts = tasks(&mesh, 64, 2);
        let mut rng = Rng64::new(3);
        let greedy = placement_energy(&mesh, &ts, &place_greedy(&mesh, &ts, 1), &link());
        let random = placement_energy(&mesh, &ts, &place_random(&mesh, &ts, 1, &mut rng), &link());
        assert!(
            greedy.value() < 0.5 * random.value(),
            "greedy={greedy:?} random={random:?}"
        );
    }

    #[test]
    fn capacity_constraint_respected() {
        let mesh = Mesh::new_2d(4, 4);
        let ts = tasks(&mesh, 32, 4);
        for placement in [
            place_greedy(&mesh, &ts, 2),
            place_random(&mesh, &ts, 2, &mut Rng64::new(5)),
        ] {
            let mut counts = vec![0usize; mesh.nodes()];
            for &n in &placement {
                counts[n] += 1;
            }
            assert!(counts.iter().all(|&c| c <= 2), "{counts:?}");
        }
    }

    #[test]
    #[should_panic]
    fn insufficient_slots_rejected() {
        let mesh = Mesh::new_2d(2, 2);
        let ts = tasks(&mesh, 5, 6);
        place_greedy(&mesh, &ts, 1);
    }

    #[test]
    fn heavy_tasks_get_priority_for_near_slots() {
        let mesh = Mesh::new_2d(4, 1);
        // Two tasks want shard 0; only one slot there.
        let ts = vec![
            Task {
                shard: 0,
                bytes: 10,
            },
            Task {
                shard: 0,
                bytes: 1_000_000,
            },
        ];
        let p = place_greedy(&mesh, &ts, 1);
        // The heavy task gets node 0; the light one is displaced.
        assert_eq!(p[1], 0);
        assert_ne!(p[0], 0);
    }
}
