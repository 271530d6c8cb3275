//! Mesh topologies (2D and 3D-stacked) with dimension-order routing.

/// Router port / hop direction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Dir {
    /// +x
    East,
    /// −x
    West,
    /// +y
    North,
    /// −y
    South,
    /// +z (to the die above, via TSV)
    Up,
    /// −z
    Down,
    /// Ejection to the local node.
    Local,
}

impl Dir {
    /// All seven ports in a fixed order (indexable).
    pub const ALL: [Dir; 7] = [
        Dir::East,
        Dir::West,
        Dir::North,
        Dir::South,
        Dir::Up,
        Dir::Down,
        Dir::Local,
    ];

    /// Index of this port in [`Dir::ALL`].
    pub fn index(self) -> usize {
        match self {
            Dir::East => 0,
            Dir::West => 1,
            Dir::North => 2,
            Dir::South => 3,
            Dir::Up => 4,
            Dir::Down => 5,
            Dir::Local => 6,
        }
    }

    /// The port on the receiving router that a flit leaving through `self`
    /// arrives on.
    pub fn opposite(self) -> Dir {
        match self {
            Dir::East => Dir::West,
            Dir::West => Dir::East,
            Dir::North => Dir::South,
            Dir::South => Dir::North,
            Dir::Up => Dir::Down,
            Dir::Down => Dir::Up,
            Dir::Local => Dir::Local,
        }
    }
}

/// A `w × h × d` mesh (set `d = 1` for a planar 2D mesh).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Mesh {
    /// X dimension.
    pub w: usize,
    /// Y dimension.
    pub h: usize,
    /// Z dimension (stacked dies).
    pub d: usize,
}

impl Mesh {
    /// A planar 2D mesh.
    pub fn new_2d(w: usize, h: usize) -> Mesh {
        Mesh { w, h, d: 1 }
    }

    /// A 3D-stacked mesh of `d` dies.
    pub fn new_3d(w: usize, h: usize, d: usize) -> Mesh {
        assert!(w > 0 && h > 0 && d > 0);
        Mesh { w, h, d }
    }

    /// Number of routers.
    pub fn nodes(&self) -> usize {
        self.w * self.h * self.d
    }

    /// Coordinates of router `id`.
    pub fn coords(&self, id: usize) -> (usize, usize, usize) {
        assert!(id < self.nodes());
        let layer = self.w * self.h;
        (id % self.w, (id / self.w) % self.h, id / layer)
    }

    /// Router id at `(x, y, z)`.
    pub fn id(&self, x: usize, y: usize, z: usize) -> usize {
        assert!(x < self.w && y < self.h && z < self.d);
        z * self.w * self.h + y * self.w + x
    }

    /// Next hop under XYZ dimension-order routing (deadlock-free on a
    /// mesh); `Dir::Local` when `cur == dest`.
    pub fn route(&self, cur: usize, dest: usize) -> Dir {
        let (cx, cy, cz) = self.coords(cur);
        let (dx, dy, dz) = self.coords(dest);
        if cx < dx {
            Dir::East
        } else if cx > dx {
            Dir::West
        } else if cy < dy {
            Dir::North
        } else if cy > dy {
            Dir::South
        } else if cz < dz {
            Dir::Up
        } else if cz > dz {
            Dir::Down
        } else {
            Dir::Local
        }
    }

    /// The router reached from `cur` through port `dir`.
    pub fn neighbor(&self, cur: usize, dir: Dir) -> Option<usize> {
        let (x, y, z) = self.coords(cur);
        let c = match dir {
            Dir::East if x + 1 < self.w => (x + 1, y, z),
            Dir::West if x > 0 => (x - 1, y, z),
            Dir::North if y + 1 < self.h => (x, y + 1, z),
            Dir::South if y > 0 => (x, y - 1, z),
            Dir::Up if z + 1 < self.d => (x, y, z + 1),
            Dir::Down if z > 0 => (x, y, z - 1),
            _ => return None,
        };
        Some(self.id(c.0, c.1, c.2))
    }

    /// Manhattan hop distance.
    pub fn hops(&self, a: usize, b: usize) -> usize {
        let (ax, ay, az) = self.coords(a);
        let (bx, by, bz) = self.coords(b);
        ax.abs_diff(bx) + ay.abs_diff(by) + az.abs_diff(bz)
    }

    /// Number of planar links crossing the bisection (cut perpendicular to
    /// the longest planar dimension), per direction.
    pub fn bisection_links(&self) -> usize {
        if self.w >= self.h {
            self.h * self.d
        } else {
            self.w * self.d
        }
    }

    /// Exact mean hop distance between two uniformly random (possibly
    /// equal) routers: sum over dimensions of `(k² − 1)/(3k)` for dimension
    /// size `k`.
    pub fn mean_hops_uniform(&self) -> f64 {
        let dim = |k: usize| {
            let k = k as f64;
            (k * k - 1.0) / (3.0 * k)
        };
        dim(self.w) + dim(self.h) + dim(self.d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_and_coords_roundtrip() {
        let m = Mesh::new_3d(4, 3, 2);
        assert_eq!(m.nodes(), 24);
        for id in 0..m.nodes() {
            let (x, y, z) = m.coords(id);
            assert_eq!(m.id(x, y, z), id);
        }
    }

    #[test]
    fn xyz_routing_reaches_destination() {
        let m = Mesh::new_3d(5, 4, 3);
        for src in 0..m.nodes() {
            for dst in 0..m.nodes() {
                let mut cur = src;
                let mut steps = 0;
                loop {
                    let d = m.route(cur, dst);
                    if d == Dir::Local {
                        break;
                    }
                    cur = m.neighbor(cur, d).expect("route fell off the mesh");
                    steps += 1;
                    assert!(steps <= 20, "routing loop {src}->{dst}");
                }
                assert_eq!(cur, dst);
                assert_eq!(steps, m.hops(src, dst), "XYZ routing is minimal");
            }
        }
    }

    #[test]
    fn x_strictly_before_y_before_z() {
        let m = Mesh::new_3d(3, 3, 2);
        let src = m.id(0, 0, 0);
        let dst = m.id(2, 2, 1);
        assert_eq!(m.route(src, dst), Dir::East);
        let mid = m.id(2, 0, 0);
        assert_eq!(m.route(mid, dst), Dir::North);
        let mid2 = m.id(2, 2, 0);
        assert_eq!(m.route(mid2, dst), Dir::Up);
    }

    #[test]
    fn neighbors_respect_edges() {
        let m = Mesh::new_2d(3, 3);
        let corner = m.id(0, 0, 0);
        assert_eq!(m.neighbor(corner, Dir::West), None);
        assert_eq!(m.neighbor(corner, Dir::South), None);
        assert_eq!(m.neighbor(corner, Dir::Up), None);
        assert_eq!(m.neighbor(corner, Dir::East), Some(m.id(1, 0, 0)));
        assert_eq!(m.neighbor(corner, Dir::North), Some(m.id(0, 1, 0)));
    }

    #[test]
    fn opposite_ports_pair_up() {
        for d in Dir::ALL {
            assert_eq!(d.opposite().opposite(), d);
        }
        assert_eq!(Dir::East.opposite(), Dir::West);
        assert_eq!(Dir::Up.opposite(), Dir::Down);
    }

    #[test]
    fn mean_hops_formula_matches_brute_force() {
        let m = Mesh::new_3d(4, 3, 2);
        let n = m.nodes();
        let mut total = 0usize;
        for a in 0..n {
            for b in 0..n {
                total += m.hops(a, b);
            }
        }
        let brute = total as f64 / (n * n) as f64;
        assert!(
            (m.mean_hops_uniform() - brute).abs() < 1e-9,
            "formula={} brute={brute}",
            m.mean_hops_uniform()
        );
    }

    #[test]
    fn stacking_shrinks_mean_distance_for_equal_node_count() {
        // 64 nodes: 8×8 planar vs 4×4×4 stacked — the 3D-stacking claim.
        let planar = Mesh::new_2d(8, 8);
        let stacked = Mesh::new_3d(4, 4, 4);
        assert_eq!(planar.nodes(), stacked.nodes());
        assert!(stacked.mean_hops_uniform() < planar.mean_hops_uniform());
    }

    #[test]
    fn bisection_links() {
        assert_eq!(Mesh::new_2d(8, 8).bisection_links(), 8);
        assert_eq!(Mesh::new_2d(8, 4).bisection_links(), 4);
        assert_eq!(Mesh::new_3d(4, 4, 4).bisection_links(), 16);
    }
}
