//! 3D torus topology: node placement and hop distances.
//!
//! Both experimental machines connect nodes in a 3D torus (Hopper via Cray
//! Gemini, Intrepid via the BlueGene/P torus). Ranks map to nodes
//! contiguously (`cores_per_node` ranks per node, the default MPI
//! placement), nodes map to torus coordinates row-major, and message
//! latency grows with the minimal hop distance.

/// A 3D torus of `dims[0] * dims[1] * dims[2]` nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Torus {
    /// Torus dimensions.
    pub dims: [usize; 3],
}

impl Torus {
    /// A torus with the given dimensions.
    pub fn new(dims: [usize; 3]) -> Self {
        assert!(dims.iter().all(|&d| d > 0), "degenerate torus {dims:?}");
        Torus { dims }
    }

    /// Factor `nodes` into a near-cubic torus (largest factor last).
    /// Non-factorable remainders fall back to a elongated shape; the exact
    /// shape only perturbs hop counts by small constants.
    pub fn fit(nodes: usize) -> Self {
        assert!(nodes > 0);
        let mut best = [1, 1, nodes];
        let mut best_score = usize::MAX;
        let mut a = 1;
        while a * a * a <= nodes {
            if nodes.is_multiple_of(a) {
                let rest = nodes / a;
                let mut b = a;
                while b * b <= rest {
                    if rest.is_multiple_of(b) {
                        let c = rest / b;
                        // Prefer balanced shapes: minimize max - min.
                        let score = c - a;
                        if score < best_score {
                            best_score = score;
                            best = [a, b, c];
                        }
                    }
                    b += 1;
                }
            }
            a += 1;
        }
        Torus::new(best)
    }

    /// Total nodes.
    pub fn nodes(&self) -> usize {
        self.dims[0] * self.dims[1] * self.dims[2]
    }

    /// Coordinates of node `id` (row-major).
    pub fn coords(&self, id: usize) -> [usize; 3] {
        debug_assert!(id < self.nodes());
        let [dx, dy, _] = self.dims;
        [id % dx, (id / dx) % dy, id / (dx * dy)]
    }

    /// Minimal hop distance between two nodes (per-axis wrap-around).
    pub fn hops(&self, a: usize, b: usize) -> usize {
        self.hops_coords(self.coords(a), self.coords(b))
    }

    /// Hop distance between two precomputed coordinate triples.
    #[inline]
    pub fn hops_coords(&self, ca: [usize; 3], cb: [usize; 3]) -> usize {
        (0..3)
            .map(|i| {
                let d = ca[i].abs_diff(cb[i]);
                d.min(self.dims[i] - d)
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_produces_exact_factorization() {
        for nodes in [1, 2, 8, 64, 100, 1024, 683, 1365] {
            let t = Torus::fit(nodes);
            assert_eq!(t.nodes(), nodes, "{:?}", t.dims);
        }
    }

    #[test]
    fn fit_prefers_cubes() {
        assert_eq!(Torus::fit(64).dims, [4, 4, 4]);
        assert_eq!(Torus::fit(8).dims, [2, 2, 2]);
        assert_eq!(Torus::fit(512).dims, [8, 8, 8]);
    }

    #[test]
    fn coords_roundtrip() {
        let t = Torus::new([3, 4, 5]);
        for id in 0..t.nodes() {
            let [x, y, z] = t.coords(id);
            assert_eq!(x + y * 3 + z * 12, id);
        }
    }

    #[test]
    fn hops_wrap_around() {
        let t = Torus::new([8, 1, 1]);
        assert_eq!(t.hops(0, 1), 1);
        assert_eq!(t.hops(0, 7), 1, "wraps around");
        assert_eq!(t.hops(0, 4), 4);
        assert_eq!(t.hops(2, 2), 0);
    }

    #[test]
    fn hops_symmetric_and_triangle() {
        let t = Torus::new([4, 4, 4]);
        for a in [0, 13, 37, 63] {
            for b in [0, 5, 21, 62] {
                assert_eq!(t.hops(a, b), t.hops(b, a));
                for c in [7, 31] {
                    assert!(t.hops(a, b) <= t.hops(a, c) + t.hops(c, b));
                }
            }
        }
    }
}
