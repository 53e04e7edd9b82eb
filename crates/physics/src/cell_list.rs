//! Cell lists (linked-cell method) for O(n) neighbor finding under a cutoff.
//!
//! This is the substrate behind the fast serial cutoff engine and the
//! spatial-reassignment step of the distributed cutoff algorithms. Cells are
//! at least `r_c` wide, so all neighbors of a particle lie in the 3x3 block
//! of cells around it (or the 3-cell window in 1D mode).

use crate::domain::{Boundary, Domain};
use crate::force::ForceLaw;
use crate::particle::Particle;

/// A uniform grid of cells over a domain, indexing particles by position.
#[derive(Debug)]
pub struct CellList {
    domain: Domain,
    nx: usize,
    ny: usize,
    /// `cells[cy * nx + cx]` holds indices into the particle slice.
    cells: Vec<Vec<usize>>,
    periodic: bool,
}

impl CellList {
    /// Build a cell list whose cells are at least `min_cell` wide in each
    /// axis. `periodic` controls whether neighbor stencils wrap.
    pub fn build(particles: &[Particle], domain: &Domain, min_cell: f64, periodic: bool) -> Self {
        assert!(min_cell > 0.0, "cell size must be positive");
        let ext = domain.extent();
        let nx = ((ext.x / min_cell).floor() as usize).max(1);
        let ny = ((ext.y / min_cell).floor() as usize).max(1);
        let mut cells = vec![Vec::new(); nx * ny];
        for (idx, p) in particles.iter().enumerate() {
            let (cx, cy) = Self::cell_of(domain, nx, ny, p.pos.x, p.pos.y);
            cells[cy * nx + cx].push(idx);
        }
        CellList {
            domain: *domain,
            nx,
            ny,
            cells,
            periodic,
        }
    }

    fn cell_of(domain: &Domain, nx: usize, ny: usize, x: f64, y: f64) -> (usize, usize) {
        let ext = domain.extent();
        let fx = ((x - domain.min.x) / ext.x * nx as f64).floor();
        let fy = ((y - domain.min.y) / ext.y * ny as f64).floor();
        let cx = (fx as isize).clamp(0, nx as isize - 1) as usize;
        let cy = (fy as isize).clamp(0, ny as isize - 1) as usize;
        (cx, cy)
    }

    /// Grid dimensions `(nx, ny)`.
    pub fn dims(&self) -> (usize, usize) {
        (self.nx, self.ny)
    }

    /// Indices of particles in the 3x3 stencil around the cell containing
    /// `(x, y)` (clipped or wrapped at the boundary), including the center
    /// cell. The same particle is never yielded twice.
    pub fn neighborhood(&self, x: f64, y: f64) -> Vec<usize> {
        let (cx, cy) = Self::cell_of(&self.domain, self.nx, self.ny, x, y);
        let mut out = Vec::new();
        let mut visited = Vec::with_capacity(9);
        for dy in -1i64..=1 {
            for dx in -1i64..=1 {
                let (gx, gy) = if self.periodic {
                    (
                        (cx as i64 + dx).rem_euclid(self.nx as i64) as usize,
                        (cy as i64 + dy).rem_euclid(self.ny as i64) as usize,
                    )
                } else {
                    let gx = cx as i64 + dx;
                    let gy = cy as i64 + dy;
                    if gx < 0 || gy < 0 || gx >= self.nx as i64 || gy >= self.ny as i64 {
                        continue;
                    }
                    (gx as usize, gy as usize)
                };
                let key = gy * self.nx + gx;
                if visited.contains(&key) {
                    continue; // wrap-around can alias cells on tiny grids
                }
                visited.push(key);
                out.extend_from_slice(&self.cells[key]);
            }
        }
        out
    }
}

/// Accumulate cutoff forces using a cell list. Produces the same interaction
/// set as the O(n^2) reference when the law's cutoff fits in one cell width;
/// per-particle accumulation order may differ, so floating-point results can
/// differ in the last bits.
pub fn accumulate_forces_cell_list<F: ForceLaw>(
    particles: &mut [Particle],
    law: &F,
    domain: &Domain,
    boundary: Boundary,
) {
    let r_c = law
        .cutoff()
        .expect("cell-list accumulation requires a force law with a cutoff");
    let periodic = boundary == Boundary::Periodic;
    let cl = CellList::build(particles, domain, r_c, periodic);
    for i in 0..particles.len() {
        let target = particles[i];
        let mut acc = target.force;
        for j in cl.neighborhood(target.pos.x, target.pos.y) {
            if j == i {
                continue;
            }
            let source = &particles[j];
            let disp = boundary.displacement(domain, target.pos, source.pos);
            acc += law.force(&target, source, disp);
        }
        particles[i].force = acc;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::force::{Counting, Cutoff};
    use crate::init;
    use crate::particle::reset_forces;
    use crate::reference;

    #[test]
    fn dims_respect_min_cell() {
        let d = Domain::square(1.0);
        let ps = init::uniform(10, &d, 0);
        let cl = CellList::build(&ps, &d, 0.25, false);
        assert_eq!(cl.dims(), (4, 4));
        let cl2 = CellList::build(&ps, &d, 0.3, false);
        assert_eq!(cl2.dims(), (3, 3));
        // min_cell larger than the domain: a single cell.
        let cl3 = CellList::build(&ps, &d, 5.0, false);
        assert_eq!(cl3.dims(), (1, 1));
    }

    #[test]
    fn neighborhood_covers_all_in_single_cell() {
        let d = Domain::square(1.0);
        let ps = init::uniform(20, &d, 0);
        let cl = CellList::build(&ps, &d, 5.0, false);
        let hood = cl.neighborhood(0.5, 0.5);
        assert_eq!(hood.len(), 20);
    }

    #[test]
    fn matches_reference_counts_open() {
        let d = Domain::square(1.0);
        let mut a = init::uniform(120, &d, 42);
        let mut b = a.clone();
        let law = Cutoff::new(Counting, 0.19);

        reference::accumulate_forces(&mut a, &law, &d, Boundary::Open);
        accumulate_forces_cell_list(&mut b, &law, &d, Boundary::Open);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.force, y.force, "particle {}", x.id);
        }
    }

    #[test]
    fn matches_reference_counts_periodic() {
        let d = Domain::square(1.0);
        let mut a = init::uniform(100, &d, 7);
        let mut b = a.clone();
        let law = Cutoff::new(Counting, 0.24);

        reference::accumulate_forces(&mut a, &law, &d, Boundary::Periodic);
        accumulate_forces_cell_list(&mut b, &law, &d, Boundary::Periodic);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.force, y.force, "particle {}", x.id);
        }
    }

    #[test]
    fn periodic_tiny_grid_no_double_count() {
        // 2-cell-wide periodic grid: the wrap stencil aliases; ensure no
        // particle is visited twice.
        let d = Domain::square(1.0);
        let mut a = init::uniform(30, &d, 3);
        let mut b = a.clone();
        let law = Cutoff::new(Counting, 0.45); // 2x2 cells

        reference::accumulate_forces(&mut a, &law, &d, Boundary::Periodic);
        accumulate_forces_cell_list(&mut b, &law, &d, Boundary::Periodic);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.force, y.force, "particle {}", x.id);
        }
    }

    #[test]
    fn repeated_accumulation_is_additive() {
        let d = Domain::square(1.0);
        let mut ps = init::uniform(25, &d, 9);
        let law = Cutoff::new(Counting, 0.2);
        accumulate_forces_cell_list(&mut ps, &law, &d, Boundary::Open);
        let first: Vec<f64> = ps.iter().map(|p| p.force.x).collect();
        accumulate_forces_cell_list(&mut ps, &law, &d, Boundary::Open);
        for (p, f) in ps.iter().zip(&first) {
            assert_eq!(p.force.x, 2.0 * f);
        }
        reset_forces(&mut ps);
        assert!(ps.iter().all(|p| p.force.x == 0.0));
    }
}
