//! Algorithm 1: the communication-avoiding all-pairs interaction algorithm.
//!
//! ```text
//! S' = CA-ALL-PAIRS-N-BODY(S, c)
//!   1 // In parallel on all processors:
//!   2 Broadcast St from team leader to team members.
//!   3 Copy St to exchange buffer St' of size nc/p.
//!   4 Given a k-th-row processor, shift St' by k along row.
//!   5 for p/c² steps do
//!   6   Shift St' by c along row.
//!   7   Update particles in St based on effect of St'.
//!   8 end for
//!   9 Sum-reduce updates within team.
//! ```
//!
//! After the skew (line 4), the row-`k` processor of team `t` holds the
//! exchange buffer of team `t − k (mod p/c)`; each shift by `c` moves
//! buffers one stride east, so over `p/c²` steps row `k` evaluates the
//! source blocks at offsets `{k + c, k + 2c, …, k + p/c ≡ k}` — the rows of
//! a team together cover every team's block exactly once. The final
//! reduction sums the per-row partial forces on the team leader.
//!
//! That listing is Algorithm 2's minus the words "modulo the cutoff
//! window", and it is executed as such: the window is the full ring of
//! `p/c` teams ([`TeamWindow::ring`]), on which position `j` *is* offset
//! `j`, and the shift body, the broadcast and the reduction are
//! [`cutoff`](crate::cutoff)'s. What stays Algorithm 1's own is the
//! layout: id blocks that nobody re-orders or re-assigns, and a ring that
//! wraps whatever the boundary condition of the physics (DESIGN.md §15.1).
//! The tests below are its oracle.
//!
//! Setting `c = 1` degenerates to Plimpton's particle decomposition
//! (a ring pipeline); `c = √p` to his force decomposition. There the one
//! shift step takes each buffer once around the `√p`-team ring and back to
//! the rank that holds it: row 0 ships its block home, and every other row
//! updates from the block its skew brought and sends nothing more. A rank
//! then sends one skew or one shift a step besides the collectives, Eq. 5's
//! `p/c² + O(log c)`. At `c = 1` on the half of the ring
//! ([`Method::ParticleRingSymmetric`](crate::sim::Method::ParticleRingSymmetric))
//! it is his half-ring, the Newton's-third-law saving §III.C declines: a
//! block travels `⌊p/2⌋` hops and its reactions go home in one return.

use nbody_comm::Communicator;
use nbody_physics::{Boundary, Domain, ForceLaw, Particle};

use crate::cutoff::ca_forces;
use crate::grid::GridComms;
use crate::window::TeamWindow;

/// One force evaluation of Algorithm 1.
///
/// On entry, each team leader's `st` holds its id-block subset with force
/// accumulators cleared; `st` must be empty on non-leaders. On exit, the
/// leader's `st` holds the subset with the total force from all `n`
/// particles accumulated; non-leader contents are unspecified.
///
/// The communication schedule is *identical on every rank* (as in the
/// paper's SPMD code): broadcast, skew, `p/c²` shift+update steps, reduce.
pub fn ca_all_pairs_forces<C: Communicator, F: ForceLaw>(
    gc: &GridComms<C>,
    st: &mut Vec<Particle>,
    law: &F,
    domain: &Domain,
    boundary: Boundary,
) {
    let ring = TeamWindow::ring(gc.grid.teams());
    ca_forces(gc, &ring, st, law, domain, boundary);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::id_block_subset;
    use crate::grid::ProcGrid;
    use nbody_comm::{run_ranks, Phase};
    use nbody_physics::{init, reference, Counting, Gravity, RepulsiveInverseSquare};

    /// Run the CA all-pairs force evaluation on `p` ranks with replication
    /// `c`, returning the gathered, id-sorted particles.
    fn run_ca<F: ForceLaw + Clone + Send + Sync>(
        p: usize,
        c: usize,
        n: usize,
        seed: u64,
        law: F,
    ) -> Vec<Particle> {
        let domain = Domain::unit();
        let grid = ProcGrid::new_all_pairs(p, c).unwrap();
        let out = run_ranks(p, |world| {
            let gc = GridComms::new(world, grid);
            // Deterministic generation: every rank derives the full initial
            // population, leaders keep their block.
            let all = init::uniform(n, &domain, seed);
            let mut st = if gc.is_leader() {
                id_block_subset(&all, grid.teams(), gc.team())
            } else {
                Vec::new()
            };
            ca_all_pairs_forces(&gc, &mut st, &law, &domain, Boundary::Open);
            if gc.is_leader() {
                st
            } else {
                Vec::new()
            }
        });
        let mut flat: Vec<Particle> = out.into_iter().flatten().collect();
        flat.sort_by_key(|p| p.id);
        flat
    }

    fn serial(n: usize, seed: u64, law: &impl ForceLaw) -> Vec<Particle> {
        let domain = Domain::unit();
        let mut all = init::uniform(n, &domain, seed);
        reference::accumulate_forces(&mut all, law, &domain, Boundary::Open);
        all
    }

    #[test]
    fn counting_exact_across_grids() {
        // Every particle must see exactly n-1 sources, for every valid (p, c).
        for (p, c) in [
            (1, 1),
            (2, 1),
            (4, 1),
            (4, 2),
            (8, 2),
            (9, 3),
            (16, 2),
            (16, 4),
        ] {
            for n in [16, 23] {
                let got = run_ca(p, c, n, 42, Counting);
                assert_eq!(got.len(), n);
                for q in &got {
                    assert_eq!(q.force.x, (n - 1) as f64, "p={p} c={c} n={n} id={}", q.id);
                    assert_eq!(q.force.y, 0.0);
                }
            }
        }
    }

    #[test]
    fn physical_forces_match_serial() {
        let law = RepulsiveInverseSquare::default();
        let want = serial(24, 7, &law);
        for (p, c) in [(4, 2), (8, 2), (16, 4)] {
            let got = run_ca(p, c, 24, 7, law);
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.id, w.id);
                let err = (g.force - w.force).norm();
                assert!(
                    err <= 1e-12 * w.force.norm().max(1e-30),
                    "p={p} c={c} id={} err={err}",
                    g.id
                );
            }
        }
    }

    #[test]
    fn gravity_masses_match_serial() {
        let domain = Domain::unit();
        let law = Gravity::default();
        let n = 18;
        // Heterogeneous masses exercise the mass term in the kernel.
        let mut all = init::uniform(n, &domain, 3);
        for (i, p) in all.iter_mut().enumerate() {
            *p = p.with_mass(1.0 + (i % 5) as f64);
        }
        let mut want = all.clone();
        reference::accumulate_forces(&mut want, &law, &domain, Boundary::Open);

        let grid = ProcGrid::new_all_pairs(9, 3).unwrap();
        let out = run_ranks(9, |world| {
            let gc = GridComms::new(world, grid);
            let mut local = all.clone();
            let mut st = if gc.is_leader() {
                id_block_subset(&local, grid.teams(), gc.team())
            } else {
                Vec::new()
            };
            ca_all_pairs_forces(&gc, &mut st, &law, &domain, Boundary::Open);
            local.clear();
            if gc.is_leader() {
                st
            } else {
                local
            }
        });
        let mut got: Vec<Particle> = out.into_iter().flatten().collect();
        got.sort_by_key(|p| p.id);
        for (g, w) in got.iter().zip(&want) {
            let err = (g.force - w.force).norm();
            assert!(err <= 1e-12 * w.force.norm().max(1e-30), "id={}", g.id);
        }
    }

    #[test]
    fn degenerate_c1_is_particle_decomposition() {
        // c = 1: one row, so no broadcast/skew/reduce traffic; p shifts.
        let p = 4;
        let n = 12;
        let grid = ProcGrid::new_all_pairs(p, 1).unwrap();
        let domain = Domain::unit();
        let stats = run_ranks(p, |world| {
            let gc = GridComms::new(world, grid);
            let all = init::uniform(n, &domain, 5);
            let mut st = id_block_subset(&all, grid.teams(), gc.team());
            ca_all_pairs_forces(&gc, &mut st, &Counting, &domain, Boundary::Open);
            world.stats()
        });
        for s in &stats {
            // p shift messages (one per step), no skew (k = 0 for all).
            assert_eq!(s.phase(Phase::Shift).messages, p as u64);
            assert_eq!(s.phase(Phase::Skew).messages, 0);
            // Broadcast/reduce on a 1-rank column are no-ops.
            assert_eq!(s.phase(Phase::Broadcast).collectives, 0);
            assert_eq!(s.phase(Phase::Reduce).collectives, 0);
        }
    }

    #[test]
    fn force_decomposition_extreme_has_one_shift() {
        // c = sqrt(p): a single shift step (the force-decomposition extreme),
        // which takes every buffer once around the ring and back. Row 0
        // ships its block home; every other row stays on the block its skew
        // brought and sends its skew alone.
        let p = 16;
        let grid = ProcGrid::new_all_pairs(p, 4).unwrap();
        let domain = Domain::unit();
        let stats = run_ranks(p, |world| {
            let gc = GridComms::new(world, grid);
            let all = init::uniform(32, &domain, 5);
            let mut st = if gc.is_leader() {
                id_block_subset(&all, grid.teams(), gc.team())
            } else {
                Vec::new()
            };
            ca_all_pairs_forces(&gc, &mut st, &Counting, &domain, Boundary::Open);
            world.stats()
        });
        for (rank, s) in stats.iter().enumerate() {
            let home_row = grid.row_of(rank) == 0;
            assert_eq!(s.phase(Phase::Shift).messages, u64::from(home_row));
            assert_eq!(s.phase(Phase::Skew).messages, u64::from(!home_row));
            assert_eq!(s.phase(Phase::Broadcast).collectives, 1);
            assert_eq!(s.phase(Phase::Reduce).collectives, 1);
        }
    }

    #[test]
    fn shift_message_count_is_p_over_c_squared() {
        // The latency term of Eq. 5: S_ca = O(p/c²) shift messages, but none
        // on a row that stays (c² = p, rows k ≥ 1).
        let domain = Domain::unit();
        for (p, c) in [(8, 2), (16, 2), (16, 4), (27, 3)] {
            let grid = ProcGrid::new_all_pairs(p, c).unwrap();
            let stats = run_ranks(p, |world| {
                let gc = GridComms::new(world, grid);
                let all = init::uniform(p * 2, &domain, 1);
                let mut st = if gc.is_leader() {
                    id_block_subset(&all, grid.teams(), gc.team())
                } else {
                    Vec::new()
                };
                ca_all_pairs_forces(&gc, &mut st, &Counting, &domain, Boundary::Open);
                world.stats()
            });
            for (rank, s) in stats.iter().enumerate() {
                let stays = c * c == p && grid.row_of(rank) > 0;
                let want = if stays { 0 } else { p / (c * c) };
                assert_eq!(
                    s.phase(Phase::Shift).messages as usize,
                    want,
                    "p={p} c={c} rank={rank}"
                );
            }
        }
    }

    #[test]
    fn uneven_block_sizes_still_exact() {
        // n not divisible by the team count.
        let got = run_ca(8, 2, 13, 9, Counting);
        assert_eq!(got.len(), 13);
        for q in &got {
            assert_eq!(q.force.x, 12.0, "id={}", q.id);
        }
    }
}
