//! The spatial-decomposition baseline (§II.C): no replication, halo
//! exchange with every neighbor inside the cutoff span.
//!
//! Each of `p` ranks owns a spatial region; ranks pair up with the
//! `O(m^d)` processors their cutoff reaches and exchange their blocks,
//! giving `S_spatial = O(m^d)` and `W_spatial = O(n m^d / p)`. This is
//! communication-optimal only for minimal memory `M = O(n/p)` — the `c = 1`
//! point the CA algorithm improves on.

use nbody_comm::{Communicator, Phase};
use nbody_physics::{Boundary, Domain, ForceLaw, Particle};

use crate::kernel::accumulate_block;
use crate::window::Window;

/// Tag base for halo-exchange messages.
pub const TAG_HALO: u64 = 0x3000;

/// Halo-exchange force evaluation: rank `r` owns the particles of region
/// `r` (`my`), exchanges blocks with every neighbor the window reaches, and
/// accumulates all forces locally. Works for 1D and 2D windows alike; the
/// window's team count must equal the communicator size (one team per rank,
/// `c = 1`).
pub fn spatial_halo_forces<C: Communicator, W: Window, F: ForceLaw>(
    world: &C,
    window: &W,
    my: &mut [Particle],
    law: &F,
    domain: &Domain,
    boundary: Boundary,
) {
    assert_eq!(
        boundary == Boundary::Periodic,
        window.is_periodic(),
        "boundary and window periodicity must agree"
    );
    assert_eq!(
        window.teams(),
        world.size(),
        "spatial baseline runs one team per rank"
    );
    let me = world.rank();

    // Own block first.
    world.set_phase(Phase::Other);
    let own = my.to_vec();
    accumulate_block(my, &own, law, domain, boundary);

    // Send to every neighbor that needs us, then receive and fold in each
    // neighbor's block. Position 0 is the self offset; skip it.
    world.set_phase(Phase::Shift);
    for j in 1..window.len() {
        if let Some(dst) = window.apply(me, j) {
            world.send(dst, TAG_HALO + j as u64, &own);
        }
    }
    for j in 1..window.len() {
        if let Some(src) = window.apply_back(me, j) {
            // src sent us its block at position j (we are src + O[j]).
            let block: Vec<Particle> = world.recv(src, TAG_HALO + j as u64);
            world.set_phase(Phase::Other);
            accumulate_block(my, &block, law, domain, boundary);
            world.set_phase(Phase::Shift);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{spatial_subset_1d, spatial_subset_2d, team_grid_dims};
    use crate::window::TeamWindow;
    use nbody_comm::run_ranks;
    use nbody_physics::{init, reference, Counting, Cutoff};

    #[test]
    fn halo_1d_matches_serial() {
        let domain = Domain::unit();
        let n = 50;
        let r_c = 0.2;
        let law = Cutoff::new(Counting, r_c);
        let mut want = init::uniform_1d(n, &domain, 4);
        reference::accumulate_forces(&mut want, &law, &domain, Boundary::Open);

        for p in [2, 4, 8] {
            let window = TeamWindow::from_cutoff(&domain, (p, 1), false, r_c);
            let out = run_ranks(p, |world| {
                let all = init::uniform_1d(n, &domain, 4);
                let mut my = spatial_subset_1d(&all, &domain, p, world.rank());
                spatial_halo_forces(world, &window, &mut my, &law, &domain, Boundary::Open);
                my
            });
            let mut got: Vec<Particle> = out.into_iter().flatten().collect();
            got.sort_by_key(|p| p.id);
            assert_eq!(got.len(), n);
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.force.x, w.force.x, "p={p} id={}", g.id);
            }
        }
    }

    #[test]
    fn halo_2d_matches_serial() {
        let domain = Domain::unit();
        let n = 70;
        let r_c = 0.3;
        let law = Cutoff::new(Counting, r_c);
        let mut want = init::uniform(n, &domain, 6);
        reference::accumulate_forces(&mut want, &law, &domain, Boundary::Open);

        let p = 8;
        let (tx, ty) = team_grid_dims(p);
        let window = TeamWindow::from_cutoff(&domain, (tx, ty), false, r_c);
        let out = run_ranks(p, |world| {
            let all = init::uniform(n, &domain, 6);
            let mut my = spatial_subset_2d(&all, &domain, tx, ty, world.rank());
            spatial_halo_forces(world, &window, &mut my, &law, &domain, Boundary::Open);
            my
        });
        let mut got: Vec<Particle> = out.into_iter().flatten().collect();
        got.sort_by_key(|p| p.id);
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.force.x, w.force.x, "id={}", g.id);
        }
    }

    #[test]
    fn halo_message_count_is_window_size() {
        let domain = Domain::unit();
        let p = 8;
        let r_c = 0.2; // m = 2 on 8 slabs
        let window = TeamWindow::from_cutoff(&domain, (p, 1), false, r_c);
        let law = Cutoff::new(Counting, r_c);
        let stats = run_ranks(p, |world| {
            let all = init::uniform_1d(40, &domain, 1);
            let mut my = spatial_subset_1d(&all, &domain, p, world.rank());
            spatial_halo_forces(world, &window, &mut my, &law, &domain, Boundary::Open);
            world.stats()
        });
        // Interior ranks send to all 2m neighbors; edges fewer.
        let m = window.spans()[0] as u64;
        let max = stats.iter().map(|s| s.phase(Phase::Shift).messages).max();
        assert_eq!(max, Some(2 * m));
        let min = stats.iter().map(|s| s.phase(Phase::Shift).messages).min();
        assert_eq!(min, Some(m), "edge ranks have a one-sided halo");
    }
}
