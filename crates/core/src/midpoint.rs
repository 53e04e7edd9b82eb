//! The midpoint method (Bowers, Dror, Shaw 2006) — the paper's §II.D
//! representative of *neutral territory* methods: the processor that owns
//! the **midpoint** of an interacting pair computes it, even when it owns
//! neither particle.
//!
//! Compared with the plain spatial decomposition, each processor imports
//! only particles within `r_c / 2` of its region (half the import span),
//! at the cost of a second communication round returning force
//! contributions to the particles' owners. The method inherently evaluates
//! both directions of a pair where it is computed, so it also serves as an
//! in-repo contrast to the paper's no-symmetry policy.
//!
//! Works in 1D and 2D via the same [`Window`] halo abstraction as the
//! spatial baseline; the window's span must cover `r_c / 2` (checked).

use std::collections::HashMap;

use nbody_comm::{Communicator, Phase};
use nbody_physics::{Boundary, Domain, ForceLaw, Particle, Vec2};

use crate::window::Window;

/// Tag base for halo imports.
const TAG_IMPORT: u64 = 0x4000;
/// Tag base for force returns.
const TAG_RETURN: u64 = 0x5000;

/// Midpoint-method force evaluation: one team per rank (`c = 1`), spatial
/// regions assigned by `owner_of` (position → rank), halo neighbors
/// enumerated by `window` (which must span at least `r_c / 2`).
///
/// `my` holds this rank's particles with cleared accumulators; on return
/// it carries the total force from every pair within the cutoff.
pub fn midpoint_forces<C: Communicator, W: Window, F: ForceLaw>(
    world: &C,
    window: &W,
    my: &mut [Particle],
    law: &F,
    domain: &Domain,
    boundary: Boundary,
    owner_of: impl Fn(Vec2) -> usize,
) {
    assert_eq!(
        boundary == Boundary::Periodic,
        window.is_periodic(),
        "boundary and window periodicity must agree"
    );
    assert_eq!(window.teams(), world.size(), "one region per rank");
    let me = world.rank();
    let r_c = law
        .cutoff()
        .expect("the midpoint method requires a cutoff force law");

    // Round 1: import the halo (blocks within the window).
    world.set_phase(Phase::Shift);
    let own: Vec<Particle> = my.to_vec();
    for j in 1..window.len() {
        if let Some(dst) = window.apply(me, j) {
            world.send(dst, TAG_IMPORT + j as u64, &own);
        }
    }
    let mut pool: Vec<Particle> = own.clone();
    for j in 1..window.len() {
        if let Some(src) = window.apply_back(me, j) {
            pool.extend(world.recv::<Particle>(src, TAG_IMPORT + j as u64));
        }
    }

    // Compute every pair whose midpoint lies in my region. Both directions
    // are evaluated here (the pair is computed nowhere else).
    world.set_phase(Phase::Other);
    let r_c2 = r_c * r_c;
    let mut acc: HashMap<u64, Vec2> = HashMap::with_capacity(pool.len());
    for i in 0..pool.len() {
        for j in (i + 1)..pool.len() {
            let (a, b) = (pool[i], pool[j]);
            let disp = boundary.displacement(domain, a.pos, b.pos);
            if disp.norm_sq() > r_c2 {
                continue;
            }
            // Midpoint along the minimum-image segment, wrapped home.
            let mid_raw = a.pos + disp * 0.5;
            let (mid, _) = boundary.apply(domain, mid_raw, Vec2::zero());
            if owner_of(mid) != me {
                continue;
            }
            let f_on_a = law.force(&a, &b, disp);
            let f_on_b = law.force(&b, &a, -disp);
            *acc.entry(a.id).or_insert(Vec2::zero()) += f_on_a;
            *acc.entry(b.id).or_insert(Vec2::zero()) += f_on_b;
        }
    }

    // Round 2: return contributions to the owners.
    world.set_phase(Phase::Reduce);
    let mut returns: Vec<Vec<(u64, Vec2)>> = vec![Vec::new(); window.len()];
    for q in &pool[own.len()..] {
        // Imported particle: its contribution (if any) goes home.
        if let Some(f) = acc.get(&q.id) {
            let home = owner_of(q.pos);
            // Which window position reaches `home`? Find the j whose
            // apply_back equals it (the reverse of the import).
            let j = (1..window.len())
                .find(|&j| window.apply_back(me, j) == Some(home))
                .expect("imported particle's home must be a halo neighbor");
            returns[j].push((q.id, *f));
        }
    }
    for (j, bucket) in returns.iter().enumerate().skip(1) {
        if let Some(dst) = window.apply_back(me, j) {
            world.send(dst, TAG_RETURN + j as u64, bucket);
        }
    }
    // Fold local contributions, then remote ones.
    for q in my.iter_mut() {
        if let Some(f) = acc.get(&q.id) {
            q.force += *f;
        }
    }
    let mut by_id: HashMap<u64, usize> = my.iter().enumerate().map(|(i, q)| (q.id, i)).collect();
    for j in 1..window.len() {
        if let Some(src) = window.apply(me, j) {
            for (id, f) in world.recv::<(u64, Vec2)>(src, TAG_RETURN + j as u64) {
                let idx = *by_id
                    .get_mut(&id)
                    .expect("force returned for a particle we do not own");
                my[idx].force += f;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{spatial_subset, team_grid_dims, team_of_xy};
    use crate::window::TeamWindow;
    use nbody_comm::run_ranks;
    use nbody_physics::{init, reference, Counting, Cutoff};

    /// The midpoint forces of `n` particles dealt to a `tx × ty` team grid
    /// (1-D slabs at `ty = 1`) against the serial reference, each within
    /// `tol` of its norm: 0 is bit for bit.
    fn matches_serial<F: ForceLaw + Sync>(
        law: F,
        (tx, ty): (usize, usize),
        boundary: Boundary,
        (n, seed): (usize, u64),
        tol: f64,
    ) {
        let domain = Domain::unit();
        let all = match ty {
            1 => init::uniform_1d(n, &domain, seed),
            _ => init::uniform(n, &domain, seed),
        };
        let mut want = all.clone();
        reference::accumulate_forces(&mut want, &law, &domain, boundary);
        let wraps = boundary == Boundary::Periodic;
        let half = law.cutoff().unwrap() / 2.0;
        let window = TeamWindow::from_cutoff(&domain, (tx, ty), wraps, half);
        let out = run_ranks(tx * ty, |world| {
            let mut mine = spatial_subset(&all, &domain, (tx, ty), boundary, world.rank());
            let owner = |pos: Vec2| team_of_xy(&domain, tx, ty, pos.x, pos.y);
            midpoint_forces(world, &window, &mut mine, &law, &domain, boundary, owner);
            mine
        });
        let mut got: Vec<Particle> = out.into_iter().flatten().collect();
        got.sort_by_key(|q| q.id);
        assert_eq!(got.len(), n);
        for (g, w) in got.iter().zip(&want) {
            let err = (g.force - w.force).norm();
            assert!(err <= tol * w.force.norm(), "{tx}x{ty} id={}", g.id);
        }
    }

    #[test]
    fn midpoint_matches_serial() {
        use nbody_physics::RepulsiveInverseSquare;
        let open = Boundary::Open;
        for p in [2, 4, 8] {
            matches_serial(Cutoff::new(Counting, 0.2), (p, 1), open, (60, 15), 0.0);
        }
        let two_d = team_grid_dims(8);
        matches_serial(Cutoff::new(Counting, 0.25), two_d, open, (80, 4), 0.0);
        let periodic = Boundary::Periodic;
        matches_serial(Cutoff::new(Counting, 0.2), (8, 1), periodic, (50, 8), 0.0);
        let physical = Cutoff::new(RepulsiveInverseSquare::default(), 0.3);
        matches_serial(physical, (4, 1), open, (40, 2), 1e-12);
    }

    #[test]
    fn midpoint_import_region_is_half_of_spatial() {
        // §II.D: the midpoint method's import span covers r_c/2, the plain
        // spatial decomposition needs r_c.
        let domain = Domain::unit();
        let p = 32;
        let r_c = 0.25;
        let full = TeamWindow::from_cutoff(&domain, (p, 1), false, r_c);
        let half = TeamWindow::from_cutoff(&domain, (p, 1), false, r_c / 2.0);
        assert!(
            half.spans()[0] < full.spans()[0],
            "midpoint halo {} vs spatial halo {}",
            half.spans()[0],
            full.spans()[0]
        );
    }
}
