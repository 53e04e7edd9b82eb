//! Baseline decompositions from §II of the paper that Algorithm 1 does not
//! already contain.
//!
//! Plimpton's **particle decomposition** (`S = O(p)`, `W = O(n)`) and
//! **force decomposition** (`S = O(log p)`, `W = O(n/√p)`) are not here:
//! §III observes that Algorithm 1 "degenerates" to the first at `c = 1` and
//! to the second at `c = √p`, and that is how they run
//! ([`Method::CaAllPairs`](crate::sim::Method::CaAllPairs); the CLI's
//! `ring` and `force-decomp`). What is left:
//!
//! * [`naive_allgather_forces`] — the particle decomposition implemented
//!   with a single allgather collective. On Intrepid this is the
//!   "`c=1 (tree)`" variant of Fig. 2c/2d, which exploits the BlueGene/P
//!   hardware collective network.
//! * [`particle_ring_symmetric_forces`] — the half-ring that exploits
//!   Newton's third law, which the paper declines to.

use nbody_comm::{Communicator, Phase};
use nbody_physics::{Boundary, Domain, ForceLaw, Particle};

use crate::kernel::accumulate_block;

/// Tag for ring-shift messages.
const TAG_RING: u64 = 0x20;

/// Particle decomposition via one allgather: every rank obtains all `n`
/// particles, then updates its own subset locally. The collective-network
/// (`tree`) variant of the naive algorithm in Fig. 2c/2d.
pub fn naive_allgather_forces<C: Communicator, F: ForceLaw>(
    world: &C,
    my: &mut [Particle],
    law: &F,
    domain: &Domain,
    boundary: Boundary,
) {
    world.set_phase(Phase::Broadcast);
    let blocks = world.allgather(my);
    world.set_phase(Phase::Other);
    for block in &blocks {
        accumulate_block(my, block, law, domain, boundary);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::id_block_subset;
    use nbody_comm::run_ranks;
    use nbody_physics::{init, reference, RepulsiveInverseSquare};

    fn serial(n: usize, seed: u64, law: &impl ForceLaw) -> Vec<Particle> {
        let domain = Domain::unit();
        let mut all = init::uniform(n, &domain, seed);
        reference::accumulate_forces(&mut all, law, &domain, Boundary::Open);
        all
    }

    fn check_against_serial(got: &[Particle], want: &[Particle], tol: f64, label: &str) {
        assert_eq!(got.len(), want.len(), "{label}");
        for (g, w) in got.iter().zip(want) {
            assert_eq!(g.id, w.id, "{label}");
            let err = (g.force - w.force).norm();
            assert!(
                err <= tol * w.force.norm().max(1e-30),
                "{label}: id={} err={err}",
                g.id
            );
        }
    }

    #[test]
    fn naive_allgather_matches_serial() {
        let domain = Domain::unit();
        let law = RepulsiveInverseSquare::default();
        let want = serial(20, 3, &law);
        let p = 4;
        let out = run_ranks(p, |world| {
            let all = init::uniform(20, &domain, 3);
            let mut my = id_block_subset(&all, p, world.rank());
            naive_allgather_forces(world, &mut my, &law, &domain, Boundary::Open);
            my
        });
        let mut flat: Vec<Particle> = out.into_iter().flatten().collect();
        flat.sort_by_key(|q| q.id);
        check_against_serial(&flat, &want, 1e-12, "allgather");
    }
}

/// Tag for the returning force buffer of the symmetric ring.
const TAG_RING_RETURN: u64 = 0x800;

/// Particle decomposition exploiting Newton's third law — the optimization
/// the paper explicitly does *not* apply ("we do not apply optimizations
/// to exploit the symmetry", §III.C), included here as a contrast.
///
/// Plimpton's half-ring: blocks travel only `⌈(p−1)/2⌉` hops; at each hop
/// the host computes the pair block once and accumulates **both** `f_ij`
/// into its own particles and `−f_ji` into the travelling copy. One final
/// message returns each travelling buffer's accumulated forces to its home
/// rank. Compute halves; shift messages halve (plus one return); only
/// valid for symmetric laws.
pub fn particle_ring_symmetric_forces<C: Communicator, F: ForceLaw>(
    world: &C,
    my: &mut [Particle],
    law: &F,
    domain: &Domain,
    boundary: Boundary,
) {
    assert!(
        law.is_symmetric(),
        "the half-ring optimization requires a symmetric force law"
    );
    let p = world.size();
    let rank = world.rank();

    // Own block.
    world.set_phase(Phase::Other);
    let own = my.to_vec();
    accumulate_block(my, &own, law, domain, boundary);

    if p == 1 {
        return;
    }

    // Travel ⌈(p-1)/2⌉ hops. When p is even, the final hop is shared: the
    // pair (r, r + p/2) would otherwise be computed from both sides, so
    // only the lower rank of each antipodal pair computes it.
    let hops = p / 2;
    let mut exch = own.clone();
    for s in 1..=hops {
        world.set_phase(Phase::Shift);
        let dst = (rank + 1) % p;
        let src = (rank + p - 1) % p;
        exch = world.sendrecv(dst, src, TAG_RING + s as u64, &exch);
        let origin = (rank + p - s) % p; // home rank of the visiting block

        let full_pair = !(p.is_multiple_of(2) && s == hops);
        if full_pair || origin > rank {
            world.set_phase(Phase::Other);
            // Both directions from one evaluation: f_ij on my particles,
            // the reaction −f_ij accumulated into the travelling copy.
            for t in my.iter_mut() {
                let mut acc = t.force;
                for s_p in exch.iter_mut() {
                    if t.id == s_p.id {
                        continue;
                    }
                    let disp = boundary.displacement(domain, t.pos, s_p.pos);
                    let f = law.force(t, s_p, disp);
                    acc += f;
                    s_p.force -= f;
                }
                t.force = acc;
            }
        }
    }

    // Return the travelling buffer's reaction forces to its home.
    world.set_phase(Phase::Reduce);
    let origin = (rank + p - hops) % p;
    let returned: Vec<Particle> = {
        let home_of_mine = (rank + hops) % p; // who holds my block now
        world.send(origin, TAG_RING_RETURN, &exch);
        world.recv(home_of_mine, TAG_RING_RETURN)
    };
    assert_eq!(returned.len(), my.len());
    for (mine, ret) in my.iter_mut().zip(&returned) {
        debug_assert_eq!(mine.id, ret.id);
        mine.force += ret.force;
    }
}

#[cfg(test)]
mod symmetric_ring_tests {
    use super::*;
    use crate::dist::id_block_subset;
    use nbody_comm::run_ranks;
    use nbody_physics::{init, reference, Counting, Gravity, RepulsiveInverseSquare};

    fn run_symmetric(p: usize, n: usize, seed: u64) -> Vec<Particle> {
        let domain = Domain::unit();
        let law = RepulsiveInverseSquare::default();
        let out = run_ranks(p, |world| {
            let all = init::uniform(n, &domain, seed);
            let mut my = id_block_subset(&all, p, world.rank());
            particle_ring_symmetric_forces(world, &mut my, &law, &domain, Boundary::Open);
            my
        });
        let mut flat: Vec<Particle> = out.into_iter().flatten().collect();
        flat.sort_by_key(|q| q.id);
        flat
    }

    #[test]
    fn symmetric_ring_matches_serial() {
        let domain = Domain::unit();
        let law = RepulsiveInverseSquare::default();
        for (p, n) in [
            (2usize, 10usize),
            (3, 15),
            (4, 16),
            (5, 21),
            (8, 24),
            (7, 23),
        ] {
            let mut want = init::uniform(n, &domain, 77);
            reference::accumulate_forces(&mut want, &law, &domain, Boundary::Open);
            let got = run_symmetric(p, n, 77);
            assert_eq!(got.len(), n, "p={p}");
            for (g, w) in got.iter().zip(&want) {
                let err = (g.force - w.force).norm();
                assert!(
                    err <= 1e-12 * w.force.norm().max(1e-30),
                    "p={p} id={} err={err}",
                    g.id
                );
            }
        }
    }

    #[test]
    fn symmetric_ring_halves_shift_messages() {
        let domain = Domain::unit();
        let law = Gravity::default();
        let p = 8;
        let stats = run_ranks(p, |world| {
            let all = init::uniform(24, &domain, 5);
            let mut my = id_block_subset(&all, p, world.rank());
            particle_ring_symmetric_forces(world, &mut my, &law, &domain, Boundary::Open);
            world.stats()
        });
        for s in &stats {
            // p/2 = 4 shifts vs Algorithm 1's p = 8 at c = 1, plus 1 return.
            assert_eq!(s.phase(Phase::Shift).messages, (p / 2) as u64);
            assert_eq!(s.phase(Phase::Reduce).messages, 1);
        }
    }

    #[test]
    #[should_panic(expected = "symmetric force law")]
    fn symmetric_ring_rejects_asymmetric_law() {
        let domain = Domain::unit();
        run_ranks(2, |world| {
            let all = init::uniform(4, &domain, 1);
            let mut my = id_block_subset(&all, 2, world.rank());
            particle_ring_symmetric_forces(world, &mut my, &Counting, &domain, Boundary::Open);
        });
    }

    #[test]
    fn single_rank_symmetric_ring() {
        let got = run_symmetric(1, 9, 3);
        let domain = Domain::unit();
        let mut want = init::uniform(9, &domain, 3);
        reference::accumulate_forces(
            &mut want,
            &RepulsiveInverseSquare::default(),
            &domain,
            Boundary::Open,
        );
        for (g, w) in got.iter().zip(&want) {
            assert!((g.force - w.force).norm() < 1e-14);
        }
    }
}
