//! The one baseline decomposition from §II of the paper that Algorithm 1
//! does not already contain.
//!
//! Plimpton's **particle decomposition** (`S = O(p)`, `W = O(n)`) and
//! **force decomposition** (`S = O(log p)`, `W = O(n/√p)`) are not here:
//! §III observes that Algorithm 1 "degenerates" to the first at `c = 1` and
//! to the second at `c = √p`, and that is how they run
//! ([`Method::CaAllPairs`](crate::sim::Method::CaAllPairs); the CLI's
//! `ring` and `force-decomp`). Nor is his half-ring, which exploits the
//! Newton's third law the paper declines to (§III.C): it is Algorithm 1 at
//! `c = 1` on the half of the ring
//! ([`Method::ParticleRingSymmetric`](crate::sim::Method::ParticleRingSymmetric)).
//! What is left is [`naive_allgather_forces`], the particle decomposition
//! implemented with a single allgather collective. On Intrepid this is the
//! "`c=1 (tree)`" variant of Fig. 2c/2d, which exploits the BlueGene/P
//! hardware collective network.

use nbody_comm::{Communicator, Phase};
use nbody_physics::{Boundary, Domain, ForceLaw, Particle};

use crate::kernel::accumulate_block;

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
