//! Serial reference engines.
//!
//! These are the ground truth every distributed algorithm is validated
//! against: a plain O(n^2) double loop with no cleverness. The distributed
//! algorithms in `ca-nbody` must reproduce these forces (exactly for the
//! [`Counting`](crate::force::Counting) law, and to tight floating-point
//! tolerances for physical laws, where only summation order differs).

use crate::domain::{Boundary, Domain};
use crate::force::ForceLaw;
use crate::integrator::Integrator;
use crate::particle::{reset_forces, Particle};

/// Accumulate forces on every particle from every other particle (all
/// ordered pairs `i != j`), exactly as the paper's algorithms do — symmetry
/// is not exploited.
pub fn accumulate_forces<F: ForceLaw>(
    particles: &mut [Particle],
    law: &F,
    domain: &Domain,
    boundary: Boundary,
) {
    let n = particles.len();
    for i in 0..n {
        let target = particles[i];
        let mut acc = target.force;
        for (j, source) in particles.iter().enumerate() {
            if i == j {
                continue;
            }
            let disp = boundary.displacement(domain, target.pos, source.pos);
            acc += law.force(&target, source, disp);
        }
        particles[i].force = acc;
    }
}

/// One full reference timestep: integrator pre-phase, force reset and
/// accumulation, integrator post-phase.
pub fn step<F: ForceLaw, I: Integrator>(
    particles: &mut [Particle],
    law: &F,
    integrator: &I,
    dt: f64,
    domain: &Domain,
    boundary: Boundary,
) {
    integrator.pre_force(particles, dt);
    reset_forces(particles);
    accumulate_forces(particles, law, domain, boundary);
    integrator.post_force(particles, dt, domain, boundary);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::force::{Counting, Cutoff, Gravity, RepulsiveInverseSquare};
    use crate::init;
    use crate::integrator::SemiImplicitEuler;
    use crate::vec2::Vec2;

    #[test]
    fn counting_force_counts_all_pairs() {
        let domain = Domain::unit();
        let mut ps = init::uniform(17, &domain, 3);
        accumulate_forces(&mut ps, &Counting, &domain, Boundary::Open);
        for p in &ps {
            assert_eq!(p.force.x, 16.0, "each particle sees n-1 others");
            assert_eq!(p.force.y, 0.0);
        }
    }

    #[test]
    fn counting_with_cutoff_counts_neighbors() {
        let domain = Domain::unit();
        let mut ps = init::uniform(40, &domain, 8);
        let r_c = 0.3;
        let law = Cutoff::new(Counting, r_c);
        accumulate_forces(&mut ps, &law, &domain, Boundary::Open);
        // Cross-check against direct distance counting.
        for i in 0..ps.len() {
            let expected = ps
                .iter()
                .enumerate()
                .filter(|&(j, q)| j != i && ps[i].pos.distance_sq(q.pos) <= r_c * r_c)
                .count();
            assert_eq!(ps[i].force.x as usize, expected, "particle {i}");
        }
    }

    #[test]
    fn symmetric_forces_conserve_momentum() {
        let domain = Domain::unit();
        let mut ps = init::uniform(32, &domain, 11);
        accumulate_forces(
            &mut ps,
            &RepulsiveInverseSquare::default(),
            &domain,
            Boundary::Open,
        );
        let net: Vec2 = ps.iter().map(|p| p.force).sum();
        assert!(net.norm() < 1e-12, "net force {net:?}");
    }

    #[test]
    fn two_body_gravity_orbit_conserves_momentum_over_steps() {
        let domain = Domain::square(10.0);
        let mut ps = vec![
            Particle::moving(0, Vec2::new(4.0, 5.0), Vec2::new(0.0, 0.25)),
            Particle::moving(1, Vec2::new(6.0, 5.0), Vec2::new(0.0, -0.25)),
        ];
        let law = Gravity {
            g: 1.0,
            softening: 0.0,
        };
        for _ in 0..500 {
            step(
                &mut ps,
                &law,
                &SemiImplicitEuler,
                0.01,
                &domain,
                Boundary::Open,
            );
        }
        let total: Vec2 = ps.iter().map(|p| p.momentum()).sum();
        assert!(total.norm() < 1e-12, "momentum drift {total:?}");
    }

    #[test]
    fn reflective_boundary_keeps_particles_inside() {
        let domain = Domain::unit();
        let mut ps = init::uniform(25, &domain, 5);
        let law = RepulsiveInverseSquare {
            strength: 1e-3,
            softening: 1e-3,
        };
        for _ in 0..100 {
            step(
                &mut ps,
                &law,
                &SemiImplicitEuler,
                0.05,
                &domain,
                Boundary::Reflective,
            );
        }
        for p in &ps {
            assert!(
                p.pos.x >= 0.0 && p.pos.x <= 1.0 && p.pos.y >= 0.0 && p.pos.y <= 1.0,
                "escaped: {:?}",
                p.pos
            );
            assert!(p.pos.is_finite() && p.vel.is_finite());
        }
    }

    #[test]
    fn periodic_cutoff_uses_minimum_image() {
        let domain = Domain::unit();
        // Two particles near opposite edges: distance 0.9 directly, 0.1
        // through the wrap. With r_c = 0.2 they interact only periodically.
        let mut ps = vec![
            Particle::at(0, Vec2::new(0.05, 0.5)),
            Particle::at(1, Vec2::new(0.95, 0.5)),
        ];
        let law = Cutoff::new(Counting, 0.2);
        accumulate_forces(&mut ps, &law, &domain, Boundary::Periodic);
        assert_eq!(ps[0].force.x, 1.0);
        assert_eq!(ps[1].force.x, 1.0);

        let mut ps2 = ps.clone();
        reset_forces(&mut ps2);
        accumulate_forces(&mut ps2, &law, &domain, Boundary::Open);
        assert_eq!(ps2[0].force.x, 0.0, "no interaction without wrap");
    }

    #[test]
    fn forces_accumulate_on_top_of_existing() {
        // accumulate_forces adds; the step driver is responsible for the
        // reset. Verify additive semantics explicitly.
        let domain = Domain::unit();
        let mut ps = init::uniform(5, &domain, 1);
        accumulate_forces(&mut ps, &Counting, &domain, Boundary::Open);
        accumulate_forces(&mut ps, &Counting, &domain, Boundary::Open);
        assert!(ps.iter().all(|p| p.force.x == 8.0));
    }
}
