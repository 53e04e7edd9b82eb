//! Conserved-quantity diagnostics used by tests and examples.

use crate::domain::{Boundary, Domain};
use crate::force::ForceLaw;
use crate::particle::Particle;
use crate::vec2::Vec2;

/// Total linear momentum.
pub fn total_momentum(particles: &[Particle]) -> Vec2 {
    particles.iter().map(|p| p.momentum()).sum()
}

/// Total kinetic energy.
pub fn total_kinetic_energy(particles: &[Particle]) -> f64 {
    particles.iter().map(|p| p.kinetic_energy()).sum()
}

/// Total pair potential energy, counted once per unordered pair.
pub fn total_potential_energy<F: ForceLaw>(
    particles: &[Particle],
    law: &F,
    domain: &Domain,
    boundary: Boundary,
) -> f64 {
    let mut total = 0.0;
    for i in 0..particles.len() {
        for j in (i + 1)..particles.len() {
            let disp = boundary.displacement(domain, particles[i].pos, particles[j].pos);
            total += law.potential(&particles[i], &particles[j], disp);
        }
    }
    total
}

/// Total energy (kinetic + potential).
pub fn total_energy<F: ForceLaw>(
    particles: &[Particle],
    law: &F,
    domain: &Domain,
    boundary: Boundary,
) -> f64 {
    total_kinetic_energy(particles) + total_potential_energy(particles, law, domain, boundary)
}

/// Kinetic temperature in 2D: `T = KE / (N k_B)` with `k_B = 1` and two
/// degrees of freedom per particle (`KE = N k_B T` in 2D).
pub fn temperature(particles: &[Particle]) -> f64 {
    if particles.is_empty() {
        return 0.0;
    }
    total_kinetic_energy(particles) / particles.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::Domain;
    use crate::force::Gravity;
    use crate::init;
    use crate::integrator::VelocityVerlet;
    use crate::reference;

    #[test]
    fn momentum_of_thermalized_system_is_zero() {
        let d = Domain::unit();
        let mut ps = init::uniform(32, &d, 1);
        init::thermalize(&mut ps, 1.0, 2);
        assert!(total_momentum(&ps).norm() < 1e-12);
    }

    #[test]
    fn energy_conserved_by_verlet_two_body() {
        let d = Domain::square(10.0);
        let law = Gravity {
            g: 1.0,
            softening: 0.1,
        };
        let mut ps = vec![
            Particle::moving(0, Vec2::new(4.0, 5.0), Vec2::new(0.0, 0.3)),
            Particle::moving(1, Vec2::new(6.0, 5.0), Vec2::new(0.0, -0.3)),
        ];
        // Prime the accumulator for Verlet.
        reference::accumulate_forces(&mut ps, &law, &d, Boundary::Open);
        let e0 = total_energy(&ps, &law, &d, Boundary::Open);
        for _ in 0..2000 {
            reference::step(&mut ps, &law, &VelocityVerlet, 0.005, &d, Boundary::Open);
        }
        let e1 = total_energy(&ps, &law, &d, Boundary::Open);
        assert!(
            (e1 - e0).abs() < 1e-3 * e0.abs().max(1.0),
            "energy drift: {e0} -> {e1}"
        );
    }

    #[test]
    fn potential_counts_each_pair_once() {
        // Three particles, constant pair potential 2.0 via tail-only cutoff.
        use crate::force::{Counting, Cutoff};
        let d = Domain::unit();
        let ps = vec![
            Particle::at(0, Vec2::new(0.1, 0.1)),
            Particle::at(1, Vec2::new(0.9, 0.9)),
            Particle::at(2, Vec2::new(0.9, 0.1)),
        ];
        // cutoff tiny => every pair beyond cutoff => tail energy each.
        let law = Cutoff::new(Counting, 1e-6).with_tail_energy(2.0);
        let u = total_potential_energy(&ps, &law, &d, Boundary::Open);
        assert_eq!(u, 6.0, "3 unordered pairs x 2.0");
    }

    #[test]
    fn temperature_matches_definition() {
        let d = Domain::unit();
        let mut ps = init::uniform(100, &d, 3);
        init::thermalize(&mut ps, 2.5, 4);
        let t = temperature(&ps);
        // Thermalize draws component velocities at std sqrt(T/m): KE/N ~ T.
        assert!((t - 2.5).abs() < 0.8, "temperature {t}");
        assert_eq!(temperature(&[]), 0.0);
    }
}
