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

/// Mass-weighted center of mass.
pub fn center_of_mass(particles: &[Particle]) -> Vec2 {
    let total_mass: f64 = particles.iter().map(|p| p.mass).sum();
    assert!(total_mass > 0.0, "center of mass of empty/massless system");
    particles.iter().map(|p| p.pos * p.mass).sum::<Vec2>() / total_mass
}

/// Kinetic temperature in 2D: `T = KE / (N k_B)` with `k_B = 1` and two
/// degrees of freedom per particle (`KE = N k_B T` in 2D).
pub fn temperature(particles: &[Particle]) -> f64 {
    if particles.is_empty() {
        return 0.0;
    }
    total_kinetic_energy(particles) / particles.len() as f64
}

/// Radial distribution function g(r) estimated over `bins` shells up to
/// `r_max`, normalized against the ideal-gas expectation in 2D (shell area
/// `2πr·dr` at the average density). Returns `(r_mid, g)` pairs.
pub fn radial_distribution(
    particles: &[Particle],
    domain: &Domain,
    boundary: Boundary,
    r_max: f64,
    bins: usize,
) -> Vec<(f64, f64)> {
    assert!(bins > 0 && r_max > 0.0);
    let n = particles.len();
    if n < 2 {
        return (0..bins)
            .map(|b| ((b as f64 + 0.5) * r_max / bins as f64, 0.0))
            .collect();
    }
    let dr = r_max / bins as f64;
    let mut counts = vec![0u64; bins];
    for i in 0..n {
        for j in (i + 1)..n {
            let d = boundary
                .displacement(domain, particles[i].pos, particles[j].pos)
                .norm();
            if d < r_max {
                counts[(d / dr) as usize] += 2; // both directions
            }
        }
    }
    let area = domain.extent().x * domain.extent().y;
    let density = n as f64 / area;
    counts
        .iter()
        .enumerate()
        .map(|(b, &k)| {
            let r_mid = (b as f64 + 0.5) * dr;
            let shell = std::f64::consts::TAU * r_mid * dr;
            let ideal = density * shell * n as f64;
            (r_mid, k as f64 / ideal)
        })
        .collect()
}

/// Maximum force magnitude; a cheap blow-up detector for integration tests.
pub fn max_force(particles: &[Particle]) -> f64 {
    particles.iter().map(|p| p.force.norm()).fold(0.0, f64::max)
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
    fn center_of_mass_weighted() {
        let ps = vec![
            Particle::at(0, Vec2::new(0.0, 0.0)).with_mass(1.0),
            Particle::at(1, Vec2::new(3.0, 0.0)).with_mass(3.0),
        ];
        assert_eq!(center_of_mass(&ps), Vec2::new(2.25, 0.0));
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

    #[test]
    fn rdf_of_uniform_gas_is_flat() {
        let d = Domain::unit();
        let ps = init::uniform(600, &d, 8);
        let g = radial_distribution(&ps, &d, Boundary::Periodic, 0.3, 6);
        assert_eq!(g.len(), 6);
        for &(r, v) in &g {
            assert!(r > 0.0 && r < 0.3);
            assert!(
                (v - 1.0).abs() < 0.25,
                "g({r}) = {v} should be ~1 for a uniform gas"
            );
        }
    }

    #[test]
    fn rdf_detects_exclusion_zone() {
        // A lattice gas has (near-)zero g(r) below the lattice spacing.
        let d = Domain::unit();
        let ps = init::lattice(100, &d); // spacing 0.1
        let g = radial_distribution(&ps, &d, Boundary::Open, 0.09, 3);
        for &(_, v) in &g {
            assert_eq!(v, 0.0, "no pairs closer than the lattice spacing");
        }
    }

    #[test]
    fn max_force_detects_blowup() {
        let mut ps = vec![Particle::at(0, Vec2::zero()), Particle::at(1, Vec2::zero())];
        ps[1].force = Vec2::new(3.0, 4.0);
        assert_eq!(max_force(&ps), 5.0);
    }
}
