//! Initial-condition generators.
//!
//! All generators are deterministic given a seed, which keeps distributed
//! correctness tests reproducible. The paper's experiments keep "the particle
//! distribution nearly uniform over time" (§IV.D), which
//! [`uniform`]/[`uniform_1d`] model; [`gaussian_clusters`] deliberately
//! violates uniformity to exercise the load-imbalance paths.

use crate::domain::Domain;
use crate::particle::Particle;
use crate::vec2::Vec2;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `n` particles uniformly distributed over `domain`, at rest, unit mass.
pub fn uniform(n: usize, domain: &Domain, seed: u64) -> Vec<Particle> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n as u64)
        .map(|id| {
            let pos = Vec2::new(
                rng.gen_range(domain.min.x..domain.max.x),
                rng.gen_range(domain.min.y..domain.max.y),
            );
            Particle::at(id, pos)
        })
        .collect()
}

/// `n` particles uniform along x with `y` pinned to the domain center:
/// the embedding used for the paper's 1D-cutoff experiments.
pub fn uniform_1d(n: usize, domain: &Domain, seed: u64) -> Vec<Particle> {
    let mut rng = StdRng::seed_from_u64(seed);
    let y = domain.center().y;
    (0..n as u64)
        .map(|id| {
            let x = rng.gen_range(domain.min.x..domain.max.x);
            Particle::at(id, Vec2::new(x, y))
        })
        .collect()
}

/// `n` particles on a near-square lattice filling the domain; deterministic
/// without randomness, handy for exactly reproducible small tests.
pub fn lattice(n: usize, domain: &Domain) -> Vec<Particle> {
    let cols = (n as f64).sqrt().ceil() as usize;
    let rows = n.div_ceil(cols);
    let ext = domain.extent();
    let dx = ext.x / cols as f64;
    let dy = ext.y / rows as f64;
    (0..n as u64)
        .map(|id| {
            let i = id as usize % cols;
            let j = id as usize / cols;
            let pos = domain.min + Vec2::new((i as f64 + 0.5) * dx, (j as f64 + 0.5) * dy);
            Particle::at(id, pos)
        })
        .collect()
}

/// `n` particles split evenly among `k` Gaussian blobs with standard
/// deviation `sigma`, clipped to the domain. Produces strong spatial load
/// imbalance for spatial decompositions.
pub fn gaussian_clusters(
    n: usize,
    domain: &Domain,
    k: usize,
    sigma: f64,
    seed: u64,
) -> Vec<Particle> {
    assert!(k > 0, "need at least one cluster");
    let mut rng = StdRng::seed_from_u64(seed);
    let centers: Vec<Vec2> = (0..k)
        .map(|_| {
            Vec2::new(
                rng.gen_range(domain.min.x..domain.max.x),
                rng.gen_range(domain.min.y..domain.max.y),
            )
        })
        .collect();
    (0..n as u64)
        .map(|id| {
            let c = centers[id as usize % k];
            // Box-Muller Gaussian.
            let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
            let u2: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
            let r = sigma * (-2.0 * u1.ln()).sqrt();
            let mut pos = c + Vec2::new(r * u2.cos(), r * u2.sin());
            pos.x = pos
                .x
                .clamp(domain.min.x, domain.max.x - 1e-12 * domain.length_x());
            pos.y = pos
                .y
                .clamp(domain.min.y, domain.max.y - 1e-12 * domain.length_y());
            Particle::at(id, pos)
        })
        .collect()
}

/// Assign Maxwell-Boltzmann-like random velocities (Gaussian per component,
/// standard deviation `sqrt(temperature / mass)`), then remove the net drift
/// so total momentum is exactly zero.
pub fn thermalize(particles: &mut [Particle], temperature: f64, seed: u64) {
    assert!(temperature >= 0.0);
    if particles.is_empty() {
        return;
    }
    let mut rng = StdRng::seed_from_u64(seed);
    for p in particles.iter_mut() {
        let std = (temperature / p.mass).sqrt();
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
        let r = std * (-2.0 * u1.ln()).sqrt();
        p.vel = Vec2::new(r * u2.cos(), r * u2.sin());
    }
    // Remove drift.
    let total_mass: f64 = particles.iter().map(|p| p.mass).sum();
    let drift: Vec2 = particles.iter().map(|p| p.momentum()).sum::<Vec2>() / total_mass;
    for p in particles.iter_mut() {
        p.vel -= drift;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_in_domain_and_deterministic() {
        let d = Domain::square(10.0);
        let a = uniform(100, &d, 42);
        let b = uniform(100, &d, 42);
        assert_eq!(a, b, "same seed, same particles");
        assert!(a.iter().all(|p| d.contains(p.pos)));
        assert_eq!(a.len(), 100);
        // ids unique and consecutive
        for (i, p) in a.iter().enumerate() {
            assert_eq!(p.id, i as u64);
        }
        let c = uniform(100, &d, 43);
        assert_ne!(a, c, "different seed, different particles");
    }

    #[test]
    fn uniform_1d_pins_y() {
        let d = Domain::square(4.0);
        let ps = uniform_1d(50, &d, 7);
        assert!(ps.iter().all(|p| p.pos.y == 2.0));
        assert!(ps.iter().all(|p| d.contains(p.pos)));
    }

    #[test]
    fn lattice_covers_domain() {
        let d = Domain::unit();
        let ps = lattice(16, &d);
        assert_eq!(ps.len(), 16);
        assert!(ps.iter().all(|p| d.contains(p.pos)));
        // 4x4 lattice: distinct positions
        for i in 0..16 {
            for j in (i + 1)..16 {
                assert_ne!(ps[i].pos, ps[j].pos);
            }
        }
    }

    #[test]
    fn clusters_stay_in_domain() {
        let d = Domain::square(2.0);
        let ps = gaussian_clusters(200, &d, 3, 0.5, 1);
        assert_eq!(ps.len(), 200);
        assert!(ps.iter().all(|p| p.pos.x >= d.min.x && p.pos.x <= d.max.x));
        assert!(ps.iter().all(|p| p.pos.y >= d.min.y && p.pos.y <= d.max.y));
    }

    #[test]
    fn clusters_are_clustered() {
        // With tiny sigma, particles collapse near the k centers: the
        // spread within any cluster is far below the domain size.
        let d = Domain::square(100.0);
        let ps = gaussian_clusters(300, &d, 3, 0.01, 5);
        for i in (0..300).step_by(3) {
            // particles i and i+3 belong to the same cluster (round-robin)
            if i + 3 < 300 {
                assert!(ps[i].pos.distance(ps[i + 3].pos) < 1.0);
            }
        }
    }

    #[test]
    fn thermalize_zeroes_momentum() {
        let d = Domain::unit();
        let mut ps = uniform(64, &d, 9);
        thermalize(&mut ps, 2.0, 10);
        let total: Vec2 = ps.iter().map(|p| p.momentum()).sum();
        assert!(total.norm() < 1e-12, "net momentum {total:?}");
        let ke: f64 = ps.iter().map(|p| p.kinetic_energy()).sum();
        assert!(ke > 0.0);
    }

    #[test]
    fn thermalize_zero_temperature_is_rest() {
        let d = Domain::unit();
        let mut ps = uniform(8, &d, 9);
        thermalize(&mut ps, 0.0, 10);
        assert!(ps.iter().all(|p| p.vel.norm() == 0.0));
    }
}
