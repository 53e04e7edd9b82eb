//! Time integrators.
//!
//! Integrators are split around the force evaluation so that distributed
//! force algorithms can be slotted in between: a step driver calls
//! [`Integrator::pre_force`], clears the accumulators, computes forces (by
//! any serial or distributed algorithm), then calls
//! [`Integrator::post_force`]. Velocity Verlet exploits this split by
//! carrying the previous step's forces across the boundary.

use crate::domain::{Boundary, Domain};
use crate::particle::Particle;

/// A time integrator, split around the force evaluation.
pub trait Integrator: Sync {
    /// Phase run *before* forces are recomputed. `particles[i].force` still
    /// holds the previous step's accumulated forces at this point.
    fn pre_force(&self, _particles: &mut [Particle], _dt: f64) {}

    /// Phase run *after* the force accumulators have been filled for this
    /// step. Responsible for applying the boundary condition.
    fn post_force(&self, particles: &mut [Particle], dt: f64, domain: &Domain, boundary: Boundary);
}

fn apply_boundary(p: &mut Particle, domain: &Domain, boundary: Boundary) {
    let (pos, vel) = boundary.apply(domain, p.pos, p.vel);
    p.pos = pos;
    p.vel = vel;
}

/// Explicit (forward) Euler: `x += v dt; v += a dt`. First order; used when
/// matching simple reference codes.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExplicitEuler;

impl Integrator for ExplicitEuler {
    fn post_force(&self, particles: &mut [Particle], dt: f64, domain: &Domain, boundary: Boundary) {
        for p in particles {
            let a = p.force / p.mass;
            p.pos += p.vel * dt;
            p.vel += a * dt;
            apply_boundary(p, domain, boundary);
        }
    }
}

/// Semi-implicit (symplectic) Euler: `v += a dt; x += v dt`. First order but
/// symplectic, so energy drift is bounded; the default integrator.
#[derive(Debug, Clone, Copy, Default)]
pub struct SemiImplicitEuler;

impl Integrator for SemiImplicitEuler {
    fn post_force(&self, particles: &mut [Particle], dt: f64, domain: &Domain, boundary: Boundary) {
        for p in particles {
            let a = p.force / p.mass;
            p.vel += a * dt;
            p.pos += p.vel * dt;
            apply_boundary(p, domain, boundary);
        }
    }
}

/// Velocity Verlet (second order, symplectic):
///
/// ```text
/// v += a(t) dt/2        (pre_force; a(t) carried in the force accumulator)
/// x += v dt             (pre_force)
/// ... recompute forces -> a(t+dt) ...
/// v += a(t+dt) dt/2     (post_force)
/// ```
///
/// On the very first step the accumulator holds zero force, which is
/// equivalent to starting from a state where forces have been evaluated once;
/// call your force routine once before the first step for full second-order
/// accuracy from step one.
#[derive(Debug, Clone, Copy, Default)]
pub struct VelocityVerlet;

impl Integrator for VelocityVerlet {
    fn pre_force(&self, particles: &mut [Particle], dt: f64) {
        for p in particles {
            let a = p.force / p.mass;
            p.vel += a * (0.5 * dt);
            p.pos += p.vel * dt;
        }
    }

    fn post_force(&self, particles: &mut [Particle], dt: f64, domain: &Domain, boundary: Boundary) {
        for p in particles {
            let a = p.force / p.mass;
            p.vel += a * (0.5 * dt);
            apply_boundary(p, domain, boundary);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vec2::Vec2;

    fn free_particle() -> Vec<Particle> {
        vec![Particle::moving(
            0,
            Vec2::new(0.5, 0.5),
            Vec2::new(0.1, 0.0),
        )]
    }

    #[test]
    fn euler_free_flight() {
        let domain = Domain::unit();
        let mut ps = free_particle();
        ExplicitEuler.post_force(&mut ps, 1.0, &domain, Boundary::Open);
        assert_eq!(ps[0].pos, Vec2::new(0.6, 0.5));
        assert_eq!(ps[0].vel, Vec2::new(0.1, 0.0));
    }

    #[test]
    fn semi_implicit_applies_velocity_first() {
        let domain = Domain::unit();
        let mut ps = free_particle();
        ps[0].force = Vec2::new(0.1, 0.0); // a = 0.1
        SemiImplicitEuler.post_force(&mut ps, 1.0, &domain, Boundary::Open);
        assert!((ps[0].vel.x - 0.2).abs() < 1e-15);
        assert!((ps[0].pos.x - 0.7).abs() < 1e-15, "uses updated velocity");
    }

    #[test]
    fn verlet_harmonic_oscillator_energy_bounded() {
        // x'' = -x; velocity Verlet should keep energy bounded over many
        // periods while explicit Euler visibly gains energy.
        let domain = Domain::square(100.0);
        let dt = 0.05;
        let steps = 4000; // ~30 periods
        let spring = |p: &Particle| -(p.pos - Vec2::new(50.0, 50.0));

        let run = |integrator: &dyn Integrator| -> f64 {
            let mut ps = vec![Particle::moving(
                0,
                Vec2::new(51.0, 50.0),
                Vec2::new(0.0, 0.0),
            )];
            ps[0].force = spring(&ps[0]);
            for _ in 0..steps {
                integrator.pre_force(&mut ps, dt);
                ps[0].force = spring(&ps[0]);
                integrator.post_force(&mut ps, dt, &domain, Boundary::Open);
            }
            let x = ps[0].pos - Vec2::new(50.0, 50.0);
            0.5 * ps[0].vel.norm_sq() + 0.5 * x.norm_sq()
        };

        let e_verlet = run(&VelocityVerlet);
        let e_euler = run(&ExplicitEuler);
        let e0 = 0.5; // initial energy
        assert!(
            (e_verlet - e0).abs() < 0.01,
            "Verlet energy {e_verlet} should stay near {e0}"
        );
        assert!(
            (e_euler - e0).abs() > 0.1,
            "explicit Euler should drift noticeably, got {e_euler}"
        );
    }

    #[test]
    fn verlet_second_order_convergence() {
        // Constant acceleration: exact x(t) = x0 + v0 t + a t^2 / 2.
        // Verlet should reproduce it exactly (it is exact for constant a).
        let domain = Domain::square(100.0);
        let mut ps = vec![Particle::moving(0, Vec2::zero(), Vec2::new(1.0, 0.0))];
        let a = Vec2::new(0.5, 0.0);
        ps[0].force = a;
        let dt = 0.1;
        for _ in 0..10 {
            VelocityVerlet.pre_force(&mut ps, dt);
            ps[0].force = a;
            VelocityVerlet.post_force(&mut ps, dt, &domain, Boundary::Open);
        }
        let t: f64 = 1.0;
        let exact = t + 0.25 * t * t;
        assert!(
            (ps[0].pos.x - exact).abs() < 1e-12,
            "got {}, want {exact}",
            ps[0].pos.x
        );
    }

    #[test]
    fn boundary_applied_after_step() {
        let domain = Domain::unit();
        let mut ps = vec![Particle::moving(
            0,
            Vec2::new(0.95, 0.5),
            Vec2::new(0.1, 0.0),
        )];
        SemiImplicitEuler.post_force(&mut ps, 1.0, &domain, Boundary::Reflective);
        assert!(domain.contains(ps[0].pos));
        assert!(ps[0].vel.x < 0.0, "bounced");
    }
}
