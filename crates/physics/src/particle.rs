//! The particle representation, and the one place that names its sizes.
//!
//! | record | bytes | fields | where it lives |
//! |---|---|---|---|
//! | [`Particle`] in memory | 64 | `pos`, `vel`, `force`, `mass`, `id` | every owned block; re-assignment and the fault-tolerant resync |
//! | [`ParticleState`] on the wire | 48 | `pos`, `vel`, `mass`, `id` | the fault-tolerant drivers' team broadcast, its checkpoint |
//! | [`Source`] on the wire | 32 | `pos`, `mass`, `id` | broadcast, skew and shift of the CA drivers; what the block kernel streams |
//! | force on the wire | 16 | one [`Vec2`] | the team reduce |
//! | the paper's record | 52 | — | [`PARTICLE_WIRE_BYTES`]: the cost model and the network simulator only |
//!
//! The paper's experiments use a 52-byte particle record (§III.C: "The
//! particles are 52 bytes in size"). Ours keeps `f64` components for
//! numerical quality and ships each phase only what its receiver reads, so
//! none of the four records the transport counts is 52 bytes long; the
//! model and the simulator keep the paper's figure so their bandwidth terms
//! match the paper's exactly.

use crate::vec2::Vec2;

/// Bytes per particle in the *paper's* runs (§III.C), the unit of the
/// analytic cost model and the discrete-event network simulator. It is the
/// paper's record, not ours: the live transport counts the sizes in the
/// module table, and only element counts are compared between the two.
pub const PARTICLE_WIRE_BYTES: usize = 52;

// The sizes the module table promises.
const _: () = assert!(std::mem::size_of::<Particle>() == 64);
const _: () = assert!(std::mem::size_of::<ParticleState>() == 48);
const _: () = assert!(std::mem::size_of::<Source>() == 32);
const _: () = assert!(std::mem::size_of::<Vec2>() == 16);

/// A simulated particle.
///
/// `force` is the force *accumulator* for the current timestep: distributed
/// algorithms add partial contributions into it (possibly on several
/// processors, later combined by a sum-reduction) and the integrator consumes
/// and resets it.
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(C)]
pub struct Particle {
    /// Position in simulation space.
    pub pos: Vec2,
    /// Velocity.
    pub vel: Vec2,
    /// Force accumulator for the current timestep.
    pub force: Vec2,
    /// Particle mass (must be positive).
    pub mass: f64,
    /// Stable global identifier; used to skip self-interactions and to
    /// compare distributed results against the serial reference.
    pub id: u64,
}

impl Particle {
    /// A unit-mass particle at rest at `pos`.
    pub fn at(id: u64, pos: Vec2) -> Self {
        Particle {
            pos,
            vel: Vec2::zero(),
            force: Vec2::zero(),
            mass: 1.0,
            id,
        }
    }

    /// A particle with explicit position and velocity, unit mass.
    pub fn moving(id: u64, pos: Vec2, vel: Vec2) -> Self {
        Particle {
            pos,
            vel,
            force: Vec2::zero(),
            mass: 1.0,
            id,
        }
    }

    /// Builder-style mass override.
    pub fn with_mass(mut self, mass: f64) -> Self {
        assert!(mass > 0.0, "particle mass must be positive, got {mass}");
        self.mass = mass;
        self
    }

    /// Clear the force accumulator (start of a timestep).
    #[inline]
    pub fn reset_force(&mut self) {
        self.force = Vec2::zero();
    }

    /// Kinetic energy `m |v|^2 / 2`.
    #[inline]
    pub fn kinetic_energy(&self) -> f64 {
        0.5 * self.mass * self.vel.norm_sq()
    }

    /// Momentum `m v`.
    #[inline]
    pub fn momentum(&self) -> Vec2 {
        self.vel * self.mass
    }
}

/// What a force evaluation reads of a *source* particle, and all of it:
/// the payload of the CA drivers' broadcast, skew and shift, and the element
/// the block kernel streams. Velocity and the force accumulator belong to
/// the owner of the particle and never travel with it.
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(C)]
pub struct Source {
    /// Position in simulation space.
    pub pos: Vec2,
    /// Particle mass.
    pub mass: f64,
    /// The particle's [`Particle::id`].
    pub id: u64,
}

impl Source {
    /// The particle a force law is shown for this source, and the target a
    /// replica accumulates into: at rest, force accumulator cleared.
    #[inline]
    pub fn particle(&self) -> Particle {
        Particle {
            pos: self.pos,
            vel: Vec2::zero(),
            force: Vec2::zero(),
            mass: self.mass,
            id: self.id,
        }
    }
}

impl From<&Particle> for Source {
    #[inline]
    fn from(p: &Particle) -> Self {
        Source {
            pos: p.pos,
            mass: p.mass,
            id: p.id,
        }
    }
}

/// A particle without its force accumulator: the payload of the
/// fault-tolerant drivers' team broadcast. The accumulator is cleared
/// before every evaluation, so sending it would send zeros; a replica
/// rebuilds the particle with a cleared one.
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(C)]
pub struct ParticleState {
    /// Position in simulation space.
    pub pos: Vec2,
    /// Velocity.
    pub vel: Vec2,
    /// Particle mass.
    pub mass: f64,
    /// The particle's [`Particle::id`].
    pub id: u64,
}

impl ParticleState {
    /// The particle this state describes, force accumulator cleared.
    #[inline]
    pub fn particle(&self) -> Particle {
        Particle {
            pos: self.pos,
            vel: self.vel,
            force: Vec2::zero(),
            mass: self.mass,
            id: self.id,
        }
    }
}

impl From<&Particle> for ParticleState {
    #[inline]
    fn from(p: &Particle) -> Self {
        ParticleState {
            pos: p.pos,
            vel: p.vel,
            mass: p.mass,
            id: p.id,
        }
    }
}

/// The [`Source`]s of a block, in its order.
pub fn sources(block: &[Particle]) -> Vec<Source> {
    block.iter().map(Source::from).collect()
}

/// Clear every force accumulator in a slice.
pub fn reset_forces(particles: &mut [Particle]) {
    for p in particles {
        p.reset_force();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_size_matches_paper() {
        assert_eq!(PARTICLE_WIRE_BYTES, 52);
    }

    #[test]
    fn a_source_keeps_what_a_law_reads_and_nothing_else() {
        let mut p = Particle::moving(7, Vec2::new(1.0, 2.0), Vec2::new(3.0, 4.0)).with_mass(2.5);
        p.force = Vec2::new(-1.0, 0.5);
        let s = Source::from(&p);
        assert_eq!((s.pos, s.mass, s.id), (p.pos, 2.5, 7));
        assert_eq!(s.particle(), Particle::at(7, p.pos).with_mass(2.5));
        assert_eq!(sources(&[p, p]), [s, s]);
    }

    #[test]
    fn a_state_keeps_all_but_the_force() {
        let mut p = Particle::moving(7, Vec2::new(1.0, 2.0), Vec2::new(3.0, 4.0)).with_mass(2.5);
        p.force = Vec2::new(-1.0, 0.5);
        let back = ParticleState::from(&p).particle();
        assert_eq!(
            back,
            Particle {
                force: Vec2::zero(),
                ..p
            }
        );
    }

    #[test]
    fn constructors() {
        let p = Particle::at(3, Vec2::new(1.0, 2.0));
        assert_eq!(p.id, 3);
        assert_eq!(p.mass, 1.0);
        assert_eq!(p.vel, Vec2::zero());
        assert_eq!(p.force, Vec2::zero());

        let q = Particle::moving(4, Vec2::zero(), Vec2::new(1.0, -1.0)).with_mass(2.5);
        assert_eq!(q.mass, 2.5);
        assert_eq!(q.vel, Vec2::new(1.0, -1.0));
    }

    #[test]
    #[should_panic(expected = "mass must be positive")]
    fn zero_mass_rejected() {
        let _ = Particle::at(0, Vec2::zero()).with_mass(0.0);
    }

    #[test]
    fn energy_and_momentum() {
        let p = Particle::moving(0, Vec2::zero(), Vec2::new(3.0, 4.0)).with_mass(2.0);
        assert_eq!(p.kinetic_energy(), 25.0);
        assert_eq!(p.momentum(), Vec2::new(6.0, 8.0));
    }

    #[test]
    fn reset_forces_clears_all() {
        let mut ps = vec![Particle::at(0, Vec2::zero()); 4];
        for p in &mut ps {
            p.force = Vec2::new(1.0, 1.0);
        }
        reset_forces(&mut ps);
        assert!(ps.iter().all(|p| p.force == Vec2::zero()));
    }
}
