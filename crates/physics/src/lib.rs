//! # nbody-physics
//!
//! Physics substrate for the reproduction of *“A Communication-Optimal
//! N-Body Algorithm for Direct Interactions”* (Driscoll, Georganas,
//! Koanantakool, Solomonik, Yelick — IPDPS 2013).
//!
//! This crate contains everything the distributed algorithms treat as a
//! black box: particle representation (the [`particle`] module docs name
//! every size: 64 bytes in memory, 32-byte sources and 16-byte forces on the
//! wire, the paper's 52 in the models), pairwise force laws
//! including the paper's inverse-square repulsion and finite-cutoff wrappers,
//! time integrators, boundary conditions (the paper uses reflective walls),
//! deterministic initial-condition generators, and — crucially — the serial
//! O(n²) reference engines that every distributed algorithm is validated
//! against. The `r_c` cell cull lives with the kernel that uses it
//! (`ca_nbody::kernel`).

#![warn(missing_docs)]

pub mod diagnostics;
pub mod domain;
pub mod force;
pub mod force_ext;
pub mod init;
pub mod integrator;
pub mod lanes;
pub mod particle;
pub mod reference;
pub mod vec2;

pub use domain::{Boundary, Domain};
pub use force::{Counting, Cutoff, ForceLaw, Gravity, LennardJones, RepulsiveInverseSquare};
pub use force_ext::{OneWay, ShiftedForce, Yukawa};
pub use integrator::{ExplicitEuler, Integrator, SemiImplicitEuler, VelocityVerlet};
pub use lanes::{F64x2, Mask2, Vec2x2};
pub use particle::{Particle, ParticleState, Source, PARTICLE_WIRE_BYTES};
pub use vec2::Vec2;
