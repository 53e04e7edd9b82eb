//! Quickstart: the paper's simulation in a few lines.
//!
//! Simulates the paper's workload — particles in a 2D box with reflective
//! walls and an inverse-square repulsive force — using the
//! communication-avoiding all-pairs algorithm (Algorithm 1) on 8 rank
//! threads with replication factor c = 2, and verifies the distributed
//! trajectory against the serial reference.
//!
//! Run with: `cargo run --release --example quickstart`

use ca_nbody::{run_distributed, run_serial, Method, SimConfig};
use nbody_physics::{diagnostics, init, Boundary, Domain, RepulsiveInverseSquare, VelocityVerlet};

fn main() {
    let cfg = SimConfig {
        law: RepulsiveInverseSquare {
            strength: 1e-3,
            softening: 1e-3,
        },
        integrator: VelocityVerlet,
        domain: Domain::unit(),
        boundary: Boundary::Reflective,
        dt: 0.005,
        steps: 50,
    };
    let mut initial = init::uniform(256, &cfg.domain, 2013);
    init::thermalize(&mut initial, 1e-4, 7);

    println!("CA all-pairs N-body quickstart");
    println!(
        "  n = {} particles, {} steps, dt = {}",
        initial.len(),
        cfg.steps,
        cfg.dt
    );
    let ke0 = diagnostics::total_kinetic_energy(&initial);
    println!("  initial kinetic energy: {ke0:.6e}");

    // Distributed run: 8 rank threads in a 4-team x 2-row grid.
    let start = std::time::Instant::now();
    let result = run_distributed(&cfg, Method::CaAllPairs { c: 2 }, 8, &initial);
    let wall = start.elapsed();
    let ke1 = diagnostics::total_kinetic_energy(&result.particles);
    println!(
        "  final kinetic energy:   {ke1:.6e}  ({:.2?} on 8 ranks, c = 2)",
        wall
    );

    // Communication summary (rank 0).
    let s = &result.stats[0];
    println!(
        "  rank 0 traffic: {} messages, {} particles moved, {} collectives",
        s.total_messages(),
        s.total_elements(),
        s.total_collectives()
    );

    // Cross-check against the serial engine.
    let serial = run_serial(&cfg, &initial);
    let max_err = result
        .particles
        .iter()
        .zip(&serial)
        .map(|(a, b)| (a.pos - b.pos).norm())
        .fold(0.0, f64::max);
    println!("  max position deviation vs serial reference: {max_err:.3e}");
    assert!(max_err < 1e-9, "distributed trajectory diverged");
    println!("OK: distributed == serial.");
}
