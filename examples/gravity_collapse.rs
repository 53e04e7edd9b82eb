//! Gravity collapse: a self-gravitating particle cluster, demonstrating
//! the all-pairs API with an attractive force law, open boundaries, and a
//! sweep over replication factors with per-phase traffic accounting.
//!
//! Run with: `cargo run --release --example gravity_collapse`

use ca_nbody::{run_distributed, run_serial, Method, SimConfig};
use nbody_comm::Phase;
use nbody_physics::{diagnostics, init, Boundary, Domain, Gravity, SemiImplicitEuler};

fn main() {
    let domain = Domain::square(10.0);
    let cfg = SimConfig {
        law: Gravity {
            g: 5e-4,
            softening: 0.05,
        },
        integrator: SemiImplicitEuler,
        domain,
        boundary: Boundary::Open,
        dt: 0.01,
        steps: 40,
    };
    // Two gaussian sub-clusters that fall toward each other.
    let initial = init::gaussian_clusters(512, &domain, 2, 0.4, 99);
    let r0 = mean_radius(&initial);
    println!(
        "gravity collapse: n = {}, {} steps",
        initial.len(),
        cfg.steps
    );
    println!("  initial mean radius about the center of mass: {r0:.4}");

    for (p, c) in [(4usize, 1usize), (8, 2), (16, 4)] {
        let start = std::time::Instant::now();
        let result = run_distributed(&cfg, Method::CaAllPairs { c }, p, &initial);
        let wall = start.elapsed();
        let r1 = mean_radius(&result.particles);
        let shift_msgs: u64 = result
            .stats
            .iter()
            .map(|s| s.phase(Phase::Shift).messages)
            .max()
            .unwrap_or(0);
        println!(
            "  p={p:>2} c={c}: mean radius {r1:.4} (collapsing), \
             {shift_msgs} shift msgs/rank over {} steps (p/c^2 = {} per step), wall {:.2?}",
            cfg.steps,
            p / (c * c),
            wall
        );
        assert!(r1 < r0, "cluster should contract under gravity");
    }

    // Momentum conservation: gravity is symmetric and the domain is open.
    let result = run_distributed(&cfg, Method::CaAllPairs { c: 2 }, 8, &initial);
    let momentum = diagnostics::total_momentum(&result.particles).norm();
    println!("  |total momentum| after distributed run: {momentum:.3e}");

    let serial = run_serial(&cfg, &initial);
    let max_err = result
        .particles
        .iter()
        .zip(&serial)
        .map(|(a, b)| (a.pos - b.pos).norm())
        .fold(0.0, f64::max);
    println!("  max deviation vs serial: {max_err:.3e}");
    assert!(max_err < 1e-8);
    println!("OK.");
}

fn mean_radius(particles: &[nbody_physics::Particle]) -> f64 {
    let com = diagnostics::center_of_mass(particles);
    particles.iter().map(|p| p.pos.distance(com)).sum::<f64>() / particles.len() as f64
}
