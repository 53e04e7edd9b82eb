//! Molecular-dynamics-style workload: a Lennard-Jones fluid with a finite
//! cutoff radius, run with the 2D communication-avoiding cutoff algorithm
//! (the Fig. 5 generalization of Algorithm 2), including the per-step
//! spatial re-assignment the paper charges as "Communication (Re-assign)":
//! a neighbour exchange, one message per adjacent team per step — on the
//! 4 x 2 team grid of `c = 1` that is 3 from a corner team and 5 from the
//! others, 32 a step where an all-to-all would send 8 x 7 = 56.
//!
//! Run with: `cargo run --release --example md_cutoff`

use ca_nbody::{run_distributed, run_serial, Method, SimConfig};
use nbody_comm::Phase;
use nbody_physics::{diagnostics, init, Boundary, Cutoff, Domain, LennardJones, VelocityVerlet};

fn main() {
    // An LJ fluid at moderate density; sigma sets the particle "size".
    let domain = Domain::square(30.0);
    let sigma = 1.0;
    let r_c = 2.5 * sigma; // the classic LJ cutoff
    let law = Cutoff::new(
        LennardJones {
            epsilon: 1.0,
            sigma,
        },
        r_c,
    );
    let cfg = SimConfig {
        law,
        integrator: VelocityVerlet,
        domain,
        boundary: Boundary::Reflective,
        dt: 0.002,
        steps: 25,
    };
    // Lattice start (avoids overlapping LJ cores), thermalized.
    let mut initial = init::lattice(400, &domain);
    init::thermalize(&mut initial, 0.2, 3);

    println!("LJ fluid with cutoff: n = {}, rc = {r_c}", initial.len());
    let e0 = diagnostics::total_energy(&initial, &cfg.law, &domain, cfg.boundary);
    println!("  initial total energy: {e0:.4}");

    for (method, p, label) in [
        (Method::Ca2dCutoff { c: 1 }, 8, "CA 2D-cutoff c=1"),
        (Method::Ca2dCutoff { c: 2 }, 8, "CA 2D-cutoff c=2"),
        (Method::SpatialHalo2d, 8, "spatial halo    "),
    ] {
        let start = std::time::Instant::now();
        let result = run_distributed(&cfg, method, p, &initial);
        let wall = start.elapsed();
        let e1 = diagnostics::total_energy(&result.particles, &cfg.law, &domain, cfg.boundary);
        let reassign_msgs: u64 = result
            .stats
            .iter()
            .map(|s| s.phase(Phase::Reassign).messages)
            .sum();
        println!(
            "  {label}: energy {e1:.4} (drift {:+.2e}), {} re-assign msgs per step, wall {:.2?}",
            e1 - e0,
            reassign_msgs / cfg.steps as u64,
            wall
        );
        assert_eq!(result.particles.len(), initial.len());
    }

    // The distributed cutoff trajectory must match the serial one.
    let serial = run_serial(&cfg, &initial);
    let dist = run_distributed(&cfg, Method::Ca2dCutoff { c: 2 }, 8, &initial);
    let max_err = dist
        .particles
        .iter()
        .zip(&serial)
        .map(|(a, b)| (a.pos - b.pos).norm())
        .fold(0.0, f64::max);
    println!("  max deviation vs serial: {max_err:.3e}");
    assert!(max_err < 1e-8);
    println!("OK.");
}
