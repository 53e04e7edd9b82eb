//! MD observables from a distributed run: equilibrate a Lennard-Jones
//! fluid with the CA 2D-cutoff algorithm (force-shifted truncation, as in
//! production MD) under periodic boundaries — the extension beyond the
//! paper's non-periodic setup — then measure temperature and the radial
//! distribution function g(r).
//!
//! Run with: `cargo run --release --example lj_fluid_observables`

use ca_nbody::{run_distributed, Method, SimConfig};
use nbody_physics::{
    diagnostics, init, Boundary, Domain, LennardJones, ShiftedForce, VelocityVerlet,
};

fn main() {
    let n = 576; // 24 x 24 lattice
    let domain = Domain::square(26.0); // spacing ~1.08 sigma
    let law = ShiftedForce::new(LennardJones::default(), 2.5);
    let cfg = SimConfig {
        law,
        integrator: VelocityVerlet,
        domain,
        boundary: Boundary::Periodic,
        dt: 0.004,
        steps: 120,
    };
    let mut initial = init::lattice(n, &domain);
    init::thermalize(&mut initial, 0.45, 11);

    println!(
        "LJ fluid (force-shifted rc = 2.5 sigma), n = {n}, periodic box {:.0}^2",
        26.0
    );
    println!(
        "  initial temperature: {:.3}",
        diagnostics::temperature(&initial)
    );

    let start = std::time::Instant::now();
    let result = run_distributed(&cfg, Method::Ca2dCutoff { c: 2 }, 8, &initial);
    println!(
        "  equilibrated {} steps on 8 ranks (c = 2) in {:.2?}",
        cfg.steps,
        start.elapsed()
    );
    println!(
        "  final temperature:   {:.3}",
        diagnostics::temperature(&result.particles)
    );

    // g(r): the LJ fluid shows an exclusion core below ~0.9 sigma and a
    // first-neighbor peak near the potential minimum (~1.12 sigma).
    let g =
        diagnostics::radial_distribution(&result.particles, &domain, Boundary::Periodic, 3.0, 15);
    println!("  g(r):");
    for (r, v) in &g {
        let bar = "#".repeat((v * 20.0).min(60.0) as usize);
        println!("    r={r:>5.2}  g={v:>5.2}  {bar}");
    }

    let core = g
        .iter()
        .filter(|(r, _)| *r < 0.8)
        .map(|(_, v)| *v)
        .fold(0.0, f64::max);
    let peak = g
        .iter()
        .filter(|(r, _)| (0.9..1.6).contains(r))
        .map(|(_, v)| *v)
        .fold(0.0, f64::max);
    assert!(core < 0.2, "LJ core should be excluded, got g={core}");
    assert!(
        peak > 1.0,
        "first-neighbor shell should be enhanced, got g={peak}"
    );
    println!("OK: exclusion core + first-neighbor peak present.");
}
