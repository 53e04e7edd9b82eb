//! Long-horizon stress tests: many timesteps, migrations across many
//! slabs, hot systems — the conditions that surface protocol drift,
//! reassignment races, and accumulator corruption.

use ca_nbody::{run_distributed, run_serial, Method, SimConfig};
use nbody_physics::{
    diagnostics, init, Boundary, Cutoff, Domain, RepulsiveInverseSquare, SemiImplicitEuler, Vec2,
    VelocityVerlet,
};

/// Bound every blocking receive in this test binary: a protocol bug that
/// would deadlock now dies within seconds carrying a diagnostic
/// `CommError::Timeout` panic (who was waiting, for which tag, how long)
/// instead of stalling the whole suite on the 60 s default. The variable
/// is read once by the comm layer, so concurrent tests setting it again
/// is harmless.
fn bound_recv_timeouts() {
    std::env::set_var("NBODY_RECV_TIMEOUT_SECS", "20");
}

#[test]
fn fifty_step_cutoff_with_heavy_migration() {
    bound_recv_timeouts();
    // Hot particles cross many slab boundaries; the spatial decomposition
    // must track them without losing or duplicating anyone.
    let cfg = SimConfig {
        law: Cutoff::new(
            RepulsiveInverseSquare {
                strength: 1e-3,
                softening: 5e-3,
            },
            0.3,
        ),
        integrator: SemiImplicitEuler,
        domain: Domain::unit(),
        boundary: Boundary::Reflective,
        dt: 0.02,
        steps: 50,
    };
    let mut initial = init::uniform(48, &cfg.domain, 71);
    init::thermalize(&mut initial, 0.2, 72); // fast particles

    let want = run_serial(&cfg, &initial);
    for (method, p) in [
        (Method::Ca1dCutoff { c: 2 }, 8),
        (Method::Ca2dCutoff { c: 2 }, 8),
        (Method::Ca1dCutoff { c: 1 }, 6),
    ] {
        let got = run_distributed(&cfg, method, p, &initial);
        assert_eq!(got.particles.len(), 48, "{method:?}");
        let dev = got
            .particles
            .iter()
            .zip(&want)
            .map(|(a, b)| (a.pos - b.pos).norm())
            .fold(0.0, f64::max);
        assert!(dev < 1e-7, "{method:?}: deviation {dev:.3e} after 50 steps");
    }
}

#[test]
fn hundred_step_all_pairs_remains_stable() {
    bound_recv_timeouts();
    let cfg = SimConfig {
        law: RepulsiveInverseSquare {
            strength: 5e-4,
            softening: 5e-3,
        },
        integrator: VelocityVerlet,
        domain: Domain::unit(),
        boundary: Boundary::Reflective,
        dt: 0.005,
        steps: 100,
    };
    let mut initial = init::uniform(64, &cfg.domain, 5);
    init::thermalize(&mut initial, 1e-3, 6);
    let e0 = diagnostics::total_energy(&initial, &cfg.law, &cfg.domain, cfg.boundary);

    let got = run_distributed(&cfg, Method::CaAllPairs { c: 2 }, 8, &initial);
    let e1 = diagnostics::total_energy(&got.particles, &cfg.law, &cfg.domain, cfg.boundary);
    assert!(
        (e1 - e0).abs() < 0.05 * e0.abs().max(1e-9),
        "energy {e0} -> {e1}"
    );
    for q in &got.particles {
        assert!(q.pos.is_finite() && q.vel.is_finite());
        assert!((0.0..=1.0).contains(&q.pos.x) && (0.0..=1.0).contains(&q.pos.y));
    }
    // Exactness after 100 steps, too.
    let want = run_serial(&cfg, &initial);
    let dev = got
        .particles
        .iter()
        .zip(&want)
        .map(|(a, b)| (a.pos - b.pos).norm())
        .fold(0.0, f64::max);
    assert!(dev < 1e-7, "deviation {dev:.3e}");
}

#[test]
fn repeated_runs_are_deterministic() {
    bound_recv_timeouts();
    // Thread scheduling must not leak into results: two identical
    // distributed runs produce bit-identical states.
    let cfg = SimConfig {
        law: Cutoff::new(RepulsiveInverseSquare::default(), 0.25),
        integrator: SemiImplicitEuler,
        domain: Domain::unit(),
        boundary: Boundary::Reflective,
        dt: 0.01,
        steps: 12,
    };
    let initial = init::uniform(40, &cfg.domain, 13);
    let a = run_distributed(&cfg, Method::Ca1dCutoff { c: 2 }, 8, &initial);
    let b = run_distributed(&cfg, Method::Ca1dCutoff { c: 2 }, 8, &initial);
    assert_eq!(a.particles, b.particles, "nondeterministic distributed run");
}

#[test]
fn clustered_load_survives_long_cutoff_run() {
    bound_recv_timeouts();
    // Extreme imbalance: everything in one corner, with reassignment
    // slowly spreading it out under repulsion.
    let cfg = SimConfig {
        law: Cutoff::new(
            RepulsiveInverseSquare {
                strength: 5e-3,
                softening: 5e-3,
            },
            0.2,
        ),
        integrator: SemiImplicitEuler,
        domain: Domain::unit(),
        boundary: Boundary::Reflective,
        dt: 0.02,
        steps: 40,
    };
    let initial = init::gaussian_clusters(56, &cfg.domain, 1, 0.03, 22);
    let want = run_serial(&cfg, &initial);
    let got = run_distributed(&cfg, Method::Ca1dCutoff { c: 2 }, 12, &initial);
    let dev = got
        .particles
        .iter()
        .zip(&want)
        .map(|(a, b)| (a.pos - b.pos).norm())
        .fold(0.0, f64::max);
    assert!(dev < 1e-7, "deviation {dev:.3e}");
}

/// The contract re-assignment enforces: a particle crosses one cell per
/// step at most. One that does not is never dropped, mis-homed or sent: its
/// leader stops the run naming it (and the step whose evaluation the
/// re-assignment precedes: step 0 moved it, step 1 finds it), and that
/// message — not a waiting peer's time-out, which the bound above would
/// put 20 s away — is what the run fails with.
#[test]
fn a_particle_that_outruns_its_neighbourhood_ends_the_run_with_an_error_naming_it() {
    bound_recv_timeouts();
    let cfg = SimConfig {
        law: Cutoff::new(RepulsiveInverseSquare::default(), 0.1),
        integrator: SemiImplicitEuler,
        domain: Domain::unit(),
        boundary: Boundary::Periodic,
        dt: 0.01,
        steps: 3,
    };
    let mut initial = init::uniform(40, &cfg.domain, 3);
    // Five slabs of width 0.2: 0.45 in one step is two slabs east.
    let fast = initial
        .iter()
        .position(|p| p.pos.x < 0.15)
        .expect("a particle in the first slab");
    initial[fast].vel = Vec2::new(45.0, 0.0);
    let started = std::time::Instant::now();
    let method = Method::Ca1dCutoff { c: 1 };
    let run = std::panic::catch_unwind(|| run_distributed(&cfg, method, 5, &initial));
    let payload = run.expect_err("the run must not finish");
    let said = payload.downcast_ref::<String>().expect("a formatted panic");
    let names = format!("step 1: particle {fast} left team 0 for team 2,");
    assert!(said.starts_with(&names), "{said}");
    assert!(
        started.elapsed().as_secs() < 10,
        "nobody waited out a deadline"
    );
}
