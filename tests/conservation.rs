//! Physics invariants of distributed runs: the parallel decomposition must
//! not break conservation laws the serial integrator provides — including
//! across the fault paths (replica kill-and-recover, degraded shrink),
//! where the online health monitors measure exactly what was lost.

use ca_nbody::recovery::{FaultError, RetryPolicy};
use ca_nbody::{run_distributed, Method, Run, RunResult, SimConfig};
use nbody_comm::{FaultPlan, RunTimeline};
use nbody_physics::{
    diagnostics, init, Boundary, Cutoff, Domain, Gravity, LennardJones, RepulsiveInverseSquare,
    SemiImplicitEuler, VelocityVerlet,
};
use nbody_simhealth::{HealthConfig, HealthReport};

/// A traced, health-monitored run under `plan`: the result with its health
/// verdict split out, and the timeline.
fn health_run(
    cfg: &SimConfig<Gravity, VelocityVerlet>,
    method: Method,
    p: usize,
    plan: &FaultPlan,
    policy: &RetryPolicy,
    health: &HealthConfig,
    initial: &[nbody_physics::Particle],
) -> (Result<(RunResult, HealthReport), FaultError>, RunTimeline) {
    let out = Run::new(cfg, method, p)
        .trace()
        .faults(plan, policy)
        .health(health)
        .execute(initial);
    let res = out.result.map(|run| {
        let report = run.health.expect("health runs always produce a report");
        (run, report)
    });
    (res, out.artifacts.timeline)
}

#[test]
fn momentum_conserved_open_boundary_symmetric_law() {
    let cfg = SimConfig {
        law: Gravity {
            g: 1e-3,
            softening: 0.05,
        },
        integrator: VelocityVerlet,
        domain: Domain::square(8.0),
        boundary: Boundary::Open,
        dt: 0.01,
        steps: 20,
    };
    let mut initial = init::uniform(48, &cfg.domain, 6);
    init::thermalize(&mut initial, 0.01, 7);
    assert!(diagnostics::total_momentum(&initial).norm() < 1e-12);

    for (method, p) in [
        (Method::CaAllPairs { c: 2 }, 8),
        (Method::CaAllPairs { c: 3 }, 9),
        (Method::CaAllPairs { c: 1 }, 6),
    ] {
        let result = run_distributed(&cfg, method, p, &initial);
        let mom = diagnostics::total_momentum(&result.particles).norm();
        assert!(mom < 1e-10, "{method:?}: momentum drift {mom:.3e}");
    }
}

#[test]
fn energy_stable_with_verlet_all_pairs() {
    let cfg = SimConfig {
        law: RepulsiveInverseSquare {
            strength: 1e-4,
            softening: 0.02,
        },
        integrator: VelocityVerlet,
        domain: Domain::unit(),
        boundary: Boundary::Reflective,
        dt: 0.002,
        steps: 100,
    };
    let mut initial = init::uniform(40, &cfg.domain, 9);
    init::thermalize(&mut initial, 1e-4, 10);
    let e0 = diagnostics::total_energy(&initial, &cfg.law, &cfg.domain, cfg.boundary);

    let result = run_distributed(&cfg, Method::CaAllPairs { c: 2 }, 8, &initial);
    let e1 = diagnostics::total_energy(&result.particles, &cfg.law, &cfg.domain, cfg.boundary);
    let rel = (e1 - e0).abs() / e0.abs().max(1e-12);
    assert!(rel < 0.05, "energy drift {rel:.3}: {e0} -> {e1}");
}

#[test]
fn energy_stable_with_verlet_lj_cutoff() {
    let domain = Domain::square(20.0);
    let cfg = SimConfig {
        law: Cutoff::new(LennardJones::default(), 2.5),
        integrator: VelocityVerlet,
        domain,
        boundary: Boundary::Reflective,
        dt: 0.002,
        steps: 50,
    };
    let mut initial = init::lattice(144, &domain);
    init::thermalize(&mut initial, 0.1, 3);
    let e0 = diagnostics::total_energy(&initial, &cfg.law, &domain, cfg.boundary);

    let result = run_distributed(&cfg, Method::Ca2dCutoff { c: 2 }, 8, &initial);
    let e1 = diagnostics::total_energy(&result.particles, &cfg.law, &domain, cfg.boundary);
    // Cutoff truncation makes energy only approximately conserved; the
    // check is against blow-up, not machine precision.
    let rel = (e1 - e0).abs() / e0.abs().max(1e-12);
    assert!(rel < 0.05, "LJ energy drift {rel:.3}: {e0} -> {e1}");
    assert!(result
        .particles
        .iter()
        .all(|p| p.pos.is_finite() && p.vel.is_finite()));
}

#[test]
fn invariants_hold_across_kill_and_recover() {
    // Killing a replica mid-run must not perturb the physics: recovery
    // re-seeds the dead rank from its column's clean checkpoint, so the
    // recovered trajectory conserves momentum exactly and the online
    // health monitors agree the run stayed clean.
    let cfg = SimConfig {
        law: Gravity {
            g: 1e-3,
            softening: 0.05,
        },
        integrator: VelocityVerlet,
        domain: Domain::square(8.0),
        boundary: Boundary::Open,
        dt: 0.01,
        steps: 8,
    };
    let mut initial = init::uniform(48, &cfg.domain, 6);
    init::thermalize(&mut initial, 0.01, 7);
    let e0 = diagnostics::total_energy(&initial, &cfg.law, &cfg.domain, cfg.boundary);

    // p=8, c=2: ranks 4..8 are the replica row; rank 5 backs team 1.
    let plan = FaultPlan::kill(5, 1);
    let policy = RetryPolicy::with_timeout_ms(200);
    let (res, _tl) = health_run(
        &cfg,
        Method::CaAllPairs { c: 2 },
        8,
        &plan,
        &policy,
        &HealthConfig::enabled(),
        &initial,
    );
    let (run, report) = res.expect("replica kill recovers");
    assert!(run.recovered, "a kill must register as a recovery");
    assert!(
        run.shrinks.is_empty(),
        "replica kill must not shrink the world"
    );
    assert_eq!(run.lost_particles, 0);

    let mom = diagnostics::total_momentum(&run.particles).norm();
    assert!(mom < 1e-10, "momentum drift across recovery: {mom:.3e}");
    let e1 = diagnostics::total_energy(&run.particles, &cfg.law, &cfg.domain, cfg.boundary);
    let rel = (e1 - e0).abs() / e0.abs().max(1e-12);
    assert!(
        rel < 0.05,
        "energy drift across recovery {rel:.3}: {e0} -> {e1}"
    );

    // The monitors watched the same run and must concur.
    assert_eq!(report.sentinel_events, 0);
    assert!(report.steps_checked >= cfg.steps as u64);
    assert!(
        report.max_momentum_norm < 1e-10,
        "online momentum monitor saw a jump: {:.3e}",
        report.max_momentum_norm
    );
    assert!(
        report.max_rel_energy_drift < 0.05,
        "online energy monitor saw drift: {:.3e}",
        report.max_rel_energy_drift
    );
}

#[test]
fn shrink_lost_particles_match_momentum_jump() {
    // With c=1 a killed rank takes its whole team column down and the
    // world shrinks onto the survivors. The dropped particles carry
    // momentum away; the post-shrink total must equal the survivors'
    // initial momentum exactly, and the health monitor's measured
    // momentum jump must be consistent with the reported particle loss.
    let cfg = SimConfig {
        law: Gravity {
            g: 1e-3,
            softening: 0.05,
        },
        integrator: VelocityVerlet,
        domain: Domain::square(8.0),
        boundary: Boundary::Open,
        dt: 0.01,
        steps: 6,
    };
    let mut initial = init::uniform(48, &cfg.domain, 6);
    init::thermalize(&mut initial, 0.01, 7);
    assert!(diagnostics::total_momentum(&initial).norm() < 1e-12);

    // Kill team 1's only rank before any force exchange completes: the
    // lost particles leave with their initial momenta.
    let plan = FaultPlan::kill(1, 0);
    let policy = RetryPolicy::with_timeout_ms(200);
    let (res, _tl) = health_run(
        &cfg,
        Method::CaAllPairs { c: 1 },
        4,
        &plan,
        &policy,
        &HealthConfig::enabled(),
        &initial,
    );
    let (run, report) = res.expect("c=1 kill degrades but completes");
    // One shrink, recorded as the run's bundle carries it: the step that
    // lost team 1, the launch ranks that go on, and what they go on with.
    let shrink = nbody_comm::Shrink {
        step: 0,
        survivors: vec![0, 2, 3],
        c: 1,
        n: 48 - run.lost_particles,
    };
    assert_eq!(run.shrinks, [shrink]);
    assert_eq!(run.final_ranks, 3);

    let final_ids: std::collections::HashSet<u64> = run.particles.iter().map(|p| p.id).collect();
    let lost: Vec<_> = initial
        .iter()
        .filter(|p| !final_ids.contains(&p.id))
        .cloned()
        .collect();
    assert_eq!(
        lost.len(),
        run.lost_particles,
        "reported loss must match the missing ids"
    );
    assert_eq!(run.lost_particles, 48 / 4, "one team column of particles");

    // Survivors interact only with each other after the shrink, so
    // their total momentum is frozen at its initial value — which is
    // exactly minus what the lost column took with it.
    let survivors: Vec<_> = initial
        .iter()
        .filter(|p| final_ids.contains(&p.id))
        .cloned()
        .collect();
    let expected = diagnostics::total_momentum(&survivors);
    let got = diagnostics::total_momentum(&run.particles);
    assert!(
        (got - expected).norm() < 1e-10,
        "post-shrink momentum {got:?} != surviving momentum {expected:?}"
    );
    let jump = diagnostics::total_momentum(&lost).norm();
    assert!(
        (report.max_momentum_norm - jump).abs() < 1e-10,
        "monitor momentum {:.3e} inconsistent with lost momentum {jump:.3e}",
        report.max_momentum_norm
    );
    assert_eq!(report.sentinel_events, 0);
}

#[test]
fn particles_stay_inside_reflective_walls() {
    let cfg = SimConfig {
        law: RepulsiveInverseSquare {
            strength: 5e-3,
            softening: 1e-3,
        },
        integrator: SemiImplicitEuler,
        domain: Domain::unit(),
        boundary: Boundary::Reflective,
        dt: 0.02,
        steps: 60,
    };
    let mut initial = init::uniform(32, &cfg.domain, 4);
    init::thermalize(&mut initial, 0.05, 5);
    let result = run_distributed(&cfg, Method::CaAllPairs { c: 2 }, 8, &initial);
    for p in &result.particles {
        assert!(
            (0.0..=1.0).contains(&p.pos.x) && (0.0..=1.0).contains(&p.pos.y),
            "escaped: {:?}",
            p.pos
        );
        assert!(p.pos.is_finite() && p.vel.is_finite());
    }
}
