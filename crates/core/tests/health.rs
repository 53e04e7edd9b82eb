//! Numerical-health integration tests: clean CA runs must report clean
//! invariants with energy/momentum series landing in the timeline, a
//! planned NaN must abort every rank with the injected (rank, step) blamed
//! in the flight recorder, a planned corruption must fail the copy's own
//! digest and be repaired like a dead rank's copy, and one plan holding a
//! kill and a NaN must do both.

use ca_nbody::recovery::{FaultError, RetryPolicy};
use ca_nbody::sim::{Method, Run, RunResult, SimConfig};
use nbody_comm::{EventKind, FaultKind, FaultPlan, RunTimeline};
use nbody_physics::{
    init, Boundary, Cutoff, Domain, ForceLaw, Gravity, Integrator, Particle, VelocityVerlet,
};
use nbody_simhealth::{HealthConfig, HealthReport};

/// A traced, health-monitored run under `plan`: the result with its health
/// verdict split out, and the timeline (a postmortem bundle on failure).
fn health_run<F: ForceLaw + Sync, I: Integrator + Sync>(
    cfg: &SimConfig<F, I>,
    method: Method,
    p: usize,
    plan: &FaultPlan,
    policy: &RetryPolicy,
    health: &HealthConfig,
    initial: &[Particle],
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

fn cfg(steps: usize) -> SimConfig<Gravity, VelocityVerlet> {
    SimConfig {
        law: Gravity {
            g: 1e-3,
            softening: 0.05,
        },
        integrator: VelocityVerlet,
        domain: Domain::unit(),
        boundary: Boundary::Open,
        dt: 1e-3,
        steps,
    }
}

#[test]
fn clean_all_pairs_run_reports_clean_invariants() {
    let cfg = cfg(8);
    let initial = init::uniform(48, &cfg.domain, 7);
    let (res, timeline) = health_run(
        &cfg,
        Method::CaAllPairs { c: 2 },
        8,
        &FaultPlan::empty(),
        &RetryPolicy::with_timeout_ms(200),
        &HealthConfig::enabled(),
        &initial,
    );
    let (run, report) = res.expect("clean run succeeds");
    assert_eq!(run.particles.len(), 48);
    assert!(
        report.is_clean(),
        "no sentinel events or mismatches: {report:?}"
    );
    assert_eq!(report.steps_checked, 8);
    assert!(
        report.max_rel_energy_drift < 1e-3,
        "velocity-Verlet gravity drift stays tiny over 8 steps, got {}",
        report.max_rel_energy_drift
    );
    assert!(
        report.max_momentum_norm < 1e-12,
        "open-boundary gravity conserves momentum to rounding, got {}",
        report.max_momentum_norm
    );
    assert!(
        report.energy_first < 0.0,
        "bound system has negative energy"
    );
    // Every rank's timeline carries the reduced series (identical values).
    let energies = timeline.energy_series();
    assert_eq!(energies.steps.len(), 8, "one energy point per checked step");
    assert_eq!(timeline.momentum_series().steps.len(), 8);
}

#[test]
fn health_cadence_checks_every_kth_step() {
    let cfg = cfg(9);
    let initial = init::uniform(32, &cfg.domain, 3);
    let health = HealthConfig { every: 3 };
    let (res, timeline) = health_run(
        &cfg,
        Method::CaAllPairs { c: 1 },
        4,
        &FaultPlan::empty(),
        &RetryPolicy::with_timeout_ms(200),
        &health,
        &initial,
    );
    let (_, report) = res.expect("clean run succeeds");
    // Steps 3 and 6 (step 0 is checked too but energy series keys off
    // non-zero energy, which step 0 also has).
    assert_eq!(report.steps_checked, 3);
    assert_eq!(timeline.energy_series().steps.len(), 3);
}

#[test]
fn injected_nan_is_blamed_at_the_seeded_rank_and_step() {
    let cfg = cfg(6);
    let initial = init::uniform(48, &cfg.domain, 7);
    let (res, timeline) = health_run(
        &cfg,
        Method::CaAllPairs { c: 2 },
        8,
        &FaultPlan::parse("nan:0@3").unwrap(),
        &RetryPolicy::with_timeout_ms(200),
        &HealthConfig::enabled(),
        &initial,
    );
    let err = res.expect_err("seeded NaN must abort the run");
    match &err {
        FaultError::NumericalFault { rank, step, detail } => {
            assert_eq!(*rank, 0);
            assert_eq!(*step, 3);
            assert!(detail.contains("non-finite"), "detail: {detail}");
        }
        other => panic!("expected NumericalFault, got {other:?}"),
    }
    // The blamed rank's flight recorder holds the sentinel event and the
    // postmortem failure marker; no other rank claims the blame.
    let rt = &timeline.ranks[0];
    let ev = rt
        .events
        .iter()
        .find(|e| e.kind == EventKind::NonFinite)
        .expect("blamed rank records a non-finite flight event");
    assert_eq!(ev.step, Some(3));
    assert!(
        ev.detail.contains("force"),
        "blames the force phase: {}",
        ev.detail
    );
    assert!(rt.failure.is_some(), "postmortem marker set");
    for rt in &timeline.ranks[1..] {
        assert!(rt.events.iter().all(|e| e.kind != EventKind::NonFinite));
    }
}

/// A corrupted copy fails its own digest, at any `c`, and is repaired by
/// the rule that repairs a dead rank's: from the lowest usable row of its
/// column, or, when the column has none, by the agreed shrink.
#[test]
fn a_copy_that_fails_its_digest_is_repaired_like_a_dead_ranks() {
    let cfg = cfg(6);
    let initial = init::uniform(48, &cfg.domain, 7);
    let (policy, health) = (RetryPolicy::with_timeout_ms(200), HealthConfig::enabled());
    let ca = |c| Method::CaAllPairs { c };
    // (case, method, p, plan, particles lost). At p=8, c=2 rank 4 is
    // (team 0, row 1) and rank 0 its row 0; at p=9, c=3 ranks 0 and 1 are
    // row 0 of teams 0 and 1, and the kill fires in the corrupt step.
    let cases = [
        ("c=2, row 1", ca(2), 8, "corrupt:4@2", 0),
        ("c=2, row 0", ca(2), 8, "corrupt:0@2", 0),
        ("c=3, row 0 + kill", ca(3), 9, "corrupt:0@0,kill:1@1", 0),
        ("c=1", ca(1), 4, "corrupt:1@1", 48 / 4),
    ];
    for (case, method, p, spec, lost) in cases {
        let plan = FaultPlan::parse(spec).unwrap();
        let out = Run::new(&cfg, method, p)
            .trace()
            .faults(&plan, &policy)
            .health(&health)
            .execute(&initial);
        let run = out.result.unwrap_or_else(|e| panic!("{case}: {e}"));
        let report = run.health.expect("health runs always produce a report");
        assert!(report.fingerprint_mismatches >= 1, "{case}: {report:?}");
        assert_eq!(report.sentinel_events, 0, "{case}");
        // The corrupted rank's flight recorder names the failed digest.
        let corrupted = plan.events.iter().find(|e| e.kind == FaultKind::Corrupt);
        let events = &out.artifacts.timeline.ranks[corrupted.unwrap().rank].events;
        assert!(
            events.iter().any(|e| e.kind == EventKind::ReplicaMismatch),
            "{case}: the corrupted rank records the mismatch"
        );
        if plan.events.len() == 1 {
            // The corrupted rank runs its attempt, so no peer waits out a
            // receive deadline and records a fault of its own.
            let detected = out
                .artifacts
                .metrics
                .sum_counter("fault_detected_total", None);
            assert_eq!(detected, 1, "{case}");
        }
        if lost == 0 {
            let clean = Run::new(&cfg, method, p).execute(&initial).result.unwrap();
            assert!(run.recovered && run.shrinks.is_empty(), "{case}");
            assert_eq!(run.particles, clean.particles, "{case}: bit-identical");
        } else {
            let shrunk = (run.shrinks.len(), run.lost_particles);
            assert_eq!(shrunk, (1, lost), "{case}: the column's only copy is lost");
        }
    }
}

#[test]
fn one_plan_recovers_its_kill_and_blames_its_nan() {
    let cfg = cfg(3);
    let initial = init::uniform(48, &cfg.domain, 7);
    let policy = RetryPolicy::with_timeout_ms(200);
    // No `.health()`: a plan holding a NaN runs the monitors itself.
    let run = |spec: &str| {
        let plan = FaultPlan::parse(spec).unwrap();
        let out = Run::new(&cfg, Method::CaAllPairs { c: 2 }, 8)
            .trace()
            .faults(&plan, &policy)
            .execute(&initial);
        (out.result, out.artifacts)
    };
    let blame = |res: Result<RunResult, FaultError>| match res {
        Err(FaultError::NumericalFault { rank, step, detail }) => {
            assert_eq!((rank, step), (0, 2));
            detail
        }
        other => panic!("expected the NaN's NumericalFault, got {other:?}"),
    };
    let (res, artifacts) = run("kill:5@1,nan:0@2");
    // Rank 5 (team 1, row 1) dies in step 0's shift loop; its column
    // partner carries the recovery.
    assert_eq!(
        artifacts.metrics.sum_counter("fault_injected_kill", None),
        1
    );
    let mut events = artifacts.timeline.ranks.iter().flat_map(|r| &r.events);
    assert!(
        events.any(|e| e.kind == EventKind::RecoveryAttempt),
        "the kill is recovered in the flight ring"
    );
    let composed = blame(res);
    let (alone, _) = run("nan:0@2");
    assert_eq!(
        composed,
        blame(alone),
        "the kill leaves the NaN's blame as it was"
    );
}

#[test]
fn a_fired_corrupt_and_nan_are_counted_as_injected_like_a_wire_fault() {
    let cfg = cfg(3);
    let initial = init::uniform(48, &cfg.domain, 7);
    let policy = RetryPolicy::with_timeout_ms(200);
    let plan = FaultPlan::parse("drop:3@1,corrupt:4@1,nan:0@2").unwrap();
    let out = Run::new(&cfg, Method::CaAllPairs { c: 2 }, 8)
        .trace()
        .faults(&plan, &policy)
        .execute(&initial);
    assert!(
        matches!(out.result, Err(FaultError::NumericalFault { .. })),
        "the NaN ends the run"
    );
    let counted = ["total", "drop", "corrupt", "nan"].map(|kind| {
        let name = format!("fault_injected_{kind}");
        out.artifacts.metrics.sum_counter(&name, None)
    });
    assert_eq!(counted, [3, 1, 1, 1]);
    let mut noted: Vec<_> = (out.artifacts.timeline.ranks.iter())
        .flat_map(|r| &r.events)
        .filter(|e| e.kind == EventKind::FaultInjected)
        .map(|e| (e.step, e.detail.as_str()))
        .collect();
    noted.sort();
    assert_eq!(
        noted,
        [(Some(1), "corrupt"), (Some(1), "drop"), (Some(2), "nan")]
    );
}

#[test]
fn cutoff_driver_reports_health_too() {
    let law = Cutoff::new(
        Gravity {
            g: 1e-4,
            softening: 0.05,
        },
        0.3,
    );
    let cfg = SimConfig {
        law,
        integrator: VelocityVerlet,
        domain: Domain::unit(),
        boundary: Boundary::Periodic,
        dt: 1e-3,
        steps: 4,
    };
    let initial = init::uniform(40, &cfg.domain, 9);
    let (res, timeline) = health_run(
        &cfg,
        Method::Ca1dCutoff { c: 2 },
        8,
        &FaultPlan::empty(),
        &RetryPolicy::with_timeout_ms(200),
        &HealthConfig::enabled(),
        &initial,
    );
    let (_, report) = res.expect("clean cutoff run succeeds");
    assert!(report.is_clean(), "{report:?}");
    assert_eq!(report.steps_checked, 4);
    assert_eq!(timeline.energy_series().steps.len(), 4);
}

#[test]
fn health_on_cutoff_runs_land_on_the_plain_runs_particles() {
    // The potential harvest culls what the plain sweep culls, and takes a
    // block against itself once per pair as the plain sweep does, so the
    // monitored run's forces, and with them its trajectory, are the plain
    // run's bit for bit, on both cutoff layouts with and without replicas.
    let cfg = SimConfig {
        law: Cutoff::new(
            Gravity {
                g: 1e-4,
                softening: 0.05,
            },
            0.15,
        ),
        integrator: VelocityVerlet,
        domain: Domain::unit(),
        boundary: Boundary::Periodic,
        dt: 1e-3,
        steps: 4,
    };
    // Masses with many bits: `(g·m_t)·m_s` and `(g·m_s)·m_t` then differ in
    // the last bit, so a harvest that asked every ordered pair would show.
    let mut initial = init::uniform(256, &cfg.domain, 5);
    for (i, q) in initial.iter_mut().enumerate() {
        *q = q.with_mass(0.5 + (i % 7) as f64 * 0.1371);
    }
    let bits = |ps: &[Particle]| -> Vec<[u64; 6]> {
        ps.iter()
            .map(|q| [q.pos.x, q.pos.y, q.vel.x, q.vel.y, q.force.x, q.force.y])
            .map(|v| v.map(f64::to_bits))
            .collect()
    };
    for (method, p) in [
        (Method::Ca1dCutoff { c: 1 }, 4),
        (Method::Ca1dCutoff { c: 2 }, 8),
        (Method::Ca2dCutoff { c: 1 }, 4),
        (Method::Ca2dCutoff { c: 2 }, 8),
    ] {
        let plain = Run::new(&cfg, method, p).execute(&initial).result.unwrap();
        let health = HealthConfig::enabled();
        let out = Run::new(&cfg, method, p).health(&health).execute(&initial);
        let monitored = out.result.expect("clean cutoff run succeeds");
        let report = monitored.health.expect("health runs produce a report");
        assert!(report.is_clean(), "{method:?}: {report:?}");
        assert!(
            bits(&monitored.particles) == bits(&plain.particles),
            "{method:?} p={p}: health-on vs plain"
        );
    }
}
