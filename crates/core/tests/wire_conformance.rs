//! Schedule conformance end to end: the ledger of a clean run must conform
//! to the derived CA schedule with zero violations on every channel, a
//! probed run must populate send→recv latencies on every active channel,
//! and a chaos run's discrepancies must all be attributed to the fault
//! plan.

use ca_nbody::kernel::symmetric_cutoff;
use ca_nbody::recovery::RetryPolicy;
use ca_nbody::sim::{run_distributed, Method, Run, SimConfig};
use ca_nbody::wire::{check, expected_schedule, WireScheduleSpec};
use nbody_comm::{match_events, FaultPlan, Phase};
use nbody_physics::{
    init, Boundary, Cutoff, Domain, ForceLaw, RepulsiveInverseSquare, SemiImplicitEuler,
};

fn all_pairs_cfg(steps: usize) -> SimConfig<RepulsiveInverseSquare, SemiImplicitEuler> {
    SimConfig {
        law: RepulsiveInverseSquare {
            strength: 1e-3,
            softening: 1e-3,
        },
        integrator: SemiImplicitEuler,
        domain: Domain::unit(),
        boundary: Boundary::Reflective,
        dt: 0.01,
        steps,
    }
}

fn cutoff_cfg(steps: usize) -> SimConfig<Cutoff<RepulsiveInverseSquare>, SemiImplicitEuler> {
    SimConfig {
        law: Cutoff::new(
            RepulsiveInverseSquare {
                strength: 1e-3,
                softening: 1e-3,
            },
            0.25,
        ),
        integrator: SemiImplicitEuler,
        domain: Domain::unit(),
        boundary: Boundary::Reflective,
        dt: 0.01,
        steps,
    }
}

fn spec_for<F: ForceLaw, I>(
    cfg: &SimConfig<F, I>,
    method: Method,
    n: usize,
    p: usize,
) -> WireScheduleSpec {
    WireScheduleSpec {
        method,
        n,
        p,
        steps: cfg.steps,
        domain: cfg.domain,
        boundary: cfg.boundary,
        cutoff: None,
        newton: symmetric_cutoff(&cfg.law),
        shrinks: Vec::new(),
    }
}

/// Acceptance criterion: a clean all-pairs run reports zero violations,
/// element totals included, and a probed run populates send→recv latency
/// histograms for every active channel.
#[test]
fn clean_all_pairs_run_conforms_with_populated_latencies() {
    let cfg = all_pairs_cfg(3);
    let (n, p, method) = (24, 8, Method::CaAllPairs { c: 2 });
    let initial = init::uniform(n, &cfg.domain, 42);
    let out = Run::new(&cfg, method, p).trace().execute(&initial);
    let (result, metrics) = (out.result.unwrap(), out.artifacts.metrics);
    assert_eq!(result.particles.len(), n);

    let expected = expected_schedule(&spec_for(&cfg, method, n, p)).unwrap();
    assert!(expected.size_checked);
    let report = check(&expected, &metrics, &FaultPlan::empty());
    assert_eq!(
        report.verdict(),
        "PASS",
        "clean run must conform: {:?}",
        report.violations
    );
    assert!(report.violations.is_empty());
    assert_eq!(report.expected_msgs(), report.observed_msgs());
    // p=8 c=2: per step, 4 skew sends (row 1) + 16 shift sends (2 pipeline
    // steps x 8 ranks), x3 timesteps.
    assert_eq!(report.expected_msgs(), 60);

    // Probing must not perturb physics.
    let out = Run::new(&cfg, method, p).trace().probe().execute(&initial);
    let (probed, wire) = (out.result.unwrap(), out.artifacts.wire);
    assert_eq!(probed.particles, result.particles);
    let plain = run_distributed(&cfg, method, p, &initial);
    assert_eq!(result.particles, plain.particles);

    // Every active channel carries matched send→recv pairs with latencies.
    let stats = match_events(&wire);
    assert_eq!(stats.unmatched_sends, 0);
    assert_eq!(stats.unmatched_recvs, 0);
    assert!(stats.matched > 0);
    let mut skew = 0usize;
    let mut shift = 0usize;
    for ch in &stats.channels {
        assert_eq!(ch.matched, ch.sends, "channel {:?}", (ch.src, ch.dst));
        let lat = &ch.latency;
        assert_eq!(lat.count, ch.matched, "latency populated on every channel");
        assert!(lat.min_s >= 0.0 && lat.max_s >= lat.p50_s);
        match ch.phase {
            Phase::Skew => skew += 1,
            Phase::Shift => shift += 1,
            other => panic!("unexpected probed phase {other:?}"),
        }
    }
    assert_eq!(skew, 4, "one skew channel per row-1 rank");
    // Tags are namespaced per pipeline step, so each rank's shift traffic
    // splits into one latency channel per step (2 steps x 8 ranks).
    assert_eq!(shift, 16);
}

/// The cutoff methods conform in count-only mode: re-assignment drifts the
/// payload sizes, but who-talks-to-whom and how often is scheduled.
#[test]
fn clean_cutoff_run_conforms_in_count_only_mode() {
    let cfg = cutoff_cfg(3);
    let (n, p, method) = (40, 8, Method::Ca1dCutoff { c: 2 });
    let initial = init::uniform(n, &cfg.domain, 7);
    let out = Run::new(&cfg, method, p).trace().execute(&initial);
    let (result, metrics) = (out.result.unwrap(), out.artifacts.metrics);
    assert_eq!(result.particles.len(), n);

    let mut spec = spec_for(&cfg, method, n, p);
    spec.cutoff = Some(0.25);
    let expected = expected_schedule(&spec).unwrap();
    assert!(!expected.size_checked);
    let report = check(&expected, &metrics, &FaultPlan::empty());
    assert_eq!(
        report.verdict(),
        "PASS",
        "clean cutoff run must conform: {:?}",
        report.violations
    );
    let phases = report.sends_by_phase();
    assert!(phases.iter().any(|&(phase, ..)| phase == Phase::Reassign));
    assert!(report.observed_msgs() > 0);
}

/// Acceptance criterion: a seeded chaos run with injected drops yields a
/// conformance report attributing every discrepancy to the fault plan —
/// zero unexplained violations.
#[test]
fn chaos_drops_are_fully_attributed_to_the_fault_plan() {
    let cfg = all_pairs_cfg(2);
    let (n, p, method) = (24, 8, Method::CaAllPairs { c: 2 });
    let initial = init::uniform(n, &cfg.domain, 13);
    let plan = FaultPlan::parse("drop:3@1,drop:6@0").unwrap();
    let policy = RetryPolicy::with_timeout_ms(2000);
    let out = Run::new(&cfg, method, p)
        .trace()
        .faults(&plan, &policy)
        .execute(&initial);
    let (result, metrics) = (out.result, out.artifacts.metrics);
    let chaos = result.expect("drops are recoverable");
    assert!(chaos.recovered, "the injected drops must trigger recovery");

    // The recovered trajectory is bit-identical to the fault-free one.
    let want = run_distributed(&cfg, method, p, &initial).particles;
    assert_eq!(chaos.particles, want);

    let expected = expected_schedule(&spec_for(&cfg, method, n, p)).unwrap();
    let report = check(&expected, &metrics, &plan);
    assert!(
        !report.violations.is_empty(),
        "drops + retries must deviate from the clean schedule"
    );
    assert_eq!(
        report.unexplained(),
        0,
        "every discrepancy must be attributed: {:?}",
        report
            .violations
            .iter()
            .filter(|v| v.explained.is_none())
            .collect::<Vec<_>>()
    );
    assert_eq!(report.verdict(), "PASS");

    // Without consulting the faults the same report fails — the checker
    // is not vacuously permissive.
    let blind = check(&expected, &metrics, &FaultPlan::empty());
    assert!(blind.unexplained() > 0);
    assert_eq!(blind.verdict(), "FAIL");
}
