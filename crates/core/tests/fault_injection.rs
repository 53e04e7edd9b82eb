//! Fault-injection integration tests: the recovery protocol must keep
//! distributed trajectories bit-identical to fault-free runs whenever
//! replica recovery is possible, degrade to an agreed shrink when whole
//! columns die, and fail cleanly (agreed, bounded, no deadlock) only when
//! nothing survives.

use std::time::{Duration, Instant};

use ca_nbody::dist::spatial_subset_1d;
use ca_nbody::recovery::{FaultError, RetryPolicy};
use ca_nbody::sim::{run_distributed, run_distributed_chaos, run_serial, Method, SimConfig};
use nbody_comm::{FaultKind, FaultPlan};
use nbody_physics::{
    init, Boundary, Cutoff, Domain, ForceLaw, RepulsiveInverseSquare, SemiImplicitEuler,
};
use proptest::prelude::*;

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Delays and duplicates are benign: no retry is even needed, and the
    /// trajectory is bit-identical to the fault-free one at every
    /// replication factor.
    #[test]
    fn benign_faults_keep_trajectories_bit_identical(seed in any::<u64>()) {
        let cfg = all_pairs_cfg(2);
        let initial = init::uniform(24, &cfg.domain, 11);
        for c in [1usize, 2] {
            let method = Method::CaAllPairs { c };
            let want = run_distributed(&cfg, method, 8, &initial).particles;
            let plan = FaultPlan::seeded(
                seed, 8, 2, 3, &[FaultKind::Delay, FaultKind::Duplicate],
            );
            let got = run_distributed_chaos(
                &cfg, method, 8, &plan, &RetryPolicy::with_timeout_ms(2000), &initial,
            ).expect("benign faults cannot fail a run");
            prop_assert_eq!(&got.particles, &want, "c={} plan={}", c, plan.spec());
            prop_assert!(!got.recovered, "delays/dups must not trigger recovery");
        }
    }
}

/// A dropped message loses no state: the retry restores the checkpoint
/// locally, so drops are recoverable even without replication (`c = 1`).
#[test]
fn drops_recover_bit_identically_at_every_c() {
    let cfg = all_pairs_cfg(2);
    let initial = init::uniform(24, &cfg.domain, 13);
    // Note: step 0 is the skew, where only rows k > 0 send — aim the
    // skew drop at rank 6 (team 2, row 1), not a row-0 rank.
    for (c, rank, step) in [(1usize, 3usize, 1usize), (2, 5, 1), (2, 6, 0)] {
        let method = Method::CaAllPairs { c };
        let want = run_distributed(&cfg, method, 8, &initial).particles;
        let plan = FaultPlan::parse(&format!("drop:{rank}@{step}")).unwrap();
        let got = run_distributed_chaos(
            &cfg,
            method,
            8,
            &plan,
            &RetryPolicy::with_timeout_ms(400),
            &initial,
        )
        .expect("drops are always recoverable");
        assert_eq!(got.particles, want, "c={c} rank={rank} step={step}");
        assert!(got.recovered, "a drop must be detected and retried");
        assert_eq!(got.max_attempts, 2);
    }
}

/// A rank killed at any pipeline step (skew = 0, shifts = 1..) with a
/// surviving replica (`c >= 2`) is resynced from a teammate; the completed
/// trajectory is bit-for-bit the fault-free one.
#[test]
fn kill_at_each_step_recovers_bit_identically_with_replication() {
    let cfg = all_pairs_cfg(2);
    let initial = init::uniform(24, &cfg.domain, 17);
    let method = Method::CaAllPairs { c: 2 };
    let want = run_distributed(&cfg, method, 8, &initial).particles;
    // p=8, c=2: 4 teams x 2 rows, p/c^2 = 2 shift steps + the skew.
    for step in 0..=2usize {
        for rank in [1usize, 6] {
            let plan = FaultPlan::kill(rank, step);
            let got = run_distributed_chaos(
                &cfg,
                method,
                8,
                &plan,
                &RetryPolicy::with_timeout_ms(500),
                &initial,
            )
            .unwrap_or_else(|e| panic!("kill:{rank}@{step} must recover at c=2: {e}"));
            assert_eq!(got.particles, want, "kill:{rank}@{step}");
            assert!(got.recovered);
            assert_eq!(got.max_attempts, 2, "one retry suffices for one kill");
            assert!(
                got.metrics.sum_counter("fault_injected_kill", None) >= 1,
                "kill must be recorded in metrics"
            );
            assert!(got.metrics.sum_counter("fault_recovered_total", None) >= 1);
            assert!(
                got.metrics.sum_counter("recovery_bytes_total", None) > 0,
                "resync traffic must be accounted"
            );
        }
    }
}

/// The cutoff pipeline (home-route re-injection and all) recovers the same
/// way, across timesteps with spatial re-assignment in between.
#[test]
fn cutoff_kill_recovers_bit_identically() {
    let cfg = cutoff_cfg(2);
    let initial = init::uniform(40, &cfg.domain, 7);
    for method in [Method::Ca1dCutoff { c: 2 }, Method::Ca2dCutoff { c: 2 }] {
        let want = run_distributed(&cfg, method, 8, &initial).particles;
        for (rank, step) in [(5usize, 1usize), (2, 0)] {
            let plan = FaultPlan::kill(rank, step);
            let got = run_distributed_chaos(
                &cfg,
                method,
                8,
                &plan,
                &RetryPolicy::with_timeout_ms(500),
                &initial,
            )
            .unwrap_or_else(|e| panic!("{method:?} kill:{rank}@{step}: {e}"));
            assert_eq!(got.particles, want, "{method:?} kill:{rank}@{step}");
            assert!(got.recovered);
        }
    }
}

/// Losing a `c = 1` column no longer fails the run: the survivors agree
/// on the dead team, shrink the world onto themselves, and finish the
/// trajectory — bit-identical to a plain distributed run on the surviving
/// subset (the block drops before the failed step's forces ever act).
#[test]
fn c1_kill_shrinks_onto_survivors_and_completes() {
    let cfg = all_pairs_cfg(3);
    let initial = init::uniform(24, &cfg.domain, 5);
    let policy = RetryPolicy::with_timeout_ms(300);
    let start = Instant::now();
    let got = run_distributed_chaos(
        &cfg,
        Method::CaAllPairs { c: 1 },
        4,
        &FaultPlan::kill(2, 1),
        &policy,
        &initial,
    )
    .expect("a c=1 kill degrades to a shrink, not a failure");
    // Degradation cascades through a bounded number of timeouts; far
    // below the blocking-collective deadline a deadlock would hit.
    assert!(
        start.elapsed() < Duration::from_secs(20),
        "shrink took {:?}",
        start.elapsed()
    );
    assert_eq!(got.shrinks, 1);
    assert_eq!(got.final_ranks, 3);
    assert_eq!(got.lost_particles, 6, "team 2 of 4 owned ids 12..18");
    assert!(got.metrics.sum_counter("world_shrunk_total", None) >= 1);
    // Recomposed reference: drop team 2's id-block from the initial set
    // and run the whole trajectory plain on the 3 survivors.
    let survivors: Vec<_> = initial
        .iter()
        .filter(|q| !(12u64..18).contains(&q.id))
        .cloned()
        .collect();
    let want = run_distributed(&cfg, Method::CaAllPairs { c: 1 }, 3, &survivors).particles;
    assert_eq!(
        got.particles, want,
        "shrunken trajectory must be bit-identical to the recomposed run"
    );
}

/// Both replicas of one column dying together exhausts replica recovery
/// for that team even at `c = 2`; the run shrinks instead of failing,
/// re-gridding at the largest replication the 6 survivors support
/// (`c' = 1`, since 3 teams is not divisible by 2).
#[test]
fn double_kill_same_column_shrinks_at_c2() {
    let cfg = all_pairs_cfg(2);
    let initial = init::uniform(24, &cfg.domain, 17);
    // p=8, c=2: team 1 spans ranks 1 (row 0) and 5 (row 1).
    let plan = FaultPlan::parse("kill:1@1,kill:5@1").unwrap();
    let policy = RetryPolicy::with_timeout_ms(500);
    let got = run_distributed_chaos(
        &cfg,
        Method::CaAllPairs { c: 2 },
        8,
        &plan,
        &policy,
        &initial,
    )
    .expect("losing one of four columns must shrink, not fail");
    assert_eq!(got.shrinks, 1);
    assert_eq!(got.final_ranks, 6);
    assert_eq!(got.lost_particles, 6, "team 1 of 4 owned ids 6..12");
    let survivors: Vec<_> = initial
        .iter()
        .filter(|q| !(6u64..12).contains(&q.id))
        .cloned()
        .collect();
    let want = run_distributed(&cfg, Method::CaAllPairs { c: 1 }, 6, &survivors).particles;
    assert_eq!(
        got.particles, want,
        "post-shrink world runs at c' = 1 on 6 ranks"
    );
}

/// The cutoff driver shrinks too: survivors re-derive the spatial
/// decomposition and its interaction window (clipped or periodic) for the
/// smaller team count and keep tracking the serial reference on the
/// surviving subset — landing, bit for bit, where a clean run on the
/// survivors at the method the shrink policy names lands.
#[test]
fn cutoff_c1_kill_shrinks_and_tracks_serial_reference() {
    for boundary in [Boundary::Reflective, Boundary::Periodic] {
        let cfg = SimConfig {
            boundary,
            ..cutoff_cfg(3)
        };
        let initial = init::uniform(40, &cfg.domain, 7);
        let policy = RetryPolicy::with_timeout_ms(400);
        let method = Method::Ca1dCutoff { c: 1 };
        let got = run_distributed_chaos(&cfg, method, 4, &FaultPlan::kill(1, 1), &policy, &initial)
            .expect("a cutoff c=1 kill degrades to a shrink");
        assert_eq!(got.shrinks, 1);
        assert_eq!(got.final_ranks, 3);
        // The dead team's slab (step-0 decomposition over 4 teams) is lost
        // before any motion; the remainder follows the serial reference.
        let dead: Vec<u64> = spatial_subset_1d(&initial, &cfg.domain, 4, 1)
            .iter()
            .map(|q| q.id)
            .collect();
        assert_eq!(got.lost_particles, dead.len());
        let survivors: Vec<_> = initial
            .iter()
            .filter(|q| !dead.contains(&q.id))
            .cloned()
            .collect();
        let want = run_serial(&cfg, &survivors);
        assert_eq!(got.particles.len(), want.len());
        for (g, w) in got.particles.iter().zip(&want) {
            assert_eq!(g.id, w.id);
            let dp = (g.pos - w.pos).norm();
            let dv = (g.vel - w.vel).norm();
            assert!(
                dp <= 1e-9 && dv <= 1e-9,
                "{boundary:?}: id={} dp={dp} dv={dv} after cutoff shrink",
                g.id
            );
        }
        let (shrunk, layout) = method
            .shrunk_onto(got.final_ranks, &cfg.domain, boundary, cfg.law.cutoff())
            .expect("three survivors still hold a c = 1 cutoff grid");
        assert_eq!((shrunk, layout.grid.p()), (method, got.final_ranks));
        let clean = run_distributed(&cfg, shrunk, got.final_ranks, &survivors).particles;
        assert_eq!(
            got.particles, clean,
            "{boundary:?}: degraded trajectory must equal the clean run on the survivors"
        );
    }
}

/// Faults recurring past the retry budget surface as `RetriesExhausted`
/// rather than looping forever.
#[test]
fn persistent_faults_exhaust_retries() {
    let cfg = all_pairs_cfg(1);
    let initial = init::uniform(16, &cfg.domain, 9);
    // Three drops aimed at the same rank across successive attempts: each
    // retry re-arms the next event (events are one-shot, but distinct
    // events fire on distinct attempts at the same step).
    let plan = FaultPlan::parse("drop:1@1,drop:1@1,drop:1@1").unwrap();
    let policy = RetryPolicy {
        max_retries: 2,
        ..RetryPolicy::with_timeout_ms(200)
    };
    let err = run_distributed_chaos(
        &cfg,
        Method::CaAllPairs { c: 2 },
        8,
        &plan,
        &policy,
        &initial,
    )
    .expect_err("three faults must exhaust a 2-retry budget");
    assert_eq!(err, FaultError::RetriesExhausted { attempts: 3 });
}

/// Deadlines double across those retries: the second retry waits longer
/// than the first (visible as elapsed wall time).
#[test]
fn backoff_spreads_successive_retry_deadlines() {
    let cfg = all_pairs_cfg(1);
    let initial = init::uniform(16, &cfg.domain, 9);
    let plan = FaultPlan::parse("drop:1@1,drop:1@1").unwrap();
    // Two drops => attempts at deadlines 200ms and 400ms before the third
    // attempt succeeds: 600ms, where deadlines that did not grow would
    // spend 400ms.
    let policy = RetryPolicy::with_timeout_ms(200);
    let start = Instant::now();
    let got = run_distributed_chaos(
        &cfg,
        Method::CaAllPairs { c: 2 },
        8,
        &plan,
        &policy,
        &initial,
    )
    .expect("two drops recover within three retries");
    assert_eq!(got.max_attempts, 3);
    assert!(
        start.elapsed() >= Duration::from_millis(550),
        "backoff must lengthen the second retry (elapsed {:?})",
        start.elapsed()
    );
}
