//! Fault-injection integration tests: the recovery protocol must keep
//! distributed trajectories bit-identical to fault-free runs whenever
//! replica recovery is possible, degrade to an agreed shrink when whole
//! columns die, and fail cleanly (agreed, bounded, no deadlock) only when
//! nothing survives.

use std::time::{Duration, Instant};

use ca_nbody::cutoff::{row_steps, traversal, walked_window};
use ca_nbody::dist::spatial_subset_1d;
use ca_nbody::kernel::symmetric_cutoff;
use ca_nbody::recovery::{ca_cutoff_forces_ft, FaultError, RecoveryReport, RetryPolicy};
use ca_nbody::sim::{
    run_distributed, run_distributed_chaos, run_serial, Layout, Method, Run, SimConfig,
};
use ca_nbody::{ca_cutoff_forces, GridComms, ProcGrid, TeamWindow, Window};
use nbody_comm::{run_ranks, run_ranks_chaos_with, FaultKind, FaultPlan, Lenses, MetricsSnapshot};
use nbody_physics::{
    init, Boundary, Cutoff, Domain, ForceLaw, OneWay, Particle, RepulsiveInverseSquare,
    SemiImplicitEuler,
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

/// One force evaluation of the fault-tolerant cutoff driver on a wrapping
/// window (`p/c` slabs, `r_c = 0.2`) under `plan`, next to the plain
/// driver's: per rank the ft result with the leader's block, the plain
/// leader's block, and the merged metrics. `newton` keeps the law's promise
/// of `f_ji = −f_ij` and with it the half window; without it the drivers
/// walk the paper's full window.
#[allow(clippy::type_complexity)]
fn wrapping_cutoff_ft(
    p: usize,
    c: usize,
    plan: &FaultPlan,
    newton: bool,
) -> (
    Vec<Result<(RecoveryReport, Vec<Particle>), FaultError>>,
    Vec<Vec<Particle>>,
    MetricsSnapshot,
) {
    let repulsive = RepulsiveInverseSquare {
        strength: 1e-3,
        softening: 1e-3,
    };
    match newton {
        true => law_cutoff_ft(p, c, plan, Cutoff::new(repulsive, 0.2)),
        false => law_cutoff_ft(p, c, plan, OneWay(Cutoff::new(repulsive, 0.2))),
    }
}

/// [`wrapping_cutoff_ft`] under `law`.
#[allow(clippy::type_complexity)]
fn law_cutoff_ft<F: ForceLaw>(
    p: usize,
    c: usize,
    plan: &FaultPlan,
    law: F,
) -> (
    Vec<Result<(RecoveryReport, Vec<Particle>), FaultError>>,
    Vec<Vec<Particle>>,
    MetricsSnapshot,
) {
    let (domain, boundary) = (Domain::unit(), Boundary::Periodic);
    let grid = ProcGrid::new(p, c).unwrap();
    let window = TeamWindow::from_cutoff(&domain, (grid.teams(), 1), true, 0.2);
    assert!(window.len() < grid.teams(), "a cutoff window, not the ring");
    let all = init::uniform(48, &domain, 23);
    let block = |leader: bool, team: usize| {
        if leader {
            spatial_subset_1d(&all, &domain, grid.teams(), team)
        } else {
            Vec::new()
        }
    };
    let plain = run_ranks(p, |world| {
        let gc = GridComms::new(world, grid);
        let mut st = block(gc.is_leader(), gc.team());
        ca_cutoff_forces(&gc, &window, &mut st, &law, &domain, boundary);
        st
    });
    let lenses = Lenses {
        trace: true,
        probe: false,
    };
    let policy = RetryPolicy::with_timeout_ms(300);
    let (ft, artifacts) = run_ranks_chaos_with(p, plan, lenses, |world| {
        let gc = GridComms::new(world, grid);
        let mut st = block(gc.is_leader(), gc.team());
        let (report, _) = ca_cutoff_forces_ft(
            &gc, &window, &mut st, &law, &domain, boundary, &policy, 0, None,
        )?;
        Ok((report, st))
    });
    (ft, plain, artifacts.metrics)
}

/// The step that brings a row home moves no message on the paper's full
/// window, but it is still a pipeline step: a kill aimed at it fires, and
/// a drop aimed at it finds nothing to drop. On the half window that step
/// carries the row's return, and a drop aimed at it is retried.
#[test]
fn a_fault_at_the_home_step_of_a_wrapping_window() {
    // p = 12, c = 2: 6 slabs, W = 5, and row 1 reaches position
    // (1 + 2·2) mod 5 = 0, its own block, on its last step.
    let grid = ProcGrid::new(12, 2).unwrap();
    let (rank, home) = (grid.rank_at(1, 1), row_steps(5, 2, 1));
    let (ft, plain, _) = wrapping_cutoff_ft(12, 2, &FaultPlan::kill(rank, home), false);
    for (r, (got, want)) in ft.into_iter().zip(&plain).enumerate() {
        let (report, st) = got.unwrap_or_else(|e| panic!("kill:{rank}@{home} at c=2: {e}"));
        assert!(report.recovered, "rank {r}");
        assert_eq!(report.attempts, 2, "rank {r}");
        if grid.row_of(r) == 0 {
            assert_eq!(&st, want, "rank {r}: recovery is bit-identical");
        }
    }

    // c = 1: W = 3 on 4 slabs, row 0 comes home on step 3. Killing the
    // column's only replica there is the agreed verdict, on every rank.
    let (ft, _, _) = wrapping_cutoff_ft(4, 1, &FaultPlan::kill(2, row_steps(3, 1, 0)), false);
    for got in ft {
        let err = got.map(|_| ()).unwrap_err();
        let lost = FaultError::ColumnsLost {
            dead_teams: vec![2],
            c: 1,
        };
        assert_eq!(err, lost);
    }

    // The home step sends nothing, so a drop aimed at it never fires.
    let plan = FaultPlan::parse(&format!("drop:{rank}@{home}")).unwrap();
    let (ft, plain, metrics) = wrapping_cutoff_ft(12, 2, &plan, false);
    for (r, (got, want)) in ft.into_iter().zip(&plain).enumerate() {
        let (report, st) = got.expect("nothing was dropped");
        assert_eq!(report.attempts, 1, "rank {r}");
        if grid.row_of(r) == 0 {
            assert_eq!(&st, want, "rank {r}");
        }
    }
    assert_eq!(metrics.sum_counter("fault_injected_drop", None), 0);

    // The half window, W = 3: row 1 comes home on step 1 having updated
    // no other team's block, so that step still sends nothing; row 0
    // returns what its buffer gathered on step 3, after its last shift.
    let drop_at = |rank: usize, step: usize| {
        let plan = FaultPlan::parse(&format!("drop:{rank}@{step}")).unwrap();
        let (ft, plain, metrics) = wrapping_cutoff_ft(12, 2, &plan, true);
        let attempts = ft
            .into_iter()
            .zip(&plain)
            .enumerate()
            .map(|(r, (got, want))| {
                let (report, st) = got.unwrap_or_else(|e| panic!("drop:{rank}@{step}: {e}"));
                if grid.row_of(r) == 0 {
                    assert_eq!(&st, want, "rank {r}: bit-identical");
                }
                report.attempts
            });
        let attempts: Vec<usize> = attempts.collect();
        (attempts, metrics.sum_counter("fault_injected_drop", None))
    };
    assert_eq!(drop_at(rank, 1), (vec![1; 12], 0));
    assert_eq!(drop_at(grid.rank_at(1, 0), 3), (vec![2; 12], 1));
}

/// A return lost on the wire is a receive that times out like any other:
/// a drop aimed at a step where a rank sends nothing but a return (on the
/// half window of a symmetric law, periodic, `c = 2`) is retried once by
/// every rank and the run lands on the fault-free particles bit for bit.
/// The 2-D grid takes `p = 16`: on the 2 × 2 grid of `p = 8` the busiest
/// rank would send more on the half window, which the drivers then keep
/// full (`cutoff::walked_window`).
#[test]
fn a_dropped_return_is_retried_by_every_rank() {
    let cfg = SimConfig {
        law: Cutoff::new(RepulsiveInverseSquare::default(), 0.3),
        boundary: Boundary::Periodic,
        ..cutoff_cfg(2)
    };
    let policy = RetryPolicy::with_timeout_ms(300);
    for (method, p, r_c) in [
        (Method::Ca1dCutoff { c: 2 }, 8, 0.3),
        (Method::Ca2dCutoff { c: 2 }, 16, 0.15),
    ] {
        let cfg = SimConfig {
            law: Cutoff::new(RepulsiveInverseSquare::default(), r_c),
            ..cfg
        };
        let initial = init::uniform(64, &cfg.domain, 31);
        let layout = Layout::new(method, p, &cfg.domain, cfg.boundary, Some(r_c)).unwrap();
        let (grid, c) = (layout.grid, layout.grid.c());
        let window = walked_window(layout.window, c, symmetric_cutoff(&cfg.law));
        assert!(window.is_half(), "{method:?} p={p}: the half window");
        // The first rank and step, row by row, that sends a return alone.
        let (rank, step) = (0..c)
            .flat_map(|row| (0..grid.teams()).map(move |team| (team, row)))
            .find_map(|(team, row)| {
                let mut hops = traversal(window, c, team, row).enumerate();
                hops.find(|(_, h)| {
                    h.return_to.is_some() && h.shift_to.is_none() && h.home_to.is_none()
                })
                .map(|(s, _)| (grid.rank_at(team, row), s))
            })
            .expect("some rank returns alone");
        let spec = format!("drop:{rank}@{step}");
        let ctx = format!("{method:?} p={p} {spec}");
        let plan = FaultPlan::parse(&spec).unwrap();
        let out = Run::new(&cfg, method, p)
            .trace()
            .faults(&plan, &policy)
            .execute(&initial);
        let got = out.result.unwrap_or_else(|e| panic!("{ctx}: {e}"));
        let want = run_distributed(&cfg, method, p, &initial).particles;
        assert_eq!(got.particles, want, "{ctx}: recovery is bit-identical");
        assert_eq!(got.max_attempts, 2, "{ctx}");
        let drops = out
            .artifacts
            .metrics
            .sum_counter("fault_injected_drop", None);
        assert_eq!(drops, 1, "{ctx}: the drop fired");
        for (r, rank) in out.artifacts.timeline.ranks.iter().enumerate() {
            let retries = rank
                .events
                .iter()
                .filter(|e| e.detail.starts_with("retry "));
            let details: Vec<&str> = retries.map(|e| e.detail.as_str()).collect();
            assert_eq!(details, ["retry 2 deadline=600ms"], "{ctx}: rank {r}");
        }
    }
}

/// The case the leaders' round exists for: a drop on the last hop a row
/// sends on is seen by its receiver alone, so only one column's reduce carries
/// the flag, and the other columns hear of it only through row 0's
/// all-reduce. Every rank must still retry exactly once, on a run whose
/// first verdict rides the next team broadcast, and land bit-identically
/// on the fault-free particles.
#[test]
fn a_drop_that_one_column_sees_is_retried_by_every_rank() {
    let cfg = cutoff_cfg(2);
    let initial = init::uniform(48, &cfg.domain, 29);
    let policy = RetryPolicy::with_timeout_ms(300);
    let table = [
        (Method::CaAllPairs { c: 2 }, 8),
        (Method::CaAllPairs { c: 3 }, 9),
        (Method::Ca1dCutoff { c: 2 }, 8),
        (Method::Ca1dCutoff { c: 3 }, 9),
    ];
    for (method, p) in table {
        let layout = Layout::new(method, p, &cfg.domain, cfg.boundary, cfg.law.cutoff()).unwrap();
        let grid = layout.grid;
        let c = grid.c();
        let window = walked_window(layout.window, c, symmetric_cutoff(&cfg.law));
        // The first rank, row by row, that sends at all, and the last
        // pipeline step it sends on (the skew, where a row at `c = W`
        // sends nothing else).
        let last_send = |team: usize, row: usize| {
            let hops = traversal(window, c, team, row).enumerate();
            let sends = hops.filter(|(_, h)| {
                h.shift_to.is_some() || h.home_to.is_some() || h.return_to.is_some()
            });
            sends.map(|(s, _)| (grid.rank_at(team, row), s)).last()
        };
        let (rank, step) = (0..c)
            .flat_map(|row| (0..grid.teams()).map(move |team| (team, row)))
            .find_map(|(team, row)| last_send(team, row))
            .expect("some rank sends");
        let spec = format!("drop:{rank}@{step}");
        let ctx = format!("{method:?} p={p} {spec}");
        let plan = FaultPlan::parse(&spec).unwrap();
        let out = Run::new(&cfg, method, p)
            .trace()
            .faults(&plan, &policy)
            .execute(&initial);
        let got = out.result.unwrap_or_else(|e| panic!("{ctx}: {e}"));
        let want = run_distributed(&cfg, method, p, &initial).particles;
        assert_eq!(got.particles, want, "{ctx}: recovery is bit-identical");
        assert_eq!(got.max_attempts, 2, "{ctx}");
        let drops = out
            .artifacts
            .metrics
            .sum_counter("fault_injected_drop", None);
        assert_eq!(drops, 1, "{ctx}: the drop fired");
        for (r, rank) in out.artifacts.timeline.ranks.iter().enumerate() {
            let retries = rank
                .events
                .iter()
                .filter(|e| e.detail.starts_with("retry "));
            let details: Vec<&str> = retries.map(|e| e.detail.as_str()).collect();
            assert_eq!(details, ["retry 2 deadline=600ms"], "{ctx}: rank {r}");
        }
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
