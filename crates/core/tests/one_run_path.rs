//! The merge guard of the one run path, made of counts, not timings: the
//! plain drivers (strict link, plain evaluation) and the fault-tolerant
//! drivers with no fault firing (deadline link, recovering evaluation) run
//! the same shift pipeline and the same rank loop, so they must land on the
//! same particles bit for bit and put the same traffic on the wire, phase
//! by phase and rank by rank. The recovery protocol has two clean-path
//! costs and no third. Its agreement rides the step: the flags are more
//! elements of the team reduce, the leaders settle the row with one
//! all-reduce of one byte per evaluation attributed to `Phase::Recovery`,
//! and the verdict is a header record in the next team broadcast (a
//! broadcast of its own, also `Recovery`, only after the last step). Its
//! team broadcast carries particle states (the replicated checkpoint)
//! where the plain drivers broadcast sources — the same collectives at 16
//! more bytes per element. If either loop body forks again, one of these
//! counts moves.

use ca_nbody::recovery::RetryPolicy;
use ca_nbody::sim::{
    run_distributed, run_distributed_chaos, run_plain_rank, Layout, Method, SimConfig,
};
use ca_nbody::window::Window;
use nbody_comm::{run_ranks, CommStats, Communicator, FaultPlan, Phase, PhaseCounters, ALL_PHASES};
use nbody_physics::{
    init, Boundary, Cutoff, Domain, ForceLaw, Particle, ParticleState, RepulsiveInverseSquare,
    SemiImplicitEuler, Source, Vec2,
};

const STEPS: usize = 2;

/// Everything a phase counts except the wall-clock wait.
fn counts(c: &PhaseCounters) -> [u64; 7] {
    [
        c.messages,
        c.elements,
        c.bytes,
        c.collectives,
        c.collective_elements,
        c.collective_bytes,
        c.collective_messages,
    ]
}

#[test]
fn clean_fault_tolerant_run_does_the_plain_runs_work_plus_the_leaders_agreement() {
    let table = [
        (Method::CaAllPairs { c: 1 }, 4),
        (Method::CaAllPairs { c: 2 }, 8),
        (Method::Ca1dCutoff { c: 1 }, 4),
        (Method::Ca1dCutoff { c: 2 }, 8),
        (Method::Ca2dCutoff { c: 1 }, 4),
        (Method::Ca2dCutoff { c: 2 }, 8),
    ];
    for boundary in [Boundary::Reflective, Boundary::Periodic] {
        for (method, p) in table {
            let ctx = format!("{method:?} p={p} {boundary:?}");
            let cfg = SimConfig {
                law: Cutoff::new(
                    RepulsiveInverseSquare {
                        strength: 1e-3,
                        softening: 1e-3,
                    },
                    0.25,
                ),
                integrator: SemiImplicitEuler,
                domain: Domain::unit(),
                boundary,
                dt: 0.01,
                steps: STEPS,
            };
            let initial = init::uniform(40, &cfg.domain, 7);
            let plain = run_distributed(&cfg, method, p, &initial);
            let (plan, policy) = (FaultPlan::empty(), RetryPolicy::default());
            let ft = run_distributed_chaos(&cfg, method, p, &plan, &policy, &initial)
                .expect("no fault is scheduled");
            assert_eq!(ft.max_attempts, 1, "{ctx}");
            assert_eq!(plain.particles, ft.particles, "{ctx}: particles");

            let c = method.replication();
            let teams = p / c;
            // Re-assignment: a leader's sends per step are its
            // neighbourhood's size, whatever the team count; the other rows
            // and id blocks send none.
            let layout = Layout::new(method, p, &cfg.domain, boundary, cfg.law.cutoff()).unwrap();
            for (rank, stats) in plain.stats.iter().enumerate() {
                let neighbours = match layout.neighbourhood() {
                    Some(hood) if layout.grid.row_of(rank) == 0 => {
                        let team = layout.grid.team_of(rank);
                        (1..hood.len()).filter_map(|j| hood.apply(team, j)).count()
                    }
                    _ => 0,
                };
                let sent = stats.phase(Phase::Reassign).messages;
                assert_eq!(sent, (STEPS * neighbours) as u64, "{ctx}: rank {rank}");
            }
            // The leaders' agreement: an all-reduce (reduce + broadcast)
            // of one byte along row 0 per evaluation; a row of one has
            // nothing to agree with. The verdict's own header-only
            // broadcast follows the last step; a column of one has no one
            // to tell.
            let (steps, replicated) = (STEPS as u64, u64::from(c > 1));
            let agree = 2 * u64::from(teams > 1);
            let header = std::mem::size_of::<ParticleState>() as u64;
            let agree_messages = steps * 2 * (teams as u64 - 1) + replicated * (p - teams) as u64;
            let mut recovery_messages = 0;
            for (rank, (a, b)) in plain.stats.iter().zip(&ft.stats).enumerate() {
                for phase in ALL_PHASES {
                    if phase == Phase::Recovery {
                        continue;
                    }
                    let mut want = counts(a.phase(phase));
                    if phase == Phase::Broadcast && c > 1 {
                        // A particle state where a source was, and the
                        // header in front of every evaluation's block.
                        let wider =
                            std::mem::size_of::<ParticleState>() - std::mem::size_of::<Source>();
                        want[4] += steps;
                        want[5] +=
                            a.phase(phase).collective_elements * wider as u64 + steps * header;
                    }
                    if phase == Phase::Reduce && c > 1 {
                        // One count per flag behind the forces.
                        let flags = 4 * steps;
                        want[4] += flags;
                        want[5] += flags * std::mem::size_of::<Vec2>() as u64;
                    }
                    assert_eq!(want, counts(b.phase(phase)), "{ctx}: rank {rank} {phase:?}");
                }
                assert_eq!(
                    counts(a.phase(Phase::Recovery)),
                    [0; 7],
                    "{ctx}: rank {rank}: the plain run has no recovery traffic"
                );
                let rec = b.phase(Phase::Recovery);
                let leader = u64::from(layout.grid.row_of(rank) == 0);
                let collectives = leader * steps * agree + replicated;
                let bytes = leader * steps * agree + replicated * header;
                assert_eq!(
                    counts(rec)[..6],
                    [0, 0, 0, collectives, collectives, bytes],
                    "{ctx}: rank {rank}: the leaders' agreement, the last verdict and nothing else"
                );
                recovery_messages += rec.collective_messages;
            }
            assert_eq!(recovery_messages, agree_messages, "{ctx}");
        }
    }
}

/// The benchmark's `crit_msgs_per_step` on `allpairs_ft_clean`'s grid
/// (`p = 4`, `c = 2`): the busiest rank's point-to-point sends plus the
/// tree messages of its collectives. A plain step sends 2 on every rank.
/// A clean fault-tolerant step sends 2 on the non-leaders and 3 on the
/// leaders, whose third is their row's agreement; after the last step
/// the verdict's own broadcast adds a fourth. So `s` steps send
/// `3(s − 1) + 4`.
#[test]
fn a_clean_fault_tolerant_step_sends_one_message_more_than_a_plain_one() {
    let sent = |stats: &[CommStats]| -> Vec<u64> {
        let per_rank = stats.iter().map(|s| {
            let phases = ALL_PHASES.iter().map(|&ph| s.phase(ph));
            phases.map(|c| c.messages + c.collective_messages).sum()
        });
        per_rank.collect()
    };
    let method = Method::CaAllPairs { c: 2 };
    let (plan, policy) = (FaultPlan::empty(), RetryPolicy::default());
    for steps in [1, 2, 5] {
        let cfg = SimConfig {
            law: RepulsiveInverseSquare {
                strength: 1e-3,
                softening: 1e-3,
            },
            integrator: SemiImplicitEuler,
            domain: Domain::unit(),
            boundary: Boundary::Reflective,
            dt: 0.01,
            steps,
        };
        let initial = init::uniform(64, &cfg.domain, 7);
        let plain = run_distributed(&cfg, method, 4, &initial);
        let ft = run_distributed_chaos(&cfg, method, 4, &plan, &policy, &initial)
            .expect("no fault is scheduled");
        let s = steps as u64;
        assert_eq!(sent(&plain.stats), [2 * s; 4], "plain, {steps} steps");
        let (lead, rest) = (3 * (s - 1) + 4, 2 * s);
        assert_eq!(sent(&ft.stats), [lead, lead, rest, rest], "{steps} steps");
    }
}

/// The rank loop is callable on a communicator the caller spawns: every
/// method's `run_plain_rank` under `run_ranks` hands back what
/// `run_distributed` gathers, bit for bit and in id order on each rank,
/// and puts the same traffic on the wire.
#[test]
fn the_rank_loop_on_the_callers_ranks_is_run_distributed() {
    let table = [
        (Method::CaAllPairs { c: 2 }, 8),
        (Method::ParticleRingSymmetric, 4),
        (Method::NaiveAllgather, 4),
        (Method::Ca1dCutoff { c: 2 }, 8),
        (Method::Ca2dCutoff { c: 1 }, 4),
    ];
    let bits = |ps: &[Particle]| -> Vec<(u64, [u64; 7])> {
        ps.iter()
            .map(|q| {
                let f = [
                    q.pos.x, q.pos.y, q.vel.x, q.vel.y, q.force.x, q.force.y, q.mass,
                ];
                (q.id, f.map(f64::to_bits))
            })
            .collect()
    };
    for (method, p) in table {
        let cfg = SimConfig {
            law: Cutoff::new(
                RepulsiveInverseSquare {
                    strength: 1e-3,
                    softening: 1e-3,
                },
                0.25,
            ),
            integrator: SemiImplicitEuler,
            domain: Domain::unit(),
            boundary: Boundary::Periodic,
            dt: 0.01,
            steps: STEPS,
        };
        let initial = init::uniform(60, &cfg.domain, 11);
        let want = run_distributed(&cfg, method, p, &initial);
        let layout = Layout::new(method, p, &cfg.domain, cfg.boundary, cfg.law.cutoff()).unwrap();
        let ranks = run_ranks(p, |world| {
            let owned = run_plain_rank(&cfg, layout, world, &initial);
            (owned, world.stats())
        });
        let mut got = Vec::new();
        for (rank, (owned, stats)) in ranks.into_iter().enumerate() {
            assert!(
                owned.windows(2).all(|w| w[0].id < w[1].id),
                "{method:?}: rank {rank} hands back its block in id order"
            );
            for phase in ALL_PHASES {
                assert_eq!(
                    counts(stats.phase(phase)),
                    counts(want.stats[rank].phase(phase)),
                    "{method:?}: rank {rank} {phase:?}"
                );
            }
            got.extend(owned);
        }
        got.sort_by_key(|q| q.id);
        assert_eq!(bits(&got), bits(&want.particles), "{method:?}");
    }
}
