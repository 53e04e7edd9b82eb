//! Semantics tests of the discrete-event engine: virtual-time causality,
//! conservation of accounted time, and stability under randomized (but
//! well-formed) schedules.

use nbody_comm::Phase;
use nbody_netsim::{simulate, test_machine, CollNet, Op, TeamSpec};
use proptest::prelude::*;

#[test]
fn makespan_equals_slowest_rank_total() {
    // Every clock advance is attributed to a bucket, so per-rank totals
    // must equal final clocks; the makespan is their max.
    let m = test_machine();
    let p = 6;
    let rep = simulate(&m, p, |r| {
        let mut ops = vec![Op::Compute {
            interactions: (r as u64 + 1) * 5,
        }];
        if r == 0 {
            ops.push(Op::Send {
                to: 1,
                bytes: 100,
                phase: Phase::Shift,
            });
        }
        if r == 1 {
            ops.push(Op::Recv {
                from: 0,
                phase: Phase::Shift,
            });
        }
        ops.into_iter()
    });
    let max_total = rep.per_rank.iter().map(|b| b.total()).fold(0.0, f64::max);
    assert!((rep.makespan - max_total).abs() < 1e-12);
}

#[test]
fn causality_message_cannot_arrive_before_send() {
    let m = test_machine();
    // Rank 0 computes for 100s then sends; rank 1 receives immediately.
    // Rank 1's clock must end past 100s even though it did no work.
    let rep = simulate(&m, 2, |r| {
        let ops: Vec<Op> = match r {
            0 => vec![
                Op::Compute { interactions: 100 },
                Op::Send {
                    to: 1,
                    bytes: 0,
                    phase: Phase::Shift,
                },
            ],
            _ => vec![Op::Recv {
                from: 0,
                phase: Phase::Shift,
            }],
        };
        ops.into_iter()
    });
    assert!(rep.per_rank[1].phase(Phase::Shift) > 100.0);
}

#[test]
fn pipeline_overlaps_compute_with_transfer() {
    // With enough local work, transfer latency hides entirely.
    let m = test_machine();
    let rep = simulate(&m, 2, |r| {
        let ops: Vec<Op> = match r {
            0 => vec![
                Op::Send {
                    to: 1,
                    bytes: 1000,
                    phase: Phase::Shift,
                },
                Op::Compute { interactions: 50 },
            ],
            _ => vec![
                Op::Compute { interactions: 50 },
                Op::Recv {
                    from: 0,
                    phase: Phase::Shift,
                },
            ],
        };
        ops.into_iter()
    });
    // Receiver blocked time ~0: arrival (0.3 + 2) < its compute 50.
    assert!(rep.per_rank[1].phase(Phase::Shift) < 1e-9);
}

#[test]
fn collective_cost_charged_once_per_instance() {
    let m = test_machine();
    let team = TeamSpec::new(0, 1, 4);
    let rounds = 5;
    let rep = simulate(&m, 4, |_| {
        (0..rounds)
            .map(|_| Op::Bcast {
                team,
                bytes: 0,
                phase: Phase::Broadcast,
                net: CollNet::Torus,
            })
            .collect::<Vec<_>>()
            .into_iter()
    });
    // All ranks enter at the same time; each bcast costs 2 stages x 1s.
    for b in &rep.per_rank {
        assert!((b.phase(Phase::Broadcast) - (rounds as f64) * 2.0).abs() < 1e-9);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn random_ring_schedules_never_deadlock(
        p in 1usize..32,
        steps in 0usize..20,
        bytes in 0u64..10_000,
        stride_seed in any::<usize>(),
    ) {
        let stride = 1 + stride_seed % p.max(1);
        let m = test_machine();
        let rep = simulate(&m, p, |r| {
            (0..steps)
                .flat_map(move |s| {
                    [
                        Op::Send {
                            to: (r + stride) % p,
                            bytes,
                            phase: Phase::Shift,
                        },
                        Op::Recv {
                            from: (r + p - stride) % p,
                            phase: Phase::Shift,
                        },
                        Op::Compute {
                            interactions: s as u64,
                        },
                    ]
                })
                .collect::<Vec<_>>()
                .into_iter()
        });
        prop_assert_eq!(rep.per_rank.len(), p);
        prop_assert!(rep.makespan.is_finite());
        // Monotone: more steps can only increase the makespan.
        prop_assert!(rep.makespan >= 0.0);
    }

    #[test]
    fn more_bytes_never_reduce_makespan(
        p in 2usize..16,
        small in 0u64..1000,
        extra in 1u64..100_000,
    ) {
        let m = test_machine();
        let run = |bytes: u64| {
            simulate(&m, p, |r| {
                [
                    Op::Send {
                        to: (r + 1) % p,
                        bytes,
                        phase: Phase::Shift,
                    },
                    Op::Recv {
                        from: (r + p - 1) % p,
                        phase: Phase::Shift,
                    },
                ]
                .into_iter()
            })
            .makespan
        };
        prop_assert!(run(small + extra) >= run(small) - 1e-12);
    }

    #[test]
    fn disjoint_team_collectives_compose(
        teams in 1usize..6,
        size in 1usize..5,
        bytes in 0u64..10_000,
    ) {
        let p = teams * size;
        let m = test_machine();
        let rep = simulate(&m, p, |r| {
            let team = TeamSpec::new((r / size) * size, 1, size);
            vec![Op::Reduce {
                team,
                bytes,
                phase: Phase::Reduce,
                net: CollNet::Torus,
            }]
            .into_iter()
        });
        // Identical teams: all ranks pay the same reduce cost.
        let first = rep.per_rank[0].phase(Phase::Reduce);
        for b in &rep.per_rank {
            prop_assert!((b.phase(Phase::Reduce) - first).abs() < 1e-9);
        }
    }
}
