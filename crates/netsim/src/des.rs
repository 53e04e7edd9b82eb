//! The discrete-event engine.
//!
//! Executes one lazy [`Op`] program per rank against a [`Machine`] cost
//! model, tracking a virtual clock per rank. Point-to-point messages are
//! eagerly buffered (like the real runtime in `nbody-comm`), receives block
//! until the matching arrival, and collectives synchronize their team at
//! `max(entry clocks) + collective cost`. The engine is a cooperative
//! scheduler: it advances a rank until it blocks, then switches — total
//! work is linear in the number of ops, so full paper-scale schedules
//! (tens of thousands of ranks, ~10⁹ ops) are feasible on one machine.

use std::collections::hash_map::Entry;
use std::collections::VecDeque;

use crate::fasthash::FastMap;

use crate::machine::Machine;
use crate::op::{Op, TeamSpec};
use crate::report::{RankBreakdown, SimReport};
use crate::trace::{TraceEvent, TraceKind};

/// What a rank is currently blocked on.
enum Waiting {
    Msg { from: u32 },
    Collective,
    Done,
}

struct RankState<I> {
    clock: f64,
    breakdown: RankBreakdown,
    prog: I,
    waiting: Option<Waiting>,
    /// Phase of the pending recv (for blocked-time attribution).
    pending_phase: usize,
    /// Clock when the pending recv was posted (for tracing).
    pending_start: f64,
}

struct CollState {
    /// (rank, entry clock) of members that have arrived.
    entries: Vec<(u32, f64)>,
    /// Cost to apply once everyone arrives, computed by the first entrant.
    cost: f64,
    phase: usize,
    expected: usize,
}

/// Simulate `p` rank programs on `machine`. `programs(rank)` must yield the
/// rank's op stream; streams are consumed lazily.
///
/// Panics with a diagnostic if the schedule deadlocks (a rank waits on a
/// message or collective that can never complete).
pub fn simulate<I, G>(machine: &Machine, p: usize, programs: G) -> SimReport
where
    I: Iterator<Item = Op>,
    G: Fn(usize) -> I,
{
    simulate_with_observer(machine, p, programs, &mut |_| {})
}

/// [`simulate`] with an event observer invoked as each activity completes
/// (see [`simulate_traced`](crate::trace::simulate_traced) for the
/// user-facing wrapper). The observer is generic so the no-op case
/// compiles away.
pub fn simulate_with_observer<I, G, O>(
    machine: &Machine,
    p: usize,
    programs: G,
    observe: &mut O,
) -> SimReport
where
    I: Iterator<Item = Op>,
    G: Fn(usize) -> I,
    O: FnMut(TraceEvent),
{
    assert!(p > 0);
    let torus = machine.torus(p);
    // Hot-path cache: node id and torus coordinates per rank.
    let rank_node: Vec<usize> = (0..p).map(|r| machine.node_of(r) % torus.nodes()).collect();
    let rank_coords: Vec<[usize; 3]> = rank_node.iter().map(|&n| torus.coords(n)).collect();
    let mut states: Vec<RankState<I>> = (0..p)
        .map(|r| RankState {
            clock: 0.0,
            breakdown: RankBreakdown::default(),
            prog: programs(r),
            waiting: None,
            pending_phase: 0,
            pending_start: 0.0,
        })
        .collect();

    // In-flight messages: (from, to) -> arrival times in FIFO send order.
    let mut msgs: FastMap<(u32, u32), VecDeque<f64>> = FastMap::default();
    // Ranks blocked on a message from a specific source.
    let mut msg_waiters: FastMap<(u32, u32), u32> = FastMap::default();
    // Open collective instances per team.
    let mut colls: FastMap<TeamSpec, CollState> = FastMap::default();

    let mut runnable: Vec<u32> = (0..p as u32).rev().collect();
    let mut finished = 0usize;

    while let Some(rank) = runnable.pop() {
        let r = rank as usize;
        // If this rank was woken from a blocked receive, complete it now:
        // the message that woke it must be in flight.
        if let Some(Waiting::Msg { from }) = states[r].waiting.take() {
            let arrival = msgs
                .get_mut(&(from, rank))
                .and_then(VecDeque::pop_front)
                .expect("rank woken without a matching message");
            let blocked = (arrival - states[r].clock).max(0.0);
            states[r].clock += blocked;
            let phase = states[r].pending_phase;
            states[r].breakdown.comm[phase] += blocked;
            observe(TraceEvent {
                rank,
                start: states[r].pending_start,
                end: states[r].clock,
                kind: TraceKind::Recv {
                    from,
                    phase: nbody_comm::ALL_PHASES[phase],
                },
            });
        }
        loop {
            let op = match states[r].prog.next() {
                Some(op) => op,
                None => {
                    states[r].waiting = Some(Waiting::Done);
                    finished += 1;
                    break;
                }
            };
            match op {
                Op::Compute { interactions } => {
                    let t = machine.compute_time(interactions);
                    let start = states[r].clock;
                    states[r].clock += t;
                    states[r].breakdown.compute += t;
                    observe(TraceEvent {
                        rank,
                        start,
                        end: states[r].clock,
                        kind: TraceKind::Compute,
                    });
                }
                Op::Send { to, bytes, phase } => {
                    debug_assert!(to < p, "send to invalid rank {to}");
                    let overhead = machine.send_overhead();
                    let start = states[r].clock;
                    states[r].clock += overhead;
                    states[r].breakdown.comm[phase.index()] += overhead;
                    observe(TraceEvent {
                        rank,
                        start,
                        end: states[r].clock,
                        kind: TraceKind::Send {
                            to: to as u32,
                            bytes,
                            phase,
                        },
                    });
                    let arrival = states[r].clock
                        + machine.wire_time_cached(
                            &torus,
                            rank_node[r],
                            rank_coords[r],
                            rank_node[to],
                            rank_coords[to],
                            bytes,
                            phase,
                        );
                    let key = (rank, to as u32);
                    msgs.entry(key).or_default().push_back(arrival);
                    if let Some(waiter) = msg_waiters.remove(&key) {
                        debug_assert_eq!(waiter, to as u32);
                        runnable.push(waiter);
                    }
                }
                Op::Recv { from, phase } => {
                    let key = (from as u32, rank);
                    match msgs.get_mut(&key).and_then(VecDeque::pop_front) {
                        Some(arrival) => {
                            let start = states[r].clock;
                            let blocked = (arrival - states[r].clock).max(0.0);
                            states[r].clock += blocked;
                            states[r].breakdown.comm[phase.index()] += blocked;
                            observe(TraceEvent {
                                rank,
                                start,
                                end: states[r].clock,
                                kind: TraceKind::Recv {
                                    from: from as u32,
                                    phase,
                                },
                            });
                        }
                        None => {
                            // Block until the sender posts.
                            states[r].waiting = Some(Waiting::Msg { from: from as u32 });
                            states[r].pending_phase = phase.index();
                            states[r].pending_start = states[r].clock;
                            let prev = msg_waiters.insert(key, rank);
                            debug_assert!(prev.is_none(), "two ranks waiting on one channel");
                            break;
                        }
                    }
                }
                Op::Bcast {
                    team,
                    bytes,
                    phase,
                    net,
                } => {
                    let cost = machine.collective_time(team.count, bytes, net, false);
                    enter_collective(
                        &mut states,
                        &mut colls,
                        &mut runnable,
                        rank,
                        team,
                        cost,
                        phase.index(),
                        observe,
                    );
                    if matches!(states[r].waiting, Some(Waiting::Collective)) {
                        break;
                    }
                }
                Op::Reduce {
                    team,
                    bytes,
                    phase,
                    net,
                } => {
                    let cost = machine.collective_time(team.count, bytes, net, true);
                    enter_collective(
                        &mut states,
                        &mut colls,
                        &mut runnable,
                        rank,
                        team,
                        cost,
                        phase.index(),
                        observe,
                    );
                    if matches!(states[r].waiting, Some(Waiting::Collective)) {
                        break;
                    }
                }
                Op::Allgather {
                    team,
                    bytes_per_member,
                    phase,
                    net,
                } => {
                    let cost = machine.allgather_time(team.count, bytes_per_member, net);
                    enter_collective(
                        &mut states,
                        &mut colls,
                        &mut runnable,
                        rank,
                        team,
                        cost,
                        phase.index(),
                        observe,
                    );
                    if matches!(states[r].waiting, Some(Waiting::Collective)) {
                        break;
                    }
                }
            }
        }

        if runnable.is_empty() && finished < p {
            // Re-scan: a rank unblocked by the last action of another may
            // still be queued; if truly nothing is runnable, we deadlocked.
            let stuck: Vec<usize> = states
                .iter()
                .enumerate()
                .filter(|(_, s)| !matches!(s.waiting, Some(Waiting::Done)))
                .map(|(i, _)| i)
                .take(8)
                .collect();
            if !stuck.is_empty() {
                panic!(
                    "netsim deadlock: {} of {} ranks finished; stuck ranks (first 8): {:?}",
                    finished, p, stuck
                );
            }
        }
    }

    let makespan = states.iter().map(|s| s.clock).fold(0.0, f64::max);
    SimReport {
        makespan,
        per_rank: states.into_iter().map(|s| s.breakdown).collect(),
    }
}

/// Register `rank` in the open collective instance for `team`. If the rank
/// completes the team, release everyone at `max(entries) + cost`; otherwise
/// mark the rank blocked.
#[allow(clippy::too_many_arguments)]
fn enter_collective<I, O>(
    states: &mut [RankState<I>],
    colls: &mut FastMap<TeamSpec, CollState>,
    runnable: &mut Vec<u32>,
    rank: u32,
    team: TeamSpec,
    cost: f64,
    phase: usize,
    observe: &mut O,
) where
    I: Iterator<Item = Op>,
    O: FnMut(TraceEvent),
{
    debug_assert!(team.contains(rank as usize), "rank {rank} not in {team:?}");
    if team.count == 1 {
        return; // trivially complete, zero cost
    }
    let entry_clock = states[rank as usize].clock;
    let state = match colls.entry(team) {
        Entry::Occupied(e) => e.into_mut(),
        Entry::Vacant(e) => e.insert(CollState {
            entries: Vec::with_capacity(team.count),
            cost,
            phase,
            expected: team.count,
        }),
    };
    debug_assert_eq!(state.phase, phase, "phase mismatch inside one collective");
    state.entries.push((rank, entry_clock));

    if state.entries.len() == state.expected {
        let state = colls.remove(&team).unwrap();
        let release = state.entries.iter().map(|&(_, t)| t).fold(0.0, f64::max) + state.cost;
        for (member, entry) in state.entries {
            let s = &mut states[member as usize];
            s.breakdown.comm[state.phase] += release - entry;
            s.clock = release;
            observe(TraceEvent {
                rank: member,
                start: entry,
                end: release,
                kind: TraceKind::Collective {
                    members: team.count as u32,
                    phase: nbody_comm::ALL_PHASES[state.phase],
                },
            });
            if member != rank {
                s.waiting = None;
                runnable.push(member);
            }
        }
    } else {
        states[rank as usize].waiting = Some(Waiting::Collective);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::test_machine;
    use crate::op::CollNet;
    use nbody_comm::Phase;

    fn send(to: usize, bytes: u64) -> Op {
        Op::Send {
            to,
            bytes,
            phase: Phase::Shift,
        }
    }

    fn recv(from: usize) -> Op {
        Op::Recv {
            from,
            phase: Phase::Shift,
        }
    }

    #[test]
    fn compute_only() {
        let m = test_machine();
        let rep = simulate(&m, 2, |r| {
            vec![Op::Compute {
                interactions: (r as u64 + 1) * 10,
            }]
            .into_iter()
        });
        assert_eq!(rep.per_rank[0].compute, 10.0);
        assert_eq!(rep.per_rank[1].compute, 20.0);
        assert_eq!(rep.makespan, 20.0);
    }

    #[test]
    fn message_latency_blocks_receiver() {
        let m = test_machine(); // alpha=1 (0.3 send overhead + wire), beta=0.001
        let rep = simulate(&m, 2, |r| {
            let prog: Vec<Op> = match r {
                0 => vec![send(1, 1000)],
                _ => vec![recv(0)],
            };
            prog.into_iter()
        });
        // Sender: 0.3 overhead. Arrival: 0.3 + (1 + 1000*0.001) = 2.3.
        assert!((rep.per_rank[0].phase(Phase::Shift) - 0.3).abs() < 1e-12);
        assert!((rep.per_rank[1].phase(Phase::Shift) - 2.3).abs() < 1e-12);
        assert!((rep.makespan - 2.3).abs() < 1e-12);
    }

    #[test]
    fn recv_after_arrival_does_not_block() {
        let m = test_machine();
        let rep = simulate(&m, 2, |r| {
            let prog: Vec<Op> = match r {
                0 => vec![send(1, 0)],
                _ => vec![Op::Compute { interactions: 100 }, recv(0)],
            };
            prog.into_iter()
        });
        // Receiver computed 100s; message arrived at 1.3 — no blocking.
        assert_eq!(rep.per_rank[1].phase(Phase::Shift), 0.0);
        assert_eq!(rep.makespan, 100.0);
    }

    #[test]
    fn ring_shift_pipeline() {
        let m = test_machine();
        let p = 8;
        let steps = 5;
        let rep = simulate(&m, p, |r| {
            let mut prog = Vec::new();
            for _ in 0..steps {
                prog.push(send((r + 1) % p, 100));
                prog.push(recv((r + p - 1) % p));
                prog.push(Op::Compute { interactions: 3 });
            }
            prog.into_iter()
        });
        // Symmetric ring: all ranks finish together.
        let totals: Vec<f64> = rep.per_rank.iter().map(|b| b.total()).collect();
        for t in &totals {
            assert!((t - totals[0]).abs() < 1e-9, "{totals:?}");
        }
        assert!(rep.makespan > 0.0);
    }

    #[test]
    fn fifo_matching_per_pair() {
        // Two sends before any recv: the receiver must see them in order
        // (arrival of the first <= of the second with equal sizes).
        let m = test_machine();
        let rep = simulate(&m, 2, |r| {
            let prog: Vec<Op> = match r {
                0 => vec![send(1, 10), send(1, 10)],
                _ => vec![recv(0), recv(0)],
            };
            prog.into_iter()
        });
        assert!(rep.makespan > 0.0);
    }

    #[test]
    fn collective_synchronizes_team() {
        let m = test_machine();
        let team = TeamSpec::new(0, 1, 4);
        let rep = simulate(&m, 4, |r| {
            vec![
                Op::Compute {
                    interactions: (r as u64) * 10,
                },
                Op::Bcast {
                    team,
                    bytes: 1000,
                    phase: Phase::Broadcast,
                    net: CollNet::Torus,
                },
            ]
            .into_iter()
        });
        // Entry clocks 0,10,20,30; cost = 2 stages * (1 + 1) = 4.
        let release = 30.0 + 4.0;
        for (r, b) in rep.per_rank.iter().enumerate() {
            let expect_blocked = release - (r as f64) * 10.0;
            assert!(
                (b.phase(Phase::Broadcast) - expect_blocked).abs() < 1e-9,
                "rank {r}: {} vs {expect_blocked}",
                b.phase(Phase::Broadcast)
            );
        }
        assert!((rep.makespan - release).abs() < 1e-9);
    }

    #[test]
    fn disjoint_teams_do_not_interfere() {
        let m = test_machine();
        let rep = simulate(&m, 4, |r| {
            let team = if r < 2 {
                TeamSpec::new(0, 1, 2)
            } else {
                TeamSpec::new(2, 1, 2)
            };
            vec![Op::Reduce {
                team,
                bytes: 0,
                phase: Phase::Reduce,
                net: CollNet::Torus,
            }]
            .into_iter()
        });
        // One stage of latency 1 each.
        for b in &rep.per_rank {
            assert!((b.phase(Phase::Reduce) - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn strided_team_collective() {
        let m = test_machine();
        // Column teams on a 2x2 grid: {0,2} and {1,3}.
        let rep = simulate(&m, 4, |r| {
            let team = TeamSpec::new(r % 2, 2, 2);
            vec![Op::Bcast {
                team,
                bytes: 0,
                phase: Phase::Broadcast,
                net: CollNet::Torus,
            }]
            .into_iter()
        });
        assert!(rep.makespan > 0.0);
    }

    #[test]
    fn consecutive_collectives_same_team() {
        let m = test_machine();
        let team = TeamSpec::new(0, 1, 3);
        let rep = simulate(&m, 3, |_| {
            vec![
                Op::Bcast {
                    team,
                    bytes: 0,
                    phase: Phase::Broadcast,
                    net: CollNet::Torus,
                },
                Op::Reduce {
                    team,
                    bytes: 0,
                    phase: Phase::Reduce,
                    net: CollNet::Torus,
                },
            ]
            .into_iter()
        });
        for b in &rep.per_rank {
            assert!(b.phase(Phase::Broadcast) > 0.0);
            assert!(b.phase(Phase::Reduce) > 0.0);
        }
    }

    #[test]
    fn solo_collective_is_free() {
        let m = test_machine();
        let rep = simulate(&m, 1, |r| {
            vec![Op::Bcast {
                team: TeamSpec::solo(r),
                bytes: 1 << 30,
                phase: Phase::Broadcast,
                net: CollNet::Torus,
            }]
            .into_iter()
        });
        assert_eq!(rep.makespan, 0.0);
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn deadlock_detected() {
        let m = test_machine();
        simulate(&m, 2, |r| {
            let prog: Vec<Op> = match r {
                0 => vec![recv(1)],
                _ => vec![recv(0)],
            };
            prog.into_iter()
        });
    }

    #[test]
    fn large_scale_smoke() {
        // 4096 ranks, ring pipeline: exercises the scheduler's scalability.
        let m = test_machine();
        let p = 4096;
        let rep = simulate(&m, p, |r| {
            (0..8)
                .flat_map(move |_| {
                    [
                        send((r + 1) % p, 52),
                        recv((r + p - 1) % p),
                        Op::Compute { interactions: 10 },
                    ]
                })
                .collect::<Vec<_>>()
                .into_iter()
        });
        assert_eq!(rep.per_rank.len(), p);
        assert!(rep.makespan > 0.0);
    }
}
