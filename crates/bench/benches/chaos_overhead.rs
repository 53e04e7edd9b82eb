//! Overhead of the fault-injection layer when no faults are scheduled.
//!
//! The recovery design claims that resilience is pay-as-you-go: a
//! `ChaosComm` wrapper with an empty `FaultPlan` and the deadline-capable
//! receive path must add no measurable cost to a force evaluation, so the
//! fault-tolerant drivers can be the default in chaos-capable deployments.
//! Two comparisons keep that honest:
//!
//! * a full CA all-pairs evaluation through the plain driver on the plain
//!   transport vs. the fault-tolerant driver under `ChaosComm` with an
//!   empty plan (both pay the same thread spawn; the delta is the wrapper
//!   plus checkpoint/agreement), and
//! * a tight two-rank ping-pong through `recv` vs. `try_recv_timeout`
//!   (the per-message cost of deadline arithmetic on the hot path).

use ca_nbody::dist::id_block_subset;
use ca_nbody::recovery::{ca_all_pairs_forces_ft, RetryPolicy};
use ca_nbody::{ca_all_pairs_forces, GridComms, ProcGrid};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use nbody_comm::{run_ranks, run_ranks_chaos, Communicator, FaultPlan};
use nbody_physics::{init, Boundary, Domain, Particle, RepulsiveInverseSquare};

const P: usize = 4;
const C: usize = 2;
const N: usize = 128;

fn law() -> RepulsiveInverseSquare {
    RepulsiveInverseSquare {
        strength: 1e-3,
        softening: 1e-3,
    }
}

fn bench_eval_plain(c: &mut Criterion) {
    let domain = Domain::unit();
    let grid = ProcGrid::new_all_pairs(P, C).unwrap();
    let initial = init::uniform(N, &domain, 42);
    c.bench_function("allpairs_eval_plain_transport", |b| {
        b.iter(|| {
            let out = run_ranks(P, |world| {
                let gc = GridComms::new(world, grid);
                let mut st: Vec<Particle> = if gc.is_leader() {
                    id_block_subset(&initial, grid.teams(), gc.team())
                } else {
                    Vec::new()
                };
                ca_all_pairs_forces(&gc, &mut st, &law(), &domain, Boundary::Reflective);
                st.len()
            });
            black_box(out)
        })
    });
}

fn bench_eval_chaos_empty(c: &mut Criterion) {
    let domain = Domain::unit();
    let grid = ProcGrid::new_all_pairs(P, C).unwrap();
    let initial = init::uniform(N, &domain, 42);
    let plan = FaultPlan::empty();
    c.bench_function("allpairs_eval_chaos_empty_plan", |b| {
        b.iter(|| {
            let out = run_ranks_chaos(P, &plan, |world| {
                let gc = GridComms::new(world, grid);
                let mut st: Vec<Particle> = if gc.is_leader() {
                    id_block_subset(&initial, grid.teams(), gc.team())
                } else {
                    Vec::new()
                };
                ca_all_pairs_forces_ft(
                    &gc,
                    &mut st,
                    &law(),
                    &domain,
                    Boundary::Reflective,
                    &RetryPolicy::default(),
                    0,
                    None,
                )
                .expect("no faults scheduled");
                st.len()
            });
            black_box(out)
        })
    });
}

const PINGPONG_ROUNDS: usize = 2000;
const MSG_LEN: usize = 64;

fn bench_pingpong_recv(c: &mut Criterion) {
    c.bench_function("pingpong_blocking_recv", |b| {
        b.iter(|| {
            run_ranks(2, |world| {
                let peer = 1 - world.rank();
                let data = vec![0u64; MSG_LEN];
                for i in 0..PINGPONG_ROUNDS {
                    world.send(peer, i as u64, &data);
                    black_box(world.recv::<u64>(peer, i as u64));
                }
            })
        })
    });
}

fn bench_pingpong_try_recv_timeout(c: &mut Criterion) {
    let timeout = std::time::Duration::from_secs(5);
    c.bench_function("pingpong_try_recv_timeout", |b| {
        b.iter(|| {
            run_ranks(2, |world| {
                let peer = 1 - world.rank();
                let data = vec![0u64; MSG_LEN];
                for i in 0..PINGPONG_ROUNDS {
                    world.send(peer, i as u64, &data);
                    black_box(
                        world
                            .try_recv_timeout::<u64>(peer, i as u64, timeout)
                            .expect("peer is alive"),
                    );
                }
            })
        })
    });
}

criterion_group!(
    benches,
    bench_eval_plain,
    bench_eval_chaos_empty,
    bench_pingpong_recv,
    bench_pingpong_try_recv_timeout
);
criterion_main!(benches);
