//! Overhead of the always-on flight recorder.
//!
//! The timeline design claims the flight-recorder event ring is cheap
//! enough to leave on in every normal run: `run_ranks` carries an enabled
//! ring on every rank while step sampling stays off, so the only cost a
//! fault-free evaluation pays is the per-rank recorder allocation and the
//! (never-taken) enabled checks. Comparing a full CA all-pairs evaluation
//! through `run_ranks` (ring on) against `run_ranks_with` with
//! `Lenses::flight` off
//! keeps that claim honest — the delta must stay within noise.
//!
//! The third benchmark prices the hot path itself: `step_mark` plus a
//! recorded event per iteration on an enabled recorder, the worst case a
//! traced run pays per timestep.

use ca_nbody::dist::id_block_subset;
use ca_nbody::{ca_all_pairs_forces, GridComms, ProcGrid};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use nbody_comm::{run_ranks, run_ranks_with, Communicator, EventKind, Lenses};
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

fn eval<C2: Communicator>(world: &C2, grid: ProcGrid, initial: &[Particle]) -> usize {
    let domain = Domain::unit();
    let gc = GridComms::new(world, grid);
    let mut st: Vec<Particle> = if gc.is_leader() {
        id_block_subset(initial, grid.teams(), gc.team())
    } else {
        Vec::new()
    };
    ca_all_pairs_forces(&gc, &mut st, &law(), &domain, Boundary::Reflective);
    st.len()
}

fn bench_eval_flight_on(c: &mut Criterion) {
    let grid = ProcGrid::new_all_pairs(P, C).unwrap();
    let initial = init::uniform(N, &Domain::unit(), 42);
    c.bench_function("allpairs_eval_flight_recorder_on", |b| {
        b.iter(|| black_box(run_ranks(P, |world| eval(world, grid, &initial))))
    });
}

fn bench_eval_flight_off(c: &mut Criterion) {
    let grid = ProcGrid::new_all_pairs(P, C).unwrap();
    let initial = init::uniform(N, &Domain::unit(), 42);
    c.bench_function("allpairs_eval_flight_recorder_off", |b| {
        let silent = Lenses {
            flight: false,
            ..Lenses::default()
        };
        b.iter(|| {
            black_box(run_ranks_with(P, silent, |world| {
                eval(world, grid, &initial)
            }))
        })
    });
}

const RECORD_ROUNDS: u64 = 10_000;

fn bench_record_hot_path(c: &mut Criterion) {
    c.bench_function("flight_ring_mark_and_event", |b| {
        b.iter(|| {
            run_ranks(1, |world| {
                let tl = world.timeline();
                for step in 0..RECORD_ROUNDS {
                    tl.step_mark(step);
                    tl.event(EventKind::Checkpoint, Some(step), "bench");
                }
            });
            black_box(())
        })
    });
}

criterion_group!(
    benches,
    bench_eval_flight_on,
    bench_eval_flight_off,
    bench_record_hot_path
);
criterion_main!(benches);
