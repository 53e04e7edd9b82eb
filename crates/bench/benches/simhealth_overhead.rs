//! Overhead of the numerical-health monitors.
//!
//! The health design claims monitors-off runs pay nothing: the drivers
//! only switch to the potential-harvesting kernel and run the sentinel
//! scans and fingerprint cross-check when a `HealthMonitor` is installed.
//! Comparing a full fault-tolerant CA all-pairs evaluation with health
//! off against health on keeps that claim honest — the health=None run
//! must match the pre-health driver within noise, and the health=Some
//! delta is the documented price of the lens (PE harvest + one u64
//! fingerprint + one column allgather per attempt).
//!
//! The last two benchmarks price the building blocks themselves on a
//! rank-local slice: the order-invariant state fingerprint and the
//! non-finite sentinel scans.

use ca_nbody::dist::id_block_subset;
use ca_nbody::recovery::{ca_all_pairs_forces_ft, HealthMonitor, RetryPolicy};
use ca_nbody::{GridComms, ProcGrid};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use nbody_comm::{run_ranks_with, Communicator, Lenses};
use nbody_physics::{init, Boundary, Domain, Particle, RepulsiveInverseSquare};
use nbody_simhealth::{scan_forces, scan_state, state_fingerprint};

const P: usize = 4;
const C: usize = 2;
const N: usize = 128;
/// No recorder at all: the monitors are priced against a silent baseline.
const SILENT: Lenses = Lenses {
    trace: false,
    flight: false,
    probe: false,
};

fn law() -> RepulsiveInverseSquare {
    RepulsiveInverseSquare {
        strength: 1e-3,
        softening: 1e-3,
    }
}

fn eval_ft<C2: Communicator>(
    world: &C2,
    grid: ProcGrid,
    initial: &[Particle],
    health: Option<&HealthMonitor>,
) -> usize {
    let domain = Domain::unit();
    let gc = GridComms::new(world, grid);
    let mut st: Vec<Particle> = if gc.is_leader() {
        id_block_subset(initial, grid.teams(), gc.team())
    } else {
        Vec::new()
    };
    let policy = RetryPolicy::with_timeout_ms(1000);
    ca_all_pairs_forces_ft(
        &gc,
        &mut st,
        &law(),
        &domain,
        Boundary::Reflective,
        &policy,
        0,
        health,
    )
    .expect("fault-free evaluation succeeds");
    st.len()
}

fn bench_eval_health_off(c: &mut Criterion) {
    let grid = ProcGrid::new_all_pairs(P, C).unwrap();
    let initial = init::uniform(N, &Domain::unit(), 42);
    c.bench_function("allpairs_ft_eval_health_off", |b| {
        b.iter(|| {
            black_box(run_ranks_with(P, SILENT, |world| {
                eval_ft(world, grid, &initial, None)
            }))
        })
    });
}

fn bench_eval_health_on(c: &mut Criterion) {
    let grid = ProcGrid::new_all_pairs(P, C).unwrap();
    let initial = init::uniform(N, &Domain::unit(), 42);
    c.bench_function("allpairs_ft_eval_health_on", |b| {
        b.iter(|| {
            black_box(run_ranks_with(P, SILENT, |world| {
                let hm = HealthMonitor::new(true, None);
                eval_ft(world, grid, &initial, Some(&hm))
            }))
        })
    });
}

fn bench_fingerprint(c: &mut Criterion) {
    let particles = init::uniform(N, &Domain::unit(), 42);
    c.bench_function("state_fingerprint_128", |b| {
        b.iter(|| black_box(state_fingerprint(black_box(&particles))))
    });
}

fn bench_sentinel_scans(c: &mut Criterion) {
    let particles = init::uniform(N, &Domain::unit(), 42);
    c.bench_function("sentinel_scan_128", |b| {
        b.iter(|| {
            let p = black_box(&particles);
            black_box((scan_forces(p), scan_state(p)))
        })
    });
}

criterion_group!(
    benches,
    bench_eval_health_off,
    bench_eval_health_on,
    bench_fingerprint,
    bench_sentinel_scans
);
criterion_main!(benches);
