//! End-to-end benchmark of one CA all-pairs force evaluation on the real
//! threaded runtime, sweeping the replication factor — the in-process
//! analogue of Fig. 2 (at laptop scale, compute dominates; the point is to
//! exercise the true code path, not to reproduce the cluster curves, which
//! the `fig2` binary does via simulation).

use ca_nbody::dist::id_block_subset;
use ca_nbody::{ca_all_pairs_forces, GridComms, ProcGrid};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nbody_comm::{run_ranks, run_ranks_with, Lenses};
use nbody_physics::{init, Boundary, Domain, RepulsiveInverseSquare};

fn bench_ca_all_pairs(crit: &mut Criterion) {
    let domain = Domain::unit();
    let law = RepulsiveInverseSquare::default();
    let n = 1024;

    let mut group = crit.benchmark_group("ca_all_pairs_step_n1024");
    group.sample_size(10);
    for (p, c) in [(4usize, 1usize), (4, 2), (16, 2), (16, 4)] {
        let grid = ProcGrid::new_all_pairs(p, c).unwrap();
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("p{p}_c{c}")),
            &grid,
            |bench, &grid| {
                bench.iter(|| {
                    run_ranks(p, |world| {
                        let gc = GridComms::new(world, grid);
                        let all = init::uniform(n, &domain, 5);
                        let mut st = if gc.is_leader() {
                            id_block_subset(&all, grid.teams(), gc.team())
                        } else {
                            Vec::new()
                        };
                        ca_all_pairs_forces(&gc, &mut st, &law, &domain, Boundary::Open);
                        st.len()
                    })
                })
            },
        );
    }
    group.finish();
}

/// Tracing overhead check: the same step with the tracer disabled (the
/// default `run_ranks` path, which threads a no-op handle everywhere) vs
/// enabled. The disabled variant is the regression guard — it must stay
/// within noise of the seed's pre-tracing numbers.
fn bench_tracing_overhead(crit: &mut Criterion) {
    let domain = Domain::unit();
    let law = RepulsiveInverseSquare::default();
    let n = 1024;
    let (p, c) = (4usize, 2usize);
    let grid = ProcGrid::new_all_pairs(p, c).unwrap();

    let step = |world: &mut nbody_comm::ThreadComm| {
        let gc = GridComms::new(world, grid);
        let all = init::uniform(n, &domain, 5);
        let mut st = if gc.is_leader() {
            id_block_subset(&all, grid.teams(), gc.team())
        } else {
            Vec::new()
        };
        ca_all_pairs_forces(&gc, &mut st, &law, &domain, Boundary::Open);
        st.len()
    };

    let mut group = crit.benchmark_group("tracing_overhead_p4_c2_n1024");
    group.sample_size(10);
    group.bench_function("disabled", |bench| bench.iter(|| run_ranks(p, step)));
    group.bench_function("enabled", |bench| {
        let traced = Lenses {
            trace: true,
            ..Lenses::default()
        };
        bench.iter(|| run_ranks_with(p, traced, step).1.trace.spans.len())
    });
    group.finish();
}

fn bench_serial_baseline(crit: &mut Criterion) {
    let domain = Domain::unit();
    let law = RepulsiveInverseSquare::default();
    let mut ps = init::uniform(1024, &domain, 5);
    crit.bench_function("serial_step_n1024", |bench| {
        bench.iter(|| {
            nbody_physics::particle::reset_forces(&mut ps);
            nbody_physics::reference::accumulate_forces(&mut ps, &law, &domain, Boundary::Open);
        })
    });
}

criterion_group!(
    benches,
    bench_ca_all_pairs,
    bench_tracing_overhead,
    bench_serial_baseline
);
criterion_main!(benches);
