//! Discrete-event simulator throughput: events per second of the engine
//! itself, which bounds how quickly the paper-scale figures regenerate.

use ca_nbody::schedule::{AllPairsParams, CutoffParams};
use ca_nbody::{ProcGrid, TeamWindow};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use nbody_comm::Phase;
use nbody_netsim::{hopper, simulate, test_machine, Op};

fn bench_ring_schedule(c: &mut Criterion) {
    let m = test_machine();
    let mut group = c.benchmark_group("des_ring");
    for p in [256usize, 1024] {
        let steps = 64;
        group.throughput(Throughput::Elements((p * steps * 3) as u64));
        group.bench_with_input(BenchmarkId::from_parameter(p), &p, |bench, &p| {
            bench.iter(|| {
                simulate(&m, p, |r| {
                    (0..steps).flat_map(move |s| {
                        [
                            Op::Send {
                                to: (r + 1) % p,
                                bytes: 52,
                                phase: Phase::Shift,
                            },
                            Op::Recv {
                                from: (r + p - 1) % p,
                                phase: Phase::Shift,
                            },
                            Op::Compute {
                                interactions: s as u64,
                            },
                        ]
                    })
                })
            })
        });
    }
    group.finish();
}

fn bench_all_pairs_schedule(c: &mut Criterion) {
    let m = hopper();
    let mut group = c.benchmark_group("des_all_pairs");
    group.sample_size(10);
    for (p, cc) in [(1024usize, 1usize), (1024, 4)] {
        let params = AllPairsParams::new(p, cc, p * 8);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("p{p}_c{cc}")),
            &params,
            |bench, params| bench.iter(|| simulate(&m, p, |r| params.program(r))),
        );
    }
    group.finish();
}

fn bench_cutoff_schedule(c: &mut Criterion) {
    let m = hopper();
    let p = 1024;
    let grid = ProcGrid::new(p, 2).unwrap();
    let window = TeamWindow::clipped(&[grid.teams()], &[grid.teams() / 4]);
    let params = CutoffParams::new(grid, window, vec![16; grid.teams()]);
    let mut group = c.benchmark_group("des_cutoff");
    group.sample_size(10);
    group.bench_function("p1024_c2", |bench| {
        bench.iter(|| simulate(&m, p, |r| params.program(r)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_ring_schedule,
    bench_all_pairs_schedule,
    bench_cutoff_schedule
);
criterion_main!(benches);
