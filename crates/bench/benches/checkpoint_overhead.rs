//! Overhead of the durable-checkpoint sink on a fault-free run.
//!
//! The durability design claims checkpointing is pay-as-you-go twice
//! over: with no `CheckpointConfig` the fault-tolerant driver must cost
//! the same as before the sink existed, and with a sink on a sparse
//! cadence the per-step cost is one leader-gather plus one atomic file
//! write, amortized across the cadence. Three comparisons keep that
//! honest:
//!
//! * the fault-tolerant multi-step driver with checkpointing off
//!   (the baseline the `run` CLI takes without `--checkpoint-dir`),
//! * the same run persisting a bundle every step (worst case), and
//! * the same run persisting every 8th step (the amortized case) —
//!   plus the pure serialization cost of one bundle, isolating the
//!   JSON encoding from the gather and the filesystem.

use ca_nbody::recovery::RetryPolicy;
use ca_nbody::sim::{CheckpointConfig, Method, Run, SimConfig};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use nbody_comm::FaultPlan;
use nbody_durable::{CheckpointBundle, ColumnBlock};
use nbody_physics::{init, Boundary, Domain, RepulsiveInverseSquare, SemiImplicitEuler};

const P: usize = 4;
const C: usize = 2;
const N: usize = 128;
const STEPS: usize = 8;

fn cfg() -> SimConfig<RepulsiveInverseSquare, SemiImplicitEuler> {
    SimConfig {
        law: RepulsiveInverseSquare {
            strength: 1e-3,
            softening: 1e-3,
        },
        integrator: SemiImplicitEuler,
        domain: Domain::unit(),
        boundary: Boundary::Reflective,
        dt: 0.005,
        steps: STEPS,
    }
}

fn run_with(ckpt: Option<&CheckpointConfig>) -> usize {
    let cfg = cfg();
    let initial = init::uniform(N, &cfg.domain, 42);
    let (plan, policy) = (FaultPlan::empty(), RetryPolicy::default());
    let mut run = Run::new(&cfg, Method::CaAllPairs { c: C }, P)
        .trace()
        .faults(&plan, &policy);
    if let Some(ck) = ckpt {
        run = run.checkpoint(ck);
    }
    let res = run.execute(&initial).result;
    res.expect("fault-free run").particles.len()
}

fn sink_at(dir: &std::path::Path, every: usize) -> CheckpointConfig {
    CheckpointConfig {
        dir: dir.to_path_buf(),
        every,
        base_step: 0,
        fingerprint: "bench-fingerprint".to_string(),
        seed: 42,
        crash_at: None,
    }
}

fn bench_checkpoint_off(c: &mut Criterion) {
    c.bench_function("durable_run_checkpoint_off", |b| {
        b.iter(|| black_box(run_with(None)))
    });
}

fn bench_checkpoint_every_step(c: &mut Criterion) {
    let dir = std::env::temp_dir().join(format!("nbody-ckpt-bench-every1-{}", std::process::id()));
    let ck = sink_at(&dir, 1);
    c.bench_function("durable_run_checkpoint_every_step", |b| {
        b.iter(|| black_box(run_with(Some(&ck))))
    });
    let _ = std::fs::remove_dir_all(&dir);
}

fn bench_checkpoint_sparse(c: &mut Criterion) {
    let dir = std::env::temp_dir().join(format!("nbody-ckpt-bench-every8-{}", std::process::id()));
    let ck = sink_at(&dir, STEPS);
    c.bench_function("durable_run_checkpoint_every_8th", |b| {
        b.iter(|| black_box(run_with(Some(&ck))))
    });
    let _ = std::fs::remove_dir_all(&dir);
}

fn bench_bundle_serialize(c: &mut Criterion) {
    let domain = Domain::unit();
    let initial = init::uniform(N, &domain, 42);
    let teams = P / C;
    let per_team = N / teams;
    let bundle = CheckpointBundle {
        fingerprint: "bench-fingerprint".to_string(),
        step: 3,
        seed: 42,
        blocks: (0..teams)
            .map(|t| ColumnBlock {
                team: t,
                particles: initial[t * per_team..(t + 1) * per_team].to_vec(),
            })
            .collect(),
    };
    c.bench_function("checkpoint_bundle_to_json", |b| {
        b.iter(|| black_box(bundle.to_json_string().len()))
    });
}

criterion_group!(
    benches,
    bench_checkpoint_off,
    bench_checkpoint_every_step,
    bench_checkpoint_sparse,
    bench_bundle_serialize
);
criterion_main!(benches);
