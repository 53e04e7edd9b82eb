//! What each lens of a [`Run`] costs, on one workload, in one table.
//!
//! Every lens claims to be pay-per-use: a run that does not ask for it
//! pays nothing, and a run that does pays a bounded, documented price.
//! The first group keeps that honest. Each row is the same `Run` with one
//! builder call more than `lens_off`:
//!
//! * `lens_trace` — per-rank spans, live metrics, per-step timeline samples;
//! * `lens_probe` — every point-to-point send/recv stamped into the
//!   per-rank wire-probe ring (the whole per-message price of a
//!   `--wire-probe` run);
//! * `lens_faults_empty` — the fault-tolerant evaluation under `ChaosComm`
//!   with nothing scheduled (the wrapper plus checkpoint/agreement);
//! * `lens_checkpoint_every_1` / `_every_8` — the durable sink at its
//!   worst-case and amortized cadence (one leader gather plus one atomic
//!   file write per persisted step);
//! * `lens_health` — potential harvest, sentinel scans and one fingerprint
//!   allgather per attempt.
//!
//! Every execution carries the flight-recorder ring, `lens_off` included,
//! so there is no run without it to compare against: the ring is priced on
//! its own instead, as `flight_ring_mark_and_event` below.
//!
//! The second group prices the building blocks on their own: the ledger's
//! send path, the recorder hot paths, enabled and disabled, the health
//! scans on a rank-local slice, one bundle's serialization, and the
//! deadline arithmetic a fault-tolerant receive adds to a two-rank
//! ping-pong.

use std::time::{Duration, Instant};

use ca_nbody::recovery::RetryPolicy;
use ca_nbody::{CheckpointConfig, Method, Run, SimConfig};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use nbody_comm::{
    run_ranks, CommStats, Communicator, EventKind, FaultPlan, Phase, ProbeRecorder, RankWireLog,
    ThreadComm,
};
use nbody_durable::{CheckpointBundle, ColumnBlock};
use nbody_metrics::MetricsRecorder;
use nbody_physics::{init, Boundary, Domain, RepulsiveInverseSquare, SemiImplicitEuler};
use nbody_simhealth::{scan_forces, scan_state, state_fingerprint, HealthConfig};

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

fn sink(every: usize) -> CheckpointConfig {
    CheckpointConfig {
        dir: std::env::temp_dir().join(format!(
            "nbody-lens-bench-every{every}-{}",
            std::process::id()
        )),
        every,
        base_step: 0,
        fingerprint: "bench-fingerprint".to_string(),
        seed: 42,
    }
}

fn bench_lenses(c: &mut Criterion) {
    let cfg = cfg();
    let initial = init::uniform(N, &cfg.domain, 42);
    let (plan, policy) = (FaultPlan::empty(), RetryPolicy::default());
    let (every_step, every_8th) = (sink(1), sink(STEPS));
    let health = HealthConfig::enabled();
    let run = || Run::new(&cfg, Method::CaAllPairs { c: C }, P);
    let rows = [
        ("lens_off", run()),
        ("lens_trace", run().trace()),
        ("lens_probe", run().probe()),
        ("lens_faults_empty", run().faults(&plan, &policy)),
        ("lens_checkpoint_every_1", run().checkpoint(&every_step)),
        ("lens_checkpoint_every_8", run().checkpoint(&every_8th)),
        ("lens_health", run().health(&health)),
    ];
    for (name, run) in &rows {
        c.bench_function(name, |b| {
            b.iter(|| {
                let out = run.execute(&initial).result;
                black_box(out.expect("fault-free run").particles.len())
            })
        });
    }
    for ck in [&every_step, &every_8th] {
        let _ = std::fs::remove_dir_all(&ck.dir);
    }
}

fn bench_metrics(c: &mut Criterion) {
    // What every message costs on every run, lens or none: one send into
    // the rank's ledger, size bucket included. The `comm_*` metrics are read
    // off the ledger once per rank, so they add nothing per message.
    c.bench_function("ledger_send_path", |b| {
        let mut stats = CommStats::new();
        stats.set_phase(Phase::Shift);
        b.iter(|| stats.record_send(black_box(1), black_box(100), black_box(5200)));
        black_box(stats.total_messages());
    });
    c.bench_function("metrics_find_or_register", |b| {
        let rec = MetricsRecorder::for_rank(0);
        b.iter(|| {
            let h = rec.counter(black_box("comm_send_bytes"), Some(Phase::Reduce));
            h.add(1);
        })
    });
}

const RECORD_ROUNDS: u64 = 10_000;

fn bench_recorder_hot_paths(c: &mut Criterion) {
    // `step_mark` plus a recorded event per iteration on an enabled ring:
    // the worst case a traced run pays per timestep.
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
    // One stamped send+recv pair per round (clock read, ring push, eviction
    // check) against the no-op every unprobed run executes.
    fn stamp_rounds(probe: ProbeRecorder) -> Option<RankWireLog> {
        for i in 0..RECORD_ROUNDS {
            probe.send(1, 0, i, Phase::Shift, 16, 16 * 52);
            probe.recv(1, 0, i, Phase::Shift, 16, 16 * 52);
        }
        probe.finish()
    }
    c.bench_function("probe_ring_send_recv_stamp", |b| {
        b.iter(|| black_box(stamp_rounds(ProbeRecorder::for_rank(0, Instant::now()))))
    });
    c.bench_function("probe_disabled_send_recv_noop", |b| {
        b.iter(|| black_box(stamp_rounds(ProbeRecorder::disabled())))
    });
}

fn bench_health_blocks(c: &mut Criterion) {
    let particles = init::uniform(N, &Domain::unit(), 42);
    c.bench_function("state_fingerprint_128", |b| {
        b.iter(|| black_box(state_fingerprint(black_box(&particles))))
    });
    c.bench_function("sentinel_scan_128", |b| {
        b.iter(|| {
            let p = black_box(&particles);
            black_box((scan_forces(p), scan_state(p)))
        })
    });
}

fn bench_bundle_serialize(c: &mut Criterion) {
    let initial = init::uniform(N, &Domain::unit(), 42);
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

const PINGPONG_ROUNDS: usize = 2000;
const MSG_LEN: usize = 64;

/// A tight two-rank ping-pong; `recv` is the receive under test.
fn pingpong(recv: impl Fn(&ThreadComm, usize, u64) -> Vec<u64> + Sync) {
    run_ranks(2, |world| {
        let peer = 1 - world.rank();
        let data = vec![0u64; MSG_LEN];
        for i in 0..PINGPONG_ROUNDS {
            world.send(peer, i as u64, &data);
            black_box(recv(world, peer, i as u64));
        }
    });
}

fn bench_pingpong(c: &mut Criterion) {
    c.bench_function("pingpong_blocking_recv", |b| {
        b.iter(|| pingpong(|world, peer, tag| world.recv::<u64>(peer, tag)))
    });
    let timeout = Duration::from_secs(5);
    c.bench_function("pingpong_try_recv_timeout", |b| {
        b.iter(|| {
            pingpong(|world, peer, tag| {
                world
                    .try_recv_timeout::<u64>(peer, tag, timeout)
                    .expect("peer is alive")
            })
        })
    });
}

criterion_group!(
    benches,
    bench_lenses,
    bench_metrics,
    bench_recorder_hot_paths,
    bench_health_blocks,
    bench_bundle_serialize,
    bench_pingpong
);
criterion_main!(benches);
