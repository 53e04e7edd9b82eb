//! Direct microbenchmarks: timed calls of one layer's public functions on
//! the workload's block shape, from the harness thread (kernel, spawn) or
//! from plain `run_ranks` rank bodies (communicator primitives).

use std::hint::black_box;
use std::mem::size_of;
use std::time::Instant;

use ca_nbody::dist::{id_block_subset, spatial_subset_1d};
use ca_nbody::kernel::accumulate_block;
use ca_nbody::{GridComms, ProcGrid};
use nbody_comm::{run_ranks, Communicator};
use nbody_physics::particle::reset_forces;
use nbody_physics::{ForceLaw, Particle, Vec2};

use crate::endtoend::Budget;
use crate::stats::{summarize, Summary};
use crate::workload::Workload;

/// Fewest samples of any direct timing.
pub const MIN_SAMPLES: usize = 21;
/// Samples of each communicator primitive and of the spawn.
const COMM_SAMPLES: usize = 41;
/// Interactions one kernel sample should cover, so a sample of the small
/// blocks is long against the clock's resolution.
const KERNEL_SAMPLE_INTERACTIONS: u64 = 2_000_000;

/// The direct kernel timing.
#[derive(Debug, Clone, Copy)]
pub struct KernelDirect {
    /// ns per force evaluation, one sample per batch of calls.
    pub ns_per_interaction: Summary,
    /// Force evaluations of one `accumulate_block` call.
    pub interactions_per_call: u64,
    /// Bytes one call streams, computed from the block sizes by the
    /// program's own convention: targets read and written, sources read.
    pub bytes_per_call_computed: u64,
}

/// Team `b`'s block of the workload's initial distribution.
fn block_of(w: &Workload, initial: &[Particle], b: usize) -> Vec<Particle> {
    if w.is_all_pairs() {
        id_block_subset(initial, w.teams(), b)
    } else {
        spatial_subset_1d(initial, &w.domain, w.teams(), b)
    }
}

/// Time `kernel::accumulate_block` on the workload's block shape (team 0's
/// block as targets, team 1's as sources, as a shift step delivers them)
/// and law, on this thread, within `budget` (one repetition = one sample).
pub fn kernel_direct<F: ForceLaw>(
    w: &Workload,
    law: &F,
    initial: &[Particle],
    budget: Budget,
) -> KernelDirect {
    let mut targets = block_of(w, initial, 0);
    let sources = block_of(w, initial, 1);
    let pairs = (targets.len() * sources.len()) as u64;
    let calls = KERNEL_SAMPLE_INTERACTIONS.div_ceil(pairs.max(1));
    let mut samples = Vec::new();
    let mut interactions_per_call = 0;
    let started = Instant::now();
    while samples.len() < MIN_SAMPLES || budget.wants_more(samples.len(), started) {
        reset_forces(&mut targets);
        let t0 = Instant::now();
        let mut done = 0;
        for _ in 0..calls {
            done += accumulate_block(
                black_box(&mut targets),
                black_box(&sources),
                law,
                &w.domain,
                w.boundary,
            );
        }
        let ns = t0.elapsed().as_nanos() as f64;
        black_box(&targets);
        interactions_per_call = done / calls;
        samples.push(ns / done as f64);
    }
    KernelDirect {
        ns_per_interaction: summarize(&samples),
        interactions_per_call,
        bytes_per_call_computed: ((2 * targets.len() + sources.len()) * size_of::<Particle>())
            as u64,
    }
}

/// The direct communicator timings, ns per call.
#[derive(Debug, Clone, Copy)]
pub struct CommDirect {
    /// One ring `sendrecv` of a block along the row (`p/c` ranks).
    pub sendrecv_ns: Summary,
    /// One `bcast` of a block down a column (`c` ranks; the size-1 no-op
    /// the driver still calls when `c = 1`).
    pub bcast_ns: Summary,
    /// One `reduce` of a block up a column.
    pub reduce_ns: Summary,
    /// Payload bytes of one block.
    pub block_bytes: u64,
}

fn add_force(acc: &mut Particle, x: &Particle) {
    acc.force += x.force;
}

/// Loop each primitive at the workload's block size on `run_ranks(p, …)`.
/// Every rank times its own loop; a sample is the slowest rank's time per
/// call, since a collective is done when its last member is.
pub fn comm_direct(w: &Workload) -> CommDirect {
    let block = w.block();
    let block_bytes = (block * size_of::<Particle>()) as u64;
    // About 4 MB through the transport per sample, at least 4 calls.
    let iters = (4_000_000 / (block_bytes + 4096)).max(4) as usize;
    let grid = ProcGrid::new(w.p, w.c()).expect("workload grid is valid");
    let per_rank: Vec<[Vec<f64>; 3]> = run_ranks(w.p, |world| {
        let gc = GridComms::new(&*world, grid);
        let payload = vec![Particle::at(0, Vec2::zero()); block];
        let (teams, me) = (gc.row.size(), gc.row.rank());
        let (dst, src) = ((me + 1) % teams, (me + teams - 1) % teams);
        let sample = |body: &mut dyn FnMut(u64)| -> Vec<f64> {
            (0..COMM_SAMPLES)
                .map(|_| {
                    world.barrier();
                    let t0 = Instant::now();
                    for i in 0..iters as u64 {
                        body(i);
                    }
                    t0.elapsed().as_nanos() as f64 / iters as f64
                })
                .collect()
        };
        let sendrecv = sample(&mut |i| {
            black_box(gc.row.sendrecv(dst, src, 0x7000 + i, &payload));
        });
        let mut buf = if gc.is_leader() {
            payload.clone()
        } else {
            Vec::new()
        };
        let bcast = sample(&mut |_| gc.col.bcast(0, &mut buf));
        let mut buf = payload.clone();
        let reduce = sample(&mut |_| gc.col.reduce(0, &mut buf, add_force));
        black_box(&buf);
        [sendrecv, bcast, reduce]
    });
    let slowest = |k: usize| -> Summary {
        let samples: Vec<f64> = (0..COMM_SAMPLES)
            .map(|i| per_rank.iter().map(|r| r[k][i]).fold(0.0, f64::max))
            .collect();
        summarize(&samples)
    };
    CommDirect {
        sendrecv_ns: slowest(0),
        bcast_ns: slowest(1),
        reduce_ns: slowest(2),
        block_bytes,
    }
}

/// Seconds to spawn and join `p` idle ranks: `run_ranks(p, |_| ())`.
pub fn spawn_direct(p: usize) -> Summary {
    let samples: Vec<f64> = (0..COMM_SAMPLES)
        .map(|_| {
            let t0 = Instant::now();
            black_box(run_ranks(p, |_| ()));
            t0.elapsed().as_secs_f64()
        })
        .collect();
    summarize(&samples)
}
