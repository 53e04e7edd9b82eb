//! Live metrics ≡ simulated schedule: the counters the instrumented
//! communicators record during a real threaded execution must agree
//! *exactly* — per rank, per phase — with the sends, bytes and collectives
//! of the schedule the discrete-event simulator replays for the same
//! algorithm, and channel by channel — per destination — the sends of the
//! ledger equal the twin's. This closes the loop between measured and
//! simulated communication: the optimality audit and the conformance check
//! can trust either source.

use std::collections::BTreeMap;

use ca_nbody::dist::{id_block_subset, spatial_subset_1d};
use ca_nbody::kernel::symmetric_cutoff;
use ca_nbody::schedule::{count_ops, AllPairsParams, CutoffParams, OpCounts};
use ca_nbody::sim::{run_distributed, Layout, Method, SimConfig};
use ca_nbody::{ca_all_pairs_forces, ca_cutoff_forces, GridComms, ProcGrid, TeamWindow};
use nbody_comm::{run_ranks_with, CommStats, Communicator, Lenses, MetricsSnapshot, Phase};
use nbody_netsim::{hopper, simulate, Op};
use nbody_physics::particle::PARTICLE_WIRE_BYTES;
use nbody_physics::{
    init, Boundary, Counting, Cutoff, Domain, RepulsiveInverseSquare, SemiImplicitEuler, Source,
    Vec2,
};

const TRACED: Lenses = Lenses {
    trace: true,
    probe: false,
};

/// Force phases both sides attribute traffic to.
const PHASES: [Phase; 4] = [Phase::Broadcast, Phase::Skew, Phase::Shift, Phase::Reduce];

/// Bytes of the element a force phase of the plain drivers carries: sources
/// out, forces back.
fn element_bytes(phase: Phase) -> u64 {
    let bytes = match phase {
        Phase::Reduce => std::mem::size_of::<Vec2>(),
        _ => std::mem::size_of::<Source>(),
    };
    bytes as u64
}

/// Each rank's op counts of the schedule `programs` emits, after the DES
/// has replayed that schedule to the end on all `p` ranks.
fn replayed<I: Iterator<Item = Op>>(
    p: usize,
    programs: impl Fn(usize) -> I,
    label: &str,
) -> Vec<OpCounts> {
    let rep = simulate(&hopper(), p, &programs);
    assert_eq!(rep.per_rank.len(), p, "{label}: the DES replays every rank");
    (0..p).map(|r| count_ops(programs(r))).collect()
}

/// Assert exact per-rank per-phase agreement between a live execution's
/// counters and the simulated schedule's ops.
fn assert_exact_agreement(
    p: usize,
    stats: &[CommStats],
    metrics: &MetricsSnapshot,
    sim: &[OpCounts],
    label: &str,
) {
    assert_eq!(sim.len(), p, "{label}");
    assert_eq!(metrics.ranks.len(), p, "{label}");
    for (rank, rm) in metrics.ranks.iter().enumerate() {
        for phase in PHASES {
            let i = phase.index();
            let (des_sends, des_bytes, des_colls) = (
                sim[rank].sends[i],
                sim[rank].send_bytes[i],
                sim[rank].collectives[i],
            );
            let live_msgs = rm.counter("comm_send_messages", Some(phase));
            let live_elems = rm.counter("comm_send_elements", Some(phase));
            let live_bytes = rm.counter("comm_send_bytes", Some(phase));
            assert_eq!(
                live_msgs, des_sends,
                "{label}: rank {rank} {phase:?}: live messages vs simulated sends"
            );
            // The DES accounts bandwidth at the paper's 52-byte record; the
            // live counters record the phase's own element. Both must
            // derive from the same element count.
            assert_eq!(
                live_elems * PARTICLE_WIRE_BYTES as u64,
                des_bytes,
                "{label}: rank {rank} {phase:?}: wire bytes"
            );
            assert_eq!(
                live_bytes,
                live_elems * element_bytes(phase),
                "{label}: rank {rank} {phase:?}: live bytes"
            );
            assert_eq!(
                rm.counter("comm_collective_bytes", Some(phase)),
                rm.counter("comm_collective_elements", Some(phase)) * element_bytes(phase),
                "{label}: rank {rank} {phase:?}: live collective bytes"
            );
            assert_eq!(
                stats[rank].phase(phase).collectives,
                des_colls,
                "{label}: rank {rank} {phase:?}: collective ops"
            );
            // Every message on the wire — point-to-point or a collective
            // tree constituent — lands in the size histogram exactly once.
            let tree_msgs = rm.counter("comm_collective_messages", Some(phase));
            let hist_count = rm
                .histogram("comm_message_size_bytes", Some(phase))
                .map_or(0, |h| h.count());
            assert_eq!(
                hist_count,
                live_msgs + tree_msgs,
                "{label}: rank {rank} {phase:?}: histogram observations"
            );
        }
    }
}

/// Assert that every rank's ledger sent, on each channel `(phase, peer)`,
/// `times` the messages of its twin program's `Op::Send { to, .. }` to
/// that peer — and the elements too, when `sized` (the twin ran on the
/// live block sizes).
fn assert_channels_agree<I: Iterator<Item = Op>>(
    stats: &[CommStats],
    programs: impl Fn(usize) -> I,
    times: u64,
    sized: bool,
    label: &str,
) {
    for (rank, s) in stats.iter().enumerate() {
        let mut twin: BTreeMap<(Phase, u32), (u64, u64)> = BTreeMap::new();
        for op in programs(rank) {
            if let Op::Send { to, bytes, phase } = op {
                let sends = twin.entry((phase, to as u32)).or_default();
                sends.0 += times;
                sends.1 += times * bytes / PARTICLE_WIRE_BYTES as u64;
            }
        }
        let live: BTreeMap<(Phase, u32), (u64, u64)> = s
            .channels()
            .iter()
            .map(|c| ((c.phase, c.peer), (c.messages, c.elements)))
            .collect();
        let keep = |m: BTreeMap<_, (u64, u64)>| -> BTreeMap<_, _> {
            m.into_iter()
                .map(|(k, (msgs, elems))| (k, (msgs, if sized { elems } else { 0 })))
                .collect()
        };
        assert_eq!(keep(live), keep(twin), "{label}: rank {rank}: channels");
    }
}

#[test]
fn all_pairs_live_counters_agree_exactly_with_simulated_trace() {
    let domain = Domain::unit();
    for (p, c, n) in [(4, 1, 16), (8, 2, 24), (16, 4, 33), (9, 3, 21)] {
        let grid = ProcGrid::new_all_pairs(p, c).unwrap();
        let (stats, artifacts) = run_ranks_with(p, TRACED, |world| {
            let gc = GridComms::new(world, grid);
            let all = init::uniform(n, &domain, 5);
            let mut st = if gc.is_leader() {
                id_block_subset(&all, grid.teams(), gc.team())
            } else {
                Vec::new()
            };
            ca_all_pairs_forces(&gc, &mut st, &Counting, &domain, Boundary::Open);
            world.stats()
        });
        let params = AllPairsParams::new(p, c, n);
        let label = format!("all-pairs p={p} c={c} n={n}");
        let sim = replayed(p, |r| params.program(r), &label);
        assert_exact_agreement(p, &stats, &artifacts.metrics, &sim, &label);
        assert_channels_agree(&stats, |r| params.program(r), 1, true, &label);
    }
}

#[test]
fn cutoff_1d_live_counters_agree_exactly_with_simulated_trace() {
    let domain = Domain::unit();
    let n = 64;
    for (p, c, r_c) in [(4, 1, 0.2), (8, 2, 0.2), (12, 3, 0.3), (16, 2, 0.15)] {
        let grid = ProcGrid::new(p, c).unwrap();
        let window = TeamWindow::from_cutoff(&domain, (grid.teams(), 1), false, r_c);
        let law = Cutoff::new(Counting, r_c);
        let all = init::uniform_1d(n, &domain, 77);
        let block_sizes: Vec<usize> = (0..grid.teams())
            .map(|t| spatial_subset_1d(&all, &domain, grid.teams(), t).len())
            .collect();

        let all_ref = &all;
        let (stats, artifacts) = run_ranks_with(p, TRACED, |world| {
            let gc = GridComms::new(world, grid);
            let mut st = if gc.is_leader() {
                spatial_subset_1d(all_ref, &domain, grid.teams(), gc.team())
            } else {
                Vec::new()
            };
            ca_cutoff_forces(&gc, &window, &mut st, &law, &domain, Boundary::Open);
            world.stats()
        });
        let params = CutoffParams::new(grid, window, block_sizes);
        let label = format!("cutoff1d p={p} c={c} rc={r_c}");
        let sim = replayed(p, |r| params.program(r), &label);
        assert_exact_agreement(p, &stats, &artifacts.metrics, &sim, &label);
        assert_channels_agree(&stats, |r| params.program(r), 1, true, &label);
    }
}

/// The run path's re-assignment and the twin's: `Layout::schedule` attaches
/// the neighbourhood the rank loop exchanges within, so each rank sends as
/// many `Reassign` messages per step live as the DES replays — on clipped
/// slabs, on a ring of slabs and on the 2-D grid, replicated or not.
#[test]
fn reassign_live_sends_equal_the_twins_per_rank() {
    let steps = 3;
    let table = [
        (Method::Ca1dCutoff { c: 1 }, 6),
        (Method::Ca1dCutoff { c: 2 }, 12),
        (Method::Ca2dCutoff { c: 1 }, 9),
        (Method::Ca2dCutoff { c: 2 }, 18),
    ];
    for boundary in [Boundary::Reflective, Boundary::Periodic] {
        for (method, p) in table {
            let label = format!("{method:?} p={p} {boundary:?}");
            let cfg = SimConfig {
                law: Cutoff::new(RepulsiveInverseSquare::default(), 0.15),
                integrator: SemiImplicitEuler,
                domain: Domain::unit(),
                boundary,
                dt: 0.01,
                steps,
            };
            let initial = init::uniform(90, &cfg.domain, 11);
            let live = run_distributed(&cfg, method, p, &initial);

            let layout = Layout::new(method, p, &cfg.domain, boundary, Some(0.15)).unwrap();
            let teams = layout.grid.teams();
            let params = layout.schedule(
                vec![initial.len() / teams; teams],
                symmetric_cutoff(&cfg.law),
            );
            let sim = replayed(p, |r| params.program(r), &label);
            // The twin's blocks are placeholders: re-assignment moves the
            // live ones, so only the messages are held to it.
            let times = steps as u64;
            assert_channels_agree(&live.stats, |r| params.program(r), times, false, &label);
            let mut total = 0;
            for (rank, stats) in live.stats.iter().enumerate() {
                let twin = sim[rank].sends[Phase::Reassign.index()];
                let sent = stats.phase(Phase::Reassign).messages;
                assert_eq!(sent, steps as u64 * twin, "{label}: rank {rank}");
                total += twin;
            }
            assert!(total > 0, "{label}: the twin re-assigns");
        }
    }
}
