//! Schedule ≡ execution: the op streams fed to the discrete-event simulator
//! must match what the executable algorithms actually do on the threaded
//! runtime — same per-phase message counts, same bytes (52 B/particle),
//! same collective counts, same total interactions. This is the link that
//! makes simulated figures trustworthy: the CA schedule here, and the
//! halo-exchange and midpoint baselines the ablation bars are simulated
//! from.

use ca_nbody::dist::{
    id_block_subset, spatial_subset_1d, spatial_subset_2d, team_grid_dims, team_of_xy,
};
use ca_nbody::midpoint::midpoint_forces;
use ca_nbody::schedule::{
    count_ops, AllPairsParams, CutoffParams, MidpointParams, OpCounts, SpatialHaloParams,
};
use ca_nbody::sim::{run_distributed, Layout, Method, SimConfig};
use ca_nbody::spatial::spatial_halo_forces;
use ca_nbody::{ca_all_pairs_forces, ca_cutoff_forces, GridComms, ProcGrid, TeamWindow, Window};
use nbody_comm::{run_ranks, CommStats, Communicator, Phase, ALL_PHASES};
use nbody_physics::particle::PARTICLE_WIRE_BYTES;
use nbody_physics::{
    init, Boundary, Counting, Cutoff, Domain, RepulsiveInverseSquare, SemiImplicitEuler,
};

/// Compare one rank's executed stats against its schedule's op counts for
/// the force phases (Broadcast, Skew, Shift, Reduce).
fn assert_counts_match(rank: usize, stats: &CommStats, sched: &OpCounts, label: &str) {
    for phase in [Phase::Broadcast, Phase::Skew, Phase::Shift, Phase::Reduce] {
        let got = stats.phase(phase);
        let idx = phase.index();
        assert_eq!(
            got.messages, sched.sends[idx],
            "{label}: rank {rank} phase {phase}: executed {} msgs, schedule {}",
            got.messages, sched.sends[idx]
        );
        assert_eq!(
            got.elements * PARTICLE_WIRE_BYTES as u64,
            sched.send_bytes[idx],
            "{label}: rank {rank} phase {phase}: bytes mismatch"
        );
        assert_eq!(
            got.collectives, sched.collectives[idx],
            "{label}: rank {rank} phase {phase}: collective count mismatch"
        );
    }
}

#[test]
fn all_pairs_schedule_matches_execution() {
    let domain = Domain::unit();
    // (6, 1, 25) is Plimpton's particle-decomposition ring and (9, 3, 21)
    // his force decomposition: §III's two ends of Algorithm 1.
    for (p, c, n) in [
        (4, 1, 16),
        (6, 1, 25),
        (4, 2, 16),
        (8, 2, 24),
        (16, 4, 33),
        (9, 3, 21),
    ] {
        let grid = ProcGrid::new_all_pairs(p, c).unwrap();
        let stats = run_ranks(p, |world| {
            let gc = GridComms::new(world, grid);
            let all = init::uniform(n, &domain, 31);
            let mut st = if gc.is_leader() {
                id_block_subset(&all, grid.teams(), gc.team())
            } else {
                Vec::new()
            };
            ca_all_pairs_forces(&gc, &mut st, &Counting, &domain, Boundary::Open);
            world.stats()
        });
        let params = AllPairsParams::new(p, c, n);
        for (rank, s) in stats.iter().enumerate() {
            let sched = count_ops(params.program(rank));
            assert_counts_match(rank, s, &sched, &format!("all-pairs p={p} c={c} n={n}"));
            // Independent of the traversal both sides walk: p/c² shifts.
            assert_eq!(s.phase(Phase::Shift).messages, (p / (c * c)) as u64);
        }
    }
}

/// Clipped windows, the paper's setting, and wrapping ones: `p = 4`, `c = 1`
/// with `W = 3` is the benchmark's shape, and `p = 12`, `c = 2` with `W = 5`
/// brings row 1 home on its last step.
#[test]
fn cutoff_1d_schedule_matches_execution() {
    let domain = Domain::unit();
    let n = 64;
    let (clipped, wrapping) = (Boundary::Open, Boundary::Periodic);
    for (p, c, r_c, boundary) in [
        (4, 1, 0.2, clipped),
        (8, 2, 0.2, clipped),
        (12, 3, 0.3, clipped),
        (16, 2, 0.15, clipped),
        (4, 1, 0.2, wrapping),
        (12, 2, 0.2, wrapping),
    ] {
        let grid = ProcGrid::new(p, c).unwrap();
        let wraps = boundary == wrapping;
        let window = TeamWindow::from_cutoff(&domain, (grid.teams(), 1), wraps, r_c);
        let law = Cutoff::new(Counting, r_c);
        let all = init::uniform_1d(n, &domain, 77);
        let block_sizes: Vec<usize> = (0..grid.teams())
            .map(|t| spatial_subset_1d(&all, &domain, grid.teams(), t).len())
            .collect();

        let all_ref = &all;
        let stats = run_ranks(p, |world| {
            let gc = GridComms::new(world, grid);
            let mut st = if gc.is_leader() {
                spatial_subset_1d(all_ref, &domain, grid.teams(), gc.team())
            } else {
                Vec::new()
            };
            ca_cutoff_forces(&gc, &window, &mut st, &law, &domain, boundary);
            world.stats()
        });
        let params = CutoffParams::new(grid, window, block_sizes);
        let label = format!("cutoff1d p={p} c={c} rc={r_c} {boundary:?}");
        for (rank, s) in stats.iter().enumerate() {
            let sched = count_ops(params.program(rank));
            assert_counts_match(rank, s, &sched, &label);
            // Independent of the traversal both sides walk: on a wrapping
            // window at c = 1 a rank shifts to every position but its own,
            // W − 1 = 2m messages.
            if wraps && c == 1 {
                let shifts = s.phase(Phase::Shift).messages;
                assert_eq!(shifts, window.len() as u64 - 1, "{label}: rank {rank}");
            }
        }
    }
}

#[test]
fn cutoff_2d_schedule_matches_execution() {
    let domain = Domain::unit();
    let n = 90;
    for (p, c, r_c) in [(4, 1, 0.3), (8, 2, 0.3), (18, 2, 0.25)] {
        let grid = ProcGrid::new(p, c).unwrap();
        let (tx, ty) = team_grid_dims(grid.teams());
        let window = TeamWindow::from_cutoff(&domain, (tx, ty), false, r_c);
        if ca_nbody::cutoff::validate_cutoff(&window, grid.teams(), c).is_err() {
            continue;
        }
        let law = Cutoff::new(Counting, r_c);
        let all = init::uniform(n, &domain, 13);
        let block_sizes: Vec<usize> = (0..grid.teams())
            .map(|t| spatial_subset_2d(&all, &domain, tx, ty, t).len())
            .collect();

        let all_ref = &all;
        let stats = run_ranks(p, |world| {
            let gc = GridComms::new(world, grid);
            let mut st = if gc.is_leader() {
                spatial_subset_2d(all_ref, &domain, tx, ty, gc.team())
            } else {
                Vec::new()
            };
            ca_cutoff_forces(&gc, &window, &mut st, &law, &domain, Boundary::Open);
            world.stats()
        });
        let params = CutoffParams::new(grid, window, block_sizes);
        for (rank, s) in stats.iter().enumerate() {
            let sched = count_ops(params.program(rank));
            assert_counts_match(rank, s, &sched, &format!("cutoff2d p={p} c={c} rc={r_c}"));
        }
    }
}

#[test]
fn schedules_simulate_without_deadlock() {
    // End-to-end: feed every schedule through the DES on both machine
    // models and check basic sanity of the reports.
    use nbody_netsim::{hopper, intrepid, simulate};
    for machine in [hopper(), intrepid()] {
        let params = AllPairsParams::new(16, 2, 128);
        let rep = simulate(&machine, 16, |r| params.program(r));
        assert!(rep.makespan > 0.0);
        assert!(rep.mean().compute > 0.0);
        assert!(rep.mean().phase(Phase::Shift) > 0.0);

        let grid = ProcGrid::new(16, 2).unwrap();
        let window = TeamWindow::clipped(&[8], &[2]);
        let hood = TeamWindow::neighbours((8, 1), false);
        let mut cp = CutoffParams::new(grid, window, vec![8; 8]);
        cp.reassign = Some(ca_nbody::schedule::ReassignModel { hood, bytes: 52 });
        let rep = simulate(&machine, 16, |r| cp.program(r));
        assert!(rep.makespan > 0.0);
        assert!(rep.mean().phase(Phase::Reassign) > 0.0, "{}", machine.name);
    }
}

#[test]
fn executed_phase_totals_cover_all_phases_sanely() {
    // No phantom phases: executions must not record anything under Reassign
    // during a pure force evaluation.
    let domain = Domain::unit();
    let grid = ProcGrid::new_all_pairs(8, 2).unwrap();
    let stats = run_ranks(8, |world| {
        let gc = GridComms::new(world, grid);
        let all = init::uniform(16, &domain, 1);
        let mut st = if gc.is_leader() {
            id_block_subset(&all, grid.teams(), gc.team())
        } else {
            Vec::new()
        };
        ca_all_pairs_forces(&gc, &mut st, &Counting, &domain, Boundary::Open);
        world.stats()
    });
    for s in &stats {
        assert_eq!(s.phase(Phase::Reassign).messages, 0);
        let total: u64 = ALL_PHASES.iter().map(|&p| s.phase(p).messages).sum();
        assert_eq!(total, s.total_messages());
    }
}

/// The baselines' twins against the baselines, per rank and per phase, on
/// the windows `Layout` cuts for them: `SpatialHaloParams` against
/// `spatial_halo_forces` (one block to each neighbour), `MidpointParams`
/// against `midpoint_forces` (the half-span import, then a force return to
/// each neighbour the import came from). Live messages equal the twin's
/// sends; live elements equal its bytes at 52 B per particle for halo and
/// import payloads. The force return's bytes are a modelled upper bound
/// (one record per imported particle), so only its count is held.
#[test]
fn baseline_schedules_match_execution() {
    let domain = Domain::unit();
    let r_c = 0.2;
    let law = Cutoff::new(Counting, r_c);
    let table = [
        (Method::SpatialHalo1d, 8),
        (Method::SpatialHalo2d, 16),
        (Method::Midpoint1d, 8),
        (Method::Midpoint2d, 16),
    ];
    for boundary in [Boundary::Reflective, Boundary::Periodic] {
        for (method, p) in table {
            let label = format!("{method:?} p={p} {boundary:?}");
            let layout = Layout::new(method, p, &domain, boundary, Some(r_c)).unwrap();
            let (window, (tx, ty)) = (layout.window, layout.cells.unwrap());
            let halo = matches!(method, Method::SpatialHalo1d | Method::SpatialHalo2d);
            let all = init::uniform(120, &domain, 21);
            let blocks: Vec<_> = (0..p)
                .map(|r| spatial_subset_2d(&all, &domain, tx, ty, r))
                .collect();
            let blocks = &blocks;
            let stats = run_ranks(p, |world| {
                let mut my = blocks[world.rank()].clone();
                if halo {
                    spatial_halo_forces(world, &window, &mut my, &law, &domain, boundary);
                } else {
                    let owner =
                        |pos: nbody_physics::Vec2| team_of_xy(&domain, tx, ty, pos.x, pos.y);
                    midpoint_forces(world, &window, &mut my, &law, &domain, boundary, owner);
                }
                world.stats()
            });
            let block_sizes: Vec<usize> = blocks.iter().map(Vec::len).collect();
            let twin: Vec<OpCounts> = if halo {
                let params = SpatialHaloParams {
                    window,
                    block_sizes,
                };
                (0..p).map(|r| count_ops(params.program(r))).collect()
            } else {
                let params = MidpointParams {
                    window,
                    block_sizes,
                };
                (0..p).map(|r| count_ops(params.program(r))).collect()
            };
            let mut sent = 0;
            for (rank, (s, sched)) in stats.iter().zip(&twin).enumerate() {
                for phase in ALL_PHASES {
                    let (live, i) = (s.phase(phase), phase.index());
                    let at = format!("{label}: rank {rank} {phase:?}");
                    assert_eq!(live.messages, sched.sends[i], "{at}: messages");
                    assert_eq!(live.collectives, sched.collectives[i], "{at}: collectives");
                    if phase != Phase::Reduce {
                        let bytes = live.elements * PARTICLE_WIRE_BYTES as u64;
                        assert_eq!(bytes, sched.send_bytes[i], "{at}: bytes");
                    }
                }
                sent += s.total_messages();
            }
            assert!(sent > 0, "{label}: the baseline talks");
        }
    }
}

/// Re-assignment on a 2-D team grid: after the force phase a leader trades
/// with each of its neighbours once a step — eight on a wrapping 3 × 3 grid;
/// three, five or eight on a clipped one — live as in the CA twin, and the
/// baselines' arm re-assigns through the same neighbourhood.
#[test]
fn reassign_epilogue_on_a_2d_grid_reaches_up_to_eight_neighbours() {
    let steps = 2;
    let table = [
        (Method::Ca2dCutoff { c: 1 }, 9),
        (Method::Ca2dCutoff { c: 2 }, 18),
        (Method::SpatialHalo2d, 9),
        (Method::Midpoint2d, 9),
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
            let hood = layout.neighbourhood().expect("spatial blocks re-assign");
            let teams = layout.grid.teams();
            let twin = method
                .is_ca()
                .then(|| layout.schedule(vec![initial.len() / teams; teams]));
            let mut per_leader = Vec::new();
            for (rank, stats) in live.stats.iter().enumerate() {
                let leader = layout.grid.row_of(rank) == 0;
                let team = layout.grid.team_of(rank);
                let neighbours = (1..hood.len()).filter_map(|j| hood.apply(team, j)).count();
                let per_step = if leader { neighbours as u64 } else { 0 };
                if let Some(twin) = &twin {
                    let sched = count_ops(twin.program(rank));
                    assert_eq!(
                        sched.sends[Phase::Reassign.index()],
                        per_step,
                        "{label}: rank {rank}"
                    );
                }
                let sent = stats.phase(Phase::Reassign).messages;
                assert_eq!(sent, steps as u64 * per_step, "{label}: rank {rank}");
                if leader {
                    per_leader.push(neighbours);
                }
            }
            per_leader.sort_unstable();
            per_leader.dedup();
            let want = match boundary {
                Boundary::Periodic => vec![8],
                _ => vec![3, 5, 8],
            };
            assert_eq!(per_leader, want, "{label}");
        }
    }
}
