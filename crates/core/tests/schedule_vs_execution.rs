//! Schedule ≡ execution: the op streams fed to the discrete-event simulator
//! must match what the executable algorithms actually do on the threaded
//! runtime — same per-phase message counts, same bytes (52 B/particle),
//! same collective counts, same total interactions. This is the link that
//! makes simulated figures trustworthy: the CA schedule here, and the
//! midpoint baseline the ablation bars are simulated from.

use ca_nbody::dist::{
    block_range, id_block_subset, spatial_subset, spatial_subset_1d, team_grid_dims, team_of_xy,
};
use ca_nbody::kernel::symmetric_cutoff;
use ca_nbody::midpoint::midpoint_forces;
use ca_nbody::schedule::{count_ops, AllPairsParams, CutoffParams, MidpointParams, OpCounts};
use ca_nbody::sim::{run_distributed, Layout, Method, SimConfig};
use ca_nbody::{ca_all_pairs_forces, ca_cutoff_forces, GridComms, ProcGrid, TeamWindow, Window};
use nbody_comm::{run_ranks, CommStats, Communicator, Phase, ALL_PHASES};
use nbody_physics::particle::PARTICLE_WIRE_BYTES;
use nbody_physics::{
    init, Boundary, Counting, Cutoff, Domain, ForceLaw, OneWay, RepulsiveInverseSquare,
    SemiImplicitEuler,
};

/// Compare one rank's executed stats against its schedule's op counts for
/// the force phases (Broadcast, Skew, Shift, Reduce). Where the run `cut`
/// the copies of its blocks to what their readers reach
/// (`cutoff::Regions`), the twin, which ships whole blocks, is a ceiling on
/// the Skew and Shift elements, one tally element a message over it.
fn assert_counts_match(rank: usize, stats: &CommStats, sched: &OpCounts, cut: bool, label: &str) {
    for phase in [Phase::Broadcast, Phase::Skew, Phase::Shift, Phase::Reduce] {
        let got = stats.phase(phase);
        let idx = phase.index();
        assert_eq!(
            got.messages, sched.sends[idx],
            "{label}: rank {rank} phase {phase}: executed {} msgs, schedule {}",
            got.messages, sched.sends[idx]
        );
        let bytes = got.elements * PARTICLE_WIRE_BYTES as u64;
        if cut && matches!(phase, Phase::Skew | Phase::Shift) {
            let ceiling = sched.send_bytes[idx] + got.messages * PARTICLE_WIRE_BYTES as u64;
            assert!(
                bytes <= ceiling,
                "{label}: rank {rank} phase {phase}: {bytes} B over {ceiling}"
            );
        } else {
            assert_eq!(
                bytes, sched.send_bytes[idx],
                "{label}: rank {rank} phase {phase}: bytes mismatch"
            );
        }
        assert_eq!(
            got.collectives, sched.collectives[idx],
            "{label}: rank {rank} phase {phase}: collective count mismatch"
        );
    }
}

#[test]
fn all_pairs_schedule_matches_execution() {
    let domain = Domain::unit();
    let law = RepulsiveInverseSquare::default();
    let cfg = SimConfig {
        law,
        integrator: SemiImplicitEuler,
        domain,
        boundary: Boundary::Open,
        dt: 0.01,
        steps: 1,
    };
    // (6, 1, 25) is Plimpton's particle-decomposition ring and (9, 3, 21)
    // his force decomposition: §III's two ends of Algorithm 1. His
    // half-ring is Algorithm 1 at c = 1 on the half of the ring.
    let ring = |c| Method::CaAllPairs { c };
    for (method, p, n) in [
        (ring(1), 4, 16),
        (ring(1), 6, 25),
        (ring(2), 4, 16),
        (ring(2), 8, 24),
        (ring(4), 16, 33),
        (ring(3), 9, 21),
        (Method::ParticleRingSymmetric, 8, 24),
    ] {
        let layout = Layout::new(method, p, &domain, Boundary::Open, None).unwrap();
        let (grid, c) = (layout.grid, layout.grid.c());
        let stats = run_distributed(&cfg, method, p, &init::uniform(n, &domain, 31)).stats;
        let sizes = (0..grid.teams()).map(|b| block_range(n, grid.teams(), b).len());
        let twin = layout.schedule(sizes.collect(), symmetric_cutoff(&law));
        let label = format!("{method:?} p={p} n={n}");
        for (rank, s) in stats.iter().enumerate() {
            let sched = count_ops(twin.program(rank));
            assert_counts_match(rank, s, &sched, false, &label);
            // Independent of the traversal both sides walk: p/c² shifts,
            // except on the rows k ≥ 1 of the force decomposition (c² = p),
            // whose one shift step stays on the block the skew brought. The
            // half ring shifts a block p/2 teams on, then returns it.
            let stays = c * c == p && grid.row_of(rank) > 0;
            let want = match method {
                Method::ParticleRingSymmetric => p / 2 + 1,
                _ if stays => 0,
                _ => p / (c * c),
            };
            let shifts = s.phase(Phase::Shift).messages;
            assert_eq!(shifts, want as u64, "{label}: rank {rank}");
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
            assert_counts_match(rank, s, &sched, true, &label);
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
            .map(|t| spatial_subset(&all, &domain, (tx, ty), Boundary::Open, t).len())
            .collect();

        let all_ref = &all;
        let stats = run_ranks(p, |world| {
            let gc = GridComms::new(world, grid);
            let mut st = if gc.is_leader() {
                spatial_subset(all_ref, &domain, (tx, ty), Boundary::Open, gc.team())
            } else {
                Vec::new()
            };
            ca_cutoff_forces(&gc, &window, &mut st, &law, &domain, Boundary::Open);
            world.stats()
        });
        let params = CutoffParams::new(grid, window, block_sizes);
        for (rank, s) in stats.iter().enumerate() {
            let sched = count_ops(params.program(rank));
            let label = format!("cutoff2d p={p} c={c} rc={r_c}");
            assert_counts_match(rank, s, &sched, true, &label);
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

/// The midpoint baseline's twin against the baseline, per rank and per
/// phase, on the windows `Layout` cuts for it: `MidpointParams` against
/// `midpoint_forces` (the half-span import, then a force return to each
/// neighbour the import came from). Live messages equal the twin's sends;
/// live elements equal its bytes at 52 B per particle for the import. The
/// force return's bytes are a modelled upper bound (one record per
/// imported particle), so only its count is held.
#[test]
fn baseline_schedules_match_execution() {
    let domain = Domain::unit();
    let r_c = 0.2;
    let law = Cutoff::new(Counting, r_c);
    for boundary in [Boundary::Reflective, Boundary::Periodic] {
        for (method, p) in [(Method::Midpoint1d, 8), (Method::Midpoint2d, 16)] {
            let label = format!("{method:?} p={p} {boundary:?}");
            let layout = Layout::new(method, p, &domain, boundary, Some(r_c)).unwrap();
            let (window, (tx, ty)) = (layout.window, layout.cells.unwrap());
            let all = init::uniform(120, &domain, 21);
            let blocks: Vec<_> = (0..p)
                .map(|r| spatial_subset(&all, &domain, (tx, ty), boundary, r))
                .collect();
            let blocks = &blocks;
            let stats = run_ranks(p, |world| {
                let mut my = blocks[world.rank()].clone();
                let owner = |pos: nbody_physics::Vec2| team_of_xy(&domain, tx, ty, pos.x, pos.y);
                midpoint_forces(world, &window, &mut my, &law, &domain, boundary, owner);
                world.stats()
            });
            let params = MidpointParams {
                window,
                block_sizes: blocks.iter().map(Vec::len).collect(),
            };
            let mut sent = 0;
            for (rank, s) in stats.iter().enumerate() {
                let sched = count_ops(params.program(rank));
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

/// §II.C's spatial decomposition is Algorithm 2 at `c = 1`: one step of
/// `n = 2048` on `p = 16` ranks at `r_c = 0.1` sends the messages the
/// deleted halo-exchange baseline sent, and like the halo each copy carries
/// only the sources its readers reach. Pinned: messages summed over ranks,
/// the busiest rank's messages and the elements moved, 1-D then 2-D. The
/// message counts are the halo's, measured before it was deleted; per rank
/// they differ on clipped windows only, where the shift pipeline forwards a
/// block through a neighbour (the 2-D corner rank sends 7 where the halo
/// sent 6). That is the paper's full window, under a law without the
/// promise of `f_ji = −f_ij`; under the law itself the half window moves
/// fewer elements in fewer messages, and fewer on its busiest rank.
#[test]
fn algorithm_2_at_c_1_moves_what_the_halo_exchange_moved() {
    let table = [
        (
            Boundary::Reflective,
            [[88, 6, 7446], [168, 16, 7711]],
            [[74, 5, 5637], [144, 13, 4395]],
        ),
        (
            Boundary::Periodic,
            [[96, 6, 8256], [256, 16, 15920]],
            [[80, 5, 6176], [208, 13, 6764]],
        ),
    ];
    let law = Cutoff::new(
        RepulsiveInverseSquare {
            strength: 1e-3,
            softening: 1e-3,
        },
        0.1,
    );
    for (boundary, halo, half) in table {
        let initial = init::uniform(2048, &Domain::unit(), 7);
        let methods = [Method::Ca1dCutoff { c: 1 }, Method::Ca2dCutoff { c: 1 }];
        for (i, method) in methods.into_iter().enumerate() {
            let full = moved(OneWay(law), boundary, method, &initial);
            assert_eq!(full, halo[i], "{method:?} {boundary:?}");
            let got = moved(law, boundary, method, &initial);
            assert_eq!(got, half[i], "{method:?} {boundary:?}: half window");
        }
    }
}

/// One step of `method` on 16 ranks under `law`: messages summed over
/// ranks, the busiest rank's, and the elements moved.
fn moved<F: ForceLaw>(
    law: F,
    boundary: Boundary,
    method: Method,
    initial: &[nbody_physics::Particle],
) -> [u64; 3] {
    let cfg = SimConfig {
        law,
        integrator: SemiImplicitEuler,
        domain: Domain::unit(),
        boundary,
        dt: 0.01,
        steps: 1,
    };
    let stats = run_distributed(&cfg, method, 16, initial).stats;
    let messages = stats.iter().map(CommStats::total_messages);
    [
        messages.clone().sum(),
        messages.max().unwrap(),
        stats.iter().map(CommStats::total_elements).sum(),
    ]
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
            let twin = method.is_ca().then(|| {
                layout.schedule(
                    vec![initial.len() / teams; teams],
                    symmetric_cutoff(&cfg.law),
                )
            });
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
