//! Property-based integration tests: randomized configurations of the
//! distributed algorithms must always agree with the serial reference
//! (pair coverage is exact under the Counting law regardless of reduction
//! order), the schedule generators must always conserve the global
//! interaction count, and the parsers of what a run records must return
//! on any cut or flipped byte of it, never panic.

use ca_nbody::dist::{id_block_subset, spatial_subset_1d};
use ca_nbody::schedule::{count_ops, AllPairsParams, CutoffParams};
use ca_nbody::{ca_all_pairs_forces, ca_cutoff_forces, GridComms, ProcGrid, TeamWindow, Window};
use nbody_comm::run_ranks;
use nbody_physics::{init, Boundary, Counting, Cutoff, Domain, Particle};
use proptest::prelude::*;

/// Valid (p, c) pairs for the all-pairs grid, kept small enough that each
/// proptest case spawns at most 18 threads.
fn all_pairs_grid() -> impl Strategy<Value = (usize, usize)> {
    prop_oneof![
        Just((1usize, 1usize)),
        Just((2, 1)),
        Just((4, 1)),
        Just((4, 2)),
        Just((8, 2)),
        Just((9, 3)),
        Just((12, 2)),
        Just((16, 2)),
        Just((16, 4)),
        Just((18, 3)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn ca_all_pairs_counts_every_pair((p, c) in all_pairs_grid(),
                                      n in 1usize..40,
                                      seed in 0u64..1000) {
        let domain = Domain::unit();
        let grid = ProcGrid::new_all_pairs(p, c).unwrap();
        let out = run_ranks(p, |world| {
            let gc = GridComms::new(world, grid);
            let all = init::uniform(n, &domain, seed);
            let mut st = if gc.is_leader() {
                id_block_subset(&all, grid.teams(), gc.team())
            } else {
                Vec::new()
            };
            ca_all_pairs_forces(&gc, &mut st, &Counting, &domain, Boundary::Open);
            if gc.is_leader() { st } else { Vec::new() }
        });
        let flat: Vec<Particle> = out.into_iter().flatten().collect();
        prop_assert_eq!(flat.len(), n);
        for q in &flat {
            prop_assert_eq!(q.force.x, (n - 1) as f64);
        }
    }

    #[test]
    fn ca_cutoff_counts_exact_neighbors(pc in prop_oneof![
                                            Just((4usize, 1usize)),
                                            Just((8, 2)),
                                            Just((12, 2)),
                                            Just((16, 2)),
                                        ],
                                        n in 2usize..50,
                                        rc_percent in 5u32..60,
                                        seed in 0u64..1000) {
        let (p, c) = pc;
        let domain = Domain::unit();
        let r_c = rc_percent as f64 / 100.0;
        let grid = ProcGrid::new(p, c).unwrap();
        let window = TeamWindow::from_cutoff(&domain, (grid.teams(), 1), false, r_c);
        prop_assume!(ca_nbody::cutoff::validate_cutoff(&window, grid.teams(), c).is_ok());
        let law = Cutoff::new(Counting, r_c);

        let all = init::uniform_1d(n, &domain, seed);
        let all_ref = &all;
        let out = run_ranks(p, |world| {
            let gc = GridComms::new(world, grid);
            let mut st = if gc.is_leader() {
                spatial_subset_1d(all_ref, &domain, grid.teams(), gc.team())
            } else {
                Vec::new()
            };
            ca_cutoff_forces(&gc, &window, &mut st, &law, &domain, Boundary::Open);
            if gc.is_leader() { st } else { Vec::new() }
        });
        let mut flat: Vec<Particle> = out.into_iter().flatten().collect();
        flat.sort_by_key(|q| q.id);
        prop_assert_eq!(flat.len(), n);
        // Exact neighbor counts from first principles.
        for q in &flat {
            let expected = all
                .iter()
                .filter(|o| o.id != q.id && (o.pos.x - q.pos.x).abs() <= r_c)
                .count();
            prop_assert_eq!(q.force.x as usize, expected, "id={}", q.id);
        }
    }

    #[test]
    fn all_pairs_schedule_conserves_interactions((p, c) in all_pairs_grid(),
                                                 n in 1usize..300) {
        let params = AllPairsParams::new(p, c, n);
        let total: u64 = (0..p).map(|r| count_ops(params.program(r)).interactions).sum();
        prop_assert_eq!(total, (n as u64) * (n as u64 - 1));
    }

    #[test]
    fn cutoff_schedule_counts_each_window_pair_once(teams in 1usize..12,
                                                    c in 1usize..5,
                                                    m in 0usize..6,
                                                    sizes_seed in 0u64..100) {
        let p = teams * c;
        let grid = ProcGrid::new(p, c).unwrap();
        let window = TeamWindow::clipped(&[teams], &[m]);
        prop_assume!(c <= window.len());
        // Irregular block sizes.
        let sizes: Vec<usize> = (0..teams)
            .map(|t| ((sizes_seed + t as u64 * 7) % 9) as usize)
            .collect();
        let params = CutoffParams::new(grid, window, sizes.clone());
        let total: u64 = (0..p).map(|r| count_ops(params.program(r)).interactions).sum();
        let m_eff = window.len() / 2;
        let mut want = 0u64;
        for t in 0..teams {
            for b in 0..teams {
                if (t as i64 - b as i64).unsigned_abs() as usize <= m_eff {
                    let cross = (sizes[t] * sizes[b]) as u64;
                    want += if t == b { cross - sizes[t] as u64 } else { cross };
                }
            }
        }
        prop_assert_eq!(total, want);
    }

    #[test]
    fn window_traversal_covers_offsets_exactly_once(teams in 1usize..15,
                                                    m in 0usize..7,
                                                    c in 1usize..6) {
        let window = TeamWindow::clipped(&[teams], &[m]);
        prop_assume!(c <= window.len());
        let w = window.len();
        // Union over rows of first-wrap positions must cover 0..w once.
        let mut seen = vec![0usize; w];
        for k in 0..c {
            let steps = ca_nbody::cutoff::row_steps(w, c, k);
            for s in 1..=steps {
                if k + s * c < w + c {
                    seen[(k + s * c) % w] += 1;
                }
            }
        }
        prop_assert!(seen.iter().all(|&x| x == 1), "coverage {:?}", seen);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn window2d_covers_exactly_the_chebyshev_ball(
        tx in 1usize..8,
        ty in 1usize..8,
        mx in 0usize..4,
        my in 0usize..4,
    ) {
        let w = TeamWindow::clipped(&[tx, ty], &[mx, my]);
        let [mx, my, _] = w.spans();
        for t in 0..w.teams() {
            let (cx, cy) = (t % tx, t / tx);
            let mut hits = std::collections::HashSet::new();
            for j in 0..w.len() {
                if let Some(u) = w.apply_back(t, j) {
                    prop_assert!(hits.insert(u), "duplicate neighbor {u} for team {t}");
                }
            }
            for b in 0..w.teams() {
                let (bx, by) = (b % tx, b / tx);
                let inside = cx.abs_diff(bx) <= mx && cy.abs_diff(by) <= my;
                prop_assert_eq!(hits.contains(&b), inside, "t={} b={}", t, b);
            }
        }
    }

    #[test]
    fn window3d_neighbor_sets_are_consistent(
        dims in (1usize..5, 1usize..5, 1usize..5),
        spans in (0usize..3, 0usize..3, 0usize..3),
    ) {
        let w = TeamWindow::clipped(&[dims.0, dims.1, dims.2], &[spans.0, spans.1, spans.2]);
        for t in 0..w.teams() {
            for j in 0..w.len() {
                // apply and apply_back are mutually inverse where defined.
                if let Some(u) = w.apply(t, j) {
                    prop_assert_eq!(w.apply_back(u, j), Some(t));
                }
                if let Some(u) = w.apply_back(t, j) {
                    prop_assert_eq!(w.apply(u, j), Some(t));
                }
            }
            prop_assert_eq!(w.apply(t, 0), Some(t), "position 0 is self");
        }
    }

    /// Fig. 5's recipe, checkable: a k-D window is k 1-D windows, positions
    /// and teams both split x-fastest and mapped back row-major. With a
    /// unit last axis that makes the 3-axis window the 2-D one, position by
    /// position — the run path's 1-D and 2-D windows are this code.
    #[test]
    fn k_axis_window_is_k_one_axis_windows_mapped_back(
        dims in (1usize..5, 1usize..5, 1usize..4),
        spans in (0usize..4, 0usize..4, 0usize..3),
        wraps in any::<bool>(),
    ) {
        let (dims, spans) = ([dims.0, dims.1, dims.2], [spans.0, spans.1, spans.2]);
        let build = |d: &[usize], m: &[usize]| {
            if wraps { TeamWindow::wrapping(d, m) } else { TeamWindow::clipped(d, m) }
        };
        let w = build(&dims, &spans);
        prop_assert_eq!(w.is_periodic(), wraps);
        let axes = [0, 1, 2].map(|i| build(&dims[i..=i], &spans[i..=i]));
        let widths = axes.map(|a| a.len());
        prop_assert_eq!(w.len(), widths.iter().product::<usize>());
        prop_assert_eq!(w.teams(), dims.iter().product::<usize>());
        let split = |i: usize, by: [usize; 3]| [i % by[0], (i / by[0]) % by[1], i / (by[0] * by[1])];
        let recombine = |moved: [Option<usize>; 3]| match moved {
            [Some(x), Some(y), Some(z)] => Some((z * dims[1] + y) * dims[0] + x),
            _ => None,
        };
        for t in 0..w.teams() {
            let at = split(t, dims);
            for j in 0..w.len() {
                let js = split(j, widths);
                let forth = [0, 1, 2].map(|i| axes[i].apply(at[i], js[i]));
                let back = [0, 1, 2].map(|i| axes[i].apply_back(at[i], js[i]));
                prop_assert_eq!(w.apply(t, j), recombine(forth), "t={} j={}", t, j);
                prop_assert_eq!(w.apply_back(t, j), recombine(back), "t={} j={}", t, j);
            }
        }
        prop_assert_eq!(build(&[dims[0], dims[1], 1], &spans), build(&dims[..2], &spans[..2]));
        prop_assert_eq!(build(&[dims[0], 1, 1], &spans), build(&dims[..1], &spans[..1]));
    }

    /// The routing rule of Algorithms 1 and 2 as data, no thread spawned:
    /// across the rows of a team every window position is updated exactly
    /// once, in every step of every row what is sent is what is received,
    /// block for block, and row `k` takes `row_steps` hops after its skew.
    /// A row updates its own block from the copy it holds: no send carries
    /// a block to its own team. At `c = W` a row `k ≥ 1` stays on the block
    /// its skew brought. So a row's shifts are its updates less the update
    /// of its own block and less its stays, and no hop sends to its own
    /// team. Algorithm 1's full ring is the exception `traversal` names: it
    /// still ships every block home once, to the rank itself at `c = W`.
    #[test]
    fn traversal_updates_each_position_once_and_meets_every_send_with_one_receive(
        dims in (1usize..6, 1usize..4, 1usize..3),
        spans in (0usize..4, 0usize..3, 0usize..2),
        kind in 0usize..3,
        c in 1usize..5,
    ) {
        use ca_nbody::cutoff::{row_steps, traversal, Hop};
        let (dims, spans) = ([dims.0, dims.1, dims.2], [spans.0, spans.1, spans.2]);
        let window = match kind {
            0 => TeamWindow::clipped(&dims, &spans),
            1 => TeamWindow::wrapping(&dims, &spans),
            _ => TeamWindow::ring(dims[0] * dims[1]),
        };
        prop_assume!(c <= window.len());
        let (teams, w) = (window.teams(), window.len());
        let hops = |t: usize, k: usize| traversal(window, c, t, k).collect::<Vec<Hop>>();
        for t in 0..teams {
            let mut updated = Vec::new();
            for k in 0..c {
                let row = hops(t, k);
                prop_assert_eq!(row.len(), 1 + row_steps(w, c, k), "t={} k={}", t, k);
                prop_assert!(!row[0].update, "the skew updates nothing");
                updated.extend(row.iter().filter(|h| h.update).map(|h| h.block.unwrap()));
            }
            let mut in_window: Vec<usize> = (0..w).filter_map(|j| window.apply_back(t, j)).collect();
            updated.sort_unstable();
            in_window.sort_unstable();
            prop_assert_eq!(updated, in_window, "t={}", t);
        }
        let ring = window.is_periodic() && w == teams;
        let (mut sent_home, mut sent_to_self) = (0, 0);
        for k in 0..c {
            let rows: Vec<Vec<Hop>> = (0..teams).map(|t| hops(t, k)).collect();
            let mut shifts = 0;
            for s in 0..=row_steps(w, c, k) {
                // (from, to, block): a receiver posts one receive a step, so
                // equal multisets mean one message for it and none astray.
                let (mut sent, mut received) = (Vec::new(), Vec::new());
                for (t, row) in rows.iter().enumerate() {
                    let hop = row[s];
                    let held = if s == 0 { Some(t) } else { row[s - 1].block };
                    sent.extend(hop.shift_to.map(|to| (t, to, held.unwrap())));
                    sent.extend(hop.home_to.map(|to| (t, to, t)));
                    received.extend(hop.recv_from.map(|from| (from, t, hop.block.unwrap())));
                }
                sent_home += sent.iter().filter(|&&(_, to, block)| to == block).count();
                for &(from, to, block) in sent.iter().filter(|&&(from, to, _)| from == to) {
                    prop_assert!(ring && to == block, "k={} s={}: {} sends to itself", k, s, from);
                    sent_to_self += 1;
                }
                if s > 0 {
                    shifts += sent.len();
                }
                sent.sort_unstable();
                received.sort_unstable();
                prop_assert_eq!(sent, received, "k={} s={}", k, s);
            }
            let updates = rows.iter().flatten().filter(|h| h.update).count();
            let own = (0..teams)
                .filter(|&t| rows[t].iter().any(|h| h.update && h.block == Some(t)))
                .count();
            // At c = W a shift step moves a buffer once around the window.
            let stays = if c == w && k > 0 { updates } else { 0 };
            let want = if ring { updates - stays } else { updates - own - stays };
            prop_assert_eq!(shifts, want, "k={} ring={}", k, ring);
        }
        // The ring's home hop: flip both to 0 when the benchmark's `p/c²`
        // pin goes (the ROADMAP's "restate the two schedule pins").
        prop_assert_eq!(sent_home, if ring { teams } else { 0 }, "ring={}", ring);
        prop_assert_eq!(sent_to_self, if ring && c == w { teams } else { 0 }, "ring={}", ring);
    }

    /// The half window ([`TeamWindow::half`]) as data: every unordered
    /// pair of teams the full window reaches is updated exactly once — an
    /// antipodal pair once, not once from each side — every shift,
    /// re-injection and return meets exactly one receive, block for block
    /// and with the reactions it carries, each row returns exactly the
    /// blocks it updated, and the busiest rank sends no more messages than
    /// the full window's busiest. Clipped and wrapping, one to three axes, even and odd caps,
    /// every `c` the predicate admits.
    #[test]
    fn half_window_traversal_updates_each_pair_once_and_returns_what_it_updated(
        dims in (1usize..7, 1usize..4, 1usize..3),
        spans in (0usize..4, 0usize..3, 0usize..2),
        kind in 0usize..3,
        c in 1usize..5,
    ) {
        use ca_nbody::cutoff::{traversal, walked_window, Hop};
        use std::collections::BTreeSet;
        let (dims, spans) = ([dims.0, dims.1, dims.2], [spans.0, spans.1, spans.2]);
        let full = match kind {
            0 => TeamWindow::clipped(&dims, &spans),
            1 => TeamWindow::wrapping(&dims, &spans),
            _ => TeamWindow::ring(dims[0] * dims[1]),
        };
        prop_assume!(c <= full.len());
        let window = walked_window(full, c, true);
        prop_assume!(window.is_half());
        prop_assert_eq!(walked_window(full, c, false), full, "no promise, the paper's window");
        let teams = window.teams();
        let hops = |w: TeamWindow, t: usize, k: usize| traversal(w, c, t, k).collect::<Vec<Hop>>();
        // Every unordered pair of the full window, and who updates it.
        let want: BTreeSet<(usize, usize)> = (0..teams)
            .flat_map(|t| (0..full.len()).filter_map(move |j| full.apply_back(t, j).map(|b| (t.min(b), t.max(b)))))
            .collect();
        let (mut pairs, mut busiest) = (Vec::new(), (0, 0));
        for k in 0..c {
            let rows: Vec<Vec<Hop>> = (0..teams).map(|t| hops(window, t, k)).collect();
            let (mut updated, mut returned) = (BTreeSet::new(), BTreeSet::new());
            for (t, row) in rows.iter().enumerate() {
                for hop in row.iter().filter(|h| h.update) {
                    let b = hop.block.unwrap();
                    pairs.push((t.min(b), t.max(b)));
                    if b != t {
                        updated.insert(b);
                    }
                }
            }
            let steps = rows.iter().map(Vec::len).max().unwrap();
            for s in 0..steps {
                // (from, to, block, carries): one receive per message.
                let (mut sent, mut received) = (Vec::new(), Vec::new());
                let (mut gave, mut got) = (Vec::new(), Vec::new());
                for (t, row) in rows.iter().enumerate() {
                    let Some(hop) = row.get(s) else { continue };
                    let held = if s == 0 { Some(t) } else { row[s - 1].block };
                    // What the held buffer carries: it arrived carrying, or
                    // this rank asked about it.
                    let carries = s > 0 && (row[s - 1].carried || row[s - 1].update && held != Some(t));
                    sent.extend(hop.shift_to.map(|to| (t, to, held.unwrap(), carries)));
                    sent.extend(hop.home_to.map(|to| (t, to, t, false)));
                    received.extend(hop.recv_from.map(|from| (from, t, hop.block.unwrap(), hop.carried)));
                    if let Some(to) = hop.return_to {
                        prop_assert!(carries, "k={} s={}: {} returns what it never gathered", k, s, t);
                        prop_assert_eq!(Some(to), held, "a return goes to its block's team");
                        gave.push((t, to));
                        returned.insert(to);
                    }
                    got.extend(hop.return_from.map(|from| (from, t)));
                }
                sent.sort_unstable();
                received.sort_unstable();
                prop_assert_eq!(sent, received, "k={} s={}", k, s);
                gave.sort_unstable();
                got.sort_unstable();
                prop_assert_eq!(gave, got, "k={} s={}: returns", k, s);
            }
            prop_assert_eq!(&updated, &returned, "k={}: a row returns the blocks it updated", k);
            let sends = |row: &[Hop]| {
                row.iter()
                    .map(|h| [h.shift_to, h.home_to, h.return_to].iter().flatten().count())
                    .sum::<usize>()
            };
            for (t, row) in rows.iter().enumerate() {
                busiest.0 = busiest.0.max(sends(row));
                busiest.1 = busiest.1.max(sends(&hops(full, t, k)));
            }
        }
        // The busiest rank sends no more messages than on the full window.
        prop_assert!(busiest.0 <= busiest.1, "busiest rank: {} sends on the half window, {} on the full", busiest.0, busiest.1);
        pairs.sort_unstable();
        prop_assert_eq!(pairs, want.into_iter().collect::<Vec<_>>(), "each pair once");
    }

    #[test]
    fn periodic_window_traversal_counts_each_wrap_pair_once(
        teams in 1usize..10,
        c in 1usize..4,
        m in 0usize..5,
        base_size in 1usize..6,
    ) {
        use ca_nbody::schedule::{count_ops, CutoffParams};
        let p = teams * c;
        let grid = ProcGrid::new(p, c).unwrap();
        let window = TeamWindow::wrapping(&[teams], &[m]);
        prop_assume!(c <= window.len());
        let sizes: Vec<usize> = (0..teams).map(|t| base_size + t % 3).collect();
        let params = CutoffParams::new(grid, window, sizes.clone());
        let total: u64 = (0..p).map(|r| count_ops(params.program(r)).interactions).sum();
        // Each team interacts with exactly window.len() teams (wrapped),
        // counted once each.
        let mut want = 0u64;
        for t in 0..teams {
            let mut seen = std::collections::HashSet::new();
            for j in 0..window.len() {
                let b = window.apply_back(t, j).unwrap();
                prop_assert!(seen.insert(b));
                let cross = (sizes[t] * sizes[b]) as u64;
                want += if b == t { cross - sizes[t] as u64 } else { cross };
            }
        }
        prop_assert_eq!(total, want);
    }

    #[test]
    fn block_distribution_roundtrip_under_reassignment(
        n in 1usize..60,
        teams in 1usize..8,
        seed in 0u64..200,
    ) {
        // Assign ids to arbitrary teams, reassign by the id rule, and
        // verify the id-block invariant holds globally.
        use ca_nbody::dist::{block_range, team_of_id};
        let _ = seed;
        let mut total = 0;
        for b in 0..teams {
            let r = block_range(n, teams, b);
            for id in r.clone() {
                prop_assert_eq!(team_of_id(n, teams, id as u64), b);
            }
            total += r.len();
        }
        prop_assert_eq!(total, n);
    }
}

/// `nbody_model::ca_cutoff_1d`'s messages, less the collectives, are what
/// the busiest rank of the schedule twin sends in one evaluation on a
/// wrapping cutoff window (more teams than positions, so not the ring):
/// `2m` at `c = 1`, where the step home moves nothing, and the skew alone
/// at `c = W = 2m + 1`, where the one shift step stays.
#[test]
fn cutoff_closed_form_counts_what_the_busiest_row_sends() {
    use nbody_comm::Phase;
    let teams = 8;
    for m in [1usize, 2, 3] {
        let window = TeamWindow::wrapping(&[teams], &[m]);
        assert_eq!(window.len(), 2 * m + 1);
        let mut cs = vec![1usize, 2, 3, window.len()];
        cs.dedup();
        for c in cs {
            let p = teams * c;
            let grid = ProcGrid::new(p, c).unwrap();
            let params = CutoffParams::new(grid, window, vec![5; teams]);
            let busiest = (0..p)
                .map(|r| {
                    let sends = count_ops(params.program(r)).sends;
                    sends[Phase::Skew.index()] + sends[Phase::Shift.index()]
                })
                .max()
                .unwrap();
            let cost = nbody_model::ca_cutoff_1d(40, p as u64, c as u64, m as u64);
            let collectives = 2.0 * (c as f64).log2();
            let ctx = format!("W={} c={c}", 2 * m + 1);
            assert_eq!(cost.messages - collectives, busiest as f64, "{ctx}");
            if c == 1 {
                assert_eq!(busiest, 2 * m as u64, "{ctx}");
            }
            if c == window.len() {
                assert_eq!(busiest, 1, "{ctx}: the skew alone");
            }
        }
    }
}

/// `nbody_model::ca_all_pairs`'s messages, less the collectives, are what
/// the busiest rank of the schedule twin sends in one evaluation: `p`
/// shifts at `c = 1`, a skew and `p/c²` shifts between, and one message at
/// `c = √p`, where row 0 ships its block home and every other row's one
/// shift step stays on the block its skew brought.
#[test]
fn all_pairs_closed_form_counts_what_the_busiest_rank_sends() {
    use nbody_comm::Phase;
    for (p, c) in [
        (4usize, 1usize),
        (4, 2),
        (8, 2),
        (9, 3),
        (16, 2),
        (16, 4),
        (27, 3),
    ] {
        let params = AllPairsParams::new(p, c, 5 * p);
        let busiest = (0..p)
            .map(|r| {
                let sends = count_ops(params.program(r)).sends;
                sends[Phase::Skew.index()] + sends[Phase::Shift.index()]
            })
            .max()
            .unwrap();
        let cost = nbody_model::ca_all_pairs(40, p as u64, c as u64);
        let collectives = 2.0 * (c as f64).log2();
        assert_eq!(cost.messages - collectives, busiest as f64, "p={p} c={c}");
        if c * c == p {
            assert_eq!(busiest, 1, "p={p} c={c}");
        }
    }
}

/// The two files one small traced, probed, health-monitored run writes, as
/// the bytes `run` writes them: its run bundle (a Chrome trace carrying the
/// spec, plan, metrics and timeline) and its wire-probe log. Recorded once,
/// shared by every case.
fn recorded_artifacts() -> &'static [Vec<u8>; 2] {
    use ca_nbody::{Method, Run, SimConfig};
    use nbody_comm::RunBundle;
    use nbody_physics::{Gravity, VelocityVerlet};
    use nbody_simhealth::HealthConfig;
    static ARTIFACTS: std::sync::OnceLock<[Vec<u8>; 2]> = std::sync::OnceLock::new();
    ARTIFACTS.get_or_init(|| {
        let cfg = SimConfig {
            law: Gravity {
                g: 1e-3,
                softening: 0.05,
            },
            integrator: VelocityVerlet,
            domain: Domain::square(4.0),
            boundary: Boundary::Reflective,
            dt: 0.01,
            steps: 2,
        };
        let initial = init::uniform(32, &cfg.domain, 5);
        let health = HealthConfig::enabled();
        let out = Run::new(&cfg, Method::CaAllPairs { c: 2 }, 4)
            .trace()
            .probe()
            .health(&health)
            .execute(&initial);
        out.result.expect("the recorded run completes");
        let wire = out.artifacts.wire.to_json();
        let bundle = RunBundle {
            spec: vec!["n=32".into(), "p=4".into(), "c=2".into(), "steps=2".into()],
            faults: Some("drop:1@1".into()),
            // A shrink section too, so the cuts reach its parser.
            shrinks: vec![nbody_comm::Shrink {
                step: 1,
                survivors: vec![0, 2],
                c: 1,
                n: 16,
            }],
            artifacts: out.artifacts,
        };
        [bundle.to_json(), wire].map(String::into_bytes)
    })
}

/// Whether `bytes` parse as artifact `which` of [`recorded_artifacts`].
fn artifact_parses(which: usize, bytes: &[u8]) -> bool {
    let text = String::from_utf8_lossy(bytes);
    match which {
        0 => nbody_comm::RunBundle::parse(&text).is_ok(),
        _ => nbody_comm::WireLog::parse(&text).is_ok(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// A recorded artifact cut short, or with one byte changed to another
    /// ASCII byte, is parsed or refused: its parser returns, never panics.
    /// A cut is always refused, since the document's closing brace goes.
    #[test]
    fn recorded_artifact_parsers_return_on_cuts_and_byte_flips(
        which in 0usize..2,
        cut in 0.0..1.0f64,
        at in 0.0..1.0f64,
        byte in 0u8..0x80,
    ) {
        let original = &recorded_artifacts()[which];
        prop_assert!(artifact_parses(which, original));
        let (cut, at) = ((cut * original.len() as f64) as usize, (at * original.len() as f64) as usize);
        prop_assert!(!artifact_parses(which, &original[..cut]));
        let mut flipped = original.clone();
        flipped[at] = if flipped[at] == byte { (byte + 1) % 0x80 } else { byte };
        artifact_parses(which, &flipped);
    }
}
