//! Ablation studies of the design choices DESIGN.md calls out. A custom
//! (non-Criterion) harness: each ablation compares *simulated makespans*
//! under model or algorithm variants, which is a comparison of outcomes,
//! not of wall time.
//!
//! 1. **Shift transport**: point-to-point shifts vs. DCMF bidirectional
//!    broadcast-shifts (the paper's Intrepid optimization, §III.C).
//! 2. **Collective saturation**: with the saturation term removed,
//!    collectives scale logarithmically and maximal replication always
//!    wins — demonstrating why the paper treats `c` as a tuning parameter.
//! 3. **Hardware tree network**: the naive baseline with and without the
//!    BlueGene/P collective network (Fig. 2c/2d's tree vs. no-tree).
//! 4. **Replication window constraint**: cutoff makespan as `c`
//!    approaches the window bound `c ≤ W`.
//! 5. **Decomposition families** and 6. **window dimensionality**.
//! 7. **Send-ahead**: the shift loop forwarding a block before computing on
//!    it, as a rewrite of the op stream — where overlap pays (`c = 1`) and
//!    where replication has left it little to hide.

use ca_nbody::schedule::{AllPairsParams, AllgatherParams, CutoffParams};
use ca_nbody::{Layout, Method, ProcGrid, TeamWindow, Window};
use nbody_comm::Phase;
use nbody_netsim::{intrepid, simulate, CollNet, Op};
use nbody_physics::{Boundary, Domain};

fn main() {
    shift_transport();
    collective_saturation();
    tree_network();
    window_constraint();
    decomposition_families();
    dimensionality();
    send_ahead();
}

fn shift_transport() {
    println!("=== Ablation 1: p2p shifts vs DCMF broadcast-shifts (Intrepid) ===");
    // Large blocks so shifts are bandwidth-bound (where bidirectionality
    // pays); with tiny messages the gain vanishes into latency.
    let p = 2048;
    let n = 2_097_152;
    let mut with = intrepid();
    with.bidirectional_shift = true;
    let mut without = intrepid();
    without.bidirectional_shift = false;
    let shift_time = |rep: &nbody_netsim::SimReport| {
        let m = rep.mean();
        m.phase(Phase::Skew) + m.phase(Phase::Shift)
    };
    println!(
        "{:>6} {:>16} {:>16} {:>8}",
        "c", "shift p2p (s)", "shift dcmf (s)", "gain"
    );
    for c in [1usize, 2, 4, 8] {
        let params = AllPairsParams::new(p, c, n);
        let t_p2p = shift_time(&simulate(&without, p, |r| params.program(r)));
        let t_dcmf = shift_time(&simulate(&with, p, |r| params.program(r)));
        println!(
            "{:>6} {:>16.6} {:>16.6} {:>7.1}%",
            c,
            t_p2p,
            t_dcmf,
            100.0 * (t_p2p - t_dcmf) / t_p2p
        );
        assert!(t_dcmf <= t_p2p, "bidirectional shifts can only help");
    }
    println!("  (bandwidth-bound shifts gain towards 2x, as on the real bidirectional torus)\n");
}

fn collective_saturation() {
    println!("=== Ablation 2: collective saturation on/off (Intrepid model) ===");
    let p = 2048;
    let n = 16384;
    let sat = intrepid();
    let mut ideal = intrepid();
    ideal.coll_saturation = 0.0;
    let mut best_sat = (0usize, f64::INFINITY);
    let mut best_ideal = (0usize, f64::INFINITY);
    println!(
        "{:>6} {:>16} {:>16}",
        "c", "saturating (s)", "ideal-log (s)"
    );
    for c in [1usize, 2, 4, 8, 16, 32] {
        if p % (c * c) != 0 {
            continue;
        }
        let params = AllPairsParams::new(p, c, n);
        let t_sat = simulate(&sat, p, |r| params.program(r)).makespan;
        let t_ideal = simulate(&ideal, p, |r| params.program(r)).makespan;
        println!("{:>6} {:>16.6} {:>16.6}", c, t_sat, t_ideal);
        if t_sat < best_sat.1 {
            best_sat = (c, t_sat);
        }
        if t_ideal < best_ideal.1 {
            best_ideal = (c, t_ideal);
        }
    }
    println!(
        "  best c: saturating model {} | ideal collectives {}",
        best_sat.0, best_ideal.0
    );
    assert!(
        best_ideal.0 >= best_sat.0,
        "ideal collectives push the optimum towards max replication"
    );
    println!("  (the interior optimum of Fig. 2 exists *because* collectives saturate)\n");
}

fn tree_network() {
    println!("=== Ablation 3: naive baseline with/without the BG/P tree network ===");
    let p = 2048;
    let n = 16384;
    let m = intrepid();
    for (label, net) in [("tree", CollNet::HwTree), ("no-tree", CollNet::Torus)] {
        let params = AllgatherParams { p, n, net };
        let rep = simulate(&m, p, |r| params.program(r));
        println!("  c=1 ({label:8}): {:.6} s", rep.makespan);
    }
    let ca = AllPairsParams::new(p, 4, n);
    let t_ca = simulate(&m, p, |r| ca.program(r)).makespan;
    println!("  CA c=4 (torus) : {t_ca:.6} s");
    println!("  (the CA algorithm on the torus beats even the hardware-assisted naive run)\n");
}

fn window_constraint() {
    println!("=== Ablation 4: cutoff makespan as c approaches the window bound ===");
    let p = 4096;
    let n = 32768;
    println!(
        "{:>6} {:>8} {:>8} {:>14}",
        "c", "teams", "W", "makespan (s)"
    );
    for c in [1usize, 2, 4, 8, 16, 32, 64] {
        // r_c = l/4 spans m = teams/4 + 1 slabs.
        let teams = p / c;
        let layout = match cutoff_layout(Method::Ca1dCutoff { c }, p, 0.25) {
            Ok(layout) => layout,
            Err(e) => {
                println!("{c:>6} {teams:>8} invalid: {e}");
                continue;
            }
        };
        let params = layout.schedule(vec![n / teams; teams], false);
        let rep = simulate(&intrepid(), p, |r| params.program(r));
        println!(
            "{:>6} {:>8} {:>8} {:>14.6}",
            c,
            teams,
            layout.window.len(),
            rep.makespan
        );
    }
    println!("  (c must fit inside the interaction window: the paper's c <= 2m constraint)");
}

/// The run path's own layout of a cutoff method on the unit box.
fn cutoff_layout(method: Method, p: usize, r_c: f64) -> Result<Layout, String> {
    Layout::new(method, p, &Domain::unit(), Boundary::Open, Some(r_c))
}

/// §II.C/§IV landscape, simulated: the CA cutoff algorithm at several
/// replication factors — at `c = 1` the spatial halo (§II.C) — on the same
/// decomposed workload.
fn decomposition_families() {
    println!("=== Ablation 5: cutoff decomposition families (Hopper model) ===");
    let machine = nbody_netsim::hopper();
    let p = 4096;
    let n = 65536;
    let r_c = 0.25;

    for c in [1usize, 2, 4, 8] {
        let Ok(layout) = cutoff_layout(Method::Ca1dCutoff { c }, p, r_c) else {
            continue;
        };
        let teams = layout.grid.teams();
        let params = layout.schedule(vec![n / teams; teams], false);
        let t = simulate(&machine, p, |r| params.program(r)).makespan;
        println!("  CA cutoff c={c:<2}        : {t:.6} s");
    }
}

/// §IV.C: communication across dimensionalities. Same p, same rc fraction;
/// the neighbor count — and with it the shift traffic of the c=1
/// algorithm — grows exponentially with d, and replication claws it back.
/// The 1-D and 2-D rows are the run path's layouts; no `Method` lays teams
/// out in 3-D, so that row builds its window directly — the same
/// [`TeamWindow`] code with a third non-unit axis.
fn dimensionality() {
    println!("\n=== Ablation 6: window dimensionality (Hopper model, p=4096, rc=l/8) ===");
    let machine = nbody_netsim::hopper();
    let p = 4096usize;
    let n = 65_536usize;
    let rc = 0.125;
    println!(
        "{:>4} {:>6} {:>10} {:>14} {:>14}",
        "dim", "c", "window W", "shift msgs", "makespan (s)"
    );
    for c in [1usize, 4] {
        let teams = p / c;
        let sizes = vec![n / teams; teams];

        // 1D: teams slabs. 2D: the near-square grid of teams.
        for (dim, method) in [(1, Method::Ca1dCutoff { c }), (2, Method::Ca2dCutoff { c })] {
            if let Ok(layout) = cutoff_layout(method, p, rc) {
                report_dim(&machine, dim, c, &layout.schedule(sizes.clone(), false));
            }
        }

        // 3D: cubic grid of teams on the unit cube.
        let side = (teams as f64).cbrt().round() as usize;
        if side * side * side == teams {
            let m = (rc * side as f64).floor() as usize + 1;
            let window = TeamWindow::clipped(&[side; 3], &[m; 3]);
            if ca_nbody::cutoff::validate_cutoff(&window, teams, c).is_ok() {
                let grid = ProcGrid::new(p, c).unwrap();
                report_dim(&machine, 3, c, &CutoffParams::new(grid, window, sizes));
            }
        }
    }
    println!(
        "  (the c=1 shift count tracks the window size W = O((2m+1)^d); \
         §IV.C: avoidance matters more in higher dimensions)"
    );
}

fn report_dim(
    machine: &nbody_netsim::Machine,
    dim: u32,
    c: usize,
    params: &CutoffParams<TeamWindow>,
) {
    let grid = params.grid;
    let rep = simulate(machine, grid.p(), |r| params.program(r));
    let shift_msgs =
        ca_nbody::schedule::count_ops(params.program(grid.teams() / 2)).sends[Phase::Shift.index()];
    println!(
        "{:>4} {:>6} {:>10} {:>14} {:>14.6}",
        dim,
        c,
        params.window.len(),
        shift_msgs,
        rep.makespan
    );
}

/// Send-ahead as a rewrite of one rank's op stream: every `Compute` is held
/// back until the [`Phase::Shift`] sends that follow it are out, which turns
/// the blocking order `send s, recv s, compute s` into `recv s, send s+1,
/// compute s` — the block just received is forwarded before the kernel runs
/// on it. Same messages, same order per channel, same bytes.
fn sent_ahead(ops: impl Iterator<Item = Op>) -> impl Iterator<Item = Op> {
    let mut ops = ops.peekable();
    let mut held = None;
    std::iter::from_fn(move || {
        if held.is_none() && matches!(ops.peek(), Some(Op::Compute { .. })) {
            held = ops.next();
        }
        match ops.peek() {
            Some(Op::Send {
                phase: Phase::Shift,
                ..
            }) => ops.next(),
            _ => held.take().or_else(|| ops.next()),
        }
    })
}

/// The ROADMAP's parked send-ahead, at paper scale. The generator and every figure keep the
/// paper's blocking order (it is what Fig. 2/6 measured); the overlapped
/// variant exists here only, as an adapter over the unmodified program.
fn send_ahead() {
    println!("\n=== Ablation 7: blocking shifts vs send-ahead (Hopper model, Fig. 2a scale) ===");
    let machine = nbody_netsim::hopper();
    let p = 6144;
    let n = 24_576;
    println!(
        "{:>6} {:>16} {:>16} {:>8}",
        "c", "blocking (s)", "send-ahead (s)", "gain"
    );
    let mut last_gain = f64::INFINITY;
    for c in [1usize, 2, 4, 8, 16, 32] {
        let params = AllPairsParams::new(p, c, n);
        let blocking = simulate(&machine, p, |r| params.program(r)).makespan;
        let ahead = simulate(&machine, p, |r| sent_ahead(params.program(r))).makespan;
        let gain = (blocking - ahead) / blocking;
        println!(
            "{:>6} {:>16.6} {:>16.6} {:>7.1}%",
            c,
            blocking,
            ahead,
            100.0 * gain
        );
        assert!(
            ahead <= blocking,
            "forwarding before computing can only help"
        );
        assert!(gain <= last_gain, "the gain shrinks as replication grows");
        last_gain = gain;
    }
    println!(
        "  (overlap hides shift time behind the kernel; replication has already cut the \
         shifts by c^2, so at the best c there is little left to hide)"
    );
}
