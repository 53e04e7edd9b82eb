//! Figure 2: execution time per timestep vs. replication factor for the
//! all-pairs algorithm, broken into computation / shift / reduce, on
//! Hopper (a, b) and Intrepid (c, d — including the `c=1 (tree)` bars that
//! use the BlueGene/P hardware collective network).
//!
//! Run with `--quick` (scale 1/16) for a fast smoke pass, or at full paper
//! scale by default. Derived §III.C/§V headline metrics are printed after
//! each panel.

use nbody_bench::{
    emit_breakdown, run_all_pairs_point, run_allgather_point, valid_all_pairs_cs, FigRow, Scale,
};
use nbody_netsim::{hopper, intrepid, Machine};

fn panel(
    name: &str,
    csv: &str,
    machine: &Machine,
    p: usize,
    n: usize,
    cs: &[usize],
    tree_bars: bool,
) {
    let mut rows: Vec<FigRow> = Vec::new();
    if tree_bars {
        rows.push(run_allgather_point(machine, p, n, true));
        rows.push(run_allgather_point(machine, p, n, false));
    }
    for &c in &valid_all_pairs_cs(p, cs) {
        rows.push(run_all_pairs_point(machine, p, n, c));
    }
    emit_breakdown(
        &format!("{name}: {} cores, {} particles on {}", p, n, machine.name),
        csv,
        &rows,
    );
    headlines(&rows);
}

/// Derived claims: communication reduction, best-vs-max-c gap, and the
/// comm-avoidance speedup (§III.C, §V).
fn headlines(rows: &[FigRow]) {
    let ca_rows: Vec<&FigRow> = rows.iter().filter(|r| !r.label.contains("tree")).collect();
    let Some(c1) = ca_rows.first() else { return };
    let best = ca_rows
        .iter()
        .min_by(|a, b| a.makespan.total_cmp(&b.makespan))
        .unwrap();
    let last = ca_rows.last().unwrap();
    println!(
        "  headline: comm time c=1 {:.6}s -> best {} {:.6}s ({:.1}% reduction); \
         total speedup {:.2}x; best-c vs max-c gap {:.1}%",
        c1.comm(),
        best.label,
        best.comm(),
        100.0 * (1.0 - best.comm() / c1.comm().max(1e-300)),
        c1.makespan / best.makespan,
        100.0 * (last.makespan - best.makespan) / best.makespan
    );
    if let Some(no_tree) = rows.iter().find(|r| r.label == "c=1 (no-tree)") {
        println!(
            "  headline: vs naive no-tree allgather: comm reduction {:.1}%, speedup {:.2}x",
            100.0 * (1.0 - best.comm() / no_tree.comm().max(1e-300)),
            no_tree.makespan / best.makespan
        );
    }
}

fn main() {
    let scale = Scale::from_args();
    let t = scale.tag();
    let h = hopper();
    let i = intrepid();

    panel(
        &format!("Fig 2a{t}"),
        "fig2a.csv",
        &h,
        scale.p(6_144),
        scale.n(24_576),
        &[1, 2, 4, 8, 16, 32],
        false,
    );
    panel(
        &format!("Fig 2b{t}"),
        "fig2b.csv",
        &h,
        scale.p(24_576),
        scale.n(196_608),
        &[1, 2, 4, 8, 16, 32, 64],
        false,
    );
    panel(
        &format!("Fig 2c{t}"),
        "fig2c.csv",
        &i,
        scale.p(8_192),
        scale.n(32_768),
        &[1, 2, 4, 8, 16, 32, 64],
        true,
    );
    panel(
        &format!("Fig 2d{t}"),
        "fig2d.csv",
        &i,
        scale.p(32_768),
        scale.n(262_144),
        &[1, 2, 4, 8, 16, 32, 64, 128],
        true,
    );
}
