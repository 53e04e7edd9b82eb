//! Shared harness for regenerating the paper's figures.
//!
//! Each `fig*` binary sweeps the paper's exact experimental parameters,
//! replays the algorithms' communication schedules through the calibrated
//! machine models, and prints the same series the paper plots (stacked
//! per-phase time breakdowns for Figs. 2 and 6, parallel-efficiency curves
//! for Figs. 3 and 7), plus the derived headline claims of §V. Results are
//! also written as CSV under `bench_results/`.

#![warn(missing_docs)]

use std::fmt::Write as _;
use std::fs;
use std::path::Path;

use ca_nbody::dist::{team_of_x, team_of_xy};
use ca_nbody::schedule::{AllPairsParams, AllgatherParams};
use ca_nbody::{Layout, Method, ProcGrid};
use nbody_comm::Phase;
use nbody_netsim::{simulate, CollNet, Machine, SimReport};
use nbody_physics::particle::PARTICLE_WIRE_BYTES;
use nbody_physics::{init, Boundary, Domain};
use nbody_trace::schema::{breakdown_csv, BreakdownRow};

/// One data point of a breakdown figure (a stacked bar of Fig. 2/6).
#[derive(Debug, Clone)]
pub struct FigRow {
    /// Bar label (`c=4`, `c=1 (tree)`, …).
    pub label: String,
    /// Mean compute seconds per rank.
    pub compute: f64,
    /// Mean broadcast seconds (the paper omits this negligible phase).
    pub broadcast: f64,
    /// Mean shift seconds (skew folded in, as in the paper's "shift").
    pub shift: f64,
    /// Mean reduce seconds.
    pub reduce: f64,
    /// Mean re-assignment seconds (cutoff figures only).
    pub reassign: f64,
    /// Virtual makespan of the timestep.
    pub makespan: f64,
    /// Sum of compute seconds over all ranks (for efficiency computations).
    pub total_compute_secs: f64,
}

impl FigRow {
    /// Build a row from a simulation report.
    pub fn from_report(label: impl Into<String>, rep: &SimReport) -> Self {
        let mean = rep.mean();
        let total_compute: f64 = rep.per_rank.iter().map(|b| b.compute).sum();
        FigRow {
            label: label.into(),
            compute: mean.compute,
            broadcast: mean.phase(Phase::Broadcast),
            shift: mean.phase(Phase::Skew) + mean.phase(Phase::Shift),
            reduce: mean.phase(Phase::Reduce),
            reassign: mean.phase(Phase::Reassign),
            makespan: rep.makespan,
            total_compute_secs: total_compute,
        }
    }

    /// Total communication per the paper's accounting (shift + reduce +
    /// re-assign; broadcast is negligible but included).
    pub fn comm(&self) -> f64 {
        self.broadcast + self.shift + self.reduce + self.reassign
    }

    /// Parallel efficiency vs. one core on `p` ranks:
    /// `T₁ / (p · T_p)` with `T₁ = Σ compute` (identical arithmetic on one
    /// core, no communication).
    pub fn efficiency(&self, p: usize) -> f64 {
        self.total_compute_secs / (p as f64 * self.makespan)
    }

    /// This point in the shared breakdown schema (the format measured
    /// executions also export to).
    pub fn to_breakdown_row(&self) -> BreakdownRow {
        BreakdownRow {
            label: self.label.clone(),
            compute: self.compute,
            shift: self.shift,
            reduce: self.reduce,
            reassign: self.reassign,
            broadcast: self.broadcast,
            makespan: self.makespan,
        }
    }
}

/// Simulate one CA all-pairs data point.
pub fn run_all_pairs_point(machine: &Machine, p: usize, n: usize, c: usize) -> FigRow {
    let params = AllPairsParams::new(p, c, n);
    let rep = simulate(machine, p, |r| params.program(r));
    FigRow::from_report(format!("c={c}"), &rep)
}

/// Simulate the naive allgather baseline, optionally on the hardware
/// collective network (the `c=1 (tree)` bars of Fig. 2c/2d).
pub fn run_allgather_point(machine: &Machine, p: usize, n: usize, tree: bool) -> FigRow {
    let params = AllgatherParams {
        p,
        n,
        net: if tree {
            CollNet::HwTree
        } else {
            CollNet::Torus
        },
    };
    let rep = simulate(machine, p, |r| params.program(r));
    let label = if tree { "c=1 (tree)" } else { "c=1 (no-tree)" };
    FigRow::from_report(label, &rep)
}

/// Fraction of a team's particles assumed to migrate per step (drives the
/// re-assignment traffic model).
pub const MIGRATION_FRACTION: f64 = 0.05;

/// Simulate one CA cutoff data point (`dim` = 1 or 2). Returns `None` when
/// `c` is invalid for the configuration (does not divide `p`, or exceeds
/// the interaction window).
pub fn run_cutoff_point(
    machine: &Machine,
    dim: u32,
    p: usize,
    n: usize,
    c: usize,
    rc_fraction: f64,
) -> Option<FigRow> {
    let domain = Domain::unit();
    let r_c = rc_fraction * domain.length_x();
    let method = if dim == 1 {
        Method::Ca1dCutoff { c }
    } else {
        Method::Ca2dCutoff { c }
    };
    let layout = Layout::new(method, p, &domain, Boundary::Open, Some(r_c)).ok()?;
    let teams = layout.grid.teams();
    let avg_block = n / teams.max(1);
    let migrating =
        ((avg_block as f64 * MIGRATION_FRACTION) as u64).max(1) * PARTICLE_WIRE_BYTES as u64;

    // Bin an actual sampled distribution so boundary windows and count
    // fluctuations produce the load imbalance the paper describes.
    let (tx, ty) = layout.cells.expect("the cutoff methods lay out spatially");
    let sizes = if dim == 1 {
        sampled_block_sizes_1d(n, tx)
    } else {
        sampled_block_sizes_2d(n, tx, ty)
    };
    // The twin knows whom the leaders re-assign with; what moves is modelled.
    // No law: the paper's full window, which the figures reproduce.
    let mut params = layout.schedule(sizes, false);
    params
        .reassign
        .as_mut()
        .expect("the cutoff methods re-assign")
        .bytes = migrating;
    let rep = simulate(machine, p, |r| params.program(r));
    Some(FigRow::from_report(format!("c={c}"), &rep))
}

/// Per-team particle counts of a sampled uniform distribution on 1D slabs.
pub fn sampled_block_sizes_1d(n: usize, teams: usize) -> Vec<usize> {
    let (sample_n, scale) = sample_plan(n);
    let domain = Domain::unit();
    let ps = init::uniform_1d(sample_n, &domain, 0xC0FFEE);
    let mut sizes = vec![0usize; teams];
    for q in &ps {
        sizes[team_of_x(&domain, teams, q.pos.x)] += 1;
    }
    sizes.iter().map(|&s| s * scale).collect()
}

/// Per-team particle counts of a sampled uniform distribution on a 2D grid.
pub fn sampled_block_sizes_2d(n: usize, tx: usize, ty: usize) -> Vec<usize> {
    let (sample_n, scale) = sample_plan(n);
    let domain = Domain::unit();
    let ps = init::uniform(sample_n, &domain, 0xC0FFEE);
    let mut sizes = vec![0usize; tx * ty];
    for q in &ps {
        sizes[team_of_xy(&domain, tx, ty, q.pos.x, q.pos.y)] += 1;
    }
    sizes.iter().map(|&s| s * scale).collect()
}

fn sample_plan(n: usize) -> (usize, usize) {
    const CAP: usize = 1 << 20;
    if n <= CAP {
        (n, 1)
    } else {
        let scale = n.div_ceil(CAP);
        (n / scale, scale)
    }
}

/// Valid all-pairs replication factors among the requested candidates.
pub fn valid_all_pairs_cs(p: usize, candidates: &[usize]) -> Vec<usize> {
    let valid = ProcGrid::valid_all_pairs_factors(p);
    candidates
        .iter()
        .copied()
        .filter(|c| valid.contains(c))
        .collect()
}

/// Print a paper-style breakdown table and write it as CSV (shared
/// breakdown schema).
pub fn emit_breakdown(title: &str, csv_name: &str, rows: &[FigRow]) {
    println!("\n=== {title} ===");
    println!(
        "{:<14} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "series", "compute(s)", "shift(s)", "reduce(s)", "re-assign(s)", "bcast(s)", "total(s)"
    );
    for r in rows {
        println!(
            "{:<14} {:>12.6} {:>12.6} {:>12.6} {:>12.6} {:>12.6} {:>12.6}",
            r.label, r.compute, r.shift, r.reduce, r.reassign, r.broadcast, r.makespan
        );
    }
    let schema_rows: Vec<BreakdownRow> = rows.iter().map(FigRow::to_breakdown_row).collect();
    write_csv(csv_name, &breakdown_csv(&schema_rows));
}

/// Print a strong-scaling efficiency table (rows = machine sizes, columns =
/// replication factors) and write it as CSV. `cells[i][j]` is the
/// efficiency at `ps[i]`, `cs[j]` (`None` = invalid configuration).
pub fn emit_efficiency(
    title: &str,
    csv_name: &str,
    ps: &[usize],
    cs: &[usize],
    cells: &[Vec<Option<f64>>],
) {
    println!("\n=== {title} ===");
    print!("{:<12}", "cores");
    for c in cs {
        print!(" {:>10}", format!("c={c}"));
    }
    println!();
    let mut csv = String::from("cores");
    for c in cs {
        let _ = write!(csv, ",c={c}");
    }
    csv.push('\n');
    for (i, p) in ps.iter().enumerate() {
        print!("{:<12}", p);
        let _ = write!(csv, "{p}");
        for cell in &cells[i] {
            match cell {
                Some(e) => {
                    print!(" {:>10.3}", e);
                    let _ = write!(csv, ",{e}");
                }
                None => {
                    print!(" {:>10}", "-");
                    let _ = write!(csv, ",");
                }
            }
        }
        println!();
        csv.push('\n');
    }
    write_csv(csv_name, &csv);
}

/// Write a CSV file under `bench_results/`.
pub fn write_csv(name: &str, contents: &str) {
    let dir = Path::new("bench_results");
    if fs::create_dir_all(dir).is_ok() {
        let path = dir.join(name);
        if let Err(e) = fs::write(&path, contents) {
            eprintln!("warning: could not write {}: {e}", path.display());
        } else {
            println!("  -> bench_results/{name}");
        }
    }
}

/// Scale configuration: `--quick` divides processor and particle counts by
/// 16 so the full suite runs in seconds (shapes are preserved; see
/// EXPERIMENTS.md for full-scale outputs).
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Divider applied to `p` and `n`.
    pub div: usize,
}

impl Scale {
    /// Parse `--quick` / `--scale <d>` from the command line.
    pub fn from_args() -> Scale {
        let args: Vec<String> = std::env::args().collect();
        let mut div = 1;
        for (i, a) in args.iter().enumerate() {
            if a == "--quick" {
                div = 16;
            }
            if a == "--scale" {
                div = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .expect("--scale needs an integer divider");
            }
        }
        Scale { div }
    }

    /// Apply to a processor count.
    pub fn p(&self, p: usize) -> usize {
        (p / self.div).max(16)
    }

    /// Apply to a particle count.
    pub fn n(&self, n: usize) -> usize {
        (n / self.div).max(64)
    }

    /// Suffix for titles/CSV names when scaled down.
    pub fn tag(&self) -> String {
        if self.div == 1 {
            String::new()
        } else {
            format!(" (scaled 1/{})", self.div)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbody_netsim::hopper;

    #[test]
    fn all_pairs_point_has_sane_breakdown() {
        let row = run_all_pairs_point(&hopper(), 64, 512, 2);
        assert!(row.compute > 0.0);
        assert!(row.shift > 0.0);
        assert!(row.reduce > 0.0);
        assert!(row.makespan >= row.compute);
        let e = row.efficiency(64);
        assert!(e > 0.0 && e <= 1.0, "efficiency {e}");
    }

    #[test]
    fn cutoff_point_rejects_invalid_c() {
        assert!(run_cutoff_point(&hopper(), 1, 64, 512, 48, 0.25).is_none());
        assert!(run_cutoff_point(&hopper(), 1, 64, 512, 2, 0.25).is_some());
    }

    #[test]
    fn cutoff_point_includes_reassign_time() {
        let row = run_cutoff_point(&hopper(), 1, 64, 2048, 2, 0.25).unwrap();
        assert!(row.reassign > 0.0);
    }

    #[test]
    fn sampled_blocks_sum_to_n() {
        let sizes = sampled_block_sizes_1d(10_000, 16);
        assert_eq!(sizes.iter().sum::<usize>(), 10_000);
        let sizes2 = sampled_block_sizes_2d(10_000, 4, 4);
        assert_eq!(sizes2.iter().sum::<usize>(), 10_000);
    }

    #[test]
    fn fig_rows_export_in_the_shared_breakdown_schema() {
        let row = run_all_pairs_point(&hopper(), 64, 512, 2).to_breakdown_row();
        assert_eq!(row.label, "c=2");
        assert!(row.makespan > 0.0);
        let csv = breakdown_csv(&[row]);
        let mut lines = csv.lines();
        assert_eq!(
            lines.next(),
            Some(nbody_trace::schema::BREAKDOWN_CSV_HEADER)
        );
        assert!(lines.next().unwrap().starts_with("c=2,"));
        assert_eq!(lines.next(), None);
    }

    #[test]
    fn valid_cs_filter() {
        assert_eq!(
            valid_all_pairs_cs(64, &[1, 2, 3, 4, 8, 16]),
            vec![1, 2, 4, 8]
        );
    }

    #[test]
    fn scale_quick_shrinks() {
        let s = Scale { div: 16 };
        assert_eq!(s.p(24_576), 1536);
        assert_eq!(s.n(196_608), 12_288);
        assert!(s.tag().contains("1/16"));
        let full = Scale { div: 1 };
        assert_eq!(full.p(24_576), 24_576);
        assert!(full.tag().is_empty());
    }
}
