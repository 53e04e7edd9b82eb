//! The breakdown schema
//! (`label,compute,shift,reduce,reassign,broadcast,makespan`): the
//! stacked-bar CSV the figure binaries write to `bench_results/fig*.csv`,
//! and the one CSV the workspace writes.

use std::fmt::Write as _;

/// Header of the breakdown schema.
pub const BREAKDOWN_CSV_HEADER: &str = "label,compute,shift,reduce,reassign,broadcast,makespan";

/// One stacked bar of a breakdown figure: mean per-rank seconds
/// per phase plus the makespan.
#[derive(Debug, Clone, PartialEq)]
pub struct BreakdownRow {
    /// Bar label (`c=4`, `measured`, …).
    pub label: String,
    /// Compute seconds.
    pub compute: f64,
    /// Shift seconds (skew folded in, as in the paper's "shift").
    pub shift: f64,
    /// Reduce seconds.
    pub reduce: f64,
    /// Re-assignment seconds (cutoff methods only; 0 otherwise).
    pub reassign: f64,
    /// Broadcast seconds (negligible; the paper omits it).
    pub broadcast: f64,
    /// Total time: the simulated (virtual) makespan.
    pub makespan: f64,
}

/// Render rows as a complete breakdown-schema CSV document.
pub fn breakdown_csv(rows: &[BreakdownRow]) -> String {
    let mut out = String::from(BREAKDOWN_CSV_HEADER);
    out.push('\n');
    for r in rows {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{}",
            r.label, r.compute, r.shift, r.reduce, r.reassign, r.broadcast, r.makespan
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_row() -> BreakdownRow {
        BreakdownRow {
            label: "c=2".into(),
            compute: 1.5,
            shift: 0.25,
            reduce: 0.125,
            reassign: 0.0,
            broadcast: 0.01,
            makespan: 2.0,
        }
    }

    #[test]
    fn breakdown_csv_has_header_and_rows() {
        let csv = breakdown_csv(&[sample_row()]);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], BREAKDOWN_CSV_HEADER);
        assert_eq!(lines[1], "c=2,1.5,0.25,0.125,0,0.01,2");
    }
}
