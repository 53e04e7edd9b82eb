//! The two CSV schemas of the workspace.
//!
//! * The **event schema** (`rank,kind,start,end,peer,phase`) is the one row
//!   per span that [`crate::ExecutionTrace::to_events_csv`] writes for
//!   `ca-nbody run --trace=F.csv`, for plotting; nothing reads it back.
//! * The **breakdown schema**
//!   (`label,compute,shift,reduce,reassign,broadcast,makespan`) is the
//!   stacked-bar format written to `bench_results/fig*.csv` by the figure
//!   binaries and by `ca-nbody run --trace` profiles.

use std::fmt::Write as _;

use crate::json::Json;

/// Header of the event schema written by
/// [`crate::ExecutionTrace::to_events_csv`].
pub const EVENT_CSV_HEADER: &str = "rank,kind,start,end,peer,phase";

/// Append one event-schema row of
/// [`crate::ExecutionTrace::to_events_csv`] (`peer` and `phase` may be
/// empty).
pub fn push_event_row(
    out: &mut String,
    rank: u32,
    kind: &str,
    start: f64,
    end: f64,
    peer: &str,
    phase: &str,
) {
    let _ = writeln!(out, "{rank},{kind},{start},{end},{peer},{phase}");
}

/// Header of the breakdown schema.
pub const BREAKDOWN_CSV_HEADER: &str = "label,compute,shift,reduce,reassign,broadcast,makespan";

/// One stacked bar of a breakdown figure or profile: mean per-rank seconds
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
    /// Total wall time (virtual makespan for simulations, measured wall
    /// for executions).
    pub makespan: f64,
}

impl BreakdownRow {
    /// Append this row in the breakdown schema.
    pub fn push_csv(&self, out: &mut String) {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{}",
            self.label,
            self.compute,
            self.shift,
            self.reduce,
            self.reassign,
            self.broadcast,
            self.makespan
        );
    }

    /// This row as a JSON object (same field names as the CSV columns).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("label".into(), Json::Str(self.label.clone())),
            ("compute".into(), Json::Num(self.compute)),
            ("shift".into(), Json::Num(self.shift)),
            ("reduce".into(), Json::Num(self.reduce)),
            ("reassign".into(), Json::Num(self.reassign)),
            ("broadcast".into(), Json::Num(self.broadcast)),
            ("makespan".into(), Json::Num(self.makespan)),
        ])
    }
}

/// Render rows as a complete breakdown-schema CSV document.
pub fn breakdown_csv(rows: &[BreakdownRow]) -> String {
    let mut out = String::from(BREAKDOWN_CSV_HEADER);
    out.push('\n');
    for r in rows {
        r.push_csv(&mut out);
    }
    out
}

/// Render rows as a structured JSON document (`{"rows": [...]}`), the
/// machine-readable companion the figure binaries write next to each CSV.
pub fn breakdown_json(rows: &[BreakdownRow]) -> String {
    let arr = Json::Arr(rows.iter().map(BreakdownRow::to_json).collect());
    Json::Obj(vec![("rows".into(), arr)]).to_string()
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
    fn event_rows_match_schema() {
        let mut s = String::from(EVENT_CSV_HEADER);
        s.push('\n');
        push_event_row(&mut s, 3, "phase", 0.5, 1.5, "", "shift");
        push_event_row(&mut s, 0, "send", 0.0, 0.1, "2", "reduce");
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[0].split(',').count(), 6);
        assert_eq!(lines[1], "3,phase,0.5,1.5,,shift");
        assert_eq!(lines[2], "0,send,0,0.1,2,reduce");
    }

    #[test]
    fn breakdown_csv_has_header_and_rows() {
        let csv = breakdown_csv(&[sample_row()]);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], BREAKDOWN_CSV_HEADER);
        assert_eq!(lines[1], "c=2,1.5,0.25,0.125,0,0.01,2");
    }

    #[test]
    fn breakdown_json_parses_back() {
        let json = breakdown_json(&[sample_row()]);
        let v = Json::parse(&json).unwrap();
        let rows = v.get("rows").unwrap().as_array().unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get("label").unwrap().as_str(), Some("c=2"));
        assert_eq!(rows[0].get("makespan").unwrap().as_f64(), Some(2.0));
    }
}
