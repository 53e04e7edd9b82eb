//! The cross-run performance history and its regression check.
//!
//! Each traced run distills to one [`RunSummary`] line appended to a
//! `bench_results/history/<kernel>.jsonl` store. Later runs with the same
//! configuration key `(n, p, c, kernel)` compare their wall time against
//! the *median* of the stored entries — medians make the gate robust to a
//! single noisy outlier in either direction — and `ca-nbody regress`
//! turns the verdict into an exit code a CI job can act on.

use nbody_trace::Json;

use crate::imbalance::max_imbalance_factor;
use crate::Analysis;

/// Compact record of one traced run, one JSONL line in the history store.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    /// Particle count.
    pub n: u64,
    /// Ranks.
    pub p: u64,
    /// Replication factor.
    pub c: u64,
    /// Force kernel (`allpairs` or `cutoff`).
    pub kernel: String,
    /// Git revision the binary was built from (`unknown` outside a
    /// checkout).
    pub git_rev: String,
    /// Timesteps executed.
    pub steps: u64,
    /// Traced wall seconds — the quantity the regression gate compares.
    pub wall_secs: f64,
    /// Critical-path compute seconds (summed over steps).
    pub compute_secs: f64,
    /// Critical-path communication seconds (summed over steps).
    pub comm_secs: f64,
    /// Critical-path blocked seconds (summed over steps).
    pub blocked_secs: f64,
    /// Worst per-phase `max/mean` imbalance factor.
    pub max_imbalance: f64,
    /// Unix seconds when the summary was recorded (0 when unknown).
    pub recorded_unix: u64,
}

impl RunSummary {
    /// Distill an [`Analysis`] plus run configuration into one record.
    #[allow(clippy::too_many_arguments)]
    pub fn from_analysis(
        a: &Analysis,
        n: u64,
        c: u64,
        kernel: &str,
        git_rev: &str,
        steps: u64,
        recorded_unix: u64,
    ) -> RunSummary {
        let (compute, comm, blocked) = a.critical_split();
        RunSummary {
            n,
            p: a.ranks as u64,
            c,
            kernel: kernel.to_string(),
            git_rev: git_rev.to_string(),
            steps,
            wall_secs: a.wall_secs,
            compute_secs: compute,
            comm_secs: comm,
            blocked_secs: blocked,
            max_imbalance: max_imbalance_factor(&a.imbalance),
            recorded_unix,
        }
    }

    /// Whether two summaries describe the same configuration — the
    /// history-matching key `(n, p, c, kernel)`. The git revision is
    /// deliberately *not* part of the key: comparing across revisions is
    /// the point of the store.
    pub fn same_config(&self, other: &RunSummary) -> bool {
        self.n == other.n && self.p == other.p && self.c == other.c && self.kernel == other.kernel
    }

    /// Serialize to a JSON object.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("n".into(), Json::Num(self.n as f64)),
            ("p".into(), Json::Num(self.p as f64)),
            ("c".into(), Json::Num(self.c as f64)),
            ("kernel".into(), Json::Str(self.kernel.clone())),
            ("git_rev".into(), Json::Str(self.git_rev.clone())),
            ("steps".into(), Json::Num(self.steps as f64)),
            ("wall_secs".into(), Json::Num(self.wall_secs)),
            ("compute_secs".into(), Json::Num(self.compute_secs)),
            ("comm_secs".into(), Json::Num(self.comm_secs)),
            ("blocked_secs".into(), Json::Num(self.blocked_secs)),
            ("max_imbalance".into(), Json::Num(self.max_imbalance)),
            ("recorded_unix".into(), Json::Num(self.recorded_unix as f64)),
        ])
    }

    /// One history line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        self.to_json().to_string()
    }

    /// Reconstruct from a parsed history line.
    pub fn from_json(v: &Json) -> Result<RunSummary, String> {
        let num = |key: &str| {
            v.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("missing numeric field {key:?}"))
        };
        let text = |key: &str| {
            v.get(key)
                .and_then(Json::as_str)
                .ok_or_else(|| format!("missing string field {key:?}"))
                .map(str::to_string)
        };
        Ok(RunSummary {
            n: num("n")? as u64,
            p: num("p")? as u64,
            c: num("c")? as u64,
            kernel: text("kernel")?,
            git_rev: text("git_rev")?,
            steps: num("steps")? as u64,
            wall_secs: num("wall_secs")?,
            compute_secs: num("compute_secs")?,
            comm_secs: num("comm_secs")?,
            blocked_secs: num("blocked_secs")?,
            max_imbalance: num("max_imbalance")?,
            recorded_unix: num("recorded_unix").unwrap_or(0.0) as u64,
        })
    }
}

/// Parse a whole history file (JSONL, blank lines ignored). Errors carry
/// the 1-based line number of the offending entry.
pub fn parse_history(text: &str) -> Result<Vec<RunSummary>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = Json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        out.push(RunSummary::from_json(&v).map_err(|e| format!("line {}: {e}", i + 1))?);
    }
    Ok(out)
}

/// Outcome of a regression check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Live wall time within tolerance of the history median.
    Pass,
    /// Live wall time slower than `tolerance ×` the history median.
    Regression,
    /// No stored run matches the live configuration.
    NoHistory,
}

/// Result of comparing a live run against the history store.
#[derive(Debug, Clone, PartialEq)]
pub struct RegressionReport {
    /// Stored runs with the same configuration key.
    pub matched: usize,
    /// Median wall seconds of the matched runs (0 when none).
    pub median_wall_secs: f64,
    /// The live run's wall seconds.
    pub live_wall_secs: f64,
    /// `live / median` (0 when no history).
    pub ratio: f64,
    /// The tolerance the verdict was judged at.
    pub tolerance: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// Compare `live` against the matching entries of `history` at a
/// slowdown `tolerance` (e.g. 1.5 = fail when more than 50 % slower than
/// the median).
pub fn check_regression(
    live: &RunSummary,
    history: &[RunSummary],
    tolerance: f64,
) -> RegressionReport {
    let mut walls: Vec<f64> = history
        .iter()
        .filter(|h| h.same_config(live))
        .map(|h| h.wall_secs)
        .collect();
    if walls.is_empty() {
        return RegressionReport {
            matched: 0,
            median_wall_secs: 0.0,
            live_wall_secs: live.wall_secs,
            ratio: 0.0,
            tolerance,
            verdict: Verdict::NoHistory,
        };
    }
    walls.sort_by(f64::total_cmp);
    let median_wall_secs = walls[(walls.len() - 1) / 2];
    let ratio = if median_wall_secs > 0.0 {
        live.wall_secs / median_wall_secs
    } else {
        1.0
    };
    let verdict = if ratio > tolerance {
        Verdict::Regression
    } else {
        Verdict::Pass
    };
    RegressionReport {
        matched: walls.len(),
        median_wall_secs,
        live_wall_secs: live.wall_secs,
        ratio,
        tolerance,
        verdict,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(wall: f64) -> RunSummary {
        RunSummary {
            n: 256,
            p: 8,
            c: 2,
            kernel: "allpairs".into(),
            git_rev: "abc1234".into(),
            steps: 4,
            wall_secs: wall,
            compute_secs: wall * 0.7,
            comm_secs: wall * 0.2,
            blocked_secs: wall * 0.1,
            max_imbalance: 1.3,
            recorded_unix: 1700000000,
        }
    }

    #[test]
    fn json_line_round_trips() {
        let s = summary(0.125);
        let line = s.to_json_line();
        assert!(!line.contains('\n'));
        let back = RunSummary::from_json(&Json::parse(&line).unwrap()).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn history_parse_reports_offending_line() {
        let good = summary(0.1).to_json_line();
        let text = format!("{good}\n\n{good}\n{{\"n\": 1,\n");
        let err = parse_history(&text).unwrap_err();
        assert!(err.starts_with("line 4:"), "got: {err}");
        let ok = parse_history(&format!("{good}\n{good}\n")).unwrap();
        assert_eq!(ok.len(), 2);
    }

    #[test]
    fn regression_verdicts() {
        let history = vec![summary(0.10), summary(0.12), summary(0.11)];
        // Live at 0.12 vs median 0.11: ratio ~1.09, passes at 1.5.
        let r = check_regression(&summary(0.12), &history, 1.5);
        assert_eq!(r.verdict, Verdict::Pass);
        assert_eq!(r.matched, 3);
        assert!((r.median_wall_secs - 0.11).abs() < 1e-12);
        // Live at 0.30: ratio ~2.7, fails at 1.5.
        let r = check_regression(&summary(0.30), &history, 1.5);
        assert_eq!(r.verdict, Verdict::Regression);
        assert!(r.ratio > 2.0);
        // A different configuration has no history.
        let mut other = summary(0.30);
        other.p = 16;
        let r = check_regression(&other, &history, 1.5);
        assert_eq!(r.verdict, Verdict::NoHistory);
        assert_eq!(r.matched, 0);
    }

    #[test]
    fn git_rev_is_not_part_of_the_key() {
        let mut old = summary(0.1);
        old.git_rev = "old0000".into();
        let r = check_regression(&summary(0.1), &[old], 1.5);
        assert_eq!(r.matched, 1);
        assert_eq!(r.verdict, Verdict::Pass);
    }
}
