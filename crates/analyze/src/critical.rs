//! Cross-rank critical-path extraction.
//!
//! Every driver wraps each timestep in a per-rank `"step"` span, so the
//! rank whose step span *ends last* is the one the barrier-like reduce at
//! the end of the step actually waited for — the critical rank. Within
//! that rank's step window the phase windows split its time into compute
//! ([`Phase::Other`]) and communication, and the blocked spans (tagged
//! with the late sender's global rank and the skew/shift pipeline step)
//! say how much of the communication time was spent waiting and on whom.

use std::collections::BTreeMap;

use nbody_trace::{ExecutionTrace, Phase, Span, SpanKind};

/// The critical path of one timestep.
#[derive(Debug, Clone, PartialEq)]
pub struct StepCritical {
    /// Zero-based timestep index.
    pub step: u32,
    /// Earliest step-span start to latest step-span end across ranks.
    pub makespan_secs: f64,
    /// Rank whose step span ends last (ties break to the lower rank).
    pub critical_rank: u32,
    /// The critical rank's own step-span duration.
    pub critical_secs: f64,
    /// Compute ([`Phase::Other`]) seconds on the critical rank in-step.
    pub compute_secs: f64,
    /// Communication (non-`Other` phase) seconds on the critical rank
    /// in-step, including the blocked portion.
    pub comm_secs: f64,
    /// Blocked-wait seconds on the critical rank in-step.
    pub blocked_secs: f64,
    /// The peer the critical rank waited on longest, if any wait carried
    /// sender attribution.
    pub blamed_peer: Option<u32>,
    /// The skew/shift pipeline step (0 = skew, `s` = shift step `s`) in
    /// which the longest-attributed wait occurred.
    pub blamed_pstep: Option<u32>,
}

fn overlap(s: &Span, lo: f64, hi: f64) -> f64 {
    (s.end.min(hi) - s.start.max(lo)).max(0.0)
}

/// Per-timestep critical path, in step order.
///
/// Traces without `"step"` driver spans (phase-only traces, or traces
/// from code outside the step drivers) are treated as a single pseudo
/// timestep spanning the whole execution, so the analysis degrades
/// gracefully instead of vanishing.
pub fn critical_path(trace: &ExecutionTrace) -> Vec<StepCritical> {
    // (step, rank) -> per-rank step window [start, end].
    let mut windows: BTreeMap<(u32, u32), (f64, f64)> = BTreeMap::new();
    for s in &trace.spans {
        if let SpanKind::Driver { name, step } = &s.kind {
            if name == "step" {
                let w = windows.entry((*step, s.rank)).or_insert((s.start, s.end));
                w.0 = w.0.min(s.start);
                w.1 = w.1.max(s.end);
            }
        }
    }
    if windows.is_empty() && !trace.spans.is_empty() {
        // Pseudo-step 0: each rank's window is its full recorded extent.
        for s in &trace.spans {
            let w = windows.entry((0, s.rank)).or_insert((s.start, s.end));
            w.0 = w.0.min(s.start);
            w.1 = w.1.max(s.end);
        }
    }

    // step -> Vec<(rank, start, end)>
    let mut by_step: BTreeMap<u32, Vec<(u32, f64, f64)>> = BTreeMap::new();
    for ((step, rank), (start, end)) in windows {
        by_step.entry(step).or_default().push((rank, start, end));
    }

    let mut out = Vec::with_capacity(by_step.len());
    for (step, ranks) in by_step {
        let first_start = ranks.iter().map(|r| r.1).fold(f64::INFINITY, f64::min);
        let (critical_rank, crit_start, crit_end) = ranks
            .iter()
            .copied()
            .max_by(|a, b| a.2.total_cmp(&b.2).then(b.0.cmp(&a.0)))
            .expect("step group is non-empty");

        let mut compute = 0.0;
        let mut comm = 0.0;
        let mut blocked = 0.0;
        let mut by_peer: BTreeMap<u32, f64> = BTreeMap::new();
        let mut by_pstep: BTreeMap<u32, f64> = BTreeMap::new();
        for s in &trace.spans {
            if s.rank != critical_rank {
                continue;
            }
            let secs = overlap(s, crit_start, crit_end);
            if secs <= 0.0 {
                continue;
            }
            match &s.kind {
                SpanKind::Phase(Phase::Other) => compute += secs,
                SpanKind::Phase(_) => comm += secs,
                SpanKind::Blocked { peer, step, .. } => {
                    blocked += secs;
                    if let Some(p) = peer {
                        *by_peer.entry(*p).or_insert(0.0) += secs;
                    }
                    if let Some(ps) = step {
                        *by_pstep.entry(*ps).or_insert(0.0) += secs;
                    }
                }
                SpanKind::Driver { .. } => {}
            }
        }
        let argmax =
            |m: &BTreeMap<u32, f64>| m.iter().max_by(|a, b| a.1.total_cmp(b.1)).map(|(k, _)| *k);
        out.push(StepCritical {
            step,
            makespan_secs: crit_end - first_start,
            critical_rank,
            critical_secs: crit_end - crit_start,
            compute_secs: compute,
            comm_secs: comm,
            blocked_secs: blocked,
            blamed_peer: argmax(&by_peer),
            blamed_pstep: argmax(&by_pstep),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::two_rank_trace;
    use nbody_trace::Span;

    #[test]
    fn picks_latest_ending_rank_per_step() {
        let steps = critical_path(&two_rank_trace());
        assert_eq!(steps.len(), 2);

        // Step 0: rank 1 ends at 1.0, rank 0 at 0.8.
        assert_eq!(steps[0].critical_rank, 1);
        assert!((steps[0].makespan_secs - 1.0).abs() < 1e-12);
        assert!((steps[0].compute_secs - 0.9).abs() < 1e-12);
        assert!((steps[0].comm_secs - 0.1).abs() < 1e-12);
        assert_eq!(steps[0].blocked_secs, 0.0);
        assert_eq!(steps[0].blamed_peer, None);

        // Step 1: rank 0 ends at 2.0, blocked 0.3 s on rank 1 in pstep 2.
        assert_eq!(steps[1].critical_rank, 0);
        assert!((steps[1].makespan_secs - 1.2).abs() < 1e-12);
        assert!((steps[1].blocked_secs - 0.3).abs() < 1e-12);
        assert_eq!(steps[1].blamed_peer, Some(1));
        assert_eq!(steps[1].blamed_pstep, Some(2));
    }

    #[test]
    fn phase_only_trace_becomes_one_pseudo_step() {
        let t = ExecutionTrace::from_rank_buffers(vec![vec![Span {
            rank: 0,
            kind: SpanKind::Phase(Phase::Other),
            start: 0.0,
            end: 2.5,
        }]]);
        let steps = critical_path(&t);
        assert_eq!(steps.len(), 1);
        assert_eq!(steps[0].step, 0);
        assert_eq!(steps[0].critical_rank, 0);
        assert!((steps[0].makespan_secs - 2.5).abs() < 1e-12);
        assert!((steps[0].compute_secs - 2.5).abs() < 1e-12);
    }

    #[test]
    fn single_rank_run_is_its_own_critical_path() {
        // p = 1: no comm spans at all; the sole rank is trivially critical.
        let mk = |kind, start: f64, end: f64| Span {
            rank: 0,
            kind,
            start,
            end,
        };
        let t = ExecutionTrace::from_rank_buffers(vec![vec![
            mk(
                SpanKind::Driver {
                    name: "step".into(),
                    step: 0,
                },
                0.0,
                1.0,
            ),
            mk(SpanKind::Phase(Phase::Other), 0.0, 1.0),
        ]]);
        let steps = critical_path(&t);
        assert_eq!(steps.len(), 1);
        assert_eq!(steps[0].critical_rank, 0);
        assert_eq!(steps[0].comm_secs, 0.0);
        assert_eq!(steps[0].blocked_secs, 0.0);
        assert_eq!(steps[0].blamed_peer, None);
    }

    #[test]
    fn empty_trace_yields_no_steps() {
        let steps = critical_path(&ExecutionTrace::default());
        assert!(steps.is_empty());
    }
}
