//! # nbody-analyze
//!
//! Post-run diagnosis for the reproduction of *"A Communication-Optimal
//! N-Body Algorithm for Direct Interactions"* (IPDPS 2013).
//!
//! `nbody-trace` records when things happened and `nbody-metrics` records
//! how much moved; this crate answers the questions a performance engineer
//! actually asks after a run:
//!
//! * [`critical`] — which rank's compute or blocked-wait dominated each
//!   timestep's makespan, and which late sender (via the skew/shift
//!   pipeline-step tags on blocked spans) is to blame.
//! * [`heatmap`] — send/recv traffic and wait time arranged on the
//!   paper's `p/c × c` processor grid, so hot rows or columns are visible
//!   at a glance.
//! * [`stragglers`] — ranks ranked by how often they end the critical
//!   path and how much wait they inflict on their peers.
//! * [`report`] — human tables and the JSON rendering of an
//!   [`Analysis`], whose per-phase table is the trace's
//!   [`PhaseBreakdown`]: per-rank seconds across ranks, the rank holding
//!   the maximum and the load-imbalance factor `max/mean`, the
//!   first-order symptom of a skewed particle distribution. Plus the
//!   drift-window table `ca-nbody analyze <bundle>` prints from the run
//!   bundle's timeline.
//! * [`wire`] — the message-level lens: per-channel send→recv latency
//!   tables from a `nbody-wireprobe` log (`analyze --wire`).
//!
//! Everything consumes what a traced run already wrote: the sections of
//! its run bundle (`--trace=…`) and its wire log; nothing here needs the
//! live execution.

#![warn(missing_docs)]

pub mod critical;
pub mod heatmap;
pub mod report;
pub mod stragglers;
pub mod wire;

pub use critical::{critical_path, StepCritical};
pub use heatmap::{grid_heatmap, GridHeatmap};
pub use report::{render_drift, render_heatmap, render_json, render_table};
pub use stragglers::{rank_stragglers, Straggler};
pub use wire::render_wire;

use nbody_metrics::MetricsSnapshot;
use nbody_trace::{ExecutionTrace, PhaseBreakdown, StepReport};

/// The complete post-run diagnosis of one traced execution.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// Spans in the trace.
    pub spans: usize,
    /// Per-phase seconds across ranks, with the traced wall time and
    /// rank count.
    pub breakdown: PhaseBreakdown,
    /// Per-timestep critical path, in step order.
    pub steps: Vec<StepCritical>,
    /// Per-timestep driver sections across ranks, in step order.
    pub sections: Vec<StepReport>,
    /// Every rank ranked by straggler evidence, worst first.
    pub stragglers: Vec<Straggler>,
    /// Traffic/wait heat-map on the `p/c × c` grid; `None` when the rank
    /// count is not divisible by the requested replication factor.
    pub heatmap: Option<GridHeatmap>,
}

impl Analysis {
    /// Seconds of the total makespan spent in compute / communication /
    /// blocked waits *on the per-step critical ranks* — the time that
    /// actually gates the run, as opposed to mean-across-ranks phase time.
    pub fn critical_split(&self) -> (f64, f64, f64) {
        let mut compute = 0.0;
        let mut comm = 0.0;
        let mut blocked = 0.0;
        for s in &self.steps {
            compute += s.compute_secs;
            comm += s.comm_secs;
            blocked += s.blocked_secs;
        }
        (compute, comm, blocked)
    }
}

/// Diagnose one execution. `metrics` feeds the traffic heat-map and the
/// stragglers' GFLOP/s (an empty snapshot leaves them zero); `c` is the
/// replication factor used to arrange ranks on the grid.
pub fn analyze(trace: &ExecutionTrace, metrics: &MetricsSnapshot, c: usize) -> Analysis {
    let steps = critical_path(trace);
    let stragglers = rank_stragglers(trace, &steps, metrics);
    let heatmap = grid_heatmap(trace, metrics, c).ok();
    Analysis {
        spans: trace.spans.len(),
        breakdown: trace.phase_breakdown(),
        steps,
        sections: trace.step_reports(),
        stragglers,
        heatmap,
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use nbody_trace::{ExecutionTrace, Phase, Span, SpanKind};

    /// Two ranks, two steps. Rank 1 is the slow one in step 0 (long
    /// compute); rank 0 is critical in step 1 because it blocks 0.3 s on
    /// rank 1 during shift step 2.
    pub fn two_rank_trace() -> ExecutionTrace {
        let mk = |rank, kind, start: f64, end: f64| Span {
            rank,
            kind,
            start,
            end,
        };
        let driver = |name: &str, step| SpanKind::Driver {
            name: name.to_string(),
            step,
        };
        ExecutionTrace::from_rank_buffers(vec![
            vec![
                mk(0, driver("step", 0), 0.0, 0.8),
                mk(0, SpanKind::Phase(Phase::Other), 0.0, 0.5),
                mk(0, SpanKind::Phase(Phase::Shift), 0.5, 0.8),
                mk(0, driver("step", 1), 0.8, 2.0),
                mk(0, SpanKind::Phase(Phase::Other), 0.8, 1.5),
                mk(0, SpanKind::Phase(Phase::Shift), 1.5, 2.0),
                mk(
                    0,
                    SpanKind::Blocked {
                        phase: Phase::Shift,
                        peer: Some(1),
                        step: Some(2),
                    },
                    1.6,
                    1.9,
                ),
            ],
            vec![
                mk(1, driver("step", 0), 0.0, 1.0),
                mk(1, SpanKind::Phase(Phase::Other), 0.0, 0.9),
                mk(1, SpanKind::Phase(Phase::Shift), 0.9, 1.0),
                mk(1, driver("step", 1), 1.0, 1.9),
                mk(1, SpanKind::Phase(Phase::Other), 1.0, 1.8),
                mk(1, SpanKind::Phase(Phase::Shift), 1.8, 1.9),
            ],
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analyze_assembles_all_parts() {
        let t = testutil::two_rank_trace();
        let a = analyze(&t, &MetricsSnapshot::default(), 1);
        assert_eq!(a.breakdown.ranks, 2);
        assert_eq!(a.steps.len(), 2);
        assert_eq!(a.sections.len(), 2);
        assert!(!a.breakdown.phases.is_empty());
        assert_eq!(a.stragglers.len(), 2);
        assert!(a.heatmap.is_some());
        let (compute, comm, blocked) = a.critical_split();
        assert!(compute > 0.0);
        assert!(comm > 0.0);
        assert!(blocked > 0.0);
    }

    #[test]
    fn bad_replication_factor_drops_heatmap_only() {
        let t = testutil::two_rank_trace();
        // 2 ranks cannot form a grid with c = 3.
        let a = analyze(&t, &MetricsSnapshot::default(), 3);
        assert!(a.heatmap.is_none());
        assert_eq!(a.steps.len(), 2);
    }
}
