//! Event traces of simulated executions.
//!
//! [`simulate_traced`] records a bounded per-rank timeline alongside the
//! normal report — the tool for debugging schedules (who waited on whom,
//! when a collective released) and for visualizing pipelines.

use nbody_comm::Phase;

use crate::des::simulate_with_observer;
use crate::machine::Machine;
use crate::op::Op;
use crate::report::SimReport;

/// One recorded event: a rank's clock advanced from `start` to `end`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Acting rank.
    pub rank: u32,
    /// Virtual time the activity began.
    pub start: f64,
    /// Virtual time the activity ended.
    pub end: f64,
    /// What happened.
    pub kind: TraceKind,
}

/// Kinds of traced activity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceKind {
    /// Local force evaluation.
    Compute,
    /// Posting a message to `to`.
    Send {
        /// Destination rank.
        to: u32,
        /// Payload size on the (simulated) wire.
        bytes: u64,
        /// Phase attribution.
        phase: Phase,
    },
    /// Waiting for (and consuming) a message from `from`.
    Recv {
        /// Source rank.
        from: u32,
        /// Phase attribution.
        phase: Phase,
    },
    /// Participating in a collective of `members` ranks.
    Collective {
        /// Team size.
        members: u32,
        /// Phase attribution.
        phase: Phase,
    },
}

impl TraceKind {
    /// Short label of the kind.
    pub fn label(&self) -> &'static str {
        match self {
            TraceKind::Compute => "compute",
            TraceKind::Send { .. } => "send",
            TraceKind::Recv { .. } => "recv",
            TraceKind::Collective { .. } => "collective",
        }
    }
}

/// A bounded trace of a simulation.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Events in completion order (per the engine's scheduling).
    pub events: Vec<TraceEvent>,
    /// Whether the cap was hit and events were dropped.
    pub truncated: bool,
}

/// Run [`simulate`](crate::des::simulate) while recording up to
/// `max_events` trace events (drops the rest and marks the trace
/// truncated).
pub fn simulate_traced<I, G>(
    machine: &Machine,
    p: usize,
    programs: G,
    max_events: usize,
) -> (SimReport, Trace)
where
    I: Iterator<Item = Op>,
    G: Fn(usize) -> I,
{
    let mut trace = Trace::default();
    let report = simulate_with_observer(machine, p, programs, &mut |event: TraceEvent| {
        if trace.events.len() < max_events {
            trace.events.push(event);
        } else {
            trace.truncated = true;
        }
    });
    (report, trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::test_machine;

    fn ring_programs(p: usize, steps: usize) -> impl Fn(usize) -> std::vec::IntoIter<Op> {
        move |r| {
            (0..steps)
                .flat_map(|_| {
                    [
                        Op::Send {
                            to: (r + 1) % p,
                            bytes: 100,
                            phase: Phase::Shift,
                        },
                        Op::Recv {
                            from: (r + p - 1) % p,
                            phase: Phase::Shift,
                        },
                        Op::Compute { interactions: 5 },
                    ]
                })
                .collect::<Vec<_>>()
                .into_iter()
        }
    }

    #[test]
    fn trace_records_all_event_kinds() {
        let m = test_machine();
        let (report, trace) = simulate_traced(&m, 4, ring_programs(4, 3), 10_000);
        assert!(!trace.truncated);
        assert!(report.makespan > 0.0);
        let kinds: std::collections::HashSet<&str> =
            trace.events.iter().map(|e| e.kind.label()).collect();
        assert!(kinds.contains("send"));
        assert!(kinds.contains("recv"));
        assert!(kinds.contains("compute"));
        // 4 ranks x 3 steps x 3 ops.
        assert_eq!(trace.events.len(), 36);
    }

    #[test]
    fn timelines_are_monotone_per_rank() {
        let m = test_machine();
        let (_, trace) = simulate_traced(&m, 6, ring_programs(6, 5), 10_000);
        for rank in 0..6 {
            let mut tl: Vec<_> = trace.events.iter().filter(|e| e.rank == rank).collect();
            tl.sort_by(|a, b| a.start.total_cmp(&b.start));
            assert!(!tl.is_empty());
            for w in tl.windows(2) {
                assert!(
                    w[1].start >= w[0].end - 1e-12,
                    "rank {rank}: overlapping events {w:?}"
                );
            }
            for e in &tl {
                assert!(e.end >= e.start);
            }
        }
    }

    #[test]
    fn trace_caps_and_marks_truncation() {
        let m = test_machine();
        let (_, trace) = simulate_traced(&m, 4, ring_programs(4, 10), 7);
        assert!(trace.truncated);
        assert_eq!(trace.events.len(), 7);
    }

    #[test]
    fn traced_report_matches_untraced() {
        let m = test_machine();
        let plain = crate::des::simulate(&m, 5, ring_programs(5, 4));
        let (traced, _) = simulate_traced(&m, 5, ring_programs(5, 4), 10_000);
        assert_eq!(plain.makespan, traced.makespan);
        assert_eq!(plain.per_rank, traced.per_rank);
    }
}
