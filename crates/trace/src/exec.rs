//! Merged whole-execution traces and their one encoding.
//!
//! An [`ExecutionTrace`] holds every rank's spans against the shared
//! epoch. It is written as Chrome `trace_event` JSON (Perfetto-loadable,
//! and what [`ExecutionTrace::parse`] reads back), and computes the
//! per-phase/per-step statistical summaries printed by `ca-nbody analyze`.

use std::collections::BTreeMap;

use crate::json::{escape_into, num_into, Json};
use crate::phase::{Phase, ALL_PHASES, PHASE_COUNT};
use crate::span::{Span, SpanKind};

/// Distribution summary of one quantity across ranks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistStat {
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (nearest-rank).
    pub p50: f64,
    /// 95th percentile (nearest-rank).
    pub p95: f64,
    /// Maximum.
    pub max: f64,
}

impl DistStat {
    /// Summarize `samples` (sorted in place). Zeroes for an empty slice.
    pub fn from_samples(samples: &mut [f64]) -> DistStat {
        if samples.is_empty() {
            return DistStat {
                mean: 0.0,
                p50: 0.0,
                p95: 0.0,
                max: 0.0,
            };
        }
        samples.sort_by(f64::total_cmp);
        let n = samples.len();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let rank = |q: f64| samples[(((q * n as f64).ceil() as usize).max(1) - 1).min(n - 1)];
        DistStat {
            mean,
            p50: rank(0.50),
            p95: rank(0.95),
            max: samples[n - 1],
        }
    }
}

/// One phase of a [`PhaseBreakdown`]: how each rank's total seconds
/// inside the phase's windows spread across ranks, who holds the most, and
/// how much of it was spent blocked.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseRow {
    /// The phase.
    pub phase: Phase,
    /// Across-rank distribution of per-rank seconds in the phase.
    pub secs: DistStat,
    /// The rank holding the maximum (the lowest one on a tie).
    pub max_rank: u32,
    /// Mean per-rank blocked seconds attributed to the phase.
    pub blocked: f64,
}

impl PhaseRow {
    /// Load imbalance `max / mean`: 1.0 for a balanced phase, `p` when one
    /// of `p` ranks does all of it.
    pub fn imbalance(&self) -> f64 {
        if self.secs.mean > 0.0 {
            self.secs.max / self.secs.mean
        } else {
            1.0
        }
    }
}

/// Per-phase summary of one execution, in figure order, for the phases
/// that recorded time.
#[derive(Debug, Clone)]
pub struct PhaseBreakdown {
    /// Ranks in the execution.
    pub ranks: usize,
    /// Total traced wall time (latest span end), seconds.
    pub wall_secs: f64,
    /// One row per phase with time on some rank.
    pub phases: Vec<PhaseRow>,
}

impl PhaseBreakdown {
    /// Sum of per-phase mean seconds. Because phase windows tile each
    /// rank's timeline, this is within scheduler noise of
    /// [`wall_secs`](PhaseBreakdown::wall_secs).
    pub fn phase_sum_secs(&self) -> f64 {
        self.phases.iter().map(|r| r.secs.mean).sum()
    }

    /// `secs` as a fraction of the traced wall time.
    pub fn share(&self, secs: f64) -> f64 {
        secs / self.wall_secs.max(f64::MIN_POSITIVE)
    }
}

/// Per-timestep summary: for each driver section (`integrate`, `force`,
/// `reassign`, `step`), the distribution across ranks of that rank's total
/// seconds in the section during this step.
#[derive(Debug, Clone)]
pub struct StepReport {
    /// Zero-based timestep index.
    pub step: u32,
    /// `(section name, across-rank distribution)` pairs, sorted by name.
    pub parts: Vec<(String, DistStat)>,
}

/// All ranks' spans for one execution, merged at join.
#[derive(Debug, Clone, Default)]
pub struct ExecutionTrace {
    /// Number of ranks.
    pub ranks: usize,
    /// Every recorded span, grouped by rank in rank order.
    pub spans: Vec<Span>,
}

impl ExecutionTrace {
    /// Merge per-rank buffers (index = rank) into one trace.
    pub fn from_rank_buffers(buffers: Vec<Vec<Span>>) -> ExecutionTrace {
        let ranks = buffers.len();
        let spans = buffers.into_iter().flatten().collect();
        ExecutionTrace { ranks, spans }
    }

    /// Latest span end, in seconds since the epoch — the execution's
    /// traced wall time.
    pub fn wall_secs(&self) -> f64 {
        self.spans.iter().map(|s| s.end).fold(0.0, f64::max)
    }

    /// The per-phase breakdown across ranks: the one place per-phase
    /// statistics across ranks are computed.
    pub fn phase_breakdown(&self) -> PhaseBreakdown {
        let mut per_rank = vec![[0.0f64; PHASE_COUNT]; self.ranks];
        let mut blocked = [0.0f64; PHASE_COUNT];
        for s in &self.spans {
            match s.kind {
                SpanKind::Phase(p) => per_rank[s.rank as usize][p.index()] += s.secs(),
                SpanKind::Blocked { phase, .. } => blocked[phase.index()] += s.secs(),
                SpanKind::Driver { .. } => {}
            }
        }
        let ranks = self.ranks.max(1) as f64;
        let phases = ALL_PHASES
            .into_iter()
            .filter_map(|phase| {
                let i = phase.index();
                // The first rank holding the maximum.
                let max_rank = (0..per_rank.len()).fold(0, |at, rank| {
                    if per_rank[rank][i] > per_rank[at][i] {
                        rank
                    } else {
                        at
                    }
                });
                let mut samples: Vec<f64> = per_rank.iter().map(|row| row[i]).collect();
                let secs = DistStat::from_samples(&mut samples);
                (secs.max > 0.0).then_some(PhaseRow {
                    phase,
                    secs,
                    max_rank: max_rank as u32,
                    blocked: blocked[i] / ranks,
                })
            })
            .collect();
        PhaseBreakdown {
            ranks: self.ranks,
            wall_secs: self.wall_secs(),
            phases,
        }
    }

    /// Per-timestep driver-section summaries, in step order.
    pub fn step_reports(&self) -> Vec<StepReport> {
        // (step, name) -> rank -> seconds
        let mut acc: BTreeMap<(u32, &str), BTreeMap<u32, f64>> = BTreeMap::new();
        for s in &self.spans {
            if let SpanKind::Driver { name, step } = &s.kind {
                *acc.entry((*step, name.as_str()))
                    .or_default()
                    .entry(s.rank)
                    .or_insert(0.0) += s.secs();
            }
        }
        let mut by_step: BTreeMap<u32, Vec<(String, DistStat)>> = BTreeMap::new();
        for ((step, name), per_rank) in acc {
            let mut samples: Vec<f64> = per_rank.into_values().collect();
            by_step
                .entry(step)
                .or_default()
                .push((name.to_string(), DistStat::from_samples(&mut samples)));
        }
        by_step
            .into_iter()
            .map(|(step, parts)| StepReport { step, parts })
            .collect()
    }

    /// The phases that actually have a window in the trace.
    pub fn phases_present(&self) -> Vec<Phase> {
        ALL_PHASES
            .into_iter()
            .filter(|p| self.spans.iter().any(|s| s.kind == SpanKind::Phase(*p)))
            .collect()
    }

    /// Chrome `trace_event` JSON, loadable in Perfetto or
    /// `chrome://tracing`. Spans are complete (`"ph":"X"`) events with
    /// microsecond timestamps; each category gets its own pid (process
    /// track) so phase windows, blocked intervals, and driver sections
    /// render as three parallel lanes with one thread per rank.
    pub fn to_chrome_json(&self) -> String {
        const PID_DRIVER: u32 = 0;
        const PID_PHASE: u32 = 1;
        const PID_BLOCKED: u32 = 2;
        let mut out = String::with_capacity(128 * self.spans.len() + 1024);
        out.push_str("{\"traceEvents\":[");
        let mut first = true;
        let mut push_event =
            |out: &mut String, name: &str, pid: u32, tid: u32, ts: f64, dur: f64, args: &str| {
                if !first {
                    out.push(',');
                }
                first = false;
                out.push_str("{\"name\":\"");
                escape_into(out, name);
                out.push_str("\",\"ph\":\"X\",\"pid\":");
                num_into(out, pid as f64);
                out.push_str(",\"tid\":");
                num_into(out, tid as f64);
                out.push_str(",\"ts\":");
                num_into(out, ts);
                out.push_str(",\"dur\":");
                num_into(out, dur);
                out.push_str(",\"cat\":\"");
                out.push_str(match pid {
                    PID_PHASE => "comm-phase",
                    PID_BLOCKED => "blocked",
                    _ => "driver",
                });
                out.push_str("\",\"args\":");
                out.push_str(args);
                out.push('}');
            };
        for s in &self.spans {
            let ts = s.start * 1e6;
            let dur = s.secs() * 1e6;
            match &s.kind {
                SpanKind::Phase(p) => {
                    let args = format!("{{\"phase\":\"{}\"}}", p.label());
                    push_event(&mut out, p.label(), PID_PHASE, s.rank, ts, dur, &args);
                }
                SpanKind::Blocked { phase, peer, step } => {
                    let mut args = format!("{{\"phase\":\"{}\"", phase.label());
                    if let Some(peer) = peer {
                        args.push_str(&format!(",\"peer\":{peer}"));
                    }
                    if let Some(step) = step {
                        args.push_str(&format!(",\"pstep\":{step}"));
                    }
                    args.push('}');
                    push_event(&mut out, "blocked", PID_BLOCKED, s.rank, ts, dur, &args);
                }
                SpanKind::Driver { name, step } => {
                    let args = format!("{{\"step\":{step}}}");
                    push_event(&mut out, name, PID_DRIVER, s.rank, ts, dur, &args);
                }
            }
        }
        // Metadata: name the three process tracks and each rank thread.
        for (pid, pname) in [
            (PID_DRIVER, "driver"),
            (PID_PHASE, "comm phases"),
            (PID_BLOCKED, "blocked"),
        ] {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
                 \"args\":{{\"name\":\"{pname}\"}}}}"
            ));
            for rank in 0..self.ranks {
                out.push_str(&format!(
                    ",{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{rank},\
                     \"args\":{{\"name\":\"rank {rank}\"}}}}"
                ));
            }
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        out
    }

    /// Parse a Chrome `trace_event` JSON document produced by
    /// [`to_chrome_json`](ExecutionTrace::to_chrome_json).
    pub fn parse(text: &str) -> Result<ExecutionTrace, String> {
        ExecutionTrace::from_json(&Json::parse(text)?)
    }

    /// Read the `traceEvents` of a parsed Chrome trace object, whatever
    /// other keys sit beside them.
    pub fn from_json(doc: &Json) -> Result<ExecutionTrace, String> {
        let events = doc
            .get("traceEvents")
            .and_then(Json::as_array)
            .ok_or("missing traceEvents array")?;
        let mut spans = Vec::new();
        let mut max_rank = 0u32;
        for ev in events {
            let ph = ev.get("ph").and_then(Json::as_str).unwrap_or("");
            if ph != "X" {
                continue;
            }
            let rank = ev
                .get("tid")
                .and_then(Json::as_f64)
                .ok_or("span without tid")? as u32;
            let ts = ev
                .get("ts")
                .and_then(Json::as_f64)
                .ok_or("span without ts")?;
            let dur = ev
                .get("dur")
                .and_then(Json::as_f64)
                .ok_or("span without dur")?;
            let name = ev.get("name").and_then(Json::as_str).unwrap_or("");
            let cat = ev.get("cat").and_then(Json::as_str).unwrap_or("");
            let kind = match cat {
                "comm-phase" => SpanKind::Phase(
                    Phase::from_label(name).ok_or_else(|| format!("unknown phase '{name}'"))?,
                ),
                "blocked" => {
                    let args = ev.get("args");
                    let label = args
                        .and_then(|a| a.get("phase"))
                        .and_then(Json::as_str)
                        .unwrap_or("other");
                    let field = |key: &str| {
                        args.and_then(|a| a.get(key))
                            .and_then(Json::as_f64)
                            .map(|v| v as u32)
                    };
                    SpanKind::Blocked {
                        phase: Phase::from_label(label).unwrap_or(Phase::Other),
                        peer: field("peer"),
                        step: field("pstep"),
                    }
                }
                _ => {
                    let step = ev
                        .get("args")
                        .and_then(|a| a.get("step"))
                        .and_then(Json::as_f64)
                        .unwrap_or(0.0) as u32;
                    SpanKind::Driver {
                        name: name.to_string(),
                        step,
                    }
                }
            };
            max_rank = max_rank.max(rank);
            spans.push(Span {
                rank,
                kind,
                start: ts / 1e6,
                end: (ts + dur) / 1e6,
            });
        }
        if spans.is_empty() {
            return Err("trace contains no spans".into());
        }
        Ok(ExecutionTrace {
            ranks: max_rank as usize + 1,
            spans,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> ExecutionTrace {
        // Two ranks; phase windows tile [0, 1.0] on each.
        let mk = |rank, kind, start, end| Span {
            rank,
            kind,
            start,
            end,
        };
        ExecutionTrace::from_rank_buffers(vec![
            vec![
                mk(0, SpanKind::Phase(Phase::Other), 0.0, 0.4),
                mk(0, SpanKind::Phase(Phase::Shift), 0.4, 0.9),
                mk(0, SpanKind::Phase(Phase::Reduce), 0.9, 1.0),
                mk(
                    0,
                    SpanKind::Blocked {
                        phase: Phase::Shift,
                        peer: Some(3),
                        step: Some(2),
                    },
                    0.5,
                    0.6,
                ),
                mk(
                    0,
                    SpanKind::Driver {
                        name: "force".into(),
                        step: 0,
                    },
                    0.1,
                    0.9,
                ),
            ],
            vec![
                mk(1, SpanKind::Phase(Phase::Other), 0.0, 0.5),
                mk(1, SpanKind::Phase(Phase::Shift), 0.5, 0.8),
                mk(1, SpanKind::Phase(Phase::Reduce), 0.8, 1.0),
                mk(
                    1,
                    SpanKind::Driver {
                        name: "force".into(),
                        step: 0,
                    },
                    0.1,
                    0.8,
                ),
            ],
        ])
    }

    #[test]
    fn dist_stat_percentiles() {
        let mut xs = vec![4.0, 1.0, 3.0, 2.0];
        let d = DistStat::from_samples(&mut xs);
        assert_eq!(d.p50, 2.0);
        assert_eq!(d.p95, 4.0);
        assert_eq!(d.max, 4.0);
        assert!((d.mean - 2.5).abs() < 1e-12);
        let d0 = DistStat::from_samples(&mut []);
        assert_eq!(d0.max, 0.0);
        let mut one = vec![7.0];
        let d1 = DistStat::from_samples(&mut one);
        assert_eq!((d1.p50, d1.p95, d1.max), (7.0, 7.0, 7.0));
    }

    #[test]
    fn breakdown_sums_to_wall() {
        let t = sample_trace();
        let b = t.phase_breakdown();
        assert_eq!(b.ranks, 2);
        assert!((b.wall_secs - 1.0).abs() < 1e-12);
        // Windows tile [0,1] on both ranks, so mean phase sum == wall.
        assert!((b.phase_sum_secs() - 1.0).abs() < 1e-12);
        // Phases with no windows are not reported.
        let phases: Vec<Phase> = b.phases.iter().map(|r| r.phase).collect();
        assert_eq!(phases, vec![Phase::Shift, Phase::Reduce, Phase::Other]);
        let shift = b.phases[0];
        assert!((shift.secs.mean - 0.4).abs() < 1e-12);
        assert!((shift.secs.max - 0.5).abs() < 1e-12);
        assert_eq!(shift.max_rank, 0);
        assert!((shift.imbalance() - 0.5 / 0.4).abs() < 1e-12);
        // Blocked: 0.1 s on rank 0 only, mean 0.05.
        assert!((shift.blocked - 0.05).abs() < 1e-12);
        // Other: rank 1 holds the maximum.
        let other = b.phases[2];
        assert_eq!(other.max_rank, 1);
        assert!((other.imbalance() - 0.5 / 0.45).abs() < 1e-12);
    }

    #[test]
    fn a_single_rank_is_balanced_and_an_empty_trace_has_no_rows() {
        let t = ExecutionTrace::from_rank_buffers(vec![vec![Span {
            rank: 0,
            kind: SpanKind::Phase(Phase::Other),
            start: 0.0,
            end: 1.0,
        }]]);
        let b = t.phase_breakdown();
        assert_eq!(b.phases.len(), 1);
        assert!((b.phases[0].imbalance() - 1.0).abs() < 1e-12);
        assert!(ExecutionTrace::default()
            .phase_breakdown()
            .phases
            .is_empty());
    }

    #[test]
    fn step_reports_aggregate_by_section() {
        let t = sample_trace();
        let reports = t.step_reports();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].step, 0);
        let (name, d) = &reports[0].parts[0];
        assert_eq!(name, "force");
        assert!((d.max - 0.8).abs() < 1e-12);
        assert!((d.mean - 0.75).abs() < 1e-12);
    }

    #[test]
    fn chrome_json_roundtrips() {
        // Everything `analyze` reads survives: the blocked span's peer and
        // pipeline step, and a driver section's step.
        let mut t = sample_trace();
        t.spans.push(Span {
            rank: 1,
            kind: SpanKind::Driver {
                name: "step".into(),
                step: 7,
            },
            start: 0.0,
            end: 1.0,
        });
        let back = ExecutionTrace::parse(&t.to_chrome_json()).unwrap();
        assert_eq!(back.ranks, 2);
        assert_eq!(back.spans.len(), t.spans.len());
        for (a, b) in t.spans.iter().zip(&back.spans) {
            assert_eq!(a.rank, b.rank);
            assert_eq!(a.kind, b.kind);
            assert!((a.start - b.start).abs() < 1e-9);
            assert!((a.end - b.end).abs() < 1e-9);
        }
    }

    #[test]
    fn phases_present_lists_only_used_phases() {
        let t = sample_trace();
        assert_eq!(
            t.phases_present(),
            vec![Phase::Shift, Phase::Reduce, Phase::Other]
        );
    }

    #[test]
    fn parse_rejects_empty_or_malformed() {
        assert!(ExecutionTrace::parse("").is_err());
        assert!(ExecutionTrace::parse("{\"traceEvents\":[]}").is_err());
    }
}
