//! Run-level timelines and JSON postmortem bundles.

use nbody_trace::Json;

use crate::drift::{detect_drift, DriftConfig, DriftWindow};
use crate::flight::{EventKind, FlightEvent};
use crate::series::StepSample;

/// Schema tag written into every serialized timeline/postmortem bundle.
pub const TIMELINE_SCHEMA: &str = "nbody-timeline/v1";

/// One rank's drained timeline: retained step samples plus the flight ring.
#[derive(Debug, Clone, PartialEq)]
pub struct RankTimeline {
    /// World rank the data belongs to.
    pub rank: u32,
    /// Final sampling stride of the step series (1 = every step).
    pub stride: u32,
    /// Retained step samples, in step order.
    pub samples: Vec<StepSample>,
    /// Recent flight-recorder entries, oldest first.
    pub events: Vec<FlightEvent>,
    /// Events evicted from the bounded ring before the dump.
    pub dropped_events: u64,
    /// Terminal failure reason recorded on this rank, if any.
    pub failure: Option<String>,
}

/// A per-step metric series derived across ranks (input to drift detection).
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSeries {
    /// Metric name (`imbalance`, `comm_fraction`, ...).
    pub metric: String,
    /// Step indices, ascending.
    pub steps: Vec<u32>,
    /// One value per step.
    pub values: Vec<f64>,
}

/// The whole run's timeline: every rank's series and flight ring, plus an
/// optional failure reason (present = this is a postmortem bundle).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunTimeline {
    /// Why the run died, when it did (`None` for a healthy run).
    pub failure: Option<String>,
    /// Per-rank timelines, ordered by rank.
    pub ranks: Vec<RankTimeline>,
}

impl RunTimeline {
    /// Assemble a run timeline from drained per-rank recorders. The run
    /// failure is the first per-rank failure reason, if any rank recorded
    /// one.
    pub fn from_ranks(mut ranks: Vec<RankTimeline>) -> RunTimeline {
        ranks.sort_by_key(|r| r.rank);
        let failure = ranks.iter().find_map(|r| r.failure.clone());
        RunTimeline { failure, ranks }
    }

    /// Stamp (or override) the run-level failure reason.
    pub fn with_failure(mut self, reason: &str) -> RunTimeline {
        self.failure = Some(reason.to_string());
        self
    }

    /// Whether this bundle records a failed run.
    pub fn is_postmortem(&self) -> bool {
        self.failure.is_some()
    }

    /// Serialize to a single JSON document.
    pub fn to_json(&self) -> String {
        let ranks = self
            .ranks
            .iter()
            .map(|r| {
                let samples = r.samples.iter().copied().map(StepSample::to_json).collect();
                let events = r
                    .events
                    .iter()
                    .map(|e| {
                        Json::Obj(vec![
                            ("t".into(), Json::Num(e.t_secs)),
                            ("kind".into(), Json::Str(e.kind.label().into())),
                            (
                                "step".into(),
                                match e.step {
                                    Some(s) => Json::Num(s as f64),
                                    None => Json::Null,
                                },
                            ),
                            ("detail".into(), Json::Str(e.detail.clone())),
                        ])
                    })
                    .collect();
                Json::Obj(vec![
                    ("rank".into(), Json::Num(r.rank as f64)),
                    ("stride".into(), Json::Num(r.stride as f64)),
                    ("dropped_events".into(), Json::Num(r.dropped_events as f64)),
                    (
                        "failure".into(),
                        match &r.failure {
                            Some(f) => Json::Str(f.clone()),
                            None => Json::Null,
                        },
                    ),
                    ("samples".into(), Json::Arr(samples)),
                    ("events".into(), Json::Arr(events)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("schema".into(), Json::Str(TIMELINE_SCHEMA.into())),
            (
                "failure".into(),
                match &self.failure {
                    Some(f) => Json::Str(f.clone()),
                    None => Json::Null,
                },
            ),
            ("ranks".into(), Json::Arr(ranks)),
        ])
        .to_string()
    }

    /// Parse a document produced by [`to_json`](RunTimeline::to_json).
    pub fn parse(src: &str) -> Result<RunTimeline, String> {
        let v = Json::parse(src)?;
        let schema = v
            .get("schema")
            .and_then(Json::as_str)
            .ok_or("timeline bundle missing 'schema'")?;
        if schema != TIMELINE_SCHEMA {
            return Err(format!("unsupported timeline schema '{schema}'"));
        }
        let failure = v.get("failure").and_then(Json::as_str).map(str::to_string);
        let mut ranks = Vec::new();
        for r in v
            .get("ranks")
            .and_then(Json::as_array)
            .ok_or("timeline bundle missing 'ranks'")?
        {
            let num = |key: &str| -> Result<f64, String> {
                r.get(key)
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("rank entry missing numeric '{key}'"))
            };
            let mut samples = Vec::new();
            for s in r
                .get("samples")
                .and_then(Json::as_array)
                .ok_or("rank entry missing 'samples'")?
            {
                samples.push(StepSample::from_json(s)?);
            }
            let mut events = Vec::new();
            for e in r
                .get("events")
                .and_then(Json::as_array)
                .ok_or("rank entry missing 'events'")?
            {
                let kind_label = e
                    .get("kind")
                    .and_then(Json::as_str)
                    .ok_or("event missing 'kind'")?;
                events.push(FlightEvent {
                    t_secs: e
                        .get("t")
                        .and_then(Json::as_f64)
                        .ok_or("event missing 't'")?,
                    kind: EventKind::from_label(kind_label)
                        .ok_or_else(|| format!("unknown event kind '{kind_label}'"))?,
                    step: e.get("step").and_then(Json::as_f64).map(|s| s as u64),
                    detail: e
                        .get("detail")
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_string(),
                });
            }
            ranks.push(RankTimeline {
                rank: num("rank")? as u32,
                stride: num("stride")? as u32,
                samples,
                events,
                dropped_events: num("dropped_events")? as u64,
                failure: r.get("failure").and_then(Json::as_str).map(str::to_string),
            });
        }
        Ok(RunTimeline { failure, ranks })
    }

    /// Per-step load-imbalance factor, `max(particles) / mean(particles)`
    /// across ranks that sampled the step (1.0 = perfectly balanced).
    fn imbalance_series(&self) -> MetricSeries {
        self.derived_series("imbalance", |per_rank| {
            let parts: Vec<f64> = per_rank.iter().map(|s| s.particles as f64).collect();
            let mean = parts.iter().sum::<f64>() / parts.len() as f64;
            let max = parts.iter().copied().fold(0.0_f64, f64::max);
            if mean > 0.0 {
                Some(max / mean)
            } else {
                None
            }
        })
    }

    /// Per-step communication fraction: total seconds ranks spent blocked
    /// waiting divided by total step wall seconds, in `[0, 1]`.
    fn comm_fraction_series(&self) -> MetricSeries {
        self.derived_series("comm_fraction", |per_rank| {
            let blocked: f64 = per_rank.iter().map(|s| s.blocked_secs).sum();
            let wall: f64 = per_rank.iter().map(|s| s.dt_secs).sum();
            if wall > 0.0 {
                Some((blocked / wall).clamp(0.0, 1.0))
            } else {
                None
            }
        })
    }

    /// Per-step global total energy as recorded by the health monitors.
    /// Every rank of a health run carries the same allreduced value, so
    /// the mean is the value itself; steps where no rank measured
    /// anything (energy exactly `0.0`, the "unmeasured" sentinel) are
    /// omitted, which leaves the series empty on uninstrumented runs.
    pub fn energy_series(&self) -> MetricSeries {
        self.derived_series("energy", |per_rank| {
            let measured: Vec<f64> = per_rank
                .iter()
                .map(|s| s.energy)
                .filter(|e| *e != 0.0)
                .collect();
            if measured.is_empty() {
                None
            } else {
                Some(measured.iter().sum::<f64>() / measured.len() as f64)
            }
        })
    }

    /// Per-step norm of the global total momentum (health runs only);
    /// empty when no step carries a measured energy.
    pub fn momentum_series(&self) -> MetricSeries {
        let measured: std::collections::BTreeSet<u32> =
            self.energy_series().steps.into_iter().collect();
        self.derived_series("momentum", |per_rank| {
            if per_rank.iter().any(|s| measured.contains(&s.step)) {
                let sum: f64 = per_rank.iter().map(|s| s.momentum).sum();
                Some(sum / per_rank.len() as f64)
            } else {
                None
            }
        })
    }

    /// Run the drift detector over the derived imbalance, comm-fraction,
    /// and (when measured) energy series. Energy drift is the health
    /// lens's alarm: a conservative integrator on a healthy run keeps the
    /// series flat, so a sustained shift is numerical trouble, not load.
    pub fn drift(&self, cfg: &DriftConfig) -> Vec<DriftWindow> {
        let mut out = Vec::new();
        for series in [
            self.imbalance_series(),
            self.comm_fraction_series(),
            self.energy_series(),
        ] {
            out.extend(detect_drift(
                &series.metric,
                &series.steps,
                &series.values,
                cfg,
            ));
        }
        out
    }

    fn derived_series(
        &self,
        metric: &str,
        f: impl Fn(&[StepSample]) -> Option<f64>,
    ) -> MetricSeries {
        // Group samples by step across ranks (each rank's series is
        // already step-ordered; strides can differ after decimation).
        let mut by_step: Vec<(u32, Vec<StepSample>)> = Vec::new();
        for r in &self.ranks {
            for s in &r.samples {
                match by_step.binary_search_by_key(&s.step, |(st, _)| *st) {
                    Ok(i) => by_step[i].1.push(*s),
                    Err(i) => by_step.insert(i, (s.step, vec![*s])),
                }
            }
        }
        let mut steps = Vec::new();
        let mut values = Vec::new();
        for (step, per_rank) in &by_step {
            if let Some(v) = f(per_rank) {
                steps.push(*step);
                values.push(v);
            }
        }
        MetricSeries {
            metric: metric.to_string(),
            steps,
            values,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rank_tl(rank: u32, particles: &[u64], blocked: f64) -> RankTimeline {
        RankTimeline {
            rank,
            stride: 1,
            samples: particles
                .iter()
                .enumerate()
                .map(|(i, &p)| StepSample {
                    step: i as u32,
                    t_secs: i as f64,
                    dt_secs: 1.0,
                    blocked_secs: blocked,
                    particles: p,
                    ..StepSample::default()
                })
                .collect(),
            events: vec![FlightEvent {
                t_secs: 0.5,
                kind: EventKind::Checkpoint,
                step: Some(0),
                detail: format!("{} particles", particles.first().copied().unwrap_or(0)),
            }],
            dropped_events: 0,
            failure: None,
        }
    }

    #[test]
    fn json_round_trips_including_failure() {
        let tl =
            RunTimeline::from_ranks(vec![rank_tl(1, &[10, 12], 0.25), rank_tl(0, &[10, 8], 0.0)])
                .with_failure("unrecoverable: rank 1 dead with c=1");
        let text = tl.to_json();
        let back = RunTimeline::parse(&text).unwrap();
        assert_eq!(back, tl);
        assert!(back.is_postmortem());
        assert_eq!(back.ranks[0].rank, 0, "ranks are sorted");
    }

    #[test]
    fn parse_rejects_wrong_schema_and_garbage() {
        assert!(RunTimeline::parse("{}").is_err());
        assert!(RunTimeline::parse("not json").is_err());
        let other = r#"{"schema":"something/v9","failure":null,"ranks":[]}"#;
        assert!(RunTimeline::parse(other).is_err());
    }

    #[test]
    fn imbalance_series_is_max_over_mean() {
        let tl =
            RunTimeline::from_ranks(vec![rank_tl(0, &[10, 30], 0.0), rank_tl(1, &[10, 10], 0.0)]);
        let s = tl.imbalance_series();
        assert_eq!(s.steps, vec![0, 1]);
        assert!((s.values[0] - 1.0).abs() < 1e-12);
        assert!((s.values[1] - 1.5).abs() < 1e-12);
    }

    #[test]
    fn comm_fraction_is_blocked_share_of_wall() {
        let tl = RunTimeline::from_ranks(vec![rank_tl(0, &[10], 0.5), rank_tl(1, &[10], 0.0)]);
        let s = tl.comm_fraction_series();
        assert_eq!(s.steps, vec![0]);
        assert!((s.values[0] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn energy_series_skips_unmeasured_runs_and_feeds_drift() {
        // Uninstrumented run: all energies 0.0 -> empty series, and the
        // drift pass over it flags nothing.
        let plain = RunTimeline::from_ranks(vec![rank_tl(0, &[10, 10], 0.0)]);
        assert!(plain.energy_series().values.is_empty());
        assert!(plain.momentum_series().values.is_empty());

        // Health run: every rank carries the same allreduced energy; a
        // sustained jump past the baseline noise must be flagged.
        let ranks = (0..2)
            .map(|rank| {
                let mut rt = rank_tl(rank, &[10; 60], 0.0);
                for (i, s) in rt.samples.iter_mut().enumerate() {
                    s.energy = if i < 40 { -1.0 } else { -9.0 };
                    s.momentum = 1e-14;
                }
                rt
            })
            .collect();
        let tl = RunTimeline::from_ranks(ranks);
        let es = tl.energy_series();
        assert_eq!(es.steps.len(), 60);
        assert!((es.values[0] - -1.0).abs() < 1e-12, "mean of equal values");
        assert_eq!(tl.momentum_series().values.len(), 60);
        let windows = tl.drift(&DriftConfig::default());
        assert!(
            windows
                .iter()
                .any(|w| w.metric == "energy" && w.start_step == 40),
            "energy shift is flagged: {windows:?}"
        );
    }

    #[test]
    fn from_ranks_promotes_rank_failure() {
        let mut bad = rank_tl(2, &[1], 0.0);
        bad.failure = Some("retries exhausted after 4 attempts".into());
        let tl = RunTimeline::from_ranks(vec![rank_tl(0, &[1], 0.0), bad]);
        assert_eq!(
            tl.failure.as_deref(),
            Some("retries exhausted after 4 attempts")
        );
    }
}
