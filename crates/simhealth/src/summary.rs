//! Post-hoc health analysis of a recorded timeline bundle.

use nbody_timeline::{DriftConfig, EventKind, RunTimeline};
use nbody_trace::Json;

/// Everything the health lens can reconstruct from a timeline bundle:
/// the offline counterpart of the live [`HealthReport`](crate::HealthReport),
/// used by the `health` subcommand and the analyze report.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthSummary {
    /// Steps with a measured (health-instrumented) energy sample.
    measured_steps: usize,
    /// Mean global energy at the first measured step (0.0 if none).
    energy_first: f64,
    /// Mean global energy at the last measured step (0.0 if none).
    energy_last: f64,
    /// max over measured steps of |E(t) − E(first)| / |E(first)|.
    max_rel_energy_drift: f64,
    /// Largest recorded total-momentum norm.
    max_momentum_norm: f64,
    /// Non-finite sentinel events: `(rank, step, detail)`.
    non_finite: Vec<(u32, Option<u64>, String)>,
    /// Replica fingerprint mismatch events: `(rank, step, detail)`.
    mismatches: Vec<(u32, Option<u64>, String)>,
    /// Steps where the drift detector flagged the energy series.
    energy_drift_windows: Vec<u32>,
    /// The bundle's failure reason, if it is a postmortem.
    failure: Option<String>,
}

impl HealthSummary {
    /// Distill a bundle's health story. Works on any bundle: a run
    /// without health instrumentation yields `measured_steps == 0` and
    /// empty event lists, which [`render`](HealthSummary::render) calls
    /// out explicitly rather than reporting a hollow "healthy".
    pub fn from_timeline(tl: &RunTimeline) -> HealthSummary {
        let energy = tl.energy_series();
        let momentum = tl.momentum_series();
        let (mut first, mut last, mut drift) = (0.0f64, 0.0f64, 0.0f64);
        if let (Some(e0), Some(en)) = (energy.values.first(), energy.values.last()) {
            first = *e0;
            last = *en;
            if first != 0.0 {
                drift = energy
                    .values
                    .iter()
                    .map(|e| ((e - first) / first).abs())
                    .fold(0.0, f64::max);
            }
        }
        let max_momentum_norm = momentum.values.iter().copied().fold(0.0, f64::max);

        let mut non_finite = Vec::new();
        let mut mismatches = Vec::new();
        for rank in &tl.ranks {
            for ev in &rank.events {
                match ev.kind {
                    EventKind::NonFinite => {
                        non_finite.push((rank.rank, ev.step, ev.detail.clone()))
                    }
                    EventKind::ReplicaMismatch => {
                        mismatches.push((rank.rank, ev.step, ev.detail.clone()))
                    }
                    _ => {}
                }
            }
        }
        non_finite.sort_by_key(|(rank, step, _)| (step.unwrap_or(u64::MAX), *rank));
        mismatches.sort_by_key(|(rank, step, _)| (step.unwrap_or(u64::MAX), *rank));

        let energy_drift_windows = tl
            .drift(&DriftConfig::default())
            .into_iter()
            .filter(|w| w.metric == "energy")
            .map(|w| w.start_step)
            .collect();

        HealthSummary {
            measured_steps: energy.steps.len(),
            energy_first: first,
            energy_last: last,
            max_rel_energy_drift: drift,
            max_momentum_norm,
            non_finite,
            mismatches,
            energy_drift_windows,
            failure: tl.failure.clone(),
        }
    }

    /// Whether every detector stayed quiet (vacuously true when the run
    /// was not instrumented, which [`render`](HealthSummary::render) says).
    pub fn is_clean(&self) -> bool {
        self.non_finite.is_empty()
            && self.mismatches.is_empty()
            && self.energy_drift_windows.is_empty()
            && self.failure.is_none()
    }

    /// Plain-text health section for the CLI renderers.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("numerical health\n");
        out.push_str("----------------\n");
        if self.measured_steps == 0 {
            out.push_str("  invariants : not instrumented (run with --health)\n");
        } else {
            out.push_str(&format!(
                "  energy     : {:.6e} -> {:.6e} over {} measured steps (max rel drift {:.3e})\n",
                self.energy_first, self.energy_last, self.measured_steps, self.max_rel_energy_drift
            ));
            out.push_str(&format!(
                "  momentum   : max |P| {:.3e}\n",
                self.max_momentum_norm
            ));
        }
        out.push_str(&format!(
            "  sentinels  : {} non-finite event(s)\n",
            self.non_finite.len()
        ));
        for (rank, step, detail) in &self.non_finite {
            out.push_str(&format!(
                "    rank {rank} step {}: {detail}\n",
                step.map_or_else(|| "?".into(), |s| s.to_string())
            ));
        }
        out.push_str(&format!(
            "  replicas   : {} fingerprint mismatch(es)\n",
            self.mismatches.len()
        ));
        for (rank, step, detail) in &self.mismatches {
            out.push_str(&format!(
                "    rank {rank} step {}: {detail}\n",
                step.map_or_else(|| "?".into(), |s| s.to_string())
            ));
        }
        if !self.energy_drift_windows.is_empty() {
            out.push_str(&format!(
                "  drift      : energy series flagged at step(s) {:?}\n",
                self.energy_drift_windows
            ));
        }
        if let Some(reason) = &self.failure {
            out.push_str(&format!("  POSTMORTEM : {reason}\n"));
        }
        let verdict = if !self.is_clean() {
            "UNHEALTHY"
        } else if self.measured_steps == 0 {
            "UNMEASURED"
        } else {
            "HEALTHY"
        };
        out.push_str(&format!("  verdict    : {verdict}\n"));
        out
    }

    /// JSON rendering, the last line `health` prints.
    pub fn to_json(&self) -> String {
        let events = |list: &[(u32, Option<u64>, String)]| {
            Json::Arr(
                list.iter()
                    .map(|(rank, step, detail)| {
                        Json::Obj(vec![
                            ("rank".into(), Json::Num(*rank as f64)),
                            (
                                "step".into(),
                                step.map_or(Json::Null, |s| Json::Num(s as f64)),
                            ),
                            ("detail".into(), Json::Str(detail.clone())),
                        ])
                    })
                    .collect(),
            )
        };
        Json::Obj(vec![
            (
                "measured_steps".into(),
                Json::Num(self.measured_steps as f64),
            ),
            ("energy_first".into(), Json::Num(self.energy_first)),
            ("energy_last".into(), Json::Num(self.energy_last)),
            (
                "max_rel_energy_drift".into(),
                Json::Num(self.max_rel_energy_drift),
            ),
            (
                "max_momentum_norm".into(),
                Json::Num(self.max_momentum_norm),
            ),
            ("non_finite".into(), events(&self.non_finite)),
            ("replica_mismatches".into(), events(&self.mismatches)),
            (
                "energy_drift_steps".into(),
                Json::Arr(
                    self.energy_drift_windows
                        .iter()
                        .map(|s| Json::Num(*s as f64))
                        .collect(),
                ),
            ),
            (
                "failure".into(),
                self.failure
                    .as_ref()
                    .map_or(Json::Null, |f| Json::Str(f.clone())),
            ),
            ("clean".into(), Json::Bool(self.is_clean())),
        ])
        .to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbody_timeline::{FlightEvent, RankTimeline, StepSample};

    fn tl_with(
        energy: impl Fn(u32) -> f64,
        events: Vec<FlightEvent>,
        failure: Option<&str>,
    ) -> RunTimeline {
        let samples: Vec<StepSample> = (0..50)
            .map(|step| StepSample {
                step,
                t_secs: step as f64 * 0.01,
                dt_secs: 0.01,
                particles: 64,
                energy: energy(step),
                momentum: 1e-13,
                ..StepSample::default()
            })
            .collect();
        let rank = RankTimeline {
            rank: 0,
            stride: 1,
            samples,
            events,
            dropped_events: 0,
            failure: failure.map(|s| s.to_string()),
        };
        RunTimeline::from_ranks(vec![rank])
    }

    #[test]
    fn clean_instrumented_run_is_healthy() {
        let tl = tl_with(|_| -4.0, Vec::new(), None);
        let s = HealthSummary::from_timeline(&tl);
        assert_eq!(s.measured_steps, 50);
        assert!(s.is_clean());
        assert_eq!(s.max_rel_energy_drift, 0.0);
        let text = s.render();
        assert!(text.contains("HEALTHY"), "{text}");
        assert!(text.contains("energy"), "{text}");
        assert!(s.to_json().contains("\"clean\":true"));
    }

    #[test]
    fn uninstrumented_run_reports_unmeasured() {
        let tl = tl_with(|_| 0.0, Vec::new(), None);
        let s = HealthSummary::from_timeline(&tl);
        assert_eq!(s.measured_steps, 0);
        let text = s.render();
        assert!(text.contains("UNMEASURED"), "{text}");
        assert!(text.contains("--health"), "{text}");
    }

    #[test]
    fn sentinel_and_mismatch_events_surface_with_blame() {
        let events = vec![
            FlightEvent {
                t_secs: 0.2,
                kind: EventKind::NonFinite,
                step: Some(7),
                detail: "non-finite force at rank 0 step 7 phase force: particle index 3 (id 3)"
                    .into(),
            },
            FlightEvent {
                t_secs: 0.1,
                kind: EventKind::ReplicaMismatch,
                step: Some(4),
                detail: "rank 4 fingerprint deadbeef vs majority cafe".into(),
            },
        ];
        let tl = tl_with(|_| -4.0, events, Some("numerical fault"));
        let s = HealthSummary::from_timeline(&tl);
        assert_eq!(s.non_finite.len(), 1);
        assert_eq!(s.mismatches.len(), 1);
        assert!(!s.is_clean());
        let text = s.render();
        assert!(text.contains("UNHEALTHY"), "{text}");
        assert!(text.contains("particle index 3"), "{text}");
        assert!(text.contains("POSTMORTEM"), "{text}");
        let json = s.to_json();
        assert!(json.contains("\"clean\":false"));
        assert!(json.contains("replica_mismatches"));
    }

    #[test]
    fn energy_jump_is_flagged_by_drift_detector() {
        let tl = tl_with(|step| if step < 40 { -2.0 } else { -6.0 }, Vec::new(), None);
        let s = HealthSummary::from_timeline(&tl);
        assert!(
            s.energy_drift_windows.iter().any(|w| (39..=42).contains(w)),
            "{:?}",
            s.energy_drift_windows
        );
        assert!((s.max_rel_energy_drift - 2.0).abs() < 1e-12);
        assert!(!s.is_clean());
    }
}
