//! End-of-run health reports and the CI baseline gate.

use nbody_trace::Json;

/// Aggregated health verdict for one run, built step by step by the
/// driver as global invariants are reduced.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HealthReport {
    /// Number of steps on which the monitors actually ran.
    pub steps_checked: u64,
    /// Global total energy at the first checked step.
    pub energy_first: f64,
    /// Global total energy at the last checked step.
    pub energy_last: f64,
    /// max over checked steps of |E(t) − E(s)| / |E(s)|, `s` the first
    /// checked step of `t`'s segment: the run's, or the first after the
    /// last shrink, which dropped the energy of the particles it lost.
    pub max_rel_energy_drift: f64,
    /// max over checked steps of the total momentum norm.
    pub max_momentum_norm: f64,
    /// Non-finite sentinel triggers (any rank, any phase).
    pub sentinel_events: u64,
    /// Attempts on which a checkpoint failed its fingerprint digest.
    pub fingerprint_mismatches: u64,
    /// `E(s)` of the current segment, `None` until a step of it is checked.
    pub energy_base: Option<f64>,
}

impl HealthReport {
    /// Fold one checked step's reduced global invariants into the report.
    pub fn record(&mut self, energy: f64, momentum_norm: f64) {
        if self.steps_checked == 0 {
            self.energy_first = energy;
        }
        self.energy_last = energy;
        self.steps_checked += 1;
        let base = *self.energy_base.get_or_insert(energy);
        if base != 0.0 {
            let drift = ((energy - base) / base).abs();
            self.max_rel_energy_drift = self.max_rel_energy_drift.max(drift);
        }
        self.max_momentum_norm = self.max_momentum_norm.max(momentum_norm);
    }

    /// Start a new drift segment: the world shrank, so the next checked
    /// step's energy is the one later steps are compared with.
    pub fn rebase(&mut self) {
        self.energy_base = None;
    }

    /// Whether the run finished with no detector firing.
    pub fn is_clean(&self) -> bool {
        self.sentinel_events == 0 && self.fingerprint_mismatches == 0
    }
}

/// Thresholds a run's [`HealthReport`] must stay within — the CI gate.
///
/// Serialized as a small JSON object in `bench_results/health_baseline.json`
/// next to the perf baselines, and versioned in git so a regression in
/// numerical quality fails the build the same way a perf regression does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthBaseline {
    /// Ceiling on [`HealthReport::max_rel_energy_drift`].
    pub max_rel_energy_drift: f64,
    /// Ceiling on sentinel triggers (normally 0).
    pub max_sentinel_events: u64,
    /// Ceiling on fingerprint mismatches (normally 0).
    pub max_fingerprint_mismatches: u64,
}

impl HealthBaseline {
    /// Parse the baseline JSON.
    pub fn parse(src: &str) -> Result<HealthBaseline, String> {
        let v = Json::parse(src)?;
        let num = |key: &str| -> Result<f64, String> {
            v.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("health baseline missing numeric '{key}'"))
        };
        Ok(HealthBaseline {
            max_rel_energy_drift: num("max_rel_energy_drift")?,
            max_sentinel_events: num("max_sentinel_events")? as u64,
            max_fingerprint_mismatches: num("max_fingerprint_mismatches")? as u64,
        })
    }

    /// Serialize in the `bench_results/health_baseline.json` format.
    pub fn to_json(&self) -> String {
        Json::Obj(vec![
            (
                "max_rel_energy_drift".into(),
                Json::Num(self.max_rel_energy_drift),
            ),
            (
                "max_sentinel_events".into(),
                Json::Num(self.max_sentinel_events as f64),
            ),
            (
                "max_fingerprint_mismatches".into(),
                Json::Num(self.max_fingerprint_mismatches as f64),
            ),
        ])
        .to_string()
    }

    /// Check a report against the baseline; returns one human-readable
    /// violation per breached threshold (empty ⇒ the gate passes).
    pub fn gate(&self, report: &HealthReport) -> Vec<String> {
        let mut violations = Vec::new();
        if report.max_rel_energy_drift > self.max_rel_energy_drift {
            violations.push(format!(
                "relative energy drift {:.3e} exceeds baseline {:.3e}",
                report.max_rel_energy_drift, self.max_rel_energy_drift
            ));
        }
        if report.sentinel_events > self.max_sentinel_events {
            violations.push(format!(
                "{} non-finite sentinel event(s) exceed baseline {}",
                report.sentinel_events, self.max_sentinel_events
            ));
        }
        if report.fingerprint_mismatches > self.max_fingerprint_mismatches {
            violations.push(format!(
                "{} replica fingerprint mismatch(es) exceed baseline {}",
                report.fingerprint_mismatches, self.max_fingerprint_mismatches
            ));
        }
        violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_tracks_drift_and_momentum_extremes() {
        let mut r = HealthReport::default();
        r.record(-10.0, 1e-14);
        r.record(-10.2, 3e-14);
        r.record(-10.1, 2e-14);
        assert_eq!(r.steps_checked, 3);
        assert_eq!(r.energy_first, -10.0);
        assert_eq!(r.energy_last, -10.1);
        assert!((r.max_rel_energy_drift - 0.02).abs() < 1e-12);

        // A shrink drops particles and their energy: the next checked step
        // is the new reference, and the worst drift is over the segments.
        r.rebase();
        r.record(-5.0, 1e-14);
        r.record(-5.05, 1e-14);
        assert_eq!((r.energy_first, r.energy_last), (-10.0, -5.05));
        assert!((r.max_rel_energy_drift - 0.02).abs() < 1e-12);
        r.record(-5.5, 1e-14);
        assert!((r.max_rel_energy_drift - 0.1).abs() < 1e-12);
        assert_eq!(r.max_momentum_norm, 3e-14);
        assert!(r.is_clean());
    }

    #[test]
    fn baseline_round_trips_and_gates() {
        let base = HealthBaseline {
            max_rel_energy_drift: 0.05,
            max_sentinel_events: 0,
            max_fingerprint_mismatches: 0,
        };
        let back = HealthBaseline::parse(&base.to_json()).unwrap();
        assert_eq!(back, base);

        let mut good = HealthReport::default();
        good.record(-5.0, 1e-13);
        good.record(-5.01, 1e-13);
        assert!(base.gate(&good).is_empty());

        let mut bad = good;
        bad.sentinel_events = 1;
        bad.max_rel_energy_drift = 0.2;
        let violations = base.gate(&bad);
        assert_eq!(violations.len(), 2, "{violations:?}");
        assert!(violations.iter().any(|v| v.contains("sentinel")));
        assert!(violations.iter().any(|v| v.contains("drift")));
    }

    #[test]
    fn baseline_parse_rejects_missing_keys() {
        assert!(HealthBaseline::parse("{}").is_err());
        assert!(HealthBaseline::parse("not json").is_err());
    }
}
