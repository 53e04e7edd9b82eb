//! Metrics, the human-readable table and the one-line JSON result.

use std::fmt::Write as _;

use crate::stats::Summary;
use crate::workload::Workload;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name: `layer.metric` for per-layer metrics.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// The reported value: the median of the samples unless the metric is
    /// defined as another statistic of them (a percentile, the best
    /// repetition).
    pub value: f64,
    /// Median, quartiles and count of the samples behind the value; counted
    /// and derived values have `n = 1`.
    pub summary: Summary,
}

impl Metric {
    /// A sampled timing, reported as its median.
    pub fn sampled(name: &'static str, unit: &'static str, summary: Summary) -> Metric {
        Metric::statistic(name, unit, summary.median, summary)
    }

    /// A statistic `value` of samples whose distribution is `summary`.
    pub fn statistic(
        name: &'static str,
        unit: &'static str,
        value: f64,
        summary: Summary,
    ) -> Metric {
        Metric {
            name,
            unit,
            value,
            summary,
        }
    }

    /// A counted or derived value.
    pub fn exact(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric::sampled(name, unit, Summary::exact(value))
    }
}

/// The result of measuring one workload once.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Repetitions attempted (warm-up included).
    pub attempted: u64,
    /// Repetitions that panicked, failed a check, or ended in a state
    /// differing from the first repetition's; they contribute no sample.
    pub failed: u64,
    /// One line per failure or broken cross-check.
    pub failures: Vec<String>,
    /// The metrics.
    pub metrics: Vec<Metric>,
    /// Lines for the table only, such as the raw samples of a timing.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Count one failed repetition or broken cross-check.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.failures.push(why);
    }

    /// Count one attempted operation `what`; a failed one is recorded and
    /// yields `None`.
    pub fn attempt<T>(&mut self, what: &str, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        result.map_err(|e| self.fail(format!("{what}: {e}"))).ok()
    }

    /// Whether every repetition and cross-check held and every value is a
    /// finite number.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The metric called `name`.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

/// A JSON number with all of `x`'s digits (`null` is not a measurement:
/// non-finite values are reported as 0 and fail [`Outcome::correct`]).
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

/// The one-line JSON result: `correct`, `attempted`, `failed` and the
/// metrics of `outcome` named in `names`, in that order, each as
/// `{"value": …, "unit": …}`.
pub fn result_line(outcome: &Outcome, names: &[&str]) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.correct() && names.iter().all(|n| outcome.get(n).is_some()),
        outcome.attempted,
        outcome.failed
    );
    let mut first = true;
    for m in names.iter().filter_map(|n| outcome.get(n)) {
        if !first {
            s.push_str(", ");
        }
        first = false;
        let _ = write!(
            s,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_num(m.value),
            m.unit
        );
    }
    s.push_str("}}");
    s
}

/// The machine and workload facts every result depends on, as a JSON
/// object body (no braces) shared by the table header and the trace file.
pub fn context_fields(w: &Workload, seed: u64) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    format!(
        "\"workload\": \"{}\", \"seed\": {seed}, \"nproc\": {nproc}, \"harness_threads\": 1, \
         \"p\": {}, \"c\": {}, \"n\": {}, \"steps\": {}",
        w.name,
        w.p,
        w.c(),
        w.n,
        w.steps
    )
}

/// Every metric by name with unit, reported value, sample count, median
/// and quartiles, then the notes and failures, as text.
pub fn table(w: &Workload, seed: u64, mode: &str, outcome: &Outcome) -> String {
    let mut s = format!("# {mode}: {{{}}}\n", context_fields(w, seed));
    let _ = writeln!(
        s,
        "{:<34} {:>8} {:>13} {:>6} {:>13} {:>13} {:>13}",
        "metric", "unit", "value", "n", "median", "q1", "q3"
    );
    for m in &outcome.metrics {
        let u = &m.summary;
        let _ = writeln!(
            s,
            "{:<34} {:>8} {:>13.6e} {:>6} {:>13.6e} {:>13.6e} {:>13.6e}",
            m.name, m.unit, m.value, u.n, u.median, u.q1, u.q3
        );
    }
    let _ = writeln!(
        s,
        "ops_attempted {}  ops_failed {}",
        outcome.attempted, outcome.failed
    );
    for note in &outcome.notes {
        let _ = writeln!(s, "# {note}");
    }
    for f in &outcome.failures {
        let _ = writeln!(s, "FAILED: {f}");
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_keeps_all_digits_and_flags_missing_metrics() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.metrics
            .push(Metric::exact("step_s", "s", 0.001234567890123));
        let line = result_line(&o, &["step_s"]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"step_s\": {\"value\": 0.001234567890123, \"unit\": \"s\"}}}"
        );
        assert!(result_line(&o, &["step_s", "setup_s"]).starts_with("{\"correct\": false"));
        o.metrics.push(Metric::exact("setup_s", "s", f64::NAN));
        assert!(!o.correct());
        assert!(result_line(&o, &["setup_s"]).contains("\"value\": 0,"));
    }
}
