//! The subcommands that read what a run wrote: `analyze`, `conformance`.
//!
//! `analyze` is the one reader of a recorded run. On a trace it prints the
//! per-timestep cross-rank critical path (which rank gated the step, how
//! its time split into compute/comm/blocked, and which late sender it
//! waited on), the per-step driver sections, one per-phase table (mean,
//! p50, p95 and max per-rank seconds, the rank holding the max, the
//! imbalance factor max/mean, blocked seconds and share of wall),
//! straggler rankings, and traffic/wait heat-maps on the `p/c × c` grid
//! when `--metrics` is given. `--timeline=<bundle>` runs the drift
//! detector over a recorded series and prints the flagged windows and the
//! numerical-health verdict (energy drift, momentum, sentinel and
//! fingerprint-mismatch events with blame, a postmortem's reason); an
//! UNHEALTHY bundle makes the exit code 1. `--wire=<log>` renders the
//! per-channel latency table (send→recv histograms, queue depths, drop
//! accounting) derived from the matched probe pairs.
//!
//! `conformance <log>` replays the CA schedule for the given run
//! parameters — `run`'s own grammar, so the flags that produced the log
//! reproduce its schedule — diffs the predicted message multiset against
//! the observed traffic, and classifies every discrepancy (missing,
//! unexpected, wrong-size, out-of-order), consulting `--faults` so
//! injected drops/dups/kills are attributed to the fault plan instead of
//! flagged as violations; it exits non-zero on a FAIL verdict (an
//! unexplained discrepancy with intact probe rings).

use std::process::ExitCode;

use ca_nbody::expected_schedule;
use nbody_analyze::{
    analyze as analyze_trace, grid_heatmap, render_conformance, render_drift, render_json,
    render_table, render_wire,
};
use nbody_comm::{check_conformance, match_events, FaultNote, RunTimeline, WireLog};
use nbody_metrics::MetricsSnapshot;
use nbody_simhealth::HealthSummary;
use nbody_timeline::DriftConfig;
use nbody_trace::ExecutionTrace;

use super::artifact::{load, load_json, write, Summary};
use super::spec::{fault_plan, Defaults, RunSpec};
use super::{Failure, Opts};

/// The file a subcommand is about, or how to call it.
fn input<'a>(positional: &'a [String], usage: &str) -> Result<&'a str, Failure> {
    match positional.first() {
        Some(path) => Ok(path),
        None => Err(format!("usage: ca-nbody {usage}").into()),
    }
}

/// `analyze`: post-run diagnosis of a trace, a timeline, a wire log.
pub fn analyze(opts: &mut Opts, positional: &[String]) -> Result<ExitCode, Failure> {
    let timeline_path: Option<String> = opts.opt("timeline")?;
    let wire_path: Option<String> = opts.opt("wire")?;
    // The defaults (16-sample window, 6 sigma) are alarm-tuned: they fire
    // on step functions and stay quiet otherwise. Exploratory analysis of
    // slow ramps (e.g. a gravitational collapse) wants a wider window and
    // a tighter threshold.
    let drift_cfg = DriftConfig {
        window: opts.get("drift-window", DriftConfig::default().window)?,
        nsigma: opts.get("drift-nsigma", DriftConfig::default().nsigma)?,
        ..DriftConfig::default()
    };
    let trace_path = positional.first();
    if timeline_path.is_none() && wire_path.is_none() {
        let usage = "analyze <trace.json> [--metrics=F] [--timeline=F] [--wire=F] \
                     [--drift-window=16] [--drift-nsigma=6] [c=1] [--json=F]";
        input(positional, usage)?;
    }
    // A recorded bundle or probe log is diagnosable on its own; the
    // trace's own options are read only next to a trace.
    let (metrics_path, c, json) = match trace_path {
        Some(_) => (
            opts.opt::<String>("metrics")?,
            opts.get("c", 1usize)?,
            opts.opt::<String>("json")?,
        ),
        None => (None, 1, None),
    };
    opts.finish()?;
    let timeline = timeline_path
        .map(|path| load(&path, RunTimeline::parse))
        .transpose()?;
    let wire = wire_path
        .map(|path| load(&path, WireLog::parse))
        .transpose()?;

    let mut sections: Vec<String> = Vec::new();
    let mut export = None;
    let mut healthy = true;
    if let Some(path) = trace_path {
        let trace = load(path, ExecutionTrace::parse)?;
        // The heat-map arranges the ranks on the `p/c × c` grid: a `c` it
        // cannot use is an error, not a section left out.
        grid_heatmap(&trace, None, c)?;
        let metrics = metrics_path
            .map(|mp| load_json(&mp, MetricsSnapshot::from_json))
            .transpose()?;
        let a = analyze_trace(&trace, metrics.as_ref(), c);
        sections.push(render_table(&a));
        export = json.map(|out| (out, render_json(&a).to_string()));
    }
    if let Some(tl) = &timeline {
        let health = HealthSummary::from_timeline(tl);
        healthy = health.is_clean();
        sections.push(render_drift(tl, &drift_cfg));
        sections.push(health.render());
    }
    if let Some(log) = &wire {
        sections.push(render_wire(&match_events(log)));
    }
    print!("{}", sections.join("\n"));
    if let Some((out, body)) = export {
        write(&out, "analysis JSON", &body)?;
        println!("analysis JSON written to {out}");
    }
    Ok(ExitCode::from(u8::from(!healthy)))
}

/// `conformance`: a recorded wire-probe log against the CA schedule.
pub fn conformance(opts: &mut Opts, positional: &[String]) -> Result<ExitCode, Failure> {
    let spec = RunSpec::from_opts(opts, &Defaults::RUN)?;
    let plan = fault_plan(opts)?;
    opts.finish()?;
    let path = input(
        positional,
        "conformance <wire-log.json> [run's options] [--faults=SPEC]",
    )?;
    let log = load(path, WireLog::parse)?;
    let expected = expected_schedule(&spec.wire_spec()).map_err(|e| format!("conformance: {e}"))?;

    // Faults to attribute discrepancies to: the events the chaos backend
    // recorded into the log itself, plus the plan the caller passed (kept
    // separate in case the log predates fault probes or rings overflowed).
    let mut faults = FaultNote::from_log(&log);
    for note in plan.iter().flat_map(|plan| plan.probe_notes()) {
        if !faults.contains(&note) {
            faults.push(note);
        }
    }
    let report = check_conformance(&expected, &log, &faults);
    print!("{}", render_conformance(&report));

    Summary::of("conformance")
        .put("wire_log", path)
        .put("detail", report.detail.as_str())
        .put("expected_msgs", report.expected_msgs)
        .put("observed_msgs", report.observed_msgs)
        .put("channels", report.channels)
        .put("violations", report.violations.len())
        .put("explained", report.explained())
        .put("unexplained", report.unexplained())
        .put("saturated", report.saturated)
        .put("verdict", report.verdict())
        .print();
    if report.verdict() == "FAIL" {
        return Err("CONFORMANCE FAILED: observed traffic deviates from the CA schedule".into());
    }
    Ok(ExitCode::SUCCESS)
}
