//! The subcommands that read what a run wrote: `analyze`, `conformance`.
//! Each takes the run bundle `run --trace` wrote and nothing else about
//! the run: the grid's `c`, the schedule and the fault plan are the ones
//! the bundle recorded.
//!
//! `analyze <bundle>` is the one reader of a recorded run. It prints the
//! per-timestep cross-rank critical path (which rank gated the step, how
//! its time split into compute/comm/blocked, and which late sender it
//! waited on), the per-step driver sections, one per-phase table (mean,
//! p50, p95 and max per-rank seconds, the rank holding the max, the
//! imbalance factor max/mean, blocked seconds and share of wall),
//! straggler rankings and traffic/wait heat-maps on the `p/c × c` grid;
//! then the drift detector's flagged windows over the timeline and the
//! numerical-health verdict (energy drift, momentum, sentinel and
//! fingerprint-mismatch events with blame, a postmortem's reason). An
//! UNHEALTHY bundle makes the exit code 1. `--wire=<log>` renders the
//! per-channel latency table (send→recv histograms, queue depths, drop
//! accounting) of a `--wire-probe` log, with a bundle or alone.
//!
//! `conformance <bundle>` replays the schedule of the recorded spec,
//! diffs the predicted sends of every channel `(src, dst, phase)` against
//! the ones the bundle's metrics counted, and classifies every
//! discrepancy (missing, unexpected, an element total that differs),
//! consulting the recorded `--faults` plan so injected faults are
//! attributed to it instead of flagged as violations; it exits non-zero
//! on a FAIL verdict (an unexplained discrepancy).

use std::process::ExitCode;

use ca_nbody::expected_schedule;
use ca_nbody::wire::check;
use nbody_analyze::{
    analyze as analyze_trace, grid_heatmap, render_drift, render_json, render_table, render_wire,
};
use nbody_comm::{match_events, FaultPlan, RunBundle, WireLog};
use nbody_simhealth::HealthSummary;
use nbody_timeline::DriftConfig;

use super::artifact::{load, write, Summary};
use super::spec::RunSpec;
use super::{Failure, Opts};

/// The file a subcommand is about, or how to call it.
fn input<'a>(positional: &'a [String], usage: &str) -> Result<&'a str, Failure> {
    match positional.first() {
        Some(path) => Ok(path),
        None => Err(format!("usage: ca-nbody {usage}").into()),
    }
}

/// A run bundle and the spec it recorded.
fn load_bundle(path: &str) -> Result<(RunBundle, RunSpec), Failure> {
    let bundle = load(path, RunBundle::parse)?;
    let spec = RunSpec::recorded(&bundle.spec).map_err(|e| format!("cannot parse {path}: {e}"))?;
    Ok((bundle, spec))
}

/// `analyze`: post-run diagnosis of a run bundle, a wire log.
pub fn analyze(opts: &mut Opts, positional: &[String]) -> Result<ExitCode, Failure> {
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
    let bundle_path = positional.first();
    // A probe log is diagnosable on its own; `--json` exports a bundle's
    // analysis.
    let json = match bundle_path {
        Some(_) => opts.opt::<String>("json")?,
        None => None,
    };
    opts.finish()?;
    if wire_path.is_none() {
        let usage = "analyze <bundle.json> [--wire=F] [--drift-window=16] [--drift-nsigma=6] \
                     [--json=F]";
        input(positional, usage)?;
    }
    let bundle = bundle_path.map(|path| load_bundle(path)).transpose()?;
    let wire = wire_path
        .map(|path| load(&path, WireLog::parse))
        .transpose()?;

    let mut sections: Vec<String> = Vec::new();
    let mut export = None;
    let mut healthy = true;
    if let Some((bundle, spec)) = &bundle {
        let (trace, tl) = (&bundle.artifacts.trace, &bundle.artifacts.timeline);
        let metrics = &bundle.artifacts.metrics;
        // The heat-map arranges the ranks on the recorded `p/c × c` grid:
        // a `c` it cannot use is an error, not a section left out.
        grid_heatmap(trace, metrics, spec.c)?;
        let a = analyze_trace(trace, metrics, spec.c);
        sections.push(render_table(&a));
        export = json.map(|out| (out, render_json(&a).to_string()));
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

/// `conformance`: a run bundle's ledger against its recorded schedule.
pub fn conformance(opts: &mut Opts, positional: &[String]) -> Result<ExitCode, Failure> {
    opts.finish()?;
    let path = input(positional, "conformance <bundle.json>")?;
    let (bundle, spec) = load_bundle(path)?;
    let plan = bundle
        .faults
        .as_deref()
        .map_or(Ok(FaultPlan::empty()), FaultPlan::parse);
    let plan = plan.map_err(|e| format!("cannot parse {path}: recorded faults: {e}"))?;
    let expected = expected_schedule(&spec.wire_spec()).map_err(|e| format!("conformance: {e}"))?;
    let report = check(&expected, &bundle.artifacts.metrics, &plan);
    print!("{}", report.render());

    Summary::of("conformance")
        .put("bundle", path)
        .put("detail", report.detail.as_str())
        .put("expected_msgs", report.expected_msgs())
        .put("observed_msgs", report.observed_msgs())
        .put("channels", report.channels.len())
        .put("violations", report.violations.len())
        .put("explained", report.explained())
        .put("unexplained", report.unexplained())
        .put("verdict", report.verdict())
        .print();
    if report.verdict() == "FAIL" {
        return Err("CONFORMANCE FAILED: observed traffic deviates from the CA schedule".into());
    }
    Ok(ExitCode::SUCCESS)
}
