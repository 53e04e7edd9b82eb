//! `analyze`: the one reader of what a run wrote. It takes the run bundle
//! `run --trace` wrote and nothing else about the run: the grid's `c`, the
//! schedule, the fault plan and the world's shrinks are the ones the
//! bundle recorded.
//!
//! `analyze <bundle>` prints the per-timestep cross-rank critical path
//! (which rank gated the step, how its time split into compute/comm/
//! blocked, and which late sender it waited on), the per-step driver
//! sections, one per-phase table (mean, p50, p95 and max per-rank seconds,
//! the rank holding the max, the imbalance factor max/mean, blocked
//! seconds and share of wall), straggler rankings and traffic/wait
//! heat-maps on the `p/c × c` grid; then the drift detector's flagged
//! windows over the timeline and the numerical-health verdict (energy
//! drift, momentum, sentinel and fingerprint-mismatch events with blame, a
//! postmortem's reason).
//!
//! Then the verdicts on the paper's two claims. *Conformance*: the
//! schedule of the recorded spec, piecewise across recorded shrinks,
//! against the sends the bundle's ledger counted on every channel `(src,
//! dst, phase)`, each discrepancy (missing, unexpected, an element total
//! that differs) attributed to the recorded `--faults` plan where it
//! explains it. *Optimality* (`ca` and `ca-cutoff-1d`): the measured
//! per-step sends `S` and words `W` against the lower bounds (Eq. 2/3) and
//! the predicted costs (Eq. 5/§IV.B), gated by the ceilings of
//! `--baseline`; and the kernel's live `compute_*` counters joined with a
//! machine calibration (`--calibration`, default
//! `bench_results/machine_calibration.json`, else a quick in-process
//! calibration) into per-rank roofline points, gated by
//! `--roofline-baseline` (fails if the best rank falls below the recorded
//! floor minus its tolerance). A method that replicates nothing has no
//! schedule twin and `ca-cutoff-2d` no closed-form bound: a line says so.
//!
//! The exit code is 1 on an UNHEALTHY bundle, a FAIL verdict (an
//! unexplained discrepancy), a factor over its ceiling or a roofline under
//! its floor. `--json=F` writes the analysis, the audit and the roofline
//! as one document. `--wire=<log>` renders the per-channel latency table
//! (send→recv histograms, queue depths, drop accounting) of a
//! `--wire-probe` log, with a bundle or alone.

use std::process::ExitCode;

use ca_nbody::wire::check;
use ca_nbody::{expected_schedule, Method, Window, WireScheduleSpec};
use nbody_analyze::{
    analyze as analyze_trace, grid_heatmap, render_drift, render_json, render_table, render_wire,
};
use nbody_comm::{match_events, FaultPlan, MetricsSnapshot, RunBundle, WireLog};
use nbody_metrics::{
    audit, audit_json, audit_table, ceilings_from_json, AuditAlgorithm, AuditConfig, AuditInput,
    FactorCeilings,
};
use nbody_perfmon::{roofline, roofline_json, roofline_table, RooflineGate};
use nbody_simhealth::HealthSummary;
use nbody_timeline::DriftConfig;
use nbody_trace::Json;

use super::artifact::{load, load_json, write, JsonPath, Summary};
use super::calibrate::load_calibration;
use super::spec::RunSpec;
use super::{verdict, Failure, Opts};

/// A run bundle and the spec it recorded.
fn load_bundle(path: &str) -> Result<(RunBundle, RunSpec), Failure> {
    let bundle = load(path, RunBundle::parse)?;
    let spec = RunSpec::recorded(&bundle.spec).map_err(|e| format!("cannot parse {path}: {e}"))?;
    Ok((bundle, spec))
}

/// The optimality gates a bundle is judged by: `--baseline`'s factor
/// ceilings (none: the factors are reported, not gated), the calibration
/// the roofline reads, and `--roofline-baseline`'s floor.
struct Gates {
    baseline: Option<String>,
    calibration: Option<String>,
    roofline_baseline: Option<String>,
}

/// What the verdict sections add: their text, the summary line's keys,
/// their JSON sections, and the failures they found.
#[derive(Default)]
struct Verdicts {
    text: String,
    summary: Summary,
    json: Vec<(String, Json)>,
    failures: Vec<String>,
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
    // A probe log is diagnosable on its own; the rest is about a bundle.
    let (json, gates) = match bundle_path {
        Some(_) => (
            opts.opt::<JsonPath>("json")?.map(String::from),
            Some(Gates {
                baseline: opts.opt("baseline")?,
                calibration: opts.opt("calibration")?,
                roofline_baseline: opts.opt("roofline-baseline")?,
            }),
        ),
        None => (None, None),
    };
    opts.finish()?;
    if bundle_path.is_none() && wire_path.is_none() {
        return Err(
            "usage: ca-nbody analyze <bundle.json> [--wire=F] [--drift-window=16] \
                    [--drift-nsigma=6] [--json=F] [--baseline=F] [--calibration=F] \
                    [--roofline-baseline=F]"
                .into(),
        );
    }
    let bundle = bundle_path.map(|path| load_bundle(path)).transpose()?;
    let wire = wire_path
        .map(|path| load(&path, WireLog::parse))
        .transpose()?;

    let mut sections: Vec<String> = Vec::new();
    let mut healthy = true;
    let mut verdicts = Verdicts {
        summary: Summary::of("analyze"),
        ..Verdicts::default()
    };
    let mut export = None;
    if let (Some((bundle, spec)), Some(gates), Some(path)) = (&bundle, &gates, bundle_path) {
        verdicts.summary.put("bundle", path.as_str());
        let (trace, tl) = (&bundle.artifacts.trace, &bundle.artifacts.timeline);
        let metrics = &bundle.artifacts.metrics;
        // The heat-map arranges the ranks on the recorded `p/c × c` grid:
        // a `c` it cannot use is an error, not a section left out.
        grid_heatmap(trace, metrics, spec.c)?;
        let a = analyze_trace(trace, metrics, spec.c);
        sections.push(render_table(&a));
        let health = HealthSummary::from_timeline(tl);
        healthy = health.is_clean();
        sections.push(render_drift(tl, &drift_cfg));
        sections.push(health.render());
        if tl.is_postmortem() {
            // The schedule and the bounds would count steps that never ran.
            verdicts.text.push_str(
                "no conformance or optimality verdict: the run died, and its bundle \
                 records the steps it was asked for, not the steps it ran\n",
            );
        } else {
            conformance(bundle, spec, &mut verdicts)?;
            optimality(spec, metrics, gates, &mut verdicts)?;
        }
        sections.push(std::mem::take(&mut verdicts.text));
        export = json.map(|out| {
            let mut doc = render_json(&a);
            if let Json::Obj(members) = &mut doc {
                members.append(&mut verdicts.json);
            }
            (out, doc.to_string())
        });
    }
    if let Some(log) = &wire {
        sections.push(render_wire(&match_events(log)));
    }
    print!("{}", sections.join("\n"));
    if let Some((out, body)) = export {
        write(&out, "analysis JSON", &body)?;
        println!("analysis JSON written to {out}");
    }
    if bundle.is_some() {
        verdicts.summary.put("healthy", healthy).print();
    }
    verdict(&verdicts.failures)?;
    Ok(ExitCode::from(u8::from(!healthy)))
}

/// The bundle's ledger against the schedule of the run it recorded,
/// shrinks and fault plan included.
fn conformance(bundle: &RunBundle, spec: &RunSpec, v: &mut Verdicts) -> Result<(), Failure> {
    let plan = bundle
        .faults
        .as_deref()
        .map_or(Ok(FaultPlan::empty()), FaultPlan::parse);
    let plan = plan.map_err(|e| format!("cannot parse the recorded faults: {e}"))?;
    let wire_spec = WireScheduleSpec {
        shrinks: bundle.shrinks.clone(),
        ..spec.wire_spec()
    };
    let expected = match expected_schedule(&wire_spec) {
        Ok(expected) => expected,
        Err(e) if !spec.method().is_ca() => {
            v.text.push_str(&format!("no schedule twin: {e}\n"));
            return Ok(());
        }
        Err(e) => return Err(format!("conformance: {e}").into()),
    };
    let report = check(&expected, &bundle.artifacts.metrics, &plan);
    v.text.push_str(&report.render());
    v.summary
        .put("verdict", report.verdict())
        .put("expected_msgs", report.expected_msgs())
        .put("observed_msgs", report.observed_msgs())
        .put("violations", report.violations.len())
        .put("explained", report.explained())
        .put("unexplained", report.unexplained());
    if report.verdict() == "FAIL" {
        v.failures
            .push("CONFORMANCE FAILED: observed traffic deviates from the CA schedule".into());
    }
    Ok(())
}

/// The measured communication against the paper's bounds and
/// predictions, and the kernel against the machine's roofline.
fn optimality(
    spec: &RunSpec,
    metrics: &MetricsSnapshot,
    gates: &Gates,
    v: &mut Verdicts,
) -> Result<(), Failure> {
    let algorithm = match (spec.method(), spec.layout()?.neighbourhood()) {
        (Method::CaAllPairs { .. }, _) => AuditAlgorithm::AllPairs,
        // Leaders that re-assign do so with their layout's neighbourhood.
        (Method::Ca1dCutoff { .. }, Some(hood)) => AuditAlgorithm::Cutoff1d {
            rc_over_l: spec.cutoff / spec.domain().length_x(),
            reassign_sends: hood.len() as u64 - 1,
        },
        (method, _) if method.is_ca() => {
            v.text.push_str(&format!(
                "no optimality bound: {method:?} has no closed-form lower bound here\n"
            ));
            return Ok(());
        }
        _ => return Ok(()),
    };
    let ceilings = match &gates.baseline {
        Some(path) => load_json(path, ceilings_from_json)?,
        None => FactorCeilings {
            latency: f64::INFINITY,
            bandwidth: f64::INFINITY,
        },
    };
    let roofline_gate = gates
        .roofline_baseline
        .as_ref()
        .map(|path| load_json(path, RooflineGate::from_json))
        .transpose()?;
    let (calibration, source) = load_calibration(gates.calibration.clone())?;
    let name = algorithm.label();
    let c = spec.c;
    v.text.push_str(&format!(
        "optimality audit: {name} n={} p={} c={c} steps={} (ceilings: latency {:.1}, \
         bandwidth {:.1})\n{source}",
        spec.n, spec.p, spec.steps, ceilings.latency, ceilings.bandwidth
    ));
    let acfg = AuditConfig {
        n: spec.n as u64,
        p: spec.p as u64,
        c: c as u64,
        steps: spec.steps as u64,
        algorithm,
        ceilings,
    };
    let report = audit(&acfg, &AuditInput::from_snapshot(metrics));
    let rooflines = [roofline(&format!("{name} c={c}"), metrics, &calibration)];
    v.text.push_str(&audit_table(std::slice::from_ref(&report)));
    v.text.push_str(&roofline_table(&rooflines));
    let mut roofline_pass = true;
    if let Some(gate) = &roofline_gate {
        match gate.check(&rooflines) {
            Ok(best) => v.text.push_str(&format!(
                "roofline gate: best rank {best:.2}% of roofline >= floor {:.2}% - {:.2}%\n",
                gate.min_pct, gate.tolerance_pct
            )),
            Err(e) => {
                roofline_pass = false;
                v.failures.push(e);
            }
        }
    }
    v.json.extend([
        ("audit".into(), audit_json(std::slice::from_ref(&report))),
        ("roofline".into(), roofline_json(&rooflines)),
    ]);
    v.summary
        .put("s_factor", report.s_factor)
        .put("w_factor", report.w_factor)
        .put("shift_words", report.shift_words())
        .put("pass", report.pass)
        .put("roofline_best_pct", rooflines[0].best_pct())
        .put("roofline_pass", roofline_pass);
    if !report.pass {
        v.failures
            .push("AUDIT FAILED: a constant factor exceeded its ceiling".into());
    } else if !roofline_pass {
        v.failures
            .push("AUDIT FAILED: compute efficiency fell below the roofline baseline".into());
    }
    Ok(())
}
