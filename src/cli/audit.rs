//! `audit` and `calibrate`: measured executions against the paper's bounds
//! and against the machine.
//!
//! `audit` runs real instrumented executions across replication factors
//! and compares the measured per-step communication against the paper's
//! lower bounds (Eq. 2/3) and predicted costs (Eq. 5/§IV.B), failing if
//! any constant factor exceeds the ceilings of `--baseline` (default
//! `bench_results/audit_baseline.json`, which must exist: the ceilings have
//! no second home in the code). It also reports the *compute* side: the
//! kernel's live `compute_*` counters joined with a machine calibration
//! (`--calibration`, default `bench_results/machine_calibration.json`,
//! else a quick in-process calibration) become per-rank roofline points —
//! achieved GFLOP/s, arithmetic intensity, %-of-roofline — written with
//! `--roofline-out` and gated by `--roofline-baseline` (fails if the best
//! rank falls below the recorded floor minus its tolerance). Every audit
//! also counts each phase's point-to-point sends twice, from the run's own
//! `CommStats` ledger and from the schedule twin's `expected_schedule`,
//! prints the two side by side, and fails if any phase's counts differ.
//!
//! `calibrate` measures the machine ceilings the roofline uses (packed
//! multiply-add peak, stream bandwidth) with seedable microbenchmarks and writes
//! them as JSON (`--full` for the long, checked-in variant).

use std::process::ExitCode;

use ca_nbody::{expected_schedule, ProcGrid, Run, Window};
use nbody_metrics::{
    audit as audit_run, audit_json, audit_table, ceilings_from_json, AuditAlgorithm, AuditConfig,
    AuditInput, MetricsSnapshot,
};
use nbody_perfmon::{
    roofline, roofline_json, roofline_table, CalibrationConfig, MachineCalibration, RooflineGate,
    RooflineReport,
};
use nbody_trace::{Json, ALL_PHASES, PHASE_COUNT};
use nbody_wireprobe::ExpectedSchedule;

use super::artifact::{load_json, named_or_present, write, JsonPath, Summary};
use super::spec::{Defaults, RunSpec};
use super::{verdict, Failure, Opts};

/// Run real instrumented executions across replication factors and audit
/// the measured communication against the paper's bounds and predictions.
pub fn audit(opts: &mut Opts, _: &[String]) -> Result<ExitCode, Failure> {
    let c: Option<usize> = opts.opt("c")?;
    let base = RunSpec::from_opts(opts, &Defaults::AUDIT)?;
    let baseline: Option<String> = opts.opt("baseline")?;
    let calibration: Option<String> = opts.opt("calibration")?;
    let out_path = opts.opt::<JsonPath>("out")?.map(String::from);
    let roofline_out = opts.opt::<JsonPath>("roofline-out")?.map(String::from);
    let roofline_baseline: Option<String> = opts.opt("roofline-baseline")?;
    opts.finish()?;

    let (n, p, steps) = (base.n, base.p, base.steps);
    if n == 0 || p == 0 || steps == 0 {
        return Err("audit: n, p, and steps must be positive".into());
    }
    let baseline = baseline.unwrap_or_else(|| "bench_results/audit_baseline.json".into());
    let ceilings = load_json(&baseline, ceilings_from_json)?;
    let roofline_gate = roofline_baseline
        .map(|path| load_json(&path, RooflineGate::from_json))
        .transpose()?;
    // A c is auditable if the audited run lays out with it.
    let at = |c: usize| RunSpec { c, ..base.clone() };
    let cs: Vec<usize> = match c {
        Some(c) => {
            at(c).layout().map_err(|e| format!("audit: {e}"))?;
            vec![c]
        }
        // Default sweep: every c = 1..√p the grid supports.
        None => ProcGrid::valid_all_pairs_factors(p)
            .into_iter()
            .filter(|&c| at(c).layout().is_ok())
            .collect(),
    };
    if cs.is_empty() {
        return Err(format!("audit: no usable replication factors for p={p}").into());
    }
    let algo_name = if base.method().needs_cutoff() {
        "cutoff-1d"
    } else {
        "all-pairs"
    };
    println!(
        "optimality audit: {algo_name} n={n} p={p} steps={steps}, c in {cs:?} \
         (ceilings: latency {:.1}, bandwidth {:.1})",
        ceilings.latency, ceilings.bandwidth
    );

    let mut reports = Vec::new();
    let mut rooflines: Vec<RooflineReport> = Vec::new();
    let mut wire_sections: Vec<(usize, String)> = Vec::new();
    let (mut wire_predicted, mut wire_observed, mut wire_agrees) = (0u64, 0u64, true);
    let calibration = load_calibration(calibration)?;
    for &c in &cs {
        let spec = at(c);
        let cfg = spec.config();
        let artifacts = Run::new(&cfg, spec.method(), p)
            .trace()
            .execute(&spec.initial())
            .artifacts;
        let expected = expected_schedule(&spec.wire_spec())
            .map_err(|e| format!("audit: cannot derive wire schedule for c={c}: {e}"))?;
        let rows = send_counts(&expected, &artifacts.metrics);
        wire_predicted += rows.iter().map(|r| r.1).sum::<u64>();
        wire_observed += rows.iter().map(|r| r.2).sum::<u64>();
        wire_agrees &= rows.iter().all(|r| r.1 == r.2);
        wire_sections.push((c, send_table(&rows)));
        // The same instrumented run feeds every side of the audit: its
        // comm counters go to the send counts and the optimality check,
        // its compute counters to the roofline.
        let kernel = format!("{algo_name} c={c}");
        rooflines.push(roofline(&kernel, &artifacts.metrics, &calibration));
        // Leaders that re-assign do so with their layout's neighbourhood.
        let algorithm = match spec.layout()?.neighbourhood() {
            Some(hood) => AuditAlgorithm::Cutoff1d {
                rc_over_l: spec.cutoff / spec.domain().length_x(),
                reassign_sends: hood.len() as u64 - 1,
            },
            None => AuditAlgorithm::AllPairs,
        };
        let acfg = AuditConfig {
            n: n as u64,
            p: p as u64,
            c: c as u64,
            steps: steps as u64,
            algorithm,
            ceilings,
        };
        let input = AuditInput::from_snapshot(&artifacts.metrics);
        reports.push(audit_run(&acfg, &input));
    }
    print!("{}", audit_table(&reports));
    for (c, table) in &wire_sections {
        println!("c={c}:");
        print!("{table}");
    }
    if let Some(path) = &out_path {
        write(path, "audit report", &audit_json(&reports).to_string())?;
        println!("audit report written to {path}");
    }

    print!("{}", roofline_table(&rooflines));
    if let Some(path) = &roofline_out {
        write(
            path,
            "roofline report",
            &roofline_json(&rooflines).to_string(),
        )?;
        println!("roofline report written to {path}");
    }
    let roofline_best = rooflines
        .iter()
        .map(RooflineReport::best_pct)
        .fold(0.0, f64::max);
    let mut failures: Vec<String> = Vec::new();
    if let Some(gate) = &roofline_gate {
        match gate.check(&rooflines) {
            Ok(best) => println!(
                "roofline gate: best rank {best:.2}% of roofline >= floor \
                 {:.2}% - {:.2}%",
                gate.min_pct, gate.tolerance_pct
            ),
            Err(e) => failures.push(e),
        }
    }
    let roofline_pass = failures.is_empty();
    let comm_pass = reports.iter().all(|r| r.pass);

    let rows: Vec<Json> = reports
        .iter()
        .map(|r| {
            Summary::default()
                .put("c", r.config.c)
                .put("s_factor", r.s_factor)
                .put("w_factor", r.w_factor)
                .put("shift_words", r.shift_words())
                .put("pass", r.pass)
                .to_json()
        })
        .collect();
    let mut summary = Summary::of("audit");
    summary
        .put("algorithm", algo_name)
        .put("n", n)
        .put("p", p)
        .put("steps", steps)
        .put("rows", rows)
        .put("roofline_best_pct", roofline_best)
        .put("roofline_pass", roofline_pass)
        .put("wire_predicted_msgs", wire_predicted)
        .put("wire_observed_msgs", wire_observed)
        .put("wire_pass", wire_agrees)
        .put("pass", comm_pass && roofline_pass);
    summary.print();
    if !wire_agrees {
        failures.push("AUDIT FAILED: a phase's ledger send count is not the schedule's".into());
    }
    if !comm_pass {
        failures.push("AUDIT FAILED: a constant factor exceeded its ceiling".into());
    } else if !roofline_pass {
        failures.push("AUDIT FAILED: compute efficiency fell below the roofline baseline".into());
    }
    verdict(&failures)
}

/// Each phase's point-to-point sends over the whole run, as
/// `(phase label, schedule twin, ledger)`; phases neither side sends in
/// are left out.
fn send_counts(
    expected: &ExpectedSchedule,
    metrics: &MetricsSnapshot,
) -> Vec<(&'static str, u64, u64)> {
    let mut predicted = [0u64; PHASE_COUNT];
    for m in &expected.msgs {
        predicted[m.phase.index()] += 1;
    }
    ALL_PHASES
        .into_iter()
        .map(|phase| {
            let sent = metrics.sum_counter("comm_send_messages", Some(phase));
            (phase.label(), predicted[phase.index()], sent)
        })
        .filter(|&(_, predicted, sent)| predicted > 0 || sent > 0)
        .collect()
}

/// The per-phase section [`send_counts`] is printed as.
fn send_table(rows: &[(&str, u64, u64)]) -> String {
    let mut out = String::from(
        "  wire messages (observed in the ledger vs predicted by the schedule, whole run)\n",
    );
    out.push_str(&format!(
        "  {:<11} {:>12} {:>12} {:>8}\n",
        "phase", "predicted", "observed", "delta"
    ));
    for &(phase, predicted, sent) in rows {
        let delta = sent as i64 - predicted as i64;
        out.push_str(&format!(
            "  {phase:<11} {predicted:>12} {sent:>12} {delta:>+8}\n"
        ));
    }
    out
}

/// Resolve the machine calibration the roofline uses: an explicit
/// `--calibration` path, else the checked-in default if present, else a
/// quick in-process measurement.
fn load_calibration(explicit: Option<String>) -> Result<MachineCalibration, String> {
    const DEFAULT_PATH: &str = "bench_results/machine_calibration.json";
    let (cal, source) = match named_or_present(explicit, DEFAULT_PATH) {
        Some(path) => {
            let cal = load_json(&path, MachineCalibration::from_json)?;
            (cal, format!("calibration from {path}"))
        }
        // No recorded calibration: measure a quick one so the audit
        // still renders a roofline (noisier than the recorded file).
        None => {
            let cal = MachineCalibration::measure(&CalibrationConfig::quick());
            (cal, format!("no {DEFAULT_PATH}; quick live calibration"))
        }
    };
    println!(
        "{source}: peak {:.2} GFLOP/s, bandwidth {:.2} GB/s",
        cal.peak_gflops, cal.mem_bw_gbytes
    );
    Ok(cal)
}

/// `calibrate`: run the machine microbenchmarks and persist the ceilings.
pub fn calibrate(opts: &mut Opts, _: &[String]) -> Result<ExitCode, Failure> {
    let full = opts.get("full", false)?;
    let mut cfg = if full {
        CalibrationConfig::full()
    } else {
        CalibrationConfig::quick()
    };
    cfg.seed = opts.get("seed", cfg.seed)?;
    let out_path: Option<String> = opts.opt("out")?;
    opts.finish()?;
    println!(
        "calibrating ({}): {} multiply-add iters x {} lanes, {} MiB stream, best of {}",
        if full { "full" } else { "quick" },
        cfg.fma_iters,
        nbody_perfmon::calibrate::LANES,
        cfg.stream_mib,
        cfg.repeats
    );
    let start = std::time::Instant::now();
    let cal = MachineCalibration::measure(&cfg);
    let elapsed = start.elapsed();
    println!(
        "  multiply-add peak {:.3} GFLOP/s, stream bandwidth {:.3} GB/s ({elapsed:.2?})",
        cal.peak_gflops, cal.mem_bw_gbytes
    );
    if let Some(path) = &out_path {
        write(path, "calibration", &cal.to_json().to_string())?;
        println!("  calibration written to {path}");
    }
    Summary::of("calibrate")
        .put("full", full)
        .put("seed", cfg.seed)
        .put("peak_gflops", cal.peak_gflops)
        .put("mem_bw_gbytes", cal.mem_bw_gbytes)
        .put("elapsed_secs", elapsed.as_secs_f64())
        .print();
    Ok(ExitCode::SUCCESS)
}
