//! `run` and `verify`: one live execution, built from the flags.
//!
//! `--trace` records per-rank wall-clock spans and writes them as Chrome
//! `trace_event` JSON (open in Perfetto or `chrome://tracing`; `analyze`
//! reads it back). `--metrics` writes the live metrics snapshot
//! (per-rank communication counters, message-size histograms, memory
//! high-water marks) as JSON. Both refuse a `csv` or `prom` extension: each
//! artifact has one encoding.
//!
//! `--record-timeline=<path>` writes the run's per-step time series
//! (bytes, blocked time, FLOPs, particles per rank) plus the always-on
//! flight-recorder event ring as one `nbody-timeline/v1` JSON bundle.
//! When a fault-injected run dies, the same path receives a *postmortem*
//! bundle carrying the failure reason and the events leading up to it.
//!
//! `--wire-probe=<path>` turns on message-level wire probes: every rank
//! records each point-to-point protocol message (send/recv, rank pair,
//! tag, phase, payload size, timestamp against a shared epoch) into a
//! bounded ring, merged after the run into one `nbody-wireprobe/v1` JSON
//! log.
//!
//! `--faults` injects a deterministic fault schedule (spec grammar
//! `kind:rank@step` with kinds `kill | drop | dup | delay`, comma-
//! separated) and switches `run`/`verify` to the fault-tolerant CA
//! drivers. Retries follow [`RetryPolicy::with_timeout_ms`]: the first
//! attempt waits `fault-timeout-ms` per receive, every retry twice as
//! long, up to three retries and a minute per evaluation. When every
//! replica of a column dies the run *shrinks*: survivors agree on the
//! dead teams, re-decompose onto the remaining ranks, and finish in
//! degraded mode (the summary reports `shrinks`, `lost_particles`,
//! `final_ranks`).
//!
//! `--checkpoint-dir` makes the run persist a durable
//! `nbody-checkpoint/v1` bundle (atomic temp-file + rename) every
//! `checkpoint-every` completed steps; `--resume=<dir>` restores the
//! newest bundle — rejecting it unless its run-config fingerprint
//! matches the flags — and continues mid-run. `--crash-at-step=<s>`
//! kills the process (exit 137) right after that step's bundle hits the
//! disk, exercising the resume path end to end. The cadence and the
//! retry policy are set by these flags and nothing else: no environment
//! variable stands in for one.

use std::process::ExitCode;
use std::time::Instant;

use ca_nbody::recovery::RetryPolicy;
use ca_nbody::{run_serial, CheckpointConfig, Run};
use nbody_analyze::analyze;
use nbody_comm::FaultPlan;
use nbody_durable::load_latest;
use nbody_physics::diagnostics;
use nbody_simhealth::{HealthBaseline, HealthConfig, HealthInjection};
use nbody_timeline::DriftConfig;
use nbody_trace::ALL_PHASES;

use super::artifact::{load, named_or_present, write, JsonPath, Summary};
use super::spec::{fault_plan, Defaults, RunSpec};
use super::{verdict, Failure, Opts};

/// Numerical-health monitors: `--health` turns them on; the injection
/// flags (seeded non-finite / replica corruption) imply them, since an
/// injection without its monitor would be an unobserved fault.
fn health_config(opts: &mut Opts) -> Result<Option<HealthConfig>, Failure> {
    let every: Option<u64> = opts.opt("health-every")?;
    let nan: Option<String> = opts.opt("inject-nan")?;
    let corrupt: Option<String> = opts.opt("corrupt-replica")?;
    if !(opts.get("health", false)? || every.is_some() || nan.is_some() || corrupt.is_some()) {
        return Ok(None);
    }
    let target = |flag: &str, spec: Option<String>| {
        spec.map(|s| HealthInjection::parse_target(&s))
            .transpose()
            .map_err(|e| format!("invalid --{flag} target: {e}"))
    };
    let mut h = HealthConfig::enabled();
    h.every = every.unwrap_or(1).max(1);
    h.injection.nan = target("inject-nan", nan)?;
    h.injection.corrupt = target("corrupt-replica", corrupt)?;
    Ok(Some(h))
}

const CA_ONLY: &str = "each of --faults/--checkpoint-dir/--resume/--health requires a CA method \
                       (ca, ca-cutoff-1d, ca-cutoff-2d)";

/// `run`; as `verify`, the result is then held against the serial reference.
pub fn execute(opts: &mut Opts, verify: bool) -> Result<ExitCode, Failure> {
    let spec = RunSpec::from_opts(opts, &Defaults::RUN)?;
    let (method, p) = (spec.method(), spec.p);
    spec.layout()?;

    let trace_path = opts.opt::<JsonPath>("trace")?.map(String::from);
    let metrics_path = opts.opt::<JsonPath>("metrics")?.map(String::from);
    let timeline_path: Option<String> = opts.opt("record-timeline")?;
    let wire_path: Option<String> = opts.opt("wire-probe")?;
    let faults = fault_plan(opts)?;
    let health_cfg = health_config(opts)?;

    // Durable checkpointing: --checkpoint-dir turns on the cadence sink,
    // --resume restores the newest bundle from a directory (and keeps
    // checkpointing into it unless --checkpoint-dir redirects).
    let resume_dir: Option<String> = opts.opt("resume")?;
    let ckpt_dir = opts.opt("checkpoint-dir")?.or_else(|| resume_dir.clone());
    // Each of the three selects the fault-tolerant evaluation; they compose
    // freely with each other and with every lens.
    let recovering = faults.is_some() || ckpt_dir.is_some() || health_cfg.is_some();
    if recovering && !method.is_ca() {
        return Err(CA_ONLY.into());
    }
    let policy = if recovering {
        RetryPolicy::with_timeout_ms(opts.get("fault-timeout-ms", 1000)?)
    } else {
        RetryPolicy::default()
    };
    let mut ckpt = None;
    if let Some(dir) = ckpt_dir {
        let every = opts.get("checkpoint-every", 1)?;
        if every == 0 {
            return Err("checkpoint-every must be a positive step count".into());
        }
        ckpt = Some(CheckpointConfig {
            dir: dir.into(),
            every,
            base_step: 0,
            fingerprint: spec.fingerprint().digest(),
            seed: spec.seed,
            crash_at: opts.opt("crash-at-step")?,
        });
    }
    // The CI gate: drift and event counts against the versioned baseline.
    // An explicitly named baseline must exist; the default one is optional
    // (monitors still ran, the gate is just skipped).
    let health_baseline = match &health_cfg {
        Some(_) => named_or_present(
            opts.opt("health-baseline")?,
            "bench_results/health_baseline.json",
        ),
        None => None,
    };
    opts.finish()?;
    let health_baseline = health_baseline
        .map(|path| load(&path, HealthBaseline::parse))
        .transpose()?;

    let mut cfg = spec.config();
    let mut initial = spec.initial();
    let mut resumed_from: Option<u64> = None;
    if let (Some(dir), Some(ck)) = (&resume_dir, &mut ckpt) {
        let bundle = load_latest(std::path::Path::new(dir))
            .map_err(|e| format!("cannot resume from {dir}: {e}"))?;
        bundle
            .validate_fingerprint(&ck.fingerprint)
            .map_err(|e| format!("resume rejected: {e}"))?;
        if bundle.step as usize > spec.steps {
            return Err(format!(
                "resume rejected: checkpoint is at step {} but the run has only {}",
                bundle.step, spec.steps
            )
            .into());
        }
        ck.base_step = bundle.step;
        resumed_from = Some(bundle.step);
        initial = bundle.all_particles();
        cfg.steps = spec.steps - bundle.step as usize;
        println!(
            "  resumed from {dir} at step {} ({} particles, {} steps left)",
            bundle.step,
            initial.len(),
            cfg.steps
        );
    }

    println!(
        "{method:?} on {p} ranks: n={}, steps={}, dt={}, law={}",
        spec.n, spec.steps, spec.dt, spec.law_name
    );
    let start = Instant::now();
    // One run, built from the flags.
    let plan = faults.clone().unwrap_or_else(FaultPlan::empty);
    let mut run = Run::new(&cfg, method, p);
    // Fault-tolerant runs always trace, so recovery overhead shows up in
    // `analyze` breakdowns and the fault counters reach the summary.
    let files = [&trace_path, &metrics_path, &timeline_path, &wire_path];
    let traced = recovering || files.iter().any(|f| f.is_some());
    if traced {
        run = run.trace();
    }
    if wire_path.is_some() {
        run = run.probe();
    }
    if recovering {
        run = run.faults(&plan, &policy);
    }
    if let Some(ck) = &ckpt {
        run = run.checkpoint(ck);
    }
    if let Some(h) = &health_cfg {
        run = run.health(h);
    }
    let out = run.execute(&initial);
    let artifacts = out.artifacts;
    let write_wire = |path: &str| write(path, "wire log", &artifacts.wire.to_json());
    let result = match out.result {
        Ok(result) => result,
        Err(e) => {
            let mut report = vec![if health_cfg.is_some() && faults.is_none() {
                format!("health-instrumented run failed: {e}")
            } else {
                format!("fault-injected run failed: {e}")
            }];
            let mut note = |written: Result<(), String>, what: &str, path: &str| {
                report.push(written.map_or_else(|we| we, |()| format!("{what} written to {path}")));
            };
            // The flight recorder was on the whole time: dump the
            // postmortem bundle so the failure can be diagnosed.
            if let Some(path) = &timeline_path {
                let mut bundle = artifacts.timeline.clone();
                if !bundle.is_postmortem() {
                    bundle = bundle.with_failure(&e.to_string());
                }
                let written = write(path, "postmortem", &bundle.to_json());
                note(written, "postmortem bundle", path);
            }
            // The wire log survives the failure too: what actually
            // crossed the wire is exactly what a postmortem needs.
            if let Some(path) = &wire_path {
                note(write_wire(path), "wire-probe log", path);
            }
            return Err(report.join("\n").into());
        }
    };
    if let Some(plan) = &faults {
        println!(
            "  faults [{}]: max attempts {}, recovered: {}",
            plan.spec(),
            result.max_attempts,
            result.recovered
        );
    }
    if result.shrinks > 0 {
        println!(
            "  degraded: world shrank {}x onto {} ranks, {} particles lost",
            result.shrinks, result.final_ranks, result.lost_particles
        );
    }
    if let Some(hr) = &result.health {
        println!(
            "  health: {} steps checked, max |ΔE/E₀| {:.3e}, max |p| {:.3e}, \
             {} sentinel event(s), {} fingerprint mismatch(es)",
            hr.steps_checked,
            hr.max_rel_energy_drift,
            hr.max_momentum_norm,
            hr.sentinel_events,
            hr.fingerprint_mismatches
        );
    }
    let (trace, metrics, timeline) = (&artifacts.trace, &artifacts.metrics, &artifacts.timeline);
    let elapsed = start.elapsed();
    let kinetic = diagnostics::total_kinetic_energy(&result.particles);
    let rank0_messages = result.stats[0].total_messages();
    println!(
        "  done in {elapsed:.2?}; kinetic energy {kinetic:.4e}; rank-0 messages {rank0_messages}"
    );

    let mut summary = Summary::of(if verify { "verify" } else { "run" });
    summary
        .put("method", spec.method_name.as_str())
        .put("law", spec.law_name.as_str())
        .put("n", spec.n)
        .put("p", p)
        .put("c", method.replication())
        .put("steps", spec.steps)
        .put("elapsed_secs", elapsed.as_secs_f64())
        .put("kinetic_energy", kinetic)
        .put("rank0_messages", rank0_messages);
    if traced {
        // Post-run diagnosis: per-phase imbalance factors and the
        // critical-path split of the makespan (what actually gated the
        // run, not the mean across ranks).
        let a = analyze(trace, Some(metrics), method.replication());
        let (crit_compute, crit_comm, crit_blocked) = a.critical_split();
        let mut imbalance = Summary::default();
        for row in &a.breakdown.phases {
            imbalance.put(row.phase.label(), row.imbalance());
        }
        let imbalance = imbalance.to_json();
        summary
            .put("trace_spans", trace.spans.len())
            .put("trace_wall_secs", a.breakdown.wall_secs)
            .put("critical_compute_secs", crit_compute)
            .put("critical_comm_secs", crit_comm)
            .put("critical_blocked_secs", crit_blocked)
            .put("imbalance", imbalance);
    }
    // Each lens the flags asked for: its file, its line, its summary keys.
    if let Some(path) = &trace_path {
        write(path, "trace", &trace.to_chrome_json())?;
        println!("  trace written to {path} ({} spans)", trace.spans.len());
        summary.put("trace_path", path.as_str());
    }
    if let Some(path) = &timeline_path {
        write(path, "timeline", &timeline.to_json())?;
        let ranks = timeline.ranks.len();
        let samples: usize = timeline.ranks.iter().map(|r| r.samples.len()).sum();
        println!("  timeline written to {path} ({ranks} ranks, {samples} step samples)");
        let drift_windows = timeline.drift(&DriftConfig::default()).len();
        summary
            .put("timeline_path", path.as_str())
            .put("timeline_samples", samples)
            .put("drift_windows", drift_windows);
    }
    if let Some(path) = &metrics_path {
        write(path, "metrics", &metrics.to_json().to_string())?;
        println!(
            "  metrics written to {path} ({} ranks)",
            metrics.ranks.len()
        );
        let total_sends: u64 = ALL_PHASES
            .iter()
            .map(|ph| metrics.sum_counter("comm_send_messages", Some(*ph)))
            .sum();
        summary
            .put("metrics_path", path.as_str())
            .put("total_send_messages", total_sends);
    }
    if let Some(path) = &wire_path {
        write_wire(path)?;
        let (events, evicted) = (
            artifacts.wire.total_events(),
            artifacts.wire.total_dropped(),
        );
        println!("  wire probes written to {path} ({events} events, {evicted} evicted)");
        summary
            .put("wire_probe_path", path.as_str())
            .put("wire_events", events)
            .put("wire_dropped_events", evicted);
    }
    let degraded = result.shrinks > 0 || result.lost_particles > 0;
    if verify && degraded {
        // A shrunken run dropped the dead columns' particles mid-flight;
        // the full-world serial trajectory is no longer the reference.
        println!("  degraded run: serial verification skipped");
    }
    if verify && !degraded {
        let serial = run_serial(&cfg, &initial);
        let err = result
            .particles
            .iter()
            .zip(&serial)
            .map(|(a, b)| (a.pos - b.pos).norm())
            .fold(0.0, f64::max);
        println!("  max deviation vs serial: {err:.3e}");
        if err > 1e-9 {
            return Err("VERIFY FAILED".into());
        }
        println!("  VERIFY OK");
        summary.put("max_deviation", err).put("verify_ok", true);
    }
    let counters = |summary: &mut Summary, keys: &[&str]| {
        for key in keys {
            summary.put(key, metrics.sum_counter(key, None));
        }
    };
    if recovering {
        summary
            .put("max_attempts", result.max_attempts)
            .put("recovered", result.recovered)
            .put("shrinks", result.shrinks)
            .put("lost_particles", result.lost_particles)
            .put("final_ranks", result.final_ranks);
        if let Some(plan) = &faults {
            summary.put("faults", plan.spec());
            counters(
                &mut summary,
                &[
                    "fault_injected_total",
                    "fault_detected_total",
                    "fault_retries_total",
                    "recovery_bytes_total",
                ],
            );
        }
    }
    let mut health_violations: Vec<String> = Vec::new();
    if let Some(hr) = &result.health {
        summary
            .put("health_steps_checked", hr.steps_checked)
            .put("health_sentinel_events", hr.sentinel_events)
            .put("health_fingerprint_mismatches", hr.fingerprint_mismatches)
            .put("energy0", hr.energy_first)
            .put("energy_final", hr.energy_last)
            .put("energy_drift_rel", hr.max_rel_energy_drift)
            .put("momentum_norm_max", hr.max_momentum_norm);
        if let Some(base) = &health_baseline {
            health_violations = base.gate(hr);
            let gate = if health_violations.is_empty() {
                "pass"
            } else {
                "fail"
            };
            summary.put("health_gate", gate);
        }
    }
    if let Some(ck) = &ckpt {
        summary
            .put("checkpoint_dir", ck.dir.display().to_string())
            .put("checkpoint_every", ck.every);
        counters(
            &mut summary,
            &["checkpoint_persisted_total", "checkpoint_bytes_total"],
        );
    }
    if let Some(step) = resumed_from {
        summary.put("resumed_from_step", step);
    }
    summary.print();
    let gate = health_violations
        .iter()
        .map(|v| format!("HEALTH GATE: {v}"));
    verdict(&gate.collect::<Vec<_>>())
}
