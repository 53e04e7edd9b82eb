//! `run` and `verify`: one live execution, built from the flags.
//!
//! `--trace=<path>` writes the run bundle, the one file `analyze` reads:
//! a Chrome `trace_event` JSON object (open it in Perfetto or
//! `chrome://tracing`) of per-rank wall-clock spans, carrying beside its
//! `traceEvents` the run's spec, `--faults` plan and shrinks, the live
//! metrics snapshot (the ledger's per-channel sends, message-size
//! histograms, memory high-water marks) and the per-step timeline with the
//! always-on flight-recorder ring (DESIGN §15.4). A resumed run records the
//! steps it ran. When a fault-injected run dies, the same path receives
//! the bundle as a *postmortem*: its timeline carries the failure reason
//! and the events leading up to it. A `csv` or `prom` extension is
//! refused: the bundle has one encoding.
//!
//! `--wire-probe=<path>` turns on message-level wire probes: every rank
//! records each point-to-point protocol message (send/recv, rank pair,
//! tag, phase, payload size, timestamp against a shared epoch) into a
//! bounded ring, merged after the run into one `nbody-wireprobe/v1` JSON
//! log.
//!
//! `--faults` is the one door for injected faults: a deterministic plan
//! (comma-separated `kind:rank@step` entries, or `crash@step`) that
//! switches `run`/`verify` to the fault-tolerant CA drivers. The wire
//! kinds `kill | drop | dup | delay` strike a pipeline step (0 = skew) of
//! the first evaluation that reaches it; `nan` poisons a force after
//! timestep `step`'s reduction and `corrupt` flips a checkpoint bit at its
//! start (both turn the health monitors on, and a `nan` must land on a
//! step they check); `crash@S` exits the process with code 137 right after
//! global step `S`'s checkpoint is durable, so it needs `--checkpoint-dir`.
//! A malformed plan is a start-up error (exit 2); an event that could never
//! fire in this run (a rank `≥ p`, a `nan` aimed at a replica rank
//! `≥ p/c`, a timestep past the last) is refused before anything runs
//! (exit 1). Retries follow
//! [`RetryPolicy::with_timeout_ms`]: the first
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
//! matches the flags — and continues mid-run; `--faults=crash@S` exercises
//! that path end to end. The cadence and the retry policy are set by these
//! flags and nothing else: no environment variable stands in for one.

use std::process::ExitCode;
use std::time::Instant;

use ca_nbody::recovery::RetryPolicy;
use ca_nbody::{run_serial, CheckpointConfig, Run};
use nbody_analyze::analyze;
use nbody_comm::{FaultKind, FaultPlan, RunBundle};
use nbody_durable::load_latest;
use nbody_physics::diagnostics;
use nbody_simhealth::{HealthBaseline, HealthConfig};
use nbody_timeline::DriftConfig;

use super::artifact::{load, named_or_present, write, JsonPath, Summary};
use super::spec::{Defaults, RunSpec};
use super::{verdict, Failure, Opts};

/// `--faults=SPEC`: what the run injects, and its bundle records.
fn fault_plan(opts: &mut Opts) -> Result<Option<FaultPlan>, Failure> {
    let spec: Option<String> = opts.opt("faults")?;
    let plan = spec.map(|s| FaultPlan::parse(&s)).transpose();
    plan.map_err(|e| Failure::startup(format!("invalid --faults spec: {e}")))
}

/// Numerical-health monitors: `--health` or `--health-every` turns them on.
/// (A plan holding a `nan` or `corrupt` runs them too; `Run` sees to it.)
fn health_config(opts: &mut Opts) -> Result<Option<HealthConfig>, Failure> {
    let every: Option<u64> = opts.opt("health-every")?;
    if !(opts.get("health", false)? || every.is_some()) {
        return Ok(None);
    }
    Ok(Some(HealthConfig {
        every: every.unwrap_or(1).max(1),
    }))
}

const CA_ONLY: &str = "each of --faults/--checkpoint-dir/--resume/--health requires a CA method \
                       (ca, ring, ring-symmetric, force-decomp, ca-cutoff-1d, ca-cutoff-2d, halo-1d, halo-2d)";

/// `run`; as `verify`, the result is then held against the serial reference.
pub fn execute(opts: &mut Opts, verify: bool) -> Result<ExitCode, Failure> {
    let spec = RunSpec::from_opts(opts, &Defaults::RUN)?;
    let (method, p) = (spec.method(), spec.p);
    let teams = spec.layout()?.grid.teams();

    let trace_path = opts.opt::<JsonPath>("trace")?.map(String::from);
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
    let plan = faults.clone().unwrap_or_else(FaultPlan::empty);
    if plan.holds(FaultKind::Crash) && ckpt_dir.is_none() {
        return Err(Failure::startup(
            "--faults=crash@S needs --checkpoint-dir: the crash fires after a checkpoint is durable",
        ));
    }
    let monitored = health_cfg.is_some() || plan.needs_monitors();
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
        });
    }
    // The CI gate: drift and event counts against the versioned baseline.
    // An explicitly named baseline must exist; the default one is optional
    // (monitors still ran, the gate is just skipped).
    let health_baseline = if monitored {
        named_or_present(
            opts.opt("health-baseline")?,
            "bench_results/health_baseline.json",
        )
    } else {
        None
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
    }
    let health_every = health_cfg.map_or(1, |h| h.every);
    let base = resumed_from.unwrap_or(0);
    plan.check(p, teams, base, spec.steps as u64, health_every)?;
    if let Some(dir) = &resume_dir {
        println!(
            "  resumed from {dir} at step {base} ({} particles, {} steps left)",
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
    let mut run = Run::new(&cfg, method, p);
    // Fault-tolerant runs always trace, so recovery overhead shows up in
    // `analyze` breakdowns and the fault counters reach the summary.
    let traced = recovering || trace_path.is_some() || wire_path.is_some();
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
    // What this process ran: a resumed run the steps after its checkpoint.
    let ran = RunSpec {
        steps: cfg.steps,
        ..spec.clone()
    };
    let mut bundle = RunBundle {
        spec: ran.options(),
        faults: faults.as_ref().map(FaultPlan::spec),
        shrinks: out
            .result
            .as_ref()
            .map_or(Vec::new(), |r| r.shrinks.clone()),
        artifacts: out.artifacts,
    };
    let artifacts = &bundle.artifacts;
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
            // The wire log survives the failure too: what actually
            // crossed the wire is exactly what a postmortem needs.
            if let Some(path) = &wire_path {
                note(write_wire(path), "wire-probe log", path);
            }
            // The flight recorder was on the whole time: the bundle is the
            // postmortem the failure is diagnosed from.
            if let Some(path) = &trace_path {
                let timeline = &mut bundle.artifacts.timeline;
                if !timeline.is_postmortem() {
                    *timeline = std::mem::take(timeline).with_failure(&e.to_string());
                }
                let written = write(path, "postmortem", &bundle.to_json());
                note(written, "postmortem bundle", path);
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
    if !result.shrinks.is_empty() {
        println!(
            "  degraded: world shrank {}x onto {} ranks, {} particles lost",
            result.shrinks.len(),
            result.final_ranks,
            result.lost_particles
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
        let a = analyze(trace, metrics, method.replication());
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
    // Each file the flags asked for: its line, its summary keys.
    if let Some(path) = &trace_path {
        write(path, "run bundle", &bundle.to_json())?;
        let samples: usize = timeline.ranks.iter().map(|r| r.samples.len()).sum();
        println!(
            "  run bundle written to {path} ({} spans, {} ranks, {samples} step samples)",
            trace.spans.len(),
            metrics.ranks.len()
        );
        let drift_windows = timeline.drift(&DriftConfig::default()).len();
        summary
            .put("trace_path", path.as_str())
            .put("timeline_samples", samples)
            .put("drift_windows", drift_windows);
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
    let degraded = !result.shrinks.is_empty() || result.lost_particles > 0;
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
            .put("shrinks", result.shrinks.len())
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
