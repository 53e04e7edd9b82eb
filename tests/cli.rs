//! End-to-end tests of the `ca-nbody-repro` command-line interface.

use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ca-nbody-repro"))
}

#[test]
fn verify_subcommand_passes_for_default_config() {
    let out = cli()
        .args(["verify", "n=128", "p=4", "c=2", "steps=5"])
        .output()
        .expect("failed to launch CLI");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "stdout: {stdout}");
    assert!(stdout.contains("VERIFY OK"), "{stdout}");
}

#[test]
fn verify_covers_every_method() {
    for method in [
        "ca",
        "ring",
        "ring-symmetric",
        "allgather",
        "force-decomp",
        "ca-cutoff-1d",
        "ca-cutoff-2d",
        "halo-1d",
        "halo-2d",
        "midpoint-1d",
        "midpoint-2d",
    ] {
        let out = cli()
            .args([
                "verify",
                &format!("method={method}"),
                "n=64",
                "p=4",
                "c=2",
                "steps=3",
            ])
            .output()
            .expect("failed to launch CLI");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success() && stdout.contains("VERIFY OK"),
            "method {method}: {stdout}\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn verify_covers_every_law_variant() {
    // The five runtime-selected `AnyLaw` variants (each forwards the lane
    // call to its concrete law): law x whether the method wraps a cutoff.
    for (law, method) in [
        ("repulsive", "ca"),
        ("repulsive", "ca-cutoff-1d"),
        ("gravity", "ca"),
        ("gravity", "ca-cutoff-1d"),
        ("lj", "ca"),
    ] {
        let out = cli()
            .args([
                "verify",
                &format!("law={law}"),
                &format!("method={method}"),
                "n=63",
                "p=4",
                "c=1",
                "steps=3",
            ])
            .output()
            .expect("failed to launch CLI");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success() && stdout.contains("VERIFY OK"),
            "law {law} method {method}: {stdout}\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn force_decomp_requires_square_p() {
    // §III as code: `ring` is Algorithm 1 at c = 1, `force-decomp` at c = √p.
    for (method, p) in [("ring", "p=6"), ("force-decomp", "p=9")] {
        let out = cli()
            .args(["verify", &format!("method={method}"), "n=32", p, "steps=2"])
            .output()
            .expect("failed to launch CLI");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success() && stdout.contains("VERIFY OK"),
            "{method}: {stdout}"
        );
        assert!(stdout.contains("CaAllPairs"), "{method}: {stdout}");
    }
    // No √p: the usual one-line layout error, not a panic per rank.
    let out = cli()
        .args(["verify", "method=force-decomp", "n=32", "p=8", "steps=2"])
        .output()
        .expect("failed to launch CLI");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(stderr.contains("c=3 is not usable with p=8"), "{stderr}");
    assert!(!stderr.contains("panicked at"), "{stderr}");
}

#[test]
fn unknown_subcommand_fails_with_usage() {
    // `report` and `health` were folded into `analyze`; `autotune` had no
    // reader.
    for name in [
        "frobnicate",
        "scale",
        "postmortem",
        "report",
        "health",
        "autotune",
    ] {
        let out = cli().arg(name).output().expect("launch");
        assert_eq!(out.status.code(), Some(2), "{name}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("usage"),
            "{name}"
        );
    }
}

#[test]
fn unknown_method_fails() {
    let out = cli()
        .args(["run", "method=quantum"])
        .output()
        .expect("launch");
    assert!(!out.status.success());
}

#[test]
fn run_emits_single_line_json_summary() {
    let out = cli()
        .args(["run", "n=64", "p=4", "c=2", "steps=2"])
        .output()
        .expect("launch");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("no output");
    let doc = nbody_trace::Json::parse(last).expect("last line is not JSON");
    assert_eq!(doc.get("cmd").unwrap().as_str(), Some("run"));
    assert_eq!(doc.get("n").unwrap().as_f64(), Some(64.0));
    assert_eq!(doc.get("p").unwrap().as_f64(), Some(4.0));
    assert!(doc.get("elapsed_secs").unwrap().as_f64().unwrap() > 0.0);
}

#[test]
fn trace_flag_writes_valid_chrome_trace() {
    let dir = std::env::temp_dir().join("ca_nbody_cli_trace_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trace.json");
    let out = cli()
        .args([
            "run",
            "method=ca-cutoff-1d",
            "n=256",
            "p=8",
            "c=2",
            "steps=3",
            &format!("--trace={}", path.display()),
        ])
        .output()
        .expect("launch");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&path).expect("trace file not written");
    let trace = nbody_trace::ExecutionTrace::parse(&text).expect("invalid trace");
    assert_eq!(trace.ranks, 8);
    // The cutoff method must leave a window for each phase it drives.
    use nbody_trace::Phase;
    let present = trace.phases_present();
    for want in [
        Phase::Broadcast,
        Phase::Shift,
        Phase::Reduce,
        Phase::Reassign,
        Phase::Other,
    ] {
        assert!(present.contains(&want), "missing {want:?} in {present:?}");
    }
    // Driver sections carry per-step spans.
    assert_eq!(trace.step_reports().len(), 3);
    std::fs::remove_file(&path).ok();
}

#[test]
fn analyze_prints_the_per_phase_and_per_step_tables() {
    let dir = std::env::temp_dir().join("ca_nbody_cli_report_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trace.json");
    let run = cli()
        .args([
            "run",
            "n=128",
            "p=4",
            "c=2",
            "steps=2",
            &format!("--trace={}", path.display()),
        ])
        .output()
        .expect("launch");
    assert!(run.status.success());
    let out = cli()
        .args(["analyze", path.to_str().unwrap()])
        .output()
        .expect("launch");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("per-phase wall-clock"), "{stdout}");
    assert!(stdout.contains("per-step driver sections"), "{stdout}");
    // Every number of the trace's one per-phase summary is in the table:
    // a row per phase with time, mean through share.
    let trace = nbody_trace::ExecutionTrace::parse(&std::fs::read_to_string(&path).unwrap())
        .expect("invalid trace");
    let b = trace.phase_breakdown();
    let shares: Vec<f64> = b.phases.iter().map(|r| b.share(r.secs.mean)).collect();
    for (r, share) in b.phases.iter().zip(shares) {
        let row = format!(
            "{:<10} {:>10.6} {:>10.6} {:>10.6} {:>10.6} {:>9} {:>8.3} {:>10.6} {:>6.1}%",
            r.phase.label(),
            r.secs.mean,
            r.secs.p50,
            r.secs.p95,
            r.secs.max,
            r.max_rank,
            r.imbalance(),
            r.blocked,
            100.0 * share,
        );
        assert!(stdout.contains(&row), "no {row:?} in {stdout}");
    }
    assert!(b.phases.iter().any(|r| r.phase.label() == "shift"));
    let sum = format!(
        "phase sum {:.6} s of {:.6} s wall",
        b.phase_sum_secs(),
        b.wall_secs
    );
    assert!(stdout.contains(&sum), "no {sum:?} in {stdout}");
    // And each step's driver sections, mean / max across ranks.
    for r in trace.step_reports() {
        let (name, d) = &r.parts[0];
        let part = format!("step {:>3}: {name} {:.6}/{:.6}", r.step, d.mean, d.max);
        assert!(stdout.contains(&part), "no {part:?} in {stdout}");
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn audit_prints_verdict_table_and_json_summary() {
    // `--key value` form, as documented: shift words must fall as c grows
    // and every configuration must pass the default ceilings.
    let out = cli()
        .args(["audit", "--n", "256", "--p", "16", "--steps", "1"])
        .output()
        .expect("launch");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    for want in ["latency   S:", "bandwidth W:", "bound", "PASS", "shift"] {
        assert!(stdout.contains(want), "missing {want:?} in {stdout}");
    }
    let last = stdout.lines().last().unwrap();
    let doc = nbody_trace::Json::parse(last).expect("last line is not JSON");
    assert_eq!(doc.get("cmd").unwrap().as_str(), Some("audit"));
    assert_eq!(doc.get("pass").unwrap(), &nbody_trace::Json::Bool(true));
    let rows = doc.get("rows").unwrap().as_array().unwrap();
    // p = 16 sweeps c = 1, 2, 4.
    assert_eq!(rows.len(), 3);
    let mut last_shift = f64::INFINITY;
    for row in rows {
        assert_eq!(row.get("pass").unwrap(), &nbody_trace::Json::Bool(true));
        let s = row.get("s_factor").unwrap().as_f64().unwrap();
        let w = row.get("w_factor").unwrap().as_f64().unwrap();
        assert!(s.is_finite() && s > 0.0, "{last}");
        assert!(w.is_finite() && w > 0.0, "{last}");
        let shift = row.get("shift_words").unwrap().as_f64().unwrap();
        assert!(
            shift < last_shift,
            "shift words must fall as c grows: {last}"
        );
        last_shift = shift;
    }
}

#[test]
fn audit_cutoff_variant_audits_against_eq3() {
    // The cutoff constant factors are scale-invariant and larger than the
    // all-pairs defaults (the Eq. 3 bound and the measured traffic both
    // grow linearly in n), so give this variant its own ceilings — which
    // also exercises the --baseline happy path.
    let dir = std::env::temp_dir().join("ca_nbody_cli_audit_cutoff_test");
    std::fs::create_dir_all(&dir).unwrap();
    let baseline = dir.join("loose.json");
    std::fs::write(
        &baseline,
        "{\"latency_factor_ceiling\": 1000.0, \"bandwidth_factor_ceiling\": 1000.0}",
    )
    .unwrap();
    let out = cli()
        .args([
            "audit",
            "n=256",
            "p=8",
            "cutoff=0.25",
            "c=2",
            &format!("--baseline={}", baseline.display()),
        ])
        .output()
        .expect("launch");
    std::fs::remove_file(&baseline).ok();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("cutoff-1d"), "{stdout}");
    // Re-assignment is under the send-count gate: the twin predicts its
    // messages and the run's ledger counted exactly those.
    let wire_row = |l: &str| l.trim_start().starts_with("re-assign") && l.ends_with("+0");
    assert!(stdout.lines().any(wire_row), "{stdout}");
    let last = stdout.lines().last().unwrap();
    let doc = nbody_trace::Json::parse(last).unwrap();
    assert_eq!(doc.get("algorithm").unwrap().as_str(), Some("cutoff-1d"));
    assert_eq!(doc.get("wire_pass").unwrap().as_bool(), Some(true));
}

#[test]
fn audit_reads_ceilings_from_baseline_and_fails_when_exceeded() {
    let dir = std::env::temp_dir().join("ca_nbody_cli_audit_baseline_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("tight.json");
    // Impossible ceilings: every measured factor exceeds them.
    std::fs::write(
        &path,
        "{\"latency_factor_ceiling\": 0.001, \"bandwidth_factor_ceiling\": 0.001}",
    )
    .unwrap();
    let out = cli()
        .args([
            "audit",
            "n=128",
            "p=4",
            &format!("--baseline={}", path.display()),
        ])
        .output()
        .expect("launch");
    assert!(!out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("FAIL"), "{stdout}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn audit_rejects_missing_and_malformed_baseline_with_one_line_error() {
    // Missing file: a clear one-line error, not a panic.
    let out = cli()
        .args(["audit", "n=64", "p=4", "--baseline=/no/such/file.json"])
        .output()
        .expect("launch");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot read"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");

    // Malformed file: same contract.
    let dir = std::env::temp_dir().join("ca_nbody_cli_audit_garbage_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("garbage.json");
    std::fs::write(&path, "hello, world").unwrap();
    let out = cli()
        .args([
            "audit",
            "n=64",
            "p=4",
            &format!("--baseline={}", path.display()),
        ])
        .output()
        .expect("launch");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot parse"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn audit_rejects_invalid_replication_factor() {
    let out = cli()
        .args(["audit", "n=64", "p=16", "c=3"])
        .output()
        .expect("launch");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("not usable"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn an_invalid_layout_or_setting_is_one_line_not_a_panic() {
    // c does not divide p; c does not divide p on a cutoff method; c exceeds
    // the window. Each used to panic on every rank thread (exit 101). A
    // cutoff radius that is not positive used to panic once.
    for (args, why) in [
        (&["run", "n=64", "p=4", "c=3"][..], "must divide p=4"),
        (
            &["run", "method=ca-cutoff-1d", "n=64", "p=8", "c=3"],
            "must divide p=8",
        ),
        (
            &[
                "run",
                "method=ca-cutoff-1d",
                "n=64",
                "p=8",
                "c=4",
                "cutoff=0.05",
            ],
            "must fit inside the cutoff window",
        ),
        (
            &["run", "method=ca-cutoff-1d", "n=64", "p=4", "cutoff=-1"],
            "cutoff=-1",
        ),
        (
            &["verify", "method=ca-cutoff-1d", "n=64", "p=4", "cutoff=-1"],
            "cutoff=-1",
        ),
        (
            &["chaos", "method=ca-cutoff-1d", "n=64", "p=4", "cutoff=-1"],
            "cutoff=-1",
        ),
        (
            &["conformance", "m.json", "method=ca-cutoff-1d", "cutoff=-1"],
            "cutoff=-1",
        ),
        (&["run", "law=lj", "n=64", "p=4", "cutoff=0"], "cutoff=0"),
        (
            &["verify", "method=halo-1d", "n=64", "p=4", "cutoff=0"],
            "cutoff=0",
        ),
    ] {
        let out = cli().args(args).output().expect("launch");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(stderr.contains(why), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked at"), "{args:?}: {stderr}");
    }
}

#[test]
fn audit_writes_json_audit_and_roofline_reports() {
    let dir = std::env::temp_dir().join("ca_nbody_cli_audit_out_test");
    std::fs::create_dir_all(&dir).unwrap();
    let (audit, roofline) = (dir.join("audit.json"), dir.join("roofline.json"));
    let out = cli()
        .args([
            "audit",
            "n=128",
            "p=4",
            &format!("--out={}", audit.display()),
            &format!("--roofline-out={}", roofline.display()),
        ])
        .output()
        .expect("launch");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let read = |path: &std::path::Path| {
        let body = std::fs::read_to_string(path).expect("report not written");
        nbody_trace::Json::parse(&body).expect("invalid JSON report")
    };
    let doc = read(&audit);
    assert!(!doc.get("reports").unwrap().as_array().unwrap().is_empty());
    // One entry per audited `c`, each placing every one of the p ranks.
    let doc = read(&roofline);
    let kernels = doc.as_array().expect("a roofline array");
    assert!(!kernels.is_empty());
    for k in kernels {
        assert!(k.get("best_pct_of_roofline").is_some(), "{k}");
        let ranks = k.get("ranks").and_then(nbody_trace::Json::as_array);
        assert_eq!(ranks.map(<[_]>::len), Some(4), "{k}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn metrics_flag_writes_a_json_snapshot_that_round_trips() {
    let dir = std::env::temp_dir().join("ca_nbody_cli_metrics_test");
    std::fs::create_dir_all(&dir).unwrap();
    let json_path = dir.join("metrics.json");
    let out = cli()
        .args([
            "run",
            "n=128",
            "p=4",
            "c=2",
            "steps=2",
            &format!("--metrics={}", json_path.display()),
        ])
        .output()
        .expect("launch");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // The export parses back, and round-trips losslessly in memory.
    let json_text = std::fs::read_to_string(&json_path).unwrap();
    let doc = nbody_trace::Json::parse(&json_text).unwrap();
    let snap = nbody_metrics::MetricsSnapshot::from_json(&doc).expect("JSON round-trip");
    let again = nbody_trace::Json::parse(&snap.to_json().to_string()).unwrap();
    assert_eq!(
        nbody_metrics::MetricsSnapshot::from_json(&again).unwrap(),
        snap
    );
    assert_eq!(snap.ranks.len(), 4);
    assert!(
        snap.sum_counter("comm_send_messages", Some(nbody_trace::Phase::Shift)) > 0,
        "{json_text}"
    );
    // The kernel meter populates the compute side of the snapshot.
    assert!(snap.sum_counter("compute_flops", None) > 0);
    assert!(snap.sum_counter("compute_interactions", None) > 0);
    assert!(snap.sum_counter("compute_nanos", None) > 0);
    std::fs::remove_file(&json_path).ok();
}

#[test]
fn verify_with_injected_kill_recovers_and_passes() {
    let out = cli()
        .args([
            "verify",
            "n=96",
            "p=8",
            "c=2",
            "steps=2",
            "--faults=kill:5@1",
            "fault-timeout-ms=400",
        ])
        .output()
        .expect("launch");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success() && stdout.contains("VERIFY OK"),
        "{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().unwrap();
    let doc = nbody_trace::Json::parse(last).unwrap();
    // Recovery happened, and the distributed result still matched serial
    // exactly (max_deviation is bitwise zero).
    assert!(
        matches!(doc.get("recovered"), Some(nbody_trace::Json::Bool(true))),
        "{last}"
    );
    assert_eq!(doc.get("max_attempts").unwrap().as_f64(), Some(2.0));
    assert_eq!(doc.get("max_deviation").unwrap().as_f64(), Some(0.0));
    assert!(doc.get("recovery_bytes_total").unwrap().as_f64().unwrap() > 0.0);
}

#[test]
fn run_with_total_loss_fails_cleanly() {
    // Every rank killed in the same step: nothing survives to shrink
    // onto, so this is the one fault class that must still fail.
    let out = cli()
        .args([
            "run",
            "n=64",
            "p=4",
            "c=1",
            "steps=1",
            "--faults=kill:0@1,kill:1@1,kill:2@1,kill:3@1",
            "fault-timeout-ms=300",
        ])
        .output()
        .expect("launch");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unrecoverable"), "{stderr}");
}

#[test]
fn run_survives_unreplicated_kill_by_shrinking() {
    // c=1 leaves no replica, but a single column loss now degrades to a
    // smaller world instead of failing: the run completes on 3 ranks and
    // reports what it shed.
    let out = cli()
        .args([
            "run",
            "n=64",
            "p=4",
            "c=1",
            "steps=1",
            "--faults=kill:2@1",
            "fault-timeout-ms=300",
        ])
        .output()
        .expect("launch");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = nbody_trace::Json::parse(stdout.lines().last().unwrap()).unwrap();
    assert_eq!(doc.get("shrinks").unwrap().as_f64(), Some(1.0), "{stdout}");
    assert_eq!(
        doc.get("final_ranks").unwrap().as_f64(),
        Some(3.0),
        "{stdout}"
    );
    assert!(
        doc.get("lost_particles").unwrap().as_f64().unwrap() > 0.0,
        "{stdout}"
    );
}

#[test]
fn faults_flag_rejects_bad_specs_and_non_ca_methods() {
    let out = cli()
        .args(["run", "n=32", "p=4", "method=halo-1d", "--faults=drop:1@1"])
        .output()
        .expect("launch");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("requires a CA method"), "{stderr}");
    assert!(
        stderr.lines().count() == 1 && !stderr.contains("panicked at"),
        "{stderr}"
    );
}

#[test]
fn chaos_subcommand_sweeps_and_gates_against_baseline() {
    // A narrow sweep (p=4, one timestep) keeps this CI-friendly; the
    // kill schedule still covers every rank at every pipeline step.
    let out = cli()
        .args([
            "chaos",
            "n=64",
            "p=4",
            "c=2",
            "steps=1",
            "fault-timeout-ms=250",
            "--baseline=bench_results/chaos_baseline.json",
        ])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("launch");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().unwrap();
    let doc = nbody_trace::Json::parse(last).unwrap();
    assert!(
        matches!(doc.get("pass"), Some(nbody_trace::Json::Bool(true))),
        "{last}"
    );
    assert!(doc.get("kills_fired").unwrap().as_f64().unwrap() > 0.0);
    assert_eq!(doc.get("failures").unwrap().as_f64(), Some(0.0));
}

#[test]
fn chaos_rejects_configs_without_a_surviving_replica() {
    let out = cli()
        .args(["chaos", "n=32", "p=4", "c=1"])
        .output()
        .expect("launch");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("c >= 2"));
}

/// Run a small traced all-pairs execution and return the trace/metrics
/// paths inside `dir`.
fn traced_run(dir: &std::path::Path, p: usize, c: usize) -> (String, String) {
    std::fs::create_dir_all(dir).unwrap();
    let trace = dir.join("trace.json").display().to_string();
    let metrics = dir.join("metrics.json").display().to_string();
    let out = cli()
        .args([
            "run",
            "n=128",
            &format!("p={p}"),
            &format!("c={c}"),
            "steps=3",
            &format!("--trace={trace}"),
            &format!("--metrics={metrics}"),
        ])
        .output()
        .expect("launch");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    (trace, metrics)
}

#[test]
fn analyze_reports_critical_path_imbalance_and_heatmap() {
    let dir = std::env::temp_dir().join("ca_nbody_cli_analyze_test");
    let (trace, metrics) = traced_run(&dir, 8, 2);
    let json = dir.join("analysis.json").display().to_string();
    let out = cli()
        .args([
            "analyze",
            &trace,
            &format!("--metrics={metrics}"),
            "c=2",
            &format!("--json={json}"),
        ])
        .output()
        .expect("launch");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // Per-step critical path, per-phase imbalance, stragglers, heat-map.
    assert!(stdout.contains("critical path (per timestep)"), "{stdout}");
    assert!(stdout.contains("factor = max / mean"), "{stdout}");
    assert!(stdout.contains("stragglers"), "{stdout}");
    assert!(
        stdout.contains("grid heat-map (4 teams x c = 2 rows)"),
        "{stdout}"
    );

    // JSON export: one critical-path entry per timestep, in step order,
    // each naming the rank that gated it; the heat-map planes carry real
    // traffic (the skew makes non-leader rows send bytes).
    let doc = nbody_trace::Json::parse(&std::fs::read_to_string(&json).unwrap()).unwrap();
    let steps = doc.get("critical_path").unwrap().as_array().unwrap();
    assert_eq!(steps.len(), 3);
    for (i, s) in steps.iter().enumerate() {
        assert_eq!(s.get("step").unwrap().as_f64(), Some(i as f64), "{s}");
        assert!(s.get("critical_rank").unwrap().as_f64().unwrap() < 8.0);
        assert!(s.get("makespan_secs").unwrap().as_f64().unwrap() > 0.0);
    }
    let send = doc
        .get("heatmap")
        .unwrap()
        .get("send_bytes")
        .unwrap()
        .as_array()
        .unwrap();
    assert_eq!(send.len(), 8);
    assert!(send.iter().any(|v| v.as_f64().unwrap() > 0.0));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn analyze_handles_single_rank_runs() {
    // p = 1, c = 1: no communication spans at all.
    let dir = std::env::temp_dir().join("ca_nbody_cli_analyze_p1_test");
    let (trace, metrics) = traced_run(&dir, 1, 1);
    let out = cli()
        .args(["analyze", &trace, &format!("--metrics={metrics}")])
        .output()
        .expect("launch");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stdout}\n{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(stdout.contains("critical path (per timestep)"), "{stdout}");
    // The sole rank is critical in every step and never waits on a peer.
    assert!(stdout.contains("rank 0"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn analyze_rejects_empty_and_truncated_traces_with_diagnostics() {
    let dir = std::env::temp_dir().join("ca_nbody_cli_analyze_bad_test");
    std::fs::create_dir_all(&dir).unwrap();

    // Empty trace file: a one-line error, not a panic.
    let empty = dir.join("empty.json");
    std::fs::write(&empty, "").unwrap();
    let out = cli()
        .args(["analyze", empty.to_str().unwrap()])
        .output()
        .expect("launch");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("no spans"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");

    // Truncated Chrome trace: the diagnostic names the byte it stopped at,
    // the end of the file, inside the second event's name.
    let truncated = dir.join("truncated.json");
    let body = "{\"traceEvents\":[{\"name\":\"shift\",\"ph\":\"X\",\"pid\":1,\"tid\":0,\
                \"ts\":0,\"dur\":1,\"cat\":\"comm-phase\"},{\"name\":\"sh";
    std::fs::write(&truncated, body).unwrap();
    let out = cli()
        .args(["analyze", truncated.to_str().unwrap()])
        .output()
        .expect("launch");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    let at = format!("at byte {}", body.len());
    assert!(stderr.contains(&at), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");

    // Not JSON at all: the one-line error says which file did not parse.
    let garbage = dir.join("not_a_trace.json");
    std::fs::write(&garbage, "hello, world").unwrap();
    let out = cli()
        .args(["analyze", garbage.to_str().unwrap()])
        .output()
        .expect("launch");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot parse"), "{stderr}");

    // The reader names what it found as text, never as a Rust `Option`: a
    // character in quotes, or the end of the input, at the same offsets.
    for (name, body, found) in [
        (
            "table.csv",
            "rank,kind,start,end,peer,phase\n",
            "unexpected 'r' at byte 0",
        ),
        (
            "cut.json",
            "{\"traceEvents\"",
            "expected ':' at byte 14, found end of input",
        ),
        (
            "open.json",
            "{\"traceEvents\":",
            "unexpected end of input at byte 15",
        ),
    ] {
        let path = dir.join(name);
        std::fs::write(&path, body).unwrap();
        let out = cli()
            .args(["analyze", path.to_str().unwrap()])
            .output()
            .expect("launch");
        assert!(!out.status.success());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(found), "{name}: {stderr}");
        assert!(!stderr.contains("Some("), "{name}: {stderr}");
        assert!(!stderr.contains("None"), "{name}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn analyze_refuses_a_c_the_heatmap_cannot_use() {
    let dir = std::env::temp_dir().join("ca_nbody_cli_analyze_bad_c_test");
    std::fs::remove_dir_all(&dir).ok();
    let (trace, metrics) = traced_run(&dir, 4, 2);
    let json = dir.join("analysis.json");
    for c in ["c=3", "c=0"] {
        let out = cli()
            .args([
                "analyze",
                &trace,
                &format!("--metrics={metrics}"),
                c,
                &format!("--json={}", json.display()),
            ])
            .output()
            .expect("launch");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{c}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{c}: {stderr}");
        assert!(stderr.contains("cannot arrange 4 ranks"), "{c}: {stderr}");
        assert!(!stderr.contains("panicked at"), "{c}: {stderr}");
        assert!(out.stdout.is_empty(), "{c}: printed before refusing");
        assert!(!json.exists(), "{c}: wrote {}", json.display());
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn run_summary_includes_imbalance_and_critical_path_when_traced() {
    let dir = std::env::temp_dir().join("ca_nbody_cli_traced_summary_test");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = format!("--trace={}", dir.join("t.json").display());
    let out = cli()
        .args(["run", "n=96", "p=4", "c=2", "steps=2", &trace])
        .output()
        .expect("launch");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap();
    let doc = nbody_trace::Json::parse(last).expect("last line is not JSON");
    // Critical-path split: the three buckets exist and compute is real.
    let compute = doc.get("critical_compute_secs").unwrap().as_f64().unwrap();
    assert!(compute > 0.0, "{last}");
    assert!(doc.get("critical_comm_secs").unwrap().as_f64().unwrap() >= 0.0);
    assert!(doc.get("critical_blocked_secs").unwrap().as_f64().unwrap() >= 0.0);
    // Per-phase imbalance factors: max/mean >= 1 for every reported phase.
    let imb = doc.get("imbalance").unwrap();
    for phase in ["shift", "other"] {
        let f = imb.get(phase).unwrap().as_f64().unwrap();
        assert!(f >= 1.0, "phase {phase}: {last}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn calibrate_writes_machine_ceilings_json() {
    let dir = std::env::temp_dir().join("ca_nbody_cli_calibrate_test");
    std::fs::remove_dir_all(&dir).ok();
    let path = dir.join("machine_calibration.json");
    let out = cli()
        .args(["calibrate", "seed=7", &format!("--out={}", path.display())])
        .output()
        .expect("launch");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    let last = stdout.lines().last().unwrap();
    let doc = nbody_trace::Json::parse(last).expect("last line is not JSON");
    assert_eq!(doc.get("cmd").unwrap().as_str(), Some("calibrate"));
    assert_eq!(doc.get("seed").unwrap().as_f64(), Some(7.0));
    assert!(doc.get("peak_gflops").unwrap().as_f64().unwrap() > 0.0);
    // The file parses back to the same positive ceilings.
    let text = std::fs::read_to_string(&path).expect("calibration not written");
    let saved = nbody_trace::Json::parse(&text).unwrap();
    assert!(saved.get("peak_gflops").unwrap().as_f64().unwrap() > 0.0);
    assert!(saved.get("mem_bw_gbytes").unwrap().as_f64().unwrap() > 0.0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn audit_renders_roofline_and_gates_against_baseline() {
    let dir = std::env::temp_dir().join("ca_nbody_cli_roofline_test");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    // A hand-written calibration keeps the test deterministic and fast.
    let cal = dir.join("cal.json");
    std::fs::write(
        &cal,
        r#"{"peak_gflops": 1.0, "mem_bw_gbytes": 10.0, "seed": 42, "fma_iters": 0, "stream_bytes": 0}"#,
    )
    .unwrap();
    let roofline_json = dir.join("roofline.json");
    let base = |args: &[String]| {
        let mut v = vec![
            "audit".to_string(),
            "n=256".to_string(),
            "p=4".to_string(),
            "steps=1".to_string(),
            "c=2".to_string(),
            format!("--calibration={}", cal.display()),
        ];
        v.extend_from_slice(args);
        cli().args(&v).output().expect("launch")
    };

    // An achievable floor passes and writes the roofline report.
    let floor = dir.join("floor_ok.json");
    std::fs::write(
        &floor,
        r#"{"min_pct_of_roofline": 0.0, "tolerance_pct": 0.0}"#,
    )
    .unwrap();
    let out = base(&[
        format!("--roofline-baseline={}", floor.display()),
        format!("--roofline-out={}", roofline_json.display()),
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("compute roofline"), "{stdout}");
    assert!(stdout.contains("roofline gate"), "{stdout}");
    let last = stdout.lines().last().unwrap();
    let doc = nbody_trace::Json::parse(last).unwrap();
    assert_eq!(doc.get("roofline_pass").unwrap().as_bool(), Some(true));
    assert!(doc.get("roofline_best_pct").unwrap().as_f64().unwrap() > 0.0);
    let report = nbody_trace::Json::parse(
        &std::fs::read_to_string(&roofline_json).expect("roofline report not written"),
    )
    .unwrap();
    let kernels = report.as_array().unwrap();
    assert!(!kernels.is_empty());
    assert!(
        kernels[0]
            .get("best_pct_of_roofline")
            .unwrap()
            .as_f64()
            .unwrap()
            > 0.0
    );

    // An impossible floor fails the audit with a roofline diagnostic.
    let floor_bad = dir.join("floor_bad.json");
    std::fs::write(
        &floor_bad,
        r#"{"min_pct_of_roofline": 1000000.0, "tolerance_pct": 0.0}"#,
    )
    .unwrap();
    let out = base(&[format!("--roofline-baseline={}", floor_bad.display())]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("roofline gate"), "{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap();
    let doc = nbody_trace::Json::parse(last).unwrap();
    assert_eq!(doc.get("roofline_pass").unwrap().as_bool(), Some(false));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn chaos_metrics_flag_accumulates_the_whole_sweep() {
    let dir = std::env::temp_dir().join("ca_nbody_cli_chaos_metrics_test");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("sweep.json");
    let out = cli()
        .args([
            "chaos",
            "n=96",
            "p=4",
            "c=2",
            "steps=1",
            &format!("--metrics={}", path.display()),
        ])
        .output()
        .expect("launch");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    let text = std::fs::read_to_string(&path).expect("sweep metrics not written");
    let doc = nbody_trace::Json::parse(&text).unwrap();
    let snap = nbody_metrics::MetricsSnapshot::from_json(&doc).unwrap();
    assert_eq!(snap.ranks.len(), 4);
    // The accumulated snapshot spans the whole campaign: kills fired and
    // every run's kernel work is in the compute counters.
    assert!(snap.sum_counter("fault_injected_kill", None) > 0);
    assert!(snap.sum_counter("compute_flops", None) > 0);
    assert!(snap.sum_counter("compute_nanos", None) > 0);
    let last = stdout.lines().last().unwrap();
    let summary = nbody_trace::Json::parse(last).unwrap();
    assert!(
        summary
            .get("sweep_compute_flops")
            .unwrap()
            .as_f64()
            .unwrap()
            > 0.0
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn record_timeline_writes_bundle_and_analyze_reports_drift() {
    let dir = std::env::temp_dir().join("ca_nbody_cli_timeline_test");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let tl_path = dir.join("timeline.json").display().to_string();
    let trace = dir.join("trace.json").display().to_string();
    let out = cli()
        .args([
            "run",
            "n=128",
            "p=4",
            "c=2",
            "steps=4",
            &format!("--trace={trace}"),
            &format!("--record-timeline={tl_path}"),
        ])
        .output()
        .expect("launch");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("timeline written to"), "{stdout}");
    let last = stdout.lines().last().unwrap();
    let doc = nbody_trace::Json::parse(last).unwrap();
    assert!(
        doc.get("timeline_samples").unwrap().as_f64().unwrap() > 0.0,
        "{last}"
    );

    // The bundle parses back: every rank sampled every step.
    let text = std::fs::read_to_string(&tl_path).expect("timeline not written");
    let tl = nbody_comm::RunTimeline::parse(&text).expect("invalid timeline bundle");
    assert!(!tl.is_postmortem());
    assert_eq!(tl.ranks.len(), 4);
    for r in &tl.ranks {
        assert_eq!(r.samples.len(), 4, "rank {} samples", r.rank);
    }
    // Team leaders own the particles; non-leader replica rows own none.
    assert!(
        tl.ranks
            .iter()
            .any(|r| r.samples.iter().any(|s| s.particles > 0)),
        "at least the leaders' samples carry particle counts"
    );

    // Timeline-only analyze invocation: drift table, quiet on a short
    // stationary run.
    let out = cli()
        .args(["analyze", &format!("--timeline={tl_path}")])
        .output()
        .expect("launch");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("timeline drift"), "{stdout}");
    assert!(stdout.contains("no drift flagged"), "{stdout}");

    // Combined trace + timeline analyze: both sections in one report.
    let out = cli()
        .args(["analyze", &trace, &format!("--timeline={tl_path}")])
        .output()
        .expect("launch");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("stragglers"), "{stdout}");
    assert!(stdout.contains("timeline drift"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn gravity_under_a_cutoff_method_records_a_tunable_drift_report() {
    // The EXPERIMENTS collapse recipe needs gravity under a spatial
    // decomposition (law=gravity + ca-cutoff-1d) and the analyze drift
    // knobs; guard both ends of that pipeline.
    let dir = std::env::temp_dir().join("ca_nbody_cli_gravity_cutoff_test");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let tl_path = dir.join("timeline.json").display().to_string();
    let out = cli()
        .args([
            "run",
            "method=ca-cutoff-1d",
            "law=gravity",
            "n=128",
            "p=4",
            "c=2",
            "steps=3",
            &format!("--record-timeline={tl_path}"),
        ])
        .output()
        .expect("launch");
    assert!(
        out.status.success(),
        "{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let out = cli()
        .args([
            "analyze",
            &format!("--timeline={tl_path}"),
            "--drift-window=32",
            "--drift-nsigma=3",
        ])
        .output()
        .expect("launch");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("window 32, 3.0 sigma"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unrecoverable_fault_dumps_parseable_postmortem_bundle() {
    let dir = std::env::temp_dir().join("ca_nbody_cli_postmortem_test");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let tl_path = dir.join("postmortem.json").display().to_string();
    // Killing every rank leaves nothing to shrink onto: the run must end
    // Unrecoverable and the flight recorder must dump a postmortem bundle
    // on the way out.
    let out = cli()
        .args([
            "run",
            "n=64",
            "p=4",
            "c=1",
            "steps=1",
            "--faults=kill:0@1,kill:1@1,kill:2@1,kill:3@1",
            "fault-timeout-ms=300",
            &format!("--record-timeline={tl_path}"),
        ])
        .output()
        .expect("launch");
    assert!(
        !out.status.success(),
        "the failed run must keep its nonzero exit"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("postmortem bundle written to"), "{stderr}");

    let text = std::fs::read_to_string(&tl_path).expect("postmortem not written");
    let tl = nbody_comm::RunTimeline::parse(&text).expect("invalid postmortem bundle");
    assert!(tl.is_postmortem(), "bundle must carry the failure reason");
    assert!(
        tl.failure
            .as_deref()
            .unwrap_or("")
            .contains("unrecoverable"),
        "{:?}",
        tl.failure
    );
    // The flight ring recorded the death spiral: fault injection, recovery
    // attempts, and the terminal verdict.
    let kinds: Vec<&str> = tl
        .ranks
        .iter()
        .flat_map(|r| r.events.iter().map(|e| e.kind.label()))
        .collect();
    assert!(kinds.contains(&"fault_injected"), "{kinds:?}");
    assert!(kinds.contains(&"unrecoverable"), "{kinds:?}");

    // `analyze --timeline` reads the bundle, names why the run died once,
    // and exits 1: a postmortem is UNHEALTHY.
    let out = cli()
        .args(["analyze", &format!("--timeline={tl_path}")])
        .output()
        .expect("launch");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    let reasons: Vec<&str> = stdout
        .lines()
        .filter(|l| l.contains("POSTMORTEM"))
        .collect();
    assert_eq!(reasons.len(), 1, "{stdout}");
    assert!(reasons[0].contains("unrecoverable"), "{stdout}");
    assert!(stdout.contains("UNHEALTHY"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn chaos_postmortem_flag_dumps_bundle_for_the_unrecoverable_kill() {
    let dir = std::env::temp_dir().join("ca_nbody_cli_chaos_postmortem_test");
    std::fs::remove_dir_all(&dir).ok();
    let pm_dir = dir.join("postmortems").display().to_string();
    let out = cli()
        .args([
            "chaos",
            "n=64",
            "p=4",
            "c=2",
            "steps=1",
            "fault-timeout-ms=250",
            &format!("--postmortem={pm_dir}"),
        ])
        .output()
        .expect("launch");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().unwrap();
    let doc = nbody_trace::Json::parse(last).unwrap();
    let bundles = doc.get("postmortem_bundles").unwrap().as_array().unwrap();
    // The sweep recovers or shrinks everywhere; only the deliberate
    // total-loss kill ends Unrecoverable and leaves a bundle.
    assert_eq!(bundles.len(), 1, "{last}");
    assert_eq!(bundles[0].as_str(), Some("total_loss_unrecoverable"));
    let bundle_path = format!("{pm_dir}/total_loss_unrecoverable.json");
    let text = std::fs::read_to_string(&bundle_path).expect("bundle not written");
    let tl = nbody_comm::RunTimeline::parse(&text).expect("invalid bundle");
    assert!(tl.is_postmortem());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpointed_run_crashes_on_cue_and_resumes_bit_identically() {
    let dir = std::env::temp_dir().join("ca_nbody_cli_ckpt_resume_test");
    std::fs::remove_dir_all(&dir).ok();
    let common = ["n=64", "p=4", "c=2", "steps=6"];

    // The reference: the same run, uninterrupted, no checkpoint sink.
    let out = cli().arg("run").args(common).output().expect("launch");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let doc = nbody_trace::Json::parse(stdout.lines().last().unwrap()).unwrap();
    let want_energy = doc.get("kinetic_energy").unwrap().as_f64().unwrap();

    // Crash on cue: rank 0 hard-exits (code 137) right after the step-4
    // bundle is durably on disk. Steps 2 and 4 must both have been
    // persisted by then; no later checkpoint may exist.
    let out = cli()
        .arg("run")
        .args(common)
        .args([
            &format!("--checkpoint-dir={}", dir.display()),
            "--checkpoint-every=2",
            "--faults=crash@4",
        ])
        .output()
        .expect("launch");
    assert_eq!(
        out.status.code(),
        Some(137),
        "crash@4 must exit 137: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    for step in [2, 4] {
        let path = dir.join(format!("ckpt-{step:08}.json"));
        assert!(path.is_file(), "missing durable bundle {}", path.display());
    }
    assert!(!dir.join("ckpt-00000006.json").exists());

    // Resume from the newest bundle and finish the remaining steps: the
    // final state must be bit-identical to the uninterrupted run.
    let out = cli()
        .arg("run")
        .args(common)
        .arg(format!("--resume={}", dir.display()))
        .output()
        .expect("launch");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = nbody_trace::Json::parse(stdout.lines().last().unwrap()).unwrap();
    assert_eq!(doc.get("resumed_from_step").unwrap().as_f64(), Some(4.0));
    let got_energy = doc.get("kinetic_energy").unwrap().as_f64().unwrap();
    assert_eq!(
        got_energy, want_energy,
        "resumed trajectory must match the uninterrupted run exactly"
    );
    // Resuming keeps checkpointing into the same directory: the final
    // step lands a new bundle.
    assert!(
        dir.join("ckpt-00000006.json").is_file(),
        "resumed run must keep persisting on the same cadence"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_rejects_mismatched_fingerprint_and_empty_dir() {
    let dir = std::env::temp_dir().join("ca_nbody_cli_ckpt_reject_test");
    std::fs::remove_dir_all(&dir).ok();

    // No checkpoint in the directory: a clear one-line error.
    std::fs::create_dir_all(&dir).unwrap();
    let out = cli()
        .args(["run", "n=64", "p=4", "c=2", "steps=2"])
        .arg(format!("--resume={}", dir.display()))
        .output()
        .expect("launch");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot resume"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");

    // Seed a real checkpoint, then try to resume a different run shape:
    // the fingerprint gate must refuse rather than silently continue.
    let out = cli()
        .args([
            "run",
            "n=64",
            "p=4",
            "c=2",
            "steps=2",
            &format!("--checkpoint-dir={}", dir.display()),
        ])
        .output()
        .expect("launch");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = cli()
        .args(["run", "n=128", "p=4", "c=2", "steps=2"])
        .arg(format!("--resume={}", dir.display()))
        .output()
        .expect("launch");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("resume rejected"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn chaos_multi_kill_and_soak_subcommands_pass() {
    // Multi-fault chaos: three concurrent same-step kills across distinct
    // columns recover without shrinking, and the forced whole-column kill
    // exercises the shrink path (shrinks > 0 in the summary).
    let out = cli()
        .args([
            "chaos",
            "n=64",
            "p=8",
            "c=2",
            "steps=1",
            "--kills=3",
            "fault-timeout-ms=250",
        ])
        .output()
        .expect("launch");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = nbody_trace::Json::parse(stdout.lines().last().unwrap()).unwrap();
    assert!(
        matches!(doc.get("pass"), Some(nbody_trace::Json::Bool(true))),
        "{stdout}"
    );
    assert_eq!(doc.get("kills").unwrap().as_f64(), Some(3.0));
    assert!(
        doc.get("shrinks").unwrap().as_f64().unwrap() > 0.0,
        "{stdout}"
    );

    // A short randomized soak: seeded fault schedules, so any failure
    // here is reproducible from the printed seed.
    let out = cli()
        .args([
            "soak",
            "n=64",
            "p=8",
            "c=2",
            "steps=1",
            "seconds=3",
            "events=2",
            "fault-timeout-ms=250",
        ])
        .output()
        .expect("launch");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = nbody_trace::Json::parse(stdout.lines().last().unwrap()).unwrap();
    assert_eq!(doc.get("cmd").unwrap().as_str(), Some("soak"));
    assert!(
        matches!(doc.get("pass"), Some(nbody_trace::Json::Bool(true))),
        "{stdout}"
    );
    assert!(doc.get("runs").unwrap().as_f64().unwrap() > 0.0, "{stdout}");
    assert_eq!(doc.get("failures").unwrap().as_f64(), Some(0.0));
}

#[test]
fn the_exported_metrics_are_the_ledger_every_message_counted_once() {
    // `--metrics` writes each rank's ledger: on a run that loses nothing,
    // every point-to-point send is received in its phase, and every message
    // on the wire, point-to-point or collective, is one histogram entry.
    let path = std::env::temp_dir().join(format!("ledger_{}.json", std::process::id()));
    let out = cli()
        .args(["run", "n=256", "p=8", "c=2", "steps=2"])
        .arg(format!("--metrics={}", path.display()))
        .output()
        .expect("launch");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = nbody_trace::Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
    let snap = nbody_metrics::MetricsSnapshot::from_json(&doc).unwrap();
    std::fs::remove_file(&path).ok();
    for phase in nbody_trace::ALL_PHASES {
        let sum = |name: &str| snap.sum_counter(name, Some(phase));
        for (sent, received) in [
            ("comm_send_messages", "comm_recv_messages"),
            ("comm_send_elements", "comm_recv_elements"),
            ("comm_send_bytes", "comm_recv_bytes"),
        ] {
            assert_eq!(sum(sent), sum(received), "{phase:?} {sent}");
        }
        let bucketed: u64 = snap
            .ranks
            .iter()
            .filter_map(|r| r.histogram("comm_message_size_bytes", Some(phase)))
            .map(|h| h.count())
            .sum();
        let on_wire = sum("comm_send_messages") + sum("comm_collective_messages");
        assert_eq!(bucketed, on_wire, "{phase:?}");
    }
    let shift = Some(nbody_trace::Phase::Shift);
    let shifted = snap.sum_counter("comm_recv_messages", shift);
    assert!(shifted > 0, "the run shifts");
}

#[test]
fn malformed_recv_timeout_env_is_a_startup_error() {
    let out = cli()
        .args(["run", "n=32", "p=2", "c=1", "steps=1"])
        .env("NBODY_RECV_TIMEOUT_SECS", "banana")
        .output()
        .expect("launch");
    assert_eq!(out.status.code(), Some(2), "startup validation exits 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("NBODY_RECV_TIMEOUT_SECS"), "{stderr}");
    assert!(stderr.contains("banana"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");

    // A valid override still runs normally.
    let out = cli()
        .args(["run", "n=32", "p=2", "c=1", "steps=1"])
        .env("NBODY_RECV_TIMEOUT_SECS", "90")
        .output()
        .expect("launch");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn wire_probe_flag_writes_parseable_log_and_conformance_passes() {
    let dir = std::env::temp_dir().join("ca_nbody_cli_wire_test");
    std::fs::create_dir_all(&dir).unwrap();
    let wire = dir.join("wire.json").display().to_string();
    let metrics = dir.join("metrics.json").display().to_string();
    let out = cli()
        .args([
            "run",
            "n=48",
            "p=8",
            "c=2",
            "steps=3",
            &format!("--wire-probe={wire}"),
            &format!("--metrics={metrics}"),
        ])
        .output()
        .expect("launch");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("wire probes written to"), "{stdout}");

    // The log parses back and the summary line reports its size.
    let log = nbody_comm::WireLog::parse(&std::fs::read_to_string(&wire).unwrap()).unwrap();
    assert_eq!(log.ranks.len(), 8);
    assert!(log.total_events() > 0);
    let last = stdout.lines().last().unwrap();
    let doc = nbody_trace::Json::parse(last).unwrap();
    assert_eq!(
        doc.get("wire_events").unwrap().as_f64(),
        Some(log.total_events() as f64)
    );
    assert_eq!(doc.get("wire_dropped_events").unwrap().as_f64(), Some(0.0));

    // A clean run's ledger conforms to the CA schedule: zero violations,
    // and the latency table renders populated channels via `analyze --wire`.
    let out = cli()
        .args(["conformance", &metrics, "n=48", "p=8", "c=2", "steps=3"])
        .output()
        .expect("launch");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("no violations"), "{stdout}");
    assert!(stdout.contains("verdict: PASS"), "{stdout}");
    let doc = nbody_trace::Json::parse(stdout.lines().last().unwrap()).unwrap();
    assert_eq!(doc.get("verdict").unwrap().as_str(), Some("PASS"));
    assert_eq!(doc.get("unexplained").unwrap().as_f64(), Some(0.0));
    assert!(doc.get("expected_msgs").unwrap().as_f64().unwrap() > 0.0);

    let out = cli()
        .args(["analyze", &format!("--wire={wire}")])
        .output()
        .expect("launch");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("wire probes:"), "{stdout}");
    assert!(stdout.contains("matched pairs"), "{stdout}");
    assert!(
        stdout.contains("mean us"),
        "latency columns present: {stdout}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn conformance_attributes_chaos_drops_and_fails_on_wrong_schedule() {
    let dir = std::env::temp_dir().join("ca_nbody_cli_wire_chaos_test");
    std::fs::create_dir_all(&dir).unwrap();
    let metrics = dir.join("metrics_chaos.json").display().to_string();
    let out = cli()
        .args([
            "run",
            "n=48",
            "p=8",
            "c=2",
            "steps=2",
            "--faults=drop:3@1",
            "fault-timeout-ms=250",
            &format!("--metrics={metrics}"),
        ])
        .output()
        .expect("launch");
    assert!(
        out.status.success(),
        "{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );

    // Every discrepancy the injected drop causes is attributed to the
    // fault plan: zero unexplained, PASS verdict, exit 0.
    let out = cli()
        .args([
            "conformance",
            &metrics,
            "n=48",
            "p=8",
            "c=2",
            "steps=2",
            "--faults=drop:3@1",
        ])
        .output()
        .expect("launch");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("verdict: PASS"), "{stdout}");
    let doc = nbody_trace::Json::parse(stdout.lines().last().unwrap()).unwrap();
    assert_eq!(doc.get("unexplained").unwrap().as_f64(), Some(0.0));
    assert!(
        doc.get("violations").unwrap().as_f64().unwrap() > 0.0,
        "the drop must actually perturb the schedule: {stdout}"
    );
    assert!(stdout.contains("fault_drop:rank3@step1"), "{stdout}");

    // Without its plan the same snapshot fails: the retries are surplus.
    let out = cli()
        .args(["conformance", &metrics, "n=48", "p=8", "c=2", "steps=2"])
        .output()
        .expect("launch");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains("verdict: FAIL"), "{stdout}");

    // The same snapshot against the wrong schedule is a genuine FAIL with
    // a non-zero exit (the CI gate contract).
    let out = cli()
        .args(["conformance", &metrics, "n=48", "p=8", "c=2", "steps=7"])
        .output()
        .expect("launch");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!out.status.success(), "{stdout}");
    assert!(stdout.contains("verdict: FAIL"), "{stdout}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("CONFORMANCE FAILED"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn conformance_rejects_bad_inputs_with_one_line_errors() {
    // Missing positional.
    let out = cli().arg("conformance").output().expect("launch");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));

    // Unreadable snapshot.
    let out = cli()
        .args(["conformance", "/nonexistent/metrics.json"])
        .output()
        .expect("launch");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));

    // A method with no schedule twin.
    let dir = std::env::temp_dir().join("ca_nbody_cli_wire_badmethod_test");
    std::fs::create_dir_all(&dir).unwrap();
    let metrics = dir.join("metrics.json").display().to_string();
    let out = cli()
        .args([
            "run",
            "n=32",
            "p=4",
            "c=1",
            "steps=1",
            &format!("--metrics={metrics}"),
        ])
        .output()
        .expect("launch");
    assert!(out.status.success());
    let out = cli()
        .args(["conformance", &metrics, "method=halo-1d"])
        .output()
        .expect("launch");
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("no communication-schedule twin"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn audit_counts_each_phases_sends_in_the_ledger_against_the_schedule() {
    let out = cli()
        .args(["audit", "n=256", "p=8", "steps=1", "c=2"])
        .output()
        .expect("launch");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains("wire messages (observed in the ledger"),
        "{stdout}"
    );
    // p = 8, c = 2: 4 teams, so each row's 2 ranks outside row 0 skew
    // once and all 8 ranks shift twice, each send counted on both sides.
    for row in [
        "  skew                   4            4       +0",
        "  shift                 16           16       +0",
    ] {
        assert!(stdout.contains(row), "no {row:?} in {stdout}");
    }
    let doc = nbody_trace::Json::parse(stdout.lines().last().unwrap()).unwrap();
    let predicted = doc.get("wire_predicted_msgs").unwrap().as_f64().unwrap();
    let observed = doc.get("wire_observed_msgs").unwrap().as_f64().unwrap();
    assert!(predicted > 0.0);
    assert_eq!(predicted, observed, "audited run must match its schedule");
}

#[test]
fn cutoff_ledger_conforms_in_count_only_mode() {
    let dir = std::env::temp_dir().join("ca_nbody_cli_wire_cutoff_test");
    std::fs::create_dir_all(&dir).unwrap();
    let metrics = dir.join("metrics.json").display().to_string();
    let out = cli()
        .args([
            "run",
            "method=ca-cutoff-1d",
            "n=40",
            "p=8",
            "c=2",
            "steps=2",
            "cutoff=0.25",
            &format!("--metrics={metrics}"),
        ])
        .output()
        .expect("launch");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = cli()
        .args([
            "conformance",
            &metrics,
            "method=ca-cutoff-1d",
            "n=40",
            "p=8",
            "c=2",
            "steps=2",
            "cutoff=0.25",
        ])
        .output()
        .expect("launch");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("verdict: PASS"), "{stdout}");
    assert!(stdout.contains("ca-1d-cutoff"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn health_run_reports_gate_and_bundle_renders_verdict() {
    let dir = std::env::temp_dir().join("ca_nbody_cli_health_test");
    std::fs::create_dir_all(&dir).unwrap();
    let tl = dir.join("tl.json").display().to_string();
    let out = cli()
        .args([
            "run",
            "n=96",
            "p=8",
            "c=2",
            "steps=3",
            "--health",
            &format!("--record-timeline={tl}"),
        ])
        .output()
        .expect("launch");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("\"health_sentinel_events\":0"), "{stdout}");
    assert!(stdout.contains("\"health_gate\":\"pass\""), "{stdout}");

    // The bundle renders a clean verdict and exits zero.
    let out = cli()
        .args(["analyze", &format!("--timeline={tl}")])
        .output()
        .expect("launch");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains(": HEALTHY"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn injected_nan_aborts_with_blame_and_unhealthy_bundle() {
    let dir = std::env::temp_dir().join("ca_nbody_cli_health_nan_test");
    std::fs::create_dir_all(&dir).unwrap();
    let tl = dir.join("pm.json").display().to_string();
    let out = cli()
        .args([
            "run",
            "n=96",
            "p=8",
            "c=2",
            "steps=3",
            "--faults=nan:0@1",
            &format!("--record-timeline={tl}"),
        ])
        .output()
        .expect("launch");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "NaN run must fail");
    // The whole blame record, particle included: the lane kernel must
    // poison exactly the targets the scalar loop poisoned, or the sentinel
    // would name a different one.
    let blame = "non-finite force at rank 0 step 1 phase force: particle index 0 (id 0)";
    assert!(stderr.contains(blame), "{stderr}");
    assert!(stderr.contains("postmortem bundle written"), "{stderr}");
    let bundle = std::fs::read_to_string(&tl).expect("postmortem bundle");
    assert!(bundle.contains(blame), "{bundle}");

    // The postmortem carries the blame and renders UNHEALTHY, exit 1.
    let out = cli()
        .args(["analyze", &format!("--timeline={tl}")])
        .output()
        .expect("launch");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains("UNHEALTHY"), "{stdout}");
    assert!(stdout.contains("rank 0 step 1"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupted_replica_detection_fails_the_default_health_gate() {
    // p=8, c=2: rank 4 is team 0's replica. The cross-check repairs it,
    // the run completes recovered, and the committed zero-mismatch
    // baseline turns the detection into a non-zero exit.
    let dir = std::env::temp_dir().join("ca_nbody_cli_health_corrupt_test");
    std::fs::create_dir_all(&dir).unwrap();
    let tl = dir.join("tl.json").display().to_string();
    let out = cli()
        .args([
            "run",
            "n=96",
            "p=8",
            "c=2",
            "steps=3",
            "--faults=corrupt:4@1",
            &format!("--record-timeline={tl}"),
        ])
        .output()
        .expect("launch");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "gate must fail\n{stdout}");
    assert!(
        stdout.contains("\"health_fingerprint_mismatches\":1"),
        "{stdout}"
    );
    assert!(stdout.contains("\"recovered\":true"), "{stdout}");
    assert!(stdout.contains("\"health_gate\":\"fail\""), "{stdout}");
    assert!(stderr.contains("HEALTH GATE"), "{stderr}");

    // The bundle names the mismatch and renders UNHEALTHY, exit 1.
    let out = cli()
        .args(["analyze", &format!("--timeline={tl}")])
        .output()
        .expect("launch");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains("1 fingerprint mismatch"), "{stdout}");
    assert!(stdout.contains("UNHEALTHY"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn health_flags_reject_bad_specs_and_checkpoint_combination() {
    // `--faults` is the one door for an injected fault: the flags that
    // went are unread options.
    for flag in [
        "--inject-nan=0@2",
        "--corrupt-replica=4@2",
        "--crash-at-step=4",
    ] {
        let key = &flag[2..flag.find('=').unwrap()];
        let args = ["run", "n=32", "p=4", "c=2", "steps=2", flag];
        assert_refused(2, key, &args, &[&format!("'{key}'"), "'run'"]);
    }

    // The health monitors compose with everything else a run can carry.
    // Checkpointing: crash on cue with the monitors on, resume with them
    // on, and land on the uninterrupted twin's exact state.
    let dir = std::env::temp_dir().join("ca_nbody_cli_health_ckpt");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let common = ["run", "n=64", "p=4", "c=2", "steps=6", "--health"];
    let out = cli().args(common).output().expect("launch");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = nbody_trace::Json::parse(stdout.lines().last().unwrap()).unwrap();
    let want_energy = doc.get("kinetic_energy").unwrap().as_f64().unwrap();

    let ckpt = dir.join("ckpt");
    let out = cli()
        .args(common)
        .args([
            &format!("--checkpoint-dir={}", ckpt.display()),
            "--checkpoint-every=2",
            "--faults=crash@4",
        ])
        .output()
        .expect("launch");
    assert_eq!(
        out.status.code(),
        Some(137),
        "crash@4 must exit 137 under --health too: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(ckpt.join("ckpt-00000004.json").is_file());

    let out = cli()
        .args(common)
        .arg(format!("--resume={}", ckpt.display()))
        .output()
        .expect("launch");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = nbody_trace::Json::parse(stdout.lines().last().unwrap()).unwrap();
    assert_eq!(doc.get("resumed_from_step").unwrap().as_f64(), Some(4.0));
    assert_eq!(
        doc.get("kinetic_energy").unwrap().as_f64().unwrap(),
        want_energy,
        "resumed health run must match the uninterrupted one exactly"
    );
    assert!(stdout.contains("\"health_sentinel_events\":0"), "{stdout}");
    assert!(
        stdout.contains("\"health_fingerprint_mismatches\":0"),
        "{stdout}"
    );

    // Wire probes: a health run writes a non-empty log `analyze` reads.
    let wire = dir.join("wire.json").display().to_string();
    let out = cli()
        .args(common)
        .arg(format!("--wire-probe={wire}"))
        .output()
        .expect("launch");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = nbody_trace::Json::parse(stdout.lines().last().unwrap()).unwrap();
    assert!(
        doc.get("wire_events").unwrap().as_f64().unwrap() > 0.0,
        "{stdout}"
    );
    let out = cli()
        .args(["analyze", &format!("--wire={wire}")])
        .output()
        .expect("launch");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Run `args` in a fresh, empty working directory and require a refusal
/// with exit `code` (2 at start-up, 1 after): exactly one stderr line
/// naming each of `names`, no panic, and nothing written.
fn assert_refused(code: i32, tag: &str, args: &[&str], names: &[&str]) {
    let dir = std::env::temp_dir().join(format!("ca_nbody_cli_startup_{tag}"));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let out = cli().args(args).current_dir(&dir).output().expect("launch");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(code), "{args:?}: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
    for name in names {
        assert!(stderr.contains(name), "{args:?}: no {name} in {stderr}");
    }
    assert!(!stderr.contains("panicked at"), "{args:?}: {stderr}");
    let left: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    assert!(left.is_empty(), "{args:?} wrote {left:?}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_malformed_option_value_is_a_startup_error_not_a_default() {
    for (tag, args, names) in [
        (
            "n",
            &["run", "n=1o24", "steps=2", "--trace=t.json"][..],
            ["'n'", "'1o24'"],
        ),
        (
            "p",
            &["run", "p=4x", "steps=2", "--metrics=m.json"],
            ["'p'", "'4x'"],
        ),
        (
            "steps",
            &["audit", "steps=two", "--out=a.json"],
            ["'steps'", "'two'"],
        ),
        (
            "kills",
            &["chaos", "--kills=many", "--metrics=m.json"],
            ["'kills'", "'many'"],
        ),
        (
            "drift",
            &["analyze", "--drift-window=x", "t.json", "--json=c.json"],
            ["'drift-window'", "'x'"],
        ),
        (
            "faults",
            &["run", "--faults=explode:1@2", "--trace=t.json"],
            ["invalid --faults", "explode"],
        ),
        (
            "nan",
            &["run", "--faults=nan:zero@1", "--trace=t.json"],
            ["invalid --faults", "`nan:zero@1`: bad rank"],
        ),
        (
            "crash",
            &["run", "--checkpoint-dir=ck", "--faults=crash@soon"],
            ["invalid --faults", "`crash@soon`: bad step"],
        ),
        ("c", &["audit", "c=some"], ["'c'", "'some'"]),
        (
            "bc",
            &["run", "boundary=perodic", "--trace=t.json"],
            ["'boundary'", "'perodic'"],
        ),
        ("switch", &["run", "--health", "yes"], ["'health'", "'yes'"]),
        // Each artifact has one encoding, JSON: a path that asks for
        // another is refused, not written as JSON under that name.
        (
            "prom",
            &["run", "n=64", "p=4", "steps=1", "--metrics=m.prom"],
            ["'metrics'", "'m.prom'"],
        ),
        (
            "events",
            &["run", "n=64", "p=4", "steps=1", "--trace=t.csv"],
            ["'trace'", "'t.csv'"],
        ),
        (
            "chaos-prom",
            &["chaos", "--metrics=m.prom"],
            ["'metrics'", "'m.prom'"],
        ),
        ("audit-csv", &["audit", "--out=a.csv"], ["'out'", "'a.csv'"]),
        (
            "roofline-csv",
            &["audit", "--roofline-out=r.csv"],
            ["'roofline-out'", "'r.csv'"],
        ),
    ] {
        assert_refused(2, tag, args, &names);
    }
}

#[test]
fn a_fault_that_could_never_fire_is_refused_before_anything_runs() {
    // Each used to run to exit 0 with nothing injected.
    for (faults, why) in [
        ("kill:99@1", "rank 99"),
        ("drop:8@0", "rank 8"),
        ("nan:99@1", "rank 99"),
        ("nan:4@1", "rank 4 is a replica"),
        ("nan:0@3", "timestep 3"),
        ("corrupt:4@99", "timestep 99"),
        ("nan:0@1 --health-every=2", "divisible by 2"),
        ("crash@9", "global step 9"),
        ("crash@0", "global step 0"),
    ] {
        let flag = format!("--faults={faults} --checkpoint-dir=ck --trace=t.json");
        let mut args = vec!["run", "n=96", "p=8", "c=2", "steps=3"];
        args.extend(flag.split(' '));
        let event = format!("fault `{}` never fires", faults.split(' ').next().unwrap());
        assert_refused(1, "never-fires", &args, &[&event, why]);
    }
    // A crash fires after a checkpoint: without a sink it is a start-up
    // error, as the unread flag it replaces was.
    let args = ["run", "--faults=crash@2", "--trace=t.json"];
    assert_refused(2, "crash-sink", &args, &["crash@S", "--checkpoint-dir"]);
}

#[test]
fn an_option_the_subcommand_does_not_read_is_a_startup_error() {
    for (tag, args, names) in [
        (
            "trase",
            &["run", "n=64", "p=4", "steps=2", "--trase=out.json"][..],
            ["'trase'", "'run'"],
        ),
        (
            "serve",
            &[
                "run",
                "n=64",
                "p=4",
                "steps=1",
                "--serve-metrics=127.0.0.1:0",
            ],
            ["'serve-metrics'", "'run'"],
        ),
        (
            "profile",
            &["run", "n=64", "p=4", "steps=1", "--profile"],
            ["'profile'", "'run'"],
        ),
        // A bundle is diagnosed on its own; `--metrics` goes with a trace.
        (
            "bundle",
            &["analyze", "--timeline=tl.json", "--metrics=m.json"],
            ["'metrics'", "'analyze'"],
        ),
        // The send counts come from the ledger: no probe to switch on.
        ("wire", &["audit", "--wire"], ["'wire'", "'audit'"]),
        // Read only next to the option that gives them a meaning.
        (
            "every",
            &["run", "checkpoint-every=5", "--trace=t.json"],
            ["'checkpoint-every'", "'run'"],
        ),
        (
            "hold",
            &["run", "serve-metrics-hold-ms=10"],
            ["'serve-metrics-hold-ms'", "'run'"],
        ),
        (
            "gate",
            &["run", "--health-baseline=h.json"],
            ["'health-baseline'", "'run'"],
        ),
        (
            "retry",
            &["run", "fault-timeout-ms=300"],
            ["'fault-timeout-ms'", "'run'"],
        ),
        (
            "method",
            &["audit", "method=ca-cutoff-1d"],
            ["'method'", "'audit'"],
        ),
        // Deleted: the critical path's one file is the `--json` analysis.
        (
            "csv",
            &["analyze", "t.json", "--csv=c.csv"],
            ["'csv'", "'analyze'"],
        ),
    ] {
        assert_refused(2, tag, args, &names);
    }
    // The retry policy's one setting is the first deadline: the knobs that
    // went are unread even where `fault-timeout-ms` is read.
    for flag in [
        "max-retries=5",
        "retry-backoff=1.5",
        "retry-jitter=0",
        "retry-seed=7",
        "retry-budget-ms=100",
        "peer-dead-timeout-ms=100",
    ] {
        let key = flag.split_once('=').unwrap().0;
        let args = ["run", "--faults=drop:1@1", "fault-timeout-ms=300", flag];
        assert_refused(2, key, &args, &[&format!("'{key}'"), "'run'"]);
    }
}

#[test]
fn every_subcommand_rejects_an_unknown_option_before_doing_anything() {
    // A minimal invocation of each; the inputs need not exist, because the
    // option check comes before the first file is opened.
    for args in [
        &["run", "n=32", "p=2", "c=1", "steps=1"][..],
        &["verify", "n=32", "p=2", "c=1", "steps=1"],
        &["audit", "n=64", "p=4"],
        &["calibrate"],
        &["chaos", "n=64", "p=4"],
        &["soak", "n=64", "p=4", "seconds=1"],
        &["analyze", "t.json"],
        &["analyze", "--timeline=tl.json"],
        &["conformance", "m.json"],
    ] {
        let mut args = args.to_vec();
        args.push("--no-such-option=1");
        let quoted = format!("'{}'", args[0]);
        assert_refused(2, args[0], &args, &["'no-such-option'", &quoted]);
    }
}

#[test]
fn conformance_reads_the_grammar_run_wrote_the_log_with() {
    // `law=lj` scales the domain and brings its own default cutoff, and
    // `boundary=periodic` wraps the window: the flags that produced a log
    // must reproduce its schedule, and dropping one must not.
    let dir = std::env::temp_dir().join("ca_nbody_cli_one_grammar_test");
    std::fs::create_dir_all(&dir).unwrap();
    let metrics = dir.join("metrics.json").display().to_string();
    let flags = [
        "method=ca-cutoff-1d",
        "law=lj",
        "n=256",
        "p=8",
        "c=2",
        "steps=2",
    ];
    let out = cli()
        .arg("run")
        .args(flags)
        .args(["boundary=periodic", &format!("--metrics={metrics}")])
        .output()
        .expect("launch");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = cli()
        .args(["conformance", &metrics])
        .args(flags)
        .arg("boundary=periodic")
        .output()
        .expect("launch");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("verdict: PASS"), "{stdout}");
    assert!(
        stdout.contains("(periodic)") && stdout.contains("cutoff=2.5"),
        "{stdout}"
    );

    let out = cli()
        .args(["conformance", &metrics])
        .args(flags)
        .output()
        .expect("launch");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains("verdict: FAIL"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}
