//! End-to-end tests of the `ca-nbody-repro` command-line interface.

use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ca-nbody-repro"))
}

/// Run the CLI with `args`.
fn ran(args: &[&str]) -> std::process::Output {
    cli().args(args).output().expect("launch")
}

/// Run the CLI on the words of `line`.
fn sh(line: &str) -> std::process::Output {
    ran(&line.split(' ').collect::<Vec<_>>())
}

/// Require `out` to have exited 0, and return its stdout.
fn succeeded(out: &std::process::Output) -> String {
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stdout}\n{stderr}");
    stdout
}

/// The run bundle a `--trace` (or `chaos --postmortem`) wrote to `path`.
fn bundle(path: &str) -> nbody_comm::RunBundle {
    let text = std::fs::read_to_string(path).expect("bundle not written");
    nbody_comm::RunBundle::parse(&text).expect("invalid bundle")
}

/// Run `run <args> --trace=<dir>/<name>` to success and return the
/// bundle's path.
fn traced(dir: &std::path::Path, name: &str, args: &[&str]) -> String {
    std::fs::create_dir_all(dir).unwrap();
    let path = dir.join(name).display().to_string();
    let out = cli()
        .arg("run")
        .args(args)
        .arg(format!("--trace={path}"))
        .output()
        .expect("launch");
    succeeded(&out);
    path
}

/// `analyze <bundle> <args>`.
fn analyzed(bundle: &str, args: &[&str]) -> std::process::Output {
    ran(&[&["analyze", bundle], args].concat())
}

/// The JSON summary that ends `stdout`.
fn summary(stdout: &str) -> nbody_trace::Json {
    let last = stdout.lines().last().expect("no output");
    nbody_trace::Json::parse(last).expect("last line is not JSON")
}

/// A copy of the bundle at `path` with the recorded `from` replaced by
/// `to`, written beside it as `name`.
fn edited(path: &str, name: &str, from: &str, to: &str) -> String {
    let text = std::fs::read_to_string(path).unwrap();
    assert!(text.contains(from), "no {from} in {path}");
    let copy = std::path::Path::new(path).with_file_name(name);
    std::fs::write(&copy, text.replace(from, to)).unwrap();
    copy.display().to_string()
}

#[test]
fn verify_subcommand_passes_for_default_config() {
    let out = cli()
        .args(["verify", "n=128", "p=4", "c=2", "steps=5"])
        .output()
        .expect("failed to launch CLI");
    let stdout = succeeded(&out);
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
    // `report`, `health`, `audit` and `conformance` were folded into
    // `analyze`, and `soak` into `chaos`; `autotune` had no reader.
    let dir = std::env::temp_dir().join("ca_nbody_cli_unknown_subcommand");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    for name in [
        "frobnicate",
        "scale",
        "postmortem",
        "report",
        "health",
        "autotune",
        "audit",
        "conformance",
        "soak",
    ] {
        let out = cli()
            .args([name, "n=64", "p=4", "--out=a.json", "t.json"])
            .current_dir(&dir)
            .output()
            .expect("launch");
        assert_eq!(out.status.code(), Some(2), "{name}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.starts_with("usage: ca-nbody <run|"),
            "{name}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{name}");
        let left: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert!(left.is_empty(), "{name} wrote {left:?}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_method_fails() {
    let out = ran(&["run", "method=quantum"]);
    assert!(!out.status.success());
}

#[test]
fn run_emits_single_line_json_summary() {
    let out = sh("run n=64 p=4 c=2 steps=2");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let doc = summary(&stdout);
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
    let out = sh(&format!(
        "run method=ca-cutoff-1d n=256 p=8 c=2 steps=3 --trace={}",
        path.display()
    ));
    succeeded(&out);
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
    let run = sh(&format!(
        "run n=128 p=4 c=2 steps=2 --trace={}",
        path.display()
    ));
    assert!(run.status.success());
    let out = ran(&["analyze", path.to_str().unwrap()]);
    let stdout = succeeded(&out);
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
    // One bundle per c of the paper's sweep on p = 16: shift words must
    // fall as c grows and every configuration must pass the committed
    // ceilings (`--key value` form, as documented).
    let dir = std::env::temp_dir().join("ca_nbody_cli_audit_sweep_test");
    let mut last_shift = f64::INFINITY;
    for c in [1, 2, 4] {
        let c = format!("c={c}");
        let args = ["n=256", "p=16", &c, "steps=1", "dt=0.001", "temperature=0"];
        let bundle = traced(&dir, &format!("c{}.json", &c[2..]), &args);
        let baseline = ["--baseline", "bench_results/audit_baseline.json"];
        let stdout = succeeded(&analyzed(&bundle, &baseline));
        for want in ["latency   S:", "bandwidth W:", "bound", "PASS", "shift"] {
            assert!(stdout.contains(want), "missing {want:?} in {stdout}");
        }
        let doc = summary(&stdout);
        assert_eq!(doc.get("cmd").unwrap().as_str(), Some("analyze"));
        assert_eq!(doc.get("pass").unwrap(), &nbody_trace::Json::Bool(true));
        let s = doc.get("s_factor").unwrap().as_f64().unwrap();
        let w = doc.get("w_factor").unwrap().as_f64().unwrap();
        assert!(s.is_finite() && s > 0.0, "{stdout}");
        assert!(w.is_finite() && w > 0.0, "{stdout}");
        let shift = doc.get("shift_words").unwrap().as_f64().unwrap();
        assert!(
            shift < last_shift,
            "shift words must fall as c grows: {stdout}"
        );
        last_shift = shift;
    }
    std::fs::remove_dir_all(&dir).ok();
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
    let args = [
        "method=ca-cutoff-1d",
        "n=256",
        "p=8",
        "cutoff=0.25",
        "c=2",
        "steps=1",
        "dt=0.001",
        "temperature=0",
    ];
    let bundle = traced(&dir, "run.json", &args);
    let out = analyzed(&bundle, &[&format!("--baseline={}", baseline.display())]);
    let stdout = succeeded(&out);
    assert!(stdout.contains("optimality audit: cutoff-1d"), "{stdout}");
    // Re-assignment is under the send-count gate: the twin predicts its
    // messages and the run's ledger counted exactly those.
    let wire_row = |l: &str| l.trim_start().starts_with("re-assign") && l.ends_with("+0");
    assert!(stdout.lines().any(wire_row), "{stdout}");
    let doc = summary(&stdout);
    assert_eq!(doc.get("verdict").unwrap().as_str(), Some("PASS"));
    assert_eq!(doc.get("pass").unwrap().as_bool(), Some(true));
    std::fs::remove_dir_all(&dir).ok();
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
    let bundle = traced(&dir, "run.json", &["n=128", "p=4", "steps=1"]);
    let out = analyzed(&bundle, &[&format!("--baseline={}", path.display())]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("FAIL"), "{stdout}");
    assert_eq!(summary(&stdout).get("pass").unwrap().as_bool(), Some(false));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("AUDIT FAILED"), "{stderr}");
    // Without a baseline the factors are reported, not gated.
    let stdout = succeeded(&analyzed(&bundle, &[]));
    assert!(stdout.contains("ceiling inf"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn audit_rejects_missing_and_malformed_baseline_with_one_line_error() {
    let dir = std::env::temp_dir().join("ca_nbody_cli_audit_garbage_test");
    let bundle = traced(&dir, "run.json", &["n=64", "p=4", "steps=1"]);
    // Missing file: a clear one-line error, not a panic.
    let out = analyzed(&bundle, &["--baseline=/no/such/file.json"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot read"), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");

    // Malformed file: same contract.
    let path = dir.join("garbage.json");
    std::fs::write(&path, "hello, world").unwrap();
    let out = analyzed(&bundle, &[&format!("--baseline={}", path.display())]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot parse"), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn audit_rejects_invalid_replication_factor() {
    // c = 3 does not lay out on 16 ranks: no run, so no bundle to audit.
    let dir = std::env::temp_dir().join("ca_nbody_cli_audit_bad_c_test");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("run.json");
    let out = cli()
        .args(["run", "n=64", "p=16", "c=3", "steps=1"])
        .arg(format!("--trace={}", trace.display()))
        .output()
        .expect("launch");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("not usable"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(!trace.exists());
    std::fs::remove_dir_all(&dir).ok();
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
        (&["run", "law=lj", "n=64", "p=4", "cutoff=0"], "cutoff=0"),
        (
            &["verify", "method=halo-1d", "n=64", "p=4", "cutoff=0"],
            "cutoff=0",
        ),
    ] {
        let out = ran(args);
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
    let bundle = traced(&dir, "run.json", &["n=128", "p=4", "steps=1"]);
    let json = dir.join("analysis.json");
    let out = analyzed(&bundle, &[&format!("--json={}", json.display())]);
    succeeded(&out);
    let body = std::fs::read_to_string(&json).expect("analysis not written");
    let doc = nbody_trace::Json::parse(&body).expect("invalid JSON analysis");
    // One document: the analysis, then the audit and roofline sections.
    assert!(doc.get("critical_path").is_some(), "{doc}");
    let audit = doc.get("audit").unwrap();
    assert!(!audit.get("reports").unwrap().as_array().unwrap().is_empty());
    // The roofline places every one of the p ranks.
    let kernels = doc
        .get("roofline")
        .unwrap()
        .as_array()
        .expect("a roofline array");
    assert!(!kernels.is_empty());
    for k in kernels {
        assert!(k.get("best_pct_of_roofline").is_some(), "{k}");
        let ranks = k.get("ranks").and_then(nbody_trace::Json::as_array);
        assert_eq!(ranks.map(<[_]>::len), Some(4), "{k}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn the_bundles_metrics_snapshot_round_trips() {
    let dir = std::env::temp_dir().join("ca_nbody_cli_metrics_test");
    let json_path = traced(&dir, "run.json", &["n=128", "p=4", "c=2", "steps=2"]);
    // The bundle's snapshot parses back, and round-trips losslessly in
    // memory.
    let snap = bundle(&json_path).artifacts.metrics;
    let json_text = snap.to_json().to_string();
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
    let out = sh("verify n=96 p=8 c=2 steps=2 --faults=kill:5@1 fault-timeout-ms=400");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success() && stdout.contains("VERIFY OK"),
        "{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = summary(&stdout);
    // Recovery happened, and the distributed result still matched serial
    // exactly (max_deviation is bitwise zero).
    assert!(
        matches!(doc.get("recovered"), Some(nbody_trace::Json::Bool(true))),
        "{stdout}"
    );
    assert_eq!(doc.get("max_attempts").unwrap().as_f64(), Some(2.0));
    assert_eq!(doc.get("max_deviation").unwrap().as_f64(), Some(0.0));
    assert!(doc.get("recovery_bytes_total").unwrap().as_f64().unwrap() > 0.0);
}

#[test]
fn run_with_total_loss_fails_cleanly() {
    // Every rank killed in the same step: nothing survives to shrink
    // onto, so this is the one fault class that must still fail.
    let out = sh("run n=64 p=4 c=1 steps=1 --faults=kill:0@1,kill:1@1,kill:2@1,kill:3@1 fault-timeout-ms=300");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unrecoverable"), "{stderr}");
}

#[test]
fn run_survives_unreplicated_kill_by_shrinking() {
    // c=1 leaves no replica, but a single column loss now degrades to a
    // smaller world instead of failing: the run completes on 3 ranks and
    // reports what it shed.
    let out = sh("run n=64 p=4 c=1 steps=1 --faults=kill:2@1 fault-timeout-ms=300");
    let stdout = succeeded(&out);
    let doc = summary(&stdout);
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
    let out = sh("run n=32 p=4 method=halo-1d --faults=drop:1@1");
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
    let stdout = succeeded(&out);
    let doc = summary(&stdout);
    assert!(
        matches!(doc.get("pass"), Some(nbody_trace::Json::Bool(true))),
        "{stdout}"
    );
    assert!(doc.get("kills_fired").unwrap().as_f64().unwrap() > 0.0);
    assert_eq!(doc.get("failures").unwrap().as_f64(), Some(0.0));
    let count = |key: &str| doc.get(key).unwrap().as_f64().unwrap();
    assert_eq!(count("finished"), count("runs") - 1.0, "{stdout}");
    assert_eq!(count("conforming"), count("finished"), "{stdout}");
}

#[test]
fn chaos_rejects_configs_without_a_surviving_replica() {
    let out = sh("chaos n=32 p=4 c=1");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("c >= 2"));
}

/// Run a small traced all-pairs execution and return the path of its
/// bundle inside `dir`.
fn traced_run(dir: &std::path::Path, p: usize, c: usize) -> String {
    let (p, c) = (format!("p={p}"), format!("c={c}"));
    traced(dir, "run.json", &["n=128", &p, &c, "steps=3"])
}

#[test]
fn analyze_reports_critical_path_imbalance_and_heatmap() {
    let dir = std::env::temp_dir().join("ca_nbody_cli_analyze_test");
    let trace = traced_run(&dir, 8, 2);
    let json = dir.join("analysis.json").display().to_string();
    let out = ran(&["analyze", &trace, &format!("--json={json}")]);
    let stdout = succeeded(&out);
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
    let trace = traced_run(&dir, 1, 1);
    let out = ran(&["analyze", &trace]);
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
    let out = ran(&["analyze", empty.to_str().unwrap()]);
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
    let out = ran(&["analyze", truncated.to_str().unwrap()]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    let at = format!("at byte {}", body.len());
    assert!(stderr.contains(&at), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");

    // Not JSON at all: the one-line error says which file did not parse.
    let garbage = dir.join("not_a_trace.json");
    std::fs::write(&garbage, "hello, world").unwrap();
    let out = ran(&["analyze", garbage.to_str().unwrap()]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot parse"), "{stderr}");

    // A Chrome trace without the run's sections is not a run bundle.
    let plain = dir.join("plain.json");
    std::fs::write(&plain, format!("{}}}]}}", &body[..body.len() - 13])).unwrap();
    let out = ran(&["analyze", plain.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("not an nbody-run/v1 bundle"), "{stderr}");

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
        let out = ran(&["analyze", path.to_str().unwrap()]);
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
    let trace = traced_run(&dir, 4, 2);
    let json = dir.join("analysis.json");
    // `c` is the one the bundle recorded: a copy edited to one the grid
    // cannot use.
    for c in ["c=3", "c=0"] {
        let trace = edited(&trace, "bad_c.json", "\"c=2\"", &format!("\"{c}\""));
        let out = ran(&["analyze", &trace, &format!("--json={}", json.display())]);
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
    let out = ran(&["run", "n=96", "p=4", "c=2", "steps=2", &trace]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let doc = summary(&stdout);
    // Critical-path split: the three buckets exist and compute is real.
    let compute = doc.get("critical_compute_secs").unwrap().as_f64().unwrap();
    assert!(compute > 0.0, "{stdout}");
    assert!(doc.get("critical_comm_secs").unwrap().as_f64().unwrap() >= 0.0);
    assert!(doc.get("critical_blocked_secs").unwrap().as_f64().unwrap() >= 0.0);
    // Per-phase imbalance factors: max/mean >= 1 for every reported phase.
    let imb = doc.get("imbalance").unwrap();
    for phase in ["shift", "other"] {
        let f = imb.get(phase).unwrap().as_f64().unwrap();
        assert!(f >= 1.0, "phase {phase}: {stdout}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn calibrate_writes_machine_ceilings_json() {
    let dir = std::env::temp_dir().join("ca_nbody_cli_calibrate_test");
    std::fs::remove_dir_all(&dir).ok();
    let path = dir.join("machine_calibration.json");
    let out = sh(&format!("calibrate seed=7 --out={}", path.display()));
    let stdout = succeeded(&out);
    let doc = summary(&stdout);
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
    let bundle = traced(&dir, "run.json", &["n=256", "p=4", "steps=1", "c=2"]);
    let roofline_json = dir.join("analysis.json");
    let base = |args: &[String]| {
        let mut v = vec![format!("--calibration={}", cal.display())];
        v.extend_from_slice(args);
        let v: Vec<&str> = v.iter().map(String::as_str).collect();
        analyzed(&bundle, &v)
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
        format!("--json={}", roofline_json.display()),
    ]);
    let stdout = succeeded(&out);
    assert!(stdout.contains("compute roofline"), "{stdout}");
    assert!(stdout.contains("roofline gate"), "{stdout}");
    let doc = summary(&stdout);
    assert_eq!(doc.get("roofline_pass").unwrap().as_bool(), Some(true));
    assert!(doc.get("roofline_best_pct").unwrap().as_f64().unwrap() > 0.0);
    let report = nbody_trace::Json::parse(
        &std::fs::read_to_string(&roofline_json).expect("roofline report not written"),
    )
    .unwrap();
    let kernels = report.get("roofline").unwrap().as_array().unwrap();
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
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("roofline gate"), "{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        summary(&stdout).get("roofline_pass").unwrap().as_bool(),
        Some(false)
    );
    // A valid override still runs normally.
    let out = cli()
        .args(["run", "n=32", "p=2", "c=1", "steps=1"])
        .env("NBODY_RECV_TIMEOUT_SECS", "90")
        .output()
        .expect("launch");
    succeeded(&out);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn the_bundles_timeline_reads_back_and_analyze_reports_drift() {
    let dir = std::env::temp_dir().join("ca_nbody_cli_timeline_test");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("run.json").display().to_string();
    let out = sh(&format!("run n=128 p=4 c=2 steps=4 --trace={trace}"));
    let stdout = succeeded(&out);
    assert!(stdout.contains("run bundle written to"), "{stdout}");
    let doc = summary(&stdout);
    assert!(
        doc.get("timeline_samples").unwrap().as_f64().unwrap() > 0.0,
        "{stdout}"
    );

    // The bundle parses back: every rank sampled every step.
    let tl = bundle(&trace).artifacts.timeline;
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

    // One report from the one file: the trace's tables and the drift
    // table, quiet on a short stationary run.
    let out = ran(&["analyze", &trace]);
    let stdout = succeeded(&out);
    assert!(stdout.contains("stragglers"), "{stdout}");
    assert!(stdout.contains("timeline drift"), "{stdout}");
    assert!(stdout.contains("no drift flagged"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn gravity_under_a_cutoff_method_records_a_tunable_drift_report() {
    // The EXPERIMENTS collapse recipe needs gravity under a spatial
    // decomposition (law=gravity + ca-cutoff-1d) and the analyze drift
    // knobs; guard both ends of that pipeline.
    let dir = std::env::temp_dir().join("ca_nbody_cli_gravity_cutoff_test");
    std::fs::remove_dir_all(&dir).ok();
    let tl_path = traced(
        &dir,
        "run.json",
        &[
            "method=ca-cutoff-1d",
            "law=gravity",
            "n=128",
            "p=4",
            "c=2",
            "steps=3",
        ],
    );
    let out = ran(&["analyze", &tl_path, "--drift-window=32", "--drift-nsigma=3"]);
    let stdout = succeeded(&out);
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
    let out = sh(&format!("run n=64 p=4 c=1 steps=1 --faults=kill:0@1,kill:1@1,kill:2@1,kill:3@1 fault-timeout-ms=300 --trace={tl_path}"));
    assert!(
        !out.status.success(),
        "the failed run must keep its nonzero exit"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("postmortem bundle written to"), "{stderr}");

    let tl = bundle(&tl_path).artifacts.timeline;
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

    // `analyze` reads the bundle, names why the run died once, and exits
    // 1: a postmortem is UNHEALTHY.
    let out = ran(&["analyze", &tl_path]);
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
fn a_postmortem_bundle_gets_no_conformance_or_optimality_verdict() {
    // The run dies at step 2 of 4, and its bundle records the 4 steps it
    // was asked for: a schedule or a bound over them would count steps
    // that never ran. `analyze` says so in one line and gives neither
    // verdict; the postmortem alone makes it exit 1.
    let path = std::env::temp_dir().join(format!("nan_pm_{}.json", std::process::id()));
    let path = path.display().to_string();
    let out = sh(&format!(
        "run n=512 p=8 c=2 steps=4 --faults=nan:0@2 --trace={path}"
    ));
    assert_eq!(out.status.code(), Some(1));
    let out = ran(&["analyze", &path]);
    std::fs::remove_file(&path).ok();
    let (stdout, stderr) = (String::from_utf8_lossy(&out.stdout), out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains("UNHEALTHY"), "{stdout}");
    assert_eq!(stdout.matches("no conformance").count(), 1, "{stdout}");
    assert!(!stdout.contains("FAIL") && !String::from_utf8_lossy(&stderr).contains("FAIL"));
    let doc = summary(&stdout);
    assert!(doc.get("verdict").is_none() && doc.get("s_factor").is_none());
}

#[test]
fn chaos_postmortem_flag_dumps_bundle_for_the_unrecoverable_kill() {
    let dir = std::env::temp_dir().join("ca_nbody_cli_chaos_postmortem_test");
    std::fs::remove_dir_all(&dir).ok();
    let pm_dir = dir.join("postmortems").display().to_string();
    let out = sh(&format!(
        "chaos n=64 p=4 c=2 steps=1 fault-timeout-ms=250 --postmortem={pm_dir}"
    ));
    let stdout = succeeded(&out);
    let doc = summary(&stdout);
    let bundles = doc.get("postmortem_bundles").unwrap().as_array().unwrap();
    // The sweep recovers or shrinks everywhere; only the deliberate
    // total-loss kill ends Unrecoverable and leaves a bundle.
    assert_eq!(bundles.len(), 1, "{stdout}");
    assert_eq!(bundles[0].as_str(), Some("total_loss_unrecoverable"));
    let bundle_path = format!("{pm_dir}/total_loss_unrecoverable.json");
    let pm = bundle(&bundle_path);
    assert!(pm.artifacts.timeline.is_postmortem());
    // The schedule is recorded with it: `conformance` needs no options.
    let plan = "kill:0@0,kill:1@0,kill:2@0,kill:3@0";
    assert_eq!(pm.faults.as_deref(), Some(plan));
    assert!(pm.spec.iter().any(|o| o == "p=4"), "{:?}", pm.spec);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpointed_run_crashes_on_cue_and_resumes_bit_identically() {
    let dir = std::env::temp_dir().join("ca_nbody_cli_ckpt_resume_test");
    std::fs::remove_dir_all(&dir).ok();
    let common = ["n=64", "p=4", "c=2", "steps=6"];

    // The reference: the same run, uninterrupted, no checkpoint sink.
    let out = cli().arg("run").args(common).output().expect("launch");
    succeeded(&out);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let doc = summary(&stdout);
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
    let stdout = succeeded(&out);
    let doc = summary(&stdout);
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

    // A resumed run's bundle records the steps it ran, so the schedule
    // `analyze` replays is the one it sent.
    for step in [5, 6] {
        std::fs::remove_file(dir.join(format!("ckpt-{step:08}.json"))).unwrap();
    }
    let trace = dir.join("resumed.json").display().to_string();
    let out = cli()
        .arg("run")
        .args(common)
        .args([
            format!("--resume={}", dir.display()),
            format!("--trace={trace}"),
        ])
        .output()
        .expect("launch");
    succeeded(&out);
    assert!(bundle(&trace).spec.iter().any(|o| o == "steps=2"));
    let stdout = succeeded(&analyzed(&trace, &[]));
    assert!(stdout.contains("no violations"), "{stdout}");
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
    let out = sh(&format!(
        "run n=64 p=4 c=2 steps=2 --checkpoint-dir={}",
        dir.display()
    ));
    succeeded(&out);
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
fn chaos_multi_kill_and_seeded_plans_pass() {
    // Three concurrent kills across distinct columns recover without a
    // shrink, the whole-column kill shrinks (shrinks > 0), and then come
    // seconds of seeded plans, each failure reproducible from its seed.
    let out = sh("chaos n=64 p=8 c=2 steps=1 --kills=3 seconds=3 fault-timeout-ms=250");
    let stdout = succeeded(&out);
    let doc = summary(&stdout);
    assert!(
        matches!(doc.get("pass"), Some(nbody_trace::Json::Bool(true))),
        "{stdout}"
    );
    assert_eq!(doc.get("kills").unwrap().as_f64(), Some(3.0));
    assert!(
        doc.get("shrinks").unwrap().as_f64().unwrap() > 0.0,
        "{stdout}"
    );
    assert!(doc.get("seeded_runs").unwrap().as_f64().unwrap() > 0.0);
    assert_eq!(doc.get("failures").unwrap().as_f64(), Some(0.0));
    // Every schedule but the total loss finished, and each conformed.
    let count = |key: &str| doc.get(key).unwrap().as_f64().unwrap();
    assert_eq!(count("finished"), count("runs") - 1.0, "{stdout}");
    assert_eq!(count("conforming"), count("finished"), "{stdout}");
}

#[test]
fn the_exported_metrics_are_the_ledger_every_message_counted_once() {
    // The bundle carries each rank's ledger: on a run that loses nothing,
    // every point-to-point send is received in its phase, and every message
    // on the wire, point-to-point or collective, is one histogram entry.
    let path = std::env::temp_dir().join(format!("ledger_{}.json", std::process::id()));
    let out = cli()
        .args(["run", "n=256", "p=8", "c=2", "steps=2"])
        .arg(format!("--trace={}", path.display()))
        .output()
        .expect("launch");
    succeeded(&out);
    let snap = bundle(path.to_str().unwrap()).artifacts.metrics;
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
    succeeded(&out);
}

#[test]
fn wire_probe_flag_writes_parseable_log_and_conformance_passes() {
    let dir = std::env::temp_dir().join("ca_nbody_cli_wire_test");
    std::fs::create_dir_all(&dir).unwrap();
    let wire = dir.join("wire.json").display().to_string();
    let run = dir.join("run.json").display().to_string();
    let out = sh(&format!(
        "run n=48 p=8 c=2 steps=3 --wire-probe={wire} --trace={run}"
    ));
    let stdout = succeeded(&out);
    assert!(stdout.contains("wire probes written to"), "{stdout}");

    // The log parses back and the summary line reports its size.
    let log = nbody_comm::WireLog::parse(&std::fs::read_to_string(&wire).unwrap()).unwrap();
    assert_eq!(log.ranks.len(), 8);
    assert!(log.total_events() > 0);
    let doc = summary(&stdout);
    assert_eq!(
        doc.get("wire_events").unwrap().as_f64(),
        Some(log.total_events() as f64)
    );
    assert_eq!(doc.get("wire_dropped_events").unwrap().as_f64(), Some(0.0));

    // A clean run's ledger conforms to the CA schedule: zero violations,
    // and the latency table renders populated channels via `analyze --wire`.
    let stdout = succeeded(&analyzed(&run, &[]));
    assert!(stdout.contains("no violations"), "{stdout}");
    assert!(stdout.contains("verdict: PASS"), "{stdout}");
    let doc = summary(&stdout);
    assert_eq!(doc.get("verdict").unwrap().as_str(), Some("PASS"));
    assert_eq!(doc.get("unexplained").unwrap().as_f64(), Some(0.0));
    assert!(doc.get("expected_msgs").unwrap().as_f64().unwrap() > 0.0);

    let out = ran(&["analyze", &format!("--wire={wire}")]);
    let stdout = succeeded(&out);
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
    let run = traced(
        &dir,
        "run_chaos.json",
        &[
            "n=48",
            "p=8",
            "c=2",
            "steps=2",
            "--faults=drop:3@1",
            "fault-timeout-ms=250",
        ],
    );

    // Every discrepancy the injected drop causes is attributed to the
    // recorded fault plan: zero unexplained, PASS verdict, exit 0.
    let stdout = succeeded(&analyzed(&run, &[]));
    assert!(stdout.contains("verdict: PASS"), "{stdout}");
    let doc = summary(&stdout);
    assert_eq!(doc.get("unexplained").unwrap().as_f64(), Some(0.0));
    assert!(
        doc.get("violations").unwrap().as_f64().unwrap() > 0.0,
        "the drop must actually perturb the schedule: {stdout}"
    );
    assert!(stdout.contains("fault_drop:rank3@step1"), "{stdout}");

    // Without its plan the same ledger fails: the retries are surplus.
    let unplanned = edited(&run, "unplanned.json", "\"drop:3@1\"", "null");
    let out = analyzed(&unplanned, &[]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains("verdict: FAIL"), "{stdout}");

    // The same ledger against the wrong schedule is a genuine FAIL with a
    // non-zero exit (the CI gate contract).
    let wrong = edited(&run, "wrong_steps.json", "\"steps=2\"", "\"steps=7\"");
    let out = analyzed(&wrong, &[]);
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
    let out = ran(&["analyze"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));

    // Unreadable bundle.
    let out = analyzed("/nonexistent/run.json", &[]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));

    // A method with no schedule twin: one line says so, and the rest of
    // the analysis stands (exit 0).
    let dir = std::env::temp_dir().join("ca_nbody_cli_wire_badmethod_test");
    for method in ["method=halo-1d", "method=allgather"] {
        let run = traced(&dir, "run.json", &["n=32", "p=4", method, "steps=1"]);
        let stdout = succeeded(&analyzed(&run, &[]));
        let line = stdout.lines().find(|l| l.starts_with("no schedule twin: "));
        let line = line.unwrap_or_else(|| panic!("{method}: {stdout}"));
        assert!(line.contains("no communication-schedule twin"), "{line}");
        assert!(stdout.contains("per-phase wall-clock"), "{stdout}");
        assert!(!stdout.contains("optimality audit"), "{stdout}");
        let doc = summary(&stdout);
        assert!(
            doc.get("verdict").is_none() && doc.get("pass").is_none(),
            "{doc}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn audit_counts_each_phases_sends_in_the_ledger_against_the_schedule() {
    let dir = std::env::temp_dir().join("ca_nbody_cli_audit_sends_test");
    let args = [
        "n=256",
        "p=8",
        "steps=1",
        "c=2",
        "dt=0.001",
        "temperature=0",
    ];
    let bundle = traced(&dir, "run.json", &args);
    let stdout = succeeded(&analyzed(&bundle, &[]));
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
    let doc = summary(&stdout);
    let predicted = doc.get("expected_msgs").unwrap().as_f64().unwrap();
    let observed = doc.get("observed_msgs").unwrap().as_f64().unwrap();
    assert!(predicted > 0.0);
    assert_eq!(predicted, observed, "audited run must match its schedule");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_shrunk_run_conforms_every_violation_the_kills() {
    // Killing team 2's only rank shrinks the world onto launch ranks 0, 1
    // and 3: the schedule is the 4-rank ring up to the loss and the
    // 3-rank ring after it, and what the loss cut short is the kill's.
    let dir = std::env::temp_dir().join("ca_nbody_cli_shrunk_conformance_test");
    let args = [
        "n=64",
        "p=4",
        "c=1",
        "steps=2",
        "--faults=kill:2@1",
        "fault-timeout-ms=300",
    ];
    let run = traced(&dir, "run.json", &args);
    let shrinks = bundle(&run).shrinks;
    assert_eq!(shrinks.len(), 1, "{shrinks:?}");
    assert_eq!(
        (shrinks[0].survivors.as_slice(), shrinks[0].c),
        (&[0, 1, 3][..], 1)
    );
    let stdout = succeeded(&analyzed(&run, &[]));
    assert!(stdout.contains("verdict: PASS"), "{stdout}");
    assert!(
        stdout.contains("shrank at step 0 onto p'=3 c'=1"),
        "{stdout}"
    );
    let doc = summary(&stdout);
    let violations = doc.get("violations").unwrap().as_f64().unwrap();
    assert!(violations > 0.0, "the loss must cut a step short: {stdout}");
    assert_eq!(doc.get("unexplained").unwrap().as_f64(), Some(0.0));
    let attributed = stdout.matches("fault_kill:rank2@step1").count();
    assert_eq!(attributed as f64, violations, "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cutoff_ledger_conforms_in_count_only_mode() {
    let dir = std::env::temp_dir().join("ca_nbody_cli_wire_cutoff_test");
    let run = traced(
        &dir,
        "run.json",
        &[
            "method=ca-cutoff-1d",
            "n=40",
            "p=8",
            "c=2",
            "steps=2",
            "cutoff=0.25",
        ],
    );
    let stdout = succeeded(&analyzed(&run, &[]));
    assert!(stdout.contains("verdict: PASS"), "{stdout}");
    assert!(stdout.contains("ca-1d-cutoff"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn health_run_reports_gate_and_bundle_renders_verdict() {
    let dir = std::env::temp_dir().join("ca_nbody_cli_health_test");
    std::fs::create_dir_all(&dir).unwrap();
    let tl = dir.join("run.json").display().to_string();
    let out = sh(&format!("run n=96 p=8 c=2 steps=3 --health --trace={tl}"));
    let stdout = succeeded(&out);
    assert!(stdout.contains("\"health_sentinel_events\":0"), "{stdout}");
    assert!(stdout.contains("\"health_gate\":\"pass\""), "{stdout}");

    // The bundle renders a clean verdict and exits zero.
    let out = ran(&["analyze", &tl]);
    let stdout = succeeded(&out);
    assert!(stdout.contains(": HEALTHY"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn injected_nan_aborts_with_blame_and_unhealthy_bundle() {
    let dir = std::env::temp_dir().join("ca_nbody_cli_health_nan_test");
    std::fs::create_dir_all(&dir).unwrap();
    let tl = dir.join("run.json").display().to_string();
    let out = sh(&format!(
        "run n=96 p=8 c=2 steps=3 --faults=nan:0@1 --trace={tl}"
    ));
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
    let out = ran(&["analyze", &tl]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains("UNHEALTHY"), "{stdout}");
    assert!(stdout.contains("rank 0 step 1"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupted_replica_detection_fails_the_default_health_gate() {
    // p=8, c=2: rank 4 is team 0's replica. Its checkpoint fails its
    // digest and is re-seeded from row 0, the run completes recovered, and
    // the committed zero-mismatch baseline turns the detection into a
    // non-zero exit.
    let dir = std::env::temp_dir().join("ca_nbody_cli_health_corrupt_test");
    std::fs::create_dir_all(&dir).unwrap();
    let tl = dir.join("run.json").display().to_string();
    let out = sh(&format!(
        "run n=96 p=8 c=2 steps=3 --faults=corrupt:4@1 --trace={tl}"
    ));
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
    let out = ran(&["analyze", &tl]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains("1 fingerprint mismatch"), "{stdout}");
    assert!(stdout.contains("UNHEALTHY"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();

    // At c = 1 the copy that fails its digest is its column's only one:
    // the agreed shrink drops it, the gate fails all the same, and verify
    // has no full-world trajectory to call OK.
    for cmd in ["run", "verify"] {
        let out = sh(&format!("{cmd} n=256 p=4 c=1 steps=3 --faults=corrupt:1@1"));
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(1), "{cmd}: {stdout}");
        let mismatch = stdout.contains("\"health_fingerprint_mismatches\":1");
        assert!(mismatch, "{cmd}: {stdout}");
        assert!(
            stdout.contains("\"health_gate\":\"fail\""),
            "{cmd}: {stdout}"
        );
        assert!(!stdout.contains("VERIFY OK"), "{cmd}: {stdout}");
    }
}

#[test]
fn conformance_attributes_a_corrupt_replicas_repair_to_its_plan() {
    // The repair re-runs the pipeline attempt, as a wire fault's retry
    // does: the surplus on the scheduled channels is the corrupt event's.
    let dir = std::env::temp_dir().join("ca_nbody_cli_corrupt_conformance_test");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("run.json").display().to_string();
    let out = cli()
        .args([
            "run",
            "n=512",
            "p=8",
            "c=2",
            "steps=4",
            "--faults=corrupt:4@2",
        ])
        .arg(format!("--trace={trace}"))
        .output()
        .expect("launch");
    assert!(
        out.stdout.ends_with(b"}\n") && bundle(&trace).faults.as_deref() == Some("corrupt:4@2"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // The bundle is UNHEALTHY (exit 1, the repaired mismatch), and its
    // ledger conforms: no conformance failure on stderr.
    let out = analyzed(&trace, &[]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(
        out.stderr.is_empty(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("verdict: PASS"), "{stdout}");
    let doc = summary(&stdout);
    let violations = doc.get("violations").unwrap().as_f64().unwrap();
    assert!(violations > 0.0, "the repair must resend: {stdout}");
    assert_eq!(doc.get("explained").unwrap().as_f64(), Some(violations));
    let attributed = stdout.matches("fault_corrupt:rank4@step2").count();
    assert_eq!(attributed as f64, violations, "{stdout}");
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
    let out = ran(&common);
    let stdout = succeeded(&out);
    let doc = summary(&stdout);
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
    let stdout = succeeded(&out);
    let doc = summary(&stdout);
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
    let stdout = succeeded(&out);
    let doc = summary(&stdout);
    assert!(
        doc.get("wire_events").unwrap().as_f64().unwrap() > 0.0,
        "{stdout}"
    );
    let out = ran(&["analyze", &format!("--wire={wire}")]);
    succeeded(&out);
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
            &["run", "p=4x", "steps=2", "--trace=t.json"],
            ["'p'", "'4x'"],
        ),
        (
            "steps",
            &["run", "steps=two", "--trace=t.json"],
            ["'steps'", "'two'"],
        ),
        (
            "kills",
            &["chaos", "--kills=many", "--postmortem=pm"],
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
        ("c", &["run", "c=some", "--trace=t.json"], ["'c'", "'some'"]),
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
            &["run", "n=64", "p=4", "steps=1", "--trace=t.prom"],
            ["'trace'", "'t.prom'"],
        ),
        (
            "events",
            &["run", "n=64", "p=4", "steps=1", "--trace=t.csv"],
            ["'trace'", "'t.csv'"],
        ),
        (
            "analysis-csv",
            &["analyze", "t.json", "--json=a.csv"],
            ["'json'", "'a.csv'"],
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
        // Deleted: the critical path's one file is the `--json` analysis.
        (
            "csv",
            &["analyze", "t.json", "--csv=c.csv"],
            ["'csv'", "'analyze'"],
        ),
    ] {
        assert_refused(2, tag, args, &names);
    }
    // One run, one file: the run bundle carries the metrics, the timeline,
    // the grid's `c`, the spec and the fault plan, so no option names them
    // again (`analyze` takes none of the run's); a campaign's summed
    // snapshot had no reader. The audit's report files are the one
    // `--json` document.
    let run_options = "n=48 p=8 c=2 steps=2 dt=0.01 seed=7 method=ca law=lj cutoff=0.5 \
                       boundary=periodic temperature=0";
    let retyped = run_options
        .split_whitespace()
        .map(|o| format!("analyze m.json {o}"));
    let gone = [
        "run n=64 p=4 steps=1 --metrics=m.json",
        "run n=64 p=4 steps=1 --record-timeline=tl.json",
        "verify n=64 p=4 --metrics=m.json",
        "verify n=64 p=4 --record-timeline=tl.json",
        "analyze t.json --metrics=m.json",
        "analyze --timeline=tl.json",
        "analyze t.json c=2",
        "analyze m.json --faults=drop:3@1",
        "analyze m.json --out=a.json",
        "analyze m.json --roofline-out=r.json",
        "chaos n=64 p=4 --metrics=m.json",
        // Every seeded plan has 3 faults: the count is no option.
        "chaos n=64 p=4 events=2",
    ];
    for args in gone.map(String::from).into_iter().chain(retyped) {
        let args: Vec<&str> = args.split(' ').collect();
        let flag = args.last().unwrap().trim_start_matches("--");
        let (cmd, key) = (args[0], flag.split('=').next().unwrap());
        let names = [format!("'{key}'"), format!("'{cmd}'")];
        assert_refused(2, &format!("{cmd}-{key}"), &args, &[&names[0], &names[1]]);
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
        &["calibrate"],
        &["chaos", "n=64", "p=4"],
        &["analyze", "t.json"],
        &["analyze", "--wire=w.json"],
        &[
            "analyze",
            "t.json",
            "--baseline=b.json",
            "--roofline-baseline=r.json",
        ],
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
    // `boundary=periodic` wraps the window: the options the bundle
    // recorded must reproduce its schedule, and a changed one must not.
    let dir = std::env::temp_dir().join("ca_nbody_cli_one_grammar_test");
    let flags = [
        "method=ca-cutoff-1d",
        "law=lj",
        "n=256",
        "p=8",
        "c=2",
        "steps=2",
    ];
    let run = traced(
        &dir,
        "run.json",
        &[&flags[..], &["boundary=periodic"]].concat(),
    );

    let stdout = succeeded(&analyzed(&run, &[]));
    assert!(stdout.contains("verdict: PASS"), "{stdout}");
    assert!(
        stdout.contains("(periodic)") && stdout.contains("cutoff=2.5"),
        "{stdout}"
    );

    let walled = edited(
        &run,
        "walled.json",
        "boundary=periodic",
        "boundary=reflective",
    );
    let out = analyzed(&walled, &[]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains("verdict: FAIL"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}
