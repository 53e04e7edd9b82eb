//! The built binaries, driven the way `run.sh` drives them.

use std::process::Command;

use nbody_benchmark::endtoend::END_TO_END;
use nbody_benchmark::traced::PER_LAYER;
use nbody_trace::json::Json;

/// Run `exe` with `args`; returns (exit ok, stdout).
fn run(exe: &str, args: &[&str]) -> (bool, String) {
    let out = Command::new(exe).args(args).output().expect("binary runs");
    (
        out.status.success(),
        String::from_utf8(out.stdout).expect("utf-8 output"),
    )
}

/// The JSON result lines of a run (one per workload).
fn results(stdout: &str) -> Vec<Json> {
    stdout
        .lines()
        .filter(|l| l.starts_with('{'))
        .map(|l| Json::parse(l).expect("result line parses"))
        .collect()
}

fn metric(result: &Json, name: &str) -> f64 {
    let m = result.get("metrics").and_then(|m| m.get(name));
    m.and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("no {name}"))
}

#[test]
fn quick_end_to_end_run_completes_and_reports_every_metric() {
    let (ok, stdout) = run(
        env!("CARGO_BIN_EXE_nbody-benchmark"),
        &["--quick", "--seed", "5"],
    );
    assert!(ok, "{stdout}");
    let results = results(&stdout);
    assert_eq!(results.len(), 4);
    for r in &results {
        assert_eq!(r.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(r.get("failed").and_then(Json::as_f64), Some(0.0));
        for name in END_TO_END {
            assert!(metric(r, name) > 0.0, "{name}");
        }
    }
    assert!(
        stdout.lines().last().unwrap().starts_with('{'),
        "result is the last line"
    );
    assert!(
        stdout.contains("\"nproc\""),
        "the machine's parallelism is on record"
    );
}

#[test]
fn quick_traced_run_completes_and_only_it_counts_allocations() {
    let out = concat!(env!("CARGO_TARGET_TMPDIR"), "/traced-out");
    let (ok, stdout) = run(
        env!("CARGO_BIN_EXE_nbody-benchmark-traced"),
        &[
            "--quick",
            "--trace",
            "1",
            "--workload",
            "allpairs_latency",
            "--out",
            out,
        ],
    );
    assert!(ok, "{stdout}");
    let results = results(&stdout);
    assert_eq!(results.len(), 1);
    for name in PER_LAYER {
        assert!(metric(&results[0], name).is_finite(), "{name}");
    }
    // The counting allocator is this binary's global allocator.
    assert!(metric(&results[0], "alloc.count_per_step") > 0.0);
    let file = std::fs::read_to_string(format!("{out}/trace_allpairs_latency.json")).unwrap();
    assert!(Json::parse(&file).is_ok());
}

#[test]
fn each_binary_refuses_the_other_ones_mode() {
    assert!(
        !run(
            env!("CARGO_BIN_EXE_nbody-benchmark"),
            &["--quick", "--trace", "1"]
        )
        .0
    );
    assert!(!run(env!("CARGO_BIN_EXE_nbody-benchmark-traced"), &["--quick"]).0);
    assert!(
        !run(
            env!("CARGO_BIN_EXE_nbody-benchmark"),
            &["--workload", "nope"]
        )
        .0
    );
}

#[test]
fn quick_selfcheck_prints_a_verdict_per_metric_and_workload() {
    // Tiny runs are too noisy to promise PASS; the report's shape is the test.
    let (_, stdout) = run(
        env!("CARGO_BIN_EXE_nbody-benchmark"),
        &["--quick", "--selfcheck"],
    );
    let verdicts = stdout
        .lines()
        .filter(|l| l.starts_with("PASS") || l.starts_with("FAIL"))
        .count();
    assert_eq!(verdicts, 16, "{stdout}");
    for line in stdout.lines().filter(|l| l.contains("crit_")) {
        assert!(line.starts_with("PASS"), "exact counts repeat: {line}");
    }
}
