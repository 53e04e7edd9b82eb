//! `ca-nbody` — command-line front end of the reproduction.
//!
//! ```text
//! ca-nbody run      [n=1024] [p=8] [c=2] [steps=20] [dt=0.005] [seed=42] [method=ca]
//!                   [law=repulsive|gravity|lj] [cutoff=0.25] [boundary=reflective]
//!                   [temperature=1e-4]
//!                   [--trace=out.json] [--metrics=out.json]
//!                   [--record-timeline=out.json] [--wire-probe=out.json]
//!                   [--faults=SPEC] [fault-timeout-ms=1000]
//!                   [--checkpoint-dir=D] [checkpoint-every=1] [--resume=D]
//!                   [--health] [--health-every=K] [--health-baseline=F]
//! ca-nbody verify   [same options]            distributed-vs-serial check
//! ca-nbody audit    [n=4096] [p=16] [steps=1] [c=N] [cutoff=0]
//!                   [--baseline=bench_results/audit_baseline.json] [--out=F.json]
//!                   [--calibration=F] [--roofline-baseline=F] [--roofline-out=F.json]
//! ca-nbody calibrate [--out=bench_results/machine_calibration.json] [seed=42] [--full]
//! ca-nbody chaos    [n=192] [p=8] [c=2] [steps=1] [method=ca] [seed=42]
//!                   [fault-timeout-ms=250] [--kills=N]
//!                   [--baseline=bench_results/chaos_baseline.json]
//!                   [--metrics=F] [--postmortem=DIR]
//! ca-nbody soak     [n=96] [p=8] [c=2] [steps=2] [method=ca] [seed=42]
//!                   [seconds=30] [events=3] [fault-timeout-ms=250]
//!                   [--postmortem=DIR]   time-boxed randomized chaos
//! ca-nbody analyze  [trace.json] [--metrics=F] [--timeline=F] [--wire=F]
//!                   [--drift-window=16] [--drift-nsigma=6] [c=1] [--json=F]
//!                   the one reader of a recorded run: per-phase and
//!                   per-step tables, critical path, stragglers, heat-map;
//!                   drift and numerical health of a timeline bundle (exit
//!                   1 if UNHEALTHY); channel latencies of a wire log
//! ca-nbody conformance <metrics.json> [run's n, p, c, steps, method, law,
//!                   cutoff, boundary] [--faults=SPEC]
//!                   a run's `--metrics` snapshot, channel by channel,
//!                   against its schedule (exit 1 on FAIL)
//! ```
//!
//! Options take `key=value`, `--key=value`, or `--key value` form. One
//! whose value does not parse, or that the subcommand (given the others)
//! never reads, is a start-up error: a line on stderr naming it, exit 2,
//! nothing run or written; so is a subcommand not in the list above (the
//! usage line, exit 2). Exit 1 is every later failure. `audit`, `chaos`
//! and `soak` take `run`'s grammar with their own defaults; the modules
//! under `cli/` document their subcommands.
//!
//! `run`, `verify`, `audit`, `calibrate`, `chaos`, `soak` and `conformance`
//! end with a single-line JSON summary on stdout for scripted consumption.
//! Each artifact a subcommand writes has one encoding, JSON: `--trace`,
//! `--metrics`, `--out` and `--roofline-out` refuse a `csv` or `prom`
//! extension.

use std::process::ExitCode;

use nbody_comm::validate_env;

mod cli;
use cli::{audit, chaos, inspect, run, Command, Failure, Opts};

const COMMANDS: [(&str, Command); 8] = [
    ("run", |opts, _| run::execute(opts, false)),
    ("verify", |opts, _| run::execute(opts, true)),
    ("audit", audit::audit),
    ("calibrate", audit::calibrate),
    ("chaos", chaos::chaos),
    ("soak", chaos::soak),
    ("analyze", inspect::analyze),
    ("conformance", inspect::conformance),
];

const USAGE: &str = "usage: ca-nbody <run|verify|audit|calibrate|chaos|soak|analyze|\
     conformance> \
     [key=value ...] \
     [--trace=F] [--metrics=F] [--record-timeline=F] [--wire-probe=F] \
     [--faults=SPEC] [--checkpoint-dir=D] [--resume=D] \
     [--health] [--health-every=K] [--health-baseline=F]\n\
     conformance <metrics.json> [run's options] [--faults=SPEC] checks a run's --metrics snapshot\n\
     an option that is malformed, or that the subcommand does not read, is an error (exit 2)\n\
     see `src/main.rs` header or README.md for the option list";

fn dispatch(args: &[String]) -> Result<ExitCode, Failure> {
    // A malformed NBODY_RECV_TIMEOUT_SECS is a startup error, not a silent
    // fallback discovered mid-run inside a worker thread.
    validate_env().map_err(Failure::startup)?;
    let cmd = args.first().map(String::as_str);
    let (name, command) = COMMANDS
        .iter()
        .find(|(name, _)| Some(*name) == cmd)
        .ok_or_else(|| Failure::startup(USAGE))?;
    let (mut opts, positional) = Opts::parse(name, &args[1..]);
    command(&mut opts, &positional)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    dispatch(&args).unwrap_or_else(|failure| {
        eprintln!("{}", failure.message);
        ExitCode::from(failure.code)
    })
}
