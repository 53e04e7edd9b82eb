//! `ca-nbody` — command-line front end of the reproduction.
//!
//! ```text
//! ca-nbody run      [n=1024] [p=8] [c=2] [steps=20] [dt=0.005] [seed=42] [method=ca]
//!                   [law=repulsive|gravity|lj] [cutoff=0.25] [boundary=reflective]
//!                   [temperature=1e-4]
//!                   [--trace=run.json] [--wire-probe=out.json]
//!                   [--faults=SPEC] [fault-timeout-ms=1000]
//!                   [--checkpoint-dir=D] [checkpoint-every=1] [--resume=D]
//!                   [--health] [--health-every=K] [--health-baseline=F]
//! ca-nbody verify   [same options]            distributed-vs-serial check
//! ca-nbody calibrate [--out=bench_results/machine_calibration.json] [seed=42] [--full]
//! ca-nbody chaos    [n=192] [p=8] [c=2] [steps=1] [method=ca] [seed=42]
//!                   [fault-timeout-ms=250] [--kills=N] [seconds=0]
//!                   [--baseline=bench_results/chaos_baseline.json]
//!                   [--postmortem=DIR]   fixed fault passes, then seeded
//!                   random plans for `seconds`; every schedule that
//!                   finishes is held to its schedule twin
//! ca-nbody analyze  [run.json] [--wire=F]
//!                   [--drift-window=16] [--drift-nsigma=6] [--json=F]
//!                   [--baseline=F] [--calibration=F] [--roofline-baseline=F]
//!                   the one reader of a run bundle: per-phase and
//!                   per-step tables, critical path, stragglers, heat-map,
//!                   drift, numerical health, the ledger against the
//!                   schedule, S/W against the bounds and the roofline
//!                   (exit 1 if UNHEALTHY, FAIL, over a ceiling or under
//!                   a floor); channel latencies of a wire log
//! ```
//!
//! Options take `key=value`, `--key=value`, or `--key value` form. One
//! whose value does not parse, or that the subcommand (given the others)
//! never reads, is a start-up error: a line on stderr naming it, exit 2,
//! nothing run or written; so is a subcommand not in the list above (the
//! usage line, exit 2). Exit 1 is every later failure. `chaos` and `soak`
//! take `run`'s grammar with their own defaults; the modules under `cli/`
//! document their subcommands.
//!
//! Every subcommand ends with a single-line JSON summary on stdout for
//! scripted consumption (`analyze` when it read a bundle). One run writes
//! one file: `--trace` is the run bundle (a Chrome trace object carrying
//! the run's spec, fault plan, shrinks, metrics and timeline), the only
//! input `analyze` needs. Each artifact a subcommand writes has one
//! encoding, JSON: `--trace`, `--json` and `calibrate --out` write it, and
//! the first two refuse a `csv` or `prom` extension.

use std::process::ExitCode;

use nbody_comm::validate_env;

mod cli;
use cli::{calibrate, chaos, inspect, run, Command, Failure, Opts};

const COMMANDS: [(&str, Command); 5] = [
    ("run", |opts, _| run::execute(opts, false)),
    ("verify", |opts, _| run::execute(opts, true)),
    ("calibrate", calibrate::calibrate),
    ("chaos", chaos::chaos),
    ("analyze", inspect::analyze),
];

const USAGE: &str = "usage: ca-nbody <run|verify|calibrate|chaos|analyze> \
     [key=value ...] \
     [--trace=F] [--wire-probe=F] \
     [--faults=SPEC] [--checkpoint-dir=D] [--resume=D] \
     [--health] [--health-every=K] [--health-baseline=F]\n\
     analyze <bundle> reads the run bundle --trace wrote and gives its verdicts\n\
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
