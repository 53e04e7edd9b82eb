//! The untraced benchmark binary: end-to-end metrics only. Nothing in this
//! process wraps the communicator or counts allocations.

use std::process::ExitCode;

use nbody_benchmark::cli::{parse, USAGE};
use nbody_benchmark::endtoend::{measure, selfcheck, END_TO_END};
use nbody_benchmark::report::{result_line, table};

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) if !a.trace => a,
        Ok(_) => {
            eprintln!("--trace 1 is served by nbody-benchmark-traced (benchmark/run.sh picks it)");
            return ExitCode::from(2);
        }
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.selfcheck {
        let (report, pass) = selfcheck(&args.workloads, args.seed, args.budget);
        print!("{report}");
        return if pass {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let mut all_correct = true;
    for w in &args.workloads {
        let outcome = measure(w, args.seed, args.budget);
        print!("{}", table(w, args.seed, "end-to-end (untraced)", &outcome));
        println!("{}", result_line(&outcome, &END_TO_END));
        all_correct &= outcome.correct();
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
