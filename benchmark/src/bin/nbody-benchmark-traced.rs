//! The traced benchmark binary: per-layer metrics from the mirrored loop
//! under `SpanComm`, the counting force law and the direct microbenchmarks.
//! The counting allocator exists in this binary only.

use std::process::ExitCode;

use nbody_benchmark::alloc_count::CountingAlloc;
use nbody_benchmark::cli::{parse, USAGE};
use nbody_benchmark::report::{result_line, table};
use nbody_benchmark::traced::{measure, trace_file, PER_LAYER};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) if a.trace && !a.selfcheck => a,
        Ok(_) => {
            eprintln!("this binary serves --trace 1 only; use nbody-benchmark for the rest");
            return ExitCode::from(2);
        }
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("cannot create {}: {e}", args.out_dir.display());
        return ExitCode::FAILURE;
    }
    let mut all_correct = true;
    for w in &args.workloads {
        let run = measure(w, args.seed, args.budget);
        let path = args.out_dir.join(format!("trace_{}.json", w.name));
        if let Err(e) = std::fs::write(&path, trace_file(w, args.seed, &run)) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        print!(
            "{}",
            table(w, args.seed, "per-layer (traced)", &run.outcome)
        );
        println!("# spans: {}", path.display());
        println!("{}", result_line(&run.outcome, &PER_LAYER));
        all_correct &= run.outcome.correct();
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
