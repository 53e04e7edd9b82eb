//! Command line of both harness binaries.

use std::path::PathBuf;

use crate::endtoend::Budget;
use crate::workload::{all, Workload};

/// Usage text.
pub const USAGE: &str = "\
usage: nbody-benchmark[-traced] [--workload NAME] [--seed N] [--seconds S] [--reps N]
                                [--trace 0|1] [--quick] [--selfcheck] [--out DIR]
  --workload NAME  one of allpairs_compute, allpairs_latency, cutoff1d_lj_periodic,
                   allpairs_ft_clean (default: all four)
  --seed N         seed of the generated inputs (default 42)
  --seconds S      seconds of measured repetitions per workload (default 20)
  --reps N         a fixed repetition count instead of --seconds
  --trace 0|1      0: end-to-end metrics (nbody-benchmark);
                   1: per-layer metrics from the traced run (nbody-benchmark-traced)
  --quick          tiny sizes, 2 repetitions: smoke use only, never a baseline
  --selfcheck      run the end-to-end set twice, PASS/FAIL per metric and workload
  --out DIR        where the traced run writes trace_<workload>.json";

/// Parsed arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// The workloads to run, at the selected size.
    pub workloads: Vec<Workload>,
    /// Input seed.
    pub seed: u64,
    /// Measuring budget per workload.
    pub budget: Budget,
    /// Whether the traced run was asked for.
    pub trace: bool,
    /// Whether to run the end-to-end set twice and compare.
    pub selfcheck: bool,
    /// Directory for trace files.
    pub out_dir: PathBuf,
}

fn value<T: std::str::FromStr>(flag: &str, raw: Option<String>) -> Result<T, String> {
    let raw = raw.ok_or_else(|| format!("{flag} needs a value"))?;
    raw.parse()
        .map_err(|_| format!("{flag}: cannot read `{raw}`"))
}

/// Parse the arguments after the program name.
pub fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut name: Option<String> = None;
    let mut seed = 42u64;
    let mut seconds = 20.0f64;
    let mut reps: Option<usize> = None;
    let (mut quick, mut trace, mut selfcheck) = (false, false, false);
    let mut out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--workload" => name = Some(value(&flag, argv.next())?),
            "--seed" => seed = value(&flag, argv.next())?,
            "--seconds" => seconds = value(&flag, argv.next())?,
            "--reps" => reps = Some(value(&flag, argv.next())?),
            "--trace" => {
                trace = match value::<u8>(&flag, argv.next())? {
                    0 => false,
                    1 => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--quick" => quick = true,
            "--selfcheck" => selfcheck = true,
            "--out" => out_dir = PathBuf::from(value::<String>(&flag, argv.next())?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err(format!(
            "--seconds must be a non-negative number, not {seconds}"
        ));
    }
    if reps == Some(0) {
        return Err("--reps must be at least 1".to_string());
    }
    let mut workloads = all(quick);
    if let Some(name) = name {
        workloads.retain(|w| w.name == name);
        if workloads.is_empty() {
            return Err(format!("no workload called `{name}`"));
        }
    }
    Ok(Args {
        workloads,
        seed,
        budget: Budget {
            seconds,
            reps: reps.or(quick.then_some(2)),
        },
        trace,
        selfcheck,
        out_dir,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_str(s: &str) -> Result<Args, String> {
        parse(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn contract_arguments_parse() {
        let a = parse_str("--workload allpairs_latency --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(a.workloads.len(), 1);
        assert_eq!(a.workloads[0].steps, 10_000);
        assert_eq!(
            (a.seed, a.budget.seconds, a.budget.reps, a.trace),
            (7, 3.0, None, true)
        );
        let q = parse_str("--quick").unwrap();
        assert_eq!(
            (q.workloads.len(), q.budget.reps, q.trace),
            (4, Some(2), false)
        );
    }

    #[test]
    fn bad_arguments_are_refused() {
        for bad in [
            "--workload nope",
            "--seed x",
            "--seed",
            "--trace 2",
            "--reps 0",
            "--seconds -1",
            "--frobnicate",
        ] {
            assert!(parse_str(bad).is_err(), "{bad}");
        }
    }
}
