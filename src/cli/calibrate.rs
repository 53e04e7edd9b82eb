//! `calibrate`: the machine ceilings the roofline uses (packed
//! multiply-add peak, stream bandwidth), measured with seedable
//! microbenchmarks and written as JSON (`--full` for the long, checked-in
//! variant); and the calibration `analyze` judges a bundle's kernel
//! against.

use std::process::ExitCode;

use nbody_perfmon::{CalibrationConfig, MachineCalibration};

use super::artifact::{load_json, named_or_present, write, Summary};
use super::{Failure, Opts};

/// Resolve the machine calibration the roofline uses: an explicit
/// `--calibration` path, else the checked-in default if present, else a
/// quick in-process measurement. The line says which, and its ceilings.
pub fn load_calibration(explicit: Option<String>) -> Result<(MachineCalibration, String), String> {
    const DEFAULT_PATH: &str = "bench_results/machine_calibration.json";
    let (cal, source) = match named_or_present(explicit, DEFAULT_PATH) {
        Some(path) => {
            let cal = load_json(&path, MachineCalibration::from_json)?;
            (cal, format!("calibration from {path}"))
        }
        // No recorded calibration: measure a quick one so the bundle
        // still gets a roofline (noisier than the recorded file).
        None => {
            let cal = MachineCalibration::measure(&CalibrationConfig::quick());
            (cal, format!("no {DEFAULT_PATH}; quick live calibration"))
        }
    };
    let line = format!(
        "{source}: peak {:.2} GFLOP/s, bandwidth {:.2} GB/s\n",
        cal.peak_gflops, cal.mem_bw_gbytes
    );
    Ok((cal, line))
}

/// `calibrate`: run the machine microbenchmarks and persist the ceilings.
pub fn calibrate(opts: &mut Opts, _: &[String]) -> Result<ExitCode, Failure> {
    let full = opts.get("full", false)?;
    let mut cfg = if full {
        CalibrationConfig::full()
    } else {
        CalibrationConfig::quick()
    };
    cfg.seed = opts.get("seed", cfg.seed)?;
    let out_path: Option<String> = opts.opt("out")?;
    opts.finish()?;
    println!(
        "calibrating ({}): {} multiply-add iters x {} lanes, {} MiB stream, best of {}",
        if full { "full" } else { "quick" },
        cfg.fma_iters,
        nbody_perfmon::calibrate::LANES,
        cfg.stream_mib,
        cfg.repeats
    );
    let start = std::time::Instant::now();
    let cal = MachineCalibration::measure(&cfg);
    let elapsed = start.elapsed();
    println!(
        "  multiply-add peak {:.3} GFLOP/s, stream bandwidth {:.3} GB/s ({elapsed:.2?})",
        cal.peak_gflops, cal.mem_bw_gbytes
    );
    if let Some(path) = &out_path {
        write(path, "calibration", &cal.to_json().to_string())?;
        println!("  calibration written to {path}");
    }
    Summary::of("calibrate")
        .put("full", full)
        .put("seed", cfg.seed)
        .put("peak_gflops", cal.peak_gflops)
        .put("mem_bw_gbytes", cal.mem_bw_gbytes)
        .put("elapsed_secs", elapsed.as_secs_f64())
        .print();
    Ok(ExitCode::SUCCESS)
}
