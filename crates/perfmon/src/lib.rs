//! # nbody-perfmon
//!
//! Compute-side observability for the reproduction of *"A
//! Communication-Optimal N-Body Algorithm for Direct Interactions"*
//! (IPDPS 2013).
//!
//! The paper (and the `audit` subcommand) bound *communication*; this crate
//! supplies the matching yardstick for *compute*, in the hardware-efficiency
//! style of Harfst et al.'s direct N-body performance analysis: count
//! interactions, convert to FLOPs, and compare against measured machine
//! peaks.
//!
//! * [`calibrate`] — seedable microbenchmarks measuring the machine's
//!   multiply-add peak (GFLOP/s) and stream-style memory bandwidth (GB/s),
//!   persisted to `bench_results/machine_calibration.json` so CI gates
//!   compare against a recorded calibration instead of re-measuring on a
//!   noisy runner.
//! * [`mod@roofline`] — joins the `compute_*` counters a metered run records
//!   (see `ca_nbody::kernel::ComputeMeter`) with a calibration into
//!   per-rank roofline points: achieved GFLOP/s, arithmetic intensity,
//!   and %-of-roofline, with table and JSON renderings and the CI gate.

#![warn(missing_docs)]

pub mod calibrate;
pub mod roofline;

pub use calibrate::{CalibrationConfig, MachineCalibration};
pub use roofline::{
    kernel_compute, roofline, roofline_json, roofline_table, KernelCompute, RooflineGate,
    RooflinePoint, RooflineReport,
};
