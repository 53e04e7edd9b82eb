//! The repo benchmark: four CA N-body workloads measured end to end
//! (`step_s`, `setup_s`, critical-path messages and bytes per step) and, in
//! a separate traced run, layer by layer. See `README.md`.

#![warn(missing_docs)]

pub mod alloc_count;
pub mod cli;
pub mod endtoend;
pub mod micro;
pub mod mirror;
pub mod report;
pub mod spancomm;
pub mod spans;
pub mod stats;
pub mod traced;
pub mod workload;
