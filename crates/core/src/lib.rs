//! # ca-nbody
//!
//! Core algorithms of the reproduction of *“A Communication-Optimal N-Body
//! Algorithm for Direct Interactions”* (Driscoll, Georganas, Koanantakool,
//! Solomonik, Yelick — IPDPS 2013).
//!
//! * [`cutoff`] — Algorithm 2 (1D) and its Fig. 5 generalization (2D),
//!   traversing interaction [`window`]s modulo the cutoff: the one shift
//!   body of the crate, and at `c = 1` Plimpton's spatial decomposition
//!   (§II.C).
//! * [`allpairs`] — Algorithm 1, the CA all-pairs force evaluation on a
//!   `p/c × c` processor grid: the same body on the full team ring, and
//!   with it Plimpton's particle (`c = 1`) and force (`c = √p`)
//!   decompositions; on the half ring at `c = 1`, his Newton's-third-law
//!   half-ring.
//! * [`baselines`] — the allgather ("tree") naive variant.
//! * [`reassign`] — spatial re-assignment between timesteps (§IV.D).
//! * [`grid`], [`dist`], [`kernel`] — the processor grid, particle
//!   distributions, and the shared block force kernel.

#![warn(missing_docs)]

pub mod allpairs;
pub mod autotune;
pub mod baselines;
pub mod cutoff;
pub mod dist;
pub mod grid;
pub mod kernel;
mod link;
pub mod probe;
pub mod reassign;
pub mod recovery;
pub mod schedule;
pub mod sim;
pub mod window;
pub mod wire;

pub use allpairs::ca_all_pairs_forces;
pub use cutoff::{ca_cutoff_forces, CutoffError};
pub use grid::{GridComms, GridError, ProcGrid};
pub use probe::StepProbe;
pub use recovery::{ca_cutoff_forces_ft, FaultError, HealthMonitor, RecoveryReport, RetryPolicy};
pub use sim::{
    run_distributed, run_distributed_chaos, run_plain_rank, run_serial, ChaosRunResult,
    CheckpointConfig, Layout, Method, Run, RunOutput, RunResult, SimConfig,
};
pub use window::{TeamWindow, Window, Window1dPeriodic};
pub use wire::{expected_schedule, WireScheduleSpec};
