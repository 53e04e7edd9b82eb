//! # nbody-netsim
//!
//! A discrete-event cluster simulator for the reproduction of
//! *“A Communication-Optimal N-Body Algorithm for Direct Interactions”*
//! (IPDPS 2013).
//!
//! The paper's evaluation ran on 24,576 cores of Hopper (Cray XE-6) and
//! 32,768 cores of Intrepid (IBM BlueGene/P) — hardware this reproduction
//! substitutes with simulation: each algorithm in `ca-nbody` emits its exact
//! per-rank communication schedule (verified against instrumented
//! executions), and this crate replays that schedule against a calibrated
//! machine cost model with a 3D torus topology, software tree collectives
//! with a saturation term, BlueGene/P's hardware collective network, and
//! the DCMF bidirectional broadcast-shift optimization. The result is the
//! per-phase time breakdown the paper's figures plot.

#![warn(missing_docs)]

pub mod des;
pub mod fasthash;
pub mod machine;
pub mod op;
pub mod report;
pub mod topology;

pub use des::simulate;
pub use machine::{hopper, intrepid, test_machine, Machine, TreeNetwork};
pub use op::{CollNet, Op, TeamSpec};
pub use report::{RankBreakdown, SimReport};
pub use topology::Torus;
