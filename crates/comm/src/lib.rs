//! # nbody-comm
//!
//! An MPI-like message-passing runtime for the reproduction of
//! *“A Communication-Optimal N-Body Algorithm for Direct Interactions”*
//! (IPDPS 2013).
//!
//! The paper's experiments ran C/MPI codes on Cray XE-6 and BlueGene/P
//! clusters. This crate substitutes a faithful in-process transport: each
//! rank is an OS thread, point-to-point messages and tree collectives have
//! MPI semantics, and communicators can be `split` into the paper's
//! `p/c × c` grids of teams and rows. Every operation is attributed to an
//! execution [`Phase`] so instrumented runs can be compared against the
//! paper's per-phase time breakdowns and against the discrete-event network
//! simulator in `nbody-netsim`.

#![warn(missing_docs)]

pub mod chaos;
pub mod communicator;
pub mod error;
pub mod stats;
pub mod thread_comm;

pub use chaos::{
    run_ranks_chaos, run_ranks_chaos_with, ChaosComm, FaultEvent, FaultKind, FaultPlan,
};
pub use communicator::{sum_combine, CommData, Communicator};
pub use error::CommError;
pub use nbody_metrics::{MetricsRecorder, MetricsSnapshot, RankMetrics};
pub use nbody_timeline::{
    EventKind, FlightEvent, RankTimeline, RunTimeline, StepSample, TimelineRecorder,
};
pub use nbody_trace::{ExecutionTrace, Tracer};
pub use nbody_wireprobe::{
    causal_log, match_events, ChannelStats, LatencySummary, MsgEvent, ProbeKind, ProbeRecorder,
    RankWireLog, WireLog, WireReport, ALL_PROBE_KINDS, WIRE_SCHEMA,
};
pub use stats::{ChannelCounters, CommStats, Phase, PhaseCounters, ALL_PHASES, PHASE_COUNT};
pub use thread_comm::{run_ranks, run_ranks_with, validate_env, Artifacts, Lenses, ThreadComm};
