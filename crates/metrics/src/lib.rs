//! # nbody-metrics
//!
//! The quantitative half of the observability stack for the reproduction
//! of *“A Communication-Optimal N-Body Algorithm for Direct
//! Interactions”* (IPDPS 2013).
//!
//! Where `nbody-trace` records *when* things happened (wall-clock spans),
//! this crate records *how much* happened — bytes on the wire,
//! message-size distributions, per-rank memory high-water marks — and
//! connects those measurements to the paper's analytic machinery in
//! `nbody-model`:
//!
//! * [`registry`] — a lightweight registry of typed [`Counter`]s,
//!   [`Gauge`]s and fixed-bucket [`Histogram`]s. Like the tracer, a
//!   [`MetricsRecorder`] is either enabled (one shard per rank, merged at
//!   thread join, so the hot path is a plain `Cell` bump with no locks)
//!   or disabled (every method is a single-branch no-op).
//! * [`snapshot`] — the plain-data [`MetricsSnapshot`] an execution
//!   returns: one [`RankMetrics`] per rank plus cross-rank aggregation.
//! * [`export`] — the snapshot's one encoding, a lossless JSON round-trip.
//! * [`mod@audit`] — the optimality audit: measured per-rank latency (S) and
//!   bandwidth (W) costs per phase against the Eq. 2/3 lower bounds
//!   evaluated at the *measured* memory M, and against the Eq. 5 / §IV
//!   predicted costs, with PASS/FAIL verdicts at configurable
//!   constant-factor ceilings.

#![warn(missing_docs)]

pub mod audit;
pub mod export;
pub mod registry;
pub mod snapshot;

pub use audit::{
    audit, audit_json, audit_table, ceilings_from_json, wire_phase_counts, wire_phase_table,
    AuditAlgorithm, AuditConfig, AuditInput, AuditReport, FactorCeilings, PhaseFlow, WirePhaseRow,
};
pub use registry::{
    Counter, Gauge, Histogram, HistogramHandle, MetricsRecorder, RankMetrics, Sample,
    BUCKET_BOUNDS, NUM_BUCKETS,
};
pub use snapshot::MetricsSnapshot;
