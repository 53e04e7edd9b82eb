//! Per-step timeline telemetry and an always-on flight recorder.
//!
//! Every other lens in the workspace (trace spans, metric counters, bound
//! audits, critical-path blame) reports whole-run aggregates. This crate
//! adds the *temporal* axis: how a run evolves step by step, and what the
//! last moments before a failure looked like.
//!
//! Three pieces:
//!
//! * [`StepSeries`] — a fixed-capacity per-rank store of [`StepSample`]
//!   metric deltas (bytes, waits, compute flops/nanos, particles held)
//!   taken at step boundaries. When the store fills it decimates 2:1 and
//!   doubles its sampling stride, so a bounded buffer always covers the
//!   whole run at uniform (if coarsening) resolution.
//! * [`TimelineRecorder`] / [`FlightEvent`] — an always-on, bounded
//!   per-rank ring of recent step marks plus structured events
//!   (checkpoint, fault injected, recovery attempt, resync, retry
//!   exhausted). When a run degrades to `Unrecoverable` or exhausts its
//!   retries, the rings go into the run bundle as its *postmortem*
//!   ([`RunTimeline`] with a failure reason) for offline inspection.
//! * [`detect_drift`] — a rolling median/MAD detector over the step
//!   series that flags sustained shifts in load imbalance or
//!   communication fraction: the runtime sensor adaptive re-tuning
//!   (the ROADMAP's parked "online autotuning of `c`") closes its loop on.

#![warn(missing_docs)]

mod bundle;
mod drift;
mod flight;
mod series;

pub use bundle::{MetricSeries, RankTimeline, RunTimeline};
pub use drift::{detect_drift, DriftConfig, DriftWindow};
pub use flight::{EventKind, FlightEvent, TimelineRecorder, DEFAULT_EVENT_CAP, DEFAULT_SERIES_CAP};
pub use series::{StepSample, StepSeries};
