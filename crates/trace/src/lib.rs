//! # nbody-trace
//!
//! Per-rank wall-clock tracing for *real* (threaded) executions of the
//! reproduction of *“A Communication-Optimal N-Body Algorithm for Direct
//! Interactions”* (IPDPS 2013).
//!
//! The discrete-event simulator (`nbody-netsim`) has always produced
//! per-phase virtual timelines; this crate provides the measured
//! counterpart. Each rank thread records [`Span`]s against a shared
//! monotonic epoch:
//!
//! * **phase windows** — contiguous intervals tiling the rank's timeline,
//!   one per [`Phase`] transition (driven by `Communicator::set_phase`),
//!   so per-phase wall times sum to the rank's total wall time;
//! * **blocked intervals** — time spent waiting inside a receive,
//!   attributed to the phase in effect;
//! * **driver spans** — per-timestep `integrate` / `force` / `reassign`
//!   sections emitted by the simulation driver, tagged with the step index.
//!
//! Recording is *zero-cost when disabled*: a [`Tracer`] is an `Option`
//! internally, and every recording method is a no-op branch on the
//! disabled handle (verified by the `allpairs_step` bench).
//!
//! Per-rank buffers are merged at join into an [`ExecutionTrace`], whose
//! one encoding is Chrome `trace_event` JSON
//! ([`ExecutionTrace::to_chrome_json`]): loadable in Perfetto /
//! `chrome://tracing`, and read back by [`ExecutionTrace::parse`].
//!
//! The [`schema`] module defines the stacked-bar breakdown CSV of
//! `bench_results/fig*.csv`, and [`json`] is the dependency-free JSON
//! parser/printer every artifact of the workspace is written and read with.

#![warn(missing_docs)]

pub mod exec;
pub mod json;
pub mod phase;
pub mod schema;
pub mod span;
pub mod tracer;

pub use exec::{DistStat, ExecutionTrace, PhaseBreakdown, StepReport};
pub use json::Json;
pub use phase::{Phase, ALL_PHASES, PHASE_COUNT};
pub use span::{Span, SpanKind};
pub use tracer::{SpanGuard, Tracer};
