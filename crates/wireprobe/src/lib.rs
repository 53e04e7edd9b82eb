//! Wire-level transport observability for the CA N-body communicators.
//!
//! Every `Communicator` backend records a [`MsgEvent`] per point-to-point
//! send/recv (and per injected fault) into a bounded per-rank
//! [`ProbeRecorder`] ring. Drained rings form a [`WireLog`], which feeds:
//!
//! * [`match_events`] — joins send→recv pairs per channel into latency
//!   summaries, in-flight gauges, and drop accounting ([`WireReport`]);
//! * [`check_conformance`] — diffs observed traffic against the expected
//!   per-step message multiset derived from the CA schedule, attributing
//!   discrepancies to injected faults ([`ConformanceReport`]).
//!
//! The crate is transport-agnostic: `ThreadComm`, `ChaosComm`,
//! and any future process/TCP backend emit the same probe stream, so the
//! conformance checker doubles as an acceptance harness for new backends.

#![warn(missing_docs)]

mod conformance;
mod event;
mod log;
mod matching;
mod recorder;

pub use conformance::{
    check_conformance, ConformanceReport, ExpectedMsg, ExpectedSchedule, FaultNote, Violation,
    ViolationKind,
};
pub use event::{MsgEvent, ProbeKind, ALL_PROBE_KINDS};
pub use log::{RankWireLog, WireLog, WIRE_SCHEMA};
pub use matching::{causal_log, match_events, ChannelStats, LatencySummary, WireReport};
pub use recorder::{ProbeRecorder, DEFAULT_PROBE_CAP};
