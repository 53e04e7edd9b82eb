//! Wire-level transport observability for the CA N-body communicators.
//!
//! Every `Communicator` backend records a [`MsgEvent`] per point-to-point
//! send/recv into a bounded per-rank [`ProbeRecorder`] ring. Drained rings
//! form a [`WireLog`], which [`match_events`] joins into send→recv pairs
//! per channel: latency summaries, in-flight gauges, and drop accounting
//! ([`WireReport`]). What was sent on each channel, and whether that is
//! the schedule, is the rank's `CommStats` ledger's to say, not the ring's.

#![warn(missing_docs)]

mod event;
mod log;
mod matching;
mod recorder;

pub use event::{MsgEvent, ProbeKind, ALL_PROBE_KINDS};
pub use log::{RankWireLog, WireLog, WIRE_SCHEMA};
pub use matching::{causal_log, match_events, ChannelStats, LatencySummary, WireReport};
pub use recorder::{ProbeRecorder, DEFAULT_PROBE_CAP};
