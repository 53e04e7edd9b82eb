//! Per-rank bounded probe ring, recording message events as they happen.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;
use std::time::Instant;

use nbody_trace::Phase;

use crate::event::{MsgEvent, ProbeKind};
use crate::log::RankWireLog;

/// Default per-rank probe ring capacity. Sized so short runs never evict
/// (a p=4, c=2, 2-step smoke emits well under a hundred events per rank)
/// while long runs stay bounded.
pub const DEFAULT_PROBE_CAP: usize = 4096;

#[derive(Debug)]
struct Inner {
    rank: u32,
    /// Shared across all ranks of a run so send/recv stamps are comparable.
    epoch: Instant,
    events: VecDeque<MsgEvent>,
    event_cap: usize,
    dropped_events: u64,
}

/// A cheap cloneable handle to one rank's probe ring.
///
/// Mirrors the timeline `TimelineRecorder` pattern: a disabled handle is a
/// no-op with near-zero cost, clones share storage (so communicator splits
/// keep recording into the same ring), and [`finish`](ProbeRecorder::finish)
/// drains the ring into a [`RankWireLog`].
#[derive(Debug, Clone)]
pub struct ProbeRecorder {
    inner: Option<Rc<RefCell<Inner>>>,
}

impl ProbeRecorder {
    /// A no-op recorder: every probe call returns immediately.
    pub fn disabled() -> ProbeRecorder {
        ProbeRecorder { inner: None }
    }

    /// A live recorder for `rank` with the default ring capacity. `epoch`
    /// MUST be the same `Instant` for every rank of the run — cross-rank
    /// send→recv latency is the difference of two stamps against it.
    pub fn for_rank(rank: u32, epoch: Instant) -> ProbeRecorder {
        Self::with_capacity(rank, epoch, DEFAULT_PROBE_CAP)
    }

    /// A live recorder with an explicit ring capacity (>= 1).
    pub fn with_capacity(rank: u32, epoch: Instant, event_cap: usize) -> ProbeRecorder {
        assert!(event_cap >= 1, "probe ring capacity must be >= 1");
        ProbeRecorder {
            inner: Some(Rc::new(RefCell::new(Inner {
                rank,
                epoch,
                events: VecDeque::with_capacity(event_cap.min(1024)),
                event_cap,
                dropped_events: 0,
            }))),
        }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Record a payload handed to the transport by this rank.
    pub fn send(&self, dst: u32, comm: u64, tag: u64, phase: Phase, count: u64, bytes: u64) {
        self.record(
            ProbeKind::Send,
            None,
            Some(dst),
            comm,
            tag,
            phase,
            count,
            bytes,
        );
    }

    /// Record a payload taken off the transport by this rank.
    pub fn recv(&self, src: u32, comm: u64, tag: u64, phase: Phase, count: u64, bytes: u64) {
        self.record(
            ProbeKind::Recv,
            Some(src),
            None,
            comm,
            tag,
            phase,
            count,
            bytes,
        );
    }

    #[allow(clippy::too_many_arguments)]
    fn record(
        &self,
        kind: ProbeKind,
        src: Option<u32>,
        dst: Option<u32>,
        comm: u64,
        tag: u64,
        phase: Phase,
        count: u64,
        bytes: u64,
    ) {
        let Some(inner) = &self.inner else { return };
        let mut inner = inner.borrow_mut();
        let t_secs = inner.epoch.elapsed().as_secs_f64();
        let me = inner.rank;
        if inner.events.len() == inner.event_cap {
            inner.events.pop_front();
            inner.dropped_events += 1;
        }
        let event = MsgEvent {
            kind,
            src: src.unwrap_or(me),
            dst: dst.unwrap_or(me),
            comm,
            tag,
            phase,
            count,
            bytes,
            t_secs,
        };
        inner.events.push_back(event);
    }

    /// Drain the ring into a per-rank log. Returns `None` for disabled
    /// handles. Other clones of this recorder see an empty ring afterwards.
    pub fn finish(&self) -> Option<RankWireLog> {
        let inner = self.inner.as_ref()?;
        let mut inner = inner.borrow_mut();
        Some(RankWireLog {
            rank: inner.rank,
            events: std::mem::take(&mut inner.events).into(),
            dropped_events: std::mem::take(&mut inner.dropped_events),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_a_noop() {
        let r = ProbeRecorder::disabled();
        assert!(!r.is_enabled());
        r.send(1, 0, 7, Phase::Shift, 10, 560);
        r.recv(1, 0, 7, Phase::Shift, 10, 560);
        assert!(r.finish().is_none());
    }

    #[test]
    fn probe_ring_is_bounded_and_counts_drops() {
        let r = ProbeRecorder::with_capacity(0, Instant::now(), 4);
        for i in 0..10u64 {
            r.send(1, 0, i, Phase::Shift, 1, 56);
        }
        let log = r.finish().unwrap();
        assert_eq!(log.events.len(), 4);
        assert_eq!(log.dropped_events, 6, "evictions are counted, not silent");
        // Oldest events were evicted; the newest survive in order.
        let tags: Vec<u64> = log.events.iter().map(|e| e.tag).collect();
        assert_eq!(tags, vec![6, 7, 8, 9]);
    }

    #[test]
    fn clones_share_storage_and_finish_drains() {
        let r = ProbeRecorder::for_rank(2, Instant::now());
        let split = r.clone();
        r.send(3, 0, 1, Phase::Skew, 5, 280);
        split.recv(1, 4, 2, Phase::Shift, 6, 336);
        let log = r.finish().unwrap();
        assert_eq!(log.rank, 2);
        assert_eq!(log.events.len(), 2);
        assert_eq!(log.events[0].src, 2, "send fills src with own rank");
        assert_eq!(log.events[1].dst, 2, "recv fills dst with own rank");
        assert_eq!(log.events[1].comm, 4, "split comm id is preserved");
        let drained = split.finish().unwrap();
        assert!(drained.events.is_empty(), "finish drains shared storage");
    }

    #[test]
    fn timestamps_are_monotone_against_the_shared_epoch() {
        let epoch = Instant::now();
        let r = ProbeRecorder::for_rank(0, epoch);
        r.send(1, 0, 1, Phase::Skew, 1, 56);
        r.recv(1, 0, 1, Phase::Skew, 1, 56);
        let log = r.finish().unwrap();
        assert!(log.events[0].t_secs >= 0.0);
        assert!(log.events[1].t_secs >= log.events[0].t_secs);
    }
}
