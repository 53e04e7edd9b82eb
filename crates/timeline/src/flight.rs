//! The per-rank timeline recorder: step-sample series + flight ring.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;
use std::time::Instant;

use crate::bundle::RankTimeline;
use crate::series::{StepSample, StepSeries};

/// Default capacity of the per-rank step-sample series.
pub const DEFAULT_SERIES_CAP: usize = 1024;
/// Default capacity of the per-rank flight-event ring.
pub const DEFAULT_EVENT_CAP: usize = 256;

/// Kinds of structured flight-recorder events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A timestep boundary (the "recent spans" ring of the recorder).
    Step,
    /// The recovery layer checkpointed rank state before a force attempt.
    Checkpoint,
    /// A chaos wrapper injected a fault on this rank.
    FaultInjected,
    /// The recovery loop started (or classified) a force-evaluation attempt.
    RecoveryAttempt,
    /// Rank state was resynchronized from a surviving replica.
    Resync,
    /// The retry budget was exhausted; the run is giving up.
    RetryExhausted,
    /// The run degraded to an unrecoverable failure.
    Unrecoverable,
    /// A durable checkpoint bundle was written to disk.
    CheckpointPersisted,
    /// The run was restored from a durable checkpoint bundle.
    Resume,
    /// Survivors agreed to shrink the world after a column lost every replica.
    WorldShrunk,
    /// A health sentinel caught a NaN/Inf in simulation state; the detail
    /// carries the blamed (phase, particle index, field).
    NonFinite,
    /// A rank's recovery checkpoint failed its fingerprint digest.
    ReplicaMismatch,
}

/// Labels for every event kind, in declaration order.
pub(crate) const ALL_EVENT_KINDS: [EventKind; 12] = [
    EventKind::Step,
    EventKind::Checkpoint,
    EventKind::FaultInjected,
    EventKind::RecoveryAttempt,
    EventKind::Resync,
    EventKind::RetryExhausted,
    EventKind::Unrecoverable,
    EventKind::CheckpointPersisted,
    EventKind::Resume,
    EventKind::WorldShrunk,
    EventKind::NonFinite,
    EventKind::ReplicaMismatch,
];

impl EventKind {
    /// Stable label used in postmortem bundles.
    pub fn label(&self) -> &'static str {
        match self {
            EventKind::Step => "step",
            EventKind::Checkpoint => "checkpoint",
            EventKind::FaultInjected => "fault_injected",
            EventKind::RecoveryAttempt => "recovery_attempt",
            EventKind::Resync => "resync",
            EventKind::RetryExhausted => "retry_exhausted",
            EventKind::Unrecoverable => "unrecoverable",
            EventKind::CheckpointPersisted => "checkpoint_persisted",
            EventKind::Resume => "resume",
            EventKind::WorldShrunk => "world_shrunk",
            EventKind::NonFinite => "non_finite",
            EventKind::ReplicaMismatch => "replica_mismatch",
        }
    }

    /// Inverse of [`label`](EventKind::label).
    pub fn from_label(label: &str) -> Option<EventKind> {
        ALL_EVENT_KINDS.into_iter().find(|k| k.label() == label)
    }
}

/// One entry in a rank's bounded flight ring.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightEvent {
    /// Seconds since the run epoch.
    pub t_secs: f64,
    /// What happened.
    pub kind: EventKind,
    /// The pipeline/timestep the event is attributed to, when known.
    pub step: Option<u64>,
    /// Free-form context (attempt number, peer rank, byte counts, ...).
    pub detail: String,
}

#[derive(Debug)]
struct Inner {
    rank: u32,
    epoch: Instant,
    sample_steps: bool,
    series: StepSeries,
    events: VecDeque<FlightEvent>,
    event_cap: usize,
    dropped_events: u64,
    failure: Option<String>,
}

/// Shared per-rank handle to the step series and flight ring.
///
/// Mirrors the `Tracer` / `MetricsRecorder` pattern: cheap to clone (the
/// clones share storage, so `split` communicators keep recording against
/// the same rank), and a no-op when disabled. The flight ring is meant to
/// be *always on* — both rings are bounded, so an arbitrarily long run
/// holds a fixed amount of telemetry.
#[derive(Debug, Clone, Default)]
pub struct TimelineRecorder {
    inner: Option<Rc<RefCell<Inner>>>,
}

impl TimelineRecorder {
    /// A recorder that ignores everything (serial paths, tests).
    pub fn disabled() -> TimelineRecorder {
        TimelineRecorder { inner: None }
    }

    /// A live recorder for `rank`, stamping time against `epoch` (the same
    /// `Instant` for every rank of the run, so events of different ranks
    /// order). The flight ring is always kept; the step series only when
    /// `sample_steps` (instrumented runs).
    pub fn for_rank(rank: u32, epoch: Instant, sample_steps: bool) -> TimelineRecorder {
        TimelineRecorder {
            inner: Some(Rc::new(RefCell::new(Inner {
                rank,
                sample_steps,
                epoch,
                series: StepSeries::new(DEFAULT_SERIES_CAP),
                events: VecDeque::new(),
                event_cap: DEFAULT_EVENT_CAP,
                dropped_events: 0,
                failure: None,
            }))),
        }
    }

    /// Whether this handle records anything at all.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Whether step samples are being collected (vs. flight ring only).
    pub fn wants_samples(&self) -> bool {
        self.inner.as_ref().is_some_and(|i| i.borrow().sample_steps)
    }

    /// Seconds since the run epoch (0.0 when disabled).
    pub fn now_secs(&self) -> f64 {
        match &self.inner {
            Some(i) => i.borrow().epoch.elapsed().as_secs_f64(),
            None => 0.0,
        }
    }

    /// Offer a step sample to the series (ignored unless
    /// [`wants_samples`](TimelineRecorder::wants_samples)).
    pub fn push_sample(&self, s: StepSample) {
        if let Some(i) = &self.inner {
            let mut inner = i.borrow_mut();
            if inner.sample_steps {
                inner.series.push(s);
            }
        }
    }

    /// Record a structured event into the bounded flight ring.
    pub fn event(&self, kind: EventKind, step: Option<u64>, detail: &str) {
        if let Some(i) = &self.inner {
            let mut inner = i.borrow_mut();
            let t_secs = inner.epoch.elapsed().as_secs_f64();
            if inner.events.len() == inner.event_cap {
                inner.events.pop_front();
                inner.dropped_events += 1;
            }
            inner.events.push_back(FlightEvent {
                t_secs,
                kind,
                step,
                detail: detail.to_string(),
            });
        }
    }

    /// Mark a timestep boundary in the flight ring (the cheap, always-on
    /// "recent spans" record; carries no detail string).
    pub fn step_mark(&self, step: u64) {
        if let Some(i) = &self.inner {
            let mut inner = i.borrow_mut();
            let t_secs = inner.epoch.elapsed().as_secs_f64();
            if inner.events.len() == inner.event_cap {
                inner.events.pop_front();
                inner.dropped_events += 1;
            }
            inner.events.push_back(FlightEvent {
                t_secs,
                kind: EventKind::Step,
                step: Some(step),
                detail: String::new(),
            });
        }
    }

    /// Record the terminal failure reason for this rank (makes the run's
    /// drained timeline a postmortem bundle).
    pub fn mark_failure(&self, reason: &str) {
        if let Some(i) = &self.inner {
            let mut inner = i.borrow_mut();
            if inner.failure.is_none() {
                inner.failure = Some(reason.to_string());
            }
        }
    }

    /// Drain the recorder into a per-rank timeline. Returns `None` when
    /// disabled. The recorder is left empty but usable.
    pub fn finish(&self) -> Option<RankTimeline> {
        let i = self.inner.as_ref()?;
        let mut inner = i.borrow_mut();
        let cap = inner.series.capacity();
        let series = std::mem::replace(&mut inner.series, StepSeries::new(cap));
        let (stride, samples) = series.into_parts();
        Some(RankTimeline {
            rank: inner.rank,
            stride,
            samples,
            events: std::mem::take(&mut inner.events).into(),
            dropped_events: std::mem::take(&mut inner.dropped_events),
            failure: inner.failure.take(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_a_noop() {
        let tl = TimelineRecorder::disabled();
        assert!(!tl.is_enabled());
        assert!(!tl.wants_samples());
        tl.push_sample(StepSample::default());
        tl.event(EventKind::Checkpoint, Some(1), "x");
        tl.step_mark(2);
        assert!(tl.finish().is_none());
    }

    #[test]
    fn flight_ring_is_bounded_and_drops_oldest() {
        let tl = TimelineRecorder::for_rank(0, Instant::now(), false);
        assert!(tl.is_enabled());
        assert!(!tl.wants_samples(), "plain runs keep only the flight ring");
        for step in 0..(DEFAULT_EVENT_CAP as u64 + 10) {
            tl.step_mark(step);
        }
        let rt = tl.finish().unwrap();
        assert_eq!(rt.events.len(), DEFAULT_EVENT_CAP);
        assert_eq!(rt.dropped_events, 10);
        assert_eq!(rt.events[0].step, Some(10), "oldest entries were evicted");
        assert!(rt.samples.is_empty(), "no series without sampling");
    }

    #[test]
    fn clones_share_storage_and_finish_drains() {
        let tl = TimelineRecorder::for_rank(3, Instant::now(), true);
        let clone = tl.clone();
        clone.event(EventKind::Resync, Some(4), "replica 1");
        tl.push_sample(StepSample {
            step: 0,
            particles: 42,
            ..StepSample::default()
        });
        clone.mark_failure("unrecoverable: rank 3");
        let rt = tl.finish().unwrap();
        assert_eq!(rt.rank, 3);
        assert_eq!(rt.events.len(), 1);
        assert_eq!(rt.events[0].kind, EventKind::Resync);
        assert_eq!(rt.samples.len(), 1);
        assert_eq!(rt.failure.as_deref(), Some("unrecoverable: rank 3"));
        // Drained: a second finish is empty.
        let again = tl.finish().unwrap();
        assert!(again.events.is_empty());
        assert!(again.samples.is_empty());
        assert!(again.failure.is_none());
    }

    #[test]
    fn event_kind_labels_round_trip() {
        for k in ALL_EVENT_KINDS {
            assert_eq!(EventKind::from_label(k.label()), Some(k));
        }
        assert_eq!(EventKind::from_label("nonsense"), None);
    }
}
