//! The recorded span: one interval of one rank's wall-clock timeline.

use crate::phase::Phase;

/// What a [`Span`] measured.
#[derive(Debug, Clone, PartialEq)]
pub enum SpanKind {
    /// A contiguous window during which the rank's communicator was set to
    /// this phase. Phase windows tile the rank's timeline, so their
    /// durations sum to the rank's total traced wall time.
    Phase(Phase),
    /// Time spent blocked inside a receive, attributed to the phase in
    /// effect when the wait began. Blocked intervals overlap the enclosing
    /// phase window (they are a *refinement*, not an additional tile).
    Blocked {
        /// Phase in effect when the wait began.
        phase: Phase,
        /// Global rank of the sender whose message was waited for — the
        /// straggler the wait is attributed to. `None` when the transport
        /// does not know the source (e.g. synthetic traces).
        peer: Option<u32>,
        /// Pipeline step of the force evaluation during which the wait
        /// happened (0 = skew, `s` = shift step `s`), as announced by the
        /// CA drivers via [`Tracer::set_step`](crate::Tracer::set_step).
        /// `None` outside the skew/shift pipeline.
        step: Option<u32>,
    },
    /// A section emitted by the simulation driver (`integrate`, `force`,
    /// `reassign`, or the whole `step`), tagged with the timestep index.
    Driver {
        /// Section name.
        name: String,
        /// Zero-based timestep index.
        step: u32,
    },
}

impl SpanKind {
    /// Short label for CSV/JSON export (`phase`, `blocked`, or the driver
    /// section name).
    pub fn label(&self) -> &str {
        match self {
            SpanKind::Phase(_) => "phase",
            SpanKind::Blocked { .. } => "blocked",
            SpanKind::Driver { name, .. } => name,
        }
    }

    /// The phase this span is attributed to, if any.
    pub fn phase(&self) -> Option<Phase> {
        match self {
            SpanKind::Phase(p) => Some(*p),
            SpanKind::Blocked { phase, .. } => Some(*phase),
            SpanKind::Driver { .. } => None,
        }
    }

    /// A blocked interval attributed to `phase`, with no peer or pipeline
    /// step recorded. Shorthand for tests and synthetic traces.
    pub fn blocked(phase: Phase) -> SpanKind {
        SpanKind::Blocked {
            phase,
            peer: None,
            step: None,
        }
    }
}

/// One recorded interval of one rank's timeline. Times are seconds since
/// the execution's shared monotonic epoch (taken just before the ranks
/// start).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// World rank that recorded the span.
    pub rank: u32,
    /// What was measured.
    pub kind: SpanKind,
    /// Seconds since the epoch at which the interval began.
    pub start: f64,
    /// Seconds since the epoch at which the interval ended.
    pub end: f64,
}

impl Span {
    /// Interval length in seconds.
    #[inline]
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_labels_and_phases() {
        assert_eq!(SpanKind::Phase(Phase::Shift).label(), "phase");
        assert_eq!(SpanKind::blocked(Phase::Reduce).label(), "blocked");
        let d = SpanKind::Driver {
            name: "force".into(),
            step: 3,
        };
        assert_eq!(d.label(), "force");
        assert_eq!(d.phase(), None);
        assert_eq!(SpanKind::Phase(Phase::Shift).phase(), Some(Phase::Shift));
        assert_eq!(
            SpanKind::blocked(Phase::Reduce).phase(),
            Some(Phase::Reduce)
        );
        let full = SpanKind::Blocked {
            phase: Phase::Shift,
            peer: Some(5),
            step: Some(2),
        };
        assert_eq!(full.phase(), Some(Phase::Shift));
        assert_eq!(full.label(), "blocked");
    }

    #[test]
    fn span_duration() {
        let s = Span {
            rank: 0,
            kind: SpanKind::Phase(Phase::Other),
            start: 1.5,
            end: 2.25,
        };
        assert!((s.secs() - 0.75).abs() < 1e-12);
    }
}
