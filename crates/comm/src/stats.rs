//! Per-phase communication statistics.
//!
//! The paper's figures break execution time into *computation*,
//! *communication (shift)*, *communication (reduce)*, and — for the cutoff
//! algorithms — *communication (re-assign)* (Figs. 2 and 6). Algorithms tag
//! the current phase on their communicator; every message and collective is
//! then attributed to that phase. The same buckets are used by the
//! discrete-event simulator, so instrumented executions and simulated
//! schedules can be compared phase-by-phase.

// The phase vocabulary lives in `nbody-trace` (the root of the
// observability stack) and is re-exported here so existing callers keep
// importing it from `nbody_comm`.
pub use nbody_trace::{Phase, ALL_PHASES, PHASE_COUNT};

/// Counters for one phase.
///
/// A "word" throughout the workspace is one element of whatever type went
/// over the wire; `bytes` fields pin that down with `size_of`-based byte
/// counts so comparisons across element types are meaningful.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseCounters {
    /// Point-to-point messages sent.
    pub messages: u64,
    /// Elements (e.g. particles) sent in point-to-point messages.
    pub elements: u64,
    /// Bytes sent in point-to-point messages (`size_of`-based).
    pub bytes: u64,
    /// Collective operations participated in.
    pub collectives: u64,
    /// Elements moved by collectives (per participant contribution).
    pub collective_elements: u64,
    /// Bytes of the collective payloads (`size_of`-based, per participant).
    pub collective_bytes: u64,
    /// Constituent tree messages this rank sent inside collectives — the
    /// difference between the logical collective count and what actually
    /// hit the wire.
    pub collective_messages: u64,
    /// Wall-clock seconds spent blocked waiting for data in this phase:
    /// receive posted to envelope matched, polled or asleep.
    pub blocked_secs: f64,
    /// Receives that ran out of poll budget and put their thread to sleep —
    /// the clock-free companion of `blocked_secs`: a count of the wake-ups
    /// the phase paid for, whatever each one cost.
    pub parked: u64,
}

impl PhaseCounters {
    fn merge(&mut self, other: &PhaseCounters) {
        self.messages += other.messages;
        self.elements += other.elements;
        self.bytes += other.bytes;
        self.collectives += other.collectives;
        self.collective_elements += other.collective_elements;
        self.collective_bytes += other.collective_bytes;
        self.collective_messages += other.collective_messages;
        self.blocked_secs += other.blocked_secs;
        self.parked += other.parked;
    }
}

/// Per-rank communication statistics, bucketed by [`Phase`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CommStats {
    phases: [PhaseCounters; PHASE_COUNT],
    current: usize,
}

impl CommStats {
    /// Fresh, zeroed statistics starting in [`Phase::Other`].
    pub fn new() -> Self {
        CommStats {
            phases: Default::default(),
            current: Phase::Other.index(),
        }
    }

    /// Set the phase that subsequent operations are attributed to.
    pub fn set_phase(&mut self, phase: Phase) {
        self.current = phase.index();
    }

    /// The phase currently being attributed.
    pub fn current_phase(&self) -> Phase {
        ALL_PHASES[self.current]
    }

    /// Record a point-to-point send of `elements` elements / `bytes` bytes.
    pub fn record_send(&mut self, elements: usize, bytes: usize) {
        let c = &mut self.phases[self.current];
        c.messages += 1;
        c.elements += elements as u64;
        c.bytes += bytes as u64;
    }

    /// Record participation in a collective moving `elements` elements /
    /// `bytes` bytes (this rank's payload contribution).
    pub fn record_collective(&mut self, elements: usize, bytes: usize) {
        let c = &mut self.phases[self.current];
        c.collectives += 1;
        c.collective_elements += elements as u64;
        c.collective_bytes += bytes as u64;
    }

    /// Record one constituent tree message sent inside a collective.
    pub fn record_collective_message(&mut self) {
        self.phases[self.current].collective_messages += 1;
    }

    /// Record `secs` seconds spent blocked waiting for data.
    pub fn record_blocked(&mut self, secs: f64) {
        self.phases[self.current].blocked_secs += secs;
    }

    /// Record one receive that stopped polling and slept.
    pub fn record_parked(&mut self) {
        self.phases[self.current].parked += 1;
    }

    /// Counters for one phase.
    pub fn phase(&self, phase: Phase) -> &PhaseCounters {
        &self.phases[phase.index()]
    }

    /// Total point-to-point messages across phases.
    pub fn total_messages(&self) -> u64 {
        self.phases.iter().map(|c| c.messages).sum()
    }

    /// Total point-to-point elements across phases.
    pub fn total_elements(&self) -> u64 {
        self.phases.iter().map(|c| c.elements).sum()
    }

    /// Total collectives across phases.
    pub fn total_collectives(&self) -> u64 {
        self.phases.iter().map(|c| c.collectives).sum()
    }

    /// Total point-to-point bytes across phases.
    pub fn total_bytes(&self) -> u64 {
        self.phases.iter().map(|c| c.bytes).sum()
    }

    /// Total collective payload bytes across phases.
    pub fn total_collective_bytes(&self) -> u64 {
        self.phases.iter().map(|c| c.collective_bytes).sum()
    }

    /// Total seconds spent blocked in receives/collectives across phases.
    pub fn total_blocked_secs(&self) -> f64 {
        self.phases.iter().map(|c| c.blocked_secs).sum()
    }

    /// Total receives that parked across phases.
    pub fn total_parked(&self) -> u64 {
        self.phases.iter().map(|c| c.parked).sum()
    }

    /// Merge another rank's statistics into this one (for aggregation).
    pub fn merge(&mut self, other: &CommStats) {
        for (a, b) in self.phases.iter_mut().zip(&other.phases) {
            a.merge(b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_bucket_independently() {
        let mut s = CommStats::new();
        s.set_phase(Phase::Shift);
        s.record_send(10, 80);
        s.record_send(5, 40);
        s.set_phase(Phase::Reduce);
        s.record_collective(7, 56);
        s.record_collective_message();
        s.record_blocked(0.5);
        s.record_parked();

        assert_eq!(s.phase(Phase::Shift).messages, 2);
        assert_eq!(s.phase(Phase::Shift).elements, 15);
        assert_eq!(s.phase(Phase::Shift).bytes, 120);
        assert_eq!(s.phase(Phase::Reduce).collectives, 1);
        assert_eq!(s.phase(Phase::Reduce).collective_elements, 7);
        assert_eq!(s.phase(Phase::Reduce).collective_bytes, 56);
        assert_eq!(s.phase(Phase::Reduce).collective_messages, 1);
        assert_eq!(s.phase(Phase::Reduce).blocked_secs, 0.5);
        assert_eq!(s.phase(Phase::Reduce).parked, 1);
        assert_eq!(s.phase(Phase::Shift).parked, 0);
        assert_eq!(s.phase(Phase::Broadcast).messages, 0);
        assert_eq!(s.total_messages(), 2);
        assert_eq!(s.total_elements(), 15);
        assert_eq!(s.total_bytes(), 120);
        assert_eq!(s.total_collectives(), 1);
        assert_eq!(s.total_parked(), 1);
    }

    #[test]
    fn default_phase_is_other() {
        let mut s = CommStats::new();
        assert_eq!(s.current_phase(), Phase::Other);
        s.record_send(3, 3);
        assert_eq!(s.phase(Phase::Other).messages, 1);
    }

    #[test]
    fn merge_adds_counters() {
        let mut a = CommStats::new();
        a.set_phase(Phase::Shift);
        a.record_send(4, 32);
        let mut b = CommStats::new();
        b.set_phase(Phase::Shift);
        b.record_send(6, 48);
        b.record_blocked(1.0);
        a.record_parked();
        b.record_parked();
        b.record_parked();
        a.merge(&b);
        assert_eq!(a.phase(Phase::Shift).messages, 2);
        assert_eq!(a.phase(Phase::Shift).elements, 10);
        assert_eq!(a.phase(Phase::Shift).bytes, 80);
        assert_eq!(a.phase(Phase::Shift).blocked_secs, 1.0);
        assert_eq!(a.phase(Phase::Shift).parked, 3);
        assert_eq!(a.total_parked(), 3);
    }

    #[test]
    fn reexported_phase_is_the_trace_crate_phase() {
        // One Phase type across the workspace: attribution set through the
        // comm crate is directly usable by the trace exporters.
        let p: nbody_trace::Phase = Phase::Shift;
        assert_eq!(p.label(), "shift");
        assert_eq!(ALL_PHASES.len(), PHASE_COUNT);
    }
}
