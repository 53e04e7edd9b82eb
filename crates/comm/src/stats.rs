//! Per-phase communication statistics: a rank's one ledger.
//!
//! The paper's figures break execution time into *computation*,
//! *communication (shift)*, *communication (reduce)*, and — for the cutoff
//! algorithms — *communication (re-assign)* (Figs. 2 and 6). Algorithms tag
//! the current phase on their communicator; every message and collective is
//! then attributed to that phase. The same buckets are used by the
//! discrete-event simulator, so instrumented executions and simulated
//! schedules can be compared phase-by-phase.
//!
//! The transport counts each message here and nowhere else, on every run.
//! The `comm_*` metric families of a traced run are this ledger read out
//! once, by [`CommStats::export`], when the rank's body returns.

use nbody_metrics::{Histogram, MetricsRecorder};
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
    /// Point-to-point messages received.
    pub recv_messages: u64,
    /// Elements in the point-to-point messages received.
    pub recv_elements: u64,
    /// Bytes in the point-to-point messages received (`size_of`-based).
    pub recv_bytes: u64,
    /// Size of every message this rank put on the wire, point-to-point
    /// sends and collective tree messages alike.
    pub message_sizes: Histogram,
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
        self.recv_messages += other.recv_messages;
        self.recv_elements += other.recv_elements;
        self.recv_bytes += other.recv_bytes;
        self.message_sizes.merge(&other.message_sizes);
    }
}

/// The point-to-point sends of one channel: one phase, one destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelCounters {
    /// Phase the sends were attributed to.
    pub phase: Phase,
    /// World rank of the destination.
    pub peer: u32,
    /// Messages sent on the channel.
    pub messages: u64,
    /// Elements sent on the channel.
    pub elements: u64,
}

/// Per-rank communication statistics, bucketed by [`Phase`], with the
/// point-to-point sends also counted per channel.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CommStats {
    phases: [PhaseCounters; PHASE_COUNT],
    /// Sorted by `(phase, peer)`; a phase's entries sum to its `messages`
    /// and `elements`.
    channels: Vec<ChannelCounters>,
    current: usize,
}

impl CommStats {
    /// Fresh, zeroed statistics starting in [`Phase::Other`].
    pub fn new() -> Self {
        CommStats {
            phases: Default::default(),
            channels: Vec::new(),
            current: Phase::Other.index(),
        }
    }

    /// [`new`](CommStats::new), with room for `channels` channels, so that a
    /// rank which sends on no more never allocates to count a send.
    pub(crate) fn with_room_for(channels: usize) -> Self {
        CommStats {
            channels: Vec::with_capacity(channels),
            ..CommStats::new()
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

    /// Record a point-to-point send of `elements` elements / `bytes` bytes
    /// to world rank `peer`, size histogram and channel included.
    pub fn record_send(&mut self, peer: usize, elements: usize, bytes: usize) {
        let c = &mut self.phases[self.current];
        c.messages += 1;
        c.elements += elements as u64;
        c.bytes += bytes as u64;
        c.message_sizes.record(bytes as u64);
        let channel = self.channel(ALL_PHASES[self.current], peer as u32);
        channel.messages += 1;
        channel.elements += elements as u64;
    }

    /// The counters of channel `(phase, peer)`, inserted in order at zero
    /// if it has sent nothing yet.
    fn channel(&mut self, phase: Phase, peer: u32) -> &mut ChannelCounters {
        let i = match self
            .channels
            .binary_search_by_key(&(phase, peer), |c| (c.phase, c.peer))
        {
            Ok(i) => i,
            Err(i) => {
                let fresh = ChannelCounters {
                    phase,
                    peer,
                    messages: 0,
                    elements: 0,
                };
                self.channels.insert(i, fresh);
                i
            }
        };
        &mut self.channels[i]
    }

    /// Record a point-to-point receive of `elements` elements / `bytes`
    /// bytes.
    pub fn record_recv(&mut self, elements: usize, bytes: usize) {
        let c = &mut self.phases[self.current];
        c.recv_messages += 1;
        c.recv_elements += elements as u64;
        c.recv_bytes += bytes as u64;
    }

    /// Record participation in a collective moving `elements` elements /
    /// `bytes` bytes (this rank's payload contribution).
    pub fn record_collective(&mut self, elements: usize, bytes: usize) {
        let c = &mut self.phases[self.current];
        c.collectives += 1;
        c.collective_elements += elements as u64;
        c.collective_bytes += bytes as u64;
    }

    /// Record one constituent tree message sent inside a collective; its
    /// size goes in with [`record_message_size`](CommStats::record_message_size).
    pub fn record_collective_message(&mut self) {
        self.phases[self.current].collective_messages += 1;
    }

    /// Record the size of one message that is not a point-to-point send
    /// ([`record_send`](CommStats::record_send) records its own).
    pub fn record_message_size(&mut self, bytes: usize) {
        self.phases[self.current].message_sizes.record(bytes as u64);
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

    /// The point-to-point sends per channel, sorted by `(phase, peer)`.
    pub fn channels(&self) -> &[ChannelCounters] {
        &self.channels
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
        for b in &other.channels {
            let a = self.channel(b.phase, b.peer);
            a.messages += b.messages;
            a.elements += b.elements;
        }
    }

    /// Write the ledger into `rec` as the phase-labelled `comm_*` metric
    /// families: `comm_send_messages` / `comm_send_elements` are the
    /// channels' counts, one sample per `peer`, `comm_send_bytes` is
    /// `bytes`, `comm_recv_*` and `comm_collective_*` the fields of those
    /// names, and the `comm_message_size_bytes` histogram is
    /// `message_sizes`. Adds to what `rec` holds, so a rank calls it once,
    /// after its last message; the shard drops the zero samples when it is
    /// drained.
    pub fn export(&self, rec: &MetricsRecorder) {
        if !rec.is_enabled() {
            return;
        }
        for c in &self.channels {
            let (phase, peer) = (Some(c.phase), Some(c.peer));
            rec.counter_to("comm_send_messages", phase, peer)
                .add(c.messages);
            rec.counter_to("comm_send_elements", phase, peer)
                .add(c.elements);
        }
        for (c, phase) in self.phases.iter().zip(ALL_PHASES.map(Some)) {
            for (name, value) in [
                ("comm_send_bytes", c.bytes),
                ("comm_recv_messages", c.recv_messages),
                ("comm_recv_elements", c.recv_elements),
                ("comm_recv_bytes", c.recv_bytes),
                ("comm_collective_messages", c.collective_messages),
                ("comm_collective_elements", c.collective_elements),
                ("comm_collective_bytes", c.collective_bytes),
            ] {
                rec.counter(name, phase).add(value);
            }
            rec.histogram("comm_message_size_bytes", phase)
                .merge(&c.message_sizes);
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
        s.record_send(1, 10, 80);
        s.record_send(1, 5, 40);
        s.record_recv(3, 24);
        s.set_phase(Phase::Reduce);
        s.record_collective(7, 56);
        s.record_collective_message();
        s.record_message_size(56);
        s.record_blocked(0.5);
        s.record_parked();

        let shift = s.phase(Phase::Shift);
        assert_eq!((shift.messages, shift.elements, shift.bytes), (2, 15, 120));
        assert_eq!(
            (shift.recv_messages, shift.recv_elements, shift.recv_bytes),
            (1, 3, 24)
        );
        // Both sends are bucketed, the receive is not: 40 B in the first
        // (<= 64 B) bucket, 80 B in the second.
        assert_eq!(shift.message_sizes.count(), 2);
        assert_eq!(shift.message_sizes.sum, 120);
        assert_eq!(&shift.message_sizes.counts[..2], &[1, 1]);
        let reduce = s.phase(Phase::Reduce);
        assert_eq!(reduce.collectives, 1);
        assert_eq!(reduce.collective_elements, 7);
        assert_eq!(reduce.collective_bytes, 56);
        assert_eq!(reduce.collective_messages, 1);
        assert_eq!(reduce.message_sizes.count(), 1);
        assert_eq!(reduce.recv_messages, 0);
        assert_eq!(reduce.blocked_secs, 0.5);
        assert_eq!(reduce.parked, 1);
        assert_eq!(shift.parked, 0);
        assert_eq!(s.phase(Phase::Broadcast), &PhaseCounters::default());
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
        s.record_send(0, 3, 3);
        assert_eq!(s.phase(Phase::Other).messages, 1);
    }

    #[test]
    fn merge_adds_every_field() {
        let mut a = CommStats::new();
        a.set_phase(Phase::Shift);
        a.record_send(1, 4, 32);
        a.record_recv(1, 8);
        let mut b = CommStats::new();
        b.set_phase(Phase::Shift);
        b.record_send(1, 6, 4096);
        b.record_recv(2, 16);
        b.record_collective(5, 40);
        b.record_collective_message();
        b.record_message_size(40);
        b.record_blocked(1.0);
        a.record_parked();
        b.record_parked();
        b.record_parked();
        // Merging is the sum of two ledgers, so it commutes.
        let mut b_then_a = b.clone();
        b_then_a.merge(&a);
        a.merge(&b);
        assert_eq!(b_then_a.phase(Phase::Shift), a.phase(Phase::Shift));
        let c = a.phase(Phase::Shift);
        assert_eq!((c.messages, c.elements, c.bytes), (2, 10, 4128));
        assert_eq!((c.recv_messages, c.recv_elements, c.recv_bytes), (2, 3, 24));
        assert_eq!(
            (c.collectives, c.collective_elements, c.collective_bytes),
            (1, 5, 40)
        );
        assert_eq!(c.collective_messages, 1);
        assert_eq!(c.blocked_secs, 1.0);
        assert_eq!(c.parked, 3);
        assert_eq!(a.total_parked(), 3);
        // Bucket by bucket: 32 and 40 B in the first, 4096 B in the fourth.
        assert_eq!(c.message_sizes.count(), 3);
        assert_eq!(c.message_sizes.sum, 32 + 4096 + 40);
        assert_eq!(
            (c.message_sizes.counts[0], c.message_sizes.counts[3]),
            (2, 1)
        );
    }

    #[test]
    fn export_writes_each_field_under_its_metric_name_once() {
        // Every field a different number, so a name wired to the wrong
        // field shows.
        let mut s = CommStats::new();
        s.set_phase(Phase::Shift);
        s.record_send(1, 10, 520);
        s.record_send(5, 4, 32);
        for _ in 0..3 {
            s.record_recv(3, 24);
        }
        for _ in 0..4 {
            s.record_collective_message();
            s.record_message_size(100);
        }
        s.set_phase(Phase::Reduce);
        s.record_collective(7, 364);
        let rec = nbody_metrics::MetricsRecorder::for_rank(2);
        s.export(&rec);
        let snap = rec.finish().unwrap();
        let shift = Some(Phase::Shift);
        assert_eq!(snap.counter("comm_send_messages", shift), 2);
        assert_eq!(snap.counter("comm_send_elements", shift), 14);
        // The sends are counted per peer, and only there.
        let channels: Vec<_> = snap
            .counters
            .iter()
            .filter(|c| c.name == "comm_send_elements")
            .map(|c| (c.peer, c.value))
            .collect();
        assert_eq!(channels, vec![(Some(1), 10), (Some(5), 4)]);
        assert_eq!(snap.counter("comm_send_bytes", shift), 552);
        assert_eq!(snap.counter("comm_recv_messages", shift), 3);
        assert_eq!(snap.counter("comm_recv_elements", shift), 9);
        assert_eq!(snap.counter("comm_recv_bytes", shift), 72);
        assert_eq!(snap.counter("comm_collective_messages", shift), 4);
        let reduce = Some(Phase::Reduce);
        assert_eq!(snap.counter("comm_collective_elements", reduce), 7);
        assert_eq!(snap.counter("comm_collective_bytes", reduce), 364);
        // Sends and tree messages are in the size histogram, receives not.
        let h = snap.histogram("comm_message_size_bytes", shift).unwrap();
        assert_eq!((h.count(), h.sum), (6, 952));
        // Zero fields leave no sample: seven phase counters, two per
        // channel, and one histogram.
        assert_eq!((snap.counters.len(), snap.histograms.len()), (11, 1));
        // A disabled recorder is left alone.
        let off = nbody_metrics::MetricsRecorder::disabled();
        s.export(&off);
        assert!(off.finish().is_none());
    }

    #[test]
    fn channels_sum_to_their_phase_and_merge_like_it() {
        let mut a = CommStats::new();
        a.set_phase(Phase::Shift);
        a.record_send(3, 4, 32);
        a.record_send(1, 2, 16);
        a.record_send(3, 1, 8);
        a.set_phase(Phase::Skew);
        a.record_send(3, 7, 56);
        let mut b = CommStats::new();
        b.set_phase(Phase::Shift);
        b.record_send(1, 5, 40);
        b.record_send(2, 6, 48);
        let channel = |phase, peer, messages, elements| ChannelCounters {
            phase,
            peer,
            messages,
            elements,
        };
        assert_eq!(
            a.channels(),
            [
                channel(Phase::Skew, 3, 1, 7),
                channel(Phase::Shift, 1, 1, 2),
                channel(Phase::Shift, 3, 2, 5),
            ]
        );
        let mut b_then_a = b.clone();
        b_then_a.merge(&a);
        a.merge(&b);
        assert_eq!(a.channels(), b_then_a.channels(), "merging commutes");
        assert_eq!(
            a.channels(),
            [
                channel(Phase::Skew, 3, 1, 7),
                channel(Phase::Shift, 1, 2, 7),
                channel(Phase::Shift, 2, 1, 6),
                channel(Phase::Shift, 3, 2, 5),
            ]
        );
        for phase in ALL_PHASES {
            let on = a.channels().iter().filter(|c| c.phase == phase);
            let sums = on.fold((0, 0), |s, c| (s.0 + c.messages, s.1 + c.elements));
            let c = a.phase(phase);
            assert_eq!(sums, (c.messages, c.elements), "{phase:?}");
        }
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
