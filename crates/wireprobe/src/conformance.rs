//! Schedule conformance: diff observed wire traffic against the message
//! multiset the CA algorithm predicts, attributing discrepancies to
//! injected faults.

use std::collections::BTreeMap;

use nbody_trace::Phase;

use crate::event::ProbeKind;
use crate::log::WireLog;

/// One point-to-point message the schedule predicts.
///
/// `count` is in payload *elements* (particles): the transport's byte
/// counts reflect Rust's in-memory particle layout while the schedule's
/// byte math uses the paper's wire format, so sizes are compared as
/// element counts, which both sides agree on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExpectedMsg {
    /// Sender's global rank.
    pub src: u32,
    /// Receiver's global rank.
    pub dst: u32,
    /// Pipeline phase the message belongs to.
    pub phase: Phase,
    /// Payload length in elements.
    pub count: u64,
}

/// The full expected message multiset for a run.
#[derive(Debug, Clone, PartialEq)]
pub struct ExpectedSchedule {
    /// Predicted messages, in per-rank program order.
    pub msgs: Vec<ExpectedMsg>,
    /// Whether payload sizes are predicted exactly. When `false` (e.g.
    /// cutoff methods, whose block sizes drift with re-assignment) only
    /// per-channel message counts are checked.
    pub size_checked: bool,
    /// Human-readable description of the schedule's parameters.
    pub detail: String,
}

/// Pipeline phases whose point-to-point traffic is conformance-checked.
/// Broadcast/reduce ride collectives (not probed per-message) and recovery
/// traffic is fault-driven. Re-assignment is checked in counts: who sends
/// to whom each step is the neighbourhood's, only the payload is
/// data-dependent — and a schedule that re-assigns is never size-checked.
pub const CHECKED_PHASES: [Phase; 3] = [Phase::Skew, Phase::Shift, Phase::Reassign];

/// A fault the checker may attribute discrepancies to. Derived from the
/// `FaultPlan` driving a chaos run (and/or from fault probe events in the
/// log itself) — defined here so the checker needs no dependency on the
/// comm layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultNote {
    /// Fault kind (one of the `ProbeKind::Fault*` variants).
    pub kind: ProbeKind,
    /// World rank the fault was injected at.
    pub rank: u32,
    /// Pipeline step the fault fired on, when known.
    pub step: Option<u64>,
}

impl FaultNote {
    /// Human-readable tag, e.g. `fault_drop:rank1@step0`.
    pub fn describe(&self) -> String {
        match self.step {
            Some(s) => format!("{}:rank{}@step{}", self.kind.label(), self.rank, s),
            None => format!("{}:rank{}", self.kind.label(), self.rank),
        }
    }

    /// Collect deduplicated fault notes from the fault events a chaos
    /// backend recorded into the wire log.
    pub fn from_log(log: &WireLog) -> Vec<FaultNote> {
        let mut notes: Vec<FaultNote> = Vec::new();
        for e in log.fault_events() {
            let note = FaultNote {
                kind: e.kind,
                rank: e.src,
                step: e.step,
            };
            if !notes.contains(&note) {
                notes.push(note);
            }
        }
        notes
    }
}

/// How observed traffic deviated from the schedule on a channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// A predicted message never appeared.
    Missing,
    /// A message appeared that the schedule does not predict.
    Unexpected,
    /// A message appeared with a payload size the schedule does not
    /// predict at that slot.
    WrongSize,
    /// The channel carried the right multiset in the wrong order.
    OutOfOrder,
}

impl ViolationKind {
    /// Stable label for tables and JSON.
    pub fn label(self) -> &'static str {
        match self {
            ViolationKind::Missing => "missing",
            ViolationKind::Unexpected => "unexpected",
            ViolationKind::WrongSize => "wrong-size",
            ViolationKind::OutOfOrder => "out-of-order",
        }
    }
}

/// One conformance discrepancy, possibly attributed to an injected fault.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Discrepancy class.
    pub kind: ViolationKind,
    /// Sender's global rank of the affected channel.
    pub src: u32,
    /// Receiver's global rank of the affected channel.
    pub dst: u32,
    /// Phase of the affected channel.
    pub phase: Phase,
    /// Predicted element count, when the class carries one.
    pub expected_count: Option<u64>,
    /// Observed element count, when the class carries one.
    pub observed_count: Option<u64>,
    /// Fault attribution: `Some(reason)` means the discrepancy is
    /// explained by the fault plan and is not a bug.
    pub explained: Option<String>,
}

/// The conformance checker's verdict over a whole run.
#[derive(Debug, Clone, PartialEq)]
pub struct ConformanceReport {
    /// Schedule parameters the expectations came from.
    pub detail: String,
    /// Messages the schedule predicts (in checked phases).
    pub expected_msgs: u64,
    /// Protocol sends observed (in checked phases).
    pub observed_msgs: u64,
    /// Channels compared.
    pub channels: usize,
    /// Every discrepancy found, explained or not.
    pub violations: Vec<Violation>,
    /// Fault notes consulted for attribution.
    pub faults_consulted: usize,
    /// Whether any probe ring overflowed: the log is incomplete, so
    /// unexplained findings degrade from failure to warning.
    pub saturated: bool,
}

impl ConformanceReport {
    /// Discrepancies attributed to the fault plan.
    pub fn explained(&self) -> usize {
        self.violations
            .iter()
            .filter(|v| v.explained.is_some())
            .count()
    }

    /// Discrepancies with no fault to blame — real conformance failures.
    pub fn unexplained(&self) -> usize {
        self.violations.len() - self.explained()
    }

    /// Whether the run conforms to the schedule (no unexplained
    /// discrepancies).
    pub fn passed(&self) -> bool {
        self.unexplained() == 0
    }

    /// `PASS`, `WARN` (unexplained findings but the probe ring overflowed,
    /// so the log may simply be missing events), or `FAIL`.
    pub fn verdict(&self) -> &'static str {
        if self.passed() {
            "PASS"
        } else if self.saturated {
            "WARN"
        } else {
            "FAIL"
        }
    }
}

type Channel = (u32, u32, Phase);

/// Multiset difference: returns (in `a` but not `b`, in `b` but not `a`).
fn multiset_diff(a: &[u64], b: &[u64]) -> (Vec<u64>, Vec<u64>) {
    let mut counts: BTreeMap<u64, i64> = BTreeMap::new();
    for &x in a {
        *counts.entry(x).or_default() += 1;
    }
    for &x in b {
        *counts.entry(x).or_default() -= 1;
    }
    let mut only_a = Vec::new();
    let mut only_b = Vec::new();
    for (x, n) in counts {
        for _ in 0..n.abs() {
            if n > 0 {
                only_a.push(x);
            } else {
                only_b.push(x);
            }
        }
    }
    (only_a, only_b)
}

/// Diff observed wire traffic against the expected schedule.
///
/// Per channel `(src, dst, phase)` the checker compares the ordered
/// sequence of payload sizes the schedule predicts against the sends the
/// log recorded (ordered by timestamp). Sequences equal → conformant;
/// multisets equal but reordered → one [`ViolationKind::OutOfOrder`];
/// otherwise leftover expected/observed sizes pair up as
/// [`ViolationKind::WrongSize`] with the remainder classified missing or
/// unexpected. Fault attribution then explains: missing traffic from a
/// rank with an injected drop/kill; surplus traffic that duplicates
/// legitimate sizes when faults forced retries (recovery re-runs a whole
/// pipeline attempt, re-sending byte-identical messages on every
/// channel); injected duplicates; and reordering under relaxed chaos
/// matching.
pub fn check_conformance(
    expected: &ExpectedSchedule,
    log: &WireLog,
    faults: &[FaultNote],
) -> ConformanceReport {
    let mut exp_by_channel: BTreeMap<Channel, Vec<u64>> = BTreeMap::new();
    for m in &expected.msgs {
        if CHECKED_PHASES.contains(&m.phase) {
            exp_by_channel
                .entry((m.src, m.dst, m.phase))
                .or_default()
                .push(m.count);
        }
    }
    // Observed protocol sends in checked phases, ordered by timestamp
    // within each channel (each sender is single-threaded, so its stamps
    // reflect program order).
    let mut obs_by_channel: BTreeMap<Channel, Vec<(f64, u64)>> = BTreeMap::new();
    for r in &log.ranks {
        for e in &r.events {
            if e.kind == ProbeKind::Send && CHECKED_PHASES.contains(&e.phase) {
                obs_by_channel
                    .entry((e.src, e.dst, e.phase))
                    .or_default()
                    .push((e.t_secs, e.count));
            }
        }
    }
    for obs in obs_by_channel.values_mut() {
        obs.sort_by(|a, b| a.0.total_cmp(&b.0));
    }

    let mut channels: Vec<Channel> = exp_by_channel.keys().copied().collect();
    for ch in obs_by_channel.keys() {
        if !exp_by_channel.contains_key(ch) {
            channels.push(*ch);
        }
    }
    channels.sort_by_key(|&(s, d, p)| (s, d, p.index()));

    let empty_exp: Vec<u64> = Vec::new();
    let mut report = ConformanceReport {
        detail: expected.detail.clone(),
        expected_msgs: exp_by_channel.values().map(|v| v.len() as u64).sum(),
        observed_msgs: obs_by_channel.values().map(|v| v.len() as u64).sum(),
        channels: channels.len(),
        violations: Vec::new(),
        faults_consulted: faults.len(),
        saturated: log.saturated(),
    };

    for ch in channels {
        let (src, dst, phase) = ch;
        let exp = exp_by_channel.get(&ch).unwrap_or(&empty_exp);
        let obs: Vec<u64> = obs_by_channel
            .get(&ch)
            .map(|v| v.iter().map(|&(_, c)| c).collect())
            .unwrap_or_default();
        let violation = |kind, expected_count, observed_count| Violation {
            kind,
            src,
            dst,
            phase,
            expected_count,
            observed_count,
            explained: None,
        };
        if expected.size_checked {
            if *exp == obs {
                continue;
            }
            let (missing, extra) = multiset_diff(exp, &obs);
            if missing.is_empty() && extra.is_empty() {
                report
                    .violations
                    .push(violation(ViolationKind::OutOfOrder, None, None));
                continue;
            }
            let paired = missing.len().min(extra.len());
            for i in 0..paired {
                report.violations.push(violation(
                    ViolationKind::WrongSize,
                    Some(missing[i]),
                    Some(extra[i]),
                ));
            }
            for &m in &missing[paired..] {
                report
                    .violations
                    .push(violation(ViolationKind::Missing, Some(m), None));
            }
            for &x in &extra[paired..] {
                report
                    .violations
                    .push(violation(ViolationKind::Unexpected, None, Some(x)));
            }
        } else {
            // Count-only mode: sizes are data-dependent, compare volumes.
            use std::cmp::Ordering;
            match obs.len().cmp(&exp.len()) {
                Ordering::Less => {
                    for _ in 0..(exp.len() - obs.len()) {
                        report
                            .violations
                            .push(violation(ViolationKind::Missing, None, None));
                    }
                }
                Ordering::Greater => {
                    for _ in 0..(obs.len() - exp.len()) {
                        report
                            .violations
                            .push(violation(ViolationKind::Unexpected, None, None));
                    }
                }
                Ordering::Equal => {}
            }
        }
    }

    attribute_faults(&mut report, &exp_by_channel, faults);
    report
}

/// Mark violations the fault plan explains.
fn attribute_faults(
    report: &mut ConformanceReport,
    exp_by_channel: &BTreeMap<Channel, Vec<u64>>,
    faults: &[FaultNote],
) {
    if faults.is_empty() {
        return;
    }
    let lossy_at = |rank: u32| {
        faults
            .iter()
            .find(|f| {
                f.rank == rank && matches!(f.kind, ProbeKind::FaultDrop | ProbeKind::FaultKill)
            })
            .map(FaultNote::describe)
    };
    let dup_at = |rank: u32| {
        faults
            .iter()
            .find(|f| f.rank == rank && f.kind == ProbeKind::FaultDup)
            .map(FaultNote::describe)
    };
    let any_fault = faults.first().map(FaultNote::describe).unwrap_or_default();
    for v in &mut report.violations {
        let channel_expects = |count: Option<u64>| match count {
            // Count-only mode carries no sizes; any expected traffic on
            // the channel makes surplus a plausible retransmission.
            None => exp_by_channel.contains_key(&(v.src, v.dst, v.phase)),
            Some(c) => exp_by_channel
                .get(&(v.src, v.dst, v.phase))
                .is_some_and(|exp| exp.contains(&c)),
        };
        v.explained = match v.kind {
            ViolationKind::Missing => {
                lossy_at(v.src).map(|f| format!("message suppressed by injected {f}"))
            }
            ViolationKind::Unexpected => {
                if let Some(f) = dup_at(v.src) {
                    Some(format!("surplus copy from injected {f}"))
                } else if channel_expects(v.observed_count) {
                    Some(format!(
                        "retransmission from recovery retry triggered by {any_fault}"
                    ))
                } else {
                    None
                }
            }
            ViolationKind::WrongSize => {
                lossy_at(v.src).map(|f| format!("attempt truncated by injected {f}"))
            }
            ViolationKind::OutOfOrder => Some(format!(
                "reordering under relaxed chaos matching and retries ({any_fault})"
            )),
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::MsgEvent;
    use crate::log::RankWireLog;

    fn send(src: u32, dst: u32, phase: Phase, count: u64, t: f64) -> MsgEvent {
        MsgEvent {
            kind: ProbeKind::Send,
            src,
            dst,
            comm: 0,
            tag: 0,
            phase,
            count,
            bytes: count * 56,
            t_secs: t,
            step: None,
        }
    }

    fn expected(msgs: Vec<ExpectedMsg>) -> ExpectedSchedule {
        ExpectedSchedule {
            msgs,
            size_checked: true,
            detail: "test".into(),
        }
    }

    fn log_of(events: Vec<MsgEvent>) -> WireLog {
        WireLog::from_ranks(vec![RankWireLog {
            rank: 0,
            events,
            dropped_events: 0,
        }])
    }

    fn exp_msg(src: u32, dst: u32, count: u64) -> ExpectedMsg {
        ExpectedMsg {
            src,
            dst,
            phase: Phase::Shift,
            count,
        }
    }

    #[test]
    fn matching_traffic_conforms() {
        let exp = expected(vec![exp_msg(0, 1, 10), exp_msg(0, 1, 12)]);
        let log = log_of(vec![
            send(0, 1, Phase::Shift, 10, 0.1),
            send(0, 1, Phase::Shift, 12, 0.2),
        ]);
        let report = check_conformance(&exp, &log, &[]);
        assert!(report.passed());
        assert_eq!(report.verdict(), "PASS");
        assert_eq!(report.expected_msgs, 2);
        assert_eq!(report.observed_msgs, 2);
        assert!(report.violations.is_empty());
    }

    #[test]
    fn unchecked_phases_are_ignored() {
        let exp = expected(vec![exp_msg(0, 1, 10)]);
        let log = log_of(vec![
            send(0, 1, Phase::Shift, 10, 0.1),
            send(0, 2, Phase::Other, 99, 0.2),
            send(0, 2, Phase::Recovery, 99, 0.3),
        ]);
        let report = check_conformance(&exp, &log, &[]);
        assert!(report.passed());
        assert_eq!(report.observed_msgs, 1);
        // Re-assignment is not one of them: a send the schedule lacks is
        // surplus, whatever it carries.
        let log = log_of(vec![
            send(0, 1, Phase::Shift, 10, 0.1),
            send(0, 2, Phase::Reassign, 0, 0.2),
        ]);
        let report = check_conformance(&exp, &log, &[]);
        assert_eq!(report.observed_msgs, 2);
        assert_eq!(report.violations.len(), 1);
        let v = &report.violations[0];
        assert_eq!(
            (v.kind, v.phase),
            (ViolationKind::Unexpected, Phase::Reassign)
        );
    }

    #[test]
    fn missing_message_fails_without_faults() {
        let exp = expected(vec![exp_msg(0, 1, 10), exp_msg(0, 1, 12)]);
        let log = log_of(vec![send(0, 1, Phase::Shift, 10, 0.1)]);
        let report = check_conformance(&exp, &log, &[]);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].kind, ViolationKind::Missing);
        assert_eq!(report.violations[0].expected_count, Some(12));
        assert_eq!(report.unexplained(), 1);
        assert_eq!(report.verdict(), "FAIL");
    }

    #[test]
    fn drop_fault_explains_missing_message() {
        let exp = expected(vec![exp_msg(0, 1, 10)]);
        let log = log_of(vec![]);
        let faults = [FaultNote {
            kind: ProbeKind::FaultDrop,
            rank: 0,
            step: Some(0),
        }];
        let report = check_conformance(&exp, &log, &faults);
        assert_eq!(report.violations.len(), 1);
        assert!(report.violations[0]
            .explained
            .as_deref()
            .unwrap()
            .contains("fault_drop:rank0@step0"));
        assert!(report.passed(), "explained violations still pass");
        assert_eq!(report.verdict(), "PASS");
        // A drop at a *different* rank explains nothing.
        let other = [FaultNote {
            kind: ProbeKind::FaultDrop,
            rank: 3,
            step: Some(0),
        }];
        let report = check_conformance(&exp, &log, &other);
        assert_eq!(report.unexplained(), 1);
    }

    #[test]
    fn retry_duplicates_are_attributed_to_faults() {
        // Recovery re-runs the attempt: the channel carries its expected
        // size twice. With a fault on record that's a retransmission.
        let exp = expected(vec![exp_msg(0, 1, 10)]);
        let log = log_of(vec![
            send(0, 1, Phase::Shift, 10, 0.1),
            send(0, 1, Phase::Shift, 10, 0.2),
        ]);
        let faults = [FaultNote {
            kind: ProbeKind::FaultDrop,
            rank: 2,
            step: Some(1),
        }];
        let report = check_conformance(&exp, &log, &faults);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].kind, ViolationKind::Unexpected);
        assert!(report.passed());
        // The same surplus without any fault on record is a real bug.
        let report = check_conformance(&exp, &log, &[]);
        assert_eq!(report.unexplained(), 1);
        assert_eq!(report.verdict(), "FAIL");
    }

    #[test]
    fn never_predicted_size_stays_unexplained_even_with_faults() {
        let exp = expected(vec![exp_msg(0, 1, 10)]);
        let log = log_of(vec![
            send(0, 1, Phase::Shift, 10, 0.1),
            send(0, 1, Phase::Shift, 777, 0.2),
        ]);
        let faults = [FaultNote {
            kind: ProbeKind::FaultDrop,
            rank: 2,
            step: Some(0),
        }];
        let report = check_conformance(&exp, &log, &faults);
        // Surplus message pairs with nothing expected: with one expected
        // and two observed, the diff yields one unexpected size (777),
        // which no fault rule covers.
        assert_eq!(report.unexplained(), 1);
    }

    #[test]
    fn wrong_size_is_classified() {
        let exp = expected(vec![exp_msg(0, 1, 10)]);
        let log = log_of(vec![send(0, 1, Phase::Shift, 11, 0.1)]);
        let report = check_conformance(&exp, &log, &[]);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].kind, ViolationKind::WrongSize);
        assert_eq!(report.violations[0].expected_count, Some(10));
        assert_eq!(report.violations[0].observed_count, Some(11));
    }

    #[test]
    fn reordered_multiset_is_out_of_order() {
        let exp = expected(vec![exp_msg(0, 1, 10), exp_msg(0, 1, 12)]);
        let log = log_of(vec![
            send(0, 1, Phase::Shift, 12, 0.1),
            send(0, 1, Phase::Shift, 10, 0.2),
        ]);
        let report = check_conformance(&exp, &log, &[]);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].kind, ViolationKind::OutOfOrder);
        assert_eq!(report.unexplained(), 1);
    }

    #[test]
    fn saturation_degrades_failures_to_warnings() {
        let exp = expected(vec![exp_msg(0, 1, 10)]);
        let log = WireLog::from_ranks(vec![RankWireLog {
            rank: 0,
            events: vec![],
            dropped_events: 5,
        }]);
        let report = check_conformance(&exp, &log, &[]);
        assert_eq!(report.unexplained(), 1);
        assert!(report.saturated);
        assert_eq!(report.verdict(), "WARN", "saturated ring is not a FAIL");
    }

    #[test]
    fn count_only_mode_checks_volumes_not_sizes() {
        let exp = ExpectedSchedule {
            msgs: vec![exp_msg(0, 1, 10), exp_msg(0, 1, 10)],
            size_checked: false,
            detail: "test".into(),
        };
        // Two sends with "wrong" sizes: fine in count-only mode.
        let ok = log_of(vec![
            send(0, 1, Phase::Shift, 3, 0.1),
            send(0, 1, Phase::Shift, 4, 0.2),
        ]);
        assert!(check_conformance(&exp, &ok, &[]).passed());
        // A missing message is still caught.
        let short = log_of(vec![send(0, 1, Phase::Shift, 3, 0.1)]);
        let report = check_conformance(&exp, &short, &[]);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].kind, ViolationKind::Missing);
    }

    #[test]
    fn fault_notes_dedupe_from_log() {
        let mut drop1 = send(1, 2, Phase::Shift, 10, 0.1);
        drop1.kind = ProbeKind::FaultDrop;
        drop1.step = Some(3);
        let drop2 = drop1.clone();
        let mut kill = send(2, 0, Phase::Skew, 5, 0.2);
        kill.kind = ProbeKind::FaultKill;
        kill.step = Some(4);
        let log = log_of(vec![drop1, drop2, kill]);
        let notes = FaultNote::from_log(&log);
        assert_eq!(notes.len(), 2);
        assert_eq!(notes[0].kind, ProbeKind::FaultDrop);
        assert_eq!(notes[0].rank, 1);
        assert_eq!(notes[1].describe(), "fault_kill:rank2@step4");
    }
}
