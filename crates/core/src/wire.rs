//! Schedule conformance: what a run's ledger sent on each channel, against
//! what its schedule twin predicts.
//!
//! The CA schedule generator in [`schedule`](crate::schedule) already emits
//! the exact per-rank operation stream of a [`Layout`] for the
//! discrete-event simulator (one generator: all-pairs is the cutoff
//! schedule on the full team ring). [`expected_schedule`] folds its sends
//! into per-channel totals over the run — `(src, dst, phase) → (messages,
//! elements)` — for a real run laid out by the same `Layout::new`, and
//! [`check`] diffs a run's metrics snapshot against them. A run whose
//! world shrank is piecewise: the spec's layout up to each recorded
//! [`Shrink`], the shrink policy's ([`Method::shrunk_onto`]) after it, in
//! launch-rank numbering. The transport
//! counts every point-to-point send per channel in the rank's `CommStats`
//! ledger, exactly, so the diff has no log that could saturate. Elements
//! are particle counts: the unit both the schedule's 52-byte wire math and
//! the transport's in-memory byte counts agree on.

use std::cmp::Ordering;
use std::collections::BTreeMap;

use nbody_comm::{FaultEvent, FaultKind, FaultPlan, MetricsSnapshot, Phase, Shrink, ALL_PHASES};
use nbody_netsim::Op;
use nbody_physics::particle::PARTICLE_WIRE_BYTES;
use nbody_physics::{Boundary, Domain};

use crate::schedule::id_block_sizes;
use crate::sim::{Layout, Method};

/// Run parameters the expected schedule is derived from — the same inputs
/// that configure [`run_distributed`](crate::sim::run_distributed), minus
/// physics that cannot change the message pattern (force strength,
/// integrator, dt).
#[derive(Debug, Clone)]
pub struct WireScheduleSpec {
    /// Force-evaluation method.
    pub method: Method,
    /// Total particles.
    pub n: usize,
    /// World ranks.
    pub p: usize,
    /// Timesteps.
    pub steps: usize,
    /// Simulation domain (sizes the cutoff windows).
    pub domain: Domain,
    /// Boundary condition (periodic windows wrap).
    pub boundary: Boundary,
    /// Cutoff radius, required by the cutoff methods.
    pub cutoff: Option<f64>,
    /// Whether the run's law asks each pair once for both ways
    /// ([`symmetric_cutoff`](crate::kernel::symmetric_cutoff)), which
    /// decides the window its shift body walks.
    pub newton: bool,
    /// The world's agreed shrinks, as the run's bundle recorded them.
    pub shrinks: Vec<Shrink>,
}

/// One direction between two world ranks, in one phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Channel {
    /// Sender's world rank.
    pub src: u32,
    /// Receiver's world rank.
    pub dst: u32,
    /// Phase the sends belong to.
    pub phase: Phase,
}

/// What a channel carried over a run, or is predicted to.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Sends {
    /// Point-to-point messages.
    pub messages: u64,
    /// Elements (particles) in them.
    pub elements: u64,
}

/// The sends a run's schedule predicts, per channel over the whole run.
#[derive(Debug, Clone, PartialEq)]
pub struct ExpectedSchedule {
    /// Predicted totals of every channel the schedule sends on.
    pub channels: BTreeMap<Channel, Sends>,
    /// The part of `channels` a shrink interrupted: the sends of each step
    /// whose evaluation lost whole team columns, on the layout that lost
    /// them. The run made them in part; a shortfall within them is the
    /// loss's.
    pub cut: BTreeMap<Channel, Sends>,
    /// Whether element totals are predicted exactly. When `false` (the
    /// cutoff methods, whose block sizes drift with re-assignment) only
    /// message counts are checked.
    pub size_checked: bool,
    /// Human-readable description of the schedule's parameters.
    pub detail: String,
}

/// Derive the per-channel sends of `spec`: the sends of the schedule of
/// the run's own [`Layout`], once per timestep.
///
/// * Layouts that never re-assign (id blocks — [`Method::CaAllPairs`] and
///   [`Method::ParticleRingSymmetric`]) get element checking: the
///   distribution is static, so every skew/shift payload is predicted
///   exactly.
/// * Layouts that do ([`Method::Ca1dCutoff`] / [`Method::Ca2dCutoff`]) get
///   count-only checking (`size_checked = false`) — re-assignment drifts
///   the per-team block sizes between steps, but the window structure (who
///   talks to whom, how many times) is static, re-assignment's own
///   neighbour exchange included. Any placeholder sizes work then; the
///   id-block ones are used.
/// * Methods that run no shift body have no CA schedule twin and return
///   `Err`.
///
/// Each recorded shrink ends the layout before it: its steps up to the
/// shrink's are predicted whole, the shrink's own step on it goes to
/// [`ExpectedSchedule::cut`] (and into `channels`), and the survivors'
/// layout, at the recorded replication and particle count, takes over
/// from that step, which they evaluate again. A step re-assigns before
/// its evaluation, so the launch layout made that step's re-assignment in
/// full and the survivors, dealt their blocks afresh, make none in it.
pub fn expected_schedule(spec: &WireScheduleSpec) -> Result<ExpectedSchedule, String> {
    if !spec.method.is_ca() {
        return Err(spec.method.not_ca());
    }
    let (domain, boundary, cutoff) = (&spec.domain, spec.boundary, spec.cutoff);
    let launch = Layout::new(spec.method, spec.p, domain, boundary, cutoff)?;
    let (mut method, mut layout, mut n) = (spec.method, launch, spec.n);
    // Whether the current layout's first step follows a fresh deal, and
    // so re-assigns nothing.
    let mut dealt = false;
    let mut ranks: Vec<u32> = (0..spec.p as u32).collect();
    let (mut channels, mut cut) = (BTreeMap::new(), BTreeMap::new());
    let mut from = 0;
    for shrink in &spec.shrinks {
        let step = shrink.step;
        // In step order, and particles are only ever lost.
        let fits = from <= step && step < spec.steps as u64 && shrink.n <= n;
        let launched = shrink.survivors.iter().all(|&r| (r as usize) < spec.p);
        let next = method.shrunk_onto(shrink.survivors.len(), domain, boundary, cutoff);
        let Some(next) = next.filter(|(_, l)| fits && launched && l.grid.c() == shrink.c) else {
            return Err(format!("{shrink:?} is not a shrink this run can make"));
        };
        let steps = step - from + 1;
        add_sends(&layout, n, &ranks, steps, dealt, spec.newton, &mut channels);
        add_sends(&layout, n, &ranks, 1, false, spec.newton, &mut cut);
        (method, layout, dealt) = (next.0, next.1, true);
        (ranks, n, from) = (shrink.survivors.clone(), shrink.n, step);
    }
    let steps = spec.steps as u64 - from;
    add_sends(&layout, n, &ranks, steps, dealt, spec.newton, &mut channels);
    let layout = launch;
    let mut detail = format!(
        "{}{} n={} p={} c={} steps={}",
        layout.name,
        if spec.boundary == Boundary::Periodic {
            " (periodic)"
        } else {
            ""
        },
        spec.n,
        spec.p,
        layout.grid.c(),
        spec.steps
    );
    if let Some(r_c) = spec.cutoff {
        detail.push_str(&format!(" cutoff={r_c}"));
    }
    for s in &spec.shrinks {
        detail.push_str(&format!(
            ", shrank at step {} onto p'={} c'={}",
            s.step,
            s.survivors.len(),
            s.c
        ));
    }
    Ok(ExpectedSchedule {
        channels,
        cut,
        size_checked: layout.neighbourhood().is_none(),
        detail,
    })
}

/// Add `steps` timesteps of `layout`'s schedule on `n` particles, under a
/// law that promises `newton` or not, to `into`, its rank `i` being launch
/// rank `ranks[i]`; the first step without its re-assignment when it
/// follows a fresh deal (`dealt`).
fn add_sends(
    layout: &Layout,
    n: usize,
    ranks: &[u32],
    steps: u64,
    dealt: bool,
    newton: bool,
    into: &mut BTreeMap<Channel, Sends>,
) {
    if steps == 0 {
        return;
    }
    let params = layout.schedule(id_block_sizes(n, layout.grid.teams()), newton);
    for (rank, &src) in ranks.iter().enumerate() {
        for op in params.program(rank) {
            if let Op::Send { to, bytes, phase } = op {
                let times = steps - u64::from(dealt && phase == Phase::Reassign);
                let dst = ranks[to];
                let sends = into.entry(Channel { src, dst, phase }).or_default();
                sends.messages += times;
                sends.elements += times * (bytes / PARTICLE_WIRE_BYTES as u64);
            }
        }
    }
}

/// What each channel of a recorded run carried: the per-peer
/// `comm_send_messages` / `comm_send_elements` samples of its snapshot.
fn observed_channels(snapshot: &MetricsSnapshot) -> BTreeMap<Channel, Sends> {
    let mut channels: BTreeMap<Channel, Sends> = BTreeMap::new();
    for r in &snapshot.ranks {
        for s in &r.counters {
            let (Some(phase), Some(dst)) = (s.phase, s.peer) else {
                continue;
            };
            let channel = Channel {
                src: r.rank,
                dst,
                phase,
            };
            match s.name.as_str() {
                "comm_send_messages" => channels.entry(channel).or_default().messages += s.value,
                "comm_send_elements" => channels.entry(channel).or_default().elements += s.value,
                _ => {}
            }
        }
    }
    channels
}

/// How a channel's totals deviated from the schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// Fewer messages than predicted.
    Missing,
    /// More messages than predicted, or any on a channel the schedule
    /// does not send on.
    Unexpected,
    /// The predicted number of messages carrying another number of
    /// elements (checked only where sizes are predicted exactly).
    Elements,
}

impl ViolationKind {
    /// Stable label for tables.
    pub fn label(self) -> &'static str {
        match self {
            ViolationKind::Missing => "missing",
            ViolationKind::Unexpected => "unexpected",
            ViolationKind::Elements => "elements",
        }
    }
}

/// One channel that deviated from the schedule, possibly attributed to an
/// injected fault.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Discrepancy class.
    pub kind: ViolationKind,
    /// The affected channel.
    pub channel: Channel,
    /// Predicted total: messages, or elements for [`ViolationKind::Elements`].
    pub expected: u64,
    /// Observed total, in the same unit.
    pub observed: u64,
    /// Fault attribution: `Some(reason)` means the discrepancy is
    /// explained by the fault plan and is not a bug.
    pub explained: Option<String>,
}

/// The diff of a run's ledger against its schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct ConformanceReport {
    /// Schedule parameters the expectations came from.
    pub detail: String,
    /// Every channel either side sends on, as `(channel, expected,
    /// observed)`, in channel order.
    pub channels: Vec<(Channel, Sends, Sends)>,
    /// Every channel that deviated, explained or not.
    pub violations: Vec<Violation>,
}

impl ConformanceReport {
    /// Messages the schedule predicts.
    pub fn expected_msgs(&self) -> u64 {
        self.channels.iter().map(|(_, e, _)| e.messages).sum()
    }

    /// Messages the ledger counted.
    pub fn observed_msgs(&self) -> u64 {
        self.channels.iter().map(|(_, _, o)| o.messages).sum()
    }

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

    /// `PASS` when every discrepancy is explained, else `FAIL`. The counts
    /// are exact, so there is no third verdict.
    pub fn verdict(&self) -> &'static str {
        if self.unexplained() == 0 {
            "PASS"
        } else {
            "FAIL"
        }
    }

    /// The channels folded per phase: `(phase, expected messages, observed
    /// messages)` for every phase either side sends in.
    pub fn sends_by_phase(&self) -> Vec<(Phase, u64, u64)> {
        ALL_PHASES
            .into_iter()
            .map(|phase| {
                let on = self.channels.iter().filter(|(c, ..)| c.phase == phase);
                on.fold((phase, 0, 0), |(_, e, o), (_, x, y)| {
                    (phase, e + x.messages, o + y.messages)
                })
            })
            .filter(|&(_, e, o)| e > 0 || o > 0)
            .collect()
    }

    /// The table `ca-nbody analyze` prints: the totals, the sends folded
    /// per phase, every violation with its attribution, and the verdict.
    pub fn render(&self) -> String {
        let mut out = format!("schedule conformance: {}\n", self.detail);
        out.push_str(&format!(
            "expected {} msgs, observed {} msgs on {} channels\n",
            self.expected_msgs(),
            self.observed_msgs(),
            self.channels.len()
        ));
        out.push_str(
            "  wire messages (observed in the ledger vs predicted by the schedule, whole run)\n",
        );
        out.push_str(&format!(
            "  {:<11} {:>12} {:>12} {:>8}\n",
            "phase", "predicted", "observed", "delta"
        ));
        for (phase, predicted, sent) in self.sends_by_phase() {
            let delta = sent as i64 - predicted as i64;
            let phase = phase.label();
            out.push_str(&format!(
                "  {phase:<11} {predicted:>12} {sent:>12} {delta:>+8}\n"
            ));
        }
        if self.violations.is_empty() {
            out.push_str("no violations\n");
        } else {
            out.push_str(&format!(
                "\n{:<11} {:<14} {:<10} {:>9} {:>9}  {}\n",
                "violation", "channel", "phase", "expected", "observed", "attribution"
            ));
            for v in &self.violations {
                out.push_str(&format!(
                    "{:<11} {:<14} {:<10} {:>9} {:>9}  {}\n",
                    v.kind.label(),
                    format!("{} -> {}", v.channel.src, v.channel.dst),
                    v.channel.phase.label(),
                    v.expected,
                    v.observed,
                    v.explained.as_deref().unwrap_or("UNEXPLAINED"),
                ));
            }
            out.push_str(&format!(
                "\n{} violation(s): {} explained by the fault plan, {} unexplained\n",
                self.violations.len(),
                self.explained(),
                self.unexplained()
            ));
        }
        out.push_str(&format!("verdict: {}\n", self.verdict()));
        out
    }
}

/// A wire fault as attribution names it, e.g. `fault_drop:rank3@step1`.
fn describe(e: &FaultEvent) -> String {
    format!("fault_{}:rank{}@step{}", e.kind.label(), e.rank, e.step)
}

/// Diff the sends `snapshot` counted against `expected`, channel by
/// channel, and attribute each deviation to a fault of `plan` where one
/// explains it: missing messages (or wrong element totals) from a rank a
/// drop or kill was aimed at, or within the sends a shrink interrupted
/// (the plan's kill cut that step short); surplus from a rank a duplicate
/// was aimed at, or on a channel the schedule sends on once a fault forced
/// a retry (recovery re-runs a whole pipeline attempt on every channel,
/// and so does the repair of a corrupt replica, a fault that never touches
/// the wire).
pub fn check(
    expected: &ExpectedSchedule,
    snapshot: &MetricsSnapshot,
    plan: &FaultPlan,
) -> ConformanceReport {
    let mut both: BTreeMap<Channel, (Sends, Sends)> = BTreeMap::new();
    for (&channel, &sends) in &expected.channels {
        both.entry(channel).or_default().0 = sends;
    }
    for (channel, sends) in observed_channels(snapshot) {
        both.entry(channel).or_default().1 = sends;
    }
    let wire: Vec<&FaultEvent> = plan.events.iter().filter(|e| e.kind.on_wire()).collect();
    let aimed_at = |src: u32, kinds: &[FaultKind]| {
        let hit = wire
            .iter()
            .find(|e| e.rank == src as usize && kinds.contains(&e.kind));
        hit.map(|e| describe(e))
    };
    let retried = plan
        .events
        .iter()
        .find(|e| e.kind.on_wire() || e.kind == FaultKind::Corrupt)
        .map(describe);
    let killed = wire
        .iter()
        .find(|e| e.kind == FaultKind::Kill)
        .map(|e| describe(e));
    let mut violations = Vec::new();
    for (&channel, &(exp, obs)) in &both {
        let (kind, expected_total, observed_total) = match exp.messages.cmp(&obs.messages) {
            Ordering::Greater => (ViolationKind::Missing, exp.messages, obs.messages),
            Ordering::Less => (ViolationKind::Unexpected, exp.messages, obs.messages),
            Ordering::Equal if expected.size_checked && exp.elements != obs.elements => {
                (ViolationKind::Elements, exp.elements, obs.elements)
            }
            Ordering::Equal => continue,
        };
        let lossy = || aimed_at(channel.src, &[FaultKind::Drop, FaultKind::Kill]);
        // A shortfall no larger than the interrupted step's sends.
        let cut = expected.cut.get(&channel).map_or(0, |s| s.messages);
        let cut_short = || {
            let within = cut > 0 && obs.messages + cut >= exp.messages;
            let f = killed.as_ref().filter(|_| within)?;
            Some(format!(
                "step cut short when the world shrank after injected {f}"
            ))
        };
        let explained = match kind {
            ViolationKind::Missing => lossy()
                .map(|f| format!("message suppressed by injected {f}"))
                .or_else(cut_short),
            ViolationKind::Elements => lossy()
                .map(|f| format!("attempt truncated by injected {f}"))
                .or_else(cut_short),
            ViolationKind::Unexpected => {
                match (aimed_at(channel.src, &[FaultKind::Duplicate]), &retried) {
                    (Some(f), _) => Some(format!("surplus copy from injected {f}")),
                    (None, Some(f)) if exp.messages > 0 => Some(format!(
                        "retransmission from recovery retry triggered by {f}"
                    )),
                    _ => None,
                }
            }
        };
        violations.push(Violation {
            kind,
            channel,
            expected: expected_total,
            observed: observed_total,
            explained,
        });
    }
    ConformanceReport {
        detail: expected.detail.clone(),
        channels: both.into_iter().map(|(c, (e, o))| (c, e, o)).collect(),
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbody_comm::{CommStats, MetricsRecorder};

    fn spec(method: Method, n: usize, p: usize, steps: usize) -> WireScheduleSpec {
        WireScheduleSpec {
            method,
            n,
            p,
            steps,
            domain: Domain::unit(),
            boundary: Boundary::Reflective,
            cutoff: None,
            newton: false,
            shrinks: Vec::new(),
        }
    }

    fn messages(s: &ExpectedSchedule, phase: Phase) -> u64 {
        let on = s.channels.iter().filter(|(c, _)| c.phase == phase);
        on.map(|(_, sends)| sends.messages).sum()
    }

    #[test]
    fn all_pairs_schedule_counts_scale_with_steps() {
        // p=4 c=1: 4 teams, 4 shift steps, no skew -> 16 sends/step.
        let one = expected_schedule(&spec(Method::CaAllPairs { c: 1 }, 32, 4, 1)).unwrap();
        assert!(one.size_checked);
        assert_eq!(messages(&one, Phase::Shift), 16);
        assert!(one.channels.keys().all(|c| c.phase == Phase::Shift));
        let per_message = one.channels.values().map(|s| s.elements / s.messages);
        assert!(
            per_message.into_iter().all(|e| e == 8),
            "32/4 particles each"
        );
        let three = expected_schedule(&spec(Method::CaAllPairs { c: 1 }, 32, 4, 3)).unwrap();
        assert_eq!(messages(&three, Phase::Shift), 48);
        assert_eq!(three.channels.len(), one.channels.len());
    }

    #[test]
    fn replicated_all_pairs_schedule_includes_skew() {
        // p=8 c=2: 4 teams, rows k=1 skew (4 sends), 2 shift steps x 8.
        let s = expected_schedule(&spec(Method::CaAllPairs { c: 2 }, 24, 8, 1)).unwrap();
        assert_eq!(messages(&s, Phase::Skew), 4);
        assert_eq!(messages(&s, Phase::Shift), 16);
    }

    #[test]
    fn cutoff_schedule_is_count_only() {
        let mut sp = spec(Method::Ca1dCutoff { c: 1 }, 40, 4, 2);
        sp.cutoff = Some(0.25);
        let s = expected_schedule(&sp).unwrap();
        assert!(!s.size_checked);
        // Four clipped slabs: 1 + 2 + 2 + 1 re-assign sends in each step.
        assert_eq!(messages(&s, Phase::Reassign), 2 * 6);
        assert!(s.detail.contains("ca-1d-cutoff"));
    }

    #[test]
    fn cutoff_without_radius_is_rejected() {
        let sp = spec(Method::Ca1dCutoff { c: 1 }, 40, 4, 2);
        assert!(expected_schedule(&sp).is_err());
    }

    #[test]
    fn unsupported_methods_are_rejected() {
        let err = expected_schedule(&spec(Method::NaiveAllgather, 16, 4, 1)).unwrap_err();
        assert!(err.contains("no communication-schedule twin"));
    }

    /// The snapshot of a run whose ranks sent `sends`, one message of
    /// `elements` per `(src, dst, phase, elements)`, through the ledger.
    fn snapshot(sends: &[(u32, u32, Phase, usize)]) -> MetricsSnapshot {
        let p = sends.iter().map(|s| s.0 as usize + 1).max().unwrap_or(0);
        let shards = (0..p).map(|rank| {
            let mut stats = CommStats::new();
            for &(_, dst, phase, elements) in sends.iter().filter(|s| s.0 as usize == rank) {
                stats.set_phase(phase);
                stats.record_send(dst as usize, elements, elements * 32);
            }
            let rec = MetricsRecorder::for_rank(rank);
            stats.export(&rec);
            rec.finish()
        });
        MetricsSnapshot::from_shards(shards.collect())
    }

    /// A size-checked schedule of `(src, dst, messages, elements)` shifts.
    fn expected(channels: &[(u32, u32, u64, u64)]) -> ExpectedSchedule {
        let channels = channels.iter().map(|&(src, dst, messages, elements)| {
            let channel = Channel {
                src,
                dst,
                phase: Phase::Shift,
            };
            (channel, Sends { messages, elements })
        });
        ExpectedSchedule {
            channels: channels.collect(),
            cut: BTreeMap::new(),
            size_checked: true,
            detail: "test".into(),
        }
    }

    fn plan(spec: &str) -> FaultPlan {
        FaultPlan::parse(spec).unwrap()
    }

    #[test]
    fn matching_traffic_conforms() {
        let exp = expected(&[(0, 1, 2, 22)]);
        let obs = snapshot(&[(0, 1, Phase::Shift, 10), (0, 1, Phase::Shift, 12)]);
        let report = check(&exp, &obs, &FaultPlan::empty());
        assert_eq!(report.verdict(), "PASS");
        assert_eq!((report.expected_msgs(), report.observed_msgs()), (2, 2));
        assert!(report.violations.is_empty());
        let text = report.render();
        assert!(text.contains("schedule conformance: test"), "{text}");
        assert!(text.contains("no violations"), "{text}");
        assert!(text.contains("verdict: PASS"), "{text}");
    }

    #[test]
    fn every_phase_is_checked_and_folds_into_the_phase_totals() {
        // A send in a phase the schedule has none in is surplus, whatever
        // the phase.
        let exp = expected(&[(0, 1, 1, 10)]);
        let obs = snapshot(&[(0, 1, Phase::Shift, 10), (0, 2, Phase::Other, 99)]);
        let report = check(&exp, &obs, &FaultPlan::empty());
        assert_eq!(report.violations.len(), 1);
        let v = &report.violations[0];
        assert_eq!(
            (v.kind, v.channel.phase),
            (ViolationKind::Unexpected, Phase::Other)
        );
        assert_eq!(
            report.sends_by_phase(),
            vec![(Phase::Shift, 1, 1), (Phase::Other, 0, 1)]
        );
        assert_eq!(report.verdict(), "FAIL");
    }

    #[test]
    fn missing_message_fails_without_faults() {
        let exp = expected(&[(0, 1, 2, 22)]);
        let obs = snapshot(&[(0, 1, Phase::Shift, 10)]);
        let report = check(&exp, &obs, &FaultPlan::empty());
        assert_eq!(report.violations.len(), 1);
        let v = &report.violations[0];
        assert_eq!(
            (v.kind, v.expected, v.observed),
            (ViolationKind::Missing, 2, 1)
        );
        assert_eq!(report.unexplained(), 1);
        assert_eq!(report.verdict(), "FAIL");
        let text = report.render();
        assert!(text.contains("missing"), "{text}");
        assert!(text.contains("UNEXPLAINED"), "{text}");
    }

    #[test]
    fn a_drop_explains_the_missing_messages_of_its_rank_only() {
        let exp = expected(&[(0, 1, 1, 10)]);
        let obs = snapshot(&[]);
        let report = check(&exp, &obs, &plan("drop:0@0"));
        assert_eq!(report.violations.len(), 1);
        let why = report.violations[0].explained.as_deref().unwrap();
        assert!(why.contains("fault_drop:rank0@step0"), "{why}");
        assert_eq!(report.verdict(), "PASS", "explained violations still pass");
        let text = report.render();
        assert!(
            text.contains("1 explained by the fault plan, 0 unexplained"),
            "{text}"
        );
        // A drop at a different rank, or a fault the driver fires, explains
        // nothing.
        for other in ["drop:3@0", "nan:0@0"] {
            assert_eq!(check(&exp, &obs, &plan(other)).unexplained(), 1, "{other}");
        }
    }

    #[test]
    fn retransmissions_are_attributed_to_a_fault_and_only_to_one() {
        // Recovery re-runs the attempt: the channel carries its message
        // twice. With a wire fault on record that is a retransmission.
        let exp = expected(&[(0, 1, 1, 10)]);
        let obs = snapshot(&[(0, 1, Phase::Shift, 10), (0, 1, Phase::Shift, 10)]);
        let report = check(&exp, &obs, &plan("drop:2@1"));
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].kind, ViolationKind::Unexpected);
        let why = report.violations[0].explained.as_deref().unwrap();
        assert!(why.contains("fault_drop:rank2@step1"), "{why}");
        // The same surplus without any fault on record is a real bug.
        assert_eq!(check(&exp, &obs, &FaultPlan::empty()).verdict(), "FAIL");
        // A duplicate at the sender explains it too.
        let report = check(&exp, &obs, &plan("dup:0@1"));
        let why = report.violations[0].explained.as_deref().unwrap();
        assert!(why.contains("surplus copy from injected fault_dup:rank0@step1"));
    }

    #[test]
    fn a_corrupt_replica_explains_retransmissions_and_nothing_else() {
        // The repair re-runs the attempt as a wire fault's retry does.
        let exp = expected(&[(0, 1, 1, 10), (0, 2, 1, 10)]);
        let twice = snapshot(&[(0, 1, Phase::Shift, 10), (0, 1, Phase::Shift, 10)]);
        let report = check(&exp, &twice, &plan("corrupt:4@2"));
        let why: Vec<_> = report
            .violations
            .iter()
            .map(|v| (v.kind, v.explained.as_deref()))
            .collect();
        let retry = "retransmission from recovery retry triggered by fault_corrupt:rank4@step2";
        // It suppresses no message, truncates no attempt, and sends on no
        // channel the schedule lacks.
        assert_eq!(
            why,
            [
                (ViolationKind::Unexpected, Some(retry)),
                (ViolationKind::Missing, None)
            ]
        );
        let short = snapshot(&[(0, 1, Phase::Shift, 3), (0, 2, Phase::Shift, 10)]);
        assert_eq!(check(&exp, &short, &plan("corrupt:4@2")).unexplained(), 1);
        let stray = [
            (0, 1, Phase::Shift, 10),
            (0, 2, Phase::Shift, 10),
            (0, 3, Phase::Shift, 10),
        ];
        assert_eq!(
            check(&exp, &snapshot(&stray), &plan("corrupt:4@2")).unexplained(),
            1
        );
    }

    #[test]
    fn a_channel_the_schedule_never_sends_on_stays_unexplained_after_a_retry() {
        let exp = expected(&[(0, 1, 1, 10)]);
        let obs = snapshot(&[(0, 1, Phase::Shift, 10), (0, 2, Phase::Shift, 10)]);
        assert_eq!(check(&exp, &obs, &plan("drop:2@0")).unexplained(), 1);
    }

    #[test]
    fn a_shrunk_run_is_the_launch_layout_then_the_survivors_in_launch_ranks() {
        // p = 4, c = 1: the ring 0 -> 1 -> 2 -> 3 -> 0 shifts 4 times a step
        // on each channel. At step 1 team 2 dies and launch ranks 0, 1, 3
        // ring on, 3 shifts a step, their 48 particles 16 to a block.
        let mut sp = spec(Method::CaAllPairs { c: 1 }, 64, 4, 3);
        let shrink = Shrink {
            step: 1,
            survivors: vec![0, 1, 3],
            c: 1,
            n: 48,
        };
        sp.shrinks = vec![shrink.clone()];
        let s = expected_schedule(&sp).unwrap();
        let sends = |src, dst| {
            let on = s
                .channels
                .iter()
                .find(|(c, _)| (c.src, c.dst) == (src, dst));
            on.map(|(_, sends)| (sends.messages, sends.elements))
        };
        // Step 0 whole (4), step 1 cut short (4), steps 1 and 2 on the
        // survivors (2 x 3).
        assert_eq!(sends(0, 1).map(|s| s.0), Some(4 + 4 + 6));
        assert_eq!(sends(1, 2).map(|s| s.0), Some(4 + 4));
        assert_eq!(sends(1, 3), Some((6, 6 * 16)));
        assert_eq!(s.cut.values().map(|c| c.messages).sum::<u64>(), 4 * 4);
        assert!(s.detail.ends_with(", shrank at step 1 onto p'=3 c'=1"));

        // The run: step 0 whole, team 2's loss cuts step 1 short after 2,
        // 1, 0 and 1 sends, the survivors evaluate it again and go on.
        let sent: Vec<_> = [(0, 1, 12), (1, 2, 5), (2, 3, 4), (3, 0, 11), (1, 3, 6)]
            .into_iter()
            .flat_map(|(src, dst, k)| std::iter::repeat_n((src, dst, Phase::Shift, 16), k))
            .collect();
        let obs = snapshot(&sent);
        let report = check(&s, &obs, &plan("kill:2@1"));
        assert_eq!((report.verdict(), report.violations.len()), ("PASS", 4));
        for v in &report.violations {
            let why = v.explained.as_deref().unwrap();
            assert!(why.contains("fault_kill:rank2@step1"), "{why}");
        }
        // No kill on record, or a shortfall past the cut step: a FAIL.
        assert_eq!(check(&s, &obs, &FaultPlan::empty()).unexplained(), 4);
        let short = snapshot(&sent[5..]);
        assert_eq!(check(&s, &short, &plan("kill:2@1")).unexplained(), 1);

        // A shrink the policy would not make, onto no launch rank, out of
        // step order or gaining particles is an error, not a schedule.
        let mut bad = [shrink.clone(), shrink.clone(), shrink.clone(), shrink];
        (bad[0].c, bad[1].survivors[2], bad[2].step, bad[3].n) = (2, 4, 3, 65);
        for bad in bad {
            sp.shrinks = vec![bad];
            assert!(expected_schedule(&sp).is_err());
        }
    }

    #[test]
    fn element_totals_are_checked_where_sizes_are_predicted() {
        let mut exp = expected(&[(0, 1, 2, 20)]);
        let obs = snapshot(&[(0, 1, Phase::Shift, 3), (0, 1, Phase::Shift, 4)]);
        let report = check(&exp, &obs, &FaultPlan::empty());
        assert_eq!(report.violations.len(), 1);
        let v = &report.violations[0];
        assert_eq!(
            (v.kind, v.expected, v.observed),
            (ViolationKind::Elements, 20, 7)
        );
        // Count-only: the same messages conform, a missing one does not.
        exp.size_checked = false;
        assert_eq!(check(&exp, &obs, &FaultPlan::empty()).verdict(), "PASS");
        let short = snapshot(&[(0, 1, Phase::Shift, 3)]);
        let report = check(&exp, &short, &FaultPlan::empty());
        assert_eq!(report.violations[0].kind, ViolationKind::Missing);
    }
}
