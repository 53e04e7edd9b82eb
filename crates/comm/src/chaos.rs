//! Deterministic fault injection: the fault plan and the chaos communicator.
//!
//! A [`FaultPlan`] is the one description of what a run injects. Its wire
//! kinds are aimed at `(world rank, pipeline step)` coordinates and applied
//! by [`ChaosComm`], which wraps any [`Communicator`] and perturbs its
//! point-to-point traffic:
//!
//! * **Drop** — the scheduled send silently vanishes; the receiver's
//!   `try_recv_timeout` expires and the recovery layer retries.
//! * **Delay** — the send is withheld for a fixed number of milliseconds
//!   (must stay under the driver's receive deadline to be benign).
//! * **Duplicate** — the message is sent twice; relaxed tag matching at the
//!   endpoint leaves the second copy unconsumed.
//! * **Kill** — the rank "crashes" at the start of step `k`: its pending
//!   sends stop reaching the wire and every receive it posts fails with
//!   [`CommError::PeerDead`]. The thread itself stays alive so it can act
//!   as the *replacement process* during recovery (`fault_revive`).
//!
//! The plan's other kinds never touch the wire: the fault-tolerant driver
//! reads them and fires them itself (a NaN force, a corrupt replica, a
//! process crash; see [`FaultKind`]).
//!
//! Faults only strike while the rank's current phase is `Skew` or `Shift` —
//! the systolic pipeline the paper's algorithms spend their communication
//! in — so collectives (broadcast, reduce, recovery agreement) always run
//! clean. Every event fires at most once per execution: a retried pipeline
//! does not re-lose the same message, which models transient faults and
//! one-time crashes rather than a persistently broken link.
//!
//! Chaos executions run with *relaxed* tag matching on the fabric
//! ([`run_ranks_chaos`]), so messages abandoned by an aborted attempt are
//! skipped by tag instead of tripping the strict-mode protocol assertion.

use std::cell::Cell;
use std::rc::Rc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::communicator::{CommData, Communicator};
use crate::error::CommError;
use crate::stats::{CommStats, Phase};
use crate::thread_comm::{run_ranks_owned, Artifacts, Lenses, ThreadComm};
use nbody_metrics::MetricsRecorder;
use nbody_timeline::{EventKind, TimelineRecorder};
use nbody_trace::Tracer;
use nbody_wireprobe::ProbeRecorder;

/// What a scheduled fault does, and so which coordinate its `step` names.
///
/// The first four are the wire kinds: [`ChaosComm`] applies them at a
/// pipeline step (0 = skew, ≥ 1 the shift loop) of the first evaluation
/// that reaches it. The fault-tolerant driver fires the other three.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The targeted send never reaches the wire.
    Drop,
    /// The targeted send is withheld for [`FaultEvent::delay_ms`].
    Delay,
    /// The targeted send is transmitted twice.
    Duplicate,
    /// The rank crashes at the start of the targeted step.
    Kill,
    /// A NaN is written into the rank's first force accumulator after the
    /// force reduction of timestep `step`, which the health monitors must
    /// check; the non-finite sentinel must blame it.
    Nan,
    /// One mantissa bit of the rank's first particle flips in its replica
    /// checkpoint at the start of timestep `step`; the checkpoint's digest
    /// must catch it, and the copy is repaired like a dead rank's.
    Corrupt,
    /// The process exits with code 137 (the SIGKILL code) right after the
    /// checkpoint of global step `step` is durable; the run needs a
    /// checkpoint sink. It has no rank: rank 0 writes the bundles.
    Crash,
}

impl FaultKind {
    /// Spec-grammar name (`kill:1@2` etc.).
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::Drop => "drop",
            FaultKind::Delay => "delay",
            FaultKind::Duplicate => "dup",
            FaultKind::Kill => "kill",
            FaultKind::Nan => "nan",
            FaultKind::Corrupt => "corrupt",
            FaultKind::Crash => "crash",
        }
    }

    /// Count one fired fault of this kind, at `step`, the way every kind
    /// is counted: `fault_injected_total` and the kind's own
    /// `fault_injected_<kind>` counter go up by one, and a `FaultInjected`
    /// event goes into the flight ring. [`ChaosComm`] counts the wire kinds
    /// it fires, the fault-tolerant driver the `nan` and `corrupt` it does.
    pub fn count_fired(self, metrics: &MetricsRecorder, timeline: &TimelineRecorder, step: u64) {
        let counter = match self {
            FaultKind::Drop => "fault_injected_drop",
            FaultKind::Delay => "fault_injected_delay",
            FaultKind::Duplicate => "fault_injected_duplicate",
            FaultKind::Kill => "fault_injected_kill",
            FaultKind::Nan => "fault_injected_nan",
            FaultKind::Corrupt => "fault_injected_corrupt",
            FaultKind::Crash => "fault_injected_crash",
        };
        for name in ["fault_injected_total", counter] {
            metrics.counter(name, None).inc();
        }
        timeline.event(EventKind::FaultInjected, Some(step), self.label());
    }

    /// The kinds [`ChaosComm`] applies on the wire; the driver fires the
    /// others, which never touch it.
    pub const WIRE: [FaultKind; 4] = [Self::Kill, Self::Drop, Self::Duplicate, Self::Delay];

    /// Whether this kind is one of [`WIRE`](Self::WIRE).
    pub fn on_wire(self) -> bool {
        Self::WIRE.contains(&self)
    }
}

/// One scheduled fault: `kind` strikes world rank `rank` at `step`, the
/// coordinate its [`FaultKind`] names (a pipeline step for the wire kinds,
/// a timestep for `nan` and `corrupt`, a global step for `crash`). Fires
/// at most once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// World rank the fault strikes (0 for a crash).
    pub rank: usize,
    /// Step the fault is aimed at, in its kind's coordinate.
    pub step: usize,
    /// What happens.
    pub kind: FaultKind,
    /// Withholding time for [`FaultKind::Delay`] events (ignored otherwise).
    pub delay_ms: u64,
}

impl FaultEvent {
    /// The event in the [`FaultPlan::parse`] grammar.
    pub fn spec(&self) -> String {
        let (kind, rank, step) = (self.kind.label(), self.rank, self.step);
        match self.kind {
            FaultKind::Delay => format!("{kind}:{rank}@{step}:{}", self.delay_ms),
            FaultKind::Crash => format!("{kind}@{step}"),
            _ => format!("{kind}:{rank}@{step}"),
        }
    }
}

/// A deterministic schedule of faults, applied identically on every run:
/// the one description of what a run injects.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The scheduled events, in no particular order.
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// A plan that injects nothing (the fault-free baseline).
    pub fn empty() -> FaultPlan {
        FaultPlan::default()
    }

    /// Convenience: a single kill of `rank` at step `step`.
    pub fn kill(rank: usize, step: usize) -> FaultPlan {
        FaultPlan {
            events: vec![FaultEvent {
                rank,
                step,
                kind: FaultKind::Kill,
                delay_ms: 0,
            }],
        }
    }

    /// True when the plan contains at least one event of `kind`.
    pub fn holds(&self, kind: FaultKind) -> bool {
        self.events.iter().any(|e| e.kind == kind)
    }

    /// Whether the plan aims an event of `kind` at `(rank, step)`.
    pub fn aims(&self, kind: FaultKind, rank: usize, step: u64) -> bool {
        self.events
            .iter()
            .any(|e| e.kind == kind && e.rank == rank && e.step as u64 == step)
    }

    /// True when the plan holds a `nan` or a `corrupt`: faults only the
    /// health monitors observe, so a run under this plan runs them.
    pub fn needs_monitors(&self) -> bool {
        self.holds(FaultKind::Nan) || self.holds(FaultKind::Corrupt)
    }

    /// Parse a comma-separated spec. An entry is `kind:rank@step` with
    /// kinds `kill | drop | dup | delay | nan | corrupt`, or `crash@step`;
    /// `delay` takes a trailing `:milliseconds` (default 5). Examples:
    /// `kill:1@2`, `drop:0@1,dup:3@2,delay:2@3:8`, `kill:5@1,nan:0@2`,
    /// `crash@4`. Each kind's `step` is the coordinate [`FaultKind`] names.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut events = Vec::new();
        for entry in spec.split(',').map(str::trim).filter(|e| !e.is_empty()) {
            let bad = |what: &str| format!("fault `{entry}`: {what}");
            let kind_str = entry.split([':', '@']).next().unwrap_or_default();
            let kind = match kind_str {
                "kill" => FaultKind::Kill,
                "drop" => FaultKind::Drop,
                "dup" => FaultKind::Duplicate,
                "delay" => FaultKind::Delay,
                "nan" => FaultKind::Nan,
                "corrupt" => FaultKind::Corrupt,
                "crash" => FaultKind::Crash,
                other => {
                    return Err(bad(&format!(
                        "unknown kind `{other}` (want kill|drop|dup|delay|nan|corrupt|crash)"
                    )))
                }
            };
            let rest = &entry[kind_str.len()..];
            let (rank, rest) = if kind == FaultKind::Crash {
                let step = rest.strip_prefix('@');
                (0, step.ok_or_else(|| bad("expected crash@step"))?)
            } else {
                let coord = rest.strip_prefix(':');
                let coord = coord.ok_or_else(|| bad("expected kind:rank@step"))?;
                let (rank, step) = coord
                    .split_once('@')
                    .ok_or_else(|| bad("expected rank@step"))?;
                (rank.parse::<usize>().map_err(|_| bad("bad rank"))?, step)
            };
            let (step, delay_ms) = match (kind, rest.split_once(':')) {
                (FaultKind::Delay, Some((step, ms))) => {
                    let ms = ms.parse::<u64>();
                    (step, ms.map_err(|_| bad("bad delay milliseconds"))?)
                }
                (FaultKind::Delay, None) => (rest, 5),
                (_, Some(_)) => return Err(bad("only delay takes a :ms suffix")),
                (_, None) => (rest, 0),
            };
            events.push(FaultEvent {
                rank,
                step: step.parse::<usize>().map_err(|_| bad("bad step"))?,
                kind,
                delay_ms,
            });
        }
        Ok(FaultPlan { events })
    }

    /// Refuse, naming it, the first event that could never fire in a run
    /// of `p` ranks in `teams` teams, resumed after `base` of its `steps`
    /// global steps, whose health monitors check every `health_every`-th
    /// timestep: a rank `≥ p`; a `nan` aimed at a replica (a rank
    /// `≥ teams`, which holds no particles when the forces are checked); a
    /// `nan` or `corrupt` at a timestep past the run's last; a `nan` on a
    /// timestep the monitors skip; a `crash` outside `base + 1..=steps`.
    /// Pipeline steps are not bounded: rows run different step counts, and
    /// a kill aimed past a row's last step legitimately never fires.
    pub fn check(
        &self,
        p: usize,
        teams: usize,
        base: u64,
        steps: u64,
        health_every: u64,
    ) -> Result<(), String> {
        let timesteps = steps.saturating_sub(base);
        for e in &self.events {
            let step = e.step as u64;
            let why = match e.kind {
                _ if e.rank >= p => format!("rank {} does not exist with p={p}", e.rank),
                FaultKind::Nan if e.rank >= teams => format!(
                    "rank {} is a replica (ranks >= p/c = {teams}) and holds no forces to check",
                    e.rank
                ),
                FaultKind::Nan | FaultKind::Corrupt if step >= timesteps => {
                    format!("timestep {step} is not in this run's 0..{timesteps}")
                }
                FaultKind::Nan if !step.is_multiple_of(health_every.max(1)) => {
                    format!("the health monitors check only timesteps divisible by {health_every}")
                }
                FaultKind::Crash if step <= base || step > steps => {
                    format!(
                        "global step {step} is not in this run's {}..={steps}",
                        base + 1
                    )
                }
                _ => continue,
            };
            return Err(format!("fault `{}` never fires: {why}", e.spec()));
        }
        Ok(())
    }

    /// Render the plan back into the [`parse`](FaultPlan::parse) grammar.
    pub fn spec(&self) -> String {
        self.events
            .iter()
            .map(FaultEvent::spec)
            .collect::<Vec<_>>()
            .join(",")
    }

    /// Deterministically generate `n_events` faults from `seed`, drawing
    /// ranks from `0..p`, steps from `0..=max_step`, and kinds from
    /// `kinds`. Delay events get 1–9 ms withholding times — small enough
    /// to stay far below any sane receive deadline.
    pub fn seeded(
        seed: u64,
        p: usize,
        max_step: usize,
        n_events: usize,
        kinds: &[FaultKind],
    ) -> FaultPlan {
        assert!(
            p > 0 && !kinds.is_empty(),
            "seeded plan needs ranks and kinds"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let events = (0..n_events)
            .map(|_| {
                let kind = kinds[rng.gen_range(0..kinds.len())];
                FaultEvent {
                    rank: rng.gen_range(0..p),
                    step: rng.gen_range(0..max_step + 1),
                    kind,
                    delay_ms: if kind == FaultKind::Delay {
                        rng.gen_range(1..10)
                    } else {
                        0
                    },
                }
            })
            .collect();
        FaultPlan { events }
    }
}

/// Per-rank injection state, shared by every communicator derived from the
/// rank's world handle (so faults aim at world coordinates regardless of
/// which split the traffic flows through).
struct ChaosState {
    world_rank: usize,
    /// The plan's events aimed at this rank.
    events: Vec<FaultEvent>,
    fired: Vec<Cell<bool>>,
    dead: Cell<bool>,
    step: Cell<usize>,
    phase: Cell<Phase>,
    metrics: MetricsRecorder,
    timeline: TimelineRecorder,
}

impl ChaosState {
    /// Fire the first unfired event aimed at `step` whose kind `wanted`
    /// accepts, and count it ([`FaultKind::count_fired`]).
    fn fire(&self, step: usize, wanted: impl Fn(FaultKind) -> bool) -> Option<FaultEvent> {
        let (e, fired) = self
            .events
            .iter()
            .zip(&self.fired)
            .find(|(e, fired)| !fired.get() && e.step == step && wanted(e.kind))?;
        fired.set(true);
        e.kind
            .count_fired(&self.metrics, &self.timeline, step as u64);
        Some(*e)
    }

    /// Consume the next unfired point-to-point event aimed at the current
    /// `(rank, step)` coordinate, if the rank is inside an injectable
    /// phase window.
    fn take_p2p_event(&self) -> Option<FaultEvent> {
        if !matches!(self.phase.get(), Phase::Skew | Phase::Shift) {
            return None;
        }
        self.fire(self.step.get(), |kind| kind != FaultKind::Kill)
    }

    /// Consume an unfired kill aimed at `(rank, step)`.
    fn take_kill(&self, step: usize) -> bool {
        self.fire(step, |kind| kind == FaultKind::Kill).is_some()
    }
}

/// A fault-injecting wrapper around any transport; see the module docs.
///
/// Splits share the wrapper's injection state, so a grid built from a
/// chaos world keeps aiming faults at world-rank coordinates.
pub struct ChaosComm<C: Communicator> {
    inner: C,
    state: Rc<ChaosState>,
}

impl<C: Communicator> ChaosComm<C> {
    /// Wrap `inner` (a *world* communicator: its rank is used as the fault
    /// plan's world-rank coordinate) with the wire events of `plan`.
    pub fn new(inner: C, plan: &FaultPlan) -> ChaosComm<C> {
        let world_rank = inner.rank();
        let events: Vec<FaultEvent> = plan
            .events
            .iter()
            .copied()
            .filter(|e| e.rank == world_rank && e.kind.on_wire())
            .collect();
        let state = ChaosState {
            world_rank,
            fired: vec![Cell::new(false); events.len()],
            events,
            dead: Cell::new(false),
            step: Cell::new(0),
            phase: Cell::new(Phase::Other),
            metrics: inner.metrics(),
            timeline: inner.timeline(),
        };
        ChaosComm {
            inner,
            state: Rc::new(state),
        }
    }

    /// Whether this rank is currently "crashed" by a fired kill event.
    pub fn is_dead(&self) -> bool {
        self.state.dead.get()
    }

    /// The wrapped transport.
    pub fn inner(&self) -> &C {
        &self.inner
    }

    /// Apply the plan to the point-to-point send about to happen — fire the
    /// next event aimed here, record it, sit out a delay — and say how many
    /// copies of the message reach the wire: none from a dead rank or under
    /// a drop, two under a duplicate, one otherwise. The ledger counts the
    /// copies that do, so a conformance pass sees a fault in the channel
    /// counts and blames it on the plan.
    fn copies_to_send(&self) -> usize {
        if self.state.dead.get() {
            // A crashed rank's messages never reach the wire.
            return 0;
        }
        let Some(e) = self.state.take_p2p_event() else {
            return 1;
        };
        match e.kind {
            FaultKind::Drop => 0,
            FaultKind::Delay => {
                std::thread::sleep(Duration::from_millis(e.delay_ms));
                1
            }
            FaultKind::Duplicate => 2,
            _ => unreachable!("take_p2p_event hands out drops, delays and duplicates only"),
        }
    }
}

impl<C: Communicator> Communicator for ChaosComm<C> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn size(&self) -> usize {
        self.inner.size()
    }

    fn set_phase(&self, phase: Phase) {
        self.state.phase.set(phase);
        self.inner.set_phase(phase);
    }

    fn stats(&self) -> CommStats {
        self.inner.stats()
    }

    fn tracer(&self) -> Tracer {
        self.inner.tracer()
    }

    fn metrics(&self) -> MetricsRecorder {
        self.inner.metrics()
    }

    fn timeline(&self) -> TimelineRecorder {
        self.inner.timeline()
    }

    fn wire(&self) -> ProbeRecorder {
        self.inner.wire()
    }

    fn send<T: CommData>(&self, dst: usize, tag: u64, data: &[T]) {
        for _ in 0..self.copies_to_send() {
            self.inner.send(dst, tag, data);
        }
    }

    fn send_vec<T: CommData>(&self, dst: usize, tag: u64, data: Vec<T>) {
        let copies = self.copies_to_send();
        // Every copy but the last is one: the last is the buffer itself.
        for _ in 1..copies {
            self.inner.send(dst, tag, &data);
        }
        if copies > 0 {
            self.inner.send_vec(dst, tag, data);
        }
    }

    fn recv<T: CommData>(&self, src: usize, tag: u64) -> Vec<T> {
        self.inner.recv(src, tag)
    }

    fn try_recv_timeout<T: CommData>(
        &self,
        src: usize,
        tag: u64,
        timeout: Duration,
    ) -> Result<Vec<T>, CommError> {
        if self.state.dead.get() {
            return Err(CommError::PeerDead {
                rank: self.state.world_rank,
            });
        }
        self.inner.try_recv_timeout(src, tag, timeout)
    }

    fn fault_step(&self, step: usize) -> Result<(), CommError> {
        self.state.step.set(step);
        if self.state.dead.get() || self.state.take_kill(step) {
            self.state.dead.set(true);
            return Err(CommError::PeerDead {
                rank: self.state.world_rank,
            });
        }
        Ok(())
    }

    fn fault_revive(&self) {
        self.state.dead.set(false);
    }

    fn bcast<T: CommData>(&self, root: usize, buf: &mut Vec<T>) {
        self.inner.bcast(root, buf);
    }

    fn reduce<T: CommData>(&self, root: usize, buf: &mut Vec<T>, combine: fn(&mut T, &T)) {
        self.inner.reduce(root, buf, combine);
    }

    fn reduce_vec<T: CommData>(
        &self,
        root: usize,
        buf: Vec<T>,
        combine: fn(&mut T, &T),
    ) -> Option<Vec<T>> {
        self.inner.reduce_vec(root, buf, combine)
    }

    fn gather<T: CommData>(&self, root: usize, data: &[T]) -> Option<Vec<Vec<T>>> {
        self.inner.gather(root, data)
    }

    fn barrier(&self) {
        self.inner.barrier();
    }

    fn split(&self, color: usize, key: usize) -> ChaosComm<C> {
        ChaosComm {
            inner: self.inner.split(color, key),
            state: Rc::clone(&self.state),
        }
    }

    fn split_by(&self, of: impl Fn(usize) -> (usize, usize)) -> ChaosComm<C> {
        ChaosComm {
            inner: self.inner.split_by(of),
            state: Rc::clone(&self.state),
        }
    }
}

/// [`run_ranks`](crate::run_ranks) under fault injection: each rank's world
/// communicator is wrapped in a [`ChaosComm`] carrying its slice of `plan`,
/// and the fabric runs with relaxed tag matching so aborted protocol
/// attempts leave stale messages unconsumed instead of panicking.
pub fn run_ranks_chaos<R, F>(p: usize, plan: &FaultPlan, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(&mut ChaosComm<ThreadComm>) -> R + Sync,
{
    run_ranks_chaos_with(p, plan, Lenses::default(), f).0
}

/// [`run_ranks_chaos`] under the given [`Lenses`], mirroring
/// [`run_ranks_with`](crate::run_ranks_with).
pub fn run_ranks_chaos_with<R, F>(
    p: usize,
    plan: &FaultPlan,
    lenses: Lenses,
    f: F,
) -> (Vec<R>, Artifacts)
where
    R: Send,
    F: Fn(&mut ChaosComm<ThreadComm>) -> R + Sync,
{
    run_ranks_owned(p, true, lenses, |comm| {
        let mut chaos = ChaosComm::new(comm, plan);
        f(&mut chaos)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::ChannelCounters;

    #[test]
    fn plan_parse_roundtrips() {
        let plan = FaultPlan::parse("kill:1@2, drop:0@1,dup:3@2,delay:2@3:8").unwrap();
        assert_eq!(plan.events.len(), 4);
        assert_eq!(
            plan.events[0],
            FaultEvent {
                rank: 1,
                step: 2,
                kind: FaultKind::Kill,
                delay_ms: 0
            }
        );
        assert_eq!(
            plan.events[3],
            FaultEvent {
                rank: 2,
                step: 3,
                kind: FaultKind::Delay,
                delay_ms: 8
            }
        );
        assert!(plan.holds(FaultKind::Kill) && !plan.needs_monitors());
        assert_eq!(FaultPlan::parse(&plan.spec()).unwrap(), plan);
        assert_eq!(FaultPlan::parse("").unwrap(), FaultPlan::empty());
        assert!(!FaultPlan::empty().holds(FaultKind::Kill));
    }

    #[test]
    fn the_driver_kinds_share_the_grammar() {
        let spec = "kill:5@1,nan:0@2,corrupt:4@2,crash@4";
        let plan = FaultPlan::parse(spec).unwrap();
        assert_eq!(plan.spec(), spec);
        let kinds = [FaultKind::Kill, FaultKind::Nan, FaultKind::Corrupt];
        assert!(plan
            .events
            .iter()
            .map(|e| e.kind)
            .eq(kinds.into_iter().chain([FaultKind::Crash])));
        assert!(plan.needs_monitors() && plan.holds(FaultKind::Crash));
        assert!(plan.aims(FaultKind::Nan, 0, 2) && !plan.aims(FaultKind::Nan, 4, 2));
        // Only the kill reaches the wire.
        let on_wire: Vec<_> = plan.events.iter().filter(|e| e.kind.on_wire()).collect();
        assert_eq!(on_wire.len(), 1);
        assert_eq!(on_wire[0].kind, FaultKind::Kill);
    }

    #[test]
    fn a_fault_that_could_never_fire_is_refused_naming_it() {
        // p = 8 ranks in 4 teams: ranks 4..8 are replicas.
        let check =
            |spec: &str, base, every| FaultPlan::parse(spec).unwrap().check(8, 4, base, 3, every);
        for ok in ["kill:7@9", "nan:3@2", "corrupt:4@0", "crash@1", "crash@3"] {
            assert_eq!(check(ok, 0, 1), Ok(()), "{ok}");
        }
        // The monitors check every second timestep; resumed after step 2.
        assert_eq!(
            (check("nan:0@2", 0, 2), check("crash@3", 2, 1)),
            (Ok(()), Ok(()))
        );
        for (bad, base, every) in [
            ("kill:8@1", 0, 1),
            ("drop:99@0", 0, 1),
            ("nan:0@3", 0, 1),
            ("corrupt:4@99", 0, 1),
            ("nan:0@1", 0, 2),
            ("crash@0", 0, 1),
            ("crash@4", 0, 1),
            ("crash@2", 2, 1),
            ("nan:0@1", 2, 1),
            ("nan:4@1", 0, 1),
            ("nan:7@0", 0, 1),
        ] {
            let spec = format!("dup:1@1,{bad}");
            let err = check(&spec, base, every).expect_err(bad);
            assert!(
                err.starts_with(&format!("fault `{bad}` never fires: ")),
                "{err}"
            );
        }
    }

    #[test]
    fn a_chaos_rank_leaves_the_driver_kinds_to_the_driver() {
        let plan = FaultPlan::parse("nan:0@1,corrupt:0@1,crash@1").unwrap();
        let (_, Artifacts { metrics, .. }) =
            run_ranks_chaos_with(1, &plan, Lenses::default(), |comm| {
                comm.set_phase(Phase::Shift);
                comm.fault_step(1).unwrap();
                comm.send(0, 3, &[1u8]);
                comm.recv::<u8>(0, 3)
            });
        assert_eq!(metrics.sum_counter("fault_injected_total", None), 0);
    }

    #[test]
    fn plan_parse_rejects_malformed_specs() {
        for bad in [
            "boom:1@2",
            "kill:1",
            "kill:x@2",
            "kill:1@y",
            "drop:1@2:5",
            "kill",
            "kill@2",
            "nan:0",
            "corrupt:zero@1",
            "crash:0@4",
            "crash@soon",
            "crash",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "accepted `{bad}`");
        }
    }

    #[test]
    fn seeded_plans_are_deterministic() {
        let kinds = [FaultKind::Delay, FaultKind::Duplicate];
        let a = FaultPlan::seeded(7, 8, 4, 6, &kinds);
        let b = FaultPlan::seeded(7, 8, 4, 6, &kinds);
        assert_eq!(a, b);
        assert_eq!(a.events.len(), 6);
        for e in &a.events {
            assert!(e.rank < 8);
            assert!(e.step <= 4);
            assert!(matches!(e.kind, FaultKind::Delay | FaultKind::Duplicate));
            if e.kind == FaultKind::Delay {
                assert!((1..10).contains(&e.delay_ms));
            }
        }
        // Different seeds diverge (overwhelmingly likely over 6 events).
        assert_ne!(a, FaultPlan::seeded(8, 8, 4, 6, &kinds));
        assert!(!a.holds(FaultKind::Kill));
    }

    #[test]
    fn empty_plan_is_transparent() {
        let plan = FaultPlan::empty();
        let out = run_ranks_chaos(4, &plan, |comm| {
            comm.set_phase(Phase::Shift);
            comm.fault_step(1).unwrap();
            let p = comm.size();
            let right = (comm.rank() + 1) % p;
            let left = (comm.rank() + p - 1) % p;
            let token = comm.sendrecv(right, left, 1, &[comm.rank() as u64]);
            assert!(!comm.is_dead());
            token[0]
        });
        assert_eq!(out, vec![3, 0, 1, 2]);
    }

    #[test]
    fn duplicate_and_delay_are_benign_under_relaxed_matching() {
        let plan = FaultPlan::parse("dup:0@1,delay:1@1:2").unwrap();
        let out = run_ranks_chaos(2, &plan, |comm| {
            comm.set_phase(Phase::Shift);
            comm.fault_step(1).unwrap();
            let other = 1 - comm.rank();
            // Each rank sends one tagged message; the duplicate's second
            // copy must be skipped by tag matching on later receives.
            comm.send(other, 10, &[comm.rank() as u64]);
            let got = comm.recv::<u64>(other, 10);
            comm.send(other, 11, &[got[0] + 100]);
            comm.recv::<u64>(other, 11)
        });
        assert_eq!(out[0], vec![100]);
        assert_eq!(out[1], vec![101]);
    }

    #[test]
    fn owned_sends_take_the_same_faults_and_a_duplicate_is_two_intact_copies() {
        let plan = FaultPlan::parse("dup:0@1,drop:1@1").unwrap();
        let out = run_ranks_chaos(2, &plan, |comm| {
            comm.set_phase(Phase::Shift);
            comm.fault_step(1).unwrap();
            let other = 1 - comm.rank();
            // Rank 0's buffer is duplicated, rank 1's dropped (one-shot).
            comm.send_vec(other, 10, vec![comm.rank() as u64, 7, 8]);
            comm.send_vec(other, 11, vec![comm.rank() as u64 + 100]);
            let sent = comm.stats().phase(Phase::Shift).messages;
            let got = if comm.rank() == 1 {
                let first = comm.recv::<u64>(0, 10);
                // The second copy is still queued under the same tag.
                let second = comm.recv::<u64>(0, 10);
                assert_eq!(first, second);
                first
            } else {
                let lost = comm.try_recv_timeout::<u64>(1, 10, Duration::from_millis(50));
                assert!(matches!(lost, Err(CommError::Timeout { .. })));
                Vec::new()
            };
            (got, comm.recv::<u64>(other, 11), sent)
        });
        assert_eq!(out[1].0, vec![0, 7, 8]);
        assert_eq!((out[0].1.clone(), out[1].1.clone()), (vec![101], vec![100]));
        // Two copies plus one message from rank 0; one message from rank 1.
        assert_eq!((out[0].2, out[1].2), (3, 1));
    }

    #[test]
    fn kill_fires_once_and_revives() {
        let plan = FaultPlan::kill(1, 2);
        let out = run_ranks_chaos(2, &plan, |comm| {
            comm.set_phase(Phase::Shift);
            let mut log = Vec::new();
            log.push(comm.fault_step(1).is_ok());
            log.push(comm.fault_step(2).is_ok()); // rank 1 dies here
            log.push(comm.fault_step(3).is_ok()); // stays dead
            comm.fault_revive();
            log.push(comm.fault_step(3).is_ok()); // revived; event spent
            log
        });
        assert_eq!(out[0], vec![true, true, true, true]);
        assert_eq!(out[1], vec![true, false, false, true]);
    }

    #[test]
    fn dead_rank_sends_vanish_and_recvs_fail_fast() {
        let plan = FaultPlan::kill(0, 1);
        let out = run_ranks_chaos(2, &plan, |comm| {
            comm.set_phase(Phase::Shift);
            let dead = comm.fault_step(1).is_err();
            if comm.rank() == 0 {
                assert!(dead);
                // These sends go nowhere.
                comm.send(1, 5, &[1u8]);
                let err = comm
                    .try_recv_timeout::<u8>(1, 6, Duration::from_millis(10))
                    .unwrap_err();
                assert!(matches!(err, CommError::PeerDead { rank: 0 }));
                0
            } else {
                assert!(!dead);
                let err = comm
                    .try_recv_timeout::<u8>(0, 5, Duration::from_millis(50))
                    .unwrap_err();
                assert!(matches!(err, CommError::Timeout { .. }), "{err}");
                1
            }
        });
        assert_eq!(out, vec![0, 1]);
    }

    #[test]
    fn drop_loses_exactly_one_message() {
        let plan = FaultPlan::parse("drop:0@1").unwrap();
        let out = run_ranks_chaos(2, &plan, |comm| {
            comm.set_phase(Phase::Shift);
            comm.fault_step(1).unwrap();
            if comm.rank() == 0 {
                comm.send(1, 21, &[7u8]); // dropped
                comm.send(1, 22, &[8u8]); // delivered (event is one-shot)
                0u8
            } else {
                let missing = comm.try_recv_timeout::<u8>(0, 21, Duration::from_millis(50));
                assert!(matches!(missing, Err(CommError::Timeout { .. })));
                comm.recv::<u8>(0, 22)[0]
            }
        });
        assert_eq!(out, vec![0, 8]);
    }

    #[test]
    fn faults_outside_pipeline_phases_do_not_fire() {
        // Same coordinates, but the rank never enters Skew/Shift: the drop
        // must not trigger on Reassign-phase traffic.
        let plan = FaultPlan::parse("drop:0@1").unwrap();
        let out = run_ranks_chaos(2, &plan, |comm| {
            comm.set_phase(Phase::Reassign);
            comm.fault_step(1).unwrap();
            if comm.rank() == 0 {
                comm.send(1, 9, &[42u8]);
                0
            } else {
                comm.recv::<u8>(0, 9)[0]
            }
        });
        assert_eq!(out[1], 42);
    }

    #[test]
    fn injection_metrics_are_recorded() {
        let plan = FaultPlan::parse("drop:0@1,kill:1@1").unwrap();
        let traced = Lenses {
            trace: true,
            ..Lenses::default()
        };
        let (
            _,
            Artifacts {
                metrics, timeline, ..
            },
        ) = run_ranks_chaos_with(2, &plan, traced, |comm| {
            comm.set_phase(Phase::Shift);
            let _ = comm.fault_step(1);
            if comm.rank() == 0 {
                comm.send(1, 1, &[1u8]);
            }
            comm.fault_revive();
        });
        assert_eq!(metrics.sum_counter("fault_injected_total", None), 2);
        assert_eq!(metrics.sum_counter("fault_injected_drop", None), 1);
        assert_eq!(metrics.sum_counter("fault_injected_kill", None), 1);
        // Each injection also lands in the rank's flight ring.
        let injected: Vec<_> = timeline
            .ranks
            .iter()
            .flat_map(|r| &r.events)
            .filter(|e| e.kind == EventKind::FaultInjected)
            .collect();
        assert_eq!(injected.len(), 2);
        let drop_ev = injected.iter().find(|e| e.detail == "drop").unwrap();
        assert_eq!(drop_ev.step, Some(1));
        assert!(injected.iter().any(|e| e.detail == "kill"));
    }

    #[test]
    fn the_ledger_counts_the_copies_that_reach_the_wire() {
        // Rank 0's send is dropped, rank 1's duplicated and rank 2 is dead:
        // the channels hold what the plan let through, which is what a
        // conformance pass blames on the plan.
        let plan = FaultPlan::parse("drop:0@1,dup:1@1,kill:2@1").unwrap();
        let out = run_ranks_chaos(3, &plan, |comm| {
            comm.set_phase(Phase::Shift);
            let dead = comm.fault_step(1).is_err();
            comm.send((comm.rank() + 1) % 3, 30, &[0u64, 1]);
            comm.send_vec((comm.rank() + 2) % 3, 31, vec![2u64]);
            // Nobody receives: the barrier keeps every inbox open until
            // the last send.
            comm.barrier();
            (dead, comm.stats().channels().to_vec())
        });
        let channel = |peer, messages, elements| ChannelCounters {
            phase: Phase::Shift,
            peer,
            messages,
            elements,
        };
        assert_eq!(out[0], (false, vec![channel(2, 1, 1)]));
        assert_eq!(out[1], (false, vec![channel(0, 1, 1), channel(2, 2, 4)]));
        assert_eq!(out[2], (true, vec![]));
    }

    #[test]
    fn split_shares_chaos_state() {
        // A kill observed through the world handle is visible on a split.
        let plan = FaultPlan::kill(1, 1);
        let out = run_ranks_chaos(2, &plan, |comm| {
            let sub = comm.split(0, comm.rank());
            comm.set_phase(Phase::Shift);
            let died = sub.fault_step(1).is_err();
            (died, comm.is_dead())
        });
        assert_eq!(out[0], (false, false));
        assert_eq!(out[1], (true, true));
    }

    #[test]
    fn split_by_forwards_to_the_wrapped_communicator() {
        // Rows of two: formed by the wrapped transport, so with no message,
        // and sharing the chaos state as `split` does.
        let plan = FaultPlan::kill(1, 1);
        let out = run_ranks_chaos(4, &plan, |comm| {
            let row = comm.split_by(|r| (r / 2, r));
            let silent = comm.stats() == CommStats::new();
            comm.set_phase(Phase::Shift);
            let died = row.fault_step(1).is_err();
            (row.rank(), row.size(), silent, died)
        });
        assert_eq!(
            out,
            vec![
                (0, 2, true, false),
                (1, 2, true, true),
                (0, 2, true, false),
                (1, 2, true, false)
            ]
        );
    }
}
