//! The recovery protocol around the CA force drivers.
//!
//! The paper's algorithms assume a failure-free machine; at the scales its
//! model targets (Hopper: 153k cores), rank loss during a force evaluation
//! is a practical concern. The replication the algorithms already pay for
//! (`c` copies of every block, §IV.A) doubles as a recovery resource: as
//! long as one member of a team column survives, the lost rank's replicated
//! inputs can be reconstructed from a teammate and the evaluation re-run
//! from its checkpoint.
//!
//! This module owns the *protocol* only: the retry/agreement/resync loop
//! (`recovery_loop`), its [`RetryPolicy`], the [`HealthMonitor`] that rides
//! on it, and the verdicts ([`FaultError`], [`RecoveryReport`]). The
//! skew/shift pipeline it retries is not copied here: the fault-tolerant
//! entry (`ca_forces_ft`, and [`ca_cutoff_forces_ft`] around it) hands the
//! one shift body (`cutoff::shift_pipeline`) and the layout's window — the
//! full team ring for all-pairs — to the loop as its attempt, under a
//! deadline link (`link::Deadline`) where the plain drivers run it under
//! the strict one.
//!
//! The protocol wrapped around one force evaluation:
//!
//! 1. **Checkpoint.** The team broadcast of a fault-tolerant evaluation
//!    carries 48-byte [`ParticleState`]s, velocities included, where the
//!    plain drivers broadcast 32-byte sources: this broadcast *is* the
//!    replicated checkpoint, and a leader that dies gets its velocities
//!    back from it. The force accumulators are cleared before every
//!    evaluation, so they do not travel. One header record rides in front
//!    of the block (step 4). Every rank keeps an immutable copy of its
//!    post-broadcast input block (`nc/p` particles — the same replicated
//!    working set the paper's memory bound already charges for). The 16
//!    extra bytes per particle are the protocol's second clean-path cost,
//!    next to the agreement; skew and shift carry what the plain drivers'
//!    do.
//! 2. **Digest.** Under a [`HealthMonitor`] every rank also stores its
//!    checkpoint's `state_fingerprint` when it captures it, and hashes the
//!    checkpoint again before each attempt. A copy that no longer matches
//!    its own digest is *lost*, as a dead rank's copy is: no vote between
//!    copies, so it holds at any `c`. Without a monitor nothing is hashed.
//! 3. **Attempt.** The skew/shift pipeline runs under the deadline link:
//!    every step is announced to the fault injector and every receive is
//!    bounded ([`Communicator::try_recv_timeout`]); a missing message
//!    surfaces as [`CommError::Timeout`] instead of a hang, and a rank the
//!    fault plan just killed observes [`CommError::PeerDead`] on itself. A
//!    rank whose digest failed runs its attempt too, so no peer waits out
//!    a deadline for it.
//! 4. **Agreement.** The flags (transient, copy lost, digest failed,
//!    budget spent) ride the team sum-reduce that ends the attempt, one 0/1
//!    count each behind the forces, so the leader's sum reads as the
//!    column's OR; a lost copy adds zeros of its block's length. The
//!    leaders OR their columns' flags in one all-reduce on row 0 before
//!    any of them integrates. The column hears the verdict as the header of
//!    its leader's next team broadcast, and a non-leader leaves the
//!    evaluation only once it has read it: in the rank loop a clean verdict
//!    waits for the next evaluation's broadcast, whose block the non-leader
//!    keeps; a fault, the run's last step, or a step whose end talks over
//!    the world (health check, checkpoint) gets a header-only broadcast at
//!    once. A killed rank still participates — it models the
//!    *replacement* process that the runtime would respawn in its slot.
//! 5. **Resync + retry.** When a copy is lost, every column re-seeds its
//!    checkpoints from its lowest usable row with a team broadcast — one
//!    rule for a dead rank and a failed digest. A re-seed is a capture, so
//!    the digest is taken again from what arrived. On a transient fault
//!    the checkpoint is already local. Every rank restores its checkpoint
//!    and re-enters the attempt under a fresh tag namespace, bounded by
//!    [`RetryPolicy::max_retries`] and [`RetryPolicy::budget`]. Attempt
//!    `a` bounds each receive by [`RetryPolicy::deadline`]: `base_timeout
//!    · 2^(a−1)`, the same on every rank whatever the agreed fault was.
//!    The doubling gives a peer that was merely slow more time; after a
//!    crash or a repaired copy nothing is still missing, so a longer
//!    deadline costs no wait.
//!
//! When a column has no usable row left (including the whole of a `c = 1`
//! "column" of one rank), the loop cannot re-seed the lost block — but it
//! can still end the evaluation in an *agreed* degraded state: survivors
//! re-seed partially-lost columns, restore their checkpoints, and every
//! rank returns [`FaultError::ColumnsLost`] naming the same dead teams.
//! The simulation layer uses that verdict to shrink the world onto the
//! survivors and continue (see `sim.rs`); only when *every* team is lost
//! does the evaluation degrade to [`FaultError::Unrecoverable`].
//!
//! Because a retry restores the exact post-broadcast state and the
//! accumulation order is unchanged, recovered evaluations are
//! **bit-identical** to fault-free ones. Recovery traffic is attributed to
//! [`Phase::Recovery`] (excluded from the paper's cost model, priced
//! separately by the audit) and counted in the `fault_*` /
//! `recovery_bytes_total` metrics.

use std::cell::Cell;
use std::time::{Duration, Instant};

use nbody_comm::{sum_combine, CommError, Communicator, EventKind, FaultKind, FaultPlan, Phase};
use nbody_metrics::Counter;
use nbody_physics::particle::sources;
use nbody_physics::{Boundary, Domain, ForceLaw, Particle, ParticleState, Vec2};
use nbody_simhealth::state_fingerprint;

use crate::cutoff::{prepare_block, shift_pipeline};
use crate::grid::GridComms;
use crate::link::Deadline;
use crate::window::Window;

/// Tag distance between retry attempts of one evaluation. Attempt `a` of
/// evaluation epoch `e` offsets every pipeline tag by
/// `e * EPOCH_TAG_STRIDE + a * ATTEMPT_TAG_STRIDE`, so a message a dead
/// attempt left in flight can never satisfy a later attempt's receive
/// (receives under chaos match on exact tags).
pub const ATTEMPT_TAG_STRIDE: u64 = 1 << 16;
/// Tag distance between force evaluations (timesteps). Keeps stale traffic
/// from an aborted attempt in step `t` from matching step `t + 1`'s tags.
pub const EPOCH_TAG_STRIDE: u64 = 1 << 20;

// Attempt flags. Each rides the team reduce as a 0/1 count, so a column's
// sum reads as their OR, and the leaders OR their columns' on row 0. A copy
// is lost when its rank died or its checkpoint failed its digest: either
// way it must be re-seeded, not merely retried. A failed digest is flagged
// apart as well, so every rank counts the mismatch whatever else went
// wrong. A spent budget is one rank's clock: it fails nothing alone, but
// with a fault it ends the retries on every rank at once.
const TRANSIENT: u8 = 1;
const COPY_LOST: u8 = 2;
const DIGEST_FAILED: u8 = 4;
const BUDGET_SPENT: u8 = 8;
/// The flags that fail an attempt.
const FAULT: u8 = TRANSIENT | COPY_LOST;
/// Flags the team reduce carries, one element each.
const FLAGS: usize = 4;
/// Header bit of a team broadcast that opens an evaluation: the leader's
/// block follows, and the attempt the column waited on was agreed clean.
const OPENS: u64 = 1 << 8;

/// The retry policy of the recovery protocol: one deadline rule and two
/// caps, on the retry count and on the wall-clock time of one evaluation.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Deadline for each pipeline receive on the first attempt; every
    /// retry doubles it ([`RetryPolicy::deadline`]).
    pub base_timeout: Duration,
    /// Retries after the initial attempt before giving up with
    /// [`FaultError::RetriesExhausted`].
    pub max_retries: usize,
    /// Wall-clock budget of one force evaluation, its retries included;
    /// exceeding it fails the evaluation like retry exhaustion does.
    pub budget: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            base_timeout: Duration::from_secs(1),
            max_retries: 3,
            budget: Duration::from_secs(60),
        }
    }
}

impl RetryPolicy {
    /// The default policy with a first-attempt deadline of `ms` milliseconds.
    pub fn with_timeout_ms(ms: u64) -> Self {
        RetryPolicy {
            base_timeout: Duration::from_millis(ms),
            ..Default::default()
        }
    }

    /// The receive deadline of `attempt` (1-based): `base_timeout ·
    /// 2^(attempt−1)`, the doubling stopped after 16 retries and the
    /// deadline at an hour. It does not depend on the rank or on the fault
    /// the previous attempt met, so every rank waits the same.
    pub fn deadline(&self, attempt: usize) -> Duration {
        let doublings = attempt.saturating_sub(1).min(16) as u32;
        let hour = Duration::from_secs(3600);
        self.base_timeout.saturating_mul(1 << doublings).min(hour)
    }
}

/// Terminal failures of a fault-tolerant evaluation. Every rank returns the
/// same variant (the decision is taken on globally agreed state), so the
/// caller can shut the execution down cleanly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultError {
    /// Every team column lost every replica — no particle data survives
    /// anywhere and the evaluation cannot be completed at all.
    Unrecoverable {
        /// World rank reporting the failure.
        rank: usize,
        /// Replication factor in effect.
        c: usize,
    },
    /// One or more (but not all) team columns lost every replica. The
    /// lost blocks are gone, but the survivors agreed on exactly which
    /// teams died and hold their own checkpoints — the simulation layer
    /// can shrink the world onto the survivors and continue degraded.
    ColumnsLost {
        /// The teams whose every replica died, in ascending order
        /// (identical on every rank — the verdict is agreed).
        dead_teams: Vec<usize>,
        /// Replication factor in effect.
        c: usize,
    },
    /// Faults kept recurring past [`RetryPolicy::max_retries`] or the
    /// total [`RetryPolicy::budget`] ran out.
    RetriesExhausted {
        /// Attempts performed (initial + retries).
        attempts: usize,
    },
    /// A numerical-health sentinel fired: a NaN/Inf reached simulation
    /// state. Unlike the fault classes above this is not a machine fault
    /// — retrying reproduces it — so the run aborts into a postmortem
    /// with the blame attached.
    NumericalFault {
        /// World rank that caught the non-finite value.
        rank: usize,
        /// Timestep on which the sentinel fired.
        step: u64,
        /// The sentinel's blame string (phase, particle index, field).
        detail: String,
    },
}

impl std::fmt::Display for FaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultError::Unrecoverable { rank, c } => write!(
                f,
                "rank {rank}: unrecoverable: every team column lost all {c} replicas; \
                 nothing survives to recover from"
            ),
            FaultError::ColumnsLost { dead_teams, c } => write!(
                f,
                "teams {dead_teams:?} lost all {c} replicas; survivors agreed to continue degraded"
            ),
            FaultError::RetriesExhausted { attempts } => {
                write!(f, "faults persisted through {attempts} attempts; giving up")
            }
            FaultError::NumericalFault { rank, step, detail } => {
                write!(f, "numerical fault on rank {rank} at step {step}: {detail}")
            }
        }
    }
}

impl std::error::Error for FaultError {}

/// What it took to complete a fault-tolerant evaluation (and, aggregated
/// at the simulation layer, a whole run).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// Attempts performed (1 = clean, fault-free run).
    pub attempts: usize,
    /// Whether any fault was detected (and survived).
    pub recovered: bool,
    /// Particles dropped with dead columns across all shrinks (simulation
    /// layer; always 0 at the single-evaluation level).
    pub lost_particles: usize,
}

/// Per-rank fault/recovery counters, registered against the live metrics
/// recorder so `analyze` can price recovery overhead.
struct FaultCounters {
    detected: Counter,
    recovered: Counter,
    retries: Counter,
    resync_bytes: Counter,
}

impl FaultCounters {
    fn new<C: Communicator>(comm: &C) -> Self {
        let rec = comm.metrics();
        FaultCounters {
            detected: rec.counter("fault_detected_total", None),
            recovered: rec.counter("fault_recovered_total", None),
            retries: rec.counter("fault_retries_total", None),
            resync_bytes: rec.counter("recovery_bytes_total", None),
        }
    }
}

fn or_combine(acc: &mut u8, x: &u8) {
    *acc |= *x;
}

/// The leader's team broadcast: one header record, whose `id` is `word`,
/// in front of `block`. The header has the payload's type, so the ledger
/// counts it at the payload's width. A column of one has no one to tell.
fn tell<C: Communicator>(gc: &GridComms<C>, phase: Phase, word: u64, block: &[Particle]) {
    if gc.col.size() == 1 {
        return;
    }
    let mut buf = Vec::with_capacity(block.len() + 1);
    buf.push(ParticleState {
        pos: Vec2::zero(),
        vel: Vec2::zero(),
        mass: 0.0,
        id: word,
    });
    buf.extend(block.iter().map(ParticleState::from));
    gc.col.set_phase(phase);
    gc.col.bcast(0, &mut buf);
}

/// A non-leader's end of [`tell`]: the agreed status the header carries,
/// and the block, rebuilt with cleared forces, when the broadcast
/// [`OPENS`] an evaluation. Only a clean agreed attempt lets a leader
/// open the next one, so such a header reads as status 0.
fn hear<C: Communicator>(gc: &GridComms<C>, phase: Phase) -> (u8, Option<Vec<Particle>>) {
    gc.col.set_phase(phase);
    let mut buf: Vec<ParticleState> = Vec::new();
    gc.col.bcast(0, &mut buf);
    let (head, block) = buf.split_first().expect("a team broadcast has a header");
    if head.id & OPENS == 0 {
        return (head.id as u8, None);
    }
    (0, Some(block.iter().map(ParticleState::particle).collect()))
}

/// Line 9 with the attempt's flags behind the forces, one 0/1 count per
/// flag, so the sum the leader receives reads as the column's OR. A lost
/// copy (`st` empty) adds zeros of the block's length `n`. Leaves the
/// summed forces on the leader and returns the column's flags there, the
/// rank's own elsewhere.
fn column_reduce<C: Communicator>(
    gc: &GridComms<C>,
    st: &mut [Particle],
    n: usize,
    local: u8,
) -> u8 {
    gc.col.set_phase(Phase::Reduce);
    if gc.col.size() == 1 {
        return local;
    }
    let mut partial: Vec<Vec2> = Vec::with_capacity(n + FLAGS);
    if st.is_empty() {
        partial.resize(n, Vec2::zero());
    } else {
        partial.extend(st.iter().map(|p| p.force));
    }
    partial.extend((0..FLAGS).map(|bit| Vec2::new(f64::from(local >> bit & 1), 0.0)));
    let Some(total) = gc.col.reduce_vec(0, partial, sum_combine) else {
        return local;
    };
    let (forces, flags) = total.split_at(n);
    for (p, force) in st.iter_mut().zip(forces) {
        p.force = *force;
    }
    let raised = flags.iter().enumerate().filter(|(_, count)| count.x > 0.0);
    raised.fold(0, |acc, (bit, _)| acc | 1 << bit)
}

/// The agreement (module docs, step 4) on what the attempt's end already
/// sends: the flags ride the team reduce, the leaders OR their columns' on
/// row 0 before any of them integrates, and a column hears the verdict
/// from its leader's next team broadcast. When the caller may `defer`, a
/// clean verdict waits for the next evaluation's broadcast, which a
/// non-leader then receives here and leaves in `next`; a fault, or a
/// verdict that may not wait, gets a header of its own at once. Returns
/// the agreed status, the same on every rank.
fn settle<C: Communicator>(
    gc: &GridComms<C>,
    st: &mut [Particle],
    n: usize,
    local: u8,
    defer: bool,
    next: &mut Option<Vec<Particle>>,
) -> u8 {
    let column = column_reduce(gc, st, n, local);
    // A verdict that may wait stands in for the next evaluation's
    // broadcast and is counted with it; one sent at once is recovery's.
    let phase = if defer {
        Phase::Broadcast
    } else {
        Phase::Recovery
    };
    if !gc.is_leader() {
        let status;
        (status, *next) = hear(gc, phase);
        return status;
    }
    gc.col.set_phase(Phase::Recovery);
    let mut status = vec![column];
    gc.row.allreduce(&mut status, or_combine);
    let status = status[0];
    if status & FAULT != 0 || !defer {
        tell(gc, phase, u64::from(status), &[]);
    }
    status
}

/// Per-rank numerical-health state threaded through the fault-tolerant
/// drivers: its presence turns on the checkpoint digest (module docs, step
/// 2), it counts the digests that failed, and it carries the fault plan's
/// `corrupt` events, the seeded corruptions that test it.
///
/// One instance lives per rank for the whole run (each corruption must fire
/// exactly once, across steps, retry attempts *and* shrinks), so it holds
/// interior [`Cell`] state and is deliberately `!Sync` — construct it
/// inside the per-rank closure.
pub struct HealthMonitor {
    /// The evaluation epoch of each seeded corruption aimed at this rank,
    /// with whether it has fired: one mantissa bit of the first
    /// checkpointed particle flips silently, and the digest must catch it
    /// before the attempt.
    corrupt: Vec<(u64, Cell<bool>)>,
    /// Attempts on which some rank's checkpoint failed its digest.
    mismatches: Cell<u64>,
}

impl HealthMonitor {
    /// The monitor of launch rank `rank`, carrying the `corrupt` events of
    /// `plan` aimed at it. The launch rank is the one a rank keeps when the
    /// world shrinks, so a seeded fault lands on the rank the plan names.
    pub fn new(plan: &FaultPlan, rank: usize) -> HealthMonitor {
        let corrupt =
            (plan.events.iter()).filter(|e| e.kind == FaultKind::Corrupt && e.rank == rank);
        HealthMonitor {
            corrupt: corrupt.map(|e| (e.step as u64, Cell::new(false))).collect(),
            mismatches: Cell::new(0),
        }
    }

    /// Attempts on which a checkpoint anywhere in the world failed its
    /// digest. The count rides the agreement, so every rank that took part
    /// in those attempts holds the same number.
    pub fn fingerprint_mismatches(&self) -> u64 {
        self.mismatches.get()
    }

    /// Fire a seeded corruption aimed at `epoch` that has not fired yet,
    /// and count it on `comm`'s recorders. Corrupts the
    /// *checkpoint*, not the working copy: real silent corruption survives
    /// local retries, and so must the injected kind — only a re-seed can
    /// clear it.
    fn maybe_corrupt<C: Communicator>(&self, comm: &C, epoch: u64, input: &mut [Particle]) {
        let mut unfired = self.corrupt.iter().filter(|(_, fired)| !fired.get());
        let Some((_, fired)) = unfired.find(|(at, _)| *at == epoch) else {
            return;
        };
        fired.set(true);
        if let Some(p) = input.first_mut() {
            p.pos.x = f64::from_bits(p.pos.x.to_bits() ^ (1 << 40));
            FaultKind::Corrupt.count_fired(&comm.metrics(), &comm.timeline(), epoch);
        }
    }
}

/// Whether the checkpoint `input` still hashes to `digest`, the fingerprint
/// it was captured with. A checkpoint that does not is recorded on the rank
/// that holds it: a `replica_mismatch` flight event and the
/// `health_fingerprint_mismatch_total` counter.
fn digest_holds<C: Communicator>(comm: &C, input: &[Particle], digest: u64, epoch: u64) -> bool {
    let got = state_fingerprint(input);
    if got != digest {
        let detail = format!("checkpoint hashes to {got:016x}, captured as {digest:016x}");
        comm.timeline()
            .event(EventKind::ReplicaMismatch, Some(epoch), &detail);
        comm.metrics()
            .counter("health_fingerprint_mismatch_total", None)
            .inc();
    }
    got == digest
}

/// The lowest row of the column whose `flagged` is false on its member, or
/// `None` when every row's is: one allgather down the column, so every
/// member names the same row.
fn lowest_clear_row<C: Communicator>(gc: &GridComms<C>, flagged: bool) -> Option<usize> {
    let flags = gc.col.allgather(&[u8::from(flagged)]);
    flags.iter().position(|f| f[0] == 0)
}

/// The retry/agreement/resync loop of the fault-tolerant drivers.
///
/// `st` must hold the post-broadcast input block; `attempt` runs one
/// fallible pipeline pass over `st` under the given tag offset, with the
/// given per-receive deadline, told whether the checkpoint held its
/// digest, and the team reduce ends each attempt ([`settle`], which
/// `defer` and `next` are for). On success the leader's
/// `st` holds the reduced forces. On [`FaultError::ColumnsLost`], `st`
/// holds the restored *pre-force* checkpoint on every surviving-column
/// rank (empty on dead-column ranks) so the caller can redistribute and
/// shrink.
#[allow(clippy::too_many_arguments)]
fn recovery_loop<C: Communicator>(
    gc: &GridComms<C>,
    st: &mut Vec<Particle>,
    policy: &RetryPolicy,
    epoch: u64,
    health: Option<&HealthMonitor>,
    defer: bool,
    next: &mut Option<Vec<Particle>>,
    mut attempt: impl FnMut(&mut Vec<Particle>, u64, Duration, bool) -> Result<(), CommError>,
) -> Result<RecoveryReport, FaultError> {
    let c = gc.grid.c();
    let world_rank = gc.grid.rank_at(gc.team(), gc.row_index());
    let counters = FaultCounters::new(&gc.col);
    // The flight recorder: structured events land in the rank's bounded
    // ring so a postmortem bundle shows what recovery was doing when (and
    // if) the run degraded. Every recorded event carries `epoch` (the
    // timestep) as its step coordinate.
    let tl = gc.col.timeline();
    // The checkpoint: the replicated post-broadcast input, and under a
    // monitor its digest. A transient retry restores it locally; a lost
    // copy gets it back from a teammate.
    let mut input = st.clone();
    let digest_of = |input: &[Particle]| health.map(|_| state_fingerprint(input));
    let mut digest = digest_of(&input);
    tl.event(
        EventKind::Checkpoint,
        Some(epoch),
        &format!("{} particles", input.len()),
    );
    // Re-seed every checkpoint of the column from row `src_row`'s, charging
    // the bytes to a rank that `needed` them.
    let reseed = |input: &mut Vec<Particle>, src_row: usize, needed: bool, why: &str| {
        gc.col.bcast(src_row, input);
        let detail = format!("checkpoint re-seeded from row {src_row}{why}");
        tl.event(EventKind::Resync, Some(epoch), &detail);
        if needed {
            let bytes = input.len() * std::mem::size_of::<Particle>();
            counters.resync_bytes.add(bytes as u64);
        }
    };
    let started = Instant::now();
    let mut attempts = 0usize;
    let mut had_fault = false;
    loop {
        attempts += 1;
        let deadline = policy.deadline(attempts);
        if let Some(h) = health {
            h.maybe_corrupt(&gc.col, epoch, &mut input);
        }
        let intact = digest.is_none_or(|d| digest_holds(&gc.col, &input, d, epoch));
        st.clone_from(&input);
        let tag_base = epoch * EPOCH_TAG_STRIDE + (attempts as u64 - 1) * ATTEMPT_TAG_STRIDE;
        let mut local = match attempt(st, tag_base, deadline, intact) {
            Ok(()) => 0,
            Err(CommError::PeerDead { .. }) => COPY_LOST,
            Err(_) => TRANSIENT,
        };
        let self_dead = local == COPY_LOST;
        if !intact {
            local |= COPY_LOST | DIGEST_FAILED;
        }
        let self_lost = local & COPY_LOST != 0;
        if local != 0 {
            counters.detected.inc();
            tl.event(
                EventKind::RecoveryAttempt,
                Some(epoch),
                &format!(
                    "attempt {attempts} failed locally: {} (deadline {}ms)",
                    if self_dead {
                        "rank dead"
                    } else if !intact {
                        "checkpoint fails its digest"
                    } else {
                        "transient"
                    },
                    deadline.as_millis(),
                ),
            );
        }
        let n = input.len();
        if self_lost {
            // A crash loses everything the rank held in memory, and a
            // failed digest everything its checkpoint held: either way
            // the copy starts blank.
            st.clear();
            input.clear();
        }
        if started.elapsed() > policy.budget {
            local |= BUDGET_SPENT;
        }
        let status = settle(gc, st, n, local, defer, next);
        if let Some(h) = health.filter(|_| status & DIGEST_FAILED != 0) {
            h.mismatches.set(h.mismatches.get() + 1);
        }
        if status & FAULT == 0 {
            if had_fault {
                counters.recovered.inc();
            }
            return Ok(RecoveryReport {
                attempts,
                recovered: had_fault,
                ..RecoveryReport::default()
            });
        }
        had_fault = true;
        gc.col.set_phase(Phase::Recovery);
        // The one repair rule: every lost copy, dead or digest-failed, is
        // re-seeded from the lowest usable row of its column.
        let mut src_row = None;
        if status & COPY_LOST != 0 {
            src_row = lowest_clear_row(gc, self_lost);
            // Share per-column verdicts across the row: every row spans
            // all teams, so each rank learns the full dead-team set and
            // the verdict is globally agreed.
            let lost_map = gc.row.allgather(&[u8::from(src_row.is_none())]);
            let dead_teams: Vec<usize> = lost_map
                .iter()
                .enumerate()
                .filter(|(_, f)| f[0] != 0)
                .map(|(t, _)| t)
                .collect();
            if dead_teams.len() == gc.grid.teams() {
                // Every column lost every copy: nothing survives.
                let err = FaultError::Unrecoverable {
                    rank: world_rank,
                    c,
                };
                tl.event(EventKind::Unrecoverable, Some(epoch), &err.to_string());
                tl.mark_failure(&err.to_string());
                return Err(err);
            }
            if !dead_teams.is_empty() {
                // Degraded mode: the lost columns cannot be re-seeded, but
                // the survivors can agree to continue without them. Revive
                // killed ranks (the replacement process), re-seed
                // partially-lost surviving columns, and hand the caller
                // the pre-force checkpoint to shrink from.
                gc.col.fault_revive();
                if let Some(src_row) = src_row {
                    reseed(&mut input, src_row, self_lost, " before shrink");
                }
                *st = input;
                let err = FaultError::ColumnsLost { dead_teams, c };
                tl.event(EventKind::RecoveryAttempt, Some(epoch), &err.to_string());
                return Err(err);
            }
        }
        if attempts > policy.max_retries || status & BUDGET_SPENT != 0 {
            let err = FaultError::RetriesExhausted { attempts };
            tl.event(EventKind::RetryExhausted, Some(epoch), &err.to_string());
            tl.mark_failure(&err.to_string());
            return Err(err);
        }
        // The replacement process comes back up for the retry.
        gc.col.fault_revive();
        if let Some(src_row) = src_row {
            reseed(&mut input, src_row, self_lost, "");
            // A re-seed is a capture: the digest is of what arrived.
            digest = digest_of(&input);
        }
        counters.retries.inc();
        let next = attempts + 1;
        let detail = format!(
            "retry {next} deadline={}ms",
            policy.deadline(next).as_millis()
        );
        tl.event(EventKind::RecoveryAttempt, Some(epoch), &detail);
    }
}

/// Lines 2-9 of both algorithms under the recovery protocol, on blocks that
/// are already in the order their kernel wants. Line 2 sends the leader's
/// block down the column as [`ParticleState`]s, because what the replicas
/// hold after it is the checkpoint [`recovery_loop`] restores from and
/// re-seeds a dead leader with (module docs, step 1); a non-leader that
/// already heard it while waiting for the previous verdict finds it in
/// `next`. The shift body is the loop's attempt (a fresh [`Deadline`] link
/// each time), and the sum-reduce onto the leader ends each attempt. With
/// `defer`, a clean verdict rides the next evaluation's broadcast: the
/// caller sets it only when that broadcast is the column's next collective.
/// Returns the report and the harvested pair potential (0 without
/// `health`).
#[allow(clippy::too_many_arguments)]
pub(crate) fn ca_forces_ft<C: Communicator, W: Window, F: ForceLaw>(
    gc: &GridComms<C>,
    window: &W,
    st: &mut Vec<Particle>,
    law: &F,
    domain: &Domain,
    boundary: Boundary,
    policy: &RetryPolicy,
    epoch: u64,
    health: Option<&HealthMonitor>,
    defer: bool,
    next: &mut Option<Vec<Particle>>,
) -> Result<(RecoveryReport, f64), FaultError> {
    debug_assert!(gc.is_leader() || st.is_empty());
    if gc.is_leader() {
        tell(gc, Phase::Broadcast, OPENS, st);
    } else {
        let block = next.take().or_else(|| hear(gc, Phase::Broadcast).1);
        *st = block.expect("an evaluation opens with its leader's block");
    }
    // Owned block + exchange buffer + recovery checkpoint, and the home
    // copy a clipped window keeps.
    let copies = 3 + usize::from(!window.is_periodic());
    gc.col
        .metrics()
        .gauge_max("mem_particles_hwm", (copies * st.len()) as u64);
    let mut pe = 0.0f64;
    let attempt = |st: &mut Vec<Particle>, tag_base, deadline, intact| {
        // An aborted attempt's partial harvest must not double-count.
        pe = 0.0;
        let link = Deadline {
            tag_base,
            deadline,
            intact,
        };
        let potential = health.map(|_| &mut pe);
        let exch = sources(st);
        shift_pipeline(
            gc, window, st, exch, law, domain, boundary, &link, potential,
        )
    };
    let report = recovery_loop(gc, st, policy, epoch, health, defer, next, attempt)?;
    Ok((report, pe))
}

/// Fault-tolerant [`ca_cutoff_forces`](crate::cutoff::ca_cutoff_forces):
/// identical result (bit-for-bit, even across recoveries), but the
/// window-modulo pipeline detects failed peers by timeout and runs the
/// recovery protocol described in the module docs.
///
/// `epoch` must be unique per force evaluation on one execution (the
/// timestep index) — it namespaces message tags so traffic from an aborted
/// attempt can never satisfy a later evaluation's receive. Every rank hears
/// the evaluation's verdict before it returns; only the rank loop lets a
/// clean verdict wait for the next evaluation's broadcast.
///
/// When `health` is set, the kernel harvests the summed pair potential of
/// exactly the in-window pairs the schedule evaluates (returned alongside
/// the report — the rank's potential-energy partial, counting each
/// unordered pair twice globally; 0 otherwise) and every attempt first
/// checks the checkpoint against its digest. With `health = None` there is
/// no harvesting and no digest.
///
/// Note that rows perform different step counts here
/// ([`row_steps`](crate::cutoff::row_steps)), so a kill scheduled at step
/// `s` only fires on ranks whose row reaches that step.
#[allow(clippy::too_many_arguments)]
pub fn ca_cutoff_forces_ft<C: Communicator, W: Window, F: ForceLaw>(
    gc: &GridComms<C>,
    window: &W,
    st: &mut Vec<Particle>,
    law: &F,
    domain: &Domain,
    boundary: Boundary,
    policy: &RetryPolicy,
    epoch: u64,
    health: Option<&HealthMonitor>,
) -> Result<(RecoveryReport, f64), FaultError> {
    prepare_block(gc, window, st, law, domain, boundary);
    ca_forces_ft(
        gc, window, st, law, domain, boundary, policy, epoch, health, false, &mut None,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::id_block_subset;
    use crate::grid::ProcGrid;
    use crate::window::TeamWindow;
    use nbody_comm::{run_ranks, run_ranks_chaos, run_ranks_chaos_with, Lenses};
    use nbody_physics::{init, RepulsiveInverseSquare};

    fn law() -> RepulsiveInverseSquare {
        RepulsiveInverseSquare {
            strength: 1e-3,
            softening: 1e-3,
        }
    }

    /// One fault-tolerant evaluation of Algorithm 1 (the team ring) at
    /// epoch 0, in the unit box between walls.
    fn ring_ft<C: Communicator>(
        gc: &GridComms<C>,
        st: &mut Vec<Particle>,
        policy: &RetryPolicy,
        health: Option<&HealthMonitor>,
    ) -> Result<(RecoveryReport, f64), FaultError> {
        let ring = TeamWindow::ring(gc.grid.teams());
        let (domain, boundary) = (Domain::unit(), Boundary::Reflective);
        ca_forces_ft(
            gc,
            &ring,
            st,
            &law(),
            &domain,
            boundary,
            policy,
            0,
            health,
            false,
            &mut None,
        )
    }

    /// Fault-free ft run on a plain (strict-matching) transport: the ft
    /// driver must behave exactly like the plain driver.
    fn run_ft_plain(p: usize, c: usize, n: usize, seed: u64) -> Vec<Particle> {
        let domain = Domain::unit();
        let grid = ProcGrid::new_all_pairs(p, c).unwrap();
        let out = run_ranks(p, move |world| {
            let gc = GridComms::new(world, grid);
            let all = init::uniform(n, &domain, seed);
            let mut st = if gc.is_leader() {
                id_block_subset(&all, grid.teams(), gc.team())
            } else {
                Vec::new()
            };
            let (rep, _) = ring_ft(&gc, &mut st, &RetryPolicy::default(), None)
                .expect("fault-free run cannot fail");
            assert_eq!(
                rep,
                RecoveryReport {
                    attempts: 1,
                    recovered: false,
                    ..RecoveryReport::default()
                }
            );
            if gc.is_leader() {
                st
            } else {
                Vec::new()
            }
        });
        let mut got: Vec<Particle> = out.into_iter().flatten().collect();
        got.sort_by_key(|q| q.id);
        got
    }

    fn run_plain(p: usize, c: usize, n: usize, seed: u64) -> Vec<Particle> {
        let domain = Domain::unit();
        let grid = ProcGrid::new_all_pairs(p, c).unwrap();
        let out = run_ranks(p, move |world| {
            let gc = GridComms::new(world, grid);
            let all = init::uniform(n, &domain, seed);
            let mut st = if gc.is_leader() {
                id_block_subset(&all, grid.teams(), gc.team())
            } else {
                Vec::new()
            };
            crate::allpairs::ca_all_pairs_forces(
                &gc,
                &mut st,
                &law(),
                &domain,
                Boundary::Reflective,
            );
            if gc.is_leader() {
                st
            } else {
                Vec::new()
            }
        });
        let mut got: Vec<Particle> = out.into_iter().flatten().collect();
        got.sort_by_key(|q| q.id);
        got
    }

    #[test]
    fn ft_driver_matches_plain_driver_without_faults() {
        for (p, c) in [(4, 1), (8, 2), (9, 3)] {
            assert_eq!(
                run_ft_plain(p, c, 24, 7),
                run_plain(p, c, 24, 7),
                "p={p} c={c}"
            );
        }
    }

    #[test]
    fn kill_with_replication_recovers_bit_identically() {
        let want = run_plain(8, 2, 24, 3);
        let domain = Domain::unit();
        let grid = ProcGrid::new_all_pairs(8, 2).unwrap();
        // Kill rank 5 at shift step 1.
        let plan = FaultPlan::kill(5, 1);
        let out = run_ranks_chaos(8, &plan, move |world| {
            let gc = GridComms::new(world, grid);
            let all = init::uniform(24, &domain, 3);
            let mut st = if gc.is_leader() {
                id_block_subset(&all, grid.teams(), gc.team())
            } else {
                Vec::new()
            };
            let (rep, _) = ring_ft(&gc, &mut st, &RetryPolicy::with_timeout_ms(500), None)
                .expect("c=2 must recover from a single kill");
            assert!(rep.recovered);
            assert_eq!(rep.attempts, 2);
            if gc.is_leader() {
                st
            } else {
                Vec::new()
            }
        });
        let mut got: Vec<Particle> = out.into_iter().flatten().collect();
        got.sort_by_key(|q| q.id);
        assert_eq!(got, want, "recovered forces must be bit-identical");
    }

    /// A `c = 1` kill loses the column's only replica. The evaluation can
    /// no longer be completed as-configured, but every rank now returns
    /// the *agreed degraded verdict* — the same dead-team set everywhere —
    /// instead of giving up as unrecoverable.
    #[test]
    fn kill_without_replication_is_agreed_columns_lost() {
        let domain = Domain::unit();
        let grid = ProcGrid::new_all_pairs(4, 1).unwrap();
        let plan = FaultPlan::kill(2, 1);
        let errs = run_ranks_chaos(4, &plan, move |world| {
            let gc = GridComms::new(world, grid);
            let all = init::uniform(16, &domain, 5);
            let mut st = id_block_subset(&all, 4, gc.team());
            ring_ft(&gc, &mut st, &RetryPolicy::with_timeout_ms(300), None)
        });
        for err in errs {
            assert_eq!(
                err,
                Err(FaultError::ColumnsLost {
                    dead_teams: vec![2],
                    c: 1
                }),
                "every rank must agree on the dead-team set"
            );
        }
    }

    /// The details of every retry event one `p = 4`, `c = 2` evaluation
    /// under `plan` records.
    fn retry_events(plan: &FaultPlan) -> Vec<String> {
        let domain = Domain::unit();
        let grid = ProcGrid::new_all_pairs(4, 2).unwrap();
        let policy = RetryPolicy::with_timeout_ms(100);
        let (_, artifacts) = run_ranks_chaos_with(4, plan, Lenses::default(), |world| {
            let gc = GridComms::new(world, grid);
            let all = init::uniform(16, &domain, 5);
            let mut st = if gc.is_leader() {
                id_block_subset(&all, grid.teams(), gc.team())
            } else {
                Vec::new()
            };
            let monitor = HealthMonitor::new(plan, world.rank());
            ring_ft(&gc, &mut st, &policy, Some(&monitor)).expect("c=2 recovers from one fault")
        });
        let events = artifacts.timeline.ranks.into_iter().flat_map(|r| r.events);
        let retries = events.filter(|e| e.detail.starts_with("retry "));
        retries.map(|e| e.detail).collect()
    }

    /// One deadline rule: attempt `a` waits `base · 2^(a−1)`, capped, and
    /// the retry after a lost message, a dead peer and a corrupt replica
    /// waits the same.
    #[test]
    fn retry_deadline_is_one_rule_whatever_the_fault() {
        let ms = Duration::from_millis;
        let policy = RetryPolicy::with_timeout_ms(100);
        let rule: Vec<Duration> = (1..=4).map(|a| policy.deadline(a)).collect();
        assert_eq!(rule, [ms(100), ms(200), ms(400), ms(800)]);
        let hour = Duration::from_secs(3600);
        assert_eq!(
            (policy.deadline(17), policy.deadline(usize::MAX)),
            (hour, hour)
        );
        // Rank 1 is row 0 of team 1 and rank 3 its replica in row 1.
        let faults = [
            ("transient", "drop:1@1"),
            ("dead peer", "kill:1@1"),
            ("corrupt replica", "corrupt:3@0"),
        ];
        for (what, spec) in faults {
            let retries = retry_events(&FaultPlan::parse(spec).unwrap());
            assert_eq!(retries, vec!["retry 2 deadline=200ms"; 4], "{what}");
        }
    }

    /// An exhausted retry budget fails the evaluation like max_retries
    /// does, even when more retries would nominally be allowed.
    #[test]
    fn exhausted_budget_stops_retrying() {
        let domain = Domain::unit();
        let grid = ProcGrid::new_all_pairs(4, 2).unwrap();
        // Kill rank 1 on every attempt: revive + re-kill is impossible
        // with a one-shot plan, so instead exhaust the budget via a
        // zero-length budget and a transient-free crash retry loop.
        let plan = FaultPlan::kill(1, 1);
        let policy = RetryPolicy {
            budget: Duration::ZERO,
            ..RetryPolicy::with_timeout_ms(300)
        };
        let errs = run_ranks_chaos(4, &plan, move |world| {
            let gc = GridComms::new(world, grid);
            let all = init::uniform(16, &domain, 5);
            let mut st = if gc.is_leader() {
                id_block_subset(&all, grid.teams(), gc.team())
            } else {
                Vec::new()
            };
            ring_ft(&gc, &mut st, &policy, None)
        });
        for err in errs {
            assert_eq!(
                err,
                Err(FaultError::RetriesExhausted { attempts: 1 }),
                "a spent budget must stop the retry loop on every rank"
            );
        }
    }

    /// The budget is read on each rank's own clock, so near its end one
    /// rank finds it spent while its peers do not. Spent rides the
    /// agreement as one more flag: a rank whose budget is zero (a clock
    /// skewed past the end, made deterministic) ends the retries on all.
    #[test]
    fn a_budget_spent_on_one_rank_is_spent_on_all() {
        let domain = Domain::unit();
        let grid = ProcGrid::new_all_pairs(4, 2).unwrap();
        let plan = FaultPlan::kill(1, 1);
        let errs = run_ranks_chaos(4, &plan, move |world| {
            let budget = match world.rank() {
                0 => Duration::ZERO,
                _ => Duration::from_secs(60),
            };
            let policy = RetryPolicy {
                budget,
                ..RetryPolicy::with_timeout_ms(300)
            };
            let gc = GridComms::new(world, grid);
            let all = init::uniform(16, &domain, 5);
            let mut st = if gc.is_leader() {
                id_block_subset(&all, grid.teams(), gc.team())
            } else {
                Vec::new()
            };
            ring_ft(&gc, &mut st, &policy, None)
        });
        let exhausted = Err(FaultError::RetriesExhausted { attempts: 1 });
        assert_eq!(errs, vec![exhausted; 4]);
    }
}
