//! A message-passing runtime whose ranks are OS threads.
//!
//! This is the reproduction's stand-in for MPI on a cluster: the algorithms
//! in `ca-nbody` execute unmodified against [`ThreadComm`], exchanging the
//! same messages they would exchange across nodes. Payloads move between
//! threads by pointer (no serialization), so even modest laptops can run
//! correctness sweeps over dozens of ranks.
//!
//! Design notes:
//!
//! * Every *global* rank owns one unbounded MPSC inbox; all communicators a
//!   rank belongs to share it. Envelopes carry `(communicator id, source,
//!   tag)` and receivers demultiplex into per-`(comm, source)` FIFO queues —
//!   MPI-style matching specialized to our deterministic protocols.
//! * Sends are buffered and never block, so ring shifts cannot deadlock.
//! * `split_by` derives new communicators without global locks on the data
//!   path and without a message: the caller names every rank's color and
//!   key, and communicator identity is agreed through a registry keyed by
//!   `(parent id, split sequence, color)`, which every member computes
//!   identically. `split` allgathers the colors and keys, then forms the
//!   communicator by the same rule.
//! * Receives have a generous timeout; a deadlocked protocol panics with a
//!   diagnostic instead of hanging the test suite.
//! * A rank that fails takes the run down at once. The first rank body to
//!   panic leaves its rank and message in the fabric; a receive that has
//!   parked wakes every `ABORT_CHECK` (20 ms), sees it, and panics with
//!   `aborted: rank R failed: <message>` instead of sleeping out its
//!   deadline, and [`run_ranks`] re-raises the first failure's payload —
//!   not the time-out of whichever rank it left waiting. Only the sleep
//!   looks: the poll below and `parked` (one per receive) are untouched.
//! * A receive polls before it parks. The channel (the vendored stand-in
//!   over `std::sync::mpsc`) parks a thread on an empty inbox, and being
//!   woken costs 21–27 µs against the 2 µs a small block's kernel call
//!   takes: two ranks that park on each other run one at a time. So every
//!   receive — `recv`, `try_recv_timeout`, and the internal ones of the
//!   collectives and `split`, strict and relaxed matching alike, because
//!   all of them end in `RankState::recv_matching` — first polls its
//!   inbox with `try_recv` for up to `POLL` (50 µs ≈ twice the wake-up it
//!   saves; spin-then-block), filing non-matching envelopes under `pending`
//!   as the parked loop does, and only then sleeps in `recv_timeout`. The
//!   poll is wall time inside the caller's deadline. Between polls the
//!   thread calls `yield_now`, not `spin_loop`: with more ranks than cores
//!   the awaited sender may need this CPU, and a spinner that holds it
//!   delays the very message it is waiting for (DESIGN.md §17 has the
//!   measurements). There is no knob; a receive has one path.
//! * Blocked time ([`PhaseCounters::blocked_secs`](crate::PhaseCounters),
//!   the trace's `Blocked` spans) runs from receive posted to envelope
//!   matched, polled or asleep. Its clock-free companion is
//!   [`PhaseCounters::parked`](crate::PhaseCounters): the receives that ran
//!   out of poll budget and slept.
//! * A rank keeps one ledger. Every message is counted once, in the rank's
//!   [`CommStats`], on every run; a traced run's `comm_*` metrics are that
//!   ledger written into the rank's metrics shard when its body returns.
//!   The ledger, the inbox and the recorders are one `Rc`-shared value the
//!   world communicator and every `split` of it hold, and every recorder
//!   stamps against the one epoch [`run_ranks`] takes before it hands the
//!   ranks their bodies.
//! * Rank threads outlive a run, as `mpirun`'s processes outlive a step.
//!   A launch of `p` ranks takes an idle worker thread named `rank-{r}`
//!   for each `r < p` from a process-wide pool, spawns one only where none
//!   is idle, and parks them again when every body has returned; a
//!   launch never shares a worker with another, so launches may run at
//!   once and a rank body may launch ranks of its own. What a run
//!   communicates is still its own: fresh inboxes, a fresh fabric and a
//!   fresh per-rank state each time (DESIGN.md §20.5).

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;

use crate::communicator::{CommData, Communicator};
use crate::error::CommError;
use crate::stats::{CommStats, Phase, PHASE_COUNT};
use nbody_metrics::{MetricsRecorder, MetricsSnapshot};
use nbody_timeline::{RunTimeline, TimelineRecorder};
use nbody_trace::{ExecutionTrace, Tracer};
use nbody_wireprobe::{ProbeRecorder, WireLog};

/// Parse an `NBODY_RECV_TIMEOUT_SECS` value: a positive integer number of
/// seconds, or `None` when the variable is unset (→ the 60 s default).
/// Malformed or zero values are an error — a typo'd timeout silently
/// becoming 60 s is exactly the kind of misconfiguration that shows up as
/// an unexplained hang or a premature deadlock diagnosis much later.
fn parse_recv_timeout(raw: Option<&str>) -> Result<u64, String> {
    match raw {
        None => Ok(60),
        Some(s) => match s.trim().parse::<u64>() {
            Ok(0) => Err(format!(
                "NBODY_RECV_TIMEOUT_SECS must be a positive number of seconds, got '{s}'"
            )),
            Ok(secs) => Ok(secs),
            Err(e) => Err(format!(
                "NBODY_RECV_TIMEOUT_SECS must be a positive number of seconds, got '{s}': {e}"
            )),
        },
    }
}

/// Validate the one environment variable the transport reads,
/// `NBODY_RECV_TIMEOUT_SECS`. Called implicitly at the start of every
/// distributed execution; front-ends can call it explicitly to turn a
/// malformed value into a clean startup error instead of a panic inside
/// the rank spawner.
pub fn validate_env() -> Result<(), String> {
    let raw = std::env::var("NBODY_RECV_TIMEOUT_SECS").ok();
    parse_recv_timeout(raw.as_deref()).map(drop)
}

/// How long a blocking receive may wait before the runtime declares a
/// deadlock. Overridable via `NBODY_RECV_TIMEOUT_SECS` so long-running test
/// suites can fail fast with a diagnostic instead of hitting the harness
/// timeout (read once per process). A malformed value is a startup error,
/// not a silent fallback to the default.
fn recv_timeout() -> Duration {
    static SECS: OnceLock<u64> = OnceLock::new();
    let secs = *SECS.get_or_init(|| {
        let raw = std::env::var("NBODY_RECV_TIMEOUT_SECS").ok();
        parse_recv_timeout(raw.as_deref()).unwrap_or_else(|e| panic!("{e}"))
    });
    Duration::from_secs(secs)
}

/// Tag space reserved for internal collective plumbing.
const INTERNAL_TAG_BASE: u64 = 1 << 48;

struct Envelope {
    comm: u64,
    src_global: usize,
    tag: u64,
    payload: Box<dyn Any + Send>,
}

/// Shared transport state: one inbox sender per global rank plus the
/// communicator-identity registry.
pub(crate) struct Fabric {
    senders: Vec<Sender<Envelope>>,
    registry: Mutex<HashMap<(u64, u64, usize), u64>>,
    next_comm: AtomicU64,
    /// Relaxed matching: receives match on `(comm, src, tag)` instead of
    /// `(comm, src)`-then-assert-tag. Only chaos executions enable this —
    /// it lets a retried protocol leave stale or duplicated messages of a
    /// previous attempt unconsumed instead of tripping the tag assertion.
    relaxed: bool,
    /// The first rank whose body panicked, and what it said. Once set, the
    /// run is over: a parked receive that sees it panics too instead of
    /// waiting out its deadline for a message that may never be sent.
    failed: OnceLock<(usize, String)>,
}

impl Fabric {
    fn comm_id_for(&self, parent: u64, seq: u64, color: usize) -> u64 {
        let mut reg = self.registry.lock();
        *reg.entry((parent, seq, color))
            .or_insert_with(|| self.next_comm.fetch_add(1, Ordering::Relaxed))
    }
}

/// Everything a rank's transport reads and writes, built once per rank
/// thread by [`run_ranks_owned`] and shared by its world communicator and
/// every `split` of it: the fabric, the inbox, the ledger and the
/// recorders, which stamp time against the run's one epoch.
struct RankState {
    fabric: Arc<Fabric>,
    /// The inbox, and what was taken off it before its receive was posted.
    rx: Receiver<Envelope>,
    pending: RefCell<HashMap<(u64, usize), VecDeque<Envelope>>>,
    stats: RefCell<CommStats>,
    tracer: Tracer,
    metrics: MetricsRecorder,
    timeline: TimelineRecorder,
    wire: ProbeRecorder,
}

/// How long a receive polls its inbox before it parks: about twice the
/// parked hand-off it replaces (21–27 µs for a 1 KB `sendrecv`,
/// `comm.sendrecv_ns` on `allpairs_latency`) — the competitive
/// spin-then-block rule, under which a receive that parks after all has
/// spent at most twice what parking at once would have cost it.
/// Measured, the step time is flat from 10 µs to 1 ms and climbs below
/// (2 µs: the poll gives up before a peer one kernel call behind has sent;
/// DESIGN.md §17 has the sweep), so the value needs no tuning — and it is
/// wall time inside the caller's deadline, never added to it.
const POLL: Duration = Duration::from_micros(50);

/// How long a parked receive sleeps between looks at [`Fabric::failed`]:
/// what a failed rank costs its waiting peers before they follow it down.
const ABORT_CHECK: Duration = Duration::from_millis(20);

impl RankState {
    /// Pull envelopes off the inbox until one matching `(comm, src)` — and,
    /// when `want_tag` is set (relaxed mode), the tag — is available,
    /// buffering everything else: polling for the first [`POLL`] of the
    /// wait, parked on the channel after it. When nothing matching arrives
    /// within `timeout` the error is how long the receive waited; the
    /// caller, which knows the local rank and the tag it posted, makes the
    /// [`CommError::Timeout`] of it. Parked, it also looks at
    /// [`Fabric::failed`] every [`ABORT_CHECK`] and panics if a rank has.
    fn recv_matching(
        &self,
        key @ (comm, src_global): (u64, usize),
        want_tag: Option<u64>,
        timeout: Duration,
    ) -> Result<Envelope, Duration> {
        let tag_ok = |env: &Envelope| match want_tag {
            Some(t) => env.tag == t,
            None => true,
        };
        let mut pending = self.pending.borrow_mut();
        if let Some(queue) = pending.get_mut(&key) {
            if let Some(pos) = queue.iter().position(&tag_ok) {
                // In strict mode `pos` is always 0 (plain FIFO pop); in
                // relaxed mode messages of other tags stay queued.
                return Ok(queue.remove(pos).expect("position came from this queue"));
            }
        }
        let start = Instant::now();
        let mut parked = false;
        let matched = loop {
            let waited = start.elapsed();
            let Some(remaining) = timeout.checked_sub(waited) else {
                break None;
            };
            let env = if waited < POLL {
                match self.rx.try_recv() {
                    Ok(env) => env,
                    Err(_) => {
                        // Hand the CPU over instead of `spin_loop`: with more
                        // ranks than cores the sender may be waiting for it.
                        std::thread::yield_now();
                        continue;
                    }
                }
            } else {
                if !parked {
                    parked = true;
                    self.stats.borrow_mut().record_parked();
                }
                // Asleep in slices, so that a peer's failure ends the wait
                // (the deadline is re-read at the top of the loop).
                match self.rx.recv_timeout(remaining.min(ABORT_CHECK)) {
                    Ok(env) => env,
                    Err(_) => match self.fabric.failed.get() {
                        Some((rank, why)) => panic!("aborted: rank {rank} failed: {why}"),
                        None => continue,
                    },
                }
            };
            if env.comm == comm && env.src_global == src_global && tag_ok(&env) {
                break Some(env);
            }
            pending
                .entry((env.comm, env.src_global))
                .or_default()
                .push_back(env);
        };
        // Blocked time is receive posted → envelope matched (or given up
        // on), whether the wait was polled, parked or both.
        self.stats
            .borrow_mut()
            .record_blocked(start.elapsed().as_secs_f64());
        self.tracer.record_blocked(start, Some(src_global as u32));
        matched.ok_or_else(|| start.elapsed())
    }
}

/// A communicator whose ranks are threads of the current process.
///
/// Construct the world communicator with [`run_ranks`]; derive grids with
/// [`Communicator::split`]. The handle is deliberately `!Send`: it belongs
/// to its rank's thread.
pub struct ThreadComm {
    /// The rank's transport state, shared with every split.
    state: Rc<RankState>,
    comm_id: u64,
    /// Global ranks of the members, indexed by local rank.
    members: Vec<usize>,
    my_local: usize,
    split_seq: Cell<u64>,
    coll_seq: Cell<u64>,
}

impl ThreadComm {
    /// The global rank of member `local`.
    fn global_of(&self, local: usize) -> Result<usize, CommError> {
        let size = self.size();
        let invalid = CommError::InvalidRank { rank: local, size };
        self.members.get(local).copied().ok_or(invalid)
    }

    fn my_global(&self) -> usize {
        self.members[self.my_local]
    }

    fn try_send_raw<T: CommData>(
        &self,
        dst_local: usize,
        tag: u64,
        data: Vec<T>,
        count_stats: bool,
    ) -> Result<(), CommError> {
        let dst = self.global_of(dst_local)?;
        let bytes = data.len() * std::mem::size_of::<T>();
        let phase = {
            let mut stats = self.state.stats.borrow_mut();
            if count_stats {
                stats.record_send(dst, data.len(), bytes);
            } else {
                stats.record_collective_message();
                stats.record_message_size(bytes);
            }
            stats.current_phase()
        };
        // Probe only protocol point-to-point traffic: collectives manage
        // their own internal messages and are accounted at the collective
        // level, mirroring the schedule's per-message predictions.
        if count_stats {
            self.state.wire.send(
                dst as u32,
                self.comm_id,
                tag,
                phase,
                data.len() as u64,
                bytes as u64,
            );
        }
        let env = Envelope {
            comm: self.comm_id,
            src_global: self.my_global(),
            tag,
            payload: Box::new(data),
        };
        self.state.fabric.senders[dst]
            .send(env)
            .map_err(|_| CommError::FabricClosed)
    }

    fn send_raw<T: CommData>(&self, dst_local: usize, tag: u64, data: Vec<T>, count_stats: bool) {
        self.try_send_raw(dst_local, tag, data, count_stats)
            .unwrap_or_else(|e| panic!("rank {} of comm {}: {e}", self.my_local, self.comm_id));
    }

    fn try_recv_raw<T: CommData>(
        &self,
        src_local: usize,
        tag: u64,
        timeout: Duration,
        count_stats: bool,
    ) -> Result<Vec<T>, CommError> {
        let src_global = self.global_of(src_local)?;
        // Strict mode matches (comm, src) in FIFO order and then checks the
        // tag (a mismatch is a protocol violation); relaxed mode also keys
        // the match on the tag, so stale-attempt messages are skipped.
        let want_tag = self.state.fabric.relaxed.then_some(tag);
        let env = self
            .state
            .recv_matching((self.comm_id, src_global), want_tag, timeout)
            .map_err(|waited| CommError::Timeout {
                src: src_local,
                tag,
                waited,
            })?;
        if env.tag != tag {
            return Err(CommError::TagMismatch {
                src: src_local,
                expected: tag,
                got: env.tag,
            });
        }
        let data =
            env.payload
                .downcast::<Vec<T>>()
                .map(|b| *b)
                .map_err(|_| CommError::TypeMismatch {
                    src: src_local,
                    tag,
                })?;
        // Mirror of the send-side accounting: point-to-point receives are
        // counted so per-rank ingress (the recv half of the heat-map) is
        // observable; collective-internal receives are already attributed
        // by `record_collective` on each member.
        if count_stats {
            let bytes = data.len() * std::mem::size_of::<T>();
            let phase = {
                let mut stats = self.state.stats.borrow_mut();
                stats.record_recv(data.len(), bytes);
                stats.current_phase()
            };
            self.state.wire.recv(
                src_global as u32,
                self.comm_id,
                tag,
                phase,
                data.len() as u64,
                bytes as u64,
            );
        }
        Ok(data)
    }

    fn recv_raw<T: CommData>(&self, src_local: usize, tag: u64, count_stats: bool) -> Vec<T> {
        self.try_recv_raw(src_local, tag, recv_timeout(), count_stats)
            .unwrap_or_else(|e| panic!("rank {} of comm {}: {e}", self.my_local, self.comm_id))
    }

    /// Attribute a collective's payload to the ledger.
    fn record_collective<T>(&self, elements: usize) {
        let bytes = elements * std::mem::size_of::<T>();
        self.state
            .stats
            .borrow_mut()
            .record_collective(elements, bytes);
    }

    /// Reserve a fresh internal tag for one collective operation. All ranks
    /// call collectives in identical order, so the sequence agrees globally.
    fn next_internal_tag(&self) -> u64 {
        let seq = self.coll_seq.get();
        self.coll_seq.set(seq + 1);
        INTERNAL_TAG_BASE + seq
    }
}

impl Communicator for ThreadComm {
    fn rank(&self) -> usize {
        self.my_local
    }

    fn size(&self) -> usize {
        self.members.len()
    }

    fn set_phase(&self, phase: Phase) {
        self.state.stats.borrow_mut().set_phase(phase);
        self.state.tracer.phase_change(phase);
    }

    fn stats(&self) -> CommStats {
        self.state.stats.borrow().clone()
    }

    fn tracer(&self) -> Tracer {
        self.state.tracer.clone()
    }

    fn metrics(&self) -> MetricsRecorder {
        self.state.metrics.clone()
    }

    fn timeline(&self) -> TimelineRecorder {
        self.state.timeline.clone()
    }

    fn wire(&self) -> ProbeRecorder {
        self.state.wire.clone()
    }

    fn send<T: CommData>(&self, dst: usize, tag: u64, data: &[T]) {
        self.send_raw(dst, tag, data.to_vec(), true);
    }

    fn send_vec<T: CommData>(&self, dst: usize, tag: u64, data: Vec<T>) {
        self.send_raw(dst, tag, data, true);
    }

    fn recv<T: CommData>(&self, src: usize, tag: u64) -> Vec<T> {
        self.recv_raw(src, tag, true)
    }

    fn try_send<T: CommData>(&self, dst: usize, tag: u64, data: &[T]) -> Result<(), CommError> {
        self.try_send_raw(dst, tag, data.to_vec(), true)
    }

    fn try_recv_timeout<T: CommData>(
        &self,
        src: usize,
        tag: u64,
        timeout: Duration,
    ) -> Result<Vec<T>, CommError> {
        self.try_recv_raw(src, tag, timeout, true)
    }

    fn bcast<T: CommData>(&self, root: usize, buf: &mut Vec<T>) {
        let size = self.size();
        assert!(root < size, "bcast root {root} out of range");
        if size == 1 {
            return;
        }
        let tag = self.next_internal_tag();
        // Binomial tree rooted at `root` (MPICH-style).
        let vrank = (self.my_local + size - root) % size;
        let mut mask = 1usize;
        while mask < size {
            if vrank & mask != 0 {
                let src = (vrank - mask + root) % size;
                *buf = self.recv_raw::<T>(src, tag, false);
                break;
            }
            mask <<= 1;
        }
        mask >>= 1;
        while mask > 0 {
            if vrank + mask < size {
                let dst = (vrank + mask + root) % size;
                self.send_raw(dst, tag, buf.clone(), false);
            }
            mask >>= 1;
        }
        // Recorded after completion so every member logs the payload size
        // (non-roots don't know it on entry).
        self.record_collective::<T>(buf.len());
    }

    fn reduce<T: CommData>(&self, root: usize, buf: &mut Vec<T>, combine: fn(&mut T, &T)) {
        // A borrowed buffer stays with its rank: the root lends its own to
        // the tree and takes the result back, the others contribute a copy.
        if self.my_local == root {
            *buf = self
                .reduce_vec(root, std::mem::take(buf), combine)
                .expect("the root keeps the combined buffer");
        } else {
            self.reduce_vec(root, buf.clone(), combine);
        }
    }

    fn reduce_vec<T: CommData>(
        &self,
        root: usize,
        mut buf: Vec<T>,
        combine: fn(&mut T, &T),
    ) -> Option<Vec<T>> {
        let size = self.size();
        assert!(root < size, "reduce root {root} out of range");
        if size == 1 {
            return Some(buf);
        }
        self.record_collective::<T>(buf.len());
        let tag = self.next_internal_tag();
        // Binomial tree reduction mirroring the broadcast: contributions from
        // higher virtual ranks are folded into lower ones, ending at vrank 0
        // (= `root`). Combination order is deterministic. A rank's buffer
        // moves to its parent once its own subtree is folded in.
        let vrank = (self.my_local + size - root) % size;
        let mut mask = 1usize;
        while mask < size {
            if vrank & mask != 0 {
                let dst = (vrank - mask + root) % size;
                self.send_raw(dst, tag, buf, false);
                return None;
            }
            let partner = vrank | mask;
            if partner < size {
                let src = (partner + root) % size;
                let incoming = self.recv_raw::<T>(src, tag, false);
                assert_eq!(
                    incoming.len(),
                    buf.len(),
                    "reduce buffers must agree in length"
                );
                for (acc, x) in buf.iter_mut().zip(&incoming) {
                    combine(acc, x);
                }
            }
            mask <<= 1;
        }
        Some(buf)
    }

    fn gather<T: CommData>(&self, root: usize, data: &[T]) -> Option<Vec<Vec<T>>> {
        let size = self.size();
        assert!(root < size, "gather root {root} out of range");
        if size == 1 {
            return Some(vec![data.to_vec()]);
        }
        self.record_collective::<T>(data.len());
        let tag = self.next_internal_tag();
        if self.my_local == root {
            let mut out = Vec::with_capacity(size);
            for r in 0..size {
                if r == root {
                    out.push(data.to_vec());
                } else {
                    out.push(self.recv_raw::<T>(r, tag, false));
                }
            }
            Some(out)
        } else {
            self.send_raw(root, tag, data.to_vec(), false);
            None
        }
    }

    fn barrier(&self) {
        let size = self.size();
        if size == 1 {
            return;
        }
        self.record_collective::<u8>(0);
        let tag = self.next_internal_tag();
        // Dissemination barrier: log2(size) rounds of shifted token passing.
        let mut step = 1usize;
        while step < size {
            let dst = (self.my_local + step) % size;
            let src = (self.my_local + size - step) % size;
            self.send_raw::<u8>(dst, tag + step as u64, Vec::new(), false);
            let _ = self.recv_raw::<u8>(src, tag + step as u64, false);
            step <<= 1;
        }
    }

    fn split(&self, color: usize, key: usize) -> ThreadComm {
        // Exchange (color, key) so every member knows every rank's pair.
        let pairs = self.allgather(&[(color, key)]);
        self.split_by(|rank| pairs[rank][0])
    }

    /// The one rule that forms a communicator: the members are the ranks
    /// `of` gives this rank's color, ordered by key and then global rank,
    /// and the id is the registry's for `(parent, split sequence, color)`.
    /// Nothing is sent.
    fn split_by(&self, of: impl Fn(usize) -> (usize, usize)) -> ThreadComm {
        let seq = self.split_seq.get();
        self.split_seq.set(seq + 1);
        let (color, _) = of(self.my_local);
        let mut mine: Vec<(usize, usize)> = (0..self.size())
            .filter_map(|rank| {
                let (c, key) = of(rank);
                (c == color).then(|| (key, self.members[rank]))
            })
            .collect();
        mine.sort_unstable();
        let members: Vec<usize> = mine.iter().map(|&(_, g)| g).collect();
        let my_local = members
            .iter()
            .position(|&g| g == self.my_global())
            .expect("rank missing from its own split");
        let comm_id = self.state.fabric.comm_id_for(self.comm_id, seq, color);
        ThreadComm {
            state: Rc::clone(&self.state),
            comm_id,
            members,
            my_local,
            split_seq: Cell::new(0),
            coll_seq: Cell::new(0),
        }
    }
}

/// Which per-rank recorders an execution turns on beside the bounded
/// flight-event ring behind postmortem bundles, which every execution
/// keeps. The default is what [`run_ranks`] runs with: the ring alone.
/// Every recorder stamps time against one epoch, taken once before the
/// ranks are handed their bodies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Lenses {
    /// Wall-clock span recording, live metrics (the ledger's `comm_*`
    /// families among them) and per-step timeline samples: every rank's
    /// communicator carries an enabled [`Tracer`] and [`MetricsRecorder`].
    pub trace: bool,
    /// Wire probes: every rank's [`ProbeRecorder`] stamps each
    /// point-to-point send/recv, so cross-rank send→recv latencies are
    /// comparable even in untraced runs. The per-message ring is strictly
    /// opt-in.
    pub probe: bool,
}

/// What the recorders of one execution captured, merged across ranks. A
/// lens that was off leaves its artifact empty.
#[derive(Debug, Clone)]
pub struct Artifacts {
    /// Per-rank wall-clock spans ([`Lenses::trace`]).
    pub trace: ExecutionTrace,
    /// Live metrics shards ([`Lenses::trace`]).
    pub metrics: MetricsSnapshot,
    /// Flight events (always) and step samples ([`Lenses::trace`]).
    pub timeline: RunTimeline,
    /// Per-message probe events ([`Lenses::probe`]).
    pub wire: WireLog,
}

/// Run `f` on `p` rank threads, each with its world communicator, and
/// return the per-rank results in rank order. The threads are the pool's
/// (see the module docs): a second launch of `p` ranks in one process
/// spawns none.
///
/// This is the entry point of every distributed execution in the
/// reproduction — the analogue of `mpirun -np p` — with the default
/// [`Lenses`]; use [`run_ranks_with`] to turn recorders on and keep what
/// they captured.
pub fn run_ranks<R, F>(p: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(&mut ThreadComm) -> R + Sync,
{
    run_ranks_with(p, Lenses::default(), f).0
}

/// [`run_ranks`] under the given [`Lenses`], returning the merged
/// [`Artifacts`] next to the per-rank results.
pub fn run_ranks_with<R, F>(p: usize, lenses: Lenses, f: F) -> (Vec<R>, Artifacts)
where
    R: Send,
    F: Fn(&mut ThreadComm) -> R + Sync,
{
    run_ranks_owned(p, false, lenses, |mut comm| f(&mut comm))
}

/// A rank's work for one launch, its borrows erased (see
/// [`run_ranks_owned`]).
type Job = Box<dyn FnOnce() + Send>;

/// A parked rank thread, reached through its job channel. The thread runs
/// the jobs it is sent, one at a time, until the channel closes.
struct Worker {
    jobs: Sender<Job>,
}

/// The idle workers, one list per rank index: a worker spawned as rank `r`
/// is named `rank-{r}` and only ever runs rank `r` again.
static IDLE: Mutex<Vec<Vec<Worker>>> = Mutex::new(Vec::new());

/// Takes and parks so far, so a test can tell whether another launch used
/// the pool between two of its own.
#[cfg(test)]
static POOL_OPS: AtomicU64 = AtomicU64::new(0);

impl Worker {
    /// The handle is dropped: a worker lives as long as the process, and
    /// no panic ends it, because every job catches its body's.
    fn spawn(rank: usize) -> Worker {
        let (jobs, rx) = unbounded::<Job>();
        std::thread::Builder::new()
            .name(format!("rank-{rank}"))
            .spawn(move || {
                while let Ok(job) = rx.recv() {
                    job()
                }
            })
            .expect("failed to spawn rank thread");
        Worker { jobs }
    }
}

/// An idle worker for each rank below `p`, spawning one where none is —
/// outside the lock, so a launch that spawns holds up no other.
fn take_workers(p: usize) -> Vec<Worker> {
    let idle: Vec<Option<Worker>> = {
        let mut lists = IDLE.lock();
        #[cfg(test)]
        POOL_OPS.fetch_add(1, Ordering::Relaxed);
        (0..p)
            .map(|r| lists.get_mut(r).and_then(Vec::pop))
            .collect()
    };
    let spawn = |(r, w): (usize, Option<Worker>)| w.unwrap_or_else(|| Worker::spawn(r));
    idle.into_iter().enumerate().map(spawn).collect()
}

/// Put `(rank, worker)` pairs back on the idle lists.
fn park_workers(workers: impl IntoIterator<Item = (usize, Worker)>) {
    let mut lists = IDLE.lock();
    #[cfg(test)]
    POOL_OPS.fetch_add(1, Ordering::Relaxed);
    for (r, worker) in workers {
        if lists.len() <= r {
            lists.resize_with(r + 1, Vec::new);
        }
        lists[r].push(worker);
    }
}

/// Shared body of every entry point: hand each of `p` pooled rank threads
/// its world [`ThreadComm`] (owned, so wrappers like `ChaosComm` can absorb
/// it), wait for every body, park the threads again and merge the per-rank
/// recorder buffers. `relaxed` selects the fabric's tag-matching mode.
pub(crate) fn run_ranks_owned<R, F>(
    p: usize,
    relaxed: bool,
    lenses: Lenses,
    f: F,
) -> (Vec<R>, Artifacts)
where
    R: Send,
    F: Fn(ThreadComm) -> R + Sync,
{
    assert!(p > 0, "need at least one rank");
    // Surface a malformed NBODY_RECV_TIMEOUT_SECS here, before any rank
    // runs — a startup error instead of a mid-protocol panic.
    let _ = recv_timeout();
    let mut senders = Vec::with_capacity(p);
    let mut receivers = Vec::with_capacity(p);
    for _ in 0..p {
        let (tx, rx) = unbounded();
        senders.push(tx);
        receivers.push(rx);
    }
    let fabric = Arc::new(Fabric {
        senders,
        registry: Mutex::new(HashMap::new()),
        next_comm: AtomicU64::new(1),
        relaxed,
        failed: OnceLock::new(),
    });
    // Every worker before the first job: a spawn that fails unwinds from
    // here, past no running rank.
    let workers = take_workers(p);
    // The run's one clock: spans, flight events and probe stamps from
    // different rank threads are subtractable because they all count from
    // here.
    let epoch = Instant::now();

    let (done_tx, done_rx) = unbounded();
    let mut outcomes: Vec<Option<_>> = (0..p).map(|_| None).collect();
    let mut running = Vec::with_capacity(p);
    let f = &f;
    for (rank, (worker, rx)) in workers.into_iter().zip(receivers).enumerate() {
        let (shared, done) = (Arc::clone(&fabric), done_tx.clone());
        let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let state = Rc::new(RankState {
                    fabric: shared,
                    rx,
                    pending: RefCell::default(),
                    // A channel per peer and phase would be p^2 slots a
                    // run; a rank of the CA drivers sends on a few.
                    stats: RefCell::new(CommStats::with_room_for(p + PHASE_COUNT)),
                    tracer: match lenses.trace {
                        true => Tracer::for_rank(rank, epoch),
                        false => Tracer::disabled(),
                    },
                    metrics: match lenses.trace {
                        true => MetricsRecorder::for_rank(rank),
                        false => MetricsRecorder::disabled(),
                    },
                    timeline: TimelineRecorder::for_rank(rank as u32, epoch, lenses.trace),
                    wire: match lenses.probe {
                        true => ProbeRecorder::for_rank(rank as u32, epoch),
                        false => ProbeRecorder::disabled(),
                    },
                });
                let comm = ThreadComm {
                    state: Rc::clone(&state),
                    comm_id: 0,
                    members: (0..p).collect(),
                    my_local: rank,
                    split_seq: Cell::new(0),
                    coll_seq: Cell::new(0),
                };
                // The first body to panic is the run's failure: say so
                // where the peers parked on this rank will look.
                let result = catch_unwind(AssertUnwindSafe(|| f(comm))).unwrap_or_else(|e| {
                    let why = e.downcast_ref::<String>().map(String::as_str);
                    let why = why.or(e.downcast_ref::<&str>().copied());
                    let why = why.unwrap_or("(no message)").to_string();
                    let _ = state.fabric.failed.set((rank, why));
                    resume_unwind(e)
                });
                // Close the books: the ledger goes into the metrics
                // shard, then every recorder is drained.
                let s = &*state;
                s.stats.borrow().export(&s.metrics);
                let (spans, shard) = (s.tracer.finish(), s.metrics.finish());
                (result, spans, shard, s.timeline.finish(), s.wire.finish())
            }));
            let _ = done.send((rank, outcome));
        });
        // SAFETY: the job borrows `f` and carries `R`, both of which live
        // only until this function returns; the erasure lets a thread that
        // outlives the call run it. That is sound because the function
        // cannot return, or unwind, while a job that was sent is alive:
        // * every worker was taken or spawned above, before the first job
        //   is sent, so a spawn that fails unwinds past no running job;
        // * nothing from the first send to the last receive below can
        //   panic: a failed send hands the job back and drops it, and the
        //   receives and the slot writes are checked, not indexed;
        // * a job catches its body's panic, and everything it captured is
        //   moved into that body and dropped there; sending the outcome is
        //   its last action, after which it holds only plain copies and its
        //   sender, whose drop touches the channel's own allocation, empty
        //   of outcomes by then, and no borrow;
        // * a job that was never run is dropped, and with it its sender:
        //   a receive that finds the channel disconnected also means no
        //   job is alive.
        let job: Job = unsafe { std::mem::transmute(job) };
        match worker.jobs.send(job) {
            Ok(()) => running.push((rank, worker)),
            // The thread is gone (no job unwinds out of it, so it cannot
            // be): its peers must not wait for it.
            Err(_) => {
                let _ = fabric.failed.set((rank, "its rank thread is gone".into()));
            }
        }
    }
    drop(done_tx);
    for _ in 0..running.len() {
        let Ok((rank, outcome)) = done_rx.recv() else {
            break;
        };
        if let Some(slot) = outcomes.get_mut(rank) {
            *slot = Some(outcome);
        }
    }
    park_workers(running.into_iter().filter(|(r, _)| outcomes[*r].is_some()));

    // Propagate the original payload so callers (and tests) see the real
    // panic message instead of "Any { .. }" — the first failure's, not that
    // of the lowest rank it took down with it.
    let mut outcomes: Vec<_> = outcomes
        .into_iter()
        .enumerate()
        .map(|(rank, o)| {
            o.unwrap_or_else(|| {
                Err(Box::new(format!("rank {rank}: its rank thread is gone"))
                    as Box<dyn Any + Send>)
            })
        })
        .collect();
    if let Some(&(first, _)) = fabric.failed.get() {
        if let Err(payload) = outcomes.swap_remove(first) {
            resume_unwind(payload)
        }
    }

    let mut results = Vec::with_capacity(p);
    let mut buffers = Vec::with_capacity(p);
    let mut shards = Vec::with_capacity(p);
    let mut timelines = Vec::with_capacity(p);
    let mut wires = Vec::with_capacity(p);
    for outcome in outcomes {
        let (r, spans, metrics, timeline, wire) = outcome.unwrap_or_else(|e| resume_unwind(e));
        results.push(r);
        buffers.push(spans);
        shards.push(metrics);
        timelines.extend(timeline);
        wires.extend(wire);
    }
    let artifacts = Artifacts {
        trace: ExecutionTrace::from_rank_buffers(buffers),
        metrics: MetricsSnapshot::from_shards(shards),
        timeline: RunTimeline::from_ranks(timelines),
        wire: WireLog::from_ranks(wires),
    };
    (results, artifacts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::communicator::sum_combine;

    const TRACED: Lenses = Lenses {
        trace: true,
        probe: false,
    };
    const PROBED: Lenses = Lenses {
        trace: false,
        probe: true,
    };

    #[test]
    fn world_ranks_and_sizes() {
        let out = run_ranks(4, |comm| (comm.rank(), comm.size()));
        assert_eq!(out, vec![(0, 4), (1, 4), (2, 4), (3, 4)]);
    }

    #[test]
    fn point_to_point_roundtrip() {
        let out = run_ranks(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 7, &[10u64, 20, 30]);
                comm.recv::<u64>(1, 8)
            } else {
                let got = comm.recv::<u64>(0, 7);
                comm.send(0, 8, &[got.iter().sum::<u64>()]);
                got
            }
        });
        assert_eq!(out[0], vec![60]);
        assert_eq!(out[1], vec![10, 20, 30]);
    }

    #[test]
    fn owned_send_hands_over_the_allocation_and_counts_like_send() {
        let out = run_ranks(2, |comm| {
            comm.set_phase(Phase::Shift);
            if comm.rank() == 0 {
                let data = vec![10u64, 20, 30];
                let at = data.as_ptr() as usize;
                comm.send_vec(1, 7, data);
                let owned = comm.stats();
                comm.send(1, 8, &[10u64, 20, 30]);
                (at, owned, comm.stats())
            } else {
                let moved = comm.recv::<u64>(0, 7);
                let copied = comm.recv::<u64>(0, 8);
                assert_eq!(moved, copied);
                (moved.as_ptr() as usize, comm.stats(), comm.stats())
            }
        });
        // The receiver holds the very buffer the sender filled.
        assert_eq!(out[0].0, out[1].0);
        // One owned send is one message of three elements and 24 bytes, and
        // the borrowed send after it counts exactly the same again.
        let (owned, both) = (out[0].1.phase(Phase::Shift), out[0].2.phase(Phase::Shift));
        assert_eq!((owned.messages, owned.elements, owned.bytes), (1, 3, 24));
        assert_eq!((both.messages, both.elements, both.bytes), (2, 6, 48));
    }

    #[test]
    fn fifo_order_per_pair() {
        // Fifty messages under one tag on the world and fifty on a split,
        // all taken off the inbox into the pending queues before the first
        // is received (rank 1 waits for a third communicator first): each
        // channel still delivers in send order, from the queue as from the
        // inbox.
        let out = run_ranks(2, |comm| {
            let row = comm.split_by(|r| (0, r));
            let done = comm.split_by(|r| (0, r));
            if comm.rank() == 0 {
                for i in 0..50u64 {
                    comm.send(1, 7, &[i]);
                }
                for i in 0..50u64 {
                    row.send(1, 7, &[100 + i]);
                }
                done.send(1, 7, &[0u64]);
                Vec::new()
            } else {
                done.recv::<u64>(0, 7);
                let split: Vec<u64> = (0..50).map(|_| row.recv::<u64>(0, 7)[0]).collect();
                let world = (0..50).map(|_| comm.recv::<u64>(0, 7)[0]);
                world.chain(split).collect()
            }
        });
        let sent: Vec<u64> = (0..50).chain(100..150).collect();
        assert_eq!(out[1], sent);
    }

    #[test]
    fn ring_shift_does_not_deadlock() {
        let p = 8;
        let out = run_ranks(p, |comm| {
            let right = (comm.rank() + 1) % p;
            let left = (comm.rank() + p - 1) % p;
            let mut token = vec![comm.rank() as u64];
            for _ in 0..p {
                token = comm.sendrecv(right, left, 1, &token);
            }
            token[0]
        });
        // After p shifts each token returns home.
        assert_eq!(out, (0..p as u64).collect::<Vec<_>>());
    }

    #[test]
    fn bcast_from_each_root() {
        for root in 0..5 {
            let out = run_ranks(5, move |comm| {
                let mut buf = if comm.rank() == root {
                    vec![42u32, 43, 44]
                } else {
                    Vec::new()
                };
                comm.bcast(root, &mut buf);
                buf
            });
            for r in out {
                assert_eq!(r, vec![42, 43, 44]);
            }
        }
    }

    #[test]
    fn reduce_sums_elementwise() {
        let p = 6;
        for root in [0, 3, 5] {
            let out = run_ranks(p, move |comm| {
                let mut buf = vec![comm.rank() as u64, 1];
                comm.reduce(root, &mut buf, sum_combine);
                (comm.rank(), buf)
            });
            let (_, buf) = &out[root];
            assert_eq!(*buf, vec![15, 6], "root {root}");
        }
    }

    #[test]
    fn owned_reduce_agrees_with_reduce_and_reduce_keeps_every_buffer_its_length() {
        let p = 6;
        for root in [0, 3, 5] {
            let out = run_ranks(p, move |comm| {
                let owned = comm.reduce_vec(root, vec![comm.rank() as u64, 1], sum_combine);
                // Callers loop `reduce` over one buffer, off the root too.
                let mut looped = vec![1u64, 1];
                for _ in 0..3 {
                    comm.reduce(root, &mut looped, sum_combine);
                    assert_eq!(looped.len(), 2);
                }
                let mut buf = vec![comm.rank() as u64, 1];
                comm.reduce(root, &mut buf, sum_combine);
                (owned, buf, comm.stats())
            });
            for (rank, (owned, buf, stats)) in out.iter().enumerate() {
                if rank == root {
                    assert_eq!(owned.as_deref(), Some(&[15, 6][..]), "root {root}");
                    assert_eq!(buf, &[15, 6], "root {root}");
                } else {
                    assert_eq!(*owned, None, "rank {rank}, root {root}");
                }
                // Five reductions of two 8-byte elements, either form.
                let c = stats.phase(Phase::Other);
                assert_eq!((c.collectives, c.collective_bytes), (5, 80));
            }
        }
    }

    #[test]
    fn allreduce_everywhere() {
        let out = run_ranks(4, |comm| {
            let mut buf = vec![1u64 << comm.rank()];
            comm.allreduce(&mut buf, sum_combine);
            buf[0]
        });
        assert_eq!(out, vec![15, 15, 15, 15]);
    }

    #[test]
    fn gather_in_rank_order() {
        let out = run_ranks(4, |comm| comm.gather(2, &[comm.rank() as u8, 0xFF]));
        assert!(out[0].is_none() && out[1].is_none() && out[3].is_none());
        assert_eq!(
            out[2],
            Some(vec![
                vec![0, 0xFF],
                vec![1, 0xFF],
                vec![2, 0xFF],
                vec![3, 0xFF]
            ])
        );
    }

    #[test]
    fn allgather_everywhere() {
        let out = run_ranks(3, |comm| comm.allgather(&[comm.rank() as u16 * 10]));
        for r in out {
            assert_eq!(r, vec![vec![0], vec![10], vec![20]]);
        }
    }

    #[test]
    fn barrier_completes() {
        // Not a timing assertion — just that no rank hangs or panics.
        let out = run_ranks(7, |comm| {
            for _ in 0..10 {
                comm.barrier();
            }
            true
        });
        assert!(out.iter().all(|&b| b));
    }

    #[test]
    fn split_forms_grid() {
        // 6 ranks -> 3 teams of 2 (color = rank % 3), then rows (color = rank / 3).
        let out = run_ranks(6, |comm| {
            let col = comm.split(comm.rank() % 3, comm.rank());
            let row = comm.split(comm.rank() / 3, comm.rank());
            // Column collective: sum of global ranks in my column.
            let mut csum = vec![comm.rank() as u64];
            col.allreduce(&mut csum, sum_combine);
            // Row collective: sum of global ranks in my row.
            let mut rsum = vec![comm.rank() as u64];
            row.allreduce(&mut rsum, sum_combine);
            (
                col.rank(),
                col.size(),
                csum[0],
                row.rank(),
                row.size(),
                rsum[0],
            )
        });
        for (g, &(crank, csize, csum, rrank, rsize, rsum)) in out.iter().enumerate() {
            assert_eq!(csize, 2);
            assert_eq!(rsize, 3);
            assert_eq!(crank, g / 3);
            assert_eq!(rrank, g % 3);
            assert_eq!(csum as usize, (g % 3) + (g % 3 + 3));
            let row_base = (g / 3) * 3;
            assert_eq!(rsum as usize, row_base * 3 + 3);
        }
    }

    #[test]
    fn split_key_reorders_ranks() {
        // Reverse ordering via key.
        let out = run_ranks(4, |comm| {
            let rev = comm.split(0, 100 - comm.rank());
            rev.rank()
        });
        assert_eq!(out, vec![3, 2, 1, 0]);
    }

    #[test]
    fn split_by_forms_what_split_forms_without_a_message() {
        // Colors rank % 3, keys reversed. Even ranks call `split`; odd ranks
        // take part in its allgather and then form theirs with `split_by`,
        // which itself sends nothing. Every color has ranks of both kinds,
        // so a token passed around each new communicator crosses between
        // the two: they must agree on the members, their order and the id.
        let of = |r: usize| (r % 3, 100 - r);
        let out = run_ranks(7, |comm| {
            let me = comm.rank();
            let sub = if me % 2 == 0 {
                comm.split(of(me).0, of(me).1)
            } else {
                let _ = comm.allgather(&[of(me)]);
                let before = comm.stats();
                let sub = comm.split_by(of);
                assert_eq!(comm.stats(), before, "split_by sent something");
                sub
            };
            let n = sub.size();
            sub.send((sub.rank() + 1) % n, 3, &[me]);
            let from = sub.recv::<usize>((sub.rank() + n - 1) % n, 3)[0];
            (sub.members.clone(), sub.rank(), from)
        });
        for (g, (members, local, from)) in out.into_iter().enumerate() {
            let want: Vec<usize> = (0..7).rev().filter(|r| r % 3 == g % 3).collect();
            assert_eq!(members, want, "rank {g}");
            assert_eq!(want[local], g);
            assert_eq!(from, want[(local + want.len() - 1) % want.len()]);
        }
    }

    #[test]
    fn nested_splits_are_isolated() {
        // Messages on a child communicator don't leak into the parent.
        let out = run_ranks(4, |comm| {
            let pair = comm.split(comm.rank() / 2, comm.rank());
            if pair.rank() == 0 {
                pair.send(1, 5, &[comm.rank() as u64]);
                0
            } else {
                pair.recv::<u64>(0, 5)[0]
            }
        });
        assert_eq!(out, vec![0, 0, 0, 2]);
    }

    #[test]
    fn stats_shared_across_split() {
        let out = run_ranks(2, |comm| {
            comm.set_phase(Phase::Shift);
            let sub = comm.split(0, comm.rank());
            if sub.rank() == 0 {
                sub.send(1, 1, &[1u8, 2, 3]);
            } else {
                let _ = sub.recv::<u8>(0, 1);
            }
            comm.stats()
        });
        // Rank 0 sent one 3-element message, attributed to Shift even though
        // it went through the sub-communicator.
        assert_eq!(out[0].phase(Phase::Shift).messages, 1);
        assert_eq!(out[0].phase(Phase::Shift).elements, 3);
        assert_eq!(out[1].phase(Phase::Shift).messages, 0);
    }

    #[test]
    fn single_rank_collectives_are_noops() {
        let out = run_ranks(1, |comm| {
            let mut buf = vec![9u8];
            comm.bcast(0, &mut buf);
            comm.reduce(0, &mut buf, sum_combine);
            comm.allreduce(&mut buf, sum_combine);
            comm.barrier();
            let g = comm.gather(0, &buf);
            let ag = comm.allgather(&buf);
            (buf, g, ag)
        });
        assert_eq!(out[0].0, vec![9]);
        assert_eq!(out[0].1, Some(vec![vec![9]]));
        assert_eq!(out[0].2, vec![vec![9]]);
    }

    #[test]
    fn blocked_time_is_recorded_on_real_waits() {
        // Receiver posts its recv ~50 ms before the sender sends: both the
        // stats counter and the trace must capture the wait.
        let (out, Artifacts { trace, .. }) = run_ranks_with(2, TRACED, |comm| {
            comm.set_phase(Phase::Shift);
            if comm.rank() == 0 {
                std::thread::sleep(Duration::from_millis(50));
                comm.send(1, 1, &[1u8]);
                0.0
            } else {
                let _ = comm.recv::<u8>(0, 1);
                comm.stats().phase(Phase::Shift).blocked_secs
            }
        });
        assert!(
            out[1] > 0.04,
            "receiver should have blocked ~50 ms, stats say {}s",
            out[1]
        );
        let blocked: Vec<_> = trace
            .spans
            .iter()
            .filter(|s| {
                s.rank == 1
                    && matches!(
                        s.kind,
                        nbody_trace::SpanKind::Blocked {
                            phase: Phase::Shift,
                            ..
                        }
                    )
            })
            .collect();
        assert_eq!(blocked.len(), 1, "one blocked interval: {blocked:?}");
        assert!(blocked[0].secs() > 0.04);
        // The wait is attributed to the late sender: global rank 0.
        match blocked[0].kind {
            nbody_trace::SpanKind::Blocked { peer, .. } => assert_eq!(peer, Some(0)),
            _ => unreachable!(),
        }
    }

    #[test]
    fn a_message_already_in_the_inbox_is_received_without_parking() {
        // Sender -> barrier -> receiver. The barrier is not the fabric's (its
        // receives would move the message to `pending` on the way): the
        // message is still in the inbox, and the first poll finds it.
        let sent = std::sync::Barrier::new(2);
        let out = run_ranks(2, |comm| {
            comm.set_phase(Phase::Shift);
            if comm.rank() == 0 {
                comm.send(1, 1, &[7u8]);
            }
            sent.wait();
            let got = (comm.rank() == 1).then(|| comm.recv::<u8>(0, 1));
            (got, comm.stats().phase(Phase::Shift).parked)
        });
        assert_eq!(out[1], (Some(vec![7]), 0));
    }

    #[test]
    fn a_late_sender_is_waited_for_asleep_and_counted_once() {
        let out = run_ranks(2, |comm| {
            // The receive is posted (give or take the barrier's own
            // hand-off) before the sender starts its 20 ms.
            comm.barrier();
            comm.set_phase(Phase::Shift);
            if comm.rank() == 0 {
                std::thread::sleep(Duration::from_millis(20));
                comm.send(1, 1, &[7u8]);
                None
            } else {
                let got = comm.recv::<u8>(0, 1);
                Some((got, *comm.stats().phase(Phase::Shift)))
            }
        });
        let (got, shift) = out[1].clone().expect("rank 1 received");
        assert_eq!(got, vec![7]);
        // One receive ran out of poll budget: one park, however many times
        // the channel woke it, and the wait covers poll and sleep alike.
        assert_eq!(shift.parked, 1);
        assert!(
            shift.blocked_secs >= 0.018,
            "blocked {}s",
            shift.blocked_secs
        );
    }

    #[test]
    fn the_poll_is_inside_the_deadline_not_added_to_it() {
        // A 5 ms deadline outlasts the poll budget, a 10 us one does not:
        // either way the receive gives up, and no sooner than asked.
        for deadline in [Duration::from_millis(5), Duration::from_micros(10)] {
            let out = run_ranks(2, move |comm| {
                (comm.rank() == 0).then(|| comm.try_recv_timeout::<u8>(1, 3, deadline))
            });
            match out[0].clone().expect("rank 0 posted the receive") {
                Err(CommError::Timeout { waited, .. }) => {
                    assert!(waited >= deadline, "{waited:?} of {deadline:?}")
                }
                other => panic!("a silent peer must time out, got {other:?}"),
            }
        }
    }

    /// What a receive on the row communicator of a 2 x 2 grid reports when
    /// its peer stays silent. Row 1 is global ranks {2, 3}: local rank 1 is
    /// not global rank 1.
    fn silent_row_peer<C: Communicator>(comm: &C) -> Option<CommError> {
        let row = comm.split(comm.rank() / 2, comm.rank());
        (comm.rank() == 2).then(|| {
            row.try_recv_timeout::<u8>(1, 7, Duration::from_millis(5))
                .expect_err("nobody sends on the row")
        })
    }

    #[test]
    fn timeout_names_the_local_rank_and_the_tag_it_awaited() {
        let strict = run_ranks(4, |comm| silent_row_peer(comm));
        let relaxed = crate::chaos::run_ranks_chaos(4, &crate::chaos::FaultPlan::empty(), |comm| {
            silent_row_peer(comm)
        });
        for out in [strict, relaxed] {
            match out[2].clone().expect("global rank 2 posted the receive") {
                CommError::Timeout { src, tag, waited } => {
                    assert_eq!((src, tag), (1, 7));
                    assert!(waited >= Duration::from_millis(5), "{waited:?}");
                }
                other => panic!("expected a timeout, got {other}"),
            }
        }
    }

    #[test]
    fn polling_buffers_other_traffic_in_fifo_order_strict_and_relaxed() {
        // Rank 0 sends two messages on communicator A, then (relaxed
        // matching only: strict matching calls it a protocol violation) one
        // with a stale tag on B, then the awaited one on B; rank 1 posts its
        // receive on B once all of them are in its inbox, so the receive
        // itself is what walks past the first three. Whether it got there
        // polling or parked is the scheduler's business, not asserted here.
        for relaxed in [false, true] {
            let sent = std::sync::Barrier::new(2);
            let (out, _) = run_ranks_owned(2, relaxed, Lenses::default(), |comm| {
                let a = comm.split(0, comm.rank());
                let b = comm.split(0, comm.rank());
                if comm.rank() == 0 {
                    a.send(1, 10, &[1u8]);
                    a.send(1, 11, &[2u8]);
                    if relaxed {
                        b.send(1, 99, &[9u8]);
                    }
                    b.send(1, 20, &[3u8]);
                }
                sent.wait();
                if comm.rank() == 0 {
                    return None;
                }
                let awaited = b.recv::<u8>(0, 20);
                let first = a.recv::<u8>(0, 10);
                let second = a.recv::<u8>(0, 11);
                let stale = relaxed.then(|| b.recv::<u8>(0, 99));
                Some((awaited, first, second, stale))
            });
            let (awaited, first, second, stale) = out[1].clone().expect("rank 1 received");
            assert_eq!(awaited, vec![3], "relaxed = {relaxed}");
            assert_eq!((first, second), (vec![1], vec![2]), "relaxed = {relaxed}");
            assert_eq!(stale, relaxed.then(|| vec![9]));
        }
    }

    #[test]
    fn traced_run_returns_same_results_as_untraced() {
        let body = |comm: &mut ThreadComm| {
            let mut buf = vec![1u64 << comm.rank()];
            comm.allreduce(&mut buf, sum_combine);
            buf[0]
        };
        let plain = run_ranks(4, body);
        let (
            traced,
            Artifacts {
                trace,
                metrics,
                timeline,
                ..
            },
        ) = run_ranks_with(4, TRACED, body);
        assert_eq!(plain, traced);
        assert_eq!(trace.ranks, 4);
        assert!(!trace.spans.is_empty());
        assert_eq!(metrics.ranks.len(), 4);
        assert_eq!(timeline.ranks.len(), 4);
        assert!(!timeline.is_postmortem());
    }

    #[test]
    fn ranks_carry_a_live_timeline_recorder() {
        let (enabled, Artifacts { timeline, .. }) = run_ranks_with(2, TRACED, |comm| {
            let tl = comm.timeline();
            tl.step_mark(comm.rank() as u64);
            let sub = comm.split(0, comm.rank());
            // The recorder follows the rank across splits.
            sub.timeline()
                .event(nbody_timeline::EventKind::Checkpoint, Some(0), "via split");
            (tl.is_enabled(), tl.wants_samples())
        });
        assert_eq!(enabled, vec![(true, true), (true, true)]);
        for (rank, rt) in timeline.ranks.iter().enumerate() {
            assert_eq!(rt.rank as usize, rank);
            assert_eq!(rt.events.len(), 2, "step mark + split event: {rt:?}");
        }
        // Plain runs keep the flight ring on (always-on crash forensics)
        // but skip step sampling.
        let modes = run_ranks(2, |comm| {
            (
                comm.timeline().is_enabled(),
                comm.timeline().wants_samples(),
            )
        });
        assert_eq!(modes, vec![(true, false), (true, false)]);
    }

    #[test]
    fn flight_events_of_different_ranks_order_by_the_one_epoch() {
        // Rank 0 records well after both threads exist, then opens a barrier
        // rank 1 spins at, then rank 1 records. On one clock rank 1's event
        // is the later; on a clock per thread it reads earlier whenever rank
        // 1's thread started more than the spin's hand-off (well under a
        // microsecond) after rank 0's.
        let open = std::sync::atomic::AtomicBool::new(false);
        let (_, Artifacts { timeline, .. }) = run_ranks_with(2, Lenses::default(), |comm| {
            let tl = comm.timeline();
            if comm.rank() == 0 {
                std::thread::sleep(Duration::from_millis(5));
                tl.event(nbody_timeline::EventKind::Checkpoint, None, "before");
                open.store(true, Ordering::Release);
            } else {
                while !open.load(Ordering::Acquire) {
                    std::hint::spin_loop();
                }
                tl.event(nbody_timeline::EventKind::Checkpoint, None, "after");
            }
        });
        let [before, after] = [0, 1].map(|r| timeline.ranks[r].events[0].t_secs);
        assert!(before < after, "{before} s, then {after} s");
    }

    #[test]
    fn sendrecv_default_shifts_a_ring() {
        // Direct coverage of the `Communicator::sendrecv` default: a full
        // ring rotation where every rank simultaneously sends right and
        // receives from the left must not deadlock and must deliver the
        // left neighbour's payload, element-exact.
        let p = 5;
        let out = run_ranks(p, |comm| {
            let right = (comm.rank() + 1) % p;
            let left = (comm.rank() + p - 1) % p;
            let payload: Vec<u64> = (0..=comm.rank() as u64).collect();
            comm.sendrecv(right, left, 42, &payload)
        });
        for (rank, got) in out.iter().enumerate() {
            let left = (rank + p - 1) % p;
            let want: Vec<u64> = (0..=left as u64).collect();
            assert_eq!(got, &want, "rank {rank} must hold rank {left}'s data");
        }
    }

    #[test]
    fn sendrecv_default_handles_self_exchange_and_distinct_peers() {
        let out = run_ranks(3, |comm| {
            // Exchange with oneself: the send must be buffered so the
            // following recv can complete (dst == src == rank).
            let me = comm.rank();
            let echoed = comm.sendrecv(me, me, 7, &[me as u32]);
            // Then an asymmetric pattern: everyone forwards to rank 0.
            if me == 0 {
                let mut sum = echoed[0];
                for src in 1..comm.size() {
                    sum += comm.recv::<u32>(src, 8)[0];
                }
                sum
            } else {
                comm.send(0, 8, &[me as u32 * 10]);
                echoed[0]
            }
        });
        assert_eq!(out, vec![30, 1, 2]);
    }

    #[test]
    fn probed_run_collects_wire_events() {
        use nbody_trace::Phase;
        use nbody_wireprobe::{match_events, ProbeKind};
        let (enabled, Artifacts { wire, .. }) = run_ranks_with(2, PROBED, |comm| {
            comm.set_phase(Phase::Shift);
            if comm.rank() == 0 {
                comm.send(1, 5, &[1u64, 2, 3]);
            } else {
                let _ = comm.recv::<u64>(0, 5);
            }
            comm.wire().is_enabled()
        });
        assert_eq!(enabled, vec![true, true]);
        assert_eq!(wire.ranks.len(), 2);
        let send = &wire.ranks[0].events[0];
        assert_eq!(send.kind, ProbeKind::Send);
        assert_eq!((send.src, send.dst), (0, 1));
        assert_eq!(send.tag, 5);
        assert_eq!(send.phase, Phase::Shift);
        assert_eq!(send.count, 3);
        assert_eq!(send.bytes, 24);
        let recv = &wire.ranks[1].events[0];
        assert_eq!(recv.kind, ProbeKind::Recv);
        assert_eq!((recv.src, recv.dst), (0, 1));
        // The shared epoch makes cross-rank stamps subtractable.
        assert!(recv.t_secs >= send.t_secs);
        let report = match_events(&wire);
        assert_eq!(report.matched, 1);
        assert_eq!(report.channels.len(), 1);
        assert_eq!(report.channels[0].latency.count, 1);
        // Probes are strictly opt-in: every other entry point runs dark.
        let dark = run_ranks(2, |comm| comm.wire().is_enabled());
        assert_eq!(dark, vec![false, false]);
    }

    #[test]
    fn wire_probes_follow_splits_and_skip_collectives() {
        use nbody_trace::Phase;
        use nbody_wireprobe::ProbeKind;
        let (_, Artifacts { wire, .. }) = run_ranks_with(4, PROBED, |comm| {
            comm.set_phase(Phase::Skew);
            // Point-to-point on a derived communicator: probed, with
            // global ranks and the split's comm id.
            let sub = comm.split(comm.rank() % 2, comm.rank());
            if sub.rank() == 0 {
                sub.send(1, 9, &[1u8, 2]);
            } else {
                let _ = sub.recv::<u8>(0, 9);
            }
            // Collectives manage their own internal traffic: not probed.
            comm.set_phase(Phase::Reduce);
            let mut buf = vec![comm.rank() as u64];
            comm.allreduce(&mut buf, sum_combine);
        });
        let events: Vec<_> = wire.ranks.iter().flat_map(|r| &r.events).collect();
        assert!(
            events.iter().all(|e| e.phase == Phase::Skew),
            "only the explicit p2p traffic is probed: {events:?}"
        );
        assert_eq!(events.len(), 4, "2 sends + 2 recvs across both splits");
        let send01 = events
            .iter()
            .find(|e| e.kind == ProbeKind::Send && e.src == 0)
            .unwrap();
        assert_eq!(send01.dst, 2, "global ranks: color-0 split is {{0, 2}}");
        assert_ne!(send01.comm, 0, "split traffic carries the derived comm id");
    }

    #[test]
    fn recv_timeout_env_values_parse_strictly() {
        assert_eq!(parse_recv_timeout(None), Ok(60));
        assert_eq!(parse_recv_timeout(Some("20")), Ok(20));
        assert_eq!(parse_recv_timeout(Some(" 5 ")), Ok(5));
        assert!(parse_recv_timeout(Some("0")).is_err());
        assert!(parse_recv_timeout(Some("-3")).is_err());
        assert!(parse_recv_timeout(Some("banana")).is_err());
        assert!(parse_recv_timeout(Some("")).is_err());
        assert!(parse_recv_timeout(Some("1.5")).is_err());
        let msg = parse_recv_timeout(Some("banana")).unwrap_err();
        assert!(
            msg.contains("NBODY_RECV_TIMEOUT_SECS") && msg.contains("banana"),
            "diagnostic names the variable and the bad value: {msg}"
        );
    }

    #[test]
    fn traced_run_collects_live_metrics() {
        use nbody_trace::Phase;
        let (_, Artifacts { metrics, .. }) = run_ranks_with(2, TRACED, |comm| {
            comm.set_phase(Phase::Shift);
            if comm.rank() == 0 {
                comm.send(1, 1, &[7u64, 8, 9]);
            } else {
                let _ = comm.recv::<u64>(0, 1);
            }
            comm.set_phase(Phase::Reduce);
            let mut buf = vec![comm.rank() as u64];
            comm.allreduce(&mut buf, sum_combine);
        });
        let r0 = &metrics.ranks[0];
        assert_eq!(r0.counter("comm_send_messages", Some(Phase::Shift)), 1);
        assert_eq!(r0.counter("comm_send_elements", Some(Phase::Shift)), 3);
        assert_eq!(r0.counter("comm_send_bytes", Some(Phase::Shift)), 24);
        // The receive side mirrors it on rank 1.
        let r1 = &metrics.ranks[1];
        assert_eq!(r1.counter("comm_recv_messages", Some(Phase::Shift)), 1);
        assert_eq!(r1.counter("comm_recv_bytes", Some(Phase::Shift)), 24);
        // allreduce = reduce + bcast: both payloads attributed to Reduce.
        assert_eq!(
            metrics.sum_counter("comm_collective_elements", Some(Phase::Reduce)),
            4
        );
        // The tree messages of the collectives hit the wire somewhere.
        assert!(metrics.sum_counter("comm_collective_messages", Some(Phase::Reduce)) > 0);
        // Message sizes were observed.
        let h = r0
            .histogram("comm_message_size_bytes", Some(Phase::Shift))
            .unwrap();
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum, 24);
        // Untraced runs collect nothing.
        let empty = run_ranks(2, |comm| comm.metrics().is_enabled());
        assert_eq!(empty, vec![false, false]);
    }

    #[test]
    fn split_communicators_share_the_metrics_shard() {
        use nbody_trace::Phase;
        let (_, Artifacts { metrics, .. }) = run_ranks_with(2, TRACED, |comm| {
            comm.set_phase(Phase::Skew);
            let sub = comm.split(0, comm.rank());
            if sub.rank() == 0 {
                sub.send(1, 1, &[1u8, 2, 3, 4]);
            } else {
                let _ = sub.recv::<u8>(0, 1);
            }
        });
        // Traffic on the derived communicator lands on the rank's shard.
        assert_eq!(
            metrics.ranks[0].counter("comm_send_bytes", Some(Phase::Skew)),
            4
        );
    }

    #[test]
    fn phase_windows_follow_split_communicators() {
        // set_phase on a *derived* communicator must land on the rank's one
        // timeline — the converse of `stats_shared_across_split`.
        let (_, Artifacts { trace, .. }) = run_ranks_with(4, TRACED, |comm| {
            let sub = comm.split(comm.rank() % 2, comm.rank());
            sub.set_phase(Phase::Reduce);
            let mut buf = vec![comm.rank() as u64];
            // Operate on the WORLD communicator while the phase was set via
            // the sub-communicator.
            comm.allreduce(&mut buf, sum_combine);
            sub.set_phase(Phase::Other);
            buf[0]
        });
        for rank in 0..4u32 {
            assert!(
                trace.spans.iter().any(|s| {
                    s.rank == rank && s.kind == nbody_trace::SpanKind::Phase(Phase::Reduce)
                }),
                "rank {rank} has no Reduce window despite set_phase via split"
            );
        }
        // Per-rank phase windows tile the timeline: sums equal each rank's
        // traced extent.
        for rank in 0..4u32 {
            let windows: Vec<_> = trace
                .spans
                .iter()
                .filter(|s| s.rank == rank && matches!(s.kind, nbody_trace::SpanKind::Phase(_)))
                .collect();
            let sum: f64 = windows.iter().map(|s| s.secs()).sum();
            let lo = windows.iter().map(|s| s.start).fold(f64::MAX, f64::min);
            let hi = windows.iter().map(|s| s.end).fold(0.0, f64::max);
            assert!(
                (sum - (hi - lo)).abs() < 1e-9,
                "rank {rank}: windows sum {sum} != extent {}",
                hi - lo
            );
        }
    }

    #[test]
    fn a_rank_that_fails_takes_the_run_down_and_is_the_failure_reported() {
        let said = std::sync::Mutex::new(Vec::new());
        let start = Instant::now();
        let raised = catch_unwind(AssertUnwindSafe(|| {
            run_ranks(4, |comm| {
                if comm.rank() == 2 {
                    panic!("rank two's own words");
                }
                // Parked on a message rank 2 will never send.
                let e = catch_unwind(AssertUnwindSafe(|| comm.recv::<u8>(2, 7))).unwrap_err();
                said.lock()
                    .unwrap()
                    .push(e.downcast_ref::<String>().cloned());
                resume_unwind(e)
            })
        }))
        .unwrap_err();
        assert_eq!(raised.downcast_ref::<&str>(), Some(&"rank two's own words"));
        let aborted = Some("aborted: rank 2 failed: rank two's own words".to_string());
        assert_eq!(said.into_inner().unwrap(), vec![aborted; 3]);
        // Nobody slept out a deadline (tens of milliseconds, measured).
        assert!(start.elapsed() < recv_timeout() / 2);
    }

    /// What `launches` returns, from a call during which it alone used the
    /// pool, `ops` takes and parks: a concurrent test that takes or parks
    /// a worker in between reorders the idle lists, so such a call is
    /// repeated. Counted, not timed.
    fn alone<T>(ops: u64, mut launches: impl FnMut() -> T) -> T {
        loop {
            let before = POOL_OPS.load(Ordering::Relaxed);
            let out = launches();
            if POOL_OPS.load(Ordering::Relaxed) == before + ops {
                return out;
            }
        }
    }

    fn rank_threads(p: usize) -> Vec<(std::thread::ThreadId, Option<String>)> {
        run_ranks(p, |_| {
            let me = std::thread::current();
            (me.id(), me.name().map(str::to_owned))
        })
    }

    #[test]
    fn a_second_launch_runs_every_rank_on_the_first_ones_thread() {
        let (first, second) = alone(4, || (rank_threads(4), rank_threads(4)));
        assert_eq!(first, second, "the second launch spawned");
        for (r, (_, name)) in first.iter().enumerate() {
            assert_eq!(name.as_deref(), Some(format!("rank-{r}").as_str()));
        }
    }

    #[test]
    fn a_failed_launch_leaves_its_workers_fit_for_the_next() {
        let (failed, next) = alone(4, || {
            let seen = std::sync::Mutex::new(vec![None; 4]);
            let raised = catch_unwind(AssertUnwindSafe(|| {
                run_ranks(4, |comm| {
                    seen.lock().unwrap()[comm.rank()] = Some(std::thread::current().id());
                    if comm.rank() == 2 {
                        panic!("rank two's own words");
                    }
                    comm.recv::<u8>(2, 7)
                })
            }));
            assert!(raised.is_err());
            let next = run_ranks(4, |comm| {
                let mut sum = vec![comm.rank() as u64];
                comm.allreduce(&mut sum, sum_combine);
                (std::thread::current().id(), sum[0])
            });
            (seen.into_inner().unwrap(), next)
        });
        for (r, (thread, sum)) in next.into_iter().enumerate() {
            assert_eq!(sum, 6);
            assert_eq!(
                failed[r],
                Some(thread),
                "rank {r} did not get its worker back"
            );
        }
    }

    #[test]
    fn two_threads_launching_at_once_share_no_worker() {
        let start = Arc::new(std::sync::Barrier::new(2));
        let launchers: Vec<_> = (0..2u64)
            .map(|t| {
                let start = Arc::clone(&start);
                std::thread::spawn(move || {
                    start.wait();
                    (0..50u64).all(|i| {
                        let got = run_ranks(4, |comm| {
                            let mut buf = vec![comm.rank() as u64 + t * 100 + i];
                            comm.allreduce(&mut buf, sum_combine);
                            buf[0]
                        });
                        got == vec![6 + 4 * (t * 100 + i); 4]
                    })
                })
            })
            .collect();
        for launcher in launchers {
            assert!(launcher.join().unwrap(), "a sum was wrong");
        }
    }

    #[test]
    fn a_rank_body_launches_ranks_of_its_own() {
        let out = run_ranks(2, |outer| {
            let inner = run_ranks(2, |comm| {
                let mut buf = vec![comm.rank() as u64 + 1];
                comm.allreduce(&mut buf, sum_combine);
                buf[0]
            });
            let mut buf = vec![inner.iter().sum::<u64>()];
            outer.allreduce(&mut buf, sum_combine);
            buf[0]
        });
        assert_eq!(out, vec![12, 12]);
    }

    #[test]
    fn a_rank_body_borrows_the_callers_stack() {
        let blocks: Vec<Vec<u64>> = (0..4).map(|r| vec![r; r as usize + 1]).collect();
        let sums = run_ranks(4, |comm| blocks[comm.rank()].iter().sum::<u64>());
        assert_eq!(sums, vec![0, 2, 6, 12]);
    }

    #[test]
    #[should_panic]
    fn tag_mismatch_panics() {
        run_ranks(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, &[0u8]);
            } else {
                let _ = comm.recv::<u8>(0, 2); // wrong tag
            }
        });
    }

    #[test]
    fn large_rank_count_smoke() {
        let p = 64;
        let out = run_ranks(p, |comm| {
            let mut buf = vec![1u64];
            comm.allreduce(&mut buf, sum_combine);
            buf[0]
        });
        assert!(out.iter().all(|&x| x == p as u64));
    }
}
