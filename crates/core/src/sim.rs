//! The end-to-end simulation driver: one run path.
//!
//! Runs multi-timestep N-body simulations with any of the paper's
//! decompositions on the threaded message-passing runtime, handling the
//! integrator split, force evaluation, boundary conditions, and (for the
//! cutoff methods) per-step spatial re-assignment. The serial path uses the
//! identical integrator/force code, so distributed trajectories can be
//! validated against it step-for-step.
//!
//! A [`Run`] describes one distributed execution: the method and rank
//! count, which lenses record it (`.trace()`, `.probe()`), and what rides
//! along with the force evaluations (`.faults()`, `.checkpoint()`,
//! `.health()`). [`run_distributed`] and [`run_distributed_chaos`] are
//! shorthand for the two descriptions almost every caller wants.
//!
//! Every method runs in **one** timestep loop (`run_rank`), generic over
//!
//! * the **decomposition** ([`Layout`]): which processor grid (one team per
//!   rank for the methods that replicate nothing), how a leader cuts its
//!   block out of a full particle set and orders it, which [`TeamWindow`]
//!   the method walks (the full team ring for all-pairs), whether leaders
//!   re-assign right before each force evaluation, and — [`Method::shrunk_onto`] — which
//!   layout a degraded run continues on. It is built once, on the caller's
//!   thread;
//! * the **evaluation** (`Evaluation`): `Plain` runs the layout's force
//!   routine — the one shift body under the strict link for the CA methods —
//!   and has an uninhabited error type, so the shrink arm, the health hooks
//!   and the checkpoint sink are erased from its monomorphization;
//!   `Recovering` (CA methods only) runs the shift body under the protocol
//!   of [`recovery`](crate::recovery) and a [`RetryPolicy`], optionally
//!   with a durable [`CheckpointConfig`] sink and the [`HealthConfig`]
//!   monitors.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::convert::Infallible;

use nbody_comm::{
    run_ranks_chaos_with, run_ranks_with, Artifacts, CommStats, Communicator, EventKind,
    ExecutionTrace, FaultKind, FaultPlan, Lenses, MetricsSnapshot, Phase, Shrink,
};
use nbody_durable::{write_atomic, CheckpointBundle, ColumnBlock};
use nbody_physics::particle::reset_forces;
use nbody_physics::{Boundary, Domain, ForceLaw, Integrator, Particle};
use nbody_simhealth::{scan_forces, scan_state, HealthConfig, HealthReport, Invariants};

use crate::baselines::naive_allgather_forces;
use crate::cutoff::{ca_forces, row_steps, validate_cutoff, walked_window};
use crate::dist::{id_block_subset, spatial_subset, team_at, team_grid_dims};
use crate::grid::{GridComms, ProcGrid};
use crate::kernel::cell_order;
use crate::probe::StepProbe;
use crate::reassign::reassign_within;
use crate::recovery::{ca_forces_ft, FaultError, HealthMonitor, RecoveryReport, RetryPolicy};
use crate::schedule::{CutoffParams, ReassignModel};
use crate::window::{TeamWindow, Window};

/// Which parallel decomposition evaluates forces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Algorithm 1 with replication factor `c` (id-block distribution).
    /// §III: `c = 1` is Plimpton's particle decomposition (a ring
    /// pipeline), `c = √p` his force decomposition — they are run as such.
    CaAllPairs {
        /// Replication factor.
        c: usize,
    },
    /// Half-ring particle decomposition exploiting Newton's third law —
    /// the symmetry optimization the paper declines (§III.C): Algorithm 1
    /// at `c = 1` on the half of the team ring. Requires a symmetric force
    /// law.
    ParticleRingSymmetric,
    /// The allgather-based naive variant (`tree` bars of Fig. 2c/2d).
    NaiveAllgather,
    /// Algorithm 2 with replication factor `c` (1D spatial decomposition;
    /// the force law must have a cutoff).
    Ca1dCutoff {
        /// Replication factor.
        c: usize,
    },
    /// The Fig. 5 2D generalization (2D spatial decomposition; cutoff law).
    Ca2dCutoff {
        /// Replication factor.
        c: usize,
    },
}

impl Method {
    /// The replication factor the method uses (1 for non-replicating ones).
    pub fn replication(&self) -> usize {
        match *self {
            Method::CaAllPairs { c } | Method::Ca1dCutoff { c } | Method::Ca2dCutoff { c } => c,
            _ => 1,
        }
    }

    /// Whether the method needs a force law with a finite cutoff.
    pub fn needs_cutoff(&self) -> bool {
        matches!(self, Method::Ca1dCutoff { .. } | Method::Ca2dCutoff { .. })
    }

    /// Whether the method runs the shift body of the paper's CA
    /// algorithms — the ones with a fault-tolerant driver, checkpoints and
    /// health monitors.
    pub fn is_ca(&self) -> bool {
        matches!(
            self,
            Method::CaAllPairs { .. }
                | Method::ParticleRingSymmetric
                | Method::Ca1dCutoff { .. }
                | Method::Ca2dCutoff { .. }
        )
    }

    /// The shrink policy of degraded runs: the method a run that lost
    /// whole team columns continues with on its `p_new` survivors — the
    /// same algorithm at the largest replication `c' ≤ c` that is valid
    /// there (`c'² | p_new` for all-pairs; `c' | p_new` and `c'` inside the
    /// window `r_c` cuts out of `domain` for the cutoff methods), with the
    /// layout that validated it. `None` when no replication fits.
    pub fn shrunk_onto(
        &self,
        p_new: usize,
        domain: &Domain,
        boundary: Boundary,
        r_c: Option<f64>,
    ) -> Option<(Method, Layout)> {
        (1..=self.replication()).rev().find_map(|c| {
            let method = match *self {
                Method::CaAllPairs { .. } => Method::CaAllPairs { c },
                Method::Ca1dCutoff { .. } => Method::Ca1dCutoff { c },
                Method::Ca2dCutoff { .. } => Method::Ca2dCutoff { c },
                other => other,
            };
            let layout = Layout::new(method, p_new, domain, boundary, r_c).ok()?;
            Some((method, layout))
        })
    }

    /// Why a method that runs no shift body has none of what the CA
    /// drivers around it provide.
    pub(crate) fn not_ca(&self) -> String {
        format!(
            "{self:?} is not a CA method: it does not run the shift body, so it has no \
             communication-schedule twin and no fault-tolerant driver (fault tolerance, \
             checkpoints, health monitors and conformance checking support ca-all-pairs, \
             ring-symmetric, ca-1d-cutoff and ca-2d-cutoff)"
        )
    }
}

/// Simulation parameters shared by serial and distributed runs.
#[derive(Debug, Clone)]
pub struct SimConfig<F, I> {
    /// Pairwise force law.
    pub law: F,
    /// Time integrator.
    pub integrator: I,
    /// Simulation domain.
    pub domain: Domain,
    /// Boundary condition.
    pub boundary: Boundary,
    /// Timestep.
    pub dt: f64,
    /// Number of timesteps.
    pub steps: usize,
}

/// Result of a distributed run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Final particles, gathered from all owners and sorted by id.
    pub particles: Vec<Particle>,
    /// Per-world-rank communication statistics.
    pub stats: Vec<CommStats>,
    /// Worst per-evaluation attempt count across all ranks and timesteps
    /// (1 = no fault ever fired; always 1 without [`Run::faults`]).
    pub max_attempts: usize,
    /// Whether any evaluation recovered from a detected fault.
    pub recovered: bool,
    /// Every agreed shrink of the world onto its survivors, in order
    /// (degraded mode; none on a run that never lost a whole team column).
    pub shrinks: Vec<Shrink>,
    /// Particles dropped with dead columns across all shrinks.
    pub lost_particles: usize,
    /// Ranks still computing when the run finished (`p` if never shrunk).
    pub final_ranks: usize,
    /// The health monitors' globally agreed verdict, identical on every
    /// rank up to floating-point reduction order ([`Run::health`] runs
    /// only).
    pub health: Option<HealthReport>,
}

/// Run the serial reference simulation on a copy of `initial`.
pub fn run_serial<F: ForceLaw, I: Integrator>(
    cfg: &SimConfig<F, I>,
    initial: &[Particle],
) -> Vec<Particle> {
    let mut particles = initial.to_vec();
    for _ in 0..cfg.steps {
        nbody_physics::reference::step(
            &mut particles,
            &cfg.law,
            &cfg.integrator,
            cfg.dt,
            &cfg.domain,
            cfg.boundary,
        );
    }
    particles
}

/// Run a distributed simulation of `initial` on `p` rank threads with the
/// given method, returning the gathered final state and per-rank stats:
/// [`Run::new`]`(cfg, method, p).execute(initial)` with nothing riding
/// along.
///
/// Panics on invalid configurations (replication not dividing `p`, cutoff
/// methods without a cutoff law, `c` exceeding the interaction window).
pub fn run_distributed<F, I>(
    cfg: &SimConfig<F, I>,
    method: Method,
    p: usize,
    initial: &[Particle],
) -> RunResult
where
    F: ForceLaw + Sync,
    I: Integrator + Sync,
{
    Run::new(cfg, method, p)
        .execute(initial)
        .result
        .expect("a run without faults, checkpoints or health monitors has no failure path")
}

/// [`RunResult`] of a run under fault injection, with the trace and the
/// metrics [`run_distributed_chaos`] always records riding along.
#[derive(Debug, Clone)]
pub struct ChaosRunResult {
    /// Final particles, gathered from all owners and sorted by id.
    pub particles: Vec<Particle>,
    /// Per-world-rank communication statistics.
    pub stats: Vec<CommStats>,
    /// Live metrics snapshot (includes the `fault_*` and
    /// `recovery_bytes_total` counters).
    pub metrics: MetricsSnapshot,
    /// Per-rank wall-clock trace (so recovery overhead shows up in
    /// `analyze` breakdowns).
    pub trace: ExecutionTrace,
    /// See [`RunResult::max_attempts`].
    pub max_attempts: usize,
    /// See [`RunResult::recovered`].
    pub recovered: bool,
    /// How many times the world shrank ([`RunResult::shrinks`]).
    pub shrinks: usize,
    /// See [`RunResult::lost_particles`].
    pub lost_particles: usize,
    /// See [`RunResult::final_ranks`].
    pub final_ranks: usize,
}

/// Durable checkpointing configuration for fault-tolerant runs.
///
/// Leaders' blocks are gathered to rank 0 on the cadence and persisted as
/// one atomic `nbody-checkpoint/v1` bundle (see the `nbody-durable`
/// crate), so a killed process can restart from the last completed bundle
/// with `run --resume`.
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// Directory receiving `ckpt-<step>.json` bundles.
    pub dir: std::path::PathBuf,
    /// Cadence in completed global steps (must be ≥ 1).
    pub every: usize,
    /// Global steps already completed before this run (the resume offset);
    /// bundles are stamped with `base_step + local step + 1`.
    pub base_step: u64,
    /// Run-config fingerprint stamped into every bundle and checked on
    /// resume ([`nbody_durable::RunFingerprint::digest`]).
    pub fingerprint: String,
    /// Initial-condition seed recorded in the bundle.
    pub seed: u64,
}

/// Run a distributed simulation under a fault-injection [`FaultPlan`],
/// using the fault-tolerant force drivers (the CA methods only):
/// [`Run::new`]`(cfg, method, p).trace().faults(plan, policy)`, flattened
/// into one success value.
///
/// Completes with forces bit-identical to the fault-free run whenever
/// replica recovery is possible. When whole team columns die (all `c`
/// replicas), the survivors agree to drop the lost blocks and continue on
/// a shrunken world ([`ChaosRunResult::shrinks`]); only a terminal
/// [`FaultError`] — retries exhausted, or nothing surviving anywhere —
/// fails the run, and every rank returns the same agreed verdict.
pub fn run_distributed_chaos<F, I>(
    cfg: &SimConfig<F, I>,
    method: Method,
    p: usize,
    plan: &FaultPlan,
    policy: &RetryPolicy,
    initial: &[Particle],
) -> Result<ChaosRunResult, FaultError>
where
    F: ForceLaw + Sync,
    I: Integrator + Sync,
{
    let out = Run::new(cfg, method, p)
        .trace()
        .faults(plan, policy)
        .execute(initial);
    let res = out.result?;
    Ok(ChaosRunResult {
        particles: res.particles,
        stats: res.stats,
        metrics: out.artifacts.metrics,
        trace: out.artifacts.trace,
        max_attempts: res.max_attempts,
        recovered: res.recovered,
        shrinks: res.shrinks.len(),
        lost_particles: res.lost_particles,
        final_ranks: res.final_ranks,
    })
}

/// One distributed run, described: what to run, which lenses record it,
/// and what rides along with its force evaluations. Every toggle is
/// independent of the others.
///
/// `faults`, `checkpoint` and `health` each select the fault-tolerant
/// evaluation (CA methods only); a run with none of them takes the plain
/// drivers and cannot fail.
pub struct Run<'a, F, I> {
    cfg: &'a SimConfig<F, I>,
    method: Method,
    p: usize,
    lenses: Lenses,
    faults: Option<(&'a FaultPlan, &'a RetryPolicy)>,
    checkpoint: Option<&'a CheckpointConfig>,
    health: Option<&'a HealthConfig>,
}

/// What a [`Run`] produced. The lens artifacts sit *outside* the `Result`
/// because postmortem bundles must survive a [`FaultError`]: on an agreed
/// failure the timeline is a postmortem bundle
/// ([`RunTimeline::is_postmortem`](nbody_comm::RunTimeline::is_postmortem))
/// carrying each rank's final flight-ring events and the failure reason
/// marked by the recovery layer, and the wire log shows what actually
/// crossed the wire.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// The gathered final state, or the verdict every rank agreed on.
    pub result: Result<RunResult, FaultError>,
    /// What the lenses recorded. The trace carries the driver sections
    /// (`step` / `integrate` / `force` / `reassign`, per timestep) next to
    /// the phase windows and blocked waits; the metrics include the
    /// `fault_*`, `checkpoint_*` and `health_*` counters; on
    /// [`Run::health`] runs the timeline's samples carry the
    /// energy/momentum series; the wire log holds every injected fault as
    /// a first-class event.
    pub artifacts: Artifacts,
}

impl<'a, F, I> Run<'a, F, I>
where
    F: ForceLaw + Sync,
    I: Integrator + Sync,
{
    /// `method` on `p` rank threads, no lens on, nothing riding along.
    pub fn new(cfg: &'a SimConfig<F, I>, method: Method, p: usize) -> Self {
        Run {
            cfg,
            method,
            p,
            lenses: Lenses::default(),
            faults: None,
            checkpoint: None,
            health: None,
        }
    }

    /// Record per-rank wall-clock spans, live metrics and per-step
    /// timeline samples against a shared epoch.
    pub fn trace(mut self) -> Self {
        self.lenses.trace = true;
        self
    }

    /// Record every point-to-point message into the wire-probe rings.
    pub fn probe(mut self) -> Self {
        self.lenses.probe = true;
        self
    }

    /// Inject `plan` and evaluate forces under the recovery protocol with
    /// `policy`. (Without this, a checkpointed or health-monitored run
    /// injects nothing and retries under [`RetryPolicy::default`].) A plan
    /// holding a `nan` or `corrupt` runs the health monitors, checked every
    /// step unless [`Run::health`] says otherwise: an injection without its
    /// monitor would be an unobserved fault. One holding a `crash` needs
    /// [`Run::checkpoint`].
    pub fn faults(mut self, plan: &'a FaultPlan, policy: &'a RetryPolicy) -> Self {
        self.faults = Some((plan, policy));
        self
    }

    /// Persist the leaders' blocks as an atomic versioned bundle on the
    /// configured cadence, so the run can be killed at any point and
    /// resumed from the last completed checkpoint (`run --resume`).
    pub fn checkpoint(mut self, ckpt: &'a CheckpointConfig) -> Self {
        self.checkpoint = Some(ckpt);
        self
    }

    /// Turn the numerical-health monitors on: every checked step the
    /// ranks' partial kinetic/momentum/potential sums are reduced once
    /// world-wide into the timeline's energy/momentum series, non-finite
    /// sentinels scan forces and integrated state (aborting into a
    /// postmortem with the blamed rank/particle/field on first trigger),
    /// and every recovery attempt checks each rank's checkpoint against
    /// the fingerprint it was captured with (a copy that fails is
    /// re-seeded from its column's lowest usable row, as a dead rank's is,
    /// and counted in [`HealthReport::fingerprint_mismatches`]).
    pub fn health(mut self, health: &'a HealthConfig) -> Self {
        self.health = Some(health);
        self
    }

    /// Execute the run on `initial`.
    ///
    /// Panics on invalid configurations (replication not dividing `p`,
    /// cutoff methods without a cutoff law, `c` exceeding the interaction
    /// window, fault tolerance requested for a non-CA method, a `crash`
    /// fault without a checkpoint sink).
    pub fn execute(&self, initial: &[Particle]) -> RunOutput {
        let (cfg, method) = (self.cfg, self.method);
        let recovering =
            self.faults.is_some() || self.checkpoint.is_some() || self.health.is_some();
        // Built once, here: an invalid configuration is one panic on the
        // caller's thread before any rank runs, not one per rank.
        let layout = Layout::new(method, self.p, &cfg.domain, cfg.boundary, cfg.law.cutoff())
            .unwrap_or_else(|e| panic!("invalid {method:?} run on {} ranks: {e}", self.p));
        let (out, artifacts) = if recovering {
            assert!(method.is_ca(), "{}", method.not_ca());
            let (no_faults, default_policy) = (FaultPlan::empty(), RetryPolicy::default());
            let (plan, policy) = self.faults.unwrap_or((&no_faults, &default_policy));
            assert!(
                self.checkpoint.is_some() || !plan.holds(FaultKind::Crash),
                "a crash fault fires after a checkpoint is durable: it needs a checkpoint sink"
            );
            let every_step = HealthConfig::enabled();
            let health = self.health.or(plan.needs_monitors().then_some(&every_step));
            run_ranks_chaos_with(self.p, plan, self.lenses, |world| {
                let eval = Recovering::new(world, plan, policy, self.checkpoint, health);
                run_rank(cfg, layout, world, initial, eval)
            })
        } else {
            let (out, artifacts) = run_ranks_with(self.p, self.lenses, |world| {
                let owned = run_plain_rank(cfg, layout, world, initial);
                (
                    owned,
                    world.stats(),
                    RecoveryReport::default(),
                    None,
                    Vec::new(),
                )
            });
            (out.into_iter().map(Ok).collect(), artifacts)
        };
        let result = assemble(out, initial.len());
        if let (true, Ok(run)) = (recovering, &result) {
            // Recovery re-seeds blocks and shrinks re-deal them: a protocol
            // bug there could duplicate particles, not only lose them.
            assert!(
                run.particles.windows(2).all(|w| w[0].id < w[1].id),
                "duplicate particle ids in fault-tolerant run"
            );
        }
        RunOutput { result, artifacts }
    }
}

/// What one rank hands back: the particles it owns at the end, its
/// statistics, what its evaluations and monitors reported, and the
/// shrinks it took part in.
type RankOutcome = (
    Vec<Particle>,
    CommStats,
    RecoveryReport,
    Option<HealthReport>,
    Vec<Shrink>,
);

/// Merge the per-rank outcomes of a run into one [`RunResult`], accounting
/// for blocks dropped by agreed shrinks: the gathered survivors plus the
/// lost particles must number the initial set exactly, anything else is a
/// protocol bug. Each rank hands back its block sorted by id, so the
/// gather is one merge into the output, not a sort of it.
fn assemble(out: Vec<Result<RankOutcome, FaultError>>, n: usize) -> Result<RunResult, FaultError> {
    let mut blocks = Vec::with_capacity(out.len());
    let mut run = RunResult {
        particles: Vec::new(),
        stats: Vec::with_capacity(out.len()),
        max_attempts: 1,
        recovered: false,
        shrinks: Vec::new(),
        lost_particles: 0,
        final_ranks: out.len(),
        health: None,
    };
    for r in out {
        let (ps, st, rep, hr, shrinks) = r?;
        blocks.push(ps);
        run.stats.push(st);
        run.max_attempts = run.max_attempts.max(rep.attempts);
        run.recovered |= rep.recovered;
        // Survivors carry the cumulative loss and every shrink; ranks that
        // left early hold a prefix of both, so the longest is the whole.
        run.lost_particles = run.lost_particles.max(rep.lost_particles);
        if shrinks.len() > run.shrinks.len() {
            run.shrinks = shrinks;
        }
        if let Some(hr) = hr {
            // The reduced invariants are agreed on every surviving rank; a
            // rank that left the world early (shrink) holds a prefix. Keep
            // the longest view and fold the counters with max so nobody's
            // tally is truncated.
            let merged = run.health.get_or_insert(hr);
            if hr.steps_checked > merged.steps_checked {
                let kept = *merged;
                *merged = hr;
                merged.sentinel_events = merged.sentinel_events.max(kept.sentinel_events);
                merged.fingerprint_mismatches = merged
                    .fingerprint_mismatches
                    .max(kept.fingerprint_mismatches);
            } else {
                merged.sentinel_events = merged.sentinel_events.max(hr.sentinel_events);
                merged.fingerprint_mismatches =
                    merged.fingerprint_mismatches.max(hr.fingerprint_mismatches);
                merged.max_rel_energy_drift =
                    merged.max_rel_energy_drift.max(hr.max_rel_energy_drift);
                merged.max_momentum_norm = merged.max_momentum_norm.max(hr.max_momentum_norm);
            }
        }
    }
    if let Some(last) = run.shrinks.last() {
        run.final_ranks = last.survivors.len();
    }
    run.particles = merge_by_id(&blocks);
    assert_eq!(
        run.particles.len() + run.lost_particles,
        n,
        "particles lost or duplicated in distributed run beyond the agreed shrinks"
    );
    Ok(run)
}

/// Merge blocks that are each sorted by id into one vector sorted by id,
/// allocated once at its final length: the one gather-by-id of a run's
/// end and of a shrink. A block's run of ids below every other block's
/// next id is copied whole, so id blocks (one run each) cost `p` heap
/// operations, a scan and a copy.
fn merge_by_id(blocks: &[Vec<Particle>]) -> Vec<Particle> {
    let mut out = Vec::with_capacity(blocks.iter().map(Vec::len).sum());
    let mut next = vec![0; blocks.len()];
    let mut heads: BinaryHeap<Reverse<(u64, usize)>> = blocks
        .iter()
        .enumerate()
        .filter_map(|(b, block)| Some(Reverse((block.first()?.id, b))))
        .collect();
    while let Some(Reverse((_, b))) = heads.pop() {
        let rest = &blocks[b][next[b]..];
        // A scan, not a binary search: it touches only the lines the copy
        // reads next, where a search's probes miss in a block another
        // core has just written.
        let run = match heads.peek() {
            Some(&Reverse((bound, _))) => 1 + rest[1..].iter().take_while(|q| q.id < bound).count(),
            None => rest.len(),
        };
        out.extend_from_slice(&rest[..run]);
        next[b] += run;
        if let Some(q) = rest.get(run) {
            heads.push(Reverse((q.id, b)));
        }
    }
    out
}

/// The decomposition of a method on a world of ranks: the processor grid
/// (`c = 1`, one team per rank, for the methods that replicate nothing),
/// the window the method walks — the paper's only difference between
/// Algorithms 1 and 2 — and what the leaders' blocks are. The one place
/// `(method, p, domain, boundary, r_c)` becomes `(grid, team dims, window)`.
///
/// [`Layout::new`] is the validating constructor; the public fields are
/// plain data for callers that report on a layout (`analyze`, `chaos`, the
/// figure and autotuning sweeps, the conformance checker).
#[derive(Debug, Clone, Copy)]
pub struct Layout {
    /// The library's name for the method laid out (`ca-all-pairs`,
    /// `ca-1d-cutoff`, `ca-2d-cutoff`, …).
    pub name: &'static str,
    /// The `p/c × c` processor grid.
    pub grid: ProcGrid,
    /// `tx × ty` team grid of the spatial decompositions (a 1-D
    /// decomposition is the `ty = 1` grid); `None` for id blocks.
    pub cells: Option<(usize, usize)>,
    /// The window the method walks: the one `r_c` cuts out of the team
    /// grid, clipped or wrapping under periodic boundaries; for id blocks
    /// the full team ring (which wraps whatever the boundary: the ring
    /// orders block ids, not space), and its half for the half-ring.
    pub window: TeamWindow,
    /// Picks the force routine, and whether the layout has a schedule twin.
    method: Method,
}

impl Layout {
    /// Lay `method` out on `p` ranks, or say why it does not fit.
    pub fn new(
        method: Method,
        p: usize,
        domain: &Domain,
        boundary: Boundary,
        r_c: Option<f64>,
    ) -> Result<Layout, String> {
        // Replication, and for the spatial methods whether the team grid is 2-D.
        let (name, c, spatial) = match method {
            Method::CaAllPairs { c } => ("ca-all-pairs", c, None),
            Method::ParticleRingSymmetric => ("ring-symmetric", 1, None),
            Method::NaiveAllgather => ("allgather", 1, None),
            Method::Ca1dCutoff { c } => ("ca-1d-cutoff", c, Some(false)),
            Method::Ca2dCutoff { c } => ("ca-2d-cutoff", c, Some(true)),
        };
        let Some(two_d) = spatial else {
            let grid = ProcGrid::new_all_pairs(p, c).map_err(|e| e.to_string())?;
            let ring = TeamWindow::ring(grid.teams());
            let window = match method {
                // Newton's third law on the ring: the half, where it has room.
                Method::ParticleRingSymmetric => walked_window(ring, c, true),
                _ => ring,
            };
            return Ok(Layout {
                name,
                grid,
                cells: None,
                window,
                method,
            });
        };
        let grid = ProcGrid::new(p, c).map_err(|e| e.to_string())?;
        let teams = grid.teams();
        let dims = if two_d {
            team_grid_dims(teams)
        } else {
            (teams, 1)
        };
        let r_c =
            r_c.ok_or_else(|| format!("{method:?} requires a force law with a cutoff radius"))?;
        // Periodic boundaries take a wrapping window; the paper's
        // non-periodic setting a clipped one.
        let wraps = boundary == Boundary::Periodic;
        let window = TeamWindow::from_cutoff(domain, dims, wraps, r_c);
        validate_cutoff(&window, teams, c).map_err(|e| e.to_string())?;
        Ok(Layout {
            name,
            grid,
            cells: Some(dims),
            window,
            method,
        })
    }

    /// Shift steps of row 0, the longest pipeline: `p/c²` on the ring,
    /// `⌈W/c⌉` under a cutoff.
    pub fn pipeline_steps(&self) -> usize {
        row_steps(self.window.len(), self.grid.c(), 0)
    }

    /// Whom a leader re-assigns with right before each force evaluation:
    /// the nearest neighbours of its cell, across the seam iff the force
    /// window wraps. `None` on id blocks, which never drift.
    pub fn neighbourhood(&self) -> Option<TeamWindow> {
        let wraps = self.window.is_periodic();
        self.cells.map(|dims| TeamWindow::neighbours(dims, wraps))
    }

    /// The schedule twin of one timestep's communication on this layout,
    /// given the particles each team owns and whether the run's law asks
    /// each pair once for both ways (`newton`,
    /// [`symmetric_cutoff`](crate::kernel::symmetric_cutoff); `false` for a
    /// twin with no law): a force evaluation and, where leaders re-assign,
    /// the neighbour exchange after it (as many messages as the run sends,
    /// which makes its exchange right before the next evaluation instead;
    /// their payload is the caller's to model). Panics on a method that is
    /// not one of the CA algorithms.
    pub fn schedule(&self, block_sizes: Vec<usize>, newton: bool) -> CutoffParams<TeamWindow> {
        assert!(self.method.is_ca(), "{}", self.method.not_ca());
        let mut params = CutoffParams::new(self.grid, self.window, block_sizes);
        params.newton = newton;
        params.reassign = self
            .neighbourhood()
            .map(|hood| ReassignModel { hood, bytes: 0 });
        params
    }

    /// The block this rank owns out of the full set `all`: its team's id
    /// block or spatial region ([`team_at`]) on leaders, nothing
    /// elsewhere.
    fn block<C: Communicator>(
        &self,
        gc: &GridComms<C>,
        all: &[Particle],
        domain: &Domain,
        boundary: Boundary,
    ) -> Vec<Particle> {
        match self.cells {
            _ if !gc.is_leader() => Vec::new(),
            None => id_block_subset(all, self.grid.teams(), gc.team()),
            Some(dims) => spatial_subset(all, domain, dims, boundary, gc.team()),
        }
    }

    /// Put a leader's block in the order its kernel wants: cell order for
    /// spatial blocks (what the cutoff cull needs), and id blocks as they
    /// are (their order is the summation order the bit-identity oracle
    /// pins; the ROADMAP's "fixed-order oracle" item decides whether to
    /// trade it).
    fn order<F: ForceLaw>(&self, st: &mut [Particle], law: &F, domain: &Domain) {
        if self.cells.is_some() {
            cell_order(st, law, domain);
        }
    }
}

/// How one timestep's forces are evaluated, and what rides along with the
/// evaluation. The hooks default to nothing, so an evaluation that does not
/// override them pays nothing for them.
trait Evaluation {
    /// What an evaluation can end in instead of forces.
    type Error;

    /// One force evaluation of the layout's algorithm over `st`, and
    /// whatever inspects the reduced forces before they are integrated.
    /// Returns what it took and the rank's harvested pair potential (0
    /// unless a health monitor asked for it).
    fn forces<C: Communicator, F: ForceLaw, I>(
        &mut self,
        layout: &Layout,
        gc: &GridComms<C>,
        st: &mut Vec<Particle>,
        cfg: &SimConfig<F, I>,
        step: usize,
    ) -> Result<(RecoveryReport, f64), Self::Error>;

    /// Sort a failed evaluation: `Ok` with the agreed dead teams (and the
    /// error to end with should no layout fit the survivors) when the
    /// verdict is to shrink, `Err` with the terminal failure otherwise.
    fn columns_lost(e: Self::Error, rank: usize) -> Result<(Vec<usize>, Self::Error), Self::Error>;

    /// Hook at the end of the step, collective over `cur` (the current,
    /// possibly shrunken, world `gc` was split from). Returns the step's globally reduced
    /// `(total energy, momentum norm)`, zeros when unmeasured.
    fn after_step<C: Communicator>(
        &mut self,
        _cur: &C,
        _gc: &GridComms<C>,
        _st: &[Particle],
        _pe_partial: f64,
        _step: usize,
    ) -> Result<(f64, f64), Self::Error> {
        Ok((0.0, 0.0))
    }

    /// The rank's health verdict, if monitors ran.
    fn health_report(&self) -> Option<HealthReport> {
        None
    }

    /// Hook after the world shrank onto its survivors.
    fn shrunk(&mut self) {}
}

/// The failure-free evaluation: the layout's force routine — for the CA
/// methods the shift body under the strict link — nothing riding along.
struct Plain;

impl Evaluation for Plain {
    type Error = Infallible;

    fn forces<C: Communicator, F: ForceLaw, I>(
        &mut self,
        layout: &Layout,
        gc: &GridComms<C>,
        st: &mut Vec<Particle>,
        cfg: &SimConfig<F, I>,
        _step: usize,
    ) -> Result<(RecoveryReport, f64), Infallible> {
        let (law, domain, boundary) = (&cfg.law, &cfg.domain, cfg.boundary);
        let window = &layout.window;
        layout.order(st, law, domain);
        // The one method that does not run the shift body is one team per
        // rank: its world is the row.
        match layout.method {
            Method::CaAllPairs { .. }
            | Method::ParticleRingSymmetric
            | Method::Ca1dCutoff { .. }
            | Method::Ca2dCutoff { .. } => ca_forces(gc, window, st, law, domain, boundary),
            Method::NaiveAllgather => naive_allgather_forces(&gc.row, st, law, domain, boundary),
        }
        Ok((RecoveryReport::default(), 0.0))
    }

    fn columns_lost(e: Infallible, _rank: usize) -> Result<(Vec<usize>, Infallible), Infallible> {
        match e {}
    }
}

/// The fault-tolerant evaluation: the recovery protocol around every
/// force evaluation (`epoch` = timestep index for tag namespacing), with
/// the optional durable checkpoint sink on its cadence and the optional
/// numerical-health monitors. The plan's `nan` and `crash` events fire
/// here; its `corrupt` events ride in the monitor.
struct Recovering<'a> {
    plan: &'a FaultPlan,
    policy: &'a RetryPolicy,
    ckpt: Option<&'a CheckpointConfig>,
    health: Option<&'a HealthConfig>,
    /// The *launch* world rank, which every rank keeps across shrinks: the
    /// monitor's injection identities and the sentinels' blame key off it,
    /// so a seeded fault lands on the intended rank regardless of how the
    /// grid has contracted by then.
    rank: usize,
    monitor: Option<HealthMonitor>,
    /// On a non-leader, the next evaluation's block, which arrived with
    /// this one's deferred verdict.
    next: Option<Vec<Particle>>,
    /// This step's sentinel blame `(rank, detail)`, from the force scan
    /// until the step's reduction consumes it.
    blame: Option<(usize, String)>,
    report: HealthReport,
}

impl<'a> Recovering<'a> {
    fn new<C: Communicator>(
        world: &C,
        plan: &'a FaultPlan,
        policy: &'a RetryPolicy,
        ckpt: Option<&'a CheckpointConfig>,
        health: Option<&'a HealthConfig>,
    ) -> Self {
        if let Some(ck) = ckpt {
            assert!(ck.every >= 1, "checkpoint cadence must be >= 1");
            if ck.base_step > 0 {
                world.timeline().event(
                    EventKind::Resume,
                    Some(ck.base_step),
                    &format!("resumed from checkpoint at global step {}", ck.base_step),
                );
            }
        }
        Recovering {
            plan,
            policy,
            ckpt,
            health,
            rank: world.rank(),
            monitor: health.map(|_| HealthMonitor::new(plan, world.rank())),
            next: None,
            blame: None,
            report: HealthReport::default(),
        }
    }

    /// What [`after_step`](Evaluation::after_step) does at the end of
    /// `step` beyond local work: whether it runs the health reduction, and
    /// the checkpoint it persists (sink, global step, and whether the
    /// plan's crash follows). Either talks over the world, so a step's
    /// force verdict waits for the next team broadcast only when this is
    /// `(false, None)`: the one predicate `forces` and `after_step` share.
    fn after_step_talks(&self, step: usize) -> (bool, Option<(&'a CheckpointConfig, u64, bool)>) {
        let checks = self.health.is_some_and(|h| h.checks_step(step as u64));
        let persists = self.ckpt.and_then(|ck| {
            let done = ck.base_step + step as u64 + 1;
            let crash = self.plan.aims(FaultKind::Crash, 0, done);
            (done.is_multiple_of(ck.every as u64) || crash).then_some((ck, done, crash))
        });
        (checks, persists)
    }
}

impl Evaluation for Recovering<'_> {
    type Error = FaultError;

    fn forces<C: Communicator, F: ForceLaw, I>(
        &mut self,
        layout: &Layout,
        gc: &GridComms<C>,
        st: &mut Vec<Particle>,
        cfg: &SimConfig<F, I>,
        step: usize,
    ) -> Result<(RecoveryReport, f64), FaultError> {
        let (law, domain, boundary) = (&cfg.law, &cfg.domain, cfg.boundary);
        let (epoch, monitor) = (step as u64, self.monitor.as_ref());
        let (checks, persists) = self.after_step_talks(step);
        // The verdict may ride the next evaluation's broadcast only when
        // that broadcast is the column's next collective.
        let defer = step + 1 < cfg.steps && !checks && persists.is_none();
        layout.order(st, law, domain);
        let (rep, pe) = ca_forces_ft(
            gc,
            &layout.window,
            st,
            law,
            domain,
            boundary,
            self.policy,
            epoch,
            monitor,
            defer,
            &mut self.next,
        )?;
        // Post-reduction sentinel pass: apply the plan's NaN (a step's
        // evaluation succeeds once, so it fires once) and scan the freshly
        // reduced force accumulators on leaders.
        if checks {
            if self.plan.aims(FaultKind::Nan, self.rank, epoch) {
                if let Some(q) = st.first_mut() {
                    q.force.x = f64::NAN;
                    FaultKind::Nan.count_fired(&gc.col.metrics(), &gc.col.timeline(), epoch);
                }
            }
            if gc.is_leader() {
                self.blame =
                    scan_forces(st).map(|b| (self.rank, b.detail(self.rank, epoch, "force")));
            }
        }
        Ok((rep, pe))
    }

    fn columns_lost(e: FaultError, rank: usize) -> Result<(Vec<usize>, FaultError), FaultError> {
        match e {
            FaultError::ColumnsLost { dead_teams, c } => {
                Ok((dead_teams, FaultError::Unrecoverable { rank, c }))
            }
            e => Err(e),
        }
    }

    /// The post-integration sentinel pass over positions/velocities/masses
    /// and the step's world reduction on checked steps, then the
    /// checkpoint sink on its cadence.
    fn after_step<C: Communicator>(
        &mut self,
        cur: &C,
        gc: &GridComms<C>,
        st: &[Particle],
        pe_partial: f64,
        step: usize,
    ) -> Result<(f64, f64), FaultError> {
        let mut sampled = (0.0, 0.0);
        let (checks, persists) = self.after_step_talks(step);
        if checks {
            let mut blame = self.blame.take();
            let mut inv = Invariants::default();
            if gc.is_leader() {
                blame = blame.or_else(|| {
                    scan_state(st)
                        .map(|b| (self.rank, b.detail(self.rank, step as u64, "integrate")))
                });
                inv = Invariants::partial(st);
            }
            sampled = health_reduce(cur, blame, inv, pe_partial, step, &mut self.report)?;
        }
        if let Some((ck, done, crash)) = persists {
            persist_checkpoint(cur, &gc.grid, gc.is_leader(), st, ck, done);
            // The plan's crash: rank 0 hard-exits with the SIGKILL code
            // right after the bundle is durable.
            if crash && cur.rank() == 0 {
                std::process::exit(137);
            }
        }
        Ok(sampled)
    }

    /// The lost particles took their energy with them: drift is measured
    /// afresh from the next checked step.
    fn shrunk(&mut self) {
        debug_assert!(
            self.next.is_none(),
            "a shrink follows a fault, never a deferred verdict"
        );
        self.report.rebase();
    }

    fn health_report(&self) -> Option<HealthReport> {
        let monitor = self.monitor.as_ref()?;
        Some(HealthReport {
            fingerprint_mismatches: monitor.fingerprint_mismatches(),
            ..self.report
        })
    }
}

/// Execute an agreed shrink: split the survivors off into a new world,
/// re-assemble the surviving particle set from the restored pre-force
/// checkpoints, and account for the drop. Collective over `cur` — every
/// rank calls it with the same agreed `dead_teams`. Returns `None` on
/// ranks whose team died (they leave the computation), and the survivor
/// world together with the globally shared surviving state elsewhere.
#[allow(clippy::too_many_arguments)]
fn shrink_world<C: Communicator>(
    cur: &C,
    grid: &ProcGrid,
    dead_teams: &[usize],
    was_leader: bool,
    st: &[Particle],
    live_n: &mut usize,
    agg: &mut RecoveryReport,
    step: usize,
) -> Option<(C, Vec<Particle>)> {
    let survives = |rank: usize| !dead_teams.contains(&grid.team_of(rank));
    let my_team = grid.team_of(cur.rank());
    let survivor = survives(cur.rank());
    let tl = cur.timeline();
    cur.set_phase(Phase::Recovery);
    // Every rank holds the agreed `dead_teams`, so each knows who survives
    // and the split sends nothing; keying on the old rank keeps the
    // survivors' relative order.
    let next = cur.split_by(|r| (usize::from(survives(r)), r));
    if !survivor {
        tl.event(
            EventKind::WorldShrunk,
            Some(step as u64),
            &format!("team {my_team} lost every replica; rank leaves the world"),
        );
        return None;
    }
    // The recovery loop left the restored pre-force checkpoint on every
    // surviving-column rank, so the old leaders' copies are exactly one
    // copy of each live block.
    let mut contrib = if was_leader { st.to_vec() } else { Vec::new() };
    contrib.sort_unstable_by_key(|q| q.id);
    let mut full = match next.gather(0, &contrib) {
        Some(parts) => merge_by_id(&parts),
        None => Vec::new(),
    };
    next.bcast(0, &mut full);
    let lost = *live_n - full.len();
    *live_n = full.len();
    agg.lost_particles += lost;
    let rec = cur.metrics();
    rec.counter("world_shrunk_total", None).inc();
    rec.counter("shrink_lost_particles_total", None)
        .add(lost as u64);
    tl.event(
        EventKind::WorldShrunk,
        Some(step as u64),
        &format!(
            "teams {dead_teams:?} lost ({lost} particles dropped); {} survivors continue",
            next.size()
        ),
    );
    Some((next, full))
}

/// Persist the leaders' blocks as one durable bundle: gathered to the
/// current world's rank 0, written atomically (temp file + rename), and
/// recorded in the flight ring and the `checkpoint_*` counters.
/// Collective over `cur`.
fn persist_checkpoint<C: Communicator>(
    cur: &C,
    grid: &ProcGrid,
    is_leader: bool,
    st: &[Particle],
    ck: &CheckpointConfig,
    global_step: u64,
) {
    cur.set_phase(Phase::Recovery);
    let contrib = if is_leader { st.to_vec() } else { Vec::new() };
    let gathered = cur.gather(0, &contrib);
    if cur.rank() != 0 {
        return;
    }
    let blocks: Vec<ColumnBlock> = gathered
        .expect("rank 0 is the gather root")
        .into_iter()
        .enumerate()
        .filter(|(r, _)| grid.row_of(*r) == 0)
        .map(|(r, particles)| ColumnBlock {
            team: grid.team_of(r),
            particles,
        })
        .collect();
    let bundle = CheckpointBundle {
        fingerprint: ck.fingerprint.clone(),
        step: global_step,
        seed: ck.seed,
        blocks,
    };
    let tl = cur.timeline();
    match write_atomic(&ck.dir, &bundle) {
        Ok((path, bytes)) => {
            tl.event(
                EventKind::CheckpointPersisted,
                Some(global_step),
                &format!("{} ({bytes} bytes)", path.display()),
            );
            let rec = cur.metrics();
            rec.counter("checkpoint_persisted_total", None).inc();
            rec.counter("checkpoint_bytes_total", None).add(bytes);
        }
        Err(e) => {
            // A failed write never takes the run down: the previous
            // bundle is still intact (atomic rename), so durability
            // degrades by one cadence interval and the run continues.
            tl.event(
                EventKind::CheckpointPersisted,
                Some(global_step),
                &format!("write failed: {e}"),
            );
            cur.metrics().counter("checkpoint_failed_total", None).inc();
        }
    }
}

/// The once-per-checked-step world reduction of the health monitors: one
/// sum-allreduce carries every rank's invariant partials plus its sentinel
/// flag, so the invariants and the abort decision cost a single
/// collective. Folds the agreed result into the rank's report and returns
/// `(total energy, momentum norm)`; an agreed sentinel aborts every rank
/// with the same [`FaultError::NumericalFault`]. Collective over `cur`
/// (the current, possibly shrunken, world). Attributed to
/// [`Phase::Recovery`] — health traffic is outside the paper's cost model,
/// like recovery traffic.
fn health_reduce<C: Communicator>(
    cur: &C,
    blame: Option<(usize, String)>,
    inv: Invariants,
    pe_partial: f64,
    step: usize,
    report: &mut HealthReport,
) -> Result<(f64, f64), FaultError> {
    cur.set_phase(Phase::Recovery);
    let mut buf = vec![
        inv.kinetic,
        inv.momentum_x,
        inv.momentum_y,
        pe_partial,
        if blame.is_some() { 1.0 } else { 0.0 },
        blame.as_ref().map_or(0.0, |(r, _)| (*r + 1) as f64),
    ];
    cur.allreduce(&mut buf, |a, b| *a += *b);
    let nonfinite = buf[4] as u64;
    if nonfinite > 0 {
        report.sentinel_events += nonfinite;
        let tl = cur.timeline();
        let (rank, detail) = match blame {
            Some((rank, detail)) => {
                // The catching rank writes the blamed flight event and
                // turns the timeline into a postmortem bundle.
                tl.event(EventKind::NonFinite, Some(step as u64), &detail);
                tl.mark_failure(&detail);
                (rank, detail)
            }
            None => (
                // Exact when one rank is blamed (the common case); with
                // several simultaneous blames the sum is only a hint and
                // the per-rank flight events carry the truth.
                (buf[5] as usize).saturating_sub(1),
                "non-finite state detected (see the blamed rank's flight events)".to_string(),
            ),
        };
        return Err(FaultError::NumericalFault {
            rank,
            step: step as u64,
            detail,
        });
    }
    // The CA schedules evaluate every ordered pair exactly once globally,
    // so the summed kernel harvest counts each unordered pair twice.
    let energy = buf[0] + buf[3] / 2.0;
    let momentum = (buf[1] * buf[1] + buf[2] * buf[2]).sqrt();
    report.record(energy, momentum);
    Ok((energy, momentum))
}

/// The one rank loop of a plain run — nothing riding along, so it cannot
/// fail — on a communicator the caller supplies: what [`Run::execute`]
/// runs on each rank thread when no fault plan, checkpoint sink or health
/// monitor is set, for callers that wrap the transport (a tracing or
/// counting [`Communicator`]) and spawn the ranks themselves
/// ([`run_ranks`](nbody_comm::run_ranks)). `layout` is
/// [`Layout::new`]'s for the world's size. Returns the particles this rank
/// owns at the end, sorted by id (none off the leaders); its statistics
/// are `world.stats()`.
pub fn run_plain_rank<F, I, C>(
    cfg: &SimConfig<F, I>,
    layout: Layout,
    world: &mut C,
    initial: &[Particle],
) -> Vec<Particle>
where
    F: ForceLaw,
    I: Integrator,
    C: Communicator,
{
    match run_rank(cfg, layout, world, initial, Plain) {
        Ok((owned, ..)) => owned,
        Err(e) => match e {},
    }
}

/// Per-rank body of a run: the one timestep loop of every method. A
/// `ColumnsLost` verdict from the evaluation shrinks the world onto the
/// survivors and re-runs that step's evaluation there. The block handed
/// back is sorted by id, here on the rank, so the launcher only merges.
fn run_rank<F, I, C, E>(
    cfg: &SimConfig<F, I>,
    mut layout: Layout,
    world: &mut C,
    initial: &[Particle],
    mut eval: E,
) -> Result<RankOutcome, E::Error>
where
    F: ForceLaw,
    I: Integrator,
    C: Communicator,
    E: Evaluation,
{
    let domain = &cfg.domain;
    let r_c = cfg.law.cutoff();
    let tr = world.tracer();
    let mut probe = StepProbe::new(world);
    let mut agg = RecoveryReport::default();
    // Particles still alive across shrinks (the loss accounting base).
    let mut live_n = initial.len();
    // After a shrink the run continues on an owned survivor world; the
    // borrowed launch world stays behind only for rank-local telemetry
    // (stats and recorders are shared across splits).
    let mut shrunk: Option<C> = None;
    // The launch ranks of the current world's ranks, and the shrinks
    // that got it there.
    let mut launch: Vec<u32> = (0..world.size() as u32).collect();
    let mut shrinks: Vec<Shrink> = Vec::new();
    let mut gc = GridComms::new(world, layout.grid);
    let mut st = layout.block(&gc, initial, domain, cfg.boundary);
    for step in 0..cfg.steps {
        let _step_g = tr.driver_span("step", step);
        if gc.is_leader() {
            {
                let _g = tr.driver_span("integrate", step);
                cfg.integrator.pre_force(&mut st, cfg.dt);
                reset_forces(&mut st);
            }
            if let Some(hood) = layout.neighbourhood() {
                // Right before the force evaluation, after whatever moved
                // the particles since the last one: every block is then its
                // team's region, which a cut copy needs (`cutoff::Regions`).
                let _g = tr.driver_span("reassign", step);
                let [tx, ty, _] = hood.dims();
                let team_of = |q: &Particle| team_at(domain, (tx, ty), cfg.boundary, q.pos);
                // A particle that outran its neighbourhood ends the run, and
                // the transport takes the other ranks down with this message.
                reassign_within(&gc.row, &hood, &mut st, team_of)
                    .unwrap_or_else(|e| panic!("step {step}: {e}"));
            }
        }
        let pe_partial = loop {
            let r = {
                let _g = tr.driver_span("force", step);
                eval.forces(&layout, &gc, &mut st, cfg, step)
            };
            let (dead_teams, no_layout) = match r {
                Ok((rep, pe)) => {
                    agg.attempts = agg.attempts.max(rep.attempts);
                    agg.recovered |= rep.recovered;
                    break pe;
                }
                Err(e) => E::columns_lost(e, world.rank())?,
            };
            let cur: &C = shrunk.as_ref().unwrap_or(world);
            let Some((next, full)) = shrink_world(
                cur,
                &layout.grid,
                &dead_teams,
                gc.is_leader(),
                &st,
                &mut live_n,
                &mut agg,
                step,
            ) else {
                let health = eval.health_report();
                return Ok((Vec::new(), world.stats(), agg, health, shrinks));
            };
            // Agreed without a message: every survivor evaluates the same
            // deterministic policy on the same survivor count.
            let on_survivors = layout
                .method
                .shrunk_onto(next.size(), domain, cfg.boundary, r_c);
            let Some((_, shrunk_layout)) = on_survivors else {
                return Err(no_layout);
            };
            let mut rank = 0;
            launch.retain(|_| {
                rank += 1;
                !dead_teams.contains(&layout.grid.team_of(rank - 1))
            });
            shrinks.push(Shrink {
                step: step as u64,
                survivors: launch.clone(),
                c: shrunk_layout.grid.c(),
                n: live_n,
            });
            eval.shrunk();
            layout = shrunk_layout;
            gc = GridComms::new(&next, layout.grid);
            shrunk = Some(next);
            st = layout.block(&gc, &full, domain, cfg.boundary);
        };
        if gc.is_leader() {
            let _g = tr.driver_span("integrate", step);
            cfg.integrator
                .post_force(&mut st, cfg.dt, domain, cfg.boundary);
        } else {
            st.clear();
        }
        let cur: &C = shrunk.as_ref().unwrap_or(world);
        let (energy, momentum) = eval.after_step(cur, &gc, &st, pe_partial, step)?;
        probe.sample_with(world, step, st.len(), energy, momentum);
    }
    if layout.cells.is_some() {
        world.set_phase(Phase::Other);
    }
    let mut owned = if gc.is_leader() { st } else { Vec::new() };
    owned.sort_unstable_by_key(|q| q.id);
    Ok((owned, world.stats(), agg, eval.health_report(), shrinks))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbody_physics::{init, Cutoff, RepulsiveInverseSquare, SemiImplicitEuler, Vec2};
    use nbody_trace::SpanKind;

    fn assert_trajectories_match(got: &[Particle], want: &[Particle], tol: f64, label: &str) {
        assert_eq!(got.len(), want.len(), "{label}");
        for (g, w) in got.iter().zip(want) {
            assert_eq!(g.id, w.id, "{label}");
            let dp = (g.pos - w.pos).norm();
            let dv = (g.vel - w.vel).norm();
            assert!(
                dp <= tol && dv <= tol,
                "{label}: id={} dp={dp} dv={dv}\n got {:?}\nwant {:?}",
                g.id,
                g,
                w
            );
        }
    }

    fn all_pairs_cfg(steps: usize) -> SimConfig<RepulsiveInverseSquare, SemiImplicitEuler> {
        SimConfig {
            law: RepulsiveInverseSquare {
                strength: 1e-3,
                softening: 1e-3,
            },
            integrator: SemiImplicitEuler,
            domain: Domain::unit(),
            boundary: Boundary::Reflective,
            dt: 0.01,
            steps,
        }
    }

    #[test]
    fn multi_step_trajectory_matches_serial_all_methods() {
        let cfg = all_pairs_cfg(5);
        let initial = init::uniform(24, &cfg.domain, 42);
        let want = run_serial(&cfg, &initial);
        for (method, p) in [
            (Method::CaAllPairs { c: 1 }, 4),
            (Method::CaAllPairs { c: 2 }, 8),
            (Method::CaAllPairs { c: 2 }, 16),
            (Method::CaAllPairs { c: 1 }, 6),
            (Method::NaiveAllgather, 4),
            (Method::CaAllPairs { c: 3 }, 9),
        ] {
            let got = run_distributed(&cfg, method, p, &initial);
            assert_trajectories_match(&got.particles, &want, 1e-9, &format!("{method:?} p={p}"));
        }
    }

    #[test]
    fn multi_step_cutoff_trajectories_match_serial() {
        let law = Cutoff::new(
            RepulsiveInverseSquare {
                strength: 1e-3,
                softening: 1e-3,
            },
            0.25,
        );
        let cfg = SimConfig {
            law,
            integrator: SemiImplicitEuler,
            domain: Domain::unit(),
            boundary: Boundary::Reflective,
            dt: 0.01,
            steps: 4,
        };
        let initial = init::uniform(40, &cfg.domain, 7);
        let want = run_serial(&cfg, &initial);
        for (method, p) in [
            (Method::Ca1dCutoff { c: 1 }, 4),
            (Method::Ca1dCutoff { c: 2 }, 8),
            (Method::Ca2dCutoff { c: 1 }, 4),
            (Method::Ca2dCutoff { c: 2 }, 8),
        ] {
            let got = run_distributed(&cfg, method, p, &initial);
            assert_trajectories_match(&got.particles, &want, 1e-9, &format!("{method:?} p={p}"));
        }
    }

    #[test]
    fn verlet_trajectories_match_serial() {
        use nbody_physics::VelocityVerlet;
        let cfg = SimConfig {
            law: RepulsiveInverseSquare {
                strength: 1e-3,
                softening: 1e-3,
            },
            integrator: VelocityVerlet,
            domain: Domain::unit(),
            boundary: Boundary::Reflective,
            dt: 0.01,
            steps: 6,
        };
        let initial = init::uniform(20, &cfg.domain, 11);
        let want = run_serial(&cfg, &initial);
        let got = run_distributed(&cfg, Method::CaAllPairs { c: 2 }, 8, &initial);
        assert_trajectories_match(&got.particles, &want, 1e-9, "verlet ca");
    }

    /// The merge is the sort it replaced: ids dealt to blocks at random
    /// (runs of every length, empty blocks, one block) come back as the
    /// sorted concatenation.
    #[test]
    fn merging_id_sorted_blocks_is_sorting_their_concatenation() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(41);
        for _ in 0..200 {
            let (p, n) = (rng.gen_range(1..9), rng.gen_range(0..300));
            let (mut blocks, mut b) = (vec![Vec::new(); p], 0);
            for id in 0..n as u64 {
                if rng.gen_range(0..4) == 0 {
                    b = rng.gen_range(0..p);
                }
                blocks[b].push(Particle::at(id * 3, Vec2::new(id as f64, 0.0)));
            }
            let mut want: Vec<Particle> = blocks.concat();
            want.sort_unstable_by_key(|q| q.id);
            assert_eq!(merge_by_id(&blocks), want, "p={p} n={n}");
        }
    }

    #[test]
    fn momentum_conserved_in_distributed_run() {
        let cfg = all_pairs_cfg(10);
        let mut initial = init::uniform(16, &cfg.domain, 5);
        init::thermalize(&mut initial, 0.01, 6);
        let got = run_distributed(&cfg, Method::CaAllPairs { c: 2 }, 4, &initial);
        // Reflective walls flip momentum, so only check finiteness + bounds.
        for q in &got.particles {
            assert!(q.pos.is_finite() && q.vel.is_finite());
            assert!(cfg.domain.contains(q.pos) || q.pos.x <= 1.0);
        }
    }

    #[test]
    fn reassignment_preserves_particle_count_over_long_run() {
        let law = Cutoff::new(
            RepulsiveInverseSquare {
                strength: 5e-3,
                softening: 1e-3,
            },
            0.3,
        );
        let cfg = SimConfig {
            law,
            integrator: SemiImplicitEuler,
            domain: Domain::unit(),
            boundary: Boundary::Reflective,
            dt: 0.02,
            steps: 15,
        };
        let mut initial = init::uniform(32, &cfg.domain, 9);
        init::thermalize(&mut initial, 0.05, 10);
        let got = run_distributed(&cfg, Method::Ca1dCutoff { c: 2 }, 8, &initial);
        assert_eq!(got.particles.len(), 32);
        let want = run_serial(&cfg, &initial);
        assert_trajectories_match(&got.particles, &want, 1e-8, "long cutoff run");
    }

    #[test]
    #[should_panic(expected = "requires a force law with a cutoff")]
    fn cutoff_method_rejects_all_pairs_law() {
        let cfg = all_pairs_cfg(1);
        let initial = vec![Particle::at(0, Vec2::new(0.5, 0.5))];
        run_distributed(&cfg, Method::Ca1dCutoff { c: 1 }, 2, &initial);
    }

    #[test]
    fn traced_run_matches_untraced_and_phase_sums_tile_wall() {
        let law = Cutoff::new(
            RepulsiveInverseSquare {
                strength: 1e-3,
                softening: 1e-3,
            },
            0.25,
        );
        let cfg = SimConfig {
            law,
            integrator: SemiImplicitEuler,
            domain: Domain::unit(),
            boundary: Boundary::Reflective,
            dt: 0.01,
            steps: 3,
        };
        // Big enough that launch slack (ranks open their timelines
        // slightly after the shared epoch) is well under the 10% margin.
        let initial = init::uniform(600, &cfg.domain, 13);
        let plain = run_distributed(&cfg, Method::Ca1dCutoff { c: 2 }, 8, &initial);
        let out = Run::new(&cfg, Method::Ca1dCutoff { c: 2 }, 8)
            .trace()
            .execute(&initial);
        let (traced, trace, metrics) = (
            out.result.unwrap(),
            out.artifacts.trace,
            out.artifacts.metrics,
        );
        assert_eq!(
            plain.particles, traced.particles,
            "tracing must not perturb physics"
        );

        // Live metrics ride along: every rank shipped shift messages, and
        // the leaders recorded their particle memory high-water marks.
        assert_eq!(metrics.ranks.len(), 8);
        assert!(metrics.sum_counter("comm_send_messages", Some(Phase::Shift)) > 0);
        assert!(metrics.max_gauge("mem_particles_hwm", None) > 0);

        assert_eq!(trace.ranks, 8);
        // Phase windows tile each rank's timeline: sorted by start they are
        // contiguous (each opens at the instant the previous one closed),
        // hence non-overlapping, and so cover the rank's own first-open to
        // last-close exactly. That is what "phase seconds sum to wall time"
        // stands for, without comparing two clocks' worth of elapsed time.
        for rank in 0..trace.ranks as u32 {
            let mut windows: Vec<(f64, f64)> = trace
                .spans
                .iter()
                .filter(|s| s.rank == rank && matches!(s.kind, SpanKind::Phase(_)))
                .map(|s| (s.start, s.end))
                .collect();
            assert!(!windows.is_empty(), "rank {rank} recorded no phase window");
            windows.sort_by(|a, b| a.0.total_cmp(&b.0));
            for w in &windows {
                assert!(w.1 > w.0, "rank {rank}: empty or inverted window {w:?}");
            }
            for pair in windows.windows(2) {
                assert_eq!(
                    pair[0].1, pair[1].0,
                    "rank {rank}: gap or overlap between consecutive phase windows"
                );
            }
        }
        // The cutoff method exercises shift, reduce, broadcast, and
        // reassign windows.
        let present = trace.phases_present();
        for want in [
            Phase::Shift,
            Phase::Reduce,
            Phase::Broadcast,
            Phase::Reassign,
        ] {
            assert!(present.contains(&want), "missing {want:?} in {present:?}");
        }
    }

    #[test]
    fn checkpointed_run_resumes_bit_identically() {
        let cfg = all_pairs_cfg(6);
        let initial = init::uniform(16, &cfg.domain, 9);
        let dir = std::env::temp_dir().join(format!("nbody-ckpt-sim-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let ck = CheckpointConfig {
            dir: dir.clone(),
            every: 2,
            base_step: 0,
            fingerprint: "test-fp".into(),
            seed: 9,
        };
        let out = Run::new(&cfg, Method::CaAllPairs { c: 2 }, 4)
            .trace()
            .checkpoint(&ck)
            .execute(&initial);
        let full = out.result.expect("fault-free durable run");
        // Persisting must not perturb the physics.
        let plain = run_distributed(&cfg, Method::CaAllPairs { c: 2 }, 4, &initial);
        assert_eq!(full.particles, plain.particles);
        assert_eq!(
            out.artifacts
                .metrics
                .sum_counter("checkpoint_persisted_total", None),
            3,
            "cadence 2 over 6 steps lands bundles at steps 2, 4, 6"
        );
        let latest = nbody_durable::load_latest(&dir).unwrap();
        assert_eq!(latest.step, 6);
        // Resume from the mid-run bundle: restoring its bit-exact state
        // and running the remaining steps reproduces the full trajectory.
        let bundle = nbody_durable::load_path(&nbody_durable::checkpoint_path(&dir, 4)).unwrap();
        bundle.validate_fingerprint("test-fp").unwrap();
        let restored = bundle.all_particles();
        let tail = all_pairs_cfg(2);
        let resumed = run_distributed(&tail, Method::CaAllPairs { c: 2 }, 4, &restored).particles;
        assert_eq!(
            resumed, full.particles,
            "resume from step 4 must land bit-identical to the uninterrupted run"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn traced_run_reports_driver_sections_per_step() {
        // Every method passes through the one loop: the same sections and
        // one `StepProbe` sample per rank-step whichever force routine ran.
        fn check<F: ForceLaw + Sync>(
            cfg: &SimConfig<F, SemiImplicitEuler>,
            method: Method,
            p: usize,
        ) {
            let initial = init::uniform(24, &cfg.domain, 42);
            let artifacts = Run::new(cfg, method, p).trace().execute(&initial).artifacts;
            let reports = artifacts.trace.step_reports();
            assert_eq!(
                reports.len(),
                cfg.steps,
                "{method:?}: one report per timestep"
            );
            for (i, r) in reports.iter().enumerate() {
                assert_eq!(r.step as usize, i);
                let names: Vec<&str> = r.parts.iter().map(|(n, _)| n.as_str()).collect();
                for section in ["step", "force", "integrate"] {
                    assert!(names.contains(&section), "{method:?}: {names:?}");
                }
                assert_eq!(
                    names.contains(&"reassign"),
                    method.needs_cutoff(),
                    "{method:?}"
                );
                // The step section dominates its parts on every rank.
                let step_max = r.parts.iter().find(|(n, _)| n == "step").unwrap().1.max;
                let force_max = r.parts.iter().find(|(n, _)| n == "force").unwrap().1.max;
                assert!(step_max >= force_max);
            }
            assert_eq!(artifacts.timeline.ranks.len(), p);
            for rank in &artifacts.timeline.ranks {
                let steps: Vec<u32> = rank.samples.iter().map(|s| s.step).collect();
                assert_eq!(steps, [0, 1, 2, 3], "{method:?} rank {}", rank.rank);
            }
        }
        let cfg = all_pairs_cfg(4);
        check(&cfg, Method::CaAllPairs { c: 2 }, 8);
        check(&cfg, Method::NaiveAllgather, 4);
        let cutoff_cfg = SimConfig {
            law: Cutoff::new(cfg.law, 0.25),
            integrator: SemiImplicitEuler,
            domain: cfg.domain,
            boundary: cfg.boundary,
            dt: cfg.dt,
            steps: cfg.steps,
        };
        check(&cutoff_cfg, Method::Ca1dCutoff { c: 1 }, 4);
    }
}
