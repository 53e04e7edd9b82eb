//! The end-to-end simulation driver.
//!
//! Runs multi-timestep N-body simulations with any of the paper's
//! decompositions on the threaded message-passing runtime, handling the
//! integrator split, force evaluation, boundary conditions, and (for the
//! cutoff methods) per-step spatial re-assignment. The serial path uses the
//! identical integrator/force code, so distributed trajectories can be
//! validated against it step-for-step.

use nbody_comm::{
    run_ranks, run_ranks_chaos_probed, run_ranks_chaos_traced, run_ranks_probed_traced,
    run_ranks_traced, CommStats, Communicator, EventKind, ExecutionTrace, FaultPlan,
    MetricsSnapshot, Phase, RunTimeline, WireLog,
};
use nbody_durable::{write_atomic, CheckpointBundle, ColumnBlock};
use nbody_physics::particle::reset_forces;
use nbody_physics::{Boundary, Domain, ForceLaw, Integrator, Particle};
use nbody_simhealth::{scan_forces, scan_state, HealthConfig, HealthReport, Invariants};

use crate::baselines::{
    force_decomposition_forces, naive_allgather_forces, particle_ring_forces,
};
use crate::cutoff::ca_cutoff_forces;
use crate::dist::{
    id_block_subset, spatial_subset_1d, spatial_subset_2d, team_grid_dims, team_of_x, team_of_xy,
};
use crate::grid::{GridComms, ProcGrid};
use crate::midpoint::midpoint_forces;
use crate::probe::StepProbe;
use crate::reassign::reassign_particles;
use crate::recovery::{
    ca_all_pairs_forces_ft_health, ca_cutoff_forces_ft_health, FaultError, HealthMonitor,
    RecoveryReport, RetryPolicy,
};
use crate::spatial::spatial_halo_forces;
use crate::window::{Window1d, Window2d};
use crate::window_periodic::{Window1dPeriodic, Window2dPeriodic};
use crate::{allpairs::ca_all_pairs_forces, cutoff::validate_cutoff};

/// Which parallel decomposition evaluates forces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Algorithm 1 with replication factor `c` (id-block distribution).
    CaAllPairs {
        /// Replication factor.
        c: usize,
    },
    /// Plimpton's particle decomposition (ring pipeline).
    ParticleRing,
    /// Half-ring particle decomposition exploiting Newton's third law —
    /// the symmetry optimization the paper declines (§III.C); requires a
    /// symmetric force law.
    ParticleRingSymmetric,
    /// The allgather-based naive variant (`tree` bars of Fig. 2c/2d).
    NaiveAllgather,
    /// Plimpton's force decomposition (`p` must be a perfect square).
    ForceDecomposition,
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
    /// Halo-exchange spatial baseline on 1D slabs (cutoff law, `c = 1`).
    SpatialHalo1d,
    /// Halo-exchange spatial baseline on a 2D grid (cutoff law, `c = 1`).
    SpatialHalo2d,
    /// The midpoint method (§II.D neutral-territory family) on 1D slabs
    /// (cutoff law, `c = 1`, half-span import region).
    Midpoint1d,
    /// The midpoint method on a 2D grid.
    Midpoint2d,
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
        matches!(
            self,
            Method::Ca1dCutoff { .. }
                | Method::Ca2dCutoff { .. }
                | Method::SpatialHalo1d
                | Method::SpatialHalo2d
                | Method::Midpoint1d
                | Method::Midpoint2d
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
/// given method, returning the gathered final state and per-rank stats.
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
    validate_run(cfg, method);
    let out = run_ranks(p, |world| run_rank(cfg, method, world, initial));
    gather_results(out, initial.len())
}

/// [`run_distributed`] with per-rank wall-clock tracing enabled: every
/// communication phase window, blocked wait, and driver section
/// (`step` / `integrate` / `force` / `reassign`, per timestep) is recorded
/// against a shared epoch and returned merged across ranks, together with
/// the live metrics snapshot (per-rank communication counters, message-size
/// histograms, and memory high-water marks) for optimality auditing.
pub fn run_distributed_traced<F, I>(
    cfg: &SimConfig<F, I>,
    method: Method,
    p: usize,
    initial: &[Particle],
) -> (RunResult, ExecutionTrace, MetricsSnapshot)
where
    F: ForceLaw + Sync,
    I: Integrator + Sync,
{
    let (result, trace, metrics, _) = run_distributed_recorded(cfg, method, p, initial);
    (result, trace, metrics)
}

/// [`run_distributed_traced`] returning the per-step [`RunTimeline`] as
/// well: each rank samples its communication/compute deltas at every
/// timestep boundary (decimated 2:1 when the series ring fills), feeding
/// the live dashboard and the drift detector.
pub fn run_distributed_recorded<F, I>(
    cfg: &SimConfig<F, I>,
    method: Method,
    p: usize,
    initial: &[Particle],
) -> (RunResult, ExecutionTrace, MetricsSnapshot, RunTimeline)
where
    F: ForceLaw + Sync,
    I: Integrator + Sync,
{
    validate_run(cfg, method);
    let (out, trace, metrics, timeline) =
        run_ranks_traced(p, |world| run_rank(cfg, method, world, initial));
    (gather_results(out, initial.len()), trace, metrics, timeline)
}

/// [`run_distributed_recorded`] with wire probes on as well: every rank
/// records each point-to-point protocol message (send/recv, rank pair,
/// tag, phase, payload size, timestamp against the shared epoch) into a
/// bounded ring, returned merged as a [`WireLog`] for latency attribution
/// and schedule conformance checking.
pub fn run_distributed_wired<F, I>(
    cfg: &SimConfig<F, I>,
    method: Method,
    p: usize,
    initial: &[Particle],
) -> (RunResult, ExecutionTrace, MetricsSnapshot, RunTimeline, WireLog)
where
    F: ForceLaw + Sync,
    I: Integrator + Sync,
{
    validate_run(cfg, method);
    let (out, trace, metrics, timeline, wire) =
        run_ranks_probed_traced(p, |world| run_rank(cfg, method, world, initial));
    (
        gather_results(out, initial.len()),
        trace,
        metrics,
        timeline,
        wire,
    )
}

/// Result of a distributed run under fault injection.
#[derive(Debug, Clone)]
pub struct ChaosRunResult {
    /// Final particles, gathered from all owners and sorted by id.
    pub particles: Vec<Particle>,
    /// Per-world-rank communication statistics.
    pub stats: Vec<CommStats>,
    /// Live metrics snapshot (includes the `fault_*` and
    /// `recovery_bytes_total` counters).
    pub metrics: MetricsSnapshot,
    /// Per-rank wall-clock trace (chaos runs always trace, so recovery
    /// overhead shows up in `report` breakdowns).
    pub trace: ExecutionTrace,
    /// Worst per-evaluation attempt count across all ranks and timesteps
    /// (1 = no fault ever fired).
    pub max_attempts: usize,
    /// Whether any evaluation recovered from a detected fault.
    pub recovered: bool,
    /// Times the world shrank onto the survivors (degraded mode; 0 on a
    /// run that never lost a whole team column).
    pub shrinks: usize,
    /// Particles dropped with dead columns across all shrinks.
    pub lost_particles: usize,
    /// Ranks still computing when the run finished (`p` if never shrunk).
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
    /// Kill the process (exit 137, the SIGKILL code) right after the
    /// bundle for this global step hits the disk — the crash hook behind
    /// `run --crash-at-step`, exercising the resume path end to end.
    pub crash_at: Option<u64>,
}

/// Run a distributed simulation under a fault-injection [`FaultPlan`],
/// using the fault-tolerant force drivers (the CA methods only:
/// [`Method::CaAllPairs`], [`Method::Ca1dCutoff`], [`Method::Ca2dCutoff`]).
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
    run_distributed_chaos_recorded(cfg, method, p, plan, policy, initial).0
}

/// [`run_distributed_chaos`] returning the per-step [`RunTimeline`] as
/// well. The timeline is produced **even when the run fails**: on an
/// agreed [`FaultError`] it is a postmortem bundle
/// ([`RunTimeline::is_postmortem`]) carrying each rank's final flight-ring
/// events and the failure reason marked by the recovery layer.
pub fn run_distributed_chaos_recorded<F, I>(
    cfg: &SimConfig<F, I>,
    method: Method,
    p: usize,
    plan: &FaultPlan,
    policy: &RetryPolicy,
    initial: &[Particle],
) -> (Result<ChaosRunResult, FaultError>, RunTimeline)
where
    F: ForceLaw + Sync,
    I: Integrator + Sync,
{
    run_distributed_durable(cfg, method, p, plan, policy, None, initial)
}

/// [`run_distributed_chaos_recorded`] with a durable checkpoint sink: on
/// the configured cadence the leaders' blocks are gathered and persisted
/// as an atomic versioned bundle, so the run can be killed at any point
/// and resumed from the last completed checkpoint (`run --resume`). With
/// `ckpt = None` this *is* `run_distributed_chaos_recorded`.
pub fn run_distributed_durable<F, I>(
    cfg: &SimConfig<F, I>,
    method: Method,
    p: usize,
    plan: &FaultPlan,
    policy: &RetryPolicy,
    ckpt: Option<&CheckpointConfig>,
    initial: &[Particle],
) -> (Result<ChaosRunResult, FaultError>, RunTimeline)
where
    F: ForceLaw + Sync,
    I: Integrator + Sync,
{
    let (res, timeline) = run_chaos_inner(cfg, method, p, plan, policy, ckpt, None, initial);
    (res.map(|(r, _)| r), timeline)
}

/// [`run_distributed_chaos_recorded`] with the numerical-health monitors
/// on: every step the ranks' partial kinetic/momentum/potential sums are
/// reduced once world-wide into the timeline's energy/momentum series,
/// non-finite sentinels scan forces and integrated state (aborting into a
/// postmortem with the blamed rank/particle/field on first trigger), and
/// every recovery attempt cross-checks replica state fingerprints down
/// each column (a diverged replica is re-seeded from its column majority
/// and counted in [`HealthReport::fingerprint_mismatches`]).
///
/// CA methods only, like every chaos run. On success the returned
/// [`HealthReport`] is the globally agreed verdict (identical on every
/// rank up to floating-point reduction order).
pub fn run_distributed_health<F, I>(
    cfg: &SimConfig<F, I>,
    method: Method,
    p: usize,
    plan: &FaultPlan,
    policy: &RetryPolicy,
    health: &HealthConfig,
    initial: &[Particle],
) -> (Result<(ChaosRunResult, HealthReport), FaultError>, RunTimeline)
where
    F: ForceLaw + Sync,
    I: Integrator + Sync,
{
    let (res, timeline) =
        run_chaos_inner(cfg, method, p, plan, policy, None, Some(health), initial);
    (
        res.map(|(r, h)| (r, h.expect("health runs always produce a report"))),
        timeline,
    )
}

#[allow(clippy::too_many_arguments)]
fn run_chaos_inner<F, I>(
    cfg: &SimConfig<F, I>,
    method: Method,
    p: usize,
    plan: &FaultPlan,
    policy: &RetryPolicy,
    ckpt: Option<&CheckpointConfig>,
    health: Option<&HealthConfig>,
    initial: &[Particle],
) -> (
    Result<(ChaosRunResult, Option<HealthReport>), FaultError>,
    RunTimeline,
)
where
    F: ForceLaw + Sync,
    I: Integrator + Sync,
{
    validate_run(cfg, method);
    let (out, trace, metrics, timeline) = run_ranks_chaos_traced(p, plan, |world| {
        run_rank_ft(cfg, method, world, initial, policy, ckpt, health)
    });
    (assemble_chaos(out, initial.len(), metrics, trace), timeline)
}

/// [`run_distributed_chaos_recorded`] with wire probes on: the returned
/// [`WireLog`] carries every protocol message *and* every injected fault
/// as first-class events, so a conformance check can attribute each
/// discrepancy between observed and scheduled traffic to the fault plan.
/// Like the timeline, the log is produced even when the run fails.
pub fn run_distributed_chaos_wired<F, I>(
    cfg: &SimConfig<F, I>,
    method: Method,
    p: usize,
    plan: &FaultPlan,
    policy: &RetryPolicy,
    initial: &[Particle],
) -> (Result<ChaosRunResult, FaultError>, RunTimeline, WireLog)
where
    F: ForceLaw + Sync,
    I: Integrator + Sync,
{
    validate_run(cfg, method);
    let (out, trace, metrics, timeline, wire) = run_ranks_chaos_probed(p, plan, |world| {
        run_rank_ft(cfg, method, world, initial, policy, None, None)
    });
    (
        assemble_chaos(out, initial.len(), metrics, trace).map(|(r, _)| r),
        timeline,
        wire,
    )
}

/// Merge the per-rank outcomes of a fault-tolerant run into one
/// [`ChaosRunResult`], accounting for blocks dropped by agreed shrinks:
/// the gathered survivors plus the lost particles must tile the initial
/// set exactly (sorted, unique ids), anything else is a protocol bug.
type RankOutcome =
    Result<(Vec<Particle>, CommStats, RecoveryReport, Option<HealthReport>), FaultError>;

fn assemble_chaos(
    out: Vec<RankOutcome>,
    n: usize,
    metrics: MetricsSnapshot,
    trace: ExecutionTrace,
) -> Result<(ChaosRunResult, Option<HealthReport>), FaultError> {
    let p = out.len();
    let mut particles = Vec::with_capacity(n);
    let mut stats = Vec::with_capacity(p);
    let mut max_attempts = 1;
    let mut recovered = false;
    let mut shrinks = 0;
    let mut lost_particles = 0;
    let mut final_ranks = p;
    let mut health: Option<HealthReport> = None;
    for r in out {
        let (mut ps, st, rep, hr) = r?;
        particles.append(&mut ps);
        stats.push(st);
        max_attempts = max_attempts.max(rep.attempts);
        recovered |= rep.recovered;
        // Survivors carry the cumulative loss; ranks that left early hold
        // a prefix of it, so the max is the total.
        shrinks = shrinks.max(rep.shrinks);
        lost_particles = lost_particles.max(rep.lost_particles);
        if rep.survivor_ranks > 0 {
            final_ranks = final_ranks.min(rep.survivor_ranks);
        }
        if let Some(hr) = hr {
            // The reduced invariants are agreed on every surviving rank; a
            // rank that left the world early (shrink) holds a prefix. Keep
            // the longest view and fold the counters with max so nobody's
            // tally is truncated.
            let merged = health.get_or_insert(hr);
            if hr.steps_checked > merged.steps_checked {
                let kept = *merged;
                *merged = hr;
                merged.sentinel_events = merged.sentinel_events.max(kept.sentinel_events);
                merged.fingerprint_mismatches =
                    merged.fingerprint_mismatches.max(kept.fingerprint_mismatches);
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
    particles.sort_by_key(|q| q.id);
    assert_eq!(
        particles.len() + lost_particles,
        n,
        "particles lost or duplicated in chaos run beyond the agreed shrinks"
    );
    assert!(
        particles.windows(2).all(|w| w[0].id < w[1].id),
        "duplicate particle ids in chaos run"
    );
    Ok((
        ChaosRunResult {
            particles,
            stats,
            metrics,
            trace,
            max_attempts,
            recovered,
            shrinks,
            lost_particles,
            final_ranks,
        },
        health,
    ))
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
    let my_team = grid.team_of(cur.rank());
    let survivor = !dead_teams.contains(&my_team);
    let tl = cur.timeline();
    cur.set_phase(Phase::Recovery);
    // The split is collective and includes the ranks about to leave;
    // keying on the old rank keeps the survivors' relative order.
    let next = cur.split(usize::from(survivor), cur.rank());
    agg.shrinks += 1;
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
    let contrib = if was_leader { st.to_vec() } else { Vec::new() };
    let mut full: Vec<Particle> = match next.gather(0, &contrib) {
        Some(parts) => {
            let mut all: Vec<Particle> = parts.into_iter().flatten().collect();
            all.sort_by_key(|q| q.id);
            all
        }
        None => Vec::new(),
    };
    next.bcast(0, &mut full);
    let lost = *live_n - full.len();
    *live_n = full.len();
    agg.lost_particles += lost;
    agg.survivor_ranks = next.size();
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
/// Collective over `cur`. When the crash hook matches, rank 0 exits the
/// process with the SIGKILL code right after the bundle is durable.
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
            rec_failed_checkpoint(cur);
        }
    }
    if ck.crash_at == Some(global_step) {
        std::process::exit(137);
    }
}

fn rec_failed_checkpoint<C: Communicator>(cur: &C) {
    cur.metrics().counter("checkpoint_failed_total", None).inc();
}

/// Post-reduction sentinel pass: apply the seeded NaN injection (fire
/// once, on the target rank/step) and scan the freshly reduced force
/// accumulators on leaders. Returns the local blame `(rank, detail)`.
fn health_scan_forces<C: Communicator>(
    world: &C,
    hcfg: &HealthConfig,
    nan_fired: &mut bool,
    is_leader: bool,
    st: &mut [Particle],
    step: usize,
) -> Option<(usize, String)> {
    let rank = world.rank();
    if let Some((r, s)) = hcfg.injection.nan {
        if r == rank && s == step as u64 && !*nan_fired {
            *nan_fired = true;
            if let Some(q) = st.first_mut() {
                q.force.x = f64::NAN;
            }
        }
    }
    if !is_leader {
        return None;
    }
    scan_forces(st).map(|b| (rank, b.detail(rank, step as u64, "force")))
}

/// Post-integration sentinel pass over positions/velocities/masses.
fn health_scan_state<C: Communicator>(
    world: &C,
    is_leader: bool,
    st: &[Particle],
    step: usize,
) -> Option<(usize, String)> {
    if !is_leader {
        return None;
    }
    let rank = world.rank();
    scan_state(st).map(|b| (rank, b.detail(rank, step as u64, "integrate")))
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

/// Per-rank body of a chaos run: the CA drivers with fault-tolerant force
/// evaluations (`epoch` = timestep index for tag namespacing), degraded
/// shrinking when whole columns die, and the optional durable checkpoint
/// sink on its cadence.
fn run_rank_ft<F, I, C>(
    cfg: &SimConfig<F, I>,
    method: Method,
    world: &mut C,
    initial: &[Particle],
    policy: &RetryPolicy,
    ckpt: Option<&CheckpointConfig>,
    health: Option<&HealthConfig>,
) -> Result<(Vec<Particle>, CommStats, RecoveryReport, Option<HealthReport>), FaultError>
where
    F: ForceLaw,
    I: Integrator,
    C: Communicator,
{
    let p = world.size();
    let domain = &cfg.domain;
    let tr = world.tracer();
    let mut probe = StepProbe::new(world);
    let mut agg = RecoveryReport {
        attempts: 1,
        ..RecoveryReport::default()
    };
    // Per-rank numerical-health state. The monitor's injection identities
    // key off the *launch* world rank, which every rank keeps across
    // shrinks, so a seeded fault lands on the intended rank regardless of
    // how the grid has contracted by then.
    let hm = health.map(|h| HealthMonitor::new(h.fingerprint, h.injection.corrupt));
    let mut nan_fired = false;
    let mut hreport = HealthReport::default();
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
    // Particles still alive across shrinks (the loss accounting base).
    let mut live_n = initial.len();
    // After a shrink the run continues on an owned survivor world; the
    // borrowed launch world stays behind only for rank-local telemetry
    // (stats and recorders are shared across splits).
    let mut shrunk: Option<C> = None;
    match method {
        Method::CaAllPairs { c } => {
            let mut grid = ProcGrid::new_all_pairs(p, c).expect("invalid all-pairs grid");
            let mut gc = GridComms::new(world, grid);
            let mut st = if gc.is_leader() {
                id_block_subset(initial, grid.teams(), gc.team())
            } else {
                Vec::new()
            };
            for step in 0..cfg.steps {
                let _step_g = tr.driver_span("step", step);
                if gc.is_leader() {
                    let _g = tr.driver_span("integrate", step);
                    cfg.integrator.pre_force(&mut st, cfg.dt);
                    reset_forces(&mut st);
                }
                // A ColumnsLost verdict shrinks the world onto the
                // survivors and re-runs this step's evaluation there.
                let (rep, pe_partial) = loop {
                    let r = {
                        let _g = tr.driver_span("force", step);
                        ca_all_pairs_forces_ft_health(
                            &gc,
                            &mut st,
                            &cfg.law,
                            domain,
                            cfg.boundary,
                            policy,
                            step as u64,
                            hm.as_ref(),
                        )
                    };
                    match r {
                        Ok(rep) => break rep,
                        Err(FaultError::ColumnsLost { dead_teams, .. }) => {
                            let was_leader = gc.is_leader();
                            let cur: &C = shrunk.as_ref().unwrap_or(world);
                            match shrink_world(
                                cur, &grid, &dead_teams, was_leader, &st, &mut live_n, &mut agg,
                                step,
                            ) {
                                None => {
                                    return Ok((
                                        Vec::new(),
                                        world.stats(),
                                        agg,
                                        health.map(|_| hreport),
                                    ))
                                }
                                Some((next, full)) => {
                                    let p_new = next.size();
                                    // The largest replication the survivor
                                    // count still supports (c' = 1 always
                                    // qualifies: every rank its own team).
                                    let c_new = (1..=grid.c())
                                        .rev()
                                        .find(|&cc| ProcGrid::new_all_pairs(p_new, cc).is_ok())
                                        .expect("c = 1 is always a valid all-pairs grid");
                                    grid = ProcGrid::new_all_pairs(p_new, c_new).unwrap();
                                    gc = GridComms::new(&next, grid);
                                    shrunk = Some(next);
                                    st = if gc.is_leader() {
                                        id_block_subset(&full, grid.teams(), gc.team())
                                    } else {
                                        Vec::new()
                                    };
                                }
                            }
                        }
                        Err(e) => return Err(e),
                    }
                };
                agg.attempts = agg.attempts.max(rep.attempts);
                agg.recovered |= rep.recovered;
                hreport.fingerprint_mismatches += rep.fingerprint_mismatches as u64;
                let checked = health.is_some_and(|h| h.checks_step(step as u64));
                let mut blame = None;
                if let Some(h) = health {
                    if checked {
                        blame = health_scan_forces(
                            world,
                            h,
                            &mut nan_fired,
                            gc.is_leader(),
                            &mut st,
                            step,
                        );
                    }
                }
                if gc.is_leader() {
                    let _g = tr.driver_span("integrate", step);
                    cfg.integrator
                        .post_force(&mut st, cfg.dt, domain, cfg.boundary);
                } else {
                    st.clear();
                }
                let mut sampled = (0.0, 0.0);
                if checked {
                    if blame.is_none() {
                        blame = health_scan_state(world, gc.is_leader(), &st, step);
                    }
                    let inv = if gc.is_leader() {
                        Invariants::partial(&st)
                    } else {
                        Invariants::default()
                    };
                    let cur: &C = shrunk.as_ref().unwrap_or(world);
                    sampled = health_reduce(cur, blame, inv, pe_partial, step, &mut hreport)?;
                }
                if let Some(ck) = ckpt {
                    let done = ck.base_step + step as u64 + 1;
                    if done.is_multiple_of(ck.every as u64) || ck.crash_at == Some(done) {
                        let cur: &C = shrunk.as_ref().unwrap_or(world);
                        persist_checkpoint(cur, &grid, gc.is_leader(), &st, ck, done);
                    }
                }
                probe.sample_with(world, step, st.len(), sampled.0, sampled.1);
            }
            let owned = if gc.is_leader() { st } else { Vec::new() };
            Ok((owned, world.stats(), agg, health.map(|_| hreport)))
        }
        Method::Ca1dCutoff { c } | Method::Ca2dCutoff { c } => {
            let two_d = matches!(method, Method::Ca2dCutoff { .. });
            let mut grid = ProcGrid::new(p, c).expect("invalid cutoff grid");
            let mut gc = GridComms::new(world, grid);
            let mut teams = grid.teams();
            let r_c = cfg.law.cutoff().unwrap();
            let (mut tx, mut ty) = if two_d {
                team_grid_dims(teams)
            } else {
                (teams, 1)
            };
            let mut st = if gc.is_leader() {
                if two_d {
                    spatial_subset_2d(initial, domain, tx, ty, gc.team())
                } else {
                    spatial_subset_1d(initial, domain, teams, gc.team())
                }
            } else {
                Vec::new()
            };
            let periodic = cfg.boundary == Boundary::Periodic;
            // Whether a shrunken grid with replication `cc` on `p_new`
            // ranks still satisfies the cutoff constraint (c ≤ window).
            let valid_c = |p_new: usize, cc: usize| -> bool {
                if !p_new.is_multiple_of(cc) || ProcGrid::new(p_new, cc).is_err() {
                    return false;
                }
                let tn = p_new / cc;
                let (txn, tyn) = if two_d { team_grid_dims(tn) } else { (tn, 1) };
                match (two_d, periodic) {
                    (true, false) => {
                        validate_cutoff(&Window2d::from_cutoff(domain, txn, tyn, r_c), tn, cc)
                            .is_ok()
                    }
                    (true, true) => validate_cutoff(
                        &Window2dPeriodic::from_cutoff(domain, txn, tyn, r_c),
                        tn,
                        cc,
                    )
                    .is_ok(),
                    (false, false) => {
                        validate_cutoff(&Window1d::from_cutoff(domain, tn, r_c), tn, cc).is_ok()
                    }
                    (false, true) => {
                        validate_cutoff(&Window1dPeriodic::from_cutoff(domain, tn, r_c), tn, cc)
                            .is_ok()
                    }
                }
            };
            for step in 0..cfg.steps {
                let _step_g = tr.driver_span("step", step);
                if gc.is_leader() {
                    let _g = tr.driver_span("integrate", step);
                    cfg.integrator.pre_force(&mut st, cfg.dt);
                    reset_forces(&mut st);
                }
                let (rep, pe_partial) = loop {
                    let r = {
                        let _g = tr.driver_span("force", step);
                        match (two_d, periodic) {
                            (true, false) => {
                                let window = Window2d::from_cutoff(domain, tx, ty, r_c);
                                ca_cutoff_forces_ft_health(
                                    &gc, &window, &mut st, &cfg.law, domain, cfg.boundary, policy,
                                    step as u64, hm.as_ref(),
                                )
                            }
                            (true, true) => {
                                let window = Window2dPeriodic::from_cutoff(domain, tx, ty, r_c);
                                ca_cutoff_forces_ft_health(
                                    &gc, &window, &mut st, &cfg.law, domain, cfg.boundary, policy,
                                    step as u64, hm.as_ref(),
                                )
                            }
                            (false, false) => {
                                let window = Window1d::from_cutoff(domain, teams, r_c);
                                ca_cutoff_forces_ft_health(
                                    &gc, &window, &mut st, &cfg.law, domain, cfg.boundary, policy,
                                    step as u64, hm.as_ref(),
                                )
                            }
                            (false, true) => {
                                let window = Window1dPeriodic::from_cutoff(domain, teams, r_c);
                                ca_cutoff_forces_ft_health(
                                    &gc, &window, &mut st, &cfg.law, domain, cfg.boundary, policy,
                                    step as u64, hm.as_ref(),
                                )
                            }
                        }
                    };
                    match r {
                        Ok(rep) => break rep,
                        Err(FaultError::ColumnsLost { dead_teams, .. }) => {
                            let was_leader = gc.is_leader();
                            let cur: &C = shrunk.as_ref().unwrap_or(world);
                            match shrink_world(
                                cur, &grid, &dead_teams, was_leader, &st, &mut live_n, &mut agg,
                                step,
                            ) {
                                None => {
                                    return Ok((
                                        Vec::new(),
                                        world.stats(),
                                        agg,
                                        health.map(|_| hreport),
                                    ))
                                }
                                Some((next, full)) => {
                                    let p_new = next.size();
                                    let Some(c_new) =
                                        (1..=grid.c()).rev().find(|&cc| valid_c(p_new, cc))
                                    else {
                                        // No shrunken grid satisfies the
                                        // cutoff constraint: agreed, since
                                        // every survivor evaluates the same
                                        // deterministic predicate.
                                        return Err(FaultError::Unrecoverable {
                                            rank: world.rank(),
                                            c: grid.c(),
                                        });
                                    };
                                    grid = ProcGrid::new(p_new, c_new).unwrap();
                                    gc = GridComms::new(&next, grid);
                                    shrunk = Some(next);
                                    teams = grid.teams();
                                    (tx, ty) = if two_d {
                                        team_grid_dims(teams)
                                    } else {
                                        (teams, 1)
                                    };
                                    st = if gc.is_leader() {
                                        if two_d {
                                            spatial_subset_2d(&full, domain, tx, ty, gc.team())
                                        } else {
                                            spatial_subset_1d(&full, domain, teams, gc.team())
                                        }
                                    } else {
                                        Vec::new()
                                    };
                                }
                            }
                        }
                        Err(e) => return Err(e),
                    }
                };
                agg.attempts = agg.attempts.max(rep.attempts);
                agg.recovered |= rep.recovered;
                hreport.fingerprint_mismatches += rep.fingerprint_mismatches as u64;
                let checked = health.is_some_and(|h| h.checks_step(step as u64));
                let mut blame = None;
                if let Some(h) = health {
                    if checked {
                        blame = health_scan_forces(
                            world,
                            h,
                            &mut nan_fired,
                            gc.is_leader(),
                            &mut st,
                            step,
                        );
                    }
                }
                if gc.is_leader() {
                    {
                        let _g = tr.driver_span("integrate", step);
                        cfg.integrator
                            .post_force(&mut st, cfg.dt, domain, cfg.boundary);
                    }
                    let _g = tr.driver_span("reassign", step);
                    if two_d {
                        reassign_particles(&gc.row, &mut st, |q| {
                            team_of_xy(domain, tx, ty, q.pos.x, q.pos.y)
                        });
                    } else {
                        reassign_particles(&gc.row, &mut st, |q| {
                            team_of_x(domain, teams, q.pos.x)
                        });
                    }
                } else {
                    st.clear();
                }
                let mut sampled = (0.0, 0.0);
                if checked {
                    if blame.is_none() {
                        blame = health_scan_state(world, gc.is_leader(), &st, step);
                    }
                    let inv = if gc.is_leader() {
                        Invariants::partial(&st)
                    } else {
                        Invariants::default()
                    };
                    let cur: &C = shrunk.as_ref().unwrap_or(world);
                    sampled = health_reduce(cur, blame, inv, pe_partial, step, &mut hreport)?;
                }
                if let Some(ck) = ckpt {
                    let done = ck.base_step + step as u64 + 1;
                    if done.is_multiple_of(ck.every as u64) || ck.crash_at == Some(done) {
                        let cur: &C = shrunk.as_ref().unwrap_or(world);
                        persist_checkpoint(cur, &grid, gc.is_leader(), &st, ck, done);
                    }
                }
                probe.sample_with(world, step, st.len(), sampled.0, sampled.1);
            }
            world.set_phase(Phase::Other);
            let owned = if gc.is_leader() { st } else { Vec::new() };
            Ok((owned, world.stats(), agg, health.map(|_| hreport)))
        }
        _ => panic!(
            "{method:?} has no fault-tolerant driver; chaos runs support the CA methods \
             (ca-all-pairs, ca-1d-cutoff, ca-2d-cutoff)"
        ),
    }
}

fn validate_run<F: ForceLaw, I>(cfg: &SimConfig<F, I>, method: Method) {
    if method.needs_cutoff() {
        assert!(
            cfg.law.cutoff().is_some(),
            "{method:?} requires a force law with a cutoff radius"
        );
    }
}

fn gather_results(out: Vec<(Vec<Particle>, CommStats)>, n: usize) -> RunResult {
    let mut particles = Vec::with_capacity(n);
    let mut stats = Vec::with_capacity(out.len());
    for (mut ps, st) in out {
        particles.append(&mut ps);
        stats.push(st);
    }
    particles.sort_by_key(|q| q.id);
    assert_eq!(
        particles.len(),
        n,
        "particles lost or duplicated in distributed run"
    );
    RunResult { particles, stats }
}

/// Per-rank body of a distributed run.
fn run_rank<F, I, C>(
    cfg: &SimConfig<F, I>,
    method: Method,
    world: &mut C,
    initial: &[Particle],
) -> (Vec<Particle>, CommStats)
where
    F: ForceLaw,
    I: Integrator,
    C: Communicator,
{
    let p = world.size();
    let domain = &cfg.domain;
    let tr = world.tracer();
    let mut probe = StepProbe::new(world);
    match method {
        Method::CaAllPairs { c } => {
            let grid = ProcGrid::new_all_pairs(p, c).expect("invalid all-pairs grid");
            let gc = GridComms::new(world, grid);
            let mut st = if gc.is_leader() {
                id_block_subset(initial, grid.teams(), gc.team())
            } else {
                Vec::new()
            };
            for step in 0..cfg.steps {
                let _step_g = tr.driver_span("step", step);
                if gc.is_leader() {
                    let _g = tr.driver_span("integrate", step);
                    cfg.integrator.pre_force(&mut st, cfg.dt);
                    reset_forces(&mut st);
                }
                {
                    let _g = tr.driver_span("force", step);
                    ca_all_pairs_forces(&gc, &mut st, &cfg.law, domain, cfg.boundary);
                }
                if gc.is_leader() {
                    let _g = tr.driver_span("integrate", step);
                    cfg.integrator
                        .post_force(&mut st, cfg.dt, domain, cfg.boundary);
                } else {
                    st.clear();
                }
                probe.sample(world, step, st.len());
            }
            let owned = if gc.is_leader() { st } else { Vec::new() };
            (owned, world.stats())
        }
        Method::ParticleRing | Method::ParticleRingSymmetric | Method::NaiveAllgather => {
            let mut my = id_block_subset(initial, p, world.rank());
            for step in 0..cfg.steps {
                let _step_g = tr.driver_span("step", step);
                {
                    let _g = tr.driver_span("integrate", step);
                    cfg.integrator.pre_force(&mut my, cfg.dt);
                    reset_forces(&mut my);
                }
                {
                    let _g = tr.driver_span("force", step);
                    match method {
                        Method::ParticleRing => {
                            particle_ring_forces(world, &mut my, &cfg.law, domain, cfg.boundary)
                        }
                        Method::ParticleRingSymmetric => {
                            crate::baselines::particle_ring_symmetric_forces(
                                world, &mut my, &cfg.law, domain, cfg.boundary,
                            )
                        }
                        _ => {
                            naive_allgather_forces(world, &mut my, &cfg.law, domain, cfg.boundary)
                        }
                    }
                }
                let _g = tr.driver_span("integrate", step);
                cfg.integrator
                    .post_force(&mut my, cfg.dt, domain, cfg.boundary);
                probe.sample(world, step, my.len());
            }
            (my, world.stats())
        }
        Method::ForceDecomposition => {
            let q = (p as f64).sqrt().round() as usize;
            assert_eq!(q * q, p, "force decomposition needs square p");
            let (i, j) = (world.rank() / q, world.rank() % q);
            let mut st = if i == j {
                id_block_subset(initial, q, i)
            } else {
                Vec::new()
            };
            for step in 0..cfg.steps {
                let _step_g = tr.driver_span("step", step);
                if i == j {
                    let _g = tr.driver_span("integrate", step);
                    cfg.integrator.pre_force(&mut st, cfg.dt);
                    reset_forces(&mut st);
                }
                {
                    let _g = tr.driver_span("force", step);
                    force_decomposition_forces(world, &mut st, &cfg.law, domain, cfg.boundary);
                }
                if i == j {
                    let _g = tr.driver_span("integrate", step);
                    cfg.integrator
                        .post_force(&mut st, cfg.dt, domain, cfg.boundary);
                }
                probe.sample(world, step, st.len());
            }
            (st, world.stats())
        }
        Method::Ca1dCutoff { c } | Method::Ca2dCutoff { c } => {
            let two_d = matches!(method, Method::Ca2dCutoff { .. });
            let grid = ProcGrid::new(p, c).expect("invalid cutoff grid");
            let gc = GridComms::new(world, grid);
            let teams = grid.teams();
            let r_c = cfg.law.cutoff().unwrap();
            let (tx, ty) = if two_d {
                team_grid_dims(teams)
            } else {
                (teams, 1)
            };
            let mut st = if gc.is_leader() {
                if two_d {
                    spatial_subset_2d(initial, domain, tx, ty, gc.team())
                } else {
                    spatial_subset_1d(initial, domain, teams, gc.team())
                }
            } else {
                Vec::new()
            };
            let periodic = cfg.boundary == Boundary::Periodic;
            for step in 0..cfg.steps {
                let _step_g = tr.driver_span("step", step);
                if gc.is_leader() {
                    let _g = tr.driver_span("integrate", step);
                    cfg.integrator.pre_force(&mut st, cfg.dt);
                    reset_forces(&mut st);
                }
                // Periodic boundaries take the wrap-around windows; the
                // paper's non-periodic setting takes the clipped ones.
                {
                    let _g = tr.driver_span("force", step);
                    match (two_d, periodic) {
                        (true, false) => {
                            let window = Window2d::from_cutoff(domain, tx, ty, r_c);
                            validate_cutoff(&window, teams, c).expect("invalid 2D cutoff config");
                            ca_cutoff_forces(&gc, &window, &mut st, &cfg.law, domain, cfg.boundary);
                        }
                        (true, true) => {
                            let window = Window2dPeriodic::from_cutoff(domain, tx, ty, r_c);
                            validate_cutoff(&window, teams, c).expect("invalid 2D cutoff config");
                            ca_cutoff_forces(&gc, &window, &mut st, &cfg.law, domain, cfg.boundary);
                        }
                        (false, false) => {
                            let window = Window1d::from_cutoff(domain, teams, r_c);
                            validate_cutoff(&window, teams, c).expect("invalid 1D cutoff config");
                            ca_cutoff_forces(&gc, &window, &mut st, &cfg.law, domain, cfg.boundary);
                        }
                        (false, true) => {
                            let window = Window1dPeriodic::from_cutoff(domain, teams, r_c);
                            validate_cutoff(&window, teams, c).expect("invalid 1D cutoff config");
                            ca_cutoff_forces(&gc, &window, &mut st, &cfg.law, domain, cfg.boundary);
                        }
                    }
                }
                if gc.is_leader() {
                    {
                        let _g = tr.driver_span("integrate", step);
                        cfg.integrator
                            .post_force(&mut st, cfg.dt, domain, cfg.boundary);
                    }
                    // Keep the spatial decomposition valid for the next step.
                    let _g = tr.driver_span("reassign", step);
                    if two_d {
                        reassign_particles(&gc.row, &mut st, |q| {
                            team_of_xy(domain, tx, ty, q.pos.x, q.pos.y)
                        });
                    } else {
                        reassign_particles(&gc.row, &mut st, |q| {
                            team_of_x(domain, teams, q.pos.x)
                        });
                    }
                } else {
                    st.clear();
                }
                probe.sample(world, step, st.len());
            }
            world.set_phase(Phase::Other);
            let owned = if gc.is_leader() { st } else { Vec::new() };
            (owned, world.stats())
        }
        Method::Midpoint1d | Method::Midpoint2d => {
            let two_d = matches!(method, Method::Midpoint2d);
            let r_c = cfg.law.cutoff().unwrap();
            let (tx, ty) = if two_d { team_grid_dims(p) } else { (p, 1) };
            let mut my = if two_d {
                spatial_subset_2d(initial, domain, tx, ty, world.rank())
            } else {
                spatial_subset_1d(initial, domain, p, world.rank())
            };
            let periodic = cfg.boundary == Boundary::Periodic;
            for step in 0..cfg.steps {
                let _step_g = tr.driver_span("step", step);
                {
                    let _g = tr.driver_span("integrate", step);
                    cfg.integrator.pre_force(&mut my, cfg.dt);
                    reset_forces(&mut my);
                }
                {
                    let _g = tr.driver_span("force", step);
                    match (two_d, periodic) {
                        (true, false) => {
                            let window = Window2d::from_cutoff(domain, tx, ty, r_c / 2.0);
                            midpoint_forces(world, &window, &mut my, &cfg.law, domain, cfg.boundary,
                                |pos| team_of_xy(domain, tx, ty, pos.x, pos.y));
                        }
                        (true, true) => {
                            let window = Window2dPeriodic::from_cutoff(domain, tx, ty, r_c / 2.0);
                            midpoint_forces(world, &window, &mut my, &cfg.law, domain, cfg.boundary,
                                |pos| team_of_xy(domain, tx, ty, pos.x, pos.y));
                        }
                        (false, false) => {
                            let window = Window1d::from_cutoff(domain, p, r_c / 2.0);
                            midpoint_forces(world, &window, &mut my, &cfg.law, domain, cfg.boundary,
                                |pos| team_of_x(domain, p, pos.x));
                        }
                        (false, true) => {
                            let window = Window1dPeriodic::from_cutoff(domain, p, r_c / 2.0);
                            midpoint_forces(world, &window, &mut my, &cfg.law, domain, cfg.boundary,
                                |pos| team_of_x(domain, p, pos.x));
                        }
                    }
                }
                {
                    let _g = tr.driver_span("integrate", step);
                    cfg.integrator
                        .post_force(&mut my, cfg.dt, domain, cfg.boundary);
                }
                let _g = tr.driver_span("reassign", step);
                if two_d {
                    reassign_particles(world, &mut my, |q| {
                        team_of_xy(domain, tx, ty, q.pos.x, q.pos.y)
                    });
                } else {
                    reassign_particles(world, &mut my, |q| team_of_x(domain, p, q.pos.x));
                }
                probe.sample(world, step, my.len());
            }
            (my, world.stats())
        }
        Method::SpatialHalo1d | Method::SpatialHalo2d => {
            let two_d = matches!(method, Method::SpatialHalo2d);
            let r_c = cfg.law.cutoff().unwrap();
            let (tx, ty) = if two_d { team_grid_dims(p) } else { (p, 1) };
            let mut my = if two_d {
                spatial_subset_2d(initial, domain, tx, ty, world.rank())
            } else {
                spatial_subset_1d(initial, domain, p, world.rank())
            };
            let periodic = cfg.boundary == Boundary::Periodic;
            for step in 0..cfg.steps {
                let _step_g = tr.driver_span("step", step);
                {
                    let _g = tr.driver_span("integrate", step);
                    cfg.integrator.pre_force(&mut my, cfg.dt);
                    reset_forces(&mut my);
                }
                {
                    let _g = tr.driver_span("force", step);
                    match (two_d, periodic) {
                        (true, false) => {
                            let window = Window2d::from_cutoff(domain, tx, ty, r_c);
                            spatial_halo_forces(
                                world, &window, &mut my, &cfg.law, domain, cfg.boundary,
                            );
                        }
                        (true, true) => {
                            let window = Window2dPeriodic::from_cutoff(domain, tx, ty, r_c);
                            spatial_halo_forces(
                                world, &window, &mut my, &cfg.law, domain, cfg.boundary,
                            );
                        }
                        (false, false) => {
                            let window = Window1d::from_cutoff(domain, p, r_c);
                            spatial_halo_forces(
                                world, &window, &mut my, &cfg.law, domain, cfg.boundary,
                            );
                        }
                        (false, true) => {
                            let window = Window1dPeriodic::from_cutoff(domain, p, r_c);
                            spatial_halo_forces(
                                world, &window, &mut my, &cfg.law, domain, cfg.boundary,
                            );
                        }
                    }
                }
                {
                    let _g = tr.driver_span("integrate", step);
                    cfg.integrator
                        .post_force(&mut my, cfg.dt, domain, cfg.boundary);
                }
                let _g = tr.driver_span("reassign", step);
                if two_d {
                    reassign_particles(world, &mut my, |q| {
                        team_of_xy(domain, tx, ty, q.pos.x, q.pos.y)
                    });
                } else {
                    reassign_particles(world, &mut my, |q| team_of_x(domain, p, q.pos.x));
                }
                probe.sample(world, step, my.len());
            }
            (my, world.stats())
        }
    }
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
            (Method::ParticleRing, 6),
            (Method::NaiveAllgather, 4),
            (Method::ForceDecomposition, 9),
        ] {
            let got = run_distributed(&cfg, method, p, &initial);
            assert_trajectories_match(
                &got.particles,
                &want,
                1e-9,
                &format!("{method:?} p={p}"),
            );
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
            (Method::SpatialHalo1d, 4),
            (Method::SpatialHalo2d, 4),
        ] {
            let got = run_distributed(&cfg, method, p, &initial);
            assert_trajectories_match(
                &got.particles,
                &want,
                1e-9,
                &format!("{method:?} p={p}"),
            );
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
    fn stats_capture_reassign_phase() {
        let law = Cutoff::new(RepulsiveInverseSquare::default(), 0.3);
        let cfg = SimConfig {
            law,
            integrator: SemiImplicitEuler,
            domain: Domain::unit(),
            boundary: Boundary::Reflective,
            dt: 0.01,
            steps: 2,
        };
        let initial = init::uniform(24, &cfg.domain, 3);
        let got = run_distributed(&cfg, Method::Ca1dCutoff { c: 2 }, 8, &initial);
        let leaders_with_reassign = got
            .stats
            .iter()
            .filter(|s| s.phase(Phase::Reassign).messages > 0)
            .count();
        assert_eq!(leaders_with_reassign, 4, "only the 4 leaders re-assign");
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
        // Big enough that thread-spawn slack (ranks open their timelines
        // slightly after the shared epoch) is well under the 10% margin.
        let initial = init::uniform(600, &cfg.domain, 13);
        let plain = run_distributed(&cfg, Method::Ca1dCutoff { c: 2 }, 8, &initial);
        let (traced, trace, metrics) =
            run_distributed_traced(&cfg, Method::Ca1dCutoff { c: 2 }, 8, &initial);
        assert_eq!(plain.particles, traced.particles, "tracing must not perturb physics");

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
        for want in [Phase::Shift, Phase::Reduce, Phase::Broadcast, Phase::Reassign] {
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
            crash_at: None,
        };
        let (res, _) = run_distributed_durable(
            &cfg,
            Method::CaAllPairs { c: 2 },
            4,
            &FaultPlan::empty(),
            &RetryPolicy::default(),
            Some(&ck),
            &initial,
        );
        let full = res.expect("fault-free durable run");
        // Persisting must not perturb the physics.
        let plain = run_distributed(&cfg, Method::CaAllPairs { c: 2 }, 4, &initial);
        assert_eq!(full.particles, plain.particles);
        assert_eq!(
            full.metrics.sum_counter("checkpoint_persisted_total", None),
            3,
            "cadence 2 over 6 steps lands bundles at steps 2, 4, 6"
        );
        let latest = nbody_durable::load_latest(&dir).unwrap();
        assert_eq!(latest.step, 6);
        // Resume from the mid-run bundle: restoring its bit-exact state
        // and running the remaining steps reproduces the full trajectory.
        let bundle =
            nbody_durable::load_path(&nbody_durable::checkpoint_path(&dir, 4)).unwrap();
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
        let cfg = all_pairs_cfg(4);
        let initial = init::uniform(24, &cfg.domain, 42);
        let (_, trace, _) = run_distributed_traced(&cfg, Method::CaAllPairs { c: 2 }, 8, &initial);
        let reports = trace.step_reports();
        assert_eq!(reports.len(), 4, "one report per timestep");
        for (i, r) in reports.iter().enumerate() {
            assert_eq!(r.step as usize, i);
            let names: Vec<&str> = r.parts.iter().map(|(n, _)| n.as_str()).collect();
            assert!(names.contains(&"step"), "{names:?}");
            assert!(names.contains(&"force"), "{names:?}");
            assert!(names.contains(&"integrate"), "{names:?}");
            // The step section dominates its parts on every rank.
            let step_max = r.parts.iter().find(|(n, _)| n == "step").unwrap().1.max;
            let force_max = r.parts.iter().find(|(n, _)| n == "force").unwrap().1.max;
            assert!(step_max >= force_max);
        }
    }
}

/// Run a distributed simulation while sampling intermediate states: the
/// trajectory is executed in chunks of `every` steps and the gathered
/// state after each chunk is recorded (including the final state).
///
/// Implemented as repeated [`run_distributed`] calls, so it adds no
/// protocol complexity; note that [`VelocityVerlet`] carries the previous
/// step's forces across steps, which resets at chunk boundaries — use a
/// single-phase integrator (e.g. [`SemiImplicitEuler`]) when exact
/// equivalence to an unsampled run matters.
///
/// [`VelocityVerlet`]: nbody_physics::VelocityVerlet
/// [`SemiImplicitEuler`]: nbody_physics::SemiImplicitEuler
pub fn run_distributed_sampled<F, I>(
    cfg: &SimConfig<F, I>,
    method: Method,
    p: usize,
    initial: &[Particle],
    every: usize,
) -> Vec<Vec<Particle>>
where
    F: ForceLaw + Sync + Clone,
    I: Integrator + Sync + Clone,
{
    assert!(every > 0, "sampling interval must be positive");
    let mut snapshots = Vec::new();
    let mut state: Vec<Particle> = initial.to_vec();
    let mut remaining = cfg.steps;
    while remaining > 0 {
        let chunk = remaining.min(every);
        let chunk_cfg = SimConfig {
            law: cfg.law.clone(),
            integrator: cfg.integrator.clone(),
            domain: cfg.domain,
            boundary: cfg.boundary,
            dt: cfg.dt,
            steps: chunk,
        };
        state = run_distributed(&chunk_cfg, method, p, &state).particles;
        snapshots.push(state.clone());
        remaining -= chunk;
    }
    snapshots
}

#[cfg(test)]
mod sampled_tests {
    use super::*;
    use nbody_physics::{init, RepulsiveInverseSquare, SemiImplicitEuler};

    #[test]
    fn sampled_run_matches_unsampled_for_single_phase_integrators() {
        let cfg = SimConfig {
            law: RepulsiveInverseSquare {
                strength: 1e-3,
                softening: 1e-3,
            },
            integrator: SemiImplicitEuler,
            domain: Domain::unit(),
            boundary: Boundary::Reflective,
            dt: 0.01,
            steps: 9,
        };
        let initial = init::uniform(20, &cfg.domain, 4);
        let full = run_distributed(&cfg, Method::CaAllPairs { c: 2 }, 8, &initial).particles;
        let snaps = run_distributed_sampled(&cfg, Method::CaAllPairs { c: 2 }, 8, &initial, 4);
        // Chunks of 4, 4, 1.
        assert_eq!(snaps.len(), 3);
        assert_eq!(snaps.last().unwrap(), &full);
    }

    #[test]
    fn sampled_snapshots_evolve() {
        let cfg = SimConfig {
            law: RepulsiveInverseSquare {
                strength: 5e-3,
                softening: 1e-3,
            },
            integrator: SemiImplicitEuler,
            domain: Domain::unit(),
            boundary: Boundary::Reflective,
            dt: 0.02,
            steps: 6,
        };
        let initial = init::uniform(16, &cfg.domain, 7);
        let snaps = run_distributed_sampled(&cfg, Method::ParticleRing, 4, &initial, 2);
        assert_eq!(snaps.len(), 3);
        assert_ne!(snaps[0], snaps[2], "state must change over time");
        for s in &snaps {
            assert_eq!(s.len(), 16);
        }
    }
}
