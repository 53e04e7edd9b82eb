//! The block-on-block force kernel shared by every distributed algorithm,
//! and its compute accounting.
//!
//! Besides the kernel itself, this module defines the FLOP/byte bookkeeping
//! the roofline audit consumes: [`ComputeStats`] is the plain-data record of
//! one (or many summed) kernel invocations, and [`ComputeMeter`] times kernel
//! calls and publishes their totals through the `nbody-metrics` registry as
//! the `compute_*` counters.

use std::time::Instant;

use nbody_metrics::{Counter, MetricsRecorder};
use nbody_physics::{Boundary, Domain, ForceLaw, Particle, Vec2, Vec2x2};

/// What the kernel's loop nest gathers per evaluated pair besides the
/// force. A policy rather than a flag so that the plain kernel's copy of the
/// nest carries no trace of the harvest: [`NoHarvest`] is a zero-sized no-op.
trait Harvest {
    fn pair<F: ForceLaw>(&mut self, law: &F, target: &Particle, source: &Particle, disp: Vec2);
}

/// Harvest nothing: the plain force sweep.
struct NoHarvest;

impl Harvest for NoHarvest {
    #[inline(always)]
    fn pair<F: ForceLaw>(&mut self, _: &F, _: &Particle, _: &Particle, _: Vec2) {}
}

/// Sum the pair potential of every evaluated interaction.
struct PotentialSum(f64);

impl Harvest for PotentialSum {
    #[inline(always)]
    fn pair<F: ForceLaw>(&mut self, law: &F, target: &Particle, source: &Particle, disp: Vec2) {
        self.0 += law.potential(target, source, disp);
    }
}

/// The one target x source loop nest behind [`accumulate_block`] and
/// [`accumulate_block_potential`].
///
/// Targets advance two at a time, one per lane of a [`Vec2x2`] accumulator;
/// sources stream through the pair and the law answers for both lanes at
/// once ([`ForceLaw::force_x2`]). Per lane that is the scalar loop's
/// sequence of operations — same displacement, same law arithmetic, sources
/// added in the same order — so each target's force is bit for bit what the
/// scalar loop (and `reference::accumulate_forces`) produces.
///
/// Two cases take the scalar path for one (pair, source) instead: the lone
/// last target of an odd-length block (its partner lane is padding, which
/// the law must never see), and a source whose id matches either target —
/// only a diagonal block has those, at most two per pair. The law is never
/// asked for a self pair; a computed self-force is not masked away, it is
/// not computed.
fn accumulate<F: ForceLaw, H: Harvest>(
    targets: &mut [Particle],
    sources: &[Particle],
    law: &F,
    domain: &Domain,
    boundary: Boundary,
    harvest: &mut H,
) -> u64 {
    let mut skipped: u64 = 0;
    for pair in targets.chunks_mut(2) {
        let full = pair.len() == 2;
        // Local copies: the inner loop reads positions, masses and ids from
        // values nothing else can alias. The padding lane of an odd tail
        // duplicates lane 0 and is only ever carried, never evaluated.
        let (t0, t1) = (pair[0], pair[pair.len() - 1]);
        let pos = Vec2x2::new(t0.pos, t1.pos);
        let mut acc = Vec2x2::new(t0.force, t1.force);
        for s in sources {
            if !full || t0.id == s.id || t1.id == s.id {
                let mut lanes = acc.to_lanes();
                for (t, a) in pair.iter().zip(&mut lanes) {
                    if t.id == s.id {
                        skipped += 1;
                        continue;
                    }
                    let disp = boundary.displacement(domain, t.pos, s.pos);
                    *a += law.force(t, s, disp);
                    harvest.pair(law, t, s, disp);
                }
                acc = Vec2x2::new(lanes[0], lanes[1]);
                continue;
            }
            let disp = boundary.displacement_x2(domain, pos, Vec2x2::splat(s.pos));
            acc += law.force_x2([&t0, &t1], s, disp);
            let [d0, d1] = disp.to_lanes();
            harvest.pair(law, &t0, s, d0);
            harvest.pair(law, &t1, s, d1);
        }
        for (t, a) in pair.iter_mut().zip(acc.to_lanes()) {
            t.force = a;
        }
    }
    (targets.len() as u64)
        .saturating_mul(sources.len() as u64)
        .saturating_sub(skipped)
}

/// Accumulate the forces exerted by every particle in `sources` on every
/// particle in `targets`. Self-interactions (matching ids) are skipped, so
/// it is safe to pass a block to itself.
///
/// Returns the exact number of force evaluations performed — all ordered
/// cross pairs minus the skipped same-id pairs. This count is the unit of
/// "computation" in the paper's cost model (`F = n²` total for all-pairs,
/// `F = nk` with a cutoff) and the basis of the FLOP accounting.
pub fn accumulate_block<F: ForceLaw>(
    targets: &mut [Particle],
    sources: &[Particle],
    law: &F,
    domain: &Domain,
    boundary: Boundary,
) -> u64 {
    accumulate(targets, sources, law, domain, boundary, &mut NoHarvest)
}

/// [`accumulate_block`], additionally harvesting the summed pair potential
/// of every evaluated interaction — the health monitors' potential-energy
/// partial. Because the CA schedules evaluate every *ordered* pair exactly
/// once globally, the world-reduced sum of these partials counts each
/// unordered pair twice; the driver halves it.
///
/// The same loop nest as [`accumulate_block`] under a different harvest
/// policy: forces are bit-identical, and plain (health-off) runs pay
/// nothing for the potential — it is not free for laws like Lennard-Jones.
pub fn accumulate_block_potential<F: ForceLaw>(
    targets: &mut [Particle],
    sources: &[Particle],
    law: &F,
    domain: &Domain,
    boundary: Boundary,
) -> (u64, f64) {
    let mut potential = PotentialSum(0.0);
    let evals = accumulate(targets, sources, law, domain, boundary, &mut potential);
    (evals, potential.0)
}

/// Number of force evaluations `accumulate_block` performs for the given
/// block sizes (used by schedule generators to cost compute ops): all
/// ordered cross pairs, minus the skipped self-pairs when the blocks are
/// the same block.
///
/// Saturating: at `u64`-boundary block sizes the product clamps to
/// `u64::MAX` instead of wrapping, so FLOP totals derived from this count
/// degrade to a floor rather than silently becoming tiny.
pub fn block_interactions(targets: usize, sources: usize, same_block: bool) -> u64 {
    let total = (targets as u64).saturating_mul(sources as u64);
    if same_block {
        total.saturating_sub(targets as u64)
    } else {
        total
    }
}

/// Sum the force accumulators of `src` into `dst` element-wise: the combine
/// function of the team reduction (Algorithm 1, line 9). Positions,
/// velocities, ids are untouched — copies of the same subset agree on them.
pub fn combine_forces(dst: &mut Particle, src: &Particle) {
    debug_assert_eq!(dst.id, src.id, "reducing mismatched particles");
    dst.force += src.force;
}

/// Compute accounting for one or more kernel invocations: the raw numbers
/// the roofline model needs (FLOPs over time for achieved GFLOP/s, FLOPs
/// over bytes for arithmetic intensity).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ComputeStats {
    /// Force evaluations performed.
    pub interactions: u64,
    /// Floating-point operations, `interactions` times the law's
    /// per-evaluation constant.
    pub flops: u64,
    /// Compulsory memory traffic: targets are read and written, sources
    /// read, at the in-memory particle size.
    pub bytes: u64,
    /// Wall-clock nanoseconds spent inside the kernel.
    pub nanos: u64,
}

impl ComputeStats {
    /// The stats of one kernel call over `targets` x `sources` particles
    /// that performed `evals` force evaluations in `nanos` ns.
    pub fn for_block(
        evals: u64,
        flops_per_interaction: u64,
        targets: usize,
        sources: usize,
        nanos: u64,
    ) -> ComputeStats {
        let particle = std::mem::size_of::<Particle>() as u64;
        ComputeStats {
            interactions: evals,
            flops: evals.saturating_mul(flops_per_interaction),
            bytes: (2 * targets as u64 + sources as u64).saturating_mul(particle),
            nanos,
        }
    }

    /// Fold another record into this one.
    pub fn merge(&mut self, other: &ComputeStats) {
        self.interactions = self.interactions.saturating_add(other.interactions);
        self.flops = self.flops.saturating_add(other.flops);
        self.bytes = self.bytes.saturating_add(other.bytes);
        self.nanos = self.nanos.saturating_add(other.nanos);
    }

    /// Achieved GFLOP/s (FLOPs per nanosecond), 0 when nothing was timed.
    pub fn gflops(&self) -> f64 {
        if self.nanos == 0 {
            0.0
        } else {
            self.flops as f64 / self.nanos as f64
        }
    }

    /// Arithmetic intensity in FLOPs per byte, 0 when nothing moved.
    pub fn intensity(&self) -> f64 {
        if self.bytes == 0 {
            0.0
        } else {
            self.flops as f64 / self.bytes as f64
        }
    }
}

/// Times kernel calls and records their [`ComputeStats`] into the metrics
/// registry as the `compute_interactions` / `compute_flops` /
/// `compute_bytes` / `compute_nanos` counters (no phase label: the kernel
/// always runs under the drivers' `Phase::Other`). Cheap to construct per
/// force evaluation; a no-op when the recorder is disabled.
pub struct ComputeMeter {
    flops_per_interaction: u64,
    interactions: Counter,
    flops: Counter,
    bytes: Counter,
    nanos: Counter,
}

impl ComputeMeter {
    /// A meter recording into `rec` for a law with the given
    /// per-evaluation FLOP constant.
    pub fn new(rec: &MetricsRecorder, flops_per_interaction: u64) -> ComputeMeter {
        ComputeMeter {
            flops_per_interaction,
            interactions: rec.counter("compute_interactions", None),
            flops: rec.counter("compute_flops", None),
            bytes: rec.counter("compute_bytes", None),
            nanos: rec.counter("compute_nanos", None),
        }
    }

    /// Time `run` (a kernel call returning its evaluation count) over a
    /// `targets` x `sources` block pair and record the resulting stats.
    pub fn time(
        &self,
        targets: usize,
        sources: usize,
        run: impl FnOnce() -> u64,
    ) -> ComputeStats {
        let start = Instant::now();
        let evals = run();
        let nanos = start.elapsed().as_nanos() as u64;
        self.record(evals, targets, sources, nanos)
    }

    /// Record an already-timed kernel call.
    pub fn record(
        &self,
        evals: u64,
        targets: usize,
        sources: usize,
        nanos: u64,
    ) -> ComputeStats {
        let stats =
            ComputeStats::for_block(evals, self.flops_per_interaction, targets, sources, nanos);
        self.interactions.add(stats.interactions);
        self.flops.add(stats.flops);
        self.bytes.add(stats.bytes);
        self.nanos.add(stats.nanos);
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbody_physics::{init, reference, Counting};

    #[test]
    fn kernel_matches_reference_for_full_population() {
        let domain = Domain::unit();
        let mut a = init::uniform(30, &domain, 1);
        let mut b = a.clone();

        // Kernel applied block-to-itself == reference all-pairs.
        let sources = a.clone();
        let evals = accumulate_block(&mut a, &sources, &Counting, &domain, Boundary::Open);
        reference::accumulate_forces(&mut b, &Counting, &domain, Boundary::Open);
        assert_eq!(a, b);
        assert_eq!(evals, block_interactions(30, 30, true));
    }

    #[test]
    fn potential_variant_matches_plain_kernel_and_pair_sum() {
        use nbody_physics::Gravity;
        let domain = Domain::unit();
        let law = Gravity { g: 1e-3, softening: 0.05 };
        let mut a = init::uniform(24, &domain, 5);
        let mut b = a.clone();
        let sources = a.clone();

        let evals_plain = accumulate_block(&mut a, &sources, &law, &domain, Boundary::Open);
        let (evals, pe) =
            accumulate_block_potential(&mut b, &sources, &law, &domain, Boundary::Open);
        assert_eq!(a, b, "forces must be bit-identical to the plain kernel");
        assert_eq!(evals, evals_plain);

        // Block-on-itself evaluates each unordered pair twice, so the
        // harvested sum is exactly twice the once-per-pair diagnostic.
        let reference = nbody_physics::diagnostics::total_potential_energy(
            &sources,
            &law,
            &domain,
            Boundary::Open,
        );
        assert!(
            (pe - 2.0 * reference).abs() <= 1e-12 * reference.abs().max(1.0),
            "harvested {pe} vs 2x reference {reference}"
        );
    }

    #[test]
    fn self_pairs_skipped_by_id_not_index() {
        let domain = Domain::unit();
        let mut targets = vec![nbody_physics::Particle::at(7, Vec2::new(0.5, 0.5))];
        let sources = vec![
            nbody_physics::Particle::at(7, Vec2::new(0.5, 0.5)), // same id: skip
            nbody_physics::Particle::at(8, Vec2::new(0.6, 0.5)),
        ];
        let evals = accumulate_block(&mut targets, &sources, &Counting, &domain, Boundary::Open);
        assert_eq!(targets[0].force.x, 1.0);
        assert_eq!(evals, 1, "the same-id pair is not counted");
    }

    #[test]
    fn interaction_counts() {
        assert_eq!(block_interactions(4, 5, false), 20);
        assert_eq!(block_interactions(4, 4, true), 12);
        assert_eq!(block_interactions(0, 9, false), 0);
        assert_eq!(block_interactions(1, 1, true), 0);
    }

    #[test]
    fn interaction_counts_saturate_at_u64_boundaries() {
        // 2^33 * 2^33 = 2^66 overflows u64: clamp to the ceiling instead
        // of wrapping to a tiny value.
        let huge = 1usize << 33;
        assert_eq!(block_interactions(huge, huge, false), u64::MAX);
        // The self-pair subtraction still applies to the clamped product.
        assert_eq!(
            block_interactions(huge, huge, true),
            u64::MAX - huge as u64
        );
        // Exactly at the boundary: 2^32 * 2^32 = 2^64 saturates ...
        let edge = 1usize << 32;
        assert_eq!(block_interactions(edge, edge, false), u64::MAX);
        // ... while one source fewer fits exactly.
        assert_eq!(
            block_interactions(edge, edge - 1, false),
            (edge as u64) * (edge as u64 - 1)
        );
        // A degenerate same-block call with zero sources must not
        // underflow past zero.
        assert_eq!(block_interactions(5, 0, true), 0);
    }

    #[test]
    fn combine_forces_sums_only_forces() {
        let mut a = nbody_physics::Particle::at(3, Vec2::new(0.1, 0.2));
        a.force = Vec2::new(1.0, 2.0);
        let mut b = a;
        b.force = Vec2::new(0.5, -1.0);
        combine_forces(&mut a, &b);
        assert_eq!(a.force, Vec2::new(1.5, 1.0));
        assert_eq!(a.pos, Vec2::new(0.1, 0.2));
    }

    #[test]
    fn compute_stats_arithmetic() {
        let s = ComputeStats::for_block(100, 20, 10, 10, 2_000);
        assert_eq!(s.interactions, 100);
        assert_eq!(s.flops, 2_000);
        let particle = std::mem::size_of::<Particle>() as u64;
        assert_eq!(s.bytes, 30 * particle);
        assert_eq!(s.gflops(), 1.0, "2000 FLOPs in 2000 ns is 1 GFLOP/s");
        assert!((s.intensity() - 2_000.0 / (30.0 * particle as f64)).abs() < 1e-12);

        let mut total = s;
        total.merge(&s);
        assert_eq!(total.interactions, 200);
        assert_eq!(total.flops, 4_000);

        // Saturating end to end: a clamped interaction count cannot wrap
        // when multiplied by the FLOP constant.
        let sat = ComputeStats::for_block(u64::MAX, 20, 1, 1, 1);
        assert_eq!(sat.flops, u64::MAX);
        assert_eq!(ComputeStats::default().gflops(), 0.0);
        assert_eq!(ComputeStats::default().intensity(), 0.0);
    }

    #[test]
    fn compute_meter_records_counters() {
        let rec = MetricsRecorder::for_rank(2);
        let meter = ComputeMeter::new(&rec, 20);
        let domain = Domain::unit();
        let mut block = init::uniform(16, &domain, 3);
        let sources = block.clone();
        let stats = meter.time(block.len(), sources.len(), || {
            accumulate_block(&mut block, &sources, &Counting, &domain, Boundary::Open)
        });
        assert_eq!(stats.interactions, 16 * 15);
        let m = rec.finish().unwrap();
        assert_eq!(m.counter("compute_interactions", None), 16 * 15);
        assert_eq!(m.counter("compute_flops", None), 16 * 15 * 20);
        assert!(m.counter("compute_nanos", None) > 0);
        assert!(m.counter("compute_bytes", None) > 0);
    }

    #[test]
    fn compute_meter_disabled_is_noop() {
        let rec = MetricsRecorder::disabled();
        let meter = ComputeMeter::new(&rec, 20);
        let stats = meter.record(10, 2, 5, 100);
        // The stats are still returned for the caller ...
        assert_eq!(stats.interactions, 10);
        // ... but nothing is recorded.
        assert!(rec.finish().is_none());
    }
}
