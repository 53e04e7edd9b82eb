//! The block-on-block force kernel shared by every distributed algorithm,
//! and its compute accounting.
//!
//! Besides the kernel itself, this module defines the FLOP/byte bookkeeping
//! the roofline audit consumes: [`ComputeStats`] is the plain-data record of
//! one (or many summed) kernel invocations, and [`ComputeMeter`] times kernel
//! calls and publishes their totals through the `nbody-metrics` registry as
//! the `compute_*` counters.

use std::borrow::Borrow;
use std::cell::RefCell;
use std::ops::Range;
use std::time::Instant;

use nbody_metrics::{Counter, MetricsRecorder};
use nbody_physics::{Boundary, Domain, F64x2, ForceLaw, Particle, Source, Vec2, Vec2x2};

/// An element of a source block: what the kernel's loop nest streams. A
/// [`Particle`] block is read in place; so is one of the drivers' compact
/// [`Source`] blocks, and the `&Particle` a [`ForceLaw`] takes is then built
/// from the three fields ([`Source::particle`]) at the call that needs it,
/// which the inlined lane form of a law resolves to registers.
pub trait KernelSource {
    /// What the law is shown for this source.
    type Shown<'a>: Borrow<Particle>
    where
        Self: 'a;

    /// Where the source is.
    fn pos(&self) -> Vec2;

    /// Which particle it is.
    fn id(&self) -> u64;

    /// The source as a law sees it.
    fn shown(&self) -> Self::Shown<'_>;
}

impl KernelSource for Particle {
    type Shown<'a> = &'a Particle;

    #[inline(always)]
    fn pos(&self) -> Vec2 {
        self.pos
    }

    #[inline(always)]
    fn id(&self) -> u64 {
        self.id
    }

    #[inline(always)]
    fn shown(&self) -> &Particle {
        self
    }
}

impl KernelSource for Source {
    type Shown<'a> = Particle;

    #[inline(always)]
    fn pos(&self) -> Vec2 {
        self.pos
    }

    #[inline(always)]
    fn id(&self) -> u64 {
        self.id
    }

    #[inline(always)]
    fn shown(&self) -> Particle {
        self.particle()
    }
}

/// What the kernel's loop nest gathers per evaluated ordered pair besides
/// the force. A policy rather than a flag so that the plain kernel's copy of
/// the nest carries no trace of the harvest: [`NoHarvest`] is a zero-sized
/// no-op.
trait Harvest {
    fn pair<F: ForceLaw>(&mut self, law: &F, target: &Particle, source: &Particle, disp: Vec2);
}

/// Harvest nothing: the plain force sweep.
struct NoHarvest;

impl Harvest for NoHarvest {
    #[inline(always)]
    fn pair<F: ForceLaw>(&mut self, _: &F, _: &Particle, _: &Particle, _: Vec2) {}
}

/// Sum the pair potential of every evaluated ordered pair, and count them:
/// the pairs the cull answered without asking are the rest of the call's
/// count, and each has the one potential a law with a cutoff promises
/// beyond `r_c` ([`ForceLaw::cutoff`]).
#[derive(Default)]
struct PotentialSum {
    sum: f64,
    pairs: u64,
}

impl Harvest for PotentialSum {
    #[inline(always)]
    fn pair<F: ForceLaw>(&mut self, law: &F, target: &Particle, source: &Particle, disp: Vec2) {
        self.sum += law.potential(target, source, disp);
        self.pairs += 1;
    }
}

/// Who is given the reaction `−f` of a pair the nest asks about. A policy
/// like [`Harvest`], so that the copies of the nest that never meet a pair
/// twice carry no trace of it: [`OneWay`] is the nest as it was.
trait Reaction {
    /// Whether each unordered pair is asked once, its reaction added to the
    /// source's pending accumulator.
    const NEWTON: bool;

    /// The pending accumulators of the sources `run`, where their
    /// reactions go, or none.
    #[inline(always)]
    fn slots(pending: &mut [Vec2], run: Range<usize>) -> &mut [Vec2] {
        if Self::NEWTON {
            &mut pending[run]
        } else {
            &mut []
        }
    }
}

/// Every ordered pair is asked for itself.
struct OneWay;

impl Reaction for OneWay {
    const NEWTON: bool = false;
}

/// Newton's third law on a block against itself: the sources are the
/// targets, in their order, and the law promises `f_ji = −f_ij`
/// ([`ForceLaw::is_symmetric`]) and has a cutoff.
struct Newton;

impl Reaction for Newton {
    const NEWTON: bool = true;
}

/// Whether `sources` are `targets`: the same ids in the same order.
fn same_block<S: KernelSource>(targets: &[Particle], sources: &[S]) -> bool {
    targets.len() == sources.len() && targets.iter().zip(sources).all(|(t, s)| t.id == s.id())
}

/// Particles per bounding box of the cutoff cull — a chunk of sources, a
/// tile of targets — and chunks per group box (the coarse level, tested
/// first). DESIGN.md §14.7 has the measurements.
const CHUNK: usize = 16;
const GROUP: usize = 16;

/// Relative widening of `r_c²` in the cull's test. The bound needs none
/// (see [`Cull::beyond`]); it pays for a law whose own range test rounds
/// differently from `Vec2::norm_sq`, e.g. through a fused multiply-add.
const MARGIN: f64 = 1e-12;

/// An axis-aligned box `(lo, hi)`.
type Aabb = (Vec2, Vec2);

/// The box around `points`, or the whole plane if a coordinate is NaN or
/// infinite: such a source is shown to every target and such a target every
/// source, as they always were.
fn bounds(points: impl Iterator<Item = Vec2>) -> Aabb {
    let inf = Vec2::new(f64::INFINITY, f64::INFINITY);
    // `f64::min`/`max` step over a NaN, so finiteness is tracked apart.
    let (lo, hi, finite) = points.fold((inf, -inf, true), |(lo, hi, ok), p| {
        (lo.min(p), hi.max(p), ok && p.is_finite())
    });
    if finite {
        (lo, hi)
    } else {
        (-inf, inf)
    }
}

/// What one kernel call knows about where its sources are: a box per
/// [`CHUNK`] consecutive sources and per [`GROUP`] consecutive chunks, built
/// once in O(sources), and the chunks near the tile of targets being walked.
/// Worth it when consecutive particles are neighbours ([`cell_order`]); on a
/// shuffled block every box is the block's and every chunk is near.
#[derive(Default)]
struct Cull {
    /// The law's `r_c * r_c`, widened by [`MARGIN`].
    limit: f64,
    /// The domain extent under `Boundary::Periodic`, zero otherwise (every
    /// image of a point is then the point).
    period: Vec2,
    /// How far a raw displacement goes unwrapped: half the period, or any
    /// finite distance when there is none.
    half: Vec2,
    /// A box per [`CHUNK`] consecutive sources, then one per [`GROUP`]
    /// consecutive chunks ([`Cull::chunks`], [`Cull::groups`]): one vector,
    /// which a thread's first call allocates once for both.
    boxes: Vec<Aabb>,
    /// How many of `boxes` are chunks'.
    chunk_count: usize,
    /// The chunks [`Cull::tile`] did not rule out, in source order, each with
    /// the image every displacement from the tile's box to the chunk's
    /// takes, if they all take one ([`Cull::image`]).
    near: Vec<(usize, Option<Vec2>)>,
}

thread_local! {
    /// The last call's [`Cull`], whose two vectors the next call under a
    /// cutoff law refills: a warm kernel call allocates nothing.
    static CULL: RefCell<Cull> = RefCell::default();
}

thread_local! {
    /// The last [`Newton`] call's pending accumulators, which the next one
    /// refills: a warm diagonal call allocates nothing either.
    static PENDING: RefCell<Vec<Vec2>> = const { RefCell::new(Vec::new()) };
}

impl Cull {
    /// Forget the last call's sources and box these.
    fn refill<S: KernelSource>(
        &mut self,
        sources: &[S],
        r_c: f64,
        domain: &Domain,
        boundary: Boundary,
    ) {
        self.limit = r_c * r_c * (1.0 + MARGIN);
        (self.period, self.half) = match boundary {
            Boundary::Periodic => (domain.extent(), domain.extent() * 0.5),
            _ => (Vec2::zero(), Vec2::new(f64::MAX, f64::MAX)),
        };
        self.chunk_count = sources.len().div_ceil(CHUNK);
        self.boxes.clear();
        self.boxes
            .reserve(self.chunk_count + self.chunk_count.div_ceil(GROUP));
        for len in [CHUNK, CHUNK * GROUP] {
            let boxes = sources.chunks(len).map(|c| bounds(c.iter().map(S::pos)));
            self.boxes.extend(boxes);
        }
        self.near.clear();
        self.near.reserve(self.chunk_count);
    }

    /// The box of each chunk of sources.
    fn chunks(&self) -> &[Aabb] {
        &self.boxes[..self.chunk_count]
    }

    /// The box of each group of chunks.
    fn groups(&self) -> &[Aabb] {
        &self.boxes[self.chunk_count..]
    }

    /// Whether every source inside the box `(lo, hi)` is beyond `r_c` of
    /// every target inside the box `(tlo, thi)`, per lane, in *both* lanes
    /// — one target each when `tlo` is `thi` — by the law's own test
    /// `disp.norm_sq() > r_c * r_c` on `Boundary::displacement`'s own
    /// result. A target box must be finite or the whole plane.
    ///
    /// Rounding is monotone, so per axis `lo <= s <= hi` and
    /// `tlo <= t <= thi` give `fl(lo - thi) <= fl(s - t) <= fl(hi - tlo)`,
    /// and the same again after the `- k` of an image. The displacement
    /// the law is shown is `image`, when [`Cull::image`] found one for boxes
    /// that hold these, and otherwise one of the three `d`, `fl(d - ext)`,
    /// `fl(d + ext)` (single wrap, whatever the positions), so its magnitude
    /// is at least the smallest distance from zero to the image intervals;
    /// `x*x + y*y` is monotone in both magnitudes, so the law's `norm_sq`
    /// is at least the one below.
    #[inline(always)]
    fn beyond(&self, &(lo, hi): &Aabb, tlo: Vec2x2, thi: Vec2x2, image: Option<Vec2>) -> bool {
        let (dlo, dhi) = (Vec2x2::splat(lo) - thi, Vec2x2::splat(hi) - tlo);
        let gap = |k: Vec2| {
            let k = Vec2x2::splat(k);
            (dlo - k).max(-(dhi - k)).max(Vec2x2::zero())
        };
        let gap = match image {
            Some(k) => gap(k),
            None => gap(Vec2::zero())
                .min(gap(self.period))
                .min(gap(-self.period)),
        };
        gap.norm_sq().lanes_gt(F64x2::splat(self.limit)).all()
    }

    /// The `k` for which `Boundary::displacement(t, s)` is `(s - t) - k`, bit
    /// for bit, for every `s` inside the box `(lo, hi)` and every `t` inside
    /// `(tlo, thi)`, if there is one. Per axis, from the bounds of
    /// [`Cull::beyond`]: `+0.0` when both are within half the period (no
    /// pair wraps: `displacement`'s tests are strict, so a bound exactly at
    /// half is within), the period when the lower one is past half (every
    /// pair wraps down), minus the period when the upper one is (up). `None`
    /// when the boxes straddle half the period, and when either is the whole
    /// plane: what is not finite takes the path it always took.
    fn image(&self, &(lo, hi): &Aabb, tlo: Vec2, thi: Vec2) -> Option<Vec2> {
        let (dlo, dhi) = (lo - thi, hi - tlo);
        let axis = |dlo: f64, dhi: f64, half: f64, ext: f64| {
            if dlo >= -half && dhi <= half {
                Some(0.0)
            } else if dlo > half {
                Some(ext)
            } else if dhi < -half {
                Some(-ext)
            } else {
                None
            }
        };
        Some(Vec2::new(
            axis(dlo.x, dhi.x, self.half.x, self.period.x)?,
            axis(dlo.y, dhi.y, self.half.y, self.period.y)?,
        ))
    }

    /// List in `near` the chunks that may hold a source within `r_c` of a
    /// target of `tile` — groups first, then the chunks of the groups that
    /// remain — and say whether a pair of the tile should ask again about
    /// each for its own two targets. Not when the list is the whole of a
    /// block of several groups: that block is in no spatial order, and a
    /// pair would rule out nothing either. (A block of one group is asked
    /// regardless: a tile of a sparse one reaches all of it where a pair
    /// does not, and the tests are few.) And not when a target is NaN or
    /// infinite: the tile's box is then the plane, nothing was ruled out,
    /// and [`Cull::beyond`] must not be shown such a point.
    fn tile(&mut self, tile: &[Particle]) -> bool {
        let (lo, hi) = bounds(tile.iter().map(|t| t.pos));
        let (tlo, thi) = (Vec2x2::splat(lo), Vec2x2::splat(hi));
        self.near.clear();
        for g in 0..self.groups().len() {
            if self.beyond(&self.groups()[g], tlo, thi, None) {
                continue;
            }
            for j in g * GROUP..self.chunk_count.min((g + 1) * GROUP) {
                let chunk = &self.chunks()[j];
                if !self.beyond(chunk, tlo, thi, None) {
                    self.near.push((j, self.image(chunk, lo, hi)));
                }
            }
        }
        lo.is_finite() && (self.near.len() < self.chunk_count || self.chunk_count <= GROUP)
    }
}

/// A particle's place in [`cell_order`]: cell row, cell column — negated
/// in odd rows — and id.
type CellKey = (i64, i64, u64);

thread_local! {
    /// The keys of the block a rank is ordering, kept from step to step so
    /// that ordering a block allocates nothing once it has been this long.
    static CELL_KEYS: RefCell<Vec<CellKey>> = const { RefCell::new(Vec::new()) };
}

/// Put a block in the order the cull needs, consecutive particles being
/// neighbours: by `r_c`-sized cell, rows bottom to top, even rows left to
/// right and odd rows right to left, ties by id (nothing moves under a law
/// without a cutoff). Turning round at each row end keeps the run of
/// sixteen that holds the last cells of one row and the first of the next
/// in one corner; read row-major it would span the block's width, two rows
/// tall, in reach of every target of both. The order also puts the two
/// lanes of a target pair, and the pairs of a tile, next to each other. The
/// cutoff drivers call it on the team leader before the broadcast. A total
/// order on distinct ids, so the result does not depend on the order
/// `block` arrives in.
///
/// The cost does: a leader's block arrives as last step's order, a few
/// particles having drifted over a cell edge and a few migrants appended,
/// so each key is computed once (two `floor`s, a libm call on baseline
/// x86-64 — a comparison sort that recomputes them is the slowest way) and
/// the displaced few are inserted where they belong. A block further out
/// of order than `INSERT_BUDGET` moves per particle is sorted outright.
pub fn cell_order<F: ForceLaw>(block: &mut [Particle], law: &F, domain: &Domain) {
    let Some(r_c) = law.cutoff() else { return };
    let key = |p: &Particle| -> CellKey {
        // `as i64` saturates and sends NaN to 0: any position gets some cell.
        let cell = (p.pos - domain.min) / r_c;
        let (row, col) = (cell.y.floor() as i64, cell.x.floor() as i64);
        (
            row,
            if row % 2 == 0 {
                col
            } else {
                col.saturating_neg()
            },
            p.id,
        )
    };
    CELL_KEYS.with_borrow_mut(|keys| {
        keys.clear();
        keys.extend(block.iter().map(key));
        let mut budget = INSERT_BUDGET * block.len();
        for i in 1..block.len() {
            if keys[i - 1] <= keys[i] {
                continue;
            }
            let at = keys[..i].partition_point(|k| *k < keys[i]);
            if i - at > budget {
                return block.sort_by_cached_key(key);
            }
            budget -= i - at;
            keys[at..=i].rotate_right(1);
            block[at..=i].rotate_right(1);
        }
    });
}

/// Places, per particle of the block, that [`cell_order`]'s insertions may
/// move particles through before it gives up and sorts.
const INSERT_BUDGET: usize = 8;

/// The one target x source loop nest behind [`accumulate_block`],
/// [`accumulate_sources`] and [`accumulate_block_potential`], generic over
/// the source element ([`KernelSource`]) so that each block layout gets its
/// own copy of the same nest and none pays for the other, and over the
/// [`Reaction`] [`accumulate`] picks for the call.
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
///
/// Under a law with a cutoff the cull asks twice, coarsely then finely.
/// Targets advance in tiles of [`CHUNK`] and sources in chunks of as many;
/// [`Cull::tile`] lists the chunks whose box is not [`Cull::beyond`] the
/// tile's, and each lane pair walks that list in source order, passing over
/// a chunk that is beyond both of its targets. Beside each chunk the list
/// has the periodic image every pair of the tile and the chunk takes, when
/// the two boxes settle it ([`Cull::image`]): such a chunk is tested and
/// walked under that one image, and only an unsettled one wraps pair by
/// pair. A tile [`Cull::tile`] says the pairs need not ask for — a long
/// block in no spatial order, or a tile with a NaN or infinite target —
/// walks the block whole: nothing was ruled out, and a target that is not
/// finite is shown every source, as it always was. The law would have
/// answered `+0.0` for each pair passed over ([`ForceLaw::cutoff`]). The
/// chunks that remain run in source order, so each target still adds its
/// non-zero terms in the scalar loop's sequence, and one final `+ 0.0` per
/// pair that had anything passed over, by its tile or by itself, stands in
/// for all the zeros: adding `+0.0` changes an accumulator only from `-0.0`
/// to `+0.0`, and once that has happened no sum returns to `-0.0`. A
/// passed-over chunk cannot hold a target's own id, because a particle is
/// where it is: the self source sits inside both boxes at distance zero.
/// Without a cutoff the targets are one tile that does not ask, and the
/// nest is the loop it always was.
///
/// Under [`Newton`] each unordered pair is asked once, by its lower index.
/// Every target's accumulator starts out as its force in a pending array
/// ([`PENDING`]). The lane pair `(i, i + 1)` loads its two from there,
/// asks about itself, `f` going to lane 0 and `−f` to lane 1, then walks
/// only the sources past `i + 1`, adding `f` to its lanes and `−f` to that
/// source's pending accumulator: a later particle's, not loaded yet. So
/// each target still adds its terms in source order — the reactions of the
/// sources before it are in its accumulator, in their order, when its pair
/// loads it — and its force differs from the scalar loop's only where
/// `−f_ij` is not `f_ji` by bits (the rounding of a strength product), and
/// in the sign of a zero. The targets themselves are walked as they always
/// were, tile by tile, so the copies of the nest under [`OneWay`] are the
/// loop they were.
fn nest<S: KernelSource, F: ForceLaw, H: Harvest, R: Reaction>(
    targets: &mut [Particle],
    sources: &[S],
    law: &F,
    domain: &Domain,
    boundary: Boundary,
    harvest: &mut H,
) -> u64 {
    // The thread's `Cull` is taken for the call and handed back after it,
    // not borrowed as `CELL_KEYS` is: the nest owns it as a local, and its
    // copy for a law without a cutoff has no trace of it (DESIGN.md §14.7
    // has what a borrow handed down to the nest cost either copy).
    let mut cull = law.cutoff().map(|r_c| {
        let mut cull = CULL.take();
        cull.refill(sources, r_c, domain, boundary);
        cull
    });
    let tile_len = if cull.is_some() { CHUNK } else { usize::MAX };
    // Under `Newton` every target's accumulator, where the reactions of the
    // sources before it gather until its pair loads it.
    let mut pending = if R::NEWTON {
        let mut pending = PENDING.take();
        pending.clear();
        pending.extend(targets.iter().map(|t| t.force));
        pending
    } else {
        Vec::new()
    };
    // A block against itself under `Newton` never meets its self pairs:
    // they are counted here.
    let mut skipped: u64 = if R::NEWTON { targets.len() as u64 } else { 0 };
    for (tile_index, tile) in targets.chunks_mut(tile_len).enumerate() {
        let asks = cull.as_mut().is_some_and(|c| c.tile(tile));
        let cull = cull.as_ref().filter(|_| asks);
        for (pair_index, pair) in tile.chunks_mut(2).enumerate() {
            // Where the pair sits in the block, and the first source it
            // walks: under `Newton` the one after it.
            let i = tile_index * CHUNK + 2 * pair_index;
            let from = if R::NEWTON { i + pair.len() } else { 0 };
            // Local copies: the inner loop reads positions, masses and ids from
            // values nothing else can alias. The padding lane of an odd tail
            // duplicates lane 0 and is only ever carried, never evaluated.
            let (t0, t1) = (pair[0], pair[pair.len() - 1]);
            let lanes = Lanes {
                pair,
                t0,
                t1,
                pos: Vec2x2::new(t0.pos, t1.pos),
            };
            let mut acc = if R::NEWTON {
                Vec2x2::new(pending[i], pending[i + lanes.pair.len() - 1])
            } else {
                Vec2x2::new(t0.force, t1.force)
            };
            let per_pair = (
                |t, s| boundary.displacement(domain, t, s),
                |t, s| boundary.displacement_x2(domain, t, s),
            );
            if R::NEWTON && lanes.pair.len() == 2 {
                // The pair's own interaction, before either lane's later
                // sources: `f` to lane 0, `−f` to lane 1.
                let shown = sources[i + 1].shown();
                let s: &Particle = shown.borrow();
                if t0.id == s.id {
                    skipped += 2;
                } else {
                    let disp = boundary.displacement(domain, t0.pos, s.pos);
                    let f = law.force(&t0, s, disp);
                    acc += Vec2x2::new(f, -f);
                    harvest.pair(law, &t0, s, disp);
                    harvest.pair(law, s, &t0, -disp);
                }
            }
            if let Some(cull) = cull {
                let mut culled = cull.near.len() < cull.chunk_count;
                for &(j, image) in &cull.near {
                    let run = (j * CHUNK).max(from)..sources.len().min((j + 1) * CHUNK);
                    if R::NEWTON && run.is_empty() {
                        continue;
                    }
                    if cull.beyond(&cull.chunks()[j], lanes.pos, lanes.pos, image) {
                        culled = true;
                        continue;
                    }
                    let slots = R::slots(&mut pending, run.clone());
                    let chunk = &sources[run];
                    // One image for the chunk, `(s - t) - k`, is `displacement`
                    // bit for bit in each of its three cases: `x - (+0.0)` is
                    // `x` for every float, `-0.0` and NaN included, and
                    // `d + ext` is `d - (-ext)`.
                    acc = match image {
                        Some(k) => {
                            let image = (|t, s| (s - t) - k, |t, s| (s - t) - Vec2x2::splat(k));
                            walk::<_, _, _, R>(
                                &lanes,
                                acc,
                                chunk,
                                slots,
                                law,
                                harvest,
                                &mut skipped,
                                image,
                            )
                        }
                        None => walk::<_, _, _, R>(
                            &lanes,
                            acc,
                            chunk,
                            slots,
                            law,
                            harvest,
                            &mut skipped,
                            per_pair,
                        ),
                    };
                }
                if culled {
                    acc += Vec2x2::zero();
                }
            } else {
                // A tile whose pairs do not ask walks the whole block, as
                // every tile does without a cull.
                let slots = R::slots(&mut pending, from..sources.len());
                acc = walk::<_, _, _, R>(
                    &lanes,
                    acc,
                    &sources[from..],
                    slots,
                    law,
                    harvest,
                    &mut skipped,
                    per_pair,
                );
            }
            for (t, a) in pair.iter_mut().zip(acc.to_lanes()) {
                t.force = a;
            }
        }
    }
    if let Some(cull) = cull {
        CULL.set(cull);
    }
    if R::NEWTON {
        PENDING.set(pending);
    }
    (targets.len() as u64)
        .saturating_mul(sources.len() as u64)
        .saturating_sub(skipped)
}

/// The one or two targets a walk advances together, one per lane.
struct Lanes<'a> {
    pair: &'a [Particle],
    t0: Particle,
    t1: Particle,
    pos: Vec2x2,
}

/// The body of [`nest`], a lane pair against a run of consecutive sources,
/// written once and instantiated per way of forming the displacement (one
/// target's, and both lanes'): the lane loop of a settled chunk has no trace
/// of a wrap, nor that of a whole block of an image (DESIGN.md §14.8 has
/// what a flag read inside one shared loop cost). Under [`Newton`] `slots`
/// are the sources' pending accumulators, one per source, and take the
/// reactions.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn walk<S: KernelSource, F: ForceLaw, H: Harvest, R: Reaction>(
    &Lanes {
        pair,
        ref t0,
        ref t1,
        pos,
    }: &Lanes,
    mut acc: Vec2x2,
    sources: &[S],
    slots: &mut [Vec2],
    law: &F,
    harvest: &mut H,
    skipped: &mut u64,
    (one, two): (
        impl Fn(Vec2, Vec2) -> Vec2,
        impl Fn(Vec2x2, Vec2x2) -> Vec2x2,
    ),
) -> Vec2x2 {
    let full = pair.len() == 2;
    // Checked once here rather than per source.
    let slots = &mut slots[..if R::NEWTON { sources.len() } else { 0 }];
    for (k, s) in sources.iter().enumerate() {
        if !full || t0.id == s.id() || t1.id == s.id() {
            // This path's `shown` is its own: a scalar `force` the compiler
            // leaves as a call needs it in memory, and the lane path below
            // must not pay for that.
            let shown = s.shown();
            let s: &Particle = shown.borrow();
            let mut lanes = acc.to_lanes();
            for (t, a) in pair.iter().zip(&mut lanes) {
                if t.id == s.id {
                    // Under `Newton` both ordered pairs.
                    *skipped += 1 + u64::from(R::NEWTON);
                    continue;
                }
                let disp = one(t.pos, s.pos);
                let f = law.force(t, s, disp);
                *a += f;
                harvest.pair(law, t, s, disp);
                if R::NEWTON {
                    slots[k] -= f;
                    harvest.pair(law, s, t, -disp);
                }
            }
            acc = Vec2x2::new(lanes[0], lanes[1]);
            continue;
        }
        let disp = two(pos, Vec2x2::splat(s.pos()));
        let shown = s.shown();
        let s: &Particle = shown.borrow();
        let f = law.force_x2([t0, t1], s, disp);
        acc += f;
        let [d0, d1] = disp.to_lanes();
        harvest.pair(law, t0, s, d0);
        harvest.pair(law, t1, s, d1);
        if R::NEWTON {
            // Lane 0's reaction first: the slot adds its terms in source
            // order too.
            let [f0, f1] = f.to_lanes();
            slots[k] = slots[k] - f0 - f1;
            harvest.pair(law, s, t0, -d0);
            harvest.pair(law, s, t1, -d1);
        }
    }
    acc
}

/// The nest under the [`Reaction`] the call allows: [`Newton`] when the
/// sources are the targets ([`same_block`]) and the law has a cutoff and
/// promises symmetry, [`OneWay`] otherwise. A law without a cutoff keeps
/// every ordered pair, and with it the scalar loop's bits that the
/// all-pairs drivers' oracle pins (DESIGN.md §14.9).
fn accumulate<S: KernelSource, F: ForceLaw, H: Harvest>(
    targets: &mut [Particle],
    sources: &[S],
    law: &F,
    domain: &Domain,
    boundary: Boundary,
    harvest: &mut H,
) -> u64 {
    if law.cutoff().is_some() && law.is_symmetric() && same_block(targets, sources) {
        nest::<S, F, H, Newton>(targets, sources, law, domain, boundary, harvest)
    } else {
        nest::<S, F, H, OneWay>(targets, sources, law, domain, boundary, harvest)
    }
}

/// Accumulate the forces exerted by every particle in `sources` on every
/// particle in `targets`. Self-interactions (matching ids) are skipped, so
/// it is safe to pass a block to itself; an id names a particle, so a
/// source carrying a target's id is taken to be at that target's position.
///
/// Each target's force is bit for bit the scalar loop's — one target at a
/// time, sources in order — with one exception: a block against itself
/// (the same ids in the same order) under a law with a cutoff that promises
/// symmetry ([`ForceLaw::is_symmetric`]) asks the law once per unordered
/// pair and gives the source `−f`. Every target still adds its terms in
/// source order, so its force is the scalar loop's to within the rounding
/// of the law's strength products: exact where they are (equal masses,
/// Lennard-Jones), never in a different order.
///
/// Returns the exact number of pairs the call answered — all ordered cross
/// pairs minus the skipped same-id pairs, whether the law was evaluated for
/// a pair, answered for its partner, or the cutoff cull ruled it out —
/// which is [`block_interactions`] of the two shapes. This count is the
/// unit of "computation" in the paper's cost model (`F = n²` total for
/// all-pairs, `F = nk` with a cutoff) and the basis of the FLOP accounting.
pub fn accumulate_block<F: ForceLaw>(
    targets: &mut [Particle],
    sources: &[Particle],
    law: &F,
    domain: &Domain,
    boundary: Boundary,
) -> u64 {
    accumulate(targets, sources, law, domain, boundary, &mut NoHarvest)
}

/// [`accumulate_block`] over a block of any [`KernelSource`] — the compact
/// [`Source`] blocks the CA drivers circulate. Forces and the returned count
/// are bit for bit those of `accumulate_block` on the particles the sources
/// were taken from, for any law that keeps to what a law may read
/// ([`ForceLaw`]'s docs), the symmetric case of a block against itself
/// included: it is told by ids, which both blocks carry.
pub fn accumulate_sources<S: KernelSource, F: ForceLaw>(
    targets: &mut [Particle],
    sources: &[S],
    law: &F,
    domain: &Domain,
    boundary: Boundary,
) -> u64 {
    accumulate(targets, sources, law, domain, boundary, &mut NoHarvest)
}

/// [`accumulate_sources`], additionally harvesting the summed pair potential
/// of every answered ordered pair — the health monitors' potential-energy
/// partial. Because the CA schedules answer every *ordered* pair exactly
/// once globally, the world-reduced sum of these partials counts each
/// unordered pair twice; the driver halves it. A pair asked once for both
/// of its ordered pairs is harvested twice, once each way.
///
/// The same loop nest as [`accumulate_sources`] under a different harvest
/// policy: forces and count are bit-identical, and plain (health-off) runs
/// pay nothing for the potential — it is not free for laws like
/// Lennard-Jones. The cull rules out the same pairs: each of them is beyond
/// `r_c`, where a law with a cutoff promises one potential
/// ([`ForceLaw::cutoff`], `Cutoff`'s tail energy), so the law is asked it
/// once per call and it is added once for all of them.
pub fn accumulate_block_potential<S: KernelSource, F: ForceLaw>(
    targets: &mut [Particle],
    sources: &[S],
    law: &F,
    domain: &Domain,
    boundary: Boundary,
) -> (u64, f64) {
    let mut harvest = PotentialSum::default();
    let answered = accumulate(targets, sources, law, domain, boundary, &mut harvest);
    let culled = answered.saturating_sub(harvest.pairs);
    if culled > 0 {
        // A displacement beyond every cutoff: the cull only rules out pairs
        // of a law that has one, and a block that holds them.
        let shown = sources[0].shown();
        let far = Vec2::new(f64::INFINITY, 0.0);
        harvest.sum += culled as f64 * law.potential(&targets[0], shown.borrow(), far);
    }
    (answered, harvest.sum)
}

/// Number of pairs `accumulate_block` answers for the given block sizes
/// (used by schedule generators to cost compute ops): all
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

/// Compute accounting for one or more kernel invocations: the raw numbers
/// the roofline model needs (FLOPs over time for achieved GFLOP/s, FLOPs
/// over bytes for arithmetic intensity).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ComputeStats {
    /// Pairs answered (see [`accumulate_block`]).
    pub interactions: u64,
    /// Floating-point operations, `interactions` times the law's
    /// per-evaluation constant: nominal for a law with a cutoff, which
    /// answers most pairs by its range test or is never asked.
    pub flops: u64,
    /// Compulsory memory traffic: targets are read and written at the
    /// in-memory particle size, sources read at the compact [`Source`] size
    /// the drivers stream them in.
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
        let read_and_written = 2 * std::mem::size_of::<Particle>() as u64;
        let read = std::mem::size_of::<Source>() as u64;
        ComputeStats {
            interactions: evals,
            flops: evals.saturating_mul(flops_per_interaction),
            bytes: (targets as u64)
                .saturating_mul(read_and_written)
                .saturating_add((sources as u64).saturating_mul(read)),
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
/// force evaluation; a no-op when the recorder is disabled. `compute_flops`
/// is nominal per answered pair ([`ComputeStats::flops`]).
pub struct ComputeMeter {
    /// Whether the recorder was enabled when the meter was made.
    enabled: bool,
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
            enabled: rec.is_enabled(),
            flops_per_interaction,
            interactions: rec.counter("compute_interactions", None),
            flops: rec.counter("compute_flops", None),
            bytes: rec.counter("compute_bytes", None),
            nanos: rec.counter("compute_nanos", None),
        }
    }

    /// Time `run` (a kernel call returning its evaluation count) over a
    /// `targets` x `sources` block pair and record the resulting stats. A
    /// disabled recorder has nowhere to put a time, so the clock is not read
    /// and the returned `nanos` is 0.
    pub fn time(&self, targets: usize, sources: usize, run: impl FnOnce() -> u64) -> ComputeStats {
        let start = self.enabled.then(Instant::now);
        let evals = run();
        let nanos = start.map_or(0, |at| at.elapsed().as_nanos() as u64);
        self.record(evals, targets, sources, nanos)
    }

    /// Record an already-timed kernel call.
    pub fn record(&self, evals: u64, targets: usize, sources: usize, nanos: u64) -> ComputeStats {
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
    use nbody_physics::{init, reference, Counting, Cutoff};
    use rand::{rngs::StdRng, Rng, SeedableRng};

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
        let law = Gravity {
            g: 1e-3,
            softening: 0.05,
        };
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

    fn cull_of(sources: &[Particle], r_c: f64, domain: &Domain, boundary: Boundary) -> Cull {
        let mut cull = Cull::default();
        cull.refill(sources, r_c, domain, boundary);
        cull
    }

    #[test]
    fn the_cull_rules_out_what_is_beyond_r_c_and_nothing_nearer() {
        let domain = Domain::unit();
        let patch = (Vec2::new(0.6, 0.6), Vec2::new(0.7, 0.7));
        let cull = |r_c: f64, boundary: Boundary| cull_of(&[], r_c, &domain, boundary);
        let beyond = |r_c: f64, boundary: Boundary, b: &Aabb, (lo, hi): Aabb| {
            cull(r_c, boundary).beyond(b, Vec2x2::splat(lo), Vec2x2::splat(hi), None)
        };
        // Corner to corner: sqrt(0.5² + 0.5²) = 0.707.
        let t = Vec2::new(0.1, 0.1);
        // From the near corner of a box of targets it is 0.4 on both axes.
        let tile = (Vec2::zero(), Vec2::new(0.2, 0.2));
        for boundary in [Boundary::Open, Boundary::Reflective] {
            assert!(beyond(0.7, boundary, &patch, (t, t)));
            assert!(!beyond(0.71, boundary, &patch, (t, t)));
            assert!(beyond(0.56, boundary, &patch, tile));
            assert!(!beyond(0.57, boundary, &patch, tile));
        }
        // Through the periodic wall the corner is 0.4 away on both axes, and
        // the far corner of the box of targets 0.3.
        assert!(beyond(0.56, Boundary::Periodic, &patch, (t, t)));
        assert!(!beyond(0.57, Boundary::Periodic, &patch, (t, t)));
        assert!(beyond(0.42, Boundary::Periodic, &patch, tile));
        assert!(!beyond(0.43, Boundary::Periodic, &patch, tile));
        // Both lanes must be beyond; inside the box the gap is zero.
        let near = Vec2::new(0.65, 0.65);
        let open = cull(0.05, Boundary::Open);
        for pos in [Vec2x2::new(t, near), Vec2x2::new(near, t)] {
            assert!(!open.beyond(&patch, pos, pos, None));
        }
        // A box around a NaN or an infinity is the whole plane, which is
        // beyond nothing and which nothing is beyond.
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let sources = [
                Particle::at(0, Vec2::new(0.9, 0.9)),
                Particle::at(1, Vec2::new(0.9, bad)),
            ];
            let mut cull = cull_of(&sources, 1e-3, &domain, Boundary::Periodic);
            let plane = (cull.chunks()[0], cull.groups()[0]);
            assert_eq!(plane.0, plane.1);
            for (b, of) in [(&plane.0, (t, t)), (&plane.0, plane.0), (&patch, plane.0)] {
                assert!(
                    !cull.beyond(b, Vec2x2::splat(of.0), Vec2x2::splat(of.1), None),
                    "{bad}"
                );
            }
            // So a tile with such a target rules nothing out, far as the
            // finite ones are from everything.
            (cull.boxes, cull.chunk_count) = (vec![patch; 3 + 1], 3);
            assert!(cull.tile(&[Particle::at(2, t); 4]));
            assert!(cull.near.is_empty());
            assert!(!cull.tile(&[Particle::at(2, t), Particle::at(3, Vec2::new(bad, 0.1))]));
            assert_eq!(cull.near, [0, 1, 2].map(|j| (j, None)));
        }
        // A finite tile in reach of every chunk: its pairs ask for
        // themselves in a block of one group and not in a longer one.
        let mut cull = cull(0.71, Boundary::Open);
        for (chunks, asks) in [(3, true), (GROUP, true), (GROUP + 1, false)] {
            cull.boxes = vec![patch; chunks + chunks.div_ceil(GROUP)];
            cull.chunk_count = chunks;
            assert_eq!(cull.tile(&[Particle::at(2, t); 4]), asks);
            let whole = (0..chunks).map(|j| (j, Some(Vec2::zero())));
            assert_eq!(cull.near, whole.collect::<Vec<_>>());
        }
    }

    /// One draw of the two soundness properties below: a domain of any size
    /// and offset, a boundary, a radius from a ten-thousandth of the extent to
    /// thrice it, and targets and a box of sources up to three extents
    /// outside the domain (the displacement wraps once only).
    struct Draw {
        domain: Domain,
        boundary: Boundary,
        r_c: f64,
        /// Two point targets, or the first with `thalf` around it as a box.
        targets: [Vec2; 2],
        thalf: Vec2,
        sources: Aabb,
    }

    fn draw(rng: &mut StdRng, case: usize) -> Draw {
        let min = Vec2::new(1.0, -1.0) * [0.0, 1.0, 1e6, -1e-3][case % 4];
        let ext = Vec2::new(
            10f64.powf(rng.gen_range(-3.0..3.0)),
            10f64.powf(rng.gen_range(-3.0..3.0)),
        );
        let r_c = ext.x.min(ext.y) * 10f64.powf(rng.gen_range(-4.0..0.5));
        let mut point = || {
            Vec2::new(
                min.x + ext.x * rng.gen_range(-2.5..3.5),
                min.y + ext.y * rng.gen_range(-2.5..3.5),
            )
        };
        let (t0, centre) = (point(), point());
        let t1 = if case % 2 == 1 {
            t0 + ext * 1e-3
        } else {
            point()
        };
        let mut half =
            |case: usize| ext * 10f64.powf(rng.gen_range(-5.0..0.0)) * ((case % 5) as f64 / 4.0);
        let (half, thalf) = (half(case), half(case / 5));
        Draw {
            domain: Domain::new(min, min + ext),
            boundary: [Boundary::Open, Boundary::Reflective, Boundary::Periodic][case % 3],
            r_c,
            targets: [t0, t1],
            thalf,
            sources: (centre - half, centre + half),
        }
    }

    /// The corners of a box and, unless it is a point, 24 points inside it.
    fn sample(rng: &mut StdRng, (lo, hi): Aabb) -> Vec<Vec2> {
        let at = |lo: f64, hi: f64, u: f64| (lo + (hi - lo) * u).clamp(lo, hi);
        let inside = (0..if lo == hi { 0 } else { 24 }).map(|_| {
            Vec2::new(
                at(lo.x, hi.x, rng.gen_range(0.0..1.0)),
                at(lo.y, hi.y, rng.gen_range(0.0..1.0)),
            )
        });
        let corners = [lo, hi, Vec2::new(lo.x, hi.y), Vec2::new(hi.x, lo.y)];
        corners.into_iter().chain(inside).collect()
    }

    /// `law` answers `+0.0`, by bits, for every target against every source.
    fn assert_all_rejected(law: &Cutoff<Counting>, d: &Draw, targets: &[Vec2], sources: &[Vec2]) {
        for &s in sources {
            for &t in targets {
                let disp = d.boundary.displacement(&d.domain, t, s);
                let f = law.force(&Particle::at(0, t), &Particle::at(1, s), disp);
                assert_eq!(
                    [f.x.to_bits(), f.y.to_bits()],
                    [0.0f64.to_bits(); 2],
                    "{:?} {:?} r_c {}: {t:?} <- {s:?} in {:?}",
                    d.boundary,
                    d.domain,
                    d.r_c,
                    d.sources
                );
            }
        }
    }

    /// The soundness of the bound, on the implemented arithmetic: whenever
    /// [`Cull::beyond`] says a box of sources can be passed over for a box
    /// of targets, the cutoff law's own answer is `+0.0` for the corners of
    /// the one and random points inside it against the corners of the other
    /// and random points inside that. Every other case takes a point for the
    /// box of targets in each lane — two targets, the per-pair test.
    #[test]
    fn a_box_the_cull_passes_over_holds_nothing_the_law_accepts() {
        let mut rng = StdRng::seed_from_u64(0xC0FFEE);
        let mut passed_over = [[0u32; 3]; 2];
        for case in 0..12000 {
            let d = draw(&mut rng, case);
            let [t0, t1] = d.targets;
            let boxed = case % 2;
            let (tlo, thi) = if boxed == 1 {
                (Vec2x2::splat(t0 - d.thalf), Vec2x2::splat(t0 + d.thalf))
            } else {
                (Vec2x2::new(t0, t1), Vec2x2::new(t0, t1))
            };
            let cull = cull_of(&[], d.r_c, &d.domain, d.boundary);
            if !cull.beyond(&d.sources, tlo, thi, None) {
                continue;
            }
            passed_over[boxed][case % 3] += 1;
            let law = Cutoff::new(Counting, d.r_c);
            let [tlo, thi] = [tlo, thi].map(Vec2x2::to_lanes);
            let targets = [
                sample(&mut rng, (tlo[0], thi[0])),
                sample(&mut rng, (tlo[1], thi[1])),
            ]
            .concat();
            let sources = sample(&mut rng, d.sources);
            assert_all_rejected(&law, &d, &targets, &sources);
        }
        // Not vacuous under any boundary, for points or for boxes.
        assert!(
            passed_over.iter().flatten().all(|&n| n > 200),
            "{passed_over:?}"
        );
    }

    /// The soundness of the image, over the same draws: whenever
    /// [`Cull::image`] settles on a `k` for a box of targets and a box of
    /// sources, `Boundary::displacement` is `(s - t) - k` by bits for the
    /// corners of both and random points inside them, and what
    /// [`Cull::beyond`] passes over under that one image — for the box of
    /// targets, or for a point of it in each lane, as a pair of the tile asks
    /// — the law rejects.
    #[test]
    fn an_image_the_cull_settles_on_is_the_one_every_pair_takes() {
        let mut rng = StdRng::seed_from_u64(0xC0FFEE);
        // Per boundary and axis: no pair wraps, all wrap down, all wrap up.
        let mut settled = [[[0u32; 3]; 2]; 3];
        let mut passed_over = [[0u32; 3]; 2];
        for case in 0..12000 {
            let d = draw(&mut rng, case);
            let tbox = (d.targets[0] - d.thalf, d.targets[0] + d.thalf);
            let cull = cull_of(&[], d.r_c, &d.domain, d.boundary);
            let Some(k) = cull.image(&d.sources, tbox.0, tbox.1) else {
                continue;
            };
            let ext = d.domain.extent();
            for (axis, (k, ext)) in [(k.x, ext.x), (k.y, ext.y)].into_iter().enumerate() {
                let kind = [0.0, ext, -ext].iter().position(|&of| k == of).unwrap();
                assert!(kind == 0 || d.boundary == Boundary::Periodic);
                settled[case % 3][axis][kind] += 1;
            }
            let (targets, sources) = (sample(&mut rng, tbox), sample(&mut rng, d.sources));
            for &s in &sources {
                for &t in &targets {
                    let (want, got) = (d.boundary.displacement(&d.domain, t, s), (s - t) - k);
                    assert_eq!(
                        [want.x.to_bits(), want.y.to_bits()],
                        [got.x.to_bits(), got.y.to_bits()],
                        "case {case}: {:?} {:?}: {t:?} <- {s:?}, image {k:?}",
                        d.boundary,
                        d.domain
                    );
                }
            }
            let law = Cutoff::new(Counting, d.r_c);
            let (tlo, thi) = (Vec2x2::splat(tbox.0), Vec2x2::splat(tbox.1));
            if cull.beyond(&d.sources, tlo, thi, Some(k)) {
                passed_over[0][case % 3] += 1;
                assert_all_rejected(&law, &d, &targets, &sources);
            }
            for pair in targets.chunks(2) {
                let pos = Vec2x2::new(pair[0], pair[pair.len() - 1]);
                if cull.beyond(&d.sources, pos, pos, Some(k)) {
                    passed_over[1][case % 3] += 1;
                    assert_all_rejected(&law, &d, pair, &sources);
                }
            }
        }
        // Not vacuous: every kind of image on both axes under a period, the
        // one there is without, and boxes passed over under each.
        let [open, reflective, periodic] = settled;
        assert!(periodic.iter().flatten().all(|&n| n > 100), "{settled:?}");
        for walls in [open, reflective] {
            assert!(walls
                .iter()
                .all(|&[none, down, up]| none > 1000 && down + up == 0));
        }
        assert!(
            passed_over.iter().flatten().all(|&n| n > 200),
            "{passed_over:?}"
        );
    }

    #[test]
    fn an_image_is_settled_only_where_every_pair_agrees() {
        // The partner of `displacements_exactly_at_half_the_box_are_not_wrapped`
        // (tests/kernel_equivalence.rs): `displacement` wraps strictly beyond
        // half the extent, so bounds exactly at half are "no pair wraps".
        let domain = Domain::new(Vec2::zero(), Vec2::new(2.0, 1.0));
        let cull = cull_of(&[], 0.1, &domain, Boundary::Periodic);
        let image = |t: Aabb, s: Aabb| cull.image(&s, t.0, t.1);
        let point = |x: f64, y: f64| (Vec2::new(x, y), Vec2::new(x, y));
        let t = point(0.25, 0.125);
        assert_eq!(image(t, point(1.25, 0.625)), Some(Vec2::zero()));
        assert_eq!(image(point(1.25, 0.625), t), Some(Vec2::zero()));
        // One ulp past half on x wraps down, or up seen from the other side.
        let past = point(1.2500000000000002, 0.625);
        assert_eq!(image(t, past), Some(Vec2::new(2.0, 0.0)));
        assert_eq!(image(past, t), Some(Vec2::new(-2.0, 0.0)));
        // A box with points on both sides of half is not settled on that axis
        // alone, and so not at all.
        assert_eq!(image(t, (Vec2::new(1.2, 0.2), Vec2::new(1.3, 0.3))), None);
        assert_eq!(image(t, (Vec2::new(0.3, 0.6), Vec2::new(0.4, 0.7))), None);
        // Nor is one that only reaches half from beyond it: the pair exactly
        // at half does not wrap and the rest do.
        assert_eq!(image(t, (Vec2::new(1.25, 0.2), Vec2::new(1.3, 0.3))), None);
        assert_eq!(image((Vec2::new(1.25, 0.2), Vec2::new(1.3, 0.3)), t), None);
        // A box that is the plane — a NaN or an infinity inside it — is never
        // settled, whatever the boundary: what is not finite takes the path
        // it always took.
        let inf = Vec2::new(f64::INFINITY, f64::INFINITY);
        for boundary in [Boundary::Open, Boundary::Reflective, Boundary::Periodic] {
            let cull = cull_of(&[], 0.1, &domain, boundary);
            assert_eq!(cull.image(&(-inf, inf), t.0, t.1), None, "{boundary:?}");
            assert_eq!(cull.image(&t, -inf, inf), None, "{boundary:?}");
            assert_eq!(cull.image(&(-inf, inf), -inf, inf), None, "{boundary:?}");
        }
        // Between walls there is one image, however far apart the boxes.
        let open = cull_of(&[], 0.1, &domain, Boundary::Open);
        assert_eq!(open.image(&point(1e9, -1e9), t.0, t.1), Some(Vec2::zero()));
    }

    /// The ratchet without a clock: on one rank's three kernel calls of a
    /// `cutoff1d_lj_periodic` step — the geometry of `tests/kernel_equivalence.rs::
    /// the_cull_asks_about_few_enough_sources_on_the_benchmark_geometry`, the
    /// own block against itself, the east neighbour's and, across the x seam,
    /// slab 3's — every tile asks and every chunk it lists has its image
    /// settled, so under the cull the per-pair wrap never runs.
    #[test]
    fn no_near_chunk_of_the_benchmark_geometry_is_left_to_wrap_pair_by_pair() {
        let n = 8192;
        let domain = Domain::square((n as f64).sqrt() * 1.2);
        let law = Cutoff::new(Counting, 2.5);
        let mut lattice = init::lattice(n, &domain);
        init::thermalize(&mut lattice, 0.5, 42);
        for p in &mut lattice {
            p.pos = Boundary::Periodic
                .apply(&domain, p.pos + p.vel * (8.0 * 0.005), p.vel)
                .0;
        }
        let slab = |team: usize| {
            let mut block = crate::dist::spatial_subset_1d(&lattice, &domain, 4, team);
            cell_order(&mut block, &law, &domain);
            block
        };
        let own = slab(0);
        // Listed (tile, chunk) pairs, and those of them on another image.
        let visits = [0, 1, 3].map(|team| {
            let mut cull = cull_of(&slab(team), 2.5, &domain, Boundary::Periodic);
            let (mut listed, mut shifted) = (0, 0);
            for tile in own.chunks(CHUNK) {
                assert!(cull.tile(tile), "slab {team}");
                for &(j, image) in &cull.near {
                    let k = image.unwrap_or_else(|| panic!("slab {team}, chunk {j}: no image"));
                    listed += 1;
                    shifted += usize::from(k != Vec2::zero());
                }
            }
            (listed, shifted)
        });
        // 980 | 89 | 78 listed, 16 | 1 | 78 of them shifted: the own block
        // reaches itself through the top and bottom walls too, the east one
        // hardly, slab 3 through the x seam only.
        let [own, east, seam] = visits;
        assert!(own.0 > 0 && own.1 > 0 && own.1 < own.0 / 10, "{visits:?}");
        assert!(east.0 > 0 && east.1 < east.0 / 10, "{visits:?}");
        assert!(seam.0 > 0 && seam.1 == seam.0, "{visits:?}");
    }

    #[test]
    fn cell_order_snakes_through_the_cells_then_by_id_whatever_the_input_order() {
        let domain = Domain::new(Vec2::new(-1.0, 2.0), Vec2::new(3.0, 6.0));
        let law = Cutoff::new(Counting, 1.0);
        let at = |id: u64, x: f64, y: f64| Particle::at(id, Vec2::new(x, y));
        let mut block = vec![
            at(5, 2.5, 2.1),      // cell (3, 0)
            at(4, -0.5, 3.5),     // cell (0, 1)
            at(3, -0.9, 2.9),     // cell (0, 0)
            at(2, -0.1, 2.2),     // cell (0, 0), smaller id first
            at(1, 0.5, 2.5),      // cell (1, 0)
            at(0, f64::NAN, 5.5), // cell (0, 3): NaN counts as cell 0
            at(6, -7.0, 1.0),     // outside: row -1 comes first
            at(7, 2.5, 3.5),      // cell (3, 1): odd rows run right to left
            at(8, 1.5, 5.5),      // cell (2, 3)
            at(9, 0.5, 1.5),      // cell (1, -1): a negative odd row is odd
            at(10, -1e300, 5.5),  // column i64::MIN, negated: i64::MAX
            at(11, 1e300, 5.5),   // column i64::MAX, negated: ahead of the rest
        ];
        let mut reversed = block.clone();
        reversed.reverse();
        cell_order(&mut block, &law, &domain);
        cell_order(&mut reversed, &law, &domain);
        let ids = |b: &[Particle]| b.iter().map(|p| p.id).collect::<Vec<_>>();
        assert_eq!(ids(&block), [9, 6, 2, 3, 1, 5, 7, 4, 11, 8, 0, 10]);
        assert_eq!(ids(&reversed), ids(&block));
        // A law without a cutoff has no cell size: nothing moves.
        cell_order(&mut reversed, &Counting, &domain);
        assert_eq!(ids(&reversed), ids(&block));
        block.reverse();
        cell_order(&mut block, &Counting, &domain);
        assert_eq!(ids(&block), [10, 0, 8, 11, 4, 7, 5, 1, 3, 2, 6, 9]);
    }

    #[test]
    fn cell_order_is_one_order_whether_it_inserts_or_sorts() {
        let domain = Domain::unit();
        let law = Cutoff::new(Counting, 0.1);
        let sorted = |block: &[Particle]| {
            let mut want = block.to_vec();
            let cell = |x: f64| (x / 0.1).floor() as i64;
            want.sort_by_key(|p| {
                let (row, col) = (cell(p.pos.y), cell(p.pos.x));
                (row, if row % 2 == 0 { col } else { -col }, p.id)
            });
            want
        };
        // Id order says nothing of position: far past the insertion budget.
        let mut block = init::uniform(400, &domain, 11);
        let want = sorted(&block);
        cell_order(&mut block, &law, &domain);
        assert_eq!(block, want);
        // A step later a few have changed cell and migrants are appended.
        for p in block.iter_mut().step_by(57) {
            p.pos = Vec2::new(p.pos.y, p.pos.x);
        }
        block.extend(
            (400..403).map(|id| Particle::at(id, Vec2::new(0.05, 0.11 * (id - 399) as f64))),
        );
        let want = sorted(&block);
        assert_ne!(block, want);
        cell_order(&mut block, &law, &domain);
        assert_eq!(block, want);
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
        assert_eq!(block_interactions(huge, huge, true), u64::MAX - huge as u64);
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
    fn compute_stats_arithmetic() {
        let s = ComputeStats::for_block(100, 20, 10, 10, 2_000);
        assert_eq!(s.interactions, 100);
        assert_eq!(s.flops, 2_000);
        // Ten targets read and written at 64 B, ten sources read at 32 B.
        assert_eq!(s.bytes, 10 * 2 * 64 + 10 * 32);
        assert_eq!(s.gflops(), 1.0, "2000 FLOPs in 2000 ns is 1 GFLOP/s");
        assert!((s.intensity() - 2_000.0 / 1_600.0).abs() < 1e-12);

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
        // Nor is the clock read: a call that takes a millisecond reads 0.
        let stats = meter.time(2, 5, || {
            std::thread::sleep(std::time::Duration::from_millis(1));
            10
        });
        assert_eq!((stats.interactions, stats.nanos), (10, 0));
        // ... but nothing is recorded.
        assert!(rec.finish().is_none());
    }
}
