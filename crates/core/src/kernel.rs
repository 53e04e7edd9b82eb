//! The block-on-block force kernel shared by every distributed algorithm,
//! and [`ComputeMeter`], which times its calls into the `compute_*`
//! counters the roofline audit reads.

use std::borrow::Borrow;
use std::cell::RefCell;
use std::ops::Range;
use std::time::Instant;

use nbody_metrics::{Counter, MetricsRecorder};
use nbody_physics::{Boundary, Domain, ForceLaw, Particle, Source, Vec2, Vec2x2};

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
    /// Whether each pair asked stands for both of its ordered pairs, its
    /// reaction subtracted into the source's pending accumulator.
    const REACTS: bool;

    /// Whether the sources are the targets, in their order: each unordered
    /// pair is then met twice and asked by its lower index.
    const DIAGONAL: bool;

    /// The pending accumulators of the sources `run`, where their
    /// reactions go, or none.
    #[inline(always)]
    fn slots(pending: &mut [Vec2], run: Range<usize>) -> &mut [Vec2] {
        if Self::REACTS {
            &mut pending[run]
        } else {
            &mut []
        }
    }
}

/// Every ordered pair is asked for itself.
struct OneWay;

impl Reaction for OneWay {
    const REACTS: bool = false;
    const DIAGONAL: bool = false;
}

/// Newton's third law on a block against itself: the sources are the
/// targets, in their order, and the law promises `f_ji = −f_ij`
/// ([`ForceLaw::is_symmetric`]) and has a cutoff.
struct Newton;

impl Reaction for Newton {
    const REACTS: bool = true;
    const DIAGONAL: bool = true;
}

/// Newton's third law across two blocks: every reached source is walked,
/// and its reaction goes to a per-source accumulator that starts at zero
/// and is added to the caller's once the call is done. Under the same
/// promise as [`Newton`].
struct Across;

impl Reaction for Across {
    const REACTS: bool = true;
    const DIAGONAL: bool = false;
}

/// Whether a law lets the kernel ask a pair once for both of its ordered
/// pairs: it has a cutoff and promises `f_ji = −f_ij` (DESIGN.md §14.8).
/// The cutoff half of the gate leaves the all-pairs runs, whose bits the
/// scalar loop's oracle pins, on the loop they were.
pub fn symmetric_cutoff<F: ForceLaw>(law: &F) -> bool {
    law.cutoff().is_some() && law.is_symmetric()
}

/// Whether `sources` are `targets`: the same ids in the same order.
fn same_block<S: KernelSource>(targets: &[Particle], sources: &[S]) -> bool {
    targets.len() == sources.len() && targets.iter().zip(sources).all(|(t, s)| t.id == s.id())
}

/// The cell a coordinate measured in cells falls in: the floor of `v` as an
/// `i64` for every `f64` — NaN to 0, saturating at both ends — without
/// `floor`, a libm call on baseline x86-64. The cast truncates towards
/// zero, so a negative value that is not whole lands one cell high, and the
/// comparison, exact wherever it can hold, takes it back.
#[inline(always)]
fn cell(v: f64) -> i64 {
    let t = v as i64;
    t.saturating_sub(i64::from(v < t as f64))
}

/// The cell of a position, `[column, row]`, in cells of side `side` from
/// `min`: what [`cell_order`] sorts by, and where [`Cells`] puts its table's
/// corner. The table places each position by a product with `1 / side`
/// instead, the same cell but within a rounding of a cell's edge.
#[inline(always)]
fn cell_of(pos: Vec2, min: Vec2, side: f64) -> [i64; 2] {
    let u = (pos - min) / side;
    [cell(u.x), cell(u.y)]
}

/// Relative widening of a target's reach, far above the rounding of the few
/// operations between a position and its cell (DESIGN.md §14.2). It also
/// pays for a law whose own range test rounds differently from
/// `Vec2::norm_sq`, e.g. through a fused multiply-add.
const SLACK: f64 = 1e-9;

/// Cells per source, and a few more, that a block's table may have: a block
/// spread wider than that is indexed by coarser cells.
const CELLS_PER_SOURCE: f64 = 4.0;

/// A range of source or run indices, `(start, end)`.
type Span = (usize, usize);

/// What one kernel call under a cutoff law knows about where its sources
/// are: each maximal run of consecutive sources in one cell, by cell, built
/// once in O(sources + cells). The cells are [`cell_order`]'s, `r_c` on a
/// side, so a block in that order has one run per cell and one contiguous
/// span per row of cells; in any other order the runs are more and shorter.
/// A block spread over more than [`CELLS_PER_SOURCE`] cells per source is
/// indexed by coarser cells, and a source that is not finite sits in a slot
/// of its own that every pair walks. A call against another block indexes
/// only the sources in the strip its targets can reach ([`Cells::strip`]).
/// A pair gathers spans only when it reaches other cells than the last
/// pair did, and in a block against itself reads those cells from its
/// targets' places ([`Cells::places`]) where it can.
#[derive(Default)]
struct Cells {
    /// Sources in the block.
    len: usize,
    /// Where the table's first cell is, and the inverse of a cell's side: a
    /// position `p` is `(p - min) * per_unit - origin` cells from the
    /// table's corner.
    min: Vec2,
    per_unit: f64,
    origin: Vec2,
    /// The table's columns and rows, and how far from its corner the
    /// lowest and the highest indexed finite source may be, per axis.
    dims: [usize; 2],
    bounds: [(f64, f64); 2],
    /// `r_c` in cells, the domain extent in cells under
    /// `Boundary::Periodic` (zero otherwise), and the part of a target's
    /// [`SLACK`] that does not depend on the target.
    reach: f64,
    period: [f64; 2],
    slack: f64,
    /// `table[c]..table[c + 1]` are the runs of the table's cell `c`,
    /// row-major, those of slot `columns · rows` the runs of sources that
    /// are not finite, and those of the slot after it the runs of sources
    /// no target can reach; the runs follow from `runs_at`, a `start, end`
    /// pair each.
    table: Vec<usize>,
    runs_at: usize,
    /// How many runs of sources that are not finite there are, and whether
    /// the runs of each row are one range of sources, each row's after the
    /// row below's, as in cell order.
    everywhere: usize,
    ordered: bool,
    /// The cells the last reach computed reached, and the spans of sources
    /// they hold, in source order, and whether those leave any source out.
    reached: Reach,
    spans: Vec<Span>,
    culled: bool,
    /// Per source of a call whose sources are its targets, its cell packed
    /// as `row << 32 | column` where every pair that holds it as a target
    /// reaches the cells next to that one and no image of them, and
    /// `u64::MAX` where a pair may reach more (DESIGN.md §14.1).
    places: Vec<u64>,
    /// Per axis, the columns or rows, from and to, whose targets reach no
    /// image: see [`Cells::interior`].
    plain: [(i64, i64); 2],
    /// The columns and rows, from and to, the last pair read from its
    /// places reached when `spans` are still theirs, and [`NO_KEY`] if not.
    key: [u32; 4],
    /// The runs in source order, a `(start, slot)` each, as the per-source
    /// pass finds them: scratch, never shorter than the longest block yet.
    runs: Vec<Span>,
    /// Per axis and image, where a pair's targets must reach to along it,
    /// in cells from the table's corner, to reach an indexed source: set
    /// when the call has a strip and no source that is not finite, so that
    /// a pair outside them is shown nothing after a few comparisons.
    reject: Option<Strip>,
    /// Reaches computed and spans gathered since the refill.
    #[cfg(test)]
    work: Work,
}

/// The table cells a lane pair reaches, as one rectangle per image for both
/// targets or one for each: columns and then rows, a `from, to` pair per
/// image — itself, a period below, a period above — `0, 0` where it reaches
/// none, and no rows where it reaches no column.
type Reach = [u32; 24];

/// No columns or rows a pair can reach: see [`Cells::key`].
const NO_KEY: [u32; 4] = [u32::MAX; 4];

/// Per axis, closed intervals, one per image — itself, a period below, a
/// period above — of which a value must lie in one: see [`Cells::strip`].
type Strip = [[(f64, f64); 3]; 2];

/// The intervals of an axis on which any value lies in one, and of one on
/// which none does.
const EVERYWHERE: [(f64, f64); 3] = [(f64::NEG_INFINITY, f64::INFINITY), NOWHERE[0], NOWHERE[0]];
const NOWHERE: [(f64, f64); 3] = [(f64::INFINITY, f64::NEG_INFINITY); 3];

/// Whether `lo..=hi` meets one of `intervals`, without a branch.
#[inline(always)]
fn meets(intervals: &[(f64, f64); 3], lo: f64, hi: f64) -> bool {
    let meets = |(from, to): (f64, f64)| (from <= hi) & (lo <= to);
    meets(intervals[0]) | meets(intervals[1]) | meets(intervals[2])
}

/// The index work of one kernel call, counted.
#[cfg(test)]
#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct Work {
    reaches: u64,
    gathers: u64,
}

thread_local! {
    /// The last call's [`Cells`], whose vectors the next call under a
    /// cutoff law refills: a warm kernel call allocates nothing.
    static CELLS: RefCell<Cells> = RefCell::default();
}

thread_local! {
    /// The last [`Newton`] or [`Across`] call's pending accumulators, which
    /// the next one refills: a warm call that reacts allocates nothing
    /// either.
    static PENDING: RefCell<Vec<Vec2>> = const { RefCell::new(Vec::new()) };
}

/// The lowest and the highest of the finite positions, per axis, or
/// infinities the wrong way round when none is finite. Out of line, like
/// the per-source passes.
#[inline(never)]
fn finite_box<S: KernelSource>(block: &[S]) -> (Vec2, Vec2) {
    let inf = f64::INFINITY;
    let (mut lo, mut hi) = (Vec2::new(inf, inf), Vec2::new(-inf, -inf));
    for p in block.iter().map(S::pos) {
        // A position that is not finite stands in as the box itself, and
        // comparisons rather than `f64::min`, which would look for a NaN
        // that cannot be there: no branch on either.
        let (low, high) = match p.is_finite() {
            true => (p, p),
            false => (lo, hi),
        };
        lo = Vec2::new(
            if low.x < lo.x { low.x } else { lo.x },
            if low.y < lo.y { low.y } else { lo.y },
        );
        hi = Vec2::new(
            if high.x > hi.x { high.x } else { hi.x },
            if high.y > hi.y { high.y } else { hi.y },
        );
    }
    (lo, hi)
}

/// Where a block's table lies, in locals of the per-source passes that no
/// store of theirs can change: [`Cells::cells_from_corner`] and the slot
/// of a cell, `nowhere` that of a source that is not finite.
#[derive(Clone, Copy)]
struct Frame {
    min: Vec2,
    per_unit: f64,
    origin: Vec2,
    dims: [usize; 2],
    nowhere: usize,
}

impl Frame {
    /// The table column and row of `u` cells from the corner: rounding may
    /// put the lowest source a hair below zero, the highest on the table's
    /// far edge.
    #[inline(always)]
    fn at(&self, u: Vec2) -> [usize; 2] {
        let at = |u: f64, dim: usize| (u as i64).max(0).min(dim as i64 - 1) as usize;
        [at(u.x, self.dims[0]), at(u.y, self.dims[1])]
    }
}

// The two per-source passes stay out of line: inlined into the refill they
// ran at about half the speed.

/// Into `found`, the runs of `sources` in source order, a `(start, slot)`
/// each, a source outside the `strip` in slot `unreached`; how many.
#[inline(never)]
fn runs_in_strip<S: KernelSource>(
    sources: &[S],
    frame: Frame,
    strip: &Strip,
    unreached: usize,
    found: &mut [Span],
) -> usize {
    let (mut runs, mut last) = (0, usize::MAX);
    // An axis the strip does not narrow is not asked about.
    let [x, y] = strip.map(|s| s != EVERYWHERE);
    for (k, s) in sources.iter().enumerate() {
        let pos = s.pos();
        let u = (pos - frame.min) * frame.per_unit - frame.origin;
        let slot = if !pos.is_finite() {
            frame.nowhere
        } else if x && !meets(&strip[0], u.x, u.x) || y && !meets(&strip[1], u.y, u.y) {
            unreached
        } else {
            let [column, row] = frame.at(u);
            row * frame.dims[0] + column
        };
        // Written whatever it is, kept only where a run starts.
        found[runs] = (k, slot);
        runs += usize::from(slot != last);
        last = slot;
    }
    runs
}

/// Into `found`, the runs of `sources` in source order, a `(start, slot)`
/// each, and into `places` the place of each ([`Cells::places`]): a
/// source more than `margin` from the middle of its cell on an axis has
/// none. How many runs.
#[inline(never)]
fn runs_and_places<S: KernelSource>(
    sources: &[S],
    frame: Frame,
    margin: f64,
    found: &mut [Span],
    places: &mut [u64],
) -> usize {
    let (mut runs, mut last) = (0, usize::MAX);
    for ((k, s), place) in sources.iter().enumerate().zip(places) {
        let pos = s.pos();
        let u = (pos - frame.min) * frame.per_unit - frame.origin;
        let [column, row] = frame.at(u);
        let slot = match pos.is_finite() {
            true => row * frame.dims[0] + column,
            false => frame.nowhere,
        };
        found[runs] = (k, slot);
        runs += usize::from(slot != last);
        last = slot;
        let off = |u: f64, c: usize| (u - c as f64 - 0.5).abs() < margin;
        *place = match off(u.x, column) & off(u.y, row) {
            true => (row as u64) << 32 | column as u64,
            false => u64::MAX,
        };
    }
    runs
}

impl Cells {
    /// Forget the last call's sources and index all of these.
    #[cfg(test)]
    fn refill<S: KernelSource>(
        &mut self,
        sources: &[S],
        r_c: f64,
        domain: &Domain,
        boundary: Boundary,
    ) {
        self.refill_for(None, sources, r_c, domain, boundary);
    }

    /// Forget the last call's sources and index these: all of them when the
    /// sources are the targets (`None`), and otherwise those in the strip a
    /// finite target can reach, the rest in a slot no pair walks.
    fn refill_for<S: KernelSource>(
        &mut self,
        targets: Option<&[Particle]>,
        sources: &[S],
        r_c: f64,
        domain: &Domain,
        boundary: Boundary,
    ) {
        let (lo, hi) = finite_box(sources);
        // No pair reaches past the last row and column, and none reuses
        // the last call's spans.
        (self.len, self.min, self.reached) = (sources.len(), domain.min, [u32::MAX; 24]);
        (self.reject, self.key) = (None, NO_KEY);
        #[cfg(test)]
        {
            self.work = Work::default();
        }
        // The cells from the lowest finite source's to the highest's, none
        // when there is no finite source, coarser while they are too many.
        let most = CELLS_PER_SOURCE * sources.len() as f64 + 16.0;
        // The law's promise is about `r_c * r_c`; a side of zero would
        // never grow.
        let r_c = r_c.abs();
        let mut side = r_c.max(f64::MIN_POSITIVE);
        let (first, dims) = loop {
            let [first, last] = [lo, hi].map(|p| cell_of(p, self.min, side));
            let dims = [0, 1].map(|a| (last[a] as f64 - first[a] as f64 + 1.0).max(0.0));
            if dims[0] * dims[1] <= most {
                break (first, dims);
            }
            side *= (dims[0] * dims[1] / most).sqrt().max(2.0);
        };
        (self.per_unit, self.reach) = (1.0 / side, r_c / side);
        self.origin = Vec2::new(first[0] as f64, first[1] as f64);
        self.dims = dims.map(|d| d as usize);
        let [lo, hi] = [lo, hi].map(|p| self.cells_from_corner(p));
        self.bounds = [(lo.x, hi.x), (lo.y, hi.y)];
        let ext = domain.extent() / side;
        self.period = match boundary {
            Boundary::Periodic => [ext.x, ext.y],
            _ => [0.0; 2],
        };
        let [px, py] = self.period;
        let far = self.origin.x.abs() + self.origin.y.abs();
        self.slack = (far + px + py + self.reach + 1.0) * SLACK;
        let strip = targets.and_then(|targets| self.strip(targets));
        // The runs in source order, a `(start, slot)` each, in the scratch;
        // then counted by slot, placed, and the counts shifted into bounds.
        let [columns, rows] = self.dims;
        let (nowhere, unreached) = (columns * rows, columns * rows + 1);
        let slots = columns * rows + 2;
        // A vector that has to grow takes an eighth more than this block
        // needs: the next block is a neighbour's, or this one a few
        // migrants on. The per-source scratch is never shortened, so that
        // nothing is written to it twice.
        fn room<T>(v: &mut Vec<T>, len: usize) {
            v.clear();
            if v.capacity() < len {
                v.reserve(len + len / 8);
            }
        }
        fn scratch<T: Clone>(v: &mut Vec<T>, len: usize, fill: T) {
            if v.len() < len {
                v.resize(len + len / 8, fill);
            }
        }
        room(&mut self.spans, sources.len());
        scratch(&mut self.runs, sources.len() + 1, (0, 0));
        let frame = Frame {
            min: self.min,
            per_unit: self.per_unit,
            origin: self.origin,
            dims: self.dims,
            nowhere,
        };
        // Places only where the sources are the targets.
        let runs = if targets.is_some() {
            let strip = strip.unwrap_or([EVERYWHERE; 2]);
            runs_in_strip(sources, frame, &strip, unreached, &mut self.runs)
        } else {
            // A margin nothing is inside when no source has a place.
            let (margin, plain) = self.interior().unwrap_or((f64::NAN, [(0, -1); 2]));
            self.plain = plain;
            scratch(&mut self.places, sources.len(), u64::MAX);
            runs_and_places(sources, frame, margin, &mut self.runs, &mut self.places)
        };
        let found = &self.runs[..runs];
        self.runs_at = slots + 1;
        let len = self.runs_at + 2 * found.len();
        room(&mut self.table, len);
        self.table.resize(len, 0);
        for &(_, slot) in found {
            self.table[slot + 1] += 1;
        }
        for c in 1..slots {
            self.table[c] += self.table[c - 1];
        }
        for (j, &(start, slot)) in found.iter().enumerate() {
            let end = found.get(j + 1).map_or(sources.len(), |s| s.0);
            let at = self.runs_at + 2 * self.table[slot];
            self.table[slot] += 1;
            self.table[at..at + 2].copy_from_slice(&[start, end]);
        }
        self.table.copy_within(0..slots, 1);
        self.table[0] = 0;
        self.everywhere = self.table[nowhere + 1] - self.table[nowhere];
        if self.everywhere > 0 {
            self.reject = None;
        }
        // Whether every row's runs, column by column, follow each other in
        // one direction — then so do those of any columns of a row — and
        // each row's follow the last row's.
        let mut end = 0;
        self.ordered = (0..rows).all(|row| {
            let runs = &self.table[self.runs_at..][2 * self.table[row * columns]..];
            let runs = &runs[..2 * (self.table[(row + 1) * columns] - self.table[row * columns])];
            let next = || runs.chunks_exact(2).zip(runs.chunks_exact(2).skip(1));
            let (Some(first), Some(last)) = (runs.first_chunk::<2>(), runs.last_chunk::<2>())
            else {
                return true;
            };
            let one = next().all(|(a, b)| a[1] == b[0]) || next().all(|(a, b)| b[1] == a[0]);
            let after = first[0].min(last[0]) >= end;
            end = first[1].max(last[1]);
            one && after
        });
    }

    /// How far a source of a block against itself must lie from its
    /// cell's middle along each axis, in cells, for every pair of targets
    /// holding it to reach the cells next to its own, and per axis the
    /// cells all of whose targets reach no image: `None` when the table is
    /// coarser than `r_c`, where a pair may reach fewer.
    fn interior(&self) -> Option<(f64, [(i64, i64); 2])> {
        // The widest `w` a pair of these targets can take. A pair whose
        // targets lie in cells next to each other, each more than `w - 1`
        // from its cell's edges, reaches from the cell below the lower to
        // the cell above the higher on each axis, whatever its `w` in
        // `reach..=w`; and no image while each target is more than `w`
        // below the bounds' image a period up and above that a period down.
        let [(lx, hx), (ly, hy)] = self.bounds;
        let far = lx.abs().max(hx.abs()) + ly.abs().max(hy.abs());
        let w = self.reach + far * SLACK + self.slack;
        if !(self.reach >= 1.0 && w < 1.5) {
            return None;
        }
        let cells = [0, 1].map(|axis| {
            let ((lowest, highest), p) = (self.bounds[axis], self.period[axis]);
            match p > 0.0 {
                true => (cell(highest - p + w) + 1, cell(lowest + p - w) - 1),
                false => (i64::MIN, i64::MAX),
            }
        });
        Some((1.5 - w, cells))
    }

    /// Per axis, the intervals — one per image — in which a source must
    /// lie to be within reach of a finite target of `targets`, as a pair
    /// would widen them, the whole axis where one of them holds every
    /// finite source, and `None` if that is so on both; the bounds narrowed
    /// to what the intervals hold, and [`Cells::reject`] set from them. A
    /// source outside them on either axis is one the law rejects for every
    /// target: every source a pair's reach must show lies within its
    /// rectangle widened by its `w` (§14.2), and the targets' box, widened
    /// by the largest `w` a pair of them can take, holds every such
    /// rectangle.
    fn strip(&mut self, targets: &[Particle]) -> Option<Strip> {
        let (lo, hi) = finite_box(targets);
        let [lo, hi] = [lo, hi].map(|p| self.cells_from_corner(p));
        let far = lo.x.abs().max(hi.x.abs()) + lo.y.abs().max(hi.y.abs());
        let w = self.reach + far * SLACK + self.slack;
        // No finite target, or a radius that is no number of cells, rules
        // nothing out.
        if !(lo.is_finite() && hi.is_finite() && w.is_finite()) {
            return None;
        }
        let ends = [(lo.x - w, hi.x + w), (lo.y - w, hi.y + w)];
        let (mut strip, mut reject) = ([EVERYWHERE; 2], [EVERYWHERE; 2]);
        for axis in 0..2 {
            let ((a, b), p) = (ends[axis], self.period[axis]);
            let (lowest, highest) = self.bounds[axis];
            let images = if p > 0.0 { 3 } else { 1 };
            let mut intervals = NOWHERE;
            for (interval, k) in intervals.iter_mut().zip([0.0, -p, p]).take(images) {
                *interval = (a + k, b + k);
            }
            if intervals.iter().any(|&(a, b)| a <= lowest && highest <= b) {
                continue;
            }
            // The hull of what the intervals hold of the bounds, and where a
            // target must be, per image, to come within `w` of it.
            let held = intervals
                .iter()
                .map(|&(a, b)| (a.max(lowest), b.min(highest)));
            let held = held.filter(|(a, b)| a <= b);
            let (lowest, highest) = held.fold(NOWHERE[0], |h, (a, b)| (h.0.min(a), h.1.max(b)));
            self.bounds[axis] = (lowest, highest);
            reject[axis] = NOWHERE;
            for (interval, k) in reject[axis].iter_mut().zip([0.0, -p, p]).take(images) {
                *interval = (lowest - k - w, highest - k + w);
            }
            strip[axis] = intervals;
        }
        let filtered = strip != [EVERYWHERE; 2];
        self.reject = filtered.then_some(reject);
        filtered.then_some(strip)
    }

    /// How many cells `p` is from the table's corner, per axis.
    #[inline(always)]
    fn cells_from_corner(&self, p: Vec2) -> Vec2 {
        (p - self.min) * self.per_unit - self.origin
    }

    /// [`Cells::near`] for the lane pair of targets `i` and `j` of a call
    /// whose sources are its targets, at `pos`: read from their places
    /// when both have one and their cells are the same or next to each
    /// other along an axis — the three cells either side, at most three
    /// rows of cells, the same cells for every pair in those two — and
    /// computed as [`Cells::near`] computes them if not.
    #[inline(always)]
    fn near_in_block(&mut self, i: usize, j: usize, pos: Vec2x2) -> Option<(&[Span], bool)> {
        let (a, b) = (self.places[i], self.places[j]);
        let [x, y] = [[a as u32, b as u32], [(a >> 32) as u32, (b >> 32) as u32]];
        let plain = |[a, b]: [u32; 2], (from, to): (i64, i64)| {
            from <= a.min(b) as i64 && b.max(a) as i64 <= to
        };
        let next = |[a, b]: [u32; 2]| a.abs_diff(b);
        let placed = a != u64::MAX && b != u64::MAX;
        if !(placed && next(x) + next(y) <= 1 && plain(x, self.plain[0]) && plain(y, self.plain[1]))
        {
            return self.near(pos);
        }
        // The cell either side of the two, clamped to the table.
        let around = |[a, b]: [u32; 2], dim: usize| {
            (a.min(b).saturating_sub(1), (a.max(b) + 2).min(dim as u32))
        };
        let ((from, to), (bottom, top)) = (around(x, self.dims[0]), around(y, self.dims[1]));
        if [from, to, bottom, top] != self.key {
            self.gather_key([from, to, bottom, top]);
        }
        Some((&self.spans, self.culled))
    }

    /// The spans of the columns `key[0]..key[1]` of the rows
    /// `key[2]..key[3]`, what a pair with those places reaches.
    #[inline(never)]
    fn gather_key(&mut self, key: [u32; 4]) {
        let mut reached = [0; 24];
        [reached[0], reached[1], reached[6], reached[7]] = key;
        (self.reached, self.key) = (reached, key);
        if self.ordered && self.everywhere == 0 {
            self.gather_rows(key);
        } else {
            self.gather(&reached);
        }
    }

    /// The spans of the columns `from..to` of the rows `bottom..top` of a
    /// block in cell order with every source finite: a span per row, in
    /// row order, which is source order.
    #[inline(always)]
    fn gather_rows(&mut self, [from, to, bottom, top]: [u32; 4]) {
        #[cfg(test)]
        {
            self.work.gathers += 1;
        }
        self.spans.clear();
        let (columns, runs) = (self.dims[0], &self.table[self.runs_at..]);
        let (from, to) = (from as usize, to as usize);
        let mut shown = 0;
        for row in bottom as usize..top as usize {
            let at = row * columns;
            let (first, last) = (self.table[at + from], self.table[at + to]);
            if first == last {
                continue;
            }
            let (a, b) = (&runs[2 * first..], &runs[2 * last - 2..]);
            let (start, end) = (a[0].min(b[0]), a[1].max(b[1]));
            shown += end - start;
            match self.spans.last_mut() {
                Some(span) if span.1 == start => span.1 = end,
                _ => self.spans.push((start, end)),
            }
        }
        self.culled = shown < self.len;
    }

    /// The spans of sources a lane pair at `pos` is shown — the runs of the
    /// cells within `r_c` of either target and of the slot of sources that
    /// are not finite — in source order, and whether they leave any source
    /// out. `None` when a target is not finite, or so far out that it is
    /// not a finite number of cells from the table: it is shown every
    /// source. A pair the strip rejects is shown nothing; any other
    /// computes its reach.
    #[inline(always)]
    fn near(&mut self, pos: Vec2x2) -> Option<(&[Span], bool)> {
        let [t0, t1] = pos.to_lanes();
        let [u0, u1] = [t0, t1].map(|t| self.cells_from_corner(t));
        if !(u0.is_finite() && u1.is_finite()) {
            return None;
        }
        let (lo, hi) = (u0.min(u1), u0.max(u1));
        // The strip reject: a pair none of whose images comes near the
        // strip along an axis reaches nothing.
        if let Some(reject) = &self.reject {
            if !(meets(&reject[0], lo.x, hi.x) & meets(&reject[1], lo.y, hi.y)) {
                return Some((&[], self.len > 0));
            }
        }
        // The two targets share one rectangle of cells per image when they
        // are within a cell of each other on both axes, as neighbours in
        // cell order mostly are; otherwise each has its own.
        let far = lo.x.abs().max(hi.x.abs()) + lo.y.abs().max(hi.y.abs());
        let w = self.reach + far * SLACK + self.slack;
        let shared = hi.x - lo.x <= 1.0 && hi.y - lo.y <= 1.0;
        self.reach(u0, u1, w, shared);
        Some((&self.spans, self.culled))
    }

    /// The cells a pair at `u0` and `u1` cells from the corner reaches with
    /// its `w`, in one rectangle if `shared`, and the spans they hold.
    #[inline(never)]
    fn reach(&mut self, u0: Vec2, u1: Vec2, w: f64, shared: bool) {
        #[cfg(test)]
        {
            self.work.reaches += 1;
        }
        let widened = |lo: Vec2, hi: Vec2| [lo.x - w, hi.x + w, lo.y - w, hi.y + w];
        let ends = widened(u0.min(u1), u0.max(u1));
        // Rows only for a rectangle that reaches a column: most of a
        // neighbour block's targets reach none.
        let mut reached = [0; 24];
        let rectangles = if shared {
            &[ends][..]
        } else {
            &[widened(u0, u0), widened(u1, u1)][..]
        };
        for (e, reach) in rectangles.iter().zip(reached.chunks_exact_mut(12)) {
            let (columns, rows) = reach.split_at_mut(6);
            if self.reach_along(0, e[0], e[1], columns) {
                self.reach_along(1, e[2], e[3], rows);
            }
        }
        // The last pair's spans stand when it reached the same cells.
        // Compared whole, without a branch per entry.
        let changed = reached
            .iter()
            .zip(&self.reached)
            .fold(0, |d, (a, b)| d | (a ^ b));
        if changed != 0 {
            (self.reached, self.key) = (reached, NO_KEY);
            self.gather(&reached);
        }
    }

    /// Into `out`, zeroed, the table columns (`axis` 0) or rows (1) that
    /// hold a cell within reach of a rectangle whose ends, widened, are `a`
    /// and `b` cells from the table's corner along `axis`, per image of it;
    /// left empty where no indexed finite source is that near, and for the
    /// two images where there is no period. The whole axis for an image
    /// past the largest float. Whether any is not empty.
    #[inline(always)]
    fn reach_along(&self, axis: usize, a: f64, b: f64, out: &mut [u32]) -> bool {
        let (period, (lowest, highest)) = (self.period[axis], self.bounds[axis]);
        let last = self.dims[axis] as i64 - 1;
        let images = if period > 0.0 { 3 } else { 1 };
        let mut any = false;
        for (image, k) in [0.0, -period, period].into_iter().enumerate().take(images) {
            let (lo, hi) = (a + k, b + k);
            if hi < lowest || lo > highest {
                continue;
            }
            any = true;
            let out = &mut out[2 * image..2 * image + 2];
            if !(lo.is_finite() && hi.is_finite()) {
                (out[0], out[1]) = (0, last as u32 + 1);
                continue;
            }
            let [from, to] = [lo, hi].map(cell);
            // A cast takes what lies below zero to zero.
            let index = |c: i64| c.max(0).min(last) as u32;
            (out[0], out[1]) = (index(from), index(to) + 1);
        }
        any
    }

    /// Fill the spans with the runs of every cell both targets reach, and
    /// of the slot of sources that are not finite, in source order.
    fn gather(&mut self, reached: &Reach) {
        // A block in cell order, every source finite, and one rectangle
        // that reaches only cells of itself: three rows for a pair inside
        // the table, read straight from it.
        let alone = reached[2..6].iter().chain(&reached[8..]).all(|&v| v == 0);
        if self.ordered && self.everywhere == 0 && alone {
            return self.gather_rows([reached[0], reached[1], reached[6], reached[7]]);
        }
        #[cfg(test)]
        {
            self.work.gathers += 1;
        }
        self.spans.clear();
        for reach in [&reached[..12], &reached[12..]] {
            for k in (6..12).step_by(2) {
                for row in reach[k] as usize..reach[k + 1] as usize {
                    let at = row * self.dims[0];
                    for j in (0..6).step_by(2) {
                        let (from, to) = (reach[j] as usize, reach[j + 1] as usize);
                        if from < to {
                            let (first, last) = (self.table[at + from], self.table[at + to]);
                            self.push_runs(first, last, self.ordered);
                        }
                    }
                }
            }
        }
        let slot = self.dims[0] * self.dims[1];
        self.push_runs(self.table[slot], self.table[slot + 1], false);
        // In source order, which a block in cell order has already, then
        // overlaps and neighbours joined.
        if !self.spans.is_sorted_by_key(|s| s.0) {
            self.spans.sort_unstable_by_key(|s| s.0);
        }
        let mut kept = 0;
        for j in 0..self.spans.len() {
            let (start, end) = self.spans[j];
            match kept {
                1.. if start <= self.spans[kept - 1].1 => {
                    let last = &mut self.spans[kept - 1].1;
                    *last = (*last).max(end);
                }
                _ => {
                    self.spans[kept] = (start, end);
                    kept += 1;
                }
            }
        }
        self.spans.truncate(kept);
        let shown: usize = self.spans.iter().map(|(start, end)| end - start).sum();
        self.culled = shown < self.len;
    }

    /// Add the runs `first..last` as one span if they are one range of
    /// sources — known to be when they are `one` row's in order — and one by
    /// one if not.
    #[inline(always)]
    fn push_runs(&mut self, first: usize, last: usize, one: bool) {
        if first == last {
            return;
        }
        let runs = &self.table[self.runs_at + 2 * first..self.runs_at + 2 * last];
        if one {
            let (a, b) = (&runs[..2], &runs[runs.len() - 2..]);
            self.spans.push((a[0].min(b[0]), a[1].max(b[1])));
            return;
        }
        let (mut lo, mut hi, mut len) = (usize::MAX, 0, 0);
        for run in runs.chunks_exact(2) {
            (lo, hi, len) = (lo.min(run[0]), hi.max(run[1]), len + run[1] - run[0]);
        }
        if lo + len == hi {
            self.spans.push((lo, hi));
        } else {
            self.spans
                .extend(runs.chunks_exact(2).map(|run| (run[0], run[1])));
        }
    }
}

/// A particle's place in [`cell_order`]: cell row, cell column — negated
/// in odd rows — and id.
type CellKey = (i64, i64, u64);

/// [`cell_order`]'s keys of the block it is ordering and the scratch of
/// its sort.
#[derive(Default)]
struct CellSort {
    keys: Vec<CellKey>,
    /// Per cell, where its particles go and then where they end.
    counts: Vec<usize>,
    /// The block's indices in their new order, and the particles in it.
    order: Vec<usize>,
    moved: Vec<Particle>,
}

thread_local! {
    /// Kept from step to step, so that ordering a block allocates nothing
    /// once one this long has been ordered.
    static CELL_SORT: RefCell<CellSort> = RefCell::default();
}

impl CellSort {
    /// Put `block`, whose keys are `keys`, in their order: counted into its
    /// cells and inserted by id within each, which holds a few; or compared,
    /// when the block spans more cells than [`CELLS_PER_SOURCE`] per
    /// particle, as one far out or at an infinity does.
    fn sort(&mut self, block: &mut [Particle]) {
        let keys = &self.keys;
        let hull = |of: fn(&CellKey) -> i64| {
            let (lo, hi) = keys
                .iter()
                .map(of)
                .fold((i64::MAX, i64::MIN), |(lo, hi), v| (lo.min(v), hi.max(v)));
            (lo, hi as f64 - lo as f64 + 1.0)
        };
        let ((bottom, rows), (left, columns)) = (hull(|k| k.0), hull(|k| k.1));
        self.order.clear();
        if rows * columns <= CELLS_PER_SOURCE * block.len() as f64 + 16.0 {
            let cells = rows as usize * columns as usize;
            let cell =
                |k: &CellKey| (k.0 - bottom) as usize * columns as usize + (k.1 - left) as usize;
            self.counts.clear();
            self.counts.resize(cells + 1, 0);
            for k in keys {
                self.counts[cell(k) + 1] += 1;
            }
            for c in 1..=cells {
                self.counts[c] += self.counts[c - 1];
            }
            self.order.resize(block.len(), 0);
            for (i, k) in keys.iter().enumerate() {
                let at = &mut self.counts[cell(k)];
                self.order[*at] = i;
                *at += 1;
            }
            let mut start = 0;
            for &end in &self.counts[..cells] {
                let cell = &mut self.order[start..end];
                for i in 1..cell.len() {
                    let mut j = i;
                    while j > 0 && keys[cell[j - 1]].2 > keys[cell[j]].2 {
                        cell.swap(j - 1, j);
                        j -= 1;
                    }
                }
                start = end;
            }
        } else {
            self.order.extend(0..block.len());
            self.order.sort_unstable_by_key(|&i| keys[i]);
        }
        self.moved.clear();
        self.moved.extend(self.order.iter().map(|&i| block[i]));
        block.copy_from_slice(&self.moved);
    }
}

/// Put a block in the order the cull reads it in: by `r_c`-sized cell —
/// the cells the kernel indexes its sources by — rows bottom to top, even
/// rows left to right and odd rows right to left, ties by id (nothing moves
/// under a law without a cutoff). Each cell's particles are then one run
/// and each row of cells one range of the block, so a lane pair walks a
/// few ranges, and the two lanes of a pair are neighbours, also where a row
/// turns round into the next. The cutoff drivers call it on the team
/// leader before the broadcast. A total order on distinct ids, so the
/// result does not depend on the order `block` arrives in.
///
/// The cost does: a leader's block arrives as last step's order, a few
/// particles having drifted over a cell edge and a few migrants appended,
/// so each key is computed once (a cast and a comparison per axis, not a
/// libm `floor`) and the displaced few are inserted where they belong. A
/// block that needs more than `INSERT_BUDGET` moves per particle passed,
/// as a freshly dealt one does early on, is sorted outright: counted into
/// its cells, by id within each.
pub fn cell_order<F: ForceLaw>(block: &mut [Particle], law: &F, domain: &Domain) {
    let Some(r_c) = law.cutoff() else { return };
    let key = |p: &Particle| -> CellKey {
        // Any position gets some cell: NaN cell 0, far out the first or
        // the last.
        let [col, row] = cell_of(p.pos, domain.min, r_c);
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
    CELL_SORT.with_borrow_mut(|sort| {
        let keys = &mut sort.keys;
        keys.clear();
        keys.extend(block.iter().map(key));
        let mut moved = 0;
        for i in 1..block.len() {
            if keys[i - 1] <= keys[i] {
                continue;
            }
            let at = keys[..i].partition_point(|k| *k < keys[i]);
            // Within the budget per particle passed so far, and a few more:
            // a block nobody ordered overruns it early, before the moves
            // spent on it grow.
            moved += i - at;
            if moved > INSERT_BUDGET * (i + INSERT_AHEAD) {
                return sort.sort(block);
            }
            keys[at..=i].rotate_right(1);
            block[at..=i].rotate_right(1);
        }
    });
}

/// Places, per particle passed, that [`cell_order`]'s insertions may move
/// particles through before it gives up and sorts, and the particles ahead
/// it may spend the budget of: a step's drift and migrants stay far within
/// it, a freshly dealt block overruns it within a hundred particles.
const INSERT_BUDGET: usize = 8;
const INSERT_AHEAD: usize = 64;

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
/// Under a law with a cutoff each lane pair walks only the spans [`Cells`]
/// gives it, the runs of the cells within `r_c` of its two targets, in
/// source order, and a pair with a NaN or infinite target the whole block,
/// as it always did. The law would have answered `+0.0` for each source
/// passed over ([`ForceLaw::cutoff`]): each target still adds its non-zero
/// terms in the scalar loop's sequence, and one final `+ 0.0` per pair that
/// had anything passed over stands in for all the zeros — adding `+0.0`
/// changes an accumulator only from `-0.0` to `+0.0`, and once that has
/// happened no sum returns to `-0.0`. A passed-over cell cannot hold a
/// target's own id, because a particle is where it is. Without a cutoff the
/// pairs walk the whole block, the loop it always was.
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
/// were, so the copies of the nest under [`OneWay`] are the loop they were.
///
/// Under [`Across`] every pair walks what it always walked, each source's
/// `−f` going to its pending accumulator, which starts at `+0.0`: a source
/// gathers its reactions in target order, and `reactions` then adds them
/// once, source by source. Subtracting a passed-over pair's `+0.0` would
/// change no accumulator, so the cull needs no stand-in there.
fn nest<S: KernelSource, F: ForceLaw, H: Harvest, R: Reaction>(
    targets: &mut [Particle],
    sources: &[S],
    law: &F,
    domain: &Domain,
    boundary: Boundary,
    harvest: &mut H,
    reactions: &mut [Vec2],
) -> u64 {
    // The thread's `Cells` is taken for the call and handed back after it,
    // not borrowed as `CELL_SORT` is: the nest owns it as a local, and its
    // copy for a law without a cutoff has no trace of it (DESIGN.md §14.1).
    // Whether the sources are the targets, as under `Newton` they are: then
    // a strip would hold them all, and the targets have places.
    let mut same = R::DIAGONAL;
    let mut cells = law.cutoff().map(|r_c| {
        let mut cells = CELLS.take();
        same |= same_block(targets, sources);
        let others = (!same).then_some(&*targets);
        cells.refill_for(others, sources, r_c, domain, boundary);
        cells
    });
    // Under `Newton` every target's accumulator, where the reactions of the
    // sources before it gather until its pair loads it; under `Across`
    // every source's reactions, from zero.
    let mut pending = if R::REACTS {
        let mut pending = PENDING.take();
        pending.clear();
        match R::DIAGONAL {
            true => pending.extend(targets.iter().map(|t| t.force)),
            false => pending.resize(sources.len(), Vec2::zero()),
        }
        pending
    } else {
        Vec::new()
    };
    // A block against itself under `Newton` never meets its self pairs:
    // they are counted here.
    let mut skipped: u64 = if R::DIAGONAL { targets.len() as u64 } else { 0 };
    // By value: the walk's copy is its own, kept in registers.
    let place = (*domain, boundary);
    for (pair_index, pair) in targets.chunks_mut(2).enumerate() {
        // Where the pair sits in the block, and the first source it walks:
        // under `Newton` the one after it.
        let i = 2 * pair_index;
        let from = if R::DIAGONAL { i + pair.len() } else { 0 };
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
        let mut acc = if R::DIAGONAL {
            Vec2x2::new(pending[i], pending[i + lanes.pair.len() - 1])
        } else {
            Vec2x2::new(t0.force, t1.force)
        };
        if R::DIAGONAL && lanes.pair.len() == 2 {
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
        // Asked of the law, not of `cells`: a constant once monomorphised,
        // so the copy for a law without a cutoff has no trace of the index.
        let near = match (law.cutoff(), cells.as_mut()) {
            (Some(_), Some(cells)) if same => {
                cells.near_in_block(i, i + lanes.pair.len() - 1, lanes.pos)
            }
            (Some(_), Some(cells)) => cells.near(lanes.pos),
            _ => None,
        };
        match near {
            Some((spans, culled)) => {
                for &(start, end) in spans {
                    let run = start.max(from)..end;
                    if run.is_empty() {
                        continue;
                    }
                    let slots = R::slots(&mut pending, run.clone());
                    let (h, s) = (&mut *harvest, &mut skipped);
                    acc = walk::<_, _, _, R>(&lanes, acc, &sources[run], slots, law, h, s, place);
                }
                if culled {
                    acc += Vec2x2::zero();
                }
            }
            None => {
                // A pair with a target that is not finite, and every pair
                // without a cutoff, walks the whole block.
                let slots = R::slots(&mut pending, from..sources.len());
                let (h, s) = (&mut *harvest, &mut skipped);
                acc = walk::<_, _, _, R>(&lanes, acc, &sources[from..], slots, law, h, s, place);
            }
        }
        for (t, a) in pair.iter_mut().zip(acc.to_lanes()) {
            t.force = a;
        }
    }
    if let Some(cells) = cells {
        CELLS.set(cells);
    }
    if R::REACTS {
        if !R::DIAGONAL {
            for (r, p) in reactions.iter_mut().zip(&pending) {
                *r += *p;
            }
        }
        PENDING.set(pending);
    }
    // A pair asked across two blocks answers both of its ordered pairs.
    let ways = 1 + u64::from(R::REACTS && !R::DIAGONAL);
    (targets.len() as u64)
        .saturating_mul(sources.len() as u64)
        .saturating_mul(ways)
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
/// each displacement formed pair by pair as `Boundary::displacement` forms
/// it. Under [`Newton`] and [`Across`] `slots` are the sources' pending
/// accumulators, one per source, and take the reactions.
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
    (domain, boundary): (Domain, Boundary),
) -> Vec2x2 {
    let full = pair.len() == 2;
    // Checked once here rather than per source.
    let slots = &mut slots[..if R::REACTS { sources.len() } else { 0 }];
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
                    // Where the pair reacts, both ordered pairs.
                    *skipped += 1 + u64::from(R::REACTS);
                    continue;
                }
                let disp = boundary.displacement(&domain, t.pos, s.pos);
                let f = law.force(t, s, disp);
                *a += f;
                harvest.pair(law, t, s, disp);
                if R::REACTS {
                    slots[k] -= f;
                    harvest.pair(law, s, t, -disp);
                }
            }
            acc = Vec2x2::new(lanes[0], lanes[1]);
            continue;
        }
        let disp = boundary.displacement_x2(&domain, pos, Vec2x2::splat(s.pos()));
        let shown = s.shown();
        let s: &Particle = shown.borrow();
        let f = law.force_x2([t0, t1], s, disp);
        acc += f;
        let [d0, d1] = disp.to_lanes();
        harvest.pair(law, t0, s, d0);
        harvest.pair(law, t1, s, d1);
        if R::REACTS {
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

/// The nest under the [`Reaction`] the call allows: [`Across`] when the
/// caller takes the `reactions` of the sources, [`Newton`] when the
/// sources are the targets ([`same_block`]) under a [`symmetric_cutoff`]
/// law, [`OneWay`] otherwise. Under a law without a cutoff every ordered
/// pair is asked for itself, which gives the scalar loop's bits that the
/// all-pairs drivers' oracle pins (DESIGN.md §14.9).
fn accumulate<S: KernelSource, F: ForceLaw, H: Harvest>(
    targets: &mut [Particle],
    sources: &[S],
    law: &F,
    domain: &Domain,
    boundary: Boundary,
    harvest: &mut H,
    reactions: Option<&mut [Vec2]>,
) -> u64 {
    let (t, s) = (targets, sources);
    match reactions {
        Some(reactions) => {
            debug_assert!(symmetric_cutoff(law) && reactions.len() == s.len());
            nest::<S, F, H, Across>(t, s, law, domain, boundary, harvest, reactions)
        }
        None if symmetric_cutoff(law) && same_block(t, s) => {
            nest::<S, F, H, Newton>(t, s, law, domain, boundary, harvest, &mut [])
        }
        None => nest::<S, F, H, OneWay>(t, s, law, domain, boundary, harvest, &mut []),
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
    accumulate(
        targets,
        sources,
        law,
        domain,
        boundary,
        &mut NoHarvest,
        None,
    )
}

/// [`accumulate_block`] over a block of any [`KernelSource`] — the compact
/// [`Source`] blocks the CA drivers circulate. Forces and the returned count
/// are bit for bit those of `accumulate_block` on the particles the sources
/// were taken from, for any law that reads only what a law may read
/// ([`ForceLaw`]'s docs), the symmetric case of a block against itself
/// included: it is told by ids, which both blocks carry.
pub fn accumulate_sources<S: KernelSource, F: ForceLaw>(
    targets: &mut [Particle],
    sources: &[S],
    law: &F,
    domain: &Domain,
    boundary: Boundary,
) -> u64 {
    accumulate(
        targets,
        sources,
        law,
        domain,
        boundary,
        &mut NoHarvest,
        None,
    )
}

/// [`accumulate_sources`] asking each pair once for both of its ordered
/// pairs, under a law that promises it ([`symmetric_cutoff`]) and on two
/// different blocks: every target adds `f` as `accumulate_sources` would,
/// in the same order and so to the same bits, and `reactions[k]` gains
/// source `k`'s `−f` summed over the targets in their order. With
/// `potential` set, every answered ordered pair's potential is added to
/// it, as [`accumulate_block_potential`] adds them. Returns both ordered
/// pairs of every answered pair: `2 · targets · sources`.
pub fn accumulate_across<S: KernelSource, F: ForceLaw>(
    targets: &mut [Particle],
    sources: &[S],
    law: &F,
    domain: &Domain,
    boundary: Boundary,
    reactions: &mut [Vec2],
    potential: Option<&mut f64>,
) -> u64 {
    match potential {
        Some(pe) => {
            let (answered, dpe) =
                harvested(targets, sources, law, domain, boundary, Some(reactions));
            *pe += dpe;
            answered
        }
        None => accumulate(
            targets,
            sources,
            law,
            domain,
            boundary,
            &mut NoHarvest,
            Some(reactions),
        ),
    }
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
    harvested(targets, sources, law, domain, boundary, None)
}

/// The pairs answered and the potential harvested, under the reaction the
/// caller asks for.
fn harvested<S: KernelSource, F: ForceLaw>(
    targets: &mut [Particle],
    sources: &[S],
    law: &F,
    domain: &Domain,
    boundary: Boundary,
    reactions: Option<&mut [Vec2]>,
) -> (u64, f64) {
    let mut harvest = PotentialSum::default();
    let answered = accumulate(
        targets,
        sources,
        law,
        domain,
        boundary,
        &mut harvest,
        reactions,
    );
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

/// Times kernel calls and adds them to the metrics registry's
/// `compute_interactions` / `compute_flops` / `compute_bytes` /
/// `compute_nanos` counters (no phase label: the kernel always runs under
/// the drivers' `Phase::Other`). Cheap to construct per force evaluation;
/// a no-op when the recorder is disabled. `compute_flops` is the pairs
/// answered (see [`accumulate_block`]) times the law's per-evaluation
/// constant: nominal for a law with a cutoff, which answers most pairs by
/// its range test or is never asked. `compute_bytes` is the compulsory
/// traffic: targets read and written at the in-memory particle size,
/// sources read at the compact [`Source`] size the drivers stream them in.
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
    /// `targets` x `sources` block pair and add it to the counters. A
    /// disabled recorder has nowhere to put a time, so the clock is not
    /// read.
    pub fn time(&self, targets: usize, sources: usize, run: impl FnOnce() -> u64) {
        let start = self.enabled.then(Instant::now);
        let evals = run();
        let nanos = start.map_or(0, |at| at.elapsed().as_nanos() as u64);
        let read_and_written = 2 * std::mem::size_of::<Particle>() as u64;
        let read = std::mem::size_of::<Source>() as u64;
        self.interactions.add(evals);
        self.flops
            .add(evals.saturating_mul(self.flops_per_interaction));
        self.bytes.add(
            (targets as u64)
                .saturating_mul(read_and_written)
                .saturating_add((sources as u64).saturating_mul(read)),
        );
        self.nanos.add(nanos);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbody_physics::{init, reference, Counting, Cutoff};
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use std::sync::atomic::{AtomicU64, Ordering};

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

    #[test]
    fn cell_is_floor_for_every_float() {
        let mut values = vec![
            0.0,
            -0.0,
            0.5,
            -0.5,
            -1.0,
            1.0 - f64::EPSILON / 2.0,
            -f64::MIN_POSITIVE,
            -5e-324,
            2f64.powi(52) + 0.5,
            -(2f64.powi(52) + 0.5),
            2f64.powi(63),
            -(2f64.powi(63)),
            2f64.powi(63) - 1024.0,
            -(2f64.powi(63)) - 2048.0,
            f64::MAX,
            f64::MIN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        // Every kind of bit pattern, NaNs and subnormals included, and
        // values of every size either side of zero.
        let mut rng = StdRng::seed_from_u64(11);
        values.extend((0..200_000).map(|_| f64::from_bits(rng.gen::<u64>())));
        values.extend((0..200_000).map(|_| {
            let v: f64 = rng.gen_range(-1.0..1.0);
            v * 10f64.powi(rng.gen_range(-20..25))
        }));
        // The oracle is floored division by one: a truncation and a
        // remainder, not the comparison `cell` makes.
        for v in values {
            assert_eq!(cell(v), v.div_euclid(1.0) as i64, "{v:e}");
        }
    }

    /// The soundness of the index, on the implemented arithmetic: every
    /// source a lane pair is not shown is one the cutoff law rejects, by
    /// bits, for both of its targets. Drawn: a domain of any size and
    /// offset, a boundary, a radius from a ten-thousandth of the extent to
    /// thrice it, a block clustered anywhere up to three extents outside
    /// the domain — in cell order or not, some so sparse that the table
    /// takes coarser cells, some with a NaN or infinite source, which every
    /// pair is shown — and pairs of targets near its sources or anywhere.
    #[test]
    fn a_source_a_pair_is_not_shown_is_one_the_law_rejects() {
        let mut rng = StdRng::seed_from_u64(0xC0FFEE);
        let (mut passed_over, mut coarse) = ([0u32; 3], 0);
        for case in 0..4000 {
            let min = Vec2::new(1.0, -1.0) * [0.0, 1.0, 1e6, -1e-3][case % 4];
            let mut draw = |lo: f64, hi: f64| 10f64.powf(rng.gen_range(lo..hi));
            let ext = Vec2::new(draw(-3.0, 3.0), draw(-3.0, 3.0));
            let r_c = ext.x.min(ext.y) * draw(-4.0, 0.5);
            let spread = ext * draw(-4.0, 0.3);
            let domain = Domain::new(min, min + ext);
            let boundary = [Boundary::Open, Boundary::Reflective, Boundary::Periodic][case % 3];
            let at = |rng: &mut StdRng, centre: Vec2, half: Vec2| {
                let u = Vec2::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0));
                centre + Vec2::new(half.x * u.x, half.y * u.y)
            };
            let centre = at(&mut rng, min + ext * 0.5, ext * 3.0);
            let mut sources: Vec<Particle> = (0..1 + case % 150)
                .map(|id| Particle::at(id as u64, at(&mut rng, centre, spread)))
                .collect();
            // A target on a cell edge and sources exactly `r_c` from it, on
            // the next edges out, in every fifth block.
            let snap = |v: f64, lo: f64| lo + ((v - lo) / r_c).round() * r_c;
            let edge = Vec2::new(snap(centre.x, min.x), snap(centre.y, min.y));
            if case % 5 == 0 {
                for d in [
                    (1.0, 0.0),
                    (-1.0, 0.0),
                    (0.0, 1.0),
                    (0.0, -1.0),
                    (0.6, -0.8),
                ] {
                    let id = sources.len() as u64;
                    sources.push(Particle::at(id, edge + Vec2::new(d.0, d.1) * r_c));
                }
            }
            if case % 2 == 0 {
                cell_order(&mut sources, &Cutoff::new(Counting, r_c), &domain);
            }
            if case % 7 == 0 {
                let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][case % 3];
                let k = case % sources.len();
                sources[k].pos.y = bad;
            }
            let mut cells = Cells::default();
            cells.refill(&sources, r_c, &domain, boundary);
            coarse += usize::from(cells.reach < 1.0);
            let law = Cutoff::new(Counting, r_c);
            for pair in 0..8 {
                let mut target = |near: bool| {
                    let s = sources[rng.gen_range(0..sources.len())].pos;
                    match near && s.is_finite() {
                        true => at(&mut rng, s, Vec2::new(r_c, r_c) * 2.0),
                        false => at(&mut rng, centre, spread * 2.0 + ext),
                    }
                };
                let mut ts = [target(pair % 2 == 0), target(pair % 4 < 2)];
                if case % 5 == 0 && pair == 0 {
                    ts = [edge, Vec2::new(edge.x.next_up(), edge.y.next_down())];
                }
                let Some((spans, culled)) = cells.near(Vec2x2::new(ts[0], ts[1])) else {
                    panic!("case {case}: finite targets {ts:?} are not shown every source");
                };
                assert!(spans.windows(2).all(|w| w[0].1 < w[1].0), "{spans:?}");
                let shown = |k: usize| spans.iter().any(|&(start, end)| (start..end).contains(&k));
                let hidden: Vec<usize> = (0..sources.len()).filter(|&k| !shown(k)).collect();
                assert_eq!(culled, !hidden.is_empty(), "case {case}");
                passed_over[case % 3] += hidden.len() as u32;
                for k in hidden {
                    let s = sources[k];
                    assert!(s.pos.is_finite(), "case {case}: {:?} hidden", s.pos);
                    for t in ts {
                        let disp = boundary.displacement(&domain, t, s.pos);
                        let f = law.force(&Particle::at(1000, t), &s, disp);
                        assert_eq!(
                            [f.x.to_bits(), f.y.to_bits()],
                            [0.0f64.to_bits(); 2],
                            "case {case} {boundary:?} {domain:?} r_c {r_c}: {t:?} <- {:?}",
                            s.pos
                        );
                    }
                }
            }
            // A target that is not finite is shown everything.
            let bad = Vec2x2::new(Vec2::new(f64::NAN, 0.0), centre);
            assert!(cells.near(bad).is_none());
        }
        // Not vacuous under any boundary, and coarser cells were drawn.
        assert!(passed_over.iter().all(|&n| n > 10_000), "{passed_over:?}");
        assert!(coarse > 100, "{coarse}");
    }

    /// The same soundness where a pair does not compute its own reach: the
    /// lane pairs of a block in cell order, one after the other, either as
    /// the targets of that block (read from their places) or as the targets
    /// of a call against another block (through its strip and its reject).
    /// Drawn as above, with sources on cell edges and `r_c` from them in
    /// every fifth block.
    #[test]
    fn a_pair_shown_what_an_earlier_pair_or_its_place_reached_is_shown_enough() {
        let mut rng = StdRng::seed_from_u64(0x5EED);
        let (mut passed_over, mut placed) = ([0u32; 3], 0);
        for case in 0..600 {
            let min = Vec2::new(1.0, -1.0) * [0.0, 1.0, 1e6, -1e-3][case % 4];
            let mut draw = |lo: f64, hi: f64| 10f64.powf(rng.gen_range(lo..hi));
            let ext = Vec2::new(draw(-3.0, 3.0), draw(-3.0, 3.0));
            let r_c = ext.x.min(ext.y) * draw(-2.0, 0.0);
            let spread = ext * draw(-2.0, 0.3);
            let domain = Domain::new(min, min + ext);
            let boundary = [Boundary::Open, Boundary::Reflective, Boundary::Periodic][case % 3];
            let at = |rng: &mut StdRng, centre: Vec2, half: Vec2| {
                let u = Vec2::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0));
                centre + Vec2::new(half.x * u.x, half.y * u.y)
            };
            let law = Cutoff::new(Counting, r_c);
            let block = |rng: &mut StdRng, first: u64, centre: Vec2| {
                let mut block: Vec<Particle> = (0..1 + case % 100)
                    .map(|k| Particle::at(first + k as u64, at(rng, centre, spread)))
                    .collect();
                if case % 5 == 0 {
                    let snap = |v: f64, lo: f64| lo + ((v - lo) / r_c).round() * r_c;
                    let edge = Vec2::new(snap(centre.x, min.x), snap(centre.y, min.y));
                    for d in [(0.0, 0.0), (1.0, 0.0), (0.0, -1.0), (0.6, 0.8), (-2.0, 0.0)] {
                        let id = first + block.len() as u64;
                        block.push(Particle::at(id, edge + Vec2::new(d.0, d.1) * r_c));
                    }
                }
                cell_order(&mut block, &law, &domain);
                block
            };
            let centre = at(&mut rng, min + ext * 0.5, ext);
            let sources = block(&mut rng, 0, centre);
            let near = at(&mut rng, centre, spread * 2.0);
            let targets = block(
                &mut rng,
                1000,
                if case % 2 == 0 { near } else { centre + ext },
            );
            let mut cells = Cells::default();
            for against_itself in [true, false] {
                let targets = if against_itself { &sources } else { &targets };
                let others = (!against_itself).then_some(&targets[..]);
                cells.refill_for(others, &sources, r_c, &domain, boundary);
                placed += cells.places.iter().filter(|&&p| p != u64::MAX).count();
                for (pair, ts) in targets.chunks(2).enumerate() {
                    let (i, j) = (2 * pair, 2 * pair + ts.len() - 1);
                    let pos = Vec2x2::new(ts[0].pos, ts[ts.len() - 1].pos);
                    let shown = match against_itself {
                        true => cells.near_in_block(i, j, pos),
                        false => cells.near(pos),
                    };
                    let Some((spans, culled)) = shown else {
                        continue;
                    };
                    assert!(spans.windows(2).all(|w| w[0].1 < w[1].0), "{spans:?}");
                    let shown =
                        |k: usize| spans.iter().any(|&(start, end)| (start..end).contains(&k));
                    let hidden: Vec<usize> = (0..sources.len()).filter(|&k| !shown(k)).collect();
                    assert_eq!(culled, !hidden.is_empty(), "case {case}");
                    passed_over[case % 3] += hidden.len() as u32;
                    for k in hidden {
                        let s = sources[k];
                        for t in ts {
                            let disp = boundary.displacement(&domain, t.pos, s.pos);
                            let f = law.force(t, &s, disp);
                            assert_eq!(
                                [f.x.to_bits(), f.y.to_bits()],
                                [0.0f64.to_bits(); 2],
                                "case {case} {boundary:?} r_c {r_c}: {:?} <- {:?}",
                                t.pos,
                                s.pos
                            );
                        }
                    }
                }
            }
        }
        assert!(passed_over.iter().all(|&n| n > 10_000), "{passed_over:?}");
        assert!(placed > 10_000, "{placed}");
    }

    #[test]
    fn any_radius_a_law_may_name_is_culled_soundly() {
        // Radii `Cutoff::new` refuses but a law of its own may name: zero
        // and negative (the promise is about `r_c * r_c`), NaN (a promise
        // about nothing) and infinite. The index must end, and the forces
        // be the scalar loop's.
        #[derive(Clone, Copy)]
        struct Named(f64);
        impl ForceLaw for Named {
            fn force(&self, _: &Particle, _: &Particle, disp: Vec2) -> Vec2 {
                match disp.norm_sq() > self.0 * self.0 {
                    true => Vec2::zero(),
                    false => Vec2::new(1.0, 0.0),
                }
            }
            fn cutoff(&self) -> Option<f64> {
                Some(self.0)
            }
        }
        let domain = Domain::unit();
        for r_c in [0.0, -0.0, -0.1, 0.1, 1e-300, f64::NAN, f64::INFINITY] {
            let mut block = init::uniform(40, &domain, 3);
            block[6].pos = block[5].pos;
            let sources = block.clone();
            let mut want = block.clone();
            accumulate_block(
                &mut block,
                &sources,
                &Named(r_c),
                &domain,
                Boundary::Periodic,
            );
            reference::accumulate_forces(&mut want, &Named(r_c), &domain, Boundary::Periodic);
            assert_eq!(block, want, "r_c {r_c}");
        }
    }

    /// A law that counts the pairs the kernel puts to it, two per two-lane
    /// call.
    struct CountAsks<F>(F, AtomicU64);

    impl<F: ForceLaw> ForceLaw for CountAsks<F> {
        fn force(&self, target: &Particle, source: &Particle, disp: Vec2) -> Vec2 {
            self.1.fetch_add(1, Ordering::Relaxed);
            self.0.force(target, source, disp)
        }

        fn force_x2(&self, targets: [&Particle; 2], source: &Particle, disp: Vec2x2) -> Vec2x2 {
            self.1.fetch_add(2, Ordering::Relaxed);
            self.0.force_x2(targets, source, disp)
        }

        fn cutoff(&self) -> Option<f64> {
            self.0.cutoff()
        }

        fn is_symmetric(&self) -> bool {
            self.0.is_symmetric()
        }
    }

    #[test]
    fn index_work_is_once_per_cell_on_the_benchmark_geometry() {
        // A rank's three calls of a `cutoff1d_lj_periodic` step: its own
        // block (a quarter slab of the 8192-particle lattice, thermalised,
        // eight steps adrift, in cell order), the next slab's and the one
        // across the periodic seam. Counted, not timed: the pairs a call
        // asks the law about, the reaches it computes and the spans it
        // gathers. Once per lane pair was 1036 reaches and 696 gathers on
        // the own call and 1036 reaches on each of the others; the strip
        // brought the seam's asks down from 3670.
        let n = 8192;
        let domain = Domain::square((n as f64).sqrt() * 1.2);
        let law = Cutoff::new(nbody_physics::LennardJones::default(), 2.5);
        let boundary = Boundary::Periodic;
        let mut lattice = init::lattice(n, &domain);
        init::thermalize(&mut lattice, 0.5, 42);
        for p in &mut lattice {
            p.pos = boundary
                .apply(&domain, p.pos + p.vel * (8.0 * 0.005), p.vel)
                .0;
        }
        let [own, next, seam] = [0, 1, 3].map(|team| {
            let mut block = crate::dist::spatial_subset_1d(&lattice, &domain, 4, team);
            cell_order(&mut block, &law, &domain);
            block
        });
        let work = [&own, &next, &seam].map(|sources| {
            let mut targets = own.clone();
            let counted = CountAsks(law, AtomicU64::new(0));
            accumulate_block(&mut targets, sources, &counted, &domain, boundary);
            let w = CELLS.with_borrow(|cells| cells.work);
            (counted.1.into_inner(), w.reaches, w.gathers)
        });
        let pinned = [(40372, 47, 690), (2626, 101, 56), (2488, 101, 77)];
        assert_eq!(
            work, pinned,
            "(asks, reaches, gathers) of the own, next and seam calls"
        );
        let mut targets = own.clone();
        let mut reactions = vec![Vec2::zero(); next.len()];
        let counted = CountAsks(law, AtomicU64::new(0));
        accumulate_across(
            &mut targets,
            &next,
            &counted,
            &domain,
            boundary,
            &mut reactions,
            None,
        );
        let w = CELLS.with_borrow(|cells| cells.work);
        let across = (counted.1.into_inner(), w.reaches, w.gathers);
        assert_eq!(
            across, pinned[1],
            "(asks, reaches, gathers) of the cross call"
        );
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
            let cell = |x: f64| (x / 0.1).div_euclid(1.0) as i64;
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
    fn compute_meter_records_counters() {
        let rec = MetricsRecorder::for_rank(2);
        let meter = ComputeMeter::new(&rec, 20);
        let domain = Domain::unit();
        let mut block = init::uniform(16, &domain, 3);
        let sources = block.clone();
        meter.time(block.len(), sources.len(), || {
            accumulate_block(&mut block, &sources, &Counting, &domain, Boundary::Open)
        });
        let m = rec.finish().unwrap();
        assert_eq!(m.counter("compute_interactions", None), 16 * 15);
        assert_eq!(m.counter("compute_flops", None), 16 * 15 * 20);
        assert!(m.counter("compute_nanos", None) > 0);
        // Sixteen targets read and written at 64 B, sixteen sources read
        // at 32 B.
        assert_eq!(m.counter("compute_bytes", None), 16 * 2 * 64 + 16 * 32);

        // Saturating: a clamped count cannot wrap when multiplied by the
        // FLOP constant.
        let rec = MetricsRecorder::for_rank(0);
        ComputeMeter::new(&rec, 20).time(1, 1, || u64::MAX);
        let flops = rec.finish().unwrap().counter("compute_flops", None);
        assert_eq!(flops, u64::MAX);
    }

    #[test]
    fn compute_meter_disabled_is_noop() {
        let rec = MetricsRecorder::disabled();
        let meter = ComputeMeter::new(&rec, 20);
        meter.time(2, 5, || {
            std::thread::sleep(std::time::Duration::from_millis(1));
            10
        });
        assert!(rec.finish().is_none());
    }
}
