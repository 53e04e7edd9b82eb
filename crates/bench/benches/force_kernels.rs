//! Microbenchmarks of the pairwise force kernels — the γ term of the cost
//! model. The measured per-interaction cost on the host machine can be
//! compared with the calibrated `gamma` of the Hopper/Intrepid models.

use criterion::{
    black_box, criterion_group, criterion_main, BenchmarkGroup, BenchmarkId, Criterion, Throughput,
};
use nbody_physics::{
    init, Boundary, Counting, Cutoff, Domain, F64x2, ForceLaw, Gravity, LennardJones, Particle,
    RepulsiveInverseSquare, Vec2, Vec2x2,
};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};

fn bench_pair_kernels(c: &mut Criterion) {
    let domain = Domain::unit();
    let ps = init::uniform(2, &domain, 1);
    let (a, b) = (ps[0], ps[1]);
    let disp = b.pos - a.pos;

    let mut group = c.benchmark_group("pair_force");
    group.bench_function("repulsive_inverse_square", |bench| {
        let law = RepulsiveInverseSquare::default();
        bench.iter(|| law.force(black_box(&a), black_box(&b), black_box(disp)))
    });
    group.bench_function("gravity", |bench| {
        let law = Gravity::default();
        bench.iter(|| law.force(black_box(&a), black_box(&b), black_box(disp)))
    });
    group.bench_function("lennard_jones", |bench| {
        let law = LennardJones::default();
        bench.iter(|| law.force(black_box(&a), black_box(&b), black_box(disp)))
    });
    group.bench_function("cutoff_wrapped", |bench| {
        let law = Cutoff::new(RepulsiveInverseSquare::default(), 0.5);
        bench.iter(|| law.force(black_box(&a), black_box(&b), black_box(disp)))
    });
    group.bench_function("counting", |bench| {
        bench.iter(|| Counting.force(black_box(&a), black_box(&b), black_box(disp)))
    });
    group.finish();
}

/// A law with no lane override: the kernel reaches `force` through the
/// trait's per-lane default, as any user-defined law does.
struct NoOverride(RepulsiveInverseSquare);

impl ForceLaw for NoOverride {
    fn force(&self, target: &Particle, source: &Particle, disp: Vec2) -> Vec2 {
        self.0.force(target, source, disp)
    }
}

/// The paper's law as the textbook writes it and as the repo computed it
/// before the one-divide rewrite: `-normalized(disp) * (k·m_t·m_s / r²)`,
/// a square root and three divides per pair. Kept here, next to the shipped
/// law, so the before/after ratio can be measured on any machine without
/// checking out an old commit (DESIGN.md §13.5). Bench-local on purpose:
/// the library has one law per name.
struct TextbookRepulsive {
    strength: f64,
    softening: f64,
}

impl ForceLaw for TextbookRepulsive {
    #[inline]
    fn force(&self, target: &Particle, source: &Particle, disp: Vec2) -> Vec2 {
        let r2 = disp.norm_sq() + self.softening * self.softening;
        if r2 == 0.0 {
            return Vec2::zero();
        }
        let mag = self.strength * target.mass * source.mass / r2;
        -disp.normalized() * mag
    }

    #[inline]
    fn force_x2(&self, targets: [&Particle; 2], source: &Particle, disp: Vec2x2) -> Vec2x2 {
        let r2 = disp.norm_sq() + F64x2::splat(self.softening * self.softening);
        let masses = F64x2::new(targets[0].mass, targets[1].mass);
        let mag = F64x2::splat(self.strength) * masses * F64x2::splat(source.mass) / r2;
        (-disp.normalized() * mag).zero_where(r2.lanes_eq(F64x2::splat(0.0)))
    }
}

/// A cutoff law with its cutoff hidden from the kernel: the same answers
/// (its `force` still rejects beyond `r_c`), but `accumulate_block` cannot
/// rule anything out and runs the unculled nest. What the cull is measured
/// against, on the same data.
struct HideCutoff<F>(F);

impl<F: ForceLaw> ForceLaw for HideCutoff<F> {
    #[inline]
    fn force(&self, target: &Particle, source: &Particle, disp: Vec2) -> Vec2 {
        self.0.force(target, source, disp)
    }

    #[inline]
    fn force_x2(&self, targets: [&Particle; 2], source: &Particle, disp: Vec2x2) -> Vec2x2 {
        self.0.force_x2(targets, source, disp)
    }

    fn is_symmetric(&self) -> bool {
        self.0.is_symmetric()
    }
}

/// A symmetric law with its symmetry unsaid: the same answers, but the
/// kernel asks about every ordered pair of a block against itself, as it
/// did before it took each unordered pair once. What the symmetric case is
/// measured against, on the same data.
#[derive(Clone, Copy)]
struct HideSymmetry<F>(F);

impl<F: ForceLaw> ForceLaw for HideSymmetry<F> {
    #[inline]
    fn force(&self, target: &Particle, source: &Particle, disp: Vec2) -> Vec2 {
        self.0.force(target, source, disp)
    }

    #[inline]
    fn force_x2(&self, targets: [&Particle; 2], source: &Particle, disp: Vec2x2) -> Vec2x2 {
        self.0.force_x2(targets, source, disp)
    }

    fn cutoff(&self) -> Option<f64> {
        self.0.cutoff()
    }
}

/// A law that counts the pairs the kernel puts to it, two per two-lane call:
/// the work a cull leaves, which repeats exactly where this box's clock does
/// not.
struct CountPairs<F>(F, AtomicU64);

impl<F: ForceLaw> ForceLaw for CountPairs<F> {
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

/// The `(targets, sources)` of one row of the block-kernel table: a `size`
/// x `size` off-diagonal block pair.
fn off_diagonal_blocks(size: usize, domain: &Domain) -> (Vec<Particle>, Vec<Particle>) {
    let sources = init::uniform(size, domain, 7);
    let mut targets = init::uniform(size, domain, 8);
    for t in &mut targets {
        t.id += size as u64;
    }
    (targets, sources)
}

/// One row of the block-kernel table: `accumulate_block` on a `size` x
/// `size` off-diagonal block pair, reported per interaction.
fn bench_block<F: ForceLaw>(
    group: &mut BenchmarkGroup<'_>,
    name: &str,
    law: &F,
    size: usize,
    domain: &Domain,
    boundary: Boundary,
) {
    let (mut targets, sources) = off_diagonal_blocks(size, domain);
    bench_block_pair(group, name, law, &mut targets, &sources, domain, boundary);
}

/// [`bench_block`] on given blocks, per pair presented to the kernel.
fn bench_block_pair<F: ForceLaw>(
    group: &mut BenchmarkGroup<'_>,
    name: &str,
    law: &F,
    targets: &mut [Particle],
    sources: &[Particle],
    domain: &Domain,
    boundary: Boundary,
) {
    let size = sources.len();
    group.throughput(Throughput::Elements((targets.len() * size) as u64));
    group.bench_with_input(BenchmarkId::new(name, size), &size, |bench, _| {
        bench.iter(|| {
            ca_nbody::kernel::accumulate_block(
                black_box(&mut *targets),
                black_box(sources),
                law,
                domain,
                boundary,
            )
        })
    });
}

/// [`bench_block`] with the sources as the CA drivers circulate them: the
/// same particles as a compact `Source` block, through the instantiation of
/// the loop nest that reads it directly.
fn bench_block_compact<F: ForceLaw>(
    group: &mut BenchmarkGroup<'_>,
    name: &str,
    law: &F,
    size: usize,
    domain: &Domain,
    boundary: Boundary,
) {
    let (mut targets, sources) = off_diagonal_blocks(size, domain);
    let sources = nbody_physics::particle::sources(&sources);
    group.throughput(Throughput::Elements((size * size) as u64));
    group.bench_with_input(BenchmarkId::new(name, size), &size, |bench, _| {
        bench.iter(|| {
            ca_nbody::kernel::accumulate_sources(
                black_box(&mut targets[..]),
                black_box(&sources[..]),
                law,
                domain,
                boundary,
            )
        })
    });
}

/// A culled row: first what the law is asked in one such call, the count to
/// judge a kernel change by, then the timing.
fn cull_row_under<F: ForceLaw + Copy>(
    group: &mut BenchmarkGroup<'_>,
    name: &str,
    law: F,
    targets: &[Particle],
    sources: &[Particle],
    domain: &Domain,
    boundary: Boundary,
) {
    let mut targets = targets.to_vec();
    let counted = CountPairs(law, AtomicU64::new(0));
    ca_nbody::kernel::accumulate_block(&mut targets, sources, &counted, domain, boundary);
    let asked = counted.1.load(Ordering::Relaxed);
    let per_target = asked as f64 / targets.len() as f64;
    println!("{name}: the law is asked about {asked} pairs per call, {per_target:.1} per target");
    bench_block_pair(group, name, &law, &mut targets, sources, domain, boundary);
}

/// The cutoff cull — each lane pair walks the runs of the `r_c` cells near
/// its two targets — on one team's own block of the repo benchmark's
/// `cutoff1d_lj_periodic` geometry (a quarter slab of the 8192-particle
/// lattice: 2072 particles), in three orders: by lattice id (row-major over
/// the whole lattice, which is how `reassign_particles` leaves it: a cell
/// holds runs of one or two), shuffled (ids that say nothing about
/// position, as after long mixing: runs of one), and in `cell_order`, which
/// is what the cutoff drivers hand the kernel (a run per cell, a range per
/// row of cells). Each against the unculled nest on the same data, then
/// the cell-ordered rows again on the thermalised lattice the drivers see
/// mid-run — a rank's three calls of a step, the own block with its
/// symmetry hidden, then the own block between walls and under a law with
/// no arithmetic — plus what the ordering itself costs per step, spread
/// over the same presented pairs. Every culled row prints, before its
/// timing, how many pairs the law was asked about: judge a kernel change by
/// that count first; the cells' index is built per call, so the neighbour
/// rows price it.
fn bench_cutoff_cull(group: &mut BenchmarkGroup<'_>) {
    let n = 8192;
    let domain = Domain::square((n as f64).sqrt() * 1.2);
    let lj = Cutoff::new(LennardJones::default(), 2.5);
    let lattice = init::lattice(n, &domain);
    let by_id = ca_nbody::dist::spatial_subset_1d(&lattice, &domain, 4, 0);
    let mut shuffled = by_id.clone();
    let mut rng = StdRng::seed_from_u64(9);
    for i in (1..shuffled.len()).rev() {
        shuffled.swap(i, rng.gen_range(0..i + 1));
    }
    let mut cell_ordered = by_id.clone();
    ca_nbody::kernel::cell_order(&mut cell_ordered, &lj, &domain);
    let unculled = HideCutoff(lj);
    let (d, b) = (&domain, Boundary::Periodic);
    let cull_row =
        |group: &mut BenchmarkGroup<'_>, name: &str, targets: &[Particle], sources: &[Particle]| {
            cull_row_under(group, name, lj, targets, sources, d, b)
        };
    for (order, block) in [
        ("lattice_id", &by_id),
        ("shuffled", &shuffled),
        ("cell_order", &cell_ordered),
    ] {
        cull_row(group, &format!("cull_{order}"), block, block);
        let mut targets = block.clone();
        bench_block_pair(
            group,
            &format!("unculled_{order}"),
            &unculled,
            &mut targets,
            block,
            d,
            b,
        );
    }
    // The neighbouring slab's block against the same targets: most of them
    // are further than `r_c` from all of it.
    let mut east = ca_nbody::dist::spatial_subset_1d(&lattice, &domain, 4, 1);
    ca_nbody::kernel::cell_order(&mut east, &lj, &domain);
    cull_row(group, "cull_cell_order_neighbour", &cell_ordered, &east);
    // The same two calls on what the drivers see mid-run: the lattice
    // thermalised and eight steps adrift (dt = 0.005 at T = 0.5, the
    // benchmark's), so that cells no longer hold whole lattice columns.
    let mut adrift = lattice.clone();
    init::thermalize(&mut adrift, 0.5, 42);
    for p in &mut adrift {
        p.pos = b.apply(d, p.pos + p.vel * (8.0 * 0.005), p.vel).0;
    }
    let [own, next, seam] = [0, 1, 3].map(|team| {
        let mut block = ca_nbody::dist::spatial_subset_1d(&adrift, d, 4, team);
        ca_nbody::kernel::cell_order(&mut block, &lj, d);
        block
    });
    // The own block takes each unordered pair once; with the symmetry
    // hidden it asks about every ordered pair, as a neighbour block must.
    cull_row(group, "cull_cell_order_thermalised", &own, &own);
    cull_row_under(
        group,
        "cull_cell_order_thermalised_one_way",
        HideSymmetry(lj),
        &own,
        &own,
        d,
        b,
    );
    cull_row(group, "cull_cell_order_thermalised_neighbour", &own, &next);
    // The third call of a rank's step: slab 3's block, met through the
    // periodic wall only, every displacement that matters one period over.
    cull_row(group, "cull_cell_order_thermalised_seam", &own, &seam);
    // The own block between walls (no period: one image, nothing to wrap),
    // and under a law with no arithmetic, which prices what is not the law:
    // the index, the displacement and the range test.
    let walls = Boundary::Reflective;
    cull_row_under(
        group,
        "cull_cell_order_thermalised_reflective",
        lj,
        &own,
        &own,
        d,
        walls,
    );
    let counting = Cutoff::new(Counting, 2.5);
    cull_row_under(
        group,
        "cull_cell_order_thermalised_counting",
        counting,
        &own,
        &own,
        d,
        b,
    );
    // What the ordering costs a leader per step, by what it is handed: the
    // id order of a first step, last step's cell order after one step's
    // drift (dt = 0.005 at T = 0.5, the benchmark's), and the same with the
    // neighbour slab's nearest column thinned to eight particles and
    // appended, as re-assignment appends migrants (a step moves ~0.3 % of a
    // block over a cell edge and fewer over a slab's).
    let mut drifted = cell_ordered.clone();
    init::thermalize(&mut drifted, 0.5, 42);
    for p in &mut drifted {
        p.pos += p.vel * 0.005;
    }
    let mut with_migrants = drifted.clone();
    let edge = east.iter().map(|p| p.pos.x).fold(f64::INFINITY, f64::min);
    with_migrants.extend(east.iter().filter(|p| p.pos.x == edge).step_by(12));
    group.throughput(Throughput::Elements((by_id.len() * by_id.len()) as u64));
    for (input, block) in [
        ("from_id_order", &by_id),
        ("after_drift", &drifted),
        ("after_drift_and_migrants", &with_migrants),
    ] {
        group.bench_function(
            BenchmarkId::new(format!("cell_order_{input}"), block.len()),
            |bench| {
                let mut scratch = block.clone();
                bench.iter(|| {
                    scratch.copy_from_slice(black_box(block));
                    ca_nbody::kernel::cell_order(&mut scratch, &lj, &domain);
                })
            },
        );
    }
}

/// Lane path vs. per-lane fallback, law by law, in one table. 2048 is the
/// repo benchmark's block (`allpairs_compute`); the Lennard-Jones row uses
/// its `cutoff1d_lj_periodic` geometry (box side 1.2 sigma per particle
/// per axis, r_c = 2.5 sigma, minimum image).
fn bench_block_kernel(c: &mut Criterion) {
    let unit = Domain::unit();
    let repulsive = RepulsiveInverseSquare {
        strength: 1e-3,
        softening: 1e-3,
    };
    let mut group = c.benchmark_group("accumulate_block");
    for size in [32usize, 128, 512, 2048] {
        bench_block(
            &mut group,
            "repulsive",
            &repulsive,
            size,
            &unit,
            Boundary::Reflective,
        );
    }
    // The repo benchmark's two all-pairs blocks, 32-byte sources.
    for size in [32usize, 128, 512, 2048] {
        bench_block_compact(
            &mut group,
            "repulsive_compact_sources",
            &repulsive,
            size,
            &unit,
            Boundary::Reflective,
        );
    }
    let gravity = Gravity {
        g: 1e-3,
        softening: 0.02,
    };
    bench_block(&mut group, "gravity", &gravity, 2048, &unit, Boundary::Open);
    let lj_box = Domain::square((2.0 * 2048.0f64).sqrt() * 1.2);
    let lj = Cutoff::new(LennardJones::default(), 2.5);
    bench_block(
        &mut group,
        "cutoff_lj_periodic",
        &lj,
        2048,
        &lj_box,
        Boundary::Periodic,
    );
    bench_cutoff_cull(&mut group);
    // Before the rewrite: same lanes, same nest, three divides per pair.
    let textbook = TextbookRepulsive {
        strength: repulsive.strength,
        softening: repulsive.softening,
    };
    bench_block(
        &mut group,
        "textbook_three_divides",
        &textbook,
        2048,
        &unit,
        Boundary::Reflective,
    );
    let plain = NoOverride(repulsive);
    bench_block(
        &mut group,
        "no_lane_override",
        &plain,
        2048,
        &unit,
        Boundary::Reflective,
    );
    group.finish();
}

fn bench_serial_reference(c: &mut Criterion) {
    let domain = Domain::unit();
    let law = RepulsiveInverseSquare::default();
    let mut ps = init::uniform(256, &domain, 3);
    c.bench_function("serial_all_pairs_256", |bench| {
        bench.iter(|| {
            nbody_physics::particle::reset_forces(&mut ps);
            nbody_physics::reference::accumulate_forces(
                black_box(&mut ps),
                &law,
                &domain,
                Boundary::Open,
            )
        })
    });

    let cutoff_law = Cutoff::new(RepulsiveInverseSquare::default(), 0.1);
    let mut ps2 = init::uniform(2048, &domain, 4);
    c.bench_function("cell_list_cutoff_2048", |bench| {
        bench.iter(|| {
            nbody_physics::particle::reset_forces(&mut ps2);
            nbody_physics::cell_list::accumulate_forces_cell_list(
                black_box(&mut ps2),
                &cutoff_law,
                &domain,
                Boundary::Open,
            )
        })
    });
}

criterion_group!(
    benches,
    bench_pair_kernels,
    bench_block_kernel,
    bench_serial_reference
);
criterion_main!(benches);
