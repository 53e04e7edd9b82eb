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
    let sources = init::uniform(size, domain, 7);
    let mut targets = init::uniform(size, domain, 8);
    for t in &mut targets {
        t.id += size as u64;
    }
    group.throughput(Throughput::Elements((size * size) as u64));
    group.bench_with_input(BenchmarkId::new(name, size), &size, |bench, _| {
        bench.iter(|| {
            ca_nbody::kernel::accumulate_block(
                black_box(&mut targets),
                black_box(&sources),
                law,
                domain,
                boundary,
            )
        })
    });
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
