//! The lane-parallel block kernel against the scalar loop it replaced.
//!
//! `kernel::accumulate_block` walks targets two per vector and asks the law
//! for both lanes at once; its contract is that every force it produces is
//! bit for bit what the one-target-at-a-time loop produced, and that it
//! evaluates exactly the same pairs. This file keeps a copy of that loop
//! (`scalar_block`, verbatim from before the rewrite) and checks the
//! kernel against it for every built-in law and wrapper, every boundary,
//! every block shape, and the IEEE corners the lane overrides had to get
//! right. The drivers hand the kernel compact `Source` blocks, not
//! particles: `check_law` runs that instantiation of the loop nest next to
//! the `Particle` one on every case in this file (the sources here carry
//! velocities and non-zero accumulators, which a compact block drops) and
//! holds it to the same bits and the same count. `AnyLaw` lives in the CLI binary and is out of reach here; it
//! only forwards to these laws, and `verify_covers_every_law_variant` in
//! `tests/cli.rs` drives each of its variants against the serial reference.
//!
//! One case is held to a bound instead of bits: a block against itself
//! under a symmetric law with a cutoff, where the kernel asks once per
//! unordered pair and adds `−f` for the partner (`newton_bound`). An
//! integer-valued antisymmetric law (`IdDifference`) still lands on the
//! scalar loop's bits there, and a NaN still poisons the same particles.

use std::sync::atomic::{AtomicU64, Ordering};

use ca_nbody::dist::spatial_subset_1d;
use ca_nbody::kernel::{
    accumulate_block, accumulate_block_potential, accumulate_sources, block_interactions,
    cell_order,
};
use nbody_physics::particle::sources as compact;
use nbody_physics::{
    init, Boundary, Counting, Cutoff, Domain, ForceLaw, Gravity, LennardJones, OneWay, Particle,
    RepulsiveInverseSquare, ShiftedForce, Vec2, Yukawa,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The kernel as it was before the lane rewrite: one target at a time,
/// one scalar `force` per pair, sources in order.
fn scalar_block<F: ForceLaw>(
    targets: &mut [Particle],
    sources: &[Particle],
    law: &F,
    domain: &Domain,
    boundary: Boundary,
) -> (u64, f64) {
    let mut skipped: u64 = 0;
    let mut potential = 0.0f64;
    for t in targets.iter_mut() {
        let mut acc = t.force;
        for s in sources {
            if t.id == s.id {
                skipped += 1;
                continue;
            }
            let disp = boundary.displacement(domain, t.pos, s.pos);
            acc += law.force(t, s, disp);
            potential += law.potential(t, s, disp);
        }
        t.force = acc;
    }
    let evals = (targets.len() as u64)
        .saturating_mul(sources.len() as u64)
        .saturating_sub(skipped);
    (evals, potential)
}

/// A law that implements exactly what the benchmark harness's counting
/// wrapper implements — no lane override — and counts its `force` calls.
struct Plain<F> {
    inner: F,
    calls: AtomicU64,
}

impl<F> Plain<F> {
    fn new(inner: F) -> Self {
        Plain {
            inner,
            calls: AtomicU64::new(0),
        }
    }
}

impl<F: ForceLaw> ForceLaw for Plain<F> {
    fn force(&self, target: &Particle, source: &Particle, disp: Vec2) -> Vec2 {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.force(target, source, disp)
    }
    fn potential(&self, target: &Particle, source: &Particle, disp: Vec2) -> f64 {
        self.inner.potential(target, source, disp)
    }
    fn cutoff(&self) -> Option<f64> {
        self.inner.cutoff()
    }
    fn is_symmetric(&self) -> bool {
        self.inner.is_symmetric()
    }
    fn flops_per_interaction(&self) -> u64 {
        self.inner.flops_per_interaction()
    }
}

/// The non-self pairs a law with a cutoff cannot be spared: those its own
/// test `|disp|² > r_c²` does not reject (a NaN displacement among them).
/// `None` for a law without a cutoff, which is asked for every pair.
fn must_ask<F: ForceLaw>(
    law: &F,
    targets: &[Particle],
    sources: &[Particle],
    domain: &Domain,
    boundary: Boundary,
) -> Option<u64> {
    let r_c = law.cutoff()?;
    let pairs = targets
        .iter()
        .flat_map(|t| sources.iter().map(move |s| (t, s)));
    let in_range = pairs.filter(|(t, s)| {
        let d2 = boundary.displacement(domain, t.pos, s.pos).norm_sq();
        t.id != s.id && (d2 <= r_c * r_c || d2.is_nan())
    });
    Some(in_range.count() as u64)
}

/// A particle compared by bit pattern, every NaN collapsed to one value
/// (which NaN the hardware hands back is not part of the contract; which
/// components are NaN is).
fn bits(p: &Particle) -> [u64; 8] {
    let b = |v: f64| if v.is_nan() { u64::MAX } else { v.to_bits() };
    [
        b(p.pos.x),
        b(p.pos.y),
        b(p.vel.x),
        b(p.vel.y),
        b(p.force.x),
        b(p.force.y),
        b(p.mass),
        p.id,
    ]
}

/// Whether the kernel asks once per unordered pair on this call: a block
/// against itself — the same ids in the same order — under a law with a
/// cutoff that promises symmetry.
fn newton<F: ForceLaw>(law: &F, targets: &[Particle], sources: &[Particle]) -> bool {
    law.cutoff().is_some()
        && law.is_symmetric()
        && targets.len() == sources.len()
        && targets.iter().zip(sources).all(|(t, s)| t.id == s.id)
}

/// Per target and component, how far the kernel's symmetric case may land
/// from the scalar loop. Both add the same `m` terms `x_j` in the same
/// order — the starting accumulator, then one per source — except that
/// the kernel's term for pair `j` is `−f(s, t, −d)` where the loop's is
/// `f(t, s, d)`. Each sum is within `m·ε/2·Σ|x_j|` of its exact value
/// (recursive summation), and the exact sums differ by `Σ δ_j`, what the
/// law's promise leaves between the two forms of a pair, measured here
/// pair by pair: zero for Lennard-Jones, a few ulps of the strength product
/// for the inverse-square laws and Yukawa, more for a force-shifted law
/// whose shift cancels. So `|Δ| ≤ Σ δ_j + k·ε·Σ|x_j|` with `k = m`, and a
/// little more for the second order.
fn newton_bound<F: ForceLaw>(
    law: &F,
    targets: &[Particle],
    sources: &[Particle],
    domain: &Domain,
    boundary: Boundary,
) -> Vec<Vec2> {
    let abs = |v: Vec2| Vec2::new(v.x.abs(), v.y.abs());
    targets
        .iter()
        .map(|t| {
            let (mut mismatch, mut terms) = (Vec2::zero(), abs(t.force));
            for s in sources.iter().filter(|s| s.id != t.id) {
                let disp = boundary.displacement(domain, t.pos, s.pos);
                let f = law.force(t, s, disp);
                mismatch += abs(f + law.force(s, t, -disp));
                terms += abs(f);
            }
            let k = 1.01 * sources.len() as f64;
            mismatch * 1.01 + terms * (k * f64::EPSILON)
        })
        .collect()
}

/// Whether `got` is within `bound` of `want` in each component, or, where
/// `want` is not finite, the same value (any NaN for a NaN).
fn within(got: &Particle, want: &Particle, bound: Vec2) -> bool {
    let close = |g: f64, w: f64, b: f64| {
        if w.is_finite() {
            (g - w).abs() <= b
        } else {
            g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan())
        }
    };
    let (g, w) = (got.force, want.force);
    close(g.x, w.x, bound.x)
        && close(g.y, w.y, bound.y)
        && bits(&Particle { force: w, ..*got }) == bits(want)
}

/// One law on one block pair: kernel ≡ scalar loop in forces and count,
/// the potential variant ≡ the plain kernel in forces and ≡ the scalar
/// loop's potential up to summation order, the compact-source instantiation
/// of both ≡ the `Particle`-source one (the harvested potential by bits
/// too: same nest, same order), and a no-override wrapper of the same law
/// produces the same bits from exactly `count` calls (from at least the
/// in-range ones if the law has a cutoff the kernel can cull by). On a
/// block against itself under a symmetric cutoff law the forces are held
/// to [`newton_bound`] of the scalar loop instead, the law is asked about
/// each unordered pair at most once, and every other variant still equals
/// the plain kernel by bits.
fn check_law<F: ForceLaw + Copy>(
    name: &str,
    law: F,
    targets: &[Particle],
    sources: &[Particle],
    domain: &Domain,
    boundary: Boundary,
) -> Result<(), String> {
    let ctx = |what: &str| {
        format!(
            "{name} {boundary:?} {}x{}: {what}",
            targets.len(),
            sources.len()
        )
    };
    let mut want = targets.to_vec();
    let (want_evals, want_pe) = scalar_block(&mut want, sources, &law, domain, boundary);

    let mut got = targets.to_vec();
    let evals = accumulate_block(&mut got, sources, &law, domain, boundary);
    if evals != want_evals {
        return Err(ctx(&format!("count {evals} vs scalar {want_evals}")));
    }
    let newton = newton(&law, targets, sources);
    let bound = if newton {
        newton_bound(&law, targets, sources, domain, boundary)
    } else {
        Vec::new()
    };
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        let agree = match bound.get(i) {
            Some(&b) => within(g, w, b),
            None => bits(g) == bits(w),
        };
        if !agree {
            return Err(ctx(&format!("target {i}: kernel {g:?} vs scalar {w:?}")));
        }
    }

    let mut harvested = targets.to_vec();
    let (pe_evals, pe) =
        accumulate_block_potential(&mut harvested, sources, &law, domain, boundary);
    if pe_evals != want_evals {
        return Err(ctx("potential variant changed the count"));
    }
    if harvested.iter().map(bits).ne(got.iter().map(bits)) {
        return Err(ctx("potential variant changed the forces"));
    }
    // Targets advance in pairs, so the potential's summation order differs
    // from the scalar loop's; its value may differ by rounding only.
    let scale: f64 = want_pe.abs().max(1.0);
    if want_pe.is_finite() && (pe - want_pe).abs() > 1e-9 * scale {
        return Err(ctx(&format!("potential {pe} vs scalar {want_pe}")));
    }

    let wire = compact(sources);
    let mut from_wire = targets.to_vec();
    let wire_evals = accumulate_sources(&mut from_wire, &wire, &law, domain, boundary);
    if wire_evals != want_evals {
        return Err(ctx(&format!(
            "compact sources: count {wire_evals} vs {want_evals}"
        )));
    }
    if from_wire.iter().map(bits).ne(got.iter().map(bits)) {
        return Err(ctx("compact sources changed the forces"));
    }
    let mut from_wire = targets.to_vec();
    let (wire_evals, wire_pe) =
        accumulate_block_potential(&mut from_wire, &wire, &law, domain, boundary);
    let same_pe = wire_pe.to_bits() == pe.to_bits() || (wire_pe.is_nan() && pe.is_nan());
    if wire_evals != want_evals || !same_pe {
        return Err(ctx(&format!(
            "compact sources, potential variant: count {wire_evals}, potential {wire_pe} vs {pe}"
        )));
    }
    if from_wire.iter().map(bits).ne(got.iter().map(bits)) {
        return Err(ctx(
            "compact sources changed the potential variant's forces",
        ));
    }

    let plain = Plain::new(law);
    let mut via_default = targets.to_vec();
    let plain_evals = accumulate_block(&mut via_default, sources, &plain, domain, boundary);
    let calls = plain.calls.load(Ordering::Relaxed);
    // The count is every pair the call answered. The law itself is asked
    // for each of them unless it has a cutoff, and then at least for each
    // pair its own range test would not reject; on a block against itself
    // under a symmetric law, once per unordered pair of those.
    let must_ask = must_ask(&law, targets, sources, domain, boundary).unwrap_or(want_evals);
    let per_ask = if newton { 2 } else { 1 };
    if plain_evals != want_evals || calls * per_ask > want_evals || calls * per_ask < must_ask {
        return Err(ctx(&format!(
            "default path: {calls} force calls (at least {must_ask} / {per_ask}), \
             count {plain_evals}, scalar {want_evals}"
        )));
    }
    if via_default.iter().map(bits).ne(got.iter().map(bits)) {
        return Err(ctx("default per-lane path and lane override disagree"));
    }
    // The cull sees the same positions either way and rules out the same
    // cells: the law is asked about the same pairs.
    let asked = Plain::new(law);
    accumulate_sources(&mut targets.to_vec(), &wire, &asked, domain, boundary);
    let wire_calls = asked.calls.load(Ordering::Relaxed);
    if wire_calls != calls {
        return Err(ctx(&format!(
            "compact sources: {wire_calls} force calls vs {calls}"
        )));
    }
    Ok(())
}

/// Every built-in law and wrapper, sized for a box of order one. Zero
/// softening variants keep the `r2 == 0` guards reachable; the softened
/// ones reach the `|d| == 0` guard on a coincident pair.
fn check_all_laws(
    targets: &[Particle],
    sources: &[Particle],
    domain: &Domain,
    boundary: Boundary,
) -> Result<(), String> {
    let soft = RepulsiveInverseSquare {
        strength: 1e-3,
        softening: 1e-3,
    };
    let hard = RepulsiveInverseSquare {
        strength: 1e-3,
        softening: 0.0,
    };
    let gravity = Gravity {
        g: 1e-3,
        softening: 0.02,
    };
    let point_gravity = Gravity {
        g: 1.0,
        softening: 0.0,
    };
    let lj = LennardJones {
        epsilon: 1.0,
        sigma: 0.05,
    };
    let (t, s, d, b) = (targets, sources, domain, boundary);
    check_law("repulsive", soft, t, s, d, b)?;
    check_law("repulsive eps=0", hard, t, s, d, b)?;
    check_law("gravity", gravity, t, s, d, b)?;
    check_law("gravity eps=0", point_gravity, t, s, d, b)?;
    check_law("lj", lj, t, s, d, b)?;
    check_law("cutoff<repulsive>", Cutoff::new(soft, 0.25), t, s, d, b)?;
    check_law(
        "cutoff<repulsive eps=0>",
        Cutoff::new(hard, 0.5),
        t,
        s,
        d,
        b,
    )?;
    check_law("cutoff<gravity>", Cutoff::new(gravity, 0.25), t, s, d, b)?;
    check_law(
        "cutoff<lj>+tail",
        Cutoff::new(lj, 0.125).with_tail_energy(-0.5),
        t,
        s,
        d,
        b,
    )?;
    check_law("cutoff<counting>", Cutoff::new(Counting, 0.3), t, s, d, b)?;
    check_law(
        "shifted<repulsive>",
        ShiftedForce::new(soft, 0.3),
        t,
        s,
        d,
        b,
    )?;
    check_law("shifted<lj>", ShiftedForce::new(lj, 0.125), t, s, d, b)?;
    check_law("yukawa", Yukawa::default(), t, s, d, b)?;
    check_law(
        "cutoff<yukawa>",
        Cutoff::new(Yukawa::default(), 0.4),
        t,
        s,
        d,
        b,
    )?;
    check_law("counting", Counting, t, s, d, b)?;
    check_law(
        "oneway<cutoff<repulsive>>",
        OneWay(Cutoff::new(soft, 0.25)),
        t,
        s,
        d,
        b,
    )?;
    check_exact(t, s, d, b)
}

/// `s.id − t.id` along x: antisymmetric by construction and
/// integer-valued, so that its sums are exact whatever the order.
#[derive(Clone, Copy)]
struct IdDifference;

impl ForceLaw for IdDifference {
    fn force(&self, target: &Particle, source: &Particle, _disp: Vec2) -> Vec2 {
        Vec2::new(source.id as f64 - target.id as f64, 0.0)
    }
    fn is_symmetric(&self) -> bool {
        true
    }
}

/// [`IdDifference`] under a cutoff on accumulators that start at integers
/// (and `+0.0` on y): every sum is exact, so a block against itself, which
/// the kernel takes once per unordered pair, must land on the scalar loop's
/// bits like every other call.
fn check_exact(
    targets: &[Particle],
    sources: &[Particle],
    domain: &Domain,
    boundary: Boundary,
) -> Result<(), String> {
    let integral = |block: &[Particle]| -> Vec<Particle> {
        let start = |p: &Particle| Vec2::new((p.id % 7) as f64, 0.0);
        block
            .iter()
            .map(|p| Particle {
                force: start(p),
                ..*p
            })
            .collect()
    };
    let (targets, sources) = (integral(targets), integral(sources));
    let law = Cutoff::new(IdDifference, 0.3);
    check_law(
        "cutoff<id difference>",
        law,
        &targets,
        &sources,
        domain,
        boundary,
    )?;
    let mut want = targets.clone();
    scalar_block(&mut want, &sources, &law, domain, boundary);
    let mut got = targets.clone();
    accumulate_block(&mut got, &sources, &law, domain, boundary);
    match got.iter().zip(&want).position(|(g, w)| bits(g) != bits(w)) {
        None => Ok(()),
        Some(i) => Err(format!(
            "cutoff<id difference> {boundary:?} {}x{}: target {i}: kernel {:?} vs scalar {:?}",
            targets.len(),
            sources.len(),
            got[i],
            want[i]
        )),
    }
}

const BOUNDARIES: [Boundary; 3] = [Boundary::Open, Boundary::Reflective, Boundary::Periodic];

/// How the two blocks' ids relate.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Overlap {
    /// `sources` is `targets`: every target meets itself once.
    Diagonal,
    /// Disjoint ids: nothing is skipped.
    OffDiagonal,
    /// The source ids start part-way through the target ids.
    Partial,
}

/// `nt` targets and `ns` sources in `domain` (a few outside it, which the
/// kernel must not care about), random masses, and non-zero initial force
/// accumulators with the odd `-0.0`.
fn blocks(
    seed: u64,
    nt: usize,
    ns: usize,
    overlap: Overlap,
    domain: &Domain,
) -> (Vec<Particle>, Vec<Particle>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let ext = domain.extent();
    let mut particle = |id: u64| {
        let mut at = |lo: f64, len: f64| lo + len * rng.gen_range(-0.05..1.05);
        let pos = Vec2::new(at(domain.min.x, ext.x), at(domain.min.y, ext.y));
        let mut p = Particle::at(id, pos).with_mass(rng.gen_range(0.25..4.0));
        p.vel = Vec2::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0));
        p.force = match rng.gen_range(0..4) {
            0 => Vec2::zero(),
            1 => Vec2::new(-0.0, -0.0),
            _ => Vec2::new(rng.gen_range(-1e-2..1e-2), rng.gen_range(-1e-2..1e-2)),
        };
        p
    };
    let targets: Vec<Particle> = (0..nt as u64).map(&mut particle).collect();
    let sources = match overlap {
        Overlap::Diagonal => targets.clone(),
        Overlap::OffDiagonal => (0..ns as u64).map(|i| particle(1000 + i)).collect(),
        Overlap::Partial => (0..ns as u64)
            .map(|i| {
                let id = nt as u64 / 2 + i;
                // A shared id is the same particle: same position too.
                match targets.get(id as usize) {
                    Some(t) => *t,
                    None => particle(id),
                }
            })
            .collect(),
    };
    (targets, sources)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn kernel_equals_scalar_loop_for_every_law_boundary_and_shape(
        seed in 0u64..1_000_000,
        nt in prop_oneof![Just(0usize), Just(1), Just(2), Just(3), 4usize..34],
        ns in prop_oneof![Just(0usize), Just(1), Just(2), 3usize..34, 34usize..150],
        overlap in prop_oneof![
            Just(Overlap::Diagonal),
            Just(Overlap::OffDiagonal),
            Just(Overlap::Partial),
        ],
        unit_box in any::<bool>(),
        cell_ordered in any::<bool>(),
    ) {
        let domain = if unit_box {
            Domain::unit()
        } else {
            Domain::new(Vec2::new(-1.0, 0.25), Vec2::new(0.5, 1.0))
        };
        // In id order a cell's sources are runs of one; in cell order a
        // row of cells is one range of sources.
        let (targets, sources) = if cell_ordered {
            ordered_blocks(seed, nt, ns, overlap, &domain, 0.125)
        } else {
            blocks(seed, nt, ns, overlap, &domain)
        };
        for boundary in BOUNDARIES {
            if let Err(msg) = check_all_laws(&targets, &sources, &domain, boundary) {
                prop_assert!(false, "seed {} {:?}: {}", seed, overlap, msg);
            }
        }
        // The count is the schedule generators' closed form on the two
        // shapes they cost.
        let mut t = targets.clone();
        let evals = accumulate_block(&mut t, &sources, &Counting, &domain, Boundary::Open);
        match overlap {
            Overlap::Diagonal => prop_assert_eq!(evals, block_interactions(nt, nt, true)),
            Overlap::OffDiagonal => prop_assert_eq!(evals, block_interactions(nt, ns, false)),
            Overlap::Partial => {
                let shared = targets
                    .iter()
                    .filter(|t| sources.iter().any(|s| s.id == t.id))
                    .count() as u64;
                prop_assert_eq!(evals, (nt * ns) as u64 - shared);
            }
        }
    }
}

/// The even / odd / tiny target counts by name, diagonal and not, so a
/// failure says which shape broke without decoding a seed.
#[test]
fn named_target_counts_diagonal_and_off_diagonal() {
    let domain = Domain::unit();
    for nt in [0, 1, 2, 3, 7, 8, 31, 32] {
        for overlap in [Overlap::Diagonal, Overlap::OffDiagonal, Overlap::Partial] {
            let (targets, sources) = blocks(nt as u64 + 17, nt, 9, overlap, &domain);
            for boundary in BOUNDARIES {
                check_all_laws(&targets, &sources, &domain, boundary)
                    .unwrap_or_else(|msg| panic!("nt={nt} {overlap:?}: {msg}"));
            }
        }
    }
}

/// `blocks` with both blocks in the order the cutoff drivers hand the
/// kernel (`cell_order` at radius `r`), so that each cell's sources are
/// one run and each row of cells one range of sources.
fn ordered_blocks(
    seed: u64,
    nt: usize,
    ns: usize,
    overlap: Overlap,
    domain: &Domain,
    r: f64,
) -> (Vec<Particle>, Vec<Particle>) {
    let (mut targets, mut sources) = blocks(seed, nt, ns, overlap, domain);
    let order = Cutoff::new(Counting, r);
    cell_order(&mut targets, &order, domain);
    cell_order(&mut sources, &order, domain);
    (targets, sources)
}

/// `force` calls a no-override wrapper of `law` sees for one kernel call.
fn force_calls<F: ForceLaw>(
    law: F,
    targets: &[Particle],
    sources: &[Particle],
    domain: &Domain,
    boundary: Boundary,
) -> u64 {
    let plain = Plain::new(law);
    accumulate_block(&mut targets.to_vec(), sources, &plain, domain, boundary);
    plain.calls.load(Ordering::Relaxed)
}

#[test]
fn blocks_past_one_chunk_are_culled_and_still_equal_the_scalar_loop() {
    // Source counts of a few cells to a few rows of cells; target counts
    // odd and even. In cell order the cull does rule cells out (asserted,
    // or this test would only repeat the small shapes), and every law must
    // not notice.
    let domain = Domain::unit();
    for (nt, ns) in [(37, 53), (2, 129), (129, 2), (40, 300)] {
        for overlap in [Overlap::Diagonal, Overlap::OffDiagonal, Overlap::Partial] {
            let (targets, sources) = ordered_blocks(
                nt as u64 * 1000 + ns as u64,
                nt,
                ns,
                overlap,
                &domain,
                0.125,
            );
            for boundary in BOUNDARIES {
                check_all_laws(&targets, &sources, &domain, boundary)
                    .unwrap_or_else(|msg| panic!("{nt}x{ns} {overlap:?}: {msg}"));
            }
            if sources.len() > 32 {
                let law = Cutoff::new(Counting, 0.125);
                let asked = force_calls(law, &targets, &sources, &domain, Boundary::Periodic);
                let shown = force_calls(Counting, &targets, &sources, &domain, Boundary::Periodic);
                assert!(
                    asked < shown,
                    "{nt}x{ns} {overlap:?}: asked {asked} of {shown}"
                );
            }
        }
    }
}

#[test]
fn a_short_block_in_order_is_asked_about_no_more_than_pair_by_pair() {
    // A lattice in id order is row-major whatever `cell_order` does, so
    // these counts are the nest's alone, on blocks so sparse that a pair's
    // cells are much of the domain. The figures are those of the per-pair
    // box cull before there were tiles or cells, an upper bound the cells
    // must stay under (they ask 918 | 1302, 885 | 1100 and 5684 | 6612).
    let domain = Domain::unit();
    for (nt, ns, r_c, open, periodic) in [
        (36, 49, 0.25, 1156, 1356),
        (49, 36, 0.25, 1316, 1564),
        (196, 196, 0.125, 10156, 10652),
    ] {
        // An id names a particle: two different lattices share none.
        let other = if nt == ns { 0 } else { 1000 };
        let targets = init::lattice(nt, &domain);
        let sources: Vec<Particle> = init::lattice(ns, &domain)
            .into_iter()
            .map(|s| Particle {
                id: s.id + other,
                ..s
            })
            .collect();
        for (boundary, at_most) in [(Boundary::Open, open), (Boundary::Periodic, periodic)] {
            check_all_laws(&targets, &sources, &domain, boundary).unwrap();
            let law = Cutoff::new(Counting, r_c);
            let asked = force_calls(law, &targets, &sources, &domain, boundary);
            assert!(asked <= at_most, "{nt}x{ns} {boundary:?}: asked {asked}");
        }
    }
}

#[test]
fn tiles_that_end_mid_pair_or_one_past_a_pair_equal_the_scalar_loop() {
    // Target counts that end mid-pair and one past a pair, up to a few
    // cells' worth: the first few of 300 in cell order — a corner of the
    // box, so that every pair rules cells out — against that block (which
    // holds them) and against another like it (which does not).
    let domain = Domain::unit();
    let (block, other) = ordered_blocks(23, 300, 300, Overlap::OffDiagonal, &domain, 0.125);
    for nt in [1, 15, 16, 17, 18, 33] {
        for sources in [&block, &other] {
            for boundary in BOUNDARIES {
                check_all_laws(&block[..nt], sources, &domain, boundary)
                    .unwrap_or_else(|msg| panic!("{nt} targets: {msg}"));
                let law = Cutoff::new(Counting, 0.125);
                let asked = force_calls(law, &block[..nt], sources, &domain, boundary);
                assert!(
                    asked < (nt * sources.len()) as u64 / 2,
                    "{nt} targets {boundary:?}: asked {asked}"
                );
            }
        }
    }
}

#[test]
fn the_cull_asks_about_few_enough_sources_on_the_benchmark_geometry() {
    // One team's block of `cutoff1d_lj_periodic` as the driver hands it to
    // the kernel — a quarter slab of the 8192-particle lattice, thermalised
    // and eight steps adrift, in cell order — against itself and against
    // the next slab's. About 11.5 sources are within r_c of a target and
    // the law is asked about 19.5 | 1.3 per target (DESIGN.md §14.1; the
    // own block once per pair). The count does not depend on the machine:
    // a kernel change that raises it has made the cull coarser, whatever
    // the clock says.
    let n = 8192;
    let domain = Domain::square((n as f64).sqrt() * 1.2);
    let law = Cutoff::new(LennardJones::default(), 2.5);
    let mut lattice = init::lattice(n, &domain);
    init::thermalize(&mut lattice, 0.5, 42);
    for p in &mut lattice {
        let (pos, _) = Boundary::Periodic.apply(&domain, p.pos + p.vel * (8.0 * 0.005), p.vel);
        p.pos = pos;
    }
    let slab = |team: usize| {
        let mut block = spatial_subset_1d(&lattice, &domain, 4, team);
        cell_order(&mut block, &law, &domain);
        block
    };
    let (own, east) = (slab(0), slab(1));
    for (sources, at_most) in [(&own, 20), (&east, 2)] {
        let asked = force_calls(law, &own, sources, &domain, Boundary::Periodic);
        let in_range = must_ask(&law, &own, sources, &domain, Boundary::Periodic).unwrap();
        assert!(
            in_range <= asked && asked <= at_most * own.len() as u64,
            "asked {asked}, in range {in_range}, of {} x {}",
            own.len(),
            sources.len()
        );
    }
}

/// The benchmark's lattice at a seventh of its size and shrunk to the
/// radii of `check_all_laws` (spacing 0.06 where the benchmark has 1.2, so
/// 0.125 is its 2.5 sigma): thermalised, eight steps adrift, wrapped, and
/// with the odd `-0.0` accumulator.
fn small_benchmark_lattice() -> (Vec<Particle>, Domain) {
    let n = 1156;
    let domain = Domain::square((n as f64).sqrt() * 0.06);
    let mut lattice = init::lattice(n, &domain);
    init::thermalize(&mut lattice, 0.5 * 0.05 * 0.05, 42);
    for p in &mut lattice {
        let (pos, _) = Boundary::Periodic.apply(&domain, p.pos + p.vel * (8.0 * 0.005), p.vel);
        p.pos = pos;
        if p.id % 3 == 0 {
            p.force = Vec2::new(-0.0, -0.0);
        }
    }
    (lattice, domain)
}

#[test]
fn blocks_that_meet_only_through_a_periodic_wall_equal_the_scalar_loop() {
    // Every displacement between the two blocks that matters takes the
    // image one period over — the cells a pair reaches are those of that
    // image — on x (slab 0 against slab 3 of four, the benchmark's seam
    // call) and on y (the top row of cells against the bottom one, across
    // all slabs).
    let (lattice, domain) = small_benchmark_lattice();
    let order = Cutoff::new(Counting, 0.125);
    let ordered = |mut block: Vec<Particle>| {
        cell_order(&mut block, &order, &domain);
        block
    };
    let slab = |team: usize| ordered(spatial_subset_1d(&lattice, &domain, 4, team));
    let top = domain.max.y - 0.125;
    let row = |keep: &dyn Fn(f64) -> bool| {
        ordered(lattice.iter().filter(|p| keep(p.pos.y)).copied().collect())
    };
    for (name, targets, sources) in [
        ("x seam", slab(0), slab(3)),
        ("y seam", row(&|y| y >= top), row(&|y| y < 0.125)),
    ] {
        assert!(targets.len() > 64 && sources.len() > 64, "{name}");
        let meet = |boundary| must_ask(&order, &targets, &sources, &domain, boundary).unwrap();
        assert!(
            meet(Boundary::Periodic) > 100 && meet(Boundary::Open) == 0,
            "{name}"
        );
        for boundary in BOUNDARIES {
            check_all_laws(&targets, &sources, &domain, boundary)
                .unwrap_or_else(|msg| panic!("{name}: {msg}"));
        }
        // The other way every pair wraps up where these wrapped down.
        check_all_laws(&sources, &targets, &domain, Boundary::Periodic)
            .unwrap_or_else(|msg| panic!("{name}, the other way: {msg}"));
    }
}

#[test]
fn boxes_that_straddle_half_the_period_equal_the_scalar_loop() {
    // A domain barely wider than twice the smaller radii and narrower than
    // twice the larger: a pair's cells reach half a period on one axis or
    // both, some of their pairs wrap and some do not, and a target's images
    // reach the same cells twice.
    let domain = Domain::square(0.51);
    for overlap in [Overlap::Diagonal, Overlap::OffDiagonal, Overlap::Partial] {
        let (targets, sources) = ordered_blocks(51, 150, 300, overlap, &domain, 0.125);
        check_all_laws(&targets, &sources, &domain, Boundary::Periodic)
            .unwrap_or_else(|msg| panic!("{overlap:?}: {msg}"));
    }
}

#[test]
fn a_domain_of_partial_cells_wraps_its_last_cells_across_the_seam() {
    // 7.3 cells of r_c on x and 5.6 on y: the last column and row of cells
    // are partial, and their particles meet the first ones through the
    // periodic wall, a partial cell's width away.
    let r = 0.125;
    let min = Vec2::new(-0.3, 0.2);
    let domain = Domain::new(min, min + Vec2::new(7.3 * r, 5.6 * r));
    for overlap in [Overlap::Diagonal, Overlap::OffDiagonal, Overlap::Partial] {
        let (targets, sources) = ordered_blocks(73, 120, 160, overlap, &domain, r);
        let meet = |boundary| {
            let law = Cutoff::new(Counting, r);
            must_ask(&law, &targets, &sources, &domain, boundary).unwrap()
        };
        assert!(
            meet(Boundary::Periodic) > meet(Boundary::Open),
            "{overlap:?}"
        );
        for boundary in BOUNDARIES {
            check_all_laws(&targets, &sources, &domain, boundary)
                .unwrap_or_else(|msg| panic!("{overlap:?}: {msg}"));
        }
    }
}

#[test]
fn blocks_that_drifted_off_an_open_domain_equal_the_scalar_loop() {
    // Nothing brings a particle back between open walls: here the blocks
    // are two clusters one to three extents outside the domain, on either
    // side, and the cull still rules out what is far.
    let domain = Domain::unit();
    let mut rng = StdRng::seed_from_u64(31);
    let mut cluster = |first: u64, centre: Vec2| -> Vec<Particle> {
        (first..first + 150)
            .map(|id| {
                let d = Vec2::new(rng.gen_range(-0.4..0.4), rng.gen_range(-0.4..0.4));
                Particle::at(id, centre + d).with_mass(rng.gen_range(0.5..2.0))
            })
            .collect()
    };
    let mut targets = cluster(0, Vec2::new(-2.0, 0.5));
    targets.extend(cluster(150, Vec2::new(3.0, -1.5)));
    let mut sources = cluster(1000, Vec2::new(-1.8, 0.7));
    sources.extend(cluster(1150, Vec2::new(3.2, -1.5)));
    let order = Cutoff::new(Counting, 0.125);
    for block in [&mut targets, &mut sources] {
        cell_order(block, &order, &domain);
    }
    for (targets, sources) in [(&targets, &sources), (&targets, &targets)] {
        check_all_laws(targets, sources, &domain, Boundary::Open).unwrap();
        let asked = force_calls(order, targets, sources, &domain, Boundary::Open);
        let shown = force_calls(Counting, targets, sources, &domain, Boundary::Open);
        assert!(asked < shown / 4, "asked {asked} of {shown}");
    }
}

#[test]
fn a_block_in_no_spatial_order_is_culled_too() {
    // Ids that say nothing about position, as the all-pairs drivers and
    // the baselines hand the kernel a block under a cutoff law: its cells
    // hold runs of one source each, and the law is still asked about the
    // sources of the cells near each pair only.
    let domain = Domain::unit();
    for overlap in [Overlap::Diagonal, Overlap::OffDiagonal] {
        let (targets, sources) = blocks(17, 300, 300, overlap, &domain);
        for boundary in BOUNDARIES {
            check_all_laws(&targets, &sources, &domain, boundary)
                .unwrap_or_else(|msg| panic!("{overlap:?}: {msg}"));
            let law = Cutoff::new(Counting, 0.125);
            let asked = force_calls(law, &targets, &sources, &domain, boundary);
            let shown = force_calls(Counting, &targets, &sources, &domain, boundary);
            assert!(
                asked < shown,
                "{overlap:?} {boundary:?}: asked {asked} of {shown}"
            );
        }
    }
}

#[test]
fn a_shared_coordinate_keeps_the_sign_of_its_zero_under_an_image() {
    // The lane displacement `d - k` with `k = +0.0` must be `d` for every
    // float: a source and a target on one coordinate are `+0.0` apart, or
    // `-0.0` when the source is at `-0.0` and the target at `+0.0`, and a
    // law hands that sign on to a force component, which an accumulator at
    // `-0.0` shows. (`k = -0.0` would turn `-0.0` into `+0.0`.)
    let domain = Domain::new(Vec2::new(-0.5, -0.5), Vec2::new(0.5, 0.5));
    let mut targets = vec![
        Particle::at(0, Vec2::new(0.0, 0.1)),
        Particle::at(1, Vec2::new(0.1, 0.0)),
        Particle::at(2, Vec2::new(0.0, 0.0)),
    ];
    for t in &mut targets {
        t.force = Vec2::new(-0.0, -0.0);
    }
    let sources = vec![
        Particle::at(10, Vec2::new(-0.0, 0.15)),
        Particle::at(11, Vec2::new(0.15, -0.0)),
        Particle::at(12, Vec2::new(0.0, 0.05)),
        Particle::at(13, Vec2::new(-0.0, -0.0)),
        Particle::at(14, Vec2::new(0.1, 0.1)),
    ];
    for boundary in BOUNDARIES {
        check_all_laws(&targets, &sources, &domain, boundary).unwrap();
        // The value itself: target 0 is pulled along y only, and the `-0.0`
        // the source's x leaves in the displacement stays in the force.
        let pull = Cutoff::new(
            Gravity {
                g: 1.0,
                softening: 0.0,
            },
            0.07,
        );
        let mut got = targets.clone();
        accumulate_block(&mut got, &sources[..1], &pull, &domain, boundary);
        assert_eq!(
            got[0].force.x.to_bits(),
            (-0.0f64).to_bits(),
            "{boundary:?}"
        );
        assert!(got[0].force.y > 0.0, "{boundary:?}");
    }
}

#[test]
fn coincident_particles_take_the_zero_guards_in_either_lane() {
    // Distinct ids on the same spot: the laws' zero guards fire, with and
    // without softening (a coincident pair has no direction either way).
    // The coincident source sits first, last, and between ordinary ones,
    // and the coincident target in lane 0, lane 1, and the odd tail.
    let domain = Domain::unit();
    let spot = Vec2::new(0.5, 0.5);
    for lane in 0..3 {
        let mut targets: Vec<Particle> = (0..3)
            .map(|i| Particle::at(i, Vec2::new(0.1 + 0.2 * i as f64, 0.3)))
            .collect();
        targets[lane].pos = spot;
        let sources = vec![
            Particle::at(10, spot),
            Particle::at(11, Vec2::new(0.9, 0.1)),
            Particle::at(12, spot),
            Particle::at(13, Vec2::new(0.2, 0.8)),
            Particle::at(14, spot),
        ];
        for boundary in BOUNDARIES {
            check_all_laws(&targets, &sources, &domain, boundary).unwrap();
        }
    }
}

#[test]
fn a_coincident_pair_with_softening_adds_positive_zero_and_nothing_else() {
    // `|d| == 0` with `eps > 0`: the softened inverse-square laws cannot
    // resolve a direction and answer `+0.0`. Every accumulator starts at
    // `-0.0`, which only a `+0.0` contribution turns into `+0.0`, and the
    // one source sits on one target at a time: lane 0 of the full pair,
    // lane 1, then the odd tail. The other targets get exactly what the
    // scalar `force` says for them.
    let domain = Domain::unit();
    let soft = RepulsiveInverseSquare {
        strength: 1e-3,
        softening: 1e-3,
    };
    let gravity = Gravity {
        g: 1e-3,
        softening: 0.02,
    };
    fn check<F: ForceLaw + Copy>(name: &str, law: F, domain: &Domain) {
        let places = [
            Vec2::new(0.25, 0.5),
            Vec2::new(0.5, 0.25),
            Vec2::new(0.625, 0.75),
        ];
        for hit in 0..3 {
            let mut targets: Vec<Particle> = (0..3)
                .map(|i| Particle::at(i, places[i as usize]).with_mass(1.0 + i as f64))
                .collect();
            for t in &mut targets {
                t.force = Vec2::new(-0.0, -0.0);
            }
            let sources = vec![Particle::at(10, places[hit]).with_mass(0.5)];
            for boundary in BOUNDARIES {
                check_law(name, law, &targets, &sources, domain, boundary).unwrap();
                let mut got = targets.clone();
                accumulate_block(&mut got, &sources, &law, domain, boundary);
                for (i, (g, t)) in got.iter().zip(&targets).enumerate() {
                    let disp = boundary.displacement(domain, t.pos, sources[0].pos);
                    let want = if i == hit {
                        Vec2::zero()
                    } else {
                        Vec2::new(-0.0, -0.0) + law.force(t, &sources[0], disp)
                    };
                    assert_eq!(
                        [g.force.x.to_bits(), g.force.y.to_bits()],
                        [want.x.to_bits(), want.y.to_bits()],
                        "{name} {boundary:?}: source on target {hit}, target {i}"
                    );
                    assert_eq!(g.force == Vec2::zero(), i == hit, "{name}: target {i}");
                }
            }
        }
    }
    check("repulsive", soft, &domain);
    check("gravity", gravity, &domain);
    check("cutoff<repulsive>", Cutoff::new(soft, 0.75), &domain);
    check("cutoff<gravity>", Cutoff::new(gravity, 0.75), &domain);
}

#[test]
fn rejected_pairs_add_positive_zero_to_a_negative_zero_accumulator() {
    // Every pair is beyond r_c, so the scalar loop adds `+0.0` to each
    // accumulator: `-0.0` becomes `+0.0`, anything else is unchanged. The
    // lane path returns early on an all-rejected vector and must still
    // leave the same bits behind.
    let domain = Domain::square(10.0);
    let law = Cutoff::new(LennardJones::default(), 0.5);
    let mut targets: Vec<Particle> = (0..5)
        .map(|i| Particle::at(i, Vec2::new(1.0 + i as f64, 1.0)))
        .collect();
    for t in &mut targets {
        t.force = Vec2::new(-0.0, -0.0);
    }
    targets[3].force = Vec2::new(-0.0, 2.5);
    let sources = vec![Particle::at(20, Vec2::new(1.0, 8.0))];
    for boundary in [Boundary::Open, Boundary::Reflective] {
        let mut got = targets.clone();
        accumulate_block(&mut got, &sources, &law, &domain, boundary);
        for (i, g) in got.iter().enumerate() {
            assert_eq!(g.force.x.to_bits(), 0.0f64.to_bits(), "target {i} x");
            let want_y = if i == 3 { 2.5f64 } else { 0.0 };
            assert_eq!(g.force.y.to_bits(), want_y.to_bits(), "target {i} y");
        }
        check_law("cutoff<lj>", law, &targets, &sources, &domain, boundary).unwrap();
    }
    // No sources at all: nothing is added, `-0.0` stays `-0.0`.
    let mut untouched = targets.clone();
    accumulate_block(&mut untouched, &[], &law, &domain, Boundary::Open);
    assert_eq!(untouched[0].force.x.to_bits(), (-0.0f64).to_bits());

    // Every source ruled out without the law being asked once: the zeros
    // nobody computed still turn `-0.0` into `+0.0`.
    let far: Vec<Particle> = (0..48)
        .map(|i| Particle::at(20 + i, Vec2::new(1.0 + 0.1 * i as f64, 8.0)))
        .collect();
    for boundary in BOUNDARIES {
        assert_eq!(force_calls(law, &targets, &far, &domain, boundary), 0);
        let mut got = targets.clone();
        accumulate_block(&mut got, &far, &law, &domain, boundary);
        for (i, g) in got.iter().enumerate() {
            assert_eq!(g.force.x.to_bits(), 0.0f64.to_bits(), "target {i} x");
        }
        check_law("cutoff<lj>", law, &targets, &far, &domain, boundary).unwrap();
    }

    // Some sources ruled out, and the accepted pairs answer `-0.0`: the
    // scalar loop's `-0.0 + 0.0 + -0.0` is `+0.0`, so the kernel's
    // `-0.0 + -0.0` needs its one closing `+ 0.0`. With every pair in range
    // nothing is ruled out and `-0.0` stays.
    #[derive(Clone, Copy)]
    struct NegativeZero;
    impl ForceLaw for NegativeZero {
        fn force(&self, _: &Particle, _: &Particle, _: Vec2) -> Vec2 {
            Vec2::new(-0.0, -0.0)
        }
    }
    let law = Cutoff::new(NegativeZero, 0.5);
    let near: Vec<Particle> = (0..20)
        .map(|i| Particle::at(100 + i, Vec2::new(1.0 + 0.01 * i as f64, 1.1)))
        .collect();
    let mixed: Vec<Particle> = far.iter().chain(&near).copied().collect();
    for boundary in BOUNDARIES {
        for (sources, want) in [(&near, -0.0f64), (&mixed, 0.0)] {
            let asked = force_calls(law, &targets[..1], sources, &domain, boundary);
            assert_eq!(
                asked,
                near.len() as u64,
                "only the near sources are asked about"
            );
            let mut got = targets[..1].to_vec();
            accumulate_block(&mut got, sources, &law, &domain, boundary);
            assert_eq!(got[0].force.x.to_bits(), want.to_bits());
            check_law("cutoff<-0>", law, &targets, sources, &domain, boundary).unwrap();
        }
    }
}

#[test]
fn pairs_exactly_at_the_cutoff_radius_are_kept() {
    // |disp|^2 == r_c^2 exactly (r_c = 5/8 along an axis, and the 3-4-5
    // triangle scaled by 1/8): `>` rejects, so these interact; one ulp
    // further out they do not.
    let domain = Domain::unit();
    let targets = vec![
        Particle::at(0, Vec2::new(0.25, 0.25)),
        Particle::at(1, Vec2::new(0.25, 0.5)),
        Particle::at(2, Vec2::new(0.5, 0.25)),
    ];
    let sources = vec![
        Particle::at(10, Vec2::new(0.875, 0.25)),
        Particle::at(11, Vec2::new(0.25, 0.875)),
        Particle::at(12, Vec2::new(0.625, 0.75)),
        Particle::at(13, Vec2::new(0.8750000000000001, 0.25)),
    ];
    let law = Cutoff::new(Counting, 0.625);
    let mut got = targets.clone();
    accumulate_block(&mut got, &sources, &law, &domain, Boundary::Open);
    // Target 0 is exactly r_c from sources 10 and 11 and (3/8, 4/8) from 12.
    assert_eq!(got[0].force.x, 3.0);
    for boundary in BOUNDARIES {
        check_law(
            "cutoff<counting>",
            law,
            &targets,
            &sources,
            &domain,
            boundary,
        )
        .unwrap();
        let repulsive = RepulsiveInverseSquare::default();
        let edge = Cutoff::new(repulsive, 0.625);
        check_law(
            "cutoff<repulsive>",
            edge,
            &targets,
            &sources,
            &domain,
            boundary,
        )
        .unwrap();
    }
}

#[test]
fn displacements_exactly_at_half_the_box_are_not_wrapped() {
    // Minimum image wraps only strictly beyond half the extent: at exactly
    // +/- half it keeps the raw displacement, per axis and per lane.
    let domain = Domain::new(Vec2::new(0.0, 0.0), Vec2::new(2.0, 1.0));
    let targets = vec![
        Particle::at(0, Vec2::new(0.25, 0.125)),
        Particle::at(1, Vec2::new(1.5, 0.75)),
        Particle::at(2, Vec2::new(1.0, 0.5)),
    ];
    let sources = vec![
        Particle::at(10, Vec2::new(1.25, 0.625)), // +half from target 0 on both axes
        Particle::at(11, Vec2::new(0.5, 0.25)),   // -half from target 1 on both axes
        Particle::at(12, Vec2::new(1.2500000000000002, 0.125)), // just beyond: wraps
        Particle::at(13, Vec2::new(0.0, 0.0)),
        Particle::at(14, Vec2::new(2.0, 1.0)),
    ];
    check_all_laws(&targets, &sources, &domain, Boundary::Periodic).unwrap();
    // And the value itself: the unwrapped +1.0 displacement, not -1.0.
    let pull = Gravity {
        g: 1.0,
        softening: 0.0,
    };
    let mut got = vec![Particle::at(0, Vec2::new(0.25, 0.5))];
    let src = vec![Particle::at(10, Vec2::new(1.25, 0.5))];
    accumulate_block(&mut got, &src, &pull, &domain, Boundary::Periodic);
    assert_eq!(got[0].force, Vec2::new(1.0, 0.0));
}

#[test]
fn nan_positions_poison_the_same_components_as_the_scalar_loop() {
    // `nbody-simhealth` blames the first particle whose force is not
    // finite; that lands on the same (rank, step, particle) only if a NaN
    // spreads through the lane path exactly as through the scalar one:
    // same targets, same components, neighbours in the other lane clean.
    let domain = Domain::unit();
    let nan = f64::NAN;
    for (bad_target, bad_pos) in [
        (Some(0), Vec2::new(nan, 0.4)),
        (Some(1), Vec2::new(0.4, nan)),
        (Some(2), Vec2::new(nan, nan)),
        (None, Vec2::new(nan, 0.4)),
    ] {
        let mut targets: Vec<Particle> = (0..3)
            .map(|i| Particle::at(i, Vec2::new(0.2 + 0.1 * i as f64, 0.3)))
            .collect();
        let mut sources: Vec<Particle> = (0..4)
            .map(|i| Particle::at(10 + i, Vec2::new(0.6, 0.1 + 0.2 * i as f64)))
            .collect();
        match bad_target {
            Some(i) => targets[i].pos = bad_pos,
            None => sources[2].pos = bad_pos,
        }
        for boundary in BOUNDARIES {
            check_all_laws(&targets, &sources, &domain, boundary).unwrap();
        }
        // The blame itself: which targets end up non-finite.
        let law = RepulsiveInverseSquare {
            strength: 1e-3,
            softening: 1e-3,
        };
        let mut got = targets.clone();
        accumulate_block(&mut got, &sources, &law, &domain, Boundary::Reflective);
        for (i, g) in got.iter().enumerate() {
            let poisoned = bad_target.is_none() || bad_target == Some(i);
            assert_eq!(!g.force.is_finite(), poisoned, "target {i}: {:?}", g.force);
        }
    }
}

#[test]
fn a_nan_or_infinite_position_is_never_ruled_out() {
    // A patch of sources far from the targets: the cull rules all of them
    // out, and the law is not asked once. Then one source mid-patch gets a
    // NaN or infinite coordinate. The scalar
    // loop shows it to every target (NaN poisons; `inf` is rejected unless
    // the target is at the same infinity, where `inf - inf` poisons), so
    // the kernel must too, and likewise for a target that is not finite.
    let domain = Domain::unit();
    let (nan, inf) = (f64::NAN, f64::INFINITY);
    let targets: Vec<Particle> = (0..5)
        .map(|i| Particle::at(i, Vec2::new(0.1 + 0.01 * i as f64, 0.1)))
        .collect();
    let sources: Vec<Particle> = (0..48)
        .map(|i| Particle::at(100 + i, Vec2::new(0.6 + 0.001 * i as f64, 0.6)))
        .collect();
    let law = Cutoff::new(Counting, 0.05);
    for boundary in BOUNDARIES {
        assert_eq!(force_calls(law, &targets, &sources, &domain, boundary), 0);
    }
    let bad = [
        Vec2::new(nan, 0.6),
        Vec2::new(0.6, nan),
        Vec2::new(inf, 0.6),
        Vec2::new(0.6, -inf),
        Vec2::new(inf, inf),
    ];
    for bad_pos in bad {
        let mut poisoned = sources.clone();
        poisoned[20].pos = bad_pos;
        for boundary in BOUNDARIES {
            check_all_laws(&targets, &poisoned, &domain, boundary).unwrap();
            // Every target is shown the bad source, and only it.
            let asked = force_calls(law, &targets, &poisoned, &domain, boundary);
            assert_eq!(asked, targets.len() as u64, "{bad_pos:?} {boundary:?}");
        }
        for lane in [0, 1, 4] {
            let mut strays = targets.clone();
            strays[lane].pos = bad_pos;
            for boundary in BOUNDARIES {
                check_all_laws(&strays, &sources, &domain, boundary).unwrap();
                check_all_laws(&strays, &poisoned, &domain, boundary).unwrap();
            }
        }
        // Mid-block, in lane 0 of the eleventh pair: both targets of that
        // pair are shown every source; the pairs either side still rule
        // every cell out.
        let mut pairs: Vec<Particle> = (0..37)
            .map(|i| Particle::at(i, Vec2::new(0.1 + 0.001 * i as f64, 0.1)))
            .collect();
        pairs[20].pos = bad_pos;
        for boundary in BOUNDARIES {
            check_all_laws(&pairs, &sources, &domain, boundary).unwrap();
            check_all_laws(&pairs, &poisoned, &domain, boundary).unwrap();
            let asked = force_calls(law, &pairs, &sources, &domain, boundary);
            assert_eq!(asked, 2 * 48, "{bad_pos:?} {boundary:?}");
        }
        // The blame itself: a NaN source poisons every target.
        if bad_pos.x.is_nan() || bad_pos.y.is_nan() {
            let lj = Cutoff::new(
                LennardJones {
                    epsilon: 1.0,
                    sigma: 0.02,
                },
                0.05,
            );
            let mut got = targets.clone();
            accumulate_block(&mut got, &poisoned, &lj, &domain, Boundary::Periodic);
            assert!(got.iter().all(|g| !g.force.is_finite()), "{bad_pos:?}");
        }
    }
}

#[test]
fn a_nan_or_infinity_in_a_block_against_itself_poisons_what_it_poisons_one_way() {
    // The symmetric case asks about each pair once, from its lower index,
    // so a particle that is not finite must reach, and be reached by, the
    // same particles as when every ordered pair asks for itself: a NaN the
    // whole block, an infinity only a particle at the same infinity
    // (`inf − inf`). It sits in lane 0, in lane 1, mid-block and last; an
    // infinity gets a twin a few places on.
    let domain = Domain::unit();
    let (nan, inf) = (f64::NAN, f64::INFINITY);
    let lj = Cutoff::new(
        LennardJones {
            epsilon: 1.0,
            sigma: 0.02,
        },
        0.05,
    );
    let (block, _) = ordered_blocks(7, 150, 0, Overlap::Diagonal, &domain, 0.05);
    let finite = |ps: &[Particle]| -> Vec<[bool; 2]> {
        let f = |p: &Particle| [p.force.x.is_finite(), p.force.y.is_finite()];
        ps.iter().map(f).collect()
    };
    for bad in [
        Vec2::new(nan, 0.6),
        Vec2::new(0.6, nan),
        Vec2::new(inf, 0.6),
        Vec2::new(0.6, -inf),
        Vec2::new(inf, inf),
    ] {
        for at in [0, 1, 70, 149] {
            let mut poisoned = block.clone();
            poisoned[at].pos = bad;
            if !bad.x.is_nan() && !bad.y.is_nan() {
                poisoned[(at + 5) % 150].pos = bad;
            }
            for boundary in BOUNDARIES {
                check_all_laws(&poisoned, &poisoned, &domain, boundary)
                    .unwrap_or_else(|msg| panic!("{bad:?} at {at}: {msg}"));
                let mut newton = poisoned.clone();
                accumulate_block(&mut newton, &poisoned, &lj, &domain, boundary);
                let mut one_way = poisoned.clone();
                accumulate_block(&mut one_way, &poisoned, &OneWay(lj), &domain, boundary);
                let ctx = format!("{bad:?} at {at} {boundary:?}");
                assert_eq!(finite(&newton), finite(&one_way), "{ctx}");
                let poisoned = finite(&newton).iter().filter(|f| f != &&[true; 2]).count();
                let want = if bad.x.is_nan() || bad.y.is_nan() {
                    150
                } else {
                    2
                };
                assert_eq!(poisoned, want, "{ctx}");
            }
        }
    }
}

#[test]
fn a_repeated_id_in_a_block_against_itself_is_skipped_both_ways() {
    // An id names a particle, so a block that holds one twice holds it at
    // one place, and neither copy is shown the other. Asked once per
    // unordered pair, the kernel meets such a pair in its scalar path, where
    // the other lane still asks and hands the copy its reaction: the counts
    // and forces must be the scalar loop's, as on any block against itself.
    let domain = Domain::unit();
    for (first, again) in [(3, 25), (6, 7), (0, 39)] {
        let (mut block, _) = ordered_blocks(5, 40, 0, Overlap::Diagonal, &domain, 0.3);
        block[again] = block[first];
        for boundary in BOUNDARIES {
            check_all_laws(&block, &block, &domain, boundary).unwrap_or_else(|msg| {
                panic!("id {} at {first} and {again}: {msg}", block[first].id)
            });
        }
    }
}
