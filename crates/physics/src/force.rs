//! Pairwise force laws.
//!
//! The paper's experiments use a repulsive force that "drops off with the
//! square of their distance" (§III.C); we implement that law plus gravity and
//! Lennard-Jones to exercise the API's generality, a [`Counting`] law used
//! for exact pair-coverage tests, and a [`Cutoff`] wrapper implementing the
//! paper's finite cutoff radius `r_c` (§IV) under which interactions beyond
//! `r_c` have "constant or zero effect".
//!
//! Note: the paper explicitly does *not* exploit force symmetry ("The force
//! is symmetric, but it need not be and we do not apply optimizations to
//! exploit the symmetry"). The distributed algorithms in `ca-nbody` follow
//! the same rule between blocks: every ordered pair `(i, j)` of two
//! different blocks is evaluated where the schedule brings them together.
//! Within a block under a law with a cutoff that promises symmetry
//! ([`ForceLaw::is_symmetric`]), the block kernel asks once per unordered
//! pair and gives the partner `−f`; every other law, and every law without
//! a cutoff, is asked about every ordered pair.

use crate::lanes::{F64x2, Vec2x2};
use crate::particle::Particle;
use crate::vec2::Vec2;

/// A pairwise force law.
///
/// `disp` is the displacement `source.pos - target.pos`, already corrected
/// for boundary conditions (minimum image under periodic boundaries). Passing
/// the displacement instead of raw positions keeps boundary handling out of
/// the force kernels.
///
/// # What a law may read of a particle
///
/// `mass` and `id` (and `pos`, though `disp` already carries it). The CA
/// drivers circulate a block as [`Source`](crate::Source)s — position, mass,
/// id — so a `source` that crossed the wire has `vel` and `force` zero, and
/// so has a `target` on a replica row, whose block is rebuilt from the same
/// broadcast; the serial reference shows the same particles with both set.
/// A law that read either field would make the two disagree.
///
/// # Giving a law a lane override
///
/// The block kernel evaluates two targets against one source per call of
/// [`force_x2`](ForceLaw::force_x2). A law that implements only `force`
/// gets the provided default — `force` once per lane — and is correct as
/// it stands. A law whose cost is arithmetic (divides, square roots) should
/// override `force_x2` with [`F64x2`]/[`Vec2x2`] arithmetic, which on
/// `x86_64` retires both lanes per instruction. `force` is the definition
/// of the law — the serial reference, the scalar path of the kernel and
/// every test go through it — and the override must keep the kernel's
/// contract, *lane `i` of the result is bit for bit
/// `self.force(targets[i], source, lane i of disp)`*:
///
/// * in `force` itself, prefer one reciprocal and multiplies over several
///   divides: the divider is the kernel's bottleneck (DESIGN.md §13.3),
///   and the built-in laws spend at most one `sqrt` and one `/` per pair;
/// * transcribe `force` operation by operation, in its order and
///   association (`disp * inv * k` is `(disp * inv) * k`, and `k * m_t *
///   m_s` is `(k * m_t) * m_s`); lane arithmetic never fuses or
///   approximates, so equal expressions give equal bits;
/// * every `if guard { return Vec2::zero() }` becomes a final
///   [`Vec2x2::zero_where`] on the guard's mask — the guarded lane computes
///   garbage (possibly `inf`/NaN) that the select then replaces with `+0.0`;
/// * compares are false on NaN in both forms, so a NaN displacement flows
///   through to a NaN force in the same components;
/// * a wrapper forwards to `inner.force_x2` and may evaluate the inner law
///   on a lane it then discards, so `force` must stay free of side effects
///   that a caller could miss or double-count.
///
/// `tests/kernel_equivalence.rs` at the workspace root checks every
/// built-in law against the scalar loop; add a new law to its list.
pub trait ForceLaw: Sync {
    /// Force exerted **on** `target` **by** `source`.
    fn force(&self, target: &Particle, source: &Particle, disp: Vec2) -> Vec2;

    /// Forces exerted on `targets[0]` and `targets[1]` by `source`, lane
    /// `i` of `disp` being `source.pos - targets[i].pos`. Must equal
    /// [`force`](ForceLaw::force) per lane bit for bit; the default calls
    /// it once per lane. See the trait docs before overriding.
    #[inline]
    fn force_x2(&self, targets: [&Particle; 2], source: &Particle, disp: Vec2x2) -> Vec2x2 {
        let [d0, d1] = disp.to_lanes();
        Vec2x2::new(
            self.force(targets[0], source, d0),
            self.force(targets[1], source, d1),
        )
    }

    /// Pair potential energy, counted once per unordered pair.
    fn potential(&self, _target: &Particle, _source: &Particle, _disp: Vec2) -> f64 {
        0.0
    }

    /// Interaction cutoff radius, if any. `None` means all-pairs.
    ///
    /// `Some(r_c)` is a promise the block kernel relies on: whenever
    /// `disp.norm_sq() > r_c * r_c` (both sides as `f64` arithmetic writes
    /// them), [`force`](ForceLaw::force) returns exactly `+0.0` in both
    /// components, whatever the particles. The kernel may then not ask at
    /// all about a pair it can prove is that far apart, and a law must not
    /// count on being called for it. [`potential`](ForceLaw::potential)
    /// need not be zero there, but must be one constant for every such
    /// pair ([`Cutoff`]'s tail energy): the kernel's potential harvest asks
    /// it once per call and charges it to every pair it ruled out.
    fn cutoff(&self) -> Option<f64> {
        None
    }

    /// Whether the law promises Newton's third law: `force(t, s, d)` is
    /// `−force(s, t, −d)`, to within the rounding of the strength product
    /// (`k·m_t·m_s` against `k·m_s·m_t`), and exactly so when nothing in
    /// the force depends on which particle is the target. Momentum
    /// diagnostics read it, and the block kernel, under a law that also has
    /// a [`cutoff`](ForceLaw::cutoff), asks once per unordered pair of a
    /// block against itself and hands the partner `−f`. Opt-in: `false`
    /// unless a law says otherwise, and a wrapper forwards its inner law's.
    fn is_symmetric(&self) -> bool {
        false
    }

    /// Nominal floating-point operations per force evaluation, the
    /// conversion factor from interaction counts to FLOP totals (Harfst
    /// et al.'s hardware-efficiency accounting). Counts multiplies, adds,
    /// divides, and square roots as one FLOP each, including the force
    /// accumulation; transcendental calls are costed at their typical
    /// polynomial expansion. An estimate, not a measurement — what matters
    /// for roofline comparisons is that it is fixed per law. It is charged
    /// once per pair the kernel *answers*: under a cutoff most pairs are
    /// answered by the range test alone, or by the kernel's cull without a
    /// call, so a cutoff law's FLOP totals are nominal, not executed work.
    fn flops_per_interaction(&self) -> u64 {
        20
    }
}

/// `k·m_t·m_s` of a target pair against one source, one per lane, in the
/// scalar association `(k·m_t)·m_s`.
#[inline(always)]
fn strength_x2(k: f64, targets: [&Particle; 2], source: &Particle) -> F64x2 {
    F64x2::splat(k) * F64x2::new(targets[0].mass, targets[1].mass) * F64x2::splat(source.mass)
}

/// The softened inverse-square force both [`Gravity`] (`kmm = G·m_t·m_s`)
/// and [`RepulsiveInverseSquare`] (`kmm = −k·m_t·m_s`) are made of, at one
/// square root and one divide per pair: `disp · (1 / (r²·|d|)) · kmm` with
/// `r² = |d|² + ε²`. Multiplying `disp` by the reciprocal *before* the
/// strength keeps every intermediate no larger than `1/r²` or the force
/// itself, so a finite displacement never yields NaN (`kmm/(r²·|d|)` can
/// overflow where the force does not, and `0 · inf` across the
/// displacement is NaN).
///
/// One guard: a denominator below the normal range returns `+0.0`. That is
/// the coincident pair with `ε > 0` (`|d| = 0`, otherwise `0·inf`), the
/// coincident pair with `ε = 0` (`r² = 0`), and a pair so close that
/// `r²·|d|` is no longer a normal number (`|d| < 2.9e-103` at `ε = 0`).
/// DESIGN.md §13.5 states the range and the ULP bound against the textbook
/// `normalized() * (k·m·m/r²)`.
#[inline(always)]
fn inverse_square(kmm: f64, softening: f64, disp: Vec2) -> Vec2 {
    let d2 = disp.norm_sq();
    let denom = (d2 + softening * softening) * d2.sqrt();
    if denom < f64::MIN_POSITIVE {
        return Vec2::zero();
    }
    disp * (1.0 / denom) * kmm
}

/// [`inverse_square`] for a target pair, operation by operation.
#[inline(always)]
fn inverse_square_x2(kmm: F64x2, softening: f64, disp: Vec2x2) -> Vec2x2 {
    let d2 = disp.norm_sq();
    let denom = (d2 + F64x2::splat(softening * softening)) * d2.sqrt();
    (disp * (F64x2::splat(1.0) / denom) * kmm)
        .zero_where(denom.lanes_lt(F64x2::splat(f64::MIN_POSITIVE)))
}

/// The paper's force: repulsion with inverse-square falloff,
/// `F = k m_i m_j / (r^2 + eps^2)` directed away from the source.
#[derive(Debug, Clone, Copy)]
pub struct RepulsiveInverseSquare {
    /// Force constant `k`.
    pub strength: f64,
    /// Plummer-style softening length; avoids the singularity when particles
    /// approach. Zero is allowed. Coincident particles exert no force at any
    /// softening, because the direction is undefined.
    pub softening: f64,
}

impl Default for RepulsiveInverseSquare {
    fn default() -> Self {
        RepulsiveInverseSquare {
            strength: 1e-4,
            softening: 1e-6,
        }
    }
}

impl ForceLaw for RepulsiveInverseSquare {
    // Repulsive: push the target away from the source, i.e. opposite the
    // displacement toward the source — the negated strength.
    #[inline]
    fn force(&self, target: &Particle, source: &Particle, disp: Vec2) -> Vec2 {
        let kmm = -self.strength * target.mass * source.mass;
        inverse_square(kmm, self.softening, disp)
    }

    #[inline]
    fn force_x2(&self, targets: [&Particle; 2], source: &Particle, disp: Vec2x2) -> Vec2x2 {
        let kmm = strength_x2(-self.strength, targets, source);
        inverse_square_x2(kmm, self.softening, disp)
    }

    #[inline]
    fn potential(&self, target: &Particle, source: &Particle, disp: Vec2) -> f64 {
        let r = (disp.norm_sq() + self.softening * self.softening).sqrt();
        if r == 0.0 {
            return 0.0;
        }
        self.strength * target.mass * source.mass / r
    }

    fn is_symmetric(&self) -> bool {
        true
    }

    // norm_sq (3) + softening (2) + sqrt (1) + denominator (1) +
    // reciprocal (1) + strength (2) + scale twice (4) + accumulate (2) +
    // compare (1). The sign rides on the strength.
    fn flops_per_interaction(&self) -> u64 {
        17
    }
}

/// Newtonian gravity with Plummer softening, `F = G m_i m_j / (r^2 + eps^2)`
/// directed toward the source.
#[derive(Debug, Clone, Copy)]
pub struct Gravity {
    /// Gravitational constant.
    pub g: f64,
    /// Plummer softening length.
    pub softening: f64,
}

impl Default for Gravity {
    fn default() -> Self {
        Gravity {
            g: 1.0,
            softening: 1e-3,
        }
    }
}

impl ForceLaw for Gravity {
    #[inline]
    fn force(&self, target: &Particle, source: &Particle, disp: Vec2) -> Vec2 {
        inverse_square(self.g * target.mass * source.mass, self.softening, disp)
    }

    #[inline]
    fn force_x2(&self, targets: [&Particle; 2], source: &Particle, disp: Vec2x2) -> Vec2x2 {
        inverse_square_x2(strength_x2(self.g, targets, source), self.softening, disp)
    }

    #[inline]
    fn potential(&self, target: &Particle, source: &Particle, disp: Vec2) -> f64 {
        let r = (disp.norm_sq() + self.softening * self.softening).sqrt();
        if r == 0.0 {
            return 0.0;
        }
        -self.g * target.mass * source.mass / r
    }

    fn is_symmetric(&self) -> bool {
        true
    }

    // Same operation mix as the repulsive law, opposite sign.
    fn flops_per_interaction(&self) -> u64 {
        17
    }
}

/// The 12-6 Lennard-Jones potential, the standard short-range MD force the
/// paper's cutoff discussion targets (§II.C).
#[derive(Debug, Clone, Copy)]
pub struct LennardJones {
    /// Well depth.
    pub epsilon: f64,
    /// Zero-crossing distance.
    pub sigma: f64,
}

impl Default for LennardJones {
    fn default() -> Self {
        LennardJones {
            epsilon: 1.0,
            sigma: 1.0,
        }
    }
}

impl ForceLaw for LennardJones {
    #[inline]
    fn force(&self, _target: &Particle, _source: &Particle, disp: Vec2) -> Vec2 {
        let r2 = disp.norm_sq();
        if r2 == 0.0 {
            return Vec2::zero();
        }
        // One reciprocal, then multiplies: the divider is the bottleneck.
        let inv_r2 = 1.0 / r2;
        let s2 = self.sigma * self.sigma * inv_r2;
        let s6 = s2 * s2 * s2;
        let s12 = s6 * s6;
        // dU/dr resolved along the pair axis; positive magnitude = repulsion.
        let mag_over_r = 24.0 * self.epsilon * (2.0 * s12 - s6) * inv_r2;
        -disp * mag_over_r
    }

    #[inline]
    fn force_x2(&self, _targets: [&Particle; 2], _source: &Particle, disp: Vec2x2) -> Vec2x2 {
        let r2 = disp.norm_sq();
        let inv_r2 = F64x2::splat(1.0) / r2;
        let s2 = F64x2::splat(self.sigma * self.sigma) * inv_r2;
        let s6 = s2 * s2 * s2;
        let s12 = s6 * s6;
        let mag_over_r =
            F64x2::splat(24.0 * self.epsilon) * (F64x2::splat(2.0) * s12 - s6) * inv_r2;
        (-disp * mag_over_r).zero_where(r2.lanes_eq(F64x2::splat(0.0)))
    }

    #[inline]
    fn potential(&self, _target: &Particle, _source: &Particle, disp: Vec2) -> f64 {
        let r2 = disp.norm_sq();
        if r2 == 0.0 {
            return 0.0;
        }
        let s2 = self.sigma * self.sigma / r2;
        let s6 = s2 * s2 * s2;
        4.0 * self.epsilon * (s6 * s6 - s6)
    }

    fn is_symmetric(&self) -> bool {
        true
    }

    // norm_sq (3) + reciprocal (1) + s2/s6/s12 ladder (5) + magnitude (5)
    // + scale (2) + accumulate (2) + compare (1). Negation is a sign flip.
    fn flops_per_interaction(&self) -> u64 {
        19
    }
}

/// A diagnostic "force" that adds exactly `(1, 0)` per evaluated pair.
///
/// Because pair counts are small integers, sums are exact in `f64`, so a
/// distributed algorithm computes the correct result **iff** every particle's
/// accumulated x-force equals its exact neighbor count. This is the workhorse
/// of the pair-coverage test suite: it detects missed pairs, double-counted
/// pairs, and self-interactions regardless of reduction order.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counting;

impl ForceLaw for Counting {
    #[inline]
    fn force(&self, _target: &Particle, _source: &Particle, _disp: Vec2) -> Vec2 {
        Vec2::new(1.0, 0.0)
    }

    fn is_symmetric(&self) -> bool {
        false
    }

    // Only the two accumulator adds.
    fn flops_per_interaction(&self) -> u64 {
        2
    }
}

/// Wraps a force law with a finite cutoff radius `r_c` (§IV): pairs farther
/// apart than `r_c` contribute zero force. An optional constant tail energy
/// per truncated pair models the paper's "constant effect" approximation for
/// long-range contributions.
#[derive(Debug, Clone, Copy)]
pub struct Cutoff<F> {
    /// The wrapped short-range law.
    pub inner: F,
    /// Cutoff radius.
    pub r_c: f64,
    /// Constant potential assigned to each pair beyond the cutoff (the
    /// "constant or zero effect" of §IV). Zero by default.
    pub tail_energy: f64,
}

impl<F> Cutoff<F> {
    /// Wrap `inner` with cutoff radius `r_c` (must be positive).
    pub fn new(inner: F, r_c: f64) -> Self {
        assert!(r_c > 0.0, "cutoff radius must be positive, got {r_c}");
        Cutoff {
            inner,
            r_c,
            tail_energy: 0.0,
        }
    }

    /// Builder-style override of the constant tail energy per truncated pair.
    pub fn with_tail_energy(mut self, tail: f64) -> Self {
        self.tail_energy = tail;
        self
    }
}

impl<F: ForceLaw> ForceLaw for Cutoff<F> {
    #[inline]
    fn force(&self, target: &Particle, source: &Particle, disp: Vec2) -> Vec2 {
        if disp.norm_sq() > self.r_c * self.r_c {
            Vec2::zero()
        } else {
            self.inner.force(target, source, disp)
        }
    }

    #[inline]
    fn force_x2(&self, targets: [&Particle; 2], source: &Particle, disp: Vec2x2) -> Vec2x2 {
        let beyond = disp.norm_sq().lanes_gt(F64x2::splat(self.r_c * self.r_c));
        // Most vectors a cutoff kernel is shown are out of range in both
        // lanes; skip the inner law for those. The kernel still adds the
        // returned `+0.0`, exactly as the scalar path adds `Vec2::zero()`
        // (which matters to an accumulator holding `-0.0`).
        if beyond.all() {
            return Vec2x2::zero();
        }
        self.inner
            .force_x2(targets, source, disp)
            .zero_where(beyond)
    }

    #[inline]
    fn potential(&self, target: &Particle, source: &Particle, disp: Vec2) -> f64 {
        if disp.norm_sq() > self.r_c * self.r_c {
            self.tail_energy
        } else {
            self.inner.potential(target, source, disp)
        }
    }

    fn cutoff(&self) -> Option<f64> {
        Some(self.r_c)
    }

    fn is_symmetric(&self) -> bool {
        self.inner.is_symmetric()
    }

    // The range test (norm_sq + compare) on top of the inner law.
    fn flops_per_interaction(&self) -> u64 {
        self.inner.flops_per_interaction() + 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn pair() -> (Particle, Particle) {
        (
            Particle::at(0, Vec2::new(0.0, 0.0)),
            Particle::at(1, Vec2::new(2.0, 0.0)),
        )
    }

    #[test]
    fn repulsive_points_away_from_source() {
        let (a, b) = pair();
        let law = RepulsiveInverseSquare {
            strength: 1.0,
            softening: 0.0,
        };
        let disp = b.pos - a.pos; // source b is to the right
        let f = law.force(&a, &b, disp);
        assert!(f.x < 0.0, "target pushed left, away from source: {f:?}");
        assert!((f.x + 0.25).abs() < 1e-12, "1/r^2 with r=2 gives 0.25");
        assert_eq!(f.y, 0.0);
    }

    #[test]
    fn repulsive_is_newton_third_law_symmetric() {
        let (a, b) = pair();
        let law = RepulsiveInverseSquare::default();
        let f_ab = law.force(&a, &b, b.pos - a.pos);
        let f_ba = law.force(&b, &a, a.pos - b.pos);
        assert!((f_ab + f_ba).norm() < 1e-15);
        assert!(law.is_symmetric());
    }

    #[test]
    fn repulsive_coincident_particles_no_nan() {
        let a = Particle::at(0, Vec2::zero());
        let b = Particle::at(1, Vec2::zero());
        let law = RepulsiveInverseSquare {
            strength: 1.0,
            softening: 0.0,
        };
        let f = law.force(&a, &b, Vec2::zero());
        assert!(f.is_finite());
        assert_eq!(f, Vec2::zero());
    }

    #[test]
    fn gravity_attracts() {
        let (a, b) = pair();
        let law = Gravity {
            g: 1.0,
            softening: 0.0,
        };
        let f = law.force(&a, &b, b.pos - a.pos);
        assert!(f.x > 0.0, "target pulled toward source");
        assert!((f.x - 0.25).abs() < 1e-12);
        assert!(law.potential(&a, &b, b.pos - a.pos) < 0.0);
    }

    #[test]
    fn lennard_jones_sign_change_at_minimum() {
        let law = LennardJones::default();
        let a = Particle::at(0, Vec2::zero());
        // Repulsive inside r = 2^{1/6} sigma, attractive outside.
        let near = Particle::at(1, Vec2::new(1.0, 0.0));
        let far = Particle::at(2, Vec2::new(1.5, 0.0));
        let f_near = law.force(&a, &near, near.pos - a.pos);
        let f_far = law.force(&a, &far, far.pos - a.pos);
        assert!(f_near.x < 0.0, "repulsion pushes target left: {f_near:?}");
        assert!(f_far.x > 0.0, "attraction pulls target right: {f_far:?}");
    }

    #[test]
    fn lennard_jones_minimum_location() {
        let law = LennardJones::default();
        let a = Particle::at(0, Vec2::zero());
        let r_min = 2f64.powf(1.0 / 6.0);
        let b = Particle::at(1, Vec2::new(r_min, 0.0));
        let f = law.force(&a, &b, b.pos - a.pos);
        assert!(f.norm() < 1e-12, "zero force at potential minimum: {f:?}");
        let u = law.potential(&a, &b, b.pos - a.pos);
        assert!((u + 1.0).abs() < 1e-12, "well depth -epsilon: {u}");
    }

    #[test]
    fn counting_force_is_unit_per_pair() {
        let (a, b) = pair();
        assert_eq!(Counting.force(&a, &b, b.pos - a.pos), Vec2::new(1.0, 0.0));
        assert!(!Counting.is_symmetric());
    }

    #[test]
    fn cutoff_zeroes_far_pairs() {
        let (a, b) = pair(); // distance 2
        let law = Cutoff::new(
            RepulsiveInverseSquare {
                strength: 1.0,
                softening: 0.0,
            },
            1.0,
        );
        assert_eq!(law.force(&a, &b, b.pos - a.pos), Vec2::zero());
        assert_eq!(law.cutoff(), Some(1.0));

        let close = Particle::at(2, Vec2::new(0.5, 0.0));
        let f = law.force(&a, &close, close.pos - a.pos);
        assert!(f.norm() > 0.0, "inside cutoff still interacts");
    }

    #[test]
    fn cutoff_boundary_is_inclusive() {
        let a = Particle::at(0, Vec2::zero());
        let b = Particle::at(1, Vec2::new(1.0, 0.0));
        let law = Cutoff::new(Counting, 1.0);
        // distance exactly r_c: interaction is kept (r^2 > r_c^2 excludes).
        assert_eq!(law.force(&a, &b, b.pos - a.pos), Vec2::new(1.0, 0.0));
    }

    #[test]
    fn cutoff_tail_energy() {
        let (a, b) = pair();
        let law = Cutoff::new(Gravity::default(), 1.0).with_tail_energy(-0.125);
        assert_eq!(law.potential(&a, &b, b.pos - a.pos), -0.125);
    }

    /// Lane `i` of `force_x2` against `force` on lane `i`'s inputs, by bits.
    fn assert_lanes_match<F: ForceLaw + ?Sized>(
        law: &F,
        t: [&Particle; 2],
        s: &Particle,
        d: [Vec2; 2],
    ) {
        let got = law.force_x2(t, s, Vec2x2::new(d[0], d[1])).to_lanes();
        for lane in 0..2 {
            let want = law.force(t[lane], s, d[lane]);
            assert_eq!(
                [got[lane].x.to_bits(), got[lane].y.to_bits()],
                [want.x.to_bits(), want.y.to_bits()],
                "lane {lane}, disp {:?}: {:?} vs {want:?}",
                d[lane],
                got[lane]
            );
        }
    }

    #[test]
    fn lane_overrides_match_scalar_force_bit_for_bit() {
        let t0 = Particle::at(0, Vec2::zero()).with_mass(1.5);
        let t1 = Particle::at(1, Vec2::zero()).with_mass(0.25);
        let s = Particle::at(2, Vec2::zero()).with_mass(3.0);
        // Generic, coincident (the `== 0.0` guards), exactly at r_c = 0.5,
        // just beyond it, and far beyond it; every ordered pair of them so
        // each guard fires in lane 0 only, lane 1 only, both and neither.
        let disps = [
            Vec2::new(0.3, -0.1),
            Vec2::zero(),
            Vec2::new(-0.0, 0.0),
            Vec2::new(0.5, 0.0),
            Vec2::new(0.0, 0.5000000000000001),
            Vec2::new(-7.0, 2.0),
            // The edges of the one-divide range (DESIGN.md §13.5): `r²·|d|`
            // just normal, subnormal (guarded although `|d| != 0`), and
            // overflowing to `inf`.
            Vec2::new(3e-103, 0.0),
            Vec2::new(0.0, -2e-103),
            Vec2::new(1e120, -1e120),
        ];
        let soft = RepulsiveInverseSquare {
            strength: 1e-3,
            softening: 1e-3,
        };
        let hard = RepulsiveInverseSquare {
            strength: 2.0,
            softening: 0.0,
        };
        let point_gravity = Gravity {
            g: 1.0,
            softening: 0.0,
        };
        let lj = LennardJones {
            epsilon: 0.7,
            sigma: 0.2,
        };
        for &d0 in &disps {
            for &d1 in &disps {
                let (t, d) = ([&t0, &t1], [d0, d1]);
                assert_lanes_match(&soft, t, &s, d);
                assert_lanes_match(&hard, t, &s, d);
                assert_lanes_match(&point_gravity, t, &s, d);
                assert_lanes_match(&Gravity::default(), t, &s, d);
                assert_lanes_match(&lj, t, &s, d);
                assert_lanes_match(&Cutoff::new(hard, 0.5), t, &s, d);
                assert_lanes_match(&Cutoff::new(soft, 0.5), t, &s, d);
                assert_lanes_match(&Cutoff::new(Gravity::default(), 0.5), t, &s, d);
                assert_lanes_match(&Cutoff::new(LennardJones::default(), 0.5), t, &s, d);
                assert_lanes_match(&Cutoff::new(Counting, 0.5), t, &s, d);
                assert_lanes_match(&Counting, t, &s, d);
            }
        }
    }

    /// Bit patterns of both components.
    fn vec_bits(v: Vec2) -> [u64; 2] {
        [v.x.to_bits(), v.y.to_bits()]
    }

    #[test]
    fn coincident_pair_with_softening_is_positive_zero_in_both_forms() {
        // `|d| == 0` with `eps > 0`: `r²` is fine but the direction is not
        // (`0 · 1/0`). The guard answers `+0.0` — not the `-0.0` a negated
        // zero would be — in `force`, in either lane, in both, and through
        // `Cutoff`; the lane next to a guarded one is what `force` says.
        let t0 = Particle::at(0, Vec2::zero()).with_mass(1.5);
        let t1 = Particle::at(1, Vec2::zero()).with_mass(0.25);
        let s = Particle::at(2, Vec2::zero()).with_mass(3.0);
        let soft = RepulsiveInverseSquare {
            strength: 1e-3,
            softening: 1e-3,
        };
        let gravity = Gravity::default();

        fn check<F: ForceLaw>(law: &F, t: [&Particle; 2], s: &Particle) {
            let apart = Vec2::new(0.3, -0.1);
            let zero = vec_bits(Vec2::zero());
            for coincident in [Vec2::zero(), Vec2::new(-0.0, 0.0), Vec2::new(-0.0, -0.0)] {
                assert_eq!(vec_bits(law.force(t[0], s, coincident)), zero);
                let both = law.force_x2(t, s, Vec2x2::new(coincident, coincident));
                assert_eq!(both.to_lanes().map(vec_bits), [zero, zero]);
                let [g, o] = law
                    .force_x2(t, s, Vec2x2::new(coincident, apart))
                    .to_lanes();
                assert_eq!(vec_bits(g), zero);
                assert_eq!(vec_bits(o), vec_bits(law.force(t[1], s, apart)));
                let [o, g] = law
                    .force_x2(t, s, Vec2x2::new(apart, coincident))
                    .to_lanes();
                assert_eq!(vec_bits(g), zero);
                assert_eq!(vec_bits(o), vec_bits(law.force(t[0], s, apart)));
                assert!(o.norm() > 0.0, "the untouched lane still interacts");
            }
        }
        let t = [&t0, &t1];
        check(&soft, t, &s);
        check(&gravity, t, &s);
        check(&Cutoff::new(soft, 0.5), t, &s);
        check(&Cutoff::new(gravity, 0.5), t, &s);
    }
    #[test]
    #[should_panic(expected = "cutoff radius must be positive")]
    fn nonpositive_cutoff_rejected() {
        let _ = Cutoff::new(Counting, 0.0);
    }

    // ---- The one deliberate ULP step (DESIGN.md §13.5) -------------------
    //
    // `ForceLaw::force` is the definition of each law. What follows are
    // test-only copies of the textbook expressions the laws computed before
    // they went to one square root and one divide per pair, and the written
    // bound on how far the definitions moved from them.

    /// Largest per-component distance, in units in the last place, between
    /// the inverse-square laws and [`textbook_inverse_square`] inside the
    /// validity range. Both forms share `|d|²`, `r²`, `sqrt(|d|²)` and
    /// `k·m_t·m_s`, then round three (textbook) and four (shipped) more
    /// times at a relative 2⁻⁵³ each: at most 7·2⁻⁵³ apart, which is 3.5 to
    /// 7 ulp depending on where the result sits in its binade. Measured
    /// over 3·10⁷ samples of this test's distribution: 4 (106 times).
    const INVERSE_SQUARE_ULPS: u64 = 7;

    /// The same for Lennard-Jones against [`textbook_lj`], in ulps of the
    /// *uncancelled* magnitude `|disp_c|·24ε·(2·s12 + s6)/r²`: near the
    /// potential minimum `2·s12 − s6` cancels and amplifies the one extra
    /// rounding in `s2` without limit, in ulps of the result. Measured over
    /// 10⁷ samples: 2; the constant leaves room for the six-fold growth of
    /// that rounding through `s12 = s2⁶`.
    const LJ_ULPS: f64 = 8.0;

    /// `normalized(disp) * (k·m_t·m_s / r²)`: a square root and three
    /// divides. `k > 0` attracts, `k < 0` repels.
    fn textbook_inverse_square(
        k: f64,
        softening: f64,
        t: &Particle,
        s: &Particle,
        d: Vec2,
    ) -> Vec2 {
        let r2 = d.norm_sq() + softening * softening;
        if r2 == 0.0 {
            return Vec2::zero();
        }
        d.normalized() * (k * t.mass * s.mass / r2)
    }

    /// Lennard-Jones with its two divides.
    fn textbook_lj(law: &LennardJones, d: Vec2) -> Vec2 {
        let r2 = d.norm_sq();
        if r2 == 0.0 {
            return Vec2::zero();
        }
        let s2 = law.sigma * law.sigma / r2;
        let s6 = s2 * s2 * s2;
        -d * (24.0 * law.epsilon * (2.0 * s6 * s6 - s6) / r2)
    }

    /// Distance between two finite doubles in representable values.
    fn ulps_apart(a: f64, b: f64) -> u64 {
        // Map the bit patterns onto one monotone integer line (-0.0 and
        // +0.0 both land on 0).
        let line = |v: f64| {
            let i = v.to_bits() as i64;
            if i < 0 {
                i64::MIN - i
            } else {
                i
            }
        };
        line(a).abs_diff(line(b))
    }

    /// The spacing of doubles just above `|v|`.
    fn ulp_of(v: f64) -> f64 {
        let v = v.abs();
        f64::from_bits(v.to_bits() + 1) - v
    }

    fn max_component_ulps(a: Vec2, b: Vec2) -> u64 {
        ulps_apart(a.x, b.x).max(ulps_apart(a.y, b.y))
    }

    /// `force` on one pair, after checking that the lane form agrees with it
    /// by bits with the pair in lane 0 and in lane 1 (an unrelated pair in
    /// the other lane).
    fn both_forms<F: ForceLaw + ?Sized>(law: &F, t: &Particle, s: &Particle, d: Vec2) -> Vec2 {
        let other = Vec2::new(0.3, -0.1);
        assert_lanes_match(law, [t, s], s, [d, other]);
        assert_lanes_match(law, [s, t], s, [other, d]);
        law.force(t, s, d)
    }

    #[test]
    fn inverse_square_validity_range_by_name() {
        // The bound holds while `r²·|d|` and its reciprocal are normal
        // numbers: 2⁻¹⁰²² <= r²·|d| <= 2¹⁰²². At eps = 0 that is
        // 2.82e-103 <= |d| <= 3.55e102. Outside it the laws stay finite.
        let t = Particle::at(0, Vec2::zero()).with_mass(1.5);
        let s = Particle::at(1, Vec2::zero()).with_mass(3.0);
        let point = Gravity {
            g: 1.0,
            softening: 0.0,
        };
        let textbook = |d: Vec2| textbook_inverse_square(1.0, 0.0, &t, &s, d);
        let zero = vec_bits(Vec2::zero());

        // Smallest and largest |d| inside, along an axis (a zero component
        // is where `0 · inf` would show) and off it.
        for d in [
            Vec2::new(2.9e-103, 0.0),
            Vec2::new(0.0, -3e-103),
            Vec2::new(2e-103, 2.1e-103),
            Vec2::new(-3.5e102, 0.0),
            Vec2::new(2.4e102, 2.5e102),
        ] {
            let got = both_forms(&point, &t, &s, d);
            assert!(got.is_finite() && got != Vec2::zero(), "{d:?}: {got:?}");
            assert!(
                max_component_ulps(got, textbook(d)) <= INVERSE_SQUARE_ULPS,
                "{d:?}: {got:?} vs {:?}",
                textbook(d)
            );
        }
        // Just below: the denominator is subnormal or zero, the guard
        // answers +0.0 (the textbook form still resolves this pair).
        for d in [Vec2::new(2.7e-103, 0.0), Vec2::new(0.0, 1e-110)] {
            assert_eq!(vec_bits(both_forms(&point, &t, &s, d)), zero, "{d:?}");
        }
        // Just above: `1/(r²·|d|)` is subnormal and loses bits, the result
        // is finite and right to 1e-12. Further out the denominator, then
        // `|d|²` itself, overflow and the force flushes to zero.
        let d = Vec2::new(5e102, 0.0);
        let (got, want) = (both_forms(&point, &t, &s, d), textbook(d));
        assert!((got.x - want.x).abs() <= 1e-12 * want.x.abs() && got.y == 0.0);
        for d in [Vec2::new(1e103, 1e103), Vec2::new(-1e200, 3.0)] {
            let got = both_forms(&point, &t, &s, d);
            assert!(got.x == 0.0 && got.y == 0.0, "{d:?}: {got:?}");
        }
        // A force too large for a double is `inf` along the displacement
        // and still zero across it, never NaN.
        let huge = RepulsiveInverseSquare {
            strength: 1e300,
            softening: 0.0,
        };
        let got = both_forms(&huge, &t, &s, Vec2::new(1e-60, 0.0));
        assert_eq!((got.x, got.y), (f64::NEG_INFINITY, 0.0));

        // With softening the denominator's floor is eps²·|d|, so the
        // guard only takes |d|² == 0 (|d| < 1.6e-162); a subnormal |d|²
        // gives a finite force.
        let soft = Gravity::default();
        let got = both_forms(&soft, &t, &s, Vec2::new(1e-160, 0.0));
        assert!(got.is_finite() && got.x > 0.0 && got.y == 0.0, "{got:?}");
        let got = both_forms(&soft, &t, &s, Vec2::new(1e-170, 1e-170));
        assert_eq!(vec_bits(got), zero);
    }

    #[test]
    fn lennard_jones_validity_range_by_name() {
        // Unchanged by the rewrite: both forms are finite while
        // `24·eps·(2·s12 − s6)/r²` is, r/sigma >= 1.3e-22 at sigma = eps =
        // 1, and at large r the ladder underflows to a zero force.
        let lj = LennardJones::default();
        let p = Particle::at(0, Vec2::zero());
        for d in [
            Vec2::new(1.3e-22, 0.0),
            Vec2::new(0.0, 1e50),
            Vec2::new(1e60, -1e60),
        ] {
            let got = both_forms(&lj, &p, &p, d);
            let want = textbook_lj(&lj, d);
            assert!(got.is_finite(), "{d:?}: {got:?}");
            for (g, w) in [(got.x, want.x), (got.y, want.y)] {
                assert!((g - w).abs() <= 1e-14 * w.abs(), "{d:?}: {g} vs {w}");
            }
        }
        // Closer than that the magnitude overflows: `inf` along the
        // displacement, NaN across it (`0 · inf`), exactly as the two-divide
        // form answered. The force itself stops fitting a double at
        // r/sigma = 2.6e-24.
        let d = Vec2::new(1e-23, 0.0);
        let (got, want) = (both_forms(&lj, &p, &p, d), textbook_lj(&lj, d));
        assert_eq!(got.x, f64::NEG_INFINITY);
        assert_eq!(want.x, f64::NEG_INFINITY);
        assert!(got.y.is_nan() && want.y.is_nan());
    }

    // ---- Newton's third law, as `is_symmetric` promises it --------------
    //
    // `force(t, s, d)` against `−force(s, t, −d)`. What depends on the
    // displacement is exact both ways — `norm_sq` squares its sign away,
    // and negation passes exactly through a product or a quotient — so only
    // the strength product differs: `(k·m_t)·m_s` against `(k·m_s)·m_t`,
    // two roundings each, at most 4·2⁻⁵³ apart relative, and each later
    // product of it rounds both sides once more (2·2⁻⁵³ each). A relative
    // distance of `j·2⁻⁵³` is under `j` ulps of either result.

    /// The inverse-square laws: the strength product, then one multiply.
    const NEWTON_INVERSE_SQUARE_ULPS: u64 = 6;

    /// Yukawa: the strength product, then three multiplies (the screen, the
    /// bracket, the direction).
    const NEWTON_YUKAWA_ULPS: u64 = 10;

    /// How far, in ulps per component, `law` keeps from Newton's third law
    /// on one pair, and that it promises to.
    fn newton_ulps<F: ForceLaw>(law: &F, t: &Particle, s: &Particle, d: Vec2) -> u64 {
        assert!(law.is_symmetric());
        max_component_ulps(law.force(t, s, d), -law.force(s, t, -d))
    }

    /// A pair `d` apart over 16 decades in any direction, at masses `m_t`
    /// and `m_s`, and the same pair at equal masses.
    fn newton_pairs(
        exponent: f64,
        angle: f64,
        m_t: f64,
        m_s: f64,
    ) -> [(Particle, Particle, Vec2); 2] {
        let d = Vec2::new(angle.cos(), angle.sin()) * 10f64.powf(exponent);
        let t = Particle::at(0, Vec2::zero()).with_mass(m_t);
        [
            (t, Particle::at(1, d).with_mass(m_s), d),
            (t, Particle::at(1, d).with_mass(m_t), d),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        #[test]
        fn repulsive_keeps_newtons_third_law_to_the_stated_ulps(
            exponent in -8.0..8.0f64,
            angle in 0.0..std::f64::consts::TAU,
            m_t in 0.25..4.0f64,
            m_s in 0.25..4.0f64,
            softening in prop_oneof![Just(0.0), Just(1e-6), Just(1e-3)],
        ) {
            let law = RepulsiveInverseSquare { strength: 1e-4, softening };
            let [unequal, equal] = newton_pairs(exponent, angle, m_t, m_s);
            prop_assert!(newton_ulps(&law, &unequal.0, &unequal.1, unequal.2)
                <= NEWTON_INVERSE_SQUARE_ULPS);
            prop_assert_eq!(newton_ulps(&law, &equal.0, &equal.1, equal.2), 0);
        }

        #[test]
        fn gravity_keeps_newtons_third_law_to_the_stated_ulps(
            exponent in -8.0..8.0f64,
            angle in 0.0..std::f64::consts::TAU,
            m_t in 0.25..4.0f64,
            m_s in 0.25..4.0f64,
            softening in prop_oneof![Just(0.0), Just(1e-6), Just(1e-3)],
        ) {
            let law = Gravity { g: 1.0, softening };
            let [unequal, equal] = newton_pairs(exponent, angle, m_t, m_s);
            prop_assert!(newton_ulps(&law, &unequal.0, &unequal.1, unequal.2)
                <= NEWTON_INVERSE_SQUARE_ULPS);
            prop_assert_eq!(newton_ulps(&law, &equal.0, &equal.1, equal.2), 0);
            // A cutoff forwards the promise and keeps the bits.
            let cut = Cutoff::new(law, 10f64.powf(exponent) * 2.0);
            prop_assert_eq!(
                newton_ulps(&cut, &unequal.0, &unequal.1, unequal.2),
                newton_ulps(&law, &unequal.0, &unequal.1, unequal.2)
            );
        }

        #[test]
        fn lennard_jones_keeps_newtons_third_law_exactly(
            exponent in -8.0..8.0f64,
            angle in 0.0..std::f64::consts::TAU,
            m_t in 0.25..4.0f64,
            m_s in 0.25..4.0f64,
        ) {
            // No masses in the force: exact at any.
            let law = LennardJones::default();
            let [unequal, _] = newton_pairs(exponent, angle, m_t, m_s);
            prop_assert_eq!(newton_ulps(&law, &unequal.0, &unequal.1, unequal.2), 0);
            let cut = Cutoff::new(law, 2.5);
            prop_assert_eq!(newton_ulps(&cut, &unequal.0, &unequal.1, unequal.2), 0);
        }

        #[test]
        fn yukawa_keeps_newtons_third_law_to_the_stated_ulps(
            exponent in -8.0..2.0f64,
            angle in 0.0..std::f64::consts::TAU,
            m_t in 0.25..4.0f64,
            m_s in 0.25..4.0f64,
        ) {
            // Up to ten screening lengths, where the screen is still a
            // normal number.
            let law = crate::Yukawa { strength: 1e-3, screening_length: 10.0, softening: 1e-6 };
            let [unequal, equal] = newton_pairs(exponent, angle, m_t, m_s);
            prop_assert!(newton_ulps(&law, &unequal.0, &unequal.1, unequal.2)
                <= NEWTON_YUKAWA_ULPS);
            prop_assert_eq!(newton_ulps(&law, &equal.0, &equal.1, equal.2), 0);
        }
    }

    #[test]
    fn symmetry_is_promised_by_the_built_in_laws_and_forwarded_by_the_wrappers() {
        let repulsive = RepulsiveInverseSquare::default();
        assert!(repulsive.is_symmetric() && Gravity::default().is_symmetric());
        assert!(LennardJones::default().is_symmetric() && crate::Yukawa::default().is_symmetric());
        assert!(Cutoff::new(repulsive, 1.0).is_symmetric());
        assert!(crate::ShiftedForce::new(repulsive, 1.0).is_symmetric());
        assert!(!Cutoff::new(Counting, 1.0).is_symmetric());
        assert!(!crate::ShiftedForce::new(Counting, 1.0).is_symmetric());
        // A law that does not say is not taken to be symmetric.
        struct Unsaid;
        impl ForceLaw for Unsaid {
            fn force(&self, _: &Particle, _: &Particle, _: Vec2) -> Vec2 {
                Vec2::zero()
            }
        }
        assert!(!Unsaid.is_symmetric() && !Cutoff::new(Unsaid, 1.0).is_symmetric());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        #[test]
        fn one_divide_laws_stay_within_the_stated_ulps_of_the_textbook(
            // |d| over 16 decades, any direction, unequal masses.
            exponent in -8.0..8.0f64,
            angle in 0.0..std::f64::consts::TAU,
            m_t in 0.25..4.0f64,
            m_s in 0.25..4.0f64,
            softening in prop_oneof![Just(0.0), Just(1e-6), Just(1e-3)],
        ) {
            let d = Vec2::new(angle.cos(), angle.sin()) * 10f64.powf(exponent);
            let t = Particle::at(0, Vec2::zero()).with_mass(m_t);
            let s = Particle::at(1, d).with_mass(m_s);

            let repulsive = RepulsiveInverseSquare { strength: 1e-4, softening };
            let gravity = Gravity { g: 1.0, softening };
            let laws: [(&str, &dyn ForceLaw, f64); 2] =
                [("repulsive", &repulsive, -1e-4), ("gravity", &gravity, 1.0)];
            for (name, law, k) in laws {
                let got = both_forms(law, &t, &s, d);
                let want = textbook_inverse_square(k, softening, &t, &s, d);
                prop_assert!(got.is_finite());
                prop_assert!(
                    max_component_ulps(got, want) <= INVERSE_SQUARE_ULPS,
                    "{} eps={} d={:?}: {:?} vs textbook {:?}", name, softening, d, got, want
                );
            }

            // sigma = 1: r/sigma over the same 16 decades, through the
            // zero crossing at 2^(1/6).
            let lj = LennardJones::default();
            let got = both_forms(&lj, &t, &s, d);
            let want = textbook_lj(&lj, d);
            prop_assert!(got.is_finite());
            let s2 = 1.0 / d.norm_sq();
            let s6 = s2 * s2 * s2;
            let uncancelled = 24.0 * (2.0 * s6 * s6 + s6) * s2;
            for (g, w, c) in [(got.x, want.x, d.x), (got.y, want.y, d.y)] {
                prop_assert!(
                    (g - w).abs() <= LJ_ULPS * ulp_of(c * uncancelled),
                    "lj d={:?}: {} vs textbook {}", d, g, w
                );
            }
        }
    }
}
