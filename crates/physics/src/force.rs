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
//! the same rule: every ordered pair `(i, j)` with `i != j` is evaluated.

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
/// # Giving a law a lane override
///
/// The block kernel evaluates two targets against one source per call of
/// [`force_x2`](ForceLaw::force_x2). A law that implements only `force`
/// gets the provided default — `force` once per lane — and is correct as
/// it stands. A law whose cost is arithmetic (divides, square roots) should
/// override `force_x2` with [`F64x2`]/[`Vec2x2`] arithmetic, which on
/// `x86_64` retires both lanes per instruction. The override must keep the
/// kernel's contract, *lane `i` of the result is bit for bit
/// `self.force(targets[i], source, lane i of disp)`*:
///
/// * transcribe `force` operation by operation, in its order and
///   association (`a * b * c / d` is `((a * b) * c) / d`); lane arithmetic
///   never fuses or approximates, so equal expressions give equal bits;
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
    fn cutoff(&self) -> Option<f64> {
        None
    }

    /// Whether `f_ij = -f_ji` holds; diagnostics use this to decide if
    /// momentum conservation is a valid invariant.
    fn is_symmetric(&self) -> bool {
        true
    }

    /// Nominal floating-point operations per force evaluation, the
    /// conversion factor from interaction counts to FLOP totals (Harfst
    /// et al.'s hardware-efficiency accounting). Counts multiplies, adds,
    /// divides, and square roots as one FLOP each, including the force
    /// accumulation; transcendental calls are costed at their typical
    /// polynomial expansion. An estimate, not a measurement — what matters
    /// for roofline comparisons is that it is fixed per law.
    fn flops_per_interaction(&self) -> u64 {
        20
    }
}

/// The masses of a target pair, one per lane.
#[inline(always)]
fn masses(targets: [&Particle; 2]) -> F64x2 {
    F64x2::new(targets[0].mass, targets[1].mass)
}

/// The paper's force: repulsion with inverse-square falloff,
/// `F = k m_i m_j / (r^2 + eps^2)` directed away from the source.
#[derive(Debug, Clone, Copy)]
pub struct RepulsiveInverseSquare {
    /// Force constant `k`.
    pub strength: f64,
    /// Plummer-style softening length; avoids the singularity when particles
    /// coincide. Zero is allowed (coincident particles then exert no force
    /// because the direction is undefined — see [`Vec2::normalized`]).
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
    #[inline]
    fn force(&self, target: &Particle, source: &Particle, disp: Vec2) -> Vec2 {
        let r2 = disp.norm_sq() + self.softening * self.softening;
        if r2 == 0.0 {
            return Vec2::zero();
        }
        let mag = self.strength * target.mass * source.mass / r2;
        // Repulsive: push the target away from the source, i.e. opposite the
        // displacement toward the source.
        -disp.normalized() * mag
    }

    #[inline]
    fn force_x2(&self, targets: [&Particle; 2], source: &Particle, disp: Vec2x2) -> Vec2x2 {
        let r2 = disp.norm_sq() + F64x2::splat(self.softening * self.softening);
        let mag = F64x2::splat(self.strength) * masses(targets) * F64x2::splat(source.mass) / r2;
        (-disp.normalized() * mag).zero_where(r2.lanes_eq(F64x2::splat(0.0)))
    }

    #[inline]
    fn potential(&self, target: &Particle, source: &Particle, disp: Vec2) -> f64 {
        let r = (disp.norm_sq() + self.softening * self.softening).sqrt();
        if r == 0.0 {
            return 0.0;
        }
        self.strength * target.mass * source.mass / r
    }

    // norm_sq (3) + softening (2) + magnitude (3) + normalize (6) +
    // scale/negate (2) + accumulate (2) + compare (1) + guard slack.
    fn flops_per_interaction(&self) -> u64 {
        20
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
        let r2 = disp.norm_sq() + self.softening * self.softening;
        if r2 == 0.0 {
            return Vec2::zero();
        }
        let mag = self.g * target.mass * source.mass / r2;
        disp.normalized() * mag
    }

    #[inline]
    fn force_x2(&self, targets: [&Particle; 2], source: &Particle, disp: Vec2x2) -> Vec2x2 {
        let r2 = disp.norm_sq() + F64x2::splat(self.softening * self.softening);
        let mag = F64x2::splat(self.g) * masses(targets) * F64x2::splat(source.mass) / r2;
        (disp.normalized() * mag).zero_where(r2.lanes_eq(F64x2::splat(0.0)))
    }

    #[inline]
    fn potential(&self, target: &Particle, source: &Particle, disp: Vec2) -> f64 {
        let r = (disp.norm_sq() + self.softening * self.softening).sqrt();
        if r == 0.0 {
            return 0.0;
        }
        -self.g * target.mass * source.mass / r
    }

    // Same operation mix as the repulsive law, opposite sign.
    fn flops_per_interaction(&self) -> u64 {
        20
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
        let s2 = self.sigma * self.sigma / r2;
        let s6 = s2 * s2 * s2;
        let s12 = s6 * s6;
        // dU/dr resolved along the pair axis; positive magnitude = repulsion.
        let mag_over_r = 24.0 * self.epsilon * (2.0 * s12 - s6) / r2;
        -disp * mag_over_r
    }

    #[inline]
    fn force_x2(&self, _targets: [&Particle; 2], _source: &Particle, disp: Vec2x2) -> Vec2x2 {
        let r2 = disp.norm_sq();
        let s2 = F64x2::splat(self.sigma * self.sigma) / r2;
        let s6 = s2 * s2 * s2;
        let s12 = s6 * s6;
        let mag_over_r = F64x2::splat(24.0 * self.epsilon) * (F64x2::splat(2.0) * s12 - s6) / r2;
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

    // norm_sq (3) + s2/s6/s12 ladder (6) + magnitude (5) + scale/negate
    // (4) + accumulate (2) + compare (1) + guard slack.
    fn flops_per_interaction(&self) -> u64 {
        23
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
    fn assert_lanes_match<F: ForceLaw>(law: &F, t: [&Particle; 2], s: &Particle, d: [Vec2; 2]) {
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
                assert_lanes_match(&Cutoff::new(LennardJones::default(), 0.5), t, &s, d);
                assert_lanes_match(&Cutoff::new(Counting, 0.5), t, &s, d);
                assert_lanes_match(&Counting, t, &s, d);
            }
        }
    }

    #[test]
    #[should_panic(expected = "cutoff radius must be positive")]
    fn nonpositive_cutoff_rejected() {
        let _ = Cutoff::new(Counting, 0.0);
    }
}
