//! Additional force laws and cutoff treatments beyond the paper's minimum.
//!
//! * [`Yukawa`] — screened Coulomb interaction `k·e^{-r/λ}/r²`-style decay;
//!   its exponential screening is the physical situation where the paper's
//!   "constant or zero effect" beyond `r_c` is a controlled approximation.
//! * [`ShiftedForce`] — the standard MD smoothing of a truncated law:
//!   subtracts the force value at the cutoff so the force goes to zero
//!   continuously at `r_c` (removing the energy drift a bare truncation
//!   injects at every boundary crossing).

use crate::force::ForceLaw;
use crate::lanes::Vec2x2;
use crate::particle::Particle;
use crate::vec2::Vec2;

/// Screened (Yukawa/Debye) repulsion:
/// `F = k m_i m_j e^{-r/λ} (1/r² + 1/(λ r))`, directed away from the
/// source — the force derived from the potential `U = k m_i m_j e^{-r/λ}/r`.
#[derive(Debug, Clone, Copy)]
pub struct Yukawa {
    /// Coupling constant `k`.
    pub strength: f64,
    /// Screening length `λ`.
    pub screening_length: f64,
    /// Plummer softening.
    pub softening: f64,
}

impl Default for Yukawa {
    fn default() -> Self {
        Yukawa {
            strength: 1e-3,
            screening_length: 0.1,
            softening: 1e-6,
        }
    }
}

impl ForceLaw for Yukawa {
    #[inline]
    fn force(&self, target: &Particle, source: &Particle, disp: Vec2) -> Vec2 {
        let r2 = disp.norm_sq() + self.softening * self.softening;
        if r2 == 0.0 {
            return Vec2::zero();
        }
        let r = r2.sqrt();
        let screen = (-r / self.screening_length).exp();
        let mag = self.strength
            * target.mass
            * source.mass
            * screen
            * (1.0 / r2 + 1.0 / (self.screening_length * r));
        -disp.normalized() * mag
    }

    #[inline]
    fn potential(&self, target: &Particle, source: &Particle, disp: Vec2) -> f64 {
        let r = (disp.norm_sq() + self.softening * self.softening).sqrt();
        if r == 0.0 {
            return 0.0;
        }
        self.strength * target.mass * source.mass * (-r / self.screening_length).exp() / r
    }

    fn is_symmetric(&self) -> bool {
        true
    }

    // The textbook inverse-square mix (normalize, then scale: ~20) plus a
    // sqrt and an exp (costed at ~20 FLOPs for its polynomial expansion).
    fn flops_per_interaction(&self) -> u64 {
        45
    }
}

/// Force-shifted truncation: `F'(r) = F(r) − F(r_c)·r̂` for `r ≤ r_c`, zero
/// beyond. The force is continuous at the cutoff, which keeps symplectic
/// integrators well-behaved when pairs cross `r_c`.
#[derive(Debug, Clone, Copy)]
pub struct ShiftedForce<F> {
    /// The truncated law.
    pub inner: F,
    /// Cutoff radius.
    pub r_c: f64,
}

impl<F: ForceLaw> ShiftedForce<F> {
    /// Wrap `inner` with a force-shifted cutoff at `r_c`.
    pub fn new(inner: F, r_c: f64) -> Self {
        assert!(r_c > 0.0, "cutoff radius must be positive");
        ShiftedForce { inner, r_c }
    }

    /// Magnitude of the inner force between unit masses at the cutoff,
    /// along the pair axis (the shift constant).
    fn shift_magnitude(&self, target: &Particle, source: &Particle) -> f64 {
        // Probe the inner law at distance r_c along x; by isotropy of the
        // supported laws the magnitude is direction-independent.
        let disp = Vec2::new(self.r_c, 0.0);
        self.inner.force(target, source, disp).norm()
    }
}

impl<F: ForceLaw> ForceLaw for ShiftedForce<F> {
    #[inline]
    fn force(&self, target: &Particle, source: &Particle, disp: Vec2) -> Vec2 {
        let r2 = disp.norm_sq();
        if r2 > self.r_c * self.r_c || r2 == 0.0 {
            return Vec2::zero();
        }
        let f = self.inner.force(target, source, disp);
        // Subtract the cutoff-value force along the same direction.
        let shift = self.shift_magnitude(target, source);
        let dir = f.normalized();
        let mag = f.norm() - shift;
        dir * mag
    }

    #[inline]
    fn potential(&self, target: &Particle, source: &Particle, disp: Vec2) -> f64 {
        let r2 = disp.norm_sq();
        if r2 > self.r_c * self.r_c {
            return 0.0;
        }
        // U'(r) = U(r) - U(rc) + (r - rc) F(rc): both value- and
        // slope-matched at the cutoff.
        let r = r2.sqrt();
        let at = |d: f64| {
            let probe = Vec2::new(d, 0.0);
            self.inner.potential(target, source, probe)
        };
        let f_rc = self.shift_magnitude(target, source);
        at(r) - at(self.r_c) + (r - self.r_c) * f_rc
    }

    fn cutoff(&self) -> Option<f64> {
        Some(self.r_c)
    }

    fn is_symmetric(&self) -> bool {
        self.inner.is_symmetric()
    }

    // Probes the inner law twice (live value + shift constant) plus the
    // range test, renormalization, and the shift subtraction.
    fn flops_per_interaction(&self) -> u64 {
        2 * self.inner.flops_per_interaction() + 12
    }
}

/// A law without its promise of Newton's third law: `F` asked about every
/// ordered pair for itself, as the paper's algorithms ask (§III.C declines
/// `f_ij = −f_ji`). Forces, potentials and cutoff are `F`'s to the bit; only
/// [`is_symmetric`](ForceLaw::is_symmetric) says `false`, so the drivers
/// walk the paper's full window and the schedule it pins.
#[derive(Debug, Clone, Copy)]
pub struct OneWay<F>(pub F);

impl<F: ForceLaw> ForceLaw for OneWay<F> {
    #[inline]
    fn force(&self, target: &Particle, source: &Particle, disp: Vec2) -> Vec2 {
        self.0.force(target, source, disp)
    }

    #[inline]
    fn force_x2(&self, targets: [&Particle; 2], source: &Particle, disp: Vec2x2) -> Vec2x2 {
        self.0.force_x2(targets, source, disp)
    }

    fn potential(&self, target: &Particle, source: &Particle, disp: Vec2) -> f64 {
        self.0.potential(target, source, disp)
    }

    fn cutoff(&self) -> Option<f64> {
        self.0.cutoff()
    }

    fn flops_per_interaction(&self) -> u64 {
        self.0.flops_per_interaction()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::force::RepulsiveInverseSquare;

    fn pair(r: f64) -> (Particle, Particle, Vec2) {
        let a = Particle::at(0, Vec2::zero());
        let b = Particle::at(1, Vec2::new(r, 0.0));
        let disp = b.pos - a.pos;
        (a, b, disp)
    }

    #[test]
    fn yukawa_decays_faster_than_unscreened() {
        let law = Yukawa {
            strength: 1.0,
            screening_length: 0.1,
            softening: 0.0,
        };
        let bare = RepulsiveInverseSquare {
            strength: 1.0,
            softening: 0.0,
        };
        let (a, b, d1) = pair(0.1);
        let (_, b2, d2) = pair(0.5);
        let ratio_yukawa = law.force(&a, &b2, d2).norm() / law.force(&a, &b, d1).norm();
        let ratio_bare = bare.force(&a, &b2, d2).norm() / bare.force(&a, &b, d1).norm();
        assert!(
            ratio_yukawa < ratio_bare / 10.0,
            "{ratio_yukawa} vs {ratio_bare}"
        );
    }

    #[test]
    fn yukawa_is_repulsive_and_symmetric() {
        let law = Yukawa::default();
        let (a, b, d) = pair(0.2);
        let f = law.force(&a, &b, d);
        assert!(f.x < 0.0, "pushes target away from source");
        let f_ba = law.force(&b, &a, -d);
        assert!((f + f_ba).norm() < 1e-15);
        assert!(law.potential(&a, &b, d) > 0.0);
    }

    #[test]
    fn yukawa_matches_coulomb_at_zero_screening_limit() {
        // With lambda >> r, the screen factor ~ 1 and the 1/(lambda r)
        // term vanishes: Yukawa -> inverse square.
        let law = Yukawa {
            strength: 1.0,
            screening_length: 1e6,
            softening: 0.0,
        };
        let bare = RepulsiveInverseSquare {
            strength: 1.0,
            softening: 0.0,
        };
        let (a, b, d) = pair(0.3);
        let fy = law.force(&a, &b, d).norm();
        let fb = bare.force(&a, &b, d).norm();
        assert!((fy - fb).abs() / fb < 1e-5, "{fy} vs {fb}");
    }

    #[test]
    fn shifted_force_is_zero_at_cutoff() {
        let law = ShiftedForce::new(
            RepulsiveInverseSquare {
                strength: 1.0,
                softening: 0.0,
            },
            0.5,
        );
        let (a, b, d) = pair(0.5 - 1e-12);
        assert!(law.force(&a, &b, d).norm() < 1e-9, "continuous at r_c");
        let (_, b2, d2) = pair(0.500001);
        assert_eq!(law.force(&a, &b2, d2), Vec2::zero());
        assert_eq!(law.cutoff(), Some(0.5));
    }

    #[test]
    fn shifted_force_approaches_inner_at_short_range() {
        let inner = RepulsiveInverseSquare {
            strength: 1.0,
            softening: 0.0,
        };
        let law = ShiftedForce::new(inner, 0.5);
        let (a, b, d) = pair(0.05);
        let f_shift = law.force(&a, &b, d).norm();
        let f_inner = inner.force(&a, &b, d).norm();
        // At r << r_c the constant shift (4.0) is small next to 1/r² (400).
        assert!((f_shift - f_inner).abs() / f_inner < 0.02);
    }

    #[test]
    fn shifted_potential_is_continuous_at_cutoff() {
        let law = ShiftedForce::new(
            RepulsiveInverseSquare {
                strength: 1.0,
                softening: 0.0,
            },
            0.4,
        );
        let (a, b, d) = pair(0.4 - 1e-9);
        assert!(law.potential(&a, &b, d).abs() < 1e-6);
        let (_, b2, d2) = pair(0.41);
        assert_eq!(law.potential(&a, &b2, d2), 0.0);
    }
}
