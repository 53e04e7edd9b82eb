//! Simulation domain geometry and boundary conditions.
//!
//! The paper's code "simulates particles moving in a two-dimensional space
//! with reflective boundary conditions" (§III.C). We support both reflective
//! and periodic boundaries; periodic boundaries use minimum-image
//! displacements in force evaluation, matching common MD practice.

use crate::lanes::{F64x2, Vec2x2};
use crate::vec2::Vec2;

/// An axis-aligned rectangular simulation domain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Domain {
    /// Lower-left corner.
    pub min: Vec2,
    /// Upper-right corner.
    pub max: Vec2,
}

impl Domain {
    /// Build a domain from corner points. Panics if degenerate.
    pub fn new(min: Vec2, max: Vec2) -> Self {
        assert!(
            max.x > min.x && max.y > min.y,
            "degenerate domain: min {min:?}, max {max:?}"
        );
        Domain { min, max }
    }

    /// A square domain `[0, side] x [0, side]`.
    pub fn square(side: f64) -> Self {
        Domain::new(Vec2::zero(), Vec2::new(side, side))
    }

    /// The unit square.
    pub fn unit() -> Self {
        Domain::square(1.0)
    }

    /// Side lengths.
    #[inline]
    pub fn extent(&self) -> Vec2 {
        self.max - self.min
    }

    /// Length along x — the decomposed axis for 1D spatial decompositions
    /// (the paper's simulation space length `l` in Eq. 6).
    #[inline]
    pub fn length_x(&self) -> f64 {
        self.max.x - self.min.x
    }

    /// Length along y.
    #[inline]
    pub fn length_y(&self) -> f64 {
        self.max.y - self.min.y
    }

    /// Whether `p` lies inside the half-open box `[min, max)`.
    #[inline]
    pub fn contains(&self, p: Vec2) -> bool {
        p.x >= self.min.x && p.x < self.max.x && p.y >= self.min.y && p.y < self.max.y
    }

    /// Center of the domain.
    #[inline]
    pub fn center(&self) -> Vec2 {
        (self.min + self.max) * 0.5
    }
}

/// Boundary condition applied after integration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Boundary {
    /// Particles bounce off walls elastically (position mirrored, velocity
    /// component negated). This is the paper's setting.
    Reflective,
    /// Particles wrap around; force evaluation uses minimum-image
    /// displacements.
    Periodic,
    /// No boundary handling (free space); useful for gravity examples.
    Open,
}

/// Reflect `x` into `[lo, hi]`, flipping `v`'s sign once per bounce.
/// Handles multiple bounces for particles that overshoot by more than one
/// domain length in a single step.
fn reflect_axis(x: f64, v: f64, lo: f64, hi: f64) -> (f64, f64) {
    let len = hi - lo;
    debug_assert!(len > 0.0);
    let mut x = x;
    let mut v = v;
    // Each loop iteration handles one wall crossing. The iteration count is
    // bounded because every reflection strictly reduces the overshoot.
    loop {
        if x < lo {
            x = lo + (lo - x);
            v = -v;
        } else if x > hi {
            x = hi - (x - hi);
            v = -v;
        } else {
            return (x, v);
        }
        // Guard against pathological velocities producing huge overshoots:
        // fold the overshoot into a single period first.
        if x < lo - 2.0 * len || x > hi + 2.0 * len {
            let span = 2.0 * len;
            let mut t = (x - lo).rem_euclid(span);
            if t > len {
                t = span - t;
                v = -v;
            }
            x = lo + t;
        }
    }
}

/// Wrap `x` into `[lo, hi)` periodically. A particle that stayed inside
/// skips `rem_euclid`, a libm `fmod`: it returns its argument when that is
/// in `[0, len)`, so `lo + (x - lo)` is what it would have produced.
#[inline]
fn wrap_axis(x: f64, lo: f64, hi: f64) -> f64 {
    let len = hi - lo;
    let t = x - lo;
    let w = lo
        + if (0.0..len).contains(&t) {
            t
        } else {
            t.rem_euclid(len)
        };
    // The sum can round up to exactly `hi`; fold it back.
    if w >= hi {
        lo
    } else {
        w
    }
}

impl Boundary {
    /// Apply the boundary condition to a position/velocity pair, returning
    /// the corrected pair.
    pub fn apply(&self, domain: &Domain, pos: Vec2, vel: Vec2) -> (Vec2, Vec2) {
        match self {
            Boundary::Reflective => {
                let (x, vx) = reflect_axis(pos.x, vel.x, domain.min.x, domain.max.x);
                let (y, vy) = reflect_axis(pos.y, vel.y, domain.min.y, domain.max.y);
                (Vec2::new(x, y), Vec2::new(vx, vy))
            }
            Boundary::Periodic => (
                Vec2::new(
                    wrap_axis(pos.x, domain.min.x, domain.max.x),
                    wrap_axis(pos.y, domain.min.y, domain.max.y),
                ),
                vel,
            ),
            Boundary::Open => (pos, vel),
        }
    }

    /// Displacement `to - from` under this boundary condition. For periodic
    /// boundaries this is the minimum-image displacement.
    pub fn displacement(&self, domain: &Domain, from: Vec2, to: Vec2) -> Vec2 {
        let d = to - from;
        match self {
            Boundary::Periodic => {
                let ext = domain.extent();
                let mut dx = d.x;
                let mut dy = d.y;
                if dx > 0.5 * ext.x {
                    dx -= ext.x;
                } else if dx < -0.5 * ext.x {
                    dx += ext.x;
                }
                if dy > 0.5 * ext.y {
                    dy -= ext.y;
                } else if dy < -0.5 * ext.y {
                    dy += ext.y;
                }
                Vec2::new(dx, dy)
            }
            _ => d,
        }
    }

    /// [`displacement`](Boundary::displacement) for two `from` points at
    /// once, bit for bit per lane: the minimum-image `if`/`else if` chain
    /// becomes two compares, the image `k` they pick per lane — the extent,
    /// its negative or `+0.0` — and one subtraction `d - k` per axis, which
    /// is the chain's result in each of its three cases: `d + ext` is
    /// `d - (-ext)`, and `x - (+0.0)` is `x` for every float, `-0.0` and
    /// NaN included.
    #[inline]
    pub fn displacement_x2(&self, domain: &Domain, from: Vec2x2, to: Vec2x2) -> Vec2x2 {
        let d = to - from;
        match self {
            Boundary::Periodic => {
                let ext = domain.extent();
                let wrap = |d: F64x2, ext: f64| {
                    let (zero, ext) = (F64x2::splat(0.0), F64x2::splat(ext));
                    let above = d.lanes_gt(ext * F64x2::splat(0.5));
                    let below = d.lanes_lt(-ext * F64x2::splat(0.5));
                    d - (above.select(ext, zero) + below.select(-ext, zero))
                };
                Vec2x2 {
                    x: wrap(d.x, ext.x),
                    y: wrap(d.y, ext.y),
                }
            }
            _ => d,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn domain_basics() {
        let d = Domain::square(4.0);
        assert_eq!(d.extent(), Vec2::new(4.0, 4.0));
        assert_eq!(d.length_x(), 4.0);
        assert_eq!(d.center(), Vec2::new(2.0, 2.0));
        assert!(d.contains(Vec2::new(0.0, 3.9)));
        assert!(!d.contains(Vec2::new(4.0, 2.0)));
        assert!(!d.contains(Vec2::new(-0.1, 2.0)));
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn degenerate_domain_rejected() {
        let _ = Domain::new(Vec2::new(1.0, 0.0), Vec2::new(1.0, 2.0));
    }

    #[test]
    fn reflective_bounce_flips_velocity() {
        let d = Domain::unit();
        let (pos, vel) = Boundary::Reflective.apply(&d, Vec2::new(1.2, 0.5), Vec2::new(1.0, 0.0));
        assert!((pos.x - 0.8).abs() < 1e-12);
        assert_eq!(vel, Vec2::new(-1.0, 0.0));
        assert_eq!(pos.y, 0.5);
    }

    #[test]
    fn reflective_double_bounce() {
        let d = Domain::unit();
        // Overshoot past the far wall and back: 1.0 -> reflect at 1 -> 0.8? no:
        // x = -0.3 reflects to 0.3 with flipped velocity.
        let (pos, vel) = Boundary::Reflective.apply(&d, Vec2::new(-0.3, 0.5), Vec2::new(-2.0, 0.0));
        assert!((pos.x - 0.3).abs() < 1e-12);
        assert_eq!(vel.x, 2.0);
    }

    #[test]
    fn reflective_handles_large_overshoot() {
        let d = Domain::unit();
        let (pos, _vel) = Boundary::Reflective.apply(&d, Vec2::new(7.3, 0.5), Vec2::new(10.0, 0.0));
        assert!((0.0..=1.0).contains(&pos.x), "pos.x = {}", pos.x);
    }

    #[test]
    fn periodic_wrap() {
        let d = Domain::unit();
        let (pos, vel) = Boundary::Periodic.apply(&d, Vec2::new(1.25, -0.5), Vec2::new(1.0, 1.0));
        assert!((pos.x - 0.25).abs() < 1e-12);
        assert!((pos.y - 0.5).abs() < 1e-12);
        assert_eq!(vel, Vec2::new(1.0, 1.0)); // periodic wrap preserves velocity
    }

    #[test]
    fn periodic_minimum_image() {
        let d = Domain::unit();
        let disp = Boundary::Periodic.displacement(&d, Vec2::new(0.05, 0.5), Vec2::new(0.95, 0.5));
        assert!(
            (disp.x - -0.1).abs() < 1e-12,
            "wrapped displacement, got {disp:?}"
        );
    }

    #[test]
    fn lane_displacement_matches_scalar_bit_for_bit() {
        let d = Domain::new(Vec2::new(-1.0, 0.0), Vec2::new(2.0, 1.5));
        // Interior points, both sides of the half-box threshold, and
        // displacements exactly at +/- half the extent (kept, not wrapped).
        let pts = [
            Vec2::new(-1.0, 0.0),
            Vec2::new(0.5, 0.75),
            Vec2::new(1.9, 1.4),
            Vec2::new(-0.9, 0.1),
            Vec2::new(0.6, 0.8),
            Vec2::new(f64::NAN, 0.3),
        ];
        // Which NaN comes back is the hardware's business; that it is one is not.
        let bits = |v: Vec2| [v.x, v.y].map(|c| if c.is_nan() { u64::MAX } else { c.to_bits() });
        for b in [Boundary::Periodic, Boundary::Reflective, Boundary::Open] {
            for &to in &pts {
                for &f0 in &pts {
                    for &f1 in &pts {
                        let got = b
                            .displacement_x2(&d, Vec2x2::new(f0, f1), Vec2x2::splat(to))
                            .to_lanes();
                        let want = [b.displacement(&d, f0, to), b.displacement(&d, f1, to)];
                        assert_eq!(
                            got.map(bits),
                            want.map(bits),
                            "{b:?} {f0:?}/{f1:?} -> {to:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn open_boundary_is_identity() {
        let d = Domain::unit();
        let p = Vec2::new(5.0, -3.0);
        let v = Vec2::new(1.0, 2.0);
        assert_eq!(Boundary::Open.apply(&d, p, v), (p, v));
        assert_eq!(Boundary::Open.displacement(&d, Vec2::zero(), p), p);
    }

    #[test]
    fn reflective_displacement_is_euclidean() {
        let d = Domain::unit();
        let disp =
            Boundary::Reflective.displacement(&d, Vec2::new(0.05, 0.5), Vec2::new(0.95, 0.5));
        assert!((disp.x - 0.9).abs() < 1e-12);
    }

    #[test]
    fn wrap_axis_edge_cases() {
        assert_eq!(wrap_axis(1.0, 0.0, 1.0), 0.0);
        assert_eq!(wrap_axis(0.0, 0.0, 1.0), 0.0);
        assert!((wrap_axis(-0.25, 0.0, 1.0) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn wrap_axis_is_the_rem_euclid_form_bit_for_bit() {
        // The form before the in-range shortcut.
        fn by_rem(x: f64, lo: f64, hi: f64) -> f64 {
            let w = lo + (x - lo).rem_euclid(hi - lo);
            if w >= hi {
                lo
            } else {
                w
            }
        }
        let bits = |v: f64| if v.is_nan() { u64::MAX } else { v.to_bits() };
        let (lo, hi) = (-1.5, 108.6);
        // Below `hi` by less than half an ulp of `hi`: `lo + (x - lo)`
        // rounds up to `hi` and folds back.
        let near_hi = hi - (hi - lo) * f64::EPSILON / 8.0;
        assert_eq!((near_hi - lo) + lo, hi, "the sum must round up");
        let mut cases = vec![
            0.0,
            -0.0,
            lo,
            -lo,
            hi,
            near_hi,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1e300,
            -1e300,
        ];
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..100_000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let u = (state >> 11) as f64 / (1u64 << 53) as f64;
            // Mostly inside, some a period or several out either way.
            cases.push(lo + (hi - lo) * (u * 4.0 - 1.5));
        }
        for (lo, hi) in [(lo, hi), (0.0, 1.0), (-1e-3, 1e6)] {
            for &x in &cases {
                let (got, want) = (wrap_axis(x, lo, hi), by_rem(x, lo, hi));
                assert_eq!(bits(got), bits(want), "{x:e} in [{lo}, {hi})");
            }
        }
    }
}
