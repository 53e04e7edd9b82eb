//! Two-lane `f64` vectors: the force kernel's unit of work.
//!
//! The block kernel walks targets two at a time, one target per lane, and
//! streams sources through the pair ([`F64x2`] holds one scalar quantity of
//! both targets, [`Vec2x2`] one 2D vector of both). Every lane operation is
//! the IEEE-754 operation the scalar code performs on that lane's value —
//! one correctly rounded `+ - * / sqrt` per lane, no fused multiply-add, no
//! reciprocal or reciprocal-square-root estimate — so a law written with
//! lanes in its scalar order produces the scalar result bit for bit.
//!
//! Two backings with one API:
//!
//! * `sse2` — `__m128d`, on `x86_64`, where SSE2 is part of the baseline
//!   ABI (no flag, no runtime dispatch). The pair kernel is bound by the
//!   divider: `divpd`/`sqrtpd` retire two lanes in the time `divsd`/`sqrtsd`
//!   retire one. The auto-vectoriser does not get there on its own — its
//!   SSE2 cost table prices packed divide and square root as unprofitable
//!   — which is why this module spells the instructions out.
//! * `array` — a plain `[f64; 2]`, everywhere else, and also compiled
//!   under `cfg(test)` on `x86_64` so the two are checked against each
//!   other and the portable one cannot rot.
//!
//! This module is the only place `core::arch` appears, and the only
//! `unsafe` in the physics and algorithm crates.

use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub};

use crate::vec2::Vec2;

#[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
pub use sse2::{F64x2, Mask2};

#[cfg(not(all(target_arch = "x86_64", target_feature = "sse2")))]
pub use array::{F64x2, Mask2};

#[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
mod sse2 {
    use core::arch::x86_64::{
        __m128d, _mm_add_pd, _mm_and_pd, _mm_andnot_pd, _mm_cmpeq_pd, _mm_cmpgt_pd, _mm_cmplt_pd,
        _mm_cvtsd_f64, _mm_div_pd, _mm_max_pd, _mm_min_pd, _mm_movemask_pd, _mm_mul_pd, _mm_or_pd,
        _mm_set1_pd, _mm_set_pd, _mm_sqrt_pd, _mm_sub_pd, _mm_unpackhi_pd, _mm_xor_pd,
    };
    use std::ops::{Add, Div, Mul, Neg, Sub};

    // SAFETY (whole module): every intrinsic below is an SSE2 register
    // operation without memory operands; its only requirement is that the
    // CPU supports SSE2. This module is compiled only under
    // `cfg(target_feature = "sse2")`, i.e. when the compiler itself already
    // emits SSE2 for all `f64` arithmetic of the build.

    /// Two `f64` lanes in one SSE2 register.
    #[derive(Clone, Copy, Debug)]
    pub struct F64x2(__m128d);

    /// A per-lane truth value: the all-ones / all-zeros pattern the SSE2
    /// compares produce.
    #[derive(Clone, Copy, Debug)]
    pub struct Mask2(__m128d);

    impl F64x2 {
        /// A vector holding `lane0` and `lane1`.
        #[inline(always)]
        pub fn new(lane0: f64, lane1: f64) -> F64x2 {
            // SAFETY: SSE2 is enabled (module invariant). `_mm_set_pd`
            // takes the high lane first.
            F64x2(unsafe { _mm_set_pd(lane1, lane0) })
        }

        /// `v` in both lanes.
        #[inline(always)]
        pub fn splat(v: f64) -> F64x2 {
            // SAFETY: SSE2 is enabled (module invariant).
            F64x2(unsafe { _mm_set1_pd(v) })
        }

        /// The lanes, lane 0 first.
        #[inline(always)]
        pub fn to_array(self) -> [f64; 2] {
            // SAFETY: SSE2 is enabled (module invariant).
            unsafe {
                [
                    _mm_cvtsd_f64(self.0),
                    _mm_cvtsd_f64(_mm_unpackhi_pd(self.0, self.0)),
                ]
            }
        }

        /// Per-lane correctly rounded square root.
        #[inline(always)]
        pub fn sqrt(self) -> F64x2 {
            // SAFETY: SSE2 is enabled (module invariant).
            F64x2(unsafe { _mm_sqrt_pd(self.0) })
        }

        /// Per-lane `if self < rhs { self } else { rhs }`: `rhs` when
        /// either is NaN or both are zeros.
        #[inline(always)]
        pub fn min(self, rhs: F64x2) -> F64x2 {
            // SAFETY: SSE2 is enabled (module invariant).
            F64x2(unsafe { _mm_min_pd(self.0, rhs.0) })
        }

        /// Per-lane `if self > rhs { self } else { rhs }`: `rhs` when
        /// either is NaN or both are zeros.
        #[inline(always)]
        pub fn max(self, rhs: F64x2) -> F64x2 {
            // SAFETY: SSE2 is enabled (module invariant).
            F64x2(unsafe { _mm_max_pd(self.0, rhs.0) })
        }

        /// Per-lane `self == rhs` (false on NaN, true for `+0.0 == -0.0`).
        #[inline(always)]
        pub fn lanes_eq(self, rhs: F64x2) -> Mask2 {
            // SAFETY: SSE2 is enabled (module invariant).
            Mask2(unsafe { _mm_cmpeq_pd(self.0, rhs.0) })
        }

        /// Per-lane `self > rhs` (false on NaN).
        #[inline(always)]
        pub fn lanes_gt(self, rhs: F64x2) -> Mask2 {
            // SAFETY: SSE2 is enabled (module invariant).
            Mask2(unsafe { _mm_cmpgt_pd(self.0, rhs.0) })
        }

        /// Per-lane `self < rhs` (false on NaN).
        #[inline(always)]
        pub fn lanes_lt(self, rhs: F64x2) -> Mask2 {
            // SAFETY: SSE2 is enabled (module invariant).
            Mask2(unsafe { _mm_cmplt_pd(self.0, rhs.0) })
        }
    }

    macro_rules! lane_op {
        ($($trait:ident $method:ident $intrinsic:ident),*) => {$(
            impl $trait for F64x2 {
                type Output = F64x2;
                /// One correctly rounded scalar operation per lane.
                #[inline(always)]
                fn $method(self, rhs: F64x2) -> F64x2 {
                    // SAFETY: SSE2 is enabled (module invariant).
                    F64x2(unsafe { $intrinsic(self.0, rhs.0) })
                }
            }
        )*};
    }

    lane_op!(Add add _mm_add_pd, Sub sub _mm_sub_pd, Mul mul _mm_mul_pd, Div div _mm_div_pd);

    impl Neg for F64x2 {
        type Output = F64x2;
        /// Flips each lane's sign bit, as scalar negation does (NaN and
        /// zeros included).
        #[inline(always)]
        fn neg(self) -> F64x2 {
            // SAFETY: SSE2 is enabled (module invariant).
            F64x2(unsafe { _mm_xor_pd(self.0, _mm_set1_pd(-0.0)) })
        }
    }

    impl Mask2 {
        /// Per lane: `if_set` where the mask is set, `if_clear` elsewhere.
        /// A pure bit select: the chosen lane's value passes through
        /// unchanged, sign of zero and NaN payload included.
        #[inline(always)]
        pub fn select(self, if_set: F64x2, if_clear: F64x2) -> F64x2 {
            // SAFETY: SSE2 is enabled (module invariant).
            F64x2(unsafe {
                _mm_or_pd(
                    _mm_and_pd(self.0, if_set.0),
                    _mm_andnot_pd(self.0, if_clear.0),
                )
            })
        }

        /// Whether the mask is set in both lanes.
        #[inline(always)]
        pub fn all(self) -> bool {
            // SAFETY: SSE2 is enabled (module invariant).
            unsafe { _mm_movemask_pd(self.0) == 0b11 }
        }
    }
}

#[cfg(any(test, not(all(target_arch = "x86_64", target_feature = "sse2"))))]
mod array {
    use std::ops::{Add, Div, Mul, Neg, Sub};

    /// Two `f64` lanes in a plain array.
    #[derive(Clone, Copy, Debug)]
    pub struct F64x2([f64; 2]);

    /// A per-lane truth value.
    #[derive(Clone, Copy, Debug)]
    pub struct Mask2([bool; 2]);

    impl F64x2 {
        /// A vector holding `lane0` and `lane1`.
        #[inline(always)]
        pub fn new(lane0: f64, lane1: f64) -> F64x2 {
            F64x2([lane0, lane1])
        }

        /// `v` in both lanes.
        #[inline(always)]
        pub fn splat(v: f64) -> F64x2 {
            F64x2([v, v])
        }

        /// The lanes, lane 0 first.
        #[inline(always)]
        pub fn to_array(self) -> [f64; 2] {
            self.0
        }

        /// Per-lane correctly rounded square root.
        #[inline(always)]
        pub fn sqrt(self) -> F64x2 {
            F64x2(self.0.map(f64::sqrt))
        }

        /// Per-lane `if self < rhs { self } else { rhs }`: `rhs` when
        /// either is NaN or both are zeros.
        #[inline(always)]
        pub fn min(self, rhs: F64x2) -> F64x2 {
            let pick = |a: f64, b: f64| if a < b { a } else { b };
            F64x2([pick(self.0[0], rhs.0[0]), pick(self.0[1], rhs.0[1])])
        }

        /// Per-lane `if self > rhs { self } else { rhs }`: `rhs` when
        /// either is NaN or both are zeros.
        #[inline(always)]
        pub fn max(self, rhs: F64x2) -> F64x2 {
            let pick = |a: f64, b: f64| if a > b { a } else { b };
            F64x2([pick(self.0[0], rhs.0[0]), pick(self.0[1], rhs.0[1])])
        }

        /// Per-lane `self == rhs` (false on NaN, true for `+0.0 == -0.0`).
        #[inline(always)]
        pub fn lanes_eq(self, rhs: F64x2) -> Mask2 {
            Mask2([self.0[0] == rhs.0[0], self.0[1] == rhs.0[1]])
        }

        /// Per-lane `self > rhs` (false on NaN).
        #[inline(always)]
        pub fn lanes_gt(self, rhs: F64x2) -> Mask2 {
            Mask2([self.0[0] > rhs.0[0], self.0[1] > rhs.0[1]])
        }

        /// Per-lane `self < rhs` (false on NaN).
        #[inline(always)]
        pub fn lanes_lt(self, rhs: F64x2) -> Mask2 {
            Mask2([self.0[0] < rhs.0[0], self.0[1] < rhs.0[1]])
        }
    }

    macro_rules! lane_op {
        ($($trait:ident $method:ident $op:tt),*) => {$(
            impl $trait for F64x2 {
                type Output = F64x2;
                /// One correctly rounded scalar operation per lane.
                #[inline(always)]
                fn $method(self, rhs: F64x2) -> F64x2 {
                    F64x2([self.0[0] $op rhs.0[0], self.0[1] $op rhs.0[1]])
                }
            }
        )*};
    }

    lane_op!(Add add +, Sub sub -, Mul mul *, Div div /);

    impl Neg for F64x2 {
        type Output = F64x2;
        /// Flips each lane's sign bit, as scalar negation does (NaN and
        /// zeros included).
        #[inline(always)]
        fn neg(self) -> F64x2 {
            F64x2([-self.0[0], -self.0[1]])
        }
    }

    impl Mask2 {
        /// Per lane: `if_set` where the mask is set, `if_clear` elsewhere.
        /// The chosen lane's value passes through unchanged, sign of zero
        /// and NaN payload included.
        #[inline(always)]
        pub fn select(self, if_set: F64x2, if_clear: F64x2) -> F64x2 {
            let pick = |lane: usize| {
                if self.0[lane] {
                    if_set.0[lane]
                } else {
                    if_clear.0[lane]
                }
            };
            F64x2([pick(0), pick(1)])
        }

        /// Whether the mask is set in both lanes.
        #[inline(always)]
        pub fn all(self) -> bool {
            self.0[0] && self.0[1]
        }
    }
}

/// Two [`Vec2`]s, one per lane, component-wise in two [`F64x2`]s. Mirrors
/// the `Vec2` operations the force laws use, each defined by the same
/// scalar expression so lane code reads — and rounds — like its scalar
/// original.
#[derive(Clone, Copy, Debug)]
pub struct Vec2x2 {
    /// The x components of both lanes.
    pub x: F64x2,
    /// The y components of both lanes.
    pub y: F64x2,
}

impl Vec2x2 {
    /// `lane0` and `lane1` side by side.
    #[inline(always)]
    pub fn new(lane0: Vec2, lane1: Vec2) -> Vec2x2 {
        Vec2x2 {
            x: F64x2::new(lane0.x, lane1.x),
            y: F64x2::new(lane0.y, lane1.y),
        }
    }

    /// `v` in both lanes.
    #[inline(always)]
    pub fn splat(v: Vec2) -> Vec2x2 {
        Vec2x2 {
            x: F64x2::splat(v.x),
            y: F64x2::splat(v.y),
        }
    }

    /// `+0.0` in every component: what [`Vec2::zero`] is to a scalar law.
    #[inline(always)]
    pub fn zero() -> Vec2x2 {
        Vec2x2::splat(Vec2::zero())
    }

    /// The two lanes as scalars, lane 0 first.
    #[inline(always)]
    pub fn to_lanes(self) -> [Vec2; 2] {
        let [x0, x1] = self.x.to_array();
        let [y0, y1] = self.y.to_array();
        [Vec2::new(x0, y0), Vec2::new(x1, y1)]
    }

    /// [`Vec2::norm_sq`] per lane: `x*x + y*y`, in that order.
    #[inline(always)]
    pub fn norm_sq(self) -> F64x2 {
        self.x * self.x + self.y * self.y
    }

    /// [`Vec2::normalized`] per lane: `self / sqrt(norm_sq)`, and `+0.0`
    /// in a lane whose norm compares equal to zero.
    #[inline(always)]
    pub fn normalized(self) -> Vec2x2 {
        let n = self.norm_sq().sqrt();
        (self / n).zero_where(n.lanes_eq(F64x2::splat(0.0)))
    }

    /// Component-wise [`F64x2::min`].
    #[inline(always)]
    pub fn min(self, rhs: Vec2x2) -> Vec2x2 {
        Vec2x2 {
            x: self.x.min(rhs.x),
            y: self.y.min(rhs.y),
        }
    }

    /// Component-wise [`F64x2::max`].
    #[inline(always)]
    pub fn max(self, rhs: Vec2x2) -> Vec2x2 {
        Vec2x2 {
            x: self.x.max(rhs.x),
            y: self.y.max(rhs.y),
        }
    }

    /// `self` with `+0.0` in both components of every lane `mask` selects:
    /// the lane form of a scalar law's `return Vec2::zero()` guard.
    #[inline(always)]
    pub fn zero_where(self, mask: Mask2) -> Vec2x2 {
        let zero = F64x2::splat(0.0);
        Vec2x2 {
            x: mask.select(zero, self.x),
            y: mask.select(zero, self.y),
        }
    }
}

impl Add for Vec2x2 {
    type Output = Vec2x2;
    #[inline(always)]
    fn add(self, rhs: Vec2x2) -> Vec2x2 {
        Vec2x2 {
            x: self.x + rhs.x,
            y: self.y + rhs.y,
        }
    }
}

impl AddAssign for Vec2x2 {
    #[inline(always)]
    fn add_assign(&mut self, rhs: Vec2x2) {
        *self = *self + rhs;
    }
}

impl Sub for Vec2x2 {
    type Output = Vec2x2;
    #[inline(always)]
    fn sub(self, rhs: Vec2x2) -> Vec2x2 {
        Vec2x2 {
            x: self.x - rhs.x,
            y: self.y - rhs.y,
        }
    }
}

impl Mul<F64x2> for Vec2x2 {
    type Output = Vec2x2;
    #[inline(always)]
    fn mul(self, s: F64x2) -> Vec2x2 {
        Vec2x2 {
            x: self.x * s,
            y: self.y * s,
        }
    }
}

impl Div<F64x2> for Vec2x2 {
    type Output = Vec2x2;
    #[inline(always)]
    fn div(self, s: F64x2) -> Vec2x2 {
        Vec2x2 {
            x: self.x / s,
            y: self.y / s,
        }
    }
}

impl Neg for Vec2x2 {
    type Output = Vec2x2;
    #[inline(always)]
    fn neg(self) -> Vec2x2 {
        Vec2x2 {
            x: -self.x,
            y: -self.y,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Operands that exercise every IEEE corner the kernels can meet:
    /// signed zeros, infinities, NaN, a subnormal, and values whose
    /// quotient, product, and root all round.
    const EDGE: [f64; 12] = [
        0.0,
        -0.0,
        1.0,
        -1.0,
        0.1,
        3.0,
        -7.25,
        1e-310,
        1e300,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
    ];

    /// Bit pattern of a result, with every NaN collapsed to one value: the
    /// hardware's choice of NaN payload and sign is not part of the
    /// contract, NaN-ness is.
    fn bits(v: f64) -> u64 {
        if v.is_nan() {
            u64::MAX
        } else {
            v.to_bits()
        }
    }

    /// The checks every backing must pass: each lane of each operation is
    /// the scalar operation on that lane's operands, bit for bit.
    macro_rules! backing_tests {
        ($name:ident, $f:ty) => {
            mod $name {
                use super::{bits, EDGE};

                type F = $f;

                fn lanes(v: F) -> [u64; 2] {
                    v.to_array().map(bits)
                }

                #[test]
                fn construction_keeps_lane_order() {
                    assert_eq!(F::new(1.5, -2.5).to_array(), [1.5, -2.5]);
                    assert_eq!(F::splat(4.0).to_array(), [4.0, 4.0]);
                    // Signed zero survives the round trip.
                    assert_eq!(lanes(F::new(-0.0, 0.0)), [bits(-0.0), bits(0.0)]);
                }

                #[test]
                fn arithmetic_is_the_scalar_operation_per_lane() {
                    for &a in &EDGE {
                        for &b in &EDGE {
                            // Different operands in the two lanes, so a
                            // swapped or broadcast lane cannot pass.
                            let (va, vb) = (F::new(a, b), F::new(b, a));
                            assert_eq!(lanes(va + vb), [bits(a + b), bits(b + a)], "{a} + {b}");
                            assert_eq!(lanes(va - vb), [bits(a - b), bits(b - a)], "{a} - {b}");
                            assert_eq!(lanes(va * vb), [bits(a * b), bits(b * a)], "{a} * {b}");
                            assert_eq!(lanes(va / vb), [bits(a / b), bits(b / a)], "{a} / {b}");
                            let lt = |a: f64, b: f64| if a < b { a } else { b };
                            let gt = |a: f64, b: f64| if a > b { a } else { b };
                            assert_eq!(
                                lanes(va.min(vb)),
                                [bits(lt(a, b)), bits(lt(b, a))],
                                "min({a}, {b})"
                            );
                            assert_eq!(
                                lanes(va.max(vb)),
                                [bits(gt(a, b)), bits(gt(b, a))],
                                "max({a}, {b})"
                            );
                        }
                        let v = F::new(a, 2.0);
                        assert_eq!(lanes(v.sqrt()), [bits(a.sqrt()), bits(2f64.sqrt())]);
                        assert_eq!(lanes(-v), [bits(-a), bits(-2.0)]);
                    }
                }

                #[test]
                fn compares_and_select_follow_ieee() {
                    for &a in &EDGE {
                        for &b in &EDGE {
                            let (va, vb) = (F::new(a, b), F::new(b, a));
                            let (yes, no) = (F::splat(1.0), F::splat(-1.0));
                            let pick = |m: bool| if m { 1.0 } else { -1.0 };
                            assert_eq!(
                                va.lanes_eq(vb).select(yes, no).to_array(),
                                [pick(a == b), pick(b == a)],
                                "{a} == {b}"
                            );
                            assert_eq!(
                                va.lanes_gt(vb).select(yes, no).to_array(),
                                [pick(a > b), pick(b > a)],
                                "{a} > {b}"
                            );
                            assert_eq!(
                                va.lanes_lt(vb).select(yes, no).to_array(),
                                [pick(a < b), pick(b < a)],
                                "{a} < {b}"
                            );
                            assert_eq!(va.lanes_gt(vb).all(), a > b && b > a);
                            assert_eq!(va.lanes_eq(vb).all(), a == b);
                        }
                    }
                }

                #[test]
                fn select_passes_the_chosen_bits_through() {
                    // A selected +0.0 stays +0.0 even when the other side
                    // is -0.0 or NaN, and the other way around.
                    let mask = F::new(1.0, 0.0).lanes_eq(F::splat(1.0)); // [set, clear]
                    let picked = mask.select(F::new(0.0, 5.0), F::new(f64::NAN, -0.0));
                    assert_eq!(lanes(picked), [bits(0.0), bits(-0.0)]);
                    assert!(!mask.all());
                    assert!(F::splat(1.0).lanes_eq(F::splat(1.0)).all());
                }
            }
        };
    }

    backing_tests!(array_backing, crate::lanes::array::F64x2);
    #[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
    backing_tests!(sse2_backing, crate::lanes::sse2::F64x2);

    #[test]
    fn vec2x2_mirrors_vec2() {
        let a = Vec2::new(3.0, -4.0);
        let b = Vec2::new(0.1, 0.7);
        let v = Vec2x2::new(a, b);
        assert_eq!(v.to_lanes(), [a, b]);
        assert_eq!(v.norm_sq().to_array(), [a.norm_sq(), b.norm_sq()]);
        assert_eq!(v.normalized().to_lanes(), [a.normalized(), b.normalized()]);
        assert_eq!((-v).to_lanes(), [-a, -b]);
        let s = F64x2::new(2.0, 3.0);
        assert_eq!((v * s).to_lanes(), [a * 2.0, b * 3.0]);
        assert_eq!((v / s).to_lanes(), [a / 2.0, b / 3.0]);
        let w = Vec2x2::splat(b);
        assert_eq!((v + w).to_lanes(), [a + b, b + b]);
        assert_eq!((v - w).to_lanes(), [a - b, b - b]);
        let mut acc = v;
        acc += w;
        assert_eq!(acc.to_lanes(), [a + b, b + b]);
        assert_eq!(v.min(w).to_lanes(), [Vec2::new(0.1, -4.0), b]);
        assert_eq!(v.max(w).to_lanes(), [Vec2::new(3.0, 0.7), b]);
    }

    #[test]
    fn normalized_zero_lane_is_positive_zero_and_leaves_the_other_alone() {
        let v = Vec2x2::new(Vec2::zero(), Vec2::new(3.0, 4.0));
        let [z, u] = v.normalized().to_lanes();
        assert_eq!([bits(z.x), bits(z.y)], [bits(0.0), bits(0.0)]);
        assert_eq!(u, Vec2::new(0.6, 0.8));
        // A NaN lane stays NaN in both components, as the scalar does.
        let [n, _] = Vec2x2::new(Vec2::new(f64::NAN, 1.0), Vec2::zero())
            .normalized()
            .to_lanes();
        assert!(n.x.is_nan() && n.y.is_nan());
    }

    #[test]
    fn zero_where_writes_positive_zero_only_in_selected_lanes() {
        let v = Vec2x2::new(Vec2::new(-0.0, f64::NAN), Vec2::new(-0.0, 2.0));
        let first = F64x2::new(1.0, 0.0).lanes_eq(F64x2::splat(1.0));
        let [a, b] = v.zero_where(first).to_lanes();
        assert_eq!([bits(a.x), bits(a.y)], [bits(0.0), bits(0.0)]);
        assert_eq!([bits(b.x), bits(b.y)], [bits(-0.0), bits(2.0)]);
    }
}
