//! Property-based tests of the physics substrate.

use nbody_physics::{
    diagnostics, init, reference, Boundary, Counting, Cutoff, Domain, Gravity, LennardJones,
    Particle, RepulsiveInverseSquare, Vec2,
};
use proptest::prelude::*;

fn finite_f64(range: std::ops::Range<f64>) -> impl Strategy<Value = f64> {
    range.prop_filter("finite", |x| x.is_finite())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn reflective_boundary_always_returns_inside(
        x in finite_f64(-50.0..50.0),
        y in finite_f64(-50.0..50.0),
        vx in finite_f64(-10.0..10.0),
        vy in finite_f64(-10.0..10.0),
    ) {
        let d = Domain::unit();
        let (pos, vel) = Boundary::Reflective.apply(&d, Vec2::new(x, y), Vec2::new(vx, vy));
        prop_assert!((0.0..=1.0).contains(&pos.x), "{pos:?}");
        prop_assert!((0.0..=1.0).contains(&pos.y), "{pos:?}");
        // Reflection preserves speed.
        let v_in = Vec2::new(vx, vy).norm();
        prop_assert!((vel.norm() - v_in).abs() < 1e-9 * v_in.max(1.0));
    }

    #[test]
    fn periodic_boundary_wraps_into_domain(
        x in finite_f64(-50.0..50.0),
        y in finite_f64(-50.0..50.0),
    ) {
        let d = Domain::unit();
        let (pos, _) = Boundary::Periodic.apply(&d, Vec2::new(x, y), Vec2::zero());
        prop_assert!((0.0..1.0).contains(&pos.x), "{pos:?}");
        prop_assert!((0.0..1.0).contains(&pos.y), "{pos:?}");
        // Wrapping preserves position modulo the box.
        prop_assert!(((pos.x - x).abs() % 1.0) < 1e-9 || ((pos.x - x).abs() % 1.0) > 1.0 - 1e-9);
    }

    #[test]
    fn minimum_image_displacement_is_shortest(
        ax in 0.0..1.0f64, ay in 0.0..1.0f64,
        bx in 0.0..1.0f64, by in 0.0..1.0f64,
    ) {
        let d = Domain::unit();
        let a = Vec2::new(ax, ay);
        let b = Vec2::new(bx, by);
        let disp = Boundary::Periodic.displacement(&d, a, b);
        // No image can be closer than the minimum image.
        for ix in -1i32..=1 {
            for iy in -1i32..=1 {
                let image = b + Vec2::new(ix as f64, iy as f64);
                prop_assert!(disp.norm_sq() <= (image - a).norm_sq() + 1e-12);
            }
        }
        // Components at most half the box.
        prop_assert!(disp.x.abs() <= 0.5 + 1e-12 && disp.y.abs() <= 0.5 + 1e-12);
    }

    #[test]
    fn symmetric_laws_yield_zero_net_force(
        n in 2usize..40,
        seed in 0u64..500,
        which in 0u8..3,
    ) {
        let d = Domain::unit();
        let mut ps = init::uniform(n, &d, seed);
        match which {
            0 => reference::accumulate_forces(
                &mut ps, &RepulsiveInverseSquare::default(), &d, Boundary::Open),
            1 => reference::accumulate_forces(
                &mut ps, &Gravity::default(), &d, Boundary::Open),
            _ => reference::accumulate_forces(
                &mut ps,
                &Cutoff::new(LennardJones { epsilon: 1e-6, sigma: 0.05 }, 0.2),
                &d,
                Boundary::Open,
            ),
        }
        let net: Vec2 = ps.iter().map(|p| p.force).sum();
        let scale: f64 = ps.iter().map(|p| p.force.norm()).fold(0.0, f64::max);
        prop_assert!(net.norm() <= 1e-10 * scale.max(1e-10), "net {net:?} scale {scale}");
    }

    #[test]
    fn thermalize_always_zeroes_momentum(
        n in 1usize..64,
        temp in 0.0..10.0f64,
        seed in 0u64..500,
    ) {
        let d = Domain::unit();
        let mut ps = init::uniform(n, &d, seed);
        // Mixed masses.
        for (i, p) in ps.iter_mut().enumerate() {
            *p = p.with_mass(1.0 + (i % 7) as f64 * 0.5);
        }
        init::thermalize(&mut ps, temp, seed.wrapping_add(1));
        prop_assert!(diagnostics::total_momentum(&ps).norm() < 1e-9);
    }

    #[test]
    fn initializers_stay_in_domain(
        n in 1usize..100,
        seed in 0u64..500,
        side in 0.5..20.0f64,
    ) {
        let d = Domain::square(side);
        for ps in [
            init::uniform(n, &d, seed),
            init::uniform_1d(n, &d, seed),
            init::lattice(n, &d),
            init::gaussian_clusters(n, &d, 1 + (seed % 4) as usize, side / 10.0, seed),
        ] {
            prop_assert_eq!(ps.len(), n);
            for p in &ps {
                prop_assert!(p.pos.x >= d.min.x && p.pos.x <= d.max.x);
                prop_assert!(p.pos.y >= d.min.y && p.pos.y <= d.max.y);
            }
            // Unique consecutive ids.
            for (i, p) in ps.iter().enumerate() {
                prop_assert_eq!(p.id, i as u64);
            }
        }
    }

    #[test]
    fn force_accumulation_is_order_independent_for_counting(
        n in 2usize..30,
        seed in 0u64..200,
    ) {
        // Shuffling particle order must not change per-id counts.
        let d = Domain::unit();
        let mut a = init::uniform(n, &d, seed);
        let mut b: Vec<Particle> = a.iter().rev().copied().collect();
        reference::accumulate_forces(&mut a, &Counting, &d, Boundary::Open);
        reference::accumulate_forces(&mut b, &Counting, &d, Boundary::Open);
        b.sort_by_key(|p| p.id);
        for (x, y) in a.iter().zip(&b) {
            prop_assert_eq!(x.force, y.force);
        }
    }
}
