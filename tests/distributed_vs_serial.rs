//! Cross-crate integration: every distributed method must reproduce the
//! serial reference trajectory across decompositions, replication factors,
//! force laws, integrators, and boundary conditions.

use std::sync::atomic::{AtomicU64, Ordering};

use ca_nbody::{
    run_distributed, run_distributed_chaos, run_serial, Method, RetryPolicy, Run, SimConfig,
};
use nbody_comm::FaultPlan;
use nbody_physics::{
    init, Boundary, Counting, Cutoff, Domain, ExplicitEuler, ForceLaw, Gravity, Integrator,
    LennardJones, Particle, RepulsiveInverseSquare, SemiImplicitEuler, Vec2, VelocityVerlet,
};

fn max_deviation(a: &[Particle], b: &[Particle]) -> f64 {
    assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(x, y)| {
            assert_eq!(x.id, y.id);
            (x.pos - y.pos).norm().max((x.vel - y.vel).norm())
        })
        .fold(0.0, f64::max)
}

fn check<F, I>(cfg: &SimConfig<F, I>, initial: &[Particle], method: Method, p: usize, tol: f64)
where
    F: ForceLaw + Sync,
    I: Integrator + Sync,
{
    let want = run_serial(cfg, initial);
    let got = run_distributed(cfg, method, p, initial);
    let dev = max_deviation(&got.particles, &want);
    assert!(
        dev <= tol,
        "{method:?} on p={p}: deviation {dev:.3e} > {tol:.0e}"
    );
}

#[test]
fn all_pairs_methods_match_serial_reflective() {
    let cfg = SimConfig {
        law: RepulsiveInverseSquare {
            strength: 2e-3,
            softening: 1e-3,
        },
        integrator: SemiImplicitEuler,
        domain: Domain::unit(),
        boundary: Boundary::Reflective,
        dt: 0.01,
        steps: 8,
    };
    let initial = init::uniform(36, &cfg.domain, 1);
    for (method, p) in [
        (Method::CaAllPairs { c: 1 }, 6),
        (Method::CaAllPairs { c: 2 }, 4),
        (Method::CaAllPairs { c: 2 }, 16),
        (Method::CaAllPairs { c: 3 }, 9),
        (Method::CaAllPairs { c: 1 }, 5),
        (Method::NaiveAllgather, 7),
        (Method::CaAllPairs { c: 4 }, 16),
    ] {
        check(&cfg, &initial, method, p, 1e-9);
    }
}

#[test]
fn all_pairs_periodic_boundary_minimum_image() {
    let cfg = SimConfig {
        law: RepulsiveInverseSquare {
            strength: 1e-3,
            softening: 1e-3,
        },
        integrator: SemiImplicitEuler,
        domain: Domain::unit(),
        boundary: Boundary::Periodic,
        dt: 0.01,
        steps: 6,
    };
    let initial = init::uniform(30, &cfg.domain, 8);
    for (method, p) in [
        (Method::CaAllPairs { c: 2 }, 8),
        (Method::CaAllPairs { c: 1 }, 6),
        (Method::NaiveAllgather, 4),
    ] {
        check(&cfg, &initial, method, p, 1e-9);
    }
}

#[test]
fn cutoff_methods_match_serial() {
    let cfg = SimConfig {
        law: Cutoff::new(
            RepulsiveInverseSquare {
                strength: 2e-3,
                softening: 1e-3,
            },
            0.25,
        ),
        integrator: SemiImplicitEuler,
        domain: Domain::unit(),
        boundary: Boundary::Reflective,
        dt: 0.01,
        steps: 6,
    };
    let initial = init::uniform(48, &cfg.domain, 5);
    for (method, p) in [
        (Method::Ca1dCutoff { c: 1 }, 6),
        (Method::Ca1dCutoff { c: 2 }, 12),
        (Method::Ca1dCutoff { c: 3 }, 9),
        (Method::Ca2dCutoff { c: 1 }, 6),
        (Method::Ca2dCutoff { c: 2 }, 12),
        (Method::Ca1dCutoff { c: 1 }, 8),
    ] {
        check(&cfg, &initial, method, p, 1e-9);
    }
}

#[test]
fn gravity_open_boundary_matches_serial() {
    let cfg = SimConfig {
        law: Gravity {
            g: 1e-3,
            softening: 0.05,
        },
        integrator: VelocityVerlet,
        domain: Domain::square(4.0),
        boundary: Boundary::Open,
        dt: 0.005,
        steps: 10,
    };
    let initial = init::gaussian_clusters(32, &cfg.domain, 2, 0.3, 11);
    check(&cfg, &initial, Method::CaAllPairs { c: 2 }, 8, 1e-9);
    check(&cfg, &initial, Method::CaAllPairs { c: 3 }, 9, 1e-9);
}

#[test]
fn integrators_agree_across_decompositions() {
    // Each integrator must produce the same trajectory distributed as
    // serially, independently of the decomposition's reduction order.
    let initial = init::uniform(24, &Domain::unit(), 21);
    macro_rules! run_with {
        ($integ:expr) => {{
            let cfg = SimConfig {
                law: RepulsiveInverseSquare {
                    strength: 1e-3,
                    softening: 1e-3,
                },
                integrator: $integ,
                domain: Domain::unit(),
                boundary: Boundary::Reflective,
                dt: 0.01,
                steps: 5,
            };
            check(&cfg, &initial, Method::CaAllPairs { c: 2 }, 8, 1e-9);
        }};
    }
    run_with!(ExplicitEuler);
    run_with!(SemiImplicitEuler);
    run_with!(VelocityVerlet);
}

#[test]
fn single_rank_degenerate_cases() {
    let cfg = SimConfig {
        law: RepulsiveInverseSquare::default(),
        integrator: SemiImplicitEuler,
        domain: Domain::unit(),
        boundary: Boundary::Reflective,
        dt: 0.01,
        steps: 3,
    };
    let initial = init::uniform(10, &cfg.domain, 2);
    check(&cfg, &initial, Method::CaAllPairs { c: 1 }, 1, 0.0);
    check(&cfg, &initial, Method::NaiveAllgather, 1, 0.0);
}

#[test]
fn more_ranks_than_particles() {
    // Empty blocks everywhere: the protocols must still complete.
    let cfg = SimConfig {
        law: RepulsiveInverseSquare::default(),
        integrator: SemiImplicitEuler,
        domain: Domain::unit(),
        boundary: Boundary::Reflective,
        dt: 0.01,
        steps: 2,
    };
    let initial = init::uniform(5, &cfg.domain, 3);
    check(&cfg, &initial, Method::CaAllPairs { c: 2 }, 16, 1e-12);
    let cutoff_cfg = SimConfig {
        law: Cutoff::new(RepulsiveInverseSquare::default(), 0.3),
        integrator: SemiImplicitEuler,
        domain: Domain::unit(),
        boundary: Boundary::Reflective,
        dt: 0.01,
        steps: 2,
    };
    check(&cutoff_cfg, &initial, Method::Ca1dCutoff { c: 2 }, 8, 1e-12);
}

#[test]
fn cutoff_methods_match_serial_periodic() {
    // Extension beyond the paper: periodic boundaries with wrap-around
    // windows. The serial reference uses minimum-image displacements, so
    // any missed or doubled wrap pair shows up immediately.
    let cfg = SimConfig {
        law: Cutoff::new(
            RepulsiveInverseSquare {
                strength: 2e-3,
                softening: 1e-3,
            },
            0.2,
        ),
        integrator: SemiImplicitEuler,
        domain: Domain::unit(),
        boundary: Boundary::Periodic,
        dt: 0.01,
        steps: 5,
    };
    let initial = init::uniform(48, &cfg.domain, 33);
    for (method, p) in [
        (Method::Ca1dCutoff { c: 1 }, 6),
        (Method::Ca1dCutoff { c: 2 }, 12),
        (Method::Ca2dCutoff { c: 1 }, 9),
        (Method::Ca2dCutoff { c: 2 }, 8),
        (Method::Ca1dCutoff { c: 1 }, 8),
    ] {
        check(&cfg, &initial, method, p, 1e-9);
    }
}

/// The law it wraps, counting the pairs it is asked about (no lane
/// override, so one `force` call is one pair).
struct Asked<F> {
    inner: F,
    calls: AtomicU64,
}

impl<F: ForceLaw> ForceLaw for Asked<F> {
    fn force(&self, target: &Particle, source: &Particle, disp: Vec2) -> Vec2 {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.force(target, source, disp)
    }
    fn cutoff(&self) -> Option<f64> {
        self.inner.cutoff()
    }
    fn is_symmetric(&self) -> bool {
        self.inner.is_symmetric()
    }
}

#[test]
fn cutoff_drivers_cell_order_their_blocks_whatever_the_id_order() {
    // Counts, not timings. The kernel can only rule out a chunk of sources
    // that sit together, and a team's block arrives sorted by id: on
    // `init::uniform` input ids say nothing about position, on
    // `init::lattice` input they are row-major already. Both cutoff
    // drivers must hand the kernel cell-ordered blocks either way: the law
    // is then asked about a small part of the pairs the kernel answers for
    // (`compute_interactions`), the plain and fault-tolerant drivers agree
    // bit for bit, and both still track the serial reference. Dropping the
    // ordering from either driver fails the uniform rows (half are asked).
    let n = 2048;
    let domain = Domain::square((n as f64).sqrt() * 1.2);
    let mut lattice = init::lattice(n, &domain);
    init::thermalize(&mut lattice, 0.5, 7);
    let inputs = [
        // Random pairs get arbitrarily close: a small core and a short
        // step keep Lennard-Jones finite on them.
        ("uniform", init::uniform(n, &domain, 7), 0.05, 1e-4),
        ("lattice", lattice, 1.0, 0.005),
    ];
    for (name, initial, sigma, dt) in inputs {
        let lj = LennardJones {
            epsilon: 1.0,
            sigma,
        };
        let cfg = SimConfig {
            law: Asked {
                inner: Cutoff::new(lj, 2.5),
                calls: AtomicU64::new(0),
            },
            integrator: SemiImplicitEuler,
            domain,
            boundary: Boundary::Periodic,
            dt,
            steps: 2,
        };
        let want = run_serial(&cfg, &initial);
        for (method, p) in [
            (Method::Ca1dCutoff { c: 1 }, 4),
            (Method::Ca1dCutoff { c: 2 }, 8),
            (Method::Ca2dCutoff { c: 1 }, 4),
        ] {
            let ctx = format!("{name} {method:?} p={p}");
            cfg.law.calls.store(0, Ordering::Relaxed);
            let out = Run::new(&cfg, method, p).trace().execute(&initial);
            let (plain, metrics) = (out.result.unwrap(), out.artifacts.metrics);
            let asked = cfg.law.calls.swap(0, Ordering::Relaxed);
            let answered = metrics.sum_counter("compute_interactions", None);
            assert!(
                4 * asked < answered,
                "{ctx}: plain driver asked {asked} of {answered}"
            );

            let (plan, policy) = (FaultPlan::empty(), RetryPolicy::default());
            let ft = run_distributed_chaos(&cfg, method, p, &plan, &policy, &initial).unwrap();
            let asked_ft = cfg.law.calls.swap(0, Ordering::Relaxed);
            assert_eq!(
                ft.metrics.sum_counter("compute_interactions", None),
                answered,
                "{ctx}"
            );
            assert_eq!(
                asked_ft, asked,
                "{ctx}: the two drivers ask about the same pairs"
            );

            let bits = |ps: &[Particle]| -> Vec<[u64; 6]> {
                ps.iter()
                    .map(|q| [q.pos.x, q.pos.y, q.vel.x, q.vel.y, q.force.x, q.force.y])
                    .map(|v| v.map(f64::to_bits))
                    .collect()
            };
            assert!(
                bits(&plain.particles) == bits(&ft.particles),
                "{ctx}: plain vs ft"
            );
            let dev = max_deviation(&plain.particles, &want);
            assert!(dev <= 1e-9, "{ctx}: deviation {dev:.3e} from serial");
        }
    }
}

#[test]
fn velocities_and_masses_survive_a_wire_that_carries_neither_velocity_nor_force() {
    // Sources cross the wire as (pos, mass, id) and forces come back bare:
    // a leader must keep its own velocities through every evaluation, a
    // replica row must never need them, and masses must ride along. Every
    // particle moves and weighs differently, over several steps, on every
    // CA layout; the fault-tolerant drivers broadcast whole particles, so
    // their replicas *do* hold the velocities the plain ones lack, and the
    // two must still agree bit for bit. A lost velocity or a unit mass is a
    // deviation of order 1e-3 here.
    let cutoff_law = Cutoff::new(
        Gravity {
            g: 1e-3,
            softening: 0.05,
        },
        0.3,
    );
    let table = [
        (Method::CaAllPairs { c: 1 }, 6),
        (Method::CaAllPairs { c: 2 }, 8),
        (Method::CaAllPairs { c: 3 }, 9),
        (Method::Ca1dCutoff { c: 1 }, 6),
        (Method::Ca1dCutoff { c: 2 }, 12),
        (Method::Ca2dCutoff { c: 1 }, 6),
        (Method::Ca2dCutoff { c: 2 }, 8),
    ];
    for boundary in [Boundary::Reflective, Boundary::Periodic] {
        let cfg = SimConfig {
            law: cutoff_law,
            integrator: VelocityVerlet,
            domain: Domain::unit(),
            boundary,
            dt: 0.01,
            steps: 6,
        };
        let mut initial = init::uniform(48, &cfg.domain, 29);
        init::thermalize(&mut initial, 0.02, 30);
        for (i, q) in initial.iter_mut().enumerate() {
            *q = q.with_mass(0.5 + (i % 7) as f64 * 0.25);
        }
        let want = run_serial(&cfg, &initial);
        let all_pairs = SimConfig {
            law: cutoff_law.inner,
            integrator: VelocityVerlet,
            domain: cfg.domain,
            boundary,
            dt: cfg.dt,
            steps: cfg.steps,
        };
        let want_all_pairs = run_serial(&all_pairs, &initial);
        for (method, p) in table {
            let ctx = format!("{method:?} p={p} {boundary:?}");
            let (plan, policy) = (FaultPlan::empty(), RetryPolicy::default());
            let (plain, ft, want) = if method.needs_cutoff() {
                (
                    run_distributed(&cfg, method, p, &initial).particles,
                    run_distributed_chaos(&cfg, method, p, &plan, &policy, &initial),
                    &want,
                )
            } else {
                (
                    run_distributed(&all_pairs, method, p, &initial).particles,
                    run_distributed_chaos(&all_pairs, method, p, &plan, &policy, &initial),
                    &want_all_pairs,
                )
            };
            let dev = max_deviation(&plain, want);
            assert!(dev <= 1e-9, "{ctx}: deviation {dev:.3e} from serial");
            assert!(
                plain.iter().zip(want).all(|(g, w)| g.mass == w.mass),
                "{ctx}: masses"
            );
            assert_eq!(
                plain,
                ft.unwrap().particles,
                "{ctx}: plain vs fault-tolerant"
            );
        }
    }
}

#[test]
fn periodic_cutoff_counts_wrap_pairs_exactly() {
    use nbody_physics::Counting;
    // A large cutoff so wrap interactions matter everywhere.
    let cfg = SimConfig {
        law: Cutoff::new(Counting, 0.4),
        integrator: SemiImplicitEuler,
        domain: Domain::unit(),
        boundary: Boundary::Periodic,
        dt: 0.0, // counting "forces" should not move particles far
        steps: 1,
    };
    let initial = init::uniform(40, &cfg.domain, 12);
    let want = run_serial(&cfg, &initial);
    for p in [4usize, 8, 12] {
        let got = run_distributed(&cfg, Method::Ca1dCutoff { c: 2 }, p, &initial);
        let dev = max_deviation(&got.particles, &want);
        assert!(dev == 0.0, "p={p}: deviation {dev}");
    }
}

#[test]
fn symmetric_half_ring_matches_serial_trajectories() {
    let cfg = SimConfig {
        law: RepulsiveInverseSquare {
            strength: 2e-3,
            softening: 1e-3,
        },
        integrator: SemiImplicitEuler,
        domain: Domain::unit(),
        boundary: Boundary::Reflective,
        dt: 0.01,
        steps: 8,
    };
    let initial = init::uniform(30, &cfg.domain, 44);
    // One evaluation, particle by particle: a pair asked once gives `f` to
    // one side and `−f` to the other, so the sums differ from the serial
    // loop's in order only.
    let one = SimConfig { steps: 1, ..cfg };
    let want = run_serial(&one, &initial);
    for p in [1usize, 2, 3, 4, 5, 7, 8] {
        check(&cfg, &initial, Method::ParticleRingSymmetric, p, 1e-9);
        let got = run_distributed(&one, Method::ParticleRingSymmetric, p, &initial).particles;
        for (g, w) in got.iter().zip(&want) {
            let err = (g.force - w.force).norm();
            let bound = 1e-12 * w.force.norm().max(1e-30);
            assert!(err <= bound, "p={p} id={}: {err:.3e}", g.id);
        }
    }
}

/// The half ring answers `f_ji` with `−f_ij`: a law that does not promise
/// it is refused before any pair is asked.
#[test]
#[should_panic(expected = "symmetric force law")]
fn the_half_ring_refuses_a_law_without_symmetry() {
    let cfg = SimConfig {
        law: Counting,
        integrator: SemiImplicitEuler,
        domain: Domain::unit(),
        boundary: Boundary::Reflective,
        dt: 0.01,
        steps: 1,
    };
    let initial = init::uniform(8, &cfg.domain, 1);
    run_distributed(&cfg, Method::ParticleRingSymmetric, 2, &initial);
}

/// `s.id − t.id` along x: antisymmetric by construction and integer-valued,
/// so every sum of it is exact whatever the order — the law the half
/// window's reactions must land on the serial bits under.
#[derive(Debug, Clone, Copy)]
struct IdDifference;

impl ForceLaw for IdDifference {
    fn force(&self, target: &Particle, source: &Particle, _disp: Vec2) -> Vec2 {
        Vec2::new(source.id as f64 - target.id as f64, 0.0)
    }

    fn is_symmetric(&self) -> bool {
        true
    }
}

/// The half window asks each cross-block pair once and sends the reactions
/// home; under an exact law the result is the serial loop's, bit for bit:
/// 1-D and 2-D, clipped and periodic, `c` = 1, 2, 3 — on the half window
/// wherever `walked_window` takes it, on the full one elsewhere.
#[test]
fn an_exact_law_on_the_half_window_lands_on_the_serial_bits() {
    use ca_nbody::cutoff::walked_window;
    use ca_nbody::sim::Layout;
    let r_c = 0.3;
    let mut halves = 0;
    for boundary in [Boundary::Reflective, Boundary::Periodic] {
        let cfg = SimConfig {
            law: Cutoff::new(IdDifference, r_c),
            integrator: SemiImplicitEuler,
            domain: Domain::unit(),
            boundary,
            dt: 1e-7,
            steps: 2,
        };
        let initial = init::uniform(60, &cfg.domain, 17);
        let want = run_serial(&cfg, &initial);
        let table = [
            (Method::Ca1dCutoff { c: 1 }, 6),
            (Method::Ca1dCutoff { c: 2 }, 12),
            (Method::Ca1dCutoff { c: 3 }, 18),
            (Method::Ca2dCutoff { c: 1 }, 8),
            (Method::Ca2dCutoff { c: 2 }, 16),
            (Method::Ca2dCutoff { c: 3 }, 18),
        ];
        for (method, p) in table {
            let layout = Layout::new(method, p, &cfg.domain, boundary, Some(r_c)).unwrap();
            halves += usize::from(walked_window(layout.window, layout.grid.c(), true).is_half());
            let got = run_distributed(&cfg, method, p, &initial);
            assert_eq!(got.particles, want, "{method:?} p={p} {boundary:?}");
        }
    }
    assert!(halves >= 6, "{halves} of 12 rows walk the half window");
}

/// Every copy of a block that leaves home is cut to the sources within
/// `r_c` of its readers' regions (`cutoff::Regions`), which is exact only
/// while every target is in its team's region when forces are evaluated.
/// Velocity Verlet moves positions before the force, so the drivers must
/// re-assign right before it, by the position wrapped into a periodic
/// domain. On a dyadic lattice whose spacing divides `r_c` and the cell
/// edges, with velocities that carry particles across edges and out of the
/// domain, pairs exactly `r_c` apart straddle every edge: a cut one slack
/// too narrow, or a block one drift out of date, loses a pair the law
/// answers. 1-D and 2-D, clipped and periodic, `c` = 1, 2, 3, on cells
/// wider than `r_c`, where the copies do get cut.
#[test]
fn cut_copies_under_velocity_verlet_land_on_the_serial_bits() {
    use nbody_comm::Phase;
    let (r_c, side) = (0.125, 16);
    let initial: Vec<Particle> = (0..side * side)
        .map(|id| {
            let pos = Vec2::new((id % side) as f64, (id / side) as f64) / side as f64;
            // -32, 0 or 32 per axis: a drift of half a spacing a step.
            let step = |k: usize| 32.0 * ((k % 3) as f64 - 1.0);
            Particle::moving(id as u64, pos, Vec2::new(step(id), step(id / 3)))
        })
        .collect();
    for boundary in [Boundary::Reflective, Boundary::Periodic] {
        let cfg = SimConfig {
            law: Cutoff::new(IdDifference, r_c),
            integrator: VelocityVerlet,
            domain: Domain::unit(),
            boundary,
            dt: 1.0 / 1024.0,
            steps: 3,
        };
        let want = run_serial(&cfg, &initial);
        let table = [
            (Method::Ca1dCutoff { c: 1 }, 4),
            (Method::Ca1dCutoff { c: 2 }, 8),
            (Method::Ca1dCutoff { c: 3 }, 12),
            (Method::Ca2dCutoff { c: 1 }, 4),
            (Method::Ca2dCutoff { c: 2 }, 8),
            (Method::Ca2dCutoff { c: 3 }, 12),
            (Method::Ca2dCutoff { c: 2 }, 16),
        ];
        for (method, p) in table {
            let got = run_distributed(&cfg, method, p, &initial);
            assert_eq!(got.particles, want, "{method:?} p={p} {boundary:?}");
            // Cut: the copies and returns carry fewer sources than the
            // blocks they were cut from would have.
            let teams = p / method.replication();
            let [messages, elements] = got.stats.iter().fold([0, 0], |[m, e], s| {
                let [skew, shift] = [Phase::Skew, Phase::Shift].map(|phase| s.phase(phase));
                [
                    m + skew.messages + shift.messages,
                    e + skew.elements + shift.elements,
                ]
            });
            let whole = messages * (initial.len() / teams) as u64;
            assert!(
                elements < whole,
                "{method:?} p={p} {boundary:?}: {elements} of {whole}"
            );
        }
    }
}

/// Lennard-Jones on the half window, one force evaluation, held to a
/// test-side reference that sums each target's sources in ascending id
/// order under the minimum image: the drivers add the same terms in
/// another order, and a reaction `−f_ij` for `f_ji`, so each component may
/// differ by the rounding of a sum of `k` terms, at most `(k + 2)·ε` times
/// the sum of their magnitudes (`k` the target's neighbours within `r_c`).
#[test]
fn lennard_jones_on_the_half_window_is_the_ordered_sum_to_rounding() {
    use ca_nbody::cutoff::walked_window;
    use ca_nbody::dist::spatial_subset;
    use ca_nbody::{ca_cutoff_forces, GridComms, ProcGrid, TeamWindow};
    let law = Cutoff::new(LennardJones::default(), 2.5);
    // 64 particles put 1-D slabs of four within 2.5 of two neighbours each
    // way: the capped ring of four, whose half window takes `c = 2`.
    for (n, p, c, dims) in [
        (512, 4, 1, (4, 1)),
        (64, 8, 2, (4, 1)),
        (512, 8, 1, (4, 2)),
        (512, 16, 2, (4, 2)),
    ] {
        let domain = Domain::square((n as f64).sqrt() * 1.2);
        let mut all = init::lattice(n, &domain);
        init::thermalize(&mut all, 0.5, 42);
        for p in &mut all {
            p.pos = Boundary::Periodic
                .apply(&domain, p.pos + p.vel * 0.04, p.vel)
                .0;
        }
        let grid = ProcGrid::new(p, c).unwrap();
        let window = TeamWindow::from_cutoff(&domain, dims, true, 2.5);
        assert!(
            walked_window(window, c, true).is_half(),
            "p={p} c={c} {dims:?}"
        );
        let out = nbody_comm::run_ranks(p, |world| {
            let gc = GridComms::new(world, grid);
            let mut st = match gc.is_leader() {
                true => spatial_subset(&all, &domain, dims, Boundary::Open, gc.team()),
                false => Vec::new(),
            };
            ca_cutoff_forces(&gc, &window, &mut st, &law, &domain, Boundary::Periodic);
            if gc.is_leader() {
                st
            } else {
                Vec::new()
            }
        });
        let mut got: Vec<Particle> = out.into_iter().flatten().collect();
        got.sort_by_key(|q| q.id);
        let mut by_id = all.clone();
        by_id.sort_by_key(|q| q.id);
        assert_eq!(got.len(), n);
        for (g, t) in got.iter().zip(&by_id) {
            let (mut sum, mut size, mut k) = (Vec2::zero(), Vec2::zero(), 0);
            for s in by_id.iter().filter(|s| s.id != t.id) {
                let disp = Boundary::Periodic.displacement(&domain, t.pos, s.pos);
                let f = law.force(t, s, disp);
                sum += f;
                size += Vec2::new(f.x.abs(), f.y.abs());
                k += usize::from(f != Vec2::zero());
            }
            let bound = (k + 2) as f64 * f64::EPSILON;
            let ctx = format!("p={p} c={c} {dims:?} id={}", t.id);
            assert!((g.force.x - sum.x).abs() <= bound * size.x, "{ctx}: x");
            assert!((g.force.y - sum.y).abs() <= bound * size.y, "{ctx}: y");
        }
    }
}
