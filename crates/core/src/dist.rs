//! Particle-to-team distribution helpers.
//!
//! The all-pairs algorithm divides particles "evenly among team leaders"
//! (Algorithm 1) — an id-based block distribution. The cutoff algorithms
//! divide them *spatially* (Algorithm 2): each team owns the particles in a
//! slab (1D) or rectangle (2D) of the simulation domain.

use nbody_physics::{Domain, Particle};

/// Index range of team `b`'s block in an id-ordered distribution of `n`
/// particles over `teams` blocks: balanced contiguous blocks whose sizes
/// differ by at most one.
pub fn block_range(n: usize, teams: usize, b: usize) -> std::ops::Range<usize> {
    assert!(b < teams, "block {b} out of {teams}");
    let base = n / teams;
    let extra = n % teams;
    let start = b * base + b.min(extra);
    let len = base + usize::from(b < extra);
    start..start + len
}

/// The team owning particle id `id` under the id-block distribution.
pub fn team_of_id(n: usize, teams: usize, id: u64) -> usize {
    debug_assert!((id as usize) < n);
    // Invert block_range: the first `extra` blocks have base+1 elements.
    let base = n / teams;
    let extra = n % teams;
    let id = id as usize;
    let boundary = extra * (base + 1);
    if id < boundary {
        id / (base + 1)
    } else {
        extra + (id - boundary) / base.max(1)
    }
}

/// The team owning position `x` under a 1D spatial decomposition of the
/// domain's x-axis into `teams` equal slabs. Positions outside the domain
/// clamp to the nearest slab.
pub fn team_of_x(domain: &Domain, teams: usize, x: f64) -> usize {
    slab((x - domain.min.x) / domain.length_x() * teams as f64, teams)
}

/// `⌊t⌋` clamped to `[0, teams − 1]`, by truncation: the two differ only
/// on `(−∞, 0)`, which the clamp sends to 0 either way (NaN casts to 0,
/// ±∞ saturate), so no libm `floor` call is needed on the deal's and the
/// re-assignment's per-particle path.
fn slab(t: f64, teams: usize) -> usize {
    (t as isize).clamp(0, teams as isize - 1) as usize
}

/// The 2D team grid: `tx * ty == teams`, chosen as close to square as the
/// factorization of `teams` allows (`tx >= ty`, maximizing `ty`).
pub fn team_grid_dims(teams: usize) -> (usize, usize) {
    assert!(teams > 0);
    let mut ty = (teams as f64).sqrt() as usize;
    while ty > 1 && !teams.is_multiple_of(ty) {
        ty -= 1;
    }
    (teams / ty.max(1), ty.max(1))
}

/// The team owning position `(x, y)` under a 2D spatial decomposition into a
/// `tx x ty` grid of rectangles, linearized row-major (`t = cy * tx + cx`).
/// With `ty = 1` this is [`team_of_x`] over `tx` slabs, at its cost: the
/// drivers describe a 1D decomposition as the one-row grid.
pub fn team_of_xy(domain: &Domain, tx: usize, ty: usize, x: f64, y: f64) -> usize {
    let cx = team_of_x(domain, tx, x);
    if ty == 1 {
        return cx;
    }
    let cy = slab((y - domain.min.y) / domain.length_y() * ty as f64, ty);
    cy * tx + cx
}

/// Select (by clone) the particles of team `b` under the id-block
/// distribution. Assumes `particles` is the full id-ordered population —
/// the deterministic-generation convention used by the drivers.
pub fn id_block_subset(particles: &[Particle], teams: usize, b: usize) -> Vec<Particle> {
    particles[block_range(particles.len(), teams, b)].to_vec()
}

/// Select the particles of team `b` under the 1D spatial decomposition.
pub fn spatial_subset_1d(
    particles: &[Particle],
    domain: &Domain,
    teams: usize,
    b: usize,
) -> Vec<Particle> {
    deal(particles, teams, |p| team_of_x(domain, teams, p.pos.x) == b)
}

/// Select the particles of team `b` under the 2D spatial decomposition.
pub fn spatial_subset_2d(
    particles: &[Particle],
    domain: &Domain,
    tx: usize,
    ty: usize,
    b: usize,
) -> Vec<Particle> {
    deal(particles, tx * ty, |p| {
        team_of_xy(domain, tx, ty, p.pos.x, p.pos.y) == b
    })
}

/// The particles `mine` picks, in one scan, into a block reserved once at
/// an even share of `teams`: a block no larger is allocated once, a larger
/// one grows once more, where collecting grew it by doubling from nothing.
fn deal(particles: &[Particle], teams: usize, mine: impl Fn(&Particle) -> bool) -> Vec<Particle> {
    let mut block = Vec::with_capacity(particles.len() / teams.max(1));
    block.extend(particles.iter().filter(|p| mine(p)).copied());
    block
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbody_physics::{init, Vec2};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    #[test]
    fn block_ranges_partition() {
        for (n, teams) in [(10, 3), (12, 4), (7, 7), (5, 8), (100, 1)] {
            let mut covered = 0;
            let mut sizes = Vec::new();
            for b in 0..teams {
                let r = block_range(n, teams, b);
                assert_eq!(r.start, covered, "contiguous");
                covered = r.end;
                sizes.push(r.len());
            }
            assert_eq!(covered, n, "n={n} teams={teams}");
            let (lo, hi) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(hi - lo <= 1, "balanced: {sizes:?}");
        }
    }

    #[test]
    fn team_of_id_inverts_block_range() {
        for (n, teams) in [(10, 3), (12, 4), (7, 7), (64, 8), (9, 2)] {
            for b in 0..teams {
                for id in block_range(n, teams, b) {
                    assert_eq!(
                        team_of_id(n, teams, id as u64),
                        b,
                        "n={n} teams={teams} id={id}"
                    );
                }
            }
        }
    }

    #[test]
    fn team_of_x_covers_slabs() {
        let d = Domain::square(8.0);
        assert_eq!(team_of_x(&d, 4, 0.0), 0);
        assert_eq!(team_of_x(&d, 4, 1.99), 0);
        assert_eq!(team_of_x(&d, 4, 2.0), 1);
        assert_eq!(team_of_x(&d, 4, 7.99), 3);
        // Clamping outside the domain.
        assert_eq!(team_of_x(&d, 4, -1.0), 0);
        assert_eq!(team_of_x(&d, 4, 9.0), 3);
    }

    #[test]
    fn team_grid_dims_factor() {
        assert_eq!(team_grid_dims(16), (4, 4));
        assert_eq!(team_grid_dims(8), (4, 2));
        assert_eq!(team_grid_dims(12), (4, 3));
        assert_eq!(team_grid_dims(7), (7, 1));
        assert_eq!(team_grid_dims(1), (1, 1));
        for t in 1..=64 {
            let (tx, ty) = team_grid_dims(t);
            assert_eq!(tx * ty, t);
            assert!(tx >= ty);
        }
    }

    #[test]
    fn team_of_xy_row_major() {
        let d = Domain::square(4.0);
        // 2x2 grid on [0,4)^2: quadrant checks.
        assert_eq!(team_of_xy(&d, 2, 2, 1.0, 1.0), 0);
        assert_eq!(team_of_xy(&d, 2, 2, 3.0, 1.0), 1);
        assert_eq!(team_of_xy(&d, 2, 2, 1.0, 3.0), 2);
        assert_eq!(team_of_xy(&d, 2, 2, 3.0, 3.0), 3);
    }

    #[test]
    fn spatial_subsets_partition_particles() {
        let d = Domain::square(1.0);
        let ps = init::uniform(200, &d, 1);
        let teams = 5;
        let total: usize = (0..teams)
            .map(|b| spatial_subset_1d(&ps, &d, teams, b).len())
            .sum();
        assert_eq!(total, 200);

        let (tx, ty) = team_grid_dims(6);
        let total2: usize = (0..6)
            .map(|b| spatial_subset_2d(&ps, &d, tx, ty, b).len())
            .sum();
        assert_eq!(total2, 200);
    }

    #[test]
    fn id_block_subset_matches_range() {
        let d = Domain::square(1.0);
        let ps = init::uniform(10, &d, 2);
        let sub = id_block_subset(&ps, 3, 1);
        assert_eq!(sub.len(), 3); // 10 = 4+3+3
        assert_eq!(sub[0].id, 4);
    }

    #[test]
    fn boundary_positions_stay_in_range() {
        let d = Domain::new(Vec2::new(-1.0, -1.0), Vec2::new(1.0, 1.0));
        // Exactly on the max edge clamps into the last team.
        assert_eq!(team_of_x(&d, 8, 1.0), 7);
        assert_eq!(team_of_xy(&d, 4, 4, 1.0, 1.0), 15);
    }

    /// Truncation is floored division once clamped: against the formula
    /// with `⌊·⌋` (as floored division by one, like
    /// `kernel::tests::cell_is_floor_for_every_float`) over every kind of
    /// bit pattern, NaNs, infinities and subnormals included, on domains
    /// with and without an offset and team counts from 1 to 9.
    #[test]
    fn team_lookup_is_floor_for_every_float() {
        let floored = |t: f64, teams: usize| {
            (t.div_euclid(1.0) as isize).clamp(0, teams as isize - 1) as usize
        };
        let mut values = vec![
            0.0,
            -0.0,
            0.5,
            -0.5,
            -1.0,
            1.0 - f64::EPSILON / 2.0,
            -f64::MIN_POSITIVE,
            -5e-324,
            2f64.powi(63),
            -(2f64.powi(63)),
            f64::MAX,
            f64::MIN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        let mut rng = StdRng::seed_from_u64(41);
        values.extend((0..100_000).map(|_| f64::from_bits(rng.gen::<u64>())));
        values.extend((0..100_000).map(|_| {
            let v: f64 = rng.gen_range(-1.0..1.0);
            v * 10f64.powi(rng.gen_range(-20..25))
        }));
        let domains = [
            Domain::square(8.0),
            Domain::new(Vec2::new(-3.5, 0.25), Vec2::new(1.5, 7.0)),
        ];
        for d in &domains {
            for teams in 1..=9 {
                let t = teams as f64;
                for &v in &values {
                    let want = floored((v - d.min.x) / d.length_x() * t, teams);
                    assert_eq!(team_of_x(d, teams, v), want, "x={v:e} teams={teams}");
                    let want_y = floored((v - d.min.y) / d.length_y() * t, teams);
                    assert_eq!(
                        team_of_xy(d, 3, teams, 1.0, v),
                        want_y * 3 + team_of_x(d, 3, 1.0),
                        "y={v:e} ty={teams}"
                    );
                }
            }
        }
    }
}
