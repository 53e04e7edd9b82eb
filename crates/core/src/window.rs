//! Cutoff interaction windows.
//!
//! With a cutoff radius, a team only needs the blocks of teams within `m`
//! regions of its own (Eq. 6 translates `r_c` into the processor span `m`).
//! A [`Window`] enumerates those relative offsets as *positions*
//! `0..len()`; the CA cutoff algorithm walks its exchange buffers through
//! the positions "modulo the cutoff window" (Algorithm 2, line 5/6).
//!
//! Position `j` corresponds to a signed offset `O[j]`; `O[0] = 0` is the
//! team itself. In 1D the offsets are `0, 1, …, m, −m, …, −1` (window size
//! `2m+1`); the 2D window is the cartesian product of two such axes
//! (Fig. 5), linearized exactly as the paper recommends: "linearizing the
//! high-dimensional space, calculating shifts in 1D, and mapping the
//! pattern back into the original space".
//!
//! Offsets that land outside the team grid return `None`: the simulation
//! space is *not* periodic (the paper's §IV.D attributes its cutoff load
//! imbalance to boundary teams having fewer interactions), so edge teams
//! simply have truncated windows.

use nbody_physics::Domain;

use crate::window_periodic::{Window1dPeriodic, Window2dPeriodic};

/// A traversal window over team offsets. Implementations must enumerate
/// each needed offset exactly once, with position 0 being the zero offset.
pub trait Window: Clone + Send + Sync {
    /// Number of positions `W` in the window.
    fn len(&self) -> usize;

    /// Whether the window is empty (never true for valid windows — the own
    /// team offset is always present).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of teams in the grid.
    fn teams(&self) -> usize;

    /// `team + O[j]`, or `None` if it falls outside the team grid.
    fn apply(&self, team: usize, j: usize) -> Option<usize>;

    /// `team − O[j]`, or `None` if it falls outside the team grid.
    fn apply_back(&self, team: usize, j: usize) -> Option<usize>;

    /// Whether the window wraps around a periodic team grid (offsets are
    /// then always valid). Clipped windows return `false`.
    fn is_periodic(&self) -> bool {
        false
    }
}

/// Map a window position to a signed offset in `[-m, m]`:
/// `0, 1, …, m, −m, …, −1`.
#[inline]
fn signed_offset(j: usize, m: usize) -> i64 {
    let w = 2 * m + 1;
    debug_assert!(j < w);
    if j <= m {
        j as i64
    } else {
        j as i64 - w as i64
    }
}

/// The 1D window: `2m + 1` slab offsets along the x axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window1d {
    teams: usize,
    m: usize,
}

impl Window1d {
    /// Window spanning `m` teams on each side. `m` is clamped to
    /// `teams - 1` (beyond that the window already covers every team).
    pub fn new(teams: usize, m: usize) -> Self {
        assert!(teams > 0);
        Window1d {
            teams,
            m: m.min(teams - 1),
        }
    }

    /// Derive the span from a cutoff radius: with slab width
    /// `w = length_x / teams`, any pair within `r_c` lies within
    /// `floor(r_c/w) + 1` slabs. (One more than the paper's
    /// `m = r_c/w` to stay correct when `r_c` is not a multiple of `w`;
    /// see DESIGN.md.)
    pub fn from_cutoff(domain: &Domain, teams: usize, r_c: f64) -> Self {
        assert!(r_c > 0.0);
        let w = domain.length_x() / teams as f64;
        let m = (r_c / w).floor() as usize + 1;
        Window1d::new(teams, m)
    }

    /// The span `m` actually in use (after clamping).
    pub fn m(&self) -> usize {
        self.m
    }

    fn offset(&self, j: usize) -> i64 {
        signed_offset(j, self.m)
    }

    fn shifted(&self, team: usize, delta: i64) -> Option<usize> {
        let t = team as i64 + delta;
        (t >= 0 && t < self.teams as i64).then_some(t as usize)
    }
}

impl Window for Window1d {
    fn len(&self) -> usize {
        2 * self.m + 1
    }

    fn teams(&self) -> usize {
        self.teams
    }

    fn apply(&self, team: usize, j: usize) -> Option<usize> {
        self.shifted(team, self.offset(j))
    }

    fn apply_back(&self, team: usize, j: usize) -> Option<usize> {
        self.shifted(team, -self.offset(j))
    }
}

/// The 2D window: `(2mx+1) × (2my+1)` offsets over a `tx × ty` team grid
/// (teams linearized row-major: `t = cy · tx + cx`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window2d {
    tx: usize,
    ty: usize,
    mx: usize,
    my: usize,
}

impl Window2d {
    /// Window spanning `mx`/`my` team cells per direction (clamped to the
    /// grid dimensions).
    pub fn new(tx: usize, ty: usize, mx: usize, my: usize) -> Self {
        assert!(tx > 0 && ty > 0);
        Window2d {
            tx,
            ty,
            mx: mx.min(tx - 1),
            my: my.min(ty - 1),
        }
    }

    /// Derive spans from a cutoff radius on a `tx × ty` decomposition.
    pub fn from_cutoff(domain: &Domain, tx: usize, ty: usize, r_c: f64) -> Self {
        assert!(r_c > 0.0);
        let wx = domain.length_x() / tx as f64;
        let wy = domain.length_y() / ty as f64;
        let mx = (r_c / wx).floor() as usize + 1;
        let my = (r_c / wy).floor() as usize + 1;
        Window2d::new(tx, ty, mx, my)
    }

    /// Grid dimensions `(tx, ty)`.
    pub fn dims(&self) -> (usize, usize) {
        (self.tx, self.ty)
    }

    /// Window spans `(mx, my)`.
    pub fn spans(&self) -> (usize, usize) {
        (self.mx, self.my)
    }

    fn offset2(&self, j: usize) -> (i64, i64) {
        let wx = 2 * self.mx + 1;
        let ox = signed_offset(j % wx, self.mx);
        let oy = signed_offset(j / wx, self.my);
        (ox, oy)
    }

    fn shifted(&self, team: usize, dx: i64, dy: i64) -> Option<usize> {
        let cx = (team % self.tx) as i64 + dx;
        let cy = (team / self.tx) as i64 + dy;
        (cx >= 0 && cx < self.tx as i64 && cy >= 0 && cy < self.ty as i64)
            .then(|| cy as usize * self.tx + cx as usize)
    }
}

impl Window for Window2d {
    fn len(&self) -> usize {
        (2 * self.mx + 1) * (2 * self.my + 1)
    }

    fn teams(&self) -> usize {
        self.tx * self.ty
    }

    fn apply(&self, team: usize, j: usize) -> Option<usize> {
        let (ox, oy) = self.offset2(j);
        self.shifted(team, ox, oy)
    }

    fn apply_back(&self, team: usize, j: usize) -> Option<usize> {
        let (ox, oy) = self.offset2(j);
        self.shifted(team, -ox, -oy)
    }
}

/// The window a run's configuration selects: 1-D or 2-D team grid, clipped
/// (the paper's non-periodic domain) or wrapping. The one place the
/// `(dimension, periodicity)` pair is turned into a window type; everything
/// downstream routes through the [`Window`] impl. Routing only — a window
/// never reaches the force kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CutoffWindow {
    /// 1-D slabs, clipped at the domain edge.
    Clipped1d(Window1d),
    /// 1-D slabs on a periodic team ring.
    Periodic1d(Window1dPeriodic),
    /// 2-D team grid, clipped at the domain edge.
    Clipped2d(Window2d),
    /// 2-D team grid on a periodic torus.
    Periodic2d(Window2dPeriodic),
}

impl CutoffWindow {
    /// The window for cutoff `r_c` over a `tx × ty` team grid (`ty = 1` and
    /// `tx` = the team count when `two_d` is false).
    pub fn from_cutoff(
        domain: &Domain,
        (tx, ty): (usize, usize),
        two_d: bool,
        periodic: bool,
        r_c: f64,
    ) -> Self {
        match (two_d, periodic) {
            (false, false) => CutoffWindow::Clipped1d(Window1d::from_cutoff(domain, tx, r_c)),
            (false, true) => {
                CutoffWindow::Periodic1d(Window1dPeriodic::from_cutoff(domain, tx, r_c))
            }
            (true, false) => CutoffWindow::Clipped2d(Window2d::from_cutoff(domain, tx, ty, r_c)),
            (true, true) => {
                CutoffWindow::Periodic2d(Window2dPeriodic::from_cutoff(domain, tx, ty, r_c))
            }
        }
    }
}

/// Delegate a [`Window`] method to whichever window the enum holds.
macro_rules! each_window {
    ($self:ident, $w:ident => $body:expr) => {
        match $self {
            CutoffWindow::Clipped1d($w) => $body,
            CutoffWindow::Periodic1d($w) => $body,
            CutoffWindow::Clipped2d($w) => $body,
            CutoffWindow::Periodic2d($w) => $body,
        }
    };
}

impl Window for CutoffWindow {
    fn len(&self) -> usize {
        each_window!(self, w => w.len())
    }

    fn teams(&self) -> usize {
        each_window!(self, w => w.teams())
    }

    fn apply(&self, team: usize, j: usize) -> Option<usize> {
        each_window!(self, w => w.apply(team, j))
    }

    fn apply_back(&self, team: usize, j: usize) -> Option<usize> {
        each_window!(self, w => w.apply_back(team, j))
    }

    fn is_periodic(&self) -> bool {
        each_window!(self, w => w.is_periodic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn signed_offsets_enumerate_symmetric_range() {
        let offs: Vec<i64> = (0..7).map(|j| signed_offset(j, 3)).collect();
        assert_eq!(offs, vec![0, 1, 2, 3, -3, -2, -1]);
    }

    #[test]
    fn window1d_basics() {
        let w = Window1d::new(10, 2);
        assert_eq!(w.len(), 5);
        assert_eq!(w.teams(), 10);
        assert_eq!(w.apply(5, 0), Some(5));
        assert_eq!(w.apply(5, 2), Some(7));
        assert_eq!(w.apply(5, 3), Some(3)); // offset -2
        assert_eq!(w.apply_back(5, 3), Some(7));
        // Edge truncation.
        assert_eq!(w.apply(9, 1), None);
        assert_eq!(w.apply(0, 4), None); // offset -1
    }

    #[test]
    fn window1d_position_zero_is_self() {
        for teams in [1, 3, 9] {
            let w = Window1d::new(teams, 2);
            for t in 0..teams {
                assert_eq!(w.apply(t, 0), Some(t));
                assert_eq!(w.apply_back(t, 0), Some(t));
            }
        }
    }

    #[test]
    fn window1d_clamps_to_grid() {
        let w = Window1d::new(4, 100);
        assert_eq!(w.m(), 3);
        assert_eq!(w.len(), 7);
    }

    #[test]
    fn window1d_from_cutoff_covers_all_pairs_within_rc() {
        // Domain [0,1), 8 slabs of width 0.125, r_c = 0.2:
        // floor(0.2/0.125)+1 = 2.
        let d = Domain::unit();
        let w = Window1d::from_cutoff(&d, 8, 0.2);
        assert_eq!(w.m(), 2);
        // Worst case: x at the right edge of slab t, y = x + r_c lands
        // 0.2/0.125 = 1.6 slabs away -> at most slab t+2. Covered.
        let reachable: HashSet<usize> = (0..w.len()).filter_map(|j| w.apply(3, j)).collect();
        for t in 1..=5 {
            assert!(reachable.contains(&t));
        }
    }

    #[test]
    fn window1d_neighbors_cover_each_team_once() {
        let w = Window1d::new(9, 3);
        for t in 0..9 {
            let hits: Vec<usize> = (0..w.len()).filter_map(|j| w.apply_back(t, j)).collect();
            let set: HashSet<usize> = hits.iter().copied().collect();
            assert_eq!(hits.len(), set.len(), "no duplicates for team {t}");
            // Exactly the teams within distance 3.
            for b in 0..9usize {
                assert_eq!(
                    set.contains(&b),
                    (b as i64 - t as i64).abs() <= 3,
                    "team {t} block {b}"
                );
            }
        }
    }

    #[test]
    fn window2d_basics() {
        let w = Window2d::new(4, 3, 1, 1);
        assert_eq!(w.len(), 9);
        assert_eq!(w.teams(), 12);
        assert_eq!(w.dims(), (4, 3));
        // Team 5 = (1, 1). Offset (1, 1) -> (2, 2) = team 10.
        let j_11 = 1 + 3; // jx=1 (ox=1), jy=1 (oy=1), wx=3
        assert_eq!(w.apply(5, j_11), Some(10));
        assert_eq!(w.apply_back(5, j_11), Some(0));
        assert_eq!(w.apply(5, 0), Some(5));
    }

    #[test]
    fn window2d_corner_truncation() {
        let w = Window2d::new(3, 3, 1, 1);
        // Team 0 = (0,0): only offsets with ox >= 0, oy >= 0 are valid.
        let valid: Vec<usize> = (0..9).filter_map(|j| w.apply(0, j)).collect();
        let set: HashSet<usize> = valid.iter().copied().collect();
        assert_eq!(set, HashSet::from([0, 1, 3, 4]));
        // Center team 4 = (1,1): full 3x3 neighborhood.
        let all: HashSet<usize> = (0..9).filter_map(|j| w.apply(4, j)).collect();
        assert_eq!(all.len(), 9);
    }

    #[test]
    fn window2d_apply_and_back_are_inverse() {
        let w = Window2d::new(5, 4, 2, 1);
        for t in 0..w.teams() {
            for j in 0..w.len() {
                if let Some(u) = w.apply(t, j) {
                    assert_eq!(w.apply_back(u, j), Some(t), "t={t} j={j}");
                }
            }
        }
    }

    #[test]
    fn window2d_from_cutoff() {
        let d = Domain::unit();
        let w = Window2d::from_cutoff(&d, 4, 4, 0.25);
        // cell width 0.25: floor(1)+1 = 2, clamped to 3 -> 2.
        assert_eq!(w.spans(), (2, 2));
        assert_eq!(w.len(), 25);
    }

    #[test]
    fn degenerate_single_team_window() {
        let w = Window1d::new(1, 5);
        assert_eq!(w.len(), 1);
        assert_eq!(w.apply(0, 0), Some(0));
        let w2 = Window2d::new(1, 1, 2, 2);
        assert_eq!(w2.len(), 1);
    }
}

/// The 3D window (§IV.C): `(2mx+1)·(2my+1)·(2mz+1)` offsets over a
/// `tx × ty × tz` team grid (row-major: `t = (cz·ty + cy)·tx + cx`).
///
/// The executable physics of this reproduction is 2D (the paper's
/// experiments are 1D and 2D), but the communication schedule of the
/// multi-dimensional generalization is dimension-agnostic — this window
/// lets the simulator quantify §IV.C's observation that "communication
/// avoidance becomes especially important in higher dimensions because
/// the number of neighbors is exponential in the dimensionality".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window3d {
    dims: [usize; 3],
    spans: [usize; 3],
}

impl Window3d {
    /// Window spanning `m[i]` cells per direction along axis `i`
    /// (clamped to the grid).
    pub fn new(dims: [usize; 3], spans: [usize; 3]) -> Self {
        assert!(dims.iter().all(|&d| d > 0));
        let spans = [
            spans[0].min(dims[0] - 1),
            spans[1].min(dims[1] - 1),
            spans[2].min(dims[2] - 1),
        ];
        Window3d { dims, spans }
    }

    /// Derive per-axis spans from a cutoff radius on a unit cube divided
    /// into `dims` cells.
    pub fn from_cutoff(dims: [usize; 3], rc_fraction: f64) -> Self {
        assert!(rc_fraction > 0.0);
        let spans = [
            (rc_fraction * dims[0] as f64).floor() as usize + 1,
            (rc_fraction * dims[1] as f64).floor() as usize + 1,
            (rc_fraction * dims[2] as f64).floor() as usize + 1,
        ];
        Window3d::new(dims, spans)
    }

    /// Per-axis window widths `2m+1`.
    fn widths(&self) -> [usize; 3] {
        [
            2 * self.spans[0] + 1,
            2 * self.spans[1] + 1,
            2 * self.spans[2] + 1,
        ]
    }

    fn offset3(&self, j: usize) -> [i64; 3] {
        let [wx, wy, _] = self.widths();
        [
            signed_offset(j % wx, self.spans[0]),
            signed_offset((j / wx) % wy, self.spans[1]),
            signed_offset(j / (wx * wy), self.spans[2]),
        ]
    }

    fn shifted(&self, team: usize, delta: [i64; 3]) -> Option<usize> {
        let [tx, ty, _] = self.dims;
        let c = [
            (team % tx) as i64 + delta[0],
            ((team / tx) % ty) as i64 + delta[1],
            (team / (tx * ty)) as i64 + delta[2],
        ];
        for (ci, di) in c.iter().zip(&self.dims) {
            if *ci < 0 || *ci >= *di as i64 {
                return None;
            }
        }
        Some((c[2] as usize * ty + c[1] as usize) * tx + c[0] as usize)
    }
}

impl Window for Window3d {
    fn len(&self) -> usize {
        let [wx, wy, wz] = self.widths();
        wx * wy * wz
    }

    fn teams(&self) -> usize {
        self.dims[0] * self.dims[1] * self.dims[2]
    }

    fn apply(&self, team: usize, j: usize) -> Option<usize> {
        let o = self.offset3(j);
        self.shifted(team, o)
    }

    fn apply_back(&self, team: usize, j: usize) -> Option<usize> {
        let [ox, oy, oz] = self.offset3(j);
        self.shifted(team, [-ox, -oy, -oz])
    }
}

#[cfg(test)]
mod window3d_tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn window3d_size_grows_exponentially_with_dimension() {
        // Same per-axis span m=2: 1D -> 5, 2D -> 25, 3D -> 125 positions.
        let w1 = Window1d::new(64, 2);
        let w2 = Window2d::new(8, 8, 2, 2);
        let w3 = Window3d::new([4, 4, 4], [2, 2, 2]);
        assert_eq!(w1.len(), 5);
        assert_eq!(w2.len(), 25);
        assert_eq!(w3.len(), 125);
    }

    #[test]
    fn window3d_apply_and_back_invert() {
        let w = Window3d::new([3, 4, 5], [1, 1, 2]);
        for t in 0..w.teams() {
            for j in 0..w.len() {
                if let Some(u) = w.apply(t, j) {
                    assert_eq!(w.apply_back(u, j), Some(t), "t={t} j={j}");
                }
            }
        }
    }

    #[test]
    fn window3d_position_zero_is_self() {
        let w = Window3d::new([3, 3, 3], [1, 1, 1]);
        for t in 0..27 {
            assert_eq!(w.apply(t, 0), Some(t));
        }
    }

    #[test]
    fn window3d_center_sees_full_neighborhood_corners_truncated() {
        let w = Window3d::new([3, 3, 3], [1, 1, 1]);
        let center = 13; // (1,1,1)
        let all: HashSet<usize> = (0..w.len()).filter_map(|j| w.apply(center, j)).collect();
        assert_eq!(all.len(), 27);
        let corner: HashSet<usize> = (0..w.len()).filter_map(|j| w.apply(0, j)).collect();
        assert_eq!(corner.len(), 8, "corner team sees only its octant");
    }

    #[test]
    fn window3d_offsets_unique_per_team() {
        let w = Window3d::new([4, 3, 2], [1, 1, 1]);
        for t in 0..w.teams() {
            let hits: Vec<usize> = (0..w.len()).filter_map(|j| w.apply(t, j)).collect();
            let set: HashSet<usize> = hits.iter().copied().collect();
            assert_eq!(hits.len(), set.len(), "team {t}");
        }
    }
}
