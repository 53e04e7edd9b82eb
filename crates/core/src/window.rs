//! Team windows: which blocks a team's exchange buffers visit, and in what
//! order.
//!
//! With a cutoff radius, a team only needs the blocks of teams within `m`
//! regions of its own (Eq. 6 translates `r_c` into the processor span `m`).
//! A [`Window`] enumerates those relative offsets as *positions*
//! `0..len()`; the CA shift body ([`cutoff`](crate::cutoff)) walks its
//! exchange buffers through the positions "modulo the cutoff window"
//! (Algorithm 2, line 5/6).
//!
//! There is one implementation, [`TeamWindow`]: up to three axes of teams,
//! each with its own width, all clipped or all wrapping.
//!
//! * **Per axis**, position `j` of a width-`w` axis is the signed offset
//!   `O[j] = j` for `j ≤ (w−1)/2` and `j − w` otherwise: `0, 1, …, m, −m, …,
//!   −1` for the odd width `2m+1` a span `m` cuts out. `O[0] = 0` is the
//!   team itself.
//! * **Across axes**, positions and teams are both linearized x-fastest
//!   (`j = (jz·wy + jy)·wx + jx`, `t = (cz·ty + cy)·tx + cx`) — the paper's
//!   recipe for Fig. 5: "linearizing the high-dimensional space,
//!   calculating shifts in 1D, and mapping the pattern back into the
//!   original space". A lower-dimensional window is the same window with
//!   trailing unit axes (one team, width one), position by position.
//! * **Clipped** windows model the paper's non-periodic simulation space:
//!   an offset that lands outside the team grid is `None`, so edge teams
//!   have truncated windows (§IV.D attributes its cutoff load imbalance to
//!   exactly that), and the span is clamped to the grid.
//! * **Wrapping** windows — an extension beyond the paper, for periodic
//!   boundaries — take every offset modulo the axis, so every position is
//!   valid, no buffer falls off an edge (no home-route re-injection), and
//!   the width is capped at one visit per team. At the cap, a wrapping
//!   1-axis window is the all-pairs traversal: [`TeamWindow::ring`] is
//!   Algorithm 1's addressing, `apply(t, j) = (t + j) mod teams`.
//! * **Half** windows ([`TeamWindow::half`]) keep the zero offset and the
//!   offsets that are lexicographically positive — the highest axis first —
//!   in the full window's order: each unordered pair of teams once, for a
//!   law that answers both ways from one ask (DESIGN.md §14.8). On a
//!   wrapping axis at an even cap the antipodal offset is its own mirror;
//!   it stays, and only the lower team of each such pair asks about it
//!   ([`TeamWindow::asks`]).

use nbody_physics::Domain;

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

    /// The [`TeamWindow`] this window is: what the shift body derives the
    /// window it walks from.
    fn team_window(&self) -> TeamWindow;
}

/// Signed offset of position `j` on an axis of width `w`:
/// `0, 1, …, (w−1)/2, −⌊w/2⌋, …, −1`.
#[inline]
fn signed_offset(j: usize, w: usize) -> i64 {
    debug_assert!(j < w);
    if j <= (w - 1) / 2 {
        j as i64
    } else {
        j as i64 - w as i64
    }
}

/// Whether position `j` of a width-`w` axis is its own mirror: the zero
/// offset, or the antipodal offset of an even (wrapping, capped) width.
#[inline]
fn self_mirror(j: usize, w: usize) -> bool {
    (w - j) % w == j
}

/// Positions of a half window over the axes whose widths are `widths`,
/// given a lower sub-window of `full` positions of which `half` are in its
/// half: each axis keeps its mirror positions over the lower half and its
/// `(w − 1)/2` positive positions over the whole lower window.
fn half_len(widths: &[usize]) -> usize {
    let (mut full, mut half) = (1, 1);
    for &w in widths {
        half = half * (1 + usize::from(w % 2 == 0)) + full * ((w - 1) / 2);
        full *= w;
    }
    half
}

/// The window over a grid of up to three axes of teams (module docs): the
/// 1-D slabs of Algorithm 2, the 2-D grid of Fig. 5, the 3-D grid of §IV.C
/// and the full team ring of Algorithm 1 are all this type.
///
/// The executable physics of this reproduction is 2D, but the shift
/// schedule is dimension-agnostic; a 3-axis window lets the simulator
/// quantify §IV.C's observation that "communication avoidance becomes
/// especially important in higher dimensions because the number of
/// neighbors is exponential in the dimensionality".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TeamWindow {
    /// Teams along each axis (1 on unused axes).
    dims: [usize; 3],
    /// Window positions along each axis (1 on unused axes).
    widths: [usize; 3],
    wraps: bool,
    /// Whether the positions are the half window's ([`TeamWindow::half`]).
    half: bool,
}

impl TeamWindow {
    fn new(dims: &[usize], spans: &[usize], wraps: bool) -> Self {
        assert!(
            dims.len() == spans.len() && (1..=3).contains(&dims.len()),
            "one span per axis, one to three axes"
        );
        let mut w = TeamWindow {
            dims: [1; 3],
            widths: [1; 3],
            wraps,
            half: false,
        };
        for (i, (&d, &m)) in dims.iter().zip(spans).enumerate() {
            assert!(d > 0, "an axis needs at least one team");
            w.dims[i] = d;
            // One visit per team at most: beyond that the window already
            // covers the whole axis.
            w.widths[i] = if wraps {
                (2 * m + 1).min(d)
            } else {
                2 * m.min(d - 1) + 1
            };
            // The invariant `moved` wraps by: every offset is shorter than
            // its axis, `⌊w/2⌋ < d`.
            assert!(
                w.widths[i] / 2 < d,
                "an offset must be shorter than its axis"
            );
        }
        w
    }

    /// The half of this window: its zero offset and its lexicographically
    /// positive offsets (the highest axis decides first), in this window's
    /// order, and the mirror positions of an even wrapping width, which
    /// only the lower team of each pair asks about ([`TeamWindow::asks`]).
    /// In 1-D that is positions `0..=m`, `0..=w/2` at an even cap: a prefix
    /// of the full order. Every unordered pair of teams the full window
    /// reaches is reached once, by one of its two teams.
    pub fn half(self) -> Self {
        TeamWindow { half: true, ..self }
    }

    /// Whether this is a half window.
    pub fn is_half(&self) -> bool {
        self.half
    }

    /// Whether `team` asks about the pairs it meets at position `j`:
    /// everywhere but at a mirror position of a half window, where only the
    /// lower team of the pair does.
    pub fn asks(&self, team: usize, j: usize) -> bool {
        if !self.half {
            return true;
        }
        let at = self.position(j);
        let coordinates = self.coordinates(at).into_iter().zip(self.widths);
        let mirror = at != 0 && coordinates.into_iter().all(|(j, w)| self_mirror(j, w));
        !mirror || self.apply_back(team, j).is_some_and(|b| team < b)
    }

    /// Position `j` of this window as a position of the full window: `j`
    /// itself unless this is a half window. Per axis from the highest, a
    /// half window holds the mirror position 0 over the lower axes' half,
    /// the positive positions over the whole lower window each and, at an
    /// even width, the antipodal position over the lower half again.
    fn position(&self, j: usize) -> usize {
        if !self.half {
            return j;
        }
        let (mut h, mut at) = (j, 0);
        for axis in (0..3).rev() {
            let (w, lower) = (self.widths[axis], &self.widths[..axis]);
            let (full, half) = (lower.iter().product::<usize>(), half_len(lower));
            let positive = (w - 1) / 2;
            if h < half {
                continue;
            }
            h -= half;
            if h < positive * full {
                return at + (1 + h / full) * full + h % full;
            }
            h -= positive * full;
            at += w / 2 * full;
        }
        at
    }

    /// The per-axis positions of full position `j`, x first.
    fn coordinates(&self, mut j: usize) -> [usize; 3] {
        self.widths.map(|w| {
            let at = j % w;
            j /= w;
            at
        })
    }

    /// Clipped window over `dims` teams per axis, spanning `spans[i]` teams
    /// on each side along axis `i` (clamped to the grid).
    pub fn clipped(dims: &[usize], spans: &[usize]) -> Self {
        Self::new(dims, spans, false)
    }

    /// Wrapping window on a periodic ring (torus) of `dims` teams per axis,
    /// spanning `spans[i]` teams on each side along axis `i` (width
    /// `min(2m+1, dims[i])`).
    pub fn wrapping(dims: &[usize], spans: &[usize]) -> Self {
        Self::new(dims, spans, true)
    }

    /// Derive the spans from a cutoff radius on a `tx × ty` decomposition
    /// of `domain` (`ty = 1` for 1-D slabs): with cell width
    /// `w = length / teams` along an axis, any pair within `r_c` — minimum
    /// image distances when `wraps` — lies within `floor(r_c/w) + 1` cells.
    /// (One more than the paper's `m = r_c/w` to stay correct when `r_c` is
    /// not a multiple of `w`; see DESIGN.md.)
    pub fn from_cutoff(domain: &Domain, (tx, ty): (usize, usize), wraps: bool, r_c: f64) -> Self {
        assert!(r_c > 0.0);
        let span = |length: f64, teams: usize| (r_c / (length / teams as f64)).floor() as usize + 1;
        let spans = [span(domain.length_x(), tx), span(domain.length_y(), ty)];
        Self::new(&[tx, ty], &spans, wraps)
    }

    /// The full ring of `teams` teams: the wrapping 1-axis window at its
    /// cap `W = teams`, which visits every team exactly once —
    /// Algorithm 1's traversal, `apply(t, j) = (t + j) mod teams`.
    pub fn ring(teams: usize) -> Self {
        Self::new(&[teams], &[teams], true)
    }

    /// The nearest neighbours of a `tx × ty` team grid, span one on each
    /// axis: the teams a particle that crosses at most one cell in a step
    /// can be bound for, which is whom a leader re-assigns with
    /// ([`reassign_within`](crate::reassign::reassign_within)) — 2 teams on
    /// slabs, up to 8 on a 2-D grid, however many teams there are. The cap
    /// on a wrapping width keeps a ring of two or three teams from
    /// addressing a neighbour twice.
    pub fn neighbours((tx, ty): (usize, usize), wraps: bool) -> Self {
        Self::new(&[tx, ty], &[1, 1], wraps)
    }

    /// Teams along each axis (1 on unused axes).
    pub fn dims(&self) -> [usize; 3] {
        self.dims
    }

    /// Teams reached on the positive side of each axis, `(w−1)/2`: the span
    /// in use after clamping (0 on unused axes).
    pub fn spans(&self) -> [usize; 3] {
        self.widths.map(|w| (w - 1) / 2)
    }

    /// `team + sign · O[j]`: the per-axis arithmetic of every window, once.
    /// Splits `j` and `team` x-fastest, moves each coordinate by its axis
    /// offset — wrapped or bounds-checked — and recombines row-major.
    fn moved(&self, team: usize, j: usize, sign: i64) -> Option<usize> {
        let (mut team, mut j, mut stride, mut to) = (team, self.position(j), 1, 0);
        for (&d, &w) in self.dims.iter().zip(&self.widths) {
            // A unit axis contributes coordinate 0 at stride 1.
            if d == 1 {
                continue;
            }
            // Within one axis length of the axis, by the constructor's
            // invariant: one step round it wraps.
            let (at, len) = ((team % d) as i64 + sign * signed_offset(j % w, w), d as i64);
            let at = if (0..len).contains(&at) {
                at
            } else if !self.wraps {
                return None;
            } else if at < 0 {
                at + len
            } else {
                at - len
            };
            to += at as usize * stride;
            (team, j, stride) = (team / d, j / w, stride * d);
        }
        Some(to)
    }
}

impl Window for TeamWindow {
    fn len(&self) -> usize {
        match self.half {
            true => half_len(&self.widths),
            false => self.widths.iter().product(),
        }
    }

    fn teams(&self) -> usize {
        self.dims.iter().product()
    }

    fn apply(&self, team: usize, j: usize) -> Option<usize> {
        self.moved(team, j, 1)
    }

    fn apply_back(&self, team: usize, j: usize) -> Option<usize> {
        self.moved(team, j, -1)
    }

    fn is_periodic(&self) -> bool {
        self.wraps
    }

    fn team_window(&self) -> TeamWindow {
        *self
    }
}

/// The periodic 1-D window under the name `benchmark/src/mirror.rs`
/// constructs it by; a [`TeamWindow`] and nothing else. New code calls
/// [`TeamWindow::from_cutoff`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window1dPeriodic(TeamWindow);

impl Window1dPeriodic {
    /// [`TeamWindow::from_cutoff`] on `teams` wrapping slabs.
    pub fn from_cutoff(domain: &Domain, teams: usize, r_c: f64) -> Self {
        Window1dPeriodic(TeamWindow::from_cutoff(domain, (teams, 1), true, r_c))
    }
}

impl Window for Window1dPeriodic {
    fn len(&self) -> usize {
        self.0.len()
    }

    fn teams(&self) -> usize {
        self.0.teams()
    }

    fn apply(&self, team: usize, j: usize) -> Option<usize> {
        self.0.apply(team, j)
    }

    fn apply_back(&self, team: usize, j: usize) -> Option<usize> {
        self.0.apply_back(team, j)
    }

    fn is_periodic(&self) -> bool {
        self.0.is_periodic()
    }

    fn team_window(&self) -> TeamWindow {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn signed_offsets_enumerate_symmetric_range() {
        let offs: Vec<i64> = (0..7).map(|j| signed_offset(j, 7)).collect();
        assert_eq!(offs, vec![0, 1, 2, 3, -3, -2, -1]);
    }

    #[test]
    fn window1d_basics() {
        let w = TeamWindow::clipped(&[10], &[2]);
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
            let w = TeamWindow::clipped(&[teams], &[2]);
            for t in 0..teams {
                assert_eq!(w.apply(t, 0), Some(t));
                assert_eq!(w.apply_back(t, 0), Some(t));
            }
        }
    }

    #[test]
    fn window1d_clamps_to_grid() {
        let w = TeamWindow::clipped(&[4], &[100]);
        assert_eq!(w.spans()[0], 3);
        assert_eq!(w.len(), 7);
    }

    #[test]
    fn window1d_from_cutoff_covers_all_pairs_within_rc() {
        // Domain [0,1), 8 slabs of width 0.125, r_c = 0.2:
        // floor(0.2/0.125)+1 = 2.
        let d = Domain::unit();
        let w = TeamWindow::from_cutoff(&d, (8, 1), false, 0.2);
        assert_eq!(w.spans()[0], 2);
        // Worst case: x at the right edge of slab t, y = x + r_c lands
        // 0.2/0.125 = 1.6 slabs away -> at most slab t+2. Covered.
        let reachable: HashSet<usize> = (0..w.len()).filter_map(|j| w.apply(3, j)).collect();
        for t in 1..=5 {
            assert!(reachable.contains(&t));
        }
    }

    #[test]
    fn window1d_neighbors_cover_each_team_once() {
        let w = TeamWindow::clipped(&[9], &[3]);
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
        let w = TeamWindow::clipped(&[4, 3], &[1, 1]);
        assert_eq!(w.len(), 9);
        assert_eq!(w.teams(), 12);
        assert_eq!(w.dims(), [4, 3, 1]);
        // Team 5 = (1, 1). Offset (1, 1) -> (2, 2) = team 10.
        let j_11 = 1 + 3; // jx=1 (ox=1), jy=1 (oy=1), wx=3
        assert_eq!(w.apply(5, j_11), Some(10));
        assert_eq!(w.apply_back(5, j_11), Some(0));
        assert_eq!(w.apply(5, 0), Some(5));
    }

    #[test]
    fn window2d_corner_truncation() {
        let w = TeamWindow::clipped(&[3, 3], &[1, 1]);
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
        let w = TeamWindow::clipped(&[5, 4], &[2, 1]);
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
        let w = TeamWindow::from_cutoff(&d, (4, 4), false, 0.25);
        // cell width 0.25: floor(1)+1 = 2, clamped to 3 -> 2.
        assert_eq!(w.spans(), [2, 2, 0]);
        assert_eq!(w.len(), 25);
    }

    #[test]
    fn degenerate_single_team_window() {
        let w = TeamWindow::clipped(&[1], &[5]);
        assert_eq!(w.len(), 1);
        assert_eq!(w.apply(0, 0), Some(0));
        let w2 = TeamWindow::clipped(&[1, 1], &[2, 2]);
        assert_eq!(w2.len(), 1);
    }
}

#[cfg(test)]
mod half_tests {
    use super::*;

    /// The half window's positions are the full window's zero offset and
    /// positive offsets, in its order: a prefix in 1-D, `0..=w/2` at an even
    /// cap whose antipodal offset only the lower team asks about, and the
    /// positive rows after row 0's positive half in 2-D.
    #[test]
    fn half_positions_are_the_positive_offsets_in_order() {
        let offsets = |w: TeamWindow, t: usize| -> Vec<Option<usize>> {
            (0..w.len()).map(|j| w.apply_back(t, j)).collect()
        };
        let odd = TeamWindow::wrapping(&[9], &[2]);
        assert_eq!(odd.half().len(), 3);
        assert_eq!(offsets(odd.half(), 4), offsets(odd, 4)[..3].to_vec());
        let even = TeamWindow::ring(4);
        assert_eq!(even.half().len(), 3);
        assert_eq!(offsets(even.half(), 0), [Some(0), Some(3), Some(2)]);
        let asks: Vec<bool> = (0..4).map(|t| even.half().asks(t, 2)).collect();
        assert_eq!(asks, [true, true, false, false], "the lower of 0-2 and 1-3");
        // 3 x 3 wrapping: (0,0), (1,0), then the row oy = 1 whole.
        let grid = TeamWindow::wrapping(&[3, 3], &[1, 1]).half();
        assert_eq!(grid.len(), 5);
        let want = [4, 3, 1, 0, 2].map(Some);
        assert_eq!(offsets(grid, 4), want, "team (1, 1) less each offset");
        assert!((0..9).all(|t| (0..5).all(|j| grid.asks(t, j))));
    }

    /// `|offset| < dim` holds on every axis of every constructor, which is
    /// what lets `moved` wrap with one comparison.
    #[test]
    fn every_offset_is_shorter_than_its_axis() {
        for d in 1..7 {
            for m in 0..8 {
                for w in [
                    TeamWindow::clipped(&[d], &[m]),
                    TeamWindow::wrapping(&[d], &[m]),
                ] {
                    for w in [w, w.half()] {
                        for t in 0..d {
                            for j in 0..w.len() {
                                let far = |u: Option<usize>| u.is_none_or(|u| u.abs_diff(t) < d);
                                assert!(far(w.apply(t, j)) && far(w.apply_back(t, j)));
                            }
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod window3d_tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn window3d_size_grows_exponentially_with_dimension() {
        // Same per-axis span m=2: 1D -> 5, 2D -> 25, 3D -> 125 positions.
        let w1 = TeamWindow::clipped(&[64], &[2]);
        let w2 = TeamWindow::clipped(&[8, 8], &[2, 2]);
        let w3 = TeamWindow::clipped(&[4, 4, 4], &[2, 2, 2]);
        assert_eq!(w1.len(), 5);
        assert_eq!(w2.len(), 25);
        assert_eq!(w3.len(), 125);
    }

    #[test]
    fn window3d_apply_and_back_invert() {
        let w = TeamWindow::clipped(&[3, 4, 5], &[1, 1, 2]);
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
        let w = TeamWindow::clipped(&[3, 3, 3], &[1, 1, 1]);
        for t in 0..27 {
            assert_eq!(w.apply(t, 0), Some(t));
        }
    }

    #[test]
    fn window3d_center_sees_full_neighborhood_corners_truncated() {
        let w = TeamWindow::clipped(&[3, 3, 3], &[1, 1, 1]);
        let center = 13; // (1,1,1)
        let all: HashSet<usize> = (0..w.len()).filter_map(|j| w.apply(center, j)).collect();
        assert_eq!(all.len(), 27);
        let corner: HashSet<usize> = (0..w.len()).filter_map(|j| w.apply(0, j)).collect();
        assert_eq!(corner.len(), 8, "corner team sees only its octant");
    }

    #[test]
    fn window3d_offsets_unique_per_team() {
        let w = TeamWindow::clipped(&[4, 3, 2], &[1, 1, 1]);
        for t in 0..w.teams() {
            let hits: Vec<usize> = (0..w.len()).filter_map(|j| w.apply(t, j)).collect();
            let set: HashSet<usize> = hits.iter().copied().collect();
            assert_eq!(hits.len(), set.len(), "team {t}");
        }
    }
}

#[cfg(test)]
mod wrapping_tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn periodic_1d_never_clips() {
        let w = TeamWindow::wrapping(&[8], &[2]);
        assert_eq!(w.len(), 5);
        assert!(w.is_periodic());
        for t in 0..8 {
            for j in 0..w.len() {
                assert!(w.apply(t, j).is_some());
                assert!(w.apply_back(t, j).is_some());
            }
        }
        // Wrap-around: team 7 + offset 1 = team 0.
        assert_eq!(w.apply(7, 1), Some(0));
        assert_eq!(w.apply(0, 4), Some(7)); // offset -1
    }

    #[test]
    fn periodic_1d_offsets_distinct() {
        for (teams, m) in [(8usize, 2usize), (8, 3), (8, 10), (7, 3), (9, 4), (6, 5)] {
            let w = TeamWindow::wrapping(&[teams], &[m]);
            assert!(w.len() <= teams);
            for t in 0..teams {
                let hits: Vec<usize> = (0..w.len()).map(|j| w.apply(t, j).unwrap()).collect();
                let set: HashSet<usize> = hits.iter().copied().collect();
                assert_eq!(set.len(), hits.len(), "teams={teams} m={m}: {hits:?}");
            }
        }
    }

    #[test]
    fn periodic_1d_full_window_covers_all_teams() {
        // Even team count: the window [-W/2, W/2-1] must reach every team.
        for teams in [4usize, 5, 6, 8] {
            let w = TeamWindow::wrapping(&[teams], &[teams]); // clamped to W=teams
            assert_eq!(w.len(), teams);
            let covered: HashSet<usize> = (0..w.len()).map(|j| w.apply(0, j).unwrap()).collect();
            assert_eq!(covered.len(), teams, "teams={teams}");
        }
    }

    #[test]
    fn periodic_1d_apply_back_inverts() {
        let w = TeamWindow::wrapping(&[9], &[3]);
        for t in 0..9 {
            for j in 0..w.len() {
                let u = w.apply(t, j).unwrap();
                assert_eq!(w.apply_back(u, j), Some(t));
            }
        }
    }

    #[test]
    fn periodic_2d_wraps_both_axes() {
        let w = TeamWindow::wrapping(&[4, 3], &[1, 1]);
        assert_eq!(w.len(), 9);
        assert_eq!(w.teams(), 12);
        for t in 0..12 {
            let hits: HashSet<usize> = (0..9).map(|j| w.apply(t, j).unwrap()).collect();
            assert_eq!(hits.len(), 9, "team {t}: full 3x3 neighborhood via wrap");
        }
        // Corner team 0 = (0,0): offset (-1,-1) reaches (3,2) = team 11.
        let [wx, wy, _] = w.widths;
        let j = (wx - 1) + wx * (wy - 1);
        assert_eq!(w.apply(0, j), Some(11));
    }

    #[test]
    fn periodic_2d_apply_back_inverts() {
        let w = TeamWindow::wrapping(&[5, 4], &[2, 1]);
        for t in 0..w.teams() {
            for j in 0..w.len() {
                let u = w.apply(t, j).unwrap();
                assert_eq!(w.apply_back(u, j), Some(t), "t={t} j={j}");
            }
        }
    }

    #[test]
    fn from_cutoff_covers_minimum_image_pairs() {
        let d = Domain::unit();
        // rc = 0.3 on 8 slabs (width 0.125): m = 3, W = 7.
        let w = Window1dPeriodic::from_cutoff(&d, 8, 0.3);
        assert_eq!(w.len(), 7);
        // Wrap pairs: team 0 and team 7 are adjacent under min image.
        let reachable: HashSet<usize> = (0..w.len()).map(|j| w.apply_back(0, j).unwrap()).collect();
        assert!(reachable.contains(&7) && reachable.contains(&5));
    }
}

#[cfg(test)]
mod ring_tests {
    use super::*;
    use crate::cutoff::row_steps;

    /// The ring is Algorithm 1's addressing: the closed forms its own shift
    /// loop used before it became the cutoff body on this window.
    #[test]
    fn ring_is_the_all_pairs_traversal() {
        for teams in 1..=12usize {
            let ring = TeamWindow::ring(teams);
            assert_eq!(ring.len(), teams);
            assert_eq!(ring.teams(), teams);
            // Wrapping whatever the run's boundary: no position is ever
            // `None`, so the shift body builds no home copy.
            assert!(ring.is_periodic());
            for t in 0..teams {
                for j in 0..teams {
                    assert_eq!(ring.apply(t, j), Some((t + j) % teams), "teams={teams}");
                    assert_eq!(
                        ring.apply_back(t, j),
                        Some((t + teams - j) % teams),
                        "teams={teams}"
                    );
                }
            }
            // Eq. 5's p/c^2 steps on every row whenever c divides the ring.
            for c in (1..=teams).filter(|c| teams % c == 0) {
                for k in 0..c {
                    assert_eq!(
                        row_steps(teams, c, k),
                        teams / c,
                        "teams={teams} c={c} k={k}"
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod neighbour_tests {
    use super::*;
    use std::collections::HashSet;

    /// Whom a team re-assigns with: each adjacent team once, itself never —
    /// two on slabs, eight on a grid, fewer at a clipped edge, and on a ring
    /// of two or three teams no team twice.
    #[test]
    fn neighbours_are_the_adjacent_teams_each_once() {
        let table: [((usize, usize), bool, &[usize]); 8] = [
            ((5, 1), false, &[1, 2, 2, 2, 1]),
            ((5, 1), true, &[2; 5]),
            ((1, 1), true, &[0]),
            ((2, 1), true, &[1; 2]),
            ((3, 1), true, &[2; 3]),
            ((3, 3), true, &[8; 9]),
            ((3, 3), false, &[3, 5, 3, 5, 8, 5, 3, 5, 3]),
            ((2, 3), true, &[5; 6]),
        ];
        for (dims, wraps, want) in table {
            let hood = TeamWindow::neighbours(dims, wraps);
            assert_eq!(hood.teams(), want.len());
            for (team, &n) in want.iter().enumerate() {
                let to: Vec<usize> = (1..hood.len())
                    .filter_map(|j| hood.apply(team, j))
                    .collect();
                let from: HashSet<usize> = (1..hood.len())
                    .filter_map(|j| hood.apply_back(team, j))
                    .collect();
                let distinct: HashSet<usize> = to.iter().copied().collect();
                assert_eq!((to.len(), distinct.len()), (n, n), "{dims:?} team {team}");
                assert!(!distinct.contains(&team));
                // Whoever it sends to sends to it.
                assert_eq!(distinct, from, "{dims:?} team {team}");
            }
        }
    }
}
