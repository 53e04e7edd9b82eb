//! Algorithm 2 and its multi-dimensional generalization — the
//! communication-avoiding algorithm for distance-limited interactions — and
//! with it **the one shift body** of this crate: Algorithm 1 is this
//! algorithm on the full team ring.
//!
//! ```text
//! S' = CA-1D-N-BODY(S, rc, c)
//!   2 Broadcast St from team leader to team members.
//!   3 Copy St to exchange buffer St' of size nc/p.
//!   4 Given a k-th-row processor, shift St' by k along row modulo the
//!     cutoff window.
//!   5 for 2m/c steps do
//!   6   Shift St' by c along row modulo the cutoff window.
//!   7   Update particles in St based on effect of St'.
//!   8 end for
//!   9 Sum-reduce updates within team.
//! ```
//!
//! Line 5 runs `2m/c` shifts: the step that would bring a row's buffer back
//! to its own team's block is a local update from the copy line 2 left,
//! with no message ([`traversal`]). At `c = W` line 6 takes a buffer once
//! around the window and back to the rank that holds it, so that step
//! sends nothing either.
//!
//! Teams own *spatial* regions; a [`Window`] enumerates the `W` block
//! offsets a team interacts with (`W = 2m+1` in 1D). Exchange buffers walk
//! through window *positions*: after the skew plus `s` shifts, the row-`k`
//! processor of team `t` holds the block at position `(k + s·c) mod W`,
//! i.e. block `t − O[(k+s·c) mod W]`. Every position is updated exactly
//! once: at step `s`, row `k` computes iff `k + s·c < W + c` (the
//! first-wrap rule), which partitions positions across `(k, s)`.
//!
//! **Shifting modulo the window.** Between consecutive positions the buffer
//! usually moves `c` teams east — a point-to-point shift. When the
//! traversal wraps from the `+m` end of the window to the `−m` end, the
//! buffer instead jumps `W − c` teams west (Fig. 4's "wrap around at the
//! cutoff radius"). Because the paper's simulation space is not periodic, a
//! buffer's path can leave the team grid at the domain boundary; exchange
//! buffers are immutable during the force phase, so the block's *home team*
//! re-injects a copy on the other side (`home-route` sends below). Boundary
//! teams therefore hold empty buffers in some steps and idle — the load
//! imbalance the paper reports in §IV.D. Under a wrapping window no path
//! leaves the grid and no home copy exists.
//!
//! **Algorithm 1 is the `W = teams` case.** The paper's two listings differ
//! in the four words "modulo the cutoff window". On
//! [`TeamWindow::ring`](crate::window::TeamWindow::ring) position `j` is
//! offset `j` around the ring, so the skew sends `k` teams east, every
//! shift `c` teams east, every row runs `teams/c = p/c²` steps and updates
//! in each, and nothing is ever `None`:
//! [`ca_all_pairs_forces`](crate::allpairs::ca_all_pairs_forces) is
//! `shift_pipeline` on that window (DESIGN.md §15.1).
//!
//! **The half window.** Under a law with a cutoff that promises
//! `f_ji = −f_ij` the body walks the half of its window
//! ([`walked_window`]), Plimpton's half-ring on any window: a rank asks
//! each pair of its targets and another team's block once, the block's
//! buffer gathers the reactions `−f` as it goes, and where its path ends
//! the reactions go home to the block's team in one return message, which
//! the home rank adds to its partial forces before line 9. Plimpton's own
//! half-ring is this body at `c = 1` on the half of the full ring, whatever
//! the law's range
//! ([`Method::ParticleRingSymmetric`](crate::sim::Method::ParticleRingSymmetric)).
//!
//! Each phase ships what its receiver reads (DESIGN.md §16): lines 2-6 move
//! blocks of [`Source`]s — position, mass, id — a buffer that has gathered
//! reactions carries them beside its sources, a return is the bare force
//! vectors, and line 9 sums bare force vectors. Velocities never leave the
//! leader.

use std::cell::RefCell;

use nbody_comm::{sum_combine, Communicator, Phase};
use nbody_physics::particle::sources;
use nbody_physics::{Boundary, Domain, ForceLaw, Particle, Source, Vec2};

use crate::dist::team_at;
use crate::grid::GridComms;
use crate::kernel::{cell_order, symmetric_cutoff, update, ComputeMeter, SLACK};
use crate::link::{Link, Strict};
use crate::window::{TeamWindow, Window};

/// Tag for the skew message (line 4).
pub const TAG_SKEW: u64 = 0x10;
/// Base tag for shift step `s` (line 6): `TAG_SHIFT + s`.
pub const TAG_SHIFT: u64 = 0x1000;
/// Base tag for the reactions returned at step `s`: `TAG_RETURN + s`.
pub const TAG_RETURN: u64 = 0x3000;

/// Errors from invalid cutoff configurations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CutoffError {
    /// The replication factor must fit inside the interaction window
    /// (the paper's practicality constraint `c ≤ 2m`; here `c ≤ W = 2m+1`).
    ReplicationExceedsWindow {
        /// Replication factor.
        c: usize,
        /// Window size `W`.
        window: usize,
    },
    /// Grid team count and window team count disagree.
    TeamMismatch {
        /// Teams in the processor grid.
        grid_teams: usize,
        /// Teams the window was built for.
        window_teams: usize,
    },
}

impl std::fmt::Display for CutoffError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CutoffError::ReplicationExceedsWindow { c, window } => write!(
                f,
                "replication factor c={c} must fit inside the cutoff window (W={window}); \
                 the paper requires c <= 2m"
            ),
            CutoffError::TeamMismatch {
                grid_teams,
                window_teams,
            } => write!(
                f,
                "grid has {grid_teams} teams but the window was built for {window_teams}"
            ),
        }
    }
}

impl std::error::Error for CutoffError {}

/// Check that `window` is usable with a grid of `teams` teams and
/// replication `c`.
pub fn validate_cutoff<W: Window>(window: &W, teams: usize, c: usize) -> Result<(), CutoffError> {
    if window.teams() != teams {
        return Err(CutoffError::TeamMismatch {
            grid_teams: teams,
            window_teams: window.teams(),
        });
    }
    if c > window.len() {
        return Err(CutoffError::ReplicationExceedsWindow {
            c,
            window: window.len(),
        });
    }
    Ok(())
}

/// Number of shift steps row `k` performs: the largest `s` with
/// `k + s·c < W + c` (so `O(W/c) = O(2m/c)`, the paper's step count).
pub fn row_steps(window_len: usize, c: usize, k: usize) -> usize {
    debug_assert!(k < c);
    (window_len + c - k - 1) / c
}

/// **The window the shift body walks** on `window` under replication `c`,
/// for a law that promises `newton` ([`symmetric_cutoff`]): its
/// [`half`](TeamWindow::half) when the law asks each pair once for both of
/// its ordered pairs, `c` leaves the half room to shift (`c <` its length)
/// and the busiest rank sends no more messages on it than the busiest rank
/// on `window`. A rank that idled on `window` may send more: a row's return
/// is one message where its path went home for free, and a clipped grid's
/// edge teams return what would leave the grid. Otherwise `window` itself:
/// the paper's full window, which the figure sweeps' twins, built with no
/// law, keep. The run's body and its schedule twin both ask this, so ledger
/// and twin agree.
pub fn walked_window(window: TeamWindow, c: usize, newton: bool) -> TeamWindow {
    let half = window.half();
    let busiest = |w: TeamWindow| {
        let sends = |(team, row)| -> usize {
            let hops = traversal(w, c, team, row);
            hops.map(|h| {
                [h.shift_to, h.home_to, h.return_to]
                    .iter()
                    .flatten()
                    .count()
            })
            .sum()
        };
        let ranks = (0..c).flat_map(|row| (0..w.teams()).map(move |team| (team, row)));
        ranks.map(sends).max()
    };
    match newton && c < half.len() && busiest(half) <= busiest(window) {
        true => half,
        false => window,
    }
}

/// One force evaluation of the CA cutoff algorithm (Algorithm 2 on a 1-axis
/// [`TeamWindow`]; its Fig. 5 generalization on
/// more axes).
///
/// On entry, each team leader's `st` holds the particles of its *spatial*
/// region with force accumulators cleared (empty on non-leaders). On exit
/// the leader's `st` carries the accumulated forces from every particle
/// within the window; non-leader contents are unspecified.
pub fn ca_cutoff_forces<C: Communicator, W: Window, F: ForceLaw>(
    gc: &GridComms<C>,
    window: &W,
    st: &mut Vec<Particle>,
    law: &F,
    domain: &Domain,
    boundary: Boundary,
) {
    prepare_block(gc, window, st, law, domain, boundary);
    ca_forces(gc, window, st, law, domain, boundary);
}

/// Lines 2-9 of both algorithms without fault tolerance, on blocks that
/// are already in the order their kernel wants: broadcast, the shift body
/// under the [`Strict`] link, reduce. The communication schedule is
/// *identical in shape on every rank* (as in the paper's SPMD code).
pub(crate) fn ca_forces<C: Communicator, W: Window, F: ForceLaw>(
    gc: &GridComms<C>,
    window: &W,
    st: &mut Vec<Particle>,
    law: &F,
    domain: &Domain,
    boundary: Boundary,
) {
    debug_assert!(
        gc.is_leader() || st.is_empty(),
        "only leaders contribute particles"
    );
    let exch = team_broadcast(gc, st);
    Strict::infallible(shift_pipeline(
        gc, window, st, exch, law, domain, boundary, &Strict, None,
    ));
    team_reduce(gc, st);
}

/// What both public cutoff entries do before line 2: check the
/// configuration and put the leader's block in the order the kernel's cull
/// needs (every copy of the block then has it).
pub(crate) fn prepare_block<C: Communicator, W: Window, F: ForceLaw>(
    gc: &GridComms<C>,
    window: &W,
    st: &mut [Particle],
    law: &F,
    domain: &Domain,
    boundary: Boundary,
) {
    assert_eq!(
        boundary == Boundary::Periodic,
        window.is_periodic(),
        "boundary and window periodicity must agree: clipped windows model \
         the paper's non-periodic domain; periodic boundaries need a \
         wrapping one"
    );
    validate_cutoff(window, gc.grid.teams(), gc.grid.c()).expect("invalid cutoff configuration");
    cell_order(st, law, domain);
}

/// Line 2 without fault tolerance: the leader broadcasts its block as
/// [`Source`]s down the column and the other rows build their target block
/// from it (at rest, accumulators cleared — as the leader's are). Returns
/// the broadcast buffer, which already is line 3's copy.
fn team_broadcast<C: Communicator>(gc: &GridComms<C>, st: &mut Vec<Particle>) -> Vec<Source> {
    let mut block = sources(st);
    gc.col.set_phase(Phase::Broadcast);
    gc.col.bcast(0, &mut block);
    if !gc.is_leader() {
        st.clear();
        st.extend(block.iter().map(Source::particle));
    }
    block
}

/// Line 9: sum-reduce the partial forces onto the leader — the accumulators
/// only, folded in the tree order a reduction of whole particles would
/// take, so the sums are the same bits.
fn team_reduce<C: Communicator>(gc: &GridComms<C>, st: &mut [Particle]) {
    gc.col.set_phase(Phase::Reduce);
    // A column of one has nothing to sum: skip building the buffer the
    // transport would hand straight back.
    if gc.col.size() == 1 {
        return;
    }
    let partial: Vec<Vec2> = st.iter().map(|p| p.force).collect();
    if let Some(total) = gc.col.reduce_vec(0, partial, sum_combine) {
        for (p, force) in st.iter_mut().zip(total) {
            p.force = force;
        }
    }
}

/// One move of a row's exchange buffer along its team row: whom this rank
/// sends to, whom it receives from and what it then holds. Ranks are named
/// by team — the row communicator's rank, and `grid.rank_at(team, row)` in
/// the world.
///
/// A hop that lands on the rank's own team's block is local: it sends and
/// receives nothing, and the rank updates from the copy it holds (except
/// on Algorithm 1's full ring, see [`traversal`]). So is a hop that stays
/// on the block it holds (`c = W`): the rank updates from its buffer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Hop {
    /// Team the buffer held before the hop moves to; `None` when no block
    /// is held, its path leaves the team grid here, or the move would
    /// carry it to its own team or back to this rank.
    pub shift_to: Option<usize>,
    /// Team this rank re-injects its own block to, as that block's home,
    /// because the copy that should have arrived there left the grid
    /// (clipped windows only, and never to itself).
    pub home_to: Option<usize>,
    /// Team the incoming buffer arrives from: the block's previous holder,
    /// or its home when that holder is off the grid; `None` when the block
    /// is this team's own.
    pub recv_from: Option<usize>,
    /// Whether the incoming buffer carries the reactions its earlier
    /// holders gathered (half windows only).
    pub carried: bool,
    /// Block held after the hop — the one the next hop's `shift_to` moves;
    /// `None` when the new position is off the grid.
    pub block: Option<usize>,
    /// Whether line 7 runs on `block`.
    pub update: bool,
    /// Team the reactions the held buffer gathered go home to, because its
    /// path ends here: at its home, off the grid, or after the row's last
    /// shift (half windows only).
    pub return_to: Option<usize>,
    /// Team the reactions gathered on this team's own block come back
    /// from (half windows only).
    pub return_from: Option<usize>,
}

/// **The routing rule of Algorithms 1 and 2**, for the row-`row` processor
/// of `team` under replication `c`: the skew (line 4) and then one [`Hop`]
/// per shift step (lines 5-8), `row_steps + 1` items, computed as they are
/// asked for. The skew is the hop from window position 0 to position `row`
/// and shift step `s` the hop from position `row + (s−1)·c` to
/// `row + s·c` (mod `W`). Every shift step updates: each window position is
/// reached by exactly one `(row, s)`, which is the first-wrap rule
/// [`row_steps`] encodes. Row 0 starts where its skew would take it, so its
/// first item moves nothing.
///
/// The shift step that brings a row home, to position 0 and its own
/// team's block, moves nothing either: the rank has held that block since
/// line 2 and updates from that copy, at the same step and so in the same
/// accumulation order. A row at `c = 1` therefore sends `W − 1 = 2m` shifts,
/// the paper's count. Algorithm 1's full ring (a wrapping window with
/// `W = teams`) of more than one team is the exception for now and ships
/// the block home, because the benchmark pins `p/c²` shifts per rank-step
/// on all-pairs runs; the exception goes when that pin becomes the twin's
/// count (the ROADMAP's "restate the two schedule pins" step of thawing
/// `benchmark/`). A ring of one team would ship its block to itself.
///
/// At `c = W` a shift step moves a buffer `c` positions around a window of
/// `W` and so back to the rank that holds it. Row 0's step is its home hop.
/// Every other row *stays*: it updates from the block its skew brought,
/// which it still holds, and sends nothing, because the send would go to
/// the rank itself. Such a row sends its skew and no shift. This is every
/// row but row 0 of Plimpton's force decomposition (`c = √p` on the ring)
/// and of a cutoff run at `c = 2m + 1`.
///
/// On a [half window](TeamWindow::half) a rank that updates from another
/// team's block also gathers the reactions on it, and the row's copy of a
/// block carries what its holders gathered from hop to hop. Where the copy's
/// path ends — at its home, where the home's own copy takes over; off the
/// grid; or after the row's last shift, in one more item — its holder
/// returns the reactions to the block's team instead of shifting. A copy
/// that gathered nothing returns nothing, and at a mirror position only the
/// lower team asks ([`TeamWindow::asks`]).
///
/// The run executes these hops (the shift body, under either link) and the
/// schedule twin ([`CutoffParams::program`]) maps the same hops to
/// simulator ops, so who sends which block to whom has this one statement.
///
/// [`CutoffParams::program`]: crate::schedule::CutoffParams::program
pub fn traversal(
    window: TeamWindow,
    c: usize,
    team: usize,
    row: usize,
) -> impl Iterator<Item = Hop> {
    let w = window.len();
    // The full ring ships a row its own block home while the benchmark pins
    // `p/c²` shifts per all-pairs rank-step; remove this exception with
    // that pin (the ROADMAP's "restate the two schedule pins"). A ring of
    // one team has no other rank to ship through.
    let half = window.is_half();
    let ships_home = !half && window.is_periodic() && w == window.teams() && w > 1;
    let steps = row_steps(w, c, row);
    let position = move |s: usize| (row + s * c) % w;
    // Whether the row's copy of block `b`, as held after step `s`, carries
    // reactions: a holder asked about it since the copy left its home.
    let gathered = move |b: usize, s: usize| {
        (1..=s).rev().try_for_each(|u| {
            let j = position(u);
            let holder = window.apply(b, j).filter(|_| j != 0).ok_or(false)?;
            match window.asks(holder, j) {
                true => Err(true),
                // A copy that arrived from its home is a fresh one.
                false => window.apply(b, position(u - 1)).map(|_| ()).ok_or(false),
            }
        }) == Err(true)
    };
    // Whether the path of the copy of `b` held after step `s − 1` ends at
    // step `s`, its reactions going home.
    let ends = move |b: usize, s: usize| {
        gathered(b, s - 1)
            && (s > steps || position(s) == 0 || window.apply(b, position(s)).is_none())
    };
    // One more item where a half window's row ends away from home.
    let last = steps + usize::from(half && position(steps) != 0);
    // Position and block before the hop: every row starts on its own block.
    let mut at = (0, Some(team));
    (0..=last).map(move |s| {
        let (j_prev, held) = at;
        let returns = match half && s > 0 {
            false => Hop::default(),
            true => Hop {
                return_to: held.filter(|&b| ends(b, s)),
                return_from: window
                    .apply(team, j_prev)
                    .filter(|_| j_prev != 0 && ends(team, s)),
                ..Hop::default()
            },
        };
        if s > steps {
            return Hop {
                block: held,
                ..returns
            };
        }
        let j_new = position(s);
        let block = window.apply_back(team, j_new);
        at = (j_new, block);
        let update = s > 0 && block.is_some() && window.asks(team, j_new);
        // Landing on its own block, a rank moves nothing: it has held that
        // block since line 2. Every rank of the row lands on its own at
        // this step, so every send it would have taken carries a block to
        // its own team. Staying on another team's block moves nothing
        // either: at `c = W` a shift goes once around the window, and its
        // send would come straight back to this rank.
        let home = block == Some(team);
        if (home && (s == 0 || !ships_home)) || (!home && j_new == j_prev) {
            return Hop {
                block,
                update,
                ..returns
            };
        }
        Hop {
            // The receiving row is this row one team over: it runs this
            // step iff this rank does.
            shift_to: held.and_then(|b| window.apply(b, j_new)),
            home_to: match window.apply(team, j_prev) {
                None => window.apply(team, j_new),
                Some(_) => None,
            },
            recv_from: block.map(|b| window.apply(b, j_prev).unwrap_or(b)),
            carried: half && block.is_some_and(|b| s > 0 && gathered(b, s - 1)),
            block,
            update,
            ..returns
        }
    })
}

/// The teams that update from the copy of `block` that leaves its home in
/// row `row` at step `s` of [`traversal`] — by the skew, a shift or a
/// clipped window's home re-injection: the copy's holder at each step from
/// `s` on, for as long as the copy goes on (until its path comes home,
/// leaves the grid or the row's shifts end), wherever that holder asks
/// about the pairs it meets. A copy the full ring ships home is read by
/// nobody: the home updates from the block it kept.
pub(crate) fn readers(
    window: TeamWindow,
    c: usize,
    block: usize,
    row: usize,
    s: usize,
) -> impl Iterator<Item = usize> {
    let w = window.len();
    (s..=row_steps(w, c, row))
        .map(move |u| (u, (row + u * c) % w))
        .take_while(|&(_, j)| j != 0)
        .map_while(move |(u, j)| window.apply(block, j).map(|holder| (u, j, holder)))
        .filter(move |&(u, j, holder)| u > 0 && window.asks(holder, j))
        .map(|(_, _, holder)| holder)
}

/// Where the teams of a [spatial](TeamWindow::is_spatial) window live, and
/// how far into another team's region a source can reach: what every copy
/// of a block that leaves home is cut to (DESIGN.md §15.1). Team `t` owns
/// the cell `(t mod tx, t / tx)` of the domain's `tx × ty` split, an edge
/// cell of a clipped axis everything beyond it too, and a periodic axis
/// its cell modulo the period ([`team_at`]).
///
/// A source is kept for a reader when it is nearer its cell than `r_c`
/// widened by [`SLACK`] of every length in play — `r_c`, the domain's
/// corner and extent — far above the rounding of a displacement, as the
/// kernel's cull widens its reach (§14.2); a source that is not finite is
/// always kept. Every pair the law answers with a force has its source kept
/// while every finite target lies in its team's region: the invariant
/// [`Regions::stray`] checks.
pub(crate) struct Regions {
    domain: Domain,
    boundary: Boundary,
    dims: (usize, usize),
    /// A cell's width and height.
    cell: Vec2,
    /// `r_c` widened, squared.
    reach_sq: f64,
}

impl Regions {
    /// The regions of `window`'s teams under `law`: `None` unless the
    /// window is spatial and the law has a cutoff — copies then go whole.
    pub(crate) fn of<F: ForceLaw>(
        window: &TeamWindow,
        law: &F,
        domain: &Domain,
        boundary: Boundary,
    ) -> Option<Regions> {
        let r_c = law.cutoff().filter(|_| window.is_spatial())?.abs();
        let [tx, ty, _] = window.dims();
        let ext = domain.extent();
        let lengths = domain.min.x.abs() + domain.min.y.abs() + ext.x + ext.y;
        let reach = r_c + (r_c + 2.0 * lengths) * SLACK;
        Some(Regions {
            domain: *domain,
            boundary,
            dims: (tx, ty),
            cell: Vec2::new(ext.x / tx as f64, ext.y / ty as f64),
            reach_sq: reach * reach,
        })
    }

    /// The first finite particle of `block` that `team` does not own
    /// ([`team_at`]), if there is one.
    pub(crate) fn stray<'a>(&self, team: usize, block: &'a [Particle]) -> Option<&'a Particle> {
        block
            .iter()
            .filter(|p| p.pos.is_finite())
            .find(|p| team_at(&self.domain, self.dims, self.boundary, p.pos) != team)
    }

    /// How far `v` lies from cell `at` of an axis of `teams` cells of width
    /// `width` from `lo`, of which the edge cells reach on outward unless
    /// the axis is periodic with period `length`.
    fn gap(&self, v: f64, at: usize, teams: usize, lo: f64, width: f64, length: f64) -> f64 {
        if teams == 1 {
            return 0.0;
        }
        let from = lo + at as f64 * width;
        if self.boundary == Boundary::Periodic {
            // How far past the cell's start, once round the period.
            let mut t = v - from;
            if !(0.0..length).contains(&t) {
                t = t.rem_euclid(length);
            }
            return match t <= width {
                true => 0.0,
                false => (t - width).min(length - t),
            };
        }
        let below = if at == 0 { 0.0 } else { from - v };
        let above = if at + 1 == teams {
            0.0
        } else {
            v - (from + width)
        };
        below.max(above).max(0.0)
    }

    /// Whether a source at `pos` is in reach of `team`'s region.
    fn reaches(&self, team: usize, pos: Vec2) -> bool {
        let ((tx, ty), d) = (self.dims, &self.domain);
        let ext = d.extent();
        let gx = self.gap(pos.x, team % tx, tx, d.min.x, self.cell.x, ext.x);
        let gy = self.gap(pos.y, team / tx, ty, d.min.y, self.cell.y, ext.y);
        gx * gx + gy * gy < self.reach_sq
    }

    /// The copy of `block` its `readers` need, into `copy`: the sources in
    /// reach of one of their regions, in block order, then the [`tally`] of
    /// the whole block. `kept` is set to the indices of those sources in
    /// `block`, by which the reactions they gather come back.
    fn cut(
        &self,
        block: &[Source],
        readers: &[usize],
        kept: &mut Vec<usize>,
        mut copy: Vec<Source>,
    ) -> Vec<Source> {
        kept.clear();
        kept.reserve(block.len());
        kept.extend((0..block.len()).filter(|&k| {
            let pos = block[k].pos;
            !pos.is_finite() || readers.iter().any(|&team| self.reaches(team, pos))
        }));
        copy.clear();
        copy.reserve_exact(kept.len() + 1);
        copy.extend(kept.iter().map(|&k| block[k]));
        copy.push(tally(block.len()));
        copy
    }
}

/// The last element of a copy cut from a block: no source, but the length
/// of the whole block in its id, by which each holder charges the pairs of
/// the sources left at home ([`left_at_home`]).
fn tally(whole: usize) -> Source {
    Source {
        pos: Vec2::zero(),
        mass: 0.0,
        id: whole as u64,
    }
}

/// The pairs of `targets` with the `absent` sources a cut copy left at
/// home, each beyond `r_c` of every target: answered as the kernel's cull
/// answers pairs, so counted — both ordered pairs of one asked `across` —
/// and, with `potential`, charged the potential the law promises beyond
/// `r_c`, whoever the pair is.
fn left_at_home<F: ForceLaw>(
    targets: &[Particle],
    absent: usize,
    across: bool,
    law: &F,
    potential: Option<&mut f64>,
) -> u64 {
    let pairs = (targets.len() * absent) as u64 * (1 + u64::from(across));
    if let (Some(potential), Some(t), true) = (potential, targets.first(), pairs > 0) {
        let far = Vec2::new(f64::INFINITY, 0.0);
        *potential += pairs as f64 * law.potential(t, t, far);
    }
    pairs
}

/// What the shift body keeps on a rank's thread from one evaluation for
/// the next: the readers of a copy and the indices of the block the last
/// cut copy carried, and the vectors that arrived and are free to be sent
/// on — the last buffer held, for the next cut copy; the last carried one,
/// to carry the next; the last return, to gather the next reactions in. A
/// warm evaluation then allocates little but the transport's envelopes.
#[derive(Default)]
struct Scratch {
    reading: Vec<usize>,
    kept: Vec<usize>,
    spare: Vec<Source>,
    carrier: Vec<(Source, Vec2)>,
    gathered: Vec<Vec2>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::default();
}

/// Lines 3-8 of both algorithms: walk [`traversal`] of the
/// [`walked_window`] with the targets `st` and `own`, this rank's copy of
/// its team's block as [`Source`]s (line 3; the plain entry passes the
/// broadcast buffer itself). The one body behind every `ca_*_forces*`
/// entry: [`Strict`] link in the plain ones, one
/// [`Deadline`](crate::link::Deadline) link per recovery attempt in the
/// fault-tolerant ones (so the home copy is rebuilt from the checkpointed
/// state on every retry). With `potential` set, the kernel also harvests
/// the summed pair potential into it (the health monitors'
/// potential-energy partial). Panics on a half window — the half ring of
/// [`Method::ParticleRingSymmetric`](crate::sim::Method::ParticleRingSymmetric)
/// included — under a law that does not promise `f_ji = −f_ij`.
///
/// The held buffer is moved into every send and replaced by the one
/// received, with the reactions it gathered on a half window; the
/// reactions returned to this rank are added to its targets' forces.
///
/// On a spatial window under a law with a cutoff ([`Regions`]) `own` stays
/// home: each copy that leaves — the skew, a shift from home, a clipped
/// window's re-injection — is cut to the sources its [`readers`] reach and
/// ends with the [`tally`] of the whole block, holders forward it as it
/// came, and a return carries the reactions of the sources it carried,
/// which this rank adds back through the indices it cut them by. Elsewhere
/// the block itself leaves, whole, and a clipped window keeps an immutable
/// copy to re-inject. A cut is exact while every finite target lies in its
/// team's region, which the body checks on every copy a failed digest has
/// not already condemned ([`Link::vouched`]), and panics naming the first
/// that does not.
#[allow(clippy::too_many_arguments)]
pub(crate) fn shift_pipeline<C: Communicator, W: Window, F: ForceLaw, L: Link>(
    gc: &GridComms<C>,
    window: &W,
    st: &mut [Particle],
    own: Vec<Source>,
    law: &F,
    domain: &Domain,
    boundary: Boundary,
    link: &L,
    mut potential: Option<&mut f64>,
) -> Result<(), L::Error> {
    let (team, row, c) = (gc.team(), gc.row_index(), gc.grid.c());
    let window = walked_window(window.team_window(), c, symmetric_cutoff(law));
    assert!(
        !window.is_half() || law.is_symmetric(),
        "the half window asks each pair once for both ways: it requires a symmetric force law"
    );
    let regions = Regions::of(&window, law, domain, boundary);
    if let Some(regions) = regions.as_ref().filter(|_| link.vouched()) {
        if let Some(p) = regions.stray(team, st) {
            panic!(
                "particle {} at ({}, {}) is not in team {team}'s region: a cut copy is exact \
                 only when every block is re-assigned right before its force evaluation",
                p.id, p.pos.x, p.pos.y
            );
        }
    }
    // `exch` is the held buffer. Where copies are cut, this team's block
    // stays in `own`; where they are not, it leaves as the held buffer,
    // and `home` is the immutable copy that re-injects it when a traversal
    // wraps across the domain boundary — a periodic window has no boundary
    // to wrap across and keeps none.
    let cut = regions.is_some();
    let (own, mut exch) = match cut {
        true => (own, Vec::new()),
        false => (Vec::new(), own),
    };
    let home: Vec<Source> = match window.is_periodic() || cut {
        true => Vec::new(),
        false => exch.clone(),
    };
    // The paper's M = cn/p replicated working set (owned block + exchange
    // buffer + home copy): the memory the Eq. 2/3 bounds are evaluated
    // against. Where copies are cut the exchange buffer is another team's
    // copy as it arrives, so the mark is taken again at every receive.
    let kept_home = (st.len() + own.len() + home.len()) as u64;
    let memory = gc.col.metrics();
    memory.gauge_max("mem_particles_hwm", kept_home + exch.len() as u64);
    // The block the held buffer is a copy of, and the length of that whole
    // block (a cut copy's tally).
    let (mut held, mut whole) = (Some(team), exch.len());
    // The reactions the held buffer has gathered, one per source, while
    // `gathering`: the vector stays for the next buffer unless it is sent.
    let Scratch {
        mut reading,
        mut kept,
        mut spare,
        mut carrier,
        mut gathered,
    } = SCRATCH.take();
    let mut gathering = false;

    // Pipeline-step tagging (0 = skew, s = shift step s): blocked waits in
    // the trace carry the step, so an analyzer can place every wait in the
    // skew/shift schedule and name the late sender.
    let tr = gc.col.tracer();
    // FLOP/byte accounting for the roofline audit; aborted attempts still
    // count — the work was really done.
    let meter = ComputeMeter::new(&gc.col.metrics(), law.flops_per_interaction());
    // A copy cut for the readers of its path from step `s`.
    let mut cut_for = |regions: &Regions, s: usize, kept: &mut Vec<usize>| {
        reading.clear();
        reading.extend(readers(window, c, team, row, s));
        regions.cut(&own, &reading, kept, std::mem::take(&mut spare))
    };

    let hops = traversal(window, c, team, row);
    for (s, hop) in hops.enumerate() {
        let (phase, tag) = match s {
            0 => (Phase::Skew, TAG_SKEW),
            _ => (Phase::Shift, TAG_SHIFT + s as u64),
        };
        gc.col.set_phase(phase);
        tr.set_step(Some(s as u32));
        link.step(&gc.col, s)?;
        let sent = std::mem::replace(&mut held, hop.block);
        if let Some(holder) = hop.shift_to {
            match &regions {
                Some(regions) if sent == Some(team) => {
                    link.send(&gc.row, holder, tag, cut_for(regions, s, &mut kept));
                }
                _ if gathering => {
                    // The sources and their reactions in one message; both
                    // vectors stay for the next buffer.
                    let mut carried = std::mem::take(&mut carrier);
                    carried.clear();
                    carried.extend(exch.iter().copied().zip(gathered.iter().copied()));
                    if cut {
                        carried.push((tally(whole), Vec2::zero()));
                    }
                    exch.clear();
                    gathered.clear();
                    gathering = false;
                    link.send(&gc.row, holder, tag, carried);
                }
                _ => {
                    let mut buffer = std::mem::take(&mut exch);
                    if cut {
                        buffer.push(tally(whole));
                    }
                    link.send(&gc.row, holder, tag, buffer);
                }
            }
        }
        if let Some(needy) = hop.home_to {
            let copy = match &regions {
                Some(regions) => cut_for(regions, s, &mut kept),
                None => home.clone(),
            };
            link.send(&gc.row, needy, tag, copy);
        }
        if let Some(to) = hop.return_to {
            assert!(gathering, "a path ends where it gathered");
            gathering = false;
            let gathered = std::mem::take(&mut gathered);
            link.send(&gc.row, to, TAG_RETURN + s as u64, gathered);
        }
        match (hop.recv_from, hop.block) {
            (Some(src), _) if hop.carried => {
                let carried: Vec<(Source, Vec2)> = link.recv(&gc.row, src, tag)?;
                exch.clear();
                exch.extend(carried.iter().map(|&(source, _)| source));
                gathered.clear();
                gathered.extend(carried.iter().map(|&(_, reaction)| reaction));
                gathering = true;
                carrier = carried;
            }
            (Some(src), _) => {
                exch = link.recv(&gc.row, src, tag)?;
                gathering = false;
            }
            // The new position is off the grid: this rank idles.
            (None, None) => exch.clear(),
            // Row 0's skew, a stay, or the item after a half window's last
            // shift: the buffer already holds the block. A cut window's
            // own block never left.
            (None, Some(b)) if s == 0 || b != team || cut => {}
            // Home: the block is the team's own, and `st` holds its ids,
            // positions and masses in the broadcast's order. The buffer is
            // another team's block: grow it to this one's size exactly, not
            // by doubling.
            (None, Some(_)) => {
                exch.clear();
                exch.reserve_exact(st.len());
                exch.extend(st.iter().map(Source::from));
            }
        }
        if cut && hop.recv_from.is_some() {
            let tally = exch.pop().expect("a cut copy ends with its tally");
            whole = tally.id as usize;
            if hop.carried {
                gathered.pop();
            }
            memory.gauge_max("mem_particles_hwm", kept_home + exch.len() as u64);
        }
        // Line 7, once per window position; another team's block gathers
        // its reactions on a half window.
        if hop.update {
            let mine = hop.block == Some(team);
            let (sources, absent) = match (cut, mine) {
                (true, true) => (&own, 0),
                (true, false) => (&exch, whole - exch.len()),
                (false, _) => (&exch, 0),
            };
            let across = window.is_half() && !mine;
            if across && !gathering {
                gathered.clear();
                gathered.resize(sources.len(), Vec2::zero());
                gathering = true;
            }
            let reactions = across.then_some(&mut gathered[..]);
            gc.col.set_phase(Phase::Other);
            let mut potential = potential.as_deref_mut();
            meter.time(st.len(), sources.len(), || {
                let pe = potential.as_deref_mut();
                let answered = update(st, sources, law, domain, boundary, reactions, pe);
                answered + left_at_home(st, absent, across, law, potential)
            });
        }
        if let Some(holder) = hop.return_from {
            gc.col.set_phase(Phase::Shift);
            let returned: Vec<Vec2> = link.recv(&gc.row, holder, TAG_RETURN + s as u64)?;
            if cut {
                debug_assert_eq!(
                    returned.len(),
                    kept.len(),
                    "a return is the copy it went out as"
                );
                for (&k, &f) in kept.iter().zip(&returned) {
                    st[k].force += f;
                }
            } else {
                debug_assert_eq!(
                    returned.len(),
                    st.len(),
                    "a return is the block it went out as"
                );
                for (p, &f) in st.iter_mut().zip(&returned) {
                    p.force += f;
                }
            }
            if !gathering && gathered.capacity() < returned.capacity() {
                gathered = returned;
            }
        }
    }
    tr.set_step(None);
    if cut && spare.capacity() < exch.capacity() {
        spare = exch;
    }
    SCRATCH.set(Scratch {
        reading,
        kept,
        spare,
        carrier,
        gathered,
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{spatial_subset, spatial_subset_1d, team_grid_dims};
    use crate::grid::ProcGrid;
    use crate::window::TeamWindow;
    use nbody_comm::run_ranks;
    use nbody_physics::{init, reference, Counting, Cutoff, Particle, RepulsiveInverseSquare};

    fn serial_cutoff(n: usize, seed: u64, r_c: f64, one_d: bool) -> Vec<Particle> {
        let domain = Domain::unit();
        let law = Cutoff::new(Counting, r_c);
        let mut all = if one_d {
            init::uniform_1d(n, &domain, seed)
        } else {
            init::uniform(n, &domain, seed)
        };
        reference::accumulate_forces(&mut all, &law, &domain, Boundary::Open);
        all
    }

    fn run_1d(p: usize, c: usize, n: usize, seed: u64, r_c: f64) -> Vec<Particle> {
        let domain = Domain::unit();
        let grid = ProcGrid::new(p, c).unwrap();
        let window = TeamWindow::from_cutoff(&domain, (grid.teams(), 1), false, r_c);
        let law = Cutoff::new(Counting, r_c);
        let out = run_ranks(p, |world| {
            let gc = GridComms::new(world, grid);
            let all = init::uniform_1d(n, &domain, seed);
            let mut st = if gc.is_leader() {
                spatial_subset_1d(&all, &domain, grid.teams(), gc.team())
            } else {
                Vec::new()
            };
            ca_cutoff_forces(&gc, &window, &mut st, &law, &domain, Boundary::Open);
            if gc.is_leader() {
                st
            } else {
                Vec::new()
            }
        });
        let mut flat: Vec<Particle> = out.into_iter().flatten().collect();
        flat.sort_by_key(|p| p.id);
        flat
    }

    #[test]
    fn cutoff_1d_counting_matches_serial() {
        let n = 60;
        let r_c = 0.15;
        let want = serial_cutoff(n, 21, r_c, true);
        // Valid (p, c): the window must satisfy c <= W (teams shrink as c
        // grows, and with them m and W).
        for (p, c) in [(4, 1), (4, 2), (8, 2), (12, 3), (16, 2)] {
            let got = run_1d(p, c, n, 21, r_c);
            assert_eq!(got.len(), n, "p={p} c={c}");
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.id, w.id);
                assert_eq!(
                    g.force.x, w.force.x,
                    "p={p} c={c} id={} got {} want {}",
                    g.id, g.force.x, w.force.x
                );
            }
        }
    }

    #[test]
    fn cutoff_1d_various_radii() {
        // r_c = 1/4 of the domain, the paper's choice (§IV.D), plus extremes.
        let n = 48;
        for r_c in [0.05, 0.25, 0.6] {
            let want = serial_cutoff(n, 5, r_c, true);
            let got = run_1d(8, 2, n, 5, r_c);
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.force.x, w.force.x, "r_c={r_c} id={}", g.id);
            }
        }
    }

    #[test]
    fn cutoff_1d_physical_force_matches_serial() {
        let domain = Domain::unit();
        let n = 40;
        let r_c = 0.2;
        let law = Cutoff::new(RepulsiveInverseSquare::default(), r_c);
        let mut want = init::uniform_1d(n, &domain, 9);
        reference::accumulate_forces(&mut want, &law, &domain, Boundary::Open);

        let grid = ProcGrid::new(8, 2).unwrap();
        let window = TeamWindow::from_cutoff(&domain, (grid.teams(), 1), false, r_c);
        let out = run_ranks(8, |world| {
            let gc = GridComms::new(world, grid);
            let all = init::uniform_1d(n, &domain, 9);
            let mut st = if gc.is_leader() {
                spatial_subset_1d(&all, &domain, grid.teams(), gc.team())
            } else {
                Vec::new()
            };
            ca_cutoff_forces(&gc, &window, &mut st, &law, &domain, Boundary::Open);
            if gc.is_leader() {
                st
            } else {
                Vec::new()
            }
        });
        let mut got: Vec<Particle> = out.into_iter().flatten().collect();
        got.sort_by_key(|p| p.id);
        for (g, w) in got.iter().zip(&want) {
            let err = (g.force - w.force).norm();
            assert!(err <= 1e-12 * w.force.norm().max(1e-30), "id={}", g.id);
        }
    }

    #[test]
    fn cutoff_2d_counting_matches_serial() {
        let domain = Domain::unit();
        let n = 80;
        let r_c = 0.3;
        let want = serial_cutoff(n, 13, r_c, false);
        for (p, c) in [(4, 1), (8, 2), (16, 4), (12, 2)] {
            let grid = ProcGrid::new(p, c).unwrap();
            let (tx, ty) = team_grid_dims(grid.teams());
            let window = TeamWindow::from_cutoff(&domain, (tx, ty), false, r_c);
            let law = Cutoff::new(Counting, r_c);
            let out = run_ranks(p, |world| {
                let gc = GridComms::new(world, grid);
                let all = init::uniform(n, &domain, 13);
                let mut st = if gc.is_leader() {
                    spatial_subset(&all, &domain, (tx, ty), Boundary::Open, gc.team())
                } else {
                    Vec::new()
                };
                ca_cutoff_forces(&gc, &window, &mut st, &law, &domain, Boundary::Open);
                if gc.is_leader() {
                    st
                } else {
                    Vec::new()
                }
            });
            let mut got: Vec<Particle> = out.into_iter().flatten().collect();
            got.sort_by_key(|p| p.id);
            assert_eq!(got.len(), n, "p={p} c={c}");
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(
                    g.force.x, w.force.x,
                    "p={p} c={c} (tx={tx},ty={ty}) id={}",
                    g.id
                );
            }
        }
    }

    #[test]
    fn clustered_distribution_still_exact() {
        // Load imbalance must not affect correctness.
        let domain = Domain::unit();
        let n = 64;
        let r_c = 0.2;
        let law = Cutoff::new(Counting, r_c);
        let mut want = init::gaussian_clusters(n, &domain, 2, 0.05, 3);
        reference::accumulate_forces(&mut want, &law, &domain, Boundary::Open);

        let grid = ProcGrid::new(8, 2).unwrap();
        let window = TeamWindow::from_cutoff(&domain, (grid.teams(), 1), false, r_c);
        let out = run_ranks(8, |world| {
            let gc = GridComms::new(world, grid);
            let all = init::gaussian_clusters(n, &domain, 2, 0.05, 3);
            let mut st = if gc.is_leader() {
                spatial_subset_1d(&all, &domain, grid.teams(), gc.team())
            } else {
                Vec::new()
            };
            ca_cutoff_forces(&gc, &window, &mut st, &law, &domain, Boundary::Open);
            if gc.is_leader() {
                st
            } else {
                Vec::new()
            }
        });
        let mut got: Vec<Particle> = out.into_iter().flatten().collect();
        got.sort_by_key(|p| p.id);
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.force.x, w.force.x, "id={}", g.id);
        }
    }

    /// [`readers`] names, for each copy that leaves home, exactly the
    /// teams whose hops update from it before it comes home, leaves the
    /// grid or is replaced: every window shape, full and half, every `c`.
    #[test]
    fn the_readers_of_a_copy_are_the_teams_that_update_from_it() {
        use std::collections::BTreeSet;
        let windows = [
            TeamWindow::clipped(&[7], &[2]),
            TeamWindow::wrapping(&[7], &[2]),
            TeamWindow::wrapping(&[4], &[2]),
            TeamWindow::clipped(&[4, 3], &[1, 1]),
            TeamWindow::wrapping(&[4, 3], &[1, 1]),
            TeamWindow::wrapping(&[2, 2], &[1, 1]),
        ];
        let mut checked = 0;
        for window in windows.into_iter().flat_map(|w| [w, w.half()]) {
            let teams = window.teams();
            for c in 1..=window.len() {
                for row in 0..c {
                    let hops: Vec<Vec<Hop>> = (0..teams)
                        .map(|t| traversal(window, c, t, row).collect())
                        .collect();
                    // Per block, the step its copy in flight left home at.
                    let mut left: Vec<Option<usize>> = vec![None; teams];
                    let mut read: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); teams];
                    let mut copies = Vec::new();
                    let last = hops[0].len();
                    for s in 0..last {
                        for b in 0..teams {
                            let held = match s {
                                0 => Some(b),
                                _ => hops[b][s - 1].block,
                            };
                            let hop = hops[b][s];
                            let leaves = hop.home_to.is_some()
                                || (hop.shift_to.is_some() && held == Some(b));
                            if leaves {
                                if let Some(from) = left[b] {
                                    copies.push((b, from, std::mem::take(&mut read[b])));
                                }
                                left[b] = Some(s);
                            }
                        }
                        for (h, hops) in hops.iter().enumerate() {
                            match hops[s] {
                                Hop {
                                    update: true,
                                    block: Some(b),
                                    ..
                                } if b != h => {
                                    assert!(left[b].is_some(), "{window:?} c={c}: {b} never left");
                                    read[b].insert(h);
                                }
                                _ => {}
                            }
                        }
                    }
                    for b in 0..teams {
                        if let Some(from) = left[b] {
                            copies.push((b, from, std::mem::take(&mut read[b])));
                        }
                    }
                    for (b, from, read) in copies {
                        let named: BTreeSet<usize> = readers(window, c, b, row, from).collect();
                        assert_eq!(
                            named, read,
                            "{window:?} c={c} row {row}: block {b} from {from}"
                        );
                        checked += 1;
                    }
                }
            }
        }
        assert!(checked > 500, "{checked}");
    }

    /// The shift body keeps the indices of one cut copy (`kept`) to add a
    /// return back by: on every half window [`walked_window`] takes, a
    /// return answers the one copy with readers that left home since the
    /// last, and no copy of the block leaves while that one is out.
    #[test]
    fn a_return_answers_the_last_copy_that_left_home() {
        let mut returns = 0;
        for (n, ny) in (1..=9).flat_map(|n| (1..=3).map(move |ny| (n, ny))) {
            for (m, my) in (1..=4).flat_map(|m| (1..=2).map(move |my| (m, my))) {
                for wraps in [false, true] {
                    let full = match wraps {
                        true => TeamWindow::wrapping(&[n, ny], &[m, my]),
                        false => TeamWindow::clipped(&[n, ny], &[m, my]),
                    };
                    for c in 1..=full.len() {
                        let window = walked_window(full, c, true);
                        if !window.is_half() {
                            continue;
                        }
                        for (row, team) in (0..c).flat_map(|r| (0..n * ny).map(move |t| (r, t))) {
                            let mut held = Some(team);
                            let mut out = 0;
                            for (s, hop) in traversal(window, c, team, row).enumerate() {
                                let sent = std::mem::replace(&mut held, hop.block);
                                let leaves = hop.home_to.is_some()
                                    || (hop.shift_to.is_some() && sent == Some(team));
                                if leaves {
                                    let ctx = format!("{full:?} c={c} row {row} team {team}");
                                    assert_eq!(out, 0, "{ctx}: a copy leaves at {s}");
                                    let read = readers(window, c, team, row, s).next();
                                    out += usize::from(read.is_some());
                                }
                                if hop.return_from.is_some() {
                                    assert_eq!(out, 1, "{full:?} c={c} row {row} team {team}");
                                    (out, returns) = (0, returns + 1);
                                }
                            }
                        }
                    }
                }
            }
        }
        assert!(returns > 10_000, "{returns}");
    }

    #[test]
    fn row_steps_bounds() {
        // W=5, c=2: k=0 -> ceil((5+2-1)/2)=3, k=1 -> (5+2-2)/2 = 2 (ceil 5/2).
        assert_eq!(row_steps(5, 2, 0), 3);
        assert_eq!(row_steps(5, 2, 1), 2);
        // c=1: exactly W steps.
        assert_eq!(row_steps(7, 1, 0), 7);
        // W=1 (no cutoff neighbors): one step for row 0.
        assert_eq!(row_steps(1, 1, 0), 1);
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let w = TeamWindow::clipped(&[8], &[1]); // W = 3
        assert_eq!(
            validate_cutoff(&w, 8, 4),
            Err(CutoffError::ReplicationExceedsWindow { c: 4, window: 3 })
        );
        assert_eq!(
            validate_cutoff(&w, 6, 1),
            Err(CutoffError::TeamMismatch {
                grid_teams: 6,
                window_teams: 8
            })
        );
        assert!(validate_cutoff(&w, 8, 3).is_ok());
        let e = validate_cutoff(&w, 8, 4).unwrap_err();
        assert!(e.to_string().contains("c <= 2m"));
    }

    #[test]
    fn shift_messages_scale_as_window_over_c() {
        // S_1D = O(m/c): doubling c should roughly halve shift messages.
        let domain = Domain::unit();
        let n = 64;
        let r_c = 0.25;
        let mut msgs = Vec::new();
        for c in [1usize, 2, 4] {
            let p = 16;
            let grid = ProcGrid::new(p, c).unwrap();
            let window = TeamWindow::from_cutoff(&domain, (grid.teams(), 1), false, r_c);
            let law = Cutoff::new(Counting, r_c);
            let stats = run_ranks(p, |world| {
                let gc = GridComms::new(world, grid);
                let all = init::uniform_1d(n, &domain, 2);
                let mut st = if gc.is_leader() {
                    spatial_subset_1d(&all, &domain, grid.teams(), gc.team())
                } else {
                    Vec::new()
                };
                ca_cutoff_forces(&gc, &window, &mut st, &law, &domain, Boundary::Open);
                world.stats()
            });
            let max_shift = stats
                .iter()
                .map(|s| s.phase(Phase::Shift).messages)
                .max()
                .unwrap();
            msgs.push((c, window.len(), max_shift));
        }
        // Window shrinks with teams: compare steps bound W/c + 1 per row.
        for &(c, w, max_shift) in &msgs {
            let bound = 2 * (w / c + 2) as u64; // regular + home-route per step
            assert!(
                max_shift <= bound,
                "c={c}: {max_shift} shift msgs > bound {bound}"
            );
        }
    }

    /// A cut copy is exact only while every target is in its team's region:
    /// a block with a particle out of place stops the run naming it, unless
    /// the copy failed its digest, whose attempt is thrown away whatever it
    /// computes — a corrupt checkpoint must reach its repair, not a panic.
    #[test]
    fn a_target_out_of_its_region_is_named_unless_its_copy_is_condemned() {
        use crate::link::Deadline;
        let domain = Domain::unit();
        let r_c = 0.1;
        let grid = ProcGrid::new(4, 1).unwrap();
        let window = TeamWindow::from_cutoff(&domain, (4, 1), false, r_c);
        let law = Cutoff::new(Counting, r_c);
        let all = init::uniform_1d(40, &domain, 3);
        let blocks = |team: usize| {
            let mut st = spatial_subset_1d(&all, &domain, 4, team);
            if team == 1 {
                st[0].pos.x = 0.9;
            }
            st
        };
        let condemned = run_ranks(4, |world| {
            let gc = GridComms::new(world, grid);
            let mut st = blocks(gc.team());
            let link = Deadline {
                tag_base: 0,
                deadline: std::time::Duration::from_secs(5),
                intact: false,
            };
            let own = sources(&st);
            shift_pipeline(
                &gc,
                &window,
                &mut st,
                own,
                &law,
                &domain,
                Boundary::Open,
                &link,
                None,
            )
            .is_ok()
        });
        assert_eq!(condemned, [true; 4]);
        let vouched = std::panic::catch_unwind(|| {
            run_ranks(4, |world| {
                let gc = GridComms::new(world, grid);
                let mut st = blocks(gc.team());
                ca_cutoff_forces(&gc, &window, &mut st, &law, &domain, Boundary::Open);
            })
        });
        let said = vouched.expect_err("a stray target stops the run");
        let said = said.downcast_ref::<String>().expect("a formatted panic");
        assert!(said.contains("is not in team 1's region"), "{said}");
    }

    #[test]
    fn empty_teams_are_harmless() {
        // All particles in the left half: right-half teams own nothing.
        let domain = Domain::unit();
        let n = 30;
        let r_c = 0.1;
        let law = Cutoff::new(Counting, r_c);
        let mut all = init::uniform_1d(n, &domain, 7);
        for p in all.iter_mut() {
            p.pos.x *= 0.4; // squeeze into [0, 0.4)
        }
        let mut want = all.clone();
        reference::accumulate_forces(&mut want, &law, &domain, Boundary::Open);

        let grid = ProcGrid::new(8, 2).unwrap();
        let window = TeamWindow::from_cutoff(&domain, (grid.teams(), 1), false, r_c);
        let all_ref = &all;
        let out = run_ranks(8, |world| {
            let gc = GridComms::new(world, grid);
            let mut st = if gc.is_leader() {
                spatial_subset_1d(all_ref, &domain, grid.teams(), gc.team())
            } else {
                Vec::new()
            };
            ca_cutoff_forces(&gc, &window, &mut st, &law, &domain, Boundary::Open);
            if gc.is_leader() {
                st
            } else {
                Vec::new()
            }
        });
        let mut got: Vec<Particle> = out.into_iter().flatten().collect();
        got.sort_by_key(|p| p.id);
        assert_eq!(got.len(), n);
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.force.x, w.force.x, "id={}", g.id);
        }
    }
}
