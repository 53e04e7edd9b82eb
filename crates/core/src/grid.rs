//! The `p/c × c` processor grid of Algorithm 1 and 2.
//!
//! The paper arranges `p` processors into `p/c` columns ("teams") and `c`
//! rows (the replication dimension). Team leaders (row 0) own the particle
//! subsets between timesteps; broadcasts and reductions run down columns,
//! skews and shifts run along rows.

use std::fmt;

use nbody_comm::Communicator;

/// Errors from invalid grid parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GridError {
    /// `c` must be at least 1.
    ZeroReplication,
    /// `c` must divide `p` so rows are complete.
    ReplicationDoesNotDivide {
        /// Number of processors.
        p: usize,
        /// Replication factor.
        c: usize,
    },
    /// For the all-pairs algorithm, the shift loop runs `p/c²` full steps, so
    /// `c` must also divide the team count `p/c` (equivalently `c² | p`).
    StepsNotIntegral {
        /// Number of processors.
        p: usize,
        /// Replication factor.
        c: usize,
    },
}

impl fmt::Display for GridError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GridError::ZeroReplication => write!(f, "replication factor c must be >= 1"),
            GridError::ReplicationDoesNotDivide { p, c } => {
                write!(f, "replication factor c={c} must divide p={p}")
            }
            GridError::StepsNotIntegral { p, c } => write!(
                f,
                "all-pairs grid needs c^2 | p (p={p}, c={c} gives fractional p/c^2)"
            ),
        }
    }
}

impl std::error::Error for GridError {}

/// Geometry of the `p/c × c` processor grid.
///
/// World rank `r` maps to row `r / teams` and team (column) `r % teams`,
/// so row 0 — the team leaders — are world ranks `0..teams`, matching the
/// convention that leaders hold the particles between steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcGrid {
    p: usize,
    c: usize,
}

impl ProcGrid {
    /// Grid for the all-pairs algorithm: requires `c | p` **and** `c² | p`
    /// (so the shift loop runs exactly `p/c²` steps).
    pub fn new_all_pairs(p: usize, c: usize) -> Result<Self, GridError> {
        let g = Self::new(p, c)?;
        if g.teams() % c != 0 {
            return Err(GridError::StepsNotIntegral { p, c });
        }
        Ok(g)
    }

    /// Grid for the cutoff algorithms: requires only `c | p`; the window
    /// traversal handles partial last steps.
    pub fn new(p: usize, c: usize) -> Result<Self, GridError> {
        if c == 0 {
            return Err(GridError::ZeroReplication);
        }
        if p == 0 || !p.is_multiple_of(c) {
            return Err(GridError::ReplicationDoesNotDivide { p, c });
        }
        Ok(ProcGrid { p, c })
    }

    /// Total processors `p`.
    #[inline]
    pub fn p(&self) -> usize {
        self.p
    }

    /// Replication factor `c`.
    #[inline]
    pub fn c(&self) -> usize {
        self.c
    }

    /// Number of teams (columns), `p/c`.
    #[inline]
    pub fn teams(&self) -> usize {
        self.p / self.c
    }

    /// Team (column) index of a world rank.
    #[inline]
    pub fn team_of(&self, world_rank: usize) -> usize {
        world_rank % self.teams()
    }

    /// Row index of a world rank.
    #[inline]
    pub fn row_of(&self, world_rank: usize) -> usize {
        world_rank / self.teams()
    }

    /// World rank at `(team, row)`.
    #[inline]
    pub fn rank_at(&self, team: usize, row: usize) -> usize {
        debug_assert!(team < self.teams() && row < self.c);
        row * self.teams() + team
    }

    /// Valid replication factors for the all-pairs algorithm on `p`
    /// processors: every `c` with `c² | p`, i.e. `c = 1 .. √p` in the paper's
    /// notation (only divisibility-compatible values).
    pub fn valid_all_pairs_factors(p: usize) -> Vec<usize> {
        (1..=p)
            .take_while(|c| c * c <= p)
            .filter(|c| p.is_multiple_of(c * c))
            .collect()
    }
}

/// The communicators of one rank's position in the grid: its team column
/// (broadcast/reduce) and its row (skew/shift).
pub struct GridComms<C: Communicator> {
    /// Grid geometry.
    pub grid: ProcGrid,
    /// Column communicator: size `c`, rank = row index, rank 0 = leader.
    pub col: C,
    /// Row communicator: size `teams`, rank = team index.
    pub row: C,
}

impl<C: Communicator> GridComms<C> {
    /// Split a world communicator of size `grid.p()` into column and row
    /// communicators. Every world rank must call it. Each rank computes
    /// every rank's place from the grid, so a transport that overrides
    /// [`Communicator::split_by`] sends nothing to build the grid.
    pub fn new(world: &C, grid: ProcGrid) -> Self {
        assert_eq!(
            world.size(),
            grid.p(),
            "world size {} != grid p {}",
            world.size(),
            grid.p()
        );
        let col = world.split_by(|r| (grid.team_of(r), grid.row_of(r)));
        let row = world.split_by(|r| (grid.row_of(r), grid.team_of(r)));
        GridComms { grid, col, row }
    }

    /// This rank's team (column) index.
    #[inline]
    pub fn team(&self) -> usize {
        self.row.rank()
    }

    /// This rank's row index (position along the replication dimension).
    #[inline]
    pub fn row_index(&self) -> usize {
        self.col.rank()
    }

    /// Whether this rank is its team's leader (row 0). Leaders own particle
    /// subsets between timesteps.
    #[inline]
    pub fn is_leader(&self) -> bool {
        self.col.rank() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbody_comm::run_ranks;

    #[test]
    fn valid_grid_geometry() {
        let g = ProcGrid::new_all_pairs(16, 2).unwrap();
        assert_eq!(g.p(), 16);
        assert_eq!(g.c(), 2);
        assert_eq!(g.teams(), 8);
    }

    #[test]
    fn extreme_factors_degenerate_correctly() {
        // c = 1: particle decomposition; one row, p teams.
        let g = ProcGrid::new_all_pairs(8, 1).unwrap();
        assert_eq!(g.teams(), 8);
        // c = sqrt(p): force decomposition; sqrt(p) teams.
        let g = ProcGrid::new_all_pairs(16, 4).unwrap();
        assert_eq!(g.teams(), 4);
    }

    #[test]
    fn invalid_factors_rejected() {
        assert_eq!(ProcGrid::new(8, 0), Err(GridError::ZeroReplication));
        assert_eq!(
            ProcGrid::new(8, 3),
            Err(GridError::ReplicationDoesNotDivide { p: 8, c: 3 })
        );
        // 8 % 2 == 0 but 8 / 2 = 4 teams, 4 % 2 == 0 — fine:
        assert!(ProcGrid::new_all_pairs(8, 2).is_ok());
        // 32: c=4 -> teams=8, 8%4 == 0 ok; c=8 -> 8%8... c=8 doesn't divide
        // into teams=4: rejected for all-pairs.
        assert_eq!(
            ProcGrid::new_all_pairs(32, 8),
            Err(GridError::StepsNotIntegral { p: 32, c: 8 })
        );
        assert!(ProcGrid::new(32, 8).is_ok(), "cutoff grid allows it");
    }

    #[test]
    fn rank_mapping_roundtrips() {
        let g = ProcGrid::new(12, 3).unwrap();
        for r in 0..12 {
            let (t, row) = (g.team_of(r), g.row_of(r));
            assert!(t < g.teams() && row < g.c());
            assert_eq!(g.rank_at(t, row), r);
        }
        // Leaders are world ranks 0..teams.
        for t in 0..g.teams() {
            assert_eq!(g.rank_at(t, 0), t);
        }
    }

    #[test]
    fn valid_all_pairs_factors_enumeration() {
        assert_eq!(ProcGrid::valid_all_pairs_factors(16), vec![1, 2, 4]);
        assert_eq!(ProcGrid::valid_all_pairs_factors(64), vec![1, 2, 4, 8]);
        assert_eq!(ProcGrid::valid_all_pairs_factors(12), vec![1, 2]);
        assert_eq!(ProcGrid::valid_all_pairs_factors(1), vec![1]);
    }

    #[test]
    fn grid_comms_positions() {
        let grid = ProcGrid::new(8, 2).unwrap();
        let out = run_ranks(8, |world| {
            let gc = GridComms::new(world, grid);
            (gc.team(), gc.row_index(), gc.is_leader())
        });
        for (r, &(team, row, leader)) in out.iter().enumerate() {
            assert_eq!(team, r % 4);
            assert_eq!(row, r / 4);
            assert_eq!(leader, r < 4);
        }
    }

    #[test]
    fn building_the_grid_sends_nothing() {
        // Every rank knows every rank's team and row, so the column and row
        // communicators are formed without an allgather.
        let grid = ProcGrid::new(4, 2).unwrap();
        let out = run_ranks(4, |world| {
            let gc = GridComms::new(world, grid);
            (gc.col.size(), gc.row.size(), world.stats())
        });
        for (r, (col, row, stats)) in out.into_iter().enumerate() {
            assert_eq!((col, row), (2, 2), "rank {r}");
            assert_eq!(stats, nbody_comm::CommStats::new(), "rank {r}");
        }
    }

    #[test]
    fn grid_error_messages_are_informative() {
        let e = ProcGrid::new_all_pairs(32, 8).unwrap_err();
        assert!(e.to_string().contains("c^2 | p"));
        let e = ProcGrid::new(8, 3).unwrap_err();
        assert!(e.to_string().contains("must divide"));
    }
}
