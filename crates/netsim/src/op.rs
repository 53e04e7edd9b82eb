//! The operation vocabulary of simulated rank programs.
//!
//! A distributed algorithm is described to the simulator as one lazy
//! [`Op`] stream per rank — its *communication schedule*. The schedule
//! generators in `ca-nbody` emit exactly the operations the executable
//! algorithms perform (verified against instrumented runs), so simulated
//! costs reflect the true communication pattern at full paper scale.

use nbody_comm::Phase;

/// A compact description of a collective's participant set: ranks
/// `base, base + stride, …` (`count` of them). Column (team) collectives
/// have `stride = teams`; row collectives have `stride = 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TeamSpec {
    /// First participating rank.
    pub base: usize,
    /// Distance between consecutive participants.
    pub stride: usize,
    /// Number of participants.
    pub count: usize,
}

impl TeamSpec {
    /// The participant set `{base + i*stride}` for `i < count`.
    pub fn new(base: usize, stride: usize, count: usize) -> Self {
        assert!(count > 0, "empty team");
        assert!(
            stride > 0 || count == 1,
            "zero stride with multiple members"
        );
        TeamSpec {
            base,
            stride,
            count,
        }
    }

    /// Single-rank team (collectives on it are free).
    pub fn solo(rank: usize) -> Self {
        TeamSpec::new(rank, 1, 1)
    }

    /// Whether `rank` belongs to the team.
    pub fn contains(&self, rank: usize) -> bool {
        if rank < self.base {
            return false;
        }
        let d = rank - self.base;
        if self.count == 1 {
            return d == 0;
        }
        d.is_multiple_of(self.stride) && d / self.stride < self.count
    }

    /// Iterate the member ranks.
    pub fn members(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.count).map(move |i| self.base + i * self.stride)
    }
}

/// Which network services a collective (Fig. 2c/2d's `tree` vs `no-tree`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CollNet {
    /// Software tree over the torus (the default everywhere).
    #[default]
    Torus,
    /// The dedicated hardware collective network (BlueGene/P's tree);
    /// falls back to the torus on machines without one.
    HwTree,
}

/// One step of a rank's program.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// Evaluate `interactions` pairwise forces locally.
    Compute {
        /// Number of force evaluations.
        interactions: u64,
    },
    /// Buffered point-to-point send.
    Send {
        /// Destination rank.
        to: usize,
        /// Message payload in bytes.
        bytes: u64,
        /// Phase the cost is attributed to.
        phase: Phase,
    },
    /// Blocking receive of the next message from `from`.
    Recv {
        /// Source rank.
        from: usize,
        /// Phase the blocked time is attributed to.
        phase: Phase,
    },
    /// Broadcast of `bytes` within `team` (all members must emit it).
    Bcast {
        /// Participants.
        team: TeamSpec,
        /// Broadcast payload in bytes.
        bytes: u64,
        /// Phase attribution.
        phase: Phase,
        /// Network used.
        net: CollNet,
    },
    /// Element-wise reduction of `bytes` within `team`.
    Reduce {
        /// Participants.
        team: TeamSpec,
        /// Reduced payload in bytes.
        bytes: u64,
        /// Phase attribution.
        phase: Phase,
        /// Network used.
        net: CollNet,
    },
    /// Allgather: every member contributes `bytes_per_member` and receives
    /// the concatenation. Used by the naive (`tree`) baseline.
    Allgather {
        /// Participants.
        team: TeamSpec,
        /// Contribution per member, in bytes.
        bytes_per_member: u64,
        /// Phase attribution.
        phase: Phase,
        /// Network used.
        net: CollNet,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn teamspec_membership() {
        let t = TeamSpec::new(3, 4, 3); // {3, 7, 11}
        assert!(t.contains(3) && t.contains(7) && t.contains(11));
        assert!(!t.contains(4) && !t.contains(15) && !t.contains(0));
        assert_eq!(t.members().collect::<Vec<_>>(), vec![3, 7, 11]);
    }

    #[test]
    fn solo_team() {
        let t = TeamSpec::solo(5);
        assert_eq!(t.members().collect::<Vec<_>>(), vec![5]);
        assert!(t.contains(5));
        assert!(!t.contains(6));
    }

    #[test]
    #[should_panic(expected = "empty team")]
    fn empty_team_rejected() {
        TeamSpec::new(0, 1, 0);
    }
}
