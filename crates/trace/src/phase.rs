//! The execution phases of the paper's algorithms.
//!
//! The paper's figures break execution time into *computation*,
//! *communication (shift)*, *communication (reduce)*, and — for the cutoff
//! algorithms — *communication (re-assign)* (Figs. 2 and 6). Algorithms tag
//! the current phase on their communicator; statistics, simulated
//! schedules, and measured wall-clock spans are all attributed to these
//! buckets, so the three views can be compared phase-by-phase.

use std::fmt;

/// Execution phase of the current operation, mirroring the stacked-bar
/// categories of the paper's figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Phase {
    /// Initial team broadcast of the local subset (Algorithm 1/2, line 2).
    Broadcast,
    /// Row-wise skew by the row index (line 4).
    Skew,
    /// The main shift-and-update loop (lines 5–8).
    Shift,
    /// Final sum-reduction of force updates within each team (line 9).
    Reduce,
    /// Spatial-decomposition maintenance between timesteps (§IV.D).
    Reassign,
    /// Fault detection, agreement, and replica-resync traffic. Not part of
    /// the paper's cost model — kept separate so the audit can price recovery
    /// overhead independently of the optimality-bound phases.
    Recovery,
    /// Anything else (setup, local compute, verification, ...).
    Other,
}

/// Number of phases; the length of every per-phase array.
pub const PHASE_COUNT: usize = 7;

/// All phases, in figure order.
pub const ALL_PHASES: [Phase; PHASE_COUNT] = [
    Phase::Broadcast,
    Phase::Skew,
    Phase::Shift,
    Phase::Reduce,
    Phase::Reassign,
    Phase::Recovery,
    Phase::Other,
];

impl Phase {
    /// Index into per-phase arrays.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Phase::Broadcast => 0,
            Phase::Skew => 1,
            Phase::Shift => 2,
            Phase::Reduce => 3,
            Phase::Reassign => 4,
            Phase::Recovery => 5,
            Phase::Other => 6,
        }
    }

    /// Human-readable label matching the paper's legends.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Broadcast => "broadcast",
            Phase::Skew => "skew",
            Phase::Shift => "shift",
            Phase::Reduce => "reduce",
            Phase::Reassign => "re-assign",
            Phase::Recovery => "recovery",
            Phase::Other => "other",
        }
    }

    /// Inverse of [`Phase::label`], used when parsing exported traces.
    pub fn from_label(label: &str) -> Option<Phase> {
        ALL_PHASES.into_iter().find(|p| p.label() == label)
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_labels_match_paper_legends() {
        assert_eq!(Phase::Shift.label(), "shift");
        assert_eq!(Phase::Reassign.label(), "re-assign");
        assert_eq!(format!("{}", Phase::Reduce), "reduce");
        // index() is a bijection onto 0..PHASE_COUNT
        let mut seen = [false; PHASE_COUNT];
        for p in ALL_PHASES {
            assert!(!seen[p.index()]);
            seen[p.index()] = true;
        }
    }

    #[test]
    fn from_label_roundtrips() {
        for p in ALL_PHASES {
            assert_eq!(Phase::from_label(p.label()), Some(p));
        }
        assert_eq!(Phase::from_label("nonsense"), None);
    }
}
