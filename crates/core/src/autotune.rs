//! Replication-factor autotuning.
//!
//! The paper leaves "open the question of how to select the replication
//! factor c, which … can be autotuned at runtime by trying multiple
//! factors" (§V). [`autotune_all_pairs`] answers it from the model: it
//! replays each candidate's schedule through the discrete-event machine
//! model and picks the smallest makespan — deterministic and free of
//! timing noise.

use nbody_netsim::{simulate, Machine};

use crate::grid::ProcGrid;
use crate::schedule::AllPairsParams;

/// One candidate's predicted cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    /// Replication factor.
    pub c: usize,
    /// Predicted execution time per timestep (seconds).
    pub predicted_secs: f64,
}

/// Outcome of a tuning sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct Autotune {
    /// The winning replication factor.
    pub best_c: usize,
    /// Every candidate with its predicted time, in increasing `c`.
    pub candidates: Vec<Candidate>,
}

impl Autotune {
    fn from_candidates(candidates: Vec<Candidate>) -> Self {
        assert!(!candidates.is_empty(), "no valid replication factors");
        let best_c = candidates
            .iter()
            .min_by(|a, b| a.predicted_secs.total_cmp(&b.predicted_secs))
            .unwrap()
            .c;
        Autotune { best_c, candidates }
    }

    /// Predicted time of the winner.
    pub fn best_time(&self) -> f64 {
        self.candidates
            .iter()
            .find(|k| k.c == self.best_c)
            .unwrap()
            .predicted_secs
    }
}

/// Sweep every valid all-pairs replication factor for `(p, n)` on
/// `machine` using the simulated schedule, and pick the fastest.
pub fn autotune_all_pairs(machine: &Machine, p: usize, n: usize) -> Autotune {
    let candidates = ProcGrid::valid_all_pairs_factors(p)
        .into_iter()
        .map(|c| {
            let params = AllPairsParams::new(p, c, n);
            let rep = simulate(machine, p, |r| params.program(r));
            Candidate {
                c,
                predicted_secs: rep.makespan,
            }
        })
        .collect();
    Autotune::from_candidates(candidates)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbody_netsim::hopper;

    #[test]
    fn all_pairs_tuning_prefers_replication_at_scale() {
        // Communication-dominated regime: small n, sizeable p. c = 1 (pure
        // particle decomposition) should never win.
        let tune = autotune_all_pairs(&hopper(), 256, 1024);
        assert!(tune.best_c > 1, "{tune:?}");
        assert_eq!(
            tune.candidates.iter().map(|k| k.c).collect::<Vec<_>>(),
            vec![1, 2, 4, 8, 16]
        );
        // Times are all positive and the winner is minimal.
        for k in &tune.candidates {
            assert!(k.predicted_secs > 0.0);
            assert!(k.predicted_secs >= tune.best_time() - 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "no valid replication factors")]
    fn empty_candidates_rejected() {
        Autotune::from_candidates(Vec::new());
    }
}
