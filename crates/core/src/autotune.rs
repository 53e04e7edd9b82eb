//! Replication-factor autotuning.
//!
//! The paper leaves "open the question of how to select the replication
//! factor c, which … can be autotuned at runtime by trying multiple
//! factors" (§V). This module implements both suggested flavors:
//!
//! * **Model-guided** ([`autotune_all_pairs`], [`autotune_cutoff_1d`]):
//!   replay each candidate's schedule through the discrete-event machine
//!   model and pick the smallest makespan — deterministic and free of
//!   timing noise.
//! * **Measurement-guided** ([`pick_fastest`]): time a few real steps per
//!   candidate (on whatever runtime the caller closes over) and keep the
//!   winner, exactly the paper's "trying multiple factors" loop.

use nbody_netsim::{simulate, Machine};
use nbody_physics::{Boundary, Domain};

use crate::grid::ProcGrid;
use crate::schedule::{id_block_sizes, AllPairsParams};
use crate::sim::{Layout, Method};

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

/// Sweep replication factors for the 1D cutoff algorithm with cutoff
/// radius `rc_fraction` of the domain length, assuming a near-uniform
/// particle distribution.
pub fn autotune_cutoff_1d(machine: &Machine, p: usize, n: usize, rc_fraction: f64) -> Autotune {
    assert!(rc_fraction > 0.0 && rc_fraction <= 1.0);
    let domain = Domain::unit();
    let candidates: Vec<Candidate> = (1..=p)
        .filter(|c| p.is_multiple_of(*c))
        .filter_map(|c| {
            let method = Method::Ca1dCutoff { c };
            let layout = Layout::new(method, p, &domain, Boundary::Open, Some(rc_fraction)).ok()?;
            let params = layout.schedule(id_block_sizes(n, layout.grid.teams()));
            let rep = simulate(machine, p, |r| params.program(r));
            Some(Candidate {
                c,
                predicted_secs: rep.makespan,
            })
        })
        .collect();
    Autotune::from_candidates(candidates)
}

/// Measurement-guided tuning: run `trials` invocations of `step` per
/// candidate and return the candidate with the smallest mean wall time.
/// `step` receives the candidate value; callers close over their runtime.
pub fn pick_fastest<T: Copy>(candidates: &[T], trials: usize, mut step: impl FnMut(T)) -> T {
    assert!(!candidates.is_empty() && trials > 0);
    let mut best = candidates[0];
    let mut best_time = f64::INFINITY;
    for &cand in candidates {
        let start = std::time::Instant::now();
        for _ in 0..trials {
            step(cand);
        }
        let elapsed = start.elapsed().as_secs_f64() / trials as f64;
        if elapsed < best_time {
            best_time = elapsed;
            best = cand;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbody_netsim::{hopper, intrepid};

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
    fn cutoff_tuning_respects_window_constraint() {
        let tune = autotune_cutoff_1d(&intrepid(), 64, 4096, 0.25);
        // Candidates must all divide p and fit in their windows.
        for k in &tune.candidates {
            assert_eq!(64 % k.c, 0);
        }
        assert!(tune.candidates.len() >= 2);
        assert!(tune.best_time() > 0.0);
    }

    #[test]
    fn pick_fastest_selects_cheapest_step() {
        // Steps that sleep proportionally to the candidate value, with
        // margins wide enough to survive a loaded test machine.
        let best = pick_fastest(&[60u64, 5, 25], 1, |c| {
            std::thread::sleep(std::time::Duration::from_millis(c));
        });
        assert_eq!(best, 5);
    }

    #[test]
    #[should_panic(expected = "no valid replication factors")]
    fn empty_candidates_rejected() {
        Autotune::from_candidates(Vec::new());
    }
}
