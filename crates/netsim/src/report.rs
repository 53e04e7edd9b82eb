//! Simulation output: per-rank and aggregated phase breakdowns.

use nbody_comm::{Phase, ALL_PHASES, PHASE_COUNT};

/// Time buckets for one rank, in seconds of virtual time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RankBreakdown {
    /// Time spent in force evaluation.
    pub compute: f64,
    /// Communication time per [`Phase`] index (send overheads plus time
    /// blocked waiting for messages/collectives).
    pub comm: [f64; PHASE_COUNT],
}

impl RankBreakdown {
    /// Total time accounted to this rank.
    pub fn total(&self) -> f64 {
        self.compute + self.comm.iter().sum::<f64>()
    }

    /// Communication time in one phase.
    pub fn phase(&self, phase: Phase) -> f64 {
        self.comm[phase.index()]
    }

    fn add(&mut self, other: &RankBreakdown) {
        self.compute += other.compute;
        for (a, b) in self.comm.iter_mut().zip(&other.comm) {
            *a += b;
        }
    }

    fn scale(&mut self, s: f64) {
        self.compute *= s;
        for a in self.comm.iter_mut() {
            *a *= s;
        }
    }
}

/// The result of simulating one schedule.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Virtual time at which the last rank finished.
    pub makespan: f64,
    /// Per-rank time breakdowns.
    pub per_rank: Vec<RankBreakdown>,
}

impl SimReport {
    /// Mean breakdown over ranks: the stacked-bar decomposition used for
    /// the paper-style figures (bars sum to the average busy+blocked time).
    pub fn mean(&self) -> RankBreakdown {
        let mut acc = RankBreakdown::default();
        for r in &self.per_rank {
            acc.add(r);
        }
        acc.scale(1.0 / self.per_rank.len().max(1) as f64);
        acc
    }

    /// Pretty one-line summary (for harness logs).
    pub fn summary(&self) -> String {
        let m = self.mean();
        let mut s = format!("makespan {:.6}s | compute {:.6}s", self.makespan, m.compute);
        for ph in ALL_PHASES {
            let v = m.phase(ph);
            if v > 0.0 {
                s.push_str(&format!(" | {} {:.6}s", ph.label(), v));
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_aggregates() {
        let mut a = RankBreakdown {
            compute: 1.0,
            ..Default::default()
        };
        a.comm[Phase::Shift.index()] = 0.5;
        let mut b = RankBreakdown {
            compute: 3.0,
            ..Default::default()
        };
        b.comm[Phase::Reduce.index()] = 1.5;

        assert_eq!(a.total(), 1.5);

        let rep = SimReport {
            makespan: 4.5,
            per_rank: vec![a, b],
        };
        let mean = rep.mean();
        assert_eq!(mean.compute, 2.0);
        assert_eq!(mean.phase(Phase::Shift), 0.25);
        assert_eq!(mean.phase(Phase::Reduce), 0.75);
        assert!(rep.summary().contains("makespan"));
    }
}
