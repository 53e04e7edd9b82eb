//! Per-phase load-imbalance factors.
//!
//! For each communication phase (and the compute bucket
//! [`Phase::Other`]), the imbalance factor is `max / mean` of the
//! per-rank seconds inside that phase's windows. A perfectly balanced
//! phase scores 1.0; a phase where one rank does all the work on `p`
//! ranks scores `p`. This is the paper's load-balance story reduced to
//! one number per phase.

use nbody_trace::{ExecutionTrace, Phase, ALL_PHASES};

/// Load imbalance of one phase across ranks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseImbalance {
    /// The phase.
    pub phase: Phase,
    /// Mean per-rank seconds in the phase.
    pub mean_secs: f64,
    /// Maximum per-rank seconds in the phase.
    pub max_secs: f64,
    /// The rank holding the maximum.
    pub max_rank: u32,
    /// `max / mean`; 1.0 when the phase recorded no time.
    pub factor: f64,
}

/// Imbalance per phase, in figure order, for phases that recorded time.
pub fn phase_imbalance(trace: &ExecutionTrace) -> Vec<PhaseImbalance> {
    let per_rank = trace.phase_secs_per_rank();
    let ranks = per_rank.len();
    let mut out = Vec::new();
    for p in ALL_PHASES {
        let i = p.index();
        let mut max_secs = 0.0f64;
        let mut max_rank = 0u32;
        let mut sum = 0.0f64;
        for (rank, row) in per_rank.iter().enumerate() {
            sum += row[i];
            if row[i] > max_secs {
                max_secs = row[i];
                max_rank = rank as u32;
            }
        }
        if max_secs <= 0.0 {
            continue;
        }
        let mean_secs = sum / ranks as f64;
        let factor = if mean_secs > 0.0 {
            max_secs / mean_secs
        } else {
            1.0
        };
        out.push(PhaseImbalance {
            phase: p,
            mean_secs,
            max_secs,
            max_rank,
            factor,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::two_rank_trace;
    use nbody_trace::{Span, SpanKind};

    #[test]
    fn factors_are_max_over_mean() {
        let imb = phase_imbalance(&two_rank_trace());
        // Other: rank 0 has 0.5 + 0.7 = 1.2, rank 1 has 0.9 + 0.8 = 1.7.
        let other = imb.iter().find(|i| i.phase == Phase::Other).unwrap();
        assert!((other.mean_secs - 1.45).abs() < 1e-12);
        assert!((other.max_secs - 1.7).abs() < 1e-12);
        assert_eq!(other.max_rank, 1);
        assert!((other.factor - 1.7 / 1.45).abs() < 1e-12);
        // Shift: rank 0 has 0.8, rank 1 has 0.2.
        let shift = imb.iter().find(|i| i.phase == Phase::Shift).unwrap();
        assert_eq!(shift.max_rank, 0);
        assert!((shift.factor - 0.8 / 0.5).abs() < 1e-12);
        // Phases with no windows are not reported.
        assert!(imb.iter().all(|i| i.phase != Phase::Broadcast));
    }

    #[test]
    fn single_rank_is_perfectly_balanced() {
        let t = ExecutionTrace::from_rank_buffers(vec![vec![Span {
            rank: 0,
            kind: SpanKind::Phase(Phase::Other),
            start: 0.0,
            end: 1.0,
        }]]);
        let imb = phase_imbalance(&t);
        assert_eq!(imb.len(), 1);
        assert!((imb[0].factor - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_reports_nothing() {
        assert!(phase_imbalance(&ExecutionTrace::default()).is_empty());
    }
}
