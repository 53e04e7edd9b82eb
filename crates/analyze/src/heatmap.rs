//! Traffic and wait-time heat-maps on the `p/c × c` processor grid.
//!
//! World rank `r` sits at row `r / (p/c)` (the replication dimension) and
//! column `r % (p/c)` (the team), matching `ProcGrid` in the core crate.
//! Send/recv bytes come from the phase-labelled `comm_send_bytes` /
//! `comm_recv_bytes` counters summed over phases; wait seconds come from
//! the trace's blocked spans. Laid out on the grid, a hot row betrays a
//! skewed shift schedule and a hot column a team with too many particles.

use nbody_metrics::MetricsSnapshot;
use nbody_trace::{ExecutionTrace, SpanKind};

/// Per-rank traffic and wait totals with grid geometry attached.
#[derive(Debug, Clone, PartialEq)]
pub struct GridHeatmap {
    /// Teams (columns), `p/c`.
    pub teams: usize,
    /// Replication factor (rows).
    pub c: usize,
    /// Bytes sent by each rank (point-to-point), indexed by world rank.
    pub send_bytes: Vec<u64>,
    /// Bytes received by each rank (point-to-point), indexed by world
    /// rank.
    pub recv_bytes: Vec<u64>,
    /// Seconds each rank spent blocked in receives, indexed by world
    /// rank.
    pub wait_secs: Vec<f64>,
}

impl GridHeatmap {
    /// Grid cell of a world rank: `(row, team)`.
    pub fn cell(&self, rank: usize) -> (usize, usize) {
        (rank / self.teams, rank % self.teams)
    }

    /// World rank at a grid cell.
    pub fn rank_at(&self, row: usize, team: usize) -> usize {
        row * self.teams + team
    }
}

/// Build the heat-map for a `p/c × c` arrangement of the trace's ranks.
/// Errors when `p` is not divisible by `c`; an empty metrics snapshot
/// zeroes the traffic planes but keeps the wait plane.
pub fn grid_heatmap(
    trace: &ExecutionTrace,
    metrics: &MetricsSnapshot,
    c: usize,
) -> Result<GridHeatmap, String> {
    let p = trace.ranks;
    if c == 0 || p == 0 || !p.is_multiple_of(c) {
        return Err(format!("cannot arrange {p} ranks on a grid with c={c}"));
    }
    let mut send_bytes = vec![0u64; p];
    let mut recv_bytes = vec![0u64; p];
    for r in metrics.ranks.iter().filter(|r| (r.rank as usize) < p) {
        for s in &r.counters {
            match s.name.as_str() {
                "comm_send_bytes" => send_bytes[r.rank as usize] += s.value,
                "comm_recv_bytes" => recv_bytes[r.rank as usize] += s.value,
                _ => {}
            }
        }
    }
    let mut wait_secs = vec![0.0f64; p];
    for s in &trace.spans {
        if matches!(s.kind, SpanKind::Blocked { .. }) {
            if let Some(w) = wait_secs.get_mut(s.rank as usize) {
                *w += s.secs();
            }
        }
    }
    Ok(GridHeatmap {
        teams: p / c,
        c,
        send_bytes,
        recv_bytes,
        wait_secs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::two_rank_trace;
    use nbody_metrics::{RankMetrics, Sample};
    use nbody_trace::Phase;

    fn metrics_with_traffic() -> MetricsSnapshot {
        let counter = |name: &str, phase, value| Sample {
            name: name.to_string(),
            phase: Some(phase),
            peer: None,
            value,
        };
        MetricsSnapshot {
            ranks: vec![
                RankMetrics {
                    rank: 0,
                    counters: vec![
                        counter("comm_send_bytes", Phase::Shift, 100),
                        counter("comm_send_bytes", Phase::Skew, 40),
                        counter("comm_recv_bytes", Phase::Shift, 90),
                        counter("comm_send_messages", Phase::Shift, 5),
                    ],
                    ..RankMetrics::default()
                },
                RankMetrics {
                    rank: 1,
                    counters: vec![counter("comm_recv_bytes", Phase::Shift, 50)],
                    ..RankMetrics::default()
                },
            ],
        }
    }

    #[test]
    fn sums_traffic_over_phases_and_waits_from_trace() {
        let t = two_rank_trace();
        let m = metrics_with_traffic();
        let h = grid_heatmap(&t, &m, 1).unwrap();
        assert_eq!(h.teams, 2);
        assert_eq!(h.send_bytes, vec![140, 0]);
        assert_eq!(h.recv_bytes, vec![90, 50]);
        assert!((h.wait_secs[0] - 0.3).abs() < 1e-12);
        assert_eq!(h.wait_secs[1], 0.0);
        assert_eq!(h.cell(1), (0, 1));
    }

    #[test]
    fn grid_geometry_follows_proc_grid_convention() {
        let t = two_rank_trace();
        let h = grid_heatmap(&t, &MetricsSnapshot::default(), 2).unwrap();
        // p = 2, c = 2: one team, two rows; rank 1 is row 1 of team 0.
        assert_eq!(h.teams, 1);
        assert_eq!(h.cell(1), (1, 0));
        assert_eq!(h.rank_at(1, 0), 1);
        assert_eq!(h.send_bytes, vec![0, 0]);
    }

    #[test]
    fn indivisible_grid_is_an_error() {
        let t = two_rank_trace();
        assert!(grid_heatmap(&t, &MetricsSnapshot::default(), 3).is_err());
        assert!(grid_heatmap(&t, &MetricsSnapshot::default(), 0).is_err());
    }
}
