//! Straggler attribution across ranks.
//!
//! Two independent lines of evidence identify a straggler: how often a
//! rank terminates the per-step critical path (it was the one everyone
//! waited for), and how much blocked time *other* ranks accumulated with
//! this rank tagged as the late sender. A rank can also be a victim —
//! its own blocked seconds say how much it waited on others. When a
//! metrics snapshot is available its `compute_*` counters add a third
//! line: the rank's achieved kernel GFLOP/s, separating "slow because it
//! computes slowly" from "slow because it waits".

use std::collections::BTreeMap;

use nbody_metrics::MetricsSnapshot;
use nbody_trace::{ExecutionTrace, SpanKind};

use crate::critical::StepCritical;

/// Straggler evidence for one rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Straggler {
    /// World rank.
    pub rank: u32,
    /// Timesteps in which this rank ended the critical path.
    pub times_critical: usize,
    /// Blocked seconds other ranks spent waiting on this rank (summed
    /// over all blocked spans naming it as the peer).
    pub caused_wait_secs: f64,
    /// Blocked seconds this rank itself spent waiting.
    pub own_blocked_secs: f64,
    /// Achieved kernel GFLOP/s from the rank's `compute_flops` /
    /// `compute_nanos` counters; `0.0` when the snapshot has none.
    pub compute_gflops: f64,
}

/// Every rank's straggler evidence, worst first (most steps critical,
/// then most wait caused).
pub fn rank_stragglers(
    trace: &ExecutionTrace,
    steps: &[StepCritical],
    metrics: &MetricsSnapshot,
) -> Vec<Straggler> {
    let mut caused: BTreeMap<u32, f64> = BTreeMap::new();
    let mut own: BTreeMap<u32, f64> = BTreeMap::new();
    for s in &trace.spans {
        if let SpanKind::Blocked { peer, .. } = &s.kind {
            *own.entry(s.rank).or_insert(0.0) += s.secs();
            if let Some(p) = peer {
                *caused.entry(*p).or_insert(0.0) += s.secs();
            }
        }
    }
    let mut times: BTreeMap<u32, usize> = BTreeMap::new();
    for s in steps {
        *times.entry(s.critical_rank).or_insert(0) += 1;
    }
    let mut gflops: BTreeMap<u32, f64> = BTreeMap::new();
    for rm in &metrics.ranks {
        let flops = rm.counter("compute_flops", None);
        let nanos = rm.counter("compute_nanos", None);
        if nanos > 0 {
            gflops.insert(rm.rank, flops as f64 / nanos as f64);
        }
    }
    let mut out: Vec<Straggler> = (0..trace.ranks as u32)
        .map(|rank| Straggler {
            rank,
            times_critical: times.get(&rank).copied().unwrap_or(0),
            caused_wait_secs: caused.get(&rank).copied().unwrap_or(0.0),
            own_blocked_secs: own.get(&rank).copied().unwrap_or(0.0),
            compute_gflops: gflops.get(&rank).copied().unwrap_or(0.0),
        })
        .collect();
    out.sort_by(|a, b| {
        b.times_critical
            .cmp(&a.times_critical)
            .then(b.caused_wait_secs.total_cmp(&a.caused_wait_secs))
            .then(a.rank.cmp(&b.rank))
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::critical::critical_path;
    use crate::testutil::two_rank_trace;
    use nbody_metrics::MetricsRecorder;

    #[test]
    fn ranks_by_critical_steps_then_caused_wait() {
        let t = two_rank_trace();
        let steps = critical_path(&t);
        let s = rank_stragglers(&t, &steps, &MetricsSnapshot::default());
        assert_eq!(s.len(), 2);
        // Each rank is critical once; rank 1 caused 0.3 s of waiting on
        // rank 0, so it sorts first.
        assert_eq!(s[0].rank, 1);
        assert_eq!(s[0].times_critical, 1);
        assert!((s[0].caused_wait_secs - 0.3).abs() < 1e-12);
        assert_eq!(s[0].own_blocked_secs, 0.0);
        assert_eq!(s[0].compute_gflops, 0.0);
        assert_eq!(s[1].rank, 0);
        assert!((s[1].own_blocked_secs - 0.3).abs() < 1e-12);
        assert_eq!(s[1].caused_wait_secs, 0.0);
    }

    #[test]
    fn compute_gflops_joins_from_metrics() {
        let t = two_rank_trace();
        let steps = critical_path(&t);
        let shards = (0..2)
            .map(|rank| {
                let rec = MetricsRecorder::for_rank(rank);
                // Rank 0 does 100 FLOPs in 50 ns (2 GFLOP/s); rank 1 has
                // flops but no time counter, which must stay 0, not NaN.
                rec.counter("compute_flops", None).add(100);
                if rank == 0 {
                    rec.counter("compute_nanos", None).add(50);
                }
                rec.finish()
            })
            .collect();
        let snap = MetricsSnapshot::from_shards(shards);
        let s = rank_stragglers(&t, &steps, &snap);
        let by_rank = |r: u32| s.iter().find(|x| x.rank == r).unwrap();
        assert!((by_rank(0).compute_gflops - 2.0).abs() < 1e-12);
        assert_eq!(by_rank(1).compute_gflops, 0.0);
    }

    #[test]
    fn empty_trace_has_no_stragglers() {
        let t = ExecutionTrace::default();
        assert!(rank_stragglers(&t, &[], &MetricsSnapshot::default()).is_empty());
    }
}
