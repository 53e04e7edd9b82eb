//! The plain-data result of a metered execution.

use nbody_trace::Phase;

use crate::registry::RankMetrics;
#[cfg(test)]
use crate::registry::Sample;

/// All ranks' drained metrics for one execution.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// One entry per rank, indexed by rank.
    pub ranks: Vec<RankMetrics>,
}

impl MetricsSnapshot {
    /// Assemble a snapshot from per-rank shard drains; a `None` shard
    /// (rank ran with metrics disabled) becomes an empty entry.
    pub fn from_shards(shards: Vec<Option<RankMetrics>>) -> MetricsSnapshot {
        let ranks = shards
            .into_iter()
            .enumerate()
            .map(|(r, m)| {
                m.unwrap_or(RankMetrics {
                    rank: r as u32,
                    ..RankMetrics::default()
                })
            })
            .collect();
        MetricsSnapshot { ranks }
    }

    /// Whether any rank recorded anything.
    pub fn is_empty(&self) -> bool {
        self.ranks
            .iter()
            .all(|r| r.counters.is_empty() && r.gauges.is_empty() && r.histograms.is_empty())
    }

    /// Aggregate across ranks: counters sum, gauges take the max,
    /// histograms merge bucket-wise. The result's `rank` field is 0.
    pub fn merged(&self) -> RankMetrics {
        let mut out = RankMetrics::default();
        for rank in &self.ranks {
            merge_rank(&mut out, rank);
        }
        out.normalize();
        out
    }

    /// Sum over ranks of one counter.
    pub fn sum_counter(&self, name: &str, phase: Option<Phase>) -> u64 {
        self.ranks.iter().map(|r| r.counter(name, phase)).sum()
    }

    /// Max over ranks of one gauge.
    pub fn max_gauge(&self, name: &str, phase: Option<Phase>) -> u64 {
        self.ranks
            .iter()
            .map(|r| r.gauge(name, phase))
            .max()
            .unwrap_or(0)
    }
}

/// Merge `src`'s samples into `dst`: counters add (saturating — an
/// accumulator absorbing many sweeps pins at `u64::MAX` rather than
/// wrapping back to small, plausible-looking values), gauges take the
/// max, histograms merge bucket-wise. Does not normalize.
fn merge_rank(dst: &mut RankMetrics, src: &RankMetrics) {
    for s in &src.counters {
        match dst
            .counters
            .iter_mut()
            .find(|o| o.name == s.name && o.phase == s.phase && o.peer == s.peer)
        {
            Some(o) => o.value = o.value.saturating_add(s.value),
            None => dst.counters.push(s.clone()),
        }
    }
    for s in &src.gauges {
        match dst
            .gauges
            .iter_mut()
            .find(|o| o.name == s.name && o.phase == s.phase && o.peer == s.peer)
        {
            Some(o) => o.value = o.value.max(s.value),
            None => dst.gauges.push(s.clone()),
        }
    }
    for s in &src.histograms {
        match dst
            .histograms
            .iter_mut()
            .find(|o| o.name == s.name && o.phase == s.phase && o.peer == s.peer)
        {
            Some(o) => o.value.merge(&s.value),
            None => dst.histograms.push(s.clone()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Histogram;

    fn sample(name: &str, phase: Option<Phase>, value: u64) -> Sample<u64> {
        Sample {
            name: name.to_string(),
            phase,
            peer: None,
            value,
        }
    }

    fn snap() -> MetricsSnapshot {
        let mut h0 = Histogram::default();
        h0.record(100);
        let mut h1 = Histogram::default();
        h1.record(5000);
        h1.record(5000);
        MetricsSnapshot {
            ranks: vec![
                RankMetrics {
                    rank: 0,
                    counters: vec![sample("msgs", Some(Phase::Shift), 4)],
                    gauges: vec![sample("hwm", None, 100)],
                    histograms: vec![Sample {
                        name: "sz".to_string(),
                        phase: Some(Phase::Shift),
                        peer: None,
                        value: h0,
                    }],
                },
                RankMetrics {
                    rank: 1,
                    counters: vec![sample("msgs", Some(Phase::Shift), 6)],
                    gauges: vec![sample("hwm", None, 80)],
                    histograms: vec![Sample {
                        name: "sz".to_string(),
                        phase: Some(Phase::Shift),
                        peer: None,
                        value: h1,
                    }],
                },
            ],
        }
    }

    #[test]
    fn merged_sums_counters_maxes_gauges_merges_histograms() {
        let m = snap().merged();
        assert_eq!(m.counter("msgs", Some(Phase::Shift)), 10);
        assert_eq!(m.gauge("hwm", None), 100);
        let h = m.histogram("sz", Some(Phase::Shift)).unwrap();
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum, 10100);
    }

    #[test]
    fn cross_rank_reductions() {
        let s = snap();
        assert_eq!(s.sum_counter("msgs", Some(Phase::Shift)), 10);
        assert_eq!(s.max_gauge("hwm", None), 100);
    }

    #[test]
    fn merged_saturates_at_u64_boundaries() {
        let ranks = |values: &[u64]| MetricsSnapshot {
            ranks: (0..values.len())
                .map(|r| RankMetrics {
                    rank: r as u32,
                    counters: vec![sample("total", None, values[r])],
                    gauges: vec![sample("hwm", None, values[r])],
                    ..RankMetrics::default()
                })
                .collect(),
        };
        // MAX + 1 pins at MAX instead of wrapping to 0; (MAX - 1) + 1 lands
        // exactly on the boundary; MAX + MAX stays pinned, and the gauge
        // max is unaffected.
        for values in [
            &[u64::MAX, 1][..],
            &[u64::MAX - 1, 1],
            &[u64::MAX, u64::MAX],
            &[u64::MAX, 7],
        ] {
            let m = ranks(values).merged();
            assert_eq!(m.counter("total", None), u64::MAX, "{values:?}");
            assert_eq!(m.gauge("hwm", None), values[0], "{values:?}");
        }
    }

    #[test]
    fn from_shards_fills_gaps() {
        let s = MetricsSnapshot::from_shards(vec![
            None,
            Some(RankMetrics {
                rank: 1,
                counters: vec![sample("x", None, 1)],
                ..RankMetrics::default()
            }),
        ]);
        assert_eq!(s.ranks.len(), 2);
        assert_eq!(s.ranks[0].rank, 0);
        assert!(s.ranks[0].counters.is_empty());
        assert_eq!(s.ranks[1].counter("x", None), 1);
        assert!(!s.is_empty());
        assert!(MetricsSnapshot::default().is_empty());
    }
}
