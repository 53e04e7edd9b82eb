//! Send→recv matching: per-channel latency, in-flight gauges, drop
//! accounting, and the causal message log.

use std::collections::BTreeMap;

use crate::event::{MsgEvent, ProbeKind};
use crate::log::WireLog;

/// Summary statistics over matched send→recv latencies on one channel.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LatencySummary {
    /// Number of matched pairs the summary covers.
    pub count: u64,
    /// Fastest observed delivery, seconds.
    pub min_s: f64,
    /// Mean delivery time, seconds.
    pub mean_s: f64,
    /// Median delivery time, seconds.
    pub p50_s: f64,
    /// 90th-percentile delivery time, seconds.
    pub p90_s: f64,
    /// Slowest observed delivery, seconds.
    pub max_s: f64,
}

impl LatencySummary {
    fn from_sorted(latencies: &[f64]) -> LatencySummary {
        if latencies.is_empty() {
            return LatencySummary::default();
        }
        let n = latencies.len();
        let pct = |q: f64| latencies[(((n - 1) as f64) * q).round() as usize];
        LatencySummary {
            count: n as u64,
            min_s: latencies[0],
            mean_s: latencies.iter().sum::<f64>() / n as f64,
            p50_s: pct(0.5),
            p90_s: pct(0.9),
            max_s: latencies[n - 1],
        }
    }
}

/// Matched traffic statistics for one channel `(comm, src, dst, tag)`.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelStats {
    /// Communicator the channel lives on (0 = world).
    pub comm: u64,
    /// Sender's global rank.
    pub src: u32,
    /// Receiver's global rank.
    pub dst: u32,
    /// Message tag.
    pub tag: u64,
    /// Pipeline phase of the channel's traffic (from its first event).
    pub phase: nbody_trace::Phase,
    /// Sends observed on the channel.
    pub sends: u64,
    /// Total payload bytes sent.
    pub bytes: u64,
    /// Send→recv pairs joined in FIFO order.
    pub matched: u64,
    /// Sends with no matching recv (lost, dropped, or unprobed receiver).
    pub unmatched_sends: u64,
    /// Recvs with no matching send (unprobed sender or evicted ring entry).
    pub unmatched_recvs: u64,
    /// Latency distribution over matched pairs.
    pub latency: LatencySummary,
    /// Peak number of messages simultaneously in flight on the channel.
    pub max_in_flight: u64,
}

/// The matcher's run-level output.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WireReport {
    /// Per-channel statistics, ordered by `(comm, src, dst, tag)`.
    pub channels: Vec<ChannelStats>,
    /// Total send events observed.
    pub total_sends: u64,
    /// Total recv events observed.
    pub total_recvs: u64,
    /// Total matched send→recv pairs.
    pub matched: u64,
    /// Sends that never matched a recv.
    pub unmatched_sends: u64,
    /// Recvs that never matched a send.
    pub unmatched_recvs: u64,
    /// Probe events evicted from saturated rings (incomplete log).
    pub dropped_probe_events: u64,
}

impl WireReport {
    /// Whether the underlying log lost events to ring overflow.
    pub fn saturated(&self) -> bool {
        self.dropped_probe_events > 0
    }
}

/// Join send and recv probe events into per-channel latency statistics.
///
/// Transports guarantee FIFO delivery per `(comm, src, dst)` pair, so the
/// i-th send on a channel pairs with the i-th recv. Unmatched events are
/// counted, never silently discarded; with a saturated ring the counts are
/// lower bounds.
pub fn match_events(log: &WireLog) -> WireReport {
    type Key = (u64, u32, u32, u64);
    #[derive(Default)]
    struct Lane {
        sends: Vec<MsgEvent>,
        recvs: Vec<MsgEvent>,
    }
    let mut lanes: BTreeMap<Key, Lane> = BTreeMap::new();
    for r in &log.ranks {
        for e in &r.events {
            let lane = lanes.entry((e.comm, e.src, e.dst, e.tag)).or_default();
            match e.kind {
                ProbeKind::Send => lane.sends.push(e.clone()),
                ProbeKind::Recv => lane.recvs.push(e.clone()),
            }
        }
    }

    let mut report = WireReport {
        dropped_probe_events: log.total_dropped(),
        ..WireReport::default()
    };
    for ((comm, src, dst, tag), mut lane) in lanes {
        lane.sends.sort_by(|a, b| a.t_secs.total_cmp(&b.t_secs));
        lane.recvs.sort_by(|a, b| a.t_secs.total_cmp(&b.t_secs));
        let matched_n = lane.sends.len().min(lane.recvs.len());
        let mut latencies: Vec<f64> = (0..matched_n)
            .map(|i| (lane.recvs[i].t_secs - lane.sends[i].t_secs).max(0.0))
            .collect();
        latencies.sort_by(f64::total_cmp);

        // Peak queue depth: +1 at each send, -1 at each matched recv,
        // swept in time order (sends first on ties).
        let mut edges: Vec<(f64, i64)> = lane.sends.iter().map(|e| (e.t_secs, 1)).collect();
        edges.extend(lane.recvs.iter().take(matched_n).map(|e| (e.t_secs, -1)));
        edges.sort_by(|a, b| a.0.total_cmp(&b.0).then(b.1.cmp(&a.1)));
        let (mut depth, mut max_depth) = (0i64, 0i64);
        for (_, d) in edges {
            depth += d;
            max_depth = max_depth.max(depth);
        }

        let phase = lane
            .sends
            .first()
            .or(lane.recvs.first())
            .map(|e| e.phase)
            .unwrap_or(nbody_trace::Phase::Other);
        let stats = ChannelStats {
            comm,
            src,
            dst,
            tag,
            phase,
            sends: lane.sends.len() as u64,
            bytes: lane.sends.iter().map(|e| e.bytes).sum(),
            matched: matched_n as u64,
            unmatched_sends: (lane.sends.len() - matched_n) as u64,
            unmatched_recvs: (lane.recvs.len() - matched_n) as u64,
            latency: LatencySummary::from_sorted(&latencies),
            max_in_flight: max_depth.max(0) as u64,
        };
        report.total_sends += stats.sends;
        report.total_recvs += lane.recvs.len() as u64;
        report.matched += stats.matched;
        report.unmatched_sends += stats.unmatched_sends;
        report.unmatched_recvs += stats.unmatched_recvs;
        report.channels.push(stats);
    }
    report
}

/// All probe events across ranks merged into one causally-ordered log
/// (ascending shared-epoch timestamps).
pub fn causal_log(log: &WireLog) -> Vec<MsgEvent> {
    let mut all: Vec<MsgEvent> = log
        .ranks
        .iter()
        .flat_map(|r| r.events.iter().cloned())
        .collect();
    all.sort_by(|a, b| a.t_secs.total_cmp(&b.t_secs));
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::RankWireLog;
    use nbody_trace::Phase;

    fn ev(kind: ProbeKind, src: u32, dst: u32, tag: u64, t: f64) -> MsgEvent {
        MsgEvent {
            kind,
            src,
            dst,
            comm: 0,
            tag,
            phase: Phase::Shift,
            count: 4,
            bytes: 224,
            t_secs: t,
        }
    }

    #[test]
    fn fifo_pairs_yield_latencies_and_depth() {
        // Two back-to-back sends on one channel, received later: the
        // channel briefly holds 2 messages in flight.
        let log = WireLog::from_ranks(vec![
            RankWireLog {
                rank: 0,
                events: vec![
                    ev(ProbeKind::Send, 0, 1, 7, 0.010),
                    ev(ProbeKind::Send, 0, 1, 7, 0.020),
                ],
                dropped_events: 0,
            },
            RankWireLog {
                rank: 1,
                events: vec![
                    ev(ProbeKind::Recv, 0, 1, 7, 0.030),
                    ev(ProbeKind::Recv, 0, 1, 7, 0.050),
                ],
                dropped_events: 0,
            },
        ]);
        let report = match_events(&log);
        assert_eq!(report.channels.len(), 1);
        let ch = &report.channels[0];
        assert_eq!((ch.src, ch.dst, ch.tag), (0, 1, 7));
        assert_eq!(ch.matched, 2);
        assert_eq!(ch.unmatched_sends, 0);
        assert!((ch.latency.min_s - 0.020).abs() < 1e-9);
        assert!((ch.latency.max_s - 0.030).abs() < 1e-9);
        assert_eq!(ch.max_in_flight, 2);
        assert_eq!(report.matched, 2);
        assert!(!report.saturated());
    }

    #[test]
    fn unmatched_sends_and_recvs_are_counted() {
        let log = WireLog::from_ranks(vec![RankWireLog {
            rank: 0,
            events: vec![
                ev(ProbeKind::Send, 0, 1, 1, 0.0),
                ev(ProbeKind::Recv, 1, 0, 2, 0.1),
            ],
            dropped_events: 3,
        }]);
        let report = match_events(&log);
        assert_eq!(report.unmatched_sends, 1);
        assert_eq!(report.unmatched_recvs, 1);
        assert_eq!(report.matched, 0);
        assert_eq!(report.dropped_probe_events, 3);
        assert!(report.saturated());
    }

    #[test]
    fn causal_log_merges_ranks_in_time_order() {
        let log = WireLog::from_ranks(vec![
            RankWireLog {
                rank: 1,
                events: vec![ev(ProbeKind::Recv, 0, 1, 1, 0.5)],
                dropped_events: 0,
            },
            RankWireLog {
                rank: 0,
                events: vec![ev(ProbeKind::Send, 0, 1, 1, 0.1)],
                dropped_events: 0,
            },
        ]);
        let merged = causal_log(&log);
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0].kind, ProbeKind::Send);
        assert_eq!(merged[1].kind, ProbeKind::Recv);
    }
}
