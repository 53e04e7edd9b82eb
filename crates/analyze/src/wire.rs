//! Wire-lens rendering: the per-channel send→recv latency table of a
//! probed run's [`WireLog`](nbody_wireprobe::WireLog)-derived
//! [`WireReport`], printed by `ca-nbody analyze --wire`.

use nbody_wireprobe::WireReport;

fn us(x: f64) -> String {
    format!("{:.1}", x * 1e6)
}

/// The channel-latency table printed by `ca-nbody analyze --wire`.
pub fn render_wire(r: &WireReport) -> String {
    let mut out = format!(
        "wire probes: {} sends, {} recvs, {} matched pairs on {} channels\n",
        r.total_sends,
        r.total_recvs,
        r.matched,
        r.channels.len()
    );
    if r.unmatched_sends + r.unmatched_recvs > 0 {
        out.push_str(&format!(
            "unmatched: {} sends, {} recvs\n",
            r.unmatched_sends, r.unmatched_recvs
        ));
    }
    if r.saturated() {
        out.push_str(&format!(
            "WARNING: probe rings overflowed; {} events evicted (log incomplete)\n",
            r.dropped_probe_events
        ));
    }
    out.push('\n');
    out.push_str(&format!(
        "{:<14} {:<10} {:>6} {:>8} {:>10} {:>9} {:>9} {:>9} {:>9} {:>9} {:>7}\n",
        "channel",
        "phase",
        "tag",
        "sends",
        "bytes",
        "min us",
        "mean us",
        "p50 us",
        "p90 us",
        "max us",
        "depth"
    ));
    for ch in &r.channels {
        let lat = &ch.latency;
        let name = format!("{} -> {}", ch.src, ch.dst);
        out.push_str(&format!(
            "{:<14} {:<10} {:>6} {:>8} {:>10} {:>9} {:>9} {:>9} {:>9} {:>9} {:>7}\n",
            name,
            ch.phase.label(),
            ch.tag,
            ch.sends,
            ch.bytes,
            us(lat.min_s),
            us(lat.mean_s),
            us(lat.p50_s),
            us(lat.p90_s),
            us(lat.max_s),
            ch.max_in_flight
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbody_trace::Phase;
    use nbody_wireprobe::{match_events, MsgEvent, ProbeKind, RankWireLog, WireLog};

    fn ev(kind: ProbeKind, src: u32, dst: u32, t: f64) -> MsgEvent {
        MsgEvent {
            kind,
            src,
            dst,
            comm: 0,
            tag: 5,
            phase: Phase::Shift,
            count: 4,
            bytes: 224,
            t_secs: t,
        }
    }

    fn sample_log() -> WireLog {
        WireLog::from_ranks(vec![
            RankWireLog {
                rank: 0,
                events: vec![ev(ProbeKind::Send, 0, 1, 0.001)],
                dropped_events: 0,
            },
            RankWireLog {
                rank: 1,
                events: vec![ev(ProbeKind::Recv, 0, 1, 0.003)],
                dropped_events: 0,
            },
        ])
    }

    #[test]
    fn wire_table_lists_channels_with_latencies() {
        let text = render_wire(&match_events(&sample_log()));
        assert!(text.contains("1 matched pairs"), "{text}");
        assert!(text.contains("0 -> 1"), "{text}");
        assert!(text.contains("shift"), "{text}");
        assert!(text.contains("2000.0"), "2 ms latency in us: {text}");
        assert!(!text.contains("WARNING"), "{text}");
    }

    #[test]
    fn wire_table_warns_on_saturation() {
        let log = WireLog::from_ranks(vec![RankWireLog {
            rank: 0,
            events: vec![ev(ProbeKind::Send, 0, 1, 0.001)],
            dropped_events: 7,
        }]);
        let text = render_wire(&match_events(&log));
        assert!(text.contains("7 events evicted"), "{text}");
    }
}
