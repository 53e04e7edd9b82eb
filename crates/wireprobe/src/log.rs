//! Drained wire logs: per-rank event lists and the run-level bundle.

use nbody_trace::Json;

use crate::event::MsgEvent;

/// Schema tag written into every serialized wire log.
pub const WIRE_SCHEMA: &str = "nbody-wireprobe/v1";

/// One rank's drained probe ring.
#[derive(Debug, Clone, PartialEq)]
pub struct RankWireLog {
    /// World rank the events belong to.
    pub rank: u32,
    /// Probe events, oldest first.
    pub events: Vec<MsgEvent>,
    /// Events evicted from the bounded ring before the drain.
    pub dropped_events: u64,
}

/// The whole run's wire log: every rank's probe events.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WireLog {
    /// Per-rank logs, ordered by rank.
    pub ranks: Vec<RankWireLog>,
}

impl WireLog {
    /// Assemble a run log from drained per-rank recorders.
    pub fn from_ranks(mut ranks: Vec<RankWireLog>) -> WireLog {
        ranks.sort_by_key(|r| r.rank);
        WireLog { ranks }
    }

    /// Total number of retained probe events across ranks.
    pub fn total_events(&self) -> usize {
        self.ranks.iter().map(|r| r.events.len()).sum()
    }

    /// Total number of events evicted from saturated rings.
    pub fn total_dropped(&self) -> u64 {
        self.ranks.iter().map(|r| r.dropped_events).sum()
    }

    /// Serialize to a single JSON document.
    pub fn to_json(&self) -> String {
        let ranks = self
            .ranks
            .iter()
            .map(|r| {
                Json::Obj(vec![
                    ("rank".into(), Json::Num(r.rank as f64)),
                    ("dropped_events".into(), Json::Num(r.dropped_events as f64)),
                    (
                        "events".into(),
                        Json::Arr(r.events.iter().map(MsgEvent::to_json).collect()),
                    ),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("schema".into(), Json::Str(WIRE_SCHEMA.into())),
            ("ranks".into(), Json::Arr(ranks)),
        ])
        .to_string()
    }

    /// Parse a document produced by [`to_json`](WireLog::to_json).
    pub fn parse(src: &str) -> Result<WireLog, String> {
        let v = Json::parse(src)?;
        let schema = v
            .get("schema")
            .and_then(Json::as_str)
            .ok_or("wire log missing 'schema'")?;
        if schema != WIRE_SCHEMA {
            return Err(format!("unsupported wire log schema '{schema}'"));
        }
        let mut ranks = Vec::new();
        for r in v
            .get("ranks")
            .and_then(Json::as_array)
            .ok_or("wire log missing 'ranks'")?
        {
            let mut events = Vec::new();
            for e in r
                .get("events")
                .and_then(Json::as_array)
                .ok_or("rank entry missing 'events'")?
            {
                events.push(MsgEvent::from_json(e)?);
            }
            ranks.push(RankWireLog {
                rank: r
                    .get("rank")
                    .and_then(Json::as_f64)
                    .ok_or("rank entry missing 'rank'")? as u32,
                events,
                dropped_events: r
                    .get("dropped_events")
                    .and_then(Json::as_f64)
                    .ok_or("rank entry missing 'dropped_events'")?
                    as u64,
            });
        }
        Ok(WireLog { ranks })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ProbeKind;
    use nbody_trace::Phase;

    fn event(kind: ProbeKind, tag: u64) -> MsgEvent {
        MsgEvent {
            kind,
            src: 0,
            dst: 1,
            comm: 0,
            tag,
            phase: Phase::Shift,
            count: 8,
            bytes: 448,
            t_secs: 0.5,
        }
    }

    #[test]
    fn json_round_trips_and_sorts_ranks() {
        let log = WireLog::from_ranks(vec![
            RankWireLog {
                rank: 1,
                events: vec![event(ProbeKind::Recv, 3)],
                dropped_events: 2,
            },
            RankWireLog {
                rank: 0,
                events: vec![event(ProbeKind::Send, 3), event(ProbeKind::Recv, 4)],
                dropped_events: 0,
            },
        ]);
        assert_eq!(log.ranks[0].rank, 0, "ranks are sorted");
        assert_eq!(log.total_events(), 3);
        assert_eq!(log.total_dropped(), 2);
        let back = WireLog::parse(&log.to_json()).unwrap();
        assert_eq!(back, log);
    }

    #[test]
    fn parse_rejects_wrong_schema_and_garbage() {
        assert!(WireLog::parse("{}").is_err());
        assert!(WireLog::parse("not json").is_err());
        let other = r#"{"schema":"something/v9","ranks":[]}"#;
        assert!(WireLog::parse(other).is_err());
    }
}
