//! Snapshot serialization: the snapshot's one encoding is JSON.
//!
//! It round-trips losslessly: `to_json` → [`Json::parse`] → `from_json`
//! reconstructs the original [`MetricsSnapshot`] exactly.

use nbody_trace::{Json, Phase};

use crate::registry::{Histogram, RankMetrics, Sample, NUM_BUCKETS};
use crate::snapshot::MetricsSnapshot;

fn phase_to_json(phase: Option<Phase>) -> Json {
    match phase {
        Some(p) => Json::Str(p.label().to_string()),
        None => Json::Null,
    }
}

fn phase_from_json(v: Option<&Json>) -> Result<Option<Phase>, String> {
    match v {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Str(s)) => Phase::from_label(s)
            .map(Some)
            .ok_or_else(|| format!("unknown phase label {s:?}")),
        Some(other) => Err(format!("phase must be a string or null, got {other}")),
    }
}

/// A sample's name, phase and peer; `peer` is written only where it is
/// counted, so a snapshot without channels reads as it always did.
fn labels<T>(s: &Sample<T>) -> Vec<(String, Json)> {
    let mut out = vec![
        ("name".into(), Json::Str(s.name.clone())),
        ("phase".into(), phase_to_json(s.phase)),
    ];
    if let Some(peer) = s.peer {
        out.push(("peer".into(), Json::Num(peer as f64)));
    }
    out
}

fn peer_from_json(v: Option<&Json>) -> Result<Option<u32>, String> {
    match v {
        None | Some(Json::Null) => Ok(None),
        Some(peer) => match peer.as_f64() {
            Some(x) if x >= 0.0 => Ok(Some(x as u32)),
            _ => Err(format!("peer must be a rank or null, got {peer}")),
        },
    }
}

fn u64_field(obj: &Json, key: &str) -> Result<u64, String> {
    obj.get(key)
        .and_then(Json::as_f64)
        .map(|v| v as u64)
        .ok_or_else(|| format!("missing numeric field {key:?}"))
}

impl MetricsSnapshot {
    /// Serialize to a JSON document.
    pub fn to_json(&self) -> Json {
        let ranks = self
            .ranks
            .iter()
            .map(|r| {
                let scalar = |s: &Sample<u64>| {
                    let mut fields = labels(s);
                    fields.push(("value".into(), Json::Num(s.value as f64)));
                    Json::Obj(fields)
                };
                let hist = |s: &Sample<Histogram>| {
                    let counts = s.value.counts.iter().map(|&c| Json::Num(c as f64));
                    let mut fields = labels(s);
                    fields.push(("counts".into(), Json::Arr(counts.collect())));
                    fields.push(("sum".into(), Json::Num(s.value.sum as f64)));
                    Json::Obj(fields)
                };
                Json::Obj(vec![
                    ("rank".into(), Json::Num(r.rank as f64)),
                    (
                        "counters".into(),
                        Json::Arr(r.counters.iter().map(scalar).collect()),
                    ),
                    (
                        "gauges".into(),
                        Json::Arr(r.gauges.iter().map(scalar).collect()),
                    ),
                    (
                        "histograms".into(),
                        Json::Arr(r.histograms.iter().map(hist).collect()),
                    ),
                ])
            })
            .collect();
        Json::Obj(vec![("ranks".into(), Json::Arr(ranks))])
    }

    /// Reconstruct a snapshot from [`MetricsSnapshot::to_json`] output.
    pub fn from_json(doc: &Json) -> Result<MetricsSnapshot, String> {
        let ranks = doc
            .get("ranks")
            .and_then(Json::as_array)
            .ok_or("missing \"ranks\" array")?;
        let mut out = Vec::with_capacity(ranks.len());
        for entry in ranks {
            let mut rm = RankMetrics {
                rank: u64_field(entry, "rank")? as u32,
                ..RankMetrics::default()
            };
            for (key, dst) in [("counters", &mut rm.counters), ("gauges", &mut rm.gauges)] {
                let arr = entry
                    .get(key)
                    .and_then(Json::as_array)
                    .ok_or_else(|| format!("missing {key:?} array"))?;
                for s in arr {
                    dst.push(Sample {
                        name: s
                            .get("name")
                            .and_then(Json::as_str)
                            .ok_or("sample missing \"name\"")?
                            .to_string(),
                        phase: phase_from_json(s.get("phase"))?,
                        peer: peer_from_json(s.get("peer"))?,
                        value: u64_field(s, "value")?,
                    });
                }
            }
            let hists = entry
                .get("histograms")
                .and_then(Json::as_array)
                .ok_or("missing \"histograms\" array")?;
            for s in hists {
                let counts_json = s
                    .get("counts")
                    .and_then(Json::as_array)
                    .ok_or("histogram missing \"counts\"")?;
                if counts_json.len() != NUM_BUCKETS {
                    return Err(format!(
                        "histogram has {} buckets, expected {NUM_BUCKETS}",
                        counts_json.len()
                    ));
                }
                let mut value = Histogram {
                    sum: u64_field(s, "sum")?,
                    ..Histogram::default()
                };
                for (i, c) in counts_json.iter().enumerate() {
                    value.counts[i] = c.as_f64().ok_or("non-numeric bucket count")? as u64;
                }
                rm.histograms.push(Sample {
                    name: s
                        .get("name")
                        .and_then(Json::as_str)
                        .ok_or("histogram missing \"name\"")?
                        .to_string(),
                    phase: phase_from_json(s.get("phase"))?,
                    peer: peer_from_json(s.get("peer"))?,
                    value,
                });
            }
            rm.normalize();
            out.push(rm);
        }
        Ok(MetricsSnapshot { ranks: out })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example() -> MetricsSnapshot {
        let mut h = Histogram::default();
        h.record(52);
        h.record(5200);
        h.record(5200);
        let mut r0 = RankMetrics {
            rank: 0,
            counters: vec![
                Sample {
                    name: "comm_send_messages".into(),
                    phase: Some(Phase::Shift),
                    peer: Some(1),
                    value: 2,
                },
                Sample {
                    name: "comm_send_messages".into(),
                    phase: Some(Phase::Shift),
                    peer: Some(0),
                    value: 1,
                },
                Sample {
                    name: "comm_send_bytes".into(),
                    phase: Some(Phase::Shift),
                    peer: None,
                    value: 10452,
                },
            ],
            gauges: vec![Sample {
                name: "mem_particles_hwm".into(),
                phase: None,
                peer: None,
                value: 2048,
            }],
            histograms: vec![Sample {
                name: "comm_message_size_bytes".into(),
                phase: Some(Phase::Shift),
                peer: None,
                value: h,
            }],
        };
        r0.normalize();
        // Rank 1 recorded nothing: exercises sparse round-tripping.
        let r1 = RankMetrics {
            rank: 1,
            ..RankMetrics::default()
        };
        MetricsSnapshot {
            ranks: vec![r0, r1],
        }
    }

    #[test]
    fn json_round_trip_is_exact() {
        let snap = example();
        let text = snap.to_json().to_string();
        let back = MetricsSnapshot::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(MetricsSnapshot::from_json(&Json::parse("{}").unwrap()).is_err());
        let bad_peer = r#"{"ranks":[{"rank":0,"counters":[{"name":"x","phase":null,"peer":-1,"value":1}],"gauges":[],"histograms":[]}]}"#;
        let err = MetricsSnapshot::from_json(&Json::parse(bad_peer).unwrap()).unwrap_err();
        assert!(err.contains("peer"), "{err}");
    }
}
