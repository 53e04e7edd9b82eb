//! Snapshot serialization: JSON and Prometheus text exposition.
//!
//! Both formats round-trip losslessly: `to_json` → [`Json::parse`] →
//! `from_json` and `to_prometheus` → `parse_prometheus` reconstruct the
//! original [`MetricsSnapshot`] exactly. The Prometheus exposition follows
//! the text format conventions (one `# TYPE` line per metric family,
//! `rank`/`phase` labels, histograms as cumulative `_bucket` series plus
//! `_sum`/`_count`), so the files can also be scraped by stock tooling.

use nbody_trace::{Json, Phase};

use crate::registry::{Histogram, RankMetrics, Sample, BUCKET_BOUNDS, NUM_BUCKETS};
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
                    Json::Obj(vec![
                        ("name".into(), Json::Str(s.name.clone())),
                        ("phase".into(), phase_to_json(s.phase)),
                        ("value".into(), Json::Num(s.value as f64)),
                    ])
                };
                let hist = |s: &Sample<Histogram>| {
                    Json::Obj(vec![
                        ("name".into(), Json::Str(s.name.clone())),
                        ("phase".into(), phase_to_json(s.phase)),
                        (
                            "counts".into(),
                            Json::Arr(
                                s.value
                                    .counts
                                    .iter()
                                    .map(|&c| Json::Num(c as f64))
                                    .collect(),
                            ),
                        ),
                        ("sum".into(), Json::Num(s.value.sum as f64)),
                    ])
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
                    value,
                });
            }
            rm.normalize();
            out.push(rm);
        }
        Ok(MetricsSnapshot { ranks: out })
    }

    /// Serialize to the Prometheus text exposition format. The synthetic
    /// `nbody_ranks` gauge records the rank count so sparse snapshots
    /// (ranks with nothing to report) survive the round-trip.
    pub fn to_prometheus(&self) -> String {
        use std::collections::BTreeMap;
        let mut kinds: BTreeMap<&str, &str> = BTreeMap::new();
        for r in &self.ranks {
            for s in &r.counters {
                kinds.insert(&s.name, "counter");
            }
            for s in &r.gauges {
                kinds.insert(&s.name, "gauge");
            }
            for s in &r.histograms {
                kinds.insert(&s.name, "histogram");
            }
        }
        let labels = |rank: u32, phase: Option<Phase>, extra: Option<(&str, String)>| {
            let mut parts = vec![format!("rank=\"{rank}\"")];
            if let Some(p) = phase {
                parts.push(format!("phase=\"{}\"", p.label()));
            }
            if let Some((k, v)) = extra {
                parts.push(format!("{k}=\"{v}\""));
            }
            format!("{{{}}}", parts.join(","))
        };
        let mut out = String::new();
        out.push_str("# TYPE nbody_ranks gauge\n");
        out.push_str(&format!("nbody_ranks {}\n", self.ranks.len()));
        for (name, kind) in &kinds {
            out.push_str(&format!("# TYPE {name} {kind}\n"));
            for r in &self.ranks {
                match *kind {
                    "counter" => {
                        for s in r.counters.iter().filter(|s| s.name == *name) {
                            out.push_str(&format!(
                                "{name}{} {}\n",
                                labels(r.rank, s.phase, None),
                                s.value
                            ));
                        }
                    }
                    "gauge" => {
                        for s in r.gauges.iter().filter(|s| s.name == *name) {
                            out.push_str(&format!(
                                "{name}{} {}\n",
                                labels(r.rank, s.phase, None),
                                s.value
                            ));
                        }
                    }
                    _ => {
                        for s in r.histograms.iter().filter(|s| s.name == *name) {
                            let mut cum = 0u64;
                            for (i, &c) in s.value.counts.iter().enumerate() {
                                cum += c;
                                let le = if i < BUCKET_BOUNDS.len() {
                                    BUCKET_BOUNDS[i].to_string()
                                } else {
                                    "+Inf".to_string()
                                };
                                out.push_str(&format!(
                                    "{name}_bucket{} {cum}\n",
                                    labels(r.rank, s.phase, Some(("le", le)))
                                ));
                            }
                            out.push_str(&format!(
                                "{name}_sum{} {}\n",
                                labels(r.rank, s.phase, None),
                                s.value.sum
                            ));
                            out.push_str(&format!(
                                "{name}_count{} {}\n",
                                labels(r.rank, s.phase, None),
                                s.value.count()
                            ));
                        }
                    }
                }
            }
        }
        out
    }

    /// Reconstruct a snapshot from [`MetricsSnapshot::to_prometheus`]
    /// output.
    pub fn parse_prometheus(text: &str) -> Result<MetricsSnapshot, String> {
        use std::collections::BTreeMap;
        let mut kinds: BTreeMap<String, String> = BTreeMap::new();
        let mut declared_ranks: Option<usize> = None;
        // (rank, name, phase) -> cumulative bucket counts / sum.
        let mut ranks: Vec<RankMetrics> = Vec::new();
        let mut hist_cum: BTreeMap<(u32, String, usize), ([u64; NUM_BUCKETS], u64)> =
            BTreeMap::new();

        let ensure_rank = |ranks: &mut Vec<RankMetrics>, rank: u32| {
            while ranks.len() <= rank as usize {
                let r = ranks.len() as u32;
                ranks.push(RankMetrics {
                    rank: r,
                    ..RankMetrics::default()
                });
            }
        };

        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            let err = |msg: &str| format!("line {}: {msg}", lineno + 1);
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut it = rest.split_whitespace();
                let name = it.next().ok_or_else(|| err("bare # TYPE"))?;
                let kind = it.next().ok_or_else(|| err("# TYPE without a kind"))?;
                kinds.insert(name.to_string(), kind.to_string());
                continue;
            }
            if line.starts_with('#') {
                continue;
            }
            // Sample line: name[{labels}] value
            let (head, value_str) = match line.find('}') {
                Some(close) => (&line[..=close], line[close + 1..].trim()),
                None => {
                    let (h, v) = line
                        .split_once(char::is_whitespace)
                        .ok_or_else(|| err("sample line without a value"))?;
                    (h, v.trim())
                }
            };
            let value = value_str
                .parse::<f64>()
                .map_err(|_| err("non-numeric sample value"))? as u64;
            let (name, mut rank, mut phase, mut le) = match head.split_once('{') {
                Some((n, labels)) => {
                    let labels = labels.trim_end_matches('}');
                    let (mut rank, mut phase, mut le) = (None, None, None);
                    for pair in labels.split(',').filter(|p| !p.is_empty()) {
                        let (k, v) = pair.split_once('=').ok_or_else(|| err("malformed label"))?;
                        let v = v.trim_matches('"');
                        match k.trim() {
                            "rank" => {
                                rank = Some(
                                    v.parse::<u32>()
                                        .map_err(|_| err("non-numeric rank label"))?,
                                )
                            }
                            "phase" => {
                                phase =
                                    Some(Phase::from_label(v).ok_or_else(|| {
                                        err(&format!("unknown phase label {v:?}"))
                                    })?)
                            }
                            "le" => le = Some(v.to_string()),
                            _ => {} // foreign labels are ignored
                        }
                    }
                    (n.to_string(), rank, phase, le)
                }
                None => (head.to_string(), None, None, None),
            };
            if name == "nbody_ranks" {
                declared_ranks = Some(value as usize);
                continue;
            }
            let rank = rank
                .take()
                .ok_or_else(|| err("sample without a rank label"))?;
            ensure_rank(&mut ranks, rank);
            let phase = phase.take();

            // Histogram component?
            let base_of = |suffix: &str| -> Option<String> {
                name.strip_suffix(suffix)
                    .filter(|b| kinds.get(*b).map(String::as_str) == Some("histogram"))
                    .map(str::to_string)
            };
            if let Some(base) = base_of("_bucket") {
                let le = le.take().ok_or_else(|| err("bucket without le label"))?;
                let idx = if le == "+Inf" {
                    NUM_BUCKETS - 1
                } else {
                    let bound = le.parse::<u64>().map_err(|_| err("non-numeric le label"))?;
                    BUCKET_BOUNDS
                        .iter()
                        .position(|&b| b == bound)
                        .ok_or_else(|| err(&format!("unknown bucket bound {bound}")))?
                };
                let key = (rank, base, phase.map_or(usize::MAX, |p| p.index()));
                hist_cum.entry(key).or_default().0[idx] = value;
            } else if let Some(base) = base_of("_sum") {
                let key = (rank, base, phase.map_or(usize::MAX, |p| p.index()));
                hist_cum.entry(key).or_default().1 = value;
            } else if base_of("_count").is_some() {
                // Redundant with the +Inf bucket; validated implicitly.
            } else {
                let sample = Sample {
                    name: name.clone(),
                    phase,
                    value,
                };
                match kinds.get(&name).map(String::as_str) {
                    Some("counter") => ranks[rank as usize].counters.push(sample),
                    Some("gauge") => ranks[rank as usize].gauges.push(sample),
                    Some(other) => {
                        return Err(err(&format!("unexpected sample of {other} {name}")))
                    }
                    None => return Err(err(&format!("sample {name} has no # TYPE"))),
                }
            }
        }

        for ((rank, name, phase_idx), (cum, sum)) in hist_cum {
            let mut value = Histogram {
                sum,
                ..Histogram::default()
            };
            let mut prev = 0;
            for (i, &c) in cum.iter().enumerate() {
                if c < prev {
                    return Err(format!(
                        "histogram {name} rank {rank}: non-monotone buckets"
                    ));
                }
                value.counts[i] = c - prev;
                prev = c;
            }
            let phase = if phase_idx == usize::MAX {
                None
            } else {
                Some(nbody_trace::ALL_PHASES[phase_idx])
            };
            ranks[rank as usize]
                .histograms
                .push(Sample { name, phase, value });
        }

        if let Some(n) = declared_ranks {
            while ranks.len() < n {
                let r = ranks.len() as u32;
                ranks.push(RankMetrics {
                    rank: r,
                    ..RankMetrics::default()
                });
            }
        }
        for r in &mut ranks {
            r.normalize();
        }
        Ok(MetricsSnapshot { ranks })
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
                    value: 3,
                },
                Sample {
                    name: "comm_send_bytes".into(),
                    phase: Some(Phase::Shift),
                    value: 10452,
                },
            ],
            gauges: vec![Sample {
                name: "mem_particles_hwm".into(),
                phase: None,
                value: 2048,
            }],
            histograms: vec![Sample {
                name: "comm_message_size_bytes".into(),
                phase: Some(Phase::Shift),
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
    fn prometheus_round_trip_is_exact() {
        let snap = example();
        let text = snap.to_prometheus();
        assert!(text.contains("# TYPE comm_send_messages counter"));
        assert!(text.contains("comm_message_size_bytes_bucket"));
        assert!(text.contains("le=\"+Inf\""));
        let back = MetricsSnapshot::parse_prometheus(&text).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(MetricsSnapshot::parse_prometheus("what even is this").is_err());
        assert!(MetricsSnapshot::from_json(&Json::parse("{}").unwrap()).is_err());
        assert!(MetricsSnapshot::parse_prometheus("mystery{rank=\"0\"} 3").is_err());
    }

    #[test]
    fn prometheus_buckets_are_cumulative() {
        let snap = example();
        let text = snap.to_prometheus();
        // The +Inf bucket must equal the count series.
        let inf: u64 = text
            .lines()
            .find(|l| l.contains("le=\"+Inf\""))
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|v| v.parse().ok())
            .unwrap();
        let count: u64 = text
            .lines()
            .find(|l| l.starts_with("comm_message_size_bytes_count"))
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|v| v.parse().ok())
            .unwrap();
        assert_eq!(inf, count);
        assert_eq!(inf, 3);
    }
}
