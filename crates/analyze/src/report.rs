//! Renderings of an [`Analysis`]: human tables, and JSON as its one file
//! encoding.

use nbody_timeline::{DriftConfig, RunTimeline};
use nbody_trace::Json;

use crate::{Analysis, GridHeatmap};

fn secs(x: f64) -> String {
    format!("{x:.6}")
}

fn pstep_label(pstep: Option<u32>) -> String {
    match pstep {
        Some(0) => "skew".to_string(),
        Some(s) => format!("shift step {s}"),
        None => String::new(),
    }
}

/// The human-readable analysis report printed by `ca-nbody analyze`.
pub fn render_table(a: &Analysis) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "analysis: {} ranks, {} traced s, {} timesteps\n\n",
        a.ranks,
        secs(a.wall_secs),
        a.steps.len()
    ));

    out.push_str("critical path (per timestep)\n");
    out.push_str(&format!(
        "{:<6} {:>12} {:>9} {:>12} {:>12} {:>12}  {}\n",
        "step", "makespan s", "critical", "compute s", "comm s", "blocked s", "waited on"
    ));
    let (mut tc, mut tm, mut tb) = (0.0, 0.0, 0.0);
    for s in &a.steps {
        let waited = match s.blamed_peer {
            Some(p) => {
                let at = pstep_label(s.blamed_pstep);
                if at.is_empty() {
                    format!("rank {p}")
                } else {
                    format!("rank {p} @ {at}")
                }
            }
            None => "-".to_string(),
        };
        out.push_str(&format!(
            "{:<6} {:>12} {:>9} {:>12} {:>12} {:>12}  {}\n",
            s.step,
            secs(s.makespan_secs),
            format!("rank {}", s.critical_rank),
            secs(s.compute_secs),
            secs(s.comm_secs),
            secs(s.blocked_secs),
            waited
        ));
        tc += s.compute_secs;
        tm += s.comm_secs;
        tb += s.blocked_secs;
    }
    out.push_str(&format!(
        "{:<6} {:>12} {:>9} {:>12} {:>12} {:>12}\n\n",
        "total",
        secs(a.steps.iter().map(|s| s.makespan_secs).sum::<f64>()),
        "",
        secs(tc),
        secs(tm),
        secs(tb)
    ));

    out.push_str("phase imbalance (per-rank seconds across ranks)\n");
    out.push_str(&format!(
        "{:<10} {:>12} {:>12} {:>9} {:>8}\n",
        "phase", "mean s", "max s", "max rank", "factor"
    ));
    for i in &a.imbalance {
        out.push_str(&format!(
            "{:<10} {:>12} {:>12} {:>9} {:>8.3}\n",
            i.phase.label(),
            secs(i.mean_secs),
            secs(i.max_secs),
            i.max_rank,
            i.factor
        ));
    }
    out.push('\n');

    // The compute column only means something when the run carried
    // metrics; an all-zero column would just be noise.
    let have_gflops = a.stragglers.iter().any(|s| s.compute_gflops > 0.0);
    out.push_str("stragglers (worst first)\n");
    out.push_str(&format!(
        "{:<6} {:>15} {:>15} {:>15}",
        "rank", "critical steps", "caused wait s", "own blocked s"
    ));
    if have_gflops {
        out.push_str(&format!(" {:>13}", "compute GF/s"));
    }
    out.push('\n');
    for s in &a.stragglers {
        out.push_str(&format!(
            "{:<6} {:>15} {:>15} {:>15}",
            s.rank,
            s.times_critical,
            secs(s.caused_wait_secs),
            secs(s.own_blocked_secs)
        ));
        if have_gflops {
            out.push_str(&format!(" {:>13.3}", s.compute_gflops));
        }
        out.push('\n');
    }

    if let Some(h) = &a.heatmap {
        out.push('\n');
        out.push_str(&render_heatmap(h));
    }
    out
}

fn render_plane<T: Copy>(
    out: &mut String,
    h: &GridHeatmap,
    title: &str,
    values: &[T],
    fmt: impl Fn(T) -> String,
) {
    out.push_str(title);
    out.push('\n');
    for row in 0..h.c {
        out.push_str(&format!("  row {row} |"));
        for team in 0..h.teams {
            out.push_str(&format!(" {:>12}", fmt(values[h.rank_at(row, team)])));
        }
        out.push('\n');
    }
}

/// The three grid planes (send bytes, recv bytes, wait seconds) as text,
/// teams across, replication rows down.
pub fn render_heatmap(h: &GridHeatmap) -> String {
    let mut out = format!("grid heat-map ({} teams x c = {} rows)\n", h.teams, h.c);
    render_plane(&mut out, h, "sent bytes", &h.send_bytes, |v: u64| {
        v.to_string()
    });
    render_plane(&mut out, h, "recv bytes", &h.recv_bytes, |v: u64| {
        v.to_string()
    });
    render_plane(&mut out, h, "wait seconds", &h.wait_secs, secs);
    out
}

/// The whole analysis as one JSON document.
pub fn render_json(a: &Analysis) -> Json {
    let opt_num = |v: Option<u32>| match v {
        Some(x) => Json::Num(x as f64),
        None => Json::Null,
    };
    let steps = a
        .steps
        .iter()
        .map(|s| {
            Json::Obj(vec![
                ("step".into(), Json::Num(s.step as f64)),
                ("makespan_secs".into(), Json::Num(s.makespan_secs)),
                ("critical_rank".into(), Json::Num(s.critical_rank as f64)),
                ("compute_secs".into(), Json::Num(s.compute_secs)),
                ("comm_secs".into(), Json::Num(s.comm_secs)),
                ("blocked_secs".into(), Json::Num(s.blocked_secs)),
                ("blamed_peer".into(), opt_num(s.blamed_peer)),
                ("blamed_pstep".into(), opt_num(s.blamed_pstep)),
            ])
        })
        .collect();
    let imbalance = a
        .imbalance
        .iter()
        .map(|i| {
            Json::Obj(vec![
                ("phase".into(), Json::Str(i.phase.label().to_string())),
                ("mean_secs".into(), Json::Num(i.mean_secs)),
                ("max_secs".into(), Json::Num(i.max_secs)),
                ("max_rank".into(), Json::Num(i.max_rank as f64)),
                ("factor".into(), Json::Num(i.factor)),
            ])
        })
        .collect();
    let stragglers = a
        .stragglers
        .iter()
        .map(|s| {
            Json::Obj(vec![
                ("rank".into(), Json::Num(s.rank as f64)),
                ("times_critical".into(), Json::Num(s.times_critical as f64)),
                ("caused_wait_secs".into(), Json::Num(s.caused_wait_secs)),
                ("own_blocked_secs".into(), Json::Num(s.own_blocked_secs)),
                ("compute_gflops".into(), Json::Num(s.compute_gflops)),
            ])
        })
        .collect();
    let heatmap = match &a.heatmap {
        Some(h) => Json::Obj(vec![
            ("teams".into(), Json::Num(h.teams as f64)),
            ("c".into(), Json::Num(h.c as f64)),
            (
                "send_bytes".into(),
                Json::Arr(h.send_bytes.iter().map(|&v| Json::Num(v as f64)).collect()),
            ),
            (
                "recv_bytes".into(),
                Json::Arr(h.recv_bytes.iter().map(|&v| Json::Num(v as f64)).collect()),
            ),
            (
                "wait_secs".into(),
                Json::Arr(h.wait_secs.iter().map(|&v| Json::Num(v)).collect()),
            ),
        ]),
        None => Json::Null,
    };
    Json::Obj(vec![
        ("ranks".into(), Json::Num(a.ranks as f64)),
        ("wall_secs".into(), Json::Num(a.wall_secs)),
        ("critical_path".into(), Json::Arr(steps)),
        ("imbalance".into(), Json::Arr(imbalance)),
        ("stragglers".into(), Json::Arr(stragglers)),
        ("heatmap".into(), heatmap),
    ])
}

/// Drift windows over a recorded run timeline, printed by
/// `ca-nbody analyze --timeline=…` next to the straggler table. Same
/// fixed-width idiom as [`render_table`] so the two sections read as one
/// report.
pub fn render_drift(tl: &RunTimeline, cfg: &DriftConfig) -> String {
    let samples: usize = tl.ranks.iter().map(|r| r.samples.len()).sum();
    let mut out = format!(
        "timeline drift ({} ranks, {} step samples; window {}, {:.1} sigma)\n",
        tl.ranks.len(),
        samples,
        cfg.window,
        cfg.nsigma
    );
    if let Some(reason) = &tl.failure {
        out.push_str(&format!("POSTMORTEM: {reason}\n"));
    }
    let windows = tl.drift(cfg);
    if windows.is_empty() {
        out.push_str("no drift flagged\n");
        return out;
    }
    out.push_str(&format!(
        "{:<15} {:>13} {:>12} {:>12} {:>8}\n",
        "metric", "steps", "baseline", "peak", "ratio"
    ));
    for w in &windows {
        let ratio = if w.baseline.abs() > f64::EPSILON {
            format!("{:.2}", w.peak / w.baseline)
        } else {
            "inf".to_string()
        };
        out.push_str(&format!(
            "{:<15} {:>13} {:>12.4} {:>12.4} {:>8}\n",
            w.metric,
            format!("{}-{}", w.start_step, w.end_step),
            w.baseline,
            w.peak,
            ratio
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze;
    use crate::testutil::two_rank_trace;

    fn sample_analysis() -> Analysis {
        analyze(&two_rank_trace(), None, 1)
    }

    #[test]
    fn table_names_critical_ranks_and_blame() {
        let text = render_table(&sample_analysis());
        assert!(text.contains("critical path"));
        assert!(text.contains("rank 1 @ shift step 2"));
        assert!(text.contains("phase imbalance"));
        assert!(text.contains("stragglers"));
        assert!(text.contains("grid heat-map"));
        // No metrics, no compute column.
        assert!(!text.contains("compute GF/s"));
    }

    #[test]
    fn compute_column_appears_with_metrics() {
        use nbody_metrics::{MetricsRecorder, MetricsSnapshot};
        let shards = (0..2)
            .map(|rank| {
                let rec = MetricsRecorder::for_rank(rank);
                rec.counter("compute_flops", None).add(3000);
                rec.counter("compute_nanos", None).add(1000);
                rec.finish()
            })
            .collect();
        let snap = MetricsSnapshot::from_shards(shards);
        let a = analyze(&two_rank_trace(), Some(&snap), 1);
        let text = render_table(&a);
        assert!(text.contains("compute GF/s"), "{text}");
        assert!(text.contains("3.000"), "{text}");
        let doc = render_json(&a).to_string();
        let v = Json::parse(&doc).unwrap();
        let stragglers = v.get("stragglers").and_then(Json::as_array).unwrap();
        assert_eq!(
            stragglers[0].get("compute_gflops").and_then(Json::as_f64),
            Some(3.0)
        );
    }

    #[test]
    fn json_is_parseable_and_complete() {
        let doc = render_json(&sample_analysis()).to_string();
        let v = Json::parse(&doc).unwrap();
        assert_eq!(v.get("ranks").and_then(Json::as_f64), Some(2.0));
        let steps = v.get("critical_path").and_then(Json::as_array).unwrap();
        assert_eq!(steps.len(), 2);
        assert_eq!(
            steps[1].get("blamed_peer").and_then(Json::as_f64),
            Some(1.0)
        );
        assert_eq!(
            steps[1].get("blamed_pstep").and_then(Json::as_f64),
            Some(2.0)
        );
        assert!(v.get("heatmap").unwrap().get("send_bytes").is_some());
    }

    fn drift_timeline(shift_at: Option<u32>) -> RunTimeline {
        use nbody_timeline::{RankTimeline, StepSample};
        let ranks = (0..2u32)
            .map(|rank| RankTimeline {
                rank,
                stride: 1,
                samples: (0..60u32)
                    .map(|step| {
                        // Rank 1 hoards particles after the shift point,
                        // pushing the imbalance factor from 1.0 to ~1.5.
                        let shifted = shift_at.is_some_and(|at| step >= at);
                        let particles = if shifted && rank == 1 { 300 } else { 100 };
                        StepSample {
                            step,
                            t_secs: step as f64 * 0.01,
                            dt_secs: 0.01,
                            particles,
                            ..StepSample::default()
                        }
                    })
                    .collect(),
                events: vec![],
                dropped_events: 0,
                failure: None,
            })
            .collect();
        RunTimeline::from_ranks(ranks)
    }

    #[test]
    fn drift_report_flags_a_step_function() {
        let text = render_drift(&drift_timeline(Some(30)), &DriftConfig::default());
        assert!(
            text.contains("timeline drift (2 ranks, 120 step samples"),
            "{text}"
        );
        assert!(text.contains("imbalance"), "{text}");
        assert!(
            text.contains("30-"),
            "window starts at the transition: {text}"
        );
        assert!(!text.contains("no drift flagged"), "{text}");
    }

    #[test]
    fn drift_report_is_quiet_on_stationary_data() {
        let text = render_drift(&drift_timeline(None), &DriftConfig::default());
        assert!(text.contains("no drift flagged"), "{text}");
        assert!(!text.contains("POSTMORTEM"));
    }

    #[test]
    fn drift_report_carries_the_postmortem_reason() {
        let tl = drift_timeline(None).with_failure("rank 1 dead with c=1");
        let text = render_drift(&tl, &DriftConfig::default());
        assert!(text.contains("POSTMORTEM: rank 1 dead with c=1"), "{text}");
    }
}
