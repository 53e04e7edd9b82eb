//! The live dashboard: dependency-free inline HTML + SVG sparklines.
//!
//! [`render_dashboard`] turns a [`RunTimeline`] into a single
//! self-contained HTML page — no external scripts, stylesheets, or fonts,
//! so the `/dashboard` endpoint works from `curl ... > d.html && open
//! d.html` on an air-gapped machine. Each tracked metric gets an SVG
//! polyline sparkline; drift windows flagged by the online detector are
//! listed beneath, and a postmortem banner appears when the timeline
//! carries a failure.

use nbody_simhealth::HealthSummary;
use nbody_timeline::{DriftConfig, DriftWindow, MetricSeries, RunTimeline};
use nbody_wireprobe::WireReport;

/// Sparkline viewport in CSS pixels.
const SPARK_W: f64 = 560.0;
const SPARK_H: f64 = 64.0;

/// Most channels shown in the latency panel (slowest first).
const WIRE_PANEL_ROWS: usize = 24;

/// Render `tl` as a self-contained HTML dashboard page.
pub fn render_dashboard(tl: &RunTimeline) -> String {
    render_dashboard_with_wire(tl, None)
}

/// [`render_dashboard`] with an optional channel-latency panel from a
/// probed run's matched wire report.
pub fn render_dashboard_with_wire(tl: &RunTimeline, wire: Option<&WireReport>) -> String {
    let mut out = String::with_capacity(8 * 1024);
    out.push_str(
        "<!doctype html>\n<html><head><meta charset=\"utf-8\">\
         <title>ca-nbody dashboard</title>\n<style>\n\
         body{font-family:monospace;margin:2em;background:#fafafa;color:#222}\n\
         h1{font-size:1.3em} h2{font-size:1.05em;margin-bottom:0.2em}\n\
         .failure{background:#fee;border:1px solid #c00;padding:0.6em;margin:1em 0}\n\
         .spark{background:#fff;border:1px solid #ccc}\n\
         .meta{color:#666;font-size:0.85em}\n\
         table{border-collapse:collapse;margin:0.5em 0}\n\
         td,th{border:1px solid #ccc;padding:0.2em 0.6em;text-align:left}\n\
         </style></head><body>\n<h1>ca-nbody run dashboard</h1>\n",
    );
    out.push_str(&format!(
        "<p class=\"meta\">{} ranks &middot; {} step samples &middot; refresh to update</p>\n",
        tl.ranks.len(),
        tl.ranks.iter().map(|r| r.samples.len()).sum::<usize>(),
    ));
    if let Some(reason) = &tl.failure {
        out.push_str(&format!(
            "<div class=\"failure\"><b>POSTMORTEM</b>: {}</div>\n",
            escape_html(reason)
        ));
    }

    for series in [
        mean_series(tl, "send bytes / step", |s| s.send_bytes as f64),
        mean_series(tl, "collective bytes / step", |s| s.coll_bytes as f64),
        mean_series(tl, "flops / step", |s| s.flops as f64),
        tl.comm_fraction_series(),
        tl.imbalance_series(),
    ] {
        render_section(&mut out, &series);
    }

    let drift = tl.drift(&DriftConfig::default());
    out.push_str("<h2>drift windows</h2>\n");
    if drift.is_empty() {
        out.push_str("<p class=\"meta\">none flagged</p>\n");
    } else {
        out.push_str(
            "<table><tr><th>metric</th><th>steps</th><th>baseline</th><th>peak</th></tr>\n",
        );
        for w in &drift {
            out.push_str(&render_drift_row(w));
        }
        out.push_str("</table>\n");
    }

    render_health_panel(&mut out, tl);

    if let Some(report) = wire {
        render_wire_panel(&mut out, report);
    }

    render_recent_events(&mut out, tl);
    out.push_str("</body></html>\n");
    out
}

/// The numerical-health panel: verdict, total-energy sparkline, and any
/// sentinel / fingerprint-mismatch events from a health-instrumented run.
fn render_health_panel(out: &mut String, tl: &RunTimeline) {
    let h = HealthSummary::from_timeline(tl);
    out.push_str("<h2>numerical health</h2>\n");
    if h.measured_steps == 0 && h.non_finite.is_empty() && h.mismatches.is_empty() {
        out.push_str(
            "<p class=\"meta\">not instrumented &mdash; run with <code>--health</code> \
             to record conservation monitors</p>\n",
        );
        return;
    }
    let (verdict, color) = if h.is_clean() {
        ("HEALTHY", "#090")
    } else {
        ("UNHEALTHY", "#c00")
    };
    out.push_str(&format!(
        "<p><b style=\"color:{color}\">{verdict}</b> &middot; {} checked steps &middot; \
         max |&Delta;E/E&#8320;| {:.3e} &middot; max |p| {:.3e}</p>\n",
        h.measured_steps, h.max_rel_energy_drift, h.max_momentum_norm,
    ));
    let energy = tl.energy_series();
    if !energy.values.is_empty() {
        out.push_str(&format!(
            "<p class=\"meta\">total energy: first {:.6e} &middot; last {:.6e}</p>\n",
            h.energy_first, h.energy_last
        ));
        out.push_str(&sparkline_svg(&energy.values));
    }
    if !h.energy_drift_windows.is_empty() {
        out.push_str(&format!(
            "<p class=\"meta\">energy drift flagged at step(s) {:?}</p>\n",
            h.energy_drift_windows
        ));
    }
    let blamed = [
        ("non-finite", &h.non_finite),
        ("replica mismatch", &h.mismatches),
    ];
    if blamed.iter().any(|(_, v)| !v.is_empty()) {
        out.push_str("<table><tr><th>kind</th><th>rank</th><th>step</th><th>detail</th></tr>\n");
        for (kind, events) in blamed {
            for (rank, step, detail) in events {
                out.push_str(&format!(
                    "<tr><td>{kind}</td><td>{rank}</td><td>{}</td><td>{}</td></tr>\n",
                    step.map_or(String::new(), |s| s.to_string()),
                    escape_html(detail)
                ));
            }
        }
        out.push_str("</table>\n");
    }
}

/// The channel-latency panel: per-channel send→recv latency percentiles
/// from the wire probes, slowest mean first.
fn render_wire_panel(out: &mut String, report: &WireReport) {
    out.push_str("<h2>channel latency (wire probes)</h2>\n");
    out.push_str(&format!(
        "<p class=\"meta\">{} sends &middot; {} matched pairs &middot; \
         {} channels &middot; {} fault events</p>\n",
        report.total_sends,
        report.matched,
        report.channels.len(),
        report.fault_events,
    ));
    if report.saturated() {
        out.push_str(&format!(
            "<div class=\"failure\"><b>probe rings overflowed</b>: {} events \
             evicted; latencies are lower bounds</div>\n",
            report.dropped_probe_events
        ));
    }
    if report.channels.is_empty() {
        out.push_str("<p class=\"meta\">no probed traffic</p>\n");
        return;
    }
    let mut chans: Vec<_> = report.channels.iter().collect();
    chans.sort_by(|a, b| b.latency.mean_s.total_cmp(&a.latency.mean_s));
    out.push_str(
        "<table><tr><th>channel</th><th>phase</th><th>sends</th>\
         <th>mean &micro;s</th><th>p50 &micro;s</th><th>p90 &micro;s</th>\
         <th>max &micro;s</th><th>depth</th><th>unmatched</th></tr>\n",
    );
    for ch in chans.iter().take(WIRE_PANEL_ROWS) {
        out.push_str(&format!(
            "<tr><td>{} &rarr; {}</td><td>{}</td><td>{}</td><td>{:.1}</td>\
             <td>{:.1}</td><td>{:.1}</td><td>{:.1}</td><td>{}</td><td>{}</td></tr>\n",
            ch.src,
            ch.dst,
            ch.phase.label(),
            ch.sends,
            ch.latency.mean_s * 1e6,
            ch.latency.p50_s * 1e6,
            ch.latency.p90_s * 1e6,
            ch.latency.max_s * 1e6,
            ch.max_in_flight,
            ch.unmatched_sends + ch.unmatched_recvs,
        ));
    }
    out.push_str("</table>\n");
    if report.channels.len() > WIRE_PANEL_ROWS {
        out.push_str(&format!(
            "<p class=\"meta\">{} more channel(s) not shown</p>\n",
            report.channels.len() - WIRE_PANEL_ROWS
        ));
    }
}

/// Mean of one sample field across ranks, per step.
fn mean_series(
    tl: &RunTimeline,
    name: &str,
    field: impl Fn(&nbody_timeline::StepSample) -> f64,
) -> MetricSeries {
    let mut steps: Vec<u32> = tl
        .ranks
        .iter()
        .flat_map(|r| r.samples.iter().map(|s| s.step))
        .collect();
    steps.sort_unstable();
    steps.dedup();
    let values = steps
        .iter()
        .map(|&step| {
            let mut sum = 0.0;
            let mut n = 0usize;
            for r in &tl.ranks {
                for s in &r.samples {
                    if s.step == step {
                        sum += field(s);
                        n += 1;
                    }
                }
            }
            if n == 0 {
                0.0
            } else {
                sum / n as f64
            }
        })
        .collect();
    MetricSeries {
        metric: name.to_string(),
        steps,
        values,
    }
}

fn render_section(out: &mut String, series: &MetricSeries) {
    out.push_str(&format!("<h2>{}</h2>\n", escape_html(&series.metric)));
    if series.values.is_empty() {
        out.push_str("<p class=\"meta\">no samples</p>\n");
        return;
    }
    let last = series.values.last().copied().unwrap_or(0.0);
    let max = series.values.iter().copied().fold(f64::MIN, f64::max);
    out.push_str(&format!(
        "<p class=\"meta\">last {last:.3e} &middot; max {max:.3e} &middot; {} points</p>\n",
        series.values.len()
    ));
    out.push_str(&sparkline_svg(&series.values));
}

/// An SVG polyline over `values`, y-scaled to the data range.
fn sparkline_svg(values: &[f64]) -> String {
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let span = if (max - min).abs() < f64::EPSILON {
        1.0
    } else {
        max - min
    };
    let n = values.len().max(2) as f64 - 1.0;
    let pts: Vec<String> = values
        .iter()
        .enumerate()
        .map(|(i, &v)| {
            let x = i as f64 / n * (SPARK_W - 4.0) + 2.0;
            let y = SPARK_H - 4.0 - (v - min) / span * (SPARK_H - 8.0);
            format!("{x:.1},{y:.1}")
        })
        .collect();
    format!(
        "<svg class=\"spark\" width=\"{SPARK_W}\" height=\"{SPARK_H}\" \
         viewBox=\"0 0 {SPARK_W} {SPARK_H}\" xmlns=\"http://www.w3.org/2000/svg\">\
         <polyline fill=\"none\" stroke=\"#0074d9\" stroke-width=\"1.5\" \
         points=\"{}\"/></svg>\n",
        pts.join(" ")
    )
}

fn render_drift_row(w: &DriftWindow) -> String {
    format!(
        "<tr><td>{}</td><td>{}&ndash;{}</td><td>{:.3e}</td><td>{:.3e}</td></tr>\n",
        escape_html(&w.metric),
        w.start_step,
        w.end_step,
        w.baseline,
        w.peak
    )
}

/// The last few flight-ring events across ranks, newest last.
fn render_recent_events(out: &mut String, tl: &RunTimeline) {
    let mut events: Vec<(u32, &nbody_timeline::FlightEvent)> = tl
        .ranks
        .iter()
        .flat_map(|r| r.events.iter().map(move |e| (r.rank, e)))
        .collect();
    events.sort_by(|a, b| a.1.t_secs.total_cmp(&b.1.t_secs));
    let tail = events.len().saturating_sub(16);
    out.push_str("<h2>recent events</h2>\n");
    if events.is_empty() {
        out.push_str("<p class=\"meta\">none recorded</p>\n");
        return;
    }
    out.push_str(
        "<table><tr><th>t (s)</th><th>rank</th><th>kind</th><th>step</th><th>detail</th></tr>\n",
    );
    for (rank, e) in &events[tail..] {
        out.push_str(&format!(
            "<tr><td>{:.4}</td><td>{rank}</td><td>{}</td><td>{}</td><td>{}</td></tr>\n",
            e.t_secs,
            e.kind.label(),
            e.step.map_or(String::new(), |s| s.to_string()),
            escape_html(&e.detail)
        ));
    }
    out.push_str("</table>\n");
}

fn escape_html(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbody_timeline::{EventKind, RankTimeline, StepSample};

    fn timeline() -> RunTimeline {
        let ranks = (0..2)
            .map(|rank| RankTimeline {
                rank,
                stride: 1,
                samples: (0..20)
                    .map(|step| StepSample {
                        step,
                        t_secs: step as f64 * 0.01,
                        dt_secs: 0.01,
                        send_bytes: 1000 + step as u64,
                        coll_bytes: 64,
                        blocked_secs: 0.002,
                        flops: 5_000,
                        compute_nanos: 7_000,
                        particles: 100 + rank as u64,
                        ..StepSample::default()
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
    fn dashboard_is_selfcontained_html_with_sparklines() {
        let html = render_dashboard(&timeline());
        assert!(html.starts_with("<!doctype html>"));
        assert!(html.contains("<svg"), "sparklines are inline SVG");
        assert!(html.contains("send bytes / step"));
        assert!(html.contains("imbalance"));
        assert!(html.contains("comm_fraction"));
        assert!(!html.contains("<script"), "no scripts — curl-and-open safe");
        assert!(
            !html.contains("http://") || html.contains("w3.org"),
            "no external fetches"
        );
        assert!(
            html.contains("none flagged"),
            "stationary data shows no drift"
        );
    }

    #[test]
    fn postmortem_banner_and_events_render_escaped() {
        let mut tl = timeline();
        tl.failure = Some("rank 1: <dead>".to_string());
        tl.ranks[0].events.push(nbody_timeline::FlightEvent {
            t_secs: 0.5,
            kind: EventKind::Unrecoverable,
            step: Some(3),
            detail: "c<2".to_string(),
        });
        let html = render_dashboard(&tl);
        assert!(html.contains("POSTMORTEM"));
        assert!(
            html.contains("rank 1: &lt;dead&gt;"),
            "failure reason is escaped"
        );
        assert!(html.contains("unrecoverable"));
        assert!(html.contains("c&lt;2"));
    }

    #[test]
    fn wire_panel_lists_channels_slowest_first() {
        use nbody_wireprobe::{match_events, MsgEvent, ProbeKind, RankWireLog, WireLog};
        let ev = |kind, src: u32, dst: u32, tag: u64, t: f64| MsgEvent {
            kind,
            src,
            dst,
            comm: 0,
            tag,
            phase: nbody_trace::Phase::Shift,
            count: 4,
            bytes: 224,
            t_secs: t,
            step: None,
        };
        let log = WireLog::from_ranks(vec![RankWireLog {
            rank: 0,
            events: vec![
                ev(ProbeKind::Send, 0, 1, 1, 0.000),
                ev(ProbeKind::Recv, 0, 1, 1, 0.005),
                ev(ProbeKind::Send, 1, 0, 2, 0.000),
                ev(ProbeKind::Recv, 1, 0, 2, 0.001),
            ],
            dropped_events: 0,
        }]);
        let report = match_events(&log);
        let html = render_dashboard_with_wire(&timeline(), Some(&report));
        assert!(html.contains("channel latency (wire probes)"), "{html}");
        assert!(html.contains("0 &rarr; 1"));
        assert!(html.contains("5000.0"), "5ms latency in us");
        // Slowest channel (0->1, 5 ms) sorts before the 1 ms one.
        let slow = html.find("0 &rarr; 1").unwrap();
        let fast = html.find("1 &rarr; 0").unwrap();
        assert!(slow < fast, "slowest first");
        // Without a report, no panel.
        assert!(!render_dashboard(&timeline()).contains("channel latency"));
    }

    #[test]
    fn health_panel_shows_unmeasured_hint_then_verdict_and_blame() {
        // The default test timeline carries no health instrumentation.
        let html = render_dashboard(&timeline());
        assert!(html.contains("numerical health"));
        assert!(
            html.contains("--health"),
            "uninstrumented runs point at the flag"
        );

        // Instrumented: energy/momentum on every sample, plus one blamed
        // sentinel event.
        let mut tl = timeline();
        for r in &mut tl.ranks {
            for s in &mut r.samples {
                s.energy = -1.25;
                s.momentum = 1e-13;
            }
        }
        tl.ranks[1].events.push(nbody_timeline::FlightEvent {
            t_secs: 0.3,
            kind: EventKind::NonFinite,
            step: Some(7),
            detail: "non-finite force.x at rank 1".to_string(),
        });
        let html = render_dashboard(&tl);
        assert!(
            html.contains("UNHEALTHY"),
            "sentinel event flips the verdict"
        );
        assert!(html.contains("non-finite force.x at rank 1"));
        assert!(
            html.contains("total energy"),
            "energy sparkline meta renders"
        );
    }

    #[test]
    fn empty_timeline_renders_without_panicking() {
        let html = render_dashboard(&RunTimeline::from_ranks(vec![]));
        assert!(html.contains("0 ranks"));
        assert!(html.contains("no samples"));
        assert!(html.contains("none recorded"));
    }
}
