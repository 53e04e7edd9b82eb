//! The roofline join: measured `compute_*` counters vs machine ceilings.
//!
//! A metered run records, per rank, the kernel's interaction count, FLOPs,
//! compulsory bytes, and wall nanoseconds (`ca_nbody::kernel::ComputeMeter`).
//! Against a [`MachineCalibration`] those four numbers place every rank on
//! the roofline: achieved GFLOP/s vs `min(peak, intensity × bandwidth)`.
//! The renderings mirror the comm-bounds audit (a table, and JSON as the
//! one file encoding), and [`RooflineGate`] is the CI check that kernel
//! efficiency does not silently regress below the checked-in
//! `bench_results/roofline_baseline.json`.

use nbody_metrics::MetricsSnapshot;
use nbody_trace::Json;

use crate::calibrate::MachineCalibration;

/// One rank's drained compute counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelCompute {
    /// World rank.
    pub rank: u32,
    /// Force evaluations performed.
    pub interactions: u64,
    /// Floating-point operations.
    pub flops: u64,
    /// Compulsory kernel memory traffic in bytes.
    pub bytes: u64,
    /// Wall nanoseconds inside the kernel.
    pub nanos: u64,
}

/// Extract every rank's compute counters from a snapshot; ranks that never
/// ran the kernel (disabled metrics, empty blocks) are skipped.
pub fn kernel_compute(snapshot: &MetricsSnapshot) -> Vec<KernelCompute> {
    snapshot
        .ranks
        .iter()
        .filter_map(|r| {
            let kc = KernelCompute {
                rank: r.rank,
                interactions: r.counter("compute_interactions", None),
                flops: r.counter("compute_flops", None),
                bytes: r.counter("compute_bytes", None),
                nanos: r.counter("compute_nanos", None),
            };
            (kc.flops > 0 && kc.nanos > 0).then_some(kc)
        })
        .collect()
}

/// One rank placed on the roofline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RooflinePoint {
    /// World rank.
    pub rank: u32,
    /// Force evaluations performed.
    pub interactions: u64,
    /// Measured GFLOP/s (FLOPs per kernel nanosecond).
    pub achieved_gflops: f64,
    /// Arithmetic intensity, FLOPs per byte.
    pub intensity: f64,
    /// The roof at this intensity: `min(peak, intensity × bandwidth)`.
    pub roofline_gflops: f64,
    /// `100 × achieved / roofline`.
    pub pct_of_roofline: f64,
}

/// The compute audit of one kernel configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct RooflineReport {
    /// Kernel label (e.g. `all-pairs c=2`).
    pub kernel: String,
    /// Calibrated compute ceiling, GFLOP/s.
    pub peak_gflops: f64,
    /// Calibrated memory bandwidth, GB/s.
    pub mem_bw_gbytes: f64,
    /// One point per rank that ran the kernel.
    pub points: Vec<RooflinePoint>,
}

impl RooflineReport {
    /// The best %-of-roofline across ranks — the gate statistic. The best
    /// rank (not the mean) is gated because scheduling noise on an
    /// oversubscribed CI runner slows *some* ranks arbitrarily but cannot
    /// speed the best rank past what the kernel is capable of.
    pub fn best_pct(&self) -> f64 {
        self.points
            .iter()
            .map(|p| p.pct_of_roofline)
            .fold(0.0, f64::max)
    }
}

/// Place every rank of `snapshot` on the roofline of `calib`.
pub fn roofline(
    kernel: &str,
    snapshot: &MetricsSnapshot,
    calib: &MachineCalibration,
) -> RooflineReport {
    let points = kernel_compute(snapshot)
        .into_iter()
        .map(|kc| {
            let achieved = kc.flops as f64 / kc.nanos as f64;
            let intensity = if kc.bytes == 0 {
                0.0
            } else {
                kc.flops as f64 / kc.bytes as f64
            };
            let roof = calib
                .peak_gflops
                .min(intensity * calib.mem_bw_gbytes)
                .max(f64::MIN_POSITIVE);
            RooflinePoint {
                rank: kc.rank,
                interactions: kc.interactions,
                achieved_gflops: achieved,
                intensity,
                roofline_gflops: roof,
                pct_of_roofline: 100.0 * achieved / roof,
            }
        })
        .collect();
    RooflineReport {
        kernel: kernel.to_string(),
        peak_gflops: calib.peak_gflops,
        mem_bw_gbytes: calib.mem_bw_gbytes,
        points,
    }
}

/// The human-readable compute section of `ca-nbody audit`.
pub fn roofline_table(reports: &[RooflineReport]) -> String {
    let mut out = String::new();
    if reports.is_empty() {
        return out;
    }
    out.push_str(&format!(
        "compute roofline (peak {:.2} GFLOP/s, stream {:.2} GB/s)\n",
        reports[0].peak_gflops, reports[0].mem_bw_gbytes
    ));
    out.push_str(&format!(
        "{:<16} {:>6} {:>14} {:>12} {:>10} {:>12} {:>8}\n",
        "kernel", "rank", "interactions", "GFLOP/s", "FLOP/B", "roof GF/s", "% roof"
    ));
    for r in reports {
        for p in &r.points {
            out.push_str(&format!(
                "{:<16} {:>6} {:>14} {:>12.3} {:>10.3} {:>12.3} {:>7.1}%\n",
                r.kernel,
                p.rank,
                p.interactions,
                p.achieved_gflops,
                p.intensity,
                p.roofline_gflops,
                p.pct_of_roofline
            ));
        }
        out.push_str(&format!(
            "{:<16} {:>6} best {:.1}% of roofline\n",
            r.kernel,
            "-",
            r.best_pct()
        ));
    }
    out
}

/// JSON rendering of the whole compute section.
pub fn roofline_json(reports: &[RooflineReport]) -> Json {
    Json::Arr(
        reports
            .iter()
            .map(|r| {
                Json::Obj(vec![
                    ("kernel".to_string(), Json::Str(r.kernel.clone())),
                    ("peak_gflops".to_string(), Json::Num(r.peak_gflops)),
                    ("mem_bw_gbytes".to_string(), Json::Num(r.mem_bw_gbytes)),
                    ("best_pct_of_roofline".to_string(), Json::Num(r.best_pct())),
                    (
                        "ranks".to_string(),
                        Json::Arr(
                            r.points
                                .iter()
                                .map(|p| {
                                    Json::Obj(vec![
                                        ("rank".to_string(), Json::Num(p.rank as f64)),
                                        (
                                            "interactions".to_string(),
                                            Json::Num(p.interactions as f64),
                                        ),
                                        (
                                            "achieved_gflops".to_string(),
                                            Json::Num(p.achieved_gflops),
                                        ),
                                        ("intensity".to_string(), Json::Num(p.intensity)),
                                        (
                                            "roofline_gflops".to_string(),
                                            Json::Num(p.roofline_gflops),
                                        ),
                                        (
                                            "pct_of_roofline".to_string(),
                                            Json::Num(p.pct_of_roofline),
                                        ),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect(),
    )
}

/// The CI compute gate: the best rank's %-of-roofline must stay above
/// `min_pct - tolerance_pct`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RooflineGate {
    /// Baseline floor, percent of roofline.
    pub min_pct: f64,
    /// Allowed slack below the floor, percentage points.
    pub tolerance_pct: f64,
}

impl RooflineGate {
    /// Parse `bench_results/roofline_baseline.json`.
    pub fn from_json(doc: &Json) -> Result<RooflineGate, String> {
        let num = |key: &str| {
            doc.get(key)
                .and_then(Json::as_f64)
                .filter(|v| v.is_finite() && *v >= 0.0)
                .ok_or_else(|| format!("roofline baseline: missing or invalid {key:?}"))
        };
        Ok(RooflineGate {
            min_pct: num("min_pct_of_roofline")?,
            tolerance_pct: num("tolerance_pct")?,
        })
    }

    /// Apply the gate to a set of reports; `Err` carries the failure text.
    pub fn check(&self, reports: &[RooflineReport]) -> Result<f64, String> {
        let best = reports
            .iter()
            .map(RooflineReport::best_pct)
            .fold(0.0, f64::max);
        let floor = (self.min_pct - self.tolerance_pct).max(0.0);
        if reports.iter().all(|r| r.points.is_empty()) {
            return Err("roofline gate: no compute counters in any report".to_string());
        }
        if best < floor {
            return Err(format!(
                "roofline gate: best rank reached {best:.2}% of roofline, below \
                 baseline {:.2}% - tolerance {:.2}%",
                self.min_pct, self.tolerance_pct
            ));
        }
        Ok(best)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbody_metrics::{RankMetrics, Sample};

    fn counter(name: &str, value: u64) -> Sample<u64> {
        Sample {
            name: name.to_string(),
            phase: None,
            peer: None,
            value,
        }
    }

    fn snapshot() -> MetricsSnapshot {
        let rank = |rank, flops, bytes, nanos| RankMetrics {
            rank,
            counters: vec![
                counter("compute_interactions", flops / 20),
                counter("compute_flops", flops),
                counter("compute_bytes", bytes),
                counter("compute_nanos", nanos),
            ],
            ..RankMetrics::default()
        };
        MetricsSnapshot {
            ranks: vec![
                rank(0, 2_000, 1_000, 1_000), // 2 GFLOP/s, intensity 2
                rank(1, 1_000, 1_000, 1_000), // 1 GFLOP/s, intensity 1
                RankMetrics {
                    rank: 2,
                    ..RankMetrics::default()
                }, // never ran the kernel
            ],
        }
    }

    fn calib() -> MachineCalibration {
        MachineCalibration {
            peak_gflops: 4.0,
            mem_bw_gbytes: 1.0,
            seed: 0,
            fma_iters: 0,
            stream_bytes: 0,
        }
    }

    #[test]
    fn extracts_only_ranks_with_compute() {
        let kcs = kernel_compute(&snapshot());
        assert_eq!(kcs.len(), 2);
        assert_eq!(kcs[0].rank, 0);
        assert_eq!(kcs[0].flops, 2_000);
    }

    #[test]
    fn roofline_points_and_best_pct() {
        let r = roofline("all-pairs c=2", &snapshot(), &calib());
        assert_eq!(r.points.len(), 2);
        // Rank 0: achieved 2 GF/s, intensity 2 -> roof = min(4, 2*1) = 2,
        // so 100% of roofline.
        let p0 = &r.points[0];
        assert!((p0.achieved_gflops - 2.0).abs() < 1e-12);
        assert!((p0.roofline_gflops - 2.0).abs() < 1e-12);
        assert!((p0.pct_of_roofline - 100.0).abs() < 1e-9);
        // Rank 1: achieved 1, intensity 1 -> roof 1 -> 100%.
        assert!((r.best_pct() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn compute_bound_kernel_hits_the_flat_roof() {
        let mut snap = snapshot();
        // Intensity 20 FLOP/B: the roof is the 4 GFLOP/s peak, and a
        // 2 GFLOP/s kernel sits at 50%.
        snap.ranks[0].counters[2].value = 100;
        snap.ranks.truncate(1);
        let r = roofline("all-pairs c=2", &snap, &calib());
        assert!((r.points[0].roofline_gflops - 4.0).abs() < 1e-12);
        assert!((r.points[0].pct_of_roofline - 50.0).abs() < 1e-9);
    }

    #[test]
    fn renderings_contain_every_rank() {
        let r = roofline("all-pairs c=2", &snapshot(), &calib());
        let table = roofline_table(std::slice::from_ref(&r));
        assert!(table.contains("compute roofline"));
        assert!(table.contains("all-pairs c=2"));
        assert!(table.contains("% roof"));
        let doc = Json::parse(&roofline_json(std::slice::from_ref(&r)).to_string()).unwrap();
        let arr = doc.as_array().unwrap();
        assert_eq!(arr.len(), 1);
        assert_eq!(
            arr[0]
                .get("ranks")
                .and_then(Json::as_array)
                .map(|a| a.len()),
            Some(2)
        );
        assert!(arr[0].get("best_pct_of_roofline").is_some());
    }

    #[test]
    fn gate_passes_and_fails() {
        let r = roofline("all-pairs c=2", &snapshot(), &calib());
        let reports = vec![r];
        let ok = RooflineGate {
            min_pct: 90.0,
            tolerance_pct: 5.0,
        };
        assert!(ok.check(&reports).is_ok());
        let too_strict = RooflineGate {
            min_pct: 150.0,
            tolerance_pct: 5.0,
        };
        assert!(too_strict.check(&reports).is_err());
        // No compute counters anywhere: the gate must fail loudly, not
        // vacuously pass.
        let empty = vec![roofline("x", &MetricsSnapshot::empty(), &calib())];
        assert!(ok.check(&empty).is_err());
    }

    #[test]
    fn gate_parses_from_json() {
        let doc = Json::parse(r#"{"min_pct_of_roofline": 12.5, "tolerance_pct": 4}"#).unwrap();
        let g = RooflineGate::from_json(&doc).unwrap();
        assert_eq!(g.min_pct, 12.5);
        assert_eq!(g.tolerance_pct, 4.0);
        assert!(RooflineGate::from_json(&Json::parse("{}").unwrap()).is_err());
        let neg = Json::parse(r#"{"min_pct_of_roofline": -1, "tolerance_pct": 4}"#).unwrap();
        assert!(RooflineGate::from_json(&neg).is_err());
    }
}
