//! The communication-optimality audit.
//!
//! Connects what an execution *measured* (per-rank, per-phase message and
//! word counts plus the memory high-water mark `M`) to what the paper
//! *proves* and *predicts*:
//!
//! * the lower bounds of Eq. 2 (all-pairs) / Eq. 3 (cutoff), evaluated at
//!   the **measured** `M` rather than the nominal `cn/p`;
//! * the algorithm costs of Eq. 5 (CA all-pairs) / §IV.B (CA 1D cutoff).
//!
//! The audit reports the resulting constant factors — measured over bound
//! — and passes or fails them against configurable ceilings, turning the
//! paper's headline claim ("communication-optimal up to constant
//! factors") into a regression check.
//!
//! Accounting conventions: a rank's latency cost `S` counts every message
//! it *sent* (point-to-point sends plus the constituent messages of tree
//! collectives); its bandwidth cost `W` counts every word (particle) it
//! sent, with collective payloads attributed per participant. Setup and
//! teardown traffic ([`Phase::Other`]: initial scatter, final gather,
//! verification) is reported but excluded from the audited totals, which
//! cover the algorithm phases the paper analyzes. Totals are divided by
//! the step count, then maximized over ranks — a per-step critical-path
//! proxy matching the per-timestep bounds.

use nbody_model::{
    ca_all_pairs, ca_cutoff_1d, k_cutoff_1d, memory_per_proc, s_cutoff, s_direct, w_cutoff,
    w_direct, CommCost,
};
use nbody_trace::{Json, Phase, ALL_PHASES, PHASE_COUNT};

use crate::snapshot::MetricsSnapshot;

/// Which algorithm's cost model and bound family to audit against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AuditAlgorithm {
    /// CA all-pairs (Algorithm 1): Eq. 5 vs. Eq. 2.
    AllPairs,
    /// CA 1D cutoff (Algorithm 2): §IV.B vs. Eq. 3.
    Cutoff1d {
        /// Cutoff radius as a fraction of the domain length (`r_c / l`).
        rc_over_l: f64,
        /// Teams a leader trades migrants with after every step — the
        /// size of the layout's re-assignment neighbourhood, 2 on slabs.
        /// The algorithm's epilogue, charged to the predicted `S` (its
        /// payload is data-dependent and stays out of the predicted `W`).
        reassign_sends: u64,
    },
}

impl AuditAlgorithm {
    /// Short label for tables and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            AuditAlgorithm::AllPairs => "all-pairs",
            AuditAlgorithm::Cutoff1d { .. } => "cutoff-1d",
        }
    }
}

/// Maximum allowed measured/bound constant factors. Their one home is the
/// committed baseline ([`ceilings_from_json`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FactorCeilings {
    /// Ceiling on the latency (message-count) factor.
    pub latency: f64,
    /// Ceiling on the bandwidth (word-count) factor.
    pub bandwidth: f64,
}

/// Parse ceilings from the committed baseline JSON
/// (`bench_results/audit_baseline.json`):
/// `{"latency_factor_ceiling": 32.0, "bandwidth_factor_ceiling": 12.0}`.
pub fn ceilings_from_json(doc: &Json) -> Result<FactorCeilings, String> {
    let field = |key: &str| {
        doc.get(key)
            .and_then(Json::as_f64)
            .filter(|v| v.is_finite() && *v > 0.0)
            .ok_or_else(|| format!("missing or invalid {key:?}"))
    };
    Ok(FactorCeilings {
        latency: field("latency_factor_ceiling")?,
        bandwidth: field("bandwidth_factor_ceiling")?,
    })
}

/// The run configuration an audit is performed against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AuditConfig {
    /// Total particles.
    pub n: u64,
    /// Ranks.
    pub p: u64,
    /// Replication factor.
    pub c: u64,
    /// Timesteps the measured traffic covers.
    pub steps: u64,
    /// Algorithm under audit.
    pub algorithm: AuditAlgorithm,
    /// PASS/FAIL ceilings.
    pub ceilings: FactorCeilings,
}

/// Measured traffic of one phase on one rank.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseFlow {
    /// Messages sent (point-to-point plus collective constituents).
    pub messages: u64,
    /// Words (particles) sent, collective payloads included.
    pub words: u64,
    /// Bytes on the wire.
    pub bytes: u64,
}

/// Measured inputs to an audit: per-rank per-phase flows plus the
/// memory high-water mark.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AuditInput {
    /// `flows[rank][phase.index()]`.
    pub flows: Vec<[PhaseFlow; PHASE_COUNT]>,
    /// Max particles simultaneously resident on any rank (the measured
    /// `M`); 0 means "not measured" and falls back to the nominal `cn/p`.
    pub memory_particles: u64,
}

impl AuditInput {
    /// Build the audit input from a live execution's metrics snapshot,
    /// reading the counters the instrumented communicators record
    /// (`comm_send_*`, `comm_collective_*`) and the `mem_particles_hwm`
    /// gauge.
    pub fn from_snapshot(snapshot: &MetricsSnapshot) -> AuditInput {
        let flows = snapshot
            .ranks
            .iter()
            .map(|r| {
                let mut f = [PhaseFlow::default(); PHASE_COUNT];
                for phase in ALL_PHASES {
                    f[phase.index()] = PhaseFlow {
                        messages: r.counter("comm_send_messages", Some(phase))
                            + r.counter("comm_collective_messages", Some(phase)),
                        words: r.counter("comm_send_elements", Some(phase))
                            + r.counter("comm_collective_elements", Some(phase)),
                        bytes: r.counter("comm_send_bytes", Some(phase))
                            + r.counter("comm_collective_bytes", Some(phase)),
                    };
                }
                f
            })
            .collect();
        AuditInput {
            flows,
            memory_particles: snapshot.max_gauge("mem_particles_hwm", None),
        }
    }
}

/// Per-phase maxima over ranks, for the report table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseRow {
    /// The phase.
    pub phase: Phase,
    /// Max messages any rank sent in this phase.
    pub messages: u64,
    /// Max words any rank sent in this phase.
    pub words: u64,
    /// Max bytes any rank sent in this phase.
    pub bytes: u64,
}

/// The audit verdict for one configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditReport {
    /// Echo of the audited configuration.
    pub config: AuditConfig,
    /// The `M` the bounds were evaluated at (particles).
    pub memory_particles: f64,
    /// Non-empty phases, max over ranks (un-normalized by steps).
    pub phases: Vec<PhaseRow>,
    /// Measured per-step critical-path messages (max over ranks).
    pub measured_s: f64,
    /// Measured per-step critical-path words (max over ranks).
    pub measured_w: f64,
    /// Eq. 2/3 latency lower bound at the measured `M`.
    pub s_bound: f64,
    /// Eq. 2/3 bandwidth lower bound at the measured `M`.
    pub w_bound: f64,
    /// Eq. 5 / §IV.B predicted cost.
    pub predicted: CommCost,
    /// `measured_s / s_bound`.
    pub s_factor: f64,
    /// `measured_w / w_bound`.
    pub w_factor: f64,
    /// Whether both factors are finite and under the ceilings.
    pub pass: bool,
}

impl AuditReport {
    /// Measured shift-phase words, max over ranks (the paper's headline
    /// `n/c` quantity).
    pub fn shift_words(&self) -> u64 {
        self.phases
            .iter()
            .find(|r| r.phase == Phase::Shift)
            .map_or(0, |r| r.words)
    }
}

/// Run the audit: compare measured flows against bounds and predictions.
pub fn audit(cfg: &AuditConfig, input: &AuditInput) -> AuditReport {
    let steps = cfg.steps.max(1) as f64;

    let mut phases = Vec::new();
    for phase in ALL_PHASES {
        let i = phase.index();
        let row = PhaseRow {
            phase,
            messages: input.flows.iter().map(|f| f[i].messages).max().unwrap_or(0),
            words: input.flows.iter().map(|f| f[i].words).max().unwrap_or(0),
            bytes: input.flows.iter().map(|f| f[i].bytes).max().unwrap_or(0),
        };
        if row.messages > 0 || row.words > 0 {
            phases.push(row);
        }
    }

    // Critical path: per-rank totals over the audited phases, then max.
    let audited = |f: &[PhaseFlow; PHASE_COUNT]| {
        ALL_PHASES
            .iter()
            .filter(|p| **p != Phase::Other)
            .map(|p| f[p.index()])
            .fold((0u64, 0u64), |(s, w), flow| {
                (s + flow.messages, w + flow.words)
            })
    };
    let measured_s = input.flows.iter().map(|f| audited(f).0).max().unwrap_or(0) as f64 / steps;
    let measured_w = input.flows.iter().map(|f| audited(f).1).max().unwrap_or(0) as f64 / steps;

    let memory_particles = if input.memory_particles > 0 {
        input.memory_particles as f64
    } else {
        memory_per_proc(cfg.n, cfg.p, cfg.c)
    };

    let (s_bound, w_bound, predicted) = match cfg.algorithm {
        AuditAlgorithm::AllPairs => (
            s_direct(cfg.n, cfg.p, memory_particles),
            w_direct(cfg.n, cfg.p, memory_particles),
            ca_all_pairs(cfg.n, cfg.p, cfg.c),
        ),
        AuditAlgorithm::Cutoff1d {
            rc_over_l,
            reassign_sends,
        } => {
            let k = k_cutoff_1d(cfg.n, rc_over_l);
            let teams = cfg.p / cfg.c;
            // Processor span of the cutoff: teams within r_c of a team.
            let m = ((rc_over_l * teams as f64).ceil() as u64).max(1);
            let mut predicted = ca_cutoff_1d(cfg.n, cfg.p, cfg.c, m);
            predicted.messages += reassign_sends as f64;
            (
                s_cutoff(cfg.n, k, cfg.p, memory_particles),
                w_cutoff(cfg.n, k, cfg.p, memory_particles),
                predicted,
            )
        }
    };

    let s_factor = measured_s / s_bound.max(1e-300);
    let w_factor = measured_w / w_bound.max(1e-300);
    let pass = s_factor.is_finite()
        && w_factor.is_finite()
        && s_factor <= cfg.ceilings.latency
        && w_factor <= cfg.ceilings.bandwidth;

    AuditReport {
        config: *cfg,
        memory_particles,
        phases,
        measured_s,
        measured_w,
        s_bound,
        w_bound,
        predicted,
        s_factor,
        w_factor,
        pass,
    }
}

/// Render reports as the human-readable verdict table.
pub fn audit_table(reports: &[AuditReport]) -> String {
    let mut out = String::new();
    for r in reports {
        let cfg = &r.config;
        out.push_str(&format!(
            "audit: {} n={} p={} c={} steps={}  M={} particles\n",
            cfg.algorithm.label(),
            cfg.n,
            cfg.p,
            cfg.c,
            cfg.steps,
            r.memory_particles,
        ));
        out.push_str(&format!(
            "  {:<11} {:>12} {:>12} {:>14}\n",
            "phase", "msgs/rank", "words/rank", "bytes/rank"
        ));
        for row in &r.phases {
            out.push_str(&format!(
                "  {:<11} {:>12} {:>12} {:>14}\n",
                row.phase.label(),
                row.messages,
                row.words,
                row.bytes
            ));
        }
        out.push_str(&format!(
            "  latency   S: measured {:>10.2}  bound {:>10.2}  predicted {:>10.2}  factor {:>7.2}\n",
            r.measured_s, r.s_bound, r.predicted.messages, r.s_factor
        ));
        out.push_str(&format!(
            "  bandwidth W: measured {:>10.2}  bound {:>10.2}  predicted {:>10.2}  factor {:>7.2}\n",
            r.measured_w, r.w_bound, r.predicted.words, r.w_factor
        ));
        out.push_str(&format!(
            "  verdict: {} (latency {:.2} vs ceiling {:.2}, bandwidth {:.2} vs ceiling {:.2})\n",
            if r.pass { "PASS" } else { "FAIL" },
            r.s_factor,
            cfg.ceilings.latency,
            r.w_factor,
            cfg.ceilings.bandwidth,
        ));
    }
    out
}

/// Render reports as a JSON document (`{"reports": [...]}`).
pub fn audit_json(reports: &[AuditReport]) -> Json {
    let arr = reports
        .iter()
        .map(|r| {
            let phases = r
                .phases
                .iter()
                .map(|row| {
                    Json::Obj(vec![
                        ("phase".into(), Json::Str(row.phase.label().into())),
                        ("messages".into(), Json::Num(row.messages as f64)),
                        ("words".into(), Json::Num(row.words as f64)),
                        ("bytes".into(), Json::Num(row.bytes as f64)),
                    ])
                })
                .collect();
            Json::Obj(vec![
                (
                    "algorithm".into(),
                    Json::Str(r.config.algorithm.label().into()),
                ),
                ("n".into(), Json::Num(r.config.n as f64)),
                ("p".into(), Json::Num(r.config.p as f64)),
                ("c".into(), Json::Num(r.config.c as f64)),
                ("steps".into(), Json::Num(r.config.steps as f64)),
                ("memory_particles".into(), Json::Num(r.memory_particles)),
                ("measured_s".into(), Json::Num(r.measured_s)),
                ("measured_w".into(), Json::Num(r.measured_w)),
                ("s_bound".into(), Json::Num(r.s_bound)),
                ("w_bound".into(), Json::Num(r.w_bound)),
                ("s_predicted".into(), Json::Num(r.predicted.messages)),
                ("w_predicted".into(), Json::Num(r.predicted.words)),
                ("s_factor".into(), Json::Num(r.s_factor)),
                ("w_factor".into(), Json::Num(r.w_factor)),
                ("shift_words".into(), Json::Num(r.shift_words() as f64)),
                ("pass".into(), Json::Bool(r.pass)),
                ("phases".into(), Json::Arr(phases)),
            ])
        })
        .collect();
    Json::Obj(vec![("reports".into(), Json::Arr(arr))])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What `bench_results/audit_baseline.json` holds.
    const CEILINGS: FactorCeilings = FactorCeilings {
        latency: 32.0,
        bandwidth: 12.0,
    };

    /// Flows matching a hand-computed CA all-pairs run: n=64, p=4, c=2
    /// (teams=2, one shift step of 32 particles per rank).
    fn synthetic_input() -> AuditInput {
        let mk = |bcast: u64, skew: u64, shift: u64, reduce: u64| {
            let mut f = [PhaseFlow::default(); PHASE_COUNT];
            f[Phase::Broadcast.index()] = PhaseFlow {
                messages: bcast,
                words: 32,
                bytes: 32 * 56,
            };
            f[Phase::Skew.index()] = PhaseFlow {
                messages: skew,
                words: skew * 32,
                bytes: skew * 32 * 56,
            };
            f[Phase::Shift.index()] = PhaseFlow {
                messages: shift,
                words: shift * 32,
                bytes: shift * 32 * 56,
            };
            f[Phase::Reduce.index()] = PhaseFlow {
                messages: reduce,
                words: 32,
                bytes: 32 * 56,
            };
            // Setup traffic lands in Other and must be excluded.
            f[Phase::Other.index()] = PhaseFlow {
                messages: 100,
                words: 10_000,
                bytes: 560_000,
            };
            f
        };
        AuditInput {
            flows: vec![
                mk(1, 0, 1, 0),
                mk(0, 1, 1, 1),
                mk(1, 0, 1, 0),
                mk(0, 1, 1, 1),
            ],
            memory_particles: 64, // 2cn/p
        }
    }

    fn config() -> AuditConfig {
        AuditConfig {
            n: 64,
            p: 4,
            c: 2,
            steps: 1,
            algorithm: AuditAlgorithm::AllPairs,
            ceilings: CEILINGS,
        }
    }

    #[test]
    fn audit_excludes_setup_traffic_and_maximizes_over_ranks() {
        let r = audit(&config(), &synthetic_input());
        // Rank 1/3 critical path: skew 1 + shift 1 + reduce 1 = 3 msgs.
        assert_eq!(r.measured_s, 3.0);
        assert_eq!(r.measured_w, (32 + 32 + 32 + 32) as f64);
        // Bound at measured M=64: S = 64²/(4·64²)=0.25, W = 64²/(4·64)=16.
        assert_eq!(r.s_bound, 0.25);
        assert_eq!(r.w_bound, 16.0);
        assert_eq!(r.s_factor, 12.0);
        assert_eq!(r.w_factor, 8.0);
        assert!(r.pass);
        assert_eq!(r.shift_words(), 32);
        // The Other row is still *reported*.
        assert!(r.phases.iter().any(|p| p.phase == Phase::Other));
    }

    #[test]
    fn audit_fails_above_ceiling() {
        let mut cfg = config();
        cfg.ceilings = FactorCeilings {
            latency: 4.0,
            bandwidth: 12.0,
        };
        assert!(!audit(&cfg, &synthetic_input()).pass);
    }

    #[test]
    fn zero_memory_falls_back_to_nominal() {
        let mut input = synthetic_input();
        input.memory_particles = 0;
        let r = audit(&config(), &input);
        assert_eq!(r.memory_particles, 32.0); // cn/p
    }

    #[test]
    fn steps_normalize_the_totals() {
        let mut cfg = config();
        cfg.steps = 3;
        let r = audit(&cfg, &synthetic_input());
        assert_eq!(r.measured_s, 1.0);
    }

    #[test]
    fn cutoff_uses_eq3_bounds() {
        let cfg = AuditConfig {
            n: 256,
            p: 8,
            c: 2,
            steps: 1,
            algorithm: AuditAlgorithm::Cutoff1d {
                rc_over_l: 0.25,
                reassign_sends: 2,
            },
            ceilings: CEILINGS,
        };
        let r = audit(
            &cfg,
            &AuditInput {
                flows: vec![[PhaseFlow::default(); PHASE_COUNT]; 8],
                memory_particles: 64,
            },
        );
        // k = 2·0.25·256 = 128; S = 256·128/(8·64²) = 1, W = 256·128/(8·64) = 64.
        assert_eq!(r.s_bound, 1.0);
        assert_eq!(r.w_bound, 64.0);
        // 4 teams, m = 1: ⌈2m/c⌉ shifts and the skew, 2 log2 c collective
        // messages, and the 2 re-assignment sends of the epilogue.
        assert_eq!(r.predicted.messages, 2.0 + 2.0 + 2.0);
    }

    #[test]
    fn renderers_cover_every_field() {
        let r = audit(&config(), &synthetic_input());
        let table = audit_table(std::slice::from_ref(&r));
        assert!(table.contains("PASS"));
        assert!(table.contains("shift"));
        assert!(table.contains("bound"));
        let json = audit_json(&[r]);
        let reports = json.get("reports").unwrap().as_array().unwrap();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].get("s_factor").unwrap().as_f64(), Some(12.0));
        assert_eq!(reports[0].get("pass").unwrap(), &Json::Bool(true));
    }

    #[test]
    fn ceilings_parse_and_reject() {
        let doc =
            Json::parse("{\"latency_factor_ceiling\": 32.0, \"bandwidth_factor_ceiling\": 12.0}")
                .unwrap();
        assert_eq!(ceilings_from_json(&doc).unwrap(), CEILINGS);
        assert!(ceilings_from_json(&Json::parse("{}").unwrap()).is_err());
        assert!(
            ceilings_from_json(&Json::parse("{\"latency_factor_ceiling\": -1}").unwrap()).is_err()
        );
    }
}
