//! Machine calibration: the measured ceilings of the roofline model.
//!
//! Two seedable microbenchmarks, deliberately matched to the force
//! kernel's character:
//!
//! * **Multiply-add peak** — `a = a * x + y` as a separately rounded
//!   multiply and add (what the force kernel issues: it never fuses) on
//!   enough independent accumulators to fill the machine's floating-point
//!   ports. The accumulators are a fixed-size array, which the compiler
//!   packs two to a register at the baseline target — the same width the
//!   lane kernel uses — so the ceiling is one no build of this workspace
//!   can exceed and %-of-roofline is at most 100 by construction. (The
//!   earlier `f64::mul_add` loop lowered to a libm `fma()` *call* without
//!   the `fma` target feature and reported 0.66 GFLOP/s, a "ceiling" the
//!   scalar kernel beat nearly five times over.)
//! * **Stream bandwidth** — a large out-of-cache buffer copy, counting
//!   read + write traffic, the classic STREAM-style bound for the
//!   memory-bound side of the roofline.
//!
//! Both are deterministic given the seed (initial values derive from a
//! splitmix64 stream, repeats take the best time) and parameterized so CI
//! can run a quick variant. Results persist as JSON via
//! [`MachineCalibration::to_json`] so gates compare against a *recorded*
//! calibration rather than re-measuring on noisy shared runners.

use std::hint::black_box;
use std::time::Instant;

use nbody_trace::Json;

/// Independent accumulators of the multiply-add loop: 14 two-lane
/// registers' worth, which with the two constants fills the 16 SSE
/// registers and is enough chains to cover multiply + add latency on two
/// issue ports (measured on the reference box: 8.3 GFLOP/s at 8
/// accumulators, 14.0 at 16, 18.2 at 28, 18.0 at 32).
pub const LANES: usize = 28;

/// Parameters of one calibration run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibrationConfig {
    /// Seed for the deterministic initial values.
    pub seed: u64,
    /// Iterations of the multiply-add loop (each iteration does one
    /// multiply and one add on each of the [`LANES`] accumulators, i.e.
    /// `2 * LANES` FLOPs). The name predates the fix and is kept because
    /// it is a key of the persisted JSON.
    pub fma_iters: u64,
    /// Size of each streaming buffer in MiB (two are allocated).
    pub stream_mib: usize,
    /// Timed repeats; the best (fastest) repeat is kept.
    pub repeats: usize,
}

impl CalibrationConfig {
    /// A fast calibration (~tens of milliseconds), fit for tests and for
    /// ad-hoc audits on a developer machine.
    pub fn quick() -> CalibrationConfig {
        CalibrationConfig {
            seed: 42,
            fma_iters: 2_000_000,
            stream_mib: 8,
            repeats: 3,
        }
    }

    /// The full calibration used to produce the checked-in
    /// `bench_results/machine_calibration.json`.
    pub fn full() -> CalibrationConfig {
        CalibrationConfig {
            seed: 42,
            fma_iters: 32_000_000,
            stream_mib: 64,
            repeats: 5,
        }
    }
}

impl Default for CalibrationConfig {
    fn default() -> CalibrationConfig {
        CalibrationConfig::quick()
    }
}

/// The measured machine ceilings plus the provenance needed to reproduce
/// them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineCalibration {
    /// Multiply-add peak in GFLOP/s (FLOPs per nanosecond).
    pub peak_gflops: f64,
    /// Streaming memory bandwidth in GB/s (bytes per nanosecond).
    pub mem_bw_gbytes: f64,
    /// Seed the measurement ran with.
    pub seed: u64,
    /// Multiply-add iterations of the measurement.
    pub fma_iters: u64,
    /// Bytes of one streaming buffer.
    pub stream_bytes: u64,
}

impl MachineCalibration {
    /// Run both microbenchmarks.
    pub fn measure(cfg: &CalibrationConfig) -> MachineCalibration {
        MachineCalibration {
            peak_gflops: mul_add_peak_gflops(cfg),
            mem_bw_gbytes: stream_bandwidth_gbytes(cfg),
            seed: cfg.seed,
            fma_iters: cfg.fma_iters,
            stream_bytes: (cfg.stream_mib as u64) << 20,
        }
    }

    /// Serialize for `bench_results/machine_calibration.json`.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("peak_gflops".to_string(), Json::Num(self.peak_gflops)),
            ("mem_bw_gbytes".to_string(), Json::Num(self.mem_bw_gbytes)),
            ("seed".to_string(), Json::Num(self.seed as f64)),
            ("fma_iters".to_string(), Json::Num(self.fma_iters as f64)),
            (
                "stream_bytes".to_string(),
                Json::Num(self.stream_bytes as f64),
            ),
        ])
    }

    /// Parse a serialized calibration; both ceilings must be positive
    /// finite numbers.
    pub fn from_json(doc: &Json) -> Result<MachineCalibration, String> {
        let num = |key: &str| {
            doc.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("calibration: missing or non-numeric {key:?}"))
        };
        let peak_gflops = num("peak_gflops")?;
        let mem_bw_gbytes = num("mem_bw_gbytes")?;
        if !(peak_gflops.is_finite() && peak_gflops > 0.0) {
            return Err(format!("calibration: invalid peak_gflops {peak_gflops}"));
        }
        if !(mem_bw_gbytes.is_finite() && mem_bw_gbytes > 0.0) {
            return Err(format!(
                "calibration: invalid mem_bw_gbytes {mem_bw_gbytes}"
            ));
        }
        Ok(MachineCalibration {
            peak_gflops,
            mem_bw_gbytes,
            seed: num("seed").unwrap_or(0.0) as u64,
            fma_iters: num("fma_iters").unwrap_or(0.0) as u64,
            stream_bytes: num("stream_bytes").unwrap_or(0.0) as u64,
        })
    }
}

/// The splitmix64 stream: the deterministic seed expansion behind both
/// microbenchmarks (no dependency on the `rand` stand-in needed).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A deterministic f64 in `[1, 2)` from the stream.
fn unit_f64(state: &mut u64) -> f64 {
    1.0 + (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
}

fn mul_add_peak_gflops(cfg: &CalibrationConfig) -> f64 {
    let mut state = cfg.seed;
    // x slightly below 1 and a small positive y keep every accumulator
    // converging toward y/(1-x) ~ 1: no overflow, no denormals. The
    // constants pass through `black_box` so the loop cannot be folded.
    let x = black_box(0.999_999_9_f64);
    let y = black_box(1e-7_f64);
    let mut best_nanos = u64::MAX;
    for _ in 0..cfg.repeats.max(1) {
        let mut acc = [0.0f64; LANES];
        for a in &mut acc {
            *a = unit_f64(&mut state);
        }
        let start = Instant::now();
        for _ in 0..cfg.fma_iters {
            for a in &mut acc {
                *a = *a * x + y;
            }
        }
        let nanos = start.elapsed().as_nanos() as u64;
        black_box(acc);
        best_nanos = best_nanos.min(nanos.max(1));
    }
    let flops = cfg.fma_iters * LANES as u64 * 2;
    flops as f64 / best_nanos as f64
}

fn stream_bandwidth_gbytes(cfg: &CalibrationConfig) -> f64 {
    let words = ((cfg.stream_mib.max(1)) << 20) / std::mem::size_of::<u64>();
    let mut state = cfg.seed ^ 0x5eed;
    let src: Vec<u64> = (0..words).map(|_| splitmix64(&mut state)).collect();
    let mut dst = vec![0u64; words];
    let mut best_nanos = u64::MAX;
    for _ in 0..cfg.repeats.max(1) {
        let start = Instant::now();
        dst.copy_from_slice(&src);
        let nanos = start.elapsed().as_nanos() as u64;
        black_box(&mut dst);
        best_nanos = best_nanos.min(nanos.max(1));
    }
    // A copy reads and writes every byte once.
    let bytes = (words * std::mem::size_of::<u64>()) as u64 * 2;
    bytes as f64 / best_nanos as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CalibrationConfig {
        CalibrationConfig {
            seed: 7,
            fma_iters: 50_000,
            stream_mib: 1,
            repeats: 2,
        }
    }

    #[test]
    fn measure_produces_positive_ceilings() {
        let cal = MachineCalibration::measure(&tiny());
        assert!(cal.peak_gflops > 0.0, "{cal:?}");
        assert!(cal.mem_bw_gbytes > 0.0, "{cal:?}");
        assert_eq!(cal.seed, 7);
        assert_eq!(cal.stream_bytes, 1 << 20);
    }

    /// The point of the calibration: a ceiling the kernel cannot beat. Only
    /// optimized code says anything about the machine, so the comparison
    /// runs under `cargo test --release` (CI does) and is skipped in debug.
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "compares optimized code; run with --release"
    )]
    fn calibrated_peak_is_at_least_the_kernels_achieved_gflops() {
        use ca_nbody::kernel::accumulate_block;
        use nbody_physics::{init, Boundary, Domain, ForceLaw, RepulsiveInverseSquare};

        let cal = MachineCalibration::measure(&CalibrationConfig::quick());

        // The benchmark's compute-bound shape: the paper's law on blocks
        // that sit in cache. Best of several calls, like the calibration.
        let domain = Domain::unit();
        let law = RepulsiveInverseSquare {
            strength: 1e-3,
            softening: 1e-3,
        };
        let sources = init::uniform(1024, &domain, 7);
        let mut targets = init::uniform(1024, &domain, 8);
        let mut best_nanos = u64::MAX;
        let mut evals = 0;
        for _ in 0..7 {
            let start = Instant::now();
            evals = accumulate_block(
                black_box(&mut targets),
                black_box(&sources),
                &law,
                &domain,
                Boundary::Reflective,
            );
            best_nanos = best_nanos.min((start.elapsed().as_nanos() as u64).max(1));
        }
        let achieved = (evals * law.flops_per_interaction()) as f64 / best_nanos as f64;
        assert!(
            cal.peak_gflops >= achieved,
            "kernel at {achieved:.2} GFLOP/s beats the calibrated peak {:.2}",
            cal.peak_gflops
        );
    }

    #[test]
    fn json_round_trip() {
        let cal = MachineCalibration {
            peak_gflops: 3.5,
            mem_bw_gbytes: 12.25,
            seed: 42,
            fma_iters: 1000,
            stream_bytes: 1 << 20,
        };
        let doc = Json::parse(&cal.to_json().to_string()).unwrap();
        let back = MachineCalibration::from_json(&doc).unwrap();
        assert_eq!(back, cal);
    }

    #[test]
    fn invalid_calibrations_rejected() {
        for text in [
            "{}",
            r#"{"peak_gflops": 0, "mem_bw_gbytes": 1}"#,
            r#"{"peak_gflops": 1, "mem_bw_gbytes": -3}"#,
            r#"{"peak_gflops": "fast", "mem_bw_gbytes": 1}"#,
        ] {
            let doc = Json::parse(text).unwrap();
            assert!(MachineCalibration::from_json(&doc).is_err(), "{text}");
        }
    }

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = 1u64;
        let mut b = 1u64;
        assert_eq!(splitmix64(&mut a), splitmix64(&mut b));
        let va = unit_f64(&mut a);
        let vb = unit_f64(&mut b);
        assert_eq!(va, vb);
        assert!((1.0..2.0).contains(&va));
    }
}
