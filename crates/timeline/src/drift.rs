//! Online drift detection over step series (rolling median / MAD).
//!
//! The detector answers one question: has a per-step metric *shifted*
//! relative to its recent history, beyond what that history's own spread
//! explains? Median and MAD (median absolute deviation) are used instead
//! of mean/stddev so a single straggler step cannot inflate the baseline
//! it is judged against — the classic robust-statistics choice.

/// Detector tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftConfig {
    /// Trailing samples forming the rolling baseline.
    pub window: usize,
    /// Flag when a value deviates from the rolling median by more than
    /// this many (MAD-derived) sigmas.
    pub nsigma: f64,
    /// Noise floor as a fraction of the median: deviations below
    /// `min_rel * |median|` never flag, however tight the MAD is. Guards
    /// against zero-variance baselines flagging on any change at all.
    pub min_rel: f64,
}

impl Default for DriftConfig {
    fn default() -> Self {
        DriftConfig {
            window: 16,
            nsigma: 6.0,
            min_rel: 0.05,
        }
    }
}

/// A maximal run of consecutive flagged steps.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftWindow {
    /// Which derived metric drifted (`imbalance`, `comm_fraction`, ...).
    pub metric: String,
    /// First flagged step.
    pub start_step: u32,
    /// Last flagged step.
    pub end_step: u32,
    /// Rolling median the first flagged value was judged against.
    pub baseline: f64,
    /// The flagged value of largest absolute deviation in the window.
    pub peak: f64,
}

/// Consistency factor making MAD comparable to a Gaussian sigma.
const MAD_TO_SIGMA: f64 = 1.4826;

/// Scan `values` (one per entry of `steps`, ascending) with a rolling
/// median/MAD window and return the maximal runs of flagged steps.
///
/// The first `cfg.window` samples only seed the baseline and are never
/// flagged. After a sustained shift, the window fills with post-shift
/// values and the detector re-arms at the new level — so a step-function
/// workload produces a bounded drift window around the transition, not an
/// alarm that never clears.
pub fn detect_drift(
    metric: &str,
    steps: &[u32],
    values: &[f64],
    cfg: &DriftConfig,
) -> Vec<DriftWindow> {
    assert_eq!(steps.len(), values.len(), "one value per step");
    let mut out: Vec<DriftWindow> = Vec::new();
    if cfg.window == 0 || values.len() <= cfg.window {
        return out;
    }
    let mut open: Option<DriftWindow> = None;
    let mut scratch = vec![0.0; cfg.window];
    for i in cfg.window..values.len() {
        let base = &values[i - cfg.window..i];
        scratch.copy_from_slice(base);
        let m = median(&mut scratch);
        for (d, x) in scratch.iter_mut().zip(base) {
            *d = (x - m).abs();
        }
        let mad = median(&mut scratch);
        let scale = (MAD_TO_SIGMA * mad)
            .max(cfg.min_rel * m.abs())
            .max(f64::EPSILON);
        let dev = (values[i] - m).abs();
        if dev > cfg.nsigma * scale {
            match &mut open {
                Some(w) => {
                    w.end_step = steps[i];
                    if (w.peak - w.baseline).abs() < dev {
                        w.peak = values[i];
                    }
                }
                None => {
                    open = Some(DriftWindow {
                        metric: metric.to_string(),
                        start_step: steps[i],
                        end_step: steps[i],
                        baseline: m,
                        peak: values[i],
                    });
                }
            }
        } else if let Some(w) = open.take() {
            out.push(w);
        }
    }
    if let Some(w) = open.take() {
        out.push(w);
    }
    out
}

fn median(xs: &mut [f64]) -> f64 {
    // `total_cmp`, not `partial_cmp(..).unwrap()`: a NaN sample (e.g. a
    // 0/0 derived metric from a rank that recorded nothing) must not
    // panic the detector. NaNs sort to the ends under the IEEE total
    // order, leaving the median of the finite bulk intact.
    xs.sort_by(|a, b| a.total_cmp(b));
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        0.5 * (xs[n / 2 - 1] + xs[n / 2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic multiplicative jitter in roughly ±1.5%.
    fn jitter(seed: &mut u64) -> f64 {
        // splitmix64 step, mapped to [0.985, 1.015).
        *seed = seed.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = *seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^= z >> 31;
        0.985 + (z >> 11) as f64 / (1u64 << 53) as f64 * 0.03
    }

    #[test]
    fn step_function_is_flagged_once_around_the_transition() {
        let mut seed = 7;
        let steps: Vec<u32> = (0..80).collect();
        let values: Vec<f64> = steps
            .iter()
            .map(|&s| if s < 40 { 1.0 } else { 3.0 } * jitter(&mut seed))
            .collect();
        let windows = detect_drift("imbalance", &steps, &values, &DriftConfig::default());
        assert_eq!(windows.len(), 1, "exactly one drift window: {windows:?}");
        let w = &windows[0];
        assert_eq!(w.metric, "imbalance");
        assert_eq!(w.start_step, 40, "flag fires at the transition");
        assert!(
            w.end_step < 40 + 16 + 2,
            "alarm clears once the window re-fills at the new level"
        );
        assert!((w.baseline - 1.0).abs() < 0.1);
        assert!((w.peak - 3.0).abs() < 0.2);
    }

    #[test]
    fn stationary_series_stays_quiet() {
        let mut seed = 42;
        let steps: Vec<u32> = (0..80).collect();
        let values: Vec<f64> = steps.iter().map(|_| 1.0 * jitter(&mut seed)).collect();
        let windows = detect_drift("imbalance", &steps, &values, &DriftConfig::default());
        assert!(
            windows.is_empty(),
            "no drift on stationary data: {windows:?}"
        );
    }

    #[test]
    fn constant_series_with_noise_floor_stays_quiet() {
        // Zero MAD would make any nonzero deviation infinite-sigma; the
        // min_rel floor keeps sub-5% wiggles quiet.
        let steps: Vec<u32> = (0..40).collect();
        let mut values = vec![2.0; 40];
        values[30] = 2.05; // 2.5% deviation, below the 5% floor * 6 sigma
        let windows = detect_drift("comm_fraction", &steps, &values, &DriftConfig::default());
        assert!(windows.is_empty());
    }

    #[test]
    fn nan_samples_do_not_panic_and_real_shifts_still_flag() {
        // Regression: `partial_cmp(..).unwrap()` in the rolling median
        // panicked on NaN input. NaNs must be survivable — they appear
        // when a derived metric divides by a zero denominator — and must
        // not suppress detection of a genuine shift elsewhere.
        let mut seed = 11;
        let steps: Vec<u32> = (0..80).collect();
        let mut values: Vec<f64> = steps
            .iter()
            .map(|&s| if s < 40 { 1.0 } else { 3.0 } * jitter(&mut seed))
            .collect();
        values[5] = f64::NAN;
        values[20] = f64::NAN;
        let windows = detect_drift("imbalance", &steps, &values, &DriftConfig::default());
        assert!(
            windows
                .iter()
                .any(|w| w.start_step >= 40 && w.start_step <= 42),
            "the step shift is still flagged despite NaN history: {windows:?}"
        );

        // All-NaN input: nothing sensible to flag, but no panic either.
        let all_nan = vec![f64::NAN; 80];
        let _ = detect_drift("imbalance", &steps, &all_nan, &DriftConfig::default());
    }

    #[test]
    fn short_series_never_flags() {
        let steps: Vec<u32> = (0..10).collect();
        let values = vec![1.0; 10];
        assert!(detect_drift("x", &steps, &values, &DriftConfig::default()).is_empty());
    }

    #[test]
    fn two_separate_shifts_give_two_windows() {
        let steps: Vec<u32> = (0..120).collect();
        let values: Vec<f64> = steps
            .iter()
            .map(|&s| match s {
                0..=39 => 1.0,
                40..=79 => 4.0,
                _ => 1.0,
            })
            .collect();
        let windows = detect_drift("imbalance", &steps, &values, &DriftConfig::default());
        assert_eq!(windows.len(), 2, "{windows:?}");
        assert_eq!(windows[0].start_step, 40);
        assert_eq!(windows[1].start_step, 80);
    }
}
