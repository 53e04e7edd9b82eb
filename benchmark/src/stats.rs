//! Order statistics for timing samples.
//!
//! Every timing the harness reports is a median with its quartiles and
//! sample count, never a mean: one preempted repetition on a 2-vCPU box
//! would otherwise own the number.

/// Median, quartiles and sample count of one set of samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// A value that was counted or derived, not sampled.
    pub fn exact(value: f64) -> Summary {
        Summary {
            n: 1,
            q1: value,
            median: value,
            q3: value,
        }
    }
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) of ascending `sorted`, linearly
/// interpolated between neighbours; 0 for no samples.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// `samples` in ascending order (NaN-free input assumed; NaNs sort last).
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median and quartiles of `samples`.
pub fn summarize(samples: &[f64]) -> Summary {
    let s = sorted(samples);
    Summary {
        n: s.len(),
        q1: quantile(&s, 0.25),
        median: quantile(&s, 0.5),
        q3: quantile(&s, 0.75),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_interpolate() {
        let s = summarize(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!((s.n, s.q1, s.median, s.q3), (5, 2.0, 3.0, 4.0));
        let s = summarize(&[1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.25, 1.5, 1.75));
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(quantile(&[7.0], 0.95), 7.0);
    }
}
