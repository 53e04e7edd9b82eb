//! Communication lower bounds (§II.A of the paper).
//!
//! From the Ballard et al. framework: with memory for `M` particles per
//! processor and `H(M) = O(M²)` force evaluations computable from `M`
//! operands, a computation of `F` total force evaluations on `p` processors
//! needs at least
//!
//! ```text
//! S = Ω(F / (p·M²))    messages   (latency,   Eq. 1/2/3)
//! W = Ω(F / (p·M))     words      (bandwidth, Eq. 1/2/3)
//! ```
//!
//! All quantities here are in *particles* (words) and *messages*; constant
//! factors are 1 by convention, so "meets the bound within a constant"
//! checks compare against these expressions directly.

/// Total force evaluations of an all-pairs timestep (`F = n²`).
pub fn flops_all_pairs(n: u64) -> u64 {
    n * n
}

/// Per-particle interaction count `k` for a 1D cutoff (Eq. 7):
/// `k = (2 r_c / l) · n`.
pub fn k_cutoff_1d(n: u64, rc_over_l: f64) -> f64 {
    2.0 * rc_over_l * n as f64
}

/// Generic latency lower bound `S = F / (p·M²)` (Eq. 1).
pub fn latency_lower_bound(flops: f64, p: f64, memory: f64) -> f64 {
    flops / (p * memory * memory)
}

/// Generic bandwidth lower bound `W = F / (p·M)` (Eq. 1).
pub fn bandwidth_lower_bound(flops: f64, p: f64, memory: f64) -> f64 {
    flops / (p * memory)
}

/// Memory per processor under `c`-fold replication (Eq. 4/8):
/// `M = c·n/p` particles.
pub fn memory_per_proc(n: u64, p: u64, c: u64) -> f64 {
    c as f64 * n as f64 / p as f64
}

/// Latency lower bound of a direct all-pairs timestep (Eq. 2).
pub fn s_direct(n: u64, p: u64, memory: f64) -> f64 {
    latency_lower_bound(flops_all_pairs(n) as f64, p as f64, memory)
}

/// Bandwidth lower bound of a direct all-pairs timestep (Eq. 2).
pub fn w_direct(n: u64, p: u64, memory: f64) -> f64 {
    bandwidth_lower_bound(flops_all_pairs(n) as f64, p as f64, memory)
}

/// Latency lower bound with a cutoff (Eq. 3).
pub fn s_cutoff(n: u64, k: f64, p: u64, memory: f64) -> f64 {
    latency_lower_bound(n as f64 * k, p as f64, memory)
}

/// Bandwidth lower bound with a cutoff (Eq. 3).
pub fn w_cutoff(n: u64, k: f64, p: u64, memory: f64) -> f64 {
    bandwidth_lower_bound(n as f64 * k, p as f64, memory)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_pairs_bounds_with_minimal_memory() {
        // M = n/p (c = 1): S = p, W = n — the particle-decomposition costs.
        let (n, p) = (1 << 16, 1 << 8);
        let m = memory_per_proc(n, p, 1);
        assert_eq!(s_direct(n, p, m), p as f64);
        assert_eq!(w_direct(n, p, m), n as f64);
    }

    #[test]
    fn all_pairs_bounds_with_max_replication() {
        // M = n/sqrt(p) (c = sqrt(p)): S = 1, W = n/sqrt(p) — the force
        // decomposition costs.
        let (n, p) = (1 << 16, 1 << 8);
        let sqrt_p = 1 << 4;
        let m = memory_per_proc(n, p, sqrt_p);
        assert_eq!(s_direct(n, p, m), 1.0);
        assert_eq!(w_direct(n, p, m), (n / sqrt_p) as f64);
    }

    #[test]
    fn more_memory_lowers_both_bounds() {
        let (n, p) = (1 << 14, 1 << 6);
        let mut last_s = f64::INFINITY;
        let mut last_w = f64::INFINITY;
        for c in [1u64, 2, 4, 8] {
            let m = memory_per_proc(n, p, c);
            let s = s_direct(n, p, m);
            let w = w_direct(n, p, m);
            assert!(s < last_s && w < last_w, "c={c}");
            // The "lower" lower bound: S drops as c², W as c.
            assert_eq!(s * (c * c) as f64, s_direct(n, p, memory_per_proc(n, p, 1)));
            assert_eq!(w * c as f64, w_direct(n, p, memory_per_proc(n, p, 1)));
            last_s = s;
            last_w = w;
        }
    }

    #[test]
    fn cutoff_bounds_scale_with_k() {
        let (n, p) = (1 << 16, 1 << 8);
        let m = memory_per_proc(n, p, 1);
        let k_full = (n - 1) as f64;
        // With k ~ n the cutoff bound approaches the direct bound.
        let s_full = s_cutoff(n, k_full, p, m);
        assert!((s_full - s_direct(n, p, m)).abs() / s_direct(n, p, m) < 0.01);
        // Halving the cutoff halves k and both bounds.
        let k = k_cutoff_1d(n, 0.25);
        let k2 = k_cutoff_1d(n, 0.125);
        assert_eq!(k2 * 2.0, k);
        assert_eq!(s_cutoff(n, k2, p, m) * 2.0, s_cutoff(n, k, p, m));
        assert_eq!(w_cutoff(n, k2, p, m) * 2.0, w_cutoff(n, k, p, m));
    }

    #[test]
    fn k_cutoff_formula() {
        // r_c = l/4 (the paper's experimental choice) gives k = n/2.
        assert_eq!(k_cutoff_1d(1000, 0.25), 500.0);
    }
}
