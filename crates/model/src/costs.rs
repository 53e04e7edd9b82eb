//! Asymptotic algorithm costs (§II.B, §III.B, §IV.B of the paper), in
//! messages (`S`) and words (`W`) along the critical path, constants set
//! to the leading terms of the paper's analyses.

/// Latency and bandwidth cost of one timestep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommCost {
    /// Messages along the critical path.
    pub messages: f64,
    /// Words (particles) along the critical path.
    pub words: f64,
}

/// Particle decomposition (§II.B): `S = O(p)`, `W = O(n)`.
pub fn particle_decomposition(n: u64, p: u64) -> CommCost {
    CommCost {
        messages: p as f64,
        words: n as f64,
    }
}

/// Force decomposition (§II.B): `S = O(log p)`, `W = O(n/√p)`.
pub fn force_decomposition(n: u64, p: u64) -> CommCost {
    CommCost {
        messages: (p as f64).log2().max(1.0),
        words: n as f64 / (p as f64).sqrt(),
    }
}

/// The CA all-pairs algorithm (Eq. 5): `S = O(p/c²)`, `W = O(n/c)`, plus
/// the `log c` collective terms the paper's analysis carries:
/// broadcast/reduce of `cn/p` words in `log c` messages each. `S` counts
/// what the busiest rank sends: `p/c²` shifts, and for `1 < c < √p` the
/// skew of a row `k ≥ 1`. At `c = √p` such a row's one shift step stays on
/// the block its skew brought, so every rank sends one message.
pub fn ca_all_pairs(n: u64, p: u64, c: u64) -> CommCost {
    let skew = u64::from(c > 1 && c * c < p);
    let (n, p, c) = (n as f64, p as f64, c as f64);
    let collective_msgs = 2.0 * c.log2().max(0.0);
    let collective_words = 2.0 * c * n / p;
    CommCost {
        messages: p / (c * c) + skew as f64 + collective_msgs,
        words: n / c + c * n / p + collective_words,
    }
}

/// Spatial decomposition with a cutoff (§II.C): `S = O(m^d)`,
/// `W = O(n·m^d/p)`, where `m` is the processor span of the cutoff and `d`
/// the dimensionality.
pub fn spatial_decomposition(n: u64, p: u64, m: u64, d: u32) -> CommCost {
    let neighbors = (m as f64).powi(d as i32);
    CommCost {
        messages: neighbors,
        words: n as f64 * neighbors / p as f64,
    }
}

/// Neutral-territory methods (§II.D): `S = O(1)`, `W = O(n·m^d/p^1.5)`.
pub fn neutral_territory(n: u64, p: u64, m: u64, d: u32) -> CommCost {
    CommCost {
        messages: 1.0,
        words: n as f64 * (m as f64).powi(d as i32) / (p as f64).powf(1.5),
    }
}

/// The CA 1D-cutoff algorithm (§IV.B): `S = O(m/c)`, `W = O(m·n/p)`, plus
/// collective terms. `S` counts what the busiest row sends: `⌈2m/c⌉`
/// shifts, and for `c > 1` the skew. At `c = 1` that is `2m`, because the
/// step that brings a row home updates from the copy it holds. At
/// `c = 2m + 1` it is the skew alone, because the one shift step takes a
/// buffer once around the window and back to the rank that holds it.
pub fn ca_cutoff_1d(n: u64, p: u64, c: u64, m: u64) -> CommCost {
    let shifts = if c == 2 * m + 1 {
        0
    } else {
        (2 * m).div_ceil(c)
    };
    let sends = shifts + u64::from(c > 1);
    let (n, p, c, m) = (n as f64, p as f64, c as f64, m as f64);
    let collective_msgs = 2.0 * c.log2().max(0.0);
    let collective_words = 2.0 * c * n / p;
    CommCost {
        messages: sends as f64 + collective_msgs,
        words: 2.0 * m * n / p + c * n / p + collective_words,
    }
}

/// Ratio of an algorithm's cost to the lower bound; bounded ratios across
/// sweeps certify communication-optimality (tests below and in
/// `tests/optimality.rs`).
pub fn optimality_ratio(cost: CommCost, s_bound: f64, w_bound: f64) -> (f64, f64) {
    (
        cost.messages / s_bound.max(1e-300),
        cost.words / w_bound.max(1e-300),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::*;

    #[test]
    fn ca_interpolates_between_plimpton_decompositions() {
        let (n, p) = (1 << 16, 1 << 12);
        // c = 1: particle decomposition shape.
        let ca1 = ca_all_pairs(n, p, 1);
        let pd = particle_decomposition(n, p);
        assert!((ca1.messages - (pd.messages + 1.0)).abs() < 2.0);
        assert!(ca1.words / pd.words < 1.1);
        // c = sqrt(p): force decomposition shape (log p msgs, n/sqrt(p) words).
        let sqrt_p = 1 << 6;
        let ca_max = ca_all_pairs(n, p, sqrt_p);
        let fd = force_decomposition(n, p);
        assert!(ca_max.messages <= 3.0 * fd.messages + 3.0);
        assert!(ca_max.words <= 4.0 * fd.words);
    }

    #[test]
    fn ca_all_pairs_meets_lower_bound_for_all_c() {
        // The optimality proof of §III.B: with M = cn/p, the leading terms
        // of Eq. 5 match Eq. 2 within constants.
        let (n, p) = (1u64 << 18, 1u64 << 12);
        for c in [1u64, 2, 4, 8, 16, 32, 64] {
            let m = memory_per_proc(n, p, c);
            let cost = ca_all_pairs(n, p, c);
            let (rs, rw) = optimality_ratio(cost, s_direct(n, p, m), w_direct(n, p, m));
            assert!(
                (0.9..20.0).contains(&rs),
                "latency ratio out of band: c={c} ratio={rs}"
            );
            assert!(
                (0.9..20.0).contains(&rw),
                "bandwidth ratio out of band: c={c} ratio={rw}"
            );
        }
    }

    #[test]
    fn ca_cutoff_meets_lower_bound_for_all_c() {
        // §IV.B: S_1D = O(nk/(pM²)), W_1D = O(nk/(pM)) with k = 2mc n/p·...
        // Using k from Eq. 7 with m teams of span: rc/l = mc/p.
        let (n, p) = (1u64 << 18, 1u64 << 10);
        for c in [1u64, 2, 4, 8] {
            let teams = p / c;
            let m = teams / 4; // rc = l/4 of each team row
            let rc_over_l = m as f64 / teams as f64;
            let k = k_cutoff_1d(n, rc_over_l);
            let mem = memory_per_proc(n, p, c);
            let cost = ca_cutoff_1d(n, p, c, m);
            let (rs, rw) = optimality_ratio(cost, s_cutoff(n, k, p, mem), w_cutoff(n, k, p, mem));
            assert!((0.5..40.0).contains(&rs), "c={c} rs={rs}");
            assert!((0.5..40.0).contains(&rw), "c={c} rw={rw}");
        }
    }

    #[test]
    fn spatial_is_optimal_only_at_minimal_memory() {
        let (n, p, m, d) = (1u64 << 18, 1u64 << 10, 4u64, 1u32);
        let k = n as f64 * m as f64 / p as f64 * 2.0;
        let cost = spatial_decomposition(n, p, m, d);
        // Optimal at M = n/p…
        let mem1 = memory_per_proc(n, p, 1);
        let (_, rw1) = optimality_ratio(cost, s_cutoff(n, k, p, mem1), w_cutoff(n, k, p, mem1));
        assert!(rw1 < 4.0, "rw1={rw1}");
        // …but far from the bound with sqrt(p) replication memory.
        let memx = memory_per_proc(n, p, (p as f64).sqrt() as u64);
        let (_, rwx) = optimality_ratio(cost, s_cutoff(n, k, p, memx), w_cutoff(n, k, p, memx));
        assert!(rwx > 8.0, "rwx={rwx}");
    }

    #[test]
    fn neutral_territory_beats_spatial_in_bandwidth() {
        let (n, p, m, d) = (1u64 << 18, 1u64 << 10, 4u64, 3u32);
        let nt = neutral_territory(n, p, m, d);
        let sp = spatial_decomposition(n, p, m, d);
        assert!(nt.words < sp.words);
        assert!(nt.messages < sp.messages);
    }

    #[test]
    fn replication_reduces_messages_quadratically() {
        let (n, p) = (1u64 << 16, 1u64 << 12);
        let s1 = ca_all_pairs(n, p, 1).messages;
        let s4 = ca_all_pairs(n, p, 4).messages;
        // Leading term p/c²: ratio close to 16 (collective terms shave a bit).
        let ratio = s1 / s4;
        assert!(ratio > 10.0, "ratio={ratio}");
    }
}
