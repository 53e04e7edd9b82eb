//! Property tests of the analytic model: the Eq. 1 lower bounds must be
//! monotone in each argument, and the Eq. 5 cost of the CA all-pairs
//! algorithm must degenerate to Plimpton's particle decomposition at
//! `c = 1` and to his force decomposition at `c = √p` (§III.B).

use nbody_model::{
    bandwidth_lower_bound, ca_all_pairs, force_decomposition, latency_lower_bound,
    particle_decomposition,
};
use proptest::prelude::*;

proptest! {
    #[test]
    fn lower_bounds_monotone_in_flops(
        flops in 1.0f64..1e12,
        p in 1.0f64..1e6,
        m in 1.0f64..1e6,
        factor in 1.0f64..1e3,
    ) {
        // More work to communicate for: the bounds cannot drop.
        prop_assert!(latency_lower_bound(flops * factor, p, m) >= latency_lower_bound(flops, p, m));
        prop_assert!(bandwidth_lower_bound(flops * factor, p, m) >= bandwidth_lower_bound(flops, p, m));
    }

    #[test]
    fn lower_bounds_monotone_in_processors_and_memory(
        flops in 1.0f64..1e12,
        p in 1.0f64..1e6,
        m in 1.0f64..1e6,
        factor in 1.0f64..1e3,
    ) {
        // More processors or more memory per processor: the bounds cannot
        // rise (the "lower lower bound" of §II.A).
        prop_assert!(latency_lower_bound(flops, p * factor, m) <= latency_lower_bound(flops, p, m));
        prop_assert!(bandwidth_lower_bound(flops, p * factor, m) <= bandwidth_lower_bound(flops, p, m));
        prop_assert!(latency_lower_bound(flops, p, m * factor) <= latency_lower_bound(flops, p, m));
        prop_assert!(bandwidth_lower_bound(flops, p, m * factor) <= bandwidth_lower_bound(flops, p, m));
    }

    #[test]
    fn lower_bound_scaling_is_exact_in_memory(
        flops in 1.0f64..1e12,
        p in 1.0f64..1e6,
        m in 1.0f64..1e6,
    ) {
        // S scales as 1/M², W as 1/M: doubling M (a power of two, so f64
        // division is exact) quarters S and halves W.
        prop_assert_eq!(
            latency_lower_bound(flops, p, 2.0 * m) * 4.0,
            latency_lower_bound(flops, p, m)
        );
        prop_assert_eq!(
            bandwidth_lower_bound(flops, p, 2.0 * m) * 2.0,
            bandwidth_lower_bound(flops, p, m)
        );
    }

    #[test]
    fn eq5_at_c1_recovers_particle_decomposition(
        n_exp in 8u32..24,
        p_exp in 2u32..12,
    ) {
        let n = 1u64 << n_exp;
        let p = 1u64 << p_exp;
        let ca = ca_all_pairs(n, p, 1);
        let pd = particle_decomposition(n, p);
        // c = 1: one row per team, a pure ring pipeline with no skew: `p`
        // shifts, the particle decomposition's count. The word count gains
        // only the O(n/p) copy terms.
        prop_assert_eq!(ca.messages, pd.messages);
        prop_assert!(ca.words >= pd.words);
        prop_assert!(ca.words <= pd.words * (1.0 + 3.0 / p as f64));
    }

    #[test]
    fn eq5_at_c_sqrt_p_recovers_force_decomposition(
        n_exp in 8u32..24,
        k in 1u32..8,
    ) {
        // p = 4^k so that √p = 2^k is exact.
        let n = 1u64 << n_exp;
        let p = 1u64 << (2 * k);
        let c = 1u64 << k;
        let ca = ca_all_pairs(n, p, c);
        let fd = force_decomposition(n, p);
        // Messages: one skew or one shift per rank (rows k ≥ 1 stay on the
        // block their skew brought) plus 2·log₂c collective messages vs the
        // force decomposition's log₂p = 2k — same O(log p) shape.
        prop_assert_eq!(ca.messages, 1.0 + 2.0 * k as f64);
        prop_assert_eq!(fd.messages, 2.0 * k as f64);
        // Words: n/√p shift + 3·n/√p collective copies = 4× the force
        // decomposition's n/√p, exactly (powers of two divide exactly).
        prop_assert_eq!(ca.words, 4.0 * fd.words);
    }
}
