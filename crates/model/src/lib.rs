//! # nbody-model
//!
//! The analytic machinery of *“A Communication-Optimal N-Body Algorithm for
//! Direct Interactions”* (IPDPS 2013): communication lower bounds
//! (Eqs. 1–3), per-algorithm cost expressions (§II.B–D, Eq. 5, §IV.B),
//! the replicated memory model (Eqs. 4/8), and closed-form time/efficiency
//! predictions used to cross-validate the discrete-event simulator.

#![warn(missing_docs)]

pub mod bounds;
pub mod costs;
pub mod efficiency;

pub use bounds::{
    bandwidth_lower_bound, k_cutoff_1d, latency_lower_bound, memory_per_proc, s_cutoff, s_direct,
    w_cutoff, w_direct,
};
pub use costs::{
    ca_all_pairs, ca_cutoff_1d, force_decomposition, neutral_territory, optimality_ratio,
    particle_decomposition, spatial_decomposition, CommCost,
};
pub use efficiency::{efficiency, time_all_pairs, time_cutoff_1d, ModelParams};
