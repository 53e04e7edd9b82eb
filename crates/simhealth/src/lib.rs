//! Numerical-health observability for distributed N-body runs.
//!
//! The repo's other lenses answer "is the run *fast* and *fault-tolerant*?"
//! This crate answers the question they all silently assume: **is the
//! physics still correct?** Three independent monitors, all cheap enough
//! to leave on:
//!
//! 1. **Online invariants** ([`Invariants`]) — per-rank partial kinetic
//!    energy, momentum, and potential energy, harvested from state the
//!    kernels already touch and reduced once per step. For the laws the
//!    paper benchmarks, total energy and momentum are conserved, so a
//!    drifting series is a correctness alarm, not a performance one.
//! 2. **Non-finite sentinels** ([`scan_forces`], [`scan_state`]) — a NaN
//!    or Inf anywhere in forces or integrated state is *always* a bug or
//!    a blow-up. The scans blame the first offending (particle, field)
//!    so the flight recorder can name the culprit instead of shrugging.
//! 3. **Replica fingerprints** ([`state_fingerprint`]) — the CA
//!    algorithm's `c` replicas of each column must hold bit-identical
//!    state. An order-invariant fingerprint (built on the same FNV-1a
//!    hash the durable checkpoints use) makes silent divergence — a bad
//!    resync, memory corruption, a nondeterministic kernel — visible
//!    within one step via a single `u64` allgather down the column.
//!
//! The driver-side wiring lives in `ca-nbody` (`sim::Run::health`);
//! this crate is the pure, transport-free layer: the math, the hash, the
//! report/baseline formats, and the timeline post-processing.

mod config;
mod fingerprint;
mod invariants;
mod report;
mod sentinel;
mod summary;

pub use config::HealthConfig;
pub use fingerprint::state_fingerprint;
pub use invariants::Invariants;
pub use report::{HealthBaseline, HealthReport};
pub use sentinel::{scan_forces, scan_state, NonFiniteBlame};
pub use summary::HealthSummary;
