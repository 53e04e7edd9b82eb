//! Health-monitor configuration.

/// How often the health layer checks. Every monitor runs, the replica
/// fingerprint cross-check whenever the schedule replicates state
/// (`c ≥ 2`). What a run injects to exercise them is its fault plan's
/// business (`nan` and `corrupt` events).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthConfig {
    /// Check cadence in steps: invariants are reduced and the sentinels
    /// scan on steps where `step % every == 0` (the cross-check runs on
    /// every recovery attempt). `1` checks every step; larger values trade
    /// detection latency for overhead.
    pub every: u64,
}

impl HealthConfig {
    /// Every monitor on, checked every step.
    pub fn enabled() -> HealthConfig {
        HealthConfig { every: 1 }
    }

    /// Whether monitors should run on this step.
    pub fn checks_step(&self, step: u64) -> bool {
        step.is_multiple_of(self.every.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cadence_gates_checks() {
        let mut cfg = HealthConfig::enabled();
        assert!(cfg.checks_step(0) && cfg.checks_step(1) && cfg.checks_step(7));
        cfg.every = 4;
        assert!(cfg.checks_step(0) && cfg.checks_step(8));
        assert!(!cfg.checks_step(3) && !cfg.checks_step(9));
        cfg.every = 0; // degenerate cadence is clamped, not a panic
        assert!(cfg.checks_step(5));
    }
}
