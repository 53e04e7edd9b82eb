//! Health-monitor configuration and deterministic fault injection.

/// Deterministic injection targets for exercising the health monitors.
///
/// Both injections fire **once**, at the named `(rank, step)`, and exist
/// so tests and CI can prove the detection paths work end-to-end: a NaN
/// written into a force accumulator must be blamed by the sentinel, and
/// a bit flipped in one replica's state must be caught by the
/// fingerprint cross-check within a step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HealthInjection {
    /// Write a NaN into the blamed rank's first force accumulator after
    /// the force reduction at `(rank, step)`.
    pub nan: Option<(usize, u64)>,
    /// Flip one mantissa bit of the first particle's position on the
    /// named replica rank at the start of `(rank, step)`.
    pub corrupt: Option<(usize, u64)>,
}

impl HealthInjection {
    /// No injections: the production configuration.
    pub fn none() -> HealthInjection {
        HealthInjection::default()
    }

    /// Parse a `RANK@STEP` injection spec (e.g. `"4@2"`).
    pub fn parse_target(spec: &str) -> Result<(usize, u64), String> {
        let (rank, step) = spec
            .split_once('@')
            .ok_or_else(|| format!("injection spec '{spec}' is not RANK@STEP"))?;
        let rank: usize = rank
            .trim()
            .parse()
            .map_err(|_| format!("injection spec '{spec}': bad rank '{rank}'"))?;
        let step: u64 = step
            .trim()
            .parse()
            .map_err(|_| format!("injection spec '{spec}': bad step '{step}'"))?;
        Ok((rank, step))
    }
}

/// How often the health layer checks, and what it injects. Every monitor
/// runs, the replica fingerprint cross-check whenever the schedule
/// replicates state (`c ≥ 2`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthConfig {
    /// Check cadence in steps: invariants are reduced and the sentinels
    /// scan on steps where `step % every == 0` (the cross-check runs on
    /// every recovery attempt). `1` checks every step; larger values trade
    /// detection latency for overhead.
    pub every: u64,
    /// Deterministic fault injection (tests/CI only).
    pub injection: HealthInjection,
}

impl HealthConfig {
    /// Every monitor on, checked every step, no injections.
    pub fn enabled() -> HealthConfig {
        HealthConfig {
            every: 1,
            injection: HealthInjection::none(),
        }
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
    fn parse_target_accepts_rank_at_step() {
        assert_eq!(HealthInjection::parse_target("4@2"), Ok((4, 2)));
        assert_eq!(HealthInjection::parse_target(" 0@17 "), Ok((0, 17)));
        assert!(HealthInjection::parse_target("4").is_err());
        assert!(HealthInjection::parse_target("x@2").is_err());
        assert!(HealthInjection::parse_target("4@").is_err());
    }

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
