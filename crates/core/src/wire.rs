//! Expected wire-traffic derivation for schedule conformance checking.
//!
//! The CA schedule generator in [`schedule`](crate::schedule) already emits
//! the exact per-rank operation stream of a [`Layout`] for the
//! discrete-event simulator (one generator: all-pairs is the cutoff
//! schedule on the full team ring). This module re-uses it to predict the
//! point-to-point message multiset a *real* probed run — laid out by the
//! same `Layout::new` — should put on the wire, in the form
//! the conformance checker in `nbody-wireprobe` consumes: one
//! [`ExpectedMsg`] per skew, shift and re-assign send, with payload sizes
//! in particle counts (the unit both the schedule's 52-byte wire math and
//! the transport's in-memory byte counts agree on).

use nbody_comm::{ExpectedMsg, ExpectedSchedule};
use nbody_netsim::Op;
use nbody_physics::particle::PARTICLE_WIRE_BYTES;
use nbody_physics::{Boundary, Domain};

use crate::schedule::id_block_sizes;
use crate::sim::{Layout, Method};

/// Run parameters the expected schedule is derived from — the same inputs
/// that configure [`run_distributed`](crate::sim::run_distributed), minus
/// physics that cannot change the message pattern (force strength,
/// integrator, dt).
#[derive(Debug, Clone)]
pub struct WireScheduleSpec {
    /// Force-evaluation method.
    pub method: Method,
    /// Total particles.
    pub n: usize,
    /// World ranks.
    pub p: usize,
    /// Timesteps.
    pub steps: usize,
    /// Simulation domain (sizes the cutoff windows).
    pub domain: Domain,
    /// Boundary condition (periodic windows wrap).
    pub boundary: Boundary,
    /// Cutoff radius, required by the cutoff methods.
    pub cutoff: Option<f64>,
}

/// Derive the per-run expected message multiset for `spec`: the checked
/// sends of the schedule of the run's own [`Layout`], once per timestep.
///
/// * Layouts that never re-assign (id blocks — [`Method::CaAllPairs`]) get
///   full size checking: the distribution is static, so every skew/shift
///   payload is predicted exactly.
/// * Layouts that do ([`Method::Ca1dCutoff`] / [`Method::Ca2dCutoff`]) get
///   count-only checking (`size_checked = false`) — re-assignment drifts
///   the per-team block sizes between steps, but the window structure (who
///   talks to whom, how many times) is static, re-assignment's own
///   neighbour exchange included. Any placeholder sizes work then; the
///   id-block ones are used.
/// * Methods that replicate nothing have no CA schedule twin and return
///   `Err`.
pub fn expected_schedule(spec: &WireScheduleSpec) -> Result<ExpectedSchedule, String> {
    if !spec.method.is_ca() {
        return Err(spec.method.not_ca());
    }
    let layout = Layout::new(
        spec.method,
        spec.p,
        &spec.domain,
        spec.boundary,
        spec.cutoff,
    )?;
    let params = layout.schedule(id_block_sizes(spec.n, layout.grid.teams()));
    // Per-rank program order within a step.
    let mut per_step: Vec<ExpectedMsg> = Vec::new();
    for rank in 0..spec.p {
        for op in params.program(rank) {
            if let Op::Send { to, bytes, phase } = op {
                per_step.push(ExpectedMsg {
                    src: rank as u32,
                    dst: to as u32,
                    phase,
                    count: bytes / PARTICLE_WIRE_BYTES as u64,
                });
            }
        }
    }
    let mut msgs = Vec::with_capacity(per_step.len() * spec.steps);
    for _ in 0..spec.steps {
        msgs.extend_from_slice(&per_step);
    }
    let mut detail = format!(
        "{}{} n={} p={} c={} steps={}",
        layout.name,
        if spec.boundary == Boundary::Periodic {
            " (periodic)"
        } else {
            ""
        },
        spec.n,
        spec.p,
        layout.grid.c(),
        spec.steps
    );
    if let Some(r_c) = spec.cutoff {
        detail.push_str(&format!(" cutoff={r_c}"));
    }
    Ok(ExpectedSchedule {
        msgs,
        size_checked: layout.neighbourhood().is_none(),
        detail,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbody_comm::Phase;

    fn spec(method: Method, n: usize, p: usize, steps: usize) -> WireScheduleSpec {
        WireScheduleSpec {
            method,
            n,
            p,
            steps,
            domain: Domain::unit(),
            boundary: Boundary::Reflective,
            cutoff: None,
        }
    }

    #[test]
    fn all_pairs_schedule_counts_scale_with_steps() {
        // p=4 c=1: 4 teams, 4 shift steps, no skew -> 16 sends/step.
        let one = expected_schedule(&spec(Method::CaAllPairs { c: 1 }, 32, 4, 1)).unwrap();
        assert!(one.size_checked);
        assert_eq!(one.msgs.len(), 16);
        assert!(one.msgs.iter().all(|m| m.phase == Phase::Shift));
        assert!(one.msgs.iter().all(|m| m.count == 8), "32/4 particles each");
        let three = expected_schedule(&spec(Method::CaAllPairs { c: 1 }, 32, 4, 3)).unwrap();
        assert_eq!(three.msgs.len(), 48);
    }

    #[test]
    fn replicated_all_pairs_schedule_includes_skew() {
        // p=8 c=2: 4 teams, rows k=1 skew (4 sends), 2 shift steps x 8.
        let s = expected_schedule(&spec(Method::CaAllPairs { c: 2 }, 24, 8, 1)).unwrap();
        let skews = s.msgs.iter().filter(|m| m.phase == Phase::Skew).count();
        let shifts = s.msgs.iter().filter(|m| m.phase == Phase::Shift).count();
        assert_eq!(skews, 4);
        assert_eq!(shifts, 16);
    }

    #[test]
    fn cutoff_schedule_is_count_only() {
        let mut sp = spec(Method::Ca1dCutoff { c: 1 }, 40, 4, 2);
        sp.cutoff = Some(0.25);
        let s = expected_schedule(&sp).unwrap();
        assert!(!s.size_checked);
        // Four clipped slabs: 1 + 2 + 2 + 1 re-assign sends in each step.
        let reassign = s.msgs.iter().filter(|m| m.phase == Phase::Reassign);
        assert_eq!(reassign.count(), 2 * 6);
        assert!(s.detail.contains("ca-1d-cutoff"));
    }

    #[test]
    fn cutoff_without_radius_is_rejected() {
        let sp = spec(Method::Ca1dCutoff { c: 1 }, 40, 4, 2);
        assert!(expected_schedule(&sp).is_err());
    }

    #[test]
    fn unsupported_methods_are_rejected() {
        let err = expected_schedule(&spec(Method::NaiveAllgather, 16, 4, 1)).unwrap_err();
        assert!(err.contains("no communication-schedule twin"));
    }
}
