//! Expected wire-traffic derivation for schedule conformance checking.
//!
//! The schedule generators in [`schedule`](crate::schedule) already emit
//! each algorithm's exact per-rank operation stream for the discrete-event
//! simulator. This module re-uses them to predict the point-to-point
//! message multiset a *real* probed run should put on the wire, in the form
//! the conformance checker in `nbody-wireprobe` consumes: one
//! [`ExpectedMsg`] per skew/shift send, with payload sizes in particle
//! counts (the unit both the schedule's 52-byte wire math and the
//! transport's in-memory byte counts agree on).

use nbody_comm::{ExpectedMsg, ExpectedSchedule};
use nbody_netsim::Op;
use nbody_physics::particle::PARTICLE_WIRE_BYTES;
use nbody_physics::{Boundary, Domain};

use crate::cutoff::validate_cutoff;
use crate::dist::{block_range, team_grid_dims};
use crate::grid::ProcGrid;
use crate::schedule::{AllPairsParams, CutoffParams};
use crate::sim::Method;
use crate::window::CutoffWindow;

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

/// Derive the per-run expected message multiset for `spec`.
///
/// * [`Method::CaAllPairs`]: full size checking — the id-block
///   distribution is static, so every skew/shift payload is predicted
///   exactly, repeated once per timestep.
/// * [`Method::Ca1dCutoff`] / [`Method::Ca2dCutoff`]: count-only checking
///   (`size_checked = false`) — re-assignment drifts the per-team block
///   sizes between steps, but the window structure (who talks to whom, how
///   many times) is static.
/// * Other methods have no CA schedule twin and return `Err`.
pub fn expected_schedule(spec: &WireScheduleSpec) -> Result<ExpectedSchedule, String> {
    match spec.method {
        Method::CaAllPairs { c } => all_pairs_schedule(spec, c),
        Method::Ca1dCutoff { c } => cutoff_schedule(spec, c, false),
        Method::Ca2dCutoff { c } => cutoff_schedule(spec, c, true),
        m => Err(format!(
            "{m:?} has no communication-schedule twin; conformance checking supports \
             the CA methods (ca-all-pairs, ca-1d-cutoff, ca-2d-cutoff)"
        )),
    }
}

/// Collect the checked-phase sends of one force evaluation of `program`,
/// repeated `steps` times (per-rank program order within each step).
fn sends_per_step<'a, F>(p: usize, steps: usize, program: F) -> Vec<ExpectedMsg>
where
    F: Fn(usize) -> Box<dyn Iterator<Item = Op> + 'a>,
{
    let mut per_step: Vec<ExpectedMsg> = Vec::new();
    for rank in 0..p {
        for op in program(rank) {
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
    let mut msgs = Vec::with_capacity(per_step.len() * steps);
    for _ in 0..steps {
        msgs.extend_from_slice(&per_step);
    }
    msgs
}

fn all_pairs_schedule(spec: &WireScheduleSpec, c: usize) -> Result<ExpectedSchedule, String> {
    ProcGrid::new_all_pairs(spec.p, c).map_err(|e| e.to_string())?;
    let params = AllPairsParams::new(spec.p, c, spec.n);
    let msgs = sends_per_step(spec.p, spec.steps, |rank| params.program(rank));
    Ok(ExpectedSchedule {
        msgs,
        size_checked: true,
        detail: format!(
            "ca-all-pairs n={} p={} c={} steps={}",
            spec.n, spec.p, c, spec.steps
        ),
    })
}

fn cutoff_schedule(
    spec: &WireScheduleSpec,
    c: usize,
    two_d: bool,
) -> Result<ExpectedSchedule, String> {
    let r_c = spec.cutoff.ok_or_else(|| {
        format!("{:?} needs a cutoff radius to size the window", spec.method)
    })?;
    let grid = ProcGrid::new(spec.p, c).map_err(|e| e.to_string())?;
    let teams = grid.teams();
    let periodic = spec.boundary == Boundary::Periodic;
    let dims = if two_d {
        team_grid_dims(teams)
    } else {
        (teams, 1)
    };
    let window = CutoffWindow::from_cutoff(&spec.domain, dims, two_d, periodic, r_c);
    validate_cutoff(&window, teams, c).map_err(|e| e.to_string())?;
    // Block sizes are data-dependent (re-assignment); any placeholder
    // works because count-only mode ignores payload sizes.
    let block_sizes: Vec<usize> = (0..teams)
        .map(|b| block_range(spec.n, teams, b).len())
        .collect();
    let params = CutoffParams::new(grid, window, block_sizes);
    let msgs = sends_per_step(spec.p, spec.steps, |rank| params.program(rank));
    Ok(ExpectedSchedule {
        msgs,
        size_checked: false,
        detail: format!(
            "{}{} n={} p={} c={} steps={} cutoff={}",
            if two_d { "ca-2d-cutoff" } else { "ca-1d-cutoff" },
            if periodic { " (periodic)" } else { "" },
            spec.n, spec.p, c, spec.steps, r_c
        ),
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
        assert!(!s.msgs.is_empty());
        assert!(s.detail.contains("ca-1d-cutoff"));
    }

    #[test]
    fn cutoff_without_radius_is_rejected() {
        let sp = spec(Method::Ca1dCutoff { c: 1 }, 40, 4, 2);
        assert!(expected_schedule(&sp).is_err());
    }

    #[test]
    fn unsupported_methods_are_rejected() {
        let err = expected_schedule(&spec(Method::ParticleRing, 16, 4, 1)).unwrap_err();
        assert!(err.contains("no communication-schedule twin"));
    }
}
