//! The harness's own SPMD loop: a mirror of the matching `sim.rs` arm built
//! only from the program's public functions, so spans can be recorded
//! around each layer from outside the program.
//!
//! The loop's final particles must equal `run_distributed`'s bit for bit
//! (checked on every traced run), so the mirror cannot drift silently.

use std::cell::Cell;
use std::time::Instant;

use ca_nbody::cutoff::row_steps;
use ca_nbody::dist::{id_block_subset, spatial_subset_1d, team_of_x};
use ca_nbody::reassign::reassign_particles;
use ca_nbody::window::Window;
use ca_nbody::{
    ca_all_pairs_forces, ca_cutoff_forces, GridComms, Method, ProcGrid, Window1dPeriodic,
};
use nbody_comm::{CommStats, Communicator};
use nbody_physics::particle::reset_forces;
use nbody_physics::{Boundary, ForceLaw, Integrator, Particle, SemiImplicitEuler, Vec2};

use crate::alloc_count::thread_totals;
use crate::spans::Probe;
use crate::workload::{Workload, DT};

/// Span names of the driver sections inside a `step` span.
pub const SECTIONS: [&str; 3] = ["integrate", "force", "reassign"];

/// What one rank of the mirrored loop hands back.
#[derive(Debug, Clone)]
pub struct RankOut {
    /// Particles this rank owns at the end (empty on non-leaders).
    pub particles: Vec<Particle>,
    /// The rank's communication statistics.
    pub stats: CommStats,
    /// Wall seconds of the step loop (set-up excluded).
    pub loop_s: f64,
    /// Particles this rank handed to another team in re-assignment.
    pub migrants: u64,
    /// Allocations the rank's thread made inside the step loop.
    pub allocs: u64,
    /// Bytes of those allocations.
    pub alloc_bytes: u64,
}

/// Run `steps` timesteps of `w` on this rank. `world` is the rank's world
/// communicator (bare or wrapped), `probe` receives the driver sections.
pub fn mirror_rank<C: Communicator, F: ForceLaw, P: Probe>(
    w: &Workload,
    law: &F,
    steps: usize,
    world: &C,
    probe: &P,
    initial: &[Particle],
) -> RankOut {
    let integrator = SemiImplicitEuler;
    let (domain, boundary) = (&w.domain, w.boundary);
    // `Some(r_c)` selects Algorithm 2's arm of `sim.rs` (spatial blocks, a
    // periodic window, re-assignment), `None` Algorithm 1's (id blocks).
    let (grid, r_c) = match w.method {
        Method::CaAllPairs { c } => (ProcGrid::new_all_pairs(w.p, c), None),
        Method::Ca1dCutoff { c } if boundary == Boundary::Periodic => {
            (ProcGrid::new(w.p, c), law.cutoff())
        }
        other => panic!("the mirror loop has no arm for {other:?} with {boundary:?}"),
    };
    let grid = grid.expect("workload grid is valid");
    assert_eq!(
        r_c.is_some(),
        !w.is_all_pairs(),
        "cutoff method needs a cutoff law"
    );
    let gc = GridComms::new(world, grid);
    let (teams, me) = (grid.teams(), gc.team());
    let mut st = match r_c {
        _ if !gc.is_leader() => Vec::new(),
        None => id_block_subset(initial, teams, me),
        Some(_) => spatial_subset_1d(initial, domain, teams, me),
    };
    let migrants = Cell::new(0u64);
    let (a0, t0) = (thread_totals(), Instant::now());
    for step in 0..steps {
        probe.set_step(step);
        probe.span("step", || {
            if gc.is_leader() {
                probe.span("integrate", || {
                    integrator.pre_force(&mut st, DT);
                    reset_forces(&mut st);
                });
            }
            probe.span("force", || match r_c {
                None => ca_all_pairs_forces(&gc, &mut st, law, domain, boundary),
                Some(r_c) => {
                    let window = Window1dPeriodic::from_cutoff(domain, teams, r_c);
                    ca_cutoff_forces(&gc, &window, &mut st, law, domain, boundary);
                }
            });
            if !gc.is_leader() {
                st.clear();
                return;
            }
            probe.span("integrate", || {
                integrator.post_force(&mut st, DT, domain, boundary)
            });
            if r_c.is_some() {
                probe.span("reassign", || {
                    reassign_particles(&gc.row, &mut st, |q| {
                        let team = team_of_x(domain, teams, q.pos.x);
                        if team != me {
                            migrants.set(migrants.get() + 1);
                        }
                        team
                    })
                });
            }
        });
    }
    let (loop_s, a1) = (t0.elapsed().as_secs_f64(), thread_totals());
    RankOut {
        particles: st,
        stats: world.stats(),
        loop_s,
        migrants: migrants.get(),
        allocs: a1.0 - a0.0,
        alloc_bytes: a1.1 - a0.1,
    }
}

/// The window length and row-0 shift steps of the cutoff workload's
/// traversal (Algorithm 2), for the `cutoff.*` counts.
pub fn cutoff_window(w: &Workload, r_c: f64) -> (usize, usize) {
    let len = Window1dPeriodic::from_cutoff(&w.domain, w.teams(), r_c).len();
    (len, row_steps(len, w.c(), 0))
}

/// The final particles of a mirrored run, gathered and sorted by id as
/// `run_distributed` returns them.
pub fn gather<'a>(ranks: impl Iterator<Item = &'a RankOut>) -> Vec<Particle> {
    let mut all: Vec<Particle> = ranks.flat_map(|r| r.particles.iter().copied()).collect();
    all.sort_by_key(|q| q.id);
    all
}

thread_local! {
    static FORCE_CALLS: Cell<u64> = const { Cell::new(0) };
    static FORCE_NONZERO: Cell<u64> = const { Cell::new(0) };
}

/// A force law that counts its own evaluations and how many of them were
/// non-zero, per thread, and otherwise is the law it wraps.
#[derive(Debug, Clone, Copy)]
pub struct CountingLaw<F>(pub F);

impl<F: ForceLaw> ForceLaw for CountingLaw<F> {
    #[inline]
    fn force(&self, target: &Particle, source: &Particle, disp: Vec2) -> Vec2 {
        let f = self.0.force(target, source, disp);
        FORCE_CALLS.with(|c| c.set(c.get() + 1));
        if f.x != 0.0 || f.y != 0.0 {
            FORCE_NONZERO.with(|c| c.set(c.get() + 1));
        }
        f
    }

    fn potential(&self, target: &Particle, source: &Particle, disp: Vec2) -> f64 {
        self.0.potential(target, source, disp)
    }

    fn cutoff(&self) -> Option<f64> {
        self.0.cutoff()
    }

    fn is_symmetric(&self) -> bool {
        self.0.is_symmetric()
    }

    fn flops_per_interaction(&self) -> u64 {
        self.0.flops_per_interaction()
    }
}

/// `(force() calls, non-zero results)` counted on this thread so far.
pub fn force_counts() -> (u64, u64) {
    (FORCE_CALLS.with(Cell::get), FORCE_NONZERO.with(Cell::get))
}
