//! The four benchmark workloads: their parameters, their seeded inputs and
//! the one program entry point each of them times.
//!
//! The program receives only the generated `Vec<Particle>`; `--seed` never
//! reaches it. Sizes are fixed here (see README.md for why each `p` and `n`
//! was chosen); `--quick` swaps in tiny sizes for smoke use only.

use std::panic::{catch_unwind, AssertUnwindSafe};

use ca_nbody::{
    run_distributed, run_distributed_chaos, run_serial, Method, RetryPolicy, SimConfig,
};
use nbody_comm::{CommStats, FaultPlan};
use nbody_physics::{
    init, Boundary, Cutoff, Domain, ForceLaw, LennardJones, Particle, RepulsiveInverseSquare,
    SemiImplicitEuler,
};

/// Timestep of every workload.
pub const DT: f64 = 0.005;
/// Steps of the serial-reference prefix the warm-up is checked against.
pub const PREFIX_STEPS: usize = 3;
/// Largest relative position deviation from `run_serial` on the prefix.
pub const SERIAL_TOLERANCE: f64 = 1e-9;
/// Temperature of the Lennard-Jones lattice (reduced units).
const LJ_TEMPERATURE: f64 = 0.5;

/// The force law of a workload. An enum, not a type parameter, so the
/// workload table is plain data; [`with_law!`](crate::with_law) turns it
/// back into a concrete type for the generic program API.
#[derive(Debug, Clone, Copy)]
pub enum Law {
    /// The paper's inverse-square repulsion.
    Repulsive(RepulsiveInverseSquare),
    /// Lennard-Jones truncated at `r_c`.
    LjCutoff(Cutoff<LennardJones>),
}

/// Evaluate `$body` with `$law` bound to the workload's concrete force law.
#[macro_export]
macro_rules! with_law {
    ($w:expr, $law:ident => $body:expr) => {
        match $w.law {
            $crate::workload::Law::Repulsive($law) => $body,
            $crate::workload::Law::LjCutoff($law) => $body,
        }
    };
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// One line on why the workload exists.
    pub why: &'static str,
    /// Parallel decomposition.
    pub method: Method,
    /// Rank threads the program runs.
    pub p: usize,
    /// Particles.
    pub n: usize,
    /// Timesteps per repetition.
    pub steps: usize,
    /// Force law.
    pub law: Law,
    /// Simulation domain.
    pub domain: Domain,
    /// Boundary condition.
    pub boundary: Boundary,
    /// Whether the fault-tolerant driver (`run_distributed_chaos` with an
    /// empty plan) is the entry point instead of `run_distributed`.
    pub fault_tolerant: bool,
    /// Share by which `step_s` may differ between two runs of the same
    /// code before `--selfcheck` fails it.
    pub step_bound: f64,
}

impl Workload {
    /// Replication factor.
    pub fn c(&self) -> usize {
        self.method.replication()
    }

    /// Teams (columns) of the processor grid.
    pub fn teams(&self) -> usize {
        self.p / self.c()
    }

    /// Particles per team block, the kernel's block edge (`n·c/p`).
    pub fn block(&self) -> usize {
        self.n / self.teams()
    }

    /// Whether the method is Algorithm 1 (else Algorithm 2 in 1-D).
    pub fn is_all_pairs(&self) -> bool {
        matches!(self.method, Method::CaAllPairs { .. })
    }

    /// The inputs for `seed`.
    pub fn initial(&self, seed: u64) -> Vec<Particle> {
        match self.law {
            Law::Repulsive(_) => init::uniform(self.n, &self.domain, seed),
            Law::LjCutoff(_) => {
                let mut ps = init::lattice(self.n, &self.domain);
                init::thermalize(&mut ps, LJ_TEMPERATURE, seed);
                ps
            }
        }
    }

    /// The program configuration for `steps` timesteps under `law`.
    pub fn config<F: ForceLaw>(&self, law: F, steps: usize) -> SimConfig<F, SemiImplicitEuler> {
        SimConfig {
            law,
            integrator: SemiImplicitEuler,
            domain: self.domain,
            boundary: self.boundary,
            dt: DT,
            steps,
        }
    }
}

/// The workloads, at benchmark size or (`quick`) at smoke-test size.
pub fn all(quick: bool) -> Vec<Workload> {
    let repulsive = Law::Repulsive(RepulsiveInverseSquare {
        strength: 1e-3,
        softening: 1e-3,
    });
    let size = |full: usize, tiny: usize| if quick { tiny } else { full };
    let cutoff_n = size(8192, 512);
    vec![
        Workload {
            name: "allpairs_compute",
            why: "Algorithm 1 with the full bcast-skew-shift-reduce pipeline where the kernel does \
                  about 90 % of a step: a kernel change must move it, a wire change must not",
            method: Method::CaAllPairs { c: 2 },
            p: 4,
            n: size(4096, 256),
            steps: size(30, 3),
            law: repulsive,
            domain: Domain::unit(),
            boundary: Boundary::Reflective,
            fault_tolerant: false,
            step_bound: 0.05,
        },
        Workload {
            name: "allpairs_latency",
            why: "same driver on 32-particle blocks: most of a step is message hand-off and \
                  per-message allocation, so transport and buffer-reuse changes show here only",
            method: Method::CaAllPairs { c: 1 },
            p: 2,
            n: 64,
            steps: size(10_000, 200),
            law: repulsive,
            domain: Domain::unit(),
            boundary: Boundary::Reflective,
            fault_tolerant: false,
            step_bound: 0.10,
        },
        Workload {
            name: "cutoff1d_lj_periodic",
            why: "Algorithm 2 window traversal, minimum-image displacement, a law that rejects \
                  most pairs and re-assignment every step: the same kernel and wire used differently",
            method: Method::Ca1dCutoff { c: 1 },
            p: 4,
            n: cutoff_n,
            steps: size(15, 3),
            law: Law::LjCutoff(Cutoff::new(LennardJones::default(), 2.5)),
            domain: Domain::square((cutoff_n as f64).sqrt() * 1.2),
            boundary: Boundary::Periodic,
            fault_tolerant: false,
            step_bound: 0.05,
        },
        Workload {
            name: "allpairs_ft_clean",
            why: "the fault-tolerant driver copy with no fault firing: guards the plain/_ft driver \
                  merge and any hot-path change applied to one copy only",
            method: Method::CaAllPairs { c: 2 },
            p: 4,
            n: size(1024, 128),
            steps: size(300, 10),
            law: repulsive,
            domain: Domain::unit(),
            boundary: Boundary::Reflective,
            fault_tolerant: true,
            step_bound: 0.10,
        },
    ]
}

/// What one call of a workload's entry point returned.
#[derive(Debug, Clone)]
pub struct EntryOutput {
    /// Final particles, sorted by id.
    pub particles: Vec<Particle>,
    /// Per-rank communication statistics.
    pub stats: Vec<CommStats>,
    /// `(max_attempts, shrinks)` of the fault-tolerant driver.
    pub recovery: Option<(usize, usize)>,
}

/// Call the workload's entry point once for `steps` timesteps. A panic in
/// the program or a fault-tolerant run that gives up is an `Err`.
pub fn run_entry<F: ForceLaw + Copy>(
    w: &Workload,
    law: F,
    steps: usize,
    initial: &[Particle],
) -> Result<EntryOutput, String> {
    let cfg = w.config(law, steps);
    guarded(|| {
        if w.fault_tolerant {
            let plan = FaultPlan::empty();
            let policy = RetryPolicy::default();
            let r = run_distributed_chaos(&cfg, w.method, w.p, &plan, &policy, initial)
                .map_err(|e| format!("fault-tolerant run failed: {e}"))?;
            Ok(EntryOutput {
                particles: r.particles,
                stats: r.stats,
                recovery: Some((r.max_attempts, r.shrinks)),
            })
        } else {
            let r = run_distributed(&cfg, w.method, w.p, initial);
            Ok(EntryOutput {
                particles: r.particles,
                stats: r.stats,
                recovery: None,
            })
        }
    })
}

/// Run `f`, turning a panic (the program's way of reporting a broken run)
/// into an `Err` so one bad repetition is counted instead of ending the
/// benchmark.
pub fn guarded<R>(f: impl FnOnce() -> Result<R, String>) -> Result<R, String> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(payload) => Err(match payload.downcast_ref::<String>() {
            Some(s) => format!("panic: {s}"),
            None => match payload.downcast_ref::<&str>() {
                Some(s) => format!("panic: {s}"),
                None => "panic".to_string(),
            },
        }),
    }
}

/// Check the entry point against `run_serial` on a [`PREFIX_STEPS`]-step
/// prefix: the largest relative position deviation must stay within
/// [`SERIAL_TOLERANCE`].
pub fn check_against_serial<F: ForceLaw + Copy>(
    w: &Workload,
    law: F,
    initial: &[Particle],
) -> Result<(), String> {
    let got = run_entry(w, law, PREFIX_STEPS, initial)?.particles;
    let want = run_serial(&w.config(law, PREFIX_STEPS), initial);
    if got.len() != want.len() {
        return Err(format!(
            "{} particles, serial has {}",
            got.len(),
            want.len()
        ));
    }
    let scale = w.domain.length_x().max(w.domain.length_y());
    let mut worst = 0.0f64;
    for (g, s) in got.iter().zip(&want) {
        if g.id != s.id {
            return Err(format!("particle id {} where serial has {}", g.id, s.id));
        }
        let dev = (g.pos - s.pos).norm() / scale;
        if dev.is_nan() {
            return Err(format!("particle {} has a non-finite position", g.id));
        }
        worst = worst.max(dev);
    }
    if worst > SERIAL_TOLERANCE {
        return Err(format!(
            "deviates from run_serial by {worst:e} of the domain after {PREFIX_STEPS} steps"
        ));
    }
    Ok(())
}

/// FNV-1a over the bit patterns of every particle's id, position,
/// velocity and force: equal fingerprints mean bit-identical final states.
pub fn fingerprint(particles: &[Particle]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |word: u64| {
        for b in word.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for q in particles {
        eat(q.id);
        for x in [
            q.pos.x, q.pos.y, q.vel.x, q.vel.y, q.force.x, q.force.y, q.mass,
        ] {
            eat(x.to_bits());
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_follow_the_seed() {
        for w in all(true) {
            let a = w.initial(7);
            assert_eq!(a.len(), w.n);
            assert_eq!(fingerprint(&a), fingerprint(&w.initial(7)), "{}", w.name);
            assert_ne!(fingerprint(&a), fingerprint(&w.initial(8)), "{}", w.name);
        }
    }

    #[test]
    fn full_size_grids_are_the_ones_documented() {
        let ws = all(false);
        let shape: Vec<_> = ws.iter().map(|w| (w.p, w.c(), w.n, w.steps)).collect();
        assert_eq!(
            shape,
            [
                (4, 2, 4096, 30),
                (2, 1, 64, 10_000),
                (4, 1, 8192, 15),
                (4, 2, 1024, 300)
            ]
        );
        assert_eq!(ws[0].block(), 2048);
        assert_eq!(ws[1].block(), 32);
    }

    #[test]
    fn guarded_reports_panics() {
        let e = guarded::<()>(|| panic!("boom {}", 1)).unwrap_err();
        assert_eq!(e, "panic: boom 1");
    }
}
