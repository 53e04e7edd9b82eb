//! Algorithm 1: the communication-avoiding all-pairs interaction algorithm.
//!
//! ```text
//! S' = CA-ALL-PAIRS-N-BODY(S, c)
//!   1 // In parallel on all processors:
//!   2 Broadcast St from team leader to team members.
//!   3 Copy St to exchange buffer St' of size nc/p.
//!   4 Given a k-th-row processor, shift St' by k along row.
//!   5 for p/c² steps do
//!   6   Shift St' by c along row.
//!   7   Update particles in St based on effect of St'.
//!   8 end for
//!   9 Sum-reduce updates within team.
//! ```
//!
//! After the skew (line 4), the row-`k` processor of team `t` holds the
//! exchange buffer of team `t − k (mod p/c)`; each shift by `c` moves
//! buffers one stride east, so over `p/c²` steps row `k` evaluates the
//! source blocks at offsets `{k + c, k + 2c, …, k + p/c ≡ k}` — the rows of
//! a team together cover every team's block exactly once. The final
//! reduction sums the per-row partial forces on the team leader.
//!
//! Each phase ships what its receiver reads (DESIGN.md §16): lines 2-6 move
//! blocks of [`Source`]s — position, mass, id — and line 9 sums bare force
//! vectors. Velocities never leave the leader.
//!
//! Setting `c = 1` degenerates to Plimpton's particle decomposition
//! (a ring pipeline); `c = √p` to his force decomposition.

use nbody_comm::{sum_combine, Communicator, Phase};
use nbody_physics::particle::sources;
use nbody_physics::{Boundary, Domain, ForceLaw, Particle, Source, Vec2};

use crate::grid::GridComms;
use crate::kernel::{accumulate_block_potential, accumulate_sources, ComputeMeter};
use crate::link::{Link, Strict};

/// Tag for the skew message (line 4).
pub const TAG_SKEW: u64 = 0x10;
/// Base tag for shift step `s` (line 6): `TAG_SHIFT + s`.
pub const TAG_SHIFT: u64 = 0x1000;

/// One force evaluation of Algorithm 1.
///
/// On entry, each team leader's `st` holds its id-block subset with force
/// accumulators cleared; `st` must be empty on non-leaders. On exit, the
/// leader's `st` holds the subset with the total force from all `n`
/// particles accumulated; non-leader contents are unspecified.
///
/// The communication schedule is *identical on every rank* (as in the
/// paper's SPMD code): broadcast, skew, `p/c²` shift+update steps, reduce.
pub fn ca_all_pairs_forces<C: Communicator, F: ForceLaw>(
    gc: &GridComms<C>,
    st: &mut Vec<Particle>,
    law: &F,
    domain: &Domain,
    boundary: Boundary,
) {
    debug_assert!(gc.is_leader() || st.is_empty(), "only leaders contribute particles");
    let exch = team_broadcast(gc, st);
    Strict::infallible(shift_pipeline(gc, st, exch, law, domain, boundary, &Strict, None));
    team_reduce(gc, st);
}

/// Line 2 of both algorithms without fault tolerance: the leader broadcasts
/// its block as [`Source`]s down the column and the other rows build their
/// target block from it (at rest, accumulators cleared — as the leader's
/// are). Returns the broadcast buffer, which already is line 3's copy.
pub(crate) fn team_broadcast<C: Communicator>(
    gc: &GridComms<C>,
    st: &mut Vec<Particle>,
) -> Vec<Source> {
    let mut block = sources(st);
    gc.col.set_phase(Phase::Broadcast);
    gc.col.bcast(0, &mut block);
    if !gc.is_leader() {
        st.clear();
        st.extend(block.iter().map(Source::particle));
    }
    block
}

/// Line 9 of both algorithms: sum-reduce the partial forces onto the
/// leader — the accumulators only, folded in the tree order a reduction of
/// whole particles would take, so the sums are the same bits.
pub(crate) fn team_reduce<C: Communicator>(gc: &GridComms<C>, st: &mut [Particle]) {
    gc.col.set_phase(Phase::Reduce);
    // A column of one has nothing to sum: skip building the buffer the
    // transport would hand straight back.
    if gc.col.size() == 1 {
        return;
    }
    let partial: Vec<Vec2> = st.iter().map(|p| p.force).collect();
    if let Some(total) = gc.col.reduce_vec(0, partial, sum_combine) {
        for (p, force) in st.iter_mut().zip(total) {
            p.force = force;
        }
    }
}

/// Lines 3-8 of Algorithm 1: skew, then `p/c²` shift+update steps of the
/// targets `st` against the exchange buffer `exch`, this rank's copy of its
/// team's block as [`Source`]s (line 3; the plain entry passes the broadcast
/// buffer itself). The buffer is moved into every send and replaced by the
/// one received. The one body behind [`ca_all_pairs_forces`] ([`Strict`]
/// link) and
/// [`ca_all_pairs_forces_ft`](crate::recovery::ca_all_pairs_forces_ft) (one
/// [`Deadline`](crate::link::Deadline) link per recovery attempt). With
/// `potential` set, the kernel also harvests the summed pair potential into
/// it (the health monitors' potential-energy partial).
#[allow(clippy::too_many_arguments)]
pub(crate) fn shift_pipeline<C: Communicator, F: ForceLaw, L: Link>(
    gc: &GridComms<C>,
    st: &mut [Particle],
    mut exch: Vec<Source>,
    law: &F,
    domain: &Domain,
    boundary: Boundary,
    link: &L,
    mut potential: Option<&mut f64>,
) -> Result<(), L::Error> {
    let teams = gc.grid.teams();
    let c = gc.grid.c();
    let steps = gc.grid.all_pairs_steps();
    let team = gc.team();
    let k = gc.row_index();

    // The paper's M = cn/p replicated working set: the owned block plus the
    // exchange copy, the memory the Eq. 2 bounds are evaluated against.
    gc.col
        .metrics()
        .gauge_max("mem_particles_hwm", (st.len() + exch.len()) as u64);

    // Pipeline-step tagging (0 = skew, s = shift step s): blocked waits in
    // the trace carry the step, so an analyzer can place every wait in the
    // skew/shift schedule and name the late sender.
    let tr = gc.col.tracer();
    // FLOP/byte accounting for the roofline audit; aborted attempts still
    // count — the work was really done.
    let meter = ComputeMeter::new(&gc.col.metrics(), law.flops_per_interaction());

    // Line 4: skew — row k shifts its buffer k teams east. After this, the
    // row-k processor of team t holds the block of team (t - k) mod teams.
    gc.col.set_phase(Phase::Skew);
    tr.set_step(Some(0));
    link.step(&gc.col, 0)?;
    if k > 0 {
        let dst = (team + k) % teams;
        let src = (team + teams - k) % teams;
        link.send(&gc.row, dst, TAG_SKEW, exch);
        exch = link.recv(&gc.row, src, TAG_SKEW)?;
    }

    // Lines 5-8: shift by c, then update.
    for s in 1..=steps {
        gc.col.set_phase(Phase::Shift);
        tr.set_step(Some(s as u32));
        link.step(&gc.col, s)?;
        let dst = (team + c) % teams;
        let src = (team + teams - c) % teams;
        link.send(&gc.row, dst, TAG_SHIFT + s as u64, exch);
        exch = link.recv(&gc.row, src, TAG_SHIFT + s as u64)?;

        gc.col.set_phase(Phase::Other);
        meter.time(st.len(), exch.len(), || {
            update(st, &exch, law, domain, boundary, &mut potential)
        });
    }
    tr.set_step(None);
    Ok(())
}

/// Line 7 of both algorithms: update `st` from the block in `exch`,
/// additionally harvesting the pair potential when an accumulator rides
/// along. Returns the kernel's evaluation count.
pub(crate) fn update<F: ForceLaw>(
    st: &mut [Particle],
    exch: &[Source],
    law: &F,
    domain: &Domain,
    boundary: Boundary,
    potential: &mut Option<&mut f64>,
) -> u64 {
    match potential {
        Some(pe) => {
            let (evals, dpe) = accumulate_block_potential(st, exch, law, domain, boundary);
            **pe += dpe;
            evals
        }
        None => accumulate_sources(st, exch, law, domain, boundary),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::id_block_subset;
    use crate::grid::ProcGrid;
    use nbody_comm::run_ranks;
    use nbody_physics::{init, reference, Counting, Gravity, RepulsiveInverseSquare};

    /// Run the CA all-pairs force evaluation on `p` ranks with replication
    /// `c`, returning the gathered, id-sorted particles.
    fn run_ca<F: ForceLaw + Clone + Send + Sync>(
        p: usize,
        c: usize,
        n: usize,
        seed: u64,
        law: F,
    ) -> Vec<Particle> {
        let domain = Domain::unit();
        let grid = ProcGrid::new_all_pairs(p, c).unwrap();
        let out = run_ranks(p, |world| {
            let gc = GridComms::new(world, grid);
            // Deterministic generation: every rank derives the full initial
            // population, leaders keep their block.
            let all = init::uniform(n, &domain, seed);
            let mut st = if gc.is_leader() {
                id_block_subset(&all, grid.teams(), gc.team())
            } else {
                Vec::new()
            };
            ca_all_pairs_forces(&gc, &mut st, &law, &domain, Boundary::Open);
            if gc.is_leader() {
                st
            } else {
                Vec::new()
            }
        });
        let mut flat: Vec<Particle> = out.into_iter().flatten().collect();
        flat.sort_by_key(|p| p.id);
        flat
    }

    fn serial(n: usize, seed: u64, law: &impl ForceLaw) -> Vec<Particle> {
        let domain = Domain::unit();
        let mut all = init::uniform(n, &domain, seed);
        reference::accumulate_forces(&mut all, law, &domain, Boundary::Open);
        all
    }

    #[test]
    fn counting_exact_across_grids() {
        // Every particle must see exactly n-1 sources, for every valid (p, c).
        for (p, c) in [(1, 1), (2, 1), (4, 1), (4, 2), (8, 2), (9, 3), (16, 2), (16, 4)] {
            for n in [16, 23] {
                let got = run_ca(p, c, n, 42, Counting);
                assert_eq!(got.len(), n);
                for q in &got {
                    assert_eq!(
                        q.force.x,
                        (n - 1) as f64,
                        "p={p} c={c} n={n} id={}",
                        q.id
                    );
                    assert_eq!(q.force.y, 0.0);
                }
            }
        }
    }

    #[test]
    fn physical_forces_match_serial() {
        let law = RepulsiveInverseSquare::default();
        let want = serial(24, 7, &law);
        for (p, c) in [(4, 2), (8, 2), (16, 4)] {
            let got = run_ca(p, c, 24, 7, law);
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.id, w.id);
                let err = (g.force - w.force).norm();
                assert!(
                    err <= 1e-12 * w.force.norm().max(1e-30),
                    "p={p} c={c} id={} err={err}",
                    g.id
                );
            }
        }
    }

    #[test]
    fn gravity_masses_match_serial() {
        let domain = Domain::unit();
        let law = Gravity::default();
        let n = 18;
        // Heterogeneous masses exercise the mass term in the kernel.
        let mut all = init::uniform(n, &domain, 3);
        for (i, p) in all.iter_mut().enumerate() {
            *p = p.with_mass(1.0 + (i % 5) as f64);
        }
        let mut want = all.clone();
        reference::accumulate_forces(&mut want, &law, &domain, Boundary::Open);

        let grid = ProcGrid::new_all_pairs(9, 3).unwrap();
        let out = run_ranks(9, |world| {
            let gc = GridComms::new(world, grid);
            let mut local = all.clone();
            let mut st = if gc.is_leader() {
                id_block_subset(&local, grid.teams(), gc.team())
            } else {
                Vec::new()
            };
            ca_all_pairs_forces(&gc, &mut st, &law, &domain, Boundary::Open);
            local.clear();
            if gc.is_leader() {
                st
            } else {
                local
            }
        });
        let mut got: Vec<Particle> = out.into_iter().flatten().collect();
        got.sort_by_key(|p| p.id);
        for (g, w) in got.iter().zip(&want) {
            let err = (g.force - w.force).norm();
            assert!(err <= 1e-12 * w.force.norm().max(1e-30), "id={}", g.id);
        }
    }

    #[test]
    fn degenerate_c1_is_particle_decomposition() {
        // c = 1: one row, so no broadcast/skew/reduce traffic; p shifts.
        let p = 4;
        let n = 12;
        let grid = ProcGrid::new_all_pairs(p, 1).unwrap();
        let domain = Domain::unit();
        let stats = run_ranks(p, |world| {
            let gc = GridComms::new(world, grid);
            let all = init::uniform(n, &domain, 5);
            let mut st = id_block_subset(&all, grid.teams(), gc.team());
            ca_all_pairs_forces(&gc, &mut st, &Counting, &domain, Boundary::Open);
            world.stats()
        });
        for s in &stats {
            // p shift messages (one per step), no skew (k = 0 for all).
            assert_eq!(s.phase(Phase::Shift).messages, p as u64);
            assert_eq!(s.phase(Phase::Skew).messages, 0);
            // Broadcast/reduce on a 1-rank column are no-ops.
            assert_eq!(s.phase(Phase::Broadcast).collectives, 0);
            assert_eq!(s.phase(Phase::Reduce).collectives, 0);
        }
    }

    #[test]
    fn force_decomposition_extreme_has_one_shift() {
        // c = sqrt(p): a single shift step (the force-decomposition extreme).
        let p = 16;
        let grid = ProcGrid::new_all_pairs(p, 4).unwrap();
        let domain = Domain::unit();
        let stats = run_ranks(p, |world| {
            let gc = GridComms::new(world, grid);
            let all = init::uniform(32, &domain, 5);
            let mut st = if gc.is_leader() {
                id_block_subset(&all, grid.teams(), gc.team())
            } else {
                Vec::new()
            };
            ca_all_pairs_forces(&gc, &mut st, &Counting, &domain, Boundary::Open);
            world.stats()
        });
        for s in &stats {
            assert_eq!(s.phase(Phase::Shift).messages, 1);
            assert_eq!(s.phase(Phase::Broadcast).collectives, 1);
            assert_eq!(s.phase(Phase::Reduce).collectives, 1);
        }
    }

    #[test]
    fn shift_message_count_is_p_over_c_squared() {
        // The latency term of Eq. 5: S_ca = O(p/c²) shift messages.
        let domain = Domain::unit();
        for (p, c) in [(8, 2), (16, 2), (16, 4), (27, 3)] {
            let grid = ProcGrid::new_all_pairs(p, c).unwrap();
            let stats = run_ranks(p, |world| {
                let gc = GridComms::new(world, grid);
                let all = init::uniform(p * 2, &domain, 1);
                let mut st = if gc.is_leader() {
                    id_block_subset(&all, grid.teams(), gc.team())
                } else {
                    Vec::new()
                };
                ca_all_pairs_forces(&gc, &mut st, &Counting, &domain, Boundary::Open);
                world.stats()
            });
            for s in &stats {
                assert_eq!(
                    s.phase(Phase::Shift).messages as usize,
                    p / (c * c),
                    "p={p} c={c}"
                );
            }
        }
    }

    #[test]
    fn uneven_block_sizes_still_exact() {
        // n not divisible by the team count.
        let got = run_ca(8, 2, 13, 9, Counting);
        assert_eq!(got.len(), 13);
        for q in &got {
            assert_eq!(q.force.x, 12.0, "id={}", q.id);
        }
    }
}
