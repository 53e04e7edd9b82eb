//! Spatial re-assignment between timesteps.
//!
//! The cutoff algorithms require a spatial decomposition, so after particles
//! move they must be handed to their new owner teams — the cost the paper
//! plots as "Communication (Re-assign)" in Fig. 6. Leaders exchange
//! migrants directly with every destination team; in near-uniform flows all
//! but the neighbor buckets are empty, so the realized traffic is
//! neighbor-to-neighbor.

use nbody_comm::{CommData, Communicator, Phase};
use nbody_physics::Particle;

/// Tag for re-assignment messages.
pub const TAG_REASSIGN: u64 = 0x40;

/// Exchange migrated particles among the team leaders.
///
/// `leaders` must be a communicator containing exactly the team leaders,
/// ranked by team (the row-0 row communicator). `assign` maps a particle to
/// its owning team and is asked once per particle. On return, `st` holds
/// exactly the particles assigned to this team, sorted by id for
/// determinism. Particles that stay are not copied: only migrants leave
/// `st`'s allocation, and only migrants are appended to it.
pub fn reassign_particles<C: Communicator>(
    leaders: &C,
    st: &mut Vec<Particle>,
    assign: impl Fn(&Particle) -> usize,
) {
    leaders.set_phase(Phase::Reassign);
    let (teams, me) = (leaders.size(), leaders.rank());

    let mut buckets: Vec<Vec<Particle>> = vec![Vec::new(); teams];
    st.retain(|p| {
        let dst = assign(p);
        debug_assert!(dst < teams, "assignment out of range");
        if dst != me {
            buckets[dst].push(*p);
        }
        dst == me
    });
    // An alltoallv: empty buckets still cost one (empty) message; the
    // realized payload is neighbor-local for physical flows.
    for arrived in leaders.alltoallv(buckets) {
        st.extend(arrived);
    }
    // Ids are unique, so the unstable sort has one possible outcome.
    st.sort_unstable_by_key(|p| p.id);
}

/// Exchange arbitrary items among ranks by destination (a generic
/// all-to-all); used by tests and by custom decompositions.
pub fn exchange_by_destination<C: Communicator, T: CommData>(
    comm: &C,
    items: Vec<(usize, T)>,
) -> Vec<T> {
    let p = comm.size();
    let me = comm.rank();
    let mut buckets: Vec<Vec<T>> = vec![Vec::new(); p];
    for (dst, item) in items {
        assert!(dst < p, "destination {dst} out of range");
        buckets[dst].push(item);
    }
    let mut out = std::mem::take(&mut buckets[me]);
    for offset in 1..p {
        let dst = (me + offset) % p;
        let bucket = std::mem::take(&mut buckets[dst]);
        comm.send_vec(dst, TAG_REASSIGN + offset as u64, bucket);
    }
    for offset in 1..p {
        let src = (me + p - offset) % p;
        out.extend(comm.recv::<T>(src, TAG_REASSIGN + offset as u64));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::team_of_x;
    use nbody_comm::run_ranks;
    use nbody_physics::{init, Domain};

    #[test]
    fn reassign_moves_particles_home() {
        let domain = Domain::unit();
        let teams = 4;
        let n = 40;
        let out = run_ranks(teams, |world| {
            // Deliberately mis-assign: rank r starts with the id block, not
            // the spatial block.
            let all = init::uniform(n, &domain, 17);
            let mut st = crate::dist::id_block_subset(&all, teams, world.rank());
            reassign_particles(world, &mut st, |p| team_of_x(&domain, teams, p.pos.x));
            st
        });
        let mut total = 0;
        for (team, st) in out.iter().enumerate() {
            total += st.len();
            for p in st {
                assert_eq!(team_of_x(&domain, teams, p.pos.x), team);
            }
            // Sorted by id.
            assert!(st.windows(2).all(|w| w[0].id < w[1].id));
        }
        assert_eq!(total, n, "no particles lost or duplicated");
    }

    #[test]
    fn reassign_is_idempotent_when_already_assigned() {
        let domain = Domain::unit();
        let teams = 3;
        let out = run_ranks(teams, |world| {
            let all = init::uniform(30, &domain, 2);
            let mut st =
                crate::dist::spatial_subset_1d(&all, &domain, teams, world.rank());
            let before = st.clone();
            let (at, asked) = (st.as_ptr(), std::cell::Cell::new(0));
            reassign_particles(world, &mut st, |p| {
                asked.set(asked.get() + 1);
                team_of_x(&domain, teams, p.pos.x)
            });
            // Nobody moved: nobody was copied, and each was asked about once.
            assert_eq!(st.as_ptr(), at);
            assert_eq!(asked.get(), before.len());
            (before, st)
        });
        for (before, after) in out {
            let mut sorted = before.clone();
            sorted.sort_by_key(|p| p.id);
            assert_eq!(sorted, after);
        }
    }

    #[test]
    fn reassign_attributes_phase() {
        let domain = Domain::unit();
        let teams = 4;
        let stats = run_ranks(teams, |world| {
            let all = init::uniform(16, &domain, 3);
            let mut st = crate::dist::id_block_subset(&all, teams, world.rank());
            reassign_particles(world, &mut st, |p| team_of_x(&domain, teams, p.pos.x));
            world.stats()
        });
        for s in &stats {
            assert_eq!(s.phase(Phase::Reassign).messages, (teams - 1) as u64);
        }
    }

    #[test]
    fn exchange_by_destination_routes_items() {
        let p = 5;
        let out = run_ranks(p, |comm| {
            // Every rank sends its rank*10+dst to each dst.
            let items: Vec<(usize, u64)> = (0..p)
                .map(|dst| (dst, (comm.rank() * 10 + dst) as u64))
                .collect();
            let mut got = exchange_by_destination(comm, items);
            got.sort_unstable();
            got
        });
        for (r, got) in out.iter().enumerate() {
            let want: Vec<u64> = (0..p).map(|src| (src * 10 + r) as u64).collect();
            assert_eq!(got, &want);
        }
    }

    #[test]
    fn single_rank_exchange_is_local() {
        let out = run_ranks(1, |comm| {
            exchange_by_destination(comm, vec![(0, 1u8), (0, 2)])
        });
        assert_eq!(out[0], vec![1, 2]);
    }
}
