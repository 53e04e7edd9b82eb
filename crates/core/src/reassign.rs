//! Spatial re-assignment between timesteps.
//!
//! The cutoff algorithms require a spatial decomposition, so after particles
//! move they must be handed to their new owner teams — the cost the paper
//! plots as "Communication (Re-assign)" in Fig. 6. It is a neighbour
//! exchange: a leader trades migrants with the teams of a neighbourhood
//! [`Window`] and with nobody else, one message per neighbour per step
//! whether or not anybody moved, so `S` does not grow with the team count.
//!
//! The contract is the one every spatial-decomposition code has: **a
//! particle crosses at most one cell per step**. It is enforced exactly, on
//! the sender, while bucketing and before anything is sent — a particle
//! bound for a team outside the neighbourhood is an error naming it, never
//! a dropped, mis-homed or forwarded particle (DESIGN.md §18 says why
//! forwarding cannot work). The any-to-any exchange is the same body on the
//! full team ring, where every team is a neighbour.

use nbody_comm::{Communicator, Phase};
use nbody_physics::Particle;

use crate::window::{TeamWindow, Window};

/// Base tag of re-assignment messages: `TAG_REASSIGN + j` for the
/// neighbourhood's position `j`.
pub const TAG_REASSIGN: u64 = 0x6000;

/// Exchange migrated particles among the team leaders, each with the teams
/// of its neighbourhood `hood` only.
///
/// `leaders` must be a communicator containing exactly the team leaders,
/// ranked by team (the row-0 row communicator), and `hood` a window over
/// those teams. `assign` maps a particle to its owning team and is asked
/// once per particle. On return, `st` holds exactly the particles assigned
/// to this team: those that stayed, in the order they were in and not
/// copied, then the arrivals by neighbourhood position. A particle bound
/// outside `hood` is an error naming its id and both teams: nothing was
/// sent then, and `st` holds what it held.
pub fn reassign_within<C: Communicator, W: Window>(
    leaders: &C,
    hood: &W,
    st: &mut Vec<Particle>,
    assign: impl Fn(&Particle) -> usize,
) -> Result<(), String> {
    leaders.set_phase(Phase::Reassign);
    let me = leaders.rank();
    debug_assert_eq!(hood.teams(), leaders.size(), "one leader per team");
    // Position `j` of the neighbourhood is the team `me + O[j]`.
    let reach: Vec<Option<usize>> = (0..hood.len()).map(|j| hood.apply(me, j)).collect();
    let mut buckets: Vec<Vec<Particle>> = vec![Vec::new(); reach.len()];
    let mut escaped = None;
    st.retain(|p| {
        let to = assign(p);
        let at = reach.iter().position(|&team| team == Some(to));
        match at {
            // Position 0 is this team.
            Some(0) => {}
            Some(j) => buckets[j].push(*p),
            None => escaped = escaped.or(Some((p.id, to))),
        }
        // Whoever is out of reach stays, for the error to leave `st` whole.
        !matches!(at, Some(1..))
    });
    if let Some((id, to)) = escaped {
        st.extend(buckets.into_iter().flatten());
        return Err(format!(
            "particle {id} left team {me} for team {to}, which is not one of its neighbours: \
             re-assignment moves a particle one cell per step at most (smaller dt, or fewer teams)"
        ));
    }
    // A bucket goes out even when it is empty: the receiver cannot know.
    for (j, bucket) in buckets.into_iter().enumerate().skip(1) {
        if let Some(to) = reach[j] {
            leaders.send_vec(to, TAG_REASSIGN + j as u64, bucket);
        }
    }
    for j in 1..reach.len() {
        if let Some(from) = hood.apply_back(me, j) {
            st.extend(leaders.recv::<Particle>(from, TAG_REASSIGN + j as u64));
        }
    }
    Ok(())
}

/// [`reassign_within`] the full team ring: every team is a neighbour, so a
/// particle may be bound anywhere (an initial distribution that is not
/// spatial yet, say) at `teams − 1` messages per leader.
pub fn reassign_particles<C: Communicator>(
    leaders: &C,
    st: &mut Vec<Particle>,
    assign: impl Fn(&Particle) -> usize,
) {
    let ring = TeamWindow::ring(leaders.size());
    reassign_within(leaders, &ring, st, assign).expect("the ring reaches every team");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{id_block_subset, team_of_x};
    use nbody_comm::run_ranks;
    use nbody_physics::{init, Domain, Vec2};

    #[test]
    fn reassign_moves_particles_home() {
        let domain = Domain::unit();
        let (teams, n) = (4, 40);
        let out = run_ranks(teams, |world| {
            // Deliberately mis-assign: rank r starts with the id block, not
            // the spatial block — any-to-any, which is what the ring is for.
            let all = init::uniform(n, &domain, 17);
            let mut st = id_block_subset(&all, teams, world.rank());
            reassign_particles(world, &mut st, |p| team_of_x(&domain, teams, p.pos.x));
            (st, world.stats().phase(Phase::Reassign).messages)
        });
        let mut ids: Vec<u64> = Vec::new();
        for (team, (st, sent)) in out.iter().enumerate() {
            assert!(st
                .iter()
                .all(|p| team_of_x(&domain, teams, p.pos.x) == team));
            assert_eq!(*sent, (teams - 1) as u64);
            ids.extend(st.iter().map(|p| p.id));
        }
        ids.sort_unstable();
        assert_eq!(
            ids,
            (0..n as u64).collect::<Vec<_>>(),
            "nobody lost or doubled"
        );
    }

    #[test]
    fn reassign_is_idempotent_when_already_assigned() {
        let domain = Domain::unit();
        let teams = 3;
        run_ranks(teams, |world| {
            let all = init::uniform(30, &domain, 2);
            let mut st = crate::dist::spatial_subset_1d(&all, &domain, teams, world.rank());
            let before = st.clone();
            let (at, asked) = (st.as_ptr(), std::cell::Cell::new(0));
            reassign_particles(world, &mut st, |p| {
                asked.set(asked.get() + 1);
                team_of_x(&domain, teams, p.pos.x)
            });
            // Nobody moved: nobody was copied or reordered, and each was
            // asked about once.
            assert_eq!((st.as_ptr(), asked.get()), (at, before.len()));
            assert_eq!(st, before);
        });
    }

    /// Every team of a ring of five slabs holds one particle bound `hops`
    /// slabs east. One slab west (team 0's crosses the periodic seam) it is
    /// delivered, in one message per neighbour (`window::neighbour_tests`
    /// has every shape's count); two slabs away it is an error naming it,
    /// nothing is sent and nothing is lost.
    #[test]
    fn one_cell_per_step_is_delivered_across_the_seam_and_two_is_an_error_naming_the_particle() {
        let domain = Domain::unit();
        let teams = 5;
        let hood = TeamWindow::neighbours((teams, 1), true);
        for hops in [teams - 1, 2] {
            run_ranks(teams, |world| {
                let me = world.rank();
                let to = (me + hops) % teams;
                let x = (to as f64 + 0.5) / teams as f64;
                let mut st = vec![Particle::at(me as u64, Vec2::new(x, 0.5))];
                let held = st.clone();
                let done = reassign_within(world, &hood, &mut st, |p| {
                    team_of_x(&domain, teams, p.pos.x)
                });
                if hops == 2 {
                    let said = done.unwrap_err();
                    let names = format!("particle {me} left team {me} for team {to},");
                    assert!(said.starts_with(&names), "{said}");
                    assert_eq!(st, held, "the particle is still here");
                    assert_eq!(world.stats().total_messages(), 0);
                } else {
                    done.unwrap();
                    let ids: Vec<u64> = st.iter().map(|p| p.id).collect();
                    assert_eq!(ids, [((me + 1) % teams) as u64]);
                    assert_eq!(world.stats().phase(Phase::Reassign).messages, 2);
                }
            });
        }
    }
}
