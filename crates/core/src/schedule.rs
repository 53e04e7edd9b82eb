//! Communication-schedule generators.
//!
//! Every distributed algorithm in this crate has a twin here that emits its
//! exact per-rank operation stream ([`Op`]) — same messages, same sizes
//! (using the paper's 52-byte wire particles), same collectives, same
//! compute volume. The discrete-event simulator in `nbody-netsim` replays
//! these schedules at full paper scale (tens of thousands of ranks); the
//! integration tests verify schedule-vs-execution equivalence by comparing
//! per-phase message and byte counts against instrumented `ThreadComm` runs.
//!
//! The two CA algorithms have one twin, and it is not a second statement
//! of their routing: [`CutoffParams::program`] maps the hops of
//! [`cutoff::traversal`](crate::cutoff::traversal) — the ones the shift body
//! executes — to ops, modulo a [`Window`], and [`AllPairsParams`] is it on
//! [`TeamWindow::ring`] with id-block sizes (Plimpton's particle and force
//! decompositions at `c = 1` and `c = √p`).
//! Block sizes live in the params, never in a per-rank program — on the
//! ring they are `O(p/c)` values, and there are `p` programs.

use nbody_comm::{Phase, PHASE_COUNT};
use nbody_netsim::{CollNet, Op, TeamSpec};
use nbody_physics::particle::PARTICLE_WIRE_BYTES;

use crate::cutoff::{traversal, walked_window};
use crate::dist::block_range;
use crate::grid::ProcGrid;
use crate::kernel::block_interactions;
use crate::window::{TeamWindow, Window};

/// Wire bytes of a block of `len` particles.
#[inline]
fn bytes_of(len: usize) -> u64 {
    (len * PARTICLE_WIRE_BYTES) as u64
}

/// Id-block sizes of `n` particles over `teams` teams (the all-pairs
/// distribution).
pub(crate) fn id_block_sizes(n: usize, teams: usize) -> Vec<usize> {
    (0..teams).map(|b| block_range(n, teams, b).len()).collect()
}

/// Parameters of the CA all-pairs schedule (Algorithm 1) under the
/// id-block distribution of `n` particles: the CA schedule on the full team
/// ring with id-block sizes, built once here so that `program` stays lazy
/// per rank.
#[derive(Debug, Clone)]
pub struct AllPairsParams(CutoffParams<TeamWindow>);

impl AllPairsParams {
    /// Uniform all-pairs schedule on `p` ranks with replication `c`.
    pub fn new(p: usize, c: usize, n: usize) -> Self {
        let grid = ProcGrid::new_all_pairs(p, c).expect("invalid all-pairs grid");
        let teams = grid.teams();
        AllPairsParams(CutoffParams::new(
            grid,
            TeamWindow::ring(teams),
            id_block_sizes(n, teams),
        ))
    }

    /// The op stream of `rank`.
    pub fn program(&self, rank: usize) -> Box<dyn Iterator<Item = Op> + '_> {
        self.0.program(rank)
    }
}

/// Per-step spatial re-assignment traffic: each team leader exchanges
/// `bytes` with every team of `hood`, the messages
/// [`reassign_within`](crate::reassign::reassign_within) sends. The count
/// is exact; the payload is data-dependent, so `bytes` is a model (the
/// cutoff figures charge a fixed migrating fraction; see DESIGN.md).
#[derive(Debug, Clone, Copy)]
pub struct ReassignModel {
    /// Whom a leader trades migrants with
    /// ([`Layout::neighbourhood`](crate::sim::Layout::neighbourhood)).
    pub hood: TeamWindow,
    /// Migrating payload per neighbor, in bytes.
    pub bytes: u64,
}

/// Parameters of the CA schedule — Algorithm 2 and its multi-dimensional
/// generalization under a spatial distribution with per-team block sizes,
/// and Algorithm 1 as the same schedule on the full team ring
/// ([`AllPairsParams`]).
#[derive(Debug, Clone)]
pub struct CutoffParams<W: Window> {
    /// Processor grid (cutoff grids only need `c | p`).
    pub grid: ProcGrid,
    /// The window the shifts run modulo.
    pub window: W,
    /// Particles owned by each team (load imbalance flows from here).
    pub block_sizes: Vec<usize>,
    /// Network used by the team collectives.
    pub coll_net: CollNet,
    /// Optional re-assignment traffic appended after the force phase.
    pub reassign: Option<ReassignModel>,
    /// Whether the run's law asks each pair once for both of its ordered
    /// pairs ([`symmetric_cutoff`](crate::kernel::symmetric_cutoff)): the
    /// twin then walks the window the shift body walks
    /// ([`walked_window`]). `false`, the
    /// paper's full window, for a twin built with no law.
    pub newton: bool,
}

impl<W: Window> CutoffParams<W> {
    /// Build a cutoff schedule; `block_sizes.len()` must equal the team
    /// count and the window must validate against the grid.
    pub fn new(grid: ProcGrid, window: W, block_sizes: Vec<usize>) -> Self {
        assert_eq!(block_sizes.len(), grid.teams(), "one block size per team");
        crate::cutoff::validate_cutoff(&window, grid.teams(), grid.c())
            .expect("invalid cutoff configuration");
        CutoffParams {
            grid,
            window,
            block_sizes,
            coll_net: CollNet::Torus,
            reassign: None,
            newton: false,
        }
    }

    /// The op stream of `rank`: the hops of the one [`traversal`] the
    /// shift body executes, between the team collectives. A hop emits at
    /// most six ops from a fixed array — no heap allocation per step,
    /// which Fig. 2/3 at p = 24,576 would pay `p/c²` times per rank. A
    /// return carries one element per particle of the block, as the shift
    /// did.
    pub fn program(&self, rank: usize) -> Box<dyn Iterator<Item = Op> + '_> {
        let grid = self.grid;
        let window = walked_window(self.window.team_window(), grid.c(), self.newton);
        let teams = grid.teams();
        let c = grid.c();
        let t = grid.team_of(rank);
        let k = grid.row_of(rank);
        let col_team = TeamSpec::new(t, teams, c);
        let my_bytes = bytes_of(self.block_sizes[t]);
        let net = self.coll_net;

        let prologue = (c > 1).then_some(Op::Bcast {
            team: col_team,
            bytes: my_bytes,
            phase: Phase::Broadcast,
            net,
        });

        // The block a hop's shift moves is the one the hop before left.
        let mut held = Some(t);
        let hops = traversal(window, c, t, k).enumerate();
        let body = hops.flat_map(move |(s, hop)| {
            let phase = if s == 0 { Phase::Skew } else { Phase::Shift };
            let send = |to: usize, block: usize| Op::Send {
                to: grid.rank_at(to, k),
                bytes: bytes_of(self.block_sizes[block]),
                phase,
            };
            let sent = std::mem::replace(&mut held, hop.block);
            let shift = hop.shift_to.zip(sent).map(|(to, b)| send(to, b));
            let home_route = hop.home_to.map(|to| send(to, t));
            let returned = hop.return_to.zip(sent).map(|(to, b)| send(to, b));
            let recv = |from: Option<usize>| {
                from.map(|from| Op::Recv {
                    from: grid.rank_at(from, k),
                    phase,
                })
            };
            // A pair asked across two blocks answers both ordered pairs.
            let ways = 1 + u64::from(window.is_half() && hop.block != Some(t));
            let compute = hop.block.filter(|_| hop.update).map(|b| Op::Compute {
                interactions: ways
                    * block_interactions(self.block_sizes[t], self.block_sizes[b], b == t),
            });
            [
                shift,
                home_route,
                returned,
                recv(hop.recv_from),
                compute,
                recv(hop.return_from),
            ]
            .into_iter()
            .flatten()
        });

        let mut epilogue: Vec<Op> = Vec::new();
        if c > 1 {
            epilogue.push(Op::Reduce {
                team: col_team,
                bytes: my_bytes,
                phase: Phase::Reduce,
                net,
            });
        }
        // Re-assignment: leaders trade migrants with their neighbourhood,
        // every send before the first receive, position by position.
        if let (Some(ReassignModel { hood, bytes }), 0) = (self.reassign, k) {
            epilogue.extend(
                (1..hood.len())
                    .filter_map(|j| hood.apply(t, j))
                    .map(|nb| Op::Send {
                        to: grid.rank_at(nb, 0),
                        bytes,
                        phase: Phase::Reassign,
                    }),
            );
            epilogue.extend(
                (1..hood.len())
                    .filter_map(|j| hood.apply_back(t, j))
                    .map(|nb| Op::Recv {
                        from: grid.rank_at(nb, 0),
                        phase: Phase::Reassign,
                    }),
            );
        }

        Box::new(prologue.into_iter().chain(body).chain(epilogue))
    }
}

/// Parameters of the allgather (naive / `tree`) baseline.
#[derive(Debug, Clone)]
pub struct AllgatherParams {
    /// Ranks.
    pub p: usize,
    /// Total particles.
    pub n: usize,
    /// Network for the allgather (HwTree = the Fig. 2c/2d `tree` bars).
    pub net: CollNet,
}

impl AllgatherParams {
    /// The op stream of `rank`.
    pub fn program(&self, rank: usize) -> Box<dyn Iterator<Item = Op> + '_> {
        let me = block_range(self.n, self.p, rank).len();
        let per_member = bytes_of(self.n.div_ceil(self.p));
        Box::new(
            [
                Op::Allgather {
                    team: TeamSpec::new(0, 1, self.p),
                    bytes_per_member: per_member,
                    phase: Phase::Broadcast,
                    net: self.net,
                },
                Op::Compute {
                    interactions: block_interactions(me, self.n, true),
                },
            ]
            .into_iter(),
        )
    }
}

/// Aggregate op counts of a schedule, for schedule-vs-execution checks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// Point-to-point sends per phase index.
    pub sends: [u64; PHASE_COUNT],
    /// Bytes sent point-to-point per phase index.
    pub send_bytes: [u64; PHASE_COUNT],
    /// Collectives per phase index.
    pub collectives: [u64; PHASE_COUNT],
    /// Total force evaluations.
    pub interactions: u64,
}

/// Count the operations of one program.
pub fn count_ops(program: impl Iterator<Item = Op>) -> OpCounts {
    let mut c = OpCounts::default();
    for op in program {
        match op {
            Op::Compute { interactions } => c.interactions += interactions,
            Op::Send { bytes, phase, .. } => {
                c.sends[phase.index()] += 1;
                c.send_bytes[phase.index()] += bytes;
            }
            Op::Recv { .. } => {}
            Op::Bcast { phase, .. } | Op::Reduce { phase, .. } | Op::Allgather { phase, .. } => {
                c.collectives[phase.index()] += 1;
            }
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::TeamWindow;

    #[test]
    fn all_pairs_schedule_shape() {
        let params = AllPairsParams::new(16, 2, 64);
        for rank in 0..16 {
            let counts = count_ops(params.program(rank));
            // p/c^2 = 4 shift sends per rank.
            assert_eq!(counts.sends[Phase::Shift.index()], 4);
            // One bcast, one reduce.
            assert_eq!(counts.collectives[Phase::Broadcast.index()], 1);
            assert_eq!(counts.collectives[Phase::Reduce.index()], 1);
            // Rows > 0 skew once.
            let k = rank / 8;
            assert_eq!(counts.sends[Phase::Skew.index()], u64::from(k > 0));
        }
    }

    #[test]
    fn all_pairs_total_interactions_cover_n_squared() {
        // Summed over all ranks, compute ops must equal n(n-1) ordered pairs.
        for (p, c, n) in [(4, 1, 20), (8, 2, 24), (16, 4, 32), (9, 3, 17)] {
            let params = AllPairsParams::new(p, c, n);
            let total: u64 = (0..p)
                .map(|r| count_ops(params.program(r)).interactions)
                .sum();
            assert_eq!(total, (n * (n - 1)) as u64, "p={p} c={c} n={n}");
        }
    }

    #[test]
    fn all_pairs_shift_bytes_scale_inversely_with_c() {
        // W_ca = O(n/c): per-rank shift bytes with c=4 should be ~1/4 of c=1.
        let n = 256;
        let b1 =
            count_ops(AllPairsParams::new(16, 1, n).program(0)).send_bytes[Phase::Shift.index()];
        let b4 =
            count_ops(AllPairsParams::new(16, 4, n).program(0)).send_bytes[Phase::Shift.index()];
        assert_eq!(b1, 4 * b4);
    }

    #[test]
    fn cutoff_schedule_interactions_match_window() {
        // Uniform blocks: total interactions = sum over team pairs within
        // the window of len_t * len_b (minus self pairs).
        let grid = ProcGrid::new(16, 2).unwrap();
        let window = TeamWindow::clipped(&[8], &[2]);
        let sizes = vec![5usize; 8];
        let params = CutoffParams::new(grid, window, sizes.clone());
        let total: u64 = (0..16)
            .map(|r| count_ops(params.program(r)).interactions)
            .sum();
        let mut want = 0u64;
        for t in 0..8usize {
            for b in 0..8usize {
                if (t as i64 - b as i64).abs() <= 2 {
                    want += block_interactions(sizes[t], sizes[b], t == b);
                }
            }
        }
        assert_eq!(total, want);
    }

    #[test]
    fn cutoff_2d_schedule_interactions_match_window() {
        let grid = ProcGrid::new(18, 2).unwrap();
        let window = TeamWindow::clipped(&[3, 3], &[1, 1]);
        let sizes: Vec<usize> = (0..9).map(|i| 3 + i % 4).collect();
        let params = CutoffParams::new(grid, window, sizes.clone());
        let total: u64 = (0..18)
            .map(|r| count_ops(params.program(r)).interactions)
            .sum();
        let mut want = 0u64;
        for t in 0..9usize {
            let (tx, ty) = (t % 3, t / 3);
            for b in 0..9usize {
                let (bx, by) = (b % 3, b / 3);
                if tx.abs_diff(bx) <= 1 && ty.abs_diff(by) <= 1 {
                    want += block_interactions(sizes[t], sizes[b], t == b);
                }
            }
        }
        assert_eq!(total, want);
    }

    #[test]
    fn reassign_ops_only_on_leaders() {
        let grid = ProcGrid::new(8, 2).unwrap();
        let window = TeamWindow::clipped(&[4], &[1]);
        let hood = TeamWindow::neighbours((4, 1), false);
        let mut params = CutoffParams::new(grid, window, vec![4; 4]);
        params.reassign = Some(ReassignModel { hood, bytes: 100 });
        for rank in 0..8 {
            let counts = count_ops(params.program(rank));
            let expect: u64 = if grid.row_of(rank) == 0 {
                // Interior leaders: 2 neighbors; edge leaders: 1.
                let t = grid.team_of(rank);
                if t == 0 || t == 3 {
                    1
                } else {
                    2
                }
            } else {
                0
            };
            assert_eq!(counts.sends[Phase::Reassign.index()], expect, "rank {rank}");
        }
    }

    #[test]
    fn allgather_schedule() {
        let params = AllgatherParams {
            p: 4,
            n: 40,
            net: CollNet::HwTree,
        };
        let counts = count_ops(params.program(2));
        assert_eq!(counts.collectives[Phase::Broadcast.index()], 1);
        assert_eq!(counts.interactions, 10 * 40 - 10);
    }
}
