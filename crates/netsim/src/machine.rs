//! Machine cost models.
//!
//! A [`Machine`] turns schedule operations into time: a LogGP-style
//! `alpha + hops·per_hop + bytes·beta` model for point-to-point messages,
//! and a tree model with a **saturation term** for collectives. The
//! saturation term is the empirically crucial non-ideality the paper
//! reports: "collectives fail to scale logarithmically as our model
//! assumes, so c should be treated as a tuning parameter" (§I) — it is what
//! makes the best replication factor land strictly inside `1 < c < √p`
//! (Fig. 2b/2d) instead of at the maximum.
//!
//! The parameter sets [`hopper`] and [`intrepid`] are calibrated to the
//! machines' published characteristics (Gemini/BG-P latencies, link
//! bandwidths, core speeds) at the right orders of magnitude; the
//! reproduction targets the *shape* of the paper's figures, not absolute
//! seconds (see EXPERIMENTS.md).

use crate::op::CollNet;
use crate::topology::Torus;
use nbody_comm::Phase;

/// A dedicated collective network (the BlueGene/P "tree"), used by
/// whole-partition collectives when requested (Fig. 2c/2d `c=1 (tree)`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeNetwork {
    /// Latency of a tree traversal.
    pub alpha: f64,
    /// Seconds per byte through the tree.
    pub beta: f64,
}

/// Cost-model parameters for one machine.
#[derive(Debug, Clone, PartialEq)]
pub struct Machine {
    /// Human-readable name.
    pub name: &'static str,
    /// MPI ranks per node (24 on Hopper, 4 on Intrepid).
    pub cores_per_node: usize,
    /// Point-to-point message latency (seconds).
    pub alpha: f64,
    /// Point-to-point inverse bandwidth (seconds per byte).
    pub beta: f64,
    /// Additional latency per torus hop.
    pub per_hop: f64,
    /// Discount on alpha and beta for same-node messages.
    pub intra_node_factor: f64,
    /// Seconds per pairwise force evaluation.
    pub gamma: f64,
    /// Per-stage latency of software tree collectives.
    pub coll_alpha: f64,
    /// Per-stage inverse bandwidth of software tree collectives.
    pub coll_beta: f64,
    /// Non-logarithmic collective overhead: extra seconds per byte per
    /// team member. Models software combining and torus contention at
    /// large team sizes — zero would make collectives ideally logarithmic.
    pub coll_saturation: f64,
    /// Dedicated collective network, if the machine has one.
    pub tree: Option<TreeNetwork>,
    /// Whether shift-phase traffic uses bidirectional torus links via
    /// row broadcasts (the paper's DCMF optimization on Intrepid, §III.C),
    /// doubling effective shift bandwidth.
    pub bidirectional_shift: bool,
}

impl Machine {
    /// Number of nodes hosting `p` ranks.
    pub fn nodes(&self, p: usize) -> usize {
        p.div_ceil(self.cores_per_node)
    }

    /// The torus housing `p` ranks.
    pub fn torus(&self, p: usize) -> Torus {
        Torus::fit(self.nodes(p))
    }

    /// Node hosting a rank (contiguous placement).
    pub fn node_of(&self, rank: usize) -> usize {
        rank / self.cores_per_node
    }

    /// Sender-side overhead of posting a message.
    pub fn send_overhead(&self) -> f64 {
        // A fraction of alpha is CPU-side; the rest is network latency,
        // charged to the wire below.
        0.3 * self.alpha
    }

    /// Time from posting until `bytes` from `from` are available at `to`.
    pub fn wire_time(
        &self,
        torus: &Torus,
        from: usize,
        to: usize,
        bytes: u64,
        phase: Phase,
    ) -> f64 {
        let nf = self.node_of(from);
        let nt = self.node_of(to);
        let mut beta = self.beta;
        if self.bidirectional_shift && phase == Phase::Shift {
            beta *= 0.5;
        }
        if nf == nt {
            return self.intra_node_factor * (self.alpha + bytes as f64 * beta);
        }
        let hops = torus.hops(nf % torus.nodes(), nt % torus.nodes());
        self.alpha + hops as f64 * self.per_hop + bytes as f64 * beta
    }

    /// [`wire_time`](Machine::wire_time) with precomputed node ids and
    /// coordinates (the DES hot path).
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub fn wire_time_cached(
        &self,
        torus: &Torus,
        node_from: usize,
        coords_from: [usize; 3],
        node_to: usize,
        coords_to: [usize; 3],
        bytes: u64,
        phase: Phase,
    ) -> f64 {
        let mut beta = self.beta;
        if self.bidirectional_shift && phase == Phase::Shift {
            beta *= 0.5;
        }
        if node_from == node_to {
            return self.intra_node_factor * (self.alpha + bytes as f64 * beta);
        }
        let hops = torus.hops_coords(coords_from, coords_to);
        self.alpha + hops as f64 * self.per_hop + bytes as f64 * beta
    }

    /// Time of a broadcast/reduction over `members` ranks moving `bytes`.
    ///
    /// `combining` collectives (reductions) additionally pay the
    /// saturation term: element-wise summing is software work at every
    /// tree stage, and it is what "fails to scale logarithmically" in the
    /// paper's experiments. Pure data movement (broadcast) stays
    /// latency/bandwidth-bound — the paper calls the initial broadcast
    /// "negligible".
    pub fn collective_time(
        &self,
        members: usize,
        bytes: u64,
        net: CollNet,
        combining: bool,
    ) -> f64 {
        if members <= 1 {
            return 0.0;
        }
        if net == CollNet::HwTree {
            if let Some(tree) = self.tree {
                return tree.alpha + bytes as f64 * tree.beta;
            }
        }
        let stages = (members as f64).log2().ceil();
        let base = stages * (self.coll_alpha + bytes as f64 * self.coll_beta);
        if combining {
            base + self.coll_saturation * bytes as f64 * (members as f64).sqrt()
        } else {
            base
        }
    }

    /// Time of the naive whole-partition exchange: the paper's `c = 1`
    /// baseline on Intrepid replaced the point-to-point ring with
    /// whole-partition *collective* shifts (§III.C), i.e. `members`
    /// sequential block broadcasts — through the hardware tree at line
    /// rate + per-operation latency (`tree` bars of Fig. 2c/2d), or as
    /// software trees over the torus (`no-tree` bars).
    pub fn allgather_time(&self, members: usize, bytes_per_member: u64, net: CollNet) -> f64 {
        if members <= 1 {
            return 0.0;
        }
        if net == CollNet::HwTree {
            if let Some(tree) = self.tree {
                return members as f64 * (tree.alpha + bytes_per_member as f64 * tree.beta);
            }
        }
        let stages = (members as f64).log2().ceil();
        members as f64 * stages * (self.coll_alpha + bytes_per_member as f64 * self.coll_beta)
    }

    /// Time to evaluate `interactions` pairwise forces.
    pub fn compute_time(&self, interactions: u64) -> f64 {
        interactions as f64 * self.gamma
    }
}

/// Hopper: the NERSC Cray XE-6 (§III.C). 24-core AMD MagnyCours nodes at
/// 2.1 GHz on a Gemini 3D torus.
pub fn hopper() -> Machine {
    Machine {
        name: "Hopper (Cray XE-6)",
        cores_per_node: 24,
        alpha: 1.5e-6,
        beta: 3.0e-10,   // ~3.3 GB/s effective per-rank injection
        per_hop: 1.0e-7, // Gemini per-hop latency
        intra_node_factor: 0.3,
        gamma: 4.0e-8, // ~85 cycles per 2D force evaluation at 2.1 GHz
        coll_alpha: 2.0e-6,
        coll_beta: 4.0e-10,
        coll_saturation: 5.0e-8,
        tree: None,
        bidirectional_shift: false,
    }
}

/// Intrepid: the ALCF IBM BlueGene/P (§III.C). Quad-core 850 MHz PowerPC
/// nodes on a 3D torus, plus the dedicated collective ("tree") network and
/// DCMF topology-aware broadcast-shifts.
pub fn intrepid() -> Machine {
    Machine {
        name: "Intrepid (IBM BlueGene/P)",
        cores_per_node: 4,
        alpha: 3.5e-6,
        beta: 2.4e-9, // 425 MB/s per torus link
        per_hop: 1.0e-7,
        intra_node_factor: 0.3,
        gamma: 3.2e-7, // ~270 cycles at 850 MHz: slower cores than Hopper
        coll_alpha: 4.0e-6,
        coll_beta: 3.0e-9,
        coll_saturation: 7.5e-7,
        tree: Some(TreeNetwork {
            alpha: 5.0e-6,
            beta: 1.2e-9, // ~850 MB/s collective network line rate
        }),
        bidirectional_shift: true,
    }
}

/// A featureless test machine with unit-free round numbers; keeps unit
/// tests independent of calibration choices.
pub fn test_machine() -> Machine {
    Machine {
        name: "test",
        cores_per_node: 1,
        alpha: 1.0,
        beta: 0.001,
        per_hop: 0.0,
        intra_node_factor: 1.0,
        gamma: 1.0,
        coll_alpha: 1.0,
        coll_beta: 0.001,
        coll_saturation: 0.0,
        tree: None,
        bidirectional_shift: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_mapping() {
        let m = hopper();
        assert_eq!(m.nodes(24), 1);
        assert_eq!(m.nodes(25), 2);
        assert_eq!(m.nodes(6144), 256);
        assert_eq!(m.node_of(23), 0);
        assert_eq!(m.node_of(24), 1);
    }

    #[test]
    fn intra_node_is_cheaper() {
        let m = hopper();
        let torus = m.torus(48);
        let near = m.wire_time(&torus, 0, 1, 1000, Phase::Other);
        let far = m.wire_time(&torus, 0, 47, 1000, Phase::Other);
        assert!(near < far, "{near} < {far}");
    }

    #[test]
    fn bigger_messages_cost_more() {
        let m = intrepid();
        let torus = m.torus(64);
        let small = m.wire_time(&torus, 0, 63, 100, Phase::Other);
        let large = m.wire_time(&torus, 0, 63, 100_000, Phase::Other);
        assert!(large > small);
        assert!((large - small - 99_900.0 * m.beta).abs() < 1e-12);
    }

    #[test]
    fn bidirectional_shift_halves_shift_bandwidth() {
        let m = intrepid();
        assert!(m.bidirectional_shift);
        let torus = m.torus(64);
        let shift = m.wire_time(&torus, 0, 60, 1 << 20, Phase::Shift);
        let other = m.wire_time(&torus, 0, 60, 1 << 20, Phase::Other);
        assert!(shift < other);
        // Bandwidth-dominated: the ratio approaches 0.5.
        assert!(shift / other < 0.55);

        let h = hopper();
        let th = h.torus(48);
        assert_eq!(
            h.wire_time(&th, 0, 47, 1 << 20, Phase::Shift),
            h.wire_time(&th, 0, 47, 1 << 20, Phase::Other),
            "no DCMF on Hopper"
        );
    }

    #[test]
    fn collective_saturation_dominates_large_teams() {
        let m = hopper();
        let bytes = 10_000;
        let t16 = m.collective_time(16, bytes, CollNet::Torus, true);
        let t256 = m.collective_time(256, bytes, CollNet::Torus, true);
        // Ideal log scaling would give t256/t16 = 2; saturation makes it
        // much worse.
        assert!(t256 / t16 > 3.5, "saturation visible: {}", t256 / t16);
    }

    #[test]
    fn no_saturation_means_log_scaling() {
        let mut m = hopper();
        m.coll_saturation = 0.0;
        let bytes = 10_000;
        let t16 = m.collective_time(16, bytes, CollNet::Torus, true);
        let t256 = m.collective_time(256, bytes, CollNet::Torus, true);
        assert!((t256 / t16 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn hw_tree_beats_torus_for_whole_partition_collectives() {
        let m = intrepid();
        let t_tree = m.allgather_time(8192, 52 * 4, CollNet::HwTree);
        let t_torus = m.allgather_time(8192, 52 * 4, CollNet::Torus);
        assert!(t_tree < t_torus / 5.0, "{t_tree} vs {t_torus}");
    }

    #[test]
    fn hw_tree_request_falls_back_without_tree() {
        let m = hopper();
        assert_eq!(
            m.collective_time(64, 1000, CollNet::HwTree, true),
            m.collective_time(64, 1000, CollNet::Torus, true)
        );
    }

    #[test]
    fn single_member_collectives_free() {
        let m = intrepid();
        assert_eq!(m.collective_time(1, 1 << 20, CollNet::Torus, true), 0.0);
        assert_eq!(m.allgather_time(1, 1 << 20, CollNet::HwTree), 0.0);
    }

    #[test]
    fn compute_time_linear() {
        let m = hopper();
        assert_eq!(m.compute_time(0), 0.0);
        assert!((m.compute_time(1_000_000) - 0.04).abs() < 1e-12);
    }
}
