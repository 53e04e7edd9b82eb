//! The paper's qualitative findings must hold in the simulated experiments
//! at reduced scale — these are the acceptance criteria of EXPERIMENTS.md,
//! enforced in CI.

use nbody_bench::{run_all_pairs_point, run_allgather_point, run_cutoff_point, valid_all_pairs_cs};
use nbody_netsim::{hopper, intrepid};

#[test]
fn fig2_shape_communication_drops_then_interior_optimum() {
    // Fig. 2b shape at 1/16 scale: comm decreases from c=1, and the best
    // total sits strictly inside the sweep once reduce saturation bites.
    let m = hopper();
    let (p, n) = (1536, 12_288);
    let cs = valid_all_pairs_cs(p, &[1, 2, 4, 8, 16]);
    let rows: Vec<_> = cs
        .iter()
        .map(|&c| run_all_pairs_point(&m, p, n, c))
        .collect();

    // Monotone comm decrease for small c.
    assert!(
        rows[1].comm() < rows[0].comm(),
        "c=2 must communicate less than c=1"
    );
    // Computation is essentially constant across c.
    for r in &rows {
        let rel = (r.compute - rows[0].compute).abs() / rows[0].compute;
        assert!(rel < 0.01, "compute varies with c: {rel}");
    }
    // The best total time is at an interior c (not c=1, not the max).
    let best = rows
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.makespan.total_cmp(&b.1.makespan))
        .unwrap()
        .0;
    assert!(best > 0, "replication must pay off");
    assert!(best < rows.len() - 1, "max replication must not win");
}

#[test]
fn fig2_shape_shift_drops_quadratically_reduce_grows() {
    let m = hopper();
    let (p, n) = (1536, 12_288);
    let r1 = run_all_pairs_point(&m, p, n, 1);
    let r4 = run_all_pairs_point(&m, p, n, 4);
    // S drops by ~c^2, W by ~c: shift time should fall superlinearly.
    assert!(
        r4.shift < r1.shift / 3.0,
        "shift c=4 {:.6} vs c=1 {:.6}",
        r4.shift,
        r1.shift
    );
    // Reduce time grows with c (it does not exist at c=1).
    assert_eq!(r1.reduce, 0.0);
    assert!(r4.reduce > 0.0);
}

#[test]
fn fig2cd_shape_tree_helps_naive_but_ca_wins() {
    let m = intrepid();
    let (p, n) = (512, 2_048);
    let tree = run_allgather_point(&m, p, n, true);
    let no_tree = run_allgather_point(&m, p, n, false);
    assert!(
        tree.makespan < no_tree.makespan / 2.0,
        "the hardware tree must help the naive implementation substantially"
    );
    let best_ca = valid_all_pairs_cs(p, &[1, 2, 4, 8, 16])
        .iter()
        .map(|&c| run_all_pairs_point(&m, p, n, c).makespan)
        .fold(f64::INFINITY, f64::min);
    assert!(
        best_ca < tree.makespan,
        "the CA algorithm on the torus must beat the hardware-assisted naive run \
         ({best_ca} vs {})",
        tree.makespan
    );
    // §III.C: vs the torus-only naive run, communication avoidance removes
    // the vast majority of communication time (paper: 99.5%).
    let best_comm = valid_all_pairs_cs(p, &[1, 2, 4, 8, 16])
        .iter()
        .map(|&c| run_all_pairs_point(&m, p, n, c).comm())
        .fold(f64::INFINITY, f64::min);
    assert!(
        best_comm < 0.1 * no_tree.comm(),
        "expected >90% comm reduction vs naive torus run"
    );
}

#[test]
fn fig3_shape_efficiency_crossover() {
    // Small machine: c=1 fine. Large machine: replication wins and stays
    // near-perfect.
    let m = hopper();
    let n = 12_288;
    let small = 96;
    let large = 1_536;
    let e = |p: usize, c: usize| run_all_pairs_point(&m, p, n, c).efficiency(p);
    assert!(e(small, 1) > 0.95, "small machine, c=1 is nearly ideal");
    let e1 = e(large, 1);
    let e4 = e(large, 4);
    assert!(
        e4 > e1,
        "at {large} cores replication must beat c=1 ({e4:.3} vs {e1:.3})"
    );
    assert!(
        e4 > 0.85,
        "best-c strong scaling stays near-perfect: {e4:.3}"
    );
}

#[test]
fn fig6_shape_cutoff_interior_optimum_and_shift_stagnation() {
    let m = hopper();
    let (p, n) = (1536, 12_288);
    let rows: Vec<_> = [1usize, 2, 4, 8, 16]
        .iter()
        .filter_map(|&c| run_cutoff_point(&m, 1, p, n, c, 0.25).map(|r| (c, r)))
        .collect();
    assert!(rows.len() >= 4);
    // Comm decreases initially.
    assert!(rows[1].1.comm() < rows[0].1.comm());
    // Reduce grows "considerably" for large c (§IV.D).
    let last = &rows.last().unwrap().1;
    assert!(last.reduce > rows[1].1.reduce * 4.0);
    // Interior optimum.
    let best = rows
        .iter()
        .enumerate()
        .min_by(|a, b| a.1 .1.makespan.total_cmp(&b.1 .1.makespan))
        .unwrap()
        .0;
    assert!(best > 0 && best < rows.len() - 1, "best index {best}");
    // Re-assignment cost is present but small.
    for (_, r) in &rows {
        assert!(r.reassign > 0.0);
        assert!(r.reassign < 0.2 * r.makespan);
    }
}

#[test]
fn fig7_shape_best_replication_roughly_doubles_c1_efficiency() {
    let m = hopper();
    let n = 12_288;
    let p = 1_536;
    let e1 = run_cutoff_point(&m, 1, p, n, 1, 0.25)
        .unwrap()
        .efficiency(p);
    let best = [2usize, 4, 8, 16]
        .iter()
        .filter_map(|&c| run_cutoff_point(&m, 1, p, n, c, 0.25))
        .map(|r| r.efficiency(p))
        .fold(0.0, f64::max);
    assert!(
        best > 1.4 * e1,
        "best replication should far exceed c=1 at scale ({best:.3} vs {e1:.3})"
    );
}

#[test]
fn fig7_shape_largest_c_never_best_2d() {
    let m = intrepid();
    let n = 16_384;
    let p = 2_048;
    let effs: Vec<(usize, f64)> = [1usize, 4, 16, 64]
        .iter()
        .filter_map(|&c| run_cutoff_point(&m, 2, p, n, c, 0.25).map(|r| (c, r.efficiency(p))))
        .collect();
    assert!(effs.len() >= 3);
    let (largest_c, largest_eff) = *effs.last().unwrap();
    let best = effs
        .iter()
        .cloned()
        .fold((0, 0.0), |acc, x| if x.1 > acc.1 { x } else { acc });
    assert_ne!(
        best.0, largest_c,
        "the largest replication factor never gives the best results (§IV.D): {effs:?}"
    );
    assert!(largest_eff < best.1);
}
