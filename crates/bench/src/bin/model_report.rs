//! Analytic model report: lower bounds (Eq. 2/3), algorithm costs
//! (§II.B–D, Eq. 5, §IV.B), and optimality ratios across the replication
//! range — the quantitative content of the paper's theory sections, with
//! the paper's experimental parameters plugged in.

use nbody_bench::write_csv;
use nbody_model::{bounds, costs, efficiency::ModelParams, memory_per_proc, optimality_ratio};
use std::fmt::Write as _;

fn main() {
    all_pairs_table();
    cutoff_table();
    decomposition_comparison();
    strong_scaling_prediction();
}

/// Eq. 5 vs. Eq. 2 at the Fig. 2b configuration.
fn all_pairs_table() {
    let (n, p) = (196_608u64, 24_576u64);
    println!("=== All-pairs: costs vs lower bounds (n={n}, p={p}) ===");
    println!(
        "{:>6} {:>14} {:>14} {:>12} {:>12} {:>8} {:>8}",
        "c", "S_alg(msgs)", "W_alg(words)", "S_bound", "W_bound", "S/Sb", "W/Wb"
    );
    let mut csv = String::from("c,s_alg,w_alg,s_bound,w_bound,s_ratio,w_ratio\n");
    for c in [1u64, 2, 4, 8, 16, 32, 64] {
        if (p % (c * c)) != 0 {
            continue;
        }
        let cost = costs::ca_all_pairs(n, p, c);
        let m = memory_per_proc(n, p, c);
        let sb = bounds::s_direct(n, p, m);
        let wb = bounds::w_direct(n, p, m);
        let (rs, rw) = optimality_ratio(cost, sb, wb);
        println!(
            "{:>6} {:>14.1} {:>14.1} {:>12.1} {:>12.1} {:>8.2} {:>8.2}",
            c, cost.messages, cost.words, sb, wb, rs, rw
        );
        let _ = writeln!(
            csv,
            "{c},{},{},{sb},{wb},{rs},{rw}",
            cost.messages, cost.words
        );
    }
    write_csv("model_all_pairs.csv", &csv);
    println!("  (bounded ratios across all c certify communication-optimality, §III.B)\n");
}

/// §IV.B costs vs Eq. 3 at the Fig. 6a configuration.
fn cutoff_table() {
    let (n, p) = (196_608u64, 24_576u64);
    println!("=== 1D cutoff (rc = l/4): costs vs lower bounds (n={n}, p={p}) ===");
    println!(
        "{:>6} {:>10} {:>14} {:>14} {:>8} {:>8}",
        "c", "m(teams)", "S_alg(msgs)", "W_alg(words)", "S/Sb", "W/Wb"
    );
    let mut csv = String::from("c,m,s_alg,w_alg,s_ratio,w_ratio\n");
    for c in [1u64, 2, 4, 8, 16, 32, 64] {
        if p % c != 0 {
            continue;
        }
        let teams = p / c;
        let m = teams / 4;
        let rc_over_l = m as f64 / teams as f64;
        let k = bounds::k_cutoff_1d(n, rc_over_l);
        let mem = memory_per_proc(n, p, c);
        let cost = costs::ca_cutoff_1d(n, p, c, m);
        let (rs, rw) = optimality_ratio(
            cost,
            bounds::s_cutoff(n, k, p, mem),
            bounds::w_cutoff(n, k, p, mem),
        );
        println!(
            "{:>6} {:>10} {:>14.1} {:>14.1} {:>8.2} {:>8.2}",
            c, m, cost.messages, cost.words, rs, rw
        );
        let _ = writeln!(csv, "{c},{m},{},{},{rs},{rw}", cost.messages, cost.words);
    }
    write_csv("model_cutoff_1d.csv", &csv);
    println!("  (optimal for all c = 1..m, §IV.B)\n");
}

/// The §II landscape: particle vs force vs spatial vs NT vs CA.
fn decomposition_comparison() {
    let (n, p) = (196_608u64, 24_576u64);
    let m = 16u64;
    println!("=== Decomposition landscape (n={n}, p={p}; cutoff span m={m}, d=3) ===");
    let rows: Vec<(&str, costs::CommCost)> = vec![
        ("particle (§II.B)", costs::particle_decomposition(n, p)),
        ("force (§II.B)", costs::force_decomposition(n, p)),
        ("spatial (§II.C)", costs::spatial_decomposition(n, p, m, 3)),
        (
            "neutral-territory (§II.D)",
            costs::neutral_territory(n, p, m, 3),
        ),
        ("CA c=4 (Eq. 5)", costs::ca_all_pairs(n, p, 4)),
        ("CA c=16 (Eq. 5)", costs::ca_all_pairs(n, p, 16)),
    ];
    println!("{:<28} {:>14} {:>14}", "method", "S (msgs)", "W (words)");
    let mut csv = String::from("method,messages,words\n");
    for (name, cost) in &rows {
        println!("{:<28} {:>14.1} {:>14.1}", name, cost.messages, cost.words);
        let _ = writeln!(csv, "{name},{},{}", cost.messages, cost.words);
    }
    write_csv("model_landscape.csv", &csv);
    println!();
}

/// Closed-form Fig. 3a prediction (cross-check of the DES).
fn strong_scaling_prediction() {
    let n = 196_608u64;
    let mp = ModelParams {
        alpha: 1.5e-6,
        beta: 52.0 * 3.0e-10, // 52-byte particles
        gamma: 4.0e-8,
    };
    println!("=== Closed-form strong scaling (Fig. 3a cross-check) ===");
    println!(
        "{:>8} {:>10} {:>10} {:>10}",
        "cores", "e(c=1)", "e(c=4)", "e(c=16)"
    );
    let serial = mp.gamma * n as f64 * n as f64;
    let mut csv = String::from("cores,e_c1,e_c4,e_c16\n");
    for p in [1_536u64, 3_072, 6_144, 12_288, 24_576] {
        let e =
            |c: u64| nbody_model::efficiency(serial, p, nbody_model::time_all_pairs(mp, n, p, c));
        println!("{:>8} {:>10.3} {:>10.3} {:>10.3}", p, e(1), e(4), e(16));
        let _ = writeln!(csv, "{p},{},{},{}", e(1), e(4), e(16));
    }
    write_csv("model_scaling.csv", &csv);
}
