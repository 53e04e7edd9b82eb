//! A guided tour of the paper's claims, each demonstrated live at laptop
//! scale. Run with: `cargo run --release --example paper_tour`

use ca_nbody::schedule::AllPairsParams;
use ca_nbody::{run_distributed, run_serial, Method, ProcGrid, SimConfig};
use nbody_comm::Phase;
use nbody_netsim::{hopper, simulate};
use nbody_physics::{init, Boundary, Domain, RepulsiveInverseSquare, SemiImplicitEuler};

fn main() {
    println!("A Communication-Optimal N-Body Algorithm for Direct Interactions");
    println!("— a tour of the paper's claims, reproduced live.\n");

    claim_1_interpolation();
    claim_2_latency_bandwidth_factors();
    claim_3_lower_bound();
    claim_4_interior_optimum();
    claim_5_correctness();
    println!("\nTour complete. See EXPERIMENTS.md for the full-scale record.");
}

/// §III.A: c=1 is a particle decomposition, c=√p a force decomposition.
fn claim_1_interpolation() {
    println!("1. The algorithm interpolates between Plimpton's decompositions (§III.A)");
    for (c, expect) in [
        (1usize, "particle decomposition: p shift steps"),
        (4, "force decomposition: 1 shift step"),
    ] {
        let grid = ProcGrid::new_all_pairs(16, c).unwrap();
        println!(
            "   c={c}: {} teams x {c} rows, {} shift steps  ({expect})",
            grid.teams(),
            grid.all_pairs_steps()
        );
    }
    println!();
}

/// Eq. 5: latency improves by c², bandwidth by c.
fn claim_2_latency_bandwidth_factors() {
    println!("2. Replication cuts latency by c^2 and bandwidth by c (Eq. 5)");
    let count = |c: usize| {
        let params = AllPairsParams::new(64, c, 4096);
        let ops = ca_nbody::schedule::count_ops(params.program(0));
        (
            ops.sends[Phase::Shift.index()],
            ops.send_bytes[Phase::Shift.index()],
        )
    };
    let (m1, b1) = count(1);
    let (m4, b4) = count(4);
    println!(
        "   c=1: {m1} shift msgs, {b1} B; c=4: {m4} msgs ({}x fewer), {b4} B ({}x fewer)",
        m1 / m4,
        b1 / b4
    );
    assert_eq!(m1 / m4, 16, "latency factor c^2");
    assert_eq!(b1 / b4, 4, "bandwidth factor c");
    println!();
}

/// §III.B: the algorithm meets the memory-dependent lower bound.
fn claim_3_lower_bound() {
    println!("3. The algorithm meets the communication lower bound (§III.B)");
    let (n, p) = (1u64 << 16, 1u64 << 10);
    for c in [1u64, 4, 16] {
        let m = nbody_model::memory_per_proc(n, p, c);
        let cost = nbody_model::ca_all_pairs(n, p, c);
        let (rs, rw) = nbody_model::optimality_ratio(
            cost,
            nbody_model::s_direct(n, p, m),
            nbody_model::w_direct(n, p, m),
        );
        println!("   c={c:>2}: S/S_bound = {rs:.2}, W/W_bound = {rw:.2} (constants, not growth)");
        assert!(rs < 8.0 && rw < 8.0);
    }
    println!();
}

/// §III.C / §V: collectives saturate, so the best c is interior.
fn claim_4_interior_optimum() {
    println!("4. The best replication factor is interior — c is a tuning parameter (§V)");
    let machine = hopper();
    let (p, n) = (1024, 8192);
    let mut best = (1usize, f64::INFINITY);
    print!("   makespans:");
    for c in [1usize, 2, 4, 8, 16, 32] {
        if p % (c * c) != 0 {
            continue;
        }
        let params = AllPairsParams::new(p, c, n);
        let t = simulate(&machine, p, |r| params.program(r)).makespan;
        print!(" c={c}:{:.2}ms", t * 1e3);
        if t < best.1 {
            best = (c, t);
        }
    }
    println!("\n   best c = {} (neither 1 nor the maximum)", best.0);
    assert!(best.0 > 1 && best.0 < 32);
    println!();
}

/// And all of it is exact: the distributed trajectory equals the serial one.
fn claim_5_correctness() {
    println!("5. Replication changes communication, not answers");
    let cfg = SimConfig {
        law: RepulsiveInverseSquare::default(),
        integrator: SemiImplicitEuler,
        domain: Domain::unit(),
        boundary: Boundary::Reflective,
        dt: 0.01,
        steps: 10,
    };
    let initial = init::uniform(128, &cfg.domain, 1);
    let want = run_serial(&cfg, &initial);
    for (c, p) in [(1usize, 8usize), (2, 8), (2, 16), (4, 16)] {
        let got = run_distributed(&cfg, Method::CaAllPairs { c }, p, &initial);
        let dev = got
            .particles
            .iter()
            .zip(&want)
            .map(|(a, b)| (a.pos - b.pos).norm())
            .fold(0.0, f64::max);
        println!("   p={p:>2} c={c}: max deviation vs serial = {dev:.2e}");
        assert!(dev < 1e-10);
    }
}
