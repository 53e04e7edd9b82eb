//! Figure 7: strong-scaling parallel efficiency of the 1D and 2D cutoff
//! algorithms (`r_c = l/4`), on Hopper (196,608 particles, 96–24,576
//! cores) and Intrepid (262,144 particles, 2,048–32,768 cores), with
//! curves for `c ∈ {1, 4, 16, 64}`.
//!
//! Expected shapes (§IV.D): the largest replication factor never wins;
//! small machines show sub-optimal performance from load imbalance; the
//! best replication roughly doubles the efficiency of `c = 1` at the
//! largest machine sizes.

use nbody_bench::{emit_efficiency, run_cutoff_point, Scale};
use nbody_netsim::{hopper, intrepid, Machine};

const RC_FRACTION: f64 = 0.25;

fn panel(name: &str, csv: &str, machine: &Machine, dim: u32, n: usize, ps: &[usize], cs: &[usize]) {
    let cells: Vec<Vec<Option<f64>>> = ps
        .iter()
        .map(|&p| {
            cs.iter()
                .map(|&c| {
                    run_cutoff_point(machine, dim, p, n, c, RC_FRACTION)
                        .map(|row| row.efficiency(p))
                })
                .collect()
        })
        .collect();
    emit_efficiency(
        &format!(
            "{name}: {dim}D cutoff, {} particles, rc=l/4 on {}",
            n, machine.name
        ),
        csv,
        ps,
        cs,
        &cells,
    );
    let last = cells.last().unwrap();
    if let (Some(Some(e1)), Some(best)) = (
        last.first(),
        last.iter().flatten().cloned().reduce(f64::max),
    ) {
        println!(
            "  headline: at {} cores, best replication gives {:.2}x the efficiency of c=1 \
             ({:.3} vs {:.3})",
            ps.last().unwrap(),
            best / e1,
            best,
            e1
        );
    }
}

fn main() {
    let scale = Scale::from_args();
    let t = scale.tag();
    let cs = [1usize, 4, 16, 64];
    let h = hopper();
    let i = intrepid();

    let hopper_ps: Vec<usize> = [96usize, 192, 384, 768, 1_536, 3_072, 6_144, 12_288, 24_576]
        .iter()
        .map(|&p| scale.p(p))
        .collect();
    // Deduplicate after clamping (tiny sizes can collapse under --quick).
    let hopper_ps = dedup(hopper_ps);
    panel(
        &format!("Fig 7a{t}"),
        "fig7a.csv",
        &h,
        1,
        scale.n(196_608),
        &hopper_ps,
        &cs,
    );
    panel(
        &format!("Fig 7b{t}"),
        "fig7b.csv",
        &h,
        2,
        scale.n(196_608),
        &hopper_ps,
        &cs,
    );

    let intrepid_ps: Vec<usize> = [2_048usize, 4_096, 8_192, 16_384, 32_768]
        .iter()
        .map(|&p| scale.p(p))
        .collect();
    let intrepid_ps = dedup(intrepid_ps);
    panel(
        &format!("Fig 7c{t}"),
        "fig7c.csv",
        &i,
        1,
        scale.n(262_144),
        &intrepid_ps,
        &cs,
    );
    panel(
        &format!("Fig 7d{t}"),
        "fig7d.csv",
        &i,
        2,
        scale.n(262_144),
        &intrepid_ps,
        &cs,
    );
}

fn dedup(mut v: Vec<usize>) -> Vec<usize> {
    v.dedup();
    v
}
