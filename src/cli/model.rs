//! `autotune`: the replication factor the discrete-event simulator
//! predicts is fastest on one of the paper's machines.

use std::process::ExitCode;

use ca_nbody::autotune::{autotune_all_pairs, autotune_cutoff_1d};
use nbody_netsim::{hopper, intrepid, Machine};

use super::opts::invalid;
use super::{Failure, Opts};

fn machine(opts: &mut Opts) -> Result<Machine, Failure> {
    match opts.opt::<String>("machine")?.as_deref() {
        Some("hopper") | None => Ok(hopper()),
        Some("intrepid") => Ok(intrepid()),
        Some(other) => Err(invalid("machine", other, "hopper|intrepid")),
    }
}

/// `autotune`: the replication factor the simulator predicts is fastest.
pub fn autotune(opts: &mut Opts, _: &[String]) -> Result<ExitCode, Failure> {
    let machine = machine(opts)?;
    let p: usize = opts.get("p", 1536)?;
    let n: usize = opts.get("n", 12_288)?;
    let cutoff: f64 = opts.get("cutoff", 0.0)?;
    opts.finish()?;
    // The sweeps assert these; refuse them here in one line.
    if p == 0 {
        return Err("p=0 is not usable: autotune needs at least one rank".into());
    }
    if cutoff > 1.0 {
        return Err(format!(
            "cutoff={cutoff} is not usable: autotune takes the radius as a fraction of the domain, at most 1"
        )
        .into());
    }
    let (tune, window) = if cutoff > 0.0 {
        let tune = autotune_cutoff_1d(&machine, p, n, cutoff);
        (tune, format!(", rc={cutoff}l"))
    } else {
        (autotune_all_pairs(&machine, p, n), String::new())
    };
    println!("autotune on {} (p={p}, n={n}{window}):", machine.name);
    for k in &tune.candidates {
        let marker = if k.c == tune.best_c { "  <-- best" } else { "" };
        println!("  c={:<4} {:.3} ms{marker}", k.c, k.predicted_secs * 1e3);
    }
    Ok(ExitCode::SUCCESS)
}
