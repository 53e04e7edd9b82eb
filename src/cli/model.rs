//! `scale` and `autotune`: what the discrete-event simulator predicts on
//! the paper's machines.

use std::process::ExitCode;

use ca_nbody::autotune::{autotune_all_pairs, autotune_cutoff_1d};
use ca_nbody::kernel::ComputeStats;
use ca_nbody::schedule::{count_ops, AllPairsParams};
use nbody_metrics::{MetricsRecorder, MetricsSnapshot};
use nbody_netsim::{hopper, intrepid, simulate, Machine};
use nbody_physics::{ForceLaw, PARTICLE_WIRE_BYTES};
use nbody_trace::{Json, ALL_PHASES};

use super::artifact::{write_metrics, Summary};
use super::opts::invalid;
use super::spec::REPULSIVE;
use super::{Failure, Opts};

fn machine(opts: &mut Opts) -> Result<Machine, Failure> {
    match opts.opt::<String>("machine")?.as_deref() {
        Some("hopper") | None => Ok(hopper()),
        Some("intrepid") => Ok(intrepid()),
        Some(other) => Err(invalid("machine", other, "hopper|intrepid")),
    }
}

/// The replication factors `scale` tabulates.
const CS: [usize; 5] = [1, 2, 4, 8, 16];

/// `scale`: the strong-scaling table of Algorithm 1 (simulated).
pub fn scale(opts: &mut Opts, _: &[String]) -> Result<ExitCode, Failure> {
    let machine = machine(opts)?;
    let n: usize = opts.get("n", 32_768)?;
    // With --metrics, one simulated configuration is distilled into a real
    // MetricsSnapshot (comm counters from the schedule's operation counts,
    // compute counters from the DES compute times), so the downstream
    // lenses — audit, roofline, analyze — work on predicted executions too.
    let metrics = match opts.opt::<String>("metrics")? {
        Some(path) => {
            let mp: usize = opts.get("metrics-p", 256)?;
            let usable = |c: &usize| c * c <= mp && mp.is_multiple_of(c * c);
            let c =
                CS.iter().rev().copied().find(usable).ok_or_else(|| {
                    format!("scale: no usable replication factor for metrics-p={mp}")
                })?;
            Some((path, mp, c))
        }
        None => None,
    };
    opts.finish()?;

    println!(
        "strong scaling of {n} particles on {} (simulated)",
        machine.name
    );
    print!("{:>8}", "cores");
    for c in CS {
        print!(" {:>9}", format!("c={c}"));
    }
    println!();
    let mut rows: Vec<Json> = Vec::new();
    for p in [256usize, 512, 1024, 2048, 4096] {
        print!("{:>8}", p);
        // One entry per c, `None` (null in the summary) where c² ∤ p.
        let (mut effs, mut imbs, mut crit_comm) = (Vec::new(), Vec::new(), Vec::new());
        let (mut msgs, mut words) = (Vec::new(), Vec::new());
        for c in CS {
            if c * c > p || !p.is_multiple_of(c * c) {
                print!(" {:>9}", "-");
                effs.push(None);
                msgs.push(None);
                words.push(None);
                imbs.push(None);
                crit_comm.push(None);
                continue;
            }
            let params = AllPairsParams::new(p, c, n);
            let rep = simulate(&machine, p, |r| params.program(r));
            let compute: f64 = rep.per_rank.iter().map(|b| b.compute).sum();
            let eff = compute / (p as f64 * rep.makespan);
            print!(" {:>9.3}", eff);
            effs.push(Some(eff));
            // Load imbalance (critical rank total vs mean total) and
            // the critical rank's communication share of its time.
            let (mean, crit) = (rep.mean(), rep.critical());
            imbs.push(Some(if mean.total() > 0.0 {
                crit.total() / mean.total()
            } else {
                1.0
            }));
            crit_comm.push(Some(if crit.total() > 0.0 {
                crit.comm_total() / crit.total()
            } else {
                0.0
            }));
            // Per-rank traffic totals (max over ranks): messages count
            // point-to-point sends plus collectives, words count
            // particles at the paper's 52-byte wire size.
            let (mut max_msgs, mut max_words) = (0u64, 0u64);
            for r in 0..p {
                let k = count_ops(params.program(r));
                let m = k.sends.iter().sum::<u64>() + k.collectives.iter().sum::<u64>();
                let w = k.send_bytes.iter().sum::<u64>() / PARTICLE_WIRE_BYTES as u64;
                max_msgs = max_msgs.max(m);
                max_words = max_words.max(w);
            }
            msgs.push(Some(max_msgs));
            words.push(Some(max_words));
        }
        println!();
        let row = Summary::default()
            .put("p", p)
            .put("efficiency", effs)
            .put("messages_per_rank", msgs)
            .put("words_per_rank", words)
            .put("imbalance", imbs)
            .put("critical_comm_frac", crit_comm)
            .to_json();
        rows.push(row);
    }
    let mut summary = Summary::of("scale");
    summary
        .put("machine", machine.name)
        .put("n", n)
        .put("c_values", CS.to_vec())
        .put("rows", rows);
    if let Some((path, mp, c)) = metrics {
        let params = AllPairsParams::new(mp, c, n);
        let rep = simulate(&machine, mp, |r| params.program(r));
        // What one block-on-block kernel call moves, as the live meter
        // charges it; a rank's interactions are block² per call.
        let block = (n * c / mp).max(1);
        let call_bytes = ComputeStats::for_block(0, 0, block, block, 0).bytes;
        let call_pairs = (block * block) as u64;
        // The synthesized kernel is the default repulsive law.
        let flops_per_interaction = REPULSIVE.flops_per_interaction();
        let shards = (0..mp)
            .map(|r| {
                let rec = MetricsRecorder::for_rank(r);
                let k = count_ops(params.program(r));
                for (i, ph) in ALL_PHASES.iter().enumerate() {
                    if k.sends[i] > 0 {
                        rec.counter("comm_send_messages", Some(*ph)).add(k.sends[i]);
                        rec.counter("comm_send_bytes", Some(*ph))
                            .add(k.send_bytes[i]);
                        rec.counter("comm_send_elements", Some(*ph))
                            .add(k.send_bytes[i] / PARTICLE_WIRE_BYTES as u64);
                    }
                    if k.collectives[i] > 0 {
                        rec.counter("comm_collective_messages", Some(*ph))
                            .add(k.collectives[i]);
                    }
                }
                rec.counter("compute_interactions", None)
                    .add(k.interactions);
                rec.counter("compute_flops", None)
                    .add(k.interactions.saturating_mul(flops_per_interaction));
                rec.counter("compute_bytes", None)
                    .add(k.interactions.saturating_mul(call_bytes) / call_pairs);
                let nanos = (rep.per_rank[r].compute * 1e9) as u64;
                rec.counter("compute_nanos", None).add(nanos.max(1));
                rec.finish()
            })
            .collect();
        write_metrics(&path, &MetricsSnapshot::from_shards(shards))?;
        println!("simulated metrics for p={mp} c={c} written to {path}");
        summary
            .put("metrics_path", path)
            .put("metrics_p", mp)
            .put("metrics_c", c);
    }
    summary.print();
    Ok(ExitCode::SUCCESS)
}

/// `autotune`: the replication factor the simulator predicts is fastest.
pub fn autotune(opts: &mut Opts, _: &[String]) -> Result<ExitCode, Failure> {
    let machine = machine(opts)?;
    let p: usize = opts.get("p", 1536)?;
    let n: usize = opts.get("n", 12_288)?;
    let cutoff: f64 = opts.get("cutoff", 0.0)?;
    opts.finish()?;
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
