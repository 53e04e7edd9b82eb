//! The traced run: per-layer metrics of one workload, from spans recorded
//! around the program's layers by the mirrored loop under `SpanComm`, from
//! the counting force law, and from the direct microbenchmarks.
//!
//! Nothing here is reached by the untraced binary.

use std::time::Instant;

use ca_nbody::run_distributed;
use nbody_comm::{run_ranks, Communicator, Phase};
use nbody_physics::{ForceLaw, Particle};

use crate::endtoend::{check_recovery_clean, critical_path_counts, Budget};
use crate::micro::{comm_direct, kernel_direct, spawn_direct};
use crate::mirror::{
    cutoff_window, force_counts, gather, mirror_rank, CountingLaw, RankOut, SECTIONS,
};
use crate::report::{Metric, Outcome};
use crate::spancomm::{SpanComm, COMM_SPANS, SEND};
use crate::spans::{check_step_tiling, children, self_ns, NoProbe, Sink, Span, ROOT};
use crate::stats::{quantile, sorted, summarize};
use crate::with_law;
use crate::workload::{fingerprint, guarded, run_entry, Workload, PREFIX_STEPS};

/// The per-layer metrics every workload reports (`BENCHMARK.json`'s
/// `per_layer`). The workload-specific ones (`allpairs.*`, `cutoff.*`,
/// `reassign.*`, `recovery.*`) are in the table and the trace file only.
pub const PER_LAYER: [&str; 24] = [
    "kernel.ns_per_interaction",
    "kernel.interactions_per_step",
    "kernel.accepted_frac",
    "kernel.gflops",
    "kernel.flops_per_byte_computed",
    "kernel.self_s_per_step",
    "kernel.share_of_step",
    "comm.sendrecv_ns",
    "comm.sendrecv_bytes_per_s",
    "comm.bcast_ns",
    "comm.reduce_ns",
    "comm.spawn_s",
    "comm.calls_per_step",
    "comm.busy_s_per_step",
    "comm.p2p_bytes_per_step",
    "comm.msg_bytes_p50",
    "comm.blocked_s_per_step",
    "cadriver.force_s_p50",
    "cadriver.force_s_p95",
    "physics.integrate_ns_per_particle",
    "sim.driver_overhead_frac",
    "alloc.count_per_step",
    "alloc.bytes_per_step",
    "trace.overhead_frac",
];

/// Traced repetitions per round (one round also runs the entry point and
/// the bare loop once): the per-step span samples need the most data.
const TRACED_PER_ROUND: usize = 2;
/// Share of `--seconds` spent in rounds; the rest is the direct kernel timing.
const ROUNDS_SHARE: f64 = 0.75;
/// Timesteps of the first traced repetition kept for the trace file.
pub const TRACE_FILE_STEPS: u32 = 50;
/// Source bytes a force evaluation needs per particle: position, mass, id.
const SOURCE_BYTES: f64 = 32.0;

/// The traced run's result: the metrics and the spans for the trace file.
pub struct TracedRun {
    /// Metrics and failures.
    pub outcome: Outcome,
    /// Spans of the first traced repetition's first [`TRACE_FILE_STEPS`]
    /// timesteps, one list per rank.
    pub spans: Vec<Vec<Span>>,
}

/// Run the traced measurement of `w` on the inputs of `seed`.
pub fn measure(w: &Workload, seed: u64, budget: Budget) -> TracedRun {
    with_law!(w, law => measure_with(w, law, &w.initial(seed), budget))
}

/// Whether two final states are bit-identical.
fn same_state(a: &[Particle], b: &[Particle]) -> bool {
    fingerprint(a) == fingerprint(b)
}

/// Seconds per step of one timed call of `w`'s entry point.
fn timed_entry<F: ForceLaw + Copy>(
    w: &Workload,
    law: F,
    initial: &[Particle],
) -> Result<f64, String> {
    let t0 = Instant::now();
    let run = run_entry(w, law, w.steps, initial);
    let secs = t0.elapsed().as_secs_f64();
    check_recovery_clean(&run?)?;
    Ok(secs / w.steps as f64)
}

/// One repetition of the mirrored loop on the bare `ThreadComm`.
fn bare_rep<F: ForceLaw>(
    w: &Workload,
    law: &F,
    initial: &[Particle],
) -> Result<Vec<RankOut>, String> {
    guarded(|| {
        Ok(run_ranks(w.p, |world| {
            mirror_rank(w, law, w.steps, &*world, &NoProbe, initial)
        }))
    })
}

/// One repetition of the mirrored loop under `SpanComm`.
fn traced_rep<F: ForceLaw>(
    w: &Workload,
    law: &F,
    initial: &[Particle],
    rep: usize,
    capacity: usize,
) -> Result<Vec<(RankOut, Vec<Span>)>, String> {
    let epoch = Instant::now();
    guarded(|| {
        Ok(run_ranks(w.p, |world| {
            let sink = Sink::new(epoch, world.rank(), rep, capacity);
            let out = {
                let comm = SpanComm::world(&*world, &sink);
                mirror_rank(w, law, w.steps, &comm, &sink, initial)
            };
            (out, sink.finish())
        }))
    })
}

/// The mirrored loop on a [`PREFIX_STEPS`]-step prefix under the counting
/// law: `(force() calls, non-zero results)` per step over all ranks. The
/// result must equal `run_distributed`'s on the same prefix bit for bit.
fn counting_prefix<F: ForceLaw + Copy>(
    w: &Workload,
    law: F,
    initial: &[Particle],
) -> Result<(f64, f64), String> {
    let counted = guarded(|| {
        Ok(run_ranks(w.p, |world| {
            let before = force_counts();
            let out = mirror_rank(
                w,
                &CountingLaw(law),
                PREFIX_STEPS,
                &*world,
                &NoProbe,
                initial,
            );
            let after = force_counts();
            (out, after.0 - before.0, after.1 - before.1)
        }))
    })?;
    let want = guarded(|| {
        Ok(run_distributed(&w.config(law, PREFIX_STEPS), w.method, w.p, initial).particles)
    })?;
    if !same_state(&gather(counted.iter().map(|(o, _, _)| o)), &want) {
        return Err("counting law changed the trajectory".to_string());
    }
    let calls: u64 = counted.iter().map(|(_, c, _)| c).sum();
    let nonzero: u64 = counted.iter().map(|(_, _, z)| z).sum();
    Ok((
        calls as f64 / PREFIX_STEPS as f64,
        nonzero as f64 / PREFIX_STEPS as f64,
    ))
}

/// Per-repetition samples read off the span trees.
#[derive(Default)]
struct SpanSamples {
    kernel_self_s: Vec<f64>,
    kernel_share: Vec<f64>,
    comm_calls: Vec<f64>,
    comm_busy_s: Vec<f64>,
    p2p_bytes: Vec<f64>,
    msg_bytes_p50: Vec<f64>,
    blocked_s: Vec<f64>,
    force_s: Vec<f64>,
    reassign_s: Vec<f64>,
    integrate_ns_per_particle: Vec<f64>,
    migrants: Vec<f64>,
    step_s: Vec<f64>,
}

impl SpanSamples {
    /// Fold in one traced repetition; `Err` names a broken structural or
    /// exact cross-check.
    fn add(&mut self, w: &Workload, ranks: &[(RankOut, Vec<Span>)]) -> Result<(), String> {
        let steps = w.steps as f64;
        let is_comm = |s: &Span| COMM_SPANS.contains(&s.name);
        // Force self time (minus communicator children) and step time per rank.
        let mut force_self = Vec::with_capacity(ranks.len());
        for (rank, (out, spans)) in ranks.iter().enumerate() {
            check_step_tiling(spans, &SECTIONS, &COMM_SPANS)
                .map_err(|e| format!("rank {rank}: {e}"))?;
            let (kids, _) = children(spans);
            let mut own = 0u64;
            for (i, s) in spans.iter().enumerate() {
                if s.name == "force" {
                    own += self_ns(spans, i as u32, &kids[i]);
                }
            }
            force_self.push(own);
            let sent: u64 = spans
                .iter()
                .filter(|s| s.name == SEND)
                .map(|s| s.bytes)
                .sum();
            if sent != out.stats.total_bytes() {
                return Err(format!(
                    "rank {rank}: SpanComm counted {sent} point-to-point bytes, CommStats {}",
                    out.stats.total_bytes()
                ));
            }
        }
        // The critical rank does the most kernel work; the others wait for it.
        let crit = (0..ranks.len()).max_by_key(|&r| force_self[r]).unwrap_or(0);
        let (crit_out, crit_spans) = &ranks[crit];
        let step_ns: u64 = crit_spans
            .iter()
            .filter(|s| s.name == "step")
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        self.kernel_self_s
            .push(force_self[crit] as f64 * 1e-9 / steps);
        self.kernel_share
            .push(force_self[crit] as f64 / step_ns as f64);
        // Time on the critical rank; counts as the largest over ranks (the
        // critical path in the sense of `crit_msgs_per_step`), so they do
        // not flip with which rank happened to be slowest.
        let in_loop = |spans: &[Span]| -> Vec<f64> {
            spans
                .iter()
                .filter(|s| is_comm(s) && s.parent != ROOT)
                .map(Span::secs)
                .collect()
        };
        self.comm_busy_s
            .push(in_loop(crit_spans).iter().sum::<f64>() / steps);
        let calls = ranks.iter().map(|(_, spans)| in_loop(spans).len());
        self.comm_calls
            .push(calls.max().unwrap_or(0) as f64 / steps);
        let sent = ranks.iter().map(|(o, _)| o.stats.total_bytes());
        self.p2p_bytes.push(sent.max().unwrap_or(0) as f64 / steps);
        self.blocked_s
            .push(crit_out.stats.total_blocked_secs() / steps);
        let sends: Vec<f64> = ranks
            .iter()
            .flat_map(|(_, spans)| spans.iter().filter(|s| s.name == SEND))
            .map(|s| s.bytes as f64)
            .collect();
        self.msg_bytes_p50.push(quantile(&sorted(&sends), 0.5));

        // Rank 0 leads team 0: it integrates and re-assigns every step.
        let rank0 = &ranks[0].1;
        let total = |name: &str| -> f64 {
            rank0
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.secs())
                .sum()
        };
        self.force_s
            .extend(rank0.iter().filter(|s| s.name == "force").map(|s| s.secs()));
        self.reassign_s.push(total("reassign") / steps);
        self.integrate_ns_per_particle
            .push(total("integrate") * 1e9 / steps / w.block() as f64);
        self.migrants
            .push(ranks.iter().map(|(o, _)| o.migrants).sum::<u64>() as f64 / steps);
        self.step_s
            .push(ranks.iter().map(|(o, _)| o.loop_s).fold(0.0, f64::max) / steps);
        Ok(())
    }
}

fn measure_with<F: ForceLaw + Copy>(
    w: &Workload,
    law: F,
    initial: &[Particle],
    budget: Budget,
) -> TracedRun {
    let mut out = Outcome::default();
    let mut kept: Vec<Vec<Span>> = Vec::new();
    let steps = w.steps as f64;
    let plain = Workload {
        fault_tolerant: false,
        ..*w
    };

    // Untimed warm-up of the entry point: the reference every mirrored
    // repetition must reproduce bit for bit.
    let warm = run_entry(w, law, w.steps, initial).and_then(|r| {
        check_recovery_clean(&r)?;
        Ok(r)
    });
    let Some(reference) = out.attempt("warm-up", warm) else {
        return TracedRun {
            outcome: out,
            spans: kept,
        };
    };
    let matches_reference = |outs: &mut dyn Iterator<Item = &RankOut>| -> Result<(), String> {
        if same_state(&gather(outs), &reference.particles) {
            Ok(())
        } else {
            Err("mirrored loop differs from the entry point's final state".to_string())
        }
    };

    let (calls_per_step, nonzero_per_step) = out
        .attempt("counting run", counting_prefix(w, law, initial))
        .unwrap_or((0.0, 0.0));

    let (mut entry_step, mut plain_step, mut bare_step) = (Vec::new(), Vec::new(), Vec::new());
    let (mut alloc_count, mut alloc_bytes) = (Vec::new(), Vec::new());
    let mut samples = SpanSamples::default();
    let mut capacity = 1024;
    let mut traced_reps = 0;
    let rounds = budget.share(ROUNDS_SHARE);
    let started = Instant::now();
    let mut round = 0;
    // Entry point, bare loop and traced loop take turns, so drift in the
    // machine's speed lands on all of them and cancels in their ratios.
    while rounds.wants_more(round, started) {
        entry_step.extend(out.attempt("entry point", timed_entry(w, law, initial)));
        if w.fault_tolerant {
            plain_step.extend(out.attempt("plain entry point", timed_entry(&plain, law, initial)));
        }

        let bare = bare_rep(w, &law, initial).and_then(|outs| {
            matches_reference(&mut outs.iter())?;
            Ok(outs)
        });
        if let Some(outs) = out.attempt("bare loop", bare) {
            bare_step.push(outs.iter().map(|o| o.loop_s).fold(0.0, f64::max) / steps);
            alloc_count.push(outs.iter().map(|o| o.allocs).sum::<u64>() as f64 / steps);
            alloc_bytes.push(outs.iter().map(|o| o.alloc_bytes).sum::<u64>() as f64 / steps);
        }

        for _ in 0..TRACED_PER_ROUND {
            let traced = traced_rep(w, &law, initial, traced_reps, capacity).and_then(|ranks| {
                matches_reference(&mut ranks.iter().map(|(o, _)| o))?;
                samples.add(w, &ranks)?;
                Ok(ranks)
            });
            if let Some(ranks) = out.attempt("traced loop", traced) {
                capacity = ranks.iter().map(|(_, s)| s.len()).max().unwrap_or(capacity);
                if kept.is_empty() {
                    kept = ranks
                        .into_iter()
                        .map(|(_, mut spans)| {
                            let end = spans.iter().position(|s| s.step >= TRACE_FILE_STEPS);
                            spans.truncate(end.unwrap_or(spans.len()));
                            spans
                        })
                        .collect();
                }
            }
            traced_reps += 1;
        }
        round += 1;
    }

    let kernel = kernel_direct(w, &law, initial, budget.share(1.0 - ROUNDS_SHARE));
    let comm = comm_direct(w);
    let spawn = spawn_direct(w.p);

    let median = |v: &[f64]| summarize(v).median;
    let flops = law.flops_per_interaction() as f64;
    let ns_per_interaction = kernel.ns_per_interaction.median;
    let sorted_force = sorted(&samples.force_s);
    let (crit_msgs, crit_bytes) = critical_path_counts(&reference.stats, w.steps);
    let shift_msgs = reference.stats[0].phase(Phase::Shift).messages as f64 / steps;

    let mut m = vec![
        Metric::sampled("kernel.ns_per_interaction", "ns", kernel.ns_per_interaction),
        Metric::exact("kernel.interactions_per_step", "count", calls_per_step),
        Metric::exact(
            "kernel.accepted_frac",
            "ratio",
            nonzero_per_step / calls_per_step,
        ),
        Metric::exact("kernel.gflops", "GFLOP/s", flops / ns_per_interaction),
        Metric::exact(
            "kernel.flops_per_byte_computed",
            "FLOP/B",
            kernel.interactions_per_call as f64 * flops / kernel.bytes_per_call_computed as f64,
        ),
        Metric::sampled(
            "kernel.self_s_per_step",
            "s",
            summarize(&samples.kernel_self_s),
        ),
        Metric::sampled(
            "kernel.share_of_step",
            "ratio",
            summarize(&samples.kernel_share),
        ),
        Metric::sampled("comm.sendrecv_ns", "ns", comm.sendrecv_ns),
        Metric::exact(
            "comm.sendrecv_bytes_per_s",
            "B/s",
            comm.block_bytes as f64 / (comm.sendrecv_ns.median * 1e-9),
        ),
        Metric::sampled("comm.bcast_ns", "ns", comm.bcast_ns),
        Metric::sampled("comm.reduce_ns", "ns", comm.reduce_ns),
        Metric::sampled("comm.spawn_s", "s", spawn),
        Metric::sampled(
            "comm.calls_per_step",
            "count",
            summarize(&samples.comm_calls),
        ),
        Metric::sampled("comm.busy_s_per_step", "s", summarize(&samples.comm_busy_s)),
        Metric::sampled(
            "comm.p2p_bytes_per_step",
            "B",
            summarize(&samples.p2p_bytes),
        ),
        Metric::sampled("comm.msg_bytes_p50", "B", summarize(&samples.msg_bytes_p50)),
        Metric::sampled(
            "comm.blocked_s_per_step",
            "s",
            summarize(&samples.blocked_s),
        ),
    ];
    // One sample per timestep on rank 0.
    let force = |name: &'static str, q: f64| {
        Metric::statistic(
            name,
            "s",
            quantile(&sorted_force, q),
            summarize(&sorted_force),
        )
    };
    if w.is_all_pairs() {
        let (p, c, n) = (w.p as f64, w.c() as f64, w.n as f64);
        let eq5_msgs = p / (c * c) + if w.c() > 1 { 1.0 } else { 0.0 };
        m.extend([
            force("allpairs.force_s_p50", 0.5),
            force("allpairs.force_s_p95", 0.95),
            Metric::exact("allpairs.shift_steps", "count", shift_msgs),
            Metric::exact("allpairs.msgs_over_eq5", "ratio", crit_msgs / eq5_msgs),
            Metric::exact(
                "allpairs.bytes_over_min",
                "ratio",
                crit_bytes / (SOURCE_BYTES * n / c),
            ),
        ]);
        if calls_per_step != n * (n - 1.0) {
            out.fail(format!(
                "kernel.interactions_per_step is {calls_per_step}, not n(n-1) = {}",
                n * (n - 1.0)
            ));
        }
        if shift_msgs != p / (c * c) {
            out.fail(format!(
                "allpairs.shift_steps is {shift_msgs}, not p/c² = {}",
                p / (c * c)
            ));
        }
    } else {
        let (window_len, row_steps) = cutoff_window(w, law.cutoff().unwrap_or(0.0));
        m.extend([
            force("cutoff.force_s_p50", 0.5),
            force("cutoff.force_s_p95", 0.95),
            Metric::exact("cutoff.window_len", "count", window_len as f64),
            Metric::exact("cutoff.row_steps", "count", row_steps as f64),
            Metric::sampled("reassign.s_per_step", "s", summarize(&samples.reassign_s)),
            Metric::sampled(
                "reassign.migrants_per_step",
                "count",
                summarize(&samples.migrants),
            ),
        ]);
    }
    m.extend([
        force("cadriver.force_s_p50", 0.5),
        force("cadriver.force_s_p95", 0.95),
        Metric::sampled(
            "physics.integrate_ns_per_particle",
            "ns",
            summarize(&samples.integrate_ns_per_particle),
        ),
    ]);
    if let Some((attempts, shrinks)) = reference.recovery {
        m.extend([
            Metric::exact(
                "recovery.overhead_frac",
                "ratio",
                median(&entry_step) / median(&plain_step) - 1.0,
            ),
            Metric::exact("recovery.max_attempts", "count", attempts as f64),
            Metric::exact("recovery.shrinks", "count", shrinks as f64),
        ]);
    }
    m.extend([
        Metric::exact(
            "sim.driver_overhead_frac",
            "ratio",
            (median(&entry_step) - median(&bare_step)) / median(&entry_step),
        ),
        Metric::sampled("alloc.count_per_step", "count", summarize(&alloc_count)),
        Metric::sampled("alloc.bytes_per_step", "B", summarize(&alloc_bytes)),
        Metric::exact(
            "trace.overhead_frac",
            "ratio",
            median(&samples.step_s) / median(&bare_step) - 1.0,
        ),
    ]);
    out.metrics = m;
    TracedRun {
        outcome: out,
        spans: kept,
    }
}

/// The trace file: the run's context, every metric with its quartiles and
/// sample count, and the kept spans (`id` is the span's index in its
/// rank's list, which `parent` refers to; -1 = no parent).
pub fn trace_file(w: &Workload, seed: u64, run: &TracedRun) -> String {
    use crate::report::{context_fields, json_num};
    use std::fmt::Write as _;
    let mut s = format!(
        "{{{}, \"trace_file_steps\": {TRACE_FILE_STEPS}, \"correct\": {}, \"metrics\": {{",
        context_fields(w, seed),
        run.outcome.correct()
    );
    for (i, m) in run.outcome.metrics.iter().enumerate() {
        let u = &m.summary;
        let _ = write!(
            s,
            "{}\n\"{}\": {{\"value\": {}, \"unit\": \"{}\", \"n\": {}, \"median\": {}, \
             \"q1\": {}, \"q3\": {}}}",
            if i == 0 { "" } else { "," },
            m.name,
            json_num(m.value),
            m.unit,
            u.n,
            json_num(u.median),
            json_num(u.q1),
            json_num(u.q3)
        );
    }
    s.push_str("\n}, \"spans\": [");
    let mut first = true;
    for spans in &run.spans {
        for (id, sp) in spans.iter().enumerate() {
            let _ =
                write!(
                s,
                "{}\n{{\"rank\": {}, \"id\": {id}, \"parent\": {}, \"name\": \"{}\", \"rep\": {}, \
                 \"step\": {}, \"start_ns\": {}, \"end_ns\": {}, \"bytes\": {}}}",
                if first { "" } else { "," },
                sp.rank,
                if sp.parent == ROOT { -1 } else { i64::from(sp.parent) },
                sp.name,
                sp.rep,
                sp.step,
                sp.start_ns,
                sp.end_ns,
                sp.bytes
            );
            first = false;
        }
    }
    s.push_str("\n]}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::result_line;
    use crate::workload::all;
    use nbody_trace::json::Json;

    const QUICK: Budget = Budget {
        seconds: 0.0,
        reps: Some(1),
    };

    #[test]
    fn spancomm_leaves_all_pairs_and_cutoff_results_bit_identical() {
        for w in all(true) {
            let initial = w.initial(9);
            with_law!(w, law => {
                let entry = run_entry(&w, law, w.steps, &initial).unwrap().particles;
                let bare = bare_rep(&w, &law, &initial).unwrap();
                let traced = traced_rep(&w, &law, &initial, 0, 16).unwrap();
                assert!(same_state(&gather(bare.iter()), &entry), "{}: bare", w.name);
                assert!(
                    same_state(&gather(traced.iter().map(|(o, _)| o)), &entry),
                    "{}: traced",
                    w.name
                );
                // The wrapper saw every message the transport counted.
                for ((_, spans), b) in traced.iter().zip(&bare) {
                    let sent: u64 = spans.iter().filter(|s| s.name == SEND).map(|s| s.bytes).sum();
                    assert_eq!(sent, b.stats.total_bytes(), "{}", w.name);
                }
            });
        }
    }

    #[test]
    fn emitted_json_parses_and_names_every_metric_of_every_workload() {
        let everywhere = PER_LAYER
            .iter()
            .filter(|n| !n.starts_with("cadriver."))
            .copied();
        for w in all(true) {
            let run = measure(&w, 42, QUICK);
            assert!(
                run.outcome.correct(),
                "{}: {:?}",
                w.name,
                run.outcome.failures
            );

            let mut want: Vec<&str> = everywhere.clone().collect();
            if w.is_all_pairs() {
                want.extend([
                    "allpairs.force_s_p50",
                    "allpairs.force_s_p95",
                    "allpairs.shift_steps",
                    "allpairs.msgs_over_eq5",
                    "allpairs.bytes_over_min",
                ]);
            } else {
                want.extend([
                    "cutoff.force_s_p50",
                    "cutoff.force_s_p95",
                    "cutoff.window_len",
                    "cutoff.row_steps",
                    "reassign.s_per_step",
                    "reassign.migrants_per_step",
                ]);
            }
            if w.fault_tolerant {
                want.extend([
                    "recovery.overhead_frac",
                    "recovery.max_attempts",
                    "recovery.shrinks",
                ]);
            }
            let file = Json::parse(&trace_file(&w, 42, &run)).expect("trace file parses");
            assert_eq!(file.get("workload").and_then(Json::as_str), Some(w.name));
            assert_eq!(file.get("p").and_then(Json::as_f64), Some(w.p as f64));
            assert!(file.get("nproc").and_then(Json::as_f64).is_some());
            let metrics = file.get("metrics").expect("metrics object");
            for name in want {
                let m = metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("{}: no {name}", w.name));
                assert!(m.get("value").and_then(Json::as_f64).is_some(), "{name}");
                assert!(m.get("unit").and_then(Json::as_str).is_some(), "{name}");
                assert!(m.get("n").and_then(Json::as_f64).is_some(), "{name}");
            }
            let spans = file.get("spans").and_then(Json::as_array).expect("spans");
            assert!(spans
                .iter()
                .any(|s| s.get("name").and_then(Json::as_str) == Some("force")));

            let line = Json::parse(&result_line(&run.outcome, &PER_LAYER)).expect("result parses");
            assert_eq!(line.get("correct").and_then(Json::as_bool), Some(true));
            let reported = line.get("metrics").expect("metrics");
            for name in PER_LAYER {
                assert!(
                    reported.get(name).is_some(),
                    "{}: result lacks {name}",
                    w.name
                );
            }
        }
    }

    #[test]
    fn exact_cross_checks_hold_on_the_quick_sizes() {
        for w in all(true) {
            let o = measure(&w, 3, QUICK).outcome;
            assert!(o.correct(), "{}: {:?}", w.name, o.failures);
            let v = |name: &str| o.get(name).unwrap().value;
            if w.is_all_pairs() {
                let n = w.n as f64;
                assert_eq!(v("kernel.interactions_per_step"), n * (n - 1.0));
                assert_eq!(v("kernel.accepted_frac"), 1.0);
                assert_eq!(v("allpairs.shift_steps"), (w.p / (w.c() * w.c())) as f64);
            } else {
                assert!(
                    v("kernel.accepted_frac") < 0.5,
                    "a cutoff law rejects most pairs"
                );
                assert_eq!(v("cutoff.window_len"), 3.0);
            }
            if w.fault_tolerant {
                assert_eq!(
                    (v("recovery.max_attempts"), v("recovery.shrinks")),
                    (1.0, 0.0)
                );
            }
        }
    }
}
