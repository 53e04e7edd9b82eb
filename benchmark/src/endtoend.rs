//! The end-to-end measurement: `step_s`, `setup_s` and the critical-path
//! message and byte counts, timed on the program's own entry point with no
//! `SpanComm` and no counting allocator anywhere in the process.

use std::time::Instant;

use nbody_comm::{CommStats, ALL_PHASES};
use nbody_physics::{ForceLaw, Particle};

use crate::report::{Metric, Outcome};
use crate::stats::summarize;
use crate::with_law;
use crate::workload::{check_against_serial, fingerprint, run_entry, EntryOutput, Workload};

/// Names of the end-to-end metrics, in reporting order.
pub const END_TO_END: [&str; 4] = [
    "step_s",
    "setup_s",
    "crit_msgs_per_step",
    "crit_bytes_per_step",
];

/// Fewest calls of the entry point with `steps = 0` that `setup_s` is the
/// median of.
pub const SETUP_CALLS: usize = 201;

/// Set-up calls sampled after each timed repetition, so the samples spread
/// over the whole run instead of one 80 ms window at its end.
const SETUP_CALLS_PER_REP: usize = 16;

/// Fewest timed repetitions, whatever the time budget.
pub const MIN_REPS: usize = 3;

/// How long to keep measuring.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Seconds of timed repetitions.
    pub seconds: f64,
    /// A fixed repetition count, overriding `seconds`.
    pub reps: Option<usize>,
}

impl Budget {
    /// A `share` of the budget: of the seconds, or the same fixed
    /// repetition count (a count bounds each loop on its own).
    pub fn share(&self, share: f64) -> Budget {
        Budget {
            seconds: self.seconds * share,
            reps: self.reps,
        }
    }

    /// Whether to start repetition number `done` (0-based), `started` being
    /// when the first one began.
    pub fn wants_more(&self, done: usize, started: Instant) -> bool {
        match self.reps {
            Some(n) => done < n,
            None => done < MIN_REPS || started.elapsed().as_secs_f64() < self.seconds,
        }
    }
}

/// The paper's `S` and `W` per timestep as the program counted them: the
/// largest per-rank total of messages (point-to-point plus the tree
/// messages inside collectives) and of bytes (point-to-point plus
/// collective payload), each divided by `steps`.
pub fn critical_path_counts(stats: &[CommStats], steps: usize) -> (f64, f64) {
    let msgs = |s: &CommStats| -> u64 {
        ALL_PHASES
            .iter()
            .map(|&ph| s.phase(ph).messages + s.phase(ph).collective_messages)
            .sum()
    };
    let bytes = |s: &CommStats| s.total_bytes() + s.total_collective_bytes();
    let per_step = |worst: Option<u64>| worst.unwrap_or(0) as f64 / steps as f64;
    (
        per_step(stats.iter().map(msgs).max()),
        per_step(stats.iter().map(bytes).max()),
    )
}

/// A fault-free run of the fault-tolerant driver must never retry or shrink.
pub fn check_recovery_clean(out: &EntryOutput) -> Result<(), String> {
    match out.recovery {
        None | Some((1, 0)) => Ok(()),
        Some((attempts, shrinks)) => Err(format!(
            "fault-free run reported max_attempts={attempts} shrinks={shrinks}"
        )),
    }
}

/// Measure `w` end to end on the inputs of `seed`.
pub fn measure(w: &Workload, seed: u64, budget: Budget) -> Outcome {
    with_law!(w, law => measure_with(w, law, &w.initial(seed), budget))
}

fn measure_with<F: ForceLaw + Copy>(
    w: &Workload,
    law: F,
    initial: &[Particle],
    budget: Budget,
) -> Outcome {
    let mut out = Outcome::default();

    // One untimed warm-up repetition, verified against the serial reference.
    let warm = run_entry(w, law, w.steps, initial).and_then(|r| {
        check_recovery_clean(&r)?;
        check_against_serial(w, law, initial)?;
        Ok(r)
    });
    let Some(reference) = out.attempt("warm-up", warm) else {
        return out;
    };
    let want = fingerprint(&reference.particles);

    // Never sampled before the first repetition: there the median flips
    // with whether the VM's second vCPU has woken up yet.
    let mut setup_s = Vec::with_capacity(SETUP_CALLS);
    let mut sample_setup = |out: &mut Outcome, calls: usize| {
        for _ in 0..calls {
            let t0 = Instant::now();
            let run = run_entry(w, law, 0, initial);
            let secs = t0.elapsed().as_secs_f64();
            match run {
                Ok(r) if r.particles.len() == initial.len() => setup_s.push(secs),
                Ok(_) => out.fail("set-up call lost particles".to_string()),
                Err(e) => out.fail(format!("set-up call: {e}")),
            }
        }
    };

    let mut step_s = Vec::new();
    let started = Instant::now();
    let mut rep = 0;
    while budget.wants_more(rep, started) {
        let t0 = Instant::now();
        let run = run_entry(w, law, w.steps, initial);
        let secs = t0.elapsed().as_secs_f64();
        let verdict = run.and_then(|r| {
            check_recovery_clean(&r)?;
            if fingerprint(&r.particles) == want {
                Ok(secs / w.steps as f64)
            } else {
                Err("final state differs from the first repetition's".to_string())
            }
        });
        step_s.extend(out.attempt(&format!("repetition {rep}"), verdict));
        sample_setup(&mut out, SETUP_CALLS_PER_REP);
        rep += 1;
    }
    sample_setup(
        &mut out,
        SETUP_CALLS.saturating_sub(rep * SETUP_CALLS_PER_REP),
    );

    let (msgs, bytes) = critical_path_counts(&reference.stats, w.steps);
    out.metrics = vec![
        // The best repetition, not the median: interference on a shared box
        // only ever slows a repetition down and comes in phases of minutes,
        // through which the minimum moves least (README.md, "Noise").
        Metric::statistic(
            "step_s",
            "s",
            step_s.iter().copied().fold(f64::INFINITY, f64::min),
            summarize(&step_s),
        ),
        Metric::sampled("setup_s", "s", summarize(&setup_s)),
        Metric::exact("crit_msgs_per_step", "count", msgs),
        Metric::exact("crit_bytes_per_step", "B", bytes),
    ];
    let each: Vec<String> = step_s.iter().map(|s| format!("{s:.4e}")).collect();
    out.notes
        .push(format!("step_s per repetition: [{}]", each.join(", ")));
    out
}

/// Share by which `setup_s` may differ between two runs of the same code
/// before [`selfcheck`] fails it.
pub const SETUP_BOUND: f64 = 0.20;

/// Run the end-to-end set twice on the same code and compare each metric
/// of each workload with its bound: `step_s` within the workload's
/// `step_bound`, `setup_s` within [`SETUP_BOUND`], the two counts
/// identical, no failed repetition. Returns the report and whether every
/// line passed.
pub fn selfcheck(workloads: &[Workload], seed: u64, budget: Budget) -> (String, bool) {
    let mut report = String::new();
    let mut pass = true;
    for w in workloads {
        let (a, b) = (measure(w, seed, budget), measure(w, seed, budget));
        for name in END_TO_END {
            let bound = match name {
                "step_s" => w.step_bound,
                "setup_s" => SETUP_BOUND,
                _ => 0.0,
            };
            let (va, vb) = match (a.get(name), b.get(name)) {
                (Some(x), Some(y)) => (x.value, y.value),
                _ => (f64::NAN, f64::NAN),
            };
            let drift = (vb - va).abs() / va;
            // NaN (a missing or zero metric) fails the comparison.
            let ok = a.correct() && b.correct() && drift <= bound;
            pass &= ok;
            report.push_str(&format!(
                "{} {:<22} {:<20} first {va:.6e} second {vb:.6e} drift {:.3} % (bound {:.1} %)\n",
                if ok { "PASS" } else { "FAIL" },
                w.name,
                name,
                drift * 100.0,
                bound * 100.0
            ));
        }
        for f in a.failures.iter().chain(&b.failures) {
            report.push_str(&format!("FAILED: {}: {f}\n", w.name));
        }
    }
    (report, pass)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::all;

    #[test]
    fn quick_run_is_correct_and_counts_the_paper_schedule() {
        let budget = Budget {
            seconds: 0.0,
            reps: Some(2),
        };
        for w in all(true) {
            let o = measure(&w, 42, budget);
            assert!(o.correct(), "{}: {:?}", w.name, o.failures);
            assert_eq!((o.attempted, o.failed), (3, 0));
            for name in END_TO_END {
                assert!(o.get(name).unwrap().value > 0.0, "{}: {name}", w.name);
            }
            assert_eq!(o.get("step_s").unwrap().summary.n, 2);
            assert_eq!(o.get("setup_s").unwrap().summary.n, SETUP_CALLS);
            assert!(o.notes[0].starts_with("step_s per repetition: ["));
        }
    }

    #[test]
    fn budget_runs_min_reps_then_stops_on_time() {
        let b = Budget {
            seconds: 0.0,
            reps: None,
        };
        let t = Instant::now();
        assert!(b.wants_more(MIN_REPS - 1, t));
        assert!(!b.wants_more(MIN_REPS, t));
    }
}
