//! `chaos`: fault schedules against one small execution. Fixed passes
//! first; with `seconds=N`, seeded random plans until `N` seconds have
//! passed. Every schedule that finishes has one judge, [`Sweep::judge`]:
//! its trajectory is held to bit-identical recovery or to a
//! survivor-consistent shrink, and its ledger to the schedule twin of the
//! run it made (`ca_nbody::wire::check`, the diff `analyze` prints). With
//! `--postmortem=DIR` every run that dies leaves its run bundle in the
//! directory, `<schedule>.json`, the file `analyze` reads (`run --trace`
//! writes the same document).

use std::process::ExitCode;
use std::time::{Duration, Instant};

use ca_nbody::recovery::RetryPolicy;
use ca_nbody::wire::check;
use ca_nbody::{
    expected_schedule, run_distributed, Method, Run, RunResult, SimConfig, WireScheduleSpec,
};
use nbody_comm::{FaultKind, FaultPlan, RunBundle};
use nbody_metrics::MetricsSnapshot;
use nbody_physics::{ForceLaw, Particle, SemiImplicitEuler};

use super::artifact::{load_json, write, Summary};
use super::spec::{AnyLaw, Defaults, RunSpec};
use super::{verdict, Failure, Opts};

/// Faults in each seeded plan.
const EVENTS: usize = 3;

/// One campaign: the run faults are injected into, and what the schedules
/// tried against it so far came to.
struct Sweep {
    spec: RunSpec,
    cfg: SimConfig<AnyLaw, SemiImplicitEuler>,
    initial: Vec<Particle>,
    /// The fault-free trajectory a schedule that shrinks nothing reproduces.
    want: Vec<Particle>,
    policy: RetryPolicy,
    /// Row-0 shift steps of the layout: the kill schedules' step range.
    pipeline_steps: usize,
    runs: usize,
    /// Schedules that finished, the world shrinks among them, and those
    /// whose ledger conformed to their schedule twin.
    finished: usize,
    shrinks: usize,
    conforming: usize,
    failures: Vec<String>,
    postmortem_dir: Option<String>,
    postmortem_bundles: Vec<String>,
}

impl Sweep {
    /// Read the target from the options: a CA run that lays out, retried
    /// under the default policy from a `fault-timeout-ms` deadline, each
    /// evaluation given half the default budget.
    fn from_opts(opts: &mut Opts) -> Result<Sweep, Failure> {
        let spec = RunSpec::from_opts(opts, &Defaults::CHAOS)?;
        if !spec.method().is_ca() {
            let ca = "ca, ring, force-decomp, ca-cutoff-1d, ca-cutoff-2d, halo-1d, halo-2d";
            return Err(format!("chaos: fault injection requires a CA method ({ca})").into());
        }
        let layout = spec.layout().map_err(|e| format!("chaos: {e}"))?;
        Ok(Sweep {
            cfg: spec.config(),
            initial: spec.initial(),
            want: Vec::new(),
            policy: RetryPolicy {
                budget: Duration::from_secs(30),
                ..RetryPolicy::with_timeout_ms(opts.get("fault-timeout-ms", 250)?)
            },
            pipeline_steps: layout.pipeline_steps(),
            runs: 0,
            finished: 0,
            shrinks: 0,
            conforming: 0,
            failures: Vec::new(),
            postmortem_dir: opts.opt("postmortem")?,
            postmortem_bundles: Vec::new(),
            spec,
        })
    }

    /// One schedule: the traced fault-tolerant run of `method` under `plan`.
    /// A run that dies leaves its postmortem bundle as `<name>.json`.
    fn run(
        &mut self,
        name: &str,
        method: Method,
        plan: &FaultPlan,
    ) -> Result<(RunResult, MetricsSnapshot), String> {
        self.runs += 1;
        let out = Run::new(&self.cfg, method, self.spec.p)
            .trace()
            .faults(plan, &self.policy)
            .execute(&self.initial);
        let mut artifacts = out.artifacts;
        let reason = match out.result {
            Ok(res) => return Ok((res, artifacts.metrics)),
            Err(e) => e.to_string(),
        };
        if let Some(dir) = &self.postmortem_dir {
            let path = format!("{dir}/{name}.json");
            artifacts.timeline = artifacts.timeline.with_failure(&reason);
            // A schedule's method differs from the target's in `c` alone.
            let ran = RunSpec {
                c: method.replication(),
                ..self.spec.clone()
            };
            let bundle = RunBundle {
                spec: ran.options(),
                faults: Some(plan.spec()),
                shrinks: Vec::new(),
                artifacts,
            };
            match write(&path, "postmortem", &bundle.to_json()) {
                Ok(()) => {
                    println!("  postmortem bundle written to {path}");
                    self.postmortem_bundles.push(name.to_string());
                }
                Err(we) => self.failures.push(we),
            }
        }
        Err(reason)
    }

    /// Record what went wrong with the schedule `label`.
    fn fail(&mut self, label: &str, what: impl std::fmt::Display) {
        self.failures.push(format!("{label}: {what}"));
    }

    /// [`run`](Self::run) the schedule `label`, which must finish, and
    /// [`judge`](Self::judge) it. A fixed pass checks what it expects
    /// beyond the judge on the result.
    fn schedule(
        &mut self,
        label: &str,
        name: &str,
        method: Method,
        plan: &FaultPlan,
    ) -> Option<(RunResult, MetricsSnapshot)> {
        match self.run(name, method, plan) {
            Ok((res, metrics)) => {
                self.judge(label, method, plan, &res, &metrics);
                Some((res, metrics))
            }
            Err(e) => {
                self.fail(label, e);
                None
            }
        }
    }

    /// The one judge of a finished schedule: the fault-free forces bit for
    /// bit, the recomposed survivor run after one shrink, every particle
    /// after more; then its ledger against the twin of the run it made,
    /// piecewise across its shrinks, every deviation explained by `plan`.
    fn judge(
        &mut self,
        label: &str,
        method: Method,
        plan: &FaultPlan,
        res: &RunResult,
        metrics: &MetricsSnapshot,
    ) {
        self.finished += 1;
        self.shrinks += res.shrinks.len();
        let (n, kept, lost) = (self.spec.n, res.particles.len(), res.lost_particles);
        match res.shrinks.len() {
            0 if res.particles != self.want => self.fail(label, "forces diverged"),
            0 => {}
            _ if kept + lost != n => self.fail(
                label,
                format!("survivors ({kept}) + lost ({lost}) do not cover all {n} particles"),
            ),
            1 => self.check_shrunk(label, res, method),
            _ => {}
        }
        let twin = WireScheduleSpec {
            method,
            shrinks: res.shrinks.clone(),
            ..self.spec.wire_spec()
        };
        match expected_schedule(&twin).map(|expected| check(&expected, metrics, plan)) {
            Ok(report) if report.verdict() == "PASS" => self.conforming += 1,
            Ok(report) => {
                print!("{}", report.render());
                let unexplained = report.unexplained();
                self.fail(label, format!("{unexplained} deviation(s) from its twin"));
            }
            Err(e) => self.fail(label, format!("no schedule twin: {e}")),
        }
    }

    /// Validate a run that shrank once: the dead column lost particles,
    /// and the survivors reproduce — bit for bit — a clean recomposed run
    /// on the survivor set at the same shrunken grid the degraded run
    /// re-derived.
    fn check_shrunk(&mut self, label: &str, res: &RunResult, method: Method) {
        if res.lost_particles == 0 {
            return self.fail(label, "a dead column should have lost its particles");
        }
        // `res.particles` is sorted by id, so the survivor subset of the
        // initial condition falls out of a binary search.
        let ids: Vec<u64> = res.particles.iter().map(|q| q.id).collect();
        let survivors: Vec<Particle> = self
            .initial
            .iter()
            .filter(|q| ids.binary_search(&q.id).is_ok())
            .cloned()
            .collect();
        let (cfg, p2) = (&self.cfg, res.final_ranks);
        // The driver's own shrink policy names the method the degraded run
        // continued with.
        let reference = method
            .shrunk_onto(p2, &cfg.domain, cfg.boundary, cfg.law.cutoff())
            .map(|(m2, _)| run_distributed(cfg, m2, p2, &survivors).particles);
        match reference {
            Some(reference) if res.particles == reference => {}
            Some(_) => self.fail(
                label,
                "degraded trajectory diverged from the recomposed survivor reference",
            ),
            None => self.fail(label, "no valid shrunken grid exists for the reference run"),
        }
    }

    /// What a fixed pass that kills whole columns expects beyond the
    /// judge of the schedule `label` it ran: a shrink onto `ranks`.
    fn expect_shrink(
        &mut self,
        label: &str,
        done: Option<(RunResult, MetricsSnapshot)>,
        ranks: usize,
    ) {
        let Some((res, _)) = done else { return };
        let (shrinks, got) = (res.shrinks.len(), res.final_ranks);
        if shrinks == 0 || got != ranks {
            let what = format!("expected a shrink onto {ranks} ranks, got {shrinks} onto {got}");
            self.fail(label, what);
        }
    }
}

/// The plan that kills all of `ranks` at step 0.
fn kill_all(ranks: impl Iterator<Item = usize>) -> FaultPlan {
    let events = ranks.flat_map(|r| FaultPlan::kill(r, 0).events).collect();
    FaultPlan { events }
}

/// `chaos`: sweep fault schedules over a small execution.
///
/// Seven fixed passes, each introduced where it runs, all against the same
/// fault-free trajectory: benign schedules, a kill of every rank at every
/// pipeline step, `--kills=N` at once, a whole column, a `c = 1` kill,
/// every rank, and a `corrupt` of every rank. Recovery overhead of the
/// kill sweep (worst attempt count, resync bytes per kill relative to one
/// replicated block) is gated against the ceilings of
/// `--baseline=<json>`, default `bench_results/chaos_baseline.json`. With
/// `seconds=N`, seeded random plans follow until `N` seconds have passed
/// on their own clock.
pub fn chaos(opts: &mut Opts, _: &[String]) -> Result<ExitCode, Failure> {
    // Every planned fault fires once, so a retry's longer deadline can
    // spare a timeout but never add an attempt: the attempt ceilings hold.
    let mut sweep = Sweep::from_opts(opts)?;
    let (n, p, c, seed) = (sweep.spec.n, sweep.spec.p, sweep.spec.c, sweep.spec.seed);
    if c < 2 {
        return Err("chaos: the kill sweep needs a surviving replica; pass c >= 2".into());
    }
    let kills: usize = opts.get("kills", 1)?;
    let seconds: f64 = opts.get("seconds", 0.0)?;
    let baseline: Option<String> = opts.opt("baseline")?;
    opts.finish()?;

    let baseline = baseline.unwrap_or_else(|| "bench_results/chaos_baseline.json".into());
    let (attempts_ceiling, bytes_factor_ceiling) = load_json(&baseline, |doc| {
        let field = |key: &str| {
            doc.get(key)
                .and_then(|v| v.as_f64())
                .filter(|v| v.is_finite() && *v > 0.0)
                .ok_or_else(|| format!("missing or invalid {key:?}"))
        };
        let attempts = field("max_attempts_ceiling")?;
        Ok((attempts, field("recovery_bytes_factor_ceiling")?))
    })?;

    let (method, pipeline_steps) = (sweep.spec.method(), sweep.pipeline_steps);
    println!(
        "chaos sweep: {} n={n} p={p} c={c} steps={}, \
         kill schedule 0..={pipeline_steps} x {p} ranks, timeout {} ms",
        sweep.spec.method_name,
        sweep.spec.steps,
        sweep.policy.base_timeout.as_millis()
    );
    let start = Instant::now();
    sweep.want = run_distributed(&sweep.cfg, method, p, &sweep.initial).particles;

    // Benign schedules: delays and duplicates must be absorbed without
    // even triggering recovery.
    for salt in 0..2u64 {
        let plan = FaultPlan::seeded(
            seed.wrapping_add(salt),
            p,
            pipeline_steps,
            4,
            &[FaultKind::Delay, FaultKind::Duplicate],
        );
        let label = format!("benign [{}]", plan.spec());
        let done = sweep.schedule(&label, &format!("benign_{salt}"), method, &plan);
        if done.is_some_and(|(res, _)| res.recovered) {
            sweep.fail(&label, "spurious recovery");
        }
    }

    // The kill sweep: every rank, every pipeline step (0 = skew). A resync
    // re-seeds state, not sources: its unit is the whole particle.
    let nominal_block_bytes = ((n * c / p) * std::mem::size_of::<Particle>()) as f64;
    let mut kills_fired = 0usize;
    let mut worst_attempts = 1usize;
    let mut worst_bytes_factor = 0.0f64;
    // What a schedule of kills that leaves every column a replica must
    // show beyond the judge: no shrink, and a recovery if a kill fired.
    let mut recovered = |sweep: &mut Sweep, label: &str, name: &str, plan: &FaultPlan| {
        let (res, run_metrics) = sweep.schedule(label, name, method, plan)?;
        if !res.shrinks.is_empty() {
            sweep.fail(label, "unexpected world shrink");
        }
        // In the cutoff pipeline short rows never reach high
        // steps, so some scheduled kills legitimately don't fire.
        if run_metrics.sum_counter("fault_injected_kill", None) == 0 {
            return None;
        }
        if !res.recovered {
            sweep.fail(label, "fired but not recovered");
        }
        worst_attempts = worst_attempts.max(res.max_attempts);
        Some(run_metrics)
    };
    for step in 0..=pipeline_steps {
        for rank in 0..p {
            let label = format!("kill:{rank}@{step}");
            let name = format!("kill_{rank}_at_{step}");
            if let Some(run_metrics) =
                recovered(&mut sweep, &label, &name, &FaultPlan::kill(rank, step))
            {
                kills_fired += 1;
                let bytes = run_metrics.sum_counter("recovery_bytes_total", None) as f64;
                worst_bytes_factor = worst_bytes_factor.max(bytes / nominal_block_bytes);
            }
        }
    }
    if kills_fired == 0 {
        sweep.failures.push("no scheduled kill ever fired".into());
    }

    // Multi-fault mode: N simultaneous kills spread across *distinct*
    // columns, so every dead rank still has a live replica — recovery
    // must stay bit-identical, with no shrink.
    let teams = p / c;
    if kills >= 2 {
        let plan = kill_all((0..kills.min(teams)).map(|t| (t % c) * teams + t));
        let label = format!("multi-kill [{}]", plan.spec());
        recovered(&mut sweep, &label, "multi_kill", &plan);
    }

    // The second availability tier: kill *every* replica of one column,
    // so replica recovery is impossible and the world must shrink onto
    // the survivors, then finish the run matching a recomposed clean run
    // on the survivor set.
    let victim = 1 % teams;
    let plan = kill_all((0..c).map(|row| row * teams + victim));
    let label = format!("double-kill [{}]", plan.spec());
    let done = sweep.schedule(&label, "double_kill_same_column", method, &plan);
    sweep.expect_shrink(&label, done, p - c);

    // Without replication a single kill leaves no replica at all: the
    // same degraded tier — survivors must agree, shrink to p-1 ranks,
    // and complete instead of failing or deadlocking.
    let m1 = RunSpec {
        c: 1,
        ..sweep.spec.clone()
    }
    .method();
    let done = sweep.schedule("c=1 kill", "c1_kill", m1, &FaultPlan::kill(p / 2, 0));
    sweep.expect_shrink("c=1 kill", done, p - 1);

    // Total loss: every rank killed in the same step leaves nothing to
    // shrink onto. This is the one fault the degraded tiers cannot absorb
    // — it must fail cleanly (no deadlock, no bogus result) and leave a
    // flight-recorder postmortem for the artifact upload.
    match sweep.run("total_loss_unrecoverable", method, &kill_all(0..p)) {
        Ok(_) => sweep.fail("total loss", "must be unrecoverable, but the run succeeded"),
        Err(e) => println!("  total-loss kill failed as required: {e}"),
    }

    let elapsed = start.elapsed();
    if worst_attempts as f64 > attempts_ceiling {
        sweep.failures.push(format!(
            "worst attempt count {worst_attempts} exceeds ceiling {attempts_ceiling}"
        ));
    }
    if worst_bytes_factor > bytes_factor_ceiling {
        sweep.failures.push(format!(
            "recovery bytes factor {worst_bytes_factor:.2} exceeds ceiling {bytes_factor_ceiling}"
        ));
    }
    println!(
        "  {} runs in {elapsed:.2?}: {kills_fired} kills fired, worst attempts \
         {worst_attempts} (ceiling {attempts_ceiling}), resync bytes/kill \
         {worst_bytes_factor:.2}x block (ceiling {bytes_factor_ceiling})",
        sweep.runs
    );

    // `corrupt`: each rank's checkpoint in turn fails its digest at
    // timestep 0, then one beside a kill in another column. Every lost copy
    // is re-seeded from a usable row of its column, so each schedule must
    // end bit-identical, caught by the digest and without a shrink.
    let corrupt_at = |rank: usize| format!("corrupt:{rank}@0");
    let mut specs: Vec<String> = (0..p).map(corrupt_at).collect();
    specs.push(format!("kill:{}@0,{}", 1 % teams, corrupt_at(0)));
    for spec in &specs {
        let plan = FaultPlan::parse(spec).expect("a valid corrupt plan");
        let name = spec.replace([':', '@', ','], "_");
        let Some((res, metrics)) = sweep.schedule(spec, &name, method, &plan) else {
            continue;
        };
        let caught = res.health.is_some_and(|h| h.fingerprint_mismatches > 0);
        let fired = metrics.sum_counter("fault_injected_corrupt", None) > 0;
        if fired && !(caught && res.recovered && res.shrinks.is_empty()) {
            sweep.fail(
                spec,
                "a corrupt copy must fail its digest and be repaired in place",
            );
        }
    }
    println!(
        "  corrupt: {} schedules, one per rank and one beside a kill",
        specs.len()
    );

    // Seeded random plans of the four wire kinds, seeds advancing from
    // `seed`, until `seconds` have passed on this phase's own clock or five
    // failures give enough to diagnose.
    let mut seeded = 0usize;
    if seconds > 0.0 {
        println!("seeded plans: {seconds:.0}s budget, {EVENTS} events/plan, base seed {seed}");
        let clock = Instant::now();
        while seeded == 0 || (sweep.failures.len() < 5 && clock.elapsed().as_secs_f64() < seconds) {
            let plan_seed = seed.wrapping_add(seeded as u64);
            seeded += 1;
            let plan = FaultPlan::seeded(plan_seed, p, pipeline_steps, EVENTS, &FaultKind::WIRE);
            let label = format!("seed {plan_seed} [{}]", plan.spec());
            sweep.schedule(&label, &format!("seed_{plan_seed}"), method, &plan);
        }
        println!("  {seeded} seeded runs in {:.2?}", clock.elapsed());
    }

    let (finished, conforming) = (sweep.finished, sweep.conforming);
    println!(
        "  wire: {conforming} of {finished} finished schedules conform to their twin \
         ({} non-conforming)",
        finished - conforming
    );
    let mut summary = Summary::of("chaos");
    summary
        .put("method", sweep.spec.method_name.as_str())
        .put("n", n)
        .put("p", p)
        .put("c", c)
        .put("steps", sweep.spec.steps)
        .put("runs", sweep.runs)
        .put("seeded_runs", seeded)
        .put("kills_fired", kills_fired)
        .put("kills", kills)
        .put("corrupt_runs", specs.len())
        .put("shrinks", sweep.shrinks)
        .put("max_attempts", worst_attempts)
        .put("recovery_bytes_factor", worst_bytes_factor)
        .put("finished", finished)
        .put("conforming", conforming)
        .put("elapsed_secs", start.elapsed().as_secs_f64())
        .put("failures", sweep.failures.len())
        .put("pass", sweep.failures.is_empty());
    if let Some(dir) = sweep.postmortem_dir {
        summary
            .put("postmortem_dir", dir)
            .put("postmortem_bundles", sweep.postmortem_bundles);
    }
    summary.print();
    let failed = sweep.failures.len();
    let lines = sweep
        .failures
        .iter()
        .map(|f| format!("  CHAOS FAILURE: {f}"));
    let total = (failed > 0).then(|| format!("CHAOS FAILED: {failed} failure(s)"));
    verdict(&lines.chain(total).collect::<Vec<_>>())
}
