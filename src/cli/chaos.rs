//! `chaos` and `soak`: fault schedules against one small execution, each
//! run held to bit-identical recovery or to a survivor-consistent shrink.
//! With `--postmortem=DIR` every run that dies leaves its run bundle in
//! the directory, `<schedule>.json`, the file `analyze` reads (`run
//! --trace` writes the same document).

use std::process::ExitCode;
use std::time::{Duration, Instant};

use ca_nbody::recovery::RetryPolicy;
use ca_nbody::{run_distributed, Method, Run, RunResult, SimConfig};
use nbody_comm::{FaultKind, FaultPlan, RunBundle};
use nbody_metrics::MetricsSnapshot;
use nbody_physics::{ForceLaw, Particle, SemiImplicitEuler};

use super::artifact::{load_json, write, Summary};
use super::spec::{AnyLaw, Defaults, RunSpec};
use super::{verdict, Failure, Opts};

/// One campaign: the run faults are injected into, and what the schedules
/// tried against it so far came to.
struct Sweep {
    spec: RunSpec,
    cfg: SimConfig<AnyLaw, SemiImplicitEuler>,
    initial: Vec<Particle>,
    policy: RetryPolicy,
    /// Row-0 shift steps of the layout: the kill schedules' step range.
    pipeline_steps: usize,
    runs: usize,
    failures: Vec<String>,
    postmortem_dir: Option<String>,
    postmortem_bundles: Vec<String>,
}

impl Sweep {
    /// Read the target of `cmd` from the options: a CA run that lays out,
    /// retried under the default policy from a `fault-timeout-ms` deadline,
    /// each evaluation given half the default budget.
    fn from_opts(opts: &mut Opts, defaults: &Defaults, cmd: &str) -> Result<Sweep, Failure> {
        let spec = RunSpec::from_opts(opts, defaults)?;
        if !spec.method().is_ca() {
            let ca = "ca, ca-cutoff-1d, ca-cutoff-2d";
            return Err(format!("{cmd}: fault injection requires a CA method ({ca})").into());
        }
        let layout = spec.layout().map_err(|e| format!("{cmd}: {e}"))?;
        Ok(Sweep {
            cfg: spec.config(),
            initial: spec.initial(),
            policy: RetryPolicy {
                budget: Duration::from_secs(30),
                ..RetryPolicy::with_timeout_ms(opts.get("fault-timeout-ms", 250)?)
            },
            pipeline_steps: layout.pipeline_steps(),
            runs: 0,
            failures: Vec::new(),
            postmortem_dir: opts.opt("postmortem")?,
            postmortem_bundles: Vec::new(),
            spec,
        })
    }

    /// The fault-free trajectory every recovered run must reproduce.
    fn reference(&self) -> Vec<Particle> {
        run_distributed(&self.cfg, self.spec.method(), self.spec.p, &self.initial).particles
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

    /// [`run`](Self::run) a schedule that must complete.
    fn attempt(
        &mut self,
        label: &str,
        name: &str,
        method: Method,
        plan: &FaultPlan,
    ) -> Option<(RunResult, MetricsSnapshot)> {
        match self.run(name, method, plan) {
            Ok(done) => Some(done),
            Err(e) => {
                self.fail(label, e);
                None
            }
        }
    }

    /// Validate a degraded (shrunken) run: the survivors must account for
    /// every particle, occupy the expected rank count, and reproduce — bit
    /// for bit — a clean recomposed run on the survivor set at the same
    /// shrunken grid the degraded run re-derived.
    fn check_shrunk(&mut self, label: &str, res: &RunResult, method: Method, expect_ranks: usize) {
        let n = self.spec.n;
        if res.shrinks.is_empty() {
            return self.fail(label, "expected a world shrink, got none");
        }
        if res.final_ranks != expect_ranks {
            let got = res.final_ranks;
            self.fail(
                label,
                format!("expected {expect_ranks} surviving ranks, got {got}"),
            );
        }
        let (kept, lost) = (res.particles.len(), res.lost_particles);
        if kept + lost != n {
            let what = format!("survivors ({kept}) + lost ({lost}) do not cover all {n} particles");
            return self.fail(label, what);
        }
        if lost == 0 {
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

    /// The summary of `cmd`, opened with the target's keys.
    fn summary(&self, cmd: &str) -> Summary {
        let mut summary = Summary::of(cmd);
        summary
            .put("method", self.spec.method_name.as_str())
            .put("n", self.spec.n)
            .put("p", self.spec.p)
            .put("c", self.spec.c)
            .put("steps", self.spec.steps);
        summary
    }

    /// Print `summary` with the postmortems named, report every failure.
    fn close(
        self,
        mut summary: Summary,
        elapsed: Duration,
        banner: &str,
    ) -> Result<ExitCode, Failure> {
        summary
            .put("elapsed_secs", elapsed.as_secs_f64())
            .put("failures", self.failures.len())
            .put("pass", self.failures.is_empty());
        if let Some(dir) = self.postmortem_dir {
            summary
                .put("postmortem_dir", dir)
                .put("postmortem_bundles", self.postmortem_bundles);
        }
        summary.print();
        let failed = self.failures.len();
        let lines = self
            .failures
            .iter()
            .map(|f| format!("  {banner} FAILURE: {f}"));
        let total = (failed > 0).then(|| format!("{banner} FAILED: {failed} failure(s)"));
        verdict(&lines.chain(total).collect::<Vec<_>>())
    }
}

/// The plan that kills all of `ranks` at step 0.
fn kill_all(ranks: impl Iterator<Item = usize>) -> FaultPlan {
    let events = ranks.flat_map(|r| FaultPlan::kill(r, 0).events).collect();
    FaultPlan { events }
}

/// `chaos`: sweep deterministic fault schedules over a small execution.
///
/// Six passes, each introduced where it runs, all against the same
/// fault-free trajectory: benign schedules, a kill of every rank at every
/// pipeline step, `--kills=N` at once, a whole column, a `c = 1` kill, and
/// every rank. Recovery overhead (worst attempt count, resync bytes per
/// kill relative to one replicated block) is gated against the ceilings of
/// `--baseline=<json>`, default `bench_results/chaos_baseline.json`.
pub fn chaos(opts: &mut Opts, _: &[String]) -> Result<ExitCode, Failure> {
    // Every planned fault fires once, so a retry's longer deadline can
    // spare a timeout but never add an attempt: the attempt ceilings hold.
    let mut sweep = Sweep::from_opts(opts, &Defaults::CHAOS, "chaos")?;
    let (n, p, c) = (sweep.spec.n, sweep.spec.p, sweep.spec.c);
    if c < 2 {
        return Err("chaos: the kill sweep needs a surviving replica; pass c >= 2".into());
    }
    let kills: usize = opts.get("kills", 1)?;
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
    let want = sweep.reference();

    // Benign schedules: delays and duplicates must be absorbed without
    // even triggering recovery.
    for salt in 0..2u64 {
        let plan = FaultPlan::seeded(
            sweep.spec.seed.wrapping_add(salt),
            p,
            pipeline_steps,
            4,
            &[FaultKind::Delay, FaultKind::Duplicate],
        );
        let label = format!("benign [{}]", plan.spec());
        if let Some((res, _)) = sweep.attempt(&label, &format!("benign_{salt}"), method, &plan) {
            if res.particles != want {
                sweep.fail(&label, "forces diverged");
            }
            if res.recovered {
                sweep.fail(&label, "spurious recovery");
            }
        }
    }

    // The kill sweep: every rank, every pipeline step (0 = skew). A resync
    // re-seeds state, not sources: its unit is the whole particle.
    let nominal_block_bytes = ((n * c / p) * std::mem::size_of::<Particle>()) as f64;
    let mut kills_fired = 0usize;
    let mut worst_attempts = 1usize;
    let mut worst_bytes_factor = 0.0f64;
    // What a schedule of kills that leaves every column a replica must
    // show: the fault-free forces, and a recovery if a kill fired at all.
    let mut recovered = |sweep: &mut Sweep, label: &str, name: &str, plan: &FaultPlan| {
        let (res, run_metrics) = sweep.attempt(label, name, method, plan)?;
        if res.particles != want {
            sweep.fail(label, "forces diverged from fault-free run");
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
        Some((res, run_metrics))
    };
    for step in 0..=pipeline_steps {
        for rank in 0..p {
            let label = format!("kill:{rank}@{step}");
            let name = format!("kill_{rank}_at_{step}");
            if let Some((_, run_metrics)) =
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
        if let Some((res, _)) = recovered(&mut sweep, &label, "multi_kill", &plan) {
            if !res.shrinks.is_empty() {
                sweep.fail(&label, "unexpected world shrink");
            }
        }
    }

    let mut shrinks_observed = 0usize;
    // The second availability tier: kill *every* replica of one column,
    // so replica recovery is impossible and the world must shrink onto
    // the survivors, then finish the run matching a recomposed clean run
    // on the survivor set.
    let victim = 1 % teams;
    let plan = kill_all((0..c).map(|row| row * teams + victim));
    let label = format!("double-kill [{}]", plan.spec());
    if let Some((res, _)) = sweep.attempt(&label, "double_kill_same_column", method, &plan) {
        shrinks_observed += res.shrinks.len();
        sweep.check_shrunk(&label, &res, method, p - c);
    }

    // Without replication a single kill leaves no replica at all: the
    // same degraded tier — survivors must agree, shrink to p-1 ranks,
    // and complete instead of failing or deadlocking.
    let m1 = RunSpec {
        c: 1,
        ..sweep.spec.clone()
    }
    .method();
    if let Some((res, _)) = sweep.attempt("c=1 kill", "c1_kill", m1, &FaultPlan::kill(p / 2, 0)) {
        shrinks_observed += res.shrinks.len();
        sweep.check_shrunk("c=1 kill", &res, m1, p - 1);
    }

    // Total loss: every rank killed in the same step leaves nothing to
    // shrink onto. This is the one fault the degraded tiers cannot absorb
    // — it must fail cleanly (no deadlock, no bogus result) and leave a
    // flight-recorder postmortem for the artifact upload.
    match sweep.run("total_loss_unrecoverable", method, &kill_all(0..p)) {
        Ok(_) => sweep
            .failures
            .push("total loss must be unrecoverable, but the run succeeded".into()),
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
    let mut summary = sweep.summary("chaos");
    summary
        .put("runs", sweep.runs)
        .put("kills_fired", kills_fired)
        .put("kills", kills)
        .put("shrinks", shrinks_observed)
        .put("max_attempts", worst_attempts)
        .put("recovery_bytes_factor", worst_bytes_factor);
    sweep.close(summary, elapsed, "CHAOS")
}

/// `soak`: time-boxed randomized chaos. Seeded fault plans (kills,
/// drops, duplicates, delays) are generated from a deterministically
/// advancing seed and run until the wall-clock budget (`seconds`)
/// expires. Every run must terminate cleanly: bit-identical recovery
/// when no column fully died, or a survivor-consistent shrink when one
/// did (single-shrink runs are additionally checked against a
/// recomposed clean run on the survivor set). The CI chaos-soak job
/// uploads the `--postmortem` directory on failure.
pub fn soak(opts: &mut Opts, _: &[String]) -> Result<ExitCode, Failure> {
    let mut sweep = Sweep::from_opts(opts, &Defaults::SOAK, "soak")?;
    let seconds: f64 = opts.get("seconds", 30.0)?;
    let events: usize = opts.get("events", 3)?;
    opts.finish()?;

    let (n, p, seed) = (sweep.spec.n, sweep.spec.p, sweep.spec.seed);
    let method = sweep.spec.method();
    let want = sweep.reference();
    println!(
        "chaos soak: {} n={n} p={p} c={} steps={}, \
         {seconds:.0}s budget, {events} events/plan, base seed {seed}",
        sweep.spec.method_name, sweep.spec.c, sweep.spec.steps
    );

    let start = Instant::now();
    let (mut shrinks, mut recoveries) = (0usize, 0usize);
    loop {
        let plan_seed = seed.wrapping_add(sweep.runs as u64);
        let plan = FaultPlan::seeded(
            plan_seed,
            p,
            sweep.pipeline_steps,
            events,
            &[
                FaultKind::Kill,
                FaultKind::Drop,
                FaultKind::Duplicate,
                FaultKind::Delay,
            ],
        );
        let label = format!("seed {plan_seed} [{}]", plan.spec());
        let name = format!("soak_seed_{plan_seed}");
        if let Some((res, _)) = sweep.attempt(&label, &name, method, &plan) {
            if res.recovered {
                recoveries += 1;
            }
            shrinks += res.shrinks.len();
            match res.shrinks.len() {
                0 if res.particles != want => {
                    sweep.fail(&label, "diverged from fault-free run without a shrink")
                }
                0 => {}
                1 => sweep.check_shrunk(&label, &res, method, res.final_ranks),
                _ if res.particles.len() + res.lost_particles != n => {
                    sweep.fail(&label, "survivors + lost do not cover all particles")
                }
                _ => {}
            }
        }
        // Enough evidence to diagnose — don't burn the rest of the budget.
        if sweep.failures.len() >= 5 || start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }

    let elapsed = start.elapsed();
    println!(
        "  {} seeded runs in {elapsed:.2?}: {recoveries} recoveries, {shrinks} shrinks, \
         {} failure(s)",
        sweep.runs,
        sweep.failures.len()
    );
    let mut summary = sweep.summary("soak");
    summary
        .put("seed", seed)
        .put("runs", sweep.runs)
        .put("recoveries", recoveries)
        .put("shrinks", shrinks);
    sweep.close(summary, elapsed, "SOAK")
}
