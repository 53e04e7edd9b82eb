//! The run grammar: the one place `(n, p, c, steps, dt, seed, method, law,
//! cutoff, boundary, temperature)` becomes a configured run. `run`,
//! `verify` and `chaos` describe the execution they launch with these
//! options and differ only in their [`Defaults`]; a run bundle
//! records them ([`RunSpec::options`]) and `analyze` reads them back
//! ([`RunSpec::recorded`]). The checkpoint fingerprint and the
//! expected wire schedule are derived from the same fields, so the options
//! that produced an artifact reproduce it.

use ca_nbody::kernel::symmetric_cutoff;
use ca_nbody::{Layout, Method, SimConfig, WireScheduleSpec};
use nbody_durable::RunFingerprint;
use nbody_physics::{
    init, Boundary, Cutoff, Domain, ForceLaw, Gravity, LennardJones, Particle,
    RepulsiveInverseSquare, SemiImplicitEuler, Vec2, Vec2x2,
};

use super::opts::{invalid, Opts};
use super::Failure;

/// A force law selected at runtime; delegates to the concrete laws.
pub enum AnyLaw {
    Repulsive(RepulsiveInverseSquare),
    Gravity(Gravity),
    Lj(Cutoff<LennardJones>),
    RepulsiveCutoff(Cutoff<RepulsiveInverseSquare>),
    GravityCutoff(Cutoff<Gravity>),
}

/// The paper's repulsive law at the strength every default run uses.
const REPULSIVE: RepulsiveInverseSquare = RepulsiveInverseSquare {
    strength: 1e-3,
    softening: 1e-3,
};

macro_rules! delegate {
    ($self:ident, $l:ident => $call:expr) => {
        match $self {
            AnyLaw::Repulsive($l) => $call,
            AnyLaw::Gravity($l) => $call,
            AnyLaw::Lj($l) => $call,
            AnyLaw::RepulsiveCutoff($l) => $call,
            AnyLaw::GravityCutoff($l) => $call,
        }
    };
}

impl ForceLaw for AnyLaw {
    fn force(&self, target: &Particle, source: &Particle, disp: Vec2) -> Vec2 {
        delegate!(self, l => l.force(target, source, disp))
    }

    #[inline]
    fn force_x2(&self, targets: [&Particle; 2], source: &Particle, disp: Vec2x2) -> Vec2x2 {
        delegate!(self, l => l.force_x2(targets, source, disp))
    }

    fn potential(&self, target: &Particle, source: &Particle, disp: Vec2) -> f64 {
        delegate!(self, l => l.potential(target, source, disp))
    }

    fn cutoff(&self) -> Option<f64> {
        delegate!(self, l => l.cutoff())
    }

    fn is_symmetric(&self) -> bool {
        delegate!(self, l => l.is_symmetric())
    }

    fn flops_per_interaction(&self) -> u64 {
        delegate!(self, l => l.flops_per_interaction())
    }
}

/// What a subcommand runs when an option is not given.
pub struct Defaults {
    pub n: usize,
    pub p: usize,
    pub steps: usize,
    pub dt: f64,
    pub method: &'static str,
    /// For the laws that bring no cutoff of their own (LJ: 2.5 sigma).
    pub cutoff: f64,
    /// Initial thermal velocities; 0 starts the particles at rest.
    pub temperature: f64,
}

impl Defaults {
    pub const RUN: Defaults = Defaults {
        n: 1024,
        p: 8,
        steps: 20,
        dt: 0.005,
        method: "ca",
        cutoff: 0.25,
        temperature: 1e-4,
    };
    /// `chaos`: small enough to run once per rank and pipeline step.
    pub const CHAOS: Defaults = Defaults {
        n: 192,
        steps: 1,
        temperature: 0.0,
        ..Defaults::RUN
    };
}

/// The run the options describe. Plain data: a sweep varies a field and
/// derives again.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    pub n: usize,
    pub p: usize,
    pub c: usize,
    pub steps: usize,
    pub dt: f64,
    pub seed: u64,
    pub method_name: String,
    pub law_name: String,
    pub cutoff: f64,
    pub boundary: Boundary,
    pub boundary_name: &'static str,
    pub temperature: f64,
}

/// The CLI spelling of every method, at replication `c` on `p` ranks.
/// Plimpton's two decompositions are §III's ends of Algorithm 1: `ring` is
/// it at `c = 1` and `force-decomp` at `c = √p` — the least `c` with
/// `c² ≥ p`, which lays out (`c² | p`) exactly when `p` is a square. His
/// spatial decomposition (§II.C) is Algorithm 2 at `c = 1`: `halo-1d` and
/// `halo-2d`.
fn method_named(name: &str, c: usize, p: usize) -> Result<Method, String> {
    Ok(match name {
        "ca" => Method::CaAllPairs { c },
        "ring" => Method::CaAllPairs { c: 1 },
        "ring-symmetric" => Method::ParticleRingSymmetric,
        "allgather" => Method::NaiveAllgather,
        "force-decomp" => Method::CaAllPairs {
            c: (1..=p).find(|c| c * c >= p).unwrap_or(1),
        },
        "ca-cutoff-1d" => Method::Ca1dCutoff { c },
        "ca-cutoff-2d" => Method::Ca2dCutoff { c },
        "halo-1d" => Method::Ca1dCutoff { c: 1 },
        "halo-2d" => Method::Ca2dCutoff { c: 1 },
        other => return Err(format!("unknown method '{other}'")),
    })
}

/// The CLI spelling of every law; cutoff methods get the cutoff wrapper.
fn law_named(name: &str, needs_cutoff: bool, cutoff: f64) -> Result<AnyLaw, String> {
    let gravity = Gravity {
        g: 1e-3,
        softening: 0.02,
    };
    // `Cutoff::new` asserts what this says in one line.
    let r_c = || {
        if cutoff.is_finite() && cutoff > 0.0 {
            Ok(cutoff)
        } else {
            Err(format!(
                "cutoff={cutoff} is not usable with law={name}: the radius must be positive and finite"
            ))
        }
    };
    Ok(match (name, needs_cutoff) {
        ("repulsive", false) => AnyLaw::Repulsive(REPULSIVE),
        ("repulsive", true) => AnyLaw::RepulsiveCutoff(Cutoff::new(REPULSIVE, r_c()?)),
        ("gravity", false) => AnyLaw::Gravity(gravity),
        ("gravity", true) => AnyLaw::GravityCutoff(Cutoff::new(gravity, r_c()?)),
        ("lj", _) => AnyLaw::Lj(Cutoff::new(LennardJones::default(), r_c()?)),
        (other, _) => return Err(format!("unknown law '{other}'")),
    })
}

impl RunSpec {
    /// Read the run grammar from `opts`; what is not given comes from `d`.
    pub fn from_opts(opts: &mut Opts, d: &Defaults) -> Result<RunSpec, Failure> {
        let law_name = opts.get("law", "repulsive".to_string())?;
        let cutoff = opts.get("cutoff", if law_name == "lj" { 2.5 } else { d.cutoff })?;
        let method_name = opts.get("method", d.method.to_string())?;
        let (boundary, boundary_name) = match opts.opt::<String>("boundary")?.as_deref() {
            Some("periodic") => (Boundary::Periodic, "periodic"),
            Some("open") => (Boundary::Open, "open"),
            Some("reflective") | None => (Boundary::Reflective, "reflective"),
            Some(other) => return Err(invalid("boundary", other, "reflective|periodic|open")),
        };
        let mut spec = RunSpec {
            n: opts.get("n", d.n)?,
            p: opts.get("p", d.p)?,
            c: opts.get("c", 2)?,
            steps: opts.get("steps", d.steps)?,
            dt: opts.get("dt", d.dt)?,
            seed: opts.get("seed", 42)?,
            method_name,
            law_name,
            cutoff,
            boundary,
            boundary_name,
            temperature: opts.get("temperature", d.temperature)?,
        };
        let method = method_named(&spec.method_name, spec.c, spec.p)?;
        law_named(&spec.law_name, method.needs_cutoff(), spec.cutoff)?;
        // One meaning of `c`: the replication the method runs with.
        spec.c = method.replication();
        Ok(spec)
    }

    /// The options [`from_opts`](RunSpec::from_opts) reads back into
    /// this spec, whatever the subcommand's defaults: what a run bundle
    /// records of its run.
    pub fn options(&self) -> Vec<String> {
        let s = self;
        [
            ("n", s.n.to_string()),
            ("p", s.p.to_string()),
            ("c", s.c.to_string()),
            ("steps", s.steps.to_string()),
            ("dt", s.dt.to_string()),
            ("seed", s.seed.to_string()),
            ("method", s.method_name.clone()),
            ("law", s.law_name.clone()),
            ("cutoff", s.cutoff.to_string()),
            ("boundary", s.boundary_name.to_string()),
            ("temperature", s.temperature.to_string()),
        ]
        .map(|(key, value)| format!("{key}={value}"))
        .to_vec()
    }

    /// The spec a run bundle recorded with [`options`](RunSpec::options).
    pub fn recorded(options: &[String]) -> Result<RunSpec, String> {
        let (mut opts, stray) = Opts::parse("the recorded spec", options);
        if let Some(s) = stray.first() {
            return Err(format!("recorded spec: '{s}' is not an option"));
        }
        let spec = RunSpec::from_opts(&mut opts, &Defaults::RUN);
        spec.and_then(|spec| opts.finish().map(|()| spec))
            .map_err(|e| format!("recorded spec: {}", e.message))
    }

    pub fn method(&self) -> Method {
        method_named(&self.method_name, self.c, self.p).expect("method name checked by from_opts")
    }

    /// The cutoff radius the layout and the schedule see.
    fn r_c(&self) -> Option<f64> {
        self.method().needs_cutoff().then_some(self.cutoff)
    }

    /// LJ needs a domain scaled to sigma (lattice spacing ~1.2 sigma); the
    /// other laws use the paper's unit box.
    pub fn domain(&self) -> Domain {
        if self.law_name == "lj" {
            Domain::square((self.n as f64).sqrt() * 1.2)
        } else {
            Domain::unit()
        }
    }

    pub fn config(&self) -> SimConfig<AnyLaw, SemiImplicitEuler> {
        SimConfig {
            law: law_named(&self.law_name, self.method().needs_cutoff(), self.cutoff)
                .expect("law name checked by from_opts"),
            integrator: SemiImplicitEuler,
            domain: self.domain(),
            boundary: self.boundary,
            dt: self.dt,
            steps: self.steps,
        }
    }

    /// The initial condition: a lattice for LJ, seeded uniform otherwise,
    /// thermalized when the temperature is positive.
    pub fn initial(&self) -> Vec<Particle> {
        let mut initial = if self.law_name == "lj" {
            init::lattice(self.n, &self.domain())
        } else {
            init::uniform(self.n, &self.domain(), self.seed)
        };
        if self.temperature > 0.0 {
            init::thermalize(&mut initial, self.temperature, 7);
        }
        initial
    }

    /// Lay the method out on the spec's ranks, or say why it does not fit.
    pub fn layout(&self) -> Result<Layout, String> {
        let method = self.method();
        let layout = Layout::new(method, self.p, &self.domain(), self.boundary, self.r_c());
        layout.map_err(|e| match method.is_ca() {
            true => format!("c={} is not usable with p={}: {e}", self.c, self.p),
            false => e,
        })
    }

    /// What `--checkpoint-dir` stamps bundles with and `--resume` checks:
    /// derived from the *total* run configuration, so a resumed
    /// continuation carries the digest the original run did.
    pub fn fingerprint(&self) -> RunFingerprint {
        let domain = self.domain();
        RunFingerprint {
            n: self.n,
            p: self.p,
            c: self.method().replication(),
            method: self.method_name.clone(),
            law: self.law_name.clone(),
            boundary: self.boundary_name.to_string(),
            dt: self.dt,
            steps: self.steps,
            seed: self.seed,
            cutoff: self.r_c().unwrap_or(0.0),
            domain: [domain.min.x, domain.min.y, domain.max.x, domain.max.y],
        }
    }

    /// What `analyze` expects on the wire of a run that never shrank.
    pub fn wire_spec(&self) -> WireScheduleSpec {
        WireScheduleSpec {
            method: self.method(),
            n: self.n,
            p: self.p,
            steps: self.steps,
            domain: self.domain(),
            boundary: self.boundary,
            cutoff: self.r_c(),
            newton: symmetric_cutoff(&self.config().law),
            shrinks: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every method name `method_named` knows.
    const METHODS: [&str; 9] = [
        "ca",
        "ring",
        "ring-symmetric",
        "allgather",
        "force-decomp",
        "ca-cutoff-1d",
        "ca-cutoff-2d",
        "halo-1d",
        "halo-2d",
    ];

    fn spec(args: &[&str], d: &Defaults) -> Result<RunSpec, Failure> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        let (mut opts, _) = Opts::parse("test", &args);
        let spec = RunSpec::from_opts(&mut opts, d)?;
        opts.finish()?;
        Ok(spec)
    }

    #[test]
    fn each_subcommand_differs_in_its_defaults_only() {
        let shape = |s: &RunSpec| (s.n, s.p, s.c, s.steps, s.dt, s.cutoff, s.temperature);
        let run = spec(&[], &Defaults::RUN).unwrap();
        assert_eq!(shape(&run), (1024, 8, 2, 20, 0.005, 0.25, 1e-4));
        assert_eq!(
            (run.method_name.as_str(), run.law_name.as_str()),
            ("ca", "repulsive")
        );
        assert_eq!((run.seed, run.boundary), (42, Boundary::Reflective));
        let chaos = spec(&[], &Defaults::CHAOS).unwrap();
        assert_eq!(shape(&chaos), (192, 8, 2, 1, 0.005, 0.25, 0.0));
        // At rest means at rest: no thermal velocities, the seeded positions.
        assert!(chaos.initial().iter().all(|q| q.vel == Vec2::new(0.0, 0.0)));
        assert!(run.initial().iter().any(|q| q.vel != Vec2::new(0.0, 0.0)));
        assert_eq!(run.initial().len(), 1024);
    }

    #[test]
    fn every_method_and_law_pair_configures_and_lays_out_or_says_why_in_one_line() {
        for method in METHODS {
            for law in ["repulsive", "gravity", "lj"] {
                for c in [1, 2, 3] {
                    let args = [
                        format!("method={method}"),
                        format!("law={law}"),
                        format!("c={c}"),
                    ];
                    let args: Vec<&str> = args.iter().map(String::as_str).collect();
                    let s = spec(&args, &Defaults::RUN).unwrap();
                    let cfg = s.config();
                    let cut = s.method().needs_cutoff() || law == "lj";
                    assert_eq!(cfg.law.cutoff().is_some(), cut, "{method} {law}");
                    assert!(cfg.law.cutoff().is_none_or(|r| r == s.cutoff));
                    // One cutoff serves the layout, the schedule and the digest.
                    let r_c = s.method().needs_cutoff().then_some(s.cutoff);
                    assert_eq!(s.wire_spec().cutoff, r_c);
                    assert_eq!(s.fingerprint().cutoff, r_c.unwrap_or(0.0));
                    assert_eq!(s.fingerprint().c, s.method().replication());
                    // Every method lays out; `c` is the method's replication
                    // (§III: 1 for `ring`, √p = 3 > c for `force-decomp` on the
                    // default 8 ranks, which therefore never fits).
                    assert_eq!(s.c, s.method().replication());
                    match s.layout() {
                        Ok(layout) => assert_eq!(layout.grid.c(), s.c),
                        Err(e) => assert!(!e.contains('\n') && s.c == 3, "{e}"),
                    }
                }
            }
        }
    }

    #[test]
    fn plimptons_decompositions_are_algorithm_1_at_its_two_ends() {
        let ring = spec(&["method=ring", "p=6", "c=3"], &Defaults::RUN).unwrap();
        assert_eq!((ring.method(), ring.c), (Method::CaAllPairs { c: 1 }, 1));
        let fd = spec(&["method=force-decomp", "p=9"], &Defaults::RUN).unwrap();
        assert_eq!((fd.method(), fd.c), (Method::CaAllPairs { c: 3 }, 3));
        assert!(fd.layout().is_ok());
        // No √p, no layout — p = 2 and p = 8 included, where 1² and 2² divide.
        for p in [2, 3, 8, 12] {
            let fd = spec(&["method=force-decomp", &format!("p={p}")], &Defaults::RUN).unwrap();
            assert!(
                fd.layout().unwrap_err().contains("not usable with"),
                "p={p}"
            );
        }
    }

    #[test]
    fn lj_brings_its_own_cutoff_domain_and_lattice() {
        let s = spec(&["law=lj", "n=100", "boundary=periodic"], &Defaults::RUN).unwrap();
        assert_eq!((s.cutoff, s.boundary_name), (2.5, "periodic"));
        assert_eq!(s.domain().length_x(), 12.0);
        assert_eq!(s.fingerprint().domain, [0.0, 0.0, 12.0, 12.0]);
        assert_eq!(s.wire_spec().domain.length_x(), 12.0);
        assert_eq!(
            spec(&["law=lj", "cutoff=3"], &Defaults::RUN)
                .unwrap()
                .cutoff,
            3.0
        );
    }

    #[test]
    fn the_recorded_options_read_back_into_the_same_spec() {
        // Every subcommand's defaults, and values no default has.
        let (run, chaos) = (&Defaults::RUN, &Defaults::CHAOS);
        for method in METHODS {
            for law in ["repulsive", "gravity", "lj"] {
                for boundary in ["reflective", "periodic", "open"] {
                    let args = [
                        format!("method={method}"),
                        format!("law={law}"),
                        format!("boundary={boundary}"),
                        "temperature=3.3e-5".into(),
                    ];
                    let args: Vec<&str> = args.iter().map(String::as_str).collect();
                    for d in [run, chaos] {
                        let s = spec(&args, d).unwrap();
                        assert_eq!(RunSpec::recorded(&s.options()), Ok(s));
                    }
                }
            }
        }
        let short = spec(&["cutoff=0.3", "dt=0.1"], &Defaults::RUN).unwrap();
        assert_eq!(RunSpec::recorded(&short.options()), Ok(short.clone()));
        // A recorded option no getter reads, or a word that is no option,
        // is refused, not ignored.
        for (extra, named) in [("metrics=m.json", "'metrics'"), ("n", "'n' is not")] {
            let extra = [short.options(), vec![extra.into()]].concat();
            assert!(RunSpec::recorded(&extra).unwrap_err().contains(named));
        }
    }

    #[test]
    fn unknown_names_and_malformed_numbers_are_errors_not_defaults() {
        for (args, code, names) in [
            (&["method=quantum"][..], 1, "'quantum'"),
            (&["law=strong"], 1, "'strong'"),
            (&["boundary=perodic"], 2, "'perodic'"),
            (&["n=1o24"], 2, "'1o24'"),
            (&["p=4x"], 2, "'4x'"),
            (&["dt=fast"], 2, "'fast'"),
        ] {
            let e = spec(args, &Defaults::RUN).unwrap_err();
            assert_eq!(e.code, code, "{args:?}: {}", e.message);
            assert!(
                e.message.contains(names) && !e.message.contains('\n'),
                "{}",
                e.message
            );
        }
    }
}
