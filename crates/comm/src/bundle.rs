//! The run bundle: one JSON document per run, the one file `analyze`
//! reads.
//!
//! The document is a Chrome trace object — `traceEvents` and
//! `displayTimeUnit` as [`ExecutionTrace::to_chrome_json`] writes them, so
//! Perfetto and `chrome://tracing` open it as they open any trace — with
//! the run's other sections beside those keys: the `schema` tag, the run's
//! `spec` as `key=value` options, its `faults` plan, the world's
//! `shrinks`, the `metrics` snapshot and the `timeline` (a postmortem when
//! the run died). Each section is written and read by its own type's
//! serializer and parser.

use nbody_metrics::MetricsSnapshot;
use nbody_timeline::RunTimeline;
use nbody_trace::{ExecutionTrace, Json};

use crate::Artifacts;

/// The `schema` tag of every run bundle.
pub const RUN_SCHEMA: &str = "nbody-run/v1";

/// One run as its bundle records it.
#[derive(Debug, Clone)]
pub struct RunBundle {
    /// The run's options, `key=value` each, as its command line's run
    /// grammar reads them back.
    pub spec: Vec<String>,
    /// The `--faults` plan, in the spelling `FaultPlan::parse` reads.
    pub faults: Option<String>,
    /// Every agreed shrink of the world, in order (none on a run that
    /// never lost a whole team column).
    pub shrinks: Vec<Shrink>,
    /// What the recorders captured. The bundle carries no wire log: a
    /// parsed bundle's `wire` is empty.
    pub artifacts: Artifacts,
}

/// One agreed shrink of a run's world onto the ranks that survived it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Shrink {
    /// The timestep whose evaluation lost whole team columns, counted from
    /// the first step the run executed; the survivors evaluate it again.
    pub step: u64,
    /// The launch ranks that continue, in the new world's rank order: `p'`
    /// is their number.
    pub survivors: Vec<u32>,
    /// The replication `c'` the survivors continue with.
    pub c: usize,
    /// The particles that continue (the dead columns' blocks are lost).
    pub n: usize,
}

impl Shrink {
    fn to_json(&self) -> Json {
        let survivors = self.survivors.iter().map(|&r| Json::from(r as u64));
        Json::Obj(vec![
            ("step".into(), self.step.into()),
            ("survivors".into(), Json::Arr(survivors.collect())),
            ("c".into(), self.c.into()),
            ("n".into(), self.n.into()),
        ])
    }

    fn from_json(doc: &Json) -> Result<Shrink, String> {
        let count = |v: &Json| v.as_f64().filter(|x| *x >= 0.0 && x.fract() == 0.0);
        let field = |key: &str| {
            doc.get(key)
                .and_then(count)
                .ok_or(format!("a shrink's '{key}' is not a count"))
        };
        let survivors = doc
            .get("survivors")
            .and_then(Json::as_array)
            .and_then(|ranks| ranks.iter().map(|r| count(r).map(|r| r as u32)).collect())
            .ok_or("a shrink's 'survivors' is not a list of ranks")?;
        Ok(Shrink {
            step: field("step")? as u64,
            survivors,
            c: field("c")? as usize,
            n: field("n")? as usize,
        })
    }
}

impl RunBundle {
    /// The bundle as one JSON document.
    pub fn to_json(&self) -> String {
        let faults = self.faults.clone().map_or(Json::Null, Json::Str);
        let spec = self.spec.iter().cloned().map(Json::Str).collect();
        let shrinks = self.shrinks.iter().map(Shrink::to_json).collect();
        let sections = Json::Obj(vec![
            ("schema".into(), Json::Str(RUN_SCHEMA.into())),
            ("spec".into(), Json::Arr(spec)),
            ("faults".into(), faults),
            ("shrinks".into(), Json::Arr(shrinks)),
            ("metrics".into(), self.artifacts.metrics.to_json()),
            ("timeline".into(), self.artifacts.timeline.to_json()),
        ])
        .to_string();
        // Both are objects: the trace's keys, then the sections, in one.
        let trace = self.artifacts.trace.to_chrome_json();
        format!("{},{}", &trace[..trace.len() - 1], &sections[1..])
    }

    /// Read a document written by [`to_json`](RunBundle::to_json).
    pub fn parse(text: &str) -> Result<RunBundle, String> {
        if text.trim().is_empty() {
            return Err("the file is empty: no spans, no sections".into());
        }
        let doc = Json::parse(text)?;
        match doc.get("schema").and_then(Json::as_str) {
            Some(RUN_SCHEMA) => {}
            Some(other) => return Err(format!("schema '{other}' is not {RUN_SCHEMA}")),
            None => return Err(format!("no 'schema': not an {RUN_SCHEMA} bundle")),
        }
        let section = |key: &str| doc.get(key).ok_or(format!("bundle missing '{key}'"));
        let spec = section("spec")?
            .as_array()
            .and_then(|opts| opts.iter().map(|o| o.as_str().map(String::from)).collect())
            .ok_or("'spec' is not a list of options")?;
        let faults = match section("faults")? {
            Json::Null => None,
            Json::Str(plan) => Some(plan.clone()),
            _ => return Err("'faults' is not a plan".into()),
        };
        // A bundle written before shrinks were recorded has none.
        let no_shrinks = Json::Arr(Vec::new());
        let shrinks = doc.get("shrinks").unwrap_or(&no_shrinks).as_array();
        let shrinks = shrinks.ok_or("'shrinks' is not a list")?;
        let shrinks = shrinks
            .iter()
            .map(Shrink::from_json)
            .collect::<Result<_, _>>()?;
        let artifacts = Artifacts {
            trace: ExecutionTrace::from_json(&doc)?,
            metrics: MetricsSnapshot::from_json(section("metrics")?)?,
            timeline: RunTimeline::from_json(section("timeline")?)?,
            wire: Default::default(),
        };
        Ok(RunBundle {
            spec,
            faults,
            shrinks,
            artifacts,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_ranks_with, Communicator, Lenses, Phase};

    #[test]
    fn every_section_reads_back_and_the_bundle_is_still_a_chrome_trace() {
        let lenses = Lenses {
            trace: true,
            probe: false,
        };
        let (_, artifacts) = run_ranks_with(2, lenses, |comm| {
            comm.set_phase(Phase::Shift);
            comm.send(1 - comm.rank(), 7, &[comm.rank() as u64; 4]);
            let _ = comm.recv::<u64>(1 - comm.rank(), 7);
        });
        let spans = artifacts.trace.spans.len();
        let trace = artifacts.trace.to_chrome_json();
        let (spec, faults) = (vec!["n=8".into(), "p=2".into()], Some("drop:1@0".into()));
        let shrinks = vec![Shrink {
            step: 3,
            survivors: vec![0, 1, 3],
            c: 1,
            n: 48,
        }];
        let bundle = RunBundle {
            spec,
            faults,
            shrinks,
            artifacts,
        };
        let text = bundle.to_json();
        let back = RunBundle::parse(&text).unwrap();
        assert_eq!((&back.spec, &back.faults), (&bundle.spec, &bundle.faults));
        assert_eq!(back.shrinks, bundle.shrinks);
        assert_eq!(back.artifacts.metrics, bundle.artifacts.metrics);
        assert_eq!(back.artifacts.timeline, bundle.artifacts.timeline);
        assert_eq!((back.artifacts.trace.spans.len(), spans > 0), (spans, true));
        assert_eq!(ExecutionTrace::parse(&text).unwrap().spans.len(), spans);
        // A trace without the sections is not a bundle, nor is another schema.
        assert!(RunBundle::parse(&trace).unwrap_err().contains(RUN_SCHEMA));
        assert!(RunBundle::parse(" ").unwrap_err().contains("no spans"));
        let other = text.replace(RUN_SCHEMA, "nbody-run/v0");
        assert!(RunBundle::parse(&other).unwrap_err().contains("v0"));
        // A bundle from before the shrinks section reads as one without.
        let older = text.replace("\"shrinks\"", "\"unread\"");
        assert!(RunBundle::parse(&older).unwrap().shrinks.is_empty());
    }
}
