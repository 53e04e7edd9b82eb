//! `../BENCHMARK.json` and the harness must name the same things.

use nbody_benchmark::cli::parse;
use nbody_benchmark::endtoend::{measure, Budget, END_TO_END};
use nbody_benchmark::traced::{self, PER_LAYER};
use nbody_benchmark::workload::all;
use nbody_trace::json::Json;

fn contract() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
        .expect("BENCHMARK.json parses")
}

fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("no {key}"))
}

fn entries<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    doc.get(key)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("no {key}"))
}

#[test]
fn workloads_match_the_harness_table() {
    let doc = contract();
    let listed: Vec<(&str, &str)> = entries(&doc, "workloads")
        .iter()
        .map(|w| (field(w, "name"), field(w, "why")))
        .collect();
    let built: Vec<(&str, &str)> = all(false).iter().map(|w| (w.name, w.why)).collect();
    assert_eq!(listed, built);
    for (name, why) in listed {
        assert!(
            why.len() <= 200 && !why.contains('\n'),
            "{name}: why is one short line"
        );
        let args = ["--workload", name].map(str::to_string);
        assert!(parse(args.into_iter()).is_ok(), "{name} is selectable");
    }
}

#[test]
fn metric_names_and_units_match_what_the_harness_emits() {
    let doc = contract();
    let budget = Budget {
        seconds: 0.0,
        reps: Some(1),
    };
    let w = &all(true)[2];
    let end_to_end = measure(w, 1, budget);
    let per_layer = traced::measure(w, 1, budget).outcome;
    for (key, names, outcome) in [
        ("end_to_end", &END_TO_END[..], &end_to_end),
        ("per_layer", &PER_LAYER[..], &per_layer),
    ] {
        let listed = entries(&doc, key);
        let listed_names: Vec<&str> = listed.iter().map(|m| field(m, "name")).collect();
        assert_eq!(listed_names, names, "{key}");
        for m in listed {
            let emitted = outcome.get(field(m, "name")).expect("metric is emitted");
            assert_eq!(emitted.unit, field(m, "unit"), "{}", emitted.name);
            assert!(["lower", "higher"].contains(&field(m, "better")));
        }
    }
    let setup = &entries(&doc, "end_to_end")[1];
    assert_eq!(
        (field(setup, "name"), field(setup, "unit")),
        ("setup_s", "s")
    );
    for m in entries(&doc, "end_to_end") {
        let bound = m.get("bound").and_then(Json::as_f64).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25, "{}", field(m, "name"));
    }
}
