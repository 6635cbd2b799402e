//! Toy-size self-test of the benchmark itself: every workload emits every
//! metric `BENCHMARK.json` declares, with its unit, and no operation fails;
//! and the sharded workload answers exactly what a single shard would.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use netgraph::json::JsonValue;
use perfbench::layers::per_layer;
use perfbench::report::Report;
use perfbench::run::Limit;
use perfbench::{end_to_end, workload};
use std::collections::BTreeMap;
use std::path::PathBuf;

fn out_dir(test: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("selftest-{test}"));
    std::fs::create_dir_all(&dir).expect("create the test's output directory");
    dir
}

fn field<'a>(object: &'a JsonValue, key: &str) -> &'a JsonValue {
    match object {
        JsonValue::Object(map) => map
            .get(key)
            .unwrap_or_else(|| panic!("BENCHMARK.json: missing {key:?}")),
        other => panic!("BENCHMARK.json: expected an object, found {other:?}"),
    }
}

fn text(value: &JsonValue) -> String {
    match value {
        JsonValue::String(s) => s.clone(),
        other => panic!("BENCHMARK.json: expected a string, found {other:?}"),
    }
}

fn entries(value: &JsonValue) -> &[JsonValue] {
    match value {
        JsonValue::Array(items) => items,
        other => panic!("BENCHMARK.json: expected an array, found {other:?}"),
    }
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` list.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let doc = JsonValue::parse(&std::fs::read_to_string(&path).expect("read BENCHMARK.json"))
        .expect("BENCHMARK.json parses");
    entries(field(&doc, list))
        .iter()
        .map(|m| (text(field(m, "name")), text(field(m, "unit"))))
        .collect()
}

fn emitted(report: &Report) -> Vec<(String, String)> {
    report
        .metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect()
}

fn assert_clean(report: &Report, what: &str) {
    assert!(report.checks.attempted > 0, "{what}: nothing attempted");
    assert_eq!(
        report.error_rate(),
        0.0,
        "{what}: failures {:?}",
        report.checks.notes
    );
    for metric in &report.metrics {
        assert!(
            metric.value.is_finite(),
            "{what}: {} is not finite",
            metric.name
        );
    }
}

#[test]
fn every_workload_emits_every_declared_metric_without_failures() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let doc = JsonValue::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
        .expect("BENCHMARK.json parses");
    let names: Vec<String> = entries(field(&doc, "workloads"))
        .iter()
        .map(|w| text(field(w, "name")))
        .collect();
    let specs: Vec<String> = workload::all().iter().map(|s| s.name.to_string()).collect();
    assert_eq!(names, specs, "BENCHMARK.json lists exactly the workloads");

    let out = out_dir("metrics");
    for spec in workload::all() {
        let toy = spec.toy();
        let untraced = end_to_end(&toy, 7, Limit::Rounds(6), &out).expect("untraced run");
        assert_clean(&untraced, spec.name);
        assert_eq!(emitted(&untraced), declared("end_to_end"), "{}", spec.name);
        for metric in &untraced.metrics {
            assert!(metric.value > 0.0, "{}: {} is 0", spec.name, metric.name);
        }
        let traced = per_layer(&toy, 7, Limit::Rounds(4), &out).expect("traced run");
        assert_clean(&traced, spec.name);
        assert_eq!(emitted(&traced), declared("per_layer"), "{}", spec.name);
    }
    let _ = std::fs::remove_dir_all(out);
}

#[test]
fn sharded_answers_equal_a_one_shard_replay_of_the_same_stream() {
    let out = out_dir("replay");
    let spec = workload::by_name("sharded_mixed")
        .expect("sharded_mixed exists")
        .toy();
    let digests = |spec: &workload::Spec| {
        let report = end_to_end(spec, 5, Limit::Rounds(10), &out).expect("run");
        assert_clean(&report, spec.name);
        report
            .digests
            .expect("untraced runs digest their transcript")
    };
    let (_, sharded) = digests(&spec);
    let (_, single) = digests(&spec.one_shard());
    assert_eq!(sharded, single, "4 shards answer exactly as 1 shard does");
    let _ = std::fs::remove_dir_all(out);
}

#[test]
fn inputs_repeat_for_a_seed_and_change_with_it() {
    let spec = workload::by_name("read_path")
        .expect("read_path exists")
        .toy();
    let schedule = |seed: u64| {
        let inputs = workload::Inputs::generate(&spec, seed);
        let queries: BTreeMap<usize, Vec<(usize, &'static str)>> = (0..8)
            .map(|round| (round, inputs.round_queries(round, spec.queries_per_round)))
            .collect();
        (inputs.mutations, queries)
    };
    assert_eq!(schedule(3), schedule(3));
    assert_ne!(schedule(3), schedule(4));
}
