//! Smoke tests of the benchmark: every workload at a tiny size through the
//! untraced and the traced path, the output format, and the agreement
//! between `BENCHMARK.json`, `meta.json` and the metric catalog.

use concord_perfbench::bench::{run, Options};
use concord_perfbench::catalog::{Metric, END_TO_END, PER_LAYER};
use concord_perfbench::runner::{prepare, run_untraced};
use concord_perfbench::workloads::{Size, Workload};
use serde::{Deserialize, Error, Value};

/// Any JSON value, parsed with the vendored serde shim.
struct Json(Value);

impl Deserialize for Json {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(Json(v.clone()))
    }
}

fn load(path: &str) -> Value {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"));
    serde_json::from_str::<Json>(&text)
        .unwrap_or_else(|e| panic!("{path}: {e}"))
        .0
}

fn field<'a>(v: &'a Value, name: &str) -> &'a Value {
    serde::obj_field(v.as_object().expect("an object"), name)
}

fn text(v: &Value) -> &str {
    match v {
        Value::Str(s) => s,
        other => panic!("expected a string, got {other:?}"),
    }
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
}

fn benchmark_json() -> Value {
    load(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
}

fn meta_json() -> Value {
    load(concat!(env!("CARGO_MANIFEST_DIR"), "/meta.json"))
}

#[test]
fn benchmark_json_lists_exactly_the_catalog() {
    let bench = benchmark_json();
    for (key, catalog) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let listed = field(&bench, key).as_array().expect("a metric list");
        assert_eq!(listed.len(), catalog.len(), "{key}");
        for (entry, metric) in listed.iter().zip(catalog) {
            let name = text(field(entry, "name"));
            assert!(valid_name(name), "{name}");
            assert_eq!(name, metric.name);
            assert_eq!(text(field(entry, "unit")), metric.unit, "{name}");
            assert_eq!(
                text(field(entry, "better")),
                metric.better.as_str(),
                "{name}"
            );
        }
    }
    let workloads = field(&bench, "workloads").as_array().expect("workloads");
    let names: Vec<&str> = workloads.iter().map(|w| text(field(w, "name"))).collect();
    let expected: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, expected);
    assert!(names.iter().all(|n| valid_name(n)));
}

#[test]
fn meta_json_maps_every_layer_metric_onto_catalog_names() {
    let meta = meta_json();
    let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    for w in field(&meta, "workloads").as_object().expect("workloads") {
        assert!(workloads.contains(&w.0.as_str()), "{}", w.0);
    }
    let layer_map = field(&meta, "layer_map").as_object().expect("layer_map");
    let mapped: Vec<&str> = layer_map.iter().map(|(k, _)| k.as_str()).collect();
    for m in PER_LAYER {
        assert!(
            mapped.contains(&m.name),
            "{} has no layer_map entry",
            m.name
        );
    }
    for (name, target) in layer_map {
        assert!(PER_LAYER.iter().any(|m| m.name == name), "{name}");
        for moves in field(target, "moves").as_array().expect("moves") {
            let metric = text(field(moves, "metric"));
            assert!(
                END_TO_END.iter().any(|m| m.name == metric),
                "{name} → {metric}"
            );
            for w in field(moves, "on").as_array().expect("on") {
                assert!(workloads.contains(&text(w)), "{name} → {}", text(w));
            }
        }
    }
}

fn smoke(workload: Workload, trace: bool) -> concord_perfbench::bench::Outcome {
    let outcome = run(Options {
        workload,
        seed: 11,
        seconds: 1e-3,
        trace,
        size: Size::Tiny,
    });
    assert!(outcome.correct, "{}: {:#?}", workload.name(), outcome.log);
    assert!(outcome.attempted > 0);
    assert_eq!(outcome.failed, 0);
    let expected: &[Metric] = if trace { PER_LAYER } else { END_TO_END };
    let printed: Vec<Metric> = outcome.metrics.iter().map(|(m, _)| *m).collect();
    assert_eq!(printed, expected);
    let json = outcome.to_json();
    for (m, v) in &outcome.metrics {
        assert!(v.is_finite(), "{} = {v}", m.name);
        let entry = format!("\"{}\": {{\"value\": ", m.name);
        let unit = format!("\"unit\": \"{}\"}}", m.unit);
        let at = json
            .find(&entry)
            .unwrap_or_else(|| panic!("{} missing", m.name));
        assert!(
            json[at..].contains(&unit),
            "{} printed without its unit",
            m.name
        );
    }
    assert!(json.starts_with("{\"correct\": true, \"attempted\": "));
    outcome
}

fn value(outcome: &concord_perfbench::bench::Outcome, name: &str) -> f64 {
    outcome
        .metrics
        .iter()
        .find(|(m, _)| m.name == name)
        .unwrap_or_else(|| panic!("{name} missing"))
        .1
}

#[test]
fn paper_sweep_runs_untraced_and_traced() {
    let e2e = smoke(Workload::PaperSweep, false);
    assert!(value(&e2e, "sim_ops_per_s") > 0.0);
    assert!(value(&e2e, "setup_s") > 0.0);
    assert!(value(&e2e, "peak_rss_mb") > 0.0);
    assert_eq!(value(&e2e, "success_rate"), 1.0);
    let layers = smoke(Workload::PaperSweep, true);
    assert_eq!(value(&layers, "shard.windows"), 0.0);
    assert_eq!(value(&layers, "sweep.points"), 8.0);
    assert_eq!(value(&layers, "runtime.late_submits"), 0.0);
    // Tiny runs are mostly ramp-up and drain, so the gap is only near 0.
    assert!(value(&layers, "runtime.little_gap").abs() < 0.1);
    assert!(value(&layers, "policy.decide_calls") > 0.0);
}

#[test]
fn geo_open_faults_runs_untraced_and_traced() {
    smoke(Workload::GeoOpenFaults, false);
    let layers = smoke(Workload::GeoOpenFaults, true);
    assert!(value(&layers, "shard.parallel_batches") > 0.0);
    assert!(value(&layers, "repair.bytes") > 0.0);
    assert_eq!(value(&layers, "shard.lookahead_violations"), 0.0);
}

#[test]
fn closed_sharded_runs_untraced_and_traced() {
    smoke(Workload::ClosedSharded, false);
    let layers = smoke(Workload::ClosedSharded, true);
    assert!(value(&layers, "shard.windows") > 0.0);
    assert!(value(&layers, "runtime.late_submits") > 0.0);
    assert!(value(&layers, "runtime.little_gap") > 0.5);
}

#[test]
fn untraced_runner_is_the_experiment_path() {
    for workload in Workload::ALL {
        let point = &workload.points(5, Size::Tiny)[0];
        let ours = run_untraced(point, prepare(point)).report;
        assert_eq!(
            ours,
            point.experiment.run_spec(&point.spec),
            "{}",
            workload.name()
        );
    }
}
