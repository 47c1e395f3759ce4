//! `BENCHMARK.json` and the benchmark agree: the same workloads, the
//! same end-to-end and per-layer metrics with the same units, and a
//! command that runs this crate.

use serde::{DeError, Deserialize, Value};

struct Json(Value);

impl Deserialize for Json {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(Json(v.clone()))
    }
}

fn benchmark() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    serde_json::from_str::<Json>(&text).expect("valid JSON").0
}

fn items<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    match v.get(key) {
        Some(Value::Array(items)) => items,
        other => panic!("'{key}' should be an array, got {other:?}"),
    }
}

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    match v.get(key) {
        Some(Value::Str(s)) => s,
        other => panic!("'{key}' should be a string, got {other:?}"),
    }
}

fn name_units(v: &Value, key: &str) -> Vec<(String, String)> {
    items(v, key)
        .iter()
        .map(|m| (text(m, "name").to_string(), text(m, "unit").to_string()))
        .collect()
}

#[test]
fn workloads_match() {
    let b = benchmark();
    let names: Vec<&str> = items(&b, "workloads")
        .iter()
        .map(|w| text(w, "name"))
        .collect();
    assert_eq!(names, e2ebench::GATED);
    assert!(names.iter().all(|n| e2ebench::WORKLOADS.contains(n)));
}

#[test]
fn end_to_end_metrics_match() {
    let b = benchmark();
    let want: Vec<(String, String)> = e2ebench::END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(name_units(&b, "end_to_end"), want);
}

#[test]
fn per_layer_metrics_match() {
    let b = benchmark();
    let want: Vec<(String, String)> = e2ebench::layers::PER_LAYER
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(name_units(&b, "per_layer"), want);
}

#[test]
fn command_runs_this_crate() {
    let b = benchmark();
    let command: Vec<&str> = items(&b, "command")
        .iter()
        .map(|c| match c {
            Value::Str(s) => s.as_str(),
            other => panic!("command parts are strings, got {other:?}"),
        })
        .collect();
    assert_eq!(command[0], "cargo");
    assert!(command.contains(&"e2ebench/Cargo.toml"));
    assert_eq!(command.last(), Some(&"--"));
}
