//! Smoke test of the traced replicas at the smallest size:
//! `cargo test --release --manifest-path flowbench/Cargo.toml`.

use flowbench::e2e::Budget;
use flowbench::traced::{replicate, Metric};
use flowbench::Workload;
use serde::Value;

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    flowbench::field(v, key).unwrap_or_else(|| panic!("BENCHMARK.json lacks `{key}`"))
}

/// Per-layer metric names `BENCHMARK.json` declares.
fn declared() -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    field(&doc, "per_layer")
        .as_array()
        .expect("per_layer is a list")
        .iter()
        .map(|m| {
            field(m, "name")
                .as_str()
                .expect("names are strings")
                .to_string()
        })
        .collect()
}

fn counts(metrics: &[Metric]) -> Vec<(String, f64)> {
    metrics
        .iter()
        .filter(|(_, _, unit)| *unit == "count")
        .map(|(name, v, _)| (name.clone(), *v))
        .collect()
}

fn smoke(workload: Workload, seed: u64, units: usize) {
    let first = replicate(workload, seed, Budget::Units(units));
    assert!(first.errors.is_empty(), "{workload}: {:?}", first.errors);
    for name in declared() {
        // The overhead needs the programs' run on the same inputs.
        if name == "trace.overhead_pct" {
            continue;
        }
        let value = first
            .metrics
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|(_, v, _)| *v)
            .unwrap_or_else(|| panic!("{workload}: `{name}` is not emitted"));
        assert!(value.is_finite(), "{workload}: {name} = {value}");
    }
    let other = first
        .metrics
        .iter()
        .find(|(n, _, _)| n == "other.share")
        .map_or(1.0, |m| m.1);
    assert!(other <= 0.05, "{workload}: other.share = {other}");
    let second = replicate(workload, seed, Budget::Units(units));
    assert_eq!(
        counts(&first.metrics),
        counts(&second.metrics),
        "{workload}"
    );
    let outputs = |r: &flowbench::traced::Replica| {
        r.units
            .iter()
            .map(|u| u.outputs.clone())
            .collect::<Vec<_>>()
    };
    assert_eq!(outputs(&first), outputs(&second), "{workload}");
}

#[test]
fn suite_replica() {
    smoke(Workload::Suite, 4, 1);
}

#[test]
fn tournament_replica() {
    smoke(Workload::Tournament, 4, 1);
}

#[test]
fn fattree_replica() {
    smoke(Workload::Fattree, 8, 2);
}
