//! `BENCHMARK.json` at the repository root and the metric registry in
//! `src/layers.rs` name the same metrics with the same units and
//! directions, and the traced and untraced runs report exactly them.

use lrc_json::Value;
use lrc_perfbench::bench::Bench;
use lrc_perfbench::layers::{END_TO_END, PER_LAYER};
use std::collections::HashSet;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text =
        std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark directory");
    lrc_json::parse(&text).expect("BENCHMARK.json parses")
}

fn entries(v: &Value, key: &str) -> Vec<(String, String, String)> {
    let Some(Value::Array(items)) = v.get(key) else {
        panic!("BENCHMARK.json has no {key} list")
    };
    items
        .iter()
        .map(|m| {
            let s = |k: &str| {
                m.get(k)
                    .and_then(|x| x.as_str())
                    .unwrap_or_else(|| panic!("{key} entry without {k}"))
                    .to_string()
            };
            (s("name"), s("unit"), s("better"))
        })
        .collect()
}

#[test]
fn benchmark_json_matches_the_registry() {
    let v = benchmark_json();
    let e2e: Vec<_> = END_TO_END
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string(), m.better.to_string()))
        .collect();
    assert_eq!(entries(&v, "end_to_end"), e2e);
    let per: Vec<_> = PER_LAYER
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string(), m.better.to_string()))
        .collect();
    assert_eq!(entries(&v, "per_layer"), per);
    let Some(Value::Array(ws)) = v.get("workloads") else {
        panic!("no workloads")
    };
    let listed: Vec<(&str, &str)> = ws
        .iter()
        .filter_map(|w| Some((w.get("name")?.as_str()?, w.get("why")?.as_str()?)))
        .collect();
    assert_eq!(listed, Bench::ALL.map(|b| (b.name(), b.why())));
}

#[test]
fn registry_names_are_unique_and_well_formed() {
    let mut seen = HashSet::new();
    for name in END_TO_END
        .iter()
        .map(|m| m.name)
        .chain(PER_LAYER.iter().map(|m| m.name))
    {
        assert!(seen.insert(name), "{name} listed twice");
        assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "{name}"
        );
    }
    for m in &PER_LAYER {
        assert!(matches!(m.better, "higher" | "lower"));
        assert!(!m.layer.is_empty() && !m.moves.is_empty() && !m.flat.is_empty());
    }
}
