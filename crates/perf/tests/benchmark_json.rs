//! `BENCHMARK.json` at the repo root must say what `spec.rs` says: the same workloads,
//! metrics, units, directions and bounds, in the same order, inside the contract's limits.

use tempo_perf::json::Json;
use tempo_perf::spec::{valid_name, END_TO_END, PER_LAYER, WORKLOADS};

fn contract() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    assert!(text.len() <= 64 * 1024, "at most 64 KiB");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn text<'a>(entry: &'a Json, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("{entry} has no {key}"))
}

fn keys(entry: &Json) -> Vec<&str> {
    entry.members().iter().map(|(k, _)| k.as_str()).collect()
}

#[test]
fn top_level_keys_and_command() {
    let doc = contract();
    assert_eq!(
        keys(&doc),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let command: Vec<&str> = doc
        .get("command")
        .unwrap()
        .items()
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert_eq!(
        command,
        [
            "cargo",
            "run",
            "--release",
            "--quiet",
            "-p",
            "tempo-perf",
            "--"
        ]
    );
    let paths: Vec<&str> = doc
        .get("paths")
        .unwrap()
        .items()
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert_eq!(paths, ["crates/perf"]);
    let seconds = doc
        .get("run_seconds")
        .and_then(Json::as_f64)
        .expect("run_seconds");
    assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
}

#[test]
fn workloads_match_the_binary() {
    let doc = contract();
    let listed = doc.get("workloads").unwrap().items();
    assert_eq!(listed.len(), WORKLOADS.len());
    for (entry, w) in listed.iter().zip(&WORKLOADS) {
        assert_eq!(keys(entry), ["name", "why"]);
        assert_eq!(text(entry, "name"), w.name);
        assert_eq!(text(entry, "why"), w.why);
        assert!(valid_name(w.name));
        assert!(
            w.why.len() <= 200 && !w.why.contains('\n'),
            "{}: one line of at most 200",
            w.name
        );
    }
}

#[test]
fn end_to_end_metrics_match_the_binary() {
    let doc = contract();
    let listed = doc.get("end_to_end").unwrap().items();
    assert_eq!(listed.len(), END_TO_END.len());
    for (entry, m) in listed.iter().zip(&END_TO_END) {
        assert_eq!(keys(entry), ["name", "unit", "better", "bound"]);
        assert_eq!(text(entry, "name"), m.name);
        assert_eq!(text(entry, "unit"), m.unit);
        assert_eq!(text(entry, "better"), m.better.as_str());
        assert_eq!(entry.get("bound").and_then(Json::as_f64), Some(m.bound));
        assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
    }
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s is required");
    assert_eq!((setup.unit, setup.better.as_str()), ("s", "lower"));
    assert!(
        END_TO_END.iter().all(|m| m.bound <= setup.bound),
        "setup_s has the largest bound"
    );
}

#[test]
fn per_layer_metrics_match_the_binary() {
    let doc = contract();
    let listed = doc.get("per_layer").unwrap().items();
    assert_eq!(listed.len(), PER_LAYER.len());
    assert!(listed.len() <= 128);
    for (entry, m) in listed.iter().zip(&PER_LAYER) {
        assert_eq!(keys(entry), ["name", "unit", "better"]);
        assert_eq!(text(entry, "name"), m.name);
        assert_eq!(text(entry, "unit"), m.unit);
        assert_eq!(text(entry, "better"), m.better.as_str());
        let unit_ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
        assert!(
            m.unit.len() <= 16 && m.unit.chars().all(unit_ok),
            "{}: unit {}",
            m.name,
            m.unit
        );
    }
}
