//! Runs the benchmark binary the way the contract's driver does, on every workload, at
//! smoke size: a refactor that breaks an API the benchmark compiles against, or a
//! metric the binary stops emitting, fails here instead of orphaning the benchmark.

use std::process::Command;
use std::sync::Mutex;
use tempo_perf::json::Json;
use tempo_perf::spec::{END_TO_END, PER_LAYER, WORKLOADS};

/// One workload at a time: four debug-build clusters sharing two cores starve each other
/// into lagging replicas, and the harness checks that none lags.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// Runs one workload with `--smoke` and returns the result object printed
/// on the last line of stdout.
fn smoke(workload: &str, trace: u8) -> Json {
    let _turn = ONE_AT_A_TIME
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let out_dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("tempo-perf-smoke");
    let output = Command::new(env!("CARGO_BIN_EXE_tempo-perf"))
        .args(["--smoke", "--workload", workload, "--seed", "7"])
        .args(["--seconds", "20", "--trace", &trace.to_string()])
        .arg("--out")
        .arg(out_dir.join(format!("{workload}-{trace}.json")))
        .env("CARGO_TARGET_DIR", &out_dir)
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    Json::parse(last).unwrap_or_else(|e| panic!("{workload}: result line {last:?}: {e}"))
}

fn check(workload: &str, trace: u8, names: &[(&str, &str)]) {
    let result = smoke(workload, trace);
    let keys: Vec<&str> = result.members().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        ["correct", "attempted", "failed", "metrics"],
        "{workload}"
    );
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{workload}");
    assert_eq!(
        result.get("failed").and_then(Json::as_f64),
        Some(0.0),
        "{workload}"
    );
    assert!(
        result.get("attempted").and_then(Json::as_f64) >= Some(1.0),
        "{workload}"
    );
    let metrics = result.get("metrics").expect("metrics").members();
    let got: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let want: Vec<&str> = names.iter().map(|(name, _)| *name).collect();
    assert_eq!(
        got, want,
        "{workload} --trace {trace} emits exactly the table's metrics"
    );
    for ((name, metric), (_, unit)) in metrics.iter().zip(names) {
        let value = metric.get("value").and_then(Json::as_f64);
        assert!(
            value.is_some_and(f64::is_finite),
            "{workload} {name}: {metric}"
        );
        assert_eq!(
            metric.get("unit").and_then(Json::as_str),
            Some(*unit),
            "{workload} {name}"
        );
    }
}

fn both_passes(workload: &str) {
    let end_to_end: Vec<_> = END_TO_END.iter().map(|m| (m.name, m.unit)).collect();
    let per_layer: Vec<_> = PER_LAYER.iter().map(|m| (m.name, m.unit)).collect();
    check(workload, 0, &end_to_end);
    check(workload, 1, &per_layer);
}

#[test]
fn lan_rw_smoke() {
    both_passes(WORKLOADS[0].name);
}

#[test]
fn lan_contended_f2_smoke() {
    both_passes(WORKLOADS[1].name);
}

#[test]
fn lan_2shard_txn_smoke() {
    both_passes(WORKLOADS[2].name);
}

#[test]
fn wan_rw_smoke() {
    both_passes(WORKLOADS[3].name);
}

#[test]
fn a_failing_harness_check_exits_non_zero_without_a_result() {
    let output = Command::new(env!("CARGO_BIN_EXE_tempo-perf"))
        .args(["--workload", "no_such_workload"])
        .output()
        .expect("the benchmark binary runs");
    assert!(!output.status.success());
    assert!(output.stdout.is_empty(), "no result line on failure");
}
