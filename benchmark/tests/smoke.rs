//! The wiring test: a smoke run of every workload emits exactly the
//! workload and metric names `BENCHMARK.json` lists, and `BENCHMARK.json` is
//! what the manifest module renders.

use serde::Value;
use std::path::{Path, PathBuf};
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_lcs_benchmark");

fn benchmark_json() -> (String, Value) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let value = lcs_server::json::parse(text.as_bytes()).expect("BENCHMARK.json is JSON");
    (text, value)
}

fn names(manifest: &Value, section: &str) -> Vec<String> {
    let Some(Value::Arr(items)) = lcs_server::json::lookup(manifest, section) else {
        panic!("BENCHMARK.json has no `{section}` list");
    };
    items
        .iter()
        .map(|item| match lcs_server::json::lookup(item, "name") {
            Some(Value::Str(name)) => name.clone(),
            other => panic!("`{section}` entry without a name: {other:?}"),
        })
        .collect()
}

/// Runs one smoke workload and returns the metric names of its result
/// object, in order, after checking the object's fixed part.
fn smoke_metric_names(workload: &str, trace: bool, out: &Path) -> Vec<String> {
    let output = Command::new(BIN)
        .args([
            "--workload",
            workload,
            "--seed",
            "11",
            "--seconds",
            "1",
            "--smoke",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(out)
        .output()
        .expect("run the benchmark binary");
    assert!(
        output.status.success(),
        "{workload} exited with {}",
        output.status
    );
    let stdout = String::from_utf8(output.stdout).expect("UTF-8 output");
    let last = stdout.lines().last().expect("a result line");
    let result = lcs_server::json::parse(last.as_bytes()).expect("the last line is JSON");
    let Value::Obj(fields) = &result else {
        panic!("the result is not an object: {last}");
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(
        fields[0].1,
        Value::Bool(true),
        "{workload} (trace {trace}) was incorrect"
    );
    assert!(matches!(fields[1].1, Value::U64(n) if n >= 1));
    assert_eq!(fields[2].1, Value::U64(0));
    let Value::Obj(metrics) = &fields[3].1 else {
        panic!("`metrics` is not an object");
    };
    // Every metric also has its `workload metric value unit` line.
    for (name, _) in metrics {
        assert!(
            stdout
                .lines()
                .any(|l| l.starts_with(&format!("{workload} {name} "))),
            "no line for {name}"
        );
    }
    metrics.iter().map(|(name, _)| name.clone()).collect()
}

#[test]
fn benchmark_json_is_the_rendered_manifest() {
    let output = Command::new(BIN)
        .arg("--manifest")
        .output()
        .expect("run --manifest");
    assert!(output.status.success());
    let (committed, _) = benchmark_json();
    assert_eq!(String::from_utf8_lossy(&output.stdout), committed);
}

#[test]
fn smoke_runs_emit_exactly_the_listed_names() {
    let (_, manifest) = benchmark_json();
    let end_to_end = names(&manifest, "end_to_end");
    let per_layer = names(&manifest, "per_layer");
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke_out");
    for workload in names(&manifest, "workloads") {
        assert_eq!(
            smoke_metric_names(&workload, false, &out),
            end_to_end,
            "{workload}"
        );
        assert_eq!(
            smoke_metric_names(&workload, true, &out),
            per_layer,
            "{workload}"
        );
        assert!(out.join(format!("trace.{workload}.json")).is_file());
    }
}

#[test]
fn an_unknown_workload_is_refused_without_a_result() {
    let output = Command::new(BIN)
        .args([
            "--workload",
            "no_such_workload",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("run the benchmark binary");
    assert!(!output.status.success());
    assert!(output.stdout.is_empty());
}
