//! Self-tests of the benchmark command: a reduced-size run of every
//! workload prints exactly the metrics `BENCHMARK.json` names, and
//! corrupted output makes the command fail.

use std::process::Command;

use serde::value::Value;

const WORKLOADS: [&str; 4] = ["synth-mid", "trees-all", "imbal-huge", "tiny-grid"];

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    Value::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` list.
fn declared(list: &str) -> Vec<(String, String)> {
    benchmark_json()
        .get(list)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Value::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// Runs the benchmark binary; returns its success and parsed last line.
fn run(args: &[&str]) -> (bool, Value) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("some output");
    let result = Value::parse(last).unwrap_or_else(|e| panic!("last line {last:?}: {e:?}"));
    (out.status.success(), result)
}

fn reduced(workload: &str, trace: &str, extra: &[&str]) -> (bool, Value) {
    let mut args = vec![
        "--workload",
        workload,
        "--seed",
        "5",
        "--seconds",
        "0",
        "--trace",
        trace,
        "--reduced",
    ];
    args.extend(extra);
    run(&args)
}

#[test]
fn every_workload_emits_the_declared_metrics() {
    for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
        let expected = declared(list);
        for workload in WORKLOADS {
            let (ok, result) = reduced(workload, trace, &[]);
            assert!(ok, "{workload} --trace {trace} failed: {}", result.render());
            assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
            assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
            assert!(result.get("attempted").and_then(Value::as_u64) > Some(0));
            let metrics = result
                .get("metrics")
                .and_then(Value::as_object)
                .expect("metrics object");
            let got: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, m)| {
                    let value = m.get("value").and_then(Value::as_f64).expect("value");
                    assert!(value.is_finite(), "{workload} {name} = {value}");
                    let unit = m.get("unit").and_then(Value::as_str).expect("unit");
                    (name.clone(), unit.to_string())
                })
                .collect();
            assert_eq!(got, expected, "{workload} --trace {trace}");
        }
    }
}

#[test]
fn a_dropped_row_fails_the_command() {
    let (ok, result) = reduced("synth-mid", "0", &["--fault", "drop-row"]);
    assert!(!ok);
    assert_eq!(result.get("correct").and_then(Value::as_bool), Some(false));
    assert!(result.get("failed").and_then(Value::as_u64) > Some(0));
}

#[test]
fn a_corrupted_digest_fails_the_command() {
    let (ok, result) = reduced("tiny-grid", "0", &["--fault", "corrupt-digest"]);
    assert!(!ok);
    assert_eq!(result.get("correct").and_then(Value::as_bool), Some(false));
    assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
}

#[test]
fn a_bad_command_line_is_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "no-such-workload"])
        .output()
        .expect("the benchmark binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
