//! The `--quick` path end to end: every workload, both runs, through the
//! built binary, exactly as the driver calls it — and the result line
//! held to `BENCHMARK.json`.

#[allow(dead_code)]
#[path = "../src/json.rs"]
mod json;

use json::Value;
use std::process::Command;

fn manifest() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("manifest parses")
}

fn names(manifest: &Value, section: &str) -> Vec<String> {
    let Some(Value::Array(items)) = manifest.get(section) else {
        panic!("no {section} in BENCHMARK.json");
    };
    items
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_owned()
        })
        .collect()
}

/// Runs the binary the way the driver does, plus `--quick`.
fn run(workload: &str, trace: &str) -> (Value, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_divtopk-e2e"))
        .args(["run", "--quick"])
        .args([
            "--workload",
            workload,
            "--seed",
            "5",
            "--seconds",
            "2",
            "--trace",
            trace,
        ])
        .output()
        .expect("spawn the benchmark");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    assert!(
        output.status.success(),
        "{workload} --trace {trace} exited {:?}\n{stdout}\n{}",
        output.status.code(),
        String::from_utf8_lossy(&output.stderr)
    );
    let line = stdout.lines().next_back().expect("a result line");
    (json::parse(line).expect("the last line is JSON"), stdout)
}

fn check(workload: &str) {
    let manifest = manifest();
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let (result, stdout) = run(workload, trace);
        let keys: Vec<&str> = result.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(result.get("correct"), Some(&Value::Bool(true)), "{stdout}");
        assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));
        assert!(result.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
        let metrics = result.get("metrics").expect("metrics");
        let reported: Vec<String> = metrics.fields().iter().map(|(k, _)| k.clone()).collect();
        assert_eq!(
            reported,
            names(&manifest, section),
            "{workload} --trace {trace}"
        );
        for (name, metric) in metrics.fields() {
            let value = metric.get("value").and_then(Value::as_f64);
            assert!(value.is_some_and(f64::is_finite), "{name} is not a number");
            assert!(
                metric.get("unit").and_then(Value::as_str).is_some(),
                "{name} has no unit"
            );
            if section == "end_to_end" {
                assert!(
                    value.unwrap() > 0.0,
                    "{workload}: gated metric {name} reads 0"
                );
            }
        }
        // Quick output says so, in the heading and in the results file.
        assert!(stdout.contains("quick: true"), "{stdout}");
        let results = stdout
            .lines()
            .find_map(|l| l.strip_prefix("results "))
            .expect("a results file is named");
        let file = json::parse(&std::fs::read_to_string(results).expect("results file")).unwrap();
        assert_eq!(file.get("quick"), Some(&Value::Bool(true)));
        let header = file.get("header").expect("header");
        assert_eq!(header.get("quick"), Some(&Value::Bool(true)));
        for key in ["commit", "nproc", "rustc", "seed", "phase_seconds"] {
            assert!(header.get(key).is_some(), "header lacks {key}");
        }
    }
}

#[test]
fn quick_hot_serve() {
    check("hot_serve");
}

#[test]
fn quick_cold_search() {
    check("cold_search");
}

#[test]
fn quick_neardup_modes() {
    check("neardup_modes");
}

#[test]
fn quick_live_mixed() {
    check("live_mixed");
}

#[test]
fn bad_arguments_exit_2_without_a_result() {
    for args in [
        &["run", "--workload", "nope"][..],
        &["run", "--trace", "2"],
        &["frobnicate"],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_divtopk-e2e"))
            .args(args)
            .output()
            .expect("spawn the benchmark");
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?} printed a result");
    }
}
