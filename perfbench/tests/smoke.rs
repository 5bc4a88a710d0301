//! Smoke test: every workload runs once at reduced size, untraced and
//! traced, and reports every metric `BENCHMARK.json` names, with its
//! unit and a well-formed name. Also checks the command-line contract:
//! `--help` exits 0, a bad flag prints usage and exits 2, never a panic.

use std::process::{Command, Output};

use branchlab::telemetry::{json, JsonValue};

fn perfbench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("perfbench runs")
}

fn contract() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn names(contract: &JsonValue, key: &str) -> Vec<(String, String)> {
    contract
        .get(key)
        .and_then(JsonValue::as_arr)
        .expect("contract lists metrics")
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(JsonValue::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn every_workload_reports_every_metric() {
    let contract = contract();
    let workloads: Vec<String> = contract
        .get("workloads")
        .and_then(JsonValue::as_arr)
        .expect("contract lists workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(JsonValue::as_str)
                .expect("workload name")
                .to_string()
        })
        .collect();
    for workload in &workloads {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = perfbench(&[
                "--workload",
                workload,
                "--seed",
                "7",
                "--seconds",
                "1",
                "--trace",
                trace,
                "--smoke",
            ]);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                out.status.success(),
                "{workload} trace {trace} failed:\n{stderr}"
            );
            let stdout = String::from_utf8_lossy(&out.stdout);
            let line = stdout.lines().last().expect("a result line");
            let result = json::parse(line).expect("the result line is JSON");
            let keys: Vec<&str> = match &result {
                JsonValue::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
                _ => Vec::new(),
            };
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(
                result.get("correct").and_then(JsonValue::as_bool),
                Some(true),
                "{workload}:\n{stderr}"
            );
            assert!(result
                .get("attempted")
                .and_then(JsonValue::as_int)
                .is_some_and(|n| n >= 1));
            let metrics = result.get("metrics").expect("metrics object");
            for (name, unit) in names(&contract, key) {
                assert!(well_formed(&name), "malformed metric name `{name}`");
                let m = metrics
                    .get(&name)
                    .unwrap_or_else(|| panic!("{workload}: `{name}` missing"));
                assert_eq!(
                    m.get("unit").and_then(JsonValue::as_str),
                    Some(unit.as_str()),
                    "{name}"
                );
                let value = m
                    .get("value")
                    .and_then(JsonValue::as_f64)
                    .expect("numeric value");
                assert!(value.is_finite(), "{workload}: `{name}` = {value}");
            }
        }
    }
}

#[test]
fn help_and_bad_flags() {
    let help = perfbench(&["--help"]);
    assert_eq!(help.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&help.stdout).contains("usage: perfbench"));
    for bad in [
        &["--bogus"][..],
        &["--seed", "abc"],
        &["--seed"],
        &["--trace", "2"],
        &["--workload", "nope"],
        &["--seconds", "-1"],
    ] {
        let out = perfbench(bad);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bad:?}: {stderr}");
        assert!(stderr.contains("usage: perfbench"), "{bad:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{bad:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{bad:?} printed a result");
    }
}
