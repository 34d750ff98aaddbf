//! `BENCHMARK.json` and the program agree: every name in the file is well
//! formed and is emitted by a run, and every name a run emits is in the file.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

use pesos_benchmark::json::{self, Json};
use pesos_benchmark::metrics::{MetricDef, END_TO_END, PER_LAYER};
use pesos_benchmark::workload::{self, Scale};

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root"))
        .expect("BENCHMARK.json parses")
}

fn well_formed(name: &str, extra: &str, max: usize) -> bool {
    !name.is_empty()
        && name.len() <= max
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
}

fn text<'a>(entry: &'a Json, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("entry without {key}: {entry:?}"))
}

fn check_table(doc: &Json, key: &str, table: &[MetricDef], bounded: bool) {
    let entries = doc.get(key).and_then(Json::as_array).unwrap();
    assert_eq!(entries.len(), table.len(), "{key}");
    for (entry, def) in entries.iter().zip(table) {
        let name = text(entry, "name");
        assert!(well_formed(name, "_.-", 64), "{name}");
        assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
        assert!(well_formed(text(entry, "unit"), "_/%.-", 16), "{name}");
        assert_eq!(name, def.name);
        assert_eq!(text(entry, "unit"), def.unit, "{name}");
        assert_eq!(text(entry, "better"), def.better.as_str(), "{name}");
        let keys: Vec<&str> = entry
            .members()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        if bounded {
            assert_eq!(keys, ["name", "unit", "better", "bound"], "{name}");
            // The issue's 10 %; set-up time alone takes the contract's
            // largest bound, as the contract asks.
            let bound = entry.get("bound").and_then(Json::as_f64).unwrap();
            let expected = if name == "setup_s" { 0.25 } else { 0.10 };
            assert_eq!(bound, expected, "{name}");
        } else {
            assert_eq!(keys, ["name", "unit", "better"], "{name}");
        }
    }
}

#[test]
fn benchmark_json_matches_the_tables() {
    let doc = benchmark_json();
    let keys: Vec<&str> = doc
        .members()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(
        doc.get("paths").and_then(Json::as_array),
        Some(&[Json::Str("benchmark".into())][..])
    );
    let seconds = doc.get("run_seconds").and_then(Json::as_f64).unwrap();
    assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));
    let command = doc.get("command").and_then(Json::as_array).unwrap();
    assert!(command.len() <= 32);
    for part in command {
        let part = part.as_str().unwrap();
        assert!(part.len() <= 200 && !part.starts_with('/') && !part.contains(".."));
    }

    let workloads = doc.get("workloads").and_then(Json::as_array).unwrap();
    assert_eq!(workloads.len(), workload::NAMES.len());
    for (entry, name) in workloads.iter().zip(workload::NAMES) {
        let spec = workload::spec(name, Scale::Full).unwrap();
        assert_eq!(text(entry, "name"), name);
        assert_eq!(text(entry, "why"), spec.why);
        assert!(well_formed(name, "_.-", 64));
        assert_eq!(entry.members().unwrap().len(), 2);
    }

    check_table(&doc, "end_to_end", END_TO_END, true);
    check_table(&doc, "per_layer", PER_LAYER, false);
    let setup = &doc.get("end_to_end").and_then(Json::as_array).unwrap()[0];
    assert_eq!(text(setup, "name"), "setup_s");
    assert_eq!(text(setup, "unit"), "s");
    assert_eq!(text(setup, "better"), "lower");
    let mut names = BTreeSet::new();
    for def in END_TO_END.iter().chain(PER_LAYER) {
        assert!(names.insert(def.name));
    }
    for name in workload::NAMES {
        assert!(names.insert(name), "{name} is also a metric name");
    }
}

fn emitted(traced: bool) -> Vec<(String, String)> {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("out-contract");
    let output = Command::new(env!("CARGO_BIN_EXE_pesos-benchmark"))
        .args([
            "--workload",
            "policy_read_1k",
            "--seed",
            "4",
            "--seconds",
            "0.6",
        ])
        .args(["--scale", "smoke"])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out")
        .arg(&out)
        .output()
        .expect("benchmark binary runs");
    assert!(output.status.success());
    let stdout = String::from_utf8(output.stdout).unwrap();
    let result = json::parse(stdout.lines().last().unwrap()).unwrap();
    let keys: Vec<&str> = result
        .members()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    result
        .get("metrics")
        .and_then(Json::members)
        .unwrap()
        .iter()
        .map(|(name, metric)| {
            assert!(
                metric.get("value").and_then(Json::as_f64).is_some(),
                "{name}"
            );
            (name.clone(), text(metric, "unit").to_string())
        })
        .collect()
}

#[test]
fn a_run_emits_exactly_the_names_in_the_tables() {
    for (traced, table) in [(false, END_TO_END), (true, PER_LAYER)] {
        let expected: Vec<(String, String)> = table
            .iter()
            .map(|def| (def.name.to_string(), def.unit.to_string()))
            .collect();
        assert_eq!(emitted(traced), expected);
    }
}

#[test]
fn unknown_workload_and_bad_flags_exit_non_zero_without_a_result() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &[
            "--workload",
            "hot_mix_1k",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &[
            "--workload",
            "hot_mix_1k",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ][..],
        &[
            "--workload",
            "hot_mix_1k",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0",
        ][..],
        &["frobnicate"][..],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_pesos-benchmark"))
            .args(args)
            .output()
            .unwrap();
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?}");
    }
}

#[test]
fn a_set_file_holds_the_runs_of_one_invocation() {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("out-set");
    for runs in ["2", "1"] {
        let status = Command::new(env!("CARGO_BIN_EXE_pesos-benchmark"))
            .args(["run", "--set", "S", "--workloads", "policy_read_1k"])
            .args(["--runs", runs, "--seconds", "0.3", "--scale", "smoke"])
            .arg("--out")
            .arg(&out)
            .output()
            .expect("benchmark binary runs")
            .status;
        assert!(status.success());
        // The second invocation replaces the first one's two runs.
        let set = std::fs::read_to_string(out.join("S.jsonl")).unwrap();
        assert_eq!(set.lines().count().to_string(), runs);
    }
}

#[test]
fn predictions_name_every_per_layer_metric_and_only_known_names() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("predictions.json");
    let doc = json::parse(&std::fs::read_to_string(&path).expect("predictions.json")).unwrap();
    let entries = doc.get("per_layer").and_then(Json::as_array).unwrap();
    assert_eq!(entries.len(), PER_LAYER.len());
    for (entry, def) in entries.iter().zip(PER_LAYER) {
        assert_eq!(text(entry, "metric"), def.name);
        assert_eq!(Some(text(entry, "layer")), def.name.split('.').next());
        for moved in entry.get("moves").and_then(Json::as_array).unwrap() {
            let metric = text(moved, "metric");
            assert!(
                END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == metric),
                "{}: moves unknown metric {metric}",
                def.name
            );
            let workloads = moved.get("workloads").and_then(Json::as_array).unwrap();
            assert!(!workloads.is_empty(), "{}", def.name);
            for workload in workloads {
                let workload = workload.as_str().unwrap();
                assert!(workload::NAMES.contains(&workload), "{workload}");
            }
        }
    }
}
