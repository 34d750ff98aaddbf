//! Same seed, same inputs and same counts; another seed, other inputs.
//! Runs at `--scale smoke` so the whole file takes seconds.

use std::path::PathBuf;
use std::process::Command;

use pesos_benchmark::gen;
use pesos_benchmark::json::{self, Json};
use pesos_benchmark::workload::{self, Scale};

#[test]
fn same_seed_gives_the_same_trace_and_another_seed_another() {
    for name in workload::NAMES {
        let spec = workload::spec(name, Scale::Smoke).unwrap();
        let a = gen::generate(&spec, 7, 2);
        let b = gen::generate(&spec, 7, 2);
        let other = gen::generate(&spec, 8, 2);
        assert_eq!(a.trace_hash, b.trace_hash, "{name}");
        assert_eq!(a.streams, b.streams, "{name}");
        assert_eq!(a.sample, b.sample, "{name}");
        assert_eq!(a.values, b.values, "{name}");
        assert_ne!(a.trace_hash, other.trace_hash, "{name}");
        assert_ne!(a.sample, other.sample, "{name}");
        // Keys do not depend on the seed: only what is done to them does.
        assert_eq!(a.keys, other.keys, "{name}");
    }
}

#[test]
fn cas_updates_of_two_clients_never_share_a_record() {
    let spec = workload::spec("policy_read_1k", Scale::Smoke).unwrap();
    let inputs = gen::generate(&spec, 3, 2);
    for (client, stream) in inputs.streams.iter().enumerate() {
        for op in stream.iter().filter(|op| op.kind == gen::OpKind::CasUpdate) {
            assert_eq!(op.key as usize % 2, client);
        }
    }
}

#[test]
fn transaction_pairs_cross_partitions() {
    let spec = workload::spec("cluster_repl_1k", Scale::Smoke).unwrap();
    let inputs = gen::generate(&spec, 3, 2);
    assert_eq!(inputs.pair_keys.len(), 2 * gen::TX_PAIRS);
    let partition = |key: &str| (pesos_core::routing_hash(key, Some('.')) as u128 * 4) >> 64;
    for pair in inputs.pair_keys.chunks(2) {
        assert_ne!(partition(&pair[0]), partition(&pair[1]), "{pair:?}");
    }
}

/// Runs the single-workload form and returns its parsed result line.
fn run_single(workload: &str, seed: u64, traced: bool, clients: usize) -> Json {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("out-{workload}-{seed}"));
    let output = Command::new(env!("CARGO_BIN_EXE_pesos-benchmark"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "0.6", "--scale", "smoke"])
        .args(["--trace", if traced { "1" } else { "0" }])
        .args(["--clients", &clients.to_string()])
        .arg("--out")
        .arg(&out)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(output.stdout).unwrap();
    assert!(output.status.success(), "{workload}: {stdout}");
    let result = json::parse(stdout.lines().last().unwrap()).unwrap();
    assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
    assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
    assert!(result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
    result
}

fn metric(result: &Json, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("no metric {name}"))
}

#[test]
fn counts_repeat_exactly_for_a_seed() {
    // Not `cold_read_1k`: the object cache evicts among equally rare entries
    // in hash-map order, which differs per process, so which reads miss
    // (and the drive counts with them) does not repeat for a seed.
    for workload in ["hot_mix_1k", "cluster_repl_1k", "disk_mix_1k"] {
        let first = run_single(workload, 11, true, 2);
        let second = run_single(workload, 11, true, 2);
        for name in pesos_benchmark::compare::EXACT_COUNTS {
            assert_eq!(
                metric(&first, name).to_bits(),
                metric(&second, name).to_bits(),
                "{workload}: {name}"
            );
        }
        // Compressions repeat up to the sessions' random connection ids
        // (see `EXACT_COUNTS`).
        let name = "crypto.compressions_per_op";
        let (a, b) = (metric(&first, name), metric(&second, name));
        assert!(
            a > 0.0 && (a - b).abs() / a < 2e-3,
            "{workload}: {name} {a} vs {b}"
        );
        assert!(metric(&first, "kinetic.drive_ops_per_op") > 0.0);
    }
}

#[test]
fn stored_bytes_repeat_exactly_for_a_seed() {
    let first = run_single("hot_mix_1k", 12, false, 1);
    let second = run_single("hot_mix_1k", 12, false, 1);
    let name = "stored_bytes_per_live_byte";
    assert_eq!(
        metric(&first, name).to_bits(),
        metric(&second, name).to_bits()
    );
    assert!(metric(&first, name) > 1.0);
    // A time never reads exactly the same twice.
    assert_ne!(metric(&first, "setup_s"), metric(&second, "setup_s"));
}
