//! Rebalance-under-traffic stress test: controllers join and leave while
//! concurrent writers and readers keep hammering the cluster, and no key
//! is ever lost or resurrected.
//!
//! Each writer thread owns a disjoint slice of the key space (sole writer
//! per key), tracks the value it last wrote — or that it deleted the key —
//! and the final state is verified against that record after two
//! `add_controller` calls and one `remove_controller` ran concurrently
//! with the traffic. A reader thread meanwhile asserts that any value it
//! observes for a key is a value some writer actually wrote (migration
//! must never expose half-moved state).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

use pesos_cluster::{ClusterConfig, ControllerCluster};
use pesos_core::{AsyncResult, PesosError, RequestEndpoint};

const WRITERS: usize = 4;
const KEYS_PER_WRITER: usize = 16;
const ROUNDS: usize = 8;

fn key_name(writer: usize, index: usize) -> String {
    format!("stress/w{writer}/k{index}")
}

#[derive(Clone, Debug, PartialEq)]
enum Expected {
    Value(Vec<u8>),
    Deleted,
}

#[test]
fn rebalance_under_concurrent_traffic_loses_and_resurrects_nothing() {
    // Width 1 is the same drain with one slot, not another code path; both
    // must hold the invariants.
    for drain_concurrency in [1, 4] {
        rebalance_under_concurrent_traffic(drain_concurrency);
    }
}

fn rebalance_under_concurrent_traffic(drain_concurrency: usize) {
    let mut config = ClusterConfig::native_simulator(2, 1);
    config.drain_concurrency = drain_concurrency;
    let cluster = Arc::new(ControllerCluster::new(config).unwrap());
    for w in 0..WRITERS {
        cluster.register_client(&format!("writer-{w}"));
    }
    cluster.register_client("reader");

    let start = Arc::new(Barrier::new(WRITERS + 2));
    let stop_reading = Arc::new(AtomicBool::new(false));

    // Writers: rounds of put/delete over their own keys, remembering the
    // final expected state.
    let mut writers = Vec::new();
    for w in 0..WRITERS {
        let cluster = Arc::clone(&cluster);
        let start = Arc::clone(&start);
        writers.push(std::thread::spawn(move || {
            let client = format!("writer-{w}");
            let mut expected: Vec<Expected> = vec![Expected::Deleted; KEYS_PER_WRITER];
            start.wait();
            for round in 0..ROUNDS {
                for (k, slot) in expected.iter_mut().enumerate() {
                    let key = key_name(w, k);
                    // Mostly writes, occasionally a delete, so both code
                    // paths cross the migrations.
                    if (round + k) % 5 == 4 {
                        match cluster.delete(&client, &key, &[]) {
                            Ok(()) | Err(PesosError::ObjectNotFound(_)) => {
                                *slot = Expected::Deleted;
                            }
                            Err(e) => panic!("writer {w} delete {key}: {e}"),
                        }
                    } else {
                        let value = format!("w{w}-k{k}-r{round}").into_bytes();
                        cluster
                            .put(&client, &key, value.clone(), None, None, &[])
                            .unwrap_or_else(|e| panic!("writer {w} put {key}: {e}"));
                        *slot = Expected::Value(value);
                    }
                }
            }
            expected
        }));
    }

    // Reader: any observed value must be a plausible write (prefix check),
    // and errors must only ever be NotFound.
    let reader = {
        let cluster = Arc::clone(&cluster);
        let start = Arc::clone(&start);
        let stop = Arc::clone(&stop_reading);
        std::thread::spawn(move || {
            start.wait();
            let mut observed = 0usize;
            while !stop.load(Ordering::Relaxed) {
                for w in 0..WRITERS {
                    for k in 0..KEYS_PER_WRITER {
                        let key = key_name(w, k);
                        match cluster.get("reader", &key, &[]) {
                            Ok((value, _)) => {
                                observed += 1;
                                let prefix = format!("w{w}-k{k}-r");
                                assert!(
                                    value.starts_with(prefix.as_bytes()),
                                    "reader saw corrupt value for {key}: {:?}",
                                    String::from_utf8_lossy(&value)
                                );
                            }
                            Err(PesosError::ObjectNotFound(_)) => {}
                            Err(e) => panic!("reader get {key}: {e}"),
                        }
                    }
                }
            }
            observed
        })
    };

    // Topology churn concurrent with the traffic: grow to 4, shrink to 3.
    start.wait();
    assert_eq!(cluster.add_controller().unwrap(), 3);
    assert_eq!(cluster.add_controller().unwrap(), 4);
    cluster.remove_controller(1).unwrap();
    assert_eq!(cluster.partition_count(), 3);

    let expectations: Vec<Vec<Expected>> = writers
        .into_iter()
        .map(|h| h.join().expect("writer panicked"))
        .collect();
    stop_reading.store(true, Ordering::Relaxed);
    let observed = reader.join().expect("reader panicked");
    assert!(observed > 0, "reader never observed a value");

    // Final verification: every surviving key holds its last-written value
    // (nothing lost), every deleted key is gone (nothing resurrected) —
    // checked through the cluster and against the union of raw partition
    // state, so a key stranded on a no-longer-owning partition is caught.
    let controllers = cluster.controllers();
    for (w, expected) in expectations.iter().enumerate() {
        for (k, state) in expected.iter().enumerate() {
            let key = key_name(w, k);
            let holders: Vec<usize> = controllers
                .iter()
                .enumerate()
                .filter(|(_, c)| c.store().get_metadata(key.as_str()).is_some())
                .map(|(i, _)| i)
                .collect();
            match state {
                Expected::Value(value) => {
                    let (got, _) = cluster
                        .get(&format!("writer-{w}"), &key, &[])
                        .unwrap_or_else(|e| panic!("lost key {key}: {e}"));
                    assert_eq!(&*got, value, "wrong final value for {key}");
                    assert_eq!(
                        holders,
                        vec![cluster.partition_of(&key)],
                        "{key} not exactly on its owner"
                    );
                }
                Expected::Deleted => {
                    assert!(
                        matches!(
                            cluster.get(&format!("writer-{w}"), &key, &[]),
                            Err(PesosError::ObjectNotFound(_))
                        ),
                        "deleted key {key} resurrected"
                    );
                    assert!(holders.is_empty(), "{key} still on partitions {holders:?}");
                }
            }
        }
    }
}

/// `latest_version` during migrations: the probe walks migration records
/// without taking the demand-pull path, so it must observe every existing
/// key on exactly one side of an in-flight move. Regression for the race
/// where the probe ran outside the ops gate and without the migration
/// stripe lock: a concurrent pull could import the key at the destination
/// *after* the destination probe and delete the source copy *before* the
/// source probe, making an existing key read as `None` mid-migration.
#[test]
fn latest_version_never_reports_existing_keys_missing_mid_migration() {
    const KEYS: usize = 64;
    let cluster = Arc::new(ControllerCluster::new(ClusterConfig::native_simulator(2, 1)).unwrap());
    cluster.register_client("prober");
    let keys: Vec<String> = (0..KEYS).map(|i| format!("lv/k{i:03}")).collect();
    for key in &keys {
        cluster
            .put(
                "prober",
                key,
                format!("{key}-v0").into_bytes(),
                None,
                None,
                &[],
            )
            .unwrap();
    }

    let start = Arc::new(Barrier::new(3));
    let stop = Arc::new(AtomicBool::new(false));

    // Prober: every key exists for the whole test (no deletes), so a None
    // is exactly the lost-mid-move race this test pins.
    let prober = {
        let cluster = Arc::clone(&cluster);
        let keys = keys.clone();
        let start = Arc::clone(&start);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            start.wait();
            let mut probes = 0usize;
            while !stop.load(Ordering::Relaxed) {
                for key in &keys {
                    let version = cluster.latest_version(key);
                    assert!(
                        version.is_some(),
                        "latest_version reported existing key {key} as missing mid-migration"
                    );
                    probes += 1;
                }
            }
            probes
        })
    };

    // A writer keeps versions moving so the probe also exercises the
    // freshest-side (destination-first) order while keys migrate.
    let writer = {
        let cluster = Arc::clone(&cluster);
        let keys = keys.clone();
        let start = Arc::clone(&start);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            start.wait();
            let mut round = 1u64;
            while !stop.load(Ordering::Relaxed) {
                for key in keys.iter().step_by(7) {
                    cluster
                        .put(
                            "prober",
                            key,
                            format!("{key}-v{round}").into_bytes(),
                            None,
                            None,
                            &[],
                        )
                        .unwrap_or_else(|e| panic!("writer put {key}: {e}"));
                }
                round += 1;
            }
        })
    };

    // Churn the topology so every key crosses at least one migration.
    start.wait();
    assert_eq!(cluster.add_controller().unwrap(), 3);
    assert_eq!(cluster.add_controller().unwrap(), 4);
    cluster.remove_controller(1).unwrap();
    cluster.remove_controller(0).unwrap();
    assert_eq!(cluster.partition_count(), 2);

    stop.store(true, Ordering::Relaxed);
    let probes = prober.join().expect("prober panicked");
    writer.join().expect("writer panicked");
    assert!(probes > 0, "prober never ran");
    // And after the churn the probe agrees with a real read on every key.
    for key in &keys {
        let (_, version) = cluster.get("prober", key, &[]).unwrap();
        assert_eq!(cluster.latest_version(key), Some(version), "{key}");
    }
}

/// Same churn, asynchronous writes: `put_async` acknowledges before the
/// drive write executes on a scheduler worker, so a topology swap must
/// flush the source's pending writes before any demand pull can export a
/// key — otherwise the late write recreates the key at the old owner and
/// a write reported `Completed` is silently lost. Every operation the
/// cluster reports `Completed` must therefore be durable across the
/// migrations, with the key resident exactly on its final owner.
#[test]
fn rebalance_never_loses_acknowledged_async_writes() {
    let cluster = Arc::new(ControllerCluster::new(ClusterConfig::native_simulator(2, 1)).unwrap());
    for w in 0..WRITERS {
        cluster.register_client(&format!("async-writer-{w}"));
    }

    let start = Arc::new(Barrier::new(WRITERS + 1));
    let mut writers = Vec::new();
    for w in 0..WRITERS {
        let cluster = Arc::clone(&cluster);
        let start = Arc::clone(&start);
        writers.push(std::thread::spawn(move || {
            let client = format!("async-writer-{w}");
            let mut expected: Vec<Vec<u8>> = vec![Vec::new(); KEYS_PER_WRITER];
            start.wait();
            for round in 0..ROUNDS {
                // One asynchronous put per key, then poll every operation
                // to a terminal state before the next round, so two writes
                // to the same key never race each other in the scheduler.
                let mut ops = Vec::with_capacity(KEYS_PER_WRITER);
                for k in 0..KEYS_PER_WRITER {
                    let key = format!("astress/w{w}/k{k}");
                    let value = format!("w{w}-k{k}-r{round}").into_bytes();
                    let op = cluster
                        .put_async(&client, &key, value.clone(), None, None, &[])
                        .unwrap_or_else(|e| panic!("writer {w} put_async {key}: {e}"));
                    ops.push((k, key, op, value));
                }
                for (k, key, op, value) in ops {
                    loop {
                        match cluster.poll_result(&client, op) {
                            Some(AsyncResult::Completed { .. }) => {
                                expected[k] = value;
                                break;
                            }
                            Some(AsyncResult::Pending) => std::thread::yield_now(),
                            Some(AsyncResult::Failed { reason }) => {
                                panic!("writer {w} async put {key} failed: {reason}")
                            }
                            None => panic!("writer {w} op {op} for {key} vanished"),
                        }
                    }
                }
            }
            expected
        }));
    }

    // Topology churn concurrent with the async traffic, including removal
    // of both original controllers so every key crosses a migration.
    start.wait();
    assert_eq!(cluster.add_controller().unwrap(), 3);
    assert_eq!(cluster.add_controller().unwrap(), 4);
    cluster.remove_controller(1).unwrap();
    cluster.remove_controller(0).unwrap();
    assert_eq!(cluster.partition_count(), 2);

    let expectations: Vec<Vec<Vec<u8>>> = writers
        .into_iter()
        .map(|h| h.join().expect("async writer panicked"))
        .collect();

    // Every acknowledged final value must be readable, and each key must
    // live exactly on its current owner — a key recreated at a stale
    // source by a late write would either read back an old round's value
    // or show up on a partition that no longer owns it.
    let controllers = cluster.controllers();
    for (w, expected) in expectations.iter().enumerate() {
        for (k, value) in expected.iter().enumerate() {
            let key = format!("astress/w{w}/k{k}");
            let (got, _) = cluster
                .get(&format!("async-writer-{w}"), &key, &[])
                .unwrap_or_else(|e| panic!("lost acknowledged async write {key}: {e}"));
            assert_eq!(&*got, value, "stale value for {key}");
            let holders: Vec<usize> = controllers
                .iter()
                .enumerate()
                .filter(|(_, c)| c.store().get_metadata(key.as_str()).is_some())
                .map(|(i, _)| i)
                .collect();
            assert_eq!(
                holders,
                vec![cluster.partition_of(&key)],
                "{key} not exactly on its owner"
            );
        }
    }
}
