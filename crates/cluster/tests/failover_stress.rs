//! Kill-and-promote stress: a replicated cluster keeps serving mixed
//! sync/async traffic with injected drive faults while a primary is
//! killed and a backup promoted, and no acknowledged write is ever lost.
//!
//! Each writer thread owns a disjoint slice of the key space and records
//! the last round it saw *acknowledged* (a sync `put` returning `Ok`, or
//! an async put polled to `Completed`). Writes may also fail visibly and
//! still land (torn replies, requests racing the kill), so the final
//! invariant is one-sided: every key must read back a value from a round
//! **at or after** the last acknowledged one. Anything older means an
//! acknowledged write was lost across the failover.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use pesos_cluster::{ClusterConfig, ControllerCluster};
use pesos_core::{AsyncResult, PesosError};
use pesos_kinetic::FaultPlan;

const SYNC_WRITERS: usize = 3;
const ASYNC_WRITERS: usize = 2;
const KEYS_PER_WRITER: usize = 12;

fn replicated(controllers: usize, backups: usize) -> Arc<ControllerCluster> {
    let mut config = ClusterConfig::native_simulator(controllers, 1);
    config.backups_per_partition = backups;
    Arc::new(ControllerCluster::new(config).unwrap())
}

fn round_of(value: &[u8]) -> u64 {
    let text = std::str::from_utf8(value).expect("writer values are UTF-8");
    let (_, round) = text.rsplit_once("-r").expect("writer values end in -r<N>");
    round.parse().expect("round is numeric")
}

/// A write that errored may still have landed; an acknowledged one must
/// never be older than recorded. `last_acked[k]` is `None` until the
/// writer's first ack for that key.
fn verify_no_acked_write_lost(
    cluster: &ControllerCluster,
    client: &str,
    prefix: &str,
    last_acked: &[Option<u64>],
) {
    for (k, acked) in last_acked.iter().enumerate() {
        let Some(acked_round) = acked else { continue };
        let key = format!("{prefix}/k{k}");
        let (value, _) = cluster
            .get(client, &key, &[])
            .unwrap_or_else(|e| panic!("acked key {key} unreadable after failover: {e}"));
        let got = round_of(&value);
        assert!(
            got >= *acked_round,
            "{key}: read back round {got}, but round {acked_round} was acknowledged"
        );
    }
}

#[test]
fn kill_and_promote_loses_no_acknowledged_write_under_faulty_mixed_traffic() {
    let cluster = replicated(2, 1);
    for w in 0..SYNC_WRITERS {
        cluster.register_client(&format!("sync-{w}"));
    }
    for w in 0..ASYNC_WRITERS {
        cluster.register_client(&format!("async-{w}"));
    }
    cluster.register_client("reader");
    cluster.register_client("tx-client");

    // Flaky primaries: a few percent of drive requests drop or tear, with
    // a deterministic per-drive sequence. Backups stay clean so the
    // promotion itself exercises the protocol, not drive repair.
    for (i, controller) in cluster.controllers().iter().enumerate() {
        for drive in controller.store().drives().iter() {
            drive.inject_faults(FaultPlan {
                seed: 0xFA11 + i as u64,
                error_rate: 0.03,
                torn_reply_rate: 0.03,
                latency: None,
            });
        }
    }

    // A cross-partition transaction committed before the kill: its only
    // primary-side outcome copy dies with the primary, so resolving it
    // after promotion proves the outcome map replicated.
    let tx = cluster.create_tx("tx-client").unwrap();
    cluster
        .add_write("tx-client", tx, "txa.one", b"tx-a".to_vec())
        .unwrap();
    cluster
        .add_write("tx-client", tx, "zjq.two", b"tx-b".to_vec())
        .unwrap();
    let committed = cluster.commit_tx("tx-client", tx).unwrap();

    let start = Arc::new(Barrier::new(SYNC_WRITERS + ASYNC_WRITERS + 2));
    let stop = Arc::new(AtomicBool::new(false));

    let mut sync_handles = Vec::new();
    for w in 0..SYNC_WRITERS {
        let cluster = Arc::clone(&cluster);
        let start = Arc::clone(&start);
        let stop = Arc::clone(&stop);
        sync_handles.push(std::thread::spawn(move || {
            let client = format!("sync-{w}");
            let mut last_acked: Vec<Option<u64>> = vec![None; KEYS_PER_WRITER];
            start.wait();
            let mut round = 0u64;
            while !stop.load(Ordering::Relaxed) {
                for (k, acked) in last_acked.iter_mut().enumerate() {
                    let key = format!("fstress/s{w}/k{k}");
                    let value = format!("s{w}-k{k}-r{round}").into_bytes();
                    // An Err means the write was never acknowledged (the
                    // primary is down or its drive faulted) — losing it
                    // loses nothing, so only Ok advances the record.
                    if cluster.put(&client, &key, value, None, None, &[]).is_ok() {
                        *acked = Some(round);
                    }
                }
                round += 1;
            }
            last_acked
        }));
    }

    let mut async_handles = Vec::new();
    for w in 0..ASYNC_WRITERS {
        let cluster = Arc::clone(&cluster);
        let start = Arc::clone(&start);
        let stop = Arc::clone(&stop);
        async_handles.push(std::thread::spawn(move || {
            let client = format!("async-{w}");
            let mut last_acked: Vec<Option<u64>> = vec![None; KEYS_PER_WRITER];
            start.wait();
            let mut round = 0u64;
            while !stop.load(Ordering::Relaxed) {
                // One in-flight op per key per round: the poll below keeps
                // two writes to one key from racing in the scheduler.
                let mut ops = Vec::with_capacity(KEYS_PER_WRITER);
                for k in 0..KEYS_PER_WRITER {
                    let key = format!("fstress/a{w}/k{k}");
                    let value = format!("a{w}-k{k}-r{round}").into_bytes();
                    if let Ok(op) = cluster.put_async(&client, &key, value, None, None, &[]) {
                        ops.push((k, op));
                    }
                }
                for (k, op) in ops {
                    loop {
                        match cluster.poll_result(&client, op) {
                            Some(AsyncResult::Completed { .. }) => {
                                last_acked[k] = Some(round);
                                break;
                            }
                            Some(AsyncResult::Pending) => std::thread::yield_now(),
                            // A drive fault failed the write after
                            // acceptance: visibly not acknowledged.
                            Some(AsyncResult::Failed { .. }) | None => break,
                        }
                    }
                }
                round += 1;
            }
            last_acked
        }));
    }

    // Reader: whatever it observes must parse as some writer's value; the
    // only acceptable errors are NotFound (not yet written) and
    // Unavailable (primary down, retries exhausted).
    let reader = {
        let cluster = Arc::clone(&cluster);
        let start = Arc::clone(&start);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            start.wait();
            let mut observed = 0usize;
            while !stop.load(Ordering::Relaxed) {
                for w in 0..SYNC_WRITERS {
                    for k in 0..KEYS_PER_WRITER {
                        match cluster.get("reader", &format!("fstress/s{w}/k{k}"), &[]) {
                            Ok((value, _)) => {
                                observed += 1;
                                round_of(&value);
                            }
                            Err(PesosError::ObjectNotFound(_))
                            | Err(PesosError::Unavailable(_))
                            | Err(PesosError::Backend(_)) => {}
                            Err(e) => panic!("reader: unexpected error {e}"),
                        }
                    }
                }
            }
            observed
        })
    };

    // Let traffic build, then kill partition 0's primary mid-flight and
    // promote its backup while the writers keep going.
    start.wait();
    std::thread::sleep(Duration::from_millis(150));
    cluster.kill_controller(0).unwrap();
    std::thread::sleep(Duration::from_millis(50));
    let promote_started = Instant::now();
    let promotion = cluster.fail_controller(0).unwrap();
    let time_to_promote = promote_started.elapsed();
    assert!(
        time_to_promote < Duration::from_secs(30),
        "promotion took {time_to_promote:?}"
    );
    // Traffic keeps flowing against the promoted backup for a while.
    std::thread::sleep(Duration::from_millis(150));

    stop.store(true, Ordering::Relaxed);
    let sync_acked: Vec<Vec<Option<u64>>> = sync_handles
        .into_iter()
        .map(|h| h.join().expect("sync writer panicked"))
        .collect();
    let async_acked: Vec<Vec<Option<u64>>> = async_handles
        .into_iter()
        .map(|h| h.join().expect("async writer panicked"))
        .collect();
    let observed = reader.join().expect("reader panicked");
    assert!(observed > 0, "reader never observed a value");
    drop(promotion);

    // Quiesce: finish scheduled async work and lift the fault plans so
    // verification reads hit clean drives.
    cluster.drain_async();
    for controller in cluster.controllers().iter() {
        for drive in controller.store().drives().iter() {
            drive.clear_faults();
        }
    }

    for (w, acked) in sync_acked.iter().enumerate() {
        verify_no_acked_write_lost(
            &cluster,
            &format!("sync-{w}"),
            &format!("fstress/s{w}"),
            acked,
        );
    }
    for (w, acked) in async_acked.iter().enumerate() {
        verify_no_acked_write_lost(
            &cluster,
            &format!("async-{w}"),
            &format!("fstress/a{w}"),
            acked,
        );
    }

    // The in-doubt transaction resolves from the promoted backup's
    // replicated outcome map, and its writes survived.
    let resolved = cluster.check_results("tx-client", tx).unwrap();
    assert_eq!(resolved.write_versions, committed.write_versions);
    let (a, _) = cluster.get("tx-client", "txa.one", &[]).unwrap();
    assert_eq!(&*a, b"tx-a");
    let (b, _) = cluster.get("tx-client", "zjq.two", &[]).unwrap();
    assert_eq!(&*b, b"tx-b");

    // The failover retried requests and the counters surfaced it.
    assert!(cluster.telemetry_snapshot(0).retries.request_retries > 0);
}

/// Replication degrades gracefully: with two backups, two successive
/// failovers of the same partition each promote cleanly; the third has
/// nobody left and fails with the typed error while the data stays
/// intact through both promotions.
#[test]
fn successive_failovers_exhaust_backups_with_a_typed_error() {
    let cluster = replicated(1, 2);
    cluster.register_client("alice");
    let keys: Vec<String> = (0..16).map(|i| format!("chain/{i}")).collect();
    for (i, key) in keys.iter().enumerate() {
        cluster
            .put("alice", key, format!("v{i}").into_bytes(), None, None, &[])
            .unwrap();
    }

    for round in 0..2 {
        cluster.kill_controller(0).unwrap();
        cluster.fail_controller(0).unwrap();
        for (i, key) in keys.iter().enumerate() {
            let (value, _) = cluster.get("alice", key, &[]).unwrap();
            assert_eq!(
                &*value,
                format!("v{i}").as_bytes(),
                "lost {key} in round {round}"
            );
        }
        // The promoted partition stays writable between failovers.
        cluster
            .put(
                "alice",
                &format!("fresh/{round}"),
                format!("post-failover-{round}").into_bytes(),
                None,
                None,
                &[],
            )
            .unwrap();
    }

    cluster.kill_controller(0).unwrap();
    assert!(matches!(
        cluster.fail_controller(0),
        Err(PesosError::Unavailable(_))
    ));
}
