//! Fault-injection coverage for the migration primitives: an injected
//! drive fault hitting `export_object`/`import_object` (directly, or via
//! a rebalance drain / demand pull) must leave the system in one of
//! exactly two states — the migration record still active with the key
//! fully reachable at the source, or the move cleanly complete at the
//! destination. Never a third state: no lost key, no visible-but-partial
//! copy, no wrong bytes.

use std::sync::Arc;

use pesos_cluster::{ClusterConfig, ControllerCluster};
use pesos_core::{ControllerConfig, PesosController, PesosError};
use pesos_kinetic::FaultPlan;

/// Direct export/import sweep across deterministic fault sequences: the
/// export either fails (source untouched) or produces a complete record;
/// the import either fails (destination shows nothing) or lands the whole
/// object. Atomicity is checked after every single attempt.
#[test]
fn export_import_is_all_or_nothing_under_drive_faults() {
    for seed in 0..12u64 {
        let src = PesosController::new(ControllerConfig::native_simulator(2)).unwrap();
        let dst = PesosController::new(ControllerConfig::native_simulator(2)).unwrap();
        src.register_client("alice");
        let key = format!("faulty/{seed}");
        // A few versions so a torn export would be visibly incomplete.
        for v in 0..3u64 {
            src.put(
                "alice",
                key.as_str(),
                format!("{key}-v{v}").into_bytes(),
                None,
                None,
                &[],
            )
            .unwrap();
        }

        let plan = FaultPlan {
            seed,
            error_rate: 0.4,
            torn_reply_rate: 0.3,
            latency: None,
        };
        for drive in src.store().drives().iter() {
            drive.inject_faults(plan);
        }
        for drive in dst.store().drives().iter() {
            drive.inject_faults(plan);
        }

        let mut imported = false;
        for _ in 0..8 {
            match src.store().export_object(key.as_str()) {
                Ok(Some(export)) => {
                    // A successful export is complete: every version, in
                    // order, with the bytes that were written.
                    assert_eq!(export.versions.len(), 3, "seed {seed}: partial export");
                    for (v, plain) in &export.versions {
                        assert_eq!(plain, &format!("{key}-v{v}").into_bytes(), "seed {seed}");
                    }
                    match dst.store().import_object(&export) {
                        Ok(()) => {
                            imported = true;
                            break;
                        }
                        Err(_) => {
                            // A failed import must not leave a *visible*
                            // object: either no metadata at all, or a
                            // record whose every version is readable once
                            // faults lift (retried import below).
                        }
                    }
                }
                Ok(None) => panic!("seed {seed}: existing key exported as None"),
                Err(_) => {
                    // Export failed: the source object must be intact.
                }
            }
        }

        for drive in src.store().drives().iter() {
            drive.clear_faults();
        }
        for drive in dst.store().drives().iter() {
            drive.clear_faults();
        }

        // Source survived every faulty attempt with all versions intact.
        let clean = src.store().export_object(key.as_str()).unwrap().unwrap();
        assert_eq!(
            clean.versions.len(),
            3,
            "seed {seed}: source lost a version"
        );

        // With faults lifted the import completes, and the destination
        // now serves the full history — a partial earlier import must
        // have been invisible or fully overwritten, never half-served.
        if !imported {
            dst.store().import_object(&clean).unwrap();
        }
        dst.register_client("alice");
        for v in 0..3u64 {
            let value = dst.get_version("alice", key.as_str(), v, &[]).unwrap();
            assert_eq!(value, format!("{key}-v{v}").into_bytes(), "seed {seed}");
        }
    }
}

/// End-to-end: a rebalance drain over faulty drives. Whatever mix of
/// export failures, torn replies and import failures the seed produces,
/// every key stays continuously reachable through the cluster (demand
/// pull covers keys whose move is still pending), and once faults lift
/// and pending migrations settle, each key sits exactly on its owner
/// with the written value.
#[test]
fn faulty_drain_leaves_keys_reachable_or_cleanly_moved() {
    const KEYS: usize = 24;
    for seed in [3u64, 17, 40] {
        let cluster =
            Arc::new(ControllerCluster::new(ClusterConfig::native_simulator(2, 1)).unwrap());
        cluster.register_client("alice");
        let keys: Vec<String> = (0..KEYS).map(|i| format!("drain{i}/obj")).collect();
        for key in &keys {
            cluster
                .put(
                    "alice",
                    key,
                    format!("{key}-payload").into_bytes(),
                    None,
                    None,
                    &[],
                )
                .unwrap();
        }

        for (i, controller) in cluster.controllers().iter().enumerate() {
            for drive in controller.store().drives().iter() {
                drive.inject_faults(FaultPlan {
                    seed: seed + i as u64,
                    error_rate: 0.15,
                    torn_reply_rate: 0.15,
                    latency: None,
                });
            }
        }

        // The drain may fail partway (leaving a pending migration) or
        // squeak through on retries; both are legal.
        let grew = cluster.add_controller().is_ok();

        // Mid-migration, with faults still firing: every key must be
        // reachable — transient drive errors are fine, a NotFound is the
        // forbidden third state (a key neither at src nor importable).
        for key in &keys {
            let mut last_err = None;
            let mut seen = false;
            for _ in 0..16 {
                match cluster.get("alice", key, &[]) {
                    Ok((value, _)) => {
                        assert_eq!(
                            &*value,
                            format!("{key}-payload").as_bytes(),
                            "seed {seed}: wrong bytes under faults"
                        );
                        seen = true;
                        break;
                    }
                    Err(PesosError::ObjectNotFound(_)) => {
                        panic!("seed {seed}: key {key} vanished mid-migration (grew={grew})")
                    }
                    Err(e) => last_err = Some(e),
                }
            }
            assert!(
                seen,
                "seed {seed}: key {key} unreadable after 16 attempts: {last_err:?}"
            );
        }

        for controller in cluster.controllers().iter() {
            for drive in controller.store().drives().iter() {
                drive.clear_faults();
            }
        }
        cluster.settle_pending_migrations().unwrap();

        // Settled state: value intact and resident exactly on the owner.
        let controllers = cluster.controllers();
        for key in &keys {
            let (value, _) = cluster.get("alice", key, &[]).unwrap();
            assert_eq!(&*value, format!("{key}-payload").as_bytes());
            let holders: Vec<usize> = controllers
                .iter()
                .enumerate()
                .filter(|(_, c)| c.store().get_metadata(key.as_str()).is_some())
                .map(|(i, _)| i)
                .collect();
            assert_eq!(
                holders,
                vec![cluster.partition_of(key)],
                "seed {seed}: {key} not exactly on its owner"
            );
        }
    }
}

/// Drain checkpointing: a drain interrupted by drive faults records every
/// placement group it completed in the migration's settled-group memo,
/// and the retry skips those groups instead of re-driving them — visible
/// as a nonzero `drain_group_skips` telemetry reading. The memo never
/// overrides the drive-authoritative listing, so the final placement is
/// still exact: every key ends up on its owner and nowhere else.
#[test]
fn interrupted_drain_checkpoints_settled_groups_for_the_retry() {
    const GROUPS: usize = 32;
    let cluster = Arc::new(ControllerCluster::new(ClusterConfig::native_simulator(2, 1)).unwrap());
    cluster.register_client("alice");
    let keys: Vec<String> = (0..GROUPS)
        .flat_map(|i| ["a", "b"].map(|m| format!("ckpt{i}.{m}")))
        .collect();
    for key in &keys {
        cluster
            .put(
                "alice",
                key,
                format!("{key}-payload").into_bytes(),
                None,
                None,
                &[],
            )
            .unwrap();
    }

    // Error-only faults: pulls fail on export/import errors and the drain
    // retries, re-driving only what the previous attempt left unsettled.
    // A pull is a handful of drive exchanges (import and delete are one
    // batch each), and the parallel drain draws faults in thread order, so
    // the rate and group count are chosen for the *shape* to be certain —
    // some groups settle, some pull fails, a later pass runs — not for a
    // particular sequence (12 seeds measured 6..49 skips).
    for (i, controller) in cluster.controllers().iter().enumerate() {
        for drive in controller.store().drives().iter() {
            drive.inject_faults(FaultPlan {
                seed: 7 + i as u64,
                error_rate: 0.25,
                torn_reply_rate: 0.0,
                latency: None,
            });
        }
    }
    // The grow fails partway, leaving the migration pending; each faulty
    // settle attempt is one drain pass that checkpoints whatever groups
    // it completed before the fault stopped it, so later passes run
    // against a non-empty memo.
    let _ = cluster.add_controller();
    for _ in 0..6 {
        if cluster.settle_pending_migrations().is_ok() {
            break;
        }
    }
    for controller in cluster.controllers().iter() {
        for drive in controller.store().drives().iter() {
            drive.clear_faults();
        }
    }
    cluster.settle_pending_migrations().unwrap();

    let stats = cluster.stats_tree(4);
    assert_eq!(
        stats.u64_at("migrations/active"),
        Some(0),
        "migration should have settled"
    );
    assert!(
        stats.u64_at("migrations/drain_group_skips").unwrap() > 0,
        "retried drain should have skipped checkpointed groups"
    );

    // Checkpoint skipping saved work, not correctness: exact placement.
    let controllers = cluster.controllers();
    for key in &keys {
        let (value, _) = cluster.get("alice", key, &[]).unwrap();
        assert_eq!(&*value, format!("{key}-payload").as_bytes());
        let holders: Vec<usize> = controllers
            .iter()
            .enumerate()
            .filter(|(_, c)| c.store().get_metadata(key.as_str()).is_some())
            .map(|(i, _)| i)
            .collect();
        assert_eq!(
            holders,
            vec![cluster.partition_of(key)],
            "{key} not exactly on its owner"
        );
    }
}

/// A torn *batch* reply: the drive commits the whole put — sealed object
/// and metadata record, atomically — and then reports failure. The put
/// must fail, the controller's in-enclave map must not advance on the
/// strength of a write it was told did not happen, and the next put and
/// get must converge on what the drive holds, with every acknowledged
/// write still readable.
#[test]
fn torn_batch_reply_fails_the_put_and_the_next_request_converges() {
    let fresh = || {
        let c = PesosController::new(ControllerConfig::native_simulator(1)).unwrap();
        c.register_client("alice");
        c
    };
    let drive_of = |c: &PesosController| Arc::clone(c.store().drives().get(0).unwrap());
    let put =
        |c: &PesosController, key: &str, value: &[u8]| c.put("alice", key, value, None, None, &[]);
    let latest_on_drive = |c: &PesosController, key: &str| {
        let record = drive_of(c).peek(&pesos_core::metadata::meta_key(key))?;
        let meta = pesos_core::ObjectMetadata::from_bytes(&record.value).unwrap();
        Some(meta.latest_version)
    };

    // -- an update (warm map: the put is exactly one batch exchange) -----
    let c = fresh();
    assert_eq!(put(&c, "doc", b"acked v0").unwrap(), 0);
    drive_of(&c).inject_faults(FaultPlan::torn_replies(1, 1.0));
    assert!(put(&c, "doc", b"torn v1").is_err());
    drive_of(&c).clear_faults();
    // The batch landed whole on the drive...
    assert_eq!(latest_on_drive(&c, "doc"), Some(1));
    // ...but the controller still stands on the last acknowledged state.
    assert_eq!(c.store().get_metadata("doc").unwrap().latest_version, 0);
    assert_eq!(&*c.get("alice", "doc", &[]).unwrap().0, b"acked v0");
    // The next put takes the version the torn one was refused, and from
    // then on map and drive agree.
    assert_eq!(put(&c, "doc", b"acked v1").unwrap(), 1);
    assert_eq!(latest_on_drive(&c, "doc"), Some(1));
    assert_eq!(&*c.get("alice", "doc", &[]).unwrap().0, b"acked v1");
    assert_eq!(c.get_version("alice", "doc", 0, &[]).unwrap(), b"acked v0");

    // -- a create (cold map: the put is one compare-on-absent batch) -----
    let c = fresh();
    drive_of(&c).inject_faults(FaultPlan::torn_replies(1, 1.0));
    assert!(put(&c, "new", b"torn v0").is_err());
    drive_of(&c).clear_faults();
    assert_eq!(latest_on_drive(&c, "new"), Some(0));
    // Nothing was acknowledged, so nothing may be cached as present. The
    // retry is a create again; the drive refuses it, and the put continues
    // over the version the torn one left.
    assert_eq!(c.store().resident_object_count(), 0);
    assert_eq!(put(&c, "new", b"acked v1").unwrap(), 1);
    assert_eq!(c.store().create_stats().refusals, 1);
    assert_eq!(&*c.get("alice", "new", &[]).unwrap().0, b"acked v1");
    assert_eq!(c.get_version("alice", "new", 0, &[]).unwrap(), b"torn v0");
    assert_eq!(latest_on_drive(&c, "new"), Some(1));
}

/// A backup writes the batches its primary's drives accepted: replication
/// costs each backup drive at most one batch per create (a shipper packs
/// the records of one wake-up into shared batches) and not one read, and
/// nothing is refused while the primaries serve. A promoted backup is a
/// cold controller over those drives: its first write of each key is
/// refused as a create, re-reads the record and continues at latest + 1.
#[test]
fn backups_create_without_asking_and_a_promotion_continues_over_them() {
    const KEYS: usize = 24;
    let mut config = ClusterConfig::native_simulator(2, 1);
    config.backups_per_partition = 1;
    let cluster = ControllerCluster::new(config).unwrap();
    cluster.register_client("alice");
    let key = |i: usize| format!("cold{i}.obj");
    // (GETs, batches) served by all of a controller set's drives.
    let drive_ops = |controllers: &[Arc<PesosController>]| {
        controllers
            .iter()
            .flat_map(|c| c.store().drives().iter().map(|d| d.info().stats))
            .fold((0, 0), |acc, s| (acc.0 + s.gets, acc.1 + s.puts))
    };
    let refusals = |controllers: &[Arc<PesosController>]| -> u64 {
        controllers
            .iter()
            .map(|c| c.store().create_stats().refusals)
            .sum()
    };

    let primaries = cluster.controllers();
    let before = drive_ops(&primaries);
    for i in 0..KEYS {
        let version = cluster.put("alice", &key(i), b"v0", None, None, &[]);
        assert_eq!(version.unwrap(), 0);
    }
    assert_eq!(drive_ops(&primaries), (before.0, before.1 + KEYS as u64));

    // Kill both primaries; the promotion replays whatever tail the
    // shippers had not delivered, so the promoted backups hold every key.
    for partition in 0..2 {
        cluster.fail_controller(partition).unwrap();
    }
    let promoted = cluster.controllers();
    assert!(promoted
        .iter()
        .all(|p| primaries.iter().all(|old| !Arc::ptr_eq(p, old))));
    // The backups never read, and packed the creates into shared batches
    // of whole records: at least one drive batch, at most one per create.
    let (gets, batches) = drive_ops(&promoted);
    assert_eq!(gets, before.0);
    assert!(
        (before.1 + 1..=before.1 + KEYS as u64).contains(&batches),
        "{batches} batches for {KEYS} creates"
    );
    assert_eq!(refusals(&primaries) + refusals(&promoted), 0);

    for i in 0..KEYS {
        let version = cluster.put("alice", &key(i), b"v1", None, None, &[]);
        assert_eq!(version.unwrap(), 1, "{}", key(i));
        assert_eq!(
            cluster.get_version("alice", &key(i), 0, &[]).unwrap(),
            b"v0"
        );
    }
    assert_eq!(refusals(&promoted), KEYS as u64);
    let rollbacks: u64 = promoted
        .iter()
        .map(|c| c.store().create_stats().rollbacks)
        .sum();
    assert_eq!(rollbacks, 0);
}
