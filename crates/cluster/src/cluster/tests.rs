#![cfg(test)]
//! Unit tests of the cluster layer, across its sub-modules.

use std::collections::BTreeSet;
use std::sync::Arc;

use pesos_core::{AsyncResult, ClientRequest, PesosError};
use pesos_telemetry::StatsNode;
use pesos_wire::{RestMethod, RestRequest, RestStatus};

use super::routing::RETRY_ATTEMPTS;
use super::*;

fn cluster(controllers: usize) -> ControllerCluster {
    ControllerCluster::new(ClusterConfig::native_simulator(controllers, 1)).unwrap()
}

fn replicated_cluster(controllers: usize, backups: usize) -> ControllerCluster {
    let mut config = ClusterConfig::native_simulator(controllers, 1);
    config.backups_per_partition = backups;
    ControllerCluster::new(config).unwrap()
}

/// Two keys under `prefix` guaranteed to live on different partitions.
fn keys_on_two_partitions(c: &ControllerCluster, prefix: &str) -> (String, String) {
    let first = format!("{prefix}/0");
    let other = (1..64)
        .map(|i| format!("{prefix}/{i}"))
        .find(|key| c.partition_of(key) != c.partition_of(&first))
        .expect("two partitions");
    (first, other)
}

/// The rebalancer's load weight, from the snapshot the operator reads.
fn weight(partition: &stats::PartitionTelemetry) -> u64 {
    partition.resident_objects as u64 + partition.requests
}

#[test]
fn basic_ops_route_by_key_hash() {
    let c = cluster(4);
    c.register_client("alice");
    let keys: Vec<String> = (0..64).map(|i| format!("obj/{i}")).collect();
    for (i, key) in keys.iter().enumerate() {
        let v = c
            .put(
                "alice",
                key,
                format!("value-{i}").into_bytes(),
                None,
                None,
                &[],
            )
            .unwrap();
        assert_eq!(v, 0);
    }
    for (i, key) in keys.iter().enumerate() {
        let (value, version) = c.get("alice", key, &[]).unwrap();
        assert_eq!(&**value, format!("value-{i}").as_bytes());
        assert_eq!(version, 0);
    }
    // The keys really spread over several partitions, and each lives
    // only on its owning controller's drives.
    let mut populated = BTreeSet::new();
    for key in &keys {
        populated.insert(c.partition_of(key));
    }
    assert!(populated.len() >= 2, "keys all hashed to one partition");
    let controllers = c.controllers();
    for key in &keys {
        let owner = c.partition_of(key);
        for (i, controller) in controllers.iter().enumerate() {
            let present = controller.store().get_metadata(key.as_str()).is_some();
            assert_eq!(present, i == owner, "key {key} misplaced on partition {i}");
        }
    }
    // Deletes route the same way.
    c.delete("alice", &keys[0], &[]).unwrap();
    assert!(c.get("alice", &keys[0], &[]).is_err());
}

#[test]
fn unregistered_clients_are_rejected_everywhere() {
    let c = cluster(2);
    assert!(matches!(
        c.put("ghost", "k", vec![], None, None, &[]),
        Err(PesosError::NoSession(_))
    ));
    assert!(matches!(
        c.create_tx("ghost"),
        Err(PesosError::NoSession(_))
    ));
}

#[test]
fn policies_broadcast_and_enforce_on_every_partition() {
    let c = cluster(3);
    c.register_client("alice");
    c.register_client("eve");
    let acl = c
        .put_policy(
            "alice",
            "read :- sessionKeyIs(\"alice\")\nupdate :- sessionKeyIs(\"alice\")\ndelete :- sessionKeyIs(\"alice\")",
        )
        .unwrap();
    // Enough keys that several partitions hold policy-protected objects.
    for i in 0..24 {
        c.put(
            "alice",
            &format!("doc/{i}"),
            b"secret",
            Some(acl),
            None,
            &[],
        )
        .unwrap();
    }
    for i in 0..24 {
        assert!(c.get("alice", &format!("doc/{i}"), &[]).is_ok());
        assert!(matches!(
            c.get("eve", &format!("doc/{i}"), &[]),
            Err(PesosError::PolicyDenied(_))
        ));
    }
}

#[test]
fn cross_partition_transaction_commits_atomically() {
    let c = cluster(4);
    c.register_client("alice");
    let (a, b) = keys_on_two_partitions(&c, "acct");
    c.put("alice", &a, b"100", None, None, &[]).unwrap();
    c.put("alice", &b, b"0", None, None, &[]).unwrap();

    let tx = c.create_tx("alice").unwrap();
    // Dense ids from 1: no controller numbers transactions of its own.
    assert_eq!(tx, 1);
    c.add_read("alice", tx, &a).unwrap();
    c.add_write("alice", tx, &a, b"50".to_vec()).unwrap();
    c.add_write("alice", tx, &b, b"50".to_vec()).unwrap();
    let outcome = c.commit_tx("alice", tx).unwrap();
    assert_eq!(outcome.read_values, vec![b"100".to_vec()]);
    assert_eq!(outcome.write_versions.len(), 2);
    assert_eq!(&**c.get("alice", &a, &[]).unwrap().0, b"50");
    assert_eq!(&**c.get("alice", &b, &[]).unwrap().0, b"50");
    // The outcome is retained and queryable from the cluster.
    assert_eq!(c.check_results("alice", tx).unwrap(), outcome);
    assert_eq!(c.open_tx_count(), 0);
}

#[test]
fn cross_partition_transaction_aborts_atomically_on_policy_rejection() {
    let c = cluster(4);
    c.register_client("alice");
    c.register_client("bob");
    let acl = c
        .put_policy(
            "alice",
            "read :- sessionKeyIs(\"alice\")\nupdate :- sessionKeyIs(\"alice\")\ndelete :- sessionKeyIs(\"alice\")",
        )
        .unwrap();
    // One open key and one alice-only key on different partitions.
    let (open_key, locked_key) = keys_on_two_partitions(&c, "mix");
    c.put("bob", &open_key, b"v0", None, None, &[]).unwrap();
    c.put("alice", &locked_key, b"v0", Some(acl), None, &[])
        .unwrap();

    // Bob's transaction touches both; the locked partition's policy
    // rejects it, and the open partition must not have written either.
    let tx = c.create_tx("bob").unwrap();
    c.add_write("bob", tx, &open_key, b"dirty".to_vec())
        .unwrap();
    c.add_write("bob", tx, &locked_key, b"dirty".to_vec())
        .unwrap();
    assert!(matches!(
        c.commit_tx("bob", tx),
        Err(PesosError::PolicyDenied(_))
    ));
    assert_eq!(&**c.get("bob", &open_key, &[]).unwrap().0, b"v0");
    assert_eq!(&**c.get("alice", &locked_key, &[]).unwrap().0, b"v0");
    assert!(c.check_results("bob", tx).is_err());
    // The partitions stay fully usable after the abort (locks freed).
    c.put("bob", &open_key, b"v1", None, None, &[]).unwrap();
    c.put("alice", &locked_key, b"v1", None, None, &[]).unwrap();
}

#[test]
fn load_window_restarts_at_every_topology_change() {
    let c = cluster(2);
    c.register_client("alice");
    for i in 0..24 {
        c.put("alice", &format!("win/{i}"), b"x", None, None, &[])
            .unwrap();
    }
    let loads = || c.telemetry_snapshot(0).partitions;
    assert!(loads().iter().any(|l| l.requests > 0));
    // A topology change snapshots the counters: the next decision must
    // weigh traffic served after it, not lifetime history (a long-idle
    // but formerly hot partition would otherwise attract every split).
    c.add_controller().unwrap();
    assert!(
        loads().iter().all(|l| l.requests == 0),
        "request window did not restart at the topology change"
    );
    // Fresh traffic counts again, against the new baseline.
    let (_, _) = c.get("alice", "win/0", &[]).unwrap();
    assert!(loads().iter().any(|l| l.requests > 0));
    // Resident counts are unaffected by the windowing.
    let resident: usize = loads().iter().map(|l| l.resident_objects).sum();
    assert_eq!(resident, 24);
}

#[test]
fn empty_transaction_commit_is_still_queryable() {
    let c = cluster(2);
    c.register_client("alice");
    let tx = c.create_tx("alice").unwrap();
    let outcome = c.commit_tx("alice", tx).unwrap();
    assert!(outcome.read_values.is_empty());
    assert!(outcome.write_versions.is_empty());
    assert_eq!(c.check_results("alice", tx).unwrap(), outcome);
}

#[test]
fn a_cross_partition_commit_spends_one_outcome_slot_per_participant() {
    // One shard per store: TX_OUTCOME_CAPACITY commits across both
    // partitions fill each participant's map exactly once over.
    let c = ControllerCluster::new(ClusterConfig::with_controller(
        2,
        ControllerConfig {
            lock_shards: 1,
            ..ControllerConfig::native_simulator(1)
        },
    ))
    .unwrap();
    c.register_client("alice");
    let (a, b) = keys_on_two_partitions(&c, "slot");
    let mut ids = Vec::new();
    for i in 0..pesos_core::TX_OUTCOME_CAPACITY {
        let tx = c.create_tx("alice").unwrap();
        c.add_write("alice", tx, &a, i.to_be_bytes().to_vec())
            .unwrap();
        c.add_write("alice", tx, &b, i.to_be_bytes().to_vec())
            .unwrap();
        c.commit_tx("alice", tx).unwrap();
        ids.push(tx);
    }
    for tx in &ids {
        assert!(c.check_results("alice", *tx).is_ok(), "tx {tx:#x} evicted");
    }
    for controller in c.controllers() {
        let store = controller.store();
        assert!(ids.iter().all(|tx| store.tx_outcome(*tx).is_some()));
    }
}

#[test]
fn async_puts_poll_through_cluster_scoped_ids() {
    let c = cluster(3);
    c.register_client("alice");
    let op = c
        .put_async("alice", "async/1", b"payload".to_vec(), None, None, &[])
        .unwrap();
    c.drain_async();
    match c.poll_result("alice", op) {
        Some(AsyncResult::Completed { version }) => assert_eq!(version, Some(0)),
        other => panic!("unexpected async result {other:?}"),
    }
    // Scoped per client, like the controller's result buffer.
    assert!(c.poll_result("bob", op).is_none());
    assert_eq!(&**c.get("alice", "async/1", &[]).unwrap().0, b"payload");
}

/// The first key `<prefix>/<i>` (`i < 64`) that routes to `partition`.
fn key_on(c: &ControllerCluster, prefix: &str, partition: usize) -> String {
    (0..64)
        .map(|i| format!("{prefix}/{i}"))
        .find(|key| c.partition_of(key) == partition)
        .expect("a key on the partition")
}

/// Waits (at most ten seconds) for the host pool to run `threads` threads.
fn pool_settles_at(c: &ControllerCluster, threads: usize) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while c.host_pool_stats().threads != threads {
        assert!(
            std::time::Instant::now() < deadline,
            "pool kept {} threads, expected {threads}",
            c.host_pool_stats().threads
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
}

/// A session ages on the requests of every partition: a get on partition
/// 0 keeps alice's session alive for partition 1 too.
#[test]
fn a_request_on_one_partition_keeps_the_session_alive_on_all() {
    let c = cluster(2);
    c.register_client("alice");
    let (first, second) = (key_on(&c, "alive", 0), key_on(&c, "alive", 1));
    for key in [&first, &second] {
        c.put("alice", key, b"v", None, None, &[]).unwrap();
    }
    c.set_time(500);
    c.get("alice", &first, &[]).unwrap();
    c.set_time(700);
    assert_eq!(c.expire_sessions(), 0);
    assert_eq!(&**c.get("alice", &second, &[]).unwrap().0, b"v");
}

/// An async result outlives the controller that filed it, and holds
/// nothing of it: once a member leaves, the pool gives its threads back.
#[test]
fn an_async_result_polls_after_its_controller_leaves_and_pins_nothing() {
    let c = ControllerCluster::new(ClusterConfig::sgx_simulator(1, 1)).unwrap();
    let start = c.host_pool_stats().threads;
    c.register_client("alice");
    c.add_controller().unwrap();
    let ops: Vec<u64> = (0..64)
        .map(|i| format!("k{i}"))
        .filter(|key| c.partition_of(key) == 1)
        .map(|key| {
            c.put_async("alice", &key, b"v".to_vec(), None, None, &[])
                .unwrap()
        })
        .collect();
    assert!(!ops.is_empty());
    c.drain_async();
    c.remove_controller(1).unwrap();
    pool_settles_at(&c, start);
    assert!(matches!(
        c.poll_result("alice", ops[0]),
        Some(AsyncResult::Completed { .. })
    ));
}

/// A promotion brings nothing of the clients' state across: the promoted
/// controller already holds it. The clock stands, a client registered
/// before the failure is served, an async op the failed primary accepted
/// polls its end, and the failed member's threads go back to the pool.
#[test]
fn a_promotion_keeps_the_clock_sessions_and_async_results() {
    let mut config = ClusterConfig::sgx_simulator(2, 1);
    config.backups_per_partition = 1;
    let per_member = config.controller.syscall_threads;
    let c = ControllerCluster::new(config).unwrap();
    let start = c.host_pool_stats().threads;
    c.register_client("alice");
    c.set_time(500);
    let key = key_on(&c, "promoted", 0);
    let op = c
        .put_async("alice", &key, b"v0".to_vec(), None, None, &[])
        .unwrap();
    c.kill_controller(0).unwrap();
    c.fail_controller(0).unwrap();
    assert_eq!(c.now(), 500);
    assert!(matches!(
        c.poll_result("alice", op),
        Some(AsyncResult::Completed { .. } | AsyncResult::Failed { .. })
    ));
    c.put("alice", &key, b"v1", None, None, &[]).unwrap();
    assert_eq!(&**c.get("alice", &key, &[]).unwrap().0, b"v1");
    pool_settles_at(&c, start - per_member);
}

#[test]
fn add_controller_splits_and_migrates_only_the_moved_range() {
    let c = cluster(2);
    c.register_client("alice");
    let keys: Vec<String> = (0..96).map(|i| format!("grow/{i}")).collect();
    for key in &keys {
        c.put("alice", key, key.clone().into_bytes(), None, None, &[])
            .unwrap();
    }
    assert_eq!(c.add_controller().unwrap(), 3);
    // Every key is still readable and lives exactly on its (possibly
    // new) owner.
    let controllers = c.controllers();
    for key in &keys {
        assert_eq!(&**c.get("alice", key, &[]).unwrap().0, key.as_bytes());
        let owner = c.partition_of(key);
        for (i, controller) in controllers.iter().enumerate() {
            let present = controller.store().get_metadata(key.as_str()).is_some();
            assert_eq!(present, i == owner, "key {key} misplaced after rebalance");
        }
    }
    // The new partition actually owns keys (the widest range split).
    let new_partition_keys = keys
        .iter()
        .filter(|k| {
            Arc::ptr_eq(
                &controllers[c.partition_of(k)],
                controllers.last().expect("three partitions"),
            ) || c.partition_of(k) == 2
        })
        .count();
    assert!(new_partition_keys > 0, "split moved no keys");
    // Version history survives the migration.
    c.put("alice", &keys[0], b"v1", None, None, &[]).unwrap();
    assert_eq!(c.get("alice", &keys[0], &[]).unwrap().1, 1);
}

#[test]
fn remove_controller_merges_and_loses_nothing() {
    let c = cluster(3);
    c.register_client("alice");
    let acl = c
        .put_policy(
            "alice",
            "read :- sessionKeyIs(\"alice\")\nupdate :- sessionKeyIs(U)\ndelete :- sessionKeyIs(U)",
        )
        .unwrap();
    let keys: Vec<String> = (0..96).map(|i| format!("shrink/{i}")).collect();
    for key in &keys {
        c.put("alice", key, key.clone().into_bytes(), Some(acl), None, &[])
            .unwrap();
    }
    c.remove_controller(1).unwrap();
    assert_eq!(c.partition_count(), 2);
    for key in &keys {
        assert_eq!(&**c.get("alice", key, &[]).unwrap().0, key.as_bytes());
    }
    // Policy enforcement survives the merge (the absorber can resolve
    // the policy for migrated objects).
    c.register_client("eve");
    for key in keys.iter().take(8) {
        assert!(matches!(
            c.get("eve", key, &[]),
            Err(PesosError::PolicyDenied(_))
        ));
    }
    // Removing down to one partition works; removing the last fails.
    c.remove_controller(1).unwrap();
    assert_eq!(c.partition_count(), 1);
    assert!(c.remove_controller(0).is_err());
    assert!(c.remove_controller(7).is_err());
    for key in &keys {
        assert_eq!(&**c.get("alice", key, &[]).unwrap().0, key.as_bytes());
    }
}

#[test]
fn an_expired_client_is_refused_on_every_partition_joiners_included() {
    let c = cluster(2);
    c.register_client("alice");
    c.set_time(0);
    c.put("alice", "pre/expiry", b"x", None, None, &[]).unwrap();
    // Advance past the session expiry and expire.
    c.set_time(100_000);
    assert_eq!(c.expire_sessions(), 1);
    // The cluster layer no longer admits the expired client...
    assert!(matches!(
        c.create_tx("alice"),
        Err(PesosError::NoSession(_))
    ));
    // ...and neither does any partition, old or new: a joining controller
    // holds the cluster's one session table, so it rejects the client
    // too until re-registration.
    c.add_controller().unwrap();
    for i in 0..32 {
        assert!(matches!(
            c.put("alice", &format!("post/{i}"), b"x", None, None, &[]),
            Err(PesosError::NoSession(_))
        ));
    }
    // Re-registering restores service on every partition.
    c.register_client("alice");
    for i in 0..32 {
        c.put("alice", &format!("back/{i}"), b"x", None, None, &[])
            .unwrap();
    }
}

#[test]
fn policies_survive_removal_of_every_original_holder() {
    // Install a policy on a one-partition cluster, join a controller
    // *after* the install, then remove the original holder: the
    // promoted joiner must still serve, attach and enforce the policy
    // (it receives the full installed set at join time).
    let c = cluster(1);
    c.register_client("alice");
    c.register_client("eve");
    let acl = c
        .put_policy(
            "alice",
            "read :- sessionKeyIs(\"alice\")\nupdate :- sessionKeyIs(\"alice\")\ndelete :- sessionKeyIs(\"alice\")",
        )
        .unwrap();
    c.add_controller().unwrap();
    c.remove_controller(0).unwrap();
    assert_eq!(c.partition_count(), 1);
    // GetPolicy reads from partition 0 — now the joiner.
    let resp = c.handle(
        "alice",
        ClientRequest::new(RestRequest::new(RestMethod::GetPolicy, acl.to_hex())),
    );
    assert_eq!(resp.status, RestStatus::Ok);
    c.put("alice", "late/doc", b"secret", Some(acl), None, &[])
        .unwrap();
    assert!(matches!(
        c.get("eve", "late/doc", &[]),
        Err(PesosError::PolicyDenied(_))
    ));
}

#[test]
fn a_joining_controller_serves_registered_clients_at_the_cluster_clock() {
    let c = cluster(1);
    c.register_client("alice");
    c.set_time(500);
    c.add_controller().unwrap();
    assert_eq!(c.now(), 500);
    // Alice can operate on keys owned by the new partition without
    // re-registering: the joiner holds the cluster's session table.
    for i in 0..32 {
        c.put("alice", &format!("post-join/{i}"), b"x", None, None, &[])
            .unwrap();
    }
    let second = &c.controllers()[1];
    assert!(
        (0..32).any(|i| second
            .store()
            .get_metadata(format!("post-join/{i}").as_str())
            .is_some()),
        "no key landed on the joined partition"
    );
}

#[test]
fn rest_dispatch_routes_through_the_cluster() {
    let c = cluster(3);
    c.register_client("alice");

    let resp = c.handle(
        "alice",
        ClientRequest::new(RestRequest {
            method: RestMethod::PutPolicy,
            key: "acl".into(),
            value: b"read :- sessionKeyIs(\"alice\")\nupdate :- sessionKeyIs(\"alice\")\ndelete :- sessionKeyIs(\"alice\")".to_vec(),
            policy_id: None,
            asynchronous: false,
            tx_id: None,
            expected_version: None,
        }),
    );
    assert_eq!(resp.status, RestStatus::Ok);
    let policy_hex = String::from_utf8(resp.value).unwrap();

    let resp = c.handle(
        "alice",
        ClientRequest::new(
            RestRequest::put("users/alice", b"profile".to_vec()).with_policy(policy_hex.clone()),
        ),
    );
    assert_eq!(resp.status, RestStatus::Ok);
    assert_eq!(resp.version, Some(0));

    let resp = c.handle("alice", ClientRequest::new(RestRequest::get("users/alice")));
    assert_eq!(resp.status, RestStatus::Ok);
    assert_eq!(resp.value, b"profile");

    // The policy read comes back from any partition.
    let resp = c.handle(
        "alice",
        ClientRequest::new(RestRequest::new(RestMethod::GetPolicy, policy_hex)),
    );
    assert_eq!(resp.status, RestStatus::Ok);

    // Unauthorized client is denied by the owning partition.
    c.register_client("eve");
    let resp = c.handle("eve", ClientRequest::new(RestRequest::get("users/alice")));
    assert_eq!(resp.status, RestStatus::PolicyDenied);

    // Async put + poll through the cluster.
    let resp = c.handle(
        "alice",
        ClientRequest::new(RestRequest::put("users/alice", b"v2".to_vec()).asynchronous()),
    );
    assert_eq!(resp.status, RestStatus::Accepted);
    let op = resp.operation_id.unwrap();
    c.drain_async();
    let resp = c.handle(
        "alice",
        ClientRequest::new(RestRequest::new(RestMethod::PollResult, op.to_string())),
    );
    assert_eq!(resp.status, RestStatus::Ok);

    // Transactions over REST run the two-phase path.
    let resp = c.handle(
        "alice",
        ClientRequest::new(RestRequest::new(RestMethod::CreateTx, "")),
    );
    let tx: u64 = String::from_utf8(resp.value).unwrap().parse().unwrap();
    let mut add = RestRequest::new(RestMethod::AddWrite, "tx/a").in_tx(tx);
    add.value = b"1".to_vec();
    let resp = c.handle("alice", ClientRequest::new(add));
    assert_eq!(resp.status, RestStatus::Ok);
    let resp = c.handle(
        "alice",
        ClientRequest::new(RestRequest::new(RestMethod::CommitTx, "").in_tx(tx)),
    );
    assert_eq!(resp.status, RestStatus::Ok);

    // Status aggregates every partition.
    let resp = c.handle(
        "alice",
        ClientRequest::new(RestRequest::new(RestMethod::Status, "")),
    );
    assert_eq!(resp.status, RestStatus::Ok);
    assert!(String::from_utf8(resp.value)
        .unwrap()
        .contains("3 partitions"));

    // A malformed policy id is a bad request.
    let resp = c.handle(
        "alice",
        ClientRequest::new(RestRequest::put("x", vec![]).with_policy("zz-not-hex")),
    );
    assert_eq!(resp.status, RestStatus::BadRequest);

    // Missing object is NotFound.
    let resp = c.handle("alice", ClientRequest::new(RestRequest::get("missing")));
    assert_eq!(resp.status, RestStatus::NotFound);
}

#[test]
fn status_is_unavailable_while_a_routed_primary_is_down() {
    let status = |c: &ControllerCluster| {
        c.handle(
            "alice",
            ClientRequest::new(RestRequest::new(RestMethod::Status, "")),
        )
    };
    // No backups: the killed partition stays down, and Status names it.
    let c = cluster(2);
    c.register_client("alice");
    assert_eq!(status(&c).status, RestStatus::Ok);
    c.kill_controller(1).unwrap();
    let resp = status(&c);
    assert_eq!(resp.status, RestStatus::BackendError);
    assert!(
        resp.detail.as_deref().unwrap_or("").contains("partition 1"),
        "{:?}",
        resp.detail
    );
    // One backup: promotion puts a live primary back on the range.
    let c = replicated_cluster(2, 1);
    c.register_client("alice");
    c.kill_controller(0).unwrap();
    assert_eq!(status(&c).status, RestStatus::BackendError);
    c.fail_controller(0).unwrap();
    assert_eq!(status(&c).status, RestStatus::Ok);
}

#[test]
fn sibling_keys_co_route_and_cross_the_same_migrations() {
    let c = cluster(4);
    c.register_client("alice");
    for base in ["doc", "a.b", "deep/dir/obj", "x"] {
        let log = format!("{base}.log");
        let v2 = format!("{base}.v2");
        assert_eq!(c.partition_of(base), c.partition_of(&log), "{base}");
        assert_eq!(c.partition_of(base), c.partition_of(&v2), "{base}");
        for key in [base, log.as_str(), v2.as_str()] {
            c.put("alice", key, key.as_bytes(), None, None, &[])
                .unwrap();
        }
    }
    // Co-routing survives growth and shrink: after each change the
    // whole group lives on one (identical) partition and round-trips.
    c.add_controller().unwrap();
    c.remove_controller(0).unwrap();
    for base in ["doc", "a.b", "deep/dir/obj", "x"] {
        let log = format!("{base}.log");
        let v2 = format!("{base}.v2");
        assert_eq!(c.partition_of(base), c.partition_of(&log), "{base}");
        assert_eq!(c.partition_of(base), c.partition_of(&v2), "{base}");
        for key in [base, log.as_str(), v2.as_str()] {
            assert_eq!(&**c.get("alice", key, &[]).unwrap().0, key.as_bytes());
        }
    }
}

#[test]
fn delimiter_edge_keys_route_by_full_key_and_survive_rebalance() {
    use pesos_core::{key_hash, routing_hash};
    let c = cluster(3);
    c.register_client("alice");
    // No delimiter, leading delimiter (empty prefix), delimiter-only,
    // trailing delimiter, and a plain nested key: the first three must
    // route by their full key, and all of them must round-trip through
    // the export/import drains a topology change runs.
    let keys = [".log", ".", "plain", "nested/dir/key", "tail."];
    for key in [".log", ".", "plain", "nested/dir/key"] {
        assert_eq!(
            routing_hash(key, Some('.')),
            key_hash(key),
            "{key} must route by its full key"
        );
    }
    // A trailing delimiter groups with its prefix instead.
    assert_eq!(routing_hash("tail.", Some('.')), key_hash("tail"));
    for key in keys {
        c.put(
            "alice",
            key,
            format!("v:{key}").into_bytes(),
            None,
            None,
            &[],
        )
        .unwrap();
    }
    c.add_controller().unwrap();
    c.add_controller().unwrap();
    c.remove_controller(1).unwrap();
    c.remove_controller(0).unwrap();
    let controllers = c.controllers();
    for key in keys {
        assert_eq!(
            &**c.get("alice", key, &[]).unwrap().0,
            format!("v:{key}").as_bytes()
        );
        let owner = c.partition_of(key);
        for (i, controller) in controllers.iter().enumerate() {
            assert_eq!(
                controller.store().get_metadata(key).is_some(),
                i == owner,
                "{key} misplaced on partition {i}"
            );
        }
    }
    // And they can still be deleted and re-created afterwards.
    c.delete("alice", ".", &[]).unwrap();
    assert!(c.get("alice", ".", &[]).is_err());
    c.put("alice", ".", b"again", None, None, &[]).unwrap();
    assert_eq!(&**c.get("alice", ".", &[]).unwrap().0, b"again");
}

#[test]
fn add_controller_splits_the_most_loaded_partition_at_a_weighted_point() {
    let c = cluster(2);
    c.register_client("alice");
    // Craft a strong imbalance: many keys on one partition, a handful
    // on the other.
    let mut heavy_keys = Vec::new();
    let mut light_keys = Vec::new();
    let mut i = 0usize;
    while heavy_keys.len() < 120 || light_keys.len() < 8 {
        let key = format!("load/{i}");
        i += 1;
        match c.partition_of(&key) {
            0 if heavy_keys.len() < 120 => heavy_keys.push(key),
            1 if light_keys.len() < 8 => light_keys.push(key),
            _ => continue,
        };
    }
    for key in heavy_keys.iter().chain(&light_keys) {
        c.put("alice", key, b"x", None, None, &[]).unwrap();
    }
    let before = c.telemetry_snapshot(0).partitions;
    assert!(weight(&before[0]) > weight(&before[1]));
    assert_eq!(before[0].resident_objects, 120);

    c.add_controller().unwrap();
    let after = c.telemetry_snapshot(0).partitions;
    assert_eq!(after.len(), 3);
    // The joiner split partition 0 (the heavy one): it was inserted
    // right after it, partition 1's (old light partition, now index 2)
    // population is untouched, and the weighted split point divided
    // the 120 resident keys roughly in half — not the hash space.
    assert_eq!(after[2].resident_objects, 8, "light partition disturbed");
    let (kept, moved) = (after[0].resident_objects, after[1].resident_objects);
    assert_eq!(kept + moved, 120, "keys lost or duplicated by the split");
    assert!(
        (48..=72).contains(&moved),
        "weighted split moved {moved} of 120 keys (expected ~half; \
         a halve-the-range split would be arbitrarily lopsided)"
    );
}

#[test]
fn remove_controller_merges_into_the_lighter_neighbour() {
    let c = cluster(3);
    c.register_client("alice");
    // Partition 0 heavy, partition 2 light, partition 1 in between —
    // removing partition 1 must merge it into partition 2.
    let counts = [60usize, 24, 4];
    let mut i = 0usize;
    let mut placed = [0usize; 3];
    while placed != counts {
        let key = format!("merge/{i}");
        i += 1;
        let p = c.partition_of(&key);
        if placed[p] < counts[p] {
            placed[p] += 1;
            c.put("alice", &key, b"x", None, None, &[]).unwrap();
        }
    }
    let before = c.telemetry_snapshot(0).partitions;
    assert!(weight(&before[2]) < weight(&before[0]));
    c.remove_controller(1).unwrap();
    let after = c.telemetry_snapshot(0).partitions;
    assert_eq!(after.len(), 2);
    assert_eq!(
        after[0].resident_objects, counts[0],
        "heavy neighbour should not have absorbed the merge"
    );
    assert_eq!(
        after[1].resident_objects,
        counts[1] + counts[2],
        "lighter neighbour should hold its keys plus the removed partition's"
    );
}

#[test]
fn telemetry_snapshot_covers_every_partition() {
    let c = cluster(3);
    c.register_client("alice");
    for i in 0..12 {
        c.put(
            "alice",
            &format!("cost/{i}"),
            vec![0u8; 256],
            None,
            None,
            &[],
        )
        .unwrap();
    }
    let partitions = c.telemetry_snapshot(0).partitions;
    assert_eq!(partitions.len(), 3);
    // The ranges tile the hash space.
    let total: u128 = partitions.iter().map(|p| p.range.width()).sum();
    assert_eq!(total, u64::MAX as u128 + 1);
    for pair in partitions.windows(2) {
        assert_eq!(pair[0].range.end + 1, pair[1].range.start);
    }
    // The request counters across partitions account for the traffic.
    let requests: u64 = partitions.iter().map(|p| p.requests).sum();
    assert!(requests >= 12);
    let resident: usize = partitions.iter().map(|p| p.resident_objects).sum();
    assert_eq!(resident, 12);
    // Each partition's enclave costs are served beside them.
    let tree = c.stats_tree(0);
    for p in &partitions {
        let path = format!("partitions/{}/sgx/epc_peak_bytes", p.partition);
        assert!(pesos_telemetry::serve(&tree, &path, false).is_some());
    }
}

#[test]
fn killed_partition_is_unavailable_until_promoted() {
    let c = replicated_cluster(2, 1);
    c.register_client("alice");
    let keys: Vec<String> = (0..32).map(|i| format!("fo/{i}")).collect();
    for key in &keys {
        c.put("alice", key, key.clone().into_bytes(), None, None, &[])
            .unwrap();
    }
    let dead = keys
        .iter()
        .find(|k| c.partition_of(k) == 0)
        .expect("some key routes to partition 0")
        .clone();
    let alive = keys
        .iter()
        .find(|k| c.partition_of(k) == 1)
        .expect("some key routes to partition 1")
        .clone();
    c.kill_controller(0).unwrap();
    // The failed range errors (after its capped retries); the other
    // partition keeps serving.
    assert!(matches!(
        c.get("alice", &dead, &[]),
        Err(PesosError::Unavailable(_))
    ));
    c.get("alice", &alive, &[]).unwrap();
    let retried = c.telemetry_snapshot(0).retries.request_retries;
    assert!(retried > 0, "unavailable range should have retried");
    // Promotion brings the range back with every acknowledged write.
    let promotion = c.fail_controller(0).unwrap();
    assert!(!Arc::ptr_eq(
        &promotion.promoted,
        c.controllers()[1].store()
    ));
    for key in &keys {
        let (value, _) = c.get("alice", key, &[]).unwrap();
        assert_eq!(&**value, key.as_bytes());
    }
    // And the promoted partition accepts new writes.
    c.put("alice", &dead, b"after failover", None, None, &[])
        .unwrap();
}

#[test]
fn killed_partition_without_backups_is_unavailable_for_every_op() {
    let c = cluster(2);
    c.register_client("alice");
    let key = (0..64)
        .map(|i| format!("nb/{i}"))
        .find(|k| c.partition_of(k) == 0)
        .expect("some key routes to partition 0");
    c.put("alice", &key, b"v", None, None, &[]).unwrap();
    c.kill_controller(0).unwrap();
    // Nothing can be promoted, so each operation spends its whole
    // retry schedule and then reports the partition unavailable —
    // writes exactly like reads.
    let mut done = 0u64;
    let mut check = |name: &str, result: Result<(), PesosError>| {
        assert!(
            matches!(result, Err(PesosError::Unavailable(_))),
            "{name} into a killed partition must be Unavailable, got {result:?}"
        );
        done += 1;
        assert_eq!(
            c.telemetry_snapshot(0).retries.request_retries,
            done * u64::from(RETRY_ATTEMPTS - 1),
            "{name} did not run the capped retry schedule"
        );
    };
    check("put", c.put("alice", &key, b"w", None, None, &[]).map(drop));
    check(
        "put_async",
        c.put_async("alice", &key, b"w".to_vec(), None, None, &[])
            .map(drop),
    );
    check("get", c.get("alice", &key, &[]).map(drop));
    check("delete", c.delete("alice", &key, &[]));
}

#[test]
fn failover_preserves_versions_deletes_and_policies() {
    let c = replicated_cluster(1, 2);
    c.register_client("alice");
    c.register_client("eve");
    let acl = c
        .put_policy(
            "alice",
            "read :- sessionKeyIs(\"alice\")\nupdate :- sessionKeyIs(\"alice\")",
        )
        .unwrap();
    c.put("alice", "k", b"v0", Some(acl), None, &[]).unwrap();
    // CAS put (expected_version names the version this write creates).
    c.put("alice", "k", b"v1", None, Some(1), &[]).unwrap();
    c.put("alice", "gone", b"x", None, None, &[]).unwrap();
    c.delete("alice", "gone", &[]).unwrap();
    c.kill_controller(0).unwrap();
    c.fail_controller(0).unwrap();
    // The backup wrote its primary's batches and nothing else: promoted,
    // it is a cold controller over the primary's drives.
    let promoted = Arc::clone(&c.controllers()[0]);
    assert_eq!(promoted.store().resident_object_count(), 0);
    // Cold, it still fails closed: eve's put finds no record in the map,
    // the drives refuse the create, and the record's policy — its body
    // replicated with the log — denies her. Nothing moves on any drive.
    let drives = || -> Vec<Vec<_>> {
        let store = promoted.store();
        (0..store.drives().len())
            .map(|i| {
                let drive = store.drives().get(i).unwrap();
                let keys = store.drive_keys(i).unwrap();
                keys.into_iter().map(|key| drive.peek(&key)).collect()
            })
            .collect()
    };
    let before = drives();
    assert!(matches!(
        c.put("eve", "k", b"stolen", None, None, &[]),
        Err(PesosError::PolicyDenied(_))
    ));
    assert_eq!(drives(), before);
    let refusals = c.stats_tree(0);
    match refusals.resolve("partitions/0/store/create_refusals") {
        Some(StatsNode::Leaf(n)) => assert!(n.parse::<u64>().unwrap() > 0),
        other => panic!("no create_refusals leaf: {other:?}"),
    }
    assert_eq!(c.get_version("alice", "k", 0, &[]).unwrap(), b"v0");
    let (value, version) = c.get("alice", "k", &[]).unwrap();
    assert_eq!(&**value, b"v1");
    assert_eq!(version, 1);
    // A CAS at latest + 1 continues the history.
    assert_eq!(c.put("alice", "k", b"v2", None, Some(2), &[]).unwrap(), 2);
    assert!(matches!(
        c.get("alice", "gone", &[]),
        Err(PesosError::ObjectNotFound(_))
    ));
    assert!(c.get("eve", "k", &[]).is_err());
}

/// A backup's drives end equal to its primary's, byte for byte, after a
/// mixed history: sync and async writers sharing keys, CAS puts,
/// cross-partition commits, one split and one merge (the split source's
/// drain deletes reach its backup through its log), then a delete, a
/// policy attach and a history long enough to trim segments.
#[test]
fn a_backups_drives_equal_its_primarys() {
    let c = Arc::new(replicated_cluster(2, 1));
    c.register_client("alice");
    let acl = c
        .put_policy(
            "alice",
            "read :- sessionKeyIs(\"alice\")\nupdate :- sessionKeyIs(\"alice\")\n\
             delete :- sessionKeyIs(\"alice\")",
        )
        .unwrap();
    let key = |i: usize| format!("eq/{}", i % 24);
    let writer = |sync: bool| {
        let c = Arc::clone(&c);
        std::thread::spawn(move || {
            for i in 0..96 {
                let value = format!("{sync}-{i}").into_bytes();
                if sync {
                    c.put("alice", &key(i), value, None, None, &[]).unwrap();
                } else {
                    c.put_async("alice", &key(i), value, None, None, &[])
                        .unwrap();
                }
            }
        })
    };
    let writers = [writer(true), writer(false)];
    for i in 0..8 {
        let cas = format!("cas/{i}");
        c.put("alice", &cas, b"v0", None, Some(0), &[]).unwrap();
        c.put("alice", &cas, b"v1", Some(acl), Some(1), &[])
            .unwrap();
        let tx = c.create_tx("alice").unwrap();
        c.add_write("alice", tx, &format!("tx/{i}/a"), b"a".to_vec())
            .unwrap();
        c.add_write("alice", tx, &format!("tx/{i}/b"), b"b".to_vec())
            .unwrap();
        c.commit_tx("alice", tx).unwrap();
    }
    for w in writers {
        w.join().unwrap();
    }
    let before = c.controllers();
    c.add_controller().unwrap();
    let joiner = c
        .controllers()
        .iter()
        .position(|new| !before.iter().any(|old| Arc::ptr_eq(new, old)))
        .expect("the joiner is in the table");
    c.remove_controller(joiner).unwrap();
    c.delete("alice", "cas/3", &[]).unwrap();
    c.attach_policy("alice", "cas/4", acl, &[]).unwrap();
    for v in 0..140u32 {
        c.put("alice", "hot", v.to_be_bytes(), None, None, &[])
            .unwrap();
    }
    c.drain_async();
    let routing = c.routing.read().clone();
    assert_eq!(routing.table.len(), 2);
    for partition in routing.table.partitions() {
        let log = partition.log.as_ref().expect("a replicated partition");
        assert!(partition.controller.store().resident_object_count() > 0);
        log.assert_backups_equal(partition.controller.store());
    }
}

#[test]
fn acked_async_writes_survive_failover() {
    let c = replicated_cluster(2, 1);
    c.register_client("alice");
    let keys: Vec<String> = (0..24).map(|i| format!("async/{i}")).collect();
    let mut ops = Vec::new();
    for key in &keys {
        ops.push(
            c.put_async("alice", key, key.clone().into_bytes(), None, None, &[])
                .unwrap(),
        );
    }
    c.drain_async();
    for op in &ops {
        assert!(matches!(
            c.poll_result("alice", *op),
            Some(AsyncResult::Completed { .. })
        ));
    }
    c.kill_controller(0).unwrap();
    c.fail_controller(0).unwrap();
    for key in &keys {
        let (value, _) = c.get("alice", key, &[]).unwrap();
        assert_eq!(&**value, key.as_bytes(), "acked async write lost");
    }
}

#[test]
fn a_joined_partition_fails_over_with_every_acknowledged_write() {
    let c = replicated_cluster(2, 1);
    c.register_client("alice");
    let before = c.controllers();
    c.add_controller().unwrap();
    let joined = c
        .controllers()
        .iter()
        .position(|new| !before.iter().any(|old| Arc::ptr_eq(new, old)))
        .expect("the joiner is in the table");
    let key_on = |partition: usize, tag: &str| {
        (0..256)
            .map(|i| format!("{tag}/{i}"))
            .find(|k| c.partition_of(k) == partition)
            .expect("a key on the partition")
    };
    // A sync put, an acknowledged put_async and a cross-partition commit,
    // all into the joiner's range.
    let sync_key = key_on(joined, "sync");
    let async_key = key_on(joined, "async");
    let (tx_in, tx_out) = (key_on(joined, "tx"), key_on((joined + 1) % 3, "tx"));
    let version = c.put("alice", &sync_key, b"sync", None, None, &[]).unwrap();
    // An async put is logged when it completes: poll it there first.
    let op = c
        .put_async("alice", &async_key, b"async".to_vec(), None, None, &[])
        .unwrap();
    c.drain_async();
    assert!(matches!(
        c.poll_result("alice", op),
        Some(AsyncResult::Completed { .. })
    ));
    let tx = c.create_tx("alice").unwrap();
    c.add_write("alice", tx, &tx_in, b"in".to_vec()).unwrap();
    c.add_write("alice", tx, &tx_out, b"out".to_vec()).unwrap();
    let outcome = c.commit_tx("alice", tx).unwrap();

    let failed = Arc::clone(&c.controllers()[joined]);
    c.kill_controller(joined).unwrap();
    let promotion = c.fail_controller(joined).unwrap();
    // The partition's controller was built at promotion, over the backup
    // store the log wrote: drives of its own, up while the failed
    // primary's are down. (A device certificate is a function of the
    // drive id, and every store names its drives kd-00.., so two stores'
    // reports cannot tell them apart.)
    let promoted = Arc::clone(&c.controllers()[joined]);
    assert!(!Arc::ptr_eq(&promoted, &failed));
    assert!(Arc::ptr_eq(&promotion.promoted, promoted.store()));
    let drives = |c: &PesosController| c.store().drives().iter().cloned().collect::<Vec<_>>();
    let (now, before) = (drives(&promoted), drives(&failed));
    assert!(now
        .iter()
        .all(|d| d.is_online() && !before.iter().any(|b| Arc::ptr_eq(d, b))));
    assert!(before.iter().all(|d| !d.is_online()));
    let (value, got) = c.get("alice", &sync_key, &[]).unwrap();
    assert_eq!((&**value, got), (&b"sync"[..], version));
    assert_eq!(&**c.get("alice", &async_key, &[]).unwrap().0, b"async");
    assert_eq!(&**c.get("alice", &tx_in, &[]).unwrap().0, b"in");
    assert_eq!(&**c.get("alice", &tx_out, &[]).unwrap().0, b"out");
    // The outcome survives on the promoted backup's store itself, not only
    // on the other participant.
    assert_eq!(promoted.store().tx_outcome(tx), Some(outcome.clone()));
    assert_eq!(c.check_results("alice", tx).unwrap(), outcome);
    // The promoted controller is whole: it runs an async put.
    let op = c
        .put_async("alice", &async_key, b"promoted".to_vec(), None, None, &[])
        .unwrap();
    c.drain_async();
    assert!(matches!(
        c.poll_result("alice", op),
        Some(AsyncResult::Completed { .. })
    ));
    assert_eq!(&**c.get("alice", &async_key, &[]).unwrap().0, b"promoted");
}

#[test]
fn failover_resolves_in_doubt_transactions_from_the_replicated_outcome_map() {
    let c = replicated_cluster(1, 1);
    c.register_client("alice");
    let tx = c.create_tx("alice").unwrap();
    c.add_write("alice", tx, "tx/a", b"1".to_vec()).unwrap();
    c.add_write("alice", tx, "tx/b", b"2".to_vec()).unwrap();
    let outcome = c.commit_tx("alice", tx).unwrap();
    c.kill_controller(0).unwrap();
    c.fail_controller(0).unwrap();
    // The only copy of the outcome map was the failed primary's; the
    // promoted backup answers from its replicated copy.
    let resolved = c.check_results("alice", tx).unwrap();
    assert_eq!(resolved.write_versions, outcome.write_versions);
    let (value, _) = c.get("alice", "tx/a", &[]).unwrap();
    assert_eq!(&**value, b"1");
}

#[test]
fn fail_controller_without_backups_is_a_typed_error() {
    let c = cluster(2);
    assert!(matches!(
        c.fail_controller(0),
        Err(PesosError::Unavailable(_))
    ));
    assert!(matches!(
        c.fail_controller(7),
        Err(PesosError::BadRequest(_))
    ));
}

#[test]
fn remove_controller_refuses_on_an_unsettleable_migration_with_a_typed_error() {
    let c = cluster(3);
    c.register_client("alice");
    for i in 0..32 {
        c.put(
            "alice",
            &format!("stuck/{i}"),
            vec![1u8; 64],
            None,
            None,
            &[],
        )
        .unwrap();
    }
    // Break the departing partition's drive mid-removal: the merged
    // table installs but the drain cannot settle, so the migration
    // record stays active.
    let source = Arc::clone(&c.controllers()[0]);
    source.store().drives().get(0).unwrap().set_online(false);
    assert!(c.remove_controller(0).is_err());
    // Any further topology change now refuses with the typed error
    // (after its settle retries) instead of a generic drain fault.
    match c.remove_controller(0) {
        Err(PesosError::MigrationPending(msg)) => {
            assert!(msg.contains("pending migration"), "unhelpful: {msg}")
        }
        other => panic!("expected MigrationPending, got {other:?}"),
    }
    assert!(
        c.telemetry_snapshot(0).retries.settle_retries > 0,
        "settle never retried"
    );
    // Repair the drive: the operator settle path drains and the
    // removal goes through.
    source.store().drives().get(0).unwrap().set_online(true);
    c.settle_pending_migrations().unwrap();
    c.remove_controller(0).unwrap();
    assert_eq!(c.partition_count(), 1);
    for i in 0..32 {
        c.get("alice", &format!("stuck/{i}"), &[]).unwrap();
    }
}

#[test]
fn removing_the_last_controller_has_a_clear_error() {
    let c = cluster(1);
    match c.remove_controller(0) {
        Err(PesosError::BadRequest(msg)) => {
            assert!(msg.contains("1-controller"), "unhelpful: {msg}")
        }
        other => panic!("expected BadRequest, got {other:?}"),
    }
}

#[test]
fn fail_controller_refuses_while_a_migration_involves_the_partition() {
    let c = replicated_cluster(2, 1);
    c.register_client("alice");
    for i in 0..32 {
        c.put("alice", &format!("mig/{i}"), vec![2u8; 64], None, None, &[])
            .unwrap();
    }
    // Strand a migration: break the source drive mid-removal.
    let controllers = c.controllers();
    let removed_log = c
        .routing
        .read()
        .table
        .first()
        .log
        .clone()
        .expect("replicated partition has a log");
    controllers[0]
        .store()
        .drives()
        .get(0)
        .unwrap()
        .set_online(false);
    assert!(c.remove_controller(0).is_err());
    match c.fail_controller(0) {
        Err(PesosError::MigrationPending(_)) => {}
        other => panic!("expected MigrationPending, got {other:?}"),
    }
    controllers[0]
        .store()
        .drives()
        .get(0)
        .unwrap()
        .set_online(true);
    c.settle_pending_migrations().unwrap();
    // The retry settled the removal, so the removed primary's log was
    // stopped: its shipper threads have exited and dropped their handles,
    // and nothing in the cluster holds it any more.
    assert_eq!(
        Arc::strong_count(&removed_log),
        1,
        "the removed primary's log still runs after its removal settled"
    );
}

#[test]
fn retry_counters_ride_the_telemetry_snapshot() {
    let c = replicated_cluster(2, 1);
    c.register_client("alice");
    let key = (0..64)
        .map(|i| format!("rc/{i}"))
        .find(|k| c.partition_of(k) == 0)
        .expect("some key routes to partition 0");
    c.put("alice", &key, b"v", None, None, &[]).unwrap();
    assert_eq!(c.telemetry_snapshot(0).retries, RetryStats::default());
    c.kill_controller(0).unwrap();
    let _ = c.get("alice", &key, &[]);
    c.fail_controller(0).unwrap();
    let retries = c.telemetry_snapshot(0).retries;
    assert!(retries.request_retries > 0);
    // `/stats/retries` serves the same reading.
    let served = pesos_telemetry::serve(&c.stats_tree(0), "retries/request_retries", false);
    assert_eq!(
        served.as_deref().map(str::trim),
        Some(retries.request_retries.to_string().as_str())
    );
}

/// Every controller of a cluster, backups and a native joiner included,
/// submits to one host pool: the members' own submissions add up to the
/// calls the pool completed, and a joiner keeps the mode its own config
/// names (the cost model it charges), beside SGX members.
#[test]
fn one_host_pool_serves_every_member_and_each_keeps_its_own_mode() {
    let mut config = ClusterConfig::sgx_simulator(2, 1);
    config.backups_per_partition = 1;
    let c = ControllerCluster::new(config).unwrap();
    let pool = c.host_pool_stats();
    assert_eq!(
        pool.threads,
        4 * 4,
        "two primaries and two backups, 4 threads each"
    );
    assert_eq!(
        c.add_controller_with(ControllerConfig::native_simulator(1))
            .unwrap(),
        3
    );
    assert_eq!(
        c.host_pool_stats().threads,
        6 * 4,
        "the joiner and its backup"
    );

    c.register_client("alice");
    for i in 0..96 {
        let key = format!("pool/{i}");
        c.put("alice", &key, format!("v{i}").into_bytes(), None, None, &[])
            .unwrap();
        assert_eq!(
            &**c.get("alice", &key, &[]).unwrap().0,
            format!("v{i}").as_bytes()
        );
    }
    let caught_up = || {
        c.telemetry_snapshot(0)
            .partitions
            .iter()
            .filter_map(|p| p.replication.as_ref())
            .all(|r| r.max_lag() == 0)
    };
    // Every member's submissions, primaries first, then their backups.
    let submitted = || -> u64 {
        let snapshot = c.telemetry_snapshot(0);
        let primaries: u64 = c
            .controllers()
            .iter()
            .map(|p| p.store().asyscall_stats().submitted)
            .sum();
        let backups: u64 = snapshot
            .partitions
            .iter()
            .filter_map(|p| p.replication.as_ref())
            .flat_map(|r| r.backup_asyscalls.iter().map(|a| a.submitted))
            .sum();
        primaries + backups
    };
    // Replicated reads leave their losing replicas to finish behind them,
    // and the backups apply on their own schedule: wait for both to settle.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while !(caught_up() && c.host_pool_stats().completed == submitted()) {
        assert!(std::time::Instant::now() < deadline, "pool never settled");
        std::thread::sleep(std::time::Duration::from_millis(5));
    }

    // A member's calls are the ones it handed to the pool plus the first
    // lanes of its joined calls, which ran on their caller as exits; only
    // the former reach the pool's `completed` (the identity above).
    let calls = |a: &pesos_sgx::AsyscallStats| a.submitted + a.exits;
    let snapshot = c.telemetry_snapshot(0);
    let mut modes = Vec::new();
    for (partition, controller) in snapshot.partitions.iter().zip(c.controllers()) {
        assert!(calls(&controller.store().asyscall_stats()) > 0);
        assert_eq!(partition.asyscall, controller.store().asyscall_stats());
        // A partition's backups are built from its primary's config.
        for backup in &partition.replication.as_ref().unwrap().backup_asyscalls {
            assert!(calls(backup) > 0);
        }
        modes.push(controller.config().mode);
    }
    use pesos_core::ExecutionMode::{Native, Sgx};
    assert_eq!(modes, [Sgx, Sgx, Native]);
}

/// A member that leaves gives its service threads back: rounds of adding
/// and removing a controller (with its backup) and a failover end with the
/// pool back at the threads its members bring.
#[test]
fn the_host_pool_gives_back_the_threads_of_members_that_leave() {
    let mut config = ClusterConfig::sgx_simulator(2, 1);
    config.backups_per_partition = 1;
    let per_member = config.controller.syscall_threads;
    let c = ControllerCluster::new(config).unwrap();
    let start = c.host_pool_stats().threads;
    assert_eq!(start, 4 * per_member);
    c.register_client("alice");
    for round in 0..6 {
        let partitions = c.add_controller().unwrap();
        c.put("alice", &format!("round/{round}"), b"v", None, None, &[])
            .unwrap();
        c.remove_controller(partitions - 1).unwrap();
    }
    let settles_at = |threads: usize| {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while c.host_pool_stats().threads != threads {
            assert!(
                std::time::Instant::now() < deadline,
                "pool kept {} threads, expected {threads}",
                c.host_pool_stats().threads
            );
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
    };
    settles_at(start);
    // A failover drops the failed primary; its one backup takes over and
    // runs unreplicated.
    c.fail_controller(0).unwrap();
    settles_at(start - per_member);
    for round in 0..6 {
        assert_eq!(
            &**c.get("alice", &format!("round/{round}"), &[]).unwrap().0,
            b"v"
        );
    }
}
