//! Cross-crate integration tests: controller + policy language + Kinetic
//! substrate + SGX simulator working together on the paper's use cases.

use std::sync::Arc;

use pesos::core::ClientRequest;
use pesos::wire::{RestRequest, RestStatus};
use pesos::{ClusterConfig, ControllerCluster, ControllerConfig, PesosController};

fn sgx_controller(drives: usize) -> PesosController {
    PesosController::new(ControllerConfig::sgx_simulator(drives)).expect("bootstrap")
}

/// A single controller as its clients reach it for REST and transactions:
/// a cluster of one partition.
fn sgx_cluster_of_one(drives: usize) -> ControllerCluster {
    ControllerCluster::new(ClusterConfig::sgx_simulator(1, drives)).expect("bootstrap")
}

#[test]
fn full_stack_acl_enforcement_under_sgx_mode() {
    let c = sgx_controller(2);
    let alice = c.register_client("alice");
    let bob = c.register_client("bob");

    let policy = c
        .put_policy(
            &alice,
            "read :- sessionKeyIs(\"alice\") or sessionKeyIs(\"bob\")\n\
             update :- sessionKeyIs(\"alice\")\n\
             delete :- sessionKeyIs(\"alice\")",
        )
        .unwrap();
    c.put(&alice, "shared/doc", b"v0", Some(policy), None, &[])
        .unwrap();

    assert!(c.get(&bob, "shared/doc", &[]).is_ok());
    assert!(c.put(&bob, "shared/doc", b"nope", None, None, &[]).is_err());
    assert!(c.delete(&bob, "shared/doc", &[]).is_err());
    assert!(c.delete(&alice, "shared/doc", &[]).is_ok());
}

#[test]
fn data_is_encrypted_and_replicated_across_drives() {
    let mut config = ControllerConfig::sgx_simulator(3);
    config.replication_factor = 3;
    let c = PesosController::new(config).unwrap();
    let alice = c.register_client("alice");
    c.put(
        &alice,
        "secret/report",
        b"top secret contents",
        None,
        None,
        &[],
    )
    .unwrap();

    // Every drive holds a copy, and none of them holds the plaintext.
    let mut copies = 0;
    for drive in c.store().drives().iter() {
        if let Some(entry) = drive.peek(b"o/secret/report/00000000000000000000") {
            copies += 1;
            assert!(!entry
                .value
                .windows(b"top secret".len())
                .any(|w| w == b"top secret"));
        }
    }
    assert_eq!(copies, 3);

    // Reads still succeed after the primary replica goes offline.
    let primary = pesos::core::placement("secret/report", 3, 3)[0];
    c.store().drives().get(primary).unwrap().set_online(false);
    let (value, _) = c.get(&alice, "secret/report", &[]).unwrap();
    assert_eq!(&**value, b"top secret contents");
}

#[test]
fn rest_dispatch_answers_typed_requests() {
    let c = sgx_cluster_of_one(1);
    let alice = c.register_client("alice");

    let put = RestRequest::put("wire/object", b"wire payload".to_vec());
    let resp = c.handle(&alice, ClientRequest::new(put));
    assert_eq!(resp.status, RestStatus::Ok);
    assert_eq!(resp.version, Some(0));

    let resp = c.handle(&alice, ClientRequest::new(RestRequest::get("wire/object")));
    assert_eq!(resp.status, RestStatus::Ok);
    assert_eq!(resp.value, b"wire payload");
    assert_eq!(resp.version, Some(0));
}

#[test]
fn transactions_are_atomic_across_objects_and_threads() {
    let c = Arc::new(sgx_cluster_of_one(1));
    let alice = c.register_client("alice");
    c.put(&alice, "bank/a", b"1000", None, None, &[]).unwrap();
    c.put(&alice, "bank/b", b"0", None, None, &[]).unwrap();

    let mut handles = Vec::new();
    for i in 0..4 {
        let c = Arc::clone(&c);
        handles.push(std::thread::spawn(move || {
            let me = c.register_client(&format!("worker-{i}"));
            let tx = c.create_tx(&me).unwrap();
            c.add_write(
                &me,
                tx,
                "bank/a",
                format!("{}", 1000 - (i + 1) * 100).into_bytes(),
            )
            .unwrap();
            c.add_write(&me, tx, "bank/b", format!("{}", (i + 1) * 100).into_bytes())
                .unwrap();
            c.commit_tx(&me, tx).unwrap();
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    // Both objects advanced through the same number of versions.
    let (_, va) = c.get(&alice, "bank/a", &[]).unwrap();
    let (_, vb) = c.get(&alice, "bank/b", &[]).unwrap();
    assert_eq!(va, 4);
    assert_eq!(vb, 4);
    assert_eq!(c.controllers()[0].metrics().tx_committed, 4);
}

#[test]
fn mandatory_access_logging_enforced_end_to_end() {
    let c = sgx_controller(1);
    let alice = c.register_client("alice");

    let policy = c
        .put_policy(
            &alice,
            "read :- objId(THIS, O) and objId(LOG, L) and currVersion(O, V) and \
                     sessionKeyIs(U) and objSays(L, LV, 'read'(O, V, U))\n\
             update :- sessionKeyIs(\"alice\")\n\
             delete :- sessionKeyIs(\"alice\")",
        )
        .unwrap();
    c.put(&alice, "records/1", b"payload", Some(policy), None, &[])
        .unwrap();
    c.put(&alice, "records/1.log", b"", None, None, &[])
        .unwrap();

    // Unlogged access denied; logged access allowed.
    assert!(c.get(&alice, "records/1", &[]).is_err());
    c.put(
        &alice,
        "records/1.log",
        b"read(\"records/1\",0,\"alice\")\n",
        None,
        None,
        &[],
    )
    .unwrap();
    assert!(c.get(&alice, "records/1", &[]).is_ok());
}

#[test]
fn native_and_sgx_modes_agree_on_results() {
    for config in [
        ControllerConfig::native_simulator(1),
        ControllerConfig::sgx_simulator(1),
    ] {
        let c = PesosController::new(config).unwrap();
        let id = c.register_client("client");
        for i in 0..20u32 {
            c.put(&id, &format!("obj/{i}"), vec![i as u8; 64], None, None, &[])
                .unwrap();
        }
        for i in 0..20u32 {
            let (value, version) = c.get(&id, &format!("obj/{i}"), &[]).unwrap();
            assert_eq!(version, 0);
            assert_eq!(value.len(), 64);
            assert_eq!(value[0], i as u8);
        }
    }
}
