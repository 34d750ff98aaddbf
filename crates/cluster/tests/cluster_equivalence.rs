//! Property test: a multi-controller cluster is observationally and
//! byte-level equivalent to a single controller.
//!
//! The same randomly generated operation sequence is applied to a
//! 4-controller cluster (one drive per controller) and to one bare
//! controller (one drive). Every operation must produce the same result on
//! both (same version numbers, same values, error on one iff error on the
//! other), and afterwards the drive state must match byte for byte: each
//! key's metadata record and version payloads on its owning partition's
//! drive equal the single controller's, and no other partition holds the
//! key. The cluster then grows and shrinks by one controller, at a drain
//! width of 1 or 4, and the comparison must hold again: a drain moves
//! records, never rewrites them, whatever its width.
//!
//! The comparison runs with object encryption off and on: a sealed object
//! depends only on the master key, object key, version and plaintext (the
//! nonce is derived from them), so every controller — and a drain's
//! re-seal — writes the bytes the single controller wrote.

use pesos_cluster::{ClusterConfig, ControllerCluster};
use pesos_core::metadata::{data_key, meta_key};
use pesos_core::{ControllerConfig, PesosController, PesosError};
use proptest::prelude::*;

const KEYSPACE: usize = 10;

fn key_name(index: usize) -> String {
    format!("equiv/key-{index}")
}

fn single_config(encrypt: bool) -> ControllerConfig {
    let mut config = ControllerConfig::native_simulator(1);
    config.encrypt_objects = encrypt;
    config
}

fn build_pair(encrypt: bool, drain_concurrency: usize) -> (ControllerCluster, PesosController) {
    let mut config = ClusterConfig::with_controller(4, single_config(encrypt));
    config.drain_concurrency = drain_concurrency;
    let cluster = ControllerCluster::new(config).unwrap();
    let single = PesosController::new(single_config(encrypt)).unwrap();
    cluster.register_client("client");
    single.register_client("client");
    (cluster, single)
}

/// Applies one op to both deployments and asserts the results agree.
/// Ops: 0 = put, 1 = get, 2 = delete.
fn apply_both(
    cluster: &ControllerCluster,
    single: &PesosController,
    op: (u8, usize, u8),
) -> Result<(), TestCaseError> {
    let (kind, key_index, seed) = op;
    let key = key_name(key_index % KEYSPACE);
    match kind % 3 {
        0 => {
            let value = vec![seed; (seed as usize % 48) + 1];
            let a = cluster.put("client", &key, value.clone(), None, None, &[]);
            let b = single.put("client", &key, value, None, None, &[]);
            prop_assert_eq!(&a, &b, "put {} diverged", key);
        }
        1 => {
            let a = cluster.get("client", &key, &[]);
            let b = single.get("client", &key, &[]);
            match (&a, &b) {
                (Ok((av, aver)), Ok((bv, bver))) => {
                    prop_assert_eq!(av, bv, "get {} value diverged", &key);
                    prop_assert_eq!(aver, bver, "get {} version diverged", &key);
                }
                (Err(PesosError::ObjectNotFound(_)), Err(PesosError::ObjectNotFound(_))) => {}
                other => prop_assert!(false, "get {} diverged: {:?}", &key, other),
            }
        }
        _ => {
            let a = cluster.delete("client", &key, &[]);
            let b = single.delete("client", &key, &[]);
            prop_assert_eq!(a.is_ok(), b.is_ok(), "delete {} diverged", &key);
        }
    }
    Ok(())
}

/// Byte-level comparison of drive state after the replay.
fn assert_drives_identical(cluster: &ControllerCluster, single: &PesosController) {
    let controllers = cluster.controllers();
    let single_drive = single.store().drives().get(0).unwrap().clone();
    for index in 0..KEYSPACE {
        let key = key_name(index);
        let owner = cluster.partition_of(&key);
        let raw_meta = meta_key(&key);
        let expected_meta = single_drive.peek(&raw_meta).map(|e| e.value);
        for (i, controller) in controllers.iter().enumerate() {
            let drive = controller.store().drives().get(0).unwrap();
            let found = drive.peek(&raw_meta).map(|e| e.value);
            if i == owner {
                assert_eq!(
                    found, expected_meta,
                    "metadata bytes for {key} diverge on owning partition {i}"
                );
            } else {
                assert_eq!(found, None, "key {key} leaked onto partition {i}");
            }
        }
        // Version payloads, as recorded by the single controller.
        if let Some(meta) = single.store().get_metadata(key.as_str()) {
            let owner_drive = controllers[owner].store().drives().get(0).unwrap();
            for v in meta.versions.iter() {
                let raw = data_key(&key, v.version);
                assert_eq!(
                    owner_drive.peek(&raw).map(|e| e.value),
                    single_drive.peek(&raw).map(|e| e.value),
                    "payload bytes for {key} v{} diverge",
                    v.version
                );
            }
        }
    }
    // No stray keys anywhere: the union of cluster drive keys matches the
    // single drive exactly.
    let cluster_keys: usize = controllers
        .iter()
        .map(|c| c.store().drives().get(0).unwrap().key_count())
        .sum();
    assert_eq!(cluster_keys, single_drive.key_count(), "stray drive keys");
}

proptest! {
    #[test]
    fn cluster_and_single_controller_leave_identical_drive_state(
        ops in proptest::collection::vec((0u8..3, 0usize..KEYSPACE, any::<u8>()), 1..32),
        wide in 0usize..2,
    ) {
        for encrypt in [false, true] {
            let (cluster, single) = build_pair(encrypt, [1, 4][wide]);
            for &op in &ops {
                apply_both(&cluster, &single, op)?;
            }
            assert_drives_identical(&cluster, &single);
            cluster.add_controller().unwrap();
            cluster.remove_controller(0).unwrap();
            assert_drives_identical(&cluster, &single);
        }
    }
}

#[test]
fn logical_equivalence_holds_with_encryption_enabled() {
    // A fixed script beside the generated ones: plaintext reads and
    // version numbering agree, encrypted.
    let (cluster, single) = build_pair(true, 4);
    let script: Vec<(u8, usize, u8)> = (0..60)
        .map(|i| ((i % 5) as u8, (i * 7) % KEYSPACE, i as u8))
        .collect();
    for (kind, key_index, seed) in script {
        let key = key_name(key_index);
        match kind % 3 {
            0 => {
                let value = vec![seed; (seed as usize % 32) + 1];
                let a = cluster.put("client", &key, value.clone(), None, None, &[]);
                let b = single.put("client", &key, value, None, None, &[]);
                assert_eq!(a.is_ok(), b.is_ok());
                if let (Ok(av), Ok(bv)) = (a, b) {
                    assert_eq!(av, bv);
                }
            }
            1 => {
                let a = cluster.get("client", &key, &[]).ok();
                let b = single.get("client", &key, &[]).ok();
                assert_eq!(
                    a.map(|(v, ver)| ((*v).clone(), ver)),
                    b.map(|(v, ver)| ((*v).clone(), ver))
                );
            }
            _ => {
                let a = cluster.delete("client", &key, &[]);
                let b = single.delete("client", &key, &[]);
                assert_eq!(a.is_ok(), b.is_ok());
            }
        }
    }
    for index in 0..KEYSPACE {
        let key = key_name(index);
        assert_eq!(
            cluster
                .get("client", &key, &[])
                .ok()
                .map(|(v, ver)| ((*v).clone(), ver)),
            single
                .get("client", &key, &[])
                .ok()
                .map(|(v, ver)| ((*v).clone(), ver)),
            "final state diverges for {key}"
        );
    }
}
