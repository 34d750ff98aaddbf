//! The compare-on-absent create when the drives contradict the in-enclave
//! map, and every request path when a drive cannot answer.
//!
//! A key the map does not hold is written compare-on-absent (see the
//! `store` module docs). These tests put a record on the drives that the
//! store does not know — a second store over the same drives (a restart),
//! or a delete that failed with the drives unreachable — and pin what
//! happens next: the refusal is rolled back exactly where it had landed,
//! the write continues over the real record, the real record's policy is
//! evaluated before anything is written, a fault fails the request and
//! undoes only what the drives accepted, and a drive that cannot answer is
//! never read as "no object, no policy". What the drives hold afterwards is
//! compared byte for byte against a reference model of the store's layout.

use std::collections::BTreeMap;
use std::sync::Arc;

use pesos_core::metadata::{data_key, meta_key, policy_key, segment_key};
use pesos_core::{
    placement, AsyncResult, BatchLog, ControllerConfig, CreateStats, ObjectCrypter, ObjectMetadata,
    PesosController, PesosError, PesosStore, TxWrite, VersionMeta,
};
use pesos_kinetic::{
    BatchOp, ClientConfig, DriveConfig, DriveSet, FaultPlan, KineticClient, KineticDrive,
};
use pesos_policy::PolicyId;
use pesos_sgx::{AsyscallInterface, Enclave, EnclaveConfig, ExecutionMode, SgxCostModel};
use pesos_wire::FieldWriter;

const MASTER_KEY: [u8; 32] = [1u8; 32];

fn drives(count: usize) -> Vec<Arc<KineticDrive>> {
    (0..count)
        .map(|i| Arc::new(KineticDrive::new(DriveConfig::simulator(format!("kd-{i}")))))
        .collect()
}

fn admin(drive: &Arc<KineticDrive>) -> KineticClient {
    KineticClient::connect(Arc::clone(drive), ClientConfig::factory_default()).unwrap()
}

/// A store over `drives` that has never seen them: empty map, empty
/// caches — what a restarted or promoted controller starts from.
fn cold_store(drives: &[Arc<KineticDrive>], replication: usize) -> PesosStore {
    let cost = pesos_sgx::cost::ModeCost::new(ExecutionMode::Native, SgxCostModel::zero());
    PesosStore::new(
        DriveSet::from_drives(drives.to_vec()),
        drives.iter().map(|d| Arc::new(admin(d))).collect(),
        ObjectCrypter::new(&MASTER_KEY, true),
        &ControllerConfig {
            object_cache_bytes: 1024 * 1024,
            policy_cache_capacity: 16,
            replication_factor: replication,
            lock_shards: 4,
            ..ControllerConfig::native_simulator(drives.len())
        },
        Arc::new(AsyscallInterface::new(2, 16, cost)),
        Arc::new(Enclave::create(EnclaveConfig::default(), cost).unwrap()),
    )
}

/// The bytes any store under `MASTER_KEY` writes for `plain` as `version`
/// of `key`: sealing is a pure function of those four.
fn sealed(key: &str, version: u64, plain: &[u8]) -> Vec<u8> {
    ObjectCrypter::new(&MASTER_KEY, true).seal(key, version, plain)
}

/// The reference drive model: what each drive must hold, byte for byte,
/// and nothing else.
struct Model(Vec<BTreeMap<Vec<u8>, Vec<u8>>>);

impl Model {
    fn new(drive_count: usize) -> Self {
        Model(vec![BTreeMap::new(); drive_count])
    }

    /// The metadata record of `key` after `versions` (version, plaintext)
    /// were stored under `policy`.
    fn record(key: &str, versions: &[(u64, &[u8])], policy: Option<PolicyId>) -> Vec<u8> {
        let mut meta = ObjectMetadata::new(key);
        meta.policy_id = policy;
        for &(version, plain) in versions {
            meta.record_version(VersionMeta {
                version,
                size: plain.len() as u64,
                value_hash: pesos_crypto::sha256(plain).into(),
                policy_hash: policy.map(|p| p.0.into()).unwrap_or_default(),
            });
        }
        meta.to_bytes()
    }

    /// Everything the drives hold for `key` after `arrivals` (version,
    /// plaintext) were put in that order without a policy: the retained
    /// versions, the sealed history segments and the head.
    fn history(key: &str, arrivals: &[(u64, Vec<u8>)]) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut meta = ObjectMetadata::new(key);
        for (version, plain) in arrivals {
            meta.record_version(VersionMeta {
                version: *version,
                size: plain.len() as u64,
                value_hash: pesos_crypto::sha256(plain).into(),
                policy_hash: Default::default(),
            });
        }
        let plain: BTreeMap<u64, &Vec<u8>> = arrivals.iter().map(|(v, p)| (*v, p)).collect();
        let data = meta.versions.iter().map(|v| {
            (
                data_key(key, v.version),
                sealed(key, v.version, plain[&v.version]),
            )
        });
        let segments = meta
            .versions
            .segments()
            .map(|s| (segment_key(key, s[0].version), meta.segment_bytes(s)));
        data.chain(segments)
            .chain([(meta_key(key), meta.to_bytes())])
            .collect()
    }

    fn assert_matches(&self, drives: &[Arc<KineticDrive>]) {
        for (drive, expected) in drives.iter().zip(&self.0) {
            for (backend_key, bytes) in expected {
                let name = String::from_utf8_lossy(backend_key);
                let stored = drive
                    .peek(backend_key)
                    .unwrap_or_else(|| panic!("{} lacks {name}", drive.id()));
                assert!(
                    stored.value == *bytes,
                    "{} holds other bytes for {name}",
                    drive.id()
                );
            }
            assert_eq!(
                drive.key_count(),
                expected.len(),
                "{} holds keys the model does not",
                drive.id()
            );
        }
    }
}

/// The batches a store appended to its log, as a partition primary's
/// store appends them.
#[derive(Default)]
struct Captured(std::sync::Mutex<Vec<(String, Arc<[BatchOp]>)>>);

impl BatchLog for Captured {
    fn append(&self, placement_key: &str, ops: &Arc<[BatchOp]>) {
        let record = (placement_key.to_string(), Arc::clone(ops));
        self.0.lock().unwrap().push(record);
    }
}

impl Captured {
    fn take(&self) -> Vec<(String, Arc<[BatchOp]>)> {
        std::mem::take(&mut *self.0.lock().unwrap())
    }
}

fn deletes_served(drive: &KineticDrive) -> u64 {
    drive.info().stats.deletes
}

/// `k` at v0 on drive 0 of two alone, and the model of it: the record a
/// create that reached only drive 0 left behind. Written forced, since a
/// store refuses a create while a home replica is away.
fn v0_on_drive_0_only(drives: &[Arc<KineticDrive>]) -> Model {
    let mut model = Model::new(2);
    model.0[0].insert(data_key("k", 0), sealed("k", 0, b"v0"));
    model.0[0].insert(meta_key("k"), Model::record("k", &[(0, b"v0")], None));
    let drive = admin(&drives[0]);
    for (key, bytes) in &model.0[0] {
        drive.put(key, bytes.clone(), b"", b"pesos", true).unwrap();
    }
    model.assert_matches(drives);
    model
}

const ONE_REFUSAL: CreateStats = CreateStats {
    refusals: 1,
    rollbacks: 0,
};

// ----------------------------------------------------------------------
// Store level: refusal, rollback, faults
// ----------------------------------------------------------------------

#[test]
fn a_record_on_one_replica_only_restores_the_other_exactly_then_updates_both() {
    let drives = drives(2);
    let mut model = v0_on_drive_0_only(&drives);

    // A restarted store creates "k": drive 0 refuses, drive 1 accepts and
    // is rolled back — one forced DELETE batch there, none on drive 0 —
    // then the put proceeds as an update over v0 on both.
    let second = cold_store(&drives, 2);
    assert_eq!(second.put_object("k", b"v1", None).unwrap(), 1);
    assert_eq!(
        second.create_stats(),
        CreateStats {
            refusals: 1,
            rollbacks: 1
        }
    );
    assert_eq!(deletes_served(&drives[0]), 0);
    assert_eq!(deletes_served(&drives[1]), 1);
    let record = Model::record("k", &[(0, b"v0"), (1, b"v1")], None);
    let v1 = sealed("k", 1, b"v1");
    for drive in &mut model.0 {
        drive.insert(data_key("k", 1), v1.clone());
        drive.insert(meta_key("k"), record.clone());
    }
    model.assert_matches(&drives);
    assert_eq!(second.get_object_version("k", 0).unwrap(), b"v0");
    assert_eq!(&**second.get_object("k").unwrap().0, b"v1");
}

#[test]
fn a_fault_beside_a_refusal_fails_the_request_and_deletes_nothing() {
    let drives = drives(2);
    let model = v0_on_drive_0_only(&drives);

    // Drive 0 refuses; drive 1 drops every request. A dropped request may
    // sit on a genuine record, so nothing is undone anywhere.
    let second = cold_store(&drives, 2);
    drives[1].inject_faults(FaultPlan::errors(7, 1.0));
    assert!(matches!(
        second.put_object("k", b"v1", None),
        Err(PesosError::Backend(_))
    ));
    drives[1].clear_faults();
    assert_eq!(second.create_stats(), ONE_REFUSAL);
    assert_eq!(deletes_served(&drives[0]) + deletes_served(&drives[1]), 0);
    assert_eq!(second.resident_object_count(), 0);
    model.assert_matches(&drives);

    // With the fault gone the same put is the rollback case and lands.
    assert_eq!(second.put_object("k", b"v1", None).unwrap(), 1);
    assert_eq!(second.get_object_version("k", 0).unwrap(), b"v0");
}

#[test]
fn a_fault_beside_an_acceptance_rolls_the_acceptance_back() {
    let drives = drives(2);
    let model = v0_on_drive_0_only(&drives);

    // Drive 0, which holds the record, drops every request; drive 1 holds
    // nothing and accepts. Its copy would be a record that never saw v0,
    // so it is undone, and the request fails with the fault.
    let second = cold_store(&drives, 2);
    drives[0].inject_faults(FaultPlan::errors(7, 1.0));
    assert!(matches!(
        second.put_object("k", b"v1", None),
        Err(PesosError::Backend(_))
    ));
    drives[0].clear_faults();
    assert_eq!(
        second.create_stats(),
        CreateStats {
            refusals: 0,
            rollbacks: 1
        }
    );
    assert_eq!(deletes_served(&drives[1]), 1);
    assert_eq!(second.resident_object_count(), 0);
    model.assert_matches(&drives);

    // With the fault gone the same put is the rollback case and lands.
    assert_eq!(second.put_object("k", b"v1", None).unwrap(), 1);
    assert_eq!(second.get_object_version("k", 0).unwrap(), b"v0");
}

#[test]
fn a_torn_reply_on_an_accepted_create_then_a_retry_lands_v1_over_v0() {
    let drives = drives(1);
    let store = cold_store(&drives, 1);
    drives[0].inject_faults(FaultPlan::torn_replies(3, 1.0));
    assert!(store.put_object("k", b"torn", None).is_err());
    drives[0].clear_faults();
    // The create landed whole; the store was told it did not.
    assert_eq!(store.resident_object_count(), 0);
    assert_eq!(store.put_object("k", b"retry", None).unwrap(), 1);
    assert_eq!(store.create_stats(), ONE_REFUSAL);

    let mut model = Model::new(1);
    model.0[0].insert(data_key("k", 0), sealed("k", 0, b"torn"));
    model.0[0].insert(data_key("k", 1), sealed("k", 1, b"retry"));
    model.0[0].insert(
        meta_key("k"),
        Model::record("k", &[(0, b"torn"), (1, b"retry")], None),
    );
    model.assert_matches(&drives);
    assert_eq!(store.get_object_version("k", 0).unwrap(), b"torn");
}

#[test]
fn replaying_an_applied_create_on_a_cold_backup_is_a_no_op() {
    // The primary's create is compare-on-absent and logged once; a backup
    // applies it forced, so applying it again — warm, or on a backup
    // restarted in between — refuses nothing and changes nothing.
    let primary = cold_store(&drives(2), 2);
    let log = Arc::new(Captured::default());
    primary.attach_log(&log);
    assert_eq!(primary.put_object("k", b"v0", None).unwrap(), 0);
    let records = log.take();
    assert_eq!(records.len(), 1);
    let (key, ops) = &records[0];

    let drives = drives(2);
    let backup = cold_store(&drives, 2);
    backup.apply_run(&[(key, ops)]).unwrap();
    let mut model = Model::new(2);
    let v0 = sealed("k", 0, b"v0");
    for drive in &mut model.0 {
        drive.insert(data_key("k", 0), v0.clone());
        drive.insert(meta_key("k"), Model::record("k", &[(0, b"v0")], None));
    }
    model.assert_matches(&drives);
    backup.apply_run(&[(key, ops)]).unwrap();
    let restarted = cold_store(&drives, 2);
    restarted.apply_run(&[(key, ops)]).unwrap();
    for store in [&backup, &restarted] {
        assert_eq!(store.create_stats(), CreateStats::default());
        assert_eq!(store.resident_object_count(), 0);
    }
    assert_eq!(deletes_served(&drives[0]) + deletes_served(&drives[1]), 0);
    model.assert_matches(&drives);
    // Promoted, the backup is a cold store over the primary's record: its
    // first put is refused as a create and lands at version 1.
    assert_eq!(restarted.put_object("k", b"v1", None).unwrap(), 1);
    assert_eq!(restarted.create_stats(), ONE_REFUSAL);
}

// ----------------------------------------------------------------------
// Store level: a history of sealed segments
// ----------------------------------------------------------------------

fn value(version: u64) -> Vec<u8> {
    format!("value {version}").into_bytes()
}

#[test]
fn a_cold_store_reloads_a_segmented_history_and_deletes_all_of_it() {
    let drives = drives(2);
    let first = cold_store(&drives, 2);
    let arrivals: Vec<(u64, Vec<u8>)> = (0..300).map(|v| (v, value(v))).collect();
    for (v, plain) in &arrivals {
        assert_eq!(first.put_object("hot", plain, None).unwrap(), *v);
    }
    let mut model = Model::new(2);
    for drive in &mut model.0 {
        drive.extend(Model::history("hot", &arrivals));
    }
    model.assert_matches(&drives);

    // A restarted store reads the head and its segments and holds the very
    // record the first one does; its next put lands on top of it.
    let cold = cold_store(&drives, 2);
    let record = first.get_metadata("hot").unwrap();
    assert_eq!(cold.get_metadata("hot"), Some(record.clone()));
    let oldest = record.versions.first().unwrap().version;
    assert_eq!(
        cold.get_object_version("hot", oldest).unwrap(),
        value(oldest)
    );
    assert_eq!(cold.put_object("hot", &value(300), None).unwrap(), 300);

    // A delete leaves nothing behind: no data, no segment, no head.
    cold.delete_object("hot").unwrap();
    for drive in &drives {
        assert_eq!(drive.key_count(), 0, "{} kept orphans", drive.id());
    }
}

#[test]
fn a_missing_or_foreign_segment_is_an_unreadable_record() {
    let drives = drives(1);
    let first = cold_store(&drives, 1);
    for v in 0..20 {
        first.put_object("hot", &value(v), None).unwrap();
    }
    let at_8 = drives[0].peek(&segment_key("hot", 8)).unwrap().value;
    let at_0 = drives[0].peek(&segment_key("hot", 0)).unwrap().value;
    let admin = admin(&drives[0]);
    // Missing, then the segment at 0 filed under 8: each time the head
    // names what the drives cannot produce.
    admin
        .delete(&segment_key("hot", 8), b"pesos", true)
        .unwrap();
    for _ in 0..2 {
        let cold = cold_store(&drives, 1);
        match cold.put_object("hot", b"clobber", None) {
            Err(PesosError::Backend(why)) => assert!(why.contains("unreadable"), "{why}"),
            other => panic!("expected the unreadable-record error, got {other:?}"),
        }
        assert!(cold.get_metadata("hot").is_none());
        admin
            .put(&segment_key("hot", 8), at_0.clone(), b"", b"pesos", true)
            .unwrap();
    }
    admin
        .put(&segment_key("hot", 8), at_8, b"", b"pesos", true)
        .unwrap();
    assert_eq!(
        cold_store(&drives, 1)
            .put_object("hot", b"v20", None)
            .unwrap(),
        20
    );
}

// ----------------------------------------------------------------------
// Store level: an unreadable record is not "absent"
// ----------------------------------------------------------------------

#[test]
fn an_unreadable_record_fails_every_path_and_is_never_written_over() {
    let other = Model::record("someone-else", &[(0, b"x")], None);
    for corrupt in [b"\xff\xfe not a record".to_vec(), other] {
        let drives = drives(1);
        let first = cold_store(&drives, 1);
        first.put_object("k", b"v0", None).unwrap();
        let sealed_v0 = drives[0].peek(&data_key("k", 0)).unwrap().value;
        admin(&drives[0])
            .put(&meta_key("k"), corrupt.clone(), b"", b"pesos", true)
            .unwrap();

        let cold = cold_store(&drives, 1);
        let unreadable = |r: Result<(), PesosError>| match r {
            Err(PesosError::Backend(why)) => assert!(why.contains("unreadable"), "{why}"),
            other => panic!("expected the unreadable-record error, got {other:?}"),
        };
        unreadable(cold.put_object("k", b"clobber", None).map(drop));
        unreadable(
            cold.put_object_cas("k", b"clobber", None, Some(3))
                .map(drop),
        );
        unreadable(cold.get_object("k").map(drop));
        unreadable(cold.delete_object("k"));
        unreadable(cold.attach_policy("k", PolicyId([9u8; 32])));
        unreadable(cold.export_object("k").map(drop));
        // Best effort stays best effort.
        assert!(cold.get_metadata("k").is_none());

        // Nothing was written over it, nothing was deleted: the refused
        // creates never landed (one replica, so nothing to roll back).
        assert_eq!(drives[0].key_count(), 2);
        assert!(drives[0].peek(&data_key("k", 0)).unwrap().value == sealed_v0);
        assert!(drives[0].peek(&meta_key("k")).unwrap().value == corrupt);
        assert_eq!(cold.create_stats().rollbacks, 0);
        assert_eq!(deletes_served(&drives[0]), 0);
    }
}

#[test]
fn a_record_that_contradicts_itself_is_unreadable_and_never_written_over() {
    // Records that decode but disagree with themselves: the latest version
    // is not the last one listed, or the list runs backwards. Either way a
    // put trusting field 2 would be assigned version 3, which the record
    // already lists, and force its bytes over the retained `o/k/…03`.
    let drives = drives(1);
    let first = cold_store(&drives, 1);
    for v in 0..6u8 {
        first.put_object("k", &[v], None).unwrap();
    }
    let meta = first.get_metadata("k").unwrap();
    let record = |latest: u64, order: &[u64]| {
        let mut w = FieldWriter::new();
        w.string(1, "k").uint64(2, latest);
        for &v in order {
            let fact = meta.version(v).unwrap();
            let mut vw = FieldWriter::new();
            vw.uint64(1, fact.version)
                .uint64(2, fact.size)
                .bytes(3, fact.value_hash.as_slice())
                .bytes(4, fact.policy_hash.as_slice());
            w.message(4, &vw);
        }
        w.finish()
    };
    let sealed_v3 = drives[0].peek(&data_key("k", 3)).unwrap().value;
    for contradiction in [record(2, &[0, 1, 2, 3, 4, 5]), record(2, &[5, 4, 3, 2])] {
        admin(&drives[0])
            .put(&meta_key("k"), contradiction, b"", b"pesos", true)
            .unwrap();
        let cold = cold_store(&drives, 1);
        match cold.put_object("k", b"clobber", None) {
            Err(PesosError::Backend(why)) => assert!(why.contains("unreadable"), "{why}"),
            other => panic!("expected the unreadable-record error, got {other:?}"),
        }
        assert!(drives[0].peek(&data_key("k", 3)).unwrap().value == sealed_v3);
        assert_eq!(drives[0].key_count(), 7);
    }
}

#[test]
fn a_refused_create_with_no_record_behind_it_fails() {
    // An orphaned `o/<key>/0` (the tail of an interrupted multi-batch
    // import) makes the drive refuse the create while no record exists.
    // The store does not guess: it fails rather than force a write.
    let drives = drives(1);
    admin(&drives[0])
        .put(&data_key("k", 0), b"orphan".to_vec(), b"", b"pesos", true)
        .unwrap();
    let store = cold_store(&drives, 1);
    assert!(matches!(
        store.put_object("k", b"v0", None),
        Err(PesosError::Backend(_))
    ));
    assert_eq!(drives[0].key_count(), 1);
    assert!(drives[0].peek(&data_key("k", 0)).unwrap().value == b"orphan");
}

// ----------------------------------------------------------------------
// Controller level: the policy stays closed
// ----------------------------------------------------------------------

const ACL: &str = "read :- sessionKeyIs(\"alice\")\n\
                   update :- sessionKeyIs(\"alice\")\n\
                   delete :- sessionKeyIs(\"alice\")";

/// Makes `key` cold on `c` while the drives keep it: a delete that fails
/// with every drive unreachable forgets the key (the drives are the
/// witness of what it left behind) and deletes nothing.
fn forget(c: &PesosController, key: &str) {
    for drive in c.store().drives().iter() {
        drive.set_online(false);
    }
    assert!(c.store().delete_object(key).is_err());
    for drive in c.store().drives().iter() {
        drive.set_online(true);
    }
}

/// A create is refused while a home replica of its key is away: the drive
/// asked in its place never held the key, so its acceptance is no witness
/// that the key is absent, and a cold controller would hand the key to the
/// first writer past the policy of the record the home drive keeps.
#[test]
fn a_create_is_refused_while_a_home_replica_is_away() {
    let c = PesosController::new(ControllerConfig::native_simulator(2)).unwrap();
    c.register_client("alice");
    c.register_client("eve");
    let acl = c.put_policy("alice", ACL).unwrap();
    c.put("alice", "doc", b"mine", Some(acl), None, &[])
        .unwrap();
    forget(&c, "doc");
    let home = placement("doc", 2, 1)[0];
    let drives: Vec<_> = c.store().drives().iter().cloned().collect();
    drives[home].set_online(false);
    assert!(matches!(
        c.put("eve", "doc", b"stolen", None, None, &[]),
        Err(PesosError::Backend(_))
    ));
    drives[home].set_online(true);
    assert_eq!(&**c.get("alice", "doc", &[]).unwrap().0, b"mine");
    let holders: Vec<usize> = (0..2)
        .filter(|&i| drives[i].peek(&meta_key("doc")).is_some())
        .collect();
    assert_eq!(holders, [home]);
}

#[test]
fn a_cold_controller_cannot_turn_a_denied_update_into_a_create() {
    let mut config = ControllerConfig::native_simulator(3);
    config.replication_factor = 2;
    // Unencrypted objects are `0x00 ‖ plaintext` on the drives, so the
    // model needs no key material.
    config.encrypt_objects = false;
    let c = PesosController::new(config).unwrap();
    let drives: Vec<_> = c.store().drives().iter().cloned().collect();
    c.register_client("alice");
    c.register_client("eve");
    let acl = c.put_policy("alice", ACL).unwrap();
    c.put("alice", "doc", b"v0", Some(acl), None, &[]).unwrap();
    c.put("alice", "doc", b"v1", None, None, &[]).unwrap();

    let plain = |value: &[u8]| [&[0u8], value].concat();
    let mut model = Model::new(3);
    let hex = acl.to_hex();
    for drive in placement(hex.as_str(), 3, 2) {
        model.0[drive].insert(
            policy_key(&hex),
            c.store().load_policy(&acl).unwrap().to_bytes(),
        );
    }
    let mut versions: Vec<(u64, &[u8])> = vec![(0, b"v0"), (1, b"v1")];
    let expect = |model: &mut Model, versions: &[(u64, &[u8])]| {
        for drive in placement("doc", 3, 2) {
            for &(version, value) in versions {
                model.0[drive].insert(data_key("doc", version), plain(value));
            }
            model.0[drive].insert(meta_key("doc"), Model::record("doc", versions, Some(acl)));
        }
    };
    expect(&mut model, &versions);
    model.assert_matches(&drives);

    // Restart. The denied client's put finds no record in the map; its
    // "nothing to check" is provisional, the drives refuse the create, and
    // the real record's policy denies it. Nothing moved on any replica.
    forget(&c, "doc");
    assert!(matches!(
        c.put("eve", "doc", b"stolen", None, None, &[]),
        Err(PesosError::PolicyDenied(_))
    ));
    assert_eq!(c.store().create_stats(), ONE_REFUSAL);
    model.assert_matches(&drives);
    // The asynchronous put is the same put run later: accepted on the same
    // provisional decision, denied on the poll.
    forget(&c, "doc");
    let log = Arc::new(Captured::default());
    c.store().attach_log(&log);
    let op = c
        .put_async("eve", "doc", b"stolen".to_vec(), None, None, &[])
        .unwrap();
    c.drain_async();
    assert!(log.take().is_empty(), "a denied write was logged");
    let denied = PesosError::PolicyDenied(String::new()).to_string();
    assert!(matches!(
        c.poll_result("eve", op),
        Some(AsyncResult::Failed { reason }) if reason.starts_with(&denied)
    ));
    model.assert_matches(&drives);
    // Supplying a policy of her own, or claiming the create explicitly,
    // changes nothing.
    let open = c
        .put_policy("eve", "update :- sessionKeyIs(\"eve\")")
        .unwrap();
    for drive in placement(open.to_hex().as_str(), 3, 2) {
        model.0[drive].insert(
            policy_key(&open.to_hex()),
            c.store().load_policy(&open).unwrap().to_bytes(),
        );
    }
    forget(&c, "doc");
    for expected_version in [None, Some(0), Some(2)] {
        assert!(matches!(
            c.put("eve", "doc", b"stolen", Some(open), expected_version, &[]),
            Err(PesosError::PolicyDenied(_))
        ));
        forget(&c, "doc");
    }
    model.assert_matches(&drives);

    // The allowed client's put lands at latest + 1 over the history.
    assert_eq!(c.put("alice", "doc", b"v2", None, None, &[]).unwrap(), 2);
    versions.push((2, b"v2"));
    expect(&mut model, &versions);
    model.assert_matches(&drives);
    assert_eq!(c.store().create_stats().rollbacks, 0);
    assert_eq!(c.get_version("alice", "doc", 0, &[]).unwrap(), b"v0");
}

#[test]
fn a_drive_fault_is_never_read_as_no_object_no_policy() {
    let c = PesosController::new(ControllerConfig::native_simulator(1)).unwrap();
    let drive = Arc::clone(c.store().drives().get(0).unwrap());
    c.register_client("alice");
    c.register_client("eve");
    let acl = c.put_policy("alice", ACL).unwrap();
    c.put("alice", "doc", b"secret", Some(acl), None, &[])
        .unwrap();

    // Every attempt starts cold, with the drive dropping half of what it
    // is asked. The only acceptable outcomes are the denial (the lookup
    // was answered) and the fault (it was not).
    drive.inject_faults(FaultPlan::errors(11, 0.5));
    let (mut denied, mut faulted) = (0, 0);
    let mut closed = |outcome: Result<(), PesosError>| match outcome {
        Err(PesosError::PolicyDenied(_)) => denied += 1,
        Err(PesosError::Backend(_)) => faulted += 1,
        other => panic!("a denied client's request ended as {other:?}"),
    };
    for attempt in 0..400 {
        forget(&c, "doc");
        closed(match attempt % 4 {
            0 => c.get("eve", "doc", &[]).map(drop),
            1 => c.get_version("eve", "doc", 0, &[]).map(drop),
            2 => c.attach_policy("eve", "doc", acl, &[]),
            _ => c
                .prepare_commit("eve", vec!["doc".into()], Vec::new())
                .and_then(|prepared| c.commit_prepared(prepared))
                .map(drop),
        });
    }
    for _ in 0..50 {
        forget(&c, "doc");
        closed(c.delete("eve", "doc", &[]));
    }
    drive.clear_faults();
    assert!(
        denied > 0 && faulted > 0,
        "{denied} denied, {faulted} faulted"
    );
    assert_eq!(deletes_served(&drive), 0);
    assert_eq!(&**c.get("alice", "doc", &[]).unwrap().0, b"secret");
}

/// A policy that reads its log: a drive that cannot produce the log
/// version the check needs leaves the check without an answer. At the
/// parent commit the view read the fault as "no tuples" and denied.
#[test]
fn a_drive_fault_under_an_objsays_lookup_is_a_backend_error_not_a_decision() {
    let c = PesosController::new(ControllerConfig::native_simulator(1)).unwrap();
    let drive = Arc::clone(c.store().drives().get(0).unwrap());
    for client in ["alice", "bob", "eve"] {
        c.register_client(client);
    }
    // `pinned` names the log version it reads; `searched` walks back from
    // the latest. Bob's grant is in version 0 — once version 1 is written
    // the object cache no longer holds it — Alice's in the cached latest.
    let pinned = "read :- sessionKeyIs(U) and objSays(LOG, 0, 'grant'(U))\n\
                  update :- sessionKeyIs(\"alice\")";
    let searched = "read :- sessionKeyIs(U) and objSays(LOG, V, 'grant'(U))\n\
                    update :- sessionKeyIs(\"alice\")";
    for (key, policy) in [("pinned", pinned), ("searched", searched)] {
        let policy = c.put_policy("alice", policy).unwrap();
        let log = format!("{key}.log");
        c.put("alice", log.as_str(), b"grant(\"bob\")", None, None, &[])
            .unwrap();
        c.put("alice", log.as_str(), b"grant(\"alice\")", None, None, &[])
            .unwrap();
        c.put("alice", key, b"secret", Some(policy), None, &[])
            .unwrap();
    }
    let read = |client: &str, key: &str| c.get(client, key, &[]).map(drop);
    let healthy = |c: &PesosController| {
        assert_eq!(c.get("bob", "pinned", &[]).map(drop), Ok(()));
        assert_eq!(c.get("bob", "searched", &[]).map(drop), Ok(()));
        for key in ["pinned", "searched"] {
            assert!(matches!(
                c.get("eve", key, &[]),
                Err(PesosError::PolicyDenied(_))
            ));
        }
    };
    healthy(&c);

    drive.inject_faults(FaultPlan::errors(5, 1.0));
    // Whoever's answer lies in the uncached version gets neither a grant
    // nor a denial...
    for (client, key) in [
        ("bob", "pinned"),
        ("eve", "pinned"),
        ("bob", "searched"),
        ("eve", "searched"),
    ] {
        assert!(
            matches!(read(client, key), Err(PesosError::Backend(_))),
            "{client} reading {key}: {:?}",
            read(client, key)
        );
    }
    // ...and a check the cached version settles needs no drive at all.
    assert_eq!(read("alice", "searched"), Ok(()));
    // So does one that never learns whether the log exists.
    forget(&c, "searched.log");
    assert!(matches!(
        read("alice", "searched"),
        Err(PesosError::Backend(_))
    ));
    drive.clear_faults();
    healthy(&c);
}

#[test]
fn a_refusal_at_commit_proceeds_inside_the_store() {
    // Prepare asks the drives when it promises. If the key appears
    // behind the map's back before the write runs (here: a put the map
    // then forgets through a failed delete), the write is refused,
    // re-reads, and lands over what is there.
    let c = PesosController::new(ControllerConfig::native_simulator(1)).unwrap();
    c.register_client("alice");
    let write = TxWrite {
        key: "k".into(),
        value: b"from the tx".to_vec(),
    };
    let prepared = c.prepare_commit("alice", Vec::new(), vec![write]).unwrap();
    c.store().put_object("k", b"v0", None).unwrap();
    forget(&c, "k");
    assert_eq!(c.commit_prepared(prepared).unwrap().write_versions, [1]);
    assert_eq!(c.store().create_stats(), ONE_REFUSAL);
    assert_eq!(c.get_version("alice", "k", 0, &[]).unwrap(), b"v0");
    assert_eq!(&**c.get("alice", "k", &[]).unwrap().0, b"from the tx");
}
