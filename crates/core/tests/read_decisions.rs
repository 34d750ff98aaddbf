//! Remembered read decisions against fresh evaluations.
//!
//! A read that presents no certificate may be answered by a decision the
//! store remembered beside its policy, for as long as the write generation
//! of every record that decision looked up still holds (`store` module
//! docs, "Read decisions are remembered"). The property below runs
//! generated histories through a controller — puts, compare-and-swap
//! updates, log appends, deletes and re-creates at version 0, policy
//! attachments, cold restarts over the same drives — and checks every read
//! against a fresh evaluation of the record's policy over the same store at
//! the same point, by several principals. The other tests pin what the
//! memo is used for and what it never touches.

use std::sync::Arc;

use pesos_core::{
    ControllerConfig, DecisionStats, ObjectCrypter, PesosController, PesosError, PesosStore,
    StoreOptions,
};
use pesos_crypto::{CertificateBuilder, KeyPair};
use pesos_kinetic::{ClientConfig, DriveConfig, DriveSet, KineticClient, KineticDrive};
use pesos_policy::{Operation, PolicyId, RequestContext, Value};
use pesos_sgx::{AsyscallInterface, Enclave, EnclaveConfig, ExecutionMode, SgxCostModel};
use proptest::prelude::*;

const MASTER_KEY: [u8; 32] = [3u8; 32];
const ADMIN: &str = "admin";
const READERS: [&str; 3] = ["alice", "bob", "carol"];
const OBJECTS: u32 = 3;
const SHARED: &str = "shared.acl";

/// The read clauses a history attaches; each policy lets only the admin
/// update or delete. They differ in what a read looks up: the searched
/// log, its latest version only, the object's own record beside the log,
/// a log every object shares, or nothing at all.
const READS: [&str; 5] = [
    "sessionKeyIs(U) and objSays(LOG, V, 'grant'(U))",
    "objId(LOG, L) and currVersion(L, V) and sessionKeyIs(U) and objSays(L, V, 'grant'(U))",
    "currVersion(THIS, V) and le(V, 1) and sessionKeyIs(U) and objSays(LOG, W, 'grant'(U))",
    "sessionKeyIs(U) and objSays(\"shared.acl\", V, 'grant'(U))",
    "sessionKeyIs(\"alice\") or sessionKeyIs(\"bob\")",
];

fn policy_source(read: &str) -> String {
    format!(
        "read :- {read}\n\
         update :- sessionKeyIs(\"{ADMIN}\")\n\
         delete :- sessionKeyIs(\"{ADMIN}\")"
    )
}

fn drives(count: usize) -> Vec<Arc<KineticDrive>> {
    (0..count)
        .map(|i| Arc::new(KineticDrive::new(DriveConfig::simulator(format!("kd-{i}")))))
        .collect()
}

/// A controller over `drives` that has never seen them (empty map, empty
/// caches), as after a restart. One lock shard, so the 16-entry policy
/// cache keeps at most 16 decisions and every key shares 256 generation
/// slots.
fn controller(drives: &[Arc<KineticDrive>]) -> PesosController {
    let cost = pesos_sgx::cost::ModeCost::new(ExecutionMode::Native, SgxCostModel::zero());
    let clients = drives.iter().map(|d| {
        Arc::new(KineticClient::connect(Arc::clone(d), ClientConfig::factory_default()).unwrap())
    });
    let store = PesosStore::new(
        DriveSet::from_drives(drives.to_vec()),
        clients.collect(),
        ObjectCrypter::new(&MASTER_KEY, true),
        StoreOptions {
            object_cache_bytes: 1024 * 1024,
            policy_cache_capacity: 16,
            replication_factor: drives.len(),
            lock_shards: 1,
        },
        Arc::new(AsyscallInterface::new(2, 16, cost)),
        Arc::new(Enclave::create(EnclaveConfig::default(), cost).unwrap()),
    );
    let config = ControllerConfig::native_simulator(drives.len());
    let c = PesosController::with_store(config, Arc::new(store));
    for client in READERS.iter().chain([&ADMIN]) {
        c.register_client(client);
    }
    c
}

/// What a read of an object came to.
#[derive(Debug, PartialEq, Eq)]
enum Answer {
    Granted,
    Denied(String),
    Absent,
}

/// The controller's answer, the memo's path included.
fn served(c: &PesosController, reader: &str, key: &str) -> Answer {
    match c.get(reader, key, &[]) {
        Ok(_) => Answer::Granted,
        Err(PesosError::PolicyDenied(reason)) => Answer::Denied(reason),
        Err(PesosError::ObjectNotFound(_)) => Answer::Absent,
        Err(other) => panic!("{reader} reading {key}: {other}"),
    }
}

/// The answer a fresh evaluation gives now: the policy of the record the
/// store holds, evaluated over a new view, no remembered decision asked.
fn fresh(c: &PesosController, reader: &str, key: &str) -> Answer {
    let Some(meta) = c.store().get_metadata(key) else {
        return Answer::Absent;
    };
    let Some(id) = meta.policy_id else {
        return Answer::Granted;
    };
    let policy = c.store().load_policy(&id).unwrap();
    let ctx = RequestContext::new(Operation::Read)
        .with_session_key(reader)
        .bind("THIS", Value::Str(key.to_string()))
        .bind("LOG", Value::Str(format!("{key}.log")));
    let decision = policy.evaluate(Operation::Read, &ctx, &c.store().view());
    if decision.allowed {
        Answer::Granted
    } else {
        Answer::Denied(decision.reason)
    }
}

/// A log granting the readers whose bits are set in `grants`.
fn log_contents(grants: u32) -> Vec<u8> {
    let mut text = String::from("note(\"log\")\n");
    for (bit, reader) in READERS.iter().enumerate() {
        if grants & (1 << bit) != 0 {
            text.push_str(&format!("grant(\"{reader}\")\n"));
        }
    }
    text.into_bytes()
}

fn decision_stats(c: &PesosController) -> DecisionStats {
    c.store().decision_stats()
}

fn add(total: &mut DecisionStats, c: &PesosController) {
    let stats = decision_stats(c);
    total.evaluations += stats.evaluations;
    total.hits += stats.hits;
    total.stale += stats.stale;
}

/// Runs one history, each step drawn from a word of `steps`, and returns
/// how its controllers decided.
fn run_history(steps: &[u32]) -> Result<DecisionStats, TestCaseError> {
    let drives = drives(2);
    let mut c = controller(&drives);
    let policies: Vec<PolicyId> = READS
        .iter()
        .map(|read| c.put_policy(ADMIN, &policy_source(read)).unwrap())
        .collect();
    let mut total = DecisionStats::default();
    for (index, &word) in steps.iter().enumerate() {
        let object = format!("o{}", (word >> 4) % OBJECTS);
        let log = format!("{object}.log");
        let arg = word >> 8;
        let policy = policies[arg as usize % policies.len()];
        let value = format!("value {index}").into_bytes();
        // Writes may be refused (a stale compare-and-swap, a delete of an
        // absent object); whatever they leave, the reads are checked.
        match word % 16 {
            0 => {
                let created = c.store().get_metadata(object.as_str()).is_none();
                let put = c.put(ADMIN, object.as_str(), &value, Some(policy), None, &[]);
                if created {
                    prop_assert_eq!(put, Ok(0), "a re-create starts at version 0");
                }
            }
            1 => {
                let next = c
                    .store()
                    .get_metadata(object.as_str())
                    .map_or(0, |m| m.latest_version + 1);
                let expected = next + u64::from(arg % 3 == 0);
                let _ = c.put(ADMIN, object.as_str(), &value, None, Some(expected), &[]);
            }
            2 | 3 => {
                let _ = c.put(ADMIN, log.as_str(), log_contents(arg), None, None, &[]);
            }
            4 => {
                let _ = c.put(ADMIN, SHARED, log_contents(arg), None, None, &[]);
            }
            5 => {
                let target = if arg % 2 == 0 { &object } else { &log };
                let _ = c.delete(ADMIN, target.as_str(), &[]);
            }
            6 => {
                let _ = c.attach_policy(ADMIN, object.as_str(), policy, &[]);
            }
            7 if arg % 4 == 0 => {
                add(&mut total, &c);
                c = controller(&drives);
            }
            _ => {
                let reader = READERS[arg as usize % READERS.len()];
                let got = served(&c, reader, &object);
                prop_assert_eq!(
                    got,
                    fresh(&c, reader, &object),
                    "step {}: {} reading {}",
                    index,
                    reader,
                    object
                );
            }
        }
    }
    add(&mut total, &c);
    Ok(total)
}

#[test]
fn every_read_answers_as_a_fresh_evaluation_would() {
    let mut total = DecisionStats::default();
    proptest::run_cases("every_read_answers_as_a_fresh_evaluation_would", |rng| {
        let steps = proptest::collection::vec(any::<u32>(), 40..120).generate(rng);
        let stats = run_history(&steps)?;
        total.evaluations += stats.evaluations;
        total.hits += stats.hits;
        total.stale += stats.stale;
        Ok(())
    });
    // The histories exercised the memo both ways.
    println!("{total:?}");
    assert!(total.hits > 0 && total.stale > 0, "{total:?}");
}

/// One object under a policy that reads the latest version of its log,
/// and the log, written by the admin; alice is granted, bob is not.
fn logged_object() -> PesosController {
    let c = controller(&drives(1));
    let policy = c.put_policy(ADMIN, &policy_source(READS[1])).unwrap();
    c.put(ADMIN, "doc.log", log_contents(0b001), None, None, &[])
        .unwrap();
    c.put(ADMIN, "doc", b"text", Some(policy), None, &[])
        .unwrap();
    c
}

#[test]
fn a_repeated_read_skips_the_evaluation_until_its_log_changes() {
    let c = logged_object();
    let stats = |evaluations, hits, stale| DecisionStats {
        evaluations,
        hits,
        stale,
    };
    // Two puts under no policy to check, then alice's first read evaluates
    // and her second is remembered; bob's denial likewise.
    assert_eq!(served(&c, "alice", "doc"), Answer::Granted);
    assert_eq!(served(&c, "alice", "doc"), Answer::Granted);
    assert!(matches!(served(&c, "bob", "doc"), Answer::Denied(_)));
    assert!(matches!(served(&c, "bob", "doc"), Answer::Denied(_)));
    assert_eq!(decision_stats(&c), stats(2, 2, 0));
    // An update of the object under the policy is evaluated, and the read
    // decisions, which never looked the object up, still hold.
    c.put(ADMIN, "doc", b"text 2", None, None, &[]).unwrap();
    assert_eq!(served(&c, "alice", "doc"), Answer::Granted);
    assert_eq!(decision_stats(&c), stats(3, 3, 0));
    // A new log version revokes alice and grants bob: both memos are
    // stale, both reads evaluate again and now answer the other way.
    c.put(ADMIN, "doc.log", log_contents(0b010), None, None, &[])
        .unwrap();
    assert!(matches!(served(&c, "alice", "doc"), Answer::Denied(_)));
    assert_eq!(served(&c, "bob", "doc"), Answer::Granted);
    assert_eq!(decision_stats(&c), stats(5, 3, 2));
    assert_eq!(c.store().policy_cache_stats().decisions, 2);
}

#[test]
fn reads_that_carry_certificates_never_use_the_memo() {
    let c = logged_object();
    // A policy that also grants whoever presents the authority's claim.
    let authority = KeyPair::from_seed(b"read-decisions-authority");
    let hex = pesos_crypto::hex_encode(&authority.public().to_bytes());
    let read = format!(
        "{} or certificateSays(\"{hex}\", 'reader'(\"bob\"))",
        READS[1]
    );
    let policy = c.put_policy(ADMIN, &policy_source(&read)).unwrap();
    c.attach_policy(ADMIN, "doc", policy, &[]).unwrap();
    let cert = CertificateBuilder::new("stmt", authority.public())
        .claim("reader", vec!["bob".into()])
        .validity(0, u64::MAX)
        .issue("authority", &authority);
    let certs = [cert];

    let before = decision_stats(&c);
    // Bob is granted by his certificate, each time by an evaluation...
    assert!(c.get("bob", "doc", &certs).is_ok());
    assert!(c.get("bob", "doc", &certs).is_ok());
    let after = decision_stats(&c);
    assert_eq!(after.evaluations - before.evaluations, 2);
    assert_eq!((after.hits, after.stale), (before.hits, before.stale));
    assert_eq!(c.store().policy_cache_stats().decisions, 0);
    // ...which no certificate-less read of his inherits.
    assert!(matches!(served(&c, "bob", "doc"), Answer::Denied(_)));
    assert!(matches!(served(&c, "bob", "doc"), Answer::Denied(_)));
    // Nor does a read with a certificate inherit that remembered denial.
    assert!(c.get("bob", "doc", &certs).is_ok());
    let last = decision_stats(&c);
    assert_eq!(last.evaluations - after.evaluations, 2);
    assert_eq!(last.hits - after.hits, 1);
}

#[test]
fn a_decision_that_looked_nothing_up_is_evaluated_each_time() {
    let c = controller(&drives(1));
    let policy = c.put_policy(ADMIN, &policy_source(READS[4])).unwrap();
    c.put(ADMIN, "doc", b"text", Some(policy), None, &[])
        .unwrap();
    for _ in 0..3 {
        assert_eq!(served(&c, "alice", "doc"), Answer::Granted);
        assert!(matches!(served(&c, "carol", "doc"), Answer::Denied(_)));
    }
    let stats = decision_stats(&c);
    assert_eq!((stats.evaluations, stats.hits), (6, 0));
    assert_eq!(c.store().policy_cache_stats().decisions, 0);
}
