//! Prefix-aware placement: sibling objects (`<k>`, `<k>.log`, `<k>.v2`)
//! share a placement group and therefore a partition, on every topology a
//! sequence of joins and removals can produce — which is what lets an
//! `objSays` policy reference its log object on a multi-controller cluster
//! without the old "referenced objects must co-hash" restriction.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

use pesos_cluster::{ClusterConfig, ControllerCluster};
use pesos_core::{key_hash, PesosError};
use proptest::prelude::*;

fn co_routed_keys(base: &str) -> [String; 3] {
    [
        base.to_string(),
        format!("{base}.log"),
        format!("{base}.v2"),
    ]
}

proptest! {
    // Placement groups stay co-routed and readable across arbitrary
    // add/remove churn, including groups whose base key is dotted or
    // delimiter-shaped.
    #[test]
    fn placement_groups_co_route_under_topology_churn(
        bases in proptest::collection::vec("[a-z]{1,6}", 1..5),
        churn in proptest::collection::vec(any::<u8>(), 1..5)
    ) {
        let cluster =
            ControllerCluster::new(ClusterConfig::native_simulator(2, 1)).unwrap();
        cluster.register_client("alice");
        for base in &bases {
            for key in co_routed_keys(base) {
                cluster
                    .put("alice", &key, key.clone().into_bytes(), None, None, &[])
                    .unwrap();
            }
        }
        let assert_grouped = |stage: &str| {
            for base in &bases {
                let keys = co_routed_keys(base);
                let owner = cluster.partition_of(&keys[0]);
                for key in &keys {
                    prop_assert_eq!(
                        cluster.partition_of(key),
                        owner,
                        "{} split the group of {} ({})",
                        stage,
                        base,
                        key
                    );
                    let (value, _) = cluster
                        .get("alice", key, &[])
                        .unwrap_or_else(|e| panic!("{stage}: lost {key}: {e}"));
                    prop_assert_eq!(&**value, key.as_bytes());
                }
            }
            Ok(())
        };
        assert_grouped("bootstrap")?;
        for op in churn {
            // Grow on even opcodes, shrink on odd ones (growing instead
            // when already at the single-partition floor).
            if op % 2 == 0 || cluster.partition_count() == 1 {
                cluster.add_controller().unwrap();
            } else {
                let index = op as usize % cluster.partition_count();
                cluster.remove_controller(index).unwrap();
            }
            assert_grouped("churn step")?;
        }
    }
}

/// The end-to-end MAL case the prefix routing exists for: a policy whose
/// `read` rule consults the object's `.log` sibling (`objSays`) enforces
/// correctly on a 4-controller cluster — for a record whose log would land
/// on a *different* partition under the old full-key routing — and keeps
/// enforcing across topology churn, including reads racing the drains.
#[test]
fn objsays_policy_reads_sibling_log_across_topology_churn() {
    let cluster = Arc::new(ControllerCluster::new(ClusterConfig::native_simulator(4, 1)).unwrap());
    let alice = "alice";
    cluster.register_client(alice);
    cluster.register_client("eve");

    // Pick a record whose log object full-key-hashes into a different
    // quarter of the hash space than the record itself: under the old
    // full-key routing the even 4-partition table would place them on
    // different controllers (top two hash bits select the partition), so
    // this policy demonstrably only works because of prefix routing.
    let record = (0..)
        .map(|i| format!("mal/patient-{i}"))
        .find(|r| key_hash(r) >> 62 != key_hash(&format!("{r}.log")) >> 62)
        .expect("some record key separates from its log under full-key hashing");
    let log = format!("{record}.log");
    assert_eq!(
        cluster.partition_of(&record),
        cluster.partition_of(&log),
        "prefix routing must co-route the group regardless of full-key hashes"
    );

    let mal_policy = cluster
        .put_policy(
            alice,
            "read :- objId(THIS, O) and objId(LOG, L) and currVersion(O, V) and \
                     sessionKeyIs(U) and objSays(L, LV, 'read'(O, V, U))\n\
             update :- sessionKeyIs(\"alice\")\n\
             delete :- sessionKeyIs(\"alice\")",
        )
        .unwrap();
    cluster
        .put(
            alice,
            &record,
            b"blood type: 0+",
            Some(mal_policy),
            None,
            &[],
        )
        .unwrap();
    cluster.put(alice, &log, b"", None, None, &[]).unwrap();

    // Unlogged access is denied; the announced access is granted.
    assert!(matches!(
        cluster.get(alice, &record, &[]),
        Err(PesosError::PolicyDenied(_))
    ));
    let entry = format!("read(\"{record}\",0,\"alice\")\n");
    cluster
        .put(alice, &log, entry.into_bytes(), None, None, &[])
        .unwrap();
    assert_eq!(
        &**cluster.get(alice, &record, &[]).unwrap().0,
        b"blood type: 0+"
    );
    // An intent for alice authorizes nobody else.
    assert!(matches!(
        cluster.get("eve", &record, &[]),
        Err(PesosError::PolicyDenied(_))
    ));

    // Topology churn with the reads racing the drains: every granted read
    // must keep succeeding mid-migration (the demand-pull path moves the
    // whole placement group, so the policy's view of the log can never go
    // missing), and eve must stay denied.
    let start = Arc::new(Barrier::new(2));
    let stop = Arc::new(AtomicBool::new(false));
    let reader = {
        let cluster = Arc::clone(&cluster);
        let record = record.clone();
        let start = Arc::clone(&start);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            start.wait();
            let mut reads = 0usize;
            while !stop.load(Ordering::Relaxed) {
                let (value, _) = cluster
                    .get("alice", &record, &[])
                    .unwrap_or_else(|e| panic!("logged read failed mid-churn: {e}"));
                assert_eq!(&*value, b"blood type: 0+");
                assert!(matches!(
                    cluster.get("eve", &record, &[]),
                    Err(PesosError::PolicyDenied(_))
                ));
                reads += 1;
            }
            reads
        })
    };
    start.wait();
    cluster.add_controller().unwrap();
    cluster.add_controller().unwrap();
    cluster.remove_controller(1).unwrap();
    cluster.remove_controller(0).unwrap();
    stop.store(true, Ordering::Relaxed);
    let reads = reader.join().expect("reader panicked");
    assert!(reads > 0, "reader never raced the churn");

    // After the churn settles: still one partition for the group, still
    // enforced, and the audit trail is intact.
    assert_eq!(cluster.partition_of(&record), cluster.partition_of(&log));
    assert_eq!(
        &**cluster.get(alice, &record, &[]).unwrap().0,
        b"blood type: 0+"
    );
    assert!(matches!(
        cluster.get("eve", &record, &[]),
        Err(PesosError::PolicyDenied(_))
    ));
    let (audit, _) = cluster.get(alice, &log, &[]).unwrap();
    assert!(String::from_utf8_lossy(&audit).contains("read("));
}
