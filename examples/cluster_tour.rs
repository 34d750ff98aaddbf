//! Tour of the multi-controller cluster layer: partitioned routing, a
//! cross-partition transaction, and an online rebalance under live data.
//!
//! ```bash
//! cargo run --release --example cluster_tour
//! ```

use pesos::cluster::{ClusterConfig, ControllerCluster};
use pesos::core::ClientRequest;
use pesos::wire::{RestMethod, RestRequest};

fn main() {
    // Three controllers, each a full Pesos instance with its own simulated
    // enclave and drive, splitting the key-hash space three ways.
    let cluster =
        ControllerCluster::new(ClusterConfig::native_simulator(3, 1)).expect("cluster bootstrap");
    let alice = cluster.register_client("alice");

    // Writes route by the same placement hash a single controller already
    // computes; keys spread over the partitions.
    for i in 0..9 {
        cluster
            .put(
                &alice,
                &format!("tour/{i}"),
                format!("value-{i}").into_bytes(),
                None,
                None,
                &[],
            )
            .expect("put");
    }
    for i in 0..9 {
        let key = format!("tour/{i}");
        println!("{key} -> partition {}", cluster.partition_of(&key));
    }

    // A transaction spanning partitions commits atomically via two-phase
    // commit; its outcome is queryable afterwards from any router.
    let tx = cluster.create_tx(&alice).expect("create tx");
    cluster.add_read(&alice, tx, "tour/0").expect("add read");
    cluster
        .add_write(&alice, tx, "tour/1", b"transferred".to_vec())
        .expect("add write");
    cluster
        .add_write(&alice, tx, "tour/8", b"transferred".to_vec())
        .expect("add write");
    let outcome = cluster.commit_tx(&alice, tx).expect("commit");
    println!(
        "cross-partition tx committed: read {:?}, wrote versions {:?}",
        String::from_utf8_lossy(&outcome.read_values[0]),
        outcome.write_versions
    );
    assert_eq!(cluster.check_results(&alice, tx).expect("results"), outcome);

    // Online rebalance: a fourth controller joins, the widest hash range
    // splits, and the affected keys migrate while the data stays readable.
    let partitions = cluster.add_controller().expect("add controller");
    println!("rebalanced to {partitions} partitions");
    for i in 0..9 {
        let key = format!("tour/{i}");
        let (value, _) = cluster.get(&alice, &key, &[]).expect("get after rebalance");
        println!(
            "{key} -> partition {} ({})",
            cluster.partition_of(&key),
            String::from_utf8_lossy(&value)
        );
    }

    // Per-partition cost accounting, one logical enclave per controller,
    // read the way an operator does: GET /stats/partitions/<i>/...
    let stat = |path: String| {
        let request = RestRequest::new(RestMethod::Stats, path);
        let response = cluster.handle(&alice, ClientRequest::new(request));
        String::from_utf8_lossy(&response.value).trim().to_string()
    };
    for i in 0..partitions {
        println!(
            "/stats/partitions/{i}: range from {}, {} requests, {} syscalls handed off \
             ({} hand-off sleeps), {} run as exits",
            stat(format!("partitions/{i}/range/start")),
            stat(format!("partitions/{i}/requests")),
            stat(format!("partitions/{i}/sgx/asyscalls_submitted")),
            stat(format!("partitions/{i}/sgx/asyscall_parks")),
            stat(format!("partitions/{i}/sgx/asyscall_exits")),
        );
    }
}
