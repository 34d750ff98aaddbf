//! The threads a deployment starts: a controller owns none of its own, so
//! a single controller adds only its host pool's service threads, and a
//! cluster adds its pool's plus one replication shipper per backup.
//!
//! One test in its own binary, so that no other test starts or ends a
//! thread while it counts the process's threads.

#![cfg(target_os = "linux")]

use pesos_cluster::{ClusterConfig, ControllerCluster};
use pesos_core::{ControllerConfig, PesosController};

/// Threads of this process now.
fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task")
        .count()
}

#[test]
fn a_deployment_starts_its_pool_and_shippers_and_nothing_else() {
    let config = ControllerConfig::sgx_simulator(1);
    let before = threads();
    let controller = PesosController::new(config.clone()).unwrap();
    assert_eq!(threads() - before, config.syscall_threads);

    // The controller stays up, so none of its threads exits while the
    // cluster is counted.
    let (controllers, backups) = (4, 1);
    let mut config = ClusterConfig::sgx_simulator(controllers, 1);
    config.backups_per_partition = backups;
    let before = threads();
    let cluster = ControllerCluster::new(config.clone()).unwrap();
    let added = threads() - before;
    let pool = cluster.host_pool_stats().threads;
    // Primaries and backups each bring their service threads to the pool.
    assert_eq!(
        pool,
        controllers * (1 + backups) * config.controller.syscall_threads
    );
    let shippers = controllers * backups;
    assert_eq!(added, pool + shippers, "pool {pool}, shippers {shippers}");
    assert_eq!(added, 36);
    drop((cluster, controller));
}
