//! The full YCSB workload suite against a 4-controller cluster.
//!
//! The runner drives the cluster through the same [`RequestEndpoint`]
//! surface it drives a bare controller through, so these runs exercise
//! routing, shared sessions and per-partition enforcement under every
//! workload mix the paper reports (A: 50/50, B: 95/5, C: read-only,
//! D: read-latest with inserts).

use std::sync::Arc;

use pesos_cluster::{ClusterConfig, ControllerCluster};
use pesos_ycsb::{RunnerOptions, Workload, WorkloadRunner, WorkloadSpec};

fn cluster() -> Arc<ControllerCluster> {
    Arc::new(ControllerCluster::new(ClusterConfig::native_simulator(4, 1)).unwrap())
}

fn spec(workload: Workload) -> WorkloadSpec {
    WorkloadSpec {
        workload,
        record_count: 60,
        operation_count: 240,
        value_size: 128,
        seed: 11,
    }
}

#[test]
fn full_workload_suite_passes_on_a_four_controller_cluster() {
    for workload in [Workload::A, Workload::B, Workload::C, Workload::D] {
        let cluster = cluster();
        let runner = WorkloadRunner::new(Arc::clone(&cluster), spec(workload));
        // Workload D's read-latest trace is order-dependent: a concurrent
        // replay races reads ahead of the inserts they target, producing
        // NotFound errors on a bare controller just the same. Replay it on
        // one client so "0 errors" is a meaningful assertion.
        let clients = if workload == Workload::D { 1 } else { 4 };
        let options = RunnerOptions {
            clients,
            ..RunnerOptions::default()
        };
        assert_eq!(runner.load(&options).unwrap(), 60);
        let summary = runner.run(&options);
        assert_eq!(
            summary.operations, 240,
            "workload {workload:?}: {} ops, {} errors, {} denied",
            summary.operations, summary.errors, summary.denied
        );
        assert_eq!(summary.errors, 0, "workload {workload:?} had errors");
        assert_eq!(summary.denied, 0, "workload {workload:?} had denials");
        assert!(summary.throughput_ops() > 0.0);
        // The load really spread over the partitions.
        let busy = cluster
            .controllers()
            .iter()
            .filter(|c| c.metrics().requests > 0)
            .count();
        assert!(
            busy >= 2,
            "workload {workload:?} exercised {busy} partition(s)"
        );
    }
}

#[test]
fn policied_and_async_modes_run_on_the_cluster() {
    let cluster = cluster();
    let admin = cluster.register_client("admin");
    let policy = cluster
        .put_policy(
            &admin,
            "read :- sessionKeyIs(U)\nupdate :- sessionKeyIs(U)\ndelete :- sessionKeyIs(U)",
        )
        .unwrap();
    let runner = WorkloadRunner::new(Arc::clone(&cluster), spec(Workload::A));
    let options = RunnerOptions {
        clients: 4,
        policy_id: Some(policy),
        async_writes: true,
        ..RunnerOptions::default()
    };
    runner.load(&options).unwrap();
    let summary = runner.run(&options);
    assert_eq!(summary.operations, 240);
    assert_eq!(summary.denied, 0);
    assert_eq!(summary.errors, 0);
}
