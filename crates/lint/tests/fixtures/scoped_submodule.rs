// Fixture for path-scoped lock families in a sub-module of their scope.
// The test lints this source under `cluster/src/cluster/migration.rs`
// (inside the `cluster/src/cluster.rs` scope) and under an unrelated path;
// it asserts exact line numbers, so keep the layout stable.

struct S {
    clients: parking_lot::Mutex<u32>,
    policies: parking_lot::Mutex<u32>,
}

impl S {
    fn inverted(&self) {
        let _p = self.policies.lock();
        let _c = self.clients.lock(); // line 14: CLUSTER_CLIENTS under CLUSTER_POLICIES
    }
}
