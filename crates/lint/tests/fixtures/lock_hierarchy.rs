// Fixture for the lock-hierarchy pass. The test asserts exact line
// numbers; keep the layout stable.

struct S {
    routing: parking_lot::RwLock<u32>,
    ops_gate: parking_lot::RwLock<u32>,
    migration_locks: Sharded<parking_lot::Mutex<()>>,
    log_inner: parking_lot::Mutex<u32>,
}

impl S {
    fn inverted(&self) {
        let _r = self.routing.read();
        let _g = self.ops_gate.read(); // line 14: OPS_GATE under ROUTING_STATE
    }

    fn ascending_is_fine(&self) {
        let _g = self.ops_gate.read();
        let _r = self.routing.read();
        let _l = self.log_inner.lock();
    }

    fn sharded_same_family(&self) {
        let _a = self.migration_locks.get(&1).lock();
        let _b = self.migration_locks.get(&2).lock(); // line 25: same family
    }

    fn drop_releases(&self) {
        let r = self.routing.read();
        drop(r);
        let _g = self.ops_gate.read();
    }

    fn condition_temporary_is_released(&self) {
        if self.log_inner.lock().eq(&0) {
            let _r = self.routing.read();
        }
    }

    fn allowed(&self) {
        let _l = self.log_inner.lock();
        // pesos-lint: allow(lock_hierarchy, "stripe indices are ordered by construction")
        let _r = self.routing.read();
    }

    // The lint reads each field's rank here, where the lock is built.
    fn new(shards: usize) -> S {
        S {
            routing: parking_lot::RwLock::with_rank(lock_order::ROUTING_STATE, 0),
            ops_gate: parking_lot::RwLock::with_rank(lock_order::OPS_GATE, 0),
            migration_locks: Sharded::new_indexed(shards, |i| {
                parking_lot::Mutex::with_rank_indexed(lock_order::MIGRATION_STRIPE, i, ())
            }),
            log_inner: parking_lot::Mutex::with_rank(lock_order::REPLICATION_LOG, 0),
        }
    }
}
