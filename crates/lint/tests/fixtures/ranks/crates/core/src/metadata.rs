// Fixture: `core` builds `shards` at two ranks, here and in `cache.rs`,
// so the name resolves only inside each of the two modules. The test
// asserts exact lines; keep the layout.

impl Map {
    fn new(n: usize) -> Map {
        Map {
            shards: Sharded::new_indexed(n, |i| {
                RwLock::with_rank_indexed(lock_order::METADATA_SHARD, i, ())
            }),
            registry: Mutex::with_rank(lock_order::KEY_LOCK, ()),
        }
    }

    fn nested(&self) {
        let _a = self.shards.get(&1).read();
        let _b = self.shards.get(&2).read(); // line 17: two METADATA_SHARD locks
    }
}
