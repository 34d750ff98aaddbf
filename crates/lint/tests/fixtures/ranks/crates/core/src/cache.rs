// Fixture: `shards` at its second rank in `core`; `cache/evict.rs` is a
// sub-module of this file's module.

impl Cache {
    fn new(n: usize) -> Cache {
        Cache {
            shards: Sharded::new_indexed(n, |i| {
                Mutex::with_rank_indexed(lock_order::OBJECT_CACHE_SHARD, i, ())
            }),
        }
    }
}
