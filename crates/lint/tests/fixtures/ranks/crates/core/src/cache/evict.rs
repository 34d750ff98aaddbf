// Fixture: inside the `cache` module `shards` is `OBJECT_CACHE_SHARD`;
// `registry` (built in `metadata.rs`) resolves anywhere in `core`. The
// test asserts exact lines; keep the layout.

impl Cache {
    fn inverted(&self, map: &Map) {
        let _s = self.shards.get(&1).lock();
        let _r = map.registry.lock(); // line 8: KEY_LOCK under OBJECT_CACHE_SHARD
    }
}
