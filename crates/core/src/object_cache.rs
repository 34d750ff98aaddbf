//! The in-enclave object cache.
//!
//! A global in-memory structure that serves recently written or read objects
//! without a disk round trip and supports content-based policy checks
//! (`objSays`) with fast lookups (paper §3.1, §4.2). The cache is bounded by
//! a byte budget chosen to stay inside the EPC and evicts approximately
//! least-frequently-used entries, breaking frequency ties by key so the
//! victim — and with it which later reads miss — is a function of the
//! request sequence alone, not of hash-map iteration order.
//!
//! The byte budget is split across N independently locked LFU shards
//! (selected with [`crate::placement::key_hash`], the same hash replica
//! placement uses) so concurrent sessions touching different keys never
//! serialize on one global mutex. Eviction is per shard: a hot entry can
//! only be displaced by traffic hashing to its own shard, which approximates
//! global LFU closely under the uniform key hashing the placement function
//! provides.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::placement::HashedKey;
use crate::sharded::Sharded;

/// Counters describing cache behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ObjectCacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries evicted for space.
    pub evictions: u64,
    /// Bytes currently cached.
    pub used_bytes: u64,
    /// Entries currently cached.
    pub entries: usize,
}

struct Entry {
    value: Arc<Vec<u8>>,
    version: u64,
    frequency: u64,
}

#[derive(Default)]
struct Inner {
    /// Keyed by shared names: eviction and replacement move them around
    /// without copying.
    entries: HashMap<Arc<str>, Entry>,
    used_bytes: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// A byte-bounded, approximately-LFU, lock-sharded object cache (built on
/// the generic [`Sharded`] container).
pub struct ObjectCache {
    shard_budget_bytes: u64,
    shards: Sharded<Mutex<Inner>>,
}

impl ObjectCache {
    /// Creates a single-shard cache with the given byte budget (one global
    /// lock; use [`ObjectCache::with_shards`] for the concurrent variant).
    pub fn new(budget_bytes: usize) -> Self {
        ObjectCache::with_shards(budget_bytes, 1)
    }

    /// Creates a cache whose byte budget is split evenly across `shards`
    /// independently locked LFU shards.
    ///
    /// Note the admission bound this implies: a single object can occupy at
    /// most one shard's budget (`budget_bytes / shards`), not the whole
    /// budget — the slab-style price of independent per-shard eviction.
    /// Deployments caching objects near the total budget should lower
    /// `lock_shards`.
    pub fn with_shards(budget_bytes: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        ObjectCache {
            shard_budget_bytes: (budget_bytes / shards).max(1) as u64,
            shards: Sharded::new_indexed(shards, |i| {
                Mutex::with_rank_indexed(
                    parking_lot::lock_order::OBJECT_CACHE_SHARD,
                    i,
                    Inner::default(),
                )
            }),
        }
    }

    /// The configured byte budget (summed over all shards).
    pub fn budget_bytes(&self) -> u64 {
        self.shard_budget_bytes * self.shards.shard_count() as u64
    }

    /// Number of lock shards.
    pub fn shard_count(&self) -> usize {
        self.shards.shard_count()
    }

    fn shard(&self, key: &HashedKey<'_>) -> &Mutex<Inner> {
        self.shards.get(key)
    }

    /// Looks up the latest cached value and version for `key`.
    pub fn get<'a>(&self, key: impl Into<HashedKey<'a>>) -> Option<(Arc<Vec<u8>>, u64)> {
        let key = key.into();
        let mut inner = self.shard(&key).lock();
        match inner.entries.get_mut(key.key()) {
            Some(e) => {
                e.frequency += 1;
                let out = (Arc::clone(&e.value), e.version);
                inner.hits += 1;
                Some(out)
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    /// Inserts (or replaces) the cached value for `key`.
    ///
    /// Values larger than the whole shard budget are not cached.
    pub fn put<'a>(&self, key: impl Into<HashedKey<'a>>, value: Arc<Vec<u8>>, version: u64) {
        let key = key.into();
        self.insert(&key, || Arc::from(key.key()), value, version);
    }

    /// [`ObjectCache::put`] for a caller that holds `key`'s name as a
    /// shared buffer already (a metadata record's): a new entry is filed
    /// under that buffer instead of a copy of the name.
    pub(crate) fn put_named(
        &self,
        key: &HashedKey<'_>,
        name: &Arc<str>,
        value: Arc<Vec<u8>>,
        version: u64,
    ) {
        debug_assert_eq!(key.key(), &**name, "hashed key does not match its name");
        self.insert(key, || Arc::clone(name), value, version);
    }

    fn insert(
        &self,
        hashed: &HashedKey<'_>,
        name: impl FnOnce() -> Arc<str>,
        value: Arc<Vec<u8>>,
        version: u64,
    ) {
        let key = hashed.key();
        let size = value.len() as u64 + key.len() as u64;
        if size > self.shard_budget_bytes {
            return;
        }
        let mut inner = self.shard(hashed).lock();
        let name = match inner.entries.remove_entry(key) {
            Some((name, old)) => {
                inner.used_bytes -= old.value.len() as u64 + key.len() as u64;
                name
            }
            None => name(),
        };
        // Evict until the new entry fits.
        while inner.used_bytes + size > self.shard_budget_bytes {
            let victim = inner
                .entries
                .iter()
                .min_by_key(|(k, e)| (e.frequency, &**k))
                .map(|(k, _)| Arc::clone(k));
            match victim {
                Some(k) => {
                    if let Some(e) = inner.entries.remove(&k) {
                        inner.used_bytes -= e.value.len() as u64 + k.len() as u64;
                        inner.evictions += 1;
                    }
                }
                None => break,
            }
        }
        inner.used_bytes += size;
        inner.entries.insert(
            name,
            Entry {
                value,
                version,
                frequency: 1,
            },
        );
    }

    /// Removes a key from the cache (e.g. on delete).
    pub fn invalidate<'a>(&self, key: impl Into<HashedKey<'a>>) {
        let key = key.into();
        let mut inner = self.shard(&key).lock();
        if let Some(e) = inner.entries.remove(key.key()) {
            inner.used_bytes -= e.value.len() as u64 + key.key().len() as u64;
        }
    }

    /// Returns counters aggregated over all shards.
    pub fn stats(&self) -> ObjectCacheStats {
        let mut stats = ObjectCacheStats::default();
        for shard in self.shards.iter() {
            let inner = shard.lock();
            stats.hits += inner.hits;
            stats.misses += inner.misses;
            stats.evictions += inner.evictions;
            stats.used_bytes += inner.used_bytes;
            stats.entries += inner.entries.len();
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_invalidate() {
        let cache = ObjectCache::new(1024);
        cache.put("a", Arc::new(b"value-a".to_vec()), 1);
        let (v, ver) = cache.get("a").unwrap();
        assert_eq!(&**v, b"value-a");
        assert_eq!(ver, 1);
        cache.invalidate("a");
        assert!(cache.get("a").is_none());
        let s = cache.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
    }

    #[test]
    fn replacement_updates_accounting() {
        let cache = ObjectCache::new(1024);
        cache.put("a", Arc::new(vec![0; 100]), 1);
        cache.put("a", Arc::new(vec![0; 10]), 2);
        let s = cache.stats();
        assert_eq!(s.entries, 1);
        assert_eq!(s.used_bytes, 10 + 1);
        assert_eq!(cache.get("a").unwrap().1, 2);
    }

    #[test]
    fn byte_budget_enforced_with_lfu_eviction() {
        let cache = ObjectCache::new(350);
        cache.put("hot", Arc::new(vec![0; 100]), 1);
        for _ in 0..10 {
            cache.get("hot");
        }
        cache.put("cold1", Arc::new(vec![0; 100]), 1);
        cache.put("cold2", Arc::new(vec![0; 100]), 1);
        // Adding another 100-byte entry must evict a cold one, not the hot.
        cache.put("new", Arc::new(vec![0; 100]), 1);
        assert!(cache.get("hot").is_some());
        assert!(cache.stats().evictions >= 1);
        assert!(cache.stats().used_bytes <= 350);
    }

    #[test]
    fn equal_frequency_victims_are_chosen_by_key() {
        // Six equally cold entries fill the budget; each further insert
        // must evict the smallest key, whatever order the map iterates in.
        for round in 0..8 {
            let cache = ObjectCache::new(6 * 102);
            let mut names: Vec<String> = (0..6).map(|i| format!("k{i}")).collect();
            // Insertion order varies per round; the victims must not.
            names.rotate_left(round % 6);
            for name in &names {
                cache.put(name.as_str(), Arc::new(vec![0; 100]), 1);
            }
            cache.put("n0", Arc::new(vec![0; 100]), 1);
            assert!(cache.get("k0").is_none(), "round {round}");
            cache.put("n1", Arc::new(vec![0; 100]), 1);
            assert!(cache.get("k1").is_none(), "round {round}");
            for survivor in ["k2", "k3", "k4", "k5"] {
                assert!(cache.get(survivor).is_some(), "round {round}: {survivor}");
            }
            assert_eq!(cache.stats().evictions, 2);
        }
    }

    #[test]
    fn oversized_values_not_cached() {
        let cache = ObjectCache::new(64);
        cache.put("big", Arc::new(vec![0; 1000]), 1);
        assert!(cache.get("big").is_none());
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn sharded_cache_keeps_per_key_semantics() {
        let cache = ObjectCache::with_shards(16 * 1024, 8);
        assert_eq!(cache.shard_count(), 8);
        assert_eq!(cache.budget_bytes(), (16 * 1024 / 8) * 8);
        for i in 0..100 {
            let key = format!("k{i}");
            cache.put(&key, Arc::new(vec![i as u8; 8]), i);
        }
        for i in 0..100 {
            let key = format!("k{i}");
            let (v, ver) = cache.get(&key).unwrap();
            assert_eq!(&**v, &vec![i as u8; 8]);
            assert_eq!(ver, i);
        }
        let s = cache.stats();
        assert_eq!(s.entries, 100);
        assert_eq!(s.hits, 100);
        cache.invalidate("k3");
        assert!(cache.get("k3").is_none());
    }

    #[test]
    fn shard_budgets_sum_to_total() {
        let cache = ObjectCache::with_shards(1000, 4);
        // Per-shard budget floors at total/shards.
        assert_eq!(cache.budget_bytes(), 1000);
        let tiny = ObjectCache::with_shards(2, 4);
        assert_eq!(tiny.budget_bytes(), 4); // floored at 1 byte per shard
    }
}
