//! The in-enclave object cache.
//!
//! Serves recently written or read objects without a disk round trip and
//! supports content-based policy checks (`objSays`) with fast lookups
//! (paper §3.1, §4.2). It is an [`LfuTable`] ([`crate::lfu`]): an entry
//! weighs its value's bytes plus its name's, shards are selected, and the
//! sketch indexed, by [`crate::placement::key_hash`]. A miss does not imply
//! a fill: callers ask [`ObjectCache::admits_read`] or
//! [`ObjectCache::admits_write`] before they copy or hash, then land an
//! admitted fill with [`ObjectCache::put_named`].

use std::sync::Arc;

use parking_lot::Mutex;

use crate::lfu::{CacheStats, LfuTable};
use crate::placement::HashedKey;

/// A byte-bounded, LFU-evicting, TinyLFU-admitting, lock-sharded object
/// cache.
pub struct ObjectCache {
    /// Each key's value and version.
    table: LfuTable<str, (Arc<Vec<u8>>, u64)>,
}

impl ObjectCache {
    /// Creates a single-shard cache with the given byte budget (one global
    /// lock; use [`ObjectCache::with_shards`] for the concurrent variant).
    pub fn new(budget_bytes: usize) -> Self {
        ObjectCache::with_shards(budget_bytes, 1)
    }

    /// Creates a cache whose byte budget is split evenly across `shards`
    /// independently locked shards, so a single object can occupy at most
    /// `budget_bytes / shards`. Deployments caching objects near the total
    /// budget should lower `lock_shards`.
    pub fn with_shards(budget_bytes: usize, shards: usize) -> Self {
        ObjectCache {
            table: LfuTable::new(budget_bytes as u64, shards, |i, shard| {
                Mutex::with_rank_indexed(parking_lot::lock_order::OBJECT_CACHE_SHARD, i, shard)
            }),
        }
    }

    /// The configured byte budget (summed over all shards).
    pub fn budget_bytes(&self) -> u64 {
        self.table.budget()
    }

    /// Number of lock shards.
    pub fn shard_count(&self) -> usize {
        self.table.shard_count()
    }

    /// Looks up the latest cached value and version for `key`, counting
    /// the access.
    pub fn get<'a>(&self, key: impl Into<HashedKey<'a>>) -> Option<(Arc<Vec<u8>>, u64)> {
        let key = key.into();
        let mut shard = self.table.shard(key.hash());
        let (value, version) = shard.lookup(key.key(), key.hash())?;
        Some((Arc::clone(value), *version))
    }

    /// Whether a fill of a `value_len`-byte value for `key`, read after a
    /// [`ObjectCache::get`] of it missed (which counted the access), is
    /// admitted. A refused fill is counted; an admitted one is made with
    /// [`ObjectCache::put_named`].
    pub(crate) fn admits_read(&self, key: &HashedKey<'_>, value_len: usize) -> bool {
        self.admits(key, value_len, false)
    }

    /// [`ObjectCache::admits_read`] for a write's fill, which counts as an
    /// access of its own.
    pub(crate) fn admits_write(&self, key: &HashedKey<'_>, value_len: usize) -> bool {
        self.admits(key, value_len, true)
    }

    fn admits(&self, key: &HashedKey<'_>, value_len: usize, record: bool) -> bool {
        let weight = value_len as u64 + key.key().len() as u64;
        let mut shard = self.table.shard(key.hash());
        shard.admits(key.key(), key.hash(), weight, record)
    }

    /// Inserts (or replaces) the cached value for `key` if the fill wins
    /// admission, counting a write's access.
    ///
    /// Values larger than the whole shard budget are not cached.
    pub fn put<'a>(&self, key: impl Into<HashedKey<'a>>, value: Arc<Vec<u8>>, version: u64) {
        let key = key.into();
        if self.admits_write(&key, value.len()) {
            self.put_named(&key, &Arc::from(key.key()), value, version);
        }
    }

    /// Makes a fill that [`ObjectCache::admits_read`] or
    /// [`ObjectCache::admits_write`] admitted, for a caller that holds
    /// `key`'s name as a shared buffer already (a metadata record's): a new
    /// entry is filed under that buffer instead of a copy of the name.
    pub(crate) fn put_named(
        &self,
        key: &HashedKey<'_>,
        name: &Arc<str>,
        value: Arc<Vec<u8>>,
        version: u64,
    ) {
        debug_assert_eq!(key.key(), &**name, "hashed key does not match its name");
        let weight = value.len() as u64 + key.key().len() as u64;
        let mut shard = self.table.shard(key.hash());
        shard.insert(name, key.hash(), (value, version), weight);
    }

    /// Removes a key from the cache (e.g. on delete).
    pub fn invalidate<'a>(&self, key: impl Into<HashedKey<'a>>) {
        let key = key.into();
        self.table.shard(key.hash()).remove(key.key());
    }

    /// Returns counters aggregated over all shards.
    pub fn stats(&self) -> CacheStats {
        self.table.stats(|_| 0)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use super::*;

    fn value(len: usize) -> Arc<Vec<u8>> {
        Arc::new(vec![0; len])
    }

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
        cache.put("a", value(100), 1);
        cache.put("a", value(10), 2);
        let s = cache.stats();
        assert_eq!(s.entries, 1);
        assert_eq!(s.used_bytes, 10 + 1);
        assert_eq!(cache.get("a").unwrap().1, 2);
    }

    #[test]
    fn byte_budget_enforced_with_lfu_eviction() {
        let cache = ObjectCache::new(350);
        cache.put("hot", value(100), 1);
        for _ in 0..10 {
            cache.get("hot");
        }
        cache.put("cold1", value(100), 1);
        cache.put("cold2", value(100), 1);
        // Another 100-byte entry, read before it is written, outranks a
        // cold one and must evict it, not the hot.
        assert!(cache.get("new").is_none());
        cache.put("new", value(100), 1);
        assert!(cache.get("new").is_some());
        assert!(cache.get("hot").is_some());
        assert!(cache.stats().evictions >= 1);
        assert!(cache.stats().used_bytes <= 350);
    }

    #[test]
    fn equal_frequency_victims_are_chosen_by_key() {
        // Six equally cold entries fill the budget; each further insert,
        // read once before it is written, must evict the smallest key,
        // whatever order the map iterates in.
        for round in 0..8 {
            let cache = ObjectCache::new(6 * 102);
            let mut names: Vec<String> = (0..6).map(|i| format!("k{i}")).collect();
            // Insertion order varies per round; the victims must not.
            names.rotate_left(round % 6);
            for name in &names {
                cache.put(name.as_str(), value(100), 1);
            }
            cache.get("n0");
            cache.put("n0", value(100), 1);
            assert!(cache.get("k0").is_none(), "round {round}");
            cache.get("n1");
            cache.put("n1", value(100), 1);
            assert!(cache.get("k1").is_none(), "round {round}");
            for survivor in ["k2", "k3", "k4", "k5", "n0", "n1"] {
                assert!(cache.get(survivor).is_some(), "round {round}: {survivor}");
            }
            assert_eq!(cache.stats().evictions, 2);
            assert_eq!(cache.stats().refused, 0);
        }
    }

    #[test]
    fn a_newcomer_rated_no_higher_than_its_victim_is_refused() {
        let cache = ObjectCache::new(3 * 102);
        for name in ["k0", "k1", "k2"] {
            cache.put(name, value(100), 1);
        }
        // The first fill that must evict builds the sketch and displaces
        // `k0`, whose write predates it.
        cache.put("n0", value(100), 1);
        assert!(cache.get("k0").is_none());
        // `k1` and `k2` are hit, so `n0` (one write) is the victim.
        assert!(cache.get("k1").is_some() && cache.get("k2").is_some());

        // A read of `n1` missed (one access), and its fill would displace
        // `n0` (one access): an equal count is refused, before any copy.
        let n1 = HashedKey::new("n1");
        assert!(cache.get(&n1).is_none());
        assert!(!cache.admits_read(&n1, 100));
        // So is a write of it that ties on `n0`'s count.
        let n2 = HashedKey::new("n2");
        cache.put(&n2, value(100), 1);
        assert!(!cache.admits_read(&n2, 100));
        let s = cache.stats();
        assert_eq!((s.evictions, s.refused, s.entries), (1, 3, 3));

        // Once `n0` is hit, `k1` is first by name of three entries hit
        // once each, and it has one access since the sketch was built:
        // read a second time, `n1` outranks it.
        assert!(cache.get("n0").is_some());
        assert!(cache.get(&n1).is_none());
        assert!(cache.admits_read(&n1, 100));
        cache.put_named(&n1, &Arc::from("n1"), value(100), 1);
        assert!(cache.get("k1").is_none());
        assert!(cache.get("n1").is_some());
        assert_eq!(cache.stats().evictions, 2);
    }

    #[test]
    fn oversized_values_not_cached() {
        let cache = ObjectCache::new(64);
        cache.put("big", value(1000), 1);
        assert!(cache.get("big").is_none());
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn an_oversized_write_forgets_the_value_it_replaces() {
        let cache = ObjectCache::new(64);
        cache.put("k", value(10), 1);
        cache.put("k", value(1000), 2);
        assert!(cache.get("k").is_none());
        assert_eq!(cache.stats().used_bytes, 0);
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

    /// A deterministic pseudo-random stream (splitmix64).
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }

        fn shuffle<T>(&mut self, items: &mut [T]) {
            for i in (1..items.len()).rev() {
                items.swap(i, self.below(i + 1));
            }
        }
    }

    /// An oracle shard: `(frequency, bytes)` by name, and the bytes used.
    type OracleShard = (HashMap<String, (u64, u64)>, u64);

    /// The fill-always LFU this cache replaced, kept as the oracle for
    /// admission: every miss fills, evicting the smallest
    /// `(frequency, name)` of its shard until the newcomer fits.
    struct FillAlways {
        shard_budget: u64,
        shards: Vec<OracleShard>,
        hits: u64,
        accesses: u64,
        evictions: u64,
    }

    impl FillAlways {
        fn new(budget: usize, shards: usize) -> Self {
            FillAlways {
                shard_budget: (budget / shards) as u64,
                shards: (0..shards).map(|_| (HashMap::new(), 0)).collect(),
                hits: 0,
                accesses: 0,
                evictions: 0,
            }
        }

        fn read(&mut self, key: &HashedKey<'_>, size: u64) {
            self.accesses += 1;
            let count = self.shards.len() as u64;
            let (entries, used) = &mut self.shards[(key.hash() % count) as usize];
            if let Some((frequency, _)) = entries.get_mut(key.key()) {
                *frequency += 1;
                self.hits += 1;
                return;
            }
            while *used + size > self.shard_budget {
                let victim = entries
                    .iter()
                    .min_by_key(|(name, (frequency, _))| (*frequency, name.as_str()))
                    .map(|(name, _)| name.clone())
                    .unwrap();
                *used -= entries.remove(&victim).unwrap().1;
                self.evictions += 1;
            }
            *used += size;
            entries.insert(key.key().to_string(), (1, size));
        }
    }

    /// Hit rate and evictions of the oracle and of this cache over `trace`
    /// (indices into `keys`), every access a read that fills on a miss.
    fn replay(keys: &[String], trace: &[usize]) -> ((f64, u64), (f64, u64)) {
        const BUDGET: usize = 1 << 20;
        const SHARDS: usize = 16;
        const VALUE: usize = 1000;
        let hashed: Vec<HashedKey<'_>> = keys.iter().map(HashedKey::from).collect();
        let names: Vec<Arc<str>> = keys.iter().map(|k| Arc::from(k.as_str())).collect();
        let mut oracle = FillAlways::new(BUDGET, SHARDS);
        let cache = ObjectCache::with_shards(BUDGET, SHARDS);
        let payload = value(VALUE);
        for &i in trace {
            let key = &hashed[i];
            oracle.read(key, (VALUE + key.key().len()) as u64);
            if cache.get(key).is_none() && cache.admits_read(key, VALUE) {
                cache.put_named(key, &names[i], Arc::clone(&payload), 0);
            }
        }
        let s = cache.stats();
        let rate = |hits: u64| hits as f64 / trace.len() as f64;
        (
            (rate(oracle.hits), oracle.evictions),
            (rate(s.hits), s.evictions),
        )
    }

    /// `len` draws over ranks `0..n` with probability `∝ 1 / (rank+1)^θ`.
    fn zipfian(rng: &mut Rng, n: usize, theta: f64, len: usize) -> Vec<usize> {
        let mut cdf: Vec<f64> = (1..=n).map(|r| 1.0 / (r as f64).powf(theta)).collect();
        let mut total = 0.0;
        for p in cdf.iter_mut() {
            total += *p;
            *p = total;
        }
        (0..len)
            .map(|_| {
                let u = rng.unit() * total;
                cdf.partition_point(|&c| c < u).min(n - 1)
            })
            .collect()
    }

    #[test]
    fn admission_keeps_the_hit_rate_and_drops_the_churn_of_fill_always_lfu() {
        // 16 shards of 64 KiB hold about 1 000 values of 1 000 bytes: eight
        // times as many keys as fit.
        const KEYS: usize = 8 * 1024;
        const LEN: usize = 120_000;
        let keys: Vec<String> = (0..KEYS).map(|i| format!("obj/{i:05}")).collect();
        let mut rng = Rng(2017);

        let uniform: Vec<usize> = (0..LEN).map(|_| rng.below(KEYS)).collect();
        let ((oracle_rate, oracle_evictions), (rate, evictions)) = replay(&keys, &uniform);
        println!("uniform: hit rate {oracle_rate:.4} -> {rate:.4}, evictions {oracle_evictions} -> {evictions}");
        assert!(
            rate >= oracle_rate - 0.005,
            "uniform: {rate} vs {oracle_rate}"
        );
        assert!(
            evictions * 10 <= oracle_evictions,
            "uniform: {evictions} evictions vs {oracle_evictions}"
        );

        // Zipfian θ 0.99, the hot ranks scattered over the keys.
        let mut order: Vec<usize> = (0..KEYS).collect();
        rng.shuffle(&mut order);
        let ranks = zipfian(&mut rng, KEYS, 0.99, LEN);
        let skewed: Vec<usize> = ranks.iter().map(|&r| order[r]).collect();
        let ((oracle_rate, _), (rate, _)) = replay(&keys, &skewed);
        println!("zipfian: hit rate {oracle_rate:.4} -> {rate:.4}");
        assert!(rate >= oracle_rate, "zipfian: {rate} vs {oracle_rate}");

        // The same, with the hot set re-drawn halfway.
        let mut shifted = skewed;
        rng.shuffle(&mut order);
        for (slot, &r) in shifted.iter_mut().zip(&ranks).skip(LEN / 2) {
            *slot = order[r];
        }
        let ((oracle_rate, _), (rate, _)) = replay(&keys, &shifted);
        println!("shifting zipfian: hit rate {oracle_rate:.4} -> {rate:.4}");
        assert!(
            rate >= oracle_rate,
            "shifting zipfian: {rate} vs {oracle_rate}"
        );
    }
}
