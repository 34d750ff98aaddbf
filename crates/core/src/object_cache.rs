//! The in-enclave object cache.
//!
//! A global in-memory structure that serves recently written or read objects
//! without a disk round trip and supports content-based policy checks
//! (`objSays`) with fast lookups (paper §3.1, §4.2). The cache is bounded by
//! a byte budget chosen to stay inside the EPC: LFU eviction behind a
//! TinyLFU admission filter (Einziger, Friedman & Manes, ACM TOS 2017).
//!
//! The byte budget is split across N independently locked LFU shards
//! (selected with [`crate::placement::key_hash`], the same hash replica
//! placement uses) so concurrent sessions touching different keys never
//! serialize on one global mutex. Eviction is per shard: a hot entry can
//! only be displaced by traffic hashing to its own shard, which approximates
//! global LFU closely under the uniform key hashing the placement function
//! provides.
//!
//! # Eviction
//!
//! The victim is the entry with the smallest `(frequency, name)`: the
//! frequency counts the entry's hits since it landed, and ties go to the
//! smaller key, so the victim — and with it which later reads miss — is a
//! function of the request sequence alone, not of hash-map iteration order.
//! Each shard memoises its current victim, so asking who would go next
//! does not rescan the shard; the memo is dropped when the victim is hit,
//! replaced or removed, and moves to a newcomer that lands below it.
//!
//! # Admission
//!
//! Eviction alone lets a stream larger than the cache (every key read about
//! as often as every other) displace an entry on every miss, and each such
//! fill pays a copy of the value and, on a read, the revalidation hash, for
//! an entry that will be gone before it is read again. So a fill that would
//! evict must first win admission: a key that is not cached is admitted
//! into a full shard only if a frequency sketch rates it above each victim
//! it would displace; otherwise the fill is refused
//! ([`ObjectCacheStats::refused`]). A replacement of a cached key, and a
//! fill that fits, are always admitted. Callers ask before they pay
//! ([`ObjectCache::admits_read`], [`ObjectCache::admits_write`]), so a
//! refused fill costs neither the copy nor the hash.
//!
//! The sketch is a count-min sketch of a shard's recent accesses: 4 rows of
//! one-byte counters saturating at 15, each row 4 counters wide per entry
//! the shard held when it first had to evict, indexed from the placement
//! hash the shard was chosen by (no further digest). A key's estimate is
//! its smallest counter. Every access counts once: a lookup, hit or miss,
//! and a write's fill. After 10 recorded accesses per such entry every
//! counter is halved, so popularity that has passed fades (TinyLFU's
//! reset). A shard builds its sketch the first time it must evict: a cache
//! that never fills carries none and pays one branch per access. The
//! sketch costs 16 bytes per entry, only in shards that filled; each entry
//! also keeps its 8-byte hash, to be rated as a victim. Counter indices are
//! fixed mixes of the key's hash and there is no randomness anywhere, so
//! admissions, like victims, follow from the request sequence alone.

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
    /// Fills into a full shard that lost admission to the entries they
    /// would have evicted.
    pub refused: u64,
    /// Bytes currently cached.
    pub used_bytes: u64,
    /// Entries currently cached.
    pub entries: usize,
}

/// Rows of the frequency sketch; an estimate is the smallest of a key's
/// counters, one per row.
const SKETCH_ROWS: usize = 4;
/// Counters per sketch row for each entry the shard held when it first had
/// to evict.
const SKETCH_WIDTH_PER_ENTRY: usize = 4;
/// Recorded accesses per such entry between two halvings of every counter.
const SKETCH_AGING_PER_ENTRY: u64 = 10;
/// A sketch counter saturates here (TinyLFU's 4-bit counters).
const COUNTER_MAX: u8 = 15;
/// Per-row odd multipliers that derive a row's counter index from the key's
/// placement hash.
const ROW_MIX: [u64; SKETCH_ROWS] = [
    0x9e37_79b9_7f4a_7c15,
    0xbf58_476d_1ce4_e5b9,
    0x94d0_49bb_1331_11eb,
    0xd6e8_feb8_6659_fd93,
];

/// A count-min sketch of a shard's recent accesses.
struct Sketch {
    /// `SKETCH_ROWS` rows of `width` counters, row after row.
    counters: Box<[u8]>,
    width: usize,
    /// Accesses recorded since the last halving.
    recorded: u64,
    /// Accesses between two halvings.
    period: u64,
}

impl Sketch {
    fn new(entries: usize) -> Self {
        let entries = entries.max(1);
        let width = SKETCH_WIDTH_PER_ENTRY * entries;
        Sketch {
            counters: vec![0; SKETCH_ROWS * width].into_boxed_slice(),
            width,
            recorded: 0,
            period: SKETCH_AGING_PER_ENTRY * entries as u64,
        }
    }

    /// The index of `hash`'s counter in `row`, whose multiplier is `mix`.
    fn slot(&self, row: usize, mix: u64, hash: u64) -> usize {
        let mixed = (hash ^ (hash >> 29)).wrapping_mul(mix);
        // The mixed hash's top 32 bits, scaled onto the row.
        let column = ((mixed >> 32) * self.width as u64) >> 32;
        row * self.width + column as usize
    }

    fn record(&mut self, hash: u64) {
        for (row, mix) in ROW_MIX.iter().enumerate() {
            let slot = self.slot(row, *mix, hash);
            if let Some(counter) = self.counters.get_mut(slot) {
                *counter = (*counter + 1).min(COUNTER_MAX);
            }
        }
        self.recorded += 1;
        if self.recorded >= self.period {
            self.recorded = 0;
            for counter in self.counters.iter_mut() {
                *counter /= 2;
            }
        }
    }

    fn estimate(&self, hash: u64) -> u8 {
        ROW_MIX
            .iter()
            .enumerate()
            .filter_map(|(row, mix)| self.counters.get(self.slot(row, *mix, hash)).copied())
            .min()
            .unwrap_or(0)
    }
}

struct Entry {
    value: Arc<Vec<u8>>,
    version: u64,
    frequency: u64,
    /// The key's placement hash, which indexes the sketch.
    hash: u64,
}

impl Entry {
    fn bytes(&self, name: &str) -> u64 {
        self.value.len() as u64 + name.len() as u64
    }
}

#[derive(Default)]
struct Inner {
    /// Keyed by shared names: eviction and replacement move them around
    /// without copying.
    entries: HashMap<Arc<str>, Entry>,
    used_bytes: u64,
    /// The entry eviction takes next, when known (module docs).
    victim: Option<Arc<str>>,
    /// Built the first time this shard must evict.
    sketch: Option<Sketch>,
    hits: u64,
    misses: u64,
    evictions: u64,
    refused: u64,
}

impl Inner {
    fn record(&mut self, hash: u64) {
        if let Some(sketch) = &mut self.sketch {
            sketch.record(hash);
        }
    }

    /// The smallest `(frequency, name)`: memoised, scanned for when not.
    fn victim(&mut self) -> Option<Arc<str>> {
        if self.victim.is_none() {
            self.victim = self
                .entries
                .iter()
                .min_by_key(|(name, e)| (e.frequency, &**name))
                .map(|(name, _)| Arc::clone(name));
        }
        self.victim.clone()
    }

    /// Forgets the memoised victim if it is `name`.
    fn unmemo(&mut self, name: &str) {
        if self.victim.as_deref() == Some(name) {
            self.victim = None;
        }
    }

    fn remove(&mut self, name: &str) -> Option<(Arc<str>, Entry)> {
        let (name, entry) = self.entries.remove_entry(name)?;
        self.used_bytes -= entry.bytes(&name);
        self.unmemo(&name);
        Some((name, entry))
    }

    /// Whether a fill of `size` bytes under the uncached `hash` may evict
    /// what it must to fit in `budget`: the sketch rates it above every
    /// victim in eviction order until enough bytes are free.
    fn wins_admission(&mut self, hash: u64, size: u64, budget: u64) -> bool {
        let needed = (self.used_bytes + size).saturating_sub(budget);
        let Some(first) = self.victim() else {
            return true;
        };
        let Some(sketch) = &self.sketch else {
            return true;
        };
        let newcomer = sketch.estimate(hash);
        let Some(entry) = self.entries.get(&first) else {
            return true;
        };
        if entry.bytes(&first) >= needed {
            return newcomer > sketch.estimate(entry.hash);
        }
        // More than one victim: walk them in eviction order.
        let mut order: Vec<(&Arc<str>, &Entry)> = self.entries.iter().collect();
        order.sort_unstable_by(|(a, x), (b, y)| (x.frequency, &**a).cmp(&(y.frequency, &**b)));
        let mut freed = 0;
        for (name, entry) in order {
            if freed >= needed {
                break;
            }
            if newcomer <= sketch.estimate(entry.hash) {
                return false;
            }
            freed += entry.bytes(name);
        }
        true
    }
}

/// A byte-bounded, LFU-evicting, TinyLFU-admitting, lock-sharded object
/// cache (built on the generic [`Sharded`] container).
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

    /// Looks up the latest cached value and version for `key`, counting
    /// the access.
    pub fn get<'a>(&self, key: impl Into<HashedKey<'a>>) -> Option<(Arc<Vec<u8>>, u64)> {
        let key = key.into();
        let mut inner = self.shard(&key).lock();
        inner.record(key.hash());
        match inner.entries.get_mut(key.key()) {
            Some(e) => {
                e.frequency += 1;
                let out = (Arc::clone(&e.value), e.version);
                inner.hits += 1;
                inner.unmemo(key.key());
                Some(out)
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    /// Whether a fill of a `value_len`-byte value for `key`, read after a
    /// [`ObjectCache::get`] of it missed (which counted the access), is
    /// admitted (module docs). A refused fill is counted; an admitted one
    /// is made with [`ObjectCache::put_named`].
    pub(crate) fn admits_read(&self, key: &HashedKey<'_>, value_len: usize) -> bool {
        self.admits(key, value_len, false)
    }

    /// [`ObjectCache::admits_read`] for a write's fill, which counts as an
    /// access of its own.
    pub(crate) fn admits_write(&self, key: &HashedKey<'_>, value_len: usize) -> bool {
        self.admits(key, value_len, true)
    }

    fn admits(&self, key: &HashedKey<'_>, value_len: usize, record: bool) -> bool {
        let size = value_len as u64 + key.key().len() as u64;
        let budget = self.shard_budget_bytes;
        let mut inner = self.shard(key).lock();
        let must_evict = size <= budget
            && !inner.entries.contains_key(key.key())
            && inner.used_bytes + size > budget;
        if must_evict && inner.sketch.is_none() {
            inner.sketch = Some(Sketch::new(inner.entries.len()));
        }
        if record {
            inner.record(key.hash());
        }
        if size > budget {
            // Never cached, and what the key held is no longer its value.
            inner.remove(key.key());
            return false;
        }
        if !must_evict {
            return true;
        }
        let admitted = inner.wins_admission(key.hash(), size, budget);
        if !admitted {
            inner.refused += 1;
        }
        admitted
    }

    /// Inserts (or replaces) the cached value for `key` if the fill wins
    /// admission, counting a write's access.
    ///
    /// Values larger than the whole shard budget are not cached.
    pub fn put<'a>(&self, key: impl Into<HashedKey<'a>>, value: Arc<Vec<u8>>, version: u64) {
        let key = key.into();
        if self.admits_write(&key, value.len()) {
            self.insert(&key, || Arc::from(key.key()), value, version);
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
        let name = match inner.remove(key) {
            Some((name, _)) => name,
            None => name(),
        };
        // Evict until the new entry fits.
        while inner.used_bytes + size > self.shard_budget_bytes {
            let Some(victim) = inner.victim() else {
                break;
            };
            if inner.remove(&victim).is_some() {
                inner.evictions += 1;
            }
        }
        inner.used_bytes += size;
        // The newcomer lands at frequency 1: below the memoised victim, it
        // is the next one.
        let below_victim = match inner.victim.as_ref() {
            Some(victim) => inner
                .entries
                .get(victim)
                .is_some_and(|v| (1, &*name) < (v.frequency, &**victim)),
            None => false,
        };
        if below_victim {
            inner.victim = Some(Arc::clone(&name));
        }
        inner.entries.insert(
            name,
            Entry {
                value,
                version,
                frequency: 1,
                hash: hashed.hash(),
            },
        );
    }

    /// Removes a key from the cache (e.g. on delete).
    pub fn invalidate<'a>(&self, key: impl Into<HashedKey<'a>>) {
        let key = key.into();
        self.shard(&key).lock().remove(key.key());
    }

    /// Returns counters aggregated over all shards.
    pub fn stats(&self) -> ObjectCacheStats {
        let mut stats = ObjectCacheStats::default();
        for shard in self.shards.iter() {
            let inner = shard.lock();
            stats.hits += inner.hits;
            stats.misses += inner.misses;
            stats.evictions += inner.evictions;
            stats.refused += inner.refused;
            stats.used_bytes += inner.used_bytes;
            stats.entries += inner.entries.len();
        }
        stats
    }
}

#[cfg(test)]
mod tests {
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

    #[test]
    fn the_memoised_victim_is_the_one_a_scan_finds() {
        let mut rng = Rng(7);
        let cache = ObjectCache::new(8 * 40);
        let names: Vec<String> = (0..24).map(|i| format!("key{i:02}")).collect();
        for step in 0..5000 {
            let name = names[rng.below(names.len())].as_str();
            match rng.below(8) {
                0 => cache.invalidate(name),
                1..=3 => cache.put(name, value(20 + rng.below(30)), step),
                _ => {
                    if cache.get(name).is_none() && cache.admits_read(&name.into(), 30) {
                        cache.put_named(&name.into(), &Arc::from(name), value(30), step);
                    }
                }
            }
            let mut inner = cache.shards.iter().next().unwrap().lock();
            let memo = inner.victim.clone();
            inner.victim = None;
            assert!(memo.is_none() || memo == inner.victim(), "step {step}");
            inner.victim = memo;
            assert!(inner.used_bytes <= cache.shard_budget_bytes);
        }
        let s = cache.stats();
        assert!(s.evictions > 0 && s.refused > 0, "{s:?}");
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
