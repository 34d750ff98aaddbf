//! The one eviction and admission rule of the in-enclave caches.
//!
//! Both caches the paper sizes in §4.2, sealed objects and compiled
//! policies, are an [`LfuTable`]: a fixed set of independently locked
//! shards (a [`Sharded`] container; a key's shard is its hash modulo the
//! shard count). Each entry weighs what its owner says when it lands, and
//! each shard has an even share of the table's budget in that unit: the
//! object cache weighs an entry's value and name in bytes against
//! `object_cache_bytes`, the policy cache weighs every policy one against
//! `policy_cache_capacity`. Eviction is per shard, which approximates
//! global LFU closely under uniform hashing; an entry heavier than a
//! shard's budget is never cached. Each owner builds its shards' locks
//! ([`LfuTable::new`]), so each instance keeps its own lock rank.
//!
//! # Eviction
//!
//! The victim is the entry with the smallest `(frequency, key)`: the
//! frequency counts the entry's hits since it landed (it never decays; only
//! the admission sketch forgets), and ties go to the smaller key, so the
//! victim — and with it which later lookups miss — is a function of the
//! request sequence alone, not of hash-map iteration order. Each shard
//! memoises its current victim, so asking who would go next does not
//! rescan the shard; the memo is dropped when the victim is hit, replaced
//! or removed, and moves to a newcomer that lands below it.
//!
//! # Admission
//!
//! Eviction alone lets a stream larger than the cache displace an entry on
//! every miss, each fill paid for an entry gone before it is used again.
//! So a fill that would evict must first win admission (TinyLFU: Einziger,
//! Friedman & Manes, ACM TOS 2017): a key that is not cached enters a full
//! shard only if a frequency sketch rates it above each victim it would
//! displace; otherwise the fill is refused ([`CacheStats::refused`]). A
//! replacement, and a fill that fits, are always admitted. Owners ask
//! ([`LfuShard::admits`]) before they pay for the fill, then land it
//! ([`LfuShard::insert`], which evicts unconditionally).
//!
//! The sketch is a count-min sketch of a shard's recent accesses, built
//! the first time the shard must evict: 4 rows of counters saturating at
//! 15, each row 4 counters per entry the shard then held, indexed from the
//! hash the shard was chosen by (no further digest); an estimate is a key's
//! smallest counter. Every lookup, hit or miss, counts once, and so does a
//! fill that asks to be recorded (a write's). Every 10 accesses per such
//! entry all counters are halved, so popularity that has passed fades.
//! There is no randomness anywhere: admissions, like victims, follow from
//! the request sequence alone.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard};

use crate::sharded::Sharded;

/// Counters describing a cache's behaviour, summed over its shards.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries evicted for space.
    pub evictions: u64,
    /// Fills into a full shard that lost admission to their victims.
    pub refused: u64,
    /// Weight cached: bytes, or in the policy cache entries.
    pub used_bytes: u64,
    /// Entries currently cached.
    pub entries: usize,
    /// Read decisions remembered beside policies (none for objects).
    pub decisions: usize,
}

impl CacheStats {
    /// Hit rate in `[0, 1]`; zero when no lookups have happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 0.0;
        }
        self.hits as f64 / total as f64
    }
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
/// hash.
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

struct Entry<V> {
    value: V,
    weight: u64,
    frequency: u64,
    /// The key's hash, which indexes the sketch.
    hash: u64,
}

/// One locked shard of an [`LfuTable`]. Keys are filed under shared names
/// (`Arc<K>`): eviction and replacement move them without copying.
pub struct LfuShard<K: ?Sized, V, S = ()> {
    entries: HashMap<Arc<K>, Entry<V>>,
    used: u64,
    budget: u64,
    /// The entry eviction takes next, when known (module docs).
    victim: Option<Arc<K>>,
    /// Built the first time this shard must evict.
    sketch: Option<Sketch>,
    hits: u64,
    misses: u64,
    evictions: u64,
    refused: u64,
    /// What the table's owner keeps per shard.
    pub extra: S,
}

impl<K: Hash + Ord + ?Sized, V, S> LfuShard<K, V, S> {
    fn record(&mut self, hash: u64) {
        if let Some(sketch) = &mut self.sketch {
            sketch.record(hash);
        }
    }

    /// The smallest `(frequency, key)`: memoised, scanned for when not.
    fn victim(&mut self) -> Option<Arc<K>> {
        if self.victim.is_none() {
            self.victim = self
                .entries
                .iter()
                .min_by_key(|(key, e)| (e.frequency, *key))
                .map(|(key, _)| Arc::clone(key));
        }
        self.victim.clone()
    }

    /// Removes `key`'s entry, returning the name it was filed under.
    pub fn remove(&mut self, key: &K) -> Option<Arc<K>> {
        let (key, entry) = self.entries.remove_entry(key)?;
        self.used -= entry.weight;
        if self.victim.as_ref() == Some(&key) {
            self.victim = None;
        }
        Some(key)
    }

    /// Whether a fill of `weight` under the uncached `hash` may evict what
    /// it must to fit: the sketch rates it above every victim in eviction
    /// order until enough weight is free.
    fn wins_admission(&mut self, hash: u64, weight: u64) -> bool {
        let needed = (self.used + weight).saturating_sub(self.budget);
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
        if entry.weight >= needed {
            return newcomer > sketch.estimate(entry.hash);
        }
        // More than one victim: walk them in eviction order.
        let mut order: Vec<(&Arc<K>, &Entry<V>)> = self.entries.iter().collect();
        order.sort_unstable_by(|(a, x), (b, y)| (x.frequency, a).cmp(&(y.frequency, b)));
        let mut freed = 0;
        for (_, entry) in order {
            if freed >= needed {
                break;
            }
            if newcomer <= sketch.estimate(entry.hash) {
                return false;
            }
            freed += entry.weight;
        }
        true
    }

    /// Looks `key` up, counting the access under its `hash`, and the hit
    /// (which bumps the entry's frequency) or the miss.
    pub fn lookup(&mut self, key: &K, hash: u64) -> Option<&mut V> {
        self.record(hash);
        let Some(entry) = self.entries.get_mut(key) else {
            self.misses += 1;
            return None;
        };
        entry.frequency += 1;
        self.hits += 1;
        if self.victim.as_deref() == Some(key) {
            self.victim = None;
        }
        Some(&mut entry.value)
    }

    /// `key`'s value, without counting an access.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.entries.get_mut(key).map(|entry| &mut entry.value)
    }

    /// Every cached value, in no particular order.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.entries.values_mut().map(|entry| &mut entry.value)
    }

    /// Whether a fill of `weight` for `key` (hashed to `hash`) is admitted
    /// (module docs); `record` counts the fill as an access, as a write's
    /// is (a read's was counted by the lookup that missed). A refused fill
    /// is counted. A fill heavier than the budget is refused and drops
    /// what `key` held, which is no longer its value.
    pub fn admits(&mut self, key: &K, hash: u64, weight: u64, record: bool) -> bool {
        let budget = self.budget;
        let must_evict =
            weight <= budget && !self.entries.contains_key(key) && self.used + weight > budget;
        if must_evict && self.sketch.is_none() {
            self.sketch = Some(Sketch::new(self.entries.len()));
        }
        if record {
            self.record(hash);
        }
        if weight > budget {
            self.remove(key);
            return false;
        }
        if !must_evict {
            return true;
        }
        let admitted = self.wins_admission(hash, weight);
        if !admitted {
            self.refused += 1;
        }
        admitted
    }

    /// Inserts (or replaces) `name`'s value, evicting victims until it
    /// fits; a replacement keeps the name it was filed under. A value
    /// heavier than the budget is not cached.
    pub fn insert(&mut self, name: &Arc<K>, hash: u64, value: V, weight: u64) {
        if weight > self.budget {
            return;
        }
        let name = self.remove(name).unwrap_or_else(|| Arc::clone(name));
        // Evict until the new entry fits.
        while self.used + weight > self.budget {
            let Some(victim) = self.victim() else {
                break;
            };
            if self.remove(&victim).is_some() {
                self.evictions += 1;
            }
        }
        self.used += weight;
        // The newcomer lands at frequency 1: below the memoised victim, it
        // is the next one.
        let below_victim = match self.victim.as_ref() {
            Some(victim) => self
                .entries
                .get(victim)
                .is_some_and(|v| (1, &name) < (v.frequency, victim)),
            None => false,
        };
        if below_victim {
            self.victim = Some(Arc::clone(&name));
        }
        let entry = Entry {
            value,
            weight,
            frequency: 1,
            hash,
        };
        self.entries.insert(name, entry);
    }

    /// Removes every entry; the counters and the sketch stay.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.used = 0;
        self.victim = None;
    }
}

/// A weighted, LFU-evicting, TinyLFU-admitting, lock-sharded table (module
/// docs); `S` is what its owner keeps per shard.
pub struct LfuTable<K: ?Sized, V, S = ()> {
    shard_budget: u64,
    shards: Sharded<Mutex<LfuShard<K, V, S>>>,
}

impl<K: ?Sized, V, S: Default> LfuTable<K, V, S> {
    /// A table whose `budget` is split evenly over `shards` shards (at
    /// least one, each with a budget of at least one), each locked by the
    /// cell `lock` builds from its index and contents.
    pub fn new(
        budget: u64,
        shards: usize,
        mut lock: impl FnMut(u32, LfuShard<K, V, S>) -> Mutex<LfuShard<K, V, S>>,
    ) -> Self {
        let shard_budget = (budget / shards.max(1) as u64).max(1);
        let shard = || LfuShard {
            entries: HashMap::new(),
            used: 0,
            budget: shard_budget,
            victim: None,
            sketch: None,
            hits: 0,
            misses: 0,
            evictions: 0,
            refused: 0,
            extra: S::default(),
        };
        LfuTable {
            shard_budget,
            shards: Sharded::new_indexed(shards, |i| lock(i, shard())),
        }
    }

    /// Each shard's budget.
    pub fn shard_budget(&self) -> u64 {
        self.shard_budget
    }

    /// The budget summed over all shards.
    pub fn budget(&self) -> u64 {
        self.shard_budget * self.shards.shard_count() as u64
    }

    /// Number of lock shards.
    pub fn shard_count(&self) -> usize {
        self.shards.shard_count()
    }

    /// Locks the shard that owns the keys hashed to `hash`.
    pub fn shard(&self, hash: u64) -> MutexGuard<'_, LfuShard<K, V, S>> {
        self.shards.get(&hash).lock()
    }

    /// Every shard's lock, in index order.
    pub fn shards(&self) -> impl Iterator<Item = &Mutex<LfuShard<K, V, S>>> {
        self.shards.iter()
    }

    /// Counters summed over all shards; `decisions` counts a shard's read
    /// decisions.
    pub fn stats(&self, decisions: impl Fn(&mut LfuShard<K, V, S>) -> usize) -> CacheStats {
        let mut stats = CacheStats::default();
        for shard in self.shards.iter() {
            let mut shard = shard.lock();
            stats.hits += shard.hits;
            stats.misses += shard.misses;
            stats.evictions += shard.evictions;
            stats.refused += shard.refused;
            stats.used_bytes += shard.used;
            stats.entries += shard.entries.len();
            stats.decisions += decisions(&mut shard);
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sharded::ShardKey;

    /// A deterministic pseudo-random stream (splitmix64).
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % n as u64) as usize
        }
    }

    #[test]
    fn the_memoised_victim_is_the_one_a_scan_finds() {
        let mut rng = Rng(7);
        // One shard of 320 bytes; an entry weighs its value's length plus
        // its name's, the object cache's rule.
        let table: LfuTable<str, u64> = LfuTable::new(8 * 40, 1, |_, shard| Mutex::new(shard));
        let names: Vec<String> = (0..24).map(|i| format!("key{i:02}")).collect();
        for step in 0..5000 {
            let name = names[rng.below(names.len())].as_str();
            let hash = name.shard_hint();
            let mut inner = table.shard(hash);
            let (record, len) = match rng.below(8) {
                0 => {
                    inner.remove(name);
                    (None, 0)
                }
                1..=3 => (Some(true), 20 + rng.below(30)),
                _ => (inner.lookup(name, hash).is_none().then_some(false), 30),
            };
            let weight = (len + name.len()) as u64;
            if let Some(record) = record {
                if inner.admits(name, hash, weight, record) {
                    inner.insert(&Arc::from(name), hash, step, weight);
                }
            }
            let memo = inner.victim.clone();
            inner.victim = None;
            assert!(memo.is_none() || memo == inner.victim(), "step {step}");
            inner.victim = memo;
            assert!(inner.used <= table.shard_budget());
        }
        let s = table.stats(|_| 0);
        assert!(s.evictions > 0 && s.refused > 0, "{s:?}");
    }
}
