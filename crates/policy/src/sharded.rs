//! Generic lock sharding.
//!
//! The workspace grew five hand-rolled `Vec<Mutex<…>>`-plus-`shard()`
//! structures (controller metadata map, object cache, key-lock registry,
//! session manager, transaction-outcome map) before this module extracted
//! the pattern: a fixed set of independently locked shards plus a
//! shard-index function that maps a key to the shard owning it. [`Sharded`]
//! is generic over the *lock cell* (`Mutex<T>`, `RwLock<T>`, …) so each
//! structure keeps its preferred lock flavour, and the shard-index function
//! is supplied per lookup through the [`ShardKey`] trait — placement-hashed
//! object keys, cheaply-hashed client identities and dense numeric ids all
//! select shards through their own function without re-deriving anything.
//!
//! This module lives in `pesos-policy` (the lowest crate that both the
//! policy cache and `pesos-core` can reach — core depends on policy, so the
//! definition cannot live in core without a cycle); `pesos-core` re-exports
//! it as the canonical path.

/// Maps a key to the `u64` shard hint its structure shards by.
///
/// This is the "shard-index function" of the extracted pattern: each keyed
/// structure picks the implementation matching how its keys are already
/// hashed, so sharding never adds a digest.
///
/// * `u64` — identity. Dense numeric ids (transaction ids, operation ids)
///   spread evenly by value alone.
/// * `str` — the standard library hasher. For identities that are not
///   placement keys (client ids); deliberately *not* SHA-256.
/// * `PolicyId` — the leading bytes of the id, which is already a content
///   hash.
/// * `pesos_core::HashedKey` (implemented in core) — the cached SHA-256
///   placement hash, so all per-key state shards identically.
pub trait ShardKey {
    /// The hint value; the owning shard is `hint % shard_count`.
    fn shard_hint(&self) -> u64;
}

impl ShardKey for u64 {
    fn shard_hint(&self) -> u64 {
        *self
    }
}

impl ShardKey for str {
    fn shard_hint(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        self.hash(&mut hasher);
        hasher.finish()
    }
}

impl ShardKey for crate::PolicyId {
    fn shard_hint(&self) -> u64 {
        self.0
            .first_chunk()
            .map_or(0, |prefix| u64::from_be_bytes(*prefix))
    }
}

/// A fixed set of independently locked shards.
///
/// `L` is the per-shard lock cell (e.g. `Mutex<HashMap<…>>`); `Sharded`
/// itself never locks, it only selects, so readers and writers use whatever
/// guard API the cell provides. There is always at least one shard: the
/// first is a field of its own, so selection never has to handle an empty
/// list.
pub struct Sharded<L> {
    first: L,
    rest: Vec<L>,
}

impl<L> Sharded<L> {
    /// Creates `shards` cells (at least one), each initialised by `init`.
    pub fn new(shards: usize, mut init: impl FnMut() -> L) -> Self {
        Sharded::new_indexed(shards, |_| init())
    }

    /// Creates `shards` cells (at least one), passing each its index —
    /// used to build rank-tagged sharded lock families whose runtime
    /// checker permits same-rank nesting only in ascending shard order
    /// (see `parking_lot::lock_order`).
    pub fn new_indexed(shards: usize, mut init: impl FnMut(u32) -> L) -> Self {
        Sharded {
            first: init(0),
            rest: (1..shards.max(1)).map(|i| init(i as u32)).collect(),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        1 + self.rest.len()
    }

    /// The shard owning `key`, selected through `key`'s shard-index
    /// function ([`ShardKey::shard_hint`]).
    ///
    /// A single-shard structure skips the hint computation entirely, which
    /// keeps the degenerate configuration as cheap as an unsharded lock.
    pub fn get<K: ShardKey + ?Sized>(&self, key: &K) -> &L {
        if self.rest.is_empty() {
            return &self.first;
        }
        let index = (key.shard_hint() % self.shard_count() as u64) as usize;
        // Shard `i > 0` is `rest[i - 1]`; shard 0 wraps past the end.
        self.rest.get(index.wrapping_sub(1)).unwrap_or(&self.first)
    }

    /// Iterates over every shard in index order (aggregate statistics,
    /// sweeps).
    pub fn iter(&self) -> impl Iterator<Item = &L> {
        std::iter::once(&self.first).chain(&self.rest)
    }
}

/// Bounded, sharded map keyed by dense `u64` identifiers with per-shard
/// FIFO eviction.
///
/// The retention pattern shared by transaction-outcome maps, the
/// controller's async result buffer and the cluster's async-operation
/// routing table: identifiers are dense sequence
/// numbers (the identity shard-index function spreads them evenly), each
/// shard keeps its most recent insertions, and the oldest entries beyond
/// the shard's share of the capacity are evicted. A lookup of an evicted
/// entry is indistinguishable from a lookup of an unknown one.
pub struct ShardedFifoMap<V> {
    per_shard_capacity: usize,
    shards: Sharded<parking_lot::Mutex<FifoShard<V>>>,
}

struct FifoShard<V> {
    entries: std::collections::HashMap<u64, V>,
    order: std::collections::VecDeque<u64>,
}

impl<V> Default for FifoShard<V> {
    fn default() -> Self {
        FifoShard {
            entries: std::collections::HashMap::new(),
            order: std::collections::VecDeque::new(),
        }
    }
}

impl<V: Clone> ShardedFifoMap<V> {
    /// Creates a map with `shards` lock shards retaining at most
    /// `capacity` entries in total (at least one per shard).
    pub fn new(shards: usize, capacity: usize) -> Self {
        let shards = shards.max(1);
        ShardedFifoMap {
            per_shard_capacity: (capacity / shards).max(1),
            shards: Sharded::new_indexed(shards, |i| {
                parking_lot::Mutex::with_rank_indexed(
                    parking_lot::lock_order::FIFO_SHARD,
                    i,
                    FifoShard::default(),
                )
            }),
        }
    }

    /// Inserts (or replaces) the entry for `id`, evicting the oldest
    /// entries of its shard beyond the retention bound.
    pub fn insert(&self, id: u64, value: V) {
        let mut shard = self.shards.get(&id).lock();
        if shard.entries.insert(id, value).is_none() {
            shard.order.push_back(id);
        }
        while shard.order.len() > self.per_shard_capacity {
            if let Some(evicted) = shard.order.pop_front() {
                shard.entries.remove(&evicted);
            }
        }
    }

    /// Runs `f` on the retained entry for `id`, if any. Never inserts: an
    /// evicted or unknown `id` stays absent and `f` does not run.
    pub fn update<R>(&self, id: u64, f: impl FnOnce(&mut V) -> R) -> Option<R> {
        self.shards.get(&id).lock().entries.get_mut(&id).map(f)
    }

    /// Returns a clone of the retained entry for `id`, if any.
    pub fn get(&self, id: u64) -> Option<V> {
        self.shards.get(&id).lock().entries.get(&id).cloned()
    }

    /// Total number of retained entries.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().entries.len()).sum()
    }

    /// Whether no entries are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;

    #[test]
    fn shard_selection_is_stable_and_in_range() {
        let sharded: Sharded<Mutex<Vec<u64>>> = Sharded::new(8, || Mutex::new(Vec::new()));
        assert_eq!(sharded.shard_count(), 8);
        for id in 0..100u64 {
            sharded.get(&id).lock().push(id);
        }
        // Identity hint: shard i holds exactly the ids congruent to i mod 8.
        for (i, shard) in sharded.iter().enumerate() {
            let held = shard.lock();
            assert!(held.iter().all(|id| (id % 8) as usize == i));
        }
        let total: usize = sharded.iter().map(|s| s.lock().len()).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn str_keys_spread_without_sha() {
        let sharded: Sharded<Mutex<usize>> = Sharded::new(4, || Mutex::new(0));
        for i in 0..64 {
            *sharded.get(format!("client-{i}").as_str()).lock() += 1;
        }
        // Same key always selects the same shard.
        let a = sharded.get("client-7") as *const _;
        let b = sharded.get("client-7") as *const _;
        assert_eq!(a, b);
        // At least two shards saw traffic (DefaultHasher spreads).
        let populated = sharded.iter().filter(|s| *s.lock() > 0).count();
        assert!(populated >= 2);
    }

    #[test]
    fn single_shard_short_circuits() {
        let sharded: Sharded<Mutex<u32>> = Sharded::new(1, || Mutex::new(0));
        assert_eq!(sharded.shard_count(), 1);
        assert_eq!(
            sharded.get("anything") as *const _,
            sharded.get(&7u64) as *const _
        );
        // Zero shards is clamped to one.
        let clamped: Sharded<Mutex<u32>> = Sharded::new(0, || Mutex::new(0));
        assert_eq!(clamped.shard_count(), 1);
    }

    #[test]
    fn fifo_map_bounds_retention_per_shard() {
        let map: ShardedFifoMap<u64> = ShardedFifoMap::new(2, 8);
        for id in 0..40u64 {
            map.insert(id, id * 10);
        }
        // Recent entries retained, oldest evicted, capacity respected.
        assert!(map.len() <= 8);
        assert_eq!(map.get(39), Some(390));
        assert_eq!(map.get(0), None);
        // Replacing an entry does not double-count it in the order queue.
        let map: ShardedFifoMap<&'static str> = ShardedFifoMap::new(1, 2);
        map.insert(1, "a");
        map.insert(1, "b");
        map.insert(2, "c");
        assert_eq!(map.get(1), Some("b"));
        assert_eq!(map.get(2), Some("c"));
        assert_eq!(map.len(), 2);
        assert!(!map.is_empty());
        // An update reaches a retained entry and never inserts one.
        assert_eq!(map.update(2, |v| std::mem::replace(v, "d")), Some("c"));
        assert_eq!(map.get(2), Some("d"));
        assert_eq!(map.update(3, |_| ()), None);
        assert_eq!(map.get(3), None);
        assert_eq!(map.len(), 2);
    }

    #[test]
    fn policy_id_hint_uses_leading_bytes() {
        let mut raw = [0u8; 32];
        raw[..8].copy_from_slice(&42u64.to_be_bytes());
        let id = crate::PolicyId(raw);
        assert_eq!(id.shard_hint(), 42);
    }
}
