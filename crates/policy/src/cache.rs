//! The policy cache.
//!
//! Compiled policies are cached in the enclave so that the common case —
//! many objects sharing few policies — avoids both recompilation and a
//! disk round trip (paper §4.2; Figure 8 measures the throughput collapse
//! once the unique policies outnumber the cache). It is an [`LfuTable`]
//! ([`crate::lfu`]): every policy weighs one against `capacity`, and
//! [`PolicyId::shard_hint`] (the id is a content hash already) selects the
//! shard and indexes the sketch. A policy the store installs
//! ([`PolicyCache::insert`]) is cached unconditionally, since the objects
//! written under it will use it; one read back after a lookup missed
//! ([`PolicyCache::fill`]) must win admission, so a working set larger
//! than the cache reads its cold policies back without displacing its hot
//! ones.
//!
//! # Remembered read decisions
//!
//! An entry also keeps the read decisions its policy made
//! ([`PolicyCache::get_with_read`], [`PolicyCache::remember_read`]), so
//! evicting a policy evicts its decisions and no other table holds them.
//! The cache only files and returns them: what a [`ReadMemo`] depends on,
//! and whether that still holds, is its caller's business (the store's
//! write generations). A shard bounds its decisions by the policies it may
//! keep, `capacity / shards`: once it has filed that many since it last
//! started afresh, it drops every decision it holds and starts again.
//! Each costs one evaluation to rebuild, tracking their recency would cost
//! every lookup, and counting filings rather than holdings needs nothing
//! from eviction. Decisions never displace a policy, so which policies are
//! cached, and with it the hit rate Figure 8 plots, is what it was without
//! them.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::compiler::{CompiledPolicy, PolicyId};
use crate::interpreter::Decision;
use crate::lfu::{CacheStats, LfuTable};
use crate::sharded::ShardKey;

/// A read decision its policy made for one principal on one object, kept
/// beside the policy (module docs, "Remembered read decisions").
#[derive(Debug)]
pub struct ReadMemo {
    /// The principal (session key) the decision was made for, then the
    /// object it asked to read, in one allocation.
    subject: Box<str>,
    /// Where the principal ends in `subject`.
    principal_len: usize,
    generations: Box<[(u32, u64)]>,
    decision: Decision,
}

impl ReadMemo {
    /// The `decision` `principal` got on reading `key`, computed under
    /// `generations`: `(slot, generation)` pairs whose meaning belongs to
    /// the caller; the cache only keeps them.
    pub fn new(
        principal: &str,
        key: &str,
        generations: Box<[(u32, u64)]>,
        decision: Decision,
    ) -> Self {
        ReadMemo {
            subject: [principal, key].concat().into(),
            principal_len: principal.len(),
            generations,
            decision,
        }
    }

    /// What the decision was computed under.
    pub fn generations(&self) -> &[(u32, u64)] {
        &self.generations
    }

    /// The decision.
    pub fn decision(&self) -> &Decision {
        &self.decision
    }

    fn principal(&self) -> &str {
        self.subject.get(..self.principal_len).unwrap_or_default()
    }

    /// True if this is `principal`'s decision on `key`.
    fn is_for(&self, principal: &str, key: &str) -> bool {
        self.subject.split_at_checked(self.principal_len) == Some((principal, key))
    }

    /// The tag a memo is filed under within its policy's entry. `key_hash`
    /// is the caller's hash of the object key; equal tags are told apart
    /// by [`ReadMemo::is_for`].
    fn tag(principal: &str, key_hash: u64) -> u64 {
        principal.shard_hint().rotate_left(32) ^ key_hash
    }
}

struct Entry {
    policy: Arc<CompiledPolicy>,
    decisions: HashMap<u64, Arc<ReadMemo>>,
}

/// A bounded, LFU-evicting, TinyLFU-admitting, lock-sharded policy cache.
pub struct PolicyCache {
    /// Each shard's own count is of the decisions it filed since it last
    /// dropped them all.
    table: LfuTable<PolicyId, Entry, usize>,
}

impl PolicyCache {
    /// Creates a single-shard cache holding at most `capacity` policies
    /// (the paper's evaluation uses 50 000 entries); use
    /// [`PolicyCache::with_shards`] for the concurrent variant.
    pub fn new(capacity: usize) -> Self {
        PolicyCache::with_shards(capacity, 1)
    }

    /// Creates a cache whose capacity is split evenly over `shards`
    /// independently locked shards (at least one entry per shard).
    pub fn with_shards(capacity: usize, shards: usize) -> Self {
        PolicyCache {
            table: LfuTable::new(capacity as u64, shards, |i, shard| {
                Mutex::with_rank_indexed(parking_lot::lock_order::POLICY_CACHE_SHARD, i, shard)
            }),
        }
    }

    /// The configured capacity (summed over all shards).
    pub fn capacity(&self) -> usize {
        self.table.budget() as usize
    }

    /// Number of lock shards.
    pub fn shard_count(&self) -> usize {
        self.table.shard_count()
    }

    /// Looks up a policy, counting the access.
    pub fn get(&self, id: &PolicyId) -> Option<Arc<CompiledPolicy>> {
        let hash = id.shard_hint();
        let mut shard = self.table.shard(hash);
        Some(Arc::clone(&shard.lookup(id, hash)?.policy))
    }

    /// Looks up a policy as [`PolicyCache::get`] does (one lookup, counted
    /// alike), and with it the read decision remembered for `principal` on
    /// `key`, whose hash the caller passes as `key_hash`.
    pub fn get_with_read(
        &self,
        id: &PolicyId,
        principal: &str,
        key: &str,
        key_hash: u64,
    ) -> Option<(Arc<CompiledPolicy>, Option<Arc<ReadMemo>>)> {
        let hash = id.shard_hint();
        let mut shard = self.table.shard(hash);
        let entry = shard.lookup(id, hash)?;
        let memo = if entry.decisions.is_empty() {
            None
        } else {
            let memo = entry.decisions.get(&ReadMemo::tag(principal, key_hash));
            memo.filter(|memo| memo.is_for(principal, key)).cloned()
        };
        Some((Arc::clone(&entry.policy), memo))
    }

    /// Remembers a read decision of policy `id`, replacing any it held for
    /// the same principal and key (`key_hash` as for
    /// [`PolicyCache::get_with_read`]). A policy no longer cached keeps
    /// nothing.
    pub fn remember_read(&self, id: &PolicyId, key_hash: u64, memo: ReadMemo) {
        let tag = ReadMemo::tag(memo.principal(), key_hash);
        let bound = self.table.shard_budget() as usize;
        let mut shard = self.table.shard(id.shard_hint());
        if shard.get_mut(id).is_some() && shard.extra >= bound {
            for entry in shard.values_mut() {
                entry.decisions.clear();
            }
            shard.extra = 0;
        }
        let entry = shard.get_mut(id);
        if entry.is_some_and(|entry| entry.decisions.insert(tag, Arc::new(memo)).is_none()) {
            shard.extra += 1;
        }
    }

    /// Installs a policy, evicting the least-frequently-used entry of its
    /// shard (the smallest identifier among equals) if that shard is full.
    /// A policy already cached stays as it is.
    pub fn insert(&self, policy: Arc<CompiledPolicy>) -> PolicyId {
        self.land(policy, false)
    }

    /// Caches a policy read back after a lookup of it missed (which counted
    /// the access), if it wins admission (module docs).
    pub fn fill(&self, policy: Arc<CompiledPolicy>) {
        self.land(policy, true);
    }

    fn land(&self, policy: Arc<CompiledPolicy>, admit: bool) -> PolicyId {
        let id = policy.id();
        let hash = id.shard_hint();
        let mut shard = self.table.shard(hash);
        if shard.get_mut(&id).is_none() && (!admit || shard.admits(&id, hash, 1, false)) {
            let entry = Entry {
                policy,
                decisions: HashMap::new(),
            };
            shard.insert(&Arc::new(id), hash, entry, 1);
        }
        id
    }

    /// Removes a policy, and the decisions it made, from the cache (e.g.
    /// after it is superseded).
    pub fn invalidate(&self, id: &PolicyId) -> bool {
        self.table.shard(id.shard_hint()).remove(id).is_some()
    }

    /// Empties the cache.
    pub fn clear(&self) {
        for shard in self.table.shards() {
            let mut shard = shard.lock();
            shard.clear();
            shard.extra = 0;
        }
    }

    /// Returns counters aggregated over all shards.
    pub fn stats(&self) -> CacheStats {
        self.table
            .stats(|shard| shard.values_mut().map(|entry| entry.decisions.len()).sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::compile;

    fn policy(n: usize) -> Arc<CompiledPolicy> {
        Arc::new(compile(&format!("read :- eq({n}, {n})")).unwrap())
    }

    #[test]
    fn insert_and_get() {
        let cache = PolicyCache::new(10);
        let p = policy(1);
        let id = cache.insert(Arc::clone(&p));
        assert_eq!(cache.get(&id).unwrap().id(), p.id());
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 0);
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn miss_recorded_for_unknown_policy() {
        let cache = PolicyCache::new(10);
        let unknown = policy(7).id();
        assert!(cache.get(&unknown).is_none());
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().hit_rate(), 0.0);
    }

    #[test]
    fn eviction_prefers_cold_entries() {
        let cache = PolicyCache::new(3);
        let hot = cache.insert(policy(0));
        let cold1 = cache.insert(policy(1));
        let cold2 = cache.insert(policy(2));
        // Touch the hot entry repeatedly.
        for _ in 0..5 {
            cache.get(&hot);
        }
        cache.get(&cold2);
        // Inserting a fourth entry evicts the coldest (cold1).
        cache.insert(policy(3));
        assert!(cache.get(&hot).is_some());
        assert!(cache.get(&cold1).is_none());
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.stats().entries, 3);
    }

    #[test]
    fn equal_frequency_victims_are_chosen_by_id() {
        // Six equally cold policies fill the cache; a seventh must evict
        // the smallest identifier, whatever order the map iterates in.
        let mut policies: Vec<Arc<CompiledPolicy>> = (0..6).map(policy).collect();
        policies.sort_by_key(|p| p.id());
        let smallest = policies[0].id();
        for round in 0..6 {
            let cache = PolicyCache::new(6);
            let mut order = policies.clone();
            // Insertion order varies per round; the victim must not.
            order.rotate_left(round);
            for p in order {
                cache.insert(p);
            }
            cache.insert(policy(6));
            assert!(cache.get(&smallest).is_none(), "round {round}");
            for p in &policies[1..] {
                assert!(cache.get(&p.id()).is_some(), "round {round}");
            }
        }
    }

    #[test]
    fn duplicate_insert_is_idempotent() {
        let cache = PolicyCache::new(2);
        let p = policy(1);
        let a = cache.insert(Arc::clone(&p));
        let b = cache.insert(p);
        assert_eq!(a, b);
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn invalidate_and_clear() {
        let cache = PolicyCache::new(4);
        let id = cache.insert(policy(1));
        assert!(cache.invalidate(&id));
        assert!(!cache.invalidate(&id));
        cache.insert(policy(2));
        cache.clear();
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn hit_rate_reflects_workload() {
        let cache = PolicyCache::new(100);
        let id = cache.insert(policy(1));
        for _ in 0..9 {
            cache.get(&id);
        }
        cache.get(&policy(2).id());
        let stats = cache.stats();
        assert_eq!(stats.hits, 9);
        assert_eq!(stats.misses, 1);
        assert!((stats.hit_rate() - 0.9).abs() < 1e-9);
    }

    #[test]
    fn frequency_decay_keeps_cache_adaptive() {
        let cache = PolicyCache::new(2);
        let old_hot = cache.insert(policy(1));
        for _ in 0..50 {
            cache.get(&old_hot);
        }
        let newcomer = cache.insert(policy(2));
        // Access the newcomer enough times (with decay) that the old entry
        // can eventually be displaced by a third policy.
        for _ in 0..600 {
            cache.get(&newcomer);
        }
        cache.insert(policy(3));
        assert!(cache.get(&newcomer).is_some());
    }

    fn memo(principal: &str, key: &str) -> ReadMemo {
        ReadMemo::new(principal, key, Box::new([(0, 1)]), Decision::allow(0))
    }

    #[test]
    fn a_read_decision_is_kept_beside_its_policy() {
        let cache = PolicyCache::new(4);
        let id = cache.insert(policy(1));
        // Nothing remembered yet; the lookup counts as a `get` does.
        let (found, none) = cache.get_with_read(&id, "alice", "obj", 7).unwrap();
        assert_eq!(found.id(), id);
        assert!(none.is_none());
        cache.remember_read(&id, 7, memo("alice", "obj"));
        let (_, kept) = cache.get_with_read(&id, "alice", "obj", 7).unwrap();
        let kept = kept.unwrap();
        assert_eq!(kept.decision(), &Decision::allow(0));
        assert_eq!(kept.generations(), &[(0, 1)]);
        // Another principal or another key under the same tag is a miss,
        // and so is the same name split differently.
        assert!(cache
            .get_with_read(&id, "bob", "obj", 7)
            .unwrap()
            .1
            .is_none());
        assert!(cache
            .get_with_read(&id, "aliceo", "bj", 7)
            .unwrap()
            .1
            .is_none());
        let (_, other) = cache.get_with_read(&id, "alice", "other", 7).unwrap();
        assert!(other.is_none());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.decisions), (5, 0, 1));
        // Remembering again replaces; an unknown policy keeps nothing.
        cache.remember_read(&id, 7, memo("alice", "obj"));
        cache.remember_read(&policy(2).id(), 7, memo("alice", "obj"));
        assert_eq!(cache.stats().decisions, 1);
        assert!(cache.get_with_read(&policy(2).id(), "a", "b", 0).is_none());
    }

    #[test]
    fn evicting_a_policy_evicts_its_decisions() {
        let cache = PolicyCache::new(1);
        let first = cache.insert(policy(1));
        cache.remember_read(&first, 1, memo("alice", "a"));
        cache.remember_read(&first, 2, memo("alice", "b"));
        assert_eq!(cache.stats().decisions, 1, "bounded by the capacity");
        cache.insert(policy(2));
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.decisions, stats.evictions), (1, 0, 1));
        let second = cache.insert(policy(3));
        cache.remember_read(&second, 1, memo("alice", "a"));
        assert!(cache.invalidate(&second));
        assert_eq!(cache.stats().decisions, 0);
    }

    #[test]
    fn a_shard_at_its_decision_bound_starts_again() {
        let cache = PolicyCache::new(3);
        let ids: Vec<PolicyId> = (0..3).map(|n| cache.insert(policy(n))).collect();
        for (n, id) in ids.iter().enumerate() {
            cache.remember_read(id, n as u64, memo("alice", &n.to_string()));
        }
        assert_eq!(cache.stats().decisions, 3);
        // The fourth drops all three and is kept alone; no policy goes.
        cache.remember_read(&ids[0], 9, memo("bob", "9"));
        let stats = cache.stats();
        assert_eq!((stats.decisions, stats.entries), (1, 3));
        assert!(cache
            .get_with_read(&ids[0], "bob", "9", 9)
            .unwrap()
            .1
            .is_some());
        assert!(cache
            .get_with_read(&ids[1], "alice", "1", 1)
            .unwrap()
            .1
            .is_none());
        cache.clear();
        assert_eq!(cache.stats().decisions, 0);
    }

    #[test]
    fn sharded_cache_keeps_per_policy_semantics() {
        let cache = PolicyCache::with_shards(64, 8);
        assert_eq!(cache.shard_count(), 8);
        assert_eq!(cache.capacity(), 64);
        let ids: Vec<PolicyId> = (0..32).map(|n| cache.insert(policy(n))).collect();
        for id in &ids {
            assert!(cache.get(id).is_some());
        }
        let stats = cache.stats();
        assert_eq!(stats.entries, 32);
        assert_eq!(stats.hits, 32);
        assert!(cache.invalidate(&ids[3]));
        assert!(cache.get(&ids[3]).is_none());
        cache.clear();
        assert_eq!(cache.stats().entries, 0);
        // Per-shard capacity floors at one entry.
        let tiny = PolicyCache::with_shards(2, 8);
        assert_eq!(tiny.capacity(), 8);
    }

    /// `len` Zipf(θ 0.99) draws over ranks `0..n`, from a fixed splitmix64
    /// stream.
    fn zipfian(n: usize, len: usize) -> Vec<usize> {
        let mut cdf: Vec<f64> = (1..=n).map(|r| 1.0 / (r as f64).powf(0.99)).collect();
        let mut total = 0.0;
        for p in cdf.iter_mut() {
            total += *p;
            *p = total;
        }
        let mut state = 2017u64;
        (0..len)
            .map(|_| {
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                let u = ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64 * total;
                cdf.partition_point(|&c| c < u).min(n - 1)
            })
            .collect()
    }

    #[test]
    fn a_zipfian_stream_twice_the_capacity_keeps_its_hot_policies() {
        // Figure 8 past capacity: 16 shards with room for 500 policies,
        // 1 000 policies looked up Zipf 0.99, each miss read back and
        // offered as a fill; 200 000 lookups, the first 50 000 warm up.
        const CAPACITY: usize = 500;
        let policies: Vec<Arc<CompiledPolicy>> = (0..2 * CAPACITY).map(policy).collect();
        let cache = PolicyCache::with_shards(CAPACITY, 16);
        let mut warm = CacheStats::default();
        for (step, rank) in zipfian(policies.len(), 200_000).into_iter().enumerate() {
            if step == 50_000 {
                warm = cache.stats();
            }
            let policy = &policies[rank];
            if cache.get(&policy.id()).is_none() {
                cache.fill(Arc::clone(policy));
            }
        }
        let end = cache.stats();
        let (hits, misses) = (end.hits - warm.hits, end.misses - warm.misses);
        let evictions = end.evictions - warm.evictions;
        let rate = hits as f64 / (hits + misses) as f64;
        println!("hit rate {rate:.4}, {evictions} evictions, {misses} misses");
        // A fill-always LFU evicts on every miss once full.
        assert!(rate >= 0.87, "hit rate {rate}");
        assert!(
            evictions * 4 <= misses,
            "{evictions} evictions for {misses} misses"
        );
    }
}
