//! Deterministic replication placement.
//!
//! Pesos maps objects to disks through a deterministic hash of the object
//! key over the ordered list of drives: the primary is selected by the hash,
//! and the `N-1` replicas go to the following positions
//! `D(i+1), D(i+2), ..., D(i+N-1)` (paper §4.5). No replication metadata
//! needs to be kept; on drive failure the next available drive in the
//! sequence is used.

use std::cell::Cell;

use pesos_crypto::sha256;

/// The deterministic key hash everything placement-related derives from:
/// drive selection, metadata lock shards and object-cache shards all use
/// this same value, so state for one key always lives behind the same
/// shard index regardless of the structure consulted.
pub fn key_hash(key: &str) -> u64 {
    sha256(key.as_bytes())
        .first_chunk()
        .map_or(0, |prefix| u64::from_be_bytes(*prefix))
}

/// The *placement group* of a key: its directory-style prefix up to (and
/// excluding) the first occurrence of `delimiter`, or the full key when the
/// key contains no delimiter, starts with it (an empty prefix would lump
/// unrelated keys into one group), or no delimiter is configured.
///
/// Keys in the same placement group always route to the same cluster
/// partition, which is what makes object-referencing policies (`objSays`
/// over `<key>.log`, MAL-style) evaluable against the owning partition's
/// store on any topology: with the default `'.'` delimiter, `<key>`,
/// `<key>.log` and `<key>.v2` all share the group `<key>`.
pub fn routing_prefix(key: &str, delimiter: Option<char>) -> &str {
    match delimiter.and_then(|d| key.split_once(d)) {
        Some((prefix, _)) if !prefix.is_empty() => prefix,
        _ => key,
    }
}

/// The routing hash of `key`: [`key_hash`] of its [`routing_prefix`].
///
/// The cluster layer partitions the key space by *this* value, while drive
/// placement, caches and lock shards keep using the full-key [`key_hash`] —
/// the split that lets sibling objects co-route without perturbing any
/// single-controller structure. For keys that are their own placement group
/// the two hashes coincide and no extra digest is ever paid.
pub fn routing_hash(key: &str, delimiter: Option<char>) -> u64 {
    let prefix = routing_prefix(key, delimiter);
    if prefix.len() == key.len() {
        key_hash(key)
    } else {
        key_hash(prefix)
    }
}

/// An object key bundled with its [`key_hash`], computed exactly once.
///
/// One request consults several hash-keyed structures — drive placement,
/// the metadata map shard, the object-cache shard, the key-lock stripe —
/// and each of them used to recompute the SHA-256 key hash from scratch.
/// The controller now builds a `HashedKey` when the request enters and
/// threads it through every layer, so the digest is paid once per request
/// regardless of how many structures are touched.
///
/// `From<&str>` keeps call sites that have only a bare key (tests, external
/// store users) working: conversion computes the hash, so a bare `&str`
/// argument is exactly the old behaviour.
///
/// The key's *routing hash* — [`key_hash`] over its placement-group prefix,
/// by which the cluster layer partitions the key space — is computed lazily
/// on first use and cached ([`HashedKey::routing_hash`]), so requests that
/// never cross the cluster router (the whole single-controller surface)
/// never pay for it. The cache cell is why `HashedKey` is `Clone` but not
/// `Copy`; pass `&HashedKey` (every `impl Into<HashedKey>` parameter
/// accepts it) to reuse one computation across layers.
#[derive(Debug, Clone)]
pub struct HashedKey<'a> {
    key: &'a str,
    hash: u64,
    /// `(delimiter, routing hash)` memo of the last `routing_hash` call; a
    /// cluster uses one delimiter for its lifetime, so in practice this is
    /// computed at most once per request.
    routing: Cell<Option<(Option<char>, u64)>>,
}

impl<'a> HashedKey<'a> {
    /// Hashes `key` once and caches the result.
    pub fn new(key: &'a str) -> Self {
        HashedKey {
            key,
            hash: key_hash(key),
            routing: Cell::new(None),
        }
    }

    /// Reassembles a `HashedKey` from a key and its previously computed
    /// [`key_hash`]. The pair is trusted: a mismatched hash would corrupt
    /// shard selection and drive placement for the key (the object would
    /// be written where no lookup ever finds it), so only pass back a
    /// value obtained from [`HashedKey::hash`] for the *same* key. Used
    /// where a request crosses an ownership boundary (into an async or
    /// migration-drain closure) and only the raw parts can travel; debug
    /// builds verify the pair, release builds trust it (re-hashing would
    /// defeat the point).
    pub fn from_parts(key: &'a str, hash: u64) -> Self {
        debug_assert_eq!(hash, key_hash(key), "hash does not belong to {key:?}");
        HashedKey {
            key,
            hash,
            routing: Cell::new(None),
        }
    }

    /// The cluster-routing hash of this key: [`key_hash`] over the key's
    /// [`routing_prefix`] under `delimiter`. Computed on first use and
    /// cached; keys that are their own placement group reuse the already
    /// cached full-key hash, costing nothing.
    pub fn routing_hash(&self, delimiter: Option<char>) -> u64 {
        let prefix = routing_prefix(self.key, delimiter);
        if prefix.len() == self.key.len() {
            return self.hash;
        }
        if let Some((memo_delim, memo_hash)) = self.routing.get() {
            if memo_delim == delimiter {
                return memo_hash;
            }
        }
        let hash = key_hash(prefix);
        self.routing.set(Some((delimiter, hash)));
        hash
    }

    /// The object key.
    pub fn key(&self) -> &'a str {
        self.key
    }

    /// The cached [`key_hash`] value.
    pub fn hash(&self) -> u64 {
        self.hash
    }

    /// Maps this key to one of `shards` lock-shard indices.
    ///
    /// Every sharded structure (metadata map, object cache, key-lock
    /// stripes) selects shards through this one function so their shard
    /// choice can never drift apart.
    pub fn shard(&self, shards: usize) -> usize {
        if shards <= 1 {
            return 0;
        }
        (self.hash % shards as u64) as usize
    }
}

impl pesos_policy::ShardKey for HashedKey<'_> {
    /// Sharded structures keyed by object keys select shards from the
    /// cached placement hash — the same value [`HashedKey::shard`] uses —
    /// so generic [`pesos_policy::Sharded`] containers and the hand-rolled
    /// `shard()` methods they replaced can never disagree.
    fn shard_hint(&self) -> u64 {
        self.hash
    }
}

impl<'a> From<&'a str> for HashedKey<'a> {
    fn from(key: &'a str) -> Self {
        HashedKey::new(key)
    }
}

impl<'a> From<&'a String> for HashedKey<'a> {
    fn from(key: &'a String) -> Self {
        HashedKey::new(key)
    }
}

impl<'a> From<&HashedKey<'a>> for HashedKey<'a> {
    fn from(key: &HashedKey<'a>) -> Self {
        key.clone()
    }
}

/// Maps `key` to one of `shards` lock-shard indices using [`key_hash`].
///
/// Convenience wrapper over [`HashedKey::shard`] for callers without a
/// precomputed hash.
pub fn shard_index(key: &str, shards: usize) -> usize {
    HashedKey::new(key).shard(shards)
}

/// Returns the ordered drive indices holding `key`: the primary first, then
/// the replicas, `replication_factor` entries in total (capped at the number
/// of drives).
pub fn placement<'a>(
    key: impl Into<HashedKey<'a>>,
    drive_count: usize,
    replication_factor: usize,
) -> Vec<usize> {
    placement_available(key, drive_count, replication_factor, |_| true)
}

/// Like [`placement`] but skips the drives `is_online` reports offline,
/// extending the probe sequence so the replication factor is preserved when
/// possible. `is_online` is asked once per probed slot, in probe order, and
/// not at all past the slot that completes the set.
pub fn placement_available<'a>(
    key: impl Into<HashedKey<'a>>,
    drive_count: usize,
    replication_factor: usize,
    is_online: impl Fn(usize) -> bool,
) -> Vec<usize> {
    probe_available(
        key.into().hash(),
        drive_count,
        replication_factor,
        is_online,
    )
    .collect()
}

/// [`placement_available`]'s indices for the key of placement hash `hash`,
/// yielded as they are probed: a caller that maps them to its own targets
/// builds the only list.
pub(crate) fn probe_available(
    hash: u64,
    drive_count: usize,
    replication_factor: usize,
    is_online: impl Fn(usize) -> bool,
) -> impl Iterator<Item = usize> {
    let factor = replication_factor.clamp(1, drive_count.max(1));
    let primary = (hash % drive_count.max(1) as u64) as usize;
    (0..drive_count)
        .map(move |offset| (primary + offset) % drive_count)
        .filter(move |&index| is_online(index))
        .take(factor)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn deterministic_and_in_range() {
        for key in ["a", "b", "users/alice", "a-very-long-object-key-0123456789"] {
            let a = placement(key, 5, 3);
            let b = placement(key, 5, 3);
            assert_eq!(a, b);
            assert_eq!(a.len(), 3);
            assert!(a.iter().all(|&i| i < 5));
        }
    }

    #[test]
    fn replicas_are_consecutive_and_distinct() {
        let p = placement("some-key", 4, 3);
        assert_eq!(p.len(), 3);
        assert_eq!(p[1], (p[0] + 1) % 4);
        assert_eq!(p[2], (p[0] + 2) % 4);
        let unique: std::collections::HashSet<_> = p.iter().collect();
        assert_eq!(unique.len(), 3);
    }

    #[test]
    fn factor_is_capped_at_drive_count() {
        assert_eq!(placement("k", 2, 5).len(), 2);
        assert_eq!(placement("k", 1, 1), vec![0]);
        assert!(placement("k", 0, 1).is_empty());
    }

    #[test]
    fn distribution_is_roughly_balanced() {
        let drives = 4;
        let mut counts: HashMap<usize, usize> = HashMap::new();
        for i in 0..4000 {
            let p = placement(&format!("user{i}"), drives, 1);
            *counts.entry(p[0]).or_default() += 1;
        }
        for d in 0..drives {
            let c = counts.get(&d).copied().unwrap_or(0);
            assert!(
                (700..=1300).contains(&c),
                "drive {d} got {c} of 4000 objects"
            );
        }
    }

    #[test]
    fn hashed_key_matches_direct_key_hash() {
        for key in ["", "a", "users/alice", "a-very-long-object-key-0123456789"] {
            let hashed = HashedKey::new(key);
            assert_eq!(hashed.hash(), key_hash(key));
            assert_eq!(hashed.key(), key);
            for shards in [1usize, 2, 7, 16, 64] {
                assert_eq!(hashed.shard(shards), shard_index(key, shards));
            }
            // Placement through a precomputed hash is identical to placement
            // from the bare key.
            assert_eq!(placement(&hashed, 5, 3), placement(key, 5, 3));
            assert_eq!(
                placement_available(&hashed, 5, 3, |i| i.is_multiple_of(2)),
                placement_available(key, 5, 3, |i| i.is_multiple_of(2))
            );
        }
    }

    #[test]
    fn routing_prefix_cuts_at_the_first_delimiter_only() {
        let d = Some('.');
        // Siblings share the group of their base key.
        assert_eq!(routing_prefix("doc", d), "doc");
        assert_eq!(routing_prefix("doc.log", d), "doc");
        assert_eq!(routing_prefix("doc.v2", d), "doc");
        // First-delimiter rule: a dotted base key still groups with its
        // suffixed siblings ("a.b" and "a.b.log" both cut to "a").
        assert_eq!(routing_prefix("a.b", d), "a");
        assert_eq!(routing_prefix("a.b.log", d), "a");
        // Edge cases route by the full key: no delimiter in the key, a
        // leading delimiter (empty prefix), a delimiter-only key, the empty
        // key, and a configuration with no delimiter at all.
        assert_eq!(routing_prefix("users/alice", d), "users/alice");
        assert_eq!(routing_prefix(".log", d), ".log");
        assert_eq!(routing_prefix(".", d), ".");
        assert_eq!(routing_prefix("", d), "");
        assert_eq!(routing_prefix("doc.log", None), "doc.log");
        // Trailing delimiter: the prefix is the key minus the dot, so
        // "doc." groups with "doc".
        assert_eq!(routing_prefix("doc.", d), "doc");
    }

    #[test]
    fn routing_hash_groups_siblings_and_caches() {
        let d = Some('.');
        for (a, b) in [
            ("doc", "doc.log"),
            ("doc", "doc.v2"),
            ("a.b", "a.b.log"),
            ("medical/record-7", "medical/record-7.log"),
        ] {
            assert_eq!(routing_hash(a, d), routing_hash(b, d), "{a} vs {b}");
        }
        // Full-key fallbacks equal the plain key hash.
        for key in ["users/alice", ".log", ".", "", "doc"] {
            assert_eq!(routing_hash(key, d), key_hash(key), "{key}");
            assert_eq!(routing_hash(key, None), key_hash(key), "{key}");
        }
        // Distinct groups stay distinct.
        assert_ne!(routing_hash("doc", d), routing_hash("dot", d));

        // The cached form agrees with the free function, for every shape.
        for key in ["doc", "doc.log", ".log", ".", "", "a.b.log", "x."] {
            let hashed = HashedKey::new(key);
            assert_eq!(hashed.routing_hash(d), routing_hash(key, d), "{key}");
            // Second call answers from the memo (same value).
            assert_eq!(hashed.routing_hash(d), routing_hash(key, d), "{key}");
            // A different delimiter recomputes rather than serving a stale
            // memo.
            assert_eq!(
                hashed.routing_hash(Some('/')),
                routing_hash(key, Some('/')),
                "{key}"
            );
            assert_eq!(hashed.routing_hash(None), key_hash(key), "{key}");
        }
    }

    #[test]
    fn placement_available_scales_to_many_drives() {
        // 2000 drives with only a sparse tail online: one question per
        // probed slot keeps the walk O(drives).
        let drive_count = 2000;
        let online = |idx: usize| idx.is_multiple_of(37);
        for i in 0..50 {
            let key = format!("obj/{i}");
            let p = placement_available(&key, drive_count, 3, online);
            assert_eq!(p.len(), 3);
            assert!(p.iter().all(|idx| idx % 37 == 0));
            // The probe order is preserved: each selected drive is the next
            // online drive at or after the previous selection.
            let primary = (key_hash(&key) % drive_count as u64) as usize;
            let expected: Vec<usize> = (0..drive_count)
                .map(|off| (primary + off) % drive_count)
                .filter(|idx| idx % 37 == 0)
                .take(3)
                .collect();
            assert_eq!(p, expected);
        }
        // The walk stops asking at the slot that completes the set.
        let asked = Cell::new(0);
        let p = placement_available("k", 4, 2, |_| {
            asked.set(asked.get() + 1);
            true
        });
        assert_eq!((p.len(), asked.get()), (2, 2));
    }

    #[test]
    fn failure_falls_through_to_next_available() {
        let all = placement("obj", 4, 2);
        // Take the primary offline.
        let p = placement_available("obj", 4, 2, |i| i != all[0]);
        assert_eq!(p.len(), 2);
        assert!(!p.contains(&all[0]));
        assert_eq!(p[0], (all[0] + 1) % 4);

        // With only one drive online the factor degrades gracefully.
        let p = placement_available("obj", 4, 3, |i| i == 2);
        assert_eq!(p, vec![2]);
        assert!(placement_available("obj", 4, 2, |_| false).is_empty());
    }
}
