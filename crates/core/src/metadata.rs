//! Per-object metadata maintained by the controller.
//!
//! Pesos stores each object's policy association and per-version facts
//! (size, content hash, policy hash) as part of the object metadata
//! (paper §1, §3.3). The metadata record is persisted on the Kinetic drives
//! next to the object data and is what the `objSize`, `objHash`,
//! `objPolicy`, `currVersion` and `objId` predicates consult.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use parking_lot::RwLock;
use pesos_policy::PolicyId;
use pesos_wire::codec::{FieldReader, FieldWriter};

use crate::error::PesosError;

/// How many historical version entries are retained per object.
pub const MAX_VERSION_HISTORY: usize = 128;

/// A digest of at most 32 bytes held inline, empty when there is none (an
/// object without a policy). A version history is copied with every record
/// it belongs to, so its digests must not be heap allocations of their own.
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub struct InlineDigest {
    len: u8,
    bytes: [u8; 32],
}

impl InlineDigest {
    /// The digest holding `bytes`, or `None` if they are more than 32.
    pub fn new(bytes: &[u8]) -> Option<Self> {
        let mut digest = InlineDigest::default();
        digest.bytes.get_mut(..bytes.len())?.copy_from_slice(bytes);
        digest.len = bytes.len() as u8;
        Some(digest)
    }

    /// The digest's bytes (none, or up to 32).
    pub fn as_slice(&self) -> &[u8] {
        self.bytes.get(..usize::from(self.len)).unwrap_or_default()
    }
}

impl From<[u8; 32]> for InlineDigest {
    fn from(bytes: [u8; 32]) -> Self {
        InlineDigest { len: 32, bytes }
    }
}

impl fmt::Debug for InlineDigest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_slice().fmt(f)
    }
}

/// Facts about one stored version.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VersionMeta {
    /// The version number.
    pub version: u64,
    /// Size of the plaintext value in bytes.
    pub size: u64,
    /// SHA-256 of the plaintext value.
    pub value_hash: InlineDigest,
    /// Hash (identifier) of the policy associated at this version; empty
    /// when the object has no policy.
    pub policy_hash: InlineDigest,
}

/// The metadata record for one object key.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ObjectMetadata {
    /// The object key.
    pub key: String,
    /// The latest stored version.
    pub latest_version: u64,
    /// Identifier of the associated policy, if any.
    pub policy_id: Option<PolicyId>,
    /// Per-version facts, most recent last, bounded to
    /// [`MAX_VERSION_HISTORY`] entries. Shared between the copies of a
    /// record (every get hands one out); [`ObjectMetadata::record_version`]
    /// replaces the list instead of changing it.
    pub versions: Arc<[VersionMeta]>,
}

impl ObjectMetadata {
    /// Creates metadata for a new object.
    pub fn new(key: impl Into<String>) -> Self {
        ObjectMetadata {
            key: key.into(),
            ..ObjectMetadata::default()
        }
    }

    /// Records a version, filing it in version order (replicated applies
    /// can arrive out of order), and returns the versions trimmed beyond
    /// the retention bound, oldest first. A trimmed version's data object
    /// is unreferenced from here on; the store deletes it in the same batch
    /// that persists this record.
    pub fn record_version(&mut self, meta: VersionMeta) -> Vec<u64> {
        let at = self.versions.partition_point(|v| v.version < meta.version);
        let excess = (self.versions.len() + 1).saturating_sub(MAX_VERSION_HISTORY);
        let (before, after) = self.versions.split_at(at);
        let filed = before.iter().chain(std::iter::once(&meta)).chain(after);
        let trimmed = filed.clone().take(excess).map(|v| v.version).collect();
        // The iterator knows its length, so the new list is allocated at
        // its final size.
        self.versions = filed.skip(excess).copied().collect();
        if let Some(latest) = self.versions.last() {
            self.latest_version = latest.version;
        }
        trimmed
    }

    /// Looks up the facts for a specific version.
    pub fn version(&self, version: u64) -> Option<&VersionMeta> {
        self.versions.iter().rev().find(|v| v.version == version)
    }

    /// Facts of the latest version.
    pub fn latest(&self) -> Option<&VersionMeta> {
        self.versions.last()
    }

    /// Serializes the record for storage on a drive.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = FieldWriter::new();
        w.string(1, &self.key);
        w.uint64(2, self.latest_version);
        if let Some(id) = &self.policy_id {
            w.bytes(3, &id.0);
        }
        for v in self.versions.iter() {
            let mut vw = FieldWriter::new();
            vw.uint64(1, v.version)
                .uint64(2, v.size)
                .bytes(3, v.value_hash.as_slice())
                .bytes(4, v.policy_hash.as_slice());
            w.message(4, &vw);
        }
        w.finish()
    }

    /// Parses a stored record.
    pub fn from_bytes(data: &[u8]) -> Result<Self, PesosError> {
        let corrupt = |m: &str| PesosError::Backend(format!("corrupt metadata: {m}"));
        let fields = FieldReader::new(data)
            .collect_fields()
            .map_err(|e| corrupt(&e.to_string()))?;
        let mut meta = ObjectMetadata::default();
        let mut versions = Vec::new();
        for f in fields {
            match f.number {
                1 => {
                    meta.key = f
                        .as_str()
                        .map_err(|_| corrupt("key not UTF-8"))?
                        .to_string()
                }
                2 => meta.latest_version = f.value,
                3 => {
                    if f.data.len() == 32 {
                        let mut id = [0u8; 32];
                        id.copy_from_slice(f.data);
                        meta.policy_id = Some(PolicyId(id));
                    } else {
                        return Err(corrupt("policy id length"));
                    }
                }
                4 => {
                    let digest =
                        |data| InlineDigest::new(data).ok_or_else(|| corrupt("digest length"));
                    let mut v = VersionMeta {
                        version: 0,
                        size: 0,
                        value_hash: InlineDigest::default(),
                        policy_hash: InlineDigest::default(),
                    };
                    for vf in FieldReader::new(f.data)
                        .collect_fields()
                        .map_err(|e| corrupt(&e.to_string()))?
                    {
                        match vf.number {
                            1 => v.version = vf.value,
                            2 => v.size = vf.value,
                            3 => v.value_hash = digest(vf.data)?,
                            4 => v.policy_hash = digest(vf.data)?,
                            _ => {}
                        }
                    }
                    versions.push(v);
                }
                _ => {}
            }
        }
        if meta.key.is_empty() {
            return Err(corrupt("missing key"));
        }
        meta.versions = versions.into();
        Ok(meta)
    }
}

/// The in-enclave metadata map, sharded to keep concurrent sessions on
/// different keys from contending on one global lock.
///
/// Shards are selected by [`crate::placement::key_hash`] — the same hash
/// that drives replica placement — so all state for a key (metadata shard,
/// cache shard, drive set) derives from one hash computation and keys that
/// never share a shard never share a lock. Callers on the request hot path
/// pass a precomputed [`HashedKey`] so the shard selection costs a modulo,
/// not a fresh SHA-256 of the key. Built on the generic
/// [`crate::sharded::Sharded`] container; `RwLock` cells keep the warm
/// read path (`get`) shared.
pub struct ShardedMetadata {
    shards: Sharded<RwLock<HashMap<String, ObjectMetadata>>>,
}

use crate::placement::HashedKey;
use crate::sharded::Sharded;

impl ShardedMetadata {
    /// Creates a map with `shards` lock shards (at least one).
    pub fn new(shards: usize) -> Self {
        ShardedMetadata {
            shards: Sharded::new_indexed(shards, |i| {
                RwLock::with_rank_indexed(
                    parking_lot::lock_order::METADATA_SHARD,
                    i,
                    HashMap::new(),
                )
            }),
        }
    }

    /// Number of lock shards.
    pub fn shard_count(&self) -> usize {
        self.shards.shard_count()
    }

    fn shard(&self, key: &HashedKey<'_>) -> &RwLock<HashMap<String, ObjectMetadata>> {
        self.shards.get(key)
    }

    /// Returns a clone of the metadata for `key`, if cached.
    pub fn get<'a>(&self, key: impl Into<HashedKey<'a>>) -> Option<ObjectMetadata> {
        let key = key.into();
        self.shard(&key).read().get(key.key()).cloned()
    }

    /// Inserts (or replaces) the metadata for `meta.key`; `key` should be
    /// the hashed form of that same key (saving a digest). A mismatched
    /// pair is a caller bug — debug builds assert; release builds fall back
    /// to hashing `meta.key` itself so the record still lands in the shard
    /// where lookups will find it, instead of becoming unreachable.
    pub fn insert<'a>(&self, key: impl Into<HashedKey<'a>>, meta: ObjectMetadata) {
        let key = key.into();
        debug_assert_eq!(key.key(), meta.key, "hashed key does not match record");
        let shard = if key.key() == meta.key {
            self.shard(&key)
        } else {
            self.shard(&HashedKey::new(&meta.key))
        };
        shard.write().insert(meta.key.clone(), meta);
    }

    /// Removes the metadata for `key`.
    pub fn remove<'a>(&self, key: impl Into<HashedKey<'a>>) {
        let key = key.into();
        self.shard(&key).write().remove(key.key());
    }

    /// Total number of cached metadata records across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// The names of every cached record, in no particular order. Used by
    /// the cluster's load-aware rebalancer to pick a weighted split point;
    /// an in-memory snapshot (not drive-authoritative), which is all load
    /// accounting needs.
    pub fn keys(&self) -> Vec<String> {
        self.shards
            .iter()
            .flat_map(|s| s.read().keys().cloned().collect::<Vec<_>>())
            .collect()
    }

    /// Whether no metadata is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Backend key under which an object's data for `version` is stored.
pub fn data_key(key: &str, version: u64) -> Vec<u8> {
    format!("o/{key}/{version:020}").into_bytes()
}

/// Backend key under which an object's metadata record is stored.
pub fn meta_key(key: &str) -> Vec<u8> {
    format!("m/{key}").into_bytes()
}

/// Backend key under which a compiled policy is stored.
pub fn policy_key(id_hex: &str) -> Vec<u8> {
    format!("p/{id_hex}").into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ObjectMetadata {
        let mut m = ObjectMetadata::new("users/alice");
        m.policy_id = Some(PolicyId([7u8; 32]));
        m.record_version(VersionMeta {
            version: 0,
            size: 10,
            value_hash: [1; 32].into(),
            policy_hash: [2; 32].into(),
        });
        m.record_version(VersionMeta {
            version: 1,
            size: 20,
            value_hash: [3; 32].into(),
            policy_hash: [2; 32].into(),
        });
        m
    }

    #[test]
    fn round_trip() {
        let m = sample();
        let decoded = ObjectMetadata::from_bytes(&m.to_bytes()).unwrap();
        assert_eq!(decoded, m);
    }

    #[test]
    fn version_lookup() {
        let m = sample();
        assert_eq!(m.latest_version, 1);
        assert_eq!(m.version(0).unwrap().size, 10);
        assert_eq!(m.latest().unwrap().size, 20);
        assert!(m.version(9).is_none());
    }

    #[test]
    fn history_is_bounded() {
        let mut m = ObjectMetadata::new("k");
        for v in 0..(MAX_VERSION_HISTORY as u64 + 50) {
            let trimmed = m.record_version(VersionMeta {
                version: v,
                size: v,
                value_hash: InlineDigest::default(),
                policy_hash: InlineDigest::default(),
            });
            // Exactly the version that fell off the front is reported.
            let expected: Vec<u64> = v
                .checked_sub(MAX_VERSION_HISTORY as u64)
                .into_iter()
                .collect();
            assert_eq!(trimmed, expected);
        }
        assert_eq!(m.versions.len(), MAX_VERSION_HISTORY);
        assert_eq!(m.latest_version, MAX_VERSION_HISTORY as u64 + 49);
        // The oldest entries were trimmed.
        assert!(m.version(0).is_none());
    }

    #[test]
    fn out_of_order_versions_are_filed_in_place() {
        let mut m = ObjectMetadata::new("k");
        for v in [1u64, 0, 3, 2] {
            m.record_version(VersionMeta {
                version: v,
                size: v,
                value_hash: InlineDigest::default(),
                policy_hash: InlineDigest::default(),
            });
        }
        let order: Vec<u64> = m.versions.iter().map(|v| v.version).collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
        assert_eq!(m.latest_version, 3);
    }

    #[test]
    fn copies_share_the_history_until_one_records_a_version() {
        let original = sample();
        let mut copy = original.clone();
        assert!(Arc::ptr_eq(&original.versions, &copy.versions));
        copy.record_version(VersionMeta {
            version: 2,
            size: 30,
            value_hash: [4; 32].into(),
            policy_hash: [2; 32].into(),
        });
        assert_eq!(copy.versions.len(), 3);
        assert_eq!(original, sample());
    }

    #[test]
    fn a_version_older_than_a_full_history_is_trimmed_itself() {
        let mut m = ObjectMetadata::new("k");
        for v in 1..=MAX_VERSION_HISTORY as u64 {
            m.record_version(VersionMeta {
                version: v,
                size: v,
                value_hash: InlineDigest::default(),
                policy_hash: InlineDigest::default(),
            });
        }
        let before = m.clone();
        let trimmed = m.record_version(VersionMeta {
            version: 0,
            size: 0,
            value_hash: InlineDigest::default(),
            policy_hash: InlineDigest::default(),
        });
        assert_eq!(trimmed, vec![0]);
        assert_eq!(m, before);
    }

    #[test]
    fn digests_longer_than_32_bytes_are_corrupt() {
        assert!(InlineDigest::new(&[0; 33]).is_none());
        let mut version = FieldWriter::new();
        version.uint64(1, 0).uint64(2, 1).bytes(3, &[9; 33]);
        let mut record = FieldWriter::new();
        record.string(1, "k");
        record.message(4, &version);
        assert!(ObjectMetadata::from_bytes(&record.finish()).is_err());
    }

    #[test]
    fn corrupt_records_rejected() {
        assert!(ObjectMetadata::from_bytes(b"nonsense").is_err());
        assert!(ObjectMetadata::from_bytes(&[]).is_err());
    }

    #[test]
    fn backend_keys_are_namespaced_and_ordered() {
        assert!(String::from_utf8(data_key("a", 3))
            .unwrap()
            .starts_with("o/a/"));
        assert_eq!(meta_key("a"), b"m/a".to_vec());
        assert!(String::from_utf8(policy_key("ff00"))
            .unwrap()
            .starts_with("p/"));
        // Zero-padded versions sort correctly as byte strings.
        assert!(data_key("a", 2) < data_key("a", 10));
    }
}
