//! Per-object metadata maintained by the controller.
//!
//! Pesos stores each object's policy association and per-version facts
//! (size, content hash, policy hash) as part of the object metadata
//! (paper §1, §3.3). The metadata record is persisted on the Kinetic drives
//! next to the object data and is what the `objSize`, `objHash`,
//! `objPolicy`, `currVersion` and `objId` predicates consult.

use std::collections::HashMap;

use parking_lot::RwLock;
use pesos_policy::PolicyId;
use pesos_wire::codec::{FieldReader, FieldWriter};

use crate::error::PesosError;

/// How many historical version entries are retained per object.
pub const MAX_VERSION_HISTORY: usize = 128;

/// Facts about one stored version.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VersionMeta {
    /// The version number.
    pub version: u64,
    /// Size of the plaintext value in bytes.
    pub size: u64,
    /// SHA-256 of the plaintext value.
    pub value_hash: Vec<u8>,
    /// Hash (identifier) of the policy associated at this version.
    pub policy_hash: Vec<u8>,
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
    /// [`MAX_VERSION_HISTORY`] entries.
    pub versions: Vec<VersionMeta>,
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
        self.versions.insert(at, meta);
        let excess = self.versions.len().saturating_sub(MAX_VERSION_HISTORY);
        let trimmed = self.versions.drain(..excess).map(|v| v.version).collect();
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
        for v in &self.versions {
            let mut vw = FieldWriter::new();
            vw.uint64(1, v.version)
                .uint64(2, v.size)
                .bytes(3, &v.value_hash)
                .bytes(4, &v.policy_hash);
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
                    let mut v = VersionMeta {
                        version: 0,
                        size: 0,
                        value_hash: Vec::new(),
                        policy_hash: Vec::new(),
                    };
                    for vf in FieldReader::new(f.data)
                        .collect_fields()
                        .map_err(|e| corrupt(&e.to_string()))?
                    {
                        match vf.number {
                            1 => v.version = vf.value,
                            2 => v.size = vf.value,
                            3 => v.value_hash = vf.data.to_vec(),
                            4 => v.policy_hash = vf.data.to_vec(),
                            _ => {}
                        }
                    }
                    meta.versions.push(v);
                }
                _ => {}
            }
        }
        if meta.key.is_empty() {
            return Err(corrupt("missing key"));
        }
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
            value_hash: vec![1; 32],
            policy_hash: vec![2; 32],
        });
        m.record_version(VersionMeta {
            version: 1,
            size: 20,
            value_hash: vec![3; 32],
            policy_hash: vec![2; 32],
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
                value_hash: vec![],
                policy_hash: vec![],
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
                value_hash: vec![],
                policy_hash: vec![],
            });
        }
        let order: Vec<u64> = m.versions.iter().map(|v| v.version).collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
        assert_eq!(m.latest_version, 3);
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
