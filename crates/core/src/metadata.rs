//! Per-object metadata maintained by the controller.
//!
//! Pesos stores each object's policy association and per-version facts
//! (size, content hash, policy hash) as part of the object metadata
//! (paper §1, §3.3). The metadata record is persisted on the Kinetic drives
//! next to the object data and is what the `objSize`, `objHash`,
//! `objPolicy`, `currVersion` and `objId` predicates consult.
//!
//! # A head plus sealed segments
//!
//! A put must not rewrite the history it extends, so a record is stored in
//! two parts:
//!
//! * the **head**, under `m/<key>` ([`ObjectMetadata::to_bytes`]): the key,
//!   the latest version, the policy id, the *open tail* of fewer than
//!   [`SEGMENT_LEN`] version facts, and the first version of each sealed
//!   segment. Every put rewrites it, and it stays small.
//! * **sealed segments**, under `h/<key>/<first version>`
//!   ([`ObjectMetadata::segment_bytes`]): full runs of [`SEGMENT_LEN`]
//!   facts the tail hands over when it fills. A segment is written once,
//!   by the put that seals it, and deleted whole, together with the data of
//!   every version it lists, by the put that trims it. Versions arrive in
//!   order: a put records `latest + 1`, and a backup never records at all
//!   (it writes the batches its primary wrote).
//!
//! Both parts ride in the mutation's one atomic batch per replica (`store`
//! module docs). There is one decoder and no layout flag: a head that
//! lists no segments is exactly the record as it was stored before
//! segments existed. A history shorter than [`SEGMENT_LEN`] is therefore
//! stored byte for byte as then, and an older record of up to 128 versions
//! reads as a head whose versions are all still open; later puts seal them
//! a segment at a time.
//!
//! **Retention** trims one segment at a time, facts and data together:
//! [`MAX_VERSION_HISTORY`] is the guaranteed minimum, and a key keeps
//! between 128 and 135 versions (`MAX_VERSION_HISTORY + SEGMENT_LEN - 1`).
//!
//! A record that decodes but contradicts itself — versions out of order or
//! repeated, a latest version other than the last one listed, a segment
//! that is short, belongs to another key or does not start where the head
//! says — is as corrupt as one that does not decode: a put over it would be
//! assigned a version the record already lists and overwrite its bytes.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::RwLock;
use pesos_policy::PolicyId;
use pesos_wire::codec::{varint_len, FieldReader, FieldWriter};

use crate::error::PesosError;

/// How many versions an object retains at least. The history is trimmed a
/// whole sealed segment at a time, so it holds between this and
/// `MAX_VERSION_HISTORY + SEGMENT_LEN - 1` versions (module docs).
pub const MAX_VERSION_HISTORY: usize = 128;

/// Version facts per sealed history segment (module docs).
pub const SEGMENT_LEN: usize = 8;

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

/// A key's retained version facts in ascending version order: the sealed
/// segments, then the open tail (module docs). Copies of a record share
/// both halves (every get hands one out): [`ObjectMetadata::record_version`]
/// replaces the tail, and the segment list only when a segment seals,
/// changes or is trimmed, so a put copies a few facts, not the history.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct History {
    sealed: Arc<[Arc<[VersionMeta]>]>,
    tail: Arc<[VersionMeta]>,
}

impl History {
    /// Every retained version's facts, oldest first.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = &VersionMeta> + '_ {
        self.sealed
            .iter()
            .flat_map(|s| s.iter())
            .chain(self.tail.iter())
    }

    /// How many versions are retained.
    pub fn len(&self) -> usize {
        self.sealed.iter().map(|s| s.len()).sum::<usize>() + self.tail.len()
    }

    /// Whether no version is retained.
    pub fn is_empty(&self) -> bool {
        self.sealed.is_empty() && self.tail.is_empty()
    }

    /// The oldest retained version's facts.
    pub fn first(&self) -> Option<&VersionMeta> {
        self.iter().next()
    }

    /// The latest retained version's facts.
    pub fn last(&self) -> Option<&VersionMeta> {
        self.iter().next_back()
    }

    /// The sealed segments, oldest first. Each is stored under the version
    /// of its first fact.
    pub fn segments(&self) -> impl Iterator<Item = &[VersionMeta]> + Clone + '_ {
        self.sealed.iter().map(|s| &**s)
    }

    /// The facts of `version`, found by bisecting the segment starts and
    /// then the one run that can hold it.
    pub fn get(&self, version: u64) -> Option<&VersionMeta> {
        let starts_at_or_before =
            |run: &[VersionMeta]| run.first().is_some_and(|f| f.version <= version);
        let run = if starts_at_or_before(&self.tail) {
            &*self.tail
        } else {
            let after = self.sealed.partition_point(|s| starts_at_or_before(s));
            self.sealed.get(after.checked_sub(1)?)?
        };
        let at = run.binary_search_by_key(&version, |v| v.version).ok()?;
        run.get(at)
    }
}

/// What [`ObjectMetadata::record_version`] changed besides the head: the
/// writes and deletes that ride in the batch persisting the new head.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistoryChange {
    /// The segment the version sealed, to be written under the version of
    /// its first fact.
    pub written: Option<Arc<[VersionMeta]>>,
    /// First version of the stored segment the retention bound trimmed.
    pub dropped: Option<u64>,
    /// Versions the retention bound trimmed, oldest first. Their data
    /// objects are unreferenced from here on.
    pub trimmed: Vec<u64>,
}

/// The metadata record for one object key. A copy costs reference-count
/// bumps: the key and both halves of the history are shared.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ObjectMetadata {
    /// The object key (the in-enclave map files the record under this
    /// same buffer).
    pub key: Arc<str>,
    /// The latest stored version.
    pub latest_version: u64,
    /// Identifier of the associated policy, if any.
    pub policy_id: Option<PolicyId>,
    /// Per-version facts, most recent last; retention as
    /// [`MAX_VERSION_HISTORY`] says.
    pub versions: History,
}

impl ObjectMetadata {
    /// Creates metadata for a new object.
    pub fn new(key: impl Into<Arc<str>>) -> Self {
        ObjectMetadata {
            key: key.into(),
            ..ObjectMetadata::default()
        }
    }

    /// Records the next version (`latest + 1`, or the first of a new
    /// record) and returns what the drives must change besides the head. A
    /// tail that reaches [`SEGMENT_LEN`] facts seals its oldest run into a
    /// segment. Then, if the history without its oldest segment still holds
    /// [`MAX_VERSION_HISTORY`] versions, that segment is trimmed.
    pub fn record_version(&mut self, meta: VersionMeta) -> HistoryChange {
        debug_assert!(
            self.versions
                .last()
                .is_none_or(|last| last.version < meta.version),
            "versions are recorded in order"
        );
        let mut change = HistoryChange::default();
        let history = &mut self.versions;
        let run = history.tail.iter().copied().chain(std::iter::once(meta));
        // The new segment list, built only when it changes.
        let mut sealed: Option<Vec<Arc<[VersionMeta]>>> = None;
        if history.tail.len() + 1 < SEGMENT_LEN {
            history.tail = run.collect();
        } else {
            let run: Vec<VersionMeta> = run.collect();
            let (full, rest) = run.split_at(SEGMENT_LEN);
            let segment: Arc<[VersionMeta]> = full.into();
            let mut list = history.sealed.to_vec();
            list.push(Arc::clone(&segment));
            change.written = Some(segment);
            sealed = Some(list);
            history.tail = rest.into();
        }

        let segments = sealed.as_deref().unwrap_or(&history.sealed);
        let total = segments.iter().map(|s| s.len()).sum::<usize>() + history.tail.len();
        let trim = segments
            .first()
            .filter(|s| total - s.len() >= MAX_VERSION_HISTORY)
            .cloned();
        if let Some(trim) = trim {
            let mut list = sealed.unwrap_or_else(|| history.sealed.to_vec());
            list.retain(|s| !Arc::ptr_eq(s, &trim));
            sealed = Some(list);
            change.trimmed = trim.iter().map(|v| v.version).collect();
            // A segment this very put sealed (out of a legacy tail longer
            // than the bound) never reached the drives.
            if change
                .written
                .as_ref()
                .is_some_and(|w| Arc::ptr_eq(w, &trim))
            {
                change.written = None;
            } else {
                change.dropped = trim.first().map(|f| f.version);
            }
        }
        if let Some(list) = sealed {
            history.sealed = list.into();
        }
        self.latest_version = meta.version;
        change
    }

    /// Looks up the facts for a specific version.
    pub fn version(&self, version: u64) -> Option<&VersionMeta> {
        self.versions.get(version)
    }

    /// Facts of the latest version.
    pub fn latest(&self) -> Option<&VersionMeta> {
        self.versions.last()
    }

    /// The head stored under `m/<key>`, encoded in one pass into a buffer
    /// allocated at its final size: key, latest version, policy id, the
    /// open tail's facts, then the first version of each sealed segment
    /// (field 5, absent while none is sealed).
    pub fn to_bytes(&self) -> Vec<u8> {
        let starts = self.versions.segments().filter_map(|s| s.first());
        let len = field_len(self.key.len())
            + 1
            + varint_len(self.latest_version)
            + self.policy_id.map_or(0, |id| field_len(id.0.len()))
            + facts_len(&self.versions.tail)
            + starts
                .clone()
                .map(|f| 1 + varint_len(f.version))
                .sum::<usize>();
        let mut w = FieldWriter::with_capacity(len);
        w.string(1, &self.key).uint64(2, self.latest_version);
        if let Some(id) = &self.policy_id {
            w.bytes(3, &id.0);
        }
        write_facts(&mut w, &self.versions.tail);
        for first in starts {
            w.uint64(5, first.version);
        }
        w.finish()
    }

    /// The bytes stored under `h/<key>/<first version>` for `segment`, one
    /// of this record's sealed segments: the key, then the facts.
    pub fn segment_bytes(&self, segment: &[VersionMeta]) -> Vec<u8> {
        let mut w = FieldWriter::with_capacity(field_len(self.key.len()) + facts_len(segment));
        w.string(1, &self.key);
        write_facts(&mut w, segment);
        w.finish()
    }

    /// Parses a stored record that lists no sealed segments (a history of
    /// fewer than [`SEGMENT_LEN`] versions, or one stored before segments
    /// existed). A head that lists segments needs them:
    /// [`MetadataHead::assemble`].
    pub fn from_bytes(data: &[u8]) -> Result<Self, PesosError> {
        MetadataHead::from_bytes(data)?.assemble::<&[u8]>(&[])
    }
}

/// A head as read from a drive: the record without its sealed segments,
/// and the first version of each segment it lists.
#[derive(Debug)]
pub struct MetadataHead {
    record: ObjectMetadata,
    segments: Vec<u64>,
}

impl MetadataHead {
    /// Decodes the bytes stored under `m/<key>`.
    pub fn from_bytes(data: &[u8]) -> Result<Self, PesosError> {
        let fields = Fields::parse(data)?;
        Ok(MetadataHead {
            record: ObjectMetadata {
                key: fields.key.into(),
                latest_version: fields.latest_version,
                policy_id: fields.policy_id,
                versions: History {
                    sealed: Arc::new([]),
                    tail: fields.facts.into(),
                },
            },
            segments: fields.segments,
        })
    }

    /// The key the head names.
    pub fn key(&self) -> &str {
        &self.record.key
    }

    /// The first version of each sealed segment the head lists, in order.
    pub fn segments(&self) -> &[u64] {
        &self.segments
    }

    /// The whole record: this head completed by the stored bytes of its
    /// segments, in the order [`MetadataHead::segments`] lists them.
    /// Anything that contradicts the head or itself is corrupt (module
    /// docs).
    pub fn assemble<B: AsRef<[u8]>>(self, segments: &[B]) -> Result<ObjectMetadata, PesosError> {
        let MetadataHead {
            mut record,
            segments: starts,
        } = self;
        if starts.len() != segments.len() {
            return Err(corrupt(&format!(
                "the head lists {} segments, {} given",
                starts.len(),
                segments.len()
            )));
        }
        let sealed = starts
            .iter()
            .zip(segments)
            .map(|(&start, bytes)| {
                let segment = Fields::parse(bytes.as_ref())?;
                if *segment.key != *record.key {
                    return Err(corrupt("a segment of another key"));
                }
                if segment.facts.len() < SEGMENT_LEN {
                    return Err(corrupt("a short segment"));
                }
                if segment.facts.first().map(|f| f.version) != Some(start) {
                    return Err(corrupt("a segment that does not start where the head says"));
                }
                Ok(segment.facts.into())
            })
            .collect::<Result<Vec<Arc<[VersionMeta]>>, PesosError>>()?;
        record.versions.sealed = sealed.into();
        let history = &record.versions;
        if !history
            .iter()
            .zip(history.iter().skip(1))
            .all(|(a, b)| a.version < b.version)
        {
            return Err(corrupt("versions not strictly ascending"));
        }
        if history.last().map(|v| v.version) != Some(record.latest_version) {
            return Err(corrupt("latest version is not the last one listed"));
        }
        Ok(record)
    }
}

/// The fields of a head or a segment.
struct Fields {
    key: String,
    latest_version: u64,
    policy_id: Option<PolicyId>,
    facts: Vec<VersionMeta>,
    segments: Vec<u64>,
}

impl Fields {
    fn parse(data: &[u8]) -> Result<Self, PesosError> {
        let mut fields = Fields {
            key: String::new(),
            latest_version: 0,
            policy_id: None,
            facts: Vec::new(),
            segments: Vec::new(),
        };
        for f in FieldReader::new(data) {
            let f = f.map_err(|e| corrupt(&e.to_string()))?;
            match f.number {
                1 => {
                    fields.key = f
                        .as_str()
                        .map_err(|_| corrupt("key not UTF-8"))?
                        .to_string()
                }
                2 => fields.latest_version = f.value,
                3 => {
                    let id = f.data.try_into().map_err(|_| corrupt("policy id length"))?;
                    fields.policy_id = Some(PolicyId(id));
                }
                4 => fields.facts.push(decode_fact(f.data)?),
                5 => fields.segments.push(f.value),
                _ => {}
            }
        }
        if fields.key.is_empty() {
            return Err(corrupt("missing key"));
        }
        Ok(fields)
    }
}

fn corrupt(m: &str) -> PesosError {
    PesosError::Backend(format!("corrupt metadata: {m}"))
}

/// The encoded length of a field with a one-byte tag and a `len`-byte
/// length-delimited payload.
fn field_len(len: usize) -> usize {
    1 + varint_len(len as u64) + len
}

/// The length of `v`'s nested version message: four one-byte tags, two
/// varints and two length-delimited digests.
fn fact_len(v: &VersionMeta) -> usize {
    2 + varint_len(v.version)
        + varint_len(v.size)
        + field_len(v.value_hash.as_slice().len())
        + field_len(v.policy_hash.as_slice().len())
}

fn facts_len(facts: &[VersionMeta]) -> usize {
    facts.iter().map(|v| field_len(fact_len(v))).sum()
}

/// Writes each fact as a field-4 nested message, in place.
fn write_facts(w: &mut FieldWriter, facts: &[VersionMeta]) {
    for v in facts {
        w.message_in_place(4, fact_len(v), |w| {
            w.uint64(1, v.version)
                .uint64(2, v.size)
                .bytes(3, v.value_hash.as_slice())
                .bytes(4, v.policy_hash.as_slice());
        });
    }
}

fn decode_fact(data: &[u8]) -> Result<VersionMeta, PesosError> {
    let digest = |data| InlineDigest::new(data).ok_or_else(|| corrupt("digest length"));
    let mut v = VersionMeta {
        version: 0,
        size: 0,
        value_hash: InlineDigest::default(),
        policy_hash: InlineDigest::default(),
    };
    for f in FieldReader::new(data) {
        let f = f.map_err(|e| corrupt(&e.to_string()))?;
        match f.number {
            1 => v.version = f.value,
            2 => v.size = f.value,
            3 => v.value_hash = digest(f.data)?,
            4 => v.policy_hash = digest(f.data)?,
            _ => {}
        }
    }
    Ok(v)
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
///
/// The map never evicts, so what one key costs it is what the enclave pays
/// per object. An entry is 64 bytes: the name once, as the map key, the
/// latest version, the history's two pointers, and the policy id as a
/// pointer to one copy its shard shares among the records naming it.
/// [`ObjectMetadata`] is assembled on the way out, by reference-count bumps
/// and a copy of the id, without allocating.
///
/// Beside the records the map keeps a fixed array of *write generations*,
/// `GENERATION_SLOTS_PER_SHARD` per lock shard, indexed by placement
/// hash. Every insert and removal bumps its key's slot under the shard's
/// write lock, and every change to a record passes through the map, so a
/// slot that reads the same before a lookup and later says that no record
/// of its keys changed in between. A remembered read decision is checked
/// this way (`store` module docs, "Read decisions are remembered"); keys
/// that share a slot only make each other's decisions look stale. The
/// array is allocated by the first lookup that reads a generation, so a
/// store that never evaluates a policy over its records (a backup, or one
/// whose objects carry no policy) pays nothing for it; until then no
/// decision depends on a generation, and a change has nothing to bump.
pub struct ShardedMetadata {
    shards: Sharded<RwLock<Shard>>,
    generations: OnceLock<Box<[AtomicU64]>>,
    generation_slots: usize,
}

/// Write-generation slots per lock shard of [`ShardedMetadata`]: 4 096
/// slots, 32 KiB, at the default 16 shards.
const GENERATION_SLOTS_PER_SHARD: usize = 256;

/// One lock shard of [`ShardedMetadata`].
#[derive(Default)]
struct Shard {
    records: HashMap<Arc<str>, Entry>,
    /// One copy of each policy id a record of this shard names, dropped
    /// with the last record naming it.
    policies: HashSet<Arc<PolicyId>>,
}

/// A record as the map files it under its name.
struct Entry {
    latest_version: u64,
    policy_id: Option<Arc<PolicyId>>,
    versions: History,
}

impl Entry {
    fn record(&self, key: &Arc<str>) -> ObjectMetadata {
        ObjectMetadata {
            key: Arc::clone(key),
            latest_version: self.latest_version,
            policy_id: self.policy_id.as_deref().copied(),
            versions: self.versions.clone(),
        }
    }
}

impl Shard {
    /// The shard's copy of `id`, made on its first use.
    fn intern(&mut self, id: PolicyId) -> Arc<PolicyId> {
        if let Some(shared) = self.policies.get(&id) {
            return Arc::clone(shared);
        }
        let shared = Arc::new(id);
        self.policies.insert(Arc::clone(&shared));
        shared
    }

    /// Drops `entry`, and its policy id's copy if no other record names
    /// it: entries are the only holders besides the set.
    fn release(&mut self, entry: Entry) {
        if let Some(id) = entry.policy_id {
            if Arc::strong_count(&id) == 2 {
                self.policies.remove(&*id);
            }
        }
    }
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
                    Shard::default(),
                )
            }),
            generations: OnceLock::new(),
            generation_slots: shards.max(1) * GENERATION_SLOTS_PER_SHARD,
        }
    }

    /// `key`'s write-generation slot.
    fn slot(&self, key: &HashedKey<'_>) -> u32 {
        (key.hash() % self.generation_slots as u64) as u32
    }

    /// The write generation of `key`'s slot, as `(slot, generation)`. Read
    /// it before looking the record up: if the slot still holds the same
    /// generation later ([`ShardedMetadata::generations_hold`]), the record
    /// has not changed since.
    pub(crate) fn generation(&self, key: &HashedKey<'_>) -> (u32, u64) {
        let generations = self.generations.get_or_init(|| {
            (0..self.generation_slots)
                .map(|_| AtomicU64::new(0))
                .collect()
        });
        let slot = self.slot(key);
        let generation = generations.get(slot as usize);
        (slot, generation.map_or(0, |g| g.load(Ordering::Acquire)))
    }

    /// True if every `(slot, generation)` pair still holds. Takes no lock.
    pub(crate) fn generations_hold(&self, held: &[(u32, u64)]) -> bool {
        let generations = self.generations.get().map_or(&[][..], |g| &g[..]);
        held.iter().all(|&(slot, generation)| {
            generations
                .get(slot as usize)
                .is_some_and(|g| g.load(Ordering::Acquire) == generation)
        })
    }

    /// Bumps `key`'s slot; called under the shard's write lock by each
    /// change to the records, so a lookup that allocated the array before
    /// taking the shard's lock is seen by every change after it.
    fn bump(&self, key: &HashedKey<'_>) {
        let slot = self.slot(key) as usize;
        if let Some(generation) = self.generations.get().and_then(|g| g.get(slot)) {
            generation.fetch_add(1, Ordering::AcqRel);
        }
    }

    /// Number of lock shards.
    pub fn shard_count(&self) -> usize {
        self.shards.shard_count()
    }

    fn shard(&self, key: &HashedKey<'_>) -> &RwLock<Shard> {
        self.shards.get(key)
    }

    /// Returns a copy of the metadata for `key`, if cached.
    pub fn get<'a>(&self, key: impl Into<HashedKey<'a>>) -> Option<ObjectMetadata> {
        let key = key.into();
        let shard = self.shard(&key).read();
        let (name, entry) = shard.records.get_key_value(key.key())?;
        Some(entry.record(name))
    }

    /// Runs `f` on the metadata for `key` under its shard's read lock: no
    /// insert or removal of `key` can land until `f` returns.
    pub(crate) fn with<T>(
        &self,
        key: &HashedKey<'_>,
        f: impl FnOnce(Option<&ObjectMetadata>) -> T,
    ) -> T {
        let shard = self.shard(key).read();
        let record = shard
            .records
            .get_key_value(key.key())
            .map(|(name, entry)| entry.record(name));
        f(record.as_ref())
    }

    /// Inserts (or replaces) the metadata for `meta.key`; `key` should be
    /// the hashed form of that same key (saving a digest). A mismatched
    /// pair is a caller bug — debug builds assert; release builds fall back
    /// to hashing `meta.key` itself so the record still lands in the shard
    /// where lookups will find it, instead of becoming unreachable.
    pub fn insert<'a>(&self, key: impl Into<HashedKey<'a>>, meta: ObjectMetadata) {
        let key = key.into();
        debug_assert_eq!(key.key(), &*meta.key, "hashed key does not match record");
        let rehashed;
        let key = if key.key() == &*meta.key {
            &key
        } else {
            rehashed = HashedKey::new(&meta.key);
            &rehashed
        };
        let mut shard = self.shard(key).write();
        let entry = Entry {
            latest_version: meta.latest_version,
            policy_id: meta.policy_id.map(|id| shard.intern(id)),
            versions: meta.versions,
        };
        self.bump(key);
        if let Some(replaced) = shard.records.insert(meta.key, entry) {
            shard.release(replaced);
        }
    }

    /// Removes the metadata for `key`.
    pub fn remove<'a>(&self, key: impl Into<HashedKey<'a>>) {
        let key = key.into();
        let mut shard = self.shard(&key).write();
        self.bump(&key);
        if let Some(removed) = shard.records.remove(key.key()) {
            shard.release(removed);
        }
    }

    /// Total number of cached metadata records across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().records.len()).sum()
    }

    /// The names of every cached record, in no particular order. Used by
    /// the cluster's load-aware rebalancer to pick a weighted split point;
    /// an in-memory snapshot (not drive-authoritative), which is all load
    /// accounting needs.
    pub fn keys(&self) -> Vec<String> {
        self.shards
            .iter()
            .flat_map(|s| {
                s.read()
                    .records
                    .keys()
                    .map(|k| k.to_string())
                    .collect::<Vec<_>>()
            })
            .collect()
    }

    /// Whether no metadata is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The first byte of every backend key: the namespace it lives in.
pub(crate) mod namespace {
    /// An object's sealed data for one version.
    pub const DATA: u8 = b'o';
    /// An object's metadata record (its head).
    pub const META: u8 = b'm';
    /// A sealed history segment.
    pub const SEGMENT: u8 = b'h';
    /// A compiled policy.
    pub const POLICY: u8 = b'p';
}

/// Backend key under which an object's data for `version` is stored.
pub fn data_key(key: &str, version: u64) -> Vec<u8> {
    backend_key(namespace::DATA, key, Some(version))
}

/// Backend key under which an object's metadata record is stored.
pub fn meta_key(key: &str) -> Vec<u8> {
    backend_key(namespace::META, key, None)
}

/// Backend key under which the sealed history segment of `key` whose first
/// fact is `first_version` is stored.
pub fn segment_key(key: &str, first_version: u64) -> Vec<u8> {
    backend_key(namespace::SEGMENT, key, Some(first_version))
}

/// Backend key under which a compiled policy is stored.
pub fn policy_key(id_hex: &str) -> Vec<u8> {
    backend_key(namespace::POLICY, id_hex, None)
}

/// `<namespace>/<name>`, then `/<version>` zero-padded to 20 digits (every
/// `u64` fits, so versions sort numerically) when there is one. Collected
/// from an iterator of known length, so a `Vec<u8>` or an `Arc<[u8]>` is
/// one allocation of its final size.
pub(crate) fn backend_key<B: FromIterator<u8>>(
    namespace: u8,
    name: &str,
    version: Option<u64>,
) -> B {
    let mut suffix = [b'/'; 21];
    let suffix = match (version, suffix.split_first_mut()) {
        (Some(mut version), Some((_, digits))) => {
            for digit in digits.iter_mut().rev() {
                *digit = b'0' + (version % 10) as u8;
                version /= 10;
            }
            &suffix[..]
        }
        _ => &[],
    };
    [namespace, b'/']
        .into_iter()
        .chain(name.bytes())
        .chain(suffix.iter().copied())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

    fn fact(version: u64) -> VersionMeta {
        VersionMeta {
            version,
            size: version,
            value_hash: InlineDigest::default(),
            policy_hash: InlineDigest::default(),
        }
    }

    fn facts(versions: impl IntoIterator<Item = u64>) -> Vec<VersionMeta> {
        versions.into_iter().map(fact).collect()
    }

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

    fn oracle_fact(v: &VersionMeta) -> FieldWriter {
        let mut vw = FieldWriter::new();
        vw.uint64(1, v.version)
            .uint64(2, v.size)
            .bytes(3, v.value_hash.as_slice())
            .bytes(4, v.policy_hash.as_slice());
        vw
    }

    /// The nested encoder the one-pass one replaced (a `FieldWriter` per
    /// version), kept as the oracle of the stored bytes: `meta`'s head
    /// fields over `facts`. Over a whole history it is the record as
    /// stored before segments existed.
    fn oracle_bytes(meta: &ObjectMetadata, facts: &[VersionMeta]) -> Vec<u8> {
        let mut w = FieldWriter::new();
        w.string(1, &meta.key);
        w.uint64(2, meta.latest_version);
        if let Some(id) = &meta.policy_id {
            w.bytes(3, &id.0);
        }
        for v in facts {
            w.message(4, &oracle_fact(v));
        }
        w.finish()
    }

    /// A head: the oracle's record over the open tail, then the segments'
    /// first versions.
    fn oracle_head(meta: &ObjectMetadata) -> Vec<u8> {
        let mut w = FieldWriter::new();
        for segment in meta.versions.segments() {
            w.uint64(5, segment[0].version);
        }
        [oracle_bytes(meta, &meta.versions.tail), w.finish()].concat()
    }

    /// A segment: the key, then the facts.
    fn oracle_segment(key: &str, facts: &[VersionMeta]) -> Vec<u8> {
        let mut w = FieldWriter::new();
        w.string(1, key);
        for v in facts {
            w.message(4, &oracle_fact(v));
        }
        w.finish()
    }

    #[test]
    fn round_trip() {
        let m = sample();
        assert_eq!(m.to_bytes(), oracle_bytes(&m, &m.versions.tail));
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
        // Across sealed segments and the tail.
        let mut m = ObjectMetadata::new("k");
        for v in (0..60).map(|v| v * 2) {
            m.record_version(fact(v));
        }
        for v in 0..130 {
            assert_eq!(
                m.version(v).map(|f| f.version),
                (v % 2 == 0 && v < 120).then_some(v)
            );
        }
    }

    #[test]
    fn history_is_bounded() {
        let mut m = ObjectMetadata::new("k");
        let puts = MAX_VERSION_HISTORY as u64 + 50;
        let whole = (MAX_VERSION_HISTORY + SEGMENT_LEN) as u64;
        for v in 0..puts {
            let change = m.record_version(fact(v));
            // A whole segment falls off the front, exactly when a put seals
            // one that leaves the bound's 128 versions behind it.
            let n = v + 1;
            let expected: Vec<u64> = if n % SEGMENT_LEN as u64 == 0 && n >= whole {
                (n - whole..n - MAX_VERSION_HISTORY as u64).collect()
            } else {
                Vec::new()
            };
            assert_eq!(change.trimmed, expected, "put {v}");
            let len = m.versions.len();
            assert!(
                len >= (n as usize).min(MAX_VERSION_HISTORY),
                "put {v}: {len}"
            );
            assert!(len < MAX_VERSION_HISTORY + SEGMENT_LEN, "put {v}: {len}");
        }
        assert_eq!(m.versions.len(), MAX_VERSION_HISTORY + 2);
        assert_eq!(m.latest_version, puts - 1);
        // The oldest entries were trimmed.
        assert!(m.version(0).is_none());
        assert_eq!(
            m.versions.first().unwrap().version,
            puts - MAX_VERSION_HISTORY as u64 - 2
        );
    }

    #[test]
    fn a_put_writes_a_segment_once() {
        let mut m = ObjectMetadata::new("k");
        for v in 0..7 {
            assert_eq!(m.record_version(fact(v)), HistoryChange::default());
        }
        // The eighth fact seals the run; the tail starts over.
        let change = m.record_version(fact(7));
        assert_eq!(change.written.as_deref(), Some(&facts(0..8)[..]));
        assert!(change.dropped.is_none() && change.trimmed.is_empty());
        assert!(m.versions.tail.is_empty());
        // The next seven only rewrite the head.
        for v in 8..15 {
            assert_eq!(m.record_version(fact(v)), HistoryChange::default());
        }
    }

    #[test]
    fn copies_share_the_history_until_one_records_a_version() {
        let original = sample();
        let mut copy = original.clone();
        assert!(Arc::ptr_eq(&original.versions.tail, &copy.versions.tail));
        copy.record_version(VersionMeta {
            version: 2,
            size: 30,
            value_hash: [4; 32].into(),
            policy_hash: [2; 32].into(),
        });
        assert_eq!(copy.versions.len(), 3);
        assert_eq!(original, sample());
        // A put that seals nothing copies the tail only: the segments and
        // their list stay shared with every earlier copy.
        for v in 3..8 {
            copy.record_version(fact(v));
        }
        let sealed = copy.clone();
        copy.record_version(fact(8));
        assert!(Arc::ptr_eq(&sealed.versions.sealed, &copy.versions.sealed));
        assert_eq!(copy.versions.segments().count(), 1);
    }

    #[test]
    fn a_record_that_contradicts_itself_is_corrupt() {
        let m = sample();
        let corrupt = |bytes: &[u8]| {
            matches!(
                ObjectMetadata::from_bytes(bytes),
                Err(PesosError::Backend(_))
            )
        };
        let mut stale = m.clone();
        stale.latest_version = 0;
        assert!(corrupt(&stale.to_bytes()));
        let (v0, v1) = (*m.version(0).unwrap(), *m.version(1).unwrap());
        assert!(corrupt(&oracle_bytes(&stale, &[v1, v0])));
        assert!(corrupt(&oracle_bytes(&m, &[v1, v1])));
        assert!(corrupt(&ObjectMetadata::new("k").to_bytes()));
    }

    #[test]
    fn a_head_names_its_segments_and_assembly_checks_them() {
        let mut m = ObjectMetadata::new("k");
        for v in 0..20 {
            m.record_version(fact(v));
        }
        let segments: Vec<Vec<u8>> = m.versions.segments().map(|s| m.segment_bytes(s)).collect();
        let head = || MetadataHead::from_bytes(&m.to_bytes()).unwrap();
        assert_eq!(head().key(), "k");
        assert_eq!(head().segments(), [0, 8]);
        assert_eq!(head().assemble(&segments).unwrap(), m);
        // A head that lists segments is not a whole record by itself.
        assert!(ObjectMetadata::from_bytes(&m.to_bytes()).is_err());
        let other = ObjectMetadata::new("other");
        for bad in [
            vec![segments[0].clone()],
            vec![segments[1].clone(), segments[0].clone()],
            vec![other.segment_bytes(&facts(0..8)), segments[1].clone()],
            vec![m.segment_bytes(&facts(0..7)), segments[1].clone()],
            vec![m.segment_bytes(&facts(0..=8)), segments[1].clone()],
            vec![b"\xff\xfe".to_vec(), segments[1].clone()],
        ] {
            assert!(matches!(head().assemble(&bad), Err(PesosError::Backend(_))));
        }
    }

    #[test]
    fn a_map_entry_is_64_bytes_and_its_shard_shares_policy_ids() {
        assert_eq!(std::mem::size_of::<(Arc<str>, Entry)>(), 64);
        let map = ShardedMetadata::new(1);
        let shared = |map: &ShardedMetadata| {
            let shard = map.shards.get(&HashedKey::new("a")).read();
            let ids: Vec<_> = shard
                .records
                .values()
                .filter_map(|e| e.policy_id.clone())
                .collect();
            (shard.policies.len(), ids)
        };
        let mut records = Vec::new();
        for name in ["a", "b", "c"] {
            let mut m = sample();
            m.key = name.into();
            m.policy_id = (name != "c").then_some(PolicyId([7; 32]));
            map.insert(name, m.clone());
            records.push(m);
        }
        for m in &records {
            assert_eq!(map.get(&*m.key).as_ref(), Some(m));
        }
        let (copies, ids) = shared(&map);
        assert_eq!((copies, ids.len()), (1, 2));
        assert!(Arc::ptr_eq(&ids[0], &ids[1]));
        drop(ids);
        // The copy goes with the last record that names it.
        map.remove("a");
        assert_eq!(shared(&map).0, 1);
        map.insert("b", ObjectMetadata::new("b"));
        assert_eq!(shared(&map).0, 0);
        assert_eq!(map.len(), 2);
    }

    #[test]
    fn every_change_to_a_record_bumps_its_write_generation() {
        let map = ShardedMetadata::new(2);
        // Nothing is allocated, or bumped, before a generation is read.
        map.insert("a", ObjectMetadata::new("a"));
        assert!(map.generations.get().is_none());
        let a = HashedKey::new("a");
        let b = HashedKey::new("b");
        let seen = [map.generation(&a), map.generation(&b)];
        assert_eq!(seen.map(|(_, generation)| generation), [0, 0]);
        assert!(map.generations_hold(&seen));
        // Reads leave it; a replacement, a removal and an insert each move
        // it.
        assert!(map.get("a").is_some());
        assert!(map.generations_hold(&seen));
        for change in 0..3 {
            let before = [map.generation(&a)];
            match change {
                1 => map.remove("a"),
                _ => map.insert("a", ObjectMetadata::new("a")),
            }
            assert!(!map.generations_hold(&before), "change {change}");
            assert!(!map.generations_hold(&seen[..1]));
        }
        // The other key's slot is its own unless the two share one.
        assert_eq!(map.generations_hold(&seen[1..]), seen[0].0 != seen[1].0);
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
        assert_eq!(segment_key("a", 8), b"h/a/00000000000000000008".to_vec());
        assert!(String::from_utf8(policy_key("ff00"))
            .unwrap()
            .starts_with("p/"));
        // Zero-padded versions sort correctly as byte strings.
        assert!(data_key("a", 2) < data_key("a", 10));
        // The widest version fills the padding exactly, and a shared key
        // is the same bytes.
        assert_eq!(
            data_key("a", u64::MAX),
            format!("o/a/{:020}", u64::MAX).into_bytes()
        );
        let shared: Arc<[u8]> = backend_key(namespace::DATA, "a", Some(3));
        assert_eq!(*shared, *data_key("a", 3));
    }

    proptest! {
        #[test]
        fn the_codec_matches_its_oracle_and_a_head_reassembles(
            count in 0u64..300,
            legacy in 0u64..129,
            policy in any::<bool>(),
        ) {
            let policy_id = policy.then_some(PolicyId([7; 32]));
            let fact = |version: u64| VersionMeta {
                version,
                size: version * 3,
                value_hash: [version as u8; 32].into(),
                policy_hash: policy_id.map(|p| p.0.into()).unwrap_or_default(),
            };
            // A record stored before segments existed, by the oracle: it
            // reads as a head with every version open.
            let legacy = legacy.min(count);
            let mut meta = ObjectMetadata::new("k/ey");
            meta.policy_id = policy_id;
            let old: Vec<VersionMeta> = (0..legacy).map(fact).collect();
            if let Some(last) = old.last() {
                meta.latest_version = last.version;
                meta = ObjectMetadata::from_bytes(&oracle_bytes(&meta, &old)).unwrap();
                prop_assert!(meta.versions.segments().next().is_none());
                prop_assert!(meta.versions.iter().eq(old.iter()));
            }
            let mut retained: BTreeSet<u64> = (0..legacy).collect();
            // What the drives hold under `h/`: first version -> bytes.
            let mut stored: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
            for v in legacy..count {
                let change = meta.record_version(fact(v));
                retained.insert(v);
                for t in &change.trimmed {
                    prop_assert!(retained.remove(t), "version {} trimmed but not retained", t);
                }
                if let Some(d) = change.dropped {
                    prop_assert!(stored.remove(&d).is_some(), "segment {} dropped but not stored", d);
                }
                if let Some(written) = &change.written {
                    stored.insert(written[0].version, meta.segment_bytes(written));
                }
                prop_assert!(meta.versions.iter().map(|f| f.version).eq(retained.iter().copied()));

                // The change names exactly the segment writes and deletes
                // that keep the drives equal to the record, and every byte
                // is the oracle's.
                let expected: BTreeMap<u64, Vec<u8>> = meta
                    .versions
                    .segments()
                    .map(|s| (s[0].version, oracle_segment(&meta.key, s)))
                    .collect();
                prop_assert_eq!(&stored, &expected);
                prop_assert_eq!(meta.to_bytes(), oracle_head(&meta));
                let head = MetadataHead::from_bytes(&meta.to_bytes()).unwrap();
                let segments: Vec<&Vec<u8>> = head.segments().iter().map(|s| &stored[s]).collect();
                prop_assert_eq!(&head.assemble(&segments).unwrap(), &meta);

                // Retention: at least the bound once anything was trimmed,
                // and never a whole segment more than it.
                let len = meta.versions.len();
                if !change.trimmed.is_empty() {
                    prop_assert!(len >= MAX_VERSION_HISTORY, "{} retained after a trim", len);
                }
                if let Some(oldest) = meta.versions.segments().next() {
                    prop_assert!(len - oldest.len() < MAX_VERSION_HISTORY);
                }
                prop_assert!(meta.versions.segments().all(|s| s.len() >= SEGMENT_LEN));
            }
        }
    }
}
