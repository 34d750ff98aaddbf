//! The key-value engine inside a Kinetic drive.
//!
//! Real Kinetic drives run a LevelDB-backed key-value store on their SoC.
//! The engine here keeps the same externally visible semantics: byte-string
//! keys ordered lexicographically, versioned entries with compare-and-swap
//! semantics on PUT and DELETE (unless `force` is set), inclusive range
//! scans, capacity accounting against the advertised drive size, and the
//! atomic batch ([`DriveEngine::batch`]) — LevelDB's `WriteBatch`: an
//! ordered list of PUTs and DELETEs that lands entirely or not at all.

use std::collections::BTreeMap;

use crate::error::KineticError;
use crate::protocol::{BatchOp, Payload, MAX_BATCH_OPS};

/// A stored entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoredEntry {
    /// The value bytes (shared, immutable).
    pub value: Payload,
    /// The entry version (opaque bytes chosen by the writer; shared, as
    /// writers tend to give every entry the same one).
    pub version: Payload,
}

/// What a batch replaced so far, newest last: on the stack for a list the
/// drive accepts ([`MAX_BATCH_OPS`] sub-operations), spilling to the heap
/// beyond.
struct UndoLog<'a> {
    inline: [Option<Undo<'a>>; MAX_BATCH_OPS],
    len: usize,
    spill: Vec<Undo<'a>>,
}

/// A key a batch touched and the entry it held before (none if it held
/// nothing).
type Undo<'a> = (&'a [u8], Option<StoredEntry>);

impl<'a> UndoLog<'a> {
    fn new() -> Self {
        UndoLog {
            inline: [const { None }; MAX_BATCH_OPS],
            len: 0,
            spill: Vec::new(),
        }
    }

    fn push(&mut self, undo: Undo<'a>) {
        match self.inline.get_mut(self.len) {
            Some(slot) => {
                *slot = Some(undo);
                self.len += 1;
            }
            None => self.spill.push(undo),
        }
    }

    fn pop(&mut self) -> Option<Undo<'a>> {
        if let Some(record) = self.spill.pop() {
            return Some(record);
        }
        self.len = self.len.checked_sub(1)?;
        self.inline.get_mut(self.len)?.take()
    }
}

/// Counters describing engine activity.
///
/// `puts`, `gets` and `deletes` count *media operations* — one per command
/// the engine serves, which is also one actuator charge on the HDD model.
/// A batch is one media operation however many sub-operations it carries:
/// it counts once under `puts` if it writes anything, else once under
/// `deletes`, and its sub-operations are tallied in `batched_ops`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Number of keys currently stored.
    pub keys: u64,
    /// Total bytes of keys and values currently stored.
    pub used_bytes: u64,
    /// Total PUT operations served (including batches that write).
    pub puts: u64,
    /// Total GET operations served.
    pub gets: u64,
    /// Total DELETE operations served (including delete-only batches).
    pub deletes: u64,
    /// Total range scans served.
    pub scans: u64,
    /// Total sub-operations carried by the batches served.
    pub batched_ops: u64,
}

/// The versioned key-value engine.
#[derive(Debug)]
pub struct DriveEngine {
    entries: BTreeMap<Vec<u8>, StoredEntry>,
    /// The version the last entry was written at: the next entry written
    /// at the same one shares this buffer instead of copying it.
    last_version: Payload,
    capacity_bytes: u64,
    used_bytes: u64,
    stats: EngineStats,
}

impl DriveEngine {
    /// Creates an engine with the given capacity in bytes.
    pub fn new(capacity_bytes: u64) -> Self {
        DriveEngine {
            entries: BTreeMap::new(),
            last_version: Payload::new(),
            capacity_bytes,
            used_bytes: 0,
            stats: EngineStats::default(),
        }
    }

    /// Capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }

    /// Bytes currently used by keys and values.
    pub fn used_bytes(&self) -> u64 {
        self.used_bytes
    }

    /// Fraction of capacity in use.
    pub fn utilization(&self) -> f64 {
        if self.capacity_bytes == 0 {
            return 0.0;
        }
        self.used_bytes as f64 / self.capacity_bytes as f64
    }

    /// Number of stored keys.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no keys are stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Activity counters.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            keys: self.entries.len() as u64,
            used_bytes: self.used_bytes,
            ..self.stats
        }
    }

    fn entry_size(key: &[u8], value: &[u8]) -> u64 {
        (key.len() + value.len()) as u64
    }

    /// `version` as a shared buffer, the last one handed out if it is the
    /// same.
    fn shared_version(&mut self, version: &[u8]) -> Payload {
        if *self.last_version != *version {
            self.last_version = Payload::from(version);
        }
        self.last_version.clone()
    }

    /// Stores `value` under `key`.
    ///
    /// Unless `force` is true the currently stored version must equal
    /// `expected_version` (empty means "no existing entry"), reproducing the
    /// Kinetic compare-and-swap PUT.
    pub fn put(
        &mut self,
        key: &[u8],
        value: impl Into<Payload>,
        expected_version: &[u8],
        new_version: Vec<u8>,
        force: bool,
    ) -> Result<(), KineticError> {
        self.stats.puts += 1;
        self.apply_put(key, value.into(), expected_version, &new_version, force)
            .map(|_| ())
    }

    /// The PUT itself, without the served-operation tally; returns the
    /// entry it replaced so a batch can undo it. An entry that exists is
    /// overwritten where it lies, keeping its key.
    fn apply_put(
        &mut self,
        key: &[u8],
        value: Payload,
        expected_version: &[u8],
        new_version: &[u8],
        force: bool,
    ) -> Result<Option<StoredEntry>, KineticError> {
        let new_version = self.shared_version(new_version);
        let existing = self.entries.get_mut(key);
        if !force {
            let actual = existing.as_ref().map_or(&[][..], |e| &e.version[..]);
            if actual != expected_version {
                return Err(KineticError::VersionMismatch {
                    expected: expected_version.to_vec(),
                    actual: actual.to_vec(),
                });
            }
        }

        let new_size = Self::entry_size(key, &value);
        let old_size = existing
            .as_ref()
            .map_or(0, |e| Self::entry_size(key, &e.value));
        let projected = self.used_bytes - old_size + new_size;
        if projected > self.capacity_bytes {
            return Err(KineticError::NoSpace);
        }

        self.used_bytes = projected;
        let entry = StoredEntry {
            value,
            version: new_version,
        };
        Ok(match existing {
            Some(slot) => Some(std::mem::replace(slot, entry)),
            None => {
                self.entries.insert(key.to_vec(), entry);
                None
            }
        })
    }

    /// Retrieves the entry stored under `key`.
    pub fn get(&mut self, key: &[u8]) -> Result<StoredEntry, KineticError> {
        self.stats.gets += 1;
        self.entries.get(key).cloned().ok_or(KineticError::NotFound)
    }

    /// Deletes `key`. Unless `force` is set the stored version must match.
    pub fn delete(
        &mut self,
        key: &[u8],
        expected_version: &[u8],
        force: bool,
    ) -> Result<(), KineticError> {
        self.stats.deletes += 1;
        self.apply_delete(key, expected_version, force).map(|_| ())
    }

    /// The DELETE itself, without the served-operation tally; returns the
    /// entry it removed so a batch can undo it.
    fn apply_delete(
        &mut self,
        key: &[u8],
        expected_version: &[u8],
        force: bool,
    ) -> Result<StoredEntry, KineticError> {
        let existing = self.entries.get(key).ok_or(KineticError::NotFound)?;
        if !force && existing.version != expected_version {
            return Err(KineticError::VersionMismatch {
                expected: expected_version.to_vec(),
                actual: existing.version.to_vec(),
            });
        }
        let removed = self.entries.remove(key).ok_or(KineticError::NotFound)?;
        self.used_bytes -= Self::entry_size(key, &removed.value);
        Ok(removed)
    }

    /// Applies `ops` in order, all or nothing.
    ///
    /// Each sub-operation runs its standalone precondition (CAS unless
    /// forced, capacity) against the state the earlier sub-operations left;
    /// the first failure undoes every earlier one and is returned with its
    /// index, so the engine is exactly as before the call. Callers hold the
    /// engine exclusively (`&mut self` — the drive's engine lock), so no
    /// reader can observe a half-applied list. A forced DELETE of a missing
    /// key is a no-op rather than `NotFound` (see [`BatchOp`]).
    pub fn batch(&mut self, ops: &[BatchOp]) -> Result<(), (usize, KineticError)> {
        if ops.iter().any(BatchOp::is_put) {
            self.stats.puts += 1;
        } else {
            self.stats.deletes += 1;
        }
        self.stats.batched_ops += ops.len() as u64;

        let used_before = self.used_bytes;
        let mut undo = UndoLog::new();
        for (index, op) in ops.iter().enumerate() {
            let replaced = match op {
                BatchOp::Put {
                    key,
                    value,
                    db_version,
                    new_version,
                    force,
                } => self.apply_put(key, value.clone(), db_version, new_version, *force),
                BatchOp::Delete {
                    key,
                    db_version,
                    force,
                } => match self.apply_delete(key, db_version, *force) {
                    Ok(removed) => Ok(Some(removed)),
                    Err(KineticError::NotFound) if *force => Ok(None),
                    Err(e) => Err(e),
                },
            };
            match replaced {
                Ok(replaced) => undo.push((op.key(), replaced)),
                Err(e) => {
                    while let Some((key, replaced)) = undo.pop() {
                        match replaced {
                            Some(entry) => self.entries.insert(key.to_vec(), entry),
                            None => self.entries.remove(key),
                        };
                    }
                    self.used_bytes = used_before;
                    return Err((index, e));
                }
            }
        }
        Ok(())
    }

    /// Returns up to `max` keys in `[start, end]` (inclusive), in order; a
    /// range that starts after it ends holds none.
    pub fn key_range(&mut self, start: &[u8], end: &[u8], max: usize) -> Vec<Vec<u8>> {
        self.stats.scans += 1;
        if start > end {
            return Vec::new();
        }
        self.entries
            .range(start.to_vec()..=end.to_vec())
            .take(max)
            .map(|(k, _)| k.clone())
            .collect()
    }

    /// Removes every entry (instant secure erase).
    pub fn erase(&mut self) {
        self.entries.clear();
        self.used_bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> DriveEngine {
        DriveEngine::new(1024 * 1024)
    }

    #[test]
    fn put_get_round_trip() {
        let mut e = engine();
        e.put(b"k1", b"v1".to_vec(), b"", b"1".to_vec(), false)
            .unwrap();
        let entry = e.get(b"k1").unwrap();
        assert_eq!(entry.value, b"v1");
        assert_eq!(entry.version, b"1");
        assert_eq!(e.len(), 1);
    }

    #[test]
    fn get_missing_is_not_found() {
        let mut e = engine();
        assert_eq!(e.get(b"missing"), Err(KineticError::NotFound));
    }

    #[test]
    fn versioned_put_enforced() {
        let mut e = engine();
        e.put(b"k", b"v1".to_vec(), b"", b"1".to_vec(), false)
            .unwrap();
        // Wrong expected version rejected.
        let err = e
            .put(
                b"k",
                b"v2".to_vec(),
                b"0".to_vec().as_slice(),
                b"2".to_vec(),
                false,
            )
            .unwrap_err();
        assert!(matches!(err, KineticError::VersionMismatch { .. }));
        // Correct expected version accepted.
        e.put(b"k", b"v2".to_vec(), b"1", b"2".to_vec(), false)
            .unwrap();
        assert_eq!(e.get(b"k").unwrap().version, b"2");
        // Creating over an existing key with empty expected version fails.
        assert!(e
            .put(b"k", b"v3".to_vec(), b"", b"3".to_vec(), false)
            .is_err());
        // Force overrides.
        e.put(b"k", b"v3".to_vec(), b"", b"3".to_vec(), true)
            .unwrap();
        assert_eq!(e.get(b"k").unwrap().value, b"v3");
    }

    #[test]
    fn versioned_delete_enforced() {
        let mut e = engine();
        e.put(b"k", b"v".to_vec(), b"", b"7".to_vec(), false)
            .unwrap();
        assert!(matches!(
            e.delete(b"k", b"8", false),
            Err(KineticError::VersionMismatch { .. })
        ));
        e.delete(b"k", b"7", false).unwrap();
        assert_eq!(e.delete(b"k", b"7", false), Err(KineticError::NotFound));
        // Force delete ignores version.
        e.put(b"k", b"v".to_vec(), b"", b"9".to_vec(), false)
            .unwrap();
        e.delete(b"k", b"", true).unwrap();
        assert!(e.is_empty());
    }

    #[test]
    fn capacity_enforced_and_accounted() {
        let mut e = DriveEngine::new(20);
        e.put(b"a", vec![0u8; 10], b"", b"1".to_vec(), false)
            .unwrap();
        assert_eq!(e.used_bytes(), 11);
        assert_eq!(
            e.put(b"b", vec![0u8; 15], b"", b"1".to_vec(), false),
            Err(KineticError::NoSpace)
        );
        // Overwriting with a smaller value frees space.
        e.put(b"a", vec![0u8; 2], b"1", b"2".to_vec(), false)
            .unwrap();
        assert_eq!(e.used_bytes(), 3);
        e.put(b"b", vec![0u8; 15], b"", b"1".to_vec(), false)
            .unwrap();
        assert!(e.utilization() > 0.9);
        // Deleting restores space.
        e.delete(b"b", b"1", false).unwrap();
        assert_eq!(e.used_bytes(), 3);
    }

    #[test]
    fn key_range_scan() {
        let mut e = engine();
        for k in ["a", "b", "c", "d", "e"] {
            e.put(k.as_bytes(), b"v".to_vec(), b"", b"1".to_vec(), false)
                .unwrap();
        }
        assert_eq!(
            e.key_range(b"b", b"d", 10),
            vec![b"b".to_vec(), b"c".to_vec(), b"d".to_vec()]
        );
        assert_eq!(e.key_range(b"a", b"e", 2).len(), 2);
        assert!(e.key_range(b"x", b"z", 10).is_empty());
        assert!(e.key_range(b"d", b"b", 10).is_empty());
    }

    #[test]
    fn erase_clears_everything() {
        let mut e = engine();
        for i in 0..10u8 {
            e.put(&[i], vec![i; 10], b"", b"1".to_vec(), false).unwrap();
        }
        e.erase();
        assert!(e.is_empty());
        assert_eq!(e.used_bytes(), 0);
        assert_eq!(e.get(&[0]), Err(KineticError::NotFound));
    }

    fn put_op(key: &[u8], value: &[u8], db_version: &[u8], new_version: &[u8]) -> BatchOp {
        BatchOp::Put {
            key: key.to_vec(),
            value: value.into(),
            db_version: db_version.to_vec(),
            new_version: new_version.to_vec(),
            force: false,
        }
    }

    #[test]
    fn batch_applies_in_order_and_later_ops_see_earlier_ones() {
        let mut e = engine();
        e.put(b"old", b"x".to_vec(), b"", b"1".to_vec(), false)
            .unwrap();
        e.batch(&[
            put_op(b"a", b"v1", b"", b"1"),
            // CAS against the version the first sub-operation just stored.
            put_op(b"a", b"v2", b"1", b"2"),
            BatchOp::Delete {
                key: b"old".to_vec(),
                db_version: b"1".to_vec(),
                force: false,
            },
            // Forced delete of a key that was never there: a no-op.
            BatchOp::delete_forced(b"never".to_vec()),
        ])
        .unwrap();
        assert_eq!(e.get(b"a").unwrap().value, b"v2");
        assert_eq!(e.get(b"old"), Err(KineticError::NotFound));
        assert_eq!(e.len(), 1);
    }

    #[test]
    fn failing_cas_in_a_later_sub_op_leaves_earlier_ones_unapplied() {
        let mut e = engine();
        e.put(b"keep", b"original".to_vec(), b"", b"1".to_vec(), false)
            .unwrap();
        e.put(b"gone", b"doomed".to_vec(), b"", b"1".to_vec(), false)
            .unwrap();
        let used = e.used_bytes();
        let err = e
            .batch(&[
                put_op(b"new", b"value", b"", b"1"),
                BatchOp::put_forced(b"keep".to_vec(), b"overwritten".to_vec(), b"2"),
                BatchOp::delete_forced(b"gone".to_vec()),
                put_op(b"keep", b"cas", b"wrong", b"3"),
            ])
            .unwrap_err();
        assert!(matches!(err, (3, KineticError::VersionMismatch { .. })));
        // Exactly the pre-batch state: nothing created, overwritten or
        // deleted, and the capacity accounting restored.
        assert_eq!(e.get(b"new"), Err(KineticError::NotFound));
        let keep = e.get(b"keep").unwrap();
        assert_eq!(
            (keep.value, keep.version),
            (b"original".into(), b"1".into())
        );
        assert_eq!(e.get(b"gone").unwrap().value, b"doomed");
        assert_eq!(e.used_bytes(), used);
        // An unforced delete of a missing key still fails the batch.
        let err = e
            .batch(&[BatchOp::Delete {
                key: b"missing".to_vec(),
                db_version: Vec::new(),
                force: false,
            }])
            .unwrap_err();
        assert_eq!(err, (0, KineticError::NotFound));
    }

    #[test]
    fn batch_capacity_accounting_is_exact() {
        let mut e = DriveEngine::new(40);
        e.put(b"a", vec![0u8; 10], b"", b"1".to_vec(), false)
            .unwrap();
        e.put(b"b", vec![0u8; 10], b"", b"1".to_vec(), false)
            .unwrap();
        assert_eq!(e.used_bytes(), 22);
        // Overwrite `a` smaller and delete `b` in one batch.
        e.batch(&[
            BatchOp::put_forced(b"a".to_vec(), vec![0u8; 4], b"2"),
            BatchOp::delete_forced(b"b".to_vec()),
        ])
        .unwrap();
        assert_eq!(e.used_bytes(), 5);
        // A sub-operation that would overflow fails the whole batch.
        let err = e
            .batch(&[
                BatchOp::put_forced(b"c".to_vec(), vec![0u8; 20], b"1"),
                BatchOp::put_forced(b"d".to_vec(), vec![0u8; 20], b"1"),
            ])
            .unwrap_err();
        assert_eq!(err, (1, KineticError::NoSpace));
        assert_eq!(e.used_bytes(), 5);
        assert_eq!(e.len(), 1);
    }

    #[test]
    fn batch_counts_as_one_media_operation() {
        let mut e = engine();
        e.batch(&[
            put_op(b"a", b"v", b"", b"1"),
            put_op(b"b", b"v", b"", b"1"),
            BatchOp::delete_forced(b"x".to_vec()),
        ])
        .unwrap();
        e.batch(&[
            BatchOp::delete_forced(b"a".to_vec()),
            BatchOp::delete_forced(b"b".to_vec()),
        ])
        .unwrap();
        let s = e.stats();
        assert_eq!((s.puts, s.deletes, s.batched_ops), (1, 1, 5));
    }

    #[test]
    fn stats_track_operations() {
        let mut e = engine();
        e.put(b"k", b"v".to_vec(), b"", b"1".to_vec(), false)
            .unwrap();
        let _ = e.get(b"k");
        let _ = e.get(b"missing");
        let _ = e.delete(b"k", b"1", false);
        let _ = e.key_range(b"a", b"z", 10);
        let s = e.stats();
        assert_eq!(s.puts, 1);
        assert_eq!(s.gets, 2);
        assert_eq!(s.deletes, 1);
        assert_eq!(s.scans, 1);
        assert_eq!(s.keys, 0);
    }
}
