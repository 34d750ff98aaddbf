//! Hash-range partitioning of the key space over controller instances.
//!
//! Every object key already carries a deterministic SHA-256 placement hash
//! ([`pesos_core::key_hash`], cached per request in
//! [`pesos_core::HashedKey`]); the cluster layer reuses the same value to
//! pick the *controller* owning the key, so routing costs zero additional
//! digests. Each controller owns one contiguous range of the `u64` hash
//! space; the table is an ordered list of range starts, and routing is a
//! binary search.
//!
//! Contiguous ranges (rather than modulo assignment) are what make online
//! topology change cheap: adding a controller splits one existing range
//! and migrates only the keys in the moved part; removing one merges its
//! range into a neighbour. Every other partition is untouched.
//! A partition carries its owner's replication log, so the snapshot that
//! routes a write also names its log: no second lookup can pair an owner
//! with another partition's log.

use std::sync::Arc;

use pesos_core::PesosController;

use crate::replication::ReplicaSet;

/// An inclusive range `[start, end]` of the `u64` key-hash space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HashRange {
    /// Inclusive lower bound.
    pub start: u64,
    /// Inclusive upper bound.
    pub end: u64,
}

impl HashRange {
    /// Whether `hash` falls inside the range.
    pub fn contains(&self, hash: u64) -> bool {
        self.start <= hash && hash <= self.end
    }

    /// Number of hash values covered (as `u128`, since a single partition
    /// covers the full `u64` space).
    pub fn width(&self) -> u128 {
        (self.end as u128) - (self.start as u128) + 1
    }
}

/// One partition: a contiguous hash range owned by one controller, and
/// the log that controller's acknowledged writes are replicated through
/// (attached to its store where the log is spawned).
#[derive(Clone)]
pub struct Partition {
    /// Inclusive lower bound of the owned range (the upper bound is the
    /// next partition's start minus one, or `u64::MAX` for the last).
    pub start: u64,
    /// The controller instance owning the range.
    pub controller: Arc<PesosController>,
    /// The partition's replication log; `None` when the cluster runs
    /// without backups, or a promotion left no backup to ship to.
    pub log: Option<Arc<ReplicaSet>>,
}

impl Partition {
    /// Stops the partition's log, if it has one ([`ReplicaSet::stop`]).
    pub(crate) fn stop_log(&self) {
        if let Some(log) = &self.log {
            log.stop();
        }
    }
}

/// The routing table: partitions ordered by range start, jointly covering
/// the whole hash space with no gaps or overlaps.
///
/// Tables are immutable; topology changes build a new table and swap it in
/// atomically (see the cluster's routing snapshot), so a request observes
/// one consistent table for its whole lifetime.
#[derive(Clone)]
pub struct PartitionTable {
    partitions: Vec<Partition>,
}

impl PartitionTable {
    /// Builds a table assigning each controller an (almost) equal share of
    /// the hash space, in the given order, with no replication logs. The
    /// first partition always starts at 0.
    pub fn even(controllers: Vec<Arc<PesosController>>) -> Self {
        Self::even_with_logs(controllers.into_iter().map(|c| (c, None)).collect())
    }

    /// [`PartitionTable::even`] over `(controller, log)` owners: each
    /// partition carries its controller's replication log.
    pub(crate) fn even_with_logs(
        owners: Vec<(Arc<PesosController>, Option<Arc<ReplicaSet>>)>,
    ) -> Self {
        assert!(!owners.is_empty(), "a table needs at least one partition");
        let n = owners.len() as u128;
        let partitions = owners
            .into_iter()
            .enumerate()
            .map(|(i, (controller, log))| Partition {
                start: ((i as u128 * (u64::MAX as u128 + 1)) / n) as u64,
                controller,
                log,
            })
            .collect();
        PartitionTable { partitions }
    }

    /// Number of partitions.
    pub fn len(&self) -> usize {
        self.partitions.len()
    }

    /// Whether the table is empty (never true for a constructed table).
    pub fn is_empty(&self) -> bool {
        self.partitions.is_empty()
    }

    /// The ordered partitions.
    pub fn partitions(&self) -> &[Partition] {
        &self.partitions
    }

    /// Partition 0 — total, because no constructor builds an empty table.
    pub fn first(&self) -> &Partition {
        // pesos-lint: allow(panic_freedom, "a PartitionTable always holds partition 0 covering hash 0; no constructor builds an empty table")
        &self.partitions[0]
    }

    /// Partition `index`, if the table has one.
    pub fn partition(&self, index: usize) -> Option<&Partition> {
        self.partitions.get(index)
    }

    /// The hash range owned by partition `index`.
    pub fn range(&self, index: usize) -> HashRange {
        HashRange {
            // pesos-lint: allow(panic_freedom, "range() is called with indices this table produced; public entry points bounds-check first")
            start: self.partitions[index].start,
            end: match self.partitions.get(index + 1) {
                Some(next) => next.start - 1,
                None => u64::MAX,
            },
        }
    }

    /// Index of the partition owning `hash`.
    pub fn index_of(&self, hash: u64) -> usize {
        // First partition whose start exceeds `hash`, minus one; starts are
        // sorted and partition 0 starts at 0, so this never underflows.
        self.partitions.partition_point(|p| p.start <= hash) - 1
    }

    /// The partition owning `hash`.
    pub fn route(&self, hash: u64) -> &Partition {
        // pesos-lint: allow(panic_freedom, "index_of always returns a valid index: partition 0 starts at hash 0")
        &self.partitions[self.index_of(hash)]
    }

    /// Splits partition `index` at the joiner's start: the joiner takes
    /// `[joiner.start, end]` and the old owner keeps
    /// `[start, joiner.start - 1]`. Returns the new table and the moved
    /// range. The split point must lie strictly inside the range (above
    /// its start), so both halves are non-empty hash ranges; the
    /// load-aware rebalancer derives it from the resident keys' routing
    /// hashes, which keeps whole placement groups (equal routing hash) on
    /// one side.
    pub fn split_at(&self, index: usize, joiner: Partition) -> (PartitionTable, HashRange) {
        let range = self.range(index);
        let split_start = joiner.start;
        assert!(
            range.start < split_start && split_start <= range.end,
            "split point {split_start} outside ({}, {}]",
            range.start,
            range.end
        );
        let moved = HashRange {
            start: split_start,
            end: range.end,
        };
        let mut partitions = self.partitions.clone();
        partitions.insert(index + 1, joiner);
        (PartitionTable { partitions }, moved)
    }

    /// Returns a table identical to this one except that partition `index`
    /// is owned by `controller` with `log` — the routing half of a
    /// failover promotion. No hash range moves: the promoted backup
    /// answers for exactly the range the failed primary owned.
    pub fn with_controller(
        &self,
        index: usize,
        controller: Arc<PesosController>,
        log: Option<Arc<ReplicaSet>>,
    ) -> PartitionTable {
        assert!(index < self.partitions.len(), "no partition {index}");
        let mut partitions = self.partitions.clone();
        // pesos-lint: allow(panic_freedom, "index asserted against partitions.len() above")
        let partition = &mut partitions[index];
        partition.controller = controller;
        partition.log = log;
        PartitionTable { partitions }
    }

    /// Removes partition `index`, merging its range into the adjacent
    /// partition `neighbour` (`index - 1` or `index + 1`) — the load-aware
    /// rebalancer picks whichever neighbour is lighter. Returns the new
    /// table, the hash range that moved, and the index *in the new table*
    /// of the partition that absorbed it.
    pub fn merge_into(&self, index: usize, neighbour: usize) -> (PartitionTable, HashRange, usize) {
        assert!(
            self.partitions.len() > 1,
            "cannot remove the last partition"
        );
        assert!(
            (index > 0 && neighbour == index - 1) || neighbour == index + 1,
            "partition {neighbour} is not adjacent to {index}"
        );
        assert!(
            neighbour < self.partitions.len(),
            "no partition {neighbour}"
        );
        let moved = self.range(index);
        let mut partitions = self.partitions.clone();
        partitions.remove(index);
        let absorbed_by = if neighbour == index + 1 {
            // The old successor slides into `index` and now also owns the
            // removed range below it — which, for partition 0, restores
            // the required start-at-zero invariant.
            // pesos-lint: allow(panic_freedom, "merge_into asserts adjacency and bounds on entry")
            partitions[index].start = moved.start;
            index
        } else {
            // The predecessor's range silently extends up to the old
            // successor's start (or the end of the space).
            index - 1
        };
        (PartitionTable { partitions }, moved, absorbed_by)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pesos_core::{key_hash, ControllerConfig};

    fn controller() -> Arc<PesosController> {
        Arc::new(PesosController::new(ControllerConfig::native_simulator(1)).unwrap())
    }

    fn controllers(n: usize) -> Vec<Arc<PesosController>> {
        (0..n).map(|_| controller()).collect()
    }

    /// A log-less joiner taking over from hash `start`.
    fn joiner(start: u64) -> Partition {
        Partition {
            start,
            controller: controller(),
            log: None,
        }
    }

    #[test]
    fn even_table_covers_the_space_contiguously() {
        for n in 1..=5 {
            let table = PartitionTable::even(controllers(n));
            assert_eq!(table.len(), n);
            assert_eq!(table.partitions()[0].start, 0);
            assert!(Arc::ptr_eq(
                &table.first().controller,
                &table.partition(0).expect("partition 0").controller
            ));
            assert!(table.partitions().iter().all(|p| p.log.is_none()));
            assert!(table.partition(n - 1).is_some());
            assert!(table.partition(n).is_none());
            let total: u128 = (0..n).map(|i| table.range(i).width()).sum();
            assert_eq!(total, u64::MAX as u128 + 1);
            for i in 1..n {
                assert_eq!(table.range(i - 1).end + 1, table.range(i).start);
            }
        }
    }

    #[test]
    fn routing_matches_ranges_and_is_deterministic() {
        let table = PartitionTable::even(controllers(4));
        for key in ["a", "b", "users/alice", "zzz", ""] {
            let hash = key_hash(key);
            let index = table.index_of(hash);
            assert!(table.range(index).contains(hash));
            assert!(Arc::ptr_eq(
                &table.route(hash).controller,
                &table.partitions()[index].controller
            ));
        }
        // Boundary hashes route to the owning side.
        assert_eq!(table.index_of(0), 0);
        assert_eq!(table.index_of(u64::MAX), 3);
        let boundary = table.range(1).start;
        assert_eq!(table.index_of(boundary), 1);
        assert_eq!(table.index_of(boundary - 1), 0);
    }

    #[test]
    fn split_moves_the_upper_half_only() {
        let table = PartitionTable::even(controllers(2));
        let before_other = table.range(0);
        let range = table.range(1);
        let midpoint = range.start + (range.end - range.start) / 2 + 1;
        let (split, moved) = table.split_at(1, joiner(midpoint));
        assert_eq!(split.len(), 3);
        // Partition 0 untouched; the moved range is the upper half of the
        // old partition 1 and is now owned by the new controller.
        assert_eq!(split.range(0), before_other);
        assert_eq!(split.range(2), moved);
        assert_eq!(
            moved.width() + split.range(1).width(),
            table.range(1).width()
        );
        let total: u128 = (0..3).map(|i| split.range(i).width()).sum();
        assert_eq!(total, u64::MAX as u128 + 1);
    }

    #[test]
    fn merge_out_preserves_contiguity_for_any_index() {
        let table = PartitionTable::even(controllers(3));
        for (index, neighbour) in [(0, 1), (1, 0), (1, 2), (2, 1)] {
            let (merged, moved, absorbed_by) = table.merge_into(index, neighbour);
            assert_eq!(merged.len(), 2);
            assert_eq!(moved, table.range(index));
            assert_eq!(merged.partitions()[0].start, 0);
            let total: u128 = (0..2).map(|i| merged.range(i).width()).sum();
            assert_eq!(total, u64::MAX as u128 + 1);
            // Every hash of the moved range now routes to the absorber.
            for probe in [
                moved.start,
                moved.end,
                moved.start + (moved.end - moved.start) / 2,
            ] {
                assert_eq!(merged.index_of(probe), absorbed_by);
            }
        }
    }

    #[test]
    fn split_at_moves_exactly_the_requested_range() {
        let table = PartitionTable::even(controllers(2));
        let range = table.range(1);
        // An asymmetric split point: a quarter into the range.
        let split_start = range.start + (range.end - range.start) / 4;
        let (split, moved) = table.split_at(1, joiner(split_start));
        assert_eq!(split.len(), 3);
        assert_eq!(
            moved,
            HashRange {
                start: split_start,
                end: range.end
            }
        );
        assert_eq!(
            split.range(1),
            HashRange {
                start: range.start,
                end: split_start - 1
            }
        );
        assert_eq!(split.range(2), moved);
        let total: u128 = (0..3).map(|i| split.range(i).width()).sum();
        assert_eq!(total, u64::MAX as u128 + 1);
        // Boundary: splitting at the range's end moves a single hash.
        let (_, moved) = table.split_at(1, joiner(range.end));
        assert_eq!(moved.width(), 1);
    }

    #[test]
    fn merge_into_absorbs_in_either_direction() {
        let table = PartitionTable::even(controllers(4));
        // Merge partition 2 downward into 1.
        let (down, moved, absorbed) = table.merge_into(2, 1);
        assert_eq!(absorbed, 1);
        assert_eq!(down.len(), 3);
        assert_eq!(moved, table.range(2));
        assert_eq!(down.range(1).end, table.range(2).end);
        // Merge partition 2 upward into 3.
        let (up, moved, absorbed) = table.merge_into(2, 3);
        assert_eq!(absorbed, 2);
        assert_eq!(up.len(), 3);
        assert_eq!(up.range(2).start, moved.start);
        assert_eq!(up.range(2).end, u64::MAX);
        // Both directions preserve full coverage and route the moved range
        // to the absorber.
        for (merged, absorbed) in [(&down, &1usize), (&up, &2usize)] {
            let total: u128 = (0..3).map(|i| merged.range(i).width()).sum();
            assert_eq!(total, u64::MAX as u128 + 1);
            assert_eq!(merged.partitions()[0].start, 0);
            for probe in [moved.start, moved.end] {
                assert_eq!(merged.index_of(probe), *absorbed);
            }
        }
        // Partition 0 can only merge upward, and the successor then owns
        // from 0.
        let (zero, _, absorbed) = table.merge_into(0, 1);
        assert_eq!(absorbed, 0);
        assert_eq!(zero.partitions()[0].start, 0);
    }

    #[test]
    fn with_controller_swaps_the_owner_without_moving_ranges() {
        let table = PartitionTable::even(controllers(3));
        let promoted = controller();
        let swapped = table.with_controller(1, Arc::clone(&promoted), None);
        assert_eq!(swapped.len(), 3);
        for i in 0..3 {
            assert_eq!(swapped.range(i), table.range(i));
        }
        assert!(Arc::ptr_eq(&swapped.partitions()[1].controller, &promoted));
        assert!(Arc::ptr_eq(
            &swapped.partitions()[0].controller,
            &table.partitions()[0].controller
        ));
        let probe = table.range(1).start;
        assert!(Arc::ptr_eq(&swapped.route(probe).controller, &promoted));
    }
}
