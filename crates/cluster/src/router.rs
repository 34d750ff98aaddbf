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
//! Partition 0 is a field of its own, so routing never meets an empty
//! table, and an edit the table cannot make is a typed error.

use std::sync::Arc;

use pesos_core::{PesosController, PesosError};

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
    /// Partition 0, which starts at hash 0.
    first: Partition,
    /// Partitions `1..`, in range order.
    rest: Vec<Partition>,
}

impl PartitionTable {
    /// Builds a table assigning each controller an (almost) equal share of
    /// the hash space, in the given order, with no replication logs. The
    /// first partition always starts at 0. Panics on an empty list, which
    /// no cluster's `controllers()` returns.
    pub fn even(controllers: Vec<Arc<PesosController>>) -> Self {
        let owners = controllers.into_iter().map(|c| (c, None)).collect();
        // pesos-lint: allow(panic_freedom, "the route probe's infallible constructor; no request path calls it, the cluster builds tables with even_with_logs")
        Self::even_with_logs(owners).expect("a table needs at least one partition")
    }

    /// [`PartitionTable::even`] over `(controller, log)` owners: each
    /// partition carries its controller's replication log.
    pub(crate) fn even_with_logs(
        owners: Vec<(Arc<PesosController>, Option<Arc<ReplicaSet>>)>,
    ) -> Result<Self, PesosError> {
        let n = owners.len() as u128;
        let mut partitions = owners
            .into_iter()
            .enumerate()
            .map(|(i, (controller, log))| Partition {
                start: ((i as u128 * (u64::MAX as u128 + 1)) / n) as u64,
                controller,
                log,
            });
        let first = partitions.next().ok_or_else(|| {
            PesosError::BadRequest("a partition table needs at least one partition".into())
        })?;
        Ok(PartitionTable {
            first,
            rest: partitions.collect(),
        })
    }

    /// Number of partitions.
    pub(crate) fn len(&self) -> usize {
        1 + self.rest.len()
    }

    /// The partitions, in range order.
    pub fn partitions(&self) -> impl Iterator<Item = &Partition> + Clone {
        std::iter::once(&self.first).chain(&self.rest)
    }

    /// Partition 0.
    pub fn first(&self) -> &Partition {
        &self.first
    }

    /// Partition `index`, if the table has one.
    pub fn partition(&self, index: usize) -> Option<&Partition> {
        self.partitions().nth(index)
    }

    /// Partition `index`, or the typed refusal for an index the table does
    /// not have.
    pub(crate) fn partition_at(&self, index: usize) -> Result<&Partition, PesosError> {
        self.partition(index).ok_or_else(|| self.missing(index))
    }

    fn partition_mut(&mut self, index: usize) -> Option<&mut Partition> {
        std::iter::once(&mut self.first)
            .chain(&mut self.rest)
            .nth(index)
    }

    fn missing(&self, index: usize) -> PesosError {
        PesosError::BadRequest(format!("no partition {index} (cluster has {})", self.len()))
    }

    /// Every partition's hash range, in range order: each ends just below
    /// its successor's start, the last at `u64::MAX`.
    pub fn ranges(&self) -> impl Iterator<Item = HashRange> + '_ {
        let ends = self.rest.iter().map(|next| next.start - 1);
        self.partitions()
            .zip(ends.chain([u64::MAX]))
            .map(|(p, end)| HashRange {
                start: p.start,
                end,
            })
    }

    /// Index of the partition owning `hash`: the number of partitions after
    /// the first that start at or below it.
    pub fn index_of(&self, hash: u64) -> usize {
        self.rest.partition_point(|p| p.start <= hash)
    }

    /// The partition owning `hash`.
    pub fn route(&self, hash: u64) -> &Partition {
        self.partition(self.index_of(hash)).unwrap_or(&self.first)
    }

    /// Splits partition `index` at the joiner's start: the joiner takes
    /// `[joiner.start, end]` and the old owner keeps
    /// `[start, joiner.start - 1]`. Returns the new table and the moved
    /// range. The split point must lie strictly inside the range (above
    /// its start), so both halves are non-empty hash ranges; the
    /// load-aware rebalancer derives it from the resident keys' routing
    /// hashes, which keeps whole placement groups (equal routing hash) on
    /// one side.
    pub fn split_at(
        &self,
        index: usize,
        joiner: Partition,
    ) -> Result<(PartitionTable, HashRange), PesosError> {
        let range = self
            .ranges()
            .nth(index)
            .ok_or_else(|| self.missing(index))?;
        if !(range.start < joiner.start && joiner.start <= range.end) {
            return Err(PesosError::BadRequest(format!(
                "split point {} outside ({}, {}]",
                joiner.start, range.start, range.end
            )));
        }
        let moved = HashRange {
            start: joiner.start,
            end: range.end,
        };
        // The joiner becomes partition `index + 1`, which is `rest[index]`.
        let mut table = self.clone();
        table.rest.insert(index, joiner);
        Ok((table, moved))
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
    ) -> Result<PartitionTable, PesosError> {
        let mut table = self.clone();
        let partition = table
            .partition_mut(index)
            .ok_or_else(|| self.missing(index))?;
        partition.controller = controller;
        partition.log = log;
        Ok(table)
    }

    /// Removes partition `index`, merging its range into the adjacent
    /// partition `neighbour` (`index - 1` or `index + 1`) — the load-aware
    /// rebalancer picks whichever neighbour is lighter. Returns the new
    /// table, the hash range that moved, and the index *in the new table*
    /// of the partition that absorbed it.
    pub fn merge_into(
        &self,
        index: usize,
        neighbour: usize,
    ) -> Result<(PartitionTable, HashRange, usize), PesosError> {
        if index.abs_diff(neighbour) != 1 {
            return Err(PesosError::BadRequest(format!(
                "partition {neighbour} is not adjacent to {index}"
            )));
        }
        let moved = self
            .ranges()
            .nth(index)
            .ok_or_else(|| self.missing(index))?;
        self.partition_at(neighbour)?;
        // Two partitions exist, so `rest` holds the one to remove (or to
        // promote to first).
        let mut table = self.clone();
        match index.checked_sub(1) {
            Some(i) => drop(table.rest.remove(i)),
            None => table.first = table.rest.remove(0),
        }
        if neighbour > index {
            // The old successor slides into `index` and now also owns the
            // removed range below it — which, for partition 0, restores
            // the required start-at-zero invariant. Merged downward, the
            // predecessor's range extends up to the old successor's start
            // (or the end of the space).
            if let Some(successor) = table.partition_mut(index) {
                successor.start = moved.start;
            }
        }
        Ok((table, moved, index.min(neighbour)))
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

    /// The range of partition `index`, which the test knows exists.
    fn span(table: &PartitionTable, index: usize) -> HashRange {
        table.ranges().nth(index).expect("partition exists")
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
            assert_eq!(table.first().start, 0);
            assert!(Arc::ptr_eq(
                &table.first().controller,
                &table.partition(0).expect("partition 0").controller
            ));
            assert!(table.partitions().all(|p| p.log.is_none()));
            assert!(table.partition(n - 1).is_some());
            assert!(table.partition(n).is_none());
            let total: u128 = (0..n).map(|i| span(&table, i).width()).sum();
            assert_eq!(total, u64::MAX as u128 + 1);
            for i in 1..n {
                assert_eq!(span(&table, i - 1).end + 1, span(&table, i).start);
            }
        }
    }

    #[test]
    fn routing_matches_ranges_and_is_deterministic() {
        let table = PartitionTable::even(controllers(4));
        for key in ["a", "b", "users/alice", "zzz", ""] {
            let hash = key_hash(key);
            let index = table.index_of(hash);
            assert!(span(&table, index).contains(hash));
            assert!(Arc::ptr_eq(
                &table.route(hash).controller,
                &table.partition(index).expect("partition").controller
            ));
        }
        // Boundary hashes route to the owning side.
        assert_eq!(table.index_of(0), 0);
        assert_eq!(table.index_of(u64::MAX), 3);
        let boundary = span(&table, 1).start;
        assert_eq!(table.index_of(boundary), 1);
        assert_eq!(table.index_of(boundary - 1), 0);
    }

    #[test]
    fn split_moves_the_upper_half_only() {
        let table = PartitionTable::even(controllers(2));
        let before_other = span(&table, 0);
        let range = span(&table, 1);
        let midpoint = range.start + (range.end - range.start) / 2 + 1;
        let (split, moved) = table.split_at(1, joiner(midpoint)).unwrap();
        assert_eq!(split.len(), 3);
        // Partition 0 untouched; the moved range is the upper half of the
        // old partition 1 and is now owned by the new controller.
        assert_eq!(span(&split, 0), before_other);
        assert_eq!(span(&split, 2), moved);
        assert_eq!(
            moved.width() + span(&split, 1).width(),
            span(&table, 1).width()
        );
        let total: u128 = (0..3).map(|i| span(&split, i).width()).sum();
        assert_eq!(total, u64::MAX as u128 + 1);
    }

    #[test]
    fn merge_out_preserves_contiguity_for_any_index() {
        let table = PartitionTable::even(controllers(3));
        for (index, neighbour) in [(0, 1), (1, 0), (1, 2), (2, 1)] {
            let (merged, moved, absorbed_by) = table.merge_into(index, neighbour).unwrap();
            assert_eq!(merged.len(), 2);
            assert_eq!(moved, span(&table, index));
            assert_eq!(merged.first().start, 0);
            let total: u128 = (0..2).map(|i| span(&merged, i).width()).sum();
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
        let range = span(&table, 1);
        // An asymmetric split point: a quarter into the range.
        let split_start = range.start + (range.end - range.start) / 4;
        let (split, moved) = table.split_at(1, joiner(split_start)).unwrap();
        assert_eq!(split.len(), 3);
        assert_eq!(
            moved,
            HashRange {
                start: split_start,
                end: range.end
            }
        );
        assert_eq!(
            span(&split, 1),
            HashRange {
                start: range.start,
                end: split_start - 1
            }
        );
        assert_eq!(span(&split, 2), moved);
        let total: u128 = (0..3).map(|i| span(&split, i).width()).sum();
        assert_eq!(total, u64::MAX as u128 + 1);
        // Boundary: splitting at the range's end moves a single hash.
        let (_, moved) = table.split_at(1, joiner(range.end)).unwrap();
        assert_eq!(moved.width(), 1);
    }

    #[test]
    fn merge_into_absorbs_in_either_direction() {
        let table = PartitionTable::even(controllers(4));
        // Merge partition 2 downward into 1.
        let (down, moved, absorbed) = table.merge_into(2, 1).unwrap();
        assert_eq!(absorbed, 1);
        assert_eq!(down.len(), 3);
        assert_eq!(moved, span(&table, 2));
        assert_eq!(span(&down, 1).end, span(&table, 2).end);
        // Merge partition 2 upward into 3.
        let (up, moved, absorbed) = table.merge_into(2, 3).unwrap();
        assert_eq!(absorbed, 2);
        assert_eq!(up.len(), 3);
        assert_eq!(span(&up, 2).start, moved.start);
        assert_eq!(span(&up, 2).end, u64::MAX);
        // Both directions preserve full coverage and route the moved range
        // to the absorber.
        for (merged, absorbed) in [(&down, &1usize), (&up, &2usize)] {
            let total: u128 = (0..3).map(|i| span(merged, i).width()).sum();
            assert_eq!(total, u64::MAX as u128 + 1);
            assert_eq!(merged.first().start, 0);
            for probe in [moved.start, moved.end] {
                assert_eq!(merged.index_of(probe), *absorbed);
            }
        }
        // Partition 0 can only merge upward, and the successor then owns
        // from 0.
        let (zero, _, absorbed) = table.merge_into(0, 1).unwrap();
        assert_eq!(absorbed, 0);
        assert_eq!(zero.first().start, 0);
    }

    #[test]
    fn with_controller_swaps_the_owner_without_moving_ranges() {
        let table = PartitionTable::even(controllers(3));
        let promoted = controller();
        let swapped = table
            .with_controller(1, Arc::clone(&promoted), None)
            .unwrap();
        assert_eq!(swapped.len(), 3);
        for i in 0..3 {
            assert_eq!(span(&swapped, i), span(&table, i));
        }
        assert!(Arc::ptr_eq(
            &swapped.partition(1).expect("partition 1").controller,
            &promoted
        ));
        assert!(Arc::ptr_eq(
            &swapped.first().controller,
            &table.first().controller
        ));
        let probe = span(&table, 1).start;
        assert!(Arc::ptr_eq(&swapped.route(probe).controller, &promoted));
    }

    fn refused(result: Result<impl Sized, PesosError>) -> String {
        match result {
            Err(PesosError::BadRequest(why)) => why,
            Err(other) => panic!("expected a refusal, got {other}"),
            Ok(_) => panic!("expected a refusal, got a table"),
        }
    }

    #[test]
    fn a_table_of_no_owners_is_refused() {
        let why = refused(PartitionTable::even_with_logs(Vec::new()));
        assert!(why.contains("at least one partition"), "{why}");
    }

    #[test]
    fn an_index_the_table_lacks_is_refused() {
        let table = PartitionTable::even(controllers(2));
        assert_eq!(table.ranges().count(), 2);
        assert!(refused(table.partition_at(2)).contains("no partition 2"));
        assert!(refused(table.with_controller(2, controller(), None)).contains("no partition 2"));
        assert!(refused(table.split_at(5, joiner(1))).contains("no partition 5"));
        assert!(refused(table.merge_into(2, 1)).contains("no partition 2"));
        // The last partition has no upper neighbour, a lone one none at all.
        assert!(refused(table.merge_into(1, 2)).contains("no partition 2"));
        let lone = PartitionTable::even(controllers(1));
        assert!(refused(lone.merge_into(0, 1)).contains("no partition 1"));
        // Routing stays total at the edges of the space.
        assert_eq!(table.index_of(u64::MAX), 1);
        assert!(Arc::ptr_eq(
            &lone.route(u64::MAX).controller,
            &lone.first().controller
        ));
    }

    #[test]
    fn a_merge_of_non_neighbours_is_refused() {
        let table = PartitionTable::even(controllers(4));
        for (index, neighbour) in [(0, 2), (3, 1), (1, 1), (0, 0)] {
            let why = refused(table.merge_into(index, neighbour));
            assert!(
                why.contains("not adjacent"),
                "{index} into {neighbour}: {why}"
            );
        }
    }

    #[test]
    fn a_split_point_outside_the_range_is_refused() {
        let table = PartitionTable::even(controllers(2));
        let range = span(&table, 1);
        // At the range's start (the old owner would keep nothing), below
        // it, and in the next partition up.
        for start in [range.start, range.start - 1, 0] {
            let why = refused(table.split_at(1, joiner(start)));
            assert!(why.contains("outside"), "split at {start}: {why}");
        }
        let why = refused(table.split_at(0, joiner(range.start)));
        assert!(why.contains("outside"), "{why}");
        assert_eq!(table.len(), 2, "a refused edit leaves the table as it was");
    }
}
