//! The VLL lock table behind ACID multi-object transactions.
//!
//! Pesos wraps atomic updates to multiple objects in transactions and uses a
//! modified VLL locking algorithm (paper §4.4): a transaction tries to lock
//! all of its keys before executing; if every lock is free it executes
//! immediately, otherwise it waits in a queue and VLL's ordering guarantees
//! that by the time it reaches the front all of its keys are unlocked.
//! Non-transactional accesses to the same keys are permitted (their outcome
//! relative to a concurrent transaction is unspecified, as in the paper).
//!
//! This module holds only the locks. A transaction's reads and writes are
//! buffered by the cluster (`pesos_cluster::twopc`), which hands each
//! partition its branch whole to `PesosController::prepare_commit`; the
//! branch lives in the [`PreparedTransaction`] guard from then on.

use std::collections::{HashMap, VecDeque};

use parking_lot::{Condvar, Mutex};

/// A buffered transactional write.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxWrite {
    /// Object key.
    pub key: String,
    /// New value.
    pub value: Vec<u8>,
}

/// The outcome of a committed transaction.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TxOutcome {
    /// Versions assigned to each write, in the order the writes were added.
    pub write_versions: Vec<u64>,
    /// Values read, in the order the reads were added.
    pub read_values: Vec<Vec<u8>>,
}

#[derive(Default)]
struct LockTable {
    /// Exclusive/shared lock counters per key (VLL keeps these in a small
    /// per-key structure rather than the database tuple itself).
    exclusive: HashMap<String, u64>,
    shared: HashMap<String, u64>,
    /// Tickets of blocked transactions, oldest first.
    queue: VecDeque<u64>,
    /// The next ticket; only a transaction that has to wait draws one.
    next_ticket: u64,
}

/// The VLL lock table.
pub struct TransactionManager {
    locks: Mutex<LockTable>,
    unblocked: Condvar,
}

impl Default for TransactionManager {
    fn default() -> Self {
        Self::new()
    }
}

impl TransactionManager {
    /// Creates an empty lock table.
    pub fn new() -> Self {
        TransactionManager {
            locks: Mutex::with_rank(parking_lot::lock_order::TX_LOCKS, LockTable::default()),
            unblocked: Condvar::new(),
        }
    }

    /// Acquires the locks of a transaction that reads `reads` and writes
    /// `writes` (waiting VLL-style if any are busy), returning a guard that
    /// holds them, and the branch itself, until it is dropped.
    ///
    /// This is the first phase of a two-phase commit: a distributed
    /// coordinator prepares one branch per participant, and only when every
    /// branch is prepared (locks held, validation passed) are the writes
    /// applied. Dropping the guard releases the locks, so an abort after a
    /// failed sibling branch is just dropping the prepared guards.
    ///
    /// Deadlock discipline: a coordinator preparing branches on several
    /// managers must prepare them in one globally consistent order (the
    /// cluster layer uses ascending partition index); VLL's queue prevents
    /// cycles within one manager but not across managers.
    pub fn prepare(&self, reads: Vec<String>, writes: Vec<TxWrite>) -> PreparedTransaction<'_> {
        let prepared = PreparedTransaction {
            manager: self,
            reads,
            writes,
        };
        self.acquire_locks(&prepared);
        prepared
    }

    fn keys_free(table: &LockTable, tx: &PreparedTransaction<'_>) -> bool {
        let held = |locks: &HashMap<String, u64>, key: &str| locks.get(key).is_some_and(|&c| c > 0);
        tx.writes
            .iter()
            .all(|w| !held(&table.exclusive, &w.key) && !held(&table.shared, &w.key))
            && tx.reads.iter().all(|r| !held(&table.exclusive, r))
    }

    fn acquire_locks(&self, tx: &PreparedTransaction<'_>) {
        let mut table = self.locks.lock();
        if Self::keys_free(&table, tx) && table.queue.is_empty() {
            Self::grab(&mut table, tx);
            return;
        }
        // Blocked: wait until we are at the front of the queue and our keys
        // are free (VLL guarantees this eventually holds).
        let ticket = table.next_ticket;
        table.next_ticket += 1;
        table.queue.push_back(ticket);
        loop {
            let at_front = table.queue.front() == Some(&ticket);
            if at_front && Self::keys_free(&table, tx) {
                table.queue.pop_front();
                Self::grab(&mut table, tx);
                return;
            }
            self.unblocked.wait(&mut table);
        }
    }

    fn grab(table: &mut LockTable, tx: &PreparedTransaction<'_>) {
        for w in &tx.writes {
            *table.exclusive.entry(w.key.clone()).or_insert(0) += 1;
        }
        for r in &tx.reads {
            *table.shared.entry(r.clone()).or_insert(0) += 1;
        }
    }

    fn release_locks(&self, tx: &PreparedTransaction<'_>) {
        let mut table = self.locks.lock();
        for w in &tx.writes {
            if let Some(c) = table.exclusive.get_mut(&w.key) {
                *c = c.saturating_sub(1);
            }
        }
        for r in &tx.reads {
            if let Some(c) = table.shared.get_mut(r) {
                *c = c.saturating_sub(1);
            }
        }
        self.unblocked.notify_all();
    }
}

/// A transaction whose locks are held (two-phase-commit "prepared" state).
///
/// Produced by [`TransactionManager::prepare`]; the locks are released when
/// the guard is dropped, whether the coordinator committed or aborted, so a
/// panic or early return cannot strand a VLL queue.
pub struct PreparedTransaction<'a> {
    manager: &'a TransactionManager,
    reads: Vec<String>,
    writes: Vec<TxWrite>,
}

impl PreparedTransaction<'_> {
    /// The read keys, in the order they were added.
    pub fn reads(&self) -> &[String] {
        &self.reads
    }

    /// The writes, in the order they were added.
    pub fn writes(&self) -> &[TxWrite] {
        &self.writes
    }
}

impl Drop for PreparedTransaction<'_> {
    fn drop(&mut self) {
        self.manager.release_locks(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn write(key: &str, value: Vec<u8>) -> TxWrite {
        TxWrite {
            key: key.into(),
            value,
        }
    }

    #[test]
    fn prepare_hands_back_the_branch() {
        let mgr = TransactionManager::new();
        let prepared = mgr.prepare(vec!["b".into()], vec![write("a", b"1".to_vec())]);
        assert_eq!(prepared.reads(), &["b".to_string()]);
        assert_eq!(prepared.writes(), &[write("a", b"1".to_vec())]);
        // A read lock is shared: a second reader of `b` does not queue
        // behind the first.
        let reader = mgr.prepare(vec!["b".into()], Vec::new());
        assert_eq!(reader.reads().len(), 1);
    }

    #[test]
    fn a_dropped_prepare_releases_its_locks() {
        let mgr = TransactionManager::new();
        // Prepared and dropped without writing: the abort path.
        drop(mgr.prepare(vec!["r".into()], vec![write("k", vec![])]));
        // A later transaction on the same keys, with the roles swapped, is
        // not blocked forever.
        drop(mgr.prepare(vec!["k".into()], vec![write("r", vec![])]));
    }

    #[test]
    fn concurrent_transactions_serialize_on_conflicting_keys() {
        let mgr = Arc::new(TransactionManager::new());
        let counter = Arc::new(Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        for t in 0..8 {
            let mgr = Arc::clone(&mgr);
            let counter = Arc::clone(&counter);
            handles.push(std::thread::spawn(move || {
                let prepared = mgr.prepare(Vec::new(), vec![write("shared-counter", vec![t])]);
                // Critical section: no other transaction holding the key
                // may interleave here.
                let mut guard = counter.lock();
                guard.push(prepared.writes()[0].value[0]);
                std::thread::sleep(std::time::Duration::from_millis(1));
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.lock().len(), 8);
    }

    #[test]
    fn prepared_transactions_hold_locks_until_dropped() {
        let mgr = Arc::new(TransactionManager::new());
        let prepared = mgr.prepare(Vec::new(), vec![write("contested", vec![1])]);
        assert_eq!(prepared.writes().len(), 1);
        assert!(prepared.reads().is_empty());
        // A second transaction on the same key blocks until the prepared
        // guard is dropped (abort path: no write ever ran). A reader of it
        // queues the same way.
        let mgr2 = Arc::clone(&mgr);
        let writer = std::thread::spawn(move || {
            drop(mgr2.prepare(Vec::new(), vec![write("contested", vec![2])]));
        });
        let mgr3 = Arc::clone(&mgr);
        let reader =
            std::thread::spawn(move || drop(mgr3.prepare(vec!["contested".into()], Vec::new())));
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(!writer.is_finished(), "locks released before drop");
        assert!(!reader.is_finished(), "a read passed a held write lock");
        drop(prepared);
        writer.join().unwrap();
        reader.join().unwrap();
    }

    #[test]
    fn disjoint_transactions_do_not_block_each_other() {
        let mgr = TransactionManager::new();
        let a = mgr.prepare(Vec::new(), vec![write("key-a", vec![])]);
        // Prepare b while a is still held: must not deadlock.
        let b = mgr.prepare(Vec::new(), vec![write("key-b", vec![])]);
        drop(b);
        drop(a);
    }
}
