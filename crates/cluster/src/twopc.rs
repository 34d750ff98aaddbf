//! The open-transaction table: the one place a transaction's reads and
//! writes are buffered before it commits.
//!
//! The keys of a transaction may span partitions. At commit time the
//! cluster takes the buffered operations out of this table, groups them by
//! owning partition and hands each participant its *branch* whole through
//! [`pesos_core::PesosController::prepare_commit`]; the controllers keep no
//! buffer of their own, only the VLL locks the branch holds until
//! [`pesos_core::PesosController::commit_prepared`] (see the cluster module
//! for the protocol itself).
//!
//! The merged outcome is filed under the transaction id on every
//! participant, which is what makes it queryable from any router.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;
use pesos_core::{PesosError, TxWrite};

/// High tag bit of every transaction id. Only these ids are filed in the
/// controllers' outcome maps; the tag is the form of the ids clients hold.
pub const CLUSTER_TX_BIT: u64 = 1 << 63;

/// A buffered, not-yet-committed cluster transaction.
pub(crate) struct ClusterTx {
    pub owner: String,
    pub reads: Vec<String>,
    pub writes: Vec<TxWrite>,
}

/// Buffers open cluster transactions until commit or abort.
pub(crate) struct ClusterTxManager {
    next_id: AtomicU64,
    open: Mutex<HashMap<u64, ClusterTx>>,
}

impl ClusterTxManager {
    pub fn new() -> Self {
        ClusterTxManager {
            next_id: AtomicU64::new(1),
            open: Mutex::with_rank(parking_lot::lock_order::CLUSTER_TX, HashMap::new()),
        }
    }

    /// Begins a transaction for `owner` and returns its (tagged) id.
    pub fn create(&self, owner: &str) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::SeqCst) | CLUSTER_TX_BIT;
        self.open.lock().insert(
            id,
            ClusterTx {
                owner: owner.to_string(),
                reads: Vec::new(),
                writes: Vec::new(),
            },
        );
        id
    }

    /// Number of open transactions.
    pub fn open_count(&self) -> usize {
        self.open.lock().len()
    }

    fn with_tx<R>(
        &self,
        id: u64,
        owner: &str,
        f: impl FnOnce(&mut ClusterTx) -> R,
    ) -> Result<R, PesosError> {
        let mut open = self.open.lock();
        let tx = open
            .get_mut(&id)
            .ok_or_else(|| PesosError::TransactionAborted(format!("unknown transaction {id}")))?;
        if tx.owner != owner {
            return Err(PesosError::TransactionAborted(
                "transaction owned by a different client".into(),
            ));
        }
        Ok(f(tx))
    }

    pub fn add_read(&self, id: u64, owner: &str, key: &str) -> Result<(), PesosError> {
        self.with_tx(id, owner, |tx| tx.reads.push(key.to_string()))
    }

    pub fn add_write(&self, id: u64, owner: &str, write: TxWrite) -> Result<(), PesosError> {
        self.with_tx(id, owner, |tx| tx.writes.push(write))
    }

    /// Removes and returns the transaction for committing.
    pub fn take(&self, id: u64, owner: &str) -> Result<ClusterTx, PesosError> {
        let mut open = self.open.lock();
        match open.remove(&id) {
            Some(tx) if tx.owner == owner => Ok(tx),
            Some(tx) => {
                // Wrong owner: put the transaction back untouched.
                open.insert(id, tx);
                Err(PesosError::TransactionAborted(
                    "transaction owned by a different client".into(),
                ))
            }
            None => Err(PesosError::TransactionAborted(format!(
                "unknown transaction {id}"
            ))),
        }
    }

    /// Aborts and discards the transaction.
    pub fn abort(&self, id: u64, owner: &str) -> Result<(), PesosError> {
        self.take(id, owner).map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_carry_the_cluster_tag() {
        let mgr = ClusterTxManager::new();
        let id = mgr.create("alice");
        assert_ne!(id & CLUSTER_TX_BIT, 0);
        assert_eq!(mgr.open_count(), 1);
    }

    #[test]
    fn buffering_and_ownership() {
        let mgr = ClusterTxManager::new();
        let id = mgr.create("alice");
        mgr.add_read(id, "alice", "a").unwrap();
        mgr.add_write(
            id,
            "alice",
            TxWrite {
                key: "b".into(),
                value: vec![1],
            },
        )
        .unwrap();
        assert!(mgr.add_read(id, "bob", "x").is_err());
        assert!(mgr.take(id, "bob").is_err());
        let tx = mgr.take(id, "alice").unwrap();
        assert_eq!(tx.reads, vec!["a".to_string()]);
        assert_eq!(tx.writes.len(), 1);
        assert!(mgr.take(id, "alice").is_err());
        assert_eq!(mgr.open_count(), 0);
    }

    #[test]
    fn abort_discards() {
        let mgr = ClusterTxManager::new();
        let id = mgr.create("c");
        mgr.abort(id, "c").unwrap();
        assert!(mgr.abort(id, "c").is_err());
    }
}
