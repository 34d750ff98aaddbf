//! Cross-partition transactions (the open-transaction table and the
//! controllers' VLL lock tables, lock ranks 72–74): operations buffer here
//! and commit in two phases, every branch preparing — in ascending
//! partition order — before any branch commits.

use std::collections::BTreeMap;

use pesos_core::{HashedKey, PesosError, PreparedCommit, TxOutcome, TxWrite};
use pesos_telemetry::OpKind;

use super::ControllerCluster;
use crate::replication::LogRecord;
use crate::router::Partition;

impl ControllerCluster {
    /// Begins a cluster transaction.
    pub fn create_tx(&self, client_id: &str) -> Result<u64, PesosError> {
        self.require_client(client_id)?;
        Ok(self.tx.create(client_id))
    }

    /// Number of open (buffered, not yet committed or aborted) cluster
    /// transactions.
    pub fn open_tx_count(&self) -> usize {
        self.tx.open_count()
    }

    /// Adds a read to a cluster transaction.
    pub fn add_read(&self, client_id: &str, tx_id: u64, key: &str) -> Result<(), PesosError> {
        self.require_client(client_id)?;
        self.tx.add_read(tx_id, client_id, key)
    }

    /// Adds a write to a cluster transaction.
    pub fn add_write(
        &self,
        client_id: &str,
        tx_id: u64,
        key: &str,
        value: Vec<u8>,
    ) -> Result<(), PesosError> {
        self.require_client(client_id)?;
        self.tx.add_write(
            tx_id,
            client_id,
            TxWrite {
                key: key.to_string(),
                value,
            },
        )
    }

    /// Aborts a cluster transaction.
    pub fn abort_tx(&self, client_id: &str, tx_id: u64) -> Result<(), PesosError> {
        self.require_client(client_id)?;
        self.tx.abort(tx_id, client_id)
    }

    /// Commits a cluster transaction with the two-phase protocol described
    /// on [`ControllerCluster`]: group by partition, prepare every branch
    /// in ascending partition order, and only then commit them. Any
    /// prepare-phase failure (policy denial on any partition, unknown
    /// session, read of a missing object) aborts every prepared branch —
    /// no partition writes.
    // pesos-lint: invariant(acked_logged)
    pub fn commit_tx(&self, client_id: &str, tx_id: u64) -> Result<TxOutcome, PesosError> {
        let _timer = self
            .telemetry
            .ops
            .timer(OpKind::CommitTx, self.telemetry.enabled());
        self.require_client(client_id)?;
        let _gate = self.ops_gate.read();
        let tx = self.tx.take(tx_id, client_id)?;
        let routing = self.routing.read().clone();

        // Settle any in-flight migration for the touched keys first, so
        // every branch prepares against the partition that owns the key
        // under this snapshot. Each branch remembers where its operations
        // sat in the client's order, for the merge below.
        #[derive(Default)]
        struct Branch {
            reads: Vec<String>,
            read_positions: Vec<usize>,
            writes: Vec<TxWrite>,
            write_positions: Vec<usize>,
        }
        let read_count = tx.reads.len();
        let write_count = tx.writes.len();
        let mut branches: BTreeMap<usize, Branch> = BTreeMap::new();
        for (position, key) in tx.reads.into_iter().enumerate() {
            let hashed = HashedKey::new(&key);
            self.pull_if_migrating(&routing, &hashed)?;
            let branch = branches
                .entry(routing.table.index_of(Self::routing_hash(&hashed)))
                .or_default();
            branch.reads.push(key);
            branch.read_positions.push(position);
        }
        for (position, write) in tx.writes.into_iter().enumerate() {
            let hashed = HashedKey::new(&write.key);
            self.pull_if_migrating(&routing, &hashed)?;
            let branch = branches
                .entry(routing.table.index_of(Self::routing_hash(&hashed)))
                .or_default();
            branch.writes.push(write);
            branch.write_positions.push(position);
        }

        // Phase one: prepare every branch. BTreeMap iteration gives
        // ascending partition order — the global prepare order that keeps
        // concurrent coordinators deadlock-free. Each branch's reads and
        // writes move into its prepare whole; the first failure aborts the
        // branches already prepared, and nothing else was staged anywhere.
        struct Participant<'a> {
            partition: &'a Partition,
            prepared: PreparedCommit<'a>,
            read_positions: Vec<usize>,
            write_positions: Vec<usize>,
        }
        let prepare = |partition: usize, branch: Branch| {
            let partition = routing.table.partition_at(partition)?;
            partition
                .controller
                .prepare_commit(client_id, branch.reads, branch.writes)
                .map(|prepared| Participant {
                    partition,
                    prepared,
                    read_positions: branch.read_positions,
                    write_positions: branch.write_positions,
                })
        };
        let mut participants: Vec<Participant<'_>> = Vec::with_capacity(branches.len());
        for (partition, branch) in branches {
            match prepare(partition, branch) {
                Ok(participant) => participants.push(participant),
                Err(e) => {
                    for p in participants {
                        p.partition.controller.abort_prepared(p.prepared);
                    }
                    return Err(e);
                }
            }
        }

        // Phase two: apply every branch and merge outcomes back into the
        // order the client added the operations. Each branch's writes enter
        // its partition's log as its store writes them, before the outcome
        // (the client-visible acknowledgement) is assembled below.
        let mut read_values: Vec<Option<Vec<u8>>> = vec![None; read_count];
        let mut write_versions: Vec<Option<u64>> = vec![None; write_count];
        let mut committed = Vec::with_capacity(participants.len());
        for p in participants {
            let outcome = p.partition.controller.commit_prepared(p.prepared)?;
            for (position, value) in p.read_positions.into_iter().zip(outcome.read_values) {
                if let Some(slot) = read_values.get_mut(position) {
                    *slot = Some(value);
                }
            }
            for (position, version) in p.write_positions.into_iter().zip(outcome.write_versions) {
                if let Some(slot) = write_versions.get_mut(position) {
                    *slot = Some(version);
                }
            }
            committed.push(p.partition);
        }
        // Every buffered operation was routed to exactly one branch and
        // every branch outcome was merged above, so a gap is a routing
        // bug; surface it as an abort rather than a panic.
        let merge_gap =
            || PesosError::TransactionAborted("branch outcome left an operation unmerged".into());
        let outcome = TxOutcome {
            read_values: read_values
                .into_iter()
                .map(|v| v.ok_or_else(merge_gap))
                .collect::<Result<_, PesosError>>()?,
            write_versions: write_versions
                .into_iter()
                .map(|v| v.ok_or_else(merge_gap))
                .collect::<Result<_, PesosError>>()?,
        };
        // File the merged outcome on every participant under the
        // transaction id — the one outcome slot each participant spends on
        // it — so check_results finds it no matter which partition is
        // asked. A transaction with no buffered operations has no
        // participants; file its (empty) outcome on the first partition so
        // a committed transaction is always queryable. The outcome map is
        // replicated too: a promoted backup resolves in-doubt cluster
        // transactions from its copy, so check_results keeps answering
        // after a participant fails over.
        if committed.is_empty() {
            committed.push(routing.table.first());
        }
        for partition in committed {
            partition
                .controller
                .store()
                .record_tx_outcome(tx_id, outcome.clone());
            if let Some(log) = &partition.log {
                let outcome = outcome.clone();
                log.append(LogRecord::TxOutcome { tx_id, outcome });
            }
        }
        Ok(outcome)
    }

    /// Returns the outcome of a previously committed cluster transaction,
    /// queryable from any router: every partition is consulted until one
    /// has the retained outcome.
    ///
    /// Retention is bounded per partition
    /// ([`pesos_core::TX_OUTCOME_CAPACITY`]): a
    /// [`PesosError::ResultUnavailable`] here means the outcome is not
    /// retained — the transaction id is unknown, aborted, or committed long
    /// enough ago that its outcome was evicted. It must not be read as
    /// proof the transaction did not commit; the authoritative commit
    /// signal is [`ControllerCluster::commit_tx`]'s return value.
    pub fn check_results(&self, client_id: &str, tx_id: u64) -> Result<TxOutcome, PesosError> {
        self.require_client(client_id)?;
        let routing = self.routing.read().clone();
        for partition in routing.table.partitions() {
            if let Some(outcome) = partition.controller.store().tx_outcome(tx_id) {
                return Ok(outcome);
            }
        }
        Err(PesosError::ResultUnavailable(format!(
            "no retained results for tx {tx_id} (unknown, aborted, or evicted)"
        )))
    }
}
