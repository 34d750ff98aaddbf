//! Cross-partition transactions (cluster transaction table, lock ranks
//! 70–76): operations buffer here and commit in two phases, every branch
//! preparing — in ascending partition order — before any branch commits.

use std::collections::BTreeMap;
use std::sync::Arc;

use pesos_core::{parse_policy_id, HashedKey, PesosController, PesosError, TxOutcome, TxWrite};
use pesos_kinetic::Payload;
use pesos_telemetry::OpKind;

use super::{controller_at, ControllerCluster};
use crate::replication::LogRecord;

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
                policy_id: None,
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
        // under this snapshot.
        #[derive(Default)]
        struct Branch {
            reads: Vec<(usize, String)>,
            writes: Vec<(usize, TxWrite)>,
            /// One shared copy of each write's value for the post-commit
            /// log records, taken at staging because the value itself
            /// moves into the branch transaction. Stays empty for a
            /// partition that has no log.
            logged: Vec<Payload>,
        }
        let mut branches: BTreeMap<usize, Branch> = BTreeMap::new();
        for (position, key) in tx.reads.iter().enumerate() {
            let hashed = HashedKey::new(key);
            self.pull_if_migrating(&routing, &hashed)?;
            branches
                .entry(routing.table.index_of(Self::routing_hash(&hashed)))
                .or_default()
                .reads
                .push((position, key.clone()));
        }
        for (position, write) in tx.writes.into_iter().enumerate() {
            let hashed = HashedKey::new(&write.key);
            self.pull_if_migrating(&routing, &hashed)?;
            branches
                .entry(routing.table.index_of(Self::routing_hash(&hashed)))
                .or_default()
                .writes
                .push((position, write));
        }
        let read_count = tx.reads.len();
        let write_count: usize = branches.values().map(|b| b.writes.len()).sum();

        // Open one local branch transaction per participant. BTreeMap
        // iteration gives ascending partition order — the global prepare
        // order that keeps concurrent coordinators deadlock-free. Any
        // staging failure aborts every local transaction created so far,
        // not just the failing branch's, so nothing lingers in the
        // participants' transaction buffers. Write values move into the
        // branch transactions (the merge below only needs each write's
        // position), so staging copies no value bytes except the log's.
        let mut participants: Vec<(Arc<PesosController>, u64, Branch)> =
            Vec::with_capacity(branches.len());
        let staged = branches
            .into_iter()
            .try_for_each(|(partition, mut branch)| {
                let controller = Arc::clone(controller_at(&routing.table, partition)?);
                let local = controller.create_tx(client_id)?;
                let has_log = self.replica_set_of(&controller).is_some();
                let ops = branch
                    .reads
                    .iter()
                    .try_for_each(|(_, key)| controller.add_read(client_id, local, key))
                    .and_then(|()| {
                        branch.writes.iter_mut().try_for_each(|(_, write)| {
                            if has_log {
                                branch.logged.push(write.value.as_slice().into());
                            }
                            let value = std::mem::take(&mut write.value);
                            controller.add_write(client_id, local, &write.key, value)
                        })
                    });
                participants.push((controller, local, branch));
                ops
            });
        if let Err(e) = staged {
            for (controller, local, _) in &participants {
                let _ = controller.abort_tx(client_id, *local);
            }
            return Err(e);
        }

        // Phase one: prepare every branch; first failure aborts them all.
        let mut prepared = Vec::with_capacity(participants.len());
        for (index, (controller, local, _)) in participants.iter().enumerate() {
            match controller.prepare_commit(client_id, *local) {
                Ok(p) => prepared.push(p),
                Err(e) => {
                    for (p, (controller, _, _)) in prepared.into_iter().zip(&participants) {
                        controller.abort_prepared(p);
                    }
                    // Branches after the failing one were never prepared;
                    // their local transactions were consumed by nothing, so
                    // abort them to free the buffered state.
                    for (controller, local, _) in participants.iter().skip(index + 1) {
                        let _ = controller.abort_tx(client_id, *local);
                    }
                    return Err(e);
                }
            }
        }

        // Phase two: apply every branch and merge outcomes back into the
        // order the client added the operations.
        let mut read_values: Vec<Option<Vec<u8>>> = vec![None; read_count];
        let mut write_versions: Vec<Option<u64>> = vec![None; write_count];
        for (p, (controller, _, branch)) in prepared.into_iter().zip(&participants) {
            let outcome = controller.commit_prepared(p)?;
            // Applied branch writes enter the partition's log with their
            // committed versions, before the outcome (the client-visible
            // acknowledgement) is assembled below.
            for (((_, write), payload), version) in branch
                .writes
                .iter()
                .zip(&branch.logged)
                .zip(&outcome.write_versions)
            {
                self.append_for(controller, || LogRecord::Put {
                    key: write.key.clone(),
                    value: payload.clone(),
                    policy_id: write
                        .policy_id
                        .as_deref()
                        .and_then(|hex| parse_policy_id(hex).ok()),
                    version: Some(*version),
                });
            }
            for ((position, _), value) in branch.reads.iter().zip(outcome.read_values) {
                if let Some(slot) = read_values.get_mut(*position) {
                    *slot = Some(value);
                }
            }
            for ((position, _), version) in branch.writes.iter().zip(outcome.write_versions) {
                if let Some(slot) = write_versions.get_mut(*position) {
                    *slot = Some(version);
                }
            }
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
        // File the merged outcome on every participant under the cluster
        // id, so check_results finds it no matter which partition is asked.
        // A transaction with no buffered operations has no participants;
        // file its (empty) outcome on the first partition so a committed
        // transaction is always queryable, as on a single controller.
        if participants.is_empty() {
            let first = routing.table.first();
            first.record_tx_outcome(tx_id, outcome.clone());
            self.append_for(first, || LogRecord::TxOutcome {
                tx_id,
                outcome: outcome.clone(),
            });
        }
        // The outcome map is replicated too: a promoted backup resolves
        // in-doubt cluster transactions from its copy, so check_results
        // keeps answering after a participant fails over.
        for (controller, _, _) in &participants {
            controller.record_tx_outcome(tx_id, outcome.clone());
            self.append_for(controller, || LogRecord::TxOutcome {
                tx_id,
                outcome: outcome.clone(),
            });
        }
        Ok(outcome)
    }

    /// Returns the outcome of a previously committed cluster transaction,
    /// queryable from any router: every partition is consulted until one
    /// has the retained outcome. Retention is bounded per controller, with
    /// the same caveats as [`PesosController::check_results`].
    pub fn check_results(&self, client_id: &str, tx_id: u64) -> Result<TxOutcome, PesosError> {
        self.require_client(client_id)?;
        let routing = self.routing.read().clone();
        for partition in routing.table.partitions() {
            if let Some(outcome) = partition.controller.tx_outcome(tx_id) {
                return Ok(outcome);
            }
        }
        Err(PesosError::ResultUnavailable(format!(
            "no retained results for tx {tx_id} (unknown, aborted, or evicted)"
        )))
    }
}
