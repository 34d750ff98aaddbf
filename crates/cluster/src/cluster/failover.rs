//! Replication and failover (replica registry, rank 35, and the logs it
//! indexes, ranks 80–82): every acknowledged mutation is appended to its
//! partition's log before the ack escapes, so promoting the freshest
//! backup under the gate's write side loses no acknowledged write.

use std::sync::Arc;

use pesos_core::{ControllerConfig, PesosController, PesosError};

use super::{controller_at, ControllerCluster, RoutingState};
use crate::replication::{LogRecord, Promotion, ReplicaSet};

/// Key of the per-partition replication log HMAC. Log frames never leave
/// the process (each replica set ships only to its own backups), so one
/// shared secret is enough to catch corruption and cross-channel mixups.
const REPLICATION_SECRET: &[u8] = b"pesos-cluster-replication-log";

/// Bounded-lag backpressure for replication: when the slowest backup falls
/// more than this many log records behind, acknowledgements to new writes
/// on that partition block until it catches up (or the stall cap expires —
/// see `replication::APPEND_STALL_CAP`).
const REPLICATION_MAX_LAG: u64 = 256;

impl ControllerCluster {
    /// Builds `count` backup controllers from the template and starts a
    /// replica set shipping to them.
    pub(super) fn spawn_replica_set(
        template: &ControllerConfig,
        count: usize,
    ) -> Result<Arc<ReplicaSet>, PesosError> {
        let backups = (0..count)
            .map(|_| PesosController::new(template.clone()).map(Arc::new))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ReplicaSet::spawn(
            REPLICATION_SECRET,
            backups,
            REPLICATION_MAX_LAG,
        ))
    }

    /// The replication log of the partition `controller` is primary of,
    /// if replication is on and the partition still has one.
    pub(super) fn replica_set_of(
        &self,
        controller: &Arc<PesosController>,
    ) -> Option<Arc<ReplicaSet>> {
        if self.backups_per_partition == 0 {
            return None;
        }
        self.replicas
            .read()
            .iter()
            .find(|(primary, _)| Arc::ptr_eq(primary, controller))
            .map(|(_, set)| Arc::clone(set))
    }

    /// Appends a log record to `controller`'s replication log, if it has
    /// one. The record is built lazily so a replication-free cluster pays
    /// no allocation on the request path. Callers invoke this *before*
    /// releasing the acknowledgement to the client (everything runs under
    /// the ops-gate read side), preserving the "acked ⇒ logged" invariant.
    pub(super) fn append_for(
        &self,
        controller: &Arc<PesosController>,
        record: impl FnOnce() -> LogRecord,
    ) {
        if let Some(set) = self.replica_set_of(controller) {
            set.append(record());
        }
    }

    /// Simulates a crash of partition `index`'s controller: it refuses
    /// every sessioned operation from now on ([`PesosError::Unavailable`])
    /// and all of its drives go offline. Requests into its range retry
    /// with capped backoff and succeed once
    /// [`ControllerCluster::fail_controller`] promotes a backup.
    pub fn kill_controller(&self, index: usize) -> Result<(), PesosError> {
        let routing = self.routing.read().clone();
        let controller = controller_at(&routing.table, index)?;
        controller.set_failed(true);
        for drive in controller.store().drives().iter() {
            drive.set_online(false);
        }
        Ok(())
    }

    /// Fails partition `index` over onto the freshest of its backups.
    ///
    /// The promotion runs under the ops gate's write side with the same
    /// flush-under-gate discipline as a rebalance: every request either
    /// completed (and appended its log record) before the gate flips or
    /// starts against the promoted backup after it — so the retained log
    /// tail replayed into the backup covers every acknowledged write, and
    /// none is lost. In-doubt cluster transactions resolve from the
    /// replicated outcome map the backup received through the same log.
    ///
    /// Refuses ([`PesosError::MigrationPending`]) while a pending
    /// migration involves the partition — its demand pulls hold
    /// references to the old primary that a table swap would strand;
    /// settle (or let settle retries finish) first. Fails
    /// ([`PesosError::Unavailable`]) when the partition has no backups or
    /// the freshest backup cannot apply the log tail.
    ///
    /// Returns the promotion record: the controller now serving the
    /// partition, how many retained records were replayed into it, and
    /// the surviving backups that re-seed its next replica set.
    pub fn fail_controller(&self, index: usize) -> Result<Promotion, PesosError> {
        let _topology = self.rebalance.lock();
        let (failed, set) = {
            let routing = self.routing.read();
            let failed = Arc::clone(controller_at(&routing.table, index)?);
            for migration in &routing.migrations {
                if Arc::ptr_eq(&migration.src, &failed) || Arc::ptr_eq(&migration.dst, &failed) {
                    return Err(PesosError::MigrationPending(format!(
                        "cannot fail over partition {index}: a pending migration still \
                         moves keys {} it; settle it first",
                        if Arc::ptr_eq(&migration.src, &failed) {
                            "out of"
                        } else {
                            "into"
                        },
                    )));
                }
            }
            let set = self.replica_set_of(&failed).ok_or_else(|| {
                PesosError::Unavailable(format!(
                    "partition {index} has no backups to promote \
                     (backups_per_partition is 0 or they were lost)"
                ))
            })?;
            (failed, set)
        };
        // From here the partition is failed even if it was still healthy
        // (operator-initiated failover): new requests into its range get
        // Unavailable and retry into the promoted backup.
        failed.set_failed(true);
        // Stop the shippers *outside* the gate: stop() joins threads that
        // may be mid-retry against a faulting backup, and holding the gate
        // across that join would stall every partition's traffic. Appends
        // from requests still in flight keep enqueueing after stop() —
        // promotion replays the retained queue, so they are not lost.
        set.stop();
        let promotion = {
            // Quiesce: after this acquire no request is in flight, so the
            // log is final — every acknowledged write's record is either
            // applied on a backup or sitting in the retained tail.
            let _quiesced = self.ops_gate.write();
            let promotion = set.promote()?;
            let promoted = Arc::clone(&promotion.promoted);
            // Re-home what the log does not carry: sessions, any policy
            // installed before this partition had its backups (none today,
            // but copy_policies_to is idempotent and cheap), and the
            // logical clock (read from any surviving partition — clocks
            // are set together).
            let now = {
                let routing = self.routing.read();
                routing
                    .table
                    .partitions()
                    .iter()
                    .find(|p| !Arc::ptr_eq(&p.controller, &failed))
                    .map(|p| p.controller.now())
                    .unwrap_or_else(|| failed.now())
            };
            promoted.set_time(now);
            for client in self.clients.lock().iter() {
                promoted.register_client(client);
            }
            self.copy_policies_to(&promoted)?;
            let mut routing = self.routing.write();
            let old = routing.clone();
            let table = old.table.with_controller(index, Arc::clone(&promoted));
            // New owner, new load window — same rule as every other
            // topology change.
            self.reset_request_baseline(&table);
            *routing = Arc::new(RoutingState {
                table,
                migrations: old.migrations.clone(),
            });
            drop(routing);
            // The promoted primary's new replica set is seeded from the
            // backups that also caught up during promotion. With no
            // survivor the partition runs unreplicated until the operator
            // adds capacity — append_for simply finds no set.
            let mut replicas = self.replicas.write();
            replicas.retain(|(primary, _)| !Arc::ptr_eq(primary, &failed));
            if !promotion.survivors.is_empty() {
                replicas.push((
                    Arc::clone(&promoted),
                    ReplicaSet::spawn(
                        REPLICATION_SECRET,
                        promotion.survivors.clone(),
                        REPLICATION_MAX_LAG,
                    ),
                ));
            }
            promotion
        };
        Ok(promotion)
    }
}
