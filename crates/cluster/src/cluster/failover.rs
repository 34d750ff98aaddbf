//! Replication and failover (the partitions' logs, ranks 80–82): a
//! partition primary's store appends every drive batch it acknowledges to
//! the partition's log before the ack escapes, so promoting the freshest
//! backup under the gate's write side loses no acknowledged write. A log
//! lives in its partition's routing-table entry
//! ([`crate::router::Partition::log`]) and is attached to the primary's
//! store where it is spawned; a promotion swaps owner and log in one table
//! swap.

use std::sync::Arc;

use pesos_core::bootstrap::bootstrap;
use pesos_core::{ControllerConfig, PesosController, PesosError};
use pesos_sgx::HostPool;

use super::{ControllerCluster, RoutingState};
use crate::replication::{Promotion, ReplicaSet};
use crate::router::Partition;

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
    /// Bootstraps `backups` backup stores from the template on the host
    /// `pool` and starts `primary`'s log shipping to them; `None` when
    /// `backups` is 0 (replication off). A backup is a store and nothing
    /// more until a promotion builds its controller. Every partition's log
    /// is spawned here or re-seeded from a promotion's survivors, which
    /// are already on it.
    pub(super) fn spawn_log(
        primary: &PesosController,
        template: &ControllerConfig,
        backups: usize,
        pool: &Arc<HostPool>,
    ) -> Result<Option<Arc<ReplicaSet>>, PesosError> {
        if backups == 0 {
            return Ok(None);
        }
        let backups = (0..backups)
            .map(|_| bootstrap(template, pool).map(Arc::new))
            .collect::<Result<Vec<_>, _>>()?;
        let log = ReplicaSet::spawn(REPLICATION_SECRET, backups, REPLICATION_MAX_LAG);
        primary.store().attach_log(&log);
        Ok(Some(log))
    }

    /// Simulates a crash of partition `index`'s controller: it refuses
    /// every sessioned operation from now on ([`PesosError::Unavailable`])
    /// and all of its drives go offline. Requests into its range retry
    /// with capped backoff and succeed once
    /// [`ControllerCluster::fail_controller`] promotes a backup.
    pub fn kill_controller(&self, index: usize) -> Result<(), PesosError> {
        let routing = self.routing.read().clone();
        let controller = &routing.table.partition_at(index)?.controller;
        controller.set_failed(true);
        for drive in controller.store().drives().iter() {
            drive.set_online(false);
        }
        Ok(())
    }

    /// Fails partition `index` over onto the freshest of its backup
    /// stores, building the controller that serves the partition over it
    /// from the failed controller's config (the one the backup was
    /// bootstrapped from).
    ///
    /// The promotion runs under the ops gate's write side with the same
    /// flush-under-gate discipline as a rebalance: every request either
    /// completed (and appended its batches) before the gate flips or
    /// starts against the promoted backup after it, and every async put it
    /// accepted has completed (and appended) or failed — so the retained
    /// log tail replayed into the backup covers every acknowledged write,
    /// and none is lost. In-doubt cluster transactions resolve from the
    /// replicated outcome map the backup received through the same log.
    ///
    /// Refuses ([`PesosError::MigrationPending`]) while a pending
    /// migration involves the partition — its demand pulls hold
    /// references to the old primary that a table swap would strand;
    /// settle (or let settle retries finish) first. Fails
    /// ([`PesosError::Unavailable`]) when the partition has no backups or
    /// the freshest backup cannot apply the log tail.
    ///
    /// Returns the promotion record: the store now serving the partition,
    /// how many retained records were replayed into it, and the surviving
    /// backup stores that re-seed its next replica set.
    ///
    /// A backup only wrote its primary's drive batches, so the promoted
    /// controller starts *cold*: its metadata map is empty and its
    /// partition's `resident_objects` is 0, refilling as keys are touched
    /// (the first write of each key is refused as a create and re-reads
    /// the record, `/stats/partitions/<i>/store/create_refusals`). Until it
    /// refills, a split of this partition falls back to the midpoint of
    /// its range.
    pub fn fail_controller(&self, index: usize) -> Result<Promotion, PesosError> {
        let _topology = self.rebalance.lock();
        let failed = {
            let routing = self.routing.read();
            let failed = routing.table.partition_at(index)?.clone();
            for migration in &routing.migrations {
                let moves_out = Arc::ptr_eq(&migration.src.controller, &failed.controller);
                if moves_out || Arc::ptr_eq(&migration.dst.controller, &failed.controller) {
                    return Err(PesosError::MigrationPending(format!(
                        "cannot fail over partition {index}: a pending migration still \
                         moves keys {} it; settle it first",
                        if moves_out { "out of" } else { "into" },
                    )));
                }
            }
            failed
        };
        let log = failed.log.as_ref().ok_or_else(|| {
            PesosError::Unavailable(format!(
                "partition {index} has no backups to promote \
                 (replication is off or they were lost)"
            ))
        })?;
        // From here the partition is failed even if it was still healthy
        // (operator-initiated failover): new requests into its range get
        // Unavailable and retry into the promoted backup.
        failed.controller.set_failed(true);
        // Stop the shippers *outside* the gate: stop() joins threads that
        // may be mid-retry against a faulting backup, and holding the gate
        // across that join would stall every partition's traffic (promote
        // stops the set again, joining nothing). Appends from requests
        // still in flight keep enqueueing after stop() — promotion replays
        // the retained queue, so they are not lost.
        log.stop();
        let promotion = {
            // Quiesce: after this acquire no request is in flight, after
            // the flush no async put (a queued one finds its controller
            // failed), so the log is final — every acknowledged write's
            // record is applied on a backup or in the retained tail.
            let _quiesced = self.ops_gate.write();
            failed.controller.drain_async();
            let promotion = log.promote()?;
            // The promoted primary serves the cluster's clients; its new
            // log is seeded from the backups that also caught up during
            // promotion. With no survivor the partition runs unreplicated
            // until the operator adds capacity: its entry carries no log.
            let controller = PesosController::with_store(
                failed.controller.config().clone(),
                Arc::clone(&promotion.promoted),
                &self.clients,
            );
            let promoted = Partition {
                start: failed.start,
                controller: Arc::new(controller),
                log: (!promotion.survivors.is_empty()).then(|| {
                    ReplicaSet::spawn(
                        REPLICATION_SECRET,
                        promotion.survivors.clone(),
                        REPLICATION_MAX_LAG,
                    )
                }),
            };
            // Copy what the log does not carry: any policy installed before
            // this partition had its backups (none today, but the copy is
            // idempotent and cheap). Nothing routes to the new log before
            // the swap below: on a failed copy stop it rather than leave
            // its shippers running behind no partition.
            self.copy_policies_to(&promoted)
                .inspect_err(|_| promoted.stop_log())?;
            // Attached only now: a store keeps the first log attached to
            // it, so a failed copy must leave it without one for the
            // retried failover's log. What the copy wrote (a policy the
            // backup lacked) is copied again by any later promotion.
            if let Some(log) = &promoted.log {
                promoted.controller.store().attach_log(log);
            }
            let mut routing = self.routing.write();
            let old = routing.clone();
            let table = old
                .table
                .with_controller(index, promoted.controller, promoted.log)?;
            // New owner, new load window — same rule as every other
            // topology change.
            self.reset_request_baseline(&table);
            *routing = Arc::new(RoutingState {
                table,
                migrations: old.migrations.clone(),
            });
            promotion
        };
        Ok(promotion)
    }
}
