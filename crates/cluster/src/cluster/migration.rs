//! Online rebalancing (migration stripes and state, lock ranks 40–45):
//! topology changes install the new table together with a migration
//! record under the gate's write side, then drain the moved range while
//! requests demand-pull what they need — no key is ever lost, resurrected
//! or observed half-moved.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{lock_order, Mutex};
use pesos_core::sharded::Sharded;
use pesos_core::{ControllerConfig, HashedKey, PesosController, PesosError};

use super::routing::ROUTING_DELIMITER;
use super::{ControllerCluster, Migration, PartitionLoad, RoutingState};
use crate::router::{HashRange, Partition, PartitionTable};

impl ControllerCluster {
    /// If `key` lies in a migrating range, ensure it — and every other
    /// member of its placement group still at the source — has moved to
    /// the destination before the caller operates on it.
    ///
    /// Pulling the whole group (not just the requested key) is what keeps
    /// object-referencing policies correct *during* a migration: the
    /// owner's policy check may consult `<key>.log` through its store
    /// view, and a sibling still sitting at the source would otherwise
    /// read as missing mid-drain. Groups share one routing hash, so every
    /// sibling lies in the same moving range; a bounded prefix scan of the
    /// source's drives finds them, and a per-migration memo of settled
    /// groups makes repeat requests into the moving range an in-memory
    /// check instead of a scan.
    pub(super) fn pull_if_migrating(
        &self,
        routing: &RoutingState,
        key: &HashedKey<'_>,
    ) -> Result<(), PesosError> {
        for migration in &routing.migrations {
            if !migration.range.contains(Self::routing_hash(key)) {
                continue;
            }
            let prefix = pesos_core::routing_prefix(key.key(), ROUTING_DELIMITER);
            if migration.settled_groups.lock().contains(prefix) {
                // The whole group (this key included) is known to have
                // left the source, and the source receives no new
                // writes for the moved range — nothing to pull.
                continue;
            }
            self.demand_pull(migration, key)?;
            self.pull_group_siblings(migration, key);
        }
        Ok(())
    }

    /// A demand pull with capped-exponential-backoff retry: transient
    /// source/destination faults (an injected drive error, a torn reply)
    /// are retried (see [`ControllerCluster::with_retries`]) instead of
    /// failing the triggering request on the first fault. The pull is
    /// idempotent (it re-checks destination state under the striped key
    /// lock), so retrying after *any* error is safe: either the key ends
    /// up moved or the migration record stays active and the key remains
    /// reachable at the source.
    fn demand_pull(&self, migration: &Migration, key: &HashedKey<'_>) -> Result<(), PesosError> {
        self.with_retries(
            &self.retries.demand_pull_retries,
            |_| true,
            || {
                self.retries.demand_pull_attempts.add(1);
                Self::pull_key(&self.migration_locks, migration, key)
            },
        )
    }

    /// Pulls the placement-group siblings of `key` (same routing prefix,
    /// different key) that are still resident at a migration's source, and
    /// memoizes the group as settled once nothing of it remains there.
    ///
    /// Best-effort by design: a failed source scan or sibling pull is
    /// *not* fatal to the current request — the requested key itself was
    /// already pulled (or its pull error propagated), so failing here
    /// would turn e.g. an offline source drive into an outage for keys
    /// that long since moved. The cost of skipping is bounded and
    /// fail-closed: an object-referencing policy that cannot see its
    /// still-stranded sibling denies access (the sibling is unreachable
    /// at the source in that state anyway); the group is simply not
    /// memoized, so the next request retries the scan, and the drain loop
    /// independently guarantees the migration never retires with anything
    /// left behind.
    fn pull_group_siblings(&self, migration: &Migration, key: &HashedKey<'_>) {
        let prefix = pesos_core::routing_prefix(key.key(), ROUTING_DELIMITER);
        let settled = (|| -> Result<(), PesosError> {
            // One bounded prefix scan over the source's metadata
            // namespace; the string prefix over-matches (`doc` also finds
            // `docs/x`), so filter to true group members. Keys already
            // moved (or pending only their source delete) are settled
            // cheaply by `pull_key`.
            let source = migration.src.controller.store();
            for sibling in source.list_keys_with_prefix(prefix)? {
                if sibling == key.key()
                    || pesos_core::routing_prefix(&sibling, ROUTING_DELIMITER) != prefix
                {
                    continue;
                }
                self.demand_pull(migration, &HashedKey::new(&sibling))?;
            }
            // Siblings whose move completed but whose source delete is
            // still outstanding may no longer surface in the listing (a
            // partial delete can drop the metadata record first); settle
            // them too so no stale source copy lingers for this group.
            let pending: Vec<String> = migration
                .moved_pending_delete
                .lock()
                .iter()
                .filter(|k| {
                    k.as_str() != key.key()
                        && pesos_core::routing_prefix(k, ROUTING_DELIMITER) == prefix
                })
                .cloned()
                .collect();
            for sibling in pending {
                self.demand_pull(migration, &HashedKey::new(&sibling))?;
            }
            Ok(())
        })();
        if settled.is_ok() {
            migration.settled_groups.lock().insert(prefix.to_string());
        }
    }

    /// Moves one key from a migration's source to its destination if it is
    /// still at the source. Serialized per key through the striped
    /// migration locks, so a demand pull and the drain loop cannot move the
    /// same key twice; the object itself moves under both stores' per-key
    /// write locks. An associated function (locks passed in) so the
    /// drain can carry the stripes into its `'static`
    /// scatter-gather closures.
    fn pull_key(
        locks: &Sharded<Mutex<()>>,
        migration: &Migration,
        key: &HashedKey<'_>,
    ) -> Result<(), PesosError> {
        let _stripe = locks.get(key).lock();
        // Two states leave only the source-side delete to do. Pending: the
        // object reached the destination and its source delete errored.
        // Never re-export then — the destination may legitimately have no
        // metadata because the client deleted the object there, and
        // re-importing the stale source copy would resurrect it. Or the
        // destination holds the key: usually the source copy is gone too,
        // but an import whose *reply* was torn by a drive fault lands the
        // object while reporting failure, and the retry gets here with the
        // stale source copy still present.
        let pending = migration.moved_pending_delete.lock().contains(key.key());
        let (src, dst) = (&migration.src, &migration.dst);
        if pending || dst.controller.store().get_metadata(key).is_some() {
            // A prior partial delete may have already cleared the source,
            // so NotFound counts as done.
            return match src.controller.store().delete_object(key) {
                Ok(()) | Err(PesosError::ObjectNotFound(_)) => {
                    if pending {
                        migration.moved_pending_delete.lock().remove(key.key());
                    }
                    Ok(())
                }
                Err(e) => Err(e),
            };
        }
        let Some(export) = src.controller.store().export_object(key)? else {
            return Ok(()); // never existed (or deleted after moving)
        };
        // The destination must be able to enforce the object's policy.
        if let Some(policy_id) = export.meta.policy_id {
            if dst.controller.store().load_policy(&policy_id).is_err() {
                if let Ok(policy) = src.controller.store().load_policy(&policy_id) {
                    dst.controller.store().store_compiled_policy(policy)?;
                }
            }
        }
        // The destination's backups receive the moved object through the
        // destination's log; the source's drop it through the source's:
        // each store logs the batches it writes.
        dst.controller.store().import_object(&export)?;
        migration.keys_moved.fetch_add(1, Ordering::Relaxed);
        // Only once the destination durably holds the object does the
        // source copy go away: a failed import leaves the source
        // authoritative and the pull retryable, never a lost object.
        if let Err(e) = src.controller.store().delete_object(key) {
            // The move succeeded but the stale source copy survives;
            // remember it so retries (drain loop or demand pulls) finish
            // the delete without ever re-exporting it.
            migration
                .moved_pending_delete
                .lock()
                .insert(key.key().to_string());
            return Err(e);
        }
        Ok(())
    }

    /// Records `prefix` in the migration's settled-group memo after a
    /// drain fully pulled the group, unless a delete is still pending for
    /// one of its members (a concurrent demand pull can park one between
    /// our last pull and here; the group then settles on a later pass).
    /// An associated function so the drain's `'static` bodies can
    /// call it. The two migration-state locks are taken one after the
    /// other, never nested.
    fn checkpoint_group(migration: &Migration, prefix: &str) {
        let has_pending = migration
            .moved_pending_delete
            .lock()
            .iter()
            .any(|k| pesos_core::routing_prefix(k, ROUTING_DELIMITER) == prefix);
        if !has_pending {
            migration.settled_groups.lock().insert(prefix.to_string());
        }
    }

    /// Per-partition load (resident objects + request counters) under
    /// `table` — the accounting [`ControllerCluster::add_controller`] and
    /// [`ControllerCluster::remove_controller`] rebalance by, served per
    /// partition by [`ControllerCluster::telemetry_snapshot`].
    pub(super) fn loads_of(&self, table: &PartitionTable) -> Vec<PartitionLoad> {
        table
            .partitions()
            .map(|p| PartitionLoad {
                resident_objects: p.controller.store().resident_object_count(),
                requests: p.controller.request_load().windowed(),
            })
            .collect()
    }

    /// Restarts the load window of every controller in `table`, so the
    /// next rebalance decision weighs only traffic served after this
    /// topology change. Called under the rebalance lock right after a
    /// table swap.
    pub(super) fn reset_request_baseline(&self, table: &PartitionTable) {
        for partition in table.partitions() {
            partition.controller.request_load().reset_window();
        }
        // New topology, new hot window too: the split point this change
        // consumed was computed *before* this call, and the next one
        // should weigh traffic under the new table only — mirroring the
        // request-counter window above.
        self.telemetry.hot.reset_window();
    }

    /// The split target for a joining controller: the partition with the
    /// highest load weight (resident objects + served requests), tie-broken
    /// toward the widest hash range. Partitions whose range is a single
    /// hash cannot split and are skipped. Returns the index and its range.
    fn most_loaded_splittable(
        &self,
        table: &PartitionTable,
    ) -> Result<(usize, HashRange), PesosError> {
        self.loads_of(table)
            .iter()
            .zip(table.ranges())
            .enumerate()
            .filter(|(_, (_, range))| range.width() >= 2)
            .max_by_key(|(_, (load, range))| (load.weight(), range.width()))
            .map(|(i, (_, range))| (i, range))
            // Every partition owning a single hash would need 2^64 of them.
            .ok_or_else(|| PesosError::Backend("no partition left to split".into()))
    }

    /// The weighted split point for a partition owning `range`: the op-weighted
    /// median routing hash of the source's resident keys, so roughly half
    /// the partition's *demand* (not half the hash space) moves to the
    /// joiner. Each placement group weighs its resident keys plus the
    /// operations the hot-group counters recorded for it this window — a
    /// hot minority of groups pulls the split point toward itself, while a
    /// cold window (or telemetry off) degenerates to the plain resident-key
    /// median. Equal routing hashes — whole placement groups — always land
    /// on one side. Falls back to the range midpoint when the partition
    /// holds too few keys to weigh (or the median degenerates onto the
    /// range start).
    fn weighted_split_point(&self, range: HashRange, src: &Arc<PesosController>) -> u64 {
        let midpoint = range.start + ((range.end - range.start) / 2) + 1;
        let mut hashes: Vec<u64> = src
            .store()
            .resident_keys()
            .iter()
            .map(|key| pesos_core::routing_hash(key, ROUTING_DELIMITER))
            .filter(|hash| range.contains(*hash))
            .collect();
        if hashes.len() < 2 {
            return midpoint;
        }
        hashes.sort_unstable();
        // Aggregate runs of equal hash into placement groups, weighted by
        // resident keys plus windowed hot-group operations.
        let mut groups: Vec<(u64, u64)> = Vec::new();
        for hash in hashes {
            match groups.last_mut() {
                Some((h, w)) if *h == hash => *w += 1,
                _ => groups.push((hash, 1)),
            }
        }
        if self.clients.telemetry_enabled() {
            for (hash, weight) in groups.iter_mut() {
                *weight = weight.saturating_add(self.telemetry.hot.ops_for(*hash));
            }
        }
        // Upper weighted median: the first group past half the total
        // weight. With unit weights (cold window) this is exactly the old
        // resident-key median `hashes[len / 2]`.
        let total: u64 = groups.iter().map(|(_, w)| *w).sum();
        let mut cumulative = 0u64;
        let mut candidate = None;
        for (hash, weight) in &groups {
            cumulative += *weight;
            if cumulative.saturating_mul(2) > total {
                candidate = Some(*hash);
                break;
            }
        }
        match candidate {
            Some(c) if c > range.start => c,
            _ => midpoint,
        }
    }

    /// Adds a controller built from the cluster's configuration template,
    /// splitting the most loaded partition's hash range at a load-weighted
    /// split point (resident objects + windowed requests). Returns
    /// the new partition count once the moved range is fully drained;
    /// concurrent traffic keeps serving throughout (requests into the
    /// moving range demand-pull their keys).
    ///
    /// On a drain error the new topology stays installed and the migration
    /// record stays active, so every un-moved key remains reachable
    /// through the demand-pull path; the returned error reports the drain
    /// fault (typically an offline drive). Retry via
    /// [`ControllerCluster::settle_pending_migrations`] — or the next
    /// topology change, which re-drives pending drains before touching
    /// the table.
    pub fn add_controller(&self) -> Result<usize, PesosError> {
        self.add_controller_with(self.template.clone())
    }

    /// Like [`ControllerCluster::add_controller`] with an explicit
    /// controller configuration.
    pub fn add_controller_with(&self, config: ControllerConfig) -> Result<usize, PesosError> {
        let _topology = self.rebalance.lock();
        // A topology change must never stack onto an unsettled migration:
        // the new drain would list only its own source, so keys still
        // sitting at the older migration's source would be stranded on an
        // off-table controller once the newer record retires. Re-drive
        // pending drains first; if the fault persists, refuse the change.
        self.settle_pending_or_refuse("add a controller")?;
        // The split source and point: the rebalance lock keeps the table
        // stable, so the most-loaded partition and the weighted split
        // point computed here are exactly what the swap below installs.
        // (Loads keep moving under concurrent traffic; that only shifts
        // balance quality, never correctness.)
        let (target, src, split_start) = {
            let routing = self.routing.read();
            let (target, range) = self.most_loaded_splittable(&routing.table)?;
            let src = routing.table.partition_at(target)?.clone();
            let split_start = self.weighted_split_point(range, &src.controller);
            (target, src, split_start)
        };
        // The joiner serves the cluster's clients, and gets its own backups
        // before it can accept traffic, so every write it acknowledges is
        // covered by its log from the first request.
        let controller = Arc::new(PesosController::with_pool(
            config.clone(),
            &self.pool,
            &self.clients,
        )?);
        let joiner = Partition {
            start: split_start,
            log: Self::spawn_log(&controller, &config, self.backups_per_partition, &self.pool)?,
            controller,
        };
        // Copy the installed policies before any traffic can route to the
        // new partition. A joiner that never enters the table stops its
        // log, whose shippers would otherwise outlive the cluster.
        let migration = self
            .copy_policies_to(&joiner)
            .and_then(|()| {
                self.install_migration(&src, |table| {
                    let (table, moved) = table.split_at(target, joiner.clone())?;
                    Ok((table, moved, target + 1))
                })
            })
            .inspect_err(|_| joiner.stop_log())?;
        // Second pass: a put_policy that raced the first iterated the old
        // table (without the joiner) but finished before the quiesce with
        // its id recorded; copying again here is idempotent and closes
        // that gap.
        self.copy_policies_to(&joiner)?;
        self.settle_migration(&migration)?;
        Ok(self.partition_count())
    }

    /// Removes the controller owning partition `index`, merging its hash
    /// range (and draining its keys) into the *lighter* of its two
    /// neighbouring partitions (by load weight; partition 0 and the last
    /// partition have only one neighbour). The removed
    /// controller keeps running until its last in-flight request and the
    /// drain complete, then drops out of the table. On a drain error the
    /// merged topology stays installed with the migration record active
    /// (see [`ControllerCluster::add_controller`]).
    pub fn remove_controller(&self, index: usize) -> Result<(), PesosError> {
        let _topology = self.rebalance.lock();
        // Validate first: a doomed removal should not spend a settle (and
        // the table cannot change under the rebalance lock, so checking
        // before the settle is sound — settling never alters the table).
        {
            let routing = self.routing.read();
            if routing.table.len() <= 1 {
                return Err(PesosError::BadRequest(
                    "cannot remove the last controller: a 1-controller cluster has no \
                     neighbour partition to absorb its hash range"
                        .into(),
                ));
            }
            routing.table.partition_at(index)?;
        }
        // Settle any migration an earlier topology change left unsettled
        // (see add_controller_with); removing a pending migration's
        // destination would otherwise strand its un-moved keys off-table.
        // A settle that still fails after its retries refuses the removal
        // with a typed error instead of surfacing the raw drain fault.
        self.settle_pending_or_refuse("remove a controller")?;
        // Choose the neighbour (the rebalance lock keeps the table stable,
        // so the choice cannot go stale): the lighter one, the lower on a
        // tie; a neighbour the table does not have weighs the maximum and
        // is never chosen over the one it does have.
        let (src, neighbour) = {
            let routing = self.routing.read();
            let loads = self.loads_of(&routing.table);
            let weight = |i: usize| loads.get(i).map_or(u64::MAX, PartitionLoad::weight);
            let neighbour = match index.checked_sub(1) {
                Some(below) if weight(below) <= weight(index + 1) => below,
                _ => index + 1,
            };
            (routing.table.partition_at(index)?.clone(), neighbour)
        };
        let migration = self.install_migration(&src, |table| table.merge_into(index, neighbour))?;
        self.settle_migration(&migration)
    }

    /// The routing-swap half of every topology change: quiesce, flush the
    /// source, install the new table together with the migration record,
    /// restart the load window. `retable` builds the new table from the
    /// current one and names the moved hash range and the partition of the
    /// new table that takes it over from `src`.
    fn install_migration(
        &self,
        src: &Partition,
        retable: impl FnOnce(&PartitionTable) -> Result<(PartitionTable, HashRange, usize), PesosError>,
    ) -> Result<Arc<Migration>, PesosError> {
        // Pre-flush the source's scheduled asynchronous writes outside the
        // gate so the race-closing flush under it (below) is short.
        src.controller.drain_async();
        // Quiesce: holding the gate's write side means no operation is
        // in flight across the swap — every request either completed
        // under the old routing state or starts under the new one
        // (table + migration record together), so a demand pull can
        // never race a write still executing against the old owner.
        let _quiesced = self.ops_gate.write();
        // Acknowledged put_asyncs execute as the source's host-pool calls
        // *outside* the gate; flush them before the swap makes
        // demand pulls possible, or a pull could export stale state,
        // move it, and let the late write recreate the key at a source
        // the router no longer consults — losing a write already
        // reported Completed. No new async work can be accepted while
        // the write side is held, and after the swap the moved range's
        // writes go to the destination, so this flush is complete.
        src.controller.drain_async();
        let mut routing = self.routing.write();
        let (table, moved, absorbed_by) = retable(&routing.table)?;
        let dst = table.partition_at(absorbed_by)?.clone();
        let migration = Arc::new(Migration {
            range: moved,
            src: src.clone(),
            dst,
            keys_moved: AtomicU64::new(0),
            moved_pending_delete: Mutex::with_rank(lock_order::MIGRATION_STATE, BTreeSet::new()),
            settled_groups: Mutex::with_rank(lock_order::MIGRATION_STATE, BTreeSet::new()),
        });
        let mut migrations = routing.migrations.clone();
        migrations.push(Arc::clone(&migration));
        // New topology, new load window: the next rebalance decision
        // weighs traffic from here on, not lifetime history.
        self.reset_request_baseline(&table);
        *routing = Arc::new(RoutingState { table, migrations });
        Ok(migration)
    }

    /// Re-drives the drain of any migration an earlier topology change
    /// left unsettled after a drain error (typically an offline drive) —
    /// the operator retry path. The affected keys stay reachable through
    /// demand pulls in the meantime; a successful settle retires the
    /// record and ends the per-request pull overhead.
    pub fn settle_pending_migrations(&self) -> Result<(), PesosError> {
        let _topology = self.rebalance.lock();
        self.settle_pending_locked()
    }

    /// Settles every installed migration record, oldest first (an older
    /// migration's keys may still need to traverse a newer migration's
    /// range, in install order). Each record's drain gets the capped
    /// exponential retry schedule — a transient drive fault no longer
    /// fails the whole settle on its first appearance. Caller must hold
    /// the rebalance lock.
    fn settle_pending_locked(&self) -> Result<(), PesosError> {
        loop {
            let Some(migration) = self.routing.read().migrations.first().cloned() else {
                return Ok(());
            };
            self.with_retries(
                &self.retries.settle_retries,
                |_| true,
                || self.settle_migration(&migration),
            )?;
        }
    }

    /// [`ControllerCluster::settle_pending_locked`], converted into the
    /// typed refusal topology changes give the operator when a pending
    /// migration cannot be settled first.
    fn settle_pending_or_refuse(&self, action: &str) -> Result<(), PesosError> {
        self.settle_pending_locked().map_err(|e| {
            PesosError::MigrationPending(format!(
                "refusing to {action}: a pending migration must settle first \
                 and its drain keeps failing: {e}"
            ))
        })
    }

    /// The post-swap half of a topology change: drain the moved range and
    /// retire the migration record. The source's scheduled asynchronous
    /// writes were already flushed under the ops gate before the swap, so
    /// the drain's drive-authoritative key listing observes every
    /// acknowledged write.
    ///
    /// The record is retired only after a *complete* drain. On error it
    /// stays installed, so the un-moved keys remain reachable through the
    /// demand-pull path — the safe direction; retiring it early would
    /// strand them at a source the router no longer consults.
    ///
    /// Retiring a removal's record also stops the removed partition's log,
    /// whichever settle retires it: that partition left the table at the
    /// swap and is now fully drained, and its log shipped every drain
    /// delete, so its backups hold nothing of the moved range.
    fn settle_migration(&self, migration: &Arc<Migration>) -> Result<(), PesosError> {
        self.drain_migration(migration)?;
        let mut routing = self.routing.write();
        let old = routing.clone();
        let migrations = old
            .migrations
            .iter()
            .filter(|m| !Arc::ptr_eq(m, migration))
            .cloned()
            .collect();
        *routing = Arc::new(RoutingState {
            table: old.table.clone(),
            migrations,
        });
        drop(routing);
        let src = &migration.src;
        let stays = |p: &Partition| Arc::ptr_eq(&p.controller, &src.controller);
        if !old.table.partitions().any(stays) {
            src.stop_log();
        }
        Ok(())
    }

    /// Moves every key of the migration's range from source to
    /// destination. The source receives no new traffic for the range once
    /// the barrier has passed, so one authoritative pass over the source's
    /// drive-resident keys suffices; each key moves under the same striped
    /// lock the demand-pull path takes.
    ///
    /// Each listed key is hashed exactly once — the full-key hash and (for
    /// suffixed keys) the routing-prefix hash — and both the range check
    /// and the pull reuse that work; `tests/digest_budget.rs` in
    /// `pesos-core` pins the drain's per-key digest budget. The pulls run
    /// as one joined call on the source store's interface, of
    /// `min(`[`ClusterConfig::drain_concurrency`]`, groups)` lanes, each of
    /// which takes placement groups from a shared cursor until none is
    /// left: lane 0 on the calling thread, the others on the cluster's host
    /// pool, or on the caller too when no slot is free, so the drain never
    /// waits on a queued call of the pool its pulls submit to
    /// (`pesos_sgx::asyscall`, "One host pool"). Each in-flight pull still
    /// serializes with demand pulls of the same key through the striped
    /// migration locks, so every drain invariant — export under the
    /// source's key lock, delete only after a successful import,
    /// `moved_pending_delete` settlement — is exactly a demand pull's.
    ///
    /// The drain checkpoints group by group into the migration's
    /// settled-group memo: a group whose members all pulled cleanly (and
    /// left no pending delete) is recorded, so a *retried* drain after a
    /// mid-drain fault re-drives only the groups the fault actually
    /// interrupted — a settled group's keys are gone from the source, so
    /// the fresh listing simply no longer produces work for it. The memo
    /// never overrides the listing: `delete_object` reports a faulting
    /// replica (the pull then fails and parks the key as pending-delete),
    /// but a replica that was *offline* for the delete keeps its copy
    /// unnoticed, so a "cleanly pulled" key can still leave a
    /// drive-resident source copy that read-throughs resurrect, and the
    /// drive-authoritative listing is the only witness. Every listed key
    /// is therefore pulled regardless of the memo, and memo entries the
    /// listing contradicts are evicted. Settled groups the listing
    /// confirms gone are tallied on `/stats/migrations/drain_group_skips`.
    fn drain_migration(&self, migration: &Arc<Migration>) -> Result<(), PesosError> {
        // One authoritative listing, hashed once per key. The routing hash
        // decides range membership (ranges partition the placement-group
        // space); the full-key hash travels with the key into the pull so
        // no layer re-digests it.
        let mut keys: Vec<(String, u64)> = Vec::new();
        for key in migration.src.controller.store().list_keys()? {
            let hashed = HashedKey::new(&key);
            if migration.range.contains(Self::routing_hash(&hashed)) {
                let hash = hashed.hash();
                keys.push((key, hash));
            }
        }
        // Keys whose move completed but whose source-side delete faulted
        // may no longer surface in list_keys (a partial delete can drop
        // the drive-level metadata before erroring), so drive them to
        // completion explicitly — the record must never retire with a
        // stale source copy still resident.
        {
            // Snapshot the pending names quickly and release the lock —
            // every demand pull serializes through it — then dedup and
            // hash outside, with a set lookup instead of a per-entry scan
            // of the (possibly large) listing.
            let pending: Vec<String> = migration
                .moved_pending_delete
                .lock()
                .iter()
                .cloned()
                .collect();
            if !pending.is_empty() {
                let extra: Vec<String> = {
                    let listed: std::collections::HashSet<&str> =
                        keys.iter().map(|(k, _)| k.as_str()).collect();
                    pending
                        .into_iter()
                        .filter(|p| !listed.contains(p.as_str()))
                        .collect()
                };
                keys.extend(extra.into_iter().map(|p| {
                    let hash = HashedKey::new(&p).hash();
                    (p, hash)
                }));
            }
        }

        // Bucket the work into placement groups.
        let mut groups: BTreeMap<String, Vec<(String, u64)>> = BTreeMap::new();
        for (key, hash) in keys {
            let prefix = pesos_core::routing_prefix(&key, ROUTING_DELIMITER);
            groups
                .entry(prefix.to_string())
                .or_default()
                .push((key, hash));
        }
        // Cross-check the settled-group memo against the listing. A memo
        // entry whose group still surfaces in the listing is optimistic —
        // a replica the delete never reached kept a drive-resident copy —
        // so evict it and let the pull below finish the job. The entries
        // the listing confirms are the drain's checkpoint payoff: groups a
        // retry does not have to re-drive.
        {
            let mut settled = migration.settled_groups.lock();
            settled.retain(|group| !groups.contains_key(group));
            self.telemetry.drain_group_skips.add(settled.len() as u64);
        }

        // `drain_concurrency` lanes at most, each pulling group after group
        // from the shared cursor. Every lane runs to the end of the list
        // even after an error (a pull is idempotent and identical to a
        // demand pull), and the first error is reported so the migration
        // record stays active for a retry — with every *completed* group
        // checkpointed, so the retry re-drives only the interrupted ones.
        let groups: Arc<[_]> = groups.into_iter().collect();
        let cursor = Arc::new(AtomicUsize::new(0));
        let lanes = self.drain_concurrency.min(groups.len());
        let set = migration
            .src
            .controller
            .store()
            .asyscall()
            .submit_joined((0..lanes).map(|_| {
                let (groups, cursor) = (Arc::clone(&groups), Arc::clone(&cursor));
                let migration = Arc::clone(migration);
                let locks = Arc::clone(&self.migration_locks);
                move || -> Option<PesosError> {
                    let mut first_error = None;
                    while let Some((prefix, members)) =
                        groups.get(cursor.fetch_add(1, Ordering::Relaxed))
                    {
                        let pulled = members.iter().try_for_each(|(key, hash)| {
                            Self::pull_key(&locks, &migration, &HashedKey::from_parts(key, *hash))
                        });
                        match pulled {
                            Ok(()) => Self::checkpoint_group(&migration, prefix),
                            Err(e) => {
                                first_error.get_or_insert(e);
                            }
                        }
                    }
                    first_error
                }
            }))
            .map_err(|e| PesosError::Backend(e.to_string()))?;
        let mut first_error = None;
        for result in set {
            match result {
                Ok(None) => {}
                Ok(Some(e)) => {
                    first_error.get_or_insert(e);
                }
                Err(e) => {
                    first_error.get_or_insert(PesosError::Backend(e.to_string()));
                }
            }
        }
        match first_error {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}
