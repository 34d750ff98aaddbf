//! Request routing (ops gate and routing state, lock ranks 20–36): every
//! routed operation takes the gate's read side, one routing snapshot and
//! its owner partition — controller and log together — so it runs
//! entirely under one topology and logs to its owner's log; an operation that
//! finds its partition unavailable retries with capped backoff, releasing
//! the gate across each pause.

use std::sync::Arc;
use std::time::Duration;

use pesos_core::{AsyncResult, HashedKey, PesosError};
use pesos_crypto::Certificate;
use pesos_policy::PolicyId;
use pesos_telemetry::{OpKind, OpTimer, WindowedCounter};
use rand::Rng;

use super::{ControllerCluster, RoutingState};
use crate::router::Partition;

/// Placement-group delimiter for cluster routing: a key routes by the hash
/// of its prefix up to the *first* occurrence of this character (full key
/// when the key contains none or starts with it). `'.'` makes `<key>`,
/// `<key>.log` and `<key>.v2` co-route, so object-referencing policies
/// (`objSays` over `<key>.log`, MAL-style) evaluate against one partition's
/// store on any topology. Routing-only: drive placement, caches and lock
/// shards keep using the full-key hash.
pub(super) const ROUTING_DELIMITER: Option<char> = Some('.');

/// Maximum attempts for retryable operations: requests that hit a failed
/// controller (retried against the promoted backup), demand pulls, and
/// migration settles.
pub(super) const RETRY_ATTEMPTS: u32 = 4;
/// First backoff of the capped exponential retry schedule.
const RETRY_BASE_MICROS: u64 = 1_000;
/// Upper bound on any single retry backoff.
const RETRY_CAP_MICROS: u64 = 50_000;
/// Seed of the jitter generator the retry schedule draws from
/// (deterministic via the workspace's seeded rand shim).
pub(super) const RETRY_JITTER_SEED: u64 = 0x5EED;

impl ControllerCluster {
    /// The placement-group routing hash of `key` under
    /// [`ROUTING_DELIMITER`] (cached on the `HashedKey`, so repeated
    /// consultations on one request cost nothing).
    pub(super) fn routing_hash(key: &HashedKey<'_>) -> u64 {
        key.routing_hash(ROUTING_DELIMITER)
    }

    /// Records a keyed operation against its placement group's hot
    /// counter and starts the end-to-end latency timer — the cluster's
    /// per-request telemetry, all atomics. The group counter feeds the
    /// hot-key-weighted split point and `/stats/groups/hot`; the timer
    /// records into the cluster histogram (routing + pulls + retries
    /// included) when the returned guard drops.
    fn observe(&self, kind: OpKind, key: &HashedKey<'_>) -> OpTimer<'_> {
        let enabled = self.clients.telemetry_enabled();
        if enabled {
            self.telemetry.hot.record(
                Self::routing_hash(key),
                pesos_core::routing_prefix(key.key(), ROUTING_DELIMITER),
            );
        }
        self.telemetry.ops.timer(kind, enabled)
    }

    /// Routes `key` to its owning partition under a consistent routing
    /// snapshot, demand-pulling the key (and its placement-group siblings)
    /// out of an in-flight migration's source first if necessary. The
    /// closure also receives the snapshot, for callers that need more of
    /// the topology than the owner (e.g. `ensure_policy`'s peer scan).
    ///
    /// An operation that hits an unavailable controller (its partition
    /// failed) is retried with capped exponential backoff: the ops-gate
    /// read and routing snapshot are re-acquired per attempt, so once a
    /// concurrent [`ControllerCluster::fail_controller`] promotes a backup
    /// and swaps the table, the retry lands on the new owner instead of
    /// erroring out. The gate is *released* across the backoff sleep —
    /// that release is what lets the failover's write acquire proceed.
    fn with_owner<R>(
        &self,
        key: &HashedKey<'_>,
        mut f: impl FnMut(&RoutingState, &Partition) -> Result<R, PesosError>,
    ) -> Result<R, PesosError> {
        self.with_retries(
            &self.retries.request_retries,
            |e| matches!(e, PesosError::Unavailable(_)),
            || {
                let _gate = self.ops_gate.read();
                let routing = self.routing.read().clone();
                self.pull_if_migrating(&routing, key)?;
                f(&routing, routing.table.route(Self::routing_hash(key)))
            },
        )
    }

    /// Runs `attempt` up to [`RETRY_ATTEMPTS`] times: an error `retryable`
    /// accepts is counted on `retried` and followed by one
    /// capped-exponential backoff pause with seeded jitter — the pause
    /// after attempt `n` is a uniform draw from `[d/2, d]` where
    /// `d = RETRY_BASE_MICROS·2ⁿ` capped at [`RETRY_CAP_MICROS`]. The last
    /// attempt's result is returned as is. Whatever `attempt` acquires it
    /// releases before the pause.
    pub(super) fn with_retries<R>(
        &self,
        retried: &WindowedCounter,
        retryable: impl Fn(&PesosError) -> bool,
        mut attempt: impl FnMut() -> Result<R, PesosError>,
    ) -> Result<R, PesosError> {
        for n in 0..RETRY_ATTEMPTS - 1 {
            match attempt() {
                Err(e) if retryable(&e) => {}
                done => return done,
            }
            retried.add(1);
            let exp = RETRY_BASE_MICROS.saturating_mul(1u64.checked_shl(n).unwrap_or(u64::MAX));
            let ceiling = exp.min(RETRY_CAP_MICROS);
            let jitter = self.retry_rng.lock().gen_range(ceiling / 2..ceiling + 1);
            std::thread::sleep(Duration::from_micros(jitter));
        }
        attempt()
    }

    /// Makes sure `owner` can resolve `policy_id`, copying the policy
    /// from any other partition if needed (policies are broadcast on
    /// install, but a controller that joined later only receives them
    /// on demand).
    fn ensure_policy(
        &self,
        routing: &RoutingState,
        owner: &Partition,
        policy_id: &PolicyId,
    ) -> Result<(), PesosError> {
        if owner.controller.store().load_policy(policy_id).is_ok() {
            return Ok(());
        }
        if self.copy_policy_from_peers(routing, owner, policy_id)? {
            Ok(())
        } else {
            Err(PesosError::PolicyNotFound(policy_id.to_hex()))
        }
    }

    /// Copies `policy_id` onto `to` from whichever other partition holds
    /// it (`to`'s store logs the write); returns whether a copy was found.
    fn copy_policy_from_peers(
        &self,
        routing: &RoutingState,
        to: &Partition,
        policy_id: &PolicyId,
    ) -> Result<bool, PesosError> {
        for partition in routing.table.partitions() {
            if Arc::ptr_eq(&partition.controller, &to.controller) {
                continue;
            }
            if let Ok(policy) = partition.controller.store().load_policy(policy_id) {
                to.controller.store().store_compiled_policy(policy)?;
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Copies every cluster-installed policy onto `to`, loading each from
    /// whichever partition still holds it; idempotent. Used when a
    /// partition is about to take over a range (a split's new half or a
    /// promoted backup): policies are broadcast at install time, so a
    /// joiner must catch up on the ones installed before it existed —
    /// otherwise removing the last original holder would lose them.
    pub(super) fn copy_policies_to(&self, to: &Partition) -> Result<(), PesosError> {
        let routing = self.routing.read().clone();
        // Snapshot the id set rather than iterating under the registry
        // mutex: each copy runs policy loads and replicated stores (drive
        // I/O), and no lock guard may live across the submit path.
        let ids: Vec<PolicyId> = self.policies.lock().iter().copied().collect();
        for id in &ids {
            if to.controller.store().load_policy(id).is_ok() {
                continue;
            }
            self.copy_policy_from_peers(&routing, to, id)?;
        }
        Ok(())
    }

    /// Installs a policy on every controller and returns its identifier
    /// (compilation is deterministic, so every instance derives the same
    /// id). Each partition's store logs the compiled body it writes: a
    /// promoted backup evaluates policies with no surviving peer to copy
    /// them from.
    pub fn put_policy(&self, client_id: &str, source: &str) -> Result<PolicyId, PesosError> {
        let _timer = self
            .telemetry
            .ops
            .timer(OpKind::PutPolicy, self.clients.telemetry_enabled());
        let _gate = self.ops_gate.read();
        let routing = self.routing.read().clone();
        let mut id = None;
        for partition in routing.table.partitions() {
            id = Some(partition.controller.put_policy(client_id, source)?);
        }
        let id = id.ok_or_else(|| PesosError::Backend("cluster has no partitions".into()))?;
        self.policies.lock().insert(id);
        Ok(id)
    }

    /// Stores an object on its owning partition. The value is borrowed all
    /// the way into the owner's store, whose drive batch — the sealed
    /// object, shared — is what the partition's log ships.
    pub fn put(
        &self,
        client_id: &str,
        key: &str,
        value: impl AsRef<[u8]>,
        policy_id: Option<PolicyId>,
        expected_version: Option<u64>,
        certificates: &[Certificate],
    ) -> Result<u64, PesosError> {
        let key = HashedKey::new(key);
        let value = value.as_ref();
        let _timer = self.observe(OpKind::Put, &key);
        self.with_owner(&key, |routing, owner| {
            if let Some(id) = &policy_id {
                self.ensure_policy(routing, owner, id)?;
            }
            owner.controller.put(
                client_id,
                &key,
                value,
                policy_id,
                expected_version,
                certificates,
            )
        })
    }

    /// Stores an object asynchronously on its owning partition and returns
    /// the owner's operation id. Every controller of the cluster files its
    /// results in the clients' one buffer, so the id polls through
    /// [`ControllerCluster::poll_result`] after any later topology change,
    /// and nothing of the owner outlives it there.
    /// The write is the owner's put, run later and logged when it completes:
    /// the id acknowledges a queued write, and one the owner had not run
    /// when it failed polls `Failed`.
    pub fn put_async(
        &self,
        client_id: &str,
        key: &str,
        value: Vec<u8>,
        policy_id: Option<PolicyId>,
        expected_version: Option<u64>,
        certificates: &[Certificate],
    ) -> Result<u64, PesosError> {
        let key = HashedKey::new(key);
        // Times acceptance (the synchronous half of the async put), like
        // the controller's own put_async histogram.
        let _timer = self.observe(OpKind::PutAsync, &key);
        // Shared, not copied: the accepting owner's deferred write keeps
        // one reference, and a retried attempt offers the same buffer again.
        let value = Arc::new(value);
        self.with_owner(&key, |routing, owner| {
            if let Some(id) = &policy_id {
                self.ensure_policy(routing, owner, id)?;
            }
            owner.controller.put_async(
                client_id,
                &key,
                Arc::clone(&value),
                policy_id,
                expected_version,
                certificates,
            )
        })
    }

    /// Polls the result of an asynchronous operation.
    pub fn poll_result(&self, client_id: &str, operation_id: u64) -> Option<AsyncResult> {
        self.clients.results.poll(client_id, operation_id)
    }

    /// Retrieves the latest version of an object from its owning partition.
    pub fn get(
        &self,
        client_id: &str,
        key: &str,
        certificates: &[Certificate],
    ) -> Result<(Arc<Vec<u8>>, u64), PesosError> {
        let key = HashedKey::new(key);
        let _timer = self.observe(OpKind::Get, &key);
        self.with_owner(&key, |_, owner| {
            owner.controller.get(client_id, &key, certificates)
        })
    }

    /// Retrieves a specific stored version from the owning partition.
    pub fn get_version(
        &self,
        client_id: &str,
        key: &str,
        version: u64,
        certificates: &[Certificate],
    ) -> Result<Vec<u8>, PesosError> {
        let key = HashedKey::new(key);
        let _timer = self.observe(OpKind::GetVersion, &key);
        self.with_owner(&key, |_, owner| {
            owner
                .controller
                .get_version(client_id, &key, version, certificates)
        })
    }

    /// Deletes an object from its owning partition.
    pub fn delete(
        &self,
        client_id: &str,
        key: &str,
        certificates: &[Certificate],
    ) -> Result<(), PesosError> {
        let key = HashedKey::new(key);
        let _timer = self.observe(OpKind::Delete, &key);
        self.with_owner(&key, |_, owner| {
            owner.controller.delete(client_id, &key, certificates)
        })
    }

    /// Attaches an existing policy to an object on its owning partition.
    pub fn attach_policy(
        &self,
        client_id: &str,
        key: &str,
        policy_id: PolicyId,
        certificates: &[Certificate],
    ) -> Result<(), PesosError> {
        let key = HashedKey::new(key);
        let _timer = self.observe(OpKind::AttachPolicy, &key);
        self.with_owner(&key, |routing, owner| {
            self.ensure_policy(routing, owner, &policy_id)?;
            owner
                .controller
                .attach_policy(client_id, &key, policy_id, certificates)
        })
    }

    /// Parks until every controller has run the `put_async` bodies it
    /// handed to the host pool (see [`pesos_core::PesosController::drain_async`]).
    pub fn drain_async(&self) {
        for partition in self.routing.read().table.partitions() {
            partition.controller.drain_async();
        }
    }
}
