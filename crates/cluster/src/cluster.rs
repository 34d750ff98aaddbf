//! The multi-controller cluster: routing, cross-partition transactions and
//! online rebalancing.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{lock_order, Mutex, RwLock};
use pesos_core::sharded::{Sharded, ShardedFifoMap};
use pesos_core::{
    parse_policy_id, AsyncResult, ClientRequest, ClientResponse, ControllerConfig, HashedKey,
    PesosController, PesosError, RequestEndpoint, TxOutcome, TxWrite,
};
use pesos_crypto::Certificate;
use pesos_kinetic::Payload;
use pesos_policy::PolicyId;
use pesos_telemetry::{HotKeyTracker, OpHistograms, OpKind, OpTimer, WindowedCounter};
use pesos_wire::{RestMethod, RestRequest, RestResponse, RestStatus};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::replication::{LogRecord, Promotion, ReplicaSet};
use crate::router::{HashRange, PartitionTable};
use crate::twopc::ClusterTxManager;

pub mod stats;

/// Key of the per-partition replication log HMAC. Log frames never leave
/// the process (each replica set ships only to its own backups), so one
/// shared secret is enough to catch corruption and cross-channel mixups.
const REPLICATION_SECRET: &[u8] = b"pesos-cluster-replication-log";

/// Bounded-lag backpressure for replication: when the slowest backup falls
/// more than this many log records behind, acknowledgements to new writes
/// on that partition block until it catches up (or the stall cap expires —
/// see `replication::APPEND_STALL_CAP`).
const REPLICATION_MAX_LAG: u64 = 256;

/// Placement-group delimiter for cluster routing: a key routes by the hash
/// of its prefix up to the *first* occurrence of this character (full key
/// when the key contains none or starts with it). `'.'` makes `<key>`,
/// `<key>.log` and `<key>.v2` co-route, so object-referencing policies
/// (`objSays` over `<key>.log`, MAL-style) evaluate against one partition's
/// store on any topology. Routing-only: drive placement, caches and lock
/// shards keep using the full-key hash.
const ROUTING_DELIMITER: Option<char> = Some('.');

/// Maximum attempts for retryable operations: requests that hit a failed
/// controller (retried against the promoted backup), demand pulls, and
/// migration settles.
const RETRY_ATTEMPTS: u32 = 4;
/// First backoff of the capped exponential retry schedule.
const RETRY_BASE_MICROS: u64 = 1_000;
/// Upper bound on any single retry backoff.
const RETRY_CAP_MICROS: u64 = 50_000;
/// Seed of the jitter generator the retry schedule draws from
/// (deterministic via the workspace's seeded rand shim).
const RETRY_JITTER_SEED: u64 = 0x5EED;

/// Static configuration of a controller cluster.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of controller instances at bootstrap.
    pub controllers: usize,
    /// Per-controller configuration template: every instance bootstraps its
    /// own enclave, drives and caches from a copy of this (one logical
    /// enclave per controller, so SGX costs are accounted per partition).
    pub controller: ControllerConfig,
    /// Width of the migration drain: how many placement groups move in
    /// flight at once when a topology change drains a hash range (the
    /// x-axis of `reproduce fig12`).
    pub drain_concurrency: usize,
    /// Backup controllers per partition. `0` (the default) disables
    /// replication entirely: no backup instances, no op logs, and
    /// [`ControllerCluster::fail_controller`] refuses — exactly the
    /// pre-replication behavior. With `n > 0` every partition primary
    /// streams its op log to `n` backups and can fail over onto the
    /// freshest one.
    pub backups_per_partition: usize,
}

impl ClusterConfig {
    /// Default drain width and no backups around an explicit controller
    /// template.
    pub fn with_controller(controllers: usize, controller: ControllerConfig) -> Self {
        ClusterConfig {
            controllers,
            controller,
            drain_concurrency: 4,
            backups_per_partition: 0,
        }
    }

    /// `controllers` instances in the paper's "Native Sim" configuration
    /// with `drives_per_controller` drives each.
    pub fn native_simulator(controllers: usize, drives_per_controller: usize) -> Self {
        Self::with_controller(
            controllers,
            ControllerConfig::native_simulator(drives_per_controller),
        )
    }

    /// `controllers` instances in the paper's "Pesos Sim" configuration.
    pub fn sgx_simulator(controllers: usize, drives_per_controller: usize) -> Self {
        Self::with_controller(
            controllers,
            ControllerConfig::sgx_simulator(drives_per_controller),
        )
    }

    /// `controllers` instances in the paper's "Pesos Disk" configuration.
    pub fn sgx_disk(controllers: usize, drives_per_controller: usize) -> Self {
        Self::with_controller(
            controllers,
            ControllerConfig::sgx_disk(drives_per_controller),
        )
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), PesosError> {
        if self.controllers == 0 {
            return Err(PesosError::BadRequest(
                "cluster needs at least one controller".into(),
            ));
        }
        if self.drain_concurrency == 0 {
            return Err(PesosError::BadRequest(
                "drain_concurrency must be at least 1".into(),
            ));
        }
        self.controller.validate()
    }
}

/// An in-progress hash-range migration between two controllers.
struct Migration {
    range: HashRange,
    src: Arc<PesosController>,
    dst: Arc<PesosController>,
    /// Objects this migration has imported at the destination (drain and
    /// demand pulls combined) — the `/stats` drain-progress gauge.
    keys_moved: AtomicU64,
    /// Keys whose object reached the destination but whose source copy
    /// could not be deleted yet (the delete errored). Tracked so a later
    /// pull retries *only* the delete: re-exporting the stale source copy
    /// would resurrect the object if the client deleted it at the
    /// destination in the meantime.
    moved_pending_delete: Mutex<BTreeSet<String>>,
    /// Routing prefixes whose whole placement group is known to have left
    /// the source (every member pulled or never present, no pending
    /// deletes). Sound to memoize because the source receives no new
    /// writes for the moved range after the routing swap, so a settled
    /// group can never become unsettled; the memo turns repeat requests
    /// into an in-memory lookup instead of a per-request source prefix
    /// scan.
    settled_groups: Mutex<BTreeSet<String>>,
    /// The source partition's replication log, when replication is on:
    /// a pull's source-side delete is appended so the source's backups
    /// drop the moved object too.
    src_set: Option<Arc<ReplicaSet>>,
    /// The destination partition's replication log: a pull's import (and
    /// any policy copied alongside it) is appended so the destination's
    /// backups receive the moved object.
    dst_set: Option<Arc<ReplicaSet>>,
}

/// One immutable snapshot of everything a request needs to route: the
/// partition table plus the set of in-flight migrations. Held behind one
/// `RwLock<Arc<…>>` so a request can never observe a table flip without the
/// matching migration record (the gap either way would lose keys).
struct RoutingState {
    table: PartitionTable,
    migrations: Vec<Arc<Migration>>,
}

/// The controller owning partition `index` of `table`, or the typed
/// refusal for an index the table does not have.
fn controller_at(
    table: &PartitionTable,
    index: usize,
) -> Result<&Arc<PesosController>, PesosError> {
    table.controller(index).ok_or_else(|| {
        PesosError::BadRequest(format!(
            "no partition {index} (cluster has {})",
            table.len()
        ))
    })
}

/// Bounded map from cluster-level async operation ids to the controller
/// that accepted the operation and its local id — the same bounded
/// dense-id retention pattern as the transaction-outcome map, so it shares
/// [`ShardedFifoMap`].
type AsyncOps = ShardedFifoMap<(Arc<PesosController>, u64)>;

/// Cluster-wide counters of the capped-exponential retry paths, read
/// through [`ControllerCluster::telemetry_snapshot`] and `/stats/retries`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// Demand pulls attempted (first tries included).
    pub demand_pull_attempts: u64,
    /// Demand pulls that needed at least one retry.
    pub demand_pull_retries: u64,
    /// Migration-settle attempts that were retried after a drain error.
    pub settle_retries: u64,
    /// Requests re-routed after hitting an unavailable controller.
    pub request_retries: u64,
}

/// Interior-mutable accumulator behind [`RetryStats`]. Windowed so
/// `/stats/reset` restarts the reported counts without losing the
/// lifetime totals.
#[derive(Default)]
struct RetryCounters {
    demand_pull_attempts: WindowedCounter,
    demand_pull_retries: WindowedCounter,
    settle_retries: WindowedCounter,
    request_retries: WindowedCounter,
}

impl RetryCounters {
    fn snapshot(&self) -> RetryStats {
        RetryStats {
            demand_pull_attempts: self.demand_pull_attempts.windowed(),
            demand_pull_retries: self.demand_pull_retries.windowed(),
            settle_retries: self.settle_retries.windowed(),
            request_retries: self.request_retries.windowed(),
        }
    }

    fn reset_window(&self) {
        self.demand_pull_attempts.reset_window();
        self.demand_pull_retries.reset_window();
        self.settle_retries.reset_window();
        self.request_retries.reset_window();
    }
}

/// Cluster-level telemetry: end-to-end per-operation latency histograms
/// (including routing, demand pulls and retries — the controller's own
/// histograms time only the owner's work), windowed hot-group counters
/// feeding the weighted split point and `/stats/groups/hot`, and drain
/// checkpoint gauges. Atomics only: recording on the request path takes
/// no lock.
struct ClusterTelemetry {
    /// Runtime off-switch, seeded from
    /// [`pesos_core::ControllerConfig::telemetry`] and flipped without a
    /// restart via [`ControllerCluster::set_telemetry_enabled`]; the
    /// overhead benchmark's "off" side.
    enabled: AtomicBool,
    ops: OpHistograms,
    hot: HotKeyTracker,
    /// Placement groups a drain did not have to re-drain because the
    /// migration's settled-group memo already proved them gone from the
    /// source (counted at the start of each drain pass).
    drain_group_skips: WindowedCounter,
}

impl ClusterTelemetry {
    fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }
}

/// Slots in the hot-group tracker. Per-group accounting, so this bounds
/// *distinct placement groups* observed per window, not keys; beyond it
/// new groups land in the overflow tally (`/stats/groups/overflowed`).
const HOT_GROUP_SLOTS: usize = 4096;

/// One partition's load, as the load-aware rebalancer sees it: resident
/// objects plus the requests served *since the last topology change*.
/// Topology changes split the heaviest partition (at a split point
/// weighted by where its resident keys actually hash) and merge a leaving
/// partition into its lighter neighbour. Windowed rather than lifetime
/// request counts, so a partition that was hot long ago does not keep
/// attracting splits forever (and a joiner starting at zero is compared
/// fairly against partitions that predate it).
struct PartitionLoad {
    /// Objects resident on the partition (in-memory metadata count).
    resident_objects: usize,
    /// Requests the partition's controller has served since the last
    /// topology change (lifetime count before the first one).
    requests: u64,
}

impl PartitionLoad {
    /// The scalar the rebalancer compares: resident population plus served
    /// requests. Both approximate demand; their sum prefers partitions that
    /// are large *or* hot, and a partition heavy on either axis attracts
    /// the next split.
    fn weight(&self) -> u64 {
        self.resident_objects as u64 + self.requests
    }
}

/// A cluster of controller instances partitioning the key space.
///
/// # Routing
///
/// Requests hash the object key once ([`HashedKey`]) and the cluster
/// routes by that same hash — the digest the single controller already
/// pays for placement is reused for partition selection, so the cluster
/// layer adds zero digests to the request path. Each controller is a
/// complete Pesos instance (own enclave, own drives, own caches); client
/// sessions are mirrored onto every controller so any partition can serve
/// any authenticated client.
///
/// # Cross-partition transactions
///
/// Cluster transactions buffer operations here and commit through a
/// two-phase protocol over the controllers' prepared-transaction hooks:
/// every participant *prepares* (VLL locks taken, all policy checks run,
/// reads executed) before any participant *commits* (writes applied), and
/// branches are prepared in ascending partition order so two coordinators
/// can never deadlock across partitions. One partition's policy rejection
/// therefore aborts the whole transaction with no partition having written
/// a byte. The merged outcome is filed on every participant under the
/// cluster transaction id (tagged with a high bit so it cannot collide
/// with local ids), which makes `check_results` work from any router.
/// A failure *during* phase two is a backend failure (validation already
/// passed everywhere) and can leave earlier branches committed — the same
/// partial-write caveat the single controller's commit loop has for
/// mid-loop drive failures.
///
/// # Online rebalancing
///
/// [`ControllerCluster::add_controller`] splits the most loaded
/// partition's range at a load-weighted point;
/// [`ControllerCluster::remove_controller`] merges a partition into its
/// lighter neighbour. Both install the new routing state (table + migration
/// record, atomically) while holding the ops gate's write side, so no
/// request straddles the swap; the source's scheduled asynchronous writes
/// are flushed under that same write hold, so an acknowledged `put_async`
/// can never land after a demand pull has already moved its key. The
/// moved range then drains one placement group per drain slot
/// ([`ClusterConfig::drain_concurrency`] in flight): each object is
/// exported from the source, imported at the destination and only then
/// deleted at the source (all under per-key write locks and a striped
/// migration lock), so a failed import can never lose an object;
/// concurrent requests to a not-yet-moved key pull it on demand through
/// the same striped locks. Traffic to every other range never blocks.
pub struct ControllerCluster {
    routing: RwLock<Arc<RoutingState>>,
    /// Reader side held by every operation across its routing snapshot;
    /// topology changes hold the writer side across the routing swap, so
    /// every operation runs entirely under one topology — none can write
    /// to a range's old owner while another demand-pulls it to the new.
    ops_gate: RwLock<()>,
    /// Serializes topology changes.
    rebalance: Mutex<()>,
    /// Striped per-key locks serializing demand pulls and the drain loop
    /// during a migration. Arc'd so drain bodies can carry the
    /// stripes into the scatter-gather asyscall closures.
    migration_locks: Arc<Sharded<Mutex<()>>>,
    /// Width of the drain (see [`ClusterConfig::drain_concurrency`]).
    drain_concurrency: usize,
    /// Per-controller request-counter snapshots taken at the last topology
    /// change; `loads_of` reports the delta, so rebalance decisions weigh
    /// *recent* traffic instead of lifetime history (matched by `Arc`
    /// identity; a controller absent from the baseline — i.e. before the
    /// first topology change — counts from zero).
    request_baseline: Mutex<Vec<(Arc<PesosController>, u64)>>,
    /// Dedicated asynchronous-syscall interface driving the migration
    /// drain's scatter-gather batches, created lazily on the first drain
    /// (a cluster that never rebalances spawns no extra threads).
    /// Deliberately *not* the source store's interface: drain bodies issue
    /// nested store I/O, and running them on the same service threads
    /// those submissions need would be a starvation deadlock.
    drain: std::sync::OnceLock<Arc<pesos_sgx::AsyscallInterface>>,
    /// Every client registered through the cluster, for re-homing sessions
    /// onto joining controllers.
    clients: Mutex<BTreeSet<String>>,
    /// Every policy installed through the cluster, for copying the full
    /// set onto joining controllers (policies broadcast on install would
    /// otherwise exist only on the partitions present at install time, and
    /// removing the last original holder would lose them).
    policies: Mutex<BTreeSet<PolicyId>>,
    tx: ClusterTxManager,
    async_ops: AsyncOps,
    next_async_id: AtomicU64,
    template: ControllerConfig,
    /// Per-primary replication state, matched by `Arc` identity. Empty
    /// when [`ClusterConfig::backups_per_partition`] is 0.
    replicas: RwLock<Vec<(Arc<PesosController>, Arc<ReplicaSet>)>>,
    /// Backups every partition (joiners included) is given; 0 means
    /// replication was never configured, checked before touching the
    /// `replicas` lock so a replication-free cluster pays nothing on the
    /// request path.
    backups_per_partition: usize,
    /// Jitter source for the retry schedule (seeded, so stress runs are
    /// reproducible).
    retry_rng: Mutex<StdRng>,
    retries: RetryCounters,
    /// Cluster-level latency histograms, hot-group counters and drain
    /// gauges — the `/stats` inputs recorded on the request path.
    telemetry: ClusterTelemetry,
}

impl ControllerCluster {
    /// Bootstraps `config.controllers` independent controller instances and
    /// partitions the hash space evenly over them.
    pub fn new(config: ClusterConfig) -> Result<Self, PesosError> {
        config.validate()?;
        let controllers: Vec<Arc<PesosController>> = (0..config.controllers)
            .map(|_| PesosController::new(config.controller.clone()).map(Arc::new))
            .collect::<Result<_, _>>()?;
        let replicas = if config.backups_per_partition > 0 {
            controllers
                .iter()
                .map(|primary| {
                    let set =
                        Self::spawn_replica_set(&config.controller, config.backups_per_partition)?;
                    Ok((Arc::clone(primary), set))
                })
                .collect::<Result<Vec<_>, PesosError>>()?
        } else {
            Vec::new()
        };
        let shards = config.controller.lock_shards;
        let telemetry_on = config.controller.telemetry;
        Ok(ControllerCluster {
            routing: RwLock::with_rank(
                lock_order::ROUTING_STATE,
                Arc::new(RoutingState {
                    table: PartitionTable::even(controllers),
                    migrations: Vec::new(),
                }),
            ),
            ops_gate: RwLock::with_rank(lock_order::OPS_GATE, ()),
            rebalance: Mutex::with_rank(lock_order::CLUSTER_TOPOLOGY, ()),
            migration_locks: Arc::new(Sharded::new_indexed(shards, |i| {
                Mutex::with_rank_indexed(lock_order::MIGRATION_STRIPE, i, ())
            })),
            drain_concurrency: config.drain_concurrency,
            drain: std::sync::OnceLock::new(),
            request_baseline: Mutex::with_rank(lock_order::REQUEST_BASELINE, Vec::new()),
            clients: Mutex::with_rank(lock_order::CLUSTER_CLIENTS, BTreeSet::new()),
            policies: Mutex::with_rank(lock_order::CLUSTER_POLICIES, BTreeSet::new()),
            tx: ClusterTxManager::new(),
            async_ops: AsyncOps::new(shards, config.controller.result_buffer_capacity),
            next_async_id: AtomicU64::new(1),
            template: config.controller,
            replicas: RwLock::with_rank(lock_order::REPLICA_REGISTRY, replicas),
            backups_per_partition: config.backups_per_partition,
            retry_rng: Mutex::with_rank(
                lock_order::RETRY_RNG,
                StdRng::seed_from_u64(RETRY_JITTER_SEED),
            ),
            retries: RetryCounters::default(),
            telemetry: ClusterTelemetry {
                enabled: AtomicBool::new(telemetry_on),
                ops: OpHistograms::new(),
                hot: HotKeyTracker::new(HOT_GROUP_SLOTS),
                drain_group_skips: WindowedCounter::new(),
            },
        })
    }

    /// Builds `count` backup controllers from the template and starts a
    /// replica set shipping to them.
    fn spawn_replica_set(
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
    fn replica_set_of(&self, controller: &Arc<PesosController>) -> Option<Arc<ReplicaSet>> {
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
    fn append_for(&self, controller: &Arc<PesosController>, record: impl FnOnce() -> LogRecord) {
        if let Some(set) = self.replica_set_of(controller) {
            set.append(record());
        }
    }

    /// Runs `attempt` up to [`RETRY_ATTEMPTS`] times: an error `retryable`
    /// accepts is counted on `retried` and followed by one
    /// capped-exponential backoff pause with seeded jitter — the pause
    /// after attempt `n` is a uniform draw from `[d/2, d]` where
    /// `d = RETRY_BASE_MICROS·2ⁿ` capped at [`RETRY_CAP_MICROS`]. The last
    /// attempt's result is returned as is. Whatever `attempt` acquires it
    /// releases before the pause.
    fn with_retries<R>(
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

    /// Number of partitions (= controller instances) in the current table.
    pub fn partition_count(&self) -> usize {
        self.routing.read().table.len()
    }

    /// The controllers of the current table, in partition order.
    pub fn controllers(&self) -> Vec<Arc<PesosController>> {
        self.routing
            .read()
            .table
            .partitions()
            .iter()
            .map(|p| Arc::clone(&p.controller))
            .collect()
    }

    /// Partition index the given key routes to (diagnostics and tests).
    /// Routes by the key's placement group, so `<key>` and `<key>.log`
    /// report the same partition.
    pub fn partition_of(&self, key: &str) -> usize {
        self.routing
            .read()
            .table
            .index_of(Self::routing_hash(&HashedKey::new(key)))
    }

    /// Per-partition load (resident objects + request counters) under
    /// `table` — the accounting [`ControllerCluster::add_controller`] and
    /// [`ControllerCluster::remove_controller`] rebalance by, served per
    /// partition by [`ControllerCluster::telemetry_snapshot`].
    fn loads_of(&self, table: &PartitionTable) -> Vec<PartitionLoad> {
        let baseline = self.request_baseline.lock();
        let base_for = |controller: &Arc<PesosController>| {
            baseline
                .iter()
                .find(|(c, _)| Arc::ptr_eq(c, controller))
                .map(|(_, requests)| *requests)
                .unwrap_or(0)
        };
        table
            .partitions()
            .iter()
            .map(|p| PartitionLoad {
                resident_objects: p.controller.store().resident_object_count(),
                requests: p
                    .controller
                    .metrics()
                    .requests
                    .saturating_sub(base_for(&p.controller)),
            })
            .collect()
    }

    /// Restarts the load window: snapshots every current controller's
    /// request counter so the next rebalance decision weighs only traffic
    /// served after this topology change. Called under the rebalance lock
    /// right after a table swap.
    fn reset_request_baseline(&self, table: &PartitionTable) {
        *self.request_baseline.lock() = table
            .partitions()
            .iter()
            .map(|p| (Arc::clone(&p.controller), p.controller.metrics().requests))
            .collect();
        // New topology, new hot window too: the split point this change
        // consumed was computed *before* this call, and the next one
        // should weigh traffic under the new table only — mirroring the
        // request-counter window above.
        self.telemetry.hot.reset_window();
    }

    /// Restarts every windowed telemetry reading — the `/stats/reset`
    /// hook: cluster and per-controller latency histograms, hot-group
    /// counters, retry counters, drain-skip tally and the partition load
    /// window. Lifetime-style gauges (replication lag, resident objects,
    /// digest compressions, migration progress) are unaffected.
    pub fn reset_window(&self) {
        self.telemetry.ops.reset_window();
        self.telemetry.hot.reset_window();
        self.telemetry.drain_group_skips.reset_window();
        self.retries.reset_window();
        let routing = self.routing.read().clone();
        for partition in routing.table.partitions() {
            partition.controller.reset_telemetry_window();
        }
        self.reset_request_baseline(&routing.table);
    }

    /// Switches telemetry recording (latency histograms, hot-group
    /// counters) on or off cluster-wide at runtime — the cluster flag and
    /// every current partition controller flip together, without a
    /// restart or a request-path lock. Counters keep their values across
    /// an off/on cycle; controllers that join later follow their own
    /// [`pesos_core::ControllerConfig::telemetry`] seed.
    pub fn set_telemetry_enabled(&self, on: bool) {
        self.telemetry.enabled.store(on, Ordering::Relaxed);
        for partition in self.routing.read().table.partitions() {
            partition.controller.set_telemetry_enabled(on);
        }
    }

    // ------------------------------------------------------------------
    // Sessions and time
    // ------------------------------------------------------------------

    /// Registers a client on every controller (sessions are mirrored so any
    /// partition can serve the client) and remembers it for re-homing onto
    /// controllers that join later.
    pub fn register_client(&self, client_id: &str) -> String {
        let _gate = self.ops_gate.read();
        for partition in self.routing.read().table.partitions() {
            partition.controller.register_client(client_id);
        }
        // Record the id only after its sessions exist: a concurrent
        // expire_sessions prunes the set against partition 0's live
        // sessions, and recording first would let that prune silently
        // unregister a client whose registration just succeeded. (A
        // topology change cannot miss the id either way — its quiesce
        // waits out this whole gate-read section before re-homing.)
        self.clients.lock().insert(client_id.to_string());
        client_id.to_string()
    }

    /// Sets the logical time on every controller.
    pub fn set_time(&self, now: u64) {
        for partition in self.routing.read().table.partitions() {
            partition.controller.set_time(now);
        }
    }

    /// The cluster's logical time (partition 0's clock; all clocks are set
    /// together through [`ControllerCluster::set_time`]).
    pub fn now(&self) -> u64 {
        self.routing.read().table.first().now()
    }

    /// Expires idle sessions on every controller; returns the count from
    /// the first partition (sessions are mirrored, so each partition
    /// expires the same set).
    pub fn expire_sessions(&self) -> usize {
        let _gate = self.ops_gate.read();
        let routing = self.routing.read().clone();
        let mut first = None;
        for partition in routing.table.partitions() {
            let expired = partition.controller.expire_sessions();
            first.get_or_insert(expired);
        }
        // Prune the re-homing set to the sessions that survived: an id
        // with no session on partition 0 is expired everywhere (sessions
        // are mirrored and clocks set together). Keeping it would admit
        // the client at the cluster layer forever and resurrect its
        // session on the next joining controller — authenticated on one
        // partition, rejected on all others.
        let probe = routing.table.first();
        self.clients.lock().retain(|id| probe.has_session(id));
        first.unwrap_or(0)
    }

    fn require_client(&self, client_id: &str) -> Result<(), PesosError> {
        if self.clients.lock().contains(client_id) {
            Ok(())
        } else {
            Err(PesosError::NoSession(client_id.to_string()))
        }
    }

    // ------------------------------------------------------------------
    // Routing internals
    // ------------------------------------------------------------------

    /// The placement-group routing hash of `key` under
    /// [`ROUTING_DELIMITER`] (cached on the `HashedKey`, so repeated
    /// consultations on one request cost nothing).
    fn routing_hash(key: &HashedKey<'_>) -> u64 {
        key.routing_hash(ROUTING_DELIMITER)
    }

    /// Records a keyed operation against its placement group's hot
    /// counter and starts the end-to-end latency timer — the cluster's
    /// per-request telemetry, all atomics. The group counter feeds the
    /// hot-key-weighted split point and `/stats/groups/hot`; the timer
    /// records into the cluster histogram (routing + pulls + retries
    /// included) when the returned guard drops.
    fn observe(&self, kind: OpKind, key: &HashedKey<'_>) -> OpTimer<'_> {
        if self.telemetry.enabled() {
            self.telemetry.hot.record(
                Self::routing_hash(key),
                pesos_core::routing_prefix(key.key(), ROUTING_DELIMITER),
            );
        }
        self.telemetry.ops.timer(kind, self.telemetry.enabled())
    }

    /// Routes `key` to its owning controller under a consistent routing
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
        mut f: impl FnMut(&RoutingState, &Arc<PesosController>) -> Result<R, PesosError>,
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
    fn pull_if_migrating(
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
            let siblings = migration.src.store().list_keys_with_prefix(prefix)?;
            for sibling in siblings {
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
        if pending || migration.dst.store().get_metadata(key).is_some() {
            // A prior partial delete may have already cleared the source,
            // so NotFound counts as done.
            return match migration.src.store().delete_object(key) {
                Ok(()) | Err(PesosError::ObjectNotFound(_)) => {
                    if pending {
                        migration.moved_pending_delete.lock().remove(key.key());
                    }
                    if let Some(set) = &migration.src_set {
                        set.append(LogRecord::Delete {
                            key: key.key().to_string(),
                        });
                    }
                    Ok(())
                }
                Err(e) => Err(e),
            };
        }
        let Some(export) = migration.src.store().export_object(key)? else {
            return Ok(()); // never existed (or deleted after moving)
        };
        // The destination must be able to enforce the object's policy.
        if let Some(policy_id) = export.meta.policy_id {
            if migration.dst.store().load_policy(&policy_id).is_err() {
                if let Ok(policy) = migration.src.store().load_policy(&policy_id) {
                    if let Some(set) = &migration.dst_set {
                        set.append(LogRecord::PolicyInstall {
                            bytes: policy.to_bytes().into(),
                        });
                    }
                    migration.dst.store().store_compiled_policy(policy)?;
                }
            }
        }
        migration.dst.store().import_object(&export)?;
        migration.keys_moved.fetch_add(1, Ordering::Relaxed);
        // The destination's backups receive the moved object through the
        // destination's log; the source's drop it through the source's.
        if let Some(set) = &migration.dst_set {
            set.append(LogRecord::Import(Box::new(export)));
        }
        // Only once the destination durably holds the object does the
        // source copy go away: a failed import leaves the source
        // authoritative and the pull retryable, never a lost object.
        if let Err(e) = migration.src.store().delete_object(key) {
            // The move succeeded but the stale source copy survives;
            // remember it so retries (drain loop or demand pulls) finish
            // the delete without ever re-exporting it.
            migration
                .moved_pending_delete
                .lock()
                .insert(key.key().to_string());
            return Err(e);
        }
        if let Some(set) = &migration.src_set {
            set.append(LogRecord::Delete {
                key: key.key().to_string(),
            });
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

    /// Makes sure `controller` can resolve `policy_id`, copying the policy
    /// from any other partition if needed (policies are broadcast on
    /// install, but a controller that joined later only receives them
    /// on demand).
    fn ensure_policy(
        &self,
        routing: &RoutingState,
        controller: &Arc<PesosController>,
        policy_id: &PolicyId,
    ) -> Result<(), PesosError> {
        if controller.store().load_policy(policy_id).is_ok() {
            return Ok(());
        }
        if self.copy_policy_from_peers(routing, controller, policy_id)? {
            Ok(())
        } else {
            Err(PesosError::PolicyNotFound(policy_id.to_hex()))
        }
    }

    /// Copies `policy_id` onto `controller` from whichever other partition
    /// holds it; returns whether a copy was found.
    fn copy_policy_from_peers(
        &self,
        routing: &RoutingState,
        controller: &Arc<PesosController>,
        policy_id: &PolicyId,
    ) -> Result<bool, PesosError> {
        for partition in routing.table.partitions() {
            if Arc::ptr_eq(&partition.controller, controller) {
                continue;
            }
            if let Ok(policy) = partition.controller.store().load_policy(policy_id) {
                self.append_for(controller, || LogRecord::PolicyInstall {
                    bytes: policy.to_bytes().into(),
                });
                controller.store().store_compiled_policy(policy)?;
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Copies every cluster-installed policy onto `controller`, loading
    /// each from whichever partition still holds it. Used when a
    /// controller joins: policies are broadcast at install time, so a
    /// joiner must catch up on the ones installed before it existed —
    /// otherwise removing the last original holder would lose them.
    fn copy_policies_to(&self, controller: &Arc<PesosController>) -> Result<(), PesosError> {
        let routing = self.routing.read().clone();
        // Snapshot the id set rather than iterating under the registry
        // mutex: each copy runs policy loads and replicated stores (drive
        // I/O), and no lock guard may live across the submit path.
        let ids: Vec<PolicyId> = self.policies.lock().iter().copied().collect();
        for id in &ids {
            if controller.store().load_policy(id).is_ok() {
                continue;
            }
            self.copy_policy_from_peers(&routing, controller, id)?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Object operations
    // ------------------------------------------------------------------

    /// Installs a policy on every controller and returns its identifier
    /// (compilation is deterministic, so every instance derives the same
    /// id).
    // pesos-lint: invariant(acked_logged)
    pub fn put_policy(&self, client_id: &str, source: &str) -> Result<PolicyId, PesosError> {
        let _timer = self
            .telemetry
            .ops
            .timer(OpKind::PutPolicy, self.telemetry.enabled());
        let _gate = self.ops_gate.read();
        let routing = self.routing.read().clone();
        let mut id = None;
        for partition in routing.table.partitions() {
            id = Some(partition.controller.put_policy(client_id, source)?);
        }
        let id = id.ok_or_else(|| PesosError::Backend("cluster has no partitions".into()))?;
        self.policies.lock().insert(id);
        // Broadcast the compiled *body* into every partition's log: a
        // promoted backup must evaluate policies with no surviving peer to
        // copy them from.
        if self.backups_per_partition > 0 {
            if let Ok(policy) = routing.table.first().store().load_policy(&id) {
                let bytes: Payload = policy.to_bytes().into();
                for partition in routing.table.partitions() {
                    self.append_for(&partition.controller, || LogRecord::PolicyInstall {
                        bytes: bytes.clone(),
                    });
                }
            }
        }
        Ok(id)
    }

    /// Stores an object on its owning partition. The value is borrowed all
    /// the way into the owner's store; the one copy a replicated put makes
    /// is the log record's shared buffer, built only when the partition
    /// has a log.
    // pesos-lint: invariant(acked_logged)
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
            let version = owner.put(
                client_id,
                &key,
                value,
                policy_id,
                expected_version,
                certificates,
            )?;
            self.append_for(owner, || LogRecord::Put {
                key: key.key().to_string(),
                value: value.into(),
                policy_id,
                version: Some(version),
            });
            Ok(version)
        })
    }

    /// Stores an object asynchronously on its owning partition; the
    /// returned operation id is cluster-scoped and pollable through
    /// [`ControllerCluster::poll_result`] regardless of later topology
    /// changes (the mapping pins the accepting controller).
    // pesos-lint: invariant(acked_logged)
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
        // Shared, not copied: the accepting owner's scheduler keeps one
        // reference, and a retried attempt offers the same buffer again.
        let value = Arc::new(value);
        self.with_owner(&key, |routing, owner| {
            if let Some(id) = &policy_id {
                self.ensure_policy(routing, owner, id)?;
            }
            let local_op = owner.put_async(
                client_id,
                &key,
                Arc::clone(&value),
                policy_id,
                expected_version,
                certificates,
            )?;
            // Logged at acceptance — before the Accepted acknowledgement
            // escapes — so a failover after the ack can never lose the
            // write even if the primary's scheduler hadn't executed it
            // yet. The version is the primary scheduler's to assign (the
            // backup self-assigns in log order), except for CAS writes
            // where success pins it to exactly the expected version.
            self.append_for(owner, || LogRecord::Put {
                key: key.key().to_string(),
                value: value.as_slice().into(),
                policy_id,
                version: expected_version,
            });
            let cluster_op = self.next_async_id.fetch_add(1, Ordering::SeqCst);
            self.async_ops
                .insert(cluster_op, (Arc::clone(owner), local_op));
            Ok(cluster_op)
        })
    }

    /// Polls the result of a cluster-scoped asynchronous operation.
    pub fn poll_result(&self, client_id: &str, operation_id: u64) -> Option<AsyncResult> {
        let (controller, local_op) = self.async_ops.get(operation_id)?;
        controller.poll_result(client_id, local_op)
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
        self.with_owner(&key, |_, owner| owner.get(client_id, &key, certificates))
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
            owner.get_version(client_id, &key, version, certificates)
        })
    }

    /// Deletes an object from its owning partition.
    // pesos-lint: invariant(acked_logged)
    pub fn delete(
        &self,
        client_id: &str,
        key: &str,
        certificates: &[Certificate],
    ) -> Result<(), PesosError> {
        let key = HashedKey::new(key);
        let _timer = self.observe(OpKind::Delete, &key);
        self.with_owner(&key, |_, owner| {
            owner.delete(client_id, &key, certificates)?;
            self.append_for(owner, || LogRecord::Delete {
                key: key.key().to_string(),
            });
            Ok(())
        })
    }

    /// Attaches an existing policy to an object on its owning partition.
    // pesos-lint: invariant(acked_logged)
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
            owner.attach_policy(client_id, &key, policy_id, certificates)?;
            self.append_for(owner, || LogRecord::AttachPolicy {
                key: key.key().to_string(),
                policy_id,
            });
            Ok(())
        })
    }

    /// Waits for all scheduled asynchronous work on every controller.
    pub fn drain_async(&self) {
        for partition in self.routing.read().table.partitions() {
            partition.controller.drain_async();
        }
    }

    // ------------------------------------------------------------------
    // Transactions (two-phase commit)
    // ------------------------------------------------------------------

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

    // ------------------------------------------------------------------
    // Online rebalancing
    // ------------------------------------------------------------------

    /// The drain's dedicated scatter-gather interface, created (with its
    /// `drain_concurrency` service threads and slots) on first use and
    /// reused by every later drain.
    fn drain_interface(&self) -> &Arc<pesos_sgx::AsyscallInterface> {
        self.drain.get_or_init(|| {
            Arc::new(pesos_sgx::AsyscallInterface::new(
                self.drain_concurrency,
                self.drain_concurrency,
                pesos_sgx::cost::ModeCost::new(self.template.mode, self.template.cost_model),
            ))
        })
    }

    /// The split target for a joining controller: the partition with the
    /// highest load weight (resident objects + served requests), tie-broken
    /// toward the widest hash range. Partitions whose range is a single
    /// hash cannot split and are skipped.
    fn most_loaded_splittable(&self, table: &PartitionTable) -> Result<usize, PesosError> {
        self.loads_of(table)
            .iter()
            .enumerate()
            .map(|(i, load)| (i, load.weight(), table.range(i).width()))
            .filter(|&(_, _, width)| width >= 2)
            .max_by_key(|&(_, weight, width)| (weight, width))
            .map(|(i, _, _)| i)
            // Every partition owning a single hash would need 2^64 of them.
            .ok_or_else(|| PesosError::Backend("no partition left to split".into()))
    }

    /// The weighted split point for partition `index`: the op-weighted
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
    fn weighted_split_point(
        &self,
        table: &PartitionTable,
        index: usize,
        src: &Arc<PesosController>,
    ) -> u64 {
        let range = table.range(index);
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
        if self.telemetry.enabled() {
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
        let controller = Arc::new(PesosController::new(config.clone())?);
        // The joiner gets its own backups before it can accept traffic, so
        // every write it acknowledges is covered by its log from the
        // first request.
        if self.backups_per_partition > 0 {
            let set = Self::spawn_replica_set(&config, self.backups_per_partition)?;
            self.replicas.write().push((Arc::clone(&controller), set));
        }
        // Re-home sessions, policies and the logical clock before any
        // traffic can route to the new partition.
        controller.set_time(self.now());
        for client in self.clients.lock().iter() {
            controller.register_client(client);
        }
        self.copy_policies_to(&controller)?;

        // The split source and point: the rebalance lock keeps the table
        // stable, so the most-loaded partition and the weighted split
        // point computed here are exactly what the swap below installs.
        // (Loads keep moving under concurrent traffic; that only shifts
        // balance quality, never correctness.)
        let (target, split_start, src) = {
            let routing = self.routing.read();
            let target = self.most_loaded_splittable(&routing.table)?;
            let src = Arc::clone(controller_at(&routing.table, target)?);
            let split_start = self.weighted_split_point(&routing.table, target, &src);
            (target, split_start, src)
        };
        let migration = self.install_migration(&src, |table| {
            let (table, moved) = table.split_at(target, split_start, Arc::clone(&controller));
            (table, moved, target + 1)
        })?;
        // Second re-homing pass: a register_client or put_policy that
        // raced the first pass iterated the old table (without the joiner)
        // but finished before the quiesce with its entry recorded;
        // registering and copying again here is idempotent and closes
        // that gap.
        for client in self.clients.lock().iter() {
            controller.register_client(client);
        }
        self.copy_policies_to(&controller)?;
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
            controller_at(&routing.table, index)?;
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
            (Arc::clone(controller_at(&routing.table, index)?), neighbour)
        };
        let migration = self.install_migration(&src, |table| table.merge_into(index, neighbour))?;
        self.settle_migration(&migration)?;
        // The removed partition's replica set has nothing left to guard:
        // its primary is off the table and fully drained. Stop the
        // shippers and drop the entry (the log itself shipped every drain
        // delete, so the backups are already empty of the moved range).
        if let Some(set) = self.replica_set_of(&src) {
            set.stop();
            self.replicas
                .write()
                .retain(|(primary, _)| !Arc::ptr_eq(primary, &src));
        }
        Ok(())
    }

    /// The routing-swap half of every topology change: quiesce, flush the
    /// source, install the new table together with the migration record,
    /// restart the load window. `retable` builds the new table from the
    /// current one and names the moved hash range and the partition of the
    /// new table that takes it over from `src`.
    fn install_migration(
        &self,
        src: &Arc<PesosController>,
        retable: impl FnOnce(&PartitionTable) -> (PartitionTable, HashRange, usize),
    ) -> Result<Arc<Migration>, PesosError> {
        // Pre-flush the source's scheduled asynchronous writes outside the
        // gate so the race-closing flush under it (below) is short.
        src.drain_async();
        // Quiesce: holding the gate's write side means no operation is
        // in flight across the swap — every request either completed
        // under the old routing state or starts under the new one
        // (table + migration record together), so a demand pull can
        // never race a write still executing against the old owner.
        let _quiesced = self.ops_gate.write();
        // Acknowledged put_asyncs execute on the source's scheduler
        // workers *outside* the gate; flush them before the swap makes
        // demand pulls possible, or a pull could export stale state,
        // move it, and let the late write recreate the key at a source
        // the router no longer consults — losing a write already
        // reported Completed. No new async work can be accepted while
        // the write side is held, and after the swap the moved range's
        // writes go to the destination, so this flush is complete.
        src.drain_async();
        let mut routing = self.routing.write();
        let (table, moved, absorbed_by) = retable(&routing.table);
        let dst = Arc::clone(controller_at(&table, absorbed_by)?);
        let migration = Arc::new(Migration {
            range: moved,
            src: Arc::clone(src),
            src_set: self.replica_set_of(src),
            dst_set: self.replica_set_of(&dst),
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
    /// `pesos-core` pins the drain's per-key digest budget. The pulls are
    /// batched through the cluster's dedicated scatter-gather asyscall
    /// interface, so up to [`ClusterConfig::drain_concurrency`] placement
    /// groups are in flight at once (the slot table is the admission
    /// control); each in-flight pull still serializes with demand pulls of
    /// the same key through the striped migration locks, so every drain
    /// invariant — export under the source's key lock, delete only after a
    /// successful import, `moved_pending_delete` settlement — is exactly a
    /// demand pull's.
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
        for key in migration.src.store().list_keys()? {
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

        // One body per placement group, fanned out through the drain
        // interface. Submission itself is bounded by the interface's slot
        // table, so at most `drain_concurrency` groups are in flight;
        // every body runs to completion even after an error (a pull is
        // idempotent and identical to a demand pull), and the first error
        // is reported so the migration record stays active for a retry —
        // with every *completed* group checkpointed, so the retry
        // re-drives only the interrupted ones.
        let mut set = self
            .drain_interface()
            .submit_batch(groups.into_iter().map(|(prefix, members)| {
                let migration = Arc::clone(migration);
                let locks = Arc::clone(&self.migration_locks);
                move || -> Result<(), PesosError> {
                    for (key, hash) in &members {
                        let hashed = HashedKey::from_parts(key, *hash);
                        Self::pull_key(&locks, &migration, &hashed)?;
                    }
                    Self::checkpoint_group(&migration, &prefix);
                    Ok(())
                }
            }))
            .map_err(|e| PesosError::Backend(e.to_string()))?;
        let mut first_error = None;
        while let Some((_, result)) = set.next_completed() {
            match result {
                Ok(Ok(())) => {}
                Ok(Err(e)) => {
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

    // ------------------------------------------------------------------
    // Failover
    // ------------------------------------------------------------------

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

    // ------------------------------------------------------------------
    // REST dispatch
    // ------------------------------------------------------------------

    /// Handles a REST request for an authenticated client, routing it
    /// through the cluster: keyed object methods go to the owning
    /// partition, policy installation broadcasts, transaction methods run
    /// the two-phase path, and status aggregates every partition.
    pub fn handle(&self, client_id: &str, request: ClientRequest) -> ClientResponse {
        match self.dispatch(client_id, &request) {
            Ok(response) => response,
            Err(e) => e.rest_response(),
        }
    }

    fn dispatch(
        &self,
        client_id: &str,
        request: &ClientRequest,
    ) -> Result<ClientResponse, PesosError> {
        let rest: &RestRequest = &request.rest;
        let certs = &request.certificates;
        let tx_id = || {
            rest.tx_id
                .ok_or(PesosError::BadRequest("missing tx id".into()))
        };
        // A transaction's outcome on the wire: its write versions.
        let versions = |outcome: TxOutcome| {
            let versions: Vec<String> = outcome
                .write_versions
                .iter()
                .map(|v| v.to_string())
                .collect();
            RestResponse::ok(versions.join(",").into_bytes())
        };
        match rest.method {
            RestMethod::Status => {
                // Healthy only if every partition answers.
                for controller in self.controllers() {
                    let response = controller.handle(
                        client_id,
                        ClientRequest::new(RestRequest::new(RestMethod::Status, "")),
                    );
                    if response.status != RestStatus::Ok {
                        return Ok(response);
                    }
                }
                Ok(RestResponse::ok(
                    format!("pesos cluster: ok ({} partitions)", self.partition_count())
                        .into_bytes(),
                ))
            }
            RestMethod::PutPolicy => {
                let source = String::from_utf8(rest.value.clone())
                    .map_err(|_| PesosError::BadRequest("policy text must be UTF-8".into()))?;
                let id = self.put_policy(client_id, &source)?;
                Ok(RestResponse::ok(id.to_hex().into_bytes()))
            }
            RestMethod::GetPolicy => {
                // Policies are broadcast on install and copied to joiners,
                // so partition 0 normally has every one — but scan the
                // rest anyway (like check_results) so a read never fails
                // while any partition still holds the policy.
                self.require_client(client_id)?;
                let id = parse_policy_id(&rest.key)?;
                let routing = self.routing.read().clone();
                let mut fault = None;
                let mut policy = None;
                for partition in routing.table.partitions() {
                    match partition.controller.store().load_policy(&id) {
                        Ok(p) => {
                            policy = Some(p);
                            break;
                        }
                        Err(PesosError::PolicyNotFound(_)) => {}
                        // A decode/integrity fault is not "no such
                        // policy"; keep it in case no partition serves
                        // the read.
                        Err(e) => {
                            fault.get_or_insert(e);
                        }
                    }
                }
                let policy = match (policy, fault) {
                    (Some(p), _) => p,
                    (None, Some(e)) => return Err(e),
                    (None, None) => return Err(PesosError::PolicyNotFound(id.to_hex())),
                };
                Ok(RestResponse::ok(policy.to_bytes()))
            }
            RestMethod::AttachPolicy => {
                let id = parse_policy_id(
                    rest.policy_id
                        .as_deref()
                        .ok_or(PesosError::BadRequest("missing policy id".into()))?,
                )?;
                self.attach_policy(client_id, &rest.key, id, certs)?;
                Ok(RestResponse::ok_empty())
            }
            RestMethod::Put | RestMethod::Update => {
                let policy_id = match rest.policy_id.as_deref() {
                    Some(hex) => Some(parse_policy_id(hex)?),
                    None => None,
                };
                if rest.asynchronous {
                    let op = self.put_async(
                        client_id,
                        &rest.key,
                        rest.value.clone(),
                        policy_id,
                        rest.expected_version,
                        certs,
                    )?;
                    Ok(RestResponse::accepted(op))
                } else {
                    let version = self.put(
                        client_id,
                        &rest.key,
                        &rest.value,
                        policy_id,
                        rest.expected_version,
                        certs,
                    )?;
                    Ok(RestResponse::ok_empty().with_version(version))
                }
            }
            RestMethod::Get => match rest.expected_version {
                Some(version) => {
                    let value = self.get_version(client_id, &rest.key, version, certs)?;
                    Ok(RestResponse::ok(value).with_version(version))
                }
                None => {
                    let (value, version) = self.get(client_id, &rest.key, certs)?;
                    Ok(RestResponse::ok((*value).clone()).with_version(version))
                }
            },
            RestMethod::Delete => {
                self.delete(client_id, &rest.key, certs)?;
                Ok(RestResponse::ok_empty())
            }
            RestMethod::PollResult => {
                let op_id: u64 = rest
                    .key
                    .parse()
                    .map_err(|_| PesosError::BadRequest("operation id must be numeric".into()))?;
                match self.poll_result(client_id, op_id) {
                    Some(AsyncResult::Completed { version }) => {
                        let mut resp = RestResponse::ok_empty();
                        if let Some(v) = version {
                            resp = resp.with_version(v);
                        }
                        Ok(resp)
                    }
                    Some(AsyncResult::Pending) => Ok(RestResponse::accepted(op_id)),
                    Some(AsyncResult::Failed { reason }) => {
                        Ok(RestResponse::failure(RestStatus::BackendError, reason))
                    }
                    None => Err(PesosError::ObjectNotFound(format!("operation {op_id}"))),
                }
            }
            RestMethod::CreateTx => {
                let tx = self.create_tx(client_id)?;
                Ok(RestResponse::ok(tx.to_string().into_bytes()))
            }
            RestMethod::AddRead => {
                self.add_read(client_id, tx_id()?, &rest.key)?;
                Ok(RestResponse::ok_empty())
            }
            RestMethod::AddWrite => {
                self.add_write(client_id, tx_id()?, &rest.key, rest.value.clone())?;
                Ok(RestResponse::ok_empty())
            }
            RestMethod::CommitTx => self.commit_tx(client_id, tx_id()?).map(versions),
            RestMethod::AbortTx => {
                self.abort_tx(client_id, tx_id()?)?;
                Ok(RestResponse::ok_empty())
            }
            RestMethod::CheckResults => self.check_results(client_id, tx_id()?).map(versions),
            RestMethod::Stats => {
                self.require_client(client_id)?;
                let (path, query) = pesos_telemetry::split_query(&rest.key);
                if path.trim_matches('/') == "reset" {
                    self.reset_window();
                    return Ok(RestResponse::ok_empty());
                }
                let top = pesos_telemetry::query_param(query, "top")
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(stats::DEFAULT_TOP_GROUPS);
                let flat = pesos_telemetry::query_param(query, "flat").is_some();
                pesos_telemetry::serve(&self.stats_tree(top), path, flat)
                    .map(|body| RestResponse::ok(body.into_bytes()))
                    .ok_or_else(|| PesosError::ObjectNotFound(format!("stats path {path:?}")))
            }
        }
    }
}

impl Drop for ControllerCluster {
    fn drop(&mut self) {
        // Join every replica set's shipper threads; a still-running
        // shipper holds Arcs to its backups and would outlive the cluster
        // retrying against stores nobody can observe anymore.
        for (_, set) in self.replicas.get_mut().iter() {
            set.stop();
        }
    }
}

impl RequestEndpoint for ControllerCluster {
    fn register_client(&self, client_id: &str) -> String {
        ControllerCluster::register_client(self, client_id)
    }

    fn put_policy(&self, client_id: &str, source: &str) -> Result<PolicyId, PesosError> {
        ControllerCluster::put_policy(self, client_id, source)
    }

    fn put(
        &self,
        client_id: &str,
        key: &str,
        value: Vec<u8>,
        policy_id: Option<PolicyId>,
        expected_version: Option<u64>,
        certificates: &[Certificate],
    ) -> Result<u64, PesosError> {
        ControllerCluster::put(
            self,
            client_id,
            key,
            value,
            policy_id,
            expected_version,
            certificates,
        )
    }

    fn put_async(
        &self,
        client_id: &str,
        key: &str,
        value: Vec<u8>,
        policy_id: Option<PolicyId>,
        expected_version: Option<u64>,
        certificates: &[Certificate],
    ) -> Result<u64, PesosError> {
        ControllerCluster::put_async(
            self,
            client_id,
            key,
            value,
            policy_id,
            expected_version,
            certificates,
        )
    }

    fn get(
        &self,
        client_id: &str,
        key: &str,
        certificates: &[Certificate],
    ) -> Result<(Arc<Vec<u8>>, u64), PesosError> {
        ControllerCluster::get(self, client_id, key, certificates)
    }

    fn delete(
        &self,
        client_id: &str,
        key: &str,
        certificates: &[Certificate],
    ) -> Result<(), PesosError> {
        ControllerCluster::delete(self, client_id, key, certificates)
    }

    fn latest_version(&self, key: &str) -> Option<u64> {
        let hashed = HashedKey::new(key);
        // Best-effort (no demand pull), but never wrong about presence:
        // the ops-gate read side keeps the routing snapshot consistent
        // with the probes (a topology change cannot install mid-lookup),
        // and each migration probe runs under the key's striped migration
        // lock, so the key cannot finish moving between the destination
        // and source probes — without the stripe, a concurrent pull could
        // import the key at the destination after we probed it and delete
        // the source copy before we got there, reporting a live object as
        // missing. Destination before source: writes during a migration
        // land at the destination, so it holds the freshest version.
        // Migration membership goes by the *routing* hash (ranges
        // partition the placement-group space); the stripe and the store
        // probes keep using the full-key hash, like every other path.
        let _gate = self.ops_gate.read();
        let routing = self.routing.read().clone();
        for migration in &routing.migrations {
            if migration.range.contains(Self::routing_hash(&hashed)) {
                let _stripe = self.migration_locks.get(&hashed).lock();
                if migration.moved_pending_delete.lock().contains(key) {
                    // Only the stale source copy's delete is outstanding;
                    // the destination is authoritative (the source would
                    // resurrect a client delete).
                    return migration
                        .dst
                        .store()
                        .get_metadata(&hashed)
                        .map(|m| m.latest_version);
                }
                if let Some(meta) = migration.dst.store().get_metadata(&hashed) {
                    return Some(meta.latest_version);
                }
                if let Some(meta) = migration.src.store().get_metadata(&hashed) {
                    return Some(meta.latest_version);
                }
            }
        }
        routing
            .table
            .route(Self::routing_hash(&hashed))
            .store()
            .get_metadata(&hashed)
            .map(|m| m.latest_version)
    }

    fn drain_async(&self) {
        ControllerCluster::drain_async(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::twopc::CLUSTER_TX_BIT;

    fn cluster(controllers: usize) -> ControllerCluster {
        ControllerCluster::new(ClusterConfig::native_simulator(controllers, 1)).unwrap()
    }

    fn replicated_cluster(controllers: usize, backups: usize) -> ControllerCluster {
        let mut config = ClusterConfig::native_simulator(controllers, 1);
        config.backups_per_partition = backups;
        ControllerCluster::new(config).unwrap()
    }

    /// Two keys under `prefix` guaranteed to live on different partitions.
    fn keys_on_two_partitions(c: &ControllerCluster, prefix: &str) -> (String, String) {
        let first = format!("{prefix}/0");
        let other = (1..64)
            .map(|i| format!("{prefix}/{i}"))
            .find(|key| c.partition_of(key) != c.partition_of(&first))
            .expect("two partitions");
        (first, other)
    }

    /// The rebalancer's load weight, from the snapshot the operator reads.
    fn weight(partition: &stats::PartitionTelemetry) -> u64 {
        partition.resident_objects as u64 + partition.requests
    }

    #[test]
    fn basic_ops_route_by_key_hash() {
        let c = cluster(4);
        c.register_client("alice");
        let keys: Vec<String> = (0..64).map(|i| format!("obj/{i}")).collect();
        for (i, key) in keys.iter().enumerate() {
            let v = c
                .put(
                    "alice",
                    key,
                    format!("value-{i}").into_bytes(),
                    None,
                    None,
                    &[],
                )
                .unwrap();
            assert_eq!(v, 0);
        }
        for (i, key) in keys.iter().enumerate() {
            let (value, version) = c.get("alice", key, &[]).unwrap();
            assert_eq!(&**value, format!("value-{i}").as_bytes());
            assert_eq!(version, 0);
        }
        // The keys really spread over several partitions, and each lives
        // only on its owning controller's drives.
        let mut populated = BTreeSet::new();
        for key in &keys {
            populated.insert(c.partition_of(key));
        }
        assert!(populated.len() >= 2, "keys all hashed to one partition");
        let controllers = c.controllers();
        for key in &keys {
            let owner = c.partition_of(key);
            for (i, controller) in controllers.iter().enumerate() {
                let present = controller.store().get_metadata(key.as_str()).is_some();
                assert_eq!(present, i == owner, "key {key} misplaced on partition {i}");
            }
        }
        // Deletes route the same way.
        c.delete("alice", &keys[0], &[]).unwrap();
        assert!(c.get("alice", &keys[0], &[]).is_err());
    }

    #[test]
    fn unregistered_clients_are_rejected_everywhere() {
        let c = cluster(2);
        assert!(matches!(
            c.put("ghost", "k", vec![], None, None, &[]),
            Err(PesosError::NoSession(_))
        ));
        assert!(matches!(
            c.create_tx("ghost"),
            Err(PesosError::NoSession(_))
        ));
    }

    #[test]
    fn policies_broadcast_and_enforce_on_every_partition() {
        let c = cluster(3);
        c.register_client("alice");
        c.register_client("eve");
        let acl = c
            .put_policy(
                "alice",
                "read :- sessionKeyIs(\"alice\")\nupdate :- sessionKeyIs(\"alice\")\ndelete :- sessionKeyIs(\"alice\")",
            )
            .unwrap();
        // Enough keys that several partitions hold policy-protected objects.
        for i in 0..24 {
            c.put(
                "alice",
                &format!("doc/{i}"),
                b"secret",
                Some(acl),
                None,
                &[],
            )
            .unwrap();
        }
        for i in 0..24 {
            assert!(c.get("alice", &format!("doc/{i}"), &[]).is_ok());
            assert!(matches!(
                c.get("eve", &format!("doc/{i}"), &[]),
                Err(PesosError::PolicyDenied(_))
            ));
        }
    }

    #[test]
    fn cross_partition_transaction_commits_atomically() {
        let c = cluster(4);
        c.register_client("alice");
        let (a, b) = keys_on_two_partitions(&c, "acct");
        c.put("alice", &a, b"100", None, None, &[]).unwrap();
        c.put("alice", &b, b"0", None, None, &[]).unwrap();

        let tx = c.create_tx("alice").unwrap();
        assert_ne!(tx & CLUSTER_TX_BIT, 0);
        c.add_read("alice", tx, &a).unwrap();
        c.add_write("alice", tx, &a, b"50".to_vec()).unwrap();
        c.add_write("alice", tx, &b, b"50".to_vec()).unwrap();
        let outcome = c.commit_tx("alice", tx).unwrap();
        assert_eq!(outcome.read_values, vec![b"100".to_vec()]);
        assert_eq!(outcome.write_versions.len(), 2);
        assert_eq!(&**c.get("alice", &a, &[]).unwrap().0, b"50");
        assert_eq!(&**c.get("alice", &b, &[]).unwrap().0, b"50");
        // The outcome is retained and queryable from the cluster.
        assert_eq!(c.check_results("alice", tx).unwrap(), outcome);
        assert_eq!(c.open_tx_count(), 0);
    }

    #[test]
    fn cross_partition_transaction_aborts_atomically_on_policy_rejection() {
        let c = cluster(4);
        c.register_client("alice");
        c.register_client("bob");
        let acl = c
            .put_policy(
                "alice",
                "read :- sessionKeyIs(\"alice\")\nupdate :- sessionKeyIs(\"alice\")\ndelete :- sessionKeyIs(\"alice\")",
            )
            .unwrap();
        // One open key and one alice-only key on different partitions.
        let (open_key, locked_key) = keys_on_two_partitions(&c, "mix");
        c.put("bob", &open_key, b"v0", None, None, &[]).unwrap();
        c.put("alice", &locked_key, b"v0", Some(acl), None, &[])
            .unwrap();

        // Bob's transaction touches both; the locked partition's policy
        // rejects it, and the open partition must not have written either.
        let tx = c.create_tx("bob").unwrap();
        c.add_write("bob", tx, &open_key, b"dirty".to_vec())
            .unwrap();
        c.add_write("bob", tx, &locked_key, b"dirty".to_vec())
            .unwrap();
        assert!(matches!(
            c.commit_tx("bob", tx),
            Err(PesosError::PolicyDenied(_))
        ));
        assert_eq!(&**c.get("bob", &open_key, &[]).unwrap().0, b"v0");
        assert_eq!(&**c.get("alice", &locked_key, &[]).unwrap().0, b"v0");
        assert!(c.check_results("bob", tx).is_err());
        // The partitions stay fully usable after the abort (locks freed).
        c.put("bob", &open_key, b"v1", None, None, &[]).unwrap();
        c.put("alice", &locked_key, b"v1", None, None, &[]).unwrap();
    }

    #[test]
    fn load_window_restarts_at_every_topology_change() {
        let c = cluster(2);
        c.register_client("alice");
        for i in 0..24 {
            c.put("alice", &format!("win/{i}"), b"x", None, None, &[])
                .unwrap();
        }
        let loads = || c.telemetry_snapshot(0).partitions;
        assert!(loads().iter().any(|l| l.requests > 0));
        // A topology change snapshots the counters: the next decision must
        // weigh traffic served after it, not lifetime history (a long-idle
        // but formerly hot partition would otherwise attract every split).
        c.add_controller().unwrap();
        assert!(
            loads().iter().all(|l| l.requests == 0),
            "request window did not restart at the topology change"
        );
        // Fresh traffic counts again, against the new baseline.
        let (_, _) = c.get("alice", "win/0", &[]).unwrap();
        assert!(loads().iter().any(|l| l.requests > 0));
        // Resident counts are unaffected by the windowing.
        let resident: usize = loads().iter().map(|l| l.resident_objects).sum();
        assert_eq!(resident, 24);
    }

    #[test]
    fn empty_transaction_commit_is_still_queryable() {
        let c = cluster(2);
        c.register_client("alice");
        let tx = c.create_tx("alice").unwrap();
        let outcome = c.commit_tx("alice", tx).unwrap();
        assert!(outcome.read_values.is_empty());
        assert!(outcome.write_versions.is_empty());
        assert_eq!(c.check_results("alice", tx).unwrap(), outcome);
    }

    #[test]
    fn async_puts_poll_through_cluster_scoped_ids() {
        let c = cluster(3);
        c.register_client("alice");
        let op = c
            .put_async("alice", "async/1", b"payload".to_vec(), None, None, &[])
            .unwrap();
        c.drain_async();
        match c.poll_result("alice", op) {
            Some(AsyncResult::Completed { version }) => assert_eq!(version, Some(0)),
            other => panic!("unexpected async result {other:?}"),
        }
        // Scoped per client, like the controller's result buffer.
        assert!(c.poll_result("bob", op).is_none());
        assert_eq!(&**c.get("alice", "async/1", &[]).unwrap().0, b"payload");
    }

    #[test]
    fn add_controller_splits_and_migrates_only_the_moved_range() {
        let c = cluster(2);
        c.register_client("alice");
        let keys: Vec<String> = (0..96).map(|i| format!("grow/{i}")).collect();
        for key in &keys {
            c.put("alice", key, key.clone().into_bytes(), None, None, &[])
                .unwrap();
        }
        assert_eq!(c.add_controller().unwrap(), 3);
        // Every key is still readable and lives exactly on its (possibly
        // new) owner.
        let controllers = c.controllers();
        for key in &keys {
            assert_eq!(&**c.get("alice", key, &[]).unwrap().0, key.as_bytes());
            let owner = c.partition_of(key);
            for (i, controller) in controllers.iter().enumerate() {
                let present = controller.store().get_metadata(key.as_str()).is_some();
                assert_eq!(present, i == owner, "key {key} misplaced after rebalance");
            }
        }
        // The new partition actually owns keys (the widest range split).
        let new_partition_keys = keys
            .iter()
            .filter(|k| {
                Arc::ptr_eq(
                    &controllers[c.partition_of(k)],
                    controllers.last().expect("three partitions"),
                ) || c.partition_of(k) == 2
            })
            .count();
        assert!(new_partition_keys > 0, "split moved no keys");
        // Version history survives the migration.
        c.put("alice", &keys[0], b"v1", None, None, &[]).unwrap();
        assert_eq!(c.get("alice", &keys[0], &[]).unwrap().1, 1);
    }

    #[test]
    fn remove_controller_merges_and_loses_nothing() {
        let c = cluster(3);
        c.register_client("alice");
        let acl = c
            .put_policy(
                "alice",
                "read :- sessionKeyIs(\"alice\")\nupdate :- sessionKeyIs(U)\ndelete :- sessionKeyIs(U)",
            )
            .unwrap();
        let keys: Vec<String> = (0..96).map(|i| format!("shrink/{i}")).collect();
        for key in &keys {
            c.put("alice", key, key.clone().into_bytes(), Some(acl), None, &[])
                .unwrap();
        }
        c.remove_controller(1).unwrap();
        assert_eq!(c.partition_count(), 2);
        for key in &keys {
            assert_eq!(&**c.get("alice", key, &[]).unwrap().0, key.as_bytes());
        }
        // Policy enforcement survives the merge (the absorber can resolve
        // the policy for migrated objects).
        c.register_client("eve");
        for key in keys.iter().take(8) {
            assert!(matches!(
                c.get("eve", key, &[]),
                Err(PesosError::PolicyDenied(_))
            ));
        }
        // Removing down to one partition works; removing the last fails.
        c.remove_controller(1).unwrap();
        assert_eq!(c.partition_count(), 1);
        assert!(c.remove_controller(0).is_err());
        assert!(c.remove_controller(7).is_err());
        for key in &keys {
            assert_eq!(&**c.get("alice", key, &[]).unwrap().0, key.as_bytes());
        }
    }

    #[test]
    fn expired_clients_are_pruned_and_not_rehomed_onto_joiners() {
        let c = cluster(2);
        c.register_client("alice");
        c.set_time(0);
        c.put("alice", "pre/expiry", b"x", None, None, &[]).unwrap();
        // Advance past the session expiry and expire everywhere.
        c.set_time(100_000);
        assert_eq!(c.expire_sessions(), 1);
        // The cluster layer no longer admits the expired client...
        assert!(matches!(
            c.create_tx("alice"),
            Err(PesosError::NoSession(_))
        ));
        // ...and a joining controller must not resurrect the session: the
        // expired id was pruned from the re-homing set, so every
        // partition (old and new alike) rejects it until re-registration.
        c.add_controller().unwrap();
        for i in 0..32 {
            assert!(matches!(
                c.put("alice", &format!("post/{i}"), b"x", None, None, &[]),
                Err(PesosError::NoSession(_))
            ));
        }
        // Re-registering restores service on every partition.
        c.register_client("alice");
        for i in 0..32 {
            c.put("alice", &format!("back/{i}"), b"x", None, None, &[])
                .unwrap();
        }
    }

    #[test]
    fn policies_survive_removal_of_every_original_holder() {
        // Install a policy on a one-partition cluster, join a controller
        // *after* the install, then remove the original holder: the
        // promoted joiner must still serve, attach and enforce the policy
        // (it receives the full installed set at join time).
        let c = cluster(1);
        c.register_client("alice");
        c.register_client("eve");
        let acl = c
            .put_policy(
                "alice",
                "read :- sessionKeyIs(\"alice\")\nupdate :- sessionKeyIs(\"alice\")\ndelete :- sessionKeyIs(\"alice\")",
            )
            .unwrap();
        c.add_controller().unwrap();
        c.remove_controller(0).unwrap();
        assert_eq!(c.partition_count(), 1);
        // GetPolicy reads from partition 0 — now the joiner.
        let resp = c.handle(
            "alice",
            ClientRequest::new(RestRequest::new(RestMethod::GetPolicy, acl.to_hex())),
        );
        assert_eq!(resp.status, RestStatus::Ok);
        c.put("alice", "late/doc", b"secret", Some(acl), None, &[])
            .unwrap();
        assert!(matches!(
            c.get("eve", "late/doc", &[]),
            Err(PesosError::PolicyDenied(_))
        ));
    }

    #[test]
    fn sessions_are_rehomed_onto_joining_controllers() {
        let c = cluster(1);
        c.register_client("alice");
        c.set_time(500);
        c.add_controller().unwrap();
        assert_eq!(c.now(), 500);
        // Alice can operate on keys owned by the new partition without
        // re-registering: her session was mirrored during the join.
        for i in 0..32 {
            c.put("alice", &format!("post-join/{i}"), b"x", None, None, &[])
                .unwrap();
        }
        let second = &c.controllers()[1];
        assert!(
            (0..32).any(|i| second
                .store()
                .get_metadata(format!("post-join/{i}").as_str())
                .is_some()),
            "no key landed on the joined partition"
        );
    }

    #[test]
    fn rest_dispatch_routes_through_the_cluster() {
        let c = cluster(3);
        c.register_client("alice");

        let resp = c.handle(
            "alice",
            ClientRequest::new(RestRequest {
                method: RestMethod::PutPolicy,
                key: "acl".into(),
                value: b"read :- sessionKeyIs(\"alice\")\nupdate :- sessionKeyIs(\"alice\")\ndelete :- sessionKeyIs(\"alice\")".to_vec(),
                policy_id: None,
                asynchronous: false,
                tx_id: None,
                expected_version: None,
            }),
        );
        assert_eq!(resp.status, RestStatus::Ok);
        let policy_hex = String::from_utf8(resp.value).unwrap();

        let resp = c.handle(
            "alice",
            ClientRequest::new(
                RestRequest::put("users/alice", b"profile".to_vec())
                    .with_policy(policy_hex.clone()),
            ),
        );
        assert_eq!(resp.status, RestStatus::Ok);
        assert_eq!(resp.version, Some(0));

        let resp = c.handle("alice", ClientRequest::new(RestRequest::get("users/alice")));
        assert_eq!(resp.status, RestStatus::Ok);
        assert_eq!(resp.value, b"profile");

        // The policy read comes back from any partition.
        let resp = c.handle(
            "alice",
            ClientRequest::new(RestRequest::new(RestMethod::GetPolicy, policy_hex)),
        );
        assert_eq!(resp.status, RestStatus::Ok);

        // Unauthorized client is denied by the owning partition.
        c.register_client("eve");
        let resp = c.handle("eve", ClientRequest::new(RestRequest::get("users/alice")));
        assert_eq!(resp.status, RestStatus::PolicyDenied);

        // Async put + poll through the cluster-scoped operation id.
        let resp = c.handle(
            "alice",
            ClientRequest::new(RestRequest::put("users/alice", b"v2".to_vec()).asynchronous()),
        );
        assert_eq!(resp.status, RestStatus::Accepted);
        let op = resp.operation_id.unwrap();
        c.drain_async();
        let resp = c.handle(
            "alice",
            ClientRequest::new(RestRequest::new(RestMethod::PollResult, op.to_string())),
        );
        assert_eq!(resp.status, RestStatus::Ok);

        // Transactions over REST run the two-phase path.
        let resp = c.handle(
            "alice",
            ClientRequest::new(RestRequest::new(RestMethod::CreateTx, "")),
        );
        let tx: u64 = String::from_utf8(resp.value).unwrap().parse().unwrap();
        let mut add = RestRequest::new(RestMethod::AddWrite, "tx/a").in_tx(tx);
        add.value = b"1".to_vec();
        let resp = c.handle("alice", ClientRequest::new(add));
        assert_eq!(resp.status, RestStatus::Ok);
        let resp = c.handle(
            "alice",
            ClientRequest::new(RestRequest::new(RestMethod::CommitTx, "").in_tx(tx)),
        );
        assert_eq!(resp.status, RestStatus::Ok);

        // Status aggregates every partition.
        let resp = c.handle(
            "alice",
            ClientRequest::new(RestRequest::new(RestMethod::Status, "")),
        );
        assert_eq!(resp.status, RestStatus::Ok);
        assert!(String::from_utf8(resp.value)
            .unwrap()
            .contains("3 partitions"));

        // Missing object is NotFound, same mapping as the controller.
        let resp = c.handle("alice", ClientRequest::new(RestRequest::get("missing")));
        assert_eq!(resp.status, RestStatus::NotFound);
    }

    #[test]
    fn sibling_keys_co_route_and_cross_the_same_migrations() {
        let c = cluster(4);
        c.register_client("alice");
        for base in ["doc", "a.b", "deep/dir/obj", "x"] {
            let log = format!("{base}.log");
            let v2 = format!("{base}.v2");
            assert_eq!(c.partition_of(base), c.partition_of(&log), "{base}");
            assert_eq!(c.partition_of(base), c.partition_of(&v2), "{base}");
            for key in [base, log.as_str(), v2.as_str()] {
                c.put("alice", key, key.as_bytes(), None, None, &[])
                    .unwrap();
            }
        }
        // Co-routing survives growth and shrink: after each change the
        // whole group lives on one (identical) partition and round-trips.
        c.add_controller().unwrap();
        c.remove_controller(0).unwrap();
        for base in ["doc", "a.b", "deep/dir/obj", "x"] {
            let log = format!("{base}.log");
            let v2 = format!("{base}.v2");
            assert_eq!(c.partition_of(base), c.partition_of(&log), "{base}");
            assert_eq!(c.partition_of(base), c.partition_of(&v2), "{base}");
            for key in [base, log.as_str(), v2.as_str()] {
                assert_eq!(&**c.get("alice", key, &[]).unwrap().0, key.as_bytes());
            }
        }
    }

    #[test]
    fn delimiter_edge_keys_route_by_full_key_and_survive_rebalance() {
        use pesos_core::{key_hash, routing_hash};
        let c = cluster(3);
        c.register_client("alice");
        // No delimiter, leading delimiter (empty prefix), delimiter-only,
        // trailing delimiter, and a plain nested key: the first three must
        // route by their full key, and all of them must round-trip through
        // the export/import drains a topology change runs.
        let keys = [".log", ".", "plain", "nested/dir/key", "tail."];
        for key in [".log", ".", "plain", "nested/dir/key"] {
            assert_eq!(
                routing_hash(key, Some('.')),
                key_hash(key),
                "{key} must route by its full key"
            );
        }
        // A trailing delimiter groups with its prefix instead.
        assert_eq!(routing_hash("tail.", Some('.')), key_hash("tail"));
        for key in keys {
            c.put(
                "alice",
                key,
                format!("v:{key}").into_bytes(),
                None,
                None,
                &[],
            )
            .unwrap();
        }
        c.add_controller().unwrap();
        c.add_controller().unwrap();
        c.remove_controller(1).unwrap();
        c.remove_controller(0).unwrap();
        let controllers = c.controllers();
        for key in keys {
            assert_eq!(
                &**c.get("alice", key, &[]).unwrap().0,
                format!("v:{key}").as_bytes()
            );
            let owner = c.partition_of(key);
            for (i, controller) in controllers.iter().enumerate() {
                assert_eq!(
                    controller.store().get_metadata(key).is_some(),
                    i == owner,
                    "{key} misplaced on partition {i}"
                );
            }
        }
        // And they can still be deleted and re-created afterwards.
        c.delete("alice", ".", &[]).unwrap();
        assert!(c.get("alice", ".", &[]).is_err());
        c.put("alice", ".", b"again", None, None, &[]).unwrap();
        assert_eq!(&**c.get("alice", ".", &[]).unwrap().0, b"again");
    }

    #[test]
    fn add_controller_splits_the_most_loaded_partition_at_a_weighted_point() {
        let c = cluster(2);
        c.register_client("alice");
        // Craft a strong imbalance: many keys on one partition, a handful
        // on the other.
        let mut heavy_keys = Vec::new();
        let mut light_keys = Vec::new();
        let mut i = 0usize;
        while heavy_keys.len() < 120 || light_keys.len() < 8 {
            let key = format!("load/{i}");
            i += 1;
            match c.partition_of(&key) {
                0 if heavy_keys.len() < 120 => heavy_keys.push(key),
                1 if light_keys.len() < 8 => light_keys.push(key),
                _ => continue,
            };
        }
        for key in heavy_keys.iter().chain(&light_keys) {
            c.put("alice", key, b"x", None, None, &[]).unwrap();
        }
        let before = c.telemetry_snapshot(0).partitions;
        assert!(weight(&before[0]) > weight(&before[1]));
        assert_eq!(before[0].resident_objects, 120);

        c.add_controller().unwrap();
        let after = c.telemetry_snapshot(0).partitions;
        assert_eq!(after.len(), 3);
        // The joiner split partition 0 (the heavy one): it was inserted
        // right after it, partition 1's (old light partition, now index 2)
        // population is untouched, and the weighted split point divided
        // the 120 resident keys roughly in half — not the hash space.
        assert_eq!(after[2].resident_objects, 8, "light partition disturbed");
        let (kept, moved) = (after[0].resident_objects, after[1].resident_objects);
        assert_eq!(kept + moved, 120, "keys lost or duplicated by the split");
        assert!(
            (48..=72).contains(&moved),
            "weighted split moved {moved} of 120 keys (expected ~half; \
             a halve-the-range split would be arbitrarily lopsided)"
        );
    }

    #[test]
    fn remove_controller_merges_into_the_lighter_neighbour() {
        let c = cluster(3);
        c.register_client("alice");
        // Partition 0 heavy, partition 2 light, partition 1 in between —
        // removing partition 1 must merge it into partition 2.
        let counts = [60usize, 24, 4];
        let mut i = 0usize;
        let mut placed = [0usize; 3];
        while placed != counts {
            let key = format!("merge/{i}");
            i += 1;
            let p = c.partition_of(&key);
            if placed[p] < counts[p] {
                placed[p] += 1;
                c.put("alice", &key, b"x", None, None, &[]).unwrap();
            }
        }
        let before = c.telemetry_snapshot(0).partitions;
        assert!(weight(&before[2]) < weight(&before[0]));
        c.remove_controller(1).unwrap();
        let after = c.telemetry_snapshot(0).partitions;
        assert_eq!(after.len(), 2);
        assert_eq!(
            after[0].resident_objects, counts[0],
            "heavy neighbour should not have absorbed the merge"
        );
        assert_eq!(
            after[1].resident_objects,
            counts[1] + counts[2],
            "lighter neighbour should hold its keys plus the removed partition's"
        );
    }

    #[test]
    fn telemetry_snapshot_covers_every_partition() {
        let c = cluster(3);
        c.register_client("alice");
        for i in 0..12 {
            c.put(
                "alice",
                &format!("cost/{i}"),
                vec![0u8; 256],
                None,
                None,
                &[],
            )
            .unwrap();
        }
        let partitions = c.telemetry_snapshot(0).partitions;
        assert_eq!(partitions.len(), 3);
        // The ranges tile the hash space.
        let total: u128 = partitions.iter().map(|p| p.range.width()).sum();
        assert_eq!(total, u64::MAX as u128 + 1);
        for pair in partitions.windows(2) {
            assert_eq!(pair[0].range.end + 1, pair[1].range.start);
        }
        // The request counters across partitions account for the traffic.
        let requests: u64 = partitions.iter().map(|p| p.requests).sum();
        assert!(requests >= 12);
        let resident: usize = partitions.iter().map(|p| p.resident_objects).sum();
        assert_eq!(resident, 12);
        // Each partition's enclave costs are served beside them.
        let tree = c.stats_tree(0);
        for p in &partitions {
            let path = format!("partitions/{}/sgx/epc_peak_bytes", p.partition);
            assert!(pesos_telemetry::serve(&tree, &path, false).is_some());
        }
    }

    #[test]
    fn killed_partition_is_unavailable_until_promoted() {
        let c = replicated_cluster(2, 1);
        c.register_client("alice");
        let keys: Vec<String> = (0..32).map(|i| format!("fo/{i}")).collect();
        for key in &keys {
            c.put("alice", key, key.clone().into_bytes(), None, None, &[])
                .unwrap();
        }
        let dead = keys
            .iter()
            .find(|k| c.partition_of(k) == 0)
            .expect("some key routes to partition 0")
            .clone();
        let alive = keys
            .iter()
            .find(|k| c.partition_of(k) == 1)
            .expect("some key routes to partition 1")
            .clone();
        c.kill_controller(0).unwrap();
        // The failed range errors (after its capped retries); the other
        // partition keeps serving.
        assert!(matches!(
            c.get("alice", &dead, &[]),
            Err(PesosError::Unavailable(_))
        ));
        c.get("alice", &alive, &[]).unwrap();
        let retried = c.telemetry_snapshot(0).retries.request_retries;
        assert!(retried > 0, "unavailable range should have retried");
        // Promotion brings the range back with every acknowledged write.
        let promotion = c.fail_controller(0).unwrap();
        assert!(!Arc::ptr_eq(&promotion.promoted, &c.controllers()[1]));
        for key in &keys {
            let (value, _) = c.get("alice", key, &[]).unwrap();
            assert_eq!(&**value, key.as_bytes());
        }
        // And the promoted partition accepts new writes.
        c.put("alice", &dead, b"after failover", None, None, &[])
            .unwrap();
    }

    #[test]
    fn killed_partition_without_backups_is_unavailable_for_every_op() {
        let c = cluster(2);
        c.register_client("alice");
        let key = (0..64)
            .map(|i| format!("nb/{i}"))
            .find(|k| c.partition_of(k) == 0)
            .expect("some key routes to partition 0");
        c.put("alice", &key, b"v", None, None, &[]).unwrap();
        c.kill_controller(0).unwrap();
        // Nothing can be promoted, so each operation spends its whole
        // retry schedule and then reports the partition unavailable —
        // writes exactly like reads.
        let mut done = 0u64;
        let mut check = |name: &str, result: Result<(), PesosError>| {
            assert!(
                matches!(result, Err(PesosError::Unavailable(_))),
                "{name} into a killed partition must be Unavailable, got {result:?}"
            );
            done += 1;
            assert_eq!(
                c.telemetry_snapshot(0).retries.request_retries,
                done * u64::from(RETRY_ATTEMPTS - 1),
                "{name} did not run the capped retry schedule"
            );
        };
        check("put", c.put("alice", &key, b"w", None, None, &[]).map(drop));
        check(
            "put_async",
            c.put_async("alice", &key, b"w".to_vec(), None, None, &[])
                .map(drop),
        );
        check("get", c.get("alice", &key, &[]).map(drop));
        check("delete", c.delete("alice", &key, &[]));
    }

    #[test]
    fn failover_preserves_versions_deletes_and_policies() {
        let c = replicated_cluster(1, 2);
        c.register_client("alice");
        c.register_client("eve");
        let acl = c
            .put_policy(
                "alice",
                "read :- sessionKeyIs(\"alice\")\nupdate :- sessionKeyIs(\"alice\")",
            )
            .unwrap();
        c.put("alice", "k", b"v0", Some(acl), None, &[]).unwrap();
        // CAS put (expected_version names the version this write creates):
        // the log record carries the exact committed version.
        c.put("alice", "k", b"v1", None, Some(1), &[]).unwrap();
        c.put("alice", "gone", b"x", None, None, &[]).unwrap();
        c.delete("alice", "gone", &[]).unwrap();
        c.kill_controller(0).unwrap();
        c.fail_controller(0).unwrap();
        assert_eq!(c.get_version("alice", "k", 0, &[]).unwrap(), b"v0");
        let (value, version) = c.get("alice", "k", &[]).unwrap();
        assert_eq!(&**value, b"v1");
        assert_eq!(version, 1);
        assert!(matches!(
            c.get("alice", "gone", &[]),
            Err(PesosError::ObjectNotFound(_))
        ));
        // The policy body replicated with the log: the promoted backup
        // enforces it with no surviving peer to copy from.
        assert!(c.get("eve", "k", &[]).is_err());
    }

    #[test]
    fn acked_async_writes_survive_failover() {
        let c = replicated_cluster(2, 1);
        c.register_client("alice");
        let keys: Vec<String> = (0..24).map(|i| format!("async/{i}")).collect();
        let mut ops = Vec::new();
        for key in &keys {
            ops.push(
                c.put_async("alice", key, key.clone().into_bytes(), None, None, &[])
                    .unwrap(),
            );
        }
        c.drain_async();
        for op in &ops {
            assert!(matches!(
                c.poll_result("alice", *op),
                Some(AsyncResult::Completed { .. })
            ));
        }
        c.kill_controller(0).unwrap();
        c.fail_controller(0).unwrap();
        for key in &keys {
            let (value, _) = c.get("alice", key, &[]).unwrap();
            assert_eq!(&**value, key.as_bytes(), "acked async write lost");
        }
    }

    #[test]
    fn failover_resolves_in_doubt_transactions_from_the_replicated_outcome_map() {
        let c = replicated_cluster(1, 1);
        c.register_client("alice");
        let tx = c.create_tx("alice").unwrap();
        c.add_write("alice", tx, "tx/a", b"1".to_vec()).unwrap();
        c.add_write("alice", tx, "tx/b", b"2".to_vec()).unwrap();
        let outcome = c.commit_tx("alice", tx).unwrap();
        c.kill_controller(0).unwrap();
        c.fail_controller(0).unwrap();
        // The only copy of the outcome map was the failed primary's; the
        // promoted backup answers from its replicated copy.
        let resolved = c.check_results("alice", tx).unwrap();
        assert_eq!(resolved.write_versions, outcome.write_versions);
        let (value, _) = c.get("alice", "tx/a", &[]).unwrap();
        assert_eq!(&**value, b"1");
    }

    #[test]
    fn fail_controller_without_backups_is_a_typed_error() {
        let c = cluster(2);
        assert!(matches!(
            c.fail_controller(0),
            Err(PesosError::Unavailable(_))
        ));
        assert!(matches!(
            c.fail_controller(7),
            Err(PesosError::BadRequest(_))
        ));
    }

    #[test]
    fn remove_controller_refuses_on_an_unsettleable_migration_with_a_typed_error() {
        let c = cluster(3);
        c.register_client("alice");
        for i in 0..32 {
            c.put(
                "alice",
                &format!("stuck/{i}"),
                vec![1u8; 64],
                None,
                None,
                &[],
            )
            .unwrap();
        }
        // Break the departing partition's drive mid-removal: the merged
        // table installs but the drain cannot settle, so the migration
        // record stays active.
        let source = Arc::clone(&c.controllers()[0]);
        source.store().drives().get(0).unwrap().set_online(false);
        assert!(c.remove_controller(0).is_err());
        // Any further topology change now refuses with the typed error
        // (after its settle retries) instead of a generic drain fault.
        match c.remove_controller(0) {
            Err(PesosError::MigrationPending(msg)) => {
                assert!(msg.contains("pending migration"), "unhelpful: {msg}")
            }
            other => panic!("expected MigrationPending, got {other:?}"),
        }
        assert!(
            c.telemetry_snapshot(0).retries.settle_retries > 0,
            "settle never retried"
        );
        // Repair the drive: the operator settle path drains and the
        // removal goes through.
        source.store().drives().get(0).unwrap().set_online(true);
        c.settle_pending_migrations().unwrap();
        c.remove_controller(0).unwrap();
        assert_eq!(c.partition_count(), 1);
        for i in 0..32 {
            c.get("alice", &format!("stuck/{i}"), &[]).unwrap();
        }
    }

    #[test]
    fn removing_the_last_controller_has_a_clear_error() {
        let c = cluster(1);
        match c.remove_controller(0) {
            Err(PesosError::BadRequest(msg)) => {
                assert!(msg.contains("1-controller"), "unhelpful: {msg}")
            }
            other => panic!("expected BadRequest, got {other:?}"),
        }
    }

    #[test]
    fn fail_controller_refuses_while_a_migration_involves_the_partition() {
        let c = replicated_cluster(2, 1);
        c.register_client("alice");
        for i in 0..32 {
            c.put("alice", &format!("mig/{i}"), vec![2u8; 64], None, None, &[])
                .unwrap();
        }
        // Strand a migration: break the source drive mid-removal.
        let controllers = c.controllers();
        controllers[0]
            .store()
            .drives()
            .get(0)
            .unwrap()
            .set_online(false);
        assert!(c.remove_controller(0).is_err());
        match c.fail_controller(0) {
            Err(PesosError::MigrationPending(_)) => {}
            other => panic!("expected MigrationPending, got {other:?}"),
        }
        controllers[0]
            .store()
            .drives()
            .get(0)
            .unwrap()
            .set_online(true);
        c.settle_pending_migrations().unwrap();
    }

    #[test]
    fn retry_counters_ride_the_telemetry_snapshot() {
        let c = replicated_cluster(2, 1);
        c.register_client("alice");
        let key = (0..64)
            .map(|i| format!("rc/{i}"))
            .find(|k| c.partition_of(k) == 0)
            .expect("some key routes to partition 0");
        c.put("alice", &key, b"v", None, None, &[]).unwrap();
        assert_eq!(c.telemetry_snapshot(0).retries, RetryStats::default());
        c.kill_controller(0).unwrap();
        let _ = c.get("alice", &key, &[]);
        c.fail_controller(0).unwrap();
        let retries = c.telemetry_snapshot(0).retries;
        assert!(retries.request_retries > 0);
        // `/stats/retries` serves the same reading.
        let served = pesos_telemetry::serve(&c.stats_tree(0), "retries/request_retries", false);
        assert_eq!(
            served.as_deref().map(str::trim),
            Some(retries.request_retries.to_string().as_str())
        );
    }
}
