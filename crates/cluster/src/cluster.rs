//! The multi-controller cluster: routing, cross-partition transactions and
//! online rebalancing.
//!
//! This file holds the data model — configuration, the routing snapshot,
//! migration records, telemetry counters and [`ControllerCluster`] itself —
//! with its constructor, topology accessors and the clients' state its
//! controllers share (`pesos_core::ClientState`). The behaviour lives in
//! one sub-module per lock-rank band, each owning one invariant:
//!
//! * `routing` (ops gate and routing state, ranks 20–36) — every routed
//!   operation runs entirely under one topology, retried with capped
//!   backoff while its partition is unavailable.
//! * `migration` (migration stripes and state, ranks 40–45) — no key is
//!   lost, resurrected or observed half-moved by a topology change.
//! * `tx` (open-transaction and VLL lock tables, ranks 72–74) — every branch
//!   prepares before any branch commits.
//! * `failover` (the partitions' logs, ranks 80–82) — an acknowledged
//!   write is in the partition's log before the ack escapes. Each log
//!   rides in its partition's routing-table entry, so the snapshot that
//!   routed a write is also how the write reaches its log.
//! * `rest` — REST dispatch and the [`pesos_core::RequestEndpoint`]
//!   surface over the operations above.
//! * `stats` — the `/stats` readout: one ordered list of groups, each
//!   rendered by the owner of its counters.

use std::collections::BTreeSet;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use parking_lot::{lock_order, Mutex, RwLock};
use pesos_core::sharded::Sharded;
use pesos_core::{ClientState, ControllerConfig, HashedKey, PesosController, PesosError};
use pesos_policy::PolicyId;
use pesos_sgx::HostPool;
use pesos_telemetry::{HotKeyTracker, OpHistograms, WindowedCounter};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::router::{HashRange, Partition, PartitionTable};
use crate::twopc::ClusterTxManager;

mod failover;
mod migration;
mod rest;
mod routing;
mod stats;
#[cfg(test)]
mod tests;
mod tx;

use routing::RETRY_JITTER_SEED;

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
    /// Backup stores per partition. `0` (the default) disables
    /// replication entirely: no backup stores, no logs, and
    /// [`ControllerCluster::fail_controller`] refuses — exactly the
    /// pre-replication behavior. With `n > 0` every partition primary
    /// streams the drive batches it writes to `n` backup stores and can
    /// fail over onto the freshest one, whose controller is built then.
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

/// An in-progress hash-range migration between two partitions. Each side
/// carries its log: a pull appends its import (and any policy copied
/// alongside it) to the destination's, and its source-side delete to the
/// source's, so both sides' backups follow the move.
struct Migration {
    range: HashRange,
    src: Partition,
    dst: Partition,
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
}

/// One immutable snapshot of everything a request needs to route: the
/// partition table plus the set of in-flight migrations. Held behind one
/// `RwLock<Arc<…>>` so a request can never observe a table flip without the
/// matching migration record (the gap either way would lose keys).
struct RoutingState {
    table: PartitionTable,
    migrations: Vec<Arc<Migration>>,
}

/// Cluster-wide counters of the capped-exponential retry paths, served
/// under `/stats/retries`. Windowed so `/stats/reset` restarts the
/// reported counts without losing the lifetime totals.
#[derive(Default)]
struct RetryCounters {
    /// Demand pulls attempted (first tries included).
    demand_pull_attempts: WindowedCounter,
    /// Demand pulls that needed at least one retry.
    demand_pull_retries: WindowedCounter,
    /// Migration-settle attempts that were retried after a drain error.
    settle_retries: WindowedCounter,
    /// Requests re-routed after hitting an unavailable controller.
    request_retries: WindowedCounter,
}

impl RetryCounters {
    /// Each counter under its `/stats/retries` name.
    fn named(&self) -> [(&'static str, &WindowedCounter); 4] {
        [
            ("demand_pull_attempts", &self.demand_pull_attempts),
            ("demand_pull_retries", &self.demand_pull_retries),
            ("settle_retries", &self.settle_retries),
            ("request_retries", &self.request_retries),
        ]
    }

    fn reset_window(&self) {
        for (_, counter) in self.named() {
            counter.reset_window();
        }
    }
}

/// Cluster-level telemetry: end-to-end per-operation latency histograms
/// (including routing, demand pulls and retries — the controller's own
/// histograms time only the owner's work), windowed hot-group counters
/// feeding the weighted split point and `/stats/groups/hot`, and drain
/// checkpoint gauges. Atomics only: recording on the request path takes
/// no lock. Recording follows the clients' telemetry switch
/// ([`ControllerCluster::set_telemetry_enabled`]).
struct ClusterTelemetry {
    ops: OpHistograms,
    hot: HotKeyTracker,
    /// Placement groups a drain did not have to re-drain because the
    /// migration's settled-group memo already proved them gone from the
    /// source (counted at the start of each drain pass).
    drain_group_skips: WindowedCounter,
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
/// complete Pesos instance (own enclave, own drives, own caches); they
/// share one [`ClientState`] — sessions, clock, telemetry switch and async
/// results — so any partition serves any registered client, and an async
/// operation id polls through the cluster whichever controller issued it.
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
/// cluster transaction id (controllers number no transactions of their
/// own), which makes `check_results` work from any router.
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
/// request straddles the swap; the source's deferred asynchronous writes
/// (host-pool calls) are flushed under that same write hold, so an
/// accepted `put_async` can never land (and log) after a demand pull has
/// already moved its key. The moved range then drains on the cluster's
/// host pool, up to [`ClusterConfig::drain_concurrency`] placement groups
/// in flight: each object is
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
    /// during a migration. Arc'd so the drain's lanes can carry the
    /// stripes into their asyscall closures.
    migration_locks: Arc<Sharded<Mutex<()>>>,
    /// Width of the drain (see [`ClusterConfig::drain_concurrency`]).
    drain_concurrency: usize,
    /// The host I/O pool every controller of the cluster submits to:
    /// primaries, their backups and joiners alike, so one hot service
    /// thread serves them all (`pesos_sgx::asyscall`, "One host pool").
    pool: Arc<HostPool>,
    /// The clients' state every controller of the cluster holds.
    clients: Arc<ClientState>,
    /// Every policy installed through the cluster, for copying the full
    /// set onto joining controllers (policies broadcast on install would
    /// otherwise exist only on the partitions present at install time, and
    /// removing the last original holder would lose them).
    policies: Mutex<BTreeSet<PolicyId>>,
    tx: ClusterTxManager,
    template: ControllerConfig,
    /// Backups a joining partition's log is spawned with (see
    /// [`ClusterConfig::backups_per_partition`]); read nowhere else.
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
        // Room for the slots of as many members again: joiners bring
        // theirs too.
        let members = config.controllers * (1 + config.backups_per_partition);
        let pool = HostPool::new(2 * members * config.controller.syscall_slots());
        let shards = config.controller.lock_shards;
        let clients = Arc::new(ClientState::new(shards));
        let owners = (0..config.controllers)
            .map(|_| {
                let controller = Arc::new(PesosController::with_pool(
                    config.controller.clone(),
                    &pool,
                    &clients,
                )?);
                let log = Self::spawn_log(
                    &controller,
                    &config.controller,
                    config.backups_per_partition,
                    &pool,
                )?;
                Ok((controller, log))
            })
            .collect::<Result<Vec<_>, PesosError>>()?;
        Ok(ControllerCluster {
            routing: RwLock::with_rank(
                lock_order::ROUTING_STATE,
                Arc::new(RoutingState {
                    table: PartitionTable::even_with_logs(owners)?,
                    migrations: Vec::new(),
                }),
            ),
            ops_gate: RwLock::with_rank(lock_order::OPS_GATE, ()),
            rebalance: Mutex::with_rank(lock_order::CLUSTER_TOPOLOGY, ()),
            migration_locks: Arc::new(Sharded::new_indexed(shards, |i| {
                Mutex::with_rank_indexed(lock_order::MIGRATION_STRIPE, i, ())
            })),
            drain_concurrency: config.drain_concurrency,
            pool,
            clients,
            policies: Mutex::with_rank(lock_order::CLUSTER_POLICIES, BTreeSet::new()),
            tx: ClusterTxManager::new(),
            template: config.controller,
            backups_per_partition: config.backups_per_partition,
            retry_rng: Mutex::with_rank(
                lock_order::RETRY_RNG,
                StdRng::seed_from_u64(RETRY_JITTER_SEED),
            ),
            retries: RetryCounters::default(),
            telemetry: ClusterTelemetry {
                ops: OpHistograms::new(),
                hot: HotKeyTracker::new(HOT_GROUP_SLOTS),
                drain_group_skips: WindowedCounter::new(),
            },
        })
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

    /// Restarts every windowed telemetry reading — the `/stats/reset`
    /// hook: cluster and per-controller latency histograms, hot-group
    /// counters, retry counters and the drain-skip tally. Lifetime-style
    /// gauges (replication lag, resident objects, digest compressions,
    /// migration progress) are unaffected, and so is the partition load
    /// window (`partitions/<i>/requests`): it is the rebalancer's input
    /// and restarts at a topology change, not when somebody reads stats.
    pub fn reset_window(&self) {
        self.telemetry.ops.reset_window();
        self.telemetry.hot.reset_window();
        self.telemetry.drain_group_skips.reset_window();
        self.retries.reset_window();
        let routing = self.routing.read().clone();
        for partition in routing.table.partitions() {
            partition.controller.reset_telemetry_window();
        }
    }

    /// Switches telemetry recording (latency histograms, hot-group
    /// counters) on or off at runtime for the cluster and every controller
    /// it runs, joiners included: they share one switch, flipped without a
    /// restart or a request-path lock. Counters keep their values across
    /// an off/on cycle.
    pub fn set_telemetry_enabled(&self, on: bool) {
        self.clients.set_telemetry_enabled(on);
    }

    /// Registers a client; every controller of the cluster serves it.
    pub fn register_client(&self, client_id: &str) -> String {
        self.clients.connect(client_id, client_id);
        client_id.to_string()
    }

    /// Sets the logical time of the cluster's clients.
    pub fn set_time(&self, now: u64) {
        self.clients.set_time(now);
    }

    /// The logical time of the cluster's clients.
    pub fn now(&self) -> u64 {
        self.clients.now()
    }

    /// Expires idle sessions; returns how many were dropped.
    pub fn expire_sessions(&self) -> usize {
        self.clients.expire()
    }

    fn require_client(&self, client_id: &str) -> Result<(), PesosError> {
        if self.clients.sessions.contains(client_id) {
            Ok(())
        } else {
            Err(PesosError::NoSession(client_id.to_string()))
        }
    }
}

impl Drop for ControllerCluster {
    fn drop(&mut self) {
        // Join every log's shipper threads; a still-running shipper holds
        // Arcs to its backups and would outlive the cluster retrying
        // against stores nobody can observe anymore. A removal that never
        // settled keeps its source partition (and log) only in its
        // migration record.
        let routing = self.routing.get_mut();
        let migrating = routing.migrations.iter().map(|m| &m.src);
        for partition in routing.table.partitions().chain(migrating) {
            partition.stop_log();
        }
    }
}
