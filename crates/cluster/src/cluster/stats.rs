//! The cluster's `/stats` observability surface.
//!
//! Everything the cluster records — per-operation latency histograms,
//! hot-group counters, retry counters, replication and migration gauges,
//! per-partition controller telemetry and the process-wide SHA-256
//! compression tally — is readable two ways:
//!
//! * [`ControllerCluster::telemetry_snapshot`]: a point-in-time, plain-data
//!   snapshot for programmatic consumers (tests, benchmarks, operators
//!   embedding the cluster).
//! * [`ControllerCluster::stats_tree`]: the same data rendered as the
//!   hierarchical attribute tree the REST `/stats` endpoint serves (path
//!   grammar documented on [`pesos_telemetry`]). Examples:
//!
//! ```text
//! /stats                                  the whole tree
//! /stats/partitions/0/replication/lag     slowest-backup lag, bare value
//! /stats/groups/hot?top=16                the 16 hottest placement groups
//! /stats/ops/put/p99_us                   cluster-level put p99 (µs)
//! /stats/host_pool/parks                  service-thread sleeps, all members
//! /stats/reset                            restart the telemetry windows
//! ```
//!
//! Reading is snapshot-then-render: the live atomics are read without any
//! request-path lock, and the locks that are taken (routing snapshot,
//! migration state) are acquired one at a time, never nested.

use std::sync::atomic::Ordering;

use pesos_sgx::{AsyscallStats, PoolStats};
use pesos_telemetry::{histogram_node, HistogramSnapshot, HotGroup, OpKind, StatsNode};

use super::{ControllerCluster, RetryStats, RoutingState};
use crate::replication::ReplicationStats;
use crate::router::HashRange;

/// Default number of groups served under `/stats/groups/hot` when the
/// request carries no `top=` parameter.
pub const DEFAULT_TOP_GROUPS: usize = 16;

/// Point-in-time view of one partition, as served under
/// `/stats/partitions/<i>`.
#[derive(Debug, Clone)]
pub struct PartitionTelemetry {
    /// Partition index in the current table.
    pub partition: usize,
    /// The hash range the partition owns.
    pub range: HashRange,
    /// Objects resident on the partition.
    pub resident_objects: usize,
    /// Requests served since the last topology change or window reset.
    pub requests: u64,
    /// Replication gauges, when the partition has a replica set.
    pub replication: Option<ReplicationStats>,
    /// The primary's system-call counters: its calls are the ones it
    /// handed to the host pool (`submitted`) plus the ones it ran itself
    /// as enclave exits (`exits`).
    pub asyscall: AsyscallStats,
}

/// Point-in-time view of one in-flight migration, as served under
/// `/stats/migrations/<i>`.
#[derive(Debug, Clone)]
pub struct MigrationTelemetry {
    /// The hash range being moved.
    pub range: HashRange,
    /// Objects imported at the destination so far (drain and demand pulls
    /// combined).
    pub keys_moved: u64,
    /// Moved objects whose source-side delete is still outstanding.
    pub pending_deletes: usize,
    /// Placement groups known to have fully left the source — the drain
    /// checkpoint memo.
    pub settled_groups: usize,
}

/// One consistent-enough reading of the cluster's whole telemetry
/// surface. Counters are sampled independently (each is one relaxed
/// atomic load), so cross-counter relations hold only approximately
/// under concurrent traffic — the same caveat as every metrics snapshot
/// in the workspace.
#[derive(Debug, Clone)]
pub struct TelemetrySnapshot {
    /// Whether recording is enabled
    /// ([`ControllerCluster::set_telemetry_enabled`]).
    pub enabled: bool,
    /// Per-partition gauges, in partition order.
    pub partitions: Vec<PartitionTelemetry>,
    /// Cluster-level per-operation latency windows, in display order.
    pub ops: Vec<(OpKind, HistogramSnapshot)>,
    /// The hottest placement groups of the current window, hottest first.
    pub hot_groups: Vec<HotGroup>,
    /// Distinct groups holding a tracker slot.
    pub hot_tracked: usize,
    /// Records that fell into the tracker's overflow tally.
    pub hot_overflowed: u64,
    /// Total windowed operations across all tracked groups.
    pub hot_total_ops: u64,
    /// Windowed retry counters.
    pub retries: RetryStats,
    /// In-flight migrations, oldest first.
    pub migrations: Vec<MigrationTelemetry>,
    /// Placement groups drains did not have to re-drive because the
    /// settled-group memo already proved them moved.
    pub drain_group_skips: u64,
    /// Process-wide SHA-256 compression-function invocations
    /// ([`pesos_crypto::sha256::ops`]).
    pub digest_compressions: u64,
    /// Open (buffered, not yet committed or aborted) cluster transactions.
    pub open_txs: usize,
    /// The host I/O pool's service-side counters
    /// ([`ControllerCluster::host_pool_stats`]).
    pub host_pool: PoolStats,
}

impl ControllerCluster {
    /// Takes a point-in-time [`TelemetrySnapshot`]; `top` bounds the
    /// hot-group listing. No request-path lock is held while sampling.
    pub fn telemetry_snapshot(&self, top: usize) -> TelemetrySnapshot {
        self.telemetry_of(&self.routing.read().clone(), top)
    }

    /// [`ControllerCluster::telemetry_snapshot`] under one given routing
    /// snapshot.
    fn telemetry_of(&self, routing: &RoutingState, top: usize) -> TelemetrySnapshot {
        let loads = self.loads_of(&routing.table);
        let partitions = routing
            .table
            .partitions()
            .zip(routing.table.ranges())
            .enumerate()
            .map(|(i, (p, range))| PartitionTelemetry {
                partition: i,
                range,
                resident_objects: p.controller.store().resident_object_count(),
                requests: loads.get(i).map(|l| l.requests).unwrap_or(0),
                replication: p.log.as_ref().map(|log| log.stats()),
                asyscall: p.controller.store().asyscall_stats(),
            })
            .collect();
        // One MIGRATION_STATE-ranked guard per statement: taken as
        // temporaries in a single expression they would overlap, and
        // same-rank overlap is exactly what the lock hierarchy forbids.
        let mut migrations = Vec::with_capacity(routing.migrations.len());
        for m in routing.migrations.iter() {
            let pending_deletes = m.moved_pending_delete.lock().len();
            let settled_groups = m.settled_groups.lock().len();
            migrations.push(MigrationTelemetry {
                range: m.range,
                keys_moved: m.keys_moved.load(Ordering::Relaxed),
                pending_deletes,
                settled_groups,
            });
        }
        TelemetrySnapshot {
            enabled: self.clients.telemetry_enabled(),
            partitions,
            ops: self.telemetry.ops.snapshots(),
            hot_groups: self.telemetry.hot.top(top),
            hot_tracked: self.telemetry.hot.tracked(),
            hot_overflowed: self.telemetry.hot.overflowed(),
            hot_total_ops: self.telemetry.hot.total(),
            retries: self.retries.snapshot(),
            migrations,
            drain_group_skips: self.telemetry.drain_group_skips.windowed(),
            digest_compressions: pesos_crypto::sha256::ops::compressions(),
            open_txs: self.tx.open_count(),
            host_pool: self.host_pool_stats(),
        }
    }

    /// Renders the cluster's whole telemetry surface as the hierarchical
    /// attribute tree `/stats` serves; `top` bounds `groups/hot`. Each
    /// partition's subtree embeds the controller's own
    /// [`pesos_core::PesosController::stats_tree`] (its `metrics/`,
    /// `latency/`, `sgx/` and `store/` directories) alongside the
    /// cluster-level range, request and replication gauges — all read
    /// from one routing snapshot, so a concurrent topology change can never
    /// pair one partition's range with another partition's controller.
    pub fn stats_tree(&self, top: usize) -> StatsNode {
        let routing = self.routing.read().clone();
        let snapshot = self.telemetry_of(&routing, top);

        let mut partitions = StatsNode::dir();
        for (p, partition) in snapshot.partitions.iter().zip(routing.table.partitions()) {
            // Start from the controller's own tree so partition paths
            // reach its metrics/latency/sgx attributes directly.
            let mut node = partition.controller.stats_tree();
            node.insert(
                "range",
                StatsNode::dir()
                    .with("start", StatsNode::leaf(p.range.start))
                    .with("end", StatsNode::leaf(p.range.end)),
            );
            node.insert("requests", StatsNode::leaf(p.requests));
            if let Some(r) = &p.replication {
                let mut applied = StatsNode::dir();
                for (j, a) in r.applied.iter().enumerate() {
                    applied.insert(j.to_string(), StatsNode::leaf(a));
                }
                let backups = |count: fn(&AsyscallStats) -> u64| -> u64 {
                    r.backup_asyscalls.iter().map(count).sum()
                };
                node.insert(
                    "replication",
                    StatsNode::dir()
                        .with("backups", StatsNode::leaf(r.applied.len()))
                        .with("appended", StatsNode::leaf(r.appended))
                        .with("lag", StatsNode::leaf(r.max_lag()))
                        .with("stalls", StatsNode::leaf(r.stalls))
                        .with("applied", applied)
                        .with(
                            "backup_asyscalls_submitted",
                            StatsNode::leaf(backups(|a| a.submitted)),
                        )
                        .with(
                            "backup_asyscall_exits",
                            StatsNode::leaf(backups(|a| a.exits)),
                        )
                        .with(
                            "backup_asyscall_batches",
                            StatsNode::leaf(backups(|a| a.batches)),
                        )
                        .with(
                            "backup_asyscall_parks",
                            StatsNode::leaf(backups(|a| a.parks)),
                        )
                        .with(
                            "backup_drive_batches",
                            StatsNode::leaf(r.backup_drive_batches.iter().sum::<u64>()),
                        ),
                );
            }
            partitions.insert(p.partition.to_string(), node);
        }

        let mut hot = StatsNode::dir();
        for group in &snapshot.hot_groups {
            hot.insert(group.group.clone(), StatsNode::leaf(group.ops));
        }
        let groups = StatsNode::dir()
            .with("hot", hot)
            .with("tracked", StatsNode::leaf(snapshot.hot_tracked))
            .with("overflowed", StatsNode::leaf(snapshot.hot_overflowed))
            .with("total_ops", StatsNode::leaf(snapshot.hot_total_ops));

        let mut ops = StatsNode::dir();
        for (kind, hist) in &snapshot.ops {
            ops.insert(kind.as_str(), histogram_node(hist));
        }

        let mut migrations = StatsNode::dir()
            .with("active", StatsNode::leaf(snapshot.migrations.len()))
            .with(
                "drain_group_skips",
                StatsNode::leaf(snapshot.drain_group_skips),
            );
        for (i, m) in snapshot.migrations.iter().enumerate() {
            migrations.insert(
                i.to_string(),
                StatsNode::dir()
                    .with(
                        "range",
                        StatsNode::dir()
                            .with("start", StatsNode::leaf(m.range.start))
                            .with("end", StatsNode::leaf(m.range.end)),
                    )
                    .with("keys_moved", StatsNode::leaf(m.keys_moved))
                    .with("pending_deletes", StatsNode::leaf(m.pending_deletes))
                    .with("settled_groups", StatsNode::leaf(m.settled_groups)),
            );
        }

        StatsNode::dir()
            .with(
                "cluster",
                StatsNode::dir()
                    .with("partitions", StatsNode::leaf(snapshot.partitions.len()))
                    .with("open_txs", StatsNode::leaf(snapshot.open_txs))
                    .with("telemetry_enabled", StatsNode::leaf(snapshot.enabled)),
            )
            .with("ops", ops)
            .with("partitions", partitions)
            .with("groups", groups)
            .with(
                "retries",
                StatsNode::dir()
                    .with(
                        "demand_pull_attempts",
                        StatsNode::leaf(snapshot.retries.demand_pull_attempts),
                    )
                    .with(
                        "demand_pull_retries",
                        StatsNode::leaf(snapshot.retries.demand_pull_retries),
                    )
                    .with(
                        "settle_retries",
                        StatsNode::leaf(snapshot.retries.settle_retries),
                    )
                    .with(
                        "request_retries",
                        StatsNode::leaf(snapshot.retries.request_retries),
                    ),
            )
            .with("migrations", migrations)
            .with(
                "host_pool",
                StatsNode::dir()
                    .with("threads", StatsNode::leaf(snapshot.host_pool.threads))
                    .with("slots", StatsNode::leaf(snapshot.host_pool.slots))
                    .with("completed", StatsNode::leaf(snapshot.host_pool.completed))
                    .with(
                        "max_concurrency",
                        StatsNode::leaf(snapshot.host_pool.max_concurrency),
                    )
                    .with("parks", StatsNode::leaf(snapshot.host_pool.parks)),
            )
            .with(
                "digests",
                StatsNode::dir().with(
                    "compressions",
                    StatsNode::leaf(snapshot.digest_compressions),
                ),
            )
    }
}
