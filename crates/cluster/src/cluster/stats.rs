//! The cluster's `/stats` readout.
//!
//! Everything the cluster records — per-operation latency histograms,
//! hot-group counters, retry counters, replication and migration gauges,
//! per-partition controller telemetry, the host pool and the process-wide
//! SHA-256 compression tally — is read one way: as the hierarchical
//! attribute tree the REST `/stats` endpoint serves (path grammar
//! documented on [`pesos_telemetry`]). The tree is `GROUPS`, one ordered
//! list of top-level groups (the sysfs `AttributeGroup` idiom: a group has
//! a name and attributes), each rendered by the owner of its counters
//! straight from its live atomics: `ClusterTelemetry` renders `ops/` and
//! `groups/`, `RetryCounters` `retries/`, each migration record its entry
//! under `migrations/`, and each partition's controller and log their
//! subtrees under `partitions/<i>`.
//! [`ControllerCluster::stats_tree`] renders every group; REST dispatch
//! renders only the group its path's first segment names. Examples:
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
//! Reading takes no request-path lock: the atomics are read relaxed, and
//! the locks that are taken (routing snapshot, migration state) are
//! acquired one at a time, never nested.

use std::sync::atomic::Ordering;

use pesos_sgx::HostPool;
use pesos_telemetry::{escape_name, ops_node, StatsNode};

use super::{ClusterTelemetry, ControllerCluster, Migration, RetryCounters, RoutingState};
use crate::router::{HashRange, PartitionTable};

/// Default number of groups served under `/stats/groups/hot` when the
/// request carries no `top=` parameter.
pub(super) const DEFAULT_TOP_GROUPS: usize = 16;

/// How one top-level group renders: from the cluster under one routing
/// snapshot, with `top` bounding `groups/hot`.
type Render = fn(&ControllerCluster, &RoutingState, usize) -> StatsNode;

/// The tree's top-level groups, in rendering order.
const GROUPS: [(&str, Render); 8] = [
    ("cluster", |c, routing, _| {
        StatsNode::dir()
            .with("partitions", StatsNode::leaf(routing.table.len()))
            .with("open_txs", StatsNode::leaf(c.tx.open_count()))
            .with(
                "telemetry_enabled",
                StatsNode::leaf(c.clients.telemetry_enabled()),
            )
    }),
    ("ops", |c, _, _| ops_node(&c.telemetry.ops)),
    ("partitions", |_, routing, _| {
        partitions_node(&routing.table)
    }),
    ("groups", |c, _, top| c.telemetry.groups_node(top)),
    ("retries", |c, _, _| c.retries.stats_node()),
    ("migrations", |c, routing, _| c.migrations_node(routing)),
    ("host_pool", |c, _, _| host_pool_node(&c.pool)),
    ("digests", |_, _, _| {
        StatsNode::dir().with(
            "compressions",
            StatsNode::leaf(pesos_crypto::sha256::ops::compressions()),
        )
    }),
];

impl ControllerCluster {
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
        let mut tree = StatsNode::dir();
        for (name, render) in GROUPS {
            tree.insert(name, render(self, &routing, top));
        }
        tree
    }

    /// Serves `/stats/<path>` (already split from its query): renders the
    /// top-level group the path's first segment names, or the whole tree
    /// for the empty path, and resolves the rest of the path in it. `None`
    /// when the path does not resolve.
    pub(super) fn serve_stats(&self, path: &str, top: usize, flat: bool) -> Option<String> {
        let path = path.trim_start_matches('/');
        let (name, rest) = path.split_once('/').unwrap_or((path, ""));
        let node = if name.is_empty() {
            self.stats_tree(top)
        } else {
            let (_, render) = GROUPS.iter().find(|(group, _)| *group == name)?;
            render(self, &self.routing.read().clone(), top)
        };
        pesos_telemetry::serve(&node, rest, flat)
    }

    /// `migrations/`: how many are in flight, the drain-skip tally, and
    /// each in-flight migration's entry, oldest first.
    fn migrations_node(&self, routing: &RoutingState) -> StatsNode {
        let mut node = StatsNode::dir()
            .with("active", StatsNode::leaf(routing.migrations.len()))
            .with(
                "drain_group_skips",
                StatsNode::leaf(self.telemetry.drain_group_skips.windowed()),
            );
        for (i, migration) in routing.migrations.iter().enumerate() {
            node.insert(i.to_string(), migration.stats_node());
        }
        node
    }
}

/// `partitions/`: each partition's controller subtree with its hash range,
/// the requests of its load window (the rebalancer's input) and, when it
/// has backups, its log's `replication/` group.
fn partitions_node(table: &PartitionTable) -> StatsNode {
    let mut partitions = StatsNode::dir();
    for (i, (partition, range)) in table.partitions().zip(table.ranges()).enumerate() {
        // Start from the controller's own tree so partition paths
        // reach its metrics/latency/sgx attributes directly.
        let mut node = partition.controller.stats_tree();
        node.insert("range", range_node(range));
        node.insert(
            "requests",
            StatsNode::leaf(partition.controller.request_load().windowed()),
        );
        if let Some(log) = &partition.log {
            node.insert("replication", log.stats_node());
        }
        partitions.insert(i.to_string(), node);
    }
    partitions
}

/// `host_pool/`: the service side of the pool every member submits to
/// (each member's own submissions are under its partition).
fn host_pool_node(pool: &HostPool) -> StatsNode {
    let pool = pool.stats();
    StatsNode::dir()
        .with("threads", StatsNode::leaf(pool.threads))
        .with("slots", StatsNode::leaf(pool.slots))
        .with("completed", StatsNode::leaf(pool.completed))
        .with("max_concurrency", StatsNode::leaf(pool.max_concurrency))
        .with("parks", StatsNode::leaf(pool.parks))
}

/// A hash range's `start` and `end`.
fn range_node(range: HashRange) -> StatsNode {
    StatsNode::dir()
        .with("start", StatsNode::leaf(range.start))
        .with("end", StatsNode::leaf(range.end))
}

impl ClusterTelemetry {
    /// `groups/`: the `top` hottest placement groups of the window, hottest
    /// first, and the tracker's occupancy. A group's name is its clients'
    /// key prefix, so it is listed escaped ([`escape_name`]): every
    /// listed name resolves back as one path segment.
    fn groups_node(&self, top: usize) -> StatsNode {
        let mut hot = StatsNode::dir();
        for group in self.hot.top(top) {
            hot.insert(escape_name(&group.group), StatsNode::leaf(group.ops));
        }
        StatsNode::dir()
            .with("hot", hot)
            .with("tracked", StatsNode::leaf(self.hot.tracked()))
            .with("overflowed", StatsNode::leaf(self.hot.overflowed()))
            .with("total_ops", StatsNode::leaf(self.hot.total()))
    }
}

impl RetryCounters {
    /// `retries/`: each retry path's windowed count.
    fn stats_node(&self) -> StatsNode {
        let mut node = StatsNode::dir();
        for (name, counter) in self.named() {
            node.insert(name, StatsNode::leaf(counter.windowed()));
        }
        node
    }
}

impl Migration {
    /// This migration's entry under `migrations/`: its range and drain
    /// progress. One MIGRATION_STATE-ranked guard per statement: taken as
    /// temporaries in a single expression they would overlap, and
    /// same-rank overlap is exactly what the lock hierarchy forbids.
    fn stats_node(&self) -> StatsNode {
        let pending_deletes = self.moved_pending_delete.lock().len();
        let settled_groups = self.settled_groups.lock().len();
        StatsNode::dir()
            .with("range", range_node(self.range))
            .with(
                "keys_moved",
                StatsNode::leaf(self.keys_moved.load(Ordering::Relaxed)),
            )
            .with("pending_deletes", StatsNode::leaf(pending_deletes))
            .with("settled_groups", StatsNode::leaf(settled_groups))
    }
}
