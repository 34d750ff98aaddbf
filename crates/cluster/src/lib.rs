//! Multi-controller distribution for the Pesos reproduction.
//!
//! The paper scales many secured Kinetic drives behind a *single* enclave
//! controller; this crate adds the next scaling axis: several controller
//! instances partitioning the key space. A [`ControllerCluster`] runs N
//! independent [`pesos_core::PesosController`]s — each a complete Pesos
//! instance with its own logical enclave, drives and caches — and routes
//! every request by the object key's *routing hash*: the placement hash
//! ([`pesos_core::HashedKey`]) of the key's placement group, its prefix up
//! to the first `'.'` (the full key when the key contains none). Sibling
//! objects — `<key>`, `<key>.log`,
//! `<key>.v2` — therefore always land on one partition, so a policy that
//! references another object (`objSays` over `<key>.log`, MAL-style)
//! evaluates against the owning partition's store on *any* topology. Keys
//! that are their own group reuse the request's cached placement hash, so
//! routing them adds zero digests; drive placement, caches and lock
//! sharding inside each controller keep using the full-key hash, so the
//! single-controller store layout (and everything sealed or MAC'd) is
//! untouched by how the cluster routes.
//!
//! The pieces:
//!
//! * [`router`] — contiguous hash-range partitioning and the immutable
//!   routing table, whose entry for each partition holds its controller
//!   and its replication log: the one record of who serves a partition.
//! * [`twopc`] — the workspace's one open-transaction table and its dense
//!   transaction ids.
//! * [`cluster`] — the cluster itself: configuration, the routing snapshot
//!   and [`ControllerCluster`] with its constructor and the clients' state
//!   its controllers share,
//!   and one private sub-module per lock-rank band:
//!   * `cluster::routing` — the ops gate and routing snapshot every
//!     routed operation (put, get, delete, policy attach/install) runs
//!     under, with the capped retry that lands it on a promoted backup.
//!   * `cluster::migration` — *online*, load-aware topology change:
//!     `add_controller` splits the most loaded partition at a weighted
//!     split point and `remove_controller` merges into the lighter
//!     neighbour, migrating only the affected hash range; the moved keys
//!     drain [`ClusterConfig::drain_concurrency`] placement groups at a
//!     time under per-key write locks while concurrent traffic keeps
//!     serving (requests into the moving range demand-pull their key's
//!     whole placement group).
//!   * `cluster::tx` — the two-phase commit over the controllers'
//!     prepared-transaction hooks, so a transaction spanning partitions
//!     is atomic (any partition's policy rejection aborts the whole thing
//!     before a single write) and its outcome is queryable from any
//!     router.
//!   * `cluster::failover` — spawning each partition's log, attached to
//!     its primary's store, and [`ControllerCluster::fail_controller`].
//!   * `cluster::rest` — the one REST dispatcher (a single controller
//!     serves REST as a one-partition cluster) and the
//!     [`pesos_core::RequestEndpoint`] implementation.
//! * [`cluster::stats`] — the `/stats` observability surface: cluster and
//!   per-partition latency histograms, windowed hot-group counters (which
//!   also feed the hot-key-weighted split point), replication and
//!   migration gauges, served as a hierarchical attribute tree over the
//!   REST dispatch and as the [`TelemetrySnapshot`] API.
//! * [`replication`] — primary/backup partitions: each primary's store
//!   streams the drive batches it writes to backup stores over the
//!   vectored frame encode with bounded-lag backpressure, and
//!   [`ControllerCluster::fail_controller`] promotes the freshest backup
//!   under the ops-gate write side, building its controller then, without
//!   losing an acknowledged write.

pub mod cluster;
pub mod replication;
pub mod router;
pub mod twopc;

pub use cluster::stats::{MigrationTelemetry, PartitionTelemetry, TelemetrySnapshot};
pub use cluster::{ClusterConfig, ControllerCluster, RetryStats};
pub use replication::{LogRecord, Promotion, ReplicaSet, ReplicationStats};
pub use router::{HashRange, Partition, PartitionTable};
