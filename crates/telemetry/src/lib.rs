//! Lock-free telemetry primitives for the Pesos request path.
//!
//! Everything here is built from atomics: recording a sample never takes
//! a lock, never allocates (except a hot-key slot's one-time name copy),
//! and never blocks the request that produced it. The crate has zero
//! dependencies so every layer — crypto, store, controller, cluster — can
//! feed it without cycles.
//!
//! Four pieces:
//!
//! - [`Histogram`]: log-scaled latency histograms (fixed power-of-two
//!   buckets, mergeable across shards, windowed via lock-free baselines).
//! - [`OpHistograms`]: one histogram per [`OpKind`] plus the [`OpTimer`]
//!   drop guard that wraps every `RequestEndpoint` operation.
//! - [`HotKeyTracker`]: sharded, windowed per-placement-group operation
//!   counters — the input to hot-key-weighted rebalancing and the
//!   `/stats/groups/hot` view.
//! - [`StatsNode`]: the hierarchical attribute tree the REST `/stats`
//!   endpoint serves, with tree and flat renderings.
//!
//! # `/stats` path grammar
//!
//! A stats request addresses the tree with a `/`-separated path and an
//! optional query:
//!
//! ```text
//! stats-path := segment ("/" segment)* ("?" query)?
//! segment    := attribute or directory name ([a-z0-9_] and partition
//!               or migration indexes), or a listed name escaped by
//!               `escape_name` (`groups/hot/tour%2F3` for group "tour/3")
//! query      := param ("&" param)*
//! param      := "top=" N      (groups/hot: number of groups, default 16;
//!                              anything but a number is refused)
//!             | "flat" | "flat=1"
//!                             (render a directory as flat "path value"
//!                              lines instead of the tree listing)
//!             | "flat=0"      (the tree listing; any other value of
//!                              flat is refused)
//! ```
//!
//! Resolving a *leaf* returns its bare value; resolving a *directory*
//! returns a listing of everything beneath it. The empty path serves the
//! whole tree. The reserved path `reset` is not a node: it restarts the
//! telemetry windows (`/stats/reset`). Examples against a cluster:
//!
//! ```text
//! /stats                                  whole tree, tree listing
//! /stats?flat=1                           whole tree, flat lines
//! /stats/partitions/3/replication/lag     one gauge, bare value
//! /stats/groups/hot?top=16                the 16 hottest groups
//! /stats/ops/put/p99_us                   cluster-level put p99 (µs)
//! /stats/reset                            restart the windows
//! ```

mod hist;
mod hotkey;
mod tree;

pub use hist::{Histogram, HistogramSnapshot, HISTOGRAM_BUCKETS};
pub use hotkey::{HotGroup, HotKeyTracker};
pub use tree::{escape_name, query_param, serve, split_query, StatsNode};

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The request-path operations latency histograms are kept for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Synchronous object store.
    Put,
    /// Asynchronous object store (time to acceptance).
    PutAsync,
    /// Latest-version read.
    Get,
    /// History read of a specific version.
    GetVersion,
    /// Object delete.
    Delete,
    /// Policy attach to an existing object.
    AttachPolicy,
    /// Policy install.
    PutPolicy,
    /// Transaction commit (two-phase, at the cluster).
    CommitTx,
}

impl OpKind {
    /// Every kind, in display order.
    pub const ALL: [OpKind; 8] = [
        OpKind::Put,
        OpKind::PutAsync,
        OpKind::Get,
        OpKind::GetVersion,
        OpKind::Delete,
        OpKind::AttachPolicy,
        OpKind::PutPolicy,
        OpKind::CommitTx,
    ];

    /// The stats-tree directory name of this kind.
    pub fn as_str(self) -> &'static str {
        match self {
            OpKind::Put => "put",
            OpKind::PutAsync => "put_async",
            OpKind::Get => "get",
            OpKind::GetVersion => "get_version",
            OpKind::Delete => "delete",
            OpKind::AttachPolicy => "attach_policy",
            OpKind::PutPolicy => "put_policy",
            OpKind::CommitTx => "commit_tx",
        }
    }

    fn index(self) -> usize {
        match self {
            OpKind::Put => 0,
            OpKind::PutAsync => 1,
            OpKind::Get => 2,
            OpKind::GetVersion => 3,
            OpKind::Delete => 4,
            OpKind::AttachPolicy => 5,
            OpKind::PutPolicy => 6,
            OpKind::CommitTx => 7,
        }
    }
}

/// One latency [`Histogram`] per [`OpKind`], in microseconds.
#[derive(Debug)]
pub struct OpHistograms {
    hists: [Histogram; OpKind::ALL.len()],
}

impl Default for OpHistograms {
    fn default() -> Self {
        Self::new()
    }
}

impl OpHistograms {
    /// Empty histograms for every kind.
    pub fn new() -> Self {
        OpHistograms {
            hists: std::array::from_fn(|_| Histogram::new()),
        }
    }

    /// Records one operation's latency.
    pub fn record(&self, kind: OpKind, micros: u64) {
        if let Some(hist) = self.hists.get(kind.index()) {
            hist.record(micros);
        }
    }

    /// Starts the operation timer that records into `kind`'s histogram
    /// when dropped (so error paths are timed too). With `enabled` false
    /// the guard does nothing — the runtime off-switch benches compare
    /// against.
    pub fn timer(&self, kind: OpKind, enabled: bool) -> OpTimer<'_> {
        OpTimer {
            pending: enabled.then(|| (self, kind, Instant::now())),
        }
    }

    /// Snapshot of one kind's current window.
    pub fn snapshot(&self, kind: OpKind) -> HistogramSnapshot {
        self.hists
            .get(kind.index())
            .map(Histogram::snapshot)
            .unwrap_or_default()
    }

    /// Starts a new window on every histogram.
    pub fn reset_window(&self) {
        for hist in self.hists.iter() {
            hist.reset_window();
        }
    }
}

/// Drop guard recording the elapsed time of one operation (µs).
pub struct OpTimer<'a> {
    pending: Option<(&'a OpHistograms, OpKind, Instant)>,
}

impl Drop for OpTimer<'_> {
    fn drop(&mut self) {
        if let Some((hists, kind, start)) = self.pending.take() {
            let micros = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
            hists.record(kind, micros);
        }
    }
}

/// Renders one histogram window as a stats directory
/// (`count`, `mean_us`, `p50_us`, `p95_us`, `p99_us`, `max_us`).
pub fn histogram_node(s: &HistogramSnapshot) -> StatsNode {
    StatsNode::dir()
        .with("count", StatsNode::leaf(s.count()))
        .with("mean_us", StatsNode::leaf(s.mean()))
        .with("p50_us", StatsNode::leaf(s.quantile(0.50)))
        .with("p95_us", StatsNode::leaf(s.quantile(0.95)))
        .with("p99_us", StatsNode::leaf(s.quantile(0.99)))
        .with("max_us", StatsNode::leaf(s.max()))
}

/// Renders a full [`OpHistograms`] as a stats directory with one
/// [`histogram_node`] per operation, in display order.
pub fn ops_node(ops: &OpHistograms) -> StatsNode {
    let mut dir = StatsNode::dir();
    for kind in OpKind::ALL {
        dir.insert(kind.as_str(), histogram_node(&ops.snapshot(kind)));
    }
    dir
}

/// A lifetime counter with a windowed view: [`WindowedCounter::add`] is
/// one relaxed `fetch_add`; [`WindowedCounter::reset_window`] restarts
/// the windowed reading without disturbing the lifetime total (the same
/// lock-free baseline scheme as [`Histogram`]).
#[derive(Debug, Default)]
pub struct WindowedCounter {
    value: AtomicU64,
    baseline: AtomicU64,
}

impl WindowedCounter {
    /// A zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// The count since the last [`WindowedCounter::reset_window`].
    pub fn windowed(&self) -> u64 {
        self.value
            .load(Ordering::Relaxed)
            .saturating_sub(self.baseline.load(Ordering::Relaxed))
    }

    /// The lifetime count.
    pub fn lifetime(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Restarts the window.
    pub fn reset_window(&self) {
        self.baseline
            .store(self.value.load(Ordering::Relaxed), Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_kind_names_are_unique() {
        let mut names: Vec<&str> = OpKind::ALL.iter().map(|k| k.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), OpKind::ALL.len());
        let mut indexes: Vec<usize> = OpKind::ALL.iter().map(|k| k.index()).collect();
        indexes.sort_unstable();
        assert_eq!(indexes, (0..OpKind::ALL.len()).collect::<Vec<_>>());
    }

    #[test]
    fn timer_records_on_drop_only_when_enabled() {
        let ops = OpHistograms::new();
        {
            let _t = ops.timer(OpKind::Get, true);
        }
        {
            let _t = ops.timer(OpKind::Get, false);
        }
        assert_eq!(ops.snapshot(OpKind::Get).count(), 1);
        assert_eq!(ops.snapshot(OpKind::Put).count(), 0);
        ops.reset_window();
        assert_eq!(ops.snapshot(OpKind::Get).count(), 0);
    }

    #[test]
    fn windowed_counter_keeps_lifetime_total() {
        let c = WindowedCounter::new();
        c.add(5);
        c.reset_window();
        c.add(2);
        assert_eq!(c.windowed(), 2);
        assert_eq!(c.lifetime(), 7);
    }
}
