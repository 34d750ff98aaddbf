//! Controller-level metrics.

use pesos_telemetry::{OpHistograms, WindowedCounter};

/// Counters describing controller activity, always on. Reports read the
/// lifetime totals; only `requests` has its window used.
#[derive(Debug, Default)]
pub struct ControllerMetrics {
    /// Total requests handled. Its window is the cluster rebalancer's load
    /// window: restarted at a topology change and by nothing else.
    pub requests: WindowedCounter,
    /// Read (GET) operations.
    pub reads: WindowedCounter,
    /// Write (PUT/UPDATE) operations.
    pub writes: WindowedCounter,
    /// Delete operations.
    pub deletes: WindowedCounter,
    /// Operations denied by a policy.
    pub policy_denials: WindowedCounter,
    /// Asynchronous operations accepted.
    pub async_accepted: WindowedCounter,
    /// Transactions committed.
    pub tx_committed: WindowedCounter,
    /// Transactions aborted.
    pub tx_aborted: WindowedCounter,
    /// Per-operation latency histograms (µs), windowed.
    pub ops: OpHistograms,
}

/// A plain-data snapshot of [`ControllerMetrics`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Total requests handled.
    pub requests: u64,
    /// Read operations.
    pub reads: u64,
    /// Write operations.
    pub writes: u64,
    /// Delete operations.
    pub deletes: u64,
    /// Policy denials.
    pub policy_denials: u64,
    /// Async operations accepted.
    pub async_accepted: u64,
    /// Transactions committed.
    pub tx_committed: u64,
    /// Transactions aborted.
    pub tx_aborted: u64,
}

impl ControllerMetrics {
    /// Takes a consistent-enough snapshot of the lifetime totals.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            requests: self.requests.lifetime(),
            reads: self.reads.lifetime(),
            writes: self.writes.lifetime(),
            deletes: self.deletes.lifetime(),
            policy_denials: self.policy_denials.lifetime(),
            async_accepted: self.async_accepted.lifetime(),
            tx_committed: self.tx_committed.lifetime(),
            tx_aborted: self.tx_aborted.lifetime(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = ControllerMetrics::default();
        m.requests.add(1);
        m.requests.add(1);
        m.policy_denials.add(1);
        let s = m.snapshot();
        assert_eq!(s.requests, 2);
        assert_eq!(s.policy_denials, 1);
        assert_eq!(s.writes, 0);
    }
}
