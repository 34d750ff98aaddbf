//! Controller-level metrics.

use pesos_telemetry::{OpHistograms, StatsNode, WindowedCounter};

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

impl ControllerMetrics {
    /// The `metrics/` group of the controller's `/stats` subtree: each
    /// counter's lifetime total, read from its atomic.
    pub(crate) fn stats_node(&self) -> StatsNode {
        let counters = [
            ("requests", &self.requests),
            ("reads", &self.reads),
            ("writes", &self.writes),
            ("deletes", &self.deletes),
            ("policy_denials", &self.policy_denials),
            ("async_accepted", &self.async_accepted),
            ("tx_committed", &self.tx_committed),
            ("tx_aborted", &self.tx_aborted),
        ];
        let mut node = StatsNode::dir();
        for (name, counter) in counters {
            node.insert(name, StatsNode::leaf(counter.lifetime()));
        }
        node
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
        let s = m.stats_node();
        assert_eq!(s.u64_at("requests"), Some(2));
        assert_eq!(s.u64_at("policy_denials"), Some(1));
        assert_eq!(s.u64_at("writes"), Some(0));
    }
}
