//! The metric names, units and directions. `BENCHMARK.json` at the
//! repository root carries the same tables (a test keeps them equal) plus
//! each end-to-end metric's regression bound.

/// Whether a larger or a smaller value is the better one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One named metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn def(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

/// End-to-end metrics, measured with tracing off: the ones that hold their
/// regression bound run to run on the reference host. The rate, the CPU cost
/// and the median latencies do not (see README.md, "Measured spread") and
/// are the first four of the per-layer table.
pub const END_TO_END: &[MetricDef] = &[
    def("setup_s", "s", Lower),
    def("stored_bytes_per_live_byte", "B/B", Lower),
    def("peak_rss_mib", "MiB", Lower),
];

/// Per-layer metrics, from the traced run. The prefix names the layer (a
/// crate of the repository, or `client` for the benchmark's own loop).
pub const PER_LAYER: &[MetricDef] = &[
    def("client.throughput_ops_s", "1/s", Higher),
    def("client.cpu_us_per_op", "us", Lower),
    def("client.read_p50_us", "us", Lower),
    def("client.write_p50_us", "us", Lower),
    def("client.read_p99_us", "us", Lower),
    def("client.write_p99_us", "us", Lower),
    def("client.window_cv", "ratio", Lower),
    def("client.drift_ratio", "ratio", Higher),
    def("client.trace_overhead_share", "ratio", Lower),
    def("client.harness_ns_per_op", "ns", Lower),
    def("client.endpoint_us_per_op", "us", Lower),
    def("client.ladder_remainder_share", "ratio", Lower),
    def("cluster.self_us_per_op", "us", Lower),
    def("cluster.tx_commit_p50_us", "us", Lower),
    def("cluster.repl_appends_per_write", "count", Lower),
    def("cluster.repl_stalls_per_kop", "count", Lower),
    def("cluster.repl_lag_end", "count", Lower),
    def("cluster.retries_per_kop", "count", Lower),
    def("cluster.route_ns", "ns", Lower),
    def("core.controller_self_us_per_op", "us", Lower),
    def("core.store_self_us_per_put", "us", Lower),
    def("core.store_self_us_per_get", "us", Lower),
    def("core.metadata_bytes_mean", "B", Lower),
    def("core.seal_us", "us", Lower),
    def("core.unseal_us", "us", Lower),
    def("core.object_cache_hit_rate", "ratio", Higher),
    def("core.object_cache_evictions_per_kop", "count", Lower),
    def("policy.eval_us", "us", Lower),
    def("policy.evals_per_op", "count", Lower),
    def("policy.cache_hit_rate", "ratio", Higher),
    def("policy.compile_us", "us", Lower),
    def("crypto.compressions_per_op", "count", Lower),
    def("crypto.payload_passes_per_put", "count", Lower),
    def("crypto.sha256_ns_per_compression", "ns", Lower),
    def("crypto.aead_seal_mib_s", "MiB/s", Higher),
    def("crypto.hmac_mib_s", "MiB/s", Higher),
    def("crypto.share_of_cpu", "ratio", Lower),
    def("sgx.asyscalls_per_op", "count", Lower),
    def("sgx.batches_per_op", "count", Lower),
    def("sgx.slot_waits_per_kop", "count", Lower),
    def("sgx.max_concurrency", "count", Higher),
    def("sgx.asyscall_roundtrip_us", "us", Lower),
    def("sgx.epc_page_faults_per_kop", "count", Lower),
    def("sgx.epc_peak_mib", "MiB", Lower),
    def("sgx.modelled_cost_us_per_op", "us", Lower),
    def("kinetic.drive_ops_per_op", "count", Lower),
    def("kinetic.drive_puts_per_write", "count", Lower),
    def("kinetic.drive_gets_per_read", "count", Lower),
    def("kinetic.exchange_put_us", "us", Lower),
    def("kinetic.exchange_get_us", "us", Lower),
    def("kinetic.drive_busy_share", "ratio", Higher),
    def("kinetic.stored_bytes_end", "B", Lower),
    def("telemetry.record_ns", "ns", Lower),
];

/// Named values in table order, as one run reports them.
#[derive(Debug, Clone, Default)]
pub struct Values(pub Vec<(&'static str, f64)>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// The values of every metric of `table`, in table order; a metric the
    /// run did not set (its layer is idle on the workload) reads 0.
    pub fn in_table_order(&self, table: &[MetricDef]) -> Vec<(MetricDef, f64)> {
        table
            .iter()
            .map(|def| (*def, self.get(def.name).unwrap_or(0.0)))
            .collect()
    }
}

/// The contract's result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_line(table: &[MetricDef], values: &Values, attempted: u64, failed: u64) -> String {
    let metrics: Vec<String> = values
        .in_table_order(table)
        .iter()
        .map(|(def, value)| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                def.name,
                json_number(*value),
                def.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failed == 0,
        attempted,
        failed,
        metrics.join(", ")
    )
}

/// A float with all its digits; JSON has no NaN or infinity, so those
/// read 0.
pub fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(def.name), "{} is used twice", def.name);
            assert!(def.name.len() <= 64);
            assert!(def
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(def.unit.len() <= 16);
            assert!(def
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    #[test]
    fn result_line_lists_every_metric_of_the_table() {
        let mut values = Values::default();
        values.set("setup_s", 0.8127);
        let line = result_line(END_TO_END, &values, 10, 0);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}"));
        for def in END_TO_END {
            assert!(line.contains(&format!("\"{}\"", def.name)));
        }
        assert!(result_line(END_TO_END, &values, 10, 1).contains("\"correct\": false"));
    }
}
