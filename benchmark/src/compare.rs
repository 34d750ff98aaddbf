//! `compare <setA> <setB>`: per workload and end-to-end metric, each side's
//! median and quartiles over its runs and a verdict against the bound fixed
//! in `BENCHMARK.json`; for traced sets also the unbounded client timings
//! with their spread, and the counting metrics run by run.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::{self, Json};
use crate::metrics::Better;
use crate::stats;

/// One end-to-end metric's entry in `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub unit: String,
    pub better: Better,
    pub bound: f64,
}

/// The `end_to_end` table of a `BENCHMARK.json` document.
pub fn read_bounds(benchmark_json: &str) -> Result<Vec<Bound>, String> {
    let doc = json::parse(benchmark_json)?;
    let table = doc
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json: no end_to_end table")?;
    table
        .iter()
        .map(|entry| {
            let text = |key: &str| {
                entry
                    .get(key)
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("BENCHMARK.json: end_to_end entry without {key}"))
            };
            Ok(Bound {
                name: text("name")?.to_string(),
                unit: text("unit")?.to_string(),
                better: match text("better")? {
                    "higher" => Better::Higher,
                    "lower" => Better::Lower,
                    other => return Err(format!("BENCHMARK.json: better is {other:?}")),
                },
                bound: entry
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("BENCHMARK.json: end_to_end entry without bound")?,
            })
        })
        .collect()
}

/// The values of one set: `(workload, traced?, metric)` to one value per run,
/// in file order.
pub type RunSet = BTreeMap<(String, bool, String), Vec<f64>>;

/// Reads a set file: one JSON object per line with `workload`, `trace` and
/// the run's `result` line.
pub fn read_set(text: &str) -> Result<RunSet, String> {
    let mut set = RunSet::new();
    for (number, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let record = json::parse(line).map_err(|e| format!("line {}: {e}", number + 1))?;
        let workload = record
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("line {}: no workload", number + 1))?;
        let traced = record.get("trace").and_then(Json::as_f64) == Some(1.0);
        let metrics = record
            .get("result")
            .and_then(|r| r.get("metrics"))
            .and_then(Json::members)
            .ok_or_else(|| format!("line {}: no result.metrics", number + 1))?;
        for (name, metric) in metrics {
            if let Some(value) = metric.get("value").and_then(Json::as_f64) {
                set.entry((workload.to_string(), traced, name.clone()))
                    .or_default()
                    .push(value);
            }
        }
    }
    Ok(set)
}

/// How side B stands against side A on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is within the bound of A's.
    Unchanged,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// B's median is better than A's by more than the bound.
    Better,
    /// A side's own spread exceeds the bound: the runs cannot tell.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Unchanged => "unchanged",
            Verdict::Worse => "worse",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Quartiles of both sides and the verdict; `None` if a side has fewer than
/// two runs.
pub fn judge(
    a: &[f64],
    b: &[f64],
    better: Better,
    bound: f64,
) -> Option<([f64; 3], [f64; 3], Verdict)> {
    let qa = stats::quartiles(a)?;
    let qb = stats::quartiles(b)?;
    let verdict = if spread(qa) > bound || spread(qb) > bound {
        Verdict::Unresolved
    } else {
        // Positive when B is worse, as a share of A's median.
        let worse_by = match better {
            Better::Lower => (qb[1] - qa[1]) / qa[1].abs().max(f64::MIN_POSITIVE),
            Better::Higher => (qa[1] - qb[1]) / qa[1].abs().max(f64::MIN_POSITIVE),
        };
        if worse_by > bound {
            Verdict::Worse
        } else if worse_by < -bound {
            Verdict::Better
        } else {
            Verdict::Unchanged
        }
    };
    Some((qa, qb, verdict))
}

/// The comparison report and how many cells got each verdict.
pub struct Report {
    pub text: String,
    pub unchanged: usize,
    pub worse: usize,
    pub better: usize,
    pub unresolved: usize,
    /// Counting metrics whose values differ between the two sets although
    /// both ran the same seeds (reported, not judged: see `EXACT_COUNTS`).
    pub count_mismatches: usize,
}

/// Per-layer metrics that count events: exact for a seed, so set A and set B
/// (same seeds, same commit) must agree run by run. The SHA-256 compression
/// counts are not listed: each Kinetic session draws its connection id from
/// OS entropy, the id's varint length moves every frame's length by a byte,
/// and a frame that crosses a 64-byte block costs one more compression
/// (about 1 in 10 000 between runs of one seed). On `cold_read_1k` the
/// drive and asyscall counts differ too, by under 1 %: the object
/// cache evicts among equally rare entries in hash-map order.
pub const EXACT_COUNTS: &[&str] = &[
    "kinetic.drive_ops_per_op",
    "kinetic.drive_puts_per_write",
    "kinetic.drive_gets_per_read",
    "kinetic.stored_bytes_end",
    "sgx.asyscalls_per_op",
    "sgx.batches_per_op",
    "policy.evals_per_op",
    "cluster.repl_appends_per_write",
    "core.metadata_bytes_mean",
];

/// The clients pass's timings: per-layer metrics without a bound (they do
/// not hold one on the reference host), reported with each side's spread
/// and B's distance from A so a reader can apply `choosing-metrics` §8.
pub const CLIENT_TIMINGS: &[&str] = &[
    "client.throughput_ops_s",
    "client.cpu_us_per_op",
    "client.read_p50_us",
    "client.write_p50_us",
];

/// Interquartile range as a share of the median.
fn spread(q: [f64; 3]) -> f64 {
    if q[1] == 0.0 {
        0.0
    } else {
        (q[2] - q[0]) / q[1].abs()
    }
}

/// Compares two sets under `bounds`.
pub fn compare(a: &RunSet, b: &RunSet, bounds: &[Bound]) -> Report {
    let mut report = Report {
        text: String::new(),
        unchanged: 0,
        worse: 0,
        better: 0,
        unresolved: 0,
        count_mismatches: 0,
    };
    let out = &mut report.text;
    let _ = writeln!(
        out,
        "{:<16} {:<34} {:>5}  {:>36}  {:>36}  verdict",
        "workload", "metric", "bound", "A  q1 / median / q3 (runs)", "B  q1 / median / q3 (runs)"
    );
    let workloads: Vec<&String> = {
        let mut names: Vec<&String> = a.keys().map(|(w, _, _)| w).collect();
        names.dedup();
        names
    };
    let side = |q: [f64; 3], n: usize| format!("{:.4} / {:.4} / {:.4} ({n})", q[0], q[1], q[2]);
    for workload in &workloads {
        for bound in bounds {
            let key = ((*workload).clone(), false, bound.name.clone());
            let (Some(va), Some(vb)) = (a.get(&key), b.get(&key)) else {
                continue;
            };
            let Some((qa, qb, verdict)) = judge(va, vb, bound.better, bound.bound) else {
                continue;
            };
            match verdict {
                Verdict::Unchanged => report.unchanged += 1,
                Verdict::Worse => report.worse += 1,
                Verdict::Better => report.better += 1,
                Verdict::Unresolved => report.unresolved += 1,
            }
            let _ = writeln!(
                out,
                "{:<16} {:<34} {:>4.0}%  {:>36}  {:>36}  {}",
                workload,
                format!("{} [{}]", bound.name, bound.unit),
                bound.bound * 100.0,
                side(qa, va.len()),
                side(qb, vb.len()),
                verdict.as_str()
            );
        }
    }
    for workload in &workloads {
        for name in CLIENT_TIMINGS {
            let key = ((*workload).clone(), true, name.to_string());
            let (Some(va), Some(vb)) = (a.get(&key), b.get(&key)) else {
                continue;
            };
            let (Some(qa), Some(qb)) = (stats::quartiles(va), stats::quartiles(vb)) else {
                continue;
            };
            let _ = writeln!(
                out,
                "{:<16} {:<34} none   {:>36}  {:>36}  spread {:.1}% / {:.1}%, B {:+.1}%",
                workload,
                name,
                side(qa, va.len()),
                side(qb, vb.len()),
                spread(qa) * 100.0,
                spread(qb) * 100.0,
                (qb[1] - qa[1]) / qa[1].abs().max(f64::MIN_POSITIVE) * 100.0
            );
        }
    }
    for workload in &workloads {
        for name in EXACT_COUNTS {
            let key = ((*workload).clone(), true, name.to_string());
            let (Some(va), Some(vb)) = (a.get(&key), b.get(&key)) else {
                continue;
            };
            let identical = va == vb;
            if !identical {
                report.count_mismatches += 1;
            }
            let _ = writeln!(
                out,
                "{:<16} {:<34} count  A {:?}  B {:?}  {}",
                workload,
                name,
                va,
                vb,
                if identical { "identical" } else { "differs" }
            );
        }
    }
    let _ = writeln!(
        out,
        "{} unchanged, {} worse, {} better, {} unresolved, {} count mismatches",
        report.unchanged, report.worse, report.better, report.unresolved, report.count_mismatches
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let same = [100.2, 100.9, 99.1, 100.4, 99.7];
        let slower = [120.0, 121.0, 119.0, 120.5, 119.5];
        let noisy = [80.0, 120.0, 100.0, 70.0, 130.0];
        let v = |b: &[f64], better| judge(&a, b, better, 0.10).unwrap().2;
        assert_eq!(v(&same, Better::Lower), Verdict::Unchanged);
        assert_eq!(v(&slower, Better::Lower), Verdict::Worse);
        assert_eq!(v(&slower, Better::Higher), Verdict::Better);
        assert_eq!(v(&noisy, Better::Lower), Verdict::Unresolved);
        assert!(judge(&a, &[1.0], Better::Lower, 0.1).is_none());
    }

    #[test]
    fn reads_bounds_and_sets_and_reports_each_cell() {
        let bounds = read_bounds(
            r#"{"end_to_end": [{"name": "lat", "unit": "ms", "better": "lower", "bound": 0.1}]}"#,
        )
        .unwrap();
        assert_eq!(bounds[0].better, Better::Lower);
        let line = |value: f64| {
            format!(
                "{{\"workload\": \"w\", \"trace\": 0, \"result\": {{\"metrics\": {{\"lat\": {{\"value\": {value}, \"unit\": \"ms\"}}}}}}}}\n"
            )
        };
        let a = read_set(&[1.0, 1.01, 0.99].map(line).concat()).unwrap();
        let b = read_set(&[1.5, 1.51, 1.49].map(line).concat()).unwrap();
        let report = compare(&a, &b, &bounds);
        assert_eq!((report.worse, report.unchanged), (1, 0));
        assert!(report.text.contains("worse"));
        assert_eq!(compare(&a, &a, &bounds).unchanged, 1);
        assert!(read_set("{\"workload\": 3}").is_err());
    }

    #[test]
    fn client_timings_are_reported_with_spread_and_without_a_verdict() {
        let line = |value: f64| {
            format!(
                "{{\"workload\": \"w\", \"trace\": 1, \"result\": {{\"metrics\": {{\"client.read_p50_us\": {{\"value\": {value}, \"unit\": \"us\"}}}}}}}}\n"
            )
        };
        let a = read_set(&[10.0, 11.0, 12.0].map(line).concat()).unwrap();
        let b = read_set(&[20.0, 22.0, 24.0].map(line).concat()).unwrap();
        let report = compare(&a, &b, &[]);
        assert!(report.text.contains("client.read_p50_us"));
        assert!(report.text.contains("spread 18.2% / 18.2%, B +100.0%"));
        assert_eq!(
            (
                report.unchanged,
                report.worse,
                report.better,
                report.unresolved
            ),
            (0, 0, 0, 0)
        );
    }
}
