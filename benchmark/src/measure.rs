//! The trace-off run: set up (bootstrap, load, fixed-count warm-up), drive
//! the clients in closed loop for the run's seconds, and reduce the samples
//! to the end-to-end metrics.

use std::time::{Duration, Instant};

use pesos_core::PesosError;

use crate::gen::{Inputs, OpKind};
use crate::metrics::Values;
use crate::procfs;
use crate::runner::{run_fixed, run_timed, ClientState, Failures, Sample, Session};
use crate::stats;
use crate::target::{load, Target};
use crate::workload::Spec;

/// Window over which rates and medians are taken; the reported figure is
/// the median over windows, which a co-tenant's burst does not move.
pub const WINDOW: Duration = Duration::from_millis(500);

/// A deployment after set-up, ready for the measured phase.
pub struct Ready {
    pub target: Target,
    pub states: Vec<ClientState>,
    /// Bootstrap + load + warm-up, wall seconds.
    pub setup_s: f64,
    /// Σ drive `used_bytes` ÷ (records × value size) when set-up ended: a
    /// fixed operation count from a fixed seed, so exact.
    pub stored_bytes_per_live_byte: f64,
    /// `VmHWM` when set-up ended.
    pub peak_rss_mib: f64,
}

/// Bytes the primary controllers' drives hold.
pub fn stored_bytes(target: &Target) -> u64 {
    target
        .controllers()
        .iter()
        .flat_map(|c| c.store().drives().iter().map(|d| d.info().used_bytes))
        .sum()
}

/// Bytes of user data the records hold (the small policy logs are left
/// out of the base).
pub fn live_bytes(spec: &Spec, inputs: &Inputs) -> u64 {
    ((spec.keys + inputs.pair_keys.len()) * spec.value_len) as u64
}

/// Bootstraps, loads and warms up one deployment with `threads` client
/// threads (the run's client count, or 1 for the traced run's exact counts).
pub fn setup(spec: &Spec, inputs: &Inputs, threads: usize) -> Result<Ready, PesosError> {
    let started = Instant::now();
    let target = load(spec, inputs, threads)?;
    let mut states: Vec<ClientState> = (0..threads)
        .map(|client| ClientState::new(client, spec.keys))
        .collect();
    run_fixed(
        &Session::new(spec, inputs, &target),
        &mut states,
        &inputs.warmup,
    );
    let setup_s = started.elapsed().as_secs_f64();
    let stored = stored_bytes(&target) as f64 / live_bytes(spec, inputs) as f64;
    Ok(Ready {
        target,
        states,
        setup_s,
        stored_bytes_per_live_byte: stored,
        peak_rss_mib: procfs::peak_rss_mib().unwrap_or(0.0),
    })
}

/// The measured phase's raw record.
pub struct Phase {
    pub samples: Vec<Vec<Sample>>,
    pub wall: Duration,
    /// CPU seconds the process's threads ran during the phase.
    pub cpu_s: f64,
}

/// Drives `ready`'s clients in closed loop for `duration`.
pub fn measure(
    spec: &Spec,
    inputs: &Inputs,
    ready: &mut Ready,
    duration: Duration,
) -> Result<Phase, PesosError> {
    let session = Session::new(spec, inputs, &ready.target);
    // The program's threads live through the phase and the clients report
    // their own time as they finish, so the difference of the live threads'
    // time plus the clients' is everything the process ran.
    let cpu_now = || {
        procfs::live_threads_cpu_seconds()
            .map_err(|e| PesosError::Backend(format!("/proc/self/task/*/schedstat: {e}")))
    };
    let cpu_before = cpu_now()?;
    let started = Instant::now();
    let (samples, client_cpu): (Vec<_>, Vec<f64>) =
        run_timed(&session, &mut ready.states, &inputs.streams, duration)
            .into_iter()
            .unzip();
    let wall = started.elapsed();
    Ok(Phase {
        samples,
        wall,
        cpu_s: cpu_now()? - cpu_before + client_cpu.iter().sum::<f64>(),
    })
}

/// What the measured phase reduces to.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    pub ops: u64,
    pub throughput_ops_s: f64,
    pub cpu_us_per_op: f64,
    pub read_p50_us: f64,
    pub write_p50_us: f64,
    pub read_samples: u64,
    pub write_samples: u64,
    pub read_p99_us: f64,
    pub write_p99_us: f64,
    pub tx_p50_us: f64,
    pub tx_samples: u64,
    /// Coefficient of variation of per-window throughput.
    pub window_cv: f64,
    /// Last-quarter over first-quarter throughput.
    pub drift_ratio: f64,
}

impl Summary {
    /// The `client.*` metrics a closed-loop phase yields.
    pub fn set_client_metrics(&self, values: &mut Values) {
        values.set("client.throughput_ops_s", self.throughput_ops_s);
        values.set("client.cpu_us_per_op", self.cpu_us_per_op);
        values.set("client.read_p50_us", self.read_p50_us);
        values.set("client.write_p50_us", self.write_p50_us);
        values.set("client.read_p99_us", self.read_p99_us);
        values.set("client.write_p99_us", self.write_p99_us);
        values.set("client.window_cv", self.window_cv);
        values.set("client.drift_ratio", self.drift_ratio);
    }
}

fn us(ns: f64) -> f64 {
    ns / 1000.0
}

fn is_tx(kind: OpKind) -> bool {
    kind == OpKind::Tx
}

/// Reduces the measured phase to its summary. The rate and the median
/// latencies are medians over the phase's complete `WINDOW`s; p99s are exact
/// over all samples of the type; CPU time is per operation over the whole
/// phase (it ticks in 10 ms steps, too coarse for one window of a
/// drive-bound workload).
pub fn summarize(phase: &Phase) -> Summary {
    let window_ns = WINDOW.as_nanos() as u64;
    let total_ns = phase.wall.as_nanos() as u64;
    let ops = phase.samples.iter().map(Vec::len).sum::<usize>() as u64;

    // (p50 over windows, p99 over all samples, sample count) of one type.
    let latency = |pick: fn(OpKind) -> bool| -> (f64, f64, u64) {
        let samples: Vec<(u64, u64)> = phase
            .samples
            .iter()
            .flatten()
            .filter(|s| pick(s.kind))
            .map(|s| (s.end_ns, s.latency_ns as u64))
            .collect();
        let mut all: Vec<u64> = samples.iter().map(|s| s.1).collect();
        all.sort_unstable();
        let mut per_window = stats::windows(&samples, window_ns, total_ns);
        if per_window.is_empty() {
            // A phase shorter than one window is one window.
            per_window.push(all.clone());
        }
        (
            us(stats::window_median_of_p50(per_window).unwrap_or(0.0)),
            us(stats::percentile_sorted(&all, 0.99).unwrap_or(0) as f64),
            all.len() as u64,
        )
    };
    let (read_p50_us, read_p99_us, read_samples) = latency(OpKind::is_read);
    let (write_p50_us, write_p99_us, write_samples) = latency(OpKind::is_write);
    let (tx_p50_us, _, tx_samples) = latency(is_tx);

    let ends: Vec<(u64, u64)> = phase
        .samples
        .iter()
        .flatten()
        .map(|s| (s.end_ns, 1))
        .collect();
    let mut rates: Vec<f64> = stats::windows(&ends, window_ns, total_ns)
        .iter()
        .map(|w| w.len() as f64 / WINDOW.as_secs_f64())
        .collect();
    if rates.is_empty() {
        rates.push(ops as f64 / phase.wall.as_secs_f64());
    }
    let quarter = (rates.len() / 4).max(1);
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;

    Summary {
        ops,
        throughput_ops_s: stats::median(&rates).unwrap_or(0.0),
        cpu_us_per_op: phase.cpu_s * 1e6 / ops.max(1) as f64,
        read_p50_us,
        write_p50_us,
        read_samples,
        write_samples,
        read_p99_us,
        write_p99_us,
        tx_p50_us,
        tx_samples,
        window_cv: stats::coefficient_of_variation(&rates).unwrap_or(0.0),
        drift_ratio: mean(&rates[rates.len() - quarter..]) / mean(&rates[..quarter]),
    }
}

/// Outcome of a whole trace-off run.
pub struct RunResult {
    pub summary: Summary,
    /// Wall seconds of each of the run's set-ups, in order.
    pub setup_times: Vec<f64>,
    /// Their median.
    pub setup_s: f64,
    pub stored_bytes_per_live_byte: f64,
    pub peak_rss_mib: f64,
    pub attempted: u64,
    pub failures: Failures,
}

/// Totals the clients' and the final read-back's checks.
pub fn tally(states: &[ClientState], verify: (u64, Failures)) -> (u64, Failures) {
    let (mut attempted, mut failures) = verify;
    for state in states {
        attempted += state.attempted;
        failures.add(&state.failures);
    }
    (attempted, failures)
}

/// Runs `spec` once with tracing off: `setups` set-ups, each freed before
/// the next (`setup_s` is their median), then the measured phase and the
/// read-back on the last.
pub fn run(
    spec: &Spec,
    inputs: &Inputs,
    clients: usize,
    duration: Duration,
    setups: usize,
) -> Result<RunResult, PesosError> {
    // What the benchmark itself holds (binary, generated keys, values and
    // streams) is resident before the program is first called; the peak
    // beyond it is the program's.
    let harness_rss_mib = procfs::rss_mib().unwrap_or(0.0);
    let mut ready = setup(spec, inputs, clients)?;
    let mut setup_times = vec![ready.setup_s];
    // The first set-up's high-water mark: later ones add whatever the
    // allocator kept of the deployments freed before them.
    let peak_rss_mib = ready.peak_rss_mib - harness_rss_mib;
    for _ in 1..setups {
        drop(ready);
        ready = setup(spec, inputs, clients)?;
        setup_times.push(ready.setup_s);
    }
    let phase = measure(spec, inputs, &mut ready, duration)?;
    let verify = Session::new(spec, inputs, &ready.target).verify_end();
    let (attempted, failures) = tally(&ready.states, verify);
    Ok(RunResult {
        summary: summarize(&phase),
        setup_s: stats::median(&setup_times).unwrap_or(0.0),
        setup_times,
        stored_bytes_per_live_byte: ready.stored_bytes_per_live_byte,
        peak_rss_mib,
        attempted,
        failures,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{self, Scale};

    #[test]
    fn a_run_sets_up_as_often_as_asked_and_measures_the_last() {
        let spec = workload::spec("hot_mix_1k", Scale::Smoke).expect("a named workload");
        // One client: two would race on the hot records.
        let inputs = crate::gen::generate(&spec, 5, 1);
        let run = |setups| {
            run(&spec, &inputs, 1, Duration::from_millis(300), setups).expect("the run completes")
        };
        let (one, three) = (run(1), run(3));
        assert_eq!((one.setup_times.len(), three.setup_times.len()), (1, 3));
        let mut sorted = three.setup_times.clone();
        sorted.sort_by(f64::total_cmp);
        assert_eq!(
            (one.setup_s, three.setup_s),
            (one.setup_times[0], sorted[1])
        );
        for result in [&one, &three] {
            assert_eq!(result.failures.total(), 0);
            assert!(result.setup_s > 0.0 && result.summary.ops > 0);
        }
        // Every set-up loads the same records and runs the same warm-up, so
        // the state the last one leaves is the state one alone leaves.
        assert_eq!(
            one.stored_bytes_per_live_byte.to_bits(),
            three.stored_bytes_per_live_byte.to_bits()
        );
    }
}
