//! Command line of the Pesos benchmark.
//!
//! ```text
//! pesos-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! pesos-benchmark run     [--set <name>] [--runs <n>] [--seed <n>] [--seconds <s>] [--workloads a,b]
//! pesos-benchmark trace   [--set <name>] [--runs <n>] [--seed <n>] [--seconds <s>] [--workloads a,b]
//! pesos-benchmark compare <setA.jsonl> <setB.jsonl>
//! ```
//!
//! The first form is the one `BENCHMARK.json` names: one workload, one fresh
//! process, the result as the last line of standard output. `run` and
//! `trace` call it once per workload and print every metric by name.

use std::collections::HashMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use pesos_benchmark::compare;
use pesos_benchmark::gen;
use pesos_benchmark::json::{self, Json};
use pesos_benchmark::measure;
use pesos_benchmark::metrics::{self, MetricDef, Values, END_TO_END, PER_LAYER};
use pesos_benchmark::runner::Failures;
use pesos_benchmark::trace;
use pesos_benchmark::workload::{self, Scale};

/// `--name value` pairs after the subcommand, plus positional arguments.
struct Args {
    options: HashMap<String, String>,
    positional: Vec<String>,
}

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        let mut options = HashMap::new();
        let mut positional = Vec::new();
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            match arg.strip_prefix("--") {
                Some(name) => {
                    let value = iter.next().ok_or(format!("--{name} needs a value"))?;
                    options.insert(name.to_string(), value.clone());
                }
                None => positional.push(arg.clone()),
            }
        }
        Ok(Args {
            options,
            positional,
        })
    }

    fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.options.get(name) {
            None => Ok(default),
            Some(text) => text
                .parse()
                .map_err(|_| format!("--{name}: cannot read {text:?}")),
        }
    }

    fn text(&self, name: &str, default: &str) -> String {
        self.options
            .get(name)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }
}

/// Where results and span files go: `benchmark/out` when run from the
/// repository root, `out` when run from the package directory.
fn out_dir(args: &Args) -> PathBuf {
    match args.options.get("out") {
        Some(dir) => PathBuf::from(dir),
        None if Path::new("benchmark/Cargo.toml").exists() => PathBuf::from("benchmark/out"),
        None => PathBuf::from("out"),
    }
}

fn print_table(table: &[MetricDef], values: &Values) {
    for (def, value) in values.in_table_order(table) {
        println!("  {:<36} {:>16.4} {}", def.name, value, def.unit);
    }
}

fn print_failures(attempted: u64, failures: &Failures) {
    println!(
        "  checked {} operations: {} errors, {} wrong bytes, {} wrong allow/deny, {} torn transactions; failed_share {:.6}",
        attempted,
        failures.errors,
        failures.wrong_bytes,
        failures.wrong_decision,
        failures.torn_tx,
        failures.total() as f64 / attempted.max(1) as f64
    );
}

/// One workload in this process: the form the driver calls.
fn single(args: &Args) -> Result<ExitCode, String> {
    let name = args.text("workload", "");
    let scale = Scale::parse(&args.text("scale", "full")).ok_or("--scale is full or smoke")?;
    let spec = workload::spec(&name, scale).ok_or_else(|| {
        format!(
            "unknown workload {name:?}; known: {}",
            workload::NAMES.join(", ")
        )
    })?;
    let seed: u64 = args.get("seed", 1)?;
    let seconds: f64 = args.get("seconds", 10.0)?;
    if !(seconds > 0.0 && seconds <= 3600.0) {
        return Err("--seconds must be in (0, 3600]".into());
    }
    let traced = match args.text("trace", "0").as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace is 0 or 1, not {other:?}")),
    };
    // Two closed-loop clients: one per core of the reference host.
    let clients: usize = args.get("clients", 2)?;
    if clients == 0 || clients > 64 {
        return Err("--clients is 1..=64".into());
    }
    let duration = Duration::from_secs_f64(seconds);

    let inputs = gen::generate(&spec, seed, clients);
    println!(
        "{name}: seed {seed}, {clients} closed-loop clients ({} cores), {seconds} s, inputs {:016x}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        inputs.trace_hash
    );
    println!("  why: {}", spec.why);

    let (table, values, attempted, failures) = if traced {
        // The clients pass runs for half of the run's seconds; the counts
        // and ladder passes replay a fixed sample.
        let result =
            trace::run(&spec, &inputs, clients, duration / 2).map_err(|e| e.to_string())?;
        let dir = out_dir(args);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = dir.join(format!("trace-{name}.json"));
        std::fs::write(&path, trace::spans_json(&name, seed, &result.spans))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "  {} spans written to {}",
            result.spans.len(),
            path.display()
        );
        (PER_LAYER, result.values, result.attempted, result.failures)
    } else {
        let result = measure::run(&spec, &inputs, clients, duration, scale.setups())
            .map_err(|e| e.to_string())?;
        let mut values = Values::default();
        values.set("setup_s", result.setup_s);
        values.set(
            "stored_bytes_per_live_byte",
            result.stored_bytes_per_live_byte,
        );
        values.set("peak_rss_mib", result.peak_rss_mib);
        // The measured phase's timings do not hold a bound on this host;
        // they are printed here and gated nowhere (the traced run reports
        // them as per-layer metrics).
        let s = &result.summary;
        let mut timings = Values::default();
        s.set_client_metrics(&mut timings);
        println!(
            "  {} ops measured; {} read and {} write samples; set-ups {:.3?} s",
            s.ops, s.read_samples, s.write_samples, result.setup_times
        );
        for (name, value) in &timings.0 {
            let unit = PER_LAYER.iter().find(|def| def.name == *name);
            println!(
                "  {:<36} {:>16.4} {}",
                name,
                value,
                unit.map_or("", |def| def.unit)
            );
        }
        (END_TO_END, values, result.attempted, result.failures)
    };
    print_table(table, &values);
    print_failures(attempted, &failures);
    println!(
        "{}",
        metrics::result_line(table, &values, attempted, failures.total())
    );
    Ok(if failures.total() == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// Runs the single-workload form in a fresh process and returns its result
/// line, echoing the child's report.
fn spawn_single(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    pass: &Args,
) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    for name in ["scale", "clients", "out"] {
        if let Some(value) = pass.options.get(name) {
            command.arg(format!("--{name}")).arg(value);
        }
    }
    let output = command
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or("").to_string();
    for line in lines {
        println!("{line}");
    }
    if json::parse(&last).is_err() {
        return Err(format!(
            "{workload} printed no result (exit {:?}): {last}",
            output.status.code()
        ));
    }
    Ok(last)
}

/// `run` and `trace`: every workload, each in a fresh process.
fn suite(args: &Args, traced: bool) -> Result<ExitCode, String> {
    let runs: u64 = args.get("runs", 1)?;
    let seed: u64 = args.get("seed", 1)?;
    let seconds: f64 = args.get("seconds", 10.0)?;
    let set = args.text("set", if traced { "trace" } else { "run" });
    let names: Vec<String> = match args.options.get("workloads") {
        Some(list) => list.split(',').map(str::to_string).collect(),
        None => workload::NAMES.iter().map(|n| n.to_string()).collect(),
    };
    let dir = out_dir(args);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{set}.jsonl"));
    // A set is the runs of one invocation: an earlier file of the same name
    // is replaced, not extended, or `compare` would mix two commits' runs.
    let mut file = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;

    let mut failed = false;
    for run in 0..runs {
        for name in &names {
            let line = spawn_single(name, seed + run, seconds, traced, args)?;
            let result = json::parse(&line)?;
            failed |= result.get("correct").and_then(Json::as_bool) != Some(true);
            writeln!(
                file,
                "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"result\": {line}}}",
                json::quote(name),
                seed + run,
                traced as u8
            )
            .map_err(|e| format!("{}: {e}", path.display()))?;
        }
    }
    file.flush()
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("results written to {}", path.display());
    Ok(if failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

fn compare_sets(args: &Args) -> Result<ExitCode, String> {
    let [a, b] = args.positional.as_slice() else {
        return Err("compare takes two set files".into());
    };
    // From the repository root or from the package directory.
    let bounds_path = if Path::new("BENCHMARK.json").exists() {
        Path::new("BENCHMARK.json")
    } else {
        Path::new("../BENCHMARK.json")
    };
    let read =
        |path: &Path| std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()));
    let bounds = compare::read_bounds(&read(bounds_path)?)?;
    let set_a = compare::read_set(&read(Path::new(a))?)?;
    let set_b = compare::read_set(&read(Path::new(b))?)?;
    let report = compare::compare(&set_a, &set_b, &bounds);
    print!("{}", report.text);
    Ok(if report.worse > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("run") => Args::parse(&argv[1..]).and_then(|args| suite(&args, false)),
        Some("trace") => Args::parse(&argv[1..]).and_then(|args| suite(&args, true)),
        Some("compare") => Args::parse(&argv[1..]).and_then(|args| compare_sets(&args)),
        Some(first) if first.starts_with("--") => {
            Args::parse(&argv).and_then(|args| single(&args))
        }
        _ => Err("usage: pesos-benchmark (run | trace | compare <a> <b> | --workload <name> --seed <n> --seconds <s> --trace <0|1>)".into()),
    };
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("pesos-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
