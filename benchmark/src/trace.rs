//! The traced run: per-layer numbers measured from outside the program.
//!
//! Three passes over identically set-up deployments, all from one seed:
//!
//! 1. **Counts** — the single-client sample replayed through the endpoint
//!    with only counters read before and after (`sha256::ops`, the store's
//!    asyscall/EPC/cache accessors, `DriveInfo.stats`, the cluster's
//!    `stats_tree`). One client, fixed operations: the counts repeat exactly.
//! 2. **Clients** — the usual closed loop at the run's client count on the
//!    same deployment, untraced: rate, CPU cost, median and tail latencies,
//!    window and drift diagnostics.
//! 3. **Ladder** — the same sample replayed, operation by operation, at each
//!    public entry point on its own deployment (endpoint, owning controller,
//!    its store), then through leaf probes built from the layers' public
//!    functions at that operation's sizes. Every call is one span; a lower
//!    rung's span is recorded as the child of the rung above, so a span's
//!    self time — its duration minus its children's — is what that layer
//!    adds. What no probe explains is reported as the remainder.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pesos_cluster::PartitionTable;
use pesos_core::{ObjectCrypter, ObjectMetadata, PesosError, RequestEndpoint};
use pesos_crypto::{AeadKey, Certificate, HmacKey};
use pesos_kinetic::{ClientConfig, DriveConfig, HddModel, KineticClient, KineticDrive, Payload};
use pesos_policy::{CompiledPolicy, Operation, PolicyId, RequestContext, Value};
use pesos_sgx::cost::ModeCost;
use pesos_sgx::{AsyscallInterface, CostEvent, ExecutionMode, SgxCostModel};
use pesos_telemetry::Histogram;

use crate::gen::{Inputs, Op, OpKind};
use crate::measure::{self, Ready};
use crate::metrics::Values;
use crate::runner::{ClientState, Failures, Level, Session, Timed};
use crate::stats;
use crate::target::{policy_source, Target, INTRUDER, POLICY_COUNT, READER, WRITER};
use crate::workload::{Deploy, Spec};

/// `parent` of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One call into one layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// Index of the operation in the sample; spans of one operation share it.
    pub op: u32,
    /// Index of the span that caused this one, or `NO_PARENT`.
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Spans kept in memory until the run ends.
pub struct Recorder {
    t0: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(capacity: usize) -> Self {
        Recorder {
            t0: Instant::now(),
            spans: Vec::with_capacity(capacity),
        }
    }

    /// Records an interval measured elsewhere; returns the span's index.
    pub fn record(&mut self, name: &'static str, op: u32, parent: u32, timed: Timed) -> u32 {
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns: (timed.start - self.t0).as_nanos() as u64,
            end_ns: (timed.end - self.t0).as_nanos() as u64,
        });
        self.spans.len() as u32 - 1
    }

    /// Runs `f` as one span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        op: u32,
        parent: u32,
        f: impl FnOnce() -> T,
    ) -> (u32, T) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        (self.record(name, op, parent, Timed { start, end }), out)
    }
}

/// Self time of every span: its duration minus the durations of the spans
/// that name it as parent. Negative when the children, measured on their
/// own, took longer than the call that contains their work.
pub fn self_times(spans: &[Span]) -> Vec<i64> {
    let mut out: Vec<i64> = spans.iter().map(|s| s.duration_ns() as i64).collect();
    for span in spans {
        if let Some(parent) = out.get_mut(span.parent as usize) {
            *parent -= span.duration_ns() as i64;
        }
    }
    out
}

/// Writes the spans as one JSON document.
pub fn spans_json(workload: &str, seed: u64, spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 72 + 128);
    let _ = write!(
        out,
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"unit\": \"ns\", \"spans\": ["
    );
    for (index, span) in spans.iter().enumerate() {
        if index > 0 {
            out.push(',');
        }
        let parent = if span.parent == NO_PARENT {
            "null".to_string()
        } else {
            span.parent.to_string()
        };
        let _ = write!(
            out,
            "\n{{\"id\": {index}, \"name\": \"{}\", \"op\": {}, \"parent\": {parent}, \"start\": {}, \"end\": {}}}",
            span.name, span.op, span.start_ns, span.end_ns
        );
    }
    out.push_str("\n]}\n");
    out
}

// ----------------------------------------------------------------------
// Counters
// ----------------------------------------------------------------------

/// Everything the layers count, summed over the primary controllers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    pub compressions: u64,
    pub asyscalls: u64,
    pub batches: u64,
    pub slot_waits: u64,
    pub max_concurrency: u64,
    pub epc_faults: u64,
    pub epc_peak_bytes: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_evictions: u64,
    pub policy_hits: u64,
    pub policy_misses: u64,
    pub drive_puts: u64,
    pub drive_gets: u64,
    pub drive_deletes: u64,
    pub stored_bytes: u64,
    pub repl_appended: u64,
    pub repl_stalls: u64,
    pub repl_lag: u64,
    pub retries: u64,
}

fn leaf_u64(tree: &pesos_telemetry::StatsNode, path: &str) -> u64 {
    match tree.resolve(path) {
        Some(pesos_telemetry::StatsNode::Leaf(value)) => value.parse().unwrap_or(0),
        _ => 0,
    }
}

/// Reads every counter of `target` now.
pub fn read_counters(target: &Target) -> Counters {
    let mut c = Counters {
        compressions: pesos_crypto::sha256::ops::compressions(),
        ..Counters::default()
    };
    for controller in target.controllers() {
        let store = controller.store();
        let asyscall = store.asyscall_stats();
        c.asyscalls += asyscall.submitted;
        c.batches += asyscall.batches;
        c.slot_waits += asyscall.slot_waits;
        c.max_concurrency = c.max_concurrency.max(asyscall.max_concurrency);
        let epc = store.epc_stats();
        c.epc_faults += epc.page_faults;
        c.epc_peak_bytes += epc.peak_bytes;
        let cache = store.object_cache_stats();
        c.cache_hits += cache.hits;
        c.cache_misses += cache.misses;
        c.cache_evictions += cache.evictions;
        let policy = store.policy_cache_stats();
        c.policy_hits += policy.hits;
        c.policy_misses += policy.misses;
        for drive in store.drives().iter() {
            let info = drive.info();
            c.drive_puts += info.stats.puts;
            c.drive_gets += info.stats.gets;
            c.drive_deletes += info.stats.deletes;
            c.stored_bytes += info.used_bytes;
        }
    }
    if let Target::Cluster(cluster) = target {
        let tree = cluster.stats_tree(0);
        for partition in 0..cluster.controllers().len() {
            let base = format!("partitions/{partition}/replication");
            c.repl_appended += leaf_u64(&tree, &format!("{base}/appended"));
            c.repl_stalls += leaf_u64(&tree, &format!("{base}/stalls"));
            c.repl_lag = c.repl_lag.max(leaf_u64(&tree, &format!("{base}/lag")));
        }
        for kind in ["demand_pull_retries", "settle_retries", "request_retries"] {
            c.retries += leaf_u64(&tree, &format!("retries/{kind}"));
        }
    }
    c
}

/// Waits until the backups have applied every appended record (bounded), so
/// the shippers' hashing is inside the counted interval.
fn wait_for_replication(target: &Target) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while read_counters(target).repl_lag > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
}

// ----------------------------------------------------------------------
// Leaf probes
// ----------------------------------------------------------------------

/// Median nanoseconds of one call of `f`, over `rounds` timed batches of
/// `batch` calls each.
fn median_ns(rounds: usize, batch: usize, mut f: impl FnMut()) -> f64 {
    let mut per_call = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let start = Instant::now();
        for _ in 0..batch {
            f();
        }
        per_call.push(start.elapsed().as_nanos() as f64 / batch as f64);
    }
    stats::median(&per_call).unwrap_or(0.0)
}

/// Standalone instances of the leaf layers, configured like a controller's
/// own, against which single calls are timed.
struct Probes {
    crypter: ObjectCrypter,
    asyscall: AsyscallInterface,
    /// One client per replica, each on its own standalone drive.
    clients: Vec<Arc<KineticClient>>,
    /// Policies by index, compiled from the workload's sources.
    policies: Vec<CompiledPolicy>,
    put_seq: u64,
    /// Probe-drive key holding an object of the given length.
    get_keys: HashMap<usize, Vec<u8>>,
}

/// Probe-drive keys cycle through this many slots, bounding its size.
const PROBE_KEY_SLOTS: u64 = 64;

impl Probes {
    fn new(spec: &Spec) -> Result<Probes, PesosError> {
        let (replicas, hdd) = match spec.deploy {
            Deploy::Disk { replication, .. } => (replication, true),
            _ => (1, false),
        };
        let clients = (0..replicas)
            .map(|index| {
                let id = format!("probe-{index}");
                let config = if hdd {
                    DriveConfig::hdd(id)
                } else {
                    DriveConfig::simulator(id)
                };
                KineticClient::connect(
                    Arc::new(KineticDrive::new(config)),
                    ClientConfig::factory_default(),
                )
                .map(Arc::new)
                .map_err(|e| PesosError::Backend(format!("probe drive: {e}")))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let policies = if spec.policy {
            (0..POLICY_COUNT)
                .map(|index| pesos_policy::compile(&policy_source(index)))
                .collect::<Result<Vec<_>, _>>()?
        } else {
            Vec::new()
        };
        // A controller's interface: 4 service threads, 8 slots each, the
        // default SGX cost model.
        let cost = ModeCost::new(ExecutionMode::Sgx, SgxCostModel::default());
        Ok(Probes {
            crypter: ObjectCrypter::new(&[0x5a; 32], true),
            asyscall: AsyscallInterface::new(4, 32, cost),
            clients,
            policies,
            put_seq: 0,
            get_keys: HashMap::new(),
        })
    }

    /// One replicated drive write the way the store issues it: a
    /// scatter-gather batch of one put per replica, joined. Records the
    /// asyscall span and, as its child, the slowest replica's exchange.
    fn drive_put(&mut self, rec: &mut Recorder, op: u32, parent: u32, bytes: Payload) {
        self.put_seq += 1;
        let key = format!("p{}", self.put_seq % PROBE_KEY_SLOTS).into_bytes();
        let bodies: Vec<_> = self
            .clients
            .iter()
            .map(|client| {
                let (client, key, bytes) = (Arc::clone(client), key.clone(), bytes.clone());
                move || {
                    let start = Instant::now();
                    let result = client.put(&key, bytes, &[], b"pesos", true);
                    (start, Instant::now(), result.is_ok())
                }
            })
            .collect();
        let (span, done) = rec.time("sgx.asyscall", op, parent, || {
            self.asyscall
                .submit_batch(bodies)
                .and_then(|set| set.join())
                .unwrap_or_default()
        });
        self.record_exchange(rec, "kinetic.put", op, span, &done);
    }

    /// One drive read of an object of `len` bytes (stored on first use).
    fn drive_get(&mut self, rec: &mut Recorder, op: u32, parent: u32, len: usize) {
        let client = Arc::clone(&self.clients[0]);
        let key = self.get_keys.entry(len).or_insert_with(|| {
            let key = format!("g{len}").into_bytes();
            let _ = client.put(&key, vec![0x42u8; len], &[], b"pesos", true);
            key
        });
        let key = key.clone();
        let (span, done) = rec.time("sgx.asyscall", op, parent, || {
            self.asyscall
                .submit(move || {
                    let start = Instant::now();
                    let result = client.get(&key);
                    (start, Instant::now(), result.is_ok())
                })
                .map(|one| vec![one])
                .unwrap_or_default()
        });
        self.record_exchange(rec, "kinetic.get", op, span, &done);
    }

    fn record_exchange(
        &self,
        rec: &mut Recorder,
        name: &'static str,
        op: u32,
        parent: u32,
        done: &[(Instant, Instant, bool)],
    ) {
        let start = done.iter().map(|d| d.0).min();
        let end = done.iter().map(|d| d.1).max();
        if let (Some(start), Some(end)) = (start, end) {
            rec.record(name, op, parent, Timed { start, end });
        }
    }

    /// One evaluation of record `key_index`'s policy for `operation` by
    /// `client`, over the store rung's live state. An update names the
    /// record's next version, as a versioned write that is allowed does.
    #[allow(clippy::too_many_arguments)]
    fn evaluate(
        &self,
        rec: &mut Recorder,
        op: u32,
        parent: u32,
        session: &Session<'_>,
        key_index: usize,
        operation: Operation,
        client: &str,
    ) {
        let Some(policy) = self.policies.get(key_index % POLICY_COUNT) else {
            return;
        };
        let key = &session.inputs.keys[key_index];
        let store = session.owner(key).store();
        let next_version = (operation == Operation::Update).then(|| {
            store
                .get_metadata(key.as_str())
                .map_or(0, |m| m.latest_version + 1)
        });
        rec.time("policy.evaluate", op, parent, || {
            let ctx = request_context(operation, client, key, next_version);
            std::hint::black_box(policy.evaluate(operation, &ctx, &store.view()).allowed)
        });
    }
}

/// The context the controller builds for a policy check.
fn request_context(
    operation: Operation,
    client: &str,
    key: &str,
    next_version: Option<u64>,
) -> RequestContext {
    let ctx = RequestContext::new(operation)
        .with_session_key(client)
        .with_now(1)
        .bind(pesos_policy::parser::THIS_VAR, Value::Str(key.to_string()))
        .bind(
            pesos_policy::parser::LOG_VAR,
            Value::Str(format!("{key}.log")),
        );
    match next_version {
        Some(version) => ctx.with_next_version(version),
        None => ctx,
    }
}

// ----------------------------------------------------------------------
// The ladder
// ----------------------------------------------------------------------

/// One deployment per rung, each driven by its own single client.
struct Rung {
    ready: Ready,
    level: Level,
}

/// Replays the probes for one write of `value` to `key`, as children of the
/// controller and store spans of operation `op`.
#[allow(clippy::too_many_arguments)]
fn probe_write(
    probes: &mut Probes,
    rec: &mut Recorder,
    op: u32,
    controller_span: u32,
    store_span: u32,
    session: &Session<'_>,
    key: &str,
    value: &[u8],
) {
    let store = session.owner(key).store();
    // Controller: metadata fetch for the version default.
    rec.time("core.meta_fetch", op, controller_span, || {
        std::hint::black_box(store.get_metadata(key))
    });
    // Store: content hash, metadata under the key lock, seal, data put,
    // metadata encode, metadata put, metadata map insert (a second clone).
    // The controller hashes the payload and hands the digest down through a
    // crate-private call; at the store's public entry the store hashes it
    // itself, so seen from outside the hash is the store rung's child.
    rec.time("crypto.content_hash", op, store_span, || {
        std::hint::black_box(pesos_crypto::sha256(value))
    });
    let (_, meta) = rec.time("core.meta_fetch", op, store_span, || {
        store.get_metadata(key)
    });
    let meta = meta.unwrap_or_else(|| ObjectMetadata::new(key));
    let (_, sealed) = rec.time("crypto.seal", op, store_span, || {
        probes.crypter.seal(key, meta.latest_version, value)
    });
    probes.drive_put(rec, op, store_span, sealed.into());
    let (_, encoded) = rec.time("core.meta_encode", op, store_span, || meta.to_bytes());
    probes.drive_put(rec, op, store_span, encoded.into());
    rec.time("core.meta_fetch", op, store_span, || {
        std::hint::black_box(meta.clone())
    });
}

/// Replays the probes for one read of `key` that missed the object cache.
fn probe_read_miss(
    probes: &mut Probes,
    rec: &mut Recorder,
    op: u32,
    store_span: u32,
    session: &Session<'_>,
    key: &str,
    value_len: usize,
) {
    let store = session.owner(key).store();
    rec.time("core.meta_fetch", op, store_span, || {
        std::hint::black_box(store.get_metadata(key))
    });
    // Sealed outside any span: the read path only unseals.
    let plain = vec![0x17u8; value_len];
    let sealed = probes.crypter.seal(key, 0, &plain);
    probes.drive_get(rec, op, store_span, sealed.len());
    let (_, opened) = rec.time("crypto.unseal", op, store_span, || {
        probes.crypter.unseal(key, 0, &sealed)
    });
    let opened = opened.unwrap_or_default();
    rec.time("crypto.rehash", op, store_span, || {
        std::hint::black_box(pesos_crypto::sha256(&opened))
    });
}

/// What the ladder yields.
struct Ladder {
    spans: Vec<Span>,
    attempted: u64,
    failures: Failures,
}

fn object_cache_misses(session: &Session<'_>, key: &str) -> u64 {
    session.owner(key).store().object_cache_stats().misses
}

/// Operations each rung runs back to back before the next rung takes the
/// same operations. Alternating per operation would park every deployment's
/// service threads between its turns and charge each call a wake-up the
/// closed loop never pays; a chunk keeps a rung as warm as a client does.
const LADDER_CHUNK: usize = 128;

/// Replays `inputs.sample` down the rungs, a chunk of operations at a time:
/// endpoint, owning controller, its store, then the leaf probes.
fn run_ladder(spec: &Spec, inputs: &Inputs) -> Result<Ladder, PesosError> {
    let mut rungs = Vec::new();
    for level in [Level::Endpoint, Level::Controller, Level::Store] {
        rungs.push(Rung {
            ready: measure::setup(spec, inputs, 1)?,
            level,
        });
    }
    let mut probes = Probes::new(spec)?;
    let mut rec = Recorder::new(inputs.sample.len() * 16);

    // The sessions borrow the rungs' deployments; the client states are
    // taken out so both can be used side by side.
    let mut states: Vec<ClientState> = rungs
        .iter_mut()
        .map(|rung| rung.ready.states.remove(0))
        .collect();
    let sessions: Vec<Session<'_>> = rungs
        .iter()
        .map(|rung| Session::new(spec, inputs, &rung.ready.target))
        .collect();
    let store_session = &sessions[2];

    for (chunk_index, chunk) in inputs.sample.chunks(LADDER_CHUNK).enumerate() {
        let first_op = chunk_index * LADDER_CHUNK;
        // Span of each operation of the chunk at the rung above, and
        // whether its read missed the store rung's object cache.
        let mut above = vec![NO_PARENT; chunk.len()];
        let mut controller_spans = vec![NO_PARENT; chunk.len()];
        let mut missed = vec![false; chunk.len()];
        for ((rung, session), state) in rungs.iter().zip(&sessions).zip(states.iter_mut()) {
            let name = match rung.level {
                Level::Endpoint => "endpoint",
                Level::Controller => "controller",
                Level::Store => "store",
            };
            for (offset, &op) in chunk.iter().enumerate() {
                // Whether a read reached the drives shows in the store
                // rung's cache counters, read around the call.
                let watched = (rung.level == Level::Store && op.kind == OpKind::Get)
                    .then(|| &inputs.keys[op.key as usize]);
                let misses_before = watched.map(|key| object_cache_misses(session, key));
                let Some(timed) = session.execute(rung.level, state, op) else {
                    above[offset] = NO_PARENT;
                    continue;
                };
                if let (Some(key), Some(before)) = (watched, misses_before) {
                    missed[offset] = object_cache_misses(session, key) > before;
                }
                above[offset] = rec.record(name, (first_op + offset) as u32, above[offset], timed);
            }
            if rung.level == Level::Controller {
                controller_spans.copy_from_slice(&above);
            }
        }
        let store_spans = above;

        for (offset, &op) in chunk.iter().enumerate() {
            let index = (first_op + offset) as u32;
            let key_index = op.key as usize;
            let (controller_span, store_span) = (controller_spans[offset], store_spans[offset]);
            match op.kind {
                OpKind::Get => {
                    probes.evaluate(
                        &mut rec,
                        index,
                        controller_span,
                        store_session,
                        key_index,
                        Operation::Read,
                        READER,
                    );
                    if missed[offset] {
                        probe_read_miss(
                            &mut probes,
                            &mut rec,
                            index,
                            store_span,
                            store_session,
                            &inputs.keys[key_index],
                            spec.value_len,
                        );
                    }
                }
                OpKind::DeniedGet => probes.evaluate(
                    &mut rec,
                    index,
                    controller_span,
                    store_session,
                    key_index,
                    Operation::Read,
                    INTRUDER,
                ),
                OpKind::Put | OpKind::CasUpdate => {
                    if op.kind == OpKind::CasUpdate {
                        probes.evaluate(
                            &mut rec,
                            index,
                            controller_span,
                            store_session,
                            key_index,
                            Operation::Update,
                            WRITER,
                        );
                    }
                    probe_write(
                        &mut probes,
                        &mut rec,
                        index,
                        controller_span,
                        store_span,
                        store_session,
                        &inputs.keys[key_index],
                        inputs.value(op.key, op.variant),
                    );
                }
                OpKind::Tx => {
                    for side in 0..2 {
                        probe_write(
                            &mut probes,
                            &mut rec,
                            index,
                            controller_span,
                            store_span,
                            store_session,
                            &inputs.pair_keys[2 * key_index + side],
                            &inputs.pair_values[2 * key_index + side],
                        );
                    }
                }
            }
        }
    }

    let (mut attempted, mut failures) = (0, Failures::default());
    for state in &states {
        attempted += state.attempted;
        failures.add(&state.failures);
    }
    Ok(Ladder {
        spans: rec.spans,
        attempted,
        failures,
    })
}

/// Per-operation sums over the ladder's spans, in nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct OpTimes {
    /// Duration of the endpoint span: the whole operation.
    endpoint: i64,
    endpoint_self: i64,
    controller_self: i64,
    store_self: i64,
    /// `core.meta_*` probes under the store span: store work that has a
    /// probe of its own.
    store_core_probes: i64,
}

fn per_op_times(ops: usize, spans: &[Span]) -> Vec<OpTimes> {
    let mut out = vec![OpTimes::default(); ops];
    for (span, self_ns) in spans.iter().zip(self_times(spans)) {
        let times = &mut out[span.op as usize];
        let under_store = spans
            .get(span.parent as usize)
            .is_some_and(|parent| parent.name == "store");
        match span.name {
            "endpoint" => {
                times.endpoint += span.duration_ns() as i64;
                times.endpoint_self += self_ns;
            }
            "controller" => times.controller_self += self_ns,
            "store" => times.store_self += self_ns,
            name if name.starts_with("core.") && under_store => {
                times.store_core_probes += span.duration_ns() as i64;
            }
            _ => {}
        }
    }
    out
}

fn mean_us(values: impl Iterator<Item = i64>) -> f64 {
    let (mut sum, mut count) = (0i64, 0u64);
    for value in values {
        sum += value;
        count += 1;
    }
    if count == 0 {
        0.0
    } else {
        sum as f64 / count as f64 / 1000.0
    }
}

/// Reduces the ladder's spans to the per-layer self times.
fn ladder_metrics(spec: &Spec, sample: &[Op], spans: &[Span], values: &mut Values) {
    let times = per_op_times(sample.len(), spans);
    let is_cluster = matches!(spec.deploy, Deploy::Cluster { .. });
    let of = |pick: fn(OpKind) -> bool| {
        times
            .iter()
            .zip(sample)
            .filter(move |(_, op)| pick(op.kind))
            .map(|(t, _)| t)
    };

    values.set(
        "client.endpoint_us_per_op",
        mean_us(times.iter().map(|t| t.endpoint)),
    );
    if is_cluster {
        // Plain gets and puts: a transaction's rungs below the endpoint are
        // two writes, not a commit, so its difference is not the layer's.
        let plain = |kind| matches!(kind, OpKind::Get | OpKind::Put);
        values.set(
            "cluster.self_us_per_op",
            mean_us(of(plain).map(|t| t.endpoint_self)),
        );
    }
    values.set(
        "core.controller_self_us_per_op",
        mean_us(times.iter().map(|t| t.controller_self)),
    );
    // The store rung minus the other layers' probes: its own bookkeeping,
    // probed (metadata fetch and encode) or not.
    values.set(
        "core.store_self_us_per_put",
        mean_us(of(OpKind::is_write).map(|t| t.store_self + t.store_core_probes)),
    );
    values.set(
        "core.store_self_us_per_get",
        mean_us(of(OpKind::is_read).map(|t| t.store_self + t.store_core_probes)),
    );
    // What no probe explains: the store's own time beyond its probed parts
    // and, where no cluster layer sits in between, the gap between the
    // endpoint and the controller rung.
    let endpoint_total: i64 = times.iter().map(|t| t.endpoint).sum();
    let remainder: i64 = times
        .iter()
        .map(|t| t.store_self + if is_cluster { 0 } else { t.endpoint_self })
        .sum();
    values.set(
        "client.ladder_remainder_share",
        remainder as f64 / endpoint_total.max(1) as f64,
    );
}

// ----------------------------------------------------------------------
// Micro probes
// ----------------------------------------------------------------------

/// A no-op `RequestEndpoint`: every call succeeds at once, so driving it
/// measures the benchmark's own loop.
struct NoopEndpoint {
    values: HashMap<String, Arc<Vec<u8>>>,
}

impl RequestEndpoint for NoopEndpoint {
    fn register_client(&self, client_id: &str) -> String {
        client_id.to_string()
    }
    fn put_policy(&self, _: &str, _: &str) -> Result<PolicyId, PesosError> {
        Err(PesosError::BadRequest("no-op endpoint".into()))
    }
    fn put(
        &self,
        _: &str,
        _: &str,
        value: Vec<u8>,
        _: Option<PolicyId>,
        expected_version: Option<u64>,
        _: &[Certificate],
    ) -> Result<u64, PesosError> {
        std::hint::black_box(value);
        Ok(expected_version.unwrap_or(0))
    }
    fn put_async(
        &self,
        _: &str,
        _: &str,
        _: Vec<u8>,
        _: Option<PolicyId>,
        _: Option<u64>,
        _: &[Certificate],
    ) -> Result<u64, PesosError> {
        Ok(0)
    }
    fn get(
        &self,
        client_id: &str,
        key: &str,
        _: &[Certificate],
    ) -> Result<(Arc<Vec<u8>>, u64), PesosError> {
        if client_id == INTRUDER {
            return Err(PesosError::PolicyDenied("no-op endpoint".into()));
        }
        self.values
            .get(key)
            .map(|value| (Arc::clone(value), 0))
            .ok_or_else(|| PesosError::ObjectNotFound(key.to_string()))
    }
    fn delete(&self, _: &str, _: &str, _: &[Certificate]) -> Result<(), PesosError> {
        Ok(())
    }
    fn latest_version(&self, _: &str) -> Option<u64> {
        None
    }
    fn drain_async(&self) {}
}

/// Nanoseconds per operation of the client loop itself (value clone, two
/// clock reads, output check), driving a no-op endpoint with the sample.
fn harness_ns_per_op(spec: &Spec, inputs: &Inputs, target: &Target) -> f64 {
    let noop = NoopEndpoint {
        values: inputs
            .keys
            .iter()
            .enumerate()
            .map(|(key, name)| (name.clone(), Arc::new(inputs.value(key as u32, 0).clone())))
            .collect(),
    };
    let session = Session::new(spec, inputs, target).with_endpoint(Arc::new(noop));
    let mut state = ClientState::new(0, spec.keys);
    // Transactions go to the deployment itself, not the endpoint trait.
    let ops: Vec<Op> = inputs
        .sample
        .iter()
        .map(|&op| match op.kind {
            OpKind::Tx => Op {
                kind: OpKind::Put,
                ..op
            },
            _ => op,
        })
        .collect();
    let rounds = (200_000 / ops.len().max(1)).clamp(3, 50);
    let mut per_op = Vec::new();
    for _ in 0..rounds {
        let start = Instant::now();
        for &op in &ops {
            session.execute(Level::Endpoint, &mut state, op);
        }
        per_op.push(start.elapsed().as_nanos() as f64 / ops.len() as f64);
    }
    stats::median(&per_op).unwrap_or(0.0)
}

/// Times the leaf layers' public functions in isolation, at the workload's
/// sizes.
fn micro_probes(session: &Session<'_>, values: &mut Values) {
    let (spec, inputs) = (session.spec, session.inputs);
    let value = inputs.value(0, 0);
    let key = &inputs.keys[0];
    let mib = |bytes: usize, ns: f64| bytes as f64 / (1024.0 * 1024.0) / (ns / 1e9);

    // crypto
    let block = vec![0xa5u8; 64 * 1024];
    let before = pesos_crypto::sha256::ops::compressions();
    let hash_ns = median_ns(9, 16, || {
        std::hint::black_box(pesos_crypto::sha256(&block));
    });
    let compressions_per_hash =
        (pesos_crypto::sha256::ops::compressions() - before) as f64 / (9.0 * 16.0);
    values.set(
        "crypto.sha256_ns_per_compression",
        hash_ns / compressions_per_hash,
    );
    let aead = AeadKey::new(&[7u8; 32]);
    let nonce = pesos_crypto::aead::counter_nonce(1, 1);
    let batch = (1 << 20) / value.len().max(1);
    let seal_ns = median_ns(9, batch.clamp(4, 256), || {
        std::hint::black_box(aead.seal_to_bytes(&nonce, key.as_bytes(), value));
    });
    values.set("crypto.aead_seal_mib_s", mib(value.len(), seal_ns));
    let hmac = HmacKey::new(b"benchmark-probe-key");
    let mac_ns = median_ns(9, 16, || {
        std::hint::black_box(hmac.mac(&block));
    });
    values.set("crypto.hmac_mib_s", mib(block.len(), mac_ns));

    // core: the object crypter at the workload's value size
    let crypter = ObjectCrypter::new(&[0x5a; 32], true);
    let rounds = if value.len() > 8192 { 64 } else { 1024 };
    values.set(
        "core.seal_us",
        median_ns(9, rounds / 8, || {
            std::hint::black_box(crypter.seal(key, 1, value));
        }) / 1000.0,
    );
    let sealed = crypter.seal(key, 1, value);
    values.set(
        "core.unseal_us",
        median_ns(9, rounds / 8, || {
            std::hint::black_box(crypter.unseal(key, 1, &sealed).is_ok());
        }) / 1000.0,
    );

    // sgx: one empty asynchronous system call, submit to completion
    let cost = ModeCost::new(ExecutionMode::Sgx, SgxCostModel::default());
    let asyscall = AsyscallInterface::new(4, 32, cost);
    values.set(
        "sgx.asyscall_roundtrip_us",
        median_ns(15, 128, || {
            let _ = asyscall.submit(|| ());
        }) / 1000.0,
    );
    asyscall.shutdown();

    // kinetic: client <-> standalone simulator drive at the sealed size
    // (wire codec, frame HMAC, engine; the HDD model's sleep is left out so
    // the figure stays a code-path cost on every workload)
    if let Ok(client) = KineticClient::connect(
        Arc::new(KineticDrive::new(DriveConfig::simulator("probe-exchange"))),
        ClientConfig::factory_default(),
    ) {
        let payload: Payload = sealed.clone().into();
        let mut slot = 0u64;
        values.set(
            "kinetic.exchange_put_us",
            median_ns(9, rounds / 8, || {
                slot = (slot + 1) % PROBE_KEY_SLOTS;
                let name = format!("e{slot}");
                let _ = client.put(name.as_bytes(), payload.clone(), &[], b"pesos", true);
            }) / 1000.0,
        );
        values.set(
            "kinetic.exchange_get_us",
            median_ns(9, rounds / 8, || {
                std::hint::black_box(client.get(b"e1").is_ok());
            }) / 1000.0,
        );
    }

    // telemetry
    let histogram = Histogram::new();
    let mut sample = 1u64;
    values.set(
        "telemetry.record_ns",
        median_ns(9, 100_000, || {
            sample = sample.wrapping_mul(6364136223846793005).wrapping_add(1);
            histogram.record(sample >> 44);
        }),
    );

    // policy: evaluate the first record's read policy over the live store,
    // and compile its source
    if spec.policy {
        let source = policy_source(0);
        values.set(
            "policy.compile_us",
            median_ns(9, 64, || {
                std::hint::black_box(pesos_policy::compile(&source).is_ok());
            }) / 1000.0,
        );
        if let Ok(policy) = pesos_policy::compile(&source) {
            let store = session.owner(key).store();
            values.set(
                "policy.eval_us",
                median_ns(9, 256, || {
                    let ctx = request_context(Operation::Read, READER, key, None);
                    std::hint::black_box(
                        policy
                            .evaluate(Operation::Read, &ctx, &store.view())
                            .allowed,
                    );
                }) / 1000.0,
            );
        }
    }

    // cluster: routing hash plus partition-table probe
    if let Target::Cluster(cluster) = session.target {
        let table = PartitionTable::even(cluster.controllers());
        let mut next = 0usize;
        values.set(
            "cluster.route_ns",
            median_ns(9, 1024, || {
                next = (next + 1) % inputs.keys.len();
                let hashed = pesos_core::HashedKey::new(&inputs.keys[next]);
                std::hint::black_box(table.index_of(hashed.routing_hash(Some('.'))));
            }),
        );
    }
}

// ----------------------------------------------------------------------
// The whole traced run
// ----------------------------------------------------------------------

/// Outcome of a traced run.
pub struct TraceResult {
    pub values: Values,
    pub spans: Vec<Span>,
    pub attempted: u64,
    pub failures: Failures,
}

/// Mean metadata record length over up to 256 evenly spaced records.
fn metadata_bytes_mean(session: &Session<'_>) -> f64 {
    let step = (session.spec.keys / 256).max(1);
    let lengths: Vec<f64> = session
        .inputs
        .keys
        .iter()
        .step_by(step)
        .filter_map(|name| session.owner(name).store().get_metadata(name.as_str()))
        .map(|meta| meta.to_bytes().len() as f64)
        .collect();
    lengths.iter().sum::<f64>() / lengths.len().max(1) as f64
}

/// Runs the three passes. `inputs` must be generated for `clients` clients;
/// `duration` bounds the clients pass.
pub fn run(
    spec: &Spec,
    inputs: &Inputs,
    clients: usize,
    duration: Duration,
) -> Result<TraceResult, PesosError> {
    let mut values = Values::default();
    let is_cluster = matches!(spec.deploy, Deploy::Cluster { .. });

    // Pass 1: counts, single client.
    let mut ready = measure::setup(spec, inputs, 1)?;
    let session = Session::new(spec, inputs, &ready.target);
    wait_for_replication(&ready.target);
    let before = read_counters(&ready.target);
    let mut put_compressions = 0u64;
    let (mut puts, mut reads, mut writes) = (0u64, 0u64, 0u64);
    let mut untraced_ns = 0u64;
    let pass_started = Instant::now();
    for &op in &inputs.sample {
        let hashed_before = pesos_crypto::sha256::ops::compressions();
        let Some(timed) = session.execute(Level::Endpoint, &mut ready.states[0], op) else {
            continue;
        };
        untraced_ns += (timed.end - timed.start).as_nanos() as u64;
        match op.kind {
            OpKind::Put | OpKind::CasUpdate => {
                puts += 1;
                writes += 1;
                put_compressions += pesos_crypto::sha256::ops::compressions() - hashed_before;
            }
            OpKind::Tx => writes += 2,
            OpKind::Get => reads += 1,
            OpKind::DeniedGet => {}
        }
    }
    let pass_wall = pass_started.elapsed();
    wait_for_replication(&ready.target);
    let after = read_counters(&ready.target);
    let ops = inputs.sample.len().max(1) as f64;
    let kops = ops / 1000.0;
    let delta = |f: fn(&Counters) -> u64| (f(&after) - f(&before)) as f64;

    let compressions_per_op = delta(|c| c.compressions) / ops;
    values.set("crypto.compressions_per_op", compressions_per_op);
    values.set(
        "crypto.payload_passes_per_put",
        put_compressions as f64 * 64.0 / (puts.max(1) as f64 * spec.value_len as f64),
    );
    let asyscalls = delta(|c| c.asyscalls);
    values.set("sgx.asyscalls_per_op", asyscalls / ops);
    values.set("sgx.batches_per_op", delta(|c| c.batches) / ops);
    values.set("sgx.slot_waits_per_kop", delta(|c| c.slot_waits) / kops);
    values.set("sgx.max_concurrency", after.max_concurrency as f64);
    let epc_faults = delta(|c| c.epc_faults);
    values.set("sgx.epc_page_faults_per_kop", epc_faults / kops);
    values.set(
        "sgx.epc_peak_mib",
        after.epc_peak_bytes as f64 / (1024.0 * 1024.0),
    );
    let drive_puts = delta(|c| c.drive_puts);
    let drive_gets = delta(|c| c.drive_gets);
    values.set(
        "kinetic.drive_ops_per_op",
        (drive_puts + drive_gets + delta(|c| c.drive_deletes)) / ops,
    );
    values.set(
        "kinetic.drive_puts_per_write",
        drive_puts / writes.max(1) as f64,
    );
    values.set(
        "kinetic.drive_gets_per_read",
        drive_gets / reads.max(1) as f64,
    );
    values.set("kinetic.stored_bytes_end", after.stored_bytes as f64);
    let lookups = delta(|c| c.cache_hits) + delta(|c| c.cache_misses);
    values.set(
        "core.object_cache_hit_rate",
        delta(|c| c.cache_hits) / lookups.max(1.0),
    );
    values.set(
        "core.object_cache_evictions_per_kop",
        delta(|c| c.cache_evictions) / kops,
    );
    let metadata_mean = metadata_bytes_mean(&session);
    values.set("core.metadata_bytes_mean", metadata_mean);
    let policy_lookups = delta(|c| c.policy_hits) + delta(|c| c.policy_misses);
    values.set("policy.evals_per_op", policy_lookups / ops);
    if policy_lookups > 0.0 {
        values.set(
            "policy.cache_hit_rate",
            delta(|c| c.policy_hits) / policy_lookups,
        );
    }
    if is_cluster {
        values.set(
            "cluster.repl_appends_per_write",
            delta(|c| c.repl_appended) / writes.max(1) as f64,
        );
        values.set(
            "cluster.repl_stalls_per_kop",
            delta(|c| c.repl_stalls) / kops,
        );
        values.set("cluster.repl_lag_end", after.repl_lag as f64);
        values.set("cluster.retries_per_kop", delta(|c| c.retries) / kops);
    }

    // The spin the simulator charges on purpose: a floor no optimisation
    // may remove. Bytes leaving the enclave are the drive writes' payloads.
    let model = SgxCostModel::default();
    let written_bytes = writes as f64 * (spec.value_len as f64 + metadata_mean);
    let replicas = match spec.deploy {
        Deploy::Disk { replication, .. } => replication as f64,
        _ => 1.0,
    };
    let modelled_ns = asyscalls * model.cost_ns(CostEvent::AsyncSyscall) as f64
        + epc_faults * model.cost_ns(CostEvent::EpcPageFault) as f64
        + replicas * written_bytes / 1024.0 * model.boundary_copy_ns_per_kib as f64;
    values.set("sgx.modelled_cost_us_per_op", modelled_ns / ops / 1000.0);

    if let Deploy::Disk { drives, .. } = spec.deploy {
        // Each drive op holds its drive's actuator for the model's service
        // time; the share of the pass the drives spent serving.
        let service = HddModel::default()
            .service_time(spec.value_len)
            .as_secs_f64();
        let drive_ops = drive_puts + drive_gets + delta(|c| c.drive_deletes);
        values.set(
            "kinetic.drive_busy_share",
            drive_ops * service / (pass_wall.as_secs_f64() * drives as f64),
        );
    }

    values.set(
        "client.harness_ns_per_op",
        harness_ns_per_op(spec, inputs, &ready.target),
    );
    micro_probes(&session, &mut values);

    // Pass 2: the closed loop at the run's client count, same deployment.
    let single = ready.states.remove(0);
    ready.states = (0..clients).map(|client| single.fork(client)).collect();
    let phase = measure::measure(spec, inputs, &mut ready, duration)?;
    let summary = measure::summarize(&phase);
    summary.set_client_metrics(&mut values);
    if is_cluster {
        values.set("cluster.tx_commit_p50_us", summary.tx_p50_us);
    }
    let ns_per_compression = values
        .get("crypto.sha256_ns_per_compression")
        .unwrap_or(0.0);
    values.set(
        "crypto.share_of_cpu",
        compressions_per_op * ns_per_compression / 1000.0 / summary.cpu_us_per_op.max(1e-9),
    );
    let verify = Session::new(spec, inputs, &ready.target).verify_end();
    let (mut attempted, mut failures) = measure::tally(&ready.states, verify);
    attempted += single.attempted;
    failures.add(&single.failures);
    drop(ready);

    // Pass 3: the ladder.
    let ladder = run_ladder(spec, inputs)?;
    ladder_metrics(spec, &inputs.sample, &ladder.spans, &mut values);
    attempted += ladder.attempted;
    failures.add(&ladder.failures);
    let traced_ns: u64 = ladder
        .spans
        .iter()
        .filter(|s| s.name == "endpoint")
        .map(Span::duration_ns)
        .sum();
    values.set(
        "client.trace_overhead_share",
        (traced_ns as f64 - untraced_ns as f64) / untraced_ns.max(1) as f64,
    );

    Ok(TraceResult {
        values,
        spans: ladder.spans,
        attempted,
        failures,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, op: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            op,
            parent,
            start_ns,
            end_ns,
        }
    }

    /// One put's ladder: endpoint 100, controller 90, store 70, and leaf
    /// probes measured elsewhere in time (children need not nest in wall
    /// time, only by parent link).
    fn one_put() -> Vec<Span> {
        vec![
            span("endpoint", 0, NO_PARENT, 0, 100),
            span("controller", 0, 0, 200, 290),
            span("store", 0, 1, 300, 370),
            span("core.meta_fetch", 0, 1, 400, 405),
            span("crypto.seal", 0, 2, 410, 430),
            span("sgx.asyscall", 0, 2, 440, 470),
            span("kinetic.put", 0, 5, 445, 465),
            span("core.meta_encode", 0, 2, 480, 490),
        ]
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = one_put();
        assert_eq!(
            self_times(&spans),
            vec![
                10, // endpoint 100 - controller 90
                15, // controller 90 - store 70 - meta_fetch 5
                10, // store 70 - seal 20 - asyscall 30 - meta_encode 10
                5, 20, //
                10, // asyscall 30 - exchange 20
                20, 10
            ]
        );
        // Children that took longer on their own than inside the parent
        // show as negative self time, not as zero.
        let odd = vec![
            span("store", 0, NO_PARENT, 0, 10),
            span("crypto.seal", 0, 0, 20, 35),
        ];
        assert_eq!(self_times(&odd), vec![-5, 15]);
    }

    #[test]
    fn ladder_parts_and_remainder_sum_to_the_endpoint_rung() {
        let spans = one_put();
        let sample = [Op {
            kind: OpKind::Put,
            variant: 0,
            key: 0,
        }];
        let spec = crate::workload::spec("hot_mix_1k", crate::workload::Scale::Smoke).unwrap();
        let mut values = Values::default();
        ladder_metrics(&spec, &sample, &spans, &mut values);
        let get = |name: &str| values.get(name).unwrap();
        // ns in the spans, µs in the metrics.
        assert_eq!(get("client.endpoint_us_per_op"), 0.1);
        assert_eq!(get("core.controller_self_us_per_op"), 0.015);
        // Store self 10 plus its metadata-encode probe 10.
        assert_eq!(get("core.store_self_us_per_put"), 0.02);
        assert_eq!(get("core.store_self_us_per_get"), 0.0);
        assert!(values.get("cluster.self_us_per_op").is_none());
        // Remainder: store's unprobed 10 plus the endpoint-controller hop 10.
        assert_eq!(get("client.ladder_remainder_share"), 0.2);

        // Every nanosecond of the endpoint rung is some span's self time:
        // the layers' parts and the remainder sum to it.
        let selves = self_times(&spans);
        assert_eq!(selves.iter().sum::<i64>(), 100);
        let times = per_op_times(1, &spans)[0];
        let probes: i64 = spans
            .iter()
            .zip(&selves)
            .filter(|(span, _)| span.name.contains('.'))
            .map(|(_, self_ns)| self_ns)
            .sum();
        let remainder = times.store_self + times.endpoint_self;
        assert_eq!(times.controller_self + probes + remainder, times.endpoint);
    }

    #[test]
    fn spans_json_parses_and_keeps_parents() {
        let text = spans_json("hot_mix_1k", 3, &one_put());
        let doc = crate::json::parse(&text).unwrap();
        let spans = doc
            .get("spans")
            .and_then(crate::json::Json::as_array)
            .unwrap();
        assert_eq!(spans.len(), 8);
        assert_eq!(spans[0].get("parent"), Some(&crate::json::Json::Null));
        assert_eq!(
            spans[6].get("parent").and_then(crate::json::Json::as_f64),
            Some(5.0)
        );
    }
}
