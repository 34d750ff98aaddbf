//! Closed-loop clients: executes generated operations against one rung of
//! the system, checks every output, and records one latency sample per
//! operation.

use std::sync::Arc;
use std::time::{Duration, Instant};

use pesos_core::{PesosController, PesosError, RequestEndpoint};

use crate::gen::{parse_header, set_tag, Inputs, Op, OpKind, VARIANTS};
use crate::procfs;
use crate::target::{client_id, Target, INTRUDER, READER, WRITER};
use crate::workload::Spec;

/// The public entry point an operation is issued at. The traced run replays
/// identical inputs at each level; everything else runs at `Endpoint`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// `RequestEndpoint` / `ControllerCluster`: what a client calls.
    Endpoint,
    /// The owning `PesosController`, called directly.
    Controller,
    /// The owning controller's `PesosStore` (no session, no policy).
    Store,
}

/// Failed checks, by cause. Their sum over operations attempted is the
/// failed share.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Failures {
    /// The operation returned an error it should not have.
    pub errors: u64,
    /// A get returned bytes that are not one of the record's values.
    pub wrong_bytes: u64,
    /// A read that must be denied was allowed, or the reverse.
    pub wrong_decision: u64,
    /// The two keys of a committed transaction carry different tags.
    pub torn_tx: u64,
}

impl Failures {
    pub fn total(&self) -> u64 {
        self.errors + self.wrong_bytes + self.wrong_decision + self.torn_tx
    }

    pub fn add(&mut self, other: &Failures) {
        self.errors += other.errors;
        self.wrong_bytes += other.wrong_bytes;
        self.wrong_decision += other.wrong_decision;
        self.torn_tx += other.torn_tx;
    }
}

/// One client's mutable state, carried from warm-up into the measured phase.
pub struct ClientState {
    pub client: usize,
    id: String,
    /// Current version of each record this client updates by CAS.
    versions: Vec<u64>,
    tx_seq: u64,
    pub attempted: u64,
    pub failures: Failures,
}

impl ClientState {
    pub fn new(client: usize, keys: usize) -> Self {
        ClientState {
            client,
            id: client_id(client),
            versions: vec![0; keys],
            tx_seq: 0,
            attempted: 0,
            failures: Failures::default(),
        }
    }

    /// A fresh client `client` that continues from this one's record
    /// versions (the traced run hands a single client's deployment to the
    /// run's clients).
    pub fn fork(&self, client: usize) -> Self {
        ClientState {
            versions: self.versions.clone(),
            ..ClientState::new(client, self.versions.len())
        }
    }
}

/// One timed operation.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    pub start: Instant,
    pub end: Instant,
}

/// A loaded deployment with everything needed to issue operations at it.
pub struct Session<'a> {
    pub spec: &'a Spec,
    pub inputs: &'a Inputs,
    pub target: &'a Target,
    endpoint: Arc<dyn RequestEndpoint>,
    controllers: Vec<Arc<PesosController>>,
}

impl<'a> Session<'a> {
    pub fn new(spec: &'a Spec, inputs: &'a Inputs, target: &'a Target) -> Self {
        Session {
            spec,
            inputs,
            target,
            endpoint: target.endpoint(),
            controllers: target.controllers(),
        }
    }

    /// Uses `endpoint` in place of the deployment's own (the harness-cost
    /// probe substitutes a no-op).
    pub fn with_endpoint(mut self, endpoint: Arc<dyn RequestEndpoint>) -> Self {
        self.endpoint = endpoint;
        self
    }

    pub fn owner(&self, key: &str) -> &Arc<PesosController> {
        match self.target {
            Target::Single(_) => &self.controllers[0],
            Target::Cluster(cluster) => &self.controllers[cluster.partition_of(key)],
        }
    }

    fn check_value(&self, key: u32, bytes: &[u8], failures: &mut Failures) {
        let expected = parse_header(bytes)
            .filter(|h| h.key == key && h.len as usize == self.spec.value_len)
            .filter(|h| (h.variant as usize) < VARIANTS)
            .map(|h| self.inputs.value(key, h.variant as u8));
        if expected.is_none_or(|expected| expected.as_slice() != bytes) {
            failures.wrong_bytes += 1;
        }
    }

    fn get_at(
        &self,
        level: Level,
        client: &str,
        key: &str,
    ) -> (Timed, Result<Arc<Vec<u8>>, PesosError>) {
        // Routing to the owner is the cluster's job at the endpoint; below
        // it the lookup happens here, before the clock starts.
        let owner = (level != Level::Endpoint).then(|| self.owner(key));
        let start = Instant::now();
        let result = match (level, owner) {
            (Level::Controller, Some(owner)) => owner.get(client, key, &[]),
            (Level::Store, Some(owner)) => owner.store().get_object(key),
            _ => self.endpoint.get(client, key, &[]),
        };
        let end = Instant::now();
        (Timed { start, end }, result.map(|(value, _)| value))
    }

    fn put_at(
        &self,
        level: Level,
        client: &str,
        key: &str,
        value: Vec<u8>,
        expected_version: Option<u64>,
    ) -> (Timed, Result<u64, PesosError>) {
        let owner = (level != Level::Endpoint).then(|| self.owner(key));
        let start = Instant::now();
        let result = match (level, owner) {
            (Level::Controller, Some(owner)) => {
                owner.put(client, key, value, None, expected_version, &[])
            }
            (Level::Store, Some(owner)) => {
                owner
                    .store()
                    .put_object_cas(key, &value, None, expected_version)
            }
            _ => self
                .endpoint
                .put(client, key, value, None, expected_version, &[]),
        };
        let end = Instant::now();
        (Timed { start, end }, result)
    }

    /// Writes both keys of pair `pair` with one tag: as one transaction at
    /// the endpoint, as two plain writes below it (a lower rung has no
    /// cross-partition commit; the writes keep the rungs' stores in step).
    fn tx_at(&self, level: Level, client: &str, pair: usize, tag: u64) -> (Timed, bool) {
        let keys = [
            &self.inputs.pair_keys[2 * pair],
            &self.inputs.pair_keys[2 * pair + 1],
        ];
        let mut values = [
            self.inputs.pair_values[2 * pair].clone(),
            self.inputs.pair_values[2 * pair + 1].clone(),
        ];
        for value in &mut values {
            set_tag(value, tag);
        }
        let [first, second] = values;
        if level != Level::Endpoint {
            let (a, ra) = self.put_at(level, client, keys[0], first, None);
            let (b, rb) = self.put_at(level, client, keys[1], second, None);
            // Report the two writes as one contiguous interval.
            let end = a.end + (b.end - b.start);
            return (
                Timed {
                    start: a.start,
                    end,
                },
                ra.is_ok() && rb.is_ok(),
            );
        }
        let start = Instant::now();
        let committed = match self.target {
            Target::Cluster(cluster) => cluster.create_tx(client).and_then(|tx| {
                cluster.add_write(client, tx, keys[0], first)?;
                cluster.add_write(client, tx, keys[1], second)?;
                cluster.commit_tx(client, tx)
            }),
            // Only the cluster workload has transactions.
            Target::Single(_) => Err(PesosError::BadRequest(
                "transaction workloads run on a cluster".into(),
            )),
        };
        let end = Instant::now();
        (Timed { start, end }, committed.is_ok())
    }

    /// Issues `op` at `level`, checks its output and counts it in `state`.
    /// Returns `None` when the level has nothing to execute (a denied read
    /// never reaches the store).
    pub fn execute(&self, level: Level, state: &mut ClientState, op: Op) -> Option<Timed> {
        let key_index = op.key as usize;
        let timed = match op.kind {
            OpKind::Get => {
                let client = if self.spec.policy { READER } else { &state.id };
                let (timed, result) = self.get_at(level, client, &self.inputs.keys[key_index]);
                match result {
                    Ok(bytes) => self.check_value(op.key, &bytes, &mut state.failures),
                    Err(_) => state.failures.errors += 1,
                }
                timed
            }
            OpKind::Put => {
                let value = self.inputs.value(op.key, op.variant).clone();
                let (timed, result) =
                    self.put_at(level, &state.id, &self.inputs.keys[key_index], value, None);
                if result.is_err() {
                    state.failures.errors += 1;
                }
                timed
            }
            OpKind::CasUpdate => {
                let value = self.inputs.value(op.key, op.variant).clone();
                let next = state.versions[key_index] + 1;
                let (timed, result) = self.put_at(
                    level,
                    WRITER,
                    &self.inputs.keys[key_index],
                    value,
                    Some(next),
                );
                match result {
                    Ok(version) if version == next => state.versions[key_index] = next,
                    _ => state.failures.errors += 1,
                }
                timed
            }
            OpKind::DeniedGet => {
                if level == Level::Store {
                    return None;
                }
                let (timed, result) = self.get_at(level, INTRUDER, &self.inputs.keys[key_index]);
                if !matches!(result, Err(PesosError::PolicyDenied(_))) {
                    state.failures.wrong_decision += 1;
                }
                timed
            }
            OpKind::Tx => {
                state.tx_seq += 1;
                let tag = (state.client as u64 + 1) << 48 | state.tx_seq;
                let (timed, ok) = self.tx_at(level, &state.id, key_index, tag);
                if !ok {
                    state.failures.errors += 1;
                }
                timed
            }
        };
        state.attempted += 1;
        Some(timed)
    }

    /// Reads back a spread of records and every transaction pair after the
    /// run: each record must hold one of its values, and both keys of a
    /// pair must carry the same transaction tag. Returns reads attempted
    /// and the failures found.
    pub fn verify_end(&self) -> (u64, Failures) {
        let mut failures = Failures::default();
        let mut attempted = 0;
        let client = if self.spec.policy {
            READER.to_string()
        } else {
            client_id(0)
        };
        let step = (self.spec.keys / 512).max(1);
        for key in (0..self.spec.keys).step_by(step) {
            attempted += 1;
            match self
                .get_at(Level::Endpoint, &client, &self.inputs.keys[key])
                .1
            {
                Ok(bytes) => self.check_value(key as u32, &bytes, &mut failures),
                Err(_) => failures.errors += 1,
            }
        }
        for pair in 0..self.inputs.pair_keys.len() / 2 {
            let mut tags = [0u64; 2];
            for (side, tag) in tags.iter_mut().enumerate() {
                attempted += 1;
                let index = 2 * pair + side;
                match self
                    .get_at(Level::Endpoint, &client, &self.inputs.pair_keys[index])
                    .1
                {
                    Ok(bytes) => {
                        let mut expected = self.inputs.pair_values[index].clone();
                        match parse_header(&bytes).filter(|h| h.key as usize == index) {
                            Some(header) => {
                                *tag = header.tag;
                                set_tag(&mut expected, header.tag);
                                if expected != *bytes {
                                    failures.wrong_bytes += 1;
                                }
                            }
                            None => failures.wrong_bytes += 1,
                        }
                    }
                    Err(_) => failures.errors += 1,
                }
            }
            if tags[0] != tags[1] {
                failures.torn_tx += 1;
            }
        }
        (attempted, failures)
    }
}

/// One recorded operation of the measured phase.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Completion time, nanoseconds after the phase started.
    pub end_ns: u64,
    pub latency_ns: u32,
    pub kind: OpKind,
}

/// Runs every operation of `streams` once (the fixed-count warm-up): client
/// `i` of `n` takes streams `i`, `i + n`, ... one after the other, the
/// clients in parallel. A single client therefore runs all of them in a
/// fixed order, which is what makes the traced run's counts exact.
pub fn run_fixed(session: &Session<'_>, states: &mut [ClientState], streams: &[Vec<Op>]) {
    let clients = states.len();
    std::thread::scope(|scope| {
        for (client, state) in states.iter_mut().enumerate() {
            scope.spawn(move || {
                for stream in streams.iter().skip(client).step_by(clients) {
                    for &op in stream {
                        session.execute(Level::Endpoint, state, op);
                    }
                }
            });
        }
    });
}

/// Runs the clients in closed loop for `duration`: each issues its next
/// operation when the previous one completes, and starts its stream over if
/// it reaches the end. Returns each client's samples and the CPU seconds
/// its thread ran.
pub fn run_timed(
    session: &Session<'_>,
    states: &mut [ClientState],
    streams: &[Vec<Op>],
    duration: Duration,
) -> Vec<(Vec<Sample>, f64)> {
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        let handles: Vec<_> = states
            .iter_mut()
            .zip(streams)
            .map(|(state, stream)| {
                scope.spawn(move || {
                    let mut samples = Vec::with_capacity(stream.len());
                    for &op in stream.iter().cycle() {
                        let Some(timed) = session.execute(Level::Endpoint, state, op) else {
                            continue;
                        };
                        let end = timed.end - t0;
                        samples.push(Sample {
                            end_ns: end.as_nanos() as u64,
                            latency_ns: (timed.end - timed.start).as_nanos().min(u32::MAX as u128)
                                as u32,
                            kind: op.kind,
                        });
                        if end >= duration {
                            break;
                        }
                    }
                    (samples, procfs::this_thread_cpu_seconds().unwrap_or(0.0))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}
