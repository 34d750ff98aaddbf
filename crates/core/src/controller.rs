//! The Pesos controller: the partition engine and its unified policy
//! enforcement.
//!
//! Every typed operation runs the same steps: the session is looked up, the
//! object's associated policy is fetched (policy cache → drive), the policy
//! interpreter decides, and only then is the storage layer invoked — the
//! single enforcement layer the paper argues for. An asynchronous put is the
//! synchronous put decided at acceptance and written later by a host-pool
//! service thread that enters the enclave to run it; its result lands in
//! the bounded result buffer.
//!
//! Transactions reach a controller as one branch at a time, already
//! buffered: [`PesosController::prepare_commit`] locks and validates it,
//! [`PesosController::commit_prepared`] applies it. REST requests and the
//! transaction buffer live one layer up, in `pesos_cluster`; a client of a
//! single controller uses a one-partition `ControllerCluster`.

use std::borrow::Cow;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};
use pesos_crypto::Certificate;
use pesos_policy::{Operation, PolicyId, Request, ValueRef};
use pesos_sgx::HostPool;
use pesos_telemetry::{OpKind, OpTimer, StatsNode};
use rand::RngCore;

use crate::bootstrap::{bootstrap, BootstrapReport};
use crate::config::ControllerConfig;
use crate::error::PesosError;
use crate::lfu::CacheStats;
use crate::metadata::ObjectMetadata;
use crate::metrics::ControllerMetrics;
use crate::placement::HashedKey;
use crate::result_buffer::AsyncResult;
use crate::session::ClientState;
use crate::store::PesosStore;
use crate::transaction::{TransactionManager, TxOutcome, TxWrite};

/// Suffix used to derive an object's associated log key for MAL policies.
pub const LOG_SUFFIX: &str = ".log";

/// One write of a prepared transaction, with everything the commit phase
/// needs precomputed during prepare (so commit re-hashes nothing).
struct PreparedWrite {
    key_hash: u64,
    content_hash: pesos_crypto::Digest,
}

/// A transaction that passed validation with all of its locks held — the
/// controller-level "prepared" state of a two-phase commit.
///
/// Produced by [`PesosController::prepare_commit`]: every policy check has
/// passed and every buffered read has executed, but no write has touched
/// the store. The coordinator either applies it with
/// [`PesosController::commit_prepared`] or discards it with
/// [`PesosController::abort_prepared`]; merely dropping it also releases
/// the locks without writing (the abort metric is then not bumped).
pub struct PreparedCommit<'a> {
    prepared: crate::transaction::PreparedTransaction<'a>,
    read_values: Vec<Vec<u8>>,
    write_plan: Vec<PreparedWrite>,
}

/// Who asks, and when, as a policy sees it, read once when the session
/// admits the request. `put_async` owns it, so the pool call that runs
/// its write can decide again without the controller.
struct Requester<'r> {
    client_id: Cow<'r, str>,
    certificates: Cow<'r, [Certificate]>,
    nonce: Option<Vec<u8>>,
    now: u64,
}

impl Requester<'_> {
    /// Evaluates the policy attached to `key` (if any) for `operation`,
    /// returning the policy that was applied so callers can inspect what it
    /// constrained; a denial is counted on `metrics`. `meta` is the
    /// caller's already-fetched metadata for `key`.
    #[allow(clippy::too_many_arguments)]
    fn check_policy(
        &self,
        store: &PesosStore,
        metrics: &ControllerMetrics,
        operation: Operation,
        key: &HashedKey<'_>,
        meta: Option<&ObjectMetadata>,
        next_version: Option<u64>,
        new_object_hash: Option<&[u8; 32]>,
    ) -> Result<Option<Arc<pesos_policy::CompiledPolicy>>, PesosError> {
        let Some(meta) = meta else {
            // No object yet: creation is governed by the policy supplied with
            // the put (if any). `None` is an absence the drives confirmed, or
            // — a put — one they must confirm by accepting the create.
            return Ok(None);
        };
        let Some(policy_id) = meta.policy_id else {
            return Ok(None);
        };
        // A read that presents no certificate depends on nothing but the
        // policy, the principal, the key and the records it looks up, so
        // the store may answer it from memory (`store` module docs, "Read
        // decisions are remembered").
        let pure_read = operation == Operation::Read && self.certificates.is_empty();
        let reader = pure_read.then_some(&*self.client_id);
        let (policy, decision) = store.decide(&policy_id, key, reader, |policy, view| {
            // The request as the evaluator sees it, borrowed from what this
            // call already holds; the log's name is only built for a policy
            // that mentions the `LOG` handle.
            let key = key.key();
            let log_key = policy.log_slot.map(|_| format!("{key}{LOG_SUFFIX}"));
            let request = Request {
                session_key: Some(&self.client_id),
                certificates: &self.certificates,
                now: self.now,
                freshness_nonce: self.nonce.as_deref(),
                next_version,
                new_object_hash: new_object_hash.map(|hash| hash.as_slice()),
                this: Some(ValueRef::Str(key)),
                log: log_key.as_deref().map(ValueRef::Str),
                bindings: &[],
            };
            policy.evaluate_request(operation, &request, view)
        })?;
        if decision.allowed {
            Ok(Some(policy))
        } else {
            metrics.policy_denials.add(1);
            Err(PesosError::PolicyDenied(decision.reason))
        }
    }
}

/// One put between its decision and its write. [`PesosController::put`]
/// runs both halves at once; [`PesosController::put_async`] decides when it
/// accepts and hands the write, refusal loop included, to the host pool.
struct PutRequest<'r> {
    requester: Requester<'r>,
    policy_id: Option<PolicyId>,
    expected_version: Option<u64>,
    new_hash: pesos_crypto::Digest,
}

impl PutRequest<'_> {
    /// Decides the put against `current` — the record the map holds, or
    /// the one the drives handed back when they refused a create.
    fn decide(
        &self,
        store: &PesosStore,
        metrics: &ControllerMetrics,
        key: &HashedKey<'_>,
        current: Option<&ObjectMetadata>,
    ) -> Result<Option<u64>, PesosError> {
        let default_next = current.map_or(0, |m| m.latest_version + 1);
        let next_version = self.expected_version.unwrap_or(default_next);
        let applied = self.requester.check_policy(
            store,
            metrics,
            Operation::Update,
            key,
            current,
            Some(next_version),
            Some(&self.new_hash),
        )?;
        if let Some(id) = &self.policy_id {
            // The referenced policy must exist before it can be attached.
            store.load_policy(id)?;
        }
        // The version the store re-validates under the key lock: the
        // client's explicit compare-and-swap version, else the one the policy
        // just approved if it constrains `nextVersion` (enforcing it for
        // plain ACL policies would make every concurrent writer but one fail).
        let pinned = applied.is_some_and(|p| p.constrains_version(Operation::Update));
        Ok(self.expected_version.or(pinned.then_some(next_version)))
    }

    /// Writes the decided put. A create the drives refuse (cold controller,
    /// failed delete, racing creator) hands their record back unwritten and
    /// the put is decided again against it, so a cold restart can never
    /// turn a policy-denied update into a create.
    fn write(
        &self,
        store: &PesosStore,
        metrics: &ControllerMetrics,
        key: &HashedKey<'_>,
        value: &[u8],
        (create, cas): (bool, Option<u64>),
    ) -> Result<u64, PesosError> {
        let cas = if create {
            match store.create_object(key, value, self.policy_id, cas, self.new_hash)? {
                Ok(version) => return Ok(version),
                Err(record) => self.decide(store, metrics, key, Some(&record))?,
            }
        } else {
            cas
        };
        // The store re-validates `cas` under the key lock: of two racing
        // writers that passed the same version check, one gets a
        // VersionConflict instead of a blind overwrite.
        store.put_object_full(key, value, self.policy_id, cas, Some(self.new_hash))
    }
}

/// The error every sessioned operation of a failed controller answers.
fn crashed() -> PesosError {
    PesosError::Unavailable("controller failed (simulated crash)".to_string())
}

/// One cache's subtree of `/stats/.../store`: `refused` counts fills the
/// cache's admission turned away, each saving a copy (and on an object
/// read, a hash; on a policy read-back, a parse).
fn cache_node(stats: &CacheStats) -> StatsNode {
    StatsNode::dir()
        .with("hits", StatsNode::leaf(stats.hits))
        .with("misses", StatsNode::leaf(stats.misses))
        .with("evictions", StatsNode::leaf(stats.evictions))
        .with("refused", StatsNode::leaf(stats.refused))
        .with("entries", StatsNode::leaf(stats.entries))
}

/// The `put_async` bodies a controller has handed to the host pool and
/// that have not finished, for [`PesosController::drain_async`].
struct Deferred {
    pending: Mutex<u64>,
    idle: Condvar,
}

/// One of them, counted from acceptance until dropped: after its body
/// ran, or with the body, unrun.
struct DeferredPut(Arc<Deferred>);

impl DeferredPut {
    fn new(deferred: &Arc<Deferred>) -> Self {
        *deferred.pending.lock() += 1;
        DeferredPut(Arc::clone(deferred))
    }
}

impl Drop for DeferredPut {
    fn drop(&mut self) {
        let mut pending = self.0.pending.lock();
        *pending -= 1;
        if *pending == 0 {
            self.0.idle.notify_all();
        }
    }
}

/// The Pesos controller.
pub struct PesosController {
    config: ControllerConfig,
    store: Arc<PesosStore>,
    /// Sessions, clock, telemetry switch and async results: the
    /// controller's own, or its cluster's, shared by every member.
    clients: Arc<ClientState>,
    transactions: TransactionManager,
    deferred: Arc<Deferred>,
    /// Shared with the pool calls that run deferred writes.
    metrics: Arc<ControllerMetrics>,
    /// Simulated crash flag. While set, every sessioned operation is
    /// refused with the retryable [`PesosError::Unavailable`] so a cluster
    /// layer can fail over to a backup store; direct store access
    /// (recovery tooling) is unaffected; a deferred write does not run.
    failed: Arc<AtomicBool>,
}

impl PesosController {
    /// Bootstraps a controller: attestation, secret provisioning, exclusive
    /// drive takeover, cache construction. The controller is the only
    /// member of a host I/O pool of its own, and keeps its clients' state
    /// to itself.
    pub fn new(config: ControllerConfig) -> Result<Self, PesosError> {
        let pool = HostPool::new(config.syscall_slots());
        let clients = Arc::new(ClientState::new(config.lock_shards));
        Self::with_pool(config, &pool, &clients)
    }

    /// Like [`PesosController::new`], but the enclave submits its I/O to
    /// `pool`, which it joins with its own service threads and slots, and
    /// the controller serves the clients of `clients`. A cluster builds
    /// every store it runs on one pool, so one hot service thread serves
    /// them all (`pesos_sgx::asyscall`, "One host pool"), and hands every
    /// controller its one [`ClientState`]; each store still charges its
    /// own cost model.
    pub fn with_pool(
        config: ControllerConfig,
        pool: &Arc<HostPool>,
        clients: &Arc<ClientState>,
    ) -> Result<Self, PesosError> {
        let store = bootstrap(&config, pool)?;
        Ok(Self::with_store(config, Arc::new(store), clients))
    }

    /// Builds the controller of `store`, which was bootstrapped from
    /// `config`, serving the clients of `clients`; it starts no thread. A
    /// cluster builds a backup as a bare store and its controller only
    /// when it promotes it.
    pub fn with_store(
        config: ControllerConfig,
        store: Arc<PesosStore>,
        clients: &Arc<ClientState>,
    ) -> Self {
        PesosController {
            clients: Arc::clone(clients),
            transactions: TransactionManager::new(),
            deferred: Arc::new(Deferred {
                pending: Mutex::with_rank(parking_lot::lock_order::DEFERRED_PUTS, 0),
                idle: Condvar::new(),
            }),
            metrics: Arc::default(),
            failed: Arc::default(),
            store,
            config,
        }
    }

    /// The bootstrap report of the store (measurement, drives, device
    /// certificates).
    pub fn report(&self) -> BootstrapReport {
        self.store.report()
    }

    /// The controller configuration.
    pub fn config(&self) -> &ControllerConfig {
        &self.config
    }

    /// Direct access to the storage layer (used by benchmarks and tests).
    pub fn store(&self) -> &Arc<PesosStore> {
        &self.store
    }

    /// A snapshot of the controller metrics (lifetime totals).
    pub fn metrics(&self) -> crate::metrics::MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// The request counter. Its window is the load a cluster rebalances by,
    /// restarted at a topology change and not by a telemetry reset.
    pub fn request_load(&self) -> &pesos_telemetry::WindowedCounter {
        &self.metrics.requests
    }

    /// Sets the logical time (seconds) of the controller's clients.
    /// Time-based policies and session expiry use this clock so tests and
    /// examples are deterministic.
    pub fn set_time(&self, now: u64) {
        self.clients.set_time(now);
    }

    /// The current logical time of the controller's clients.
    pub fn now(&self) -> u64 {
        self.clients.now()
    }

    // ------------------------------------------------------------------
    // Sessions
    // ------------------------------------------------------------------

    /// Registers a client by a stable identifier (e.g. a user name in tests
    /// or the certificate fingerprint in production) and opens its session.
    pub fn register_client(&self, client_id: &str) -> String {
        self.clients.connect(client_id, client_id);
        client_id.to_string()
    }

    /// Registers a client from its TLS certificate; the session identity is
    /// the hex fingerprint of the certificate's public key, which is what
    /// `sessionKeyIs` policies compare against.
    pub fn register_client_with_certificate(
        &self,
        cert: &Certificate,
    ) -> Result<String, PesosError> {
        cert.verify_signature()
            .map_err(|e| PesosError::NoSession(format!("invalid client certificate: {e}")))?;
        let id = pesos_crypto::hex_encode(&cert.subject_key.to_bytes());
        self.clients.connect(&id, &cert.subject);
        Ok(id)
    }

    /// Issues a freshness nonce to a client for time-certificate requests.
    pub fn issue_nonce(&self, client_id: &str) -> Result<Vec<u8>, PesosError> {
        let mut nonce = vec![0u8; 16];
        rand::thread_rng().fill_bytes(&mut nonce);
        if self.clients.sessions.issue_nonce(client_id, nonce.clone()) {
            Ok(nonce)
        } else {
            Err(PesosError::NoSession(client_id.to_string()))
        }
    }

    /// Expires idle sessions; returns the number dropped.
    pub fn expire_sessions(&self) -> usize {
        self.clients.expire()
    }

    /// Marks the controller as crashed (or recovered). A failed controller
    /// refuses every sessioned operation with
    /// [`PesosError::Unavailable`] — the cluster layer's cue to retry
    /// against a promoted backup.
    pub fn set_failed(&self, failed: bool) {
        self.failed.store(failed, Ordering::SeqCst);
    }

    /// True if the controller is simulating a crash.
    pub fn is_failed(&self) -> bool {
        self.failed.load(Ordering::SeqCst)
    }

    /// Admits a request of `client_id`'s session, refused while the
    /// controller is failed.
    fn require_session<'r>(
        &self,
        client_id: impl Into<Cow<'r, str>>,
        certificates: impl Into<Cow<'r, [Certificate]>>,
    ) -> Result<Requester<'r>, PesosError> {
        if self.is_failed() {
            return Err(crashed());
        }
        let client_id = client_id.into();
        let now = self.now();
        let nonce = self
            .clients
            .sessions
            .touch(&client_id, now)
            .ok_or_else(|| PesosError::NoSession(client_id.to_string()))?;
        Ok(Requester {
            client_id,
            certificates: certificates.into(),
            nonce,
            now,
        })
    }

    /// Checks `key`'s policy for `operation` against an authoritative
    /// lookup: a drive fault is an error, never "no object, no policy".
    fn authorize(
        &self,
        requester: &Requester<'_>,
        operation: Operation,
        key: &HashedKey<'_>,
    ) -> Result<(), PesosError> {
        let current = self.store.lookup(key)?;
        let meta = current.as_ref();
        requester.check_policy(&self.store, &self.metrics, operation, key, meta, None, None)?;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Typed operations
    // ------------------------------------------------------------------

    /// Installs a policy and returns its identifier.
    pub fn put_policy(&self, client_id: &str, source: &str) -> Result<PolicyId, PesosError> {
        let _timer = self.op_timer(OpKind::PutPolicy);
        self.require_session(client_id, Vec::new())?;
        self.metrics.requests.add(1);
        self.store.put_policy(source)
    }

    /// Stores an object (optionally associating a policy), enforcing the
    /// update permission of any existing policy. Returns the new version.
    ///
    /// Like every typed object operation, `key` accepts either a bare
    /// `&str` (hashed here, once) or an already-hashed [`HashedKey`] — the
    /// cluster router hashes the key to pick a partition and hands the same
    /// hash down, so routing adds zero digests. The value is only ever read
    /// (hashed, sealed, sent), so it is borrowed: an owned `Vec<u8>`, a
    /// `&[u8]` and a shared buffer all pass without a copy.
    pub fn put<'a>(
        &self,
        client_id: &str,
        key: impl Into<HashedKey<'a>>,
        value: impl AsRef<[u8]>,
        policy_id: Option<PolicyId>,
        expected_version: Option<u64>,
        certificates: &[Certificate],
    ) -> Result<u64, PesosError> {
        let _timer = self.op_timer(OpKind::Put);
        let requester = self.require_session(client_id, certificates)?;
        self.metrics.requests.add(1);
        self.metrics.writes.add(1);

        let key = key.into();
        let value = value.as_ref();
        let (put, decision) =
            self.decide_put(requester, &key, value, policy_id, expected_version)?;
        put.write(&self.store, &self.metrics, &key, value, decision)
    }

    /// The decision half of every put. The drives are not asked: what the
    /// in-enclave map holds is the record, and for a key it does not hold
    /// the decision is provisional until the drives accept the create.
    fn decide_put<'r>(
        &self,
        requester: Requester<'r>,
        key: &HashedKey<'_>,
        value: &[u8],
        policy_id: Option<PolicyId>,
        expected_version: Option<u64>,
    ) -> Result<(PutRequest<'r>, (bool, Option<u64>)), PesosError> {
        let put = PutRequest {
            requester,
            policy_id,
            expected_version,
            new_hash: pesos_crypto::sha256(value),
        };
        let current = self.store.resident_metadata(key);
        let cas = put.decide(&self.store, &self.metrics, key, current.as_ref())?;
        Ok((put, (current.is_none(), cas)))
    }

    /// Stores an object asynchronously: [`PesosController::put`], decided
    /// now (the map only, no drive read) and written later by a host-pool
    /// call nobody waits on. Returns the operation identifier the client polls. On a
    /// partition primary the write's batch is appended to the partition's
    /// log before the result is filed, so a poll that reads `Completed`
    /// reads a logged write.
    ///
    /// "Accepted" means queued: a write still queued when the controller
    /// fails never runs, and its poll answers `Failed` with the
    /// [`PesosError::Unavailable`] text. On a key the map does not hold, a
    /// denial can arrive through the poll — the provisional decision a
    /// synchronous put makes, failing closed the same way.
    ///
    /// The value is taken shared: a `Vec<u8>` moves in without a copy, and
    /// a caller that may offer it again (the cluster's retry) keeps its
    /// `Arc`.
    pub fn put_async<'a>(
        &self,
        client_id: &str,
        key: impl Into<HashedKey<'a>>,
        value: impl Into<Arc<Vec<u8>>>,
        policy_id: Option<PolicyId>,
        expected_version: Option<u64>,
        certificates: &[Certificate],
    ) -> Result<u64, PesosError> {
        // Times acceptance (the decision + enqueue), not the deferred write.
        let _timer = self.op_timer(OpKind::PutAsync);
        let requester = self.require_session(client_id.to_string(), certificates.to_vec())?;
        self.metrics.requests.add(1);
        self.metrics.writes.add(1);

        let key = key.into();
        let value: Arc<Vec<u8>> = value.into();
        let (put, decision) =
            self.decide_put(requester, &key, &value, policy_id, expected_version)?;
        let op_id = self.clients.results.register(client_id);
        self.metrics.async_accepted.add(1);
        let store = Arc::clone(&self.store);
        let metrics = Arc::clone(&self.metrics);
        let clients = Arc::clone(&self.clients);
        let failed = Arc::clone(&self.failed);
        let pending = DeferredPut::new(&self.deferred);
        // Only the raw parts can move into the pool call; the key hash
        // travels with them so the store does not recompute it.
        let (key_hash, key) = (key.hash(), key.key().to_string());
        self.store.defer(move || {
            let _pending = pending;
            let key = HashedKey::from_parts(&key, key_hash);
            let written = if failed.load(Ordering::SeqCst) {
                Err(crashed())
            } else {
                put.write(&store, &metrics, &key, &value, decision)
            };
            let outcome = match written {
                Ok(version) => AsyncResult::Completed {
                    version: Some(version),
                },
                Err(e) => AsyncResult::Failed {
                    reason: e.to_string(),
                },
            };
            clients.results.complete(op_id, outcome);
        })?;
        Ok(op_id)
    }

    /// Retrieves the latest version of an object, enforcing the read
    /// permission.
    pub fn get<'a>(
        &self,
        client_id: &str,
        key: impl Into<HashedKey<'a>>,
        certificates: &[Certificate],
    ) -> Result<(Arc<Vec<u8>>, u64), PesosError> {
        let _timer = self.op_timer(OpKind::Get);
        let requester = self.require_session(client_id, certificates)?;
        self.metrics.requests.add(1);
        self.metrics.reads.add(1);
        let key = key.into();
        self.authorize(&requester, Operation::Read, &key)?;
        self.store.get_object(key)
    }

    /// Retrieves a specific stored version (history read for versioned
    /// objects), enforcing the read permission.
    pub fn get_version<'a>(
        &self,
        client_id: &str,
        key: impl Into<HashedKey<'a>>,
        version: u64,
        certificates: &[Certificate],
    ) -> Result<Vec<u8>, PesosError> {
        let _timer = self.op_timer(OpKind::GetVersion);
        let requester = self.require_session(client_id, certificates)?;
        self.metrics.requests.add(1);
        self.metrics.reads.add(1);
        let key = key.into();
        self.authorize(&requester, Operation::Read, &key)?;
        self.store.get_object_version(key, version)
    }

    /// Deletes an object, enforcing the delete permission.
    pub fn delete<'a>(
        &self,
        client_id: &str,
        key: impl Into<HashedKey<'a>>,
        certificates: &[Certificate],
    ) -> Result<(), PesosError> {
        let _timer = self.op_timer(OpKind::Delete);
        let requester = self.require_session(client_id, certificates)?;
        self.metrics.requests.add(1);
        self.metrics.deletes.add(1);
        let key = key.into();
        self.authorize(&requester, Operation::Delete, &key)?;
        self.store.delete_object(key)
    }

    /// Attaches an existing policy to an existing object (a policy change is
    /// treated as an update of the object, per §3.3).
    pub fn attach_policy<'a>(
        &self,
        client_id: &str,
        key: impl Into<HashedKey<'a>>,
        policy_id: PolicyId,
        certificates: &[Certificate],
    ) -> Result<(), PesosError> {
        let _timer = self.op_timer(OpKind::AttachPolicy);
        let requester = self.require_session(client_id, certificates)?;
        self.metrics.requests.add(1);
        let key = key.into();
        self.authorize(&requester, Operation::Update, &key)?;
        self.store.load_policy(&policy_id)?;
        self.store.attach_policy(key, policy_id)
    }

    /// Polls the result of an asynchronous operation.
    pub fn poll_result(&self, client_id: &str, operation_id: u64) -> Option<AsyncResult> {
        self.clients.results.poll(client_id, operation_id)
    }

    /// Parks until every `put_async` body this controller has handed to
    /// the host pool has run. The wait has no bound: a body blocked on a
    /// drive holds it up. Failover and topology changes call it so that no
    /// accepted write lands after them; benchmarks and tests call it to
    /// settle before they read.
    pub fn drain_async(&self) {
        let mut pending = self.deferred.pending.lock();
        while *pending > 0 {
            self.deferred.idle.wait(&mut pending);
        }
    }

    // ------------------------------------------------------------------
    // Transactions
    // ------------------------------------------------------------------

    /// Phase one of a two-phase commit: takes the VLL locks of a branch
    /// that reads `reads` and writes `writes`, runs every policy check and
    /// executes every read — all the validation that can abort the
    /// transaction — without applying any write.
    ///
    /// On success the locks stay held inside the returned
    /// [`PreparedCommit`]; a distributed coordinator prepares every
    /// participant before committing any of them, so one partition's policy
    /// rejection aborts the whole transaction with no partition having
    /// written. On failure the locks are released and the abort metric is
    /// bumped.
    pub fn prepare_commit(
        &self,
        client_id: &str,
        reads: Vec<String>,
        writes: Vec<TxWrite>,
    ) -> Result<PreparedCommit<'_>, PesosError> {
        let requester = self.require_session(client_id, Vec::new())?;
        let prepared = self.transactions.prepare(reads, writes);
        match self.validate_prepared(&requester, &prepared) {
            Ok((read_values, write_plan)) => Ok(PreparedCommit {
                prepared,
                read_values,
                write_plan,
            }),
            Err(e) => {
                // Dropping `prepared` releases the locks.
                self.metrics.tx_aborted.add(1);
                Err(e)
            }
        }
    }

    /// The validation body of [`PesosController::prepare_commit`]: policy
    /// checks for writes then reads (a denial aborts before any state
    /// changes), then the buffered reads. Hashes each key and each write
    /// payload once; the returned plan carries them so the commit phase
    /// re-hashes nothing.
    fn validate_prepared(
        &self,
        requester: &Requester<'_>,
        prepared: &crate::transaction::PreparedTransaction<'_>,
    ) -> Result<(Vec<Vec<u8>>, Vec<PreparedWrite>), PesosError> {
        // A prepare promises versions it must be able to write, so every
        // lookup here is authoritative; the commit's writes are still
        // compare-on-absent while the map does not hold their key.
        let mut write_plan = Vec::with_capacity(prepared.writes().len());
        for write in prepared.writes() {
            let key = HashedKey::new(&write.key);
            let content_hash = pesos_crypto::sha256(&write.value);
            let current = self.store.lookup(&key)?;
            let next = current.as_ref().map(|m| m.latest_version + 1).unwrap_or(0);
            requester.check_policy(
                &self.store,
                &self.metrics,
                Operation::Update,
                &key,
                current.as_ref(),
                Some(next),
                Some(&content_hash),
            )?;
            write_plan.push(PreparedWrite {
                key_hash: key.hash(),
                content_hash,
            });
        }
        let read_keys: Vec<HashedKey<'_>> =
            prepared.reads().iter().map(|k| HashedKey::new(k)).collect();
        for key in &read_keys {
            self.authorize(requester, Operation::Read, key)?;
        }
        let read_values = read_keys
            .iter()
            .map(|key| Ok(self.store.get_object(key)?.0.to_vec()))
            .collect::<Result<_, PesosError>>()?;
        Ok((read_values, write_plan))
    }

    /// Phase two of a two-phase commit: applies the prepared writes under
    /// the locks taken in phase one, releases the locks and returns the
    /// branch's outcome. Filing it is the coordinator's business
    /// ([`PesosStore::record_tx_outcome`]): only the merged outcome is
    /// one a client can ask for.
    ///
    /// A failure here is a backend failure (validation already passed in
    /// phase one); writes applied before the failing one remain.
    pub fn commit_prepared(&self, prepared: PreparedCommit<'_>) -> Result<TxOutcome, PesosError> {
        let PreparedCommit {
            prepared,
            read_values,
            write_plan,
        } = prepared;
        let mut outcome = TxOutcome {
            write_versions: Vec::with_capacity(write_plan.len()),
            read_values,
        };
        for (write, plan) in prepared.writes().iter().zip(&write_plan) {
            let key = HashedKey::from_parts(&write.key, plan.key_hash);
            let version = self
                .store
                .put_object_full(key, &write.value, None, None, Some(plan.content_hash))
                .inspect_err(|_| self.metrics.tx_aborted.add(1))?;
            outcome.write_versions.push(version);
        }
        drop(prepared); // release the VLL locks
        self.metrics.tx_committed.add(1);
        Ok(outcome)
    }

    /// Aborts a prepared transaction: releases its locks without applying
    /// any write (used by the cluster coordinator when a sibling
    /// partition's branch failed to prepare).
    pub fn abort_prepared(&self, prepared: PreparedCommit<'_>) {
        self.metrics.tx_aborted.add(1);
        drop(prepared);
    }

    // ------------------------------------------------------------------
    // Telemetry
    // ------------------------------------------------------------------

    /// Starts the latency timer for one typed operation (records into the
    /// controller's per-op histogram when dropped; a no-op while its
    /// clients' telemetry switch is off).
    fn op_timer(&self, kind: OpKind) -> OpTimer<'_> {
        self.metrics
            .ops
            .timer(kind, self.clients.telemetry_enabled())
    }

    /// This controller's stats subtree: request counters, per-operation
    /// latency histograms, and store occupancy/SGX gauges. The cluster
    /// router mounts one of these per partition under
    /// `/stats/partitions/<i>`. See `pesos_telemetry` for the path grammar.
    pub fn stats_tree(&self) -> StatsNode {
        let m = self.metrics.snapshot();
        let metrics = StatsNode::dir()
            .with("requests", StatsNode::leaf(m.requests))
            .with("reads", StatsNode::leaf(m.reads))
            .with("writes", StatsNode::leaf(m.writes))
            .with("deletes", StatsNode::leaf(m.deletes))
            .with("policy_denials", StatsNode::leaf(m.policy_denials))
            .with("async_accepted", StatsNode::leaf(m.async_accepted))
            .with("tx_committed", StatsNode::leaf(m.tx_committed))
            .with("tx_aborted", StatsNode::leaf(m.tx_aborted));
        let epc = self.store.epc_stats();
        let asyscall = self.store.asyscall_stats();
        let sgx = StatsNode::dir()
            .with("epc_resident_bytes", StatsNode::leaf(epc.resident_bytes))
            .with("epc_peak_bytes", StatsNode::leaf(epc.peak_bytes))
            .with("epc_page_faults", StatsNode::leaf(epc.page_faults))
            .with("asyscalls_submitted", StatsNode::leaf(asyscall.submitted))
            .with("asyscall_exits", StatsNode::leaf(asyscall.exits))
            .with("asyscall_slot_waits", StatsNode::leaf(asyscall.slot_waits))
            .with("asyscall_parks", StatsNode::leaf(asyscall.parks))
            .with("asyscall_batches", StatsNode::leaf(asyscall.batches));
        // Creates the drives contradicted (`PesosStore::create_stats`): a
        // restart is a burst of refusals that decays as the map fills; a
        // rollback on a healthy cluster means replicas disagree on whether
        // a key exists.
        let creates = self.store.create_stats();
        // The caches (`cache_node`), the object cache's with its bytes.
        let objects = self.store.object_cache_stats();
        let object_cache =
            cache_node(&objects).with("used_bytes", StatsNode::leaf(objects.used_bytes));
        // `decisions`: evaluations run, and remembered read decisions that
        // answered a read or were found stale (`store` module docs, "Read
        // decisions are remembered"); `entries` is how many are held.
        let policies = self.store.policy_cache_stats();
        let decided = self.store.decision_stats();
        let decisions = StatsNode::dir()
            .with("evaluations", StatsNode::leaf(decided.evaluations))
            .with("hits", StatsNode::leaf(decided.hits))
            .with("stale", StatsNode::leaf(decided.stale))
            .with("entries", StatsNode::leaf(policies.decisions));
        let policy_cache = cache_node(&policies).with("decisions", decisions);
        let store = StatsNode::dir()
            .with("create_refusals", StatsNode::leaf(creates.refusals))
            .with("create_rollbacks", StatsNode::leaf(creates.rollbacks))
            .with("object_cache", object_cache)
            .with("policy_cache", policy_cache);
        StatsNode::dir()
            .with(
                "resident_objects",
                StatsNode::leaf(self.store.resident_object_count()),
            )
            .with("metrics", metrics)
            .with("latency", pesos_telemetry::ops_node(&self.metrics.ops))
            .with("sgx", sgx)
            .with("store", store)
    }

    /// Restarts this controller's telemetry window (latency histograms).
    /// The request counters and the load window are unaffected.
    pub fn reset_telemetry_window(&self) {
        self.metrics.ops.reset_window();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller() -> PesosController {
        PesosController::new(ControllerConfig::native_simulator(1)).unwrap()
    }

    fn write(key: &str, value: &[u8]) -> TxWrite {
        TxWrite {
            key: key.into(),
            value: value.to_vec(),
        }
    }

    #[test]
    fn basic_put_get_delete_without_policy() {
        let c = controller();
        c.register_client("alice");
        let v = c
            .put("alice", "greeting", b"hello", None, None, &[])
            .unwrap();
        assert_eq!(v, 0);
        let (value, version) = c.get("alice", "greeting", &[]).unwrap();
        assert_eq!(&**value, b"hello");
        assert_eq!(version, 0);
        c.delete("alice", "greeting", &[]).unwrap();
        assert!(c.get("alice", "greeting", &[]).is_err());
    }

    #[test]
    fn a_create_asks_the_drives_nothing() {
        // One drive, so one metadata read is one drive GET and one
        // batch is one drive PUT. A synchronous create consults the map
        // only; its existence check rides in the batch.
        let c = PesosController::new(ControllerConfig::native_simulator(1)).unwrap();
        let client = c.register_client("alice");
        let ops = || {
            let stats = c.store().drives().get(0).unwrap().info().stats;
            (stats.gets, stats.puts)
        };
        let before = ops();
        assert_eq!(c.put(&client, "fresh", b"v0", None, None, &[]).unwrap(), 0);
        assert_eq!(ops(), (before.0, before.1 + 1), "create: 0 reads, 1 batch");
        // An update is served from the in-enclave map: no read either.
        let before = ops();
        assert_eq!(c.put(&client, "fresh", b"v1", None, None, &[]).unwrap(), 1);
        assert_eq!(ops(), (before.0, before.1 + 1), "update: 1 batch");
        // An asynchronous create is the synchronous one, run later.
        let before = ops();
        let op = c
            .put_async(&client, "fresh-async", b"v".to_vec(), None, None, &[])
            .unwrap();
        c.drain_async();
        assert!(matches!(
            c.poll_result(&client, op),
            Some(AsyncResult::Completed { version: Some(0) })
        ));
        assert_eq!(ops(), (before.0, before.1 + 1), "async: 0 reads, 1 batch");
        // A transactional create promises before it writes, so it keeps
        // its one authoritative lookup; the write itself is still one
        // (conditional) batch.
        let before = ops();
        let prepared = c
            .prepare_commit(&client, Vec::new(), vec![write("fresh-tx", b"v")])
            .unwrap();
        c.commit_prepared(prepared).unwrap();
        assert_eq!(ops(), (before.0 + 1, before.1 + 1), "tx: 1 read, 1 batch");
        assert_eq!(c.store().create_stats(), Default::default());
    }

    #[test]
    fn unregistered_client_rejected() {
        let c = controller();
        assert!(matches!(
            c.put("ghost", "k", vec![], None, None, &[]),
            Err(PesosError::NoSession(_))
        ));
    }

    #[test]
    fn failed_controller_refuses_sessioned_operations() {
        let c = controller();
        c.register_client("alice");
        c.put("alice", "k", b"v", None, None, &[]).unwrap();
        c.set_failed(true);
        assert!(c.is_failed());
        assert!(matches!(
            c.get("alice", "k", &[]),
            Err(PesosError::Unavailable(_))
        ));
        assert!(matches!(
            c.put("alice", "k", b"w", None, None, &[]),
            Err(PesosError::Unavailable(_))
        ));
        // Direct store access (replication appliers) keeps working.
        assert!(c.store().get_object("k").is_ok());
        c.set_failed(false);
        assert_eq!(&**c.get("alice", "k", &[]).unwrap().0, b"v");
    }

    #[test]
    fn a_policy_that_could_never_hold_is_refused_at_install() {
        let c = controller();
        c.register_client("alice");
        // `T` is compared before anything can have bound it; the evaluator
        // used to install this and deny every request.
        let source = "read :- sessionKeyIs(\"alice\")\nupdate :- le(T, 100)";
        let refused = pesos_policy::compile(source).unwrap_err();
        assert!(matches!(
            &refused,
            pesos_policy::PolicyError::UnboundVariable { variable, span, .. }
                if variable == "T" && &source[span.start..span.end] == "le(T, 100)"
        ));
        assert_eq!(
            c.put_policy("alice", source),
            Err(PesosError::BadRequest(format!("policy error: {refused}")))
        );
        // Nothing was stored under the id the policy would have had.
        assert_eq!(c.store().policy_cache_stats().entries, 0);
    }

    #[test]
    fn acl_policy_enforced_end_to_end() {
        let c = controller();
        c.register_client("alice");
        c.register_client("bob");
        c.register_client("admin");
        let policy = c
            .put_policy(
                "alice",
                "read :- sessionKeyIs(\"alice\") or sessionKeyIs(\"bob\")\n\
                 update :- sessionKeyIs(\"alice\")\n\
                 delete :- sessionKeyIs(\"admin\")",
            )
            .unwrap();
        c.put("alice", "doc", b"v0", Some(policy), None, &[])
            .unwrap();

        // Bob can read but not update.
        assert!(c.get("bob", "doc", &[]).is_ok());
        assert!(matches!(
            c.put("bob", "doc", b"v1", None, None, &[]),
            Err(PesosError::PolicyDenied(_))
        ));
        // Alice can update; only admin can delete.
        c.put("alice", "doc", b"v1", None, None, &[]).unwrap();
        assert!(c.delete("alice", "doc", &[]).is_err());
        c.delete("admin", "doc", &[]).unwrap();
        assert!(c.metrics().policy_denials >= 2);
    }

    #[test]
    fn a_replica_fault_is_never_read_as_no_policy() {
        use crate::metadata::{data_key, meta_key};
        use pesos_kinetic::FaultPlan;
        let c = PesosController::new(ControllerConfig {
            replication_factor: 2,
            ..ControllerConfig::native_simulator(3)
        })
        .unwrap();
        c.register_client("alice");
        c.register_client("mallory");
        let policy = c
            .put_policy(
                "alice",
                "read :- sessionKeyIs(\"alice\")\n\
                 update :- sessionKeyIs(\"alice\")\n\
                 delete :- sessionKeyIs(\"alice\")",
            )
            .unwrap();
        let drives = c.store().drives();
        let home = crate::placement::placement("acked", 3, 2);
        // The object on its first home replica alone, and not in the map:
        // what a create that reached only that replica left behind on a
        // cold controller. Forced there, since a create with the second
        // replica away is refused.
        c.store().seed_v0_on(home[0], "acked", b"v0", Some(policy));
        let on_drives = || -> Vec<_> {
            drives
                .iter()
                .map(|d| {
                    let bytes = |key| d.peek(key).map(|entry| entry.value);
                    (
                        d.key_count(),
                        bytes(&meta_key("acked")),
                        bytes(&data_key("acked", 0)),
                    )
                })
                .collect()
        };
        let before = on_drives();

        // The replica that holds the record faults; the second one answers
        // that it holds nothing. That is no licence to skip the policy. The
        // map does not hold the key, so the asynchronous put is accepted on
        // the same provisional decision a synchronous one makes, and its
        // write fails with the fault.
        drives
            .get(home[0])
            .unwrap()
            .inject_faults(FaultPlan::errors(7, 1.0));
        let log = Arc::new(crate::store::CapturedLog::default());
        c.store().attach_log(&log);
        let polled = |c: &PesosController| {
            let op = c
                .put_async("mallory", "acked", b"mine".to_vec(), None, None, &[])
                .unwrap();
            c.drain_async();
            assert!(log.0.lock().is_empty(), "a failed write was logged");
            c.poll_result("mallory", op)
        };
        let fault = PesosError::Backend(String::new()).to_string();
        assert!(
            matches!(&polled(&c), Some(AsyncResult::Failed { reason }) if reason.starts_with(&fault)),
            "{:?}",
            polled(&c)
        );
        // The second replica accepted the create; it is rolled back, or it
        // would hold a record without the object's policy.
        assert!(matches!(
            c.put("mallory", "acked", b"mine", None, None, &[]),
            Err(PesosError::Backend(_))
        ));
        assert!(matches!(
            c.get("mallory", "acked", &[]),
            Err(PesosError::Backend(_))
        ));
        assert!(matches!(
            c.delete("mallory", "acked", &[]),
            Err(PesosError::Backend(_))
        ));
        assert_eq!(on_drives(), before);

        drives.get(home[0]).unwrap().clear_faults();
        let denied = PesosError::PolicyDenied(String::new()).to_string();
        assert!(
            matches!(&polled(&c), Some(AsyncResult::Failed { reason }) if reason.starts_with(&denied)),
            "{:?}",
            polled(&c)
        );
        assert_eq!(on_drives(), before);
        assert_eq!(&**c.get("alice", "acked", &[]).unwrap().0, b"v0");
    }

    #[test]
    fn versioned_store_policy_via_rest() {
        let c = controller();
        c.register_client("writer");
        let policy = c
            .put_policy(
                "writer",
                "update :- ( objId(this, O) and currVersion(O, CV) and nextVersion(CV + 1) ) \
                 or ( objId(this, NULL) and nextVersion(0) )\n\
                 read :- sessionKeyIs(U)",
            )
            .unwrap();
        // Create at version 0.
        let v = c
            .put("writer", "versioned", b"v0", Some(policy), Some(0), &[])
            .unwrap();
        assert_eq!(v, 0);
        // Correct increment accepted, wrong one rejected.
        assert!(c
            .put("writer", "versioned", b"v1", None, Some(1), &[])
            .is_ok());
        assert!(c
            .put("writer", "versioned", b"v3", None, Some(3), &[])
            .is_err());
        // History read.
        assert_eq!(c.get_version("writer", "versioned", 0, &[]).unwrap(), b"v0");
        assert_eq!(c.get("writer", "versioned", &[]).unwrap().1, 1);
    }

    #[test]
    fn async_put_and_poll() {
        let c = controller();
        c.register_client("alice");
        let log = Arc::new(crate::store::CapturedLog::default());
        c.store().attach_log(&log);
        let op = c
            .put_async("alice", "async-obj", b"payload".to_vec(), None, None, &[])
            .unwrap();
        c.drain_async();
        match c.poll_result("alice", op) {
            Some(AsyncResult::Completed { version }) => assert_eq!(version, Some(0)),
            other => panic!("unexpected async result {other:?}"),
        }
        // Completed ⇒ logged: the write's one batch, version 0 included.
        let logged = log.0.lock();
        assert_eq!(logged.len(), 1);
        assert_eq!(logged[0].0, "async-obj");
        assert!(logged[0]
            .1
            .iter()
            .any(|op| op.key() == crate::metadata::data_key("async-obj", 0)));
        drop(logged);
        // Other clients cannot see the result.
        assert!(c.poll_result("bob", op).is_none());
        let (value, _) = c.get("alice", "async-obj", &[]).unwrap();
        assert_eq!(&**value, b"payload");
    }

    #[test]
    fn a_deferred_write_of_a_failed_controller_never_runs() {
        let c = controller();
        c.register_client("alice");
        let drive = Arc::clone(c.store().drives().get(0).unwrap());
        // Every service thread of the controller's pool takes one put and
        // is held inside its drive write, so the last put is still queued
        // when the controller fails; the gate opens only after that.
        let gate = drive.hold_exchanges();
        let threads = c.store().asyscall().pool().stats().threads;
        let ops: Vec<u64> = (0..=threads)
            .map(|i| {
                c.put_async("alice", format!("k{i}").as_str(), vec![1], None, None, &[])
                    .unwrap()
            })
            .collect();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while gate.waiting() < threads {
            assert!(
                std::time::Instant::now() < deadline,
                "{threads} writes never started"
            );
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let puts = drive.info().stats.puts;
        c.set_failed(true);
        gate.open();
        c.drain_async();
        assert_eq!(
            c.poll_result("alice", ops[threads]),
            Some(AsyncResult::Failed {
                reason: crashed().to_string()
            })
        );
        for op in &ops[..threads] {
            let result = c.poll_result("alice", *op);
            assert!(
                matches!(result, Some(AsyncResult::Completed { .. })),
                "{result:?}"
            );
        }
        // Exactly the writes that had started before the failure reached
        // the drive, one put each.
        assert_eq!(drive.info().stats.puts - puts, threads as u64);
        drive.clear_faults();
        c.set_failed(false);
        assert!(matches!(
            c.get("alice", format!("k{threads}").as_str(), &[]),
            Err(PesosError::ObjectNotFound(_))
        ));
    }

    #[test]
    fn only_an_accepted_async_put_is_counted_accepted() {
        let c = controller();
        c.register_client("alice");
        c.register_client("bob");
        // Alice alone may update, one version at a time.
        let policy = c
            .put_policy(
                "alice",
                "update :- sessionKeyIs(\"alice\") and objId(this, O) and \
                 currVersion(O, CV) and nextVersion(CV + 1)",
            )
            .unwrap();
        c.put("alice", "doc", b"v0", Some(policy), None, &[])
            .unwrap();
        let accepted = || c.metrics().async_accepted;
        let before = accepted();
        // Refused for the principal, then for a version that skips ahead:
        // neither registers an operation, and neither is counted.
        for (client, version) in [("bob", None), ("alice", Some(7))] {
            assert!(matches!(
                c.put_async(client, "doc", b"x".to_vec(), None, version, &[]),
                Err(PesosError::PolicyDenied(_))
            ));
        }
        assert_eq!(accepted(), before);
        let op = c
            .put_async("alice", "doc", b"v1".to_vec(), None, Some(1), &[])
            .unwrap();
        assert_eq!(accepted(), before + 1);
        c.drain_async();
        assert_eq!(
            c.poll_result("alice", op),
            Some(AsyncResult::Completed { version: Some(1) })
        );
    }

    #[test]
    fn transactions_commit_atomically_with_policy_checks() {
        let c = controller();
        c.register_client("alice");
        c.register_client("bob");
        let acl = c
            .put_policy("alice", "read :- sessionKeyIs(\"alice\")\nupdate :- sessionKeyIs(\"alice\")\ndelete :- sessionKeyIs(\"alice\")")
            .unwrap();
        c.put("alice", "account/a", b"100", Some(acl), None, &[])
            .unwrap();
        c.put("alice", "account/b", b"0", Some(acl), None, &[])
            .unwrap();

        // Alice transfers atomically.
        let prepared = c
            .prepare_commit(
                "alice",
                vec!["account/a".into()],
                vec![write("account/a", b"50"), write("account/b", b"50")],
            )
            .unwrap();
        let outcome = c.commit_prepared(prepared).unwrap();
        assert_eq!(outcome.write_versions.len(), 2);
        assert_eq!(outcome.read_values[0], b"100");

        // Bob's transaction is denied by the policy and aborts atomically.
        assert!(matches!(
            c.prepare_commit("bob", Vec::new(), vec![write("account/a", b"0")]),
            Err(PesosError::PolicyDenied(_))
        ));
        let (value, _) = c.get("alice", "account/a", &[]).unwrap();
        assert_eq!(&**value, b"50");
        assert_eq!(c.metrics().tx_committed, 1);
        assert!(c.metrics().tx_aborted >= 1);
    }

    #[test]
    fn certificate_based_client_registration() {
        let c = controller();
        let kp = pesos_crypto::KeyPair::from_seed(b"cert-client");
        let cert = pesos_crypto::CertificateBuilder::new("client:carol", kp.public())
            .issue_self_signed(&kp);
        let id = c.register_client_with_certificate(&cert).unwrap();
        assert_eq!(id, pesos_crypto::hex_encode(&kp.public().to_bytes()));
        // The registered identity can operate.
        c.put(&id, "carol-obj", b"x", None, None, &[]).unwrap();
        // A tampered certificate is rejected.
        let mut bad = cert.clone();
        bad.subject = "client:mallory".into();
        assert!(c.register_client_with_certificate(&bad).is_err());
    }

    #[test]
    fn bootstrap_report_exposed() {
        let c = controller();
        assert_eq!(c.report().drives.len(), 1);
        assert!(!c.report().measurement.is_empty());
        assert!(c.config().drive_count == 1);
        assert_eq!(c.now(), 1);
        c.set_time(500);
        assert_eq!(c.now(), 500);
        c.register_client("tmp");
        assert_eq!(c.expire_sessions(), 0);
        c.set_time(5000);
        assert_eq!(c.expire_sessions(), 1);
    }
}
