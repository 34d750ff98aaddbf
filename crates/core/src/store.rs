//! The controller's storage layer.
//!
//! [`PesosStore`] sits between the request handler and the Kinetic drives:
//! it encrypts objects, maintains per-object metadata, persists compiled
//! policies, replicates writes according to the deterministic placement
//! function, serves reads from the object cache when possible, and routes
//! every disk interaction through the asynchronous system-call interface so
//! the SGX cost model is charged on the same code path as in the real
//! system.
//!
//! # One atomic batch per mutation
//!
//! Every mutation — put, import, delete, policy install or attach, a
//! backup's apply — reaches the drives through one function,
//! `PesosStore::batch_on`, which sends each drive a list of atomic Kinetic
//! batches in one joined submission. A primary's mutation sends every
//! replica a list of one (`PesosStore::replicated_batch`): the
//! sub-operations the mutation needs travel as *one* Kinetic batch per
//! replica. A put writes what changed (`metadata` module docs, "A head
//! plus sealed segments"): the sealed
//! object and the small metadata head always, the history segment the
//! version filled when there is one, and the DELETE of a segment the
//! history bound trimmed together with the data of each version it listed.
//! The largest, a put that seals one segment and trims another, is 12
//! sub-operations, within [`MAX_BATCH_OPS`]. The per-replica batches go
//! out as one [`AsyscallInterface::submit_joined`], joined at once
//! (`PesosStore::batch_on` keeps each replica's own answer; every path but
//! a create reads them first error wins). A put therefore costs one
//! asyscall call and one drive round trip per replica — the first
//! replica's run on the calling thread as one enclave exit, the others
//! handed to service threads unless the caller gets to them first — and a
//! replication factor of N costs that one round trip, not N sequential
//! ones.
//!
//! What the batch buys is per-replica atomicity: a drive applies the list
//! all-or-nothing, so on any one replica an object's data, its head and its
//! segments land together or not at all — no version the record lists is
//! missing its bytes or its facts, no bytes sit unreferenced, and a trimmed
//! segment and its versions' data disappear in the same step that drops
//! them from the head. Mutations larger than [`MAX_BATCH_OPS`] (importing
//! or deleting an object with a long history) are cut into several batches
//! with the head placed so the object is never half-visible: last on
//! import, first on delete. A cold read-through reads the head, then every
//! segment it lists in one more call per replica asked; a listed segment
//! that is missing or unreadable makes the record unreadable. What it does
//! not buy is atomicity *across* replicas —
//! a drive fault can land a put on a subset of them; the put then reports
//! failure, the in-enclave map is not advanced, and the next write
//! overwrites the divergent replica.
//!
//! # A backup writes what its primary wrote
//!
//! Everything a batch carries is already sealed and authenticated, so a
//! replica of this store needs the batches its drives accepted, not a
//! second enclave deriving them again. A partition's primary has a
//! [`BatchLog`] attached ([`PesosStore::attach_log`]): each batch every
//! replica accepted is appended to it, under the key lock its caller
//! already holds, so one key's records are in its write order. A create's
//! rollback and a batch some replica failed were never acknowledged and
//! are never appended. A backup's store applies the records a run at a
//! time with [`PesosStore::apply_run`] — every sub-operation forced, no
//! policy check, hashing, sealing, metadata or cache update; each drive's
//! share of the run packed into batches of whole records, one joined
//! submission per run — so its map stays empty and a promoted backup is a
//! *cold* store over drives equal to its primary's: a key its map does
//! not hold is written compare-on-absent (next section), which is what
//! makes that safe. A backup is nothing but this store until it is
//! promoted: the controller that serves the partition is built over it
//! then.
//!
//! A replicated read asks the replicas one at a time, in placement order,
//! each as a one-lane joined call: the primary answers a healthy read with
//! one drive GET at any replication factor, and the next replica is asked
//! only after a `NotFound` or a fault (`PesosStore::replicated_get`). A
//! key's absence is the answer only when every home replica was asked and
//! said so. Object payloads travel as shared
//! [`Payload`] buffers and the kinetic wire path underneath is vectored
//! (`Command::encode_vectored` / `VectoredEnvelope`), so each replica's
//! frame borrows the same buffers end to end: the sealed object the crypter
//! produced is the buffer the drive engine stores, with zero physical
//! copies in between. The enclave-boundary copy the paper's cost model
//! charges per replica is accounted explicitly
//! ([`Enclave::charge_boundary_copy`] in `PesosStore::replicated_batch`,
//! over every payload byte of the batch); it is the *only* per-replica
//! payload cost left on the write path.
//!
//! # A first write is compare-on-absent
//!
//! The in-enclave metadata map ([`ShardedMetadata`]) never evicts, and
//! every transition of a key between absent and present on this
//! controller's drives — put, import, delete — updates it under the key's
//! write lock. A key the map does not hold is therefore either absent or
//! untouched since this controller started to serve (a backup's applies
//! precede that), and only the drives can tell which. The store does not
//! ask them first: under the key lock, **a key the map does not hold is
//! written compare-on-absent** — the sealed object and the metadata record
//! travel as [`BatchOp::put_if_absent`] sub-operations of the usual one
//! batch per replica, and each drive makes the existence check atomically
//! with the write. A create therefore costs what an update costs: one hand-off, one
//! actuator service per replica, no read.
//!
//! * **Every replica accepts.** The create is done; the map is advanced.
//! * **A replica refuses** (`VersionMismatch`: it holds something under
//!   `o/<key>/0` or `m/<key>`). A record exists that the map did not know —
//!   a cold controller after a restart or promotion, or a failed delete,
//!   which forgets the key while a replica may keep the record. The create
//!   is rolled back on the replicas that *positively acknowledged* it, by
//!   one forced DELETE batch of exactly the two keys it wrote: acceptance
//!   is that drive's own testimony that both were absent there, so the
//!   undo is exact. Then the authoritative path runs, still under the key
//!   lock: `PesosStore::load_metadata_checked` reads the record, and the
//!   write proceeds as an update over it — or, for the controller's
//!   synchronous put, goes back to the controller as a typed refusal
//!   ([`PesosStore::create_object`]) so the real record's policy is
//!   evaluated before anything is written: "no record, nothing to check"
//!   is provisional until the drives accept. A refusal whose re-read
//!   finds no readable record (an orphaned `o/<key>/0`, or an unreadable
//!   `m/<key>`) fails the request; nothing is ever forced over it.
//! * **A replica faults.** The request fails with the fault, and the
//!   replicas that accepted are rolled back as for a refusal: a dropped
//!   request may sit on a genuine record, which a create left elsewhere
//!   would shadow without its policy. A torn reply may hide an acceptance
//!   on the faulting replica, which is never rolled back — the one
//!   residual, of the class "a put landed on a subset of its replicas"
//!   above, repaired the same way: the next write to the key is refused
//!   there and lands over it. A rollback that faults is this case too.
//!
//! A path that *promises* before it writes keeps an authoritative lookup
//! ([`PesosStore::lookup`], which keeps a drive *fault* an error and never
//! reads it as "absent") where the promise is made: a transaction at
//! prepare. Its later write still goes conditional while the map misses,
//! and a refusal there re-reads and proceeds inside the store. (An
//! asynchronous put promises nothing at acceptance: its write is the
//! synchronous put's, refusal hand-back included.) A put whose expected
//! version can only be an update (`Some(v)`, `v > 0`) on a key the map
//! does not hold asks the drives what it builds on instead of attempting
//! a create. Nothing is cached to make any of this work: there is no
//! negative entry to invalidate and no token to void, only the map that
//! was already authoritative and the drive's own compare-and-swap.
//!
//! Hot shared state is lock-sharded: the metadata map and the object cache
//! split their entries over N independently locked shards selected by the
//! same key hash replica placement uses, and writers serialize per key (not
//! globally) through the key locks below, so concurrent sessions on
//! different keys proceed without contention while writes to one key stay
//! linearizable.
//!
//! # Key locks are striped
//!
//! A key's write lock is one of a fixed array of stripes, `lock_shards ×
//! 256` of them (4 096 by default), picked by the placement hash the
//! request's [`HashedKey`] already carries. A key costs the enclave no lock
//! state of its own: nothing is registered on first use, and nothing is
//! left to release when the writer is done. Two keys that share a stripe
//! serialize their writes, which is correct and, at 4 096 stripes, rare.
//! It rests on one invariant: **no path holds two key locks of one
//! store** — every path above takes its key's stripe once and drops it
//! before it could take another, so a shared stripe can never be taken by
//! the thread that holds it. The runtime lock-rank checker enforces it
//! (`parking_lot::lock_order`: the stripes are one indexed family, and a
//! stripe's index is not above its own), and so does `pesos-lint`, which
//! reads the stripes' rank from the field that builds them.
//!
//! # Read decisions are remembered
//!
//! A read that presents no certificate is decided by four things: the
//! policy, the principal (its session key), the object key, and the
//! records the evaluation looked up through its [`StoreView`]. The
//! request's time and freshness nonce are read only by `certificateSays`,
//! which has nothing to check without certificates; a read carries no next
//! version, no incoming hash and no other bindings. So
//! `PesosStore::decide` keeps each such decision beside its policy in the
//! policy cache (`pesos_policy::cache`, "Remembered read decisions"), with
//! what it depended on: for every key the view looked up, its write
//! generation, read before the lookup (`ShardedMetadata`: a fixed array of
//! generations that every insert into and removal from the map bumps, and
//! every change to a record passes through the map). The next read of that
//! object by that principal under that policy takes the remembered
//! decision if every generation still holds, checked without a lock, and
//! evaluates again otherwise. A generation read before its lookup can only
//! be older than what the lookup saw, so a write that races the evaluation
//! makes the decision look stale, never current. A read with certificates,
//! and every update and delete, is evaluated each time.
//!
//! Two kinds of decision are not remembered. One that looked no record up
//! (`sessionKeyIs` alone, say) costs less to evaluate again than to file.
//! One that read object contents from the drives rather than the object
//! cache rests on bytes nothing in the enclave pins (a replica may hold a
//! divergent copy of the same version, which the AEAD tag alone accepts),
//! and a drive that faults there must leave the next check without an
//! answer, so it is evaluated again each time. A record read through from
//! the drives is filed in the map, which bumps its generation: the decision
//! that needed it is evaluated once more, then remembered.
//!
//! The decision comes after the record lookup that finds the object's
//! policy, so a read of an object without one pays nothing for this. A
//! remembered decision still counts as a policy-cache lookup; what it saves
//! is counted by [`PesosStore::decision_stats`].
//!
//! # The digest pipeline
//!
//! Every hash on the request path is computed exactly once. The controller
//! builds a [`HashedKey`] when a request enters and threads it through
//! placement, the metadata shard, the cache shard and the key-lock
//! stripe, so the SHA-256 placement hash is paid once per request rather
//! than once per structure. Put payloads arrive with the content digest the
//! controller already computed for the policy check (the crate-private
//! `put_object_full`), so the version metadata never hashes the same bytes
//! twice. The compression-count budgets in `tests/digest_budget.rs` pin
//! these invariants.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};

use parking_lot::Mutex;
use pesos_kinetic::{
    BatchOp, DriveSet, KineticClient, KineticError, Payload, StatusCode, MAX_BATCH_OPS,
};
use pesos_policy::{
    CompiledPolicy, Decision, ObjectStoreView, PolicyCache, PolicyId, ReadMemo, ViewFault,
};
use pesos_sgx::{AsyscallInterface, CostEvent, Enclave};

use crate::bootstrap::BootstrapReport;
use crate::config::ControllerConfig;
use crate::encryption::ObjectCrypter;
use crate::error::PesosError;
use crate::metadata::{
    backend_key, data_key, meta_key, namespace, policy_key, segment_key, MetadataHead,
    ObjectMetadata, ShardedMetadata, VersionMeta,
};
use crate::object_cache::ObjectCache;
use crate::placement::{probe_available, HashedKey};
use crate::sharded::{Sharded, ShardedFifoMap};
use crate::transaction::TxOutcome;

/// One drive's answer to its lane of batches, with the session that gave
/// it: how many of the lane's batches landed, and the failure that stopped
/// the rest.
type LaneAnswer = (Arc<KineticClient>, usize, Result<(), KineticError>);

/// One drive's share of a backup's run ([`PesosStore::apply_run`]): its
/// records' forced sub-operations cut into batches of whole records, and
/// the run index of the first record of each batch.
struct RunLane<'c> {
    client: &'c Arc<KineticClient>,
    batches: Vec<Vec<BatchOp>>,
    starts: Vec<usize>,
}

impl<'c> RunLane<'c> {
    fn new(client: &'c Arc<KineticClient>) -> Self {
        RunLane {
            client,
            batches: Vec::new(),
            starts: Vec::new(),
        }
    }

    /// Adds record `index`'s sub-operations, forced, to the open batch, or
    /// opens a new one when they would take it past [`MAX_BATCH_OPS`].
    fn push(&mut self, index: usize, ops: &[BatchOp]) {
        let fits = self
            .batches
            .last()
            .is_some_and(|batch| batch.len() + ops.len() <= MAX_BATCH_OPS);
        if !fits {
            self.batches.push(Vec::with_capacity(MAX_BATCH_OPS));
            self.starts.push(index);
        }
        if let Some(batch) = self.batches.last_mut() {
            batch.extend(ops.iter().map(|op| match op {
                BatchOp::Put { key, value, .. } => stored(key.clone(), value.clone()),
                BatchOp::Delete { key, .. } => BatchOp::delete_forced(key.clone()),
            }));
        }
    }
}

/// Committed-transaction outcomes a store retains for the cluster's
/// `check_results`; the oldest are evicted beyond this bound.
pub const TX_OUTCOME_CAPACITY: usize = 2048;

/// Sizing and behaviour options for one [`PesosStore`].
#[derive(Debug, Clone)]
pub struct StoreOptions {
    /// Byte budget of the object cache.
    pub object_cache_bytes: usize,
    /// Entry capacity of the policy cache.
    pub policy_cache_capacity: usize,
    /// Replication factor (1 = no replication).
    pub replication_factor: usize,
    /// Lock shards for metadata, cache and key-lock structures.
    pub lock_shards: usize,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions::from_config(&ControllerConfig::default())
    }
}

impl StoreOptions {
    /// Extracts the store-relevant options from a controller configuration.
    pub fn from_config(config: &ControllerConfig) -> Self {
        StoreOptions {
            object_cache_bytes: config.object_cache_bytes,
            policy_cache_capacity: config.policy_cache_capacity,
            replication_factor: config.replication_factor,
            lock_shards: config.lock_shards,
        }
    }
}

/// Key-lock stripes per lock shard: a store has `lock_shards` times this
/// many, 4 096 by default (module docs, "Key locks are striped").
const KEY_LOCK_STRIPES_PER_SHARD: usize = 256;

/// How often the drives contradicted the in-enclave map about a key's
/// absence (module docs, "A first write is compare-on-absent").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CreateStats {
    /// Creates a replica refused because it already held the key. A
    /// restart shows up as a burst that decays as the map fills.
    pub refusals: u64,
    /// Refused creates that had landed on another replica and were undone
    /// there: replicas that disagree on whether the key exists.
    pub rollbacks: u64,
}

/// How the store's policy decisions were reached (module docs, "Read
/// decisions are remembered").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecisionStats {
    /// Policy evaluations run, for every operation.
    pub evaluations: u64,
    /// Reads answered by a remembered decision, with no evaluation.
    pub hits: u64,
    /// Remembered decisions found stale, each followed by an evaluation.
    pub stale: u64,
}

/// Where a partition primary's store appends every batch all its replicas
/// accepted (module docs, "A backup writes what its primary wrote"). The
/// cluster's replication log implements it.
pub trait BatchLog: Send + Sync {
    /// Logs `ops`, accepted by every replica of `placement_key`. Called
    /// under the key's write lock, before the write is acknowledged.
    fn append(&self, placement_key: &str, ops: &Arc<[BatchOp]>);
}

/// The storage layer of one controller instance.
pub struct PesosStore {
    drives: DriveSet,
    clients: Vec<Arc<KineticClient>>,
    crypter: ObjectCrypter,
    object_cache: ObjectCache,
    policy_cache: PolicyCache,
    metadata: ShardedMetadata,
    /// Per-key write locks: a key takes the stripe its placement hash
    /// selects (module docs, "Key locks are striped").
    key_locks: Sharded<Mutex<()>>,
    replication_factor: usize,
    /// [`CreateStats`] counters (statistics only, hence relaxed).
    create_refusals: AtomicU64,
    create_rollbacks: AtomicU64,
    /// [`DecisionStats`] counters (statistics only, hence relaxed).
    decision_evaluations: AtomicU64,
    decision_hits: AtomicU64,
    decision_stale: AtomicU64,
    asyscall: Arc<AsyscallInterface>,
    enclave: Arc<Enclave>,
    /// The log of the partition this store is primary of, set once. Weak:
    /// the routing table owns a log, not the controller writing to it.
    log: OnceLock<Weak<dyn BatchLog>>,
    /// Outcomes of the committed cluster transactions this partition took
    /// part in, bounded like the async result buffer ([`TX_OUTCOME_CAPACITY`]):
    /// each holds full copies of the values its transaction read.
    /// Transaction identifiers are dense sequence numbers, so the identity
    /// shard index spreads concurrent committers evenly without hashing.
    tx_outcomes: ShardedFifoMap<TxOutcome>,
}

impl PesosStore {
    /// Creates the store over an already bootstrapped set of drives and
    /// authenticated clients (one per drive, in drive order).
    pub fn new(
        drives: DriveSet,
        clients: Vec<Arc<KineticClient>>,
        crypter: ObjectCrypter,
        options: StoreOptions,
        asyscall: Arc<AsyscallInterface>,
        enclave: Arc<Enclave>,
    ) -> Self {
        PesosStore {
            drives,
            clients,
            crypter,
            object_cache: ObjectCache::with_shards(options.object_cache_bytes, options.lock_shards),
            policy_cache: PolicyCache::with_shards(
                options.policy_cache_capacity,
                options.lock_shards,
            ),
            metadata: ShardedMetadata::new(options.lock_shards),
            key_locks: Sharded::new_indexed(
                options.lock_shards * KEY_LOCK_STRIPES_PER_SHARD,
                |i| Mutex::with_rank_indexed(parking_lot::lock_order::KEY_LOCK, i, ()),
            ),
            replication_factor: options.replication_factor,
            create_refusals: AtomicU64::new(0),
            create_rollbacks: AtomicU64::new(0),
            decision_evaluations: AtomicU64::new(0),
            decision_hits: AtomicU64::new(0),
            decision_stale: AtomicU64::new(0),
            asyscall,
            enclave,
            log: OnceLock::new(),
            tx_outcomes: ShardedFifoMap::new(options.lock_shards, TX_OUTCOME_CAPACITY),
        }
    }

    /// What the store runs on: its enclave's measurement, its drives and
    /// their device certificates, and whether it seals objects.
    pub fn report(&self) -> BootstrapReport {
        BootstrapReport {
            measurement: self.enclave.measurement().to_hex(),
            drives: self.drives.iter().map(|d| d.id().to_string()).collect(),
            device_certificates: self
                .drives
                .iter()
                .map(|d| pesos_crypto::hex_encode(&d.device_certificate().fingerprint()))
                .collect(),
            encryption_enabled: self.crypter.is_enabled(),
        }
    }

    /// Attaches the log every batch all replicas accept is appended to
    /// from now on. A store is primary of at most one partition in its
    /// life, so only the first attachment takes effect.
    pub fn attach_log<L: BatchLog + 'static>(&self, log: &Arc<L>) {
        let log: Weak<L> = Arc::downgrade(log);
        let _ = self.log.set(log);
    }

    /// The drive set backing the store.
    pub fn drives(&self) -> &DriveSet {
        &self.drives
    }

    /// Object-cache statistics.
    pub fn object_cache_stats(&self) -> crate::lfu::CacheStats {
        self.object_cache.stats()
    }

    /// Policy-cache statistics.
    pub fn policy_cache_stats(&self) -> crate::lfu::CacheStats {
        self.policy_cache.stats()
    }

    /// Statistics of the asynchronous system-call interface the store
    /// drives; exposes how many scatter-gather batches were issued and the
    /// peak I/O concurrency reached.
    pub fn asyscall_stats(&self) -> pesos_sgx::AsyscallStats {
        self.asyscall.stats()
    }

    /// The interface the store submits its drive I/O to, and the cluster
    /// its migration drain (`pesos_sgx::asyscall`, "One host pool").
    pub fn asyscall(&self) -> &AsyscallInterface {
        &self.asyscall
    }

    /// Runs `body` later on a host-pool service thread, unobserved. The
    /// thread enters the enclave to run it: one charged transition.
    pub(crate) fn defer(&self, body: impl FnOnce() + Send + 'static) -> Result<(), PesosError> {
        let cost = *self.enclave.cost();
        self.asyscall.submit_batch([move || {
            cost.charge(CostEvent::EnclaveTransition);
            body();
        }])?;
        Ok(())
    }

    /// Refused and rolled-back creates so far.
    pub fn create_stats(&self) -> CreateStats {
        CreateStats {
            refusals: self.create_refusals.load(Ordering::Relaxed),
            rollbacks: self.create_rollbacks.load(Ordering::Relaxed),
        }
    }

    /// Policy evaluations run, and remembered read decisions used or found
    /// stale, so far.
    pub fn decision_stats(&self) -> DecisionStats {
        DecisionStats {
            evaluations: self.decision_evaluations.load(Ordering::Relaxed),
            hits: self.decision_hits.load(Ordering::Relaxed),
            stale: self.decision_stale.load(Ordering::Relaxed),
        }
    }

    /// EPC usage counters of the enclave this store runs in. Each
    /// controller instance owns one logical enclave, so a cluster
    /// deployment reads per-partition SGX cost from here.
    pub fn epc_stats(&self) -> pesos_sgx::EpcStats {
        self.enclave.epc_stats()
    }

    /// Files `outcome` under `tx_id`, evicting the oldest outcome of its
    /// shard beyond the bound. The cluster coordinator files a
    /// transaction's merged outcome on every participant, and a backup
    /// files it again when it applies the replicated record, so any router
    /// can answer `check_results` for it.
    pub fn record_tx_outcome(&self, tx_id: u64, outcome: TxOutcome) {
        self.tx_outcomes.insert(tx_id, outcome);
    }

    /// The retained outcome for `tx_id`, if any. Session-less: the cluster
    /// enforces its own session check first.
    pub fn tx_outcome(&self, tx_id: u64) -> Option<TxOutcome> {
        self.tx_outcomes.get(tx_id)
    }

    /// Whether drive `index` is online.
    fn is_online(&self, index: usize) -> bool {
        self.drives.get(index).is_some_and(|d| d.is_online())
    }

    /// The sessions to the online placement targets of `key`, in placement
    /// order, yielded as they are probed, and never none: with every drive
    /// offline there is nobody to ask. The placement function is sized by
    /// the session list, so every index it yields has a session.
    fn targets_for(
        &self,
        key: &HashedKey<'_>,
    ) -> Result<impl Iterator<Item = &Arc<KineticClient>>, PesosError> {
        let mut targets = probe_available(
            key.hash(),
            self.clients.len(),
            self.replication_factor,
            |index| self.is_online(index),
        )
        .filter_map(|index| self.clients.get(index))
        .peekable();
        if targets.peek().is_none() {
            return Err(PesosError::Backend("no online drives".into()));
        }
        Ok(targets)
    }

    /// Applies `ops` as one atomic Kinetic batch on every placement target
    /// of `placement_key`, first error wins, and appends the batch to the
    /// attached log once every replica accepted it.
    // pesos-lint: invariant(acked_logged)
    fn replicated_batch(
        &self,
        placement_key: &HashedKey<'_>,
        ops: Arc<[BatchOp]>,
    ) -> Result<(), PesosError> {
        let targets = self.targets_for(placement_key)?;
        for (_, _, result) in self.batch_on(targets.map(|client| (client, [Arc::clone(&ops)])))? {
            result?;
        }
        self.append(placement_key, &ops);
        Ok(())
    }

    /// Appends `ops`, accepted by every replica, to the attached log; a
    /// store without one pays the `OnceLock` read.
    fn append(&self, placement_key: &HashedKey<'_>, ops: &Arc<[BatchOp]>) {
        if let Some(log) = self.log.get().and_then(Weak::upgrade) {
            log.append(placement_key.key(), ops);
        }
    }

    /// Applies a run of records a primary's store appended to its log —
    /// `(placement key, sub-operations)` in log order — every sub-operation
    /// forced (module docs, "A backup writes what its primary wrote"): a
    /// replayed tail or a retry writes the same bytes again.
    ///
    /// Each record is placed as the primary placed it. Every drive the run
    /// touches gets one lane: its records' sub-operations in log order, cut
    /// into atomic batches of whole records, each at most
    /// [`MAX_BATCH_OPS`] sub-operations. The lanes go out as one joined
    /// submission ([`PesosStore::batch_on`]), and each sends its batches in
    /// order and stops at its first failure. A run therefore costs one
    /// asyscall call and about one drive round trip per drive per
    /// [`MAX_BATCH_OPS`] sub-operations, however many records it holds.
    ///
    /// `Ok(())` means every record landed on every replica. Otherwise
    /// `Err((landed, error))`: the first `landed` records are on every
    /// replica, and `error` stopped the next one (no online replica, or its
    /// batch failed on some drive). Later records may have landed on some
    /// drives; re-applying the run from `landed` on writes them again and
    /// ends where applying the whole run once would.
    pub fn apply_run<K, O>(&self, run: &[(K, O)]) -> Result<(), (usize, PesosError)>
    where
        K: AsRef<str>,
        O: AsRef<[BatchOp]>,
    {
        let mut lanes: Vec<RunLane<'_>> = self.clients.iter().map(RunLane::new).collect();
        let mut stopped = None;
        for (index, (placement_key, ops)) in run.iter().enumerate() {
            let (placement_key, ops) = (placement_key.as_ref(), ops.as_ref());
            let targets = match self.targets_for(&HashedKey::new(placement_key)) {
                Ok(targets) => targets,
                Err(e) => {
                    stopped = Some((index, e));
                    break;
                }
            };
            for client in targets {
                if let Some(lane) = lanes.iter_mut().find(|l| Arc::ptr_eq(l.client, client)) {
                    lane.push(index, ops);
                }
            }
        }
        lanes.retain(|lane| !lane.starts.is_empty());
        let (mut landed, mut error) = match stopped {
            Some((index, e)) => (index, Some(e)),
            None => (run.len(), None),
        };
        if !lanes.is_empty() {
            let answers = self
                .batch_on(lanes.iter_mut().map(|lane| {
                    let batches: Vec<Arc<[BatchOp]>> =
                        lane.batches.drain(..).map(Arc::from).collect();
                    (lane.client, batches)
                }))
                .map_err(|e| (0, e))?;
            for (lane, (_, sent, result)) in lanes.iter().zip(answers) {
                if let (Err(e), Some(&first)) = (result, lane.starts.get(sent)) {
                    if first < landed {
                        (landed, error) = (first, Some(e.into()));
                    }
                }
            }
        }
        match error {
            None => Ok(()),
            Some(e) => Err((landed, e)),
        }
    }

    /// Applies lists of atomic Kinetic batches, one list per drive — the
    /// single write primitive every mutation path is built on: a primary's
    /// write sends every replica a list of one, the same batch; a backup's
    /// run sends each drive its own list ([`PesosStore::apply_run`]).
    /// Returns each drive's session with how many of its batches landed
    /// and the failure that stopped the rest (a lane sends its batches in
    /// order and stops at its first failure), in lane order.
    ///
    /// The lanes are enqueued as one joined scatter-gather submission;
    /// payloads are shared buffers — the sealed object is written by the
    /// seal straight into the buffer the drives receive — so each replica
    /// costs reference-count bumps, not copies, and the vectored kinetic
    /// frames keep it that way all the way into the drive engine. The
    /// simulated enclave-boundary copy is charged here, over every payload
    /// byte of each lane, because the cost model still pays for the bytes
    /// leaving the enclave even though the in-process simulation elides
    /// the physical copy. A primary's list is shared too: every replica's
    /// command holds the same `Arc`. Each batch must respect
    /// [`MAX_BATCH_OPS`]; the drive rejects longer lists.
    fn batch_on<'c, L>(
        &self,
        lanes: impl Iterator<Item = (&'c Arc<KineticClient>, L)>,
    ) -> Result<Vec<LaneAnswer>, PesosError>
    where
        L: AsRef<[Arc<[BatchOp]>]> + Send + 'static,
    {
        let set = self.asyscall.submit_joined(lanes.map(|(client, batches)| {
            let payload_bytes = batches
                .as_ref()
                .iter()
                .flat_map(|batch| batch.iter())
                .map(|op| match op {
                    BatchOp::Put { value, .. } => value.len(),
                    BatchOp::Delete { .. } => 0,
                })
                .sum();
            self.enclave.charge_boundary_copy(payload_bytes);
            let client = Arc::clone(client);
            move || {
                let mut sent = 0;
                let result = batches.as_ref().iter().try_for_each(|batch| {
                    client.batch(Arc::clone(batch))?;
                    sent += 1;
                    Ok(())
                });
                (client, sent, result)
            }
        }))?;
        Ok(set.join()?)
    }

    /// Reads `backend_key` from the replicas of `placement_key`.
    ///
    /// The replicas are asked one at a time, in placement order, each as a
    /// one-lane joined call (one enclave exit, nothing handed over): the
    /// first success is the answer, and the next replica is asked only
    /// after a `NotFound` or a fault. A healthy read is therefore one drive
    /// GET at any replication factor, from the primary, as the paper's
    /// placement rule has it (`placement` module docs).
    ///
    /// `ObjectNotFound` is the answer only when *every* replica asked
    /// answered that it holds nothing and every home replica of the key
    /// was among them: a replica that faulted may be the one that holds the
    /// entry, so a fault beside a `NotFound` is the fault, and a substitute
    /// asked in place of an offline home replica never held the key, so
    /// its `NotFound` beside an offline home replica is a backend fault.
    fn replicated_get(
        &self,
        placement_key: &HashedKey<'_>,
        backend_key: Arc<[u8]>,
    ) -> Result<Payload, PesosError> {
        self.replicated_read(placement_key, move |client| {
            client.get(&backend_key).map(|(value, _version)| value)
        })
    }

    /// Reads every one of `backend_keys` from one replica of
    /// `placement_key`, under the rule of [`PesosStore::replicated_get`]:
    /// each replica's call reads the keys in turn, and the first replica
    /// to produce all of them is the answer.
    fn replicated_get_all(
        &self,
        placement_key: &HashedKey<'_>,
        backend_keys: Vec<Vec<u8>>,
    ) -> Result<Vec<Payload>, PesosError> {
        let backend_keys: Arc<[Vec<u8>]> = backend_keys.into();
        self.replicated_read(placement_key, move |client| {
            backend_keys
                .iter()
                .map(|key| client.get(key).map(|(value, _version)| value))
                .collect()
        })
    }

    /// Asks the replicas of `placement_key` with `read`, one at a time in
    /// placement order (see [`PesosStore::replicated_get`]).
    fn replicated_read<T: Send + 'static>(
        &self,
        placement_key: &HashedKey<'_>,
        read: impl Fn(&KineticClient) -> Result<T, KineticError> + Clone + Send + 'static,
    ) -> Result<T, PesosError> {
        let mut fault = None;
        for client in self.targets_for(placement_key)? {
            let (client, read) = (Arc::clone(client), read.clone());
            let answer = self
                .asyscall
                .submit_joined([move || read(&client)])?
                .wait_single();
            match answer {
                Ok(Ok(value)) => return Ok(value),
                Ok(Err(KineticError::NotFound)) => {}
                Ok(Err(e)) => fault = Some(PesosError::Backend(e.to_string())),
                Err(e) => fault = Some(PesosError::Backend(e.to_string())),
            }
        }
        let home_offline = || {
            probe_available(
                placement_key.hash(),
                self.clients.len(),
                self.replication_factor,
                |_| true,
            )
            .any(|index| !self.is_online(index))
        };
        match fault {
            Some(fault) => Err(fault),
            None if home_offline() => Err(PesosError::Backend(
                "a home replica is offline; absence is unknown".into(),
            )),
            None => Err(PesosError::ObjectNotFound(placement_key.key().to_string())),
        }
    }

    // ------------------------------------------------------------------
    // Policies
    // ------------------------------------------------------------------

    /// Compiles and persists a policy, returning its identifier.
    pub fn put_policy(&self, source: &str) -> Result<PolicyId, PesosError> {
        let compiled = Arc::new(pesos_policy::compile(source)?);
        self.store_compiled_policy(compiled)
    }

    /// Persists an already compiled policy.
    pub fn store_compiled_policy(
        &self,
        policy: Arc<CompiledPolicy>,
    ) -> Result<PolicyId, PesosError> {
        let id = policy.id();
        let bytes = policy.to_bytes();
        let hex = id.to_hex();
        self.replicated_batch(
            &HashedKey::new(&hex),
            [stored(policy_key(&hex), bytes)].into(),
        )?;
        self.policy_cache.insert(policy);
        Ok(id)
    }

    /// Loads a policy by identifier, consulting the cache first and falling
    /// back to the drives.
    pub fn load_policy(&self, id: &PolicyId) -> Result<Arc<CompiledPolicy>, PesosError> {
        match self.policy_cache.get(id) {
            Some(policy) => Ok(policy),
            None => self.fetch_policy(id),
        }
    }

    /// Reads a policy a cache lookup missed from the drives, and fills the
    /// cache with it if the fill wins admission. Only the drives' answer
    /// that they hold no such policy is `PolicyNotFound`; a fault stays a
    /// fault.
    fn fetch_policy(&self, id: &PolicyId) -> Result<Arc<CompiledPolicy>, PesosError> {
        let hex = id.to_hex();
        let bytes = self
            .replicated_get(
                &HashedKey::new(&hex),
                backend_key(namespace::POLICY, &hex, None),
            )
            .map_err(|e| match e {
                PesosError::ObjectNotFound(_) => PesosError::PolicyNotFound(id.to_hex()),
                fault => fault,
            })?;
        let policy = Arc::new(CompiledPolicy::from_bytes(&bytes)?);
        if policy.id() != *id {
            return Err(PesosError::Backend("stored policy hash mismatch".into()));
        }
        self.policy_cache.fill(Arc::clone(&policy));
        Ok(policy)
    }

    /// Decides policy `id` of `key` for one request: `evaluate` runs it over
    /// a view of this store, unless `reader` names the principal of a read
    /// that a remembered decision still answers (module docs, "Read
    /// decisions are remembered"). The caller passes a reader only for a
    /// read that presents no certificate. Returns the policy with its
    /// decision; a lookup the drives could not answer is no decision at
    /// all, the backend's failure.
    pub(crate) fn decide(
        &self,
        id: &PolicyId,
        key: &HashedKey<'_>,
        reader: Option<&str>,
        evaluate: impl FnOnce(&CompiledPolicy, &StoreView<'_>) -> Result<Decision, ViewFault>,
    ) -> Result<(Arc<CompiledPolicy>, Decision), PesosError> {
        let (policy, memo) = match reader {
            Some(reader) => {
                match self
                    .policy_cache
                    .get_with_read(id, reader, key.key(), key.hash())
                {
                    Some(found) => found,
                    None => (self.fetch_policy(id)?, None),
                }
            }
            None => (self.load_policy(id)?, None),
        };
        if let Some(memo) = memo {
            if self.metadata.generations_hold(memo.generations()) {
                self.decision_hits.fetch_add(1, Ordering::Relaxed);
                return Ok((policy, memo.decision().clone()));
            }
            self.decision_stale.fetch_add(1, Ordering::Relaxed);
        }
        self.decision_evaluations.fetch_add(1, Ordering::Relaxed);
        let view = self.view();
        let decision = evaluate(&policy, &view)
            .map_err(|fault| PesosError::Backend(format!("policy check: {fault}")))?;
        let generations = view.generations();
        let inside = !generations.is_empty() && !view.read_drive_data.get();
        if let Some(reader) = reader.filter(|_| inside) {
            let memo = ReadMemo::new(reader, key.key(), generations, decision.clone());
            self.policy_cache.remember_read(id, key.hash(), memo);
        }
        Ok((policy, decision))
    }

    // ------------------------------------------------------------------
    // Metadata
    // ------------------------------------------------------------------

    /// Returns the metadata for `key`, reading through to the drives on a
    /// cold start, best effort: a drive fault or an unreadable record
    /// collapses into `None`. Request paths, which must not mistake an
    /// unreachable drive for an absent record (and "no record" for "no
    /// policy"), use [`PesosStore::lookup`].
    pub fn get_metadata<'a>(&self, key: impl Into<HashedKey<'a>>) -> Option<ObjectMetadata> {
        self.lookup(key).ok().flatten()
    }

    /// The record the in-enclave map holds for `key`, without asking the
    /// drives. `None` says nothing about them (module docs).
    pub(crate) fn resident_metadata(&self, key: &HashedKey<'_>) -> Option<ObjectMetadata> {
        self.metadata.get(key)
    }

    /// The authoritative metadata lookup of a request: the record, or
    /// `None` when the drives *answered* that none exists. Unlike
    /// [`PesosStore::get_metadata`] it keeps a drive fault (and an
    /// unreadable record) an error.
    ///
    /// The read-through (drive read + map fill) runs under the key write
    /// lock: filling without it could insert metadata a concurrent delete
    /// or newer put has already superseded, resurrecting deleted objects
    /// or rolling versions back. The warm path (map hit) stays lock-free.
    pub(crate) fn lookup<'a>(
        &self,
        key: impl Into<HashedKey<'a>>,
    ) -> Result<Option<ObjectMetadata>, PesosError> {
        let key = key.into();
        if let Some(m) = self.metadata.get(&key) {
            return Ok(Some(m));
        }
        let _write_guard = self.key_locks.get(&key).lock();
        self.load_metadata_checked(&key)
    }

    /// The read-through body of [`PesosStore::lookup`]; the caller must
    /// hold `key`'s write lock, which makes the drive read authoritative
    /// (no delete or put can run concurrently for this key). `Ok(None)`
    /// means the drives *answered* and hold nothing under `m/<key>`, never
    /// that they could not be asked or that what they hold could not be
    /// read. Every request path relies on this — a put that mistook an
    /// unreachable drive or a corrupt record for an absent one would
    /// restart the version sequence over a live object without evaluating
    /// its policy, a read would serve it unchecked, and a delete or export
    /// would report a still-resident object as settled.
    fn load_metadata_checked(
        &self,
        key: &HashedKey<'_>,
    ) -> Result<Option<ObjectMetadata>, PesosError> {
        if let Some(m) = self.metadata.get(key) {
            return Ok(Some(m));
        }
        let head = match self.replicated_get(key, backend_key(namespace::META, key.key(), None)) {
            Ok(bytes) => bytes,
            Err(PesosError::ObjectNotFound(_)) => return Ok(None),
            Err(e) => return Err(e),
        };
        let unreadable = || {
            PesosError::Backend(format!(
                "the drives hold an unreadable metadata record for {:?}",
                key.key()
            ))
        };
        // A record whose embedded key differs from the key it was stored
        // under is as corrupt as one that does not decode: caching it would
        // file it in `key`'s shard under the embedded name, where no lookup
        // or removal would ever find it again.
        let head = MetadataHead::from_bytes(&head)
            .ok()
            .filter(|head| head.key() == key.key())
            .ok_or_else(unreadable)?;
        // The sealed segments the head lists, all from one replica; one
        // the drives answer they do not hold is as unreadable as the head.
        let segments = match head.segments() {
            [] => Vec::new(),
            firsts => {
                let keys = firsts.iter().map(|&f| segment_key(key.key(), f)).collect();
                match self.replicated_get_all(key, keys) {
                    Err(PesosError::ObjectNotFound(_)) => return Err(unreadable()),
                    read => read?,
                }
            }
        };
        let meta = head.assemble(&segments).map_err(|_| unreadable())?;
        self.metadata.insert(key, meta.clone());
        Ok(Some(meta))
    }

    // ------------------------------------------------------------------
    // Objects
    // ------------------------------------------------------------------

    /// Stores a new version of `key` and returns the version number.
    ///
    /// The caller (controller) is responsible for policy checks; the store
    /// only enforces the mechanical version sequence. Writes to the same
    /// key are linearized through its key lock; writes to different keys
    /// proceed concurrently.
    pub fn put_object<'a>(
        &self,
        key: impl Into<HashedKey<'a>>,
        value: &[u8],
        policy_id: Option<PolicyId>,
    ) -> Result<u64, PesosError> {
        self.put_object_full(key, value, policy_id, None, None)
    }

    /// Like [`PesosStore::put_object`] but with compare-and-swap semantics:
    /// when `expected_version` is given, the write only succeeds if it
    /// lands exactly at that version. The check runs under the key lock, so
    /// two racing writers expecting the same version cannot both succeed —
    /// the policy layer's pre-write `nextVersion` check alone cannot
    /// guarantee that, because it runs before the lock is taken.
    pub fn put_object_cas<'a>(
        &self,
        key: impl Into<HashedKey<'a>>,
        value: &[u8],
        policy_id: Option<PolicyId>,
        expected_version: Option<u64>,
    ) -> Result<u64, PesosError> {
        self.put_object_full(key, value, policy_id, expected_version, None)
    }

    /// The full put path: compare-and-swap and an optional precomputed
    /// content digest.
    ///
    /// The controller already hashes every put payload for the policy
    /// check's `objHash` predicate; passing that digest here keeps the
    /// version metadata from hashing the same bytes a second time. A `None`
    /// hash is computed on the spot, so callers without a digest get
    /// identical results. Crate-private because the digest is trusted: a
    /// mismatched hash would be persisted into the version metadata, where
    /// it breaks `objHash` policies and permanently defeats the get-path
    /// cache revalidation for that version.
    ///
    /// A key the map does not hold is created compare-on-absent; if the
    /// drives refuse, the put lands as an update over the record they hold
    /// (module docs). Callers whose decision depended on there being no
    /// record use [`PesosStore::create_object`] instead.
    pub(crate) fn put_object_full<'a>(
        &self,
        key: impl Into<HashedKey<'a>>,
        value: &[u8],
        policy_id: Option<PolicyId>,
        expected_version: Option<u64>,
        value_hash: Option<pesos_crypto::Digest>,
    ) -> Result<u64, PesosError> {
        let key = key.into();
        let _write_guard = self.key_locks.get(&key).lock();

        let value_hash = value_hash.unwrap_or_else(|| pesos_crypto::sha256(value));
        let mut meta = match self.metadata.get(&key) {
            Some(meta) => meta,
            None => {
                match self.create_version(&key, value, policy_id, expected_version, value_hash)? {
                    Ok(()) => return Ok(0),
                    Err(meta) => meta,
                }
            }
        };
        let new_version = meta.latest_version + 1;
        if let Some(expected) = expected_version {
            if expected != new_version {
                return Err(PesosError::VersionConflict {
                    expected,
                    got: new_version,
                });
            }
        }
        // The sealed object, the new head, the segment the version sealed
        // and the DELETEs of what the history bound trimmed land as one
        // batch per replica; only then is the map advanced.
        let ops = self.version_ops(
            &key,
            &mut meta,
            new_version,
            value,
            policy_id,
            value_hash,
            stored,
        );
        self.replicated_batch(&key, ops)?;
        let name = Arc::clone(&meta.key);
        self.metadata.insert(&key, meta);
        self.fill_written(&key, &name, value, new_version);
        Ok(new_version)
    }

    /// Creates `key` at version 0 — and nothing else: when a record exists
    /// after all (a racing creator filled the map, or the drives refused
    /// the create) it is handed back as `Err` with nothing written, so a
    /// caller that decided on "no record, no policy" re-decides against
    /// the real one. Parameters as for [`PesosStore::put_object_full`].
    pub(crate) fn create_object(
        &self,
        key: &HashedKey<'_>,
        value: &[u8],
        policy_id: Option<PolicyId>,
        expected_version: Option<u64>,
        value_hash: pesos_crypto::Digest,
    ) -> Result<Result<u64, ObjectMetadata>, PesosError> {
        let _write_guard = self.key_locks.get(key).lock();
        if let Some(meta) = self.metadata.get(key) {
            return Ok(Err(meta));
        }
        let created = self.create_version(key, value, policy_id, expected_version, value_hash)?;
        Ok(created.map(|()| 0))
    }

    /// The first write of a key the map does not hold, compare-on-absent
    /// (module docs). The caller holds `key`'s write lock and has seen the
    /// map miss. On `Ok(())` version 0 is on every replica, in the log, in
    /// the map and in the cache; on `Err(record)` the drives hold `record`,
    /// which is now in the map, and nothing of the attempt is left behind.
    // pesos-lint: invariant(acked_logged)
    fn create_version(
        &self,
        key: &HashedKey<'_>,
        value: &[u8],
        policy_id: Option<PolicyId>,
        expected_version: Option<u64>,
        value_hash: pesos_crypto::Digest,
    ) -> Result<Result<(), ObjectMetadata>, PesosError> {
        // A put that can only be an update asks what it builds on instead.
        if let Some(expected) = expected_version.filter(|&v| v != 0) {
            let record = self.load_metadata_checked(key)?;
            return record
                .map(Err)
                .ok_or(PesosError::VersionConflict { expected, got: 0 });
        }

        let mut meta = ObjectMetadata::new(key.key());
        let ops = self.version_ops(
            key,
            &mut meta,
            0,
            value,
            policy_id,
            value_hash,
            stored_if_absent,
        );
        let targets = self.targets_for(key)?;
        let results = self.batch_on(targets.map(|client| (client, [Arc::clone(&ops)])))?;

        let is_refusal = |e: &KineticError| e.status_code() == StatusCode::VersionMismatch;
        let errors = || results.iter().filter_map(|(_, _, r)| r.as_ref().err());
        if errors().next().is_none() {
            self.append(key, &ops);
            let name = Arc::clone(&meta.key);
            self.metadata.insert(key, meta);
            self.fill_written(key, &name, value, 0);
            return Ok(Ok(()));
        }

        if errors().any(is_refusal) {
            self.create_refusals.fetch_add(1, Ordering::Relaxed);
        }
        // Undo the create where it was accepted: acceptance is that drive's
        // testimony that it held nothing there, so the undo is exact. A
        // replica that faulted may or may not hold it, on top of a record
        // or not, so it is left as it is.
        let accepted = results
            .iter()
            .filter_map(|(drive, _, result)| result.is_ok().then_some(drive));
        if accepted.clone().next().is_some() {
            self.create_rollbacks.fetch_add(1, Ordering::Relaxed);
            let undo: Arc<[BatchOp]> = ops
                .iter()
                .map(|op| BatchOp::delete_forced(op.key().to_vec()))
                .collect();
            for (_, _, result) in
                self.batch_on(accepted.map(|drive| (drive, [Arc::clone(&undo)])))?
            {
                result?;
            }
        }
        if let Some(fault) = errors().find(|e| !is_refusal(e)) {
            return Err(fault.clone().into());
        }
        match self.load_metadata_checked(key)? {
            Some(meta) => Ok(Err(meta)),
            None => Err(PesosError::Backend(format!(
                "a drive refused to create {:?} but none holds a record for it",
                key.key()
            ))),
        }
    }

    /// Caches `value` as `key`'s `version`, just written and filed in the
    /// map, if the fill wins the cache's admission; a refused fill copies
    /// nothing. Asked after the map holds the version, so no read of an
    /// older one can fill the cache after this refusal (`get_object`).
    fn fill_written(&self, key: &HashedKey<'_>, name: &Arc<str>, value: &[u8], version: u64) {
        if self.object_cache.admits_write(key, value.len()) {
            self.object_cache
                .put_named(key, name, Arc::new(value.to_vec()), version);
        }
    }

    /// The sub-operations that add `version` to `key`: records the version
    /// in `meta` and returns the sealed object, the new head and the
    /// history segment the version sealed, each built by `put`, then the
    /// forced DELETE of the segment the history bound just trimmed and of
    /// every version it listed — at most 12 sub-operations.
    #[allow(clippy::too_many_arguments)]
    fn version_ops(
        &self,
        key: &HashedKey<'_>,
        meta: &mut ObjectMetadata,
        version: u64,
        value: &[u8],
        policy_id: Option<PolicyId>,
        value_hash: pesos_crypto::Digest,
        put: fn(Vec<u8>, Payload) -> BatchOp,
    ) -> Arc<[BatchOp]> {
        let sealed = self
            .crypter
            .seal_hashed(key.key(), version, value, Some(&value_hash));
        let policy_hash = policy_id
            .or(meta.policy_id)
            .map(|p| p.0.into())
            .unwrap_or_default();
        if policy_id.is_some() {
            meta.policy_id = policy_id;
        }
        let change = meta.record_version(VersionMeta {
            version,
            size: value.len() as u64,
            value_hash: value_hash.into(),
            policy_hash,
        });
        let written = change
            .written
            .as_deref()
            .and_then(|segment| segment_put(meta, segment, put));
        let dropped = change
            .dropped
            .map(|first| BatchOp::delete_forced(segment_key(key.key(), first)));
        let trimmed = change
            .trimmed
            .iter()
            .map(|&old| BatchOp::delete_forced(data_key(key.key(), old)));
        [
            put(data_key(key.key(), version), sealed),
            put(meta_key(key.key()), meta.to_bytes().into()),
        ]
        .into_iter()
        .chain(written)
        .chain(dropped)
        .chain(trimmed)
        .collect()
    }

    /// Retrieves the latest version of `key`.
    pub fn get_object<'a>(
        &self,
        key: impl Into<HashedKey<'a>>,
    ) -> Result<(Arc<Vec<u8>>, u64), PesosError> {
        let key = key.into();
        if let Some((value, version)) = self.object_cache.get(&key) {
            return Ok((value, version));
        }
        let meta = self
            .lookup(&key)?
            .ok_or_else(|| PesosError::ObjectNotFound(key.key().to_string()))?;
        let version = meta.latest_version;
        let value = self.get_object_version(&key, version)?;
        let value = Arc::new(value);
        self.fill_if_latest(&key, &value, version);
        Ok((value, version))
    }

    /// Caches `value`, version `version` of `key` as read from the drives,
    /// if the fill wins admission (asked under the cache shard's lock
    /// alone, so only fills that won it pay the revalidation) and that
    /// version is still the key's latest content, checked and filled under
    /// the metadata shard's read lock: a delete or a newer write changes
    /// the map under its write lock *before* it touches the cache, so it
    /// either fails this check or replaces the fill afterwards. Without the
    /// re-check, one completing between the drive read and this insert
    /// would be shadowed by the stale value indefinitely. The hash
    /// comparison also covers delete-and-recreate, where the version
    /// numbers restart and can collide. Hash first: the value is immutable
    /// and SHA-256 is the expensive part.
    fn fill_if_latest(&self, key: &HashedKey<'_>, value: &Arc<Vec<u8>>, version: u64) {
        if !self.object_cache.admits_read(key, value.len()) {
            return;
        }
        let value_hash = pesos_crypto::sha256(value);
        self.metadata.with(key, |current| {
            let still_latest = current.filter(|m| {
                m.latest_version == version
                    && m.version(version)
                        .is_some_and(|v| v.value_hash.as_slice() == value_hash)
            });
            if let Some(m) = still_latest {
                self.object_cache
                    .put_named(key, &m.key, Arc::clone(value), version);
            }
        });
    }

    /// Retrieves a specific stored version of `key` (used by versioned-store
    /// history reads and `objSays` evaluation).
    pub fn get_object_version<'a>(
        &self,
        key: impl Into<HashedKey<'a>>,
        version: u64,
    ) -> Result<Vec<u8>, PesosError> {
        let key = key.into();
        let data = backend_key(namespace::DATA, key.key(), Some(version));
        let stored = self.replicated_get(&key, data)?;
        self.crypter
            .unseal(key.key(), version, &stored)
            .map_err(|e| PesosError::Backend(format!("decryption failed: {e}")))
    }

    /// Deletes `key` (its metadata head, its sealed history segments and
    /// all retained versions).
    ///
    /// The DELETEs travel as atomic batches of at most [`MAX_BATCH_OPS`],
    /// the head first: a crash or fault midway leaves the object invisible
    /// (unreferenced segments and data at worst), never a head pointing at
    /// missing segments or versions. Every batch is joined before
    /// the key lock is released, so a put that re-creates the key
    /// afterwards can never race a still-queued delete.
    ///
    /// A drive fault is reported (first error wins, after every batch has
    /// been attempted) instead of being swallowed: a delete that may have
    /// left a replica's copy behind must not claim the key is gone, or a
    /// migration would retire with a stale source copy still readable.
    /// Either way the in-enclave map and cache forget the key, so the
    /// drives are the witness from here on — a retry finds the surviving
    /// record and finishes, or every replica answers that it holds none and
    /// the retry reports `ObjectNotFound`, which callers finishing an
    /// interrupted delete treat as done (a replica that faults instead of
    /// answering fails the retry too: it may be the one that kept the
    /// record). A put that re-creates the key meanwhile is compare-on-absent
    /// like any first write, so a replica that kept the record refuses it
    /// and the put lands over the surviving versions instead of restarting
    /// at 0.
    pub fn delete_object<'a>(&self, key: impl Into<HashedKey<'a>>) -> Result<(), PesosError> {
        let key = key.into();
        let _write_guard = self.key_locks.get(&key).lock();
        let meta = self
            .load_metadata_checked(&key)?
            .ok_or_else(|| PesosError::ObjectNotFound(key.key().to_string()))?;
        let segments = meta.versions.segments().filter_map(|s| s.first());
        let ops: Vec<BatchOp> = std::iter::once(meta_key(key.key()))
            .chain(segments.map(|f| segment_key(key.key(), f.version)))
            .chain(meta.versions.iter().map(|v| data_key(key.key(), v.version)))
            .map(BatchOp::delete_forced)
            .collect();
        let mut outcome = Ok(());
        for chunk in ops.chunks(MAX_BATCH_OPS) {
            let deleted = self.replicated_batch(&key, chunk.into());
            if outcome.is_ok() {
                outcome = deleted;
            }
        }
        self.metadata.remove(&key);
        self.object_cache.invalidate(&key);
        outcome
    }

    /// Associates `policy_id` with an existing object without changing its
    /// contents.
    pub fn attach_policy<'a>(
        &self,
        key: impl Into<HashedKey<'a>>,
        policy_id: PolicyId,
    ) -> Result<(), PesosError> {
        let key = key.into();
        let _write_guard = self.key_locks.get(&key).lock();

        let mut meta = self
            .load_metadata_checked(&key)?
            .ok_or_else(|| PesosError::ObjectNotFound(key.key().to_string()))?;
        meta.policy_id = Some(policy_id);
        self.replicated_batch(&key, [stored(meta_key(key.key()), meta.to_bytes())].into())?;
        self.metadata.insert(&key, meta);
        Ok(())
    }

    /// Returns a read-only view adapter for one policy evaluation.
    pub fn view(&self) -> StoreView<'_> {
        StoreView {
            store: self,
            seen: RefCell::new(Vec::new()),
            read_drive_data: Cell::new(false),
        }
    }

    /// Number of objects resident in the in-enclave metadata map.
    ///
    /// An in-memory approximation of the store's population (puts insert,
    /// deletes remove, cold read-throughs fill) — exactly what load-aware
    /// rebalancing needs; the drive-authoritative count is
    /// [`PesosStore::list_keys`].
    pub fn resident_object_count(&self) -> usize {
        self.metadata.len()
    }

    /// The names of the resident objects (same in-memory approximation as
    /// [`PesosStore::resident_object_count`]); the rebalancer hashes these
    /// to pick a weighted split point.
    pub fn resident_keys(&self) -> Vec<String> {
        self.metadata.keys()
    }

    // ------------------------------------------------------------------
    // Hash-range migration (cluster layer)
    // ------------------------------------------------------------------

    /// Lists every object key stored on this store's drives.
    ///
    /// Authoritative, not a cache dump: each drive's metadata namespace
    /// (`m/…`) is scanned with paginated `GetKeyRange` commands through the
    /// asynchronous system-call interface, and the union across drives is
    /// returned (replication stores a record on several drives). The
    /// cluster layer drives this during hash-range migration, where
    /// missing a key would mean losing it — which is why an *offline*
    /// drive is an error here rather than a silently narrowed scan: its
    /// keys may exist nowhere else, and a migration that believed this
    /// listing complete would strand them.
    pub fn list_keys(&self) -> Result<Vec<String>, PesosError> {
        self.list_keys_with_prefix("")
    }

    /// Like [`PesosStore::list_keys`] but returns only keys beginning with
    /// `prefix` (same drive-authoritative scan, narrowed to the prefix's
    /// slice of the metadata namespace).
    ///
    /// The cluster layer uses this during hash-range migration to
    /// demand-pull a whole *placement group* at once: every sibling of a
    /// requested key shares its routing prefix, so one bounded prefix scan
    /// finds the referenced objects a policy may consult.
    pub fn list_keys_with_prefix(&self, prefix: &str) -> Result<Vec<String>, PesosError> {
        let offline = self.drives.iter().filter(|d| !d.is_online()).count();
        if offline != 0 {
            return Err(PesosError::Backend(format!(
                "cannot list keys authoritatively: {offline} of {} drives offline",
                self.clients.len()
            )));
        }
        let mut keys = std::collections::BTreeSet::new();
        // Every drive is online, so every session is scanned.
        for client in &self.clients {
            let start: Vec<u8> = format!("m/{prefix}").into_bytes();
            // Object keys are UTF-8 and therefore never contain the byte
            // 0xff, so appending it to the scan prefix forms an inclusive
            // upper bound covering exactly the keys that start with
            // `prefix` (the whole "m/…" namespace for the empty prefix).
            let end = [start.as_slice(), &[0xff]].concat();
            for raw in self.scan(client, start, &end)? {
                if let Some(stripped) = raw.strip_prefix(b"m/") {
                    if let Ok(key) = std::str::from_utf8(stripped) {
                        keys.insert(key.to_string());
                    }
                }
            }
        }
        Ok(keys.into_iter().collect())
    }

    /// Every backend key drive `index` holds — heads, segments, data and
    /// policies — by the same paginated scan as [`PesosStore::list_keys`]:
    /// how a replica's drives are compared with its primary's.
    pub fn drive_keys(&self, index: usize) -> Result<Vec<Vec<u8>>, PesosError> {
        let client = self
            .clients
            .get(index)
            .ok_or_else(|| PesosError::Backend(format!("no session for drive index {index}")))?;
        // Backend keys start with an ASCII namespace letter.
        self.scan(client, Vec::new(), &[0xff])
    }

    /// The keys `client`'s drive holds in `[start, end]`, one
    /// `GetKeyRange` page at a time through the asynchronous system-call
    /// interface.
    fn scan(
        &self,
        client: &Arc<KineticClient>,
        mut start: Vec<u8>,
        end: &[u8],
    ) -> Result<Vec<Vec<u8>>, PesosError> {
        const PAGE: u32 = 512;
        let mut keys = Vec::new();
        loop {
            let (client, range_start, range_end) = (Arc::clone(client), start, end.to_vec());
            let page = self
                .asyscall
                .submit_joined([move || client.key_range(&range_start, &range_end, PAGE)])?
                .wait_single()?
                .map_err(|e| PesosError::Backend(e.to_string()))?;
            let full = page.len() == PAGE as usize;
            // The next page starts just after the last key seen.
            start = page
                .last()
                .map(|last| [last.as_slice(), &[0]].concat())
                .unwrap_or_default();
            keys.extend(page);
            if !full {
                return Ok(keys);
            }
        }
    }

    /// Reads one object out for migration — metadata plus the plaintext of
    /// every retained version — under the key's write lock, *without*
    /// removing anything.
    ///
    /// Returns `Ok(None)` when the key does not exist. This is the source
    /// half of a cross-controller migration; the destination applies the
    /// export with [`PesosStore::import_object`] and only then does the
    /// coordinator delete the source copy ([`PesosStore::delete_object`]),
    /// so a failed import can never lose the object. Versions beyond the
    /// retention bound ([`crate::metadata::MAX_VERSION_HISTORY`]) are not
    /// exported, mirroring what [`PesosStore::delete_object`] deletes.
    pub fn export_object<'a>(
        &self,
        key: impl Into<HashedKey<'a>>,
    ) -> Result<Option<ObjectExport>, PesosError> {
        let key = key.into();
        let _write_guard = self.key_locks.get(&key).lock();
        // `None` is the drives' answer that there is genuinely nothing to
        // export. A drive *fault* stays an error — reporting it as "never
        // existed" would let a migration pull settle a key whose record
        // simply could not be read.
        let Some(meta) = self.load_metadata_checked(&key)? else {
            return Ok(None);
        };
        let versions = meta
            .versions
            .iter()
            .map(|v| Ok((v.version, self.get_object_version(&key, v.version)?)))
            .collect::<Result<_, PesosError>>()?;
        Ok(Some(ObjectExport { meta, versions }))
    }

    /// Applies an [`ObjectExport`] produced by another store: re-seals every
    /// version under this store's placement and persists the metadata
    /// record verbatim (same version numbers, policy association, content
    /// hashes and segment boundaries, so the same head and segment bytes),
    /// all under the key's write lock.
    ///
    /// The PUTs travel as atomic batches of at most [`MAX_BATCH_OPS`]:
    /// data, then segments, then the head last. An import interrupted
    /// midway leaves unreferenced data a retry overwrites, never a visible
    /// object with versions missing.
    pub fn import_object(&self, export: &ObjectExport) -> Result<(), PesosError> {
        let key = HashedKey::new(&export.meta.key);
        let _write_guard = self.key_locks.get(&key).lock();
        let meta = &export.meta;
        let ops: Vec<BatchOp> = export
            .versions
            .iter()
            .map(|(version, plain)| {
                stored(
                    data_key(key.key(), *version),
                    self.crypter.seal_hashed(key.key(), *version, plain, None),
                )
            })
            .chain(
                meta.versions
                    .segments()
                    .filter_map(|s| segment_put(meta, s, stored)),
            )
            .chain(std::iter::once(stored(
                meta_key(key.key()),
                meta.to_bytes(),
            )))
            .collect();
        for chunk in ops.chunks(MAX_BATCH_OPS) {
            self.replicated_batch(&key, chunk.into())?;
        }
        self.metadata.insert(&key, export.meta.clone());
        Ok(())
    }
}

/// The entry version every stored key carries: the key lock, not a version
/// sequence on the drive, orders writers, so the drive's compare-and-swap
/// only ever has to tell "an entry" from "no entry".
const ENTRY_VERSION: &[u8] = b"pesos";

/// The store's PUT sub-operation for a key the map vouches for (or one
/// whose state does not matter): unconditional.
fn stored(backend_key: Vec<u8>, value: impl Into<Payload>) -> BatchOp {
    BatchOp::put_forced(backend_key, value, ENTRY_VERSION)
}

/// The PUT sub-operation of a first write: compare-on-absent.
fn stored_if_absent(backend_key: Vec<u8>, value: impl Into<Payload>) -> BatchOp {
    BatchOp::put_if_absent(backend_key, value, ENTRY_VERSION)
}

/// The PUT, built by `put`, of `segment`, a sealed segment of `meta`'s
/// history, under `h/<key>/<its first version>`.
fn segment_put(
    meta: &ObjectMetadata,
    segment: &[VersionMeta],
    put: fn(Vec<u8>, Payload) -> BatchOp,
) -> Option<BatchOp> {
    let first = segment.first()?.version;
    Some(put(
        segment_key(&meta.key, first),
        meta.segment_bytes(segment).into(),
    ))
}

/// One object read out of a store for migration: its metadata record and
/// the plaintext of every retained version.
///
/// Plaintext because source and destination place (and may key) ciphertext
/// differently; the destination re-seals on import. The export never leaves
/// the (simulated) enclave boundary — migration is controller-to-controller
/// inside the trust domain, exactly like the original single controller
/// moving an object between its own drives.
#[derive(Debug, Clone)]
pub struct ObjectExport {
    /// The metadata record, persisted verbatim at the destination: the
    /// same head and sealed segments.
    pub meta: ObjectMetadata,
    /// `(version, plaintext)` for every retained version, oldest first.
    pub versions: Vec<(u64, Vec<u8>)>,
}

/// Adapter exposing the store as an [`ObjectStoreView`] for one policy
/// evaluation.
///
/// Every fact of a key is answered from one metadata lookup: the view
/// remembers the records (and the absences) it has looked up, so an
/// evaluation sees each key as it was when first asked and pays for it
/// once. That is also why a view must not outlive its evaluation. Before
/// each lookup it reads the key's write generation, so what the
/// evaluation depended on can be checked later (module docs, "Read
/// decisions are remembered").
///
/// A lookup the drives could not answer is a [`ViewFault`], never an
/// absence: a fault under an `objSays` must not read as "no such tuple".
pub struct StoreView<'a> {
    store: &'a PesosStore,
    seen: RefCell<Vec<Seen>>,
    /// Whether some object's contents came from the drives rather than
    /// the object cache.
    read_drive_data: Cell<bool>,
}

/// What a view has learnt about one key.
struct Seen {
    /// The key's placement hash, computed once for the lookups that follow.
    hash: u64,
    /// The key's write generation, read before the lookup.
    generation: (u32, u64),
    /// The record, or the key the drives answered they hold none for.
    record: Result<ObjectMetadata, String>,
}

fn view_fault(error: PesosError) -> ViewFault {
    ViewFault(match error {
        PesosError::Backend(message) => message,
        other => other.to_string(),
    })
}

impl StoreView<'_> {
    /// The write generation of every key looked up so far, as `(slot,
    /// generation)` pairs: while they all hold, the records are as seen.
    fn generations(&self) -> Box<[(u32, u64)]> {
        self.seen
            .borrow()
            .iter()
            .map(|seen| seen.generation)
            .collect()
    }

    /// Reads from the record of `key` (`None` if there is none), looking it
    /// up on first use.
    fn record<T>(
        &self,
        key: &str,
        read: impl FnOnce(&HashedKey<'_>, Option<&ObjectMetadata>) -> T,
    ) -> Result<T, ViewFault> {
        let mut seen = self.seen.borrow_mut();
        let mut fresh = None;
        let known = seen.iter().find(|seen| match &seen.record {
            Ok(meta) => &*meta.key == key,
            Err(absent) => absent == key,
        });
        let entry = match known {
            Some(entry) => entry,
            None => {
                let hashed = HashedKey::new(key);
                let generation = self.store.metadata.generation(&hashed);
                let record = self.store.lookup(&hashed).map_err(view_fault)?;
                &*fresh.insert(Seen {
                    hash: hashed.hash(),
                    generation,
                    record: record.ok_or_else(|| key.to_string()),
                })
            }
        };
        let hashed = HashedKey::from_parts(key, entry.hash);
        let out = read(&hashed, entry.record.as_ref().ok());
        seen.extend(fresh);
        Ok(out)
    }

    fn version_fact<T>(
        &self,
        key: &str,
        version: u64,
        read: impl FnOnce(&VersionMeta) -> T,
    ) -> Result<Option<T>, ViewFault> {
        self.record(key, |_, meta| meta?.version(version).map(read))
    }
}

impl ObjectStoreView for StoreView<'_> {
    fn current_version(&self, key: &str) -> Result<Option<u64>, ViewFault> {
        self.record(key, |_, meta| meta.map(|m| m.latest_version))
    }

    fn object_size(&self, key: &str, version: u64) -> Result<Option<u64>, ViewFault> {
        self.version_fact(key, version, |v| v.size)
    }

    fn object_hash(&self, key: &str, version: u64) -> Result<Option<Vec<u8>>, ViewFault> {
        self.version_fact(key, version, |v| v.value_hash.as_slice().to_vec())
    }

    fn policy_hash(&self, key: &str, version: u64) -> Result<Option<Vec<u8>>, ViewFault> {
        self.version_fact(key, version, |v| v.policy_hash.as_slice().to_vec())
    }

    fn object_contents(&self, key: &str, version: u64) -> Result<Option<Arc<Vec<u8>>>, ViewFault> {
        self.record(key, |key, meta| {
            // A version the record does not list has no contents to ask
            // the drives for.
            if meta.and_then(|m| m.version(version)).is_none() {
                return Ok(None);
            }
            // Objects accessed during policy evaluation are served from the
            // object cache, so that content-based policies avoid repeated
            // disk reads (paper §4.2); the cached bytes are lent, not copied.
            if let Some((cached, cached_version)) = self.store.object_cache.get(key) {
                if cached_version == version {
                    return Ok(Some(cached));
                }
            }
            self.read_drive_data.set(true);
            match self.store.get_object_version(key, version) {
                Ok(contents) => {
                    let contents = Arc::new(contents);
                    // Cached as a read caches it; older versions are not.
                    if meta.is_some_and(|m| m.latest_version == version) {
                        self.store.fill_if_latest(key, &contents, version);
                    }
                    Ok(Some(contents))
                }
                Err(PesosError::ObjectNotFound(_)) => Ok(None),
                Err(fault) => Err(view_fault(fault)),
            }
        })?
    }
}

/// A test log: the batches a store appended, in order.
#[cfg(test)]
#[derive(Default)]
pub(crate) struct CapturedLog(pub(crate) Mutex<Vec<(String, Arc<[BatchOp]>)>>);

#[cfg(test)]
impl BatchLog for CapturedLog {
    fn append(&self, placement_key: &str, ops: &Arc<[BatchOp]>) {
        self.0
            .lock()
            .push((placement_key.to_string(), Arc::clone(ops)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    use pesos_kinetic::{ClientConfig, DriveConfig, KineticDrive};
    use pesos_sgx::{EnclaveConfig, ExecutionMode, SgxCostModel};

    fn store(drive_count: usize, replication: usize) -> PesosStore {
        store_caching(drive_count, replication, 1024 * 1024)
    }

    /// A store whose object cache holds `object_cache_bytes`.
    fn store_caching(
        drive_count: usize,
        replication: usize,
        object_cache_bytes: usize,
    ) -> PesosStore {
        let drives: Vec<Arc<KineticDrive>> = (0..drive_count)
            .map(|i| Arc::new(KineticDrive::new(DriveConfig::simulator(format!("kd-{i}")))))
            .collect();
        let clients: Vec<Arc<KineticClient>> = drives
            .iter()
            .map(|d| {
                Arc::new(
                    KineticClient::connect(Arc::clone(d), ClientConfig::factory_default()).unwrap(),
                )
            })
            .collect();
        let cost = pesos_sgx::cost::ModeCost::new(ExecutionMode::Native, SgxCostModel::zero());
        let enclave = Arc::new(Enclave::create(EnclaveConfig::default(), cost).unwrap());
        let asyscall = Arc::new(AsyscallInterface::new(4, 16, cost));
        PesosStore::new(
            DriveSet::from_drives(drives),
            clients,
            ObjectCrypter::new(&[1u8; 32], true),
            StoreOptions {
                object_cache_bytes,
                policy_cache_capacity: 128,
                replication_factor: replication,
                lock_shards: 8,
            },
            asyscall,
            enclave,
        )
    }

    #[test]
    fn object_round_trip_with_versions() {
        let s = store(1, 1);
        assert_eq!(s.put_object("users/alice", b"v0", None).unwrap(), 0);
        assert_eq!(s.put_object("users/alice", b"v1", None).unwrap(), 1);
        let (value, version) = s.get_object("users/alice").unwrap();
        assert_eq!(&**value, b"v1");
        assert_eq!(version, 1);
        assert_eq!(s.get_object_version("users/alice", 0).unwrap(), b"v0");
        assert!(matches!(
            s.get_object("missing"),
            Err(PesosError::ObjectNotFound(_))
        ));
    }

    #[test]
    fn a_cache_smaller_than_its_data_refuses_and_admits_fills() {
        // Eight shards of 1 KiB, about five objects each, for 200 objects
        // of slightly different sizes.
        let s = store_caching(1, 1, 8 * 1024);
        let key = |k: usize| format!("obj/{k:03}");
        let value = |k: usize, v: u8| vec![v; 200 + k % 7];
        for k in 0..200 {
            s.put_object(&*key(k), &value(k, 0), None).unwrap();
        }
        assert!(
            s.object_cache_stats().refused > 0,
            "creates past the budget lose admission"
        );

        // A key read again and again outranks what its fill would evict:
        // the fill lands and the next read hits.
        let hot = key(7);
        for attempt in 0.. {
            assert!(attempt < 8, "{hot}'s fill never won admission");
            let before = s.object_cache_stats();
            let (read, version) = s.get_object(&*hot).unwrap();
            assert_eq!((&*read, version), (&value(7, 0), 0));
            if s.object_cache_stats().hits > before.hits {
                break;
            }
        }

        // Whether or not a write's fill lands, every read returns the
        // latest version.
        for k in 0..200 {
            assert_eq!(s.put_object(&*key(k), &value(k, 1), None).unwrap(), 1);
        }
        let written = s.object_cache_stats();
        for round in 0..3 {
            for k in 0..200 {
                let (read, version) = s.get_object(&*key(k)).unwrap();
                assert_eq!((&*read, version), (&value(k, 1), 1), "round {round}");
            }
        }
        let stats = s.object_cache_stats();
        assert!(stats.refused > written.refused, "reads lose admission");
        assert!(stats.evictions > written.evictions, "reads win it");
        assert!(stats.hits > written.hits, "{stats:?}");
        assert!(stats.used_bytes <= 8 * 1024);
    }

    /// Asserts `a`'s drives hold exactly `b`'s entries, byte for byte.
    fn assert_same_drives(a: &PesosStore, b: &PesosStore) {
        for index in 0..a.drives().len() {
            let keys = a.drive_keys(index).unwrap();
            assert_eq!(keys, b.drive_keys(index).unwrap());
            let (da, db) = (
                a.drives().get(index).unwrap(),
                b.drives().get(index).unwrap(),
            );
            for key in &keys {
                assert_eq!(da.peek(key), db.peek(key));
            }
        }
    }

    #[test]
    fn replicated_apply_mirrors_primary_versions_idempotently() {
        let primary = store(3, 2);
        let log = Arc::new(CapturedLog::default());
        primary.attach_log(&log);
        let policy = primary
            .put_policy("read :- sessionKeyIs(\"alice\")")
            .unwrap();
        // Long enough to seal and trim history segments.
        for v in 0..140u32 {
            primary
                .put_object("acct/a", &v.to_be_bytes(), None)
                .unwrap();
        }
        primary.put_object("acct/b", b"b0", Some(policy)).unwrap();
        primary.put_object("acct/c", b"c0", None).unwrap();
        primary.attach_policy("acct/c", policy).unwrap();
        primary.delete_object("acct/b").unwrap();
        let records = std::mem::take(&mut *log.0.lock());

        // The backup writes every batch as the primary's drives received
        // it, and decides, seals and caches nothing.
        let backup = store(3, 2);
        for (key, ops) in &records {
            backup.apply_run(&[(key, ops)]).unwrap();
        }
        assert_same_drives(&primary, &backup);
        assert_eq!(backup.resident_object_count(), 0);
        // Replaying the log is a no-op, not a second history.
        for (key, ops) in &records {
            backup.apply_run(&[(key, ops)]).unwrap();
        }
        assert_same_drives(&primary, &backup);
        // Read cold, the backup serves the primary's record.
        assert_eq!(
            backup.get_metadata("acct/a"),
            primary.get_metadata("acct/a")
        );
        assert_eq!(
            backup.get_object("acct/a").unwrap(),
            (Arc::new(139u32.to_be_bytes().to_vec()), 139)
        );
        assert_eq!(backup.load_policy(&policy).unwrap().id(), policy);
    }

    #[test]
    fn objects_are_encrypted_on_the_drives() {
        let s = store(1, 1);
        s.put_object("secret", b"plaintext-contents", None).unwrap();
        let drive = s.drives().get(0).unwrap();
        let raw = drive.peek(&data_key("secret", 0)).unwrap();
        assert_ne!(raw.value, b"plaintext-contents");
        assert!(!raw
            .value
            .windows(b"plaintext".len())
            .any(|w| w == b"plaintext"));
    }

    #[test]
    fn delete_removes_data_and_metadata() {
        let s = store(1, 1);
        s.put_object("tmp", b"x", None).unwrap();
        s.put_object("tmp", b"y", None).unwrap();
        s.delete_object("tmp").unwrap();
        assert!(s.get_metadata("tmp").is_none());
        assert!(s.get_object("tmp").is_err());
        assert!(s.delete_object("tmp").is_err());
    }

    #[test]
    fn policies_persist_and_reload() {
        let s = store(1, 1);
        let id = s.put_policy("read :- sessionKeyIs(\"alice\")").unwrap();
        // A hit from the cache.
        assert!(s.load_policy(&id).is_ok());
        // Clear the cache to force the disk path.
        s.policy_cache.clear();
        let reloaded = s.load_policy(&id).unwrap();
        assert_eq!(reloaded.id(), id);
        assert!(matches!(
            s.load_policy(&PolicyId([0u8; 32])),
            Err(PesosError::PolicyNotFound(_))
        ));
    }

    #[test]
    fn replication_places_copies_on_multiple_drives() {
        let s = store(3, 3);
        s.put_object("replicated", b"payload", None).unwrap();
        let copies = s
            .drives()
            .iter()
            .filter(|d| d.peek(&data_key("replicated", 0)).is_some())
            .count();
        assert_eq!(copies, 3);
    }

    /// Media operations (= actuator charges) served so far, summed over
    /// the store's drives: (puts, gets, deletes).
    fn drive_ops(s: &PesosStore) -> (u64, u64, u64) {
        s.drives().iter().fold((0, 0, 0), |acc, d| {
            let stats = d.info().stats;
            (
                acc.0 + stats.puts,
                acc.1 + stats.gets,
                acc.2 + stats.deletes,
            )
        })
    }

    #[test]
    fn replicated_put_issues_replica_writes_as_one_batch() {
        let s = store(3, 3);
        // A create and an update cost the same: exactly one scatter-gather
        // submission carrying one atomic Kinetic batch — sealed object +
        // metadata record — to each replica, and no read (the create's
        // existence check rides in the batch as compare-on-absent).
        for value in [b"payload".as_slice(), b"payload2"] {
            let before = (s.asyscall_stats(), drive_ops(&s));
            s.put_object("batched", value, None).unwrap();
            let after = (s.asyscall_stats(), drive_ops(&s));
            assert_eq!(after.0.batches, before.0.batches + 1);
            // One call per replica: handed to the pool, or run on the
            // caller when no service thread was free to take it.
            let calls = |stats: &pesos_sgx::AsyscallStats| stats.submitted + stats.exits;
            assert_eq!(calls(&after.0), calls(&before.0) + 3);
            assert_eq!(after.1, (before.1 .0 + 3, before.1 .1, before.1 .2));
        }
        for d in s.drives().iter() {
            for v in 0..2 {
                assert!(d.peek(&data_key("batched", v)).is_some());
            }
            assert!(d.peek(&meta_key("batched")).is_some());
        }
    }

    #[test]
    fn drive_state_matches_the_reference_model() {
        // The one mutation path against a tiny model of what it must leave
        // behind: for every live key, its data versions and its metadata
        // record on exactly its placement drives, with exactly the bytes
        // the crypter and the record encoding produce — and nothing else.
        let s = store(3, 2);
        // A sealed object depends only on the master key, object key,
        // version and plaintext, so a second crypter predicts the bytes.
        let crypter = ObjectCrypter::new(&[1u8; 32], true);
        struct Version {
            plain: Vec<u8>,
            sealed: Vec<u8>,
        }
        let mut model: HashMap<String, Vec<Version>> = HashMap::new();
        for i in 0..20 {
            let key = format!("obj/{i}");
            let mut put = |value: String| {
                let versions = model.entry(key.clone()).or_default();
                let version = versions.len() as u64;
                assert_eq!(s.put_object(&key, value.as_bytes(), None).unwrap(), version);
                let sealed = crypter.seal(&key, version, value.as_bytes());
                versions.push(Version {
                    plain: value.into_bytes(),
                    sealed,
                });
            };
            put(format!("v0 of {i}"));
            if i % 3 == 0 {
                put(format!("v1 of {i}"));
            }
            if i % 5 == 0 {
                s.delete_object(&key).unwrap();
                model.remove(&key);
            }
        }

        let mut expected: Vec<HashMap<Vec<u8>, Vec<u8>>> = vec![HashMap::new(); 3];
        for (key, versions) in &model {
            let mut meta = ObjectMetadata::new(key.as_str());
            for (version, v) in versions.iter().enumerate() {
                meta.record_version(VersionMeta {
                    version: version as u64,
                    size: v.plain.len() as u64,
                    value_hash: pesos_crypto::sha256(&v.plain).into(),
                    policy_hash: Default::default(),
                });
            }
            for drive in crate::placement::placement(key, 3, 2) {
                for (version, v) in versions.iter().enumerate() {
                    expected[drive].insert(data_key(key, version as u64), v.sealed.clone());
                }
                expected[drive].insert(meta_key(key), meta.to_bytes());
            }
        }
        for (drive, expected) in s.drives().iter().zip(&expected) {
            assert_eq!(drive.key_count(), expected.len(), "{}", drive.id());
            for (backend_key, bytes) in expected {
                let stored = drive.peek(backend_key).unwrap_or_else(|| {
                    panic!(
                        "{} lacks {}",
                        drive.id(),
                        String::from_utf8_lossy(backend_key)
                    )
                });
                assert_eq!(
                    stored.value,
                    *bytes,
                    "{} holds other bytes for {}",
                    drive.id(),
                    String::from_utf8_lossy(backend_key)
                );
            }
        }
    }

    #[test]
    fn trimmed_versions_are_deleted_with_the_put_that_trims_them() {
        use crate::metadata::{MAX_VERSION_HISTORY, SEGMENT_LEN};
        const PUTS: u64 = 300;
        // 300 puts seal 37 segments and trim the oldest 21, a segment at a
        // time: the history keeps the 16 sealed since and a tail of 4.
        const SEGMENTS: usize = MAX_VERSION_HISTORY / SEGMENT_LEN;
        const RETAINED: usize = MAX_VERSION_HISTORY + PUTS as usize % SEGMENT_LEN;
        let src = store(2, 2);
        for v in 0..PUTS {
            assert_eq!(
                src.put_object("hot", format!("value {v}").as_bytes(), None)
                    .unwrap(),
                v
            );
        }
        // Exactly the retained history, its segments and the head, on
        // every replica.
        let oldest = PUTS - RETAINED as u64;
        for d in src.drives().iter() {
            assert_eq!(d.key_count(), RETAINED + SEGMENTS + 1, "{}", d.id());
            assert!(d.peek(&segment_key("hot", oldest)).is_some());
        }
        assert!(matches!(
            src.get_object_version("hot", oldest - 1),
            Err(PesosError::ObjectNotFound(_))
        ));
        assert_eq!(
            src.get_object_version("hot", oldest).unwrap(),
            format!("value {oldest}").into_bytes()
        );

        // A cold read-through reloads the same record: the head, then every
        // segment it lists in one more submission.
        let warm = src.get_metadata("hot").unwrap();
        src.metadata.remove("hot");
        let batches = src.asyscall_stats().batches;
        assert_eq!(src.lookup("hot").unwrap(), Some(warm.clone()));
        assert_eq!(src.asyscall_stats().batches, batches + 2);

        // Export -> import -> export carries exactly the retained history
        // and its segment boundaries (several MAX_BATCH_OPS chunks, the
        // head in the last one), and the drives hold the same head and
        // segment bytes on both sides...
        let export = src.export_object("hot").unwrap().unwrap();
        assert_eq!(export.versions.len(), RETAINED);
        assert_eq!(export.meta, warm);
        let dst = store(1, 1);
        dst.import_object(&export).unwrap();
        let again = dst.export_object("hot").unwrap().unwrap();
        assert_eq!(again.meta, export.meta);
        assert_eq!(again.versions, export.versions);
        let dst_drive = dst.drives().get(0).unwrap();
        let firsts = warm.versions.segments().map(|s| s[0].version);
        for backend_key in firsts
            .map(|f| segment_key("hot", f))
            .chain([meta_key("hot")])
        {
            for d in src.drives().iter() {
                assert_eq!(
                    dst_drive.peek(&backend_key).map(|e| e.value),
                    d.peek(&backend_key).map(|e| e.value)
                );
            }
        }
        assert_eq!(dst_drive.key_count(), RETAINED + SEGMENTS + 1);
        assert_eq!(dst.put_object("hot", b"next", None).unwrap(), PUTS);
        assert_eq!(dst_drive.key_count(), RETAINED + SEGMENTS + 2);
        // ...and a delete (head in the first chunk) leaves no orphan, data
        // or segment, on either side.
        for s in [&src, &dst] {
            s.delete_object("hot").unwrap();
            for d in s.drives().iter() {
                assert_eq!(d.key_count(), 0, "{} kept orphans", d.id());
            }
        }
    }

    #[test]
    fn racing_creators_ask_the_drives_once_each_and_get_versions_0_and_1() {
        // Both writers find the map empty for the key; whoever takes the
        // key lock first creates version 0 compare-on-absent, the other
        // finds the key in the map and lands version 1. One batch each, no
        // GET, and the drive never had to refuse anything.
        let s = Arc::new(store(1, 1));
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let mut versions: Vec<u64> = [b"first".as_slice(), b"second"]
            .into_iter()
            .map(|value| {
                let (s, barrier) = (Arc::clone(&s), Arc::clone(&barrier));
                std::thread::spawn(move || {
                    barrier.wait();
                    s.put_object("raced", value, None).unwrap()
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect();
        versions.sort_unstable();
        assert_eq!(versions, [0, 1]);
        assert_eq!(drive_ops(&s), (2, 0, 0), "one batch each, no read");
        assert_eq!(s.create_stats(), CreateStats::default());
        assert_eq!(s.get_metadata("raced").unwrap().versions.len(), 2);
    }

    #[test]
    fn a_failed_delete_cannot_restart_a_key_at_version_0() {
        // The key is created and updated, then a delete fails with the
        // drive unreachable — the map forgets the key although the drive
        // still holds v0 and v1. A creator that saw the map miss must not
        // restart at 0 over the acknowledged versions: the drive refuses
        // its create and the put lands at v2 over v0 and v1.
        let s = store(1, 1);
        assert_eq!(s.put_object("k", b"v0", None).unwrap(), 0);
        assert_eq!(s.put_object("k", b"v1", None).unwrap(), 1);
        s.drives().get(0).unwrap().set_online(false);
        assert!(s.delete_object("k").is_err());
        s.drives().get(0).unwrap().set_online(true);
        assert!(s.resident_metadata(&HashedKey::new("k")).is_none());
        assert_eq!(s.put_object("k", b"v2", None).unwrap(), 2);
        assert_eq!(
            s.create_stats(),
            CreateStats {
                refusals: 1,
                rollbacks: 0
            }
        );
        assert_eq!(s.get_object_version("k", 1).unwrap(), b"v1");
        assert_eq!(s.get_metadata("k").unwrap().versions.len(), 3);
        // After a delete that worked, a create is one batch and no read.
        s.delete_object("k").unwrap();
        let before = drive_ops(&s);
        assert_eq!(s.put_object("k", b"again", None).unwrap(), 0);
        assert_eq!(drive_ops(&s), (before.0 + 1, before.1, before.2));
        assert_eq!(s.create_stats().refusals, 1);
    }

    #[test]
    fn lookup_keeps_drive_faults_apart_from_absence() {
        let s = store(1, 1);
        s.put_object("present", b"v0", None).unwrap();
        // A cold controller over the same drive state: empty map.
        s.metadata.remove("present");
        s.drives().get(0).unwrap().set_online(false);
        assert!(matches!(s.lookup("present"), Err(PesosError::Backend(_))));
        assert!(s.get_metadata("present").is_none());
        s.object_cache.invalidate("present");
        assert!(matches!(
            s.get_object("present"),
            Err(PesosError::Backend(_))
        ));
        // A put must fail rather than restart the version sequence.
        assert!(s.put_object("present", b"clobber", None).is_err());
        s.drives().get(0).unwrap().set_online(true);
        assert_eq!(s.put_object("present", b"v1", None).unwrap(), 1);
        assert_eq!(s.get_object_version("present", 0).unwrap(), b"v0");
    }

    #[test]
    fn reads_survive_primary_drive_failure_with_replication() {
        let s = store(3, 2);
        s.put_object("ha-object", b"payload", None).unwrap();
        // Take the primary replica offline.
        let targets = crate::placement::placement("ha-object", 3, 2);
        s.drives().get(targets[0]).unwrap().set_online(false);
        // Invalidate the cache so the read truly goes to the drives.
        s.object_cache.invalidate("ha-object");
        let (value, _) = s.get_object("ha-object").unwrap();
        assert_eq!(&**value, b"payload");
    }

    #[test]
    fn attach_policy_updates_metadata() {
        let s = store(1, 1);
        s.put_object("doc", b"contents", None).unwrap();
        let id = s.put_policy("read :- sessionKeyIs(\"alice\")").unwrap();
        s.attach_policy("doc", id).unwrap();
        assert_eq!(s.get_metadata("doc").unwrap().policy_id, Some(id));
        assert!(s.attach_policy("missing", id).is_err());
    }

    #[test]
    fn view_exposes_object_facts() {
        let s = store(1, 1);
        s.put_object("doc", b"hello world", None).unwrap();
        s.put_object("doc.log", b"read(\"doc\",0,\"alice\")", None)
            .unwrap();
        let view = s.view();
        assert_eq!(view.exists("doc"), Ok(true));
        assert_eq!(view.exists("nope"), Ok(false));
        assert_eq!(view.current_version("doc"), Ok(Some(0)));
        assert_eq!(view.object_size("doc", 0), Ok(Some(11)));
        assert_eq!(
            view.object_hash("doc", 0).unwrap().unwrap(),
            pesos_crypto::sha256(b"hello world").to_vec()
        );
        // The cached contents are lent, not copied.
        let contents = view.object_contents("doc.log", 0).unwrap().unwrap();
        let (cached, _) = s.object_cache.get("doc.log").unwrap();
        assert!(Arc::ptr_eq(&contents, &cached));
        assert_eq!(&**contents, b"read(\"doc\",0,\"alice\")");
        assert_eq!(view.object_contents("doc.log", 7), Ok(None));

        // A view is one evaluation's snapshot of each key it has asked
        // about; the next view sees the store as it is then.
        s.put_object("doc", b"v1", None).unwrap();
        assert_eq!(view.current_version("doc"), Ok(Some(0)));
        assert_eq!(s.view().current_version("doc"), Ok(Some(1)));
    }

    #[test]
    fn list_keys_is_drive_authoritative() {
        let s = store(2, 2);
        assert!(s.list_keys().unwrap().is_empty());
        let mut expected = Vec::new();
        for i in 0..30 {
            let key = format!("list/{i:03}");
            s.put_object(&key, b"v", None).unwrap();
            expected.push(key);
        }
        s.put_object("other/ns", b"v", None).unwrap();
        expected.push("other/ns".to_string());
        expected.sort();
        assert_eq!(s.list_keys().unwrap(), expected);
        s.delete_object("list/000").unwrap();
        assert_eq!(s.list_keys().unwrap().len(), expected.len() - 1);
    }

    #[test]
    fn export_and_import_move_objects_between_stores() {
        let src = store(2, 2);
        let dst = store(3, 1);
        src.put_object("moved", b"v0", None).unwrap();
        src.put_object("moved", b"v1", None).unwrap();
        let policy = src.put_policy("read :- sessionKeyIs(\"alice\")").unwrap();
        src.attach_policy("moved", policy).unwrap();

        let export = src.export_object("moved").unwrap().expect("object exists");
        assert_eq!(&*export.meta.key, "moved");
        assert_eq!(export.meta.policy_id, Some(policy));
        assert_eq!(
            export.versions,
            vec![(0, b"v0".to_vec()), (1, b"v1".to_vec())]
        );
        // The export is non-destructive: the source still serves the
        // object until the migration coordinator deletes it post-import.
        assert_eq!(&**src.get_object("moved").unwrap().0, b"v1");
        src.delete_object("moved").unwrap();
        assert!(src.get_metadata("moved").is_none());
        assert!(src.get_object("moved").is_err());
        assert!(src.list_keys().unwrap().is_empty());
        assert!(src.export_object("moved").unwrap().is_none());

        dst.import_object(&export).unwrap();
        let meta = dst.get_metadata("moved").unwrap();
        assert_eq!(meta.latest_version, 1);
        assert_eq!(meta.policy_id, Some(policy));
        let (value, version) = dst.get_object("moved").unwrap();
        assert_eq!(&**value, b"v1");
        assert_eq!(version, 1);
        // Version history survives the move.
        assert_eq!(dst.get_object_version("moved", 0).unwrap(), b"v0");
        // Writes continue the version sequence at the destination.
        assert_eq!(dst.put_object("moved", b"v2", None).unwrap(), 2);
    }

    #[test]
    fn zero_byte_object_survives_put_get_export_import() {
        // Regression for the wire-presence bug: a zero-length payload used
        // to decode as "absent". The whole lifecycle must treat it as a
        // present, empty object — with and without encryption (the
        // plaintext path stores the smallest frames).
        for encrypt in [true, false] {
            let make = |drives: usize| {
                let mut s = store(drives, 1);
                if !encrypt {
                    s.crypter = ObjectCrypter::new(&[1u8; 32], false);
                }
                s
            };
            let src = make(1);
            assert_eq!(src.put_object("empty", b"", None).unwrap(), 0);
            let (value, version) = src.get_object("empty").unwrap();
            assert!(value.is_empty(), "encrypt={encrypt}");
            assert_eq!(version, 0);
            assert_eq!(src.get_object_version("empty", 0).unwrap(), b"");

            let export = src.export_object("empty").unwrap().expect("exists");
            assert_eq!(export.versions, vec![(0, Vec::new())]);

            let dst = make(2);
            dst.import_object(&export).unwrap();
            let (value, version) = dst.get_object("empty").unwrap();
            assert!(value.is_empty(), "encrypt={encrypt}");
            assert_eq!(version, 0);
            // Still distinct from a missing object.
            assert!(dst.get_object("missing").is_err());
            dst.delete_object("empty").unwrap();
            assert!(dst.get_object("empty").is_err());
        }
    }

    #[test]
    fn list_keys_with_prefix_scans_exactly_the_prefix_slice() {
        let s = store(2, 2);
        for key in [
            "doc",
            "doc.log",
            "doc.v2",
            "docs/extra",
            "dot",
            "a.b",
            ".log",
            ".",
        ] {
            s.put_object(key, b"v", None).unwrap();
        }
        let mut got = s.list_keys_with_prefix("doc").unwrap();
        got.sort();
        assert_eq!(got, vec!["doc", "doc.log", "doc.v2", "docs/extra"]);
        assert_eq!(s.list_keys_with_prefix("doc.").unwrap().len(), 2);
        assert_eq!(s.list_keys_with_prefix(".").unwrap(), vec![".", ".log"]);
        assert!(s.list_keys_with_prefix("zzz").unwrap().is_empty());
        // The empty prefix is the full listing.
        assert_eq!(s.list_keys_with_prefix("").unwrap().len(), 8);
        assert_eq!(s.list_keys().unwrap().len(), 8);
        // Same offline-drive refusal as the full listing: a narrowed scan
        // could silently miss a group member that lives only there.
        s.drives().get(1).unwrap().set_online(false);
        assert!(matches!(
            s.list_keys_with_prefix("doc"),
            Err(PesosError::Backend(_))
        ));
    }

    #[test]
    fn resident_accounting_tracks_puts_and_deletes() {
        let s = store(1, 1);
        assert_eq!(s.resident_object_count(), 0);
        for i in 0..5 {
            s.put_object(&format!("r/{i}"), b"v", None).unwrap();
        }
        s.put_object("r/0", b"v2", None).unwrap(); // new version, same key
        assert_eq!(s.resident_object_count(), 5);
        let mut names = s.resident_keys();
        names.sort();
        assert_eq!(names, (0..5).map(|i| format!("r/{i}")).collect::<Vec<_>>());
        s.delete_object("r/3").unwrap();
        assert_eq!(s.resident_object_count(), 4);
    }

    #[test]
    fn list_keys_refuses_to_run_with_a_drive_offline() {
        let s = store(2, 1);
        s.put_object("present", b"v", None).unwrap();
        s.drives().get(1).unwrap().set_online(false);
        // A narrowed scan could silently miss keys that live only on the
        // offline drive, so the listing must fail instead.
        assert!(matches!(s.list_keys(), Err(PesosError::Backend(_))));
        s.drives().get(1).unwrap().set_online(true);
        assert_eq!(s.list_keys().unwrap(), vec!["present".to_string()]);
    }

    #[test]
    fn a_replica_fault_beside_not_found_is_the_fault() {
        use pesos_kinetic::FaultPlan;
        let s = store(3, 2);
        let home = crate::placement::placement("acked", 3, 2);
        // With the second replica offline the probe extends to the third
        // drive: the acknowledged put lands on the first and the third.
        s.drives().get(home[1]).unwrap().set_online(false);
        assert_eq!(s.put_object("acked", b"v0", None).unwrap(), 0);
        s.drives().get(home[1]).unwrap().set_online(true);
        // A cold controller: the map and the cache have forgotten the key.
        s.metadata.remove("acked");
        s.object_cache.invalidate("acked");
        // The targets are the first two again. The one that holds the
        // record faults; the other answers, truthfully, that it has none.
        let holder = s.drives().get(home[0]).unwrap();
        holder.inject_faults(FaultPlan::errors(7, 1.0));
        assert!(matches!(s.lookup("acked"), Err(PesosError::Backend(_))));
        assert!(matches!(s.get_object("acked"), Err(PesosError::Backend(_))));
        assert!(matches!(
            s.delete_object("acked"),
            Err(PesosError::Backend(_))
        ));
        holder.clear_faults();
        assert_eq!(s.lookup("acked").unwrap().unwrap().latest_version, 0);
        // Absence is still absence when every replica says so.
        assert!(matches!(s.lookup("never-written"), Ok(None)));
    }

    #[test]
    fn a_missed_read_asks_one_replica_at_any_factor() {
        // Four drives and no object cache, so every read goes to the
        // drives: a healthy read is one GET, from the primary, and one
        // exit, whatever the replication factor, and nothing is handed to
        // the pool.
        for factor in 1..=4 {
            let s = store_caching(4, factor, 0);
            let keys: Vec<String> = (0..64).map(|i| format!("missed/{i}")).collect();
            for key in &keys {
                s.put_object(key, key.as_bytes(), None).unwrap();
            }
            let (before, gets) = (s.asyscall_stats(), drive_ops(&s).1);
            for key in &keys {
                assert_eq!(&**s.get_object(key).unwrap().0, key.as_bytes());
            }
            let after = s.asyscall_stats();
            assert_eq!(drive_ops(&s).1 - gets, 64, "GETs at RF {factor}");
            assert_eq!(after.exits - before.exits, 64, "exits at RF {factor}");
            assert_eq!(
                after.submitted, before.submitted,
                "hand-offs at RF {factor}"
            );
        }
    }

    #[test]
    fn a_read_asks_the_next_replica_after_not_found_or_a_fault() {
        use pesos_kinetic::FaultPlan;
        let s = store_caching(3, 2, 0);
        let gets = || -> Vec<u64> { s.drives().iter().map(|d| d.info().stats.gets).collect() };
        // With the primary away the put lands on the second home replica
        // and the third drive; back online, the primary answers NotFound
        // and the second replica serves the read.
        let home = crate::placement::placement("moved", 3, 2);
        s.drives().get(home[0]).unwrap().set_online(false);
        s.put_object("moved", b"v0", None).unwrap();
        s.drives().get(home[0]).unwrap().set_online(true);
        let before = gets();
        assert_eq!(&**s.get_object("moved").unwrap().0, b"v0");
        let served: Vec<u64> = gets().iter().zip(&before).map(|(a, b)| a - b).collect();
        let mut expected = vec![0; 3];
        expected[home[0]] = 1;
        expected[home[1]] = 1;
        assert_eq!(served, expected, "GETs per drive");
        // A primary that faults: its request is dropped before the media
        // is read, and the second replica serves the read.
        let home = crate::placement::placement("faulted", 3, 2);
        s.put_object("faulted", b"v0", None).unwrap();
        let primary = s.drives().get(home[0]).unwrap();
        primary.inject_faults(FaultPlan::errors(7, 1.0));
        let before = gets();
        assert_eq!(&**s.get_object("faulted").unwrap().0, b"v0");
        assert_eq!(primary.fault_counts().dropped, 1);
        let served: Vec<u64> = gets().iter().zip(&before).map(|(a, b)| a - b).collect();
        let mut expected = vec![0; 3];
        expected[home[1]] = 1;
        assert_eq!(served, expected, "GETs per drive");
        primary.clear_faults();
    }

    #[test]
    fn absence_needs_every_home_replica() {
        // Two drives, one replica: with the key's home drive offline the
        // read asks the other drive, which never held the key. Its
        // NotFound is no answer about the key.
        let s = store(2, 1);
        s.put_object("doc", b"v0", None).unwrap();
        // A cold controller: the map and the cache have forgotten the key.
        s.metadata.remove("doc");
        s.object_cache.invalidate("doc");
        let home = s
            .drives()
            .get(crate::placement::placement("doc", 2, 1)[0])
            .unwrap();
        home.set_online(false);
        assert!(matches!(s.lookup("doc"), Err(PesosError::Backend(_))));
        assert!(matches!(s.get_object("doc"), Err(PesosError::Backend(_))));
        assert!(matches!(
            s.export_object("doc"),
            Err(PesosError::Backend(_))
        ));
        home.set_online(true);
        assert_eq!(&**s.get_object("doc").unwrap().0, b"v0");
        assert!(matches!(s.lookup("never-written"), Ok(None)));
    }

    #[test]
    fn a_drive_fault_on_a_policy_fetch_is_not_no_such_policy() {
        use pesos_kinetic::FaultPlan;
        let s = store(1, 1);
        let id = s.put_policy("read :- sessionKeyIs(\"alice\")").unwrap();
        s.policy_cache.clear();
        let drive = s.drives().get(0).unwrap();
        drive.inject_faults(FaultPlan::errors(7, 1.0));
        assert!(matches!(s.load_policy(&id), Err(PesosError::Backend(_))));
        drive.clear_faults();
        assert_eq!(s.load_policy(&id).unwrap().id(), id);
    }

    #[test]
    fn two_keys_that_share_a_stripe_run_every_locked_path_concurrently() {
        // Two keys whose placement hashes select one key-lock stripe. Each
        // path takes its key's stripe once and drops it before anything
        // could take another, so both keys' writers finish; one that took
        // the stripe it holds would hang here, and under the `lock_order`
        // feature it panics instead (a stripe index is not above itself).
        let src = Arc::new(store(2, 2));
        let dst = Arc::new(store(1, 1));
        let stripes = src.key_locks.shard_count();
        assert_eq!(stripes, 8 * KEY_LOCK_STRIPES_PER_SHARD);
        let stripe = |key: &str| HashedKey::new(key).shard(stripes);
        let first = "striped/0".to_string();
        let second = (1..)
            .map(|i| format!("striped/{i}"))
            .find(|key| stripe(key) == stripe(&first))
            .unwrap();
        assert!(std::ptr::eq(
            src.key_locks.get(&HashedKey::new(&first)),
            src.key_locks.get(&HashedKey::new(&second))
        ));
        let policy = src.put_policy("read :- sessionKeyIs(\"alice\")").unwrap();
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let workers: Vec<_> = [first, second]
            .into_iter()
            .map(|key| {
                let (src, dst, barrier) =
                    (Arc::clone(&src), Arc::clone(&dst), Arc::clone(&barrier));
                std::thread::spawn(move || {
                    barrier.wait();
                    for round in 0..16u8 {
                        let value = [round; 64];
                        assert_eq!(src.put_object(&key, &value, None).unwrap(), 0);
                        assert_eq!(src.put_object(&key, &value, None).unwrap(), 1);
                        // Cold: the read goes through to the drives under
                        // the stripe.
                        src.metadata.remove(&key);
                        src.object_cache.invalidate(&key);
                        assert_eq!(src.get_object(&key).unwrap(), (Arc::new(value.to_vec()), 1));
                        src.attach_policy(&key, policy).unwrap();
                        let export = src.export_object(&key).unwrap().unwrap();
                        assert_eq!(export.meta.policy_id, Some(policy));
                        dst.import_object(&export).unwrap();
                        assert_eq!(dst.get_metadata(&key), Some(export.meta));
                        src.delete_object(&key).unwrap();
                        dst.delete_object(&key).unwrap();
                    }
                })
            })
            .collect();
        for worker in workers {
            worker.join().unwrap();
        }
        for s in [&src, &dst] {
            assert_eq!(s.resident_object_count(), 0);
            assert_eq!(s.list_keys().unwrap(), Vec::<String>::new());
        }
    }

    #[test]
    fn targets_walk_the_probe_sequence_over_online_drives() {
        let s = store(4, 2);
        let key = HashedKey::new("walked");
        let sessions = |indices: &[usize]| -> Vec<*const KineticClient> {
            indices
                .iter()
                .map(|&i| Arc::as_ptr(&s.clients[i]))
                .collect()
        };
        let targets = || -> Result<Vec<*const KineticClient>, PesosError> {
            Ok(s.targets_for(&key)?.map(Arc::as_ptr).collect())
        };
        // All online: the sessions of `placement()`, in order.
        let home = crate::placement::placement(&key, 4, 2);
        assert_eq!(targets().unwrap(), sessions(&home));
        // Primary offline: the probe extends by one, the factor holds.
        s.drives().get(home[0]).unwrap().set_online(false);
        assert_eq!(targets().unwrap(), sessions(&[home[1], (home[1] + 1) % 4]));
        // Nobody online: nobody to ask, for a write or a read.
        for drive in s.drives().iter() {
            drive.set_online(false);
        }
        for failed in [
            targets().map(drop),
            s.put_object(&key, b"v", None).map(drop),
            s.get_object(&key).map(drop),
        ] {
            assert!(
                matches!(&failed, Err(PesosError::Backend(why)) if why == "no online drives"),
                "{failed:?}"
            );
        }
    }

    #[test]
    fn put_object_cas_rejects_wrong_expected_version() {
        let s = store(1, 1);
        assert_eq!(s.put_object_cas("doc", b"v0", None, Some(0)).unwrap(), 0);
        assert!(matches!(
            s.put_object_cas("doc", b"v2", None, Some(2)),
            Err(PesosError::VersionConflict {
                expected: 2,
                got: 1
            })
        ));
        assert_eq!(s.put_object_cas("doc", b"v1", None, Some(1)).unwrap(), 1);
        // Racing CAS writers expecting the same version: exactly one wins.
        let s = Arc::new(store(1, 1));
        s.put_object("raced", b"v0", None).unwrap();
        let winners: usize = (0..4)
            .map(|_| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || s.put_object_cas("raced", b"new", None, Some(1)).is_ok())
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .filter(|&won| won)
            .count();
        assert_eq!(winners, 1, "exactly one CAS writer must land at version 1");
        assert_eq!(s.get_metadata("raced").unwrap().latest_version, 1);
    }

    #[test]
    fn concurrent_writers_to_one_key_get_distinct_contiguous_versions() {
        let s = Arc::new(store(1, 1));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                (0..5)
                    .map(|_| s.put_object("contended", b"x", None).unwrap())
                    .collect::<Vec<u64>>()
            }));
        }
        let mut versions: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        versions.sort_unstable();
        let expected: Vec<u64> = (0..40).collect();
        assert_eq!(
            versions, expected,
            "versions must be distinct and contiguous"
        );
        assert_eq!(s.get_metadata("contended").unwrap().latest_version, 39);
    }

    #[test]
    fn tx_outcomes_are_bounded() {
        // One shard: the store keeps exactly the last TX_OUTCOME_CAPACITY.
        let config = ControllerConfig {
            lock_shards: 1,
            ..ControllerConfig::native_simulator(1)
        };
        let pool = pesos_sgx::HostPool::new(config.syscall_slots());
        let s = crate::bootstrap::bootstrap(&config, &pool).unwrap();
        let outcome = |tx: u64| TxOutcome {
            write_versions: vec![tx],
            read_values: Vec::new(),
        };
        let total = TX_OUTCOME_CAPACITY as u64 + 1;
        for tx in 0..total {
            s.record_tx_outcome(tx, outcome(tx));
        }
        assert_eq!(s.tx_outcome(0), None, "the oldest outcome is evicted");
        for tx in 1..total {
            assert_eq!(s.tx_outcome(tx), Some(outcome(tx)));
        }
    }
}
