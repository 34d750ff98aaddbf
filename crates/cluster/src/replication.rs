//! Primary/backup partition replication: per-partition op logs shipped to
//! backup controllers over the vectored frame encode.
//!
//! Every partition primary owns a [`ReplicaSet`], carried in the
//! partition's routing-table entry ([`crate::router::Partition::log`]): an
//! ordered op log of the writes it has acknowledged (puts, deletes, policy
//! installs, migration imports/deletes, committed 2PC branch outcomes),
//! shipped to one or more backup controllers by dedicated shipper threads.
//! The design invariants:
//!
//! * **Acked ⇒ logged.** A record is appended before the acknowledgement
//!   that covers it escapes the cluster layer, so the log (retained tail +
//!   backup state) always covers every acknowledged write. Failover
//!   replays the retained tail, which is why a promotion loses nothing.
//! * **Log order = seal order.** Records are sealed into vectored frames
//!   under the log mutex, so a frame's sequence number is its total order;
//!   backups apply strictly in that order. Explicit version numbers on
//!   sync-put records make re-application (a replayed tail) idempotent.
//! * **Bounded lag.** The retained tail is capped: when the slowest backup
//!   falls more than `max_lag` records behind, appenders block — explicit
//!   backpressure instead of unbounded memory growth. The wait is itself
//!   bounded ([`APPEND_STALL_CAP`]) so a dead backup degrades to an
//!   unbounded tail rather than wedging the write path (and with it the
//!   ops gate a failover needs).
//! * **Frames, not calls.** Log records travel as authenticated
//!   [`VectoredEnvelope`] frames: the payload chunk *is* the acknowledged
//!   value buffer (shared by reference count), sealed with one streaming
//!   frame HMAC and checked with the folded one-compression verification —
//!   the identical encode/verify path the kinetic wire layer uses, so
//!   shipping a log record costs one seal and no payload copies, and the
//!   backup does not hash the frame again to check it. The backup's store
//!   does hash the value once, for the content hash its version metadata
//!   records: the primary's digest is not shipped, and a backup trusts no
//!   digest it did not compute.
//! * **Batched wake-ups.** A shipper wakes once [`SHIP_BATCH`] records have
//!   queued for its backup, or once the first of fewer has waited
//!   [`SHIP_LINGER`]; an append wakes the shippers only at those two
//!   moments. Woken once per record, a shipper's backup submitted its I/O
//!   in bursts too sparse to keep the host pool's service thread hot, and
//!   each hand-off paid a cross-core wake-up. Applying a batch's puts as
//!   one store call and one submission was measured as well and bought
//!   nothing beyond this.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};
use pesos_core::{MetadataHead, ObjectExport, PesosController, PesosError, TxOutcome};
use pesos_crypto::hmac::HmacKey;
use pesos_kinetic::{Command, Envelope, MessageType, Payload, VectoredEnvelope};
use pesos_policy::{CompiledPolicy, PolicyId};
use pesos_sgx::AsyscallStats;
use pesos_wire::{FieldReader, FieldWriter};

/// Identity stamped on replication frames (not an account: the log channel
/// authenticates with the per-partition replication key alone).
const REPLICATION_IDENTITY: i64 = 0x5050;

/// A shipper wakes to apply once this many records have queued for its
/// backup, and applies at most this many per wake-up before re-checking
/// the queue.
const SHIP_BATCH: usize = 64;

/// How long a shipper lets fewer than [`SHIP_BATCH`] records wait for more
/// before it applies them anyway.
const SHIP_LINGER: Duration = Duration::from_millis(2);

/// Backoff between apply retries when a backup's store reports an error.
const APPLY_RETRY: Duration = Duration::from_millis(2);

/// Upper bound on how long one append waits for backpressure to clear
/// before proceeding anyway. A backup that cannot apply at all (dead
/// drives) would otherwise block the write path forever — and the ops
/// gate with it, making the failover that would fix things impossible.
const APPEND_STALL_CAP: Duration = Duration::from_secs(2);

/// One replicated operation, as carried by the log.
#[derive(Debug, Clone)]
pub enum LogRecord {
    /// A stored object version. `version` is `Some` for writes whose
    /// version the primary had already assigned at append time (sync puts,
    /// CAS puts, committed 2PC writes) and `None` for asynchronous writes
    /// appended at acknowledgement time, before the scheduler assigned a
    /// version — the backup assigns the next free slot in log order.
    Put {
        /// Object key.
        key: String,
        /// The acknowledged value (shared buffer — shipped by reference).
        value: Payload,
        /// Policy to associate, when the write carried one.
        policy_id: Option<PolicyId>,
        /// The version the primary assigned, when known at append time.
        version: Option<u64>,
    },
    /// All versions of an object were deleted.
    Delete {
        /// Object key.
        key: String,
    },
    /// A policy was associated with an existing object.
    AttachPolicy {
        /// Object key.
        key: String,
        /// The policy now in force.
        policy_id: PolicyId,
    },
    /// A compiled policy body was installed (broadcast or copied on
    /// demand). Backups need the bodies, not just the identifiers, so a
    /// promoted backup can evaluate policies without any surviving peer.
    PolicyInstall {
        /// The serialized compiled policy.
        bytes: Payload,
    },
    /// A whole object (all retained versions plus metadata) arrived via
    /// migration import.
    Import(Box<ObjectExport>),
    /// A cluster transaction's outcome was filed on this partition — the
    /// replicated outcome map failover uses to resolve in-doubt
    /// transactions.
    TxOutcome {
        /// Cluster transaction identifier.
        tx_id: u64,
        /// The recorded outcome.
        outcome: TxOutcome,
    },
}

const KIND_PUT: u64 = 1;
const KIND_DELETE: u64 = 2;
const KIND_ATTACH: u64 = 3;
const KIND_POLICY: u64 = 4;
const KIND_IMPORT: u64 = 5;
const KIND_TX_OUTCOME: u64 = 6;

impl LogRecord {
    /// Encodes the record as a kinetic command: the record header rides in
    /// `body.key`, the bulk bytes ride in `body.value` (for puts, the
    /// acknowledged value buffer itself), and the log sequence number in
    /// `sequence`. The command is then sealed with
    /// [`Envelope::seal_vectored`] — the wire layer's scatter-gather
    /// encode — so the value chunk is never copied into a contiguous
    /// frame.
    fn into_command(self, seq: u64) -> Command {
        let mut header = FieldWriter::new();
        let value: Payload = match self {
            LogRecord::Put {
                key,
                value,
                policy_id,
                version,
            } => {
                header.uint64(1, KIND_PUT);
                header.string(2, &key);
                header.uint64(3, version.map(|v| v + 1).unwrap_or(0));
                if let Some(id) = policy_id {
                    header.bytes(4, &id.0);
                }
                value
            }
            LogRecord::Delete { key } => {
                header.uint64(1, KIND_DELETE);
                header.string(2, &key);
                Payload::default()
            }
            LogRecord::AttachPolicy { key, policy_id } => {
                header.uint64(1, KIND_ATTACH);
                header.string(2, &key);
                header.bytes(4, &policy_id.0);
                Payload::default()
            }
            LogRecord::PolicyInstall { bytes } => {
                header.uint64(1, KIND_POLICY);
                bytes
            }
            LogRecord::Import(export) => {
                header.uint64(1, KIND_IMPORT);
                header.bytes(6, &export.meta.to_bytes());
                for segment in export.meta.versions.segments() {
                    header.bytes(7, &export.meta.segment_bytes(segment));
                }
                let mut body = FieldWriter::new();
                for (version, plaintext) in &export.versions {
                    let mut v = FieldWriter::new();
                    v.uint64(1, *version).bytes(2, plaintext);
                    body.message(1, &v);
                }
                body.finish().into()
            }
            LogRecord::TxOutcome { tx_id, outcome } => {
                header.uint64(1, KIND_TX_OUTCOME);
                header.uint64(5, tx_id);
                let mut body = FieldWriter::new();
                for v in &outcome.write_versions {
                    body.uint64(1, *v);
                }
                for r in &outcome.read_values {
                    body.bytes(2, r);
                }
                body.finish().into()
            }
        };
        let mut cmd = Command::request(MessageType::Put);
        cmd.sequence = seq;
        cmd.body.key = header.finish();
        cmd.body.value = value;
        cmd
    }

    /// Decodes a record from a verified log frame's command.
    fn from_command(cmd: &Command) -> Result<LogRecord, PesosError> {
        let corrupt = |m: &str| PesosError::Backend(format!("corrupt replication record: {m}"));
        let fields = FieldReader::new(&cmd.body.key)
            .collect_fields()
            .map_err(|e| corrupt(&e.to_string()))?;
        let mut kind = 0u64;
        let mut key = String::new();
        let mut version_plus_one = 0u64;
        let mut policy_id = None;
        let mut tx_id = 0u64;
        let mut meta_bytes: &[u8] = &[];
        let mut segments: Vec<&[u8]> = Vec::new();
        for f in &fields {
            match f.number {
                1 => kind = f.value,
                2 => {
                    key = f
                        .as_str()
                        .map_err(|_| corrupt("key not UTF-8"))?
                        .to_string()
                }
                3 => version_plus_one = f.value,
                4 => {
                    let id: [u8; 32] = f
                        .data
                        .try_into()
                        .map_err(|_| corrupt("policy id not 32 bytes"))?;
                    policy_id = Some(PolicyId(id));
                }
                5 => tx_id = f.value,
                6 => meta_bytes = f.data,
                7 => segments.push(f.data),
                _ => {}
            }
        }
        match kind {
            KIND_PUT => Ok(LogRecord::Put {
                key,
                value: cmd.body.value.clone(),
                policy_id,
                version: version_plus_one.checked_sub(1),
            }),
            KIND_DELETE => Ok(LogRecord::Delete { key }),
            KIND_ATTACH => Ok(LogRecord::AttachPolicy {
                key,
                policy_id: policy_id.ok_or_else(|| corrupt("attach without policy id"))?,
            }),
            KIND_POLICY => Ok(LogRecord::PolicyInstall {
                bytes: cmd.body.value.clone(),
            }),
            KIND_IMPORT => {
                let meta = MetadataHead::from_bytes(meta_bytes)
                    .and_then(|head| head.assemble(&segments))
                    .map_err(|e| corrupt(&e.to_string()))?;
                let mut versions = Vec::new();
                for f in FieldReader::new(&cmd.body.value)
                    .collect_fields()
                    .map_err(|e| corrupt(&e.to_string()))?
                {
                    if f.number != 1 {
                        continue;
                    }
                    let mut version = 0;
                    let mut plaintext = Vec::new();
                    for vf in FieldReader::new(f.data)
                        .collect_fields()
                        .map_err(|e| corrupt(&e.to_string()))?
                    {
                        match vf.number {
                            1 => version = vf.value,
                            2 => plaintext = vf.data.to_vec(),
                            _ => {}
                        }
                    }
                    versions.push((version, plaintext));
                }
                Ok(LogRecord::Import(Box::new(ObjectExport { meta, versions })))
            }
            KIND_TX_OUTCOME => {
                let mut outcome = TxOutcome::default();
                for f in FieldReader::new(&cmd.body.value)
                    .collect_fields()
                    .map_err(|e| corrupt(&e.to_string()))?
                {
                    match f.number {
                        1 => outcome.write_versions.push(f.value),
                        2 => outcome.read_values.push(f.data.to_vec()),
                        _ => {}
                    }
                }
                Ok(LogRecord::TxOutcome { tx_id, outcome })
            }
            other => Err(corrupt(&format!("unknown record kind {other}"))),
        }
    }

    /// Applies the record to a backup controller's store, in log order.
    fn apply(self, backup: &PesosController) -> Result<(), PesosError> {
        match self {
            LogRecord::Put {
                key,
                value,
                policy_id,
                version,
            } => backup
                .store()
                .apply_replicated_put(key.as_str(), &value, policy_id, version)
                .map(|_| ()),
            // Deletes and attaches tolerate a missing object: the primary
            // may have acked the op against state that a later record in a
            // replayed tail already superseded.
            LogRecord::Delete { key } => match backup.store().delete_object(key.as_str()) {
                Ok(()) | Err(PesosError::ObjectNotFound(_)) => Ok(()),
                Err(e) => Err(e),
            },
            LogRecord::AttachPolicy { key, policy_id } => {
                match backup.store().attach_policy(key.as_str(), policy_id) {
                    Ok(()) | Err(PesosError::ObjectNotFound(_)) => Ok(()),
                    Err(e) => Err(e),
                }
            }
            LogRecord::PolicyInstall { bytes } => {
                let policy = CompiledPolicy::from_bytes(&bytes)?;
                backup.store().store_compiled_policy(Arc::new(policy))?;
                Ok(())
            }
            LogRecord::Import(export) => backup.store().import_object(&export),
            LogRecord::TxOutcome { tx_id, outcome } => {
                backup.record_tx_outcome(tx_id, outcome);
                Ok(())
            }
        }
    }
}

/// A sealed log frame retained until every backup has applied it.
struct QueuedFrame {
    seq: u64,
    frame: Arc<VectoredEnvelope>,
}

struct LogState {
    /// Sequence number the next append receives.
    next_seq: u64,
    /// Retained tail: frames not yet applied by every backup, in order.
    queue: VecDeque<QueuedFrame>,
}

struct BackupLink {
    controller: Arc<PesosController>,
    /// Number of records this backup has applied (== next unapplied seq).
    applied: AtomicU64,
}

/// Point-in-time replication gauges of one replica set, as served under
/// `/stats/partitions/<i>/replication`: records appended, each backup's
/// applied count (lag = appended − applied), and how many appends had to
/// stall on the bounded-lag backpressure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicationStats {
    /// Records appended to the log so far.
    pub appended: u64,
    /// Records applied, per backup (shipper order).
    pub applied: Vec<u64>,
    /// Appends that blocked on backpressure at least once.
    pub stalls: u64,
    /// Each backup's asyscall counters (shipper order): its own
    /// submissions to the host pool.
    pub backup_asyscalls: Vec<AsyscallStats>,
}

impl ReplicationStats {
    /// The slowest backup's lag in records (0 with no backups).
    pub fn max_lag(&self) -> u64 {
        self.applied
            .iter()
            .map(|&a| self.appended.saturating_sub(a))
            .max()
            .unwrap_or(0)
    }
}

/// The outcome of promoting a backup out of a stopped replica set.
pub struct Promotion {
    /// The backup now serving the partition, with the full log applied.
    pub promoted: Arc<PesosController>,
    /// How many retained records were replayed into it during promotion.
    pub replayed: u64,
    /// Remaining backups that were also brought fully up to date; they
    /// re-seed the promoted partition's next replica set. A backup whose
    /// replay failed (its own store is faulting) is dropped.
    pub survivors: Vec<Arc<PesosController>>,
}

impl std::fmt::Debug for Promotion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Promotion")
            .field("replayed", &self.replayed)
            .field("survivors", &self.survivors.len())
            .finish_non_exhaustive()
    }
}

/// A partition's replication state: the retained op log, its backups, and
/// the shipper threads moving frames between them.
pub struct ReplicaSet {
    key: HmacKey,
    max_lag: u64,
    inner: Mutex<LogState>,
    /// Appenders blocked on backpressure wait here.
    space: Condvar,
    /// Shippers with an empty queue wait here.
    work: Condvar,
    stopping: AtomicBool,
    /// One link per backup, each shared with the shipper thread that
    /// feeds it.
    backups: Vec<Arc<BackupLink>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    /// Appends that hit the bounded-lag backpressure and waited (however
    /// briefly) — the `/stats` shipper-stall gauge.
    stalls: AtomicU64,
}

impl ReplicaSet {
    /// Creates a replica set over `backups` and starts one shipper thread
    /// per backup. `secret` keys the log frames' HMAC; `max_lag` bounds
    /// how far the slowest backup may fall behind before appends block.
    pub fn spawn(
        secret: &[u8],
        backups: Vec<Arc<PesosController>>,
        max_lag: u64,
    ) -> Arc<ReplicaSet> {
        let set = Arc::new(ReplicaSet {
            key: HmacKey::new(secret),
            max_lag: max_lag.max(1),
            inner: Mutex::with_rank(
                parking_lot::lock_order::REPLICATION_LOG,
                LogState {
                    next_seq: 0,
                    queue: VecDeque::new(),
                },
            ),
            space: Condvar::new(),
            work: Condvar::new(),
            stopping: AtomicBool::new(false),
            backups: backups
                .into_iter()
                .map(|controller| {
                    Arc::new(BackupLink {
                        controller,
                        applied: AtomicU64::new(0),
                    })
                })
                .collect(),
            workers: Mutex::with_rank(parking_lot::lock_order::REPLICATION_WORKERS, Vec::new()),
            stalls: AtomicU64::new(0),
        });
        let mut workers = set.workers.lock();
        for link in &set.backups {
            let (set, link) = (Arc::clone(&set), Arc::clone(link));
            workers.push(std::thread::spawn(move || set.run_shipper(&link)));
        }
        drop(workers);
        set
    }

    /// Sequence number of the next record to be appended (== records
    /// appended so far).
    pub fn appended(&self) -> u64 {
        self.inner.lock().next_seq
    }

    /// Point-in-time replication gauges (see [`ReplicationStats`]).
    pub fn stats(&self) -> ReplicationStats {
        ReplicationStats {
            appended: self.appended(),
            applied: self
                .backups
                .iter()
                .map(|b| b.applied.load(Ordering::Acquire))
                .collect(),
            stalls: self.stalls.load(Ordering::Relaxed),
            backup_asyscalls: self
                .backups
                .iter()
                .map(|b| b.controller.store().asyscall_stats())
                .collect(),
        }
    }

    /// The lowest applied count across backups.
    fn min_applied(&self) -> u64 {
        self.backups
            .iter()
            .map(|b| b.applied.load(Ordering::Acquire))
            .min()
            .unwrap_or(0)
    }

    /// Appends one record to the log, blocking (bounded) while the slowest
    /// backup is more than `max_lag` records behind.
    ///
    /// Sealing happens under the log mutex, so the sequence order of
    /// frames is the order appenders arrived — the total order backups
    /// apply in.
    pub fn append(&self, record: LogRecord) {
        let mut state = self.inner.lock();
        let mut stalled = Duration::ZERO;
        // Block when *this* append would push the slowest backup more than
        // `max_lag` records behind (so the retained tail never exceeds the
        // bound through the front door).
        while !self.stopping.load(Ordering::Acquire)
            && state.next_seq.saturating_sub(self.min_applied()) >= self.max_lag
            && stalled < APPEND_STALL_CAP
        {
            // Bounded wait: a backup that stopped applying entirely must
            // not wedge the write path (see APPEND_STALL_CAP).
            self.space.wait_for(&mut state, Duration::from_millis(50));
            stalled += Duration::from_millis(50);
        }
        if stalled > Duration::ZERO {
            self.stalls.fetch_add(1, Ordering::Relaxed);
        }
        let seq = state.next_seq;
        state.next_seq += 1;
        let frame = Arc::new(Envelope::seal_vectored(
            REPLICATION_IDENTITY,
            &self.key,
            record.into_command(seq),
        ));
        state.queue.push_back(QueuedFrame { seq, frame });
        // Wake the shippers only when one has something new to decide:
        // its backup was idle (this record starts its linger) or a whole
        // batch has queued for it. A shipper reads its backlog under this
        // mutex before it waits, so neither moment can slip past it.
        let wake = self.backups.iter().any(|link| {
            let pending = state.next_seq - link.applied.load(Ordering::Acquire).min(seq);
            pending == 1 || pending == SHIP_BATCH as u64
        });
        drop(state);
        if wake {
            self.work.notify_all();
        }
    }

    /// Verifies and applies one frame to one backup.
    fn apply_frame(
        key: &HmacKey,
        backup: &PesosController,
        frame: &VectoredEnvelope,
    ) -> Result<(), PesosError> {
        if !frame.verified_by(key) {
            return Err(PesosError::Backend(
                "replication frame failed authentication".to_string(),
            ));
        }
        LogRecord::from_command(frame.command())?.apply(backup)
    }

    /// Waits until `link`'s backup has records to apply and returns their
    /// frames: [`SHIP_BATCH`] of them, or fewer once they have waited
    /// [`SHIP_LINGER`] or the set is stopping. `None` once the set is
    /// stopping with nothing queued for this backup.
    fn next_batch(&self, link: &BackupLink) -> Option<Vec<Arc<VectoredEnvelope>>> {
        let mut state = self.inner.lock();
        let mut linger_until = None;
        loop {
            // The queue holds consecutive sequence numbers from its front,
            // so this backup's first unapplied frame sits at an offset.
            let applied = link.applied.load(Ordering::Acquire);
            let start = state.queue.front().map_or(0, |front| {
                usize::try_from(applied.saturating_sub(front.seq)).unwrap_or(usize::MAX)
            });
            let start = start.min(state.queue.len());
            let pending = state.queue.len() - start;
            let stopping = self.stopping.load(Ordering::Acquire);
            if pending == 0 {
                if stopping {
                    return None;
                }
                self.work.wait(&mut state);
                continue;
            }
            let now = Instant::now();
            let deadline = *linger_until.get_or_insert(now + SHIP_LINGER);
            if pending >= SHIP_BATCH || stopping || now >= deadline {
                return Some(
                    state
                        .queue
                        .range(start..)
                        .take(SHIP_BATCH)
                        .map(|f| Arc::clone(&f.frame))
                        .collect(),
                );
            }
            self.work.wait_for(&mut state, deadline - now);
        }
    }

    fn run_shipper(&self, link: &BackupLink) {
        while let Some(batch) = self.next_batch(link) {
            for frame in batch {
                // A failing apply (the backup's own drives may fault) is
                // retried until it lands or the set stops: dropping a
                // record would silently fork the backup from the log.
                loop {
                    match Self::apply_frame(&self.key, &link.controller, &frame) {
                        Ok(()) => break,
                        Err(_) if self.stopping.load(Ordering::Acquire) => return,
                        Err(_) => std::thread::sleep(APPLY_RETRY),
                    }
                }
                link.applied.fetch_add(1, Ordering::AcqRel);
            }
            self.trim();
        }
    }

    /// Drops frames every backup has applied and wakes blocked appenders.
    fn trim(&self) {
        let min = self.min_applied();
        let mut state = self.inner.lock();
        while state.queue.front().is_some_and(|f| f.seq < min) {
            state.queue.pop_front();
        }
        drop(state);
        self.space.notify_all();
    }

    /// Stops the shipper threads and joins them. Appends after this point
    /// still enqueue (promotion replays the queue), but nothing ships.
    pub fn stop(&self) {
        {
            // Flip the flag under the log mutex so a shipper between its
            // stop-check and its wait cannot miss the wakeup.
            let _state = self.inner.lock();
            self.stopping.store(true, Ordering::Release);
        }
        self.work.notify_all();
        self.space.notify_all();
        let workers = std::mem::take(&mut *self.workers.lock());
        for worker in workers {
            let _ = worker.join();
        }
    }

    /// The backup with the most applied records (the freshest), or `None`
    /// if the set has no backups.
    fn freshest(&self) -> Option<&Arc<BackupLink>> {
        self.backups
            .iter()
            .max_by_key(|b| b.applied.load(Ordering::Acquire))
    }

    /// Promotes the freshest backup: replays the retained, unapplied log
    /// tail into it (and, best-effort, into every other backup), returning
    /// the fully caught-up controller. Must be called after
    /// [`ReplicaSet::stop`]; fails only if the chosen backup's own store
    /// cannot apply the tail.
    pub fn promote(&self) -> Result<Promotion, PesosError> {
        assert!(
            self.stopping.load(Ordering::Acquire),
            "promote requires a stopped replica set"
        );
        let chosen = self
            .freshest()
            .ok_or_else(|| PesosError::Unavailable("partition has no backup".to_string()))?;
        // Snapshot the retained tail and release the log mutex before
        // replaying: the log mutex (rank REPLICATION_LOG) sits *above* the
        // stores' key locks in the workspace lock hierarchy, so holding it
        // across apply_frame (which takes the backup store's key locks)
        // would invert the order. The set is stopped and the caller holds
        // the ops-gate write side, so the queue cannot change under us.
        let snapshot: Vec<QueuedFrame> = {
            let state = self.inner.lock();
            state
                .queue
                .iter()
                .map(|f| QueuedFrame {
                    seq: f.seq,
                    frame: Arc::clone(&f.frame),
                })
                .collect()
        };
        let mut replayed = 0u64;
        let mut survivors = Vec::new();
        for link in &self.backups {
            let is_chosen = Arc::ptr_eq(link, chosen);
            let applied = link.applied.load(Ordering::Acquire);
            let tail: Vec<&QueuedFrame> = snapshot.iter().filter(|f| f.seq >= applied).collect();
            let mut caught_up = true;
            for frame in tail {
                match Self::apply_frame(&self.key, &link.controller, &frame.frame) {
                    Ok(()) => {
                        link.applied.store(frame.seq + 1, Ordering::Release);
                        if is_chosen {
                            replayed += 1;
                        }
                    }
                    Err(e) if is_chosen => {
                        return Err(PesosError::Unavailable(format!(
                            "promotion replay failed at record {}: {e}",
                            frame.seq
                        )));
                    }
                    Err(_) => {
                        caught_up = false;
                        break;
                    }
                }
            }
            if caught_up && !is_chosen {
                survivors.push(Arc::clone(&link.controller));
            }
        }
        Ok(Promotion {
            promoted: Arc::clone(&chosen.controller),
            replayed,
            survivors,
        })
    }
}

impl Drop for ReplicaSet {
    fn drop(&mut self) {
        // Shippers hold an Arc to the set, so by the time Drop runs they
        // have already exited (stop() joined them, or spawn never ran).
        // This is a backstop for sets stopped without promotion.
        self.stopping.store(true, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pesos_core::ControllerConfig;
    use pesos_kinetic::FaultPlan;

    fn controller() -> Arc<PesosController> {
        Arc::new(PesosController::new(ControllerConfig::native_simulator(1)).unwrap())
    }

    #[test]
    fn records_round_trip_through_the_vectored_frame_encode() {
        let key = HmacKey::new(b"log-secret");
        let value: Payload = b"the acknowledged value".to_vec().into();
        // An import of a history long enough to have sealed segments: the
        // record carries the head and every segment.
        let source = controller();
        for v in 0..20u8 {
            source.store().put_object("acct/h", &[v], None).unwrap();
        }
        let export = source.store().export_object("acct/h").unwrap().unwrap();
        assert_eq!(export.meta.versions.segments().count(), 2);
        let records = vec![
            LogRecord::Import(Box::new(export)),
            LogRecord::Put {
                key: "acct/a".into(),
                value: value.clone(),
                policy_id: Some(PolicyId([7u8; 32])),
                version: Some(3),
            },
            LogRecord::Put {
                key: "acct/b".into(),
                value: value.clone(),
                policy_id: None,
                version: None,
            },
            LogRecord::Delete {
                key: "acct/gone".into(),
            },
            LogRecord::AttachPolicy {
                key: "acct/a".into(),
                policy_id: PolicyId([9u8; 32]),
            },
            LogRecord::TxOutcome {
                tx_id: 42,
                outcome: TxOutcome {
                    write_versions: vec![1, 2],
                    read_values: vec![b"r0".to_vec(), b"".to_vec()],
                },
            },
        ];
        for (i, record) in records.into_iter().enumerate() {
            let frame = Envelope::seal_vectored(
                REPLICATION_IDENTITY,
                &key,
                record.clone().into_command(i as u64),
            );
            assert!(frame.verified_by(&key));
            assert!(!frame.verified_by(&HmacKey::new(b"wrong")));
            assert_eq!(frame.command().sequence, i as u64);
            let decoded = LogRecord::from_command(frame.command()).unwrap();
            match (record, decoded) {
                (
                    LogRecord::Put {
                        key: k1,
                        value: v1,
                        policy_id: p1,
                        version: s1,
                    },
                    LogRecord::Put {
                        key: k2,
                        value: v2,
                        policy_id: p2,
                        version: s2,
                    },
                ) => {
                    assert_eq!(k1, k2);
                    assert_eq!(v1, v2);
                    assert_eq!(p1, p2);
                    assert_eq!(s1, s2);
                }
                (LogRecord::Delete { key: k1 }, LogRecord::Delete { key: k2 }) => {
                    assert_eq!(k1, k2)
                }
                (
                    LogRecord::AttachPolicy {
                        key: k1,
                        policy_id: p1,
                    },
                    LogRecord::AttachPolicy {
                        key: k2,
                        policy_id: p2,
                    },
                ) => {
                    assert_eq!(k1, k2);
                    assert_eq!(p1, p2);
                }
                (
                    LogRecord::TxOutcome {
                        tx_id: t1,
                        outcome: o1,
                    },
                    LogRecord::TxOutcome {
                        tx_id: t2,
                        outcome: o2,
                    },
                ) => {
                    assert_eq!(t1, t2);
                    assert_eq!(o1.write_versions, o2.write_versions);
                    assert_eq!(o1.read_values, o2.read_values);
                }
                (LogRecord::Import(e1), LogRecord::Import(e2)) => {
                    assert_eq!(e1.meta, e2.meta);
                    assert_eq!(e1.versions, e2.versions);
                }
                (a, b) => panic!("kind mismatch: {a:?} vs {b:?}"),
            }
        }
    }

    /// The drive-side names any record of `key` up to `max_version` can
    /// live under.
    fn candidate_entries(key: &str, max_version: u64) -> Vec<Vec<u8>> {
        let mut raw = vec![format!("m/{key}").into_bytes()];
        for v in 0..=max_version {
            raw.push(format!("o/{key}/{v:020}").into_bytes());
            raw.push(format!("h/{key}/{v:020}").into_bytes());
        }
        raw
    }

    /// Asserts the two controllers hold the same metadata map and, drive
    /// by drive, byte-identical entries and nothing else.
    fn assert_identical_state(a: &PesosController, b: &PesosController, max_version: u64) {
        let mut keys = a.store().resident_keys();
        let mut other = b.store().resident_keys();
        keys.sort();
        other.sort();
        assert_eq!(keys, other);
        for key in &keys {
            assert_eq!(
                a.store().get_metadata(key.as_str()),
                b.store().get_metadata(key.as_str())
            );
        }
        for (da, db) in a.store().drives().iter().zip(b.store().drives().iter()) {
            let mut present = 0;
            for key in &keys {
                for raw in candidate_entries(key, max_version) {
                    let entry = da.peek(&raw);
                    assert_eq!(entry, db.peek(&raw), "{}", String::from_utf8_lossy(&raw));
                    present += usize::from(entry.is_some());
                }
            }
            assert_eq!((present, present), (da.key_count(), db.key_count()));
        }
    }

    /// A backup its shipper feeds in batches ends exactly where one fed
    /// the same records one call at a time ends, while both backups' drives
    /// drop a quarter of their requests: a record that fails is retried
    /// until it lands, and one that half landed applies again as a no-op.
    /// The log mixes puts with a delete, a version-less put, a key written
    /// twenty times in a row, and creates of keys the drives hold but the
    /// map forgot, which the drives refuse.
    #[test]
    fn a_shipper_under_faults_leaves_a_backup_as_direct_applies_do() {
        const ROUNDS: u64 = 12;
        let config = ControllerConfig::native_simulator(2);
        let shipped = Arc::new(PesosController::new(config.clone()).unwrap());
        let direct = Arc::new(PesosController::new(config).unwrap());
        for backup in [&shipped, &direct] {
            let store = backup.store();
            for c in 0..4 {
                store
                    .put_object(format!("cold{c}").as_str(), b"old", None)
                    .unwrap();
            }
            // Forget them: the delete fails with the drives offline, and
            // the map drops the keys while the drives keep them.
            store.drives().iter().for_each(|d| d.set_online(false));
            for c in 0..4 {
                assert!(store.delete_object(format!("cold{c}").as_str()).is_err());
            }
            store.drives().iter().for_each(|d| d.set_online(true));
            assert_eq!(store.resident_object_count(), 0);
        }

        let put = |key: &str, version: Option<u64>| LogRecord::Put {
            key: key.into(),
            value: format!("{key}@{version:?}").into_bytes().into(),
            policy_id: None,
            version,
        };
        let mut log = Vec::new();
        for round in 0..ROUNDS {
            for k in 0..40 {
                log.push(put(&format!("k{k}"), Some(round)));
            }
            match round {
                0 => (0..4).for_each(|c| log.push(put(&format!("cold{c}"), Some(0)))),
                1 => (0..4).for_each(|c| log.push(put(&format!("cold{c}"), Some(1)))),
                3 => log.push(LogRecord::Delete { key: "k5".into() }),
                5 => log.push(put("k7", None)),
                6 => (0..20).for_each(|v| log.push(put("hot", Some(v)))),
                _ => {}
            }
        }

        for (seed, backup) in [(10, &shipped), (20, &direct)] {
            for (i, drive) in (0..).zip(backup.store().drives().iter()) {
                drive.inject_faults(FaultPlan::errors(seed + i, 0.25));
            }
        }
        let set = ReplicaSet::spawn(b"s", vec![Arc::clone(&shipped)], 4096);
        for record in &log {
            set.append(record.clone());
        }
        for record in &log {
            while record.clone().apply(&direct).is_err() {}
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(60);
        while set.min_applied() < log.len() as u64 {
            assert!(std::time::Instant::now() < deadline, "shipper stalled");
            std::thread::sleep(Duration::from_millis(5));
        }
        set.stop();
        let faults = |backup: &PesosController| -> u64 {
            backup
                .store()
                .drives()
                .iter()
                .map(|d| d.fault_counts().dropped)
                .sum()
        };
        assert!(faults(&shipped) > 0 && faults(&direct) > 0);
        for backup in [&shipped, &direct] {
            backup
                .store()
                .drives()
                .iter()
                .for_each(|d| d.clear_faults());
            assert!(backup.store().create_stats().refusals >= 4);
        }
        assert_identical_state(&shipped, &direct, 20);
    }

    #[test]
    fn put_payload_ships_by_reference_not_copy() {
        // The value chunk inside the sealed frame is the same allocation
        // the record carried — the PR 4 scatter-gather promise, now doing
        // log-shipping duty.
        let key = HmacKey::new(b"log-secret");
        let value: Payload = vec![5u8; 4096].into();
        let record = LogRecord::Put {
            key: "big".into(),
            value: value.clone(),
            policy_id: None,
            version: Some(0),
        };
        let frame = Envelope::seal_vectored(REPLICATION_IDENTITY, &key, record.into_command(0));
        assert!(Arc::ptr_eq(
            frame.command().body.value.as_arc(),
            value.as_arc()
        ));
    }

    #[test]
    fn shipping_applies_in_order_and_trims() {
        let backup = controller();
        let set = ReplicaSet::spawn(b"s", vec![Arc::clone(&backup)], 1024);
        for i in 0..20u64 {
            set.append(LogRecord::Put {
                key: "seq/k".into(),
                value: format!("v{i}").into_bytes().into(),
                policy_id: None,
                version: Some(i),
            });
        }
        // Wait for the shipper to drain.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while set.min_applied() < 20 {
            assert!(std::time::Instant::now() < deadline, "shipper stalled");
            std::thread::sleep(Duration::from_millis(5));
        }
        let (value, version) = backup.store().get_object("seq/k").unwrap();
        assert_eq!(version, 19);
        assert_eq!(&**value, b"v19");
        assert_eq!(
            backup.store().get_object_version("seq/k", 0).unwrap(),
            b"v0"
        );
        set.stop();
    }

    #[test]
    fn backpressure_blocks_appends_until_the_backup_catches_up() {
        let backup = controller();
        // Take the backup's drive offline so nothing applies.
        backup.store().drives().get(0).unwrap().set_online(false);
        let set = ReplicaSet::spawn(b"s", vec![Arc::clone(&backup)], 4);
        for i in 0..4u64 {
            set.append(LogRecord::Put {
                key: "bp/k".into(),
                value: b"v".to_vec().into(),
                policy_id: None,
                version: Some(i),
            });
        }
        // The lag bound is hit: the next append must block until the
        // backup applies (we bring the drive back from another thread).
        let set2 = Arc::clone(&set);
        let unblocker = std::thread::spawn({
            let backup = Arc::clone(&backup);
            move || {
                std::thread::sleep(Duration::from_millis(150));
                backup.store().drives().get(0).unwrap().set_online(true);
            }
        });
        let start = std::time::Instant::now();
        set2.append(LogRecord::Put {
            key: "bp/k".into(),
            value: b"v".to_vec().into(),
            policy_id: None,
            version: Some(4),
        });
        assert!(
            start.elapsed() >= Duration::from_millis(100),
            "append should have blocked on backpressure"
        );
        unblocker.join().unwrap();
        set.stop();
    }

    #[test]
    fn promote_replays_the_unapplied_tail() {
        let backup = controller();
        // Offline drive: records queue but never apply.
        backup.store().drives().get(0).unwrap().set_online(false);
        let set = ReplicaSet::spawn(b"s", vec![Arc::clone(&backup)], 1024);
        for i in 0..10u64 {
            set.append(LogRecord::Put {
                key: "tail/k".into(),
                value: format!("v{i}").into_bytes().into(),
                policy_id: None,
                version: Some(i),
            });
        }
        set.stop();
        // The crash is over for the backup's drives; promotion replays
        // everything the shipper never delivered.
        backup.store().drives().get(0).unwrap().set_online(true);
        let promotion = set.promote().unwrap();
        assert!(Arc::ptr_eq(&promotion.promoted, &backup));
        assert!(promotion.replayed >= 1);
        let (value, version) = backup.store().get_object("tail/k").unwrap();
        assert_eq!(version, 9);
        assert_eq!(&**value, b"v9");
    }

    #[test]
    fn promote_picks_the_freshest_backup() {
        let fresh = controller();
        let stale = controller();
        // The stale backup cannot apply anything.
        stale.store().drives().get(0).unwrap().set_online(false);
        let set = ReplicaSet::spawn(b"s", vec![Arc::clone(&stale), Arc::clone(&fresh)], 1024);
        for i in 0..8u64 {
            set.append(LogRecord::Put {
                key: "pick/k".into(),
                value: b"v".to_vec().into(),
                policy_id: None,
                version: Some(i),
            });
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while set.backups[1].applied.load(Ordering::Acquire) < 8 {
            assert!(std::time::Instant::now() < deadline, "fresh backup stalled");
            std::thread::sleep(Duration::from_millis(5));
        }
        set.stop();
        let promotion = set.promote().unwrap();
        assert!(Arc::ptr_eq(&promotion.promoted, &fresh));
        assert_eq!(promotion.replayed, 0);
        // The stale backup could not catch up, so it is not a survivor.
        assert!(promotion.survivors.is_empty());
    }
}
