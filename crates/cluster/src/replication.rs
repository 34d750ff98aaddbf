//! Primary/backup partition replication: per-partition logs of drive
//! batches shipped to backup stores over the vectored frame encode.
//!
//! Every partition primary owns a [`ReplicaSet`], carried in the
//! partition's routing-table entry ([`crate::router::Partition::log`]): an
//! ordered log of what the primary acknowledged, shipped to one or more
//! backup stores by dedicated shipper threads. A backup is a bare
//! [`PesosStore`] — enclave, drives and its share of the host pool, no
//! sessions or result buffer — until a promotion builds the
//! controller that serves the partition over it. Everything the
//! primary's store writes is already sealed and authenticated when it
//! reaches a drive, so the log carries the drive batches themselves: the
//! primary's store appends each batch every replica accepted
//! ([`pesos_core::BatchLog`]) — its puts, deletes, policy installs and
//! attaches, migration imports — and a backup's store writes it again,
//! forced, to its own drives ([`pesos_core::PesosStore::apply_run`]).
//! The cluster appends the one thing no drive holds: the outcome of a
//! committed cluster transaction. The design invariants:
//!
//! * **Acked ⇒ logged.** A batch is appended under its key's write lock,
//!   before the write it belongs to returns (an async put's: before its
//!   completion is filed for the poll), so the log (retained tail + backup
//!   state) always covers every acknowledged write. Failover replays the
//!   retained tail, which is why a promotion loses nothing.
//! * **Log order = seal order.** Records are sealed into vectored frames
//!   under the log mutex, so a frame's sequence number is its total order;
//!   backups apply strictly in that order. Appends under the key lock make
//!   each key's log order its write order, so a record needs no version:
//!   a backup's drives pass through exactly the states its primary's did,
//!   and re-applying a forced batch (a replayed tail) writes the same bytes
//!   again.
//! * **Bounded lag.** The retained tail is capped: when the slowest backup
//!   falls more than `max_lag` records behind, appenders block — explicit
//!   backpressure instead of unbounded memory growth. The wait is itself
//!   bounded in time ([`APPEND_STALL_CAP`]) so a dead backup degrades to an
//!   unbounded tail rather than wedging the write path (and with it the
//!   ops gate a failover needs).
//! * **Shippers are threads, not pool calls.** An append blocked on that
//!   backpressure waits for a shipper. Run as a host-pool call, the
//!   shipper could sit queued behind the very put and drain bodies that
//!   wait for it, which breaks the pool's rule that a body never waits on
//!   a queued call of its own pool (`pesos_sgx::asyscall`, "One host
//!   pool"). So each backup keeps one shipper thread of its own; the
//!   backup's drive I/O still runs on the pool.
//! * **Frames, not calls.** A batch record travels as an authenticated
//!   [`VectoredEnvelope`] frame holding a Kinetic `Batch` command: its
//!   sub-operations are the list the primary's drives received (shared by
//!   reference count, sealed payloads included), sealed with one streaming
//!   frame HMAC and checked with the folded one-compression verification —
//!   the identical encode/verify path the kinetic wire layer uses, so
//!   shipping a record costs one seal and no payload copies. A backup
//!   store seals, hashes content and decides nothing, and keeps no
//!   metadata map: a promoted backup starts as a cold store over drives
//!   equal to its primary's. A frame is a record, not a drive call: the
//!   backup writes a wake-up's records a run at a time (next point).
//! * **Batched wake-ups.** A shipper wakes once [`SHIP_BATCH`] records have
//!   queued for its backup, or once the first of fewer has waited
//!   [`SHIP_LINGER`]; an append wakes the shippers only at those two
//!   moments. Woken once per record, a shipper's backup submitted its I/O
//!   in bursts too sparse to keep the host pool's service thread hot, and
//!   each hand-off paid a cross-core wake-up.
//! * **One run per wake-up, progress per landed batch.** A shipper
//!   verifies every frame of its wake-up and hands the batch records, in
//!   log order, to one [`PesosStore::apply_run`]: one joined submission,
//!   one lane per backup drive, each lane's records packed into forced
//!   Kinetic batches of whole records up to `MAX_BATCH_OPS` (15)
//!   sub-operations. Outcome records touch no drive, so they do not split
//!   the run; each is filed once every batch record before it has landed.
//!   A drive that fails stops its own lane only, and `applied` advances
//!   over exactly the prefix of records that landed on every replica; the
//!   rest is retried, with whatever queued behind it, after
//!   [`APPLY_RETRY`]. A record written again over a drive it had reached
//!   writes the same bytes, so the retry ends where one clean pass would.
//!   Making a run all-or-nothing instead never converged under drives
//!   that drop a quarter of their requests. Record by record, a
//!   `cluster_repl_1k` set-up cost 0.85 backup calls (nearly all enclave
//!   exits) and 0.85 backup drive batches per applied record; a run at a
//!   time costs 0.03 calls and 0.14 drive batches, and the set-up takes
//!   14 % less time (median of 12 alternated pairs on a shared 2-vCPU
//!   host).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};
use pesos_core::{BatchLog, PesosError, PesosStore, TxOutcome};
use pesos_crypto::hmac::HmacKey;
use pesos_kinetic::{BatchOp, Command, Envelope, MessageType, VectoredEnvelope};
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

/// One replicated record, as carried by the log.
#[derive(Debug, Clone)]
pub enum LogRecord {
    /// A drive batch every replica of the primary accepted, as its store
    /// built it: the backup writes the same sub-operations, forced, to the
    /// replicas of the same placement key.
    Batch {
        /// The key whose placement picked the batch's drives (an object
        /// key, or a policy id's hex).
        key: String,
        /// The sub-operations, shared with the primary's drive commands.
        ops: Arc<[BatchOp]>,
    },
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

impl LogRecord {
    /// Encodes the record as a kinetic command carrying the log sequence
    /// number in `sequence`: a batch as a `Batch` command over the shared
    /// sub-operation list, an outcome as a `Put` whose key is the
    /// transaction id and whose value lists the outcome's fields. The
    /// command is then sealed with [`Envelope::seal_vectored`] — the wire
    /// layer's scatter-gather encode — so no payload is copied into a
    /// contiguous frame.
    fn into_command(self, seq: u64) -> Command {
        let mut cmd = match self {
            LogRecord::Batch { key, ops } => {
                let mut cmd = Command::request(MessageType::Batch);
                cmd.body.key = key.into_bytes();
                cmd.body.batch = ops;
                cmd
            }
            LogRecord::TxOutcome { tx_id, outcome } => {
                let mut body = FieldWriter::new();
                for v in &outcome.write_versions {
                    body.uint64(1, *v);
                }
                for r in &outcome.read_values {
                    body.bytes(2, r);
                }
                let mut cmd = Command::request(MessageType::Put);
                cmd.body.key = tx_id.to_be_bytes().to_vec();
                cmd.body.value = body.finish().into();
                cmd
            }
        };
        cmd.sequence = seq;
        cmd
    }
}

/// A verified frame's record, borrowed from the frame where it can be.
enum Opened<'f> {
    /// A drive batch: its placement key and sub-operations.
    Batch(&'f str, &'f [BatchOp]),
    /// A transaction outcome to file.
    Outcome(u64, TxOutcome),
}

/// The batches `store`'s drives' engines have served: a batch counts once,
/// under `puts` if it writes anything, else under `deletes`.
fn drive_batches(store: &PesosStore) -> u64 {
    let stats = store.drives().iter().map(|d| d.info().stats);
    stats.map(|s| s.puts + s.deletes).sum()
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
    store: Arc<PesosStore>,
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
    /// Each backup's drive batches (shipper order): the batches its drives'
    /// engines served. A backup's store writes nothing but the batches
    /// its runs pack, so this is the drive round trips its applies cost.
    pub backup_drive_batches: Vec<u64>,
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

/// The outcome of promoting a backup out of a replica set.
pub struct Promotion {
    /// The backup store now serving the partition, with the full log
    /// applied.
    pub promoted: Arc<PesosStore>,
    /// How many retained records were replayed into it during promotion.
    pub replayed: u64,
    /// Remaining backups that were also brought fully up to date; they
    /// re-seed the promoted partition's next replica set. A backup whose
    /// replay failed (its own store is faulting) is dropped.
    pub survivors: Vec<Arc<PesosStore>>,
}

impl std::fmt::Debug for Promotion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Promotion")
            .field("replayed", &self.replayed)
            .field("survivors", &self.survivors.len())
            .finish_non_exhaustive()
    }
}

/// A partition's replication state: the retained log, its backups, and
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
    pub fn spawn(secret: &[u8], backups: Vec<Arc<PesosStore>>, max_lag: u64) -> Arc<ReplicaSet> {
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
                .map(|store| {
                    Arc::new(BackupLink {
                        store,
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
                .map(|b| b.store.asyscall_stats())
                .collect(),
            backup_drive_batches: self
                .backups
                .iter()
                .map(|b| drive_batches(&b.store))
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
        let mut stalled_since = None;
        // Block when *this* append would push the slowest backup more than
        // `max_lag` records behind (so the retained tail never exceeds the
        // bound through the front door). Every shipped batch notifies
        // `space`, so the cap is measured in time, not in wake-ups: a slow
        // but live backup must not let an appender through early.
        while !self.stopping.load(Ordering::Acquire)
            && state.next_seq.saturating_sub(self.min_applied()) >= self.max_lag
        {
            let since = *stalled_since.get_or_insert_with(Instant::now);
            let Some(left) = APPEND_STALL_CAP.checked_sub(since.elapsed()) else {
                break;
            };
            self.space.wait_for(&mut state, left);
        }
        if stalled_since.is_some() {
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

    /// Verifies one frame and decodes the record it carries.
    fn open_frame<'f>(
        key: &HmacKey,
        frame: &'f VectoredEnvelope,
    ) -> Result<Opened<'f>, PesosError> {
        if !frame.verified_by(key) {
            return Err(PesosError::Backend(
                "replication frame failed authentication".to_string(),
            ));
        }
        let corrupt = |m: &str| PesosError::Backend(format!("corrupt replication record: {m}"));
        let cmd = frame.command();
        match cmd.message_type {
            MessageType::Batch => {
                let key = std::str::from_utf8(&cmd.body.key);
                let key = key.map_err(|_| corrupt("key not UTF-8"))?;
                Ok(Opened::Batch(key, &cmd.body.batch))
            }
            MessageType::Put => {
                let tx_id = cmd.body.key.as_slice().try_into().map(u64::from_be_bytes);
                let tx_id = tx_id.map_err(|_| corrupt("transaction id not 8 bytes"))?;
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
                Ok(Opened::Outcome(tx_id, outcome))
            }
            other => Err(corrupt(&format!("unexpected command {other:?}"))),
        }
    }

    /// Applies `frames` to one backup in log order (module docs, "One run
    /// per wake-up"): verifies each, writes the batch records of the
    /// verified prefix as one [`PesosStore::apply_run`], and files each
    /// outcome no unlanded batch precedes. Returns how many frames, from
    /// the front, are applied, and the error that stopped the next one if
    /// not all are.
    fn apply_frames(
        key: &HmacKey,
        backup: &PesosStore,
        frames: &[Arc<VectoredEnvelope>],
    ) -> (usize, Option<PesosError>) {
        let mut records = Vec::with_capacity(frames.len());
        let mut stop = None;
        for frame in frames {
            match Self::open_frame(key, frame) {
                Ok(record) => records.push(record),
                Err(e) => {
                    stop = Some(e);
                    break;
                }
            }
        }
        let run: Vec<(&str, &[BatchOp])> = records
            .iter()
            .filter_map(|record| match record {
                Opened::Batch(key, ops) => Some((*key, *ops)),
                Opened::Outcome(..) => None,
            })
            .collect();
        let mut applied = records.len();
        if let Err((landed, e)) = backup.apply_run(&run) {
            // The record of the first batch that did not land.
            applied = (records.iter().enumerate())
                .filter(|(_, record)| matches!(record, Opened::Batch(..)))
                .nth(landed)
                .map_or(0, |(index, _)| index);
            stop = Some(e);
        }
        for record in records.into_iter().take(applied) {
            if let Opened::Outcome(tx_id, outcome) = record {
                backup.record_tx_outcome(tx_id, outcome);
            }
        }
        (applied, stop)
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
        while let Some(frames) = self.next_batch(link) {
            let (applied, stopped) = Self::apply_frames(&self.key, &link.store, &frames);
            link.applied.fetch_add(applied as u64, Ordering::AcqRel);
            self.trim();
            // What did not land (the backup's own drives may fault) is
            // retried until it does or the set stops: dropping a record
            // would silently fork the backup from the log.
            if stopped.is_some() {
                if self.stopping.load(Ordering::Acquire) {
                    return;
                }
                std::thread::sleep(APPLY_RETRY);
            }
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

    /// Promotes the freshest backup: stops the set ([`ReplicaSet::stop`]),
    /// then replays the retained, unapplied log tail into it (and,
    /// best-effort, into every other backup), returning the fully
    /// caught-up store. Fails only if the chosen backup's store cannot
    /// apply the tail.
    pub fn promote(&self) -> Result<Promotion, PesosError> {
        self.stop();
        let chosen = self
            .freshest()
            .ok_or_else(|| PesosError::Unavailable("partition has no backup".to_string()))?;
        // Snapshot the retained tail and release the log mutex before
        // replaying: the log mutex (rank REPLICATION_LOG) sits *above* the
        // stores' sharded maps in the workspace lock hierarchy, so holding
        // it across apply_frames (which files outcomes into the backup
        // store's map, besides writing its drives) would invert the order.
        // The set is stopped, so no shipper moves a backup's applied count; a record appended after the snapshot
        // is the caller's to keep out (the cluster holds the ops gate's
        // write side).
        let (first, snapshot): (u64, Vec<Arc<VectoredEnvelope>>) = {
            let state = self.inner.lock();
            let first = state.queue.front().map_or(state.next_seq, |f| f.seq);
            (
                first,
                state.queue.iter().map(|f| Arc::clone(&f.frame)).collect(),
            )
        };
        let mut replayed = 0u64;
        let mut survivors = Vec::new();
        for link in &self.backups {
            let is_chosen = Arc::ptr_eq(link, chosen);
            // The queue holds consecutive sequence numbers from `first`.
            let applied = link.applied.load(Ordering::Acquire);
            let start = usize::try_from(applied.saturating_sub(first)).unwrap_or(usize::MAX);
            let tail = snapshot.get(start..).unwrap_or_default();
            let mut caught_up = true;
            // The tail replays in runs the size a shipper's wake-up takes.
            for run in tail.chunks(SHIP_BATCH) {
                let (done, stopped) = Self::apply_frames(&self.key, &link.store, run);
                let done = done as u64;
                let applied = link.applied.fetch_add(done, Ordering::AcqRel) + done;
                if is_chosen {
                    replayed += done;
                }
                match stopped {
                    None => {}
                    Some(e) if is_chosen => {
                        return Err(PesosError::Unavailable(format!(
                            "promotion replay failed at record {applied}: {e}"
                        )));
                    }
                    Some(_) => {
                        caught_up = false;
                        break;
                    }
                }
            }
            if caught_up && !is_chosen {
                survivors.push(Arc::clone(&link.store));
            }
        }
        Ok(Promotion {
            promoted: Arc::clone(&chosen.store),
            replayed,
            survivors,
        })
    }
}

impl BatchLog for ReplicaSet {
    fn append(&self, placement_key: &str, ops: &Arc<[BatchOp]>) {
        let (key, ops) = (placement_key.to_string(), Arc::clone(ops));
        ReplicaSet::append(self, LogRecord::Batch { key, ops });
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
impl ReplicaSet {
    /// Waits until every backup applied every record, then asserts each
    /// holds `primary`'s drives byte for byte.
    pub(crate) fn assert_backups_equal(&self, primary: &PesosStore) {
        let deadline = Instant::now() + Duration::from_secs(60);
        while self.stats().max_lag() > 0 {
            assert!(Instant::now() < deadline, "a backup stalled");
            std::thread::sleep(Duration::from_millis(5));
        }
        for link in &self.backups {
            assert_same_drives(primary, &link.store);
        }
    }
}

/// Asserts that `a` and `b` hold, drive by drive, the same backend keys
/// (listed with a paginated `GetKeyRange`) with byte-identical entries.
#[cfg(test)]
fn assert_same_drives(a: &PesosStore, b: &PesosStore) {
    let drives = a.drives().len();
    assert_eq!(drives, b.drives().len());
    let names = |keys: &[Vec<u8>]| -> Vec<String> {
        keys.iter()
            .map(|k| String::from_utf8_lossy(k).into_owned())
            .collect()
    };
    for index in 0..drives {
        let keys = a.drive_keys(index).unwrap();
        let other = b.drive_keys(index).unwrap();
        assert_eq!(names(&keys), names(&other), "drive {index}");
        let (da, db) = (
            a.drives().get(index).unwrap(),
            b.drives().get(index).unwrap(),
        );
        for key in &keys {
            assert_eq!(
                da.peek(key),
                db.peek(key),
                "drive {index}: {}",
                String::from_utf8_lossy(key)
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pesos_core::ControllerConfig;
    use pesos_kinetic::{FaultPlan, Payload, MAX_BATCH_OPS};
    use pesos_sgx::HostPool;

    /// A store bootstrapped from `config` on a host pool of its own.
    fn store_of(config: &ControllerConfig) -> Arc<PesosStore> {
        let pool = HostPool::new(config.syscall_slots());
        Arc::new(pesos_core::bootstrap::bootstrap(config, &pool).unwrap())
    }

    fn store() -> Arc<PesosStore> {
        store_of(&ControllerConfig::native_simulator(1))
    }

    /// A store that appends to `set`, as a partition primary's does.
    fn primary_of(set: &Arc<ReplicaSet>) -> Arc<PesosStore> {
        let primary = store();
        primary.attach_log(set);
        primary
    }

    /// A one-put batch record of a raw drive key.
    fn batch(key: &str, value: &[u8]) -> LogRecord {
        LogRecord::Batch {
            key: key.into(),
            ops: [BatchOp::put_forced(key.into(), value.to_vec(), b"pesos")].into(),
        }
    }

    /// Waits until `done` holds, polling; fails after a minute.
    fn wait_until(done: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(60);
        while !done() {
            assert!(Instant::now() < deadline, "shipper stalled");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Waits until every backup of `set` applied `records`.
    fn wait_applied(set: &ReplicaSet, records: u64) {
        wait_until(|| set.min_applied() >= records);
    }

    #[test]
    fn records_round_trip_through_the_vectored_frame_encode() {
        let key = HmacKey::new(b"log-secret");
        let ops: Arc<[BatchOp]> = [
            BatchOp::put_if_absent(b"o/acct/a/0".to_vec(), b"sealed".to_vec(), b"pesos"),
            BatchOp::put_forced(b"m/acct/a".to_vec(), b"head".to_vec(), b"pesos"),
            BatchOp::delete_forced(b"o/acct/a/7".to_vec()),
        ]
        .into();
        let outcome = TxOutcome {
            write_versions: vec![1, 2],
            read_values: vec![b"r0".to_vec(), b"".to_vec()],
        };
        let records = [
            LogRecord::Batch {
                key: "acct/a".into(),
                ops,
            },
            LogRecord::TxOutcome {
                tx_id: 42,
                outcome: outcome.clone(),
            },
        ];
        let backup = store();
        for (i, record) in records.into_iter().enumerate() {
            let frame =
                Envelope::seal_vectored(REPLICATION_IDENTITY, &key, record.into_command(i as u64));
            assert!(frame.verified_by(&key));
            assert_eq!(frame.command().sequence, i as u64);
            // The wire bytes carry the same command.
            let opened = Envelope::decode(&frame.encode()).unwrap().open_with(&key);
            assert_eq!(&opened.unwrap(), frame.command());
            let frames = [Arc::new(frame)];
            let wrong = HmacKey::new(b"wrong");
            assert!(matches!(
                ReplicaSet::apply_frames(&wrong, &backup, &frames),
                (0, Some(_))
            ));
            assert!(matches!(
                ReplicaSet::apply_frames(&key, &backup, &frames),
                (1, None)
            ));
        }
        // The batch landed forced, the outcome in the outcome map.
        let drive = backup.drives().get(0).unwrap();
        let value = |k: &[u8]| drive.peek(k).map(|e| e.value.to_vec());
        assert_eq!(value(b"o/acct/a/0"), Some(b"sealed".to_vec()));
        assert_eq!(value(b"m/acct/a"), Some(b"head".to_vec()));
        assert_eq!(backup.tx_outcome(42), Some(outcome));
    }

    /// Forwards every batch to the log and keeps a copy of it.
    struct Tee {
        log: Arc<ReplicaSet>,
        batches: std::sync::Mutex<Vec<(String, Arc<[BatchOp]>)>>,
    }

    impl BatchLog for Tee {
        fn append(&self, placement_key: &str, ops: &Arc<[BatchOp]>) {
            let batch = (placement_key.to_string(), Arc::clone(ops));
            self.batches.lock().unwrap().push(batch);
            BatchLog::append(&*self.log, placement_key, ops);
        }
    }

    /// A backup its shipper feeds in batches ends exactly where one fed
    /// the same records one call at a time ends — and where the primary
    /// that wrote them ends — while both backups' drives drop a quarter of
    /// their requests: a record that fails is retried until it lands, and
    /// one that half landed applies again as a no-op. The primary's history
    /// mixes creates and updates, a delete, a key written long enough to
    /// seal and trim segments, a policy install and attach, and creates of
    /// keys its drives hold but its map forgot, which the drives refuse:
    /// the refused attempt and its rollback are never logged, and the
    /// backups refuse nothing.
    #[test]
    fn a_shipper_under_faults_leaves_a_backup_as_direct_applies_do() {
        let config = ControllerConfig::native_simulator(2);
        let [primary, shipped, direct] = [(); 3].map(|()| store_of(&config));
        let set = ReplicaSet::spawn(b"s", vec![Arc::clone(&shipped)], 4096);
        let tee = Arc::new(Tee {
            log: Arc::clone(&set),
            batches: std::sync::Mutex::new(Vec::new()),
        });
        for (seed, backup) in [(10, &shipped), (20, &direct)] {
            for (i, drive) in (0..).zip(backup.drives().iter()) {
                drive.inject_faults(FaultPlan::errors(seed + i, 0.25));
            }
        }
        let store = &primary;
        store.attach_log(&tee);
        for c in 0..4 {
            store
                .put_object(format!("cold{c}").as_str(), b"old", None)
                .unwrap();
        }
        // Forget the keys: the delete fails with the drives offline, and
        // the map drops them while the drives keep them.
        store.drives().iter().for_each(|d| d.set_online(false));
        for c in 0..4 {
            assert!(store.delete_object(format!("cold{c}").as_str()).is_err());
        }
        store.drives().iter().for_each(|d| d.set_online(true));

        let policy = store.put_policy("read :- sessionKeyIs(\"a\")").unwrap();
        for round in 0..12u64 {
            for k in 0..40 {
                let key = format!("k{k}");
                store
                    .put_object(key.as_str(), format!("{key}@{round}").as_bytes(), None)
                    .unwrap();
            }
            match round {
                0 => (0..4).for_each(|c| {
                    let key = format!("cold{c}");
                    assert_eq!(store.put_object(key.as_str(), b"new", None).unwrap(), 1);
                }),
                3 => store.delete_object("k5").unwrap(),
                6 => store.attach_policy("k7", policy).unwrap(),
                7 => (0..150).for_each(|v| {
                    store.put_object("hot", &[v as u8], None).unwrap();
                }),
                _ => {}
            }
        }
        assert_eq!(store.create_stats().refusals, 4);

        let log = std::mem::take(&mut *tee.batches.lock().unwrap());
        for (key, ops) in &log {
            while direct.apply_run(&[(key, ops)]).is_err() {}
        }
        wait_applied(&set, log.len() as u64);
        set.stop();
        let faults = |backup: &PesosStore| -> u64 {
            backup
                .drives()
                .iter()
                .map(|d| d.fault_counts().dropped)
                .sum()
        };
        assert!(faults(&shipped) > 0 && faults(&direct) > 0);
        for backup in [&shipped, &direct] {
            backup.drives().iter().for_each(|d| d.clear_faults());
            assert_eq!(backup.create_stats(), Default::default());
            assert_eq!(backup.resident_object_count(), 0);
        }
        assert_same_drives(&shipped, &direct);
        assert_same_drives(&primary, &shipped);
    }

    /// A backup's calls to the host pool: hand-offs plus exits.
    fn calls(store: &PesosStore) -> u64 {
        let stats = store.asyscall_stats();
        stats.submitted + stats.exits
    }

    /// Records that queued while the backup's only drive was offline apply
    /// as one run once it is back: one joined submission, and one-op
    /// records packed fifteen to a drive batch.
    #[test]
    fn a_wake_up_applies_as_one_submission_of_packed_batches() {
        let backup = store();
        let drive = backup.drives().get(0).unwrap();
        drive.set_online(false);
        let set = ReplicaSet::spawn(b"s", vec![Arc::clone(&backup)], 1024);
        let primary = store();
        for i in 0..SHIP_BATCH {
            let record = batch(&format!("run/k{i}"), &[i as u8]);
            if let LogRecord::Batch { key, ops } = &record {
                primary.apply_run(&[(key, ops)]).unwrap();
            }
            set.append(record);
        }
        // Each failed attempt re-reads the queue, and a shipper holds its
        // attempt's frames until the next: once it holds the last record,
        // every attempt from then on carries the whole backlog.
        wait_until(|| {
            let state = set.inner.lock();
            state
                .queue
                .back()
                .is_some_and(|f| Arc::strong_count(&f.frame) > 1)
        });
        let before = (calls(&backup), set.stats().backup_drive_batches[0]);
        drive.set_online(true);
        wait_applied(&set, SHIP_BATCH as u64);
        let batches = set.stats().backup_drive_batches[0] - before.1;
        assert_eq!(calls(&backup) - before.0, 1);
        let packed = SHIP_BATCH.div_ceil(MAX_BATCH_OPS) as u64;
        assert!((1..=packed).contains(&batches), "{batches} drive batches");
        set.assert_backups_equal(&primary);
        set.stop();
    }

    /// `applied` advances over the records that landed on every replica and
    /// no further: with one drive of a 3-drive, RF-2 backup failing every
    /// request, the shipper stops before the first record placed on it,
    /// and an outcome logged behind that record is not filed. Once the
    /// drive heals, both land.
    #[test]
    fn a_run_advances_over_the_prefix_that_landed_everywhere() {
        let mut config = ControllerConfig::native_simulator(3);
        config.replication_factor = 2;
        let backup = store_of(&config);
        let set = ReplicaSet::spawn(b"s", vec![Arc::clone(&backup)], 1024);
        let primary = store_of(&config);
        primary.attach_log(&set);
        let batches = |s: &PesosStore| -> Vec<u64> {
            let stats = s.drives().iter().map(|d| d.info().stats);
            stats.map(|e| e.puts + e.deletes).collect()
        };
        // The drive the first record skips fails every request from now.
        let before = batches(&primary);
        primary.put_object("p0", b"v", None).unwrap();
        let after = batches(&primary);
        let faulty = (0..3).find(|&d| before[d] == after[d]).unwrap();
        let faulty_drive = backup.drives().get(faulty).unwrap();
        faulty_drive.inject_faults(FaultPlan::errors(7, 1.0));
        // Write until a record lands there, then log an outcome behind it
        // and one more record behind that.
        let mut i = 1;
        let stuck = loop {
            let before = batches(&primary)[faulty];
            primary
                .put_object(format!("p{i}").as_str(), b"v", None)
                .unwrap();
            i += 1;
            if batches(&primary)[faulty] > before {
                break set.appended() - 1;
            }
        };
        assert!(stuck >= 1);
        let outcome = TxOutcome {
            write_versions: vec![0],
            read_values: Vec::new(),
        };
        set.append(LogRecord::TxOutcome {
            tx_id: 9,
            outcome: outcome.clone(),
        });
        primary
            .put_object(format!("p{i}").as_str(), b"v", None)
            .unwrap();

        wait_applied(&set, stuck);
        // Every attempt drops one request on the faulty drive. Three more
        // drops mean an attempt that read the whole log above has ended.
        let dropped = faulty_drive.fault_counts().dropped;
        wait_until(|| faulty_drive.fault_counts().dropped >= dropped + 3);
        assert_eq!(set.stats().applied, [stuck]);
        assert_eq!(backup.tx_outcome(9), None);

        faulty_drive.clear_faults();
        set.assert_backups_equal(&primary);
        assert_eq!(backup.tx_outcome(9), Some(outcome));
        set.stop();
    }

    #[test]
    fn put_payload_ships_by_reference_not_copy() {
        // The sub-operation list and every sealed value inside the frame
        // are the allocations the primary's drives received: the vectored
        // encode copies no payload into a log frame.
        let key = HmacKey::new(b"log-secret");
        let value: Payload = vec![5u8; 4096].into();
        let ops: Arc<[BatchOp]> = [BatchOp::put_forced(
            b"o/big/0".to_vec(),
            value.clone(),
            b"pesos",
        )]
        .into();
        let record = LogRecord::Batch {
            key: "big".into(),
            ops: Arc::clone(&ops),
        };
        let frame = Envelope::seal_vectored(REPLICATION_IDENTITY, &key, record.into_command(0));
        assert!(Arc::ptr_eq(&frame.command().body.batch, &ops));
        match &frame.command().body.batch[0] {
            BatchOp::Put { value: shipped, .. } => {
                assert!(Arc::ptr_eq(shipped.as_arc(), value.as_arc()))
            }
            other => panic!("expected the put, got {other:?}"),
        }
    }

    #[test]
    fn shipping_applies_in_order_and_trims() {
        let backup = store();
        let set = ReplicaSet::spawn(b"s", vec![Arc::clone(&backup)], 1024);
        let primary = primary_of(&set);
        for i in 0..20u64 {
            primary
                .put_object("seq/k", format!("v{i}").as_bytes(), None)
                .unwrap();
        }
        wait_applied(&set, 20);
        // The backup wrote the batches only: a cold read finds the
        // primary's record on its drives.
        assert_eq!(backup.resident_object_count(), 0);
        let (value, version) = backup.get_object("seq/k").unwrap();
        assert_eq!(version, 19);
        assert_eq!(&**value, b"v19");
        assert_eq!(backup.get_object_version("seq/k", 0).unwrap(), b"v0");
        set.stop();
        assert!(set.inner.lock().queue.len() < 20);
    }

    #[test]
    fn backpressure_blocks_appends_until_the_backup_catches_up() {
        let backup = store();
        // Take the backup's drive offline so nothing applies.
        backup.drives().get(0).unwrap().set_online(false);
        let set = ReplicaSet::spawn(b"s", vec![Arc::clone(&backup)], 4);
        for i in 0..4u8 {
            set.append(batch("bp/k", &[i]));
        }
        // The lag bound is hit: the next append must block until the
        // backup applies (we bring the drive back from another thread).
        let unblocker = std::thread::spawn({
            let backup = Arc::clone(&backup);
            move || {
                std::thread::sleep(Duration::from_millis(150));
                backup.drives().get(0).unwrap().set_online(true);
            }
        });
        let start = Instant::now();
        set.append(batch("bp/k", b"v"));
        assert!(
            start.elapsed() >= Duration::from_millis(100),
            "append should have blocked on backpressure"
        );
        unblocker.join().unwrap();
        set.stop();
    }

    /// Every shipped batch notifies the appenders: a backup that is alive
    /// but cannot keep up wakes a blocked append many times, and the stall
    /// cap still runs its full length.
    #[test]
    fn the_append_stall_is_capped_by_time_not_by_wake_ups() {
        let backup = store();
        backup.drives().iter().for_each(|d| d.set_online(false));
        let set = ReplicaSet::spawn(b"s", vec![Arc::clone(&backup)], 1);
        set.append(batch("cap/k", b"v0"));
        let done = Arc::new(AtomicBool::new(false));
        let appender = std::thread::spawn({
            let (set, done) = (Arc::clone(&set), Arc::clone(&done));
            move || {
                let start = Instant::now();
                set.append(batch("cap/k", b"v1"));
                done.store(true, Ordering::Release);
                start.elapsed()
            }
        });
        let start = Instant::now();
        while start.elapsed() < Duration::from_secs(1) {
            set.space.notify_all();
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(
            !done.load(Ordering::Acquire),
            "the append left before the stall cap"
        );
        let waited = appender.join().unwrap();
        assert!(waited >= APPEND_STALL_CAP, "waited {waited:?}");
        assert!(start.elapsed() < APPEND_STALL_CAP + Duration::from_secs(1));
        assert_eq!(set.stats().stalls, 1);
        set.stop();
    }

    #[test]
    fn promote_replays_the_unapplied_tail() {
        let backup = store();
        // Offline drive: records queue but never apply.
        backup.drives().get(0).unwrap().set_online(false);
        let set = ReplicaSet::spawn(b"s", vec![Arc::clone(&backup)], 1024);
        let primary = primary_of(&set);
        for i in 0..10u64 {
            primary
                .put_object("tail/k", format!("v{i}").as_bytes(), None)
                .unwrap();
        }
        set.stop();
        // The crash is over for the backup's drives; promotion replays
        // everything the shipper never delivered.
        backup.drives().get(0).unwrap().set_online(true);
        let promotion = set.promote().unwrap();
        assert!(Arc::ptr_eq(&promotion.promoted, &backup));
        assert!(promotion.replayed >= 1);
        let (value, version) = backup.get_object("tail/k").unwrap();
        assert_eq!(version, 9);
        assert_eq!(&**value, b"v9");
        assert_same_drives(&primary, &backup);
    }

    /// Promotion stops a set that is still shipping itself: whatever the
    /// shipper did not deliver before it was joined is replayed.
    #[test]
    fn promote_stops_a_running_set_and_replays_its_tail() {
        let backup = store();
        backup.drives().get(0).unwrap().set_online(false);
        let set = ReplicaSet::spawn(b"s", vec![Arc::clone(&backup)], 1024);
        let primary = primary_of(&set);
        for i in 0..10u64 {
            primary
                .put_object("running/k", format!("v{i}").as_bytes(), None)
                .unwrap();
        }
        backup.drives().get(0).unwrap().set_online(true);
        let promotion = set.promote().unwrap();
        assert!(Arc::ptr_eq(&promotion.promoted, &backup));
        assert_eq!(set.stats().applied, [10]);
        assert_same_drives(&primary, &backup);
    }

    #[test]
    fn promote_picks_the_freshest_backup() {
        let fresh = store();
        let stale = store();
        // The stale backup cannot apply anything.
        stale.drives().get(0).unwrap().set_online(false);
        let set = ReplicaSet::spawn(b"s", vec![Arc::clone(&stale), Arc::clone(&fresh)], 1024);
        let primary = primary_of(&set);
        for i in 0..8u8 {
            primary.put_object("pick/k", &[i], None).unwrap();
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while set.backups[1].applied.load(Ordering::Acquire) < 8 {
            assert!(Instant::now() < deadline, "fresh backup stalled");
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
