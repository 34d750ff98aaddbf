//! Asynchronous system-call interface (FlexSC / Scone style).
//!
//! Control-transfer instructions are forbidden inside SGX enclaves, so every
//! system call would normally require an expensive enclave exit. Scone, and
//! therefore Pesos, instead places system-call arguments into shared-memory
//! *slots*, enqueues the slot index on a *submission queue*, and lets
//! untrusted *service threads* outside the enclave execute the call and push
//! the result onto a *return queue* (paper §4.6, "I/O interface"). A call
//! handed over that way costs its submitter no transition, but it costs a
//! hand-off: a slot, a place in the queue, usually a wake-up of a sleeping
//! service thread, and a wait for the result. A caller that waits for its
//! calls at once has nothing to overlap with them, and for it one exit is
//! the cheaper way: the first call of a joined submission always runs on
//! its caller (below, "The caller's lanes").
//!
//! # Slots and the submission queue
//!
//! The slot table is preallocated and bounds the calls in flight. Each slot
//! is a `Handoff`: one atomic state word and the parked call (its batch and
//! lane; the body waits in the batch).
//!
//! ```text
//! FREE --claim--> CLAIMED --body written--> QUEUED --taken--> RUNNING --body returned--> FREE
//!      submitter           submitter                service            service
//! ```
//!
//! Every transition that grants access to the body is a compare-and-swap on
//! the word, so at most one thread owns the body at a time; the slot stays
//! `RUNNING` for the call's whole execution, like the real shared-memory
//! slot. A submitter claims by scanning the table from a rotating start; if
//! no slot is `FREE` it counts one `slot_waits` and sleeps until a service
//! thread frees one. A lane of a joined call does not sleep (below, "The
//! caller's lanes").
//!
//! The index of a `QUEUED` slot travels to the service threads through the
//! submission queue, kept under the pool's park mutex with the sleepers it
//! wakes. It is allocated at the slot capacity, which bounds it, so a push
//! never allocates.
//!
//! # Completions
//!
//! Every submission, single or scatter-gather, reports into one `Batch`:
//! `n` lanes, each a result cell (again a `Handoff`) and an *entry word*
//! that says whether the lane's call has finished. The call writes its
//! result into its cell and then sets its entry `DONE`.
//!
//! ```text
//! entry:  PENDING --filler sets DONE--> DONE          [| PARKED, set by the waiter]
//! ```
//!
//! A call whose body was dropped unrun or panicked publishes the same way
//! with its cell left empty: `DONE` over an empty cell reads as
//! [`SgxError::SyscallInterfaceClosed`]. The waiter owns the set and reads
//! it in *lane order*: it waits on lane 0's entry, takes lane 0's result,
//! then lane 1's, and so on. A [`CompletionSet`] is that iterator;
//! `join` collects it, first error in lane order wins, and `wait_single`
//! takes the one result of a one-call set. Nothing is delivered in
//! completion order: every reader of a set wants all of its results.
//!
//! There are three entry points and one handle:
//!
//! * [`AsyscallInterface::submit`]: the synchronous wrapper Scone exposes
//!   to the application; a batch of one, joined at once.
//! * [`AsyscallInterface::submit_batch`]: the scatter-gather path: N
//!   bodies are enqueued back-to-back and a [`CompletionSet`] hands back
//!   their results, so callers can join all of them, keep a call in
//!   flight while they do something else (a batch of one, joined later),
//!   or drop the set and let the calls run unobserved.
//! * [`AsyscallInterface::submit_joined`]: the same set, for a caller that
//!   reads it at once (replicated writes, replicated reads, key-range pages
//!   and the migration drain): its first call runs on the caller.
//!
//! A submission allocates its `Batch` and nothing else: the batch holds
//! the bodies as well as the result cells, and a slot holds a reference
//! to it and a lane number. That is one allocation for a single call
//! (lane 0 is inline) and three for more (the other lanes' cells and
//! bodies).
//!
//! # The two park protocols
//!
//! *Waiter and filler* (one lane's entry word, read and written `SeqCst`).
//! The filler writes the result, sets `DONE` with a `fetch_or` and looks at
//! what was there: only if the `PARKED` bit was does it take the batch's
//! park mutex and signal the condvar. A waiter that finds its entry pending
//! takes the park mutex first, then sets `PARKED` with a `fetch_or` and
//! looks at what was there: if the entry was already `DONE` it does not
//! sleep. The two `fetch_or`s are ordered one way or the other. The
//! filler's first: the waiter sees `DONE`. The waiter's first: the filler
//! sees `PARKED`, and because the waiter holds the mutex from before its
//! `fetch_or` until the condvar wait releases it, the filler's signal
//! cannot fall into the gap before the sleep.
//!
//! *Submitter and service threads* (the queue, the sleeper count and the
//! wake tickets, all under the pool's park mutex). A service thread that
//! finds the queue empty adds itself to the sleeper count and waits, in
//! one critical section. It resumes when it can take a *wake ticket*, so a
//! spurious wake-up cannot consume a signal meant for someone else. A
//! submitter pushes its index and, in the same critical section, issues a
//! ticket to a sleeper (taking it off the count) if fewer tickets are out
//! than calls are queued; it notifies once it has let go of the mutex.
//!
//! So the queue never holds more calls than there are tickets out unless
//! no service thread sleeps. A ticket holder takes a queued call before
//! anything else (one it finds gone was taken by a thread that was awake),
//! and a thread that is not asleep is inside a body, and looks at the
//! queue when the body returns, or is about to look. Hence no queued call
//! ever depends on a running body coming to an end while a service thread
//! sleeps: bodies that wait for one another get a thread each, whether or
//! not anyone waits on their completions.
//!
//! Table-full submitters wait on the same mutex: each announces itself
//! under it before its last try for a slot, and a service thread, which
//! takes the mutex for its next call after it frees a slot, signals one if
//! any announced.
//!
//! Nobody spins or polls. A service thread looks at the queue only after a
//! body or a wake-up, and a waiter whose entry is pending parks at once.
//! With the first lane of every joined call on its caller, the request
//! path hands almost nothing over (the table below): a thread kept polling
//! the queue, or a waiter spinning through a cross-core wake-up, would have
//! nothing to win.
//!
//! # The caller's lanes
//!
//! [`AsyscallInterface::submit_joined`] hands lanes `1..` over as
//! [`AsyscallInterface::submit_batch`] does, so that they start on the
//! pool, and then runs lane 0 on the calling thread, whatever the pool is
//! doing: one synchronous exit, charged as one
//! [`CostEvent::EnclaveTransition`] instead of a
//! [`CostEvent::AsyncSyscall`] and counted in [`AsyscallStats::exits`], not
//! in `submitted`. Intel's SGX SDK falls back the same way for its
//! switchless calls (Tian et al., "Switchless Calls Made Practical in Intel
//! SGX", SysTEX 2018): the caller leaves the enclave and makes the call
//! itself. The calling thread contains the body as a service thread does:
//! a panic abandons the call, which reads as
//! [`SgxError::SyscallInterfaceClosed`], and the thread carries on.
//!
//! When the caller then waits for a result that has not been published, it
//! first runs, in lane order, any of its lanes that no service thread has
//! taken yet, and parks only for the rest. They run in the same exit and
//! cost no second transition; they stay counted in `submitted` (they were
//! handed over, and the service thread that later takes their slot finds
//! the body gone and frees it). A replicated write still reaches its
//! replicas in parallel: the caller's lane beside the service threads'. A
//! replicated read is one lane per replica it asks, one joined call after
//! another, so it hands nothing over.
//!
//! A lane that finds the slot table full is not handed over: it stays in
//! the batch, untaken, for its caller, and counts in neither `submitted`
//! nor `slot_waits`. So a joined call never waits for a slot or for a
//! queued call: each lane runs on its caller unless a service thread took
//! it. That is what lets a pool body issue joined store I/O while every
//! service thread is busy and the table is full (below, "One host pool").
//!
//! Only joined calls run on their caller. [`AsyscallInterface::submit_batch`]
//! returns once its bodies are handed over, so that its caller can overlap
//! work with them or drop the set and let them run unobserved; running one
//! of them first would take both away.
//!
//! A one-lane joined call touches no slot, no queue and neither park
//! protocol, and wakes nobody. Five of the benchmark's six workloads run
//! one-drive controllers, so their request paths hand nothing over; only
//! `disk_mix_1k`, with two replicas, hands each write's second lane to the
//! pool (its reads hit the object cache). Per operation of one set-up (load
//! and warm-up, two clients, seeds 5101–5110, the 2-vCPU reference host):
//!
//! | workload | exits | hand-offs |
//! |---|---:|---:|
//! | `hot_mix_1k` | 0.58 | 0 |
//! | `cold_read_1k` | 0.92 | 0 |
//! | `large_put_64k` | 0.93 | 0 |
//! | `policy_read_1k` | 0.15 | 0 |
//! | `cluster_repl_1k` (primaries; backups 0.02 exits) | 0.76 | 0 |
//! | `disk_mix_1k` | 0.77 | 0.77 |
//!
//! # One host pool
//!
//! Everything above but the caller's lanes (slots, queue, service threads,
//! both park protocols) is the host side, a [`HostPool`]. An enclave's
//! [`AsyscallInterface`] is its submission side of one: the enclave's cost
//! model and its own counters (`submitted`, `batches`, `slot_waits`,
//! `exits` and its submitters' parks). A single controller builds a pool of
//! its own ([`AsyscallInterface::new`]). A cluster builds one pool for
//! every controller it runs, primaries and backups alike, and each
//! [joins](HostPool::join) it with its own service threads and slots, so
//! the pool has as many of both as the private pools would have had
//! together (up to the slot capacity the pool was built with), and a call
//! of one member may run on a thread another brought.
//!
//! Each member still charges its own cost model, so a native member of a
//! cluster of SGX members charges nothing. The pool's own counters
//! ([`PoolStats`]: completions, peak concurrency, service-thread parks) are
//! pool-wide. A member that leaves (its interface dropped) gives its
//! service threads back: that many threads exit once they find the queue
//! empty, though never the pool's last, so a cluster that adds and removes
//! controllers does not gain threads. Its slots stay in the table, which
//! the pool's capacity bounds.
//!
//! Sharing keeps the rule every pool already had: a call body must never
//! wait on a queued call of its own pool, whose service threads may all
//! be running bodies that wait the same way. Joined calls keep it by
//! construction, so bodies that do store I/O run on the pool: a
//! controller's `put_async` bodies (a [`AsyscallInterface::submit_batch`]
//! nobody waits on, charged as one [`CostEvent::EnclaveTransition`]
//! because a host thread enters the enclave to run it) and the cluster's
//! migration drain (one joined call). A replication shipper, which an
//! append blocked on backpressure waits for, keeps a thread of its own
//! (`pesos_cluster::replication`).
//!
//! The paper multiplexes user-level threads over a fixed set of enclave
//! threads (§4.6, "Multithreading support"), so that a thread waiting for
//! a system call yields its enclave thread to another. This reproduction
//! gives that up: a waiting caller runs its own lanes and then parks its
//! thread. The table above says what that costs: on five of the six
//! workloads nothing is handed over, so no caller parks for a hand-off.

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::{Condvar, Mutex};

use crate::cost::{CostEvent, ModeCost};
use crate::error::SgxError;

/// Counters describing one interface's activity. Everything is counted on
/// the submitting enclave's side except `completed` and `max_concurrency`,
/// which are the host pool's ([`PoolStats`]) and so cover every member.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AsyscallStats {
    /// Calls this enclave's threads handed over to the host pool.
    pub submitted: u64,
    /// Calls completed by the host pool's service threads, for any member.
    pub completed: u64,
    /// Times a `submit` or `submit_batch` caller had to wait because all
    /// slots were busy (a joined lane never waits for one).
    pub slot_waits: u64,
    /// Scatter-gather batches submitted via `submit_batch` or
    /// `submit_joined`.
    pub batches: u64,
    /// Highest number of call bodies ever executing concurrently in the
    /// host pool.
    pub max_concurrency: u64,
    /// Times a submitter went to sleep, waiting for a completion or a free
    /// slot. The service threads' sleeps are the pool's
    /// ([`PoolStats::parks`]).
    pub parks: u64,
    /// Joined submissions whose first call ran on their caller, each
    /// charged as one enclave transition (module docs, "The caller's
    /// lanes"). Not in `submitted`: a member's calls are its `submitted`
    /// plus its `exits`.
    pub exits: u64,
}

// ---------------------------------------------------------------------------
// Handoff: one value passed between threads under an atomic state word
// ---------------------------------------------------------------------------

/// The module's only unsafe code, kept apart so that nothing outside these
/// few functions can reach the state word or the value behind it.
mod handoff {
    use std::cell::UnsafeCell;
    use std::sync::atomic::{AtomicU8, Ordering};

    const FREE: u8 = 0;
    const CLAIMED: u8 = 1;
    const QUEUED: u8 = 2;
    const RUNNING: u8 = 3;

    /// A place for one value that one thread puts in and another takes out
    /// through a shared reference, with ownership of the value following the
    /// state word: `FREE → CLAIMED → QUEUED → RUNNING → FREE`.
    pub(super) struct Handoff<T> {
        state: AtomicU8,
        value: UnsafeCell<Option<T>>,
    }

    // SAFETY: `value` is reached only inside `put` and `take`, each of which
    // first wins a compare-and-swap on `state` that no other thread can win
    // until the winner stores the next state (see the two blocks below), so no
    // two threads ever touch `value` at once. The value itself crosses threads,
    // hence `T: Send`.
    unsafe impl<T: Send> Sync for Handoff<T> {}

    /// Keeps a [`Handoff`] occupied (`RUNNING`) after its value was taken;
    /// dropping it makes the place `FREE` again.
    pub(super) struct Occupied<'a>(&'a AtomicU8);

    impl Drop for Occupied<'_> {
        fn drop(&mut self) {
            self.0.store(FREE, Ordering::SeqCst);
        }
    }

    impl<T> Handoff<T> {
        pub(super) fn new() -> Self {
            Handoff {
                state: AtomicU8::new(FREE),
                value: UnsafeCell::new(None),
            }
        }

        /// Claims the place if it is `FREE` and parks `value` in it; hands the
        /// value back if the place is taken.
        pub(super) fn put(&self, value: T) -> Result<(), T> {
            if self
                .state
                .compare_exchange(FREE, CLAIMED, Ordering::SeqCst, Ordering::SeqCst)
                .is_err()
            {
                return Err(value);
            }
            // SAFETY: this thread moved the word FREE → CLAIMED. `put` enters
            // only from FREE and `take` only from QUEUED, so until the store
            // below no other thread passes its compare-and-swap, and the
            // previous owner finished with `value` before it stored FREE.
            unsafe { *self.value.get() = Some(value) };
            self.state.store(QUEUED, Ordering::SeqCst);
            Ok(())
        }

        /// Takes the parked value if there is one. The place stays occupied
        /// until the returned guard is dropped.
        pub(super) fn take(&self) -> Option<(T, Occupied<'_>)> {
            self.state
                .compare_exchange(QUEUED, RUNNING, Ordering::SeqCst, Ordering::SeqCst)
                .ok()?;
            let occupied = Occupied(&self.state);
            // SAFETY: this thread moved the word QUEUED → RUNNING, which only
            // one thread can do per `put`, and no `put` passes its
            // compare-and-swap until `occupied` stores FREE. The writer's store
            // of QUEUED, which the swap read, orders its write before this read.
            let value = unsafe { (*self.value.get()).take() };
            value.map(|value| (value, occupied))
        }
    }
}

use handoff::Handoff;

// ---------------------------------------------------------------------------
// Batches: result cells and their entry words
// ---------------------------------------------------------------------------

/// Set in an entry by the call's filler once its cell holds what it will.
const DONE: u8 = 1;
/// Set in an entry by a waiter that is about to sleep on it.
const PARKED: u8 = 2;

struct Lane<T> {
    /// `0` while pending, then [`DONE`]; [`PARKED`] may be set beside
    /// either by the waiter.
    entry: AtomicU8,
    cell: Handoff<T>,
}

/// What one submission (a single call or a scatter-gather batch) reports
/// into: a result cell and an entry word per call, and, in `bodies`, the
/// calls themselves until each is taken to run. A [`CompletionSet`] sees
/// the bodies erased (`B` unsized); a slot, and the caller of a joined
/// set, see the whole batch as a [`Run`].
struct Batch<T, B: ?Sized = dyn Send + Sync> {
    /// How many calls the submission made.
    calls: usize,
    /// Lane 0, kept inline so that a single call's batch is one allocation.
    first: Lane<T>,
    /// Lanes `1..calls` (none, and so nothing allocated, for one call).
    rest: Box<[Lane<T>]>,
    /// Slow path only: the waiter sleeps here after it set [`PARKED`].
    park: Mutex<()>,
    done: Condvar,
    bodies: B,
}

impl<T> Lane<T> {
    fn new() -> Self {
        Lane {
            entry: AtomicU8::new(0),
            cell: Handoff::new(),
        }
    }
}

/// The bodies of a submission's calls, one cell per lane, laid out as the
/// lanes are. Whoever takes a body (a service thread, the caller of a
/// joined set, or a close that drops it) owns it from then on.
struct Bodies<F> {
    first: Handoff<F>,
    rest: Box<[Handoff<F>]>,
}

impl<F> Bodies<F> {
    fn get(&self, lane: u32) -> Option<&Handoff<F>> {
        match (lane as usize).checked_sub(1) {
            None => Some(&self.first),
            Some(rest) => self.rest.get(rest),
        }
    }
}

/// A cell holding `value`.
fn filled<V>(value: V) -> Handoff<V> {
    let cell = Handoff::new();
    // A new cell is free.
    let _ = cell.put(value);
    cell
}

impl<T, F> Batch<T, Bodies<F>> {
    /// A batch of `bodies`, each parked in its lane's cell.
    fn new(bodies: impl Iterator<Item = F>) -> Arc<Self> {
        let mut bodies = bodies.map(filled);
        let first = bodies.next();
        let rest: Box<[Handoff<F>]> = bodies.collect();
        let calls = usize::from(first.is_some()) + rest.len();
        Arc::new(Batch {
            calls,
            first: Lane::new(),
            rest: rest.iter().map(|_| Lane::new()).collect(),
            park: Mutex::with_rank(parking_lot::lock_order::ASYSCALL_PARK, ()),
            done: Condvar::new(),
            bodies: Bodies {
                first: first.unwrap_or_else(Handoff::new),
                rest,
            },
        })
    }
}

/// One lane of a submission as a slot holds it: whoever takes the slot
/// runs the lane.
trait Run: Send + Sync {
    /// Runs lane `lane`'s body unless somebody took it already, and
    /// publishes the lane: with its result, or with its cell empty if the
    /// body unwinds.
    fn run(&self, lane: u32);

    /// Drops lane `lane`'s body unrun unless somebody took it already, and
    /// publishes the lane with its cell empty.
    fn abandon(&self, lane: u32);
}

impl<T, F> Run for Batch<T, Bodies<F>>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    fn run(&self, lane: u32) {
        let Some((body, _running)) = self.bodies.get(lane).and_then(Handoff::take) else {
            return;
        };
        // Publishes on the way out, unwinding or not.
        let _publish = Publish { batch: self, lane };
        let value = body();
        if let Some(cell) = self.lane(lane as usize).map(|l| &l.cell) {
            // The cell is empty: only the holder of the body fills it.
            let _ = cell.put(value);
        }
    }

    fn abandon(&self, lane: u32) {
        if let Some((body, _running)) = self.bodies.get(lane).and_then(Handoff::take) {
            drop(body);
            self.publish(lane);
        }
    }
}

/// Publishes a lane when dropped.
struct Publish<'a, T, B: ?Sized> {
    batch: &'a Batch<T, B>,
    lane: u32,
}

impl<T, B: ?Sized> Drop for Publish<'_, T, B> {
    fn drop(&mut self) {
        self.batch.publish(self.lane);
    }
}

/// Runs a call body with its panic contained, on a service thread or on
/// the caller (`on`): the lane was published during the unwind with its
/// cell empty, so its waiter sees the call abandoned, and the thread
/// carries on.
fn contained(run: impl FnOnce(), on: &str) {
    if std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)).is_err() {
        eprintln!("asyscall: system-call body panicked{on}; call abandoned");
    }
}

/// A call in a slot: the batch it belongs to and its lane. Dropping one
/// leaves its body in the batch: a pool that closes abandons what is
/// queued ([`Shared::close`]), and a joined lane that found no free slot
/// is left to its caller.
struct QueuedCall {
    batch: Arc<dyn Run>,
    lane: u32,
}

impl QueuedCall {
    fn run(&self) {
        self.batch.run(self.lane);
    }

    /// Drops the call's body unrun, so its waiter sees
    /// [`SgxError::SyscallInterfaceClosed`].
    fn abandon(&self) {
        self.batch.abandon(self.lane);
    }
}

impl<T, B: ?Sized> Batch<T, B> {
    /// Lane `index`, if the submission made that many calls.
    fn lane(&self, index: usize) -> Option<&Lane<T>> {
        if index >= self.calls {
            return None;
        }
        match index.checked_sub(1) {
            None => Some(&self.first),
            Some(rest) => self.rest.get(rest),
        }
    }

    /// Publishes lane `index` as finished and wakes the waiter if it
    /// sleeps on that lane.
    fn publish(&self, index: u32) {
        let Some(lane) = self.lane(index as usize) else {
            return;
        };
        if lane.entry.fetch_or(DONE, Ordering::SeqCst) & PARKED != 0 {
            // The waiter set PARKED under this mutex and holds it until its
            // condvar wait begins; passing through it puts the signal after
            // that point.
            drop(self.park.lock());
            self.done.notify_one();
        }
    }

    /// Waits until `entry`, one of this batch's, is published. The sleep
    /// is `submitter`'s.
    fn await_entry(&self, entry: &AtomicU8, submitter: &Submitter) {
        if entry.load(Ordering::SeqCst) & DONE != 0 {
            return;
        }
        let mut guard = self.park.lock();
        if entry.fetch_or(PARKED, Ordering::SeqCst) & DONE != 0 {
            return;
        }
        submitter.parks.fetch_add(1, Ordering::Relaxed);
        while entry.load(Ordering::SeqCst) & DONE == 0 {
            self.done.wait(&mut guard);
        }
    }
}

/// A joinable set of completions produced by one submission: an iterator
/// over the calls' results in lane (submission) order, each result
/// delivered once its call has finished.
///
/// A set dropped before every result was delivered (a call nobody waits
/// on) leaves its handed-over calls running: they write into cells the
/// set's `Batch` keeps alive until the last of them has published.
pub struct CompletionSet<T> {
    batch: Arc<Batch<T>>,
    /// The next lane to deliver.
    delivered: usize,
    /// A joined set's batch and the lanes its caller has not tried to run
    /// yet (module docs, "The caller's lanes").
    own: Option<(Arc<dyn Run>, Range<u32>)>,
    submitter: Arc<Submitter>,
}

impl<T> CompletionSet<T> {
    /// Number of calls in the batch.
    pub fn len(&self) -> usize {
        self.batch.calls
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.batch.calls == 0
    }

    /// Joins the whole batch, returning results in submission order.
    ///
    /// The first abandoned call (interface shut down mid-batch) aborts the
    /// join: first error in lane order wins.
    pub fn join(self) -> Result<Vec<T>, SgxError> {
        self.collect()
    }

    /// The single result of a one-call set.
    pub fn wait_single(mut self) -> Result<T, SgxError> {
        self.next().unwrap_or(Err(SgxError::SyscallInterfaceClosed))
    }
}

impl<T> Iterator for CompletionSet<T> {
    type Item = Result<T, SgxError>;

    /// Blocks until the next lane's call has finished and returns its
    /// result; `None` once every lane has been delivered.
    fn next(&mut self) -> Option<Self::Item> {
        let lane = self.batch.lane(self.delivered)?;
        if let Some((batch, untried)) = &mut self.own {
            // Rather than park, the caller runs its lanes nobody has taken.
            while lane.entry.load(Ordering::SeqCst) & DONE == 0 {
                let Some(untaken) = untried.next() else {
                    break;
                };
                contained(|| batch.run(untaken), " on its caller");
            }
        }
        self.batch.await_entry(&lane.entry, &self.submitter);
        self.delivered += 1;
        Some(
            lane.cell
                .take()
                .map(|(value, _)| value)
                .ok_or(SgxError::SyscallInterfaceClosed),
        )
    }
}

// ---------------------------------------------------------------------------
// The host pool
// ---------------------------------------------------------------------------

/// What the host pool's park mutex guards: the submission queue, the
/// service threads and the wake tickets issued to them, the submitters
/// waiting for a slot, and the handles of the service threads, for
/// [`HostPool`]'s shutdown.
#[derive(Default)]
struct Parking {
    /// Indices of `QUEUED` slots, oldest first.
    queue: VecDeque<usize>,
    /// Service threads asleep that hold no ticket.
    sleeping: usize,
    /// Wake tickets issued and not yet taken.
    tickets: usize,
    /// Service threads running: those the members brought, less those
    /// given back that have exited.
    threads: usize,
    /// Service threads that members which left have given back and that
    /// have not exited yet.
    retiring: usize,
    /// Submitters asleep (or about to be) because the slot table is full.
    slot_waiters: usize,
    /// Times a service thread went to sleep with no work.
    parks: u64,
    closed: bool,
    workers: Vec<JoinHandle<()>>,
}

impl Parking {
    /// Issues a wake ticket to one sleeping service thread, if there is
    /// one; the caller notifies once it has let go of the mutex.
    fn issue_ticket(&mut self) -> bool {
        if self.sleeping == 0 {
            return false;
        }
        self.sleeping -= 1;
        self.tickets += 1;
        true
    }
}

/// The host side: slots, queue, service threads and the park protocol.
struct Shared {
    /// The shared-memory system-call slots: each holds the parked call
    /// body from submission until a service thread takes it, and stays
    /// occupied until the body has run. Allocated at the pool's capacity;
    /// only the first `slot_count` are in use.
    slots: Box<[Handoff<QueuedCall>]>,
    /// Slots the members have brought so far (at most `slots.len()`).
    slot_count: AtomicUsize,
    /// Where the next claim starts its scan of the slot table.
    claim_from: AtomicUsize,
    park: Mutex<Parking>,
    /// Service threads sleep here for a wake ticket or the close.
    work: Condvar,
    /// Submitters sleep here for a free slot.
    slot_freed: Condvar,
    completed: AtomicU64,
    active: AtomicUsize,
    max_concurrency: AtomicU64,
}

impl Shared {
    /// Parks `call` in the first free slot from a rotating start, handing
    /// it back if the whole table is occupied.
    fn try_claim(&self, mut call: QueuedCall) -> Result<usize, QueuedCall> {
        let start = self.claim_from.fetch_add(1, Ordering::Relaxed);
        let count = self.slot_count.load(Ordering::SeqCst);
        for step in 0..count {
            let index = start.wrapping_add(step) % count;
            let Some(slot) = self.slots.get(index) else {
                continue;
            };
            match slot.put(call) {
                Ok(()) => return Ok(index),
                Err(returned) => call = returned,
            }
        }
        Err(call)
    }

    /// Queues slot `index` for the service threads, and wakes a sleeper
    /// unless every queued call has a ticket holder on its way already.
    fn hand_over(&self, index: usize) {
        let mut parking = self.park.lock();
        if parking.closed {
            drop(parking);
            self.abandon(index);
            return;
        }
        parking.queue.push_back(index);
        let wake = parking.queue.len() > parking.tickets && parking.issue_ticket();
        drop(parking);
        if wake {
            self.work.notify_one();
        }
    }

    /// The next slot index for a service thread to run, or `None` once the
    /// pool is closed or this thread was given back. Called after every
    /// body, it first passes the slot that body freed on to a submitter
    /// waiting for one.
    fn next_work(&self) -> Option<usize> {
        let mut parking = self.park.lock();
        if parking.slot_waiters > 0 {
            self.slot_freed.notify_one();
        }
        loop {
            if parking.closed {
                return None;
            }
            if let Some(index) = parking.queue.pop_front() {
                return Some(index);
            }
            if parking.retiring > 0 && parking.threads > 1 {
                // Given back by a member that left. With the queue empty,
                // no call waits for this thread.
                parking.retiring -= 1;
                parking.threads -= 1;
                return None;
            }
            parking.sleeping += 1;
            parking.parks += 1;
            loop {
                self.work.wait(&mut parking);
                if parking.closed {
                    return None;
                }
                if parking.tickets > 0 {
                    parking.tickets -= 1;
                    break;
                }
            }
        }
    }

    /// Runs the call parked in slot `index` and frees the slot.
    fn run(&self, index: usize) {
        let Some((call, occupied)) = self.slots.get(index).and_then(Handoff::take) else {
            return;
        };
        let active = self.active.fetch_add(1, Ordering::SeqCst) as u64 + 1;
        self.max_concurrency.fetch_max(active, Ordering::SeqCst);
        contained(|| call.run(), "");
        self.active.fetch_sub(1, Ordering::SeqCst);
        self.completed.fetch_add(1, Ordering::Relaxed);
        // The slot stayed occupied for the call's whole lifetime, like the
        // real shared-memory slot.
        drop(occupied);
    }

    /// Gives back `threads` service threads: as many threads exit once they
    /// find the queue empty, sleepers woken for it, but never the last
    /// one. What the last one would owe is forgiven, so a member that joins
    /// later keeps every thread it brings.
    fn give_back(&self, threads: usize) {
        let mut parking = self.park.lock();
        parking.retiring = (parking.retiring + threads).min(parking.threads.saturating_sub(1));
        let woken = (0..threads).filter(|_| parking.issue_ticket()).count();
        drop(parking);
        for _ in 0..woken {
            self.work.notify_one();
        }
    }

    /// Closes the pool: service threads exit after the body they are
    /// running, and bodies still queued are dropped unrun, which abandons
    /// their waiters.
    fn close(&self) {
        let mut parking = self.park.lock();
        parking.closed = true;
        let queued = std::mem::take(&mut parking.queue);
        drop(parking);
        self.work.notify_all();
        for index in queued {
            self.abandon(index);
        }
    }

    /// Drops the call parked in slot `index` unrun, which abandons its
    /// waiter.
    fn abandon(&self, index: usize) {
        if let Some((call, _occupied)) = self.slots.get(index).and_then(Handoff::take) {
            call.abandon();
        }
    }
}

/// The host side of the interface: the untrusted service threads, the slot
/// table and the submission queue that any number of enclaves submit to.
///
/// A pool starts with no service threads and no slots; each member that
/// [joins](HostPool::join) brings its own. A member that leaves gives its
/// threads back (they exit once idle, down to one) and leaves its slots in
/// the table, which the capacity bounds. The pool closes when the last
/// handle to it (the pool's owner and every member's [`AsyscallInterface`])
/// is dropped.
pub struct HostPool {
    shared: Arc<Shared>,
}

/// Counters of a [`HostPool`]'s service side, summed over every member.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Service threads running: those the members brought, less those
    /// that members which left gave back and that have exited.
    pub threads: usize,
    /// System-call slots the members have brought (up to the capacity).
    pub slots: usize,
    /// Calls completed by service threads.
    pub completed: u64,
    /// Highest number of call bodies ever executing concurrently.
    pub max_concurrency: u64,
    /// Times a service thread went to sleep with no work.
    pub parks: u64,
}

impl HostPool {
    /// An empty pool with room for `capacity` system-call slots. Members
    /// joining once the table is full bring service threads only.
    pub fn new(capacity: usize) -> Arc<HostPool> {
        let capacity = capacity.max(1);
        let parking = Parking {
            // The slot table bounds the queue: a push never allocates.
            queue: VecDeque::with_capacity(capacity),
            ..Parking::default()
        };
        Arc::new(HostPool {
            shared: Arc::new(Shared {
                slots: (0..capacity).map(|_| Handoff::new()).collect(),
                slot_count: AtomicUsize::new(0),
                claim_from: AtomicUsize::new(0),
                park: Mutex::with_rank(parking_lot::lock_order::ASYSCALL_PARK, parking),
                work: Condvar::new(),
                slot_freed: Condvar::new(),
                completed: AtomicU64::new(0),
                active: AtomicUsize::new(0),
                max_concurrency: AtomicU64::new(0),
            }),
        })
    }

    /// Adds a member: grows the pool by `service_threads` threads and
    /// `slots` slots, and returns the member's submission side, which
    /// charges the member's own `cost`. A service thread that cannot start
    /// is [`SgxError::ServiceThreadSpawn`], and those started are given back.
    pub fn join(
        self: &Arc<Self>,
        service_threads: usize,
        slots: usize,
        cost: ModeCost,
    ) -> Result<AsyscallInterface, SgxError> {
        let shared = &self.shared;
        let threads = service_threads.max(1);
        let capacity = shared.slots.len();
        let _ = shared
            .slot_count
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |count| {
                Some((count + slots.max(1)).min(capacity))
            });
        let mut parking = shared.park.lock();
        if parking.slot_waiters > 0 {
            shared.slot_freed.notify_all();
        }
        // Threads given back have exited or will: their handles detach.
        parking.workers.retain(|worker| !worker.is_finished());
        for started in 0..threads {
            let worker = Arc::clone(shared);
            let spawned = std::thread::Builder::new()
                .name(format!("asyscall-{}", parking.threads))
                .spawn(move || {
                    while let Some(index) = worker.next_work() {
                        worker.run(index);
                    }
                });
            match spawned {
                Ok(handle) => {
                    parking.threads += 1;
                    parking.workers.push(handle);
                }
                Err(e) => {
                    drop(parking);
                    shared.give_back(started);
                    return Err(SgxError::ServiceThreadSpawn(e.to_string()));
                }
            }
        }
        drop(parking);
        Ok(self.member(threads, cost))
    }

    /// A submission side that brought `threads` service threads.
    fn member(self: &Arc<Self>, threads: usize, cost: ModeCost) -> AsyscallInterface {
        let shared = &self.shared;
        AsyscallInterface {
            pool: Arc::clone(self),
            threads,
            submitter: Arc::new(Submitter {
                shared: Arc::clone(shared),
                submitted: AtomicU64::new(0),
                batches: AtomicU64::new(0),
                slot_waits: AtomicU64::new(0),
                parks: AtomicU64::new(0),
                exits: AtomicU64::new(0),
            }),
            cost,
        }
    }

    /// Returns the service side's counters.
    pub fn stats(&self) -> PoolStats {
        let shared = &self.shared;
        let parking = shared.park.lock();
        PoolStats {
            threads: parking.threads,
            slots: shared.slot_count.load(Ordering::SeqCst),
            completed: shared.completed.load(Ordering::Relaxed),
            max_concurrency: shared.max_concurrency.load(Ordering::SeqCst),
            parks: parking.parks,
        }
    }

    /// Closes the pool and waits for its service threads to exit.
    fn shutdown(self) {
        self.shared.close();
        let workers = std::mem::take(&mut self.shared.park.lock().workers);
        for worker in workers {
            let _ = worker.join();
        }
    }
}

/// Closes the pool without joining: the service threads exit on their own
/// once woken, and waiters on calls that never ran see
/// [`SgxError::SyscallInterfaceClosed`].
impl Drop for HostPool {
    fn drop(&mut self) {
        self.shared.close();
    }
}

// ---------------------------------------------------------------------------
// The interface
// ---------------------------------------------------------------------------

/// One enclave's submission side: its counters, and the pool it submits to.
struct Submitter {
    shared: Arc<Shared>,
    submitted: AtomicU64,
    batches: AtomicU64,
    slot_waits: AtomicU64,
    /// Times one of this enclave's threads slept waiting for a completion
    /// or a free slot.
    parks: AtomicU64,
    /// Joined submissions whose first call ran on their caller
    /// (`AsyscallStats::exits`).
    exits: AtomicU64,
}

impl Submitter {
    /// Parks `call` in a slot, sleeping while the table is full; a
    /// `joined` lane does not sleep and is dropped instead, its body left
    /// in the batch for its caller. The wait is counted when the submitter
    /// finds no free slot, so `slot_waits` is exact under contention.
    fn claim(&self, call: QueuedCall, joined: bool) -> Option<usize> {
        let shared = &*self.shared;
        let mut call = match shared.try_claim(call) {
            Ok(index) => return Some(index),
            Err(_) if joined => return None,
            Err(call) => call,
        };
        self.slot_waits.fetch_add(1, Ordering::Relaxed);
        let mut parking = shared.park.lock();
        parking.slot_waiters += 1;
        let index = loop {
            match shared.try_claim(call) {
                Ok(index) => break index,
                Err(returned) => call = returned,
            }
            self.parks.fetch_add(1, Ordering::Relaxed);
            shared.slot_freed.wait(&mut parking);
        };
        parking.slot_waiters -= 1;
        Some(index)
    }
}

/// The asynchronous system-call interface of one enclave: its submission
/// side of a [`HostPool`].
pub struct AsyscallInterface {
    pool: Arc<HostPool>,
    /// Service threads this member brought, given back when it leaves.
    threads: usize,
    submitter: Arc<Submitter>,
    cost: ModeCost,
}

impl AsyscallInterface {
    /// Creates the interface on a pool of its own, with `service_threads`
    /// untrusted worker threads and `slots` system-call slots (the maximum
    /// number of in-flight calls). If a service thread cannot start, the
    /// pool is closed: what is handed over fails with
    /// [`SgxError::SyscallInterfaceClosed`].
    pub fn new(service_threads: usize, slots: usize, cost: ModeCost) -> Self {
        let pool = HostPool::new(slots);
        pool.join(service_threads, slots, cost).unwrap_or_else(|_| {
            pool.shared.close();
            pool.member(0, cost)
        })
    }

    /// The host pool this interface submits to.
    pub fn pool(&self) -> &Arc<HostPool> {
        &self.pool
    }

    /// Hands `call` over to the service threads, unless it is a `joined`
    /// lane that found no free slot (module docs, "The caller's lanes").
    fn enqueue(&self, call: QueuedCall, joined: bool) {
        let submitter = &*self.submitter;
        let Some(index) = submitter.claim(call, joined) else {
            return;
        };
        self.cost.charge(CostEvent::AsyncSyscall);
        submitter.submitted.fetch_add(1, Ordering::Relaxed);
        submitter.shared.hand_over(index);
    }

    /// Enqueues `bodies` as one submission reporting into one set of
    /// cells. A `joined` submission keeps lane 0 and runs it on the
    /// calling thread once the other lanes are handed over.
    fn submit_set<T, F>(&self, bodies: impl Iterator<Item = F>, joined: bool) -> CompletionSet<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let batch = Batch::new(bodies);
        let calls = batch.calls as u32;
        let kept = u32::from(joined).min(calls);
        for lane in kept..calls {
            let batch = Arc::clone(&batch) as Arc<dyn Run>;
            self.enqueue(QueuedCall { batch, lane }, joined);
        }
        let own = (kept == 1).then(|| {
            let own: Arc<dyn Run> = Arc::clone(&batch) as Arc<dyn Run>;
            self.exit(&*own);
            (own, 1..calls)
        });
        CompletionSet {
            batch,
            delivered: 0,
            own,
            submitter: Arc::clone(&self.submitter),
        }
    }

    /// Runs lane 0 of `batch` on the calling thread: one synchronous
    /// enclave exit, contained as [`Shared::run`] contains a service
    /// thread's call.
    fn exit(&self, batch: &dyn Run) {
        self.cost.charge(CostEvent::EnclaveTransition);
        self.submitter.exits.fetch_add(1, Ordering::Relaxed);
        contained(|| batch.run(0), " on its caller");
    }

    /// Submits a "system call" and blocks until its result is available.
    ///
    /// This mirrors the synchronous wrapper Scone exposes to the
    /// application: the enclave-side cost of slot handling is charged, the
    /// body runs on an untrusted service thread, and the calling thread
    /// waits until the return queue delivers the result.
    pub fn submit<T, F>(&self, body: F) -> Result<T, SgxError>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        self.submit_set(std::iter::once(body), false).wait_single()
    }

    /// Submits N call bodies as one scatter-gather batch and returns the
    /// joinable [`CompletionSet`].
    ///
    /// The bodies start executing as service threads become free, several
    /// at once when several are, which is what turns serial replication
    /// loops into parallel fan-out. The call returns once the bodies are
    /// handed over: the caller overlaps its own work with them until it
    /// asks the set, and a set that is dropped leaves them to finish
    /// unobserved.
    pub fn submit_batch<T, F, I>(&self, bodies: I) -> Result<CompletionSet<T>, SgxError>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
        I: IntoIterator<Item = F>,
    {
        let set = self.submit_set(bodies.into_iter(), false);
        self.submitter.batches.fetch_add(1, Ordering::Relaxed);
        Ok(set)
    }

    /// Submits N call bodies as one batch whose caller joins it at once:
    /// it reads the set straight away and has nothing to overlap with the
    /// calls. Lanes `1..N` are handed over as by
    /// [`AsyscallInterface::submit_batch`]; lane 0 then runs on the calling
    /// thread as one charged enclave exit, and while the caller waits on
    /// the set it runs any of its lanes no service thread has taken yet
    /// (module docs, "The caller's lanes"). Every result reaches the set
    /// like any other.
    pub fn submit_joined<T, F, I>(&self, bodies: I) -> Result<CompletionSet<T>, SgxError>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
        I: IntoIterator<Item = F>,
    {
        let set = self.submit_set(bodies.into_iter(), true);
        self.submitter.batches.fetch_add(1, Ordering::Relaxed);
        Ok(set)
    }

    /// Returns this interface's counters; `completed` and
    /// `max_concurrency` are the host pool's.
    pub fn stats(&self) -> AsyscallStats {
        let submitter = &*self.submitter;
        let shared = &*submitter.shared;
        AsyscallStats {
            submitted: submitter.submitted.load(Ordering::Relaxed),
            completed: shared.completed.load(Ordering::Relaxed),
            slot_waits: submitter.slot_waits.load(Ordering::Relaxed),
            batches: submitter.batches.load(Ordering::Relaxed),
            max_concurrency: shared.max_concurrency.load(Ordering::SeqCst),
            parks: submitter.parks.load(Ordering::Relaxed),
            exits: submitter.exits.load(Ordering::Relaxed),
        }
    }

    /// Leaves the host pool; the last member to leave a pool nobody else
    /// holds shuts it down and waits for its service threads to exit.
    pub fn shutdown(self) {
        let pool = Arc::clone(&self.pool);
        drop(self);
        if let Ok(pool) = Arc::try_unwrap(pool) {
            pool.shutdown();
        }
    }
}

/// Leaves the host pool, giving back the member's service threads. The
/// last handle to the pool closes it instead.
impl Drop for AsyscallInterface {
    fn drop(&mut self) {
        if Arc::strong_count(&self.pool) > 1 {
            self.pool.shared.give_back(self.threads);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{ExecutionMode, SgxCostModel};

    fn iface() -> AsyscallInterface {
        AsyscallInterface::new(
            2,
            8,
            ModeCost::new(ExecutionMode::Sgx, SgxCostModel::zero()),
        )
    }

    #[test]
    fn submit_returns_result() {
        let i = iface();
        let out = i.submit(|| 40 + 2).unwrap();
        assert_eq!(out, 42);
        assert_eq!(i.stats().submitted, 1);
        // The completion counter is bumped by the service thread after it
        // delivers the result, so give it a moment.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
        while i.stats().completed < 1 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(i.stats().completed, 1);
    }

    #[test]
    fn many_concurrent_submissions() {
        let i = Arc::new(iface());
        let mut handles = Vec::new();
        for t in 0..8 {
            let i = Arc::clone(&i);
            handles.push(std::thread::spawn(move || {
                let mut sum = 0u64;
                for k in 0..50u64 {
                    sum += i.submit(move || t * 1000 + k).unwrap();
                }
                sum
            }));
        }
        let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        // Sum of t*1000*50 + sum(0..50) for each of 8 threads.
        let expected: u64 = (0..8u64)
            .map(|t| t * 1000 * 50 + (0..50).sum::<u64>())
            .sum();
        assert_eq!(total, expected);
        assert_eq!(i.stats().submitted, 400);
    }

    #[test]
    fn detached_submission_completes() {
        // A set nobody keeps: the calls run all the same.
        let i = iface();
        let counter = Arc::new(AtomicU64::new(0));
        for _ in 0..10 {
            let c = Arc::clone(&counter);
            drop(
                i.submit_batch([move || c.fetch_add(1, Ordering::SeqCst)])
                    .unwrap(),
            );
        }
        // Wait for completion.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
        while counter.load(Ordering::SeqCst) < 10 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(counter.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn shutdown_joins_workers() {
        let i = iface();
        i.submit(|| ()).unwrap();
        i.shutdown();
    }

    #[test]
    fn slots_reported() {
        let i = AsyscallInterface::new(
            1,
            16,
            ModeCost::new(ExecutionMode::Native, SgxCostModel::zero()),
        );
        assert_eq!(i.pool().stats().slots, 16);
    }

    #[test]
    fn async_submission_overlaps_with_caller() {
        let i = iface();
        let gate = Arc::new(std::sync::Barrier::new(2));
        let g = Arc::clone(&gate);
        let pending = i
            .submit_batch([move || {
                g.wait();
                7
            }])
            .unwrap();
        // The caller reaches this point while the body is still blocked,
        // proving submit_batch does not wait.
        gate.wait();
        assert_eq!(pending.join().unwrap(), vec![7]);
    }

    #[test]
    fn batch_bodies_execute_concurrently() {
        // Every body waits on a shared barrier: the batch can only finish
        // if all four bodies run at the same time.
        let i = AsyscallInterface::new(
            4,
            8,
            ModeCost::new(ExecutionMode::Native, SgxCostModel::zero()),
        );
        let barrier = Arc::new(std::sync::Barrier::new(4));
        let set = i
            .submit_batch((0..4).map(|n| {
                let barrier = Arc::clone(&barrier);
                move || {
                    barrier.wait();
                    n * 10
                }
            }))
            .unwrap();
        let mut results = set.join().unwrap();
        results.sort_unstable();
        assert_eq!(results, vec![0, 10, 20, 30]);
        let stats = i.stats();
        assert_eq!(stats.batches, 1);
        assert!(
            stats.max_concurrency >= 4,
            "bodies did not overlap: {stats:?}"
        );
    }

    #[test]
    fn batch_delivers_in_lane_order_whatever_finishes_first() {
        let i = AsyscallInterface::new(
            2,
            8,
            ModeCost::new(ExecutionMode::Native, SgxCostModel::zero()),
        );
        // Body 0 blocks until body 1 has finished: lane 0 is still
        // delivered first.
        let (finished_tx, finished_rx) = std::sync::mpsc::channel();
        let bodies: Vec<Box<dyn FnOnce() -> usize + Send>> = vec![
            Box::new(move || {
                finished_rx.recv().unwrap();
                0
            }),
            Box::new(move || {
                finished_tx.send(()).unwrap();
                1
            }),
        ];
        let set = i.submit_batch(bodies).unwrap();
        assert_eq!(set.collect::<Vec<_>>(), vec![Ok(0), Ok(1)]);
    }

    #[test]
    fn slot_waits_counted_exactly_under_contention() {
        // One service thread, one slot: with the slot occupied by a blocked
        // body, every further submission must record exactly one wait.
        let i = Arc::new(AsyscallInterface::new(
            1,
            1,
            ModeCost::new(ExecutionMode::Native, SgxCostModel::zero()),
        ));
        let gate = Arc::new(std::sync::Barrier::new(2));
        let g = Arc::clone(&gate);
        let blocker = i
            .submit_batch([move || {
                g.wait();
            }])
            .unwrap();
        // Wait until the blocker actually occupies the slot.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
        while i.stats().max_concurrency < 1 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        let submitters: Vec<_> = (0..3)
            .map(|_| {
                let i = Arc::clone(&i);
                std::thread::spawn(move || i.submit(|| ()).unwrap())
            })
            .collect();
        // acquire_slot counts the wait *before* blocking, so polling the
        // counter until all three submitters have registered is
        // deterministic — no sleep-based guessing about scheduling.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while i.stats().slot_waits < 3 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(i.stats().slot_waits, 3, "submitters never blocked");
        gate.wait();
        for s in submitters {
            s.join().unwrap();
        }
        blocker.join().unwrap();
        // No extra waits were recorded while the queue drained.
        assert_eq!(i.stats().slot_waits, 3);
    }

    #[test]
    fn panicking_body_does_not_leak_slot_or_worker() {
        // One slot, one worker: if the panicking body leaked either, the
        // follow-up submissions would hang forever.
        let i = AsyscallInterface::new(
            1,
            1,
            ModeCost::new(ExecutionMode::Native, SgxCostModel::zero()),
        );
        let boom: Result<(), _> = i.submit(|| panic!("boom"));
        assert_eq!(boom, Err(SgxError::SyscallInterfaceClosed));
        for k in 0..4 {
            assert_eq!(i.submit(move || k).unwrap(), k);
        }
    }

    #[test]
    fn members_share_the_pool_and_count_their_own_submissions() {
        let pool = HostPool::new(64);
        let sgx = pool
            .join(
                2,
                16,
                ModeCost::new(ExecutionMode::Sgx, SgxCostModel::default()),
            )
            .unwrap();
        let native = pool
            .join(
                1,
                8,
                ModeCost::new(ExecutionMode::Native, SgxCostModel::default()),
            )
            .unwrap();
        assert_eq!((pool.stats().threads, pool.stats().slots), (3, 24));
        for k in 0..10u64 {
            assert_eq!(sgx.submit(move || k).unwrap(), k);
        }
        let set = native.submit_batch((0..4u32).map(|k| move || k)).unwrap();
        assert_eq!(set.join().unwrap(), vec![0, 1, 2, 3]);
        let (a, b) = (sgx.stats(), native.stats());
        assert_eq!((a.submitted, a.batches), (10, 0));
        assert_eq!((b.submitted, b.batches), (4, 1));
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
        while pool.stats().completed < 14 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(pool.stats().completed, 14);
        // A member leaving keeps the pool open for the others and gives its
        // threads back once they are idle.
        sgx.shutdown();
        assert_eq!(native.submit(|| 5).unwrap(), 5);
        let threads_become = |n: usize| {
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
            while pool.stats().threads != n {
                assert!(
                    std::time::Instant::now() < deadline,
                    "threads never reached {n}"
                );
                std::thread::yield_now();
            }
        };
        threads_become(1);
        // Slots stop at the capacity and stay when a member leaves.
        let big = pool
            .join(
                1,
                100,
                ModeCost::new(ExecutionMode::Native, SgxCostModel::zero()),
            )
            .unwrap();
        assert_eq!((pool.stats().threads, big.pool().stats().slots), (2, 64));
        // Once every member has left, one thread stays for calls they left
        // queued.
        let late = big.submit_batch((0..8u32).map(|k| move || k)).unwrap();
        drop((native, big));
        assert_eq!(late.join().unwrap(), (0..8).collect::<Vec<_>>());
        threads_become(1);
        // The thread that stayed owes nothing: a later member keeps all of
        // its own.
        let next = pool
            .join(
                2,
                8,
                ModeCost::new(ExecutionMode::Native, SgxCostModel::zero()),
            )
            .unwrap();
        assert_eq!(next.submit(|| 6).unwrap(), 6);
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(pool.stats().threads, 3);
    }

    #[test]
    fn a_closed_pool_abandons_what_is_handed_over() {
        // What `AsyscallInterface::new` hands out when no service thread
        // starts: a member whose slots joined a pool that is then closed.
        let pool = HostPool::new(8);
        let cost = ModeCost::new(ExecutionMode::Sgx, SgxCostModel::zero());
        let member = pool.join(1, 8, cost).unwrap();
        pool.shared.close();
        assert_eq!(member.submit(|| 1), Err(SgxError::SyscallInterfaceClosed));
        let set = member.submit_batch((0..3u32).map(|k| move || k)).unwrap();
        assert_eq!(set.join(), Err(SgxError::SyscallInterfaceClosed));
        // A joined call's own lane still runs on its caller.
        let set = member.submit_joined((0..2u32).map(|k| move || k)).unwrap();
        assert_eq!(
            set.collect::<Vec<_>>(),
            vec![Ok(0), Err(SgxError::SyscallInterfaceClosed)]
        );
    }

    #[test]
    fn empty_batch_joins_immediately() {
        let i = iface();
        let set = i.submit_batch(std::iter::empty::<fn() -> u32>()).unwrap();
        assert!(set.is_empty());
        assert_eq!(set.join().unwrap(), Vec::<u32>::new());
    }
}
