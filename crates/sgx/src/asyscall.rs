//! Asynchronous system-call interface (FlexSC / Scone style).
//!
//! Control-transfer instructions are forbidden inside SGX enclaves, so every
//! system call would normally require an expensive enclave exit. Scone, and
//! therefore Pesos, instead places system-call arguments into shared-memory
//! *slots*, enqueues the slot index on a *submission queue*, and lets
//! untrusted *service threads* outside the enclave execute the call and push
//! the result onto a *return queue* (paper §4.6, "I/O interface"). The point
//! of the design is that neither side pays a kernel transition per call: the
//! service threads *poll* the submission queue and the enclave thread picks
//! the result off the return queue. This module keeps that property: on the
//! fast path a hand-off takes no lock and makes no system call, and a thread
//! goes to sleep only after the other side has stayed silent for about as
//! long as the sleep itself would cost.
//!
//! # Slots and the submission ring
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
//! thread frees one.
//!
//! The index of a `QUEUED` slot travels to the service threads through a
//! bounded multi-producer multi-consumer `Ring` (per-cell sequence
//! numbers, after Vyukov) with at least as many cells as there are slots,
//! so it never holds more indices than it has cells.
//!
//! # Completions
//!
//! Every submission, single or scatter-gather, reports into one `Batch`:
//! `n` lanes, each a result cell (again a `Handoff`) and an *entry word*.
//! Entries record completion order: the `i`-th call to finish writes its
//! result into its own cell and then publishes its index in entry `i`.
//!
//! ```text
//! entry:  PENDING (0) --filler swaps in index + 1--> DONE          [| PARKED, set by the waiter]
//! ```
//!
//! A call whose body was dropped unrun or panicked publishes the same way
//! with its cell left empty: `DONE` over an empty cell reads as
//! [`SgxError::SyscallInterfaceClosed`]. The waiter owns the set, reads
//! entries in order and takes each result out of the cell the entry names,
//! which is what gives [`CompletionSet::next_completed`] completion order,
//! first-success races and a first-error-wins `join` without a queue.
//!
//! There are three entry points and one handle:
//!
//! * [`AsyscallInterface::submit`]: the synchronous wrapper Scone exposes
//!   to the application; a batch of one, joined at once.
//! * [`AsyscallInterface::submit_batch`]: the scatter-gather path: N
//!   bodies are enqueued back-to-back and a [`CompletionSet`] hands back
//!   results in completion order, so callers can join all of them, take
//!   the first success and leave the rest to finish in the background,
//!   keep a call in flight while they do something else (a batch of one,
//!   joined later), or drop the set and let the calls run unobserved.
//! * [`AsyscallInterface::submit_joined`]: the same set, for a caller that
//!   reads it at once (replicated writes and raced replicated reads): its
//!   first call may run on the caller (below, "When nobody is free: the
//!   exit").
//!
//! A submission allocates its `Batch` and nothing else: the batch holds
//! the bodies as well as the result cells, and a slot holds a reference
//! to it and a lane number. That is one allocation for a single call
//! (lane 0 is inline) and three for more (the other lanes' cells and
//! bodies).
//!
//! # The two park protocols
//!
//! Both are the same announce-then-recheck handshake, and every word they
//! use is read and written `SeqCst`, so all of these accesses fall into one
//! total order that both threads agree on.
//!
//! *Waiter and filler* (one entry word). The filler writes the result,
//! swaps `index + 1` into the entry and looks at what it displaced: only if
//! the `PARKED` bit was there does it take the batch's park mutex and
//! signal the condvar. The waiter, when it gives up spinning, takes the
//! park mutex first, then sets `PARKED` with a `fetch_or` and looks at what
//! *it* displaced: if the entry was already `DONE` it does not sleep. The
//! swap and the `fetch_or` are ordered one way or the other. Swap first:
//! the waiter sees `DONE`. `fetch_or` first: the filler sees `PARKED`, and
//! because the waiter holds the mutex from before the `fetch_or` until the
//! condvar wait releases it, the filler's signal cannot fall into the gap
//! before the sleep.
//!
//! *Submitter and service threads* (the ring, the poller token, the sleeper
//! count and the wake tickets). A service thread that finds the ring empty
//! either takes the *poller token* and polls for a bounded time, or goes to
//! sleep: it gives the token back if it held it, takes the pool's
//! park mutex, adds itself to the sleeper count, pops the ring once more,
//! and only then waits. A sleeper resumes when it can take a *wake
//! ticket*, issued under the same mutex (so a spurious wake-up cannot
//! consume a signal meant for someone else); from issue to resumption the
//! sleeper counts as `waking`.
//!
//! A submitter pushes its index and then *hands the call over*: it does not
//! return to its caller before one of these holds.
//!
//! * The call was taken (the ring's head passed the push's position). This
//!   is what the submitter waits for while some thread holds the token,
//!   for at most `WAKE_COST`: the holder is awake, polling or inside a
//!   short body, and comes back to the ring.
//! * The token was free, was given back, or the wait ran out, and the
//!   submitter *signalled*: it read the `waking` count and, if that
//!   promised too few threads, the sleeper count, and issued a ticket to a
//!   sleeper if there was one. The token holder is never counted here: it
//!   may be inside a body that does not end.
//!
//! So a queued call whose submitter has left has a ticket holder coming
//! for the ring, or no service thread was asleep. In the second case each
//! of them is running a body and pops when it returns, or is about to
//! announce itself, and its re-check pop comes after the announcement,
//! which comes after the submitter's read of the count, which comes after
//! the push. A holder that gives the token back does so *before* the
//! re-check pop of its sleep, so a submitter that saw the token held and
//! then free is ordered before that pop as well. A thread that comes for
//! the ring may take an older call and leave this one: it then signals in
//! its turn before it runs the body, unless it held the token when it
//! popped. (Calls queued under a held token still have their submitters
//! watching; those queued before were signalled for, and the ticket holder
//! on its way signals when it arrives.) Hence no queued call ever depends
//! on a running body coming to an end while a service thread sleeps:
//! bodies that wait for one another get a thread each, whether or not
//! anyone waits on their completions.
//!
//! Table-full submitters use the same handshake on a waiter count: a
//! service thread frees the slot, then reads the count, and signals only
//! if someone announced.
//!
//! # Who is woken, who polls, who spins
//!
//! Sleeping and being woken costs a thread two kernel entries and, when
//! the waker sits on another core, the latency of bringing a halted core
//! back: tens of microseconds on the virtual hosts this runs on
//! (`WAKE_COST`), against call bodies that are often a tenth of that.
//! The service threads measure every body they run and keep a running
//! mean; everything below is decided from that mean, the length of the
//! ring, and what the waits themselves observe. Nothing is configured.
//!
//! * **One hot thread for short bodies.** While the mean says one thread
//!   clears what is queued sooner than a sleeper could wake up
//!   (`queued × mean ≤ WAKE_COST`), one ticket at a time is enough, and a
//!   thread that holds the token, or finds it free when it takes work,
//!   keeps it through the body it runs: submitters wait for it instead of
//!   waking a second thread, so two clients keep one service thread hot
//!   rather than waking two in turn. Once bodies are long, every queued
//!   call wants a thread of its own, as through a channel: the holder lets
//!   go of the token before it runs a body and each push wakes a sleeper.
//! * **Pollers.** A service thread polls only while the mean is below
//!   `WAKE_COST`, and for at most that long.
//! * **Spinning waiters.** A waiter spins only while the mean is below
//!   `WAKE_COST` (a workload of long calls, a disk-model drive or a
//!   64 KiB write, parks at once instead of paying a spin per call first),
//!   only while a service thread is awake (if all sleep, its call waits
//!   for a wake-up anyway), and for at most `WAKE_COST`, so it never
//!   loses more than it could have won.
//! * **Every active wait gives way.** A hand-over, a waiter's spin and a
//!   poll all yield the core between two checks, so that on a busy host
//!   the thread being waited for can run; with a core to spare a yield
//!   returns in a fraction of a microsecond. A yield that took long
//!   (`YIELD_CONTENDED`) means the core went to somebody else. A waiter or
//!   poller then checks once more and sleeps, because a sleeper is woken
//!   ahead of a thread that keeps yielding; a hand-over just looks again,
//!   since the thread that got the core is most likely the holder.
//!
//! With `available_parallelism() == 1` neither side spins: the thread being
//! waited for can only run once the waiting thread gets off the core, so
//! every hand-off sleeps at once, as it would through a channel. The token
//! is never taken, so every push signals, and the protocols above are
//! otherwise unchanged.
//!
//! # When nobody is free: the exit
//!
//! A hand-off pays only while a service thread is free to take the call.
//! When every awake service thread is inside a body, or none is awake, a
//! call handed over waits for a body to end or for a wake-up, and so does
//! its caller. Intel's SGX SDK takes the plain way out for its switchless
//! calls (Tian et al., "Switchless Calls Made Practical in Intel SGX",
//! SysTEX 2018): the caller leaves the enclave and makes the call itself.
//! [`AsyscallInterface::submit_joined`] does the same. It hands its lanes
//! after the first over as usual, then reads the pool's counters the way
//! the rules above do, so nothing is configured: if no awake service
//! thread is idle (`active ≥ threads − sleepers − waking`), lane 0 runs on
//! the calling thread, charged as one [`CostEvent::EnclaveTransition`]
//! instead of a [`CostEvent::AsyncSyscall`] and counted in
//! [`AsyscallStats::exits`]; otherwise it is handed over too. The calling
//! thread contains the body as a service thread does: a panic abandons the
//! call, which reads as [`SgxError::SyscallInterfaceClosed`], and the
//! thread carries on.
//!
//! Only joined calls qualify. [`AsyscallInterface::submit_batch`] returns
//! once its bodies are handed over, so that its caller can overlap work
//! with them or drop the set and let them run unobserved; running one of
//! them first would take both away. A joined caller has nothing to
//! overlap: it waits in any case, and with no thread free it would wait
//! for a running body to end or for a wake-up (about `WAKE_COST`, tens of
//! microseconds) where the exit costs one transition (3 µs in the default
//! cost model).
//! One lane at most exits, after the others are handed over, so a
//! replicated write still reaches its replicas in parallel: the caller's
//! lane beside the service threads'.
//!
//! An exit never touches a slot, the ring or either park protocol, so
//! none of them changes, and it wakes nobody. With one CPU every service
//! thread sleeps between calls, so every joined call exits where it used
//! to sleep and be woken. On more cores the same holds once every service
//! thread has gone to sleep: only a call that is handed over (a second
//! replica's lane, a `submit_batch`) wakes one again. On the 2-vCPU
//! reference host, two clients of a one-drive controller then run every
//! joined call as an exit (0.88 exits and no hand-off per operation of a
//! 95/5 read/write mix), while with two replicas each write and each raced
//! read hands its second lane over and keeps the pool awake (0.55 exits
//! and 1.2 hand-offs per operation).
//!
//! # One host pool
//!
//! Everything above (slots, ring, service threads, both park protocols) is
//! the host side, a [`HostPool`]. An enclave's [`AsyscallInterface`] is its
//! submission side of one: the enclave's cost model and its own counters
//! (`submitted`, `batches`, `slot_waits`, and its submitters' parks and
//! spin hits). A single controller builds a pool of its own
//! ([`AsyscallInterface::new`]). A cluster builds one pool for every
//! controller it runs, primaries and backups alike, and each
//! [joins](HostPool::join) it with its own service threads and slots, so
//! the pool has as many of both as the private pools would have had
//! together (up to the slot capacity the pool was built with).
//!
//! The reason is the premise of this module: a service thread is cheap only
//! while it is hot, and it stays hot only while calls arrive within
//! `WAKE_COST` of each other. Eight enclaves with a pool each see a call
//! every ~100 µs apiece and park between calls, paying a cross-core wake-up
//! per hand-off; one pool sees all of their calls and keeps one thread
//! polling. Each member still charges its own cost model, so a native
//! member of a cluster of SGX members charges nothing. The pool's own
//! counters ([`PoolStats`]: completions, peak concurrency, service-thread
//! parks and poll hits) are pool-wide. A member that leaves (its interface
//! dropped) gives its service threads back: that many threads exit instead
//! of taking more work, though never the pool's last, so a cluster that
//! adds and removes controllers does not gain threads. A retiring thread
//! signals for what is queued before it exits, as any thread about to stop
//! looking at the ring does, so the hand-over rules above still hold for
//! the threads that remain. Its slots stay in the table, which the pool's
//! capacity bounds. On a shared 2-vCPU host one set-up of the benchmark's
//! four-partition replicated cluster went from 30–36 k voluntary context
//! switches to 2–4 k with one pool (and shippers that wake per batch of
//! records, `pesos_cluster::replication`).
//!
//! Sharing keeps the rule every pool already had: a call body must never
//! wait on another call of its own pool, whose service threads may all be
//! running bodies that wait the same way. The cluster's migration drain,
//! whose bodies do store I/O, has a pool of its own for that reason.
//!
//! The calling thread would normally switch to another user-level thread
//! while waiting; that interleaving is provided by
//! [`crate::scheduler::UserScheduler`].

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::cost::{CostEvent, ModeCost};
use crate::error::SgxError;

/// About what one sleep/wake pair costs across cores on the reference
/// host. Bounds every active wait (a submitter's hand-over, a waiter's
/// spin on its completion, a service thread's poll of an empty ring) and
/// the backlog one service thread is left to clear alone, and is the mean
/// body run time above which nobody waits actively at all: waiting out a
/// body costs less than a wake-up only while the body is the shorter of
/// the two.
const WAKE_COST: Duration = Duration::from_micros(40);
/// A yield that takes longer than this gave the core to somebody: the
/// host has no core to spare for spinning right now.
const YIELD_CONTENDED: Duration = Duration::from_micros(3);

/// Counters describing one interface's activity. Everything is counted on
/// the submitting enclave's side except `completed` and `max_concurrency`,
/// which are the host pool's ([`PoolStats`]) and so cover every member.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AsyscallStats {
    /// Calls submitted by this enclave's threads.
    pub submitted: u64,
    /// Calls completed by the host pool's service threads, for any member.
    pub completed: u64,
    /// Times a submitter had to wait because all slots were busy.
    pub slot_waits: u64,
    /// Scatter-gather batches submitted via `submit_batch` or
    /// `submit_joined`.
    pub batches: u64,
    /// Highest number of call bodies ever executing concurrently in the
    /// host pool.
    pub max_concurrency: u64,
    /// Times a submitter went to sleep in the hand-off, waiting for a
    /// completion or a free slot. The service threads' sleeps are the
    /// pool's ([`PoolStats::parks`]).
    pub parks: u64,
    /// Submitter waits that ended while the thread was still spinning, and
    /// so cost no sleep.
    pub spin_hits: u64,
    /// Calls of joined submissions that no service thread was free to take
    /// and that ran on their caller, each charged as one enclave transition
    /// (module docs, "When nobody is free: the exit"). Not in `submitted`:
    /// a member's calls are its `submitted` plus its `exits`.
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
// Ring: the submission queue of slot indices
// ---------------------------------------------------------------------------

/// Keeps the two ends of the ring off each other's cache line.
#[repr(align(64))]
struct Padded<T>(T);

struct RingCell {
    /// `position` when the cell is free for the push at `position`,
    /// `position + 1` once that push has stored `index`, and
    /// `position + capacity` after the matching pop.
    sequence: AtomicUsize,
    index: AtomicUsize,
}

/// Bounded multi-producer multi-consumer queue of slot indices.
struct Ring {
    cells: Box<[RingCell]>,
    mask: usize,
    head: Padded<AtomicUsize>,
    tail: Padded<AtomicUsize>,
}

impl Ring {
    /// A ring with room for at least `capacity` indices.
    fn new(capacity: usize) -> Self {
        let capacity = capacity.max(2).next_power_of_two();
        Ring {
            cells: (0..capacity)
                .map(|position| RingCell {
                    sequence: AtomicUsize::new(position),
                    index: AtomicUsize::new(0),
                })
                .collect(),
            mask: capacity - 1,
            head: Padded(AtomicUsize::new(0)),
            tail: Padded(AtomicUsize::new(0)),
        }
    }

    fn cell(&self, position: usize) -> &RingCell {
        // pesos-lint: allow(panic_freedom, "cells.len() is mask + 1, a power of two, so position & mask is in range")
        &self.cells[position & self.mask]
    }

    /// Appends `index` and returns its position in the queue. The slot
    /// table admits no more calls than the ring has cells, so a full ring
    /// only means a pop of an earlier lap has claimed its cell and not yet
    /// released it; the push waits that out.
    fn push(&self, index: usize) -> usize {
        let mut position = self.tail.0.load(Ordering::SeqCst);
        loop {
            let cell = self.cell(position);
            let sequence = cell.sequence.load(Ordering::SeqCst);
            if sequence == position {
                match self.tail.0.compare_exchange_weak(
                    position,
                    position.wrapping_add(1),
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                ) {
                    Ok(_) => {
                        cell.index.store(index, Ordering::SeqCst);
                        cell.sequence
                            .store(position.wrapping_add(1), Ordering::SeqCst);
                        return position;
                    }
                    Err(current) => position = current,
                }
            } else {
                if (sequence.wrapping_sub(position) as isize) < 0 {
                    std::thread::yield_now();
                }
                position = self.tail.0.load(Ordering::SeqCst);
            }
        }
    }

    /// Removes the oldest index, if any push has completed.
    fn pop(&self) -> Option<usize> {
        let mut position = self.head.0.load(Ordering::SeqCst);
        loop {
            let cell = self.cell(position);
            let sequence = cell.sequence.load(Ordering::SeqCst);
            let ready = position.wrapping_add(1);
            if sequence == ready {
                match self.head.0.compare_exchange_weak(
                    position,
                    ready,
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                ) {
                    Ok(_) => {
                        let index = cell.index.load(Ordering::SeqCst);
                        cell.sequence.store(
                            position.wrapping_add(self.mask).wrapping_add(1),
                            Ordering::SeqCst,
                        );
                        return Some(index);
                    }
                    Err(current) => position = current,
                }
            } else if (sequence.wrapping_sub(ready) as isize) < 0 {
                return None;
            } else {
                position = self.head.0.load(Ordering::SeqCst);
            }
        }
    }

    /// Whether the index pushed at `position` has been popped. The queue
    /// is first-in first-out, so everything pushed before it has been too.
    fn taken(&self, position: usize) -> bool {
        (self.head.0.load(Ordering::SeqCst).wrapping_sub(position) as isize) > 0
    }

    /// How many indices are queued, give or take pushes and pops in
    /// progress: good for a scheduling decision, never for a wake-up
    /// argument (those re-check with `pop`).
    fn len(&self) -> usize {
        let head = self.head.0.load(Ordering::SeqCst);
        self.tail.0.load(Ordering::SeqCst).wrapping_sub(head)
    }
}

// ---------------------------------------------------------------------------
// Batches: result cells and completion-order entries
// ---------------------------------------------------------------------------

/// Set in an entry by a waiter that is about to sleep on it.
const PARKED: u32 = 1 << 31;

struct Lane<T> {
    /// `0` while pending, then the finished call's index plus one;
    /// [`PARKED`] may be set on top by the waiter.
    entry: AtomicU32,
    cell: Handoff<T>,
}

/// What one submission (a single call or a scatter-gather batch) reports
/// into: a result cell per call and the order in which calls finished,
/// and, in `bodies`, the calls themselves until each is taken to run. A
/// [`CompletionSet`] sees the bodies erased (`B` unsized); a slot sees the
/// whole batch as a [`Run`].
struct Batch<T, B: ?Sized = dyn Send + Sync> {
    /// Entries published so far; each call claims the next.
    finished: AtomicU32,
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
            entry: AtomicU32::new(0),
            cell: Handoff::new(),
        }
    }
}

/// The bodies of a submission's calls, one cell per lane, laid out as the
/// lanes are. Whoever takes a body (a service thread, the exit, or a close
/// that drops it) owns it from then on.
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
            finished: AtomicU32::new(0),
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

/// A call in a slot: the batch it belongs to and its lane. One dropped
/// without having run (a pool that closes drops what is queued) abandons
/// its lane, so its waiter sees [`SgxError::SyscallInterfaceClosed`].
struct QueuedCall {
    batch: Arc<dyn Run>,
    lane: u32,
}

impl QueuedCall {
    fn run(&self) {
        self.batch.run(self.lane);
    }
}

impl Drop for QueuedCall {
    fn drop(&mut self) {
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

    /// Publishes call `index` as the next one finished and wakes the
    /// waiter if it sleeps on that entry.
    fn publish(&self, index: u32) {
        let position = self.finished.fetch_add(1, Ordering::SeqCst);
        let Some(lane) = self.lane(position as usize) else {
            return;
        };
        if lane.entry.swap(index + 1, Ordering::SeqCst) & PARKED != 0 {
            // The waiter set PARKED under this mutex and holds it until its
            // condvar wait begins; passing through it puts the signal after
            // that point.
            drop(self.park.lock());
            self.done.notify_one();
        }
    }

    /// Waits until entry `position` is published and returns the index of
    /// the call that finished there: spinning first while the host pool
    /// says a spin can pay, then asleep. The waits are `submitter`'s.
    fn await_entry(&self, position: usize, submitter: &Submitter) -> Option<usize> {
        let shared = &*submitter.shared;
        let entry = &self.lane(position)?.entry;
        let finished = |word: u32| (word & !PARKED).checked_sub(1).map(|index| index as usize);
        if let Some(index) = finished(entry.load(Ordering::SeqCst)) {
            return Some(index);
        }
        if shared.spin_can_pay() {
            let start = Instant::now();
            while shared.service_awake() && start.elapsed() < WAKE_COST {
                let contended = relax();
                if let Some(index) = finished(entry.load(Ordering::SeqCst)) {
                    submitter.spin_hits.fetch_add(1, Ordering::Relaxed);
                    return Some(index);
                }
                if contended {
                    break;
                }
            }
        }
        let mut guard = self.park.lock();
        let mut word = entry.fetch_or(PARKED, Ordering::SeqCst);
        if finished(word).is_none() {
            submitter.parks.fetch_add(1, Ordering::Relaxed);
        }
        loop {
            if let Some(index) = finished(word) {
                return Some(index);
            }
            self.done.wait(&mut guard);
            word = entry.load(Ordering::SeqCst);
        }
    }
}

/// One step of an active wait: yields the core, so that a thread being
/// waited for can run if the two share one. Returns whether the yield
/// found the core contended.
fn relax() -> bool {
    let start = Instant::now();
    std::thread::yield_now();
    start.elapsed() > YIELD_CONTENDED
}

/// A joinable set of completions produced by one submission.
///
/// A set dropped before every result was delivered (a raced read that
/// stopped at the first success, a call nobody waits on) leaves its calls
/// running: they write into cells the set's `Batch` keeps alive until the
/// last of them has published.
pub struct CompletionSet<T> {
    batch: Arc<Batch<T>>,
    delivered: usize,
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

    /// Blocks until the next not-yet-delivered call finishes, returning its
    /// submission index and result. Returns `None` once every call has been
    /// delivered.
    ///
    /// Results come back in *completion order*, which is what lets callers
    /// race a batch and stop at the first usable result.
    pub fn next_completed(&mut self) -> Option<(usize, Result<T, SgxError>)> {
        // No lane past the last call: `None` once all are delivered.
        let index = self.batch.await_entry(self.delivered, &self.submitter)?;
        self.delivered += 1;
        let result = self
            .batch
            .lane(index)
            .and_then(|lane| lane.cell.take())
            .map(|(value, _)| value)
            .ok_or(SgxError::SyscallInterfaceClosed);
        Some((index, result))
    }

    /// Joins the whole batch, returning results in submission order.
    ///
    /// The first abandoned call (interface shut down mid-batch) aborts the
    /// join: first error wins.
    pub fn join(mut self) -> Result<Vec<T>, SgxError> {
        let mut out: Vec<Option<T>> = (0..self.len()).map(|_| None).collect();
        while let Some((index, result)) = self.next_completed() {
            if let Some(place) = out.get_mut(index) {
                *place = Some(result?);
            }
        }
        out.into_iter()
            .collect::<Option<Vec<T>>>()
            .ok_or(SgxError::SyscallInterfaceClosed)
    }

    /// The single result of a one-call set.
    pub fn wait_single(mut self) -> Result<T, SgxError> {
        match self.next_completed() {
            Some((_, result)) => result,
            None => Err(SgxError::SyscallInterfaceClosed),
        }
    }
}

// ---------------------------------------------------------------------------
// The interface
// ---------------------------------------------------------------------------

/// What the host pool's park mutex guards: the service threads asleep, the
/// wake tickets issued to them and not yet taken, the service threads that
/// members which left have given back and that have not exited yet, and
/// the handles of the service threads, for [`HostPool`]'s shutdown.
#[derive(Default)]
struct Parking {
    sleeping: usize,
    tickets: usize,
    retiring: usize,
    workers: Vec<JoinHandle<()>>,
}

/// How a service thread's sleep ended.
enum Woken {
    /// The re-check before sleeping found this slot index.
    Work(usize),
    /// Somebody issued this sleeper a wake ticket because work is queued.
    Signalled,
    Closed,
}

/// The host side: slots, ring, service threads and the park protocol.
struct Shared {
    /// The shared-memory system-call slots: each holds the parked call
    /// body from submission until a service thread takes it, and stays
    /// occupied until the body has run. Allocated at the pool's capacity;
    /// only the first `slot_count` are in use.
    slots: Box<[Handoff<QueuedCall>]>,
    /// Slots the members have brought so far (at most `slots.len()`).
    slot_count: AtomicUsize,
    ring: Ring,
    /// Where the next claim starts its scan of the slot table.
    claim_from: AtomicUsize,
    /// Whether this host has a second core for a waiting thread to spin on.
    spin: bool,
    /// The poller token: set while one service thread holds it, polling
    /// the ring or running a short body it took while polling.
    token: AtomicBool,
    /// Mirrors `Parking::sleeping` for the lock-free check in `signal_work`.
    sleepers: AtomicUsize,
    /// How many service threads there are.
    threads: AtomicUsize,
    /// Mirrors `Parking::retiring` for the lock-free check in `next_work`.
    retiring: AtomicUsize,
    /// Sleepers that hold a wake ticket and have not resumed yet.
    waking: AtomicUsize,
    /// Submitters asleep (or about to be) because the slot table is full.
    slot_waiters: AtomicUsize,
    park: Mutex<Parking>,
    work: Condvar,
    slot_freed: Condvar,
    closed: AtomicBool,
    /// Running mean of body run times in nanoseconds.
    mean_run_ns: AtomicU64,
    completed: AtomicU64,
    active: AtomicUsize,
    max_concurrency: AtomicU64,
    /// Times a service thread went to sleep with no work.
    parks: AtomicU64,
    /// Polls of the ring that found work.
    spin_hits: AtomicU64,
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

    /// Issues a wake ticket to one sleeping service thread, if there is
    /// one. From here until it resumes that thread counts as `waking`.
    fn wake_sleeper(&self) {
        if self.sleepers.load(Ordering::SeqCst) == 0 {
            return;
        }
        let mut parking = self.park.lock();
        if parking.sleeping == 0 {
            return;
        }
        parking.sleeping -= 1;
        parking.tickets += 1;
        self.sleepers.store(parking.sleeping, Ordering::SeqCst);
        self.waking.fetch_add(1, Ordering::SeqCst);
        drop(parking);
        self.work.notify_one();
    }

    /// Whether one service thread clears `queued` calls sooner than a
    /// sleeper could wake up to help, going by the mean body run time.
    fn one_thread_suffices(&self, queued: usize) -> bool {
        self.mean_run_ns
            .load(Ordering::Relaxed)
            .saturating_mul(queued as u64)
            <= WAKE_COST.as_nanos() as u64
    }

    /// Wakes a sleeper unless enough of them hold a ticket and are on
    /// their way already: one while bodies are short, one per queued call
    /// once they are not. The token holder is not counted. Whoever calls
    /// this is about to stop looking at the ring, and the holder may be
    /// inside a body that never ends.
    fn signal_work(&self) {
        let queued = self.ring.len();
        if queued == 0 {
            return;
        }
        let wanted = if self.one_thread_suffices(queued) {
            1
        } else {
            queued
        };
        if self.waking.load(Ordering::SeqCst) < wanted {
            self.wake_sleeper();
        }
    }

    /// Called by a service thread that has just taken work, with `holding`
    /// saying whether it held the token when it did. A thread that holds
    /// it, or finds it free, keeps it through the body it is about to run
    /// if it expects to be back polling, queue cleared, sooner than a woken
    /// sleeper could be here; otherwise it lets go.
    ///
    /// Calls queued under a held token are watched by their submitters
    /// (`hand_over`). The rest were left to whoever was awake or waking,
    /// which may be this thread, now about to stop looking: unless it was
    /// the holder all along, it signals for what it leaves queued.
    fn settle_token(&self, holding: &mut bool) {
        let held = *holding;
        let queued = self.ring.len();
        let have = held || self.take_token();
        *holding = have && self.one_thread_suffices(queued + 1);
        if have && !*holding {
            self.token.store(false, Ordering::SeqCst);
        }
        if !held {
            self.signal_work();
        }
    }

    /// Polls the ring, token in hand, until work arrives, the budget runs
    /// out, a yield shows that somebody else wants the core, or the
    /// interface closes.
    fn poll(&self) -> Option<usize> {
        let start = Instant::now();
        let mut contended = false;
        while !self.closed.load(Ordering::SeqCst) {
            if let Some(index) = self.ring.pop() {
                self.spin_hits.fetch_add(1, Ordering::Relaxed);
                return Some(index);
            }
            if contended || start.elapsed() >= WAKE_COST {
                return None;
            }
            contended = relax();
        }
        None
    }

    /// Goes to sleep until issued a wake ticket: announces itself,
    /// re-checks the ring and the closed flag, and only then waits.
    fn sleep(&self) -> Woken {
        let mut parking = self.park.lock();
        parking.sleeping += 1;
        self.sleepers.store(parking.sleeping, Ordering::SeqCst);
        let early = match self.ring.pop() {
            Some(index) => Some(Woken::Work(index)),
            None if self.closed.load(Ordering::SeqCst) => Some(Woken::Closed),
            None => None,
        };
        if let Some(early) = early {
            parking.sleeping -= 1;
            self.sleepers.store(parking.sleeping, Ordering::SeqCst);
            return early;
        }
        self.parks.fetch_add(1, Ordering::Relaxed);
        loop {
            self.work.wait(&mut parking);
            if parking.tickets > 0 {
                parking.tickets -= 1;
                self.waking.fetch_sub(1, Ordering::SeqCst);
                return Woken::Signalled;
            }
            if self.closed.load(Ordering::SeqCst) {
                parking.sleeping -= 1;
                self.sleepers.store(parking.sleeping, Ordering::SeqCst);
                return Woken::Closed;
            }
        }
    }

    /// Takes the poller token if it is free and this host spins at all.
    fn take_token(&self) -> bool {
        self.spin
            && !self.token.load(Ordering::SeqCst)
            && self
                .token
                .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
    }

    /// The next slot index for a service thread to run, or `None` once the
    /// interface is closed. `holding` is whether this thread holds the
    /// poller token, on entry and on return.
    fn next_work(&self, holding: &mut bool) -> Option<usize> {
        loop {
            let closed = self.closed.load(Ordering::SeqCst);
            if closed || self.retire() {
                if std::mem::take(holding) {
                    self.token.store(false, Ordering::SeqCst);
                }
                if !closed {
                    // This thread stops looking at the ring for good.
                    self.signal_work();
                }
                return None;
            }
            let mut found = self.ring.pop();
            if found.is_none() && self.spin_can_pay() {
                *holding = *holding || self.take_token();
                if *holding {
                    found = self.poll();
                }
            }
            if let Some(index) = found {
                self.settle_token(holding);
                return Some(index);
            }
            if std::mem::take(holding) {
                // Give the token back before the sleep's re-check, so a
                // submitter that saw it held is covered by that re-check.
                self.token.store(false, Ordering::SeqCst);
            }
            match self.sleep() {
                Woken::Work(index) => {
                    self.settle_token(holding);
                    return Some(index);
                }
                Woken::Signalled => {}
                Woken::Closed => return None,
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
        let start = Instant::now();
        // Contain a panicking body: its lane is published during the unwind
        // with the cell empty (waiters see the call as abandoned), and the
        // slot and this service thread both survive instead of leaking.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| call.run()));
        drop(call);
        let run_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        // mean += (sample - mean) / 8; a lost update between two service
        // threads loses one sample of a statistic.
        let mean = self.mean_run_ns.load(Ordering::Relaxed);
        self.mean_run_ns
            .store(mean - mean / 8 + run_ns / 8, Ordering::Relaxed);
        self.active.fetch_sub(1, Ordering::SeqCst);
        self.completed.fetch_add(1, Ordering::Relaxed);
        // The slot stayed occupied for the call's whole lifetime, like the
        // real shared-memory slot.
        drop(occupied);
        if self.slot_waiters.load(Ordering::SeqCst) > 0 {
            drop(self.park.lock());
            self.slot_freed.notify_one();
        }
        if outcome.is_err() {
            eprintln!("asyscall: system-call body panicked; call abandoned");
        }
    }

    /// Gives back `threads` service threads: as many threads as are awake
    /// or woken here exit instead of taking more work, but never the last
    /// one. What the last one would owe is forgiven, so a member that joins
    /// later keeps every thread it brings.
    fn give_back(&self, threads: usize) {
        let mut parking = self.park.lock();
        let running = self.threads.load(Ordering::SeqCst);
        parking.retiring = (parking.retiring + threads).min(running.saturating_sub(1));
        self.retiring.store(parking.retiring, Ordering::SeqCst);
        drop(parking);
        for _ in 0..threads {
            self.wake_sleeper();
        }
    }

    /// Whether the calling service thread is to exit, given back by a
    /// member that left; it then no longer counts among the threads. A
    /// pool keeps at least one thread, so calls a departed member left
    /// queued still run.
    fn retire(&self) -> bool {
        if self.retiring.load(Ordering::SeqCst) == 0 {
            return false;
        }
        let mut parking = self.park.lock();
        if parking.retiring == 0 || self.threads.load(Ordering::SeqCst) <= 1 {
            return false;
        }
        parking.retiring -= 1;
        self.retiring.store(parking.retiring, Ordering::SeqCst);
        self.threads.fetch_sub(1, Ordering::SeqCst);
        true
    }

    /// Whether a waiter may spin at all: a second core exists and bodies
    /// have lately been short enough to be worth waiting out.
    fn spin_can_pay(&self) -> bool {
        self.spin && self.one_thread_suffices(1)
    }

    /// Whether no awake service thread is idle: every one that is awake is
    /// inside a body, or none is awake (all asleep, or signalled and not
    /// yet resumed). A call handed over now would wait for a body to end
    /// or for a wake-up; the joined path runs it on its caller instead.
    fn nobody_free(&self) -> bool {
        let asleep = self.sleepers.load(Ordering::SeqCst) + self.waking.load(Ordering::SeqCst);
        let awake = self.threads.load(Ordering::SeqCst).saturating_sub(asleep);
        self.active.load(Ordering::SeqCst) >= awake
    }

    /// Whether some service thread is awake to make a waiter's spin end:
    /// polling, running a body, or on its way between the two. A sleeper
    /// that was signalled but has not resumed does not count: waiting for
    /// it is waiting for a wake-up.
    fn service_awake(&self) -> bool {
        self.sleepers.load(Ordering::SeqCst) + self.waking.load(Ordering::SeqCst)
            < self.threads.load(Ordering::SeqCst)
    }

    /// Closes the pool: service threads exit after the body they are
    /// running, and bodies still queued are dropped unrun, which abandons
    /// their waiters.
    fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
        while let Some(index) = self.ring.pop() {
            drop(self.slots.get(index).and_then(Handoff::take));
        }
        drop(self.park.lock());
        self.work.notify_all();
    }
}

/// The host side of the interface: the untrusted service threads, the slot
/// table and the submission ring that any number of enclaves submit to.
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
    /// Polls of an empty ring that ended with work, and so cost no sleep.
    pub spin_hits: u64,
}

impl HostPool {
    /// An empty pool with room for `capacity` system-call slots. Members
    /// joining once the table is full bring service threads only.
    pub fn new(capacity: usize) -> Arc<HostPool> {
        let capacity = capacity.max(1);
        Arc::new(HostPool {
            shared: Arc::new(Shared {
                slots: (0..capacity).map(|_| Handoff::new()).collect(),
                slot_count: AtomicUsize::new(0),
                ring: Ring::new(capacity),
                claim_from: AtomicUsize::new(0),
                spin: std::thread::available_parallelism().is_ok_and(|cores| cores.get() > 1),
                token: AtomicBool::new(false),
                sleepers: AtomicUsize::new(0),
                threads: AtomicUsize::new(0),
                retiring: AtomicUsize::new(0),
                waking: AtomicUsize::new(0),
                slot_waiters: AtomicUsize::new(0),
                park: Mutex::with_rank(parking_lot::lock_order::ASYSCALL_PARK, Parking::default()),
                work: Condvar::new(),
                slot_freed: Condvar::new(),
                closed: AtomicBool::new(false),
                mean_run_ns: AtomicU64::new(0),
                completed: AtomicU64::new(0),
                active: AtomicUsize::new(0),
                max_concurrency: AtomicU64::new(0),
                parks: AtomicU64::new(0),
                spin_hits: AtomicU64::new(0),
            }),
        })
    }

    /// Adds a member: grows the pool by `service_threads` threads and
    /// `slots` slots, and returns the member's submission side, which
    /// charges the member's own `cost`.
    pub fn join(
        self: &Arc<Self>,
        service_threads: usize,
        slots: usize,
        cost: ModeCost,
    ) -> AsyscallInterface {
        let shared = &self.shared;
        let capacity = shared.slots.len();
        let _ = shared
            .slot_count
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |count| {
                Some((count + slots.max(1)).min(capacity))
            });
        if shared.slot_waiters.load(Ordering::SeqCst) > 0 {
            drop(shared.park.lock());
            shared.slot_freed.notify_all();
        }
        let mut workers = Vec::new();
        for _ in 0..service_threads.max(1) {
            // Counted before it starts: a new thread is awake until it
            // first sleeps.
            let index = shared.threads.fetch_add(1, Ordering::SeqCst);
            let shared = Arc::clone(shared);
            let handle = std::thread::Builder::new()
                .name(format!("asyscall-{index}"))
                .spawn(move || {
                    let mut holding = false;
                    while let Some(index) = shared.next_work(&mut holding) {
                        shared.run(index);
                    }
                })
                // pesos-lint: allow(panic_freedom, "service-thread spawn failure at construction is fatal initialization")
                .expect("spawn asyscall service thread");
            workers.push(handle);
        }
        let mut parking = shared.park.lock();
        // Threads given back have exited or will: their handles detach.
        parking.workers.retain(|worker| !worker.is_finished());
        parking.workers.extend(workers);
        drop(parking);
        AsyscallInterface {
            pool: Arc::clone(self),
            threads: service_threads.max(1),
            submitter: Arc::new(Submitter {
                shared: Arc::clone(shared),
                submitted: AtomicU64::new(0),
                batches: AtomicU64::new(0),
                slot_waits: AtomicU64::new(0),
                parks: AtomicU64::new(0),
                spin_hits: AtomicU64::new(0),
                exits: AtomicU64::new(0),
            }),
            cost,
        }
    }

    /// Returns the service side's counters.
    pub fn stats(&self) -> PoolStats {
        let shared = &self.shared;
        PoolStats {
            threads: shared.threads.load(Ordering::SeqCst),
            slots: shared.slot_count.load(Ordering::SeqCst),
            completed: shared.completed.load(Ordering::Relaxed),
            max_concurrency: shared.max_concurrency.load(Ordering::SeqCst),
            parks: shared.parks.load(Ordering::Relaxed),
            spin_hits: shared.spin_hits.load(Ordering::Relaxed),
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

/// One enclave's submission side: its counters, and the pool it submits to.
struct Submitter {
    shared: Arc<Shared>,
    submitted: AtomicU64,
    batches: AtomicU64,
    slot_waits: AtomicU64,
    /// Times one of this enclave's threads slept waiting for a completion
    /// or a free slot.
    parks: AtomicU64,
    /// This enclave's waits that ended while it was still spinning.
    spin_hits: AtomicU64,
    /// Calls that ran on their caller (`AsyscallStats::exits`).
    exits: AtomicU64,
}

impl Submitter {
    /// Parks `call` in a slot, sleeping while the table is full. The wait
    /// is counted when the submitter finds no free slot, so `slot_waits`
    /// is exact under contention.
    fn claim(&self, call: QueuedCall) -> usize {
        let shared = &*self.shared;
        let mut call = match shared.try_claim(call) {
            Ok(index) => return index,
            Err(call) => call,
        };
        self.slot_waits.fetch_add(1, Ordering::Relaxed);
        shared.slot_waiters.fetch_add(1, Ordering::SeqCst);
        let mut guard = shared.park.lock();
        let index = loop {
            match shared.try_claim(call) {
                Ok(index) => break index,
                Err(returned) => call = returned,
            }
            self.parks.fetch_add(1, Ordering::Relaxed);
            shared.slot_freed.wait(&mut guard);
        };
        shared.slot_waiters.fetch_sub(1, Ordering::SeqCst);
        index
    }

    /// Sees the call queued at `position` into the hands of a service
    /// thread. A token holder is awake and comes back to the ring after at
    /// most the short body it is inside, so the submitter gives it as long
    /// as a wake-up would cost to take the call; failing that, or with no
    /// holder, it signals. On return the call has been taken, or a sleeper
    /// is on its way, or every service thread is awake.
    fn hand_over(&self, position: usize) {
        let shared = &*self.shared;
        if shared.token.load(Ordering::SeqCst) {
            let start = Instant::now();
            let mut waited = false;
            while !shared.ring.taken(position) {
                if !shared.token.load(Ordering::SeqCst) || start.elapsed() >= WAKE_COST {
                    return shared.signal_work();
                }
                // A yield that found the core wanted most likely gave it
                // to the holder: look again rather than give up.
                relax();
                waited = true;
            }
            if waited {
                self.spin_hits.fetch_add(1, Ordering::Relaxed);
            }
            return;
        }
        shared.signal_work();
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
    /// number of in-flight calls).
    pub fn new(service_threads: usize, slots: usize, cost: ModeCost) -> Self {
        HostPool::new(slots).join(service_threads, slots, cost)
    }

    /// The host pool this interface submits to.
    pub fn pool(&self) -> &Arc<HostPool> {
        &self.pool
    }

    /// Number of system-call slots in the host pool.
    pub fn slots(&self) -> usize {
        self.pool.stats().slots
    }

    fn enqueue(&self, call: QueuedCall) {
        self.cost.charge(CostEvent::AsyncSyscall);
        let submitter = &*self.submitter;
        submitter.submitted.fetch_add(1, Ordering::Relaxed);
        let index = submitter.claim(call);
        let position = submitter.shared.ring.push(index);
        submitter.hand_over(position);
    }

    /// Enqueues `bodies` as one submission reporting into one set of
    /// cells. With `exit` set, lane 0 runs on the calling thread instead
    /// if, once the other lanes are handed over, no service thread is free
    /// to take it.
    fn submit_set<T, F>(&self, bodies: impl Iterator<Item = F>, exit: bool) -> CompletionSet<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let batch = Batch::new(bodies);
        let call = |lane: usize| QueuedCall {
            batch: Arc::clone(&batch) as Arc<dyn Run>,
            lane: lane as u32,
        };
        let kept = usize::from(exit && batch.calls > 0);
        for lane in kept..batch.calls {
            self.enqueue(call(lane));
        }
        if kept == 1 {
            if self.submitter.shared.nobody_free() {
                self.exit(&*batch);
            } else {
                self.enqueue(call(0));
            }
        }
        CompletionSet {
            batch,
            delivered: 0,
            submitter: Arc::clone(&self.submitter),
        }
    }

    /// Runs lane 0 of `batch` on the calling thread: one synchronous
    /// enclave exit, contained as [`Shared::run`] contains a service
    /// thread's call, so a panic publishes the lane abandoned.
    fn exit(&self, batch: &dyn Run) {
        self.cost.charge(CostEvent::EnclaveTransition);
        self.submitter.exits.fetch_add(1, Ordering::Relaxed);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| batch.run(0)));
        if outcome.is_err() {
            eprintln!("asyscall: system-call body panicked on its caller; call abandoned");
        }
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
    /// [`AsyscallInterface::submit_batch`]; lane 0 is too, unless no
    /// service thread is free to take it, in which case it runs on the
    /// calling thread as one charged enclave exit (module docs, "When
    /// nobody is free: the exit"). Its result reaches the set like any
    /// other.
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
        let pool = self.pool.stats();
        AsyscallStats {
            submitted: submitter.submitted.load(Ordering::Relaxed),
            completed: pool.completed,
            slot_waits: submitter.slot_waits.load(Ordering::Relaxed),
            batches: submitter.batches.load(Ordering::Relaxed),
            max_concurrency: pool.max_concurrency,
            parks: submitter.parks.load(Ordering::Relaxed),
            spin_hits: submitter.spin_hits.load(Ordering::Relaxed),
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
        assert_eq!(i.slots(), 16);
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
    fn batch_completion_order_allows_racing() {
        let i = AsyscallInterface::new(
            2,
            8,
            ModeCost::new(ExecutionMode::Native, SgxCostModel::zero()),
        );
        // Body 0 blocks until released; body 1 finishes immediately. The
        // first delivered completion must be index 1.
        let gate = Arc::new(std::sync::Barrier::new(2));
        let g = Arc::clone(&gate);
        let bodies: Vec<Box<dyn FnOnce() -> usize + Send>> = vec![
            Box::new(move || {
                g.wait();
                0
            }),
            Box::new(|| 1),
        ];
        let mut set = i.submit_batch(bodies).unwrap();
        let (index, value) = set.next_completed().unwrap();
        assert_eq!((index, value.unwrap()), (1, 1));
        gate.wait();
        let (index, value) = set.next_completed().unwrap();
        assert_eq!((index, value.unwrap()), (0, 0));
        assert!(set.next_completed().is_none());
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
        let sgx = pool.join(
            2,
            16,
            ModeCost::new(ExecutionMode::Sgx, SgxCostModel::default()),
        );
        let native = pool.join(
            1,
            8,
            ModeCost::new(ExecutionMode::Native, SgxCostModel::default()),
        );
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
        let big = pool.join(
            1,
            100,
            ModeCost::new(ExecutionMode::Native, SgxCostModel::zero()),
        );
        assert_eq!((pool.stats().threads, big.slots()), (2, 64));
        // Once every member has left, one thread stays for calls they left
        // queued.
        let late = big.submit_batch((0..8u32).map(|k| move || k)).unwrap();
        drop((native, big));
        assert_eq!(late.join().unwrap(), (0..8).collect::<Vec<_>>());
        threads_become(1);
        // The thread that stayed owes nothing: a later member keeps all of
        // its own.
        let next = pool.join(
            2,
            8,
            ModeCost::new(ExecutionMode::Native, SgxCostModel::zero()),
        );
        assert_eq!(next.submit(|| 6).unwrap(), 6);
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(pool.stats().threads, 3);
    }

    #[test]
    fn empty_batch_joins_immediately() {
        let i = iface();
        let set = i.submit_batch(std::iter::empty::<fn() -> u32>()).unwrap();
        assert!(set.is_empty());
        assert_eq!(set.join().unwrap(), Vec::<u32>::new());
    }
}
