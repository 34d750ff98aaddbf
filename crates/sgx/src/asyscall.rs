//! Asynchronous system-call interface (FlexSC / Scone style).
//!
//! Control-transfer instructions are forbidden inside SGX enclaves, so every
//! system call would normally require an expensive enclave exit. Scone, and
//! therefore Pesos, instead places system-call arguments into shared-memory
//! *slots*, enqueues the slot index on a *submission queue*, and lets
//! untrusted *service threads* outside the enclave execute the call and push
//! the result onto a *return queue* (paper §4.6, "I/O interface").
//!
//! # Slot table
//!
//! The shared-memory slots are modelled faithfully by a preallocated slot
//! table: a submission claims a free slot (blocking — and counting a
//! `slot_waits` — only when every slot is genuinely occupied), parks the
//! call body in it, and enqueues just the slot index. Service threads pop
//! indices, execute the body out of the slot, and only then return the slot
//! to the free list, so the table bounds the number of in-flight calls
//! exactly like the fixed slot array in the real system. No queue buffer is
//! allocated per call; the only per-call allocations are the boxed body and
//! the completion cell it reports into.
//!
//! # Completions and scatter-gather batches
//!
//! Three submission flavours are built on the same path:
//!
//! * [`AsyscallInterface::submit`] — the synchronous wrapper Scone exposes
//!   to the application; enqueues and parks until the result arrives.
//! * [`AsyscallInterface::submit_async`] — returns a [`Completion`] the
//!   caller joins later, letting one enclave thread keep many calls in
//!   flight.
//! * [`AsyscallInterface::submit_batch`] — the scatter-gather path: N
//!   bodies are enqueued back-to-back and a [`CompletionSet`] hands back
//!   results *in completion order*, so callers can join all of them
//!   (replicated writes) or take the first success and leave the rest to
//!   finish in the background (raced replicated reads).
//!
//! The calling thread would normally switch to another user-level thread
//! while waiting; that interleaving is provided by
//! [`crate::scheduler::UserScheduler`].

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::{Condvar, Mutex};

use crate::cost::{CostEvent, ModeCost};
use crate::error::SgxError;

type SyscallBody = Box<dyn FnOnce() + Send + 'static>;

/// Counters describing the interface's activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AsyscallStats {
    /// Calls submitted by enclave threads.
    pub submitted: u64,
    /// Calls completed by service threads.
    pub completed: u64,
    /// Times a submitter had to wait because all slots were busy.
    pub slot_waits: u64,
    /// Scatter-gather batches submitted via `submit_batch`.
    pub batches: u64,
    /// Highest number of call bodies ever executing concurrently.
    pub max_concurrency: u64,
}

// ---------------------------------------------------------------------------
// Completion cells
// ---------------------------------------------------------------------------

struct CompletionCell<T> {
    value: Option<T>,
    /// Set when the body was dropped without running (interface shut down).
    abandoned: bool,
    /// Present while this completion belongs to a batch; the finished index
    /// is pushed to the core so the set can observe completion order. Lives
    /// inside the cell (rather than the immutable state) so a pooled cell
    /// can be re-linked to a new batch on reuse.
    batch: Option<(Arc<BatchCore>, usize)>,
}

struct CompletionState<T> {
    cell: Mutex<CompletionCell<T>>,
    cv: Condvar,
}

impl<T> CompletionState<T> {
    fn new(batch: Option<(Arc<BatchCore>, usize)>) -> Arc<Self> {
        Arc::new(CompletionState {
            cell: Mutex::with_rank(
                parking_lot::lock_order::COMPLETION_CELL,
                CompletionCell {
                    value: None,
                    abandoned: false,
                    batch,
                },
            ),
            cv: Condvar::new(),
        })
    }

    /// Returns a recycled cell to its pristine state so a pool can hand it
    /// to the next call.
    fn reset(&self) {
        let mut cell = self.cell.lock();
        cell.value = None;
        cell.abandoned = false;
        cell.batch = None;
    }

    /// Links a (pooled) cell to a batch before submission.
    fn set_batch(&self, core: Arc<BatchCore>, index: usize) {
        self.cell.lock().batch = Some((core, index));
    }

    /// Waits until the call finishes and takes its result out of the cell.
    fn take_result(&self) -> Result<T, SgxError> {
        let mut cell = self.cell.lock();
        loop {
            if let Some(value) = cell.value.take() {
                return Ok(value);
            }
            if cell.abandoned {
                return Err(SgxError::SyscallInterfaceClosed);
            }
            self.cv.wait(&mut cell);
        }
    }
}

fn notify_batch(batch: Option<(Arc<BatchCore>, usize)>) {
    if let Some((core, index)) = batch {
        core.finished.lock().push_back(index);
        core.cv.notify_all();
    }
}

/// Handle to one in-flight asynchronous system call.
///
/// Returned by [`AsyscallInterface::submit_async`]; join it with
/// [`Completion::wait`].
pub struct Completion<T> {
    state: Arc<CompletionState<T>>,
}

impl<T> Completion<T> {
    /// Blocks until the call finishes and returns its result.
    pub fn wait(self) -> Result<T, SgxError> {
        self.state.take_result()
    }
}

/// Writes a body's result into its completion cell; marks the cell
/// abandoned if the body is dropped without running.
struct CompletionFiller<T> {
    /// The producer's reference to the cell; `None` once delivered.
    state: Option<Arc<CompletionState<T>>>,
}

impl<T> CompletionFiller<T> {
    fn new(state: &Arc<CompletionState<T>>) -> Self {
        CompletionFiller {
            state: Some(Arc::clone(state)),
        }
    }

    fn fill(mut self, value: T) {
        self.deliver(|cell| cell.value = Some(value));
    }

    /// Records the outcome and wakes the waiter, exactly once.
    ///
    /// The producer's reference is dropped *before* the batch hears of the
    /// completion: a pool recycles a cell only when the waiter finds itself
    /// the last holder, and a batch waiter cannot wake before
    /// `notify_batch`, so on the scatter-gather path every delivered cell
    /// is recycled rather than whenever the waiter loses the race against
    /// this thread's release. (A single-call waiter sleeps on the cell's
    /// own condvar, which cannot be signalled without holding the cell;
    /// there the race, and the occasional discarded cell, remains.)
    fn deliver(&mut self, record: impl FnOnce(&mut CompletionCell<T>)) {
        let Some(state) = self.state.take() else {
            return;
        };
        let batch = {
            let mut cell = state.cell.lock();
            record(&mut cell);
            cell.batch.take()
        };
        state.cv.notify_all();
        drop(state);
        notify_batch(batch);
    }
}

impl<T> Drop for CompletionFiller<T> {
    fn drop(&mut self) {
        self.deliver(|cell| cell.abandoned = true);
    }
}

// ---------------------------------------------------------------------------
// Typed completion pools
// ---------------------------------------------------------------------------

/// Counters describing a pool's recycling behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompletionPoolStats {
    /// Calls served from a recycled completion cell.
    pub reused: u64,
    /// Calls that had to allocate a fresh cell (pool empty, or — single
    /// calls only — the service thread was still releasing its reference
    /// when the waiter finished).
    pub allocated: u64,
}

/// A typed pool of reusable completion cells for [`AsyscallInterface::submit_with_pool`]
/// and [`AsyscallInterface::submit_async_pooled`].
///
/// `submit`/`submit_async` allocate one `Arc` completion cell per call; on
/// the storage hot path that is one heap allocation per drive exchange. A
/// caller that issues many calls of the same result type (the kinetic
/// client's PUT/GET/DELETE wrappers) holds one pool per type instead: cells
/// are recycled after the waiter collects the result, so a steady-state
/// workload allocates only up to the pool capacity once and then runs
/// allocation-free — the slot-table discipline Scone applies to syscall
/// arguments, applied to completions.
///
/// A cell is only recycled when the waiter observes itself as the last
/// holder; if the service thread is still mid-release the cell is dropped
/// instead (counted under `allocated` on the next call), so a recycled cell
/// can never be written by a straggling producer.
pub struct CompletionPool<T> {
    capacity: usize,
    free: Mutex<Vec<Arc<CompletionState<T>>>>,
    reused: AtomicU64,
    allocated: AtomicU64,
}

impl<T> CompletionPool<T> {
    /// Creates a pool retaining at most `capacity` idle cells (at least
    /// one). A natural capacity is the interface's slot count — more cells
    /// than slots can never be in flight.
    pub fn new(capacity: usize) -> Self {
        CompletionPool {
            capacity: capacity.max(1),
            free: Mutex::with_rank(parking_lot::lock_order::ASYSCALL_FREE, Vec::new()),
            reused: AtomicU64::new(0),
            allocated: AtomicU64::new(0),
        }
    }

    /// Recycling counters.
    pub fn stats(&self) -> CompletionPoolStats {
        CompletionPoolStats {
            reused: self.reused.load(Ordering::Relaxed),
            allocated: self.allocated.load(Ordering::Relaxed),
        }
    }

    fn acquire(&self) -> Arc<CompletionState<T>> {
        if let Some(state) = self.free.lock().pop() {
            self.reused.fetch_add(1, Ordering::Relaxed);
            state.reset();
            return state;
        }
        self.allocated.fetch_add(1, Ordering::Relaxed);
        CompletionState::new(None)
    }

    fn release(&self, state: Arc<CompletionState<T>>) {
        // Recycle only when the filler's clone is gone: a unique reference
        // proves no producer can touch the cell again.
        if Arc::strong_count(&state) == 1 {
            let mut free = self.free.lock();
            if free.len() < self.capacity {
                free.push(state);
            }
        }
    }
}

/// Handle to one in-flight pooled call; joining it returns its completion
/// cell to the pool.
pub struct PooledCompletion<'a, T> {
    state: Arc<CompletionState<T>>,
    pool: &'a CompletionPool<T>,
}

impl<T> PooledCompletion<'_, T> {
    /// Blocks until the call finishes, returns its result and recycles the
    /// completion cell.
    pub fn wait(self) -> Result<T, SgxError> {
        let result = self.state.take_result();
        self.pool.release(self.state);
        result
    }
}

// ---------------------------------------------------------------------------
// Batches
// ---------------------------------------------------------------------------

struct BatchCore {
    finished: Mutex<VecDeque<usize>>,
    cv: Condvar,
}

/// A joinable set of completions produced by one scatter-gather batch.
///
/// When produced by [`AsyscallInterface::submit_batch_pooled`] the set
/// carries its pool and recycles each completion cell as it is delivered;
/// cells never delivered (a raced read dropped the set early, or the set
/// itself is dropped) simply fall out of circulation — the pool allocates
/// replacements on demand, so correctness never depends on recycling.
pub struct CompletionSet<'p, T> {
    completions: Vec<Option<Arc<CompletionState<T>>>>,
    core: Arc<BatchCore>,
    delivered: usize,
    pool: Option<&'p CompletionPool<T>>,
}

impl<T> CompletionSet<'_, T> {
    /// Number of calls in the batch.
    pub fn len(&self) -> usize {
        self.completions.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.completions.is_empty()
    }

    /// Blocks until the next not-yet-delivered call finishes, returning its
    /// submission index and result. Returns `None` once every call has been
    /// delivered.
    ///
    /// Results come back in *completion order*, which is what lets callers
    /// race a batch and stop at the first usable result.
    pub fn next_completed(&mut self) -> Option<(usize, Result<T, SgxError>)> {
        if self.delivered == self.completions.len() {
            return None;
        }
        let index = {
            let mut finished = self.core.finished.lock();
            loop {
                if let Some(index) = finished.pop_front() {
                    break index;
                }
                self.core.cv.wait(&mut finished);
            }
        };
        self.delivered += 1;
        // pesos-lint: allow(panic_freedom, "the queue delivers only indices this batch issued")
        let state = self.completions[index]
            .take()
            // pesos-lint: allow(panic_freedom, "the queue delivers each completion index exactly once")
            .expect("completion index delivered twice");
        // The cell is already filled (or abandoned); this cannot block.
        let result = state.take_result();
        if let Some(pool) = self.pool {
            pool.release(state);
        }
        Some((index, result))
    }

    /// Joins the whole batch, returning results in submission order.
    ///
    /// The first abandoned call (interface shut down mid-batch) aborts the
    /// join — first error wins.
    pub fn join(mut self) -> Result<Vec<T>, SgxError> {
        let mut out: Vec<Option<T>> = (0..self.completions.len()).map(|_| None).collect();
        while let Some((index, result)) = self.next_completed() {
            // pesos-lint: allow(panic_freedom, "index was issued by this batch, bounded by completions.len()")
            out[index] = Some(result?);
        }
        Ok(out
            .into_iter()
            // pesos-lint: allow(panic_freedom, "next_completed drained every index before returning None")
            .map(|v| v.expect("missing result"))
            .collect())
    }
}

// ---------------------------------------------------------------------------
// The interface
// ---------------------------------------------------------------------------

/// One shared-memory system-call slot: holds the parked call body from
/// submission until a service thread picks it up.
struct Slot {
    body: Mutex<Option<SyscallBody>>,
}

struct Shared {
    slots: Vec<Slot>,
    free: Mutex<Vec<usize>>,
    free_cv: Condvar,
    submitted: AtomicU64,
    completed: AtomicU64,
    slot_waits: AtomicU64,
    batches: AtomicU64,
    active: AtomicUsize,
    max_concurrency: AtomicU64,
}

impl Shared {
    /// Claims a free slot, blocking while the table is full. The wait is
    /// counted at the moment the submitter actually blocks, so `slot_waits`
    /// is exact under contention (the old decoupled `is_full()` pre-check
    /// undercounted).
    fn acquire_slot(&self) -> usize {
        let mut free = self.free.lock();
        if let Some(index) = free.pop() {
            return index;
        }
        self.slot_waits.fetch_add(1, Ordering::Relaxed);
        loop {
            if let Some(index) = free.pop() {
                return index;
            }
            self.free_cv.wait(&mut free);
        }
    }

    fn release_slot(&self, index: usize) {
        self.free.lock().push(index);
        self.free_cv.notify_one();
    }
}

/// The asynchronous system-call interface.
pub struct AsyscallInterface {
    tx: Sender<usize>,
    shared: Arc<Shared>,
    cost: ModeCost,
    workers: Vec<JoinHandle<()>>,
}

impl AsyscallInterface {
    /// Creates the interface with `service_threads` untrusted worker threads
    /// and `slots` system-call slots (the maximum number of in-flight
    /// calls).
    pub fn new(service_threads: usize, slots: usize, cost: ModeCost) -> Self {
        let slots = slots.max(1);
        // The queue itself is unbounded; admission control is the slot
        // table, exactly as in the modelled system.
        let (tx, rx): (Sender<usize>, Receiver<usize>) = unbounded();
        let shared = Arc::new(Shared {
            slots: (0..slots)
                .map(|i| Slot {
                    body: Mutex::with_rank_indexed(
                        parking_lot::lock_order::ASYSCALL_SLOT,
                        i as u32,
                        None,
                    ),
                })
                .collect(),
            free: Mutex::with_rank(
                parking_lot::lock_order::ASYSCALL_FREE,
                (0..slots).rev().collect(),
            ),
            free_cv: Condvar::new(),
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            slot_waits: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            active: AtomicUsize::new(0),
            max_concurrency: AtomicU64::new(0),
        });

        let mut workers = Vec::new();
        for i in 0..service_threads.max(1) {
            let rx = rx.clone();
            let shared = Arc::clone(&shared);
            let handle = std::thread::Builder::new()
                .name(format!("asyscall-{i}"))
                .spawn(move || {
                    while let Ok(slot_index) = rx.recv() {
                        // pesos-lint: allow(panic_freedom, "the queue carries only acquired slot indices")
                        let body = shared.slots[slot_index]
                            .body
                            .lock()
                            .take()
                            // pesos-lint: allow(panic_freedom, "the body is stored before the slot index is queued")
                            .expect("queued slot without body");
                        let active = shared.active.fetch_add(1, Ordering::SeqCst) as u64 + 1;
                        shared.max_concurrency.fetch_max(active, Ordering::SeqCst);
                        // Contain a panicking body: its completion filler is
                        // dropped during the unwind (waiters see the call as
                        // abandoned), and the slot and this service thread
                        // both survive instead of leaking.
                        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(body));
                        shared.active.fetch_sub(1, Ordering::SeqCst);
                        shared.completed.fetch_add(1, Ordering::Relaxed);
                        // Slot stays occupied for the call's whole lifetime,
                        // like the real shared-memory slot.
                        shared.release_slot(slot_index);
                        if outcome.is_err() {
                            eprintln!("asyscall: system-call body panicked; call abandoned");
                        }
                    }
                })
                // pesos-lint: allow(panic_freedom, "service-thread spawn failure at construction is fatal initialization")
                .expect("spawn asyscall service thread");
            workers.push(handle);
        }

        AsyscallInterface {
            tx,
            shared,
            cost,
            workers,
        }
    }

    /// Number of configured system-call slots.
    pub fn slots(&self) -> usize {
        self.shared.slots.len()
    }

    fn enqueue(&self, body: SyscallBody) -> Result<(), SgxError> {
        self.cost.charge(CostEvent::AsyncSyscall);
        self.shared.submitted.fetch_add(1, Ordering::Relaxed);
        let slot_index = self.shared.acquire_slot();
        // pesos-lint: allow(panic_freedom, "slot_index was just acquired from this slot table")
        *self.shared.slots[slot_index].body.lock() = Some(body);
        match self.tx.send(slot_index) {
            Ok(()) => Ok(()),
            Err(_) => {
                // Interface closed: reclaim the slot and drop the body (its
                // completion filler reports the abandonment).
                // pesos-lint: allow(panic_freedom, "slot_index was just acquired from this slot table")
                drop(self.shared.slots[slot_index].body.lock().take());
                self.shared.release_slot(slot_index);
                Err(SgxError::SyscallInterfaceClosed)
            }
        }
    }

    fn submit_completion<T, F>(
        &self,
        body: F,
        batch: Option<(Arc<BatchCore>, usize)>,
    ) -> Result<Completion<T>, SgxError>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let state = CompletionState::new(batch);
        let mut filler = Some(CompletionFiller::new(&state));
        self.enqueue(Box::new(move || {
            // pesos-lint: allow(panic_freedom, "the filler closure runs exactly once per enqueue")
            filler.take().expect("body run twice").fill(body());
        }))?;
        Ok(Completion { state })
    }

    /// Submits a "system call" and blocks until its result is available.
    ///
    /// This mirrors the synchronous wrapper Scone exposes to the
    /// application: the enclave-side cost of slot handling is charged, the
    /// body runs on an untrusted service thread, and the calling thread
    /// parks until the return queue delivers the result.
    pub fn submit<T, F>(&self, body: F) -> Result<T, SgxError>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        self.submit_async(body)?.wait()
    }

    /// Submits a "system call" without waiting; the returned [`Completion`]
    /// is joined later, so one enclave thread can keep many calls in
    /// flight.
    pub fn submit_async<T, F>(&self, body: F) -> Result<Completion<T>, SgxError>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        self.submit_completion(body, None)
    }

    /// Like [`AsyscallInterface::submit_async`] but the completion cell
    /// comes from (and returns to) `pool` instead of being allocated per
    /// call.
    pub fn submit_async_pooled<'a, T, F>(
        &self,
        pool: &'a CompletionPool<T>,
        body: F,
    ) -> Result<PooledCompletion<'a, T>, SgxError>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let state = pool.acquire();
        let mut filler = Some(CompletionFiller::new(&state));
        self.enqueue(Box::new(move || {
            // pesos-lint: allow(panic_freedom, "the filler closure runs exactly once per enqueue")
            filler.take().expect("body run twice").fill(body());
        }))?;
        Ok(PooledCompletion { state, pool })
    }

    /// Synchronous pooled submission: [`AsyscallInterface::submit`] without
    /// the per-call completion allocation.
    pub fn submit_with_pool<T, F>(&self, pool: &CompletionPool<T>, body: F) -> Result<T, SgxError>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        self.submit_async_pooled(pool, body)?.wait()
    }

    /// Submits N call bodies as one scatter-gather batch and returns the
    /// joinable [`CompletionSet`].
    ///
    /// The bodies start executing as service threads become free — several
    /// at once when the pool allows — which is what turns serial
    /// replication loops into parallel fan-out.
    pub fn submit_batch<T, F, I>(&self, bodies: I) -> Result<CompletionSet<'static, T>, SgxError>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
        I: IntoIterator<Item = F>,
    {
        let core = Arc::new(BatchCore {
            finished: Mutex::with_rank(parking_lot::lock_order::ASYSCALL_BATCH, VecDeque::new()),
            cv: Condvar::new(),
        });
        let mut completions = Vec::new();
        for (index, body) in bodies.into_iter().enumerate() {
            let completion = self.submit_completion(body, Some((Arc::clone(&core), index)))?;
            completions.push(Some(completion.state));
        }
        self.shared.batches.fetch_add(1, Ordering::Relaxed);
        Ok(CompletionSet {
            completions,
            core,
            delivered: 0,
            pool: None,
        })
    }

    /// Like [`AsyscallInterface::submit_batch`] but every completion cell
    /// comes from `pool` and returns to it as the set delivers results —
    /// the scatter-gather hot path (replicated puts, raced gets, batched
    /// deletes) runs allocation-free in steady state.
    pub fn submit_batch_pooled<'p, T, F, I>(
        &self,
        pool: &'p CompletionPool<T>,
        bodies: I,
    ) -> Result<CompletionSet<'p, T>, SgxError>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
        I: IntoIterator<Item = F>,
    {
        let core = Arc::new(BatchCore {
            finished: Mutex::with_rank(parking_lot::lock_order::ASYSCALL_BATCH, VecDeque::new()),
            cv: Condvar::new(),
        });
        let mut completions = Vec::new();
        for (index, body) in bodies.into_iter().enumerate() {
            let state = pool.acquire();
            state.set_batch(Arc::clone(&core), index);
            let mut filler = Some(CompletionFiller::new(&state));
            self.enqueue(Box::new(move || {
                // pesos-lint: allow(panic_freedom, "the filler closure runs exactly once per enqueue")
                filler.take().expect("body run twice").fill(body());
            }))?;
            completions.push(Some(state));
        }
        self.shared.batches.fetch_add(1, Ordering::Relaxed);
        Ok(CompletionSet {
            completions,
            core,
            delivered: 0,
            pool: Some(pool),
        })
    }

    /// Submits a "system call" without waiting for its completion.
    ///
    /// Used for fire-and-forget writes when the caller tracks completion via
    /// the Pesos result buffer instead.
    pub fn submit_detached<F>(&self, body: F) -> Result<(), SgxError>
    where
        F: FnOnce() + Send + 'static,
    {
        self.enqueue(Box::new(body))
    }

    /// Returns activity counters.
    pub fn stats(&self) -> AsyscallStats {
        AsyscallStats {
            submitted: self.shared.submitted.load(Ordering::Relaxed),
            completed: self.shared.completed.load(Ordering::Relaxed),
            slot_waits: self.shared.slot_waits.load(Ordering::Relaxed),
            batches: self.shared.batches.load(Ordering::Relaxed),
            max_concurrency: self.shared.max_concurrency.load(Ordering::SeqCst),
        }
    }

    /// Shuts the interface down, waiting for service threads to exit.
    pub fn shutdown(mut self) {
        drop(self.tx);
        for w in self.workers.drain(..) {
            let _ = w.join();
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
        let i = iface();
        let counter = Arc::new(AtomicU64::new(0));
        for _ in 0..10 {
            let c = Arc::clone(&counter);
            i.submit_detached(move || {
                c.fetch_add(1, Ordering::SeqCst);
            })
            .unwrap();
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
        let completion = i
            .submit_async(move || {
                g.wait();
                7
            })
            .unwrap();
        // The caller reaches this point while the body is still blocked,
        // proving submit_async does not wait.
        gate.wait();
        assert_eq!(completion.wait().unwrap(), 7);
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
            .submit_async(move || {
                g.wait();
            })
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
        blocker.wait().unwrap();
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
        let boom = i.submit_async(|| panic!("boom"));
        assert!(matches!(
            boom.unwrap().wait(),
            Err(SgxError::SyscallInterfaceClosed)
        ));
        for k in 0..4 {
            assert_eq!(i.submit(move || k).unwrap(), k);
        }
    }

    #[test]
    fn empty_batch_joins_immediately() {
        let i = iface();
        let set = i.submit_batch(std::iter::empty::<fn() -> u32>()).unwrap();
        assert!(set.is_empty());
        assert_eq!(set.join().unwrap(), Vec::<u32>::new());
    }

    #[test]
    fn pooled_submission_recycles_completion_cells() {
        let i = iface();
        let pool: CompletionPool<u64> = CompletionPool::new(8);
        // The waiter occasionally races the service thread's final Arc drop
        // (the cell is then discarded rather than recycled) — arbitrarily
        // often on a loaded machine — so submit until recycling has been
        // observed enough times rather than asserting a fixed ratio.
        let mut submitted = 0u64;
        while pool.stats().reused < 100 {
            assert_eq!(
                i.submit_with_pool(&pool, move || submitted * 2).unwrap(),
                submitted * 2
            );
            submitted += 1;
            assert!(
                submitted < 100_000,
                "pool never recycled: {:?} after {submitted} calls",
                pool.stats()
            );
        }
        let stats = pool.stats();
        assert_eq!(stats.reused + stats.allocated, submitted);
    }

    #[test]
    fn pooled_batches_recycle_every_delivered_cell() {
        // Unlike a single call, a batch waiter wakes only after the
        // producer has let go of the cell, so recycling is exact: the first
        // round allocates one cell per body and no later round allocates.
        let i = iface();
        let pool: CompletionPool<usize> = CompletionPool::new(4);
        for round in 0..50 {
            let set = i
                .submit_batch_pooled(&pool, (0..3).map(|k| move || round + k))
                .unwrap();
            assert_eq!(set.join().unwrap(), vec![round, round + 1, round + 2]);
        }
        assert_eq!(
            pool.stats(),
            CompletionPoolStats {
                reused: 147,
                allocated: 3
            }
        );
    }

    #[test]
    fn pooled_async_overlaps_and_returns_results() {
        let i = iface();
        let pool: CompletionPool<usize> = CompletionPool::new(4);
        let gate = Arc::new(std::sync::Barrier::new(2));
        let g = Arc::clone(&gate);
        let pending = i
            .submit_async_pooled(&pool, move || {
                g.wait();
                9
            })
            .unwrap();
        gate.wait();
        assert_eq!(pending.wait().unwrap(), 9);
    }

    #[test]
    fn pool_capacity_bounds_idle_cells() {
        let i = iface();
        let pool: CompletionPool<()> = CompletionPool::new(2);
        // Sequential calls never hold more than one cell at a time, so the
        // free list stays within capacity; this mainly proves release does
        // not grow the list unboundedly.
        for _ in 0..20 {
            i.submit_with_pool(&pool, || ()).unwrap();
        }
        assert!(pool.free.lock().len() <= 2);
    }

    #[test]
    fn pooled_wait_reports_shutdown_as_abandoned() {
        let i = AsyscallInterface::new(
            1,
            1,
            ModeCost::new(ExecutionMode::Native, SgxCostModel::zero()),
        );
        let pool: CompletionPool<u32> = CompletionPool::new(2);
        let boom = i.submit_async_pooled(&pool, || panic!("boom")).unwrap();
        assert!(matches!(boom.wait(), Err(SgxError::SyscallInterfaceClosed)));
        // The abandoned cell is reset before reuse; later calls see clean
        // state.
        for k in 0..4u32 {
            assert_eq!(i.submit_with_pool(&pool, move || k).unwrap(), k);
        }
    }
}
