//! Offline shim for the `parking_lot` API subset used by this workspace.
//!
//! Backed by `std::sync` primitives; lock poisoning is deliberately ignored
//! (a panicked holder does not poison the lock, matching parking_lot's
//! semantics, which the rest of the codebase relies on).
//!
//! # Lock-rank checking (`lock_order` feature)
//!
//! The workspace documents a global lock-acquisition hierarchy (see
//! [`lock_order`] for the rank table). With the opt-in `lock_order` cargo
//! feature enabled, every [`Mutex`] and [`RwLock`] constructed through
//! [`Mutex::with_rank`] / [`RwLock::with_rank`] (or the `_indexed`
//! variants for sharded families) records its acquisitions on a
//! thread-local held-rank stack and `debug_assert!`s that each new
//! acquisition has a strictly greater rank than every lock already held —
//! or, for two locks of the same sharded family, a strictly increasing
//! shard index. Locks built with the plain [`Mutex::new`] / [`RwLock::new`]
//! constructors are unranked and never checked. Without the feature the
//! rank tags still exist (so constructor call sites need no `cfg`) but no
//! bookkeeping happens on lock or unlock.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::{self, TryLockError};
use std::time::Duration;

pub mod lock_order {
    //! The workspace lock-rank table and (feature-gated) runtime checker.
    //!
    //! Ranks order every lock family in the workspace. A thread may only
    //! acquire a lock whose rank is **strictly greater** than the rank of
    //! every lock it already holds; two locks of the same rank may nest
    //! only if both carry an explicit shard index and the indices are
    //! strictly increasing. This is the same table `pesos-lint`'s static
    //! lock-hierarchy pass enforces lexically: the lint keeps no copy, it
    //! reads each lock's rank name where the lock is built (the first
    //! argument of `with_rank`/`with_rank_indexed`) and looks it up in
    //! [`NAMES`], so a lock built with plain `new` is unranked to both
    //! checkers. The runtime checker here witnesses the order dynamically
    //! in the stress suites.
    //!
    //! Rationale for the ordering (outermost first):
    //!
    //! * topology changes serialize on the cluster rebalance mutex before
    //!   anything else (`CLUSTER_TOPOLOGY`);
    //! * every request holds the ops-gate read side (`OPS_GATE`), under
    //!   which it may consult routing (`ROUTING_STATE`) and the cluster's
    //!   client and policy registries — a partition's replication log is
    //!   not registered anywhere but rides in its routing-table entry;
    //! * demand-pulls take a migration stripe (`MIGRATION_STRIPE`) and then
    //!   operate on stores, which serialize per key (`KEY_LOCK`, one
    //!   stripe at a time: no path holds two stripes of one store) before
    //!   touching the sharded metadata/cache/session maps;
    //! * the replication log mutex (`REPLICATION_LOG`) is taken *after*
    //!   store state (acked ⇒ logged appends run at the tail of a
    //!   mutation, with no store locks released yet) and before any of the
    //!   I/O plumbing;
    //! * the asynchronous syscall layer and the drive
    //!   internals sit at the bottom: they are leaf subsystems that must
    //!   never call back up into cluster or store locks.

    /// Rank of locks built with the plain constructors; never checked.
    pub const UNRANKED: u16 = 0;
    /// Cluster topology/rebalance mutex (`ControllerCluster::rebalance`).
    pub const CLUSTER_TOPOLOGY: u16 = 10;
    /// Ops gate: read side per request, write side for topology changes.
    pub const OPS_GATE: u16 = 20;
    /// Routing table `RwLock<Arc<RoutingState>>`.
    pub const ROUTING_STATE: u16 = 30;
    /// Cluster client registry.
    pub const CLUSTER_CLIENTS: u16 = 32;
    /// Cluster-wide policy id registry.
    pub const CLUSTER_POLICIES: u16 = 33;
    /// Retry/backoff RNG.
    pub const RETRY_RNG: u16 = 36;
    /// Migration stripe locks (sharded, index = stripe).
    pub const MIGRATION_STRIPE: u16 = 40;
    /// Migration bookkeeping (moved/pending-delete sets).
    pub const MIGRATION_STATE: u16 = 45;
    /// Per-key write-lock stripes (sharded, index = stripe).
    pub const KEY_LOCK: u16 = 55;
    /// Store metadata shards (sharded, index = shard).
    pub const METADATA_SHARD: u16 = 60;
    /// Object-cache shards (sharded, index = shard).
    pub const OBJECT_CACHE_SHARD: u16 = 62;
    /// Policy-cache shards (sharded, index = shard).
    pub const POLICY_CACHE_SHARD: u16 = 64;
    /// Session-table shards (sharded, index = shard).
    pub const SESSION_SHARD: u16 = 66;
    /// Generic sharded FIFO maps: transaction outcomes, async results,
    /// cluster async-op routes (sharded, index = shard).
    pub const FIFO_SHARD: u16 = 68;
    /// Controller VLL lock table (`TransactionManager::locks`).
    pub const TX_LOCKS: u16 = 72;
    /// Cluster 2PC open-transaction buffer, the only one in the workspace.
    pub const CLUSTER_TX: u16 = 74;
    /// Replication log mutex (`ReplicaSet::inner`); a primary's store
    /// appends to it under the key lock of the write.
    pub const REPLICATION_LOG: u16 = 80;
    /// Replication shipper worker-handle registry.
    pub const REPLICATION_WORKERS: u16 = 82;
    /// Submission scheduler / thread-pool internals.
    pub const SCHEDULER: u16 = 85;
    /// Asyscall park mutexes: per host pool, the one that guards the
    /// submission queue with its sleeper count and wake tickets, the
    /// table-full submitters and the service-thread handles; per batch, the
    /// waiter's. A hand-off takes the pool's to push a queued slot index,
    /// and a service thread to take one. A slot's own state word stays a
    /// compare-and-swap. None of them is ever nested.
    pub const ASYSCALL_PARK: u16 = 92;
    /// Drive fault injector (its generator and counters sit behind this
    /// one mutex).
    pub const DRIVE_FAULT: u16 = 96;
    /// Kinetic drive storage engine.
    pub const DRIVE_ENGINE: u16 = 100;
    /// Kinetic drive security/ACL table.
    pub const DRIVE_SECURITY: u16 = 102;
    /// Simulated disk actuator behind the drive engine.
    pub const BACKEND_ACTUATOR: u16 = 110;

    /// Every named rank, for diagnostics and for `pesos-lint`, which
    /// resolves the rank names its constructor sites give here. Sorted
    /// ascending.
    pub const NAMES: &[(u16, &str)] = &[
        (CLUSTER_TOPOLOGY, "CLUSTER_TOPOLOGY"),
        (OPS_GATE, "OPS_GATE"),
        (ROUTING_STATE, "ROUTING_STATE"),
        (CLUSTER_CLIENTS, "CLUSTER_CLIENTS"),
        (CLUSTER_POLICIES, "CLUSTER_POLICIES"),
        (RETRY_RNG, "RETRY_RNG"),
        (MIGRATION_STRIPE, "MIGRATION_STRIPE"),
        (MIGRATION_STATE, "MIGRATION_STATE"),
        (KEY_LOCK, "KEY_LOCK"),
        (METADATA_SHARD, "METADATA_SHARD"),
        (OBJECT_CACHE_SHARD, "OBJECT_CACHE_SHARD"),
        (POLICY_CACHE_SHARD, "POLICY_CACHE_SHARD"),
        (SESSION_SHARD, "SESSION_SHARD"),
        (FIFO_SHARD, "FIFO_SHARD"),
        (TX_LOCKS, "TX_LOCKS"),
        (CLUSTER_TX, "CLUSTER_TX"),
        (REPLICATION_LOG, "REPLICATION_LOG"),
        (REPLICATION_WORKERS, "REPLICATION_WORKERS"),
        (SCHEDULER, "SCHEDULER"),
        (ASYSCALL_PARK, "ASYSCALL_PARK"),
        (DRIVE_FAULT, "DRIVE_FAULT"),
        (DRIVE_ENGINE, "DRIVE_ENGINE"),
        (DRIVE_SECURITY, "DRIVE_SECURITY"),
        (BACKEND_ACTUATOR, "BACKEND_ACTUATOR"),
    ];

    /// Human-readable name for a rank, for assertion messages.
    pub fn rank_name(rank: u16) -> &'static str {
        for &(r, name) in NAMES {
            if r == rank {
                return name;
            }
        }
        "UNRANKED"
    }

    /// The tag a ranked lock carries: its family rank, an optional shard
    /// index, and whether same-rank nesting in ascending index order is
    /// permitted (sharded families only).
    #[derive(Clone, Copy, Debug)]
    #[cfg_attr(not(feature = "lock_order"), allow(dead_code))]
    pub(crate) struct Tag {
        pub rank: u16,
        pub index: u32,
        pub indexed: bool,
    }

    impl Tag {
        pub(crate) const fn unranked() -> Self {
            Tag {
                rank: UNRANKED,
                index: 0,
                indexed: false,
            }
        }

        pub(crate) const fn ranked(rank: u16) -> Self {
            Tag {
                rank,
                index: 0,
                indexed: false,
            }
        }

        pub(crate) const fn indexed(rank: u16, index: u32) -> Self {
            Tag {
                rank,
                index,
                indexed: true,
            }
        }
    }

    #[cfg(feature = "lock_order")]
    mod checker {
        use super::{rank_name, Tag, UNRANKED};
        use std::cell::RefCell;

        thread_local! {
            static HELD: RefCell<Vec<Tag>> = const { RefCell::new(Vec::new()) };
        }

        /// Records an acquisition, asserting the hierarchy: strictly
        /// greater rank than everything held, or same rank with both
        /// locks indexed and a strictly increasing index.
        pub(crate) fn acquired(tag: Tag) {
            if tag.rank == UNRANKED {
                return;
            }
            HELD.with(|held| {
                let mut held = held.borrow_mut();
                for prior in held.iter() {
                    let ordered_shards =
                        prior.rank == tag.rank && prior.indexed && tag.indexed && tag.index > prior.index;
                    debug_assert!(
                        prior.rank < tag.rank || ordered_shards,
                        "lock-rank inversion: acquiring {}({}) index {} while holding {}({}) index {}",
                        rank_name(tag.rank),
                        tag.rank,
                        tag.index,
                        rank_name(prior.rank),
                        prior.rank,
                        prior.index,
                    );
                }
                held.push(tag);
            });
        }

        /// Records a release. Out-of-order guard drops are legal, so this
        /// removes the most recent matching entry rather than popping.
        pub(crate) fn released(tag: Tag) {
            if tag.rank == UNRANKED {
                return;
            }
            HELD.with(|held| {
                let mut held = held.borrow_mut();
                if let Some(pos) = held
                    .iter()
                    .rposition(|t| t.rank == tag.rank && t.index == tag.index)
                {
                    held.remove(pos);
                }
            });
        }

        /// Ranks currently held by this thread, outermost first (tests).
        pub fn held_ranks() -> Vec<u16> {
            HELD.with(|held| held.borrow().iter().map(|t| t.rank).collect())
        }
    }

    #[cfg(feature = "lock_order")]
    pub(crate) use checker::{acquired, released};

    /// Ranks currently held by this thread, outermost first. Only
    /// available with the `lock_order` feature.
    #[cfg(feature = "lock_order")]
    pub fn held_ranks() -> Vec<u16> {
        checker::held_ranks()
    }

    #[cfg(not(feature = "lock_order"))]
    #[inline(always)]
    pub(crate) fn acquired(_tag: Tag) {}

    #[cfg(not(feature = "lock_order"))]
    #[inline(always)]
    pub(crate) fn released(_tag: Tag) {}
}

use lock_order::Tag;

/// A mutual exclusion primitive (non-poisoning).
pub struct Mutex<T: ?Sized> {
    tag: Tag,
    inner: sync::Mutex<T>,
}

/// RAII guard for [`Mutex`].
pub struct MutexGuard<'a, T: ?Sized> {
    tag: Tag,
    // `Option` so Condvar::wait can temporarily take ownership of the std
    // guard; it is `Some` at every point user code can observe.
    inner: Option<sync::MutexGuard<'a, T>>,
}

impl<T> Mutex<T> {
    /// Creates a new (unranked) mutex.
    pub const fn new(value: T) -> Self {
        Mutex {
            tag: Tag::unranked(),
            inner: sync::Mutex::new(value),
        }
    }

    /// Creates a mutex tagged with a [`lock_order`] rank.
    pub const fn with_rank(rank: u16, value: T) -> Self {
        Mutex {
            tag: Tag::ranked(rank),
            inner: sync::Mutex::new(value),
        }
    }

    /// Creates a rank-tagged mutex belonging to a sharded family: two
    /// same-rank locks may nest only in strictly ascending index order.
    pub const fn with_rank_indexed(rank: u16, index: u32, value: T) -> Self {
        Mutex {
            tag: Tag::indexed(rank, index),
            inner: sync::Mutex::new(value),
        }
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the mutex, blocking until it is available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        // Checked before blocking: retaking a lock this thread holds
        // panics under `lock_order` instead of deadlocking.
        lock_order::acquired(self.tag);
        let guard = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        MutexGuard {
            tag: self.tag,
            inner: Some(guard),
        }
    }

    /// Attempts to acquire the mutex without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        let guard = match self.inner.try_lock() {
            Ok(g) => g,
            Err(TryLockError::Poisoned(e)) => e.into_inner(),
            Err(TryLockError::WouldBlock) => return None,
        };
        lock_order::acquired(self.tag);
        Some(MutexGuard {
            tag: self.tag,
            inner: Some(guard),
        })
    }

    /// Returns a mutable reference to the underlying data.
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard taken")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard taken")
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        lock_order::released(self.tag);
    }
}

/// A reader-writer lock (non-poisoning).
pub struct RwLock<T: ?Sized> {
    tag: Tag,
    inner: sync::RwLock<T>,
}

/// Shared-read RAII guard for [`RwLock`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    tag: Tag,
    inner: sync::RwLockReadGuard<'a, T>,
}

/// Exclusive-write RAII guard for [`RwLock`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    tag: Tag,
    inner: sync::RwLockWriteGuard<'a, T>,
}

impl<T> RwLock<T> {
    /// Creates a new (unranked) reader-writer lock.
    pub const fn new(value: T) -> Self {
        RwLock {
            tag: Tag::unranked(),
            inner: sync::RwLock::new(value),
        }
    }

    /// Creates a reader-writer lock tagged with a [`lock_order`] rank.
    pub const fn with_rank(rank: u16, value: T) -> Self {
        RwLock {
            tag: Tag::ranked(rank),
            inner: sync::RwLock::new(value),
        }
    }

    /// Creates a rank-tagged lock belonging to a sharded family: two
    /// same-rank locks may nest only in strictly ascending index order.
    pub const fn with_rank_indexed(rank: u16, index: u32, value: T) -> Self {
        RwLock {
            tag: Tag::indexed(rank, index),
            inner: sync::RwLock::new(value),
        }
    }

    /// Consumes the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires a shared read lock.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        lock_order::acquired(self.tag);
        let guard = self.inner.read().unwrap_or_else(|e| e.into_inner());
        RwLockReadGuard {
            tag: self.tag,
            inner: guard,
        }
    }

    /// Acquires an exclusive write lock.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        lock_order::acquired(self.tag);
        let guard = self.inner.write().unwrap_or_else(|e| e.into_inner());
        RwLockWriteGuard {
            tag: self.tag,
            inner: guard,
        }
    }

    /// Returns a mutable reference to the underlying data.
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> Self {
        RwLock::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        lock_order::released(self.tag);
    }
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: ?Sized> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        lock_order::released(self.tag);
    }
}

/// Outcome of [`Condvar::wait_for`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    /// Whether the wait ended because the timeout elapsed.
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

/// A condition variable usable with [`MutexGuard`].
pub struct Condvar {
    inner: sync::Condvar,
}

impl Condvar {
    /// Creates a new condition variable.
    pub const fn new() -> Self {
        Condvar {
            inner: sync::Condvar::new(),
        }
    }

    /// Blocks until notified, releasing the guard's mutex while waiting.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let std_guard = guard.inner.take().expect("guard taken");
        // The mutex is released for the duration of the wait, so the
        // held-rank stack must not list it while this thread is parked.
        lock_order::released(guard.tag);
        let reacquired = self
            .inner
            .wait(std_guard)
            .unwrap_or_else(|e| e.into_inner());
        lock_order::acquired(guard.tag);
        guard.inner = Some(reacquired);
    }

    /// Blocks until notified or `timeout` elapses.
    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        let std_guard = guard.inner.take().expect("guard taken");
        lock_order::released(guard.tag);
        let (std_guard, result) = self
            .inner
            .wait_timeout(std_guard, timeout)
            .unwrap_or_else(|e| e.into_inner());
        lock_order::acquired(guard.tag);
        guard.inner = Some(std_guard);
        WaitTimeoutResult(result.timed_out())
    }

    /// Wakes one waiting thread.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wakes all waiting threads.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

impl Default for Condvar {
    fn default() -> Self {
        Condvar::new()
    }
}

impl fmt::Debug for Condvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Condvar")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_round_trip() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn rwlock_readers_and_writer() {
        let l = RwLock::new(vec![1, 2]);
        {
            let a = l.read();
            let b = l.read();
            assert_eq!(a.len() + b.len(), 4);
        }
        l.write().push(3);
        assert_eq!(*l.read(), vec![1, 2, 3]);
    }

    #[test]
    fn condvar_wakes_waiter() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let t = std::thread::spawn(move || {
            let (lock, cv) = &*p2;
            let mut started = lock.lock();
            *started = true;
            cv.notify_one();
        });
        let (lock, cv) = &*pair;
        let mut started = lock.lock();
        while !*started {
            cv.wait(&mut started);
        }
        t.join().unwrap();
        assert!(*started);
    }

    #[test]
    fn condvar_wait_for_times_out() {
        let lock = Mutex::new(());
        let cv = Condvar::new();
        let mut g = lock.lock();
        let r = cv.wait_for(&mut g, Duration::from_millis(10));
        assert!(r.timed_out());
    }

    #[test]
    fn ranked_constructors_lock_fine() {
        let a = Mutex::with_rank(lock_order::OPS_GATE, 1u32);
        let b = RwLock::with_rank(lock_order::ROUTING_STATE, 2u32);
        let ga = a.lock();
        let gb = b.read();
        assert_eq!(*ga + *gb, 3);
    }

    #[cfg(feature = "lock_order")]
    mod lock_order_checks {
        use super::super::*;

        #[test]
        fn ascending_ranks_are_tracked() {
            let outer = Mutex::with_rank(lock_order::OPS_GATE, ());
            let inner = Mutex::with_rank(lock_order::REPLICATION_LOG, ());
            let g1 = outer.lock();
            let g2 = inner.lock();
            assert_eq!(
                lock_order::held_ranks(),
                vec![lock_order::OPS_GATE, lock_order::REPLICATION_LOG]
            );
            drop(g2);
            drop(g1);
            assert!(lock_order::held_ranks().is_empty());
        }

        #[test]
        fn out_of_order_release_is_legal() {
            let a = Mutex::with_rank(lock_order::OPS_GATE, ());
            let b = Mutex::with_rank(lock_order::ROUTING_STATE, ());
            let ga = a.lock();
            let gb = b.lock();
            drop(ga);
            assert_eq!(lock_order::held_ranks(), vec![lock_order::ROUTING_STATE]);
            drop(gb);
        }

        #[test]
        fn indexed_shards_nest_ascending() {
            let s0 = Mutex::with_rank_indexed(lock_order::MIGRATION_STRIPE, 0, ());
            let s3 = Mutex::with_rank_indexed(lock_order::MIGRATION_STRIPE, 3, ());
            let g0 = s0.lock();
            let g3 = s3.lock();
            drop(g3);
            drop(g0);
        }

        #[test]
        #[should_panic(expected = "lock-rank inversion")]
        fn rank_inversion_panics() {
            let low = Mutex::with_rank(lock_order::OPS_GATE, ());
            let high = Mutex::with_rank(lock_order::REPLICATION_LOG, ());
            let _gh = high.lock();
            let _gl = low.lock();
        }

        #[test]
        #[should_panic(expected = "lock-rank inversion")]
        fn descending_shard_indices_panic() {
            let s0 = Mutex::with_rank_indexed(lock_order::MIGRATION_STRIPE, 0, ());
            let s3 = Mutex::with_rank_indexed(lock_order::MIGRATION_STRIPE, 3, ());
            let _g3 = s3.lock();
            let _g0 = s0.lock();
        }

        #[test]
        #[should_panic(expected = "lock-rank inversion")]
        fn retaking_a_held_stripe_panics_instead_of_deadlocking() {
            let stripe = Mutex::with_rank_indexed(lock_order::KEY_LOCK, 5, ());
            let _held = stripe.lock();
            let _again = stripe.lock();
        }

        #[test]
        #[should_panic(expected = "lock-rank inversion")]
        fn unindexed_same_rank_nesting_panics() {
            let a = Mutex::with_rank(lock_order::KEY_LOCK, ());
            let b = Mutex::with_rank(lock_order::KEY_LOCK, ());
            let _ga = a.lock();
            let _gb = b.lock();
        }

        #[test]
        fn condvar_wait_releases_rank_while_parked() {
            let pair = std::sync::Arc::new((
                Mutex::with_rank(lock_order::REPLICATION_LOG, false),
                Condvar::new(),
            ));
            let p2 = std::sync::Arc::clone(&pair);
            let t = std::thread::spawn(move || {
                let (lock, cv) = &*p2;
                let mut done = lock.lock();
                *done = true;
                cv.notify_one();
            });
            let (lock, cv) = &*pair;
            let mut done = lock.lock();
            while !*done {
                cv.wait(&mut done);
            }
            assert_eq!(lock_order::held_ranks(), vec![lock_order::REPLICATION_LOG]);
            t.join().unwrap();
        }
    }
}
