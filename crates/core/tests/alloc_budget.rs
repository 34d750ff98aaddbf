//! Heap allocations per request, counted.
//!
//! The counter is process-wide (a `#[global_allocator]`), so it sees the
//! allocations of every thread an operation touches: the caller, the
//! asyscall service threads and the drive. The checks live in a test binary
//! of their own, and its tests take turns under one lock, so nothing else
//! allocates while a delta is being read.
//!
//! One client, one controller on `ControllerConfig::sgx_simulator(1)` (one
//! drive, no replication) with an object cache of one lock shard sized for
//! a single 1 KiB object. Reading two keys in turn makes every read a miss,
//! as a larger-than-cache workload does. A miss's fill is refused until the
//! key's reads outrank the entry it would evict in the cache's admission
//! sketch; then it fills the cache and evicts the other key. So each key is
//! read until its fill lands, which measures both kinds of miss, and
//! reading it once more is a hit.
//!
//! A backup applies its primary's log without deciding, sealing or caching
//! anything: one run of one-version records is measured per record on the
//! same configuration, its single drive lane running on the caller.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use pesos_core::{BatchLog, ControllerConfig, PesosController};
use pesos_kinetic::BatchOp;
use pesos_sgx::HostPool;

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator, which
// upholds the `GlobalAlloc` contract; counting touches only an atomic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are the system allocator's own.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` above with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc` and `dealloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The tests measure one at a time.
static MEASURE_LOCK: Mutex<()> = Mutex::new(());

fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

const VALUE: usize = 1024;
const ROUNDS: usize = 32;

/// The most allocations any one of `counts` made, after printing them.
fn worst(what: &str, counts: &[u64]) -> u64 {
    println!("{what}: {counts:?}");
    counts.iter().copied().max().unwrap_or(0)
}

#[test]
fn a_request_allocates_within_its_budget() {
    let _serial = MEASURE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let config = ControllerConfig {
        lock_shards: 1,
        object_cache_bytes: VALUE + VALUE / 2,
        ..ControllerConfig::sgx_simulator(1)
    };
    let c = PesosController::new(config).unwrap();
    let client = c.register_client("budget");
    let value = |round: usize| vec![round as u8; VALUE];
    // Warm every lazily built structure (session, shards, drive tables).
    for key in ["warm/a", "warm/b"] {
        c.put(&client, key, value(0), None, None, &[]).unwrap();
        c.put(&client, key, value(1), None, None, &[]).unwrap();
        c.get(&client, key, &[]).unwrap();
    }

    let (mut creates, mut updates, mut hits) = (vec![], vec![], vec![]);
    let (mut fills, mut refusals) = (vec![], vec![]);
    for round in 0..ROUNDS {
        let key = format!("obj/{round}");
        let v = value(round);
        let (version, n) = allocations(|| c.put(&client, &*key, &v, None, None, &[]));
        assert_eq!(version.unwrap(), 0);
        creates.push(n);
        let v = value(round);
        let (version, n) = allocations(|| c.put(&client, &*key, &v, None, None, &[]));
        assert_eq!(version.unwrap(), 1);
        updates.push(n);
        // The cache holds one object: `warm/a` and `warm/b` evict each
        // other, each read until its fill wins admission.
        for warm in ["warm/a", "warm/b"] {
            for attempt in 0.. {
                assert!(attempt < 32, "{warm}'s fill never won admission");
                let before = c.store().object_cache_stats();
                let (read, n) = allocations(|| c.get(&client, warm, &[]));
                assert_eq!(read.unwrap().0.len(), VALUE);
                let after = c.store().object_cache_stats();
                assert_eq!(after.misses, before.misses + 1, "{warm} was cached");
                if after.evictions > before.evictions {
                    fills.push(n);
                    break;
                }
                assert_eq!(after.refused, before.refused + 1);
                refusals.push(n);
            }
        }
        let (read, n) = allocations(|| c.get(&client, "warm/b", &[]));
        assert_eq!(read.unwrap().1, 1);
        hits.push(n);
    }
    let stats = c.store().object_cache_stats();
    assert!(stats.hits >= ROUNDS as u64 && !refusals.is_empty());
    let calls = c.store().asyscall_stats();
    println!("handed off: {}, exits: {}", calls.submitted, calls.exits);

    let create = worst("create", &creates);
    let update = worst("update", &updates);
    let miss = worst("cache-miss get that fills", &fills);
    let refused = worst("cache-miss get refused a fill", &refusals);
    let hit = worst("cache-hit get", &hits);
    assert!(
        create <= 22,
        "a create made {create} allocations (budget 22)"
    );
    assert!(
        update <= 25,
        "an update made {update} allocations (budget 25)"
    );
    assert!(
        miss <= 15,
        "a cache-miss get made {miss} allocations (budget 15)"
    );
    assert!(
        refused <= 15,
        "a cache-miss get refused a fill made {refused} allocations (budget 15)"
    );
    assert!(
        hit <= 1,
        "a cache-hit get made {hit} allocations (budget 1)"
    );
}

/// A log that keeps what the primary's store appends.
#[derive(Default)]
struct Captured(Mutex<Vec<(String, Arc<[BatchOp]>)>>);

impl BatchLog for Captured {
    fn append(&self, placement_key: &str, ops: &Arc<[BatchOp]>) {
        let record = (placement_key.to_string(), Arc::clone(ops));
        self.0.lock().unwrap().push(record);
    }
}

#[test]
fn a_backup_applies_a_record_within_its_budget() {
    const RECORDS: usize = 64;
    let _serial = MEASURE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let config = ControllerConfig::sgx_simulator(1);
    let primary = PesosController::new(config.clone()).unwrap();
    let log = Arc::new(Captured::default());
    primary.store().attach_log(&log);
    let client = primary.register_client("budget");
    for i in 0..=RECORDS {
        let key = format!("rec/{i}");
        let version = primary.put(&client, &*key, vec![i as u8; VALUE], None, None, &[]);
        assert_eq!(version.unwrap(), 0);
    }
    let mut records = std::mem::take(&mut *log.0.lock().unwrap());
    assert_eq!(records.len(), RECORDS + 1);
    let run = records.split_off(1);

    let pool = HostPool::new(config.syscall_slots());
    let backup = pesos_core::bootstrap::bootstrap(&config, &pool).unwrap();
    // Warm the backup's lazily built structures with the first record.
    backup.apply_run(&records).unwrap();
    let (applied, n) = allocations(|| backup.apply_run(&run));
    applied.unwrap();
    let calls = backup.asyscall_stats();
    println!(
        "backup handed off: {}, exits: {}",
        calls.submitted, calls.exits
    );
    let per_record = n as f64 / RECORDS as f64;
    println!("apply_run: {n} allocations for {RECORDS} records, {per_record:.2} per record");
    // Measured 462 for 64 records (7.22 each): a run's drive lane, its
    // batches of up to 15 sub-operations and their frames.
    assert!(
        per_record <= 9.0,
        "a backup made {per_record:.2} allocations per applied record \
         (budget 9; measured 7.22)"
    );
}
