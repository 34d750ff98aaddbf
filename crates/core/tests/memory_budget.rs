//! Live heap bytes per created key, counted.
//!
//! Pesos keeps every object's metadata record inside the enclave, so the
//! bytes one key costs set how many objects a controller serves before its
//! state outgrows the usable EPC. The counter is a process-wide
//! `#[global_allocator]` that tracks the bytes currently allocated, by every
//! thread: the caller, the asyscall service threads and the simulator
//! drive, whose stored entries are included. The check lives in a test
//! binary of its own with a single test function, so nothing else
//! allocates while the difference is read.
//!
//! One client, one controller on `ControllerConfig::sgx_simulator(1)` (one
//! drive, no replication) with the object cache off, creating `KEYS` keys
//! of 20 bytes with 1 KiB values. Per key that is the drive's sealed
//! object and metadata head under their backend keys, and the controller's
//! metadata-map entry and its one-fact history; the key locks are fixed
//! stripes and cost nothing per key.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use pesos_core::{ControllerConfig, PesosController};

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator, which
// upholds the `GlobalAlloc` contract; counting touches only an atomic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations are the system allocator's own.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from `System.alloc` above with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `alloc` and `dealloc`.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            LIVE.fetch_add(new_size, Ordering::Relaxed);
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        moved
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const KEYS: usize = 8192;
const VALUE: usize = 1024;

/// Live bytes per created key: 1 713 with the key locks striped and
/// 64-byte metadata-map entries. With a key-lock registry entry per key and
/// 112-byte map entries the same test read 1 926; the ceiling is 10 %
/// below that.
const PER_KEY_CEILING: usize = 1733;

#[test]
fn a_created_key_costs_the_heap_within_its_budget() {
    let config = ControllerConfig {
        object_cache_bytes: 0,
        ..ControllerConfig::sgx_simulator(1)
    };
    let c = PesosController::new(config).unwrap();
    let client = c.register_client("budget");
    let value = vec![7u8; VALUE];
    // Warm every lazily built structure (session, shards, drive tables).
    for i in 0..64 {
        let key = format!("warm/{i:015}");
        c.put(&client, &*key, &value, None, None, &[]).unwrap();
    }

    let before = LIVE.load(Ordering::Relaxed);
    for i in 0..KEYS {
        let key = format!("key/{i:016}");
        assert_eq!(key.len(), 20);
        let version = c.put(&client, &*key, &value, None, None, &[]).unwrap();
        assert_eq!(version, 0);
    }
    let grown = LIVE.load(Ordering::Relaxed).saturating_sub(before);
    assert_eq!(c.store().resident_object_count(), KEYS + 64);
    let per_key = grown / KEYS;
    println!("live bytes per created key: {per_key} ({grown} over {KEYS} creates)");
    assert!(
        per_key <= PER_KEY_CEILING,
        "a created key costs {per_key} live bytes (budget {PER_KEY_CEILING})"
    );
}
