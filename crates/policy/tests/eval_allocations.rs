//! A policy check matches, it does not parse: the allocations of one
//! evaluation, counted.
//!
//! The counter is process-wide (a `#[global_allocator]`), so the checks
//! live in a test binary of their own with a single test function: nothing
//! else allocates while a delta is being read.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use pesos_policy::parser::{LOG_VAR, THIS_VAR};
use pesos_policy::{compile, Operation, RequestContext, StaticObjectView, Value};

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

fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

/// `benchmark/src/target.rs::policy_source`, the MAL shape of paper §5.4.
fn policy_source(index: usize) -> String {
    format!(
        "read :- objId(LOG, L) and sessionKeyIs(U) and objSays(L, LV, 'grant'(U, {index}))\n\
         update :- objId(THIS, O) and currVersion(O, CV) and nextVersion(CV + 1) and sessionKeyIs(\"writer\")\n\
         delete :- sessionKeyIs(\"writer\")"
    )
}

/// A log of `entries` grants under policy `index`, the reader's last.
fn log_contents(entries: usize, index: usize) -> Vec<u8> {
    let mut text = String::new();
    for entry in 1..entries {
        text.push_str(&format!("grant(\"user-{entry:02}\",{index})\n"));
    }
    text.push_str(&format!("grant(\"reader\",{index})\n"));
    text.into_bytes()
}

#[test]
fn an_evaluation_allocates_nothing_per_line() {
    let index = 7;
    let policy = compile(&policy_source(index)).unwrap();
    let context = |client: &str| {
        RequestContext::new(Operation::Read)
            .with_session_key(client)
            .with_now(1)
            .bind(THIS_VAR, Value::Str("rec".into()))
            .bind(LOG_VAR, Value::Str("rec.log".into()))
    };
    let (reader, stranger) = (context("reader"), context("stranger"));

    let mut counts = Vec::new();
    for entries in [16, 256] {
        let mut view = StaticObjectView::new();
        view.insert_contents("rec.log", 0, &log_contents(entries, index));

        let (granted, on_grant) = allocations(|| policy.evaluate(Operation::Read, &reader, &view));
        assert!(granted.allowed);
        let (denied, on_denial) =
            allocations(|| policy.evaluate(Operation::Read, &stranger, &view));
        assert!(!denied.allowed);
        counts.push((on_grant, on_denial));
    }

    // Every line of the log is scanned before the grant (the reader's is the
    // last) or the denial, and 240 more lines cost not one allocation more.
    assert_eq!(counts[0], counts[1], "allocations grow with the log");
    let (on_grant, on_denial) = counts[0];
    // What `U`, `L` and `LV` bind is borrowed from the request or is an
    // integer; the ceiling leaves room for a view that has to copy.
    assert!(on_grant <= 4, "a granted read allocated {on_grant} times");
    // A denial allocates its reason and nothing else.
    assert_eq!(on_denial, 1);
    eprintln!("allocations per evaluation: granted {on_grant}, denied {on_denial}");
}
