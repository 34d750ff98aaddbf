//! Sharded, windowed per-placement-group operation counters.
//!
//! A fixed, power-of-two table of slots keyed by routing hash. Recording
//! is a short linear probe plus one relaxed `fetch_add` — no locks on the
//! request path; the only allocation is the group's display name, stored
//! once when a slot is first claimed. The table never grows: once the
//! probe window around a hash is full, further *new* groups under it are
//! counted in an overflow tally instead (hot groups by definition recur,
//! so they claim slots early; the overflow tally makes the loss visible).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Linear-probe window: a new group tries this many slots before landing
/// in the overflow tally.
const PROBE: u64 = 8;

/// An empty slot's tag. A routing hash of exactly 0 is remapped to
/// `u64::MAX` before tagging (routing hashes are SHA-256-derived, so both
/// values are vanishingly rare; a collision merely merges two groups'
/// tallies — telemetry, not correctness).
const EMPTY: u64 = 0;

struct Slot {
    /// The claiming group's (remapped) routing hash; [`EMPTY`] when free.
    tag: AtomicU64,
    count: AtomicU64,
    baseline: AtomicU64,
    /// Display name (the routing prefix), set once by the claiming thread.
    /// Readers racing the claim render the hash instead.
    name: OnceLock<Box<str>>,
}

impl Slot {
    fn new() -> Self {
        Slot {
            tag: AtomicU64::new(EMPTY),
            count: AtomicU64::new(0),
            baseline: AtomicU64::new(0),
            name: OnceLock::new(),
        }
    }

    fn windowed(&self) -> u64 {
        self.count
            .load(Ordering::Relaxed)
            .saturating_sub(self.baseline.load(Ordering::Relaxed))
    }
}

/// One hot group, as reported by [`HotKeyTracker::top`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HotGroup {
    /// The group's routing prefix (or `#<hex hash>` if the name was still
    /// being claimed when read).
    pub group: String,
    /// Operations recorded for the group in the current window.
    pub ops: u64,
}

/// Lock-free tracker of per-group operation counts, windowed like the
/// partition-load accounting: [`HotKeyTracker::reset_window`] restarts
/// the tallies without touching the lifetime counters.
pub struct HotKeyTracker {
    slots: Box<[Slot]>,
    mask: u64,
    /// Records that found no free slot within the probe window.
    overflow: AtomicU64,
}

impl std::fmt::Debug for HotKeyTracker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HotKeyTracker")
            .field("capacity", &self.slots.len())
            .field("tracked", &self.tracked())
            .field("overflow", &self.overflow.load(Ordering::Relaxed))
            .finish()
    }
}

impl HotKeyTracker {
    /// A tracker with at least `capacity` slots (rounded up to a power of
    /// two, minimum 8).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.clamp(8, 1 << 20).next_power_of_two();
        HotKeyTracker {
            slots: (0..capacity).map(|_| Slot::new()).collect(),
            mask: capacity as u64 - 1,
            overflow: AtomicU64::new(0),
        }
    }

    fn tag_of(hash: u64) -> u64 {
        if hash == EMPTY {
            u64::MAX
        } else {
            hash
        }
    }

    /// Counts one operation against the group with routing hash `hash`;
    /// `name` is the group's routing prefix, copied only if this record
    /// claims a fresh slot.
    pub fn record(&self, hash: u64, name: &str) {
        let tag = Self::tag_of(hash);
        for i in 0..PROBE {
            let index = (tag.wrapping_add(i) & self.mask) as usize;
            let Some(slot) = self.slots.get(index) else {
                continue;
            };
            let current = slot.tag.load(Ordering::Acquire);
            if current == tag {
                slot.count.fetch_add(1, Ordering::Relaxed);
                return;
            }
            if current == EMPTY {
                match slot
                    .tag
                    .compare_exchange(EMPTY, tag, Ordering::AcqRel, Ordering::Acquire)
                {
                    Ok(_) => {
                        let _ = slot.name.set(name.into());
                        slot.count.fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                    Err(actual) if actual == tag => {
                        // Another thread claimed the slot for this same
                        // group between the load and the exchange.
                        slot.count.fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                    Err(_) => {} // claimed by a different group; keep probing
                }
            }
        }
        self.overflow.fetch_add(1, Ordering::Relaxed);
    }

    /// Windowed operation count for the group with routing hash `hash`
    /// (0 if untracked).
    pub fn ops_for(&self, hash: u64) -> u64 {
        let tag = Self::tag_of(hash);
        for i in 0..PROBE {
            let index = (tag.wrapping_add(i) & self.mask) as usize;
            let Some(slot) = self.slots.get(index) else {
                continue;
            };
            if slot.tag.load(Ordering::Acquire) == tag {
                return slot.windowed();
            }
        }
        0
    }

    /// Total windowed operations across all tracked groups. Zero means
    /// the window is cold (nothing recorded since the last reset).
    pub fn total(&self) -> u64 {
        self.slots.iter().map(Slot::windowed).sum()
    }

    /// Number of groups holding a slot.
    pub fn tracked(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| s.tag.load(Ordering::Relaxed) != EMPTY)
            .count()
    }

    /// Records that fell into the overflow tally (probe window full).
    pub fn overflowed(&self) -> u64 {
        self.overflow.load(Ordering::Relaxed)
    }

    /// The `k` hottest groups of the current window, hottest first; ties
    /// break by name so the order is stable.
    pub fn top(&self, k: usize) -> Vec<HotGroup> {
        let mut groups: Vec<HotGroup> = self
            .slots
            .iter()
            .filter(|s| s.tag.load(Ordering::Acquire) != EMPTY)
            .map(|s| HotGroup {
                group: s
                    .name
                    .get()
                    .map(|n| n.to_string())
                    .unwrap_or_else(|| format!("#{:016x}", s.tag.load(Ordering::Relaxed))),
                ops: s.windowed(),
            })
            .filter(|g| g.ops > 0)
            .collect();
        groups.sort_by(|a, b| b.ops.cmp(&a.ops).then_with(|| a.group.cmp(&b.group)));
        groups.truncate(k);
        groups
    }

    /// Starts a new window (see [`crate::Histogram::reset_window`] for the
    /// lock-free baseline scheme).
    pub fn reset_window(&self) {
        for slot in self.slots.iter() {
            slot.baseline
                .store(slot.count.load(Ordering::Relaxed), Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_ranks_groups() {
        let t = HotKeyTracker::new(64);
        for _ in 0..10 {
            t.record(111, "alpha");
        }
        for _ in 0..3 {
            t.record(222, "beta");
        }
        t.record(333, "gamma");
        assert_eq!(t.ops_for(111), 10);
        assert_eq!(t.ops_for(222), 3);
        assert_eq!(t.ops_for(999), 0);
        assert_eq!(t.total(), 14);
        assert_eq!(t.tracked(), 3);
        let top = t.top(2);
        assert_eq!(top.len(), 2);
        assert_eq!(
            top[0],
            HotGroup {
                group: "alpha".into(),
                ops: 10
            }
        );
        assert_eq!(
            top[1],
            HotGroup {
                group: "beta".into(),
                ops: 3
            }
        );
    }

    #[test]
    fn window_reset_clears_tallies_not_slots() {
        let t = HotKeyTracker::new(64);
        t.record(7, "g");
        t.reset_window();
        assert_eq!(t.ops_for(7), 0);
        assert_eq!(t.total(), 0);
        assert_eq!(t.tracked(), 1);
        assert!(t.top(8).is_empty());
        t.record(7, "g");
        assert_eq!(t.ops_for(7), 1);
    }

    #[test]
    fn zero_hash_is_remapped_not_lost() {
        let t = HotKeyTracker::new(8);
        t.record(0, "zero");
        assert_eq!(t.ops_for(0), 1);
        assert_eq!(t.tracked(), 1);
    }

    #[test]
    fn overflow_is_tallied_once_probe_window_fills() {
        let t = HotKeyTracker::new(8); // 8 slots, probe window 8
        for hash in 1..=20u64 {
            t.record(hash, "g");
        }
        assert_eq!(t.tracked(), 8);
        assert_eq!(t.overflowed() + 8, 20);
        // Existing groups still count despite the full table.
        let before = t.total();
        t.record(1, "g");
        assert_eq!(t.total(), before + 1);
    }
}
