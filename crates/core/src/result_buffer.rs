//! The asynchronous-operation result buffer.
//!
//! Asynchronous put/update/delete requests are acknowledged immediately with
//! an operation identifier; once the backend write completes, its result is
//! stored here for the client to poll. Because enclave memory is scarce,
//! only the results of the most recent operations are retained (2048 by
//! default), and older ones are discarded (paper §4.1).
//!
//! Operation ids are dense, so the buffer is a [`ShardedFifoMap`]: the
//! identity shard-index function spreads concurrent `put_async` callers
//! over the shards, and with a capacity the shard count divides it retains
//! exactly the most recent `capacity` operations.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::sharded::ShardedFifoMap;

/// The state of an asynchronous operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AsyncResult {
    /// The operation has been accepted but not yet completed.
    Pending,
    /// The operation completed successfully; an optional version is carried
    /// for writes.
    Completed { version: Option<u64> },
    /// The operation failed.
    Failed { reason: String },
}

/// A bounded buffer of asynchronous operation results, each kept with the
/// client that owns it.
pub struct ResultBuffer {
    next_id: AtomicU64,
    results: ShardedFifoMap<(String, AsyncResult)>,
}

impl ResultBuffer {
    /// Creates a buffer over `shards` lock shards retaining at most
    /// `capacity` results.
    pub fn new(shards: usize, capacity: usize) -> Self {
        ResultBuffer {
            next_id: AtomicU64::new(1),
            results: ShardedFifoMap::new(shards, capacity),
        }
    }

    /// Registers a new pending operation owned by `client` and returns its
    /// operation identifier.
    pub fn register(&self, client: &str) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::SeqCst);
        self.results
            .insert(id, (client.to_string(), AsyncResult::Pending));
        id
    }

    /// Records the completion of operation `id`. If the entry was already
    /// discarded the result is dropped, exactly as the paper describes for
    /// results older than the retention bound.
    pub fn complete(&self, id: u64, result: AsyncResult) {
        self.results.update(id, |entry| entry.1 = result);
    }

    /// Polls the result of operation `id` for `client`.
    ///
    /// Returns `None` if the operation is unknown (never existed, discarded,
    /// or owned by a different client).
    pub fn poll(&self, client: &str, id: u64) -> Option<AsyncResult> {
        self.results
            .get(id)
            .filter(|(owner, _)| owner == client)
            .map(|(_, result)| result)
    }

    /// Number of results currently retained.
    pub fn len(&self) -> usize {
        self.results.len()
    }

    /// True if no results are retained.
    pub fn is_empty(&self) -> bool {
        self.results.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_complete_poll_cycle() {
        let buf = ResultBuffer::new(4, 16);
        let id = buf.register("alice");
        assert_eq!(buf.poll("alice", id), Some(AsyncResult::Pending));
        buf.complete(id, AsyncResult::Completed { version: Some(3) });
        assert_eq!(
            buf.poll("alice", id),
            Some(AsyncResult::Completed { version: Some(3) })
        );
    }

    #[test]
    fn results_are_scoped_to_the_owning_client() {
        let buf = ResultBuffer::new(4, 16);
        let id = buf.register("alice");
        assert!(buf.poll("bob", id).is_none());
        assert!(buf.poll("alice", 999).is_none());
    }

    #[test]
    fn old_results_are_discarded_beyond_capacity() {
        let buf = ResultBuffer::new(2, 4);
        let first = buf.register("c");
        let mut last = first;
        for _ in 0..10 {
            last = buf.register("c");
        }
        assert_eq!(buf.len(), 4);
        assert!(buf.poll("c", first).is_none());
        // Dense ids over evenly dividing shards: exactly the last four.
        for id in last - 3..=last {
            assert_eq!(buf.poll("c", id), Some(AsyncResult::Pending));
        }
        // Completing a discarded operation is a no-op rather than an error.
        buf.complete(
            first,
            AsyncResult::Failed {
                reason: "late".into(),
            },
        );
        assert!(buf.poll("c", first).is_none());
        assert_eq!(buf.len(), 4);
    }

    #[test]
    fn failures_are_reported() {
        let buf = ResultBuffer::new(4, 8);
        let id = buf.register("alice");
        buf.complete(
            id,
            AsyncResult::Failed {
                reason: "disk offline".into(),
            },
        );
        assert!(matches!(
            buf.poll("alice", id),
            Some(AsyncResult::Failed { .. })
        ));
        assert!(!buf.is_empty());
    }
}
