// Fixture for the guard-across-I/O pass. The test asserts exact line
// numbers; keep the layout stable.

struct S;

impl S {
    fn guard_live_across_submit(&self) {
        let _gate = self.ops_gate.read();
        self.asyscall.submit_batch(work); // line 9: guard from line 8 live
    }

    fn unranked_guard_also_counts(&self) {
        let pending = self.queue.lock();
        self.drive.exchange(envelope); // line 14: `queue` guard live
        drop(pending);
    }

    fn scoped_guard_is_fine(&self) {
        {
            let _gate = self.ops_gate.read();
        }
        self.asyscall.submit_batch(work);
    }

    fn temporary_dies_at_statement_end(&self) {
        let snapshot = self.ops_gate.read().clone();
        self.asyscall.submit_batch([move || drop(snapshot)]);
    }

    fn allowed(&self) {
        let _gate = self.ops_gate.read();
        // pesos-lint: allow(guard_across_io, "the batch must be joined under the gate by design")
        self.asyscall.submit_batch(work);
    }

    // `ops_gate` is ranked where it is built; `queue` is not, so line 14's
    // message names the receiver.
    fn new() -> S {
        S {
            ops_gate: parking_lot::RwLock::with_rank(lock_order::OPS_GATE, ()),
            queue: parking_lot::Mutex::new(Vec::new()),
        }
    }
}
