// Fixture for the guard-across-I/O pass on a joined submission: its first
// call may run on the submitting thread, a drive round trip like any
// other. The test asserts exact line numbers; keep the layout stable.

struct S;

impl S {
    fn guard_live_across_a_joined_call(&self) {
        let _gate = self.ops_gate.read();
        self.asyscall.submit_joined(work).wait_single(); // line 10: guard from line 9 live
    }

    fn scoped_guard_is_fine(&self) {
        {
            let _gate = self.ops_gate.read();
        }
        self.asyscall.submit_joined(work).wait_single();
    }

    fn new() -> S {
        S {
            ops_gate: parking_lot::RwLock::with_rank(lock_order::OPS_GATE, ()),
        }
    }
}
