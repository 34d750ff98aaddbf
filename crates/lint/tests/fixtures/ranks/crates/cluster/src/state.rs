// Fixture: the `cluster` crate builds its ranked locks here and takes
// them in `requests.rs`. The test asserts exact lines; keep the layout.

impl State {
    fn new() -> State {
        State {
            gate: RwLock::with_rank(lock_order::OPS_GATE, ()),
            table: RwLock::with_rank(lock_order::ROUTING_STATE, ()),
            spare: Mutex::with_rank(lock_order::NOT_A_RANK, ()), // line 9: unknown rank
        }
    }
}
