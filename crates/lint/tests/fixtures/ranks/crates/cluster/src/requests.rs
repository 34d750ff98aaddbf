// Fixture: `gate` and `table` are built in `state.rs`, another file of
// this crate. The test asserts exact lines; keep the layout.

fn inverted(state: &State) {
    let _t = state.table.read();
    let _g = state.gate.read(); // line 6: OPS_GATE under ROUTING_STATE
}
