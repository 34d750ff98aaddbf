// Fixture: nothing here is a finding. `gate` and `table` are another
// crate's fields, and this file is in neither module that builds `shards`,
// so taking `registry` under a `shards` guard goes unchecked.

fn other_crates_fields(state: &State) {
    let _t = state.table.read();
    let _g = state.gate.read();
}

fn outside_both_shards_modules(&self, map: &Map) {
    let _s = self.shards.get(&1).lock();
    let _r = map.registry.lock();
}
