//! Reached: `tests/uses.rs` names its public type.
pub struct ReachedFixtureThing;

pub(crate) fn crate_private_fixture_helper() {}
