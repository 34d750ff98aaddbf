//! Fixture workspace for the unreached-module pass (linted as `wire`).
pub mod reached_fixture;
pub mod reexported_fixture;

pub use reached_fixture::ReachedFixtureThing;
pub use reexported_fixture::{OrphanFixtureThing, ORPHAN_FIXTURE_LIMIT};
