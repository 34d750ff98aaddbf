//! Unreached: named only by the `pub use` in `lib.rs` and by its own tests.
pub struct OrphanFixtureThing;
pub const ORPHAN_FIXTURE_LIMIT: usize = 4;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_tests_do_not_reach_it() {
        let _ = (OrphanFixtureThing, ORPHAN_FIXTURE_LIMIT);
    }
}
