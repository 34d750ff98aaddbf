//! A user outside the crate: this is what makes a module reached.
use wire::ReachedFixtureThing;
// Another crate's module of the same name is not a use.
use elsewhere::reexported_fixture::Unrelated;
