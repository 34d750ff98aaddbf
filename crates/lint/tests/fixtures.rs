//! Fixture tests: each pass runs over a small source file with known
//! violations and the findings must match exactly — pass, file, and line.

use pesos_lint::{lint_source, Finding, Pass};

/// Lints fixture `name`; `request_path` turns panic-freedom on.
fn lint_fixture(name: &str, request_path: bool) -> Vec<Finding> {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    let source = std::fs::read_to_string(&path).expect("fixture readable");
    lint_source(&format!("fixtures/{name}"), &source, request_path)
}

fn as_pass_lines(findings: &[Finding]) -> Vec<(Pass, u32)> {
    findings.iter().map(|f| (f.pass, f.line)).collect()
}

#[test]
fn lock_hierarchy_fixture() {
    let findings = lint_fixture("lock_hierarchy.rs", false);
    assert_eq!(
        as_pass_lines(&findings),
        vec![(Pass::LockHierarchy, 14), (Pass::LockHierarchy, 25)],
        "{findings:#?}"
    );
    assert!(findings[0].message.contains("OPS_GATE"));
    assert!(findings[0].message.contains("ROUTING_STATE"));
    assert!(findings[1].message.contains("MIGRATION_STRIPE"));
}

#[test]
fn lock_ranks_are_read_from_constructors() {
    // A miniature workspace: `cluster` builds `gate` and `table` in
    // `state.rs`; `core` builds `shards` at two ranks, in `metadata.rs` and
    // in `cache.rs`, and `registry` once.
    let root = format!("{}/tests/fixtures/ranks", env!("CARGO_MANIFEST_DIR"));
    let findings = pesos_lint::lint_workspace(std::path::Path::new(&root)).expect("fixture lints");
    let found: Vec<(&str, Pass, u32)> = findings
        .iter()
        .map(|f| (f.file.as_str(), f.pass, f.line))
        .collect();
    assert_eq!(
        found,
        vec![
            // A field built in one file resolves in another of its crate
            // (and not in another crate: `core/src/requests.rs` is clean).
            ("crates/cluster/src/requests.rs", Pass::LockHierarchy, 6),
            // An unknown rank name is a finding.
            ("crates/cluster/src/state.rs", Pass::LockHierarchy, 9),
            // A name built at two ranks resolves per sub-module and per
            // file.
            ("crates/core/src/cache/evict.rs", Pass::LockHierarchy, 8),
            ("crates/core/src/metadata.rs", Pass::LockHierarchy, 17),
        ],
        "{findings:#?}"
    );
    let message = |i: usize| findings[i].message.as_str();
    assert!(message(0).contains("OPS_GATE") && message(0).contains("ROUTING_STATE"));
    assert!(message(1).contains("NOT_A_RANK"));
    assert!(message(2).contains("KEY_LOCK") && message(2).contains("OBJECT_CACHE_SHARD"));
    assert!(message(3).contains("two METADATA_SHARD locks"));
}

#[test]
fn guard_across_io_fixture() {
    let findings = lint_fixture("guard_across_io.rs", false);
    assert_eq!(
        as_pass_lines(&findings),
        vec![(Pass::GuardAcrossIo, 9), (Pass::GuardAcrossIo, 14)],
        "{findings:#?}"
    );
    assert!(findings[0].message.contains("OPS_GATE"));
    assert!(findings[1].message.contains("queue"));
}

#[test]
fn joined_submission_fixture() {
    let findings = lint_fixture("joined_io.rs", false);
    assert_eq!(
        as_pass_lines(&findings),
        vec![(Pass::GuardAcrossIo, 10)],
        "{findings:#?}"
    );
    assert!(findings[0].message.contains("OPS_GATE"));
}

#[test]
fn panic_freedom_fixture() {
    let findings = lint_fixture("panic_freedom.rs", true);
    assert_eq!(
        as_pass_lines(&findings),
        vec![
            (Pass::PanicFreedom, 5),
            (Pass::PanicFreedom, 9),
            (Pass::PanicFreedom, 17),
            (Pass::PanicFreedom, 21),
            (Pass::BadAllow, 34),
            (Pass::PanicFreedom, 35),
            (Pass::BadAllow, 39),
        ],
        "{findings:#?}"
    );
}

#[test]
fn a_file_under_inner_cfg_test_is_test_code() {
    let findings = lint_fixture("test_module_file.rs", true);
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn acked_logged_fixture() {
    let findings = lint_fixture("acked_logged.rs", true);
    assert_eq!(
        as_pass_lines(&findings),
        vec![(Pass::AckedLogged, 15), (Pass::BadAllow, 34)],
        "{findings:#?}"
    );
    assert!(findings[0].message.contains("put_async"));
}

#[test]
fn unreached_module_fixture() {
    // A miniature workspace: `reached_fixture` is named by `tests/uses.rs`,
    // `reexported_fixture` only by the `pub use` in `lib.rs` and itself.
    let root = format!("{}/tests/fixtures/unreached", env!("CARGO_MANIFEST_DIR"));
    let findings = pesos_lint::lint_workspace(std::path::Path::new(&root)).expect("fixture lints");
    assert_eq!(
        as_pass_lines(&findings),
        vec![(Pass::UnreachedModule, 3)],
        "{findings:#?}"
    );
    assert_eq!(findings[0].file, "crates/wire/src/lib.rs");
    assert!(findings[0].message.contains("wire::reexported_fixture"));
}

#[test]
fn fixture_files_report_their_path() {
    let findings = lint_fixture("panic_freedom.rs", true);
    assert!(findings
        .iter()
        .all(|f| f.file == "fixtures/panic_freedom.rs"));
}
