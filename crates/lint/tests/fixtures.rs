//! Fixture tests: each pass runs over a small source file with known
//! violations and the findings must match exactly — pass, file, and line.

use pesos_lint::{lint_source, Finding, Options, Pass};

fn lint_fixture(name: &str, opts: &Options) -> Vec<Finding> {
    lint_fixture_as(name, &format!("fixtures/{name}"), opts)
}

/// Lints fixture `name` as if it lived at `file`: the reported path drives
/// path-scoped family lookup.
fn lint_fixture_as(name: &str, file: &str, opts: &Options) -> Vec<Finding> {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    let source = std::fs::read_to_string(&path).expect("fixture readable");
    lint_source(file, &source, opts)
}

fn as_pass_lines(findings: &[Finding]) -> Vec<(Pass, u32)> {
    findings.iter().map(|f| (f.pass, f.line)).collect()
}

#[test]
fn lock_hierarchy_fixture() {
    let findings = lint_fixture("lock_hierarchy.rs", &Options::without_panic_freedom());
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
fn scoped_families_resolve_in_sub_modules_of_their_scope() {
    let opts = Options::without_panic_freedom();
    // `clients`/`policies` are ranked only inside the cluster module; a
    // file of its directory is inside it, like the module's root file.
    for file in [
        "crates/cluster/src/cluster.rs",
        "crates/cluster/src/cluster/migration.rs",
    ] {
        let findings = lint_fixture_as("scoped_submodule.rs", file, &opts);
        assert_eq!(
            as_pass_lines(&findings),
            vec![(Pass::LockHierarchy, 14)],
            "{file}: {findings:#?}"
        );
        assert!(findings[0].message.contains("CLUSTER_CLIENTS"));
        assert!(findings[0].message.contains("CLUSTER_POLICIES"));
    }
    // Outside the scope the same names are some other struct's fields.
    for file in [
        "fixtures/scoped_submodule.rs",
        "crates/cluster/src/clusterish.rs",
    ] {
        let findings = lint_fixture_as("scoped_submodule.rs", file, &opts);
        assert!(findings.is_empty(), "{file}: {findings:#?}");
    }
}

#[test]
fn guard_across_io_fixture() {
    let findings = lint_fixture("guard_across_io.rs", &Options::without_panic_freedom());
    assert_eq!(
        as_pass_lines(&findings),
        vec![(Pass::GuardAcrossIo, 9), (Pass::GuardAcrossIo, 14)],
        "{findings:#?}"
    );
    assert!(findings[0].message.contains("OPS_GATE"));
    assert!(findings[1].message.contains("queue"));
}

#[test]
fn panic_freedom_fixture() {
    let findings = lint_fixture("panic_freedom.rs", &Options::all());
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
    let findings = lint_fixture("test_module_file.rs", &Options::all());
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn acked_logged_fixture() {
    let findings = lint_fixture("acked_logged.rs", &Options::all());
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
    let findings = lint_fixture("panic_freedom.rs", &Options::all());
    assert!(findings
        .iter()
        .all(|f| f.file == "fixtures/panic_freedom.rs"));
}
