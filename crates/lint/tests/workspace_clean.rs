//! The live workspace must stay lint-clean: every finding is either fixed
//! or explicitly allow-annotated with a reason. This is the same gate CI
//! runs via `cargo run -p pesos-lint`.
//!
//! Allow directives are ratcheted too: the tree outside the lint's fixtures
//! carries exactly the ones [`EXEMPTIONS`] lists, so a new exemption needs
//! an edit here.

use std::path::{Path, PathBuf};

/// Every `pesos-lint: allow` directive under `crates/`, outside the lint's
/// fixtures, as `(workspace-relative file, pass)`.
const EXEMPTIONS: &[(&str, &str)] = &[
    // `PartitionTable::even` keeps the infallible shape the benchmark's
    // route probe calls; the cluster builds its tables fallibly.
    ("crates/cluster/src/router.rs", "panic_freedom"),
];

fn workspace_root() -> PathBuf {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    pesos_lint::find_workspace_root(manifest).expect("workspace root")
}

#[test]
fn workspace_has_no_unallowlisted_findings() {
    let findings = pesos_lint::lint_workspace(&workspace_root()).expect("workspace lints");
    assert!(
        findings.is_empty(),
        "unallowlisted findings:\n{}",
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// The pass an allow directive on `line` names, if the line carries one: a
/// `//` comment (not a doc comment, not inside a string literal) that starts
/// `pesos-lint: allow(`.
fn allowed_pass(line: &str) -> Option<String> {
    const DIRECTIVE: &str = "// pesos-lint: allow(";
    let trimmed = line.trim_start();
    if trimmed.starts_with("//!") || trimmed.starts_with("///") {
        return None;
    }
    let at = line.find(DIRECTIVE)?;
    if line[..at].matches('"').count() % 2 == 1 {
        return None;
    }
    let args = &line[at + DIRECTIVE.len()..];
    Some(args.split(',').next()?.trim().to_string())
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("readable directory") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn the_tree_carries_only_the_listed_exemptions() {
    let root = workspace_root();
    let fixtures = root.join("crates/lint/tests/fixtures");
    let mut files = Vec::new();
    rust_files(&root.join("crates"), &mut files);
    let mut found: Vec<(String, String)> = Vec::new();
    for file in files.iter().filter(|f| !f.starts_with(&fixtures)) {
        let source = std::fs::read_to_string(file).expect("readable source");
        let rel = file.strip_prefix(&root).expect("under the root");
        for pass in source.lines().filter_map(allowed_pass) {
            found.push((rel.to_string_lossy().into_owned(), pass));
        }
    }
    found.sort();
    let expected: Vec<(String, String)> = EXEMPTIONS
        .iter()
        .map(|&(file, pass)| (file.to_string(), pass.to_string()))
        .collect();
    assert_eq!(
        found, expected,
        "allow directives outside the lint's fixtures"
    );
}
