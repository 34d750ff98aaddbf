//! The live workspace must stay lint-clean: every finding is either fixed
//! or explicitly allow-annotated with a reason. This is the same gate CI
//! runs via `cargo run -p pesos-lint`.

#[test]
fn workspace_has_no_unallowlisted_findings() {
    let manifest = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = pesos_lint::find_workspace_root(manifest).expect("workspace root");
    let findings = pesos_lint::lint_workspace(&root).expect("workspace lints");
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
