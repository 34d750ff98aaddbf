//! `pesos-lint` binary: lints the workspace's request-path crates and
//! exits 1 on any finding.
//!
//! Usage:
//!
//! ```text
//! cargo run -p pesos-lint
//! ```
//!
//! The workspace root is located by walking up from the current
//! directory, so the binary works from any crate directory.

use std::process::ExitCode;

fn main() -> ExitCode {
    let cwd = match std::env::current_dir() {
        Ok(d) => d,
        Err(err) => {
            eprintln!("pesos-lint: cannot read current directory: {err}");
            return ExitCode::FAILURE;
        }
    };
    let Some(root) = pesos_lint::find_workspace_root(&cwd) else {
        eprintln!(
            "pesos-lint: no workspace root (Cargo.toml + crates/) above {}",
            cwd.display()
        );
        return ExitCode::FAILURE;
    };
    let findings = match pesos_lint::lint_workspace(&root) {
        Ok(f) => f,
        Err(err) => {
            eprintln!("pesos-lint: {err}");
            return ExitCode::FAILURE;
        }
    };
    for finding in &findings {
        println!("{finding}");
    }
    if findings.is_empty() {
        println!(
            "pesos-lint: clean ({} crates)",
            pesos_lint::LINTED_CRATES.len()
        );
        ExitCode::SUCCESS
    } else {
        println!("pesos-lint: {} finding(s)", findings.len());
        ExitCode::FAILURE
    }
}
