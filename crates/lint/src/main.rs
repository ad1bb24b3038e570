//! CLI entry point: `cargo run -p netfence-lint [-- --deny-all]`.
//!
//! Analyzes the workspace this crate sits in, prints one rustc-style line
//! per diagnostic and a summary, and writes the JSON report to
//! `target/netfence_lint.json`. `--deny-all` (CI mode) also fails on
//! warnings (unused `lint:allow`s).
//!
//! Exit codes: 0 clean, 1 findings, 2 usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut deny_all = false;
    for arg in std::env::args().skip(1) {
        if arg != "--deny-all" {
            eprintln!("netfence-lint: unknown flag `{arg}` (the only flag is `--deny-all`)");
            return ExitCode::from(2);
        }
        deny_all = true;
    }
    // The lint crate lives at <workspace>/crates/lint.
    let root = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    let report = match netfence_lint::check_workspace(&root) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("netfence-lint: {e}");
            return ExitCode::from(2);
        }
    };

    for d in &report.diagnostics {
        println!("{}", d.render());
    }
    let errors = report.errors();
    let warnings = report.warnings();
    let suppressed = report.diagnostics.iter().filter(|d| d.suppressed_by.is_some()).count();
    println!(
        "netfence-lint: {} files, {errors} error(s), {warnings} warning(s), {suppressed} justified allow(s)",
        report.files
    );

    let json_path = root.join("target/netfence_lint.json");
    if let Some(dir) = json_path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(e) = std::fs::write(&json_path, report.to_json()) {
        eprintln!("netfence-lint: cannot write {}: {e}", json_path.display());
        return ExitCode::from(2);
    }
    if errors > 0 || (deny_all && warnings > 0) {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
