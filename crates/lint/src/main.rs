//! CLI entry point: `cargo run -p netfence-lint [-- flags]`.
//!
//! Flags:
//! * `--deny-all`   — also fail on warnings (unused `lint:allow`s); CI mode.
//! * `--root PATH`  — workspace root (default: the lint crate's `../..`).
//! * `--json PATH`  — JSON report path (default `target/netfence_lint.json`).
//! * `--list-rules` — print the rule taxonomy and exit.
//! * `--quiet`      — suppress per-diagnostic output, print the summary only.
//!
//! Exit codes: 0 clean, 1 findings, 2 usage/configuration error.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut deny_all = false;
    let mut quiet = false;
    let mut root: Option<PathBuf> = None;
    let mut json: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--deny-all" => deny_all = true,
            "--quiet" => quiet = true,
            "--root" => root = args.next().map(PathBuf::from),
            "--json" => json = args.next().map(PathBuf::from),
            "--list-rules" => {
                for rule in netfence_lint::rules::RULE_NAMES {
                    println!("{rule}");
                }
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("netfence-lint: unknown flag `{other}`");
                return ExitCode::from(2);
            }
        }
    }
    let root = root.unwrap_or_else(|| {
        // The lint crate lives at <workspace>/crates/lint.
        let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        manifest.parent().and_then(|p| p.parent()).map(PathBuf::from).unwrap_or(manifest)
    });
    let report = match netfence_lint::check_workspace(&root) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("netfence-lint: {e}");
            return ExitCode::from(2);
        }
    };

    if !quiet {
        for d in &report.diagnostics {
            println!("{}", d.render());
        }
    }
    let errors = report.errors();
    let warnings = report.warnings();
    let suppressed = report.diagnostics.iter().filter(|d| d.suppressed_by.is_some()).count();
    println!(
        "netfence-lint: {} files, {errors} error(s), {warnings} warning(s), {suppressed} justified allow(s)",
        report.files
    );

    let json_path = json.unwrap_or_else(|| root.join("target/netfence_lint.json"));
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
