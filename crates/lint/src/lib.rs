//! # netfence-lint
//!
//! An offline, dependency-free static-analysis pass over the workspace
//! that enforces the determinism invariants every figure-equivalence
//! claim rests on, and keeps the public surface to what has a caller
//! (`DESIGN.md` §13). Five rules:
//!
//! 1. `nondeterministic-iteration` — no `HashMap`/`HashSet` iteration in
//!    export-path modules (anything feeding `Record`, `DefenseReport`,
//!    an experiment table or telemetry exports);
//! 2. `wall-clock` — no `Instant::now`/`SystemTime` without a justified
//!    allow;
//! 3. `wildcard-defense-match` — no `_` arms in matches over
//!    `DefenseKind`/`DropCause` in systems/experiments code;
//! 4. `orphan-pub-fn` — no free or inherent `pub fn` under `crates/*/src`
//!    whose name occurs nowhere else in the workspace (tests, examples and
//!    the benchmark included);
//! 5. `doc-refs` — every `x.rs[:N]` path and `a::b::c` path in a
//!    Markdown code span resolves in the tree.
//!
//! Unseeded entropy, `unsafe` code and panics in the fault-injected
//! runtime crates are rustc's and clippy's to catch (`clippy.toml`,
//! `[workspace.lints]` and the crate roots).
//!
//! Each rule honors the inline escape hatch
//! `// lint:allow(rule-name): reason` — the justification string is
//! mandatory and machine-checked. Zones come from `lint.toml` at the
//! workspace root; run as `cargo run -p netfence-lint` (CI adds
//! `--deny-all`), which prints rustc-style diagnostics and writes a
//! machine-readable JSON report to `target/netfence_lint.json`.

pub mod allow;
pub mod config;
pub mod diag;
pub mod lexer;
pub mod rules;
pub mod workspace;

use std::path::Path;

use config::LintConfig;
use diag::{Diagnostic, Severity};
use rules::{all_rules, Context, SourceFile, RULE_NAMES};
use workspace::FileInput;

/// The outcome of a full analysis run.
pub struct Report {
    /// Every diagnostic, sorted by (path, line, rule); suppressed
    /// findings are retained with their justification.
    pub diagnostics: Vec<Diagnostic>,
    /// Number of files scanned.
    pub files: usize,
}

impl Report {
    /// Unsuppressed errors (always fail the run).
    pub fn errors(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error && d.suppressed_by.is_none())
            .count()
    }

    /// Unsuppressed warnings (fail under `--deny-all`).
    pub fn warnings(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning && d.suppressed_by.is_none())
            .count()
    }

    /// The machine-readable JSON report.
    pub fn to_json(&self) -> String {
        diag::to_json(&self.diagnostics, self.files)
    }
}

/// Analyze a set of in-memory files (the fixture tests drive this
/// directly; [`check_workspace`] feeds it the real tree).
pub fn check_files(files: &[FileInput], config: &LintConfig) -> Report {
    let (docs, sources): (Vec<&FileInput>, Vec<&FileInput>) =
        files.iter().partition(|f| f.path.ends_with(".md"));
    let prepared: Vec<SourceFile> =
        sources.iter().map(|f| SourceFile::prepare(&f.path, &f.source)).collect();
    let ctx = Context::build(config, &prepared);
    let rules = all_rules();
    let mut diagnostics = Vec::new();
    for file in &prepared {
        let mut diags = Vec::new();
        for rule in &rules {
            rule.check(file, &ctx, &mut diags);
        }
        let mut allows = allow::collect(&file.toks);
        let policy = allow::apply(&file.path, &mut allows, &mut diags, &RULE_NAMES);
        diagnostics.extend(diags);
        diagnostics.extend(policy);
    }
    diagnostics.extend(rules::doc_refs::check(&docs, &sources, &ctx));
    diagnostics.sort_by(|a, b| (&a.path, a.line, &a.rule).cmp(&(&b.path, b.line, &b.rule)));
    Report { diagnostics, files: files.len() }
}

/// Analyze the workspace rooted at `root` using its `lint.toml`.
pub fn check_workspace(root: &Path) -> Result<Report, String> {
    let config_text = std::fs::read_to_string(root.join("lint.toml"))
        .map_err(|e| format!("cannot read {}: {e}", root.join("lint.toml").display()))?;
    let config = LintConfig::parse(&config_text)?;
    let files = workspace::discover(root)?;
    Ok(check_files(&files, &config))
}
