//! # netfence-lint
//!
//! An offline, dependency-free static-analysis pass over the workspace
//! that keeps wall-clock reads out of simulated time, and keeps the
//! public surface and the docs to what exists (`DESIGN.md` §13). Three
//! rules:
//!
//! 1. `wall-clock` — no `Instant::now`/`SystemTime` without a justified
//!    allow;
//! 2. `orphan-pub-fn` — no free or inherent `pub fn` under `crates/*/src`
//!    whose name occurs nowhere else in the workspace (tests, examples and
//!    the benchmark included);
//! 3. `doc-refs` — every `x.rs[:N]` path and `a::b::c` path in a
//!    Markdown code span resolves in the tree (outside the exempt list
//!    [`rules::doc_refs::EXEMPT`]).
//!
//! Hash-order iteration, wildcard dispatch, unseeded entropy, `unsafe`
//! code and panics in the fault-injected runtime crates are rustc's and
//! clippy's to catch, with real types (`clippy.toml`, `[workspace.lints]`
//! and the crate roots).
//!
//! Each rule honors the inline escape hatch
//! `// lint:allow(rule-name): reason` — the justification string is
//! mandatory and machine-checked. Run as `cargo run -p netfence-lint`
//! (CI adds `--deny-all`), which prints rustc-style diagnostics and writes
//! a machine-readable JSON report to `target/netfence_lint.json`.

pub mod allow;
pub mod diag;
pub mod lexer;
pub mod rules;
pub mod workspace;

use std::path::Path;

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
pub fn check_files(files: &[FileInput]) -> Report {
    let (docs, sources): (Vec<&FileInput>, Vec<&FileInput>) =
        files.iter().partition(|f| f.path.ends_with(".md"));
    let prepared: Vec<SourceFile> =
        sources.iter().map(|f| SourceFile::prepare(&f.path, &f.source)).collect();
    let ctx = Context::build(&prepared);
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

/// Analyze the workspace rooted at `root`.
pub fn check_workspace(root: &Path) -> Result<Report, String> {
    workspace::discover(root).map(|files| check_files(&files))
}
