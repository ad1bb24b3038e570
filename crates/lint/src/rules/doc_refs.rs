//! Rule `doc-refs`: a code reference in a Markdown file names something
//! that exists. In every inline backtick span (fenced blocks are skipped),
//! a `dir/x.rs[:N]` path must name a discovered file — as written, as a
//! suffix on whole components, or as `crate/x.rs` for
//! `crates/crate/src/x.rs` — with `N` one of its lines; and each segment of
//! an `a::b::c` path (also the `::c` after an `x.rs`) must be an identifier
//! of the workspace's Rust sources. `crate`, `self` and `super` segments
//! are skipped, a path rooted at `std` is not looked at, and a brace group
//! is not expanded. Files under [`EXEMPT`] are not checked.

use super::Context;
use crate::diag::Diagnostic;
use crate::workspace::FileInput;

/// Markdown not resolved against the tree: the change log and planning
/// documents (they cite code as it was when written), the frozen
/// benchmark's own README, and this rule's fixtures (they cite a file only
/// their test supplies). Workspace-relative prefixes, one a line of
/// `crates/lint/doc_refs_exempt.txt`, matched on whole components by
/// `in_prefix`.
pub const EXEMPT: &str = include_str!("../../doc_refs_exempt.txt");

/// Path-prefix test on whole components: `crates/sim` covers
/// `crates/sim/src/engine.rs` but not `crates/simx/...`.
fn in_prefix(path: &str, prefix: &str) -> bool {
    path == prefix || path.strip_prefix(prefix).is_some_and(|rest| rest.starts_with('/'))
}

pub fn check(docs: &[&FileInput], sources: &[&FileInput], ctx: &Context) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for doc in docs.iter().filter(|d| !EXEMPT.lines().any(|prefix| in_prefix(&d.path, prefix))) {
        for (line, span) in code_spans(&doc.source) {
            let in_word = |c: char| is_ident_char(c) || "./:-".contains(c);
            for word in span.split(|c| !in_word(c)) {
                if let Some(problem) = stale(word, sources, ctx) {
                    out.push(Diagnostic::error("doc-refs", &doc.path, line, problem));
                }
            }
        }
    }
    out
}

/// The inline code spans of a Markdown text, each with the line it starts
/// on. A span may wrap onto the next line, but not across a blank line.
fn code_spans(text: &str) -> Vec<(u32, String)> {
    let (mut spans, mut fenced, mut open) = (Vec::new(), false, None::<(u32, String)>);
    for (no, line) in (1u32..).zip(text.lines()) {
        let fence = line.trim_start().starts_with("```");
        fenced ^= fence;
        if fenced || fence || line.trim().is_empty() {
            open = None;
            continue;
        }
        for (i, piece) in line.split('`').enumerate() {
            if i > 0 {
                match open.take() {
                    Some(span) => spans.push(span),
                    None => open = Some((no, String::new())),
                }
            }
            open.iter_mut().for_each(|(_, text)| text.push_str(piece));
        }
        open.iter_mut().for_each(|(_, text)| text.push(' '));
    }
    spans
}

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// What is stale in one word of a code span: its `.rs` path or line, or a
/// segment of its Rust path.
fn stale(word: &str, sources: &[&FileInput], ctx: &Context) -> Option<String> {
    let mut rust = word;
    let stem_end = |c: char| is_ident_char(c) || c == '-';
    let rs = word
        .find(".rs")
        .filter(|&i| word[..i].ends_with(stem_end) && !word[i + 3..].starts_with(is_ident_char));
    if let Some(i) = rs {
        let (path, rest) = word.split_at(i + 3);
        let line = rest.strip_prefix(':').and_then(|n| n.parse().ok());
        if let Some(problem) = unresolved(path, line, sources) {
            return Some(problem);
        }
        rust = rest;
    }
    let segment = |s: &str| {
        s.is_empty()
            || (s.starts_with(|c: char| !c.is_ascii_digit()) && s.chars().all(is_ident_char))
    };
    if !rust.contains("::") || rust.starts_with("std::") || !rust.split("::").all(segment) {
        return None;
    }
    let skip = |s: &&str| s.is_empty() || matches!(*s, "crate" | "self" | "super");
    let missing = rust.split("::").filter(|s| !skip(s)).find(|s| !ctx.ident_uses.contains_key(s));
    missing.map(|s| format!("`{word}`: `{s}` occurs nowhere in the workspace's Rust sources"))
}

/// Why `path` (cited at `line`) does not resolve, or `None` when it does.
fn unresolved(path: &str, line: Option<usize>, sources: &[&FileInput]) -> Option<String> {
    let suffix = format!("/{path}");
    let via_crate = path.split_once('/').map(|(krate, rest)| format!("crates/{krate}/src/{rest}"));
    let lines = sources
        .iter()
        .filter(|f| {
            f.path == path
                || f.path.ends_with(&suffix)
                || via_crate.as_deref() == Some(f.path.as_str())
        })
        .map(|f| f.source.lines().count())
        .max();
    match (lines, line) {
        (None, _) => Some(format!("`{path}` names no workspace file")),
        (Some(n), Some(line)) if !(1..=n).contains(&line) => {
            Some(format!("`{path}:{line}` is past the end of the file ({n} lines)"))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exempt_prefixes_match_whole_components() {
        assert!(in_prefix("examples/perf/README.md", "examples/perf"));
        assert!(in_prefix("CHANGES.md", "CHANGES.md"));
        assert!(!in_prefix("examples/perfx/README.md", "examples/perf"));
        assert!(!in_prefix("crates/lint/CHANGES.md", "CHANGES.md"));
    }
}
