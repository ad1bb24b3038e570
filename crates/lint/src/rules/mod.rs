//! The rule engine: a prepared [`SourceFile`] (token stream, significant
//! indices, `#[cfg(test)]` shadowing), the workspace-level [`Context`]
//! (the workspace-wide identifier census) and the three rules of the
//! taxonomy (`DESIGN.md` §13).

use crate::diag::Diagnostic;
use crate::lexer::{lex, Tok, TokKind};
use std::collections::BTreeMap;

pub mod doc_refs;
pub mod orphan;
pub mod wallclock;

/// Names of every rule, in reporting order. The allow policy findings
/// (`unjustified-allow`, `unknown-rule`, `unused-allow`) are emitted by
/// the engine itself, not listed here.
pub const RULE_NAMES: [&str; 3] = ["wall-clock", "orphan-pub-fn", "doc-refs"];

/// One prepared source file.
pub struct SourceFile {
    pub path: String,
    pub toks: Vec<Tok>,
    /// Indices of non-comment tokens, in order.
    pub sig: Vec<usize>,
    /// Per-token: inside an inline `#[cfg(test)] mod` block, which both
    /// per-file rules skip.
    pub in_test: Vec<bool>,
}

impl SourceFile {
    pub fn prepare(path: &str, source: &str) -> SourceFile {
        let toks = lex(source);
        let sig: Vec<usize> =
            toks.iter().enumerate().filter(|(_, t)| !t.is_comment()).map(|(i, _)| i).collect();
        let mut file = SourceFile { path: path.to_string(), toks, sig, in_test: Vec::new() };
        file.in_test = file.mark_test_blocks();
        file
    }

    /// The significant token at sig-position `k`.
    pub fn tok(&self, k: usize) -> &Tok {
        &self.toks[self.sig[k]]
    }

    /// Whether sig-position `k` lies in an inline `#[cfg(test)]` module.
    pub fn test_code(&self, k: usize) -> bool {
        self.in_test[self.sig[k]]
    }

    /// Find the sig-position of the matching closer for the opener at
    /// sig-position `open` (`(`/`)`, `{`/`}`, `[`/`]`).
    pub fn matching(&self, open: usize, open_p: &str, close_p: &str) -> Option<usize> {
        let mut depth = 0usize;
        for k in open..self.sig.len() {
            let t = self.tok(k);
            if t.is_punct(open_p) {
                depth += 1;
            } else if t.is_punct(close_p) {
                depth -= 1;
                if depth == 0 {
                    return Some(k);
                }
            }
        }
        None
    }

    /// Mark every token inside `#[cfg(test)] mod <name> { ... }` blocks.
    fn mark_test_blocks(&self) -> Vec<bool> {
        let mut marked = vec![false; self.toks.len()];
        let s = &self.sig;
        let mut k = 0usize;
        while k + 6 < s.len() {
            let attr_is_cfg_test = self.tok(k).is_punct("#")
                && self.tok(k + 1).is_punct("[")
                && self.tok(k + 2).is_ident("cfg")
                && self.tok(k + 3).is_punct("(")
                && self.tok(k + 4).is_ident("test")
                && self.tok(k + 5).is_punct(")")
                && self.tok(k + 6).is_punct("]");
            if !attr_is_cfg_test {
                k += 1;
                continue;
            }
            // Skip any further attributes, then accept `pub`? `mod name {`.
            let mut j = k + 7;
            while j < s.len() && self.tok(j).is_punct("#") {
                if let Some(close) = self.matching(j + 1, "[", "]") {
                    j = close + 1;
                } else {
                    break;
                }
            }
            if j < s.len() && self.tok(j).is_ident("pub") {
                j += 1;
            }
            if j + 2 < s.len() && self.tok(j).is_ident("mod") && self.tok(j + 2).is_punct("{") {
                if let Some(close) = self.matching(j + 2, "{", "}") {
                    for m in &s[k..=close] {
                        marked[*m] = true;
                    }
                    k = close + 1;
                    continue;
                }
            }
            k += 1;
        }
        marked
    }
}

/// Workspace-level context shared by every rule.
pub struct Context<'a> {
    /// How often each identifier occurs across every discovered file,
    /// test code included and field and module positions excluded — a
    /// `pub fn` whose name occurs once (its own definition) has no caller
    /// anywhere (rule `orphan-pub-fn`). Its keys are every identifier of
    /// the Rust sources, in any position (rule `doc-refs`).
    pub ident_uses: BTreeMap<&'a str, u32>,
}

impl<'a> Context<'a> {
    pub fn build(files: &'a [SourceFile]) -> Context<'a> {
        let mut ident_uses: BTreeMap<&str, u32> = BTreeMap::new();
        for file in files {
            for k in 0..file.sig.len() {
                let tok = file.tok(k);
                if tok.kind == TokKind::Ident {
                    let uses = ident_uses.entry(tok.text.as_str()).or_default();
                    *uses += u32::from(!is_field_or_module_position(file, k));
                }
            }
        }
        Context { ident_uses }
    }
}

/// Whether the identifier at sig-position `k` names a field or a module
/// rather than a function: a field access (`x.name` with no call and no
/// turbofish after it), a struct-literal key, field declaration or
/// parameter (`name:` with a single colon), a module declaration (`mod
/// name`) or a path prefix (`name::other`, `name::{..}`; `name::<` is a
/// turbofish, a use). A setter that shares its field's name, or an
/// accessor that shares its module's, is otherwise kept alive by the
/// field or module.
fn is_field_or_module_position(file: &SourceFile, k: usize) -> bool {
    let tok = |i: usize| (i < file.sig.len()).then(|| file.tok(i));
    let next = tok(k + 1);
    let accessed = k > 0 && file.tok(k - 1).is_punct(".");
    let called = next.is_some_and(|t| t.is_punct("(") || t.is_punct("::"));
    let declared = k > 0 && file.tok(k - 1).is_ident("mod");
    let prefix =
        next.is_some_and(|t| t.is_punct("::")) && !tok(k + 2).is_some_and(|t| t.is_punct("<"));
    (accessed && !called) || next.is_some_and(|t| t.is_punct(":")) || declared || prefix
}

/// A lint rule.
pub trait Rule {
    fn name(&self) -> &'static str;
    fn check(&self, file: &SourceFile, ctx: &Context, out: &mut Vec<Diagnostic>);
}

/// The per-source-file rules, in [`RULE_NAMES`] order (`doc-refs`, which
/// reads the Markdown files, runs once per workspace instead).
pub fn all_rules() -> Vec<Box<dyn Rule>> {
    vec![Box::new(wallclock::WallClock), Box::new(orphan::OrphanPubFn)]
}
