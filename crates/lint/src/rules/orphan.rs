//! Rule `orphan-pub-fn`: a free or inherent `pub fn` in non-test code
//! under `crates/*/src` whose name occurs nowhere else in the workspace —
//! not in another crate, not in `tests/`, `examples/` or the benchmark —
//! has no caller and is deleted, not kept "for later". Every such
//! function is an option somebody has to keep compiling, documenting and
//! reasoning about (`DESIGN.md` §13).
//!
//! The test is by name: one other identifier token with the same text
//! anywhere in the discovered files (a call, a re-export, a same-named
//! method on another type) keeps the function, so the rule never fires on
//! code that is in use and can miss an orphan that shares its name with
//! something live. Field and module positions are not occurrences:
//! `x.name` with no `(` or `::` after it is a field access, `name:` with a
//! single colon is a struct-literal key, a field declaration or a
//! parameter, and `mod name`, `name::other` or `name::{..}` is a module
//! path — so a setter named like the field it assigns, or an accessor
//! named like its module, still needs a caller (`name::<` is a turbofish,
//! and counts). Trait methods cannot be `pub` and are never looked at;
//! `main` is exempt.

use super::{Context, Rule, SourceFile};
use crate::diag::Diagnostic;
use crate::lexer::TokKind;

pub struct OrphanPubFn;

impl Rule for OrphanPubFn {
    fn name(&self) -> &'static str {
        "orphan-pub-fn"
    }

    fn check(&self, file: &SourceFile, ctx: &Context, out: &mut Vec<Diagnostic>) {
        let in_zone = file.path.strip_prefix("crates/").is_some_and(|rest| {
            rest.split_once('/').is_some_and(|(_, tail)| tail.starts_with("src/"))
        });
        if !in_zone {
            return;
        }
        let s = &file.sig;
        for k in 0..s.len() {
            if file.test_code(k) || !file.tok(k).is_ident("pub") {
                continue;
            }
            // `pub` [`const` | `async` | `unsafe`]* `fn` name
            let mut j = k + 1;
            while j < s.len()
                && ["const", "async", "unsafe"].iter().any(|q| file.tok(j).is_ident(q))
            {
                j += 1;
            }
            if j + 1 >= s.len() || !file.tok(j).is_ident("fn") {
                continue;
            }
            let name = file.tok(j + 1);
            if name.kind != TokKind::Ident || name.text == "main" {
                continue;
            }
            if ctx.ident_uses.get(name.text.as_str()).copied().unwrap_or(0) <= 1 {
                out.push(Diagnostic::error(
                    self.name(),
                    &file.path,
                    name.line,
                    format!(
                        "`pub fn {}` is named nowhere else in the workspace (tests, examples and \
                         the benchmark included); delete it or add the caller it was written for",
                        name.text
                    ),
                ));
            }
        }
    }
}
