//! Rule `nondeterministic-iteration`: iterating a `HashMap`/`HashSet`
//! (`.iter()`, `.keys()`, `.values()`, `.drain()`, `for … in &map`, …) is
//! banned in export-path modules — anything that feeds `Record`,
//! `DefenseReport`, an experiment table or a telemetry export. Hash
//! iteration order is seeded per process, so one stray loop turns a
//! byte-identical `Record` into a roulette wheel (the exact bug class
//! PR 8 fixed by hand with `BTreeMap` sorting).
//!
//! Detection is module-aware and type-approximate: the rule tracks which
//! names in the file are *declared* as hash collections (bindings with a
//! `: HashMap<…>`-style annotation, possibly behind `&`/`Arc`/other
//! wrappers, and `let x = HashMap::new()`-style constructions), plus —
//! workspace-wide — functions whose return type mentions one. Iterating
//! any of those receivers fires; keyed access (`get`/`insert`/`entry`)
//! never does. `BTreeMap`-typed names are invisible to the rule, which is
//! the intended fix.

use super::{hash_type_names, Context, Rule, SourceFile};
use crate::diag::Diagnostic;
use crate::lexer::TokKind;
use std::collections::BTreeSet;

pub struct NondeterministicIteration;

const DEFAULT_METHODS: [&str; 10] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
    "retain",
];

impl Rule for NondeterministicIteration {
    fn name(&self) -> &'static str {
        "nondeterministic-iteration"
    }

    fn check(&self, file: &SourceFile, ctx: &Context, out: &mut Vec<Diagnostic>) {
        if !ctx.config.path_in("zones", "export", &file.path) {
            return;
        }
        let hash_types: BTreeSet<&str> = hash_type_names(ctx.config).collect();
        let configured = ctx.config.list("rules.nondeterministic-iteration", "methods");
        let methods: BTreeSet<&str> = if configured.is_empty() {
            DEFAULT_METHODS.iter().copied().collect()
        } else {
            configured.iter().map(String::as_str).collect()
        };
        let hash_names = hash_typed_names(file, &hash_types);

        let s = &file.sig;
        for k in 0..s.len() {
            if file.test_code(k) {
                continue;
            }
            let t = file.tok(k);
            // `recv.method(` where method is an iteration method.
            if t.kind == TokKind::Ident
                && methods.contains(t.text.as_str())
                && k >= 2
                && file.tok(k - 1).is_punct(".")
                && k + 1 < s.len()
                && file.tok(k + 1).is_punct("(")
            {
                if let Some(recv) = receiver_name(file, k - 2) {
                    let hash_field = hash_names.contains(&recv) && !is_call(file, k - 2);
                    let hash_call = ctx.hash_fns.contains(&recv) && is_call(file, k - 2);
                    if hash_field || hash_call {
                        out.push(self.diag(file, k, &recv, &t.text));
                    }
                }
            }
            // `for pat in expr {`: the implicit IntoIterator of a map
            // reference.
            if t.is_ident("for") {
                if let Some((expr_tail, line)) = for_loop_iterated_name(file, k) {
                    if hash_names.contains(&expr_tail) || ctx.hash_fns.contains(&expr_tail) {
                        out.push(Diagnostic::error(
                            self.name(),
                            &file.path,
                            line,
                            format!(
                                "`for … in` over hash collection `{expr_tail}` in an export-path module; iteration order is nondeterministic — use a BTreeMap/BTreeSet or sort first"
                            ),
                        ));
                    }
                }
            }
        }
    }
}

impl NondeterministicIteration {
    fn diag(&self, file: &SourceFile, k: usize, recv: &str, method: &str) -> Diagnostic {
        Diagnostic::error(
            self.name(),
            &file.path,
            file.tok(k).line,
            format!(
                "`{recv}.{method}()` iterates a hash collection in an export-path module; iteration order is nondeterministic — use a BTreeMap/BTreeSet or sort before emitting"
            ),
        )
    }
}

/// Names in this file declared or constructed as hash collections.
fn hash_typed_names(file: &SourceFile, hash_types: &BTreeSet<&str>) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    let s = &file.sig;
    for k in 0..s.len() {
        let t = file.tok(k);
        if t.kind != TokKind::Ident || !hash_types.contains(t.text.as_str()) {
            continue;
        }
        // Constructor binding: `name = HashMap::new()` / `with_capacity`.
        if k >= 2 && file.tok(k - 1).is_punct("=") && file.tok(k - 2).kind == TokKind::Ident {
            if k + 2 < s.len() && file.tok(k + 1).is_punct("::") {
                names.insert(file.tok(k - 2).text.clone());
            }
            continue;
        }
        // Type-annotation binding: `name: [wrappers<] HashMap<…>`. Walk
        // back over path segments and wrapper-type noise to the `:`.
        let mut j = k;
        while j > 0 {
            let p = file.tok(j - 1);
            if p.is_punct(":") {
                if j >= 2 && file.tok(j - 2).kind == TokKind::Ident {
                    names.insert(file.tok(j - 2).text.clone());
                }
                break;
            }
            // Tokens allowed between the binding's `:` and the hash type:
            // references, path separators, wrapper-type openers and the
            // wrapper/path segments themselves (`Arc<`, `std::collections::`).
            let wrapper_ident = p.kind == TokKind::Ident
                && (p.text == "mut"
                    || p.text == "dyn"
                    || p.text == "std"
                    || p.text == "collections"
                    || p.text == "sync"
                    || p.text.chars().next().is_some_and(char::is_uppercase));
            let skippable = p.is_punct("::")
                || p.is_punct("<")
                || p.is_punct("&")
                || p.kind == TokKind::Lifetime
                || wrapper_ident;
            if !skippable {
                break;
            }
            j -= 1;
        }
    }
    names
}

/// The receiver identifier ending at sig-position `end` (`map` in
/// `self.map.iter()`, `limiters` in `access.limiters().iter()`).
fn receiver_name(file: &SourceFile, end: usize) -> Option<String> {
    let t = file.tok(end);
    if t.kind == TokKind::Ident {
        return Some(t.text.clone());
    }
    // A call: `name(...).iter()` — find the ident before the matching `(`.
    if t.is_punct(")") {
        let mut depth = 0usize;
        let mut k = end;
        loop {
            let p = file.tok(k);
            if p.is_punct(")") {
                depth += 1;
            } else if p.is_punct("(") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            if k == 0 {
                return None;
            }
            k -= 1;
        }
        if k > 0 && file.tok(k - 1).kind == TokKind::Ident {
            return Some(file.tok(k - 1).text.clone());
        }
    }
    None
}

/// Whether the token at sig-position `end` closes a call (so `hash_fns`
/// matches apply to `recv.limiters().iter()` but a plain field named like
/// a hash-returning fn does not fire).
fn is_call(file: &SourceFile, end: usize) -> bool {
    file.tok(end).is_punct(")")
}

/// For a `for` keyword at sig-position `k`, the tail identifier of the
/// iterated expression (`map` in `for (k, v) in &self.map {`), with the
/// loop's line. Expressions ending in `()` resolve to the called
/// function's name so hash-returning fns are caught.
fn for_loop_iterated_name(file: &SourceFile, k: usize) -> Option<(String, u32)> {
    let s = &file.sig;
    // Find `in` at bracket depth 0, then the body `{` at depth 0.
    let mut depth = 0i32;
    let mut in_pos = None;
    for j in k + 1..(k + 120).min(s.len()) {
        let t = file.tok(j);
        match t.text.as_str() {
            "(" | "[" if t.kind == TokKind::Punct => depth += 1,
            ")" | "]" if t.kind == TokKind::Punct => depth -= 1,
            "in" if t.kind == TokKind::Ident && depth == 0 => {
                in_pos = Some(j);
                break;
            }
            _ => {}
        }
    }
    let in_pos = in_pos?;
    let mut body = None;
    depth = 0;
    for j in in_pos + 1..(in_pos + 120).min(s.len()) {
        let t = file.tok(j);
        match t.text.as_str() {
            "(" | "[" if t.kind == TokKind::Punct => depth += 1,
            ")" | "]" if t.kind == TokKind::Punct => depth -= 1,
            "{" if t.kind == TokKind::Punct && depth == 0 => {
                body = Some(j);
                break;
            }
            _ => {}
        }
    }
    let body = body?;
    if body == in_pos + 1 {
        return None;
    }
    let last = file.tok(body - 1);
    if last.kind == TokKind::Ident {
        // Method-call tails like `.iter()` are handled by the method
        // check; here the expression ends in a plain name.
        return Some((last.text.clone(), file.tok(k).line));
    }
    if last.is_punct(")") {
        return receiver_name(file, body - 1).map(|n| (n, file.tok(k).line));
    }
    None
}
