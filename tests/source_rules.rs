//! Source rules no type records, checked over the whole tree on every
//! `cargo test` (DESIGN.md §13), and the repository policies that keep
//! rustc and clippy in charge of the rest. A minimal tokenizer feeds three
//! rules, each with an inline case that fails and one that passes:
//!
//! * `wall-clock`: no `Instant::now` or `SystemTime` outside a test module,
//!   but one host-time read in each file of [`WALL_CLOCK_EXEMPT`];
//! * `orphan-pub-fn`: a free or inherent `pub fn` in non-test code under
//!   `crates/*/src` is named somewhere else in the tree's Rust files;
//! * `doc-refs`: every `.rs` path (with or without a `:N` line) and every
//!   `a::b` path in an inline code span of a Markdown file outside
//!   [`DOC_REFS_EXEMPT`] resolves in the tree.

use std::collections::BTreeMap;
use std::path::Path;

/// The files allowed one host-time read each, with the reason.
const WALL_CLOCK_EXEMPT: [(&str, &str); 2] = [
    ("examples/perf/clock.rs", "the benchmark's one host-time read; it never enters a Record"),
    ("tests/topo.rs", "times the 50 K-host build against its release-mode bar"),
];

/// The file that lists the Markdown not resolved against the tree, one path
/// prefix on whole components a line (`#` starts a comment): the change log
/// and planning documents cite code as it was when written, and the frozen
/// benchmark's README is not edited outside a benchmark change.
const DOC_REFS_EXEMPT: &str = ".doc-refs-exempt";

// The tokenizer.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Ident,
    /// One character, except `::`, which is one token.
    Punct,
    /// A string, raw string, byte, char or number literal.
    Literal,
    Lifetime,
}

#[derive(Debug, Clone, Copy)]
struct Tok<'a> {
    kind: Kind,
    text: &'a str,
    line: u32,
}

/// The tokens of `src`, comments dropped. Unknown bytes become one-char
/// punctuation, so tokenizing never fails.
fn tokenize(src: &str) -> Vec<Tok<'_>> {
    let b = src.as_bytes();
    let at = |i: usize| b.get(i).copied().unwrap_or(0);
    let (mut toks, mut i, mut line, lit) = (Vec::new(), 0, 1, Some(Kind::Literal));
    while i < b.len() {
        let (kind, end) = match (b[i], at(i + 1)) {
            (b'/', b'/') => (None, skip(b, i, |c| c != b'\n')),
            (b'/', b'*') => (None, block_comment_end(b, i)),
            (c, _) if c.is_ascii_whitespace() => (None, i + 1),
            (b'"', _) => (lit, quoted_end(b, i + 1, b'"')),
            (b'b', b'"') => (lit, quoted_end(b, i + 2, b'"')),
            (b'b', b'\'') => (lit, quoted_end(b, i + 2, b'\'')),
            (b'r', _) if raw_string_ahead(b, i + 1) => (lit, raw_string_end(b, i + 1)),
            (b'b', b'r') if raw_string_ahead(b, i + 2) => (lit, raw_string_end(b, i + 2)),
            // `'a` is a lifetime, `'a'` a char.
            (b'\'', c) if (c.is_ascii_alphabetic() || c == b'_') && at(i + 2) != b'\'' => {
                (Some(Kind::Lifetime), skip(b, i + 1, is_ident_byte))
            }
            (b'\'', _) => (lit, quoted_end(b, i + 1, b'\'')),
            // Digits, suffixes and a decimal point, stopping before `..`.
            (c, _) if c.is_ascii_digit() => {
                let mut end = i;
                while (is_ident_byte(at(end)) || at(end) == b'.')
                    && (at(end), at(end + 1)) != (b'.', b'.')
                {
                    end += 1;
                }
                (lit, end)
            }
            (c, _) if is_ident_byte(c) => (Some(Kind::Ident), skip(b, i, is_ident_byte)),
            (b':', b':') => (Some(Kind::Punct), i + 2),
            _ => (Some(Kind::Punct), i + src[i..].chars().next().map_or(1, char::len_utf8)),
        };
        if let Some(kind) = kind {
            toks.push(Tok { kind, text: src.get(i..end).unwrap_or(""), line });
        }
        line += b[i..end].iter().filter(|&&c| c == b'\n').count() as u32;
        i = end;
    }
    toks
}

fn is_ident_byte(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// The first index from `i` whose byte fails `keep`.
fn skip(b: &[u8], mut i: usize, keep: impl Fn(u8) -> bool) -> usize {
    while i < b.len() && keep(b[i]) {
        i += 1;
    }
    i
}

fn block_comment_end(b: &[u8], mut i: usize) -> usize {
    let mut depth = 0;
    while i < b.len() {
        let step = match &b[i..b.len().min(i + 2)] {
            b"/*" => 1,
            b"*/" => -1,
            _ => 0,
        };
        depth += step;
        i += if step == 0 { 1 } else { 2 };
        if depth == 0 {
            return i;
        }
    }
    b.len()
}

/// The end of a string or char literal whose body starts at `i`. A char
/// literal stops at a newline: a `'` that opens none is one punctuation.
fn quoted_end(b: &[u8], mut i: usize, close: u8) -> usize {
    while i < b.len() {
        match b[i] {
            b'\\' => i += 2,
            c if c == close => return i + 1,
            b'\n' if close == b'\'' => return i,
            _ => i += 1,
        }
    }
    b.len()
}

/// Whether `#*"` starts at `i` (after an `r` or `br`).
fn raw_string_ahead(b: &[u8], i: usize) -> bool {
    b.get(skip(b, i, |c| c == b'#')) == Some(&b'"')
}

fn raw_string_end(b: &[u8], i: usize) -> usize {
    let open = skip(b, i, |c| c == b'#');
    let fence = [&b"\""[..], &b[i..open]].concat();
    (open + 1..b.len()).find(|&j| b[j..].starts_with(&fence)).map_or(b.len(), |j| j + fence.len())
}

/// The index of the bracket closing the one at `open`.
fn matching(toks: &[Tok], open: usize) -> Option<usize> {
    let close = match toks.get(open)?.text {
        "(" => ")",
        "[" => "]",
        "{" => "}",
        _ => return None,
    };
    let mut depth = 0;
    for (k, tok) in toks.iter().enumerate().skip(open) {
        if tok.text == toks[open].text {
            depth += 1;
        } else if tok.text == close {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

/// One tokenized Rust file.
struct Source<'a> {
    path: &'a str,
    toks: Vec<Tok<'a>>,
    /// Per token: inside an inline `#[cfg(test)] mod` block, which the
    /// per-file rules skip.
    in_test: Vec<bool>,
}

impl<'a> Source<'a> {
    fn new(path: &'a str, text: &'a str) -> Self {
        let toks = tokenize(text);
        let mut in_test = vec![false; toks.len()];
        let text = |k: usize| toks.get(k).map_or("", |t| t.text);
        let mut k = 0;
        while k < toks.len() {
            if !(k..k + 7).map(text).eq(["#", "[", "cfg", "(", "test", ")", "]"]) {
                k += 1;
                continue;
            }
            // Further attributes, then `pub`? `mod name {`.
            let mut j = k + 7;
            while text(j) == "#" {
                let Some(close) = matching(&toks, j + 1) else { break };
                j = close + 1;
            }
            j += usize::from(text(j) == "pub");
            match (text(j) == "mod").then(|| matching(&toks, j + 2)).flatten() {
                Some(close) => {
                    in_test[k..=close].fill(true);
                    k = close + 1;
                }
                None => k += 1,
            }
        }
        Source { path, toks, in_test }
    }

    /// The non-test tokens, with their indices.
    fn code(&self) -> impl Iterator<Item = (usize, &Tok<'a>)> {
        self.toks.iter().enumerate().filter(|&(k, _)| !self.in_test[k])
    }

    fn text(&self, k: usize) -> &str {
        self.toks.get(k).map_or("", |t| t.text)
    }
}

// The rules.

/// How often each identifier occurs in a position that can name a function.
type Census<'a> = BTreeMap<&'a str, u32>;

#[derive(Debug)]
struct Finding {
    rule: &'static str,
    path: String,
    line: u32,
    message: String,
}

fn finding(rule: &'static str, path: &str, line: u32, message: String) -> Finding {
    Finding { rule, path: path.to_string(), line, message }
}

fn wall_clock(source: &Source) -> Vec<Finding> {
    let now = |k: usize| source.text(k + 1) == "::" && source.text(k + 2) == "now";
    let reads =
        source.code().filter(|&(k, t)| t.text == "SystemTime" || (t.text == "Instant" && now(k)));
    let message = |t: &Tok| format!("host time (`{}`) read outside the event clock", t.text);
    reads.map(|(_, t)| finding("wall-clock", source.path, t.line, message(t))).collect()
}

/// The census of the Rust files. A field or module position is no use: a
/// field access (`x.name` with no `(` or `::` after it), a struct-literal
/// key, field declaration or parameter (`name:`), a module declaration
/// (`mod name`) or a path prefix (`name::other`, but `name::<` is a
/// turbofish). So a setter named like its field, or an accessor named like
/// its module, still needs a caller. Every identifier is a key, even at 0.
fn census<'a>(sources: &[Source<'a>]) -> Census<'a> {
    let mut uses = BTreeMap::new();
    for source in sources {
        for (k, tok) in source.toks.iter().enumerate().filter(|(_, t)| t.kind == Kind::Ident) {
            let (prev, next) =
                (k.checked_sub(1).map_or("", |p| source.text(p)), source.text(k + 1));
            let field_or_module = (prev == "." && next != "(" && next != "::")
                || next == ":"
                || prev == "mod"
                || (next == "::" && source.text(k + 2) != "<");
            *uses.entry(tok.text).or_default() += u32::from(!field_or_module);
        }
    }
    uses
}

/// A `pub fn` under `crates/*/src` whose name the census counts once (its
/// own definition). By name: a same-named live function elsewhere keeps an
/// orphan alive. Trait methods are never `pub`; `main` is exempt.
fn orphans(source: &Source, uses: &Census) -> Vec<Finding> {
    let in_zone = source.path.strip_prefix("crates/").and_then(|rest| rest.split_once('/'));
    if !in_zone.is_some_and(|(_, tail)| tail.starts_with("src/")) {
        return Vec::new();
    }
    let mut found = Vec::new();
    for (k, _) in source.code().filter(|(_, t)| t.kind == Kind::Ident && t.text == "pub") {
        // `pub` [`const` | `async` | `unsafe`]* `fn` name
        let j = (k + 1..).find(|&j| !["const", "async", "unsafe"].contains(&source.text(j)));
        let Some(name) = j.filter(|&j| source.text(j) == "fn").and_then(|j| source.toks.get(j + 1))
        else {
            continue;
        };
        if name.kind == Kind::Ident && name.text != "main" && uses.get(name.text) <= Some(&1) {
            let message =
                format!("`pub fn {}` is named nowhere else: delete it or call it", name.text);
            found.push(finding("orphan-pub-fn", source.path, name.line, message));
        }
    }
    found
}

/// The stale references in the inline code spans of one Markdown file
/// (fenced blocks skipped). A `dir/x.rs[:N]` path must name a Rust file
/// (as written, as a suffix on whole components, or as `crate/x.rs` for
/// `crates/crate/src/x.rs`) with `N` one of its lines, and each segment of
/// an `a::b::c` path (also the `::c` after an `x.rs`) must be an
/// identifier of the Rust files. `crate`, `self` and `super` segments are
/// skipped, a path rooted at `std` is not looked at, and a brace group is
/// not expanded.
fn doc_refs(path: &str, text: &str, rust: &[(&str, usize)], uses: &Census) -> Vec<Finding> {
    let mut found = Vec::new();
    for (line, span) in code_spans(text) {
        let in_word = |c: char| is_ident_char(c) || "./:-".contains(c);
        for word in span.split(|c| !in_word(c)) {
            if let Some(problem) = stale(word, rust, uses) {
                found.push(finding("doc-refs", path, line, problem));
            }
        }
    }
    found
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
fn stale(word: &str, rust: &[(&str, usize)], uses: &Census) -> Option<String> {
    let mut path_tail = word;
    let stem_end = |c: char| is_ident_char(c) || c == '-';
    let rs = word
        .find(".rs")
        .filter(|&i| word[..i].ends_with(stem_end) && !word[i + 3..].starts_with(is_ident_char));
    if let Some(i) = rs {
        let (path, rest) = word.split_at(i + 3);
        let line = rest.strip_prefix(':').and_then(|n| n.parse().ok());
        if let Some(problem) = unresolved(path, line, rust) {
            return Some(problem);
        }
        path_tail = rest;
    }
    let segment = |s: &str| {
        s.is_empty()
            || (s.starts_with(|c: char| !c.is_ascii_digit()) && s.chars().all(is_ident_char))
    };
    if !path_tail.contains("::")
        || path_tail.starts_with("std::")
        || !path_tail.split("::").all(segment)
    {
        return None;
    }
    let skip = |s: &&str| s.is_empty() || matches!(*s, "crate" | "self" | "super");
    let missing = path_tail.split("::").filter(|s| !skip(s)).find(|s| !uses.contains_key(s));
    missing.map(|s| format!("`{word}`: `{s}` occurs nowhere in the tree's Rust files"))
}

/// Why `path` (cited at `line`) does not resolve, or `None` when it does.
fn unresolved(path: &str, line: Option<usize>, rust: &[(&str, usize)]) -> Option<String> {
    let suffix = format!("/{path}");
    let via_crate = path.split_once('/').map(|(krate, rest)| format!("crates/{krate}/src/{rest}"));
    let lines = rust
        .iter()
        .filter(|(file, _)| {
            *file == path || file.ends_with(&suffix) || via_crate.as_deref() == Some(*file)
        })
        .map(|&(_, lines)| lines)
        .max();
    match (lines, line) {
        (None, _) => Some(format!("`{path}` names no Rust file")),
        (Some(n), Some(line)) if !(1..=n).contains(&line) => {
            Some(format!("`{path}:{line}` is past the end of the file ({n} lines)"))
        }
        _ => None,
    }
}

/// Path-prefix test on whole components: `examples/perf` covers
/// `examples/perf/README.md` but not `examples/perfx/README.md`.
fn in_prefix(path: &str, prefix: &str) -> bool {
    path == prefix || path.strip_prefix(prefix).is_some_and(|rest| rest.starts_with('/'))
}

#[derive(Debug, Default)]
struct Report {
    findings: Vec<Finding>,
    /// The one wall-clock read of each exempt file that holds one.
    waived: Vec<Finding>,
}

/// Run every rule over `files` (`(path, text)`, `.md` files are docs).
fn check(files: &[(&str, &str)]) -> Report {
    let (docs, rust): (Vec<_>, Vec<_>) = files.iter().partition(|(path, _)| path.ends_with(".md"));
    let sources: Vec<Source> = rust.iter().map(|&&(path, text)| Source::new(path, text)).collect();
    let uses = census(&sources);
    let mut report = Report::default();
    for source in &sources {
        let mut reads = wall_clock(source);
        if WALL_CLOCK_EXEMPT.iter().any(|(path, _)| *path == source.path) && !reads.is_empty() {
            report.waived.push(reads.remove(0));
        }
        report.findings.extend(reads);
        report.findings.extend(orphans(source, &uses));
    }
    let rust: Vec<(&str, usize)> =
        rust.iter().map(|(path, text)| (*path, text.lines().count())).collect();
    let exempt = read(&root().join(DOC_REFS_EXEMPT));
    let exempt: Vec<&str> = exempt
        .lines()
        .map(|line| line.split('#').next().unwrap_or("").trim())
        .filter(|prefix| !prefix.is_empty())
        .collect();
    for &&(path, text) in &docs {
        if !exempt.iter().any(|prefix| in_prefix(path, prefix)) {
            report.findings.extend(doc_refs(path, text, &rust, &uses));
        }
    }
    report
}

fn render(findings: &[Finding]) -> String {
    findings
        .iter()
        .map(|f| format!("\n  {}:{}: [{}] {}", f.path, f.line, f.rule, f.message))
        .collect()
}

// The tree.

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

/// Every `.rs` and `.md` file under the root as `(path, text)`, paths
/// `/`-separated and sorted; `target/` and `.git/` are skipped.
fn tree() -> Vec<(String, String)> {
    let (mut files, mut dirs) = (Vec::new(), vec![String::new()]);
    while let Some(dir) = dirs.pop() {
        let entries = std::fs::read_dir(root().join(&dir)).expect("the tree is listable");
        for entry in entries.map(|e| e.expect("a readable directory entry")) {
            let name = entry.file_name().to_string_lossy().into_owned();
            let path = if dir.is_empty() { name.clone() } else { format!("{dir}/{name}") };
            if entry.file_type().is_ok_and(|t| t.is_dir()) {
                if name != "target" && name != ".git" {
                    dirs.push(path);
                }
            } else if name.ends_with(".rs") || name.ends_with(".md") {
                let text = read(&root().join(&path));
                files.push((path, text));
            }
        }
    }
    files.sort();
    files
}

/// The gate: the tree breaks no rule, and each wall-clock exemption waives
/// exactly its file's one read.
#[test]
fn workspace_is_clean() {
    let files = tree();
    let files: Vec<(&str, &str)> = files.iter().map(|(p, t)| (p.as_str(), t.as_str())).collect();
    let report = check(&files);
    assert!(report.findings.is_empty(), "source rules broken:{}", render(&report.findings));
    let waived: Vec<&str> = report.waived.iter().map(|f| f.path.as_str()).collect();
    assert_eq!(waived, WALL_CLOCK_EXEMPT.map(|(path, _)| path), "{}", render(&report.waived));
}

// Inline cases: each rule fails and passes.

#[test]
fn the_tokenizer_hides_strings_comments_and_chars() {
    let src = r###"
        // HashMap in a comment
        /* HashMap /* nested */ still comment */
        let s = "HashMap::iter() \" still the string";
        let r = r#"HashMap "quoted" inside"#;
        let b = br##"HashMap"##;
        let c = ('h', '\'', b'H');
        fn f<'a>(x: &'a str) -> HashMap<u8, u8> { HashMap::new() }
    "###;
    let toks = tokenize(src);
    let lines: Vec<u32> = toks.iter().filter(|t| t.text == "HashMap").map(|t| t.line).collect();
    assert_eq!(lines, [8, 8]);
    let kinds = |kind| toks.iter().filter(|t| t.kind == kind).count();
    assert_eq!((kinds(Kind::Literal), kinds(Kind::Lifetime)), (6, 2));
    assert!(toks.iter().any(|t| t.kind == Kind::Punct && t.text == "::"));
}

const CLOCK_FAIL: &str = r#"use std::time::{Instant, SystemTime};
pub fn stamp() -> u128 {
    let t0 = Instant::now();
    let _ = t0.elapsed();
    SystemTime::now().duration_since(std::time::UNIX_EPOCH).unwrap().as_nanos()
}
"#;

const CLOCK_PASS: &str = r#"//! Simulated time only: Instant::now() and SystemTime in a comment.
pub fn advance(now: u64, dt: u64) -> u64 {
    let _label = "Instant::now(), SystemTime";
    now + dt
}
#[cfg(test)]
#[allow(unused)]
pub mod tests {
    #[test]
    fn a_test_module_may_time_itself() { let _ = std::time::Instant::now(); }
}
"#;

/// The `SystemTime` import, the `Instant::now` call and the
/// `SystemTime::now` call are three reads; an exempt file is allowed its
/// first.
#[test]
fn wall_clock_fails_and_passes() {
    let fail = check(&[("tests/stamp.rs", CLOCK_FAIL)]);
    let lines: Vec<(&str, u32)> = fail.findings.iter().map(|f| (f.rule, f.line)).collect();
    assert_eq!(lines, [("wall-clock", 1), ("wall-clock", 3), ("wall-clock", 5)]);
    let pass = check(&[("tests/stamp.rs", CLOCK_PASS)]);
    assert!(pass.findings.is_empty(), "{}", render(&pass.findings));
    let exempt = check(&[("tests/topo.rs", CLOCK_FAIL)]);
    let lines = |fs: &[Finding]| fs.iter().map(|f| f.line).collect::<Vec<_>>();
    assert_eq!((lines(&exempt.waived), lines(&exempt.findings)), (vec![1], vec![3, 5]));
}

/// A mention in a comment or a string is no caller, and neither is the
/// field a setter is named after: `limit` occurs as a declaration, a
/// struct-literal key and a field access, never as a call.
const ORPHAN_FAIL: &str = r#"//! never_called
pub struct Queue { limit: usize }
impl Queue {
    pub fn new() -> Queue { Queue { limit: 8 } }
    pub fn unused_knob(mut self, bytes: usize) -> Queue { self.limit = bytes; self }
    pub fn limit(&mut self, bytes: usize) { self.limit = bytes; }
}
pub fn never_called() -> &'static str { "unused_knob" }
pub fn build() -> Queue { Queue::new() }
pub const fn entry() -> usize { build().limit }
pub fn main() { let _ = entry(); }
"#;

/// Every public function is named elsewhere: by a caller, by a test, or
/// as a trait method, which is never `pub`; `main` is exempt. `.side(`
/// calls the setter, `.side` alone is the field.
const ORPHAN_PASS: &str = r#"pub trait Shape { fn area(&self) -> u64; }
pub struct Square { side: u64 }
impl Shape for Square { fn area(&self) -> u64 { self.side * self.side } }
impl Square {
    pub fn unit() -> Square { Square { side: 1 } }
    pub fn side(mut self, to: u64) -> Square { self.side = to; self }
    pub fn doubled(&self) -> Square { Square { side: self.side * 2 } }
}
pub fn total() -> u64 { Square::unit().side(1).doubled().side }
pub fn main() {}
#[cfg(test)]
mod tests {
    #[test]
    fn a_test_is_a_caller() { assert_eq!(super::total(), 2); }
}
"#;

/// `mod monitor`, the paths through it and the field `monitor` are no
/// call of `Link::monitor`.
const MODULE_FAIL: &str = r#"mod monitor;
use crate::monitor::{Monitor, MonitorEvent};
pub struct Link { monitor: Monitor }
impl Link {
    pub fn new() -> Link { Link { monitor: Monitor } }
    pub fn tick(&mut self) -> MonitorEvent { crate::monitor::poll(&mut self.monitor) }
    pub fn monitor(&self) -> &Monitor { &self.monitor }
}
pub fn main() { let _ = Link::new().tick(); }
"#;

/// `codec::decode(` calls `decode`; the function `codec` lives by its
/// turbofish call alone.
const MODULE_PASS: &str = r#"mod codec { pub fn decode(bytes: &[u8]) -> usize { bytes.len() } }
pub fn codec<T: Default>() -> T { T::default() }
pub fn main() { let _ = codec::decode(&[codec::<u8>()]); }
"#;

fn orphan_names(path: &str, src: &str) -> Vec<String> {
    let report = check(&[(path, src)]);
    let name = |f: &Finding| f.message.split('`').nth(1).unwrap_or("").replace("pub fn ", "");
    report.findings.iter().map(|f| format!("{}:{}", f.line, name(f))).collect()
}

#[test]
fn orphan_pub_fn_fails_and_passes() {
    let fail = orphan_names("crates/demo/src/queue.rs", ORPHAN_FAIL);
    assert_eq!(fail, ["5:unused_knob", "6:limit", "8:never_called"]);
    assert!(orphan_names("crates/demo/src/shape.rs", ORPHAN_PASS).is_empty());
    assert_eq!(orphan_names("crates/demo/src/link.rs", MODULE_FAIL), ["7:monitor"]);
    assert!(orphan_names("crates/demo/src/codec.rs", MODULE_PASS).is_empty());
    // Only `crates/*/src` is looked at.
    assert!(orphan_names("tests/queue.rs", ORPHAN_FAIL).is_empty());
}

/// The Rust file the `doc-refs` cases cite (five lines).
const DOC_TARGET: &str = "struct Simulator;\n\nimpl Simulator {\n    fn run(&self) {}\n}\n";

const DOC_FAIL: &str = r#"# Each code span below cites something the tree does not have.
- `engine.rs:99` is past the end of the file.
- `sim/missing.rs` names no file.
- `Simulator::transmit_done` names a method nothing defines.
- `rand::StdRng` names a crate the tree does not use.
- `demo/engine.rs::vanished` names a file that exists and a function that
  does not.
"#;

const DOC_PASS: &str = r#"# Every code span resolves or is no reference.
- `engine.rs`, `src/engine.rs:1`, `demo/engine.rs:5` and
  `crates/demo/src/engine.rs` all name the one Rust file.
- `Simulator::run`, `crate::Simulator`, `self::Simulator::run` and
  `engine.rs::run` name what it defines; `std::time::Instant` is not
  looked at.
- A span may wrap: `Simulator::
  run`.
- Brace groups are not expanded: `{fail,pass}.rs`, `Simulator::{run, stop}`.
- `*.rs`, `cargo test --test figures`, `12:00:00` and `x.rsync` are not
  references.

```rust
let nothing = nowhere::here; // fenced blocks are not looked at
```
"#;

#[test]
fn doc_refs_fails_and_passes() {
    let lines = |path: &str, doc: &str| -> Vec<u32> {
        let report = check(&[(path, doc), ("crates/demo/src/engine.rs", DOC_TARGET)]);
        assert!(report.findings.iter().all(|f| f.rule == "doc-refs"));
        report.findings.iter().map(|f| f.line).collect()
    };
    assert_eq!(lines("docs/fail.md", DOC_FAIL), [2, 3, 4, 5, 6]);
    assert!(lines("docs/pass.md", DOC_PASS).is_empty());
    // Exempt prefixes match whole components.
    assert!(lines("examples/perf/fail.md", DOC_FAIL).is_empty());
    assert_eq!(lines("examples/perfx/fail.md", DOC_FAIL).len(), 5);
    assert_eq!(lines("crates/x/CHANGES.md", DOC_FAIL).len(), 5);
}

// Repository policy: what rustc and clippy check stays switched on.

/// The `members = [...]` of the root manifest.
fn workspace_members() -> Vec<String> {
    let manifest = read(&root().join("Cargo.toml"));
    let list = manifest.split_once("members = [").map_or("", |(_, rest)| rest);
    let list = list.split(']').next().unwrap_or("");
    list.split('"').skip(1).step_by(2).map(str::to_string).collect()
}

/// The trimmed lines of `manifest` in the sections whose header `picks`.
fn section(manifest: &str, picks: impl Fn(&str) -> bool) -> Vec<&str> {
    let (mut current, mut lines) = ("", Vec::new());
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            current = line;
        } else if picks(current) {
            lines.push(line);
        }
    }
    lines
}

/// Whether `manifest` holds `setting` (spaces ignored) under `header`.
fn has_setting(manifest: &str, header: &str, setting: &str) -> bool {
    section(manifest, |s| s == header).iter().any(|line| line.replace(' ', "") == setting)
}

/// Every member inherits `[workspace.lints]`: `unsafe_code = "forbid"`,
/// `iter_over_hash_type` and the `#[expect(…, reason = "…")]` waiver
/// policy. A crate that forgets the opt-in would admit `unsafe` without a
/// word from rustc.
#[test]
fn every_member_inherits_the_workspace_lints() {
    let members = workspace_members();
    assert!(members.len() > 1, "members: {members:?}");
    for member in members {
        let manifest = read(&root().join(&member).join("Cargo.toml"));
        assert!(
            has_setting(&manifest, "[lints]", "workspace=true"),
            "{member}/Cargo.toml lacks `[lints] workspace = true`"
        );
    }
}

/// `netfence-crypto` is the bottom of the stack: its library links no
/// workspace crate, so no workspace table type (an `IdMap`, a telemetry
/// counter) creeps back into the key store. Its tests may use the
/// proptest shim.
#[test]
fn crypto_depends_on_no_workspace_crate() {
    let package = |member: &String| {
        let manifest = read(&root().join(member).join("Cargo.toml"));
        section(&manifest, |s| s == "[package]").into_iter().find_map(|line| {
            let value = line.strip_prefix("name")?.trim_start().strip_prefix('=')?;
            Some(value.trim().trim_matches('"').to_string())
        })
    };
    let crates: Vec<String> = workspace_members().iter().filter_map(package).collect();
    assert!(crates.iter().any(|c| c == "netfence-telemetry"), "crates: {crates:?}");
    let manifest = read(&root().join("crates/crypto/Cargo.toml"));
    for dev in [false, true] {
        let deps =
            section(&manifest, |s| s.ends_with("dependencies]") && s.contains("dev-") == dev);
        for dep in deps.iter().filter_map(|line| line.split(['=', '.', ' ']).next()) {
            assert!(
                !crates.iter().any(|c| c == dep) || (dev && dep == "proptest"),
                "crates/crypto/Cargo.toml depends on the workspace crate `{dep}`"
            );
        }
    }
}

/// Hash-order iteration and wildcard dispatch are clippy's, with real
/// types: both manifests deny `iter_over_hash_type` (`for` loops), the
/// `systems` and `experiments` roots deny `wildcard_enum_match_arm`, and
/// `clippy.toml` disallows every hash-iteration method (method chains).
#[test]
fn clippy_denies_hash_iteration_and_wildcard_dispatch() {
    let manifest = read(&root().join("Cargo.toml"));
    for header in ["[workspace.lints.clippy]", "[lints.clippy]"] {
        assert!(
            has_setting(&manifest, header, "iter_over_hash_type=\"deny\""),
            "Cargo.toml's {header} does not deny `iter_over_hash_type`"
        );
    }
    for krate in ["systems", "experiments"] {
        let lib = read(&root().join("crates").join(krate).join("src/lib.rs"));
        assert!(
            lib.lines().any(|l| l.starts_with("#![deny(") && l.contains("wildcard_enum_match_arm")),
            "crates/{krate}/src/lib.rs does not deny `clippy::wildcard_enum_match_arm`"
        );
    }
    let clippy = read(&root().join("clippy.toml"));
    let methods = clippy.split_once("disallowed-methods = [").map_or("", |(_, rest)| rest);
    let methods = methods.split("\n]").next().unwrap_or("");
    let map = ["iter", "iter_mut", "keys", "values", "values_mut", "drain"];
    let map = map.into_iter().chain(["into_keys", "into_values", "retain"]).map(|m| ("HashMap", m));
    let set = ["iter", "drain", "retain"].map(|m| ("HashSet", m));
    for (ty, method) in map.chain(set) {
        let path = format!("path = \"std::collections::{ty}::{method}\"");
        assert!(methods.contains(&path), "clippy.toml does not disallow `{ty}::{method}`");
    }
}

/// CHANGES.md stays a short per-change record: every top-level `- ` entry
/// (a `- FOUND:` line is an entry of its own) spans at most 8 lines and
/// 1,200 bytes, trailing blank lines not counted. Measurement tables and
/// narrative go in the commit, not in this file.
#[test]
fn changes_entries_stay_short() {
    let changes = format!("\n{}", read(&root().join("CHANGES.md")));
    let entries: Vec<String> =
        changes.split("\n- ").skip(1).map(|e| format!("- {}\n", e.trim_end())).collect();
    assert!(!entries.is_empty(), "CHANGES.md has no `- ` entry");
    for entry in entries {
        let (lines, bytes) = (entry.lines().count(), entry.len());
        let head: String = entry.chars().take(60).collect();
        assert!(
            lines <= 8 && bytes <= 1_200,
            "CHANGES.md entry `{head}…` has {lines} lines and {bytes} bytes (at most 8 and 1,200)"
        );
    }
}
