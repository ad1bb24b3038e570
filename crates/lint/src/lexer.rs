//! A lightweight Rust lexer: just enough token structure for the lint
//! rules to reason about identifiers, punctuation and comments without a
//! full parser (in the spirit of the vendored proptest shim —
//! a small offline stand-in for the part of the real thing we need).
//!
//! The lexer understands the token classes that matter for not producing
//! false positives: line/block comments (nested), string/char/byte
//! literals, raw strings with arbitrary `#` fences, and lifetimes vs char
//! literals. Everything the rules match on — `HashMap`, `iter`,
//! `Instant`, `RouterAction` — arrives as an [`TokKind::Ident`] token, so
//! occurrences inside strings or comments can never fire a rule.

/// The classes of token the rules distinguish.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`HashMap`, `for`, `match`, `_`, ...).
    Ident,
    /// Punctuation; multi-char operators the rules need (`::`, `=>`,
    /// `->`, `#!`) are fused into one token.
    Punct,
    /// String / char / byte / numeric literal (content not interpreted).
    Literal,
    /// Lifetime or loop label (`'a`, `'outer`).
    Lifetime,
    /// A `//` line comment, with its full text (used for `lint:allow`).
    LineComment,
    /// A `/* ... */` block comment (nested fences handled).
    BlockComment,
}

/// One lexed token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Tok {
    pub kind: TokKind,
    pub text: String,
    pub line: u32,
}

impl Tok {
    /// Whether this token is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// Whether this token is the punctuation `s`.
    pub fn is_punct(&self, s: &str) -> bool {
        self.kind == TokKind::Punct && self.text == s
    }

    /// Whether this token is a comment of either flavor.
    pub fn is_comment(&self) -> bool {
        matches!(self.kind, TokKind::LineComment | TokKind::BlockComment)
    }
}

/// Lex `source` into a token stream. The lexer never fails: unexpected
/// bytes become single-character [`TokKind::Punct`] tokens, so a file a
/// future Rust edition extends still scans.
pub fn lex(source: &str) -> Vec<Tok> {
    Lexer { src: source.as_bytes(), pos: 0, line: 1, out: Vec::new() }.run()
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
    out: Vec<Tok>,
}

impl Lexer<'_> {
    fn run(mut self) -> Vec<Tok> {
        while self.pos < self.src.len() {
            let c = self.src[self.pos];
            match c {
                b'\n' => {
                    self.line += 1;
                    self.pos += 1;
                }
                c if c.is_ascii_whitespace() => self.pos += 1,
                b'/' if self.peek(1) == Some(b'/') => self.line_comment(),
                b'/' if self.peek(1) == Some(b'*') => self.block_comment(),
                b'"' => self.string_literal(),
                b'r' if matches!(self.peek(1), Some(b'"') | Some(b'#'))
                    && self.raw_string_ahead(1) =>
                {
                    self.raw_string(1)
                }
                b'b' if self.peek(1) == Some(b'"') => {
                    self.pos += 1;
                    self.string_literal();
                }
                b'b' if self.peek(1) == Some(b'r') && self.raw_string_ahead(2) => {
                    self.raw_string(2)
                }
                b'b' if self.peek(1) == Some(b'\'') => {
                    self.pos += 1;
                    self.char_literal();
                }
                b'\'' => self.quote(),
                c if c.is_ascii_digit() => self.number(),
                c if c.is_ascii_alphabetic() || c == b'_' => self.ident(),
                _ => self.punct(),
            }
        }
        self.out
    }

    fn peek(&self, ahead: usize) -> Option<u8> {
        self.src.get(self.pos + ahead).copied()
    }

    fn push(&mut self, kind: TokKind, text: String, line: u32) {
        self.out.push(Tok { kind, text, line });
    }

    /// Whether `r`/`br` at `self.pos` starts a raw string: `#*` then `"`.
    fn raw_string_ahead(&self, prefix: usize) -> bool {
        let mut i = self.pos + prefix;
        while self.src.get(i) == Some(&b'#') {
            i += 1;
        }
        self.src.get(i) == Some(&b'"')
    }

    fn line_comment(&mut self) {
        let start = self.pos;
        while self.pos < self.src.len() && self.src[self.pos] != b'\n' {
            self.pos += 1;
        }
        let text = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
        let line = self.line;
        self.push(TokKind::LineComment, text, line);
    }

    fn block_comment(&mut self) {
        let start = self.pos;
        let line = self.line;
        self.pos += 2;
        let mut depth = 1usize;
        while self.pos < self.src.len() && depth > 0 {
            match (self.src[self.pos], self.peek(1)) {
                (b'/', Some(b'*')) => {
                    depth += 1;
                    self.pos += 2;
                }
                (b'*', Some(b'/')) => {
                    depth -= 1;
                    self.pos += 2;
                }
                (b'\n', _) => {
                    self.line += 1;
                    self.pos += 1;
                }
                _ => self.pos += 1,
            }
        }
        let text = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
        self.push(TokKind::BlockComment, text, line);
    }

    fn string_literal(&mut self) {
        let line = self.line;
        self.pos += 1; // opening quote
        while self.pos < self.src.len() {
            match self.src[self.pos] {
                b'\\' => self.pos += 2,
                b'"' => {
                    self.pos += 1;
                    break;
                }
                b'\n' => {
                    self.line += 1;
                    self.pos += 1;
                }
                _ => self.pos += 1,
            }
        }
        self.push(TokKind::Literal, String::new(), line);
    }

    fn raw_string(&mut self, prefix: usize) {
        let line = self.line;
        self.pos += prefix;
        let mut hashes = 0usize;
        while self.src.get(self.pos) == Some(&b'#') {
            hashes += 1;
            self.pos += 1;
        }
        self.pos += 1; // opening quote
        let mut fence = vec![b'#'; hashes];
        fence.insert(0, b'"');
        while self.pos < self.src.len() {
            if self.src[self.pos] == b'\n' {
                self.line += 1;
                self.pos += 1;
                continue;
            }
            if self.src[self.pos..].starts_with(&fence) {
                self.pos += fence.len();
                break;
            }
            self.pos += 1;
        }
        self.push(TokKind::Literal, String::new(), line);
    }

    /// A `'`: either a char literal or a lifetime/label.
    fn quote(&mut self) {
        let next = self.peek(1);
        let after = self.peek(2);
        let is_lifetime = match next {
            Some(c) if c.is_ascii_alphabetic() || c == b'_' => after != Some(b'\''),
            _ => false,
        };
        if is_lifetime {
            let start = self.pos;
            self.pos += 1;
            while self.peek(0).is_some_and(|c| c.is_ascii_alphanumeric() || c == b'_') {
                self.pos += 1;
            }
            let text = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
            let line = self.line;
            self.push(TokKind::Lifetime, text, line);
        } else {
            self.char_literal();
        }
    }

    fn char_literal(&mut self) {
        let line = self.line;
        self.pos += 1; // opening quote
        while self.pos < self.src.len() {
            match self.src[self.pos] {
                b'\\' => self.pos += 2,
                b'\'' => {
                    self.pos += 1;
                    break;
                }
                b'\n' => {
                    // Not actually a char literal; bail without consuming
                    // the line (keeps the lexer robust on odd input).
                    break;
                }
                _ => self.pos += 1,
            }
        }
        self.push(TokKind::Literal, String::new(), line);
    }

    fn number(&mut self) {
        let line = self.line;
        // Numeric literals may embed `_`, type suffixes, hex digits and a
        // decimal point; none of the rules interpret the value.
        while self.peek(0).is_some_and(|c| c.is_ascii_alphanumeric() || c == b'_' || c == b'.') {
            // Stop before `..` range operators.
            if self.src[self.pos] == b'.' && self.peek(1) == Some(b'.') {
                break;
            }
            self.pos += 1;
        }
        self.push(TokKind::Literal, String::new(), line);
    }

    fn ident(&mut self) {
        let start = self.pos;
        while self.peek(0).is_some_and(|c| c.is_ascii_alphanumeric() || c == b'_') {
            self.pos += 1;
        }
        let text = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
        let line = self.line;
        self.push(TokKind::Ident, text, line);
    }

    fn punct(&mut self) {
        let line = self.line;
        let c = self.src[self.pos];
        let fused = match (c, self.peek(1)) {
            (b':', Some(b':')) => Some("::"),
            (b'=', Some(b'>')) => Some("=>"),
            (b'-', Some(b'>')) => Some("->"),
            (b'#', Some(b'!')) => Some("#!"),
            _ => None,
        };
        match fused {
            Some(s) => {
                self.pos += 2;
                self.push(TokKind::Punct, s.to_string(), line);
            }
            None => {
                self.pos += 1;
                self.push(TokKind::Punct, (c as char).to_string(), line);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src).into_iter().filter(|t| t.kind == TokKind::Ident).map(|t| t.text).collect()
    }

    #[test]
    fn strings_and_comments_hide_identifiers() {
        let src = r##"
            // HashMap in a comment
            /* HashMap /* nested */ still comment */
            let s = "HashMap::iter()";
            let r = r#"HashMap "quoted" inside"#;
            let c = 'h';
            let real = HashMap::new();
        "##;
        let ids = idents(src);
        assert_eq!(ids.iter().filter(|s| *s == "HashMap").count(), 1);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let toks = lex("fn f<'a>(x: &'a str) { let c = 'x'; }");
        assert!(toks.iter().any(|t| t.kind == TokKind::Lifetime && t.text == "'a"));
        assert_eq!(toks.iter().filter(|t| t.kind == TokKind::Literal).count(), 1);
    }

    #[test]
    fn fused_puncts() {
        let toks = lex("x :: y => z -> w #![attr]");
        let puncts: Vec<&str> =
            toks.iter().filter(|t| t.kind == TokKind::Punct).map(|t| t.text.as_str()).collect();
        assert!(puncts.contains(&"::"));
        assert!(puncts.contains(&"=>"));
        assert!(puncts.contains(&"->"));
        assert!(puncts.contains(&"#!"));
    }

    #[test]
    fn line_numbers_track_newlines_everywhere() {
        let src = "a\n\"two\nline string\"\nb";
        let toks = lex(src);
        let b = toks.iter().find(|t| t.is_ident("b")).unwrap();
        assert_eq!(b.line, 4);
    }
}
