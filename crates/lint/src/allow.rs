//! The `// lint:allow(rule-name): reason` escape hatch.
//!
//! An allow suppresses findings of `rule-name` on its *target line*: the
//! line the comment trails (when code precedes it on the same line), or
//! the next line that holds code (for a full-line comment — stacked
//! allows all target the first code line below). The reason string is
//! mandatory; an empty reason is itself a violation (`unjustified-allow`)
//! so the justification policy is machine-enforced, and an allow that
//! suppresses nothing is reported (`unused-allow`) so stale annotations
//! cannot accumulate.

use crate::diag::{Diagnostic, Severity};
use crate::lexer::{Tok, TokKind};

/// One parsed allow annotation.
#[derive(Debug, Clone)]
pub struct Allow {
    pub rule: String,
    pub reason: String,
    /// Line of the comment itself.
    pub line: u32,
    /// Line whose findings it suppresses.
    pub target_line: u32,
    /// Set once a finding was suppressed by this allow.
    pub used: bool,
}

/// Extract every `lint:allow` annotation from a token stream.
pub fn collect(toks: &[Tok]) -> Vec<Allow> {
    let mut out = Vec::new();
    for (i, tok) in toks.iter().enumerate() {
        if tok.kind != TokKind::LineComment {
            continue;
        }
        let Some((rule, reason)) = parse_comment(&tok.text) else { continue };
        // Trailing comment → the code line it shares; full-line comment →
        // the first following line with a non-comment token.
        let trails_code =
            toks[..i].iter().rev().take_while(|t| t.line == tok.line).any(|t| !t.is_comment());
        let target_line = if trails_code {
            tok.line
        } else {
            toks[i + 1..].iter().find(|t| !t.is_comment()).map(|t| t.line).unwrap_or(tok.line)
        };
        out.push(Allow { rule, reason, line: tok.line, target_line, used: false });
    }
    out
}

/// Parse `// lint:allow(rule): reason` out of a line comment's text.
/// Returns `(rule, reason)`; the reason may be empty (the caller turns
/// that into an `unjustified-allow` finding). Doc comments (`///`,
/// `//!`) never carry annotations — they may legitimately *describe*
/// the syntax.
fn parse_comment(text: &str) -> Option<(String, String)> {
    if text.starts_with("///") || text.starts_with("//!") {
        return None;
    }
    let rest = text.split_once("lint:allow")?.1;
    let rest = rest.trim_start();
    let inner = rest.strip_prefix('(')?;
    let (rule, after) = inner.split_once(')')?;
    let reason = after.trim_start().strip_prefix(':').unwrap_or("").trim();
    Some((rule.trim().to_string(), reason.to_string()))
}

/// Apply `allows` to `diags` in place: matching findings gain a
/// `suppressed_by` reason. Returns the policy findings the allows
/// themselves generate (empty reasons, unknown rules, unused allows).
pub fn apply(
    path: &str,
    allows: &mut [Allow],
    diags: &mut [Diagnostic],
    known_rules: &[&str],
) -> Vec<Diagnostic> {
    for diag in diags.iter_mut() {
        if diag.suppressed_by.is_some() {
            continue;
        }
        if let Some(allow) = allows
            .iter_mut()
            .find(|a| a.rule == diag.rule && a.target_line == diag.line && !a.reason.is_empty())
        {
            allow.used = true;
            diag.suppressed_by = Some(allow.reason.clone());
        }
    }
    let mut policy = Vec::new();
    for allow in allows {
        if allow.reason.is_empty() {
            policy.push(Diagnostic::error(
                "unjustified-allow",
                path,
                allow.line,
                format!(
                    "`lint:allow({})` carries no justification — write `lint:allow({}): <reason>`",
                    allow.rule, allow.rule
                ),
            ));
        } else if !known_rules.contains(&allow.rule.as_str()) {
            policy.push(Diagnostic::error(
                "unknown-rule",
                path,
                allow.line,
                format!("`lint:allow({})` names a rule this pass does not define", allow.rule),
            ));
        } else if !allow.used {
            policy.push(Diagnostic {
                rule: "unused-allow".to_string(),
                path: path.to_string(),
                line: allow.line,
                message: format!(
                    "`lint:allow({})` suppresses nothing on line {}",
                    allow.rule, allow.target_line
                ),
                severity: Severity::Warning,
                suppressed_by: None,
            });
        }
    }
    policy
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn trailing_and_stacked_targets() {
        let src = "let a = 1; // lint:allow(wall-clock): trailing\n// lint:allow(orphan-pub-fn): stacked one\n// lint:allow(doc-refs): stacked two\nlet b = 2;\n";
        let allows = collect(&lex(src));
        assert_eq!(allows.len(), 3);
        assert_eq!(allows[0].target_line, 1);
        assert_eq!(allows[1].target_line, 4);
        assert_eq!(allows[2].target_line, 4);
    }

    #[test]
    fn empty_reason_and_unknown_rule_are_findings() {
        let src = "// lint:allow(wall-clock):\nlet a = 1;\n// lint:allow(no-such-rule): why\nlet b = 2;\n";
        let mut allows = collect(&lex(src));
        let mut diags = Vec::new();
        let policy = apply("f.rs", &mut allows, &mut diags, &["wall-clock"]);
        assert!(policy.iter().any(|d| d.rule == "unjustified-allow"));
        assert!(policy.iter().any(|d| d.rule == "unknown-rule"));
    }

    #[test]
    fn suppression_marks_use_and_unused_is_warned() {
        let src = "// lint:allow(wall-clock): timing a build\nlet t = now();\n// lint:allow(wall-clock): stale\nlet u = 1;\n";
        let mut allows = collect(&lex(src));
        let mut diags = vec![Diagnostic::error("wall-clock", "f.rs", 2, "tick".into())];
        let policy = apply("f.rs", &mut allows, &mut diags, &["wall-clock"]);
        assert_eq!(diags[0].suppressed_by.as_deref(), Some("timing a build"));
        assert!(policy.iter().any(|d| d.rule == "unused-allow" && d.line == 3));
    }
}
