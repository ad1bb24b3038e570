//! `lint.toml` — the declarative zone / rule configuration.
//!
//! The workspace is partitioned into *zones* by path prefix; each rule
//! declares which zones it polices (see `DESIGN.md` §13). The parser
//! handles the small TOML subset the config uses — `[section]` headers,
//! `key = "string"` and `key = [ "a", "b", ... ]` (multi-line arrays,
//! `#` comments) — so the tool stays dependency-free.

use std::collections::BTreeMap;

/// Parsed configuration: section → key → list of string values (scalar
/// values are one-element lists).
#[derive(Debug, Default, Clone)]
pub struct LintConfig {
    sections: BTreeMap<String, BTreeMap<String, Vec<String>>>,
}

impl LintConfig {
    /// Parse the `lint.toml` text. Unknown sections/keys are kept (the
    /// rules look up what they need), malformed lines are an error.
    pub fn parse(text: &str) -> Result<LintConfig, String> {
        let mut cfg = LintConfig::default();
        let mut section = String::new();
        let mut lines = text.lines().enumerate().peekable();
        while let Some((no, raw)) = lines.next() {
            let line = strip_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                section = name.trim().to_string();
                cfg.sections.entry(section.clone()).or_default();
                continue;
            }
            let Some((key, mut value)) =
                line.split_once('=').map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
            else {
                return Err(format!("lint.toml:{}: expected `key = value`", no + 1));
            };
            // Multi-line array: keep consuming until the closing bracket.
            if value.starts_with('[') && !value.ends_with(']') {
                for (_, cont) in lines.by_ref() {
                    value.push(' ');
                    value.push_str(strip_comment(cont).trim());
                    if value.ends_with(']') {
                        break;
                    }
                }
            }
            let values = parse_value(&value).map_err(|e| format!("lint.toml:{}: {e}", no + 1))?;
            cfg.sections.entry(section.clone()).or_default().insert(key, values);
        }
        Ok(cfg)
    }

    /// The string list at `[section] key`, empty if absent.
    pub fn list(&self, section: &str, key: &str) -> &[String] {
        self.sections.get(section).and_then(|s| s.get(key)).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Whether `path` (workspace-relative, `/`-separated) lies under any
    /// of the prefixes at `[section] key`.
    pub fn path_in(&self, section: &str, key: &str, path: &str) -> bool {
        self.list(section, key).iter().any(|prefix| in_prefix(path, prefix))
    }
}

/// Path-prefix test on whole components: `crates/sim` covers
/// `crates/sim/src/engine.rs` but not `crates/simx/...`.
pub fn in_prefix(path: &str, prefix: &str) -> bool {
    path == prefix || path.strip_prefix(prefix).is_some_and(|rest| rest.starts_with('/'))
}

fn strip_comment(line: &str) -> &str {
    // `#` inside quotes would break this, but the config never quotes a
    // `#`; keep the parser honest about its scope.
    match line.find('#') {
        Some(i) if !line[..i].contains('"') || line[..i].matches('"').count().is_multiple_of(2) => {
            &line[..i]
        }
        _ => line,
    }
}

fn parse_value(value: &str) -> Result<Vec<String>, String> {
    let value = value.trim();
    if let Some(inner) = value.strip_prefix('[').and_then(|v| v.strip_suffix(']')) {
        let mut out = Vec::new();
        for item in inner.split(',') {
            let item = item.trim();
            if item.is_empty() {
                continue;
            }
            out.push(unquote(item)?);
        }
        return Ok(out);
    }
    Ok(vec![unquote(value)?])
}

fn unquote(item: &str) -> Result<String, String> {
    item.strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .map(str::to_string)
        .ok_or_else(|| format!("expected a quoted string, got `{item}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sections_scalars_and_multiline_arrays() {
        let cfg = LintConfig::parse(
            r#"
            # comment
            [zones]
            export = [
              "crates/sim/src",   # trailing comment
              "crates/experiments/src",
            ]
            [rules.doc-refs]
            exempt = ["crates/sim/src"]
            note = "hi"
            "#,
        )
        .unwrap();
        assert_eq!(cfg.list("zones", "export").len(), 2);
        assert!(cfg.path_in("zones", "export", "crates/sim/src/engine.rs"));
        assert!(!cfg.path_in("zones", "export", "crates/simx/src/engine.rs"));
        assert_eq!(cfg.list("rules.doc-refs", "exempt"), ["crates/sim/src".to_string()]);
        assert_eq!(cfg.list("rules.doc-refs", "note"), ["hi".to_string()]);
    }

    #[test]
    fn rejects_unquoted_values() {
        assert!(LintConfig::parse("[a]\nk = nope").is_err());
    }
}
