//! Workspace discovery: members from the root `Cargo.toml`, then every
//! `.rs` file under each member's `src/`, `tests/` and `examples/` trees
//! (plus the root facade crate's own), and every `.md` file in the tree
//! (rule `doc-refs`); build output (`target/`) and `.git/` are skipped.
//! Paths are reported workspace-relative with `/` separators so
//! the `doc-refs` exempt prefixes and diagnostics are stable across
//! platforms.

use std::fs;
use std::path::{Path, PathBuf};

/// One source file queued for analysis.
#[derive(Debug, Clone)]
pub struct FileInput {
    /// Workspace-relative, `/`-separated.
    pub path: String,
    pub source: String,
}

/// Parse the `members = [ ... ]` array of the root manifest's
/// `[workspace]` section without a TOML dependency.
pub fn workspace_members(manifest: &str) -> Vec<String> {
    let mut members = Vec::new();
    let mut in_array = false;
    for raw in manifest.lines() {
        let line = raw.trim();
        if !in_array {
            if let Some(rest) = line.strip_prefix("members") {
                let rest = rest.trim_start();
                if let Some(rest) = rest.strip_prefix('=') {
                    in_array = true;
                    collect_quoted(rest, &mut members);
                    if rest.contains(']') {
                        break;
                    }
                }
            }
            continue;
        }
        collect_quoted(line, &mut members);
        if line.contains(']') {
            break;
        }
    }
    members
}

fn collect_quoted(line: &str, out: &mut Vec<String>) {
    let mut rest = line;
    while let Some(start) = rest.find('"') {
        let Some(len) = rest[start + 1..].find('"') else { break };
        out.push(rest[start + 1..start + 1 + len].to_string());
        rest = &rest[start + 2 + len..];
    }
}

/// Enumerate every analyzable `.rs` file of the workspace at `root`,
/// sorted by path so diagnostics and the JSON report are deterministic.
pub fn discover(root: &Path) -> Result<Vec<FileInput>, String> {
    let manifest = fs::read_to_string(root.join("Cargo.toml"))
        .map_err(|e| format!("cannot read {}: {e}", root.join("Cargo.toml").display()))?;
    let mut dirs: Vec<String> = workspace_members(&manifest);
    // The root facade package ships its own src/tests/examples.
    dirs.push(String::new());

    let mut files = Vec::new();
    for member in &dirs {
        let base = if member.is_empty() { root.to_path_buf() } else { root.join(member) };
        for sub in ["src", "tests", "examples"] {
            let dir = base.join(sub);
            if dir.is_dir() {
                walk(&dir, "rs", &mut files)?;
            }
        }
    }
    walk(root, "md", &mut files)?;
    let mut inputs = Vec::new();
    for file in files {
        let rel = file
            .strip_prefix(root)
            .map_err(|_| format!("{} escapes the workspace", file.display()))?;
        let path =
            rel.components().map(|c| c.as_os_str().to_string_lossy()).collect::<Vec<_>>().join("/");
        let source = fs::read_to_string(&file).map_err(|e| format!("cannot read {path}: {e}"))?;
        inputs.push(FileInput { path, source });
    }
    inputs.sort_by(|a, b| a.path.cmp(&b.path));
    Ok(inputs)
}

fn walk(dir: &Path, ext: &str, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)
        .map_err(|e| format!("cannot list {}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for entry in entries {
        if entry.is_dir() {
            if !entry.ends_with("target") && !entry.ends_with(".git") {
                walk(&entry, ext, out)?;
            }
        } else if entry.extension().is_some_and(|e| e == ext) {
            out.push(entry);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_multiline_members_array() {
        let manifest = "[workspace]\nresolver = \"2\"\nmembers = [\n  \"crates/core\",\n  \"crates/sim\",\n]\n";
        assert_eq!(workspace_members(manifest), ["crates/core", "crates/sim"]);
    }

    #[test]
    fn parses_single_line_members_array() {
        let manifest = "members = [\"a\", \"b\"]";
        assert_eq!(workspace_members(manifest), ["a", "b"]);
    }
}
