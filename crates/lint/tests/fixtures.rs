//! Golden fixture tests: one failing and one passing fixture per rule
//! (`fixtures/<rule>/{fail,pass}.rs`, `.md` for `doc-refs`), the
//! workspace-clean gate itself, every member's opt-in to the
//! `[workspace.lints]` that rustc and clippy enforce, and the clippy
//! configuration that carries hash-order iteration and wildcard dispatch.

use std::path::Path;

use netfence_lint::rules::RULE_NAMES;
use netfence_lint::workspace::{workspace_members, FileInput};
use netfence_lint::{check_files, check_workspace, Report};

/// The Rust file the `doc-refs` fixtures cite (five lines).
const DOC_REFS_TARGET: &str = "struct Simulator;\n\nimpl Simulator {\n    fn run(&self) {}\n}\n";

fn fixture_source(rule: &str, which: &str) -> String {
    let ext = if rule == "doc-refs" { "md" } else { "rs" };
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(rule)
        .join(format!("{which}.{ext}"));
    read(&path)
}

/// Analyze one fixture at a virtual `path` (a `doc-refs` fixture beside
/// the Rust file it cites).
fn check_fixture(rule: &str, which: &str, path: &str) -> Report {
    let mut files = vec![FileInput { path: path.to_string(), source: fixture_source(rule, which) }];
    if rule == "doc-refs" {
        files.push(FileInput {
            path: "crates/demo/src/engine.rs".to_string(),
            source: DOC_REFS_TARGET.to_string(),
        });
    }
    check_files(&files)
}

fn unsuppressed<'a>(report: &'a Report, rule: &str) -> Vec<&'a netfence_lint::diag::Diagnostic> {
    report.diagnostics.iter().filter(|d| d.rule == rule && d.suppressed_by.is_none()).collect()
}

#[test]
fn every_rule_has_a_failing_and_a_passing_fixture() {
    for rule in RULE_NAMES {
        // `orphan-pub-fn` looks at `crates/*/src` only; every other rule's
        // fixtures stay outside it (their functions have no callers).
        let dir = if rule == "orphan-pub-fn" { "crates/fixtures/src" } else { "fixtures" };
        let ext = if rule == "doc-refs" { "md" } else { "rs" };

        let fail = check_fixture(rule, "fail", &format!("{dir}/{rule}/fail.{ext}"));
        assert!(
            !unsuppressed(&fail, rule).is_empty(),
            "{rule}: fail.rs produced no `{rule}` finding:\n{}",
            render(&fail)
        );
        for other in RULE_NAMES {
            if other != rule {
                assert!(
                    unsuppressed(&fail, other).is_empty(),
                    "{rule}: fail.rs leaked a `{other}` finding:\n{}",
                    render(&fail)
                );
            }
        }

        let pass = check_fixture(rule, "pass", &format!("{dir}/{rule}/pass.{ext}"));
        assert_eq!(pass.errors(), 0, "{rule}: pass.rs has errors:\n{}", render(&pass));
        assert_eq!(pass.warnings(), 0, "{rule}: pass.rs has warnings:\n{}", render(&pass));
    }
}

/// A field is not a caller: the setter named like the field it assigns
/// is reported next to the two plain orphans.
#[test]
fn a_setter_named_like_its_field_is_an_orphan() {
    let rule = "orphan-pub-fn";
    let fail = check_fixture(rule, "fail", "crates/fixtures/src/fail.rs");
    let found = unsuppressed(&fail, rule);
    assert_eq!(found.len(), 3, "{}", render(&fail));
    for name in ["unused_knob", "limit", "never_called"] {
        let needle = format!("`pub fn {name}`");
        assert!(found.iter().any(|d| d.message.contains(&needle)), "{name}:\n{}", render(&fail));
    }
}

/// A module is not a caller either: the accessor named like its module is
/// the one finding, and a call through a module path or with a turbofish
/// still counts.
#[test]
fn an_accessor_named_like_its_module_is_an_orphan() {
    let rule = "orphan-pub-fn";
    let fail = check_fixture(rule, "module_fail", "crates/fixtures/src/module_fail.rs");
    let found = unsuppressed(&fail, rule);
    assert_eq!(found.len(), 1, "{}", render(&fail));
    assert!(found[0].message.contains("`pub fn monitor`"), "{}", render(&fail));
    let pass = check_fixture(rule, "module_pass", "crates/fixtures/src/module_pass.rs");
    assert_eq!((pass.errors(), pass.warnings()), (0, 0), "{}", render(&pass));
}

/// Every stale reference of `fail.md` is reported once, on its own line,
/// and an exempt Markdown file (the rule's own fixtures) is not read at
/// all.
#[test]
fn doc_refs_reports_each_stale_reference() {
    let rule = "doc-refs";
    let fail = check_fixture(rule, "fail", "fixtures/doc-refs/fail.md");
    let lines: Vec<u32> = unsuppressed(&fail, rule).iter().map(|d| d.line).collect();
    assert_eq!(lines, [5, 6, 7, 8, 9], "{}", render(&fail));
    let exempt = check_fixture(rule, "fail", "crates/lint/fixtures/doc-refs/fail.md");
    assert!(unsuppressed(&exempt, rule).is_empty(), "{}", render(&exempt));
}

/// An allow comment with an empty reason is itself an error, and an
/// allow naming an unknown rule is too — the escape hatch cannot be used
/// to silently disable the gate.
#[test]
fn allow_policy_is_enforced_on_fixtures() {
    let source =
        "// lint:allow(wall-clock):\n// lint:allow(no-such-rule): because\npub fn f() {}\n";
    let files = [FileInput { path: "fixtures/policy.rs".to_string(), source: source.to_string() }];
    let report = check_files(&files);
    assert!(!unsuppressed(&report, "unjustified-allow").is_empty(), "{}", render(&report));
    assert!(!unsuppressed(&report, "unknown-rule").is_empty(), "{}", render(&report));
}

/// The gate CI runs: the workspace itself is clean.
#[test]
fn workspace_is_clean() {
    let report = check_workspace(&workspace_root()).unwrap();
    let offending: Vec<String> = report
        .diagnostics
        .iter()
        .filter(|d| d.suppressed_by.is_none())
        .map(|d| d.render())
        .collect();
    assert!(offending.is_empty(), "workspace not lint-clean:\n{}", offending.join("\n"));
}

/// Every member inherits `[workspace.lints]`: `unsafe_code = "forbid"`,
/// `iter_over_hash_type` and the `#[expect(…, reason = "…")]` waiver
/// policy. A crate that forgets the opt-in would admit `unsafe` without a
/// word from rustc.
#[test]
fn every_member_inherits_the_workspace_lints() {
    let root = workspace_root();
    let members = workspace_members(&read(&root.join("Cargo.toml")));
    assert!(!members.is_empty());
    for member in members {
        let manifest = read(&root.join(&member).join("Cargo.toml"));
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
    let root = workspace_root();
    let package_name = |manifest: &str| -> Option<String> {
        let mut section = "";
        manifest.lines().map(str::trim).find_map(|line| {
            if line.starts_with('[') {
                section = line;
            }
            let value = line.strip_prefix("name")?.trim_start().strip_prefix('=')?;
            (section == "[package]").then(|| value.trim().trim_matches('"').to_string())
        })
    };
    let members: Vec<String> = workspace_members(&read(&root.join("Cargo.toml")))
        .iter()
        .filter_map(|member| package_name(&read(&root.join(member).join("Cargo.toml"))))
        .collect();
    assert!(members.iter().any(|m| m == "netfence-telemetry"), "members: {members:?}");
    let manifest = read(&root.join("crates/crypto/Cargo.toml"));
    let mut section = "";
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            section = line;
            continue;
        }
        if !section.ends_with("dependencies]") {
            continue;
        }
        let dep = line.split(['=', '.', ' ']).next().unwrap_or("");
        let test_harness = section == "[dev-dependencies]" && dep == "proptest";
        assert!(
            !members.iter().any(|m| m == dep) || test_harness,
            "crates/crypto/Cargo.toml lists the workspace crate `{dep}` under {section}"
        );
    }
}

/// Hash-order iteration and wildcard dispatch are clippy's, with real
/// types: both manifests deny `iter_over_hash_type` (`for` loops), the
/// old wildcard zone's crate roots deny `wildcard_enum_match_arm`, and
/// `clippy.toml` disallows every hash-iteration method (method chains).
#[test]
fn clippy_denies_hash_iteration_and_wildcard_dispatch() {
    let root = workspace_root();
    let manifest = read(&root.join("Cargo.toml"));
    for section in ["[workspace.lints.clippy]", "[lints.clippy]"] {
        assert!(
            has_setting(&manifest, section, "iter_over_hash_type=\"deny\""),
            "Cargo.toml's {section} does not deny `iter_over_hash_type`"
        );
    }
    for krate in ["systems", "experiments"] {
        let lib = read(&root.join("crates").join(krate).join("src/lib.rs"));
        assert!(
            lib.lines().any(|l| l.starts_with("#![deny(") && l.contains("wildcard_enum_match_arm")),
            "crates/{krate}/src/lib.rs does not deny `clippy::wildcard_enum_match_arm`"
        );
    }
    let clippy = read(&root.join("clippy.toml"));
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
    let changes = read(&workspace_root().join("CHANGES.md"));
    let mut entries: Vec<Vec<&str>> = Vec::new();
    for line in changes.lines() {
        if line.starts_with("- ") {
            entries.push(Vec::new());
        }
        if let Some(entry) = entries.last_mut() {
            entry.push(line);
        }
    }
    assert!(!entries.is_empty(), "CHANGES.md has no `- ` entry");
    for entry in &mut entries {
        while entry.last().is_some_and(|line| line.trim().is_empty()) {
            entry.pop();
        }
        let bytes: usize = entry.iter().map(|line| line.len() + 1).sum();
        let head: String = entry[0].chars().take(60).collect();
        assert!(
            entry.len() <= 8 && bytes <= 1_200,
            "CHANGES.md entry `{head}…` has {} lines and {bytes} bytes (at most 8 and 1,200)",
            entry.len()
        );
    }
}

/// Whether `manifest` holds `setting` (spaces ignored) in `section`.
fn has_setting(manifest: &str, section: &str, setting: &str) -> bool {
    let mut current = "";
    manifest.lines().map(str::trim).any(|line| {
        if line.starts_with('[') {
            current = line;
        }
        current == section && line.replace(' ', "") == setting
    })
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

fn workspace_root() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..")
}

fn render(report: &Report) -> String {
    report.diagnostics.iter().map(|d| d.render()).collect::<Vec<_>>().join("\n")
}
