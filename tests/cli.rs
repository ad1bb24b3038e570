//! The `netfence` CLI and the experiment table behind it.
//!
//! * The table is well-formed: 12 unique, non-empty names that all resolve.
//! * Bad input — unknown experiment, a flag the row does not support, an
//!   unknown flag — is an `Err` / non-zero exit with a message, never a
//!   panic.
//! * Every row's golden matches in the profile the tests are built with
//!   (`cargo run --release -- check` is the same comparison in release).

use std::collections::BTreeSet;
use std::process::Command;

use netfence::experiments::registry::{self, Size, EXPERIMENTS};

#[test]
fn registry_names_are_unique_and_resolve() {
    let names: BTreeSet<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    assert_eq!(names.len(), EXPERIMENTS.len(), "duplicate experiment name");
    let list = registry::list();
    for e in &EXPERIMENTS {
        assert!(!e.name.is_empty() && !e.about.is_empty());
        assert_eq!(registry::find(e.name).map(|f| f.name), Ok(e.name));
        assert!(list.contains(e.name));
    }
}

#[test]
fn bad_requests_are_errors_not_panics() {
    let unknown = registry::run("fig12", Size::Quick, false).unwrap_err();
    assert!(unknown.contains("fig12"), "{unknown}");
    for e in &EXPERIMENTS {
        if e.traced.is_none() {
            let err = registry::run(e.name, Size::Quick, true).unwrap_err();
            assert!(err.contains("--trace"), "{err}");
        }
        if !e.full {
            let err = registry::run(e.name, Size::Full, false).unwrap_err();
            assert!(err.contains("--full"), "{err}");
        }
    }
    // Exactly the rows the docs advertise take the optional flags.
    let traced: Vec<&str> =
        EXPERIMENTS.iter().filter(|e| e.traced.is_some()).map(|e| e.name).collect();
    let full: Vec<&str> = EXPERIMENTS.iter().filter(|e| e.full).map(|e| e.name).collect();
    assert_eq!(traced, ["fig8", "chaos"]);
    assert_eq!(full, ["topo_scale"]);
}

#[test]
fn the_binary_rejects_bad_argv_with_usage() {
    let netfence = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_netfence")).args(args).output().expect("spawn netfence")
    };
    for bad in [
        &[][..],
        &["run"],
        &["run", "fig8", "--bogus"],
        &["run", "fig8", "--quick", "--full"],
        &["run", "fig13", "--trace"],
        &["check", "fig8"],
        &["frobnicate"],
    ] {
        let out = netfence(bad);
        assert_eq!(out.status.code(), Some(1), "{bad:?} should be a usage error");
        assert!(out.stdout.is_empty(), "{bad:?} printed to stdout");
        assert!(String::from_utf8_lossy(&out.stderr).starts_with("netfence: "), "{bad:?}");
    }
    let list = netfence(&["list"]);
    assert!(list.status.success());
    assert_eq!(String::from_utf8_lossy(&list.stdout), registry::list());
}

/// Every row at `--quick` (≈ 5 s in the dev profile on 2 vCPUs) in
/// whatever profile the tests are built with: dev and release must print
/// the same bytes.
#[test]
fn fast_goldens_match() {
    if let Err(msg) = registry::check() {
        panic!("{msg}");
    }
}
