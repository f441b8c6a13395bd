//! Integration tests: the fixture corpus pins each rule's behavior, and
//! the self-check pins the real workspace at zero violations — the same
//! gate CI runs via `cargo run -p ndpx-lint -- --check`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use ndpx_lint::{lint_source, Rule};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Lints a fixture as if it lived in a digest-affecting crate.
fn lint_fixture(name: &str) -> Vec<(u32, Rule)> {
    let src = fixture(name);
    lint_source(&format!("crates/core/src/{name}"), &src)
        .into_iter()
        .map(|v| (v.line, v.rule))
        .collect()
}

fn rule_counts(found: &[(u32, Rule)]) -> BTreeMap<&'static str, usize> {
    let mut m = BTreeMap::new();
    for (_, r) in found {
        *m.entry(r.name()).or_insert(0) += 1;
    }
    m
}

#[test]
fn det_collections_fixture() {
    let counts = rule_counts(&lint_fixture("bad_det_collections.rs"));
    assert_eq!(
        counts.get("det-collections"),
        Some(&5),
        "two uses, one return type, two constructions"
    );
    assert_eq!(counts.len(), 1, "no other rules fire: {counts:?}");
}

#[test]
fn det_wallclock_fixture() {
    let counts = rule_counts(&lint_fixture("bad_det_wallclock.rs"));
    // SystemTime in the use and at the call, plus one Instant::now. The
    // bare `Instant` in the use list is a type mention, not a clock read.
    assert_eq!(counts.get("det-wallclock"), Some(&3));
    assert_eq!(counts.len(), 1);
}

#[test]
fn det_threadid_fixture() {
    let counts = rule_counts(&lint_fixture("bad_det_threadid.rs"));
    assert_eq!(counts.get("det-threadid"), Some(&1));
    assert_eq!(counts.len(), 1);
}

#[test]
fn env_read_fixture() {
    let counts = rule_counts(&lint_fixture("bad_env_read.rs"));
    assert_eq!(counts.get("env-read"), Some(&3), "var, var_os, and vars");
    assert_eq!(counts.len(), 1);
}

#[test]
fn knob_literal_fixture() {
    let counts = rule_counts(&lint_fixture("bad_knob_literal.rs"));
    assert_eq!(counts.get("knob-literal"), Some(&1));
    assert_eq!(counts.len(), 1);
}

#[test]
fn stat_path_fixture() {
    let found = lint_fixture("bad_stat_path.rs");
    let counts = rule_counts(&found);
    assert_eq!(counts.get("stat-path"), Some(&2), "stale link-index form and pre-epoch p99");
    assert_eq!(counts.len(), 1);
}

#[test]
fn unjustified_pragma_neither_suppresses_nor_passes() {
    let found = lint_fixture("bad_pragma_unjustified.rs");
    let counts = rule_counts(&found);
    assert_eq!(counts.get("det-wallclock"), Some(&1));
    assert_eq!(counts.get("pragma-justify"), Some(&1));
}

#[test]
fn unused_and_unknown_pragmas_are_reported() {
    let found = lint_fixture("bad_pragma_unused.rs");
    let counts = rule_counts(&found);
    assert_eq!(counts.get("pragma-unused"), Some(&2), "one unused, one unknown rule");
    assert_eq!(counts.len(), 1);
}

#[test]
fn good_fixtures_are_clean() {
    for name in ["good_suppressed.rs", "good_clean.rs"] {
        let found = lint_fixture(name);
        assert!(found.is_empty(), "{name} must lint clean, got {found:?}");
    }
}

#[test]
fn det_rules_do_not_apply_outside_digest_scope() {
    // The same wall-clock fixture is fine in bench, which measures wall
    // clock by design — but the knob/env/stat rules still apply there.
    let wall = fixture("bad_det_wallclock.rs");
    assert!(lint_source("crates/bench/src/fixture.rs", &wall).is_empty());
    let env = fixture("bad_env_read.rs");
    assert_eq!(lint_source("crates/bench/src/fixture.rs", &env).len(), 3);
}

#[test]
fn the_workspace_lints_clean() {
    let root: PathBuf = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/lint sits two levels below the workspace root")
        .to_path_buf();
    assert!(root.join("Cargo.toml").exists(), "bad root {}", root.display());
    let violations = ndpx_lint::lint_workspace(&root).expect("workspace scan");
    assert!(
        violations.is_empty(),
        "the workspace must lint clean:\n{}",
        violations
            .iter()
            .map(|v| format!("  {}:{}: [{}] {}", v.path, v.line, v.rule.name(), v.message))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn every_committed_pragma_is_exercised() {
    // The self-check above proves no pragma is unused; this pins the
    // committed pragma count so new allowances stand out in review.
    let root: PathBuf =
        Path::new(env!("CARGO_MANIFEST_DIR")).ancestors().nth(2).unwrap().to_path_buf();
    let mut pragmas = 0usize;
    for (rel, abs) in ndpx_lint::walk::workspace_files(&root).unwrap() {
        if rel.starts_with("crates/lint/") {
            continue;
        }
        let src = std::fs::read_to_string(abs).unwrap();
        pragmas += src.matches("ndpx-lint: allow(").count();
    }
    assert_eq!(pragmas, 3, "two profiler spans in core plus the trace-cache span in workloads");
}
