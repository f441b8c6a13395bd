//! # ndpx-lint
//!
//! A dependency-free determinism and telemetry static analyzer for the
//! NDPExt workspace. Three rule families guard the properties the test
//! suite cannot economically check on every edit:
//!
//! * **Determinism** — no `HashMap`/`HashSet`, `Instant::now`/`SystemTime`,
//!   or `thread::current` in the digest-affecting crates, whose simulated
//!   results must stay byte-identical across thread counts and backends;
//! * **Knob hygiene** — every environment read and every `NDPX_*` name
//!   lives in `ndpx_bench::knobs`, the central registry (the simulator
//!   crates cannot depend on `ndpx-bench`, so they read no knob at all);
//! * **Stat paths** — dotted registry-path literals must parse under the
//!   declared grammar, so renamed counters cannot leave stale references.
//!
//! The analyzer is a hand-rolled token scanner ([`lexer`]) — no syn, no
//! regex crate — in the same spirit as the workspace's hand-rolled JSON.
//! Violations are suppressible per-site with justified pragmas
//! ([`rules`]); `--format json` emits machine-readable output.

pub mod lexer;
pub mod rules;
pub mod statpath;
pub mod walk;

pub use rules::{lint_source, Rule, Violation};

use std::io;
use std::path::Path;

/// Lints every workspace `.rs` file under `root`. Violations come back
/// sorted by (path, line, rule).
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Violation>> {
    let mut out = Vec::new();
    for (rel, abs) in walk::workspace_files(root)? {
        let src = std::fs::read_to_string(&abs)?;
        out.extend(lint_source(&rel, &src));
    }
    Ok(out)
}

/// Renders violations as a deterministic JSON array (hand-rolled, matching
/// the workspace's no-dependency JSON idiom).
pub fn to_json(violations: &[Violation]) -> String {
    let mut out = String::from("[");
    for (i, v) in violations.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n  {\"path\": ");
        json_string(&mut out, &v.path);
        out.push_str(&format!(", \"line\": {}, \"rule\": ", v.line));
        json_string(&mut out, v.rule.name());
        out.push_str(", \"message\": ");
        json_string(&mut out, &v.message);
        out.push('}');
    }
    if !violations.is_empty() {
        out.push('\n');
    }
    out.push_str("]\n");
    out
}

fn json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_output_is_wellformed_enough() {
        let v = vec![Violation {
            path: "crates/x.rs".into(),
            line: 3,
            rule: Rule::KnobLiteral,
            message: "a \"quoted\" knob".into(),
        }];
        let j = to_json(&v);
        assert!(j.contains("\"rule\": \"knob-literal\""));
        assert!(j.contains("\\\"quoted\\\""));
        assert_eq!(to_json(&[]), "[]\n");
    }
}
