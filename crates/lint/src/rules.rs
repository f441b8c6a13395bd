//! The lint rules, their file scopes, and the suppression-pragma protocol.
//!
//! Rules fall into three families:
//!
//! * **Determinism** (`det-collections`, `det-wallclock`, `det-threadid`) —
//!   apply to the digest-affecting crates only. Those crates' results feed
//!   the byte-identical `BENCH_PERF.json` digest contract, so iteration
//!   order, wall-clock reads, and thread identity must never influence
//!   them.
//! * **Knob hygiene** (`env-read`, `knob-literal`) — apply workspace-wide.
//!   Every environment read and every `NDPX_*` name must live in
//!   `ndpx_sim::knobs`, the single source of truth. `sim-knob` keeps the
//!   simulator crates from naming a knob at all: their settings arrive in
//!   the configuration, which `ndpx-bench` fills from the knobs once.
//! * **Telemetry** (`stat-path`) — applies workspace-wide. Dotted registry
//!   paths in string literals must parse under the declared grammar
//!   ([`crate::statpath`]), so a renamed counter cannot leave stale
//!   literals behind.
//!
//! A violation can be suppressed with a pragma on the same line or the
//! line directly above:
//!
//! ```text
//! // ndpx-lint: allow(det-wallclock): profiler wall span; never digested
//! let t0 = Instant::now();
//! ```
//!
//! The justification after the second colon is mandatory (`pragma-justify`)
//! and the pragma must actually suppress something (`pragma-unused`), so
//! allowances cannot rot silently.

use crate::lexer::{lex, Tok, Token};
use crate::statpath;

/// Every rule the linter knows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// `HashMap`/`HashSet` in a digest-affecting crate.
    DetCollections,
    /// `Instant::now` or `SystemTime` in a digest-affecting crate.
    DetWallclock,
    /// `thread::current` (thread identity) in a digest-affecting crate.
    DetThreadId,
    /// `env::var`-family read outside the knob registry.
    EnvRead,
    /// `"NDPX_*"` string literal outside the knob registry.
    KnobLiteral,
    /// `knobs::` path in a simulator crate.
    SimKnob,
    /// Registry-path literal that fails the stat-path grammar.
    StatPath,
    /// Pragma without a justification.
    PragmaJustify,
    /// Pragma that suppressed nothing.
    PragmaUnused,
}

impl Rule {
    /// The stable kebab-case name used in pragmas and reports.
    pub fn name(self) -> &'static str {
        match self {
            Rule::DetCollections => "det-collections",
            Rule::DetWallclock => "det-wallclock",
            Rule::DetThreadId => "det-threadid",
            Rule::EnvRead => "env-read",
            Rule::KnobLiteral => "knob-literal",
            Rule::SimKnob => "sim-knob",
            Rule::StatPath => "stat-path",
            Rule::PragmaJustify => "pragma-justify",
            Rule::PragmaUnused => "pragma-unused",
        }
    }

    /// Parses a pragma rule name. Only suppressible rules are accepted —
    /// the pragma rules themselves cannot be allowed away.
    pub fn from_name(name: &str) -> Option<Rule> {
        Some(match name {
            "det-collections" => Rule::DetCollections,
            "det-wallclock" => Rule::DetWallclock,
            "det-threadid" => Rule::DetThreadId,
            "env-read" => Rule::EnvRead,
            "knob-literal" => Rule::KnobLiteral,
            "sim-knob" => Rule::SimKnob,
            "stat-path" => Rule::StatPath,
            _ => return None,
        })
    }
}

/// One reported violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Workspace-relative file path (forward slashes).
    pub path: String,
    /// 1-based source line.
    pub line: u32,
    /// The violated rule.
    pub rule: Rule,
    /// Human-readable explanation.
    pub message: String,
}

/// Crates whose simulated results feed the digest contract. The
/// determinism rules apply only under these prefixes (plus the top-level
/// cross-crate integration tests).
const DIGEST_SCOPE: &[&str] = &[
    "crates/sim/",
    "crates/core/",
    "crates/mem/",
    "crates/noc/",
    "crates/cxl/",
    "crates/stream/",
    "crates/cache/",
    "crates/workloads/",
    "tests/",
];

/// The simulator crates, which read no knob: a run's settings arrive in its
/// configuration (`sim-knob`).
const SIM_SCOPE: &[&str] = &[
    "crates/core/",
    "crates/sim/",
    "crates/mem/",
    "crates/noc/",
    "crates/cxl/",
    "crates/stream/",
    "crates/cache/",
];

/// Module-level allowances, each carrying its reason. Pragmas handle
/// single sites; these handle files whose whole purpose exempts them.
const ALLOWLIST: &[(&str, Rule, &str)] = &[
    (
        "crates/sim/src/telemetry/profile.rs",
        Rule::DetWallclock,
        "the profiler measures wall time by design; dumps carry sim time only",
    ),
    ("crates/sim/src/knobs.rs", Rule::EnvRead, "the registry is the one sanctioned env reader"),
    ("crates/sim/src/knobs.rs", Rule::KnobLiteral, "the registry declares the knob names"),
    ("crates/sim/src/knobs.rs", Rule::SimKnob, "the registry declares the knobs"),
    (
        "crates/sim/src/telemetry/log.rs",
        Rule::SimKnob,
        "the log facade reads NDPX_LOG lazily, from any thread that logs",
    ),
    ("crates/lint/", Rule::KnobLiteral, "the linter names the prefix it scans for"),
    ("crates/lint/", Rule::StatPath, "the linter declares the grammar patterns"),
];

fn in_digest_scope(path: &str) -> bool {
    DIGEST_SCOPE.iter().any(|p| path.starts_with(p))
}

fn allowlisted(path: &str, rule: Rule) -> bool {
    ALLOWLIST.iter().any(|(prefix, r, _)| *r == rule && path.starts_with(prefix))
}

/// A parsed `// ndpx-lint: allow(rule): justification` pragma.
struct Pragma {
    line: u32,
    rule: Option<Rule>,
    raw_rule: String,
    justified: bool,
    used: bool,
}

fn parse_pragma(line: u32, text: &str) -> Option<Pragma> {
    let text = text.trim_start();
    let rest = text.strip_prefix("ndpx-lint:")?.trim_start();
    let rest = rest.strip_prefix("allow(")?;
    let (name, after) = rest.split_once(')')?;
    let name = name.trim();
    let justification = after.trim_start().strip_prefix(':').map(str::trim).unwrap_or("");
    Some(Pragma {
        line,
        rule: Rule::from_name(name),
        raw_rule: name.to_string(),
        justified: !justification.is_empty(),
        used: false,
    })
}

/// Lints one file's source. `rel_path` is the workspace-relative path with
/// forward slashes; it selects which rule scopes apply.
pub fn lint_source(rel_path: &str, src: &str) -> Vec<Violation> {
    let tokens = lex(src);
    let mut pragmas: Vec<Pragma> = Vec::new();
    let mut code: Vec<Token> = Vec::new();
    for t in tokens {
        match t.tok {
            Tok::LineComment(text) => {
                if let Some(p) = parse_pragma(t.line, &text) {
                    pragmas.push(p);
                }
            }
            _ => code.push(t),
        }
    }

    let mut found: Vec<Violation> = Vec::new();
    let det = in_digest_scope(rel_path);
    let sim =
        SIM_SCOPE.iter().any(|p| rel_path.starts_with(p)) && !allowlisted(rel_path, Rule::SimKnob);

    for (i, t) in code.iter().enumerate() {
        match &t.tok {
            Tok::Ident(id) => {
                if det && (id == "HashMap" || id == "HashSet") {
                    found.push(Violation {
                        path: rel_path.to_string(),
                        line: t.line,
                        rule: Rule::DetCollections,
                        message: format!(
                            "{id} iteration order is nondeterministic; use BTreeMap/BTreeSet or \
                             sorted iteration"
                        ),
                    });
                } else if det && id == "SystemTime" && !allowlisted(rel_path, Rule::DetWallclock) {
                    found.push(Violation {
                        path: rel_path.to_string(),
                        line: t.line,
                        rule: Rule::DetWallclock,
                        message: "SystemTime reads wall clock; simulated results must depend on \
                                  sim time only"
                            .to_string(),
                    });
                } else if det
                    && id == "Instant"
                    && path_call(&code, i, "now")
                    && !allowlisted(rel_path, Rule::DetWallclock)
                {
                    found.push(Violation {
                        path: rel_path.to_string(),
                        line: t.line,
                        rule: Rule::DetWallclock,
                        message: "Instant::now reads wall clock; simulated results must depend \
                                  on sim time only"
                            .to_string(),
                    });
                } else if det && id == "thread" && path_call(&code, i, "current") {
                    found.push(Violation {
                        path: rel_path.to_string(),
                        line: t.line,
                        rule: Rule::DetThreadId,
                        message: "thread::current exposes thread identity; results must be \
                                  identical at any NDPX_THREADS"
                            .to_string(),
                    });
                } else if sim && id == "knobs" && path_sep(&code, i) {
                    found.push(Violation {
                        path: rel_path.to_string(),
                        line: t.line,
                        rule: Rule::SimKnob,
                        message: "the simulator reads no knob; take the setting from the run's \
                                  configuration, which ndpx-bench fills (runner::Overrides)"
                            .to_string(),
                    });
                } else if id == "env"
                    && ["var", "var_os", "vars", "vars_os"].iter().any(|f| path_call(&code, i, f))
                    && !allowlisted(rel_path, Rule::EnvRead)
                {
                    found.push(Violation {
                        path: rel_path.to_string(),
                        line: t.line,
                        rule: Rule::EnvRead,
                        message: "environment reads must go through ndpx_sim::knobs, the central \
                                  knob registry"
                            .to_string(),
                    });
                }
            }
            Tok::Str(s) => {
                if s.contains("NDPX_") && !allowlisted(rel_path, Rule::KnobLiteral) {
                    found.push(Violation {
                        path: rel_path.to_string(),
                        line: t.line,
                        rule: Rule::KnobLiteral,
                        message: format!(
                            "knob name literal {s:?}; reference ndpx_sim::knobs::<KNOB>.name \
                             instead"
                        ),
                    });
                } else if statpath::looks_like_stat_path(s)
                    && !statpath::validate(s)
                    && !allowlisted(rel_path, Rule::StatPath)
                {
                    found.push(Violation {
                        path: rel_path.to_string(),
                        line: t.line,
                        rule: Rule::StatPath,
                        message: format!(
                            "{s:?} is not a registered stat path; see the grammar in \
                             ndpx-lint's statpath module"
                        ),
                    });
                }
            }
            _ => {}
        }
    }

    // Apply pragmas: a pragma covers its own line and the next line.
    let mut out: Vec<Violation> = Vec::new();
    for v in found {
        let suppressed = pragmas.iter_mut().find(|p| {
            p.rule == Some(v.rule) && (p.line == v.line || p.line + 1 == v.line) && p.justified
        });
        match suppressed {
            Some(p) => p.used = true,
            None => out.push(v),
        }
    }

    // Pragma hygiene: unknown rules and missing justifications are errors
    // even when nothing fired; an allowance that suppresses nothing is rot.
    for p in &pragmas {
        if p.rule.is_none() {
            out.push(Violation {
                path: rel_path.to_string(),
                line: p.line,
                rule: Rule::PragmaUnused,
                message: format!("pragma names unknown rule {:?}", p.raw_rule),
            });
        } else if !p.justified {
            out.push(Violation {
                path: rel_path.to_string(),
                line: p.line,
                rule: Rule::PragmaJustify,
                message: "pragma needs a justification: // ndpx-lint: allow(rule): <why>"
                    .to_string(),
            });
        } else if !p.used {
            out.push(Violation {
                path: rel_path.to_string(),
                line: p.line,
                rule: Rule::PragmaUnused,
                message: format!("pragma allow({}) suppressed nothing; remove it", p.raw_rule),
            });
        }
    }

    out.sort_by(|a, b| (a.line, a.rule.name()).cmp(&(b.line, b.rule.name())));
    out
}

/// True when the identifier at `i` is followed by `::`.
fn path_sep(code: &[Token], i: usize) -> bool {
    matches!(
        (code.get(i + 1).map(|t| &t.tok), code.get(i + 2).map(|t| &t.tok)),
        (Some(Tok::Punct(':')), Some(Tok::Punct(':')))
    )
}

/// True when the identifier at `i` is followed by `:: <method>` —
/// i.e. tokens `Punct(':') Punct(':') Ident(method)`.
fn path_call(code: &[Token], i: usize, method: &str) -> bool {
    matches!(
        (code.get(i + 1).map(|t| &t.tok), code.get(i + 2).map(|t| &t.tok), code.get(i + 3).map(|t| &t.tok)),
        (Some(Tok::Punct(':')), Some(Tok::Punct(':')), Some(Tok::Ident(m))) if m == method
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const SIM: &str = "crates/sim/src/engine.rs";
    const BENCH: &str = "crates/bench/src/pool.rs";

    fn rules_of(path: &str, src: &str) -> Vec<Rule> {
        lint_source(path, src).into_iter().map(|v| v.rule).collect()
    }

    #[test]
    fn det_rules_fire_only_in_digest_scope() {
        let src = "use std::collections::HashMap;\nlet t = Instant::now();\nlet id = \
                   std::thread::current().id();";
        assert_eq!(
            rules_of(SIM, src),
            [Rule::DetCollections, Rule::DetWallclock, Rule::DetThreadId]
        );
        assert!(rules_of(BENCH, src).is_empty(), "bench measures wall clock by design");
    }

    #[test]
    fn env_reads_are_banned_everywhere_but_the_registry() {
        let src = "let v = std::env::var(\"HOME\");";
        assert_eq!(rules_of(SIM, src), [Rule::EnvRead]);
        assert_eq!(rules_of(BENCH, src), [Rule::EnvRead]);
        assert!(rules_of("crates/sim/src/knobs.rs", src).is_empty());
        // env! and env::args are not reads of a knob.
        assert!(
            rules_of(SIM, "let p = env!(\"CARGO_MANIFEST_DIR\"); let a = env::args();").is_empty()
        );
    }

    #[test]
    fn knob_literals_are_banned_outside_the_registry() {
        let src = "let v = \"NDPX_THREADS\";";
        assert_eq!(rules_of(BENCH, src), [Rule::KnobLiteral]);
        assert!(rules_of("crates/sim/src/knobs.rs", src).is_empty());
    }

    #[test]
    fn knob_paths_are_banned_in_the_simulator_crates() {
        let src = "let on = ndpx_sim::knobs::PROFILE.bool_or(false);";
        assert_eq!(rules_of(SIM, src), [Rule::SimKnob]);
        assert_eq!(rules_of("crates/core/src/system/mod.rs", src), [Rule::SimKnob]);
        assert!(rules_of(BENCH, src).is_empty(), "the harness is the one reader");
        assert!(rules_of("crates/workloads/src/graph.rs", src).is_empty());
        assert!(rules_of("crates/sim/src/telemetry/log.rs", src).is_empty());
        // A module named in a `use` list, or a local called `knobs`, is no read.
        assert!(rules_of(SIM, "use crate::{fault, knobs};\nlet knobs = 3;").is_empty());
    }

    #[test]
    fn stat_paths_are_checked_in_literals() {
        assert_eq!(rules_of(SIM, "reg.get(\"noc.flits\");"), [Rule::StatPath]);
        assert!(rules_of(SIM, "reg.get(\"noc.bytes\");").is_empty());
        assert!(rules_of(SIM, "path.ends_with(\"report.md\");").is_empty());
    }

    #[test]
    fn pragma_suppresses_line_below_and_same_line() {
        let above = "// ndpx-lint: allow(det-wallclock): timing a cache fill, never digested\n\
                     let t0 = Instant::now();";
        assert!(rules_of(SIM, above).is_empty());
        let same = "let t0 = Instant::now(); // ndpx-lint: allow(det-wallclock): cache fill";
        assert!(rules_of(SIM, same).is_empty());
    }

    #[test]
    fn pragma_without_justification_is_an_error_and_does_not_suppress() {
        let src = "// ndpx-lint: allow(det-wallclock)\nlet t0 = Instant::now();";
        let rules = rules_of(SIM, src);
        assert!(rules.contains(&Rule::DetWallclock), "unjustified pragma must not suppress");
        assert!(rules.contains(&Rule::PragmaJustify));
    }

    #[test]
    fn unused_and_unknown_pragmas_are_errors() {
        assert_eq!(
            rules_of(SIM, "// ndpx-lint: allow(det-wallclock): nothing here needs it\nlet x = 1;"),
            [Rule::PragmaUnused]
        );
        assert_eq!(
            rules_of(SIM, "// ndpx-lint: allow(not-a-rule): whatever\nlet x = 1;"),
            [Rule::PragmaUnused]
        );
    }

    #[test]
    fn comments_and_strings_do_not_false_positive() {
        let src = "// HashMap is banned here\n/* Instant::now too */\nlet s = \"HashMap \
                   Instant::now thread::current\";";
        assert!(rules_of(SIM, src).is_empty());
    }

    #[test]
    fn a_pragma_cannot_allow_the_pragma_rules() {
        assert!(Rule::from_name("pragma-justify").is_none());
        assert!(Rule::from_name("pragma-unused").is_none());
    }
}
