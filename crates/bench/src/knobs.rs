//! Central registry of every `NDPX_*` environment knob.
//!
//! Every configuration knob the workspace reads from the environment is
//! declared here — name, value kind, default, and a one-line description —
//! and every read goes through a [`Knob`] accessor. The registry is the
//! single source of truth: `ndpx-lint` rejects `"NDPX_*"` string literals
//! and `std::env::var` calls anywhere else, so a knob cannot be typo'd,
//! shadowed, or half-documented. The simulator and workload crates cannot
//! depend on `ndpx-bench`, so they cannot read a knob at all: their
//! settings arrive in the configuration. [`knobs_md`] renders [`ALL`] as
//! the committed `docs/knobs.md`, and a test fails when the file drifts.
//!
//! Boolean knobs share one parse ([`parse_bool`]): an *unset* variable
//! takes the knob's default, while a set value counts as false exactly when
//! it trims to one of `""`, `0`, `false`, `off`, or `no`
//! (case-insensitive) and true otherwise. `NDPX_PROFILE=0`,
//! `NDPX_PROFILE=off` and `NDPX_PROFILE=false` therefore all disable the
//! profiler, and the same tokens disable every other boolean knob — there
//! are no per-knob spellings.

/// The value shape a knob accepts, for documentation and lint checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KnobKind {
    /// Unified boolean (see [`parse_bool`]).
    Bool,
    /// Unsigned integer.
    U64,
    /// Floating-point number.
    F64,
    /// Filesystem path; empty behaves as unset.
    Path,
    /// Free-form string.
    Str,
    /// One of a closed set of names.
    Enum(&'static [&'static str]),
}

impl KnobKind {
    /// Stable lower-case label for reports and the generated knob table.
    pub fn label(&self) -> &'static str {
        match self {
            KnobKind::Bool => "bool",
            KnobKind::U64 => "integer",
            KnobKind::F64 => "float",
            KnobKind::Path => "path",
            KnobKind::Str => "string",
            KnobKind::Enum(_) => "enum",
        }
    }
}

/// One declared environment knob.
#[derive(Debug, Clone, Copy)]
pub struct Knob {
    /// The environment variable, always `NDPX_*`.
    pub name: &'static str,
    /// Accepted value shape.
    pub kind: KnobKind,
    /// Human-readable default (what an unset variable behaves as).
    pub default: &'static str,
    /// One-line effect description for the generated `docs/knobs.md`.
    pub doc: &'static str,
}

impl Knob {
    /// The raw environment value, if the variable is set to valid UTF-8.
    pub fn raw(&self) -> Option<String> {
        std::env::var(self.name).ok()
    }

    /// Unified boolean read: unset takes `default`, otherwise
    /// [`parse_bool`] decides.
    pub fn bool_or(&self, default: bool) -> bool {
        parse_bool(self.raw().as_deref(), default)
    }

    /// The value as an output path; set-but-empty behaves as unset.
    pub fn path(&self) -> Option<String> {
        self.raw().filter(|p| !p.is_empty())
    }
}

/// The one boolean-knob grammar (see the module docs): `None` takes
/// `default`; a set value is false iff it trims to an explicit off token.
pub fn parse_bool(value: Option<&str>, default: bool) -> bool {
    match value {
        None => default,
        Some(s) => {
            !matches!(s.trim().to_ascii_lowercase().as_str(), "" | "0" | "false" | "off" | "no")
        }
    }
}

macro_rules! knob {
    ($const_name:ident, $env:literal, $kind:expr, $default:literal, $doc:literal) => {
        #[doc = concat!("`", $env, "` — ", $doc)]
        pub const $const_name: Knob =
            Knob { name: $env, kind: $kind, default: $default, doc: $doc };
    };
}

// Orchestration --------------------------------------------------------------
knob!(
    THREADS,
    "NDPX_THREADS",
    KnobKind::U64,
    "host CPUs",
    "Worker threads for pooled figure/bench matrices; explicit values past the host width are \
     honored but flagged `oversubscribed`. Results are thread-count-invariant."
);
knob!(
    SCALE,
    "NDPX_SCALE",
    KnobKind::Enum(&["test", "small", "paper"]),
    "small",
    "Benchmark scale: `test` (CI geometry), `small`, or `paper` (full Table II geometry)."
);

// Telemetry ------------------------------------------------------------------
knob!(
    LOG,
    "NDPX_LOG",
    KnobKind::Enum(&["off", "error", "warn", "info", "debug", "trace"]),
    "warn",
    "Maximum stderr log level of the `ndpx_*!` facade (numeric forms `0`–`5` also accepted)."
);
knob!(
    TRACE,
    "NDPX_TRACE",
    KnobKind::Path,
    "unset",
    "Chrome/Perfetto trace-event output path; unset (or empty) disables tracing."
);
knob!(
    TRACE_START,
    "NDPX_TRACE_START",
    KnobKind::F64,
    "0",
    "Simulated-time start of the trace window, in microseconds."
);
knob!(
    TRACE_STOP,
    "NDPX_TRACE_STOP",
    KnobKind::F64,
    "unbounded",
    "Simulated-time end of the trace window, in microseconds."
);
knob!(
    TRACE_CAP,
    "NDPX_TRACE_CAP",
    KnobKind::U64,
    "65536",
    "Trace ring capacity in events; older events are evicted once the ring is full."
);
knob!(
    TIMELINE,
    "NDPX_TIMELINE",
    KnobKind::Path,
    "unset",
    "Windowed timeline (`ndpx-timeline-v1`) output path; unset (or empty) disables sampling."
);
knob!(
    TIMELINE_WINDOW_NS,
    "NDPX_TIMELINE_WINDOW_NS",
    KnobKind::U64,
    "10000",
    "Timeline window width in simulated nanoseconds."
);
knob!(
    TIMELINE_CAP,
    "NDPX_TIMELINE_CAP",
    KnobKind::U64,
    "4096",
    "Timeline ring capacity in windows; on overflow the ring folds by dropping odd windows."
);
knob!(
    PROFILE,
    "NDPX_PROFILE",
    KnobKind::Bool,
    "0",
    "Sim-phase profiler: attributes trace-gen/warmup/run/solver/rehash/reconfig spans under \
     `profile.*` (sim time only in dumps)."
);
knob!(
    METRICS,
    "NDPX_METRICS",
    KnobKind::Path,
    "unset",
    "Directory for each monitored run's `<run>.cells.json` document; unset disables it."
);

// Caches ---------------------------------------------------------------------
knob!(
    TRACE_CACHE_BYTES,
    "NDPX_TRACE_CACHE_BYTES",
    KnobKind::U64,
    "8589934592",
    "Trace-cache byte budget (default 8 GiB); keys past the budget fall back to live generation."
);

// Fault injection ------------------------------------------------------------
knob!(
    FAULT_SEED,
    "NDPX_FAULT_SEED",
    KnobKind::U64,
    "unset (faults disabled)",
    "Master seed for deterministic fault injection; unset disables every injector."
);
knob!(
    FAULT_CXL_BER,
    "NDPX_FAULT_CXL_BER",
    KnobKind::F64,
    "1e-7",
    "CXL link bit-error rate driving CRC errors, replay retries, and retraining stalls."
);
knob!(
    FAULT_MEM_CE,
    "NDPX_FAULT_MEM_CE",
    KnobKind::F64,
    "1e-4",
    "DRAM correctable-error rate per access (SEC-DED scrub latency)."
);
knob!(
    FAULT_MEM_UE,
    "NDPX_FAULT_MEM_UE",
    KnobKind::F64,
    "2e-6",
    "DRAM uncorrectable-error rate per access (stream poison, abort, and re-fetch)."
);
knob!(
    FAULT_NOC_FER,
    "NDPX_FAULT_NOC_FER",
    KnobKind::F64,
    "1e-5",
    "NoC flit-error rate driving per-link retransmits."
);

// Chaos schedules ------------------------------------------------------------
knob!(
    CHAOS,
    "NDPX_CHAOS",
    KnobKind::Str,
    "unset (chaos disabled)",
    "Hard-failure schedule: semicolon-separated `kind@time[+duration][:target]` events \
     (`cxl-down@10us+5us`, `stack-down@20us:1`, `noc-down@15us:0-1`); unset disables every \
     hard-failure injector."
);
knob!(
    CHAOS_RETRY_NS,
    "NDPX_CHAOS_RETRY_NS",
    KnobKind::U64,
    "500",
    "Base backoff (ns, doubling per probe) of the bounded retry loop that extended-memory \
     accesses spin on during a scheduled CXL outage."
);

// Bench binaries -------------------------------------------------------------
knob!(
    GAUGE_MICRO,
    "NDPX_GAUGE_MICRO",
    KnobKind::Bool,
    "0",
    "Adds the component micro-benchmark pass (queue ops, sampler, rehash, edge gen) to \
     `perf_gauge` reports."
);
knob!(
    PERF_OUT,
    "NDPX_PERF_OUT",
    KnobKind::Path,
    "BENCH_PERF.json",
    "Output path for the `perf_gauge` report."
);
knob!(
    POLICY,
    "NDPX_POLICY",
    KnobKind::Str,
    "all policies",
    "Restricts the `sanity` binary to one placement policy label."
);

/// Every declared knob, in documentation order. [`knobs_md`] renders this
/// table; the lint's workspace scan guarantees no knob exists outside it.
pub const ALL: &[&Knob] = &[
    &THREADS,
    &SCALE,
    &LOG,
    &TRACE,
    &TRACE_START,
    &TRACE_STOP,
    &TRACE_CAP,
    &TIMELINE,
    &TIMELINE_WINDOW_NS,
    &TIMELINE_CAP,
    &PROFILE,
    &METRICS,
    &TRACE_CACHE_BYTES,
    &FAULT_SEED,
    &FAULT_CXL_BER,
    &FAULT_MEM_CE,
    &FAULT_MEM_UE,
    &FAULT_NOC_FER,
    &CHAOS,
    &CHAOS_RETRY_NS,
    &GAUGE_MICRO,
    &PERF_OUT,
    &POLICY,
];

/// Renders the registry as the markdown table committed at
/// `docs/knobs.md`. Deterministic: documentation order, no timestamps.
pub fn knobs_md() -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("# Environment knobs\n\n");
    out.push_str(
        "Generated by `cargo run -p ndpx-bench --bin knobs_md`; do not edit by hand.\n\
         A tier-1 test renders this table and fails on drift.\n\n",
    );
    out.push_str(
        "Every `NDPX_*` variable the workspace reads is declared in\n\
         `ndpx_bench::knobs`; `ndpx-lint` rejects environment reads and knob-name\n\
         literals anywhere else. Boolean knobs share one grammar: a set value\n\
         is false exactly when it trims to `\"\"`, `0`, `false`, `off`, or `no`\n\
         (case-insensitive), true otherwise; unset takes the default below.\n\n\
         The simulator and workload crates read no knob. `ndpx-bench` parses\n\
         the scale, thread, trace-cache, log, fault, chaos and telemetry knobs\n\
         once, at start-up (`runner::BenchEnv`), and a bad value exits 2\n\
         naming its knob.\n\n",
    );
    out.push_str("| Knob | Type | Default | Effect |\n");
    out.push_str("|------|------|---------|--------|\n");
    for k in ALL {
        let kind = match k.kind {
            KnobKind::Enum(values) => format!("enum: {}", values.join(" \\| ")),
            ref other => other.label().to_string(),
        };
        out.push_str(&format!(
            "| `{}` | {} | {} | {} |\n",
            k.name,
            kind,
            escape_md(k.default),
            escape_md(k.doc)
        ));
    }
    out
}

fn escape_md(s: &str) -> String {
    s.replace('|', "\\|").replace('\n', " ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_prefixed() {
        let mut names: Vec<&str> = ALL.iter().map(|k| k.name).collect();
        names.sort_unstable();
        for w in names.windows(2) {
            assert_ne!(w[0], w[1], "duplicate knob {}", w[0]);
        }
        for k in ALL {
            assert!(k.name.starts_with("NDPX_"), "{} must carry the NDPX_ prefix", k.name);
            assert!(!k.doc.is_empty(), "{} needs a doc line", k.name);
            assert!(!k.default.is_empty(), "{} needs a documented default", k.name);
        }
    }

    #[test]
    fn the_registry_holds_all_knobs() {
        // The count is asserted so adding a knob without registering it in
        // `ALL` (or removing one without pruning) cannot go unnoticed.
        assert_eq!(ALL.len(), 23);
    }

    #[test]
    fn bool_grammar_is_uniform() {
        // Unset takes the knob default.
        assert!(parse_bool(None, true));
        assert!(!parse_bool(None, false));
        // Every off token, in any case, with surrounding space.
        for off in ["", "0", "false", "FALSE", "off", "Off", "no", " 0 ", "\tfalse\n"] {
            assert!(!parse_bool(Some(off), true), "{off:?} must read as false");
        }
        // Anything else — including the historical `1` — is true.
        for on in ["1", "true", "on", "yes", "2", "enabled"] {
            assert!(parse_bool(Some(on), false), "{on:?} must read as true");
        }
    }

    #[test]
    fn accessors_parse_and_filter() {
        // Pure-value checks through the parse helpers: the environment is
        // process-global and racy under the parallel test harness, so
        // these tests never set variables.
        assert_eq!("42".trim().parse::<u64>().ok(), Some(42));
        let unset: Option<String> = None;
        assert_eq!(unset.filter(|p: &String| !p.is_empty()), None);
        assert_eq!(Some(String::new()).filter(|p| !p.is_empty()), None);
    }

    #[test]
    fn knobs_md_lists_every_knob_once() {
        let md = knobs_md();
        for k in ALL {
            assert_eq!(
                md.matches(&format!("| `{}` |", k.name)).count(),
                1,
                "{} must appear exactly once",
                k.name
            );
        }
        assert_eq!(md.matches("| `NDPX_").count(), ALL.len());
    }

    #[test]
    fn docs_knobs_md_matches_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/knobs.md");
        let committed = std::fs::read_to_string(path).expect("docs/knobs.md is readable");
        assert!(
            committed == knobs_md(),
            "docs/knobs.md drifted from the registry; regenerate it with \
             `cargo run -p ndpx-bench --bin knobs_md > docs/knobs.md`"
        );
    }
}
