//! The registry-path grammar: which dotted stat paths the simulator can
//! actually publish.
//!
//! Every subsystem registers its counters under hierarchical dotted paths
//! (`StatRegistry`), and tests, reporters, and trace counter-tracks refer
//! to those paths as string literals. A literal that drifts from the
//! registered name — a renamed leaf, a stale `link[e]` index form — fails
//! silently: `registry.get` returns `None` and the assertion or diff just
//! stops seeing the series. This module declares the full grammar so
//! `ndpx-lint` can reject such literals at CI time.
//!
//! A pattern is a dotted sequence of segments where `#` matches one or
//! more decimal digits in place (`unit#` ⇒ `unit003`, `s#-s#` ⇒
//! `s00-s01`). A candidate literal is valid when it is an exact match or a
//! segment-boundary prefix of some pattern; a trailing dot (as in
//! `starts_with("engine.batch.")`) marks an explicit prefix.

/// Top-level scope names the grammar knows about. Only literals whose
/// first segment is one of these roots (or `unit#`) are judged at all, so
/// arbitrary dotted strings — file names, schema tags — never match.
pub const ROOTS: &[&str] =
    &["chaos", "engine", "fault", "slo", "profile", "noc", "core", "mem", "cxl", "stream_table"];

/// DRAM device leaves, shared by `mem.*`, `cxl.ddr.*`, and `unit#.dram.*`.
const DRAM: &[&str] = &[
    "activates",
    "bytes",
    "dynamic_pj",
    "reads",
    "row_conflicts",
    "row_empty",
    "row_hit_rate",
    "row_hits",
    "writes",
];

/// Set-associative cache leaves, shared by every per-unit cache level.
const CACHE: &[&str] = &["hit_rate", "hits", "misses", "occupancy", "writebacks"];

/// Sim-phase profiler phase labels (`Phase::label`).
const PHASES: &[&str] = &["trace_gen", "warmup", "run", "sampler_solve", "rehash", "reconfig"];

/// Builds the full pattern list. The shape mirrors how the registries are
/// populated: fixed leaves are written out, families (DRAM devices, cache
/// levels, profiler phases) are composed.
pub fn patterns() -> Vec<String> {
    let mut p: Vec<String> = Vec::with_capacity(160);
    let mut push = |s: &str| p.push(s.to_string());

    // Engine: run loop, run-ahead batching, and the event queue. The
    // `ops`/`queue.depth` leaves are live timeline series rather than
    // end-of-run registry nodes; both namespaces share this grammar.
    for leaf in ["sim_ps", "stalls", "ops"] {
        push(&format!("engine.{leaf}"));
    }
    for leaf in [
        "enabled",
        "batches",
        "ops",
        "fast_hits",
        "fast_hit_ratio",
        "max_len",
        "mean_len",
        "len_c#",
    ] {
        push(&format!("engine.batch.{leaf}"));
    }
    // `overflow_scheduled` is no longer published (it counted the removed
    // time-wheel's overflow tree), but the repository benchmark still reads
    // it; drop the leaf together with that read.
    for leaf in ["depth", "scheduled", "processed", "peak_depth", "overflow_scheduled"] {
        push(&format!("engine.queue.{leaf}"));
    }

    // Host core-side counters.
    for leaf in [
        "access_latency",
        "bypass",
        "cache_hits",
        "cache_misses",
        "invalidations",
        "l#_hits",
        "llc_hits",
        "llc_misses",
        "local_hits",
        "mem_ops",
        "metadata_dram",
        "migrations",
        "reconfigs",
        "replicated_fraction",
        "slb_misses",
    ] {
        push(&format!("core.{leaf}"));
    }

    // Memory devices: host DRAM, the CXL extension's DDR, per-unit stacks.
    for leaf in DRAM {
        push(&format!("mem.{leaf}"));
        push(&format!("cxl.ddr.{leaf}"));
        push(&format!("unit#.dram.{leaf}"));
    }
    for leaf in ["bytes", "degradation", "latency", "link_pj", "requests"] {
        push(&format!("cxl.{leaf}"));
    }

    // Per-unit caches: data levels, metadata cache, stream lookaside buffer.
    for level in ["l#", "meta", "slb"] {
        for leaf in CACHE {
            push(&format!("unit#.{level}.{leaf}"));
        }
    }

    // NoC: aggregate counters plus per-link `s<src>-s<dst>` scopes.
    for leaf in ["messages", "bytes", "intra_hops", "inter_hops", "dynamic_pj"] {
        push(&format!("noc.{leaf}"));
    }
    for leaf in
        ["busy_ps", "bytes", "flits", "forwarded", "peak_inflight", "peak_wait_ps", "retransmits"]
    {
        push(&format!("noc.link.s#-s#.{leaf}"));
    }

    // Fault injection: per-injector decision counts and outcomes.
    for leaf in ["ce", "ue", "rolls", "scrub_ps"] {
        push(&format!("fault.mem.{leaf}"));
    }
    for leaf in ["crc_errors", "crc_retries", "retrain_wait_ps", "retrains", "rolls"] {
        push(&format!("fault.cxl.{leaf}"));
    }
    for leaf in ["retransmits", "rolls"] {
        push(&format!("fault.noc.{leaf}"));
    }
    push("fault.stream.aborts");

    // Chaos schedules: hard-failure escalation counters and the per-event
    // recovery SLO records (`e00`, `e01`, … in schedule order).
    for leaf in [
        "events",
        "applied",
        "restores",
        "ops_aborted",
        "streams_poisoned",
        "forced_reconfigs",
        "dead_units",
        "dead_links",
        "dead_resident_streams",
        "availability",
    ] {
        push(&format!("chaos.{leaf}"));
    }
    for leaf in ["outages", "probes", "stall_ps"] {
        push(&format!("chaos.cxl.{leaf}"));
    }
    for leaf in ["at_ps", "ttr_ps", "streams_migrated", "ops_aborted"] {
        push(&format!("fault.recovery.e#.{leaf}"));
    }

    // SLO epoch statistics (registry) and their trace counter-tracks.
    for leaf in [
        "epochs",
        "downtime_ns",
        "staleness_ns",
        "worst_staleness_ns",
        "reconfig_drain_ns",
        "epoch_p#_ns",
        "worst_p#_ns",
    ] {
        push(&format!("slo.{leaf}"));
    }
    push("slo.streams.poisoned");
    push("slo.streams.refetched");

    // Stream table occupancy.
    for leaf in ["capacity", "streams", "poisoned"] {
        push(&format!("stream_table.{leaf}"));
    }

    // Sim-phase profiler: a latency node per phase in the registry, plus
    // `wall_us`/`sim_us` counter-tracks in the Chrome trace.
    for phase in PHASES {
        push(&format!("profile.{phase}"));
        push(&format!("profile.{phase}.wall_us"));
        push(&format!("profile.{phase}.sim_us"));
    }

    p
}

/// True when `s` is shaped like a registry path claim: at least two dotted
/// segments, drawn from the path alphabet, rooted in a known scope. Only
/// such strings are validated — everything else is not this grammar's
/// business.
pub fn looks_like_stat_path(s: &str) -> bool {
    if !s.contains('.') {
        return false;
    }
    if !s.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || "_.#[]-".contains(c)) {
        return false;
    }
    let root = s.split('.').next().unwrap_or("");
    ROOTS.contains(&root) || segment_matches("unit#", root)
}

/// True when `s` exactly matches a pattern or is a segment-boundary prefix
/// of one. A trailing dot requests prefix matching explicitly.
pub fn validate(s: &str) -> bool {
    let mut segs: Vec<&str> = s.split('.').collect();
    if segs.last() == Some(&"") {
        segs.pop();
        if segs.is_empty() || segs.iter().any(|seg| seg.is_empty()) {
            return false;
        }
    } else if segs.iter().any(|seg| seg.is_empty()) {
        return false;
    }
    patterns().iter().any(|pat| {
        let pat_segs: Vec<&str> = pat.split('.').collect();
        segs.len() <= pat_segs.len()
            && segs.iter().zip(&pat_segs).all(|(c, p)| segment_matches(p, c))
    })
}

/// Matches one candidate segment against one pattern segment, where `#`
/// in the pattern consumes one or more decimal digits.
fn segment_matches(pattern: &str, candidate: &str) -> bool {
    let pat: Vec<char> = pattern.chars().collect();
    let cand: Vec<char> = candidate.chars().collect();
    fn go(pat: &[char], cand: &[char]) -> bool {
        match pat.first() {
            None => cand.is_empty(),
            Some('#') => {
                if cand.first().is_none_or(|c| !c.is_ascii_digit()) {
                    return false;
                }
                // Greedy with backtracking: consume 1..=k digits.
                let digits = cand.iter().take_while(|c| c.is_ascii_digit()).count();
                (1..=digits).any(|k| go(&pat[1..], &cand[k..]))
            }
            Some(p) => cand.first() == Some(p) && go(&pat[1..], &cand[1..]),
        }
    }
    go(&pat, &cand)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_paths_validate() {
        for p in [
            "engine.sim_ps",
            "engine.batch.len_c3",
            "engine.queue.peak_depth",
            "core.l1_hits",
            "mem.row_hit_rate",
            "cxl.ddr.activates",
            "unit003.dram.bytes",
            "unit0.l1.hit_rate",
            "unit12.slb.misses",
            "noc.link.s00-s01.flits",
            "fault.stream.aborts",
            "slo.epoch_p99_ns",
            "slo.streams.poisoned",
            "stream_table.poisoned",
            "profile.run",
            "profile.sampler_solve.wall_us",
            "chaos.applied",
            "chaos.dead_resident_streams",
            "chaos.cxl.stall_ps",
            "fault.recovery.e00.ttr_ps",
            "fault.recovery.e12.streams_migrated",
        ] {
            assert!(validate(p), "{p} must validate");
        }
    }

    #[test]
    fn prefixes_validate_at_segment_boundaries() {
        for p in [
            "fault.noc",
            "engine.batch.",
            "engine.queue.",
            "slo.",
            "profile.",
            "noc.link",
            "chaos.",
            "fault.recovery.",
        ] {
            assert!(validate(p), "{p} must validate as a prefix");
        }
    }

    #[test]
    fn stale_and_misspelled_paths_fail() {
        for p in [
            "noc.flits",                 // aggregate leaf that never existed
            "noc.stack00.link[e]",       // the PR 8 stale index form
            "slo.p99_ns",                // pre-epoch spelling
            "engine.batch.fasthits",     // missing underscore
            "core.l1hits",               // digit glued to the wrong side
            "unit.dram.bytes",           // unit without an index
            "noc.link.s0x-s01.flits",    // non-digit where digits belong
            "engine.batches",            // leaf of the wrong scope
            "stream_table.streams.live", // too deep
            "chaos.availability_pct",    // leaf that never existed
            "fault.recovery.e.ttr_ps",   // event id without digits
            "engine.queue.bucket_occ3",  // removed with the time-wheel queue
            "engine.events",             // removed copy of engine.batch.ops
            "engine.peak_queue_depth",   // removed copy of engine.queue.peak_depth
        ] {
            assert!(!validate(p), "{p} must fail validation");
        }
    }

    #[test]
    fn unrelated_strings_are_not_this_grammars_business() {
        for s in [
            "report.md",
            "ndpx-timeline-v1",
            "hbm/ndpext/pr",
            "a.x",
            "stack00.mesh.flits",
            "profile.{}.wall_us",
            "no_dots_here",
        ] {
            assert!(!looks_like_stat_path(s), "{s} must be ignored");
        }
        for s in ["noc.flits", "slo.p99_ns", "unit0.l1.hits"] {
            assert!(looks_like_stat_path(s), "{s} must be judged");
        }
    }

    #[test]
    fn segment_matcher_handles_multiple_holes() {
        assert!(segment_matches("s#-s#", "s00-s01"));
        assert!(segment_matches("s#-s#", "s1-s23"));
        assert!(!segment_matches("s#-s#", "s-s01"));
        assert!(!segment_matches("s#-s#", "s00s01"));
        assert!(segment_matches("len_c#", "len_c0"));
        assert!(!segment_matches("len_c#", "len_c"));
        assert!(!segment_matches("len_c#", "len_c#"));
    }
}
