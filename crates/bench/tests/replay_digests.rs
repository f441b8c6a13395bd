//! Live generation and trace replay give every cell the same digest.
//!
//! The core front end reads every op through per-core lanes of packed
//! words (`ndpx_workloads::OpLanes`): a replay's lanes are the materialized
//! trace's own words, a live generator's lanes are chunks it packs ahead.
//! Both must hand each core the op sequence the generator produces, so a
//! matrix with a stream-heavy NDP cell, an NDP cell that serves raw ops and
//! a host cell runs live (`TraceCache::disabled`) and replayed with equal
//! digests. A replay read past its materialized horizon wraps to the start
//! of each core's trace; that run must equal a live run of a generator that
//! repeats its first ops the same way.

use std::sync::Arc;

use ndpx_bench::digest::report_digest;
use ndpx_bench::runner::{run_host_cached, run_ndp_cached, BenchScale, RunSpec};
use ndpx_bench::TraceCache;
use ndpx_core::config::{MemKind, PolicyKind};
use ndpx_core::stats::RunReport;
use ndpx_core::system::NdpSystem;
use ndpx_sim::telemetry::StatValue;
use ndpx_workloads::{CachedTrace, Op, OpSource, TraceKey, Workload};

/// Past the workloads' 2048-op raw-op period, and four live chunks.
const OPS: u64 = 2_100;

fn count(r: &RunReport, path: &str) -> u64 {
    r.registry.get(path).and_then(StatValue::as_count).unwrap_or(0)
}

fn spec(policy: PolicyKind, workload: &'static str) -> RunSpec {
    RunSpec { ops_per_core: OPS, ..RunSpec::new(MemKind::Hbm, policy, workload, BenchScale::Test) }
}

/// The matrix's digests with traces served by `cache`.
fn digests(cache: &TraceCache) -> Vec<(&'static str, u64)> {
    let tc = run_ndp_cached(&spec(PolicyKind::NdpExtStatic, "tc"), cache);
    let bfs = run_ndp_cached(&spec(PolicyKind::StaticInterleave, "bfs"), cache);
    let host = run_host_cached("hotspot", BenchScale::Test, OPS, None, cache);
    assert!(count(&bfs, "core.bypass") > 0, "the bfs cell must serve raw ops");
    for r in [&tc, &bfs, &host] {
        assert!(r.mem_ops > 0 && r.ops >= OPS, "every cell runs memory ops");
    }
    vec![
        ("tc/NDPExt-static", report_digest(&tc)),
        ("bfs/Static", report_digest(&bfs)),
        ("hotspot/host", report_digest(&host)),
    ]
}

#[test]
fn live_and_replayed_cells_have_the_same_digests() {
    let live = TraceCache::disabled();
    let replayed = TraceCache::new();
    assert_eq!(digests(&live), digests(&replayed));
    assert_eq!(live.stats().bypasses, 3, "every live cell generated its ops");
    assert_eq!(replayed.stats().misses, 3, "every replayed cell read a materialized trace");
}

/// A generator that repeats `ops[core]` forever: what a replay past its
/// horizon reads. It exposes no materialized lanes, so the front end packs
/// it live, chunk by chunk.
struct Repeat {
    ops: Vec<Vec<Op>>,
    at: Vec<usize>,
}

impl OpSource for Repeat {
    fn next_op(&mut self, core: usize) -> Op {
        let seq = &self.ops[core];
        let op = seq[self.at[core] % seq.len()];
        self.at[core] += 1;
        op
    }
}

#[test]
fn a_replay_past_its_horizon_wraps_like_a_repeating_generator() {
    let horizon = 700;
    let s = spec(PolicyKind::NdpExt, "pr");
    let cfg = s.config();
    let params = s.scale.workload(&cfg);
    let trace = Arc::new(CachedTrace::materialize(&TraceKey::new("pr", &params, horizon)));
    let replayed = NdpSystem::new(cfg.clone(), trace.workload()).expect("valid").run(OPS);

    let mut generator = ndpx_workloads::build("pr", &params).expect("known").expect("builds");
    let ops = (0..generator.cores)
        .map(|core| (0..horizon).map(|_| generator.source.next_op(core)).collect())
        .collect();
    let at = vec![0; generator.cores];
    let repeat = Workload { source: Box::new(Repeat { ops, at }), ..generator };
    let live = NdpSystem::new(cfg, repeat).expect("valid").run(OPS);

    assert!(OPS > 2 * horizon, "the run wraps every core's trace twice");
    assert_eq!(report_digest(&replayed), report_digest(&live));
}
