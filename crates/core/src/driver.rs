//! The run loop shared by [`NdpSystem`](crate::system::NdpSystem) and
//! [`HostSystem`](crate::host::HostSystem).
//!
//! Cores are scheduled through one [`EventQueue`] with the core index as
//! the equal-time rank (lower core first). When a core is popped at time
//! `t` the loop first applies the system's boundary actions due at `t`
//! (epochs and chaos events on the NDP system), snapshots a due timeline
//! window, and then *runs ahead* of the queue over two horizons:
//!
//! - the **shared window** `W`: the queue's minimum pending time and the
//!   system's boundaries (next epoch, chaos event, timeline boundary). No
//!   other core and no boundary action can come before an op issued below
//!   `W`, so such ops run through the full access path in exactly the
//!   per-op order;
//! - the **private horizon** `P ≥ W`: the same bound without the queue,
//!   further clamped by the system (the NDP system clamps it while a trace
//!   window is open). An op issued in `[W, P)` runs at once only if it
//!   touches nothing but the core's own state — compute, or an L1 hit (L1s
//!   belong to their core, op sources keep per-core cursors, and
//!   everything a hit updates is an order-free integer sum). Any other op
//!   is parked in the core's pending slot and the core re-enters the queue
//!   at the op's issue time, where the per-op loop would have it; the
//!   parked op runs first, through the full path, when that event pops.
//!
//! A batch also ends by exhausting the core's ops or at [`BATCH_CAP`] (a
//! liveness bound for the watchdog). Results are bit-identical to the
//! per-op loop, which batching off selects; the queue round trip,
//! boundary checks and watchdog observation are simply amortized over the
//! batch.

use ndpx_sim::engine::{BatchStats, EventQueue, ProgressWatchdog, QueueStats, BATCH_CAP};
use ndpx_sim::telemetry::{StatRegistry, TimelineConfig, TimelineSampler};
use ndpx_sim::time::Time;
use ndpx_sim::{ndpx_info, ndpx_warn};
use ndpx_workloads::trace::Op;

/// Run-loop state every system owns and the driver updates.
pub(crate) struct Engine {
    /// Run-ahead batching enabled (on unless a differential test turns it
    /// off through `set_batching`). Purely a performance switch: results
    /// are bit-identical either way.
    pub(crate) batch: bool,
    /// Run-loop batch telemetry (`engine.batch.*`).
    pub(crate) batch_stats: BatchStats,
    /// Progress-watchdog stall diagnostics observed during the run.
    pub(crate) stalls: u64,
    /// Opt-in windowed timeline sampler; `None` costs one branch per
    /// scheduler pop.
    pub(crate) timeline: Option<Box<TimelineSampler>>,
}

/// Which view of the `engine.*` scope [`Engine::register`] publishes.
pub(crate) enum EngineScope<'a> {
    /// One timeline window: the live queue depth and the batch counters.
    Window { queue_depth: usize },
    /// The end-of-run dump: simulated time, queue totals, stalls and the
    /// batch summary.
    Run(&'a RunTotals),
}

impl Engine {
    /// Batching on, no stalls, and a sampler if `timeline` configures one.
    pub(crate) fn new(timeline: Option<&TimelineConfig>) -> Self {
        Engine {
            batch: true,
            batch_stats: BatchStats::default(),
            stalls: 0,
            timeline: timeline.map(|c| Box::new(TimelineSampler::new(c.clone()))),
        }
    }

    /// Publishes the `engine.*` scope. Timeline windows carry only values
    /// that are a pure function of simulated event order, so timelines are
    /// byte-identical at any thread count.
    pub(crate) fn register(&self, reg: &mut StatRegistry, view: EngineScope<'_>) {
        let b = &self.batch_stats;
        let mut engine = reg.scope("engine");
        match view {
            EngineScope::Window { queue_depth } => {
                engine.gauge("queue.depth", queue_depth as f64);
            }
            EngineScope::Run(totals) => {
                // Ops executed by the loop are `engine.batch.ops`: one queue
                // event can carry a whole run-ahead batch, so the raw queue
                // traffic stays under `engine.queue.*`.
                engine.count("sim_ps", totals.makespan.as_ps());
                engine.count("stalls", self.stalls);
                let q = &totals.queue;
                let mut queue = engine.scope("queue");
                queue.count("scheduled", q.scheduled);
                queue.count("processed", q.processed);
                queue.count("peak_depth", q.peak_depth);
            }
        }
        let mut batch = engine.scope("batch");
        batch.count("batches", b.batches);
        batch.count("ops", b.ops);
        batch.count("fast_hits", b.fast_hits);
        batch.gauge("fast_hit_ratio", b.fast_hit_ratio());
        if let EngineScope::Run(_) = view {
            batch.count("enabled", u64::from(self.batch));
            batch.count("max_len", b.max_len);
            batch.gauge("mean_len", b.mean_len());
            for (i, &n) in b.len_hist.iter().enumerate() {
                batch.count(&format!("len_c{i}"), n);
            }
        }
    }
}

/// What a system plugs into [`run`]: its op source, its two access paths,
/// its boundary actions and horizon clamps, and its telemetry.
pub(crate) trait Simulated {
    /// The shared run-loop state.
    fn engine(&self) -> &Engine;
    /// The shared run-loop state, mutably.
    fn engine_mut(&mut self) -> &mut Engine;
    /// Cores, one queue rank each.
    fn cores(&self) -> usize;
    /// The next op of `core`'s trace.
    fn next_op(&mut self, core: usize) -> Op;
    /// Runs one op through the full access path; returns its completion.
    fn execute(&mut self, core: usize, op: Op, t: Time) -> Time;
    /// Runs `op` only if it touches nothing but `core`'s private state —
    /// compute, or an L1 hit — and returns its completion; returns `None`
    /// with all state untouched otherwise.
    fn execute_private(&mut self, core: usize, op: Op, t: Time) -> Option<Time>;
    /// Applies the boundary actions due at `t`, before the popped core
    /// runs. An action that kills cores zeroes their `remaining` ops.
    fn boundaries(&mut self, _t: Time, _remaining: &mut [u64]) {}
    /// The next boundary action's time: no op may run ahead past it.
    fn boundary_horizon(&self) -> Time {
        Time::MAX
    }
    /// A further clamp on the private horizon of a batch popped at `t`.
    fn private_bound(&self, _t: Time) -> Time {
        Time::MAX
    }
    /// L1 hits so far (the fast-path share of [`BatchStats`]).
    fn l1_hits(&self) -> u64;
    /// Adds the system's own series to a timeline window's registry.
    fn timeline_stats(&self, reg: &mut StatRegistry, now: Time);
    /// Stable label naming the timeline file.
    fn timeline_label(&self) -> String;
    /// What the run is, for diagnostics.
    fn run_label(&self) -> String;
}

/// What [`run`] hands back for the system's report.
pub(crate) struct RunTotals {
    /// Completion time of the last op.
    pub(crate) makespan: Time,
    /// Ops executed.
    pub(crate) ops: u64,
    /// The event queue's telemetry.
    pub(crate) queue: QueueStats,
}

/// Runs `ops_per_core` ops on every core of `sys` (see the module docs),
/// then closes and writes the timeline, if one is attached.
pub(crate) fn run<S: Simulated>(
    sys: &mut S,
    ops_per_core: u64,
    mut watchdog: ProgressWatchdog,
) -> RunTotals {
    let cores = sys.cores();
    let mut queue: EventQueue<usize> = EventQueue::new();
    let mut remaining: Vec<u64> = vec![ops_per_core; cores];
    // Per-core pending slot: an op fetched past the shared window that
    // needs shared state, waiting for its core's event to pop.
    let mut pending: Vec<Option<Op>> = vec![None; cores];
    for c in 0..cores {
        queue.push_ranked(Time::ZERO, c as u64, c);
    }
    let mut makespan = Time::ZERO;
    let mut total_ops = 0u64;

    let mut next = queue.pop();
    while let Some((mut t, core)) = next {
        if let Some(stall) = watchdog.observe(t, queue.len()) {
            sys.engine_mut().stalls += 1;
            ndpx_warn!(
                "engine deadlock suspected in {} while serving core {core}: {stall}",
                sys.run_label()
            );
        }
        sys.boundaries(t, &mut remaining);
        // A core killed by a boundary action surfaces here with no ops
        // left: retire it without touching the op source (its trace was
        // aborted). Boundaries clamp the private horizon, so none strands
        // a parked op.
        if remaining[core] == 0 {
            debug_assert!(pending[core].is_none(), "a boundary action retired a parked op");
            next = queue.pop();
            continue;
        }
        // Timeline boundary: snapshot the cumulative state strictly before
        // processing the first event at or past it. Sim-order only, so
        // timelines are identical at any thread count.
        if sys.engine().timeline.as_deref().is_some_and(|tl| tl.due(t)) {
            let snap = snapshot(sys, queue.len(), t);
            if let Some(tl) = sys.engine_mut().timeline.as_deref_mut() {
                tl.record(t, snap);
            }
        }
        let (window, horizon) = horizons(sys, queue.peek_time(), t);
        let fast0 = sys.l1_hits();
        let mut batch_len = 0u64;
        let op = pending[core].take().unwrap_or_else(|| sys.next_op(core));
        let mut done = sys.execute(core, op, t);
        loop {
            batch_len += 1;
            makespan = makespan.max(done);
            remaining[core] -= 1;
            if remaining[core] == 0 {
                next = queue.pop();
                break;
            }
            t = done;
            if batch_len < BATCH_CAP && t < horizon {
                let op = sys.next_op(core);
                let ran = if t < window {
                    Some(sys.execute(core, op, t))
                } else {
                    sys.execute_private(core, op, t)
                };
                if let Some(d) = ran {
                    done = d;
                    continue;
                }
                pending[core] = Some(op);
            }
            next = Some(queue.push_pop_ranked(t, core as u64, core));
            break;
        }
        total_ops += batch_len;
        let fast = sys.l1_hits() - fast0;
        sys.engine_mut().batch_stats.record(batch_len, fast);
    }

    // Close the trailing timeline window on the end-of-run state and write
    // the file under a stable per-cell name.
    if sys.engine().timeline.is_some() {
        let snap = snapshot(sys, queue.len(), makespan);
        if let Some(mut tl) = sys.engine_mut().timeline.take() {
            tl.finish(snap);
            let label = sys.timeline_label();
            match tl.write(&label) {
                Ok(path) => ndpx_info!("timeline for {label} written to {}", path.display()),
                Err(e) => ndpx_warn!("failed to write timeline for {label}: {e}"),
            }
        }
    }
    RunTotals { makespan, ops: total_ops, queue: queue.stats() }
}

/// The run-ahead horizons `(W, P)`, `W ≤ P`, for a core popped at `t` with
/// the queue's next pending event at `peek`. Both are [`Time::ZERO`] with
/// batching off, which is the per-op loop.
#[inline]
fn horizons<S: Simulated>(sys: &S, peek: Option<Time>, t: Time) -> (Time, Time) {
    let engine = sys.engine();
    if !engine.batch {
        return (Time::ZERO, Time::ZERO);
    }
    // Boundary actions and timeline windows: no reconfiguration, failure
    // or snapshot may see an op from its future.
    let mut horizon = sys.boundary_horizon();
    if let Some(tl) = engine.timeline.as_deref() {
        horizon = horizon.min(tl.next_boundary());
    }
    let window = peek.map_or(horizon, |m| m.min(horizon));
    (window, horizon.min(sys.private_bound(t)).max(window))
}

/// Cumulative registry snapshot for one timeline window.
fn snapshot<S: Simulated>(sys: &S, queue_depth: usize, now: Time) -> StatRegistry {
    let mut reg = StatRegistry::new();
    sys.engine().register(&mut reg, EngineScope::Window { queue_depth });
    sys.timeline_stats(&mut reg, now);
    reg
}
