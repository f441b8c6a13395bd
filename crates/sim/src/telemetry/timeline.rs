//! Time-resolved metric timelines: registry snapshots in fixed sim-time
//! windows.
//!
//! A [`TimelineSampler`] collects cumulative [`StatRegistry`] snapshots at
//! fixed simulated-time window boundaries and renders them as per-window
//! series: counters become per-window deltas, gauges stay point-in-time
//! readings. Windows are a pure function of simulated event order, so the
//! rendered file is byte-identical at any worker-thread count and for any
//! event-queue backend — the same guarantee the end-of-run registry dumps
//! give, extended over time.
//!
//! Sampling is off unless a run's configuration carries a
//! [`TimelineConfig`]; disabled runs pay one `Option` branch per scheduler
//! pop and nothing else.

use std::io;
use std::path::{Path, PathBuf};

use super::registry::{write_json_string, StatRegistry, StatValue};
use crate::time::Time;

/// Configuration for a [`TimelineSampler`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimelineConfig {
    /// Output path stem for the timeline JSON. The run label is inserted
    /// before the extension (`timeline.json` → `timeline.<label>.json`) so
    /// parallel cells write distinct, deterministically named files.
    pub path: PathBuf,
    /// Window width in simulated time.
    pub window: Time,
    /// Ring capacity in windows; the oldest windows are folded into a base
    /// snapshot once the ring fills, so deltas stay correct.
    pub capacity: usize,
}

impl TimelineConfig {
    /// Default window width: 10 µs of simulated time.
    pub const DEFAULT_WINDOW_NS: u64 = 10_000;
    /// Default ring capacity in windows.
    pub const DEFAULT_CAPACITY: usize = 4096;

    /// Builds a config with default window and capacity writing to `path`.
    pub fn to_path(path: impl Into<PathBuf>) -> Self {
        TimelineConfig {
            path: path.into(),
            window: Time::from_ns(Self::DEFAULT_WINDOW_NS),
            capacity: Self::DEFAULT_CAPACITY,
        }
    }
}

#[derive(Debug, Clone)]
struct Window {
    start: Time,
    end: Time,
    /// Cumulative registry snapshot at the window's close.
    snap: StatRegistry,
}

/// Collects cumulative registry snapshots at fixed sim-time boundaries and
/// renders per-window delta series.
///
/// # Examples
///
/// ```
/// use ndpx_sim::telemetry::{StatRegistry, TimelineConfig, TimelineSampler};
/// use ndpx_sim::time::Time;
///
/// let mut cfg = TimelineConfig::to_path("/tmp/timeline.json");
/// cfg.window = Time::from_ns(100);
/// let mut tl = TimelineSampler::new(cfg);
/// let mut snap = StatRegistry::new();
/// snap.scope("engine").count("ops", 7);
/// assert!(tl.due(Time::from_ns(150)));
/// tl.record(Time::from_ns(150), snap.clone());
/// snap.scope("engine").count("ops", 19);
/// tl.finish(snap);
/// let json = tl.render_json("demo");
/// assert!(json.contains("\"engine.ops\": 12"), "second window holds the delta");
/// ```
#[derive(Debug)]
pub struct TimelineSampler {
    cfg: TimelineConfig,
    windows: Vec<Window>,
    /// Next ring slot to overwrite once `windows` has reached capacity.
    head: usize,
    evicted: u64,
    /// Snapshot of the newest evicted window, so the first retained window
    /// still renders a correct delta.
    evicted_base: Option<StatRegistry>,
    next_boundary: Time,
}

impl TimelineSampler {
    /// Creates an empty sampler; the first window closes at one window
    /// width of simulated time.
    pub fn new(cfg: TimelineConfig) -> Self {
        let window = cfg.window.max(Time::from_ps(1));
        TimelineSampler {
            next_boundary: window,
            cfg: TimelineConfig { window, ..cfg },
            windows: Vec::new(),
            head: 0,
            evicted: 0,
            evicted_base: None,
        }
    }

    /// The configured window width.
    pub fn window(&self) -> Time {
        self.cfg.window
    }

    /// The simulated time at which the current window closes. Run loops that
    /// execute ahead of the scheduler clamp their run-ahead horizon to this
    /// so no window boundary is skipped.
    pub fn next_boundary(&self) -> Time {
        self.next_boundary
    }

    /// Whether the event about to be processed at simulated time `t` lies at
    /// or past the current window boundary, i.e. a snapshot is due first.
    #[inline]
    pub fn due(&self, t: Time) -> bool {
        t >= self.next_boundary
    }

    /// Closes the current window with `snap`, the cumulative registry state
    /// strictly before the boundary, then advances the boundary past `t`.
    /// Call when [`due`](Self::due) returns `true`, before processing the
    /// event at `t`; windows with no events in them are skipped, which keeps
    /// sparse runs compact without losing any delta (gaps are zero-delta by
    /// construction).
    pub fn record(&mut self, t: Time, snap: StatRegistry) {
        let end = self.next_boundary;
        let start = end.saturating_sub(self.cfg.window);
        self.push(Window { start, end, snap });
        let w = self.cfg.window.as_ps();
        self.next_boundary = Time::from_ps((t.as_ps() / w + 1) * w);
    }

    /// Closes the trailing partial window with the end-of-run registry
    /// state. Every run records at least this one window.
    pub fn finish(&mut self, snap: StatRegistry) {
        let end = self.next_boundary;
        let start = end.saturating_sub(self.cfg.window);
        self.push(Window { start, end, snap });
    }

    fn push(&mut self, w: Window) {
        let cap = self.cfg.capacity.max(1);
        if self.windows.len() < cap {
            self.windows.push(w);
        } else {
            let old = std::mem::replace(&mut self.windows[self.head], w);
            self.evicted_base = Some(old.snap);
            self.head = (self.head + 1) % cap;
            self.evicted += 1;
        }
    }

    /// Number of retained windows.
    pub fn len(&self) -> usize {
        self.windows.len()
    }

    /// Whether no windows have been recorded.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// Windows in record order (oldest first).
    fn ordered(&self) -> impl Iterator<Item = &Window> {
        let (tail, front) = self.windows.split_at(self.head);
        front.iter().chain(tail.iter())
    }

    /// Renders the timeline JSON: a `ndpx-timeline-v1` document whose
    /// windows carry per-window deltas for counters and point-in-time
    /// readings for gauges. Output is a pure function of the recorded
    /// snapshots, so it is byte-identical across thread counts and queue
    /// backends.
    pub fn render_json(&self, label: &str) -> String {
        let mut out = String::with_capacity(256 + self.windows.len() * 512);
        out.push_str("{\n  \"schema\": \"ndpx-timeline-v1\",\n  \"label\": ");
        write_json_string(&mut out, label);
        out.push_str(&format!(
            ",\n  \"window_ns\": {},\n  \"evicted_windows\": {},\n  \"windows\": [",
            self.cfg.window.as_ns(),
            self.evicted
        ));
        let mut prev: Option<&StatRegistry> = self.evicted_base.as_ref();
        for (i, w) in self.ordered().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"start_ns\": {}, \"end_ns\": {}, \"stats\": ",
                w.start.as_ns(),
                w.end.as_ns()
            ));
            delta_registry(&w.snap, prev).write_stats_object(&mut out, 4);
            out.push('}');
            prev = Some(&w.snap);
        }
        if !self.windows.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }

    /// Writes the rendered timeline to the configured path with the
    /// sanitized `label` inserted before the extension, so parallel cells
    /// produce distinct files whose names do not depend on write order.
    /// Returns the path written.
    pub fn write(&self, label: &str) -> io::Result<PathBuf> {
        let path = labeled_path(&self.cfg.path, label);
        std::fs::write(&path, self.render_json(label))?;
        Ok(path)
    }
}

/// Per-window view of a cumulative snapshot: counters are differenced
/// against the previous window (missing paths diff against zero), everything
/// else passes through as a point-in-time reading.
fn delta_registry(cur: &StatRegistry, prev: Option<&StatRegistry>) -> StatRegistry {
    let mut out = StatRegistry::new();
    for (path, value) in cur.iter() {
        let v = match value {
            StatValue::Count(c) => {
                let base =
                    prev.and_then(|p| p.get(path)).and_then(StatValue::as_count).unwrap_or(0);
                StatValue::Count(c.saturating_sub(base))
            }
            other => other.clone(),
        };
        out.publish(path, v);
    }
    out
}

/// `timeline.json` + `Hbm-NdpExt-mv` → `timeline.Hbm-NdpExt-mv.json`, with
/// the label sanitized to filename-safe characters.
fn labeled_path(base: &Path, label: &str) -> PathBuf {
    let safe: String = label
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.') { c } else { '-' })
        .collect();
    let stem = base.file_stem().and_then(|s| s.to_str()).unwrap_or("timeline");
    let named = match base.extension().and_then(|e| e.to_str()) {
        Some(ext) => format!("{stem}.{safe}.{ext}"),
        None => format!("{stem}.{safe}"),
    };
    base.with_file_name(named)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(window_ns: u64, cap: usize) -> TimelineConfig {
        let mut c = TimelineConfig::to_path("/tmp/timeline.json");
        c.window = Time::from_ns(window_ns);
        c.capacity = cap;
        c
    }

    fn snap(ops: u64, depth: f64) -> StatRegistry {
        let mut reg = StatRegistry::new();
        let mut e = reg.scope("engine");
        e.count("ops", ops);
        e.gauge("queue.depth", depth);
        reg
    }

    #[test]
    fn counters_render_as_deltas_gauges_as_readings() {
        let mut tl = TimelineSampler::new(cfg(100, 64));
        assert!(!tl.due(Time::from_ns(99)));
        assert!(tl.due(Time::from_ns(100)));
        tl.record(Time::from_ns(120), snap(10, 3.0));
        tl.record(Time::from_ns(250), snap(25, 5.0));
        tl.finish(snap(40, 0.0));
        let json = tl.render_json("t");
        assert!(json.contains("\"ndpx-timeline-v1\""));
        // First window carries the raw count, later windows the deltas.
        assert!(json.contains("\"engine.ops\": 10"));
        assert!(json.contains("\"engine.ops\": 15"));
        assert!(json.contains("\"engine.queue.depth\": 5"));
        // Boundaries stay on fixed multiples of the window width.
        assert!(json.contains("\"start_ns\": 0, \"end_ns\": 100"));
        assert!(json.contains("\"start_ns\": 100, \"end_ns\": 200"));
        assert!(json.contains("\"start_ns\": 200, \"end_ns\": 300"));
    }

    #[test]
    fn boundary_skips_empty_windows() {
        let mut tl = TimelineSampler::new(cfg(100, 64));
        // An event at 950 closes the first window, then jumps the boundary
        // past the gap.
        tl.record(Time::from_ns(950), snap(5, 1.0));
        assert_eq!(tl.next_boundary(), Time::from_ns(1000));
        assert_eq!(tl.len(), 1);
    }

    #[test]
    fn ring_eviction_preserves_delta_base() {
        let mut tl = TimelineSampler::new(cfg(100, 2));
        tl.record(Time::from_ns(100), snap(10, 0.0));
        tl.record(Time::from_ns(200), snap(30, 0.0));
        tl.record(Time::from_ns(300), snap(70, 0.0));
        let json = tl.render_json("t");
        // Window one (ops 0→10) was evicted; the two survivors still show
        // their own deltas (20 and 40), not cumulative values.
        assert!(json.contains("\"evicted_windows\": 1"));
        assert!(json.contains("\"engine.ops\": 20"));
        assert!(json.contains("\"engine.ops\": 40"));
        assert!(!json.contains("\"engine.ops\": 30"));
    }

    #[test]
    fn rendering_is_deterministic() {
        let build = || {
            let mut tl = TimelineSampler::new(cfg(50, 8));
            tl.record(Time::from_ns(60), snap(1, 9.0));
            tl.finish(snap(4, 2.0));
            tl.render_json("cell")
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn labeled_paths_are_stable_and_sanitized() {
        let p = labeled_path(Path::new("out/timeline.json"), "Hbm-NdpExt/mv");
        assert_eq!(p, Path::new("out/timeline.Hbm-NdpExt-mv.json"));
        let q = labeled_path(Path::new("timeline"), "a b");
        assert_eq!(q, Path::new("timeline.a-b"));
    }
}
