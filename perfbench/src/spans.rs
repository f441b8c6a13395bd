//! In-memory span recorder for the traced run.
//!
//! Spans are taken only in this benchmark's own code, around the calls it
//! makes into each layer's public functions; nothing is timed inside the
//! simulator. A span records its layer, the cell it served, start and end
//! relative to the recorder's creation, and the span that caused it. The
//! recorder keeps everything in memory and writes one JSON file at exit.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer the timed call belongs to (`workloads`, `core`, `engine`, ...).
    pub layer: &'static str,
    /// What was timed (`materialize`, `run`, `send`, ...).
    pub name: &'static str,
    /// Cell or trace the call served.
    pub cell: String,
    /// Nanoseconds since the recorder started.
    pub start_ns: u64,
    /// Nanoseconds since the recorder started; equals `start_ns` while open.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Wall seconds the span covers.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Collects spans; a disabled recorder ignores every call.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder that keeps spans only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Recorder { enabled, origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, layer: &'static str, name: &'static str, cell: &str) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            layer,
            name,
            cell: cell.to_string(),
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        let i = self.open.pop().expect("exit matches an enter");
        self.spans[i].end_ns = now;
    }

    /// Runs `f` inside a span and returns its result.
    pub fn span<R>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        cell: &str,
        f: impl FnOnce() -> R,
    ) -> R {
        self.enter(layer, name, cell);
        let r = f();
        self.exit();
        r
    }

    /// All recorded spans in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-layer `(layer, span count, total seconds, self seconds)`, where
    /// self time is a span's duration minus the part its children cover.
    pub fn layer_table(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut rows: Vec<(&'static str, usize, f64, f64)> = Vec::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let total = s.end_ns - s.start_ns;
            let own = total.saturating_sub(child) as f64 * 1e-9;
            match rows.iter_mut().find(|r| r.0 == s.layer) {
                Some(r) => {
                    r.1 += 1;
                    r.2 += total as f64 * 1e-9;
                    r.3 += own;
                }
                None => rows.push((s.layer, 1, total as f64 * 1e-9, own)),
            }
        }
        rows
    }

    /// Writes every span as a JSON array of objects.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "  {{\"id\": {i}, \"layer\": \"{}\", \"name\": \"{}\", \"cell\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
                s.layer, s.name, s.cell, s.start_ns, s.end_ns
            );
            out.push_str(if i + 1 < self.spans.len() { ",\n" } else { "\n" });
        }
        out.push_str("]\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
