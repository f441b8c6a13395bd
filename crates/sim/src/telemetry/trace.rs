//! Opt-in Chrome trace-event export.
//!
//! A [`TraceSink`] is a bounded ring buffer of simulation events recorded at
//! simulated timestamps. When a run finishes, the sink renders the Chrome
//! trace-event JSON format (the "catapult" format understood by Perfetto and
//! `chrome://tracing`). Tracing is off unless the harness constructs a sink —
//! disabled runs pay one `Option` branch per call site and nothing else.

use std::fmt::Write as _;
use std::io;
use std::path::PathBuf;

use super::json::Json;
use super::registry::{write_json_f64, write_json_string};
use super::timeline::labeled_path;
use crate::time::Time;

/// Configuration for a [`TraceSink`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceConfig {
    /// Output path for the trace JSON. Each cell's label is spliced in
    /// before the extension, so cells never clobber each other.
    pub path: PathBuf,
    /// Ring-buffer capacity in events; older events are dropped first.
    pub capacity: usize,
}

impl TraceConfig {
    /// Default ring capacity: enough for a detailed window without
    /// unbounded memory growth.
    pub const DEFAULT_CAPACITY: usize = 1 << 16;

    /// Builds a config capturing the whole run into `path`.
    pub fn to_path(path: impl Into<PathBuf>) -> Self {
        TraceConfig { path: path.into(), capacity: Self::DEFAULT_CAPACITY }
    }
}

#[derive(Debug, Clone, PartialEq)]
struct TraceEvent {
    /// Chrome phase: `X` = complete (has `dur`), `i` = instant,
    /// `C` = counter sample (value in `args`).
    ph: char,
    cat: &'static str,
    name: String,
    /// Track (rendered as the Chrome `tid`): one lane per unit/component.
    track: u32,
    ts: Time,
    dur: Time,
    /// Counter sample value; only rendered for `C` events.
    value: f64,
}

/// A bounded ring buffer of simulation events with Chrome-trace JSON output.
///
/// # Examples
///
/// ```
/// use ndpx_sim::telemetry::{validate_chrome_trace, TraceConfig, TraceSink};
/// use ndpx_sim::time::Time;
///
/// let mut sink = TraceSink::new(TraceConfig::to_path("/tmp/trace.json"));
/// sink.complete("noc", "msg e", 3, Time::from_ns(10), Time::from_ns(5));
/// let json = sink.render_json("demo");
/// assert!(validate_chrome_trace(&json).is_ok());
/// ```
#[derive(Debug)]
pub struct TraceSink {
    cfg: TraceConfig,
    events: Vec<TraceEvent>,
    /// Next slot to overwrite once `events` has reached capacity.
    head: usize,
    dropped: u64,
}

impl TraceSink {
    /// Creates an empty sink.
    pub fn new(cfg: TraceConfig) -> Self {
        let cap = cfg.capacity.max(1);
        TraceSink { cfg, events: Vec::with_capacity(cap.min(4096)), head: 0, dropped: 0 }
    }

    /// Records a complete (duration) event.
    pub fn complete(
        &mut self,
        cat: &'static str,
        name: impl Into<String>,
        track: u32,
        start: Time,
        dur: Time,
    ) {
        self.push(TraceEvent {
            ph: 'X',
            cat,
            name: name.into(),
            track,
            ts: start,
            dur,
            value: 0.0,
        });
    }

    /// Records an instant event.
    pub fn instant(&mut self, cat: &'static str, name: impl Into<String>, track: u32, at: Time) {
        self.push(TraceEvent {
            ph: 'i',
            cat,
            name: name.into(),
            track,
            ts: at,
            dur: Time::ZERO,
            value: 0.0,
        });
    }

    /// Records a counter sample. Perfetto renders consecutive samples with
    /// the same name as one counter track.
    pub fn counter(
        &mut self,
        cat: &'static str,
        name: impl Into<String>,
        track: u32,
        at: Time,
        value: f64,
    ) {
        self.push(TraceEvent {
            ph: 'C',
            cat,
            name: name.into(),
            track,
            ts: at,
            dur: Time::ZERO,
            value,
        });
    }

    fn push(&mut self, ev: TraceEvent) {
        let cap = self.cfg.capacity.max(1);
        if self.events.len() < cap {
            self.events.push(ev);
        } else {
            self.events[self.head] = ev;
            self.head = (self.head + 1) % cap;
            self.dropped += 1;
        }
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events have been buffered.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of events evicted from the ring after it filled.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Events in record order (oldest first).
    fn ordered(&self) -> impl Iterator<Item = &TraceEvent> {
        let (tail, front) = self.events.split_at(self.head);
        front.iter().chain(tail.iter())
    }

    /// Renders the Chrome trace-event JSON. `ts`/`dur` are microseconds of
    /// simulated time; `track` becomes the Chrome thread id so every unit
    /// gets its own swimlane.
    pub fn render_json(&self, process_name: &str) -> String {
        let mut out = String::with_capacity(128 + self.events.len() * 96);
        out.push_str("{\"traceEvents\": [\n");
        out.push_str("  {\"ph\": \"M\", \"pid\": 1, \"tid\": 0, \"name\": \"process_name\", \"args\": {\"name\": ");
        write_json_string(&mut out, process_name);
        out.push_str("}}");
        for ev in self.ordered() {
            out.push_str(",\n  {\"ph\": \"");
            out.push(ev.ph);
            let _ = write!(
                out,
                "\", \"pid\": 1, \"tid\": {}, \"cat\": \"{}\", \"name\": ",
                ev.track, ev.cat
            );
            write_json_string(&mut out, &ev.name);
            out.push_str(", \"ts\": ");
            write_json_f64(&mut out, ev.ts.as_us_f64());
            match ev.ph {
                'X' => {
                    out.push_str(", \"dur\": ");
                    write_json_f64(&mut out, ev.dur.as_us_f64());
                }
                'C' => {
                    out.push_str(", \"args\": {\"value\": ");
                    write_json_f64(&mut out, ev.value);
                    out.push('}');
                }
                _ => out.push_str(", \"s\": \"t\""),
            }
            out.push('}');
        }
        let _ = write!(
            out,
            "\n], \"displayTimeUnit\": \"ns\", \"otherData\": {{\"dropped_events\": {}}}}}\n",
            self.dropped
        );
        out
    }

    /// Writes the rendered trace, named `label` in the JSON, to the
    /// configured path with the sanitized `label` inserted before the
    /// extension (`trace.json` → `trace.Hbm-NdpExt-pr.json`), as a
    /// timeline is named: a cell's label names its file whatever the
    /// order in which parallel cells finish. Returns the path written.
    pub fn write(&self, label: &str) -> io::Result<PathBuf> {
        let path = labeled_path(&self.cfg.path, label);
        std::fs::write(&path, self.render_json(label))?;
        Ok(path)
    }
}

/// Validates that `json` is a well-formed Chrome trace-event document:
/// a top-level object with a `traceEvents` array whose entries each have a
/// string `ph` and `name`, a numeric `pid`/`tid`/`ts` (metadata events may
/// omit `ts`), a numeric `dur` when `ph` is `"X"`, and a numeric
/// `args.value` when `ph` is `"C"`. Returns the number of events on success.
///
/// Parsing goes through [`Json::parse`] — the whole document is tokenized,
/// so malformed JSON is rejected, not just missing keys.
pub fn validate_chrome_trace(json: &str) -> Result<usize, String> {
    let doc = Json::parse(json)?;
    if !matches!(doc, Json::Object(_)) {
        return Err("top level is not an object".into());
    }
    let Some(Json::Array(events)) = doc.get("traceEvents") else {
        return Err("missing traceEvents array".into());
    };
    for (i, ev) in events.iter().enumerate() {
        if !matches!(ev, Json::Object(_)) {
            return Err(format!("event {i} is not an object"));
        }
        let Some(Json::String(ph)) = ev.get("ph") else {
            return Err(format!("event {i}: missing string ph"));
        };
        if !matches!(ev.get("name"), Some(Json::String(_))) {
            return Err(format!("event {i}: missing string name"));
        }
        for key in ["pid", "tid"] {
            if !matches!(ev.get(key), Some(Json::Number(_))) {
                return Err(format!("event {i}: missing numeric {key}"));
            }
        }
        if ph != "M" && !matches!(ev.get("ts"), Some(Json::Number(_))) {
            return Err(format!("event {i}: missing numeric ts"));
        }
        if ph == "X" && !matches!(ev.get("dur"), Some(Json::Number(_))) {
            return Err(format!("event {i}: complete event missing dur"));
        }
        if ph == "C"
            && !matches!(ev.get("args").and_then(|a| a.get("value")), Some(Json::Number(_)))
        {
            return Err(format!("event {i}: counter event missing args.value"));
        }
    }
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sink(cap: usize) -> TraceSink {
        let mut cfg = TraceConfig::to_path("/tmp/t.json");
        cfg.capacity = cap;
        TraceSink::new(cfg)
    }

    #[test]
    fn ring_keeps_most_recent() {
        let mut s = sink(2);
        for i in 0..5u64 {
            s.instant("core", format!("e{i}"), 0, Time::from_ns(i));
        }
        assert_eq!(s.len(), 2);
        assert_eq!(s.dropped(), 3);
        let json = s.render_json("t");
        assert!(!json.contains("\"e2\"") && json.contains("\"e3\"") && json.contains("\"e4\""));
        // Oldest-first ordering survives the wraparound.
        assert!(json.find("\"e3\"").unwrap() < json.find("\"e4\"").unwrap());
    }

    #[test]
    fn rendered_trace_validates() {
        let mut s = sink(16);
        s.complete("noc", "msg \"quoted\"", 3, Time::from_ns(10), Time::from_ns(7));
        s.instant("core", "reconfig", 0, Time::from_ns(20));
        let json = s.render_json("cell hbm/ndpx/mv");
        assert_eq!(validate_chrome_trace(&json), Ok(3));
    }

    #[test]
    fn counter_events_render_and_validate() {
        let mut s = sink(16);
        s.counter("slo", "slo.epoch_p99_ns", 0, Time::from_ns(10), 420.0);
        s.counter("slo", "slo.epoch_p99_ns", 0, Time::from_ns(20), 560.0);
        let json = s.render_json("t");
        assert!(json.contains("\"args\": {\"value\": 420}"));
        assert_eq!(validate_chrome_trace(&json), Ok(3));
        let no_value =
            "{\"traceEvents\": [{\"ph\": \"C\", \"name\": \"a\", \"pid\": 1, \"tid\": 0, \"ts\": 1}]}";
        assert!(validate_chrome_trace(no_value).is_err());
    }

    #[test]
    fn validator_rejects_malformed() {
        assert!(validate_chrome_trace("{\"traceEvents\": [").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\": {}}").is_err());
        assert!(validate_chrome_trace("[]").is_err());
        let no_dur = "{\"traceEvents\": [{\"ph\": \"X\", \"name\": \"a\", \"pid\": 1, \"tid\": 0, \"ts\": 1}]}";
        assert!(validate_chrome_trace(no_dur).is_err());
    }

    #[test]
    fn traces_are_named_by_their_cell_label() {
        let dir = std::env::temp_dir().join(format!("ndpx-trace-names-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let mut sink = TraceSink::new(TraceConfig::to_path(dir.join("trace.json")));
        sink.complete("engine", "mem_op", 0, Time::ZERO, Time::from_ns(1));
        let a = sink.write("Hbm-NdpExt-pr").expect("written");
        let b = sink.write("Hmc-NdpExt-pr").expect("written");
        assert_eq!(a, dir.join("trace.Hbm-NdpExt-pr.json"));
        assert_eq!(b, dir.join("trace.Hmc-NdpExt-pr.json"));
        let json = std::fs::read_to_string(&a).expect("readable");
        assert!(json.contains("\"Hbm-NdpExt-pr\""), "the label names the process");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
