//! Hierarchical stat registry with deterministic JSON serialization.
//!
//! Subsystems publish their counters under dotted paths after a run
//! completes; the registry is a plain sorted map, so the JSON dump is a pure
//! function of the recorded values — bit-identical no matter how many worker
//! threads drove the surrounding harness.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::stats::{Histogram, LatencyStat, MeanAcc};

/// One published stat node.
#[derive(Debug, Clone, PartialEq)]
pub enum StatValue {
    /// A monotonically increasing event count.
    Count(u64),
    /// A point-in-time scalar (ratio, occupancy, rate).
    Gauge(f64),
    /// A dimensionless mean with its underlying sum and sample count.
    Mean {
        /// Sum of all samples.
        sum: f64,
        /// Number of samples.
        count: u64,
    },
    /// A duration mean with its underlying total and sample count.
    Latency {
        /// Sum of all samples, in picoseconds.
        total_ps: u64,
        /// Number of samples.
        count: u64,
    },
    /// A latency distribution snapshot from a [`Histogram`].
    Hist {
        /// Number of samples.
        count: u64,
        /// Sum of all samples, in picoseconds.
        total_ps: u64,
        /// Median (bucket floor), in nanoseconds.
        p50_ns: u64,
        /// 95th percentile (bucket floor), in nanoseconds.
        p95_ns: u64,
        /// 99th percentile (bucket floor), in nanoseconds.
        p99_ns: u64,
        /// `(bucket_floor_ns, count)` for every non-empty bucket, ascending.
        buckets: Vec<(u64, u64)>,
    },
}

impl StatValue {
    /// The event count, or `None` for non-count stats. Convenience for
    /// assertions over `registry.get(path)` results.
    pub fn as_count(&self) -> Option<u64> {
        match self {
            StatValue::Count(v) => Some(*v),
            _ => None,
        }
    }

    /// The gauge value, or `None` for non-gauge stats.
    pub fn as_gauge(&self) -> Option<f64> {
        match self {
            StatValue::Gauge(v) => Some(*v),
            _ => None,
        }
    }
}

/// A sorted map from dotted stat path to [`StatValue`].
///
/// # Examples
///
/// ```
/// use ndpx_sim::telemetry::StatRegistry;
///
/// let mut reg = StatRegistry::new();
/// let mut engine = reg.scope("engine");
/// engine.count("stalls", 42);
/// assert!(reg.to_json().contains("\"engine.stalls\": 42"));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatRegistry {
    nodes: BTreeMap<String, StatValue>,
}

impl StatRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens a scope that prefixes every published path with `prefix.`.
    pub fn scope(&mut self, prefix: &str) -> StatScope<'_> {
        StatScope { reg: self, prefix: prefix.to_string() }
    }

    /// Publishes a value at an absolute path, replacing any existing node.
    pub fn publish(&mut self, path: &str, value: StatValue) {
        self.nodes.insert(path.to_string(), value);
    }

    /// Looks up a node by absolute path.
    pub fn get(&self, path: &str) -> Option<&StatValue> {
        self.nodes.get(path)
    }

    /// Number of published nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the registry has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Iterates nodes in sorted path order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &StatValue)> {
        self.nodes.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Serializes the registry to deterministic JSON: paths sorted
    /// lexicographically, floats in Rust's shortest round-trip form.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.nodes.len() * 48);
        out.push_str("{\n  \"schema\": \"ndpx-stat-registry-v1\",\n  \"stats\": ");
        self.write_stats_object(&mut out, 2);
        out.push_str("\n}\n");
        out
    }

    /// Writes the bare `{ "path": value, ... }` stats object (no schema
    /// envelope) with its closing brace at `indent` spaces, so callers can
    /// nest one registry per cell inside a larger deterministic document.
    pub fn write_stats_object(&self, out: &mut String, indent: usize) {
        out.push('{');
        for (i, (path, value)) in self.nodes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('\n');
            for _ in 0..indent + 2 {
                out.push(' ');
            }
            write_json_string(out, path);
            out.push_str(": ");
            write_value(out, value);
        }
        if !self.nodes.is_empty() {
            out.push('\n');
            for _ in 0..indent {
                out.push(' ');
            }
        }
        out.push('}');
    }
}

/// A borrowed view of a [`StatRegistry`] that prefixes every path.
#[derive(Debug)]
pub struct StatScope<'a> {
    reg: &'a mut StatRegistry,
    prefix: String,
}

impl StatScope<'_> {
    /// Opens a nested scope (`parent.child`).
    pub fn scope(&mut self, sub: &str) -> StatScope<'_> {
        StatScope { prefix: format!("{}.{sub}", self.prefix), reg: self.reg }
    }

    fn path(&self, name: &str) -> String {
        format!("{}.{name}", self.prefix)
    }

    /// Publishes an arbitrary [`StatValue`] under this scope.
    pub fn publish(&mut self, name: &str, value: StatValue) {
        self.reg.publish(&self.path(name), value);
    }

    /// Publishes an event count.
    pub fn count(&mut self, name: &str, v: u64) {
        self.reg.publish(&self.path(name), StatValue::Count(v));
    }

    /// Publishes a scalar gauge.
    pub fn gauge(&mut self, name: &str, v: f64) {
        self.reg.publish(&self.path(name), StatValue::Gauge(v));
    }

    /// Publishes a dimensionless mean accumulator.
    pub fn mean(&mut self, name: &str, m: &MeanAcc) {
        self.reg.publish(&self.path(name), StatValue::Mean { sum: m.sum(), count: m.count() });
    }

    /// Publishes a latency accumulator.
    pub fn latency(&mut self, name: &str, l: &LatencyStat) {
        self.reg.publish(
            &self.path(name),
            StatValue::Latency { total_ps: l.total().as_ps(), count: l.count() },
        );
    }

    /// Publishes a latency histogram snapshot.
    pub fn hist(&mut self, name: &str, h: &Histogram) {
        self.reg.publish(
            &self.path(name),
            StatValue::Hist {
                count: h.count(),
                total_ps: h.total().as_ps(),
                p50_ns: h.p50().as_ns(),
                p95_ns: h.p95().as_ns(),
                p99_ns: h.p99().as_ns(),
                buckets: h.iter().collect(),
            },
        );
    }
}

fn write_value(out: &mut String, value: &StatValue) {
    match value {
        StatValue::Count(v) => {
            let _ = write!(out, "{v}");
        }
        StatValue::Gauge(v) => write_json_f64(out, *v),
        StatValue::Mean { sum, count } => {
            out.push_str("{\"mean\": ");
            write_json_f64(out, if *count == 0 { 0.0 } else { sum / *count as f64 });
            let _ = write!(out, ", \"sum\": ");
            write_json_f64(out, *sum);
            let _ = write!(out, ", \"count\": {count}}}");
        }
        StatValue::Latency { total_ps, count } => {
            let mean_ps = if *count == 0 { 0 } else { total_ps / count };
            let _ = write!(
                out,
                "{{\"mean_ps\": {mean_ps}, \"total_ps\": {total_ps}, \"count\": {count}}}"
            );
        }
        StatValue::Hist { count, total_ps, p50_ns, p95_ns, p99_ns, buckets } => {
            let _ = write!(
                out,
                "{{\"count\": {count}, \"total_ps\": {total_ps}, \"p50_ns\": {p50_ns}, \
                 \"p95_ns\": {p95_ns}, \"p99_ns\": {p99_ns}, \"buckets\": ["
            );
            for (i, (floor, n)) in buckets.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "[{floor}, {n}]");
            }
            out.push_str("]}");
        }
    }
}

/// Writes an `f64` as a JSON number in canonical (shortest round-trip) form.
/// Non-finite values, which JSON cannot represent, are written as `0`.
pub(crate) fn write_json_f64(out: &mut String, v: f64) {
    if !v.is_finite() {
        out.push('0');
    } else {
        let _ = write!(out, "{v}");
    }
}

/// Writes a JSON string literal with the required escapes.
pub fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Time;

    #[test]
    fn scopes_compose_paths() {
        let mut reg = StatRegistry::new();
        let mut stack = reg.scope("stack00");
        let mut mesh = stack.scope("mesh");
        mesh.count("flits", 7);
        assert_eq!(reg.get("stack00.mesh.flits"), Some(&StatValue::Count(7)));
    }

    #[test]
    fn json_is_sorted_and_stable() {
        let mut reg = StatRegistry::new();
        reg.scope("b").count("x", 2);
        reg.scope("a").count("x", 1);
        let json = reg.to_json();
        let a = json.find("\"a.x\"").unwrap();
        let b = json.find("\"b.x\"").unwrap();
        assert!(a < b, "paths must serialize in sorted order");
        assert_eq!(json, reg.clone().to_json());
    }

    #[test]
    fn hist_snapshot_readout() {
        let mut h = Histogram::new();
        for _ in 0..99 {
            h.record(Time::from_ns(4));
        }
        h.record(Time::from_ns(4096));
        let mut reg = StatRegistry::new();
        reg.scope("core").hist("latency", &h);
        let json = reg.to_json();
        assert!(json.contains("\"p50_ns\": 4"));
        assert!(json.contains("\"p99_ns\": 4"));
        assert!(json.contains("[4096, 1]"));
    }

    #[test]
    fn non_finite_gauges_serialize_as_zero() {
        let mut reg = StatRegistry::new();
        reg.scope("x").gauge("nan", f64::NAN);
        assert!(reg.to_json().contains("\"x.nan\": 0"));
    }

    #[test]
    fn string_escaping() {
        let mut s = String::new();
        write_json_string(&mut s, "a\"b\\c\nd");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\"");
    }
}
