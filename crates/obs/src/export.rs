//! Trace exporters (the pluggable sinks).
//!
//! The in-memory collector is [`Trace`] itself — tests assert against it
//! directly. For everything else a [`TraceSink`] renders a trace to text:
//!
//! * [`JsonLinesSink`] — one JSON object per line (spans, then counters,
//!   then histograms); trivially greppable and stream-appendable;
//! * [`ChromeTraceSink`] — the `trace_event` format `chrome://tracing`
//!   and Perfetto open natively: complete (`"ph":"X"`) events whose
//!   nesting is conveyed by containment of `[ts, ts+dur]` ranges within a
//!   track, plus explicit `span_id`/`parent_id` args so tools (and our
//!   round-trip tests) can rebuild the tree without timing heuristics.
//!
//! Rendering is deterministic: field order is fixed, spans render in
//! finish order, metrics name-sorted — the property the golden-file test
//! pins. Strings are escaped by `cornet_types::json::escape`, the
//! workspace's one JSON escaper.

use crate::span::{AttrValue, Span, SpanId, Trace};
use cornet_types::json;
use std::collections::HashMap;
use std::fmt::Write as _;

/// Renders a [`Trace`] to an exportable text document.
pub trait TraceSink {
    /// Render the trace.
    fn render(&self, trace: &Trace) -> String;

    /// Suggested file extension (without the dot).
    fn extension(&self) -> &'static str {
        "json"
    }
}

fn json_attr_value(v: &AttrValue) -> String {
    match v {
        AttrValue::Str(s) => format!("\"{}\"", json::escape(s)),
        AttrValue::Int(i) => format!("{i}"),
        AttrValue::Float(x) => json::number(*x),
        AttrValue::Bool(b) => format!("{b}"),
    }
}

fn json_attrs(attrs: &[(&'static str, AttrValue)]) -> String {
    let mut out = String::from("{");
    for (i, (k, v)) in attrs.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "\"{}\": {}", json::escape(k), json_attr_value(v));
    }
    out.push('}');
    out
}

/// One JSON object per line: spans in finish order, then counters, then
/// histograms (both name-sorted).
pub struct JsonLinesSink;

impl TraceSink for JsonLinesSink {
    fn render(&self, trace: &Trace) -> String {
        let mut out = String::new();
        for s in &trace.spans {
            let parent = s
                .parent
                .map(|p| p.0.to_string())
                .unwrap_or_else(|| "null".into());
            let _ = writeln!(
                out,
                "{{\"type\": \"span\", \"id\": {}, \"parent\": {}, \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}, \"attrs\": {}}}",
                s.id.0,
                parent,
                json::escape(&s.name),
                s.start_ns,
                s.end_ns,
                json_attrs(&s.attrs),
            );
        }
        for (name, value) in &trace.metrics.counters {
            let _ = writeln!(
                out,
                "{{\"type\": \"counter\", \"name\": \"{}\", \"value\": {}}}",
                json::escape(name),
                value
            );
        }
        for (name, h) in &trace.metrics.histograms {
            let bounds: Vec<String> = h.bounds.iter().map(|b| json::number(*b)).collect();
            let counts: Vec<String> = h.counts.iter().map(|c| c.to_string()).collect();
            let _ = writeln!(
                out,
                "{{\"type\": \"histogram\", \"name\": \"{}\", \"bounds\": [{}], \
                 \"counts\": [{}], \"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}}}",
                json::escape(name),
                bounds.join(", "),
                counts.join(", "),
                h.count,
                json::number(h.sum),
                json::number(h.min),
                json::number(h.max),
            );
        }
        out
    }

    fn extension(&self) -> &'static str {
        "jsonl"
    }
}

/// The Chrome `trace_event` JSON format (open in `chrome://tracing` or
/// <https://ui.perfetto.dev>).
///
/// Each span becomes one complete event (`"ph": "X"`). Track assignment
/// (`tid`) groups each span under its *root ancestor* — every top-level
/// span (a dispatch, a plan, a verification rule) gets its own track and
/// its descendants nest inside it by time containment. `args` carry the
/// span id, parent id, and every attribute.
pub struct ChromeTraceSink;

/// Resolve each span's root ancestor. Spans whose parent never finished
/// (or was recorded by another tracer) act as their own roots.
fn root_of(spans: &[Span]) -> HashMap<SpanId, SpanId> {
    let parent: HashMap<SpanId, Option<SpanId>> = spans.iter().map(|s| (s.id, s.parent)).collect();
    let mut roots: HashMap<SpanId, SpanId> = HashMap::with_capacity(spans.len());
    for s in spans {
        let mut cur = s.id;
        // Walk up; bounded by the span count so a (never expected) cycle
        // cannot hang the exporter.
        for _ in 0..=spans.len() {
            match parent.get(&cur) {
                Some(Some(p)) if parent.contains_key(p) => cur = *p,
                _ => break,
            }
        }
        roots.insert(s.id, cur);
    }
    roots
}

impl TraceSink for ChromeTraceSink {
    fn render(&self, trace: &Trace) -> String {
        let roots = root_of(&trace.spans);
        // Deterministic tid per root: order of first appearance.
        let mut tid_of: HashMap<SpanId, u64> = HashMap::new();
        for s in &trace.spans {
            let root = roots[&s.id];
            let next = tid_of.len() as u64 + 1;
            tid_of.entry(root).or_insert(next);
        }
        let mut out = String::from("{\n  \"traceEvents\": [\n");
        for (i, s) in trace.spans.iter().enumerate() {
            // trace_event timestamps are microseconds; keep nanosecond
            // precision with 3 decimals.
            let ts = s.start_ns as f64 / 1_000.0;
            let dur = s.duration_ns() as f64 / 1_000.0;
            let mut args = format!("\"span_id\": {}", s.id.0);
            if let Some(p) = s.parent {
                let _ = write!(args, ", \"parent_id\": {}", p.0);
            }
            for (k, v) in &s.attrs {
                let _ = write!(args, ", \"{}\": {}", json::escape(k), json_attr_value(v));
            }
            let _ = write!(
                out,
                "    {{\"name\": \"{}\", \"cat\": \"cornet\", \"ph\": \"X\", \
                 \"ts\": {ts:.3}, \"dur\": {dur:.3}, \"pid\": 1, \"tid\": {}, \
                 \"args\": {{{args}}}}}",
                json::escape(&s.name),
                tid_of[&roots[&s.id]],
            );
            out.push_str(if i + 1 < trace.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ],\n  \"displayTimeUnit\": \"ms\",\n  \"otherData\": {\n");
        out.push_str("    \"counters\": {");
        for (i, (name, value)) in trace.metrics.counters.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{}\": {}", json::escape(name), value);
        }
        out.push_str("},\n    \"histograms\": {");
        for (i, (name, h)) in trace.metrics.histograms.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}}}",
                json::escape(name),
                h.count,
                json::number(h.sum),
                json::number(h.min),
                json::number(h.max),
            );
        }
        out.push_str("}\n  }\n}\n");
        out
    }
}

/// Render `trace` through `sink` and write it to `path`.
pub fn write_trace(
    path: &str,
    sink: &dyn TraceSink,
    trace: &Trace,
) -> std::result::Result<(), std::io::Error> {
    std::fs::write(path, sink.render(trace))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;
    use crate::span::Tracer;

    fn sample_trace() -> Trace {
        let t = Tracer::with_clock(ManualClock::ticking(500));
        let root = t.span("dispatch");
        let mut child = t.child_span("instance", root.id());
        child.attr("node", "enb-\"1\"");
        child.attr("attempts", 2u32);
        child.attr("recovered", true);
        child.finish();
        root.finish();
        t.incr("instances.completed", 1);
        t.observe("block.duration_ms", 1.5);
        t.snapshot()
    }

    #[test]
    fn jsonl_renders_one_line_per_record() {
        let body = JsonLinesSink.render(&sample_trace());
        let lines: Vec<&str> = body.lines().collect();
        assert_eq!(lines.len(), 4, "2 spans + 1 counter + 1 histogram");
        assert!(lines[0].contains("\"name\": \"instance\""));
        assert!(lines[0].contains("\"parent\": 1"));
        assert!(lines[1].contains("\"parent\": null"));
        assert!(lines[2].contains("\"counter\""));
        assert!(lines[3].contains("\"histogram\""));
        assert!(lines[0].contains("enb-\\\"1\\\""), "escaping: {}", lines[0]);
    }

    #[test]
    fn chrome_trace_is_balanced_and_carries_links() {
        let body = ChromeTraceSink.render(&sample_trace());
        assert!(body.contains("\"traceEvents\""));
        assert!(body.contains("\"ph\": \"X\""));
        assert!(body.contains("\"parent_id\": 1"));
        assert!(body.contains("\"attempts\": 2"));
        assert!(body.contains("\"recovered\": true"));
        // Both spans share the root's track.
        assert_eq!(body.matches("\"tid\": 1").count(), 2);
        json::parse(&body).expect("Chrome trace is valid JSON");
    }

    #[test]
    fn rendering_is_deterministic() {
        let a = sample_trace();
        let b = sample_trace();
        assert_eq!(ChromeTraceSink.render(&a), ChromeTraceSink.render(&b));
        assert_eq!(JsonLinesSink.render(&a), JsonLinesSink.render(&b));
    }

    #[test]
    fn orphan_spans_get_their_own_track() {
        let t = Tracer::with_clock(ManualClock::new());
        // Parent id from a *different* tracer: unknown in this trace.
        let mut orphan = t.span_with_parent("lost", Some(crate::span::SpanId(9999)));
        orphan.attr("k", 1i64);
        orphan.finish();
        t.span("root").finish();
        let body = ChromeTraceSink.render(&t.snapshot());
        assert!(body.contains("\"tid\": 1"));
        assert!(body.contains("\"tid\": 2"));
    }
}
