//! Harness-side spans and counts for the traced pass.
//!
//! Spans are recorded around calls into the library (the program itself is
//! not instrumented here), kept in memory, and written once at exit as
//! Chrome `trace_event` JSON, which Perfetto and `chrome://tracing` load.

use horse::stats::{json_f64, json_string};
use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval around a call into a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.runner_run`.
    pub name: String,
    /// Microseconds from the recorder's epoch to the span's start.
    pub start_us: f64,
    /// Microseconds from the recorder's epoch to the span's end.
    pub end_us: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// In-memory span and count recorder for one workload's traced pass.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    workload: &'static str,
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: Vec<(String, f64)>,
}

impl Spans {
    /// A recorder whose epoch is now.
    pub fn new(workload: &'static str) -> Spans {
        Spans {
            epoch: Instant::now(),
            workload,
            spans: Vec::new(),
            open: Vec::new(),
            counts: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Runs `f` inside a span named `name` (a child of whichever span is
    /// open), returning its result and the span's duration in seconds.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> T) -> (T, f64) {
        let idx = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(Span {
            name: name.to_string(),
            start_us,
            end_us: start_us,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let value = f(self);
        self.open.pop();
        let end_us = self.now_us();
        self.spans[idx].end_us = end_us;
        (value, (end_us - start_us) / 1e6)
    }

    /// Records a count (or an accumulated busy time) taken at a layer
    /// boundary.
    pub fn count(&mut self, name: &str, value: f64) {
        self.counts.push((name.to_string(), value));
    }

    /// The recorded spans, in start order.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Chrome `trace_event` JSON: one complete (`"ph": "X"`) event per
    /// span, carrying the workload id and the parent span's name.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| json_string(&self.spans[p].name));
            let _ = write!(
                out,
                "  {{\"name\": {}, \"cat\": \"horse-benchmark\", \"ph\": \"X\", \"ts\": {}, \"dur\": {}, \
                 \"pid\": 1, \"tid\": 1, \"args\": {{\"workload\": {}, \"parent\": {parent}}}}}",
                json_string(&s.name),
                json_f64(s.start_us),
                json_f64(s.end_us - s.start_us),
                json_string(self.workload),
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("], \"otherData\": {\"workload\": ");
        out.push_str(&json_string(self.workload));
        out.push_str(", \"counts\": {");
        for (i, (name, value)) in self.counts.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{}: {}", json_string(name), json_f64(*value));
        }
        out.push_str("}}}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use horse::stats::Json;

    #[test]
    fn nested_spans_record_parents_and_export_parses() {
        let mut s = Spans::new("w");
        let ((), outer) = s.time("outer", |s| {
            let (v, inner) = s.time("inner", |_| 7);
            assert_eq!(v, 7);
            assert!(inner >= 0.0);
        });
        s.count("layer.count", 3.0);
        assert_eq!(s.spans().len(), 2);
        assert_eq!(s.spans()[0].parent, None);
        assert_eq!(s.spans()[1].parent, Some(0));
        assert!(s.spans()[0].end_us >= s.spans()[1].end_us);
        assert!(outer >= 0.0);
        let v = Json::parse(&s.chrome_json()).expect("chrome json parses");
        let events = v
            .get("traceEvents")
            .and_then(Json::as_array)
            .expect("events");
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[1]
                .get("args")
                .and_then(|a| a.get("parent"))
                .and_then(Json::as_str),
            Some("outer")
        );
        let counts = v
            .get("otherData")
            .and_then(|o| o.get("counts"))
            .expect("counts");
        assert_eq!(counts.get("layer.count").and_then(Json::as_f64), Some(3.0));
    }
}
