//! Spans recorded by the benchmark around its calls into each layer.
//!
//! No instrumentation is added inside the program: a span here is the
//! wall time of one call made from the benchmark's own files. Spans stay
//! in memory and are written once, at the end, as a Chrome trace
//! (`chrome://tracing`, Perfetto).

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;
use crate::stats;

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.call`, also the metric the durations feed.
    pub name: &'static str,
    /// Start, µs since the recorder was created.
    pub start_us: f64,
    /// Duration in µs; `None` while the span is open.
    pub dur_us: Option<f64>,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Shared by all spans of one request.
    pub query_id: u64,
}

/// In-memory span store plus, per `(template, name)`, the durations.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    durations: BTreeMap<(usize, &'static str), Vec<f64>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            durations: BTreeMap::new(),
        }
    }
}

impl Recorder {
    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Open a span; close it with [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, query_id: u64) -> usize {
        let start_us = self.now_us();
        self.spans.push(Span {
            name,
            start_us,
            dur_us: None,
            parent,
            query_id,
        });
        self.spans.len() - 1
    }

    /// Close span `id`, filing its duration under `template`; returns µs.
    pub fn close(&mut self, id: usize, template: usize) -> f64 {
        let dur = self.now_us() - self.spans[id].start_us;
        self.spans[id].dur_us = Some(dur);
        self.durations
            .entry((template, self.spans[id].name))
            .or_default()
            .push(dur);
        dur
    }

    /// Time one call as a span; returns the call's value.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        query_id: u64,
        template: usize,
        call: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, query_id);
        let value = std::hint::black_box(call());
        self.close(id, template);
        value
    }

    /// Durations filed under `(template, name)`.
    pub fn durations(&self, template: usize, name: &'static str) -> &[f64] {
        self.durations
            .get(&(template, name))
            .map_or(&[], |v| v.as_slice())
    }

    /// Median duration and call count under `(template, name)`.
    pub fn median(&self, template: usize, name: &'static str) -> Option<(f64, usize)> {
        let d = self.durations(template, name);
        Some((stats::median(d)?, d.len()))
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True before the first span.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The Chrome trace-event document: one complete (`"X"`) event per
    /// closed span, one row (`tid`) per query.
    pub fn to_chrome_json(&self, metadata: Json) -> Json {
        let events = self
            .spans
            .iter()
            .enumerate()
            .filter_map(|(id, s)| {
                Some(Json::obj([
                    ("name", Json::str(s.name)),
                    ("ph", Json::str("X")),
                    ("ts", Json::Num(s.start_us)),
                    ("dur", Json::Num(s.dur_us?)),
                    ("pid", Json::Int(1)),
                    ("tid", Json::Int(s.query_id as i64)),
                    (
                        "args",
                        Json::obj([
                            ("span", Json::Int(id as i64)),
                            (
                                "parent",
                                s.parent.map_or(Json::Null, |p| Json::Int(p as i64)),
                            ),
                            ("query_id", Json::Int(s.query_id as i64)),
                        ]),
                    ),
                ]))
            })
            .collect();
        Json::obj([
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::str("ms")),
            ("metadata", metadata),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_file_their_durations() {
        let mut rec = Recorder::default();
        assert!(rec.is_empty());
        let root = rec.open("request", None, 7);
        let v = rec.time("sql.parse", Some(root), 7, 2, || 41 + 1);
        assert_eq!(v, 42);
        rec.time("sql.parse", Some(root), 7, 2, || ());
        let total = rec.close(root, 2);
        assert_eq!(rec.len(), 3);
        let (median, n) = rec.median(2, "sql.parse").unwrap();
        assert_eq!(n, 2);
        assert!(median >= 0.0 && median <= total);
        assert_eq!(rec.durations(2, "request"), &[total]);
        assert!(rec.median(1, "sql.parse").is_none());
        assert!(rec.durations(2, "nope").is_empty());
    }

    #[test]
    fn chrome_trace_has_one_complete_event_per_closed_span() {
        let mut rec = Recorder::default();
        let root = rec.open("request", None, 3);
        rec.time("child", Some(root), 3, 0, || ());
        let _still_open = rec.open("dangling", Some(root), 3);
        rec.close(root, 0);
        let text = rec
            .to_chrome_json(Json::obj([("seed", Json::Int(7))]))
            .render();
        assert_eq!(text.matches("\"ph\": \"X\"").count(), 2);
        assert!(text.contains("\"name\": \"child\""));
        assert!(text.contains("\"parent\": 0"));
        assert!(text.contains("\"parent\": null"));
        assert!(text.contains("\"tid\": 3"));
        assert!(!text.contains("dangling"));
        assert!(text.contains("\"metadata\": {\"seed\": 7}"));
    }
}
