//! The per-query trace collector: a fixed-capacity ring buffer of events
//! with Chrome trace-event JSON export.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use super::Category;

/// Default event capacity of [`Collector::new`] — generous for a single
/// query (operators × checkpoints × workers), small enough to bound
/// memory when a query loops.
pub const DEFAULT_CAPACITY: usize = 65_536;

/// Event phase, mirroring the Chrome trace-event `ph` field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// A complete event (`ph: "X"`): an interval with a duration.
    Complete {
        /// Interval length.
        dur: Duration,
    },
    /// An instant event (`ph: "i"`): a zero-duration marker.
    Instant,
}

/// One recorded trace event.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Event name (operator label, phase name, checkpoint id, …).
    pub name: String,
    /// Subsystem the event belongs to.
    pub cat: Category,
    /// Span or instant.
    pub ph: Phase,
    /// Offset from the collector's start.
    pub ts: Duration,
    /// Lane id: 0 for the installing thread, 1.. for worker threads.
    pub tid: u64,
    /// Extra key/value fields, already JSON-encoded (`"k": v, ...`).
    pub args: String,
}

struct Ring {
    events: Vec<TraceEvent>,
    capacity: usize,
    /// Index of the logically-oldest event once the ring has wrapped.
    head: usize,
    /// Events evicted because the ring was full.
    dropped: u64,
}

impl Ring {
    fn push(&mut self, ev: TraceEvent) {
        if self.events.len() < self.capacity {
            self.events.push(ev);
        } else {
            // Overwrite the oldest slot; most recent `capacity` survive.
            self.events[self.head] = ev;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    fn drain_ordered(&mut self) -> Vec<TraceEvent> {
        let head = self.head;
        self.head = 0;
        let mut events = std::mem::take(&mut self.events);
        events.rotate_left(head);
        events
    }
}

/// Process-unique collector ids; keys the per-thread lane cache so a
/// freed-and-reallocated collector can never inherit stale lanes.
static NEXT_COLLECTOR_ID: AtomicU64 = AtomicU64::new(0);

struct Shared {
    id: u64,
    start: Instant,
    ring: Mutex<Ring>,
    next_tid: AtomicU64,
}

thread_local! {
    /// Lane cache: maps a collector identity to the lane id this thread
    /// was assigned, so every event a worker records lands in one stable
    /// flamegraph row.
    static LANE: std::cell::RefCell<HashMap<u64, u64>> =
        std::cell::RefCell::new(HashMap::new());
}

/// A shareable per-query event sink. Cloning is cheap (an `Arc` bump);
/// clones record into the same ring, so the scheduler hands a clone to
/// every stage task and spans on its workers appear as extra lanes of the
/// same query profile.
#[derive(Clone)]
pub struct Collector {
    shared: Arc<Shared>,
}

impl Default for Collector {
    fn default() -> Self {
        Self::new()
    }
}

impl Collector {
    /// A collector with the [`DEFAULT_CAPACITY`] event ring.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }

    /// A collector keeping at most `capacity` events (the most recent
    /// ones survive; the count of evicted events is reported by
    /// [`QueryTrace::dropped`]).
    pub fn with_capacity(capacity: usize) -> Self {
        Collector {
            shared: Arc::new(Shared {
                id: NEXT_COLLECTOR_ID.fetch_add(1, Ordering::Relaxed),
                start: Instant::now(),
                ring: Mutex::new(Ring {
                    events: Vec::new(),
                    capacity: capacity.max(1),
                    head: 0,
                    dropped: 0,
                }),
                next_tid: AtomicU64::new(1),
            }),
        }
    }

    /// The lane (Chrome `tid`) for the current thread under this
    /// collector: 0 for the first recording thread (the driver), fresh
    /// ids for each worker thread after it.
    fn lane(&self) -> u64 {
        let key = self.shared.id;
        LANE.with(|m| {
            *m.borrow_mut()
                .entry(key)
                .or_insert_with(|| self.shared.next_tid.fetch_add(1, Ordering::Relaxed) - 1)
        })
    }

    pub(super) fn record_complete(
        &self,
        name: String,
        cat: Category,
        args: String,
        started: Instant,
        dur: Duration,
    ) {
        let ts = started.saturating_duration_since(self.shared.start);
        let tid = self.lane();
        self.shared.ring.lock().unwrap().push(TraceEvent {
            name,
            cat,
            ph: Phase::Complete { dur },
            ts,
            tid,
            args,
        });
    }

    pub(super) fn record_instant(&self, name: String, cat: Category, args: String) {
        let ts = self.shared.start.elapsed();
        let tid = self.lane();
        self.shared.ring.lock().unwrap().push(TraceEvent {
            name,
            cat,
            ph: Phase::Instant,
            ts,
            tid,
            args,
        });
    }

    /// Drain everything recorded so far into a [`QueryTrace`]. The
    /// collector stays usable (subsequent events start a fresh trace with
    /// the same time origin).
    pub fn finish(&self) -> QueryTrace {
        let mut ring = self.shared.ring.lock().unwrap();
        let dropped = ring.dropped;
        ring.dropped = 0;
        let events = ring.drain_ordered();
        QueryTrace { events, dropped }
    }
}

/// A finished query profile: the drained events of one collector.
#[derive(Debug, Clone)]
pub struct QueryTrace {
    /// Events in recording order.
    pub events: Vec<TraceEvent>,
    /// Events evicted by the ring before [`Collector::finish`].
    pub dropped: u64,
}

/// Escape `s` for embedding inside a JSON string literal. Span arg
/// producers must pass any free-form text (operator labels, `Debug`
/// renderings) through this before splicing it into an args fragment,
/// or the exported Chrome JSON breaks on the first embedded quote.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl QueryTrace {
    /// Render as Chrome trace-event JSON (the `traceEvents` array form).
    ///
    /// Complete spans become `"ph": "X"` events with microsecond `ts`/
    /// `dur`; instants become `"ph": "i"` with thread scope. `pid` is
    /// always 1 (one query = one logical process); `tid` distinguishes
    /// the driving thread (0) from scheduler workers (1..). Load the output
    /// directly in `chrome://tracing` or <https://ui.perfetto.dev>.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let ts_us = e.ts.as_nanos() as f64 / 1000.0;
            let args = if e.args.is_empty() {
                String::new()
            } else {
                format!(",\"args\":{{{}}}", e.args)
            };
            match e.ph {
                Phase::Complete { dur } => {
                    let dur_us = dur.as_nanos() as f64 / 1000.0;
                    out.push_str(&format!(
                        "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{ts_us:.3},\
                         \"dur\":{dur_us:.3},\"pid\":1,\"tid\":{}{args}}}",
                        json_escape(&e.name),
                        e.cat.as_str(),
                        e.tid,
                    ));
                }
                Phase::Instant => {
                    out.push_str(&format!(
                        "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\
                         \"ts\":{ts_us:.3},\"pid\":1,\"tid\":{}{args}}}",
                        json_escape(&e.name),
                        e.cat.as_str(),
                        e.tid,
                    ));
                }
            }
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &str, tid: u64) -> TraceEvent {
        TraceEvent {
            name: name.into(),
            cat: Category::Exec,
            ph: Phase::Complete {
                dur: Duration::from_micros(10),
            },
            ts: Duration::from_micros(1),
            tid,
            args: String::new(),
        }
    }

    #[test]
    fn ring_keeps_most_recent_and_counts_dropped() {
        let c = Collector::with_capacity(3);
        for i in 0..5 {
            c.shared.ring.lock().unwrap().push(ev(&format!("e{i}"), 0));
        }
        let t = c.finish();
        assert_eq!(t.dropped, 2);
        let names: Vec<_> = t.events.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, vec!["e2", "e3", "e4"]);
    }

    #[test]
    fn chrome_json_shape() {
        let c = Collector::with_capacity(8);
        c.shared.ring.lock().unwrap().push(TraceEvent {
            args: "\"rows\": 7".into(),
            ..ev("scan \"T\"", 2)
        });
        let json = c.finish().to_chrome_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"name\":\"scan \\\"T\\\"\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"tid\":2"));
        assert!(json.contains("\"args\":{\"rows\": 7}"));
        assert!(json.trim_end().ends_with("]}"));
    }

    #[test]
    fn clones_share_one_ring_with_distinct_lanes() {
        let c = Collector::with_capacity(64);
        let c2 = c.clone();
        std::thread::scope(|s| {
            s.spawn(move || {
                c2.record_instant("worker".into(), Category::Exec, String::new());
            });
        });
        c.record_instant("driver".into(), Category::Exec, String::new());
        let t = c.finish();
        assert_eq!(t.events.len(), 2);
        let worker = t.events.iter().find(|e| e.name == "worker").unwrap();
        let driver = t.events.iter().find(|e| e.name == "driver").unwrap();
        assert_ne!(worker.tid, driver.tid);
    }
}
