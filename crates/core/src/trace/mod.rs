//! # Structured query tracing — spans, events, counters.
//!
//! A std-only observability layer giving every query one traceable story
//! from parse to result. Three pieces:
//!
//! * **Spans and instants** ([`span`], [`span_owned`], [`instant`]) — a
//!   lightweight guard API. A span records its category, name, wall-clock
//!   interval, optional arguments, and the recording thread; dropping the
//!   guard closes it. Instants are zero-duration markers (wire retries,
//!   injected faults, local fallbacks).
//! * **The per-query collector** ([`Collector`]) — a fixed-capacity ring
//!   buffer of [`TraceEvent`]s. A collector is *installed* on a thread
//!   with [`install`]; spans on that thread (and on the scheduler workers
//!   running that query's stages) record into it. [`Collector::finish`]
//!   yields a [`QueryTrace`] exportable as Chrome trace-event JSON
//!   ([`QueryTrace::to_chrome_json`]) that opens directly in
//!   `chrome://tracing`, Perfetto, or any flamegraph viewer.
//! * **The process-wide counter registry** ([`counters`]) — monotonic
//!   counters (memo expressions, rules fired, statistics-cache traffic,
//!   scheduler tasks, wire volume) dumpable as JSON.
//!
//! ## Cost model
//!
//! Tracing is **zero-cost when disabled**: no collector installed
//! anywhere in the process means every [`span`]/[`instant`] call reduces
//! to one relaxed atomic load and a branch (the name/argument closures of
//! the `_with` variants are never invoked), returning an inert guard that
//! compiles to nothing on drop. The overhead of the disabled fast path is
//! measured per hot operator by `exec_quick` into `BENCH_obs.json`.
//!
//! ## Results are never perturbed
//!
//! Instrumentation only *observes*: span guards read clocks and copy
//! labels, never touching relation data or plan choices, so a traced run
//! is byte-identical to an untraced one, whole or staged
//! (`tests/observability.rs` holds the engine and the scheduler to this).
//!
//! ```
//! use tqo_core::trace::{self, Category, Collector};
//!
//! // Disabled (no collector): spans are inert.
//! assert!(!trace::enabled());
//! { let _s = trace::span(Category::Exec, "noop"); }
//!
//! // Install a collector and the same call records.
//! let collector = Collector::with_capacity(1024);
//! {
//!     let _g = trace::install(&collector);
//!     assert!(trace::enabled());
//!     let _s = trace::span(Category::Exec, "scan");
//! }
//! let profile = collector.finish();
//! assert_eq!(profile.events.len(), 1);
//! assert!(profile.to_chrome_json().contains("\"scan\""));
//! ```

pub mod collector;
pub mod counters;

pub use collector::{json_escape, Collector, Phase, QueryTrace, TraceEvent};

use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Count of live [`install`] guards across the whole process — the global
/// fast gate every span checks first. Zero ⇒ tracing is off everywhere
/// and spans take the compile-to-nothing path.
static ACTIVE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// The collector installed on this thread, if any.
    static CURRENT: RefCell<Option<Collector>> = const { RefCell::new(None) };
}

/// Subsystem a trace event belongs to; becomes the Chrome trace-event
/// `cat` field, so viewers can filter per layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Category {
    /// SQL front end: parse and bind.
    Sql,
    /// Plan search: memo exploration, exhaustive closure, extraction.
    Optimizer,
    /// Lowering and algorithm selection.
    Planner,
    /// Operator execution and scheduler stage tasks.
    Exec,
    /// Stratum fragments, wire transfers, and placement.
    Stratum,
    /// Resource governance: cancellations, deadlines, budget denials,
    /// wire retries, and local fallbacks.
    Governance,
}

impl Category {
    /// The category's stable string form (the Chrome `cat` field).
    pub fn as_str(self) -> &'static str {
        match self {
            Category::Sql => "sql",
            Category::Optimizer => "optimizer",
            Category::Planner => "planner",
            Category::Exec => "exec",
            Category::Stratum => "stratum",
            Category::Governance => "governance",
        }
    }
}

/// True when a collector is installed *somewhere* in the process. The
/// cheap pre-check; recording additionally requires a collector on the
/// current thread ([`install`]).
#[inline]
pub fn tracing_possible() -> bool {
    ACTIVE.load(Ordering::Relaxed) != 0
}

/// True when the current thread records trace events (a collector is
/// installed here).
#[inline]
pub fn enabled() -> bool {
    tracing_possible() && CURRENT.with(|c| c.borrow().is_some())
}

/// The collector installed on this thread, if any — what the scheduler
/// clones into each stage task so spans on its workers land in the same
/// query trace.
pub fn current() -> Option<Collector> {
    if !tracing_possible() {
        return None;
    }
    CURRENT.with(|c| c.borrow().clone())
}

/// Install `collector` on the current thread for the lifetime of the
/// returned guard. Nested installs stack; the previous collector is
/// restored on drop.
#[must_use = "the collector is uninstalled when the guard drops"]
pub fn install(collector: &Collector) -> InstallGuard {
    let previous = CURRENT.with(|c| c.borrow_mut().replace(collector.clone()));
    ACTIVE.fetch_add(1, Ordering::Relaxed);
    InstallGuard { previous }
}

/// Scope guard of [`install`]; restores the previously installed
/// collector (if any) on drop.
pub struct InstallGuard {
    previous: Option<Collector>,
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        ACTIVE.fetch_sub(1, Ordering::Relaxed);
        CURRENT.with(|c| *c.borrow_mut() = self.previous.take());
    }
}

/// An open span. Records one complete event (begin → drop) into the
/// thread's collector; inert when tracing was disabled at creation.
#[must_use = "a span records its interval when dropped"]
pub struct Span {
    /// `None` = tracing disabled at creation: drop compiles to nothing.
    live: Option<LiveSpan>,
}

struct LiveSpan {
    collector: Collector,
    name: String,
    cat: Category,
    args: String,
    started: Instant,
}

impl Span {
    /// True when this span records (a collector was installed).
    #[inline]
    pub fn active(&self) -> bool {
        self.live.is_some()
    }

    /// Attach Chrome-args JSON fields (e.g. `"rows": 10, "algo": "Sweep"`)
    /// produced by `f`, evaluated only when the span records. Multiple
    /// calls accumulate.
    pub fn note_with(&mut self, f: impl FnOnce() -> String) {
        if let Some(live) = &mut self.live {
            if !live.args.is_empty() {
                live.args.push_str(", ");
            }
            live.args.push_str(&f());
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(live) = self.live.take() {
            let dur = live.started.elapsed();
            live.collector
                .record_complete(live.name, live.cat, live.args, live.started, dur);
        }
    }
}

#[inline]
fn open_span(cat: Category, name: impl FnOnce() -> String, args: impl FnOnce() -> String) -> Span {
    if !tracing_possible() {
        return Span { live: None };
    }
    let Some(collector) = current() else {
        return Span { live: None };
    };
    Span {
        live: Some(LiveSpan {
            collector,
            name: name(),
            cat,
            args: args(),
            started: Instant::now(),
        }),
    }
}

/// Open a span with a static name. Disabled fast path: one relaxed load.
#[inline]
pub fn span(cat: Category, name: &'static str) -> Span {
    open_span(cat, || name.to_owned(), String::new)
}

/// Open a span whose name is computed only when tracing is enabled —
/// for hot paths whose labels would otherwise allocate per call.
#[inline]
pub fn span_with(cat: Category, name: impl FnOnce() -> String) -> Span {
    open_span(cat, name, String::new)
}

/// Open a span over an already-computed label (cloned only when enabled).
#[inline]
pub fn span_owned(cat: Category, name: &str) -> Span {
    open_span(cat, || name.to_owned(), String::new)
}

/// Record a zero-duration instant event; `args` is evaluated only when
/// tracing is enabled and becomes the Chrome `args` object body.
#[inline]
pub fn instant_with(cat: Category, name: impl FnOnce() -> String, args: impl FnOnce() -> String) {
    if !tracing_possible() {
        return;
    }
    if let Some(collector) = current() {
        collector.record_instant(name(), cat, args());
    }
}

/// Record a zero-duration instant event with a static name and no args.
#[inline]
pub fn instant(cat: Category, name: &'static str) {
    instant_with(cat, || name.to_owned(), String::new);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_spans_are_inert() {
        // No collector on this thread: nothing records, nothing panics.
        {
            let mut s = span(Category::Exec, "nothing");
            assert!(!s.active());
            s.note_with(|| unreachable!("args must not be evaluated when disabled"));
        }
        instant_with(
            Category::Exec,
            || unreachable!("name must not be evaluated"),
            || unreachable!("args must not be evaluated"),
        );
    }

    #[test]
    fn install_is_scoped_and_nestable() {
        let outer = Collector::with_capacity(64);
        let inner = Collector::with_capacity(64);
        {
            let _g1 = install(&outer);
            {
                let _s = span(Category::Sql, "outer-1");
            }
            {
                let _g2 = install(&inner);
                {
                    let _s = span(Category::Sql, "inner-1");
                }
            }
            // The outer collector is restored after the nested guard.
            {
                let _s = span(Category::Sql, "outer-2");
            }
        }
        assert!(!enabled());
        let o = outer.finish();
        let i = inner.finish();
        let names = |t: &QueryTrace| t.events.iter().map(|e| e.name.clone()).collect::<Vec<_>>();
        assert_eq!(names(&o), vec!["outer-1", "outer-2"]);
        assert_eq!(names(&i), vec!["inner-1"]);
    }

    #[test]
    fn spans_carry_category_args_and_duration() {
        let c = Collector::with_capacity(64);
        {
            let _g = install(&c);
            let mut s = span_with(Category::Optimizer, || "memo.explore".into());
            s.note_with(|| "\"exprs\": 65".into());
            s.note_with(|| "\"groups\": 9".into());
            drop(s);
            instant_with(
                Category::Governance,
                || "retry 1".into(),
                || "\"attempt\": 1".into(),
            );
        }
        let t = c.finish();
        assert_eq!(t.events.len(), 2);
        let e = &t.events[0];
        assert_eq!(e.name, "memo.explore");
        assert_eq!(e.cat, Category::Optimizer);
        assert!(e.args.contains("\"exprs\": 65") && e.args.contains("\"groups\": 9"));
        assert!(matches!(e.ph, Phase::Complete { .. }));
        assert!(matches!(t.events[1].ph, Phase::Instant));
    }
}
