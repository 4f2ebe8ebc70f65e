//! Process-wide monotonic counters.
//!
//! A tiny static registry of named `AtomicU64`s incremented from hot
//! paths across the workspace (memo search, statistics cache, query
//! scheduler, stratum wire). Unlike the per-query
//! [`Collector`](super::Collector), counters are always on — one relaxed
//! `fetch_add` per increment, no allocation — and accumulate for the
//! whole process. Dump them with [`snapshot`] / [`to_json`], or from the
//! shell with `\counters`.
//!
//! Counters are monotonic: tests and tools should compare *deltas*, not
//! absolutes, since other queries in the same process also increment
//! them.

use std::sync::atomic::{AtomicU64, Ordering};

/// A named monotonic counter.
pub struct Counter {
    name: &'static str,
    help: &'static str,
    value: AtomicU64,
}

impl Counter {
    const fn new(name: &'static str, help: &'static str) -> Self {
        Counter {
            name,
            help,
            value: AtomicU64::new(0),
        }
    }

    /// The counter's registry name (snake_case, stable).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// One-line description of what an increment means.
    pub fn help(&self) -> &'static str {
        self.help
    }

    /// Add `n` to the counter (relaxed; safe from any thread).
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one to the counter.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

macro_rules! counters {
    ($($(#[doc = $doc:expr])+ $vis:vis static $ident:ident = ($name:literal, $help:literal);)+) => {
        $(
            $(#[doc = $doc])+
            $vis static $ident: Counter = Counter::new($name, $help);
        )+

        /// Every registered counter, in declaration order.
        pub fn all() -> &'static [&'static Counter] {
            static ALL: &[&Counter] = &[$(&$ident),+];
            ALL
        }
    };
}

counters! {
    /// Queries run end to end (stratum `run_sql*` entry points).
    pub static QUERIES_EXECUTED = (
        "queries_executed",
        "queries run end to end through the stratum"
    );
    /// Logical expressions added to memo groups during search.
    pub static MEMO_EXPRS = (
        "memo_exprs",
        "logical expressions materialized in memo groups"
    );
    /// Equivalence groups created by memo search.
    pub static MEMO_GROUPS = (
        "memo_groups",
        "equivalence groups created by memo search"
    );
    /// Rule applications attempted by memo search.
    pub static RULES_FIRED = (
        "rules_fired",
        "transformation rule applications during plan search"
    );
    /// Table-statistics requests answered by the table version itself
    /// (measured earlier, or maintained by the mutation that made it).
    pub static STATS_CACHE_HITS = (
        "stats_cache_hits",
        "table statistics served from the table version"
    );
    /// Table-statistics requests that ran a full measurement over the rows.
    pub static STATS_CACHE_MISSES = (
        "stats_cache_misses",
        "table statistics measured in full from base rows"
    );
    /// Statistics discarded through `StatisticsProvider::invalidate_stats`.
    pub static STATS_CACHE_INVALIDATIONS = (
        "stats_cache_invalidations",
        "table statistics discarded by an explicit invalidation"
    );
    /// Row-to-column transposes built (at most one per relation storage).
    pub static TRANSPOSES_BUILT = (
        "transposes_built",
        "columnar transposes built from row storage"
    );
    /// Tuple lists built from a column-born relation's columns (at most
    /// one per relation storage).
    pub static TUPLES_BUILT = (
        "tuples_built",
        "tuple lists built from columns"
    );
    /// DBMS fragments executed and shipped over the wire.
    pub static FRAGMENTS_EXECUTED = (
        "fragments_executed",
        "DBMS fragments executed for stratum queries"
    );
    /// Rows moved DBMS → stratum over the wire.
    pub static WIRE_ROWS = (
        "wire_rows",
        "rows transferred from the DBMS to the stratum"
    );
    /// Bytes moved DBMS → stratum over the wire.
    pub static WIRE_BYTES = (
        "wire_bytes",
        "bytes transferred from the DBMS to the stratum"
    );
    /// Queries stopped by a cooperative cancellation token.
    pub static QUERIES_CANCELLED = (
        "queries_cancelled",
        "queries stopped by a cooperative cancellation token"
    );
    /// Queries stopped because their deadline passed.
    pub static DEADLINES_EXCEEDED = (
        "deadlines_exceeded",
        "queries stopped because their deadline passed"
    );
    /// Memory reservations denied by a query's byte budget.
    pub static BUDGET_DENIALS = (
        "budget_denials",
        "memory reservations denied by a query byte budget"
    );
    /// Transient faults injected into the stratum wire (tests/chaos).
    pub static FAULTS_INJECTED = (
        "faults_injected",
        "transient faults injected into the stratum wire"
    );
    /// Fragment attempts retried after a transient wire fault.
    pub static WIRE_RETRIES = (
        "wire_retries",
        "fragment attempts retried after a transient wire fault"
    );
    /// Fragments answered locally because the DBMS was declared down.
    pub static DBMS_FALLBACKS = (
        "dbms_fallbacks",
        "fragments re-planned locally after the DBMS was declared down"
    );
    /// Fragments whose SQL unparse failed (shipped as plan-only).
    pub static UNPARSE_ERRORS = (
        "unparse_errors",
        "DBMS fragments whose SQL unparse failed"
    );
    /// Queries admitted by the shared pipeline scheduler.
    pub static QUERIES_ADMITTED = (
        "queries_admitted",
        "queries admitted by the multi-query scheduler"
    );
    /// Queries the scheduler's admission control turned away.
    pub static QUERIES_REJECTED = (
        "queries_rejected",
        "queries rejected by scheduler admission control"
    );
    /// Pipeline-stage tasks executed by scheduler workers.
    pub static SCHED_TASKS = (
        "sched_tasks",
        "pipeline-stage tasks executed by the shared worker pool"
    );
    /// TCP connections accepted by the serving front-end.
    pub static SERVE_CONNECTIONS = (
        "serve_connections",
        "connections accepted by the tqo-serve front-end"
    );
    /// Requests handled by the serving front-end (all kinds).
    pub static SERVE_REQUESTS = (
        "serve_requests",
        "wire requests handled by the tqo-serve front-end"
    );
}

/// A point-in-time reading of every counter: `(name, value)` pairs in
/// declaration order.
pub fn snapshot() -> Vec<(&'static str, u64)> {
    all().iter().map(|c| (c.name(), c.get())).collect()
}

/// Render every counter as a JSON object (`{"name": value, ...}`),
/// stable declaration order — the `\counters`/BENCH dump format.
pub fn to_json() -> String {
    let mut out = String::from("{");
    for (i, c) in all().iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("\"{}\": {}", c.name(), c.get()));
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_complete_and_monotonic() {
        let names: Vec<_> = all().iter().map(|c| c.name()).collect();
        assert!(names.contains(&"memo_exprs"));
        assert!(names.contains(&"sched_tasks"));
        assert!(names.contains(&"stats_cache_invalidations"));
        // Unique names.
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len());
        // Every counter carries help text.
        assert!(all().iter().all(|c| !c.help().is_empty()));

        let before = MEMO_EXPRS.get();
        MEMO_EXPRS.add(3);
        MEMO_EXPRS.incr();
        assert_eq!(MEMO_EXPRS.get() - before, 4);
    }

    #[test]
    fn json_dump_covers_every_counter() {
        let json = to_json();
        for c in all() {
            assert!(json.contains(&format!("\"{}\":", c.name())), "{}", c.name());
        }
        assert!(json.starts_with('{') && json.ends_with('}'));
    }
}
