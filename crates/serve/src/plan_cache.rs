//! Prepared plans: the server-wide cache of optimized, lowered plans.
//!
//! A miss plans a statement the way the paper does: compile, then the memo
//! search of Figure 5's rules gated by Table 2's properties
//! ([`optimize_and_lower`]: the default cost model, the default budgets, no
//! wall-clock cut, so a statement plans alike every time), then lower.
//! The search is paid once per statement and session; every hit after it
//! runs the chosen plan.
//!
//! A served plan is fixed by the statement text and, for every table it
//! scans, by two things a table can change: the schema the plan is typed
//! against, and Table 2's base properties (duplicate-freedom,
//! snapshot-duplicate-freedom, coalescedness, order), which license the
//! rewrites the search chose — a plan that dropped an `rdupᵀ` because its
//! input was snapshot-duplicate-free is wrong on an input that is not.
//! Lowering reads neither beyond that, and execution reads its data only
//! from the pinned snapshot's environment and reads no estimate. So an
//! entry is the statement's exact bytes, the `(name, schema, base
//! properties)` of every table its plan scans, and the lowered plan. A
//! lookup hits when every one of those tables has the same schema and
//! base properties in the query's own snapshot, and the plan then runs on
//! that snapshot's data, so its rows are those a fresh compile, optimize
//! and lower would give. A sequenced write that leaves every property
//! alone keeps every entry; one that flips a property, a dropped table, or
//! one registered again with another schema, misses. Only the reused
//! plan's row estimates describe the version it was planned on.
//!
//! The cache holds no table, so it pins no version's columns; a plan pins
//! only the small statistics summary its scans were estimated from.
//!
//! An entry lives no longer than the session that compiled it, so no plan
//! outlives its thread's allocator arena ([`PlanCache::end_session`]).

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::{self, ThreadId};

use tqo_core::error::Result;
use tqo_core::plan::{BaseProps, PlanNode};
use tqo_core::rules::RuleSet;
use tqo_core::schema::Schema;
use tqo_core::sortspec::Order;
use tqo_core::trace::{self, counters, Category};
use tqo_exec::planner::optimize_and_lower;
use tqo_exec::{PhysicalPlan, PlannerConfig};
use tqo_storage::Catalog;

/// Most statements a server keeps an entry for. A new statement at the cap
/// evicts an arbitrary entry; an entry holds a plan and its scans'
/// schemas and base properties, never relation data.
pub const PLAN_CACHE_CAPACITY: usize = 256;

/// Table 2's base properties of one scanned table: what licenses the
/// rewrites a served plan was chosen under.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Licences {
    dup_free: bool,
    snapshot_dup_free: bool,
    coalesced: bool,
    order: Order,
}

impl Licences {
    fn of(props: &BaseProps) -> Licences {
        Licences {
            dup_free: props.dup_free,
            snapshot_dup_free: props.snapshot_dup_free,
            coalesced: props.coalesced,
            order: props.order.clone(),
        }
    }
}

/// What a plan binds of one table it scans.
#[derive(Debug, Clone)]
struct Bound {
    name: String,
    schema: Arc<Schema>,
    licences: Licences,
}

struct Entry {
    /// Every table the plan scans, sorted by name and unique.
    bound: Vec<Bound>,
    plan: Arc<PhysicalPlan>,
    /// The session thread that compiled it: the entry lives no longer than
    /// that session ([`PlanCache::end_session`]).
    owner: ThreadId,
}

/// A point-in-time reading of one server's plan cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanCacheStats {
    /// Lookups answered by a cached plan.
    pub hits: u64,
    /// Lookups that planned (no entry, or an entry bound to other schemas
    /// or base properties).
    pub misses: u64,
    /// Misses whose optimized plan differs from the compiled one.
    pub optimized: u64,
    /// Misses whose search a budget stopped before it closed.
    pub truncated: u64,
    /// Statements the cache holds an entry for now.
    pub entries: usize,
}

/// The cache: one entry per statement text, for the tables it was last
/// planned against.
#[derive(Default)]
pub(crate) struct PlanCache {
    entries: Mutex<HashMap<String, Entry>>,
    /// Statements a session is planning now.
    planning: Mutex<HashSet<String>>,
    /// Signalled when a statement leaves `planning`.
    planned: Condvar,
    hits: AtomicU64,
    misses: AtomicU64,
    optimized: AtomicU64,
    truncated: AtomicU64,
}

/// One session's claim on planning a statement; dropping it wakes the
/// sessions waiting for that search.
struct Claim<'c> {
    cache: &'c PlanCache,
    sql: &'c str,
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        let mut planning = self
            .cache
            .planning
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        planning.remove(self.sql);
        drop(planning);
        self.cache.planned.notify_all();
    }
}

/// The rules every served plan is searched under, built once.
fn rules() -> &'static RuleSet {
    static RULES: OnceLock<RuleSet> = OnceLock::new();
    RULES.get_or_init(RuleSet::standard)
}

impl PlanCache {
    /// The lowered plan of `sql` on `snapshot`: the cached one when every
    /// table it scans has the schema and base properties it was planned
    /// against, else a fresh compile, optimize and lower, kept if it
    /// succeeds. Planning runs outside the entries lock, but one session
    /// at a time plans a statement: sessions that miss on it meanwhile
    /// wait for that search and look its plan up. A miss traces its phases
    /// inside the `plan-cache` span.
    pub(crate) fn plan(&self, sql: &str, snapshot: &Catalog) -> Result<Arc<PhysicalPlan>> {
        let mut span = trace::span(Category::Planner, "plan-cache");
        // Looked up again once claimed: an entry may have landed between
        // the first lookup and the claim.
        let mut claim = None;
        let found = loop {
            let found = self.lookup(sql, snapshot);
            if found.is_some() || claim.is_some() {
                break found;
            }
            claim = self.claim(sql);
        };
        span.note_with(|| format!("\"hit\": {}", found.is_some()));
        if let Some(plan) = found {
            self.hits.fetch_add(1, Ordering::Relaxed);
            counters::PLAN_CACHE_HITS.incr();
            return Ok(plan);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        counters::PLAN_CACHE_MISSES.incr();
        let logical = tqo_sql::compile(sql, snapshot)?;
        let (plan, optimized) = optimize_and_lower(&logical, rules(), PlannerConfig::default())?;
        if optimized.best.root != logical.root {
            self.optimized.fetch_add(1, Ordering::Relaxed);
        }
        if optimized.truncated {
            self.truncated.fetch_add(1, Ordering::Relaxed);
        }
        let plan = Arc::new(plan);
        if let Some(bound) = bound_tables(&logical.root, snapshot) {
            self.insert(sql, bound, Arc::clone(&plan));
        }
        Ok(plan)
    }

    /// Claim the search for `sql`; while another session runs it, wait
    /// for that search to end and return `None` instead. The claim ends
    /// when the returned guard drops, after the plan is inserted or the
    /// search failed.
    fn claim<'c>(&'c self, sql: &'c str) -> Option<Claim<'c>> {
        let mut planning = self.planning.lock().unwrap_or_else(|e| e.into_inner());
        if planning.insert(sql.to_owned()) {
            return Some(Claim { cache: self, sql });
        }
        while planning.contains(sql) {
            planning = self
                .planned
                .wait(planning)
                .unwrap_or_else(|e| e.into_inner());
        }
        None
    }

    /// The map, recovered if a session panicked while holding it: every
    /// update is one `HashMap` call, so the map is whole at every step.
    fn entries(&self) -> MutexGuard<'_, HashMap<String, Entry>> {
        self.entries.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn lookup(&self, sql: &str, snapshot: &Catalog) -> Option<Arc<PhysicalPlan>> {
        let entries = self.entries();
        let entry = entries.get(sql)?;
        let bound = entry.bound.iter().all(|b| {
            snapshot.get(&b.name).is_ok_and(|t| {
                let now = t.schema();
                (Arc::ptr_eq(now, &b.schema) || **now == *b.schema)
                    && Licences::of(t.props()) == b.licences
            })
        });
        bound.then(|| Arc::clone(&entry.plan))
    }

    fn insert(&self, sql: &str, bound: Vec<Bound>, plan: Arc<PhysicalPlan>) {
        let displaced = {
            let mut entries = self.entries();
            let evicted = if entries.len() >= PLAN_CACHE_CAPACITY && !entries.contains_key(sql) {
                let key = entries.keys().next().cloned();
                key.and_then(|k| entries.remove(&k))
            } else {
                None
            };
            let entry = Entry {
                bound,
                plan,
                owner: thread::current().id(),
            };
            (evicted, entries.insert(sql.to_owned(), entry))
        };
        // Freed after the lock, which other sessions' lookups wait for.
        drop(displaced);
    }

    /// Drop the entries the calling session thread compiled; a session
    /// calls this as it ends. A plan is many small allocations in the
    /// compiling thread's allocator arena, and an ended thread's arena is
    /// handed to the next thread started; plans left in it would pin
    /// memory between that thread's large buffers (on `scan_heavy`, +5 MiB
    /// of peak resident set per run).
    pub(crate) fn end_session(&self) {
        let me = thread::current().id();
        self.entries().retain(|_, e| e.owner != me);
    }

    pub(crate) fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            optimized: self.optimized.load(Ordering::Relaxed),
            truncated: self.truncated.load(Ordering::Relaxed),
            entries: self.entries().len(),
        }
    }
}

/// The schema and base properties in `snapshot` of every table `root`
/// scans, subqueries included (the binder leaves them as subtrees of the
/// one plan); `None` if a scanned name is not a table of the snapshot.
/// Read from the compiled plan: rewrites move scans but never add one.
fn bound_tables(root: &PlanNode, snapshot: &Catalog) -> Option<Vec<Bound>> {
    fn walk(node: &PlanNode, snapshot: &Catalog, out: &mut Vec<Bound>) -> Option<()> {
        if let PlanNode::Scan { name, .. } = node {
            let table = snapshot.get(name).ok()?;
            out.push(Bound {
                name: name.clone(),
                schema: Arc::clone(table.schema()),
                licences: Licences::of(table.props()),
            });
        }
        node.children()
            .into_iter()
            .try_for_each(|c| walk(c, snapshot, out))
    }
    let mut bound = Vec::new();
    walk(root, snapshot, &mut bound)?;
    bound.sort_unstable_by(|a, b| a.name.cmp(&b.name));
    bound.dedup_by(|a, b| a.name == b.name);
    Some(bound)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tqo_storage::paper;

    const SQL: &str = "SELECT e.EmpName FROM EMPLOYEE e, PROJECT p WHERE e.EmpName = p.EmpName";

    #[test]
    fn a_plan_records_every_table_it_scans_once() {
        let catalog = paper::catalog();
        let logical = tqo_sql::compile(SQL, &catalog).unwrap();
        let bound = bound_tables(&logical.root, &catalog).unwrap();
        let names: Vec<&str> = bound.iter().map(|b| b.name.as_str()).collect();
        assert_eq!(names, ["EMPLOYEE", "PROJECT"]);
        for b in &bound {
            let table = catalog.get(&b.name).unwrap();
            assert!(Arc::ptr_eq(&b.schema, table.schema()));
            assert_eq!(Licences::of(table.props()), b.licences);
        }
    }

    /// A hit is the plan compile, optimize and lower build on the same
    /// snapshot.
    #[test]
    fn a_hit_is_the_plan_a_fresh_compile_builds() {
        let catalog = paper::catalog();
        let cache = PlanCache::default();
        let first = cache.plan(SQL, &catalog.snapshot()).unwrap();
        let second = cache.plan(SQL, &catalog.snapshot()).unwrap();
        assert!(Arc::ptr_eq(&first, &second));
        let compiled = tqo_sql::compile(SQL, &catalog).unwrap();
        let (fresh, _) =
            optimize_and_lower(&compiled, &RuleSet::standard(), PlannerConfig::default()).unwrap();
        assert_eq!(*second, fresh);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert_eq!(stats.truncated, 0);
    }

    /// Sessions that miss on one statement together run one search: the
    /// others wait for it and hit its plan.
    #[test]
    fn concurrent_misses_on_one_statement_plan_it_once() {
        let catalog = paper::catalog();
        let cache = PlanCache::default();
        let sessions = 4;
        let start = std::sync::Barrier::new(sessions);
        let plans: Vec<Arc<PhysicalPlan>> = thread::scope(|s| {
            let workers: Vec<_> = (0..sessions)
                .map(|_| {
                    s.spawn(|| {
                        let snapshot = catalog.snapshot();
                        start.wait();
                        cache.plan(SQL, &snapshot).unwrap()
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        assert!(plans.iter().all(|p| Arc::ptr_eq(p, &plans[0])));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (sessions as u64 - 1, 1));
        assert!(cache.planning.lock().unwrap().is_empty());
    }

    /// A trace says why a hit has no `parse`, `bind`, `optimize` or
    /// `lower` span, also when the table was written since the plan was
    /// compiled; on a miss those spans nest in the `plan-cache` span.
    #[test]
    fn a_traced_hit_records_the_lookup_in_place_of_the_front_end() {
        use tqo_core::trace::{install, Collector, Phase, TraceEvent};
        let catalog = paper::catalog();
        let cache = PlanCache::default();
        let traced = |cache: &PlanCache| {
            let collector = Collector::with_capacity(4096);
            {
                let _installed = install(&collector);
                cache.plan(SQL, &catalog.snapshot()).unwrap();
            }
            collector.finish().events
        };
        let named = |events: &[TraceEvent]| {
            events
                .iter()
                .map(|e| format!("{} {}", e.name, e.args))
                .collect::<Vec<_>>()
        };
        let span = |e: &TraceEvent| match e.ph {
            Phase::Complete { dur } => (e.ts, e.ts + dur),
            Phase::Instant => (e.ts, e.ts),
        };
        let events = traced(&cache);
        let miss = named(&events);
        assert!(
            miss.contains(&"plan-cache \"hit\": false".to_owned()),
            "{miss:?}"
        );
        let lookup = events.iter().find(|e| e.name == "plan-cache").unwrap();
        let (start, end) = span(lookup);
        for phase in ["parse", "bind", "optimize", "lower"] {
            let inner = events.iter().find(|e| e.name == phase);
            let (s, e) = span(inner.unwrap_or_else(|| panic!("no {phase}: {miss:?}")));
            assert!(start <= s && e <= end, "{phase} outside plan-cache");
        }
        catalog
            .insert_sequenced(
                "EMPLOYEE",
                vec!["Zoe".into(), "Audit".into()],
                tqo_core::time::Period::of(2, 9),
            )
            .unwrap();
        let hit = named(&traced(&cache));
        assert_eq!(hit, ["plan-cache \"hit\": true"]);
    }

    /// The cost the cache adds to a hit: the lookup and the schema check.
    /// Printed, not asserted (`--nocapture` shows it); a debug build reads
    /// several times a release one.
    #[test]
    fn hit_cost() {
        let catalog = paper::catalog();
        let snapshot = catalog.snapshot();
        let cache = PlanCache::default();
        cache.plan(SQL, &snapshot).unwrap();
        let n = 10_000u32;
        let started = std::time::Instant::now();
        for _ in 0..n {
            assert!(cache.lookup(SQL, &snapshot).is_some());
        }
        eprintln!("plan cache hit: {:?} per lookup", started.elapsed() / n);
    }
}
