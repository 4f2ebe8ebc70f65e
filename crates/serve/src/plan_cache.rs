//! Prepared plans: the server-wide cache of lowered plans.
//!
//! A served plan is fixed by the statement text and by the schemas of the
//! tables it binds, and by nothing else a write can change: lowering reads
//! no Table 2 property, and execution reads its data only from the pinned
//! snapshot's environment and reads no estimate. So an entry is the
//! statement's exact bytes, the `(name, schema)` of every table its plan
//! scans, and the lowered plan. A lookup hits when every one of those
//! tables has the same schema in the query's own snapshot, and the plan
//! then runs on that snapshot's data, so its rows are those a fresh
//! `compile` + `lower` would give. A sequenced write keeps every entry; a
//! dropped table, or one registered again with another schema, misses.
//! Only the reused plan's row estimates describe the version it was
//! compiled on.
//!
//! The cache holds no table, so it pins no version's columns; a plan pins
//! only the small statistics summary its scans were estimated from.
//!
//! An entry lives no longer than the session that compiled it, so no plan
//! outlives its thread's allocator arena ([`PlanCache::end_session`]).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::{self, ThreadId};

use tqo_core::error::Result;
use tqo_core::plan::PlanNode;
use tqo_core::schema::Schema;
use tqo_core::trace::{self, counters, Category};
use tqo_exec::{lower, PhysicalPlan, PlannerConfig};
use tqo_storage::Catalog;

/// Most statements a server keeps an entry for. A new statement at the cap
/// evicts an arbitrary entry; an entry holds a plan and its scans'
/// schemas, never relation data.
pub const PLAN_CACHE_CAPACITY: usize = 256;

/// The `(name, schema)` of every table a plan scans, sorted and unique.
type Schemas = Vec<(String, Arc<Schema>)>;

struct Entry {
    schemas: Schemas,
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
    /// Lookups that compiled (no entry, or an entry of other schemas).
    pub misses: u64,
    /// Statements the cache holds an entry for now.
    pub entries: usize,
}

/// The cache: one entry per statement text, for the schemas it was last
/// compiled against.
#[derive(Default)]
pub(crate) struct PlanCache {
    entries: Mutex<HashMap<String, Entry>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl PlanCache {
    /// The lowered plan of `sql` on `snapshot`: the cached one when every
    /// table it scans has the schema it was compiled against, else a fresh
    /// `compile` + `lower`, kept if it succeeds. Compiling runs outside the
    /// lock, so two sessions that miss on one statement may both compile
    /// it; the later insert wins.
    pub(crate) fn plan(&self, sql: &str, snapshot: &Catalog) -> Result<Arc<PhysicalPlan>> {
        let found = {
            let mut span = trace::span(Category::Planner, "plan-cache");
            let found = self.lookup(sql, snapshot);
            span.note_with(|| format!("\"hit\": {}", found.is_some()));
            found
        };
        if let Some(plan) = found {
            self.hits.fetch_add(1, Ordering::Relaxed);
            counters::PLAN_CACHE_HITS.incr();
            return Ok(plan);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        counters::PLAN_CACHE_MISSES.incr();
        let logical = tqo_sql::compile(sql, snapshot)?;
        let plan = Arc::new(lower(&logical, PlannerConfig::default())?);
        if let Some(schemas) = scanned_schemas(&logical.root, snapshot) {
            self.insert(sql, schemas, Arc::clone(&plan));
        }
        Ok(plan)
    }

    /// The map, recovered if a session panicked while holding it: every
    /// update is one `HashMap` call, so the map is whole at every step.
    fn entries(&self) -> MutexGuard<'_, HashMap<String, Entry>> {
        self.entries.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn lookup(&self, sql: &str, snapshot: &Catalog) -> Option<Arc<PhysicalPlan>> {
        let entries = self.entries();
        let entry = entries.get(sql)?;
        let bound = entry.schemas.iter().all(|(name, schema)| {
            snapshot.get(name).is_ok_and(|t| {
                let now = t.schema();
                Arc::ptr_eq(now, schema) || **now == **schema
            })
        });
        bound.then(|| Arc::clone(&entry.plan))
    }

    fn insert(&self, sql: &str, schemas: Schemas, plan: Arc<PhysicalPlan>) {
        let displaced = {
            let mut entries = self.entries();
            let evicted = if entries.len() >= PLAN_CACHE_CAPACITY && !entries.contains_key(sql) {
                let key = entries.keys().next().cloned();
                key.and_then(|k| entries.remove(&k))
            } else {
                None
            };
            let entry = Entry {
                schemas,
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
            entries: self.entries().len(),
        }
    }
}

/// The schema in `snapshot` of every table `root` scans, subqueries
/// included (the binder leaves them as subtrees of the one plan); `None`
/// if a scanned name is not a table of the snapshot.
fn scanned_schemas(root: &PlanNode, snapshot: &Catalog) -> Option<Schemas> {
    fn walk(node: &PlanNode, snapshot: &Catalog, out: &mut Schemas) -> Option<()> {
        if let PlanNode::Scan { name, .. } = node {
            let table = snapshot.get(name).ok()?;
            out.push((name.clone(), Arc::clone(table.schema())));
        }
        node.children()
            .into_iter()
            .try_for_each(|c| walk(c, snapshot, out))
    }
    let mut schemas = Vec::new();
    walk(root, snapshot, &mut schemas)?;
    schemas.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    schemas.dedup_by(|a, b| a.0 == b.0);
    Some(schemas)
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
        let schemas = scanned_schemas(&logical.root, &catalog).unwrap();
        let names: Vec<&str> = schemas.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["EMPLOYEE", "PROJECT"]);
        for (name, schema) in &schemas {
            assert!(Arc::ptr_eq(schema, catalog.get(name).unwrap().schema()));
        }
    }

    /// A hit is the plan `compile` + `lower` builds on the same snapshot.
    #[test]
    fn a_hit_is_the_plan_a_fresh_compile_builds() {
        let catalog = paper::catalog();
        let cache = PlanCache::default();
        let first = cache.plan(SQL, &catalog.snapshot()).unwrap();
        let second = cache.plan(SQL, &catalog.snapshot()).unwrap();
        assert!(Arc::ptr_eq(&first, &second));
        let fresh = lower(
            &tqo_sql::compile(SQL, &catalog).unwrap(),
            PlannerConfig::default(),
        )
        .unwrap();
        assert_eq!(*second, fresh);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    /// A trace says why a hit has no `parse`, `bind` or `lower` span, also
    /// when the table was written since the plan was compiled.
    #[test]
    fn a_traced_hit_records_the_lookup_in_place_of_the_front_end() {
        use tqo_core::trace::{install, Collector};
        let catalog = paper::catalog();
        let cache = PlanCache::default();
        let traced = |cache: &PlanCache| {
            let collector = Collector::with_capacity(64);
            {
                let _installed = install(&collector);
                cache.plan(SQL, &catalog.snapshot()).unwrap();
            }
            let events = collector.finish().events;
            events
                .into_iter()
                .map(|e| format!("{} {}", e.name, e.args))
                .collect::<Vec<_>>()
        };
        let miss = traced(&cache);
        assert!(
            miss.contains(&"plan-cache \"hit\": false".to_owned()),
            "{miss:?}"
        );
        for phase in ["parse", "bind", "lower"] {
            assert!(miss.iter().any(|e| e.starts_with(phase)), "{miss:?}");
        }
        catalog
            .insert_sequenced(
                "EMPLOYEE",
                vec!["Zoe".into(), "Audit".into()],
                tqo_core::time::Period::of(2, 9),
            )
            .unwrap();
        let hit = traced(&cache);
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
