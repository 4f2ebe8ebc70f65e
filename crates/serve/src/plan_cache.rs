//! Prepared plans: the server-wide cache of lowered plans.
//!
//! A served statement compiles and lowers against a pinned snapshot, and
//! what that produces is fixed by the statement text and by the versions
//! of the tables it binds: each table version fixes Table 2's base
//! properties and the statistics the plan was licensed and estimated by.
//! So an entry is the statement's exact bytes, the `(name, version)` of
//! every table its plan scans, and the lowered plan. A lookup hits only
//! when every one of those tables has the same version in the snapshot the
//! query then executes on, so plan, properties and data are always one
//! version. A sequenced write publishes a new version and invalidates by
//! mismatch; no protocol runs between writers and the cache.
//!
//! Versions are [`Table::version`](tqo_storage::Table::version) ids, never
//! `Arc<Table>` addresses: a freed version's address can be reused by its
//! successor, and a plan keyed on it would hit stale. The cache holds no
//! table either, so it pins no version's columns.
//!
//! Two rules keep plans from costing memory or time elsewhere. An entry
//! lives no longer than the session that compiled it, so no plan outlives
//! its thread's allocator arena ([`PlanCache::end_session`]). And a
//! statement whose plan went stale without serving a hit keeps only its
//! versions until it is asked for again at them, so a table written
//! between every two reads makes no session free another's plan
//! ([`PlanCache::plan`]).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::{self, ThreadId};

use tqo_core::error::Result;
use tqo_core::plan::PlanNode;
use tqo_core::trace::{self, counters, Category};
use tqo_exec::{lower, PhysicalPlan, PlannerConfig};
use tqo_storage::Catalog;

/// Most statements a server keeps an entry for. A new statement at the cap
/// evicts an arbitrary entry; an entry holds a plan and its scans'
/// properties, never relation data.
pub const PLAN_CACHE_CAPACITY: usize = 256;

/// The `(name, version)` of every table a plan scans, sorted and unique.
type Versions = Vec<(String, u64)>;

struct Entry {
    versions: Versions,
    /// `None` while the statement churns: its last plan went stale without
    /// serving a hit, so the next one is kept only once the statement is
    /// asked for again at the versions it was compiled for.
    plan: Option<Arc<PhysicalPlan>>,
    /// Whether `plan` has served a hit.
    hit: bool,
    /// The session thread that compiled it: the entry lives no longer than
    /// that session ([`PlanCache::end_session`]).
    owner: ThreadId,
}

/// What a lookup found.
enum Lookup {
    Hit(Arc<PhysicalPlan>),
    /// Compile; keep the plan only if `keep`.
    Miss {
        keep: bool,
    },
}

/// A point-in-time reading of one server's plan cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanCacheStats {
    /// Lookups answered by a cached plan.
    pub hits: u64,
    /// Lookups that compiled (no entry, or an entry of older versions).
    pub misses: u64,
    /// Statements the cache holds an entry for now.
    pub entries: usize,
}

/// The cache: one entry per statement text, for the versions it was last
/// compiled against.
#[derive(Default)]
pub(crate) struct PlanCache {
    entries: Mutex<HashMap<String, Entry>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl PlanCache {
    /// The lowered plan of `sql` on `snapshot`: the cached one when every
    /// table it scans is at the version it was compiled against, else a
    /// fresh `compile` + `lower`. Compiling runs outside the lock, so two
    /// sessions that miss on one statement may both compile it; the later
    /// insert wins.
    ///
    /// A successful compile is kept unless the statement churns: when its
    /// previous plan went stale without serving a hit, only the versions
    /// are kept, and the plan of a later compile at those same versions is.
    /// Under a write between every two reads no plan is kept, so none is
    /// freed by another session: with two sessions, freeing a plan the
    /// other one compiled took ~10 µs, against ~1.4 µs for one's own.
    pub(crate) fn plan(&self, sql: &str, snapshot: &Catalog) -> Result<Arc<PhysicalPlan>> {
        let found = {
            let mut span = trace::span(Category::Planner, "plan-cache");
            let found = self.lookup(sql, snapshot);
            span.note_with(|| format!("\"hit\": {}", matches!(found, Lookup::Hit(_))));
            found
        };
        let keep = match found {
            Lookup::Hit(plan) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                counters::PLAN_CACHE_HITS.incr();
                return Ok(plan);
            }
            Lookup::Miss { keep } => keep,
        };
        self.misses.fetch_add(1, Ordering::Relaxed);
        counters::PLAN_CACHE_MISSES.incr();
        let logical = tqo_sql::compile(sql, snapshot)?;
        let plan = Arc::new(lower(&logical, PlannerConfig::default())?);
        if let Some(versions) = scanned_versions(&logical.root, snapshot) {
            self.insert(sql, versions, keep.then(|| Arc::clone(&plan)));
        }
        Ok(plan)
    }

    /// The map, recovered if a session panicked while holding it: every
    /// update is one `HashMap` call, so the map is whole at every step.
    fn entries(&self) -> MutexGuard<'_, HashMap<String, Entry>> {
        self.entries.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn lookup(&self, sql: &str, snapshot: &Catalog) -> Lookup {
        let mut entries = self.entries();
        let Some(entry) = entries.get_mut(sql) else {
            return Lookup::Miss { keep: true };
        };
        let current = entry
            .versions
            .iter()
            .all(|(name, version)| snapshot.get(name).is_ok_and(|t| t.version() == *version));
        match (&entry.plan, current) {
            (Some(plan), true) => {
                entry.hit = true;
                Lookup::Hit(Arc::clone(plan))
            }
            // Asked again at the versions it was compiled for.
            (None, true) => Lookup::Miss { keep: true },
            (_, false) => Lookup::Miss { keep: entry.hit },
        }
    }

    fn insert(&self, sql: &str, versions: Versions, plan: Option<Arc<PhysicalPlan>>) {
        let displaced = {
            let mut entries = self.entries();
            let evicted = if entries.len() >= PLAN_CACHE_CAPACITY && !entries.contains_key(sql) {
                let key = entries.keys().next().cloned();
                key.and_then(|k| entries.remove(&k))
            } else {
                None
            };
            let entry = Entry {
                versions,
                plan,
                hit: false,
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

/// The version in `snapshot` of every table `root` scans, subqueries
/// included (the binder leaves them as subtrees of the one plan); `None`
/// if a scanned name is not a table of the snapshot.
fn scanned_versions(root: &PlanNode, snapshot: &Catalog) -> Option<Versions> {
    fn walk(node: &PlanNode, snapshot: &Catalog, out: &mut Versions) -> Option<()> {
        if let PlanNode::Scan { name, .. } = node {
            out.push((name.clone(), snapshot.get(name).ok()?.version()));
        }
        node.children()
            .into_iter()
            .try_for_each(|c| walk(c, snapshot, out))
    }
    let mut versions = Vec::new();
    walk(root, snapshot, &mut versions)?;
    versions.sort_unstable();
    versions.dedup();
    Some(versions)
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
        let versions = scanned_versions(&logical.root, &catalog).unwrap();
        let names: Vec<&str> = versions.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["EMPLOYEE", "PROJECT"]);
        for (name, version) in &versions {
            assert_eq!(*version, catalog.get(name).unwrap().version());
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

    /// A trace says why a hit has no `parse`, `bind` or `lower` span.
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
        let hit = traced(&cache);
        assert_eq!(hit, ["plan-cache \"hit\": true"]);
    }

    /// The cost the cache adds to a hit: the lookup and the version check.
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
            assert!(matches!(cache.lookup(SQL, &snapshot), Lookup::Hit(_)));
        }
        eprintln!("plan cache hit: {:?} per lookup", started.elapsed() / n);
    }
}
