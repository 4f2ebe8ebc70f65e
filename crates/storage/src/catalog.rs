//! A thread-safe catalog of named tables, and the statistics provider the
//! optimizer plans against.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use tqo_core::error::{Error, Result};
use tqo_core::interp::Env;
use tqo_core::plan::BaseProps;
use tqo_core::relation::Relation;
use tqo_core::stats::TableSummary;

use crate::ledger::Ledger;
use crate::table::Table;

/// The statistics interface planners consume: per-table statistics that
/// always describe the table's current version — measured on first use,
/// maintained (not invalidated) by every modification.
/// [`Catalog`] is the storage-backed implementation;
/// alternative backends (remote catalogs, statistics snapshots) implement
/// the same trait.
///
/// ```
/// use tqo_storage::{paper, StatisticsProvider};
///
/// let catalog = paper::catalog();
/// // The summary `Scan` nodes embed for the optimizer.
/// let stats = catalog.table_stats("EMPLOYEE").expect("cataloged");
/// assert_eq!(stats.rows, 5);
/// ```
pub trait StatisticsProvider {
    /// Measured statistics for `name`, if the table exists.
    fn table_stats(&self, name: &str) -> Option<Arc<TableSummary>>;

    /// Discard what is known about `name`, so the next request measures
    /// its rows in full (an escape hatch; no modification path needs it).
    fn invalidate_stats(&self, name: &str);
}

/// Where a table's modification ledger waits between modifications.
/// Holding the lock is also what makes a writer of that table the only
/// one.
type WriterSlot = Arc<Mutex<Option<Box<Ledger>>>>;

/// A shared, concurrently readable catalog: a map from names to the
/// current [`Table`] version of each.
///
/// Readers take the map's lock only long enough to copy pointers and never
/// wait for a modification to be computed; writers serialize per table and
/// take the map's write lock only to swap the next version in.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    tables: Arc<RwLock<HashMap<String, Arc<Table>>>>,
    /// Per-name writer slots, created on first use and kept for the
    /// catalog's lifetime.
    writers: Arc<Mutex<HashMap<String, WriterSlot>>>,
}

fn unknown_table(name: &str) -> Error {
    Error::Storage {
        reason: format!("unknown table `{name}`"),
    }
}

impl Catalog {
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Pin the current version of every table: a frozen catalog of its own
    /// that later modifications of this one do not reach (and vice versa).
    /// A query binds, lowers and runs against one snapshot, so the base
    /// properties its plan was licensed by are those of the data it reads.
    pub fn snapshot(&self) -> Catalog {
        Catalog {
            tables: Arc::new(RwLock::new(self.tables.read().clone())),
            writers: Arc::default(),
        }
    }

    /// The writer slot of a table that exists (or is being registered):
    /// requests naming unknown tables must not grow the map.
    fn writer(&self, name: &str) -> WriterSlot {
        let mut writers = self.writers.lock();
        writers.entry(name.to_owned()).or_default().clone()
    }

    /// Register (or overwrite) a table built from a relation.
    pub fn register(&self, name: impl Into<String>, relation: Relation) -> Result<()> {
        let name = name.into();
        let table = Arc::new(Table::new(name.clone(), relation)?);
        let writer = self.writer(&name);
        let mut parked = writer.lock();
        *parked = None;
        self.tables.write().insert(name, table);
        Ok(())
    }

    /// Drop a table; errors when absent.
    pub fn drop_table(&self, name: &str) -> Result<()> {
        self.get(name)?;
        let writer = self.writer(name);
        let mut parked = writer.lock();
        *parked = None;
        // The dropped table is released after the catalog-wide lock, as in
        // `with_table_mut`.
        let dropped = self.tables.write().remove(name);
        dropped.map(|_| ()).ok_or_else(|| unknown_table(name))
    }

    pub fn get(&self, name: &str) -> Result<Arc<Table>> {
        self.tables
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| unknown_table(name))
    }

    pub fn contains(&self, name: &str) -> bool {
        self.tables.read().contains_key(name)
    }

    /// Base properties for planning a scan of `name`, with the table's
    /// statistics attached — every catalog-compiled plan estimates from
    /// data.
    pub fn base_props(&self, name: &str) -> Result<BaseProps> {
        Ok(self.get(name)?.planning_props())
    }

    /// Modify a table: the closure receives a working copy of the current
    /// version and the catalog swaps the result in on success. Writers of
    /// one table serialize, so concurrent modifications are never lost;
    /// nobody else waits — readers of this table keep getting the current
    /// version until the swap (and keep whatever version they already
    /// hold), and other tables are not involved at all.
    pub fn with_table_mut(
        &self,
        name: &str,
        f: impl FnOnce(&mut Table) -> Result<()>,
    ) -> Result<()> {
        self.get(name)?;
        let writer = self.writer(name);
        let mut parked = writer.lock();
        // Re-read under the writer lock: this is the version to succeed.
        let mut working = Table::clone(&*self.get(name)?);
        // A failed modification drops the ledger with the working copy;
        // the next one opens a fresh one.
        working.ledger = parked.take();
        f(&mut working)?;
        *parked = working.ledger.take();
        let displaced = self
            .tables
            .write()
            .insert(name.to_owned(), Arc::new(working));
        // Released only now, after the catalog-wide lock: freeing a
        // version's columns (on a first write, also the registered
        // version's tuple list) must not make readers of other tables wait.
        drop(displaced);
        Ok(())
    }

    /// Sorted table names.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tables.read().keys().cloned().collect();
        names.sort_unstable();
        names
    }

    /// The catalog's current versions as an interpreter environment.
    pub fn env(&self) -> Env {
        let tables = self.tables.read();
        tables
            .iter()
            .map(|(name, table)| (name.clone(), table.relation().clone()))
            .collect()
    }
}

impl StatisticsProvider for Catalog {
    fn table_stats(&self, name: &str) -> Option<Arc<TableSummary>> {
        self.get(name).ok().map(|t| t.stats())
    }

    fn invalidate_stats(&self, name: &str) {
        // Unknown names have nothing to invalidate.
        let _ = self.with_table_mut(name, |t| {
            t.forget_measurements();
            Ok(())
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tqo_core::schema::Schema;
    use tqo_core::tuple;
    use tqo_core::value::DataType;

    fn rel() -> Relation {
        Relation::new(
            Schema::temporal(&[("E", DataType::Str)]),
            vec![tuple!["a", 1i64, 5i64]],
        )
        .unwrap()
    }

    #[test]
    fn register_get_drop() {
        let cat = Catalog::new();
        cat.register("T", rel()).unwrap();
        assert!(cat.contains("T"));
        assert_eq!(cat.get("T").unwrap().len(), 1);
        assert_eq!(cat.names(), vec!["T".to_string()]);
        cat.drop_table("T").unwrap();
        assert!(!cat.contains("T"));
        assert!(cat.drop_table("T").is_err());
        assert!(cat.get("T").is_err());
    }

    /// Table names arrive over the wire: a request naming a table that
    /// does not exist must fail without leaving anything behind.
    #[test]
    fn unknown_names_leave_no_writer_slot() {
        let cat = Catalog::new();
        assert!(cat.with_table_mut("NOPE", |_| Ok(())).is_err());
        assert!(cat.drop_table("NOPE").is_err());
        cat.invalidate_stats("NOPE");
        assert!(cat.writers.lock().is_empty());
    }

    #[test]
    fn base_props_reflect_data() {
        let cat = Catalog::new();
        cat.register("T", rel()).unwrap();
        let props = cat.base_props("T").unwrap();
        assert!(props.snapshot_dup_free);
        assert_eq!(props.card, 1);
        // Measured statistics ride along for estimation.
        let summary = props.stats.expect("summary attached");
        assert_eq!(summary.rows, 1);
        assert_eq!(summary.column("E").unwrap().distinct, 1);
    }

    #[test]
    fn env_contains_all_tables() {
        let cat = Catalog::new();
        cat.register("A", rel()).unwrap();
        cat.register("B", rel()).unwrap();
        let env = cat.env();
        assert!(env.get("A").is_ok());
        assert!(env.get("B").is_ok());
        assert!(env.get("C").is_err());
    }

    #[test]
    fn clones_share_state() {
        let cat = Catalog::new();
        let clone = cat.clone();
        cat.register("T", rel()).unwrap();
        assert!(clone.contains("T"));
    }

    #[test]
    fn statistics_provider_caches_and_invalidates() {
        let cat = Catalog::new();
        cat.register("T", rel()).unwrap();
        let stats = cat.table_stats("T").unwrap();
        assert_eq!(stats.rows, 1);
        // Second read hits the same cached Arc.
        assert!(Arc::ptr_eq(&stats, &cat.table_stats("T").unwrap()));
        cat.invalidate_stats("T");
        let fresh = cat.table_stats("T").unwrap();
        assert!(!Arc::ptr_eq(&stats, &fresh));
        assert_eq!(fresh.rows, 1);
        assert!(cat.table_stats("MISSING").is_none());
    }

    #[test]
    fn with_table_mut_swaps_and_remeasures() {
        let cat = Catalog::new();
        cat.register("T", rel()).unwrap();
        cat.with_table_mut("T", |t| t.insert(vec![tuple!["b", 2i64, 4i64]]))
            .unwrap();
        assert_eq!(cat.get("T").unwrap().len(), 2);
        assert_eq!(
            cat.table_stats("T").unwrap().column("E").unwrap().distinct,
            2
        );
        // Failed mutations leave the stored table untouched.
        let before = cat.get("T").unwrap();
        assert!(cat
            .with_table_mut("T", |t| t.insert(vec![tuple!["x", 9i64, 3i64]]))
            .is_err());
        assert!(Arc::ptr_eq(&before, &cat.get("T").unwrap()));
    }

    /// A query binds and runs against one snapshot: the base properties a
    /// plan was licensed by and the tuples it reads are one version, even
    /// when a modification lands in between.
    #[test]
    fn a_snapshot_pins_properties_and_data_of_one_version() {
        let live = Catalog::new();
        live.register("T", rel()).unwrap();
        let pinned = live.snapshot();
        // Overlaps `a`'s [1,5): the live table now has snapshot duplicates.
        live.insert_sequenced("T", vec!["a".into()], tqo_core::time::Period::of(3, 8))
            .unwrap();
        for (catalog, rows, sdf) in [(&pinned, 1, true), (&live, 2, false)] {
            let props = catalog.base_props("T").unwrap();
            let env = catalog.env();
            let data = env.get("T").unwrap();
            assert_eq!(props.snapshot_dup_free, sdf);
            assert_eq!(!data.has_snapshot_duplicates().unwrap(), sdf);
            assert_eq!((props.card, data.len() as u64), (rows, rows));
            assert_eq!(props.stats.unwrap().rows, rows);
        }
        // And the other way round: a snapshot is a catalog of its own.
        pinned.drop_table("T").unwrap();
        assert!(live.contains("T"));
    }

    /// A modification in progress on one table holds no lock a reader
    /// needs — not of another table, not even of the same one.
    #[test]
    fn readers_do_not_wait_for_a_modification_in_progress() {
        use std::sync::mpsc::channel;
        use std::time::Duration;
        let cat = Catalog::new();
        cat.register("A", rel()).unwrap();
        cat.register("B", rel()).unwrap();
        let (entered_tx, entered) = channel();
        let (release, parked) = channel::<()>();
        let cat = &cat;
        std::thread::scope(|s| {
            let writer = s.spawn(move || {
                cat.with_table_mut("A", |t| {
                    entered_tx.send(()).unwrap();
                    parked.recv().unwrap();
                    t.insert(vec![tuple!["b", 2i64, 4i64]])
                })
            });
            entered.recv().unwrap();
            // The closure is parked mid-modification; read on another
            // thread so a regression fails by timeout instead of hanging.
            let (done_tx, done) = channel();
            s.spawn(move || {
                let b = cat.get("B").unwrap().len();
                let a = cat.base_props("A").unwrap().card;
                done_tx
                    .send((b, a, cat.env().get("A").unwrap().len()))
                    .unwrap();
            });
            let read = done.recv_timeout(Duration::from_secs(20));
            release.send(()).unwrap();
            writer.join().unwrap().unwrap();
            assert_eq!(read, Ok((1, 1, 1)), "readers saw the current versions");
        });
        assert_eq!(cat.get("A").unwrap().len(), 2);
    }

    /// Writers of one table serialize: the second starts from the first's
    /// result, so neither update is lost.
    #[test]
    fn concurrent_writers_of_one_table_lose_no_update() {
        let cat = Catalog::new();
        cat.register("T", rel()).unwrap();
        std::thread::scope(|s| {
            for w in 0..4i64 {
                let cat = &cat;
                s.spawn(move || {
                    for i in 0..25i64 {
                        let start = 100 * w + 2 * i;
                        cat.insert_sequenced(
                            "T",
                            vec!["w".into()],
                            tqo_core::time::Period::of(start, start + 1),
                        )
                        .unwrap();
                    }
                });
            }
        });
        let table = cat.get("T").unwrap();
        assert_eq!(table.len(), 101);
        assert_eq!(
            *table.props(),
            crate::table::derive_props(table.relation()).unwrap()
        );
        assert_eq!(
            *table.stats(),
            TableSummary::measure(table.relation()).unwrap()
        );
    }
}
