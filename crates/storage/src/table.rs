//! Stored tables: one immutable version of a relation and everything the
//! planner and the engines need to know about it.

use std::sync::{Arc, OnceLock};

use tqo_core::columnar::{Column, ColumnarRelation};
use tqo_core::error::Result;
use tqo_core::plan::BaseProps;
use tqo_core::relation::{self, Relation};
use tqo_core::schema::Schema;
use tqo_core::stats::{RelationProfile, TableSummary};
use tqo_core::trace::counters;
use tqo_core::tuple::Tuple;

use crate::ledger::Ledger;

/// One version of a stored relation: its list (tuples, columns, or both —
/// each layout resident in the relation's storage once built), Table 2's
/// base properties of exactly that list, and its statistics. The catalog
/// publishes versions behind an `Arc` and never changes one; a query that
/// pinned a version plans and runs against the same data.
///
/// Every version is born in columns, its tuple list built only on demand:
/// [`Table::new`] keeps its relation's columns (transposing a tuple-born
/// one once), and the `&mut self` modifiers, which turn a working copy
/// into the *next* version, copy the current version's columns run by
/// run. They validate only the tuples that enter, and bring properties
/// and statistics up to date from a modification ledger by re-examining
/// only the value classes those tuples belong to — with results equal to
/// deriving both from scratch ([`derive_props`],
/// [`TableSummary::measure`]). Statistics of a version nobody modified
/// yet are measured on first use, reusing registration's class profile.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    /// Shared by every version a registration's modifications make.
    schema: Arc<Schema>,
    relation: Relation,
    props: BaseProps,
    /// What `props` was read off, reused by the first statistics request;
    /// forgotten with the statistics.
    profile: Option<RelationProfile>,
    stats: OnceLock<Arc<TableSummary>>,
    /// Opened by the first modification and carried from each working copy
    /// to the next (the catalog parks it between modifications); never on
    /// a published version.
    pub(crate) ledger: Option<Box<Ledger>>,
}

impl Table {
    /// Create a table, deriving honest base properties from the data:
    /// duplicate-freedom, snapshot-duplicate-freedom, and coalescedness are
    /// measured, not assumed, in one pass over the columns. The table keeps
    /// `relation`'s columns only (a tuple-born relation is transposed here,
    /// once), each string column over a sorted dictionary, so scans order
    /// and compare its values on codes; its tuple list, if it has one,
    /// stays with the caller.
    pub fn new(name: impl Into<String>, relation: Relation) -> Result<Table> {
        let columnar = relation.columnar()?;
        let columns = columnar
            .columns()
            .iter()
            .map(|c| c.sorted_strings().map_or_else(|| Arc::clone(c), Arc::new))
            .collect();
        let relation = Relation::from_columnar(ColumnarRelation::new(
            Arc::clone(columnar.schema()),
            columns,
        ));
        let profile = RelationProfile::measure(&relation)?;
        Ok(Table {
            name: name.into(),
            schema: Arc::new(relation.schema().clone()),
            props: BaseProps::from_profile(relation.schema().clone(), &profile),
            profile: Some(profile),
            relation,
            stats: OnceLock::new(),
            ledger: None,
        })
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn relation(&self) -> &Relation {
        &self.relation
    }

    /// The relation's schema, one allocation for [`Table::new`]'s version
    /// and every version modified from it: what a served plan is typed
    /// against, and the only part of a table it depends on.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Declared base properties *without* statistics; planners wanting
    /// statistics-driven estimation use [`Table::planning_props`].
    pub fn props(&self) -> &BaseProps {
        &self.props
    }

    /// Base properties with the [`TableSummary`] attached — what
    /// catalog-backed scans embed so the optimizer estimates from data.
    pub fn planning_props(&self) -> BaseProps {
        self.props.clone().with_summary(self.stats())
    }

    /// This version's statistics, measured from the columns (and the
    /// profile, if it was forgotten) on first use unless a modification
    /// already brought them up to date.
    pub fn stats(&self) -> Arc<TableSummary> {
        if let Some(known) = self.stats.get() {
            counters::STATS_CACHE_HITS.incr();
            return Arc::clone(known);
        }
        Arc::clone(self.stats.get_or_init(|| {
            counters::STATS_CACHE_MISSES.incr();
            let summary = match &self.profile {
                Some(profile) => TableSummary::with_profile(&self.relation, profile),
                None => TableSummary::measure(&self.relation),
            };
            Arc::new(summary.expect("statistics over a validated relation cannot fail"))
        }))
    }

    /// Forget this version's statistics and modification ledger, so the
    /// next request measures in full — the escape hatch behind
    /// [`crate::StatisticsProvider::invalidate_stats`].
    pub(crate) fn forget_measurements(&mut self) {
        if self.stats.take().is_some() {
            counters::STATS_CACHE_INVALIDATIONS.incr();
        }
        self.profile = None;
        self.ledger = None;
    }

    pub fn len(&self) -> usize {
        self.relation.len()
    }

    pub fn is_empty(&self) -> bool {
        self.relation.is_empty()
    }

    /// Append tuples. A rejected tuple leaves the table untouched.
    pub fn insert(&mut self, tuples: Vec<Tuple>) -> Result<()> {
        if tuples.is_empty() {
            return Ok(());
        }
        let current = self.relation.columnar()?;
        let mut next = NextColumns::new(&current, tuples.len());
        next.keep(0, current.rows());
        for t in &tuples {
            next.push(t)?;
        }
        self.succeed(Delta {
            next: next.finish(),
            removed: Vec::new(),
            added: tuples,
        })
    }

    /// Become the next version. Only the value classes of the tuples that
    /// moved are re-examined.
    pub(crate) fn succeed(&mut self, delta: Delta) -> Result<()> {
        if delta.removed.is_empty() && delta.added.is_empty() {
            return Ok(());
        }
        let schema = self.relation.schema();
        let mut ledger = match self.ledger.take() {
            Some(open) => open,
            None => Box::new(Ledger::open(&self.relation)?),
        };
        ledger.apply(schema, &delta.removed, &delta.added)?;
        let (profile, summary) = ledger.describe(schema);
        self.props = BaseProps::from_profile(schema.clone(), &profile);
        self.relation = delta.next;
        self.profile = Some(profile);
        self.stats = OnceLock::from(Arc::new(summary));
        self.ledger = Some(ledger);
        Ok(())
    }
}

/// What a modification does to a table's tuple list.
pub(crate) struct Delta {
    /// The list afterwards, born in columns: untouched tuples keep their
    /// relative order and the fragments of a rewritten tuple take its
    /// place.
    pub(crate) next: Relation,
    /// Tuples of the current list that are not in `next`.
    pub(crate) removed: Vec<Tuple>,
    /// Tuples of `next` that are not in the current list, each validated
    /// on its way in ([`NextColumns::push`]).
    pub(crate) added: Vec<Tuple>,
}

/// The next version's columns, built from the current version's: runs of
/// untouched rows are copied a column at a time, and each tuple that
/// enters is pushed where it belongs in the list. No tuple list is built
/// for either version.
pub(crate) struct NextColumns<'a> {
    current: &'a ColumnarRelation,
    columns: Vec<Column>,
}

impl<'a> NextColumns<'a> {
    /// An empty builder with room for the current rows and `entering` more.
    pub(crate) fn new(current: &'a ColumnarRelation, entering: usize) -> NextColumns<'a> {
        let columns = current
            .columns()
            .iter()
            .map(|c| Column::with_capacity(c.dtype(), current.rows() + entering))
            .collect();
        NextColumns { current, columns }
    }

    /// Copy the current rows `start..end`, unchanged and in order.
    pub(crate) fn keep(&mut self, start: usize, end: usize) {
        if start < end {
            for (next, current) in self.columns.iter_mut().zip(self.current.columns()) {
                next.extend_range(current, start, end);
            }
        }
    }

    /// Validate a tuple against the schema and append it.
    pub(crate) fn push(&mut self, t: &Tuple) -> Result<()> {
        relation::validate(self.current.schema(), t)?;
        for (column, v) in self.columns.iter_mut().zip(t.values()) {
            column.push(v)?;
        }
        Ok(())
    }

    /// The next version's relation, resident in columns only.
    pub(crate) fn finish(self) -> Relation {
        let columns = self.columns.into_iter().map(Arc::new).collect();
        Relation::from_columnar(ColumnarRelation::new(
            Arc::clone(self.current.schema()),
            columns,
        ))
    }
}

/// Measure the honest base properties of a relation.
pub fn derive_props(relation: &Relation) -> Result<BaseProps> {
    Ok(BaseProps::from_profile(
        relation.schema().clone(),
        &RelationProfile::measure(relation)?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tqo_core::tuple;
    use tqo_core::value::DataType;

    fn schema() -> Schema {
        Schema::temporal(&[("E", DataType::Str)])
    }

    #[test]
    fn props_are_measured() {
        let r = Relation::new(
            schema(),
            vec![tuple!["a", 1i64, 5i64], tuple!["a", 3i64, 8i64]],
        )
        .unwrap();
        let t = Table::new("T", r).unwrap();
        assert!(t.props().dup_free);
        assert!(!t.props().snapshot_dup_free); // overlap at [3,5)
        assert!(t.props().coalesced);
        assert_eq!(t.props().card, 2);
    }

    #[test]
    fn insert_revalidates() {
        let r = Relation::new(schema(), vec![tuple!["a", 1i64, 5i64]]).unwrap();
        let mut t = Table::new("T", r).unwrap();
        assert!(t.props().snapshot_dup_free);
        t.insert(vec![tuple!["a", 2i64, 4i64]]).unwrap();
        assert!(!t.props().snapshot_dup_free);
        assert_eq!(t.len(), 2);
        // Bad tuples are rejected and leave the table untouched.
        assert!(t.insert(vec![tuple!["x", 9i64, 3i64]]).is_err());
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn statistics_are_lazy_until_a_modification_maintains_them() {
        let r = Relation::new(
            schema(),
            vec![tuple!["a", 1i64, 5i64], tuple!["b", 2i64, 4i64]],
        )
        .unwrap();
        let mut t = Table::new("T", r).unwrap();
        assert!(
            t.stats.get().is_none(),
            "stats must not be computed eagerly"
        );
        assert_eq!(t.stats().column("E").unwrap().distinct, 2);
        // A modification carries the statistics forward: the next version
        // has them before anyone asks.
        t.insert(vec![tuple!["c", 1i64, 2i64]]).unwrap();
        let summary = t.stats.get().expect("maintained by the insert");
        assert_eq!(**summary, TableSummary::measure(t.relation()).unwrap());
        assert_eq!(t.stats().column("E").unwrap().distinct, 3);
        assert_eq!(t.stats().rows, 3);
        assert_eq!(*t.props(), derive_props(t.relation()).unwrap());
    }

    #[test]
    fn a_version_pinned_before_a_modification_is_unchanged_by_it() {
        let r = Relation::new(schema(), vec![tuple!["a", 1i64, 5i64]]).unwrap();
        let pinned = Table::new("T", r.clone()).unwrap();
        let mut next = pinned.clone();
        next.insert(vec![tuple!["a", 5i64, 9i64]]).unwrap();
        assert!(!next.props().coalesced);
        assert!(pinned.props().coalesced);
        assert_eq!(pinned.relation(), &r);
        assert_eq!(pinned.stats().rows, 1);
    }

    #[test]
    fn planning_props_attach_summary() {
        let r = Relation::new(schema(), vec![tuple!["a", 1i64, 5i64]]).unwrap();
        let t = Table::new("T", r).unwrap();
        let props = t.planning_props();
        let summary = props.stats.expect("summary attached");
        assert_eq!(summary.rows, 1);
        assert_eq!(props.card, 1);
    }
}
