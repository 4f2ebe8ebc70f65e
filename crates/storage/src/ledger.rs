//! Delta maintenance of a table's properties and statistics.
//!
//! Everything the catalog publishes about a table besides its tuples —
//! Table 2's base properties and the [`TableSummary`] — is a function of a
//! few aggregates: per value class, the multiset of its periods
//! ([`ClassFacts`]: distinct tuples, overlap degree, adjacency); per
//! column, the sorted multiset of its values. A [`Ledger`] holds exactly
//! those, so a modification that removes and adds a handful of tuples
//! updates them by re-examining the classes those tuples belong to and
//! nothing else. The result is *equal*, field for field, to what
//! [`TableSummary::measure`] and [`crate::table::derive_props`] compute
//! from scratch over the modified relation; `crates/storage/tests/version_exactness.rs`
//! holds it to that after every step of random modification sequences.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use tqo_core::columnar::Column;
use tqo_core::error::{Error, Result};
use tqo_core::relation::Relation;
use tqo_core::schema::Schema;
use tqo_core::stats::{
    sorted_runs, ClassFacts, ColumnSummary, Histogram, RelationProfile, TableSummary, ValueClasses,
    HISTOGRAM_BUCKETS,
};
use tqo_core::time::Period;
use tqo_core::tuple::Tuple;
use tqo_core::value::Value;

/// One value class: its tuples' periods (none on a snapshot relation, where
/// a class is one distinct tuple and only `rows` counts) and what they
/// currently contribute to the relation-level sums.
#[derive(Debug, Clone, Default)]
struct Class {
    rows: u64,
    periods: Vec<Period>,
    facts: ClassFacts,
}

/// One column's non-null values as a sorted multiset.
#[derive(Debug, Clone, Default)]
struct ColumnLedger {
    nulls: u64,
    values: BTreeMap<Value, u64>,
}

/// The aggregates a table's properties and statistics are functions of,
/// kept current across modifications. Every method takes the table's
/// schema, which never changes.
#[derive(Debug, Clone)]
pub(crate) struct Ledger {
    /// Keyed by the explicit values.
    classes: HashMap<Vec<Value>, Class>,
    columns: Vec<ColumnLedger>,
    rows: u64,
    distinct_rows: u64,
    uncoalesced_classes: u64,
    total_duration: i128,
    /// Overlap degree → classes at that degree; the last key is
    /// `max_class_overlap`.
    overlap_degrees: BTreeMap<u64, u64>,
}

impl Ledger {
    /// Open a ledger over a relation's current contents, read off its
    /// columns: each column's sorted runs, and one grouping into value
    /// classes, each class examined once.
    pub(crate) fn open(relation: &Relation) -> Result<Ledger> {
        let schema = relation.schema();
        let current = relation.columnar()?;
        let periods = schema
            .is_temporal()
            .then(|| current.period_columns())
            .transpose()?;
        let durations = periods.map(|(t1, t2)| t1.iter().zip(t2).map(|(s, e)| (e - s) as i128));
        let columns = current.columns().iter().map(|c| ColumnLedger::open(c));
        let mut ledger = Ledger {
            classes: HashMap::new(),
            columns: columns.collect(),
            rows: current.rows() as u64,
            distinct_rows: 0,
            uncoalesced_classes: 0,
            total_duration: durations.map_or(0, Iterator::sum),
            overlap_degrees: BTreeMap::new(),
        };
        // Keyed as `apply` keys a tuple: by its explicit values.
        let value_idx = schema.value_indices();
        let keys: Vec<&Column> = value_idx.iter().map(|&i| &**current.column(i)).collect();
        for rows in ValueClasses::group(&keys, current.rows()).iter() {
            let mut class = Class {
                rows: rows.len() as u64,
                ..Class::default()
            };
            if let Some((t1, t2)) = periods {
                class.periods = rows
                    .iter()
                    .map(|&r| Period::of(t1[r as usize], t2[r as usize]))
                    .collect();
            }
            class.examine(periods.is_some());
            ledger.account(ClassFacts::default(), class.facts);
            let key = keys.iter().map(|c| c.value(rows[0] as usize)).collect();
            ledger.classes.insert(key, class);
        }
        Ok(ledger)
    }

    /// Record that `removed` left the relation and `added` entered it.
    /// Every removed tuple must be present; both lists must conform to the
    /// relation's schema (added tuples are the caller's to validate).
    pub(crate) fn apply(
        &mut self,
        schema: &Schema,
        removed: &[Tuple],
        added: &[Tuple],
    ) -> Result<()> {
        let temporal = schema.is_temporal();
        let mut touched: Vec<Vec<Value>> = Vec::new();
        for (tuples, entering) in [(removed, false), (added, true)] {
            for t in tuples {
                let period = temporal.then(|| t.period(schema)).transpose()?;
                let key = t.explicit_values(schema);
                let class = self.classes.entry(key.clone()).or_default();
                if entering {
                    class.rows += 1;
                    class.periods.extend(period);
                } else {
                    let held = match period {
                        Some(p) => class
                            .periods
                            .iter()
                            .position(|q| *q == p)
                            .map(|at| class.periods.swap_remove(at))
                            .is_some(),
                        None => class.rows > 0,
                    };
                    if !held {
                        return Err(Error::Storage {
                            reason: format!("ledger: removed tuple {t} is not in the table"),
                        });
                    }
                    class.rows -= 1;
                }
                let sign = if entering { 1 } else { -1 };
                self.rows = self.rows.wrapping_add_signed(sign);
                self.total_duration += period.map_or(0, |p| p.duration() as i128) * sign as i128;
                for (column, v) in self.columns.iter_mut().zip(t.values()) {
                    column.record(v, entering);
                }
                touched.push(key);
            }
        }
        // Re-examine each touched class once, however many of its tuples
        // moved.
        touched.sort_unstable();
        touched.dedup();
        for key in touched {
            let class = self
                .classes
                .get_mut(&key)
                .expect("touched class is recorded");
            let before = class.facts;
            class.examine(temporal);
            let after = class.facts;
            if class.rows == 0 {
                self.classes.remove(&key);
            }
            self.account(before, after);
        }
        Ok(())
    }

    /// Move one class's contribution to the relation-level sums from
    /// `before` to `after` (a new class's `before` is the default).
    fn account(&mut self, before: ClassFacts, after: ClassFacts) {
        self.distinct_rows = self.distinct_rows - before.distinct + after.distinct;
        self.uncoalesced_classes =
            self.uncoalesced_classes - u64::from(before.adjacent) + u64::from(after.adjacent);
        if before.overlap != after.overlap {
            take_one(&mut self.overlap_degrees, &before.overlap);
            if after.overlap > 0 {
                *self.overlap_degrees.entry(after.overlap).or_default() += 1;
            }
        }
    }

    /// The relation-level facts, as [`RelationProfile::measure`] would
    /// report them for the current contents.
    fn profile(&self, schema: &Schema) -> RelationProfile {
        let time_range = schema
            .t1_index()
            .zip(schema.t2_index())
            .and_then(|(i1, i2)| {
                let start = self.columns[i1].values.keys().next()?.as_time().ok()?;
                let end = self.columns[i2].values.keys().next_back()?.as_time().ok()?;
                Some(Period::of(start, end))
            });
        RelationProfile {
            rows: self.rows,
            distinct_rows: self.distinct_rows,
            max_class_overlap: self
                .overlap_degrees
                .keys()
                .next_back()
                .copied()
                .unwrap_or(0),
            uncoalesced_classes: self.uncoalesced_classes,
            time_range,
            total_duration: self.total_duration,
        }
    }

    /// The profile and the summary of the current contents.
    pub(crate) fn describe(&self, schema: &Schema) -> (RelationProfile, TableSummary) {
        let profile = self.profile(schema);
        let columns = schema
            .attrs()
            .iter()
            .zip(&self.columns)
            .map(|(attr, c)| ColumnSummary {
                name: attr.name.clone(),
                distinct: c.values.len() as u64,
                nulls: c.nulls,
                min: c.values.keys().next().cloned(),
                max: c.values.keys().next_back().cloned(),
                histogram: Histogram::from_runs(
                    c.values.iter().map(|(v, n)| (v, *n)),
                    self.rows - c.nulls,
                    HISTOGRAM_BUCKETS as u64,
                )
                .map(Arc::new),
            })
            .collect();
        let summary = TableSummary::assemble(&profile, columns);
        (profile, summary)
    }
}

impl Class {
    /// Bring `facts` up to date with the class's periods (its row count,
    /// on a snapshot relation).
    fn examine(&mut self, temporal: bool) {
        self.facts = if temporal {
            ClassFacts::of(&mut self.periods)
        } else {
            ClassFacts {
                distinct: self.rows.min(1),
                ..ClassFacts::default()
            }
        };
    }
}

impl ColumnLedger {
    fn open(column: &Column) -> ColumnLedger {
        let (nulls, runs) = sorted_runs(column);
        ColumnLedger {
            nulls,
            values: runs.into_iter().collect(),
        }
    }

    fn record(&mut self, v: &Value, entering: bool) {
        if v.is_null() {
            self.nulls = self
                .nulls
                .wrapping_add_signed(if entering { 1 } else { -1 });
        } else if entering {
            *self.values.entry(v.clone()).or_default() += 1;
        } else {
            take_one(&mut self.values, v);
        }
    }
}

/// Remove one occurrence of `key` from a counted multiset (absent keys
/// have none to remove).
fn take_one<K: Ord>(multiset: &mut BTreeMap<K, u64>, key: &K) {
    if let Some(n) = multiset.get_mut(key) {
        *n -= 1;
        if *n == 0 {
            multiset.remove(key);
        }
    }
}
