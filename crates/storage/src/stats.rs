//! Table statistics for cardinality estimation.
//!
//! [`TableStats::compute`] measures everything the optimizer's estimator
//! consumes: row and distinct-tuple counts, per-column distinct/null
//! counts with min/max and a small equi-depth histogram, the covered time
//! range, the mean period duration, and the snapshot duplicate degree.
//! The measurement itself lives in core as
//! [`tqo_core::stats::TableSummary::measure`] — one routine shared by the
//! catalog and by [`tqo_core::plan::BaseProps::measured`], which
//! summarizes in-memory relations with no catalog in sight.
//! [`TableStats::summary`]
//! converts back to that core-side [`tqo_core::stats::TableSummary`] that
//! rides on `Scan` nodes.

use tqo_core::error::Result;
use tqo_core::relation::Relation;
use tqo_core::stats::{ColumnSummary, Histogram, TableSummary};
use tqo_core::time::Period;
use tqo_core::value::Value;

/// Per-column statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    pub name: String,
    /// Number of distinct non-null values.
    pub distinct: usize,
    /// Number of NULLs.
    pub nulls: usize,
    /// Smallest non-null value (None for empty or all-NULL columns).
    pub min: Option<Value>,
    /// Largest non-null value.
    pub max: Option<Value>,
    /// Equi-depth histogram over the non-null values.
    pub histogram: Option<Histogram>,
}

/// Statistics for one stored relation.
#[derive(Debug, Clone, PartialEq)]
pub struct TableStats {
    pub rows: usize,
    /// Number of distinct tuples (= `rows` for duplicate-free relations).
    pub distinct_rows: usize,
    pub columns: Vec<ColumnStats>,
    /// For temporal relations: the covered time range.
    pub time_range: Option<Period>,
    /// For temporal relations: average period duration.
    pub avg_duration: Option<f64>,
    /// For temporal relations: the maximum number of value-equivalent
    /// tuples alive at one instant — the "snapshot duplicate degree".
    pub max_class_overlap: usize,
}

impl TableStats {
    /// Measure a stored relation's statistics by delegating to the shared
    /// core routine ([`TableSummary::measure`]).
    pub fn compute(relation: &Relation) -> Result<TableStats> {
        Ok(TableStats::from_summary(&TableSummary::measure(relation)?))
    }

    /// The catalog-side representation of a core summary. The only
    /// representational difference is `avg_duration`, which core keeps as
    /// a milli fixed point so the summary stays `Eq + Hash`.
    pub fn from_summary(s: &TableSummary) -> TableStats {
        TableStats {
            rows: s.rows as usize,
            distinct_rows: s.distinct_rows as usize,
            columns: s
                .columns
                .iter()
                .map(|c| ColumnStats {
                    name: c.name.clone(),
                    distinct: c.distinct as usize,
                    nulls: c.nulls as usize,
                    min: c.min.clone(),
                    max: c.max.clone(),
                    histogram: c.histogram.clone(),
                })
                .collect(),
            time_range: s.time_range,
            avg_duration: s.avg_duration_milli.map(|m| m as f64 / 1000.0),
            max_class_overlap: s.max_class_overlap as usize,
        }
    }

    /// Distinct count for a named column, if known.
    pub fn distinct(&self, column: &str) -> Option<usize> {
        self.columns
            .iter()
            .find(|c| c.name == column)
            .map(|c| c.distinct)
    }

    /// Convert to the core-side summary attached to `Scan` nodes.
    pub fn summary(&self) -> TableSummary {
        TableSummary {
            rows: self.rows as u64,
            distinct_rows: self.distinct_rows as u64,
            columns: self
                .columns
                .iter()
                .map(|c| ColumnSummary {
                    name: c.name.clone(),
                    distinct: c.distinct as u64,
                    nulls: c.nulls as u64,
                    min: c.min.clone(),
                    max: c.max.clone(),
                    histogram: c.histogram.clone(),
                })
                .collect(),
            time_range: self.time_range,
            avg_duration_milli: self.avg_duration.map(|d| (d * 1000.0) as i64),
            max_class_overlap: self.max_class_overlap as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tqo_core::schema::Schema;
    use tqo_core::tuple;
    use tqo_core::tuple::Tuple;
    use tqo_core::value::DataType;

    #[test]
    fn computes_column_and_time_stats() {
        let r = Relation::new(
            Schema::temporal(&[("E", DataType::Str)]),
            vec![
                tuple!["a", 1i64, 5i64],
                tuple!["a", 3i64, 9i64],
                tuple!["b", 2i64, 4i64],
            ],
        )
        .unwrap();
        let s = TableStats::compute(&r).unwrap();
        assert_eq!(s.rows, 3);
        assert_eq!(s.distinct_rows, 3);
        assert_eq!(s.distinct("E"), Some(2));
        assert_eq!(s.time_range, Some(Period::of(1, 9)));
        assert_eq!(s.avg_duration, Some(4.0));
        assert_eq!(s.max_class_overlap, 2); // a's periods overlap on [3,5)
    }

    #[test]
    fn snapshot_relation_has_no_time_stats() {
        let r = Relation::new(
            Schema::of(&[("A", DataType::Int)]),
            vec![tuple![1i64], tuple![1i64], tuple![2i64]],
        )
        .unwrap();
        let s = TableStats::compute(&r).unwrap();
        assert_eq!(s.rows, 3);
        assert_eq!(s.distinct_rows, 2);
        assert_eq!(s.distinct("A"), Some(2));
        assert!(s.time_range.is_none());
        assert_eq!(s.max_class_overlap, 0);
    }

    #[test]
    fn empty_relation() {
        let r = Relation::empty(Schema::temporal(&[("E", DataType::Str)]));
        let s = TableStats::compute(&r).unwrap();
        assert_eq!(s.rows, 0);
        assert_eq!(s.distinct_rows, 0);
        assert!(s.time_range.is_none());
        assert!(s.avg_duration.is_none());
        let c = &s.columns[0];
        assert_eq!(c.distinct, 0);
        assert!(c.min.is_none() && c.max.is_none() && c.histogram.is_none());
        // The summary converts without panicking or dividing by zero.
        let summary = s.summary();
        assert_eq!(summary.rows, 0);
        assert!(summary.avg_duration_milli.is_none());
    }

    #[test]
    fn all_null_column_has_no_value_stats() {
        let r = Relation::new(
            Schema::of(&[("A", DataType::Int), ("B", DataType::Str)]),
            vec![
                Tuple::new(vec![Value::Null, Value::Str("x".into())]),
                Tuple::new(vec![Value::Null, Value::Str("y".into())]),
            ],
        )
        .unwrap();
        let s = TableStats::compute(&r).unwrap();
        let a = &s.columns[0];
        assert_eq!(a.distinct, 0);
        assert_eq!(a.nulls, 2);
        assert!(a.min.is_none() && a.max.is_none() && a.histogram.is_none());
        let b = &s.columns[1];
        assert_eq!(b.distinct, 2);
        assert_eq!(b.nulls, 0);
    }

    #[test]
    fn abutting_periods_do_not_count_as_overlap() {
        // a: [1,3) then [3,5) — adjacent, never simultaneous. The close
        // event at 3 sorts before the open event at 3.
        let r = Relation::new(
            Schema::temporal(&[("E", DataType::Str)]),
            vec![tuple!["a", 1i64, 3i64], tuple!["a", 3i64, 5i64]],
        )
        .unwrap();
        let s = TableStats::compute(&r).unwrap();
        assert_eq!(s.max_class_overlap, 1);
    }

    #[test]
    fn min_max_and_histogram_reflect_data() {
        let tuples: Vec<_> = (0..64i64).map(|i| tuple![i % 16, 0i64, 1i64]).collect();
        let r = Relation::new(Schema::temporal(&[("A", DataType::Int)]), tuples).unwrap();
        let s = TableStats::compute(&r).unwrap();
        let a = &s.columns[0];
        assert_eq!(a.min, Some(Value::Int(0)));
        assert_eq!(a.max, Some(Value::Int(15)));
        let h = a.histogram.as_ref().unwrap();
        assert_eq!(h.total, 64);
        assert!((h.fraction_le(&Value::Int(7)) - 0.5).abs() < 0.2);
    }

    #[test]
    fn summary_round_trips_counts() {
        let r = Relation::new(
            Schema::temporal(&[("E", DataType::Str)]),
            vec![tuple!["a", 1i64, 5i64], tuple!["a", 1i64, 5i64]],
        )
        .unwrap();
        let s = TableStats::compute(&r).unwrap();
        assert_eq!(s.distinct_rows, 1);
        let sum = s.summary();
        assert_eq!(sum.rows, 2);
        assert_eq!(sum.distinct_rows, 1);
        assert_eq!(sum.column("E").unwrap().distinct, 1);
        assert_eq!(sum.avg_duration_milli, Some(4000));
        assert_eq!(sum.max_class_overlap, 2);
    }
}
