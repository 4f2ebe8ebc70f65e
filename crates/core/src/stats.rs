//! Data statistics for cardinality estimation.
//!
//! The paper defers "heuristics and cost estimation techniques" to future
//! work (§7). This module supplies the data layer of that missing piece:
//!
//! * [`TableSummary`] — measured statistics of a stored relation (row and
//!   distinct counts, per-column min/max and equi-depth histograms, the
//!   covered time range, and the snapshot duplicate degree). Storage
//!   computes one per table and attaches it to the [`BaseProps`] of every
//!   `Scan`, so plans are self-contained for estimation exactly as they
//!   are for property inference.
//! * [`DerivedStats`] — the *estimated* statistics of any plan node's
//!   output, propagated bottom-up by `plan::props::derive_one`. Table 1's
//!   cardinality column becomes a formula over real input statistics
//!   instead of fixed constants; where no statistics are available every
//!   formula degrades to the original constant-factor guess.
//! * [`selectivity`] — predicate selectivity from histograms and distinct
//!   counts (1/NDV for equality, histogram mass for ranges, the classic
//!   1/max(d₁,d₂) for column-column joins).
//!
//! All fields are integers, [`Value`]s, or fixed-point (`*_milli`), so the
//! structures stay `Eq + Hash` and the memo's hash-consing of `Scan` nodes
//! keeps working.
//!
//! [`BaseProps`]: crate::plan::BaseProps

use serde::{Deserialize, Serialize};
use std::sync::Arc;

use crate::columnar::{Column, ColumnData};
use crate::error::Result;
use crate::expr::{BinOp, Expr};
use crate::relation::Relation;
use crate::schema::Schema;
use crate::time::{Instant, Period};
use crate::value::{DataType, Value};

/// Default number of equi-depth histogram buckets.
pub const HISTOGRAM_BUCKETS: usize = 8;

/// Median of a slice of finite values (sorts in place); `None` when
/// empty. **The one shared definition** for every q-error/latency summary
/// in the workspace (`ExecMetrics::median_q_error`, benches, regression
/// tests): on even lengths it takes the **upper median** (`values[n/2]`
/// after sorting), never an interpolated midpoint — summaries stay actual
/// observed values and different consumers can never disagree by half a
/// bucket.
pub fn median(values: &mut [f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
    Some(values[values.len() / 2])
}

/// An equi-depth histogram over one column's non-null values.
///
/// `bounds[i]` is the largest value in bucket `i`; buckets hold
/// `counts[i]` rows each (equal up to rounding). Values ≤ `bounds[0]`
/// fall in bucket 0, values in `(bounds[i-1], bounds[i]]` in bucket `i`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Histogram {
    /// Smallest covered value (bucket 0's lower edge).
    pub lo: Value,
    /// Largest value of each bucket, ascending.
    pub bounds: Vec<Value>,
    /// Rows per bucket, parallel to `bounds`.
    pub counts: Vec<u64>,
    /// Total rows covered (sum of `counts`).
    pub total: u64,
}

impl Histogram {
    /// Build an equi-depth histogram from a *sorted* list of non-null
    /// values. Returns `None` for empty input.
    pub fn from_sorted(values: &[Value], buckets: usize) -> Option<Histogram> {
        if values.is_empty() || buckets == 0 {
            return None;
        }
        let n = values.len();
        let buckets = buckets.min(n);
        let mut bounds = Vec::with_capacity(buckets);
        let mut counts = Vec::with_capacity(buckets);
        let mut start = 0usize;
        for b in 0..buckets {
            // Even split; the last bucket absorbs the remainder.
            let end = if b + 1 == buckets {
                n
            } else {
                ((b + 1) * n) / buckets
            };
            if end <= start {
                continue;
            }
            bounds.push(values[end - 1].clone());
            counts.push((end - start) as u64);
            start = end;
        }
        Some(Histogram {
            lo: values[0].clone(),
            bounds,
            counts,
            total: n as u64,
        })
    }

    /// The histogram [`Histogram::from_sorted`] builds, from a run-length
    /// encoding of the sorted list: ascending `(value, occurrences)` pairs
    /// totalling `n` values. For statistics maintained as sorted multisets;
    /// written independently of `from_sorted`, which stays its oracle.
    pub fn from_runs<'a>(
        runs: impl IntoIterator<Item = (&'a Value, u64)>,
        n: u64,
        buckets: u64,
    ) -> Option<Histogram> {
        if buckets == 0 {
            return None;
        }
        let mut runs = runs.into_iter();
        let (mut value, mut seen) = runs.next()?;
        let lo = value.clone();
        let buckets = buckets.min(n);
        let (mut bounds, mut counts) = (Vec::new(), Vec::new());
        let mut start = 0;
        for b in 1..=buckets {
            // Bucket `b` of `k` ends after rank `b · n / k`.
            let end = b * n / buckets;
            if end <= start {
                continue;
            }
            while seen < end {
                let (next, occurrences) = runs.next()?;
                value = next;
                seen += occurrences;
            }
            bounds.push(value.clone());
            counts.push(end - start);
            start = end;
        }
        Some(Histogram {
            lo,
            bounds,
            counts,
            total: n,
        })
    }

    /// Estimated fraction of rows with value strictly below `v`.
    pub fn fraction_below(&self, v: &Value) -> f64 {
        if self.total == 0 || v.cmp(&self.lo) != std::cmp::Ordering::Greater {
            return 0.0;
        }
        let mut below = 0u64;
        for (bound, count) in self.bounds.iter().zip(&self.counts) {
            match bound.cmp(v) {
                std::cmp::Ordering::Less => below += count,
                // The bucket straddles `v`: assume half its mass is below.
                _ => {
                    below += count / 2;
                    break;
                }
            }
        }
        below as f64 / self.total as f64
    }

    /// Estimated fraction of rows with value ≤ `v` (coarse: bucket-level).
    pub fn fraction_le(&self, v: &Value) -> f64 {
        if self.total == 0 || v.cmp(&self.lo) == std::cmp::Ordering::Less {
            return 0.0;
        }
        let mut le = 0u64;
        for (bound, count) in self.bounds.iter().zip(&self.counts) {
            if bound.cmp(v) != std::cmp::Ordering::Greater {
                le += count;
            } else {
                le += count / 2;
                break;
            }
        }
        (le as f64 / self.total as f64).min(1.0)
    }
}

/// Measured statistics of one column of a stored relation.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ColumnSummary {
    /// The column's attribute name.
    pub name: String,
    /// Distinct non-null values.
    pub distinct: u64,
    /// NULL count.
    pub nulls: u64,
    /// Smallest non-null value (None for all-NULL or empty columns).
    pub min: Option<Value>,
    /// Largest non-null value.
    pub max: Option<Value>,
    /// Equi-depth histogram of the non-null values, when measured; shared
    /// with every estimate a plan derives from it.
    pub histogram: Option<Arc<Histogram>>,
}

/// Measured statistics of one stored relation, attached to `Scan` nodes so
/// the estimator sees real data characteristics at the leaves.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TableSummary {
    /// Total stored rows.
    pub rows: u64,
    /// Exact count of distinct tuples (= `rows` for duplicate-free tables).
    pub distinct_rows: u64,
    /// Per-column summaries, parallel to the schema.
    pub columns: Vec<ColumnSummary>,
    /// For temporal relations: the covered time range.
    pub time_range: Option<Period>,
    /// For temporal relations: average period duration ×1000 (fixed point,
    /// so the summary stays `Eq + Hash`).
    pub avg_duration_milli: Option<i64>,
    /// For temporal relations: the maximum number of value-equivalent
    /// tuples alive at one instant (1 = snapshot-duplicate-free).
    pub max_class_overlap: u64,
}

/// What one value class — the tuples agreeing on every explicit value —
/// contributes to the relation-level facts, as a function of the class's
/// periods alone. Table 2's three base properties are predicates over the
/// sums and the maximum of these, which is why a modification that touches
/// one class needs to re-examine only that class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassFacts {
    /// Distinct periods, i.e. distinct tuples of the class.
    pub distinct: u64,
    /// Most tuples of the class alive at one instant.
    pub overlap: u64,
    /// Some two periods of the class meet end to start.
    pub adjacent: bool,
}

impl ClassFacts {
    /// Examine one class's periods (reordered in place).
    pub fn of(periods: &mut [Period]) -> ClassFacts {
        periods.sort_unstable();
        let distinct = periods.len() - periods.windows(2).filter(|w| w[0] == w[1]).count();
        // Close events sort before open events at the same instant, so
        // abutting periods never count as overlapping and the live counter
        // cannot dip below zero.
        let mut events: Vec<(Instant, i32)> = Vec::with_capacity(periods.len() * 2);
        for p in periods.iter() {
            events.push((p.start, 1));
            events.push((p.end, -1));
        }
        events.sort_unstable();
        let (mut live, mut overlap) = (0i32, 0i32);
        for (_, d) in events {
            live += d;
            overlap = overlap.max(live);
        }
        // `periods` is sorted by start: search each end among the starts.
        let adjacent = periods
            .iter()
            .any(|p| periods.binary_search_by(|q| q.start.cmp(&p.end)).is_ok());
        ClassFacts {
            distinct: distinct as u64,
            overlap: overlap as u64,
            adjacent,
        }
    }
}

/// Rows grouped by their values in some columns (a relation's value
/// classes, a column's distinct values): per-row hashes, then one
/// open-addressing pass that checks each match against the class's first
/// row in the columns themselves, so no value is copied out.
#[derive(Debug, Clone)]
pub struct ValueClasses {
    /// Row indices, class by class in order of first occurrence, each
    /// class's rows in list order.
    rows: Vec<u32>,
    /// Class `c` is `rows[bounds[c]..bounds[c + 1]]`.
    bounds: Vec<usize>,
}

impl ValueClasses {
    /// Group the first `rows` rows of `keys` (columns of at least that
    /// length) by their values in every key column; NULLs equal NULLs.
    pub fn group(keys: &[&Column], rows: usize) -> ValueClasses {
        let mut hashes = vec![0u64; rows];
        for key in keys {
            key.hash_range(0, &mut hashes);
        }
        let mask = (rows * 2).next_power_of_two() - 1;
        let mut slots = vec![u32::MAX; mask + 1];
        let mut first: Vec<u32> = Vec::new();
        let mut class_of = Vec::with_capacity(rows);
        for (i, &h) in hashes.iter().enumerate() {
            let mut slot = h as usize & mask;
            while slots[slot] != u32::MAX {
                let f = first[slots[slot] as usize] as usize;
                if hashes[f] == h && keys.iter().all(|k| k.eq_at(f, k, i)) {
                    break;
                }
                slot = (slot + 1) & mask;
            }
            if slots[slot] == u32::MAX {
                slots[slot] = first.len() as u32;
                first.push(i as u32);
            }
            class_of.push(slots[slot] as usize);
        }
        // A stable counting sort by class.
        let mut bounds = vec![0usize; first.len() + 1];
        for &c in &class_of {
            bounds[c + 1] += 1;
        }
        for c in 1..bounds.len() {
            bounds[c] += bounds[c - 1];
        }
        let mut next = bounds.clone();
        let mut grouped = vec![0u32; rows];
        for (i, &c) in class_of.iter().enumerate() {
            grouped[next[c]] = i as u32;
            next[c] += 1;
        }
        ValueClasses {
            rows: grouped,
            bounds,
        }
    }

    /// Each class's rows (never empty), in order of first occurrence.
    pub fn iter(&self) -> impl Iterator<Item = &[u32]> {
        self.bounds.windows(2).map(|w| &self.rows[w[0]..w[1]])
    }
}

/// The whole-relation facts that Table 2's base properties and the
/// non-column half of a [`TableSummary`] are functions of. Measured in one
/// pass over the value classes ([`RelationProfile::measure`]), or kept
/// current across modifications by re-examining only the classes touched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelationProfile {
    /// Total rows.
    pub rows: u64,
    /// Distinct tuples: Σ [`ClassFacts::distinct`].
    pub distinct_rows: u64,
    /// max [`ClassFacts::overlap`]; 0 for snapshot relations.
    pub max_class_overlap: u64,
    /// Classes with [`ClassFacts::adjacent`] set.
    pub uncoalesced_classes: u64,
    /// Covered time range of a non-empty temporal relation.
    pub time_range: Option<Period>,
    /// Σ period duration (wide: a table of maximal periods must not wrap).
    pub total_duration: i128,
}

impl RelationProfile {
    /// Profile a relation from its columns: one grouping into value
    /// classes (by every value, on a snapshot relation), then each class's
    /// periods, read off the `T1`/`T2` columns, examined once.
    pub fn measure(relation: &Relation) -> Result<RelationProfile> {
        let schema = relation.schema();
        let columns = relation.columnar()?;
        let keyed = if schema.is_temporal() {
            schema.value_indices()
        } else {
            (0..schema.arity()).collect()
        };
        let keys: Vec<&Column> = keyed.iter().map(|&i| &**columns.column(i)).collect();
        let classes = ValueClasses::group(&keys, columns.rows());
        let mut profile = RelationProfile {
            rows: columns.rows() as u64,
            distinct_rows: 0,
            max_class_overlap: 0,
            uncoalesced_classes: 0,
            time_range: None,
            total_duration: 0,
        };
        if !relation.is_temporal() {
            profile.distinct_rows = classes.iter().count() as u64;
            return Ok(profile);
        }
        let (t1, t2) = columns.period_columns()?;
        profile.total_duration = t1.iter().zip(t2).map(|(s, e)| (e - s) as i128).sum();
        profile.time_range = t1
            .iter()
            .min()
            .zip(t2.iter().max())
            .map(|(&start, &end)| Period::of(start, end));
        let mut periods = Vec::new();
        for rows in classes.iter() {
            periods.clear();
            periods.extend(
                rows.iter()
                    .map(|&r| Period::of(t1[r as usize], t2[r as usize])),
            );
            let facts = ClassFacts::of(&mut periods);
            profile.distinct_rows += facts.distinct;
            profile.max_class_overlap = profile.max_class_overlap.max(facts.overlap);
            profile.uncoalesced_classes += u64::from(facts.adjacent);
        }
        Ok(profile)
    }
}

/// A column's NULL count and its non-null values in ascending order, as
/// runs `(value, occurrences)`. An `i64` column without NULLs is sorted as
/// a slice; a string column over a sorted dictionary counts its codes,
/// which are already in value order; any other has its distinct values
/// found by hash first ([`ValueClasses::group`]), and only those sorted
/// and made [`Value`]s.
pub fn sorted_runs(column: &Column) -> (u64, Vec<(Value, u64)>) {
    if let ColumnData::Str(v) = column.data() {
        let dict = v.dict();
        if dict.is_sorted() && dict.len() <= 2 * column.len() + 64 {
            let mut counts = vec![0u64; dict.len()];
            let mut nulls = 0;
            for (i, &code) in v.codes().iter().enumerate() {
                if column.is_null(i) {
                    nulls += 1;
                } else {
                    counts[code as usize] += 1;
                }
            }
            let runs = (0..dict.len() as u32)
                .zip(counts)
                .filter(|&(_, n)| n > 0)
                .map(|(code, n)| (Value::Str(dict.shared(code)), n))
                .collect();
            return (nulls, runs);
        }
    }
    if let Some(ints) = column.as_i64() {
        let wrap = match column.dtype() {
            DataType::Time => Value::Time,
            _ => Value::Int,
        };
        let mut sorted = ints.to_vec();
        sorted.sort_unstable();
        let runs = sorted
            .chunk_by(|a, b| a == b)
            .map(|run| (wrap(run[0]), run.len() as u64))
            .collect();
        return (0, runs);
    }
    let mut nulls = 0;
    let mut firsts: Vec<u32> = Vec::new();
    let mut counts: Vec<u64> = Vec::new();
    for rows in ValueClasses::group(&[column], column.len()).iter() {
        if column.is_null(rows[0] as usize) {
            nulls = rows.len() as u64;
        } else {
            firsts.push(rows[0]);
            counts.push(rows.len() as u64);
        }
    }
    // Sorted by order-preserving prefixes; the values themselves are
    // compared only where two prefixes tie, which exact prefixes of
    // distinct values never do.
    let (prefixes, _) = column.sort_prefixes(Some(&firsts));
    let mut distinct: Vec<(u64, usize, u64)> = prefixes
        .into_iter()
        .zip(firsts)
        .zip(counts)
        .map(|((p, row), n)| (p, row as usize, n))
        .collect();
    distinct.sort_unstable_by(|a, b| a.0.cmp(&b.0).then_with(|| column.cmp_at(a.1, column, b.1)));
    let runs = distinct
        .into_iter()
        .map(|(_, row, n)| (column.value(row), n))
        .collect();
    (nulls, runs)
}

impl ColumnSummary {
    /// Measure one column ([`sorted_runs`]).
    fn measure(name: String, column: &Column) -> ColumnSummary {
        let (nulls, runs) = sorted_runs(column);
        ColumnSummary {
            name,
            distinct: runs.len() as u64,
            nulls,
            min: runs.first().map(|(v, _)| v.clone()),
            max: runs.last().map(|(v, _)| v.clone()),
            histogram: Histogram::from_runs(
                runs.iter().map(|(v, n)| (v, *n)),
                column.len() as u64 - nulls,
                HISTOGRAM_BUCKETS as u64,
            )
            .map(Arc::new),
        }
    }
}

impl TableSummary {
    /// The summary of a named column, if present.
    pub fn column(&self, name: &str) -> Option<&ColumnSummary> {
        self.columns.iter().find(|c| c.name == name)
    }

    /// Measure the summary of any in-memory relation — no catalog needed.
    ///
    /// This is the one full statistics computation in the system, a typed
    /// pass over the relation's columns: `tqo-storage` runs it as the
    /// oracle a table's maintained statistics must equal, and
    /// [`crate::plan::BaseProps::measured`] on any in-memory relation a
    /// plan scans. Handles empty, all-NULL, and single-row inputs (no
    /// histogram / min / max where nothing was observed).
    pub fn measure(relation: &Relation) -> Result<TableSummary> {
        Ok(TableSummary::profiled(relation)?.0)
    }

    /// [`TableSummary::measure`], also returning the profile it measured
    /// on the way — so the base properties come from the same pass.
    pub fn profiled(relation: &Relation) -> Result<(TableSummary, RelationProfile)> {
        let profile = RelationProfile::measure(relation)?;
        Ok((TableSummary::with_profile(relation, &profile)?, profile))
    }

    /// The summary of a relation whose profile is already measured: only
    /// the per-column half is read, from each column's [`sorted_runs`].
    pub fn with_profile(relation: &Relation, profile: &RelationProfile) -> Result<TableSummary> {
        let columns = relation.columnar()?;
        let summaries = relation
            .schema()
            .attrs()
            .iter()
            .zip(columns.columns())
            .map(|(attr, column)| ColumnSummary::measure(attr.name.clone(), column))
            .collect();
        Ok(TableSummary::assemble(profile, summaries))
    }

    /// Put a summary together from a relation's profile and its per-column
    /// summaries.
    pub fn assemble(profile: &RelationProfile, columns: Vec<ColumnSummary>) -> TableSummary {
        // Saturate: a handful of maximal periods (`Period::always`) must
        // not overflow the fixed-point average.
        let total = profile.total_duration.min(i64::MAX as i128) as i64;
        TableSummary {
            rows: profile.rows,
            distinct_rows: profile.distinct_rows,
            columns,
            time_range: profile.time_range,
            avg_duration_milli: profile
                .time_range
                .map(|_| (total as f64 / profile.rows as f64 * 1000.0) as i64),
            max_class_overlap: profile.max_class_overlap,
        }
    }
}

/// Estimated statistics of one column of a plan node's output.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ColumnEstimate {
    /// Estimated distinct non-null values (None = unknown).
    pub distinct: Option<u64>,
    /// Estimated NULL count.
    pub nulls: Option<u64>,
    /// Estimated smallest non-null value.
    pub min: Option<Value>,
    /// Estimated largest non-null value.
    pub max: Option<Value>,
    /// The leaf histogram, carried through stat-preserving operators as an
    /// approximation of the distribution's *shape* (counts are fractions
    /// of the original table, used only for selectivity ratios).
    pub histogram: Option<Arc<Histogram>>,
}

impl ColumnEstimate {
    /// The blind estimate: nothing known.
    pub fn unknown() -> ColumnEstimate {
        ColumnEstimate::default()
    }

    /// Adopt a leaf column's measured summary as the estimate.
    pub fn from_summary(s: &ColumnSummary) -> ColumnEstimate {
        ColumnEstimate {
            distinct: Some(s.distinct),
            nulls: Some(s.nulls),
            min: s.min.clone(),
            max: s.max.clone(),
            histogram: s.histogram.clone(),
        }
    }

    /// Cap the distinct estimate by an output row count.
    pub fn capped(mut self, rows: u64) -> ColumnEstimate {
        self.distinct = self.distinct.map(|d| d.min(rows.max(1)));
        self
    }
}

/// Estimated output statistics of a plan node — the replacement for
/// Table 1's scalar cardinality column, propagated bottom-up through
/// `annotate`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DerivedStats {
    /// Estimated output rows.
    pub rows: u64,
    /// Estimated count of distinct tuples (≤ `rows`; drives `rdup`).
    pub distinct_rows: u64,
    /// Per-column estimates, parallel to the output schema. May be empty
    /// when nothing is known about any column.
    pub columns: Vec<ColumnEstimate>,
    /// Estimated covered time range (temporal outputs with known stats).
    pub time_range: Option<Period>,
    /// Estimated average period duration ×1000.
    pub avg_duration_milli: Option<i64>,
    /// Estimated snapshot duplicate degree (1 = snapshot-dup-free;
    /// None = unknown).
    pub overlap: Option<u64>,
}

impl DerivedStats {
    /// Statistics-free estimate: `rows` rows, nothing else known. The
    /// degenerate case every formula reduces to on plans built from bare
    /// `BaseProps` — preserving the pre-statistics optimizer behaviour.
    pub fn unknown(rows: u64) -> DerivedStats {
        DerivedStats {
            rows,
            distinct_rows: rows,
            columns: Vec::new(),
            time_range: None,
            avg_duration_milli: None,
            overlap: None,
        }
    }

    /// Leaf statistics from a measured table summary.
    pub fn from_summary(s: &TableSummary) -> DerivedStats {
        DerivedStats {
            rows: s.rows,
            distinct_rows: s.distinct_rows,
            columns: s.columns.iter().map(ColumnEstimate::from_summary).collect(),
            time_range: s.time_range,
            avg_duration_milli: s.avg_duration_milli,
            overlap: Some(s.max_class_overlap.max(1)),
        }
    }

    /// The column estimate for `name` under `schema`, if any.
    pub fn column<'a>(&'a self, schema: &Schema, name: &str) -> Option<&'a ColumnEstimate> {
        let i = schema.index_of(name)?;
        self.columns.get(i)
    }

    /// Estimated distinct count of a named column.
    pub fn distinct_of(&self, schema: &Schema, name: &str) -> Option<u64> {
        self.column(schema, name).and_then(|c| c.distinct)
    }

    /// Scale row-dependent fields to a new row count (selections): distinct
    /// counts cap at the new cardinality, null counts scale proportionally
    /// (an absolute null count over fewer rows would exceed 100%),
    /// histograms keep their shape.
    pub fn scaled_to(&self, rows: u64) -> DerivedStats {
        let factor = if self.rows == 0 {
            0.0
        } else {
            rows as f64 / self.rows as f64
        };
        DerivedStats {
            rows,
            distinct_rows: self.distinct_rows.min(rows.max(1)),
            columns: self
                .columns
                .iter()
                .map(|c| {
                    let mut c = c.clone().capped(rows);
                    c.nulls = c.nulls.map(|n| ((n as f64 * factor) as u64).min(rows));
                    c
                })
                .collect(),
            time_range: self.time_range,
            avg_duration_milli: self.avg_duration_milli,
            overlap: self.overlap,
        }
    }
}

/// Estimated selectivity of `pred` over an input with statistics `input`
/// and schema `schema`. Falls back to the pre-statistics default of 1/2
/// whenever the predicate's shape or the available statistics give no
/// better answer — so plans without statistics price exactly as before.
pub fn selectivity(pred: &Expr, schema: &Schema, input: &DerivedStats) -> f64 {
    informed_selectivity(pred, schema, input)
        .unwrap_or(0.5)
        .clamp(0.0, 1.0)
}

/// `Some(fraction)` when the statistics support an estimate, else `None`.
fn informed_selectivity(pred: &Expr, schema: &Schema, input: &DerivedStats) -> Option<f64> {
    match pred {
        Expr::Lit(Value::Bool(b)) => Some(if *b { 1.0 } else { 0.0 }),
        Expr::Not(inner) => Some(1.0 - informed_selectivity(inner, schema, input)?),
        Expr::IsNull(inner) => {
            if let Expr::Col(name) = inner.as_ref() {
                let c = input.column(schema, name)?;
                let nulls = c.nulls? as f64;
                return Some(if input.rows == 0 {
                    0.0
                } else {
                    nulls / input.rows as f64
                });
            }
            None
        }
        Expr::Bin { op, left, right } => match op {
            BinOp::And => {
                let l = informed_selectivity(left, schema, input);
                let r = informed_selectivity(right, schema, input);
                match (l, r) {
                    (None, None) => None,
                    (l, r) => Some(l.unwrap_or(0.5) * r.unwrap_or(0.5)),
                }
            }
            BinOp::Or => {
                let l = informed_selectivity(left, schema, input);
                let r = informed_selectivity(right, schema, input);
                match (l, r) {
                    (None, None) => None,
                    (l, r) => {
                        let (l, r) = (l.unwrap_or(0.5), r.unwrap_or(0.5));
                        Some(l + r - l * r)
                    }
                }
            }
            BinOp::Eq | BinOp::Ne => {
                let eq = eq_selectivity(left, right, schema, input)?;
                Some(if *op == BinOp::Eq { eq } else { 1.0 - eq })
            }
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                range_selectivity(*op, left, right, schema, input)
            }
            _ => None,
        },
        _ => None,
    }
}

/// Selectivity of `left = right`.
fn eq_selectivity(left: &Expr, right: &Expr, schema: &Schema, input: &DerivedStats) -> Option<f64> {
    match (left, right) {
        // Column = literal: 1/NDV, zero outside the observed [min, max].
        (Expr::Col(name), Expr::Lit(v)) | (Expr::Lit(v), Expr::Col(name)) => {
            let c = input.column(schema, name)?;
            if let (Some(min), Some(max)) = (&c.min, &c.max) {
                if v.cmp(min) == std::cmp::Ordering::Less
                    || v.cmp(max) == std::cmp::Ordering::Greater
                {
                    return Some(0.0);
                }
            }
            c.distinct.map(|d| 1.0 / d.max(1) as f64)
        }
        // Column = column (join predicate): 1/max(d₁, d₂).
        (Expr::Col(a), Expr::Col(b)) => {
            let da = input.distinct_of(schema, a);
            let db = input.distinct_of(schema, b);
            match (da, db) {
                (None, None) => None,
                (da, db) => {
                    let d = da.unwrap_or(1).max(db.unwrap_or(1)).max(1);
                    Some(1.0 / d as f64)
                }
            }
        }
        _ => None,
    }
}

/// Selectivity of a range comparison against a literal, from the column's
/// histogram (or its min/max when only those are known).
fn range_selectivity(
    op: BinOp,
    left: &Expr,
    right: &Expr,
    schema: &Schema,
    input: &DerivedStats,
) -> Option<f64> {
    // Normalize to `col OP lit`.
    let (name, lit, op) = match (left, right) {
        (Expr::Col(name), Expr::Lit(v)) => (name, v, op),
        (Expr::Lit(v), Expr::Col(name)) => {
            let flipped = match op {
                BinOp::Lt => BinOp::Gt,
                BinOp::Le => BinOp::Ge,
                BinOp::Gt => BinOp::Lt,
                BinOp::Ge => BinOp::Le,
                other => other,
            };
            (name, v, flipped)
        }
        _ => return None,
    };
    let c = input.column(schema, name)?;
    if let Some(h) = &c.histogram {
        return Some(match op {
            BinOp::Lt => h.fraction_below(lit),
            BinOp::Le => h.fraction_le(lit),
            BinOp::Gt => 1.0 - h.fraction_le(lit),
            BinOp::Ge => 1.0 - h.fraction_below(lit),
            _ => unreachable!("normalized to a range op"),
        });
    }
    // Min/max only: all-or-nothing when the literal falls outside.
    let (min, max) = (c.min.as_ref()?, c.max.as_ref()?);
    let below_min = lit.cmp(min) == std::cmp::Ordering::Less;
    let above_max = lit.cmp(max) == std::cmp::Ordering::Greater;
    match op {
        BinOp::Lt | BinOp::Le => {
            if below_min {
                Some(0.0)
            } else if above_max {
                Some(1.0)
            } else {
                None
            }
        }
        BinOp::Gt | BinOp::Ge => {
            if above_max {
                Some(0.0)
            } else if below_min {
                Some(1.0)
            } else {
                None
            }
        }
        _ => None,
    }
}

/// Expected fraction of pairs with overlapping periods, for two interval
/// populations with the given time ranges and mean durations — the `×ᵀ`
/// pairing probability. Intervals with mean durations `d₁`, `d₂` whose
/// starts spread over a common range of length `L` overlap with
/// probability ≈ `(d₁+d₂)/L`.
pub fn overlap_fraction(a: &DerivedStats, b: &DerivedStats) -> Option<f64> {
    let (ra, rb) = (a.time_range?, b.time_range?);
    let (da, db) = (a.avg_duration_milli?, b.avg_duration_milli?);
    let lo = ra.start.min(rb.start);
    let hi = ra.end.max(rb.end);
    let span = (hi.saturating_sub(lo)).max(1) as f64 * 1000.0;
    let sum = da.saturating_add(db).max(1) as f64;
    Some((sum / span).clamp(0.0, 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::DataType;

    fn int_vals(xs: &[i64]) -> Vec<Value> {
        xs.iter().map(|&x| Value::Int(x)).collect()
    }

    #[test]
    fn equi_depth_histogram_buckets_evenly() {
        let vals = int_vals(&(0..100).collect::<Vec<_>>());
        let h = Histogram::from_sorted(&vals, 4).unwrap();
        assert_eq!(h.counts, vec![25, 25, 25, 25]);
        assert_eq!(h.total, 100);
        assert!((h.fraction_le(&Value::Int(49)) - 0.5).abs() < 0.26);
        assert_eq!(h.fraction_le(&Value::Int(1000)), 1.0);
        assert_eq!(h.fraction_below(&Value::Int(-5)), 0.0);
    }

    #[test]
    fn histogram_handles_tiny_and_empty_inputs() {
        assert!(Histogram::from_sorted(&[], 8).is_none());
        let h = Histogram::from_sorted(&int_vals(&[7]), 8).unwrap();
        assert_eq!(h.total, 1);
        assert_eq!(h.fraction_le(&Value::Int(7)), 1.0);
    }

    fn stats_with_column(name: &str, distinct: u64, values: &[i64]) -> (Schema, DerivedStats) {
        let schema = Schema::of(&[(name, DataType::Int)]);
        let mut sorted = int_vals(values);
        sorted.sort();
        let col = ColumnEstimate {
            distinct: Some(distinct),
            nulls: Some(0),
            min: sorted.first().cloned(),
            max: sorted.last().cloned(),
            histogram: Histogram::from_sorted(&sorted, 4).map(Arc::new),
        };
        let mut st = DerivedStats::unknown(values.len() as u64);
        st.columns = vec![col];
        (schema, st)
    }

    #[test]
    fn eq_selectivity_is_one_over_ndv() {
        let (schema, st) = stats_with_column("A", 10, &(0..100).collect::<Vec<_>>());
        let sel = selectivity(&Expr::eq(Expr::col("A"), Expr::lit(5i64)), &schema, &st);
        assert!((sel - 0.1).abs() < 1e-9);
        // Outside the observed range: zero.
        let sel0 = selectivity(&Expr::eq(Expr::col("A"), Expr::lit(500i64)), &schema, &st);
        assert_eq!(sel0, 0.0);
    }

    #[test]
    fn range_selectivity_uses_histogram() {
        let (schema, st) = stats_with_column("A", 100, &(0..100).collect::<Vec<_>>());
        let sel = selectivity(&Expr::lt(Expr::col("A"), Expr::lit(25i64)), &schema, &st);
        assert!(sel > 0.05 && sel < 0.45, "sel={sel}");
        let all = selectivity(&Expr::lt(Expr::col("A"), Expr::lit(1000i64)), &schema, &st);
        assert!(all > 0.95);
    }

    #[test]
    fn unknown_predicates_default_to_half() {
        let schema = Schema::of(&[("A", DataType::Int)]);
        let st = DerivedStats::unknown(100);
        let sel = selectivity(&Expr::eq(Expr::col("A"), Expr::lit(5i64)), &schema, &st);
        assert_eq!(sel, 0.5);
    }

    #[test]
    fn measure_on_empty_relation() {
        let r = Relation::empty(Schema::temporal(&[("E", DataType::Str)]));
        let s = TableSummary::measure(&r).unwrap();
        assert_eq!(s.rows, 0);
        assert_eq!(s.distinct_rows, 0);
        assert!(s.time_range.is_none());
        assert!(s.avg_duration_milli.is_none());
        assert_eq!(s.max_class_overlap, 0);
        let c = s.column("E").unwrap();
        assert_eq!(c.distinct, 0);
        assert!(c.min.is_none() && c.max.is_none() && c.histogram.is_none());
        // DerivedStats from the same relation degrade without panicking.
        let d = DerivedStats::from_summary(&s);
        assert_eq!(d.rows, 0);
        assert_eq!(d.overlap, Some(1)); // floored: no class exceeds one
    }

    #[test]
    fn measure_on_all_null_column() {
        use crate::tuple::Tuple;
        let r = Relation::new(
            Schema::of(&[("A", DataType::Int), ("B", DataType::Str)]),
            vec![
                Tuple::new(vec![Value::Null, Value::Str("x".into())]),
                Tuple::new(vec![Value::Null, Value::Str("x".into())]),
                Tuple::new(vec![Value::Null, Value::Str("y".into())]),
            ],
        )
        .unwrap();
        let s = TableSummary::measure(&r).unwrap();
        let a = s.column("A").unwrap();
        assert_eq!((a.distinct, a.nulls), (0, 3));
        assert!(a.min.is_none() && a.max.is_none() && a.histogram.is_none());
        let b = s.column("B").unwrap();
        assert_eq!((b.distinct, b.nulls), (2, 0));
        assert_eq!(s.distinct_rows, 2);
        // The derived estimate still prices an IS NULL predicate sensibly.
        let d = DerivedStats::from_summary(&s);
        let sel = selectivity(
            &Expr::IsNull(Box::new(Expr::col("A"))),
            &Schema::of(&[("A", DataType::Int), ("B", DataType::Str)]),
            &d,
        );
        assert!((sel - 1.0).abs() < 1e-9);
    }

    #[test]
    fn measure_on_single_row_temporal_relation() {
        use crate::tuple::Tuple;
        let r = Relation::new(
            Schema::temporal(&[("E", DataType::Str)]),
            vec![Tuple::new(vec![
                Value::Str("a".into()),
                Value::Time(3),
                Value::Time(8),
            ])],
        )
        .unwrap();
        let s = TableSummary::measure(&r).unwrap();
        assert_eq!(s.rows, 1);
        assert_eq!(s.distinct_rows, 1);
        assert_eq!(s.time_range, Some(Period::of(3, 8)));
        assert_eq!(s.avg_duration_milli, Some(5000));
        assert_eq!(s.max_class_overlap, 1);
        let e = s.column("E").unwrap();
        assert_eq!(e.distinct, 1);
        assert_eq!(e.min, e.max);
        assert_eq!(e.histogram.as_ref().unwrap().total, 1);
    }

    #[test]
    fn join_selectivity_uses_larger_ndv() {
        let schema = Schema::of(&[("A", DataType::Int), ("B", DataType::Int)]);
        let mut st = DerivedStats::unknown(100);
        st.columns = vec![
            ColumnEstimate {
                distinct: Some(20),
                ..ColumnEstimate::unknown()
            },
            ColumnEstimate {
                distinct: Some(5),
                ..ColumnEstimate::unknown()
            },
        ];
        let sel = selectivity(&Expr::eq(Expr::col("A"), Expr::col("B")), &schema, &st);
        assert!((sel - 0.05).abs() < 1e-9);
    }

    #[test]
    fn median_pins_the_upper_median_convention() {
        assert_eq!(median(&mut []), None);
        assert_eq!(median(&mut [7.0]), Some(7.0));
        // Odd length: the middle element.
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), Some(2.0));
        // Even length: the UPPER median (values[n/2] after sorting), never
        // the interpolated midpoint — pinned so benches/tests agree.
        assert_eq!(median(&mut [1.0, 2.0]), Some(2.0));
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), Some(3.0));
    }

    #[test]
    fn measure_counts_columns_periods_and_class_overlap() {
        use crate::tuple;
        let r = Relation::new(
            Schema::temporal(&[("E", DataType::Str)]),
            vec![
                tuple!["a", 1i64, 5i64],
                tuple!["a", 3i64, 9i64],
                tuple!["b", 2i64, 4i64],
            ],
        )
        .unwrap();
        let s = TableSummary::measure(&r).unwrap();
        assert_eq!((s.rows, s.distinct_rows), (3, 3));
        assert_eq!(s.column("E").unwrap().distinct, 2);
        assert_eq!(s.time_range, Some(Period::of(1, 9)));
        assert_eq!(s.avg_duration_milli, Some(4000));
        assert_eq!(s.max_class_overlap, 2); // a's periods overlap on [3,5)

        // Duplicates count once among the distinct rows, twice in overlap.
        let dup = Relation::new(
            Schema::temporal(&[("E", DataType::Str)]),
            vec![tuple!["a", 1i64, 5i64], tuple!["a", 1i64, 5i64]],
        )
        .unwrap();
        let s = TableSummary::measure(&dup).unwrap();
        assert_eq!((s.rows, s.distinct_rows, s.max_class_overlap), (2, 1, 2));
    }

    #[test]
    fn measure_on_snapshot_relation_has_no_time_stats() {
        use crate::tuple;
        let r = Relation::new(
            Schema::of(&[("A", DataType::Int)]),
            vec![tuple![1i64], tuple![1i64], tuple![2i64]],
        )
        .unwrap();
        let s = TableSummary::measure(&r).unwrap();
        assert_eq!((s.rows, s.distinct_rows), (3, 2));
        assert_eq!(s.column("A").unwrap().distinct, 2);
        assert!(s.time_range.is_none());
        assert_eq!(s.max_class_overlap, 0);
    }

    #[test]
    fn abutting_periods_do_not_count_as_overlap() {
        use crate::tuple;
        // a: [1,3) then [3,5) — adjacent, never simultaneous. The close
        // event at 3 sorts before the open event at 3.
        let r = Relation::new(
            Schema::temporal(&[("E", DataType::Str)]),
            vec![tuple!["a", 1i64, 3i64], tuple!["a", 3i64, 5i64]],
        )
        .unwrap();
        assert_eq!(TableSummary::measure(&r).unwrap().max_class_overlap, 1);
    }

    #[test]
    fn min_max_and_histogram_reflect_data() {
        use crate::tuple;
        let tuples: Vec<_> = (0..64i64).map(|i| tuple![i % 16, 0i64, 1i64]).collect();
        let r = Relation::new(Schema::temporal(&[("A", DataType::Int)]), tuples).unwrap();
        let s = TableSummary::measure(&r).unwrap();
        let a = s.column("A").unwrap();
        assert_eq!(a.min, Some(Value::Int(0)));
        assert_eq!(a.max, Some(Value::Int(15)));
        let h = a.histogram.as_ref().unwrap();
        assert_eq!(h.total, 64);
        assert!((h.fraction_le(&Value::Int(7)) - 0.5).abs() < 0.2);
    }

    /// The columnar measure against the definitions walked tuple by tuple
    /// (sorted values, runs counted by `Value` equality, classes keyed by
    /// their explicit values), over every column type, NULLs in each,
    /// `-0.0` beside `0.0`, on temporal and snapshot schemas.
    #[test]
    fn columnar_measure_equals_the_tuple_walk() {
        use crate::tuple::Tuple;
        use std::collections::{HashMap, HashSet};
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut draw = |m: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) % m
        };
        let attrs = [
            ("I", DataType::Int),
            ("F", DataType::Float),
            ("B", DataType::Bool),
            ("S", DataType::Str),
        ];
        for temporal in [true, false] {
            let schema = if temporal {
                Schema::temporal(&attrs)
            } else {
                Schema::of(&attrs)
            };
            for rows in [0, 1, 2, 7, 60, 300] {
                let tuples: Vec<Tuple> = (0..rows)
                    .map(|_| {
                        let mut v = vec![
                            Value::Int(draw(7) as i64 - 3),
                            Value::Float([0.5, -0.0, 0.0, 2.25][draw(4) as usize]),
                            Value::Bool(draw(2) == 1),
                            Value::Str(format!("s{}", draw(5)).into()),
                        ];
                        for x in v.iter_mut() {
                            if draw(6) == 0 {
                                *x = Value::Null;
                            }
                        }
                        if temporal {
                            let start = draw(10) as i64;
                            v.push(Value::Time(start));
                            v.push(Value::Time(start + 1 + draw(4) as i64));
                        }
                        Tuple::new(v)
                    })
                    .collect();
                let r = Relation::new(schema.clone(), tuples).unwrap();

                let mut profile = RelationProfile {
                    rows: rows as u64,
                    distinct_rows: 0,
                    max_class_overlap: 0,
                    uncoalesced_classes: 0,
                    time_range: None,
                    total_duration: 0,
                };
                if temporal {
                    let mut classes: HashMap<Vec<Value>, Vec<Period>> = HashMap::new();
                    for t in r.tuples() {
                        let p = t.period(&schema).unwrap();
                        profile.total_duration += p.duration() as i128;
                        profile.time_range = Some(
                            profile
                                .time_range
                                .map_or(p, |q| Period::of(q.start.min(p.start), q.end.max(p.end))),
                        );
                        classes
                            .entry(t.explicit_values(&schema))
                            .or_default()
                            .push(p);
                    }
                    for periods in classes.values_mut() {
                        let facts = ClassFacts::of(periods);
                        profile.distinct_rows += facts.distinct;
                        profile.max_class_overlap = profile.max_class_overlap.max(facts.overlap);
                        profile.uncoalesced_classes += u64::from(facts.adjacent);
                    }
                } else {
                    let distinct: HashSet<&[Value]> =
                        r.tuples().iter().map(|t| t.values()).collect();
                    profile.distinct_rows = distinct.len() as u64;
                }
                let columns = schema
                    .attrs()
                    .iter()
                    .enumerate()
                    .map(|(i, attr)| {
                        let mut values: Vec<Value> = r
                            .tuples()
                            .iter()
                            .map(|t| t.value(i).clone())
                            .filter(|v| !v.is_null())
                            .collect();
                        values.sort_unstable();
                        let distinct =
                            values.len() - values.windows(2).filter(|w| w[0] == w[1]).count();
                        ColumnSummary {
                            name: attr.name.clone(),
                            distinct: distinct as u64,
                            nulls: (rows - values.len()) as u64,
                            min: values.first().cloned(),
                            max: values.last().cloned(),
                            histogram: Histogram::from_sorted(&values, HISTOGRAM_BUCKETS)
                                .map(Arc::new),
                        }
                    })
                    .collect();

                let (summary, measured) = TableSummary::profiled(&r).unwrap();
                let leg = format!("temporal {temporal}, {rows} rows");
                assert_eq!(measured, profile, "{leg}");
                assert_eq!(summary, TableSummary::assemble(&profile, columns), "{leg}");
            }
        }
    }
}
