//! Columnar kernels for the pipeline-breaking operators.
//!
//! Each kernel consumes fully materialized [`ColumnarRelation`]s and is
//! **list-exact** against the corresponding row implementation in
//! `tqo_core::ops` / `crate::operators`: same rows, same order, so the two
//! engines can be compared with `==`. The temporal kernels never touch
//! `Value`s on their hot path — periods are swept as raw `i64` columns,
//! value-equivalence classes ([`ClassIndex`]) are numbered straight from
//! the key columns' dictionary codes (row hashes only for a key with a
//! column of another type), and output rows are assembled with
//! per-column gathers.

use std::cell::OnceCell;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;
use std::sync::Arc;

use tqo_core::columnar::{Column, ColumnData, ColumnarRelation, Sel};
use tqo_core::context;
use tqo_core::error::{Error, Result};
use tqo_core::expr::{AggFunc, AggItem};
use tqo_core::ops::temporal::aggregate_t::IntervalAggregates;
use tqo_core::ops::temporal::coalesce::coalesce_walk;
use tqo_core::ops::temporal::product_t::overlapping_pairs;
use tqo_core::plan::EquiKeys;
use tqo_core::schema::Schema;
use tqo_core::sortspec::{Order, SortDir};
use tqo_core::time::LiveSet;
use tqo_core::trace::counters;
use tqo_core::value::DataType;

use super::hash::{CodeIds, CodeKeys, RowTable, NONE, NO_KEY};
use super::BATCH_SIZE;

/// Sort inputs below this row count skip radix partitioning: the
/// histogram and scatter passes only pay off once the working set
/// outgrows the caches.
const RADIX_MIN_ROWS: usize = 4096;

/// Stable sort permutation of `input` under `order` (ties keep input
/// order, matching the interpreter's stable `sort_by`).
pub fn sort_indices(input: &ColumnarRelation, order: &Order) -> Result<Vec<u32>> {
    Ok(SortKeys::new(input, order, None)?.sort())
}

/// Precomputed sort state shared by [`sort_indices`] and the pipeline's
/// fused selection sort: normalized `u64` prefixes of the primary key for
/// the rows being sorted (unsigned ascending order never contradicting
/// the full comparator — see [`Column::sort_prefixes`]) plus the resolved
/// key list for refinement.
pub(super) struct SortKeys<'a> {
    input: &'a ColumnarRelation,
    /// The rows to sort, strictly ascending (every row when `None`).
    /// Prefixes are built for these rows only, and indexed by position.
    rows: Option<&'a [u32]>,
    keys: Vec<(usize, SortDir)>,
    prefixes: Vec<u64>,
    /// Prefix order fully decides the primary key (equal prefixes mean
    /// equal key-0 values), so refinement may skip key 0.
    exact0: bool,
}

impl<'a> SortKeys<'a> {
    /// Sort state for `rows` of `input` (every row when `None`); `rows`
    /// must be strictly ascending, so position order is stream order.
    pub fn new(
        input: &'a ColumnarRelation,
        order: &Order,
        rows: Option<&'a [u32]>,
    ) -> Result<SortKeys<'a>> {
        let mut keys = Vec::with_capacity(order.keys().len());
        for k in order.keys() {
            keys.push((input.schema().resolve(&k.attr)?, k.dir));
        }
        let n = rows.map_or(input.rows(), <[u32]>::len);
        let (prefixes, exact0) = match keys.first() {
            None => (vec![0u64; n], true),
            Some(&(c, dir)) => {
                let (mut p, exact) = input.column(c).sort_prefixes(rows);
                if dir == SortDir::Desc {
                    // Complementing inverts the whole prefix order,
                    // null placement included (null-first → null-last,
                    // exactly `Ordering::reverse`).
                    for v in p.iter_mut() {
                        *v = !*v;
                    }
                }
                (p, exact)
            }
        };
        Ok(SortKeys {
            input,
            rows,
            keys,
            prefixes,
            exact0,
        })
    }

    /// The row at position `k` of the rows being sorted.
    #[inline]
    fn row(&self, k: u32) -> u32 {
        self.rows.map_or(k, |rows| rows[k as usize])
    }

    /// The stable sort of the rows, as row ids: sort `(prefix, position)`
    /// pairs ([`radix_sort_pairs`]) — the position component *is* the
    /// stability tie-break — then refine equal-prefix runs with the
    /// remaining comparator. The later keys' prefixes are computed on the
    /// first run that needs refining.
    pub fn sort(&self) -> Vec<u32> {
        let mut pairs: Vec<(u64, u32)> = self
            .prefixes
            .iter()
            .enumerate()
            .map(|(k, &p)| (p, k as u32))
            .collect();
        if pairs.len() > 1 && !self.keys.is_empty() {
            radix_sort_pairs(&mut pairs);
        }
        let mut idx: Vec<u32> = pairs.iter().map(|&(_, k)| k).collect();
        // Refine equal-prefix runs, unless the prefixes decide the order.
        let decided = self.keys.is_empty() || (self.exact0 && self.keys.len() == 1);
        if !decided {
            let mut later: Option<Vec<(Vec<u64>, bool)>> = None;
            let mut start = 0;
            while start < pairs.len() {
                let p = pairs[start].0;
                let mut end = start + 1;
                while end < pairs.len() && pairs[end].0 == p {
                    end += 1;
                }
                if end - start > 1 {
                    let later = later.get_or_insert_with(|| {
                        self.keys[1..]
                            .iter()
                            .map(|&(c, _)| self.input.column(c).sort_prefixes(self.rows))
                            .collect()
                    });
                    idx[start..end].sort_by(|&a, &b| self.cmp_tied(later, a, b));
                }
                start = end;
            }
        }
        if self.rows.is_some() {
            for k in idx.iter_mut() {
                *k = self.row(*k);
            }
        }
        idx
    }

    /// Compare the rows at two positions whose primary prefixes tie,
    /// matching the interpreter's comparator exactly (`cmp_at` per key,
    /// `reverse` on descending). An inexact primary key compares by value;
    /// each later key by its prefixes (`later`, parallel to `keys[1..]`),
    /// and by value only where they tie inexactly.
    #[inline]
    fn cmp_tied(&self, later: &[(Vec<u64>, bool)], a: u32, b: u32) -> Ordering {
        let (ra, rb) = (self.row(a) as usize, self.row(b) as usize);
        let (a, b) = (a as usize, b as usize);
        let directed = |ord: Ordering, dir: SortDir| match dir {
            SortDir::Asc => ord,
            SortDir::Desc => ord.reverse(),
        };
        if !self.exact0 {
            let (c, dir) = self.keys[0];
            let col = self.input.column(c);
            let ord = directed(col.cmp_at(ra, col, rb), dir);
            if ord != Ordering::Equal {
                return ord;
            }
        }
        for (&(c, dir), (prefixes, exact)) in self.keys[1..].iter().zip(later) {
            let ord = match prefixes[a].cmp(&prefixes[b]) {
                Ordering::Equal if !exact => {
                    let col = self.input.column(c);
                    col.cmp_at(ra, col, rb)
                }
                ord => ord,
            };
            let ord = directed(ord, dir);
            if ord != Ordering::Equal {
                return ord;
            }
        }
        Ordering::Equal
    }
}

/// Sort `(prefix, position)` pairs, whose positions are distinct and
/// arrive ascending, into ascending order: an LSD radix over only the
/// bytes in which the prefixes differ (the OR of every prefix XOR the
/// first), one stable counting scatter per such byte, so equal prefixes
/// keep position order. Dictionary codes, small integers and strings
/// sharing a first letter all differ in a few low bytes only. Small inputs
/// sort directly — the scatters only pay off past cache size.
fn radix_sort_pairs(pairs: &mut Vec<(u64, u32)>) {
    if pairs.len() < RADIX_MIN_ROWS {
        pairs.sort_unstable();
        return;
    }
    let first = pairs[0].0;
    let differ = pairs.iter().fold(0, |d, &(p, _)| d | (p ^ first));
    let mut from = std::mem::take(pairs);
    let mut to = vec![(0u64, 0u32); from.len()];
    for shift in (0..64).step_by(8).filter(|s| (differ >> s) & 0xff != 0) {
        let mut starts = [0usize; 257];
        for &(p, _) in &from {
            starts[((p >> shift) & 0xff) as usize + 1] += 1;
        }
        for b in 0..256 {
            starts[b + 1] += starts[b];
        }
        for &pair in &from {
            let b = ((pair.0 >> shift) & 0xff) as usize;
            to[starts[b]] = pair;
            starts[b] += 1;
        }
        std::mem::swap(&mut from, &mut to);
    }
    *pairs = from;
}

/// Stable counting sort of positions `0..keys.len()` by `keys` (each
/// `< buckets`): returns `(starts, order)`, where the positions with key
/// `k` are `order[starts[k]..starts[k + 1]]`, ascending.
fn counting_sort(keys: &[u32], buckets: usize) -> (Vec<u32>, Vec<u32>) {
    let mut starts = vec![0u32; buckets + 1];
    for &k in keys {
        starts[k as usize + 1] += 1;
    }
    for b in 0..buckets {
        starts[b + 1] += starts[b];
    }
    let mut cursor = starts[..buckets].to_vec();
    let mut order = vec![0u32; keys.len()];
    for (i, &k) in keys.iter().enumerate() {
        let at = &mut cursor[k as usize];
        order[*at as usize] = i as u32;
        *at += 1;
    }
    (starts, order)
}

/// Value-equivalence classes (or grouping classes) of a relation over a
/// set of key columns, in first-occurrence order.
///
/// String keys are numbered straight from their dictionary codes
/// (`CodeKeys`): one pass reads each row's key and looks up its id in
/// `CodeIds` — a dense slot array when the key domain is small, a table
/// of packed keys otherwise — with no hash and no verify. A key with a
/// column of another type, or whose domain overflows `u64`, is hashed
/// and verified against each class's first row (counted by
/// `groupings_hashed`).
///
/// Members are one flat layout, built on first use: a counting sort of
/// `class_of_row` lays every class out as a contiguous run of ascending
/// row ids, so the per-class kernels walk runs over shared buffers
/// instead of a heap vector per class.
pub struct ClassIndex {
    lookup: Lookup,
    /// First member row of each class.
    pub protos: Vec<u32>,
    /// `(member_starts, member_rows)`: every row id, grouped by class
    /// (classes in id order), ascending within a class; class `c`'s
    /// members are `member_rows[member_starts[c]..member_starts[c + 1]]`.
    members: OnceCell<(Vec<u32>, Vec<u32>)>,
    /// Class id of every input row (row-major accumulation).
    pub class_of_row: Vec<u32>,
}

/// How a [`ClassIndex`] finds a key's class.
enum Lookup {
    /// Classes by code key.
    Codes(CodeKeys, CodeIds),
    /// Classes by row hash, verified against each class's first row in
    /// the build input's key columns.
    Hashed(RowTable, Vec<Arc<Column>>),
}

/// Whether row `a` of the key columns `keys` equals row `b` of `cols`,
/// whose key columns sit at `key_idx`.
#[inline]
fn keys_eq(
    keys: &[Arc<Column>],
    a: usize,
    cols: &[Arc<Column>],
    key_idx: &[usize],
    b: usize,
) -> bool {
    keys.iter()
        .zip(key_idx)
        .all(|(k, &c)| k.eq_at(a, &cols[c], b))
}

impl ClassIndex {
    /// Build the index over `key_idx` columns of `input`.
    pub fn build(input: &ColumnarRelation, key_idx: Vec<usize>) -> ClassIndex {
        match CodeKeys::of(key_idx.iter().map(|&c| &**input.column(c))) {
            Some(code_keys) => Self::build_codes(input, key_idx, code_keys),
            None => Self::build_hashed(input, key_idx),
        }
    }

    fn build_codes(
        input: &ColumnarRelation,
        key_idx: Vec<usize>,
        code_keys: CodeKeys,
    ) -> ClassIndex {
        let rows = input.rows();
        let key_cols: Vec<&Column> = key_idx.iter().map(|&c| &**input.column(c)).collect();
        let mut ids = CodeIds::new(code_keys.domain(), rows);
        let (mut protos, mut class_of_row) = (Vec::new(), Vec::with_capacity(rows));
        // A batch of keys at a time, so the keys stay in cache.
        for start in (0..rows).step_by(BATCH_SIZE) {
            let sel = Sel::Range(start, rows.min(start + BATCH_SIZE));
            let keys = code_keys.keys(&key_cols, &sel);
            ids.number(&keys, start as u32, &mut class_of_row, &mut protos);
        }
        Self::from_classes(Lookup::Codes(code_keys, ids), protos, class_of_row)
    }

    /// The hashed build, whatever the key columns: classes by row hash,
    /// verified against each class's first row. [`ClassIndex::build`]
    /// takes it only for keys it cannot number by code; it is public as
    /// the reference the code-numbered build is tested against.
    pub fn build_hashed(input: &ColumnarRelation, key_idx: Vec<usize>) -> ClassIndex {
        counters::GROUPINGS_HASHED.incr();
        let cols = input.columns();
        let rows = input.rows();
        let keys: Vec<Arc<Column>> = key_idx.iter().map(|&c| cols[c].clone()).collect();
        let hashes = super::hash::hash_all(cols, &key_idx, rows);
        let mut table = RowTable::with_capacity(rows);
        let mut protos: Vec<u32> = Vec::new();
        let class_of_row = (0..rows)
            .map(|row| {
                let (id, new) = table.find_or_insert(hashes[row], |e| {
                    keys_eq(&keys, protos[e as usize] as usize, cols, &key_idx, row)
                });
                if new {
                    protos.push(row as u32);
                }
                id
            })
            .collect();
        Self::from_classes(Lookup::Hashed(table, keys), protos, class_of_row)
    }

    fn from_classes(lookup: Lookup, protos: Vec<u32>, class_of_row: Vec<u32>) -> ClassIndex {
        ClassIndex {
            lookup,
            protos,
            members: OnceCell::new(),
            class_of_row,
        }
    }

    fn member_layout(&self) -> &(Vec<u32>, Vec<u32>) {
        self.members
            .get_or_init(|| counting_sort(&self.class_of_row, self.protos.len()))
    }

    /// Member rows of class `class`, ascending.
    #[inline]
    pub fn members(&self, class: usize) -> &[u32] {
        let (starts, rows) = self.member_layout();
        &rows[starts[class] as usize..starts[class + 1] as usize]
    }

    /// Every class's member rows, in class order.
    pub fn runs(&self) -> impl Iterator<Item = &[u32]> + '_ {
        let (starts, rows) = self.member_layout();
        starts
            .windows(2)
            .map(|w| &rows[w[0] as usize..w[1] as usize])
    }

    /// Class id of every row of `cols`, whose key columns sit at `key_idx`
    /// (parallel to the build keys, same domains), or `u32::MAX` where
    /// the key has no class. Code keys translate another dictionary's
    /// codes once per distinct code; hashed keys hash column-at-a-time,
    /// then probe.
    pub fn probe_all(&self, cols: &[Arc<Column>], key_idx: &[usize], rows: usize) -> Vec<u32> {
        match &self.lookup {
            Lookup::Codes(code_keys, ids) => {
                let key_cols: Vec<&Column> = key_idx.iter().map(|&c| &*cols[c]).collect();
                code_keys
                    .keys(&key_cols, &Sel::Range(0, rows))
                    .into_iter()
                    .map(|key| match key {
                        NO_KEY => NONE,
                        key => ids.find(key).unwrap_or(NONE),
                    })
                    .collect()
            }
            Lookup::Hashed(table, keys) => super::hash::hash_all(cols, key_idx, rows)
                .iter()
                .enumerate()
                .map(|(row, &h)| {
                    table
                        .find(h, |c| {
                            keys_eq(keys, self.protos[c as usize] as usize, cols, key_idx, row)
                        })
                        .unwrap_or(NONE)
                })
                .collect(),
        }
    }

    /// Number of classes.
    pub fn len(&self) -> usize {
        self.protos.len()
    }

    /// True when the input had no rows.
    pub fn is_empty(&self) -> bool {
        self.protos.is_empty()
    }
}

/// A `Time` column over computed instants.
fn time_column(instants: Vec<i64>) -> Arc<Column> {
    Arc::new(Column::from_data(ColumnData::Time(instants)))
}

/// Assemble an output relation for per-class temporal kernels: for each
/// emitted fragment, the explicit attributes come from a prototype row of
/// `input` and the period from parallel `t1`/`t2` vectors.
fn emit_fragments(
    input: &ColumnarRelation,
    out_schema: Arc<Schema>,
    proto_rows: &[u32],
    mut t1: Vec<i64>,
    mut t2: Vec<i64>,
) -> ColumnarRelation {
    let (i1, i2) = (
        out_schema.t1_index().expect("temporal output"),
        out_schema.t2_index().expect("temporal output"),
    );
    let mut columns = Vec::with_capacity(out_schema.arity());
    for (c, col) in input.columns().iter().enumerate() {
        if c == i1 {
            columns.push(time_column(std::mem::take(&mut t1)));
        } else if c == i2 {
            columns.push(time_column(std::mem::take(&mut t2)));
        } else {
            columns.push(Arc::new(col.gather(proto_rows)));
        }
    }
    ColumnarRelation::new(out_schema, columns)
}

/// Hash-grouped aggregation, list-exact against `tqo_core::ops::aggregate`
/// (groups in first-occurrence order, identical null/overflow semantics).
pub fn aggregate(
    input: &ColumnarRelation,
    group_by: &[String],
    aggs: &[AggItem],
    out_schema: Arc<Schema>,
) -> Result<ColumnarRelation> {
    let key_idx: Vec<usize> = group_by
        .iter()
        .map(|g| input.schema().resolve(g))
        .collect::<Result<_>>()?;
    let classes = ClassIndex::build(input, key_idx.clone());

    // Grand-total aggregation over an empty relation still yields one row.
    if group_by.is_empty() && input.is_empty() {
        let mut columns = Vec::with_capacity(aggs.len());
        for agg in aggs {
            let dtype = agg.output_type(input.schema())?;
            let mut col = Column::with_capacity(dtype, 1);
            col.push(&agg.compute(input.schema(), &[])?)?;
            columns.push(Arc::new(col));
        }
        return Ok(ColumnarRelation::new(out_schema, columns));
    }

    let groups = classes.len();
    let mut columns: Vec<Arc<Column>> = Vec::with_capacity(out_schema.arity());
    for &k in &key_idx {
        columns.push(Arc::new(input.column(k).gather(&classes.protos)));
    }
    for agg in aggs {
        columns.push(Arc::new(accumulate(input, &classes, agg, groups)?));
    }
    Ok(ColumnarRelation::new(out_schema, columns))
}

/// One aggregate over all groups, matching `AggItem::compute` exactly.
/// Accumulation is row-major (one pass over the input, `O(groups)` state)
/// with vectorized fast paths for null-free numeric columns; null-bearing
/// or exotic inputs take the generic per-value path with identical
/// semantics.
fn accumulate(
    input: &ColumnarRelation,
    classes: &ClassIndex,
    agg: &AggItem,
    groups: usize,
) -> Result<Column> {
    let arg = match &agg.arg {
        Some(a) => Some(input.schema().resolve(a)?),
        None => None,
    };
    let out_dtype = agg.output_type(input.schema())?;
    let gid = &classes.class_of_row;
    let mut out = Column::with_capacity(out_dtype, groups);
    match agg.func {
        AggFunc::Count => {
            let mut n = vec![0i64; groups];
            match arg {
                None => {
                    for &g in gid {
                        n[g as usize] += 1;
                    }
                }
                Some(c) => {
                    let col = input.column(c);
                    for (row, &g) in gid.iter().enumerate() {
                        if !col.is_null(row) {
                            n[g as usize] += 1;
                        }
                    }
                }
            }
            for v in n {
                out.push(&tqo_core::Value::Int(v))?;
            }
        }
        AggFunc::Min | AggFunc::Max => {
            let col = input.column(arg.expect("validated by output_type"));
            let min = agg.func == AggFunc::Min;
            // Best row per group; i64::MAX = none seen. Strict comparisons
            // keep the earliest row on ties, as the interpreter does.
            let mut best = vec![u32::MAX; groups];
            if let Some(data) = col.as_i64() {
                for (row, &g) in gid.iter().enumerate() {
                    let b = best[g as usize];
                    if b == u32::MAX
                        || (min && data[row] < data[b as usize])
                        || (!min && data[row] > data[b as usize])
                    {
                        best[g as usize] = row as u32;
                    }
                }
            } else {
                for (row, &g) in gid.iter().enumerate() {
                    if col.is_null(row) {
                        continue;
                    }
                    let b = best[g as usize];
                    let keep_new = b == u32::MAX || {
                        let ord = col.cmp_at(row, col, b as usize);
                        if min {
                            ord == Ordering::Less
                        } else {
                            ord == Ordering::Greater
                        }
                    };
                    if keep_new {
                        best[g as usize] = row as u32;
                    }
                }
            }
            for b in best {
                if b == u32::MAX {
                    out.push(&tqo_core::Value::Null)?;
                } else {
                    out.push_from(col, b as usize);
                }
            }
        }
        AggFunc::Sum => {
            let col = input.column(arg.expect("validated by output_type"));
            if let Some(data) = col.as_i64() {
                // Null-free Int/Time column: integer sums, every group has
                // at least one member.
                let mut acc = vec![0i64; groups];
                for (row, &g) in gid.iter().enumerate() {
                    let a = &mut acc[g as usize];
                    *a = a.wrapping_add(data[row]);
                }
                for v in acc {
                    out.push(&tqo_core::Value::Int(v))?;
                }
            } else if let Some(data) = col.as_f64() {
                let mut acc = vec![0.0f64; groups];
                for (row, &g) in gid.iter().enumerate() {
                    acc[g as usize] += data[row];
                }
                for v in acc {
                    out.push(&tqo_core::Value::Float(v))?;
                }
            } else {
                let mut acc_i = vec![0i64; groups];
                let mut acc_f = vec![0.0f64; groups];
                let mut any = vec![false; groups];
                let mut float = vec![false; groups];
                for (row, &g) in gid.iter().enumerate() {
                    let g = g as usize;
                    match col.value(row) {
                        tqo_core::Value::Null => {}
                        tqo_core::Value::Int(v) | tqo_core::Value::Time(v) => {
                            acc_i[g] = acc_i[g].wrapping_add(v);
                            acc_f[g] += v as f64;
                            any[g] = true;
                        }
                        tqo_core::Value::Float(v) => {
                            acc_f[g] += v;
                            float[g] = true;
                            any[g] = true;
                        }
                        other => {
                            return Err(Error::TypeError {
                                expected: "numeric",
                                found: other.to_string(),
                                context: "SUM",
                            })
                        }
                    }
                }
                for g in 0..groups {
                    let v = if !any[g] {
                        tqo_core::Value::Null
                    } else if float[g] {
                        tqo_core::Value::Float(acc_f[g])
                    } else {
                        tqo_core::Value::Int(acc_i[g])
                    };
                    out.push(&v)?;
                }
            }
        }
        AggFunc::Avg => {
            let col = input.column(arg.expect("validated by output_type"));
            let mut sum = vec![0.0f64; groups];
            let mut n = vec![0usize; groups];
            if let Some(data) = col.as_i64() {
                for (row, &g) in gid.iter().enumerate() {
                    sum[g as usize] += data[row] as f64;
                    n[g as usize] += 1;
                }
            } else if let Some(data) = col.as_f64() {
                for (row, &g) in gid.iter().enumerate() {
                    sum[g as usize] += data[row];
                    n[g as usize] += 1;
                }
            } else {
                for (row, &g) in gid.iter().enumerate() {
                    let v = col.value(row);
                    if v.is_null() {
                        continue;
                    }
                    sum[g as usize] += v.as_float()?;
                    n[g as usize] += 1;
                }
            }
            for g in 0..groups {
                let v = if n[g] == 0 {
                    tqo_core::Value::Null
                } else {
                    tqo_core::Value::Float(sum[g] / n[g] as f64)
                };
                out.push(&v)?;
            }
        }
    }
    Ok(out)
}

/// `ξᵀ`: every group — a [`ClassIndex`] class over the grouping columns,
/// in first-occurrence order — split at each distinct endpoint of its
/// periods, an empty period's too, with one row per piece on which some
/// member is live, chronologically: `tqo_core::ops::aggregate_t`'s list
/// (and its literal definition's). One pass sweeps all groups over their
/// events laid out class by class, each class's sorted in place
/// (`ClassEvents`), resetting the live set at each class boundary. `COUNT`, integer `SUM`, `MIN` and `MAX` keep
/// typed state (`TypedAgg`) and emit into `i64` vectors and row gathers;
/// float `SUM`, `AVG` and anything unresolvable go through the
/// interpreter's own [`IntervalAggregates`]. Key columns are gathered from
/// each class's first row. One governance poll per group.
pub fn aggregate_t(
    input: &ColumnarRelation,
    group_by: &[String],
    aggs: &[AggItem],
    out_schema: Arc<Schema>,
) -> Result<ColumnarRelation> {
    let key_idx: Vec<usize> = group_by
        .iter()
        .map(|g| input.schema().resolve(g))
        .collect::<Result<_>>()?;
    let (s, e) = input.period_columns()?;
    let classes = ClassIndex::build(input, key_idx.clone());
    // The definition reads a group's periods before it sweeps the group:
    // the first invalid period, class by class, is the error.
    let invalid = (0..s.len()).filter(|&r| s[r] > e[r]);
    if let Some(r) = invalid.min_by_key(|&r| (classes.class_of_row[r], r)) {
        return Err(Error::InvalidPeriod {
            start: s[r],
            end: e[r],
        });
    }
    let mut generic_items = Vec::new();
    let typed: Vec<TypedAgg> = aggs
        .iter()
        .map(|agg| {
            TypedAgg::of(input, agg).unwrap_or_else(|| {
                generic_items.push(agg.clone());
                TypedAgg::Generic(generic_items.len() - 1)
            })
        })
        .collect();
    let mut live = LiveAggs {
        live: 0,
        counts_only: typed.iter().all(|acc| matches!(acc, TypedAgg::Rows)),
        alive: vec![false; input.rows()],
        typed,
        generic: IntervalAggregates::new(input, input.schema(), &generic_items),
    };
    // A group of `k` rows has at most `2k − 1` constant intervals.
    let cap = 2 * input.rows();
    let mut outs: Vec<AggOut> = live.typed.iter().map(|acc| acc.out(cap)).collect();
    let (mut protos, mut t1, mut t2) = (
        Vec::with_capacity(cap),
        Vec::with_capacity(cap),
        Vec::with_capacity(cap),
    );
    let events = ClassEvents::new(&classes, s, e);
    for (c, bounds) in events.starts.windows(2).enumerate() {
        context::check_current()?;
        let run = &events.events[bounds[0] as usize..bounds[1] as usize];
        live.reset(match generic_items.is_empty() {
            true => &[],
            false => classes.members(c),
        });
        for (k, &event) in run.iter().enumerate() {
            live.step(event as u32);
            // The last event at its instant; a live row ends at a later
            // one of its class.
            let next = run.get(k + 1).copied().unwrap_or(u64::MAX);
            if next >> 32 != event >> 32 && live.live > 0 {
                for (acc, out) in live.typed.iter().zip(&mut outs) {
                    acc.emit(&live, out)?;
                }
                protos.push(classes.protos[c]);
                t1.push(events.at(event));
                t2.push(events.at(next));
            }
        }
    }
    let mut columns: Vec<Arc<Column>> = key_idx
        .iter()
        .map(|&k| Arc::new(input.column(k).gather(&protos)))
        .collect();
    for (k, (acc, out)) in live.typed.iter().zip(outs).enumerate() {
        let dtype = out_schema.attr(key_idx.len() + k).dtype;
        columns.push(Arc::new(acc.finish(dtype, out)?));
    }
    columns.push(time_column(t1));
    columns.push(time_column(t2));
    Ok(ColumnarRelation::new(out_schema, columns))
}

/// What an event of `ClassEvents` does, in its tag's low two bits
/// (the row id is the rest).
const LEAVE: u32 = 0;
const ENTER: u32 = 1;
const SPLIT: u32 = 2;

/// Every row's endpoint events — its start and end, or a split for an
/// empty period — as `instant << 32 | row << 2 | what`, laid out by class
/// and sorted by instant within each class's run. An instant is its
/// offset from the earliest one, or, when the input spans 2³² instants or
/// more, its rank among the distinct ones. Rows number fewer than 2³⁰.
struct ClassEvents {
    /// Class `c`'s events are `events[starts[c]..starts[c + 1]]`.
    starts: Vec<u32>,
    events: Vec<u64>,
    /// The earliest instant; with `ranks`, the distinct instants.
    first: i64,
    ranks: Option<Vec<i64>>,
}

impl ClassEvents {
    fn new(classes: &ClassIndex, s: &[i64], e: &[i64]) -> ClassEvents {
        let first = s.iter().copied().min().unwrap_or(0);
        let last = e.iter().copied().max().unwrap_or(0);
        let ranks = ((last as u64).wrapping_sub(first as u64) >> 32 != 0).then(|| {
            let mut instants = [s, e].concat();
            instants.sort_unstable();
            instants.dedup();
            instants
        });
        let instant = |t: i64| match &ranks {
            None => t.wrapping_sub(first) as u64,
            Some(ranks) => ranks.partition_point(|&r| r < t) as u64,
        };
        let mut starts = vec![0u32; classes.len() + 1];
        for (row, &c) in classes.class_of_row.iter().enumerate() {
            starts[c as usize + 1] += if s[row] == e[row] { 1 } else { 2 };
        }
        for c in 0..classes.len() {
            starts[c + 1] += starts[c];
        }
        let mut cursor = starts.clone();
        let mut events = vec![0u64; starts[classes.len()] as usize];
        for (row, &c) in classes.class_of_row.iter().enumerate() {
            let at = &mut cursor[c as usize];
            let tag = u64::from(row as u32) << 2;
            if s[row] == e[row] {
                events[*at as usize] = instant(s[row]) << 32 | tag | u64::from(SPLIT);
                *at += 1;
            } else {
                events[*at as usize] = instant(s[row]) << 32 | tag | u64::from(ENTER);
                events[*at as usize + 1] = instant(e[row]) << 32 | tag | u64::from(LEAVE);
                *at += 2;
            }
        }
        for bounds in starts.windows(2) {
            events[bounds[0] as usize..bounds[1] as usize].sort_unstable();
        }
        ClassEvents {
            starts,
            events,
            first,
            ranks,
        }
    }

    /// The instant of an event.
    #[inline]
    fn at(&self, event: u64) -> i64 {
        match &self.ranks {
            None => self.first.wrapping_add((event >> 32) as i64),
            Some(ranks) => ranks[(event >> 32) as usize],
        }
    }
}

/// One `ξᵀ` aggregate's state over a group's live rows, typed where the
/// argument's column allows — the state `IntervalAggregates` keeps, read
/// straight off the columns.
enum TypedAgg<'a> {
    /// `COUNT(*)`, or `COUNT` of a column without NULLs: the live count.
    Rows,
    /// `COUNT(attr)` over a column with NULLs: live non-NULL values.
    NonNull { nulls: &'a [bool], n: i64 },
    /// `SUM` over an `Int`/`Time` column: a wrapping running sum and the
    /// live non-NULL count, NULL at zero.
    IntSum {
        col: &'a Column,
        data: &'a [i64],
        sum: i64,
        n: i64,
    },
    /// `MIN`/`MAX`: the live non-NULL rows in a binary heap, the answer —
    /// the extreme value, ties to the earliest row — on top. A row that
    /// leaves stays until it surfaces; the top is always live.
    Extreme {
        col: &'a Column,
        /// The payload of an `Int`/`Time` column, compared directly.
        ints: Option<&'a [i64]>,
        max: bool,
        heap: Vec<u32>,
    },
    /// The `k`-th aggregate of the interpreter's state.
    Generic(usize),
}

/// One aggregate's emitted values: `i64`s with a NULL mask, rows to
/// gather (`NONE` = NULL), or values.
struct AggOut {
    ints: Vec<i64>,
    nulls: Vec<bool>,
    rows: Vec<u32>,
    values: Vec<tqo_core::Value>,
}

impl<'a> TypedAgg<'a> {
    /// Typed state for `agg` over `input`, or `None` for the generic path.
    fn of(input: &'a ColumnarRelation, agg: &AggItem) -> Option<TypedAgg<'a>> {
        let Some(attr) = agg.arg_index(input.schema()).ok()? else {
            return Some(TypedAgg::Rows);
        };
        let col: &'a Column = input.column(attr);
        match agg.func {
            AggFunc::Count => Some(match col.nulls() {
                Some(nulls) => TypedAgg::NonNull { nulls, n: 0 },
                None => TypedAgg::Rows,
            }),
            AggFunc::Sum => match col.data() {
                ColumnData::Int(data) | ColumnData::Time(data) => Some(TypedAgg::IntSum {
                    col,
                    data,
                    sum: 0,
                    n: 0,
                }),
                _ => None,
            },
            AggFunc::Min | AggFunc::Max => Some(TypedAgg::Extreme {
                col,
                ints: match col.data() {
                    ColumnData::Int(data) | ColumnData::Time(data) => Some(data),
                    _ => None,
                },
                max: agg.func == AggFunc::Max,
                heap: Vec::new(),
            }),
            AggFunc::Avg => None,
        }
    }

    /// An empty output for this aggregate, with room for `cap` values.
    fn out(&self, cap: usize) -> AggOut {
        let (ints, nulls, rows, values) = match self {
            TypedAgg::Rows | TypedAgg::NonNull { .. } => (cap, 0, 0, 0),
            TypedAgg::IntSum { .. } => (cap, cap, 0, 0),
            TypedAgg::Extreme { .. } => (0, 0, cap, 0),
            TypedAgg::Generic(_) => (0, 0, 0, cap),
        };
        AggOut {
            ints: Vec::with_capacity(ints),
            nulls: Vec::with_capacity(nulls),
            rows: Vec::with_capacity(rows),
            values: Vec::with_capacity(values),
        }
    }

    fn reset(&mut self) {
        match self {
            TypedAgg::NonNull { n, .. } => *n = 0,
            TypedAgg::IntSum { sum, n, .. } => (*sum, *n) = (0, 0),
            TypedAgg::Extreme { heap, .. } => heap.clear(),
            TypedAgg::Rows | TypedAgg::Generic(_) => {}
        }
    }

    fn enter(&mut self, row: u32) {
        let r = row as usize;
        match self {
            TypedAgg::NonNull { nulls, n } => *n += i64::from(!nulls[r]),
            TypedAgg::IntSum { col, data, sum, n } if !col.is_null(r) => {
                *sum = sum.wrapping_add(data[r]);
                *n += 1;
            }
            TypedAgg::Extreme {
                col,
                ints,
                max,
                heap,
            } if !col.is_null(r) => {
                heap_push(heap, row, |a, b| first(col, *ints, *max, a, b));
            }
            _ => {}
        }
    }

    fn leave(&mut self, row: u32, alive: &[bool]) {
        let r = row as usize;
        match self {
            TypedAgg::NonNull { nulls, n } => *n -= i64::from(!nulls[r]),
            TypedAgg::IntSum { col, data, sum, n } if !col.is_null(r) => {
                *sum = sum.wrapping_sub(data[r]);
                *n -= 1;
            }
            TypedAgg::Extreme {
                col,
                ints,
                max,
                heap,
            } => {
                while heap.first().is_some_and(|&top| !alive[top as usize]) {
                    heap_pop(heap, |a, b| first(col, *ints, *max, a, b));
                }
            }
            _ => {}
        }
    }

    /// Append the aggregate over the current live set to `out`.
    fn emit(&self, live: &LiveAggs, out: &mut AggOut) -> Result<()> {
        match self {
            TypedAgg::Rows => out.ints.push(live.live),
            TypedAgg::NonNull { n, .. } => out.ints.push(*n),
            TypedAgg::IntSum { sum, n, .. } => {
                out.ints.push(*sum);
                out.nulls.push(*n == 0);
            }
            TypedAgg::Extreme { heap, .. } => out.rows.push(heap.first().copied().unwrap_or(NONE)),
            TypedAgg::Generic(k) => out.values.push(live.generic.value(*k)?),
        }
        Ok(())
    }

    /// The output column of `dtype` over everything emitted.
    fn finish(&self, dtype: DataType, out: AggOut) -> Result<Column> {
        match self {
            TypedAgg::Rows | TypedAgg::NonNull { .. } | TypedAgg::IntSum { .. } => {
                let data = match dtype {
                    DataType::Time => ColumnData::Time(out.ints),
                    _ => ColumnData::Int(out.ints),
                };
                Ok(if out.nulls.is_empty() {
                    Column::from_data(data)
                } else {
                    Column::with_nulls(data, out.nulls)
                })
            }
            TypedAgg::Extreme { col, .. } if !out.rows.contains(&NONE) => Ok(col.gather(&out.rows)),
            TypedAgg::Extreme { col, .. } => {
                let mut gathered = Column::with_capacity(dtype, out.rows.len());
                for &r in &out.rows {
                    if r == NONE {
                        gathered.push(&tqo_core::Value::Null)?;
                    } else {
                        gathered.push_from(col, r as usize);
                    }
                }
                Ok(gathered)
            }
            TypedAgg::Generic(_) => {
                let mut col = Column::with_capacity(dtype, out.values.len());
                for v in &out.values {
                    col.push(v)?;
                }
                Ok(col)
            }
        }
    }
}

/// Whether live row `a` of `col` (payload `ints`, if integral) ranks
/// before `b` for a `MIN` (`max` false) or `MAX`: by value, ties to the
/// earlier row — the row `AggItem::fold`'s strict comparisons keep.
#[inline]
fn first(col: &Column, ints: Option<&[i64]>, max: bool, a: u32, b: u32) -> bool {
    let by_value = match ints {
        Some(data) => data[a as usize].cmp(&data[b as usize]),
        None => col.cmp_at(a as usize, col, b as usize),
    };
    let by_value = if max { by_value.reverse() } else { by_value };
    by_value.then(a.cmp(&b)) == Ordering::Less
}

/// Push `x` onto the binary heap `heap` ordered by `before`.
fn heap_push(heap: &mut Vec<u32>, x: u32, before: impl Fn(u32, u32) -> bool) {
    heap.push(x);
    let mut i = heap.len() - 1;
    while i > 0 {
        let parent = (i - 1) / 2;
        if !before(heap[i], heap[parent]) {
            break;
        }
        heap.swap(i, parent);
        i = parent;
    }
}

/// Remove the top of the binary heap `heap` ordered by `before`.
fn heap_pop(heap: &mut Vec<u32>, before: impl Fn(u32, u32) -> bool) {
    let last = heap.pop().expect("popped a non-empty heap");
    if heap.is_empty() {
        return;
    }
    heap[0] = last;
    let mut i = 0;
    loop {
        let (l, r) = (2 * i + 1, 2 * i + 2);
        let mut top = i;
        if l < heap.len() && before(heap[l], heap[top]) {
            top = l;
        }
        if r < heap.len() && before(heap[r], heap[top]) {
            top = r;
        }
        if top == i {
            return;
        }
        heap.swap(i, top);
        i = top;
    }
}

/// `ξᵀ`'s live set: the live count and liveness per row, the typed
/// aggregates, and the interpreter's state for the rest.
struct LiveAggs<'a> {
    live: i64,
    /// Every aggregate is a live count ([`TypedAgg::Rows`]).
    counts_only: bool,
    alive: Vec<bool>,
    typed: Vec<TypedAgg<'a>>,
    generic: IntervalAggregates<'a, ColumnarRelation>,
}

impl LiveAggs<'_> {
    /// Start a group whose rows are `members`: nothing live.
    fn reset(&mut self, members: &[u32]) {
        self.live = 0;
        for acc in &mut self.typed {
            acc.reset();
        }
        self.generic.reset(members);
    }

    /// Apply an event's `row << 2 | what` tag. When every aggregate reads
    /// only the live count, that is all an event moves, without a branch.
    #[inline]
    fn step(&mut self, tag: u32) {
        if self.counts_only {
            self.live += [-1, 1, 0, 0][(tag & 3) as usize];
            return;
        }
        match tag & 3 {
            ENTER => self.enter(tag >> 2),
            LEAVE => self.leave(tag >> 2),
            _ => {}
        }
    }
}

impl LiveSet for LiveAggs<'_> {
    fn enter(&mut self, row: u32) {
        self.live += 1;
        self.alive[row as usize] = true;
        for acc in &mut self.typed {
            acc.enter(row);
        }
        self.generic.enter(row);
    }

    fn leave(&mut self, row: u32) {
        self.live -= 1;
        self.alive[row as usize] = false;
        for acc in &mut self.typed {
            acc.leave(row, &self.alive);
        }
        self.generic.leave(row);
    }
}

/// Approximate bytes of `×`'s output over inputs of the given footprints
/// and row counts. Known before the operator runs, so the engine charges
/// it to the query's budget before allocating anything of that size.
pub(crate) fn product_bytes(
    left_bytes: usize,
    left_rows: usize,
    right_bytes: usize,
    right_rows: usize,
) -> usize {
    left_bytes
        .saturating_mul(right_rows)
        .saturating_add(right_bytes.saturating_mul(left_rows))
}

/// Left-major Cartesian product (`×`), list-exact against
/// `tqo_core::ops::product`. Built one left row at a time — that row
/// repeated beside the whole right input — with a governance poll per
/// left row, so an `O(n·m)` product stays cancellable and holds no index
/// vectors of that size. The caller has charged `product_bytes`.
pub fn product(
    left: &ColumnarRelation,
    right: &ColumnarRelation,
    out_schema: Arc<Schema>,
) -> Result<ColumnarRelation> {
    let (n, m) = (left.rows(), right.rows());
    let mut columns: Vec<Column> = out_schema
        .attrs()
        .iter()
        .map(|a| Column::with_capacity(a.dtype, n.saturating_mul(m)))
        .collect();
    let (left_out, right_out) = columns.split_at_mut(left.columns().len());
    let mut this_row = vec![0u32; m];
    for i in 0..n {
        context::check_current()?;
        this_row.fill(i as u32);
        for (out, col) in left_out.iter_mut().zip(left.columns()) {
            out.extend_idx(col, &this_row);
        }
        for (out, col) in right_out.iter_mut().zip(right.columns()) {
            out.extend_range(col, 0, m);
        }
    }
    Ok(ColumnarRelation::new(
        out_schema,
        columns.into_iter().map(Arc::new).collect(),
    ))
}

/// Call `emit` on every `(left row, right row)` whose key columns are
/// equal and non-NULL, left-major, right rows ascending: the right input
/// is indexed by key class once, each left row probes it. One governance
/// poll per left row.
fn for_each_key_match(
    left: &ColumnarRelation,
    right: &ColumnarRelation,
    keys: &EquiKeys,
    mut emit: impl FnMut(u32, u32),
) -> Result<()> {
    let (left_keys, right_keys) = keys.resolve(left.schema(), right.schema())?;
    let index = ClassIndex::build(right, right_keys);
    let cols = left.columns();
    let classes = index.probe_all(cols, &left_keys, left.rows());
    for (i, &class) in classes.iter().enumerate() {
        context::check_current()?;
        // `=` is never true of a NULL, whatever is on the other side.
        if class == NONE || left_keys.iter().any(|&c| cols[c].is_null(i)) {
            continue;
        }
        for &j in index.members(class as usize) {
            emit(i as u32, j);
        }
    }
    Ok(())
}

/// Hash equi-join `×`: the rows of [`product`] that satisfy the key
/// equalities, in its order — list-exact against `σ₌(×)` in the
/// interpreter.
pub fn product_hash_equi(
    left: &ColumnarRelation,
    right: &ColumnarRelation,
    keys: &EquiKeys,
    out_schema: Arc<Schema>,
) -> Result<ColumnarRelation> {
    let (mut lidx, mut ridx) = (Vec::new(), Vec::new());
    for_each_key_match(left, right, keys, |i, j| {
        lidx.push(i);
        ridx.push(j);
    })?;
    Ok(ColumnarRelation::new(
        out_schema,
        gather_pairs(left, right, &lidx, &ridx),
    ))
}

/// Hash equi-join `×ᵀ`: the rows of [`product_t_sweep`] that satisfy the
/// key equalities, in its order — list-exact against `σ₌(×ᵀ)` in the
/// interpreter.
pub fn product_t_hash_equi(
    left: &ColumnarRelation,
    right: &ColumnarRelation,
    keys: &EquiKeys,
    out_schema: Arc<Schema>,
) -> Result<ColumnarRelation> {
    let (ls, le) = left.period_columns()?;
    let (rs, re) = right.period_columns()?;
    let (mut lidx, mut ridx, mut t1, mut t2) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for_each_key_match(left, right, keys, |i, j| {
        let s = ls[i as usize].max(rs[j as usize]);
        let e = le[i as usize].min(re[j as usize]);
        if s < e {
            lidx.push(i);
            ridx.push(j);
            t1.push(s);
            t2.push(e);
        }
    })?;
    Ok(product_t_output(
        left, right, out_schema, lidx, ridx, t1, t2,
    ))
}

/// The left and right columns of a product's output, gathered through
/// parallel `(left row, right row)` index vectors.
fn gather_pairs(
    left: &ColumnarRelation,
    right: &ColumnarRelation,
    lidx: &[u32],
    ridx: &[u32],
) -> Vec<Arc<Column>> {
    let left = left.columns().iter().map(|c| Arc::new(c.gather(lidx)));
    let right = right.columns().iter().map(|c| Arc::new(c.gather(ridx)));
    left.chain(right).collect()
}

fn product_t_output(
    left: &ColumnarRelation,
    right: &ColumnarRelation,
    out_schema: Arc<Schema>,
    lidx: Vec<u32>,
    ridx: Vec<u32>,
    t1: Vec<i64>,
    t2: Vec<i64>,
) -> ColumnarRelation {
    let mut columns = gather_pairs(left, right, &lidx, &ridx);
    columns.push(time_column(t1));
    columns.push(time_column(t2));
    ColumnarRelation::new(out_schema, columns)
}

/// `×ᵀ`: the endpoint sweep of [`overlapping_pairs`] over the raw period
/// columns, its pairs in the nested loop's order — list-exact against
/// `tqo_core::ops::product_t`. One governance poll per left row.
pub fn product_t_sweep(
    left: &ColumnarRelation,
    right: &ColumnarRelation,
    out_schema: Arc<Schema>,
) -> Result<ColumnarRelation> {
    let (ls, le) = left.period_columns()?;
    let (rs, re) = right.period_columns()?;
    let pairs = overlapping_pairs((ls, le), (rs, re))?;
    let n = pairs.len();
    let (mut lidx, mut ridx) = (Vec::with_capacity(n), Vec::with_capacity(n));
    let (mut t1, mut t2) = (Vec::with_capacity(n), Vec::with_capacity(n));
    for pair in pairs {
        let (l, r) = ((pair >> 32) as usize, pair as u32 as usize);
        lidx.push(l as u32);
        ridx.push(r as u32);
        t1.push(ls[l].max(rs[r]));
        t2.push(le[l].min(re[r]));
    }
    Ok(product_t_output(
        left, right, out_schema, lidx, ridx, t1, t2,
    ))
}

/// A temporal input's period columns, every period checked as the
/// interpreter reads it: the first row with `T1 > T2` is its error.
fn checked_periods(input: &ColumnarRelation) -> Result<(&[i64], &[i64])> {
    let (s, e) = input.period_columns()?;
    match s.iter().zip(e).find(|(s, e)| s > e) {
        Some((&start, &end)) => Err(Error::InvalidPeriod { start, end }),
        None => Ok((s, e)),
    }
}

/// The surplus of `a` over `b` per class of `classes` (built over `a`'s
/// explicit attributes), as [`CountTimeline`] computes it: for each class
/// in order, the maximal periods on which more of its `a` rows than `b`
/// rows are live, chronologically, each repeated by the surplus. Every
/// class's `±1` events go into one flat buffer, laid out by class, and
/// each class run is sorted and walked there; an instant where the count
/// does not change cuts nothing. Returns `(proto rows of a, t1, t2)`. One
/// governance poll per class run.
///
/// [`CountTimeline`]: tqo_core::time::CountTimeline
fn surplus(
    a: &ColumnarRelation,
    classes: &ClassIndex,
    b: &ColumnarRelation,
) -> Result<(Vec<u32>, Vec<i64>, Vec<i64>)> {
    let (as_, ae) = checked_periods(a)?;
    let (bs, be) = checked_periods(b)?;
    // Class of every `b` row (`NONE`: no class of `a`).
    let b_class = classes.probe_all(b.columns(), &b.schema().value_indices(), b.rows());
    let mut starts = vec![0u32; classes.len() + 1];
    for (row, &c) in classes.class_of_row.iter().enumerate() {
        starts[c as usize + 1] += 2 * u32::from(as_[row] < ae[row]);
    }
    for (j, &c) in b_class.iter().enumerate() {
        if c != NONE {
            starts[c as usize + 1] += 2 * u32::from(bs[j] < be[j]);
        }
    }
    for c in 0..classes.len() {
        starts[c + 1] += starts[c];
    }
    let mut cursor = starts.clone();
    let mut events = vec![(0i64, 0i64); starts[classes.len()] as usize];
    let mut put = |c: u32, start: i64, end: i64, weight: i64| {
        let at = &mut cursor[c as usize];
        events[*at as usize] = (start, weight);
        events[*at as usize + 1] = (end, -weight);
        *at += 2;
    };
    for (row, &c) in classes.class_of_row.iter().enumerate() {
        if as_[row] < ae[row] {
            put(c, as_[row], ae[row], 1);
        }
    }
    for (j, &c) in b_class.iter().enumerate() {
        if c != NONE && bs[j] < be[j] {
            put(c, bs[j], be[j], -1);
        }
    }

    let cap = a.rows() + b.rows();
    let (mut protos, mut t1, mut t2) = (
        Vec::with_capacity(cap),
        Vec::with_capacity(cap),
        Vec::with_capacity(cap),
    );
    for (class, bounds) in starts.windows(2).enumerate() {
        context::check_current()?;
        let run = &mut events[bounds[0] as usize..bounds[1] as usize];
        run.sort_unstable_by_key(|&(at, _)| at);
        let (mut count, mut from) = (0i64, 0i64);
        let mut k = 0;
        while k < run.len() {
            let at = run[k].0;
            let mut delta = 0;
            while k < run.len() && run[k].0 == at {
                delta += run[k].1;
                k += 1;
            }
            if delta == 0 {
                continue;
            }
            for _ in 0..count.max(0) {
                protos.push(classes.protos[class]);
                t1.push(from);
                t2.push(at);
            }
            count += delta;
            from = at;
        }
    }
    Ok((protos, t1, t2))
}

/// `\ᵀ`: the left input's surplus over the right per left class
/// (`surplus`), list-exact against `tqo_core::ops::difference_t`.
pub fn difference_t(
    left: &ColumnarRelation,
    right: &ColumnarRelation,
    out_schema: Arc<Schema>,
) -> Result<ColumnarRelation> {
    left.schema()
        .check_union_compatible(right.schema(), "temporal difference")?;
    let classes = ClassIndex::build(left, left.schema().value_indices());
    let (protos, t1, t2) = surplus(left, &classes, right)?;
    Ok(emit_fragments(left, out_schema, &protos, t1, t2))
}

/// `∪ᵀ`: the whole left input, then the right input's surplus over it per
/// right class (`surplus`) — list-exact against
/// `tqo_core::ops::union_t`.
pub fn union_t(
    left: &ColumnarRelation,
    right: &ColumnarRelation,
    out_schema: Arc<Schema>,
) -> Result<ColumnarRelation> {
    left.schema()
        .check_union_compatible(right.schema(), "temporal union")?;
    let classes = ClassIndex::build(right, right.schema().value_indices());
    let (protos, t1, t2) = surplus(right, &classes, left)?;
    let (i1, i2) = (
        out_schema.t1_index().expect("temporal output"),
        out_schema.t2_index().expect("temporal output"),
    );
    let (ls, le) = left.period_columns()?;
    let columns = (0..out_schema.arity())
        .map(|c| match c {
            _ if c == i1 => time_column([ls, &t1].concat()),
            _ if c == i2 => time_column([le, &t2].concat()),
            _ => Arc::new(append_rows(&out_schema, c, left, right, &protos)),
        })
        .collect();
    Ok(ColumnarRelation::new(out_schema, columns))
}

/// Column `c` of a union's output: all of `left`'s, then `right`'s rows
/// `extra`.
fn append_rows(
    out_schema: &Schema,
    c: usize,
    left: &ColumnarRelation,
    right: &ColumnarRelation,
    extra: &[u32],
) -> Column {
    let mut col = Column::with_capacity(out_schema.attr(c).dtype, left.rows() + extra.len());
    col.extend_range(left.column(c), 0, left.rows());
    col.extend_idx(right.column(c), extra);
    col
}

/// `∪`: the whole left input, then each right row beyond its value's
/// count in the left, in right order — list-exact against
/// `tqo_core::ops::union_max`. The right input's classes count their
/// left occurrences, and each class run's members past that count are
/// the surplus. One governance poll per class run.
pub fn union_max(
    left: &ColumnarRelation,
    right: &ColumnarRelation,
    out_schema: Arc<Schema>,
) -> Result<ColumnarRelation> {
    left.schema()
        .check_union_compatible(right.schema(), "union")?;
    let all: Vec<usize> = (0..right.schema().arity()).collect();
    let classes = ClassIndex::build(right, all.clone());
    let mut in_left = vec![0usize; classes.len()];
    for c in classes.probe_all(left.columns(), &all, left.rows()) {
        if c != NONE {
            in_left[c as usize] += 1;
        }
    }
    let mut extra = vec![false; right.rows()];
    for (run, &skip) in classes.runs().zip(&in_left) {
        context::check_current()?;
        for &j in run.iter().skip(skip) {
            extra[j as usize] = true;
        }
    }
    let extra: Vec<u32> = (0..right.rows() as u32)
        .filter(|&j| extra[j as usize])
        .collect();
    let columns = (0..out_schema.arity())
        .map(|c| Arc::new(append_rows(&out_schema, c, left, right, &extra)))
        .collect();
    Ok(ColumnarRelation::new(out_schema, columns))
}

/// `rdupᵀ`: each row keeps what earlier rows of its class left free of its
/// period — list-exact against `tqo_core::ops::rdup_t` (and so against the
/// paper's recursion). So an instant belongs to the earliest row, in list
/// order, whose period covers it. Per class run, one sweep by start keeps
/// the covering rows in a min-heap keyed on list position and cuts a
/// fragment wherever the heap's top — the owner — changes; ended rows
/// leave the heap lazily, when they surface. The fragments come out by
/// time; a counting sort by row (its counts kept as the sweep emits)
/// puts them back in list order, each row's chronologically. One
/// governance poll per class run.
pub fn rdup_t(input: &ColumnarRelation) -> Result<ColumnarRelation> {
    let (s, e) = checked_periods(input)?;
    let classes = ClassIndex::build(input, input.schema().value_indices());
    let mut by_start: Vec<(i64, u32)> = Vec::new();
    let mut covering: BinaryHeap<Reverse<(u32, i64)>> = BinaryHeap::new();
    let rows = input.rows();
    let (mut owners, mut t1, mut t2) = (
        Vec::with_capacity(rows),
        Vec::with_capacity(rows),
        Vec::with_capacity(rows),
    );
    // Fragments per row, shifted by one: prefix sums turn it into each
    // row's first output slot.
    let mut slot = vec![0u32; rows + 1];
    for run in classes.runs() {
        context::check_current()?;
        by_start.clear();
        by_start.extend(
            run.iter()
                .filter(|&&r| s[r as usize] < e[r as usize])
                .map(|&r| (s[r as usize], r)),
        );
        by_start.sort_unstable_by_key(|&(start, _)| start);
        covering.clear();
        let (mut next, mut at) = (0, 0i64);
        while next < by_start.len() || !covering.is_empty() {
            if covering.is_empty() {
                at = by_start[next].0;
            }
            while let Some(&(start, r)) = by_start.get(next) {
                if start > at {
                    break;
                }
                covering.push(Reverse((r, e[r as usize])));
                next += 1;
            }
            while covering.peek().is_some_and(|Reverse((_, end))| *end <= at) {
                covering.pop();
            }
            let Some(&Reverse((owner, end))) = covering.peek() else {
                continue;
            };
            let until = by_start.get(next).map_or(end, |&(start, _)| end.min(start));
            if owners.last() == Some(&owner) && t2.last() == Some(&at) {
                *t2.last_mut().expect("just read") = until;
            } else {
                owners.push(owner);
                t1.push(at);
                t2.push(until);
                slot[owner as usize + 1] += 1;
            }
            at = until;
        }
    }
    for r in 0..rows {
        slot[r + 1] += slot[r];
    }
    let n = owners.len();
    let (mut by_row, mut t1_out, mut t2_out) = (vec![0u32; n], vec![0i64; n], vec![0i64; n]);
    for (k, &owner) in owners.iter().enumerate() {
        let at = &mut slot[owner as usize];
        let i = *at as usize;
        (by_row[i], t1_out[i], t2_out[i]) = (owner, t1[k], t2[k]);
        *at += 1;
    }
    Ok(emit_fragments(
        input,
        input.schema().clone(),
        &by_row,
        t1_out,
        t2_out,
    ))
}

/// `coalᵀ`: [`coalesce_walk`] over [`ClassIndex`] classes and the raw
/// period columns — list-exact against `tqo_core::ops::coalesce`. The
/// `(class, instant)` pairs are numbered class run by class run: a run's
/// endpoints are sorted, and each distinct instant takes the next id. One
/// governance poll per class run.
pub fn coalesce(input: &ColumnarRelation) -> Result<ColumnarRelation> {
    let (s, e) = checked_periods(input)?;
    let classes = ClassIndex::build(input, input.schema().value_indices());
    let rows = input.rows();
    let (mut starts_at, mut ends_at) = (vec![0u32; rows], vec![0u32; rows]);
    // A run's endpoints as `(instant, row << 1 | is_end)`.
    let mut endpoints: Vec<(i64, u32)> = Vec::new();
    let mut ids = 0u32;
    for run in classes.runs() {
        context::check_current()?;
        endpoints.clear();
        for &r in run {
            endpoints.push((s[r as usize], r << 1));
            endpoints.push((e[r as usize], r << 1 | 1));
        }
        endpoints.sort_unstable_by_key(|&(at, _)| at);
        let mut last = None;
        for &(at, slot) in &endpoints {
            if last != Some(at) {
                last = Some(at);
                ids += 1;
            }
            let ids_of = if slot & 1 == 0 {
                &mut starts_at
            } else {
                &mut ends_at
            };
            ids_of[(slot >> 1) as usize] = ids - 1;
        }
    }
    let (mut heads, mut t1, mut t2) = (
        Vec::with_capacity(rows),
        Vec::with_capacity(rows),
        Vec::with_capacity(rows),
    );
    coalesce_walk(&starts_at, &ends_at, ids as usize, |head, first, last| {
        heads.push(head as u32);
        t1.push(s[first]);
        t2.push(e[last]);
    });
    Ok(emit_fragments(
        input,
        input.schema().clone(),
        &heads,
        t1,
        t2,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tqo_core::expr::AggFunc;
    use tqo_core::ops;
    use tqo_core::relation::Relation;
    use tqo_core::tuple;
    use tqo_core::tuple::Tuple;
    use tqo_core::value::DataType;

    fn cr(r: &Relation) -> ColumnarRelation {
        ColumnarRelation::from_relation(r).unwrap()
    }

    fn temporal(rows: &[(&str, i64, i64)]) -> Relation {
        Relation::new(
            Schema::temporal(&[("E", DataType::Str)]),
            rows.iter().map(|&(v, s, e)| tuple![v, s, e]).collect(),
        )
        .unwrap()
    }

    /// The radix sort of `(prefix, position)` pairs is a stable sort by
    /// prefix: strings sharing their top byte, negative and positive
    /// integers, floats, dictionary codes and all-equal keys, on both
    /// sides of `RADIX_MIN_ROWS`.
    #[test]
    fn radix_sort_pairs_is_a_stable_sort_by_prefix() {
        use tqo_core::value::Value;
        let mut state = 0x5EED_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            tqo_core::columnar::mix64(state)
        };
        for n in [
            0,
            1,
            7,
            RADIX_MIN_ROWS - 1,
            RADIX_MIN_ROWS,
            RADIX_MIN_ROWS + 1,
            10_000,
        ] {
            let mut kinds: Vec<(&str, Column)> = Vec::new();
            let mut names = Column::with_capacity(DataType::Str, n);
            let mut ints = Column::with_capacity(DataType::Int, n);
            let mut floats = Column::with_capacity(DataType::Float, n);
            let mut same = Column::with_capacity(DataType::Int, n);
            for _ in 0..n {
                let r = next();
                names
                    .push(&Value::from(format!("emp{}", r % 3000)))
                    .unwrap();
                ints.push(&Value::Int((r % 20_000) as i64 - 10_000))
                    .unwrap();
                floats
                    .push(&Value::Float((r % 1000) as f64 / 7.0 - 60.0))
                    .unwrap();
                same.push(&Value::Int(42)).unwrap();
            }
            let codes = names.sorted_strings().unwrap_or_else(|| names.clone());
            kinds.extend([
                ("strings", names),
                ("codes", codes),
                ("ints", ints),
                ("floats", floats),
                ("all-equal", same),
            ]);
            for (kind, col) in &kinds {
                let (prefixes, _) = col.sort_prefixes(None);
                let mut pairs: Vec<(u64, u32)> = prefixes
                    .iter()
                    .enumerate()
                    .map(|(k, &p)| (p, k as u32))
                    .collect();
                radix_sort_pairs(&mut pairs);
                let mut want: Vec<u32> = (0..n as u32).collect();
                want.sort_by_key(|&k| prefixes[k as usize]);
                let got: Vec<u32> = pairs.iter().map(|&(_, k)| k).collect();
                assert_eq!(got, want, "{kind}, {n} rows");
            }
        }
    }

    #[test]
    fn sort_matches_row_sort_exactly() {
        let r = Relation::new(
            Schema::of(&[("A", DataType::Int), ("B", DataType::Str)]),
            vec![
                tuple![2i64, "x"],
                tuple![1i64, "z"],
                tuple![2i64, "a"],
                tuple![1i64, "a"],
            ],
        )
        .unwrap();
        let order = Order::asc(&["A"]);
        let c = cr(&r);
        let idx = sort_indices(&c, &order).unwrap();
        let cols: Vec<_> = c
            .columns()
            .iter()
            .map(|col| Arc::new(col.gather(&idx)))
            .collect();
        let got = ColumnarRelation::new(c.schema().clone(), cols).to_relation();
        assert_eq!(got, ops::sort(&r, &order).unwrap());
    }

    /// Later keys refine ties by their prefixes, and by value where those
    /// tie inexactly: strings longer than eight bytes, with NULs, NULLs.
    #[test]
    fn multi_key_sorts_match_row_sort_exactly() {
        use tqo_core::sortspec::SortKey;
        use tqo_core::value::Value;
        let words = [
            "a somewhat longer key",
            "a somewhat longer kex",
            "a\u{0}",
            "a",
            "",
            "日本",
        ];
        let rows: Vec<Tuple> = (0..60i64)
            .map(|i| {
                let b = match i % 7 {
                    6 => Value::Null,
                    k => Value::from(words[k as usize % words.len()]),
                };
                Tuple::new(vec![
                    Value::Int(i % 3),
                    b,
                    Value::from(words[(i % 4) as usize]),
                ])
            })
            .collect();
        let r = Relation::new(
            Schema::of(&[
                ("A", DataType::Int),
                ("B", DataType::Str),
                ("C", DataType::Str),
            ]),
            rows,
        )
        .unwrap();
        let c = cr(&r);
        for keys in [
            vec![SortKey::asc("A"), SortKey::asc("B")],
            vec![SortKey::asc("A"), SortKey::desc("B"), SortKey::desc("C")],
            vec![SortKey::desc("C"), SortKey::asc("B"), SortKey::desc("A")],
            vec![SortKey::asc("B"), SortKey::asc("C")],
        ] {
            let order = Order::new(keys);
            let idx = sort_indices(&c, &order).unwrap();
            let cols: Vec<_> = c
                .columns()
                .iter()
                .map(|col| Arc::new(col.gather(&idx)))
                .collect();
            let got = ColumnarRelation::new(c.schema().clone(), cols).to_relation();
            assert_eq!(got, ops::sort(&r, &order).unwrap(), "{order:?}");
        }
    }

    /// The fused sort builds prefixes for the selected rows only; its
    /// permutation must be the one `sort_indices` gives the compacted
    /// selection, mapped back to row ids: ascending and descending,
    /// several keys, NULLs and long strings, sparse and dense selections.
    #[test]
    fn the_fused_selection_sort_matches_sorting_the_compacted_rows() {
        use tqo_core::sortspec::SortKey;
        use tqo_core::value::Value;
        let words = [
            "a somewhat longer key",
            "a somewhat longer kex",
            "b",
            "a",
            "",
        ];
        let rows: Vec<Tuple> = (0..500i64)
            .map(|i| {
                let a = if i % 11 == 0 {
                    Value::Null
                } else {
                    Value::Int((i * 7919) % 13 - 6)
                };
                let b = match i % 9 {
                    8 => Value::Null,
                    k => Value::from(words[k as usize % words.len()]),
                };
                Tuple::new(vec![a, b, Value::Float(((i * 31) % 17) as f64 - 8.5)])
            })
            .collect();
        let r = Relation::new(
            Schema::of(&[
                ("A", DataType::Int),
                ("B", DataType::Str),
                ("F", DataType::Float),
            ]),
            rows,
        )
        .unwrap();
        let c = cr(&r);
        let sparse: Vec<u32> = (0..500).filter(|i| i % 37 == 3).collect();
        let dense: Vec<u32> = (0..500).filter(|i| i % 5 != 0).collect();
        let single: Vec<u32> = vec![42];
        for keys in [
            vec![SortKey::asc("A")],
            vec![SortKey::desc("A")],
            vec![SortKey::desc("B"), SortKey::asc("A")],
            vec![SortKey::asc("F"), SortKey::desc("B"), SortKey::desc("A")],
            vec![],
        ] {
            let order = Order::new(keys);
            for sel in [&sparse, &dense, &single] {
                let fused = SortKeys::new(&c, &order, Some(sel)).unwrap().sort();
                let compact_cols = c
                    .columns()
                    .iter()
                    .map(|col| Arc::new(col.gather(sel)))
                    .collect();
                let compact = ColumnarRelation::new(c.schema().clone(), compact_cols);
                let expected: Vec<u32> = sort_indices(&compact, &order)
                    .unwrap()
                    .into_iter()
                    .map(|k| sel[k as usize])
                    .collect();
                assert_eq!(fused, expected, "{order:?}, {} selected", sel.len());
            }
            let all: Vec<u32> = (0..500).collect();
            assert_eq!(
                SortKeys::new(&c, &order, Some(&all)).unwrap().sort(),
                sort_indices(&c, &order).unwrap(),
                "{order:?}, every row selected"
            );
        }
    }

    #[test]
    fn aggregate_matches_row_aggregate_exactly() {
        let r = Relation::new(
            Schema::of(&[("G", DataType::Str), ("V", DataType::Int)]),
            vec![
                tuple!["b", 1i64],
                tuple!["a", 2i64],
                tuple!["b", 3i64],
                tuple!["a", 4i64],
            ],
        )
        .unwrap();
        let aggs = [
            AggItem::count_star("n"),
            AggItem::new(AggFunc::Sum, Some("V"), "s"),
            AggItem::new(AggFunc::Min, Some("V"), "lo"),
            AggItem::new(AggFunc::Max, Some("V"), "hi"),
            AggItem::new(AggFunc::Avg, Some("V"), "avg"),
        ];
        let group = ["G".to_owned()];
        let want = ops::aggregate(&r, &group, &aggs).unwrap();
        let out_schema = Arc::new(
            tqo_core::ops::aggregate::aggregate_schema(r.schema(), &group, &aggs).unwrap(),
        );
        let got = aggregate(&cr(&r), &group, &aggs, out_schema)
            .unwrap()
            .to_relation();
        assert_eq!(got, want);
    }

    #[test]
    fn integer_sums_wrap_on_both_accumulation_paths() {
        let schema = Schema::of(&[("V", DataType::Int)]);
        let sum = [AggItem::new(AggFunc::Sum, Some("V"), "s")];
        let out_schema =
            Arc::new(tqo_core::ops::aggregate::aggregate_schema(&schema, &[], &sum).unwrap());
        // Null-free: the native `i64` path; a NULL: the per-value path.
        for (extra, want) in [
            (tuple![1i64], i64::MIN + 1),
            (Tuple::new(vec![tqo_core::Value::Null]), i64::MIN),
        ] {
            let r =
                Relation::new(schema.clone(), vec![tuple![i64::MAX], tuple![1i64], extra]).unwrap();
            let got = aggregate(&cr(&r), &[], &sum, out_schema.clone())
                .unwrap()
                .to_relation();
            assert_eq!(got, ops::aggregate(&r, &[], &sum).unwrap());
            assert_eq!(got.tuples()[0].values()[0], tqo_core::Value::Int(want));
        }
    }

    #[test]
    fn grand_total_on_empty_matches() {
        let r = Relation::empty(Schema::of(&[("V", DataType::Int)]));
        let aggs = [AggItem::count_star("n")];
        let want = ops::aggregate(&r, &[], &aggs).unwrap();
        let out_schema =
            Arc::new(tqo_core::ops::aggregate::aggregate_schema(r.schema(), &[], &aggs).unwrap());
        let got = aggregate(&cr(&r), &[], &aggs, out_schema)
            .unwrap()
            .to_relation();
        assert_eq!(got, want);
    }

    #[test]
    fn product_t_sweep_is_the_nested_loops_list() {
        let l = temporal(&[("a", 1, 5), ("b", 4, 9), ("c", 10, 12), ("a", 2, 7)]);
        let r = temporal(&[("x", 3, 6), ("y", 8, 12), ("z", 1, 2)]);
        let out_schema = Arc::new(
            tqo_core::ops::temporal::product_t::product_t_schema(l.schema(), r.schema()).unwrap(),
        );
        let sweep = product_t_sweep(&cr(&l), &cr(&r), out_schema)
            .unwrap()
            .to_relation();
        assert_eq!(sweep, ops::product_t(&l, &r).unwrap());
        assert_eq!(sweep, ops::product_t_literal(&l, &r).unwrap());
    }

    #[test]
    fn difference_t_matches_timeline_sweep_exactly() {
        let l = temporal(&[("a", 1, 8), ("a", 4, 12), ("b", 2, 6), ("c", 1, 3)]);
        let r = temporal(&[("a", 5, 9), ("b", 1, 4), ("z", 0, 20)]);
        let got = difference_t(&cr(&l), &cr(&r), Arc::new(l.schema().clone()))
            .unwrap()
            .to_relation();
        assert_eq!(got, ops::difference_t(&l, &r).unwrap());
    }

    #[test]
    fn temporal_unary_kernels_match_row_algorithms_exactly() {
        let r = temporal(&[
            ("a", 4, 6),
            ("a", 1, 10),
            ("b", 5, 9),
            ("b", 2, 5),
            ("a", 12, 14),
            ("b", 9, 11),
        ]);
        let got = rdup_t(&cr(&r)).unwrap().to_relation();
        assert_eq!(got, ops::rdup_t(&r).unwrap());
        let got = coalesce(&cr(&r)).unwrap().to_relation();
        assert_eq!(got, ops::coalesce(&r).unwrap());
        assert_eq!(got, ops::coalesce_literal(&r).unwrap());
    }

    #[test]
    fn product_matches_row_product() {
        let a = Relation::new(
            Schema::of(&[("A", DataType::Int)]),
            vec![tuple![1i64], tuple![2i64]],
        )
        .unwrap();
        let b = Relation::new(
            Schema::of(&[("B", DataType::Str)]),
            vec![tuple!["x"], tuple!["y"]],
        )
        .unwrap();
        let out_schema =
            Arc::new(tqo_core::ops::product::product_schema(a.schema(), b.schema()).unwrap());
        let got = product(&cr(&a), &cr(&b), out_schema).unwrap().to_relation();
        assert_eq!(got, ops::product(&a, &b).unwrap());
    }
}
