//! Columnar kernels for the pipeline-breaking operators.
//!
//! Each kernel consumes fully materialized [`ColumnarRelation`]s and is
//! **list-exact** against the corresponding row implementation in
//! `tqo_core::ops` / `crate::operators`: same rows, same order, so the two
//! engines can be compared with `==`. The temporal kernels never touch
//! `Value`s on their hot path — periods are swept as raw `i64` columns,
//! value-equivalence classes are formed over column-wise row hashes, and
//! output rows are assembled with per-column gathers.

use std::cmp::Ordering;
use std::sync::Arc;

use tqo_core::columnar::{hash_combine, mix64, Column, ColumnData, ColumnarRelation};
use tqo_core::context;
use tqo_core::error::{Error, Result};
use tqo_core::expr::{AggFunc, AggItem};
use tqo_core::ops::temporal::aggregate_t::IntervalAggregates;
use tqo_core::ops::temporal::coalesce::coalesce_walk;
use tqo_core::ops::temporal::product_t::overlapping_pairs;
use tqo_core::plan::EquiKeys;
use tqo_core::schema::Schema;
use tqo_core::sortspec::{Order, SortDir};
use tqo_core::time::{CountTimeline, Coverage, EndpointSweep, Period};

use super::hash::{part_of, radix_scatter, KeyStore, RowTable};

/// Sort inputs below this row count skip radix partitioning: the
/// histogram and scatter passes only pay off once the working set
/// outgrows the caches.
const RADIX_MIN_ROWS: usize = 4096;

/// Partition count of the serial radix-partitioned hash builds. Sixteen
/// partitions keep each probe table and key store a cache-sized fraction
/// of the input while the merge stays `O(classes · 16)` — noise.
const RADIX_PARTS: usize = 16;

/// Serial hash builds partition later than sort: a linear-probe table
/// over tens of thousands of rows still fits L2, and below that point
/// the extra scatter pass plus the partition-scattered (non-sequential)
/// key accesses cost more than the locality they buy. Measured on the
/// 20k-row bench set, 16-way partitioning slowed `\ᵀ` and `ρᵀ` builds
/// ~20%; from ~64k rows the cache-sized private tables win.
const CLASS_RADIX_MIN_ROWS: usize = 1 << 16;

/// Stable sort permutation of `input` under `order` (ties keep input
/// order, matching the interpreter's stable `sort_by`).
pub fn sort_indices(input: &ColumnarRelation, order: &Order) -> Result<Vec<u32>> {
    let keys = SortKeys::new(input, order)?;
    let mut idx: Vec<u32> = (0..input.rows() as u32).collect();
    keys.sort(&mut idx);
    Ok(idx)
}

/// Precomputed sort state shared by [`sort_indices`] and the pipeline's
/// fused selection sort: per-row normalized `u64` prefixes of the primary
/// key (unsigned ascending order never contradicting the full comparator
/// — see [`Column::sort_prefixes`]) plus the resolved key list for
/// refinement.
pub(super) struct SortKeys<'a> {
    input: &'a ColumnarRelation,
    keys: Vec<(usize, SortDir)>,
    prefixes: Vec<u64>,
    /// Prefix order fully decides the primary key (equal prefixes mean
    /// equal key-0 values), so refinement may skip key 0.
    exact0: bool,
}

impl<'a> SortKeys<'a> {
    pub fn new(input: &'a ColumnarRelation, order: &Order) -> Result<SortKeys<'a>> {
        let mut keys = Vec::with_capacity(order.keys().len());
        for k in order.keys() {
            keys.push((input.schema().resolve(&k.attr)?, k.dir));
        }
        let (prefixes, exact0) = match keys.first() {
            None => (vec![0u64; input.rows()], true),
            Some(&(c, dir)) => {
                let (mut p, exact) = input.column(c).sort_prefixes();
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
            keys,
            prefixes,
            exact0,
        })
    }

    /// The keys refinement still has to compare once prefixes tie.
    #[inline]
    fn refine_keys(&self) -> &[(usize, SortDir)] {
        if self.exact0 {
            &self.keys[1..]
        } else {
            &self.keys
        }
    }

    /// Stable-sort ascending row ids (`0..n`, or a fused selection
    /// vector): radix-scatter `(prefix, id)` pairs by the top prefix byte,
    /// sort each bucket unstably on the pair — the id component *is* the
    /// stability tie-break — then refine equal-prefix runs with the
    /// remaining comparator. Equal-prefix runs never span a radix bucket,
    /// so the refinement scan walks the buckets' concatenation directly.
    pub fn sort(&self, idx: &mut [u32]) {
        if idx.len() < 2 || self.keys.is_empty() {
            return;
        }
        let mut pairs: Vec<(u64, u32)> = idx
            .iter()
            .map(|&i| (self.prefixes[i as usize], i))
            .collect();
        radix_sort_pairs(&mut pairs);
        for (slot, &(_, i)) in idx.iter_mut().zip(pairs.iter()) {
            *slot = i;
        }
        if self.exact0 && self.keys.len() == 1 {
            return;
        }
        let rest = self.refine_keys();
        let mut start = 0;
        while start < pairs.len() {
            let p = pairs[start].0;
            let mut end = start + 1;
            while end < pairs.len() && pairs[end].0 == p {
                end += 1;
            }
            if end - start > 1 {
                idx[start..end].sort_by(|&a, &b| cmp_rows(self.input, rest, a, b));
            }
            start = end;
        }
    }
}

/// Compare two rows under a resolved key list, matching the interpreter's
/// comparator exactly (`cmp_at` per key, `reverse` on descending).
#[inline]
fn cmp_rows(input: &ColumnarRelation, keys: &[(usize, SortDir)], a: u32, b: u32) -> Ordering {
    for &(c, dir) in keys {
        let col = input.column(c);
        let ord = col.cmp_at(a as usize, col, b as usize);
        let ord = match dir {
            SortDir::Asc => ord,
            SortDir::Desc => ord.reverse(),
        };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

/// Sort `(prefix, id)` pairs ascending: one MSB-byte scatter pass into
/// 256 cache-sized buckets, then an unstable per-bucket sort (exact,
/// because distinct ids make every pair distinct). Small inputs sort
/// directly — the scatter only pays off past cache size.
fn radix_sort_pairs(pairs: &mut Vec<(u64, u32)>) {
    if pairs.len() < RADIX_MIN_ROWS {
        pairs.sort_unstable();
        return;
    }
    let mut counts = [0u32; 257];
    for &(p, _) in pairs.iter() {
        counts[(p >> 56) as usize + 1] += 1;
    }
    for b in 0..256 {
        counts[b + 1] += counts[b];
    }
    let offsets = counts;
    let mut cursor = offsets;
    let mut out = vec![(0u64, 0u32); pairs.len()];
    for &pr in pairs.iter() {
        let b = (pr.0 >> 56) as usize;
        out[cursor[b] as usize] = pr;
        cursor[b] += 1;
    }
    for b in 0..256 {
        let (s, e) = (offsets[b] as usize, offsets[b + 1] as usize);
        if e - s > 1 {
            out[s..e].sort_unstable();
        }
    }
    *pairs = out;
}

/// Value-equivalence classes (or grouping classes) of a relation over a
/// set of key columns, in first-occurrence order.
///
/// The build is radix-partitioned past `CLASS_RADIX_MIN_ROWS`: a two-pass
/// (histogram, scatter) pass splits rows by the high half of their key
/// hash, each partition builds a private cache-sized probe table over its
/// stable (ascending) row slice, and a cheap `O(classes · parts)` merge
/// interleaves the partitions' first-occurrence lists back into global
/// first-occurrence order — the same class list, same order, as a single
/// sequential scan.
pub struct ClassIndex {
    /// Per-partition probe table + key rows; probes route by
    /// [`part_of`] on the key hash.
    parts: Vec<(RowTable, KeyStore)>,
    /// Local class id → global class id, per partition.
    globals: Vec<Vec<u32>>,
    key_idx: Vec<usize>,
    /// First member row of each class.
    pub protos: Vec<u32>,
    /// Member rows of each class, in input order.
    pub members: Vec<Vec<u32>>,
    /// Class id of every input row (row-major accumulation).
    pub class_of_row: Vec<u32>,
}

impl ClassIndex {
    /// Build the index over `key_idx` columns of `input`.
    pub fn build(input: &ColumnarRelation, key_idx: Vec<usize>) -> ClassIndex {
        let cols = input.columns().to_vec();
        let rows = input.rows();
        let hashes = super::hash::hash_all(&cols, &key_idx, rows);
        let nparts = if rows < CLASS_RADIX_MIN_ROWS {
            1
        } else {
            RADIX_PARTS
        };
        let (offsets, ids) = radix_scatter(&hashes, nparts);

        let mut parts = Vec::with_capacity(nparts);
        let mut local_protos: Vec<Vec<u32>> = Vec::with_capacity(nparts);
        let mut local_members: Vec<Vec<Vec<u32>>> = Vec::with_capacity(nparts);
        // Local class id of every row (globalized after the merge).
        let mut local_of_row = vec![0u32; rows];
        for p in 0..nparts {
            let slice = &ids[offsets[p] as usize..offsets[p + 1] as usize];
            let mut table = RowTable::with_capacity(slice.len());
            let mut store = KeyStore::for_keys(input.schema(), &key_idx);
            let mut protos_p = Vec::new();
            let mut members_p: Vec<Vec<u32>> = Vec::new();
            for &rid in slice {
                let row = rid as usize;
                let (id, inserted) =
                    table.find_or_insert(hashes[row], |e| store.eq_row(e, &cols, &key_idx, row), 0);
                if inserted {
                    store.push_row(&cols, &key_idx, row);
                    protos_p.push(rid);
                    members_p.push(Vec::new());
                }
                members_p[id as usize].push(rid);
                local_of_row[row] = id;
            }
            parts.push((table, store));
            local_protos.push(protos_p);
            local_members.push(members_p);
        }

        // Merge: interleave the partitions' (ascending) proto lists into
        // the global first-occurrence order.
        let total: usize = local_protos.iter().map(Vec::len).sum();
        let mut protos = Vec::with_capacity(total);
        let mut members = Vec::with_capacity(total);
        let mut globals: Vec<Vec<u32>> = local_protos.iter().map(|p| vec![0u32; p.len()]).collect();
        let mut cursor = vec![0usize; nparts];
        for _ in 0..total {
            let mut best: Option<(u32, usize)> = None;
            for (p, plist) in local_protos.iter().enumerate() {
                if let Some(&proto) = plist.get(cursor[p]) {
                    if best.is_none_or(|(b, _)| proto < b) {
                        best = Some((proto, p));
                    }
                }
            }
            let (proto, p) = best.expect("cursor invariant");
            globals[p][cursor[p]] = protos.len() as u32;
            protos.push(proto);
            members.push(std::mem::take(&mut local_members[p][cursor[p]]));
            cursor[p] += 1;
        }

        let mut class_of_row = Vec::with_capacity(rows);
        for (row, &h) in hashes.iter().enumerate() {
            let p = part_of(h, nparts);
            class_of_row.push(globals[p][local_of_row[row] as usize]);
        }

        ClassIndex {
            parts,
            globals,
            key_idx,
            protos,
            members,
            class_of_row,
        }
    }

    /// Class id of physical `row` of `cols` (same key layout), if present.
    pub fn find(&self, cols: &[Arc<Column>], row: usize) -> Option<u32> {
        self.find_keyed(cols, &self.key_idx, row)
    }

    /// Class id of physical `row` of `cols`, whose key columns sit at
    /// `key_idx` (parallel to the build keys, same domains), if present.
    pub fn find_keyed(&self, cols: &[Arc<Column>], key_idx: &[usize], row: usize) -> Option<u32> {
        let h = KeyStore::hash_row(cols, key_idx, row);
        let p = part_of(h, self.parts.len());
        let (table, store) = &self.parts[p];
        table
            .find(h, |e| store.eq_row(e, cols, key_idx, row))
            .map(|local| self.globals[p][local as usize])
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

/// `ξᵀ`: per group — a [`ClassIndex`] class over the grouping columns, in
/// first-occurrence order — one [`EndpointSweep`] over the raw period
/// columns through the interpreter's own [`IntervalAggregates`], so the
/// output is `tqo_core::ops::aggregate_t`'s list (and its literal
/// definition's). Key columns are gathered from each class's first row;
/// aggregate and period columns are built as the intervals are emitted.
/// One governance poll per group.
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
    let mut live = IntervalAggregates::new(input, input.schema(), aggs);
    let mut sweep = EndpointSweep::default();
    let mut results: Vec<Column> = (0..aggs.len())
        .map(|k| Column::with_capacity(out_schema.attr(key_idx.len() + k).dtype, 0))
        .collect();
    let (mut protos, mut t1, mut t2) = (Vec::new(), Vec::new(), Vec::new());
    for (members, &proto) in classes.members.iter().zip(&classes.protos) {
        context::check_current()?;
        let periods = members
            .iter()
            .map(|&r| Ok((r, Period::new(s[r as usize], e[r as usize])?)));
        live.reset(members);
        sweep.run(periods, &mut live, |live, p| {
            for (k, col) in results.iter_mut().enumerate() {
                col.push(&live.value(k)?)?;
            }
            protos.push(proto);
            t1.push(p.start);
            t2.push(p.end);
            Ok(())
        })?;
    }
    let mut columns: Vec<Arc<Column>> = key_idx
        .iter()
        .map(|&k| Arc::new(input.column(k).gather(&protos)))
        .collect();
    columns.extend(results.into_iter().map(Arc::new));
    columns.push(time_column(t1));
    columns.push(time_column(t2));
    Ok(ColumnarRelation::new(out_schema, columns))
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
    for i in 0..left.rows() {
        context::check_current()?;
        // `=` is never true of a NULL, whatever is on the other side.
        if left_keys.iter().any(|&c| cols[c].is_null(i)) {
            continue;
        }
        if let Some(class) = index.find_keyed(cols, &left_keys, i) {
            for &j in &index.members[class as usize] {
                emit(i as u32, j);
            }
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

/// `\ᵀ` via per-class count timelines, list-exact against
/// `tqo_core::ops::difference_t`.
pub fn difference_t(
    left: &ColumnarRelation,
    right: &ColumnarRelation,
    out_schema: Arc<Schema>,
) -> Result<ColumnarRelation> {
    left.schema()
        .check_union_compatible(right.schema(), "temporal difference")?;
    let (ls, le) = left.period_columns()?;
    let (rs, re) = right.period_columns()?;
    let classes = ClassIndex::build(left, left.schema().value_indices());

    let mut timelines: Vec<CountTimeline> = vec![CountTimeline::new(); classes.len()];
    for (class, members) in classes.members.iter().enumerate() {
        for &i in members {
            timelines[class].add(Period::of(ls[i as usize], le[i as usize]), 1);
        }
    }
    let rcols = right.columns().to_vec();
    for j in 0..right.rows() {
        if let Some(class) = classes.find(&rcols, j) {
            timelines[class as usize].add(Period::of(rs[j], re[j]), -1);
        }
    }

    let mut protos = Vec::new();
    let mut t1 = Vec::new();
    let mut t2 = Vec::new();
    for (class, tl) in timelines.iter().enumerate() {
        let proto = classes.protos[class];
        for (period, count) in tl.constant_intervals() {
            for _ in 0..count.max(0) {
                protos.push(proto);
                t1.push(period.start);
                t2.push(period.end);
            }
        }
    }
    Ok(emit_fragments(left, out_schema, &protos, t1, t2))
}

/// `rdupᵀ`: each row claims, in list order, what earlier rows of its
/// class left free of its period — list-exact against
/// `tqo_core::ops::rdup_t` (and so against the paper's recursion).
pub fn rdup_t(input: &ColumnarRelation) -> Result<ColumnarRelation> {
    let (s, e) = input.period_columns()?;
    let classes = ClassIndex::build(input, input.schema().value_indices());
    let mut claimed = vec![Coverage::new(); classes.len()];
    let mut rows = Vec::with_capacity(input.rows());
    let mut t1 = Vec::with_capacity(input.rows());
    let mut t2 = Vec::with_capacity(input.rows());
    for (row, &class) in classes.class_of_row.iter().enumerate() {
        claimed[class as usize].claim(Period::new(s[row], e[row])?, |p| {
            rows.push(row as u32);
            t1.push(p.start);
            t2.push(p.end);
        });
    }
    Ok(emit_fragments(input, input.schema().clone(), &rows, t1, t2))
}

/// `coalᵀ`: [`coalesce_walk`] over [`ClassIndex`] classes and the raw
/// period columns — list-exact against `tqo_core::ops::coalesce`. The
/// `(class, instant)` pairs are numbered through a [`RowTable`] on a mix of
/// the two, each pair stored once for the collision check.
pub fn coalesce(input: &ColumnarRelation) -> Result<ColumnarRelation> {
    let (s, e) = input.period_columns()?;
    let classes = ClassIndex::build(input, input.schema().value_indices());
    let rows = input.rows();
    let mut table = RowTable::with_capacity(2 * rows);
    let mut pairs: Vec<(u32, i64)> = Vec::with_capacity(2 * rows);
    let mut number = |class: u32, at: i64| {
        let hash = hash_combine(mix64(u64::from(class)), mix64(at as u64));
        let (id, inserted) = table.find_or_insert(hash, |id| pairs[id as usize] == (class, at), 0);
        if inserted {
            pairs.push((class, at));
        }
        id
    };
    let (mut starts_at, mut ends_at) = (Vec::with_capacity(rows), Vec::with_capacity(rows));
    for (row, &class) in classes.class_of_row.iter().enumerate() {
        starts_at.push(number(class, s[row]));
        ends_at.push(number(class, e[row]));
    }
    let (mut heads, mut t1, mut t2) = (Vec::new(), Vec::new(), Vec::new());
    coalesce_walk(&starts_at, &ends_at, pairs.len(), |head, first, last| {
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
