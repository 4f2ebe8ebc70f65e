//! Temporal aggregation `ξᵀ_{G1..Gn; F1..Fm}(r)`.
//!
//! Snapshot-reducible to `ξ`: conceptually the aggregate is evaluated at
//! every instant over the tuples then alive. The definition computes, per
//! group, the maximal *constant intervals* — intervals delimited by the
//! group's period endpoints on which the set of live tuples does not change —
//! and emits one result tuple per non-empty constant interval.
//! [`aggregate_t_literal`] runs exactly that, rescanning the group for every
//! interval; [`aggregate_t`] produces the same *list* by one endpoint sweep
//! per group ([`EndpointSweep`]) that keeps the live set's aggregates
//! current ([`IntervalAggregates`]): `O(n log n)` plus the output, and
//! `O(live)` more per interval for float `SUM` and `AVG`, which re-add the
//! live values in list order so their results are bit-identical.
//!
//! Table 1: order `= Prefix(Order(r), GroupPairs)` (groups in
//! first-occurrence order), cardinality `≤ 2 · n(r) − 1`, eliminates
//! duplicates, destroys coalescing.

use std::cmp::Ordering;
use std::collections::{BTreeSet, HashMap};

use crate::columnar::{ColumnData, ColumnarRelation};
use crate::error::{Error, Result};
use crate::expr::{AggFunc, AggItem};
use crate::relation::Relation;
use crate::schema::{Attribute, Schema, T1, T2};
use crate::time::{EndpointSweep, LiveSet, Period};
use crate::tuple::Tuple;
use crate::value::{DataType, Value};

/// The output schema of `ξᵀ`: grouping attributes, aggregate results, and
/// the fresh period attributes.
pub fn aggregate_t_schema(input: &Schema, group_by: &[String], aggs: &[AggItem]) -> Result<Schema> {
    if !input.is_temporal() {
        return Err(Error::NotTemporal {
            context: "temporal aggregation",
        });
    }
    let mut attrs = Vec::with_capacity(group_by.len() + aggs.len() + 2);
    for g in group_by {
        if g == T1 || g == T2 {
            return Err(Error::ReservedAttribute { name: g.clone() });
        }
        let i = input.resolve(g)?;
        attrs.push(input.attr(i).clone());
    }
    for agg in aggs {
        attrs.push(Attribute::new(agg.alias.clone(), agg.output_type(input)?));
    }
    attrs.push(Attribute::new(T1, DataType::Time));
    attrs.push(Attribute::new(T2, DataType::Time));
    Schema::new(attrs)
}

/// `r`'s groups under `group_by` in first-occurrence order: each group's
/// key and its members' list positions, ascending.
fn groups(r: &Relation, group_by: &[String]) -> Result<Vec<(Vec<Value>, Vec<u32>)>> {
    let key_idx: Vec<usize> = group_by
        .iter()
        .map(|g| r.schema().resolve(g))
        .collect::<Result<_>>()?;
    let mut index: HashMap<Vec<Value>, usize> = HashMap::new();
    let mut groups: Vec<(Vec<Value>, Vec<u32>)> = Vec::new();
    for (i, t) in r.tuples().iter().enumerate() {
        let key: Vec<Value> = key_idx.iter().map(|&k| t.value(k).clone()).collect();
        let g = *index.entry(key).or_insert_with_key(|key| {
            groups.push((key.clone(), Vec::new()));
            groups.len() - 1
        });
        groups[g].1.push(i as u32);
    }
    Ok(groups)
}

/// Apply `ξᵀ`: per group, one [`EndpointSweep`] through
/// [`IntervalAggregates`] — the list [`aggregate_t_literal`] defines.
pub fn aggregate_t(r: &Relation, group_by: &[String], aggs: &[AggItem]) -> Result<Relation> {
    let out_schema = aggregate_t_schema(r.schema(), group_by, aggs)?;
    let (schema, tuples) = (r.schema(), r.tuples());
    let mut live = IntervalAggregates::new(tuples, schema, aggs);
    let mut sweep = EndpointSweep::default();
    let mut out = Vec::new();
    for (key, members) in groups(r, group_by)? {
        let periods = members
            .iter()
            .map(|&i| Ok((i, tuples[i as usize].period(schema)?)));
        live.reset(&members);
        sweep.run(periods, &mut live, |live, interval| {
            let mut values = Vec::with_capacity(key.len() + aggs.len() + 2);
            values.extend_from_slice(&key);
            for k in 0..aggs.len() {
                values.push(live.value(k)?);
            }
            values.push(Value::Time(interval.start));
            values.push(Value::Time(interval.end));
            out.push(Tuple::new(values));
            Ok(())
        })?;
    }
    Ok(Relation::new_unchecked(out_schema, out))
}

/// `ξᵀ` by its definition, run literally: per group, every constant
/// interval rescans all the group's members for the live ones — `O(n²)` in
/// a group's size. The definition [`aggregate_t`] is tested against.
pub fn aggregate_t_literal(
    r: &Relation,
    group_by: &[String],
    aggs: &[AggItem],
) -> Result<Relation> {
    let out_schema = aggregate_t_schema(r.schema(), group_by, aggs)?;
    let mut out = Vec::new();
    for (key, indices) in groups(r, group_by)? {
        // Endpoints of this group's periods delimit the constant intervals.
        let mut pts: Vec<i64> = Vec::with_capacity(indices.len() * 2);
        let mut periods: Vec<Period> = Vec::with_capacity(indices.len());
        for &i in &indices {
            let p = r.tuples()[i as usize].period(r.schema())?;
            pts.push(p.start);
            pts.push(p.end);
            periods.push(p);
        }
        pts.sort_unstable();
        pts.dedup();
        for w in pts.windows(2) {
            let interval = Period {
                start: w[0],
                end: w[1],
            };
            let live: Vec<&Tuple> = indices
                .iter()
                .zip(&periods)
                .filter(|(_, p)| p.contains(interval.start))
                .map(|(&i, _)| &r.tuples()[i as usize])
                .collect();
            if live.is_empty() {
                continue; // a gap between this group's periods
            }
            let mut values = key.clone();
            for agg in aggs {
                values.push(agg.compute(r.schema(), &live)?);
            }
            values.push(Value::Time(interval.start));
            values.push(Value::Time(interval.end));
            out.push(Tuple::new(values));
        }
    }
    Ok(Relation::new_unchecked(out_schema, out))
}

/// An input of `ξᵀ` as [`IntervalAggregates`] reads it: attribute `attr`
/// of the row at list position `row`. Row layout and columns alike.
pub trait AggInput {
    /// True when the value is NULL.
    fn is_null(&self, attr: usize, row: u32) -> bool;
    /// The payload of an `Int` or `Time` value; `None` for any other.
    fn int(&self, attr: usize, row: u32) -> Option<i64>;
    /// The value itself.
    fn value(&self, attr: usize, row: u32) -> Value;
    /// The two rows' values under `Value::cmp`.
    fn cmp(&self, attr: usize, a: u32, b: u32) -> Ordering;
}

impl AggInput for [Tuple] {
    fn is_null(&self, attr: usize, row: u32) -> bool {
        self[row as usize].value(attr).is_null()
    }

    fn int(&self, attr: usize, row: u32) -> Option<i64> {
        match self[row as usize].value(attr) {
            Value::Int(v) | Value::Time(v) => Some(*v),
            _ => None,
        }
    }

    fn value(&self, attr: usize, row: u32) -> Value {
        self[row as usize].value(attr).clone()
    }

    fn cmp(&self, attr: usize, a: u32, b: u32) -> Ordering {
        self[a as usize]
            .value(attr)
            .cmp(self[b as usize].value(attr))
    }
}

impl AggInput for ColumnarRelation {
    fn is_null(&self, attr: usize, row: u32) -> bool {
        self.column(attr).is_null(row as usize)
    }

    fn int(&self, attr: usize, row: u32) -> Option<i64> {
        let col = self.column(attr);
        match col.data() {
            ColumnData::Int(v) | ColumnData::Time(v) if !col.is_null(row as usize) => {
                Some(v[row as usize])
            }
            _ => None,
        }
    }

    fn value(&self, attr: usize, row: u32) -> Value {
        self.column(attr).value(row as usize)
    }

    fn cmp(&self, attr: usize, a: u32, b: u32) -> Ordering {
        let col = self.column(attr);
        col.cmp_at(a as usize, col, b as usize)
    }
}

/// A live row of a `MIN`/`MAX`, ordered so that the answer comes first:
/// by value (descending for `MAX`), ties to the earliest in list order —
/// the row [`AggItem::fold`]'s strict comparisons keep.
struct Ranked<'a, I: ?Sized> {
    input: &'a I,
    attr: usize,
    row: u32,
    max: bool,
}

impl<I: AggInput + ?Sized> Ord for Ranked<'_, I> {
    fn cmp(&self, other: &Self) -> Ordering {
        let by_value = self.input.cmp(self.attr, self.row, other.row);
        let by_value = if self.max {
            by_value.reverse()
        } else {
            by_value
        };
        by_value.then(self.row.cmp(&other.row))
    }
}

impl<I: AggInput + ?Sized> PartialOrd for Ranked<'_, I> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<I: AggInput + ?Sized> PartialEq for Ranked<'_, I> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl<I: AggInput + ?Sized> Eq for Ranked<'_, I> {}

/// One aggregate's running state over a group's live set.
enum Acc<'a, I: ?Sized> {
    /// `COUNT(*)`: the live set's size.
    Rows,
    /// `COUNT(attr)`: live non-NULL values.
    NonNull { attr: usize, n: i64 },
    /// `SUM` over a group with integer values only: a wrapping running
    /// sum (equal to the fold's, whatever the order) and the live
    /// non-NULL count that decides NULL.
    IntSum { attr: usize, sum: i64, n: i64 },
    /// `MIN`/`MAX`: the live non-NULL rows, the answer first.
    Extreme {
        attr: usize,
        max: bool,
        set: BTreeSet<Ranked<'a, I>>,
    },
    /// Float `SUM` and `AVG`: [`AggItem::fold`] over the live values in
    /// list order, once per interval.
    Fold { attr: usize },
    /// An argument that does not resolve: the error each interval raises.
    Unresolved(Error),
}

/// The aggregates of one group's live set, kept current as an
/// [`EndpointSweep`] passes each endpoint — `ξᵀ`'s state in the interpreter
/// and the engine.
/// `COUNT`, integer `SUM`, `MIN` and `MAX` update in `O(log n)` per event;
/// float `SUM` and `AVG` fold the live set in list order per interval,
/// which is what makes them bit-identical to [`aggregate_t_literal`].
pub struct IntervalAggregates<'a, I: ?Sized> {
    input: &'a I,
    aggs: &'a [AggItem],
    args: Vec<Result<Option<usize>>>,
    accs: Vec<Acc<'a, I>>,
    live: i64,
    /// The live rows in list order, kept while some aggregate folds.
    ordered: Option<BTreeSet<u32>>,
    /// Some state besides the live count changes as rows come and go.
    per_row: bool,
}

impl<'a, I: AggInput + ?Sized> IntervalAggregates<'a, I> {
    /// State for `aggs` over `input`, whose schema is `schema`. Call
    /// [`IntervalAggregates::reset`] before each group.
    pub fn new(input: &'a I, schema: &Schema, aggs: &'a [AggItem]) -> Self {
        IntervalAggregates {
            input,
            aggs,
            args: aggs.iter().map(|a| a.arg_index(schema)).collect(),
            accs: Vec::with_capacity(aggs.len()),
            live: 0,
            ordered: None,
            per_row: false,
        }
    }

    /// Start a group whose rows are `members`: nothing live. A `SUM` runs
    /// incrementally when every member's value is an integer or NULL.
    pub fn reset(&mut self, members: &[u32]) {
        let input = self.input;
        let ints = |attr| {
            members
                .iter()
                .all(|&r| input.is_null(attr, r) || input.int(attr, r).is_some())
        };
        self.live = 0;
        self.accs.clear();
        let mut folds = false;
        for (item, arg) in self.aggs.iter().zip(&self.args) {
            self.accs.push(match (item.func, arg) {
                (_, Err(e)) => Acc::Unresolved(e.clone()),
                (_, Ok(None)) => Acc::Rows,
                (AggFunc::Count, &Ok(Some(attr))) => Acc::NonNull { attr, n: 0 },
                (AggFunc::Min | AggFunc::Max, &Ok(Some(attr))) => Acc::Extreme {
                    attr,
                    max: item.func == AggFunc::Max,
                    set: BTreeSet::new(),
                },
                (AggFunc::Sum, &Ok(Some(attr))) if ints(attr) => Acc::IntSum { attr, sum: 0, n: 0 },
                (AggFunc::Sum | AggFunc::Avg, &Ok(Some(attr))) => {
                    folds = true;
                    Acc::Fold { attr }
                }
            });
        }
        self.ordered = folds.then(BTreeSet::new);
        self.per_row = self
            .accs
            .iter()
            .any(|a| !matches!(a, Acc::Rows | Acc::Unresolved(_)));
    }

    /// The `k`-th aggregate over the current live set.
    pub fn value(&self, k: usize) -> Result<Value> {
        Ok(match &self.accs[k] {
            Acc::Rows => Value::Int(self.live),
            Acc::NonNull { n, .. } => Value::Int(*n),
            Acc::IntSum { n: 0, .. } => Value::Null,
            Acc::IntSum { sum, .. } => Value::Int(*sum),
            Acc::Extreme { attr, set, .. } => set
                .first()
                .map_or(Value::Null, |r| self.input.value(*attr, r.row)),
            Acc::Fold { attr } => {
                let live = self.ordered.as_ref().expect("kept while folding");
                return self.aggs[k].fold(live.iter().map(|&r| self.input.value(*attr, r)));
            }
            Acc::Unresolved(e) => return Err(e.clone()),
        })
    }
}

impl<I: AggInput + ?Sized> LiveSet for IntervalAggregates<'_, I> {
    fn enter(&mut self, row: u32) {
        self.live += 1;
        if !self.per_row {
            return;
        }
        let input = self.input;
        if let Some(ordered) = &mut self.ordered {
            ordered.insert(row);
        }
        for acc in &mut self.accs {
            match acc {
                Acc::NonNull { attr, n } if !input.is_null(*attr, row) => *n += 1,
                Acc::IntSum { attr, sum, n } => {
                    if let Some(v) = input.int(*attr, row) {
                        *sum = sum.wrapping_add(v);
                        *n += 1;
                    }
                }
                Acc::Extreme { attr, max, set } if !input.is_null(*attr, row) => {
                    set.insert(Ranked {
                        input,
                        attr: *attr,
                        row,
                        max: *max,
                    });
                }
                _ => {}
            }
        }
    }

    fn leave(&mut self, row: u32) {
        self.live -= 1;
        if !self.per_row {
            return;
        }
        let input = self.input;
        if let Some(ordered) = &mut self.ordered {
            ordered.remove(&row);
        }
        for acc in &mut self.accs {
            match acc {
                Acc::NonNull { attr, n } if !input.is_null(*attr, row) => *n -= 1,
                Acc::IntSum { attr, sum, n } => {
                    if let Some(v) = input.int(*attr, row) {
                        *sum = sum.wrapping_sub(v);
                        *n -= 1;
                    }
                }
                Acc::Extreme { attr, max, set } if !input.is_null(*attr, row) => {
                    set.remove(&Ranked {
                        input,
                        attr: *attr,
                        row,
                        max: *max,
                    });
                }
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::AggFunc;
    use crate::ops::aggregate::aggregate;
    use crate::tuple;

    fn dept_salaries() -> Relation {
        Relation::new(
            Schema::temporal(&[("Dept", DataType::Str), ("Salary", DataType::Int)]),
            vec![
                tuple!["Sales", 100i64, 1i64, 8i64],
                tuple!["Sales", 200i64, 4i64, 10i64],
                tuple!["Ads", 300i64, 2i64, 6i64],
            ],
        )
        .unwrap()
    }

    #[test]
    fn constant_interval_sweep() {
        let got = aggregate_t(
            &dept_salaries(),
            &["Dept".into()],
            &[AggItem::new(AggFunc::Sum, Some("Salary"), "total")],
        )
        .unwrap();
        assert_eq!(got.schema().names(), vec!["Dept", "total", "T1", "T2"]);
        assert_eq!(
            got.tuples(),
            &[
                tuple!["Sales", 100i64, 1i64, 4i64],
                tuple!["Sales", 300i64, 4i64, 8i64],
                tuple!["Sales", 200i64, 8i64, 10i64],
                tuple!["Ads", 300i64, 2i64, 6i64],
            ]
        );
    }

    #[test]
    fn snapshot_reducible_to_aggregate() {
        let r = dept_salaries();
        let aggs = [
            AggItem::count_star("n"),
            AggItem::new(AggFunc::Max, Some("Salary"), "top"),
        ];
        let got = aggregate_t(&r, &["Dept".into()], &aggs).unwrap();
        for t in 0..12 {
            let snap = r.snapshot(t).unwrap();
            let lhs = got.snapshot(t).unwrap();
            let rhs = aggregate(&snap, &["Dept".into()], &aggs).unwrap();
            assert_eq!(lhs.counts(), rhs.counts(), "at instant {t}");
        }
    }

    #[test]
    fn gaps_between_periods_produce_no_rows() {
        let r = Relation::new(
            Schema::temporal(&[("G", DataType::Str)]),
            vec![tuple!["a", 1i64, 3i64], tuple!["a", 7i64, 9i64]],
        )
        .unwrap();
        let got = aggregate_t(&r, &["G".into()], &[AggItem::count_star("n")]).unwrap();
        assert_eq!(
            got.tuples(),
            &[tuple!["a", 1i64, 1i64, 3i64], tuple!["a", 1i64, 7i64, 9i64]]
        );
    }

    #[test]
    fn cardinality_bound_of_table1() {
        let r = dept_salaries();
        let got = aggregate_t(&r, &["Dept".into()], &[AggItem::count_star("n")]).unwrap();
        assert!(got.len() < 2 * r.len());
    }

    #[test]
    fn grouping_by_time_attrs_is_rejected() {
        let r = dept_salaries();
        assert!(aggregate_t(&r, &["T1".into()], &[]).is_err());
    }

    #[test]
    fn grand_total_over_all_tuples() {
        let got = aggregate_t(&dept_salaries(), &[], &[AggItem::count_star("n")]).unwrap();
        // One group containing everything; intervals over 1..10.
        assert_eq!(
            got.tuples(),
            &[
                tuple![1i64, 1i64, 2i64],
                tuple![2i64, 2i64, 4i64],
                tuple![3i64, 4i64, 6i64],
                tuple![2i64, 6i64, 8i64],
                tuple![1i64, 8i64, 10i64],
            ]
        );
    }
}
