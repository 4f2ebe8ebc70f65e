//! `aggregate_t` is `aggregate_t_literal`, as lists — and so is the batch
//! engine's columnar kernel.
//!
//! The endpoint sweep claims to emit the very list the definition emits:
//! same groups in the same order, a row for every interval between
//! consecutive distinct endpoints with a live member, the same values down
//! to the bit. The definition run literally is the oracle. Sweep and
//! literal are compared strictly — `Int` vs `Time` and every float bit
//! count, which `Value`'s own equality would blur for the former — and the
//! batch kernel, whose columns fix one variant per type, under `==`.
//! Generated relations lean on the shapes where the algorithms could part:
//! shared endpoints, containment, adjacency, gaps, unit periods, NULL keys
//! and arguments, ties between equal values of different variants, `−0.0`
//! beside `0.0`, and floats whose sums depend on the order of addition.

use std::sync::Arc;

use proptest::prelude::*;

use tqo_core::columnar::ColumnarRelation;
use tqo_core::expr::{AggFunc, AggItem};
use tqo_core::ops::{aggregate_t, aggregate_t_literal};
use tqo_core::relation::Relation;
use tqo_core::schema::Schema;
use tqo_core::tuple::Tuple;
use tqo_core::value::{DataType, Value};
use tqo_exec::batch::kernels;

/// One generated row: placed freely, or shaped against an earlier row so
/// that the interesting period relationships actually occur. `i` and `f`
/// pick the `I` and `F` values (see [`int_value`], [`float_value`]).
#[derive(Debug, Clone)]
enum Row {
    Fresh {
        group: usize,
        i: u8,
        f: u8,
        start: i64,
        len: i64,
    },
    /// Same group as row `of % rows so far`; `shape` picks the period:
    /// 0 the same, 1 contained, 2 straddling, 3 adjacent after, 4 adjacent
    /// before, 5 overlapping its tail, 6 a unit period at its start.
    Like {
        of: usize,
        shape: u8,
        by: i64,
        i: u8,
        f: u8,
    },
}

fn arb_row(groups: usize) -> impl Strategy<Value = Row> {
    prop_oneof![
        (0..groups + 1, any::<u8>(), any::<u8>(), 0i64..40, 1i64..12).prop_map(
            |(group, i, f, start, len)| Row::Fresh {
                group,
                i,
                f,
                start,
                len,
            }
        ),
        (0usize..64, 0u8..7, 1i64..6, any::<u8>(), any::<u8>()).prop_map(
            |(of, shape, by, i, f)| Row::Like {
                of,
                shape,
                by,
                i,
                f
            }
        ),
    ]
}

/// Mostly small integers, so values repeat; `Time`-tagged twins of them,
/// so `MIN`/`MAX` ties have a visible winner; NULLs; and the extremes,
/// so integer sums wrap.
fn int_value(code: u8) -> Value {
    match code % 16 {
        0 | 1 => Value::Null,
        2 => Value::Int(i64::MAX),
        3 => Value::Int(i64::MIN + 1),
        4..=6 => Value::Time((code % 3) as i64),
        c => Value::Int((c % 3) as i64),
    }
}

/// Magnitudes that absorb each other, so any change in the order of
/// addition changes the bits; both zeros; NaN; NULLs.
fn float_value(code: u8) -> Value {
    match code % 12 {
        0 | 1 => Value::Null,
        2 => Value::Float(1e16),
        3 => Value::Float(-1e16),
        4 => Value::Float(0.1),
        5 => Value::Float(-0.0),
        6 => Value::Float(0.0),
        7 => Value::Float(f64::NAN),
        8 => Value::Float(3.0),
        c => Value::Float(c as f64 * 0.7),
    }
}

fn schema() -> Schema {
    Schema::temporal(&[
        ("G", DataType::Str),
        ("I", DataType::Int),
        ("F", DataType::Float),
    ])
}

/// Group `groups` (one past the generated range) is the NULL key.
fn build(rows: &[Row], groups: usize) -> Relation {
    // (group, i, f, start, end) of every row placed so far.
    let mut placed: Vec<(usize, u8, u8, i64, i64)> = Vec::with_capacity(rows.len());
    for row in rows {
        let next = match *row {
            Row::Fresh {
                group,
                i,
                f,
                start,
                len,
            } => (group, i, f, start, start + len),
            Row::Like { i, f, .. } if placed.is_empty() => (0, i, f, 5, 9),
            Row::Like {
                of,
                shape,
                by,
                i,
                f,
            } => {
                let (group, _, _, s, e) = placed[of % placed.len()];
                let (s, e) = match shape {
                    0 => (s, e),
                    1 if e - s > 2 => (s + 1, e - 1),
                    1 => (s, e),
                    2 => (s - by, e + by),
                    3 => (e, e + by),
                    4 => (s - by, s),
                    5 => (e - 1, e - 1 + by + 1),
                    _ => (s, s + 1),
                };
                (group, i, f, s, e)
            }
        };
        placed.push(next);
    }
    let tuples = placed
        .into_iter()
        .map(|(group, i, f, s, e)| {
            Tuple::new(vec![
                if group == groups {
                    Value::Null
                } else {
                    Value::from(format!("g{group}"))
                },
                int_value(i),
                float_value(f),
                Value::Time(s),
                Value::Time(e),
            ])
        })
        .collect();
    Relation::new(schema(), tuples).expect("generated rows are valid")
}

/// All five functions over every kind of argument, `T1`/`T2` included.
fn aggs() -> Vec<AggItem> {
    use AggFunc::*;
    let mut aggs = vec![AggItem::count_star("n")];
    for (k, (func, arg)) in [
        (Count, "I"),
        (Count, "F"),
        (Sum, "I"),
        (Sum, "F"),
        (Sum, "T1"),
        (Min, "I"),
        (Max, "I"),
        (Min, "F"),
        (Max, "F"),
        (Min, "T2"),
        (Max, "T1"),
        (Avg, "I"),
        (Avg, "F"),
        (Avg, "T2"),
    ]
    .into_iter()
    .enumerate()
    {
        aggs.push(AggItem::new(func, Some(arg), format!("a{k}")));
    }
    aggs
}

/// Each row's values with their variants and every float bit showing.
fn strict(r: &Relation) -> Vec<String> {
    r.tuples()
        .iter()
        .map(|t| format!("{:?}", t.values()))
        .collect()
}

fn batch(r: &Relation, group_by: &[String], aggs: &[AggItem], out: &Schema) -> Relation {
    let input = ColumnarRelation::from_relation(r).unwrap();
    kernels::aggregate_t(&input, group_by, aggs, Arc::new(out.clone()))
        .unwrap()
        .to_relation()
}

fn assert_same_list(r: &Relation, group_by: &[String]) -> Result<(), TestCaseError> {
    let aggs = aggs();
    let sweep = aggregate_t(r, group_by, &aggs).unwrap();
    let literal = aggregate_t_literal(r, group_by, &aggs).unwrap();
    prop_assert_eq!(sweep.schema(), literal.schema());
    prop_assert_eq!(strict(&sweep), strict(&literal), "input: {}", r);
    let batch = batch(r, group_by, &aggs, literal.schema());
    prop_assert_eq!(&batch, &literal, "batch kernel, input: {}", r);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn a_few_groups(rows in prop::collection::vec(arb_row(3), 0..48)) {
        assert_same_list(&build(&rows, 3), &["G".to_owned()])?;
    }

    #[test]
    fn one_deep_group(rows in prop::collection::vec(arb_row(1), 0..64)) {
        assert_same_list(&build(&rows, 1), &["G".to_owned()])?;
    }

    #[test]
    fn grand_total(rows in prop::collection::vec(arb_row(3), 0..48)) {
        assert_same_list(&build(&rows, 3), &[])?;
    }
}

fn rel(rows: Vec<(Value, Value, Value, i64, i64)>) -> Relation {
    let tuples = rows
        .into_iter()
        .map(|(g, i, f, s, e)| Tuple::new(vec![g, i, f, Value::Time(s), Value::Time(e)]))
        .collect();
    Relation::new(schema(), tuples).unwrap()
}

#[test]
fn empty_input_yields_no_rows_with_and_without_group_by() {
    let empty = Relation::empty(schema());
    for group_by in [vec!["G".to_owned()], vec![]] {
        let out = aggregate_t(&empty, &group_by, &aggs()).unwrap();
        assert!(out.is_empty());
        assert_eq!(
            out,
            aggregate_t_literal(&empty, &group_by, &aggs()).unwrap()
        );
        assert_eq!(out, batch(&empty, &group_by, &aggs(), out.schema()));
    }
}

#[test]
fn extreme_ties_go_to_the_earliest_live_row() {
    let g = || Value::from("g");
    let r = rel(vec![
        (g(), Value::Int(5), Value::Float(0.0), 1, 10),
        (g(), Value::Time(5), Value::Float(-0.0), 1, 10),
        (g(), Value::Time(7), Value::Float(0.0), 4, 6),
    ]);
    let aggs = [
        AggItem::new(AggFunc::Min, Some("I"), "lo"),
        AggItem::new(AggFunc::Max, Some("I"), "hi"),
        AggItem::new(AggFunc::Min, Some("F"), "flo"),
        AggItem::new(AggFunc::Max, Some("F"), "fhi"),
    ];
    let out = aggregate_t(&r, &[], &aggs).unwrap();
    assert_eq!(
        strict(&out),
        strict(&aggregate_t_literal(&r, &[], &aggs).unwrap())
    );
    let first = out.tuples()[0].values();
    // `Int(5)` comes first in list order; `−0.0` orders below `0.0`.
    assert!(matches!(first[0], Value::Int(5)));
    assert!(matches!(first[1], Value::Int(5)));
    assert_eq!(first[2].as_float().unwrap().to_bits(), (-0.0f64).to_bits());
    assert_eq!(first[3].as_float().unwrap().to_bits(), 0.0f64.to_bits());
}

#[test]
fn integer_sums_wrap_where_the_periods_overlap() {
    let g = || Value::from("g");
    let r = rel(vec![
        (g(), Value::Int(i64::MAX), Value::Null, 1, 5),
        (g(), Value::Int(1), Value::Null, 3, 8),
    ]);
    let aggs = [AggItem::new(AggFunc::Sum, Some("I"), "s")];
    let out = aggregate_t(&r, &["G".into()], &aggs).unwrap();
    let sums: Vec<Value> = out.tuples().iter().map(|t| t.values()[1].clone()).collect();
    assert_eq!(
        sums,
        [Value::Int(i64::MAX), Value::Int(i64::MIN), Value::Int(1)]
    );
    assert_eq!(out, aggregate_t_literal(&r, &["G".into()], &aggs).unwrap());
    assert_eq!(out, batch(&r, &["G".into()], &aggs, out.schema()));
}
