//! Seeded differential test of the class-run temporal kernels
//! (`tqo_exec::batch::kernels`) against the interpreter's operators
//! (`tqo_core::ops`): `rdupᵀ`, `coalᵀ`, `\ᵀ`, `∪ᵀ`, `∪` and `ξᵀ` must
//! return the interpreter's list, compared with `==`.
//!
//! Inputs hold 1–4 value classes and 0–40 rows over a short time line, so
//! equal, nested, adjacent, overlapping and one-instant periods are all
//! frequent, and the same class recurs in both arguments of the binary
//! operators. `ξᵀ` runs all five aggregates, over an `Int` argument with
//! NULLs (the typed path) and a `Float` one (the interpreter's fold).

use std::sync::Arc;

use proptest::prelude::*;
use tqo_core::columnar::ColumnarRelation;
use tqo_core::expr::{AggFunc, AggItem};
use tqo_core::ops;
use tqo_core::ops::temporal::aggregate_t::aggregate_t_schema;
use tqo_core::relation::Relation;
use tqo_core::schema::Schema;
use tqo_core::tuple::Tuple;
use tqo_core::value::{DataType, Value};
use tqo_exec::batch::kernels;

/// One generated row: class, start, duration, and the aggregate inputs
/// (`None` = NULL).
type Row = (u8, i64, i64, Option<i64>, Option<i64>);

fn rows() -> impl Strategy<Value = Vec<Row>> {
    let row = (
        0u8..4,
        0i64..12,
        1i64..6,
        prop_oneof![Just(None), (-3i64..4).prop_map(Some)],
        prop_oneof![Just(None), (-2i64..3).prop_map(Some)],
    );
    prop::collection::vec(row, 0..41)
}

/// `(E, T1, T2)`: the class relation of the set-like operators.
fn classes(rows: &[Row]) -> Relation {
    Relation::new(
        Schema::temporal(&[("E", DataType::Str)]),
        rows.iter()
            .map(|&(c, s, d, _, _)| {
                Tuple::new(vec![
                    Value::from(format!("e{c}").as_str()),
                    Value::Time(s),
                    Value::Time(s + d),
                ])
            })
            .collect(),
    )
    .unwrap()
}

/// `(E, V: Int, F: Float, T1, T2)`: the input of `ξᵀ`.
fn measured(rows: &[Row]) -> Relation {
    let or_null = |v: Option<Value>| v.unwrap_or(Value::Null);
    Relation::new(
        Schema::temporal(&[
            ("E", DataType::Str),
            ("V", DataType::Int),
            ("F", DataType::Float),
        ]),
        rows.iter()
            .map(|&(c, s, d, v, f)| {
                Tuple::new(vec![
                    Value::from(format!("e{c}").as_str()),
                    or_null(v.map(Value::Int)),
                    or_null(f.map(|f| Value::Float(f as f64 / 2.0))),
                    Value::Time(s),
                    Value::Time(s + d),
                ])
            })
            .collect(),
    )
    .unwrap()
}

fn cr(r: &Relation) -> ColumnarRelation {
    ColumnarRelation::from_relation(r).unwrap()
}

fn aggregates() -> Vec<AggItem> {
    let mut aggs = vec![AggItem::count_star("n")];
    for arg in ["V", "F"] {
        for (func, name) in [
            (AggFunc::Count, "count"),
            (AggFunc::Sum, "sum"),
            (AggFunc::Avg, "avg"),
            (AggFunc::Min, "min"),
            (AggFunc::Max, "max"),
        ] {
            aggs.push(AggItem::new(func, Some(arg), format!("{name}_{arg}")));
        }
    }
    aggs
}

fn check(left: &[Row], right: &[Row]) -> Result<(), TestCaseError> {
    let (l, r) = (classes(left), classes(right));
    let (cl, cr_) = (cr(&l), cr(&r));
    let schema = Arc::new(l.schema().clone());

    let got = kernels::rdup_t(&cl).unwrap().to_relation();
    prop_assert_eq!(got, ops::rdup_t(&l).unwrap(), "rdupᵀ");
    let got = kernels::coalesce(&cl).unwrap().to_relation();
    prop_assert_eq!(got, ops::coalesce(&l).unwrap(), "coalᵀ");
    let got = kernels::difference_t(&cl, &cr_, schema.clone())
        .unwrap()
        .to_relation();
    prop_assert_eq!(got, ops::difference_t(&l, &r).unwrap(), "\\ᵀ");
    let got = kernels::union_t(&cl, &cr_, schema).unwrap().to_relation();
    prop_assert_eq!(got, ops::union_t(&l, &r).unwrap(), "∪ᵀ");
    let demoted = Arc::new(l.schema().demote_time_attrs());
    let got = kernels::union_max(&cl, &cr_, demoted)
        .unwrap()
        .to_relation();
    prop_assert_eq!(got, ops::union_max(&l, &r).unwrap(), "∪");

    let m = measured(left);
    let aggs = aggregates();
    for group_by in [vec!["E".to_owned()], vec![]] {
        let out = Arc::new(aggregate_t_schema(m.schema(), &group_by, &aggs).unwrap());
        let got = kernels::aggregate_t(&cr(&m), &group_by, &aggs, out)
            .unwrap()
            .to_relation();
        prop_assert_eq!(
            got,
            ops::aggregate_t(&m, &group_by, &aggs).unwrap(),
            "ξᵀ by {:?}",
            group_by
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn temporal_kernels_return_the_interpreters_lists(left in rows(), right in rows()) {
        check(&left, &right)?;
    }
}

/// The cases the generator is most likely to miss, pinned.
#[test]
fn equal_nested_adjacent_and_one_instant_periods() {
    let row = |c, s, e| (c, s, e - s, Some(s), None);
    let cases: [&[Row]; 4] = [
        &[row(0, 2, 6), row(0, 2, 6), row(0, 2, 6)],
        &[row(0, 1, 10), row(0, 3, 5), row(0, 4, 6), row(0, 0, 11)],
        &[row(0, 1, 3), row(0, 3, 5), row(0, 5, 6), row(1, 3, 5)],
        &[row(0, 4, 5), row(0, 4, 5), row(0, 3, 4), row(0, 5, 6)],
    ];
    for left in cases {
        for right in cases {
            check(left, right).unwrap();
        }
    }
}

/// Over 70 000 rows the class builds, and the probes of the binary
/// operators, give the same lists.
#[test]
fn partitioned_class_builds_keep_the_lists() {
    let relation = |shift: i64| {
        Relation::new(
            Schema::temporal(&[("E", DataType::Str)]),
            (0..70_000i64)
                .map(|i| {
                    let start = (i * 7 + shift) % 50;
                    Tuple::new(vec![
                        Value::from(format!("e{}", i % 700).as_str()),
                        Value::Time(start),
                        Value::Time(start + 1 + i % 5),
                    ])
                })
                .collect(),
        )
        .unwrap()
    };
    let (l, r) = (relation(0), relation(3));
    let (cl, cr_) = (cr(&l), cr(&r));
    let schema = Arc::new(l.schema().clone());
    let got = kernels::difference_t(&cl, &cr_, schema.clone()).unwrap();
    assert_eq!(got.to_relation(), ops::difference_t(&l, &r).unwrap());
    let got = kernels::union_t(&cl, &cr_, schema).unwrap();
    assert_eq!(got.to_relation(), ops::union_t(&l, &r).unwrap());
    let demoted = Arc::new(l.schema().demote_time_attrs());
    let got = kernels::union_max(&cl, &cr_, demoted).unwrap();
    assert_eq!(got.to_relation(), ops::union_max(&l, &r).unwrap());
}
