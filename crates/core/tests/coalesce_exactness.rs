//! `coalesce` is `coalesce_literal`, as lists — and so is the batch
//! engine's columnar kernel.
//!
//! The chained walk claims to emit the very list the definition's
//! fixpoint emits: each surviving tuple in argument order, widened by the
//! same partners in the same order. The fixpoint run literally is the
//! oracle. Generated relations lean on the shapes where the two could
//! part: exact duplicates, overlaps, adjacency after and before, long
//! chains, several classes, NULL explicit values — and every relation is
//! also tried in a shuffled order, so chains arrive out of order.

use proptest::prelude::*;

use tqo_core::columnar::ColumnarRelation;
use tqo_core::ops::{coalesce, coalesce_literal};
use tqo_core::relation::Relation;
use tqo_core::schema::Schema;
use tqo_core::tuple::Tuple;
use tqo_core::value::{DataType, Value};
use tqo_exec::batch::kernels;

/// One generated row: either placed freely, or shaped against an earlier
/// row so that the interesting period relationships actually occur.
#[derive(Debug, Clone)]
enum Row {
    Fresh {
        class: usize,
        null: bool,
        start: i64,
        len: i64,
    },
    /// Same class as row `of % rows so far`; `shape` picks the period:
    /// 0 the same, 1 overlapping its tail, 2 adjacent after, 3 adjacent
    /// before, 4 adjacent after the row placed last (chains when
    /// repeated).
    Like { of: usize, shape: u8, by: i64 },
}

fn arb_row(classes: usize) -> impl Strategy<Value = Row> {
    prop_oneof![
        (0..classes, 0u8..4, 0i64..40, 1i64..12).prop_map(|(class, null, start, len)| {
            Row::Fresh {
                class,
                null: null == 0,
                start,
                len,
            }
        }),
        (0usize..64, 0u8..5, 1i64..6).prop_map(|(of, shape, by)| Row::Like { of, shape, by }),
    ]
}

fn schema() -> Schema {
    Schema::temporal(&[("E", DataType::Str), ("N", DataType::Int)])
}

fn build(rows: &[Row]) -> Relation {
    // (class, null, start, end) of every row placed so far.
    let mut placed: Vec<(usize, bool, i64, i64)> = Vec::with_capacity(rows.len());
    for row in rows {
        let next = match *row {
            Row::Fresh {
                class,
                null,
                start,
                len,
            } => (class, null, start, start + len),
            Row::Like { .. } if placed.is_empty() => (0, false, 5, 9),
            Row::Like { of, shape, by } => {
                let of = if shape == 4 {
                    placed.len() - 1
                } else {
                    of % placed.len()
                };
                let (class, null, s, e) = placed[of];
                let (s, e) = match shape {
                    0 => (s, e),
                    1 => (e - 1, e + by),
                    3 => (s - by, s),
                    _ => (e, e + by),
                };
                (class, null, s, e)
            }
        };
        placed.push(next);
    }
    let tuples = placed
        .into_iter()
        .map(|(class, null, s, e)| {
            Tuple::new(vec![
                Value::from(format!("e{class}")),
                if null { Value::Null } else { Value::Int(1) },
                Value::Time(s),
                Value::Time(e),
            ])
        })
        .collect();
    Relation::new(schema(), tuples).expect("generated rows are valid")
}

/// `r`'s tuples permuted by `seed` (Fisher–Yates over a 64-bit LCG).
fn shuffled(r: &Relation, mut seed: u64) -> Relation {
    let mut tuples = r.tuples().to_vec();
    for i in (1..tuples.len()).rev() {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        tuples.swap(i, (seed >> 33) as usize % (i + 1));
    }
    Relation::new(r.schema().clone(), tuples).expect("a permutation of a valid relation")
}

fn assert_same_list(r: &Relation) -> Result<(), TestCaseError> {
    let literal = coalesce_literal(r).unwrap();
    let walked = coalesce(r).unwrap();
    prop_assert_eq!(walked.schema(), literal.schema());
    prop_assert_eq!(walked.tuples(), literal.tuples(), "input: {}", r);
    let batch = kernels::coalesce(&ColumnarRelation::from_relation(r).unwrap())
        .unwrap()
        .to_relation();
    prop_assert_eq!(batch.tuples(), literal.tuples(), "batch, input: {}", r);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn a_few_classes(rows in prop::collection::vec(arb_row(3), 0..48), seed in any::<u64>()) {
        let r = build(&rows);
        assert_same_list(&r)?;
        assert_same_list(&shuffled(&r, seed))?;
    }

    #[test]
    fn one_giant_class(rows in prop::collection::vec(arb_row(1), 0..64), seed in any::<u64>()) {
        let r = build(&rows);
        assert_same_list(&r)?;
        assert_same_list(&shuffled(&r, seed))?;
    }
}

/// A chain of 200 adjacent periods in reverse list order, interleaved
/// with a second class's chain in shuffled order, collapses to one tuple
/// per class at the position of each class's first tuple.
#[test]
fn long_chains_collapse_in_any_order() {
    let mut rows: Vec<Tuple> = Vec::new();
    for i in (0..200i64).rev() {
        rows.push(Tuple::new(vec![
            Value::from("a"),
            Value::Null,
            Value::Time(i * 2),
            Value::Time(i * 2 + 2),
        ]));
        rows.push(Tuple::new(vec![
            Value::from("b"),
            Value::Int(1),
            Value::Time(((i * 37) % 200) * 3),
            Value::Time(((i * 37) % 200) * 3 + 3),
        ]));
    }
    let r = Relation::new(schema(), rows).unwrap();
    let got = coalesce(&r).unwrap();
    assert_eq!(got, coalesce_literal(&r).unwrap());
    assert_eq!(
        got.tuples(),
        &[
            Tuple::new(vec![
                Value::from("a"),
                Value::Null,
                Value::Time(0),
                Value::Time(400)
            ]),
            Tuple::new(vec![
                Value::from("b"),
                Value::Int(1),
                Value::Time(0),
                Value::Time(600)
            ]),
        ]
    );

    let empty = Relation::empty(schema());
    assert_eq!(coalesce(&empty).unwrap(), empty);
}
