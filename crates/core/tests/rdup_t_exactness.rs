//! `rdup_t` is `rdup_t_literal`, as lists.
//!
//! The class-wise algorithm claims to produce the very list the paper's
//! head/tail recursion produces — same tuples, same order, same periods —
//! which is why it needs no Table 2 license. The recursion run literally
//! is the oracle; the generated relations lean on the shapes where the
//! two could part: exact duplicates, contained, straddling, adjacent and
//! chained-overlap periods, and NULL explicit values.

use proptest::prelude::*;

use tqo_core::ops::{rdup_t, rdup_t_literal};
use tqo_core::relation::Relation;
use tqo_core::schema::Schema;
use tqo_core::tuple::Tuple;
use tqo_core::value::{DataType, Value};

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
    /// 0 the same, 1 contained, 2 straddling, 3 adjacent after, 4 adjacent
    /// before, 5 overlapping its tail (chains when repeated).
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
        (0usize..64, 0u8..6, 1i64..6).prop_map(|(of, shape, by)| Row::Like { of, shape, by }),
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
                let (class, null, s, e) = placed[of % placed.len()];
                let (s, e) = match shape {
                    0 => (s, e),
                    1 if e - s > 2 => (s + 1, e - 1),
                    1 => (s, e),
                    2 => (s - by, e + by),
                    3 => (e, e + by),
                    4 => (s - by, s),
                    _ => (e - 1, e - 1 + by + 1),
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

fn assert_same_list(r: &Relation) -> Result<(), TestCaseError> {
    let (fast, literal) = (rdup_t(r).unwrap(), rdup_t_literal(r).unwrap());
    prop_assert_eq!(fast.schema(), literal.schema());
    prop_assert_eq!(fast.tuples(), literal.tuples(), "input: {}", r);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn a_few_classes(rows in prop::collection::vec(arb_row(3), 0..48)) {
        assert_same_list(&build(&rows))?;
    }

    #[test]
    fn one_giant_class(rows in prop::collection::vec(arb_row(1), 0..64)) {
        assert_same_list(&build(&rows))?;
    }
}

#[test]
fn all_singleton_classes_and_empty_input_pass_through() {
    let singletons: Vec<Row> = (0..40)
        .map(|class| Row::Fresh {
            class,
            null: class % 7 == 0,
            start: (class as i64 * 3) % 11,
            len: 4,
        })
        .collect();
    let r = build(&singletons);
    assert_eq!(rdup_t(&r).unwrap(), r);
    assert_eq!(rdup_t_literal(&r).unwrap(), r);

    let empty = Relation::empty(schema());
    assert_eq!(rdup_t(&empty).unwrap(), empty);
    assert_eq!(rdup_t_literal(&empty).unwrap(), empty);
}
