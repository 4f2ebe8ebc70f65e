//! Temporal Cartesian product `r1 ×ᵀ r2`.
//!
//! Snapshot-reducible to `×`: a pair of tuples joins exactly when their
//! periods overlap, and the result is valid over the intersection. Following
//! §4.3's remark that "the temporal Cartesian product retains the timestamps
//! of its argument relations", the output schema keeps the original periods
//! as the (demoted) attributes `1.T1/1.T2/2.T1/2.T2` *and* appends the fresh
//! intersection period as `T1/T2` — rule C9 projects the retained timestamps
//! away with `A = Ω \ {1.T1, 1.T2, 2.T1, 2.T2}`.
//!
//! Table 1: order `= Order(r1)`, cardinality `≤ n(r1) · n(r2)`, retains
//! duplicates, destroys coalescing.
//!
//! The definition is a left-major nested loop; [`product_t_literal`] runs
//! it. [`product_t`] finds the same pairs with [`overlapping_pairs`], an
//! endpoint sweep the batch engine's kernel shares, and sorts them back
//! into the nested loop's order.

use crate::context::{self, StridePoll};
use crate::error::{Error, Result};
use crate::relation::Relation;
use crate::schema::{Attribute, Schema};
use crate::time::Instant;
use crate::tuple::Tuple;
use crate::value::{DataType, Value};

/// The output schema of `r1 ×ᵀ r2`.
pub fn product_t_schema(left: &Schema, right: &Schema) -> Result<Schema> {
    if !left.is_temporal() || !right.is_temporal() {
        return Err(Error::NotTemporal {
            context: "temporal product",
        });
    }
    let mut attrs = left.prefixed("1.").attrs().to_vec();
    attrs.extend(right.prefixed("2.").attrs().iter().cloned());
    attrs.push(Attribute::new(crate::schema::T1, DataType::Time));
    attrs.push(Attribute::new(crate::schema::T2, DataType::Time));
    Schema::new(attrs)
}

/// Every `(left, right)` pair of rows whose periods overlap, packed as
/// `left << 32 | right` and ascending — the nested loop's order: left-major,
/// right rows ascending. Each side is given as its start and end columns.
///
/// Both sides' rows are sorted by `(start, end)` and merged; a row meets
/// the other side's rows that started no later and are still live, so
/// every overlapping pair is found once, by whichever row comes second.
/// One governance poll per left row. `O((n + m) log(n + m))` for the
/// sweep, plus sorting the pairs it finds.
pub fn overlapping_pairs(
    (ls, le): (&[Instant], &[Instant]),
    (rs, re): (&[Instant], &[Instant]),
) -> Result<Vec<u64>> {
    let by_period = |s: &[Instant], e: &[Instant]| {
        let mut rows: Vec<u32> = (0..s.len() as u32).collect();
        rows.sort_unstable_by_key(|&i| (s[i as usize], e[i as usize]));
        rows
    };
    let (left, right) = (by_period(ls, le), by_period(rs, re));
    let mut pairs = Vec::new();
    let (mut live_left, mut live_right): (Vec<u32>, Vec<u32>) = (Vec::new(), Vec::new());
    let (mut i, mut j) = (0, 0);
    while i < left.len() || j < right.len() {
        let take_left = match (left.get(i), right.get(j)) {
            (Some(&l), Some(&r)) => {
                let (l, r) = (l as usize, r as usize);
                (ls[l], le[l]) <= (rs[r], re[r])
            }
            (Some(_), None) => true,
            _ => false,
        };
        if take_left {
            context::check_current()?;
            let l = left[i];
            i += 1;
            let (s, e) = (ls[l as usize], le[l as usize]);
            live_right.retain(|&r| re[r as usize] > s);
            for &r in &live_right {
                // An empty period is live nowhere.
                if rs[r as usize].max(s) < re[r as usize].min(e) {
                    pairs.push(u64::from(l) << 32 | u64::from(r));
                }
            }
            live_left.push(l);
        } else {
            let r = right[j];
            j += 1;
            let (s, e) = (rs[r as usize], re[r as usize]);
            live_left.retain(|&l| le[l as usize] > s);
            for &l in &live_left {
                if ls[l as usize].max(s) < le[l as usize].min(e) {
                    pairs.push(u64::from(l) << 32 | u64::from(r));
                }
            }
            live_right.push(r);
        }
    }
    pairs.sort_unstable();
    Ok(pairs)
}

/// Apply `×ᵀ`: the period-overlapping pairs of [`overlapping_pairs`], each
/// valid over its intersection — the nested loop's list.
pub fn product_t(r1: &Relation, r2: &Relation) -> Result<Relation> {
    let schema = product_t_schema(r1.schema(), r2.schema())?;
    let ends = |r: &Relation| -> Result<(Vec<Instant>, Vec<Instant>)> {
        let mut ends = (Vec::with_capacity(r.len()), Vec::with_capacity(r.len()));
        for t in r.tuples() {
            let p = t.period(r.schema())?;
            ends.0.push(p.start);
            ends.1.push(p.end);
        }
        Ok(ends)
    };
    let (ls, le) = ends(r1)?;
    let (rs, re) = ends(r2)?;
    let pairs = overlapping_pairs((&ls, &le), (&rs, &re))?;
    let mut out = Vec::with_capacity(pairs.len());
    for pair in pairs {
        let (l, r) = ((pair >> 32) as usize, pair as u32 as usize);
        let mut values = r1.tuples()[l].values().to_vec();
        values.extend(r2.tuples()[r].values().iter().cloned());
        values.push(Value::Time(ls[l].max(rs[r])));
        values.push(Value::Time(le[l].min(re[r])));
        out.push(Tuple::new(values));
    }
    Ok(Relation::new_unchecked(schema, out))
}

/// `×ᵀ` by its definition: a left-major nested loop over all `n·m` pairs,
/// keeping the overlapping ones. The definition [`product_t`] is tested
/// against.
pub fn product_t_literal(r1: &Relation, r2: &Relation) -> Result<Relation> {
    let schema = product_t_schema(r1.schema(), r2.schema())?;
    let mut out = Vec::new();
    // Poll the governance context every stride of the quadratic loop so
    // the literal nested loop stays cancellable mid-operator.
    let mut poll = StridePoll::new();
    for t1 in r1.tuples() {
        let p1 = t1.period(r1.schema())?;
        for t2 in r2.tuples() {
            poll.poll()?;
            let p2 = t2.period(r2.schema())?;
            if let Some(p) = p1.intersect(&p2) {
                let mut values = t1.values().to_vec();
                values.extend(t2.values().iter().cloned());
                values.push(Value::Time(p.start));
                values.push(Value::Time(p.end));
                out.push(Tuple::new(values));
            }
        }
    }
    Ok(Relation::new_unchecked(schema, out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::product::product;
    use crate::tuple;

    fn left() -> Relation {
        Relation::new(
            Schema::temporal(&[("A", DataType::Str)]),
            vec![tuple!["a", 1i64, 5i64], tuple!["b", 4i64, 9i64]],
        )
        .unwrap()
    }

    fn right() -> Relation {
        Relation::new(
            Schema::temporal(&[("B", DataType::Int)]),
            vec![tuple![10i64, 3i64, 6i64], tuple![20i64, 8i64, 12i64]],
        )
        .unwrap()
    }

    #[test]
    fn schema_retains_original_periods_and_appends_intersection() {
        let got = product_t(&left(), &right()).unwrap();
        assert_eq!(
            got.schema().names(),
            vec!["1.A", "1.T1", "1.T2", "2.B", "2.T1", "2.T2", "T1", "T2"]
        );
        assert!(got.is_temporal());
    }

    #[test]
    fn joins_only_overlapping_pairs() {
        let got = product_t(&left(), &right()).unwrap();
        // a[1,5) × 10[3,6) → [3,5); b[4,9) × 10[3,6) → [4,6);
        // b[4,9) × 20[8,12) → [8,9); a × 20 does not overlap.
        assert_eq!(
            got.tuples(),
            &[
                tuple!["a", 1i64, 5i64, 10i64, 3i64, 6i64, 3i64, 5i64],
                tuple!["b", 4i64, 9i64, 10i64, 3i64, 6i64, 4i64, 6i64],
                tuple!["b", 4i64, 9i64, 20i64, 8i64, 12i64, 8i64, 9i64],
            ]
        );
    }

    #[test]
    fn snapshot_reducible_to_product() {
        let (l, r) = (left(), right());
        let joined = product_t(&l, &r).unwrap();
        for t in [0, 1, 3, 4, 5, 8, 9, 12] {
            let via_t = joined.snapshot(t).unwrap();
            let conv = product(&l.snapshot(t).unwrap(), &r.snapshot(t).unwrap()).unwrap();
            // The snapshot of ×ᵀ still carries the retained timestamps; the
            // conventional product of snapshots does not — compare on the
            // shared explicit attributes (1.A, 2.B).
            let lhs: Vec<_> = via_t
                .tuples()
                .iter()
                .map(|t| (t.value(0).clone(), t.value(3).clone()))
                .collect();
            let rhs: Vec<_> = conv
                .tuples()
                .iter()
                .map(|t| (t.value(0).clone(), t.value(1).clone()))
                .collect();
            assert_eq!(lhs, rhs, "at instant {t}");
        }
    }

    #[test]
    fn requires_temporal_arguments() {
        let snap = Relation::new(Schema::of(&[("A", DataType::Int)]), vec![tuple![1i64]]).unwrap();
        assert!(product_t(&snap, &left()).is_err());
    }

    #[test]
    fn disjoint_periods_give_empty_result() {
        let l = Relation::new(
            Schema::temporal(&[("A", DataType::Str)]),
            vec![tuple!["a", 1i64, 3i64]],
        )
        .unwrap();
        let r = Relation::new(
            Schema::temporal(&[("B", DataType::Str)]),
            vec![tuple!["b", 3i64, 5i64]],
        )
        .unwrap();
        assert!(product_t(&l, &r).unwrap().is_empty());
    }
}
