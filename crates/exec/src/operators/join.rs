//! Fast Cartesian products.
//!
//! **Plane sweep `×ᵀ`.** Instead of testing all `n·m` pairs, both inputs
//! are sorted by period start and swept together; each tuple is joined
//! only against the other side's *active* set (periods containing the
//! sweep point). For workloads whose snapshots are small relative to the
//! total history this approaches `O(n log n + output)`. The output is
//! `≡M`-equivalent to the faithful left-major nested loop (same pairs,
//! sweep order).
//!
//! **Hash equi-join `×` / `×ᵀ`.** Below a selection with equality
//! conjuncts across the two inputs, the product indexes the right input on
//! its key columns and probes it with each left tuple in order, emitting
//! the matches in right order: exactly the sub-list of the left-major
//! nested loop that satisfies the key equalities, so the selection above
//! computes the list it always did.

use std::collections::HashMap;

use tqo_core::context::StridePoll;
use tqo_core::error::Result;
use tqo_core::ops::product::product_schema;
use tqo_core::ops::temporal::product_t::product_t_schema;
use tqo_core::relation::Relation;
use tqo_core::time::Period;
use tqo_core::tuple::Tuple;
use tqo_core::value::Value;

use crate::physical::EquiKeys;

/// Call `emit` on every pair of a left and a right tuple whose key columns
/// are equal and non-NULL, left-major, right tuples in list order.
fn for_each_key_match(
    r1: &Relation,
    r2: &Relation,
    keys: &EquiKeys,
    mut emit: impl FnMut(&Tuple, &Tuple) -> Result<()>,
) -> Result<()> {
    let (left_cols, right_cols) = keys.resolve(r1.schema(), r2.schema())?;
    // `None` for a key with a NULL in it: `=` is never true of a NULL.
    let key_of = |t: &Tuple, cols: &[usize]| {
        let key = t.project(cols).into_values();
        (!key.iter().any(Value::is_null)).then_some(key)
    };
    let mut index: HashMap<Vec<Value>, Vec<&Tuple>> = HashMap::new();
    for t2 in r2.tuples() {
        if let Some(key) = key_of(t2, &right_cols) {
            index.entry(key).or_default().push(t2);
        }
    }
    let mut poll = StridePoll::new();
    for t1 in r1.tuples() {
        poll.poll()?;
        let Some(matches) = key_of(t1, &left_cols).and_then(|key| index.get(&key)) else {
            continue;
        };
        for t2 in matches {
            poll.poll()?;
            emit(t1, t2)?;
        }
    }
    Ok(())
}

/// Hash equi-join `×`: the pairs of [`tqo_core::ops::product`] that
/// satisfy the key equalities, in its order.
pub fn product_hash_equi(r1: &Relation, r2: &Relation, keys: &EquiKeys) -> Result<Relation> {
    let schema = product_schema(r1.schema(), r2.schema())?;
    let mut out = Vec::new();
    for_each_key_match(r1, r2, keys, |t1, t2| {
        out.push(t1.concat(t2));
        Ok(())
    })?;
    Ok(Relation::new_unchecked(schema, out))
}

/// Hash equi-join `×ᵀ`: the pairs of [`tqo_core::ops::product_t`] that
/// satisfy the key equalities, in its order.
pub fn product_t_hash_equi(r1: &Relation, r2: &Relation, keys: &EquiKeys) -> Result<Relation> {
    let schema = product_t_schema(r1.schema(), r2.schema())?;
    let mut out = Vec::new();
    for_each_key_match(r1, r2, keys, |t1, t2| {
        if let Some(p) = t1.period(r1.schema())?.intersect(&t2.period(r2.schema())?) {
            let mut values = t1.values().to_vec();
            values.extend(t2.values().iter().cloned());
            values.push(Value::Time(p.start));
            values.push(Value::Time(p.end));
            out.push(Tuple::new(values));
        }
        Ok(())
    })?;
    Ok(Relation::new_unchecked(schema, out))
}

/// Plane-sweep `×ᵀ`.
pub fn product_t_plane_sweep(r1: &Relation, r2: &Relation) -> Result<Relation> {
    let schema = product_t_schema(r1.schema(), r2.schema())?;

    // (start, side, index) events; starts sorted ascending. Tuples are
    // joined on insertion against the opposite active list.
    let mut left: Vec<(Period, &Tuple)> = Vec::with_capacity(r1.len());
    for t in r1.tuples() {
        left.push((t.period(r1.schema())?, t));
    }
    let mut right: Vec<(Period, &Tuple)> = Vec::with_capacity(r2.len());
    for t in r2.tuples() {
        right.push((t.period(r2.schema())?, t));
    }
    left.sort_by_key(|(p, _)| (p.start, p.end));
    right.sort_by_key(|(p, _)| (p.start, p.end));

    let mut out: Vec<Tuple> = Vec::new();
    let mut active_left: Vec<(Period, &Tuple)> = Vec::new();
    let mut active_right: Vec<(Period, &Tuple)> = Vec::new();
    let (mut i, mut j) = (0usize, 0usize);

    let emit = |l: &Tuple, r: &Tuple, p: Period, out: &mut Vec<Tuple>| {
        let mut values = l.values().to_vec();
        values.extend(r.values().iter().cloned());
        values.push(Value::Time(p.start));
        values.push(Value::Time(p.end));
        out.push(Tuple::new(values));
    };

    while i < left.len() || j < right.len() {
        let take_left = match (left.get(i), right.get(j)) {
            (Some((lp, _)), Some((rp, _))) => (lp.start, lp.end) <= (rp.start, rp.end),
            (Some(_), None) => true,
            _ => false,
        };
        if take_left {
            let (lp, lt) = left[i];
            i += 1;
            active_right.retain(|(rp, _)| rp.end > lp.start);
            for (rp, rt) in &active_right {
                if let Some(p) = lp.intersect(rp) {
                    emit(lt, rt, p, &mut out);
                }
            }
            active_left.push((lp, lt));
        } else {
            let (rp, rt) = right[j];
            j += 1;
            active_left.retain(|(lp, _)| lp.end > rp.start);
            for (lp, lt) in &active_left {
                if let Some(p) = lp.intersect(&rp) {
                    emit(lt, rt, p, &mut out);
                }
            }
            active_right.push((rp, rt));
        }
    }
    Ok(Relation::new_unchecked(schema, out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tqo_core::equivalence::equiv_multiset;
    use tqo_core::ops::product_t;
    use tqo_core::schema::Schema;
    use tqo_core::tuple;
    use tqo_core::value::DataType;

    fn rel(name: &str, rows: &[(&str, i64, i64)]) -> Relation {
        let schema = Schema::temporal(&[(name, DataType::Str)]);
        Relation::new(
            schema,
            rows.iter().map(|(v, s, e)| tuple![*v, *s, *e]).collect(),
        )
        .unwrap()
    }

    #[test]
    fn matches_nested_loop_as_multiset() {
        let l = rel("A", &[("a", 1, 5), ("b", 4, 9), ("c", 10, 12)]);
        let r = rel("B", &[("x", 3, 6), ("y", 8, 12), ("z", 1, 2)]);
        let fast = product_t_plane_sweep(&l, &r).unwrap();
        let faithful = product_t(&l, &r).unwrap();
        assert!(equiv_multiset(&fast, &faithful).unwrap());
    }

    #[test]
    fn no_overlap_no_output() {
        let l = rel("A", &[("a", 1, 3)]);
        let r = rel("B", &[("x", 3, 6)]);
        assert!(product_t_plane_sweep(&l, &r).unwrap().is_empty());
    }

    #[test]
    fn identical_periods_join_fully() {
        let l = rel("A", &[("a", 1, 5), ("b", 1, 5)]);
        let r = rel("B", &[("x", 1, 5)]);
        let got = product_t_plane_sweep(&l, &r).unwrap();
        assert_eq!(got.len(), 2);
    }

    #[test]
    fn larger_random_agreement() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let mk = |rng: &mut rand::rngs::StdRng, name: &str, n: usize| {
            let rows: Vec<(String, i64, i64)> = (0..n)
                .map(|i| {
                    let s = rng.gen_range(0..50);
                    (format!("v{}", i % 7), s, s + rng.gen_range(1..10))
                })
                .collect();
            let schema = Schema::temporal(&[(name, DataType::Str)]);
            Relation::new(
                schema,
                rows.iter()
                    .map(|(v, s, e)| tuple![v.as_str(), *s, *e])
                    .collect(),
            )
            .unwrap()
        };
        let l = mk(&mut rng, "A", 40);
        let r = mk(&mut rng, "B", 30);
        let fast = product_t_plane_sweep(&l, &r).unwrap();
        let faithful = product_t(&l, &r).unwrap();
        assert!(equiv_multiset(&fast, &faithful).unwrap());
    }
}
