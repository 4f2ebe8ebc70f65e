//! Temporal duplicate elimination `rdupᵀ(r)` (§2.5).
//!
//! Snapshot-reducible to `rdup`: no snapshot of the result contains
//! duplicates. The paper's λ-calculus definition is a head/tail recursion:
//! scan from the head; while the head tuple has a later value-equivalent
//! tuple whose period overlaps it (`Overᵀ`), replace that tuple in place
//! with its period minus the head's period (`Changeᵀ`, zero, one, or two
//! fragments); once the head has no overlapping successor, keep it and
//! recurse on the tail. [`rdup_t_literal`] runs exactly that and is the
//! definition; [`rdup_t`] computes the same *list* class by class.
//!
//! The consequence spelled out in Figure 3: `⟨John [1,8), John [6,11)⟩`
//! becomes `⟨John [1,8), John [8,11)⟩` — trimmed, *not* merged; `rdupᵀ`
//! destroys coalescing and leaves adjacent fragments for `coalᵀ`.
//!
//! Table 1: order `= Order(r) \ TimePairs`, cardinality `≤ 2·n(r) − 1`,
//! eliminates duplicates (regular duplicates qualify as snapshot
//! duplicates).

use std::collections::HashMap;

use crate::error::{Error, Result};
use crate::relation::Relation;
use crate::time::Coverage;
use crate::tuple::Tuple;
use crate::value::Value;

fn require_temporal(r: &Relation) -> Result<()> {
    if r.is_temporal() {
        Ok(())
    } else {
        Err(Error::NotTemporal {
            context: "temporal duplicate elimination",
        })
    }
}

/// Apply `rdupᵀ`.
///
/// When the recursion keeps a head, every later tuple of its class has
/// already lost the head's period, and fragments replace their tuple in
/// place, in chronological order. So the result is, for each tuple in list
/// order, its period minus the union of the earlier periods of its class:
/// one [`Coverage`] per class, one claim per tuple, `O(n log n)` overall,
/// and the output is the recursion's list, not merely an equivalent one.
pub fn rdup_t(r: &Relation) -> Result<Relation> {
    require_temporal(r)?;
    let schema = r.schema();
    let mut claimed: HashMap<Vec<Value>, Coverage> = HashMap::new();
    let mut out: Vec<Tuple> = Vec::with_capacity(r.len());
    for t in r.tuples() {
        let period = t.period(schema)?;
        let class = claimed.entry(t.explicit_values(schema)).or_default();
        class.claim(period, |p| {
            out.push(if p == period {
                t.clone()
            } else {
                t.with_period(schema, p)
                    .expect("the schema is temporal: the tuple's period was just read")
            })
        });
    }
    Ok(Relation::new_unchecked(schema.clone(), out))
}

/// `rdupᵀ` by the paper's recursion, run literally: for every head, a scan
/// of all later tuples and an in-place splice — `O(n²)`. The definition
/// [`rdup_t`] is tested against.
pub fn rdup_t_literal(r: &Relation) -> Result<Relation> {
    require_temporal(r)?;
    let schema = r.schema().clone();
    let mut tuples: Vec<Tuple> = r.tuples().to_vec();
    // Pre-compute explicit values alongside; periods change, explicit values
    // never do.
    let mut keys: Vec<Vec<Value>> = tuples.iter().map(|t| t.explicit_values(&schema)).collect();

    let mut i = 0;
    while i < tuples.len() {
        let head_period = tuples[i].period(&schema)?;
        // Overᵀ: the first later value-equivalent tuple overlapping the head.
        let over = (i + 1..tuples.len()).find(|&j| {
            keys[j] == keys[i]
                && tuples[j]
                    .period(&schema)
                    .is_ok_and(|p| p.overlaps(&head_period))
        });
        match over {
            None => i += 1,
            Some(j) => {
                // Changeᵀ: replace tuple j by (period_j − period_head).
                let old = tuples[j].period(&schema)?;
                let fragments = old.subtract(&head_period);
                let replacement: Vec<Tuple> = fragments
                    .iter()
                    .map(|p| tuples[j].with_period(&schema, *p))
                    .collect::<Result<_>>()?;
                let key = keys[j].clone();
                tuples.splice(j..j + 1, replacement.iter().cloned());
                keys.splice(j..j + 1, std::iter::repeat_n(key, replacement.len()));
            }
        }
    }
    Ok(Relation::new_unchecked(schema, tuples))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::rdup::rdup;
    use crate::schema::Schema;
    use crate::tuple;
    use crate::value::DataType;

    fn schema() -> Schema {
        Schema::temporal(&[("EmpName", DataType::Str)])
    }

    /// Figure 3's R1.
    fn r1() -> Relation {
        Relation::new(
            schema(),
            vec![
                tuple!["John", 1i64, 8i64],
                tuple!["John", 6i64, 11i64],
                tuple!["Anna", 2i64, 6i64],
                tuple!["Anna", 2i64, 6i64],
                tuple!["Anna", 6i64, 12i64],
            ],
        )
        .unwrap()
    }

    #[test]
    fn figure3_r3_exactly() {
        let r3 = rdup_t(&r1()).unwrap();
        assert_eq!(
            r3.tuples(),
            &[
                tuple!["John", 1i64, 8i64],
                tuple!["John", 8i64, 11i64],
                tuple!["Anna", 2i64, 6i64],
                tuple!["Anna", 6i64, 12i64],
            ]
        );
        assert!(r3.is_temporal());
        assert!(!r3.has_snapshot_duplicates().unwrap());
    }

    #[test]
    fn trims_rather_than_merges() {
        let r3 = rdup_t(&r1()).unwrap();
        // John's fragments stay adjacent — rdupᵀ destroys coalescing.
        assert!(!r3.is_coalesced().unwrap());
    }

    #[test]
    fn snapshot_reducible_to_rdup() {
        let r = r1();
        let got = rdup_t(&r).unwrap();
        for t in 0..14 {
            let lhs = got.snapshot(t).unwrap();
            let rhs = rdup(&r.snapshot(t).unwrap()).unwrap();
            assert_eq!(lhs.counts(), rhs.counts(), "at instant {t}");
        }
    }

    #[test]
    fn contained_period_is_swallowed() {
        let r = Relation::new(
            schema(),
            vec![tuple!["a", 1i64, 10i64], tuple!["a", 3i64, 5i64]],
        )
        .unwrap();
        let got = rdup_t(&r).unwrap();
        assert_eq!(got.tuples(), &[tuple!["a", 1i64, 10i64]]);
    }

    #[test]
    fn straddling_period_splits_in_two() {
        let r = Relation::new(
            schema(),
            vec![tuple!["a", 4i64, 6i64], tuple!["a", 1i64, 10i64]],
        )
        .unwrap();
        let got = rdup_t(&r).unwrap();
        assert_eq!(
            got.tuples(),
            &[
                tuple!["a", 4i64, 6i64],
                tuple!["a", 1i64, 4i64],
                tuple!["a", 6i64, 10i64],
            ]
        );
    }

    #[test]
    fn exact_duplicates_collapse() {
        let r = Relation::new(
            schema(),
            vec![tuple!["a", 2i64, 6i64], tuple!["a", 2i64, 6i64]],
        )
        .unwrap();
        let got = rdup_t(&r).unwrap();
        assert_eq!(got.tuples(), &[tuple!["a", 2i64, 6i64]]);
    }

    #[test]
    fn order_sensitivity_documented_in_section6() {
        // rdupᵀ is order-sensitive: multiset-equivalent inputs can give
        // results that are only snapshot-equivalent, not multiset-equivalent.
        let a = Relation::new(
            schema(),
            vec![tuple!["a", 1i64, 8i64], tuple!["a", 6i64, 11i64]],
        )
        .unwrap();
        let b = Relation::new(
            schema(),
            vec![tuple!["a", 6i64, 11i64], tuple!["a", 1i64, 8i64]],
        )
        .unwrap();
        let ra = rdup_t(&a).unwrap();
        let rb = rdup_t(&b).unwrap();
        assert_ne!(ra.counts(), rb.counts());
        for t in 0..13 {
            assert_eq!(
                ra.snapshot(t).unwrap().counts(),
                rb.snapshot(t).unwrap().counts()
            );
        }
    }

    #[test]
    fn idempotent() {
        let once = rdup_t(&r1()).unwrap();
        let twice = rdup_t(&once).unwrap();
        assert_eq!(once.tuples(), twice.tuples());
    }

    #[test]
    fn cardinality_bound_of_table1() {
        let r = r1();
        let got = rdup_t(&r).unwrap();
        assert!(got.len() < 2 * r.len());
    }

    #[test]
    fn requires_temporal_input() {
        let snap = Relation::new(Schema::of(&[("A", DataType::Int)]), vec![tuple![1i64]]).unwrap();
        assert!(rdup_t(&snap).is_err());
    }
}
