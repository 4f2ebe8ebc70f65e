//! The defining invariant of the temporal operations (§2.2): for every
//! instant `t`, `snapshot(opᵀ(r), t) = op(snapshot(r, t))` as multisets.
//! Property-tested over random temporal relations for every temporal
//! operation of Table 1, plus the snapshot-behaviour of coalescing.

mod common;

use common::{arb_temporal, probes};
use proptest::prelude::*;

use tqo_core::expr::{AggFunc, AggItem};
use tqo_core::ops;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn rdup_t_is_snapshot_reducible_to_rdup(r in arb_temporal(4, 14)) {
        let result = ops::rdup_t(&r).unwrap();
        for t in probes(&[&r]) {
            let lhs = result.snapshot(t).unwrap();
            let rhs = ops::rdup(&r.snapshot(t).unwrap()).unwrap();
            prop_assert_eq!(lhs.counts(), rhs.counts(), "at instant {}", t);
        }
    }

    #[test]
    fn difference_t_is_snapshot_reducible_to_difference(
        r1 in arb_temporal(4, 12),
        r2 in arb_temporal(4, 12),
    ) {
        let result = ops::difference_t(&r1, &r2).unwrap();
        for t in probes(&[&r1, &r2]) {
            let lhs = result.snapshot(t).unwrap();
            let rhs = ops::difference(&r1.snapshot(t).unwrap(), &r2.snapshot(t).unwrap())
                .unwrap();
            prop_assert_eq!(lhs.counts(), rhs.counts(), "at instant {}", t);
        }
    }

    #[test]
    fn union_t_is_snapshot_reducible_to_union(
        r1 in arb_temporal(4, 12),
        r2 in arb_temporal(4, 12),
    ) {
        let result = ops::union_t(&r1, &r2).unwrap();
        for t in probes(&[&r1, &r2]) {
            let lhs = result.snapshot(t).unwrap();
            let rhs = ops::union_max(&r1.snapshot(t).unwrap(), &r2.snapshot(t).unwrap())
                .unwrap();
            prop_assert_eq!(lhs.counts(), rhs.counts(), "at instant {}", t);
        }
    }

    #[test]
    fn aggregate_t_is_snapshot_reducible_to_aggregate(r in arb_temporal(4, 12)) {
        let aggs = [
            AggItem::count_star("n"),
            AggItem::new(AggFunc::Min, Some("T1"), "lo"),
        ];
        // Group by the explicit attribute; aggregate over the class sizes.
        let result = ops::aggregate_t(&r, &["E".into()], &[aggs[0].clone()]).unwrap();
        for t in probes(&[&r]) {
            let lhs = result.snapshot(t).unwrap();
            let rhs = ops::aggregate(
                &r.snapshot(t).unwrap(),
                &["E".into()],
                &[aggs[0].clone()],
            )
            .unwrap();
            prop_assert_eq!(lhs.counts(), rhs.counts(), "at instant {}", t);
        }
    }

    #[test]
    fn product_t_is_snapshot_reducible_on_explicit_attrs(
        r1 in arb_temporal(3, 8),
        r2 in arb_temporal(3, 8),
    ) {
        let result = ops::product_t(&r1, &r2).unwrap();
        for t in probes(&[&r1, &r2]) {
            // Compare the explicit pair multiset: (1.E, 2.E).
            let snap = result.snapshot(t).unwrap();
            let i1 = snap.schema().resolve("1.E").unwrap();
            let i2 = snap.schema().resolve("2.E").unwrap();
            let mut lhs: Vec<(String, String)> = snap
                .tuples()
                .iter()
                .map(|tp| {
                    (tp.value(i1).to_string(), tp.value(i2).to_string())
                })
                .collect();
            lhs.sort();
            let s1 = r1.snapshot(t).unwrap();
            let s2 = r2.snapshot(t).unwrap();
            let mut rhs = Vec::new();
            for a in s1.tuples() {
                for b in s2.tuples() {
                    rhs.push((a.value(0).to_string(), b.value(0).to_string()));
                }
            }
            rhs.sort();
            prop_assert_eq!(lhs, rhs, "at instant {}", t);
        }
    }

    #[test]
    fn coalesce_preserves_snapshots_exactly(r in arb_temporal(4, 14)) {
        // Rule C2's semantic content: coalᵀ(r) ≡SM r.
        let result = ops::coalesce(&r).unwrap();
        for t in probes(&[&r]) {
            let lhs = result.snapshot(t).unwrap();
            let rhs = r.snapshot(t).unwrap();
            prop_assert_eq!(lhs.counts(), rhs.counts(), "at instant {}", t);
        }
    }

    #[test]
    fn rdup_t_output_is_snapshot_duplicate_free(r in arb_temporal(4, 14)) {
        let result = ops::rdup_t(&r).unwrap();
        prop_assert!(!result.has_snapshot_duplicates().unwrap());
    }

    #[test]
    fn coalesce_output_is_coalesced(r in arb_temporal(4, 14)) {
        let result = ops::coalesce(&r).unwrap();
        prop_assert!(result.is_coalesced().unwrap());
    }
}
