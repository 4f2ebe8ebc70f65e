//! The six relation equivalence types (§3) and their implication lattice
//! (Theorem 3.1).
//!
//! ```text
//!   r1 ≡ᴸ r2  ⇒  r1 ≡ᴹ r2  ⇒  r1 ≡ˢ r2
//!      ⇓            ⇓            ⇓        (downward arrows require
//!   r1 ≡ˢᴸ r2 ⇒  r1 ≡ˢᴹ r2 ⇒  r1 ≡ˢˢ r2    temporal relations)
//! ```
//!
//! Transformation rules are tagged with the strongest type they preserve;
//! the optimizer then exploits the lattice: a rule of a stronger type can
//! always stand in for one of a weaker type.

use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::fmt;

use crate::error::Result;
use crate::relation::Relation;
use crate::sortspec::Order;
use crate::tuple::Tuple;

/// The six equivalence types, ordered by strength.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EquivalenceType {
    /// `≡ᴸ`: identical lists.
    List,
    /// `≡ᴹ`: identical multisets (duplicates matter, order does not).
    Multiset,
    /// `≡ˢ`: identical sets.
    Set,
    /// `≡ˢᴸ`: snapshots at every instant are identical lists.
    SnapshotList,
    /// `≡ˢᴹ`: snapshots at every instant are identical multisets.
    SnapshotMultiset,
    /// `≡ˢˢ`: snapshots at every instant are identical sets.
    SnapshotSet,
}

impl EquivalenceType {
    /// All six types, strongest first.
    pub const ALL: [EquivalenceType; 6] = [
        EquivalenceType::List,
        EquivalenceType::Multiset,
        EquivalenceType::Set,
        EquivalenceType::SnapshotList,
        EquivalenceType::SnapshotMultiset,
        EquivalenceType::SnapshotSet,
    ];

    /// Direct implications of Theorem 3.1 (one step of the lattice).
    fn direct_implications(self) -> &'static [EquivalenceType] {
        use EquivalenceType::*;
        match self {
            List => &[Multiset, SnapshotList],
            Multiset => &[Set, SnapshotMultiset],
            Set => &[SnapshotSet],
            SnapshotList => &[SnapshotMultiset],
            SnapshotMultiset => &[SnapshotSet],
            SnapshotSet => &[],
        }
    }

    /// Transitive closure of Theorem 3.1: does `self ≡` imply `other ≡`?
    /// (Downward implications hold only for temporal relations; callers
    /// comparing snapshot relations must not ask for snapshot types.)
    pub fn implies(self, other: EquivalenceType) -> bool {
        if self == other {
            return true;
        }
        let mut stack = vec![self];
        let mut seen = HashSet::new();
        while let Some(t) = stack.pop() {
            for &next in t.direct_implications() {
                if next == other {
                    return true;
                }
                if seen.insert(next) {
                    stack.push(next);
                }
            }
        }
        false
    }

    /// True for the three snapshot types.
    pub fn is_snapshot(self) -> bool {
        matches!(
            self,
            EquivalenceType::SnapshotList
                | EquivalenceType::SnapshotMultiset
                | EquivalenceType::SnapshotSet
        )
    }

    /// Verify that the equivalence of this type actually holds between two
    /// relations (used by the rule-soundness test suite).
    pub fn holds(self, r1: &Relation, r2: &Relation) -> Result<bool> {
        match self {
            EquivalenceType::List => equiv_list(r1, r2),
            EquivalenceType::Multiset => equiv_multiset(r1, r2),
            EquivalenceType::Set => equiv_set(r1, r2),
            EquivalenceType::SnapshotList => equiv_snapshot_list(r1, r2),
            EquivalenceType::SnapshotMultiset => equiv_snapshot_multiset(r1, r2),
            EquivalenceType::SnapshotSet => equiv_snapshot_set(r1, r2),
        }
    }
}

impl fmt::Display for EquivalenceType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            EquivalenceType::List => "≡L",
            EquivalenceType::Multiset => "≡M",
            EquivalenceType::Set => "≡S",
            EquivalenceType::SnapshotList => "≡SL",
            EquivalenceType::SnapshotMultiset => "≡SM",
            EquivalenceType::SnapshotSet => "≡SS",
        })
    }
}

fn schemas_comparable(r1: &Relation, r2: &Relation) -> bool {
    r1.schema().union_compatible(r2.schema())
}

/// `r1 ≡ᴸ r2`: identical lists (schema and tuple sequence).
pub fn equiv_list(r1: &Relation, r2: &Relation) -> Result<bool> {
    Ok(schemas_comparable(r1, r2) && r1.tuples() == r2.tuples())
}

/// `r1 ≡ᴹ r2`: identical multisets.
pub fn equiv_multiset(r1: &Relation, r2: &Relation) -> Result<bool> {
    Ok(schemas_comparable(r1, r2) && r1.len() == r2.len() && r1.counts() == r2.counts())
}

/// `r1 ≡ˢ r2`: identical sets.
pub fn equiv_set(r1: &Relation, r2: &Relation) -> Result<bool> {
    if !schemas_comparable(r1, r2) {
        return Ok(false);
    }
    let s1: HashSet<&Tuple> = r1.tuples().iter().collect();
    let s2: HashSet<&Tuple> = r2.tuples().iter().collect();
    Ok(s1 == s2)
}

/// All probe instants relevant to a pair of temporal relations: period
/// endpoints of both, plus sentinels outside the covered range. Snapshots
/// are constant between consecutive endpoints, so checking equivalence at
/// these instants decides it everywhere.
fn joint_probes(r1: &Relation, r2: &Relation) -> Result<Vec<i64>> {
    let mut pts = r1.endpoints()?;
    pts.extend(r2.endpoints()?);
    pts.sort_unstable();
    pts.dedup();
    let mut probes = Vec::with_capacity(pts.len() + 1);
    if let Some(first) = pts.first() {
        probes.push(first - 1);
    }
    probes.extend(pts);
    Ok(probes)
}

/// `r1 ≡ˢᴸ r2`: list-equal snapshots at every instant.
pub fn equiv_snapshot_list(r1: &Relation, r2: &Relation) -> Result<bool> {
    if !schemas_comparable(r1, r2) || !r1.is_temporal() || !r2.is_temporal() {
        return Ok(false);
    }
    for t in joint_probes(r1, r2)? {
        if r1.snapshot(t)?.tuples() != r2.snapshot(t)?.tuples() {
            return Ok(false);
        }
    }
    Ok(true)
}

/// `r1 ≡ˢᴹ r2`: multiset-equal snapshots at every instant.
pub fn equiv_snapshot_multiset(r1: &Relation, r2: &Relation) -> Result<bool> {
    if !schemas_comparable(r1, r2) || !r1.is_temporal() || !r2.is_temporal() {
        return Ok(false);
    }
    for t in joint_probes(r1, r2)? {
        let s1 = r1.snapshot(t)?;
        let s2 = r2.snapshot(t)?;
        if s1.len() != s2.len() || s1.counts() != s2.counts() {
            return Ok(false);
        }
    }
    Ok(true)
}

/// `r1 ≡ˢˢ r2`: set-equal snapshots at every instant.
pub fn equiv_snapshot_set(r1: &Relation, r2: &Relation) -> Result<bool> {
    if !schemas_comparable(r1, r2) || !r1.is_temporal() || !r2.is_temporal() {
        return Ok(false);
    }
    for t in joint_probes(r1, r2)? {
        let s1 = r1.snapshot(t)?;
        let s2 = r2.snapshot(t)?;
        let a: HashSet<&Tuple> = s1.tuples().iter().collect();
        let b: HashSet<&Tuple> = s2.tuples().iter().collect();
        if a != b {
            return Ok(false);
        }
    }
    Ok(true)
}

/// `r1 ≡ᴸ,ᴬ r2` (Definition 5.1): the projections of both relations onto the
/// ORDER BY list `A` are list-equivalent. Used to admit plans whose results
/// differ only in attributes/positions the user did not order by.
pub fn equiv_list_on(r1: &Relation, r2: &Relation, order: &Order) -> Result<bool> {
    if !schemas_comparable(r1, r2) || r1.len() != r2.len() {
        return Ok(false);
    }
    // ≡L,A additionally requires the same *multiset* of tuples (a query
    // result is at least a well-defined multiset); the order list then pins
    // down the visible ordering.
    if r1.counts() != r2.counts() {
        return Ok(false);
    }
    let idx: Vec<usize> = order
        .keys()
        .iter()
        .map(|k| r1.schema().resolve(&k.attr))
        .collect::<Result<_>>()?;
    for (a, b) in r1.tuples().iter().zip(r2.tuples()) {
        for &i in &idx {
            if a.value(i) != b.value(i) {
                return Ok(false);
            }
        }
    }
    Ok(true)
}

/// The result type a user-level query specifies (Definition 5.1): the
/// presence of ORDER BY / DISTINCT at the outermost level decides which
/// equivalence the optimizer must preserve end-to-end.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ResultType {
    /// ORDER BY `A` present: plans must agree under `≡ᴸ,ᴬ`.
    List(Order),
    /// Neither ORDER BY nor DISTINCT: plans must agree under `≡ᴹ`.
    Multiset,
    /// DISTINCT without ORDER BY: plans must agree under `≡ˢ`.
    Set,
}

impl ResultType {
    /// Check the `≡SQL` relation of Definition 5.1 between two results.
    pub fn admits(&self, r1: &Relation, r2: &Relation) -> Result<bool> {
        match self {
            ResultType::List(order) => equiv_list_on(r1, r2, order),
            ResultType::Multiset => equiv_multiset(r1, r2),
            ResultType::Set => equiv_set(r1, r2),
        }
    }
}

impl fmt::Display for ResultType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResultType::List(order) => write!(f, "list{order}"),
            ResultType::Multiset => f.write_str("multiset"),
            ResultType::Set => f.write_str("set"),
        }
    }
}

/// The strongest equivalence type holding between two relations, if any —
/// a diagnostic helper for tests and examples.
pub fn strongest_equivalence(r1: &Relation, r2: &Relation) -> Result<Option<EquivalenceType>> {
    let order = [
        EquivalenceType::List,
        EquivalenceType::SnapshotList,
        EquivalenceType::Multiset,
        EquivalenceType::SnapshotMultiset,
        EquivalenceType::Set,
        EquivalenceType::SnapshotSet,
    ];
    // Report the first type (in implication order) that holds and whose
    // implied types all hold too (they must, by Theorem 3.1).
    for t in order {
        if t.is_snapshot() && (!r1.is_temporal() || !r2.is_temporal()) {
            continue;
        }
        if t.holds(r1, r2)? {
            return Ok(Some(t));
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::tuple;
    use crate::value::DataType;

    fn schema() -> Schema {
        Schema::temporal(&[("EmpName", DataType::Str)])
    }

    /// Figure 3's R1, R2 (as temporal for comparability), R3.
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

    fn r3() -> Relation {
        Relation::new(
            schema(),
            vec![
                tuple!["John", 1i64, 8i64],
                tuple!["John", 8i64, 11i64],
                tuple!["Anna", 2i64, 6i64],
                tuple!["Anna", 6i64, 12i64],
            ],
        )
        .unwrap()
    }

    #[test]
    fn section3_example_r1_vs_r3() {
        // "The only equivalence that holds between the two relations is ≡SS."
        let (a, b) = (r1(), r3());
        assert!(!equiv_list(&a, &b).unwrap());
        assert!(!equiv_multiset(&a, &b).unwrap());
        assert!(!equiv_set(&a, &b).unwrap());
        assert!(!equiv_snapshot_list(&a, &b).unwrap());
        assert!(!equiv_snapshot_multiset(&a, &b).unwrap());
        assert!(equiv_snapshot_set(&a, &b).unwrap());
        assert_eq!(
            strongest_equivalence(&a, &b).unwrap(),
            Some(EquivalenceType::SnapshotSet)
        );
    }

    #[test]
    fn section3_example_r1_vs_rdup_r1_as_sets() {
        // R1 vs R2 (dedup'ed): not list/multiset equivalent, but set
        // equivalent. We re-add the period attributes so schemas compare.
        let a = r1();
        let b = Relation::new(
            schema(),
            vec![
                tuple!["John", 1i64, 8i64],
                tuple!["John", 6i64, 11i64],
                tuple!["Anna", 2i64, 6i64],
                tuple!["Anna", 6i64, 12i64],
            ],
        )
        .unwrap();
        assert!(!equiv_list(&a, &b).unwrap());
        assert!(!equiv_multiset(&a, &b).unwrap());
        assert!(equiv_set(&a, &b).unwrap());
    }

    #[test]
    fn sorting_preserves_multiset_not_list() {
        // R1 ≡M sort_{T1 ASC}(R1) — §3's example.
        let a = r1();
        let sorted = crate::ops::sort(&a, &Order::asc(&["T1"])).unwrap();
        assert!(!equiv_list(&a, &sorted).unwrap());
        assert!(equiv_multiset(&a, &sorted).unwrap());
        // And by Theorem 3.1 everything implied holds too.
        assert!(equiv_set(&a, &sorted).unwrap());
        assert!(equiv_snapshot_multiset(&a, &sorted).unwrap());
        assert!(equiv_snapshot_set(&a, &sorted).unwrap());
    }

    #[test]
    fn lattice_implications() {
        use EquivalenceType::*;
        assert!(List.implies(Multiset));
        assert!(List.implies(Set));
        assert!(List.implies(SnapshotList));
        assert!(List.implies(SnapshotSet));
        assert!(Multiset.implies(SnapshotMultiset));
        assert!(SnapshotList.implies(SnapshotMultiset));
        assert!(SnapshotMultiset.implies(SnapshotSet));
        assert!(!Multiset.implies(List));
        assert!(!Set.implies(Multiset));
        assert!(!SnapshotSet.implies(Set));
        assert!(!SnapshotList.implies(List));
        assert!(!Set.implies(SnapshotMultiset));
    }

    #[test]
    fn equiv_list_on_projected_order() {
        let s = Schema::of(&[("A", DataType::Int), ("B", DataType::Str)]);
        let a = Relation::new(s.clone(), vec![tuple![1i64, "x"], tuple![2i64, "y"]]).unwrap();
        let b = Relation::new(s, vec![tuple![1i64, "x"], tuple![2i64, "y"]]).unwrap();
        assert!(equiv_list_on(&a, &b, &Order::asc(&["A"])).unwrap());
        // Swap the B values between rows with equal A — still ≡L,A? The
        // multiset check fails, so no.
        let s2 = Schema::of(&[("A", DataType::Int), ("B", DataType::Str)]);
        let c = Relation::new(s2, vec![tuple![1i64, "q"], tuple![2i64, "y"]]).unwrap();
        assert!(!equiv_list_on(&a, &c, &Order::asc(&["A"])).unwrap());
    }

    #[test]
    fn equiv_list_on_allows_reorder_within_equal_keys() {
        let s = Schema::of(&[("A", DataType::Int), ("B", DataType::Str)]);
        let a = Relation::new(
            s.clone(),
            vec![tuple![1i64, "x"], tuple![1i64, "y"], tuple![2i64, "z"]],
        )
        .unwrap();
        let b = Relation::new(
            s,
            vec![tuple![1i64, "y"], tuple![1i64, "x"], tuple![2i64, "z"]],
        )
        .unwrap();
        assert!(!equiv_list(&a, &b).unwrap());
        assert!(equiv_list_on(&a, &b, &Order::asc(&["A"])).unwrap());
        assert!(!equiv_list_on(&a, &b, &Order::asc(&["A", "B"])).unwrap());
    }

    #[test]
    fn result_type_admits() {
        let s = Schema::of(&[("A", DataType::Int)]);
        let a = Relation::new(s.clone(), vec![tuple![1i64], tuple![2i64]]).unwrap();
        let b = Relation::new(s.clone(), vec![tuple![2i64], tuple![1i64]]).unwrap();
        let c = Relation::new(s, vec![tuple![1i64], tuple![2i64], tuple![2i64]]).unwrap();
        assert!(ResultType::Multiset.admits(&a, &b).unwrap());
        assert!(!ResultType::Multiset.admits(&a, &c).unwrap());
        assert!(ResultType::Set.admits(&a, &c).unwrap());
        assert!(!ResultType::List(Order::asc(&["A"])).admits(&a, &b).unwrap());
        assert!(ResultType::List(Order::asc(&["A"])).admits(&a, &a).unwrap());
    }

    #[test]
    fn snapshot_types_undefined_for_snapshot_relations() {
        let s = Schema::of(&[("A", DataType::Int)]);
        let a = Relation::new(s.clone(), vec![tuple![1i64]]).unwrap();
        let b = Relation::new(s, vec![tuple![1i64]]).unwrap();
        assert!(!equiv_snapshot_set(&a, &b).unwrap());
        assert_eq!(
            strongest_equivalence(&a, &b).unwrap(),
            Some(EquivalenceType::List)
        );
    }
}
