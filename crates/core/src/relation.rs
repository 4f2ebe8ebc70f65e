//! Relations as *lists* of tuples (Definition 2.2).
//!
//! A relation schema instance is a finite sequence of tuples: duplicates are
//! allowed and the order of tuples is significant. This is the central
//! departure from multiset algebras (Garcia-Molina et al.) that enables the
//! paper's integrated treatment of sorting.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

use crate::columnar::{tuples_from_columns, ColumnarRelation};
use crate::error::Result;
use crate::schema::Schema;
use crate::time::{Instant, Period};
use crate::trace::counters;
use crate::tuple::Tuple;
use crate::value::Value;

/// A list-based relation instance.
///
/// Schema, tuple list and the list's columnar transpose sit behind one
/// `Arc`: cloning a relation — which the execution engines do for every
/// `Scan`, and the scheduler for every task — is one reference-count
/// bump. Relations are immutable after construction, so the sharing is
/// never observable, and a transpose built through any clone is the
/// transpose of every clone.
///
/// Either layout may be the one a relation is born with: a relation built
/// from tuples transposes on its first [`Relation::columnar`] call, and one
/// built from columns ([`Relation::from_columnar`]) builds its tuple list on
/// its first [`Relation::tuples`] call. Engine results, wire-decoded
/// relations and modified table versions are column-born, so a relation
/// that is only scanned, counted or re-encoded never has its tuples built.
///
/// A column-born relation's tuple list is built once, by one transpose:
/// its values go into one row-major block that every tuple of the list is
/// a row of, so building the list allocates the list and the block, not
/// one buffer per row, and dropping it frees the two. A tuple cloned out
/// of the list owns its values (the block stays the list's alone), so
/// operators pay for the tuples they copy as they would for tuples built
/// one at a time.
#[derive(Clone)]
pub struct Relation {
    body: Arc<Body>,
}

/// At least one of `tuples` and `columnar` is always set; a column-born
/// body's `columnar` is `Ok`.
struct Body {
    schema: Schema,
    /// Built at most once, by the first [`Relation::tuples`] call on any
    /// clone, unless the relation was born with it.
    tuples: OnceLock<Vec<Tuple>>,
    /// Built at most once, by the first [`Relation::columnar`] call on any
    /// clone, unless the relation was born with it.
    columnar: OnceLock<Result<Arc<ColumnarRelation>>>,
}

impl PartialEq for Relation {
    fn eq(&self, other: &Relation) -> bool {
        Arc::ptr_eq(&self.body, &other.body)
            || (self.body.schema == other.body.schema && self.tuples() == other.tuples())
    }
}

impl Eq for Relation {}

impl fmt::Debug for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Relation")
            .field("schema", &self.body.schema)
            .field("tuples", &self.tuples())
            .finish()
    }
}

/// Check one tuple against a schema: arity, domains and — for temporal
/// schemas — a well-formed, non-empty period. What [`Relation::new`]
/// requires of every tuple.
pub fn validate(schema: &Schema, t: &Tuple) -> Result<()> {
    t.conforms_to(schema)?;
    if schema.is_temporal() {
        let p = t.period(schema)?;
        if p.is_empty() {
            return Err(crate::error::Error::InvalidPeriod {
                start: p.start,
                end: p.end,
            });
        }
    }
    Ok(())
}

impl Body {
    /// The columns of a body born without tuples.
    fn resident(&self) -> &ColumnarRelation {
        match self.columnar.get() {
            Some(Ok(c)) => c,
            _ => unreachable!("a body without tuples is born with its columns"),
        }
    }
}

/// Build a column-born relation's tuple list (once per relation).
fn build_tuples(c: &ColumnarRelation) -> Vec<Tuple> {
    counters::TUPLES_BUILT.incr();
    tuples_from_columns(c.columns(), c.rows())
}

impl Relation {
    fn from_parts(schema: Schema, tuples: Vec<Tuple>) -> Relation {
        Relation {
            body: Arc::new(Body {
                schema,
                tuples: OnceLock::from(tuples),
                columnar: OnceLock::new(),
            }),
        }
    }

    /// Create a relation, validating every tuple against the schema.
    pub fn new(schema: Schema, tuples: Vec<Tuple>) -> Result<Relation> {
        for t in &tuples {
            validate(&schema, t)?;
        }
        Ok(Relation::from_parts(schema, tuples))
    }

    /// Create without validation — for operator implementations whose
    /// construction guarantees conformance and period well-formedness
    /// (debug builds still verify both). Callers outside this crate must
    /// uphold the schema invariants themselves; prefer [`Relation::new`].
    pub fn new_unchecked(schema: Schema, tuples: Vec<Tuple>) -> Relation {
        #[cfg(debug_assertions)]
        for t in &tuples {
            debug_assert!(validate(&schema, t).is_ok(), "invalid tuple {t}");
        }
        Relation::from_parts(schema, tuples)
    }

    /// A relation born in columns: the columnar relation is resident as
    /// its transpose, and the tuple list is built from it only if someone
    /// asks for it ([`Relation::tuples`]).
    pub fn from_columnar(columnar: ColumnarRelation) -> Relation {
        Relation {
            body: Arc::new(Body {
                schema: (**columnar.schema()).clone(),
                tuples: OnceLock::new(),
                columnar: OnceLock::from(Ok(Arc::new(columnar))),
            }),
        }
    }

    /// The empty relation of a schema.
    pub fn empty(schema: Schema) -> Relation {
        Relation::from_parts(schema, Vec::new())
    }

    /// The relation's schema.
    pub fn schema(&self) -> &Schema {
        &self.body.schema
    }

    /// The tuple list, in relation order. A column-born relation builds it
    /// on the first call (on any clone) and keeps it from then on.
    pub fn tuples(&self) -> &[Tuple] {
        self.body
            .tuples
            .get_or_init(|| build_tuples(self.body.resident()))
    }

    /// True when the two relations share the same tuple storage (the
    /// zero-copy guarantee behind cheap `Scan` clones) — and with it the
    /// same transpose.
    pub fn shares_tuples(&self, other: &Relation) -> bool {
        Arc::ptr_eq(&self.body, &other.body)
    }

    /// The columnar transpose of this relation, built on first use and
    /// resident in the tuple storage from then on: every clone, in every
    /// environment and on every thread, is served the same one.
    pub fn columnar(&self) -> Result<Arc<ColumnarRelation>> {
        self.body
            .columnar
            .get_or_init(|| {
                counters::TRANSPOSES_BUILT.incr();
                ColumnarRelation::from_relation(self).map(Arc::new)
            })
            .clone()
    }

    /// Cardinality `n(r)`.
    pub fn len(&self) -> usize {
        match self.body.tuples.get() {
            Some(tuples) => tuples.len(),
            None => self.body.resident().rows(),
        }
    }

    /// Approximate materialized footprint of the tuple list in bytes, for
    /// memory-budget accounting at operator materialization points: per
    /// tuple its header and one [`Value`] per attribute, plus the bytes of
    /// every non-null string. Read off the columns when they are resident
    /// (the same number, without building or walking tuples); walks every
    /// tuple otherwise, so call it once per materialization, not per row.
    pub fn approx_bytes(&self) -> usize {
        match self.body.columnar.get() {
            Some(Ok(c)) => {
                Relation::row_layout_bytes(c.rows(), c.columns().len())
                    + c.columns().iter().map(|col| col.str_bytes()).sum::<usize>()
            }
            _ => self.tuples().iter().map(Tuple::approx_bytes).sum(),
        }
    }

    /// The share of [`Relation::approx_bytes`] that does not depend on the
    /// values: `rows` tuple headers of `arity` values each (string bytes
    /// are the rest). Saturates rather than overflowing on absurd claims.
    pub fn row_layout_bytes(rows: usize, arity: usize) -> usize {
        let per_row = std::mem::size_of::<Tuple>() + arity * std::mem::size_of::<Value>();
        rows.saturating_mul(per_row)
    }

    /// True when the relation holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when the schema carries `T1`/`T2`.
    pub fn is_temporal(&self) -> bool {
        self.schema().is_temporal()
    }

    /// Multiset view: tuple → occurrence count.
    pub fn counts(&self) -> HashMap<&Tuple, usize> {
        let mut m: HashMap<&Tuple, usize> = HashMap::with_capacity(self.tuples().len());
        for t in self.tuples().iter() {
            *m.entry(t).or_insert(0) += 1;
        }
        m
    }

    /// True when the relation contains no (regular) duplicate tuples.
    pub fn has_duplicates(&self) -> bool {
        let mut seen = std::collections::HashSet::with_capacity(self.tuples().len());
        self.tuples().iter().any(|t| !seen.insert(t))
    }

    /// The snapshot `τ_t(r)` of a temporal relation at instant `t`: the
    /// conventional relation holding the explicit values of every tuple whose
    /// period contains `t`, in list order (§2.1).
    pub fn snapshot(&self, t: Instant) -> Result<Relation> {
        if !self.is_temporal() {
            return Err(crate::error::Error::NotTemporal {
                context: "snapshot",
            });
        }
        let snap_schema = self.schema().snapshot_schema();
        let value_idx = self.schema().value_indices();
        let mut tuples = Vec::new();
        for tup in self.tuples().iter() {
            if tup.period(self.schema())?.contains(t) {
                tuples.push(tup.project(&value_idx));
            }
        }
        Ok(Relation::from_parts(snap_schema, tuples))
    }

    /// All period endpoints occurring in the relation, sorted and deduped.
    /// Snapshot behaviour is constant between consecutive endpoints, so these
    /// (or the midpoint sample from [`Relation::probe_instants`]) suffice to
    /// decide snapshot equivalence.
    pub fn endpoints(&self) -> Result<Vec<Instant>> {
        if !self.is_temporal() {
            return Err(crate::error::Error::NotTemporal {
                context: "endpoints",
            });
        }
        let mut pts = Vec::with_capacity(self.tuples().len() * 2);
        for t in self.tuples().iter() {
            let p = t.period(self.schema())?;
            pts.push(p.start);
            pts.push(p.end);
        }
        pts.sort_unstable();
        pts.dedup();
        Ok(pts)
    }

    /// Representative instants: one per maximal interval on which all
    /// snapshots of `self` (and of any relation sharing these endpoints) are
    /// constant — the interval start points — plus one instant before and
    /// after everything.
    pub fn probe_instants(&self) -> Result<Vec<Instant>> {
        let pts = self.endpoints()?;
        let mut probes = Vec::with_capacity(pts.len() + 2);
        if let Some(first) = pts.first() {
            probes.push(first - 1);
        }
        probes.extend(pts.iter().copied());
        if let Some(last) = pts.last() {
            probes.push(*last + 1);
        }
        Ok(probes)
    }

    /// True when some snapshot of the relation contains duplicates — the
    /// precondition guarding rules D2, C8–C10 and the left argument of `\ᵀ`.
    pub fn has_snapshot_duplicates(&self) -> Result<bool> {
        if !self.is_temporal() {
            return Err(crate::error::Error::NotTemporal {
                context: "has_snapshot_duplicates",
            });
        }
        // Group by explicit values, then sweep periods per group: a snapshot
        // duplicate exists iff two periods of the same class overlap.
        let mut classes: HashMap<Vec<Value>, Vec<Period>> = HashMap::new();
        for t in self.tuples().iter() {
            classes
                .entry(t.explicit_values(self.schema()))
                .or_default()
                .push(t.period(self.schema())?);
        }
        for periods in classes.values_mut() {
            periods.sort();
            for w in periods.windows(2) {
                if w[0].overlaps(&w[1]) {
                    return Ok(true);
                }
            }
        }
        Ok(false)
    }

    /// True when the relation is coalesced: no two value-equivalent tuples
    /// have adjacent periods (the fixpoint condition of the paper's minimal
    /// `coalᵀ`), and — because coalescing is only defined on relations
    /// without snapshot duplicates in the strong sense — we check adjacency
    /// only, leaving overlap to `has_snapshot_duplicates`.
    pub fn is_coalesced(&self) -> Result<bool> {
        if !self.is_temporal() {
            return Err(crate::error::Error::NotTemporal {
                context: "is_coalesced",
            });
        }
        let mut classes: HashMap<Vec<Value>, Vec<Period>> = HashMap::new();
        for t in self.tuples().iter() {
            classes
                .entry(t.explicit_values(self.schema()))
                .or_default()
                .push(t.period(self.schema())?);
        }
        for periods in classes.values() {
            for (i, a) in periods.iter().enumerate() {
                for b in &periods[i + 1..] {
                    if a.adjacent(b) {
                        return Ok(false);
                    }
                }
            }
        }
        Ok(true)
    }

    /// Group tuple indices by explicit values, preserving first-occurrence
    /// order of the classes (useful for order-retaining temporal operations).
    pub fn value_classes(&self) -> Result<Vec<(Vec<Value>, Vec<usize>)>> {
        let mut order: Vec<Vec<Value>> = Vec::new();
        let mut map: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
        for (i, t) in self.tuples().iter().enumerate() {
            let key = t.explicit_values(self.schema());
            let entry = map.entry(key.clone()).or_insert_with(|| {
                order.push(key);
                Vec::new()
            });
            entry.push(i);
        }
        Ok(order
            .into_iter()
            .map(|k| {
                let idxs = map.remove(&k).expect("class recorded");
                (k, idxs)
            })
            .collect())
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "[{}]", self.schema())?;
        for t in self.tuples().iter() {
            writeln!(f, "  {t}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;
    use crate::value::DataType;

    /// The EMPLOYEE relation of Figure 1.
    pub(crate) fn employee() -> Relation {
        let schema = Schema::temporal(&[("EmpName", DataType::Str), ("Dept", DataType::Str)]);
        Relation::new(
            schema,
            vec![
                tuple!["John", "Sales", 1i64, 8i64],
                tuple!["John", "Advertising", 6i64, 11i64],
                tuple!["Anna", "Sales", 2i64, 6i64],
                tuple!["Anna", "Advertising", 2i64, 6i64],
                tuple!["Anna", "Sales", 6i64, 12i64],
            ],
        )
        .unwrap()
    }

    #[test]
    fn snapshot_at_instant() {
        let emp = employee();
        let snap = emp.snapshot(6).unwrap();
        // At time 6: John/Advertising [6,11), Anna/Sales [6,12) — John/Sales
        // [1,8) also contains 6, Anna's [2,6) tuples do not.
        assert_eq!(snap.len(), 3);
        assert!(!snap.schema().is_temporal());
        assert_eq!(snap.tuples()[0], tuple!["John", "Sales"]);
        assert_eq!(snap.tuples()[1], tuple!["John", "Advertising"]);
        assert_eq!(snap.tuples()[2], tuple!["Anna", "Sales"]);
    }

    #[test]
    fn snapshot_duplicates_detected() {
        let schema = Schema::temporal(&[("E", DataType::Str)]);
        // John [1,8) and John [6,11) overlap → snapshot duplicates at 6,7.
        let r = Relation::new(
            schema.clone(),
            vec![tuple!["John", 1i64, 8i64], tuple!["John", 6i64, 11i64]],
        )
        .unwrap();
        assert!(r.has_snapshot_duplicates().unwrap());
        let clean = Relation::new(
            schema,
            vec![tuple!["John", 1i64, 8i64], tuple!["John", 8i64, 11i64]],
        )
        .unwrap();
        assert!(!clean.has_snapshot_duplicates().unwrap());
    }

    #[test]
    fn coalescedness() {
        let schema = Schema::temporal(&[("E", DataType::Str)]);
        let uncoalesced = Relation::new(
            schema.clone(),
            vec![tuple!["Anna", 2i64, 6i64], tuple!["Anna", 6i64, 12i64]],
        )
        .unwrap();
        assert!(!uncoalesced.is_coalesced().unwrap());
        let coalesced = Relation::new(
            schema.clone(),
            vec![tuple!["Anna", 2i64, 12i64], tuple!["Bob", 2i64, 6i64]],
        )
        .unwrap();
        assert!(coalesced.is_coalesced().unwrap());
        // Overlap without adjacency is not an adjacency violation.
        let overlapping = Relation::new(
            schema,
            vec![tuple!["Anna", 2i64, 8i64], tuple!["Anna", 6i64, 12i64]],
        )
        .unwrap();
        assert!(overlapping.is_coalesced().unwrap());
    }

    #[test]
    fn duplicates_and_counts() {
        let schema = Schema::of(&[("A", DataType::Int)]);
        let r = Relation::new(schema, vec![tuple![1i64], tuple![2i64], tuple![1i64]]).unwrap();
        assert!(r.has_duplicates());
        let counts = r.counts();
        assert_eq!(counts[&tuple![1i64]], 2);
        assert_eq!(counts[&tuple![2i64]], 1);
    }

    #[test]
    fn empty_periods_rejected() {
        let schema = Schema::temporal(&[("E", DataType::Str)]);
        assert!(Relation::new(schema, vec![tuple!["x", 5i64, 5i64]]).is_err());
    }

    #[test]
    fn endpoints_sorted_deduped() {
        let emp = employee();
        assert_eq!(emp.endpoints().unwrap(), vec![1, 2, 6, 8, 11, 12]);
    }

    #[test]
    fn value_classes_preserve_first_occurrence_order() {
        let emp = employee();
        let classes = emp.value_classes().unwrap();
        assert_eq!(classes.len(), 4); // John/Sales, John/Adv, Anna/Sales, Anna/Adv
        assert_eq!(classes[0].0[0], Value::Str("John".into()));
        assert_eq!(classes[2].1, vec![2, 4]); // Anna/Sales occurs at rows 2 and 4
    }
}
