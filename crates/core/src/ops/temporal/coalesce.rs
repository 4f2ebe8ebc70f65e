//! Coalescing `coalᵀ(r)`.
//!
//! Merges value-equivalent tuples whose periods are *adjacent* (§2.4). The
//! definition deliberately differs from Böhlen et al.'s, which also merges
//! overlapping periods: by the minimality/orthogonality requirement of
//! §2.2, overlap handling belongs to `rdupᵀ`, and Böhlen-style coalescing is
//! obtained by the idiom `coalᵀ(rdupᵀ(r))`.
//!
//! Table 1: order `= Order(r) \ TimePairs`, cardinality `≤ n(r)`, *retains*
//! duplicates (coalescing has no effect on exact duplicates — their periods
//! are equal, not adjacent), and enforces coalescing.
//!
//! The merged tuple takes the position of the earlier participant, so the
//! argument's tuple order is retained. The definition is a fixpoint: each
//! tuple in turn absorbs its *first later* value-equivalent adjacent
//! partner until it has none. [`coalesce_literal`] runs exactly that;
//! [`coalesce`] computes the same list with [`coalesce_walk`], which the
//! batch engine's kernel shares.

use std::collections::HashMap;

use crate::error::{Error, Result};
use crate::relation::Relation;
use crate::time::{Instant, Period};
use crate::tuple::Tuple;
use crate::value::Value;

fn require_temporal(r: &Relation) -> Result<()> {
    if r.is_temporal() {
        Ok(())
    } else {
        Err(Error::NotTemporal {
            context: "coalescing",
        })
    }
}

/// Rows grouped by a dense key, each group an ascending linked chain,
/// read front to back past the rows a walk has consumed.
struct Chains {
    /// Per key, its first row not yet known to be consumed, or `NONE`.
    head: Vec<u32>,
    /// Per row, the next row of its key's chain, or `NONE`.
    next: Vec<u32>,
}

const NONE: u32 = u32::MAX;

impl Chains {
    /// Link the rows back to front, so every chain is ascending.
    fn new(key_of_row: &[u32], keys: usize) -> Chains {
        let mut head = vec![NONE; keys];
        let mut next = vec![NONE; key_of_row.len()];
        for (row, &k) in key_of_row.iter().enumerate().rev() {
            next[row] = head[k as usize];
            head[k as usize] = row as u32;
        }
        Chains { head, next }
    }

    /// The first row of `key`'s chain that is not `gone`. Gone rows never
    /// come back, so the ones skipped here are skipped for good.
    fn first_live(&mut self, key: u32, gone: &[bool]) -> Option<usize> {
        let head = &mut self.head[key as usize];
        while *head != NONE && gone[*head as usize] {
            *head = self.next[*head as usize];
        }
        (*head != NONE).then_some(*head as usize)
    }
}

/// The walk behind [`coalesce`], shared with the batch engine. Row `r`'s
/// period starts at the `(value class, instant)` pair numbered
/// `starts_at[r]` and ends at the one numbered `ends_at[r]`; both number
/// from one id space of `keys` pairs, so "ends where another row of its
/// class starts" is "same id".
///
/// Each row still present when the walk reaches it becomes a head, and
/// the fixpoint has it absorb its first later adjacent partner until none
/// is left: the earliest present row — every present row but the head lies
/// after it — that starts at the head's end or ends at its start. Merging
/// moves only the end later or only the start earlier, and a row starting
/// at some end ≥ the head's original end cannot also end at some start ≤
/// its original start, so the two sides absorb disjoint rows independently:
/// the walk extends the end, then the start, each time by the first
/// present row of the matching chain. `emit(head, first, last)` then
/// reports the head with its merged period `[start(first), end(last))`, in
/// list order. Every row is skipped at most once per chain, so the walk is
/// `O(n + keys)`.
pub fn coalesce_walk(
    starts_at: &[u32],
    ends_at: &[u32],
    keys: usize,
    mut emit: impl FnMut(usize, usize, usize),
) {
    let mut starting = Chains::new(starts_at, keys);
    let mut ending = Chains::new(ends_at, keys);
    let mut gone = vec![false; starts_at.len()];
    for head in 0..starts_at.len() {
        if gone[head] {
            continue;
        }
        gone[head] = true;
        let mut last = head;
        while let Some(after) = starting.first_live(ends_at[last], &gone) {
            gone[after] = true;
            last = after;
        }
        let mut first = head;
        while let Some(before) = ending.first_live(starts_at[first], &gone) {
            gone[before] = true;
            first = before;
        }
        emit(head, first, last);
    }
}

/// Apply `coalᵀ`: number each tuple's `(class, start)` and `(class, end)`
/// pairs, then [`coalesce_walk`] — `O(n)` after hashing, and the
/// fixpoint's own list.
pub fn coalesce(r: &Relation) -> Result<Relation> {
    require_temporal(r)?;
    let schema = r.schema();
    let tuples = r.tuples();
    let mut periods = Vec::with_capacity(tuples.len());
    let mut classes: HashMap<Vec<Value>, u32> = HashMap::new();
    let mut instants: HashMap<(u32, Instant), u32> = HashMap::new();
    let mut intern = |class: u32, at: Instant| {
        let next = instants.len() as u32;
        *instants.entry((class, at)).or_insert(next)
    };
    let (mut starts_at, mut ends_at) = (Vec::with_capacity(r.len()), Vec::with_capacity(r.len()));
    for t in tuples {
        let p = t.period(schema)?;
        let next = classes.len() as u32;
        let class = *classes.entry(t.explicit_values(schema)).or_insert(next);
        starts_at.push(intern(class, p.start));
        ends_at.push(intern(class, p.end));
        periods.push(p);
    }
    let mut out = Vec::new();
    coalesce_walk(&starts_at, &ends_at, instants.len(), |head, first, last| {
        let merged = Period {
            start: periods[first].start,
            end: periods[last].end,
        };
        out.push(if merged == periods[head] {
            tuples[head].clone()
        } else {
            tuples[head]
                .with_period(schema, merged)
                .expect("the schema is temporal: the tuple's period was just read")
        });
    });
    Ok(Relation::new_unchecked(schema.clone(), out))
}

/// `coalᵀ` by its definition, run literally: for every head, a linear
/// search for its first later adjacent partner and a `Vec::remove` per
/// merge — `O(n²)`. The definition [`coalesce`] is tested against.
pub fn coalesce_literal(r: &Relation) -> Result<Relation> {
    require_temporal(r)?;
    let schema = r.schema().clone();
    let mut tuples: Vec<Tuple> = r.tuples().to_vec();
    let mut keys: Vec<Vec<Value>> = tuples.iter().map(|t| t.explicit_values(&schema)).collect();

    let mut i = 0;
    while i < tuples.len() {
        let period_i = tuples[i].period(&schema)?;
        let partner = (i + 1..tuples.len()).find(|&j| {
            keys[j] == keys[i]
                && tuples[j]
                    .period(&schema)
                    .is_ok_and(|p| p.adjacent(&period_i))
        });
        match partner {
            None => i += 1,
            Some(j) => {
                let merged = period_i
                    .merge_adjacent(&tuples[j].period(&schema)?)
                    .expect("partner chosen adjacent");
                tuples[i] = tuples[i].with_period(&schema, merged)?;
                tuples.remove(j);
                keys.remove(j);
                // Stay at `i`: the widened period may now be adjacent to
                // further tuples.
            }
        }
    }
    Ok(Relation::new_unchecked(schema, tuples))
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

    #[test]
    fn merges_adjacent_periods() {
        // Figure 3's R3 coalesced: Anna [2,6) + [6,12) merge; John's
        // fragments [1,8) + [8,11) merge too.
        let r = Relation::new(
            schema(),
            vec![
                tuple!["John", 1i64, 8i64],
                tuple!["John", 8i64, 11i64],
                tuple!["Anna", 2i64, 6i64],
                tuple!["Anna", 6i64, 12i64],
            ],
        )
        .unwrap();
        let got = coalesce(&r).unwrap();
        assert_eq!(
            got.tuples(),
            &[tuple!["John", 1i64, 11i64], tuple!["Anna", 2i64, 12i64]]
        );
        assert!(got.is_coalesced().unwrap());
    }

    #[test]
    fn does_not_merge_overlapping_periods() {
        // Minimality: overlap is rdupᵀ's business.
        let r = Relation::new(
            schema(),
            vec![tuple!["a", 1i64, 6i64], tuple!["a", 4i64, 9i64]],
        )
        .unwrap();
        let got = coalesce(&r).unwrap();
        assert_eq!(got.tuples(), r.tuples());
    }

    #[test]
    fn retains_exact_duplicates() {
        let r = Relation::new(
            schema(),
            vec![tuple!["a", 1i64, 3i64], tuple!["a", 1i64, 3i64]],
        )
        .unwrap();
        let got = coalesce(&r).unwrap();
        assert_eq!(got.len(), 2);
    }

    #[test]
    fn chains_of_adjacency_collapse_fully() {
        let r = Relation::new(
            schema(),
            vec![
                tuple!["a", 5i64, 7i64],
                tuple!["a", 1i64, 3i64],
                tuple!["a", 3i64, 5i64],
            ],
        )
        .unwrap();
        let got = coalesce(&r).unwrap();
        assert_eq!(got.tuples(), &[tuple!["a", 1i64, 7i64]]);
    }

    #[test]
    fn retains_argument_order() {
        let r = Relation::new(
            schema(),
            vec![
                tuple!["b", 1i64, 2i64],
                tuple!["a", 1i64, 3i64],
                tuple!["a", 3i64, 5i64],
                tuple!["c", 9i64, 12i64],
            ],
        )
        .unwrap();
        let got = coalesce(&r).unwrap();
        assert_eq!(
            got.tuples(),
            &[
                tuple!["b", 1i64, 2i64],
                tuple!["a", 1i64, 5i64],
                tuple!["c", 9i64, 12i64],
            ]
        );
    }

    #[test]
    fn value_inequivalent_adjacency_is_not_merged() {
        let r = Relation::new(
            schema(),
            vec![tuple!["a", 1i64, 3i64], tuple!["b", 3i64, 5i64]],
        )
        .unwrap();
        let got = coalesce(&r).unwrap();
        assert_eq!(got.len(), 2);
    }

    #[test]
    fn idempotent() {
        let r = Relation::new(
            schema(),
            vec![tuple!["a", 1i64, 3i64], tuple!["a", 3i64, 5i64]],
        )
        .unwrap();
        let once = coalesce(&r).unwrap();
        let twice = coalesce(&once).unwrap();
        assert_eq!(once.tuples(), twice.tuples());
    }

    #[test]
    fn snapshot_set_equivalence_with_argument() {
        // Rule C2: coalᵀ(r) ≡ˢᴹ r — snapshots keep their multisets.
        let r = Relation::new(
            schema(),
            vec![tuple!["a", 1i64, 4i64], tuple!["a", 4i64, 8i64]],
        )
        .unwrap();
        let got = coalesce(&r).unwrap();
        for t in 0..10 {
            assert_eq!(
                got.snapshot(t).unwrap().counts(),
                r.snapshot(t).unwrap().counts()
            );
        }
    }

    #[test]
    fn requires_temporal_input() {
        let snap = Relation::new(Schema::of(&[("A", DataType::Int)]), vec![tuple![1i64]]).unwrap();
        assert!(coalesce(&snap).is_err());
    }
}
