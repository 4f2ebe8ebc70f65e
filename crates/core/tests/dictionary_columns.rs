//! Dictionary-coded string columns hold byte-string semantics.
//!
//! A string column is one code per row into a shared dictionary. Equality
//! within one dictionary compares codes, across two it compares cached
//! hashes and then bytes; order uses codes only when the dictionary is
//! sorted. Whatever the pairing, every `Column` operation must agree with
//! the same operation on the `Value`s the columns hold: within one
//! dictionary and across two, over sorted dictionaries and ones appended
//! out of order, with NULLs, `""`, multi-byte UTF-8, values longer than
//! eight bytes and values containing `\0`.

use std::cmp::Ordering;

use proptest::prelude::*;

use tqo_core::columnar::{hash_combine, Column, ColumnData};
use tqo_core::value::{DataType, Value};

const WORDS: [&str; 13] = [
    "",
    "a",
    "ab",
    "é",
    "日本",
    "Sales",
    "exactly8",
    "exactly8!",
    "a somewhat longer key",
    "a\u{0}b",
    "a\u{0}",
    "\u{0}",
    "日本語のテキスト",
];

/// Word picks; `WORDS.len()` stands for NULL.
fn picks() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(0usize..=WORDS.len(), 0..40)
}

fn values(picks: &[usize]) -> Vec<Value> {
    picks
        .iter()
        .map(|&p| WORDS.get(p).map_or(Value::Null, |&w| Value::from(w)))
        .collect()
}

/// A column holding `values`, appended in their order (so its dictionary
/// is sorted only when first occurrences happen to ascend), or re-coded
/// over a sorted dictionary.
fn column(values: &[Value], sorted: bool) -> Column {
    let mut c = Column::with_capacity(DataType::Str, values.len());
    for v in values {
        c.push(v).unwrap();
    }
    match sorted {
        true => c.sorted_strings().unwrap_or(c),
        false => c,
    }
}

fn is_sorted(c: &Column) -> bool {
    match c.data() {
        ColumnData::Str(v) => v.dict().is_sorted(),
        _ => unreachable!("a string column"),
    }
}

/// Every pairwise operation between `a` (holding `va`) and `b` (holding
/// `vb`) agrees with `Value`'s.
fn agrees(a: &Column, va: &[Value], b: &Column, vb: &[Value]) -> Result<(), String> {
    for (i, x) in va.iter().enumerate() {
        prop_assert_eq!(&a.value(i), x, "value {}", i);
        for (j, y) in vb.iter().enumerate() {
            prop_assert_eq!(a.eq_at(i, b, j), x == y, "eq_at {} {}", i, j);
            prop_assert_eq!(a.cmp_at(i, b, j), x.cmp(y), "cmp_at {} {}", i, j);
            if x == y {
                prop_assert_eq!(a.hash_at(i), b.hash_at(j), "hash_at {} {}", i, j);
            }
        }
    }
    let n = va.len().min(vb.len());
    let ids: Vec<u32> = (0..n as u32).rev().collect();
    let rows: Vec<u32> = (0..n as u32).collect();
    let mut ok = vec![true; n];
    a.eq_pairs(&ids, b, &rows, &mut ok);
    for (k, (&i, &j)) in ids.iter().zip(&rows).enumerate() {
        prop_assert_eq!(ok[k], va[i as usize] == vb[j as usize], "eq_pairs {}", k);
    }
    Ok(())
}

/// `c`'s own operations agree with `Value`'s: hashes over ranges,
/// order-preserving (and, when claimed, exact) sort prefixes, gathers.
fn holds(c: &Column, vs: &[Value]) -> Result<(), String> {
    let mut hashes = vec![7u64; vs.len()];
    c.hash_range(0, &mut hashes);
    for (i, h) in hashes.iter().enumerate() {
        prop_assert_eq!(*h, hash_combine(7, c.hash_at(i)), "hash_range {}", i);
    }
    let (prefixes, exact) = c.sort_prefixes(None);
    if is_sorted(c) {
        prop_assert!(exact, "a sorted dictionary's prefixes are exact");
    }
    for (p, x) in prefixes.iter().zip(vs) {
        for (q, y) in prefixes.iter().zip(vs) {
            if p < q {
                prop_assert_eq!(x.cmp(y), Ordering::Less, "prefix order {} {}", x, y);
            }
            if exact && p == q {
                prop_assert_eq!(x, y, "exact prefixes");
            }
        }
    }
    let idx: Vec<u32> = (0..vs.len() as u32).rev().step_by(2).collect();
    let gathered = c.gather(&idx);
    let want: Vec<Value> = idx.iter().map(|&i| vs[i as usize].clone()).collect();
    agrees(&gathered, &want, c, vs)?;
    let (picked, _) = c.sort_prefixes(Some(&idx));
    let at: Vec<u64> = idx.iter().map(|&i| prefixes[i as usize]).collect();
    prop_assert_eq!(picked, at, "prefixes of picked rows");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Within one dictionary (a column against itself and its gathers) and
    /// across two (columns built apart), sorted or appended out of order.
    #[test]
    fn dictionary_columns_hold_byte_string_semantics(
        a_picks in picks(),
        b_picks in picks(),
        sort_a in any::<bool>(),
        sort_b in any::<bool>(),
    ) {
        let (va, vb) = (values(&a_picks), values(&b_picks));
        let (a, b) = (column(&va, sort_a), column(&vb, sort_b));
        if sort_a {
            prop_assert!(is_sorted(&a));
        }
        holds(&a, &va)?;
        holds(&b, &vb)?;
        agrees(&a, &va, &a, &va)?;
        agrees(&a, &va, &b, &vb)?;
        agrees(&b, &vb, &a, &va)?;
        // Appending another dictionary's values keeps every value.
        let mut both = a.clone();
        both.extend_range(&b, 0, vb.len());
        let vboth: Vec<Value> = va.iter().chain(&vb).cloned().collect();
        holds(&both, &vboth)?;
        agrees(&both, &vboth, &b, &vb)?;
    }
}
