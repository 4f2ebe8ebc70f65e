//! Result digests under a query's declared result type (Definition 5.1).
//!
//! A response is correct when it is `≡SQL` to the interpreter's answer:
//! a multiset result may arrive in any order, a set result additionally
//! ignores multiplicity, and a list result must agree positionally on the
//! `ORDER BY` attributes and as a multiset on whole rows. The digest maps
//! every relation of one equivalence class to one `(rows, u64)` pair, so
//! the client compares two words instead of two relations.

use tqo_core::equivalence::ResultType;
use tqo_core::error::Result;
use tqo_core::relation::Relation;
use tqo_core::value::Value;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64, incremental.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(FNV_OFFSET)
    }
}

impl Fnv {
    /// Absorb bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// What a response is compared on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest {
    /// Row count as received (before any set-style deduplication).
    pub rows: usize,
    /// FNV-1a digest of the canonical form under the result type.
    pub hash: u64,
}

/// Tagged, length-prefixed value bytes. `Int` and `Time` share a tag:
/// the engine treats them as one domain (they compare and hash equal).
fn write_value(h: &mut Fnv, v: &Value) {
    match v {
        Value::Null => h.write(&[0]),
        Value::Int(i) | Value::Time(i) => {
            h.write(&[1]);
            h.write(&i.to_le_bytes());
        }
        Value::Float(f) => {
            h.write(&[2]);
            h.write(&f.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            h.write(&[3]);
            h.write(&(s.len() as u64).to_le_bytes());
            h.write(s.as_bytes());
        }
        Value::Bool(b) => h.write(&[4, u8::from(*b)]),
    }
}

/// Digest `rel` under `ty`.
pub fn digest(rel: &Relation, ty: &ResultType) -> Result<Digest> {
    let mut rows: Vec<u64> = rel
        .tuples()
        .iter()
        .map(|t| {
            let mut h = Fnv::default();
            for v in t.values() {
                write_value(&mut h, v);
            }
            h.finish()
        })
        .collect();
    let mut out = Fnv::default();
    if let ResultType::List(order) = ty {
        // The visible ordering: the ORDER BY columns, position by position.
        let keys: Vec<usize> = order
            .0
            .iter()
            .map(|k| rel.schema().resolve(&k.attr))
            .collect::<Result<_>>()?;
        for t in rel.tuples() {
            for &k in &keys {
                write_value(&mut out, t.value(k));
            }
        }
    }
    rows.sort_unstable();
    if matches!(ty, ResultType::Set) {
        rows.dedup();
    }
    for r in &rows {
        out.write(&r.to_le_bytes());
    }
    Ok(Digest {
        rows: rel.len(),
        hash: out.finish(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tqo_core::schema::Schema;
    use tqo_core::sortspec::{Order, SortKey};
    use tqo_core::tuple::Tuple;
    use tqo_core::value::DataType;

    fn rel(rows: &[(&str, i64)]) -> Relation {
        let schema = Schema::of(&[("Name", DataType::Str), ("N", DataType::Int)]);
        let tuples = rows
            .iter()
            .map(|(s, n)| Tuple::new(vec![Value::Str((*s).into()), Value::Int(*n)]))
            .collect();
        Relation::new(schema, tuples).unwrap()
    }

    #[test]
    fn fnv_standard_vectors() {
        let mut h = Fnv::default();
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn multiset_ignores_order_but_not_multiplicity() {
        let a = rel(&[("x", 1), ("y", 2), ("x", 1)]);
        let b = rel(&[("x", 1), ("x", 1), ("y", 2)]);
        let c = rel(&[("x", 1), ("y", 2), ("y", 2)]);
        let ty = ResultType::Multiset;
        assert_eq!(digest(&a, &ty).unwrap(), digest(&b, &ty).unwrap());
        assert_ne!(digest(&a, &ty).unwrap(), digest(&c, &ty).unwrap());
    }

    #[test]
    fn set_ignores_multiplicity_in_the_hash() {
        let a = rel(&[("x", 1), ("y", 2), ("x", 1)]);
        let b = rel(&[("y", 2), ("x", 1)]);
        let ty = ResultType::Set;
        assert_eq!(digest(&a, &ty).unwrap().hash, digest(&b, &ty).unwrap().hash);
        // The row count still travels, so a non-distinct answer to a
        // DISTINCT query is caught.
        assert_ne!(digest(&a, &ty).unwrap(), digest(&b, &ty).unwrap());
    }

    #[test]
    fn list_pins_the_order_by_columns_only() {
        let ty = ResultType::List(Order::new(vec![SortKey::asc("Name")]));
        let a = rel(&[("x", 1), ("x", 2), ("y", 3)]);
        let tie_swapped = rel(&[("x", 2), ("x", 1), ("y", 3)]);
        let misordered = rel(&[("y", 3), ("x", 1), ("x", 2)]);
        let other_rows = rel(&[("x", 1), ("x", 2), ("y", 4)]);
        let d = digest(&a, &ty).unwrap();
        assert_eq!(d, digest(&tie_swapped, &ty).unwrap());
        assert_ne!(d, digest(&misordered, &ty).unwrap());
        assert_ne!(d, digest(&other_rows, &ty).unwrap());
        // The same rows are one multiset, whatever their order.
        assert_eq!(
            digest(&a, &ResultType::Multiset).unwrap(),
            digest(&misordered, &ResultType::Multiset).unwrap()
        );
    }

    #[test]
    fn int_and_time_digest_alike_and_unknown_order_key_errors() {
        let schema = Schema::of(&[("T", DataType::Time)]);
        let t = Relation::new(schema.clone(), vec![Tuple::new(vec![Value::Time(7)])]).unwrap();
        let i = Relation::new(schema, vec![Tuple::new(vec![Value::Int(7)])]).unwrap();
        let ty = ResultType::Multiset;
        assert_eq!(digest(&t, &ty).unwrap(), digest(&i, &ty).unwrap());
        let bad = ResultType::List(Order::new(vec![SortKey::asc("Missing")]));
        assert!(digest(&t, &bad).is_err());
    }
}
