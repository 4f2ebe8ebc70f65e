//! Tuples (Definition 2.2): functions from attributes to domain values,
//! represented positionally against a `Schema`.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::error::{Error, Result};
use crate::schema::Schema;
use crate::time::Period;
use crate::value::Value;

/// A positional tuple. Interpretation (which position is which attribute,
/// where the period lives) is always relative to a `Schema`.
///
/// A tuple owns its values, or is one row of a column-born relation's
/// row-major block (see [`Relation::tuples`](crate::Relation::tuples)).
/// The two are indistinguishable through the API: equality, order,
/// hashing and formatting read [`Tuple::values`], and cloning or
/// modifying a block row copies its values out first, so a tuple held
/// beyond its list never keeps the list's block alive.
#[derive(Serialize, Deserialize)]
#[serde(from = "Values", into = "Values")]
pub struct Tuple {
    storage: Storage,
}

/// A tuple's serialized form, whichever its storage: the `values` field
/// the derived form had.
#[derive(Serialize, Deserialize)]
struct Values {
    values: Vec<Value>,
}

enum Storage {
    Owned(Vec<Value>),
    /// Values `start..start + len` of a block shared by one list's rows.
    Row {
        block: Arc<Vec<Value>>,
        start: u32,
        len: u32,
    },
}

// A block row fits in `Vec`'s niche: tuples keep the 24-byte header
// `Relation::row_layout_bytes` charges.
const _: () = assert!(std::mem::size_of::<Tuple>() == std::mem::size_of::<Vec<Value>>());

impl Tuple {
    /// A tuple over the given values.
    pub fn new(values: Vec<Value>) -> Tuple {
        Tuple {
            storage: Storage::Owned(values),
        }
    }

    /// The rows of a row-major `block` of `arity` values each, in order.
    /// The caller keeps `block.len()` within `u32` range.
    pub(crate) fn block_rows(block: Vec<Value>, arity: usize) -> impl Iterator<Item = Tuple> {
        debug_assert!(u32::try_from(block.len()).is_ok());
        let rows = block.len() / arity;
        let block = Arc::new(block);
        (0..rows).map(move |r| Tuple {
            storage: Storage::Row {
                block: Arc::clone(&block),
                start: (r * arity) as u32,
                len: arity as u32,
            },
        })
    }

    /// Approximate footprint in bytes (see [`Value::approx_bytes`]). A
    /// block row counts as if it owned its values.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Tuple>() + self.values().iter().map(Value::approx_bytes).sum::<usize>()
    }

    /// All values, in attribute order.
    #[inline]
    pub fn values(&self) -> &[Value] {
        match &self.storage {
            Storage::Owned(values) => values,
            Storage::Row { block, start, len } => &block[*start as usize..(*start + *len) as usize],
        }
    }

    /// Number of values.
    #[inline]
    pub fn arity(&self) -> usize {
        self.values().len()
    }

    /// The `i`-th value.
    #[inline]
    pub fn value(&self, i: usize) -> &Value {
        &self.values()[i]
    }

    /// Replace the `i`-th value. A block row first copies its values out.
    pub fn set_value(&mut self, i: usize, v: Value) {
        if let Storage::Row { .. } = self.storage {
            self.storage = Storage::Owned(self.values().to_vec());
        }
        match &mut self.storage {
            Storage::Owned(values) => values[i] = v,
            Storage::Row { .. } => unreachable!("copied out above"),
        }
    }

    /// Validate the tuple against a schema: arity and domain membership.
    pub fn conforms_to(&self, schema: &Schema) -> Result<()> {
        if self.arity() != schema.arity() {
            return Err(Error::MalformedTuple {
                reason: format!(
                    "arity {} does not match schema arity {}",
                    self.arity(),
                    schema.arity()
                ),
            });
        }
        for (v, a) in self.values().iter().zip(schema.attrs()) {
            if !v.conforms_to(a.dtype) {
                return Err(Error::MalformedTuple {
                    reason: format!("value {v} does not belong to domain of {a}"),
                });
            }
        }
        Ok(())
    }

    /// The tuple's valid-time period, read through `schema`. Errors when the
    /// schema is not temporal or the stored endpoints are inconsistent.
    pub fn period(&self, schema: &Schema) -> Result<Period> {
        let (i1, i2) = match (schema.t1_index(), schema.t2_index()) {
            (Some(i1), Some(i2)) => (i1, i2),
            _ => {
                return Err(Error::NotTemporal {
                    context: "Tuple::period",
                })
            }
        };
        let values = self.values();
        Period::new(values[i1].as_time()?, values[i2].as_time()?)
    }

    /// Replace the period endpoints (schema must be temporal).
    pub fn with_period(&self, schema: &Schema, p: Period) -> Result<Tuple> {
        let (i1, i2) = match (schema.t1_index(), schema.t2_index()) {
            (Some(i1), Some(i2)) => (i1, i2),
            _ => {
                return Err(Error::NotTemporal {
                    context: "Tuple::with_period",
                })
            }
        };
        let mut values = self.values().to_vec();
        values[i1] = Value::Time(p.start);
        values[i2] = Value::Time(p.end);
        Ok(Tuple::new(values))
    }

    /// The explicit (non-temporal) attribute values, in schema order. Two
    /// temporal tuples are *value-equivalent* (§2.1) iff these agree.
    pub fn explicit_values(&self, schema: &Schema) -> Vec<Value> {
        let values = self.values();
        schema
            .value_indices()
            .into_iter()
            .map(|i| values[i].clone())
            .collect()
    }

    /// Project onto the given positions.
    pub fn project(&self, indices: &[usize]) -> Tuple {
        let values = self.values();
        Tuple::new(indices.iter().map(|&i| values[i].clone()).collect())
    }

    /// Concatenate two tuples (for products).
    pub fn concat(&self, other: &Tuple) -> Tuple {
        let (a, b) = (self.values(), other.values());
        let mut values = Vec::with_capacity(a.len() + b.len());
        values.extend_from_slice(a);
        values.extend_from_slice(b);
        Tuple::new(values)
    }
}

impl Clone for Tuple {
    /// An owned copy: a block row's clone copies its values out of the
    /// block rather than sharing it.
    fn clone(&self) -> Tuple {
        Tuple::new(self.values().to_vec())
    }
}

impl PartialEq for Tuple {
    fn eq(&self, other: &Tuple) -> bool {
        self.values() == other.values()
    }
}

impl Eq for Tuple {}

impl PartialOrd for Tuple {
    fn partial_cmp(&self, other: &Tuple) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Tuple {
    fn cmp(&self, other: &Tuple) -> Ordering {
        self.values().cmp(other.values())
    }
}

impl Hash for Tuple {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.values().hash(state);
    }
}

impl fmt::Debug for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tuple")
            .field("values", &self.values())
            .finish()
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("(")?;
        for (i, v) in self.values().iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{v}")?;
        }
        f.write_str(")")
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(values: Vec<Value>) -> Self {
        Tuple::new(values)
    }
}

impl From<Values> for Tuple {
    fn from(v: Values) -> Self {
        Tuple::new(v.values)
    }
}

impl From<Tuple> for Values {
    fn from(t: Tuple) -> Self {
        Values {
            values: t.values().to_vec(),
        }
    }
}

/// Build a tuple from heterogeneous literals: `tuple!["John", "Sales", 1, 8]`.
#[macro_export]
macro_rules! tuple {
    ($($v:expr),* $(,)?) => {
        $crate::tuple::Tuple::new(vec![$($crate::value::Value::from($v)),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::value::DataType;

    fn emp_schema() -> Schema {
        Schema::temporal(&[("EmpName", DataType::Str), ("Dept", DataType::Str)])
    }

    #[test]
    fn period_roundtrip() {
        let s = emp_schema();
        let t = Tuple::new(vec![
            Value::Str("John".into()),
            Value::Str("Sales".into()),
            Value::Time(1),
            Value::Time(8),
        ]);
        assert_eq!(t.period(&s).unwrap(), Period::of(1, 8));
        let t2 = t.with_period(&s, Period::of(3, 5)).unwrap();
        assert_eq!(t2.period(&s).unwrap(), Period::of(3, 5));
        assert_eq!(t2.explicit_values(&s), t.explicit_values(&s));
    }

    #[test]
    fn conformance() {
        let s = emp_schema();
        let good = tuple!["John", "Sales", 1i64, 8i64];
        assert!(good.conforms_to(&s).is_ok());
        let bad_arity = tuple!["John"];
        assert!(bad_arity.conforms_to(&s).is_err());
        let bad_type = tuple![1i64, "Sales", 1i64, 8i64];
        assert!(bad_type.conforms_to(&s).is_err());
    }

    #[test]
    fn value_equivalence_ignores_period() {
        let s = emp_schema();
        let a = tuple!["Anna", "Sales", 2i64, 6i64];
        let b = tuple!["Anna", "Sales", 6i64, 12i64];
        assert_eq!(a.explicit_values(&s), b.explicit_values(&s));
        assert_ne!(a, b);
    }

    #[test]
    fn projection_and_concat() {
        let t = tuple![1i64, "x", true];
        assert_eq!(t.project(&[2, 0]), tuple![true, 1i64]);
        assert_eq!(t.concat(&tuple!["y"]), tuple![1i64, "x", true, "y"]);
    }

    #[test]
    fn block_rows_copy_out_before_changing() {
        let block = vec![Value::Int(1), Value::from("a"), Value::Int(2), Value::Null];
        let mut rows: Vec<Tuple> = Tuple::block_rows(block, 2).collect();
        assert_eq!(
            rows,
            vec![
                tuple![1i64, "a"],
                Tuple::new(vec![Value::Int(2), Value::Null])
            ]
        );
        rows[0].set_value(1, Value::from("b"));
        assert_eq!(rows[0], tuple![1i64, "b"]);
        assert_eq!(rows[1], Tuple::new(vec![Value::Int(2), Value::Null]));
        assert_eq!(rows[1].clone().values(), [Value::Int(2), Value::Null]);
        assert_eq!(Tuple::block_rows(Vec::new(), 3).count(), 0);
    }

    #[test]
    fn period_requires_temporal_schema() {
        let s = Schema::of(&[("A", DataType::Int)]);
        let t = tuple![1i64];
        assert!(t.period(&s).is_err());
    }
}
