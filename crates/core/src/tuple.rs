//! Tuples (Definition 2.2): functions from attributes to domain values,
//! represented positionally against a `Schema`.

use serde::{Deserialize, Serialize};
use std::fmt;

use crate::error::{Error, Result};
use crate::schema::Schema;
use crate::time::Period;
use crate::value::Value;

/// A positional tuple. Interpretation (which position is which attribute,
/// where the period lives) is always relative to a `Schema`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Tuple {
    values: Vec<Value>,
}

impl Tuple {
    /// A tuple over the given values.
    pub fn new(values: Vec<Value>) -> Tuple {
        Tuple { values }
    }

    /// Approximate footprint in bytes (see [`Value::approx_bytes`]).
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Tuple>() + self.values.iter().map(Value::approx_bytes).sum::<usize>()
    }

    /// All values, in attribute order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Number of values.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// The `i`-th value.
    pub fn value(&self, i: usize) -> &Value {
        &self.values[i]
    }

    /// Replace the `i`-th value.
    pub fn set_value(&mut self, i: usize, v: Value) {
        self.values[i] = v;
    }

    /// Validate the tuple against a schema: arity and domain membership.
    pub fn conforms_to(&self, schema: &Schema) -> Result<()> {
        if self.values.len() != schema.arity() {
            return Err(Error::MalformedTuple {
                reason: format!(
                    "arity {} does not match schema arity {}",
                    self.values.len(),
                    schema.arity()
                ),
            });
        }
        for (v, a) in self.values.iter().zip(schema.attrs()) {
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
        Period::new(self.values[i1].as_time()?, self.values[i2].as_time()?)
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
        let mut values = self.values.clone();
        values[i1] = Value::Time(p.start);
        values[i2] = Value::Time(p.end);
        Ok(Tuple { values })
    }

    /// The explicit (non-temporal) attribute values, in schema order. Two
    /// temporal tuples are *value-equivalent* (§2.1) iff these agree.
    pub fn explicit_values(&self, schema: &Schema) -> Vec<Value> {
        schema
            .value_indices()
            .into_iter()
            .map(|i| self.values[i].clone())
            .collect()
    }

    /// Project onto the given positions.
    pub fn project(&self, indices: &[usize]) -> Tuple {
        Tuple {
            values: indices.iter().map(|&i| self.values[i].clone()).collect(),
        }
    }

    /// Concatenate two tuples (for products).
    pub fn concat(&self, other: &Tuple) -> Tuple {
        let mut values = Vec::with_capacity(self.values.len() + other.values.len());
        values.extend(self.values.iter().cloned());
        values.extend(other.values.iter().cloned());
        Tuple { values }
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("(")?;
        for (i, v) in self.values.iter().enumerate() {
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
        Tuple { values }
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
    fn period_requires_temporal_schema() {
        let s = Schema::of(&[("A", DataType::Int)]);
        let t = tuple![1i64];
        assert!(t.period(&s).is_err());
    }
}
