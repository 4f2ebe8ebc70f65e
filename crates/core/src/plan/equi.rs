//! Hash-join eligibility: which equalities of a `σ` directly above a `×`
//! or `×ᵀ` the product may match on.
//!
//! A product below such a select can emit only the pairs its key
//! equalities accept — the key-matching sub-list of its own list, in the
//! same order — and the select, still evaluating its whole predicate,
//! yields the identical list. [`equi_keys`] is the one place that decides
//! when that holds; lowering asks it where to run a hash product, and the
//! cost model may ask it what such a product will cost.

use std::fmt;

use crate::error::{Error, Result};
use crate::expr::{BinOp, Expr};
use crate::schema::Schema;
use crate::value::{DataType, Value};

/// The equality conjuncts `left = right` a hash product matches on, by
/// attribute name in the product's output schema (`1.`-prefixed left,
/// `2.`-prefixed right). Built only by [`equi_keys`]; the engine resolves
/// the names against its two inputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EquiKeys(pub Vec<(String, String)>);

impl EquiKeys {
    /// Key column positions in the left and right input, pairwise. Errors
    /// when a name is not a column of its side or a pair's domains differ.
    pub fn resolve(&self, left: &Schema, right: &Schema) -> Result<(Vec<usize>, Vec<usize>)> {
        let side = |schema: &Schema, prefix: &str, name: &str| {
            schema.resolve(name.strip_prefix(prefix).unwrap_or(name))
        };
        let mut positions = (Vec::new(), Vec::new());
        for (l, r) in &self.0 {
            let (li, ri) = (side(left, "1.", l)?, side(right, "2.", r)?);
            let (lt, rt) = (left.attr(li).dtype, right.attr(ri).dtype);
            if !comparable(lt, rt) {
                return Err(Error::Plan {
                    reason: format!("hash equi-join key {l} = {r} compares {lt:?} with {rt:?}"),
                });
            }
            positions.0.push(li);
            positions.1.push(ri);
        }
        Ok(positions)
    }

    /// The conjunction of the key equalities, over the product's output
    /// schema — what the statistics are asked how many pairs will match.
    pub fn predicate(&self) -> Expr {
        self.0
            .iter()
            .map(|(l, r)| Expr::eq(Expr::col(l), Expr::col(r)))
            .reduce(Expr::and)
            .unwrap_or_else(|| Expr::lit(true))
    }
}

impl fmt::Display for EquiKeys {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, (l, r)) in self.0.iter().enumerate() {
            write!(f, "{}{l}={r}", if i > 0 { "," } else { "" })?;
        }
        Ok(())
    }
}

/// Key columns share one domain, and it is not a float: the kernels
/// compare keys by their bits, and `-0.0 = 0.0` while their bits differ.
fn comparable(left: DataType, right: DataType) -> bool {
    left == right && left != DataType::Float
}

/// The top-level conjuncts of a predicate, left to right.
fn conjuncts<'a>(predicate: &'a Expr, out: &mut Vec<&'a Expr>) {
    match predicate {
        Expr::Bin {
            op: BinOp::And,
            left,
            right,
        } => {
            conjuncts(left, out);
            conjuncts(right, out);
        }
        other => out.push(other),
    }
}

/// True when evaluating `e` over `schema` cannot fail on any tuple;
/// `as_bool` says the context reads the value as a Boolean.
fn infallible(e: &Expr, schema: &Schema, as_bool: bool) -> bool {
    match e {
        Expr::Col(name) => !as_bool && schema.index_of(name).is_some(),
        Expr::Lit(v) => !as_bool || matches!(v, Value::Bool(_) | Value::Null),
        Expr::NullOf(_) => true,
        Expr::IsNull(e) => infallible(e, schema, false),
        Expr::Not(e) => infallible(e, schema, true),
        Expr::Bin { op, left, right } if op.is_logical() => {
            infallible(left, schema, true) && infallible(right, schema, true)
        }
        Expr::Bin { op, left, right } if op.is_comparison() => {
            infallible(left, schema, false) && infallible(right, schema, false)
        }
        Expr::Bin { .. } => false,
    }
}

/// The keys a hash product with output schema `product` may match on
/// below `σ[predicate]`: the top-level conjuncts `1.a = 2.b` (either way
/// round) whose two columns share one non-float domain (NULL keys never
/// satisfy `=`, so they match nothing). `None` when there is no such
/// conjunct, or when the predicate could fail on some pair: the select
/// will no longer see the pairs the keys reject, so it must not have been
/// able to raise an error on them.
pub fn equi_keys(predicate: &Expr, product: &Schema) -> Option<EquiKeys> {
    if !infallible(predicate, product, true) {
        return None;
    }
    let dtype = |name: &str| product.index_of(name).map(|i| product.attr(i).dtype);
    let mut parts = Vec::new();
    conjuncts(predicate, &mut parts);
    let mut keys = Vec::new();
    for part in parts {
        let Expr::Bin {
            op: BinOp::Eq,
            left: a,
            right: b,
        } = part
        else {
            continue;
        };
        let (Expr::Col(a), Expr::Col(b)) = (&**a, &**b) else {
            continue;
        };
        for (l, r) in [(a, b), (b, a)] {
            if !(l.starts_with("1.") && r.starts_with("2.")) {
                continue;
            }
            if let (Some(lt), Some(rt)) = (dtype(l), dtype(r)) {
                if comparable(lt, rt) {
                    keys.push((l.clone(), r.clone()));
                }
            }
        }
    }
    (!keys.is_empty()).then_some(EquiKeys(keys))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::product::product_schema;
    use crate::ops::temporal::product_t::product_t_schema;

    fn join_product() -> Schema {
        let side = Schema::of(&[
            ("K", DataType::Int),
            ("S", DataType::Str),
            ("F", DataType::Float),
        ]);
        product_schema(&side, &side).unwrap()
    }

    fn keys(predicate: &Expr, product: &Schema) -> Option<String> {
        equi_keys(predicate, product).map(|k| k.to_string())
    }

    #[test]
    fn select_directly_above_a_product_picks_the_hash_join() {
        let predicate = Expr::and(
            Expr::eq(Expr::col("1.K"), Expr::col("2.K")),
            Expr::and(
                Expr::lt(Expr::col("1.F"), Expr::col("2.F")),
                // Right-to-left is the same equality.
                Expr::eq(Expr::col("2.S"), Expr::col("1.S")),
            ),
        );
        assert_eq!(
            keys(&predicate, &join_product()).as_deref(),
            Some("1.K=2.K,1.S=2.S")
        );

        // ×ᵀ: the hash join is the sweep's sub-list, so it serves lists too.
        let side = Schema::temporal(&[("E", DataType::Str)]);
        let product = product_t_schema(&side, &side).unwrap();
        let predicate = Expr::eq(Expr::col("1.E"), Expr::col("2.E"));
        assert_eq!(keys(&predicate, &product).as_deref(), Some("1.E=2.E"));
    }

    #[test]
    fn no_hash_join_without_a_usable_top_level_equality() {
        let eq = |l: &str, r: &str| Expr::eq(Expr::col(l), Expr::col(r));
        let product = join_product();
        let plain = |predicate: Expr| {
            assert_eq!(keys(&predicate, &product), None, "{predicate:?}");
        };
        // The equality sits under an OR.
        plain(Expr::or(
            eq("1.K", "2.K"),
            Expr::lt(Expr::col("1.F"), Expr::lit(0.5f64)),
        ));
        // Different domains, floats, one side only, a literal.
        plain(eq("1.K", "2.S"));
        plain(eq("1.F", "2.F"));
        plain(eq("1.K", "1.K"));
        plain(Expr::eq(Expr::col("1.K"), Expr::lit(3i64)));
        // A conjunct that can fail: the select must keep seeing every pair.
        plain(Expr::and(
            eq("1.K", "2.K"),
            Expr::lt(
                Expr::bin(BinOp::Div, Expr::col("1.K"), Expr::col("2.K")),
                Expr::lit(2i64),
            ),
        ));
    }

    #[test]
    fn resolve_maps_key_names_to_input_positions() {
        let left = Schema::of(&[("A", DataType::Str), ("K", DataType::Int)]);
        let right = Schema::of(&[("K", DataType::Int)]);
        let keys = EquiKeys(vec![("1.K".into(), "2.K".into())]);
        assert_eq!(keys.resolve(&left, &right).unwrap(), (vec![1], vec![0]));
        let mismatched = EquiKeys(vec![("1.A".into(), "2.K".into())]);
        assert!(mismatched.resolve(&left, &right).is_err());
    }
}
