//! Scalar expressions, predicates, and aggregate functions.
//!
//! Selections `σ_P` take a Boolean expression; projections `π_{f1..fn}` take
//! a list of (possibly computed) projection items; aggregation `ξ` takes
//! grouping attributes and aggregate functions. The paper's rule
//! preconditions use `attr(·)` — the set of attributes an expression touches
//! — which is [`Expr::attrs`] here (e.g. C3's `T1 ∉ attr(P) ∧ T2 ∉ attr(P)`).

use serde::{Deserialize, Serialize};
use std::borrow::Borrow;
use std::collections::BTreeSet;
use std::fmt;

use crate::error::{Error, Result};
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::value::{DataType, Value};

/// Binary operators over scalars.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BinOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// Logical conjunction.
    And,
    /// Logical disjunction.
    Or,
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
}

impl BinOp {
    /// True for the six ordering/equality comparisons.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        )
    }

    /// True for `AND`/`OR`.
    pub fn is_logical(self) -> bool {
        matches!(self, BinOp::And | BinOp::Or)
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BinOp::Eq => "=",
            BinOp::Ne => "<>",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "AND",
            BinOp::Or => "OR",
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
        })
    }
}

/// A scalar expression tree.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Expr {
    /// Attribute reference by name.
    Col(String),
    /// Literal value.
    Lit(Value),
    /// Binary operation.
    Bin {
        /// The operator.
        op: BinOp,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Logical negation.
    Not(Box<Expr>),
    /// NULL test.
    IsNull(Box<Expr>),
    /// A NULL literal carrying a declared type. `Lit(Value::Null)` infers
    /// as `Int`; the outer-join padding projections need NULLs that keep
    /// the padded column's domain so the two union branches stay
    /// union-compatible.
    NullOf(DataType),
}

impl Expr {
    /// An attribute reference.
    pub fn col(name: impl Into<String>) -> Expr {
        Expr::Col(name.into())
    }

    /// A literal.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Lit(v.into())
    }

    /// A binary operation.
    pub fn bin(op: BinOp, left: Expr, right: Expr) -> Expr {
        Expr::Bin {
            op,
            left: Box::new(left),
            right: Box::new(right),
        }
    }

    /// `left = right`.
    pub fn eq(left: Expr, right: Expr) -> Expr {
        Expr::bin(BinOp::Eq, left, right)
    }

    /// `left AND right`.
    pub fn and(left: Expr, right: Expr) -> Expr {
        Expr::bin(BinOp::And, left, right)
    }

    /// `left OR right`.
    pub fn or(left: Expr, right: Expr) -> Expr {
        Expr::bin(BinOp::Or, left, right)
    }

    /// `left < right`.
    pub fn lt(left: Expr, right: Expr) -> Expr {
        Expr::bin(BinOp::Lt, left, right)
    }

    #[allow(clippy::should_implement_trait)]
    /// `NOT e`.
    pub fn not(e: Expr) -> Expr {
        Expr::Not(Box::new(e))
    }

    /// The paper's `attr(·)`: the set of attribute names referenced.
    pub fn attrs(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        self.collect_attrs(&mut out);
        out
    }

    fn collect_attrs(&self, out: &mut BTreeSet<String>) {
        match self {
            Expr::Col(name) => {
                out.insert(name.clone());
            }
            Expr::Lit(_) | Expr::NullOf(_) => {}
            Expr::Bin { left, right, .. } => {
                left.collect_attrs(out);
                right.collect_attrs(out);
            }
            Expr::Not(e) | Expr::IsNull(e) => e.collect_attrs(out),
        }
    }

    /// True when the expression references neither `T1` nor `T2` — the
    /// precondition pattern of rules C3/C4.
    pub fn is_time_free(&self) -> bool {
        let attrs = self.attrs();
        !attrs.contains(crate::schema::T1) && !attrs.contains(crate::schema::T2)
    }

    /// Rename attribute references via `f` (used when pushing expressions
    /// through renaming operations such as products).
    pub fn map_names(&self, f: &impl Fn(&str) -> String) -> Expr {
        match self {
            Expr::Col(name) => Expr::Col(f(name)),
            Expr::Lit(v) => Expr::Lit(v.clone()),
            Expr::NullOf(t) => Expr::NullOf(*t),
            Expr::Bin { op, left, right } => Expr::Bin {
                op: *op,
                left: Box::new(left.map_names(f)),
                right: Box::new(right.map_names(f)),
            },
            Expr::Not(e) => Expr::Not(Box::new(e.map_names(f))),
            Expr::IsNull(e) => Expr::IsNull(Box::new(e.map_names(f))),
        }
    }

    /// Evaluate against a tuple. NULL propagates through arithmetic and
    /// comparisons (three-valued logic collapsed to `Bool`/`Null`).
    pub fn eval(&self, schema: &Schema, tuple: &Tuple) -> Result<Value> {
        match self {
            Expr::Col(name) => {
                let i = schema.resolve(name)?;
                Ok(tuple.value(i).clone())
            }
            Expr::Lit(v) => Ok(v.clone()),
            Expr::NullOf(_) => Ok(Value::Null),
            Expr::Not(e) => match e.eval(schema, tuple)? {
                Value::Null => Ok(Value::Null),
                v => Ok(Value::Bool(!v.as_bool()?)),
            },
            Expr::IsNull(e) => Ok(Value::Bool(e.eval(schema, tuple)?.is_null())),
            Expr::Bin { op, left, right } => {
                let l = left.eval(schema, tuple)?;
                // Short-circuit logical operators (also gives NULL handling
                // matching SQL's three-valued logic closely enough).
                if *op == BinOp::And {
                    if l == Value::Bool(false) {
                        return Ok(Value::Bool(false));
                    }
                    let r = right.eval(schema, tuple)?;
                    return match (l, r) {
                        (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
                        (a, b) => Ok(Value::Bool(a.as_bool()? && b.as_bool()?)),
                    };
                }
                if *op == BinOp::Or {
                    if l == Value::Bool(true) {
                        return Ok(Value::Bool(true));
                    }
                    let r = right.eval(schema, tuple)?;
                    return match (l, r) {
                        (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
                        (a, b) => Ok(Value::Bool(a.as_bool()? || b.as_bool()?)),
                    };
                }
                let r = right.eval(schema, tuple)?;
                if l.is_null() || r.is_null() {
                    return Ok(Value::Null);
                }
                if op.is_comparison() {
                    let ord = l.cmp(&r);
                    let b = match op {
                        BinOp::Eq => ord == std::cmp::Ordering::Equal,
                        BinOp::Ne => ord != std::cmp::Ordering::Equal,
                        BinOp::Lt => ord == std::cmp::Ordering::Less,
                        BinOp::Le => ord != std::cmp::Ordering::Greater,
                        BinOp::Gt => ord == std::cmp::Ordering::Greater,
                        BinOp::Ge => ord != std::cmp::Ordering::Less,
                        _ => unreachable!(),
                    };
                    return Ok(Value::Bool(b));
                }
                // Arithmetic: integer when both integral, else float.
                // Integer `+ − × /` wrap on overflow (`i64::MIN / -1` is
                // `i64::MIN`); only division by zero is an error.
                match (&l, &r) {
                    (Value::Int(_) | Value::Time(_), Value::Int(_) | Value::Time(_)) => {
                        let (a, b) = (l.as_int()?, r.as_int()?);
                        let v = match op {
                            BinOp::Add => a.wrapping_add(b),
                            BinOp::Sub => a.wrapping_sub(b),
                            BinOp::Mul => a.wrapping_mul(b),
                            BinOp::Div => {
                                if b == 0 {
                                    return Err(Error::Arithmetic {
                                        reason: "division by zero",
                                    });
                                }
                                a.wrapping_div(b)
                            }
                            _ => unreachable!(),
                        };
                        Ok(Value::Int(v))
                    }
                    _ => {
                        let (a, b) = (l.as_float()?, r.as_float()?);
                        let v = match op {
                            BinOp::Add => a + b,
                            BinOp::Sub => a - b,
                            BinOp::Mul => a * b,
                            BinOp::Div => {
                                if b == 0.0 {
                                    return Err(Error::Arithmetic {
                                        reason: "division by zero",
                                    });
                                }
                                a / b
                            }
                            _ => unreachable!(),
                        };
                        Ok(Value::Float(v))
                    }
                }
            }
        }
    }

    /// Evaluate as a predicate: `NULL` counts as not-satisfied (SQL WHERE).
    pub fn eval_predicate(&self, schema: &Schema, tuple: &Tuple) -> Result<bool> {
        match self.eval(schema, tuple)? {
            Value::Null => Ok(false),
            v => v.as_bool(),
        }
    }

    /// Infer the result type against a schema (used by projection to build
    /// output schemas).
    pub fn infer_type(&self, schema: &Schema) -> Result<DataType> {
        match self {
            Expr::Col(name) => Ok(schema.attr(schema.resolve(name)?).dtype),
            Expr::Lit(v) => Ok(v.data_type().unwrap_or(DataType::Int)),
            Expr::NullOf(t) => Ok(*t),
            Expr::Not(_) | Expr::IsNull(_) => Ok(DataType::Bool),
            Expr::Bin { op, left, right } => {
                if op.is_comparison() || op.is_logical() {
                    Ok(DataType::Bool)
                } else {
                    let lt = left.infer_type(schema)?;
                    let rt = right.infer_type(schema)?;
                    if lt == DataType::Float || rt == DataType::Float {
                        Ok(DataType::Float)
                    } else if lt == DataType::Time || rt == DataType::Time {
                        Ok(DataType::Time)
                    } else {
                        Ok(lt)
                    }
                }
            }
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Col(name) => f.write_str(name),
            Expr::Lit(Value::Str(s)) => write!(f, "'{s}'"),
            Expr::Lit(v) => write!(f, "{v}"),
            Expr::NullOf(_) => f.write_str("NULL"),
            Expr::Bin { op, left, right } => write!(f, "({left} {op} {right})"),
            Expr::Not(e) => write!(f, "NOT {e}"),
            Expr::IsNull(e) => write!(f, "{e} IS NULL"),
        }
    }
}

/// One projection item `f_i`: an expression with an output name.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ProjItem {
    /// The expression to evaluate per row.
    pub expr: Expr,
    /// Output attribute name.
    pub alias: String,
}

impl ProjItem {
    /// An item computing `expr` under `alias`.
    pub fn new(expr: Expr, alias: impl Into<String>) -> ProjItem {
        ProjItem {
            expr,
            alias: alias.into(),
        }
    }

    /// A plain column kept under its own name.
    pub fn col(name: &str) -> ProjItem {
        ProjItem {
            expr: Expr::col(name),
            alias: name.to_owned(),
        }
    }

    /// True for `alias == column` pass-through items.
    pub fn is_identity(&self) -> bool {
        matches!(&self.expr, Expr::Col(c) if *c == self.alias)
    }
}

impl fmt::Display for ProjItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_identity() {
            f.write_str(&self.alias)
        } else {
            write!(f, "{} AS {}", self.expr, self.alias)
        }
    }
}

/// Aggregate functions `F_i` supported by `ξ`/`ξᵀ`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AggFunc {
    /// Row (or non-null argument) count.
    Count,
    /// Numeric sum, promoting to float when any input is a float.
    Sum,
    /// Minimum under `Value`'s total order.
    Min,
    /// Maximum under `Value`'s total order.
    Max,
    /// Arithmetic mean over non-null inputs.
    Avg,
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
            AggFunc::Avg => "AVG",
        })
    }
}

/// One aggregate computation: function, input attribute (`None` = `COUNT(*)`),
/// and output name.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct AggItem {
    /// The aggregate function.
    pub func: AggFunc,
    /// Argument attribute (`None` for `COUNT(*)`).
    pub arg: Option<String>,
    /// Output attribute name.
    pub alias: String,
}

impl AggItem {
    /// An aggregate of `func` over `arg`, output under `alias`.
    pub fn new(func: AggFunc, arg: Option<&str>, alias: impl Into<String>) -> AggItem {
        AggItem {
            func,
            arg: arg.map(str::to_owned),
            alias: alias.into(),
        }
    }

    /// `COUNT(*)` under `alias`.
    pub fn count_star(alias: impl Into<String>) -> AggItem {
        AggItem {
            func: AggFunc::Count,
            arg: None,
            alias: alias.into(),
        }
    }

    /// Output type of the aggregate.
    pub fn output_type(&self, schema: &Schema) -> Result<DataType> {
        match self.func {
            AggFunc::Count => Ok(DataType::Int),
            AggFunc::Avg => Ok(DataType::Float),
            AggFunc::Sum | AggFunc::Min | AggFunc::Max => match &self.arg {
                Some(a) => Ok(schema.attr(schema.resolve(a)?).dtype),
                None => Err(Error::Plan {
                    reason: format!("{} requires an argument", self.func),
                }),
            },
        }
    }

    /// The argument's attribute index in `schema`; `None` for `COUNT(*)`.
    pub fn arg_index(&self, schema: &Schema) -> Result<Option<usize>> {
        match &self.arg {
            Some(a) => schema.resolve(a).map(Some),
            None if self.func == AggFunc::Count => Ok(None),
            None => Err(Error::Plan {
                reason: format!("{} requires an argument", self.func),
            }),
        }
    }

    /// Fold a group of values into the aggregate result.
    pub fn compute(&self, schema: &Schema, group: &[&Tuple]) -> Result<Value> {
        match self.arg_index(schema)? {
            Some(i) => self.fold(group.iter().map(|t| t.value(i))),
            None => Ok(Value::Int(group.len() as i64)),
        }
    }

    /// Fold the argument's values, in list order, into the aggregate
    /// result — [`AggItem::compute`] once the argument is read. Integer
    /// sums wrap on overflow, as integer arithmetic does in [`Expr::eval`].
    pub fn fold<V: Borrow<Value>>(&self, values: impl IntoIterator<Item = V>) -> Result<Value> {
        let values = values.into_iter();
        match self.func {
            AggFunc::Count => {
                let n = values.filter(|v| !v.borrow().is_null()).count();
                Ok(Value::Int(n as i64))
            }
            AggFunc::Min | AggFunc::Max => {
                let mut best: Option<V> = None;
                for v in values {
                    if v.borrow().is_null() {
                        continue;
                    }
                    let keep_new = best.as_ref().is_none_or(|b| {
                        if self.func == AggFunc::Min {
                            v.borrow() < b.borrow()
                        } else {
                            v.borrow() > b.borrow()
                        }
                    });
                    if keep_new {
                        best = Some(v);
                    }
                }
                Ok(best.map_or(Value::Null, |b| b.borrow().clone()))
            }
            AggFunc::Sum => {
                let mut acc_i: i64 = 0;
                let mut acc_f: f64 = 0.0;
                let mut any = false;
                let mut float = false;
                for v in values {
                    match v.borrow() {
                        Value::Null => {}
                        Value::Int(v) | Value::Time(v) => {
                            acc_i = acc_i.wrapping_add(*v);
                            acc_f += *v as f64;
                            any = true;
                        }
                        Value::Float(v) => {
                            acc_f += v;
                            float = true;
                            any = true;
                        }
                        other => {
                            return Err(Error::TypeError {
                                expected: "numeric",
                                found: other.to_string(),
                                context: "SUM",
                            })
                        }
                    }
                }
                if !any {
                    Ok(Value::Null)
                } else if float {
                    Ok(Value::Float(acc_f))
                } else {
                    Ok(Value::Int(acc_i))
                }
            }
            AggFunc::Avg => {
                let mut sum = 0.0;
                let mut n = 0usize;
                for v in values {
                    let v = v.borrow();
                    if v.is_null() {
                        continue;
                    }
                    sum += v.as_float()?;
                    n += 1;
                }
                if n == 0 {
                    Ok(Value::Null)
                } else {
                    Ok(Value::Float(sum / n as f64))
                }
            }
        }
    }
}

impl fmt::Display for AggItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.arg {
            Some(a) => write!(f, "{}({}) AS {}", self.func, a, self.alias),
            None => write!(f, "{}(*) AS {}", self.func, self.alias),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    fn schema() -> Schema {
        Schema::of(&[
            ("A", DataType::Int),
            ("B", DataType::Str),
            ("C", DataType::Float),
        ])
    }

    #[test]
    fn eval_comparison_and_arith() {
        let s = schema();
        let t = tuple![4i64, "x", 2.5];
        let e = Expr::bin(
            BinOp::Gt,
            Expr::bin(BinOp::Add, Expr::col("A"), Expr::lit(1i64)),
            Expr::lit(4i64),
        );
        assert_eq!(e.eval(&s, &t).unwrap(), Value::Bool(true));
        let f = Expr::bin(BinOp::Mul, Expr::col("C"), Expr::lit(2i64));
        assert_eq!(f.eval(&s, &t).unwrap(), Value::Float(5.0));
    }

    #[test]
    fn eval_logical_short_circuit() {
        let s = schema();
        let t = tuple![4i64, "x", 2.5];
        // (A < 0) AND (1/0 ...) must not evaluate the right side.
        let e = Expr::and(
            Expr::lt(Expr::col("A"), Expr::lit(0i64)),
            Expr::bin(BinOp::Div, Expr::lit(1i64), Expr::lit(0i64)),
        );
        assert_eq!(e.eval(&s, &t).unwrap(), Value::Bool(false));
    }

    #[test]
    fn null_propagation() {
        let s = schema();
        let t = Tuple::new(vec![Value::Null, Value::Str("x".into()), Value::Float(1.0)]);
        let e = Expr::eq(Expr::col("A"), Expr::lit(1i64));
        assert_eq!(e.eval(&s, &t).unwrap(), Value::Null);
        assert!(!e.eval_predicate(&s, &t).unwrap());
        let isnull = Expr::IsNull(Box::new(Expr::col("A")));
        assert_eq!(isnull.eval(&s, &t).unwrap(), Value::Bool(true));
    }

    #[test]
    fn attrs_and_time_freedom() {
        let e = Expr::and(
            Expr::eq(Expr::col("A"), Expr::col("B")),
            Expr::lt(Expr::col("T1"), Expr::lit(5i64)),
        );
        let attrs = e.attrs();
        assert!(attrs.contains("A") && attrs.contains("B") && attrs.contains("T1"));
        assert!(!e.is_time_free());
        assert!(Expr::eq(Expr::col("A"), Expr::lit(1i64)).is_time_free());
    }

    #[test]
    fn division_by_zero_is_error() {
        let s = schema();
        let t = tuple![4i64, "x", 2.5];
        let e = Expr::bin(BinOp::Div, Expr::col("A"), Expr::lit(0i64));
        assert!(e.eval(&s, &t).is_err());
    }

    #[test]
    fn integer_division_overflow_wraps() {
        let s = schema();
        let t = tuple![-1i64, "x", 2.5];
        let e = Expr::bin(BinOp::Div, Expr::lit(i64::MIN), Expr::col("A"));
        assert_eq!(e.eval(&s, &t).unwrap(), Value::Int(i64::MIN));
    }

    #[test]
    fn aggregates() {
        let s = Schema::of(&[("G", DataType::Str), ("V", DataType::Int)]);
        let t1 = tuple!["a", 1i64];
        let t2 = tuple!["a", 5i64];
        let t3 = Tuple::new(vec![Value::Str("a".into()), Value::Null]);
        let group: Vec<&Tuple> = vec![&t1, &t2, &t3];
        assert_eq!(
            AggItem::count_star("n").compute(&s, &group).unwrap(),
            Value::Int(3)
        );
        assert_eq!(
            AggItem::new(AggFunc::Count, Some("V"), "n")
                .compute(&s, &group)
                .unwrap(),
            Value::Int(2)
        );
        assert_eq!(
            AggItem::new(AggFunc::Sum, Some("V"), "s")
                .compute(&s, &group)
                .unwrap(),
            Value::Int(6)
        );
        assert_eq!(
            AggItem::new(AggFunc::Min, Some("V"), "m")
                .compute(&s, &group)
                .unwrap(),
            Value::Int(1)
        );
        assert_eq!(
            AggItem::new(AggFunc::Max, Some("V"), "m")
                .compute(&s, &group)
                .unwrap(),
            Value::Int(5)
        );
        assert_eq!(
            AggItem::new(AggFunc::Avg, Some("V"), "a")
                .compute(&s, &group)
                .unwrap(),
            Value::Float(3.0)
        );
    }

    #[test]
    fn empty_group_aggregates() {
        let s = Schema::of(&[("V", DataType::Int)]);
        let group: Vec<&Tuple> = vec![];
        assert_eq!(
            AggItem::count_star("n").compute(&s, &group).unwrap(),
            Value::Int(0)
        );
        assert_eq!(
            AggItem::new(AggFunc::Sum, Some("V"), "s")
                .compute(&s, &group)
                .unwrap(),
            Value::Null
        );
    }

    #[test]
    fn integer_sum_wraps_on_overflow() {
        let s = Schema::of(&[("V", DataType::Int)]);
        let (big, one) = (tuple![i64::MAX], tuple![1i64]);
        let group: Vec<&Tuple> = vec![&big, &one];
        assert_eq!(
            AggItem::new(AggFunc::Sum, Some("V"), "s")
                .compute(&s, &group)
                .unwrap(),
            Value::Int(i64::MIN)
        );
    }

    #[test]
    fn map_names_renames_columns() {
        let e = Expr::eq(Expr::col("A"), Expr::col("B"));
        let renamed = e.map_names(&|n| format!("1.{n}"));
        assert!(renamed.attrs().contains("1.A"));
        assert!(renamed.attrs().contains("1.B"));
    }
}
