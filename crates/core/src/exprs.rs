//! Vectorized predicate evaluation.
//!
//! [`compile`] translates a predicate [`Expr`] into a small column-indexed
//! program evaluated over a selection of rows of a set of columns at a
//! time — the batch engine's `select` and a stored table's sequenced
//! delete and update run this one program. Only the *total* fragment of
//! the expression language is compiled — comparisons between columns and
//! literals, `AND`/`OR`/`NOT`, `IS NULL`, and boolean columns — i.e.
//! expressions whose evaluation can never raise (no arithmetic, no
//! `as_bool` coercions, all attributes resolved). Everything else returns
//! `None` and the caller falls back to row-at-a-time
//! `Expr::eval_predicate`, preserving the interpreter's error behaviour
//! (including its short-circuit evaluation order) exactly.
//!
//! Null semantics replicate `Expr::eval` *literally* — including its
//! non-Kleene corner: `FALSE AND NULL` is `FALSE` only when the false
//! operand is on the left (the right side is reached only after the left
//! failed to short-circuit, and any null operand then nulls the result).

use std::cmp::Ordering;
use std::sync::Arc;

use crate::columnar::{Column, Sel};
use crate::expr::{BinOp, Expr};
use crate::schema::Schema;
use crate::value::{DataType, Value};

/// A compiled predicate over column indices.
#[derive(Debug, Clone)]
pub enum Pred {
    /// `col <op> col`.
    CmpCols(BinOp, usize, usize),
    /// `col <op> literal`.
    CmpColLit(BinOp, usize, Value),
    /// `literal <op> col`.
    CmpLitCol(BinOp, Value, usize),
    /// `literal <op> literal` (constant-folded at eval time).
    CmpLits(BinOp, Value, Value),
    /// A boolean column used directly as a predicate.
    BoolCol(usize),
    /// A boolean (or null) literal.
    BoolLit(Option<bool>),
    /// `<col> IS NULL`.
    IsNullCol(usize),
    /// `<literal> IS NULL`.
    IsNullLit(bool),
    /// Conjunction (left short-circuits, as in `Expr::eval`).
    And(Box<Pred>, Box<Pred>),
    /// Disjunction (left short-circuits).
    Or(Box<Pred>, Box<Pred>),
    /// Negation.
    Not(Box<Pred>),
}

/// A vector of three-valued booleans: `vals[i]` is meaningful where
/// `nulls` is absent or `!nulls[i]`.
pub struct BoolVec {
    /// Truth value per live row (null slots hold `false`).
    pub vals: Vec<bool>,
    /// Null mask per live row (`None` = no nulls).
    pub nulls: Option<Vec<bool>>,
}

impl BoolVec {
    fn new(n: usize) -> BoolVec {
        BoolVec {
            vals: vec![false; n],
            nulls: None,
        }
    }

    #[inline]
    fn is_null(&self, i: usize) -> bool {
        self.nulls.as_ref().is_some_and(|n| n[i])
    }

    #[inline]
    fn set_null(&mut self, i: usize) {
        self.nulls
            .get_or_insert_with(|| vec![false; self.vals.len()])[i] = true;
    }
}

/// Compile `expr` for batches of `schema`; `None` when the expression
/// leaves the total fragment (the caller falls back to row evaluation).
pub fn compile(expr: &Expr, schema: &Schema) -> Option<Pred> {
    match expr {
        Expr::Bin { op, left, right } if op.is_comparison() => {
            match (operand(left, schema)?, operand(right, schema)?) {
                (Operand::Col(l), Operand::Col(r)) => {
                    // Column-vs-column runs on the native `cmp_at`, which is
                    // only defined within a dtype family; cross-family
                    // comparisons (Value::cmp is total over those too) fall
                    // back to row evaluation.
                    let (lt, rt) = (schema.attr(l).dtype, schema.attr(r).dtype);
                    let time_like = |t: DataType| matches!(t, DataType::Int | DataType::Time);
                    if lt == rt || (time_like(lt) && time_like(rt)) {
                        Some(Pred::CmpCols(*op, l, r))
                    } else {
                        None
                    }
                }
                (Operand::Col(l), Operand::Lit(v)) => Some(Pred::CmpColLit(*op, l, v)),
                (Operand::Lit(v), Operand::Col(r)) => Some(Pred::CmpLitCol(*op, v, r)),
                (Operand::Lit(a), Operand::Lit(b)) => Some(Pred::CmpLits(*op, a, b)),
            }
        }
        Expr::Bin { op, left, right } if *op == BinOp::And => Some(Pred::And(
            Box::new(compile(left, schema)?),
            Box::new(compile(right, schema)?),
        )),
        Expr::Bin { op, left, right } if *op == BinOp::Or => Some(Pred::Or(
            Box::new(compile(left, schema)?),
            Box::new(compile(right, schema)?),
        )),
        Expr::Not(e) => Some(Pred::Not(Box::new(compile(e, schema)?))),
        Expr::IsNull(e) => match operand(e, schema)? {
            Operand::Col(i) => Some(Pred::IsNullCol(i)),
            Operand::Lit(v) => Some(Pred::IsNullLit(v.is_null())),
        },
        Expr::Col(name) => {
            let i = schema.index_of(name)?;
            (schema.attr(i).dtype == DataType::Bool).then_some(Pred::BoolCol(i))
        }
        Expr::Lit(Value::Bool(b)) => Some(Pred::BoolLit(Some(*b))),
        Expr::Lit(Value::Null) => Some(Pred::BoolLit(None)),
        _ => None,
    }
}

enum Operand {
    Col(usize),
    Lit(Value),
}

fn operand(expr: &Expr, schema: &Schema) -> Option<Operand> {
    match expr {
        Expr::Col(name) => schema.index_of(name).map(Operand::Col),
        Expr::Lit(v) => Some(Operand::Lit(v.clone())),
        _ => None,
    }
}

#[inline]
fn apply(op: BinOp, ord: Ordering) -> bool {
    match op {
        BinOp::Eq => ord == Ordering::Equal,
        BinOp::Ne => ord != Ordering::Equal,
        BinOp::Lt => ord == Ordering::Less,
        BinOp::Le => ord != Ordering::Greater,
        BinOp::Gt => ord == Ordering::Greater,
        BinOp::Ge => ord != Ordering::Less,
        _ => unreachable!("compiled comparisons are comparisons"),
    }
}

/// Fill `vals[k] = op(left(k), right(k))` with the operator match hoisted
/// out of the loop: each arm monomorphizes a tight, branch-free compare
/// loop over plain slices that the compiler can unroll and vectorize,
/// instead of re-matching `op` (and re-dispatching the dtype) per row.
#[inline]
fn fill_cmp<T: Copy>(
    op: BinOp,
    vals: &mut [bool],
    left: impl Fn(usize) -> T + Copy,
    right: impl Fn(usize) -> T + Copy,
    ord: impl Fn(T, T) -> Ordering + Copy,
) {
    macro_rules! go {
        ($keep:expr) => {
            for (k, v) in vals.iter_mut().enumerate() {
                *v = $keep(ord(left(k), right(k)));
            }
        };
    }
    match op {
        BinOp::Eq => go!(|o: Ordering| o == Ordering::Equal),
        BinOp::Ne => go!(|o: Ordering| o != Ordering::Equal),
        BinOp::Lt => go!(|o: Ordering| o == Ordering::Less),
        BinOp::Le => go!(|o: Ordering| o != Ordering::Greater),
        BinOp::Gt => go!(|o: Ordering| o == Ordering::Greater),
        BinOp::Ge => go!(|o: Ordering| o != Ordering::Less),
        _ => unreachable!("compiled comparisons are comparisons"),
    }
}

/// [`fill_cmp`] with logical→physical row translation: getters take
/// physical indices, the selection shape is dispatched once per call.
#[inline]
fn fill_cmp_sel<T: Copy>(
    op: BinOp,
    sel: &Sel,
    vals: &mut [bool],
    at_l: impl Fn(usize) -> T + Copy,
    at_r: impl Fn(usize) -> T + Copy,
    ord: impl Fn(T, T) -> Ordering + Copy,
) {
    match sel {
        Sel::Range(s, _) => {
            let s = *s;
            fill_cmp(op, vals, |k| at_l(s + k), |k| at_r(s + k), ord);
        }
        Sel::Rows(rows) => fill_cmp(
            op,
            vals,
            |k| at_l(rows[k] as usize),
            |k| at_r(rows[k] as usize),
            ord,
        ),
    }
}

/// [`fill_cmp_sel`] over two byte-string getters. `=` and `<>` need only
/// equality ([`bytes_eq`]), where `cmp` makes a `memcmp` call per row. The
/// order comparisons stay lexicographic (byte order is `str` order).
#[inline]
fn fill_cmp_strs<'a>(
    op: BinOp,
    sel: &Sel,
    vals: &mut [bool],
    at_l: impl Fn(usize) -> &'a [u8] + Copy,
    at_r: impl Fn(usize) -> &'a [u8] + Copy,
) {
    match op {
        // Unequal reads as `Less`, which `=` and `<>` do not tell from
        // `Greater`.
        BinOp::Eq | BinOp::Ne => fill_cmp_sel(op, sel, vals, at_l, at_r, |a, b| {
            if bytes_eq(a, b) {
                Ordering::Equal
            } else {
                Ordering::Less
            }
        }),
        _ => fill_cmp_sel(op, sel, vals, at_l, at_r, |a: &[u8], b: &[u8]| a.cmp(b)),
    }
}

/// Lengths first, which most unequal values already differ in, then the
/// bytes: inline for short strings, through slice `==` (one `memcmp`)
/// past 16 bytes, where the call costs less than the byte loop.
#[inline]
fn bytes_eq(a: &[u8], b: &[u8]) -> bool {
    a.len() == b.len()
        && if a.len() <= 16 {
            a.iter().zip(b).all(|(x, y)| x == y)
        } else {
            a == b
        }
}

/// A float-comparable view of a literal, exactly where `Value::cmp`
/// against a `Float` is numeric (`Float` and `Int` operands; `Time` vs
/// `Float` compares by variant rank and must not take this path).
fn float_lit(v: &Value) -> Option<f64> {
    match v {
        Value::Float(f) => Some(*f),
        Value::Int(i) => Some(*i as f64),
        _ => None,
    }
}

/// Evaluate a compiled predicate over the rows `sel` names of `columns`
/// (indexed as the schema it was compiled for), in `sel`'s order.
pub fn eval(pred: &Pred, columns: &[Arc<Column>], sel: &Sel) -> BoolVec {
    let n = sel.len();
    let mut out = BoolVec::new(n);
    match pred {
        Pred::CmpCols(op, l, r) => {
            let (lc, rc) = (&columns[*l], &columns[*r]);
            if let (Some(ld), Some(rd)) = (lc.as_i64(), rc.as_i64()) {
                // Fast path: two non-null Int/Time columns.
                fill_cmp_sel(
                    *op,
                    sel,
                    &mut out.vals,
                    |i| ld[i],
                    |i| rd[i],
                    |a, b| a.cmp(&b),
                );
            } else if let (Some(ld), Some(rd)) = (lc.as_f64(), rc.as_f64()) {
                // Non-null Float columns: `cmp_at` is `total_cmp`.
                fill_cmp_sel(
                    *op,
                    sel,
                    &mut out.vals,
                    |i| ld[i],
                    |i| rd[i],
                    |a, b| a.total_cmp(&b),
                );
            } else if let (Some(ld), Some(rd)) = (lc.as_strs(), rc.as_strs()) {
                // Non-null Str columns.
                fill_cmp_strs(
                    *op,
                    sel,
                    &mut out.vals,
                    |i| ld.bytes_at(i),
                    |i| rd.bytes_at(i),
                );
            } else {
                for (k, i) in sel.iter().enumerate() {
                    if lc.is_null(i) || rc.is_null(i) {
                        out.set_null(k);
                    } else {
                        out.vals[k] = apply(*op, lc.cmp_at(i, rc, i));
                    }
                }
            }
        }
        Pred::CmpColLit(op, l, v) => {
            let lc = &columns[*l];
            if v.is_null() {
                out.nulls = Some(vec![true; n]);
            } else if let (Some(data), Ok(lit)) = (lc.as_i64(), v.as_int()) {
                // Fast path: non-null Int/Time column vs integer literal.
                fill_cmp_sel(
                    *op,
                    sel,
                    &mut out.vals,
                    |i| data[i],
                    |_| lit,
                    |a, b| a.cmp(&b),
                );
            } else if let (Some(data), Some(lit)) = (lc.as_f64(), float_lit(v)) {
                // Non-null Float column vs numeric literal (total order).
                fill_cmp_sel(
                    *op,
                    sel,
                    &mut out.vals,
                    |i| data[i],
                    |_| lit,
                    |a, b| a.total_cmp(&b),
                );
            } else if let (Some(data), Value::Str(lit)) = (lc.as_strs(), v) {
                // Non-null Str column vs string literal: on codes when the
                // dictionary places the literal, as bytes otherwise.
                let lit = lit.as_bytes();
                match data.literal_rank(lit, matches!(op, BinOp::Eq | BinOp::Ne)) {
                    Some(key) => fill_cmp_sel(
                        *op,
                        sel,
                        &mut out.vals,
                        |i| data.rank_at(i),
                        |_| key,
                        |a, b| a.cmp(&b),
                    ),
                    None => fill_cmp_strs(*op, sel, &mut out.vals, |i| data.bytes_at(i), |_| lit),
                }
            } else {
                for (k, i) in sel.iter().enumerate() {
                    if lc.is_null(i) {
                        out.set_null(k);
                    } else {
                        out.vals[k] = apply(*op, lc.cmp_value(i, v));
                    }
                }
            }
        }
        Pred::CmpLitCol(op, v, r) => {
            let rc = &columns[*r];
            if v.is_null() {
                out.nulls = Some(vec![true; n]);
            } else if let (Some(data), Ok(lit)) = (rc.as_i64(), v.as_int()) {
                fill_cmp_sel(
                    *op,
                    sel,
                    &mut out.vals,
                    |_| lit,
                    |i| data[i],
                    |a, b| a.cmp(&b),
                );
            } else if let (Some(data), Some(lit)) = (rc.as_f64(), float_lit(v)) {
                fill_cmp_sel(
                    *op,
                    sel,
                    &mut out.vals,
                    |_| lit,
                    |i| data[i],
                    |a, b| a.total_cmp(&b),
                );
            } else if let (Some(data), Value::Str(lit)) = (rc.as_strs(), v) {
                let lit = lit.as_bytes();
                match data.literal_rank(lit, matches!(op, BinOp::Eq | BinOp::Ne)) {
                    Some(key) => fill_cmp_sel(
                        *op,
                        sel,
                        &mut out.vals,
                        |_| key,
                        |i| data.rank_at(i),
                        |a, b| a.cmp(&b),
                    ),
                    None => fill_cmp_strs(*op, sel, &mut out.vals, |_| lit, |i| data.bytes_at(i)),
                }
            } else {
                for (k, i) in sel.iter().enumerate() {
                    if rc.is_null(i) {
                        out.set_null(k);
                    } else {
                        out.vals[k] = apply(*op, rc.cmp_value(i, v).reverse());
                    }
                }
            }
        }
        Pred::CmpLits(op, a, b) => {
            if a.is_null() || b.is_null() {
                out.nulls = Some(vec![true; n]);
            } else {
                let v = apply(*op, a.cmp(b));
                out.vals.fill(v);
            }
        }
        Pred::BoolCol(c) => {
            let col = &columns[*c];
            for (k, i) in sel.iter().enumerate() {
                if col.is_null(i) {
                    out.set_null(k);
                } else if let Value::Bool(b) = col.value(i) {
                    out.vals[k] = b;
                }
            }
        }
        Pred::BoolLit(Some(b)) => out.vals.fill(*b),
        Pred::BoolLit(None) => out.nulls = Some(vec![true; n]),
        Pred::IsNullCol(c) => {
            let col = &columns[*c];
            for (k, i) in sel.iter().enumerate() {
                out.vals[k] = col.is_null(i);
            }
        }
        Pred::IsNullLit(b) => out.vals.fill(*b),
        Pred::And(l, r) => {
            let lv = eval(l, columns, sel);
            let rv = eval(r, columns, sel);
            if lv.nulls.is_none() && rv.nulls.is_none() {
                // Null-free inputs: three-valued logic degenerates to a
                // branch-free bitwise AND.
                for ((o, &a), &b) in out.vals.iter_mut().zip(&lv.vals).zip(&rv.vals) {
                    *o = a & b;
                }
            } else {
                for k in 0..n {
                    // Mirror Expr::eval: left == FALSE short-circuits; any
                    // remaining null operand nulls the result.
                    if !lv.is_null(k) && !lv.vals[k] {
                        out.vals[k] = false;
                    } else if lv.is_null(k) || rv.is_null(k) {
                        out.set_null(k);
                    } else {
                        out.vals[k] = lv.vals[k] && rv.vals[k];
                    }
                }
            }
        }
        Pred::Or(l, r) => {
            let lv = eval(l, columns, sel);
            let rv = eval(r, columns, sel);
            if lv.nulls.is_none() && rv.nulls.is_none() {
                for ((o, &a), &b) in out.vals.iter_mut().zip(&lv.vals).zip(&rv.vals) {
                    *o = a | b;
                }
            } else {
                for k in 0..n {
                    if !lv.is_null(k) && lv.vals[k] {
                        out.vals[k] = true;
                    } else if lv.is_null(k) || rv.is_null(k) {
                        out.set_null(k);
                    } else {
                        out.vals[k] = lv.vals[k] || rv.vals[k];
                    }
                }
            }
        }
        Pred::Not(e) => {
            let ev = eval(e, columns, sel);
            if ev.nulls.is_none() {
                for (o, &a) in out.vals.iter_mut().zip(&ev.vals) {
                    *o = !a;
                }
            } else {
                for k in 0..n {
                    if ev.is_null(k) {
                        out.set_null(k);
                    } else {
                        out.vals[k] = !ev.vals[k];
                    }
                }
            }
        }
    }
    out
}

/// Filter the rows `sel` names of `columns`: the physical indices of rows
/// where the predicate is true (`NULL` counts as not satisfied, as in SQL
/// `WHERE`), in `sel`'s order.
///
/// The compaction is branch-free: every candidate index is written at the
/// output cursor and the cursor advances by the keep flag, so selectivity
/// never costs branch mispredictions.
pub fn filter(pred: &Pred, columns: &[Arc<Column>], sel: &Sel) -> Vec<u32> {
    let bv = eval(pred, columns, sel);
    let mut kept = vec![0u32; bv.vals.len()];
    let mut m = 0usize;
    match (sel, &bv.nulls) {
        (Sel::Range(s, _), None) => {
            let s = *s as u32;
            for (k, &keep) in bv.vals.iter().enumerate() {
                kept[m] = s + k as u32;
                m += keep as usize;
            }
        }
        (Sel::Rows(rows), None) => {
            for (k, &i) in rows.iter().enumerate() {
                kept[m] = i;
                m += bv.vals[k] as usize;
            }
        }
        (Sel::Range(s, _), Some(nulls)) => {
            let s = *s as u32;
            for (k, &keep) in bv.vals.iter().enumerate() {
                kept[m] = s + k as u32;
                m += (keep & !nulls[k]) as usize;
            }
        }
        (Sel::Rows(rows), Some(nulls)) => {
            for (k, &i) in rows.iter().enumerate() {
                kept[m] = i;
                m += (bv.vals[k] & !nulls[k]) as usize;
            }
        }
    }
    kept.truncate(m);
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::columnar::ColumnarRelation;
    use crate::relation::Relation;
    use crate::tuple;
    use crate::tuple::Tuple;

    fn sch() -> Schema {
        Schema::of(&[
            ("A", DataType::Int),
            ("B", DataType::Str),
            ("C", DataType::Str),
            ("D", DataType::Str),
        ])
    }

    /// Past the length at which string equality stops comparing inline.
    const LONG: &str = "abcdefghijklmnopqrst";

    /// `A` and `B` hold a NULL each; `C` and `D` have none, so they take
    /// the typed string paths and `B` the per-row fallback. Row by row, `D`
    /// equals `C`, is a multi-byte character's ASCII look-alike, extends it,
    /// is empty with it, differs in its last byte, and differs in the last
    /// byte of a long string.
    fn table() -> ColumnarRelation {
        let long_d = format!("{}u", &LONG[..LONG.len() - 1]);
        let r = Relation::new(
            sch(),
            vec![
                tuple![3i64, "x", "x", "x"],
                Tuple::new(vec![
                    Value::Null,
                    Value::from("y"),
                    Value::from("é"),
                    Value::from("e"),
                ]),
                Tuple::new(vec![
                    Value::Int(7),
                    Value::Null,
                    Value::from("日本"),
                    Value::from("日本語"),
                ]),
                tuple![5i64, "z", "", ""],
                tuple![2i64, "x", "xy", "xa"],
                Tuple::new(vec![
                    Value::Int(4),
                    Value::from("xyz"),
                    Value::from(LONG),
                    Value::from(long_d),
                ]),
            ],
        )
        .unwrap();
        ColumnarRelation::from_relation(&r).unwrap()
    }

    /// The rows of `sel` the row evaluator keeps, in `sel`'s order.
    fn row_filter(e: &Expr, t: &ColumnarRelation, sel: &Sel) -> Vec<u32> {
        sel.iter()
            .filter(|&i| e.eval_predicate(&sch(), &t.tuple(i)).unwrap())
            .map(|i| i as u32)
            .collect()
    }

    #[test]
    fn agrees_with_row_eval_on_the_total_fragment() {
        let t = table();
        let mut exprs = vec![
            Expr::bin(BinOp::Ge, Expr::col("A"), Expr::lit(5i64)),
            Expr::and(
                Expr::bin(BinOp::Gt, Expr::col("A"), Expr::lit(2i64)),
                Expr::eq(Expr::col("B"), Expr::lit("x")),
            ),
            Expr::or(
                Expr::eq(Expr::col("B"), Expr::lit("z")),
                Expr::bin(BinOp::Lt, Expr::col("A"), Expr::lit(4i64)),
            ),
            Expr::not(Expr::eq(Expr::col("B"), Expr::lit("x"))),
            Expr::IsNull(Box::new(Expr::col("A"))),
            Expr::not(Expr::IsNull(Box::new(Expr::col("A")))),
            Expr::IsNull(Box::new(Expr::col("B"))),
        ];
        // Every comparison of a string column (with and without NULLs)
        // against string literals on either side — empty, multi-byte,
        // long, and ones sharing a prefix but not a length — against a
        // NULL, against an Int literal (variant rank), and of every pair
        // of string columns both ways.
        let ops = [
            BinOp::Eq,
            BinOp::Ne,
            BinOp::Lt,
            BinOp::Le,
            BinOp::Gt,
            BinOp::Ge,
        ];
        for op in ops {
            for col in ["B", "C", "D"] {
                for lit in [
                    Value::from("x"),
                    Value::from(""),
                    Value::from("é"),
                    Value::from("e"),
                    Value::from("xa"),
                    Value::from("xy"),
                    Value::from("日本語"),
                    Value::from(LONG),
                    Value::from(format!("{LONG}u")),
                    Value::Null,
                    Value::Int(3),
                ] {
                    exprs.push(Expr::bin(op, Expr::col(col), Expr::Lit(lit.clone())));
                    exprs.push(Expr::bin(op, Expr::Lit(lit), Expr::col(col)));
                }
            }
            for (l, r) in [("B", "C"), ("C", "D"), ("D", "C"), ("C", "C")] {
                exprs.push(Expr::bin(op, Expr::col(l), Expr::col(r)));
            }
        }
        let sels = [
            Sel::Range(0, 6),
            Sel::Rows(Arc::new(vec![5, 4, 2, 0, 1, 3])),
        ];
        for e in &exprs {
            let pred = compile(e, &sch()).expect("total fragment compiles");
            for sel in &sels {
                let got = filter(&pred, t.columns(), sel);
                assert_eq!(got, row_filter(e, &t, sel), "on {e} over {sel:?}");
            }
        }
    }

    #[test]
    fn replicates_non_kleene_null_and() {
        // NOT(NULL AND FALSE): Expr::eval yields NULL (→ kept out), not
        // TRUE as Kleene logic would.
        let e = Expr::not(Expr::and(
            Expr::eq(Expr::col("A"), Expr::lit(1i64)), // NULL on row 1
            Expr::eq(Expr::col("C"), Expr::lit("nope")), // FALSE everywhere
        ));
        let t = table();
        let sel = Sel::Range(0, 5);
        let pred = compile(&e, &sch()).unwrap();
        let got = filter(&pred, t.columns(), &sel);
        assert_eq!(got, row_filter(&e, &t, &sel));
        // Rows with non-null A pass (NOT(FALSE) = TRUE); row 1's NULL AND
        // FALSE is NULL — not FALSE as Kleene logic would have it — so
        // NOT(...) stays NULL and row 1 is excluded.
        assert_eq!(got, vec![0, 2, 3, 4]);
    }
    #[test]
    fn arithmetic_and_unknown_columns_do_not_compile() {
        let s = sch();
        assert!(compile(&Expr::bin(BinOp::Add, Expr::col("A"), Expr::lit(1i64)), &s).is_none());
        assert!(compile(&Expr::eq(Expr::col("Z"), Expr::lit(1i64)), &s).is_none());
        // Non-bool column as predicate does not compile either.
        assert!(compile(&Expr::col("A"), &s).is_none());
    }

    #[test]
    fn cross_dtype_column_comparisons_fall_back() {
        // Value::cmp is total across variants (Int vs Str compares by
        // variant rank, Int vs Float numerically); the native column
        // comparison is not, so these must not compile — the select
        // operator's row fallback handles them.
        let s = Schema::of(&[
            ("A", DataType::Int),
            ("B", DataType::Str),
            ("D", DataType::Float),
            ("T", DataType::Time),
        ]);
        assert!(compile(&Expr::lt(Expr::col("A"), Expr::col("B")), &s).is_none());
        assert!(compile(&Expr::lt(Expr::col("A"), Expr::col("D")), &s).is_none());
        // Int/Time are one family: native comparison is defined.
        assert!(compile(&Expr::lt(Expr::col("A"), Expr::col("T")), &s).is_some());
        assert!(compile(&Expr::eq(Expr::col("B"), Expr::col("B")), &s).is_some());
    }
}
