//! Conventional transformation rules (§4.1): selection and duplicate
//! elimination pushdown, projection composition, commutativity — the
//! multiset rules of Garcia-Molina et al. extended to lists and to the
//! temporal operations, with pre-conditions on the temporal attributes
//! where required.

use crate::equivalence::EquivalenceType;
use crate::expr::{Expr, ProjItem};
use crate::plan::props::Annotations;
use crate::plan::{Path, PlanNode};
use crate::rules::{arc, props_at, Rule, RuleMatch};
use crate::schema::Schema;

/// `σ_P(σ_Q(r)) ≡L σ_Q(σ_P(r))` — selections commute.
pub struct SelectCommute;

impl Rule for SelectCommute {
    fn name(&self) -> &str {
        "select-commute"
    }

    fn equivalence(&self) -> EquivalenceType {
        EquivalenceType::List
    }

    fn try_apply(&self, node: &PlanNode, _path: &Path, _ann: &Annotations) -> Vec<RuleMatch> {
        if let PlanNode::Select {
            input,
            predicate: p,
        } = node
        {
            if let PlanNode::Select {
                input: inner,
                predicate: q,
            } = input.as_ref()
            {
                // Avoid generating both orders twice for identical predicates.
                if p == q {
                    return vec![];
                }
                let replacement = PlanNode::Select {
                    input: arc(PlanNode::Select {
                        input: inner.clone(),
                        predicate: p.clone(),
                    }),
                    predicate: q.clone(),
                };
                return vec![RuleMatch::new(
                    replacement,
                    vec![vec![], vec![0], vec![0, 0]],
                )];
            }
        }
        vec![]
    }
}

/// `σ_P(π(r)) ≡L π(σ_P(r))` when every attribute of `P` is produced by an
/// identity projection item (so `P` is directly evaluable below).
pub struct SelectPastProject;

impl Rule for SelectPastProject {
    fn name(&self) -> &str {
        "select-past-project"
    }

    fn equivalence(&self) -> EquivalenceType {
        EquivalenceType::List
    }

    fn try_apply(&self, node: &PlanNode, _path: &Path, _ann: &Annotations) -> Vec<RuleMatch> {
        if let PlanNode::Select { input, predicate } = node {
            if let PlanNode::Project {
                input: inner,
                items,
            } = input.as_ref()
            {
                let pushable = predicate
                    .attrs()
                    .iter()
                    .all(|a| items.iter().any(|i| i.is_identity() && &i.alias == a));
                if pushable {
                    let replacement = PlanNode::Project {
                        input: arc(PlanNode::Select {
                            input: inner.clone(),
                            predicate: predicate.clone(),
                        }),
                        items: items.clone(),
                    };
                    return vec![RuleMatch::new(
                        replacement,
                        vec![vec![], vec![0], vec![0, 0]],
                    )];
                }
            }
        }
        vec![]
    }
}

/// Rewrite a predicate over `1.x`/`2.x` product attributes into one over the
/// bare names of one side; returns `None` if any attribute belongs to the
/// other side or is unprefixed.
fn strip_side(predicate: &Expr, prefix: &str) -> Option<Expr> {
    let attrs = predicate.attrs();
    if attrs.is_empty() || !attrs.iter().all(|a| a.starts_with(prefix)) {
        return None;
    }
    Some(predicate.map_names(&|n| n[prefix.len()..].to_owned()))
}

/// `σ_P(r1 × r2) ≡L σ_P'(r1) × r2` when `P` only references `1.`-side
/// attributes (and symmetrically for the `2.` side). Also fires on `×ᵀ`,
/// where the side predicate must not touch the fresh `T1`/`T2`
/// (automatically true: those are unprefixed).
pub struct SelectIntoProduct;

impl SelectIntoProduct {
    fn rewrite(
        node: &PlanNode,
        predicate: &Expr,
        left: &std::sync::Arc<PlanNode>,
        right: &std::sync::Arc<PlanNode>,
        temporal: bool,
    ) -> Vec<RuleMatch> {
        let mut out = Vec::new();
        if let Some(p1) = strip_side(predicate, "1.") {
            let new_left = arc(PlanNode::Select {
                input: left.clone(),
                predicate: p1,
            });
            let product = if temporal {
                PlanNode::ProductT {
                    left: new_left,
                    right: right.clone(),
                }
            } else {
                PlanNode::Product {
                    left: new_left,
                    right: right.clone(),
                }
            };
            out.push(RuleMatch::new(
                product,
                vec![vec![], vec![0], vec![0, 0], vec![0, 1]],
            ));
        }
        if let Some(p2) = strip_side(predicate, "2.") {
            let new_right = arc(PlanNode::Select {
                input: right.clone(),
                predicate: p2,
            });
            let product = if temporal {
                PlanNode::ProductT {
                    left: left.clone(),
                    right: new_right,
                }
            } else {
                PlanNode::Product {
                    left: left.clone(),
                    right: new_right,
                }
            };
            out.push(RuleMatch::new(
                product,
                vec![vec![], vec![0], vec![0, 0], vec![0, 1]],
            ));
        }
        let _ = node;
        out
    }
}

impl Rule for SelectIntoProduct {
    fn name(&self) -> &str {
        "select-into-product"
    }

    fn equivalence(&self) -> EquivalenceType {
        EquivalenceType::List
    }

    fn try_apply(&self, node: &PlanNode, _path: &Path, _ann: &Annotations) -> Vec<RuleMatch> {
        if let PlanNode::Select { input, predicate } = node {
            match input.as_ref() {
                PlanNode::Product { left, right } => {
                    return Self::rewrite(node, predicate, left, right, false);
                }
                PlanNode::ProductT { left, right } => {
                    return Self::rewrite(node, predicate, left, right, true);
                }
                _ => {}
            }
        }
        vec![]
    }
}

/// `σ_P(r1 ⊔ r2) ≡L σ_P(r1) ⊔ σ_P(r2)` — selection distributes over
/// union ALL (and, with identical reasoning on per-tuple counts, over `∪`).
pub struct SelectIntoUnion;

impl Rule for SelectIntoUnion {
    fn name(&self) -> &str {
        "select-into-union"
    }

    fn equivalence(&self) -> EquivalenceType {
        EquivalenceType::List
    }

    fn try_apply(&self, node: &PlanNode, _path: &Path, _ann: &Annotations) -> Vec<RuleMatch> {
        if let PlanNode::Select { input, predicate } = node {
            let mk =
                |l: &std::sync::Arc<PlanNode>, r: &std::sync::Arc<PlanNode>, temporal_union: u8| {
                    let sl = arc(PlanNode::Select {
                        input: l.clone(),
                        predicate: predicate.clone(),
                    });
                    let sr = arc(PlanNode::Select {
                        input: r.clone(),
                        predicate: predicate.clone(),
                    });
                    match temporal_union {
                        0 => PlanNode::UnionAll {
                            left: sl,
                            right: sr,
                        },
                        1 => PlanNode::UnionMax {
                            left: sl,
                            right: sr,
                        },
                        _ => PlanNode::UnionT {
                            left: sl,
                            right: sr,
                        },
                    }
                };
            // Guard against the demoted-name mismatch: `∪` and `\` rename
            // `T1`/`T2` to `1.T1`/`1.T2` on temporal inputs, so a predicate
            // over the demoted names cannot be evaluated below them.
            let demoted_free = {
                let attrs = predicate.attrs();
                !attrs.contains("1.T1") && !attrs.contains("1.T2")
            };
            match input.as_ref() {
                PlanNode::UnionAll { left, right } => {
                    return vec![RuleMatch::new(
                        mk(left, right, 0),
                        vec![vec![], vec![0], vec![0, 0], vec![0, 1]],
                    )]
                }
                PlanNode::UnionMax { left, right } if demoted_free => {
                    return vec![RuleMatch::new(
                        mk(left, right, 1),
                        vec![vec![], vec![0], vec![0, 0], vec![0, 1]],
                    )]
                }
                // For ∪ᵀ the predicate must be time-free: the appended
                // right-side fragments carry rewritten periods.
                PlanNode::UnionT { left, right } if predicate.is_time_free() => {
                    return vec![RuleMatch::new(
                        mk(left, right, 2),
                        vec![vec![], vec![0], vec![0, 0], vec![0, 1]],
                    )]
                }
                _ => {}
            }
        }
        vec![]
    }
}

/// `σ_P(r1 \ r2) ≡L σ_P(r1) \ r2` — selection pushes into the left side of
/// a difference. For `\ᵀ` the predicate must be time-free (fragments carry
/// rewritten periods; whole value-equivalence classes are filtered).
pub struct SelectIntoDifference;

impl Rule for SelectIntoDifference {
    fn name(&self) -> &str {
        "select-into-difference"
    }

    fn equivalence(&self) -> EquivalenceType {
        EquivalenceType::List
    }

    fn try_apply(&self, node: &PlanNode, _path: &Path, _ann: &Annotations) -> Vec<RuleMatch> {
        if let PlanNode::Select { input, predicate } = node {
            let demoted_free = {
                let attrs = predicate.attrs();
                !attrs.contains("1.T1") && !attrs.contains("1.T2")
            };
            match input.as_ref() {
                PlanNode::Difference { left, right } if demoted_free => {
                    let replacement = PlanNode::Difference {
                        left: arc(PlanNode::Select {
                            input: left.clone(),
                            predicate: predicate.clone(),
                        }),
                        right: right.clone(),
                    };
                    return vec![RuleMatch::new(
                        replacement,
                        vec![vec![], vec![0], vec![0, 0], vec![0, 1]],
                    )];
                }
                PlanNode::DifferenceT { left, right } if predicate.is_time_free() => {
                    let replacement = PlanNode::DifferenceT {
                        left: arc(PlanNode::Select {
                            input: left.clone(),
                            predicate: predicate.clone(),
                        }),
                        right: right.clone(),
                    };
                    return vec![RuleMatch::new(
                        replacement,
                        vec![vec![], vec![0], vec![0, 0], vec![0, 1]],
                    )];
                }
                _ => {}
            }
        }
        vec![]
    }
}

/// `σ_P(rdup(r)) ≡L rdup(σ_P(r))`, and the temporal counterpart with a
/// time-free predicate (whole classes are kept or dropped, so trimming
/// commutes with filtering).
pub struct SelectPastRdup;

impl Rule for SelectPastRdup {
    fn name(&self) -> &str {
        "select-past-rdup"
    }

    fn equivalence(&self) -> EquivalenceType {
        EquivalenceType::List
    }

    fn try_apply(&self, node: &PlanNode, _path: &Path, _ann: &Annotations) -> Vec<RuleMatch> {
        if let PlanNode::Select { input, predicate } = node {
            let demoted_free = {
                let attrs = predicate.attrs();
                !attrs.contains("1.T1") && !attrs.contains("1.T2")
            };
            match input.as_ref() {
                PlanNode::Rdup { input: inner } if demoted_free => {
                    let replacement = PlanNode::Rdup {
                        input: arc(PlanNode::Select {
                            input: inner.clone(),
                            predicate: predicate.clone(),
                        }),
                    };
                    return vec![RuleMatch::new(
                        replacement,
                        vec![vec![], vec![0], vec![0, 0]],
                    )];
                }
                PlanNode::RdupT { input: inner } if predicate.is_time_free() => {
                    let replacement = PlanNode::RdupT {
                        input: arc(PlanNode::Select {
                            input: inner.clone(),
                            predicate: predicate.clone(),
                        }),
                    };
                    return vec![RuleMatch::new(
                        replacement,
                        vec![vec![], vec![0], vec![0, 0]],
                    )];
                }
                _ => {}
            }
        }
        vec![]
    }
}

/// `σ_P(ξ_{G;F}(r)) ≡L ξ_{G;F}(σ_P(r))` when `P` references grouping
/// attributes only — whole groups are kept or dropped, in first-occurrence
/// order either way. Also covers `ξᵀ` (grouping attributes exclude
/// `T1`/`T2` by construction).
pub struct SelectPastAggregate;

impl Rule for SelectPastAggregate {
    fn name(&self) -> &str {
        "select-past-aggregate"
    }

    fn equivalence(&self) -> EquivalenceType {
        EquivalenceType::List
    }

    fn try_apply(&self, node: &PlanNode, _path: &Path, _ann: &Annotations) -> Vec<RuleMatch> {
        if let PlanNode::Select { input, predicate } = node {
            let attrs = predicate.attrs();
            match input.as_ref() {
                PlanNode::Aggregate {
                    input: inner,
                    group_by,
                    aggs,
                } if attrs.iter().all(|a| group_by.contains(a)) => {
                    let replacement = PlanNode::Aggregate {
                        input: arc(PlanNode::Select {
                            input: inner.clone(),
                            predicate: predicate.clone(),
                        }),
                        group_by: group_by.clone(),
                        aggs: aggs.clone(),
                    };
                    return vec![RuleMatch::new(
                        replacement,
                        vec![vec![], vec![0], vec![0, 0]],
                    )];
                }
                PlanNode::AggregateT {
                    input: inner,
                    group_by,
                    aggs,
                } if attrs.iter().all(|a| group_by.contains(a)) => {
                    let replacement = PlanNode::AggregateT {
                        input: arc(PlanNode::Select {
                            input: inner.clone(),
                            predicate: predicate.clone(),
                        }),
                        group_by: group_by.clone(),
                        aggs: aggs.clone(),
                    };
                    return vec![RuleMatch::new(
                        replacement,
                        vec![vec![], vec![0], vec![0, 0]],
                    )];
                }
                _ => {}
            }
        }
        vec![]
    }
}

/// `π_A(π_B(r)) ≡L π_{A∘B}(r)` — projection cascades compose when the
/// outer items only reference inner aliases by column (no recomputation of
/// inner expressions is attempted beyond substitution).
pub struct ProjectCompose;

/// `π_{A∘B}(r)` for a `node` of the form `π_A(π_B(r))` whose outer items
/// are columns of the inner projection; `None` for any other node. The
/// memo composes every such cascade as it enters
/// ([`crate::memo::Memo::insert_subtree`]), through this same function.
pub fn compose_projections(node: &PlanNode) -> Option<PlanNode> {
    let PlanNode::Project {
        input,
        items: outer,
    } = node
    else {
        return None;
    };
    let PlanNode::Project {
        input: inner_input,
        items: inner,
    } = input.as_ref()
    else {
        return None;
    };
    let composed = outer
        .iter()
        .map(|item| match &item.expr {
            Expr::Col(name) => inner
                .iter()
                .find(|i| &i.alias == name)
                .map(|src| ProjItem::new(src.expr.clone(), item.alias.clone())),
            _ => None, // computed outer items: skip
        })
        .collect::<Option<Vec<_>>>()?;
    Some(PlanNode::Project {
        input: inner_input.clone(),
        items: composed,
    })
}

impl Rule for ProjectCompose {
    fn name(&self) -> &str {
        "project-compose"
    }

    fn equivalence(&self) -> EquivalenceType {
        EquivalenceType::List
    }

    fn try_apply(&self, node: &PlanNode, _path: &Path, _ann: &Annotations) -> Vec<RuleMatch> {
        compose_projections(node)
            .map(|replacement| RuleMatch::new(replacement, vec![vec![], vec![0], vec![0, 0]]))
            .into_iter()
            .collect()
    }
}

/// `rdup(r1 × r2) ≡L rdup(r1) × rdup(r2)` — duplicate elimination pushes
/// into products (pair occurrence order equals the lexicographic order of
/// first occurrences). Left-to-right direction.
pub struct RdupIntoProduct;

impl Rule for RdupIntoProduct {
    fn name(&self) -> &str {
        "rdup-into-product"
    }

    fn equivalence(&self) -> EquivalenceType {
        EquivalenceType::List
    }

    fn try_apply(&self, node: &PlanNode, path: &Path, ann: &Annotations) -> Vec<RuleMatch> {
        if let PlanNode::Rdup { input } = node {
            if let PlanNode::Product { left, right } = input.as_ref() {
                // Schema safety: rdup on temporal inputs demotes names.
                let l_temporal = props_at(ann, path, &[0, 0]).is_none_or(|p| p.stat.is_temporal());
                let r_temporal = props_at(ann, path, &[0, 1]).is_none_or(|p| p.stat.is_temporal());
                if !l_temporal && !r_temporal {
                    let replacement = PlanNode::Product {
                        left: arc(PlanNode::Rdup {
                            input: left.clone(),
                        }),
                        right: arc(PlanNode::Rdup {
                            input: right.clone(),
                        }),
                    };
                    return vec![RuleMatch::new(
                        replacement,
                        vec![vec![], vec![0], vec![0, 0], vec![0, 1]],
                    )];
                }
            }
        }
        vec![]
    }
}

/// `r1 ⊔ r2 ≡M r2 ⊔ r1` — union ALL commutes as a multiset.
pub struct UnionAllCommute;

impl Rule for UnionAllCommute {
    fn name(&self) -> &str {
        "union-all-commute"
    }

    fn equivalence(&self) -> EquivalenceType {
        EquivalenceType::Multiset
    }

    fn try_apply(&self, node: &PlanNode, _path: &Path, _ann: &Annotations) -> Vec<RuleMatch> {
        if let PlanNode::UnionAll { left, right } = node {
            let replacement = PlanNode::UnionAll {
                left: right.clone(),
                right: left.clone(),
            };
            return vec![RuleMatch::new(replacement, vec![vec![], vec![0], vec![1]])];
        }
        vec![]
    }
}

/// `(r1 ⊔ r2) ⊔ r3 ≡L r1 ⊔ (r2 ⊔ r3)` — concatenation associates exactly.
pub struct UnionAllAssocLeft;

impl Rule for UnionAllAssocLeft {
    fn name(&self) -> &str {
        "union-all-assoc"
    }

    fn equivalence(&self) -> EquivalenceType {
        EquivalenceType::List
    }

    fn try_apply(&self, node: &PlanNode, _path: &Path, _ann: &Annotations) -> Vec<RuleMatch> {
        if let PlanNode::UnionAll { left, right } = node {
            if let PlanNode::UnionAll { left: a, right: b } = left.as_ref() {
                let replacement = PlanNode::UnionAll {
                    left: a.clone(),
                    right: arc(PlanNode::UnionAll {
                        left: b.clone(),
                        right: right.clone(),
                    }),
                };
                return vec![RuleMatch::new(
                    replacement,
                    vec![vec![], vec![0], vec![1], vec![0, 0], vec![0, 1]],
                )];
            }
        }
        vec![]
    }
}

/// `r1 ∪ r2 ≡M r2 ∪ r1` — max-union commutes as a multiset.
pub struct UnionMaxCommute;

impl Rule for UnionMaxCommute {
    fn name(&self) -> &str {
        "union-max-commute"
    }

    fn equivalence(&self) -> EquivalenceType {
        EquivalenceType::Multiset
    }

    fn try_apply(&self, node: &PlanNode, _path: &Path, _ann: &Annotations) -> Vec<RuleMatch> {
        if let PlanNode::UnionMax { left, right } = node {
            let replacement = PlanNode::UnionMax {
                left: right.clone(),
                right: left.clone(),
            };
            return vec![RuleMatch::new(replacement, vec![vec![], vec![0], vec![1]])];
        }
        vec![]
    }
}

/// `r1 ∪ᵀ r2 ≡SM r2 ∪ᵀ r1` — temporal max-union commutes only up to
/// snapshots (one of the §4.1 rules "weaker than ≡M": the surplus
/// fragments are cut differently on each side).
pub struct UnionTCommute;

impl Rule for UnionTCommute {
    fn name(&self) -> &str {
        "union-t-commute"
    }

    fn equivalence(&self) -> EquivalenceType {
        EquivalenceType::SnapshotMultiset
    }

    fn try_apply(&self, node: &PlanNode, _path: &Path, _ann: &Annotations) -> Vec<RuleMatch> {
        if let PlanNode::UnionT { left, right } = node {
            let replacement = PlanNode::UnionT {
                left: right.clone(),
                right: left.clone(),
            };
            return vec![RuleMatch::new(replacement, vec![vec![], vec![0], vec![1]])];
        }
        vec![]
    }
}

/// `r1 × r2 ≡M π_remap(r2 × r1)` — product commutativity, with a
/// projection restoring the `1.`/`2.` prefixes of the original schema.
pub struct ProductCommute;

fn remap_items(left_schema: &Schema, right_schema: &Schema) -> Vec<ProjItem> {
    // Original output: 1.<left attrs>, 2.<right attrs>.
    // Swapped output:  1.<right attrs>, 2.<left attrs>.
    let mut items = Vec::with_capacity(left_schema.arity() + right_schema.arity());
    for a in left_schema.attrs() {
        items.push(ProjItem::new(
            Expr::col(format!("2.{}", a.name)),
            format!("1.{}", a.name),
        ));
    }
    for a in right_schema.attrs() {
        items.push(ProjItem::new(
            Expr::col(format!("1.{}", a.name)),
            format!("2.{}", a.name),
        ));
    }
    items
}

impl Rule for ProductCommute {
    fn name(&self) -> &str {
        "product-commute"
    }

    fn equivalence(&self) -> EquivalenceType {
        EquivalenceType::Multiset
    }

    fn try_apply(&self, node: &PlanNode, path: &Path, ann: &Annotations) -> Vec<RuleMatch> {
        if let PlanNode::Product { left, right } = node {
            let (lp, rp) = match (props_at(ann, path, &[0]), props_at(ann, path, &[1])) {
                (Some(l), Some(r)) => (l, r),
                _ => return vec![],
            };
            let items = remap_items(&lp.stat.schema, &rp.stat.schema);
            let replacement = PlanNode::Project {
                input: arc(PlanNode::Product {
                    left: right.clone(),
                    right: left.clone(),
                }),
                items,
            };
            return vec![RuleMatch::new(replacement, vec![vec![], vec![0], vec![1]])];
        }
        vec![]
    }
}

/// `r1 ×ᵀ r2 ≡M π_remap(r2 ×ᵀ r1)` — temporal product commutativity; the
/// fresh intersection period `T1`/`T2` is kept, the retained timestamps are
/// swapped back by the projection. Multiset only: the pair order within
/// the result differs between the two sides.
pub struct ProductTCommute;

impl Rule for ProductTCommute {
    fn name(&self) -> &str {
        "product-t-commute"
    }

    fn equivalence(&self) -> EquivalenceType {
        EquivalenceType::Multiset
    }

    fn try_apply(&self, node: &PlanNode, path: &Path, ann: &Annotations) -> Vec<RuleMatch> {
        if let PlanNode::ProductT { left, right } = node {
            let (lp, rp) = match (props_at(ann, path, &[0]), props_at(ann, path, &[1])) {
                (Some(l), Some(r)) => (l, r),
                _ => return vec![],
            };
            let mut items = remap_items(&lp.stat.schema, &rp.stat.schema);
            items.push(ProjItem::col(crate::schema::T1));
            items.push(ProjItem::col(crate::schema::T2));
            let replacement = PlanNode::Project {
                input: arc(PlanNode::ProductT {
                    left: right.clone(),
                    right: left.clone(),
                }),
                items,
            };
            return vec![RuleMatch::new(replacement, vec![vec![], vec![0], vec![1]])];
        }
        vec![]
    }
}

/// All conventional rules.
pub fn rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(SelectCommute),
        Box::new(SelectPastProject),
        Box::new(SelectIntoProduct),
        Box::new(SelectIntoUnion),
        Box::new(SelectIntoDifference),
        Box::new(SelectPastRdup),
        Box::new(SelectPastAggregate),
        Box::new(ProjectCompose),
        Box::new(RdupIntoProduct),
        Box::new(UnionAllCommute),
        Box::new(UnionAllAssocLeft),
        Box::new(UnionMaxCommute),
        Box::new(UnionTCommute),
        Box::new(ProductCommute),
        Box::new(ProductTCommute),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::BinOp;
    use crate::plan::props::annotate;
    use crate::plan::{BaseProps, LogicalPlan, PlanBuilder};
    use crate::value::DataType;

    fn scan(name: &str) -> PlanBuilder {
        let s = Schema::of(&[("A", DataType::Int), ("B", DataType::Str)]);
        PlanBuilder::scan(name, BaseProps::unordered(s, 100))
    }

    fn tscan(name: &str) -> PlanBuilder {
        let s = Schema::temporal(&[("E", DataType::Str)]);
        PlanBuilder::scan(name, BaseProps::unordered(s, 100))
    }

    fn try_at_root(rule: &dyn Rule, plan: &LogicalPlan) -> Vec<RuleMatch> {
        let ann = annotate(plan).unwrap();
        rule.try_apply(&plan.root, &vec![], &ann)
    }

    fn pred(col: &str, v: i64) -> Expr {
        Expr::bin(BinOp::Gt, Expr::col(col), Expr::lit(v))
    }

    #[test]
    fn select_commute_swaps() {
        let plan = scan("R")
            .select(pred("A", 1))
            .select(pred("A", 2))
            .build_multiset();
        let m = try_at_root(&SelectCommute, &plan);
        assert_eq!(m.len(), 1);
        match &m[0].replacement {
            PlanNode::Select { predicate, .. } => assert_eq!(*predicate, pred("A", 1)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn select_into_product_sides() {
        let left_pred = scan("R")
            .product(scan("S"))
            .select(pred("1.A", 5))
            .build_multiset();
        let m = try_at_root(&SelectIntoProduct, &left_pred);
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].replacement.get(&[0]).unwrap().op_name(), "σ");
        // A mixed predicate cannot push.
        let mixed = scan("R")
            .product(scan("S"))
            .select(Expr::eq(Expr::col("1.A"), Expr::col("2.A")))
            .build_multiset();
        assert!(try_at_root(&SelectIntoProduct, &mixed).is_empty());
    }

    #[test]
    fn select_into_union_distributes() {
        let plan = scan("R")
            .union_all(scan("S"))
            .select(pred("A", 0))
            .build_multiset();
        let m = try_at_root(&SelectIntoUnion, &plan);
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].replacement.op_name(), "⊔");
        assert_eq!(m[0].replacement.get(&[0]).unwrap().op_name(), "σ");
        assert_eq!(m[0].replacement.get(&[1]).unwrap().op_name(), "σ");
    }

    #[test]
    fn select_into_temporal_difference_requires_time_free() {
        let good = tscan("A")
            .difference_t(tscan("B"))
            .select(Expr::eq(Expr::col("E"), Expr::lit("x")))
            .build_multiset();
        assert_eq!(try_at_root(&SelectIntoDifference, &good).len(), 1);
        let bad = tscan("A")
            .difference_t(tscan("B"))
            .select(pred("T1", 3))
            .build_multiset();
        assert!(try_at_root(&SelectIntoDifference, &bad).is_empty());
    }

    #[test]
    fn select_past_aggregate_on_group_keys_only() {
        use crate::expr::{AggFunc, AggItem};
        let good = scan("R")
            .aggregate(
                vec!["B".into()],
                vec![AggItem::new(AggFunc::Sum, Some("A"), "s")],
            )
            .select(Expr::eq(Expr::col("B"), Expr::lit("x")))
            .build_multiset();
        assert_eq!(try_at_root(&SelectPastAggregate, &good).len(), 1);
        let bad = scan("R")
            .aggregate(
                vec!["B".into()],
                vec![AggItem::new(AggFunc::Sum, Some("A"), "s")],
            )
            .select(pred("s", 10))
            .build_multiset();
        assert!(try_at_root(&SelectPastAggregate, &bad).is_empty());
    }

    #[test]
    fn project_compose_substitutes() {
        let plan = scan("R")
            .project(vec![
                ProjItem::new(Expr::bin(BinOp::Add, Expr::col("A"), Expr::lit(1i64)), "A1"),
                ProjItem::col("B"),
            ])
            .project(vec![ProjItem::new(Expr::col("A1"), "X")])
            .build_multiset();
        let m = try_at_root(&ProjectCompose, &plan);
        assert_eq!(m.len(), 1);
        match &m[0].replacement {
            PlanNode::Project { items, input } => {
                assert_eq!(items.len(), 1);
                assert_eq!(items[0].alias, "X");
                assert!(matches!(items[0].expr, Expr::Bin { .. }));
                assert_eq!(input.op_name(), "scan");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn product_commute_wraps_in_remap_projection() {
        let plan = scan("R").product(scan("S")).build_multiset();
        let m = try_at_root(&ProductCommute, &plan);
        assert_eq!(m.len(), 1);
        match &m[0].replacement {
            PlanNode::Project { items, input } => {
                assert_eq!(input.op_name(), "×");
                assert_eq!(items[0].alias, "1.A");
                assert!(matches!(&items[0].expr, Expr::Col(c) if c == "2.A"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rdup_into_product_snapshot_inputs_only() {
        let good = scan("R").product(scan("S")).rdup().build_multiset();
        assert_eq!(try_at_root(&RdupIntoProduct, &good).len(), 1);
        let bad = tscan("A").product(tscan("B")).rdup().build_multiset();
        assert!(try_at_root(&RdupIntoProduct, &bad).is_empty());
    }

    #[test]
    fn union_all_assoc_exact() {
        let plan = scan("R")
            .union_all(scan("S"))
            .union_all(scan("U"))
            .build_multiset();
        let m = try_at_root(&UnionAllAssocLeft, &plan);
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].replacement.get(&[1]).unwrap().op_name(), "⊔");
    }
}
