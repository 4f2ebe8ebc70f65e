//! Physical plans: logical operators bound to concrete algorithms.

use std::fmt;
use std::sync::Arc;

use tqo_core::error::{Error, Result};
use tqo_core::expr::{AggItem, Expr, ProjItem};
use tqo_core::schema::Schema;
use tqo_core::sortspec::Order;
use tqo_core::value::DataType;

/// The equality conjuncts `left = right` a hash product matches on, by
/// attribute name in the product's output schema (`1.`-prefixed left,
/// `2.`-prefixed right). Chosen by `planner::lower` from the `Select`
/// directly above the product; the engines only resolve the names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EquiKeys(pub Vec<(String, String)>);

impl EquiKeys {
    /// Key column positions in the left and right input, pairwise. Errors
    /// when a name is not a column of its side or a pair's domains differ
    /// (the kernels compare keys within one domain; floats are excluded
    /// because `-0.0 = 0.0` while their bits differ).
    pub fn resolve(&self, left: &Schema, right: &Schema) -> Result<(Vec<usize>, Vec<usize>)> {
        let side = |schema: &Schema, prefix: &str, name: &str| {
            schema.resolve(name.strip_prefix(prefix).unwrap_or(name))
        };
        let mut positions = (Vec::new(), Vec::new());
        for (l, r) in &self.0 {
            let (li, ri) = (side(left, "1.", l)?, side(right, "2.", r)?);
            let (lt, rt) = (left.attr(li).dtype, right.attr(ri).dtype);
            if lt != rt || lt == DataType::Float {
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

/// Algorithm choice for `×`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProductAlgo {
    /// Left-major nested loop — exact list output, `O(n·m)`.
    NestedLoop,
    /// Hash join on the keys: the sub-list of the nested loop's output
    /// that satisfies the key equalities, `O(n + m + out)`. Only below the
    /// `Select` the keys came from, which restores `σ(×)` exactly.
    HashEqui(EquiKeys),
}

/// Algorithm choice for `×ᵀ`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProductTAlgo {
    /// Endpoint plane sweep, pairs sorted back into the nested loop's
    /// order — exact list output, `O((n + m) log(n + m))` plus sorting the
    /// output.
    Sweep,
    /// Hash join on the keys, period-overlapping pairs only: the sub-list
    /// of the sweep's output that satisfies the key equalities.
    HashEqui(EquiKeys),
}

/// A physical operator tree. Parameters mirror
/// [`tqo_core::plan::PlanNode`]; the two products carry their algorithm.
/// Every other operator has exactly one, and every algorithm's output is
/// the operator's own list.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // field names mirror `PlanNode`; the variants are documented
pub enum PhysicalNode {
    /// Read a named base relation.
    Scan { name: String },
    /// Filter rows by a predicate (`σ`).
    Select {
        input: Arc<PhysicalNode>,
        predicate: Expr,
    },
    /// Evaluate projection items per row (`π`).
    Project {
        input: Arc<PhysicalNode>,
        items: Vec<ProjItem>,
    },
    /// Bag union: left's rows, then right's (`∪all`).
    UnionAll {
        left: Arc<PhysicalNode>,
        right: Arc<PhysicalNode>,
    },
    /// Cartesian product (`×`) with its chosen algorithm.
    Product {
        left: Arc<PhysicalNode>,
        right: Arc<PhysicalNode>,
        algo: ProductAlgo,
    },
    /// Multiset difference via a hash count table (`\`).
    Difference {
        left: Arc<PhysicalNode>,
        right: Arc<PhysicalNode>,
    },
    /// Hash-grouped aggregation (`ξ`).
    Aggregate {
        input: Arc<PhysicalNode>,
        group_by: Vec<String>,
        aggs: Vec<AggItem>,
    },
    /// Hash duplicate elimination (`rdup`).
    Rdup { input: Arc<PhysicalNode> },
    /// Set union keeping the larger multiplicity (`∪max`).
    UnionMax {
        left: Arc<PhysicalNode>,
        right: Arc<PhysicalNode>,
    },
    /// Stable sort (`sort`).
    Sort {
        input: Arc<PhysicalNode>,
        order: Order,
    },
    /// Prefix truncation (`LIMIT n OFFSET k`).
    Limit {
        input: Arc<PhysicalNode>,
        limit: Option<usize>,
        offset: usize,
    },
    /// Temporal Cartesian product (`×ᵀ`) with its chosen algorithm.
    ProductT {
        left: Arc<PhysicalNode>,
        right: Arc<PhysicalNode>,
        algo: ProductTAlgo,
    },
    /// Temporal difference (`\ᵀ`): per-class count timelines, `O(n log n)`.
    DifferenceT {
        left: Arc<PhysicalNode>,
        right: Arc<PhysicalNode>,
    },
    /// Temporal aggregation over constant intervals (`ξᵀ`): one endpoint
    /// sweep per group, `O(n log n)` plus the output, and
    /// `O(live)` more per interval for float `SUM` and `AVG`. Its output
    /// is the definition's own list, so it needs no Table 2 license.
    AggregateT {
        input: Arc<PhysicalNode>,
        group_by: Vec<String>,
        aggs: Vec<AggItem>,
    },
    /// Temporal duplicate elimination (`rdupᵀ`): per-class claims in list
    /// order — the list the paper's head/tail recursion produces,
    /// `O(n log n)`.
    RdupT { input: Arc<PhysicalNode> },
    /// Temporal union (`∪ᵀ`).
    UnionT {
        left: Arc<PhysicalNode>,
        right: Arc<PhysicalNode>,
    },
    /// Period coalescing (`coalᵀ`): per-(class, instant) chains walked in
    /// list order — the fixpoint's list, `O(n)` after hashing.
    Coalesce { input: Arc<PhysicalNode> },
    /// DBMS→stratum transfer: executes as identity but is metered (rows
    /// moved).
    TransferS { input: Arc<PhysicalNode> },
    /// Stratum→DBMS transfer: executes as identity but is metered.
    TransferD { input: Arc<PhysicalNode> },
}

impl PhysicalNode {
    /// Operator label including the algorithm, for metrics and EXPLAIN.
    pub fn label(&self) -> String {
        match self {
            PhysicalNode::Scan { name } => format!("scan({name})"),
            PhysicalNode::Select { .. } => "select".into(),
            PhysicalNode::Project { .. } => "project".into(),
            PhysicalNode::UnionAll { .. } => "union-all".into(),
            PhysicalNode::Product { algo, .. } => match algo {
                ProductAlgo::NestedLoop => "product".into(),
                ProductAlgo::HashEqui(keys) => format!("product[HashEqui({keys})]"),
            },
            PhysicalNode::Difference { .. } => "difference".into(),
            PhysicalNode::Aggregate { .. } => "aggregate".into(),
            PhysicalNode::Rdup { .. } => "rdup[hash]".into(),
            PhysicalNode::UnionMax { .. } => "union-max".into(),
            PhysicalNode::Sort { .. } => "sort[stable]".into(),
            PhysicalNode::Limit { limit, offset, .. } => match limit {
                Some(n) => format!("limit[{n} offset {offset}]"),
                None => format!("limit[all offset {offset}]"),
            },
            PhysicalNode::ProductT { algo, .. } => match algo {
                ProductTAlgo::Sweep => "product-t".into(),
                ProductTAlgo::HashEqui(keys) => format!("product-t[HashEqui({keys})]"),
            },
            PhysicalNode::DifferenceT { .. } => "difference-t".into(),
            PhysicalNode::AggregateT { .. } => "aggregate-t[sweep]".into(),
            PhysicalNode::RdupT { .. } => "rdup-t".into(),
            PhysicalNode::UnionT { .. } => "union-t".into(),
            PhysicalNode::Coalesce { .. } => "coalesce".into(),
            PhysicalNode::TransferS { .. } => "transfer-s".into(),
            PhysicalNode::TransferD { .. } => "transfer-d".into(),
        }
    }

    /// The node's children, unary inputs first.
    pub fn children(&self) -> Vec<&Arc<PhysicalNode>> {
        match self {
            PhysicalNode::Scan { .. } => vec![],
            PhysicalNode::Select { input, .. }
            | PhysicalNode::Project { input, .. }
            | PhysicalNode::Aggregate { input, .. }
            | PhysicalNode::Rdup { input }
            | PhysicalNode::Sort { input, .. }
            | PhysicalNode::Limit { input, .. }
            | PhysicalNode::AggregateT { input, .. }
            | PhysicalNode::RdupT { input }
            | PhysicalNode::Coalesce { input }
            | PhysicalNode::TransferS { input }
            | PhysicalNode::TransferD { input } => vec![input],
            PhysicalNode::UnionAll { left, right }
            | PhysicalNode::Product { left, right, .. }
            | PhysicalNode::Difference { left, right }
            | PhysicalNode::UnionMax { left, right }
            | PhysicalNode::ProductT { left, right, .. }
            | PhysicalNode::DifferenceT { left, right }
            | PhysicalNode::UnionT { left, right } => vec![left, right],
        }
    }

    /// Number of operators in the subtree rooted here.
    pub fn size(&self) -> usize {
        1 + self.children().iter().map(|c| c.size()).sum::<usize>()
    }

    /// Rebuild this node with new children (same arity required) —
    /// algorithm choices and parameters are kept. Mirrors
    /// [`tqo_core::plan::PlanNode::with_children`].
    pub fn with_children(&self, mut new: Vec<Arc<PhysicalNode>>) -> Result<PhysicalNode> {
        let expect = self.children().len();
        if new.len() != expect {
            return Err(Error::Plan {
                reason: format!(
                    "physical {} expects {expect} children, got {}",
                    self.label(),
                    new.len()
                ),
            });
        }
        let mut next = || new.remove(0);
        Ok(match self {
            PhysicalNode::Scan { name } => PhysicalNode::Scan { name: name.clone() },
            PhysicalNode::Select { predicate, .. } => PhysicalNode::Select {
                input: next(),
                predicate: predicate.clone(),
            },
            PhysicalNode::Project { items, .. } => PhysicalNode::Project {
                input: next(),
                items: items.clone(),
            },
            PhysicalNode::UnionAll { .. } => PhysicalNode::UnionAll {
                left: next(),
                right: next(),
            },
            PhysicalNode::Product { algo, .. } => PhysicalNode::Product {
                left: next(),
                right: next(),
                algo: algo.clone(),
            },
            PhysicalNode::Difference { .. } => PhysicalNode::Difference {
                left: next(),
                right: next(),
            },
            PhysicalNode::Aggregate { group_by, aggs, .. } => PhysicalNode::Aggregate {
                input: next(),
                group_by: group_by.clone(),
                aggs: aggs.clone(),
            },
            PhysicalNode::Rdup { .. } => PhysicalNode::Rdup { input: next() },
            PhysicalNode::UnionMax { .. } => PhysicalNode::UnionMax {
                left: next(),
                right: next(),
            },
            PhysicalNode::Sort { order, .. } => PhysicalNode::Sort {
                input: next(),
                order: order.clone(),
            },
            PhysicalNode::Limit { limit, offset, .. } => PhysicalNode::Limit {
                input: next(),
                limit: *limit,
                offset: *offset,
            },
            PhysicalNode::ProductT { algo, .. } => PhysicalNode::ProductT {
                left: next(),
                right: next(),
                algo: algo.clone(),
            },
            PhysicalNode::DifferenceT { .. } => PhysicalNode::DifferenceT {
                left: next(),
                right: next(),
            },
            PhysicalNode::AggregateT { group_by, aggs, .. } => PhysicalNode::AggregateT {
                input: next(),
                group_by: group_by.clone(),
                aggs: aggs.clone(),
            },
            PhysicalNode::RdupT { .. } => PhysicalNode::RdupT { input: next() },
            PhysicalNode::UnionT { .. } => PhysicalNode::UnionT {
                left: next(),
                right: next(),
            },
            PhysicalNode::Coalesce { .. } => PhysicalNode::Coalesce { input: next() },
            PhysicalNode::TransferS { .. } => PhysicalNode::TransferS { input: next() },
            PhysicalNode::TransferD { .. } => PhysicalNode::TransferD { input: next() },
        })
    }
}

/// A rooted physical plan.
#[derive(Debug, Clone, PartialEq)]
pub struct PhysicalPlan {
    /// The root operator.
    pub root: Arc<PhysicalNode>,
    /// Estimated output rows per node in post-order (the order both
    /// engines emit [`crate::metrics::OperatorMetrics`]), from the
    /// optimizer's `DerivedStats`. Empty for hand-built plans; the
    /// executors then report no estimates.
    pub estimates: Vec<Option<u64>>,
}

impl PhysicalPlan {
    /// A plan rooted at `root`, with no estimates attached.
    pub fn new(root: PhysicalNode) -> PhysicalPlan {
        PhysicalPlan {
            root: Arc::new(root),
            estimates: Vec::new(),
        }
    }

    /// Attach post-order per-node row estimates (see [`PhysicalPlan::estimates`]).
    pub fn with_estimates(mut self, estimates: Vec<Option<u64>>) -> PhysicalPlan {
        self.estimates = estimates;
        self
    }

    /// Textual EXPLAIN of the physical tree.
    pub fn explain(&self) -> String {
        fn render(node: &PhysicalNode, indent: usize, out: &mut String) {
            out.push_str(&"  ".repeat(indent));
            out.push_str(&node.label());
            out.push('\n');
            for c in node.children() {
                render(c, indent + 1, out);
            }
        }
        let mut out = String::new();
        render(&self.root, 0, &mut out);
        out
    }
}

impl fmt::Display for PhysicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.explain())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_include_algorithms() {
        let scan = Arc::new(PhysicalNode::Scan { name: "R".into() });
        let n = PhysicalNode::ProductT {
            left: scan.clone(),
            right: scan,
            algo: ProductTAlgo::HashEqui(EquiKeys(vec![("1.E".into(), "2.E".into())])),
        };
        assert_eq!(n.label(), "product-t[HashEqui(1.E=2.E)]");
        assert_eq!(n.size(), 3);
    }

    #[test]
    fn explain_renders_tree() {
        let scan = Arc::new(PhysicalNode::Scan { name: "R".into() });
        let plan = PhysicalPlan::new(PhysicalNode::Coalesce {
            input: Arc::new(PhysicalNode::RdupT { input: scan }),
        });
        let text = plan.explain();
        assert!(text.contains("coalesce\n"));
        assert!(text.contains("  rdup-t\n"));
        assert!(text.contains("    scan(R)"));
    }
}
