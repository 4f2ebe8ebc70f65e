//! Logical query plans: operator trees over the extended algebra.
//!
//! Plans are immutable trees with `Arc`-shared children, so the enumeration
//! algorithm can hold thousands of plans that share untouched subtrees.
//! Nodes are addressed by *paths* — sequences of child indices from the
//! root — which is how transformation rules name the location they fire at
//! (Definition 5.1's "location `l` in the plan").

pub mod builder;
pub mod display;
pub mod equi;
pub mod props;

use serde::{Deserialize, Serialize};
use std::sync::Arc;

use crate::error::{Error, Result};
use crate::expr::{AggItem, Expr, ProjItem};
use crate::sortspec::Order;

pub use builder::PlanBuilder;
pub use equi::{equi_keys, EquiKeys};
pub use props::{BaseProps, NodeProps, PropsFlags, StaticProps};

/// Where an operation executes in the layered architecture (§2.1): in the
/// stratum or in the underlying conventional DBMS.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Site {
    /// The thin temporal layer on top of the DBMS.
    Stratum,
    /// The underlying conventional DBMS.
    Dbms,
}

impl Site {
    /// The site on the far side of a transfer from `self`.
    pub fn flipped(self) -> Site {
        match self {
            Site::Stratum => Site::Dbms,
            Site::Dbms => Site::Stratum,
        }
    }
}

/// A path from the root to a node: child indices.
pub type Path = Vec<usize>;

/// One operator of a logical plan.
///
/// Binary nodes order their children `[left, right]`; unary nodes have one
/// child. `Scan` is the only leaf and carries the base relation's statically
/// known properties inline, so plans are self-contained.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)] // every variant is documented; the field names are uniform
pub enum PlanNode {
    /// Base-relation access.
    Scan { name: String, base: BaseProps },
    /// Selection `σ_P`.
    Select {
        input: Arc<PlanNode>,
        predicate: Expr,
    },
    /// Projection `π_{f1..fn}`.
    Project {
        input: Arc<PlanNode>,
        items: Vec<ProjItem>,
    },
    /// Union ALL `⊔`.
    UnionAll {
        left: Arc<PlanNode>,
        right: Arc<PlanNode>,
    },
    /// Cartesian product `×`.
    Product {
        left: Arc<PlanNode>,
        right: Arc<PlanNode>,
    },
    /// Multiset difference `\`.
    Difference {
        left: Arc<PlanNode>,
        right: Arc<PlanNode>,
    },
    /// Aggregation `ξ`.
    Aggregate {
        input: Arc<PlanNode>,
        group_by: Vec<String>,
        aggs: Vec<AggItem>,
    },
    /// Duplicate elimination `rdup`.
    Rdup { input: Arc<PlanNode> },
    /// Max-union `∪`.
    UnionMax {
        left: Arc<PlanNode>,
        right: Arc<PlanNode>,
    },
    /// Sorting `sort_A`.
    Sort { input: Arc<PlanNode>, order: Order },
    /// Prefix truncation: skip `offset` tuples, keep at most `limit`.
    /// Order-sensitive by definition; placed at the plan root above the
    /// final `sort` by the binder (`LIMIT n [OFFSET k]`).
    Limit {
        input: Arc<PlanNode>,
        limit: Option<usize>,
        offset: usize,
    },
    /// Temporal Cartesian product `×ᵀ`.
    ProductT {
        left: Arc<PlanNode>,
        right: Arc<PlanNode>,
    },
    /// Temporal difference `\ᵀ`.
    DifferenceT {
        left: Arc<PlanNode>,
        right: Arc<PlanNode>,
    },
    /// Temporal aggregation `ξᵀ`.
    AggregateT {
        input: Arc<PlanNode>,
        group_by: Vec<String>,
        aggs: Vec<AggItem>,
    },
    /// Temporal duplicate elimination `rdupᵀ`.
    RdupT { input: Arc<PlanNode> },
    /// Temporal max-union `∪ᵀ`.
    UnionT {
        left: Arc<PlanNode>,
        right: Arc<PlanNode>,
    },
    /// Coalescing `coalᵀ`.
    Coalesce { input: Arc<PlanNode> },
    /// Transfer DBMS → stratum (`Tˢ`): the subtree below executes in the
    /// DBMS; the result becomes available to the stratum.
    TransferS { input: Arc<PlanNode> },
    /// Transfer stratum → DBMS (`Tᴰ`).
    TransferD { input: Arc<PlanNode> },
}

impl PlanNode {
    /// The operator's display name (used by rule traces and plan printing).
    pub fn op_name(&self) -> &'static str {
        match self {
            PlanNode::Scan { .. } => "scan",
            PlanNode::Select { .. } => "σ",
            PlanNode::Project { .. } => "π",
            PlanNode::UnionAll { .. } => "⊔",
            PlanNode::Product { .. } => "×",
            PlanNode::Difference { .. } => "\\",
            PlanNode::Aggregate { .. } => "ξ",
            PlanNode::Rdup { .. } => "rdup",
            PlanNode::UnionMax { .. } => "∪",
            PlanNode::Sort { .. } => "sort",
            PlanNode::Limit { .. } => "limit",
            PlanNode::ProductT { .. } => "×T",
            PlanNode::DifferenceT { .. } => "\\T",
            PlanNode::AggregateT { .. } => "ξT",
            PlanNode::RdupT { .. } => "rdupT",
            PlanNode::UnionT { .. } => "∪T",
            PlanNode::Coalesce { .. } => "coalT",
            PlanNode::TransferS { .. } => "TS",
            PlanNode::TransferD { .. } => "TD",
        }
    }

    /// Children, left to right.
    pub fn children(&self) -> Vec<&Arc<PlanNode>> {
        match self {
            PlanNode::Scan { .. } => vec![],
            PlanNode::Select { input, .. }
            | PlanNode::Project { input, .. }
            | PlanNode::Aggregate { input, .. }
            | PlanNode::Rdup { input }
            | PlanNode::Sort { input, .. }
            | PlanNode::Limit { input, .. }
            | PlanNode::AggregateT { input, .. }
            | PlanNode::RdupT { input }
            | PlanNode::Coalesce { input }
            | PlanNode::TransferS { input }
            | PlanNode::TransferD { input } => vec![input],
            PlanNode::UnionAll { left, right }
            | PlanNode::Product { left, right }
            | PlanNode::Difference { left, right }
            | PlanNode::UnionMax { left, right }
            | PlanNode::ProductT { left, right }
            | PlanNode::DifferenceT { left, right }
            | PlanNode::UnionT { left, right } => vec![left, right],
        }
    }

    /// Rebuild this node with new children (same arity required).
    pub fn with_children(&self, mut new: Vec<Arc<PlanNode>>) -> Result<PlanNode> {
        let expect = self.children().len();
        if new.len() != expect {
            return Err(Error::Plan {
                reason: format!(
                    "{} expects {expect} children, got {}",
                    self.op_name(),
                    new.len()
                ),
            });
        }
        let mut next = || new.remove(0);
        Ok(match self {
            PlanNode::Scan { name, base } => PlanNode::Scan {
                name: name.clone(),
                base: base.clone(),
            },
            PlanNode::Select { predicate, .. } => PlanNode::Select {
                input: next(),
                predicate: predicate.clone(),
            },
            PlanNode::Project { items, .. } => PlanNode::Project {
                input: next(),
                items: items.clone(),
            },
            PlanNode::UnionAll { .. } => PlanNode::UnionAll {
                left: next(),
                right: next(),
            },
            PlanNode::Product { .. } => PlanNode::Product {
                left: next(),
                right: next(),
            },
            PlanNode::Difference { .. } => PlanNode::Difference {
                left: next(),
                right: next(),
            },
            PlanNode::Aggregate { group_by, aggs, .. } => PlanNode::Aggregate {
                input: next(),
                group_by: group_by.clone(),
                aggs: aggs.clone(),
            },
            PlanNode::Rdup { .. } => PlanNode::Rdup { input: next() },
            PlanNode::UnionMax { .. } => PlanNode::UnionMax {
                left: next(),
                right: next(),
            },
            PlanNode::Sort { order, .. } => PlanNode::Sort {
                input: next(),
                order: order.clone(),
            },
            PlanNode::Limit { limit, offset, .. } => PlanNode::Limit {
                input: next(),
                limit: *limit,
                offset: *offset,
            },
            PlanNode::ProductT { .. } => PlanNode::ProductT {
                left: next(),
                right: next(),
            },
            PlanNode::DifferenceT { .. } => PlanNode::DifferenceT {
                left: next(),
                right: next(),
            },
            PlanNode::AggregateT { group_by, aggs, .. } => PlanNode::AggregateT {
                input: next(),
                group_by: group_by.clone(),
                aggs: aggs.clone(),
            },
            PlanNode::RdupT { .. } => PlanNode::RdupT { input: next() },
            PlanNode::UnionT { .. } => PlanNode::UnionT {
                left: next(),
                right: next(),
            },
            PlanNode::Coalesce { .. } => PlanNode::Coalesce { input: next() },
            PlanNode::TransferS { .. } => PlanNode::TransferS { input: next() },
            PlanNode::TransferD { .. } => PlanNode::TransferD { input: next() },
        })
    }

    /// The node at `path`, or an error for a dangling path.
    pub fn get(&self, path: &[usize]) -> Result<&PlanNode> {
        let mut node = self;
        for &i in path {
            node = node
                .children()
                .get(i)
                .copied()
                .map(|c| c.as_ref())
                .ok_or_else(|| Error::Plan {
                    reason: format!("dangling path index {i}"),
                })?;
        }
        Ok(node)
    }

    /// A new tree with the subtree at `path` replaced by `subtree`.
    /// Untouched siblings are shared, not cloned.
    pub fn replace(&self, path: &[usize], subtree: PlanNode) -> Result<PlanNode> {
        if path.is_empty() {
            return Ok(subtree);
        }
        let (head, rest) = (path[0], &path[1..]);
        let children = self.children();
        let target = children.get(head).ok_or_else(|| Error::Plan {
            reason: format!("dangling path index {head}"),
        })?;
        let replaced = target.replace(rest, subtree)?;
        let new_children: Vec<Arc<PlanNode>> = children
            .iter()
            .enumerate()
            .map(|(i, c)| {
                if i == head {
                    Arc::new(replaced.clone())
                } else {
                    Arc::clone(c)
                }
            })
            .collect();
        self.with_children(new_children)
    }

    /// All node paths, in pre-order (root first).
    pub fn paths(&self) -> Vec<Path> {
        let mut out = Vec::new();
        let mut stack: Vec<(Path, &PlanNode)> = vec![(Vec::new(), self)];
        while let Some((path, node)) = stack.pop() {
            for (i, c) in node.children().iter().enumerate().rev() {
                let mut p = path.clone();
                p.push(i);
                stack.push((p, c));
            }
            out.push(path);
        }
        out
    }

    /// Number of nodes.
    pub fn size(&self) -> usize {
        1 + self.children().iter().map(|c| c.size()).sum::<usize>()
    }

    /// Depth of the tree (a single node has depth 1).
    pub fn depth(&self) -> usize {
        1 + self.children().iter().map(|c| c.depth()).max().unwrap_or(0)
    }

    /// The execution site of this node's children when the node itself
    /// runs at `site` (§4.5): below `Tˢ` is the DBMS, below `Tᴰ` the
    /// stratum, and every other operation keeps its own site.
    pub fn child_site(&self, site: Site) -> Site {
        match self {
            PlanNode::TransferS { .. } => Site::Dbms,
            PlanNode::TransferD { .. } => Site::Stratum,
            _ => site,
        }
    }

    /// Execution site of every node, top-down (Table 2 context). The root
    /// runs at `root_site`; see [`PlanNode::child_site`].
    pub fn sites(&self, root_site: Site) -> Vec<(Path, Site)> {
        let mut out = Vec::new();
        let mut stack: Vec<(Path, &PlanNode, Site)> = vec![(Vec::new(), self, root_site)];
        while let Some((path, node, site)) = stack.pop() {
            let child_site = node.child_site(site);
            for (i, c) in node.children().iter().enumerate().rev() {
                let mut p = path.clone();
                p.push(i);
                stack.push((p, c, child_site));
            }
            out.push((path, site));
        }
        out
    }

    /// True when the node is one of the order-sensitive operations of §6
    /// (`rdupᵀ`, `coalᵀ`, `\ᵀ`, `∪ᵀ`): multiset-equivalent arguments may
    /// produce results that are not multiset-equivalent.
    pub fn is_order_sensitive(&self) -> bool {
        matches!(
            self,
            PlanNode::RdupT { .. }
                | PlanNode::Coalesce { .. }
                | PlanNode::DifferenceT { .. }
                | PlanNode::UnionT { .. }
                | PlanNode::Limit { .. }
        )
    }

    /// True for operations with an implementation on both sites, i.e. the
    /// conventional operations a DBMS can evaluate via SQL (§4.5). Temporal
    /// operations exist only in the stratum.
    pub fn is_dbms_supported(&self) -> bool {
        matches!(
            self,
            PlanNode::Scan { .. }
                | PlanNode::Select { .. }
                | PlanNode::Project { .. }
                | PlanNode::UnionAll { .. }
                | PlanNode::Product { .. }
                | PlanNode::Difference { .. }
                | PlanNode::Aggregate { .. }
                | PlanNode::Rdup { .. }
                | PlanNode::UnionMax { .. }
                | PlanNode::Sort { .. }
        )
    }
}

/// A rooted logical plan paired with the query's result type
/// (Definition 5.1) — everything the optimizer needs.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LogicalPlan {
    /// The root operator of the plan tree.
    pub root: Arc<PlanNode>,
    /// The query's declared result type (list, multiset, set, snapshot…).
    pub result_type: crate::equivalence::ResultType,
    /// Site the root result must be delivered at (the stratum for layered
    /// deployments; also the default for stand-alone use).
    pub root_site: Site,
}

impl LogicalPlan {
    /// A plan rooted at `root`, delivered at the stratum.
    pub fn new(root: PlanNode, result_type: crate::equivalence::ResultType) -> LogicalPlan {
        LogicalPlan {
            root: Arc::new(root),
            result_type,
            root_site: Site::Stratum,
        }
    }

    /// The same plan with a different root tree.
    pub fn with_root(&self, root: PlanNode) -> LogicalPlan {
        LogicalPlan {
            root: Arc::new(root),
            result_type: self.result_type.clone(),
            root_site: self.root_site,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::value::DataType;

    fn scan(name: &str) -> PlanNode {
        PlanNode::Scan {
            name: name.into(),
            base: BaseProps::unordered(Schema::temporal(&[("E", DataType::Str)]), 100),
        }
    }

    fn sample() -> PlanNode {
        PlanNode::Sort {
            input: Arc::new(PlanNode::DifferenceT {
                left: Arc::new(PlanNode::RdupT {
                    input: Arc::new(scan("EMP")),
                }),
                right: Arc::new(scan("PROJ")),
            }),
            order: Order::asc(&["E"]),
        }
    }

    #[test]
    fn paths_preorder() {
        let p = sample();
        let paths = p.paths();
        assert_eq!(
            paths,
            vec![vec![], vec![0], vec![0, 0], vec![0, 0, 0], vec![0, 1],]
        );
        assert_eq!(p.size(), 5);
        assert_eq!(p.depth(), 4);
    }

    #[test]
    fn get_and_replace() {
        let p = sample();
        assert_eq!(p.get(&[0, 1]).unwrap().op_name(), "scan");
        let replaced = p.replace(&[0, 1], scan("OTHER")).unwrap();
        match replaced.get(&[0, 1]).unwrap() {
            PlanNode::Scan { name, .. } => assert_eq!(name, "OTHER"),
            other => panic!("unexpected node {other:?}"),
        }
        // Original untouched.
        match p.get(&[0, 1]).unwrap() {
            PlanNode::Scan { name, .. } => assert_eq!(name, "PROJ"),
            other => panic!("unexpected node {other:?}"),
        }
    }

    #[test]
    fn replace_at_root() {
        let p = sample();
        let r = p.replace(&[], scan("X")).unwrap();
        assert_eq!(r.op_name(), "scan");
    }

    #[test]
    fn dangling_paths_error() {
        let p = sample();
        assert!(p.get(&[3]).is_err());
        assert!(p.replace(&[0, 7], scan("X")).is_err());
    }

    #[test]
    fn sites_flip_at_transfers() {
        // sort(TS(scan)) with root in the stratum: scan runs in the DBMS.
        let p = PlanNode::Sort {
            input: Arc::new(PlanNode::TransferS {
                input: Arc::new(scan("EMP")),
            }),
            order: Order::asc(&["E"]),
        };
        let sites = p.sites(Site::Stratum);
        let find = |path: &[usize]| sites.iter().find(|(p, _)| p == path).unwrap().1;
        assert_eq!(find(&[]), Site::Stratum);
        assert_eq!(find(&[0]), Site::Stratum); // the transfer itself
        assert_eq!(find(&[0, 0]), Site::Dbms); // below the transfer
    }

    #[test]
    fn child_site_crosses_only_transfers() {
        let to_dbms = PlanNode::TransferS {
            input: Arc::new(scan("EMP")),
        };
        let to_stratum = PlanNode::TransferD {
            input: Arc::new(scan("EMP")),
        };
        for site in [Site::Stratum, Site::Dbms] {
            assert_eq!(to_dbms.child_site(site), Site::Dbms);
            assert_eq!(to_stratum.child_site(site), Site::Stratum);
            assert_eq!(scan("EMP").child_site(site), site);
        }
    }

    #[test]
    fn order_sensitivity_classification() {
        assert!(PlanNode::RdupT {
            input: Arc::new(scan("E"))
        }
        .is_order_sensitive());
        assert!(!PlanNode::Rdup {
            input: Arc::new(scan("E"))
        }
        .is_order_sensitive());
    }

    #[test]
    fn dbms_support_classification() {
        assert!(scan("E").is_dbms_supported());
        assert!(PlanNode::Sort {
            input: Arc::new(scan("E")),
            order: Order::unordered()
        }
        .is_dbms_supported());
        assert!(!PlanNode::Coalesce {
            input: Arc::new(scan("E"))
        }
        .is_dbms_supported());
    }
}
