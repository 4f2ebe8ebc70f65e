//! A fluent builder for logical plans.
//!
//! ```
//! use tqo_core::plan::{PlanBuilder, BaseProps};
//! use tqo_core::schema::Schema;
//! use tqo_core::sortspec::Order;
//! use tqo_core::value::DataType;
//! use tqo_core::expr::ProjItem;
//!
//! let emp = Schema::temporal(&[("EmpName", DataType::Str), ("Dept", DataType::Str)]);
//! let plan = PlanBuilder::scan("EMPLOYEE", BaseProps::unordered(emp, 1000))
//!     .project(vec![ProjItem::col("EmpName"), ProjItem::col("T1"), ProjItem::col("T2")])
//!     .rdup_t()
//!     .coalesce()
//!     .sort(Order::asc(&["EmpName"]))
//!     .build_list(Order::asc(&["EmpName"]));
//! assert_eq!(plan.root.size(), 5);
//! ```

use std::sync::Arc;

use crate::equivalence::ResultType;
use crate::expr::{AggItem, Expr, ProjItem};
use crate::plan::{BaseProps, LogicalPlan, PlanNode};
use crate::sortspec::Order;

/// Builds a plan bottom-up; every combinator wraps the current root.
#[derive(Debug, Clone)]
pub struct PlanBuilder {
    node: PlanNode,
}

impl PlanBuilder {
    /// Start from a base-relation scan.
    pub fn scan(name: impl Into<String>, base: BaseProps) -> PlanBuilder {
        PlanBuilder {
            node: PlanNode::Scan {
                name: name.into(),
                base,
            },
        }
    }

    /// Apply a selection (`σ`).
    pub fn select(self, predicate: Expr) -> PlanBuilder {
        PlanBuilder {
            node: PlanNode::Select {
                input: Arc::new(self.node),
                predicate,
            },
        }
    }

    /// Apply a projection (`π`).
    pub fn project(self, items: Vec<ProjItem>) -> PlanBuilder {
        PlanBuilder {
            node: PlanNode::Project {
                input: Arc::new(self.node),
                items,
            },
        }
    }

    /// Project onto plain columns by name.
    pub fn project_cols(self, cols: &[&str]) -> PlanBuilder {
        self.project(cols.iter().map(|c| ProjItem::col(c)).collect())
    }

    /// Bag union with `right` (`∪all`).
    pub fn union_all(self, right: PlanBuilder) -> PlanBuilder {
        PlanBuilder {
            node: PlanNode::UnionAll {
                left: Arc::new(self.node),
                right: Arc::new(right.node),
            },
        }
    }

    /// Cartesian product with `right` (`×`).
    pub fn product(self, right: PlanBuilder) -> PlanBuilder {
        PlanBuilder {
            node: PlanNode::Product {
                left: Arc::new(self.node),
                right: Arc::new(right.node),
            },
        }
    }

    /// Multiset difference with `right` (`\\`).
    pub fn difference(self, right: PlanBuilder) -> PlanBuilder {
        PlanBuilder {
            node: PlanNode::Difference {
                left: Arc::new(self.node),
                right: Arc::new(right.node),
            },
        }
    }

    /// Grouped aggregation (`ξ`).
    pub fn aggregate(self, group_by: Vec<String>, aggs: Vec<AggItem>) -> PlanBuilder {
        PlanBuilder {
            node: PlanNode::Aggregate {
                input: Arc::new(self.node),
                group_by,
                aggs,
            },
        }
    }

    /// Duplicate elimination (`rdup`).
    pub fn rdup(self) -> PlanBuilder {
        PlanBuilder {
            node: PlanNode::Rdup {
                input: Arc::new(self.node),
            },
        }
    }

    /// Max-multiplicity union with `right` (`∪max`).
    pub fn union_max(self, right: PlanBuilder) -> PlanBuilder {
        PlanBuilder {
            node: PlanNode::UnionMax {
                left: Arc::new(self.node),
                right: Arc::new(right.node),
            },
        }
    }

    /// Stable sort under `order`.
    pub fn sort(self, order: Order) -> PlanBuilder {
        PlanBuilder {
            node: PlanNode::Sort {
                input: Arc::new(self.node),
                order,
            },
        }
    }

    /// Prefix truncation (`LIMIT n OFFSET k`).
    pub fn limit(self, limit: Option<usize>, offset: usize) -> PlanBuilder {
        PlanBuilder {
            node: PlanNode::Limit {
                input: Arc::new(self.node),
                limit,
                offset,
            },
        }
    }

    /// Temporal Cartesian product with `right` (`×ᵀ`).
    pub fn product_t(self, right: PlanBuilder) -> PlanBuilder {
        PlanBuilder {
            node: PlanNode::ProductT {
                left: Arc::new(self.node),
                right: Arc::new(right.node),
            },
        }
    }

    /// Temporal difference with `right` (`\\ᵀ`).
    pub fn difference_t(self, right: PlanBuilder) -> PlanBuilder {
        PlanBuilder {
            node: PlanNode::DifferenceT {
                left: Arc::new(self.node),
                right: Arc::new(right.node),
            },
        }
    }

    /// Temporal aggregation (`ξᵀ`).
    pub fn aggregate_t(self, group_by: Vec<String>, aggs: Vec<AggItem>) -> PlanBuilder {
        PlanBuilder {
            node: PlanNode::AggregateT {
                input: Arc::new(self.node),
                group_by,
                aggs,
            },
        }
    }

    /// Temporal duplicate elimination (`rdupᵀ`).
    pub fn rdup_t(self) -> PlanBuilder {
        PlanBuilder {
            node: PlanNode::RdupT {
                input: Arc::new(self.node),
            },
        }
    }

    /// Temporal union with `right` (`∪ᵀ`).
    pub fn union_t(self, right: PlanBuilder) -> PlanBuilder {
        PlanBuilder {
            node: PlanNode::UnionT {
                left: Arc::new(self.node),
                right: Arc::new(right.node),
            },
        }
    }

    /// Period coalescing (`coalᵀ`).
    pub fn coalesce(self) -> PlanBuilder {
        PlanBuilder {
            node: PlanNode::Coalesce {
                input: Arc::new(self.node),
            },
        }
    }

    /// The join idiom of §2.4: Cartesian product followed by a selection
    /// (and, for readability, no projection — compose one if needed).
    /// Predicates reference the product's `1.`/`2.`-prefixed attributes.
    pub fn join(self, right: PlanBuilder, predicate: Expr) -> PlanBuilder {
        self.product(right).select(predicate)
    }

    /// The temporal join idiom: overlap product `×ᵀ` followed by a
    /// selection on the `1.`/`2.`-prefixed attributes.
    pub fn join_t(self, right: PlanBuilder, predicate: Expr) -> PlanBuilder {
        self.product_t(right).select(predicate)
    }

    /// Transfer the result from the DBMS to the stratum (`Tˢ`).
    pub fn transfer_s(self) -> PlanBuilder {
        PlanBuilder {
            node: PlanNode::TransferS {
                input: Arc::new(self.node),
            },
        }
    }

    /// Transfer the result from the stratum to the DBMS (`Tᴰ`).
    pub fn transfer_d(self) -> PlanBuilder {
        PlanBuilder {
            node: PlanNode::TransferD {
                input: Arc::new(self.node),
            },
        }
    }

    /// The bare subtree.
    pub fn node(self) -> PlanNode {
        self.node
    }

    /// Finish as a query whose outermost level has ORDER BY `order`.
    pub fn build_list(self, order: Order) -> LogicalPlan {
        LogicalPlan::new(self.node, ResultType::List(order))
    }

    /// Finish as a query with neither ORDER BY nor DISTINCT.
    pub fn build_multiset(self) -> LogicalPlan {
        LogicalPlan::new(self.node, ResultType::Multiset)
    }

    /// Finish as a query with DISTINCT but no ORDER BY.
    pub fn build_set(self) -> LogicalPlan {
        LogicalPlan::new(self.node, ResultType::Set)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::value::DataType;

    #[test]
    fn builds_binary_trees() {
        let s = Schema::temporal(&[("E", DataType::Str)]);
        let plan = PlanBuilder::scan("A", BaseProps::unordered(s.clone(), 10))
            .difference_t(PlanBuilder::scan("B", BaseProps::unordered(s, 10)))
            .rdup_t()
            .build_multiset();
        assert_eq!(plan.root.op_name(), "rdupT");
        assert_eq!(plan.root.get(&[0]).unwrap().op_name(), "\\T");
        assert_eq!(plan.root.size(), 4);
    }

    #[test]
    fn join_idioms_compose_product_and_select() {
        let s = Schema::temporal(&[("E", DataType::Str)]);
        let pred = Expr::eq(Expr::col("1.E"), Expr::col("2.E"));
        let plan = PlanBuilder::scan("A", BaseProps::unordered(s.clone(), 10))
            .join_t(
                PlanBuilder::scan("B", BaseProps::unordered(s, 10)),
                pred.clone(),
            )
            .build_multiset();
        assert_eq!(plan.root.op_name(), "σ");
        assert_eq!(plan.root.get(&[0]).unwrap().op_name(), "×T");
    }

    #[test]
    fn result_types() {
        let s = Schema::of(&[("A", DataType::Int)]);
        let base = || PlanBuilder::scan("R", BaseProps::unordered(s.clone(), 1));
        assert_eq!(base().build_multiset().result_type, ResultType::Multiset);
        assert_eq!(base().build_set().result_type, ResultType::Set);
        match base().build_list(Order::asc(&["A"])).result_type {
            ResultType::List(o) => assert_eq!(o, Order::asc(&["A"])),
            other => panic!("unexpected {other:?}"),
        }
    }
}
