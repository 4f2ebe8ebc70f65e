//! Cost estimation for enumerated plans.
//!
//! The paper defers "heuristics and cost estimation techniques" to future
//! work (§7); this module supplies the missing layer so the enumeration of
//! Figure 5 can drive an end-to-end optimizer. Costs are abstract work
//! units derived from the statistics-driven cardinality estimates of the
//! static properties ([`crate::stats::DerivedStats`], the extended Table 1
//! cardinality column), with two site-dependent twists that the paper's
//! example motivates (§2.1):
//!
//! * the DBMS evaluates conventional operations faster than the stratum
//!   (the mature engine effect — "the sort operation was pushed down
//!   because the DBMS sorts faster than the stratum"), and
//! * transfers between the sites cost per row moved.
//!
//! Per-operator formulas price the one algorithm each operator runs in
//! the interpreter and the engine — none depends on a Table 2 license, so
//! neither does its price: the sweeps (`×ᵀ`, `\ᵀ`, `ξᵀ`, `rdupᵀ`, `∪ᵀ`) cost `n log n`-ish
//! work, the chained `coalᵀ` and the hash operators are linear, and only
//! `×`'s nested loop is quadratic. The [`CostEstimator`] trait is the one interface
//! the memo's extraction and its oracle, Figure 5's closure, consume, so
//! they price plans identically by construction.
//!
//! Temporal operations have no DBMS implementation; a plan placing one in
//! the DBMS is invalid ([`Cost::INVALID`]).

use serde::{Deserialize, Serialize};

use crate::error::Result;
use crate::plan::props::{annotate, StaticProps};
use crate::plan::{LogicalPlan, PlanNode, Site};

/// Tunable parameters of the cost model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CostModel {
    /// Multiplier for conventional operations evaluated in the DBMS
    /// (< 1.0: the DBMS is faster).
    pub dbms_factor: f64,
    /// Multiplier for operations evaluated in the stratum.
    pub stratum_factor: f64,
    /// Cost per row crossing a transfer operation.
    pub transfer_per_row: f64,
    /// Fixed cost per transfer (connection/batch overhead).
    pub transfer_setup: f64,
}

impl Default for CostModel {
    /// The one model every plan is priced with: the optimizer's, the
    /// server's, the conformance corpus's and the snapshots'. Stratum-side
    /// work runs on the batch pipeline, the one engine that runs a
    /// physical plan; its `stratum_factor` of 0.32 was fitted from the
    /// measured operator times in `BENCH_exec.json`, where batch ran ~3–5×
    /// faster than a row-at-a-time walk priced at 1.0. The factor stays
    /// above `dbms_factor` because the simulated DBMS stands in for a
    /// mature engine whose own speed the bench does not measure, and the
    /// paper's architectural premise (§2.1: the DBMS outruns the thin
    /// stratum) must survive calibration.
    fn default() -> Self {
        CostModel {
            dbms_factor: 0.25,
            stratum_factor: 0.32,
            transfer_per_row: 2.0,
            transfer_setup: 10.0,
        }
    }
}

/// A plan cost in abstract work units.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Cost(pub f64);

impl Cost {
    /// The cost of an inadmissible plan (e.g. a temporal operation placed
    /// in the DBMS).
    pub const INVALID: Cost = Cost(f64::INFINITY);

    /// True for finite (admissible) costs.
    pub fn is_valid(self) -> bool {
        self.0.is_finite()
    }
}

fn nlogn(n: f64) -> f64 {
    n * (n.max(2.0)).log2()
}

/// The single costing interface of plan search: Figure 5's closure (the
/// memo's test oracle) prices whole plans via [`estimate_plan`],
/// the memo extractor prices (node, context) cells via [`estimate_node`] —
/// same formulas, same statistics, identical totals.
///
/// [`estimate_plan`]: CostEstimator::estimate_plan
/// [`estimate_node`]: CostEstimator::estimate_node
///
/// ```
/// use tqo_core::cost::{CostEstimator, CostModel};
/// use tqo_core::plan::{BaseProps, PlanBuilder};
/// use tqo_core::schema::Schema;
/// use tqo_core::value::DataType;
///
/// let schema = Schema::temporal(&[("E", DataType::Str)]);
/// let scan = || PlanBuilder::scan("R", BaseProps::unordered(schema.clone(), 1000));
/// let cheap = scan().build_multiset();
/// let pricey = scan().rdup_t().build_multiset(); // extra n log n work
/// let model = CostModel::default();
/// assert!(model.estimate_plan(&cheap).unwrap() < model.estimate_plan(&pricey).unwrap());
/// ```
pub trait CostEstimator {
    /// Cost contribution of a single node at `site`. `None` marks an
    /// invalid placement (a stratum-only operation inside the DBMS).
    fn estimate_node(
        &self,
        node: &PlanNode,
        out: &StaticProps,
        children: &[&StaticProps],
        site: Site,
    ) -> Option<f64>;

    /// Estimate the cost of a whole plan by summing [`estimate_node`] over
    /// its annotation. Returns [`Cost::INVALID`] for plans that place
    /// stratum-only operations in the DBMS.
    ///
    /// [`estimate_node`]: CostEstimator::estimate_node
    fn estimate_plan(&self, plan: &LogicalPlan) -> Result<Cost> {
        let ann = annotate(plan)?;
        let mut total = 0.0;
        for path in plan.root.paths() {
            let node = plan.root.get(&path)?;
            let props = &ann[&path];
            let child_stats: Vec<&StaticProps> = (0..node.children().len())
                .map(|i| {
                    let mut p = path.clone();
                    p.push(i);
                    &*ann[&p].stat
                })
                .collect();
            match self.estimate_node(node, &props.stat, &child_stats, props.site) {
                Some(work) => total += work,
                None => return Ok(Cost::INVALID),
            }
        }
        Ok(Cost(total))
    }
}

impl CostModel {
    /// Estimate the cost of a whole plan (inherent convenience so callers
    /// need not import [`CostEstimator`]).
    pub fn cost(&self, plan: &LogicalPlan) -> Result<Cost> {
        self.estimate_plan(plan)
    }

    /// Per-operation work in abstract units, pricing the algorithm the
    /// physical planner lowers the operation to.
    fn op_work(&self, node: &PlanNode, out: &StaticProps, child: &[&StaticProps]) -> f64 {
        let out_card = out.card() as f64;
        let c0 = child.first().map(|c| c.card() as f64).unwrap_or(0.0);
        let c1 = child.get(1).map(|c| c.card() as f64).unwrap_or(0.0);
        match node {
            PlanNode::Scan { .. } => out_card,
            PlanNode::Select { .. } | PlanNode::Project { .. } => c0,
            PlanNode::UnionAll { .. } => c0 + c1,
            PlanNode::UnionMax { .. } => c0 + c1,
            PlanNode::Product { .. } => c0 * c1,
            PlanNode::Difference { .. } => c0 + c1,
            // Hash aggregation: one probe per input row.
            PlanNode::Aggregate { .. } => c0,
            // Hash duplicate elimination: one probe per input row.
            PlanNode::Rdup { .. } => c0,
            PlanNode::Sort { .. } => nlogn(c0),
            // Prefix truncation: one pass over the kept prefix.
            PlanNode::Limit { .. } => out_card,
            // Endpoint plane sweep; sorting its pairs (packed `u64`s) back
            // into the nested loop's order is cheap beside emitting them.
            PlanNode::ProductT { .. } => nlogn(c0 + c1) + out_card,
            PlanNode::DifferenceT { .. } => nlogn(c0 + c1),
            // One endpoint sweep over every group's events.
            PlanNode::AggregateT { .. } => nlogn(c0) + out_card,
            // Per-class claims in list order.
            PlanNode::RdupT { .. } => nlogn(c0) + out_card,
            PlanNode::UnionT { .. } => nlogn(c0 + c1),
            // Hashing into per-(class, instant) chains, one walk over them.
            PlanNode::Coalesce { .. } => c0,
            PlanNode::TransferS { .. } | PlanNode::TransferD { .. } => {
                self.transfer_setup + self.transfer_per_row * c0
            }
        }
    }
}

impl CostEstimator for CostModel {
    fn estimate_node(
        &self,
        node: &PlanNode,
        out: &StaticProps,
        children: &[&StaticProps],
        site: Site,
    ) -> Option<f64> {
        if site == Site::Dbms && !node.is_dbms_supported() {
            return None;
        }
        let work = self.op_work(node, out, children);
        let factor = match node {
            PlanNode::TransferS { .. } | PlanNode::TransferD { .. } => 1.0,
            _ => match site {
                Site::Dbms => self.dbms_factor,
                Site::Stratum => self.stratum_factor,
            },
        };
        Some(work * factor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{BaseProps, PlanBuilder};
    use crate::schema::Schema;
    use crate::sortspec::Order;
    use crate::value::DataType;

    fn tscan(name: &str, card: u64) -> PlanBuilder {
        let s = Schema::temporal(&[("E", DataType::Str)]);
        PlanBuilder::scan(name, BaseProps::unordered(s, card))
    }

    #[test]
    fn dbms_sort_is_cheaper_than_stratum_sort() {
        let model = CostModel::default();
        // Stratum sorts after the transfer...
        let stratum_sort = tscan("R", 10_000)
            .transfer_s()
            .sort(Order::asc(&["E"]))
            .build_multiset();
        // ...or the DBMS sorts before it.
        let dbms_sort = tscan("R", 10_000)
            .sort(Order::asc(&["E"]))
            .transfer_s()
            .build_multiset();
        let c1 = model.cost(&stratum_sort).unwrap();
        let c2 = model.cost(&dbms_sort).unwrap();
        assert!(c2 < c1, "DBMS sort {c2:?} should beat stratum sort {c1:?}");
    }

    #[test]
    fn temporal_op_in_dbms_is_invalid() {
        // TS(rdupT(R)): the rdupT sits below the transfer, i.e. in the DBMS.
        let plan = tscan("R", 100).rdup_t().transfer_s().build_multiset();
        let c = CostModel::default().cost(&plan).unwrap();
        assert!(!c.is_valid());
        // The same rdupT in the stratum is fine.
        let ok = tscan("R", 100).transfer_s().rdup_t().build_multiset();
        assert!(CostModel::default().cost(&ok).unwrap().is_valid());
    }

    #[test]
    fn transfers_cost_per_row() {
        let model = CostModel::default();
        let once = tscan("R", 1000).transfer_s().build_multiset();
        let twice = tscan("R", 1000)
            .transfer_s()
            .transfer_d()
            .transfer_s()
            .build_multiset();
        let c1 = model.cost(&once).unwrap();
        let c2 = model.cost(&twice).unwrap();
        assert!(c2.0 > c1.0 + 2.0 * model.transfer_setup);
    }

    #[test]
    fn smaller_intermediate_results_cost_less() {
        let model = CostModel::default();
        // Selecting before the product beats selecting after.
        let s = Schema::of(&[("A", DataType::Int)]);
        let scan = |n: &str| PlanBuilder::scan(n, BaseProps::unordered(s.clone(), 1000));
        let pred = crate::expr::Expr::eq(crate::expr::Expr::col("A"), crate::expr::Expr::lit(1i64));
        let pred_p =
            crate::expr::Expr::eq(crate::expr::Expr::col("1.A"), crate::expr::Expr::lit(1i64));
        let late = scan("R").product(scan("S")).select(pred_p).build_multiset();
        let early = scan("R").select(pred).product(scan("S")).build_multiset();
        assert!(model.cost(&early).unwrap() < model.cost(&late).unwrap());
    }

    #[test]
    fn temporal_operators_price_the_same_under_any_result_type() {
        // The Table 2 flags differ between a list and a multiset query (a
        // list requires order below it); the algorithms, and so the
        // prices, do not.
        let model = CostModel::default();
        let shapes: [fn(PlanBuilder) -> PlanBuilder; 2] = [
            |b| b.product_t(tscan("S", 3_000)),
            |b| b.rdup_t().coalesce(),
        ];
        for shape in shapes {
            let list = shape(tscan("R", 10_000)).build_list(Order::asc(&["T1"]));
            let multiset = shape(tscan("R", 10_000)).build_multiset();
            assert_eq!(model.cost(&list).unwrap(), model.cost(&multiset).unwrap());
        }
    }

    #[test]
    fn the_batch_fitted_model_keeps_dbms_ahead() {
        let m = CostModel::default();
        assert!(m.stratum_factor < 1.0);
        assert!(m.dbms_factor < m.stratum_factor);
    }
}
