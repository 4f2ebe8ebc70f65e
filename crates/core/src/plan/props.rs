//! Static plan properties (the Table 1 columns, inferred bottom-up) and the
//! three operation properties of Table 2 (propagated top-down).
//!
//! Bottom-up, every node gets [`StaticProps`]: output schema, guaranteed
//! order (`Order(r)`), duplicate-freedom, snapshot-duplicate-freedom,
//! coalescedness, and a cardinality estimate — computed from Table 1's
//! per-operation behaviour.
//!
//! Top-down, every node gets [`PropsFlags`]: `OrderRequired`,
//! `DuplicatesRelevant`, `PeriodPreserving`. The root's flags come from the
//! query's result type (Definition 5.1); each operator then relaxes the
//! flags for its children exactly where the paper's §5.2 regions say it may
//! (below `sort` order is not required; below `rdup`/`rdupᵀ` duplicates are
//! not relevant; below `coalᵀ` over a snapshot-duplicate-free input periods
//! need not be preserved; the right branch of `\ᵀ` needs neither order nor
//! periods, nor duplicates when the left branch is snapshot-duplicate-free)
//! and tightens them in one place: below an `rdupᵀ` whose periods must be
//! preserved order is required, because `rdupᵀ` of a reordered argument is
//! only snapshot-equivalent.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

use crate::error::{Error, Result};
use crate::ops::aggregate::aggregate_schema;
use crate::ops::product::product_schema;
use crate::ops::project::project_schema;
use crate::ops::temporal::aggregate_t::aggregate_t_schema;
use crate::ops::temporal::product_t::product_t_schema;
use crate::plan::{LogicalPlan, Path, PlanNode, Site};
use crate::schema::{Schema, T1, T2};
use crate::sortspec::Order;
use crate::stats::{self, ColumnEstimate, DerivedStats, TableSummary};

/// Statically declared properties of a base relation, carried by `Scan`
/// nodes so plans are self-contained.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BaseProps {
    /// The stored relation's schema.
    pub schema: Schema,
    /// Guaranteed delivery order of the scan (usually unordered).
    pub order: Order,
    /// No two equal tuples.
    pub dup_free: bool,
    /// No snapshot contains duplicates (temporal relations only).
    pub snapshot_dup_free: bool,
    /// No value-equivalent adjacent periods (temporal relations only).
    pub coalesced: bool,
    /// Estimated row count.
    pub card: u64,
    /// Measured table statistics (catalog-backed scans); `None` for
    /// declared-only plans, in which case every estimate degrades to the
    /// constant-factor guesses and `card`.
    pub stats: Option<Arc<TableSummary>>,
}

/// Hashes everything but the statistics summary: equal props hash
/// equally still, and the optimizer's hash-consing of plan trees no longer
/// walks every scan's histograms.
impl std::hash::Hash for BaseProps {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.schema.hash(state);
        self.order.hash(state);
        self.dup_free.hash(state);
        self.snapshot_dup_free.hash(state);
        self.coalesced.hash(state);
        self.card.hash(state);
    }
}

impl BaseProps {
    /// A base relation with no guarantees: unordered, possibly duplicated,
    /// possibly uncoalesced.
    pub fn unordered(schema: Schema, card: u64) -> BaseProps {
        BaseProps {
            schema,
            order: Order::unordered(),
            dup_free: false,
            snapshot_dup_free: false,
            coalesced: false,
            card,
            stats: None,
        }
    }

    /// A base relation maintained duplicate-free and coalesced (the usual
    /// invariant for stored temporal tables).
    pub fn clean(schema: Schema, card: u64) -> BaseProps {
        BaseProps {
            schema,
            order: Order::unordered(),
            dup_free: true,
            snapshot_dup_free: true,
            coalesced: true,
            card,
            stats: None,
        }
    }

    /// Attach measured statistics.
    pub fn with_summary(mut self, summary: Arc<TableSummary>) -> BaseProps {
        self.stats = Some(summary);
        self
    }

    /// Properties *measured* from an in-memory relation, with no catalog
    /// involved (tests and benches scan hand-built relations through
    /// it). Invariants are facts
    /// about this concrete relation (duplicate-freedom, snapshot
    /// duplicate-freedom, coalescedness), the statistics are the full
    /// measured [`TableSummary`], and the delivery order is conservatively
    /// declared unknown so no rewrite can rely on an order the
    /// materialization does not guarantee.
    pub fn measured(relation: &crate::relation::Relation) -> crate::error::Result<BaseProps> {
        let (summary, profile) = TableSummary::profiled(relation)?;
        Ok(BaseProps::from_profile(relation.schema().clone(), &profile)
            .with_summary(Arc::new(summary)))
    }

    /// Table 2's base properties as facts about one concrete relation,
    /// read off its profile: duplicate-free iff every tuple is distinct,
    /// snapshot-duplicate-free iff no value class has two tuples alive at
    /// once, coalesced iff no value class holds two periods that meet.
    /// (On snapshot relations the last two are vacuous: `dup_free`, true.)
    /// No statistics attached, delivery order unknown.
    pub fn from_profile(schema: Schema, profile: &stats::RelationProfile) -> BaseProps {
        let dup_free = profile.distinct_rows == profile.rows;
        BaseProps {
            snapshot_dup_free: if schema.is_temporal() {
                profile.max_class_overlap <= 1
            } else {
                dup_free
            },
            coalesced: profile.uncoalesced_classes == 0,
            schema,
            order: Order::unordered(),
            dup_free,
            card: profile.rows,
            stats: None,
        }
    }
}

/// Bottom-up properties of a plan node's output (Table 1).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StaticProps {
    /// The output schema.
    pub schema: Schema,
    /// `Order(r)`: the guaranteed order of the produced list.
    pub order: Order,
    /// The output is guaranteed free of regular duplicates.
    pub dup_free: bool,
    /// The output is guaranteed free of duplicates in snapshots
    /// (vacuously equal to `dup_free` for snapshot relations).
    pub snapshot_dup_free: bool,
    /// The output is guaranteed coalesced (vacuously true for snapshot
    /// relations).
    pub coalesced: bool,
    /// Estimated output statistics (Table 1's cardinality column, extended
    /// to distinct counts, histograms, and temporal overlap).
    pub stats: DerivedStats,
}

impl StaticProps {
    /// True when the output carries `T1`/`T2`.
    pub fn is_temporal(&self) -> bool {
        self.schema.is_temporal()
    }

    /// Estimated output cardinality.
    pub fn card(&self) -> u64 {
        self.stats.rows
    }
}

/// The three Boolean operation properties of Table 2, assigned per node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PropsFlags {
    /// True if the result of the operation must preserve some order.
    pub order_required: bool,
    /// True if the operation cannot arbitrarily add or remove regular
    /// duplicates.
    pub duplicates_relevant: bool,
    /// True if the operation cannot replace its result with a
    /// snapshot-equivalent one.
    pub period_preserving: bool,
}

impl PropsFlags {
    /// The root flags induced by the query's result type (Definition 5.1).
    pub fn for_result_type(rt: &crate::equivalence::ResultType) -> PropsFlags {
        use crate::equivalence::ResultType::*;
        match rt {
            List(_) => PropsFlags {
                order_required: true,
                duplicates_relevant: true,
                period_preserving: true,
            },
            Multiset => PropsFlags {
                order_required: false,
                duplicates_relevant: true,
                period_preserving: true,
            },
            Set => PropsFlags {
                order_required: false,
                duplicates_relevant: false,
                period_preserving: true,
            },
        }
    }

    /// Render as the paper's `[T T T]` vectors (Figure 6).
    pub fn vector(&self) -> String {
        let b = |x: bool| if x { "T" } else { "-" };
        format!(
            "[{} {} {}]",
            b(self.order_required),
            b(self.duplicates_relevant),
            b(self.period_preserving)
        )
    }
}

/// Everything known about one plan node.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeProps {
    /// Bottom-up output properties (Table 1), shared: the memo annotates
    /// many bindings over the same subtrees.
    pub stat: Arc<StaticProps>,
    /// Top-down operation-property demands (Table 2).
    pub flags: PropsFlags,
    /// The execution site.
    pub site: Site,
}

/// Property annotations for a whole plan, keyed by node path.
pub type Annotations = HashMap<Path, NodeProps>;

/// Annotate every node of a plan with static properties, operation
/// properties, and execution site. (The memo derives the same properties
/// tree by tree, `Memo::tree_stat`, and a binding's top levels from them.)
pub fn annotate(plan: &LogicalPlan) -> Result<Annotations> {
    let root = &*plan.root;
    let root_flags = PropsFlags::for_result_type(&plan.result_type);
    let mut out: HashMap<Path, NodeProps> = HashMap::new();

    // Pass 1: sites, top-down.
    let sites: HashMap<Path, Site> = root.sites(plan.root_site).into_iter().collect();

    // Pass 2: static props, bottom-up.
    let mut stats: HashMap<Path, StaticProps> = HashMap::new();
    compute_static(root, &mut Vec::new(), &sites, &mut stats)?;

    // Pass 3: operation properties, top-down.
    let mut stack: Vec<(Path, &PlanNode, PropsFlags)> = vec![(Vec::new(), root, root_flags)];
    while let Some((path, node, flags)) = stack.pop() {
        let child_stats: Vec<&StaticProps> = (0..node.children().len())
            .map(|i| {
                let mut p = path.clone();
                p.push(i);
                &stats[&p]
            })
            .collect();
        let cf = child_flags(node, flags, &child_stats);
        for (i, (c, cf)) in node.children().iter().zip(cf).enumerate() {
            let mut p = path.clone();
            p.push(i);
            stack.push((p, c, cf));
        }
        let stat = stats
            .remove(&path)
            .expect("static props computed for every node");
        let site = sites[&path];
        out.insert(
            path,
            NodeProps {
                stat: Arc::new(stat),
                flags,
                site,
            },
        );
    }
    Ok(out)
}

/// Bottom-up static property derivation (Table 1).
fn compute_static(
    node: &PlanNode,
    path: &mut Path,
    sites: &HashMap<Path, Site>,
    out: &mut HashMap<Path, StaticProps>,
) -> Result<StaticProps> {
    // Recurse first.
    let mut child_props = Vec::new();
    for (i, c) in node.children().iter().enumerate() {
        path.push(i);
        child_props.push(compute_static(c, path, sites, out)?);
        path.pop();
    }

    let children: Vec<&StaticProps> = child_props.iter().collect();
    let props = node_stat(node, &children, sites[path.as_slice()])?;
    out.insert(path.clone(), props.clone());
    Ok(props)
}

/// One node's static properties at execution site `site`, from its
/// children's: Table 1 ([`derive_one`]), then §4.5's erasure — results
/// produced inside the DBMS have no guaranteed order ("we cannot be sure
/// how the DBMS implementation of the operation will sort its result,
/// operation sort being the only exception"). `pub(crate)` so the memo
/// derives the properties of its trees and of the plans it composes with
/// the same rules.
pub(crate) fn node_stat(
    node: &PlanNode,
    child: &[&StaticProps],
    site: Site,
) -> Result<StaticProps> {
    let mut props = derive_one(node, child)?;
    if site == Site::Dbms && !matches!(node, PlanNode::Sort { .. }) {
        props.order = Order::unordered();
    }
    Ok(props)
}

/// `rows · fraction`, truncating like the old integer halving did, floored
/// at one row (an optimizer that believes in empty intermediates prunes
/// too aggressively).
pub fn scaled_rows(rows: u64, fraction: f64) -> u64 {
    ((rows as f64 * fraction) as u64).max(1)
}

/// Table 1, one operation at a time.
fn derive_one(node: &PlanNode, child: &[&StaticProps]) -> Result<StaticProps> {
    Ok(match node {
        PlanNode::Scan { base, .. } => StaticProps {
            schema: base.schema.clone(),
            order: base.order.clone(),
            dup_free: base.dup_free,
            snapshot_dup_free: if base.schema.is_temporal() {
                base.snapshot_dup_free
            } else {
                base.dup_free
            },
            coalesced: if base.schema.is_temporal() {
                base.coalesced
            } else {
                true
            },
            stats: match &base.stats {
                Some(summary) => DerivedStats::from_summary(summary),
                None => DerivedStats::unknown(base.card),
            },
        },

        PlanNode::Select { predicate, .. } => {
            let c = child[0];
            let sel = stats::selectivity(predicate, &c.schema, &c.stats);
            let rows = scaled_rows(c.stats.rows, sel);
            StaticProps {
                schema: c.schema.clone(),
                order: c.order.clone(),
                dup_free: c.dup_free,
                snapshot_dup_free: c.snapshot_dup_free,
                coalesced: c.coalesced,
                stats: c.stats.scaled_to(rows),
            }
        }

        PlanNode::Project { items, .. } => {
            let c = child[0];
            let schema = project_schema(&c.schema, items)?;
            // Only identity pass-through items keep their order key alive.
            let kept: Vec<String> = items
                .iter()
                .filter(|i| i.is_identity())
                .map(|i| i.alias.clone())
                .collect();
            let rows = c.stats.rows;
            // Column references carry their source column's estimate along
            // (renaming does not change the values); computed items don't.
            let columns: Vec<ColumnEstimate> = items
                .iter()
                .map(|item| match &item.expr {
                    crate::expr::Expr::Col(name) => c
                        .stats
                        .column(&c.schema, name)
                        .cloned()
                        .unwrap_or_else(ColumnEstimate::unknown),
                    _ => ColumnEstimate::unknown(),
                })
                .collect();
            let temporal_out = schema.is_temporal();
            StaticProps {
                order: c.order.prefix_on(&kept),
                dup_free: false, // π generates duplicates
                snapshot_dup_free: false,
                coalesced: !temporal_out, // π destroys coalescing
                stats: DerivedStats {
                    rows,
                    distinct_rows: c.stats.distinct_rows.min(rows.max(1)),
                    columns,
                    time_range: if temporal_out {
                        c.stats.time_range
                    } else {
                        None
                    },
                    avg_duration_milli: if temporal_out {
                        c.stats.avg_duration_milli
                    } else {
                        None
                    },
                    overlap: if temporal_out { c.stats.overlap } else { None },
                },
                schema,
            }
        }

        PlanNode::UnionAll { .. } => {
            let (c1, c2) = (child[0], child[1]);
            c1.schema
                .check_union_compatible(&c2.schema, "union ALL plan")?;
            let rows = c1.stats.rows.saturating_add(c2.stats.rows);
            StaticProps {
                schema: c1.schema.clone(),
                order: Order::unordered(),
                dup_free: false,
                snapshot_dup_free: false,
                coalesced: !c1.schema.is_temporal(),
                stats: DerivedStats {
                    rows,
                    distinct_rows: c1
                        .stats
                        .distinct_rows
                        .saturating_add(c2.stats.distinct_rows)
                        .min(rows.max(1)),
                    columns: union_columns(&c1.stats, &c2.stats, rows),
                    time_range: union_ranges(c1.stats.time_range, c2.stats.time_range),
                    avg_duration_milli: weighted_duration(&c1.stats, &c2.stats),
                    overlap: None,
                },
            }
        }

        PlanNode::Product { .. } => {
            let (c1, c2) = (child[0], child[1]);
            let schema = product_schema(&c1.schema, &c2.schema)?;
            let dup_free = c1.dup_free && c2.dup_free;
            let rows = c1.stats.rows.saturating_mul(c2.stats.rows);
            let mut columns: Vec<ColumnEstimate> = Vec::with_capacity(schema.arity());
            columns.extend(padded_columns(c1).into_iter().map(|c| c.capped(rows)));
            columns.extend(padded_columns(c2).into_iter().map(|c| c.capped(rows)));
            StaticProps {
                schema,
                order: c1.order.map_names(|n| format!("1.{n}")),
                dup_free,
                snapshot_dup_free: dup_free, // result is a snapshot relation
                coalesced: true,
                stats: DerivedStats {
                    rows,
                    distinct_rows: c1
                        .stats
                        .distinct_rows
                        .saturating_mul(c2.stats.distinct_rows)
                        .min(rows.max(1)),
                    columns,
                    time_range: None,
                    avg_duration_milli: None,
                    overlap: None,
                },
            }
        }

        PlanNode::Difference { .. } => {
            let (c1, c2) = (child[0], child[1]);
            c1.schema
                .check_union_compatible(&c2.schema, "difference plan")?;
            let temporal_in = c1.schema.is_temporal();
            let schema = if temporal_in {
                c1.schema.demote_time_attrs()
            } else {
                c1.schema.clone()
            };
            let order = if temporal_in {
                c1.order.map_names(demote_name)
            } else {
                c1.order.clone()
            };
            let rows = c1.stats.rows;
            StaticProps {
                schema,
                order,
                dup_free: c1.dup_free,
                snapshot_dup_free: c1.dup_free,
                coalesced: true,
                stats: DerivedStats {
                    rows,
                    distinct_rows: c1.stats.distinct_rows,
                    columns: c1.stats.columns.clone(),
                    time_range: None,
                    avg_duration_milli: None,
                    overlap: None,
                },
            }
        }

        PlanNode::Aggregate { group_by, aggs, .. } => {
            let c = child[0];
            let schema = aggregate_schema(&c.schema, group_by, aggs)?;
            let kept: Vec<String> = group_by.iter().map(|g| demote_name(g)).collect();
            // Groups = product of group-column distinct counts when all are
            // known, the paper-era half otherwise. A global aggregate
            // (no groups) always emits exactly one row.
            let group_distinct: Option<u64> = group_by
                .iter()
                .map(|g| c.stats.distinct_of(&c.schema, g))
                .try_fold(1u64, |acc, d| d.map(|d| acc.saturating_mul(d.max(1))));
            let rows = if group_by.is_empty() {
                1
            } else {
                match group_distinct {
                    Some(groups) => groups.min(c.stats.rows).max(1),
                    None => (c.stats.rows / 2).max(1),
                }
            };
            // Group columns keep their estimates; aggregate outputs do not.
            let columns: Vec<ColumnEstimate> = schema
                .attrs()
                .iter()
                .enumerate()
                .map(|(i, _)| {
                    group_by
                        .get(i)
                        .and_then(|g| c.stats.column(&c.schema, g).cloned())
                        .map(|est| est.capped(rows))
                        .unwrap_or_else(ColumnEstimate::unknown)
                })
                .collect();
            StaticProps {
                order: c.order.map_names(demote_name).prefix_on(&kept),
                dup_free: true,
                snapshot_dup_free: true,
                coalesced: true,
                stats: DerivedStats {
                    rows,
                    distinct_rows: rows,
                    columns,
                    time_range: None,
                    avg_duration_milli: None,
                    overlap: None,
                },
                schema,
            }
        }

        PlanNode::Rdup { .. } => {
            let c = child[0];
            let temporal_in = c.schema.is_temporal();
            let schema = if temporal_in {
                c.schema.demote_time_attrs()
            } else {
                c.schema.clone()
            };
            let order = if temporal_in {
                c.order.map_names(demote_name)
            } else {
                c.order.clone()
            };
            // Output rows = distinct tuples of the input (exact for
            // catalog scans, = input rows when blind — the old estimate).
            let rows = c.stats.distinct_rows.max(1).min(c.stats.rows.max(1));
            let mut stats = c.stats.scaled_to(rows);
            stats.distinct_rows = rows;
            stats.time_range = None;
            stats.avg_duration_milli = None;
            stats.overlap = None;
            StaticProps {
                schema,
                order,
                dup_free: true,
                snapshot_dup_free: true,
                coalesced: true,
                stats,
            }
        }

        PlanNode::UnionMax { .. } => {
            let (c1, c2) = (child[0], child[1]);
            c1.schema.check_union_compatible(&c2.schema, "union plan")?;
            let temporal_in = c1.schema.is_temporal();
            let schema = if temporal_in {
                c1.schema.demote_time_attrs()
            } else {
                c1.schema.clone()
            };
            let dup_free = c1.dup_free && c2.dup_free;
            let rows = c1.stats.rows.saturating_add(c2.stats.rows);
            StaticProps {
                schema,
                order: Order::unordered(),
                dup_free,
                snapshot_dup_free: dup_free,
                coalesced: true,
                stats: DerivedStats {
                    rows,
                    distinct_rows: c1
                        .stats
                        .distinct_rows
                        .saturating_add(c2.stats.distinct_rows)
                        .min(rows.max(1)),
                    columns: union_columns(&c1.stats, &c2.stats, rows),
                    time_range: None,
                    avg_duration_milli: None,
                    overlap: None,
                },
            }
        }

        PlanNode::Sort { order, .. } => {
            let c = child[0];
            for key in order.keys() {
                c.schema.resolve(&key.attr)?;
            }
            // Special case of Table 1: when A is a prefix of Order(r), the
            // stable sort is the identity and Order(r) survives.
            let out_order = if order.is_prefix_of(&c.order) {
                c.order.clone()
            } else {
                order.clone()
            };
            StaticProps {
                schema: c.schema.clone(),
                order: out_order,
                dup_free: c.dup_free,
                snapshot_dup_free: c.snapshot_dup_free,
                coalesced: c.coalesced,
                stats: c.stats.clone(),
            }
        }

        PlanNode::Limit { limit, offset, .. } => {
            let c = child[0];
            // Truncation keeps a contiguous prefix: order, duplicate-freedom,
            // and coalescing of the argument survive; cardinality is capped.
            let avail = c.stats.rows.saturating_sub(*offset as u64);
            let rows = match limit {
                Some(n) => avail.min(*n as u64),
                None => avail,
            }
            .max(1);
            StaticProps {
                schema: c.schema.clone(),
                order: c.order.clone(),
                dup_free: c.dup_free,
                snapshot_dup_free: c.snapshot_dup_free,
                coalesced: c.coalesced,
                stats: c.stats.scaled_to(rows),
            }
        }

        PlanNode::ProductT { .. } => {
            let (c1, c2) = (child[0], child[1]);
            let schema = product_t_schema(&c1.schema, &c2.schema)?;
            // Pairing probability from the time ranges and mean durations
            // when both sides have them; the paper-era half otherwise.
            let pair = stats::overlap_fraction(&c1.stats, &c2.stats).unwrap_or(0.5);
            let rows = scaled_rows(c1.stats.rows.saturating_mul(c2.stats.rows), pair);
            // 1.* columns, 2.* columns, then the fresh T1/T2 pair.
            let mut columns: Vec<ColumnEstimate> = Vec::with_capacity(schema.arity());
            columns.extend(padded_columns(c1).into_iter().map(|c| c.capped(rows)));
            columns.extend(padded_columns(c2).into_iter().map(|c| c.capped(rows)));
            columns.push(ColumnEstimate::unknown());
            columns.push(ColumnEstimate::unknown());
            StaticProps {
                schema,
                order: c1
                    .order
                    .without_time_attrs()
                    .map_names(|n| format!("1.{n}")),
                dup_free: c1.dup_free && c2.dup_free,
                snapshot_dup_free: c1.snapshot_dup_free && c2.snapshot_dup_free,
                coalesced: false,
                stats: DerivedStats {
                    rows,
                    distinct_rows: rows,
                    columns,
                    time_range: intersect_ranges(c1.stats.time_range, c2.stats.time_range),
                    avg_duration_milli: match (
                        c1.stats.avg_duration_milli,
                        c2.stats.avg_duration_milli,
                    ) {
                        // Output periods are intersections: at most the
                        // shorter input's mean, typically about half of it.
                        (Some(a), Some(b)) => Some(a.min(b) / 2),
                        _ => None,
                    },
                    overlap: None,
                },
            }
        }

        PlanNode::DifferenceT { .. } => {
            let (c1, c2) = (child[0], child[1]);
            if !c1.schema.is_temporal() || !c2.schema.is_temporal() {
                return Err(Error::NotTemporal {
                    context: "temporal difference plan",
                });
            }
            c1.schema
                .check_union_compatible(&c2.schema, "temporal difference plan")?;
            // Fragmentation upper bound: every right period can split one
            // surviving left tuple.
            let rows = c1.stats.rows.saturating_add(c2.stats.rows);
            StaticProps {
                schema: c1.schema.clone(),
                order: c1.order.without_time_attrs(),
                dup_free: c1.snapshot_dup_free,
                snapshot_dup_free: c1.snapshot_dup_free,
                coalesced: false,
                stats: DerivedStats {
                    rows,
                    distinct_rows: rows,
                    columns: c1
                        .stats
                        .columns
                        .iter()
                        .map(|c| c.clone().capped(rows))
                        .collect(),
                    time_range: c1.stats.time_range,
                    avg_duration_milli: c1.stats.avg_duration_milli,
                    overlap: c1.stats.overlap,
                },
            }
        }

        PlanNode::AggregateT { group_by, aggs, .. } => {
            let c = child[0];
            let schema = aggregate_t_schema(&c.schema, group_by, aggs)?;
            let rows = c.stats.rows.saturating_mul(2).max(1);
            StaticProps {
                order: c.order.without_time_attrs().prefix_on(group_by),
                dup_free: true,
                snapshot_dup_free: true,
                coalesced: false,
                stats: DerivedStats {
                    rows,
                    distinct_rows: rows,
                    columns: Vec::new(),
                    time_range: c.stats.time_range,
                    avg_duration_milli: None,
                    overlap: Some(1),
                },
                schema,
            }
        }

        PlanNode::RdupT { .. } => {
            let c = child[0];
            if !c.schema.is_temporal() {
                return Err(Error::NotTemporal {
                    context: "rdupT plan",
                });
            }
            // One fragment per input tuple: on a snapshot-duplicate-free
            // input `rdupᵀ` is the identity, and otherwise the fragments a
            // split adds are about as many as the overlapped tuples it
            // empties (BENCH_exec's `estimation` block read q-error 2.20
            // while this doubled the input).
            let rows = c.stats.rows.max(1);
            let mut stats = c.stats.scaled_to(rows);
            stats.rows = rows;
            stats.distinct_rows = rows;
            stats.overlap = Some(1);
            StaticProps {
                schema: c.schema.clone(),
                order: c.order.without_time_attrs(),
                dup_free: true,
                snapshot_dup_free: true,
                coalesced: false,
                stats,
            }
        }

        PlanNode::UnionT { .. } => {
            let (c1, c2) = (child[0], child[1]);
            if !c1.schema.is_temporal() || !c2.schema.is_temporal() {
                return Err(Error::NotTemporal {
                    context: "temporal union plan",
                });
            }
            c1.schema
                .check_union_compatible(&c2.schema, "temporal union plan")?;
            let rows = c1
                .stats
                .rows
                .saturating_add(c2.stats.rows.saturating_mul(2));
            StaticProps {
                schema: c1.schema.clone(),
                order: Order::unordered(),
                // A right side with snapshot duplicates can surface the
                // same surplus fragment with multiplicity > 1, so
                // duplicate-freedom needs the right side snapshot-dup-free,
                // not merely duplicate-free.
                dup_free: c1.dup_free && c2.snapshot_dup_free,
                snapshot_dup_free: c1.snapshot_dup_free && c2.snapshot_dup_free,
                coalesced: false,
                stats: DerivedStats {
                    rows,
                    distinct_rows: rows,
                    columns: union_columns(&c1.stats, &c2.stats, rows),
                    time_range: union_ranges(c1.stats.time_range, c2.stats.time_range),
                    avg_duration_milli: weighted_duration(&c1.stats, &c2.stats),
                    overlap: match (c1.stats.overlap, c2.stats.overlap) {
                        (Some(1), Some(1)) => Some(1),
                        _ => None,
                    },
                },
            }
        }

        PlanNode::Coalesce { .. } => {
            let c = child[0];
            if !c.schema.is_temporal() {
                return Err(Error::NotTemporal {
                    context: "coalescing plan",
                });
            }
            StaticProps {
                schema: c.schema.clone(),
                order: c.order.without_time_attrs(),
                // On inputs with snapshot duplicates, merging two adjacent
                // periods can produce an exact copy of a third tuple, so
                // duplicate-freedom survives only alongside
                // snapshot-duplicate-freedom.
                dup_free: c.dup_free && c.snapshot_dup_free,
                snapshot_dup_free: c.snapshot_dup_free,
                coalesced: true,
                stats: c.stats.clone(),
            }
        }

        PlanNode::TransferS { .. } | PlanNode::TransferD { .. } => child[0].clone(),
    })
}

/// A child's column estimates padded to its schema arity (blind children
/// contribute all-unknown columns, so positional concatenation stays
/// aligned with the composed schema).
fn padded_columns(c: &StaticProps) -> Vec<ColumnEstimate> {
    if c.stats.columns.len() == c.schema.arity() {
        c.stats.columns.clone()
    } else {
        vec![ColumnEstimate::unknown(); c.schema.arity()]
    }
}

/// Positional merge of two union-compatible inputs' column estimates.
fn union_columns(a: &DerivedStats, b: &DerivedStats, rows: u64) -> Vec<ColumnEstimate> {
    if a.columns.len() != b.columns.len() || a.columns.is_empty() {
        return Vec::new();
    }
    a.columns
        .iter()
        .zip(&b.columns)
        .map(|(x, y)| {
            ColumnEstimate {
                distinct: match (x.distinct, y.distinct) {
                    (Some(dx), Some(dy)) => Some(dx.saturating_add(dy).min(rows.max(1))),
                    _ => None,
                },
                nulls: match (x.nulls, y.nulls) {
                    (Some(nx), Some(ny)) => Some(nx + ny),
                    _ => None,
                },
                min: match (&x.min, &y.min) {
                    (Some(mx), Some(my)) => Some(if mx <= my { mx.clone() } else { my.clone() }),
                    _ => None,
                },
                max: match (&x.max, &y.max) {
                    (Some(mx), Some(my)) => Some(if mx >= my { mx.clone() } else { my.clone() }),
                    _ => None,
                },
                histogram: None, // shapes don't merge cheaply
            }
        })
        .collect()
}

fn union_ranges(
    a: Option<crate::time::Period>,
    b: Option<crate::time::Period>,
) -> Option<crate::time::Period> {
    match (a, b) {
        (Some(a), Some(b)) => Some(crate::time::Period::of(
            a.start.min(b.start),
            a.end.max(b.end),
        )),
        _ => None,
    }
}

fn intersect_ranges(
    a: Option<crate::time::Period>,
    b: Option<crate::time::Period>,
) -> Option<crate::time::Period> {
    match (a, b) {
        (Some(a), Some(b)) => a.intersect(&b),
        _ => None,
    }
}

/// Row-weighted mean duration of two inputs (saturating: maximal-duration
/// periods like `Period::always()` must not overflow the fixed point).
fn weighted_duration(a: &DerivedStats, b: &DerivedStats) -> Option<i64> {
    match (a.avg_duration_milli, b.avg_duration_milli) {
        (Some(da), Some(db)) => {
            let (ra, rb) = (a.rows.max(1) as i64, b.rows.max(1) as i64);
            Some(
                da.saturating_mul(ra).saturating_add(db.saturating_mul(rb)) / ra.saturating_add(rb),
            )
        }
        _ => None,
    }
}

fn demote_name(n: &str) -> String {
    if n == T1 {
        "1.T1".to_owned()
    } else if n == T2 {
        "1.T2".to_owned()
    } else {
        n.to_owned()
    }
}

/// Top-down flag relaxation per operator (§5.2's shaded regions), given the
/// already-derived static properties of the node's children. Public so the
/// memo optimizer can propagate the same contexts group by group.
pub fn child_flags(
    node: &PlanNode,
    f: PropsFlags,
    child_stats: &[&StaticProps],
) -> Vec<PropsFlags> {
    let child_stat = |i: usize| child_stats[i];
    // Conventional operations applied to *temporal* inputs treat the
    // period endpoints as data: replacing their input with a merely
    // snapshot-equivalent relation changes their output beyond snapshot
    // equivalence, so such operators must force `PeriodPreserving` on the
    // affected children (selection with a time-free predicate, projection
    // that keeps `T1`/`T2` untouched, `⊔`, and the transfers are the
    // exceptions — they map fragments one-to-one).
    match node {
        PlanNode::Scan { .. } => vec![],

        PlanNode::Select { predicate, .. } => {
            let time_sensitive = !predicate.is_time_free();
            vec![PropsFlags {
                period_preserving: f.period_preserving || time_sensitive,
                ..f
            }]
        }

        PlanNode::Project { items, .. } => {
            let input_temporal = child_stat(0).schema.is_temporal();
            // Items computing over the period endpoints expose them as data.
            let computes_over_time = items.iter().any(|i| {
                !(i.is_identity() && (i.alias == T1 || i.alias == T2)) && !i.expr.is_time_free()
            });
            // Dropping the period turns fragmentation into multiplicity:
            // snapshot-equivalent inputs give only set-equivalent outputs,
            // fine exactly when duplicates are irrelevant above.
            let keeps_period = items.iter().any(|i| i.is_identity() && i.alias == T1)
                && items.iter().any(|i| i.is_identity() && i.alias == T2);
            let fragmentation_counts = input_temporal && !keeps_period && f.duplicates_relevant;
            vec![PropsFlags {
                period_preserving: f.period_preserving
                    || computes_over_time
                    || fragmentation_counts,
                ..f
            }]
        }

        PlanNode::TransferS { .. } | PlanNode::TransferD { .. } => vec![f],

        // Below a sort, order is not required; sorting by the period
        // endpoints does not read them as data in a snapshot-relevant way
        // (it only permutes, and order is already not required below).
        PlanNode::Sort { .. } => vec![PropsFlags {
            order_required: false,
            ..f
        }],

        // The prefix a limit keeps depends on the exact input list: its
        // order, its duplicates, and (over temporal inputs) its exact
        // periods. Everything below is pinned.
        PlanNode::Limit { .. } => {
            let input_temporal = child_stat(0).schema.is_temporal();
            vec![PropsFlags {
                order_required: true,
                duplicates_relevant: true,
                period_preserving: f.period_preserving || input_temporal,
            }]
        }

        // Below temporal duplicate elimination, duplicates are not
        // relevant. The conventional rdup over a temporal input compares
        // full tuples including periods — fragmentation is data.
        PlanNode::Rdup { .. } => {
            let input_temporal = child_stat(0).schema.is_temporal();
            vec![PropsFlags {
                duplicates_relevant: false,
                period_preserving: f.period_preserving || input_temporal,
                ..f
            }]
        }
        // rdupᵀ keeps the first of two overlapping value-equivalent
        // tuples whole and cuts the later one, so a reordered argument
        // yields only a snapshot-equivalent result: where periods must be
        // preserved above, the argument's order must be preserved below.
        PlanNode::RdupT { .. } => {
            vec![PropsFlags {
                order_required: f.order_required || f.period_preserving,
                duplicates_relevant: false,
                ..f
            }]
        }

        // Below coalescing, periods need not be preserved — provided the
        // argument is free of snapshot duplicates, since only then does
        // coalescing return a unique relation for all snapshot-equivalent
        // arguments (§5.2).
        PlanNode::Coalesce { .. } => {
            let input_sdf = child_stat(0).snapshot_dup_free;
            vec![PropsFlags {
                period_preserving: f.period_preserving && !input_sdf,
                ..f
            }]
        }

        // Aggregation results depend on exact duplicate counts and (for ξᵀ)
        // exact periods of the input. The conventional ξ over a temporal
        // input additionally counts fragments as rows: periods are data.
        PlanNode::Aggregate { .. } => {
            let input_temporal = child_stat(0).schema.is_temporal();
            vec![PropsFlags {
                duplicates_relevant: true,
                period_preserving: f.period_preserving || input_temporal,
                ..f
            }]
        }
        PlanNode::AggregateT { aggs, .. } => {
            // ξᵀ is snapshot-reducible, so per-instant aggregates over
            // explicit attributes are fragmentation-insensitive — but an
            // aggregate *argument* naming T1/T2 reads endpoints as data.
            let reads_time = aggs
                .iter()
                .any(|a| matches!(a.arg.as_deref(), Some(T1) | Some(T2)));
            vec![PropsFlags {
                duplicates_relevant: true,
                period_preserving: f.period_preserving || reads_time,
                ..f
            }]
        }

        // Conventional difference: counts on both sides decide membership,
        // so duplicates stay relevant even under set semantics; the result
        // order derives from the left argument only. Over temporal inputs
        // periods are compared as data.
        PlanNode::Difference { .. } => {
            let temporal = child_stat(0).schema.is_temporal();
            vec![
                PropsFlags {
                    duplicates_relevant: true,
                    period_preserving: f.period_preserving || temporal,
                    ..f
                },
                PropsFlags {
                    order_required: false,
                    duplicates_relevant: true,
                    period_preserving: f.period_preserving || temporal,
                },
            ]
        }

        // Temporal difference: same for the left branch; for the right
        // branch order never matters and periods need not be preserved
        // (only the covered instants count), and when the left branch is
        // snapshot-duplicate-free even duplicates are irrelevant (§5.3).
        PlanNode::DifferenceT { .. } => {
            let left_sdf = child_stat(0).snapshot_dup_free;
            vec![
                PropsFlags {
                    duplicates_relevant: true,
                    ..f
                },
                PropsFlags {
                    order_required: false,
                    duplicates_relevant: !left_sdf,
                    period_preserving: false,
                },
            ]
        }

        // Products: the result order derives from the left argument. The
        // conventional product demotes temporal sides' periods into data.
        PlanNode::Product { .. } => {
            let left_pp = f.period_preserving || child_stat(0).schema.is_temporal();
            let right_pp = f.period_preserving || child_stat(1).schema.is_temporal();
            vec![
                PropsFlags {
                    period_preserving: left_pp,
                    ..f
                },
                PropsFlags {
                    order_required: false,
                    period_preserving: right_pp,
                    ..f
                },
            ]
        }
        // ×ᵀ retains its arguments' timestamps as output data (`1.T1` …),
        // so snapshot-equivalent replacement of either argument changes the
        // output beyond snapshot equivalence: periods must be preserved
        // below (rule C9, which hides the retained timestamps behind a
        // projection, is gated at its own location instead).
        PlanNode::ProductT { .. } => vec![
            PropsFlags {
                period_preserving: true,
                ..f
            },
            PropsFlags {
                order_required: false,
                period_preserving: true,
                ..f
            },
        ],

        // Unions produce unordered results: order is never required below.
        // The conventional max-union over temporal inputs matches full
        // tuples including periods (periods are data); `⊔` and `∪ᵀ` are
        // fragmentation-insensitive.
        PlanNode::UnionMax { .. } => {
            let temporal = child_stat(0).schema.is_temporal();
            let cf = PropsFlags {
                order_required: false,
                period_preserving: f.period_preserving || temporal,
                ..f
            };
            vec![cf, cf]
        }
        PlanNode::UnionAll { .. } | PlanNode::UnionT { .. } => {
            let cf = PropsFlags {
                order_required: false,
                ..f
            };
            vec![cf, cf]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equivalence::ResultType;
    use crate::value::DataType;
    use std::sync::Arc;

    fn scan(name: &str, clean: bool) -> PlanNode {
        let schema = Schema::temporal(&[("EmpName", DataType::Str), ("Dept", DataType::Str)]);
        let base = if clean {
            BaseProps::clean(schema, 1000)
        } else {
            BaseProps::unordered(schema, 1000)
        };
        PlanNode::Scan {
            name: name.into(),
            base,
        }
    }

    #[test]
    fn rdup_t_establishes_snapshot_dup_freedom() {
        let plan = LogicalPlan::new(
            PlanNode::RdupT {
                input: Arc::new(scan("EMP", false)),
            },
            ResultType::Multiset,
        );
        let ann = annotate(&plan).unwrap();
        let root = &ann[&vec![]];
        assert!(root.stat.dup_free);
        assert!(root.stat.snapshot_dup_free);
        assert!(!root.stat.coalesced);
    }

    #[test]
    fn coalesce_enforces_coalescing_and_keeps_dup_freedom() {
        let plan = LogicalPlan::new(
            PlanNode::Coalesce {
                input: Arc::new(PlanNode::RdupT {
                    input: Arc::new(scan("EMP", false)),
                }),
            },
            ResultType::Multiset,
        );
        let ann = annotate(&plan).unwrap();
        let root = &ann[&vec![]];
        assert!(root.stat.coalesced);
        assert!(root.stat.dup_free);
    }

    #[test]
    fn sort_order_and_prefix_special_case() {
        let sorted = PlanNode::Sort {
            input: Arc::new(scan("EMP", false)),
            order: Order::asc(&["EmpName", "Dept"]),
        };
        let plan = LogicalPlan::new(
            PlanNode::Sort {
                input: Arc::new(sorted),
                order: Order::asc(&["EmpName"]),
            },
            ResultType::Multiset,
        );
        let ann = annotate(&plan).unwrap();
        // Sorting by a prefix of the existing order keeps the longer order.
        assert_eq!(ann[&vec![]].stat.order, Order::asc(&["EmpName", "Dept"]));
    }

    #[test]
    fn order_required_cleared_below_sort() {
        let plan = LogicalPlan::new(
            PlanNode::Sort {
                input: Arc::new(PlanNode::RdupT {
                    input: Arc::new(scan("EMP", false)),
                }),
                order: Order::asc(&["EmpName"]),
            },
            ResultType::List(Order::asc(&["EmpName"])),
        );
        let ann = annotate(&plan).unwrap();
        assert!(ann[&vec![]].flags.order_required);
        assert!(!ann[&vec![0]].flags.order_required);
        // …and re-required below the rdupᵀ, whose periods (to be
        // preserved here) depend on its argument's order.
        assert!(ann[&vec![0, 0]].flags.order_required);
    }

    #[test]
    fn order_not_required_below_rdup_t_when_periods_are_free() {
        let plan = LogicalPlan::new(
            PlanNode::Coalesce {
                input: Arc::new(PlanNode::RdupT {
                    input: Arc::new(scan("EMP", false)),
                }),
            },
            ResultType::Multiset,
        );
        let ann = annotate(&plan).unwrap();
        // rdupᵀ output is snapshot-duplicate-free, so coalᵀ frees the
        // periods below it, and with them the order below the rdupᵀ.
        assert!(!ann[&vec![0]].flags.period_preserving);
        assert!(!ann[&vec![0, 0]].flags.order_required);
    }

    #[test]
    fn duplicates_irrelevant_below_rdup_t() {
        let plan = LogicalPlan::new(
            PlanNode::RdupT {
                input: Arc::new(scan("EMP", false)),
            },
            ResultType::Multiset,
        );
        let ann = annotate(&plan).unwrap();
        assert!(ann[&vec![]].flags.duplicates_relevant);
        assert!(!ann[&vec![0]].flags.duplicates_relevant);
    }

    #[test]
    fn periods_not_preserved_below_coalesce_of_sdf_input() {
        let plan = LogicalPlan::new(
            PlanNode::Coalesce {
                input: Arc::new(PlanNode::RdupT {
                    input: Arc::new(scan("EMP", false)),
                }),
            },
            ResultType::Multiset,
        );
        let ann = annotate(&plan).unwrap();
        assert!(ann[&vec![]].flags.period_preserving);
        // rdupᵀ output is snapshot-dup-free, so the region below coalᵀ can
        // use snapshot-equivalence rules.
        assert!(!ann[&vec![0]].flags.period_preserving);
        assert!(!ann[&vec![0, 0]].flags.period_preserving);
    }

    #[test]
    fn periods_preserved_below_coalesce_of_dirty_input() {
        let plan = LogicalPlan::new(
            PlanNode::Coalesce {
                input: Arc::new(scan("EMP", false)),
            },
            ResultType::Multiset,
        );
        let ann = annotate(&plan).unwrap();
        assert!(ann[&vec![0]].flags.period_preserving);
    }

    #[test]
    fn difference_t_right_branch_flags() {
        // Left branch snapshot-dup-free via rdupᵀ: the right branch needs
        // neither order, duplicates, nor periods — §5.3's example.
        let plan = LogicalPlan::new(
            PlanNode::DifferenceT {
                left: Arc::new(PlanNode::RdupT {
                    input: Arc::new(scan("EMP", false)),
                }),
                right: Arc::new(scan("PROJ", false)),
            },
            ResultType::Multiset,
        );
        let ann = annotate(&plan).unwrap();
        let right = &ann[&vec![1]];
        assert!(!right.flags.order_required);
        assert!(!right.flags.duplicates_relevant);
        assert!(!right.flags.period_preserving);
        // Left branch keeps duplicates relevant.
        assert!(ann[&vec![0]].flags.duplicates_relevant);
    }

    #[test]
    fn difference_t_right_branch_duplicates_relevant_when_left_dirty() {
        let plan = LogicalPlan::new(
            PlanNode::DifferenceT {
                left: Arc::new(scan("EMP", false)),
                right: Arc::new(scan("PROJ", false)),
            },
            ResultType::Multiset,
        );
        let ann = annotate(&plan).unwrap();
        assert!(ann[&vec![1]].flags.duplicates_relevant);
        assert!(!ann[&vec![1]].flags.period_preserving);
    }

    #[test]
    fn dbms_results_are_unordered_except_sort() {
        // TS(sort(scan)) — sort inside the DBMS keeps its order.
        let plan = LogicalPlan::new(
            PlanNode::TransferS {
                input: Arc::new(PlanNode::Sort {
                    input: Arc::new(scan("EMP", false)),
                    order: Order::asc(&["EmpName"]),
                }),
            },
            ResultType::Multiset,
        );
        let ann = annotate(&plan).unwrap();
        assert_eq!(ann[&vec![]].stat.order, Order::asc(&["EmpName"]));
        assert_eq!(ann[&vec![0]].stat.order, Order::asc(&["EmpName"]));

        // TS(select(sort(scan))) — the selection runs in the DBMS, so its
        // delivery order is unknown.
        let plan2 = LogicalPlan::new(
            PlanNode::TransferS {
                input: Arc::new(PlanNode::Select {
                    input: Arc::new(PlanNode::Sort {
                        input: Arc::new(scan("EMP", false)),
                        order: Order::asc(&["EmpName"]),
                    }),
                    predicate: crate::expr::Expr::lit(true),
                }),
            },
            ResultType::Multiset,
        );
        let ann2 = annotate(&plan2).unwrap();
        assert!(ann2[&vec![]].stat.order.is_unordered());
    }

    #[test]
    fn result_type_sets_root_flags() {
        let mk = |rt: ResultType| {
            let plan = LogicalPlan::new(scan("EMP", false), rt);
            annotate(&plan).unwrap()[&vec![]].flags
        };
        let list = mk(ResultType::List(Order::asc(&["EmpName"])));
        assert!(list.order_required && list.duplicates_relevant && list.period_preserving);
        let multi = mk(ResultType::Multiset);
        assert!(!multi.order_required && multi.duplicates_relevant);
        let set = mk(ResultType::Set);
        assert!(!set.order_required && !set.duplicates_relevant && set.period_preserving);
    }

    #[test]
    fn figure2a_region_structure() {
        // sort(coalT(rdupT(\T(rdupT(π(EMP)), π(PROJ))))) — the initial plan
        // of Figure 2(a), with the user requiring an ordered result.
        use crate::expr::ProjItem;
        let proj = |name: &str| PlanNode::Project {
            input: Arc::new(scan(name, false)),
            items: vec![
                ProjItem::col("EmpName"),
                ProjItem::col("T1"),
                ProjItem::col("T2"),
            ],
        };
        let plan = LogicalPlan::new(
            PlanNode::Sort {
                input: Arc::new(PlanNode::Coalesce {
                    input: Arc::new(PlanNode::RdupT {
                        input: Arc::new(PlanNode::DifferenceT {
                            left: Arc::new(PlanNode::RdupT {
                                input: Arc::new(proj("EMP")),
                            }),
                            right: Arc::new(proj("PROJ")),
                        }),
                    }),
                }),
                order: Order::asc(&["EmpName"]),
            },
            ResultType::List(Order::asc(&["EmpName"])),
        );
        let ann = annotate(&plan).unwrap();
        // Everything below the sort: order not required.
        for path in [vec![0], vec![0, 0], vec![0, 0, 0], vec![0, 0, 0, 0]] {
            assert!(!ann[&path].flags.order_required, "at {path:?}");
        }
        // Below the top rdupT duplicates are irrelevant...
        assert!(!ann[&vec![0, 0, 0]].flags.duplicates_relevant);
        // ...but the lower-left rdupT re-establishes relevance for the left
        // branch of the temporal difference.
        assert!(ann[&vec![0, 0, 0, 0]].flags.duplicates_relevant);
        // The right branch of the temporal difference is fully free.
        let right = &ann[&vec![0, 0, 0, 1]];
        assert!(!right.flags.order_required);
        assert!(!right.flags.duplicates_relevant);
        assert!(!right.flags.period_preserving);
        // Below coalescing (whose input is sdf thanks to rdupT), periods
        // need not be preserved.
        assert!(!ann[&vec![0, 0]].flags.period_preserving);
    }
}
