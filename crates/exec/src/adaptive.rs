//! Adaptive mid-query re-optimization driven by runtime cardinality
//! feedback.
//!
//! The static optimizer plans once, from estimates; on skewed temporal
//! data those estimates can be wildly wrong, and the chosen algorithms and
//! plan shapes wrong with them. This module closes the loop the
//! statistics layer left open (`est_rows` / `q_error()` were recorded in
//! [`crate::metrics::OperatorMetrics`] but nothing acted on them):
//!
//! 1. **Stage execution.** The physical plan is cut at its pipeline
//!    breakers by the one cutter the scheduler also uses
//!    ([`StageGraph`]) and its stages run in order — deepest breaker
//!    first — on whichever engine is active (row or batch).
//! 2. **Checkpoint.** A checkpoint *is* a finished non-final stage: its
//!    materialized output is bound under the stage's binding
//!    (`__adaptive{round}_stage{k}`), exactly as the scheduler binds it.
//! 3. **Feedback.** The stage root's estimated-vs-actual q-error is
//!    compared against [`AdaptiveConfig::q_threshold`]. Below the
//!    threshold the remaining stages of the *static* graph simply keep
//!    running — an untriggered adaptive run executes exactly the
//!    operators the static run would, so its result is byte-identical to
//!    the static result. At or above the threshold (and within
//!    [`AdaptiveConfig::max_reopt`]), every finished stage is pinned in
//!    the logical plan as a scan with *measured* statistics
//!    ([`tqo_core::plan::BaseProps::measured`]: row and distinct counts,
//!    histograms, time range, snapshot-overlap degree) and the unexecuted
//!    remainder re-enters the planner: lowering re-derives its estimates
//!    from the measurements, and when a rule set is supplied the memo (or
//!    exhaustive) optimizer re-searches the remainder's plan space. The new plan is cut again and the loop continues. The
//!    executed prefix is pinned by construction — it is now a scan leaf,
//!    which no rule can rewrite away.
//!
//! The root's stage is never a checkpoint: nothing is left to re-plan
//! above it, so it runs to completion and its output is the result.
//!
//! **Result guarantees.** Every re-planning step preserves the query's
//! declared result type (`≡SQL`), exactly like static optimization; and
//! because every adaptive decision is a deterministic function of actual
//! cardinalities — which both engines agree on — an adaptive run produces
//! byte-identical results on the row and batch engines. With re-lowering
//! only (no rule re-entry), the adaptive result is byte-identical to the
//! reference interpreter. See `docs/adaptive.md`
//! for the full invariant table.

use tqo_core::context;
use tqo_core::error::Result;
use tqo_core::interp::Env;
use tqo_core::optimizer::optimize;
use tqo_core::plan::{BaseProps, LogicalPlan, PlanNode};
use tqo_core::relation::Relation;
use tqo_core::rules::RuleSet;

use tqo_core::trace::{self, counters, Category};

use crate::executor::execute_mode;
use crate::metrics::{ExecMetrics, ReoptEvent};
use crate::parallel::StageGraph;
use crate::physical::PhysicalNode;
use crate::planner::{lower, optimizer_config, PlannerConfig};

/// Knobs of the adaptive re-optimization loop ([`execute_adaptive`]).
///
/// ```
/// use tqo_exec::adaptive::AdaptiveConfig;
///
/// // The default triggers on 2× misestimates, up to four times a query.
/// let cfg = AdaptiveConfig::default();
/// assert_eq!(cfg.q_threshold, 2.0);
/// // q-errors are ≥ 1 by definition, so a threshold of 1.0 re-plans at
/// // every completed breaker — maximum re-planning pressure.
/// let eager = AdaptiveConfig { q_threshold: 1.0, ..cfg };
/// assert!(eager.q_threshold <= cfg.q_threshold);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveConfig {
    /// Re-plan the remainder when a completed pipeline breaker's q-error
    /// (`max(est/actual, actual/est)`, floored at one row on both sides)
    /// reaches this threshold. Since q-errors are ≥ 1, a threshold of
    /// `1.0` re-plans at every breaker.
    pub q_threshold: f64,
    /// Maximum number of re-plans per query (checkpoints past the budget
    /// still execute stage-wise but keep the static remainder).
    pub max_reopt: usize,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            q_threshold: 2.0,
            max_reopt: 4,
        }
    }
}

/// Execute a logical plan adaptively: lower it, run it stage by stage at
/// its pipeline breakers, and re-plan the remainder with measured
/// statistics whenever a checkpoint's q-error reaches `adaptive`'s
/// threshold. The one door into the adaptive loop.
///
/// With `rules: None` re-planning is *re-lowering only*: the remainder's
/// estimates come from measured statistics, and since every operator has
/// one algorithm, the plan itself stays as it was. With `rules: Some(_)` the
/// remainder also re-enters the configured search strategy (memo by
/// default in callers that care about latency), which can restructure it —
/// move work across the stratum split, reorder joins — exactly as the
/// static optimizer could have, had it known the true cardinalities.
pub fn execute_adaptive(
    plan: &LogicalPlan,
    env: &Env,
    rules: Option<&RuleSet>,
    config: PlannerConfig,
    adaptive: AdaptiveConfig,
) -> Result<(Relation, ExecMetrics)> {
    let mut logical = plan.clone();
    let mut physical = lower(plan, config)?;
    // A private clone: checkpoint bindings must not leak into the caller's
    // environment.
    let mut env = env.clone();
    let mut metrics = ExecMetrics::default();
    let mut replans = 0usize;

    // One round per plan: cut it, run its stages, start over on a re-plan.
    'plans: loop {
        // Lowering is node-for-node, so stage paths index `logical` too.
        debug_assert_eq!(logical.root.size(), physical.root.size());
        let graph = StageGraph::lower(&physical, &format!("__adaptive{replans}_"))?;
        let (last, checkpoints) = graph
            .stages
            .split_last()
            .expect("a stage graph ends in the root's stage");
        for stage in checkpoints {
            // Governance checkpoint: between stages is the natural
            // cancellation point of the adaptive loop (each stage's engine
            // also checks internally at its own granularity).
            context::check_current()?;
            let mut ckpt_span = trace::span_with(Category::Adaptive, || {
                format!("checkpoint {}", metrics.reopts.len())
            });
            let (rel, stage_metrics) = execute_mode(&stage.plan, &env, config.mode)?;
            let breaker = stage_metrics.operators.last().expect("stage has operators");
            let (label, est, q) = (breaker.label.clone(), breaker.est_rows, breaker.q_error());
            let actual = rel.len();
            metrics.operators.extend(stage_metrics.operators);
            env.insert(graph.binding(stage.id), rel);

            let triggered =
                replans < adaptive.max_reopt && q.is_some_and(|q| q >= adaptive.q_threshold);
            let mut plan_changed = false;
            if triggered {
                counters::REOPTS_TRIGGERED.incr();
                replans += 1;
                // Pin the finished work: every finished stage that no
                // other finished stage consumed becomes a scan of its
                // binding — with measured statistics in the logical plan,
                // and as-is in `kept`, the remainder a static run would
                // go on to execute.
                let done = &graph.stages[..=stage.id];
                let mut kept = (*physical.root).clone();
                for s in done
                    .iter()
                    .filter(|s| !done.iter().any(|t| t.deps.contains(&s.id)))
                {
                    let name = graph.binding(s.id);
                    let base = BaseProps::measured(env.get(&name)?)?;
                    kept = kept.replace(&s.path, PhysicalNode::Scan { name: name.clone() })?;
                    let pinned = logical
                        .root
                        .replace(&s.path, PlanNode::Scan { name, base })?;
                    logical = logical.with_root(pinned);
                }
                if let Some(rules) = rules {
                    logical = optimize(&logical, rules, &optimizer_config(config))?.best;
                }
                physical = lower(&logical, config)?;
                plan_changed = *physical.root != kept;
            }
            trace::instant_with(
                Category::Adaptive,
                || format!("reopt @ {label}"),
                || {
                    format!(
                        "\"est\": {}, \"actual\": {actual}, \"q\": {}, \"replanned\": {triggered}, \
                         \"plan_changed\": {plan_changed}",
                        est.map_or_else(|| "null".into(), |e| e.to_string()),
                        q.map_or_else(|| "null".into(), |q| format!("{q:.2}")),
                    )
                },
            );
            ckpt_span.note_with(|| {
                format!(
                    "\"breaker\": \"{}\", \"rows\": {actual}",
                    trace::json_escape(&label)
                )
            });
            drop(ckpt_span);
            metrics.reopts.push(ReoptEvent {
                checkpoint: label,
                est_rows: est,
                actual_rows: actual,
                q_error: q,
                replanned: triggered,
                plan_changed,
            });
            if triggered {
                continue 'plans;
            }
        }

        // Nothing above the root's stage is left to re-plan: run it to
        // completion.
        context::check_current()?;
        let (result, final_metrics) = execute_mode(&last.plan, &env, config.mode)?;
        metrics.operators.extend(final_metrics.operators);
        return Ok((result, metrics));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::ExecMode;
    use tqo_core::plan::PlanBuilder;
    use tqo_core::schema::Schema;
    use tqo_core::stats::TableSummary;
    use tqo_core::tuple::Tuple;
    use tqo_core::value::{DataType, Value};

    fn temporal(rows: usize, classes: usize) -> Relation {
        let tuples = (0..rows)
            .map(|i| {
                Tuple::new(vec![
                    Value::Str(format!("v{}", i % classes.max(1)).into()),
                    Value::Time((i / classes.max(1)) as i64 * 3),
                    Value::Time((i / classes.max(1)) as i64 * 3 + 2),
                ])
            })
            .collect();
        Relation::new(Schema::temporal(&[("E", DataType::Str)]), tuples).unwrap()
    }

    /// Scan with statistics measured from a *stale sample* of the table —
    /// the seeded-misestimate device the adaptive tests use.
    fn stale_scan(name: &str, actual: &Relation, sample_rows: usize) -> PlanBuilder {
        let sample = Relation::new(
            actual.schema().clone(),
            actual.tuples()[..sample_rows.min(actual.len())].to_vec(),
        )
        .unwrap();
        let mut base = BaseProps::measured(&sample).unwrap();
        base.schema = actual.schema().clone();
        PlanBuilder::scan(name, base)
    }

    #[test]
    fn untriggered_adaptive_runs_are_byte_identical_to_static() {
        let a = temporal(200, 10);
        let b = temporal(40, 10);
        let env = Env::new().with("A", a.clone()).with("B", b.clone());
        // Accurate statistics: nothing should trigger at the default 2×.
        let scan = |n: &str, r: &Relation| PlanBuilder::scan(n, BaseProps::measured(r).unwrap());
        let plan = scan("A", &a)
            .rdup_t()
            .difference_t(scan("B", &b))
            .coalesce()
            .build_multiset();
        for mode in [ExecMode::Row, ExecMode::Batch] {
            let config = PlannerConfig {
                mode,
                ..PlannerConfig::default()
            };
            let (expected, _) = crate::executor::execute_logical(&plan, &env, config).unwrap();
            let (got, m) =
                execute_adaptive(&plan, &env, None, config, AdaptiveConfig::default()).unwrap();
            assert_eq!(got, expected, "untriggered adaptive diverged ({mode:?})");
            assert_eq!(m.replanned_count(), 0, "accurate stats must not trigger");
            assert!(!m.reopts.is_empty(), "breakers still checkpoint");
        }
    }

    #[test]
    fn max_reopt_zero_pins_the_static_plan_even_under_pressure() {
        let a = temporal(400, 20);
        let env = Env::new().with("A", a.clone());
        let plan = stale_scan("A", &a, 8).rdup_t().coalesce().build_multiset();
        let pinned = AdaptiveConfig {
            q_threshold: 1.0,
            max_reopt: 0,
        };
        let (got, m) =
            execute_adaptive(&plan, &env, None, PlannerConfig::default(), pinned).unwrap();
        let (expected, _) =
            crate::executor::execute_logical(&plan, &env, PlannerConfig::default()).unwrap();
        assert_eq!(got, expected);
        assert_eq!(m.replanned_count(), 0);
    }

    #[test]
    fn checkpoints_carry_measured_statistics() {
        // The stale scan claims 8 rows; the checkpointed rdupᵀ output is
        // re-measured, so the remainder's estimate snaps to the truth and
        // the final breaker's q-error is ~1.
        let a = temporal(400, 20);
        let env = Env::new().with("A", a.clone());
        let plan = stale_scan("A", &a, 8).rdup_t().coalesce().build_multiset();
        let eager = AdaptiveConfig {
            q_threshold: 1.0,
            max_reopt: 4,
        };
        let (_, m) = execute_adaptive(&plan, &env, None, PlannerConfig::default(), eager).unwrap();
        assert_eq!(m.replanned_count(), 1);
        let coalesce = m
            .operators
            .iter()
            .find(|o| o.label.starts_with("coalesce"))
            .unwrap();
        let q = coalesce.q_error().unwrap();
        assert!(
            q < 1.5,
            "post-checkpoint estimate should be measured: q={q}"
        );
        // And the checkpoint summary itself is a faithful measurement.
        let s = TableSummary::measure(env.get("A").unwrap()).unwrap();
        assert_eq!(s.rows, 400);
    }
}
