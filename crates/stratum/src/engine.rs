//! The stratum executor: runs layered plans, delegating DBMS fragments to
//! the simulated DBMS and moving rows across the serialized wire.
//!
//! The stratum owns no operator implementations of its own: its local
//! operator tree — everything above the transfers — is handed in one
//! piece to `tqo-exec`'s batch engine, whose every operator computes the
//! reference operator's list, so results are bit-identical to the
//! reference interpreter. The paper's premise that "the DBMS sorts faster than the
//! stratum" (§2.1) lives in the cost model's site factors, not in a
//! deliberately slow sort.

use std::sync::Arc;
use std::time::{Duration, Instant};

use tqo_core::context;
use tqo_core::error::{Error, Result};
use tqo_core::interp::Env;
use tqo_core::plan::{BaseProps, LogicalPlan, PlanNode};
use tqo_core::relation::Relation;
use tqo_core::trace::{self, counters, Category};
use tqo_storage::Catalog;

use crate::dbms::SimulatedDbms;
use crate::fault::{is_transient, FaultConfig, FaultInjector, RetryPolicy};
use crate::splitter::{make_layered, validate_layered};
use crate::wire;

/// Execution metrics of one layered query.
#[derive(Debug, Clone, Default)]
pub struct StratumMetrics {
    /// Time spent inside the DBMS (fragment execution).
    pub dbms_time: Duration,
    /// Time spent in stratum operators.
    pub stratum_time: Duration,
    /// Bytes moved across transfers.
    pub transfer_bytes: usize,
    /// Rows moved across transfers.
    pub transferred_rows: usize,
    /// Number of DBMS fragments executed.
    pub fragments: usize,
    /// Per-operator metrics of the stratum-local plan (empty for
    /// fully-pushed plans, which have none). `\timing` in the shell
    /// prints this report.
    pub operators: Vec<tqo_exec::OperatorMetrics>,
    /// The lowered stratum-local physical plan (`None` for fully-pushed
    /// plans). `operators` is this plan's post-order — what EXPLAIN ANALYZE joins
    /// against to render the annotated tree.
    pub local_plan: Option<tqo_exec::PhysicalPlan>,
    /// Fragment attempts repeated after a transient link failure.
    pub retries: usize,
    /// Faults injected into the link by a configured [`FaultConfig`].
    pub faults_injected: usize,
    /// Fragments answered by local execution after the DBMS was declared
    /// unavailable (retry budget spent).
    pub fallbacks: usize,
}

impl StratumMetrics {
    pub fn total_time(&self) -> Duration {
        self.dbms_time + self.stratum_time
    }
}

/// The layered engine.
#[derive(Debug, Clone)]
pub struct Stratum {
    dbms: SimulatedDbms,
    optimizer: tqo_core::optimizer::OptimizerConfig,
    faults: Option<FaultInjector>,
    retry: RetryPolicy,
}

impl Stratum {
    pub fn new(catalog: Catalog) -> Stratum {
        Stratum {
            dbms: SimulatedDbms::new(catalog),
            // Site placement is statistics-driven end to end: plans
            // compiled against the catalog embed measured table summaries
            // (row counts, distinct counts, histograms), so the
            // transfer-cost decision prices estimated rows from data; the
            // default cost model's work factors are fitted to the batch
            // engine that executes the stratum's operators.
            optimizer: tqo_core::optimizer::OptimizerConfig::default(),
            faults: None,
            retry: RetryPolicy::default(),
        }
    }

    /// Inject seeded, deterministic faults into the stratum↔DBMS link:
    /// transient errors, truncated wire payloads, added latency, or a
    /// declared outage (see [`FaultConfig`]). Absorbed by the configured
    /// [`RetryPolicy`]; a faulty run whose retries succeed is
    /// byte-identical to a clean run.
    pub fn with_faults(mut self, config: FaultConfig) -> Stratum {
        self.faults = Some(FaultInjector::new(config));
        self
    }

    /// Configure how link failures are absorbed: retry budget, backoff,
    /// per-fragment timeout, and whether to degrade to local execution
    /// once the DBMS is declared unavailable.
    pub fn with_retry(mut self, policy: RetryPolicy) -> Stratum {
        self.retry = policy;
        self
    }

    /// The active fault injection, if any.
    pub fn faults(&self) -> Option<&FaultConfig> {
        self.faults.as_ref().map(FaultInjector::config)
    }

    /// The active retry policy.
    pub fn retry(&self) -> RetryPolicy {
        self.retry
    }

    pub fn dbms(&self) -> &SimulatedDbms {
        &self.dbms
    }

    /// Execute a layered plan (validated first): execute every DBMS
    /// fragment (bottom of the layered plan), bind the wired results as
    /// synthetic base relations, and run the entire stratum-local operator
    /// tree through the batch engine in one piece. Every physical
    /// operator computes its reference operator's list, so the stratum's
    /// semantics are those of the reference operators.
    pub fn run(&self, plan: &LogicalPlan) -> Result<(Relation, StratumMetrics)> {
        validate_layered(plan)?;
        counters::QUERIES_EXECUTED.incr();
        let mut span = trace::span(Category::Stratum, "stratum.run");
        let mut metrics = StratumMetrics::default();
        let result = self.run_layered(plan, &mut metrics)?;
        span.note_with(|| {
            format!(
                "\"fragments\": {}, \"wire_rows\": {}, \"rows\": {}",
                metrics.fragments,
                metrics.transferred_rows,
                result.len()
            )
        });
        Ok((result, metrics))
    }

    fn run_layered(&self, plan: &LogicalPlan, metrics: &mut StratumMetrics) -> Result<Relation> {
        // The root may itself be a transfer (fully-pushed plans).
        if let PlanNode::TransferS { input } = &*plan.root {
            return self.run_fragment(input, metrics);
        }
        let mut env = Env::new();
        let mut counter = 0usize;
        let local_root = self.bind_fragments(&plan.root, &mut env, &mut counter, metrics)?;
        let local_plan = LogicalPlan::new(local_root, plan.result_type.clone());
        let config = tqo_exec::PlannerConfig::default();
        let span = trace::span(Category::Stratum, "stratum.local");
        let started = Instant::now();
        let physical = tqo_exec::lower(&local_plan, config)?;
        let (result, exec_metrics) = tqo_exec::execute_mode(&physical, &env, config.mode)?;
        metrics.local_plan = Some(physical);
        metrics.stratum_time += started.elapsed();
        drop(span);
        metrics.operators = exec_metrics.operators;
        Ok(result)
    }

    /// Execute one DBMS fragment and wire its rows into the stratum.
    /// Fragment dispatch is a governance checkpoint; with faults
    /// configured the link failure is absorbed here (retries, backoff,
    /// per-fragment timeout, local fallback).
    fn run_fragment(&self, input: &PlanNode, metrics: &mut StratumMetrics) -> Result<Relation> {
        context::check_current()?;
        let mut frag_span = trace::span_with(Category::Stratum, || {
            format!("fragment {}", metrics.fragments)
        });
        let (decoded, bytes) = match &self.faults {
            None => {
                let (result, stats) = self.dbms.execute(input)?;
                metrics.dbms_time += stats.elapsed;
                frag_span.note_with(|| format!("\"rows\": {}", result.len()));
                let mut wire_span = trace::span(Category::Stratum, "wire");
                let out = wire::transfer(&result)?;
                wire_span.note_with(|| format!("\"rows\": {}, \"bytes\": {}", out.0.len(), out.1));
                out
            }
            Some(inj) => self.fragment_with_faults(input, inj, metrics)?,
        };
        drop(frag_span);
        metrics.fragments += 1;
        counters::FRAGMENTS_EXECUTED.incr();
        metrics.transfer_bytes += bytes;
        metrics.transferred_rows += decoded.len();
        counters::WIRE_ROWS.add(decoded.len() as u64);
        counters::WIRE_BYTES.add(bytes as u64);
        Ok(decoded)
    }

    /// The faulty link: attempt the fragment under injected faults,
    /// retrying transient failures with exponential backoff within the
    /// per-fragment timeout; once the retry budget is spent, degrade to
    /// local execution (if allowed) or surface
    /// [`Error::DbmsUnavailable`]. Non-transient errors (plan errors,
    /// cancellation, budget denial) propagate immediately.
    fn fragment_with_faults(
        &self,
        input: &PlanNode,
        inj: &FaultInjector,
        metrics: &mut StratumMetrics,
    ) -> Result<(Relation, usize)> {
        let started = Instant::now();
        let mut retry = 0u32;
        loop {
            context::check_current()?;
            if let Some(limit) = self.retry.fragment_timeout {
                if started.elapsed() >= limit {
                    return Err(Error::DeadlineExceeded {
                        limit_ms: limit.as_millis() as u64,
                    });
                }
            }
            match self.attempt_fragment(input, inj, metrics) {
                Ok(out) => return Ok(out),
                Err(e) if is_transient(&e) => {
                    if retry < self.retry.max_retries {
                        retry += 1;
                        metrics.retries += 1;
                        counters::WIRE_RETRIES.incr();
                        trace::instant_with(
                            Category::Governance,
                            || format!("retry {retry} after transient fault: {e}"),
                            String::new,
                        );
                        let backoff = self.retry.backoff(retry);
                        if !backoff.is_zero() {
                            std::thread::sleep(backoff);
                        }
                        continue;
                    }
                    let attempts = retry + 1;
                    if self.retry.fallback_local {
                        return self.fragment_fallback(input, metrics, attempts, &e);
                    }
                    return Err(Error::DbmsUnavailable {
                        attempts,
                        reason: e.to_string(),
                    });
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// One attempt against the (possibly faulty) link: injected outage,
    /// latency, and transient errors fire before the DBMS call; payload
    /// truncation corrupts the encoded wire bytes so the fault surfaces
    /// exactly where a real link failure would — in `wire::decode`.
    fn attempt_fragment(
        &self,
        input: &PlanNode,
        inj: &FaultInjector,
        metrics: &mut StratumMetrics,
    ) -> Result<(Relation, usize)> {
        let cfg = inj.config();
        if cfg.dbms_down {
            return Err(Error::DbmsUnavailable {
                attempts: 1,
                reason: "dbms declared down".into(),
            });
        }
        if !cfg.latency.is_zero() {
            std::thread::sleep(cfg.latency);
        }
        if inj.should_error() {
            metrics.faults_injected += 1;
            counters::FAULTS_INJECTED.incr();
            trace::instant(Category::Governance, "injected transient dbms error");
            return Err(Error::DbmsUnavailable {
                attempts: 1,
                reason: "injected transient dbms error".into(),
            });
        }
        let (result, stats) = self.dbms.execute(input)?;
        metrics.dbms_time += stats.elapsed;
        let encoded = wire::encode(&result)?;
        let size = encoded.len();
        let encoded = if inj.should_truncate() {
            metrics.faults_injected += 1;
            counters::FAULTS_INJECTED.incr();
            trace::instant(Category::Governance, "injected truncated wire payload");
            inj.truncate(encoded)
        } else {
            encoded
        };
        let decoded = wire::decode(result.schema(), encoded)?;
        Ok((decoded, size))
    }

    /// Graceful degradation: the DBMS is unavailable, so execute the
    /// fragment locally. Sound because every DBMS fragment is
    /// conventional-only over base tables the stratum's catalog can also
    /// read; the result still rides through the wire so its normalization
    /// (and the transfer accounting) is identical to the DBMS path.
    fn fragment_fallback(
        &self,
        input: &PlanNode,
        metrics: &mut StratumMetrics,
        attempts: u32,
        cause: &Error,
    ) -> Result<(Relation, usize)> {
        metrics.fallbacks += 1;
        counters::DBMS_FALLBACKS.incr();
        trace::instant_with(
            Category::Governance,
            || {
                format!(
                    "dbms unavailable after {attempts} attempt(s) ({cause}); \
                     executing fragment locally"
                )
            },
            String::new,
        );
        let started = Instant::now();
        let env = self.dbms.catalog().env();
        let result = tqo_core::interp::eval(input, &env)?;
        metrics.stratum_time += started.elapsed();
        wire::transfer(&result)
    }

    /// Replace every `Tˢ` subtree with a scan of a synthetic base relation
    /// holding the fragment's wired result; rejects plan shapes the
    /// stratum cannot run (bare scans, `Tᴰ`).
    fn bind_fragments(
        &self,
        node: &PlanNode,
        env: &mut Env,
        counter: &mut usize,
        metrics: &mut StratumMetrics,
    ) -> Result<PlanNode> {
        match node {
            PlanNode::TransferS { input } => {
                let relation = self.run_fragment(input, metrics)?;
                let name = format!("__frag{}", *counter);
                *counter += 1;
                let base = BaseProps::unordered(relation.schema().clone(), relation.len() as u64);
                env.insert(name.clone(), relation);
                Ok(PlanNode::Scan { name, base })
            }
            PlanNode::TransferD { .. } => Err(Error::Plan {
                reason: "Tᴰ execution (shipping stratum results into the DBMS) is not \
                         supported by the simulated DBMS; keep stratum results in the \
                         stratum"
                    .into(),
            }),
            PlanNode::Scan { name, .. } => Err(Error::Plan {
                reason: format!(
                    "scan of `{name}` reached the stratum executor; wrap scans in Tˢ \
                     (make_layered)"
                ),
            }),
            other => {
                let mut rebuilt = Vec::with_capacity(other.children().len());
                for c in other.children() {
                    rebuilt.push(Arc::new(self.bind_fragments(c, env, counter, metrics)?));
                }
                other.with_children(rebuilt)
            }
        }
    }

    /// Compile a SQL query, wrap its scans in transfers, and execute.
    pub fn run_sql(&self, sql: &str) -> Result<(Relation, StratumMetrics)> {
        let plan = tqo_sql::compile(sql, self.dbms.catalog())?;
        let layered = make_layered(&plan)?;
        self.run(&layered)
    }

    /// Compile, layer, optimize (memo search + cost), and execute. Returns
    /// the chosen plan alongside the result.
    pub fn run_sql_optimized(&self, sql: &str) -> Result<(Relation, StratumMetrics, LogicalPlan)> {
        let plan = tqo_sql::compile(sql, self.dbms.catalog())?;
        let layered = make_layered(&plan)?;
        let optimized = tqo_core::optimizer::optimize(
            &layered,
            &tqo_core::rules::RuleSet::standard(),
            &self.optimizer,
        )?;
        let (result, metrics) = self.run(&optimized.best)?;
        Ok((result, metrics, optimized.best))
    }

    /// `EXPLAIN ANALYZE` through the layer: compile, layer, optimize, and
    /// execute like [`Stratum::run_sql_optimized`], then render the
    /// layered report — a header with the fragment/wire volume and the
    /// DBMS/stratum time split, followed by the stratum-local plan's
    /// per-operator analyze table (est vs actual rows, q-error, exclusive
    /// wall time, throughput). The result is byte-identical to a plain
    /// run.
    pub fn run_sql_analyzed(&self, sql: &str) -> Result<(Relation, StratumMetrics, String)> {
        let (result, metrics, _plan) = self.run_sql_optimized(sql)?;
        let mut report = format!(
            "stratum: {} fragment(s), {} rows / {} bytes wired; dbms {:?}, stratum {:?}\n",
            metrics.fragments,
            metrics.transferred_rows,
            metrics.transfer_bytes,
            metrics.dbms_time,
            metrics.stratum_time,
        );
        let exec_metrics = tqo_exec::ExecMetrics {
            operators: metrics.operators.clone(),
        };
        report.push_str(&tqo_exec::analyze::render(
            metrics.local_plan.as_ref(),
            &exec_metrics,
        ));
        Ok((result, metrics, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tqo_storage::paper;

    #[test]
    fn running_example_end_to_end() {
        let stratum = Stratum::new(paper::catalog());
        let (result, metrics) = stratum
            .run_sql(
                "VALIDTIME SELECT DISTINCT EmpName FROM EMPLOYEE \
                 EXCEPT VALIDTIME SELECT DISTINCT EmpName FROM PROJECT \
                 COALESCE ORDER BY EmpName",
            )
            .unwrap();
        assert_eq!(result, paper::figure1_result());
        assert_eq!(metrics.fragments, 2);
        assert!(metrics.transfer_bytes > 0);
        assert_eq!(metrics.transferred_rows, 13); // 5 + 8 base rows
    }

    #[test]
    fn optimized_run_agrees_with_unoptimized() {
        let stratum = Stratum::new(paper::catalog());
        let sql = "VALIDTIME SELECT DISTINCT EmpName FROM EMPLOYEE \
                   EXCEPT VALIDTIME SELECT DISTINCT EmpName FROM PROJECT \
                   COALESCE ORDER BY EmpName";
        let (plain, _) = stratum.run_sql(sql).unwrap();
        let (optimized, _, chosen) = stratum.run_sql_optimized(sql).unwrap();
        assert_eq!(plain, optimized);
        assert_eq!(optimized, paper::figure1_result());
        // The optimizer kept the plan layered and valid.
        validate_layered(&chosen).unwrap();
        // The chosen layered plan is as cheap as the Figure 5 closure's
        // optimum under the layer's own (default) cost model.
        let layered =
            make_layered(&tqo_sql::compile(sql, stratum.dbms().catalog()).unwrap()).unwrap();
        let closure = tqo_core::enumerate::enumerate(
            &layered,
            &tqo_core::rules::RuleSet::standard(),
            tqo_core::enumerate::EnumerationConfig::default(),
        )
        .unwrap();
        assert!(!closure.truncated);
        let model = &stratum.optimizer.cost_model;
        let (_, oracle) = closure.cheapest(model).unwrap();
        let got = model.cost(&chosen).unwrap();
        assert!(
            (oracle.0 - got.0).abs() <= 1e-9 * oracle.0.max(1.0),
            "{oracle:?} vs {got:?}"
        );
    }

    #[test]
    fn the_stratum_agrees_with_the_interpreter_exactly() {
        let catalog = paper::catalog();
        let stratum = Stratum::new(catalog.clone());
        for sql in [
            "VALIDTIME SELECT DISTINCT EmpName FROM EMPLOYEE \
             EXCEPT VALIDTIME SELECT DISTINCT EmpName FROM PROJECT \
             COALESCE ORDER BY EmpName",
            "SELECT Dept, COUNT(*) AS n FROM EMPLOYEE GROUP BY Dept",
            "SELECT EmpName FROM EMPLOYEE",
            "VALIDTIME SELECT e.EmpName FROM EMPLOYEE e, PROJECT p \
             WHERE e.EmpName = p.EmpName",
        ] {
            let plan = tqo_sql::compile(sql, &catalog).unwrap();
            let expected = tqo_core::interp::eval_plan(&plan, &catalog.env()).unwrap();
            let (got, metrics) = stratum.run_sql(sql).unwrap();
            assert_eq!(
                got, expected,
                "stratum diverges from the interpreter on {sql}"
            );
            // The local plan's operator report is surfaced.
            assert!(!metrics.operators.is_empty());
        }
    }

    #[test]
    fn unlayered_plans_are_rejected() {
        let stratum = Stratum::new(paper::catalog());
        let plan =
            tqo_sql::compile("SELECT EmpName FROM EMPLOYEE", stratum.dbms().catalog()).unwrap();
        assert!(stratum.run(&plan).is_err());
    }

    #[test]
    fn conventional_sql_through_the_layer() {
        let stratum = Stratum::new(paper::catalog());
        let (result, metrics) = stratum
            .run_sql("SELECT Dept, COUNT(*) AS n FROM EMPLOYEE GROUP BY Dept")
            .unwrap();
        assert_eq!(result.len(), 2);
        assert_eq!(metrics.fragments, 1);
    }
}
