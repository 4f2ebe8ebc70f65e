//! The conformance runner: executes every record of a `.slt` file through
//! the full engine/planner mode matrix and holds all legs to
//! byte-identical canonical renderings.
//!
//! Matrix per `query` record (under `modes all`):
//!
//! | leg | engines | comparison |
//! |---|---|---|
//! | reference | interpreter | pinned block in the file |
//! | engine | batch | `==` reference relation |
//! | scheduler | stage graph via the shared multi-query pool | `==` reference relation |
//! | optimizer | memo + Figure 5 closure, via interpreter | byte-identical rendering |
//! | stratum | layered | `==` reference relation |
//! | stratum optimized | layered, then rewritten | byte-identical rendering |
//!
//! Every physical plan computes the interpreter's exact list, so every leg
//! that runs the query's own plan is held to `==`; only the legs that run
//! a Figure 5 rewrite of it are held to the rendering under the result
//! type. `modes engines` keeps only the first three rows — used by
//! generated fixtures where planner legs would dominate runtime. The scheduler
//! leg runs for every record, so the corpus floor doubles as the
//! concurrency oracle (ARCHITECTURE invariant 16).
//!
//! With `UPDATE_SLT=1` the runner rewrites each record's expected block
//! (and fixes `?`/stale type strings) from the reference interpreter,
//! instead of failing on mismatch; large results are pinned as
//! `<n> values hashing to <hex>` digests.

use std::fmt::Write as _;
use std::path::Path;

use tqo_core::cost::CostModel;
use tqo_core::enumerate::{enumerate, EnumerationConfig};
use tqo_core::equivalence::ResultType;
use tqo_core::interp::{eval_plan, Env};
use tqo_core::optimizer::{optimize, OptimizerConfig};
use tqo_core::rules::RuleSet;
use tqo_exec::{execute_mode, lower, ExecMode, PlannerConfig, Scheduler, SubmitOptions};
use tqo_storage::Catalog;
use tqo_stratum::{make_layered, Stratum};

use crate::render::{digest_rows, render_rows, type_string, SortMode};
use crate::slt::{self, Expected, ModeSet, Record, RecordKind};

/// Results of running one corpus file.
#[derive(Debug, Default)]
pub struct FileOutcome {
    /// `query` records executed through the matrix.
    pub queries: usize,
    /// `statement ok` records.
    pub statements: usize,
    /// `query error` records.
    pub errors: usize,
    /// Plans the layered stratum engine declined (`modes all` only).
    pub stratum_skipped: usize,
    /// Failure messages (`file:line: what`).
    pub failures: Vec<String>,
    /// True when `UPDATE_SLT=1` rewrote the file.
    pub blessed: bool,
}

/// Row count above which blessed blocks are pinned as digests.
const HASH_THRESHOLD: usize = 24;

/// Plan budget of the Figure 5 closure leg. It checks that *a chosen
/// plan* evaluates to the reference, which a truncated closure still
/// provides; at the default 4096 every join query runs the closure to
/// truncation and the matrix takes minutes instead of seconds.
/// Cost-equality at full budget is `tests/memo_optimizer.rs`'s job.
const CLOSURE_BUDGET: EnumerationConfig = EnumerationConfig { max_plans: 256 };

/// Run one `.slt` file. `bless` rewrites expected blocks in place.
pub fn run_slt_file(path: &Path, bless: bool) -> Result<FileOutcome, String> {
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default();
    let text = std::fs::read_to_string(path).map_err(|e| format!("{name}: cannot read: {e}"))?;
    let file = slt::parse(&text).map_err(|e| format!("{name}:{e}"))?;
    let catalog = file
        .fixture
        .catalog()
        .map_err(|e| format!("{name}: fixture failed: {e}"))?;
    let env = catalog.env();

    let mut outcome = FileOutcome::default();
    // (record index, new directive line, new expected block) for blessing.
    let mut updates: Vec<(usize, Option<String>, Vec<String>)> = Vec::new();

    for (ri, record) in file.records.iter().enumerate() {
        let at = format!("{name}:{}", record.line);
        match &record.kind {
            RecordKind::StatementOk => {
                outcome.statements += 1;
                match tqo_sql::compile(&record.sql, &catalog)
                    .and_then(|plan| eval_plan(&plan, &env))
                {
                    Ok(_) => {}
                    Err(e) => outcome
                        .failures
                        .push(format!("{at}: statement failed: {e}")),
                }
            }
            RecordKind::QueryError { pattern } => {
                outcome.errors += 1;
                let result =
                    tqo_sql::compile(&record.sql, &catalog).and_then(|plan| eval_plan(&plan, &env));
                match result {
                    Ok(_) => outcome
                        .failures
                        .push(format!("{at}: expected an error, query succeeded")),
                    Err(e) => {
                        let display = e.to_string();
                        if !pattern.is_empty() && !display.contains(pattern.as_str()) {
                            outcome.failures.push(format!(
                                "{at}: error `{display}` does not contain `{pattern}`"
                            ));
                        }
                    }
                }
            }
            RecordKind::Query {
                types,
                sort,
                expected,
            } => {
                outcome.queries += 1;
                match run_matrix(&catalog, &env, record, *sort, file.modes, &mut outcome) {
                    Err(e) => outcome.failures.push(format!("{at}: {e}")),
                    Ok((rows, actual_types)) => {
                        if bless {
                            let new_directive = (types != &actual_types).then(|| {
                                let sort_suffix = match sort {
                                    SortMode::RowSort => " rowsort",
                                    SortMode::NoSort => "",
                                };
                                format!("query {actual_types}{sort_suffix}")
                            });
                            updates.push((ri, new_directive, bless_block(&rows)));
                        } else {
                            if types != &actual_types {
                                outcome.failures.push(format!(
                                    "{at}: type string `{types}` but result has `{actual_types}`"
                                ));
                            }
                            check_expected(&at, expected, &rows, &mut outcome.failures);
                        }
                    }
                }
            }
        }
    }

    if bless {
        rewrite(path, &file.lines, &file.records, &updates)
            .map_err(|e| format!("{name}: bless failed: {e}"))?;
        outcome.blessed = true;
    }
    Ok(outcome)
}

/// Compare the canonical rendering against the pinned block.
fn check_expected(at: &str, expected: &Expected, rows: &[String], failures: &mut Vec<String>) {
    match expected {
        Expected::Missing => {
            failures.push(format!("{at}: no expected block (run with UPDATE_SLT=1)"));
        }
        Expected::Hash { values, hash } => {
            let cols = rows
                .first()
                .map(|r| r.split(' ').count())
                .unwrap_or_default();
            let actual_values = rows.len() * cols;
            let actual_hash = digest_rows(rows);
            if actual_values != *values || actual_hash != *hash {
                failures.push(format!(
                    "{at}: result digest mismatch: pinned {values} values/{hash:016x}, \
                     got {actual_values} values/{actual_hash:016x}"
                ));
            }
        }
        Expected::Rows(pinned) => {
            if pinned != rows {
                let mut msg = format!("{at}: result mismatch\n  pinned ({} rows):", pinned.len());
                for r in pinned.iter().take(8) {
                    let _ = write!(msg, "\n    {r}");
                }
                let _ = write!(msg, "\n  got ({} rows):", rows.len());
                for r in rows.iter().take(8) {
                    let _ = write!(msg, "\n    {r}");
                }
                failures.push(msg);
            }
        }
    }
}

/// Render a blessed expected block (row lines, or a digest line for large
/// results).
fn bless_block(rows: &[String]) -> Vec<String> {
    if rows.len() > HASH_THRESHOLD {
        let cols = rows
            .first()
            .map(|r| r.split(' ').count())
            .unwrap_or_default();
        vec![format!(
            "{} values hashing to {:016x}",
            rows.len() * cols,
            digest_rows(rows)
        )]
    } else {
        rows.to_vec()
    }
}

/// Execute one query through the mode matrix; returns the canonical
/// rendering (reference interpreter, post-sort) and the type string.
fn run_matrix(
    catalog: &Catalog,
    env: &Env,
    record: &Record,
    sort: SortMode,
    modes: ModeSet,
    outcome: &mut FileOutcome,
) -> Result<(Vec<String>, String), String> {
    let sql = &record.sql;
    let plan = tqo_sql::compile(sql, catalog).map_err(|e| format!("compile: {e}"))?;
    let reference = eval_plan(&plan, env).map_err(|e| format!("interp: {e}"))?;
    let actual_types = type_string(reference.schema());

    // Unordered results must be pinned order-insensitively: engines (and
    // especially optimized plans) are free to permute them.
    if sort == SortMode::NoSort && !matches!(plan.result_type, ResultType::List(_)) {
        return Err("unordered query must use rowsort".into());
    }

    // Every leg is held to the same canonical lines: the exact list under
    // ORDER BY, the sorted rows with duplicates kept otherwise.
    let canon = |rel: &tqo_core::relation::Relation| render_rows(rel, sort);

    let canonical = canon(&reference);
    // The batch engine, then the multi-query scheduler: the plan cut
    // into a stage graph and executed through the shared process-wide
    // pool. Every corpus query runs the scheduler leg, so the ≥150-query
    // floor doubles as the concurrency oracle.
    let physical = lower(&plan, PlannerConfig::default()).map_err(|e| format!("lower: {e}"))?;
    let (got, _) =
        execute_mode(&physical, env, ExecMode::Batch).map_err(|e| format!("batch: {e}"))?;
    if got != reference {
        return Err("batch relation differs from the interpreter".into());
    }
    let (got, _) = Scheduler::global()
        .run(&physical, env, SubmitOptions::default())
        .map_err(|e| format!("scheduler: {e}"))?;
    if got != reference {
        return Err("scheduler run differs from the interpreter".into());
    }

    if modes == ModeSet::Engines {
        return Ok((canonical, actual_types));
    }

    // The memo's plan and the Figure 5 closure's cheapest plan (the
    // oracle), evaluated through the interpreter.
    let rules = RuleSet::standard();
    let memo = optimize(&plan, &rules, &OptimizerConfig::default())
        .map_err(|e| format!("memo: {e}"))?
        .best;
    let closure = enumerate(&plan, &rules, CLOSURE_BUDGET).map_err(|e| format!("closure: {e}"))?;
    let (cheapest, _) = closure
        .cheapest(&CostModel::default())
        .map_err(|e| format!("closure: {e}"))?;
    for (leg, best) in [("memo", &memo), ("closure", &closure.plans[cheapest].plan)] {
        let got = eval_plan(best, env).map_err(|e| format!("{leg} eval: {e}"))?;
        if canon(&got) != canonical {
            return Err(format!("{leg}-optimized plan diverges from reference"));
        }
    }

    // Layered stratum engine (plain and optimized), where the layering
    // supports the plan.
    match make_layered(&plan) {
        Err(_) => outcome.stratum_skipped += 1,
        Ok(layered) => {
            let stratum = Stratum::new(catalog.clone());
            let (got, _) = stratum.run(&layered).map_err(|e| format!("stratum: {e}"))?;
            if got != reference {
                return Err("stratum relation differs from the interpreter".into());
            }
            let (got, _, _) = stratum
                .run_sql_optimized(sql)
                .map_err(|e| format!("stratum optimized: {e}"))?;
            if canon(&got) != canonical {
                return Err("optimized stratum diverges from reference".into());
            }
        }
    }

    Ok((canonical, actual_types))
}

/// Splice blessed blocks back into the file, last record first so earlier
/// spans stay valid.
fn rewrite(
    path: &Path,
    lines: &[String],
    records: &[Record],
    updates: &[(usize, Option<String>, Vec<String>)],
) -> std::io::Result<()> {
    let mut lines: Vec<String> = lines.to_vec();
    for (ri, new_directive, block) in updates.iter().rev() {
        let record = &records[*ri];
        let mut replacement = vec!["----".to_owned()];
        replacement.extend(block.iter().cloned());
        match record.expected_span {
            Some((start, end)) => {
                lines.splice(start..end, replacement);
            }
            None => {
                lines.splice(record.insert_at..record.insert_at, replacement);
            }
        }
        if let Some(d) = new_directive {
            lines[record.directive_index] = d.clone();
        }
    }
    let mut text = lines.join("\n");
    text.push('\n');
    std::fs::write(path, text)
}
