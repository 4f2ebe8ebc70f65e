//! An interactive temporal-SQL shell over the layered engine.
//!
//! ```sh
//! cargo run --example temporal_shell            # interactive
//! echo 'SELECT EmpName FROM EMPLOYEE' | cargo run --example temporal_shell
//! ```
//!
//! Commands (documented with sample sessions in `docs/shell.md`):
//! * plain temporal SQL — compiled, layered, optimized, executed;
//! * `\tables` — list catalog tables with their measured invariants and
//!   statistics;
//! * `\explain <sql>` — annotated logical plan (Figure 6 property vectors);
//! * `\costs <sql>` — EXPLAIN the *optimized* plan with per-node site,
//!   estimated rows, and estimated cost (the statistics-driven view);
//! * `\analyze <sql>` — EXPLAIN ANALYZE: execute the optimized plan and
//!   render it annotated per operator with estimated vs actual rows,
//!   q-error, exclusive wall time, and throughput;
//! * `\profile <sql> [file]` — execute the query with tracing enabled and
//!   write the profile as Chrome trace-event JSON (default `trace.json`;
//!   open in `chrome://tracing` or Perfetto);
//! * `\counters` — dump the process-wide observability counters (memo
//!   exprs, rules fired, stats-cache traffic, scheduler tasks, wire
//!   volume);
//! * `\fragments <sql>` — the SQL shipped to the DBMS per `Tˢ` fragment;
//! * `\plans <sql>` — size of the Figure 5 plan space for the query;
//! * `\timing` — toggle the per-operator report of the stratum-local
//!   plan after each query;
//! * `\timeout <ms>` — per-query deadline: queries exceeding it fail with
//!   a typed `deadline exceeded` error at the next governance checkpoint
//!   (`\timeout off` clears; `docs/robustness.md`);
//! * `\memlimit <bytes[k|m|g]>` — per-query memory budget over the
//!   engine's accounted allocations (hash tables, sort buffers,
//!   materialized intermediates, wire decode); exceeding it fails the
//!   query with a typed budget error, gracefully (`\memlimit off`);
//! * `\faults <seed>|down|off` — deterministic fault injection on the
//!   stratum↔DBMS link (seeded transient errors and truncated payloads,
//!   absorbed by bounded retry; `down` declares an outage so every
//!   fragment degrades to local execution);
//! * `\quit` — exit.
//!
//! The catalog starts pre-loaded with the paper's EMPLOYEE and PROJECT.

use std::io::{self, BufRead, Write};
use std::time::Duration;

use tqo_core::context::{self, QueryContext};
use tqo_core::enumerate::{enumerate, EnumerationConfig};
use tqo_core::rules::RuleSet;
use tqo_storage::paper;
use tqo_stratum::{fragments, make_layered, FaultConfig, Stratum};

/// Fault injection as set by `\faults`.
#[derive(Clone, Copy, PartialEq)]
enum Faults {
    Off,
    Seeded(u64),
    Down,
}

/// Mutable shell state: the layered engine plus display toggles.
struct Shell {
    catalog: tqo_storage::Catalog,
    stratum: Stratum,
    timing: bool,
    timeout_ms: Option<u64>,
    memlimit: Option<usize>,
    faults: Faults,
}

impl Shell {
    /// Rebuild the stratum from the current `\faults` toggle.
    fn rebuild(&mut self) {
        let stratum = Stratum::new(self.catalog.clone());
        self.stratum = match self.faults {
            Faults::Off => stratum,
            Faults::Seeded(seed) => stratum.with_faults(FaultConfig::with_seed(seed)),
            Faults::Down => stratum.with_faults(FaultConfig::down()),
        };
    }

    /// The governance context of the next query, if `\timeout` or
    /// `\memlimit` configured one.
    fn query_context(&self) -> Option<QueryContext> {
        if self.timeout_ms.is_none() && self.memlimit.is_none() {
            return None;
        }
        let mut ctx = QueryContext::new();
        if let Some(ms) = self.timeout_ms {
            ctx = ctx.with_timeout(Duration::from_millis(ms));
        }
        if let Some(bytes) = self.memlimit {
            ctx = ctx.with_memory_limit(bytes);
        }
        Some(ctx)
    }
}

/// Parse a byte count with an optional `k`/`m`/`g` suffix.
fn parse_bytes(arg: &str) -> Result<usize, Box<dyn std::error::Error>> {
    let lower = arg.to_ascii_lowercase();
    let (digits, mult) = match lower.strip_suffix(['k', 'm', 'g']) {
        Some(d) => match lower.as_bytes()[lower.len() - 1] {
            b'k' => (d, 1usize << 10),
            b'm' => (d, 1usize << 20),
            _ => (d, 1usize << 30),
        },
        None => (lower.as_str(), 1usize),
    };
    let n: usize = digits.trim().parse()?;
    n.checked_mul(mult)
        .ok_or_else(|| "byte count overflows".into())
}

fn main() -> io::Result<()> {
    let catalog = paper::catalog();
    let mut shell = Shell {
        stratum: Stratum::new(catalog.clone()),
        catalog,
        timing: false,
        timeout_ms: None,
        memlimit: None,
        faults: Faults::Off,
    };
    let stdin = io::stdin();
    let mut out = io::stdout();

    writeln!(out, "tqo temporal shell — EMPLOYEE and PROJECT are loaded.")?;
    writeln!(
        out,
        "try: VALIDTIME SELECT EmpName FROM EMPLOYEE COALESCE ORDER BY EmpName"
    )?;
    write!(out, "tqo> ")?;
    out.flush()?;

    for line in stdin.lock().lines() {
        let line = line?;
        let input = line.trim();
        if input.is_empty() {
            write!(out, "tqo> ")?;
            out.flush()?;
            continue;
        }
        if input == "\\quit" || input == "\\q" {
            break;
        }
        let result = dispatch(input, &mut shell);
        match result {
            Ok(text) => writeln!(out, "{text}")?,
            Err(e) => writeln!(out, "error: {e}")?,
        }
        write!(out, "tqo> ")?;
        out.flush()?;
    }
    writeln!(out)?;
    Ok(())
}

fn dispatch(input: &str, shell: &mut Shell) -> Result<String, Box<dyn std::error::Error>> {
    let catalog = &shell.catalog;
    if input == "\\tables" {
        let mut text = String::new();
        for name in catalog.names() {
            let table = catalog.get(&name)?;
            let p = table.props();
            let s = table.stats();
            text.push_str(&format!(
                "{name}: {} rows ({} distinct) [{}] dup_free={} snapshot_dup_free={} \
                 coalesced={} overlap_degree={}\n",
                table.len(),
                s.distinct_rows,
                p.schema,
                p.dup_free,
                p.snapshot_dup_free,
                p.coalesced,
                s.max_class_overlap,
            ));
        }
        return Ok(text);
    }
    if input == "\\timing" {
        shell.timing = !shell.timing;
        return Ok(format!(
            "per-operator timing {}",
            if shell.timing { "on" } else { "off" }
        ));
    }
    if let Some(arg) = input.strip_prefix("\\timeout") {
        let arg = arg.trim();
        shell.timeout_ms = match arg {
            "" | "off" | "0" => None,
            ms => Some(ms.parse()?),
        };
        return Ok(match shell.timeout_ms {
            Some(ms) => format!(
                "queries now fail with a typed error after {ms} ms \
                 (checked at every governance checkpoint)"
            ),
            None => "per-query deadline off".into(),
        });
    }
    if let Some(arg) = input.strip_prefix("\\memlimit") {
        let arg = arg.trim();
        shell.memlimit = match arg {
            "" | "off" | "0" => None,
            bytes => Some(parse_bytes(bytes)?),
        };
        return Ok(match shell.memlimit {
            Some(bytes) => format!(
                "queries are now budgeted to {bytes} accounted byte(s); \
                 exceeding it is a typed error, not an abort"
            ),
            None => "per-query memory budget off".into(),
        });
    }
    if let Some(arg) = input.strip_prefix("\\faults") {
        shell.faults = match arg.trim() {
            "" | "off" => Faults::Off,
            "down" => Faults::Down,
            seed => Faults::Seeded(seed.parse()?),
        };
        shell.rebuild();
        return Ok(match shell.faults {
            Faults::Off => "stratum↔DBMS link healthy — fault injection off".into(),
            Faults::Seeded(seed) => format!(
                "injecting deterministic link faults (seed {seed}): transient errors \
                 and truncated payloads, absorbed by bounded retry"
            ),
            Faults::Down => "DBMS declared down — every fragment degrades to local \
                             execution (recorded in dbms_fallbacks)"
                .into(),
        });
    }
    if let Some(sql) = input.strip_prefix("\\explain ") {
        return Ok(tqo_sql::explain(sql, catalog)?);
    }
    if let Some(sql) = input.strip_prefix("\\costs ") {
        // Compile, layer, optimize, then render the chosen plan with the
        // statistics-driven estimates: per node, the execution site, the
        // estimated output rows, and the estimated cost contribution.
        let plan = tqo_sql::compile(sql, catalog)?;
        let layered = make_layered(&plan)?;
        // The stratum's own optimizer's model, fitted to the batch engine
        // the stratum executes with.
        let model = tqo_core::cost::CostModel::default();
        let optimized = tqo_core::optimizer::optimize(
            &layered,
            &RuleSet::standard(),
            &tqo_core::optimizer::OptimizerConfig {
                cost_model: model.clone(),
                ..Default::default()
            },
        )?;
        let rendered = tqo_core::plan::display::explain_with_cost(&optimized.best, &model)?;
        return Ok(format!(
            "{rendered}total estimated cost: {:.0}\n",
            optimized.cost.0
        ));
    }
    if let Some(sql) = input.strip_prefix("\\analyze ") {
        let ctx = shell.query_context();
        let (result, _metrics, report) = {
            let _guard = ctx.as_ref().map(context::install);
            shell.stratum.run_sql_analyzed(sql)?
        };
        return Ok(format!("{report}({} rows)", result.len()));
    }
    if let Some(rest) = input.strip_prefix("\\profile ") {
        // `\profile <sql> [file]`: a trailing bare word with no spaces and
        // a `.json` suffix names the output file; everything else is SQL.
        let (sql, path) = match rest.rsplit_once(' ') {
            Some((sql, last)) if last.ends_with(".json") => (sql.trim(), last),
            _ => (rest.trim(), "trace.json"),
        };
        let collector = tqo_core::trace::Collector::new();
        let result_len = {
            let _guard = tqo_core::trace::install(&collector);
            let (result, _, _) = shell.stratum.run_sql_optimized(sql)?;
            result.len()
        };
        let profile = collector.finish();
        let events = profile.events.len();
        let dropped = profile.dropped;
        std::fs::write(path, profile.to_chrome_json())?;
        let mut text = format!(
            "{result_len} rows; {events} trace event(s) written to {path} \
             (chrome://tracing or ui.perfetto.dev)"
        );
        if dropped > 0 {
            text.push_str(&format!(
                "\n({dropped} event(s) dropped by the ring buffer)"
            ));
        }
        return Ok(text);
    }
    if input == "\\counters" {
        let mut text = String::new();
        for c in tqo_core::trace::counters::all() {
            text.push_str(&format!("{:<28} {:>12}  {}\n", c.name(), c.get(), c.help()));
        }
        return Ok(text);
    }
    if let Some(sql) = input.strip_prefix("\\fragments ") {
        let plan = tqo_sql::compile(sql, catalog)?;
        let layered = make_layered(&plan)?;
        let mut text = String::new();
        for f in fragments(&layered)? {
            text.push_str(&format!(
                "at {:?}:\n  {}\n",
                f.transfer_path,
                f.sql.as_deref().unwrap_or("<stratum-only fragment>")
            ));
        }
        return Ok(text);
    }
    if let Some(sql) = input.strip_prefix("\\plans ") {
        let plan = tqo_sql::compile(sql, catalog)?;
        let layered = make_layered(&plan)?;
        let e = enumerate(
            &layered,
            &RuleSet::standard(),
            EnumerationConfig { max_plans: 20_000 },
        )?;
        return Ok(format!(
            "{} equivalent plans ({} rule applications{})",
            e.plans.len(),
            e.applications,
            if e.truncated { ", truncated" } else { "" }
        ));
    }

    // Plain SQL: compile → layer → optimize → run, governed by the
    // `\timeout`/`\memlimit` context when one is configured.
    let ctx = shell.query_context();
    let (result, metrics, _) = {
        let _guard = ctx.as_ref().map(context::install);
        shell.stratum.run_sql_optimized(input)?
    };
    let mut text = format!(
        "{result}({} rows; {} fragments, {} rows / {} bytes transferred; dbms {:?}, stratum {:?})",
        result.len(),
        metrics.fragments,
        metrics.transferred_rows,
        metrics.transfer_bytes,
        metrics.dbms_time,
        metrics.stratum_time
    );
    if shell.timing && !metrics.operators.is_empty() {
        let report = tqo_exec::ExecMetrics {
            operators: metrics.operators.clone(),
        }
        .report();
        text.push_str("\nstratum operators:\n");
        text.push_str(&report);
    }
    Ok(text)
}
