//! The metric list a run prints: every metric by name with its unit, and
//! the one-line JSON result the driver of `BENCHMARK.json` reads.

use crate::args::Args;
use crate::json::Json;

/// End-to-end metrics, as `BENCHMARK.json` lists them. `failed_share` is
/// carried by the result line's `failed` / `attempted` instead: a gated
/// metric may never be 0, and that one is 0 whenever the program is right.
/// `latency_p90_us` is measured and printed but not gated: on a two-core
/// shared host it did not repeat within any bound the contract allows.
pub const END_TO_END: [&str; 5] = [
    "throughput_qps",
    "latency_p50_us",
    "cpu_us_per_request",
    "setup_s",
    "peak_rss_mb",
];

/// Per-layer metrics, as `BENCHMARK.json` lists them: the ones that exist
/// on all four workloads and on a one-core host. The traced run prints
/// more (per-engine ratios, read/write medians) in its detail file.
pub const PER_LAYER: [&str; 41] = [
    "sql.tokenize_us",
    "sql.parse_us",
    "sql.bind_us",
    "optimizer.optimize_us",
    "optimizer.plans_explored",
    "optimizer.plan_gain",
    "planner.lower_us",
    "stage.cut_us",
    "stage.stages_per_query",
    "sched.run_us",
    "sched.overhead_us",
    "exec.batch_us",
    "exec.batch_cold_us",
    "exec.row_us",
    "exec.parallel_us",
    "exec.operator_share",
    "exec.rows_in",
    "exec.rows_out",
    "storage.env_snapshot_us",
    "storage.stats_us",
    "storage.insert_us",
    "storage.delete_us",
    "protocol.encode_request_us",
    "protocol.decode_request_us",
    "protocol.encode_response_us",
    "protocol.decode_response_us",
    "protocol.response_bytes",
    "serve.ping_rtt_us",
    "serve.server_side_us",
    "stratum.run_sql_us",
    "stratum.run_sql_optimized_us",
    "stratum.bytes_transferred",
    "attribution.attributed_share",
    "attribution.unattributed_us",
    "client.latency_p50_us",
    "client.latency_p90_us",
    "client.latency_max_us",
    "client.window_spread",
    "client.stall_windows",
    "client.verify_share",
    "trace.overhead_pct",
];

/// What a detail file says about where its numbers come from: commit,
/// seed, scales and table sizes, and the host's cores and scheduler
/// workers.
pub fn provenance(
    args: &Args,
    nproc: usize,
    scheduler_workers: usize,
    table_rows: &[(String, usize)],
) -> Json {
    let w = args.workload;
    Json::obj([
        ("workload", Json::str(w.name)),
        ("why", Json::str(w.why)),
        ("commit", Json::str(&args.commit)),
        ("seed", Json::Int(args.seed as i64)),
        ("quick", Json::Bool(args.quick)),
        ("seconds", Json::Num(args.seconds)),
        ("nproc", Json::Int(nproc as i64)),
        ("scheduler_workers", Json::Int(scheduler_workers as i64)),
        (
            "scales",
            Json::obj(w.tables.iter().map(|(suffix, scale)| {
                (
                    format!("EMPLOYEE{suffix}/PROJECT{suffix}"),
                    Json::Int(*scale as i64),
                )
            })),
        ),
        (
            "tables",
            Json::obj(
                table_rows
                    .iter()
                    .map(|(name, rows)| (name.clone(), Json::Int(*rows as i64))),
            ),
        ),
    ])
}

/// One named number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, `layer.metric` for per-layer ones.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// An ordered list of metrics.
#[derive(Debug, Default)]
pub struct Report {
    /// In the order pushed.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Append a metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Append a metric when it was measured.
    pub fn push_opt(&mut self, name: impl Into<String>, value: Option<f64>, unit: &'static str) {
        if let Some(v) = value {
            self.push(name, v, unit);
        }
    }

    /// Look a metric up.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Print every metric as `name value unit`, one per line.
    pub fn print(&self, workload: &str) {
        for m in &self.metrics {
            println!("{workload:<15} {:<34} {:>16.4} {}", m.name, m.value, m.unit);
        }
    }

    /// All metrics as a JSON object `{name: {value, unit}}`.
    pub fn to_json(&self) -> Json {
        Json::obj(
            self.metrics
                .iter()
                .map(|m| (m.name.clone(), metric_json(m))),
        )
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and the
    /// `wanted` metrics. Errors name the metrics that were not measured.
    pub fn result_line(
        &self,
        wanted: &[&str],
        correct: bool,
        attempted: u64,
        failed: u64,
    ) -> Result<String, String> {
        let mut metrics = Vec::new();
        let mut missing = Vec::new();
        for name in wanted {
            match self.metrics.iter().find(|m| m.name == *name) {
                Some(m) if m.value.is_finite() => metrics.push((name.to_string(), metric_json(m))),
                _ => missing.push(*name),
            }
        }
        if !missing.is_empty() {
            return Err(format!("metrics not measured: {}", missing.join(", ")));
        }
        Ok(Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Int(attempted as i64)),
            ("failed", Json::Int(failed as i64)),
            ("metrics", Json::Obj(metrics)),
        ])
        .render())
    }
}

fn metric_json(m: &Metric) -> Json {
    Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The contract file at the repo root, one level above this package.
    const CONTRACT: &str = include_str!("../../BENCHMARK.json");

    #[test]
    fn result_line_has_exactly_the_wanted_metrics() {
        let mut r = Report::default();
        r.push("latency_ms", 1.2034, "ms");
        r.push("extra", 9.0, "count");
        r.push_opt("absent", None, "us");
        let line = r.result_line(&["latency_ms"], true, 1000, 0).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \
             \"metrics\": {\"latency_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}}}"
        );
        let err = r
            .result_line(&["latency_ms", "absent"], true, 1, 0)
            .unwrap_err();
        assert!(err.contains("absent"), "{err}");
        r.push("nan", f64::NAN, "us");
        assert!(r.result_line(&["nan"], true, 1, 0).is_err());
        assert_eq!(r.get("extra"), Some(9.0));
    }

    #[test]
    fn metric_lists_match_the_contract_file() {
        let section = |key: &str| {
            let start = CONTRACT.find(&format!("\"{key}\"")).expect(key);
            let rest = &CONTRACT[start..];
            &rest[..rest.find(']').expect("section end")]
        };
        for (key, names) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let text = section(key);
            assert_eq!(text.matches("\"name\"").count(), names.len(), "{key}");
            for name in names {
                assert!(
                    text.contains(&format!("\"name\": \"{name}\"")),
                    "{key}: {name}"
                );
            }
        }
        for w in crate::workloads::ALL {
            assert!(section("workloads").contains(&format!("\"name\": \"{}\"", w.name)));
            assert!(section("workloads").contains(&format!("\"why\": \"{}\"", w.why)));
        }
    }
}
