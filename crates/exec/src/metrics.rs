//! Execution metrics: per-operator row counts, batch counts, timings, and
//! estimated-vs-actual cardinality feedback (q-error).

use std::time::Duration;

/// The workspace-wide median helper (upper median on even lengths),
/// re-exported from [`tqo_core::stats`] so existing
/// `tqo_exec::metrics::median` callers keep one shared definition.
pub use tqo_core::stats::median;

/// Metrics for one executed operator instance.
#[derive(Debug, Clone)]
pub struct OperatorMetrics {
    /// Operator label (including the chosen algorithm).
    pub label: String,
    /// Input cardinality (sum over the operator's inputs).
    pub rows_in: usize,
    /// Output cardinality.
    pub rows_out: usize,
    /// The planner's estimated output cardinality, when the plan carried
    /// one — the basis of the q-error feedback loop.
    pub est_rows: Option<u64>,
    /// Batches produced.
    pub batches: usize,
    /// **Exclusive wall-clock** time spent in this operator (children
    /// excluded), so time is never double-counted into the parent.
    pub elapsed: Duration,
}

impl OperatorMetrics {
    /// Output throughput in rows per second (0 when the timer saw nothing,
    /// which happens for sub-resolution operators on empty inputs).
    pub fn rows_per_sec(&self) -> f64 {
        self.throughput().unwrap_or(0.0)
    }

    /// Output throughput, or `None` when the operator finished below the
    /// timer's resolution (`elapsed` is zero) and no meaningful rate
    /// exists. Reports render `None` as `—` rather than a misleading
    /// `0 rows/s`.
    pub fn throughput(&self) -> Option<f64> {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            return None;
        }
        Some(self.rows_out as f64 / secs)
    }

    /// The q-error of the cardinality estimate:
    /// `max(est/actual, actual/est)`, both sides floored at one row so an
    /// empty-result estimate scores finitely. 1.0 = perfect; `None` when
    /// the plan carried no estimate for this operator.
    pub fn q_error(&self) -> Option<f64> {
        let est = self.est_rows? as f64;
        let act = self.rows_out as f64;
        let (est, act) = (est.max(1.0), act.max(1.0));
        Some((est / act).max(act / est))
    }
}

/// Metrics for a whole plan execution.
#[derive(Debug, Clone, Default)]
pub struct ExecMetrics {
    /// Post-order per-operator metrics. A staged run (the scheduler)
    /// concatenates its stages in execution order.
    pub operators: Vec<OperatorMetrics>,
}

impl ExecMetrics {
    /// Total operator time (sum of exclusive wall-clock times).
    pub fn total_time(&self) -> Duration {
        self.operators.iter().map(|o| o.elapsed).sum()
    }

    /// Total rows produced across all operators (a rough work measure).
    pub fn total_rows(&self) -> usize {
        self.operators.iter().map(|o| o.rows_out).sum()
    }

    /// Rows moved through transfer operators — the stratum architecture's
    /// communication volume.
    pub fn transferred_rows(&self) -> usize {
        self.operators
            .iter()
            .filter(|o| o.label.starts_with("transfer"))
            .map(|o| o.rows_out)
            .sum()
    }

    /// All per-operator q-errors (operators with estimates only).
    pub fn q_errors(&self) -> Vec<f64> {
        self.operators.iter().filter_map(|o| o.q_error()).collect()
    }

    /// Median q-error across the operators that carried estimates —
    /// the execution's one-number estimation-quality verdict.
    pub fn median_q_error(&self) -> Option<f64> {
        median(&mut self.q_errors())
    }

    /// A compact per-operator report with throughput and estimation
    /// feedback, so benches and the stratum engine can see where time —
    /// and estimation error — actually goes.
    pub fn report(&self) -> String {
        let mut out = String::new();
        for op in &self.operators {
            let est = match op.est_rows {
                Some(e) => format!("{e}"),
                None => "-".into(),
            };
            let q = match op.q_error() {
                Some(q) => format!("{q:.2}"),
                None => "-".into(),
            };
            // Sub-resolution operators have no meaningful rate: render a
            // dash, not `0 rows/s`.
            let rate = match op.throughput() {
                Some(r) => format!("{r:>12.0} rows/s"),
                None => format!("{:>12} rows/s", "—"),
            };
            out.push_str(&format!(
                "{:<30} rows_in={:<8} rows_out={:<8} est={:<8} q={:<6} batches={:<5} time={:<12?} {rate}\n",
                op.label, op.rows_in, op.rows_out, est, q, op.batches, op.elapsed,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(label: &str, rows_out: usize, elapsed: Duration) -> OperatorMetrics {
        OperatorMetrics {
            label: label.into(),
            rows_in: 0,
            rows_out,
            est_rows: None,
            batches: 1,
            elapsed,
        }
    }

    #[test]
    fn aggregates() {
        let m = ExecMetrics {
            operators: vec![
                OperatorMetrics {
                    rows_out: 100,
                    ..op("scan(R)", 100, Duration::from_micros(5))
                },
                OperatorMetrics {
                    rows_in: 100,
                    ..op("transfer-s", 100, Duration::from_micros(2))
                },
                OperatorMetrics {
                    rows_in: 100,
                    ..op("sort[stable]", 100, Duration::from_micros(9))
                },
            ],
        };
        assert_eq!(m.total_rows(), 300);
        assert_eq!(m.transferred_rows(), 100);
        assert_eq!(m.total_time(), Duration::from_micros(16));
        assert!(m.report().contains("transfer-s"));
        assert!(m.report().contains("rows/s"));
    }

    #[test]
    fn throughput_is_rows_over_time() {
        let o = OperatorMetrics {
            rows_in: 2000,
            batches: 2,
            ..op("rdup[hash]", 1000, Duration::from_millis(100))
        };
        assert!((o.rows_per_sec() - 10_000.0).abs() < 1e-6);
        assert!(o.throughput().is_some());
        // Sub-resolution timer: rows_per_sec keeps its 0.0 contract but
        // throughput() reports "no rate" and the report renders a dash.
        let idle = op("noop", 0, Duration::ZERO);
        assert_eq!(idle.rows_per_sec(), 0.0);
        assert_eq!(idle.throughput(), None);
        let m = ExecMetrics {
            operators: vec![idle],
        };
        assert!(m.report().contains("— rows/s"));
        assert!(!m.report().contains("0 rows/s"));
    }

    #[test]
    fn q_error_is_symmetric_and_floored() {
        let mut o = op("select", 100, Duration::ZERO);
        assert_eq!(o.q_error(), None);
        o.est_rows = Some(400);
        assert_eq!(o.q_error(), Some(4.0));
        o.est_rows = Some(25);
        assert_eq!(o.q_error(), Some(4.0));
        // Empty actual with a 1-row estimate: perfect under the floor.
        let mut empty = op("select", 0, Duration::ZERO);
        empty.est_rows = Some(1);
        assert_eq!(empty.q_error(), Some(1.0));
    }

    #[test]
    fn estimates_summarize() {
        let mut m = ExecMetrics {
            operators: vec![
                op("scan(R)", 100, Duration::ZERO),
                op("select", 10, Duration::ZERO),
                op("rdup[hash]", 10, Duration::ZERO),
            ],
        };
        assert!(m.q_errors().is_empty());
        m.operators[0].est_rows = Some(100);
        m.operators[1].est_rows = Some(20);
        assert_eq!(m.q_errors(), vec![1.0, 2.0]);
        assert_eq!(m.median_q_error(), Some(2.0));
        assert!(m.report().contains("q=2.00"));
    }
}
