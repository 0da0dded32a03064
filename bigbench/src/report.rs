//! Metric names, units and the printed report.

use crate::decompose::{ExecTotals, OPERATORS};
use crate::stats::{geomean, median, percentile, ratio, CounterDelta, Tallies};
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics every workload reports from an untraced run.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("p50_gmean_ms", "ms"),
    ("p90_gmean_ms", "ms"),
];

/// Per-layer metrics every workload reports from a traced run; a layer a
/// workload does not exercise reads 0.
pub const LAYERS: [(&str, &str); 26] = [
    ("server.nonengine_us_per_select", "us"),
    ("server.bytes_out_per_stmt", "B"),
    ("core.sql_self_us", "us"),
    ("core.insert_us", "us"),
    ("core.commit_us", "us"),
    ("core.datalog_edb_copy_us", "us"),
    ("governor.admitted", "count"),
    ("governor.shed", "count"),
    ("txn.lock_waits", "count"),
    ("relational.parse_us", "us"),
    ("relational.optimize_us", "us"),
    ("exec.lower_us", "us"),
    ("exec.execute_us", "us"),
    ("exec.rows_per_result_row", "ratio"),
    ("exec.product_rows", "rows"),
    ("exec.distinct_rows_in", "rows"),
    ("storage.page_reads_per_row", "pages/row"),
    ("storage.page_writes_per_row", "pages/row"),
    ("storage.wal_bytes_per_row", "B/row"),
    ("storage.wal_fsyncs_per_commit", "ratio"),
    ("storage.btree_splits_per_row", "ratio"),
    ("storage.heap_bytes_per_row", "B/row"),
    ("datalog.eval_us", "us"),
    ("datalog.iterations", "count"),
    ("datalog.firings_per_fact", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Every metric name with its unit, for the end-to-end (`trace == false`)
/// or the per-layer set.
pub fn metric_names(trace: bool) -> Vec<(String, &'static str)> {
    if !trace {
        return END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect();
    }
    let mut out: Vec<(String, &'static str)> =
        LAYERS.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    out.extend(
        OPERATORS
            .iter()
            .map(|op| (format!("exec.self_us.{op}"), "us")),
    );
    out
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Human-readable report, printed before the result line.
    pub lines: Vec<String>,
    /// Outcomes by statement type, over every statement sent.
    pub tallies: Tallies,
    /// Post-run checks (row counts, sampled lookups, oracle samples) that
    /// failed, with a reason each.
    pub check_failures: Vec<String>,
    /// Metric values by name.
    pub values: BTreeMap<String, f64>,
    /// Traced run: the spans, for writing out.
    pub spans: Option<Tracer>,
}

impl RunResult {
    /// Statements sent.
    pub fn attempted(&self) -> u64 {
        self.tallies.values().map(|t| t.attempted).sum()
    }

    /// Statements that errored or returned a wrong result.
    pub fn failed(&self) -> u64 {
        self.tallies.values().map(|t| t.failed).sum()
    }

    /// No wrong result and every post-run check held.
    pub fn correct(&self) -> bool {
        self.tallies.values().all(|t| t.wrong == 0) && self.check_failures.is_empty()
    }

    /// The reported metrics, in declared order (0 where a layer did no
    /// work).
    pub fn metrics(&self, trace: bool) -> Vec<Metric> {
        metric_names(trace)
            .into_iter()
            .map(|(name, unit)| Metric {
                value: self.values.get(&name).copied().unwrap_or(0.0),
                name,
                unit,
            })
            .collect()
    }

    /// The final line: one JSON object with the run's verdict and metrics.
    pub fn json_line(&self, trace: bool) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted(),
            self.failed()
        );
        for (i, m) in self.metrics(trace).iter().enumerate() {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// Set metrics by name.
    pub fn set(&mut self, pairs: &[(&str, f64)]) {
        for &(name, value) in pairs {
            self.values.insert(name.to_string(), value);
        }
    }

    /// Add a printed line.
    pub fn line(&mut self, s: impl Into<String>) {
        self.lines.push(s.into());
    }

    /// Print a named latency percentile of the statement types in
    /// `types`, pooled, with its sample count and tail size.
    pub fn pct_line(&mut self, name: &str, types: &[&str], q: f64) {
        let pooled: Vec<f64> = types
            .iter()
            .filter_map(|t| self.tallies.get(t))
            .flat_map(|t| t.lat_ms.iter().copied())
            .collect();
        let line = match percentile(&pooled, q) {
            Some(p) => format!(
                "metric {name} = {:.4} ms  (n={}, beyond={}{})",
                p.value,
                p.n,
                p.beyond,
                if p.beyond < 10 { ", TAIL TOO THIN" } else { "" }
            ),
            None => format!("metric {name} = n/a  (no samples)"),
        };
        self.line(line);
    }

    /// Fill the five end-to-end metrics and print them with `fail_ratio`.
    /// `types` are the workload's statement types, whose per-type p50 and
    /// p90 the geometric means summarise.
    /// `peak_rss_mb` is read by the caller at the end of the measured
    /// window, before post-run checks allocate.
    pub fn end_to_end(
        &mut self,
        setup_s: &[f64],
        ops_per_s: f64,
        peak_rss_mb: f64,
        types: &[&str],
    ) {
        let per_type = |q: f64| -> Vec<f64> {
            types
                .iter()
                .map(|t| {
                    self.tallies
                        .get(t)
                        .and_then(|t| percentile(&t.lat_ms, q))
                        .map_or(0.0, |p| p.value)
                })
                .collect()
        };
        let values = [
            median(setup_s),
            ops_per_s,
            peak_rss_mb,
            geomean(&per_type(0.5)),
            geomean(&per_type(0.9)),
        ];
        for ((name, unit), v) in END_TO_END.iter().zip(values) {
            self.set(&[(name, v)]);
            self.line(format!("metric {name} = {v:.4} {unit}"));
        }
        self.line(format!(
            "  setup_s is the median of {} builds: {:?}",
            setup_s.len(),
            setup_s
                .iter()
                .map(|s| format!("{s:.3}"))
                .collect::<Vec<_>>()
        ));
        let fail = ratio(self.failed() as f64, self.attempted() as f64);
        self.line(format!(
            "metric fail_ratio = {fail} ({} of {} statements)",
            self.failed(),
            self.attempted()
        ));
    }

    /// Per statement type: attempted, failed, wrong, p50.
    pub fn tally_lines(&mut self) {
        let rows: Vec<String> = self
            .tallies
            .iter()
            .map(|(name, t)| {
                format!(
                    "  stmt {name:<12} attempted={:<7} failed={:<4} wrong={:<4} p50_ms={:.4}",
                    t.attempted,
                    t.failed,
                    t.wrong,
                    median(&t.lat_ms)
                )
            })
            .collect();
        self.lines.extend(rows);
    }

    /// Per-layer metrics from the spans and exec totals of decomposed
    /// selects.
    pub fn exec_layers(&mut self, tr: &Tracer, ex: &ExecTotals) {
        let phases = [
            ("relational.parse_us", "relational.parse"),
            ("relational.optimize_us", "relational.optimize"),
            ("exec.lower_us", "exec.lower"),
            ("exec.execute_us", "exec.execute"),
        ];
        let mut phase_sum = 0.0;
        for (metric, span) in phases {
            let us = tr.mean_us(span);
            phase_sum += us;
            self.set(&[(metric, us)]);
        }
        if ex.selects > 0 {
            self.set(&[("core.sql_self_us", tr.mean_us("core.sql") - phase_sum)]);
        }
        let per_select = |v: f64| ratio(v, ex.selects as f64);
        self.set(&[
            (
                "exec.rows_per_result_row",
                ratio(ex.total_rows as f64, ex.result_rows as f64),
            ),
            ("exec.product_rows", per_select(ex.product_rows as f64)),
            (
                "exec.distinct_rows_in",
                per_select(ex.distinct_rows_in as f64),
            ),
        ]);
        for (op, us) in &ex.op_self_us {
            self.values
                .insert(format!("exec.self_us.{op}"), per_select(*us));
        }
    }

    /// Storage work per inserted row, from registry deltas.
    pub fn storage_layers(&mut self, d: &CounterDelta, rows: f64) {
        let per_row = |name: &str| ratio(d.get(name) as f64, rows);
        self.set(&[
            (
                "storage.page_reads_per_row",
                per_row("bq_storage_page_reads_total"),
            ),
            (
                "storage.page_writes_per_row",
                per_row("bq_storage_page_writes_total"),
            ),
            (
                "storage.wal_bytes_per_row",
                per_row("bq_storage_wal_bytes_total"),
            ),
            (
                "storage.wal_fsyncs_per_commit",
                ratio(
                    d.get("bq_storage_wal_fsyncs_total") as f64,
                    d.get("bq_core_txn_commits_total") as f64,
                ),
            ),
            (
                "storage.btree_splits_per_row",
                per_row("bq_storage_btree_splits_total"),
            ),
        ]);
    }

    /// Admission and lock-table counts, from registry deltas.
    pub fn counter_layers(&mut self, d: &CounterDelta) {
        let count = |name: &str| d.get(name) as f64;
        self.set(&[
            ("governor.admitted", count("bq_governor_admitted_total")),
            ("governor.shed", count("bq_governor_shed_total")),
            ("txn.lock_waits", count("bq_txn_lock_waits_total")),
        ]);
    }

    /// Print the tracing overhead with both of its bases.
    pub fn overhead(&mut self, untraced_ops: f64, traced_ops: f64) {
        let r = ratio(untraced_ops, traced_ops);
        self.set(&[("trace.overhead_ratio", r)]);
        self.line(format!(
            "trace overhead: untraced {untraced_ops:.2} stmt/s, traced {traced_ops:.2} stmt/s; \
             untraced/traced = {r:.4} (traced is {:.2}% slower than untraced)",
            100.0 * (1.0 - ratio(traced_ops, untraced_ops))
        ));
    }

    /// Keep the traced run's spans and print every per-layer metric and
    /// the per-span self-time table.
    pub fn layer_lines(&mut self, tr: Tracer) {
        let metrics = self.metrics(true);
        for m in metrics {
            self.line(format!("layer {} = {:.4} {}", m.name, m.value, m.unit));
        }
        self.line("self time by span (calls, total_us, self_us, mean_self_us):");
        let rows: Vec<String> = tr
            .self_times()
            .into_iter()
            .map(|(name, st)| {
                format!(
                    "  span {name:<22} calls={:<7} total_us={:<12.1} self_us={:<12.1} mean_self_us={:.2}",
                    st.calls,
                    st.total_us,
                    st.self_us,
                    ratio(st.self_us, st.calls as f64)
                )
            })
            .collect();
        self.lines.extend(rows);
        self.spans = Some(tr);
    }
}
