//! Traced selects: `Db::sql` once as a whole, then once more split into
//! the public calls it makes — `sqlish::parse` → `optimize` →
//! `bq_exec::lower` → `Executor::execute_plan_with_stats_ctx` — each under
//! its own span. The two results must agree.

use crate::trace::Tracer;
use bq_core::Db;
use bq_exec::{ExecStats, Executor};
use bq_relational::algebra::optimize;
use bq_relational::sqlish;
use bq_relational::Relation;
use std::collections::BTreeMap;

/// Leading word of every physical operator label
/// (`bq_exec::PhysPlan::label`); one `exec.self_us.<op>` metric each.
pub const OPERATORS: [&str; 10] = [
    "SeqScan",
    "Filter",
    "Project",
    "Reschema",
    "HashDistinct",
    "PartitionedHashJoin",
    "Product",
    "UnionAll",
    "HashDifference",
    "HashIntersect",
];

/// Work counts gathered from the `ExecStats` of decomposed selects.
#[derive(Debug, Default, Clone)]
pub struct ExecTotals {
    /// Selects decomposed.
    pub selects: u64,
    /// Σ `ExecStats::total_rows`.
    pub total_rows: u64,
    /// Σ `ExecStats::rows_out_root`.
    pub result_rows: u64,
    /// Σ rows out of `Product` operators.
    pub product_rows: u64,
    /// Σ rows into `HashDistinct` operators.
    pub distinct_rows_in: u64,
    /// Σ self time per operator, µs.
    pub op_self_us: BTreeMap<String, f64>,
}

impl ExecTotals {
    fn add(&mut self, stats: &ExecStats) {
        self.selects += 1;
        self.total_rows += stats.total_rows();
        self.result_rows += stats.rows_out_root();
        self.walk(stats);
    }

    fn walk(&mut self, node: &ExecStats) {
        let op = node.op.split(' ').next().unwrap_or_default();
        match op {
            "Product" => self.product_rows += node.rows_out,
            "HashDistinct" => self.distinct_rows_in += node.rows_in,
            _ => {}
        }
        *self.op_self_us.entry(op.to_string()).or_insert(0.0) += node.elapsed.as_secs_f64() * 1e6;
        for c in &node.children {
            self.walk(c);
        }
    }
}

/// Run `sql` whole and decomposed under statement id `stmt`; returns the
/// result when both paths agree.
pub fn select(
    db: &Db,
    sql: &str,
    stmt: u64,
    tr: &mut Tracer,
    totals: &mut ExecTotals,
) -> Result<Relation, String> {
    // Alternate which path runs first so neither always finds the other's
    // warm caches.
    let whole_first = stmt.is_multiple_of(2);
    let mut whole = None;
    if whole_first {
        whole = Some(whole_sql(db, sql, stmt, tr));
    }
    let parts = decomposed(db, sql, stmt, tr, totals);
    let whole = whole.unwrap_or_else(|| whole_sql(db, sql, stmt, tr))?;
    let parts = parts?;
    if parts != whole {
        return Err(format!(
            "decomposed result differs from Db::sql for `{sql}`"
        ));
    }
    Ok(parts)
}

fn whole_sql(db: &Db, sql: &str, stmt: u64, tr: &mut Tracer) -> Result<Relation, String> {
    let s = tr.begin("core.sql", stmt);
    let out = db.sql(sql).map_err(|e| e.to_string());
    tr.end(s);
    out
}

fn decomposed(
    db: &Db,
    sql: &str,
    stmt: u64,
    tr: &mut Tracer,
    totals: &mut ExecTotals,
) -> Result<Relation, String> {
    let root = tr.begin("bench.decomposed", stmt);
    let out = (|| {
        let s = tr.begin("relational.parse", stmt);
        let expr = sqlish::parse(sql).map_err(|e| e.to_string());
        tr.end(s);
        let s = tr.begin("relational.optimize", stmt);
        let optimized = optimize(&expr?, db.catalog()).map_err(|e| e.to_string());
        tr.end(s);
        let s = tr.begin("exec.lower", stmt);
        let plan = bq_exec::lower(&optimized?, db.catalog()).map_err(|e| e.to_string());
        tr.end(s);
        let s = tr.begin("exec.execute", stmt);
        let out = Executor::new(db.exec_mode())
            .execute_plan_with_stats_ctx(&plan?, db.catalog(), &db.govern())
            .map_err(|e| e.to_string());
        tr.end(s);
        out
    })();
    tr.end(root);
    let (rel, stats) = out?;
    totals.add(&stats);
    Ok(rel)
}

/// Rows of a relation as plain values, in the relation's (sorted) order.
pub fn rows(rel: &Relation) -> Vec<Vec<bq_relational::Value>> {
    rel.iter().map(|t| t.values().to_vec()).collect()
}
