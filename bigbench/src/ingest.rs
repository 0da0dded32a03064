//! `ingest`: one embedded writer grows an indexed table.
//!
//! Each repetition builds a fresh `Db` with a small preload (the set-up),
//! then adds a fixed number of rows: batches of [`BATCH`] rows in one
//! transaction (`insert_in` … `commit`), with one autocommit `Db::insert`
//! between batches. The heap's first-fit placement makes a row's cost grow
//! with the table, so a repetition is sized by row count over a fixed
//! range, never by time; the run repeats it until its time is up. Every
//! repetition inserts the same seeded rows, so per-row storage counts are
//! exact and independent of how many repetitions fit.

use crate::report::RunResult;
use crate::stats::{ms_since, peak_rss_mb, ratio, CounterDelta, Counters, Tallies};
use crate::trace::Tracer;
use crate::{Args, Scale};
use bq_core::Db;
use bq_relational::{Type, Value};
use bq_util::{Rng, SplitMix64};
use std::time::Instant;

const TABLE: &str = "ledger";
/// Rows per multi-row transaction.
pub const BATCH: usize = 64;
/// Distinct `acct` values: the second index has buckets of duplicates.
const ACCOUNTS: u64 = 500;
/// Keys looked up after each repetition to check the table.
const SAMPLED_LOOKUPS: usize = 64;
/// The statement types the latency means summarise: an autocommit insert
/// and a row inserted inside a batch. Commits are tallied too, but their
/// ~10 µs latency is too close to timer noise to summarise.
pub const TYPES: [&str; 2] = ["insert", "insert_in"];

/// The seeded rows: `(id, acct, amt)` with ids `0..n` in order.
pub fn generate(seed: u64, n: usize) -> Vec<Vec<Value>> {
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0x001a_6e57);
    (0..n)
        .map(|id| {
            vec![
                Value::Int(id as i64),
                Value::Str(format!("a{:03}", rng.gen_range(ACCOUNTS))),
                Value::Int(rng.gen_range(1_000_000) as i64),
            ]
        })
        .collect()
}

/// One repetition's measurements.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Building the preload and both indexes, s.
    pub setup_s: f64,
    /// Growing the table, s.
    pub grow_s: f64,
    /// Rows added by the growth.
    pub rows: usize,
    /// Registry deltas over the growth.
    pub counters: CounterDelta,
    /// Heap pages × 4096 over rows, at the end.
    pub heap_bytes_per_row: f64,
    /// Post-growth checks that failed.
    pub check_failures: Vec<String>,
}

fn setup(preload: &[Vec<Value>]) -> Result<Db, String> {
    let mut db = Db::new();
    let err = |e: bq_core::CoreError| e.to_string();
    db.create_table(
        TABLE,
        &[("id", Type::Int), ("acct", Type::Str), ("amt", Type::Int)],
    )
    .map_err(err)?;
    let h = db.begin().map_err(err)?;
    for row in preload {
        db.insert_in(h, TABLE, row.clone()).map_err(err)?;
    }
    db.commit(h).map_err(err)?;
    db.create_index(TABLE, "id").map_err(err)?;
    db.create_index(TABLE, "acct").map_err(err)?;
    Ok(db)
}

/// Build the preload (`data[..preload]`), grow by the rest, and check
/// the table. Statement outcomes go to `tallies`; spans to `tr` when
/// traced.
pub fn rep(
    data: &[Vec<Value>],
    preload: usize,
    tallies: &mut Tallies,
    mut tr: Option<&mut Tracer>,
) -> Result<Rep, String> {
    let t0 = Instant::now();
    let mut db = setup(&data[..preload])?;
    let setup_s = t0.elapsed().as_secs_f64();

    let counters = Counters::start();
    let t1 = Instant::now();
    let mut next = preload;
    let mut stmt = 0u64;
    let mut timed = |tr: &mut Option<&mut Tracer>,
                     span: &'static str,
                     kind: &'static str,
                     stmt: u64,
                     f: &mut dyn FnMut() -> Result<(), bq_core::CoreError>| {
        let s = tr.as_deref_mut().map(|t| t.begin(span, stmt));
        let start = Instant::now();
        let out = f();
        let ms = ms_since(start);
        if let (Some(t), Some(s)) = (tr.as_deref_mut(), s) {
            t.end(s);
        }
        tallies
            .entry(kind)
            .or_default()
            .outcome(ms, out.map(|()| true).map_err(|e| e.to_string()));
    };
    while next < data.len() {
        let h = db.begin().map_err(|e| e.to_string())?;
        let end = (next + BATCH).min(data.len());
        for row in &data[next..end] {
            stmt += 1;
            let row = row.clone();
            timed(&mut tr, "core.insert_in", "insert_in", stmt, &mut || {
                db.insert_in(h, TABLE, row.clone())
            });
        }
        next = end;
        timed(&mut tr, "core.commit", "commit", stmt, &mut || db.commit(h));
        if next < data.len() {
            stmt += 1;
            let row = data[next].clone();
            timed(&mut tr, "core.insert", "insert", stmt, &mut || {
                db.insert(TABLE, row.clone())
            });
            next += 1;
        }
    }
    let grow_s = t1.elapsed().as_secs_f64();
    let counters = counters.delta();

    let mut check_failures = Vec::new();
    match db.row_count(TABLE) {
        Ok(n) if n == data.len() => {}
        other => check_failures.push(format!(
            "ingest: row_count {other:?}, expected {}",
            data.len()
        )),
    }
    let mut rng = SplitMix64::seed_from_u64(data.len() as u64);
    for _ in 0..SAMPLED_LOOKUPS {
        let id = rng.gen_index(data.len());
        let got = db
            .lookup(TABLE, "id", &Value::Int(id as i64))
            .map(|ts| ts.iter().map(|t| t.values().to_vec()).collect::<Vec<_>>())
            .map_err(|e| e.to_string());
        if got.as_deref() != Ok(std::slice::from_ref(&data[id])) {
            check_failures.push(format!("ingest: lookup id={id} returned {got:?}"));
        }
    }
    Ok(Rep {
        setup_s,
        grow_s,
        rows: data.len() - preload,
        counters,
        heap_bytes_per_row: ratio(db.page_count() as f64 * 4096.0, data.len() as f64),
        check_failures,
    })
}

/// Repetitions until `seconds` have passed (and at least `min_reps`).
fn phase(
    data: &[Vec<Value>],
    preload: usize,
    seconds: f64,
    min_reps: usize,
    res: &mut RunResult,
    mut tr: Option<&mut Tracer>,
) -> Result<Vec<Rep>, String> {
    let start = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < min_reps || start.elapsed().as_secs_f64() < seconds {
        let rep = rep(data, preload, &mut res.tallies, tr.as_deref_mut())?;
        res.check_failures
            .extend(rep.check_failures.iter().cloned());
        reps.push(rep);
    }
    Ok(reps)
}

fn rows_per_s(reps: &[Rep]) -> f64 {
    ratio(
        reps.iter().map(|r| r.rows as f64).sum(),
        reps.iter().map(|r| r.grow_s).sum(),
    )
}

/// Run the workload.
pub fn run(args: &Args, scale: Scale) -> Result<RunResult, String> {
    let preload = scale.ingest_preload as usize;
    let data = generate(args.seed, preload + scale.ingest_rows as usize);
    let mut res = RunResult::default();
    res.line(format!(
        "workload ingest: 1 embedded writer, closed loop; table grows {preload} -> {} rows \
         per repetition, {BATCH}-row transactions with one autocommit insert between them",
        data.len()
    ));
    if !args.trace {
        let reps = phase(
            &data,
            preload,
            args.seconds,
            scale.setup_reps,
            &mut res,
            None,
        )?;
        res.line(format!("repetitions: {}", reps.len()));
        let setups: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
        res.pct_line("insert_p50_ms", &["insert"], 0.5);
        res.pct_line("insert_p90_ms", &["insert"], 0.9);
        res.end_to_end(&setups, rows_per_s(&reps), peak_rss_mb(), &TYPES);
        res.tally_lines();
        return Ok(res);
    }
    let half = args.seconds / 2.0;
    let untraced = phase(&data, preload, half, 1, &mut res, None)?;
    let mut tr = Tracer::new(Instant::now());
    let traced = phase(&data, preload, half, 1, &mut res, Some(&mut tr))?;
    let mut counters = CounterDelta::default();
    for r in &traced {
        counters.add(&r.counters);
    }
    let rows: usize = traced.iter().map(|r| r.rows).sum();
    res.storage_layers(&counters, rows as f64);
    res.counter_layers(&counters);
    let last = traced.last().map_or(0.0, |r| r.heap_bytes_per_row);
    res.set(&[
        ("storage.heap_bytes_per_row", last),
        ("core.insert_us", tr.mean_us("core.insert_in")),
        ("core.commit_us", tr.mean_us("core.commit")),
    ]);
    res.overhead(rows_per_s(&untraced), rows_per_s(&traced));
    res.layer_lines(tr);
    res.tally_lines();
    Ok(res)
}
