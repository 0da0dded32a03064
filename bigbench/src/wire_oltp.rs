//! `wire_oltp`: two wire clients against an in-process `bq-server`.
//!
//! The server runs with its default `ServerConfig` on loopback over an
//! indexed `acct(id int, grp str, bal int)` table preloaded through
//! `Db::insert_in`. Each client is a closed loop on its own `Connection`:
//! 80% point selects on `id`, 10% 50-key range selects, 10% autocommit
//! inserts of fresh ids. Writers take the engine write lock, readers the
//! read lock, so a write-path change shows on the readers' tail too.

use crate::decompose::{self, ExecTotals};
use crate::report::RunResult;
use crate::stats::{merge_tallies, ms_since, peak_rss_mb, ratio, CounterDelta, Counters, Tallies};
use crate::trace::Tracer;
use crate::{build_repeatedly, Args, Scale};
use bq_core::{Db, SlowLog};
use bq_relational::{Type, Value};
use bq_server::{connect, serve, Driver, Outcome, ServerConfig};
use bq_util::{Rng, SplitMix64};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::{Arc, Barrier, RwLock};
use std::time::{Duration, Instant};

const TABLE: &str = "acct";
const GROUPS: u64 = 16;
const MAX_BAL: u64 = 1_000_000;
/// Keys covered by a range select.
const RANGE_KEYS: i64 = 50;
/// Closed-loop clients, one thread and one connection each.
pub const CLIENTS: usize = 2;
/// Unrecorded point selects per client before the measured window.
const WARMUP: usize = 50;
/// Rows per preload transaction.
const PRELOAD_TXN_ROWS: usize = 1_000;
/// Fresh-id stride between clients and phases, far above any preload.
const ID_STRIDE: i64 = 100_000_000;
/// A traced client matches its selects against the slow log every this
/// many selects; the log keeps 256 entries, so none is evicted first.
const SLOW_LOG_BATCH: usize = 32;
/// Selects and inserts re-run embedded and decomposed after the traced
/// window.
const PROBE_SELECTS: u64 = 200;
const PROBE_INSERTS: u64 = 50;
/// The workload's statement types.
pub const TYPES: [&str; 3] = ["point", "range", "insert"];

type Row = (i64, String, i64);

fn values(r: &Row) -> Vec<Value> {
    vec![Value::Int(r.0), Value::Str(r.1.clone()), Value::Int(r.2)]
}

fn fresh_row(rng: &mut SplitMix64, id: i64) -> Row {
    (
        id,
        format!("g{}", rng.gen_range(GROUPS)),
        rng.gen_range(MAX_BAL) as i64,
    )
}

fn generate(seed: u64, n: i64) -> Vec<Row> {
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0x000a_1c7e);
    (0..n).map(|id| fresh_row(&mut rng, id)).collect()
}

fn build(rows: &[Row]) -> Result<Db, String> {
    let err = |e: bq_core::CoreError| e.to_string();
    let mut db = Db::new();
    db.create_table(
        TABLE,
        &[("id", Type::Int), ("grp", Type::Str), ("bal", Type::Int)],
    )
    .map_err(err)?;
    for chunk in rows.chunks(PRELOAD_TXN_ROWS) {
        let h = db.begin().map_err(err)?;
        for r in chunk {
            db.insert_in(h, TABLE, values(r)).map_err(err)?;
        }
        db.commit(h).map_err(err)?;
    }
    db.create_index(TABLE, "id").map_err(err)?;
    Ok(db)
}

/// One statement of the mix and the rows it must return (`None` for an
/// insert, which must only succeed).
fn next_stmt(
    rng: &mut SplitMix64,
    model: &[Row],
    next_id: &mut i64,
) -> (&'static str, String, Option<Vec<Vec<Value>>>, Option<Row>) {
    let n = model.len() as i64;
    match rng.gen_range(10) {
        0..=7 => {
            let k = rng.gen_range(n as u64) as usize;
            let sql = format!("select * from {TABLE} where id = {k}");
            ("point", sql, Some(vec![values(&model[k])]), None)
        }
        8 => {
            let lo = rng.gen_range((n - RANGE_KEYS) as u64) as usize;
            let hi = lo + RANGE_KEYS as usize;
            let sql = format!("select * from {TABLE} where id >= {lo} and id < {hi}");
            let expect = model[lo..hi].iter().map(values).collect();
            ("range", sql, Some(expect), None)
        }
        _ => {
            let row = fresh_row(rng, *next_id);
            *next_id += 1;
            let sql = format!(
                "insert into {TABLE} values ({}, '{}', {})",
                row.0, row.1, row.2
            );
            ("insert", sql, None, Some(row))
        }
    }
}

/// What one client did in one phase.
#[derive(Default)]
struct ClientOut {
    tallies: Tallies,
    inserted: Vec<Row>,
    /// Measured statements and the window they took.
    statements: u64,
    seconds: f64,
    /// Traced: client round trip minus engine time, per matched select.
    nonengine_us: Vec<f64>,
    unmatched: u64,
    tracer: Option<Tracer>,
}

/// Where a traced client sends its spans and finds engine times.
struct TraceCtx {
    epoch: Instant,
    slow: Arc<SlowLog>,
}

/// Match pending `(span, query id, round trip µs)` selects against the
/// slow log's engine `elapsed_us`.
fn resolve(pending: &mut Vec<(usize, u64, f64)>, slow: &SlowLog, out: &mut ClientOut) {
    if pending.is_empty() {
        return;
    }
    let engine: BTreeMap<u64, u64> = slow
        .entries()
        .into_iter()
        .map(|e| (e.query, e.elapsed_us))
        .collect();
    for (span, qid, rt_us) in pending.drain(..) {
        match (engine.get(&qid), out.tracer.as_mut()) {
            (Some(&us), Some(tr)) => {
                out.nonengine_us.push(rt_us - us as f64);
                tr.child_of(span, "server.engine", us);
            }
            _ => out.unmatched += 1,
        }
    }
}

fn client(
    addr: SocketAddr,
    model: &[Row],
    seed: u64,
    first_id: i64,
    seconds: f64,
    start: &Barrier,
    trace: Option<&TraceCtx>,
) -> Result<ClientOut, String> {
    let conn = connect(addr).map_err(|e| e.to_string());
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut out = ClientOut {
        tracer: trace.map(|t| Tracer::new(t.epoch)),
        ..ClientOut::default()
    };
    let mut conn = match conn {
        Ok(mut c) => {
            for _ in 0..WARMUP {
                let k = rng.gen_index(model.len());
                let t = Instant::now();
                let reply = c.execute(&format!("select * from {TABLE} where id = {k}"));
                let ms = ms_since(t);
                let ok = match reply {
                    Ok(Outcome::Rows(r)) => Ok(decompose::rows(&r) == vec![values(&model[k])]),
                    Ok(_) => Ok(false),
                    Err(e) => Err(e.to_string()),
                };
                out.tallies.entry("warmup").or_default().outcome(ms, ok);
            }
            start.wait();
            c
        }
        Err(e) => {
            start.wait();
            return Err(e);
        }
    };
    let mut next_id = first_id;
    let mut pending = Vec::new();
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < seconds {
        let (kind, sql, expect, row) = next_stmt(&mut rng, model, &mut next_id);
        out.statements += 1;
        let span = out.tracer.as_mut().map(|tr| tr.begin(kind, out.statements));
        let t = Instant::now();
        let reply = conn.execute(&sql);
        let ms = ms_since(t);
        if let (Some(tr), Some(s)) = (out.tracer.as_mut(), span) {
            tr.end(s);
        }
        let verdict = match (reply, &expect) {
            (Ok(Outcome::Rows(r)), Some(rows)) => Ok(&decompose::rows(&r) == rows),
            (Ok(Outcome::Message(_)), None) => Ok(true),
            (Ok(_), _) => Ok(false),
            (Err(e), _) => Err(e.to_string()),
        };
        if verdict.is_ok() {
            out.inserted.extend(row);
        }
        out.tallies.entry(kind).or_default().outcome(ms, verdict);
        if let (Some(tc), Some(s), true) = (trace, span, expect.is_some()) {
            pending.push((s, conn.last_query_id(), ms * 1e3));
            if pending.len() >= SLOW_LOG_BATCH {
                resolve(&mut pending, &tc.slow, &mut out);
            }
        }
    }
    out.seconds = t0.elapsed().as_secs_f64();
    if let Some(tc) = trace {
        resolve(&mut pending, &tc.slow, &mut out);
    }
    conn.close();
    Ok(out)
}

/// Both clients for `seconds`; phase `p` picks their seeds and fresh ids.
fn phase(
    addr: SocketAddr,
    model: &[Row],
    seed: u64,
    p: u64,
    seconds: f64,
    trace: Option<&TraceCtx>,
) -> Result<Vec<ClientOut>, String> {
    let start = Barrier::new(CLIENTS);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let k = p * CLIENTS as u64 + c as u64 + 1;
                let first_id = k as i64 * ID_STRIDE;
                let seed = seed ^ k.wrapping_mul(0x9e37_79b9_7f4a_7c15);
                let start = &start;
                s.spawn(move || client(addr, model, seed, first_id, seconds, start, trace))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "client thread panicked".to_string())?)
            .collect()
    })
}

/// Statements per second of both clients together.
fn ops_per_s(outs: &[ClientOut]) -> f64 {
    outs.iter()
        .map(|o| ratio(o.statements as f64, o.seconds))
        .sum()
}

/// Re-run sampled selects embedded and decomposed, and a few inserts
/// call by call, on the served engine after the traced window.
fn probe(
    db: &RwLock<Db>,
    model: &[Row],
    seed: u64,
    tr: &mut Tracer,
    ex: &mut ExecTotals,
    res: &mut RunResult,
) -> Vec<Row> {
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0x0009_60be);
    let mut next_id = 0;
    let mut stmt = 1_000_000_000;
    {
        let db = db.read().unwrap_or_else(|e| e.into_inner());
        let mut done = 0;
        while done < PROBE_SELECTS {
            let (kind, sql, expect, _) = next_stmt(&mut rng, model, &mut next_id);
            let Some(expect) = expect else { continue };
            stmt += 1;
            done += 1;
            let t = Instant::now();
            let out = decompose::select(&db, &sql, stmt, tr, ex);
            let verdict = out.map(|r| decompose::rows(&r) == expect);
            res.tallies
                .entry(if kind == "point" {
                    "probe_point"
                } else {
                    "probe_range"
                })
                .or_default()
                .outcome(ms_since(t), verdict);
        }
    }
    let mut db = db.write().unwrap_or_else(|e| e.into_inner());
    let mut inserted = Vec::new();
    for k in 0..PROBE_INSERTS as i64 {
        stmt += 1;
        let row = fresh_row(&mut rng, -1 - k);
        let t = Instant::now();
        let s = tr.begin("core.begin", stmt);
        let h = db.begin();
        tr.end(s);
        let out = h.and_then(|h| {
            let s = tr.begin("core.insert_in", stmt);
            let r = db.insert_in(h, TABLE, values(&row));
            tr.end(s);
            r?;
            let s = tr.begin("core.commit", stmt);
            let r = db.commit(h);
            tr.end(s);
            r
        });
        let verdict = out.map(|()| true).map_err(|e| e.to_string());
        if verdict.is_ok() {
            inserted.push(row);
        }
        res.tallies
            .entry("probe_insert")
            .or_default()
            .outcome(ms_since(t), verdict);
    }
    inserted
}

/// Every acknowledged insert is in the table; the row count adds up.
fn final_checks(db: &Db, preload: usize, inserted: &[Row]) -> Vec<String> {
    let mut failures = Vec::new();
    match db.row_count(TABLE) {
        Ok(n) if n == preload + inserted.len() => {}
        other => failures.push(format!(
            "wire_oltp: row_count {other:?}, expected {}",
            preload + inserted.len()
        )),
    }
    for r in inserted {
        let got = db
            .lookup(TABLE, "id", &Value::Int(r.0))
            .map(|ts| ts.iter().map(|t| t.values().to_vec()).collect::<Vec<_>>())
            .map_err(|e| e.to_string());
        if got != Ok(vec![values(r)]) {
            failures.push(format!("wire_oltp: lookup id={} returned {got:?}", r.0));
        }
    }
    failures
}

/// The clients' outcome: the untraced window, the peak RSS at its end,
/// and the traced window when there is one.
struct Windows {
    plain: Vec<ClientOut>,
    rss_mb: f64,
    traced: Option<Traced>,
}

struct Traced {
    outs: Vec<ClientOut>,
    /// Registry deltas over the traced window.
    delta: CounterDelta,
    epoch: Instant,
}

fn windows(
    addr: SocketAddr,
    model: &[Row],
    args: &Args,
    slow: Arc<SlowLog>,
) -> Result<Windows, String> {
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let plain = phase(addr, model, args.seed, 0, seconds, None)?;
    let rss_mb = peak_rss_mb();
    let mut traced = None;
    if args.trace {
        let ctx = TraceCtx {
            epoch: Instant::now(),
            slow,
        };
        let counters = Counters::start();
        let outs = phase(addr, model, args.seed, 1, seconds, Some(&ctx))?;
        traced = Some(Traced {
            outs,
            delta: counters.delta(),
            epoch: ctx.epoch,
        });
    }
    Ok(Windows {
        plain,
        rss_mb,
        traced,
    })
}

/// Per-layer metrics of the traced window plus the embedded probe;
/// returns the rows the probe inserted and the spans.
fn layers(
    res: &mut RunResult,
    t: Traced,
    plain_ops: f64,
    db: &RwLock<Db>,
    model: &[Row],
    seed: u64,
) -> (Vec<Row>, Tracer) {
    let traced_ops = ops_per_s(&t.outs);
    let rows: usize = t.outs.iter().map(|o| o.inserted.len()).sum();
    let sent: u64 = t.outs.iter().map(|o| o.statements + WARMUP as u64).sum();
    let mut tr = Tracer::new(t.epoch);
    let mut nonengine = Vec::new();
    let mut unmatched = 0;
    for o in t.outs {
        nonengine.extend(o.nonengine_us);
        unmatched += o.unmatched;
        tr.absorb(o.tracer.unwrap_or_else(|| Tracer::new(t.epoch)));
    }
    let mut ex = ExecTotals::default();
    let probed = probe(db, model, seed, &mut tr, &mut ex, res);
    res.exec_layers(&tr, &ex);
    res.storage_layers(&t.delta, rows as f64);
    res.counter_layers(&t.delta);
    res.set(&[
        (
            "server.nonengine_us_per_select",
            ratio(nonengine.iter().sum(), nonengine.len() as f64),
        ),
        (
            "server.bytes_out_per_stmt",
            ratio(t.delta.get("bq_server_bytes_out_total") as f64, sent as f64),
        ),
        ("core.insert_us", tr.mean_us("core.insert_in")),
        ("core.commit_us", tr.mean_us("core.commit")),
    ]);
    res.line(format!(
        "slow-log matches: {} selects matched, {unmatched} unmatched",
        nonengine.len()
    ));
    res.overhead(plain_ops, traced_ops);
    (probed, tr)
}

/// Run the workload.
pub fn run(args: &Args, scale: Scale) -> Result<RunResult, String> {
    let model = generate(args.seed, scale.oltp_rows);
    let mut res = RunResult::default();
    res.line(format!(
        "workload wire_oltp: {CLIENTS} wire clients, closed loop; acct {} rows indexed on id; \
         mix 80% point / 10% {RANGE_KEYS}-key range / 10% autocommit insert",
        model.len()
    ));
    let (db, setups) = build_repeatedly(scale.setup_reps, || build(&model))?;
    let db = Arc::new(RwLock::new(db));
    let slow = db.read().unwrap_or_else(|e| e.into_inner()).slow_log();
    let server = serve(Arc::clone(&db), ServerConfig::default()).map_err(|e| e.to_string())?;
    let out = windows(server.local_addr(), &model, args, slow);
    server.shutdown(Duration::from_secs(5));
    let Windows {
        plain,
        rss_mb,
        traced,
    } = out?;

    let mut inserted = Vec::new();
    for o in plain
        .iter()
        .chain(traced.iter().flat_map(|t| t.outs.iter()))
    {
        merge_tallies(&mut res.tallies, &o.tallies);
        inserted.extend(o.inserted.iter().cloned());
    }
    let spans = traced.map(|t| {
        let (probed, tr) = layers(&mut res, t, ops_per_s(&plain), &db, &model, args.seed);
        inserted.extend(probed);
        tr
    });

    let db = db.read().unwrap_or_else(|e| e.into_inner());
    res.check_failures = final_checks(&db, model.len(), &inserted);
    let heap_bytes = db.page_count() as f64 * 4096.0;
    res.set(&[(
        "storage.heap_bytes_per_row",
        ratio(heap_bytes, (model.len() + inserted.len()) as f64),
    )]);
    drop(db);
    match spans {
        Some(tr) => res.layer_lines(tr),
        None => {
            res.pct_line("point_select_p50_ms", &["point"], 0.5);
            res.pct_line("point_select_p99_ms", &["point"], 0.99);
            res.pct_line("range_select_p50_ms", &["range"], 0.5);
            res.pct_line("insert_p50_ms", &["insert"], 0.5);
            res.pct_line("insert_p90_ms", &["insert"], 0.9);
            res.end_to_end(&setups, ops_per_s(&plain), rss_mb, &TYPES);
        }
    }
    res.tally_lines();
    Ok(res)
}
