//! `analytics`: one embedded reader over `emp`/`dept`/`edge`.
//!
//! Rounds of four statements with seeded parameters: a comma equi-join
//! (`emp e, dept d where e.dept = d.did`, lowered today to `Product` +
//! `Filter`), a selective filter scan, a projection scan whose result goes
//! through `HashDistinct`, and a Datalog transitive closure from a bound
//! source via `Db::datalog`. Exec, relational and datalog do the work;
//! storage does none.

use crate::decompose::{self, ExecTotals};
use crate::report::RunResult;
use crate::stats::{ms_since, peak_rss_mb, ratio, Counters, Tallies};
use crate::trace::Tracer;
use crate::{build_repeatedly, Args, Scale};
use bq_core::Db;
use bq_datalog::{parse_program, FactStore, SemiNaive};
use bq_relational::{algebra, sqlish, Type, Value};
use bq_util::{Rng, SplitMix64};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::time::Instant;

const DEPTS: i64 = 40;
const BUILDINGS: u64 = 8;
const GRADES: u64 = 4;
const MAX_SAL: u64 = 100_000;
/// Salary window of the filter scan: about 1% of `emp`.
const SCAN_WINDOW: i64 = 1_000;
/// The graph is a layered DAG of `LAYERS` × `WIDTH` nodes: node `i` of a
/// layer points to node `i` of the next layer and, for `i < FORKS`, also to
/// node `i + 1`. Its shape is fixed and the seed only permutes the node
/// labels, so a closure costs the same under every seed (semi-naive
/// evaluation derives the whole closure whatever the bound source).
const LAYERS: i64 = 10;
const WIDTH: i64 = 10;
const FORKS: i64 = 6;
/// One join in this many is also checked against the recursive oracle.
const ORACLE_EVERY: u64 = 32;
/// At most this many oracle checks per run (each evaluates the full
/// unoptimised product).
const ORACLE_MAX: usize = 4;
const PROGRAM: &str = "reach(X, Y) :- edge(X, Y). reach(X, Z) :- reach(X, Y), edge(Y, Z).";
/// The workload's statement types, in round order.
pub const TYPES: [&str; 4] = ["join", "filter_scan", "proj_scan", "closure"];

/// The generated data, kept as the benchmark's model.
struct Model {
    /// `(id, name, dept, sal, grade)`.
    emp: Vec<(i64, String, i64, i64, i64)>,
    /// `(did, dname, bldg)`, indexed by `did`.
    dept: Vec<(i64, String, String)>,
    edges: BTreeSet<(i64, i64)>,
    /// Nodes with at least one outgoing edge: closure sources.
    sources: Vec<i64>,
}

impl Model {
    fn generate(seed: u64, emp_rows: i64) -> Model {
        let mut rng = SplitMix64::seed_from_u64(seed ^ 0x0a7a_17c5);
        let dept = (0..DEPTS)
            .map(|d| {
                (
                    d,
                    format!("dept{d}"),
                    format!("b{}", rng.gen_range(BUILDINGS)),
                )
            })
            .collect();
        let emp = (0..emp_rows)
            .map(|id| {
                (
                    id,
                    format!("e{id}"),
                    rng.gen_range(DEPTS as u64) as i64,
                    rng.gen_range(MAX_SAL) as i64,
                    rng.gen_range(GRADES) as i64,
                )
            })
            .collect();
        let mut label: Vec<i64> = (0..LAYERS * WIDTH).collect();
        rng.shuffle(&mut label);
        let node = |l: i64, i: i64| label[(l * WIDTH + i) as usize];
        let mut edges = BTreeSet::new();
        for l in 0..LAYERS - 1 {
            for i in 0..WIDTH {
                edges.insert((node(l, i), node(l + 1, i)));
                if i < FORKS {
                    edges.insert((node(l, i), node(l + 1, i + 1)));
                }
            }
        }
        let sources: BTreeSet<i64> = edges.iter().map(|&(s, _)| s).collect();
        Model {
            emp,
            dept,
            edges,
            sources: sources.into_iter().collect(),
        }
    }

    fn emp_row(e: &(i64, String, i64, i64, i64)) -> Vec<Value> {
        vec![
            Value::Int(e.0),
            Value::Str(e.1.clone()),
            Value::Int(e.2),
            Value::Int(e.3),
            Value::Int(e.4),
        ]
    }

    fn build(&self) -> Result<Db, String> {
        let err = |e: bq_core::CoreError| e.to_string();
        let mut db = Db::new();
        db.create_table(
            "emp",
            &[
                ("id", Type::Int),
                ("name", Type::Str),
                ("dept", Type::Int),
                ("sal", Type::Int),
                ("grade", Type::Int),
            ],
        )
        .map_err(err)?;
        db.create_table(
            "dept",
            &[
                ("did", Type::Int),
                ("dname", Type::Str),
                ("bldg", Type::Str),
            ],
        )
        .map_err(err)?;
        db.create_table("edge", &[("src", Type::Int), ("dst", Type::Int)])
            .map_err(err)?;
        let h = db.begin().map_err(err)?;
        for e in &self.emp {
            db.insert_in(h, "emp", Model::emp_row(e)).map_err(err)?;
        }
        for (did, dname, bldg) in &self.dept {
            let row = vec![
                Value::Int(*did),
                Value::Str(dname.clone()),
                Value::Str(bldg.clone()),
            ];
            db.insert_in(h, "dept", row).map_err(err)?;
        }
        for &(s, d) in &self.edges {
            db.insert_in(h, "edge", vec![Value::Int(s), Value::Int(d)])
                .map_err(err)?;
        }
        db.commit(h).map_err(err)?;
        db.create_index("emp", "id").map_err(err)?;
        db.create_index("edge", "src").map_err(err)?;
        Ok(db)
    }

    /// Nodes reachable from `s` over one or more edges (BFS).
    fn reach(&self, s: i64) -> Vec<Vec<Value>> {
        let mut adj: BTreeMap<i64, Vec<i64>> = BTreeMap::new();
        for &(a, b) in &self.edges {
            adj.entry(a).or_default().push(b);
        }
        let mut seen = BTreeSet::new();
        let mut queue = VecDeque::from([s]);
        while let Some(n) = queue.pop_front() {
            for &m in adj.get(&n).into_iter().flatten() {
                if seen.insert(m) {
                    queue.push_back(m);
                }
            }
        }
        seen.into_iter()
            .map(|y| vec![Value::Int(s), Value::Int(y)])
            .collect()
    }
}

/// One statement: its type, its text, and the rows it must return.
struct Stmt {
    kind: &'static str,
    text: String,
    expect: Vec<Vec<Value>>,
}

fn sorted(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    rows.sort();
    rows.dedup();
    rows
}

fn next_stmt(m: &Model, rng: &mut SplitMix64, i: u64) -> Stmt {
    match TYPES[(i % TYPES.len() as u64) as usize] {
        "join" => {
            let g = rng.gen_range(GRADES) as i64;
            let expect = m
                .emp
                .iter()
                .filter(|e| e.4 == g)
                .map(|e| {
                    let d = &m.dept[e.2 as usize];
                    vec![
                        Value::Int(e.0),
                        Value::Str(e.1.clone()),
                        Value::Str(d.1.clone()),
                        Value::Str(d.2.clone()),
                    ]
                })
                .collect();
            Stmt {
                kind: "join",
                text: format!(
                    "select e.id, e.name, d.dname, d.bldg from emp e, dept d \
                     where e.dept = d.did and e.grade = {g}"
                ),
                expect: sorted(expect),
            }
        }
        "filter_scan" => {
            let lo = rng.gen_range(MAX_SAL - SCAN_WINDOW as u64) as i64;
            let hi = lo + SCAN_WINDOW;
            let expect = m
                .emp
                .iter()
                .filter(|e| e.3 >= lo && e.3 < hi)
                .map(Model::emp_row)
                .collect();
            Stmt {
                kind: "filter_scan",
                text: format!("select * from emp e where e.sal >= {lo} and e.sal < {hi}"),
                expect: sorted(expect),
            }
        }
        "proj_scan" => {
            let hi = (MAX_SAL * 2 / 5 + rng.gen_range(MAX_SAL * 3 / 5)) as i64;
            let expect = m
                .emp
                .iter()
                .filter(|e| e.3 < hi)
                .map(|e| vec![Value::Int(e.2), Value::Int(e.4)])
                .collect();
            Stmt {
                kind: "proj_scan",
                text: format!("select e.dept, e.grade from emp e where e.sal < {hi}"),
                expect: sorted(expect),
            }
        }
        _ => {
            let s = *rng.choose(&m.sources);
            Stmt {
                kind: "closure",
                text: format!("reach({s}, Y)"),
                expect: m.reach(s),
            }
        }
    }
}

/// Run one statement untraced; `Ok(rows)` when the call succeeded.
fn run_plain(db: &Db, st: &Stmt) -> Result<Vec<Vec<Value>>, String> {
    if st.kind == "closure" {
        db.datalog(PROGRAM, &st.text).map_err(|e| e.to_string())
    } else {
        db.sql(&st.text)
            .map(|r| decompose::rows(&r))
            .map_err(|e| e.to_string())
    }
}

/// Datalog work of the traced closures.
#[derive(Default)]
struct DatalogTotals {
    runs: u64,
    iterations: u64,
    firings: u64,
    facts: u64,
}

/// Run one closure traced: `Db::datalog` whole, then `SemiNaive` alone
/// over an EDB the benchmark copies from the catalog the way `Db::datalog`
/// does. Both answers must agree.
fn closure_traced(
    db: &Db,
    st: &Stmt,
    stmt: u64,
    tr: &mut Tracer,
    dl: &mut DatalogTotals,
) -> Result<Vec<Vec<Value>>, String> {
    let s = tr.begin("core.datalog", stmt);
    let whole = db.datalog(PROGRAM, &st.text).map_err(|e| e.to_string());
    tr.end(s);
    let whole = whole?;
    let program = parse_program(PROGRAM).map_err(|e| e.to_string())?;
    let atom = bq_datalog::parser::parse_atom(&st.text).map_err(|e| e.to_string())?;
    let s = tr.begin("bench.edb_copy", stmt);
    let mut edb = FactStore::new();
    for name in db.catalog().names() {
        let rel = db.catalog().get(name).map_err(|e| e.to_string())?;
        for t in rel.iter() {
            edb.insert(name, t.values().to_vec());
        }
    }
    tr.end(s);
    let s = tr.begin("datalog.eval", stmt);
    let out = SemiNaive::run_with_ctx(&program, &edb, &db.govern()).map_err(|e| e.to_string());
    tr.end(s);
    let (store, stats) = out?;
    dl.runs += 1;
    dl.iterations += stats.iterations as u64;
    dl.firings += stats.rule_firings as u64;
    dl.facts += stats.facts_derived as u64;
    let alone = bq_datalog::interp::query(&store, &atom);
    if sorted(alone) != sorted(whole.clone()) {
        return Err("SemiNaive answer differs from Db::datalog".to_string());
    }
    Ok(whole)
}

struct Phase {
    statements: u64,
    seconds: f64,
}

/// Rounds until `seconds` have passed. Traced, every select runs whole
/// and decomposed and every closure whole and as `SemiNaive` alone.
#[allow(clippy::too_many_arguments)]
fn phase(
    db: &Db,
    m: &Model,
    rng: &mut SplitMix64,
    seconds: f64,
    tallies: &mut Tallies,
    oracle: &mut Vec<Stmt>,
    mut traced: Option<(&mut Tracer, &mut ExecTotals, &mut DatalogTotals)>,
    first_stmt: u64,
) -> Phase {
    let start = Instant::now();
    let mut i = first_stmt;
    while start.elapsed().as_secs_f64() < seconds
        || !(i - first_stmt).is_multiple_of(TYPES.len() as u64)
    {
        let st = next_stmt(m, rng, i);
        let t = Instant::now();
        let out = match traced.as_mut() {
            None => run_plain(db, &st),
            Some((tr, ex, _)) if st.kind != "closure" => {
                decompose::select(db, &st.text, i, tr, ex).map(|r| decompose::rows(&r))
            }
            Some((tr, _, dl)) => closure_traced(db, &st, i, tr, dl),
        };
        let ms = ms_since(t);
        let verdict = out.map(|rows| sorted(rows) == st.expect);
        tallies.entry(st.kind).or_default().outcome(ms, verdict);
        if st.kind == "join" && oracle.len() < ORACLE_MAX && rng.gen_range(ORACLE_EVERY) == 0 {
            oracle.push(st);
        }
        i += 1;
    }
    Phase {
        statements: i - first_stmt,
        seconds: start.elapsed().as_secs_f64(),
    }
}

/// Check sampled joins against `algebra::eval` on the unoptimised parse.
fn oracle_checks(db: &Db, sample: &[Stmt]) -> Vec<String> {
    let mut failures = Vec::new();
    for st in sample {
        let got = sqlish::parse(&st.text)
            .and_then(|e| algebra::eval(&e, db.catalog()))
            .map(|r| decompose::rows(&r));
        match got {
            Ok(rows) if sorted(rows.clone()) == st.expect => {}
            Ok(rows) => failures.push(format!(
                "analytics: oracle gave {} rows for `{}`, expected {}",
                rows.len(),
                st.text,
                st.expect.len()
            )),
            Err(e) => failures.push(format!("analytics: oracle failed on `{}`: {e}", st.text)),
        }
    }
    failures
}

/// Run the workload.
pub fn run(args: &Args, scale: Scale) -> Result<RunResult, String> {
    let m = Model::generate(args.seed, scale.emp_rows);
    let mut res = RunResult::default();
    res.line(format!(
        "workload analytics: 1 embedded reader, closed loop; emp {} rows, dept {DEPTS}, \
         edge {} over {} nodes; round = join, filter_scan, proj_scan, closure",
        m.emp.len(),
        m.edges.len(),
        LAYERS * WIDTH
    ));
    let (db, setups) = build_repeatedly(scale.setup_reps, || m.build())?;
    let mut rng = SplitMix64::seed_from_u64(args.seed);
    let mut oracle = Vec::new();
    let mut tallies = Tallies::new();
    if !args.trace {
        let p = phase(
            &db,
            &m,
            &mut rng,
            args.seconds,
            &mut tallies,
            &mut oracle,
            None,
            0,
        );
        let rss = peak_rss_mb();
        res.tallies = tallies;
        res.check_failures = oracle_checks(&db, &oracle);
        res.line(format!(
            "oracle: {} sampled joins checked against algebra::eval",
            oracle.len()
        ));
        res.pct_line("join_p50_ms", &["join"], 0.5);
        res.pct_line("join_p90_ms", &["join"], 0.9);
        res.pct_line("scan_p50_ms", &["filter_scan", "proj_scan"], 0.5);
        res.pct_line("scan_p90_ms", &["filter_scan", "proj_scan"], 0.9);
        res.pct_line("closure_p50_ms", &["closure"], 0.5);
        res.pct_line("closure_p90_ms", &["closure"], 0.9);
        res.end_to_end(&setups, ratio(p.statements as f64, p.seconds), rss, &TYPES);
        res.tally_lines();
        return Ok(res);
    }
    let half = args.seconds / 2.0;
    let plain = phase(&db, &m, &mut rng, half, &mut tallies, &mut oracle, None, 0);
    let mut tr = Tracer::new(Instant::now());
    let mut ex = ExecTotals::default();
    let mut dl = DatalogTotals::default();
    let counters = Counters::start();
    let traced = phase(
        &db,
        &m,
        &mut rng,
        half,
        &mut tallies,
        &mut oracle,
        Some((&mut tr, &mut ex, &mut dl)),
        plain.statements,
    );
    res.counter_layers(&counters.delta());
    res.tallies = tallies;
    res.check_failures = oracle_checks(&db, &oracle);
    res.exec_layers(&tr, &ex);
    let eval_us = tr.mean_us("datalog.eval");
    res.set(&[
        ("datalog.eval_us", eval_us),
        (
            "core.datalog_edb_copy_us",
            tr.mean_us("core.datalog") - eval_us,
        ),
        (
            "datalog.iterations",
            ratio(dl.iterations as f64, dl.runs as f64),
        ),
        (
            "datalog.firings_per_fact",
            ratio(dl.firings as f64, dl.facts as f64),
        ),
        (
            "storage.heap_bytes_per_row",
            ratio(
                db.page_count() as f64 * 4096.0,
                (m.emp.len() + m.dept.len() + m.edges.len()) as f64,
            ),
        ),
    ]);
    res.line(
        "traced half runs every select twice (Db::sql, then decomposed) and every closure \
         twice (Db::datalog, then SemiNaive alone)",
    );
    res.overhead(
        ratio(plain.statements as f64, plain.seconds),
        ratio(traced.statements as f64, traced.seconds),
    );
    res.layer_lines(tr);
    res.tally_lines();
    Ok(res)
}
