//! The benchmark's own checks: storage counts on `ingest` repeat exactly
//! for a fixed seed, and every workload prints every named metric.
//!
//! The engine's metrics registry is process-wide, so the tests take one
//! lock: a workload running beside another would move its counters.

use bq_bigbench::report::metric_names;
use bq_bigbench::stats::Tallies;
use bq_bigbench::{ingest, run, Args, Scale, WORKLOADS};
use std::sync::{Mutex, MutexGuard};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn tiny() -> Scale {
    Scale {
        oltp_rows: 400,
        ingest_preload: 100,
        ingest_rows: 500,
        emp_rows: 300,
        setup_reps: 1,
    }
}

fn args(workload: &str, trace: bool) -> Args {
    Args {
        workload: workload.to_string(),
        seed: 11,
        seconds: 0.4,
        trace,
    }
}

#[test]
fn ingest_storage_counts_repeat_exactly_for_a_seed() {
    let _g = serial();
    let data = ingest::generate(5, 900);
    let a = ingest::rep(&data, 150, &mut Tallies::new(), None).unwrap();
    let b = ingest::rep(&data, 150, &mut Tallies::new(), None).unwrap();
    assert!(a.check_failures.is_empty(), "{:?}", a.check_failures);
    assert!(a.counters.get("bq_storage_page_reads_total") > 0);
    assert!(a.counters.get("bq_storage_wal_bytes_total") > 0);
    assert_eq!(a.counters, b.counters);
    assert_eq!(a.heap_bytes_per_row, b.heap_bytes_per_row);

    // Through the whole traced run too, however many repetitions fit.
    let storage = |trace_run: &bq_bigbench::RunResult| -> Vec<(String, f64)> {
        trace_run
            .values
            .iter()
            .filter(|(k, _)| k.starts_with("storage."))
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    };
    let first = run(&args("ingest", true), tiny()).unwrap();
    let second = run(&args("ingest", true), tiny()).unwrap();
    assert_eq!(storage(&first).len(), 6);
    assert_eq!(storage(&first), storage(&second));
}

#[test]
fn every_workload_prints_every_metric_and_checks_out() {
    let _g = serial();
    for workload in WORKLOADS {
        for trace in [false, true] {
            let res = run(&args(workload, trace), tiny()).unwrap();
            let what = format!("{workload} trace={trace}");
            assert!(res.correct(), "{what}: {:?}", res.check_failures);
            assert_eq!(res.failed(), 0, "{what}");
            assert!(res.attempted() > 0, "{what}");
            let json = res.json_line(trace);
            assert!(
                json.starts_with("{\"correct\": true, \"attempted\": "),
                "{json}"
            );
            for (name, unit) in metric_names(trace) {
                let key = format!("\"{name}\": {{\"value\": ");
                assert!(json.contains(&key), "{what}: {name} missing from {json}");
                assert!(json.contains(&format!("\"unit\": \"{unit}\"")), "{what}");
            }
            if !trace {
                for m in res.metrics(false) {
                    assert!(m.value > 0.0, "{what}: {} is {}", m.name, m.value);
                }
            }
        }
    }
    assert!(run(&args("nope", false), tiny()).is_err());
}
