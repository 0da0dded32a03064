//! # bq-bigbench
//!
//! One seeded benchmark for the big-queries engine, measured from the
//! outside through each crate's public API. Three closed-loop workloads
//! stress different layers:
//!
//! * [`wire_oltp`] — two wire clients against an in-process `bq-server`:
//!   point and range selects plus autocommit inserts (server, core,
//!   relational, exec, storage).
//! * [`ingest`] — one embedded writer growing an indexed table (storage,
//!   WAL, index upkeep; exec, relational and server do nothing).
//! * [`analytics`] — one embedded reader running an equi-join, two scans
//!   and a Datalog closure (exec, relational, datalog; storage does
//!   nothing).
//!
//! An untraced run reports the end-to-end metrics; a traced run splits its
//! time in two, runs untraced then traced, reports the per-layer metrics
//! from the traced half and the difference between the halves as tracing
//! overhead. Every statement's result is checked against the benchmark's
//! own model of the generated data.

pub mod analytics;
pub mod decompose;
pub mod ingest;
pub mod report;
pub mod stats;
pub mod trace;
pub mod wire_oltp;

pub use report::{Metric, RunResult};

/// The workloads, by the name the command line takes.
pub const WORKLOADS: [&str; 3] = ["wire_oltp", "ingest", "analytics"];

/// What one invocation runs.
#[derive(Debug, Clone)]
pub struct Args {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the measured window (split in two halves when traced).
    pub seconds: f64,
    /// Traced run: report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

/// How big a run is. [`Scale::full`] is what the command line uses; tests
/// shrink it so a smoke run takes a fraction of a second.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// `wire_oltp`: rows preloaded into `acct`.
    pub oltp_rows: i64,
    /// `ingest`: rows preloaded before the timed growth.
    pub ingest_preload: i64,
    /// `ingest`: rows added per repetition.
    pub ingest_rows: i64,
    /// `analytics`: rows in `emp`.
    pub emp_rows: i64,
    /// Times the data set is built before the measured window; `setup_s`
    /// is their median.
    pub setup_reps: usize,
}

impl Scale {
    /// The benchmark's published sizes.
    pub fn full() -> Scale {
        Scale {
            oltp_rows: 10_000,
            ingest_preload: 2_000,
            ingest_rows: 10_000,
            emp_rows: 5_000,
            setup_reps: 3,
        }
    }
}

/// Build a workload's data set `reps` times (at least once), dropping
/// each build before the next; returns the last build and every build's
/// time in seconds, whose median is `setup_s`.
pub(crate) fn build_repeatedly<T>(
    reps: usize,
    mut build: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut built = None;
    for _ in 0..reps.max(1) {
        drop(built.take());
        let t = std::time::Instant::now();
        built = Some(build()?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((built.ok_or("no set-up ran")?, times))
}

/// Run one workload and return its report.
pub fn run(args: &Args, scale: Scale) -> Result<RunResult, String> {
    match args.workload.as_str() {
        "wire_oltp" => wire_oltp::run(args, scale),
        "ingest" => ingest::run(args, scale),
        "analytics" => analytics::run(args, scale),
        other => Err(format!(
            "unknown workload `{other}` (expected one of {})",
            WORKLOADS.join(", ")
        )),
    }
}
