//! Command line of the benchmark:
//!
//! ```text
//! bq-bigbench --workload <wire_oltp|ingest|analytics> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints the report, then as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics` (end-to-end metrics when
//! untraced, per-layer metrics when traced). A traced run also writes its
//! spans to `.bench_out/trace-<workload>-seed<n>.jsonl`.

use bq_bigbench::{run, Args, Scale, WORKLOADS};
use std::process::ExitCode;

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        let bad = |what: &str| format!("bad {what} `{value}`");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("seed"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("seconds"))?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err(bad("seconds"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace flag")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// The commit being measured, read from `.git` in the working directory;
/// `unknown` outside a git checkout.
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(&format!(".git/{reference}"))
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split(' ').next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bq-bigbench: {e}");
            return ExitCode::from(2);
        }
    };
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "provenance: git_rev={} available_parallelism={parallelism} exec_mode={} seed={} \
         workload={} seconds={} trace={}",
        git_rev(),
        bq_core::Db::new().exec_mode(),
        args.seed,
        args.workload,
        args.seconds,
        u8::from(args.trace)
    );
    let result = match run(&args, Scale::full()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("bq-bigbench: {} failed: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    for line in &result.lines {
        println!("{line}");
    }
    for f in &result.check_failures {
        println!("CHECK FAILED: {f}");
    }
    if let Some(tr) = &result.spans {
        let dir = std::path::Path::new(".bench_out");
        let path = dir.join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, tr.jsonl())) {
            Ok(()) => println!("spans: {} written to {}", tr.spans().len(), path.display()),
            Err(e) => println!("spans: {} kept, not written ({e})", tr.spans().len()),
        }
    }
    println!("{}", result.json_line(args.trace));
    ExitCode::SUCCESS
}
