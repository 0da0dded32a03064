//! Latency samples, outcome counts, percentiles and counter deltas.

use std::collections::BTreeMap;
use std::time::Instant;

/// Latencies and outcomes of one statement type.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Latency of every statement that returned a correct result (ms).
    pub lat_ms: Vec<f64>,
    /// Statements sent.
    pub attempted: u64,
    /// Statements that returned a typed error or a wrong result.
    pub failed: u64,
    /// Of `failed`, those whose result disagreed with the model.
    pub wrong: u64,
}

impl Tally {
    /// Record a correct statement.
    pub fn ok(&mut self, ms: f64) {
        self.attempted += 1;
        self.lat_ms.push(ms);
    }

    /// Record a statement whose call returned an error.
    pub fn error(&mut self) {
        self.attempted += 1;
        self.failed += 1;
    }

    /// Record a statement whose result was wrong.
    pub fn wrong(&mut self) {
        self.error();
        self.wrong += 1;
    }

    /// Record an outcome: `Ok(true)` correct, `Ok(false)` wrong, `Err` error.
    pub fn outcome(&mut self, ms: f64, outcome: Result<bool, String>) {
        match outcome {
            Ok(true) => self.ok(ms),
            Ok(false) => self.wrong(),
            Err(_) => self.error(),
        }
    }

    /// Fold another tally into this one.
    pub fn merge(&mut self, other: &Tally) {
        self.lat_ms.extend_from_slice(&other.lat_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
    }
}

/// Tallies by statement type.
pub type Tallies = BTreeMap<&'static str, Tally>;

/// Fold `from` into `into`, type by type.
pub fn merge_tallies(into: &mut Tallies, from: &Tallies) {
    for (k, t) in from {
        into.entry(k).or_default().merge(t);
    }
}

/// Milliseconds since `start`.
pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// A percentile with the sample size behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    /// The sample at the nearest rank.
    pub value: f64,
    /// Samples in total.
    pub n: usize,
    /// Samples ranked above it.
    pub beyond: usize,
}

/// Nearest-rank percentile (`q` in (0, 1]); `None` on an empty sample.
pub fn percentile(samples: &[f64], q: f64) -> Option<Pct> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Some(Pct {
        value: sorted[rank - 1],
        n,
        beyond: n - rank,
    })
}

/// Median (nearest rank); 0 on an empty sample.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5).map_or(0.0, |p| p.value)
}

/// Geometric mean of positive values; 0 when any is missing.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0) {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Peak resident set size of this process in MiB (`VmHWM`), 0 where the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Counters of the global `bq-obs` registry the per-layer metrics read.
pub const COUNTERS: [&str; 10] = [
    "bq_storage_page_reads_total",
    "bq_storage_page_writes_total",
    "bq_storage_wal_bytes_total",
    "bq_storage_wal_fsyncs_total",
    "bq_storage_btree_splits_total",
    "bq_core_txn_commits_total",
    "bq_governor_admitted_total",
    "bq_governor_shed_total",
    "bq_txn_lock_waits_total",
    "bq_server_bytes_out_total",
];

/// Change of each of [`COUNTERS`] over an interval.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CounterDelta(pub BTreeMap<&'static str, i64>);

impl CounterDelta {
    /// Value of one counter's change (0 when it did not move).
    pub fn get(&self, name: &str) -> i64 {
        self.0.get(name).copied().unwrap_or(0)
    }

    /// Fold another interval in.
    pub fn add(&mut self, other: &CounterDelta) {
        for (k, v) in &other.0 {
            *self.0.entry(k).or_insert(0) += v;
        }
    }
}

/// A snapshot of the global registry, to be closed with [`Counters::delta`].
pub struct Counters(bq_obs::Snapshot);

impl Counters {
    /// Snapshot now.
    pub fn start() -> Counters {
        Counters(bq_obs::global().snapshot())
    }

    /// Change of [`COUNTERS`] since the snapshot.
    pub fn delta(&self) -> CounterDelta {
        let after = bq_obs::global().snapshot();
        CounterDelta(
            COUNTERS
                .iter()
                .map(|&n| (n, after.get(n) - self.0.get(n)))
                .collect(),
        )
    }
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_count_the_tail() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let p99 = percentile(&v, 0.99).unwrap();
        assert_eq!((p99.value, p99.n, p99.beyond), (99.0, 100, 1));
        let p90 = percentile(&v, 0.90).unwrap();
        assert_eq!((p90.value, p90.beyond), (90.0, 10));
        assert_eq!(median(&v), 50.0);
        assert!(percentile(&[], 0.5).is_none());
    }

    #[test]
    fn geomean_of_equal_values_is_the_value() {
        assert!((geomean(&[4.0, 4.0, 4.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert_eq!(geomean(&[1.0, 0.0]), 0.0);
    }
}
