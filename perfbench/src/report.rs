//! What a run prints: human-readable report lines while it runs, then one
//! JSON object as the last line of standard output.
//!
//! Three kinds of numbers are kept apart. End-to-end metrics form the
//! JSON of an untraced run and per-layer metrics the JSON of a traced
//! run; the other kind's numbers are not measured in that mode. Info
//! values (`failed_frac`, the latency percentiles, reference ratios) are
//! printed but never enter the JSON, so the JSON holds exactly the metric
//! set `BENCHMARK.json` declares.

use std::fmt::Write as _;

/// Every end-to-end metric, in `BENCHMARK.json` order, with its unit.
pub const END_TO_END: &[(&str, &str)] =
    &[("solve_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"), ("throughput_rps", "1/s")];

/// Every per-layer metric, in `BENCHMARK.json` order, with its unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("schwarz.calls", "count"),
    ("schwarz.busy_s", "s"),
    ("schwarz.share", "ratio"),
    ("schwarz.gflops", "Gflop/s"),
    ("schwarz.domain_us", "us"),
    ("schwarz.speedup_2w", "ratio"),
    ("dirac.calls", "count"),
    ("dirac.busy_s", "s"),
    ("dirac.share", "ratio"),
    ("dirac.gflops", "Gflop/s"),
    ("dirac.gbps", "GB/s"),
    ("dirac.roofline_frac", "ratio"),
    ("sums.calls", "count"),
    ("sums.busy_s", "s"),
    ("krylov.iterations", "count"),
    ("krylov.operator_applications", "count"),
    ("krylov.self_s", "s"),
    ("krylov.share", "ratio"),
    ("comm.bytes_sent", "B"),
    ("comm.messages", "count"),
    ("comm.reductions", "count"),
    ("comm.recv_wait_s", "s"),
    ("comm.retries", "count"),
    ("comm.timeouts", "count"),
    ("setup.clover_s", "s"),
    ("setup.schwarz_s", "s"),
    ("setup.fused_s", "s"),
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.batches", "count"),
    ("serve.batch_size_mean", "count"),
    ("serve.cache_hit_rate", "ratio"),
    ("serve.materialize_s", "s"),
    ("host.triad_gbps", "GB/s"),
    ("trace.overhead_frac", "ratio"),
];

pub struct Report {
    traced: bool,
    metrics: Vec<(&'static str, f64)>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

fn unit_of(
    table: &[(&'static str, &'static str)],
    name: &str,
) -> Option<(&'static str, &'static str)> {
    table.iter().copied().find(|(n, _)| *n == name)
}

impl Report {
    pub fn new(traced: bool) -> Self {
        Self { traced, metrics: Vec::new(), attempted: 0, failed: 0, problems: Vec::new() }
    }

    pub fn traced(&self) -> bool {
        self.traced
    }

    /// A free-form report line.
    pub fn line(&self, text: impl AsRef<str>) {
        println!("{}", text.as_ref());
    }

    /// A printed value that is not part of the JSON result.
    pub fn info(&self, name: &str, value: f64, unit: &str) {
        println!("  {name:<30} {value:>14.6} {unit}");
    }

    /// Record a metric of the current mode's set (end-to-end untraced,
    /// per-layer traced). Panics on a name outside the declared sets: a
    /// typo must not silently drop a metric from the result.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        let table = if self.traced { PER_LAYER } else { END_TO_END };
        let (name, unit) = unit_of(table, name)
            .unwrap_or_else(|| panic!("metric {name} is not declared for this mode"));
        println!("  {name:<30} {value:>14.6} {unit}");
        if !value.is_finite() {
            self.problem(format!("metric {name} is not finite ({value})"));
        }
        self.metrics.push((name, value));
    }

    /// Count one attempted operation; `ok = false` counts it as failed.
    pub fn attempt(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// A wrong output: the run is reported with `correct: false`.
    pub fn problem(&mut self, what: impl Into<String>) {
        let what = what.into();
        println!("  CHECK FAILED: {what}");
        self.problems.push(what);
    }

    /// `failed_frac`: failed over attempted operations.
    pub fn print_failed_frac(&self) {
        let frac =
            if self.attempted == 0 { 0.0 } else { self.failed as f64 / self.attempted as f64 };
        self.info("failed_frac", frac, "ratio");
    }

    /// Print the JSON result line. Any declared metric the workload did
    /// not record is a bug of the benchmark and fails the run.
    pub fn finish(mut self) {
        let table = if self.traced { PER_LAYER } else { END_TO_END };
        for (name, _) in table {
            if !self.metrics.iter().any(|(n, _)| n == name) {
                self.problem(format!("metric {name} was not measured"));
            }
        }
        if self.attempted == 0 {
            self.problem("no operation was attempted");
        }
        let correct = self.problems.is_empty();
        let mut json = String::new();
        write!(
            json,
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted.max(1),
            self.failed
        )
        .expect("writing to a String cannot fail");
        for (i, (name, unit)) in table.iter().enumerate() {
            let value = self.metrics.iter().find(|(n, _)| n == name).map_or(0.0, |m| m.1);
            let value = if value.is_finite() { value } else { 0.0 };
            if i > 0 {
                json.push_str(", ");
            }
            write!(json, "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
                .expect("writing to a String cannot fail");
        }
        json.push_str("}}");
        println!("{json}");
    }
}

/// Median of a non-empty sample.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolation quantile of a non-empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}
