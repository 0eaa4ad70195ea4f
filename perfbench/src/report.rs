//! The metric catalogue and the result every run prints.
//!
//! The names and units here are the ones `BENCHMARK.json` lists; the
//! runner script checks the two agree on every run.

use std::collections::BTreeMap;

/// One reported metric: name and unit.
pub type MetricDef = (&'static str, &'static str);

/// End-to-end metrics, reported by every untraced run.
pub const END_TO_END: &[MetricDef] = &[
    ("frames_per_s", "1/s"),
    ("frame_p50_us", "us"),
    ("frame_p99_us", "us"),
    ("psnr_db", "dB"),
    ("served_frac", "fraction"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, reported by every traced run. A workload that does
/// not measure one reports 0 for it and names it in its output.
pub const PER_LAYER: &[MetricDef] = &[
    ("serve.overhead_us_per_tick", "us"),
    ("serve.next_tick_time_ns", "ns"),
    ("serve.attach_us", "us"),
    ("serve.detach_us", "us"),
    ("serve.snapshot_us", "us"),
    ("serve.frames_per_tick", "count"),
    ("sim.prepare_us_per_frame", "us"),
    ("sim.commit_us_per_frame", "us"),
    ("sim.spec_hit_frac", "fraction"),
    ("core.fallback_frac", "fraction"),
    ("sched.table_lookups_per_frame", "count"),
    ("sched.envelope_builds", "count"),
    ("sched.full_table_builds", "count"),
    ("sched.cached_tables", "count"),
    ("pool.run_dag_us_per_tick", "us"),
    ("pool.busy_frac", "fraction"),
    ("pool.overhead_ns_per_task", "ns"),
    ("pool.tasks_per_tick", "count"),
    ("pool.steals_per_tick", "count"),
    ("pool.parks_per_tick", "count"),
    ("pool.phase1_speedup", "x"),
    ("pool.work_over_span", "x"),
    ("encoder.grab_ns", "ns"),
    ("encoder.me_ns", "ns"),
    ("encoder.dct_ns", "ns"),
    ("encoder.quant_ns", "ns"),
    ("encoder.intra_ns", "ns"),
    ("encoder.compress_ns", "ns"),
    ("encoder.iquant_ns", "ns"),
    ("encoder.idct_ns", "ns"),
    ("encoder.recon_ns", "ns"),
    ("distribute.publish_ns", "ns"),
    ("distribute.deliver_ns", "ns"),
    ("distribute.lagged_frames", "count"),
    ("telemetry.spans_dropped", "count"),
    ("trace.slowdown", "x"),
];

/// The outcome of one benchmark run.
#[derive(Debug)]
pub struct Report {
    workload: &'static str,
    traced: bool,
    correct: bool,
    attempted: u64,
    failed: u64,
    /// A check failed that taints every frame (a reference mismatch).
    all_failed: bool,
    values: BTreeMap<&'static str, f64>,
    lines: Vec<String>,
}

impl Report {
    /// An empty, so far correct report.
    #[must_use]
    pub fn new(workload: &'static str, traced: bool) -> Self {
        Report {
            workload,
            traced,
            correct: true,
            attempted: 0,
            failed: 0,
            all_failed: false,
            values: BTreeMap::new(),
            lines: Vec::new(),
        }
    }

    fn catalogue(&self) -> &'static [MetricDef] {
        if self.traced {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// Records a metric of this run's catalogue.
    ///
    /// # Panics
    ///
    /// Panics on a name outside the catalogue: a typo in the benchmark.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            self.catalogue().iter().any(|&(n, _)| n == name),
            "metric {name} is not in the catalogue"
        );
        self.values.insert(name, value);
    }

    /// Adds frames offered and frames failed.
    pub fn count(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Adds a line to the human-readable output.
    pub fn note(&mut self, line: impl Into<String>) {
        self.lines.push(line.into());
    }

    /// Marks the run incorrect, saying why.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.correct = false;
        self.lines.push(format!("CHECK FAILED: {}", why.into()));
    }

    /// Marks the run incorrect and `frames` more frames failed: the
    /// frames whose output did not match.
    pub fn fail_frames(&mut self, why: impl Into<String>, frames: u64) {
        self.fail(why);
        self.failed += frames;
    }

    /// Marks the run incorrect and every frame failed.
    pub fn fail_all(&mut self, why: impl Into<String>) {
        self.fail(why);
        self.all_failed = true;
    }

    /// Whether every check passed so far.
    #[cfg(test)]
    #[must_use]
    pub fn is_correct(&self) -> bool {
        self.correct
    }

    /// Prints the human-readable lines, every metric with its unit, and
    /// the JSON result as the last line. `served_frac` is derived here
    /// from the frames offered and failed, digest mismatches included.
    pub fn print(mut self) {
        if self.all_failed {
            self.failed = self.attempted;
        }
        self.failed = self.failed.min(self.attempted);
        if !self.traced {
            let served = 1.0 - crate::stats::ratio(self.failed as f64, self.attempted as f64);
            self.set("served_frac", served);
        }
        let mut unused = Vec::new();
        for &(name, _) in self.catalogue() {
            if !self.values.contains_key(name) {
                unused.push(name);
            }
        }
        if self.attempted == 0 {
            self.fail("no frames were offered");
        }
        if let Some((name, v)) = self.values.iter().find(|(_, v)| !v.is_finite()) {
            let why = format!("{name} is not finite ({v})");
            self.fail(why);
        }
        for line in &self.lines {
            println!("{line}");
        }
        let kind = if self.traced {
            "per-layer"
        } else {
            "end-to-end"
        };
        println!("{} {kind} metrics:", self.workload);
        let mut json = Vec::new();
        for &(name, unit) in self.catalogue() {
            let v = self.values.get(name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            println!("  {name} = {v} {unit}");
            json.push(format!(
                "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        if !unused.is_empty() {
            println!(
                "  (reported as 0, not measured on {}: {})",
                self.workload,
                unused.join(", ")
            );
        }
        println!(
            "verdict: {} ({} frames offered, {} failed)",
            if self.correct { "correct" } else { "INCORRECT" },
            self.attempted,
            self.failed
        );
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            json.join(", ")
        );
    }
}

/// Peak resident set size of this process (`VmHWM`) in MiB, or 0 where
/// `/proc` is unavailable.
#[must_use]
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
