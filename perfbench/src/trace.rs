//! Bench-side spans: one lane per thread, exported as a Chrome trace
//! (opens in Perfetto), plus the self-time table derived from them.

use std::path::PathBuf;
use std::time::Instant;

use fgqos_telemetry::{SpanRecorder, DEFAULT_SPAN_CAPACITY};

use crate::stats::self_times;

thread_local! {
    /// This thread's lane: pool worker `w` (threads named
    /// `fgqos-pool-{w}`) records on lane `w`; every other thread —
    /// the coordinator, which is also pool worker 0 — on lane 0.
    static LANE: usize = std::thread::current()
        .name()
        .and_then(|n| n.strip_prefix("fgqos-pool-"))
        .and_then(|w| w.parse().ok())
        .unwrap_or(0);
}

/// The calling thread's span lane.
#[must_use]
pub fn lane() -> usize {
    LANE.with(|l| *l)
}

/// Where traces are written, relative to the directory the benchmark
/// runs from.
const OUT_DIR: &str = ".bench_out";

/// A span recorder with one lane per thread of a `workers`-wide pool.
pub struct Spans {
    rec: SpanRecorder,
}

impl Spans {
    /// Lanes for a pool of `workers` (the coordinator shares lane 0 with
    /// pool worker 0, which it is).
    #[must_use]
    pub fn new(workers: usize) -> Self {
        Spans {
            rec: SpanRecorder::new(workers.max(1), DEFAULT_SPAN_CAPACITY),
        }
    }

    /// Closes a span begun at `started` on the calling thread's lane.
    pub fn record(&self, name: &'static str, started: Instant) {
        self.rec.record(lane(), name, "perfbench", Some(started));
    }

    /// Spans that did not fit their lane.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.rec.dropped()
    }

    /// Writes the Chrome trace and returns the lines describing it: the
    /// file, and total/self time per span name.
    #[must_use]
    pub fn export(&self, workload: &str) -> Vec<String> {
        let mut lines = Vec::new();
        let path = PathBuf::from(OUT_DIR).join(format!("{workload}.trace.json"));
        let written = std::fs::create_dir_all(OUT_DIR)
            .and_then(|()| std::fs::write(&path, self.rec.to_chrome_trace()));
        match written {
            Ok(()) => lines.push(format!(
                "trace: {} ({} spans dropped by full lanes)",
                path.display(),
                self.dropped()
            )),
            Err(e) => lines.push(format!("trace: not written ({e})")),
        }
        lines.push("span self time (total ms / self ms / count):".into());
        for (name, t) in self_times(&self.rec.events()) {
            lines.push(format!(
                "  {name:<10} {:>10.3} {:>10.3} {:>8}",
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6,
                t.count
            ));
        }
        lines
    }
}
