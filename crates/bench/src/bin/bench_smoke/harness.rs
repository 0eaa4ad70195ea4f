//! What every `bench_smoke` section shares: the pixel workload shape,
//! best-of timing, and the [`Section`] each one reports.

use std::time::{Duration, Instant};

/// Pixel workload shape: 8×6 macroblocks is enough wavefront width for
/// 4 workers while keeping the smoke run in seconds.
pub const W: usize = 128;
pub const H: usize = 96;
pub const FRAMES: usize = 12;
/// Timed repetitions per configuration (best-of to shed scheduler noise).
pub const REPS: usize = 3;

/// One section's output: the JSON file it writes and the gates it lost.
pub struct Section {
    /// File name under the output directory (`BENCH_*.json`).
    pub file: &'static str,
    pub json: String,
    /// One message per lost gate; empty when the section passed.
    pub failures: Vec<String>,
    /// Reported-not-enforced remarks (printed, never fatal).
    pub notes: Vec<String>,
}

/// Best-of-`reps` wall time of `f`.
pub fn best_of(reps: usize, mut f: impl FnMut()) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..reps {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed());
    }
    best
}

/// `num / den`, guarded against a zero denominator.
pub fn ratio(num: Duration, den: Duration) -> f64 {
    num.as_secs_f64() / den.as_secs_f64().max(1e-9)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn fps(frames: usize, d: Duration) -> f64 {
    frames as f64 / d.as_secs_f64().max(1e-9)
}

/// The shared deterministic pseudo-random stream (LCG, high bits).
pub fn lcg(seed: &mut u64) -> u64 {
    *seed = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *seed >> 33
}

/// Whether speedup ratios are enforced on this host: they need real
/// parallelism to mean anything.
pub fn ratios_enforced(cores: usize) -> bool {
    cores >= 4
}
