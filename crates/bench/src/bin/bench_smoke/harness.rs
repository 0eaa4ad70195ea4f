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
#[derive(Default)]
pub struct Section {
    /// File name under the output directory (`BENCH_*.json`).
    pub file: &'static str,
    /// Written to `file` and echoed on stdout.
    pub json: String,
    /// Further files written beside `file` but not echoed (the Chrome
    /// trace, too large for a log).
    pub artifacts: Vec<(&'static str, String)>,
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

/// Times the two sides of a ratio gate alternately, `first` then
/// `second` in every rep, so host drift lands on both sides alike
/// instead of on whichever side ran in the later block. Each side times
/// its own run (setup excluded) and returns it with an output; returns
/// each side's best time and its last rep's output.
pub fn twins<A, B>(
    reps: usize,
    mut first: impl FnMut() -> (Duration, A),
    mut second: impl FnMut() -> (Duration, B),
) -> ((Duration, A), (Duration, B)) {
    let (mut best_a, mut best_b) = (Duration::MAX, Duration::MAX);
    let (mut last_a, mut last_b) = (None, None);
    for _ in 0..reps {
        let (t, a) = first();
        best_a = best_a.min(t);
        last_a = Some(a);
        let (t, b) = second();
        best_b = best_b.min(t);
        last_b = Some(b);
    }
    let a = last_a.expect("at least one rep");
    let b = last_b.expect("at least one rep");
    ((best_a, a), (best_b, b))
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
