//! The repository benchmark: three deterministic workloads over the
//! serving stack, timed from outside through the crates' public calls.
//!
//! ```text
//! perfbench --workload <pixel_serve|table_churn|table_solo> --seed N \
//!           --seconds S --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` runs the
//! traced variant and prints the per-layer metrics. The last line of
//! standard output is the JSON result. See `README.md` next to this
//! crate for the workloads, the metrics and which layer moves which
//! end-to-end number.

mod churn;
mod pixel;
mod report;
mod solo;
mod stats;
mod trace;

use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Errors bubbling out of a workload: any library error, or a message.
pub type BoxError = Box<dyn std::error::Error>;

/// Parsed command line.
#[derive(Debug)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement time.
    pub seconds: Duration,
    /// Traced (per-layer) run.
    pub trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <pixel_serve|table_churn|table_solo> \
                     --seed N --seconds S --trace <0|1>";

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let bad = || format!("bad value {value:?} for {flag}");
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
                "--seconds" => {
                    let s = value.parse::<f64>().map_err(|_| bad())?;
                    if !(s.is_finite() && s > 0.0) {
                        return Err(bad());
                    }
                    seconds = Some(Duration::from_secs_f64(s));
                }
                "--trace" => match value.as_str() {
                    "0" => trace = Some(false),
                    "1" => trace = Some(true),
                    _ => return Err(bad()),
                },
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

/// Runs passes of a workload until the measurement time is used up:
/// always at least `min_passes`, and never starts a pass after the
/// deadline.
pub fn timed_passes<T>(
    seconds: Duration,
    min_passes: usize,
    mut pass: impl FnMut(usize) -> Result<T, BoxError>,
) -> Result<Vec<T>, BoxError> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < min_passes || start.elapsed() < seconds {
        out.push(pass(out.len())?);
    }
    Ok(out)
}

/// Mixes a workload seed with a stream index into an independent seed
/// (SplitMix64 finaliser).
#[must_use]
pub fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_add(i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Checks a digest against the recorded reference for this workload and
/// seed, when one was recorded.
pub fn check_reference(report: &mut report::Report, workload: &str, seed: u64, digest: u64) {
    match REFERENCE_DIGESTS
        .iter()
        .find(|&&(w, s, _)| w == workload && s == seed)
    {
        Some(&(_, _, expected)) if expected == digest => {
            report.note(format!(
                "digest {digest:016x} matches the reference for seed {seed}"
            ));
        }
        Some(&(_, _, expected)) => report.fail_all(format!(
            "digest {digest:016x} differs from the reference {expected:016x} for seed {seed}"
        )),
        None => report.note(format!(
            "digest {digest:016x} (no reference for seed {seed})"
        )),
    }
}

/// Output digests recorded at the commit that introduced the benchmark:
/// the default seed (1) and one held-out seed (7) per workload.
const REFERENCE_DIGESTS: &[(&str, u64, u64)] = &[
    ("pixel_serve", 1, 0x334397704e1dfaf9),
    ("pixel_serve", 7, 0x1fec0dafe64678f9),
    ("table_churn", 1, 0x4182bb0dd6a619c0),
    ("table_churn", 7, 0x8b95df02acfc9eab),
    ("table_solo", 1, 0xe14713b2932aa6c9),
    ("table_solo", 7, 0x06b6b9d732157831),
];

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "pixel_serve" => pixel::run(&args),
        "table_churn" => churn::run(&args),
        "table_solo" => solo::run(&args),
        other => {
            eprintln!("unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(report) => {
            report.print();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{} failed: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args("--workload table_solo --seed 3 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, "table_solo");
        assert_eq!(a.seed, 3);
        assert_eq!(a.seconds, Duration::from_secs(10));
        assert!(a.trace);
        assert!(args("--workload x --seed 3 --seconds 10").is_err());
        assert!(args("--workload x --seed 3 --seconds 0 --trace 0").is_err());
        assert!(args("--workload x --seed -1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload x --seed 1 --seconds 1 --trace 2").is_err());
    }

    #[test]
    fn mixed_seeds_are_distinct_and_stable() {
        assert_eq!(mix(1, 0), mix(1, 0));
        assert_ne!(mix(1, 0), mix(1, 1));
        assert_ne!(mix(1, 0), mix(2, 0));
    }
}
