//! CI perf smoke: measures the parallel runner against the sequential
//! baseline, the controller hot path, the budget-parametric table path
//! (including estimator-driven refresh runs), the vectorized encoder
//! kernels, the output plane and the network-coupled budget seam, writes
//! machine-readable `BENCH_parallel.json` / `BENCH_controller.json` /
//! `BENCH_tables.json` / `BENCH_kernels.json` / `BENCH_distribute.json`
//! / `BENCH_channel.json` (uploaded as CI artifacts to seed the perf
//! trajectory), and fails when the parallel runner is *slower* than
//! sequential at ≥ 4 workers on a host that actually has ≥ 4 cores,
//! when the parametric table path loses to per-budget rebuilds or to
//! cached tables, when an adaptive (estimator-driven) run costs more
//! than 1.5× its static twin, when the LUT DCT fails to beat the
//! `cos()`-per-multiply reference by 2×, when any encoder kernel (DCT,
//! motion search on interior and border macroblocks, `Compress`) differs
//! from its original form by one bit, when the output plane stalls or
//! loses a frame, or when the channel-sourced controller loses a safety
//! or overhead gate across a bandwidth cliff.
//!
//! One module per section (`parallel`, `tables`, `kernels`,
//! `distribute`, `channel`), each returning [`harness::Section`]s.
//!
//! Usage: `bench_smoke [out_dir]` (default `.`). Exit code 1 on gate
//! failure or determinism violation.

mod channel;
mod distribute;
mod harness;
mod kernels;
mod parallel;
mod tables;

fn main() {
    let out_dir = std::env::args().nth(1).unwrap_or_else(|| ".".into());
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    let mut sections = parallel::run(cores);
    sections.push(tables::run());
    sections.push(kernels::run());
    sections.push(distribute::run(cores));
    sections.push(channel::run());

    for s in &sections {
        std::fs::write(format!("{out_dir}/{}", s.file), &s.json)
            .unwrap_or_else(|e| panic!("write {}: {e}", s.file));
    }
    let jsons: Vec<&str> = sections.iter().map(|s| s.json.as_str()).collect();
    print!("{}", jsons.join("\n"));

    let mut failed = false;
    for s in &sections {
        for f in &s.failures {
            eprintln!("FAIL: {f}");
            failed = true;
        }
        for n in &s.notes {
            eprintln!("note: {n}");
        }
    }
    if failed {
        std::process::exit(1);
    }
}
