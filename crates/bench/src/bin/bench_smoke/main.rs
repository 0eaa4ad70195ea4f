//! CI perf smoke: the one bin that gates identity and ratio contracts.
//! Speed numbers come from `perfbench`; this bin writes machine-readable
//! `BENCH_*.json` files (uploaded as CI artifacts) and fails when
//!
//! * `parallel` — the parallel runner is *slower* than sequential at 4
//!   workers on a host that actually has ≥ 4 cores, or its series
//!   diverges from the sequential run;
//! * `tables` — the parametric table path loses to per-budget rebuilds
//!   or to cached tables, decides differently from them, builds more
//!   than one envelope set per served stream, or an adaptive
//!   (estimator-driven) run costs more than 1.5× its static twin;
//! * `kernels` — the LUT DCT fails to beat the `cos()`-per-multiply
//!   reference by 2×, or any encoder kernel (DCT, motion search on
//!   interior and border macroblocks, `Compress`) differs from its
//!   original form by one bit;
//! * `distribute` — the output plane's publish cost is not flat in the
//!   subscriber count, the publisher stalls, or a frame is lost;
//! * `channel` — the channel-sourced controller loses a safety or
//!   overhead gate across a bandwidth cliff;
//! * `serve` — shared-pool serving is slower than sequential or the
//!   resident pool slower than a fresh pool per tick (both on ≥ 4-core
//!   hosts), or a served stream differs from its solo run, or the
//!   resident pool, the spawn-per-call pool and `StreamServer` disagree,
//!   or the pool's fork rule is broken (table-app ticks fork, or
//!   99-macroblock pixel ticks stay on the caller);
//! * `telemetry` — full telemetry costs more than 1.05× serving without
//!   it (enforced on ≥ 4 cores, reported below), or changes the report.
//!
//! One module per section, each returning [`harness::Section`]s.
//!
//! Usage: `bench_smoke [out_dir]` (default `.`, created if missing).
//! Exit code 1 on gate failure or determinism violation.

mod channel;
mod distribute;
mod harness;
mod kernels;
mod parallel;
mod serve;
mod tables;
mod telemetry;

fn main() {
    let out_dir = std::env::args().nth(1).unwrap_or_else(|| ".".into());
    // Made before any section runs, so a bad path fails in the first
    // second rather than after every section's results are in.
    std::fs::create_dir_all(&out_dir).unwrap_or_else(|e| panic!("create {out_dir}: {e}"));
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    let sections = [
        parallel::run(cores),
        tables::run(),
        kernels::run(),
        distribute::run(cores),
        channel::run(),
        serve::run(cores),
        telemetry::run(cores),
    ];

    let write = |file: &str, body: &str| {
        std::fs::write(format!("{out_dir}/{file}"), body)
            .unwrap_or_else(|e| panic!("write {file}: {e}"));
    };
    for s in &sections {
        write(s.file, &s.json);
        for (file, body) in &s.artifacts {
            write(file, body);
        }
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
