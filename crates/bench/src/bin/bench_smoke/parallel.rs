//! The parallel runner against the sequential baseline on the
//! deterministic pixel workload (`BENCH_parallel.json`).

use std::time::{Duration, Instant};

use fgqos_core::policy::MaxQuality;
use fgqos_encoder::app::EncoderApp;
use fgqos_graph::iterate::IterationMode;
use fgqos_sim::app::VideoApp;
use fgqos_sim::runner::{Mode, RunConfig, Runner, StreamResult};
use fgqos_sim::runtime::{MeasuredBackend, VirtualClock, WallClock};
use fgqos_sim::scenario::LoadScenario;
use fgqos_telemetry::json::{JsonObj, JsonValue};

use crate::harness::{fps, ms, ratio, ratios_enforced, Section, FRAMES, H, REPS, W};

fn pixel_runner(seed: u64) -> Runner<EncoderApp> {
    let scenario = LoadScenario::paper_benchmark(seed).truncated(FRAMES);
    let app = EncoderApp::new(scenario, W, H, seed).expect("app");
    let n = app.iterations();
    let config = RunConfig::paper_defaults()
        .scaled_to_macroblocks(n)
        .with_iteration_mode(IterationMode::Pipelined);
    Runner::new(app, config).expect("runner")
}

/// Best-of-`REPS` wall time of a full deterministic pixel run; returns
/// the result of the last run for series checks.
fn time_pixel(workers: Option<usize>) -> (Duration, StreamResult) {
    let mut best = Duration::MAX;
    let mut last = None;
    for _ in 0..REPS {
        let mut r = pixel_runner(7);
        let mut clock = VirtualClock::new();
        let mut backend = EncoderApp::work_backend(7);
        let start = Instant::now();
        let res = match workers {
            None => r
                .run_on(
                    &mut clock,
                    &mut backend,
                    Mode::Controlled,
                    &mut MaxQuality::new(),
                    None,
                )
                .expect("sequential run"),
            Some(w) => r
                .run_parallel_on(
                    &mut clock,
                    &mut backend,
                    Mode::Controlled,
                    &mut MaxQuality::new(),
                    None,
                    w,
                )
                .expect("parallel run"),
        };
        best = best.min(start.elapsed());
        last = Some(res);
    }
    (best, last.expect("ran at least once"))
}

/// Live smoke on the measured backend: a wall clock scaled so the camera
/// is saturating, workers at the host width. Reported, not gated (wall
/// results depend on the runner's host).
fn live_measured(workers: usize) -> (Duration, StreamResult) {
    let mut r = pixel_runner(11);
    let n = r.app().iterations();
    let period = RunConfig::paper_defaults().scaled_to_macroblocks(n).period;
    // 2 ms per frame: far below the encode cost of a debug-or-release
    // host, so the pipeline never idles and wall time measures compute.
    let mut clock = WallClock::scaled(period, Duration::from_millis(2));
    let mut backend = MeasuredBackend::new();
    let start = Instant::now();
    let res = r
        .run_parallel_on(
            &mut clock,
            &mut backend,
            Mode::Controlled,
            &mut MaxQuality::new(),
            None,
            workers,
        )
        .expect("live run");
    (start.elapsed(), res)
}

pub fn run(cores: usize) -> Section {
    let (t_seq, seq_res) = time_pixel(None);
    let mut entries: Vec<JsonValue> = Vec::new();
    let mut speedup_at_4 = f64::NAN;
    let mut deterministic = true;
    for w in [1usize, 2, 4] {
        let (t, res) = time_pixel(Some(w));
        let speedup = ratio(t_seq, t);
        if w == 4 {
            speedup_at_4 = speedup;
        }
        deterministic &= res.frames() == seq_res.frames();
        entries.push(
            JsonObj::new()
                .int("workers", w as u64)
                .fixed("wall_ms", ms(t), 3)
                .fixed("frames_per_sec", fps(FRAMES, t), 2)
                .fixed("speedup_vs_sequential", speedup, 3)
                .build(),
        );
    }
    let (t_live, live_res) = live_measured(cores.min(4));
    let gate_enforced = ratios_enforced(cores);
    let gate_pass = !gate_enforced || speedup_at_4 >= 1.0;

    let json = JsonObj::new()
        .str(
            "workload",
            &format!("pixel {W}x{H}, {FRAMES} frames, pipelined wavefront"),
        )
        .int("host_cores", cores as u64)
        .fixed("sequential_wall_ms", ms(t_seq), 3)
        .fixed("sequential_frames_per_sec", fps(FRAMES, t_seq), 2)
        .fixed("mean_encode_mcycles", seq_res.mean_encode_mcycles(), 3)
        .bool("deterministic_vs_sequential", deterministic)
        .arr("parallel", entries)
        .obj(
            "live_measured",
            JsonObj::new()
                .int("workers", cores.min(4) as u64)
                .fixed("wall_ms", ms(t_live), 3)
                .fixed("frames_per_sec", fps(FRAMES, t_live), 2)
                .int("skips", live_res.skips() as u64),
        )
        .obj(
            "gate",
            JsonObj::new()
                .bool("enforced", gate_enforced)
                .fixed(
                    "speedup_at_4_workers",
                    if speedup_at_4.is_nan() {
                        0.0
                    } else {
                        speedup_at_4
                    },
                    3,
                )
                .bool("pass", gate_pass),
        )
        .build()
        .pretty();

    let mut failures = Vec::new();
    if !deterministic {
        failures.push("parallel series diverged from sequential".to_string());
    }
    if !gate_pass {
        failures.push(format!(
            "parallel runner slower than sequential at 4 workers \
             (speedup {speedup_at_4:.3}) on a {cores}-core host"
        ));
    }
    let notes = if gate_enforced {
        Vec::new()
    } else {
        vec!["<4 cores available; speedup gate reported but not enforced".to_string()]
    };
    Section {
        file: "BENCH_parallel.json",
        json,
        failures,
        notes,
        ..Section::default()
    }
}
