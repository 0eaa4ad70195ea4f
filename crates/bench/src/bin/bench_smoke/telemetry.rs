//! The telemetry plane on the serving hot path (`BENCH_telemetry.json`,
//! `BENCH_trace.json`).
//!
//! Serves 8 deterministic pixel streams over one shared pool twice per
//! rep — telemetry disabled, then fully enabled (metrics registry plus
//! one span per pool worker per job) — and gates the enabled best-of
//! wall time at `TEL_TOLERANCE`× the disabled one on ≥ 4-core hosts. A
//! 2-core x86-64 host only reports it: there, with telemetry off on both
//! sides, 10 runs spread 0.91–1.11. The observe-only contract holds
//! everywhere: both summaries are byte-identical in every rep. Artifacts:
//!
//! * `BENCH_telemetry.json` — the overhead measurement plus the full
//!   versioned telemetry snapshot of the enabled run, embedded;
//! * `BENCH_trace.json` — the enabled run's Chrome trace export (open
//!   in `chrome://tracing` or <https://ui.perfetto.dev>).

use std::time::{Duration, Instant};

use fgqos_encoder::app::EncoderApp;
use fgqos_graph::iterate::IterationMode;
use fgqos_serve::{PacedSource, ServerConfig, StreamSpec};
use fgqos_sim::runner::RunConfig;
use fgqos_sim::runtime::ExecBackend;
use fgqos_sim::scenario::LoadScenario;
use fgqos_telemetry::json::{parse, JsonObj, JsonValue};

use crate::harness::{ms, ratio, ratios_enforced, twins, Section, H, W};

const TEL_FRAMES: usize = 10;
const TEL_STREAMS: usize = 8;
/// Timed repetitions per mode, interleaved disabled/enabled so neither
/// side systematically inherits warm caches; best-of sheds scheduler
/// noise.
const TEL_REPS: usize = 5;
/// Full telemetry may cost at most this factor of the disabled run.
const TEL_TOLERANCE: f64 = 1.05;

fn spec(i: usize) -> StreamSpec {
    let mb = (W / 16) * (H / 16);
    StreamSpec::builder(format!("t{i}"))
        .priority(1)
        .seed(80 + i as u64)
        .config(
            RunConfig::paper_defaults()
                .scaled_to_macroblocks(mb)
                .with_iteration_mode(IterationMode::Pipelined),
        )
        .source(PacedSource::new(
            LoadScenario::paper_benchmark(80 + i as u64).truncated(TEL_FRAMES),
        ))
        .build()
}

/// What an enabled serve exports.
struct Exports {
    snapshot: String,
    trace: String,
    spans_dropped: u64,
}

/// One timed serve; returns its wall time, its report summary and, when
/// `telemetry` is on, its exports.
fn serve_once(telemetry: bool) -> (Duration, (String, Option<Exports>)) {
    let server = ServerConfig::new(4)
        .capacity(1e6)
        .telemetry(telemetry)
        .build();
    let mut session = server.session(
        |scn, spec: &StreamSpec| EncoderApp::new(scn, W, H, spec.seed),
        |spec: &StreamSpec| Box::new(EncoderApp::work_backend(spec.seed)) as Box<dyn ExecBackend>,
    );
    for i in 0..TEL_STREAMS {
        session.attach(spec(i)).expect("attach");
    }
    let start = Instant::now();
    session.run_to_completion().expect("telemetry serve");
    let wall = start.elapsed();
    let report = session.finish();
    let exports = telemetry.then(|| {
        let spans = server.telemetry().spans();
        Exports {
            snapshot: report.snapshot().to_json(),
            trace: spans.to_chrome_trace(),
            spans_dropped: spans.dropped(),
        }
    });
    (wall, (report.summary(), exports))
}

pub fn run(cores: usize) -> Section {
    let (mut off_summaries, mut on_summaries) = (Vec::new(), Vec::new());
    let ((best_off, ()), (best_on, exports)) = twins(
        TEL_REPS,
        || {
            let (wall, (summary, _)) = serve_once(false);
            off_summaries.push(summary);
            (wall, ())
        },
        || {
            let (wall, (summary, exports)) = serve_once(true);
            on_summaries.push(summary);
            (wall, exports.expect("enabled run exports"))
        },
    );
    let identical = off_summaries == on_summaries;
    let overhead = ratio(best_on, best_off);

    // The wall-ratio gate needs real parallelism (and an unloaded core
    // per worker) to sit in the noise band; the byte-identity gate is
    // structural and enforced everywhere.
    let ratio_enforced = ratios_enforced(cores);
    let pass = identical && (!ratio_enforced || overhead <= TEL_TOLERANCE);
    let json = JsonObj::new()
        .str(
            "workload",
            &format!(
                "{TEL_STREAMS} pixel streams {W}x{H}, {TEL_FRAMES} frames each, \
                 telemetry on vs off, best-of-{TEL_REPS}"
            ),
        )
        .int("host_cores", cores as u64)
        .fixed("disabled_wall_ms", ms(best_off), 3)
        .fixed("enabled_wall_ms", ms(best_on), 3)
        .fixed("ratio", overhead, 3)
        .set("tolerance", JsonValue::Float(TEL_TOLERANCE))
        .bool("summaries_identical", identical)
        .int("spans_dropped", exports.spans_dropped)
        .set(
            "snapshot",
            parse(&exports.snapshot).expect("snapshot JSON parses"),
        )
        .obj(
            "gate",
            JsonObj::new()
                .bool("ratio_enforced", ratio_enforced)
                .bool("pass", pass),
        )
        .build()
        .pretty();

    let mut failures = Vec::new();
    if !identical {
        failures.push("enabling telemetry changed the serve report".to_string());
    }
    if ratio_enforced && overhead > TEL_TOLERANCE {
        failures.push(format!(
            "telemetry overhead ratio {overhead:.3} exceeds {TEL_TOLERANCE}"
        ));
    }
    let notes = if ratio_enforced {
        Vec::new()
    } else {
        vec!["<4 cores available; telemetry overhead gate reported but not enforced".to_string()]
    };
    Section {
        file: "BENCH_telemetry.json",
        json,
        artifacts: vec![("BENCH_trace.json", exports.trace)],
        failures,
        notes,
    }
}
