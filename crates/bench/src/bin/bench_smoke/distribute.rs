//! The output plane (`BENCH_distribute.json`): publish cost must be flat
//! in the subscriber count, and the publisher must never stall on a
//! subscriber. The wall-ratio gate needs real parallelism to be
//! meaningful; the zero-stall and exact-delivery gates are structural
//! and enforced everywhere.

use std::time::{Duration, Instant};

use fgqos_encoder::app::EncoderApp;
use fgqos_graph::iterate::IterationMode;
use fgqos_serve::{
    Broadcast, Delivery, EncodedFrame, PacedSource, RingConfig, ServerConfig, StreamSpec,
};
use fgqos_sim::runner::RunConfig;
use fgqos_sim::runtime::ExecBackend;
use fgqos_sim::scenario::LoadScenario;
use fgqos_telemetry::json::{JsonObj, JsonValue};
use fgqos_time::Cycles;

use crate::harness::{best_of, ms, ratio, ratios_enforced, Section, FRAMES, H, REPS, W};

/// Output-plane shapes: 4 pixel streams with M subscribers attached to
/// each. Publishing is O(1) in M — serving with 64 subscribers per
/// stream must cost within `DIST_TOLERANCE` of serving with 1.
const DIST_STREAMS: usize = 4;
const DIST_SUBS_LO: usize = 1;
const DIST_SUBS_HI: usize = 64;
const DIST_TOLERANCE: f64 = 1.3;
/// Publishes per rep of the direct ring micro-benchmark.
const DIST_MICRO_PUBLISHES: u64 = 50_000;

struct DistRun {
    wall: Duration,
    published: u64,
    stalls: u64,
    delivered: u64,
    lag_gaps: u64,
}

fn dist_spec(i: usize) -> StreamSpec {
    let mb = (W / 16) * (H / 16);
    StreamSpec::builder(format!("d{i}"))
        .priority(1)
        .seed(60 + i as u64)
        .config(
            RunConfig::paper_defaults()
                .scaled_to_macroblocks(mb)
                .with_iteration_mode(IterationMode::Pipelined),
        )
        .source(PacedSource::new(
            LoadScenario::paper_benchmark(60 + i as u64).truncated(FRAMES),
        ))
        .build()
}

/// Serves `DIST_STREAMS` pixel streams with `subs_per_stream`
/// subscribers attached to each; only the serve loop (= the publish
/// path) is timed, subscribers drain after the run. Best-of-`REPS`
/// wall time; stalls are summed over every rep (the gate is zero in
/// *any* rep), delivery counts come from the last rep (deterministic).
fn time_distribute(subs_per_stream: usize) -> DistRun {
    let mut out = DistRun {
        wall: Duration::MAX,
        published: 0,
        stalls: 0,
        delivered: 0,
        lag_gaps: 0,
    };
    for _ in 0..REPS {
        let server = ServerConfig::new(4).capacity(1e6).build();
        let mut session = server.session(
            |scn, spec: &StreamSpec| EncoderApp::new(scn, W, H, spec.seed),
            |spec: &StreamSpec| {
                Box::new(EncoderApp::work_backend(spec.seed)) as Box<dyn ExecBackend>
            },
        );
        let mut subs = Vec::new();
        for i in 0..DIST_STREAMS {
            session.attach(dist_spec(i)).expect("attach");
            for _ in 0..subs_per_stream {
                subs.push(session.subscribe(&format!("d{i}")).expect("subscribe"));
            }
        }
        let start = Instant::now();
        session.run_to_completion().expect("distribute serve");
        let wall = start.elapsed();
        let report = session.finish();
        let (mut published, mut stalls) = (0u64, 0u64);
        for o in report.outcomes() {
            let p = o
                .publish
                .as_ref()
                .expect("subscribed streams have publish stats");
            assert_eq!(p.subscribers, subs_per_stream as u64);
            published += p.published;
            stalls += p.publisher_stalls;
        }
        let (mut delivered, mut lag_gaps) = (0u64, 0u64);
        for s in &mut subs {
            delivered += s
                .drain()
                .iter()
                .filter(|d| matches!(d, Delivery::Frame(_)))
                .count() as u64;
            lag_gaps += s.lag_gaps();
        }
        out.wall = out.wall.min(wall);
        out.published = published;
        out.stalls += stalls;
        out.delivered = delivered;
        out.lag_gaps = lag_gaps;
    }
    out
}

/// Direct ring micro-benchmark: ns per publish into a [`Broadcast`]
/// with `m` attached subscribers (none consuming — the publisher's
/// cost must not depend on them, keeping up or not).
fn micro_publish_ns(m: usize) -> f64 {
    let bc = Broadcast::new(RingConfig::frames(64));
    let _subs: Vec<_> = (0..m).map(|_| bc.subscribe()).collect();
    let t = best_of(REPS, || {
        for i in 0..DIST_MICRO_PUBLISHES {
            bc.publish(EncodedFrame {
                frame: i as usize,
                timestamp: Cycles::new(i),
                mean_quality: 1.0,
                keyframe: i.is_multiple_of(12),
                qp: 12,
                macroblock_streams: Vec::new(),
            });
        }
    });
    t.as_secs_f64() * 1e9 / DIST_MICRO_PUBLISHES as f64
}

pub fn run(cores: usize) -> Section {
    let d_lo = time_distribute(DIST_SUBS_LO);
    let d_hi = time_distribute(DIST_SUBS_HI);
    let dist_ratio = ratio(d_hi.wall, d_lo.wall);
    let micro_lo = micro_publish_ns(DIST_SUBS_LO);
    let micro_hi = micro_publish_ns(DIST_SUBS_HI);
    let micro_ratio = micro_hi / micro_lo.max(1e-9);
    let dist_stalls = d_lo.stalls + d_hi.stalls;
    let dist_exact = d_lo.delivered == d_lo.published * DIST_SUBS_LO as u64
        && d_hi.delivered == d_hi.published * DIST_SUBS_HI as u64
        && d_lo.lag_gaps == 0
        && d_hi.lag_gaps == 0;
    let ratio_enforced = ratios_enforced(cores);
    let pass = (!ratio_enforced || dist_ratio <= DIST_TOLERANCE) && dist_stalls == 0 && dist_exact;
    let serve_entry = |d: &DistRun| {
        JsonObj::new()
            .fixed("wall_ms", ms(d.wall), 3)
            .int("published", d.published)
            .int("delivered", d.delivered)
            .int("lag_gaps", d.lag_gaps)
            .int("publisher_stalls", d.stalls)
    };
    let json = JsonObj::new()
        .str(
            "workload",
            &format!(
                "{DIST_STREAMS} pixel streams {W}x{H}, {FRAMES} frames each, broadcast fan-out"
            ),
        )
        .int("host_cores", cores as u64)
        .obj(
            "serve",
            JsonObj::new()
                .obj(&format!("m{DIST_SUBS_LO}"), serve_entry(&d_lo))
                .obj(&format!("m{DIST_SUBS_HI}"), serve_entry(&d_hi))
                .fixed(
                    &format!("wall_ratio_m{DIST_SUBS_HI}_vs_m{DIST_SUBS_LO}"),
                    dist_ratio,
                    3,
                )
                .set("tolerance", JsonValue::Float(DIST_TOLERANCE)),
        )
        .obj(
            "micro_publish",
            JsonObj::new()
                .fixed(&format!("ns_per_publish_m{DIST_SUBS_LO}"), micro_lo, 1)
                .fixed(&format!("ns_per_publish_m{DIST_SUBS_HI}"), micro_hi, 1)
                .fixed("ratio", micro_ratio, 3),
        )
        .bool("delivery_exact", dist_exact)
        .obj(
            "gate",
            JsonObj::new()
                .bool("ratio_enforced", ratio_enforced)
                .bool("pass", pass),
        )
        .build()
        .pretty();
    let failures = if pass {
        Vec::new()
    } else {
        vec![format!(
            "output plane lost a gate (wall ratio {dist_ratio:.3} at {DIST_SUBS_HI} \
             subscribers vs tolerance {DIST_TOLERANCE}, publisher stalls {dist_stalls}, \
             delivery_exact {dist_exact})"
        )]
    };
    Section {
        file: "BENCH_distribute.json",
        json,
        failures,
        ..Section::default()
    }
}
