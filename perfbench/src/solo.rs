//! `table_solo`: the paper's Fig. 6 run — one controlled 1,584-macroblock
//! table stream for 582 frames on a single thread. Table queries and
//! controller decisions do almost all the work; pool, serve layer,
//! kernels and output plane do none.

use std::time::{Duration, Instant};

use fgqos_core::estimator::AvgEstimator;
use fgqos_core::policy::{Choice, MaxQuality, PolicyCtx, QualityPolicy};
use fgqos_sim::app::TableApp;
use fgqos_sim::exec::StochasticLoad;
use fgqos_sim::runner::{Mode, RunConfig, Runner, StreamResult};
use fgqos_sim::runtime::{ModelBackend, VirtualClock};
use fgqos_sim::scenario::LoadScenario;
use fgqos_telemetry::Telemetry;

use crate::report::{peak_rss_mib, Report};
use crate::stats::{median, ratio, tail, Digest, FrameTally};
use crate::trace::Spans;
use crate::{check_reference, timed_passes, Args, BoxError};

const WORKLOAD: &str = "table_solo";

/// [`MaxQuality`] that stamps the wall time at which each frame's
/// decisions start — the only per-frame hook `Runner::run_on` exposes.
#[derive(Default)]
struct FrameClock {
    inner: MaxQuality,
    starts: Vec<Instant>,
}

impl QualityPolicy for FrameClock {
    fn choose(&mut self, ctx: &PolicyCtx<'_>) -> Choice {
        self.inner.choose(ctx)
    }

    fn on_cycle_start(&mut self) {
        self.starts.push(Instant::now());
        self.inner.on_cycle_start();
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Everything a run needs, built before the first frame.
struct Stream {
    runner: Runner<TableApp>,
    clock: VirtualClock,
    backend: ModelBackend<StochasticLoad>,
    setup: Duration,
}

fn build(seed: u64) -> Result<Stream, BoxError> {
    let t0 = Instant::now();
    let app = TableApp::paper_scale(LoadScenario::paper_benchmark(seed))?;
    let runner = Runner::new(app, RunConfig::paper_defaults())?;
    Ok(Stream {
        runner,
        clock: VirtualClock::new(),
        backend: ModelBackend::new(StochasticLoad::new(seed)),
        setup: t0.elapsed(),
    })
}

/// One `run_on` of the whole stream.
struct Pass {
    setup: Duration,
    frames_per_s: f64,
    /// Wall time of each frame: from its decisions' start to the next
    /// frame's (the last one: to the end of the run).
    frame_us: Vec<f64>,
    tally: FrameTally,
    digest: u64,
}

fn digest_of(result: &StreamResult) -> u64 {
    let mut d = Digest::default();
    d.result(result);
    d.finish()
}

fn run_on_pass(seed: u64) -> Result<Pass, BoxError> {
    let mut s = build(seed)?;
    let mut policy = FrameClock::default();
    let t0 = Instant::now();
    let result = s.runner.run_on(
        &mut s.clock,
        &mut s.backend,
        Mode::Controlled,
        &mut policy,
        None,
    )?;
    let end = Instant::now();
    let mut frame_us: Vec<f64> = policy
        .starts
        .windows(2)
        .map(|w| (w[1] - w[0]).as_secs_f64() * 1e6)
        .collect();
    if let Some(&last) = policy.starts.last() {
        frame_us.push((end - last).as_secs_f64() * 1e6);
    }
    let mut tally = FrameTally::default();
    tally.add_result(&result);
    Ok(Pass {
        setup: s.setup,
        frames_per_s: tally.committed as f64 / (end - t0).as_secs_f64(),
        frame_us,
        tally,
        digest: digest_of(&result),
    })
}

/// Checks every pass reproduced the first one, failing the frames of
/// those that did not; returns the first digest.
fn consistent_digest(report: &mut Report, digests: &[u64], frames: u64) -> u64 {
    for &d in &digests[1..] {
        if d != digests[0] {
            report.fail_frames(
                format!(
                    "a pass digest {d:016x} differs from the first {:016x}",
                    digests[0]
                ),
                frames,
            );
        }
    }
    digests[0]
}

pub fn run(args: &Args) -> Result<Report, BoxError> {
    if args.trace {
        return run_traced(args);
    }
    let mut report = Report::new(WORKLOAD, false);
    let passes = timed_passes(args.seconds, 3, |_| run_on_pass(args.seed))?;
    let digests: Vec<u64> = passes.iter().map(|p| p.digest).collect();
    let digest = consistent_digest(&mut report, &digests, passes[0].tally.offered);
    check_reference(&mut report, WORKLOAD, args.seed, digest);
    let mut frame_us = Vec::new();
    for p in &passes {
        report.count(p.tally.offered, p.tally.failed);
        frame_us.extend_from_slice(&p.frame_us);
    }
    let tally = passes[0].tally;
    let fps: Vec<f64> = passes.iter().map(|p| p.frames_per_s).collect();
    let setup: Vec<f64> = passes.iter().map(|p| p.setup.as_secs_f64()).collect();
    report.note(format!(
        "{} passes of 582 frames x 1584 macroblocks, 1 thread",
        passes.len()
    ));
    report.note(format!("frames/s per pass: {fps:.1?}"));
    report.set("frames_per_s", median(&fps));
    let t = tail(&frame_us).ok_or("too few frames for a latency percentile")?;
    report.note(format!(
        "frame time: p50 and p{} over {} frames",
        t.tail_pct, t.samples
    ));
    report.set("frame_p50_us", t.p50);
    report.set("frame_p99_us", t.tail);
    report.set("psnr_db", tally.psnr_db());
    report.set("setup_s", median(&setup));
    report.set("peak_rss_mib", peak_rss_mib());
    Ok(report)
}

/// The traced run: the same stream stepped on the caller thread with
/// phase 1 skipped, which splits the per-frame work into `prepare`
/// (budget, table query, controller set-up) and `commit` (the decision
/// loop). Its digest must equal `run_on`'s.
struct SteppedPass {
    frames: u64,
    prepare: Duration,
    commit: Duration,
    frames_per_s: f64,
    decisions: u64,
    fallbacks: u64,
    table_lookups: u64,
    envelope_builds: u64,
    full_table_builds: u64,
    cached_tables: usize,
    digest: u64,
}

fn stepped_pass(seed: u64, spans: Option<&Spans>) -> Result<SteppedPass, BoxError> {
    let mut s = build(seed)?;
    let telemetry = Telemetry::new();
    s.runner.set_telemetry(&telemetry);
    let mut policy = MaxQuality::new();
    let mut est: Option<&mut dyn AvgEstimator> = None;
    let mut st = s.runner.start_parallel(Mode::Controlled)?;
    let (mut prepare, mut commit, mut frames) = (Duration::ZERO, Duration::ZERO, 0u64);
    let t_run = Instant::now();
    loop {
        let t0 = Instant::now();
        let more = s
            .runner
            .next_parallel_frame(&mut st, &mut s.clock, &mut policy, &mut est)?;
        prepare += t0.elapsed();
        if let Some(spans) = spans {
            spans.record("prepare", t0);
        }
        if !more {
            break;
        }
        frames += 1;
        let t1 = Instant::now();
        s.runner.commit_parallel_frame(
            &mut st,
            &mut s.clock,
            &mut s.backend,
            &mut policy,
            &mut est,
        )?;
        commit += t1.elapsed();
        if let Some(spans) = spans {
            spans.record("commit", t1);
        }
    }
    let wall = t_run.elapsed();
    let result = s.runner.finish_parallel(st, policy.name());
    let snap = telemetry.snapshot();
    let counter = |name: &str| snap.counter(name).unwrap_or(0);
    Ok(SteppedPass {
        frames,
        prepare,
        commit,
        frames_per_s: frames as f64 / wall.as_secs_f64(),
        decisions: counter("controller.decisions"),
        fallbacks: counter("controller.fallbacks"),
        table_lookups: counter("sched.table_lookups"),
        envelope_builds: s.runner.envelope_builds(),
        full_table_builds: s.runner.full_table_builds(),
        cached_tables: s.runner.cached_tables(),
        digest: digest_of(&result),
    })
}

fn run_traced(args: &Args) -> Result<Report, BoxError> {
    let mut report = Report::new(WORKLOAD, true);
    let spans = Spans::new(1);
    let passes = timed_passes(args.seconds, 2, |i| {
        let plain = run_on_pass(args.seed)?;
        let stepped = stepped_pass(args.seed, (i == 0).then_some(&spans))?;
        Ok((plain, stepped))
    })?;
    let digests: Vec<u64> = passes
        .iter()
        .flat_map(|(p, s)| [p.digest, s.digest])
        .collect();
    let digest = consistent_digest(&mut report, &digests, passes[0].0.tally.offered);
    check_reference(&mut report, WORKLOAD, args.seed, digest);
    report.note(format!(
        "{} pass pairs: run_on (untraced) then stepped with phase 1 skipped (traced); \
         stepped digest checked against run_on's",
        passes.len()
    ));
    for (p, _) in &passes {
        report.count(p.tally.offered, p.tally.failed);
    }
    let sum = |f: fn(&SteppedPass) -> f64| passes.iter().map(|(_, s)| f(s)).sum::<f64>();
    let frames = sum(|s| s.frames as f64);
    let last = &passes.last().expect("at least two passes").1;
    report.set(
        "sim.prepare_us_per_frame",
        sum(|s| s.prepare.as_secs_f64()) * 1e6 / frames,
    );
    report.set(
        "sim.commit_us_per_frame",
        sum(|s| s.commit.as_secs_f64()) * 1e6 / frames,
    );
    // The paper's controller overhead. Only this workload isolates it,
    // and it is not in the gated set (see README), so it is printed, not
    // reported as a metric.
    report.note(format!(
        "controller decision cost: {:.1} ns per decision (commit time over {} decisions)",
        sum(|s| s.commit.as_secs_f64()) * 1e9 / sum(|s| s.decisions as f64),
        sum(|s| s.decisions as f64)
    ));
    report.set(
        "core.fallback_frac",
        ratio(sum(|s| s.fallbacks as f64), sum(|s| s.decisions as f64)),
    );
    report.set(
        "sched.table_lookups_per_frame",
        sum(|s| s.table_lookups as f64) / frames,
    );
    report.set("sched.envelope_builds", last.envelope_builds as f64);
    report.set("sched.full_table_builds", last.full_table_builds as f64);
    report.set("sched.cached_tables", last.cached_tables as f64);
    let plain: Vec<f64> = passes.iter().map(|(p, _)| p.frames_per_s).collect();
    let traced: Vec<f64> = passes.iter().map(|(_, s)| s.frames_per_s).collect();
    report.set("trace.slowdown", median(&plain) / median(&traced));
    report.note(format!(
        "tracing overhead: run_on {:.1} frames/s untraced vs {:.1} stepped and traced",
        median(&plain),
        median(&traced)
    ));
    for line in spans.export(WORKLOAD) {
        report.note(line);
    }
    Ok(report)
}
