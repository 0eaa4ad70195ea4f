//! `table_churn`: a seeded churn storm of timing-only table streams on
//! one session with the telemetry registry on. Per-tick serve
//! bookkeeping dominates — the ready-time scan over every slot, the DAG
//! merge rebuilt whenever the due set changes, dispatch of near-empty
//! kernel tasks — next to admission, both table paths (half the streams
//! draw moving channel budgets, half stay deadline-only) and the
//! telemetry plane. Kernels do almost nothing.

use std::time::{Duration, Instant};

use fgqos_serve::{
    stochastic_backends, table_apps, ChurnAction, ChurnEvent, ChurnStorm, ServeReport,
    ServerConfig, StreamServer, StreamSession,
};
use fgqos_sim::app::TableApp;
use fgqos_sim::budget::{BudgetSpec, ChannelParams};
use fgqos_sim::runner::RunConfig;
use fgqos_telemetry::{Counter, TelemetrySnapshot};
use fgqos_time::Cycles;

use crate::report::{peak_rss_mib, Report};
use crate::stats::{median, ratio, tail, Digest, FrameTally};
use crate::trace::Spans;
use crate::{check_reference, timed_passes, Args, BoxError};

const WORKLOAD: &str = "table_churn";
const WORKERS: usize = 2;
const MACROBLOCKS: usize = 8;

/// Size of the storm.
#[derive(Debug, Clone, Copy)]
pub struct Storm {
    /// Streams arriving by the Poisson process.
    pub arrivals: usize,
    /// Streams of the flash crowd, on top of the arrivals.
    pub flash_crowd: usize,
    /// Admission capacity in cores.
    pub capacity: f64,
}

/// The benchmark's storm: 1,000 arrivals with a mean gap of
/// [`INTERARRIVAL_PERIODS`], so several hundred streams are offered at
/// once; capacity for about 220 of them at full quality, so streams are
/// parked and re-admitted all along.
pub const FULL: Storm = Storm {
    arrivals: 1000,
    flash_crowd: 60,
    capacity: 300.0,
};

/// Mean inter-arrival time in camera periods.
const INTERARRIVAL_PERIODS: f64 = 0.06;
/// Channel band of the streams with moving budgets, in cycles. The floor
/// stays above the worst-case cost of an 8-macroblock frame at the lowest
/// quality (1.408 Mcycle), so the controller can always meet the grant;
/// the cap sits above the 1.616 Mcycle period, so the grant binds only
/// part of the time.
const CHANNEL_FLOOR: u64 = 1_450_000;
const CHANNEL_CAP: u64 = 1_900_000;
/// The benchmark polls the telemetry snapshot every this many ticks,
/// like an operator dashboard.
const SNAPSHOT_EVERY: u64 = 64;

/// The storm for `seed`, shifted so its first event is at t = 0, with
/// every other attached stream drawing channel budgets. The flash crowd
/// lands within one camera period instead of at one instant: each of
/// its streams keeps a frame phase of its own, so the per-frame latency
/// tail measures serving, not how many crowd streams happened to share a
/// tick.
fn script(size: &Storm, seed: u64) -> Vec<ChurnEvent> {
    let storm = ChurnStorm {
        arrivals: size.arrivals,
        flash_crowd: size.flash_crowd,
        mean_interarrival_periods: INTERARRIVAL_PERIODS,
        macroblocks: MACROBLOCKS,
        ..ChurnStorm::paper_default(seed)
    };
    let period = RunConfig::paper_defaults()
        .scaled_to_macroblocks(MACROBLOCKS)
        .period
        .get();
    let mut events = storm.events();
    let origin = events.first().map_or(Cycles::ZERO, |e| e.at);
    let mut attaches = 0usize;
    for e in &mut events {
        e.at = e.at - origin;
        if let ChurnAction::Attach(spec) = &mut e.action {
            // Streams are named `storm-<i>`; the crowd follows the arrivals.
            let i: usize = spec.name["storm-".len()..]
                .parse()
                .expect("storm stream name");
            if let Some(k) = i.checked_sub(size.arrivals) {
                e.at += Cycles::new(period * k as u64 / size.flash_crowd as u64);
            }
            if attaches % 2 == 1 {
                spec.config.budget = BudgetSpec::Channel(ChannelParams::steady(
                    CHANNEL_FLOOR,
                    CHANNEL_CAP,
                    spec.seed,
                ));
            }
            attaches += 1;
        }
    }
    events.sort_by_key(|e| e.at);
    events
}

fn server(size: &Storm) -> StreamServer {
    ServerConfig::new(WORKERS)
        .capacity(size.capacity)
        .telemetry(true)
        .build()
}

/// Digest of everything the session decided: per-stream outcomes with
/// their frame records, the admission sequence and lifecycle counters.
/// Also tallies the frames: a stream that never ran fails all its
/// frames, unless the script detached it while it was still parked — a
/// client that left the queue withdrew, and offered nothing.
fn digest_report(report: &ServeReport) -> (u64, FrameTally) {
    let mut d = Digest::default();
    let mut tally = FrameTally::default();
    for o in report.outcomes() {
        d.str(&o.name);
        d.u64(u64::from(o.priority));
        d.decision(o.decision);
        d.u64(o.frames as u64);
        d.u64(u64::from(o.detached));
        d.u64(u64::from(o.readmissions));
        d.u64(o.envelope_builds);
        d.u64(o.table_builds);
        match &o.result {
            Some(r) => {
                d.result(r);
                tally.add_result(r);
            }
            None => {
                d.u64(u64::MAX);
                if o.detached {
                    tally.withdrawn += 1;
                } else {
                    tally.add_refused(o.frames);
                }
            }
        }
    }
    d.admission(report.admission());
    (d.finish(), tally)
}

/// The reference: the same events through `StreamSession::run_script`.
fn reference_digest(size: &Storm, seed: u64) -> Result<u64, BoxError> {
    let server = server(size);
    let mut session = server.session(table_apps(MACROBLOCKS), stochastic_backends());
    session.run_script(script(size, seed))?;
    session.run_to_completion()?;
    Ok(digest_report(&session.finish()).0)
}

/// Time spent in, and calls of, one public entry point.
#[derive(Debug, Clone, Copy, Default)]
struct Calls {
    time: Duration,
    n: u64,
}

impl Calls {
    fn add(&mut self, d: Duration) {
        self.time += d;
        self.n += 1;
    }

    fn mean(&self, scale: f64) -> f64 {
        ratio(self.time.as_secs_f64() * scale, self.n as f64)
    }
}

/// One drive of the script.
struct Pass {
    setup: Duration,
    wall: Duration,
    ticks: u64,
    /// Per committed frame: wall time of the step that prepared it.
    frame_us: Vec<f64>,
    tally: FrameTally,
    digest: u64,
    scan: Calls,
    attach: Calls,
    detach: Calls,
    snapshot: Calls,
    registry: TelemetrySnapshot,
    spans_dropped: u64,
    /// Running streams, sampled at every snapshot poll.
    live: Vec<usize>,
    /// Streams still parked when the storm had drained (never expected).
    parked_at_end: usize,
}

/// The stepping loop: `next_tick_time` / `step` around one-event
/// `run_script` calls, with every step timed. `spans` turns on the
/// traced variant, which also times the ready-time scans and records
/// every call.
struct Stepper<'s, 'a> {
    session: StreamSession<'a, TableApp>,
    spans: Option<&'s Spans>,
    /// The registry's committed-frame counter.
    committed: Counter,
    frame_us: Vec<f64>,
    ticks: u64,
    scan: Calls,
    attach: Calls,
    detach: Calls,
    snapshot: Calls,
    live: Vec<usize>,
}

impl Stepper<'_, '_> {
    fn record(&self, name: &'static str, t: Instant) {
        if let Some(s) = self.spans {
            s.record(name, t);
        }
    }

    fn next_tick(&mut self) -> Option<Cycles> {
        if self.spans.is_none() {
            return self.session.next_tick_time();
        }
        let t = Instant::now();
        let next = self.session.next_tick_time();
        self.scan.add(t.elapsed());
        self.record("next_tick_time", t);
        next
    }

    fn step(&mut self) -> Result<(), BoxError> {
        let before = self.committed.get();
        let t = Instant::now();
        let ticked = self.session.step()?;
        let us = t.elapsed().as_secs_f64() * 1e6;
        self.record("step", t);
        for _ in before..self.committed.get() {
            self.frame_us.push(us);
        }
        if ticked {
            self.ticks += 1;
            if self.ticks.is_multiple_of(SNAPSHOT_EVERY) {
                let t = Instant::now();
                let snap = self.session.telemetry_snapshot();
                self.snapshot.add(t.elapsed());
                self.record("snapshot", t);
                std::hint::black_box(snap);
                self.live.push(self.session.running());
            }
        }
        Ok(())
    }

    /// Runs every tick before `event`, then fires it: `run_script`'s own
    /// loop, so the result must equal a `run_script` of the whole storm.
    fn fire(&mut self, event: ChurnEvent) -> Result<(), BoxError> {
        while let Some(t) = self.next_tick() {
            if t >= event.at {
                break;
            }
            self.step()?;
        }
        let is_attach = matches!(event.action, ChurnAction::Attach(_));
        let t = Instant::now();
        self.session.run_script(vec![event])?;
        if is_attach {
            self.attach.add(t.elapsed());
            self.record("attach", t);
        } else {
            self.detach.add(t.elapsed());
            self.record("detach", t);
        }
        Ok(())
    }
}

/// One drive of the script.
fn drive(size: &Storm, seed: u64, spans: Option<&Spans>) -> Result<Pass, BoxError> {
    let t_setup = Instant::now();
    let events = script(size, seed);
    let server = server(size);
    let mut d = Stepper {
        session: server.session(table_apps(MACROBLOCKS), stochastic_backends()),
        spans,
        committed: server.telemetry().counter("controller.frames"),
        frame_us: Vec::new(),
        ticks: 0,
        scan: Calls::default(),
        attach: Calls::default(),
        detach: Calls::default(),
        snapshot: Calls::default(),
        live: Vec::new(),
    };
    let setup = t_setup.elapsed();
    let t_run = Instant::now();
    for event in events {
        d.fire(event)?;
    }
    while d.next_tick().is_some() {
        d.step()?;
    }
    let wall = t_run.elapsed();

    let registry = d.session.telemetry_snapshot();
    let parked_at_end = d.session.waiting();
    let spans_dropped = server.telemetry().spans().dropped();
    let (digest, tally) = digest_report(&d.session.finish());
    Ok(Pass {
        setup,
        wall,
        ticks: d.ticks,
        frame_us: d.frame_us,
        tally,
        digest,
        scan: d.scan,
        attach: d.attach,
        detach: d.detach,
        snapshot: d.snapshot,
        registry,
        spans_dropped,
        live: d.live,
        parked_at_end,
    })
}

fn fps(p: &Pass) -> f64 {
    p.tally.committed as f64 / p.wall.as_secs_f64()
}

/// Checks every pass and the `run_script` reference agree; returns the
/// shared digest.
fn check_digests(
    report: &mut Report,
    size: &Storm,
    seed: u64,
    passes: &[&Pass],
) -> Result<u64, BoxError> {
    let reference = reference_digest(size, seed)?;
    for p in passes {
        if p.digest != reference {
            report.fail_frames(
                format!(
                    "stepping loop digest {:016x} differs from run_script's {reference:016x}",
                    p.digest
                ),
                p.tally.offered,
            );
        }
    }
    report.note(format!(
        "{} drives of the script; every digest checked against run_script",
        passes.len()
    ));
    check_reference(report, WORKLOAD, seed, reference);
    Ok(reference)
}

fn describe(report: &mut Report, p: &Pass) {
    if p.parked_at_end > 0 {
        report.fail(format!(
            "{} streams were still parked after the storm drained",
            p.parked_at_end
        ));
    }
    let c = |name: &str| p.registry.counter(name).unwrap_or(0);
    let live_mean = ratio(p.live.iter().sum::<usize>() as f64, p.live.len() as f64);
    let live_max = p.live.iter().copied().max().unwrap_or(0);
    report.note(format!(
        "live streams {live_mean:.0} on average, {live_max} at most; \
         {} streams withdrawn while parked; {} frames skipped, {} with a deadline miss",
        p.tally.withdrawn, p.tally.skipped, p.tally.missed
    ));
    report.note(format!(
        "{} streams attached, {} detached, {} re-admitted, {} upgraded; \
         {} admitted, {} degraded, {} rejected at the end; {} ticks, {} committed frames",
        c("lifecycle.attached"),
        c("lifecycle.detached"),
        c("lifecycle.readmitted"),
        c("lifecycle.upgraded"),
        c("admission.admitted"),
        c("admission.degraded"),
        c("admission.rejected"),
        p.ticks,
        p.tally.committed
    ));
}

pub fn run(args: &Args) -> Result<Report, BoxError> {
    if args.trace {
        return run_traced(args);
    }
    let mut report = Report::new(WORKLOAD, false);
    let passes = timed_passes(args.seconds, 3, |_| drive(&FULL, args.seed, None))?;
    check_digests(
        &mut report,
        &FULL,
        args.seed,
        &passes.iter().collect::<Vec<_>>(),
    )?;
    describe(&mut report, &passes[0]);
    let mut frame_us = Vec::new();
    for p in &passes {
        report.count(p.tally.offered, p.tally.failed);
        frame_us.extend_from_slice(&p.frame_us);
    }
    let tally = passes[0].tally;
    let rates: Vec<f64> = passes.iter().map(fps).collect();
    let setup: Vec<f64> = passes.iter().map(|p| p.setup.as_secs_f64()).collect();
    report.note(format!("frames/s per pass: {rates:.0?}"));
    report.set("frames_per_s", median(&rates));
    let t = tail(&frame_us).ok_or("too few frames for a latency percentile")?;
    report.note(format!(
        "frame latency (step that prepared it): p50 and p{} over {} frames",
        t.tail_pct, t.samples
    ));
    report.set("frame_p50_us", t.p50);
    report.set("frame_p99_us", t.tail);
    report.set("psnr_db", tally.psnr_db());
    report.set("setup_s", median(&setup));
    report.set("peak_rss_mib", peak_rss_mib());
    Ok(report)
}

fn run_traced(args: &Args) -> Result<Report, BoxError> {
    let mut report = Report::new(WORKLOAD, true);
    let spans = Spans::new(1);
    let pairs = timed_passes(args.seconds, 1, |i| {
        let plain = drive(&FULL, args.seed, None)?;
        let traced = drive(&FULL, args.seed, Some(&spans).filter(|_| i == 0))?;
        Ok((plain, traced))
    })?;
    let all: Vec<&Pass> = pairs.iter().flat_map(|(a, b)| [a, b]).collect();
    check_digests(&mut report, &FULL, args.seed, &all)?;
    let traced: Vec<&Pass> = pairs.iter().map(|(_, b)| b).collect();
    describe(&mut report, traced[0]);
    for p in &traced {
        report.count(p.tally.offered, p.tally.failed);
    }
    let total = |f: fn(&Pass) -> Calls| {
        traced.iter().fold(Calls::default(), |acc, p| {
            let c = f(p);
            Calls {
                time: acc.time + c.time,
                n: acc.n + c.n,
            }
        })
    };
    let reg = |name: &str| -> f64 {
        traced
            .iter()
            .map(|p| p.registry.counter(name).unwrap_or(0) as f64)
            .sum()
    };
    let ticks = reg("serve.ticks");
    let frames = reg("controller.frames");
    report.set("serve.next_tick_time_ns", total(|p| p.scan).mean(1e9));
    report.set("serve.attach_us", total(|p| p.attach).mean(1e6));
    report.set("serve.detach_us", total(|p| p.detach).mean(1e6));
    report.set("serve.snapshot_us", total(|p| p.snapshot).mean(1e6));
    report.set("serve.frames_per_tick", ratio(frames, ticks));
    report.set(
        "core.fallback_frac",
        ratio(reg("controller.fallbacks"), reg("controller.decisions")),
    );
    report.set(
        "sched.table_lookups_per_frame",
        ratio(reg("sched.table_lookups"), frames),
    );
    let n = traced.len() as f64;
    report.set("sched.envelope_builds", reg("sched.envelope_builds") / n);
    report.set(
        "sched.full_table_builds",
        reg("sched.full_table_builds") / n,
    );
    report.set("pool.tasks_per_tick", ratio(reg("pool.tasks"), ticks));
    report.set("pool.steals_per_tick", ratio(reg("pool.steals"), ticks));
    report.set("pool.parks_per_tick", ratio(reg("pool.parks"), ticks));
    report.set(
        "telemetry.spans_dropped",
        traced.iter().map(|p| p.spans_dropped as f64).sum::<f64>() / n,
    );
    let plain: Vec<f64> = pairs.iter().map(|(a, _)| fps(a)).collect();
    let timed: Vec<f64> = traced.iter().map(|p| fps(p)).collect();
    report.set("trace.slowdown", median(&plain) / median(&timed));
    report.note(format!(
        "tracing overhead: {:.0} frames/s untraced vs {:.0} traced",
        median(&plain),
        median(&timed)
    ));
    for line in spans.export(WORKLOAD) {
        report.note(line);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: Storm = Storm {
        arrivals: 40,
        flash_crowd: 8,
        capacity: 12.0,
    };

    #[test]
    fn stepping_loop_reproduces_run_script_and_itself() {
        let reference = reference_digest(&SMALL, 3).unwrap();
        let spans = Spans::new(1);
        let plain = drive(&SMALL, 3, None).unwrap();
        let traced = drive(&SMALL, 3, Some(&spans)).unwrap();
        assert_eq!(plain.digest, reference);
        assert_eq!(traced.digest, reference);
        assert_eq!(plain.frame_us.len() as u64, plain.tally.committed);
        // The small storm still parks and re-admits streams.
        assert!(plain.registry.counter("lifecycle.readmitted").unwrap_or(0) > 0);
        assert_eq!(plain.tally.failed, 0);
        assert_ne!(reference, reference_digest(&SMALL, 4).unwrap());
    }

    #[test]
    fn flash_crowd_lands_within_one_period_at_distinct_times() {
        let events = script(&SMALL, 5);
        assert_eq!(events[0].at, Cycles::ZERO);
        assert!(events.windows(2).all(|w| w[0].at <= w[1].at));
        let crowd: Vec<Cycles> = events
            .iter()
            .filter_map(|e| match &e.action {
                ChurnAction::Attach(spec)
                    if spec.name["storm-".len()..].parse::<usize>().unwrap() >= SMALL.arrivals =>
                {
                    Some(e.at)
                }
                _ => None,
            })
            .collect();
        assert_eq!(crowd.len(), SMALL.flash_crowd);
        let mut distinct = crowd.clone();
        distinct.dedup();
        assert_eq!(distinct.len(), crowd.len());
        let period = RunConfig::paper_defaults()
            .scaled_to_macroblocks(MACROBLOCKS)
            .period;
        assert!(crowd[crowd.len() - 1] - crowd[0] < period);
    }
}
