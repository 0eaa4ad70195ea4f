//! `pixel_serve`: eight pixel-encoder streams served by one session on a
//! two-worker pool, four subscribers each. Encoder kernels, pool
//! dispatch, the phase-2 commit and publish/deliver do most of the work.
//!
//! The traced run drives the same streams through a replica of the
//! session tick built on the public stepper seam, so every layer can be
//! timed from outside; the replica must reproduce the session's tick
//! count and output digest exactly.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use fgqos_core::policy::{MaxQuality, QualityPolicy};
use fgqos_encoder::app::EncoderApp;
use fgqos_graph::iterate::IterationMode;
use fgqos_graph::PrecedenceGraph;
use fgqos_serve::{
    AdmissionDecision, Broadcast, Delivery, PacedSource, RingConfig, ServerConfig, StreamSpec,
    Subscriber,
};
use fgqos_sim::app::VideoApp;
use fgqos_sim::exec::WorkDriven;
use fgqos_sim::runner::{Mode, ParallelStream, RunConfig, Runner, StreamResult};
use fgqos_sim::runtime::{ExecBackend, ModelBackend, ParallelApp, VirtualClock, WorkStealingPool};
use fgqos_sim::scenario::{FrameInfo, LoadScenario};
use fgqos_telemetry::{Histogram, Telemetry, TelemetrySnapshot};
use fgqos_time::{fig5, Cycles};

use crate::report::{peak_rss_mib, Report};
use crate::stats::{median, ratio, tail, Digest, FrameTally};
use crate::trace::Spans;
use crate::{check_reference, mix, timed_passes, Args, BoxError};

const WORKLOAD: &str = "pixel_serve";
const WORKERS: usize = 2;
/// Subscribers drained after every tick; one more per stream is drained
/// only every [`SLOW_EVERY`] of its stream's frames.
const FAST_SUBS: usize = 3;
const SLOW_EVERY: u64 = 16;
/// Output-ring retention: short, so the slow subscriber falls behind the
/// GOP-granular trimming and sees `Lagged(n)` gaps.
const RING_FRAMES: usize = 8;
/// Kernel spans are recorded for this many ticks of the first traced
/// kernel pass; every kernel still lands in the per-action histograms.
const KERNEL_SPAN_TICKS: u64 = 16;
/// The body actions of the Fig. 2 pipeline and their metric names.
const ACTIONS: [(&str, &str); 9] = [
    (fig5::names::GRAB, "encoder.grab_ns"),
    (fig5::names::MOTION_ESTIMATE, "encoder.me_ns"),
    (fig5::names::DCT, "encoder.dct_ns"),
    (fig5::names::QUANTIZE, "encoder.quant_ns"),
    (fig5::names::INTRA_PREDICT, "encoder.intra_ns"),
    (fig5::names::COMPRESS, "encoder.compress_ns"),
    (fig5::names::INVERSE_QUANTIZE, "encoder.iquant_ns"),
    (fig5::names::IDCT, "encoder.idct_ns"),
    (fig5::names::RECONSTRUCT, "encoder.recon_ns"),
];

/// Size of the workload.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Frame width in pixels (a multiple of 16).
    pub width: usize,
    /// Frame height in pixels (a multiple of 16).
    pub height: usize,
    /// Streams served together.
    pub streams: usize,
    /// Frames per stream (at least 17).
    pub frames: usize,
}

/// The benchmark's size: QCIF 176x144 (99 macroblocks), 8 streams of
/// 48 frames.
pub const FULL: Shape = Shape {
    width: 176,
    height: 144,
    streams: 8,
    frames: 48,
};

impl Shape {
    /// Stream `i`'s configuration: the paper's pressure per macroblock,
    /// pipelined iterations, and a camera period `i/97` longer than the
    /// first stream's. Distinct frame rates keep the streams' frames from
    /// falling due together after the first tick, as with cameras that
    /// are not genlocked.
    fn config(&self, i: usize) -> RunConfig {
        let base = RunConfig::paper_defaults()
            .scaled_to_macroblocks((self.width / 16) * (self.height / 16))
            .with_iteration_mode(IterationMode::Pipelined);
        let p = base.period.get();
        base.with_period(Cycles::new(p + p * i as u64 / 97))
    }
}

/// One generated stream.
struct Input {
    name: String,
    seed: u64,
    config: RunConfig,
    scenario: LoadScenario,
}

/// The streams for `seed`: stream `i` is a window of a
/// `paper_benchmark` scenario around its `i`-th scene cut, so every
/// stream crosses a keyframe (which trims the rings) and together they
/// visit both overload scenes.
fn inputs(shape: &Shape, seed: u64) -> Result<Vec<Input>, BoxError> {
    (0..shape.streams)
        .map(|i| {
            let s = mix(seed, i as u64);
            let frames: Vec<FrameInfo> = LoadScenario::paper_benchmark(s).iter().copied().collect();
            let cuts: Vec<usize> = (1..frames.len()).filter(|&f| frames[f].is_iframe).collect();
            let cut = cuts[i % cuts.len()];
            let lead = 8 + (s >> 32) as usize % (shape.frames - 16);
            let start = cut - lead;
            let first_scene = frames[start].scene;
            let window = frames[start..start + shape.frames]
                .iter()
                .enumerate()
                .map(|(k, f)| FrameInfo {
                    scene: f.scene - first_scene,
                    is_iframe: f.is_iframe || k == 0,
                    ..*f
                })
                .collect();
            Ok(Input {
                name: format!("cam{i}"),
                seed: s,
                config: shape.config(i),
                scenario: LoadScenario::from_frames(window)?,
            })
        })
        .collect()
}

/// Four subscribers per stream and the log of what they received.
struct Audience {
    subs: Vec<Vec<Subscriber>>,
    /// Frames each stream's fast subscribers received so far.
    seen: Vec<u64>,
    digest: Digest,
    /// Time inside `Subscriber::drain`.
    drain: Duration,
    /// Frame deliveries over all subscribers.
    delivered: u64,
}

impl Audience {
    fn new(subs: Vec<Vec<Subscriber>>) -> Self {
        Audience {
            seen: vec![0; subs.len()],
            subs,
            digest: Digest::default(),
            drain: Duration::ZERO,
            delivered: 0,
        }
    }

    /// Drains after a tick that started at `tick_start`: one latency
    /// sample per frame, taken once all its fast subscribers have it.
    fn deliver(&mut self, tick_start: Instant, frame_us: &mut Vec<f64>) {
        for i in 0..self.subs.len() {
            let t0 = Instant::now();
            let fast: Vec<Vec<Delivery>> = self.subs[i][..FAST_SUBS]
                .iter_mut()
                .map(Subscriber::drain)
                .collect();
            let done = Instant::now();
            self.drain += done - t0;
            let frames = fast[0]
                .iter()
                .filter(|d| matches!(d, Delivery::Frame(_)))
                .count() as u64;
            let us = (done - tick_start).as_secs_f64() * 1e6;
            frame_us.extend(std::iter::repeat_n(us, frames as usize));
            for (j, ds) in fast.iter().enumerate() {
                self.fold(i, j, ds);
            }
            let before = self.seen[i];
            self.seen[i] += frames;
            if self.seen[i] / SLOW_EVERY > before / SLOW_EVERY {
                let t = Instant::now();
                let ds = self.subs[i][FAST_SUBS].drain();
                self.drain += t.elapsed();
                self.fold(i, FAST_SUBS, &ds);
            }
        }
    }

    /// Drains what is left once every stream closed.
    fn close(&mut self) {
        for i in 0..self.subs.len() {
            for j in 0..self.subs[i].len() {
                let ds = self.subs[i][j].drain();
                self.fold(i, j, &ds);
            }
        }
    }

    fn fold(&mut self, stream: usize, sub: usize, deliveries: &[Delivery]) {
        let d = &mut self.digest;
        for delivery in deliveries {
            d.u64(stream as u64);
            d.u64(sub as u64);
            match delivery {
                Delivery::Frame(f) => {
                    self.delivered += 1;
                    d.u64(0);
                    d.u64(f.frame as u64);
                    d.u64(f.timestamp.get());
                    d.f64(f.mean_quality);
                    d.u64(u64::from(f.keyframe));
                    d.u64(u64::from(f.qp));
                    for mb in &f.macroblock_streams {
                        d.u64(mb.len() as u64);
                        d.bytes(mb);
                    }
                }
                Delivery::Lagged(n) => {
                    d.u64(1);
                    d.u64(*n);
                }
                Delivery::Empty | Delivery::Closed => {}
            }
        }
    }

    fn lagged_frames(&self) -> u64 {
        self.subs
            .iter()
            .flatten()
            .map(Subscriber::lagged_frames)
            .sum()
    }
}

/// The part of the digest the replica must reproduce: every stream's
/// frame records and everything its subscribers received.
fn streams_digest<'r>(results: impl Iterator<Item = &'r StreamResult>, audience: &Audience) -> u64 {
    let mut d = Digest::default();
    for r in results {
        d.result(r);
    }
    d.u64(audience.digest.finish());
    d.finish()
}

/// One session run.
struct SessionPass {
    setup: Duration,
    wall: Duration,
    step_us: Vec<f64>,
    frame_us: Vec<f64>,
    tally: FrameTally,
    /// Streams digest, then the full digest with admission folded in.
    streams: u64,
    digest: u64,
}

fn session_pass(
    shape: &Shape,
    inputs: &[Input],
    report: &mut Report,
) -> Result<SessionPass, BoxError> {
    let t_setup = Instant::now();
    let server = ServerConfig::new(WORKERS)
        .capacity(1e6)
        .ring(RingConfig::frames(RING_FRAMES))
        .build();
    let (w, h) = (shape.width, shape.height);
    let mut session = server.session(
        move |scn, spec: &StreamSpec| EncoderApp::new(scn, w, h, spec.seed),
        |spec: &StreamSpec| Box::new(EncoderApp::work_backend(spec.seed)) as Box<dyn ExecBackend>,
    );
    let mut subs = Vec::new();
    for input in inputs {
        let spec = StreamSpec::builder(input.name.clone())
            .priority(1)
            .seed(input.seed)
            .config(input.config)
            .source(PacedSource::new(input.scenario.clone()))
            .build();
        session.attach(spec)?;
        subs.push(
            (0..=FAST_SUBS)
                .map(|_| session.subscribe(&input.name))
                .collect::<Result<Vec<_>, _>>()?,
        );
    }
    let setup = t_setup.elapsed();

    let mut audience = Audience::new(subs);
    let (mut step_us, mut frame_us, mut warmup_us) = (Vec::new(), Vec::new(), Vec::new());
    let t_run = Instant::now();
    loop {
        let t0 = Instant::now();
        if !session.step()? {
            break;
        }
        step_us.push(t0.elapsed().as_secs_f64() * 1e6);
        // The first tick encodes every stream's first frame and builds
        // their tables: warm-up, kept out of the latency percentiles
        // (it still counts in frames_per_s).
        let samples = if step_us.len() == 1 {
            &mut warmup_us
        } else {
            &mut frame_us
        };
        audience.deliver(t0, samples);
    }
    let wall = t_run.elapsed();
    let served = session.finish();
    audience.close();

    let mut tally = FrameTally::default();
    for o in served.outcomes() {
        if o.decision != AdmissionDecision::Admit {
            report.fail(format!("{} was not admitted ({:?})", o.name, o.decision));
        }
        match &o.result {
            Some(r) => tally.add_result(r),
            None => tally.add_refused(o.frames),
        }
    }
    let streams = streams_digest(
        served.outcomes().iter().filter_map(|o| o.result.as_ref()),
        &audience,
    );
    let mut d = Digest::default();
    d.u64(streams);
    d.admission(served.admission());
    Ok(SessionPass {
        setup,
        wall,
        step_us,
        frame_us,
        tally,
        streams,
        digest: d.finish(),
    })
}

/// One stream of the replica: what a session slot holds.
struct Slot {
    runner: Runner<EncoderApp>,
    st: Option<ParallelStream>,
    clock: VirtualClock,
    backend: ModelBackend<WorkDriven>,
    policy: MaxQuality,
    out: Broadcast,
    result: Option<StreamResult>,
}

impl Slot {
    fn finish(&mut self) {
        if let Some(st) = self.st.take() {
            self.result = Some(self.runner.finish_parallel(st, self.policy.name()));
            self.out.close();
        }
    }
}

/// The merged phase-1 DAG of one due set, as the session builds it.
struct Merged {
    due: Vec<usize>,
    offsets: Vec<usize>,
    indegree: Vec<usize>,
    succs: Vec<Vec<usize>>,
}

/// Per-kernel instrumentation of the kernel pass.
struct KernelProbe {
    body_len: usize,
    /// Metric name of each body action.
    metrics: Vec<&'static str>,
    /// Kernel wall time by body action.
    hist: Vec<Histogram>,
    /// This tick's kernel wall time by merged task index.
    dur: Vec<AtomicU64>,
    work_ns: u64,
    span_ns: u64,
}

impl KernelProbe {
    fn new(body: &PrecedenceGraph) -> Self {
        let metrics = body
            .ids()
            .map(|a| {
                ACTIONS
                    .iter()
                    .find(|(name, _)| *name == body.name(a))
                    .map(|&(_, metric)| metric)
                    .expect("the encoder body is the Fig. 2 pipeline")
            })
            .collect();
        KernelProbe {
            body_len: body.len(),
            metrics,
            hist: (0..body.len()).map(|_| Histogram::standalone()).collect(),
            dur: Vec::new(),
            work_ns: 0,
            span_ns: 0,
        }
    }

    fn record(&self, task: usize, local: usize, started: Instant) {
        let ns = started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        self.hist[local % self.body_len].record(ns);
        self.dur[task].store(ns, Ordering::Relaxed);
    }

    /// Folds this tick's kernel work and critical path into the totals.
    fn close_tick(&mut self, m: &Merged) {
        let dur: Vec<u64> = self.dur.iter().map(|d| d.load(Ordering::Relaxed)).collect();
        self.work_ns += dur.iter().sum::<u64>();
        self.span_ns += critical_path(&m.indegree, &m.succs, &dur);
    }
}

/// Longest path through a DAG whose tasks take `dur`.
fn critical_path(indegree: &[usize], succs: &[Vec<usize>], dur: &[u64]) -> u64 {
    let mut pending = indegree.to_vec();
    let mut start = vec![0u64; pending.len()];
    let mut ready: Vec<usize> = (0..pending.len()).filter(|&i| pending[i] == 0).collect();
    let mut longest = 0;
    while let Some(i) = ready.pop() {
        let end = start[i] + dur[i];
        longest = longest.max(end);
        for &s in &succs[i] {
            start[s] = start[s].max(end);
            pending[s] -= 1;
            if pending[s] == 0 {
                ready.push(s);
            }
        }
    }
    longest
}

/// Layer times of one replica tick.
#[derive(Debug, Clone, Copy, Default)]
struct TickTimes {
    total: Duration,
    prepare: Duration,
    run_dag: Duration,
    commit: Duration,
    publish: Duration,
    frames: u64,
    tasks: u64,
}

impl TickTimes {
    fn layers(&self) -> Duration {
        self.prepare + self.run_dag + self.commit + self.publish
    }
}

/// A replica of `StreamSession::step` over the public stepper seam:
/// same departures-first order, same due set (minimum ready time), same
/// merged DAG, same commit and publish order.
struct Replica {
    slots: Vec<Slot>,
    merged: Option<Merged>,
    /// Time inside `Broadcast::publish`, and publishes.
    publish_call: Duration,
    publishes: u64,
    ticks: u64,
}

impl Replica {
    fn new(
        shape: &Shape,
        inputs: &[Input],
        telemetry: &Telemetry,
    ) -> Result<(Self, Vec<Vec<Subscriber>>), BoxError> {
        let mut slots = Vec::new();
        let mut subs = Vec::new();
        for input in inputs {
            let app = EncoderApp::new(
                input.scenario.clone(),
                shape.width,
                shape.height,
                input.seed,
            )?;
            let mut runner = Runner::new(app, input.config)?;
            runner.set_telemetry(telemetry);
            let st = runner.start_parallel(Mode::Controlled)?;
            let out = Broadcast::new(RingConfig::frames(RING_FRAMES));
            subs.push((0..=FAST_SUBS).map(|_| out.subscribe()).collect());
            slots.push(Slot {
                runner,
                st: Some(st),
                clock: VirtualClock::new(),
                backend: EncoderApp::work_backend(input.seed),
                policy: MaxQuality::new(),
                out,
                result: None,
            });
        }
        let replica = Replica {
            slots,
            merged: None,
            publish_call: Duration::ZERO,
            publishes: 0,
            ticks: 0,
        };
        Ok((replica, subs))
    }

    /// One tick; `None` once no stream is running.
    fn tick(
        &mut self,
        pool: &WorkStealingPool,
        mut probe: Option<&mut KernelProbe>,
        spans: Option<&Spans>,
    ) -> Result<Option<TickTimes>, BoxError> {
        let record = |name, t| {
            if let Some(s) = spans {
                s.record(name, t);
            }
        };
        let t_tick = Instant::now();
        let mut tt = TickTimes::default();
        for slot in &mut self.slots {
            if slot
                .st
                .as_ref()
                .is_some_and(|st| st.next_ready_time(&mut slot.clock).is_none())
            {
                slot.finish();
            }
        }
        let mut ready: Vec<(usize, Cycles)> = Vec::new();
        for (i, slot) in self.slots.iter_mut().enumerate() {
            if let Some(st) = &slot.st {
                let t = st
                    .next_ready_time(&mut slot.clock)
                    .expect("exhausted streams finished above");
                ready.push((i, t));
            }
        }
        let Some(t_min) = ready.iter().map(|&(_, t)| t).min() else {
            return Ok(None);
        };

        let t0 = Instant::now();
        let mut due = Vec::new();
        for &(i, t) in &ready {
            if t != t_min {
                continue;
            }
            let slot = &mut self.slots[i];
            let st = slot.st.as_mut().expect("ready slots are running");
            let more = slot.runner.next_parallel_frame(
                st,
                &mut slot.clock,
                &mut slot.policy,
                &mut None,
            )?;
            if more {
                due.push(i);
            } else {
                slot.finish();
            }
        }
        tt.prepare = t0.elapsed();
        record("prepare", t0);

        {
            let views: Vec<_> = due
                .iter()
                .map(|&i| {
                    let slot = &self.slots[i];
                    let st = slot.st.as_ref().expect("due slots are running");
                    slot.runner
                        .parallel_kernels(st)
                        .expect("frame just prepared")
                })
                .collect();
            if !views.is_empty() {
                if self.merged.as_ref().is_none_or(|m| m.due != due) {
                    let mut offsets = Vec::with_capacity(views.len());
                    let mut total = 0usize;
                    for v in &views {
                        offsets.push(total);
                        total += v.len();
                    }
                    let mut indegree = Vec::with_capacity(total);
                    let mut succs: Vec<Vec<usize>> = Vec::with_capacity(total);
                    for (v, &off) in views.iter().zip(&offsets) {
                        indegree.extend_from_slice(v.indegree());
                        for s in v.succs() {
                            succs.push(s.iter().map(|&x| x + off).collect());
                        }
                    }
                    self.merged = Some(Merged {
                        due: due.clone(),
                        offsets,
                        indegree,
                        succs,
                    });
                }
                let m = self.merged.as_ref().expect("merged DAG just ensured");
                tt.tasks = m.indegree.len() as u64;
                let locate = |g: usize| {
                    let vi = m.offsets.partition_point(|&o| o <= g) - 1;
                    (vi, g - m.offsets[vi])
                };
                let t1 = Instant::now();
                match probe.as_deref_mut() {
                    None => pool.run_dag(&m.indegree, &m.succs, |g| {
                        let (vi, local) = locate(g);
                        views[vi].run_kernel(local);
                    }),
                    Some(p) => {
                        p.dur.clear();
                        p.dur.resize_with(m.indegree.len(), AtomicU64::default);
                        let p = &*p;
                        let kernel_spans = spans.filter(|_| self.ticks < KERNEL_SPAN_TICKS);
                        pool.run_dag(&m.indegree, &m.succs, |g| {
                            let (vi, local) = locate(g);
                            let k0 = Instant::now();
                            views[vi].run_kernel(local);
                            p.record(g, local, k0);
                            if let Some(s) = kernel_spans {
                                s.record("kernel", k0);
                            }
                        });
                    }
                }
                tt.run_dag = t1.elapsed();
                record("run_dag", t1);
            }
        }

        for &i in &due {
            let slot = &mut self.slots[i];
            let st = slot.st.as_mut().expect("due slots are running");
            let t2 = Instant::now();
            let frame = st.pending_frame();
            slot.runner.commit_parallel_frame(
                st,
                &mut slot.clock,
                &mut slot.backend,
                &mut slot.policy,
                &mut None,
            )?;
            tt.commit += t2.elapsed();
            record("commit", t2);
            let t3 = Instant::now();
            let committed = frame
                .and_then(|f| st.record(f))
                .filter(|r| !r.skipped)
                .map(|r| (r.start + r.encode_cycles, r.mean_quality));
            if let Some((timestamp, quality)) = committed {
                if let Some(ef) = slot.runner.app_mut().encoded_output(timestamp, quality) {
                    let tp = Instant::now();
                    slot.out.publish(ef);
                    self.publish_call += tp.elapsed();
                    self.publishes += 1;
                }
            }
            tt.publish += t3.elapsed();
            record("publish", t3);
        }
        tt.frames = due.len() as u64;
        tt.total = t_tick.elapsed();
        record("tick", t_tick);
        if let (Some(p), Some(m)) = (probe, &self.merged) {
            if !due.is_empty() {
                p.close_tick(m);
            }
        }
        self.ticks += 1;
        Ok(Some(tt))
    }
}

/// One replica run.
struct ReplicaPass {
    wall: Duration,
    ticks: Vec<TickTimes>,
    streams: u64,
    frames: u64,
    drain: Duration,
    delivered: u64,
    lagged: u64,
    publish_call: Duration,
    publishes: u64,
    spec: (u64, u64),
    cached_tables: usize,
    registry: TelemetrySnapshot,
    kernels: Option<KernelProbe>,
}

impl ReplicaPass {
    fn total(&self, f: fn(&TickTimes) -> Duration) -> Duration {
        self.ticks.iter().map(f).sum()
    }

    fn frames_per_s(&self) -> f64 {
        self.frames as f64 / self.wall.as_secs_f64()
    }
}

fn replica_pass(
    shape: &Shape,
    inputs: &[Input],
    workers: usize,
    probe_kernels: bool,
    spans: Option<&Spans>,
) -> Result<ReplicaPass, BoxError> {
    let telemetry = Telemetry::new();
    let mut pool = WorkStealingPool::new(workers);
    let (mut replica, subs) = Replica::new(shape, inputs, &telemetry)?;
    let mut probe = probe_kernels.then(|| KernelProbe::new(replica.slots[0].runner.app().body()));
    if probe_kernels {
        pool.set_telemetry(&telemetry);
    }
    let mut audience = Audience::new(subs);
    let mut ticks = Vec::new();
    let mut frame_us = Vec::new();
    let t_run = Instant::now();
    loop {
        let t_tick = Instant::now();
        let Some(tt) = replica.tick(&pool, probe.as_mut(), spans)? else {
            break;
        };
        let t_deliver = Instant::now();
        audience.deliver(t_tick, &mut frame_us);
        if let Some(s) = spans {
            s.record("deliver", t_deliver);
        }
        ticks.push(tt);
    }
    let wall = t_run.elapsed();
    audience.close();
    let (mut hits, mut misses, mut cached_tables) = (0, 0, 0);
    for slot in &replica.slots {
        let (h, m) = slot.runner.speculation();
        hits += h;
        misses += m;
        cached_tables += slot.runner.cached_tables();
    }
    let streams = streams_digest(
        replica.slots.iter().filter_map(|s| s.result.as_ref()),
        &audience,
    );
    Ok(ReplicaPass {
        wall,
        frames: ticks.iter().map(|t| t.frames).sum(),
        ticks,
        streams,
        drain: audience.drain,
        delivered: audience.delivered,
        lagged: audience.lagged_frames(),
        publish_call: replica.publish_call,
        publishes: replica.publishes,
        spec: (hits, misses),
        cached_tables,
        registry: telemetry.snapshot(),
        kernels: probe,
    })
}

pub fn run(args: &Args) -> Result<Report, BoxError> {
    run_shape(args, &FULL)
}

fn run_shape(args: &Args, shape: &Shape) -> Result<Report, BoxError> {
    let inputs = inputs(shape, args.seed)?;
    if args.trace {
        return run_traced(args, shape, &inputs);
    }
    let mut report = Report::new(WORKLOAD, false);
    let passes = timed_passes(args.seconds, 3, |_| {
        session_pass(shape, &inputs, &mut report)
    })?;
    let digest = passes[0].digest;
    for p in &passes[1..] {
        if p.digest != digest {
            report.fail_frames(
                format!(
                    "a session pass digest {:016x} differs from the first",
                    p.digest
                ),
                p.tally.offered,
            );
        }
    }
    check_reference(&mut report, WORKLOAD, args.seed, digest);
    let mut frame_us = Vec::new();
    for p in &passes {
        report.count(p.tally.offered, p.tally.failed);
        frame_us.extend_from_slice(&p.frame_us);
    }
    let tally = passes[0].tally;
    let rates: Vec<f64> = passes
        .iter()
        .map(|p| p.tally.committed as f64 / p.wall.as_secs_f64())
        .collect();
    let setup: Vec<f64> = passes.iter().map(|p| p.setup.as_secs_f64()).collect();
    report.note(format!(
        "{} session passes: {} streams x {} frames at {}x{}, {} workers, {} subscribers each",
        passes.len(),
        shape.streams,
        shape.frames,
        shape.width,
        shape.height,
        WORKERS,
        FAST_SUBS + 1
    ));
    report.note(format!("frames/s per pass: {rates:.1?}"));
    report.set("frames_per_s", median(&rates));
    let t = tail(&frame_us).ok_or("too few frames for a latency percentile")?;
    report.note(format!(
        "frame latency (step start to fast-subscriber delivery, first tick of each pass \
         excluded as warm-up): p50 and p{} over {} frames",
        t.tail_pct, t.samples
    ));
    report.set("frame_p50_us", t.p50);
    report.set("frame_p99_us", t.tail);
    report.set("psnr_db", tally.psnr_db());
    report.set("setup_s", median(&setup));
    report.set("peak_rss_mib", peak_rss_mib());
    Ok(report)
}

/// Timer noise allowed when checking that a tick's layers fit in it.
const LAYER_SLACK: Duration = Duration::from_micros(2);

/// One traced cycle: the session (untraced), the replica timing layers
/// at 2 workers, the replica timing every kernel at 2 workers, and the
/// replica timing layers at 1 worker.
struct Cycle {
    session: SessionPass,
    layers: ReplicaPass,
    kernels: ReplicaPass,
    single: ReplicaPass,
}

fn run_traced(args: &Args, shape: &Shape, inputs: &[Input]) -> Result<Report, BoxError> {
    let mut report = Report::new(WORKLOAD, true);
    let spans = Spans::new(WORKERS);
    let cycles = timed_passes(args.seconds, 1, |i| {
        let first = (i == 0).then_some(&spans);
        Ok(Cycle {
            session: session_pass(shape, inputs, &mut report)?,
            layers: replica_pass(shape, inputs, WORKERS, false, first)?,
            kernels: replica_pass(shape, inputs, WORKERS, true, first)?,
            single: replica_pass(shape, inputs, 1, false, None)?,
        })
    })?;
    check_reference(&mut report, WORKLOAD, args.seed, cycles[0].session.digest);
    for c in &cycles {
        report.count(c.session.tally.offered, c.session.tally.failed);
        for (label, r) in [
            ("2-worker", &c.layers),
            ("kernel-timed", &c.kernels),
            ("1-worker", &c.single),
        ] {
            if r.streams != c.session.streams || r.ticks.len() != c.session.step_us.len() {
                report.fail_frames(format!(
                    "{label} replica diverged from the session: digest {:016x} vs {:016x}, {} vs {} ticks",
                    r.streams,
                    c.session.streams,
                    r.ticks.len(),
                    c.session.step_us.len()
                ), c.session.tally.offered);
            }
        }
        let over = c
            .layers
            .ticks
            .iter()
            .filter(|t| t.layers() > t.total + LAYER_SLACK)
            .count();
        if over > 0 {
            report.fail(format!("{over} ticks whose layer times exceed the tick"));
        }
    }
    report.note(format!(
        "{} traced cycles; the replica's digest and tick count checked against the \
         session at 2 workers, with kernel timing, and at 1 worker",
        cycles.len()
    ));

    let sum = |f: &dyn Fn(&Cycle) -> f64| cycles.iter().map(f).sum::<f64>();
    let secs = |d: Duration| d.as_secs_f64();
    let ticks = sum(&|c| c.layers.ticks.len() as f64);
    let frames = sum(&|c| c.layers.frames as f64);
    let overhead_us = sum(&|c| {
        c.session
            .step_us
            .iter()
            .zip(&c.layers.ticks)
            .map(|(s, t)| s - secs(t.layers()) * 1e6)
            .sum::<f64>()
    });
    report.set("serve.overhead_us_per_tick", overhead_us / ticks);
    report.set("serve.frames_per_tick", frames / ticks);
    report.set(
        "sim.prepare_us_per_frame",
        sum(&|c| secs(c.layers.total(|t| t.prepare))) * 1e6 / frames,
    );
    report.set(
        "sim.commit_us_per_frame",
        sum(&|c| secs(c.layers.total(|t| t.commit))) * 1e6 / frames,
    );
    let hits = sum(&|c| c.layers.spec.0 as f64);
    report.set(
        "sim.spec_hit_frac",
        ratio(hits, hits + sum(&|c| c.layers.spec.1 as f64)),
    );
    let reg = |c: &Cycle, name: &str| c.layers.registry.counter(name).unwrap_or(0) as f64;
    report.set(
        "core.fallback_frac",
        ratio(
            sum(&|c| reg(c, "controller.fallbacks")),
            sum(&|c| reg(c, "controller.decisions")),
        ),
    );
    report.set(
        "sched.table_lookups_per_frame",
        ratio(sum(&|c| reg(c, "sched.table_lookups")), frames),
    );
    let n = cycles.len() as f64;
    report.set(
        "sched.envelope_builds",
        sum(&|c| reg(c, "sched.envelope_builds")) / n,
    );
    report.set(
        "sched.full_table_builds",
        sum(&|c| reg(c, "sched.full_table_builds")) / n,
    );
    report.set(
        "sched.cached_tables",
        sum(&|c| c.layers.cached_tables as f64) / n,
    );

    let run_dag_2 = sum(&|c| secs(c.layers.total(|t| t.run_dag)));
    let run_dag_1 = sum(&|c| secs(c.single.total(|t| t.run_dag)));
    let tasks = sum(&|c| c.layers.ticks.iter().map(|t| t.tasks as f64).sum());
    let work = sum(&|c| {
        c.kernels
            .kernels
            .as_ref()
            .map_or(0.0, |k| k.work_ns as f64 / 1e9)
    });
    let span = sum(&|c| {
        c.kernels
            .kernels
            .as_ref()
            .map_or(0.0, |k| k.span_ns as f64 / 1e9)
    });
    let kreg = |c: &Cycle, name: &str| c.kernels.registry.counter(name).unwrap_or(0) as f64;
    let kticks = sum(&|c| c.kernels.ticks.len() as f64);
    report.set("pool.run_dag_us_per_tick", run_dag_2 * 1e6 / ticks);
    report.set("pool.busy_frac", work / (run_dag_2 * WORKERS as f64));
    report.set(
        "pool.overhead_ns_per_task",
        (run_dag_2 * WORKERS as f64 - work) * 1e9 / tasks,
    );
    report.set("pool.tasks_per_tick", tasks / ticks);
    report.set(
        "pool.steals_per_tick",
        sum(&|c| kreg(c, "pool.steals")) / kticks,
    );
    report.set(
        "pool.parks_per_tick",
        sum(&|c| kreg(c, "pool.parks")) / kticks,
    );
    report.set("pool.phase1_speedup", run_dag_1 / run_dag_2);
    report.set("pool.work_over_span", ratio(work, span));

    let mut per_action: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for c in &cycles {
        let k = c.kernels.kernels.as_ref().expect("kernel pass has a probe");
        for (hist, metric) in k.hist.iter().zip(&k.metrics) {
            let data = hist.data();
            let total = per_action.entry(metric).or_default();
            total.0 += data.sum();
            total.1 += data.count();
        }
    }
    for &(_, metric) in &ACTIONS {
        let (ns, n) = per_action.get(metric).copied().unwrap_or_default();
        report.set(metric, ratio(ns as f64, n as f64));
    }

    report.set(
        "distribute.publish_ns",
        sum(&|c| secs(c.layers.publish_call)) * 1e9 / sum(&|c| c.layers.publishes as f64),
    );
    report.set(
        "distribute.deliver_ns",
        sum(&|c| secs(c.layers.drain)) * 1e9 / sum(&|c| c.layers.delivered as f64),
    );
    report.set(
        "distribute.lagged_frames",
        sum(&|c| c.layers.lagged as f64) / n,
    );
    let session_fps: Vec<f64> = cycles
        .iter()
        .map(|c| c.session.tally.committed as f64 / c.session.wall.as_secs_f64())
        .collect();
    let traced_fps: Vec<f64> = cycles.iter().map(|c| c.layers.frames_per_s()).collect();
    report.set("trace.slowdown", median(&session_fps) / median(&traced_fps));
    report.note(format!(
        "tracing overhead: session {:.1} frames/s untraced vs replica {:.1} with layer timing",
        median(&session_fps),
        median(&traced_fps)
    ));
    for line in spans.export(WORKLOAD) {
        report.note(line);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: Shape = Shape {
        width: 32,
        height: 32,
        streams: 3,
        frames: 20,
    };

    #[test]
    fn replica_reproduces_the_session_and_layers_fit_their_ticks() {
        let inputs = inputs(&TINY, 2).unwrap();
        let mut report = Report::new(WORKLOAD, false);
        let session = session_pass(&TINY, &inputs, &mut report).unwrap();
        assert!(report.is_correct());
        assert_eq!(session.tally.failed, 0);
        let again = session_pass(&TINY, &inputs, &mut report).unwrap();
        assert_eq!(again.digest, session.digest);
        for (workers, kernels) in [(2, false), (2, true), (1, false)] {
            let r = replica_pass(&TINY, &inputs, workers, kernels, None).unwrap();
            assert_eq!(r.streams, session.streams, "{workers} workers");
            assert_eq!(r.ticks.len(), session.step_us.len(), "{workers} workers");
            assert!(r.ticks.iter().all(|t| t.layers() <= t.total + LAYER_SLACK));
            assert_eq!(r.frames, session.tally.committed);
            if let Some(k) = &r.kernels {
                let timed: u64 = k.hist.iter().map(|h| h.data().count()).sum();
                let tasks: u64 = r.ticks.iter().map(|t| t.tasks).sum();
                assert_eq!(timed, tasks, "every kernel lands in a histogram");
                assert!(k.span_ns > 0 && k.span_ns <= k.work_ns);
            }
        }
        let other = inputs_digest(3);
        assert_ne!(other, session.digest);
    }

    fn inputs_digest(seed: u64) -> u64 {
        let inputs = inputs(&TINY, seed).unwrap();
        let mut report = Report::new(WORKLOAD, false);
        session_pass(&TINY, &inputs, &mut report).unwrap().digest
    }

    #[test]
    fn every_stream_window_crosses_a_scene_cut() {
        for seed in [1, 7, 12345] {
            for input in inputs(&FULL, seed).unwrap() {
                let cuts = input
                    .scenario
                    .iter()
                    .skip(1)
                    .filter(|f| f.is_iframe)
                    .count();
                assert!(cuts >= 1, "{} has no keyframe after its first", input.name);
                assert_eq!(input.scenario.frames(), FULL.frames);
            }
        }
    }

    #[test]
    fn critical_path_follows_the_longest_chain() {
        // Diamond 0 -> {1, 2} -> 3, with 2 the slow branch.
        let succs = vec![vec![1, 2], vec![3], vec![3], vec![]];
        let indegree = vec![0, 1, 1, 2];
        assert_eq!(critical_path(&indegree, &succs, &[1, 5, 10, 2]), 13);
        // Two disjoint chains: the longer one.
        let succs = vec![vec![1], vec![], vec![3], vec![]];
        let indegree = vec![0, 1, 0, 1];
        assert_eq!(critical_path(&indegree, &succs, &[1, 1, 4, 4]), 8);
    }
}
