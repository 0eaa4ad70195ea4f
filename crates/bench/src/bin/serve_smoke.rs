//! CI serving smoke: measures N pixel streams on the shared-pool
//! stream server against running the same N streams sequentially, writes
//! machine-readable `BENCH_serve.json` (uploaded as a CI artifact), and
//! fails when shared-pool aggregate throughput at 4 streams is *worse*
//! than the 4 sequential single-stream runs on a host that actually has
//! ≥ 4 cores. Also cross-checks the isolation contract: every served
//! stream's series must be byte-identical to its solo run.
//!
//! Two further gates ride on the same run:
//!
//! * **resident vs spawn-per-call** — an 8-stream pixel workload served
//!   tick by tick as the server does (one merged kernel DAG per tick)
//!   must not be slower on one persistent resident pool than on a fresh
//!   pool per tick (threads spawned and joined per call, the
//!   pre-resident baseline); both must produce results identical to
//!   `StreamServer` serving the same streams;
//! * **churn determinism** — the seeded churn storm must produce
//!   byte-identical admission logs and stream results at 1 and 4
//!   workers.
//!
//! Usage: `serve_smoke [out_dir]` (default `.`). Exit code 1 on gate
//! failure, isolation violation, or churn divergence.

use std::time::{Duration, Instant};

use fgqos_core::policy::{MaxQuality, QualityPolicy};
use fgqos_encoder::app::EncoderApp;
use fgqos_graph::iterate::IterationMode;
use fgqos_serve::{ChurnStorm, PacedSource, ServeReport, ServerConfig, StreamSpec};
use fgqos_sim::app::TableApp;
use fgqos_sim::exec::{StochasticLoad, WorkDriven};
use fgqos_sim::runner::{Mode, ParallelStream, RunConfig, Runner, StreamResult};
use fgqos_sim::runtime::{ExecBackend, ModelBackend, VirtualClock, WorkStealingPool};
use fgqos_sim::scenario::LoadScenario;
use fgqos_time::Cycles;

/// Pixel workload shape per stream: 6×4 macroblocks gives the wavefront
/// enough width for 4 workers while 4 concurrent streams stay in CI
/// budget.
const W: usize = 96;
const H: usize = 64;
const FRAMES: usize = 10;
const STREAMS: usize = 4;
/// Timed repetitions per configuration (best-of to shed scheduler noise).
const REPS: usize = 2;

fn scenario(i: usize) -> LoadScenario {
    LoadScenario::paper_benchmark(30 + i as u64).truncated(FRAMES)
}

fn stream_config(mb: usize) -> RunConfig {
    RunConfig::paper_defaults()
        .scaled_to_macroblocks(mb)
        .with_iteration_mode(IterationMode::Pipelined)
}

fn seed(i: usize) -> u64 {
    1000 + i as u64
}

fn macroblocks() -> usize {
    (W / 16) * (H / 16)
}

/// One solo sequential run of stream `i` (no pool anywhere).
fn solo_run(i: usize) -> StreamResult {
    let app = EncoderApp::new(scenario(i), W, H, seed(i)).expect("app");
    let mut runner = Runner::new(app, stream_config(macroblocks())).expect("runner");
    let mut clock = VirtualClock::new();
    let mut backend = EncoderApp::work_backend(seed(i));
    runner
        .run_on(
            &mut clock,
            &mut backend,
            Mode::Controlled,
            &mut MaxQuality::new(),
            None,
        )
        .expect("solo run")
}

/// Best-of-`REPS` wall time of running all streams sequentially, one
/// after another; returns the last rep's results for the isolation check.
fn time_sequential() -> (Duration, Vec<StreamResult>) {
    let mut best = Duration::MAX;
    let mut last = Vec::new();
    for _ in 0..REPS {
        let start = Instant::now();
        let results: Vec<StreamResult> = (0..STREAMS).map(solo_run).collect();
        best = best.min(start.elapsed());
        last = results;
    }
    (best, last)
}

/// Best-of-`REPS` wall time of serving all streams on one shared pool.
fn time_shared(workers: usize) -> (Duration, Vec<StreamResult>) {
    let mut best = Duration::MAX;
    let mut last = Vec::new();
    for _ in 0..REPS {
        // Generous admission capacity: this bench gates throughput, not
        // admission (the paper-shaped pixel demand would otherwise be
        // priced against the virtual 8 GHz platform, which is not what a
        // wall-clock smoke measures).
        let server = ServerConfig::new(workers).capacity(1e6).build();
        let specs: Vec<StreamSpec> = (0..STREAMS)
            .map(|i| {
                StreamSpec::builder(format!("s{i}"))
                    .priority(1)
                    .seed(seed(i))
                    .config(stream_config(macroblocks()))
                    .source(PacedSource::new(scenario(i)))
                    .build()
            })
            .collect();
        let start = Instant::now();
        let report = server
            .serve(
                specs,
                |scn, spec| EncoderApp::new(scn, W, H, spec.seed),
                |spec| Box::new(EncoderApp::work_backend(spec.seed)),
            )
            .expect("serve");
        best = best.min(start.elapsed());
        assert!(report.all_safe(), "served streams must stay safe");
        last = report
            .outcomes()
            .iter()
            .map(|o| o.result.clone().expect("all admitted"))
            .collect();
    }
    (best, last)
}

fn fps(frames: usize, d: Duration) -> f64 {
    frames as f64 / d.as_secs_f64().max(1e-9)
}

/// Pool-pricing workload: many small-frame pixel streams, so per-frame
/// kernel work is light and the pool's fixed costs (thread spawns for
/// the spawn-per-call baseline, wakeups for the resident pool) dominate.
const POOL_STREAMS: usize = 8;
const POOL_W: usize = 48;
const POOL_H: usize = 32;
const POOL_FRAMES: usize = 25;

fn pool_scenario(i: usize) -> LoadScenario {
    LoadScenario::paper_benchmark(80 + i as u64).truncated(POOL_FRAMES)
}

fn pool_config() -> RunConfig {
    stream_config((POOL_W / 16) * (POOL_H / 16))
}

/// One pool-pricing stream, as a session slot holds it.
struct PoolSlot {
    runner: Runner<EncoderApp>,
    st: Option<ParallelStream>,
    clock: VirtualClock,
    backend: ModelBackend<WorkDriven>,
    policy: MaxQuality,
    result: Option<StreamResult>,
}

impl PoolSlot {
    fn new(i: usize) -> Self {
        let app = EncoderApp::new(pool_scenario(i), POOL_W, POOL_H, seed(i)).expect("app");
        let mut runner = Runner::new(app, pool_config()).expect("runner");
        let st = runner.start_parallel(Mode::Controlled).expect("start");
        PoolSlot {
            runner,
            st: Some(st),
            clock: VirtualClock::new(),
            backend: EncoderApp::work_backend(seed(i)),
            policy: MaxQuality::new(),
            result: None,
        }
    }

    fn finish(&mut self) {
        if let Some(st) = self.st.take() {
            self.result = Some(self.runner.finish_parallel(st, self.policy.name()));
        }
    }
}

/// Serves the pool-pricing streams tick by tick as `StreamSession::step`
/// does — departures first, every stream at the earliest ready time is
/// due, the due frames' kernel DAGs merged into one task graph, commits
/// in stream order — and runs each tick's merged DAG on `resident` or,
/// when `None`, on a fresh pool of `workers` threads spawned (and
/// joined) for that tick.
fn serve_pool_streams(workers: usize, resident: Option<&WorkStealingPool>) -> Vec<StreamResult> {
    let mut slots: Vec<PoolSlot> = (0..POOL_STREAMS).map(PoolSlot::new).collect();
    loop {
        let mut ready: Vec<(usize, Cycles)> = Vec::new();
        for (i, s) in slots.iter_mut().enumerate() {
            match s.st.as_ref().map(|st| st.next_ready_time(&mut s.clock)) {
                Some(Some(t)) => ready.push((i, t)),
                Some(None) => s.finish(),
                None => {}
            }
        }
        let Some(t_min) = ready.iter().map(|&(_, t)| t).min() else {
            break;
        };
        let mut due = Vec::new();
        for &(i, _) in ready.iter().filter(|&&(_, t)| t == t_min) {
            let s = &mut slots[i];
            let st = s.st.as_mut().expect("ready slots are running");
            let more = s
                .runner
                .next_parallel_frame(st, &mut s.clock, &mut s.policy, &mut None)
                .expect("prepare");
            if more {
                due.push(i);
            } else {
                s.finish();
            }
        }
        if due.is_empty() {
            continue;
        }
        {
            let views: Vec<_> = due
                .iter()
                .map(|&i| {
                    let s = &slots[i];
                    let st = s.st.as_ref().expect("due slots are running");
                    s.runner.parallel_kernels(st).expect("frame just prepared")
                })
                .collect();
            let mut offsets = Vec::with_capacity(views.len());
            let mut indegree = Vec::new();
            let mut succs: Vec<Vec<usize>> = Vec::new();
            for v in &views {
                let off = indegree.len();
                offsets.push(off);
                indegree.extend_from_slice(v.indegree());
                succs.extend(
                    v.succs()
                        .iter()
                        .map(|s| s.iter().map(|&x| x + off).collect()),
                );
            }
            let run = |g: usize| {
                let vi = offsets.partition_point(|&o| o <= g) - 1;
                views[vi].run_kernel(g - offsets[vi]);
            };
            match resident {
                Some(pool) => pool.run_dag(&indegree, &succs, run),
                None => WorkStealingPool::new(workers).run_dag(&indegree, &succs, run),
            }
        }
        for &i in &due {
            let s = &mut slots[i];
            let st = s.st.as_mut().expect("due slots are running");
            s.runner
                .commit_parallel_frame(st, &mut s.clock, &mut s.backend, &mut s.policy, &mut None)
                .expect("commit");
        }
    }
    slots
        .into_iter()
        .map(|s| s.result.expect("every stream finished"))
        .collect()
}

/// Best-of-`REPS` wall time of the 8-stream pixel workload on one
/// resident pool, or on a fresh pool per tick; returns the last rep's
/// results (identical either way — only the pool's ownership differs).
fn time_pool(workers: usize, spawn_per_call: bool) -> (Duration, Vec<StreamResult>) {
    let mut best = Duration::MAX;
    let mut last = Vec::new();
    for _ in 0..REPS {
        let start = Instant::now();
        let resident = (!spawn_per_call).then(|| WorkStealingPool::new(workers));
        last = serve_pool_streams(workers, resident.as_ref());
        best = best.min(start.elapsed());
        assert!(
            last.iter().all(|r| r.skips() == 0 && r.misses() == 0),
            "pool-pricing streams must stay safe"
        );
    }
    (best, last)
}

/// The pool-pricing streams served by `StreamServer` itself: the
/// reference the tick replica above must reproduce.
fn served_pool_streams(workers: usize) -> Vec<StreamResult> {
    let specs: Vec<StreamSpec> = (0..POOL_STREAMS)
        .map(|i| {
            StreamSpec::builder(format!("p{i}"))
                .priority(1)
                .seed(seed(i))
                .config(pool_config())
                .source(PacedSource::new(pool_scenario(i)))
                .build()
        })
        .collect();
    let report = ServerConfig::new(workers)
        .capacity(1e6)
        .build()
        .serve(
            specs,
            |scn, spec| EncoderApp::new(scn, POOL_W, POOL_H, spec.seed),
            |spec| Box::new(EncoderApp::work_backend(spec.seed)),
        )
        .expect("pool-pricing serve");
    report
        .outcomes()
        .iter()
        .map(|o| o.result.clone().expect("all admitted"))
        .collect()
}

/// Runs the seeded churn storm (timing-only streams, virtual clocks) at
/// `workers` workers: attaches, mid-life detaches, re-admissions.
fn run_churn(workers: usize) -> (usize, ServeReport) {
    let server = ServerConfig::new(workers).capacity(3.0).build();
    let mut session = server.session(
        |scenario, _spec| TableApp::with_macroblocks(scenario, 8),
        |spec: &StreamSpec| {
            Box::new(ModelBackend::new(StochasticLoad::new(spec.seed))) as Box<dyn ExecBackend>
        },
    );
    let events = ChurnStorm::paper_default(5).events();
    let n = events.len();
    session.run_script(events).expect("churn script");
    session.run_to_completion().expect("churn drain");
    (n, session.finish())
}

/// Byte-level equivalence of two churn runs: admission log, lifecycle
/// counters, and every stream's per-frame series.
fn churn_reports_identical(a: &ServeReport, b: &ServeReport) -> bool {
    a.admission().sequence() == b.admission().sequence()
        && a.admission().lifecycle() == b.admission().lifecycle()
        && a.ticks() == b.ticks()
        && a.outcomes().len() == b.outcomes().len()
        && a.outcomes().iter().zip(b.outcomes()).all(|(x, y)| {
            x.name == y.name
                && x.decision == y.decision
                && x.detached == y.detached
                && match (&x.result, &y.result) {
                    (Some(rx), Some(ry)) => rx.frames() == ry.frames(),
                    (None, None) => true,
                    _ => false,
                }
        })
}

fn main() {
    let out_dir = std::env::args().nth(1).unwrap_or_else(|| ".".into());
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let workers = 4usize;
    let total_frames = STREAMS * FRAMES;

    let (t_seq, seq_results) = time_sequential();
    let (t_shared, shared_results) = time_shared(workers);

    // Isolation cross-check: served == solo, byte for byte.
    let isolated = seq_results
        .iter()
        .zip(&shared_results)
        .all(|(a, b)| a.frames() == b.frames());

    let speedup = t_seq.as_secs_f64() / t_shared.as_secs_f64().max(1e-9);
    let gate_enforced = cores >= 4;
    let gate_pass = !gate_enforced || speedup >= 1.0;

    // Resident pool vs the spawn-per-call baseline on the 8-stream
    // pixel workload.
    let (t_resident, resident_results) = time_pool(workers, false);
    let (t_spawn, spawn_results) = time_pool(workers, true);
    let served_results = served_pool_streams(workers);
    let same = |a: &[StreamResult], b: &[StreamResult]| {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.frames() == y.frames())
    };
    let pool_identical =
        same(&resident_results, &spawn_results) && same(&resident_results, &served_results);
    let pool_speedup = t_spawn.as_secs_f64() / t_resident.as_secs_f64().max(1e-9);
    let pool_gate_pass = !gate_enforced || pool_speedup >= 1.0;

    // Churn determinism: the storm replayed at 1 and 4 workers.
    let (churn_events, churn_ref) = run_churn(1);
    let (_, churn_wide) = run_churn(workers);
    let churn_deterministic = churn_reports_identical(&churn_ref, &churn_wide);

    let mut streams = String::new();
    for (i, r) in shared_results.iter().enumerate() {
        streams.push_str(&format!(
            "    {{\"stream\": {i}, \"frames\": {}, \"skips\": {}, \"misses\": {}, \"mean_quality\": {:.3}, \"mean_psnr_db\": {:.2}}},\n",
            r.frames().len(),
            r.skips(),
            r.misses(),
            r.mean_quality(),
            r.mean_psnr(),
        ));
    }
    let streams = streams.trim_end_matches(",\n").to_string() + "\n";

    let json = format!(
        "{{\n  \"workload\": \"{STREAMS} pixel streams {W}x{H}, {FRAMES} frames each, pipelined wavefront\",\n  \
         \"host_cores\": {cores},\n  \
         \"shared_pool_workers\": {workers},\n  \
         \"sequential_total_wall_ms\": {:.3},\n  \
         \"sequential_aggregate_frames_per_sec\": {:.2},\n  \
         \"shared_wall_ms\": {:.3},\n  \
         \"shared_aggregate_frames_per_sec\": {:.2},\n  \
         \"speedup_shared_vs_sequential\": {speedup:.3},\n  \
         \"isolation_byte_identical\": {isolated},\n  \
         \"streams\": [\n{streams}  ],\n  \
         \"pool\": {{\"workload\": \"{POOL_STREAMS} pixel streams {POOL_W}x{POOL_H}, {POOL_FRAMES} frames each\", \
\"resident_wall_ms\": {:.3}, \"spawn_per_call_wall_ms\": {:.3}, \"speedup_resident_vs_spawn_per_call\": {pool_speedup:.3}, \
\"identical\": {pool_identical}, \"gate\": {{\"enforced\": {gate_enforced}, \"pass\": {pool_gate_pass}}}}},\n  \
         \"churn\": {{\"events\": {churn_events}, \"ticks\": {}, \"deterministic\": {churn_deterministic}}},\n  \
         \"gate\": {{\"enforced\": {gate_enforced}, \"pass\": {gate_pass}}}\n}}\n",
        t_seq.as_secs_f64() * 1e3,
        fps(total_frames, t_seq),
        t_shared.as_secs_f64() * 1e3,
        fps(total_frames, t_shared),
        t_resident.as_secs_f64() * 1e3,
        t_spawn.as_secs_f64() * 1e3,
        churn_ref.ticks(),
    );

    std::fs::write(format!("{out_dir}/BENCH_serve.json"), &json).expect("write BENCH_serve.json");
    print!("{json}");

    if !isolated {
        eprintln!("FAIL: served stream series diverged from solo runs");
        std::process::exit(1);
    }
    if !gate_pass {
        eprintln!(
            "FAIL: shared-pool serving slower than sequential at {STREAMS} streams \
             (speedup {speedup:.3}) on a {cores}-core host"
        );
        std::process::exit(1);
    }
    if !churn_deterministic {
        eprintln!("FAIL: churn storm diverged between 1 and {workers} workers");
        std::process::exit(1);
    }
    if !pool_identical {
        eprintln!(
            "FAIL: resident pool, spawn-per-call pool and StreamServer produced different results"
        );
        std::process::exit(1);
    }
    if !pool_gate_pass {
        eprintln!(
            "FAIL: resident pool slower than the spawn-per-call baseline \
             (speedup {pool_speedup:.3}) on a {cores}-core host"
        );
        std::process::exit(1);
    }
    if !gate_enforced {
        eprintln!("note: <4 cores available; throughput gate reported but not enforced");
    }
}
