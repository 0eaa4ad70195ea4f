//! The parallel runner's determinism contract, end to end: at any worker
//! count, `run_parallel_on` on the virtual runtime reproduces the
//! sequential per-frame series byte-for-byte — for the timing-only table
//! app behind the fig6/fig8 runs and for the pixel-level encoder — and
//! the safety monitor reaches identical verdicts. A stepped run that
//! skips phase 1 altogether reproduces it too.

use fine_grain_qos::encoder::app::EncoderApp;
use fine_grain_qos::prelude::*;
use fine_grain_qos::sim::exec::StochasticLoad;
use fine_grain_qos::telemetry::Telemetry;

const WORKERS: [usize; 3] = [1, 2, 8];

fn table_runner(frames: usize, mb: usize, mode: IterationMode) -> Runner<TableApp> {
    let scenario = LoadScenario::paper_benchmark(5).truncated(frames);
    let app = TableApp::with_macroblocks(scenario, mb).expect("app");
    let config = RunConfig::paper_defaults()
        .scaled_to_macroblocks(mb)
        .with_iteration_mode(mode);
    Runner::new(app, config).expect("runner")
}

fn pixel_runner(frames: usize, mode: IterationMode) -> Runner<EncoderApp> {
    let scenario = LoadScenario::paper_benchmark(9).truncated(frames);
    let app = EncoderApp::new(scenario, 64, 48, 9).expect("app");
    let n = app.iterations();
    let config = RunConfig::paper_defaults()
        .scaled_to_macroblocks(n)
        .with_iteration_mode(mode);
    Runner::new(app, config).expect("runner")
}

fn assert_same_series(expected: &StreamResult, actual: &StreamResult, what: &str) {
    assert_eq!(
        expected.frames(),
        actual.frames(),
        "{what}: per-frame series diverged"
    );
    assert_eq!(expected.label(), actual.label());
    assert_eq!(expected.period(), actual.period());
}

fn assert_same_monitor<A: VideoApp, B: VideoApp>(seq: &Runner<A>, par: &Runner<B>) {
    let (m1, m2) = (seq.monitor(), par.monitor());
    assert_eq!(m1.cycles(), m2.cycles());
    assert_eq!(m1.actions(), m2.actions());
    assert_eq!(m1.misses(), m2.misses());
    assert_eq!(m1.fallbacks(), m2.fallbacks());
    assert_eq!(m1.all_safe(), m2.all_safe());
    assert_eq!(m1.worst_margin(), m2.worst_margin());
}

/// Steps `runner` through the public frame API without ever running
/// phase 1. Every kernel is then executed at commit, which
/// `commit_parallel_frame` declares legal; the result must still equal
/// the sequential run's.
fn stepped_without_phase1<A: VideoApp>(
    runner: &mut Runner<A>,
    backend: &mut dyn ExecBackend,
) -> StreamResult {
    let mut clock = VirtualClock::new();
    let mut policy = MaxQuality::new();
    let mut est = None;
    let mut st = runner.start_parallel(Mode::Controlled).expect("start");
    while runner
        .next_parallel_frame(&mut st, &mut clock, &mut policy, &mut est)
        .expect("prepare")
    {
        runner
            .commit_parallel_frame(&mut st, &mut clock, backend, &mut policy, &mut est)
            .expect("commit");
    }
    runner.finish_parallel(st, policy.name())
}

/// Fig6/fig8-style table run: the stochastic model's sample stream is
/// consumed in commit order, so the series must match at every worker
/// count, in both unrolling modes. The table app's kernels are no-ops,
/// so a frame's phase 1 finishes before the pool's fork threshold and
/// runs on the calling thread at every worker count: this pins the
/// commit replay across pool widths, and the pixel test below pins
/// phase 1 on the resident workers.
#[test]
fn table_runs_are_byte_identical_at_any_worker_count() {
    for mode in [IterationMode::Sequential, IterationMode::Pipelined] {
        let mut seq = table_runner(50, 12, IterationMode::Sequential);
        let expected = seq
            .run_controlled(&mut MaxQuality::new(), 21)
            .expect("sequential run");
        assert_eq!(expected.skips(), 0);
        assert_eq!(seq.speculation(), (0, 0), "run_on never speculates");
        let mut stepped = table_runner(50, 12, mode);
        let mut exec = StochasticLoad::new(21);
        let actual = stepped_without_phase1(&mut stepped, &mut ModelBackend::new(&mut exec));
        assert_same_series(
            &expected,
            &actual,
            &format!("table {mode:?} phase 1 skipped"),
        );
        assert_same_monitor(&seq, &stepped);
        assert_eq!(stepped.speculation().0, 0, "no phase 1, no cache hits");
        for workers in WORKERS {
            let mut par = table_runner(50, 12, mode);
            let mut clock = VirtualClock::new();
            let mut exec = StochasticLoad::new(21);
            let mut backend = ModelBackend::new(&mut exec);
            let actual = par
                .run_parallel_on(
                    &mut clock,
                    &mut backend,
                    Mode::Controlled,
                    &mut MaxQuality::new(),
                    None,
                    workers,
                )
                .expect("parallel run");
            assert_same_series(&expected, &actual, &format!("table {mode:?} x{workers}"));
            assert_same_monitor(&seq, &par);
        }
    }
}

/// The pixel encoder: content-dependent work units feed the timing model
/// and intra prediction reads neighbour reconstructions, so this
/// exercises the speculation cache, the data-dependency wavefront and the
/// kernel/apply split all at once. Its frames outlast the pool's fork
/// threshold, so at 2 and 8 workers phase 1 really runs on the resident
/// workers (`pool.forks` > 0).
#[test]
fn pixel_runs_are_byte_identical_at_any_worker_count() {
    let mut seq = pixel_runner(16, IterationMode::Sequential);
    let mut clock = VirtualClock::new();
    let mut backend = EncoderApp::work_backend(7);
    let expected = seq
        .run_on(
            &mut clock,
            &mut backend,
            Mode::Controlled,
            &mut MaxQuality::new(),
            None,
        )
        .expect("sequential run");
    assert_eq!(expected.skips(), 0, "{}", expected.summary());
    assert_eq!(seq.speculation(), (0, 0), "run_on never speculates");
    let seq_bits = seq.app().total_bits();

    let mut stepped = pixel_runner(16, IterationMode::Pipelined);
    let actual = stepped_without_phase1(&mut stepped, &mut EncoderApp::work_backend(7));
    assert_same_series(&expected, &actual, "pixel phase 1 skipped");
    assert_same_monitor(&seq, &stepped);
    assert_eq!(stepped.speculation().0, 0, "no phase 1, no cache hits");
    assert_eq!(stepped.app().total_bits(), seq_bits);
    assert_eq!(stepped.app().displayed(), seq.app().displayed());

    for workers in WORKERS {
        let mut par = pixel_runner(16, IterationMode::Pipelined);
        let telemetry = Telemetry::new();
        par.set_telemetry(&telemetry);
        let mut clock = VirtualClock::new();
        let mut backend = EncoderApp::work_backend(7);
        let actual = par
            .run_parallel_on(
                &mut clock,
                &mut backend,
                Mode::Controlled,
                &mut MaxQuality::new(),
                None,
                workers,
            )
            .expect("parallel run");
        assert_same_series(&expected, &actual, &format!("pixel x{workers}"));
        assert_same_monitor(&seq, &par);
        // The codec state converged too, not just the series.
        assert_eq!(par.app().total_bits(), seq_bits);
        assert_eq!(par.app().frames_encoded(), seq.app().frames_encoded());
        assert_eq!(par.app().displayed(), seq.app().displayed());
        // Speculation must be doing real work: P-frame quality is stable
        // under MaxQuality, so the vast majority of kernels commit from
        // cache rather than re-executing.
        let (hits, misses) = par.speculation();
        assert!(
            hits > 9 * misses,
            "speculation ineffective: {hits} hits vs {misses} misses"
        );
        // Byte-identity across widths means something only if the
        // residents ran kernels.
        let forks = telemetry.snapshot().counter("pool.forks").unwrap_or(0);
        if workers > 1 {
            assert!(forks > 0, "x{workers}: phase 1 never left the caller");
        } else {
            assert_eq!(forks, 0, "a single-worker pool never forks");
        }
    }
}

/// The uncontrolled baseline goes through the same machinery.
#[test]
fn constant_quality_parallel_run_matches_sequential() {
    let mut seq = table_runner(40, 10, IterationMode::Sequential);
    let expected = seq.run_constant(Quality::new(4), 3).expect("sequential");
    let mut par = table_runner(40, 10, IterationMode::Pipelined);
    let mut clock = VirtualClock::new();
    let mut exec = StochasticLoad::new(3);
    let mut backend = ModelBackend::new(&mut exec);
    let mut policy = ConstantQuality::new(Quality::new(4));
    let actual = par
        .run_parallel_on(
            &mut clock,
            &mut backend,
            Mode::Constant,
            &mut policy,
            None,
            4,
        )
        .expect("parallel");
    assert_same_series(&expected, &actual, "constant-quality");
}

/// Mis-speculation is corrected, not propagated: a quality-switching
/// policy forces speculation misses on the motion search, and the series
/// still matches exactly.
#[test]
fn quality_switches_only_cost_re_execution_never_divergence() {
    use fine_grain_qos::core::policy::{Choice, PolicyCtx};

    struct Alternator(u8);
    impl QualityPolicy for Alternator {
        fn name(&self) -> &'static str {
            "alternator"
        }
        fn on_cycle_start(&mut self) {
            self.0 = self.0.wrapping_add(1);
        }
        fn choose(&mut self, ctx: &PolicyCtx<'_>) -> Choice {
            // Alternate between two radii frame over frame, below the
            // feasible max so the controller accepts it.
            let want = if self.0.is_multiple_of(2) { 2 } else { 7 };
            let feasible = ctx.max_feasible();
            let q = feasible.map_or(ctx.qualities().min(), |m| Quality::new(want.min(m.level())));
            Choice {
                quality: q,
                fallback: feasible.is_none(),
            }
        }
    }

    let mut seq = pixel_runner(10, IterationMode::Sequential);
    let mut clock = VirtualClock::new();
    let mut backend = EncoderApp::work_backend(2);
    let expected = seq
        .run_on(
            &mut clock,
            &mut backend,
            Mode::Controlled,
            &mut Alternator(0),
            None,
        )
        .expect("sequential");

    let mut par = pixel_runner(10, IterationMode::Pipelined);
    let mut clock = VirtualClock::new();
    let mut backend = EncoderApp::work_backend(2);
    let actual = par
        .run_parallel_on(
            &mut clock,
            &mut backend,
            Mode::Controlled,
            &mut Alternator(0),
            None,
            8,
        )
        .expect("parallel");
    assert_same_series(&expected, &actual, "alternating quality");
    let (_, misses) = par.speculation();
    assert!(
        misses > 0,
        "the alternating policy should defeat speculation"
    );
}
