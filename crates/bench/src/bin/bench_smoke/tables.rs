//! The budget-parametric table path (`BENCH_tables.json`) at the
//! paper's 396-macroblock scale, priced against per-budget
//! `ConstraintTables` rebuilds and cached tables
//! ([`fgqos_bench::table_refs::RebuildPolicy`]). The timed baselines
//! decide from their own tables only; untimed checked twins count every
//! decision on which they disagree with the runner's tables.

use std::time::{Duration, Instant};

use fgqos_bench::table_refs::RebuildPolicy;
use fgqos_core::estimator::EwmaEstimator;
use fgqos_core::policy::{MaxQuality, QualityPolicy};
use fgqos_serve::{stochastic_backends, table_apps, PacedSource, ServerConfig, StreamSpec};
use fgqos_sim::app::{TableApp, VideoApp};
use fgqos_sim::exec::{Deterministic, ExecTimeModel, StochasticLoad};
use fgqos_sim::runner::{Mode, RunConfig, Runner};
use fgqos_sim::scenario::LoadScenario;
use fgqos_telemetry::json::{JsonObj, JsonValue};

use crate::harness::{ms, ratio, twins, Section, REPS};

const TBL_MB: usize = 396;
const TBL_FRAMES: usize = 60;
const TBL_STREAMS: usize = 8;
const TBL_SERVE_FRAMES: usize = 20;
/// Constant-budget gate tolerance: the runner promotes the recurring
/// budget to a materialized table, so it must decide as cheaply as a run
/// that keeps cached tables itself. That baseline runs inside the same
/// runner, which still promotes and reads its own table, so it costs
/// ~10% more than the cached path alone (ratio 0.8–1.0 on a 2-core
/// x86-64 host); 1.1 leaves the parametric path ~20% headroom.
const TBL_TOLERANCE: f64 = 1.10;
/// Adaptive-vs-static tolerance: estimator-driven runs refresh the
/// envelope intercepts in place, so the whole-run cost must stay within
/// this factor of the estimator-free twin.
const TBL_EST_RATIO: f64 = 1.5;

/// Which decisions a timed run makes.
#[derive(Clone, Copy, PartialEq)]
enum Path {
    /// The runner's own tables ([`MaxQuality`]).
    Parametric,
    /// Per-frame `ConstraintTables::new` ([`RebuildPolicy`]).
    Rebuild,
    /// One `ConstraintTables` per distinct budget ([`RebuildPolicy::cached`]).
    Cached,
}

/// What one run built and how often its baseline disagreed.
struct Counters {
    envelope_builds: u64,
    table_builds: u64,
    /// Rebuilt-table builds and disagreements (0 on the parametric path,
    /// and disagreements only counted on a `checked` run).
    rebuilds: u64,
    mismatches: u64,
}

/// One controlled run of the 396-macroblock table stream. `paced`
/// doubles the period and runs at nominal times, so every steady-state
/// frame repeats one budget; otherwise pop times are stochastic and
/// nearly every frame budget is unique. `checked` compares every
/// rebuilt decision with the runner's tables; timed runs leave it off,
/// so the baseline pays for its own tables and decisions only. Returns
/// the run's wall time with its counters.
fn run_once(path: Path, paced: bool, checked: bool) -> (Duration, Counters) {
    let scenario = LoadScenario::paper_benchmark(5).truncated(TBL_FRAMES);
    let app = TableApp::with_macroblocks(scenario, TBL_MB).expect("app");
    let mut config = RunConfig::paper_defaults().scaled_to_macroblocks(TBL_MB);
    if paced {
        config = config.with_period(config.period.saturating_mul(2));
    }
    let mut r = Runner::new(app, config).expect("runner");
    let rebuilt = || {
        let p = RebuildPolicy::new(
            r.app().profile(),
            r.app().iterations(),
            config.deadline_shape,
        );
        if checked {
            p
        } else {
            p.unchecked()
        }
    };
    let mut rebuild = match path {
        Path::Parametric => None,
        Path::Rebuild => Some(rebuilt()),
        Path::Cached => Some(rebuilt().cached()),
    };
    let mut max = MaxQuality::new();
    let policy: &mut dyn QualityPolicy = match &mut rebuild {
        Some(p) => p,
        None => &mut max,
    };
    let mut exec: Box<dyn ExecTimeModel> = if paced {
        Box::new(Deterministic::nominal())
    } else {
        Box::new(StochasticLoad::new(5))
    };
    let start = Instant::now();
    let res = r
        .run(Mode::Controlled, policy, exec.as_mut(), None)
        .expect("controlled run");
    let wall = start.elapsed();
    assert_eq!(res.skips(), 0);
    let mut mismatches = 0;
    if let (true, Some(p)) = (checked, &rebuild) {
        // The rebuilt tables trust the budget read off the runner's; it
        // must be the budget the runner recorded for the frame.
        let recorded: Vec<_> = res.frames().iter().map(|f| f.budget).collect();
        mismatches = p.mismatches() + u64::from(p.budgets() != recorded.as_slice());
    }
    let counters = Counters {
        envelope_builds: r.envelope_builds(),
        table_builds: r.full_table_builds(),
        rebuilds: rebuild.as_ref().map_or(0, RebuildPolicy::builds),
        mismatches,
    };
    (wall, counters)
}

/// The serving layer multiplies the per-frame table cost by the stream
/// count: 8 saturated table streams over one shared pool. Returns the
/// best wall time and the largest per-stream envelope-build count.
fn tables_served() -> (Duration, u64) {
    let mut best = Duration::MAX;
    let mut envelope_builds = 0;
    for _ in 0..REPS {
        let specs: Vec<StreamSpec> = (0..TBL_STREAMS)
            .map(|i| {
                let seed = 11 + i as u64;
                let scenario = LoadScenario::paper_benchmark(seed).truncated(TBL_SERVE_FRAMES);
                StreamSpec::builder(format!("s{i}"))
                    .priority(1)
                    .seed(seed)
                    .config(RunConfig::paper_defaults().scaled_to_macroblocks(TBL_MB))
                    .source(PacedSource::new(scenario))
                    .build()
            })
            .collect();
        // Oversubscribed capacity on purpose: the bench prices table
        // work for 8 *running* streams, not admission control.
        let server = ServerConfig::new(2).capacity(64.0).build();
        let start = Instant::now();
        let report = server
            .serve(specs, table_apps(TBL_MB), stochastic_backends())
            .expect("serve");
        best = best.min(start.elapsed());
        assert_eq!(report.admission().admitted(), TBL_STREAMS);
        envelope_builds = report
            .outcomes()
            .iter()
            .map(|o| o.envelope_builds)
            .max()
            .unwrap_or(0);
    }
    (best, envelope_builds)
}

/// Estimator-driven controlled run vs the same run without an
/// estimator (same stochastic execution seed). Returns the two best
/// wall times plus the refresh/build counters of the adaptive run.
fn tables_estimator() -> (Duration, Duration, (u64, u64, u64)) {
    let mk = || {
        let scenario = LoadScenario::paper_benchmark(5).truncated(TBL_FRAMES);
        let app = TableApp::with_macroblocks(scenario, TBL_MB).expect("app");
        let config = RunConfig::paper_defaults().scaled_to_macroblocks(TBL_MB);
        Runner::new(app, config).expect("runner")
    };
    // The static twin runs first in each rep so neither side
    // systematically inherits the other's warm caches; best-of over
    // extra reps sheds the cold first pass.
    let ((t_static, ()), (t_adaptive, counters)) = twins(
        REPS + 2,
        || {
            let (mut r, mut exec, mut policy) = (mk(), StochasticLoad::new(5), MaxQuality::new());
            let start = Instant::now();
            r.run(Mode::Controlled, &mut policy, &mut exec, None)
                .expect("static run");
            (start.elapsed(), ())
        },
        || {
            let mut r = mk();
            let qs = r.app().profile().qualities().clone();
            let mut est = EwmaEstimator::new(r.app().body().len(), qs, 0.2);
            let (mut exec, mut policy) = (StochasticLoad::new(5), MaxQuality::new());
            let start = Instant::now();
            r.run(Mode::Controlled, &mut policy, &mut exec, Some(&mut est))
                .expect("adaptive run");
            let counters = (
                r.envelope_builds(),
                r.envelope_refreshes(),
                r.full_table_builds(),
            );
            (start.elapsed(), counters)
        },
    );
    (t_adaptive, t_static, counters)
}

pub fn run() -> Section {
    // Timed twins run unchecked and alternate rep by rep, the
    // parametric side first.
    let ((t_sat, sat), (t_sat_rebuild, sat_rebuild)) = twins(
        REPS,
        || run_once(Path::Parametric, false, false),
        || run_once(Path::Rebuild, false, false),
    );
    let sat_speedup = ratio(t_sat_rebuild, t_sat);
    let (t_srv, srv_envelope_builds) = tables_served();
    let ((t_paced, paced), (t_paced_cached, paced_cached)) = twins(
        REPS + 2,
        || run_once(Path::Parametric, true, false),
        || run_once(Path::Cached, true, false),
    );
    let const_ratio = ratio(t_paced, t_paced_cached);
    let (t_est_adaptive, t_est_static, (est_builds, est_refreshes, est_tbl_builds)) =
        tables_estimator();
    let est_ratio = ratio(t_est_adaptive, t_est_static);
    // Gates: the parametric path must (a) decide exactly like per-budget
    // rebuilds and beat them in the saturated regime it was built for,
    // (b) build one envelope set per served stream, (c) not lose to
    // cached tables on constant-budget runs (where it promotes the
    // recurring budget to a materialized table), and (d) keep
    // estimator-driven runs — which refresh the envelope intercepts in
    // place every profile-moving frame — within 1.5× of a static run.
    // Untimed checked twins of the two baselines: every decision of the
    // runner's tables against the rebuilt / cached ones.
    let mismatches = run_once(Path::Rebuild, false, true).1.mismatches
        + run_once(Path::Cached, true, true).1.mismatches;
    let pass = mismatches == 0
        && sat_speedup >= 1.0
        && srv_envelope_builds == 1
        && const_ratio <= TBL_TOLERANCE
        && est_ratio <= TBL_EST_RATIO
        && est_tbl_builds == 0;
    let json = JsonObj::new()
        .str(
            "workload",
            &format!("table {TBL_MB} macroblocks, controlled-max"),
        )
        .obj(
            "saturated_solo",
            JsonObj::new()
                .int("frames", TBL_FRAMES as u64)
                .fixed("parametric_wall_ms", ms(t_sat), 3)
                .fixed("rebuild_wall_ms", ms(t_sat_rebuild), 3)
                .fixed("speedup", sat_speedup, 3)
                .int("envelope_builds", sat.envelope_builds)
                .int("parametric_table_builds", sat.table_builds)
                .int("rebuild_table_builds", sat_rebuild.rebuilds),
        )
        .obj(
            "served_streams",
            JsonObj::new()
                .int("streams", TBL_STREAMS as u64)
                .int("frames_per_stream", TBL_SERVE_FRAMES as u64)
                .fixed("parametric_wall_ms", ms(t_srv), 3)
                .int("max_envelope_builds_per_stream", srv_envelope_builds),
        )
        .obj(
            "constant_budget",
            JsonObj::new()
                .int("frames", TBL_FRAMES as u64)
                .fixed("parametric_wall_ms", ms(t_paced), 3)
                .fixed("cached_wall_ms", ms(t_paced_cached), 3)
                .fixed("ratio", const_ratio, 3)
                .set("tolerance", JsonValue::Float(TBL_TOLERANCE))
                .int("promoted_table_builds", paced.table_builds)
                .int("cached_table_builds", paced_cached.rebuilds),
        )
        .obj(
            "estimator_run",
            JsonObj::new()
                .int("frames", TBL_FRAMES as u64)
                .fixed("adaptive_wall_ms", ms(t_est_adaptive), 3)
                .fixed("static_wall_ms", ms(t_est_static), 3)
                .fixed("ratio", est_ratio, 3)
                .set("tolerance", JsonValue::Float(TBL_EST_RATIO))
                .int("envelope_builds", est_builds)
                .int("envelope_refreshes", est_refreshes)
                .int("full_table_builds", est_tbl_builds),
        )
        .int("decision_mismatches", mismatches)
        .obj(
            "gate",
            JsonObj::new().bool("enforced", true).bool("pass", pass),
        )
        .build()
        .pretty();
    let failures = if pass {
        Vec::new()
    } else {
        vec![format!(
            "budget-parametric tables lost a gate \
             ({mismatches} decision or budget mismatches against rebuilt tables, \
             saturated speedup {sat_speedup:.3}, served envelope builds {srv_envelope_builds}, \
             constant-budget ratio {const_ratio:.3} vs tolerance {TBL_TOLERANCE}, \
             estimator ratio {est_ratio:.3} vs tolerance {TBL_EST_RATIO}, \
             estimator table builds {est_tbl_builds})"
        )]
    };
    Section {
        file: "BENCH_tables.json",
        json,
        failures,
        ..Section::default()
    }
}
