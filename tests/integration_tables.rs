//! End-to-end checks of the budget-parametric constraint tables:
//!
//! * a saturated controlled run — stochastic pop times, nearly every
//!   frame budget unique — decides every action exactly as freshly
//!   rebuilt per-budget `ConstraintTables` would (the pre-rewiring
//!   behavior, now the bench-side [`RebuildPolicy`] oracle), and its
//!   [`StreamResult`] is byte-identical to a run deciding from them;
//! * a paced run, whose recurring budget the runner promotes to a
//!   materialized table, decides exactly as tables cached per budget;
//! * the parametric path builds its envelopes O(1) times per run (exactly
//!   once) and never calls the full table constructor, under both
//!   deadline shapes, in sequential, parallel and served execution.

use std::cell::RefCell;
use std::rc::Rc;

use fgqos_bench::table_refs::{RebuildPolicy, SharedEstimator};
use fine_grain_qos::prelude::*;
use fine_grain_qos::sim::exec::{Deterministic, StochasticLoad};

fn runner(frames: usize, mb: usize, shape: DeadlineShape) -> Runner<TableApp> {
    let scenario = LoadScenario::paper_benchmark(5).truncated(frames);
    let app = TableApp::with_macroblocks(scenario, mb).unwrap();
    let config = RunConfig::paper_defaults()
        .scaled_to_macroblocks(mb)
        .with_deadline_shape(shape);
    Runner::new(app, config).unwrap()
}

/// The rebuild oracle for `r`'s stream.
fn rebuild_policy(r: &Runner<TableApp>, shape: DeadlineShape) -> RebuildPolicy {
    RebuildPolicy::new(r.app().profile(), r.app().iterations(), shape)
}

/// Each encoded frame's recorded budget, in frame order: what the
/// oracle's tables must have been built for.
fn encoded_budgets(r: &StreamResult) -> Vec<Cycles> {
    r.frames()
        .iter()
        .filter(|f| !f.skipped)
        .map(|f| f.budget)
        .collect()
}

#[test]
fn saturated_controlled_run_is_byte_identical_to_the_legacy_path() {
    for shape in [DeadlineShape::PerIteration, DeadlineShape::FinalOnly] {
        let mut para = runner(60, 12, shape);
        let a = para.run_controlled(&mut MaxQuality::new(), 11).unwrap();
        let mut legacy = runner(60, 12, shape);
        let mut oracle = rebuild_policy(&legacy, shape);
        let b = legacy.run_controlled(&mut oracle, 11).unwrap();
        // Every decision agrees with tables rebuilt for its frame budget,
        // and every per-frame record — timings, budgets, qualities,
        // misses, PSNR — not just the aggregates is identical.
        assert_eq!(oracle.mismatches(), 0, "divergence under {shape:?}");
        assert_eq!(oracle.budgets(), encoded_budgets(&b), "under {shape:?}");
        assert_eq!(a.frames(), b.frames(), "divergence under {shape:?}");
        assert_eq!(a.skips(), 0, "saturated controlled run must not skip");

        // The acceptance signal: the saturated run used to rebuild
        // tables per frame (unique stochastic budgets defeat any
        // per-budget cache); now it builds one envelope set, period.
        assert_eq!(para.envelope_builds(), 1, "O(1) envelope builds per run");
        assert_eq!(para.full_table_builds(), 0, "no per-frame table builds");
        assert!(
            oracle.builds() >= 30,
            "the rebuild path really does rebuild per frame (got {})",
            oracle.builds()
        );
    }
}

/// The oracle can fail. Its decisions come from its own rebuilt tables
/// (`PolicyCtx::with_tables` re-evaluates `q_M` for them), so when its
/// profile drifts from the runner's — one `Cav` raised before every
/// frame, on a run without an estimator — the checked twin must count
/// mismatches instead of echoing the runner's answer.
#[test]
fn rebuild_oracle_counts_mismatches_when_its_tables_differ() {
    let shape = DeadlineShape::PerIteration;
    let mut r = runner(40, 8, shape);
    let top = r.app().profile().qualities().max();
    let mut oracle = rebuild_policy(&r, shape).refreshed_by(move |profile| {
        let raised = profile.worst_idx(0, top);
        profile
            .update_avg(0, top, raised)
            .expect("action 0 at the top level exists");
    });
    r.run_controlled(&mut oracle, 11).unwrap();
    assert!(
        oracle.mismatches() > 0,
        "a drifted profile went unnoticed by the checked oracle"
    );
}

#[test]
fn paced_controlled_run_decides_like_cached_tables() {
    // Doubling the period at nominal times makes every steady-state
    // frame repeat one budget, which the runner promotes to a
    // materialized table; its decisions must match tables built once
    // per budget, as served (paced) streams see them.
    for shape in [DeadlineShape::PerIteration, DeadlineShape::FinalOnly] {
        let paced = |shape| {
            let config = RunConfig::paper_defaults()
                .scaled_to_macroblocks(12)
                .with_deadline_shape(shape);
            let config = config.with_period(config.period.saturating_mul(2));
            let scenario = LoadScenario::paper_benchmark(5).truncated(40);
            let app = TableApp::with_macroblocks(scenario, 12).unwrap();
            Runner::new(app, config).unwrap()
        };
        let mut para = paced(shape);
        let a = para
            .run(
                Mode::Controlled,
                &mut MaxQuality::new(),
                &mut Deterministic::nominal(),
                None,
            )
            .unwrap();
        let mut cached = paced(shape);
        let mut oracle = rebuild_policy(&cached, shape).cached();
        let b = cached
            .run(
                Mode::Controlled,
                &mut oracle,
                &mut Deterministic::nominal(),
                None,
            )
            .unwrap();
        assert_eq!(oracle.mismatches(), 0, "divergence under {shape:?}");
        assert_eq!(oracle.budgets(), encoded_budgets(&b), "under {shape:?}");
        assert_eq!(a.frames(), b.frames(), "divergence under {shape:?}");
        assert!(
            para.full_table_builds() >= 1,
            "the recurring budget was promoted under {shape:?}"
        );
    }
}

#[test]
fn parallel_runs_share_the_same_envelope_set() {
    let mut seq = runner(40, 10, DeadlineShape::PerIteration);
    let expected = seq.run_controlled(&mut MaxQuality::new(), 13).unwrap();
    for workers in [1, 2, 8] {
        let mut par = runner(40, 10, DeadlineShape::PerIteration);
        let actual = par
            .run_parallel(&mut MaxQuality::new(), 13, workers)
            .unwrap();
        assert_eq!(expected.frames(), actual.frames());
        assert_eq!(par.envelope_builds(), 1);
        assert_eq!(par.full_table_builds(), 0);
    }
}

#[test]
fn served_streams_build_one_envelope_set_each() {
    let specs: Vec<StreamSpec> = [3u64, 4, 5]
        .iter()
        .enumerate()
        .map(|(i, &seed)| {
            let scenario = LoadScenario::paper_benchmark(seed).truncated(15);
            StreamSpec::builder(format!("s{i}"))
                .priority(1)
                .seed(seed)
                .config(RunConfig::paper_defaults().scaled_to_macroblocks(8))
                .source(PacedSource::new(scenario))
                .build()
        })
        .collect();

    let server = ServerConfig::new(2).build();
    let report = server
        .serve(specs, table_apps(8), stochastic_backends())
        .unwrap();
    assert!(report.all_safe());
    let served = report
        .outcomes()
        .iter()
        .filter(|o| o.result.is_some())
        .count();
    assert!(served >= 2, "expected at least two admitted streams");
    for o in report.outcomes() {
        if o.result.is_some() {
            assert_eq!(
                o.envelope_builds, 1,
                "stream {} built {} envelope sets",
                o.name, o.envelope_builds
            );
            // Paced streams see a *recurring* budget, which the runner
            // promotes to one materialized table (O(1) per run, not per
            // frame); a saturated stream with unique budgets stays at 0.
            assert!(
                o.table_builds <= 3,
                "stream {} built tables per frame ({} builds for {} frames)",
                o.name,
                o.table_builds,
                o.frames
            );
        } else {
            // Rejected streams never touch the tables at all.
            assert_eq!((o.envelope_builds, o.table_builds), (0, 0));
        }
    }
}

#[test]
fn moving_budget_runs_build_one_envelope_set_and_zero_tables() {
    // A per-frame moving budget (trace or simulated channel) is the
    // worst case for any per-budget table cache: nearly every frame
    // prices a different budget, and repeats are coincidences that must
    // NOT promote a materialized table. The parametric path keeps the
    // O(1) guarantee: one envelope build, zero full table builds.
    let mb = 10;
    let scenario = LoadScenario::paper_benchmark(5).truncated(50);
    // A recorded trace with deliberate repeats — exactly the recurring
    // budgets that would have promoted a materialized table under a
    // Constant spec.
    let traced = scenario
        .clone()
        .with_budget_trace((0..50u64).map(|f| Some(Cycles::new(1_500_000 + 400_000 * (f % 3)))))
        .expect("valid budget trace");
    let channel = BudgetSpec::Channel(ChannelParams::adversarial(1_200_000, 3_200_000, 4));
    for (name, spec_scenario, budget) in [
        ("channel", scenario, channel),
        ("trace", traced, BudgetSpec::Trace),
    ] {
        let app = TableApp::with_macroblocks(spec_scenario, mb).unwrap();
        let config = RunConfig::paper_defaults()
            .scaled_to_macroblocks(mb)
            .with_budget_source(budget);
        let mut r = Runner::new(app, config).unwrap();
        let result = r.run_controlled(&mut MaxQuality::new(), 11).unwrap();
        assert_eq!(result.skips(), 0, "{name}: floor keeps q0 feasible");
        assert_eq!(r.envelope_builds(), 1, "{name}: one envelope build");
        assert_eq!(
            r.full_table_builds(),
            0,
            "{name}: moving budgets must never materialize tables"
        );
    }
}

#[test]
fn estimator_streams_still_match_across_paths() {
    // With an online estimator the parametric runner refreshes its
    // envelopes in place every time the estimates move the profile —
    // every decision (and so every per-frame record) stays identical to
    // tables rebuilt per frame from the same estimates, exactly as the
    // pre-refresh code did.
    let shape = DeadlineShape::PerIteration;
    let estimator =
        |r: &Runner<TableApp>| EwmaEstimator::new(9, r.app().profile().qualities().clone(), 0.2);

    let mut plain = runner(25, 8, shape);
    let mut est = estimator(&plain);
    let a = plain
        .run(
            Mode::Controlled,
            &mut MaxQuality::new(),
            &mut StochasticLoad::new(23),
            Some(&mut est),
        )
        .unwrap();

    let mut checked = runner(25, 8, shape);
    let est = Rc::new(RefCell::new(estimator(&checked)));
    let mut oracle = rebuild_policy(&checked, shape).refreshed_by({
        let est = Rc::clone(&est);
        move |profile| {
            est.borrow()
                .apply_to(profile)
                .expect("estimates fit the profile");
        }
    });
    let b = checked
        .run(
            Mode::Controlled,
            &mut oracle,
            &mut StochasticLoad::new(23),
            Some(&mut SharedEstimator(est)),
        )
        .unwrap();

    assert_eq!(
        oracle.mismatches(),
        0,
        "a refreshed envelope decided differently"
    );
    assert_eq!(oracle.budgets(), encoded_budgets(&b));
    assert_eq!(a.frames(), b.frames());
    // Adaptive runs are now O(1)-per-frame too: one envelope build, one
    // cheap refresh per profile-moving frame, zero table builds.
    assert_eq!(
        plain.envelope_builds(),
        1,
        "estimator runs build envelopes exactly once"
    );
    assert!(
        plain.envelope_refreshes() > 0,
        "moving estimates must refresh in place"
    );
    assert_eq!(
        plain.full_table_builds(),
        0,
        "no per-frame ConstraintTables builds"
    );
    // The oracle really did rebuild per frame.
    assert!(
        oracle.builds() >= 20,
        "rebuilds per frame (got {})",
        oracle.builds()
    );
}
