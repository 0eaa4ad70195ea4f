//! Integration tests of the multi-stream serving layer.
//!
//! The load-bearing guarantee is the *isolation contract*: for every
//! admitted stream, the shared-pool server's `StreamResult` (per-frame
//! series, quality decisions) and safety verdicts on the virtual runtime
//! are byte-identical to running that stream alone through
//! `Runner::run_parallel_on` — at any worker count. On top of that,
//! admission must be a pure function of the specs (same sequence across
//! worker counts and `RUST_TEST_THREADS` settings — the CI matrix reruns
//! this file under 1, 2 and all threads), and overload must degrade
//! deterministically by priority while preserving per-stream safety.

use fine_grain_qos::prelude::*;

const MB: usize = 8;

fn config() -> RunConfig {
    RunConfig::paper_defaults().scaled_to_macroblocks(MB)
}

/// The three scenarios the multi-stream tests serve together: two
/// paper-shaped streams and one adversarial stress stream.
fn scenarios() -> Vec<LoadScenario> {
    vec![
        LoadScenario::paper_benchmark(1).truncated(30),
        LoadScenario::paper_benchmark(2).truncated(24),
        LoadScenario::adversarial(3).truncated(36),
    ]
}

fn specs(scenarios: &[LoadScenario]) -> Vec<StreamSpec> {
    scenarios
        .iter()
        .enumerate()
        .map(|(i, s)| {
            StreamSpec::builder(format!("s{i}"))
                .priority((i % 3) as u8)
                .seed(100 + i as u64)
                .config(config())
                .source(PacedSource::new(s.clone()))
                .build()
        })
        .collect()
}

/// Solo baseline of stream `i`: the same app, config, policy, seed and
/// runtime, run alone through the parallel runner.
fn solo(scenario: &LoadScenario, seed: u64, workers: usize) -> (StreamResult, Runner<TableApp>) {
    let app = TableApp::with_macroblocks(scenario.clone(), MB).unwrap();
    let mut runner = Runner::new(app, config()).unwrap();
    let result = runner
        .run_parallel(&mut MaxQuality::new(), seed, workers)
        .unwrap();
    (result, runner)
}

/// Every admitted stream serves byte-identically to its solo run, at 1, 2
/// and 8 workers.
///
/// Table-app kernels are no-ops, so phase 1 finishes before the pool's
/// fork threshold and runs on the calling thread at every worker count;
/// the pixel identity test in `integration_parallel.rs` checks phase 1
/// on the resident workers.
#[test]
fn isolation_contract_holds_at_every_worker_count() {
    let scenarios = scenarios();
    for workers in [1usize, 2, 8] {
        // Generous capacity: all three streams admitted at full quality.
        let server = ServerConfig::new(workers).capacity(64.0).build();
        let report = server
            .serve(specs(&scenarios), table_apps(MB), stochastic_backends())
            .unwrap();
        assert_eq!(report.admission().admitted(), 3, "workers {workers}");

        for (i, scenario) in scenarios.iter().enumerate() {
            let (expected, solo_runner) = solo(scenario, 100 + i as u64, workers);
            let outcome = report.outcome(&format!("s{i}")).unwrap();
            let served = outcome.result.as_ref().unwrap();

            // Byte-identical series and quality decisions: every
            // per-frame record, and the run label (same policy).
            assert_eq!(
                expected.frames(),
                served.frames(),
                "stream {i} diverged at {workers} workers"
            );
            assert_eq!(expected.label(), served.label());

            // Byte-identical safety verdicts.
            let solo_mon = solo_runner.monitor();
            let served_mon = outcome.monitor.as_ref().unwrap();
            assert_eq!(solo_mon.cycles(), served_mon.cycles());
            assert_eq!(solo_mon.actions(), served_mon.actions());
            assert_eq!(solo_mon.misses(), served_mon.misses());
            assert_eq!(solo_mon.fallbacks(), served_mon.fallbacks());
            assert_eq!(solo_mon.worst_margin(), served_mon.worst_margin());
            assert_eq!(solo_mon.all_safe(), served_mon.all_safe());
        }
    }
}

/// Admission decisions do not depend on the pool width.
///
/// Table-app kernels are no-ops, so phase 1 finishes before the pool's
/// fork threshold and runs on the calling thread at every worker count;
/// the pixel identity test in `integration_parallel.rs` checks phase 1
/// on the resident workers.
#[test]
fn admission_sequence_is_identical_across_worker_counts() {
    // Five streams against 2.2 cores: a genuine overload with mixed
    // priorities, so every decision kind appears.
    let make_specs = || -> Vec<StreamSpec> {
        let priorities = [2u8, 9, 4, 9, 0];
        (0..5)
            .map(|i| {
                StreamSpec::builder(format!("s{i}"))
                    .priority(priorities[i])
                    .seed(7 + i as u64)
                    .config(config())
                    .source(PacedSource::new(
                        LoadScenario::paper_benchmark(20 + i as u64).truncated(12),
                    ))
                    .build()
            })
            .collect()
    };

    let reference = ServerConfig::new(1)
        .capacity(2.2)
        .build()
        .serve(make_specs(), table_apps(MB), stochastic_backends())
        .unwrap();
    let ref_seq = reference.admission().sequence();
    // Overload really happened and produced a mixed outcome.
    assert!(reference.admission().rejected() + reference.admission().degraded() > 0);
    assert!(reference.admission().admitted() > 0);

    for workers in [2usize, 8] {
        let report = ServerConfig::new(workers)
            .capacity(2.2)
            .build()
            .serve(make_specs(), table_apps(MB), stochastic_backends())
            .unwrap();
        assert_eq!(
            report.admission().sequence(),
            ref_seq,
            "admission diverged at {workers} workers"
        );
        // Outcome decisions (in submission order) are identical too.
        for (a, b) in reference.outcomes().iter().zip(report.outcomes()) {
            assert_eq!(a.decision, b.decision, "stream {}", a.name);
        }
    }
    // And the sequence is deterministic under repetition.
    let again = ServerConfig::new(1)
        .capacity(2.2)
        .build()
        .serve(make_specs(), table_apps(MB), stochastic_backends())
        .unwrap();
    assert_eq!(again.admission().sequence(), ref_seq);
}

#[test]
fn overloaded_server_serves_high_priority_adversarial_streams_safely() {
    // Four adversarial streams fighting for ~2.5 cores: the highest
    // priorities win, and every admitted stream keeps the paper's
    // guarantees even under the worst-case load shapes.
    let make_specs = || -> Vec<StreamSpec> {
        let priorities = [9u8, 7, 2, 1];
        (0..4)
            .map(|i| {
                StreamSpec::builder(format!("adv{i}"))
                    .priority(priorities[i])
                    .seed(50 + i as u64)
                    .config(config())
                    .source(PacedSource::new(
                        LoadScenario::adversarial(60 + i as u64).truncated(40),
                    ))
                    .build()
            })
            .collect()
    };
    let server = ServerConfig::new(4).capacity(2.5).build();
    let report = server
        .serve(make_specs(), table_apps(MB), stochastic_backends())
        .unwrap();

    // Deterministic split under overload: the two high-priority streams
    // are admitted at full quality, the rest degrade or are rejected.
    assert_eq!(
        report.outcome("adv0").unwrap().decision,
        AdmissionDecision::Admit
    );
    assert!(report.admission().rejected() + report.admission().degraded() >= 1);

    for outcome in report.outcomes() {
        if let Some(result) = &outcome.result {
            assert_eq!(result.skips(), 0, "{}: {}", outcome.name, result.summary());
            assert_eq!(result.misses(), 0, "{}", outcome.name);
            assert!(outcome.monitor.as_ref().unwrap().all_safe());
            if let AdmissionDecision::Degrade(cap) = outcome.decision {
                assert!(
                    result.mean_quality() <= f64::from(cap.level()) + 1e-9,
                    "{} exceeded its ceiling",
                    outcome.name
                );
            }
        }
    }

    // Counters are exposed and consistent.
    let adm = report.admission();
    assert_eq!(
        adm.admitted() + adm.degraded() + adm.rejected(),
        report.outcomes().len()
    );
    assert!(adm.granted_utilization() <= adm.capacity() + 1e-9);
}

/// Runs the paper-default churn storm (Poisson arrivals, heavy-tailed
/// lifetimes, a flash crowd, mid-life detaches) on a session over
/// `workers` resident pool threads.
fn run_storm(workers: usize, capacity: f64, seed: u64) -> ServeReport {
    use fine_grain_qos::sim::exec::StochasticLoad;
    let server = ServerConfig::new(workers).capacity(capacity).build();
    let mut session = server.session(
        |scenario, _spec| TableApp::with_macroblocks(scenario, MB),
        |spec: &StreamSpec| {
            Box::new(ModelBackend::new(StochasticLoad::new(spec.seed))) as Box<dyn ExecBackend>
        },
    );
    session
        .run_script(ChurnStorm::paper_default(seed).events())
        .unwrap();
    session.run_to_completion().unwrap();
    session.finish()
}

/// A churn storm serves byte-identically at any pool width.
///
/// Table-app kernels are no-ops, so phase 1 finishes before the pool's
/// fork threshold and runs on the calling thread at every worker count;
/// the pixel identity test in `integration_parallel.rs` checks phase 1
/// on the resident workers.
#[test]
fn churn_storm_is_byte_identical_across_worker_counts() {
    // An overloaded storm: 18 arrivals against 3 cores, so admissions,
    // rejections, parked streams and release-driven re-admissions all
    // occur — and none of it may depend on the pool width.
    let reference = run_storm(1, 3.0, 5);
    let adm = reference.admission();
    assert!(
        adm.lifecycle().detached > 0,
        "storm should detach streams mid-life"
    );
    assert!(
        adm.lifecycle().readmitted + adm.lifecycle().upgraded > 0,
        "departures should re-admit or upgrade someone"
    );

    for workers in [2usize, 8] {
        let report = run_storm(workers, 3.0, 5);
        assert_eq!(
            report.admission().sequence(),
            adm.sequence(),
            "admission log diverged at {workers} workers"
        );
        assert_eq!(report.admission().lifecycle(), adm.lifecycle());
        assert_eq!(report.ticks(), reference.ticks());
        assert_eq!(report.outcomes().len(), reference.outcomes().len());
        for (a, b) in reference.outcomes().iter().zip(report.outcomes()) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.decision, b.decision, "stream {}", a.name);
            assert_eq!(a.detached, b.detached, "stream {}", a.name);
            match (&a.result, &b.result) {
                (Some(ra), Some(rb)) => {
                    assert_eq!(ra.frames(), rb.frames(), "stream {} diverged", a.name);
                    assert_eq!(ra.label(), rb.label());
                }
                (None, None) => {}
                _ => panic!("stream {} ran in one configuration only", a.name),
            }
        }
    }
}

#[test]
fn detaching_a_hog_readmits_degraded_streams_in_priority_order() {
    use fine_grain_qos::sim::exec::StochasticLoad;
    // 2.1 cores: the p9 hog admits at full (~1.37); the p5 stream
    // degrades into the ~0.73 remainder (q2 ceiling); the p1 stream
    // finds no room and parks.
    let server = ServerConfig::new(2).capacity(2.1).build();
    let mut session = server.session(
        |scenario, _spec| TableApp::with_macroblocks(scenario, MB),
        |spec: &StreamSpec| {
            Box::new(ModelBackend::new(StochasticLoad::new(spec.seed))) as Box<dyn ExecBackend>
        },
    );
    let spec = |name: &str, priority: u8, seed: u64| {
        StreamSpec::builder(name)
            .priority(priority)
            .seed(seed)
            .config(config())
            .source(PacedSource::new(
                LoadScenario::paper_benchmark(seed).truncated(16),
            ))
            .build()
    };
    assert_eq!(
        session.attach(spec("hog", 9, 6)).unwrap(),
        AdmissionDecision::Admit
    );
    assert!(matches!(
        session.attach(spec("mid", 5, 7)).unwrap(),
        AdmissionDecision::Degrade(_)
    ));
    assert_eq!(
        session.attach(spec("low", 1, 8)).unwrap(),
        AdmissionDecision::Reject
    );
    assert_eq!(session.waiting(), 1);

    for _ in 0..5 {
        assert!(session.step().unwrap());
    }
    session.detach("hog").unwrap();

    // Priority order: the freed ~1.37 cores go to p5 first (upgraded to
    // a full admit), and only the remainder to p1, which re-admits
    // degraded — not the other way around.
    assert_eq!(session.waiting(), 0, "the parked stream must re-admit");
    let adm = session.admission();
    assert_eq!(adm.lifecycle().upgraded, 1);
    assert_eq!(adm.lifecycle().readmitted, 1);
    let seq = adm.sequence();
    assert_eq!(
        seq[1].1,
        AdmissionDecision::Admit,
        "p5 takes the hog's cores"
    );
    assert!(
        matches!(seq[2].1, AdmissionDecision::Degrade(_)),
        "p1 re-admits into the remainder, not ahead of p5"
    );

    session.run_to_completion().unwrap();
    let report = session.finish();
    assert_eq!(
        report.outcome("mid").unwrap().decision,
        AdmissionDecision::Admit
    );
    // When `mid` later finishes naturally, its release upgrades `low`
    // once more: the final grant is a full admit.
    assert_eq!(
        report.outcome("low").unwrap().decision,
        AdmissionDecision::Admit
    );
    assert_eq!(report.admission().lifecycle().upgraded, 2);
    // Everyone who ran kept the paper's guarantees throughout.
    assert!(report.all_safe());
    for outcome in report.outcomes() {
        if let Some(result) = &outcome.result {
            assert_eq!(result.misses(), 0, "{}", outcome.name);
        }
    }
    // The detached hog's result covers only its delivered frames.
    let hog = report.outcome("hog").unwrap();
    assert!(hog.detached);
    assert!(hog.result.as_ref().unwrap().frames().len() < 16);
}

#[test]
fn budget_sourced_streams_serve_identically_to_solo() {
    // The same simulated channel (floor above the worst-case minimal-
    // quality cost, cap at the full deadline) drives every stream; the
    // served results must be byte-identical to solo runs with the same
    // (source, seed) at every worker count, and the moving budget must
    // never trigger a full table rebuild.
    let scenarios = scenarios();
    let params = ChannelParams::adversarial(1_200_000, 3_200_000, 9);
    let budget_config = config().with_budget_source(BudgetSpec::Channel(params));
    for workers in [1usize, 2, 8] {
        let server = ServerConfig::new(workers).capacity(64.0).build();
        let specs: Vec<StreamSpec> = scenarios
            .iter()
            .enumerate()
            .map(|(i, s)| {
                StreamSpec::builder(format!("s{i}"))
                    .priority((i % 3) as u8)
                    .seed(100 + i as u64)
                    .config(budget_config)
                    .source(PacedSource::new(s.clone()))
                    .build()
            })
            .collect();
        let report = server
            .serve(specs, table_apps(MB), stochastic_backends())
            .unwrap();
        for (i, scenario) in scenarios.iter().enumerate() {
            let app = TableApp::with_macroblocks(scenario.clone(), MB).unwrap();
            let mut runner = Runner::new(app, budget_config).unwrap();
            let expected = runner
                .run_parallel(&mut MaxQuality::new(), 100 + i as u64, workers)
                .unwrap();
            let outcome = report.outcome(&format!("s{i}")).unwrap();
            let served = outcome.result.as_ref().unwrap();
            assert_eq!(
                expected.frames(),
                served.frames(),
                "stream {i} diverged from solo at {workers} workers"
            );
            assert_eq!(outcome.envelope_builds, 1, "stream {i}");
            assert_eq!(
                outcome.table_builds, 0,
                "stream {i}: a moving budget must stay on the parametric path"
            );
        }
    }

    // The channel actually moved the budgets: a constant-budget run of
    // stream 0 decides differently.
    let app = TableApp::with_macroblocks(scenarios[0].clone(), MB).unwrap();
    let mut runner = Runner::new(app, config()).unwrap();
    let constant = runner.run_parallel(&mut MaxQuality::new(), 100, 1).unwrap();
    let app = TableApp::with_macroblocks(scenarios[0].clone(), MB).unwrap();
    let mut runner = Runner::new(app, budget_config).unwrap();
    let sourced = runner.run_parallel(&mut MaxQuality::new(), 100, 1).unwrap();
    assert_ne!(
        constant.frames(),
        sourced.frames(),
        "the channel source must actually tighten budgets"
    );
}

#[test]
fn trace_and_channel_sources_serve_identically_to_paced() {
    let scenario = LoadScenario::paper_benchmark(77).truncated(20);
    let run = |source: Box<dyn FrameSource>| -> StreamResult {
        let server = ServerConfig::new(2).capacity(64.0).build();
        let spec = StreamSpec::builder("s")
            .priority(1)
            .seed(42)
            .config(config())
            .boxed_source(source)
            .build();
        let report = server
            .serve(vec![spec], table_apps(MB), stochastic_backends())
            .unwrap();
        report.outcome("s").unwrap().result.clone().unwrap()
    };

    let paced = run(Box::new(PacedSource::new(scenario.clone())));

    let trace = run(Box::new(
        TraceSource::from_csv(&scenario.to_trace_csv()).unwrap(),
    ));
    assert_eq!(paced.frames(), trace.frames());

    let (producer, channel) = ChannelSource::new();
    let feeder = {
        let scenario = scenario.clone();
        std::thread::spawn(move || producer.feed_scenario(&scenario))
    };
    let channel = run(Box::new(channel));
    assert!(feeder.join().unwrap());
    assert_eq!(paced.frames(), channel.frames());
}
