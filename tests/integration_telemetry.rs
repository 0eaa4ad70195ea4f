//! Integration tests of the unified telemetry plane's determinism
//! contract.
//!
//! Telemetry is observe-only by construction; these tests enforce it
//! end to end:
//!
//! * serving with telemetry enabled leaves every per-stream result,
//!   admission decision and safety verdict byte-identical to serving
//!   with it disabled, at workers 1, 2 and 8;
//! * on the virtual-clock runtime, the *stable* section of the
//!   exported snapshot is identical across worker counts (runtime
//!   metrics — wall latencies, steals, per-worker busy time — are
//!   excluded by the `Stability` partition, not by luck);
//! * the human `ServeReport::summary()` is a pure rendering of the
//!   snapshot, pinned by a golden file.

use fine_grain_qos::prelude::*;

const MB: usize = 8;

fn config() -> RunConfig {
    RunConfig::paper_defaults().scaled_to_macroblocks(MB)
}

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

fn serve(workers: usize, capacity: f64, telemetry: bool) -> ServeReport {
    ServerConfig::new(workers)
        .capacity(capacity)
        .telemetry(telemetry)
        .build()
        .serve(specs(&scenarios()), table_apps(MB), stochastic_backends())
        .unwrap()
}

#[test]
fn telemetry_leaves_serving_byte_identical() {
    for workers in [1usize, 2, 8] {
        let off = serve(workers, 64.0, false);
        let on = serve(workers, 64.0, true);

        // Admission log: same decisions, in the same order.
        assert_eq!(
            off.admission().sequence(),
            on.admission().sequence(),
            "admission diverged at {workers} workers"
        );

        for (o, t) in off.outcomes().iter().zip(on.outcomes()) {
            assert_eq!(o.name, t.name);
            assert_eq!(o.decision, t.decision);

            // Per-frame series and quality decisions.
            let (ro, rt) = (o.result.as_ref().unwrap(), t.result.as_ref().unwrap());
            assert_eq!(
                ro.frames(),
                rt.frames(),
                "stream {} diverged at {workers} workers",
                o.name
            );
            assert_eq!(ro.label(), rt.label());

            // Safety verdicts.
            let (mo, mt) = (o.monitor.as_ref().unwrap(), t.monitor.as_ref().unwrap());
            assert_eq!(mo.cycles(), mt.cycles());
            assert_eq!(mo.misses(), mt.misses());
            assert_eq!(mo.fallbacks(), mt.fallbacks());
            assert_eq!(mo.worst_margin(), mt.worst_margin());
            assert_eq!(mo.all_safe(), mt.all_safe());
        }

        // The rendered report (one rendering pipeline, telemetry on or
        // off) agrees to the byte.
        assert_eq!(off.summary(), on.summary());
    }
}

/// The stable view of the registry does not depend on the pool width.
///
/// Table-app kernels are no-ops, so phase 1 finishes before the pool's
/// fork threshold and runs on the calling thread at every worker count;
/// the pixel identity test in `integration_parallel.rs` checks phase 1
/// on the resident workers.
#[test]
fn stable_snapshot_is_identical_across_worker_counts() {
    let reference = serve(1, 64.0, true).snapshot().stable_view().to_json();
    for workers in [2usize, 8] {
        let snap = serve(workers, 64.0, true).snapshot();
        assert_eq!(
            snap.stable_view().to_json(),
            reference,
            "stable snapshot diverged at {workers} workers"
        );
        // Sanity: the full snapshot does carry runtime metrics (the
        // worker gauge at least), so the stable view is a real filter,
        // not the whole thing.
        assert_eq!(snap.gauge("serve.workers"), Some(workers as u64));
        assert!(snap.len() > snap.stable_view().len());
    }
}

/// An overloaded 5-stream batch exercising every admission decision
/// kind, pinned against `tests/golden/serve_summary.txt`. The summary
/// is rendered *from the telemetry snapshot*, so this golden file also
/// pins the snapshot's admission counters.
fn overload_report(telemetry: bool) -> ServeReport {
    let priorities = [2u8, 9, 4, 9, 0];
    let specs: Vec<StreamSpec> = (0..5)
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
        .collect();
    ServerConfig::new(2)
        .capacity(2.2)
        .telemetry(telemetry)
        .build()
        .serve(specs, table_apps(MB), stochastic_backends())
        .unwrap()
}

#[test]
fn summary_matches_golden_file() {
    let golden = include_str!("golden/serve_summary.txt");
    // Identical rendering with telemetry on and off: the summary reads
    // the snapshot, and the snapshot's stable admission counters do not
    // depend on whether the live registry was recording.
    for telemetry in [false, true] {
        let report = overload_report(telemetry);
        assert_eq!(report.summary(), golden, "telemetry={telemetry}");
        // First line is the admission snapshot rendering plus the pool
        // width — the two views share one formatter.
        let first = report.summary().lines().next().unwrap().to_string();
        assert_eq!(
            first,
            format!(
                "{} ({} workers)",
                report.admission().summary(),
                report.workers()
            )
        );
    }
}

#[test]
fn snapshot_round_trips_through_json() {
    let snap = overload_report(true).snapshot();
    let parsed = TelemetrySnapshot::from_json(&snap.to_json()).unwrap();
    assert_eq!(parsed.to_json(), snap.to_json());
    assert!(snap.counter("admission.admitted").unwrap() > 0);
    assert!(snap.counter("serve.ticks").unwrap() > 0);
    assert!(snap.counter("controller.frames").unwrap() > 0);
}
