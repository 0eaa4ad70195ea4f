//! Tool-chain integration: spec → compile → controller → execution, plus
//! codegen consistency with the live tables.

use fine_grain_qos::prelude::*;
use fine_grain_qos::time::fig5;
use fine_grain_qos::tool::compile::compile;
use fine_grain_qos::tool::{codegen, ToolSpec};

/// The checked-in golden module emitted by `fgqos-tool` for the paper
/// encoder at 2 macroblocks / 1 Mcycle budget. Including it here means
/// the generated source is *compiled* on every test run, not just
/// string-compared; [`golden_generated_module_is_current`] keeps the file
/// in sync with codegen and [`golden_module_agrees_with_live_tables`]
/// checks its semantics.
#[allow(dead_code, clippy::all)]
mod generated {
    include!("golden/generated_controller.rs");
}

/// The second golden module: a budget above `i64::MAX` over two
/// iterations, so deadlines and slacks exceed the `i64` range.
#[allow(dead_code, clippy::all)]
mod generated_huge {
    include!("golden/generated_controller_huge_budget.rs");
}

const GOLDEN_MACROBLOCKS: usize = 2;
const GOLDEN_BUDGET: u64 = 1_000_000;

fn golden_app() -> fine_grain_qos::tool::compile::ControlledApp {
    compile(&ToolSpec::paper_encoder(GOLDEN_MACROBLOCKS, GOLDEN_BUDGET)).expect("compiles")
}

/// A spec the parser accepts whose budget, 10^19 cycles, is above
/// `i64::MAX`.
const HUGE_BUDGET_SPEC: &str = "\
system huge
quality 0..0
action a const 1 2
iterations 2
budget 10000000000000000000
";

fn huge_budget_app() -> fine_grain_qos::tool::compile::ControlledApp {
    compile(&ToolSpec::parse(HUGE_BUDGET_SPEC).expect("parses")).expect("compiles")
}

/// Fails when `src` differs from the golden file `name` (or rewrites the
/// file under `UPDATE_GOLDEN`).
fn assert_golden(src: &str, name: &str, golden: &str) {
    let path = format!("tests/golden/{name}");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, src).expect("update golden");
        return;
    }
    assert_eq!(
        src, golden,
        "codegen output drifted from {path};\n\
         run `UPDATE_GOLDEN=1 cargo test --test integration_tool` and commit the result"
    );
}

#[test]
fn golden_generated_module_is_current() {
    assert_golden(
        &codegen::generate_rust(&golden_app()),
        "generated_controller.rs",
        include_str!("golden/generated_controller.rs"),
    );
    assert_golden(
        &codegen::generate_rust(&huge_budget_app()),
        "generated_controller_huge_budget.rs",
        include_str!("golden/generated_controller_huge_budget.rs"),
    );
}

/// The generated comparisons are exact beyond `i64::MAX`: on the huge
/// budget spec the compiled module admits exactly what the live tables
/// admit, at elapsed times on both sides of every deadline.
#[test]
fn huge_budget_module_agrees_with_live_tables() {
    let app = huge_budget_app();
    let tables = app.tables();
    assert_eq!(generated_huge::N_ACTIONS, tables.len());
    assert_eq!(generated_huge::N_QUALITIES, tables.quality_count());
    let budget = 10_000_000_000_000_000_000u64;
    assert!(budget > i64::MAX as u64);
    let times = [
        0u64,
        1,
        3,
        i64::MAX as u64 - 1,
        i64::MAX as u64,
        i64::MAX as u64 + 1,
        budget - 3,
        budget - 2,
        budget - 1,
        budget,
        budget + 1,
        u64::MAX - 1,
    ];
    for i in 0..=tables.len() {
        for &t in &times {
            let tc = Cycles::new(t);
            for qi in 0..tables.quality_count() {
                assert_eq!(
                    generated_huge::qual_const(qi, i, t),
                    tables.qual_const(qi, i, tc),
                    "qual_const diverges at q{qi}, position {i}, t={t}"
                );
            }
            assert_eq!(
                generated_huge::max_feasible(i, t),
                tables.max_feasible(i, tc),
                "max_feasible diverges at position {i}, t={t}"
            );
        }
    }
    // The case that wrapped negative in an i64 module.
    assert_eq!(generated_huge::max_feasible(1, 3), Some(0));
}

#[test]
fn golden_module_agrees_with_live_tables() {
    let app = golden_app();
    let tables = app.tables();
    assert_eq!(generated::N_ACTIONS, tables.len());
    assert_eq!(generated::N_QUALITIES, tables.quality_count());
    for (i, a) in tables.order().iter().enumerate() {
        assert_eq!(generated::SCHEDULE[i], u32::try_from(a.index()).unwrap());
    }
    // The compiled `qual_const`/`max_feasible` agree with the live tables
    // on a grid of elapsed times spanning the whole budget and beyond.
    let times = [
        0u64, 1_000, 50_000, 200_000, 500_000, 999_999, 1_000_000, 5_000_000,
    ];
    for i in 0..=tables.len() {
        for &t in &times {
            let tc = Cycles::new(t);
            for qi in 0..tables.quality_count() {
                assert_eq!(
                    generated::qual_const(qi, i, t),
                    tables.qual_const(qi, i, tc),
                    "qual_const diverges at q{qi}, position {i}, t={t}"
                );
            }
            assert_eq!(
                generated::max_feasible(i, t),
                tables.max_feasible(i, tc),
                "max_feasible diverges at position {i}, t={t}"
            );
        }
    }
}

#[test]
fn spec_compile_run_roundtrip() {
    let n = 12;
    let budget = fig5::PERIOD_CYCLES * n as u64 / fig5::MACROBLOCKS_PER_FRAME as u64;
    let spec = ToolSpec::paper_encoder(n, budget);

    // Textual roundtrip survives compilation equivalence.
    let reparsed = ToolSpec::parse(&spec.emit()).expect("emit parses");
    assert_eq!(spec, reparsed);

    let app = compile(&spec).expect("compiles");
    let mut ctl = app.controller();
    let mut policy = MaxQuality::new();
    let mut t = Cycles::ZERO;
    let mut qualities = Vec::new();
    while let Some(d) = ctl.decide(t, &mut policy).expect("decide") {
        qualities.push(d.quality.level());
        // Adversarial: always the worst case of the chosen level.
        t += app.system().profile().worst(d.action, d.quality);
        ctl.complete(t).expect("complete");
    }
    let report = ctl.finish();
    assert_eq!(report.misses, 0, "worst-case execution must stay safe");
    assert_eq!(report.decisions, 9 * n);
    // Quality must ramp up across the frame (early macroblocks are
    // deadline-tight, later ones have accumulated slack).
    let first_mb_max = *qualities[..9].iter().max().unwrap();
    let last_mb_max = *qualities[qualities.len() - 9..].iter().max().unwrap();
    assert!(
        last_mb_max >= first_mb_max,
        "quality should not degrade with accumulated slack under worst case"
    );
}

#[test]
fn codegen_matches_live_tables_on_sampled_points() {
    let spec = ToolSpec::paper_encoder(4, 1_000_000);
    let app = compile(&spec).expect("compiles");
    let src = codegen::generate_rust(&app);
    let tables = app.tables();

    // Every wcmin budget value appears in the generated source, as the
    // raw i128 slack (`i128::MAX` for +infinity).
    for i in 0..=tables.len() {
        let encoded = tables.wcmin_budget_at(i).get();
        assert!(
            src.contains(&format!("{encoded}, ")),
            "missing WCMIN value {encoded} (position {i})"
        );
    }
    // Spot-check deadlines and worst cases for the top quality.
    let qi = tables.quality_count() - 1;
    for i in [0usize, tables.len() / 2, tables.len() - 1] {
        let d = tables.deadline_at(qi, i).get();
        let w = tables.worst_at(qi, i).get();
        assert!(src.contains(&format!("{d}, ")), "missing deadline {d}");
        assert!(src.contains(&format!("{w}, ")), "missing worst case {w}");
    }
}

#[test]
fn compiled_tables_agree_with_direct_controller() {
    // The tool's compiled controller and a controller built through the
    // public ParamSystem/EdfScheduler path must agree on every decision.
    let n = 8;
    let budget = 2_500_000u64;
    let spec = ToolSpec::paper_encoder(n, budget);
    let app = compile(&spec).expect("compiles");

    let mut direct = CycleController::new(app.system(), &EdfScheduler).expect("direct");
    let mut compiled = app.controller();
    let mut p1 = MaxQuality::new();
    let mut p2 = MaxQuality::new();
    let mut t = Cycles::ZERO;
    loop {
        let d1 = direct.decide(t, &mut p1).expect("direct decide");
        let d2 = compiled.decide(t, &mut p2).expect("compiled decide");
        match (d1, d2) {
            (None, None) => break,
            (Some(a), Some(b)) => {
                assert_eq!(a.action, b.action, "schedules diverge at {t}");
                assert_eq!(a.quality, b.quality, "qualities diverge at {t}");
                t += app.system().profile().avg(a.action, a.quality);
                direct.complete(t).expect("direct complete");
                compiled.complete(t).expect("compiled complete");
            }
            (a, b) => panic!("length mismatch: {a:?} vs {b:?}"),
        }
    }
}

#[test]
fn overhead_report_satisfies_paper_bounds_for_body_artifact() {
    use fine_grain_qos::tool::report::OverheadReport;
    let per_mb_budget = fig5::PERIOD_CYCLES / fig5::MACROBLOCKS_PER_FRAME as u64;
    let app = compile(&ToolSpec::paper_encoder(1, per_mb_budget)).expect("compiles");
    let report = OverheadReport::compute(
        &app,
        300 * 1024,
        4 * 1024 * 1024,
        fig5::macroblock_avg_cycles(3),
    );
    assert!(
        report.code_overhead <= 0.025,
        "code overhead {:.3}",
        report.code_overhead
    );
    assert!(
        report.memory_overhead <= 0.01,
        "memory overhead {:.3}",
        report.memory_overhead
    );
}
