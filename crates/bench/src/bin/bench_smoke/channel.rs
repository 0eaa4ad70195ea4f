//! Network-coupled budgets (`BENCH_channel.json`): the controller across
//! a bandwidth cliff. Three gates: (a) the channel really cliffs (max
//! grant ≥ 2× min grant over the run), (b) the controlled
//! channel-sourced run stays safe — zero skips, misses and grant
//! overruns — on one envelope build and zero full table builds, while
//! the constant-q baseline on the *same* channel overruns its grants,
//! and (c) swapping the budget source in costs at most `CH_TOLERANCE`×
//! the constant-budget twin.

use std::time::{Duration, Instant};

use fgqos_core::policy::MaxQuality;
use fgqos_sim::app::TableApp;
use fgqos_sim::budget::{BudgetSpec, ChannelBudget, ChannelParams};
use fgqos_sim::runner::{RunConfig, Runner, StreamResult};
use fgqos_sim::scenario::LoadScenario;
use fgqos_telemetry::json::{JsonObj, JsonValue};
use fgqos_time::Quality;

use crate::harness::{ms, ratio, twins, Section};

/// A table workload riding a hostile simulated channel whose band keeps
/// the minimal quality feasible (q0's worst case at this scale is well
/// under the floor) while its cliffs make the top qualities infeasible —
/// the regime where the controller's channel response matters.
const CH_MB: usize = 10;
const CH_FRAMES: usize = 240;
const CH_FLOOR: u64 = 1_500_000;
const CH_CAP: u64 = 3_200_000;
/// Seed of the channel's own random process (cliff placement).
const CH_SEED: u64 = 9;
/// Seed of the stochastic execution-time model.
const CH_RUN_SEED: u64 = 11;
/// Quality level of the uncontrolled baseline that must collapse.
const CH_CONSTANT_Q: u8 = 7;
/// Budget-swap overhead tolerance: sourcing every frame's budget from
/// the channel is one O(log segments) envelope evaluation per frame on
/// the parametric tables, so a channel-sourced controlled run must stay
/// within this factor of its constant-budget twin.
const CH_TOLERANCE: f64 = 1.2;

fn channel_runner(budget: BudgetSpec) -> Runner<TableApp> {
    let scenario = LoadScenario::paper_benchmark(5).truncated(CH_FRAMES);
    let app = TableApp::with_macroblocks(scenario, CH_MB).expect("app");
    let config = RunConfig::paper_defaults()
        .scaled_to_macroblocks(CH_MB)
        .with_budget_source(budget);
    Runner::new(app, config).expect("runner")
}

/// Timed reps per twin. One run lasts only 3–6 ms, so a best-of-few
/// ratio moved by ±10% with host drift between the two twins' blocks
/// of reps; many alternating reps give both twins the same host.
const CH_REPS: usize = 100;

/// One timed controlled run under `budget`; returns the wall time with
/// the (deterministic) result and the envelope/table build counters.
fn channel_controlled(budget: BudgetSpec) -> (Duration, (StreamResult, (u64, u64))) {
    let mut r = channel_runner(budget);
    let start = Instant::now();
    let res = r
        .run_controlled(&mut MaxQuality::new(), CH_RUN_SEED)
        .expect("controlled run");
    let wall = start.elapsed();
    (wall, (res, (r.envelope_builds(), r.full_table_builds())))
}

/// A channel overrun is a frame whose encode time exceeds its grant.
/// The uncontrolled baseline ignores budgets entirely but its records
/// still carry the grants, so the same predicate prices both runs.
fn overruns(res: &StreamResult) -> usize {
    res.frames()
        .iter()
        .filter(|f| !f.skipped && f.budget.is_finite() && f.encode_cycles > f.budget)
        .count()
}

pub fn run() -> Section {
    let params = ChannelParams::adversarial(CH_FLOOR, CH_CAP, CH_SEED);
    let mut probe = ChannelBudget::new(params);
    let series: Vec<u64> = (0..CH_FRAMES).map(|f| probe.budget_at(f).get()).collect();
    let grant_min = *series.iter().min().expect("nonempty series");
    let grant_max = *series.iter().max().expect("nonempty series");
    let cliff = grant_max as f64 / grant_min.max(1) as f64;

    let ((t_ch, (res, (env_builds, tbl_builds))), (t_const, _)) = twins(
        CH_REPS,
        || channel_controlled(BudgetSpec::Channel(params)),
        || channel_controlled(BudgetSpec::Constant),
    );
    let overhead = ratio(t_ch, t_const);

    let violations = overruns(&res);
    let cq_res = channel_runner(BudgetSpec::Channel(params))
        .run_constant(Quality::new(CH_CONSTANT_Q), CH_RUN_SEED)
        .expect("constant-q run");
    let cq_violations = overruns(&cq_res);

    // Fallbacks are reported, not gated: dropping to the minimal
    // quality mid-frame IS the designed response when a cliff makes the
    // declared worst case infeasible — safety means no skip, no miss,
    // and no grant overrun.
    let safe = res.skips() == 0 && res.misses() == 0 && violations == 0;
    let pass = cliff >= 2.0
        && safe
        && env_builds == 1
        && tbl_builds == 0
        && cq_violations > 0
        && overhead <= CH_TOLERANCE;
    let json = JsonObj::new()
        .str(
            "workload",
            &format!(
                "table {CH_MB} macroblocks, {CH_FRAMES} frames, \
                 adversarial channel [{CH_FLOOR}, {CH_CAP}] cycles"
            ),
        )
        .obj(
            "channel",
            JsonObj::new()
                .int("min_grant_cycles", grant_min)
                .int("max_grant_cycles", grant_max)
                .fixed("cliff_depth", cliff, 3),
        )
        .obj(
            "controlled_channel",
            JsonObj::new()
                .fixed("wall_ms", ms(t_ch), 3)
                .fixed("mean_quality", res.mean_quality(), 3)
                .int("skips", res.skips() as u64)
                .int("misses", res.misses() as u64)
                .int("fallbacks", res.fallbacks() as u64)
                .int("budget_violations", violations as u64)
                .int("envelope_builds", env_builds)
                .int("full_table_builds", tbl_builds),
        )
        .obj(
            "constant_q_channel",
            JsonObj::new()
                .int("quality", u64::from(CH_CONSTANT_Q))
                .fixed("mean_quality", cq_res.mean_quality(), 3)
                .int("budget_violations", cq_violations as u64),
        )
        .obj(
            "overhead",
            JsonObj::new()
                .fixed("channel_wall_ms", ms(t_ch), 3)
                .fixed("constant_wall_ms", ms(t_const), 3)
                .fixed("ratio", overhead, 3)
                .int("reps_per_twin", CH_REPS as u64)
                .set("tolerance", JsonValue::Float(CH_TOLERANCE)),
        )
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
            "network-coupled budgets lost a gate (cliff depth {cliff:.3} vs \
             minimum 2.0, controlled skips {} misses {} overruns {violations}, \
             envelope builds {env_builds}, full table builds {tbl_builds}, \
             constant-q overruns {cq_violations}, overhead ratio {overhead:.3} vs \
             tolerance {CH_TOLERANCE})",
            res.skips(),
            res.misses()
        )]
    };
    Section {
        file: "BENCH_channel.json",
        json,
        failures,
        ..Section::default()
    }
}
