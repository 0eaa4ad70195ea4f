//! Network-coupled budgets demo: streams whose per-frame time budgets
//! ride simulated network channels, plus the lag-driven ceiling
//! feedback loop.
//!
//! Phase 1 serves two table streams over one pool, each with its own
//! [`BudgetSpec::Channel`]: `wire` rides a well-behaved access channel,
//! `cliff` rides a hostile one whose bandwidth cliffs repeatedly tighten
//! the budget toward the floor. The fine-grain controller absorbs the
//! channel jitter frame by frame — quality drops across each cliff
//! instead of the deadline being missed — and because feasibility at a
//! never-seen budget is one envelope evaluation on the
//! budget-parametric tables, the moving budgets cost *zero* full table
//! rebuilds (printed per stream).
//!
//! Phase 2 closes the other loop: a pixel stream is served into a small
//! frame ring with one chronically slow subscriber, and
//! [`FeedbackConfig`] turns the ring's lag statistics into admission
//! actions — the stream's quality ceiling is deterministically lowered
//! while the subscriber lags (`lifecycle.downgraded`,
//! `budget.feedback_downgrades`) and regranted once it catches up
//! (`lifecycle.upgraded`).
//!
//! Run with `cargo run --release --example channel_server`.

use fine_grain_qos::encoder::app::EncoderApp;
use fine_grain_qos::prelude::*;
use fine_grain_qos::sim::scenario::FrameInfo;

const MB: usize = 8;
/// Channel band in cycles: the floor keeps the minimal quality feasible
/// (worst case at q0 is well below it), the cap matches the deadline.
const FLOOR: u64 = 1_200_000;
const CAP: u64 = 3_200_000;

fn channel_spec(name: &str, priority: u8, seed: u64, params: ChannelParams) -> StreamSpec {
    StreamSpec::builder(name)
        .priority(priority)
        .seed(seed)
        .config(
            RunConfig::paper_defaults()
                .scaled_to_macroblocks(MB)
                .with_budget_source(BudgetSpec::Channel(params)),
        )
        .source(PacedSource::new(
            LoadScenario::paper_benchmark(seed).truncated(80),
        ))
        .build()
}

fn serve_channels() -> Result<(), Box<dyn std::error::Error>> {
    println!("=== phase 1: budgets sourced from simulated channels ===");
    let steady = ChannelParams::steady(FLOOR, CAP, 5);
    let hostile = ChannelParams::adversarial(FLOOR, CAP, 9);
    println!(
        "channel band [{FLOOR}, {CAP}] cycles; `wire` steady, `cliff` adversarial \
         (frequent bandwidth cliffs, loss backoff, RTT recovery)\n"
    );

    let server = ServerConfig::new(2).capacity(64.0).build();
    let report = server.serve(
        vec![
            channel_spec("wire", 5, 1, steady),
            channel_spec("cliff", 3, 2, hostile),
        ],
        table_apps(MB),
        stochastic_backends(),
    )?;
    for o in report.outcomes() {
        let res = o.result.as_ref().expect("admitted");
        println!(
            "{:<6} mean quality {:.2}, skips {}, misses {}, envelope builds {}, \
             full table rebuilds {}",
            o.name,
            res.mean_quality(),
            res.skips(),
            res.misses(),
            o.envelope_builds,
            o.table_builds,
        );
    }
    println!(
        "\nthe hostile channel costs quality, never safety — and a budget that\n\
         moves every frame still rebuilds zero tables.\n"
    );
    Ok(())
}

/// Pixel workload for the feedback phase: short GOPs so the small ring
/// trims nearly every tick once the subscriber falls behind.
const W: usize = 48;
const H: usize = 32;
const FRAMES: usize = 64;
const GOP: usize = 2;
/// Ticks of the congested phase (subscriber drains every 6th tick).
const SLOW_PHASE: usize = 30;

fn gop_scenario(seed: u64) -> LoadScenario {
    let infos = (0..FRAMES)
        .map(|i| FrameInfo {
            scene: i / GOP,
            index_in_scene: i % GOP,
            is_iframe: i.is_multiple_of(GOP),
            activity: 0.85 + 0.1 * ((i as u64 * 7 + seed) % 10) as f64 / 10.0,
            motion: 0.3,
            texture: 0.5,
            psnr_base: 36.0,
            budget_cycles: None,
        })
        .collect();
    LoadScenario::from_frames(infos).expect("valid scenario")
}

fn serve_feedback() -> Result<(), Box<dyn std::error::Error>> {
    println!("=== phase 2: ring lag feeds back into the quality ceiling ===");
    let server = ServerConfig::new(2)
        .capacity(1e6)
        .ring(RingConfig::frames(2))
        .feedback(FeedbackConfig {
            lag_frames: 1,
            lag_windows: 1,
            clear_windows: 8,
        })
        .telemetry(true)
        .build();
    let mut session = server.session(
        |scn, spec: &StreamSpec| EncoderApp::new(scn, W, H, spec.seed),
        |spec: &StreamSpec| Box::new(EncoderApp::work_backend(spec.seed)) as Box<dyn ExecBackend>,
    );
    let mb = (W / 16) * (H / 16);
    session.attach(
        StreamSpec::builder("uplink")
            .priority(5)
            .seed(31)
            .config(RunConfig::paper_defaults().scaled_to_macroblocks(mb))
            .source(PacedSource::new(gop_scenario(31)))
            .build(),
    )?;
    let mut sub = session.subscribe("uplink")?;

    let (mut downgrades, mut upgrades) = (0usize, 0usize);
    let mut ticks = 0usize;
    while session.step()? {
        ticks += 1;
        // A congested consumer for the first SLOW_PHASE ticks, then one
        // that keeps up: lag accumulates, the ceiling drops, the lag
        // clears, the ceiling comes back.
        if ticks >= SLOW_PHASE || ticks.is_multiple_of(6) {
            sub.drain();
        }
        let l = session.admission().lifecycle();
        if l.downgraded > downgrades {
            downgrades = l.downgraded;
            println!("tick {ticks}: chronic subscriber lag -> ceiling lowered (restrict)");
        }
        if l.upgraded > upgrades {
            upgrades = l.upgraded;
            println!("tick {ticks}: lag cleared -> capacity regranted");
        }
    }

    let report = session.finish();
    let snap = report.snapshot();
    println!("\nfeedback trajectory, from the stable telemetry:");
    for name in [
        "budget.feedback_downgrades",
        "lifecycle.downgraded",
        "lifecycle.upgraded",
    ] {
        println!("  {name} = {}", snap.counter(name).unwrap_or(0));
    }
    println!(
        "final decision for `uplink`: {:?} (all safe: {})\n",
        report.outcome("uplink").expect("outcome").decision,
        report.all_safe()
    );
    print!("{}", report.summary());
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    serve_channels()?;
    serve_feedback()
}
