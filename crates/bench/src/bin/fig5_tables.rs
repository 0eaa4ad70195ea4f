//! Fig. 5: the per-action execution-time tables, plus a calibration check
//! that the simulator's stochastic load model and the pixel encoder's
//! work-driven timing actually reproduce the declared averages.

use fgqos_bench::ExpConfig;
use fgqos_graph::ActionId;
use fgqos_sim::app::{fig2_body, fig2_profile};
use fgqos_sim::exec::{ExecCtx, ExecTimeModel, StochasticLoad};
use fgqos_time::{fig5, Quality};

fn main() {
    let cfg = ExpConfig::from_args();
    println!("== Figure 5: execution-time tables (cycles) ==\n");
    println!("Motion_Estimate:");
    println!("{:>8} {:>12} {:>12}", "quality", "average", "worst case");
    for (q, (avg, wc)) in fig5::MOTION_ESTIMATE_TIMES.iter().enumerate() {
        println!("{q:>8} {avg:>12} {wc:>12}");
    }
    println!("\nQuality-independent actions:");
    println!("{:<36} {:>12} {:>12}", "action", "average", "worst case");
    for (name, avg, wc) in fig5::FIXED_ACTION_TIMES {
        println!("{name:<36} {avg:>12} {wc:>12}");
    }

    println!(
        "\nDerived frame-level arithmetic (N = {} macroblocks):",
        cfg.macroblocks
    );
    let p_eff =
        fig5::PERIOD_CYCLES as f64 * cfg.macroblocks as f64 / fig5::MACROBLOCKS_PER_FRAME as f64;
    for q in 0..8u8 {
        let frame_avg = fig5::macroblock_avg_cycles(q) * cfg.macroblocks as u64;
        println!(
            "  constant q={q}: mean frame cost {:>7.1} Mcy ({:.2} of P)",
            frame_avg as f64 / 1e6,
            frame_avg as f64 / p_eff
        );
    }
    println!(
        "  worst case at q_min: {:.1} Mcy (schedulability precondition vs P = {} Mcy)",
        fig5::macroblock_worst_cycles(0) as f64 * cfg.macroblocks as f64 / 1e6,
        fig5::PERIOD_CYCLES / 1_000_000
    );

    // Calibration: the stochastic model's sample mean per action/quality.
    println!("\nMeasured sample means of the stochastic load model (activity = 1.0):");
    let body = fig2_body();
    let profile = fig2_profile();
    let mut model = StochasticLoad::new(cfg.seed);
    println!(
        "{:<36} {:>4} {:>12} {:>12} {:>8}",
        "action", "q", "declared", "measured", "error"
    );
    for a in body.ids() {
        for q in [0u8, 3, 7] {
            let avg = profile.avg(a, q);
            let worst = profile.worst(a, q);
            let n = 4000;
            let sum: u64 = (0..n)
                .map(|i| {
                    model
                        .sample(&ExecCtx {
                            action: ActionId::from_index(a.index()),
                            iteration: i,
                            quality: Quality::new(q),
                            avg,
                            worst,
                            activity: 1.0,
                            work_units: None,
                        })
                        .get()
                })
                .sum();
            let measured = sum as f64 / f64::from(n as u32);
            let declared = avg.get() as f64;
            println!(
                "{:<36} {q:>4} {declared:>12.0} {measured:>12.0} {:>7.1}%",
                body.name(a),
                (measured - declared) / declared * 100.0
            );
        }
    }
    println!("\n(declared: the paper's Fig. 5 averages; error: measured vs declared)");
}
