//! Property tests for the Fig. 3 pipeline and the stream runner.

use fgqos_core::policy::MaxQuality;
use fgqos_sim::app::TableApp;
use fgqos_sim::pipeline::InputPipeline;
use fgqos_sim::runner::{RunConfig, Runner};
use fgqos_sim::scenario::{LoadScenario, SceneProfile};
use fgqos_time::Cycles;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Conservation law: every camera frame is either handed to the
    /// encoder or skipped, regardless of how long encoding takes.
    #[test]
    fn pipeline_conserves_frames(
        period in 10u64..1000,
        capacity in 1usize..4,
        total in 1usize..40,
        encode_times in proptest::collection::vec(1u64..3000, 1..60),
    ) {
        let mut pipe = InputPipeline::new(Cycles::new(period), capacity, total).unwrap();
        let mut now = Cycles::ZERO;
        let mut encoded = 0usize;
        let mut k = 0usize;
        loop {
            pipe.admit_before(now);
            let popped = pipe.pop();
            pipe.admit_through(now);
            match popped {
                Some(_) => {
                    encoded += 1;
                    let d = encode_times[k % encode_times.len()];
                    k += 1;
                    now += Cycles::new(d);
                }
                None if pipe.waiting() > 0 => continue,
                None => match pipe.next_arrival_time() {
                    Some(t) => now = t,
                    None => break,
                },
            }
        }
        prop_assert!(pipe.is_exhausted());
        prop_assert_eq!(encoded + pipe.skipped().len(), total);
        prop_assert_eq!(pipe.encoded_count(), encoded);
        // Skipped indices are strictly increasing and within range.
        for w in pipe.skipped().windows(2) {
            prop_assert!(w[0] < w[1]);
        }
        if let Some(&last) = pipe.skipped().last() {
            prop_assert!(last < total);
        }
    }

    /// Budget deadlines are always at least one period away at pop time,
    /// and meeting them really prevents skips (run with encode time ==
    /// budget: zero skips).
    #[test]
    fn meeting_the_budget_prevents_all_skips(
        period in 50u64..500,
        capacity in 1usize..3,
        total in 2usize..30,
    ) {
        let mut pipe = InputPipeline::new(Cycles::new(period), capacity, total).unwrap();
        let mut now = Cycles::ZERO;
        loop {
            pipe.admit_before(now);
            let popped = pipe.pop();
            pipe.admit_through(now);
            match popped {
                Some(_) => {
                    match pipe.budget_deadline(now) {
                        Some(deadline) => {
                            prop_assert!(deadline >= now + Cycles::new(period),
                                "budget below one period");
                            now = deadline; // finish exactly at the deadline
                        }
                        None => now += Cycles::new(period), // tail
                    }
                }
                None if pipe.waiting() > 0 => continue,
                None => match pipe.next_arrival_time() {
                    Some(t) => now = t,
                    None => break,
                },
            }
        }
        prop_assert_eq!(pipe.skipped().len(), 0, "skips despite meeting budgets");
    }

    /// Exceeding the budget by one cycle causes exactly the predicted
    /// overflow.
    #[test]
    fn missing_the_budget_causes_a_skip(period in 50u64..500, total in 6usize..20) {
        let mut pipe = InputPipeline::new(Cycles::new(period), 1, total).unwrap();
        pipe.admit_through(Cycles::ZERO);
        pipe.pop().unwrap();
        let deadline = pipe.budget_deadline(Cycles::ZERO).unwrap();
        // Blow the deadline by one cycle: the overflow arrival drops.
        let dropped = pipe.admit_through(deadline + Cycles::new(1));
        prop_assert!(!dropped.is_empty(), "no skip despite missing the budget");
    }
}

// Random scenarios: arbitrary scene structure, activity and seeds. The
// controlled encoder must never skip or miss as long as the per-frame
// worst case at q_min fits the period (which the Fig. 5 profile at our
// scaled period guarantees).
proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn controlled_runner_is_safe_on_random_scenarios(
        scene_spec in proptest::collection::vec(
            (5usize..25, 0.6f64..1.4, 0.0f64..1.0, 0.0f64..1.0),
            1..5
        ),
        seed in 0u64..1000,
        k in 1usize..3,
    ) {
        let scenes: Vec<SceneProfile> = scene_spec
            .iter()
            .map(|&(frames, base_activity, motion, texture)| SceneProfile {
                frames,
                base_activity,
                motion,
                texture,
                psnr_base: 36.0,
            })
            .collect();
        let scenario = LoadScenario::from_scenes(scenes, seed);
        let mb = 10;
        let app = TableApp::with_macroblocks(scenario, mb).unwrap();
        let config = RunConfig::paper_defaults()
            .scaled_to_macroblocks(mb)
            .with_capacity(k);
        let mut runner = Runner::new(app, config).unwrap();
        let res = runner.run_controlled(&mut MaxQuality::new(), seed).unwrap();
        prop_assert_eq!(res.skips(), 0, "{}", res.summary());
        prop_assert_eq!(res.misses(), 0, "{}", res.summary());
        prop_assert_eq!(res.fallbacks(), 0);
        // Every frame record is accounted for.
        prop_assert_eq!(res.frames().len(), runner.app().scenario().frames());
    }
}

use fgqos_sim::app::VideoApp;
use fgqos_sim::budget::{BudgetSource, ChannelBudget, ChannelParams};

// The simulated channel: for any well-formed parameter set, the budget
// of frame f is a pure function of (params, f) — two sources agree
// frame by frame, rewinding replays exactly — and every grant stays in
// the declared [floor, cap] band. The seam contract on top: a sourced
// budget can only tighten a deadline, never loosen it.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn channel_budgets_are_deterministic_and_banded(
        seed in 0u64..10_000,
        floor in 1u64..1_000,
        band in 0u64..100_000,
        shift in 0u16..300,
        loss in 0u16..300,
        rtt in 1u16..16,
        frames in 1usize..300,
        deadline in 1u64..200_000,
    ) {
        let params = ChannelParams {
            seed,
            floor_cycles: floor,
            cap_cycles: floor + band,
            shift_per_mille: shift,
            loss_per_mille: loss,
            rtt_frames: rtt,
        };
        let mut a = ChannelBudget::new(params);
        let mut b = ChannelBudget::new(params);
        for f in 0..frames {
            let x = a.budget_at(f);
            prop_assert_eq!(x, b.budget_at(f), "frame {} diverged", f);
            prop_assert!(
                x.get() >= floor && x.get() <= floor + band,
                "frame {}: {} outside [{}, {}]", f, x.get(), floor, floor + band
            );
        }
        // Rewinding replays the identical sequence.
        let mid = frames / 2;
        prop_assert_eq!(a.budget_at(mid), b.budget_at(mid));

        // min-semantics at the seam: the sourced budget never loosens
        // the pipeline deadline.
        let d = Cycles::new(deadline);
        let mut src = BudgetSource::Channel(ChannelBudget::new(params));
        for f in 0..frames.min(32) {
            let eff = src.frame_budget(f, d);
            prop_assert_eq!(eff, d.min(a.budget_at(f)), "frame {}", f);
        }
    }
}
