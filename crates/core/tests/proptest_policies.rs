//! Property tests for the quality policies: every policy respects the
//! safety envelope (never exceeds the maximal admissible level) unless it
//! is explicitly the uncontrolled baseline.

use fgqos_core::policy::{
    ConstantQuality, Hysteresis, MaxQuality, PolicyCtx, QualityPolicy, Smooth, SoftDeadline,
};
use fgqos_graph::GraphBuilder;
use fgqos_sched::ConstraintTables;
use fgqos_time::{Cycles, DeadlineMap, Quality, QualityProfile, QualitySet};
use proptest::prelude::*;

/// A one-action instance with parameterized costs/deadline; enough to
/// explore the policy decision space, since policies only see budgets.
fn make_tables(base: u64, growth: u64, deadline: u64, nq: u8) -> (ConstraintTables, QualitySet) {
    let mut b = GraphBuilder::new();
    let x = b.action("x");
    let _g = b.build().unwrap();
    let qs = QualitySet::contiguous(0, nq - 1).unwrap();
    let mut pb = QualityProfile::builder(qs.clone(), 1);
    let rows: Vec<(u64, u64)> = (0..u64::from(nq))
        .map(|q| {
            let avg = base * (1 + q * growth);
            (avg, avg * 2)
        })
        .collect();
    pb.set_levels(0, &rows).unwrap();
    let profile = pb.build().unwrap();
    let dm = DeadlineMap::uniform(qs.clone(), vec![Cycles::new(deadline)]);
    (ConstraintTables::new(vec![x], &profile, &dm).unwrap(), qs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Safety envelope: whatever the state, bounded policies choose at or
    /// below the maximal admissible level (or q_min with the fallback
    /// flag when nothing is admissible).
    #[test]
    fn bounded_policies_never_exceed_the_envelope(
        base in 1u64..200,
        growth in 1u64..4,
        deadline in 1u64..4000,
        t in 0u64..4000,
        prev in 0u8..4,
        step in 1usize..3,
        patience in 1usize..5,
    ) {
        let (tables, qs) = make_tables(base, growth, deadline, 4);
        let ctx = PolicyCtx::new(&tables, &qs, 0, Cycles::new(t), Some(Quality::new(prev)));
        let envelope = ctx.max_feasible();
        let mut policies: Vec<Box<dyn QualityPolicy>> = vec![
            Box::new(MaxQuality::new()),
            Box::new(Smooth::new(step)),
            Box::new(Hysteresis::new(patience)),
        ];
        for p in &mut policies {
            let choice = p.choose(&ctx);
            match envelope {
                Some(max_q) => {
                    prop_assert!(
                        choice.quality <= max_q,
                        "{} chose {} above envelope {}",
                        p.name(), choice.quality, max_q
                    );
                    prop_assert!(!choice.fallback);
                }
                None => {
                    prop_assert!(choice.fallback, "{} must flag fallback", p.name());
                    prop_assert_eq!(choice.quality, qs.min());
                }
            }
            prop_assert!(qs.contains(choice.quality));
        }
    }

    /// A context carries exactly the tables' `q_M`: `PolicyCtx::new`
    /// evaluates it at its coordinates, and `with_tables` re-evaluates it
    /// for other tables instead of keeping the first tables' answer.
    #[test]
    fn context_carries_the_tables_q_m(
        base in 1u64..200,
        growth in 1u64..4,
        deadline in 1u64..4000,
        other_deadline in 1u64..4000,
        t in 0u64..4000,
        position in 0usize..2,
    ) {
        let (tables, qs) = make_tables(base, growth, deadline, 4);
        let (other, _) = make_tables(base, growth, other_deadline, 4);
        let at = |tables: &ConstraintTables| {
            tables.max_feasible(position, Cycles::new(t)).map(|qi| qs.at(qi))
        };
        let ctx = PolicyCtx::new(&tables, &qs, position, Cycles::new(t), None);
        prop_assert_eq!(ctx.max_feasible(), at(&tables));
        let moved = ctx.with_tables(&other);
        prop_assert_eq!(moved.max_feasible(), at(&other));
        prop_assert_eq!(moved.position(), position);
        prop_assert_eq!(moved.elapsed(), Cycles::new(t));
    }

    /// The soft policy sits between the hard maximum and the av-only
    /// maximum.
    #[test]
    fn soft_policy_is_bounded_by_av_envelope(
        base in 1u64..200,
        growth in 1u64..4,
        deadline in 1u64..4000,
        t in 0u64..4000,
    ) {
        let (tables, qs) = make_tables(base, growth, deadline, 4);
        let ctx = PolicyCtx::new(&tables, &qs, 0, Cycles::new(t), None);
        let mut soft = SoftDeadline::new();
        let choice = soft.choose(&ctx);
        match ctx.max_feasible_soft() {
            Some(av_max) => {
                prop_assert_eq!(choice.quality, av_max);
                if let Some(hard_max) = ctx.max_feasible() {
                    prop_assert!(av_max >= hard_max, "av envelope below hard envelope");
                }
            }
            None => prop_assert!(choice.fallback),
        }
    }

    /// Constant quality ignores everything (the uncontrolled baseline).
    #[test]
    fn constant_policy_is_deaf(
        base in 1u64..200,
        deadline in 1u64..4000,
        t in 0u64..4000,
        level in 0u8..4,
    ) {
        let (tables, qs) = make_tables(base, 2, deadline, 4);
        let ctx = PolicyCtx::new(&tables, &qs, 0, Cycles::new(t), None);
        let mut p = ConstantQuality::new(Quality::new(level));
        let choice = p.choose(&ctx);
        prop_assert_eq!(choice.quality, Quality::new(level));
        prop_assert!(!choice.fallback);
    }

    /// Smooth climbs at most `step` positions above the previous level,
    /// and drops are unconstrained (exactly the paper's smoothness
    /// notion: slow up, fast down keeps safety).
    #[test]
    fn smooth_step_bound_holds(
        base in 1u64..100,
        growth in 1u64..3,
        deadline in 500u64..6000,
        t in 0u64..2000,
        prev in 0u8..6,
        step in 1usize..3,
    ) {
        let (tables, qs) = make_tables(base, growth, deadline, 6);
        let ctx = PolicyCtx::new(&tables, &qs, 0, Cycles::new(t), Some(Quality::new(prev)));
        let mut p = Smooth::new(step);
        let choice = p.choose(&ctx);
        if !choice.fallback {
            let prev_idx = qs.index_of(Quality::new(prev)).unwrap();
            let new_idx = qs.index_of(choice.quality).unwrap();
            prop_assert!(
                new_idx <= prev_idx + step,
                "climbed {prev_idx} -> {new_idx} with step {step}"
            );
        }
    }
}

/// Hysteresis is sticky: a single transient headroom observation does not
/// move the level when patience > 1.
#[test]
fn hysteresis_ignores_transient_headroom() {
    let (tables, qs) = make_tables(10, 2, 10_000, 4);
    let mut p = Hysteresis::new(3);
    let ctx_at = |t: u64| PolicyCtx::new(&tables, &qs, 0, Cycles::new(t), None);
    // Anchor low: at t = 9950 only q0 fits (q1's worst case of 60 would
    // end at 10_010 > 10_000).
    let anchored = p.choose(&ctx_at(9_950)).quality;
    assert_eq!(anchored, Quality::new(0));
    // One headroom observation at t=0: must hold the line.
    assert_eq!(p.choose(&ctx_at(0)).quality, Quality::new(0));
    assert_eq!(p.choose(&ctx_at(0)).quality, Quality::new(0));
    // Third consecutive observation: one step up, not a jump to max.
    assert_eq!(p.choose(&ctx_at(0)).quality, Quality::new(1));
}
