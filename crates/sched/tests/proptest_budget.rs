//! Property tests: the budget-parametric tables are decision-equivalent
//! to freshly materialized `ConstraintTables` at *every* budget.
//!
//! For random (iterations, body, profile, schedule permutation, deadline
//! shape) instances and budgets spanning 0, ordinary values,
//! near-`u64::MAX` values and `+∞`, every [`TableQuery`] answer of
//! `BudgetTables::at_budget(b)` must equal the answer of
//! `ConstraintTables::new` built from `budget_deadlines(shape, …, b)` —
//! including the raw suffix-budget slacks, which subsume the `admits`
//! predicates. The per-frame memo of [`FrameTables`] must answer `q_M`
//! exactly as the view it memoizes, in any order of queries.

use std::sync::Arc;

use fgqos_graph::ActionId;
use fgqos_sched::{
    budget_deadlines, BudgetTables, ConstraintTables, DeadlineShape, FrameTables, SharedTables,
    TableQuery,
};
use fgqos_time::{Cycles, DeadlineMap, QualityProfile, QualitySet};
use proptest::prelude::*;

/// A random instance: iterations, body length, a (possibly non-uniform)
/// profile over the unrolled actions, and a random permutation of the
/// instance ids as the schedule.
#[derive(Debug, Clone)]
struct Instance {
    iterations: usize,
    body_len: usize,
    profile: QualityProfile,
    order: Vec<ActionId>,
    shape: DeadlineShape,
}

/// Builds a monotone profile from per-(action, quality) positive avg
/// increments and avg→worst gap increments.
fn profile_from_incs(n: usize, nq_hi: u8, avg_inc: &[u64], gap_inc: &[u64]) -> QualityProfile {
    let nq = usize::from(nq_hi) + 1;
    let qs = QualitySet::contiguous(0, nq_hi).unwrap();
    let mut pb = QualityProfile::builder(qs, n);
    for a in 0..n {
        let mut avg = 0u64;
        let mut gap = 0u64;
        let levels: Vec<(u64, u64)> = (0..nq)
            .map(|qi| {
                avg += avg_inc[a * nq + qi];
                gap += gap_inc[a * nq + qi];
                (avg, avg + gap)
            })
            .collect();
        pb.set_levels(a, &levels).unwrap();
    }
    pb.build().unwrap()
}

fn arb_instance() -> impl Strategy<Value = Instance> {
    (
        1usize..=4,
        1usize..=3,
        1u8..=3,
        proptest::bool::weighted(0.5),
    )
        .prop_flat_map(|(iterations, body_len, nq_hi, final_only)| {
            let n = iterations * body_len;
            let nq = usize::from(nq_hi) + 1;
            (
                Just((iterations, body_len, nq_hi, final_only)),
                // Per (action, quality): positive increments for avg and
                // the avg→worst gap; cumulative sums keep the profile
                // monotone in quality with avg ≤ worst by construction.
                proptest::collection::vec(1u64..5_000, n * nq),
                proptest::collection::vec(0u64..5_000, n * nq),
                // Schedule permutation: sort instance ids by random keys.
                proptest::collection::vec(proptest::strategy::any::<u64>(), n),
            )
        })
        .prop_map(
            |((iterations, body_len, nq_hi, final_only), avg_inc, gap_inc, keys)| {
                let n = iterations * body_len;
                let profile = profile_from_incs(n, nq_hi, &avg_inc, &gap_inc);
                let mut idx: Vec<usize> = (0..n).collect();
                idx.sort_by_key(|&i| (keys[i], i));
                let order: Vec<ActionId> = idx.into_iter().map(ActionId::from_index).collect();
                Instance {
                    iterations,
                    body_len,
                    profile,
                    order,
                    shape: if final_only {
                        DeadlineShape::FinalOnly
                    } else {
                        DeadlineShape::PerIteration
                    },
                }
            },
        )
}

/// An instance plus a sequence of refresh profiles with the same
/// dimensions but independently random values (both `avg` and `worst`
/// move — a superset of what an online estimator does).
fn arb_refresh_sequence() -> impl Strategy<Value = (Instance, Vec<QualityProfile>)> {
    (arb_instance(), 1usize..=3)
        .prop_flat_map(|(inst, rounds)| {
            let cells = inst.iterations * inst.body_len * inst.profile.qualities().len();
            (
                Just(inst),
                proptest::collection::vec(1u64..5_000, cells * rounds),
                proptest::collection::vec(0u64..5_000, cells * rounds),
            )
        })
        .prop_map(|(inst, avg_inc, gap_inc)| {
            let n = inst.iterations * inst.body_len;
            let nq = inst.profile.qualities().len();
            let nq_hi = u8::try_from(nq - 1).unwrap();
            let cells = n * nq;
            let profiles = (0..avg_inc.len() / cells)
                .map(|r| {
                    let span = r * cells..(r + 1) * cells;
                    profile_from_incs(n, nq_hi, &avg_inc[span.clone()], &gap_inc[span])
                })
                .collect();
            (inst, profiles)
        })
}

/// One step of a body-refresh sequence: the body profile, and whether
/// it is applied through [`BudgetTables::refresh`] of its tiling instead
/// of [`BudgetTables::refresh_body`].
type BodyStep = (QualityProfile, bool);

/// An instance plus a sequence of body profiles: each is a fresh random
/// body (averages and worst cases move), the previous body with one
/// average raised (what an estimator does), the previous body
/// unchanged, or the body before it again; some steps go through the
/// tiled refresh instead.
fn arb_body_refreshes() -> impl Strategy<Value = (Instance, Vec<BodyStep>)> {
    (arb_instance(), 1usize..=5)
        .prop_flat_map(|(inst, rounds)| {
            let cells = inst.body_len * inst.profile.qualities().len();
            (
                Just(inst),
                proptest::collection::vec(1u64..5_000, cells * rounds),
                proptest::collection::vec(0u64..5_000, cells * rounds),
                proptest::collection::vec(
                    (
                        0u8..4,
                        0usize..cells,
                        1u64..3_000,
                        proptest::bool::weighted(0.3),
                    ),
                    rounds,
                ),
            )
        })
        .prop_map(|(inst, avg_inc, gap_inc, steps)| {
            let nq = inst.profile.qualities().len();
            let nq_hi = u8::try_from(nq - 1).unwrap();
            let cells = inst.body_len * nq;
            let mut body: Option<QualityProfile> = None;
            let mut before: Option<QualityProfile> = None;
            let mut out = Vec::new();
            for (r, (kind, cell, bump, tiled)) in steps.into_iter().enumerate() {
                let span = r * cells..(r + 1) * cells;
                let fresh =
                    profile_from_incs(inst.body_len, nq_hi, &avg_inc[span.clone()], &gap_inc[span]);
                let next = match (kind, body.clone()) {
                    (1, Some(mut prev)) => {
                        let (a, q) = (
                            cell / nq,
                            fgqos_time::Quality::new(u8::try_from(cell % nq).unwrap()),
                        );
                        let avg = prev.avg_idx(a, q);
                        prev.update_avg(a, q, Cycles::new(avg.get() + bump))
                            .unwrap();
                        prev
                    }
                    (2, Some(prev)) => prev,
                    (3, Some(_)) => before.clone().unwrap_or(fresh),
                    _ => fresh,
                };
                out.push((next.clone(), tiled));
                before = body.replace(next);
            }
            (inst, out)
        })
}

/// Budgets that must all agree: zero, small, mid-range, the overflow
/// frontier of the old `u64` deadline math, the largest finite value,
/// and `+∞`.
fn budget_grid(extra: u64) -> Vec<Cycles> {
    vec![
        Cycles::ZERO,
        Cycles::new(1),
        Cycles::new(extra % 1_000_000),
        Cycles::new(extra),
        Cycles::new(u64::MAX / 2 - 1),
        Cycles::new(u64::MAX / 2 + (extra % 97)),
        Cycles::new(u64::MAX - 1),
        Cycles::INFINITY,
    ]
}

fn reference_tables(inst: &Instance, budget: Cycles) -> ConstraintTables {
    let dm = DeadlineMap::uniform(
        inst.profile.qualities().clone(),
        budget_deadlines(inst.shape, inst.iterations, inst.body_len, budget),
    );
    ConstraintTables::new(inst.order.clone(), &inst.profile, &dm).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every raw suffix budget (av per quality, wcmin), deadline and
    /// worst-case entry agrees exactly — these primitives determine all
    /// derived predicates.
    #[test]
    fn primitives_agree_at_any_budget(inst in arb_instance(), extra in proptest::strategy::any::<u64>()) {
        let bt = BudgetTables::new(
            inst.order.clone(),
            &inst.profile,
            inst.shape,
            inst.iterations,
        ).unwrap();
        for budget in budget_grid(extra % (u64::MAX - 1)) {
            let ct = reference_tables(&inst, budget);
            let view = bt.at_budget(budget);
            prop_assert_eq!(view.len(), ct.len());
            prop_assert_eq!(view.order(), ct.order());
            for i in 0..=ct.len() {
                prop_assert_eq!(
                    view.wcmin_budget_at(i),
                    ct.wcmin_budget_at(i),
                    "wcmin i={} b={}", i, budget
                );
                for qi in 0..ct.quality_count() {
                    prop_assert_eq!(
                        view.av_budget_at(qi, i),
                        ct.av_budget_at(qi, i),
                        "av qi={} i={} b={}", qi, i, budget
                    );
                    if i < ct.len() {
                        prop_assert_eq!(view.deadline_at(qi, i), ct.deadline_at(qi, i));
                        prop_assert_eq!(view.worst_at(qi, i), ct.worst_at(qi, i));
                    }
                }
            }
        }
    }

    /// After any sequence of in-place refreshes, the tables answer every
    /// primitive exactly as a fresh build from the final profile — the
    /// estimator fast path can never drift from the from-scratch
    /// construction, whatever the schedule, shape, or refresh history.
    #[test]
    fn refresh_is_equivalent_to_a_fresh_build(
        (inst, refreshes) in arb_refresh_sequence(),
        extra in proptest::strategy::any::<u64>(),
    ) {
        let mut bt = BudgetTables::new(
            inst.order.clone(),
            &inst.profile,
            inst.shape,
            inst.iterations,
        ).unwrap();
        for profile in &refreshes {
            bt.refresh(profile).unwrap();
            let fresh = BudgetTables::new(
                inst.order.clone(),
                profile,
                inst.shape,
                inst.iterations,
            ).unwrap();
            for budget in budget_grid(extra % (u64::MAX - 1)) {
                let view = bt.at_budget(budget);
                let want = fresh.at_budget(budget);
                for i in 0..=fresh.len() {
                    prop_assert_eq!(
                        view.wcmin_budget_at(i),
                        want.wcmin_budget_at(i),
                        "wcmin i={} b={}", i, budget
                    );
                    for qi in 0..fresh.quality_count() {
                        prop_assert_eq!(
                            view.av_budget_at(qi, i),
                            want.av_budget_at(qi, i),
                            "av qi={} i={} b={}", qi, i, budget
                        );
                        if i < fresh.len() {
                            prop_assert_eq!(view.deadline_at(qi, i), want.deadline_at(qi, i));
                            prop_assert_eq!(view.worst_at(qi, i), want.worst_at(qi, i));
                        }
                        for t in [Cycles::ZERO, Cycles::new(extra % 10_000), Cycles::INFINITY] {
                            prop_assert_eq!(view.av_admits(qi, i, t), want.av_admits(qi, i, t));
                            prop_assert_eq!(view.wc_admits(qi, i, t), want.wc_admits(qi, i, t));
                        }
                    }
                }
            }
        }
    }

    /// A body refresh leaves the tables equal (full structural equality,
    /// which covers every query) to a fresh build from the tiled body,
    /// whichever columns moved, whatever the refresh history — including
    /// tiled refreshes in between, after which the remembered body cells
    /// are gone and a level must not be skipped.
    #[test]
    fn body_refresh_equals_a_fresh_build_of_the_tiling((inst, steps) in arb_body_refreshes()) {
        let mut bt = BudgetTables::new(
            inst.order.clone(),
            &inst.profile,
            inst.shape,
            inst.iterations,
        ).unwrap();
        for (body, tiled) in &steps {
            let tiling = body.tile(inst.iterations);
            if *tiled {
                bt.refresh(&tiling).unwrap();
            } else {
                bt.refresh_body(body).unwrap();
            }
            let fresh = BudgetTables::new(inst.order.clone(), &tiling, inst.shape, inst.iterations).unwrap();
            prop_assert_eq!(&bt, &fresh);
        }
    }

    /// The derived predicates and the `q_M` searches agree at sampled
    /// elapsed times, including boundary times read off the reference
    /// tables (the tight admit/reject frontier).
    #[test]
    fn decisions_agree_at_any_budget(inst in arb_instance(), extra in proptest::strategy::any::<u64>()) {
        let bt = BudgetTables::new(
            inst.order.clone(),
            &inst.profile,
            inst.shape,
            inst.iterations,
        ).unwrap();
        for budget in budget_grid(extra % (u64::MAX - 1)) {
            let ct = reference_tables(&inst, budget);
            let view = bt.at_budget(budget);
            for i in 0..=ct.len() {
                // Sample elapsed times at the av boundaries of every
                // quality plus fixed probes; Cycles::INFINITY probes the
                // degenerate "already hopeless" case.
                let mut ts = vec![Cycles::ZERO, Cycles::new(1), Cycles::new(10_000), Cycles::INFINITY];
                for qi in 0..ct.quality_count() {
                    let s = ct.av_budget_at(qi, i).get();
                    if let Ok(v) = u64::try_from(s) {
                        if v < u64::MAX {
                            ts.push(Cycles::new(v));
                            ts.push(Cycles::new(v.saturating_add(1).min(u64::MAX - 1)));
                        }
                    }
                }
                for t in ts {
                    for qi in 0..ct.quality_count() {
                        prop_assert_eq!(view.av_admits(qi, i, t), ct.av_admits(qi, i, t));
                        prop_assert_eq!(view.wc_admits(qi, i, t), ct.wc_admits(qi, i, t));
                        prop_assert_eq!(view.qual_const(qi, i, t), ct.qual_const(qi, i, t));
                    }
                    prop_assert_eq!(view.max_feasible(i, t), ct.max_feasible(i, t));
                    prop_assert_eq!(view.max_feasible_soft(i, t), ct.max_feasible_soft(i, t));
                }
            }
        }
    }

    /// The memoized `q_M` of a frame equals the view's own
    /// `max_feasible` at every step of a random, non-monotone walk of
    /// (position, elapsed) probes: positions jump back and forth across
    /// suffix versions, and elapsed times include 0, `+∞` and the exact
    /// admit/reject frontiers of both halves of `Qual_Const`. The same
    /// walk over materialized tables (`SharedTables::Fixed`) reads the
    /// arrays directly and must agree too.
    #[test]
    fn memoized_q_m_equals_the_view_in_any_order(
        inst in arb_instance(),
        extra in proptest::strategy::any::<u64>(),
        walk in proptest::collection::vec(
            (
                proptest::strategy::any::<u64>(),
                proptest::strategy::any::<u64>(),
                0u8..6,
            ),
            1..48,
        ),
    ) {
        let shared = Arc::new(BudgetTables::new(
            inst.order.clone(),
            &inst.profile,
            inst.shape,
            inst.iterations,
        ).unwrap());
        let n = shared.len();
        let nq = shared.quality_count();
        for budget in budget_grid(extra % (u64::MAX - 1)) {
            let view = shared.at_budget(budget);
            let mut frame = FrameTables::new(SharedTables::AtBudget(Arc::clone(&shared), budget));
            let mut fixed = FrameTables::new(reference_tables(&inst, budget));
            for &(pos, raw, kind) in &walk {
                let i = usize::try_from(pos % (n as u64 + 1)).unwrap();
                let qi = usize::try_from(raw % nq as u64).unwrap();
                // A finite slack as an elapsed time, nudged by up to ±1.
                let frontier = |slack: fgqos_time::Slack| {
                    let v = u64::try_from(slack.get().max(0)).unwrap_or(u64::MAX - 1);
                    let v = v.min(u64::MAX - 2);
                    Cycles::new(match raw % 3 {
                        0 => v.saturating_sub(1),
                        1 => v,
                        _ => v + 1,
                    })
                };
                let t = match kind {
                    0 => Cycles::INFINITY,
                    1 => Cycles::ZERO,
                    2 => frontier(view.av_budget_at(qi, i)),
                    3 => frontier(view.wcmin_budget_at((i + 1).min(n))),
                    4 => Cycles::new(raw % 100_000),
                    _ => Cycles::new(raw % (u64::MAX - 1)),
                };
                let want = view.max_feasible(i, t);
                prop_assert_eq!(frame.max_feasible(i, t), want, "i={} t={} b={}", i, t, budget);
                prop_assert_eq!(fixed.max_feasible(i, t), want, "fixed i={} t={} b={}", i, t, budget);
            }
        }
    }
}
