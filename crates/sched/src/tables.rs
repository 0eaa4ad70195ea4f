//! Precomputed `Qual_Const` tables.
//!
//! The prototype tool of the paper (Fig. 4) precomputes, for a fixed EDF
//! schedule `α`, "tables containing pre-computed values used by the
//! controller for the computation of `Qual_Constav` and `Qual_Constwc`".
//! This module reproduces those tables.
//!
//! With 0-based positions (`i` actions already executed, suffix starting
//! at `i`), elapsed time `t`, and quality `q`:
//!
//! * `Qual_Constav(q, i, t)`:
//!   `t ≤ min_{j ≥ i} ( D_q(α_j) − Σ_{k=i..=j} Cav_q(α_k) )`
//!   — the right-hand side is a pure suffix budget at constant quality `q`,
//!   precomputed per `(q, i)` in `O(|Q|·n)`;
//! * `Qual_Constwc(q, i, t)`:
//!   `t ≤ min( D_q(α_i) − Cwc_q(α_i),
//!             wcmin(i+1) − Cwc_q(α_i) )`
//!   where `wcmin(i+1) = min_{j ≥ i+1} ( D_qmin(α_j) − Σ Cwc_qmin )` is a
//!   single suffix-budget table at the minimal quality — the next action
//!   runs at `q`, everything after falls back to `q_min` (the paper's
//!   `θ'`).
//!
//! Both checks are O(1) at control time; choosing
//! `q_M = max{q | Qual_Const}` is `O(|Q|)`.

use std::fmt;

use fgqos_graph::ActionId;
use fgqos_time::series::suffix_budgets;
use fgqos_time::{Cycles, DeadlineMap, QualityProfile, Slack};

use crate::SchedError;

/// The query surface of a set of `Qual_Const` tables — everything the
/// controller, the quality policies and the runners read at control time.
///
/// Implemented by [`ConstraintTables`] (fully materialized for one fixed
/// deadline map) and by the budget-parametric views of
/// [`crate::BudgetTables`] (evaluated lazily at one frame budget). The
/// six primitive accessors define the tables; the `Qual_Const`
/// predicates and the `q_M` searches are derived from them and shared by
/// every implementation, so "decision-equivalent" reduces to "the
/// primitives agree".
pub trait TableQuery: fmt::Debug + Send + Sync {
    /// The schedule `α` the tables were computed for.
    fn order(&self) -> &[ActionId];

    /// Number of quality levels.
    fn quality_count(&self) -> usize;

    /// The raw average-budget entry for `(quality index, position)`:
    /// the largest elapsed time at which the suffix starting at `i` can
    /// still run entirely at quality `qi` on *average* times.
    ///
    /// # Panics
    ///
    /// Panics if `qi >= quality_count()` or `i > len()`.
    fn av_budget_at(&self, qi: usize, i: usize) -> Slack;

    /// The raw minimal-quality worst-case budget for `position`.
    ///
    /// # Panics
    ///
    /// Panics if `i > len()`.
    fn wcmin_budget_at(&self, i: usize) -> Slack;

    /// `D_q(α_i)`: the deadline of the action at position `i` under
    /// quality index `qi`.
    ///
    /// # Panics
    ///
    /// Panics if `qi >= quality_count()` or `i >= len()`.
    fn deadline_at(&self, qi: usize, i: usize) -> Cycles;

    /// `Cwc_q(α_i)`: the worst-case time of the action at position `i`
    /// under quality index `qi`.
    ///
    /// # Panics
    ///
    /// Panics if `qi >= quality_count()` or `i >= len()`.
    fn worst_at(&self, qi: usize, i: usize) -> Cycles;

    /// Number of scheduled actions.
    fn len(&self) -> usize {
        self.order().len()
    }

    /// Whether the schedule is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `Qual_Constav`: may the suffix starting at position `i` run
    /// entirely at quality index `qi` given elapsed time `t`, judged on
    /// *average* times? (The optimality half of the constraint.)
    ///
    /// # Panics
    ///
    /// Panics if `qi >= quality_count()` or `i > len()`.
    fn av_admits(&self, qi: usize, i: usize, t: Cycles) -> bool {
        self.av_budget_at(qi, i).admits(t)
    }

    /// `Qual_Constwc`: if the next action (position `i`) runs at quality
    /// index `qi` and *everything after falls back to minimal quality*,
    /// do worst-case times still meet every deadline? (The safety half.)
    ///
    /// Vacuously true at `i == len()`.
    ///
    /// # Panics
    ///
    /// Panics if `qi >= quality_count()` or `i > len()`.
    fn wc_admits(&self, qi: usize, i: usize, t: Cycles) -> bool {
        if i == self.len() {
            assert!(qi < self.quality_count(), "table coordinates out of range");
            return true;
        }
        let cwc = self.worst_at(qi, i);
        let d = self.deadline_at(qi, i);
        let own = if d.is_infinite() {
            Slack::INFINITY
        } else {
            Slack::new(i128::from(d.get()))
        }
        .minus(cwc);
        let rest = self.wcmin_budget_at(i + 1).minus(cwc);
        own.min(rest).admits(t)
    }

    /// The full `Qual_Const = Qual_Constav ∧ Qual_Constwc` predicate.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range coordinates.
    fn qual_const(&self, qi: usize, i: usize, t: Cycles) -> bool {
        self.av_admits(qi, i, t) && self.wc_admits(qi, i, t)
    }

    /// `q_M = max{ q | Qual_Const(α_q, θ_q, t, i) }` as a quality
    /// *index*, or `None` when no level is admissible.
    ///
    /// # Panics
    ///
    /// Panics if `i > len()`.
    fn max_feasible(&self, i: usize, t: Cycles) -> Option<usize> {
        (0..self.quality_count())
            .rev()
            .find(|&qi| self.qual_const(qi, i, t))
    }

    /// Like [`TableQuery::max_feasible`] but judging only the
    /// average-time constraint (the paper's soft-deadline mode).
    ///
    /// # Panics
    ///
    /// Panics if `i > len()`.
    fn max_feasible_soft(&self, i: usize, t: Cycles) -> Option<usize> {
        (0..self.quality_count())
            .rev()
            .find(|&qi| self.av_admits(qi, i, t))
    }
}

impl TableQuery for ConstraintTables {
    fn order(&self) -> &[ActionId] {
        ConstraintTables::order(self)
    }

    fn quality_count(&self) -> usize {
        ConstraintTables::quality_count(self)
    }

    fn av_budget_at(&self, qi: usize, i: usize) -> Slack {
        ConstraintTables::av_budget_at(self, qi, i)
    }

    fn wcmin_budget_at(&self, i: usize) -> Slack {
        ConstraintTables::wcmin_budget_at(self, i)
    }

    fn deadline_at(&self, qi: usize, i: usize) -> Cycles {
        ConstraintTables::deadline_at(self, qi, i)
    }

    fn worst_at(&self, qi: usize, i: usize) -> Cycles {
        ConstraintTables::worst_at(self, qi, i)
    }

    // The inherent lookups are already O(1) table reads; only `wc_admits`
    // benefits from the cached `d_next` slacks.
    fn wc_admits(&self, qi: usize, i: usize, t: Cycles) -> bool {
        ConstraintTables::wc_admits(self, qi, i, t)
    }

    fn av_admits(&self, qi: usize, i: usize, t: Cycles) -> bool {
        ConstraintTables::av_admits(self, qi, i, t)
    }
}

/// Precomputed constraint tables for one cycle schedule.
///
/// # Example
///
/// ```
/// use fgqos_graph::GraphBuilder;
/// use fgqos_sched::ConstraintTables;
/// use fgqos_time::{Cycles, DeadlineMap, QualityProfile, QualitySet};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = GraphBuilder::new();
/// let x = b.action("x");
/// let g = b.build()?;
/// let qs = QualitySet::contiguous(0, 1)?;
/// let mut pb = QualityProfile::builder(qs.clone(), 1);
/// pb.set_levels(0, &[(10, 20), (40, 80)])?;
/// let profile = pb.build()?;
/// let deadlines = DeadlineMap::uniform(qs, vec![Cycles::new(100)]);
/// let tables = ConstraintTables::new(vec![x], &profile, &deadlines)?;
/// // At t=0 even the expensive level fits: 80 <= 100.
/// assert_eq!(tables.max_feasible(0, Cycles::ZERO), Some(1));
/// // At t=30 the worst-case constraint kills q1 (30+80 > 100).
/// assert_eq!(tables.max_feasible(0, Cycles::new(30)), Some(0));
/// # Ok(())
/// # }
/// ```
///
/// Equality is exact: two tables compare equal only when every cell
/// does, so one may stand in for the other.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConstraintTables {
    order: Vec<ActionId>,
    n: usize,
    nq: usize,
    /// `av_budget[qi * (n+1) + i]`: max admissible `t` for the all-`q`
    /// average-time suffix starting at `i`.
    av_budget: Vec<Slack>,
    /// `wcmin_budget[i]`: max admissible `t` for the all-`q_min`
    /// worst-case suffix starting at `i`.
    wcmin_budget: Vec<Slack>,
    /// `d_next[qi * n + i] = D_q(α_i)` as a slack bound.
    d_next: Vec<Slack>,
    /// `cwc_next[qi * n + i] = Cwc_q(α_i)`.
    cwc_next: Vec<Cycles>,
}

impl ConstraintTables {
    /// Precomputes the tables for schedule `order` under `profile` and
    /// `deadlines`.
    ///
    /// # Errors
    ///
    /// [`SchedError::DimensionMismatch`] if the profile and deadline map
    /// disagree on action count, or if `order` references an action
    /// outside them; [`SchedError::QualitySetMismatch`] if they are
    /// indexed by different quality sets.
    pub fn new(
        order: Vec<ActionId>,
        profile: &QualityProfile,
        deadlines: &DeadlineMap,
    ) -> Result<Self, SchedError> {
        if profile.n_actions() != deadlines.n_actions() {
            return Err(SchedError::DimensionMismatch {
                expected: profile.n_actions(),
                actual: deadlines.n_actions(),
            });
        }
        if profile.qualities() != deadlines.qualities() {
            return Err(SchedError::QualitySetMismatch);
        }
        if let Some(bad) = order.iter().find(|a| a.index() >= profile.n_actions()) {
            return Err(SchedError::DimensionMismatch {
                expected: profile.n_actions(),
                actual: bad.index() + 1,
            });
        }
        let n = order.len();
        let nq = profile.qualities().len();
        let mut av_budget = Vec::with_capacity(nq * (n + 1));
        let mut d_next = Vec::with_capacity(nq * n);
        let mut cwc_next = Vec::with_capacity(nq * n);
        let levels: Vec<_> = profile.qualities().iter().collect();
        for (qi, &q) in levels.iter().enumerate() {
            let d: Vec<Cycles> = order.iter().map(|a| deadlines.deadline(*a, q)).collect();
            let cav: Vec<Cycles> = order.iter().map(|a| profile.avg(*a, q)).collect();
            av_budget.extend(suffix_budgets(&d, &cav));
            for (a, &da) in order.iter().zip(&d) {
                d_next.push(if da.is_infinite() {
                    Slack::INFINITY
                } else {
                    Slack::new(i128::from(da.get()))
                });
                cwc_next.push(profile.worst(*a, q));
            }
            let _ = qi;
        }
        let qmin = profile.qualities().min();
        let d_min: Vec<Cycles> = order.iter().map(|a| deadlines.deadline(*a, qmin)).collect();
        let cwc_min: Vec<Cycles> = order.iter().map(|a| profile.worst(*a, qmin)).collect();
        let wcmin_budget = suffix_budgets(&d_min, &cwc_min);
        Ok(ConstraintTables {
            order,
            n,
            nq,
            av_budget,
            wcmin_budget,
            d_next,
            cwc_next,
        })
    }

    /// The schedule the tables were computed for.
    #[must_use]
    pub fn order(&self) -> &[ActionId] {
        &self.order
    }

    /// Number of scheduled actions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the schedule is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of quality levels.
    #[must_use]
    pub fn quality_count(&self) -> usize {
        self.nq
    }

    /// `Qual_Constav`: may the suffix starting at position `i` run entirely
    /// at quality index `qi` given elapsed time `t`, judged on *average*
    /// times? (The optimality half of the constraint.)
    ///
    /// # Panics
    ///
    /// Panics if `qi >= quality_count()` or `i > len()`.
    #[must_use]
    pub fn av_admits(&self, qi: usize, i: usize, t: Cycles) -> bool {
        assert!(
            qi < self.nq && i <= self.n,
            "table coordinates out of range"
        );
        self.av_budget[qi * (self.n + 1) + i].admits(t)
    }

    /// `Qual_Constwc`: if the next action (position `i`) runs at quality
    /// index `qi` and *everything after falls back to minimal quality*, do
    /// worst-case times still meet every deadline? (The safety half.)
    ///
    /// Vacuously true at `i == len()`.
    ///
    /// # Panics
    ///
    /// Panics if `qi >= quality_count()` or `i > len()`.
    #[must_use]
    pub fn wc_admits(&self, qi: usize, i: usize, t: Cycles) -> bool {
        assert!(
            qi < self.nq && i <= self.n,
            "table coordinates out of range"
        );
        if i == self.n {
            return true;
        }
        let cwc = self.cwc_next[qi * self.n + i];
        let own = self.d_next[qi * self.n + i].minus(cwc);
        let rest = self.wcmin_budget[i + 1].minus(cwc);
        own.min(rest).admits(t)
    }

    /// The full `Qual_Const = Qual_Constav ∧ Qual_Constwc` predicate.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range coordinates.
    #[must_use]
    pub fn qual_const(&self, qi: usize, i: usize, t: Cycles) -> bool {
        self.av_admits(qi, i, t) && self.wc_admits(qi, i, t)
    }

    /// `q_M = max{ q | Qual_Const(α_q, θ_q, t, i) }` as a quality *index*,
    /// or `None` when no level is admissible (possible only if the
    /// schedulability precondition was violated or actual times exceeded
    /// the declared worst case).
    ///
    /// # Panics
    ///
    /// Panics if `i > len()`.
    #[must_use]
    pub fn max_feasible(&self, i: usize, t: Cycles) -> Option<usize> {
        (0..self.nq).rev().find(|&qi| self.qual_const(qi, i, t))
    }

    /// Like [`ConstraintTables::max_feasible`] but judging only the
    /// average-time constraint — the paper's soft-deadline mode ("for soft
    /// deadlines, the Quality Manager applies only the average quality
    /// constraint", Section 4).
    ///
    /// # Panics
    ///
    /// Panics if `i > len()`.
    #[must_use]
    pub fn max_feasible_soft(&self, i: usize, t: Cycles) -> Option<usize> {
        (0..self.nq).rev().find(|&qi| self.av_admits(qi, i, t))
    }

    /// `D_q(α_i)`: the deadline of the action at position `i` under
    /// quality index `qi` (cached at construction; used by the controller
    /// for miss detection and by codegen).
    ///
    /// # Panics
    ///
    /// Panics if `qi >= quality_count()` or `i >= len()`.
    #[must_use]
    pub fn deadline_at(&self, qi: usize, i: usize) -> Cycles {
        assert!(qi < self.nq && i < self.n, "table coordinates out of range");
        let s = self.d_next[qi * self.n + i];
        if s == Slack::INFINITY {
            Cycles::INFINITY
        } else {
            Cycles::new(u64::try_from(s.get()).expect("deadlines are non-negative"))
        }
    }

    /// `Cwc_q(α_i)`: the worst-case time of the action at position `i`
    /// under quality index `qi` (cached at construction; used by codegen).
    ///
    /// # Panics
    ///
    /// Panics if `qi >= quality_count()` or `i >= len()`.
    #[must_use]
    pub fn worst_at(&self, qi: usize, i: usize) -> Cycles {
        assert!(qi < self.nq && i < self.n, "table coordinates out of range");
        self.cwc_next[qi * self.n + i]
    }

    /// The raw average-budget entry for `(quality index, position)` —
    /// exposed for codegen and diagnostics.
    ///
    /// # Panics
    ///
    /// Panics if `qi >= quality_count()` or `i > len()`.
    #[must_use]
    pub fn av_budget_at(&self, qi: usize, i: usize) -> Slack {
        assert!(
            qi < self.nq && i <= self.n,
            "table coordinates out of range"
        );
        self.av_budget[qi * (self.n + 1) + i]
    }

    /// The raw minimal-quality worst-case budget for `position` — exposed
    /// for codegen and diagnostics.
    ///
    /// # Panics
    ///
    /// Panics if `i > len()`.
    #[must_use]
    pub fn wcmin_budget_at(&self, i: usize) -> Slack {
        assert!(i <= self.n, "table coordinates out of range");
        self.wcmin_budget[i]
    }

    /// Approximate resident size of the tables in bytes (for the Section 3
    /// instrumentation-overhead report).
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        self.av_budget.len() * std::mem::size_of::<Slack>()
            + self.wcmin_budget.len() * std::mem::size_of::<Slack>()
            + self.d_next.len() * std::mem::size_of::<Slack>()
            + self.cwc_next.len() * std::mem::size_of::<Cycles>()
            + self.order.len() * std::mem::size_of::<ActionId>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgqos_graph::GraphBuilder;
    use fgqos_time::QualitySet;

    fn c(v: u64) -> Cycles {
        Cycles::new(v)
    }

    /// Two-action chain, two quality levels.
    /// q0: avg 10 / wc 20 each; q1: avg 40 / wc 80 each.
    /// Deadlines: x at 100, y at 200 (quality-independent).
    fn setup() -> (Vec<ActionId>, QualityProfile, DeadlineMap) {
        let mut b = GraphBuilder::new();
        let x = b.action("x");
        let y = b.action("y");
        b.edge(x, y).unwrap();
        let _g = b.build().unwrap();
        let qs = QualitySet::contiguous(0, 1).unwrap();
        let mut pb = QualityProfile::builder(qs.clone(), 2);
        pb.set_levels(0, &[(10, 20), (40, 80)]).unwrap();
        pb.set_levels(1, &[(10, 20), (40, 80)]).unwrap();
        let profile = pb.build().unwrap();
        let deadlines = DeadlineMap::uniform(qs, vec![c(100), c(200)]);
        (vec![x, y], profile, deadlines)
    }

    #[test]
    fn av_budgets_match_hand_computation() {
        let (order, profile, deadlines) = setup();
        let t = ConstraintTables::new(order, &profile, &deadlines).unwrap();
        // q0 suffix at 0: min(100-10, 200-20) = 90; at 1: 200-10=190.
        assert!(t.av_admits(0, 0, c(90)));
        assert!(!t.av_admits(0, 0, c(91)));
        assert!(t.av_admits(0, 1, c(190)));
        assert!(!t.av_admits(0, 1, c(191)));
        // q1 suffix at 0: min(100-40, 200-80) = 60.
        assert!(t.av_admits(1, 0, c(60)));
        assert!(!t.av_admits(1, 0, c(61)));
        // Empty suffix always admissible.
        assert!(t.av_admits(0, 2, c(1_000_000)));
    }

    #[test]
    fn wc_constraint_uses_qmin_fallback() {
        let (order, profile, deadlines) = setup();
        let t = ConstraintTables::new(order, &profile, &deadlines).unwrap();
        // Next = x at q1 (wc 80): own bound 100-80 = 20;
        // rest at qmin: y wc 20, deadline 200 -> budget 180; 180-80 = 100.
        // So wc bound = 20.
        assert!(t.wc_admits(1, 0, c(20)));
        assert!(!t.wc_admits(1, 0, c(21)));
        // Next = x at q0 (wc 20): own 80, rest 160 -> bound 80.
        assert!(t.wc_admits(0, 0, c(80)));
        assert!(!t.wc_admits(0, 0, c(81)));
        // Position n is vacuous.
        assert!(t.wc_admits(1, 2, Cycles::mega(999)));
    }

    #[test]
    fn max_feasible_scans_downward() {
        let (order, profile, deadlines) = setup();
        let t = ConstraintTables::new(order, &profile, &deadlines).unwrap();
        // At t=0: q1 admissible (av 60 >= 0, wc 20 >= 0).
        assert_eq!(t.max_feasible(0, c(0)), Some(1));
        // At t=30: q1 wc fails (30 > 20), q0 fine.
        assert_eq!(t.max_feasible(0, c(30)), Some(0));
        // At t=95: q0 av fails (95 > 90) -> nothing.
        assert_eq!(t.max_feasible(0, c(95)), None);
        // Soft mode ignores the wc side: q1 admissible until t=60.
        assert_eq!(t.max_feasible_soft(0, c(30)), Some(1));
        assert_eq!(t.max_feasible_soft(0, c(61)), Some(0));
    }

    #[test]
    fn infinite_deadlines_disable_constraints() {
        let (order, profile, _) = setup();
        let qs = profile.qualities().clone();
        let deadlines = DeadlineMap::uniform(qs, vec![Cycles::INFINITY, Cycles::INFINITY]);
        let t = ConstraintTables::new(order, &profile, &deadlines).unwrap();
        assert_eq!(t.max_feasible(0, Cycles::mega(10_000)), Some(1));
    }

    #[test]
    fn equality_is_exact() {
        let (order, profile, deadlines) = setup();
        let t = ConstraintTables::new(order.clone(), &profile, &deadlines).unwrap();
        assert_eq!(
            t,
            ConstraintTables::new(order.clone(), &profile, &deadlines).unwrap()
        );
        // One cost cell.
        let mut bumped = profile.clone();
        bumped
            .update_avg(0, fgqos_time::Quality::new(0), c(11))
            .unwrap();
        assert_ne!(
            t,
            ConstraintTables::new(order.clone(), &bumped, &deadlines).unwrap()
        );
        // One deadline, one cycle later.
        let later = DeadlineMap::uniform(profile.qualities().clone(), vec![c(100), c(201)]);
        assert_ne!(t, ConstraintTables::new(order, &profile, &later).unwrap());
    }

    /// Implements only the six primitive accessors, so every derived
    /// predicate (`av_admits`, `wc_admits`, `qual_const`, the `q_M`
    /// searches) runs the trait's *default* bodies — the code path a
    /// future implementor inherits. `ConstraintTables` itself overrides
    /// the admit predicates, so without this shim the defaults would be
    /// dead code in tests.
    #[derive(Debug)]
    struct PrimitivesOnly(ConstraintTables);

    impl super::TableQuery for PrimitivesOnly {
        fn order(&self) -> &[ActionId] {
            self.0.order()
        }
        fn quality_count(&self) -> usize {
            self.0.quality_count()
        }
        fn av_budget_at(&self, qi: usize, i: usize) -> Slack {
            self.0.av_budget_at(qi, i)
        }
        fn wcmin_budget_at(&self, i: usize) -> Slack {
            self.0.wcmin_budget_at(i)
        }
        fn deadline_at(&self, qi: usize, i: usize) -> Cycles {
            self.0.deadline_at(qi, i)
        }
        fn worst_at(&self, qi: usize, i: usize) -> Cycles {
            self.0.worst_at(qi, i)
        }
    }

    #[test]
    fn trait_defaults_agree_with_inherent_queries() {
        use super::TableQuery;
        let (order, profile, deadlines) = setup();
        let t = ConstraintTables::new(order, &profile, &deadlines).unwrap();
        let shim = PrimitivesOnly(t.clone());
        let q: &dyn TableQuery = &shim;
        for i in 0..=t.len() {
            for qi in 0..t.quality_count() {
                for tt in [0u64, 20, 60, 80, 90, 190, 500] {
                    let tt = c(tt);
                    assert_eq!(q.av_admits(qi, i, tt), t.av_admits(qi, i, tt));
                    assert_eq!(q.wc_admits(qi, i, tt), t.wc_admits(qi, i, tt));
                    assert_eq!(q.qual_const(qi, i, tt), t.qual_const(qi, i, tt));
                }
            }
            for tt in [0u64, 30, 95] {
                assert_eq!(q.max_feasible(i, c(tt)), t.max_feasible(i, c(tt)));
                assert_eq!(q.max_feasible_soft(i, c(tt)), t.max_feasible_soft(i, c(tt)));
            }
        }
        assert_eq!(q.len(), t.len());
        assert_eq!(q.order(), t.order());
        assert!(!q.is_empty());
        // Infinite deadlines and an infinite elapsed time exercise the
        // defaults' ±∞ branches (own deadline +∞, t = +∞ admissibility).
        let (order, profile, _) = setup();
        let qs = profile.qualities().clone();
        let inf = DeadlineMap::uniform(qs, vec![Cycles::INFINITY, Cycles::INFINITY]);
        let t_inf = ConstraintTables::new(order, &profile, &inf).unwrap();
        let shim_inf = PrimitivesOnly(t_inf.clone());
        for i in 0..=t_inf.len() {
            for qi in 0..t_inf.quality_count() {
                for tt in [c(0), Cycles::mega(10_000), Cycles::INFINITY] {
                    assert_eq!(
                        super::TableQuery::qual_const(&shim_inf, qi, i, tt),
                        t_inf.qual_const(qi, i, tt)
                    );
                }
            }
        }
    }

    #[test]
    fn constructor_validates_dimensions() {
        let (order, profile, _) = setup();
        let other_qs = QualitySet::contiguous(0, 2).unwrap();
        let bad_deadlines = DeadlineMap::uniform(other_qs, vec![c(1), c(2)]);
        assert!(matches!(
            ConstraintTables::new(order.clone(), &profile, &bad_deadlines),
            Err(SchedError::QualitySetMismatch)
        ));
        let qs = profile.qualities().clone();
        let short = DeadlineMap::uniform(qs, vec![c(1)]);
        assert!(matches!(
            ConstraintTables::new(order, &profile, &short),
            Err(SchedError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn memory_footprint_is_reported() {
        let (order, profile, deadlines) = setup();
        let t = ConstraintTables::new(order, &profile, &deadlines).unwrap();
        assert!(t.memory_bytes() > 0);
        assert!(!t.is_empty());
        assert_eq!(t.len(), 2);
        assert_eq!(t.quality_count(), 2);
        assert_eq!(t.order().len(), 2);
    }
}
