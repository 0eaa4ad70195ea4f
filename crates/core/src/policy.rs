//! Quality policies: how the quality manager picks the level to run next.
//!
//! The paper's controller always picks the *maximal* admissible level
//! ([`MaxQuality`]). The baseline it is evaluated against is an
//! uncontrolled, fixed level ([`ConstantQuality`] — "standard industrial
//! practice", Section 3). Section 4 sketches two refinements implemented
//! here as well: judging only the average constraint for soft deadlines
//! ([`SoftDeadline`]) and smoothness of quality variations
//! ([`Smooth`], [`Hysteresis`]).

use fgqos_sched::TableQuery;
use fgqos_time::{Cycles, Quality, QualitySet};

/// Decision context handed to a policy at each step.
///
/// Besides the decision coordinates it carries `q_M`, the maximal level
/// satisfying the full `Qual_Const` at them, evaluated once when the
/// context is built: [`CycleController::decide`] computes it once per
/// decision (through its per-frame memo on budget-parametric tables),
/// and every policy reads it with [`PolicyCtx::max_feasible`] instead
/// of scanning the tables again. Every field is private and read
/// through an accessor, so `q_M` always belongs to the context's own
/// tables and coordinates: [`PolicyCtx::new`] evaluates it, and
/// [`PolicyCtx::with_tables`] re-evaluates it for other tables. No
/// other way builds or re-targets a context:
///
/// ```compile_fail,E0616
/// use fgqos_core::policy::PolicyCtx;
/// use fgqos_sched::TableQuery;
///
/// fn retarget<'a>(ctx: &PolicyCtx<'a>, other: &'a dyn TableQuery) -> PolicyCtx<'a> {
///     let mut moved = *ctx;
///     moved.tables = other; // private: `q_M` would still be the old tables'
///     moved
/// }
/// ```
///
/// [`CycleController::decide`]: crate::CycleController::decide
#[derive(Debug, Clone, Copy)]
pub struct PolicyCtx<'a> {
    tables: &'a dyn TableQuery,
    qualities: &'a QualitySet,
    position: usize,
    elapsed: Cycles,
    previous: Option<Quality>,
    /// `q_M` of `tables` at (`position`, `elapsed`).
    max_feasible: Option<Quality>,
}

impl<'a> PolicyCtx<'a> {
    /// A context for the decision at `position` after `elapsed` cycles,
    /// with `q_M` evaluated from `tables`.
    ///
    /// # Panics
    ///
    /// Panics if `position > tables.len()`.
    #[must_use]
    pub fn new(
        tables: &'a dyn TableQuery,
        qualities: &'a QualitySet,
        position: usize,
        elapsed: Cycles,
        previous: Option<Quality>,
    ) -> Self {
        let max_feasible = tables
            .max_feasible(position, elapsed)
            .map(|qi| qualities.at(qi));
        Self::decided(tables, qualities, position, elapsed, previous, max_feasible)
    }

    /// A context whose `q_M` the controller already evaluated from
    /// `tables` at (`position`, `elapsed`).
    pub(crate) fn decided(
        tables: &'a dyn TableQuery,
        qualities: &'a QualitySet,
        position: usize,
        elapsed: Cycles,
        previous: Option<Quality>,
        max_feasible: Option<Quality>,
    ) -> Self {
        PolicyCtx {
            tables,
            qualities,
            position,
            elapsed,
            previous,
            max_feasible,
        }
    }

    /// The same decision judged against other `tables`, with `q_M`
    /// re-evaluated from them.
    ///
    /// # Panics
    ///
    /// Panics if the position is beyond `tables`' schedule.
    #[must_use]
    pub fn with_tables<'b>(&self, tables: &'b dyn TableQuery) -> PolicyCtx<'b>
    where
        'a: 'b,
    {
        PolicyCtx::new(
            tables,
            self.qualities,
            self.position,
            self.elapsed,
            self.previous,
        )
    }

    /// Constraint tables for the cycle's schedule — materialized
    /// (`ConstraintTables`) or a budget-parametric view, behind the
    /// common [`TableQuery`] surface.
    #[must_use]
    pub fn tables(&self) -> &'a dyn TableQuery {
        self.tables
    }

    /// The system's quality set.
    #[must_use]
    pub fn qualities(&self) -> &'a QualitySet {
        self.qualities
    }

    /// 0-based position of the next action in the schedule.
    #[must_use]
    pub fn position(&self) -> usize {
        self.position
    }

    /// Elapsed time since the beginning of the cycle.
    #[must_use]
    pub fn elapsed(&self) -> Cycles {
        self.elapsed
    }

    /// Quality chosen for the previous action of this cycle, if any.
    #[must_use]
    pub fn previous(&self) -> Option<Quality> {
        self.previous
    }

    /// `q_M`: the maximal quality satisfying the *full* constraint
    /// (`Qual_Constav ∧ Qual_Constwc`), or `None` if even `q_min` fails.
    /// Evaluated once, when the context was built.
    #[must_use]
    pub fn max_feasible(&self) -> Option<Quality> {
        self.max_feasible
    }

    /// The maximal quality satisfying only the average constraint (soft
    /// deadlines). Evaluated on each call.
    #[must_use]
    pub fn max_feasible_soft(&self) -> Option<Quality> {
        self.tables
            .max_feasible_soft(self.position, self.elapsed)
            .map(|qi| self.qualities.at(qi))
    }
}

/// The outcome of a policy decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Choice {
    /// The level to run the next action at.
    pub quality: Quality,
    /// Whether the policy had to fall back because no level was
    /// admissible (the choice is then `q_min`, best effort).
    pub fallback: bool,
}

/// A quality-selection policy.
///
/// Policies may keep state across decisions (e.g. hysteresis counters);
/// the state is expected to be reset externally between cycles when that
/// matters (see [`QualityPolicy::on_cycle_start`]).
pub trait QualityPolicy {
    /// Picks the quality for the next action.
    fn choose(&mut self, ctx: &PolicyCtx<'_>) -> Choice;

    /// Hook invoked at the beginning of every cycle.
    fn on_cycle_start(&mut self) {}

    /// Human-readable name for reports and benches.
    fn name(&self) -> &'static str;
}

fn fallback_choice(qualities: &QualitySet) -> Choice {
    Choice {
        quality: qualities.min(),
        fallback: true,
    }
}

/// The paper's policy: `q_M = max{ q | Qual_Const(α_q, θ_q, t, i) }`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaxQuality {
    _priv: (),
}

impl MaxQuality {
    /// Creates the maximal-quality policy.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl QualityPolicy for MaxQuality {
    fn choose(&mut self, ctx: &PolicyCtx<'_>) -> Choice {
        match ctx.max_feasible() {
            Some(quality) => Choice {
                quality,
                fallback: false,
            },
            None => fallback_choice(ctx.qualities()),
        }
    }

    fn name(&self) -> &'static str {
        "controlled-max"
    }
}

/// Uncontrolled constant quality — the baseline of Section 3's figures.
/// Ignores the constraints entirely; deadline misses surface as buffer
/// overruns/frame skips in the pipeline simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConstantQuality {
    level: Quality,
}

impl ConstantQuality {
    /// Creates the constant policy at `level`.
    #[must_use]
    pub fn new(level: Quality) -> Self {
        ConstantQuality { level }
    }
}

impl QualityPolicy for ConstantQuality {
    fn choose(&mut self, _ctx: &PolicyCtx<'_>) -> Choice {
        Choice {
            quality: self.level,
            fallback: false,
        }
    }

    fn name(&self) -> &'static str {
        "constant"
    }
}

/// Soft-deadline mode (Section 4): the quality manager applies only the
/// average constraint. Deadline misses become possible but stay rare when
/// averages are well estimated; utilization is more aggressive.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SoftDeadline {
    _priv: (),
}

impl SoftDeadline {
    /// Creates the soft-deadline policy.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl QualityPolicy for SoftDeadline {
    fn choose(&mut self, ctx: &PolicyCtx<'_>) -> Choice {
        match ctx.max_feasible_soft() {
            Some(quality) => Choice {
                quality,
                fallback: false,
            },
            None => fallback_choice(ctx.qualities()),
        }
    }

    fn name(&self) -> &'static str {
        "soft-deadline"
    }
}

/// Smoothness-bounded variant (Section 4 studies "conditions guaranteeing
/// smoothness in terms of variations of quality"): the chosen level may
/// move at most `max_step` set-positions per decision, and never exceeds
/// the safe maximal level.
///
/// Because the result is always ≤ the maximal admissible level, safety is
/// preserved; only optimality is traded for stability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Smooth {
    max_step: usize,
}

impl Smooth {
    /// Creates a smooth policy allowed to move `max_step` levels per
    /// decision (0 freezes the initial level).
    #[must_use]
    pub fn new(max_step: usize) -> Self {
        Smooth { max_step }
    }
}

impl QualityPolicy for Smooth {
    fn choose(&mut self, ctx: &PolicyCtx<'_>) -> Choice {
        let Some(feasible) = ctx.max_feasible() else {
            return fallback_choice(ctx.qualities());
        };
        let Some(prev) = ctx.previous() else {
            return Choice {
                quality: feasible,
                fallback: false,
            };
        };
        let qs = ctx.qualities();
        let prev_idx = qs.index_of(prev).unwrap_or(0);
        let feas_idx = qs
            .index_of(feasible)
            .expect("max_feasible returns set members");
        // Climb slowly, but drop as fast as safety demands.
        let target_idx = if feas_idx > prev_idx {
            (prev_idx + self.max_step).min(feas_idx)
        } else {
            feas_idx
        };
        Choice {
            quality: qs.at(target_idx),
            fallback: false,
        }
    }

    fn name(&self) -> &'static str {
        "smooth"
    }
}

/// Hysteresis variant: go up one level only after the maximal admissible
/// level has exceeded the current one for `patience` consecutive
/// decisions; drop immediately when safety requires it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hysteresis {
    patience: usize,
    streak: usize,
    current: Option<Quality>,
}

impl Hysteresis {
    /// Creates a hysteresis policy that waits for `patience` consecutive
    /// headroom observations before climbing.
    #[must_use]
    pub fn new(patience: usize) -> Self {
        Hysteresis {
            patience,
            streak: 0,
            current: None,
        }
    }
}

impl QualityPolicy for Hysteresis {
    fn choose(&mut self, ctx: &PolicyCtx<'_>) -> Choice {
        let Some(feasible) = ctx.max_feasible() else {
            self.streak = 0;
            self.current = Some(ctx.qualities().min());
            return fallback_choice(ctx.qualities());
        };
        let cur = self.current.unwrap_or(feasible);
        let chosen = if feasible < cur {
            self.streak = 0;
            feasible
        } else if feasible > cur {
            self.streak += 1;
            if self.streak >= self.patience {
                self.streak = 0;
                ctx.qualities().above(cur).unwrap_or(cur)
            } else {
                cur
            }
        } else {
            self.streak = 0;
            cur
        };
        self.current = Some(chosen);
        Choice {
            quality: chosen,
            fallback: false,
        }
    }

    fn on_cycle_start(&mut self) {
        self.streak = 0;
    }

    fn name(&self) -> &'static str {
        "hysteresis"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgqos_graph::GraphBuilder;
    use fgqos_sched::ConstraintTables;
    use fgqos_time::{Cycles, DeadlineMap, QualityProfile, QualitySet};

    /// One action, 3 levels; q-level k has avg 10(k+1), wc 20(k+1),
    /// deadline 100.
    fn tables() -> (ConstraintTables, QualitySet) {
        let mut b = GraphBuilder::new();
        let x = b.action("x");
        let _g = b.build().unwrap();
        let qs = QualitySet::contiguous(0, 2).unwrap();
        let mut pb = QualityProfile::builder(qs.clone(), 1);
        pb.set_levels(0, &[(10, 20), (20, 40), (30, 60)]).unwrap();
        let profile = pb.build().unwrap();
        let deadlines = DeadlineMap::uniform(qs.clone(), vec![Cycles::new(100)]);
        (
            ConstraintTables::new(vec![x], &profile, &deadlines).unwrap(),
            qs,
        )
    }

    fn ctx<'a>(
        tables: &'a ConstraintTables,
        qs: &'a QualitySet,
        elapsed: u64,
        previous: Option<Quality>,
    ) -> PolicyCtx<'a> {
        PolicyCtx::new(tables, qs, 0, Cycles::new(elapsed), previous)
    }

    #[test]
    fn max_quality_picks_highest_admissible() {
        let (t, qs) = tables();
        let mut p = MaxQuality::new();
        // t=0: q2 fits (wc 60 <= 100).
        assert_eq!(p.choose(&ctx(&t, &qs, 0, None)).quality, Quality::new(2));
        // t=50: q2 wc fails (50+60>100), q1 fits (50+40<=100... wait 90<=100).
        assert_eq!(p.choose(&ctx(&t, &qs, 50, None)).quality, Quality::new(1));
        // t=95: even q0 fails on wc (95+20>100)? av: 95+10 > 100 too -> fallback.
        let c = p.choose(&ctx(&t, &qs, 95, None));
        assert!(c.fallback);
        assert_eq!(c.quality, Quality::new(0));
        assert_eq!(p.name(), "controlled-max");
    }

    #[test]
    fn constant_ignores_constraints() {
        let (t, qs) = tables();
        let mut p = ConstantQuality::new(Quality::new(2));
        let c = p.choose(&ctx(&t, &qs, 99, None));
        assert_eq!(c.quality, Quality::new(2));
        assert!(!c.fallback);
    }

    #[test]
    fn soft_deadline_uses_average_only() {
        let (t, qs) = tables();
        let mut p = SoftDeadline::new();
        // t=50: hard would say q1 (wc), soft judges averages: q2 avg 30,
        // 50+30 <= 100 -> q2.
        assert_eq!(p.choose(&ctx(&t, &qs, 50, None)).quality, Quality::new(2));
    }

    #[test]
    fn smooth_limits_upward_steps_but_drops_fast() {
        let (t, qs) = tables();
        let mut p = Smooth::new(1);
        // From q0 with headroom for q2: climbs only one level.
        assert_eq!(
            p.choose(&ctx(&t, &qs, 0, Some(Quality::new(0)))).quality,
            Quality::new(1)
        );
        // From q2 at t=50 (feasible max q1): drops immediately.
        assert_eq!(
            p.choose(&ctx(&t, &qs, 50, Some(Quality::new(2)))).quality,
            Quality::new(1)
        );
        // No previous: jumps straight to the feasible max.
        assert_eq!(p.choose(&ctx(&t, &qs, 0, None)).quality, Quality::new(2));
    }

    #[test]
    fn hysteresis_waits_before_climbing() {
        let (t, qs) = tables();
        let mut p = Hysteresis::new(2);
        // First decision anchors at feasible max (q2)... then feasible
        // drops to q1 at t=50 -> drop immediately.
        assert_eq!(p.choose(&ctx(&t, &qs, 0, None)).quality, Quality::new(2));
        assert_eq!(p.choose(&ctx(&t, &qs, 50, None)).quality, Quality::new(1));
        // Headroom appears again at t=0: needs 2 consecutive observations.
        assert_eq!(p.choose(&ctx(&t, &qs, 0, None)).quality, Quality::new(1));
        assert_eq!(p.choose(&ctx(&t, &qs, 0, None)).quality, Quality::new(2));
        p.on_cycle_start();
        assert_eq!(p.name(), "hysteresis");
    }

    #[test]
    fn policies_are_object_safe() {
        let (t, qs) = tables();
        let mut policies: Vec<Box<dyn QualityPolicy>> = vec![
            Box::new(MaxQuality::new()),
            Box::new(ConstantQuality::new(Quality::new(1))),
            Box::new(SoftDeadline::new()),
            Box::new(Smooth::new(1)),
            Box::new(Hysteresis::new(3)),
        ];
        for p in &mut policies {
            let c = p.choose(&ctx(&t, &qs, 0, None));
            assert!(qs.contains(c.quality));
        }
    }
}
