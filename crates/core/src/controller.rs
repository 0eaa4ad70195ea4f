//! The cycle controller: the abstract control algorithm of Section 2.2.

use std::sync::Arc;

use fgqos_graph::ActionId;
use fgqos_sched::{BestSched, ConstraintTables, FrameTables, SharedTables, TableQuery};
use fgqos_time::{Cycles, Quality, QualitySet};

use crate::policy::{PolicyCtx, QualityPolicy};
use crate::{ActionRecord, CoreError, CycleReport, ParamSystem};

/// One controller decision: which action to run next and at what quality.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decision {
    /// 0-based position in the cycle schedule.
    pub position: usize,
    /// The action to execute (atomically, non-interruptibly).
    pub action: ActionId,
    /// The quality level chosen by the quality manager.
    pub quality: Quality,
    /// The maximal admissible level at decision time (`None` means even
    /// `q_min` violated the constraint and the controller fell back).
    pub feasible_max: Option<Quality>,
    /// The action's absolute deadline at the chosen quality.
    pub deadline: Cycles,
}

/// The controller of Fig. 1, driving one cycle of the application.
///
/// The controller interleaves with the application: [`decide`] consults the
/// scheduler-derived [`ConstraintTables`] and a [`QualityPolicy`] to pick
/// `(action, quality)`; the caller runs the action and reports the
/// completion time via [`complete`]; [`finish`] closes the cycle and
/// produces a [`CycleReport`].
///
/// The paper computes the controller's schedule once per cycle via
/// `Best_Sched` because the deadline order is quality-independent; when it
/// is not, re-scheduling per step can be layered on top (the tables are
/// rebuilt from the new order).
///
/// [`decide`]: CycleController::decide
/// [`complete`]: CycleController::complete
/// [`finish`]: CycleController::finish
#[derive(Debug, Clone)]
pub struct CycleController {
    /// Shared so cyclic streams can reuse one table set across every
    /// frame with the same budget — or, for budget-parametric tables,
    /// one envelope set across *all* frames (the controller never
    /// mutates tables; cloning the handle is an `Arc` bump). The
    /// wrapper memoizes the envelope values `q_M` reads during the
    /// cycle.
    tables: FrameTables,
    qualities: QualitySet,
    pos: usize,
    pending: Option<Decision>,
    last_time: Cycles,
    records: Vec<ActionRecord>,
    fallbacks: usize,
}

impl CycleController {
    /// Builds the controller for one cycle of `system`, computing the
    /// static schedule with `scheduler` (EDF in the paper) on the
    /// minimal-quality deadlines.
    ///
    /// # Errors
    ///
    /// Propagates scheduler and table-construction failures
    /// ([`CoreError::Sched`]).
    pub fn new(system: &ParamSystem, scheduler: &dyn BestSched) -> Result<Self, CoreError> {
        let qmin = system.qualities().min();
        let n = system.graph().len();
        let deadlines_qmin: Vec<Cycles> = (0..n)
            .map(|a| system.deadlines().deadline_idx(a, qmin))
            .collect();
        let order = scheduler.best_schedule(system.graph(), &deadlines_qmin, &[])?;
        Self::with_order(system, order)
    }

    /// Builds the controller from a precomputed schedule (the prototype
    /// tool's fast path: for iterated bodies with quality-independent
    /// deadline order, the body's EDF order is computed once and replayed).
    ///
    /// # Errors
    ///
    /// [`CoreError::Graph`] if `order` is not a schedule of the system's
    /// graph; [`CoreError::Sched`] on table-dimension mismatches.
    pub fn with_order(system: &ParamSystem, order: Vec<ActionId>) -> Result<Self, CoreError> {
        system.graph().validate_schedule(&order)?;
        let tables = ConstraintTables::new(order, system.profile(), system.deadlines())?;
        Ok(Self::from_shared(
            Arc::new(tables),
            system.qualities().clone(),
        ))
    }

    /// Builds a controller directly from precomputed constraint tables.
    ///
    /// This is the hot path for cyclic streams: the schedule is validated
    /// once, then each cycle only swaps in fresh tables (deadlines change
    /// with the per-frame budget). The caller is responsible for the
    /// tables' order being a schedule of the application graph — use
    /// [`CycleController::with_order`] when in doubt.
    #[must_use]
    pub fn from_tables(tables: ConstraintTables, qualities: QualitySet) -> Self {
        Self::from_shared(Arc::new(tables), qualities)
    }

    /// Builds a controller over *shared* tables without copying them.
    ///
    /// Accepts anything convertible into [`SharedTables`]: an
    /// `Arc<ConstraintTables>` (frames with the same budget see
    /// identical deadlines, so a stream runner builds them once per
    /// budget and hands every controller an [`Arc`] clone), or a
    /// [`SharedTables::AtBudget`] view of budget-parametric tables
    /// (one envelope set serves every frame at any budget). Same
    /// caveats as [`CycleController::from_tables`].
    #[must_use]
    pub fn from_shared(tables: impl Into<SharedTables>, qualities: QualitySet) -> Self {
        let tables = FrameTables::new(tables);
        let n = tables.tables().len();
        CycleController {
            tables,
            qualities,
            pos: 0,
            pending: None,
            last_time: Cycles::ZERO,
            records: Vec::with_capacity(n),
            fallbacks: 0,
        }
    }

    /// The static schedule `α` the controller follows.
    #[must_use]
    pub fn schedule(&self) -> &[ActionId] {
        self.tables.tables().order()
    }

    /// The constraint tables (exposed for policies, codegen and tests).
    #[must_use]
    pub fn tables(&self) -> &dyn TableQuery {
        self.tables.tables()
    }

    /// Number of actions already completed.
    #[must_use]
    pub fn completed(&self) -> usize {
        self.pos
    }

    /// Step `i` of the abstract algorithm: choose the next action and its
    /// quality, given the elapsed cycle time `t = Ĉ(α)(i)`.
    ///
    /// Evaluates `q_M = max{q | Qual_Const}` once, reading
    /// budget-parametric envelope values through the cycle's memo, and
    /// hands it to `policy` in the [`PolicyCtx`]; the same value is the
    /// decision's [`Decision::feasible_max`].
    ///
    /// Returns `None` when the cycle is complete.
    ///
    /// # Errors
    ///
    /// [`CoreError::DecisionPending`] if the previous decision has not been
    /// completed; [`CoreError::TimeWentBackwards`] if `t` precedes the last
    /// completion time.
    pub fn decide(
        &mut self,
        t: Cycles,
        policy: &mut dyn QualityPolicy,
    ) -> Result<Option<Decision>, CoreError> {
        if self.pending.is_some() {
            return Err(CoreError::DecisionPending);
        }
        if self.pos == self.tables.tables().len() {
            return Ok(None);
        }
        if t < self.last_time {
            return Err(CoreError::TimeWentBackwards);
        }
        let feasible_max = self
            .tables
            .max_feasible(self.pos, t)
            .map(|qi| self.qualities.at(qi));
        let tables = self.tables.tables();
        let ctx = PolicyCtx::decided(
            tables,
            &self.qualities,
            self.pos,
            t,
            self.records.last().map(|r| r.quality),
            feasible_max,
        );
        let choice = policy.choose(&ctx);
        if choice.fallback {
            self.fallbacks += 1;
        }
        let qi = self
            .qualities
            .index_of(choice.quality)
            .expect("policies must return members of the quality set");
        let action = tables.order()[self.pos];
        let decision = Decision {
            position: self.pos,
            action,
            quality: choice.quality,
            feasible_max,
            deadline: deadline_of(tables, qi, self.pos),
        };
        self.pending = Some(decision);
        self.last_time = t.max(self.last_time);
        Ok(Some(decision))
    }

    /// Reports that the pending action completed at elapsed time `end`.
    ///
    /// # Errors
    ///
    /// [`CoreError::NoPendingDecision`] without a prior [`decide`];
    /// [`CoreError::TimeWentBackwards`] if `end` precedes the decision
    /// time.
    ///
    /// [`decide`]: CycleController::decide
    pub fn complete(&mut self, end: Cycles) -> Result<&ActionRecord, CoreError> {
        let decision = self.pending.take().ok_or(CoreError::NoPendingDecision)?;
        if end < self.last_time {
            self.pending = Some(decision);
            return Err(CoreError::TimeWentBackwards);
        }
        let record = ActionRecord {
            action: decision.action,
            quality: decision.quality,
            start: self.last_time,
            end,
            deadline: decision.deadline,
            fallback: decision.feasible_max.is_none(),
        };
        self.records.push(record);
        self.pos += 1;
        self.last_time = end;
        Ok(self.records.last().expect("record just pushed"))
    }

    /// Closes the cycle and produces its report.
    ///
    /// Callable at any point; actions not yet executed simply do not
    /// appear in the report (the pipeline runner uses this when a cycle is
    /// abandoned).
    #[must_use]
    pub fn finish(self) -> CycleReport {
        CycleReport::from_records(self.records, self.fallbacks)
    }
}

/// `D_q(α_i)` recovered from the tables' per-position data.
fn deadline_of(tables: &SharedTables, qi: usize, i: usize) -> Cycles {
    // The tables expose D_q(α_i) directly (cached for materialized
    // tables, one affine evaluation for budget-parametric ones);
    // re-deriving it through the public budget API would conflate it
    // with execution times.
    tables.deadline_at(qi, i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{ConstantQuality, MaxQuality};
    use fgqos_graph::GraphBuilder;
    use fgqos_sched::EdfScheduler;
    use fgqos_time::{DeadlineMap, QualityProfile, QualitySet};

    /// Two chained actions, 2 levels.
    /// avg/wc per level: q0 = 10/20, q1 = 40/80 (both actions).
    /// Deadlines: x at 100, y at 200.
    fn system() -> ParamSystem {
        let mut b = GraphBuilder::new();
        let x = b.action("x");
        let y = b.action("y");
        b.edge(x, y).unwrap();
        let graph = b.build().unwrap();
        let qs = QualitySet::contiguous(0, 1).unwrap();
        let mut pb = QualityProfile::builder(qs.clone(), 2);
        pb.set_levels(0, &[(10, 20), (40, 80)]).unwrap();
        pb.set_levels(1, &[(10, 20), (40, 80)]).unwrap();
        let profile = pb.build().unwrap();
        let deadlines = DeadlineMap::uniform(qs, vec![Cycles::new(100), Cycles::new(200)]);
        ParamSystem::new(graph, profile, deadlines).unwrap()
    }

    #[test]
    fn full_cycle_with_max_policy() {
        let sys = system();
        let mut policy = MaxQuality::new();
        let mut ctl = CycleController::new(&sys, &EdfScheduler).unwrap();
        assert_eq!(ctl.schedule().len(), 2);

        // Step 0 at t=0: q1 is admissible (wc: 80 + qmin wc 20 = 100 <= 100;
        // av: 40+40=80 <= 200, and x av at q1: 40 <= 100).
        let d0 = ctl.decide(Cycles::ZERO, &mut policy).unwrap().unwrap();
        assert_eq!(d0.quality.level(), 1);
        assert_eq!(d0.deadline, Cycles::new(100));
        ctl.complete(Cycles::new(70)).unwrap(); // slower than average

        // Step 1 at t=70: q1 wc = 80 -> 70+80 <= 200 ok; av 70+40 ok -> q1.
        let d1 = ctl.decide(Cycles::new(70), &mut policy).unwrap().unwrap();
        assert_eq!(d1.quality.level(), 1);
        ctl.complete(Cycles::new(140)).unwrap();

        let report = ctl.finish();
        assert_eq!(report.misses, 0);
        assert_eq!(report.decisions, 2);
        assert_eq!(report.total_time, Cycles::new(140));
        assert!((report.utilization() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn quality_degrades_under_load() {
        let sys = system();
        let mut policy = MaxQuality::new();
        let mut ctl = CycleController::new(&sys, &EdfScheduler).unwrap();
        let d0 = ctl.decide(Cycles::ZERO, &mut policy).unwrap().unwrap();
        assert_eq!(d0.quality.level(), 1);
        // x consumed nearly its whole deadline: y must degrade.
        ctl.complete(Cycles::new(95)).unwrap();
        let d1 = ctl.decide(Cycles::new(95), &mut policy).unwrap().unwrap();
        // q1 wc: 95 + 80 = 175 <= 200 ok! av fine too -> stays q1.
        assert_eq!(d1.quality.level(), 1);
        ctl.complete(Cycles::new(130)).unwrap();
        let report = ctl.finish();
        assert_eq!(report.misses, 0);
    }

    #[test]
    fn protocol_errors_are_reported() {
        let sys = system();
        let mut policy = MaxQuality::new();
        let mut ctl = CycleController::new(&sys, &EdfScheduler).unwrap();
        assert_eq!(
            ctl.complete(Cycles::new(1)).unwrap_err(),
            CoreError::NoPendingDecision
        );
        ctl.decide(Cycles::ZERO, &mut policy).unwrap();
        assert_eq!(
            ctl.decide(Cycles::ZERO, &mut policy).unwrap_err(),
            CoreError::DecisionPending
        );
        ctl.complete(Cycles::new(10)).unwrap();
        assert_eq!(
            ctl.decide(Cycles::new(5), &mut policy).unwrap_err(),
            CoreError::TimeWentBackwards
        );
    }

    #[test]
    fn completion_before_decision_time_is_rejected_then_recoverable() {
        let sys = system();
        let mut policy = MaxQuality::new();
        let mut ctl = CycleController::new(&sys, &EdfScheduler).unwrap();
        ctl.decide(Cycles::new(10), &mut policy).unwrap();
        assert_eq!(
            ctl.complete(Cycles::new(5)).unwrap_err(),
            CoreError::TimeWentBackwards
        );
        // The pending decision survives the error.
        ctl.complete(Cycles::new(15)).unwrap();
        assert_eq!(ctl.completed(), 1);
    }

    #[test]
    fn constant_policy_records_misses() {
        let sys = system();
        let mut policy = ConstantQuality::new(Quality::new(1));
        let mut ctl = CycleController::new(&sys, &EdfScheduler).unwrap();
        ctl.decide(Cycles::ZERO, &mut policy).unwrap();
        ctl.complete(Cycles::new(120)).unwrap(); // x misses its 100 deadline
        ctl.decide(Cycles::new(120), &mut policy).unwrap();
        ctl.complete(Cycles::new(240)).unwrap(); // y misses 200
        let report = ctl.finish();
        assert_eq!(report.misses, 2);
    }

    #[test]
    fn with_order_validates_schedule() {
        let sys = system();
        let wrong = vec![sys.graph().ids().nth(1).unwrap()];
        assert!(matches!(
            CycleController::with_order(&sys, wrong),
            Err(CoreError::Graph(_))
        ));
    }

    #[test]
    fn decide_after_finish_returns_none() {
        let sys = system();
        let mut policy = MaxQuality::new();
        let mut ctl = CycleController::new(&sys, &EdfScheduler).unwrap();
        for _ in 0..2 {
            ctl.decide(ctl.last_time, &mut policy).unwrap().unwrap();
            let t = ctl.last_time + Cycles::new(10);
            ctl.complete(t).unwrap();
        }
        assert!(ctl.decide(Cycles::new(20), &mut policy).unwrap().is_none());
    }
}
