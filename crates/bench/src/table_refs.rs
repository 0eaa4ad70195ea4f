//! Per-budget `ConstraintTables::new` rebuilds as a quality policy: the
//! equivalence oracle and the timing baseline of the runner's
//! budget-parametric tables.
//!
//! The runner decides every frame from its budget-parametric
//! `BudgetTables` view (plus a materialized table for a recurring
//! budget). [`RebuildPolicy`] rides along in the same run: at the first
//! decision of each frame it reads the frame budget off the runner's
//! tables, builds `ConstraintTables` for that budget from scratch, and
//! makes every [`MaxQuality`] decision from them. By default it also
//! asks the runner's tables and counts every disagreement: that is the
//! equivalence oracle (`tests/integration_tables.rs` and
//! `bench_smoke`'s untimed check run: zero mismatches, and a
//! `StreamResult` byte-identical to a plain [`MaxQuality`] run).
//!
//! [`RebuildPolicy::unchecked`] skips that comparison, so a timed run
//! pays for the rebuild and one decision per action, and nothing else:
//! the baseline `bench_smoke` prices the parametric path against
//! (`BENCH_tables.json`). [`RebuildPolicy::cached`] keeps one table set
//! per distinct budget instead — the historical cached path.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

use fgqos_core::estimator::AvgEstimator;
use fgqos_core::policy::{Choice, MaxQuality, PolicyCtx, QualityPolicy};
use fgqos_graph::ActionId;
use fgqos_sched::{budget_deadlines, ConstraintTables, DeadlineShape};
use fgqos_time::{Cycles, DeadlineMap, Quality, QualityProfile};

/// Re-derives a body profile before each frame's rebuild (an online
/// estimator moving `Cav`).
type Refresh = Box<dyn FnMut(&mut QualityProfile)>;

/// [`MaxQuality`] over freshly built per-budget `ConstraintTables`,
/// checked against the runner's own tables at every decision unless
/// [`unchecked`](Self::unchecked). See the module docs.
pub struct RebuildPolicy {
    body: QualityProfile,
    /// `body` tiled over the frame's macroblocks, as the runner keeps it.
    tiled: QualityProfile,
    iterations: usize,
    shape: DeadlineShape,
    refresh: Option<Refresh>,
    /// `Some` keeps one table set per distinct budget.
    memo: Option<HashMap<Cycles, Arc<ConstraintTables>>>,
    /// Compare decisions and deadlines with the runner's tables.
    checked: bool,
    /// Schedule position of the final macroblock's first action.
    budget_pos: Option<usize>,
    frame: Option<Arc<ConstraintTables>>,
    /// The budget each frame's tables were built for, in frame order.
    budgets: Vec<Cycles>,
    builds: u64,
    mismatches: u64,
}

impl RebuildPolicy {
    /// A policy for a stream of `iterations` macroblocks whose body
    /// profile is `body` and whose budgets split by `shape` — the
    /// runner's `app().profile()`, `app().iterations()` and
    /// `RunConfig::deadline_shape`.
    #[must_use]
    pub fn new(body: &QualityProfile, iterations: usize, shape: DeadlineShape) -> Self {
        RebuildPolicy {
            body: body.clone(),
            tiled: body.tile(iterations),
            iterations,
            shape,
            refresh: None,
            memo: None,
            checked: true,
            budget_pos: None,
            frame: None,
            budgets: Vec::new(),
            builds: 0,
            mismatches: 0,
        }
    }

    /// Builds one table set per distinct budget and reuses it.
    #[must_use]
    pub fn cached(mut self) -> Self {
        self.memo = Some(HashMap::new());
        self
    }

    /// Decides from the rebuilt tables alone: no decision or deadline is
    /// compared with the runner's tables, so [`Self::mismatches`] stays 0
    /// and a timed run prices the rebuild path only.
    #[must_use]
    pub fn unchecked(mut self) -> Self {
        self.checked = false;
        self
    }

    /// Applies `refresh` to the body profile before every frame, as the
    /// runner applies its online estimator (see [`SharedEstimator`]).
    #[must_use]
    pub fn refreshed_by(mut self, refresh: impl FnMut(&mut QualityProfile) + 'static) -> Self {
        self.refresh = Some(Box::new(refresh));
        self
    }

    /// `ConstraintTables::new` calls so far.
    #[must_use]
    pub fn builds(&self) -> u64 {
        self.builds
    }

    /// The frame budget read off the runner's tables at each frame's
    /// first decision — compare with the `budget` of the run's non-skipped
    /// `FrameRecord`s, since the rebuilt tables trust it.
    #[must_use]
    pub fn budgets(&self) -> &[Cycles] {
        &self.budgets
    }

    /// Decisions (or frames' deadline vectors) on which the runner's
    /// tables and the rebuilt ones disagreed.
    #[must_use]
    pub fn mismatches(&self) -> u64 {
        self.mismatches
    }

    /// The rebuilt tables of the frame `ctx` belongs to.
    fn frame_tables(&mut self, ctx: &PolicyCtx<'_>) -> Arc<ConstraintTables> {
        let live = ctx.tables();
        // Both deadline shapes give the final macroblock's actions the
        // whole frame budget (infinite for an unconstrained frame); the
        // schedule is fixed, so its position is found once.
        let last = self.iterations.saturating_sub(1) * self.body.n_actions();
        let pos = *self.budget_pos.get_or_insert_with(|| {
            live.order()
                .iter()
                .position(|a| a.index() == last)
                .expect("the schedule covers the final macroblock")
        });
        let budget = live.deadline_at(0, pos);
        self.budgets.push(budget);
        if let Some(refresh) = &mut self.refresh {
            refresh(&mut self.body);
            self.body.tile_into(self.iterations, &mut self.tiled);
            if let Some(memo) = &mut self.memo {
                // The memo baked the old profile in.
                memo.clear();
            }
        }
        if let Some(t) = self.memo.as_ref().and_then(|m| m.get(&budget)) {
            return Arc::clone(t);
        }
        let deadlines =
            budget_deadlines(self.shape, self.iterations, self.body.n_actions(), budget);
        let tables = Arc::new(
            ConstraintTables::new(
                live.order().to_vec(),
                &self.tiled,
                &DeadlineMap::uniform(self.body.qualities().clone(), deadlines),
            )
            .expect("the runner's schedule and profile build valid tables"),
        );
        self.builds += 1;
        if let Some(memo) = &mut self.memo {
            memo.insert(budget, Arc::clone(&tables));
        }
        tables
    }
}

impl QualityPolicy for RebuildPolicy {
    fn choose(&mut self, ctx: &PolicyCtx<'_>) -> Choice {
        if self.frame.is_none() {
            let tables = self.frame_tables(ctx);
            let live = ctx.tables();
            if self.checked
                && (0..live.len()).any(|i| live.deadline_at(0, i) != tables.deadline_at(0, i))
            {
                self.mismatches += 1;
            }
            self.frame = Some(tables);
        }
        let tables = self.frame.as_deref().expect("frame tables just built");
        let rebuilt = MaxQuality::new().choose(&ctx.with_tables(tables));
        if self.checked && rebuilt != MaxQuality::new().choose(ctx) {
            self.mismatches += 1;
        }
        rebuilt
    }

    fn on_cycle_start(&mut self) {
        self.frame = None;
    }

    /// [`MaxQuality`]'s name: a mismatch-free run is the same run.
    fn name(&self) -> &'static str {
        MaxQuality::new().name()
    }
}

/// An estimator shared between the runner (which feeds it) and a
/// [`RebuildPolicy::refreshed_by`] closure (which reads it).
pub struct SharedEstimator<E>(pub Rc<RefCell<E>>);

impl<E: AvgEstimator> AvgEstimator for SharedEstimator<E> {
    fn observe(&mut self, action: ActionId, q: Quality, actual: Cycles) {
        self.0.borrow_mut().observe(action, q, actual);
    }

    fn estimate(&self, action: ActionId, q: Quality) -> Option<Cycles> {
        self.0.borrow().estimate(action, q)
    }

    fn name(&self) -> &'static str {
        "shared"
    }
}
