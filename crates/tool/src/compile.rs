//! Compilation of a [`ToolSpec`] into a controlled application.

use std::error::Error;
use std::fmt;

use fgqos_core::{CycleController, ParamSystem};
use fgqos_graph::iterate::{IteratedGraph, IterationMode};
use fgqos_graph::{ActionId, GraphBuilder, PrecedenceGraph};
use fgqos_sched::{budget_deadlines, BestSched, ConstraintTables, EdfScheduler};
use fgqos_time::{Cycles, DeadlineMap, QualityProfile, QualitySet};

use crate::spec::{TimesSpec, ToolSpec};

/// Errors produced during compilation.
#[derive(Debug)]
#[non_exhaustive]
pub enum CompileError {
    /// Underlying model error (graph/profile/deadline construction).
    Model(Box<dyn Error + Send + Sync>),
    /// The deadline order depends on the quality level, which the
    /// prototype tool does not support (paper, Section 3).
    QualityDependentDeadlineOrder,
    /// The schedulability precondition fails (Section 2.1).
    Infeasible(fgqos_sched::SchedError),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Model(e) => write!(f, "model construction failed: {e}"),
            CompileError::QualityDependentDeadlineOrder => write!(
                f,
                "deadline order depends on quality level (unsupported by the prototype tool)"
            ),
            CompileError::Infeasible(e) => write!(f, "system not schedulable: {e}"),
        }
    }
}

impl Error for CompileError {}

fn model_err(e: impl Error + Send + Sync + 'static) -> CompileError {
    CompileError::Model(Box::new(e))
}

/// The compiled, controlled application: everything the generic
/// controller needs at run time.
#[derive(Debug, Clone)]
pub struct ControlledApp {
    name: String,
    body: PrecedenceGraph,
    iterations: usize,
    body_profile: QualityProfile,
    system: ParamSystem,
    order: Vec<ActionId>,
    tables: ConstraintTables,
}

impl ControlledApp {
    /// System name from the spec.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The body (per-iteration) graph.
    #[must_use]
    pub fn body(&self) -> &PrecedenceGraph {
        &self.body
    }

    /// Iterations per cycle.
    #[must_use]
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// The per-body-action profile.
    #[must_use]
    pub fn body_profile(&self) -> &QualityProfile {
        &self.body_profile
    }

    /// The full unrolled parameterized system.
    #[must_use]
    pub fn system(&self) -> &ParamSystem {
        &self.system
    }

    /// The static EDF schedule of the unrolled cycle.
    #[must_use]
    pub fn schedule(&self) -> &[ActionId] {
        &self.order
    }

    /// The precomputed `Qual_Const` tables.
    #[must_use]
    pub fn tables(&self) -> &ConstraintTables {
        &self.tables
    }

    /// Instantiates a fresh cycle controller over the compiled tables.
    #[must_use]
    pub fn controller(&self) -> CycleController {
        CycleController::from_tables(self.tables.clone(), self.system.qualities().clone())
    }
}

/// Compiles a spec: builds the body graph and profile, unrolls the
/// iterations, derives deadlines from the budget, validates the
/// prototype-tool precondition (quality-independent deadline order) and
/// the schedulability precondition, computes the EDF schedule
/// compositionally and precomputes the constraint tables.
///
/// # Errors
///
/// See [`CompileError`].
pub fn compile(spec: &ToolSpec) -> Result<ControlledApp, CompileError> {
    // Body graph.
    let mut gb = GraphBuilder::with_capacity(spec.actions.len());
    let ids: Vec<ActionId> = spec
        .actions
        .iter()
        .map(|(name, _)| gb.action(name.clone()))
        .collect();
    for (from, to) in &spec.edges {
        let f = spec
            .actions
            .iter()
            .position(|(n, _)| n == from)
            .expect("validated");
        let t = spec
            .actions
            .iter()
            .position(|(n, _)| n == to)
            .expect("validated");
        gb.edge(ids[f], ids[t]).map_err(model_err)?;
    }
    let body = gb.build().map_err(model_err)?;

    // Quality set + body profile.
    let qualities = QualitySet::contiguous(spec.quality.0, spec.quality.1).map_err(model_err)?;
    let mut pb = QualityProfile::builder(qualities.clone(), spec.actions.len());
    for (idx, (_, times)) in spec.actions.iter().enumerate() {
        match times {
            TimesSpec::Constant(avg, wc) => {
                pb.set_constant(idx, *avg, *wc).map_err(model_err)?;
            }
            TimesSpec::Levels(pairs) => {
                pb.set_levels(idx, pairs).map_err(model_err)?;
            }
        }
    }
    let body_profile = pb.build().map_err(model_err)?;

    // Unroll.
    let iter =
        IteratedGraph::new(&body, spec.iterations, IterationMode::Sequential).map_err(model_err)?;
    let tiled = body_profile.tile(spec.iterations);

    // Deadlines from the budget (the runner's exact u128 mapping).
    let body_len = body.len();
    let deadline_vec = budget_deadlines(
        spec.deadline,
        spec.iterations,
        body_len,
        Cycles::new(spec.budget),
    );
    let deadlines = DeadlineMap::uniform(qualities.clone(), deadline_vec);
    // The prototype tool requires the deadline order to be independent of
    // quality; uniform maps satisfy it, but check anyway (the API allows
    // callers to feed richer maps through ParamSystem directly).
    if !deadlines.has_quality_independent_order() {
        return Err(CompileError::QualityDependentDeadlineOrder);
    }

    let system = ParamSystem::new(iter.graph().clone(), tiled, deadlines).map_err(model_err)?;
    system
        .check_schedulable()
        .map_err(CompileError::Infeasible)?;

    // Compositional EDF: schedule the body once, replay N times. Within
    // one iteration all actions share the iteration deadline, so EDF
    // order = precedence-compatible order.
    let body_deadlines = vec![Cycles::INFINITY; body_len];
    let body_order = EdfScheduler
        .best_schedule(&body, &body_deadlines, &[])
        .map_err(model_err)?;
    let order = iter.replay_body_schedule(&body_order).map_err(model_err)?;

    let tables = ConstraintTables::new(order.clone(), system.profile(), system.deadlines())
        .map_err(model_err)?;

    Ok(ControlledApp {
        name: spec.name.clone(),
        body,
        iterations: spec.iterations,
        body_profile,
        system,
        order,
        tables,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgqos_core::policy::MaxQuality;
    use fgqos_time::fig5;

    #[test]
    fn compiles_paper_encoder_at_small_scale() {
        // 20 macroblocks with a proportional share of the paper budget.
        let n = 20;
        let budget = fig5::PERIOD_CYCLES * n as u64 / fig5::MACROBLOCKS_PER_FRAME as u64;
        let spec = ToolSpec::paper_encoder(n, budget);
        let app = compile(&spec).unwrap();
        assert_eq!(app.name(), "mpeg4-encoder");
        assert_eq!(app.body().len(), 9);
        assert_eq!(app.iterations(), n);
        assert_eq!(app.schedule().len(), 9 * n);
        assert_eq!(app.tables().len(), 9 * n);
        assert_eq!(app.body_profile().n_actions(), 9);
    }

    #[test]
    fn compiled_controller_runs_a_cycle_safely() {
        let n = 6;
        let budget = fig5::PERIOD_CYCLES * n as u64 / fig5::MACROBLOCKS_PER_FRAME as u64;
        let spec = ToolSpec::paper_encoder(n, budget);
        let app = compile(&spec).unwrap();
        let mut ctl = app.controller();
        let mut policy = MaxQuality::new();
        let mut t = Cycles::ZERO;
        while let Some(d) = ctl.decide(t, &mut policy).unwrap() {
            // Execute at declared average.
            let dur = app.system().profile().avg(d.action, d.quality);
            t += dur;
            ctl.complete(t).unwrap();
        }
        let report = ctl.finish();
        assert_eq!(report.misses, 0);
        assert_eq!(report.fallbacks, 0);
        assert_eq!(report.decisions, 9 * n);
    }

    #[test]
    fn rejects_infeasible_budget() {
        let spec = ToolSpec::paper_encoder(10, 100); // 100 cycles for 10 MBs
        match compile(&spec).unwrap_err() {
            CompileError::Infeasible(_) => {}
            other => panic!("expected infeasible, got {other}"),
        }
    }

    #[test]
    fn rejects_cyclic_graphs() {
        let mut spec = ToolSpec::parse(
            "system x\nquality 0..0\naction a const 1 2\naction b const 1 2\nedge a b\nedge b a\nbudget 100",
        )
        .unwrap();
        spec.iterations = 1;
        assert!(matches!(compile(&spec), Err(CompileError::Model(_))));
    }

    #[test]
    fn final_only_deadlines_compile() {
        let mut spec = ToolSpec::paper_encoder(4, 10_000_000);
        spec.deadline = fgqos_sched::DeadlineShape::FinalOnly;
        let app = compile(&spec).unwrap();
        // All but the last iteration's deadlines are infinite.
        let d = app.system().deadlines();
        assert!(d.deadline_idx(0, 0).is_infinite());
        assert_eq!(d.deadline_idx(9 * 3 + 5, 0), Cycles::new(10_000_000));
    }

    #[test]
    fn budgets_near_the_top_of_u64_get_exact_deadlines() {
        // `budget * (k + 1)` overflows u64 here; the deadlines must not.
        let spec = ToolSpec::parse(
            "system x\nquality 0..0\naction a const 1 2\niterations 2\nbudget 10000000000000000000",
        )
        .unwrap();
        let app = compile(&spec).unwrap();
        let d = app.system().deadlines();
        assert_eq!(d.deadline_idx(0, 0), Cycles::new(5_000_000_000_000_000_000));
        assert_eq!(
            d.deadline_idx(1, 0),
            Cycles::new(10_000_000_000_000_000_000)
        );
    }

    #[test]
    fn error_display() {
        let e = CompileError::QualityDependentDeadlineOrder;
        assert!(e.to_string().contains("deadline order"));
    }
}
