//! The deterministic parallel frame executor: the kernel DAG.
//!
//! # The determinism problem
//!
//! The controller of Section 2.2 is inherently sequential: the quality it
//! picks for step `i` depends on the elapsed cycle time after steps
//! `0..i`, which depends on every earlier action's cost, which (for
//! work-driven models) depends on the pixels those actions produced. A
//! naive parallel executor would change the timeline and therefore the
//! quality decisions — the controller's guarantees would no longer be the
//! ones proved for the sequential runner.
//!
//! [`Runner::run_parallel_on`] keeps the guarantees by splitting a frame
//! into two phases:
//!
//! 1. **Speculative execution** — every action instance's *pure
//!    computation* (its [`VideoApp::kernel`]) runs on a
//!    [`WorkStealingPool`] as soon as its *data* dependencies are done,
//!    at a speculated quality (the level the controller chose at the same
//!    schedule position one frame earlier).
//! 2. **Sequential commit** — the controller loop replays in the static
//!    EDF order exactly as in [`Runner::run_on`]: each decision either
//!    consumes the speculated kernel result (when the decided quality
//!    falls in the same [`VideoApp::kernel_class`] and every data
//!    input was itself valid) and applies its side effects via
//!    [`VideoApp::apply`], or discards it and re-executes the action
//!    in place, kernel then apply.
//!
//! Because phase 2 performs the *same* state transitions in the *same*
//! order with the *same* inputs as the sequential runner — mis-speculated
//! work is simply thrown away — the per-frame series is byte-identical at
//! any worker count on a [`crate::runtime::VirtualClock`] +
//! [`crate::runtime::ModelBackend`] runtime. On a wall clock the benefit
//! is real: the heavy pixel math has already happened concurrently, so
//! phase 2 is a cheap replay.
//!
//! # What may run in parallel
//!
//! The kernel DAG is *not* the unrolled precedence graph verbatim. Under
//! [`IterationMode::Pipelined`] the cross-iteration `a@k → a@k+1` edges
//! only pace the *timeline* (which phase 2 enforces exactly); they carry
//! no data, so phase 1 drops them and schedules on the body's
//! same-iteration edges plus the app's declared
//! [`VideoApp::data_preds`] — for the pixel encoder, the classic
//! macroblock wavefront (intra prediction reads the left and above
//! reconstructions). Under [`IterationMode::Sequential`] the iteration
//! barrier edges are kept, so parallelism stays inside one iteration —
//! the conservative mode for apps whose cross-iteration data flow is
//! undeclared.
//!
//! What an app must guarantee for all this — `&self` kernels, exact
//! read sets, a single writer per field — is the [`VideoApp`] contract.
//!
//! [`Runner::run_parallel_on`]: crate::runner::Runner::run_parallel_on
//! [`Runner::run_on`]: crate::runner::Runner::run_on
//! [`WorkStealingPool`]: crate::runtime::WorkStealingPool
//! [`IterationMode::Pipelined`]: fgqos_graph::iterate::IterationMode::Pipelined
//! [`IterationMode::Sequential`]: fgqos_graph::iterate::IterationMode::Sequential

use fgqos_graph::iterate::{IteratedGraph, IterationMode};
use fgqos_graph::ActionId;

use crate::app::VideoApp;
use crate::SimError;

/// One speculated kernel result (filled during phase 1).
#[derive(Debug, Clone, Copy)]
pub(crate) struct SpecSlot {
    /// Fingerprint of the quality the kernel actually ran at.
    pub class: u64,
    /// Work units it reported.
    pub work: Option<u64>,
}

/// The static per-frame kernel DAG of a runner: execution edges for
/// phase 1 and validity (taint) edges for phase 2. Instances are indexed
/// iteration-major (`mb * body_len + action`), matching
/// [`IteratedGraph::instance`].
///
/// Equality is exact over all three edge sets, so runners whose plans
/// compare equal can share one copy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct FramePlan {
    /// In-degree of each instance in the execution DAG.
    pub indegree: Vec<usize>,
    /// Successors of each instance in the execution DAG.
    pub succs: Vec<Vec<usize>>,
    /// Kernel-input predecessors: a cached result is valid only if every
    /// taint predecessor's committed result was itself valid.
    pub taint_preds: Vec<Vec<usize>>,
}

impl FramePlan {
    /// Builds the plan for `app` over the unrolled graph `iter`, given
    /// the static schedule positions `order_pos[instance] = position`.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] if a declared data dependency points
    /// outside the graph or does not precede its consumer in the static
    /// schedule (which would break both phase-1 scheduling and phase-2
    /// re-execution).
    pub fn build<A: VideoApp>(
        app: &A,
        iter: &IteratedGraph,
        order_pos: &[usize],
    ) -> Result<Self, SimError> {
        let body_len = iter.body_len();
        let n = iter.graph().len();
        let mut indegree = vec![0usize; n];
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut taint_preds: Vec<Vec<usize>> = vec![Vec::new(); n];

        let add_edge =
            |from: usize, to: usize, succs: &mut Vec<Vec<usize>>, indegree: &mut Vec<usize>| {
                if !succs[from].contains(&to) {
                    succs[from].push(to);
                    indegree[to] += 1;
                }
            };

        for (from, to) in iter.graph().edges() {
            let (fa, fk) = iter.body_of(from);
            let (ta, tk) = iter.body_of(to);
            let same_iteration = fk == tk;
            // Pipelined cross-iteration edges (`a@k → a@k+1`) order the
            // timeline, not data: phase 2 enforces them, phase 1 drops
            // them. Sequential barrier edges are kept — without declared
            // data deps, iteration k+1 must assume it reads everything.
            if !same_iteration && iter.mode() == IterationMode::Pipelined && fa == ta {
                continue;
            }
            add_edge(from.index(), to.index(), &mut succs, &mut indegree);
            if same_iteration {
                taint_preds[to.index()].push(from.index());
            }
        }

        for mb in 0..iter.iterations() {
            for a in (0..body_len).map(ActionId::from_index) {
                let inst = iter.instance(a, mb).index();
                for (pa, pk) in app.data_preds(a, mb) {
                    if pa.index() >= body_len || pk > mb {
                        return Err(SimError::InvalidConfig(
                            "data dependency outside the unrolled graph",
                        ));
                    }
                    let pred = iter.instance(pa, pk).index();
                    if order_pos[pred] >= order_pos[inst] {
                        return Err(SimError::InvalidConfig(
                            "data dependency does not precede its consumer in the schedule",
                        ));
                    }
                    add_edge(pred, inst, &mut succs, &mut indegree);
                    if !taint_preds[inst].contains(&pred) {
                        taint_preds[inst].push(pred);
                    }
                }
            }
        }
        Ok(FramePlan {
            indegree,
            succs,
            taint_preds,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::TableApp;
    use crate::scenario::LoadScenario;
    use fgqos_time::Quality;

    fn order_pos(iter: &IteratedGraph) -> Vec<usize> {
        // Iteration-major identity (instances are laid out that way).
        (0..iter.graph().len()).collect()
    }

    fn table_app(mb: usize) -> TableApp {
        let scenario = LoadScenario::paper_benchmark(1).truncated(4);
        TableApp::with_macroblocks(scenario, mb).unwrap()
    }

    #[test]
    fn sequential_plan_keeps_iteration_barriers() {
        let app = table_app(3);
        let iter = IteratedGraph::new(app.body(), 3, IterationMode::Sequential).unwrap();
        let plan = FramePlan::build(&app, &iter, &order_pos(&iter)).unwrap();
        // Exactly the unrolled graph (no data deps declared, nothing
        // dropped in sequential mode).
        let edges: usize = plan.succs.iter().map(Vec::len).sum();
        assert_eq!(edges, iter.graph().edge_count());
        assert_eq!(plan.indegree.iter().sum::<usize>(), edges);
    }

    #[test]
    fn pipelined_plan_drops_pacing_edges() {
        let app = table_app(3);
        let iter = IteratedGraph::new(app.body(), 3, IterationMode::Pipelined).unwrap();
        let plan = FramePlan::build(&app, &iter, &order_pos(&iter)).unwrap();
        let body_edges = app.body().edge_count();
        let edges: usize = plan.succs.iter().map(Vec::len).sum();
        // Only the per-iteration body edges remain: iterations fully
        // independent for a TableApp (no data flow between macroblocks).
        assert_eq!(edges, body_edges * 3);
        // Every iteration's source is immediately ready.
        let ready = plan.indegree.iter().filter(|&&d| d == 0).count();
        assert_eq!(ready, 3 * app.body().sources().len());
    }

    #[test]
    fn taint_preds_are_same_iteration_only_for_table_app() {
        let app = table_app(2);
        let iter = IteratedGraph::new(app.body(), 2, IterationMode::Sequential).unwrap();
        let plan = FramePlan::build(&app, &iter, &order_pos(&iter)).unwrap();
        let body_len = iter.body_len();
        for (inst, preds) in plan.taint_preds.iter().enumerate() {
            for &p in preds {
                assert_eq!(p / body_len, inst / body_len, "taint crossed iterations");
            }
        }
    }

    #[test]
    fn plan_equality_is_exact() {
        let app = table_app(3);
        let iter = IteratedGraph::new(app.body(), 3, IterationMode::Sequential).unwrap();
        let plan = FramePlan::build(&app, &iter, &order_pos(&iter)).unwrap();
        assert_eq!(
            plan,
            FramePlan::build(&app, &iter, &order_pos(&iter)).unwrap()
        );
        let last = plan.indegree.len() - 1;
        // One execution edge more, one fewer, one more taint edge.
        let mut extra = plan.clone();
        extra.succs[0].push(last);
        extra.indegree[last] += 1;
        assert_ne!(plan, extra);
        let mut fewer = plan.clone();
        let to = fewer.succs[0].pop().expect("the source has a successor");
        fewer.indegree[to] -= 1;
        assert_ne!(plan, fewer);
        let mut taint = plan.clone();
        taint.taint_preds[last].push(0);
        assert_ne!(plan, taint);
        // Same graph size, other iteration mode: other edges.
        let pipelined = IteratedGraph::new(app.body(), 3, IterationMode::Pipelined).unwrap();
        assert_ne!(
            plan,
            FramePlan::build(&app, &pipelined, &order_pos(&pipelined)).unwrap()
        );
    }

    /// An app declaring an out-of-order data dep is rejected.
    #[test]
    fn bad_data_deps_are_rejected() {
        struct BadApp(TableApp);
        impl VideoApp for BadApp {
            type Snapshot = ();
            fn body(&self) -> &fgqos_graph::PrecedenceGraph {
                self.0.body()
            }
            fn iterations(&self) -> usize {
                self.0.iterations()
            }
            fn profile(&self) -> &fgqos_time::QualityProfile {
                self.0.profile()
            }
            fn scenario(&self) -> &crate::scenario::LoadScenario {
                self.0.scenario()
            }
            fn begin_frame(&mut self, frame: usize) {
                self.0.begin_frame(frame);
            }
            fn snapshot(&self, _mb: usize) {}
            fn data_preds(&self, action: ActionId, mb: usize) -> Vec<(ActionId, usize)> {
                // Claims every action reads the *last* action of the
                // same iteration: self-inconsistent with the schedule.
                let last = ActionId::from_index(self.body().len() - 1);
                if action != last {
                    vec![(last, mb)]
                } else {
                    Vec::new()
                }
            }
            fn kernel(&self, _a: ActionId, _mb: usize, _q: Quality) -> Option<u64> {
                None
            }
            fn apply(&mut self, _a: ActionId, _mb: usize) {}
            fn encoded_psnr(
                &mut self,
                frame: usize,
                q: f64,
                report: &fgqos_core::CycleReport,
            ) -> f64 {
                self.0.encoded_psnr(frame, q, report)
            }
            fn skipped_psnr(&mut self, frame: usize) -> f64 {
                self.0.skipped_psnr(frame)
            }
        }
        let app = BadApp(table_app(2));
        let iter = IteratedGraph::new(app.body(), 2, IterationMode::Sequential).unwrap();
        assert!(matches!(
            FramePlan::build(&app, &iter, &order_pos(&iter)),
            Err(SimError::InvalidConfig(_))
        ));
    }
}
