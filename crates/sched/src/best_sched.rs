//! The paper's `Best_Sched` abstraction: optimal rescheduling with a fixed
//! executed prefix.

use fgqos_graph::{ActionId, PrecedenceGraph};
use fgqos_time::Cycles;

use crate::{edf, SchedError};

/// A scheduling algorithm usable as the paper's `Best_Sched(α, θ, i)`.
///
/// Given the precedence graph, per-action deadlines (already resolved for
/// the quality assignment under consideration) and the prefix of actions
/// that have already executed, produce a complete schedule extending that
/// prefix. The paper instantiates this with EDF ([`EdfScheduler`]).
pub trait BestSched {
    /// Computes a complete schedule of `graph` whose first `prefix.len()`
    /// elements are exactly `prefix`.
    ///
    /// `deadlines` is indexed by dense action id.
    ///
    /// # Errors
    ///
    /// [`SchedError::DimensionMismatch`] if `deadlines.len() !=
    /// graph.len()`; [`SchedError::Graph`] if `prefix` is not a valid
    /// execution sequence.
    fn best_schedule(
        &self,
        graph: &PrecedenceGraph,
        deadlines: &[Cycles],
        prefix: &[ActionId],
    ) -> Result<Vec<ActionId>, SchedError>;

    /// Human-readable name for reports and benches.
    fn name(&self) -> &'static str;
}

/// Plain EDF list scheduling (the paper's instantiation).
///
/// Assumes deadlines are monotone along precedence edges, which holds for
/// the per-iteration deadline assignments used by the experiments; apply
/// [`edf::chetto_deadlines`] first when it does not.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EdfScheduler;

impl BestSched for EdfScheduler {
    fn best_schedule(
        &self,
        graph: &PrecedenceGraph,
        deadlines: &[Cycles],
        prefix: &[ActionId],
    ) -> Result<Vec<ActionId>, SchedError> {
        edf::edf_order_with_prefix(graph, deadlines, prefix)
    }

    fn name(&self) -> &'static str {
        "edf"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgqos_graph::GraphBuilder;

    fn two_independent() -> (PrecedenceGraph, ActionId, ActionId) {
        let mut b = GraphBuilder::new();
        let x = b.action("x");
        let y = b.action("y");
        (b.build().unwrap(), x, y)
    }

    #[test]
    fn edf_scheduler_orders_by_deadline() {
        let (g, x, y) = two_independent();
        let s = EdfScheduler
            .best_schedule(&g, &[Cycles::new(9), Cycles::new(3)], &[])
            .unwrap();
        assert_eq!(s, vec![y, x]);
        assert_eq!(EdfScheduler.name(), "edf");
    }

    #[test]
    fn edf_respects_prefix_and_validates() {
        let (g, _, y) = two_independent();
        let s = EdfScheduler
            .best_schedule(&g, &[Cycles::new(1), Cycles::new(2)], &[y])
            .unwrap();
        assert_eq!(s[0], y);
        assert_eq!(s.len(), 2);
        assert!(EdfScheduler
            .best_schedule(&g, &[Cycles::new(1)], &[])
            .is_err());
    }

    #[test]
    fn trait_is_object_safe() {
        let schedulers: Vec<Box<dyn BestSched>> = vec![Box::new(EdfScheduler)];
        let (g, _, _) = two_independent();
        for s in &schedulers {
            let out = s
                .best_schedule(&g, &[Cycles::new(5), Cycles::new(6)], &[])
                .unwrap();
            g.validate_schedule(&out).unwrap();
        }
    }
}
