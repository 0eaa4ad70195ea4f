//! EDF scheduling, `Best_Sched` and precomputed constraint tables.
//!
//! This crate is the scheduling substrate of the fine-grain QoS controller
//! of Combaz et al. (DATE 2005, Section 2.2):
//!
//! * [`edf`] — earliest-deadline-first list scheduling over a precedence
//!   graph, with the Chetto/Blazewicz deadline-modification transform for
//!   deadline assignments that are not monotone along precedence edges;
//! * [`BestSched`] — the paper's `Best_Sched(α, θ, i)` abstraction: compute
//!   an optimal schedule that keeps an already-executed prefix fixed
//!   ([`EdfScheduler`] is the paper's choice);
//! * [`feasible`] — Definition 2.2 feasibility of schedules and the
//!   schedulability precondition of the control problem (a feasible
//!   schedule must exist for `Cwc_qmin` and `D_qmin`);
//! * [`ConstraintTables`] — the "tables containing pre-computed values used
//!   by the controller for the computation of `Qual_Constav` and
//!   `Qual_Constwc`" produced by the prototype tool of Fig. 4, giving O(1)
//!   per-decision constraint evaluation;
//! * [`BudgetTables`] — the budget-parametric variant: for deadlines that
//!   are affine in a per-frame time budget (the [`DeadlineShape`] family),
//!   the suffix budgets are lower envelopes of integer lines over the
//!   budget, precomputed once per stream and evaluated at any budget in
//!   O(log segments) per cell with zero per-frame allocation
//!   ([`BudgetTables::at_budget`]);
//! * [`TableQuery`] — the common query surface of both table flavors
//!   (what the controller and the quality policies consume), with
//!   [`SharedTables`] as the cheap clonable handle over either, and
//!   [`FrameTables`] as one frame's handle with a lazy memo of the
//!   envelope values `q_M` reads.
//!
//! # Example
//!
//! ```
//! use fgqos_graph::GraphBuilder;
//! use fgqos_time::Cycles;
//! use fgqos_sched::{BestSched, EdfScheduler};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = GraphBuilder::new();
//! let x = b.action("x");
//! let y = b.action("y");
//! let g = b.build()?; // independent actions
//! // y has the earlier deadline: EDF runs it first.
//! let order = EdfScheduler.best_schedule(&g, &[Cycles::new(90), Cycles::new(50)], &[])?;
//! assert_eq!(order, vec![y, x]);
//! # let _ = x;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod best_sched;
mod budget;
mod error;
mod tables;

pub mod edf;
pub mod feasible;

pub use best_sched::{BestSched, EdfScheduler};
pub use budget::{
    budget_deadlines, BudgetTables, BudgetView, DeadlineShape, FrameTables, SharedTables,
};
pub use error::SchedError;
pub use tables::{ConstraintTables, TableQuery};
