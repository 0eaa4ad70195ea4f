//! The pluggable runtime layer: time sources and execution backends.
//!
//! The paper's control algorithm only needs two things from its platform:
//! the current instant (to compare against per-action deadlines) and the
//! cost of each completed action (to advance its elapsed-time estimate).
//! This module factors both out of the runner:
//!
//! * [`Clock`] — where instants come from: the deterministic
//!   [`VirtualClock`] behind every reproducible experiment, or the
//!   [`WallClock`] mapping real time into the cycle domain through a
//!   calibrated cycles-per-second ratio;
//! * [`ExecBackend`] — where costs come from: [`ModelBackend`] samples an
//!   [`crate::exec::ExecTimeModel`] (simulation), [`MeasuredBackend`]
//!   charges observed wall time (live runs);
//! * [`parallel`] — the deterministic parallel frame executor: the
//!   speculative wavefront machinery behind
//!   [`crate::runner::Runner::run_parallel_on`] over the
//!   [`crate::app::VideoApp`] kernel/apply contract, driven
//!   by the hand-rolled [`WorkStealingPool`] — an owner of *resident*
//!   worker threads that park between jobs, so repeated per-frame DAG
//!   submissions (a serving session's tick loop) pay thread creation
//!   once, not per frame.
//!
//! [`crate::runner::Runner::run_on`] accepts any (clock, backend) pair;
//! [`crate::runner::Runner::run`] is its virtual-clock, model-backend
//! form. Solo and parallel runs step every frame through the same
//! prepare → commit → close lifecycle ([`crate::runner::stepper`]), so
//! the runtime only decides where time and costs come from.
//!
//! # Example: the same app on both runtimes
//!
//! ```
//! use fgqos_core::policy::MaxQuality;
//! use fgqos_sim::app::TableApp;
//! use fgqos_sim::exec::StochasticLoad;
//! use fgqos_sim::runner::{Mode, RunConfig, Runner};
//! use fgqos_sim::runtime::{ModelBackend, VirtualClock};
//! use fgqos_sim::scenario::LoadScenario;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let scenario = LoadScenario::paper_benchmark(7).truncated(8);
//! let app = TableApp::with_macroblocks(scenario, 6)?;
//! let config = RunConfig::paper_defaults().scaled_to_macroblocks(6);
//! let mut runner = Runner::new(app, config)?;
//!
//! // Deterministic virtual run through the explicit seam.
//! let mut clock = VirtualClock::new();
//! let mut backend = ModelBackend::new(StochasticLoad::new(42));
//! let result = runner.run_on(
//!     &mut clock,
//!     &mut backend,
//!     Mode::Controlled,
//!     &mut MaxQuality::new(),
//!     None,
//! )?;
//! assert_eq!(result.skips(), 0);
//! # Ok(())
//! # }
//! ```

mod backend;
mod clock;
pub mod parallel;
mod pool;

/// The application contract under its former name. The repository
/// benchmark (`perfbench/`, a separate workspace) is the only reader: it
/// imports this name to call `encoded_output`. New code names
/// [`crate::app::VideoApp`].
pub use crate::app::VideoApp as ParallelApp;
pub use backend::{ExecBackend, MeasuredBackend, ModelBackend};
pub use clock::{Clock, VirtualClock, WallClock};
pub use pool::WorkStealingPool;
