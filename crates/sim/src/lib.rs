//! Virtual-clock platform simulator for fine-grain QoS experiments.
//!
//! The paper evaluates its controller on an MPEG-4 encoder running on a
//! XiRisc processor at 8 GHz *simulated with STMicroelectronics' eliXim
//! tool*; time is read from a cycle register. This crate is our equivalent
//! substrate:
//!
//! * [`exec`] — actual-execution-time models (`C` in the paper): the only
//!   hard requirement of the theory is `C ≤ Cwc_θ`, which every model
//!   enforces by construction;
//! * [`scenario`] — the benchmark stream: 9 video sequences over 582
//!   frames with scene changes (forced I-frames) and per-frame activity
//!   driving load fluctuation, plus an analytic PSNR model for runs
//!   without a pixel-level encoder;
//! * [`app`] — the [`app::VideoApp`] abstraction the runner drives, and
//!   [`app::TableApp`], a timing-only application with the Fig. 2 pipeline
//!   shape;
//! * [`budget`] — per-frame budget sources ([`budget::BudgetSource`]):
//!   constant pipeline deadlines, recorded bandwidth traces, or a seeded
//!   simulated channel with cliffs/loss/RTT dynamics, so the controller
//!   absorbs channel jitter as well as compute jitter;
//! * [`pipeline`] — the camera → input buffer(K) → encoder → output
//!   buffer(K) → display loop of Fig. 3, including the frame-skip rule
//!   (a camera frame is dropped when the input buffer is full) and the
//!   occupancy-dependent per-frame time budget (average `P`);
//! * [`runtime`] — the pluggable runtime layer: the [`runtime::Clock`]
//!   trait (deterministic [`runtime::VirtualClock`], calibrated
//!   [`runtime::WallClock`]) and the [`runtime::ExecBackend`] seam
//!   separating "execute action, report cost" from "decide quality";
//! * [`runner`] — end-to-end runs of a controlled or constant-quality
//!   encoder over a stream, producing per-frame records
//!   ([`runner::StreamResult`]) from which every figure of Section 3 is
//!   regenerated; backend-generic via [`runner::Runner::run_on`], and
//!   steppable frame by frame via [`runner::stepper`] (the seam the
//!   `fgqos-serve` multi-stream server multiplexes on);
//! * [`csv`] — plain-text series export for plotting, and the trace
//!   parser behind [`scenario::LoadScenario::from_trace_csv`].
//!
//! # Example
//!
//! ```
//! use fgqos_sim::runner::{RunConfig, Runner};
//! use fgqos_sim::scenario::LoadScenario;
//! use fgqos_sim::app::TableApp;
//! use fgqos_core::policy::MaxQuality;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A tiny stream: 12 frames, 8 macroblocks per frame.
//! let scenario = LoadScenario::paper_benchmark(7).truncated(12);
//! let app = TableApp::with_macroblocks(scenario, 8)?;
//! let config = RunConfig::paper_defaults().scaled_to_macroblocks(8);
//! let mut runner = Runner::new(app, config)?;
//! let result = runner.run_controlled(&mut MaxQuality::new(), 42)?;
//! assert_eq!(result.skips(), 0); // Prop 2.1: controlled never skips
//! # Ok(())
//! # }
//! ```

// `deny` rather than `forbid`: the resident-worker pool needs one
// narrowly-scoped, documented `unsafe` handoff (see `runtime::pool`);
// every other module stays unsafe-free and cannot opt out silently —
// any new `unsafe` must carry an explicit, reviewable `allow`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod intern;

pub mod app;
pub mod budget;
pub mod csv;
pub mod exec;
pub mod output;
pub mod pipeline;
pub mod runner;
pub mod runtime;
pub mod scenario;

pub use error::SimError;
