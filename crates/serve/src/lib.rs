//! Multi-stream serving layer for the fine-grain QoS controller.
//!
//! The paper controls *one* stream on *one* machine. This crate scales
//! that guarantee out: a [`StreamServer`] runs N concurrent streams —
//! each with its own [`fgqos_sim::runner::Runner`], controller and
//! virtual timeline — over **one shared**
//! [`fgqos_sim::runtime::WorkStealingPool`] of resident workers, with a
//! deterministic priority [`admission`] layer deciding who gets on the
//! machine under overload and a pluggable [`source::FrameSource`]
//! abstraction replacing the synthetic camera. Populations need not be
//! static: a [`StreamSession`] accepts [`StreamSession::attach`] and
//! [`StreamSession::detach`] against the *running* server — departures
//! release capacity and deterministically re-admit parked or degraded
//! streams — and [`churn`] generates seeded attach/detach storms to
//! stress exactly that machinery.
//!
//! ```text
//!   attach(spec) ─► AdmissionLedger: admit / degrade(q-ceiling) / reject
//!   detach(name) ─► release ─► re-admission pass (waiting → running)
//!   every tick, at the earliest pending frame deadline:
//!     1. prepare the due streams            (sequential)
//!     2. their phase-1 DAGs, one task graph (shared resident pool)
//!     3. commit + publish the due set       (sequential; meanwhile, at
//!        lookahead depth 1, the pool runs the next due frames' phase 1)
//! ```
//!
//! Private modules hold the pieces, all re-exported here: `spec`
//! ([`StreamSpec`], [`ServerConfig`], [`FeedbackConfig`]), `server`
//! ([`StreamServer`]), `session` ([`StreamSession`]: ready index,
//! lifecycle, tick) and `report` ([`StreamOutcome`], [`ServeReport`]).
//!
//! Three guarantees define the subsystem (all test-enforced):
//!
//! * **Isolation** — an admitted stream's per-frame series, quality
//!   decisions and safety verdicts are byte-identical to running the
//!   stream alone: sharing the pool is invisible in the results
//!   (`tests/integration_serve.rs`, workers 1/2/8);
//! * **Deterministic admission** — the admit/degrade/reject sequence is a
//!   pure function of the submitted specs, stable across worker counts
//!   and test-thread settings;
//! * **Per-stream safety under overload** — degradation caps quality
//!   ceilings, never disables the fine-grain controller, so admitted
//!   streams keep the paper's no-miss/no-skip guarantees even when the
//!   batch as a whole oversubscribes the machine.
//!
//! Computed results are only half a server: the [`distribute`] module is
//! the *output plane* — each stream's per-frame encoded payload is
//! published as an `Arc`-shared [`distribute::EncodedFrame`] into a
//! GOP-trimmed [`distribute::FrameRing`] with M-subscriber
//! [`distribute::Broadcast`] fan-out, where publishing costs O(1) in the
//! subscriber count and slow subscribers observe explicit lag gaps
//! instead of back-pressuring the encoder. With
//! [`FeedbackConfig`] enabled, those lag statistics close a
//! cross-layer loop back into admission: a chronically lagging stream's
//! quality ceiling is deterministically lowered
//! ([`admission::AdmissionLedger::restrict`]) and regranted once the
//! lag clears.
//!
//! Every layer is observable: build the server with
//! [`ServerConfig::telemetry`] enabled and the controller,
//! scheduler, pool, serve loop and output plane all record into one
//! shared [`fgqos_telemetry::Telemetry`] registry — exported as a
//! versioned JSON snapshot via [`ServeReport::snapshot`] (or live via
//! [`StreamSession::telemetry_snapshot`]) and as a
//! Chrome-trace span timeline via the pool's per-worker
//! [`fgqos_telemetry::SpanRecorder`]. Telemetry is observe-only:
//! enabled or disabled, every result, admission decision and safety
//! verdict is byte-identical (test-enforced).
//!
//! # Example
//!
//! ```
//! use fgqos_serve::{table_apps, stochastic_backends, ServerConfig, StreamSpec};
//! use fgqos_serve::source::PacedSource;
//! use fgqos_sim::runner::RunConfig;
//! use fgqos_sim::scenario::LoadScenario;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let server = ServerConfig::new(2).build();
//! let config = RunConfig::paper_defaults().scaled_to_macroblocks(8);
//! let specs = vec![
//!     StreamSpec::builder("news")
//!         .priority(5)
//!         .seed(1)
//!         .config(config)
//!         .source(PacedSource::new(LoadScenario::paper_benchmark(1).truncated(12)))
//!         .build(),
//!     StreamSpec::builder("sports")
//!         .priority(3)
//!         .seed(2)
//!         .config(config)
//!         .source(PacedSource::new(LoadScenario::adversarial(2).truncated(12)))
//!         .build(),
//! ];
//! let report = server.serve(specs, table_apps(8), stochastic_backends())?;
//! assert_eq!(report.outcomes().len(), 2);
//! assert!(report.all_safe());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod churn;
pub mod distribute;
mod error;
mod report;
mod server;
mod session;
pub mod source;
mod spec;

pub use admission::{
    AdmissionController, AdmissionDecision, AdmissionReport, CeilingPolicy, LifecycleCounts,
};
pub use churn::{ChurnAction, ChurnEvent, ChurnStorm};
pub use distribute::{
    record_publish_into, Broadcast, Delivery, EncodedFrame, FrameRing, PublishStats, RingConfig,
    Subscriber,
};
pub use error::ServeError;
pub use report::{ServeReport, StreamOutcome};
pub use server::{stochastic_backends, table_apps, StreamServer};
pub use session::StreamSession;
pub use source::{ChannelSource, FrameProducer, FrameSource, PacedSource, TraceSource};
pub use spec::{FeedbackConfig, ServerConfig, StreamSpec, StreamSpecBuilder};
