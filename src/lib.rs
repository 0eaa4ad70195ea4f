//! # fine-grain-qos
//!
//! A Rust reproduction of Combaz, Fernandez, Lepley and Sifakis,
//! *"Fine Grain QoS Control for Multimedia Application Software"*
//! (DATE 2005) — a controller that runs *between* the actions of a cyclic
//! data-flow application and, at every step, picks the maximal quality
//! level that (a) can never cause a deadline miss even under worst-case
//! execution times with a fall-back to minimal quality (safety), and
//! (b) still fits the remaining schedule on average-time projections
//! (optimal time-budget utilization).
//!
//! This crate is an umbrella over the workspace:
//!
//! * [`graph`] (`fgqos-graph`) — precedence graphs, execution sequences,
//!   iterated bodies;
//! * [`time`] (`fgqos-time`) — cycles, quality levels, execution-time
//!   profiles, deadlines, the Fig. 5 tables;
//! * [`sched`] (`fgqos-sched`) — EDF / `Best_Sched`, feasibility,
//!   precomputed `Qual_Const` tables;
//! * [`core`] (`fgqos-core`) — the controller, quality policies, online
//!   average estimation, safety monitoring;
//! * [`sim`] (`fgqos-sim`) — the virtual platform: execution-time models,
//!   the camera/buffer pipeline of Fig. 3, the stream runner;
//! * [`encoder`] (`fgqos-encoder`) — a from-scratch macroblock video
//!   encoder with the Fig. 2 pipeline and a synthetic camera;
//! * [`serve`] (`fgqos-serve`) — the multi-stream serving layer: a
//!   shared-pool stream server with priority admission control,
//!   pluggable frame sources (paced, trace replay, channel-fed), and the
//!   zero-copy output plane (GOP-trimmed encoded-frame rings with
//!   M-independent broadcast fan-out);
//! * [`tool`] (`fgqos-tool`) — the Fig. 4 prototype tool: specs →
//!   controlled application (+ Rust codegen and overhead reports);
//! * [`telemetry`] (`fgqos-telemetry`) — the unified telemetry plane:
//!   an allocation-free-on-the-hot-path metrics registry (counters,
//!   gauges, log-bucketed histograms), per-worker span capture with
//!   Chrome-trace export, and versioned JSON snapshots — observe-only
//!   by contract, so enabling it never changes a result.
//!
//! # Quickstart
//!
//! ```
//! use fine_grain_qos::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Describe a 2-action pipeline with 2 quality levels.
//! let mut b = GraphBuilder::new();
//! let decode = b.action("decode");
//! let enhance = b.action("enhance");
//! b.edge(decode, enhance)?;
//! let graph = b.build()?;
//!
//! let qs = QualitySet::contiguous(0, 1)?;
//! let mut pb = QualityProfile::builder(qs.clone(), 2);
//! pb.set_levels(0, &[(10, 20), (30, 80)])?;   // decode
//! pb.set_levels(1, &[(15, 25), (40, 90)])?;   // enhance
//! let profile = pb.build()?;
//! let deadlines = DeadlineMap::uniform(qs, vec![Cycles::new(150), Cycles::new(300)]);
//!
//! let system = ParamSystem::new(graph, profile, deadlines)?;
//! let mut controller = CycleController::new(&system, &EdfScheduler)?;
//! let mut policy = MaxQuality::new();
//!
//! let mut t = Cycles::ZERO;
//! while let Some(d) = controller.decide(t, &mut policy)? {
//!     // "run" the action: here it consumes its average time.
//!     t = t + system.profile().avg(d.action, d.quality);
//!     controller.complete(t)?;
//! }
//! let report = controller.finish();
//! assert_eq!(report.misses, 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use fgqos_core as core;
pub use fgqos_encoder as encoder;
pub use fgqos_graph as graph;
pub use fgqos_sched as sched;
pub use fgqos_serve as serve;
pub use fgqos_sim as sim;
pub use fgqos_telemetry as telemetry;
pub use fgqos_time as time;
pub use fgqos_tool as tool;

/// The most common imports for building and controlling an application.
pub mod prelude {
    pub use fgqos_core::estimator::{AvgEstimator, EwmaEstimator, WindowEstimator};
    pub use fgqos_core::policy::{
        ConstantQuality, Hysteresis, MaxQuality, QualityPolicy, Smooth, SoftDeadline,
    };
    pub use fgqos_core::{CycleController, CycleReport, Decision, ParamSystem};
    pub use fgqos_graph::iterate::IterationMode;
    pub use fgqos_graph::{ActionId, ExecutionSequence, GraphBuilder, PrecedenceGraph};
    pub use fgqos_sched::{
        BestSched, BudgetTables, ConstraintTables, EdfScheduler, SharedTables, TableQuery,
    };
    pub use fgqos_serve::{
        stochastic_backends, table_apps, AdmissionController, AdmissionDecision, Broadcast,
        CeilingPolicy, ChannelSource, ChurnAction, ChurnEvent, ChurnStorm, Delivery, EncodedFrame,
        FeedbackConfig, FrameProducer, FrameRing, FrameSource, LifecycleCounts, PacedSource,
        PublishStats, RingConfig, ServeReport, ServerConfig, StreamOutcome, StreamServer,
        StreamSession, StreamSpec, StreamSpecBuilder, Subscriber, TraceSource,
    };
    pub use fgqos_sim::app::{TableApp, VideoApp};
    pub use fgqos_sim::budget::{BudgetSpec, ChannelParams};
    pub use fgqos_sim::runner::{
        DeadlineShape, Mode, ParallelStream, RunConfig, Runner, StreamResult,
    };
    pub use fgqos_sim::runtime::{
        Clock, ExecBackend, MeasuredBackend, ModelBackend, VirtualClock, WallClock,
        WorkStealingPool,
    };
    pub use fgqos_sim::scenario::LoadScenario;
    pub use fgqos_telemetry::{
        HistogramData, SpanRecorder, Stability, Telemetry, TelemetrySnapshot,
    };
    pub use fgqos_time::{Cycles, DeadlineMap, Quality, QualityProfile, QualitySet, Slack};
}
