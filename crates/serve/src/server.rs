//! The stream server: N concurrent QoS-controlled streams over one
//! shared pool of *resident* workers, with continuous attach/detach
//! churn.
//!
//! # Architecture
//!
//! ```text
//!                 attach(spec)                    detach(name)
//!                      │                               │
//!                      ▼                               ▼
//!               AdmissionLedger ◄──── release ──── departure
//!            admit / degrade(q-ceiling) / reject      (re-admission pass:
//!                │         │         │                 waiting → running,
//!                ▼         ▼         ▼                 ceilings raised)
//!            RUNNING   RUNNING    WAITING
//!                      (capped)   (parked)
//!                │
//!                ▼  every tick (earliest pending frame deadline)
//!   1. next_parallel_frame()      (due streams only, sequential)
//!   2. run the due frames' kernel DAGs (merged into ONE task graph
//!      when several are due) on the shared pool   ◄── resident workers,
//!   3. commit_parallel_frame()    (sequential)        the only shared
//!      meanwhile: phase 1 of the next due frames      resource
//!      on the pool, then their prepares
//! ```
//!
//! Step 3 overlaps the next ticks' work only where it pays and changes
//! nothing observable — see "Looking ahead" on [`StreamSession`].
//!
//! A [`StreamSession`] is a *running* server: streams
//! [`StreamSession::attach`] and [`StreamSession::detach`] while it
//! serves, each with its own frame clock — a tick advances only the
//! streams whose next frame is due at the earliest pending deadline, so a
//! 60 fps stream never waits on a 24 fps one. Departures (detach or
//! natural end) release their utilization back to the
//! [`crate::admission::AdmissionLedger`], which immediately re-prices the
//! parked and degraded population in (priority, attach order) — the
//! deterministic re-admission that turns a static admission decision into
//! stream lifecycle management.
//!
//! Phase-1 kernels of *different streams* interleave freely on the pool
//! workers — that is where the machine sharing happens. Everything a
//! stream's quality decisions depend on (its clock, controller, pipeline,
//! speculation state) is private to the stream, and its phase-2 commit
//! replays sequentially, so each stream's [`StreamResult`] is
//! byte-identical to running that stream alone through
//! [`Runner::run_parallel_on`] — the *isolation contract*, verified at 1,
//! 2 and 8 workers in `tests/integration_serve.rs`. The batch
//! [`StreamServer::serve`] is a thin wrapper over a session (attach all,
//! run to completion, elastic re-admission off), so the same tests pin
//! the churn machinery.
//!
//! Admission interacts with the per-stream controllers through a quality
//! *ceiling* only ([`CeilingPolicy`]): a degraded stream still runs the
//! paper's fine-grain controller below its ceiling, so per-action safety
//! is untouched; the ceiling just bounds its long-term demand to the
//! share the admission layer granted.

use std::collections::BTreeSet;
use std::sync::Arc;

use fgqos_core::estimator::AvgEstimator;
use fgqos_core::policy::{Choice, MaxQuality, PolicyCtx, QualityPolicy};
use fgqos_core::safety::SafetyMonitor;
use fgqos_sim::app::{TableApp, VideoApp};
use fgqos_sim::exec::StochasticLoad;
use fgqos_sim::runner::{Mode, ParallelStream, Phase1View, RunConfig, Runner, StreamResult};
use fgqos_sim::runtime::{Clock, ExecBackend, ModelBackend, VirtualClock, WorkStealingPool};
use fgqos_sim::scenario::LoadScenario;
use fgqos_sim::SimError;
use fgqos_telemetry::{
    Counter, Gauge, Histogram, SpanRecorder, Stability, Telemetry, TelemetrySnapshot,
};
use fgqos_time::{Cycles, Quality};

use crate::admission::{
    AdmissionController, AdmissionDecision, AdmissionLedger, AdmissionReport, StreamDemand,
};
use crate::churn::{ChurnAction, ChurnEvent};
use crate::distribute::{
    record_publish_into, Broadcast, EncodedFrame, PublishStats, RingConfig, Subscriber,
};
use crate::error::ServeError;
use crate::source::FrameSource;

/// Specification of one stream submitted to the server.
pub struct StreamSpec {
    /// Human-readable stream name (reports, logs).
    pub name: String,
    /// Admission priority; higher wins under overload.
    pub priority: u8,
    /// Seed for the stream's execution-time model.
    pub seed: u64,
    /// Camera period, buffer capacity, deadline shape, iteration mode.
    pub config: RunConfig,
    /// Where the stream's frames come from.
    pub source: Box<dyn FrameSource>,
}

impl StreamSpec {
    /// Starts building a spec for the stream named `name`. The source is
    /// the only other required field:
    ///
    /// ```ignore
    /// let spec = StreamSpec::builder("news")
    ///     .priority(5)
    ///     .source(PacedSource::new(scenario))
    ///     .build();
    /// ```
    #[must_use]
    pub fn builder(name: impl Into<String>) -> StreamSpecBuilder {
        StreamSpecBuilder {
            name: name.into(),
            priority: 0,
            seed: 0,
            config: RunConfig::paper_defaults(),
            source: None,
        }
    }
}

/// Builder for [`StreamSpec`] — see [`StreamSpec::builder`].
///
/// Defaults: priority 0, seed 0, [`RunConfig::paper_defaults`]. A
/// [`StreamSpecBuilder::source`] must be supplied before
/// [`StreamSpecBuilder::build`].
pub struct StreamSpecBuilder {
    name: String,
    priority: u8,
    seed: u64,
    config: RunConfig,
    source: Option<Box<dyn FrameSource>>,
}

impl StreamSpecBuilder {
    /// Admission priority; higher wins under overload (default 0).
    #[must_use]
    pub fn priority(mut self, priority: u8) -> Self {
        self.priority = priority;
        self
    }

    /// Seed for the stream's execution-time model (default 0).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Camera period, buffer capacity, deadline shape, iteration mode and
    /// budget source (default [`RunConfig::paper_defaults`]). A moving
    /// budget source ([`RunConfig::with_budget_source`]) serves
    /// identically to a solo run with the same config and seed.
    #[must_use]
    pub fn config(mut self, config: RunConfig) -> Self {
        self.config = config;
        self
    }

    /// Where the stream's frames come from (required).
    #[must_use]
    pub fn source(mut self, source: impl FrameSource + 'static) -> Self {
        self.source = Some(Box::new(source));
        self
    }

    /// [`StreamSpecBuilder::source`] for an already-boxed source.
    #[must_use]
    pub fn boxed_source(mut self, source: Box<dyn FrameSource>) -> Self {
        self.source = Some(source);
        self
    }

    /// Finishes the spec.
    ///
    /// # Panics
    ///
    /// Panics if no source was supplied — a spec without frames is a
    /// construction bug, not a runtime condition.
    #[must_use]
    pub fn build(self) -> StreamSpec {
        StreamSpec {
            source: self
                .source
                .expect("StreamSpec::builder: a source is required"),
            name: self.name,
            priority: self.priority,
            seed: self.seed,
            config: self.config,
        }
    }
}

/// [`MaxQuality`] under an admission ceiling: picks the maximal
/// *feasible* level, clamped to the granted ceiling. The fine-grain
/// controller still degrades below the ceiling whenever the constraints
/// require it — admission only caps the top.
#[derive(Debug, Clone, Copy)]
pub struct CeilingPolicy {
    inner: MaxQuality,
    cap: Quality,
}

impl CeilingPolicy {
    /// A max-quality policy capped at `cap`.
    #[must_use]
    pub fn new(cap: Quality) -> Self {
        CeilingPolicy {
            inner: MaxQuality::new(),
            cap,
        }
    }

    /// The ceiling.
    #[must_use]
    pub fn cap(&self) -> Quality {
        self.cap
    }
}

impl QualityPolicy for CeilingPolicy {
    fn choose(&mut self, ctx: &PolicyCtx<'_>) -> Choice {
        let mut c = self.inner.choose(ctx);
        if !c.fallback && c.quality > self.cap {
            // Feasibility is monotone in the level: the ceiling is below
            // a feasible level, so it is feasible too.
            c.quality = self.cap;
        }
        c
    }

    fn name(&self) -> &'static str {
        "controlled-capped"
    }
}

/// The policy an admission decision grants a running stream.
fn policy_for(decision: AdmissionDecision) -> Box<dyn QualityPolicy> {
    match decision {
        AdmissionDecision::Degrade(cap) => Box::new(CeilingPolicy::new(cap)),
        _ => Box::new(MaxQuality::new()),
    }
}

/// The declared quality level one below a stream's current grant —
/// where lag feedback sends its ceiling next. `None` when the stream is
/// already at its lowest level (or not granted at all).
fn next_lower_cap(demand: &StreamDemand, decision: AdmissionDecision) -> Option<Quality> {
    let levels = &demand.utilization;
    let pos = match decision {
        AdmissionDecision::Admit => levels.len().checked_sub(1)?,
        AdmissionDecision::Degrade(cap) => levels.iter().position(|&(q, _)| q == cap)?,
        AdmissionDecision::Reject => return None,
    };
    (pos > 0).then(|| levels[pos - 1].0)
}

/// Outcome of one submitted stream.
#[derive(Debug)]
pub struct StreamOutcome {
    /// Stream name from the spec.
    pub name: String,
    /// Priority from the spec.
    pub priority: u8,
    /// What admission granted (the final grant, after any re-admission).
    pub decision: AdmissionDecision,
    /// Kind of source the stream was fed from.
    pub source_kind: &'static str,
    /// Frames the source delivered.
    pub frames: usize,
    /// The served result; `None` for streams that never ran. A detached
    /// stream's result covers only the frames delivered while attached.
    pub result: Option<StreamResult>,
    /// The stream's safety monitor after serving; `None` for streams
    /// that never ran. Safety is per stream: sharing the pool must not
    /// change any verdict.
    pub monitor: Option<SafetyMonitor>,
    /// Whether the stream left by caller [`StreamSession::detach`] rather
    /// than by exhausting its source.
    pub detached: bool,
    /// How many budget-parametric envelope sets the stream's runner
    /// built — 1 per served stream on the default path, regardless of
    /// how many frames (and fresh budgets) it encoded.
    pub envelope_builds: u64,
    /// How many full `ConstraintTables` builds the stream's runner ran —
    /// 0 for a stream whose budgets never repeat, one per promoted
    /// recurring budget otherwise (see `Runner::full_table_builds`).
    pub table_builds: u64,
    /// How many in-place envelope refreshes the stream's runner ran —
    /// 0 without an online estimator, one per profile-moving frame with
    /// one (never a rebuild, never a table build).
    pub envelope_refreshes: u64,
    /// Times a re-admission pass improved this stream's grant. Exact
    /// even for streams that detached before the session finished (the
    /// ledger's records outlive their streams).
    pub readmissions: u32,
    /// Output-plane counters, when anyone subscribed to this stream
    /// (`None` means no ring was ever created — publishing is pay-only-
    /// if-subscribed).
    pub publish: Option<PublishStats>,
}

/// The server's report: outcomes in submission order plus the admission
/// report.
#[derive(Debug)]
pub struct ServeReport {
    outcomes: Vec<StreamOutcome>,
    admission: AdmissionReport,
    workers: usize,
    ticks: u64,
    snapshot: Option<TelemetrySnapshot>,
}

impl ServeReport {
    /// Per-stream outcomes, in submission (attach) order.
    #[must_use]
    pub fn outcomes(&self) -> &[StreamOutcome] {
        &self.outcomes
    }

    /// Outcome of the stream named `name`, if any.
    #[must_use]
    pub fn outcome(&self, name: &str) -> Option<&StreamOutcome> {
        self.outcomes.iter().find(|o| o.name == name)
    }

    /// The admission decisions, lifecycle counters and charges.
    #[must_use]
    pub fn admission(&self) -> &AdmissionReport {
        &self.admission
    }

    /// Pool width the streams shared.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Server ticks executed (each tick advances the streams due at the
    /// earliest pending frame deadline).
    #[must_use]
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Whether every served stream kept every safety guarantee.
    #[must_use]
    pub fn all_safe(&self) -> bool {
        self.outcomes
            .iter()
            .filter_map(|o| o.monitor.as_ref())
            .all(SafetyMonitor::all_safe)
    }

    /// The run's telemetry snapshot. When the server was built with
    /// [`ServerConfig::telemetry`] enabled this is the full registry
    /// capture (controller, scheduler, pool, serve-layer and output-
    /// plane metrics, taken at [`StreamSession::finish`]); otherwise a
    /// reduced snapshot derived from the report itself (`serve.ticks`,
    /// `admission.*`, `lifecycle.*`, `distribute.*`) — so
    /// [`ServeReport::summary`] reads the same keys either way.
    #[must_use]
    pub fn snapshot(&self) -> TelemetrySnapshot {
        if let Some(snap) = &self.snapshot {
            return snap.clone();
        }
        let mut snap = TelemetrySnapshot::new();
        snap.insert_counter(Stability::Stable, "serve.ticks", self.ticks);
        self.admission.record_into(&mut snap);
        record_publish_into(
            &mut snap,
            self.outcomes.iter().filter_map(|o| o.publish.clone()),
        );
        snap
    }

    /// Multi-line human summary: the admission line (capacity, grants,
    /// lifecycle counters), then one line per stream including its
    /// per-stream readmission count and — when anyone subscribed — its
    /// output-plane publish/trim/subscriber counters.
    ///
    /// The admission line is rendered from [`ServeReport::snapshot`]:
    /// the human summary and the exported JSON are two views of the
    /// same counters by construction.
    #[must_use]
    pub fn summary(&self) -> String {
        let mut s = format!(
            "{} ({} workers)\n",
            crate::admission::summary_from_snapshot(&self.snapshot()),
            self.workers
        );
        for o in &self.outcomes {
            let mut tag = String::new();
            if o.detached {
                tag.push_str(", detached");
            }
            if o.readmissions > 0 {
                tag.push_str(&format!(", readmitted x{}", o.readmissions));
            }
            if let Some(p) = &o.publish {
                tag.push_str(&format!(
                    ", published {} (trimmed {}, {} subs)",
                    p.published, p.trimmed, p.subscribers
                ));
            }
            match &o.result {
                Some(r) => s.push_str(&format!(
                    "  [{}] p{} {:?} ({}, {} frames{tag}): {}\n",
                    o.name,
                    o.priority,
                    o.decision,
                    o.source_kind,
                    o.frames,
                    r.summary()
                )),
                None => s.push_str(&format!(
                    "  [{}] p{} never ran ({:?}) ({}, {} frames{tag})\n",
                    o.name, o.priority, o.decision, o.source_kind, o.frames
                )),
            }
        }
        s
    }
}

/// Typed construction of a [`StreamServer`]:
///
/// ```ignore
/// let server = ServerConfig::new(8).capacity(6.5).build();
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerConfig {
    /// Pool width (resident worker threads, the caller included).
    pub workers: usize,
    /// Admission capacity in cores; `None` grants one core's worth of
    /// sustained demand per worker.
    pub capacity: Option<f64>,
    /// Retention policy of per-stream output rings (used only when
    /// someone subscribes; see [`crate::distribute`]).
    pub ring: RingConfig,
    /// Whether to attach a live [`Telemetry`] registry (metrics +
    /// per-worker spans) to the server, its pool and every served
    /// stream. Observe-only: results, admission decisions and safety
    /// verdicts are byte-identical either way. Default off.
    pub telemetry: bool,
    /// Lag-driven ceiling feedback (default `None` — off): when set,
    /// sessions watch each stream's output-ring lag statistics and
    /// lower the quality ceiling of chronically lagging streams,
    /// regranting the capacity back once the lag clears. See
    /// [`FeedbackConfig`].
    pub feedback: Option<FeedbackConfig>,
}

/// Lag-driven ceiling feedback: the cross-layer loop that feeds the
/// output plane's per-ring lag statistics ([`crate::distribute`]) back
/// into admission.
///
/// A stream's feedback *window* is one committed frame. A window is
/// *lagging* when its subscribers lost at least [`Self::lag_frames`]
/// frames to ring trimming since the previous window ([`Delivery::
/// Lagged`](crate::distribute::Delivery::Lagged) gaps). After
/// [`Self::lag_windows`] consecutive lagging windows the session lowers
/// the stream's quality ceiling one declared level
/// ([`crate::admission::AdmissionLedger::restrict`]) — the freed
/// capacity returns to the pool, where parked or degraded peers can
/// claim it. After [`Self::clear_windows`] consecutive clear windows a
/// feedback-capped stream is re-priced
/// ([`crate::admission::AdmissionLedger::regrant`]) and its ceiling
/// rises again as capacity allows.
///
/// Everything is observed at deterministic points (the sequential
/// commit pass of [`StreamSession::step`]), so for a fixed attach /
/// detach / subscriber-poll sequence the downgrade and regrant ticks
/// are a pure function of the specs — worker count cannot move them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeedbackConfig {
    /// Newly lagged frames within one window for it to count as
    /// lagging.
    pub lag_frames: u64,
    /// Consecutive lagging windows before the ceiling drops one level.
    pub lag_windows: u32,
    /// Consecutive clear windows before a feedback-capped stream is
    /// re-priced upward.
    pub clear_windows: u32,
}

impl FeedbackConfig {
    /// Defaults: one lagged frame marks a window, three lagging windows
    /// drop the ceiling, eight clear windows earn a re-price.
    #[must_use]
    pub fn defaults() -> Self {
        FeedbackConfig {
            lag_frames: 1,
            lag_windows: 3,
            clear_windows: 8,
        }
    }
}

impl Default for FeedbackConfig {
    fn default() -> Self {
        FeedbackConfig::defaults()
    }
}

impl ServerConfig {
    /// A config with `workers` pool threads and every other field at its
    /// default.
    #[must_use]
    pub fn new(workers: usize) -> Self {
        ServerConfig {
            workers,
            capacity: None,
            ring: RingConfig::default(),
            telemetry: false,
            feedback: None,
        }
    }

    /// Sets an explicit admission capacity (in cores), e.g. to leave
    /// headroom or to oversubscribe deliberately.
    #[must_use]
    pub fn capacity(mut self, cores: f64) -> Self {
        self.capacity = Some(cores);
        self
    }

    /// Sets the output-ring retention policy.
    #[must_use]
    pub fn ring(mut self, ring: RingConfig) -> Self {
        self.ring = ring;
        self
    }

    /// Turns on lag-driven ceiling feedback with the given thresholds.
    #[must_use]
    pub fn feedback(mut self, feedback: FeedbackConfig) -> Self {
        self.feedback = Some(feedback);
        self
    }

    /// Turns the telemetry plane on or off (default off). When on, the
    /// server carries a live [`Telemetry`] registry: the pool records
    /// steal/park/busy counters and per-worker kernel spans, every
    /// served stream's runner records `sched.*` and `controller.*`
    /// metrics, sessions record tick counters/latency, and
    /// [`ServeReport::snapshot`] exports it all.
    #[must_use]
    pub fn telemetry(mut self, on: bool) -> Self {
        self.telemetry = on;
        self
    }

    /// Builds the server.
    ///
    /// # Panics
    ///
    /// Panics if an explicit capacity is not finite and positive.
    #[must_use]
    pub fn build(self) -> StreamServer {
        StreamServer::with_config(self)
    }
}

/// A server over one shared [`WorkStealingPool`] of resident workers.
/// See the module docs.
#[derive(Debug, Clone)]
pub struct StreamServer {
    pool: WorkStealingPool,
    admission: AdmissionController,
    /// Retention policy handed to each session's output rings.
    ring: RingConfig,
    /// Lag-driven ceiling feedback thresholds (`None` = off).
    feedback: Option<FeedbackConfig>,
    /// The server's telemetry plane (inert unless
    /// [`ServerConfig::telemetry`] turned it on). The pool's span
    /// recorder is installed here at construction; sessions and their
    /// streams register into the same registry, so one snapshot covers
    /// every layer.
    telemetry: Telemetry,
}

impl StreamServer {
    /// Builds a server from a typed [`ServerConfig`] (or use
    /// [`ServerConfig::build`]).
    ///
    /// # Panics
    ///
    /// Panics if an explicit capacity is not finite and positive.
    #[must_use]
    pub fn with_config(config: ServerConfig) -> Self {
        let telemetry = if config.telemetry {
            Telemetry::new()
        } else {
            Telemetry::disabled()
        };
        let mut pool = WorkStealingPool::new(config.workers);
        pool.set_telemetry(&telemetry);
        StreamServer {
            pool,
            admission: match config.capacity {
                Some(cores) => AdmissionController::new(cores),
                None => AdmissionController::for_workers(config.workers),
            },
            ring: config.ring,
            feedback: config.feedback,
            telemetry,
        }
    }

    /// Pool width.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// Admission capacity in cores.
    #[must_use]
    pub fn capacity(&self) -> f64 {
        self.admission.capacity()
    }

    /// The server's telemetry plane — inert unless the server was built
    /// with [`ServerConfig::telemetry`]`(true)`. Use it to snapshot
    /// metrics mid-serve or to export the pool's span trace
    /// (`server.telemetry().spans().to_chrome_trace()`).
    #[must_use]
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Opens a churn-capable serving session on deterministic per-stream
    /// [`VirtualClock`]s: streams attach and detach against the running
    /// session, departures trigger re-admission. See [`StreamSession`].
    pub fn session<'a, A, FA, FB>(&'a self, make_app: FA, make_backend: FB) -> StreamSession<'a, A>
    where
        A: VideoApp,
        FA: FnMut(LoadScenario, &StreamSpec) -> Result<A, SimError> + 'a,
        FB: FnMut(&StreamSpec) -> Box<dyn ExecBackend> + 'a,
    {
        self.open_session(
            make_app,
            make_backend,
            |_| Box::new(VirtualClock::new()),
            true,
        )
    }

    /// [`StreamServer::session`] with caller-supplied per-stream clocks —
    /// the seam for *live* serving on [`fgqos_sim::runtime::WallClock`]s
    /// (see `examples/live_server.rs`). Wall-clock sessions trade the
    /// determinism contract for real-time behaviour. Such a session
    /// never runs frames ahead (see "Ticks" on [`StreamSession`]): a
    /// clock that moves by itself would start a frame's real-time budget
    /// before its tick.
    pub fn session_with_clocks<'a, A, FA, FB, FC>(
        &'a self,
        make_app: FA,
        make_backend: FB,
        make_clock: FC,
    ) -> StreamSession<'a, A>
    where
        A: VideoApp,
        FA: FnMut(LoadScenario, &StreamSpec) -> Result<A, SimError> + 'a,
        FB: FnMut(&StreamSpec) -> Box<dyn ExecBackend> + 'a,
        FC: FnMut(&StreamSpec) -> Box<dyn Clock> + 'a,
    {
        self.open_session(make_app, make_backend, make_clock, false)
    }

    /// Opens a session; `virtual_clocks` says that `make_clock` hands
    /// out fresh [`VirtualClock`]s, which lets the session look ahead.
    fn open_session<'a, A, FA, FB, FC>(
        &'a self,
        make_app: FA,
        make_backend: FB,
        make_clock: FC,
        virtual_clocks: bool,
    ) -> StreamSession<'a, A>
    where
        A: VideoApp,
        FA: FnMut(LoadScenario, &StreamSpec) -> Result<A, SimError> + 'a,
        FB: FnMut(&StreamSpec) -> Box<dyn ExecBackend> + 'a,
        FC: FnMut(&StreamSpec) -> Box<dyn Clock> + 'a,
    {
        StreamSession {
            pool: &self.pool,
            virtual_clocks,
            ring: self.ring,
            feedback: self.feedback,
            elastic: true,
            ledger: AdmissionLedger::new(self.admission),
            make_app: Box::new(make_app),
            make_backend: Box::new(make_backend),
            make_clock: Box::new(make_clock),
            slots: Vec::new(),
            index: ReadyIndex::default(),
            merged: None,
            server_now: Cycles::ZERO,
            ticks: 0,
            telemetry: self.telemetry.clone(),
            metrics: SessionMetrics::new(
                &self.telemetry,
                self.pool.workers(),
                A::HAS_KERNELS && virtual_clocks,
            ),
        }
    }

    /// Serves a batch of streams to completion on the shared pool — a
    /// thin wrapper over [`StreamSession`]: attach the whole population
    /// up front (priced together, rank-ordered), run to completion, no
    /// elastic re-admission. Rejected streams never run.
    ///
    /// `make_app` builds each stream's application from its materialized
    /// scenario (all streams share the app *type*, never app *state*);
    /// `make_backend` supplies the stream's execution backend. Streams
    /// run on private [`VirtualClock`]s in [`Mode::Controlled`].
    ///
    /// # Determinism
    ///
    /// The report — admission sequence, every stream's per-frame series,
    /// every safety verdict — is a pure function of the specs: worker
    /// count and host scheduling cannot change a byte.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidConfig`] on an empty batch,
    /// [`ServeError::Source`] when a source yields a malformed stream,
    /// and propagated per-stream simulation errors.
    pub fn serve<A, FA, FB>(
        &self,
        specs: Vec<StreamSpec>,
        make_app: FA,
        make_backend: FB,
    ) -> Result<ServeReport, ServeError>
    where
        A: VideoApp,
        FA: FnMut(LoadScenario, &StreamSpec) -> Result<A, SimError>,
        FB: FnMut(&StreamSpec) -> Box<dyn ExecBackend>,
    {
        if specs.is_empty() {
            return Err(ServeError::InvalidConfig("no streams submitted"));
        }
        let mut session = self.session(make_app, make_backend);
        // Batch semantics: one rank-ordered pricing of the whole
        // population, rejected streams reported (never parked), no
        // release-driven re-admission — the original static behaviour,
        // now pinned on top of the churn machinery.
        session.elastic = false;
        session.attach_batch(specs)?;
        session.run_to_completion()?;
        Ok(session.finish())
    }
}

/// App factory for timing-only [`TableApp`] streams, seeded per stream
/// by [`stochastic_backends`]:
///
/// ```ignore
/// server.serve(specs, table_apps(8), stochastic_backends())?
/// ```
pub fn table_apps(
    macroblocks: usize,
) -> impl FnMut(LoadScenario, &StreamSpec) -> Result<TableApp, SimError> {
    move |scenario, _spec| TableApp::with_macroblocks(scenario, macroblocks)
}

/// Backend factory for the paper's stochastic execution-time model,
/// seeded per stream from its spec — the companion of [`table_apps`].
pub fn stochastic_backends() -> impl FnMut(&StreamSpec) -> Box<dyn ExecBackend> {
    |spec| Box::new(ModelBackend::new(StochasticLoad::new(spec.seed)))
}

/// One stream's place in a session, at a stable attach index.
struct Slot<A: VideoApp> {
    name: String,
    priority: u8,
    source_kind: &'static str,
    frames: usize,
    demand: StreamDemand,
    decision: AdmissionDecision,
    /// Server time the stream (re-)started running at; its private frame
    /// clock is relative to this origin.
    attach_at: Cycles,
    state: SlotState<A>,
    /// The stream's output fan-out, created lazily by the first
    /// subscriber. `None` means nobody listens and commits skip the
    /// publish hook entirely.
    output: Option<Broadcast>,
    /// Lag-feedback bookkeeping (inert unless the session has a
    /// [`FeedbackConfig`] *and* someone subscribed to this stream).
    feedback: FeedbackState,
    outcome: Option<StreamOutcome>,
}

/// Per-stream lag-feedback window counters (see [`FeedbackConfig`]).
#[derive(Debug, Clone, Copy, Default)]
struct FeedbackState {
    /// Total lagged frames observed at the previous window.
    last_lagged: u64,
    /// Consecutive lagging windows so far.
    lagging: u32,
    /// Consecutive clear windows so far.
    clear: u32,
    /// Whether the current ceiling was imposed by feedback — only such
    /// streams are re-priced upward when their lag clears (ceilings
    /// imposed by admission wait for a release, as always).
    capped: bool,
}

enum SlotState<A: VideoApp> {
    /// Priced but not granted capacity (elastic sessions park rejected
    /// streams; a release may re-admit them).
    Waiting(Box<Parked<A>>),
    /// Being served.
    Running(Box<Active<A>>),
    /// Finished, detached, or rejected-and-finalized.
    Done,
}

/// A stream waiting for capacity: everything needed to start it later.
struct Parked<A: VideoApp> {
    runner: Runner<A>,
    backend: Box<dyn ExecBackend>,
    clock: Box<dyn Clock>,
}

/// A running stream: the per-stream serving state of the old batch loop.
struct Active<A: VideoApp> {
    runner: Runner<A>,
    st: ParallelStream,
    clock: Box<dyn Clock>,
    backend: Box<dyn ExecBackend>,
    policy: Box<dyn QualityPolicy>,
    /// The server-time ready time the stream is filed under in the
    /// session's [`ReadyIndex`]; `None` files it as exhausted.
    ready_at: Option<Cycles>,
    /// How far the stream's next frame got ahead of its tick.
    stage: Stage,
}

/// Where a running stream's next frame stands. A step moves a stream at
/// most one stage forward and its commit returns it to `Idle`; streams
/// of apps without kernels never leave `Idle` between ticks (see "Ticks"
/// on [`StreamSession`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    /// No frame prepared.
    Idle,
    /// The next frame is prepared; its phase 1 has not run.
    Prepared,
    /// The next frame is prepared and its phase 1 ran.
    Ran,
}

impl<A: VideoApp> Active<A> {
    /// Prepares the stream's next frame; `false` when its source is
    /// exhausted (nothing prepared).
    fn prepare(&mut self) -> Result<bool, SimError> {
        let mut est: Option<&mut dyn AvgEstimator> = None;
        let more = self.runner.next_parallel_frame(
            &mut self.st,
            self.clock.as_mut(),
            self.policy.as_mut(),
            &mut est,
        )?;
        if more {
            self.stage = Stage::Prepared;
        }
        Ok(more)
    }

    /// Installs the policy an admission decision grants. A frame already
    /// prepared fired the old policy's cycle-start hook; the new policy
    /// gets it too, so the frame commits as if prepared under it.
    fn grant(&mut self, decision: AdmissionDecision) {
        self.policy = policy_for(decision);
        if self.stage != Stage::Idle {
            self.policy.on_cycle_start();
        }
    }
}

/// Every running stream of a session, ordered by when it can next make
/// progress: the non-exhausted ones by (server-time ready time, slot),
/// the exhausted ones by slot. A tick reads its due set and departures
/// here instead of re-reading every stream's clock.
#[derive(Default)]
struct ReadyIndex {
    ready: BTreeSet<(Cycles, usize)>,
    exhausted: BTreeSet<usize>,
}

impl ReadyIndex {
    fn insert(&mut self, slot: usize, at: Option<Cycles>) {
        match at {
            Some(t) => self.ready.insert((t, slot)),
            None => self.exhausted.insert(slot),
        };
    }

    fn remove(&mut self, slot: usize, at: Option<Cycles>) {
        match at {
            Some(t) => self.ready.remove(&(t, slot)),
            None => self.exhausted.remove(&slot),
        };
    }

    /// The earliest ready time over the non-exhausted streams.
    fn earliest(&self) -> Option<Cycles> {
        self.ready.first().map(|&(t, _)| t)
    }

    /// The slots ready at `t`, in slot order.
    fn ready_at(&self, t: Cycles) -> Vec<usize> {
        self.ready
            .range((t, 0)..=(t, usize::MAX))
            .map(|&(_, slot)| slot)
            .collect()
    }

    /// The slots filed at the first and at the second ready time among
    /// the slots not in `due` (sorted), each in slot order.
    fn next_two(&self, due: &[usize]) -> (Vec<usize>, Vec<usize>) {
        let (mut next, mut after) = (Vec::new(), Vec::new());
        let mut times: [Option<Cycles>; 2] = [None, None];
        for &(t, slot) in &self.ready {
            if due.binary_search(&slot).is_ok() {
                continue;
            }
            if times[0].is_none_or(|t0| t0 == t) {
                times[0] = Some(t);
                next.push(slot);
            } else if times[1].is_none_or(|t1| t1 == t) {
                times[1] = Some(t);
                after.push(slot);
            } else {
                break;
            }
        }
        (next, after)
    }

    /// The lowest exhausted slot at or above `from`.
    fn exhausted_from(&self, from: usize) -> Option<usize> {
        self.exhausted.range(from..).next().copied()
    }

    fn len(&self) -> usize {
        self.ready.len() + self.exhausted.len()
    }
}

/// Factory building a stream's application from its materialized
/// scenario at attach time.
type AppFactory<'a, A> = Box<dyn FnMut(LoadScenario, &StreamSpec) -> Result<A, SimError> + 'a>;
/// Factory supplying a stream's execution backend at attach time.
type BackendFactory<'a> = Box<dyn FnMut(&StreamSpec) -> Box<dyn ExecBackend> + 'a>;
/// Factory supplying a stream's private clock at attach time.
type ClockFactory<'a> = Box<dyn FnMut(&StreamSpec) -> Box<dyn Clock> + 'a>;

/// The merged phase-1 task graph of several streams' frames — a pure
/// function of *which* streams run (each stream's kernel DAG is static
/// across its frames), so it is cached and rebuilt only when that set
/// changes. A job of one stream (most jobs) runs that stream's own
/// static plan and never touches it.
struct MergedDag {
    slots: Vec<usize>,
    offsets: Vec<usize>,
    indegree: Vec<usize>,
    succs: Vec<Vec<usize>>,
}

/// One phase-1 job over some streams' pending frames: a lone view's own
/// plan as is, several views merged into one task graph.
struct Phase1Job<'j, 'v, A: VideoApp> {
    indegree: &'j [usize],
    succs: &'j [Vec<usize>],
    offsets: &'j [usize],
    views: &'j [Phase1View<'v, A>],
}

impl<'j, 'v, A: VideoApp> Phase1Job<'j, 'v, A> {
    /// The job over `views`, the pending frames of `slots`; a merged
    /// graph comes from (and refreshes) the `merged` cache.
    fn new(
        merged: &'j mut Option<MergedDag>,
        slots: &[usize],
        views: &'j [Phase1View<'v, A>],
    ) -> Self {
        match views {
            [] => Phase1Job {
                indegree: &[],
                succs: &[],
                offsets: &[],
                views,
            },
            [view] => Phase1Job {
                indegree: view.indegree(),
                succs: view.succs(),
                offsets: &[0],
                views,
            },
            _ => {
                if merged.as_ref().is_none_or(|m| m.slots != slots) {
                    let mut offsets = Vec::with_capacity(views.len());
                    let mut total = 0usize;
                    for v in views {
                        offsets.push(total);
                        total += v.len();
                    }
                    let mut indegree = Vec::with_capacity(total);
                    let mut succs: Vec<Vec<usize>> = Vec::with_capacity(total);
                    for (v, &off) in views.iter().zip(&offsets) {
                        indegree.extend_from_slice(v.indegree());
                        for s in v.succs() {
                            succs.push(s.iter().map(|&x| x + off).collect());
                        }
                    }
                    *merged = Some(MergedDag {
                        slots: slots.to_vec(),
                        offsets,
                        indegree,
                        succs,
                    });
                }
                let m = merged.as_ref().expect("merged DAG just ensured");
                Phase1Job {
                    indegree: &m.indegree,
                    succs: &m.succs,
                    offsets: &m.offsets,
                    views,
                }
            }
        }
    }

    /// Runs task `g` of the job.
    fn run(&self, g: usize) {
        if let [view] = self.views {
            view.run_kernel(g);
        } else {
            let vi = self.offsets.partition_point(|&o| o <= g) - 1;
            self.views[vi].run_kernel(g - self.offsets[vi]);
        }
    }
}

/// A *running* multi-stream server: streams attach and detach while it
/// serves. Created by [`StreamServer::session`].
///
/// # Lifecycle
///
/// ```text
///            attach(spec): priced by the AdmissionLedger
///                 │
///     ┌─ admit ───┼─ degrade(cap) ──────┐─ reject ─┐
///     ▼           ▼                     ▼          ▼
///  RUNNING     RUNNING(capped)       WAITING    (batch mode:
///     │           │   ▲ ceiling        │ ▲      final outcome)
///     │           │   │ raised         │ │ re-admitted
///     │           │   └──── release ───┼─┘  (priority order)
///     ▼           ▼                    │
///   DONE ◄── finish / detach ──────────┘
///              │
///              └── releases utilization → re-admission pass
/// ```
///
/// # Ticks
///
/// [`StreamSession::step`] advances the streams whose next frame is due
/// at the *earliest pending frame deadline* (each stream has a private
/// frame clock; see [`ParallelStream::next_ready_time`]). Streams with
/// later deadlines are not committed, so frame rates stay decoupled. Due
/// frames' kernel DAGs run on the shared resident pool — a lone due
/// stream's own plan as is, several merged into one task graph; commits
/// replay sequentially per stream.
///
/// # Looking ahead
///
/// A commit is serial (each decision reads the time the earlier actions
/// took), so a tick that only ran its own frames would leave the
/// resident workers idle through every commit and prepare. Sessions of
/// apps with kernels ([`VideoApp::HAS_KERNELS`]) on the session's own
/// virtual clocks ([`StreamServer::session`]) therefore pipeline their
/// ticks. Each running stream is in one of three stages:
///
/// * **idle** — no frame prepared;
/// * **prepared** — its next frame is prepared (budget, tables,
///   controller, camera frame);
/// * **ran** — that frame's phase 1 ran too.
///
/// While a tick commits and publishes its due set on the calling thread
/// (`WorkStealingPool::run_dag_while`), the resident workers run phase 1
/// of the prepared streams filed at the next ready time, and once the
/// commits are done the calling thread prepares the idle streams filed
/// at the next two ready times. A step moves a stream at most one stage
/// forward, and its commit returns it to idle; in steady state a frame
/// is prepared two ticks before its own and its phase 1 runs one tick
/// before it. A due stream skips the steps already done. Several
/// streams at one ready time merge into one DAG, as due sets do.
///
/// Looking ahead is invisible. Preparing a frame and running its phase
/// 1 read and write only that stream's own state: its pipeline, runner,
/// app and private clock, which no other stream's tick moves. A frame
/// run ahead therefore holds exactly what its own tick would have
/// computed, and a wrong guess about the next due set only makes the
/// frame wait for its tick. The ready index stays exact: a prepared
/// stream is ready at the arrival its prepare waited for, which is the
/// time it was filed under. The other inputs are handled where they
/// change: a grant that replaces the policy of a stream holding a
/// prepared frame replays the cycle-start hook on the new policy, and a
/// detach discards the frame together with the overflow skips its
/// prepare recorded. Results, admission logs and output transcripts are
/// therefore those of a session that steps one tick at a time, at every
/// worker count; a single-worker pool runs the same stages, only
/// serially. Table apps, whose kernels are no-ops, keep the one-tick
/// step; so do sessions with caller-supplied clocks, where a clock that
/// moves by itself would start a frame's real-time budget before its
/// tick. `serve.frames_ahead` counts the frames whose phase 1 ran ahead.
///
/// # Ready index
///
/// The session keeps every running stream in one ordered index of
/// (server-time ready time, slot), plus an ordered set of exhausted
/// slots, so a tick costs O(due · log live) rather than a pass over
/// every slot. A stream's ready time is `attach_at + max(next arrival,
/// now)` on its own clock, `attach_at + now` when a frame is buffered,
/// or none once its source is exhausted. It is read when the stream
/// starts (attach or re-admission) and again after each of its commits,
/// and the entry is dropped when the stream is finalized.
///
/// On a [`VirtualClock`] that is exact: the pipeline moves only when the
/// stream is prepared and the clock only when the stream's own runner
/// advances it, so the index always equals a rescan of the slots. A
/// clock that moves by itself (a [`fgqos_sim::runtime::WallClock`])
/// keeps the ready time last observed for it, so a tick serves the
/// streams that became ready earliest, ties in slot order. Wall-clock
/// sessions have no determinism contract.
///
/// # Determinism
///
/// On virtual clocks, everything — admission decisions, re-admission
/// order, tick grouping, every per-frame record — is a pure function of
/// the attach/detach call sequence and the specs. Worker count changes
/// only wall-clock speed.
pub struct StreamSession<'a, A: VideoApp> {
    pool: &'a WorkStealingPool,
    /// Whether every stream runs on a fresh [`VirtualClock`] of the
    /// session's own, which lets the session run frames ahead.
    virtual_clocks: bool,
    /// Retention policy for lazily created per-stream output rings.
    ring: RingConfig,
    /// Lag-driven ceiling feedback thresholds (`None` = off).
    feedback: Option<FeedbackConfig>,
    /// Whether departures re-price the parked/degraded population.
    /// Sessions default to `true`; the batch wrapper turns it off.
    elastic: bool,
    ledger: AdmissionLedger,
    make_app: AppFactory<'a, A>,
    make_backend: BackendFactory<'a>,
    make_clock: ClockFactory<'a>,
    slots: Vec<Slot<A>>,
    /// Every running slot by ready time — see "Ready index" above.
    index: ReadyIndex,
    merged: Option<MergedDag>,
    server_now: Cycles,
    ticks: u64,
    /// The server's registry (inert when telemetry is off); every
    /// attached stream's runner registers into it.
    telemetry: Telemetry,
    /// Session metric handles (`serve.*`) — inert when telemetry is off.
    metrics: SessionMetrics,
}

/// Pre-registered serve-layer metric handles.
///
/// | name | kind | stability | meaning |
/// |---|---|---|---|
/// | `serve.ticks` | counter | stable | server ticks executed |
/// | `serve.workers` | gauge | runtime | shared pool width |
/// | `serve.tick_latency_us` | histogram | runtime | wall time per tick |
/// | `budget.feedback_downgrades` | counter | stable | ceilings lowered by lag feedback |
/// | `serve.frames_ahead` | counter | stable | frames whose phase 1 ran a tick ahead (sessions that look ahead only) |
#[derive(Clone, Default)]
struct SessionMetrics {
    ticks: Counter,
    frames_ahead: Counter,
    workers: Gauge,
    tick_latency: Histogram,
    feedback_downgrades: Counter,
    /// Handle to the pool-installed span recorder: commits and ticks are
    /// recorded on the coordinator lane (index = worker count).
    spans: SpanRecorder,
    /// The coordinator's lane in the span recorder.
    coord_lane: usize,
}

impl SessionMetrics {
    fn new(telemetry: &Telemetry, workers: usize, lookahead: bool) -> Self {
        let m = SessionMetrics {
            ticks: telemetry.counter("serve.ticks"),
            frames_ahead: if lookahead {
                telemetry.counter("serve.frames_ahead")
            } else {
                Counter::default()
            },
            workers: telemetry.runtime_gauge("serve.workers"),
            tick_latency: telemetry.runtime_histogram("serve.tick_latency_us"),
            feedback_downgrades: telemetry.counter("budget.feedback_downgrades"),
            spans: telemetry.spans(),
            coord_lane: workers,
        };
        m.workers.set(workers as u64);
        m
    }
}

impl<A: VideoApp> StreamSession<'_, A> {
    /// Materializes a spec into a slot: source → scenario → runner →
    /// declared demand. Does not price it.
    fn materialize(&mut self, mut spec: StreamSpec) -> Result<Slot<A>, ServeError> {
        let index = self.slots.len();
        let scenario = spec.source.collect_scenario()?;
        let frames = scenario.frames();
        let app = (self.make_app)(scenario, &spec).map_err(ServeError::Sim)?;
        let backend = (self.make_backend)(&spec);
        let clock = (self.make_clock)(&spec);
        let mut runner = Runner::new(app, spec.config).map_err(ServeError::Sim)?;
        runner.set_telemetry(&self.telemetry);
        let profile = runner.app().profile();
        let n = runner.app().iterations() as f64;
        let period = spec.config.period.get() as f64;
        let utilization = profile
            .qualities()
            .iter()
            .map(|q| (q, profile.total_avg(q).get() as f64 * n / period))
            .collect();
        Ok(Slot {
            name: spec.name,
            priority: spec.priority,
            source_kind: spec.source.kind(),
            frames,
            demand: StreamDemand {
                index,
                priority: spec.priority,
                utilization,
            },
            decision: AdmissionDecision::Reject,
            attach_at: self.server_now,
            state: SlotState::Waiting(Box::new(Parked {
                runner,
                backend,
                clock,
            })),
            output: None,
            feedback: FeedbackState::default(),
            outcome: None,
        })
    }

    /// Applies an admission decision to a freshly materialized slot.
    fn apply_decision(&mut self, i: usize, decision: AdmissionDecision) -> Result<(), ServeError> {
        self.slots[i].decision = decision;
        match decision {
            AdmissionDecision::Admit | AdmissionDecision::Degrade(_) => self.start_running(i),
            AdmissionDecision::Reject => {
                if !self.elastic {
                    // Batch semantics: a rejection is final.
                    self.finalize_never_ran(i, false);
                }
                Ok(())
            }
        }
    }

    /// Promotes a waiting slot to running under its current decision.
    fn start_running(&mut self, i: usize) -> Result<(), ServeError> {
        let slot = &mut self.slots[i];
        let SlotState::Waiting(parked) = std::mem::replace(&mut slot.state, SlotState::Done) else {
            unreachable!("start_running on a non-waiting slot");
        };
        let Parked {
            mut runner,
            backend,
            mut clock,
        } = *parked;
        let st = runner.start_parallel(Mode::Controlled)?;
        slot.attach_at = self.server_now;
        let ready_at = st
            .next_ready_time(clock.as_mut())
            .map(|t| slot.attach_at + t);
        slot.state = SlotState::Running(Box::new(Active {
            runner,
            st,
            clock,
            backend,
            policy: policy_for(slot.decision),
            ready_at,
            stage: Stage::Idle,
        }));
        self.index.insert(i, ready_at);
        Ok(())
    }

    /// Running slot `i`'s stream.
    fn active_mut(&mut self, i: usize) -> &mut Active<A> {
        let SlotState::Running(active) = &mut self.slots[i].state else {
            unreachable!("slot {i} is not running");
        };
        active
    }

    /// Re-reads running slot `i`'s ready time after a commit and refiles
    /// it in the index.
    fn refile(&mut self, i: usize) {
        let slot = &mut self.slots[i];
        let SlotState::Running(active) = &mut slot.state else {
            unreachable!("only running slots are indexed");
        };
        let at = active
            .st
            .next_ready_time(active.clock.as_mut())
            .map(|t| slot.attach_at + t);
        self.index
            .remove(i, std::mem::replace(&mut active.ready_at, at));
        self.index.insert(i, at);
    }

    /// Detaches the slot's output ring, if any: closes it (subscribers
    /// drain what remains, then see `Closed`), drops the session's
    /// handle, and returns the final counters for the outcome.
    fn close_output(slot_output: &mut Option<Broadcast>) -> Option<PublishStats> {
        slot_output.take().map(|b| {
            b.close();
            b.stats()
        })
    }

    /// Finalizes a slot that never produced frames (rejected in batch
    /// mode, or detached while waiting).
    fn finalize_never_ran(&mut self, i: usize, detached: bool) {
        let readmissions = self.ledger.readmissions(i);
        let slot = &mut self.slots[i];
        slot.state = SlotState::Done;
        slot.outcome = Some(StreamOutcome {
            name: slot.name.clone(),
            priority: slot.priority,
            decision: slot.decision,
            source_kind: slot.source_kind,
            frames: slot.frames,
            result: None,
            monitor: None,
            detached,
            envelope_builds: 0,
            table_builds: 0,
            envelope_refreshes: 0,
            readmissions,
            publish: Self::close_output(&mut slot.output),
        });
    }

    /// Finalizes a running slot: `truncate` for detach (result covers
    /// only delivered frames), full collection for natural exhaustion.
    fn finalize_running(&mut self, i: usize, truncate: bool) {
        let readmissions = self.ledger.readmissions(i);
        let slot = &mut self.slots[i];
        let SlotState::Running(active) = std::mem::replace(&mut slot.state, SlotState::Done) else {
            unreachable!("finalize_running on a non-running slot");
        };
        let Active {
            mut runner,
            st,
            policy,
            ready_at,
            ..
        } = *active;
        self.index.remove(i, ready_at);
        let result = if truncate {
            runner.finish_parallel_truncated(st, policy.name())
        } else {
            runner.finish_parallel(st, policy.name())
        };
        slot.outcome = Some(StreamOutcome {
            name: slot.name.clone(),
            priority: slot.priority,
            decision: slot.decision,
            source_kind: slot.source_kind,
            frames: slot.frames,
            result: Some(result),
            monitor: Some(runner.monitor().clone()),
            detached: truncate,
            envelope_builds: runner.envelope_builds(),
            table_builds: runner.full_table_builds(),
            envelope_refreshes: runner.envelope_refreshes(),
            readmissions,
            publish: Self::close_output(&mut slot.output),
        });
    }

    /// Releases a departed stream's utilization and re-prices the parked
    /// and degraded population in (priority desc, attach index asc)
    /// order — the deterministic re-admission pass.
    fn release_and_readmit(&mut self, i: usize, detached: bool) -> Result<(), ServeError> {
        if !self.elastic {
            // Batch mode keeps its one-shot pricing: the final report
            // shows the original grants in full.
            return Ok(());
        }
        self.ledger.release(i, detached);
        let mut candidates: Vec<usize> = self
            .slots
            .iter()
            .enumerate()
            .filter(|(_, s)| match s.state {
                SlotState::Waiting(_) => true,
                SlotState::Running(_) => matches!(s.decision, AdmissionDecision::Degrade(_)),
                SlotState::Done => false,
            })
            .map(|(j, _)| j)
            .collect();
        candidates.sort_by(|&a, &b| {
            self.slots[b]
                .priority
                .cmp(&self.slots[a].priority)
                .then(a.cmp(&b))
        });
        for j in candidates {
            let demand = self.slots[j].demand.clone();
            if let Some(decision) = self.ledger.regrant(j, &demand) {
                self.slots[j].decision = decision;
                match &mut self.slots[j].state {
                    SlotState::Waiting(_) => self.start_running(j)?,
                    SlotState::Running(active) => active.grant(decision),
                    SlotState::Done => unreachable!("done slots are not re-priced"),
                }
            }
        }
        Ok(())
    }

    /// One lag-feedback window for slot `i` (a stream that just
    /// committed a frame): reads the output ring's lagged-frame total,
    /// updates the window counters, and lowers or re-raises the
    /// stream's ceiling when a threshold trips. See [`FeedbackConfig`].
    fn observe_feedback(&mut self, i: usize, cfg: FeedbackConfig) {
        let slot = &mut self.slots[i];
        if !matches!(slot.state, SlotState::Running(_)) {
            return;
        }
        let Some(out) = &slot.output else { return };
        let lagged = out.stats().lag.sum();
        let fresh = lagged.saturating_sub(slot.feedback.last_lagged);
        slot.feedback.last_lagged = lagged;
        if fresh >= cfg.lag_frames {
            slot.feedback.lagging += 1;
            slot.feedback.clear = 0;
        } else {
            slot.feedback.clear += 1;
            slot.feedback.lagging = 0;
        }

        if slot.feedback.lagging >= cfg.lag_windows {
            // Chronic lag: drop the ceiling one declared level. The
            // freed capacity goes back to the pool for parked or
            // degraded peers.
            slot.feedback.lagging = 0;
            let Some(cap) = next_lower_cap(&slot.demand, slot.decision) else {
                return; // already at the lowest level
            };
            let demand = slot.demand.clone();
            if let Some(decision) = self.ledger.restrict(i, &demand, cap) {
                let slot = &mut self.slots[i];
                slot.decision = decision;
                slot.feedback.capped = true;
                if let SlotState::Running(active) = &mut slot.state {
                    active.grant(decision);
                }
                self.metrics.feedback_downgrades.incr();
            }
        } else if slot.feedback.capped && slot.feedback.clear >= cfg.clear_windows {
            // The lag cleared and stayed clear: offer the capacity
            // back. `regrant` raises the ceiling only as far as the
            // residual capacity allows.
            slot.feedback.clear = 0;
            let demand = slot.demand.clone();
            if let Some(decision) = self.ledger.regrant(i, &demand) {
                let slot = &mut self.slots[i];
                slot.decision = decision;
                if matches!(decision, AdmissionDecision::Admit) {
                    slot.feedback.capped = false;
                }
                if let SlotState::Running(active) = &mut slot.state {
                    active.grant(decision);
                }
            }
        }
    }

    /// Attaches one stream to the running session: prices it against the
    /// residual capacity immediately and starts it if granted. A
    /// rejected stream parks (elastic sessions) and may be re-admitted
    /// when a departure frees capacity. Returns the decision.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidConfig`] on a duplicate name,
    /// [`ServeError::Source`] on a malformed source, propagated
    /// simulation errors.
    pub fn attach(&mut self, spec: StreamSpec) -> Result<AdmissionDecision, ServeError> {
        if self.slots.iter().any(|s| s.name == spec.name) {
            return Err(ServeError::InvalidConfig("duplicate stream name"));
        }
        let slot = self.materialize(spec)?;
        let i = self.slots.len();
        let demand = slot.demand.clone();
        self.slots.push(slot);
        let decision = self.ledger.attach(&demand);
        self.apply_decision(i, decision)?;
        Ok(decision)
    }

    /// Attaches a whole population at once, priced together rank-ordered
    /// by (priority desc, submission index asc) — see
    /// [`AdmissionLedger::attach_batch`]. Only valid as the session's
    /// opening move (the batch wrapper's path).
    ///
    /// # Errors
    ///
    /// See [`StreamSession::attach`].
    pub fn attach_batch(&mut self, specs: Vec<StreamSpec>) -> Result<(), ServeError> {
        assert!(self.slots.is_empty(), "attach_batch on a non-empty session");
        for spec in specs {
            let slot = self.materialize(spec)?;
            self.slots.push(slot);
        }
        let demands: Vec<StreamDemand> = self.slots.iter().map(|s| s.demand.clone()).collect();
        for (index, decision) in self.ledger.attach_batch(&demands) {
            self.apply_decision(index, decision)?;
        }
        Ok(())
    }

    /// Detaches the stream named `name` from the running session: its
    /// result is truncated to the frames delivered while attached, its
    /// utilization returns to the pool, and the re-admission pass runs.
    /// Detaching a finished stream is a no-op.
    ///
    /// A frame the session prepared ahead of its tick (see "Looking
    /// ahead" on [`StreamSession`]) is dropped, with any overflow skips
    /// its prepare recorded, so the result is the one a session stepping
    /// one tick at a time gives. The work that prepare did is not undone:
    /// the stream's `envelope_builds`, `table_builds` and table-lookup
    /// counters include the dropped frame. They are still identical at
    /// every worker count.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidConfig`] when no stream has that name.
    pub fn detach(&mut self, name: &str) -> Result<(), ServeError> {
        let i = self
            .slots
            .iter()
            .position(|s| s.name == name)
            .ok_or(ServeError::InvalidConfig("detach: unknown stream name"))?;
        match self.slots[i].state {
            SlotState::Running(_) => {
                self.finalize_running(i, true);
                self.release_and_readmit(i, true)
            }
            SlotState::Waiting(_) => {
                self.ledger.release(i, true);
                self.finalize_never_ran(i, true);
                Ok(())
            }
            SlotState::Done => Ok(()),
        }
    }

    /// The output fan-out handle of the stream named `name`, creating
    /// its ring (with the server's [`RingConfig`]) on first use. The
    /// handle is independent of the session borrow: clone it out, take
    /// snapshots, subscribe later.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidConfig`] for an unknown name or a stream
    /// that already finished (its ring, if any, is closed and dropped).
    pub fn broadcast(&mut self, name: &str) -> Result<Broadcast, ServeError> {
        let i = self
            .slots
            .iter()
            .position(|s| s.name == name)
            .ok_or(ServeError::InvalidConfig("subscribe: unknown stream name"))?;
        let slot = &mut self.slots[i];
        if matches!(slot.state, SlotState::Done) {
            return Err(ServeError::InvalidConfig(
                "subscribe: stream already finished",
            ));
        }
        let ring = self.ring;
        Ok(slot
            .output
            .get_or_insert_with(|| Broadcast::new(ring))
            .clone())
    }

    /// Subscribes to the encoded output of the stream named `name` on
    /// the *running* server: the returned [`Subscriber`] pulls
    /// [`crate::distribute::Delivery`] items at its own pace — falling
    /// behind yields explicit `Lagged(n)` gaps, never back-pressure on
    /// the encoder. Detaching the stream (or session finish) closes the
    /// ring; the subscriber drains what remains, then sees `Closed`.
    ///
    /// # Errors
    ///
    /// See [`StreamSession::broadcast`].
    pub fn subscribe(&mut self, name: &str) -> Result<Subscriber, ServeError> {
        Ok(self.broadcast(name)?.subscribe())
    }

    /// Snapshot of stream `name`'s retained, independently decodable
    /// output suffix (`Arc` clones only — the shadow-capture read path).
    /// Empty when nobody ever subscribed.
    ///
    /// # Errors
    ///
    /// See [`StreamSession::broadcast`].
    pub fn snapshot(&mut self, name: &str) -> Result<Vec<Arc<EncodedFrame>>, ServeError> {
        Ok(self.broadcast(name)?.snapshot())
    }

    /// Server time of the next tick — the earliest pending frame
    /// deadline over the running streams — or `None` when nothing is
    /// running. Time is per-stream frame-clock time offset by the
    /// stream's attach time; an exhausted stream, which departs at the
    /// next tick, counts as the current server time.
    ///
    /// Reads the session's ready index (see [`StreamSession`]): O(1),
    /// and no stream's clock is read.
    #[must_use]
    pub fn next_tick_time(&self) -> Option<Cycles> {
        let earliest = self.index.earliest();
        if self.index.exhausted.is_empty() {
            earliest
        } else {
            Some(earliest.map_or(self.server_now, |t| t.min(self.server_now)))
        }
    }

    /// Executes one server tick: finalizes exhausted streams (running
    /// their releases and re-admissions), then advances every stream due
    /// at the earliest pending frame deadline by one frame — phase-1
    /// kernels of all due streams on the shared pool, commits
    /// sequential. Returns `false` when no stream is running (idle
    /// session; attach more or [`StreamSession::finish`]).
    ///
    /// A session that looks ahead (see "Looking ahead" on
    /// [`StreamSession`]) skips the prepare and phase 1 of due frames
    /// that were run ahead, and while it commits, it runs phase 1 of the
    /// next prepared streams on the resident workers and then prepares
    /// the idle streams due after them. None of that changes what any
    /// stream serves.
    ///
    /// Both the departures and the due set come from the session's ready
    /// index (see [`StreamSession`]), so a tick costs O(due · log live)
    /// plus the due streams' own work. Departures run in ascending slot
    /// order; a stream that a re-admission starts at a higher slot during
    /// the pass is seen in the same pass. The due set is every stream
    /// ready at the earliest time, in slot order, fixed before any of
    /// them is prepared: a stream re-admitted during the tick waits for
    /// the next one.
    ///
    /// # Errors
    ///
    /// Propagated per-stream simulation errors.
    pub fn step(&mut self) -> Result<bool, ServeError> {
        // Observe-only tick timing: a single branch when telemetry is
        // off, one clock read when on.
        let tick_t0 = self
            .metrics
            .tick_latency
            .is_enabled()
            .then(std::time::Instant::now);
        let tick_span = self.metrics.spans.start();
        // Departures first: a stream whose source is exhausted finalizes
        // and releases, which may start parked streams in this same tick.
        let mut from = 0;
        while let Some(i) = self.index.exhausted_from(from) {
            from = i + 1;
            self.finalize_running(i, false);
            self.release_and_readmit(i, false)?;
        }

        // The earliest pending frame deadline drives the tick.
        let Some(t_min) = self.index.earliest() else {
            return Ok(false);
        };
        let lookahead = A::HAS_KERNELS && self.virtual_clocks;

        // 1. Prepare the next frame of every due stream (sequential;
        //    touches only per-stream state). A frame prepared ahead is
        //    not prepared again.
        let mut due: Vec<usize> = Vec::new();
        for i in self.index.ready_at(t_min) {
            let active = self.active_mut(i);
            if active.stage != Stage::Idle || active.prepare()? {
                due.push(i);
            } else {
                self.finalize_running(i, false);
                self.release_and_readmit(i, false)?;
            }
        }

        // 2. Run the kernel DAGs of the due frames whose phase 1 did not
        //    run ahead on the shared pool: this is where the streams
        //    actually share the machine.
        let fresh: Vec<usize> = if lookahead {
            let mut fresh = due.clone();
            fresh.retain(|&i| self.active_mut(i).stage != Stage::Ran);
            fresh
        } else {
            Vec::new()
        };
        let fresh = if lookahead { &fresh } else { &due };
        let views: Vec<_> = fresh
            .iter()
            .map(|&i| {
                let SlotState::Running(active) = &self.slots[i].state else {
                    unreachable!("due slots are running");
                };
                active
                    .runner
                    .parallel_kernels(&active.st)
                    .expect("frame just prepared")
            })
            .collect();
        let job = Phase1Job::new(&mut self.merged, fresh, &views);
        self.pool.run_dag(job.indegree, job.succs, |g| job.run(g));
        drop(views);

        // 3. Commit each due frame sequentially — the same state
        //    transitions, in the same order, as a solo run — while the
        //    pool runs the next due frames' phase 1.
        if lookahead {
            self.commit_ahead(&due)?;
        } else {
            self.commit(&due)?;
        }

        self.server_now = self.server_now.max(t_min);
        self.ticks += 1;
        self.metrics.ticks.incr();
        if let Some(t0) = tick_t0 {
            self.metrics
                .tick_latency
                .record(t0.elapsed().as_micros().min(u128::from(u64::MAX)) as u64);
        }
        self.metrics
            .spans
            .record(self.metrics.coord_lane, "tick", "serve", tick_span);
        Ok(true)
    }

    /// Commits and publishes the prepared frames of `due` in slot order,
    /// then runs each stream's ceiling feedback window.
    fn commit(&mut self, due: &[usize]) -> Result<(), ServeError> {
        for &i in due {
            let commit_span = self.metrics.spans.start();
            let slot = &mut self.slots[i];
            let SlotState::Running(active) = &mut slot.state else {
                unreachable!("due slots are running");
            };
            let frame = active.st.pending_frame();
            let mut est: Option<&mut dyn AvgEstimator> = None;
            active.runner.commit_parallel_frame(
                &mut active.st,
                active.clock.as_mut(),
                active.backend.as_mut(),
                active.policy.as_mut(),
                &mut est,
            )?;
            active.stage = Stage::Idle;
            // Publish the committed frame's encoded output. Gated on an
            // existing ring (nobody subscribed → no hook call, no cost)
            // and on the app producing bitstreams (table apps return
            // `None`). Publishing is downstream of the commit: it reads
            // the committed record and moves finished buffers out of the
            // app, so it cannot perturb timing, quality decisions or
            // safety verdicts — the isolation contract is untouched.
            if let (Some(out), Some(frame)) = (&slot.output, frame) {
                if let Some(rec) = active.st.record(frame).filter(|r| !r.skipped) {
                    let timestamp = slot.attach_at + rec.start + rec.encode_cycles;
                    let quality = rec.mean_quality;
                    if let Some(ef) = active.runner.app_mut().encoded_output(timestamp, quality) {
                        out.publish(ef);
                    }
                }
            }
            self.refile(i);
            self.metrics
                .spans
                .record(self.metrics.coord_lane, "commit", "serve", commit_span);
        }

        // Ceiling feedback: each due stream's output-ring lag statistics
        // close the loop back into admission. Runs after the commits so
        // a window sees the lag its own frame caused.
        if let Some(cfg) = self.feedback {
            for &i in due {
                self.observe_feedback(i, cfg);
            }
        }
        Ok(())
    }

    /// [`Self::commit`] with the next due frames run ahead beside it: the
    /// resident workers run phase 1 of the prepared streams filed at the
    /// next ready time while this thread commits `due` and then prepares
    /// the idle streams filed at the next two ready times. The streams
    /// whose phase 1 runs leave their slots for the job and come back
    /// after it, so the commit borrows nothing they hold.
    fn commit_ahead(&mut self, due: &[usize]) -> Result<(), ServeError> {
        let (next, after) = self.index.next_two(due);
        let (mut slots, mut running, mut idle) = (Vec::new(), Vec::new(), Vec::new());
        for &i in &next {
            match self.active_mut(i).stage {
                Stage::Idle => idle.push(i),
                Stage::Prepared => {
                    let SlotState::Running(active) =
                        std::mem::replace(&mut self.slots[i].state, SlotState::Done)
                    else {
                        unreachable!("matched as running");
                    };
                    slots.push(i);
                    running.push(active);
                }
                Stage::Ran => {}
            }
        }
        idle.extend(
            after
                .into_iter()
                .filter(|&i| self.active_mut(i).stage == Stage::Idle),
        );
        let views: Vec<_> = running
            .iter()
            .map(|active| {
                active
                    .runner
                    .parallel_kernels(&active.st)
                    .expect("prepared ahead")
            })
            .collect();
        let mut merged = self.merged.take();
        let job = Phase1Job::new(&mut merged, &slots, &views);
        let pool = self.pool;
        let committed = pool.run_dag_while(
            job.indegree,
            job.succs,
            |g| job.run(g),
            || -> Result<(), ServeError> {
                self.commit(due)?;
                for &i in &idle {
                    // An exhausted source stays idle: its own tick
                    // prepares nothing again and departs it.
                    self.active_mut(i).prepare()?;
                }
                Ok(())
            },
        );
        drop(views);
        self.merged = merged;
        self.metrics.frames_ahead.add(running.len() as u64);
        for (i, mut active) in slots.into_iter().zip(running) {
            active.stage = Stage::Ran;
            self.slots[i].state = SlotState::Running(active);
        }
        committed
    }

    /// Steps until no stream is running. Parked streams (rejected, no
    /// release in sight) stay parked; [`StreamSession::finish`] reports
    /// them as never-ran.
    ///
    /// # Errors
    ///
    /// Propagated per-stream simulation errors.
    pub fn run_to_completion(&mut self) -> Result<(), ServeError> {
        while self.step()? {}
        Ok(())
    }

    /// Drives the session through a timed churn script (see
    /// [`crate::churn`]): the session serves normally until each event's
    /// time, then the attach or detach fires. Streams still live after
    /// the last event keep running; call
    /// [`StreamSession::run_to_completion`] (or more
    /// [`StreamSession::step`]s) to drain them.
    ///
    /// # Errors
    ///
    /// Propagated simulation errors and invalid events (duplicate
    /// attach names, detaching a name never attached).
    pub fn run_script(&mut self, events: Vec<ChurnEvent>) -> Result<(), ServeError> {
        for event in events {
            while let Some(t) = self.next_tick_time() {
                if t >= event.at {
                    break;
                }
                self.step()?;
            }
            // The script's timeline is authoritative: a stream attached
            // at `at` starts its frame clock there even when the served
            // population went idle earlier.
            self.server_now = self.server_now.max(event.at);
            match event.action {
                ChurnAction::Attach(spec) => {
                    self.attach(spec)?;
                }
                ChurnAction::Detach(name) => self.detach(&name)?,
            }
        }
        Ok(())
    }

    /// Streams currently running.
    #[must_use]
    pub fn running(&self) -> usize {
        self.index.len()
    }

    /// Streams parked waiting for capacity.
    #[must_use]
    pub fn waiting(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| matches!(s.state, SlotState::Waiting(_)))
            .count()
    }

    /// Server ticks executed so far.
    #[must_use]
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// The admission ledger's current view (decisions, charges,
    /// lifecycle counters).
    #[must_use]
    pub fn admission(&self) -> AdmissionReport {
        self.ledger.report()
    }

    /// Closes the session: any stream still running or waiting is
    /// detached (truncated results), and the report is assembled in
    /// attach order.
    #[must_use]
    pub fn finish(mut self) -> ServeReport {
        for i in 0..self.slots.len() {
            match self.slots[i].state {
                SlotState::Running(_) => {
                    self.finalize_running(i, true);
                    self.ledger.release(i, true);
                }
                SlotState::Waiting(_) => {
                    self.ledger.release(i, true);
                    self.finalize_never_ran(i, true);
                }
                SlotState::Done => {}
            }
        }
        let outcomes: Vec<StreamOutcome> = self
            .slots
            .into_iter()
            .map(|s| s.outcome.expect("every slot finalized"))
            .collect();
        let admission = self.ledger.report();
        let snapshot = self.telemetry.is_enabled().then(|| {
            let mut snap = self.telemetry.snapshot();
            admission.record_into(&mut snap);
            record_publish_into(&mut snap, outcomes.iter().filter_map(|o| o.publish.clone()));
            snap
        });
        ServeReport {
            outcomes,
            admission,
            workers: self.pool.workers(),
            ticks: self.ticks,
            snapshot,
        }
    }

    /// The session's telemetry plane (inert unless the server was built
    /// with [`ServerConfig::telemetry`] enabled). Use it to export the
    /// span trace: `session.telemetry().spans().to_chrome_trace()`.
    #[must_use]
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// A live telemetry snapshot of the running session: the registry
    /// capture (empty when telemetry is disabled) plus `admission.*` /
    /// `lifecycle.*` derived from the ledger's current view and
    /// `distribute.*` folded over every ring — live rings read in
    /// place, finished streams from their recorded outcomes. Safe to
    /// call at any cadence; reads are relaxed-atomic loads and never
    /// perturb serving.
    #[must_use]
    pub fn telemetry_snapshot(&self) -> TelemetrySnapshot {
        let mut snap = self.telemetry.snapshot();
        if !self.telemetry.is_enabled() {
            snap.insert_counter(Stability::Stable, "serve.ticks", self.ticks);
        }
        self.ledger.report().record_into(&mut snap);
        record_publish_into(
            &mut snap,
            self.slots.iter().filter_map(|s| {
                s.output
                    .as_ref()
                    .map(|b| b.stats())
                    .or_else(|| s.outcome.as_ref().and_then(|o| o.publish.clone()))
            }),
        );
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::PacedSource;
    use fgqos_sim::runner::RunConfig;

    fn spec(name: &str, priority: u8, seed: u64, frames: usize, mb: usize) -> StreamSpec {
        let scenario = LoadScenario::paper_benchmark(seed).truncated(frames);
        StreamSpec::builder(name)
            .priority(priority)
            .seed(seed)
            .config(RunConfig::paper_defaults().scaled_to_macroblocks(mb))
            .source(PacedSource::new(scenario))
            .build()
    }

    #[test]
    fn empty_batch_is_rejected() {
        let server = ServerConfig::new(2).build();
        assert!(matches!(
            server.serve(Vec::new(), table_apps(8), stochastic_backends()),
            Err(ServeError::InvalidConfig(_))
        ));
    }

    #[test]
    fn two_streams_complete_with_full_quality_under_capacity() {
        let server = ServerConfig::new(4).build();
        let report = server
            .serve(
                vec![spec("a", 1, 3, 20, 8), spec("b", 2, 4, 25, 8)],
                table_apps(8),
                stochastic_backends(),
            )
            .unwrap();
        assert_eq!(report.outcomes().len(), 2);
        assert_eq!(report.admission().admitted(), 2);
        assert!(report.all_safe());
        let a = report.outcome("a").unwrap();
        let b = report.outcome("b").unwrap();
        assert_eq!(a.result.as_ref().unwrap().frames().len(), 20);
        assert_eq!(b.result.as_ref().unwrap().frames().len(), 25);
        assert_eq!(a.result.as_ref().unwrap().skips(), 0);
        assert_eq!(b.result.as_ref().unwrap().skips(), 0);
        assert!(report.summary().contains("[a]"));
        assert!(report.ticks() > 0);
    }

    #[test]
    fn tight_capacity_degrades_or_rejects_low_priority() {
        // A paper-shaped stream wants ~1.37 cores at max quality (q7);
        // a 1.5-core server can take one at full quality but has only
        // ~0.13 left — below even the q0 demand of a second stream.
        let server = ServerConfig::new(2).capacity(1.5).build();
        let report = server
            .serve(
                vec![spec("lo", 1, 5, 15, 8), spec("hi", 9, 6, 15, 8)],
                table_apps(8),
                stochastic_backends(),
            )
            .unwrap();
        let hi = report.outcome("hi").unwrap();
        let lo = report.outcome("lo").unwrap();
        assert_eq!(hi.decision, AdmissionDecision::Admit);
        assert!(matches!(
            lo.decision,
            AdmissionDecision::Degrade(_) | AdmissionDecision::Reject
        ));
        // The high-priority stream is untouched by the neighbour.
        assert_eq!(hi.result.as_ref().unwrap().skips(), 0);
        assert!(report.all_safe());
    }

    #[test]
    fn degraded_stream_respects_its_ceiling() {
        // hi admits at 1.37; the remaining ~0.73 fits the q2 demand
        // (0.63) but not q3 (0.85): lo degrades to a q2 ceiling.
        let server = ServerConfig::new(2).capacity(2.1).build();
        let report = server
            .serve(
                vec![spec("hi", 9, 6, 15, 8), spec("lo", 1, 5, 15, 8)],
                table_apps(8),
                stochastic_backends(),
            )
            .unwrap();
        let lo = report.outcome("lo").unwrap();
        let AdmissionDecision::Degrade(cap) = lo.decision else {
            panic!("expected degradation, got {:?}", lo.decision);
        };
        let res = lo.result.as_ref().unwrap();
        // Mean quality cannot exceed the ceiling, and the stream still
        // never skips or misses (the fine-grain controller runs under
        // the cap).
        assert!(res.mean_quality() <= f64::from(cap.level()) + 1e-9);
        assert_eq!(res.skips(), 0);
        assert_eq!(res.misses(), 0);
    }

    #[test]
    fn ceiling_policy_caps_without_breaking_fallback() {
        let p = CeilingPolicy::new(Quality::new(2));
        assert_eq!(p.cap(), Quality::new(2));
        assert_eq!(p.name(), "controlled-capped");
    }

    #[test]
    fn session_attach_detach_midstream_truncates_result() {
        let server = ServerConfig::new(2).capacity(64.0).build();
        let mut session = server.session(
            |scenario, _spec| fgqos_sim::app::TableApp::with_macroblocks(scenario, 8),
            |spec: &StreamSpec| {
                Box::new(ModelBackend::new(StochasticLoad::new(spec.seed))) as Box<dyn ExecBackend>
            },
        );
        session.attach(spec("a", 1, 3, 30, 8)).unwrap();
        for _ in 0..10 {
            assert!(session.step().unwrap());
        }
        session.detach("a").unwrap();
        assert!(!session.step().unwrap());
        let report = session.finish();
        let a = report.outcome("a").unwrap();
        assert!(a.detached);
        let frames = a.result.as_ref().unwrap().frames().len();
        assert!(
            (10..30).contains(&frames),
            "expected a truncated result, got {frames} frames"
        );
        assert_eq!(report.admission().lifecycle().detached, 1);
    }

    #[test]
    fn duplicate_names_and_unknown_detach_are_rejected() {
        let server = ServerConfig::new(2).build();
        let mut session = server.session(
            |scenario, _spec| fgqos_sim::app::TableApp::with_macroblocks(scenario, 8),
            |spec: &StreamSpec| {
                Box::new(ModelBackend::new(StochasticLoad::new(spec.seed))) as Box<dyn ExecBackend>
            },
        );
        session.attach(spec("a", 1, 3, 10, 8)).unwrap();
        assert!(matches!(
            session.attach(spec("a", 2, 4, 10, 8)),
            Err(ServeError::InvalidConfig(_))
        ));
        assert!(matches!(
            session.detach("nope"),
            Err(ServeError::InvalidConfig(_))
        ));
    }

    #[test]
    fn departure_readmits_parked_stream() {
        // Capacity fits exactly one paper stream at max (~1.37): the
        // second (lower-priority) parks; detaching the first re-admits
        // it and it runs to completion.
        let server = ServerConfig::new(2).capacity(1.5).build();
        let mut session = server.session(
            |scenario, _spec| fgqos_sim::app::TableApp::with_macroblocks(scenario, 8),
            |spec: &StreamSpec| {
                Box::new(ModelBackend::new(StochasticLoad::new(spec.seed))) as Box<dyn ExecBackend>
            },
        );
        assert_eq!(
            session.attach(spec("hog", 9, 6, 12, 8)).unwrap(),
            AdmissionDecision::Admit
        );
        assert_eq!(
            session.attach(spec("parked", 1, 5, 12, 8)).unwrap(),
            AdmissionDecision::Reject
        );
        assert_eq!(session.waiting(), 1);
        for _ in 0..4 {
            session.step().unwrap();
        }
        session.detach("hog").unwrap();
        assert_eq!(
            session.waiting(),
            0,
            "release must re-admit the parked stream"
        );
        session.run_to_completion().unwrap();
        let report = session.finish();
        let parked = report.outcome("parked").unwrap();
        assert!(parked.decision.is_admitted());
        assert_eq!(parked.result.as_ref().unwrap().frames().len(), 12);
        assert_eq!(report.admission().lifecycle().readmitted, 1);
        assert!(report.all_safe());
    }

    /// What a tick needs, recomputed by brute force from every slot's
    /// clock and pipeline.
    struct Rescan {
        /// Every non-exhausted running slot as (ready time, slot).
        ready: BTreeSet<(Cycles, usize)>,
        /// What `next_tick_time` must answer: an exhausted stream counts
        /// as the current server time.
        next: Option<Cycles>,
        /// The slots ready at the earliest time, in slot order.
        due: Vec<usize>,
        exhausted: BTreeSet<usize>,
    }

    fn rescan<A: VideoApp>(session: &mut StreamSession<'_, A>) -> Rescan {
        let mut ready = BTreeSet::new();
        let mut exhausted = BTreeSet::new();
        for (i, slot) in session.slots.iter_mut().enumerate() {
            if let SlotState::Running(active) = &mut slot.state {
                match active.st.next_ready_time(active.clock.as_mut()) {
                    Some(t) => ready.insert((slot.attach_at + t, i)),
                    None => exhausted.insert(i),
                };
            }
        }
        let earliest = ready.iter().map(|&(t, _)| t).min();
        let due = ready
            .iter()
            .filter(|&&(t, _)| Some(t) == earliest)
            .map(|&(_, i)| i)
            .collect();
        let next = ready
            .iter()
            .map(|&(t, _)| t)
            .chain(exhausted.iter().map(|_| session.server_now))
            .min();
        Rescan {
            ready,
            next,
            due,
            exhausted,
        }
    }

    /// Asserts that the session's ready index equals a rescan.
    fn assert_index_is_exact<A: VideoApp>(session: &mut StreamSession<'_, A>) {
        let tick = session.ticks();
        let want = rescan(session);
        let index = &session.index;
        assert_eq!(index.ready, want.ready, "ready entries at tick {tick}");
        assert_eq!(index.exhausted, want.exhausted, "exhausted at tick {tick}");
        assert_eq!(session.next_tick_time(), want.next, "next tick at {tick}");
        let due = index
            .earliest()
            .map_or_else(Vec::new, |t| index.ready_at(t));
        assert_eq!(due, want.due, "due set at tick {tick}");
        assert_eq!(session.running(), want.ready.len() + want.exhausted.len());
    }

    /// The ready index equals a rescan of the slots before every tick of
    /// an overloaded churn storm — streams park, re-admit, degrade,
    /// detach and run dry — at one and two workers.
    #[test]
    fn ready_index_equals_a_rescan_through_a_churn_storm() {
        use crate::churn::ChurnStorm;
        for workers in [1usize, 2] {
            let server = ServerConfig::new(workers).capacity(2.5).build();
            let mut session = server.session(table_apps(8), stochastic_backends());
            let (mut parked, mut degraded) = (0usize, false);
            for event in ChurnStorm::paper_default(5).events() {
                loop {
                    assert_index_is_exact(&mut session);
                    parked = parked.max(session.waiting());
                    degraded |= session.slots.iter().any(|s| {
                        matches!(s.state, SlotState::Running(_))
                            && matches!(s.decision, AdmissionDecision::Degrade(_))
                    });
                    match session.next_tick_time() {
                        Some(t) if t < event.at => assert!(session.step().unwrap()),
                        _ => break,
                    }
                }
                session.run_script(vec![event]).unwrap();
            }
            loop {
                assert_index_is_exact(&mut session);
                if !session.step().unwrap() {
                    break;
                }
            }
            assert_eq!(session.running(), 0);
            let report = session.finish();
            let life = report.admission().lifecycle();
            assert!(parked > 0, "the storm must park streams");
            assert!(life.readmitted > 0, "departures must re-admit");
            assert!(life.detached > 0, "the storm must detach streams");
            assert!(degraded, "the storm must run degraded streams");
            assert!(report.all_safe());
        }
    }

    /// A clock that moves by itself: every read advances it by a fixed
    /// step — a deterministic stand-in for a wall clock.
    struct DriftingClock {
        now: Cycles,
        step: Cycles,
    }

    impl Clock for DriftingClock {
        fn now(&mut self) -> Cycles {
            self.now += self.step;
            self.now
        }

        fn advance(&mut self, dur: Cycles) {
            if dur.is_finite() {
                self.now += dur;
            }
        }

        fn sleep_until(&mut self, t: Cycles) {
            if t.is_finite() {
                self.now = self.now.max(t);
            }
        }

        fn name(&self) -> &'static str {
            "drifting"
        }
    }

    /// Streams whose clocks move between reads keep the ready time last
    /// observed for them: the session still terminates, and every stream
    /// that was not detached covers all of its camera frames.
    #[test]
    fn clocks_that_move_by_themselves_still_serve_every_frame() {
        let server = ServerConfig::new(2).capacity(64.0).build();
        let mut session =
            server.session_with_clocks(table_apps(8), stochastic_backends(), |_: &StreamSpec| {
                Box::new(DriftingClock {
                    now: Cycles::ZERO,
                    step: Cycles::new(1_000),
                }) as Box<dyn Clock>
            });
        session.attach(spec("a", 1, 3, 20, 8)).unwrap();
        session.attach(spec("b", 2, 4, 25, 8)).unwrap();
        session.attach(spec("c", 3, 5, 15, 8)).unwrap();
        for _ in 0..10 {
            assert!(session.step().unwrap());
        }
        session.detach("b").unwrap();
        let mut ticks = 0;
        while session.step().unwrap() {
            ticks += 1;
            assert!(ticks < 10_000, "the session must terminate");
        }
        let report = session.finish();
        for o in report.outcomes() {
            let frames = o.result.as_ref().expect("every stream ran").frames().len();
            if o.name == "b" {
                assert!(o.detached);
                assert!(frames < o.frames, "b was detached mid-run");
            } else {
                assert!(!o.detached, "{} must run dry, not be detached", o.name);
                assert_eq!(frames, o.frames, "{} must cover every frame", o.name);
            }
        }
    }

    /// Table apps have no bitstream: a subscriber on a table session
    /// sees a clean close with zero frames, and the outcome still
    /// carries the ring's counters.
    #[test]
    fn table_streams_publish_nothing() {
        use crate::distribute::Delivery;
        let server = ServerConfig::new(2).capacity(64.0).build();
        let mut session = server.session(table_apps(8), stochastic_backends());
        session.attach(spec("a", 1, 3, 8, 8)).unwrap();
        let mut sub = session.subscribe("a").unwrap();
        session.run_to_completion().unwrap();
        assert_eq!(sub.try_recv(), Delivery::Closed);
        assert_eq!(sub.lagged_frames(), 0);
        let report = session.finish();
        let publish = report.outcome("a").unwrap().publish.as_ref().unwrap();
        assert_eq!(publish.published, 0);
        assert_eq!(publish.subscribers, 1);
        assert_eq!(publish.publisher_stalls, 0);
        // The summary surfaces the output-plane counters.
        assert!(report.summary().contains("published 0"));
    }

    /// Subscribing to an unknown or finished stream is an error; the
    /// per-stream readmission count reaches the outcome even for
    /// streams that detach before `finish()`.
    #[test]
    fn subscribe_errors_and_detached_readmission_counts() {
        let server = ServerConfig::new(2).capacity(1.5).build();
        let mut session = server.session(table_apps(8), stochastic_backends());
        session.attach(spec("hog", 9, 6, 12, 8)).unwrap();
        session.attach(spec("parked", 1, 5, 12, 8)).unwrap();
        assert!(session.subscribe("nope").is_err());
        for _ in 0..4 {
            session.step().unwrap();
        }
        session.detach("hog").unwrap();
        assert!(
            session.subscribe("hog").is_err(),
            "finished streams have no ring"
        );
        // The re-admitted stream detaches before finish(): its outcome
        // must still report the readmission (the old summary lost it).
        for _ in 0..4 {
            session.step().unwrap();
        }
        session.detach("parked").unwrap();
        let report = session.finish();
        assert_eq!(report.outcome("parked").unwrap().readmissions, 1);
        assert!(report.summary().contains("readmitted x1"));
    }

    /// Frames run ahead are invisible: pixel-stream sessions, which
    /// prepare and phase-1 the next due streams while a tick commits,
    /// serve exactly what the same calls serve on a session that steps
    /// one tick at a time.
    mod lookahead {
        use super::*;
        use crate::distribute::Delivery;
        use fgqos_encoder::app::EncoderApp;
        use fgqos_sim::runner::FrameRecord;
        use fgqos_time::fig5;
        use std::fmt::Write as _;

        const W: usize = 32;
        const H: usize = 32;
        const MB: usize = (W / 16) * (H / 16);
        const FRAMES: usize = 24;

        /// Stream `k`'s spec: a camera period of its own (`k` tenths
        /// above the scaled paper period), so streams fall due at
        /// different times and the next due sets keep changing.
        fn pixel_spec(k: usize) -> StreamSpec {
            let base = fig5::PERIOD_CYCLES * MB as u64 / fig5::MACROBLOCKS_PER_FRAME as u64;
            let period = base + base * k as u64 / 10;
            let seed = 50 + k as u64;
            StreamSpec::builder(format!("p{k}"))
                .priority(9 - k as u8)
                .seed(seed)
                .config(RunConfig::paper_defaults().with_period(Cycles::new(period)))
                .source(PacedSource::new(
                    LoadScenario::paper_benchmark(seed).truncated(FRAMES),
                ))
                .build()
        }

        fn app(scenario: LoadScenario, spec: &StreamSpec) -> Result<EncoderApp, SimError> {
            EncoderApp::new(scenario, W, H, spec.seed)
        }

        fn backend(spec: &StreamSpec) -> Box<dyn ExecBackend> {
            Box::new(EncoderApp::work_backend(spec.seed))
        }

        fn stage_of(session: &StreamSession<'_, EncoderApp>, name: &str) -> Option<Stage> {
            session
                .slots
                .iter()
                .find(|s| s.name == name)
                .and_then(|s| match &s.state {
                    SlotState::Running(a) => Some(a.stage),
                    _ => None,
                })
        }

        fn degraded(session: &StreamSession<'_, EncoderApp>, name: &str) -> bool {
            session.slots.iter().any(|s| {
                s.name == name
                    && matches!(s.state, SlotState::Running(_))
                    && matches!(s.decision, AdmissionDecision::Degrade(_))
            })
        }

        #[derive(Debug, Clone, Copy)]
        enum Op {
            Step,
            Attach(usize),
            Detach(usize),
        }

        /// What a run shows: every outcome, the admission log, and what
        /// the subscribers received.
        #[derive(Debug, PartialEq)]
        struct Seen {
            results: Vec<(String, bool, Option<Vec<FrameRecord>>)>,
            admission: Vec<(usize, AdmissionDecision)>,
            transcript: String,
        }

        fn drain(subs: &mut [(usize, Subscriber)], log: &mut String) {
            for (k, sub) in subs.iter_mut() {
                for d in sub.drain() {
                    match d {
                        Delivery::Frame(f) => writeln!(
                            log,
                            "p{k} frame {} ts {:?} q {:.6} key {} qp {} mb {:?}",
                            f.frame,
                            f.timestamp,
                            f.mean_quality,
                            f.keyframe,
                            f.qp,
                            f.macroblock_streams
                        ),
                        Delivery::Lagged(n) => writeln!(log, "p{k} lagged {n}"),
                        Delivery::Closed => writeln!(log, "p{k} closed"),
                        Delivery::Empty => Ok(()),
                    }
                    .unwrap();
                }
            }
        }

        /// Applies `op` and logs what the subscribers received.
        fn apply(
            session: &mut StreamSession<'_, EncoderApp>,
            op: Op,
            subs: &mut Vec<(usize, Subscriber)>,
            log: &mut String,
        ) {
            match op {
                Op::Step => assert!(session.step().unwrap(), "ops step a live session"),
                Op::Attach(k) => {
                    let decision = session.attach(pixel_spec(k)).unwrap();
                    writeln!(log, "attach p{k}: {decision:?}").unwrap();
                    subs.push((k, session.subscribe(&format!("p{k}")).unwrap()));
                }
                Op::Detach(k) => session.detach(&format!("p{k}")).unwrap(),
            }
            drain(subs, log);
        }

        fn finish(
            session: StreamSession<'_, EncoderApp>,
            mut subs: Vec<(usize, Subscriber)>,
            mut log: String,
        ) -> (Seen, TelemetrySnapshot) {
            let report = session.finish();
            drain(&mut subs, &mut log);
            let seen = Seen {
                results: report
                    .outcomes()
                    .iter()
                    .map(|o| {
                        let frames = o.result.as_ref().map(|r| r.frames().to_vec());
                        (o.name.clone(), o.detached, frames)
                    })
                    .collect(),
                admission: report.admission().sequence(),
                transcript: log,
            };
            (seen, report.snapshot().stable_view())
        }

        /// Capacity that admits the first two streams at full quality
        /// and degrades the third until the first leaves; the fourth then
        /// fits at full quality.
        const CAPACITY: f64 = 3.5;

        /// Replays `ops` on a session, looking ahead or not.
        fn replay(workers: usize, ahead: bool, ops: &[Op]) -> (Seen, TelemetrySnapshot) {
            let server = ServerConfig::new(workers)
                .capacity(CAPACITY)
                .telemetry(true)
                .build();
            let mut session = if ahead {
                server.session(app, backend)
            } else {
                server.session_with_clocks(app, backend, |_: &StreamSpec| {
                    Box::new(VirtualClock::new()) as Box<dyn Clock>
                })
            };
            let (mut subs, mut log) = (Vec::new(), String::new());
            for &op in ops {
                apply(&mut session, op, &mut subs, &mut log);
            }
            finish(session, subs, log)
        }

        /// Steps a lookahead session until `when` holds (bounded),
        /// recording the steps.
        fn step_until(
            session: &mut StreamSession<'_, EncoderApp>,
            ops: &mut Vec<Op>,
            subs: &mut Vec<(usize, Subscriber)>,
            log: &mut String,
            when: impl Fn(&StreamSession<'_, EncoderApp>) -> bool,
        ) {
            for _ in 0..200 {
                if when(session) {
                    return;
                }
                ops.push(Op::Step);
                apply(session, Op::Step, subs, log);
            }
            panic!("the condition never held");
        }

        /// Builds the call sequence on a lookahead session, choosing each
        /// detach where it meets a frame run ahead: a stream in the
        /// prepared stage, one whose phase 1 ran, and a departure that
        /// regrants a degraded stream holding a prepared frame. Ends with
        /// frames still ahead.
        fn script() -> Vec<Op> {
            let server = ServerConfig::new(2).capacity(CAPACITY).build();
            let mut session = server.session(app, backend);
            let (mut ops, mut subs, mut log) = (Vec::new(), Vec::new(), String::new());
            for k in 0..3 {
                ops.push(Op::Attach(k));
                apply(&mut session, Op::Attach(k), &mut subs, &mut log);
            }
            assert!(degraded(&session, "p2"), "the third stream is degraded");
            // p0 leaves holding a prepared frame while the degraded p2
            // holds one too: the release regrants p2's ceiling.
            step_until(&mut session, &mut ops, &mut subs, &mut log, |s| {
                stage_of(s, "p0") == Some(Stage::Prepared)
                    && stage_of(s, "p2").is_some_and(|st| st != Stage::Idle)
            });
            ops.push(Op::Detach(0));
            apply(&mut session, Op::Detach(0), &mut subs, &mut log);
            assert!(!degraded(&session, "p2"), "the release regranted p2");
            // A latecomer joins, then p1 leaves with its phase 1 done.
            for _ in 0..3 {
                ops.push(Op::Step);
                apply(&mut session, Op::Step, &mut subs, &mut log);
            }
            ops.push(Op::Attach(3));
            apply(&mut session, Op::Attach(3), &mut subs, &mut log);
            assert!(session.slots[3].decision == AdmissionDecision::Admit);
            step_until(&mut session, &mut ops, &mut subs, &mut log, |s| {
                stage_of(s, "p1") == Some(Stage::Ran)
            });
            ops.push(Op::Detach(1));
            apply(&mut session, Op::Detach(1), &mut subs, &mut log);
            // A third stream again, so phase 1 runs ahead; finish while
            // one stream's phase 1 ran and another's frame is prepared.
            ops.push(Op::Attach(4));
            apply(&mut session, Op::Attach(4), &mut subs, &mut log);
            assert!(session.slots[4].decision == AdmissionDecision::Admit);
            step_until(&mut session, &mut ops, &mut subs, &mut log, |s| {
                let stages = ["p2", "p3", "p4"].map(|n| stage_of(s, n));
                stages.contains(&Some(Stage::Ran)) && stages.contains(&Some(Stage::Prepared))
            });
            ops
        }

        /// The solo run of stream `k`, as a served stream with a fixed
        /// full grant would run.
        fn solo(k: usize) -> StreamResult {
            let spec = pixel_spec(k);
            let scenario = LoadScenario::paper_benchmark(spec.seed).truncated(FRAMES);
            let mut runner = Runner::new(app(scenario, &spec).unwrap(), spec.config).unwrap();
            runner
                .run_parallel_on(
                    &mut VirtualClock::new(),
                    backend(&spec).as_mut(),
                    Mode::Controlled,
                    &mut MaxQuality::new(),
                    None,
                    1,
                )
                .unwrap()
        }

        #[test]
        fn frames_run_ahead_serve_what_one_tick_at_a_time_serves() {
            let ops = script();
            let (reference, _) = replay(1, false, &ops);
            let (_, stable) = replay(1, true, &ops);
            assert!(
                stable.counter("serve.frames_ahead").unwrap_or(0) > 0,
                "the session ran frames ahead"
            );
            for workers in [1usize, 2, 8] {
                let (plain, _) = replay(workers, false, &ops);
                assert_eq!(plain, reference, "one tick at a time, {workers} workers");
                let (ahead, view) = replay(workers, true, &ops);
                assert_eq!(ahead, reference, "looking ahead, {workers} workers");
                assert_eq!(
                    view.to_json(),
                    stable.to_json(),
                    "stable telemetry, {workers} workers"
                );
            }
            // Streams that kept one grant equal their solo runs, a
            // detached one up to its detach.
            for (name, k) in [("p0", 0usize), ("p1", 1), ("p3", 3), ("p4", 4)] {
                let (_, detached, result) = reference
                    .results
                    .iter()
                    .find(|(n, _, _)| n == name)
                    .unwrap();
                let served = result.as_ref().unwrap();
                let n = served.len();
                assert!(n > 0 && n < FRAMES, "{name} served {n} frames");
                assert!(*detached, "{name} left before its end");
                assert_eq!(served, &solo(k).frames()[..n], "{name}");
            }
        }
    }
}
