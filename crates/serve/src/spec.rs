//! What a caller hands the server: a [`StreamSpec`] per stream, and the
//! [`ServerConfig`] (with its [`FeedbackConfig`]) the server is built
//! from.

use fgqos_sim::runner::RunConfig;

use crate::distribute::RingConfig;
use crate::source::FrameSource;
use crate::StreamServer;

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
    /// Whether to attach a live [`fgqos_telemetry::Telemetry`] registry
    /// (metrics + per-worker spans) to the server, its pool and every
    /// served stream. Observe-only: results, admission decisions and
    /// safety verdicts are byte-identical either way. Default off.
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
/// commit pass of [`crate::StreamSession::step`]), so for a fixed attach
/// / detach / subscriber-poll sequence the downgrade and regrant ticks
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

impl Default for FeedbackConfig {
    /// One lagged frame marks a window, three lagging windows drop the
    /// ceiling, eight clear windows earn a re-price.
    fn default() -> Self {
        FeedbackConfig {
            lag_frames: 1,
            lag_windows: 3,
            clear_windows: 8,
        }
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
    /// server carries a live [`fgqos_telemetry::Telemetry`] registry: the
    /// pool records steal/park/busy counters and one span per worker per job,
    /// every served stream's runner records `sched.*` and `controller.*`
    /// metrics, sessions record tick counters/latency, and
    /// [`crate::ServeReport::snapshot`] exports it all.
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
