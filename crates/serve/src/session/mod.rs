//! The [`StreamSession`]: a running server, its streams' slots, the
//! ready index that orders them, their lifecycle and the tick.

mod lifecycle;
mod ready;
mod tick;

use fgqos_core::policy::QualityPolicy;
use fgqos_sim::app::VideoApp;
use fgqos_sim::runner::{ParallelStream, Runner};
use fgqos_sim::runtime::{Clock, ExecBackend, WorkStealingPool};
use fgqos_sim::scenario::LoadScenario;
use fgqos_sim::SimError;
use fgqos_telemetry::{
    Counter, Gauge, Histogram, SpanRecorder, Stability, Telemetry, TelemetrySnapshot,
};
use fgqos_time::Cycles;

use crate::admission::{AdmissionDecision, AdmissionLedger, AdmissionReport, StreamDemand};
use crate::distribute::{record_publish_into, Broadcast, RingConfig};
use crate::{FeedbackConfig, StreamOutcome, StreamServer, StreamSpec};
use ready::ReadyIndex;
use tick::MergedDag;

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

/// A running stream: its runner, pipeline, clock, backend and policy.
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

/// Where a running stream's next frame stands (see "Ticks" on
/// [`StreamSession`]); its commit returns it to `Idle`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    /// No frame prepared.
    Idle,
    /// The next frame is prepared; its phase 1 has not run.
    Prepared,
    /// The next frame is prepared and its phase 1 ran.
    Ran,
}

/// Factory building a stream's application from its materialized
/// scenario at attach time.
type AppFactory<'a, A> = Box<dyn FnMut(LoadScenario, &StreamSpec) -> Result<A, SimError> + 'a>;
/// Factory supplying a stream's execution backend at attach time.
type BackendFactory<'a> = Box<dyn FnMut(&StreamSpec) -> Box<dyn ExecBackend> + 'a>;
/// Factory supplying a stream's private clock at attach time.
type ClockFactory<'a> = Box<dyn FnMut(&StreamSpec) -> Box<dyn Clock> + 'a>;

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
/// frame clock; see [`ParallelStream::next_ready_time`]), so frame rates
/// stay decoupled. Each running stream is **idle** (no frame prepared),
/// **prepared** (its next frame's budget, tables, controller and camera
/// frame are ready) or **ran** (that frame's phase 1 ran too). A tick
/// prepares its idle due streams and runs phase 1 of the due frames
/// that have not run it on the shared resident pool — a lone stream's
/// own plan as is, several merged into one task graph. It then commits
/// and publishes the due frames in slot order on the calling thread
/// inside `WorkStealingPool::run_dag_while`; a commit is serial (each
/// decision reads the time the earlier actions took) and returns its
/// stream to idle.
///
/// What the residents do meanwhile depends on the session's *lookahead
/// depth*, fixed when it is opened. At depth 0, nothing: no stream
/// leaves idle between ticks. At depth 1 the tick first prepares the
/// idle streams filed at the next ready time; the residents run phase 1
/// of every prepared stream filed there while the commits run, and then
/// the calling thread prepares the idle streams filed at the ready time
/// after that. So a frame is prepared up to two ticks before its own,
/// its phase 1 runs one tick before it, and its own tick skips the
/// stages already done. A session looks ahead when its app has kernels
/// ([`VideoApp::HAS_KERNELS`]) and it owns its virtual clocks
/// ([`StreamServer::session`]). Table apps, whose kernels are no-ops,
/// run at depth 0, and so do sessions on caller-supplied clocks
/// ([`StreamServer::session_with_clocks`]): a clock that moves by
/// itself would start a frame's real-time budget at its early prepare.
/// `serve.frames_ahead` counts the frames whose phase 1 ran ahead; only
/// sessions at depth 1 register it.
///
/// Looking ahead is invisible. Preparing a frame and running its phase
/// 1 read and write only that stream's own state (pipeline, runner, app,
/// private clock), which no other stream's tick moves, so a frame run
/// ahead holds exactly what its own tick would have computed, and a
/// wrong guess about the next due set only makes it wait for its tick.
/// A prepared stream stays filed at the arrival its prepare waited for.
/// A grant that replaces the policy of a stream holding a prepared
/// frame replays the cycle-start hook on the new policy, and a detach
/// discards the frame with the overflow skips its prepare recorded.
/// Results, admission logs and output transcripts are therefore those of
/// depth 0, at every worker count.
///
/// # Ready index
///
/// The session keeps every running stream in one ordered index of
/// (server-time ready time, slot), plus an ordered set of exhausted
/// slots, so a tick costs O(due · log live) rather than a pass over
/// every slot. A stream's ready time is `attach_at + max(next arrival,
/// now)` on its own clock, `attach_at + now` when a frame is buffered,
/// or none once its source is exhausted. It is read when the stream
/// starts (attach or re-admission) and after each of its commits, and
/// the entry is dropped when the stream is finalized. On a
/// [`fgqos_sim::runtime::VirtualClock`] that is exact: the pipeline
/// moves only when the stream is prepared and the clock only when its
/// own runner advances it, so the index always equals a rescan of the
/// slots. A clock that moves by itself (a
/// [`fgqos_sim::runtime::WallClock`]) keeps the ready time last observed
/// for it, so a tick serves the streams that became ready earliest, ties
/// in slot order. Wall-clock sessions have no determinism contract.
///
/// # Determinism
///
/// On virtual clocks, everything — admission decisions, re-admission
/// order, tick grouping, every per-frame record — is a pure function of
/// the attach/detach call sequence and the specs. Worker count changes
/// only wall-clock speed.
pub struct StreamSession<'a, A: VideoApp> {
    pool: &'a WorkStealingPool,
    /// The lookahead depth (see "Ticks" above): 1 or 0.
    depth: usize,
    /// Retention policy for lazily created per-stream output rings.
    ring: RingConfig,
    /// Lag-driven ceiling feedback thresholds (`None` = off).
    feedback: Option<FeedbackConfig>,
    /// Whether departures re-price the parked/degraded population.
    /// Sessions default to `true`; the batch wrapper turns it off.
    pub(crate) elastic: bool,
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
/// | `serve.frames_ahead` | counter | stable | frames whose phase 1 ran a tick ahead (depth 1 only) |
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

impl<'a, A: VideoApp> StreamSession<'a, A> {
    /// Opens a session on `server`; `own_clocks` says that `make_clock`
    /// hands out fresh virtual clocks, which fixes the lookahead depth
    /// at 1 for apps with kernels.
    pub(crate) fn open<FA, FB, FC>(
        server: &'a StreamServer,
        make_app: FA,
        make_backend: FB,
        make_clock: FC,
        own_clocks: bool,
    ) -> Self
    where
        FA: FnMut(LoadScenario, &StreamSpec) -> Result<A, SimError> + 'a,
        FB: FnMut(&StreamSpec) -> Box<dyn ExecBackend> + 'a,
        FC: FnMut(&StreamSpec) -> Box<dyn Clock> + 'a,
    {
        let depth = usize::from(A::HAS_KERNELS && own_clocks);
        let telemetry = &server.telemetry;
        let metrics = SessionMetrics {
            ticks: telemetry.counter("serve.ticks"),
            frames_ahead: if depth > 0 {
                telemetry.counter("serve.frames_ahead")
            } else {
                Counter::default()
            },
            workers: telemetry.runtime_gauge("serve.workers"),
            tick_latency: telemetry.runtime_histogram("serve.tick_latency_us"),
            feedback_downgrades: telemetry.counter("budget.feedback_downgrades"),
            spans: telemetry.spans(),
            coord_lane: server.pool.workers(),
        };
        metrics.workers.set(server.pool.workers() as u64);
        StreamSession {
            pool: &server.pool,
            depth,
            ring: server.ring,
            feedback: server.feedback,
            elastic: true,
            ledger: AdmissionLedger::new(server.admission),
            make_app: Box::new(make_app),
            make_backend: Box::new(make_backend),
            make_clock: Box::new(make_clock),
            slots: Vec::new(),
            index: ReadyIndex::default(),
            merged: None,
            server_now: Cycles::ZERO,
            ticks: 0,
            telemetry: telemetry.clone(),
            metrics,
        }
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
        self.index.next_tick_time(self.server_now)
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

    /// The session's telemetry plane (inert unless the server was built
    /// with [`crate::ServerConfig::telemetry`] enabled). Use it to export
    /// the span trace: `session.telemetry().spans().to_chrome_trace()`.
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
