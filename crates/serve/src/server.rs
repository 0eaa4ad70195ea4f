//! The [`StreamServer`]: one shared pool of resident workers, the
//! admission controller, and the sessions opened over them.

use fgqos_sim::app::{TableApp, VideoApp};
use fgqos_sim::exec::StochasticLoad;
use fgqos_sim::runtime::{Clock, ExecBackend, ModelBackend, VirtualClock, WorkStealingPool};
use fgqos_sim::scenario::LoadScenario;
use fgqos_sim::SimError;
use fgqos_telemetry::Telemetry;

use crate::admission::AdmissionController;
use crate::distribute::RingConfig;
use crate::error::ServeError;
use crate::{FeedbackConfig, ServeReport, ServerConfig, StreamSession, StreamSpec};

/// A server over one shared [`WorkStealingPool`] of resident workers.
/// See the crate docs.
#[derive(Debug, Clone)]
pub struct StreamServer {
    pub(crate) pool: WorkStealingPool,
    pub(crate) admission: AdmissionController,
    /// Retention policy handed to each session's output rings.
    pub(crate) ring: RingConfig,
    /// Lag-driven ceiling feedback thresholds (`None` = off).
    pub(crate) feedback: Option<FeedbackConfig>,
    /// The server's telemetry plane (inert unless
    /// [`ServerConfig::telemetry`] turned it on). The pool's span
    /// recorder is installed here at construction; sessions and their
    /// streams register into the same registry, so one snapshot covers
    /// every layer.
    pub(crate) telemetry: Telemetry,
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
        let virtual_clock = |_: &StreamSpec| Box::new(VirtualClock::new()) as Box<dyn Clock>;
        StreamSession::open(self, make_app, make_backend, virtual_clock, true)
    }

    /// [`StreamServer::session`] with caller-supplied per-stream clocks —
    /// the seam for *live* serving on [`fgqos_sim::runtime::WallClock`]s
    /// (see `examples/live_server.rs`). Wall-clock sessions trade the
    /// determinism contract for real-time behaviour. Such a session
    /// looks no tick ahead (see "Ticks" on [`StreamSession`]): a clock
    /// that moves by itself would start a frame's real-time budget
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
        StreamSession::open(self, make_app, make_backend, make_clock, false)
    }

    /// Serves a batch of streams to completion on the shared pool — a
    /// thin wrapper over [`StreamSession`]: attach the whole population
    /// up front (priced together, rank-ordered), run to completion, no
    /// elastic re-admission. Rejected streams never run.
    ///
    /// `make_app` builds each stream's application from its materialized
    /// scenario (all streams share the app *type*, never app *state*);
    /// `make_backend` supplies the stream's execution backend. Streams
    /// run on private [`VirtualClock`]s in
    /// [`fgqos_sim::runner::Mode::Controlled`].
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

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::admission::AdmissionDecision;
    use crate::source::PacedSource;
    use fgqos_sim::runner::RunConfig;

    /// A paced paper-benchmark stream of `frames` frames at `mb` macroblocks.
    pub(crate) fn spec(
        name: &str,
        priority: u8,
        seed: u64,
        frames: usize,
        mb: usize,
    ) -> StreamSpec {
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
}
