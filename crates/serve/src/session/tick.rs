//! The tick: one stage machine that prepares, runs phase 1 and commits
//! each due stream's next frame, looking ahead as far as the session's
//! depth allows (see "Ticks" on [`StreamSession`]).

use std::borrow::Cow;

use fgqos_core::estimator::AvgEstimator;
use fgqos_sim::app::VideoApp;
use fgqos_sim::runner::Phase1View;
use fgqos_sim::SimError;

use super::{Active, SlotState, Stage, StreamSession};
use crate::churn::{ChurnAction, ChurnEvent};
use crate::error::ServeError;

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

    /// The phase-1 view of the stream's prepared frame.
    fn view(&self) -> Phase1View<'_, A> {
        (self.runner.parallel_kernels(&self.st)).expect("a prepared frame")
    }
}

/// The merged phase-1 task graph of several streams' frames — a pure
/// function of *which* streams run (each stream's kernel DAG is static
/// across its frames), so it is cached and rebuilt only when that set
/// changes. A job of one stream (most jobs) runs that stream's own
/// static plan and never touches it.
pub(super) struct MergedDag {
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

impl<A: VideoApp> StreamSession<'_, A> {
    /// Executes one server tick: finalizes exhausted streams (running
    /// their releases and re-admissions), then advances every stream due
    /// at the earliest pending frame deadline by one frame — phase-1
    /// kernels of all due streams on the shared pool, commits
    /// sequential. Returns `false` when no stream is running (idle
    /// session; attach more or [`StreamSession::finish`]).
    ///
    /// A due stream skips the stages a session looking ahead already ran
    /// for it (see "Ticks" on [`StreamSession`]); that changes nothing
    /// any stream serves.
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
        // off; when on, one clock read starts both the latency sample and
        // the `tick` span.
        let tick_t0 = self
            .metrics
            .tick_latency
            .is_enabled()
            .then(std::time::Instant::now);
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

        // 1. Prepare the due streams that are idle (sequential; touches
        //    only per-stream state).
        let (mut due, mut ran) = (Vec::new(), false);
        for i in self.index.ready_at(t_min) {
            let active = self.active_mut(i);
            ran |= active.stage == Stage::Ran;
            if active.stage != Stage::Idle || active.prepare()? {
                due.push(i);
            } else {
                self.finalize_running(i, false);
                self.release_and_readmit(i, false)?;
            }
        }

        // 2. Run phase 1 of the due frames that did not run it ahead (at
        //    depth 0, all of them) on the shared pool: this is where the
        //    streams actually share the machine.
        let active = |i: usize| match &self.slots[i].state {
            SlotState::Running(active) => &**active,
            _ => unreachable!("due slots are running"),
        };
        let fresh: Cow<'_, [usize]> = if ran {
            (due.iter().copied())
                .filter(|&i| active(i).stage != Stage::Ran)
                .collect()
        } else {
            Cow::Borrowed(&due)
        };
        let views: Vec<_> = fresh.iter().map(|&i| active(i).view()).collect();
        let job = Phase1Job::new(&mut self.merged, &fresh, &views);
        self.pool.run_dag(job.indegree, job.succs, |g| job.run(g));
        drop(views);

        // 3. Commit each due frame sequentially — the same state
        //    transitions, in the same order, as a solo run.
        self.commit_overlapped(&due)?;

        self.server_now = self.server_now.max(t_min);
        self.ticks += 1;
        self.metrics.ticks.incr();
        let lane = self.metrics.coord_lane;
        if let Some(tick) = self.metrics.spans.record(lane, "tick", "serve", tick_t0) {
            self.metrics
                .tick_latency
                .record(tick.as_micros().min(u128::from(u64::MAX)) as u64);
        }
        Ok(true)
    }

    /// Commits `due` ([`Self::commit`]) on this thread while the resident
    /// workers run phase 1 of the streams filed at the next ready time,
    /// then prepares the idle streams filed at the ready time after it.
    /// At depth 0 both sets are empty, so the job is too. The streams in
    /// the job leave their slots for it and come back after it, so the
    /// commit borrows nothing they hold.
    fn commit_overlapped(&mut self, due: &[usize]) -> Result<(), ServeError> {
        let (next, after) = if self.depth > 0 {
            self.index.next_two(due)
        } else {
            Default::default()
        };
        // An idle stream of the next set committed in the tick before
        // (two streams alternating do every tick): prepared here, its
        // phase 1 runs beside the commit too. An exhausted source stays
        // idle, and its own tick departs it.
        let mut slots = Vec::new();
        for &i in &next {
            let active = self.active_mut(i);
            if active.stage == Stage::Idle {
                active.prepare()?;
            }
            if active.stage == Stage::Prepared {
                slots.push(i);
            }
        }
        let running: Vec<_> = (slots.iter())
            .map(
                |&i| match std::mem::replace(&mut self.slots[i].state, SlotState::Done) {
                    SlotState::Running(active) => active,
                    _ => unreachable!("prepared slots are running"),
                },
            )
            .collect();
        let views: Vec<_> = running.iter().map(|a| a.view()).collect();
        let mut merged = self.merged.take();
        let job = Phase1Job::new(&mut merged, &slots, &views);
        let pool = self.pool;
        let committed = pool.run_dag_while(
            job.indegree,
            job.succs,
            |g| job.run(g),
            || -> Result<(), ServeError> {
                self.commit(due)?;
                for &i in &after {
                    let active = self.active_mut(i);
                    if active.stage == Stage::Idle {
                        active.prepare()?;
                    }
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
}

#[cfg(test)]
mod tests {
    use super::super::{SlotState, Stage, StreamSession};
    use crate::churn::{ChurnAction, ChurnEvent};
    use crate::distribute::Delivery;
    use crate::server::tests::spec;
    use crate::source::PacedSource;
    use crate::{
        stochastic_backends, table_apps, AdmissionDecision, ServerConfig, StreamSpec, Subscriber,
    };
    use fgqos_core::policy::MaxQuality;
    use fgqos_encoder::app::EncoderApp;
    use fgqos_sim::app::VideoApp;
    use fgqos_sim::runner::{FrameRecord, Mode, RunConfig, Runner, StreamResult};
    use fgqos_sim::runtime::{Clock, ExecBackend, VirtualClock};
    use fgqos_sim::scenario::LoadScenario;
    use fgqos_sim::SimError;
    use fgqos_telemetry::TelemetrySnapshot;
    use fgqos_time::{fig5, Cycles};
    use std::fmt::Write as _;

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

    const W: usize = 32;
    const H: usize = 32;
    const MB: usize = (W / 16) * (H / 16);
    const FRAMES: usize = 24;

    /// The camera period of the paper's stream scaled to `MB` macroblocks.
    fn base_period() -> u64 {
        fig5::PERIOD_CYCLES * MB as u64 / fig5::MACROBLOCKS_PER_FRAME as u64
    }

    /// Stream `k`'s spec: a camera period of its own (`k % 5` tenths
    /// above the scaled paper period), so streams fall due at different
    /// times and the next due sets keep changing.
    fn pixel_spec(k: usize) -> StreamSpec {
        let base = base_period();
        let period = base + base * (k % 5) as u64 / 10;
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

    /// Steps `session` with `specs` attached until it runs dry, checking
    /// after every step that no running stream left idle, and that the
    /// session never registered `serve.frames_ahead`.
    fn assert_never_ahead<A: VideoApp>(mut session: StreamSession<'_, A>, specs: Vec<StreamSpec>) {
        for spec in specs {
            session.attach(spec).unwrap();
        }
        while session.step().unwrap() {
            for slot in &session.slots {
                if let SlotState::Running(active) = &slot.state {
                    assert_eq!(
                        active.stage,
                        Stage::Idle,
                        "{} at tick {}",
                        slot.name,
                        session.ticks()
                    );
                }
            }
        }
        assert_eq!(
            session.telemetry_snapshot().counter("serve.frames_ahead"),
            None
        );
    }

    /// Depth 0 never looks ahead: neither a pixel session on
    /// caller-supplied clocks, whose budgets must not start before their
    /// tick, nor a table session, whose kernels are no-ops.
    #[test]
    fn depth_zero_sessions_never_look_ahead() {
        let server = ServerConfig::new(2).capacity(64.0).telemetry(true).build();
        let pixels = server.session_with_clocks(app, backend, |_: &StreamSpec| {
            Box::new(VirtualClock::new()) as Box<dyn Clock>
        });
        assert_never_ahead(pixels, (0..3).map(pixel_spec).collect());
        let tables = server.session(table_apps(8), stochastic_backends());
        let specs = vec![
            spec("a", 1, 3, 20, 8),
            spec("b", 2, 4, 25, 8),
            spec("c", 3, 5, 15, 8),
        ];
        assert_never_ahead(tables, specs);
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
        /// Serves until server time `at`, then attaches stream `k` there.
        AttachAt(usize, Cycles),
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
            Op::AttachAt(k, at) => {
                let action = ChurnAction::Attach(pixel_spec(k));
                session.run_script(vec![ChurnEvent { at, action }]).unwrap();
                writeln!(log, "attach p{k} at {at:?}").unwrap();
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

    /// Replays `ops` on a session at depth 1 (`ahead`) or depth 0.
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

    /// Replays `ops` at depth 1 and at depth 0 on 1, 2 and 8 workers:
    /// every run serves the same, and depth 1 runs frames ahead. Returns
    /// what the runs saw.
    fn assert_ahead_is_invisible(ops: &[Op]) -> Seen {
        let (reference, _) = replay(1, false, ops);
        let (_, stable) = replay(1, true, ops);
        assert!(
            stable.counter("serve.frames_ahead").unwrap_or(0) > 0,
            "the session ran frames ahead"
        );
        for workers in [1usize, 2, 8] {
            let (plain, _) = replay(workers, false, ops);
            assert_eq!(plain, reference, "one tick at a time, {workers} workers");
            let (ahead, view) = replay(workers, true, ops);
            assert_eq!(ahead, reference, "looking ahead, {workers} workers");
            assert_eq!(
                view.to_json(),
                stable.to_json(),
                "stable telemetry, {workers} workers"
            );
        }
        reference
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

    /// Frames run ahead are invisible: pixel-stream sessions, which
    /// prepare and phase-1 the next due streams while a tick commits,
    /// serve exactly what the same calls serve on a session that steps
    /// one tick at a time.
    #[test]
    fn frames_run_ahead_serve_what_one_tick_at_a_time_serves() {
        let reference = assert_ahead_is_invisible(&script());
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

    /// Two streams of one period, half a period apart, fall due in
    /// turn: the stream due next always committed in the tick before.
    /// It is prepared before the overlap starts, so its phase 1 still
    /// runs beside the other stream's commit.
    #[test]
    fn two_alternating_streams_run_phase_1_ahead() {
        let mut ops = vec![
            Op::Attach(0),
            Op::AttachAt(5, Cycles::new(base_period() / 2)),
        ];
        ops.extend([Op::Step; 30]);
        assert_ahead_is_invisible(&ops);
    }
}
