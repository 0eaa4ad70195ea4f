//! A stream's lifecycle in a session: attach, admission, re-admission,
//! lag feedback, detach and finalize.

use std::sync::Arc;

use fgqos_sim::app::VideoApp;
use fgqos_sim::runner::{Mode, Runner, StreamResult};

use super::{Active, FeedbackState, Parked, Slot, SlotState, Stage, StreamSession};
use crate::admission::{policy_for, AdmissionDecision, AdmissionRecord, StreamDemand};
use crate::distribute::{Broadcast, EncodedFrame, Subscriber};
use crate::error::ServeError;
use crate::{FeedbackConfig, ServeReport, StreamOutcome, StreamSpec};

impl<A: VideoApp> Active<A> {
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

impl<A: VideoApp> Slot<A> {
    /// Records the slot's outcome from its admission `record`, closes
    /// its output ring (subscribers drain what remains, then see
    /// `Closed`) and marks it done. `ran` holds the runner and result of
    /// a stream that ran.
    fn finalize(
        &mut self,
        record: &AdmissionRecord,
        detached: bool,
        ran: Option<(&Runner<A>, StreamResult)>,
    ) {
        self.state = SlotState::Done;
        let runner = ran.as_ref().map(|&(runner, _)| runner);
        self.outcome = Some(StreamOutcome {
            name: self.name.clone(),
            priority: record.priority,
            decision: record.decision,
            source_kind: self.source_kind,
            frames: self.frames,
            monitor: runner.map(|r| r.monitor().clone()),
            envelope_builds: runner.map_or(0, Runner::envelope_builds),
            table_builds: runner.map_or(0, Runner::full_table_builds),
            envelope_refreshes: runner.map_or(0, Runner::envelope_refreshes),
            result: ran.map(|(_, result)| result),
            detached,
            readmissions: record.readmissions,
            publish: self.output.take().map(|b| {
                b.close();
                b.stats()
            }),
        });
    }
}

impl<A: VideoApp> StreamSession<'_, A> {
    /// Materializes a spec into a slot (source → scenario → runner),
    /// files it under the next index and its name, and returns the index
    /// with the stream's declared demand. Does not price it.
    fn materialize(&mut self, mut spec: StreamSpec) -> Result<(usize, StreamDemand), ServeError> {
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
        let i = self.slots.len();
        self.names.entry(spec.name.clone()).or_insert(i);
        self.slots.push(Slot {
            name: spec.name,
            source_kind: spec.source.kind(),
            frames,
            attach_at: self.server_now,
            state: SlotState::Waiting(Box::new(Parked {
                runner,
                backend,
                clock,
            })),
            output: None,
            feedback: FeedbackState::default(),
            outcome: None,
        });
        let demand = StreamDemand {
            priority: spec.priority,
            utilization,
        };
        Ok((i, demand))
    }

    /// Applies an admission decision to a freshly materialized slot.
    fn apply_decision(&mut self, i: usize, decision: AdmissionDecision) -> Result<(), ServeError> {
        if decision.is_admitted() {
            return self.start_running(i, decision);
        }
        if !self.elastic {
            // Batch semantics: a rejection is final.
            self.finalize_never_ran(i, false);
        }
        Ok(())
    }

    /// Promotes a waiting slot to running under `decision`.
    fn start_running(&mut self, i: usize, decision: AdmissionDecision) -> Result<(), ServeError> {
        let slot = &mut self.slots[i];
        let SlotState::Waiting(parked) = std::mem::replace(&mut slot.state, SlotState::Done) else {
            unreachable!("start_running on a non-waiting slot");
        };
        let Parked {
            mut runner,
            backend,
            clock,
        } = *parked;
        let st = runner.start_parallel(Mode::Controlled)?;
        slot.attach_at = self.server_now;
        slot.state = SlotState::Running(Box::new(Active {
            runner,
            st,
            clock,
            backend,
            policy: policy_for(decision),
            ready_at: None,
            stage: Stage::Idle,
        }));
        // Filed nowhere yet, so the refile's removal finds nothing.
        self.refile(i);
        Ok(())
    }

    /// Running slot `i`'s stream.
    pub(super) fn active_mut(&mut self, i: usize) -> &mut Active<A> {
        let SlotState::Running(active) = &mut self.slots[i].state else {
            unreachable!("slot {i} is not running");
        };
        active
    }

    /// Reads running slot `i`'s ready time and refiles it in the index:
    /// when the stream starts and after each of its commits.
    pub(super) fn refile(&mut self, i: usize) {
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

    /// Finalizes a slot that never produced frames (rejected in batch
    /// mode, or detached while waiting).
    fn finalize_never_ran(&mut self, i: usize, detached: bool) {
        self.slots[i].finalize(self.ledger.record(i), detached, None);
    }

    /// Finalizes a running slot: `truncate` for detach (result covers
    /// only delivered frames), full collection for natural exhaustion.
    pub(super) fn finalize_running(&mut self, i: usize, truncate: bool) {
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
        slot.finalize(self.ledger.record(i), truncate, Some((&runner, result)));
    }

    /// Releases a departed stream's utilization and applies the ledger's
    /// re-admission pass ([`crate::admission::AdmissionLedger::readmit`]):
    /// the parked and admission-degraded streams, re-priced in
    /// (priority desc, attach index asc) order.
    pub(super) fn release_and_readmit(
        &mut self,
        i: usize,
        detached: bool,
    ) -> Result<(), ServeError> {
        if !self.elastic {
            // Batch mode keeps its one-shot pricing: the final report
            // shows the original grants in full.
            return Ok(());
        }
        self.ledger.release(i, detached);
        for (j, decision) in self.ledger.readmit() {
            match &mut self.slots[j].state {
                SlotState::Waiting(_) => self.start_running(j, decision)?,
                SlotState::Running(active) => active.grant(decision),
                SlotState::Done => unreachable!("released streams are not re-priced"),
            }
        }
        Ok(())
    }

    /// One lag-feedback window for slot `i` (a stream that just
    /// committed a frame): reads the output ring's lagged-frame total,
    /// updates the window counters, and lowers or re-raises the
    /// stream's ceiling when a threshold trips. See [`FeedbackConfig`].
    pub(super) fn observe_feedback(&mut self, i: usize, cfg: FeedbackConfig) {
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
            // Chronic lag: drop the ceiling one declared level, unless
            // it is at the lowest. The freed capacity goes back to the
            // pool for parked or degraded peers.
            slot.feedback.lagging = 0;
            if let Some(decision) = self.ledger.restrict(i) {
                self.active_mut(i).grant(decision);
                self.metrics.feedback_downgrades.incr();
            }
        } else if self.ledger.is_capped(i) && slot.feedback.clear >= cfg.clear_windows {
            // The lag cleared and stayed clear: offer the capacity
            // back. `regrant` raises the ceiling only as far as the
            // residual capacity allows; a release never does while
            // the ceiling is feedback-imposed.
            slot.feedback.clear = 0;
            if let Some(decision) = self.ledger.regrant(i) {
                self.active_mut(i).grant(decision);
            }
        }
    }

    /// The slot of the stream named `name`.
    pub(super) fn slot_of(&self, name: &str) -> Option<usize> {
        self.names.get(name).copied()
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
        if self.names.contains_key(&spec.name) {
            return Err(ServeError::InvalidConfig("duplicate stream name"));
        }
        let (i, demand) = self.materialize(spec)?;
        let decision = self.ledger.attach(demand);
        self.apply_decision(i, decision)?;
        Ok(decision)
    }

    /// Attaches a whole population at once, priced together rank-ordered
    /// by (priority desc, submission index asc) — see
    /// [`crate::admission::AdmissionLedger::attach_batch`]. Only valid as
    /// the session's opening move (the batch wrapper's path).
    pub(crate) fn attach_batch(&mut self, specs: Vec<StreamSpec>) -> Result<(), ServeError> {
        assert!(self.slots.is_empty(), "attach_batch on a non-empty session");
        let mut demands = Vec::with_capacity(specs.len());
        for spec in specs {
            demands.push(self.materialize(spec)?.1);
        }
        for (index, decision) in self.ledger.attach_batch(demands) {
            self.apply_decision(index, decision)?;
        }
        Ok(())
    }

    /// Detaches the stream named `name` from the running session: its
    /// result is truncated to the frames delivered while attached, its
    /// utilization returns to the pool, and the re-admission pass runs.
    /// Detaching a finished stream is a no-op.
    ///
    /// A frame the session prepared ahead of its tick (see "Ticks" on
    /// [`StreamSession`]) is dropped, with any overflow skips its
    /// prepare recorded, so the result is the one a session at depth 0
    /// gives. The work that prepare did is not undone: the stream's
    /// `envelope_builds`, `table_builds` and table-lookup counters
    /// include the dropped frame. They are still identical at every
    /// worker count.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidConfig`] when no stream has that name.
    pub fn detach(&mut self, name: &str) -> Result<(), ServeError> {
        let i = self
            .slot_of(name)
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
    /// its ring (with the server's [`crate::RingConfig`]) on first use.
    /// The handle is independent of the session borrow: clone it out,
    /// take snapshots, subscribe later.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidConfig`] for an unknown name or a stream
    /// that already finished (its ring, if any, is closed and dropped).
    pub fn broadcast(&mut self, name: &str) -> Result<Broadcast, ServeError> {
        let i = self
            .slot_of(name)
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
            crate::distribute::record_publish_into(
                &mut snap,
                outcomes.iter().filter_map(|o| o.publish.clone()),
            );
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
}

#[cfg(test)]
mod tests {
    use crate::admission::AdmissionDecision;
    use crate::distribute::Delivery;
    use crate::server::tests::spec;
    use crate::source::PacedSource;
    use crate::{
        stochastic_backends, table_apps, FeedbackConfig, RingConfig, ServeError, ServerConfig,
        StreamSpec,
    };
    use fgqos_encoder::app::EncoderApp;
    use fgqos_sim::exec::StochasticLoad;
    use fgqos_sim::runner::RunConfig;
    use fgqos_sim::runtime::{ExecBackend, ModelBackend};
    use fgqos_sim::scenario::{FrameInfo, LoadScenario};

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

    /// Table apps have no bitstream: a subscriber on a table session
    /// sees a clean close with zero frames, and the outcome still
    /// carries the ring's counters.
    #[test]
    fn table_streams_publish_nothing() {
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

    /// A 32×32 pixel stream of `frames` frames in two-frame GOPs, so a
    /// two-frame ring trims at almost every commit.
    fn gop_spec(name: &str, priority: u8, seed: u64, frames: usize) -> StreamSpec {
        let infos = (0..frames)
            .map(|i| FrameInfo {
                scene: i / 2,
                index_in_scene: i % 2,
                is_iframe: i.is_multiple_of(2),
                activity: 0.9,
                motion: 0.3,
                texture: 0.5,
                psnr_base: 36.0,
                budget_cycles: None,
            })
            .collect();
        StreamSpec::builder(name)
            .priority(priority)
            .seed(seed)
            .config(RunConfig::paper_defaults().scaled_to_macroblocks(4))
            .source(PacedSource::new(LoadScenario::from_frames(infos).unwrap()))
            .build()
    }

    /// A departure leaves a feedback-imposed ceiling alone: a stream
    /// whose lagging subscriber lowered its ceiling stays there when a
    /// peer runs dry and frees capacity, since its lag never cleared
    /// (`clear_windows` is out of reach). Only the clear-window regrant
    /// may raise it.
    #[test]
    fn a_departure_keeps_a_feedback_ceiling() {
        for workers in [1usize, 2] {
            let server = ServerConfig::new(workers)
                .capacity(1e6)
                .ring(RingConfig::frames(2))
                .feedback(FeedbackConfig {
                    lag_frames: 1,
                    lag_windows: 1,
                    clear_windows: 1000,
                })
                .build();
            let mut session = server.session(
                |scenario, spec: &StreamSpec| EncoderApp::new(scenario, 32, 32, spec.seed),
                |spec: &StreamSpec| {
                    Box::new(EncoderApp::work_backend(spec.seed)) as Box<dyn ExecBackend>
                },
            );
            session.attach(gop_spec("laggy", 5, 31, 40)).unwrap();
            session.attach(gop_spec("short", 1, 32, 16)).unwrap();
            let mut sub = session.subscribe("laggy").unwrap();
            let (mut ticks, mut capped_at_departure) = (0, false);
            while session.step().unwrap() {
                ticks += 1;
                if ticks % 4 == 0 {
                    sub.drain();
                }
                let adm = session.admission();
                if session.running() == 1 && !capped_at_departure {
                    // The tick on which "short" ran dry and released.
                    capped_at_departure = adm.lifecycle().downgraded > 0;
                    assert!(capped_at_departure, "laggy must be capped by then");
                }
                assert_eq!(adm.lifecycle().upgraded, 0, "tick {ticks}: ceiling raised");
            }
            let report = session.finish();
            assert!(capped_at_departure);
            assert!(!report.outcome("short").unwrap().detached, "short ran dry");
            let laggy = report.outcome("laggy").unwrap();
            assert!(matches!(laggy.decision, AdmissionDecision::Degrade(_)));
        }
    }
}
