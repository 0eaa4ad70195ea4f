//! The frame lifecycle every run of a [`Runner`] steps through, and the
//! public frame-by-frame API the multi-stream serving layer multiplexes
//! on.
//!
//! # One lifecycle
//!
//! A run keeps one private per-stream state (pipeline, records, declared
//! and generative profiles, budget source, pending frame) and steps it
//! through three private steps until the pipeline runs dry:
//!
//! * **prepare** — pop the next encodable frame, source its budget,
//!   fetch the constraint tables for it, build the frame's
//!   [`CycleController`], and fire the app and policy frame hooks;
//! * **commit** — the paper's per-action loop: decide a quality, obtain
//!   the action's work, charge the backend, complete; then close the
//!   frame's record (safety accounting, quality stats, PSNR);
//! * **close** — fill never-encoded frames as skips (or truncate to the
//!   delivered frames of a detached stream) and label the result.
//!
//! [`Runner::run_on`] is that loop with every action run in place
//! (kernel, then apply). The stepped API below is the same loop with a
//! speculative phase 1 between prepare and commit:
//!
//! 1. [`Runner::start_parallel`] opens a [`ParallelStream`]: the state
//!    plus its speculation seed and kernel DAG;
//! 2. [`Runner::next_parallel_frame`] prepares the next frame;
//! 3. [`Runner::parallel_kernels`] exposes the pending frame's kernels
//!    as an immutable, [`Sync`] [`Phase1View`]. The caller runs them on
//!    any executor — a dedicated pool, or a [`super::WorkStealingPool`]
//!    shared with *other streams' frames* (the server merges several
//!    views into one task graph) — or skips phase 1 altogether;
//! 4. [`Runner::commit_parallel_frame`] commits the frame, consuming a
//!    cached kernel only when its quality class matches the decision and
//!    its inputs were valid, re-executing it otherwise;
//! 5. [`Runner::finish_parallel`] closes the stream and collects its
//!    [`StreamResult`].
//!
//! # Isolation
//!
//! Everything a frame's decisions depend on lives in the
//! [`ParallelStream`] and its runner — nothing is shared between streams
//! except the executor that happens to run the (pure, data-complete)
//! phase-1 kernels. A stream stepped through this API on a
//! [`VirtualClock`] + [`crate::runtime::ModelBackend`] therefore produces
//! the same bytes no matter how many other streams share the pool, which
//! is the serving layer's isolation contract. [`Runner::run_on`] never
//! touches the speculation machinery, so it stays an independent
//! reference for the speculative commit.
//!
//! [`VirtualClock`]: crate::runtime::VirtualClock

use std::sync::{Arc, OnceLock};

use fgqos_core::estimator::AvgEstimator;
use fgqos_core::policy::QualityPolicy;
use fgqos_core::{CycleController, Decision};
use fgqos_graph::ActionId;
use fgqos_time::{Cycles, Quality, QualityProfile, QualitySet};

use super::{run_in_place, FrameRecord, Mode, Runner, StreamResult};
use crate::app::VideoApp;
use crate::budget::BudgetSource;
use crate::exec::ExecCtx;
use crate::pipeline::InputPipeline;
use crate::runtime::parallel::{FramePlan, SpecSlot};
use crate::runtime::{Clock, ExecBackend};
use crate::SimError;

/// One run's frame-loop state, carried from frame to frame by the
/// lifecycle steps.
pub(super) struct StreamState {
    mode: Mode,
    qs: QualitySet,
    pipe: InputPipeline,
    records: Vec<Option<FrameRecord>>,
    /// One past the highest frame recorded so far: the length a detached
    /// run's records truncate to.
    delivered: usize,
    /// Declared profile: drives the controller's tables (and learns from
    /// the estimator).
    body_profile: QualityProfile,
    /// Generative profile: drives the execution-time models. The two
    /// coincide unless the app declares otherwise.
    gen_profile: QualityProfile,
    /// Live per-frame budget source (see [`crate::budget`]); one fresh
    /// source per run, so replays are deterministic.
    source: BudgetSource,
    /// Most recent finite sourced budget, for the delta histogram.
    prev_budget: Option<Cycles>,
    pending: Option<PendingFrame>,
}

/// A frame that has been prepared but not yet committed.
struct PendingFrame {
    frame: usize,
    /// The stream's `delivered` mark before this frame was prepared, so
    /// discarding the frame also discards the skips its prepare recorded.
    delivered_before: usize,
    arrival: Cycles,
    now: Cycles,
    budget: Cycles,
    ctl: CycleController,
    activity: f64,
}

/// The speculative half of a stepped run.
pub(super) struct Speculation {
    plan: Arc<FramePlan>,
    /// Speculation seed: the quality committed at each unrolled instance
    /// during the most recent frame.
    q: Vec<Quality>,
    /// Phase-1 results of the pending frame, one per instance.
    slots: Vec<OnceLock<SpecSlot>>,
    /// Whether each committed instance left the state its phase-1
    /// readers saw.
    valid: Vec<bool>,
    hits: u64,
    misses: u64,
}

/// The portable state of one in-flight parallel run, stepped frame by
/// frame by its [`Runner`]. Create with [`Runner::start_parallel`].
///
/// The struct is intentionally runner-agnostic (no generic parameter):
/// a server holds one per stream next to the stream's runner, clock and
/// backend, and the compiler cannot mix the pair up because every
/// stepping method takes both.
pub struct ParallelStream {
    state: StreamState,
    spec: Speculation,
}

impl ParallelStream {
    /// Camera frame index of the pending frame, if any.
    #[must_use]
    pub fn pending_frame(&self) -> Option<usize> {
        self.state.pending.as_ref().map(|p| p.frame)
    }

    /// The committed record of camera frame `frame`, if it has been
    /// delivered — the publish seam: after
    /// [`Runner::commit_parallel_frame`], a server reads the committed
    /// timing/quality here to stamp the frame's encoded output.
    #[must_use]
    pub fn record(&self, frame: usize) -> Option<&FrameRecord> {
        self.state.records.get(frame).and_then(Option::as_ref)
    }

    /// Earliest stream time at which this stream can make progress — the
    /// deadline-driven tick seam of a multi-stream server.
    ///
    /// Returns the time the next [`Runner::next_parallel_frame`] call
    /// would start encoding at: *now* when a frame is already pending or
    /// buffered, the next camera arrival when the pipeline is idle, and
    /// `None` when the stream is exhausted (the next
    /// [`Runner::next_parallel_frame`] returns `false`). A server steps
    /// whichever streams have the minimal ready time, so a fast stream
    /// never waits on a slow one's frame clock.
    #[must_use]
    pub fn next_ready_time(&self, clock: &mut dyn Clock) -> Option<Cycles> {
        let now = clock.now();
        let pipe = &self.state.pipe;
        if self.state.pending.is_some() || pipe.waiting() > 0 {
            return Some(now);
        }
        if pipe.is_exhausted() {
            return None;
        }
        pipe.next_arrival_time().map(|t| t.max(now))
    }
}

/// An immutable, [`Sync`] view of one pending frame's kernel DAG:
/// everything an external executor needs to run phase 1.
///
/// Task indices are instance indices of the runner's unrolled graph
/// (`0..len()`); [`Phase1View::indegree`]/[`Phase1View::succs`] describe
/// the dependency DAG and [`Phase1View::run_kernel`] executes one task.
/// Each task must run exactly once, after all its predecessors; a
/// [`super::WorkStealingPool`] does exactly that, but so does any other
/// scheduler — including one interleaving the tasks of *several* views
/// from different streams.
pub struct Phase1View<'a, A: VideoApp> {
    app: &'a A,
    iter: &'a fgqos_graph::iterate::IteratedGraph,
    plan: &'a FramePlan,
    spec: &'a [Quality],
    slots: &'a [OnceLock<SpecSlot>],
}

impl<A: VideoApp> Phase1View<'_, A> {
    /// Number of kernel tasks (instances in the unrolled frame graph).
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the frame has no kernels (never the case for a valid app).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// In-degree of each task in the execution DAG.
    #[must_use]
    pub fn indegree(&self) -> &[usize] {
        &self.plan.indegree
    }

    /// Successors of each task in the execution DAG.
    #[must_use]
    pub fn succs(&self) -> &[Vec<usize>] {
        &self.plan.succs
    }

    /// Executes kernel task `i` at its speculated quality and stores the
    /// result for the commit phase. Must be called exactly once per task,
    /// only after every predecessor in [`Phase1View::succs`] completed.
    ///
    /// # Panics
    ///
    /// Panics if the same task is executed twice.
    pub fn run_kernel(&self, i: usize) {
        let (a, mb) = self.iter.body_of(ActionId::from_index(i));
        let q = self.spec[i];
        let slot = SpecSlot {
            class: self.app.kernel_class(a, mb, q),
            work: self.app.kernel(a, mb, q),
        };
        self.slots[i]
            .set(slot)
            .expect("each kernel task runs exactly once");
    }
}

impl<A: VideoApp> Runner<A> {
    /// Opens one run's state: a fresh pipeline, records, profiles and
    /// budget source (`Trace` snapshots the recorded budgets of the app's
    /// [`VideoApp::scenario`]).
    pub(super) fn open(&self, mode: Mode) -> Result<StreamState, SimError> {
        let scenario = self.app.scenario();
        let total = scenario.frames();
        Ok(StreamState {
            mode,
            qs: self.app.profile().qualities().clone(),
            pipe: InputPipeline::new(self.config.period, self.config.input_capacity, total)?,
            records: vec![None; total],
            delivered: 0,
            body_profile: self.app.profile().clone(),
            gen_profile: self.app.generative_profile().clone(),
            source: BudgetSource::new(self.config.budget, scenario.iter().map(|f| f.budget_cycles)),
            prev_budget: None,
            pending: None,
        })
    }

    /// Advances `s` to its next encodable frame and prepares it: sourced
    /// budget → constraint tables → controller → app and policy frame
    /// hooks. Returns `false` (nothing prepared) when the stream is
    /// exhausted.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] if the previous frame has not been
    /// committed yet; propagated table errors otherwise.
    pub(super) fn prepare(
        &mut self,
        s: &mut StreamState,
        clock: &mut dyn Clock,
        policy: &mut dyn QualityPolicy,
        estimator: &mut Option<&mut dyn AvgEstimator>,
    ) -> Result<bool, SimError> {
        if s.pending.is_some() {
            return Err(SimError::InvalidConfig(
                "previous frame not committed before preparing the next",
            ));
        }
        let delivered_before = s.delivered;
        let Some((frame, arrival, now)) =
            self.next_frame(clock, &mut s.pipe, &mut s.records, &mut s.delivered)
        else {
            return Ok(false);
        };
        let deadline_budget = match s.pipe.budget_deadline(now) {
            Some(d) => d - now,
            None => Cycles::INFINITY,
        };
        // The stream's budget source can only tighten the deadline (min
        // semantics); the record keeps the sourced budget in both modes,
        // so uncontrolled baselines expose how often they would have
        // overrun the channel.
        let budget = s.source.frame_budget(frame, deadline_budget);
        self.observe_budget(budget, &mut s.prev_budget);
        // Uncontrolled runs do not see deadlines at all.
        let frame_budget = match s.mode {
            Mode::Controlled => budget,
            Mode::Constant => Cycles::INFINITY,
        };
        let tables = self.prepare_frame(estimator, &mut s.body_profile, &s.qs, frame_budget)?;
        let ctl = CycleController::from_shared(tables, s.qs.clone());
        self.app.begin_frame(frame);
        policy.on_cycle_start();
        s.pending = Some(PendingFrame {
            frame,
            delivered_before,
            arrival,
            now,
            budget,
            ctl,
            activity: self.app.scenario().frame(frame).activity,
        });
        Ok(true)
    }

    /// Commits the pending frame: decide → obtain work → charge the
    /// backend → complete, until the cycle is finished, then records the
    /// frame (safety accounting, quality stats, PSNR). `work_of` runs the
    /// decided action (or consumes its speculated result) and returns its
    /// work units.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] if no frame is pending; propagated
    /// controller protocol errors otherwise.
    pub(super) fn commit(
        &mut self,
        s: &mut StreamState,
        clock: &mut dyn Clock,
        backend: &mut dyn ExecBackend,
        policy: &mut dyn QualityPolicy,
        estimator: &mut Option<&mut dyn AvgEstimator>,
        work_of: &mut dyn FnMut(&mut A, &Decision, ActionId, usize) -> Option<u64>,
    ) -> Result<(), SimError> {
        let PendingFrame {
            frame,
            arrival,
            now,
            delivered_before: _,
            budget,
            mut ctl,
            activity,
        } = s
            .pending
            .take()
            .ok_or(SimError::InvalidConfig("no pending frame to commit"))?;
        let mut t = Cycles::ZERO;
        while let Some(d) = ctl.decide(t, policy)? {
            let (body_action, mb) = self.iter.body_of(d.action);
            let ctx = ExecCtx {
                action: body_action,
                iteration: mb,
                quality: d.quality,
                avg: s.gen_profile.avg(body_action, d.quality),
                // Clamp bound stays the *declared* worst case: the
                // safety theorem needs actual <= Cwc_θ as declared.
                worst: s.body_profile.worst(body_action, d.quality),
                activity,
                work_units: work_of(&mut self.app, &d, body_action, mb),
            };
            let dur = backend.elapse(clock, now + t, &ctx);
            t += dur;
            ctl.complete(t)?;
            if let Some(est) = estimator.as_deref_mut() {
                est.observe(body_action, d.quality, dur);
            }
        }
        let report = ctl.finish();
        self.monitor.record(&report);
        self.metrics.controller.observe(&report);
        let (mean_q, switches) = self.sensitive_quality_stats(&report, &s.body_profile);
        let psnr_db = self.app.encoded_psnr(frame, mean_q, &report);
        s.delivered = s.delivered.max(frame + 1);
        s.records[frame] = Some(FrameRecord {
            frame,
            skipped: false,
            is_iframe: self.app.scenario().frame(frame).is_iframe,
            start: now,
            encode_cycles: t,
            budget,
            latency: now - arrival,
            mean_quality: mean_q,
            misses: report.misses,
            fallbacks: report.fallbacks,
            quality_switches: switches,
            psnr_db,
        });
        Ok(())
    }

    /// Closes a run: fills never-encoded frames as skips — or, with
    /// `truncate` (a stream detached mid-run), keeps only the frames
    /// delivered so far and discards a pending frame together with the
    /// skips its prepare recorded — stores a speculative run's seed and
    /// diagnostics back on the runner, and labels the result.
    pub(super) fn close(
        &mut self,
        mut s: StreamState,
        spec: Option<Speculation>,
        policy_name: &str,
        truncate: bool,
    ) -> StreamResult {
        if truncate {
            let delivered = s
                .pending
                .as_ref()
                .map_or(s.delivered, |p| p.delivered_before);
            s.records.truncate(delivered);
        }
        if let Some(spec) = spec {
            self.last_spec = Some(spec.q);
            self.spec_hits += spec.hits;
            self.spec_misses += spec.misses;
            self.metrics.spec_hits.add(spec.hits);
            self.metrics.spec_misses.add(spec.misses);
        }
        let frames = s
            .records
            .into_iter()
            .enumerate()
            .map(|(f, r)| r.unwrap_or_else(|| self.skipped_record(f)))
            .collect();
        StreamResult {
            label: format!(
                "{} (K={}, P={})",
                policy_name, self.config.input_capacity, self.config.period
            ),
            period: self.config.period,
            frames,
        }
    }

    /// Opens a steppable parallel run over this runner's stream.
    ///
    /// The caller then alternates [`Runner::next_parallel_frame`] /
    /// phase-1 execution via [`Runner::parallel_kernels`] /
    /// [`Runner::commit_parallel_frame`], and closes the run with
    /// [`Runner::finish_parallel`]. See the module docs for the protocol;
    /// [`Runner::run_parallel_on`] is the single-stream reference driver.
    ///
    /// # Errors
    ///
    /// Propagates pipeline configuration and kernel-DAG validation
    /// errors.
    pub fn start_parallel(&mut self, mode: Mode) -> Result<ParallelStream, SimError> {
        if self.parallel_plan.is_none() {
            let built = FramePlan::build(&self.app, &self.iter, &self.order_pos)?;
            let shape = (built.indegree.len(), self.iter.iterations());
            self.parallel_plan = Some(super::PLANS.intern(shape, built));
        }
        let plan = Arc::clone(self.parallel_plan.as_ref().expect("plan just built"));
        let state = self.open(mode)?;
        let n_inst = self.iter.graph().len();
        // Speculation seed: the level committed at the same instance one
        // frame earlier; before any parallel frame, the maximal level
        // (mis-speculation only costs a re-execution, never correctness).
        let q = self
            .last_spec
            .take()
            .filter(|v| v.len() == n_inst)
            .unwrap_or_else(|| vec![state.qs.max(); n_inst]);
        Ok(ParallelStream {
            state,
            spec: Speculation {
                plan,
                q,
                slots: (0..n_inst).map(|_| OnceLock::new()).collect(),
                valid: vec![false; n_inst],
                hits: 0,
                misses: 0,
            },
        })
    }

    /// Advances the stream to its next encodable frame and prepares the
    /// frame's controller and speculation slots. Returns `false` when the
    /// stream is exhausted (nothing prepared; call
    /// [`Runner::finish_parallel`]).
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] if the previous frame has not been
    /// committed yet; propagated controller errors otherwise.
    pub fn next_parallel_frame(
        &mut self,
        st: &mut ParallelStream,
        clock: &mut dyn Clock,
        policy: &mut dyn QualityPolicy,
        estimator: &mut Option<&mut dyn AvgEstimator>,
    ) -> Result<bool, SimError> {
        let prepared = self.prepare(&mut st.state, clock, policy, estimator)?;
        if prepared {
            for slot in &mut st.spec.slots {
                slot.take();
            }
            st.spec.valid.fill(false);
        }
        Ok(prepared)
    }

    /// The pending frame's kernel DAG, ready for an external executor.
    /// `None` when no frame is pending.
    #[must_use]
    pub fn parallel_kernels<'s>(&'s self, st: &'s ParallelStream) -> Option<Phase1View<'s, A>> {
        st.state.pending.as_ref().map(|_| Phase1View {
            app: &self.app,
            iter: &self.iter,
            plan: &st.spec.plan,
            spec: &st.spec.q,
            slots: &st.spec.slots,
        })
    }

    /// Commits the pending frame: replays the controller loop in static
    /// EDF order (phase 2), consuming speculated kernels when their
    /// quality class matches and their inputs were valid, re-executing
    /// otherwise — the same state transitions as [`Runner::run_on`].
    ///
    /// Kernels that phase 1 has not executed are simply re-executed here,
    /// so a caller may legally skip phase 1 altogether (it then pays the
    /// sequential cost).
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] if no frame is pending; propagated
    /// controller protocol errors otherwise.
    pub fn commit_parallel_frame(
        &mut self,
        st: &mut ParallelStream,
        clock: &mut dyn Clock,
        backend: &mut dyn ExecBackend,
        policy: &mut dyn QualityPolicy,
        estimator: &mut Option<&mut dyn AvgEstimator>,
    ) -> Result<(), SimError> {
        let Speculation {
            plan,
            q,
            slots,
            valid,
            hits,
            misses,
        } = &mut st.spec;
        self.commit(
            &mut st.state,
            clock,
            backend,
            policy,
            estimator,
            &mut |app, d, body_action, mb| {
                let i = d.action.index();
                q[i] = d.quality;
                let cached = slots[i].get().filter(|slot| {
                    plan.taint_preds[i].iter().all(|&pr| valid[pr])
                        && app.kernel_class(body_action, mb, d.quality) == slot.class
                });
                if let Some(slot) = cached {
                    valid[i] = true;
                    *hits += 1;
                    app.apply(body_action, mb);
                    slot.work
                } else {
                    // Re-execute, then re-validate: if the rerun
                    // reproduced exactly the state the speculative phase
                    // left (a smaller search radius finding the same
                    // motion vector, say), every phase-1 reader of this
                    // instance saw correct inputs and the mis-speculation
                    // cascade stops here.
                    *misses += 1;
                    let before = app.snapshot(mb);
                    let work = run_in_place(app, body_action, mb, d.quality);
                    valid[i] = app.snapshot(mb) == before;
                    work
                }
            },
        )
    }

    /// Closes a stepped run: fills never-encoded frames as skips, stores
    /// the speculation seed and diagnostics back on the runner, and
    /// returns the stream's result.
    pub fn finish_parallel(&mut self, st: ParallelStream, policy_name: &str) -> StreamResult {
        self.close(st.state, Some(st.spec), policy_name, false)
    }

    /// Closes a stepped run that is being *detached* mid-stream: the
    /// result covers only the frames delivered while the stream was
    /// attached (encoded or genuinely skipped), instead of marking the
    /// entire undelivered tail as skips the way [`Runner::finish_parallel`]
    /// would. A pending (prepared but uncommitted) frame is discarded,
    /// and so are the overflow skips its prepare recorded: the result is
    /// the one a detach just before that prepare would have produced.
    pub fn finish_parallel_truncated(
        &mut self,
        st: ParallelStream,
        policy_name: &str,
    ) -> StreamResult {
        self.close(st.state, Some(st.spec), policy_name, true)
    }
}
