//! The application abstraction driven by the runner, and the timing-only
//! reference application.

use fgqos_core::CycleReport;
use fgqos_graph::{ActionId, GraphBuilder, PrecedenceGraph};
use fgqos_time::fig5;
use fgqos_time::{Cycles, Quality, QualityProfile};

use crate::output::EncodedFrame;
use crate::scenario::{LoadScenario, PsnrModel};
use crate::SimError;

/// A cyclic video application: one cycle encodes one frame as `N`
/// iterations (macroblocks) of a body precedence graph, each action
/// instance split into a pure [`VideoApp::kernel`] and its sequential
/// [`VideoApp::apply`].
///
/// Implementations: [`TableApp`] (timing-only, this crate) and the
/// pixel-level encoder in `fgqos-encoder`.
///
/// # Contract
///
/// Every runner executes an action instance as `kernel` then `apply`:
/// [`crate::runner::Runner::run_on`] back to back at commit,
/// [`crate::runner::Runner::run_parallel_on`] and the stepped API with
/// the kernel run ahead on a worker thread (phase 1) and `apply` at
/// commit — or both at commit when the speculated result is unusable.
/// Both paths perform the same state transitions, which is what makes
/// solo, parallel and served runs byte-identical.
///
/// [`VideoApp::kernel`] takes `&self` and may be called from several
/// worker threads at once; per-macroblock working state must live behind
/// interior locks keyed by `mb` (see `fgqos-encoder`'s `EncoderApp`). A
/// kernel may read only
///
/// * shared state that is constant for the duration of the frame (the
///   source image, the previous reference frame, the frame QP),
/// * its own macroblock's working state, and
/// * working state written by instances it declared in
///   [`VideoApp::data_preds`] (or by same-iteration predecessors in the
///   body graph).
///
/// Two structural rules keep the commit phase sound:
///
/// * **exact read sets** — [`VideoApp::data_preds`] must cover every
///   working-state read that is not a *direct* body-graph edge. Relying
///   on transitive graph coverage is incorrect: output re-validation can
///   confirm an intermediary while an input that bypasses it changed;
/// * **single writer per field** — within one iteration, each
///   working-state field may be written by exactly one action. Otherwise
///   a re-executed early action could clobber the speculated output of a
///   later action that commits from cache without rewriting its fields.
///
/// # Example: one contract, both drivers
///
/// A one-action app whose kernel's work grows with the quality level
/// (so its [`VideoApp::kernel_class`] is the level), run through the
/// in-place driver and the parallel driver at 2 workers:
///
/// ```
/// use fgqos_core::policy::MaxQuality;
/// use fgqos_core::CycleReport;
/// use fgqos_graph::{ActionId, GraphBuilder, PrecedenceGraph};
/// use fgqos_sim::app::VideoApp;
/// use fgqos_sim::exec::WorkDriven;
/// use fgqos_sim::runner::{Mode, RunConfig, Runner};
/// use fgqos_sim::runtime::{ModelBackend, VirtualClock};
/// use fgqos_sim::scenario::LoadScenario;
/// use fgqos_time::{Cycles, Quality, QualityProfile, QualitySet};
///
/// struct Toy {
///     body: PrecedenceGraph,
///     profile: QualityProfile,
///     scenario: LoadScenario,
/// }
///
/// impl VideoApp for Toy {
///     type Snapshot = ();
///     fn body(&self) -> &PrecedenceGraph {
///         &self.body
///     }
///     fn iterations(&self) -> usize {
///         4
///     }
///     fn profile(&self) -> &QualityProfile {
///         &self.profile
///     }
///     fn scenario(&self) -> &LoadScenario {
///         &self.scenario
///     }
///     fn begin_frame(&mut self, _frame: usize) {}
///     fn snapshot(&self, _mb: usize) {}
///     fn kernel_class(&self, _action: ActionId, _mb: usize, q: Quality) -> u64 {
///         u64::from(q.level())
///     }
///     fn kernel(&self, _action: ActionId, _mb: usize, q: Quality) -> Option<u64> {
///         Some(80 * u64::from(q.level() + 1))
///     }
///     fn apply(&mut self, _action: ActionId, _mb: usize) {}
///     fn encoded_psnr(&mut self, _frame: usize, quality_index: f64, _: &CycleReport) -> f64 {
///         30.0 + quality_index
///     }
///     fn skipped_psnr(&mut self, _frame: usize) -> f64 {
///         20.0
///     }
/// }
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let toy = || -> Result<Toy, Box<dyn std::error::Error>> {
///     let mut body = GraphBuilder::new();
///     body.action("Work");
///     let mut profile = QualityProfile::builder(QualitySet::contiguous(0, 2)?, 1);
///     profile.set_levels(0, &[(100, 150), (200, 300), (300, 450)])?;
///     Ok(Toy {
///         body: body.build()?,
///         profile: profile.build()?,
///         scenario: LoadScenario::paper_benchmark(1).truncated(6),
///     })
/// };
/// let config = RunConfig::paper_defaults().with_period(Cycles::new(700));
/// let mut solo = Runner::new(toy()?, config)?;
/// let mut parallel = Runner::new(toy()?, config)?;
/// let a = solo.run_on(
///     &mut VirtualClock::new(),
///     &mut ModelBackend::new(WorkDriven::new(0, 1.0, 7)),
///     Mode::Controlled,
///     &mut MaxQuality::new(),
///     None,
/// )?;
/// let b = parallel.run_parallel_on(
///     &mut VirtualClock::new(),
///     &mut ModelBackend::new(WorkDriven::new(0, 1.0, 7)),
///     Mode::Controlled,
///     &mut MaxQuality::new(),
///     None,
///     2,
/// )?;
/// assert_eq!(a.frames(), b.frames());
/// assert_eq!((a.skips(), a.misses()), (0, 0));
/// # Ok(())
/// # }
/// ```
pub trait VideoApp: Sync {
    /// A comparable copy of one macroblock's working state, taken with
    /// [`VideoApp::snapshot`]. The runner uses it to *re-validate*
    /// mis-speculated work: if re-executing an action reproduces exactly
    /// the state the speculative phase left behind, every downstream
    /// kernel read correct inputs and its cached result stays usable —
    /// without this, one mis-speculated motion search would taint its
    /// entire dependency cone and serialize the rest of the frame.
    type Snapshot: PartialEq;

    /// Whether [`VideoApp::kernel`] does work worth running ahead of the
    /// commit. A static property of the app, `true` unless its kernels
    /// are no-ops. A serving session fixes its lookahead depth from it
    /// when it is opened: depth 1 (prepare the next due streams' frames
    /// and run their phase 1 on the pool while other streams commit)
    /// for an app with kernels on the session's own virtual clocks,
    /// depth 0 (one tick at a time) otherwise.
    const HAS_KERNELS: bool = true;

    /// The per-macroblock body graph (the paper's Fig. 2).
    fn body(&self) -> &PrecedenceGraph;

    /// Macroblocks per frame `N`.
    fn iterations(&self) -> usize;

    /// The *declared* quality-indexed execution-time profile of the body
    /// actions — what the controller's tables are built from.
    fn profile(&self) -> &QualityProfile;

    /// The profile describing the application's *actual* timing
    /// behaviour, fed to execution-time models. Defaults to the declared
    /// profile; override it to study miscalibrated declarations (the
    /// online-estimation ablation).
    fn generative_profile(&self) -> &QualityProfile {
        self.profile()
    }

    /// The camera stream this app encodes: its length, and per frame the
    /// activity factor (load multiplier for exec models), the scene-cut
    /// flag, and the recorded channel budget that
    /// [`crate::budget::BudgetSpec::Trace`] runs replay.
    fn scenario(&self) -> &LoadScenario;

    /// Called when the encoder starts frame `f`.
    fn begin_frame(&mut self, frame: usize);

    /// Copies macroblock `mb`'s working state for equality comparison
    /// around a re-execution.
    fn snapshot(&self, mb: usize) -> Self::Snapshot;

    /// Direct *data* predecessors of the kernel for `(action, mb)` that
    /// are not same-iteration body-graph edges: pairs of (producer body
    /// action, producer iteration). Producer iterations must not exceed
    /// `mb`, and same-iteration entries must precede `action` in the
    /// body's EDF order.
    fn data_preds(&self, action: ActionId, mb: usize) -> Vec<(ActionId, usize)> {
        let _ = (action, mb);
        Vec::new()
    }

    /// Fingerprint of the kernel's quality sensitivity: two qualities
    /// with equal fingerprints must make `kernel(action, mb, ·)` produce
    /// identical outputs (state writes and work units). Quality-blind
    /// kernels return a constant — their speculation never misses.
    fn kernel_class(&self, action: ActionId, mb: usize, q: Quality) -> u64 {
        let _ = (action, mb, q);
        0
    }

    /// The pure computation of `action` for macroblock `mb` at quality
    /// `q`; returns work units for work-driven timing (`None` when the
    /// app does not measure work).
    fn kernel(&self, action: ActionId, mb: usize, q: Quality) -> Option<u64>;

    /// Applies the sequential side effects of a completed kernel (bit
    /// accounting, reconstruction writes, ...). Called in static schedule
    /// order with `&mut self`.
    fn apply(&mut self, action: ActionId, mb: usize);

    /// PSNR (dB) of the encoded frame `f` against its source.
    ///
    /// `quality_index` is the mean level of the frame's
    /// *quality-sensitive* actions (fractional; the controller varies the
    /// level inside a frame) — what analytic PSNR models should key on.
    /// `report` carries the full per-action trace for apps that need
    /// more. Called exactly once per encoded frame, in stream order.
    fn encoded_psnr(&mut self, frame: usize, quality_index: f64, report: &CycleReport) -> f64;

    /// PSNR (dB) of displaying the previous output in place of skipped
    /// frame `f`.
    fn skipped_psnr(&mut self, frame: usize) -> f64;

    /// Takes the most recently committed frame's encoded payload for
    /// zero-copy distribution, or `None` when the app produces no
    /// bitstream (timing-only table apps) or the frame was already
    /// taken.
    ///
    /// Called by the serving layer after each frame commit, *only* when
    /// someone subscribed to the stream's output — apps without
    /// consumers pay nothing. `timestamp` is the frame's completion
    /// time on the caller's clock and `mean_quality` the mean committed
    /// quality; the app supplies the content (index, keyframe flag,
    /// payload) from its own state. Implementations must *move* their
    /// finished buffers into the returned [`EncodedFrame`] (and return
    /// `None` on a second call for the same frame) so publishing stays
    /// copy-free.
    fn encoded_output(&mut self, timestamp: Cycles, mean_quality: f64) -> Option<EncodedFrame> {
        let _ = (timestamp, mean_quality);
        None
    }
}

/// Builds the paper's Fig. 2 macroblock pipeline as a precedence graph.
///
/// Edges: `Grab → Motion_Estimate → DCT → Quantize`, then the decoder
/// loop `Quantize → Inverse_Quantize → IDCT → Reconstruct`, the output
/// path `Quantize → Compress`, and `Intra_Predict` between `Grab` and
/// `DCT` (intra decision must precede the transform).
///
/// # Example
///
/// ```
/// let g = fgqos_sim::app::fig2_body();
/// assert_eq!(g.len(), 9);
/// assert!(g.find("Motion_Estimate").is_some());
/// ```
#[must_use]
pub fn fig2_body() -> PrecedenceGraph {
    let mut b = GraphBuilder::new();
    let grab = b.action(fig5::names::GRAB);
    let me = b.action(fig5::names::MOTION_ESTIMATE);
    let dct = b.action(fig5::names::DCT);
    let quant = b.action(fig5::names::QUANTIZE);
    let intra = b.action(fig5::names::INTRA_PREDICT);
    let compress = b.action(fig5::names::COMPRESS);
    let invq = b.action(fig5::names::INVERSE_QUANTIZE);
    let idct = b.action(fig5::names::IDCT);
    let recon = b.action(fig5::names::RECONSTRUCT);
    b.chain(&[grab, me, dct, quant]).expect("valid chain");
    b.edge(grab, intra).expect("valid edge");
    b.edge(intra, dct).expect("valid edge");
    b.edge(quant, compress).expect("valid edge");
    b.chain(&[quant, invq, idct, recon]).expect("valid chain");
    b.build().expect("fig2 pipeline is acyclic")
}

/// The Fig. 5 profile for the [`fig2_body`] graph, in its action order.
///
/// # Example
///
/// ```
/// let p = fgqos_sim::app::fig2_profile();
/// assert_eq!(p.n_actions(), 9);
/// ```
#[must_use]
pub fn fig2_profile() -> QualityProfile {
    let g = fig2_body();
    let names: Vec<&str> = g
        .ids()
        .map(|a| {
            // Names are 'static in fig5; map back through the graph's storage.
            match g.name(a) {
                n if n == fig5::names::GRAB => fig5::names::GRAB,
                n if n == fig5::names::MOTION_ESTIMATE => fig5::names::MOTION_ESTIMATE,
                n if n == fig5::names::DCT => fig5::names::DCT,
                n if n == fig5::names::QUANTIZE => fig5::names::QUANTIZE,
                n if n == fig5::names::INTRA_PREDICT => fig5::names::INTRA_PREDICT,
                n if n == fig5::names::COMPRESS => fig5::names::COMPRESS,
                n if n == fig5::names::INVERSE_QUANTIZE => fig5::names::INVERSE_QUANTIZE,
                n if n == fig5::names::IDCT => fig5::names::IDCT,
                _ => fig5::names::RECONSTRUCT,
            }
        })
        .collect();
    fig5::body_profile(&names).expect("fig5 covers the fig2 pipeline")
}

/// Timing-only application: the Fig. 2 pipeline shape with the Fig. 5
/// profile, PSNR from the analytic model. Its kernels perform no real
/// work (execution times come entirely from the [`crate::exec`] models):
/// they are quality-blind no-ops, so speculation never misses and every
/// fig6/fig8 table run is also exercisable through
/// [`crate::runner::Runner::run_parallel_on`].
#[derive(Debug, Clone)]
pub struct TableApp {
    body: PrecedenceGraph,
    profile: QualityProfile,
    declared_override: Option<QualityProfile>,
    scenario: LoadScenario,
    psnr: PsnrModel,
    macroblocks: usize,
}

impl TableApp {
    /// Builds the app at the paper's scale (1584 macroblocks per frame).
    ///
    /// # Errors
    ///
    /// Propagates profile construction errors (none for the built-in
    /// tables).
    pub fn paper_scale(scenario: LoadScenario) -> Result<Self, SimError> {
        Self::with_macroblocks(scenario, fig5::MACROBLOCKS_PER_FRAME)
    }

    /// Builds the app with a custom macroblock count (small values keep
    /// debug-mode tests fast).
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] if `macroblocks == 0`.
    pub fn with_macroblocks(scenario: LoadScenario, macroblocks: usize) -> Result<Self, SimError> {
        if macroblocks == 0 {
            return Err(SimError::InvalidConfig("macroblocks must be positive"));
        }
        let body = fig2_body();
        let profile = fig2_profile();
        let psnr = PsnrModel::paper_like(profile.qualities(), 0xF165);
        Ok(TableApp {
            body,
            profile,
            declared_override: None,
            scenario,
            psnr,
            macroblocks,
        })
    }

    /// Replaces the *declared* profile (what the controller believes)
    /// while keeping the Fig. 5 tables as the actual timing behaviour —
    /// the setup for the online-estimation ablation.
    #[must_use]
    pub fn with_profile_override(mut self, declared: QualityProfile) -> Self {
        self.declared_override = Some(declared);
        self
    }
}

impl VideoApp for TableApp {
    type Snapshot = ();

    /// Table kernels do nothing: a frame's whole DAG costs less than
    /// handing it to another thread.
    const HAS_KERNELS: bool = false;

    fn body(&self) -> &PrecedenceGraph {
        &self.body
    }

    fn iterations(&self) -> usize {
        self.macroblocks
    }

    fn profile(&self) -> &QualityProfile {
        self.declared_override.as_ref().unwrap_or(&self.profile)
    }

    fn generative_profile(&self) -> &QualityProfile {
        &self.profile
    }

    fn scenario(&self) -> &LoadScenario {
        &self.scenario
    }

    fn begin_frame(&mut self, _frame: usize) {}

    fn snapshot(&self, _mb: usize) {}

    fn kernel(&self, _action: ActionId, _mb: usize, _q: Quality) -> Option<u64> {
        None
    }

    fn apply(&mut self, _action: ActionId, _mb: usize) {}

    fn encoded_psnr(&mut self, frame: usize, quality_index: f64, _report: &CycleReport) -> f64 {
        let info = self.scenario.frame(frame);
        self.psnr.encoded_psnr(&info, quality_index)
    }

    fn skipped_psnr(&mut self, frame: usize) -> f64 {
        let info = self.scenario.frame(frame);
        self.psnr.skipped_psnr(&info)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_body_matches_paper_pipeline() {
        let g = fig2_body();
        assert_eq!(g.len(), 9);
        let grab = g.find(fig5::names::GRAB).unwrap();
        let me = g.find(fig5::names::MOTION_ESTIMATE).unwrap();
        let recon = g.find(fig5::names::RECONSTRUCT).unwrap();
        let compress = g.find(fig5::names::COMPRESS).unwrap();
        assert!(g.precedes(grab, recon));
        assert!(g.precedes(me, compress));
        // Grab is the unique source; Compress/Reconstruct are sinks.
        assert_eq!(g.sources(), vec![grab]);
        let sinks = g.sinks();
        assert!(sinks.contains(&compress) && sinks.contains(&recon));
    }

    #[test]
    fn fig2_profile_aligns_with_graph_ids() {
        let g = fig2_body();
        let p = fig2_profile();
        let me = g.find(fig5::names::MOTION_ESTIMATE).unwrap();
        assert_eq!(p.avg(me, 3), fgqos_time::Cycles::new(95_000));
        let grab = g.find(fig5::names::GRAB).unwrap();
        assert_eq!(p.worst(grab, 7), fgqos_time::Cycles::new(24_000));
    }

    #[test]
    fn table_app_reports_shape_and_psnr() {
        let scenario = LoadScenario::paper_benchmark(1).truncated(20);
        let mut app = TableApp::with_macroblocks(scenario, 12).unwrap();
        assert_eq!(app.iterations(), 12);
        assert_eq!(app.body().len(), 9);
        assert_eq!(app.scenario().frames(), 20);
        assert!(app.scenario().frame(0).is_iframe);
        assert!(app.scenario().frame(3).activity > 0.0);
        assert!(app
            .kernel(ActionId::from_index(0), 0, Quality::new(1))
            .is_none());
        let report = CycleReport::from_records(vec![], 0);
        let db = app.encoded_psnr(5, 3.0, &report);
        assert!((20.0..50.0).contains(&db));
        assert!(app.skipped_psnr(5) < db);
    }

    #[test]
    fn zero_macroblocks_rejected() {
        let scenario = LoadScenario::paper_benchmark(1).truncated(5);
        assert!(matches!(
            TableApp::with_macroblocks(scenario, 0),
            Err(SimError::InvalidConfig(_))
        ));
    }
}
