//! End-to-end stream runs: camera → buffers → (controlled | constant)
//! encoder, producing the per-frame series behind Figs. 6–9.
//!
//! The runner owns only the *policy loop*: how frames flow through the
//! Fig. 3 pipeline and how the controller interleaves with the
//! application. Where time comes from and what actions cost is delegated
//! to the [`crate::runtime`] layer — [`Runner::run_on`] accepts any
//! [`Clock`] + [`ExecBackend`] pair, and [`Runner::run`],
//! [`Runner::run_controlled`] and [`Runner::run_constant`] are its
//! deterministic virtual-clock forms.
//!
//! Every run, solo, parallel or served, steps its frames through one
//! lifecycle (prepare → commit → close, see [`stepper`]), and every
//! action runs as the app's kernel then its apply (the [`VideoApp`]
//! contract). [`Runner::run_parallel_on`] runs each frame's macroblock
//! wavefront of kernels on a [`WorkStealingPool`] between prepare and
//! commit while reproducing the sequential timeline and quality
//! decisions byte-for-byte (see [`crate::runtime::parallel`]).

pub mod stepper;

use std::collections::HashMap;
use std::sync::{Arc, LazyLock};

use fgqos_core::estimator::AvgEstimator;
use fgqos_core::policy::{ConstantQuality, QualityPolicy};
use fgqos_core::{safety, ControllerMetrics};
use fgqos_graph::iterate::{IteratedGraph, IterationMode};
use fgqos_graph::ActionId;
use fgqos_sched::{
    budget_deadlines, BestSched, BudgetTables, ConstraintTables, EdfScheduler, SharedTables,
};
use fgqos_telemetry::{Counter, Gauge, Histogram, Telemetry};
use fgqos_time::{fig5, Cycles, DeadlineMap, Quality, QualityProfile, QualitySet};

use crate::app::VideoApp;
use crate::budget::BudgetSpec;
use crate::exec::{ExecTimeModel, StochasticLoad};
use crate::intern::Interner;
use crate::pipeline::InputPipeline;
use crate::runtime::parallel::FramePlan;
use crate::runtime::{Clock, ExecBackend, ModelBackend, VirtualClock, WorkStealingPool};
use crate::SimError;

pub use stepper::{ParallelStream, Phase1View};

// The deadline decomposition lives next to the budget-parametric tables
// it parameterizes; re-exported because `RunConfig` names it.
pub use fgqos_sched::DeadlineShape;

/// Stream-level configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunConfig {
    /// Camera/display period `P` in cycles.
    pub period: Cycles,
    /// Input buffer capacity `K`.
    pub input_capacity: usize,
    /// Deadline decomposition.
    pub deadline_shape: DeadlineShape,
    /// How macroblock iterations are ordered in the unrolled cycle graph.
    ///
    /// The *timeline and quality decisions are identical* under both
    /// modes — the controller follows the same static EDF order either
    /// way — but the mode bounds what [`Runner::run_parallel_on`] may
    /// overlap: [`IterationMode::Sequential`] confines parallelism to one
    /// macroblock, [`IterationMode::Pipelined`] frees distinct macroblock
    /// rows between data-dependency sync points.
    pub iteration_mode: IterationMode,
    /// Where each frame's time budget comes from (see
    /// [`crate::budget`]). The default, [`BudgetSpec::Constant`], is the
    /// paper's setting: budgets are the pipeline's buffer deadlines
    /// alone. `Trace`/`Channel` tighten them per frame with a recorded or
    /// simulated bandwidth signal; the effective budget is always the
    /// minimum of the two, so a source can never loosen a deadline.
    pub budget: BudgetSpec,
}

impl RunConfig {
    /// The paper's platform: `P` = 320 Mcycle, `K` = 1, per-iteration
    /// deadlines, sequential macroblock order.
    #[must_use]
    pub fn paper_defaults() -> Self {
        RunConfig {
            period: Cycles::new(fig5::PERIOD_CYCLES),
            input_capacity: 1,
            deadline_shape: DeadlineShape::PerIteration,
            iteration_mode: IterationMode::Sequential,
            budget: BudgetSpec::Constant,
        }
    }

    /// Replaces the buffer capacity `K`.
    #[must_use]
    pub fn with_capacity(mut self, k: usize) -> Self {
        self.input_capacity = k;
        self
    }

    /// Replaces the period `P`.
    #[must_use]
    pub fn with_period(mut self, p: Cycles) -> Self {
        self.period = p;
        self
    }

    /// Replaces the deadline shape.
    #[must_use]
    pub fn with_deadline_shape(mut self, shape: DeadlineShape) -> Self {
        self.deadline_shape = shape;
        self
    }

    /// Replaces the iteration mode (see [`RunConfig::iteration_mode`]).
    #[must_use]
    pub fn with_iteration_mode(mut self, mode: IterationMode) -> Self {
        self.iteration_mode = mode;
        self
    }

    /// Replaces the budget source (see [`RunConfig::budget`]).
    #[must_use]
    pub fn with_budget_source(mut self, budget: BudgetSpec) -> Self {
        self.budget = budget;
        self
    }

    /// Rescales the period so a frame of `n` macroblocks sees the same
    /// per-macroblock pressure as the paper's 1584-macroblock frames
    /// (`P' = P · n / 1584`). Use for fast, shape-preserving test runs.
    #[must_use]
    pub fn scaled_to_macroblocks(mut self, n: usize) -> Self {
        let scaled = (u128::from(self.period.get()) * n as u128
            / fig5::MACROBLOCKS_PER_FRAME as u128)
            .max(1);
        self.period = Cycles::new(u64::try_from(scaled).expect("scaled period fits"));
        self
    }
}

/// Outcome of one camera frame.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameRecord {
    /// Camera frame index.
    pub frame: usize,
    /// Whether the frame was dropped at the input buffer.
    pub skipped: bool,
    /// Whether the frame starts a scene (I-frame).
    pub is_iframe: bool,
    /// Absolute time encoding started (unset for skipped frames).
    pub start: Cycles,
    /// Cycles spent encoding (zero for skipped frames).
    pub encode_cycles: Cycles,
    /// Time budget the frame had (`+∞` at the unconstrained stream tail).
    pub budget: Cycles,
    /// Queueing latency between camera arrival and encode start.
    pub latency: Cycles,
    /// Mean quality level the frame was encoded at.
    pub mean_quality: f64,
    /// Deadline misses inside the frame (0 for controlled runs).
    pub misses: usize,
    /// Quality-manager fallbacks inside the frame (0 under preconditions).
    pub fallbacks: usize,
    /// Quality switches inside the frame (smoothness metric).
    pub quality_switches: usize,
    /// PSNR of the displayed frame against the source (dB).
    pub psnr_db: f64,
}

/// Result of a whole stream run.
#[derive(Debug, Clone)]
pub struct StreamResult {
    label: String,
    period: Cycles,
    frames: Vec<FrameRecord>,
}

impl StreamResult {
    /// Label describing the run (policy, K, ...).
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Camera period the run used.
    #[must_use]
    pub fn period(&self) -> Cycles {
        self.period
    }

    /// Per-frame records, indexed by camera frame.
    #[must_use]
    pub fn frames(&self) -> &[FrameRecord] {
        &self.frames
    }

    /// Number of skipped frames.
    #[must_use]
    pub fn skips(&self) -> usize {
        self.frames.iter().filter(|f| f.skipped).count()
    }

    /// Total deadline misses across encoded frames.
    #[must_use]
    pub fn misses(&self) -> usize {
        self.frames.iter().map(|f| f.misses).sum()
    }

    /// Total quality-manager fallbacks.
    #[must_use]
    pub fn fallbacks(&self) -> usize {
        self.frames.iter().map(|f| f.fallbacks).sum()
    }

    /// Mean PSNR over all frames (skipped frames count with their repeat
    /// PSNR, as the paper's figures do).
    #[must_use]
    pub fn mean_psnr(&self) -> f64 {
        if self.frames.is_empty() {
            return 0.0;
        }
        self.frames.iter().map(|f| f.psnr_db).sum::<f64>() / self.frames.len() as f64
    }

    /// Mean encoding time of *encoded* frames, in Mcycle.
    #[must_use]
    pub fn mean_encode_mcycles(&self) -> f64 {
        let encoded: Vec<&FrameRecord> = self.frames.iter().filter(|f| !f.skipped).collect();
        if encoded.is_empty() {
            return 0.0;
        }
        encoded
            .iter()
            .map(|f| f.encode_cycles.get() as f64 / 1e6)
            .sum::<f64>()
            / encoded.len() as f64
    }

    /// Mean quality of encoded frames.
    #[must_use]
    pub fn mean_quality(&self) -> f64 {
        let encoded: Vec<&FrameRecord> = self.frames.iter().filter(|f| !f.skipped).collect();
        if encoded.is_empty() {
            return 0.0;
        }
        encoded.iter().map(|f| f.mean_quality).sum::<f64>() / encoded.len() as f64
    }

    /// `(frame, encoding Mcycle)` series; skipped frames yield `None`
    /// (they have no encoding time — the paper's plots show them as the
    /// gaps/bursts).
    #[must_use]
    pub fn encode_series(&self) -> Vec<(usize, Option<f64>)> {
        self.frames
            .iter()
            .map(|f| {
                (
                    f.frame,
                    (!f.skipped).then(|| f.encode_cycles.get() as f64 / 1e6),
                )
            })
            .collect()
    }

    /// `(frame, PSNR dB)` series including skipped frames.
    #[must_use]
    pub fn psnr_series(&self) -> Vec<(usize, f64)> {
        self.frames.iter().map(|f| (f.frame, f.psnr_db)).collect()
    }

    /// One-line human summary.
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "{}: {} frames, {} skips, {} misses, mean {:.1} Mcy/frame, mean PSNR {:.2} dB, mean q {:.2}",
            self.label,
            self.frames.len(),
            self.skips(),
            self.misses(),
            self.mean_encode_mcycles(),
            self.mean_psnr(),
            self.mean_quality(),
        )
    }
}

/// Drives a [`VideoApp`] through the pipeline under a given encoder mode.
///
/// Construction unrolls the body graph once (`N` macroblocks), computes
/// the static EDF body order once and replays it per frame — the
/// "compositional generation of EDF schedules for iterative programs"
/// optimization of Section 4.
pub struct Runner<A: VideoApp> {
    app: A,
    config: RunConfig,
    /// Unrolled cycle graph (built once).
    iter: IteratedGraph,
    /// Static schedule of the unrolled graph (EDF body order replayed).
    order: Vec<ActionId>,
    /// `order_pos[instance] = position of that instance in `order``.
    order_pos: Vec<usize>,
    /// The body profile an online estimator last moved, or `None` while
    /// the app's declared profile stands. Table builds tile it on demand
    /// ([`Runner::tiled_profile`]); the parametric set refreshes from it
    /// directly ([`BudgetTables::refresh_body`]), so no runner keeps a
    /// tiled copy between builds.
    refreshed_body: Option<QualityProfile>,
    /// Monitor accumulating safety statistics across the run.
    monitor: safety::SafetyMonitor,
    /// Budget-parametric tables shared by *every* frame of the run: the
    /// envelopes depend only on (order, tiled profile, deadline shape),
    /// so one build serves any frame budget — stochastic pop times
    /// included. Built on first use, then swapped for the process-wide
    /// copy of equal content ([`ENVELOPES`]), so every live runner of
    /// one shape reads one set. When an online estimator rewrites `Cav`,
    /// the envelopes are *refreshed* ([`BudgetTables::refresh_body`],
    /// O(hull size)) instead of rebuilt, on a private copy (see
    /// [`Runner::prepare_frame`]).
    budget_tables: Option<Arc<BudgetTables>>,
    /// Materialized constraint tables of recurring budgets, keyed by the
    /// frame budget they were built for (see [`Runner::tables_for`]).
    /// Each entry is the process-wide copy of its content
    /// ([`PROMOTED`]), shared with every runner that promoted an equal
    /// table. Bounded, LRU-evicted, cleared when an estimator refresh
    /// makes the baked-in profile stale.
    tables_cache: HashMap<Cycles, Arc<ConstraintTables>>,
    /// Recency order of `tables_cache` keys, least recently used first
    /// (hits move a key to the back, so a burst of unique budgets evicts
    /// the stale entries while the hot recurring ones survive).
    tables_cache_order: std::collections::VecDeque<Cycles>,
    /// Finite budgets recently served by the parametric view (bounded
    /// ring). A budget seen here *again* is evidently recurring (paced
    /// stream, constant load), so it is promoted to a materialized
    /// table: O(1) array reads per query beat envelope evaluations once
    /// a budget repeats, while one-shot stochastic budgets never pay a
    /// build.
    recent_budgets: std::collections::VecDeque<Cycles>,
    /// Diagnostics: how many times the budget-parametric envelopes were
    /// built (O(1) per run expected — exactly 1 without an estimator).
    envelope_builds: u64,
    /// Diagnostics: how many full `ConstraintTables::new` builds ran.
    full_table_builds: u64,
    /// Diagnostics: how many in-place [`BudgetTables::refresh_body`] passes
    /// ran (one per frame whose estimator update actually moved the
    /// profile; converged estimators stop paying anything).
    envelope_refreshes: u64,
    /// Kernel DAG for [`Runner::run_parallel_on`] and the stepped API,
    /// built on first use (static across frames), then swapped for the
    /// process-wide copy of equal content ([`PLANS`]): streams of one
    /// shape walk one plan.
    parallel_plan: Option<Arc<FramePlan>>,
    /// Speculation seed: the quality committed at each unrolled instance
    /// during the most recent parallel frame.
    last_spec: Option<Vec<Quality>>,
    /// Parallel speculation diagnostics: kernels consumed from cache.
    spec_hits: u64,
    /// Parallel speculation diagnostics: kernels re-executed at commit.
    spec_misses: u64,
    /// Telemetry handles mirroring the diagnostics fields above plus the
    /// controller's per-cycle metrics. Inert (all no-op handles) until
    /// [`Runner::set_telemetry`] attaches a live registry — the counters
    /// are *views* of the same events the `u64` fields count, never a
    /// replacement for them.
    metrics: RunnerMetrics,
    /// The registry behind `metrics` (inert until attached); handed to
    /// the pool [`Runner::run_parallel_on`] builds, so its runtime-class
    /// `pool.*` metrics land beside the runner's.
    telemetry: Telemetry,
}

/// Pre-registered scheduler/runner metric handles.
///
/// Metric names (all [`fgqos_telemetry::Stability::Stable`] — the
/// scheduler's table activity and the speculation outcome derive from
/// the deterministic decision series, not from host timing):
///
/// | name | kind | meaning |
/// |---|---|---|
/// | `sched.envelope_builds` | counter | budget-parametric envelope set builds |
/// | `sched.full_table_builds` | counter | full `ConstraintTables::new` builds |
/// | `sched.envelope_refreshes` | counter | in-place estimator refreshes |
/// | `sched.table_lookups` | counter | per-frame constraint-table resolutions |
/// | `sched.spec_hits` | counter | speculative kernels consumed at commit |
/// | `sched.spec_misses` | counter | speculative kernels re-executed |
/// | `budget.current_cycles` | gauge | sourced budget of the latest deadline-bounded frame |
/// | `budget.delta_cycles` | histogram | absolute budget move between consecutive finite budgets |
#[derive(Clone, Default)]
struct RunnerMetrics {
    envelope_builds: Counter,
    full_table_builds: Counter,
    envelope_refreshes: Counter,
    table_lookups: Counter,
    spec_hits: Counter,
    spec_misses: Counter,
    budget_current: Gauge,
    budget_delta: Histogram,
    controller: ControllerMetrics,
}

impl RunnerMetrics {
    fn new(telemetry: &Telemetry) -> Self {
        RunnerMetrics {
            envelope_builds: telemetry.counter("sched.envelope_builds"),
            full_table_builds: telemetry.counter("sched.full_table_builds"),
            envelope_refreshes: telemetry.counter("sched.envelope_refreshes"),
            table_lookups: telemetry.counter("sched.table_lookups"),
            spec_hits: telemetry.counter("sched.spec_hits"),
            spec_misses: telemetry.counter("sched.spec_misses"),
            budget_current: telemetry.gauge("budget.current_cycles"),
            budget_delta: telemetry.histogram("budget.delta_cycles"),
            controller: ControllerMetrics::new(telemetry),
        }
    }
}

/// Cap on distinct budgets cached at once. At the paper's scale one table
/// set is megabytes; the cap keeps worst-case memory flat when every
/// frame's budget is unique while still covering the common case (a
/// handful of recurring budgets per run).
const TABLES_CACHE_CAP: usize = 8;

/// Fingerprint of a table set: schedule length, quality count,
/// iterations and deadline shape. Cheap to read off a build; sharing is
/// decided by full equality (see [`crate::intern`]).
type TableShape = (usize, usize, usize, DeadlineShape);

/// Shared kernel plans, fingerprinted by (instances, iterations).
static PLANS: LazyLock<Interner<(usize, usize), FramePlan>> = LazyLock::new(Interner::default);

/// Shared budget-parametric envelope sets.
static ENVELOPES: LazyLock<Interner<TableShape, BudgetTables>> = LazyLock::new(Interner::default);

/// Shared promoted tables, fingerprinted by shape and frame budget.
static PROMOTED: LazyLock<Interner<(TableShape, Cycles), ConstraintTables>> =
    LazyLock::new(Interner::default);

impl<A: VideoApp> Runner<A> {
    /// Prepares a runner: unrolls the body, validates shapes, computes
    /// the static schedule.
    ///
    /// # Errors
    ///
    /// [`SimError::AppShapeMismatch`] if the app's profile does not cover
    /// its body; propagated configuration errors otherwise.
    pub fn new(app: A, config: RunConfig) -> Result<Self, SimError> {
        let body = app.body().clone();
        if app.profile().n_actions() != body.len() {
            return Err(SimError::AppShapeMismatch {
                expected: body.len(),
                actual: app.profile().n_actions(),
            });
        }
        if config.input_capacity == 0 {
            return Err(SimError::InvalidConfig("buffer capacity must be positive"));
        }
        if let BudgetSpec::Channel(p) = config.budget {
            if !p.is_valid() {
                return Err(SimError::InvalidConfig(
                    "channel budget params need 0 < floor <= cap and rtt > 0",
                ));
            }
        }
        let n = app.iterations();
        let iter = IteratedGraph::new(&body, n, config.iteration_mode)?;
        // EDF order of the body under equal deadlines = canonical topo
        // order; any deadline vector that is constant per iteration gives
        // the same order, so compute once with zeros.
        let body_deadlines = vec![Cycles::INFINITY; body.len()];
        let body_order = EdfScheduler.best_schedule(&body, &body_deadlines, &[])?;
        let order = iter.replay_body_schedule(&body_order)?;
        let mut order_pos = vec![0usize; order.len()];
        for (p, a) in order.iter().enumerate() {
            order_pos[a.index()] = p;
        }
        // IteratedGraph rejects zero iterations, and the deadline
        // decomposition (budget_deadlines) relies on that invariant for
        // its final-iteration indexing — assert it at the construction
        // boundary so a future refactor cannot silently drop the check.
        debug_assert!(iter.iterations() > 0, "IteratedGraph guarantees n > 0");
        Ok(Runner {
            app,
            config,
            iter,
            order,
            order_pos,
            refreshed_body: None,
            monitor: safety::SafetyMonitor::new(),
            budget_tables: None,
            tables_cache: HashMap::new(),
            tables_cache_order: std::collections::VecDeque::new(),
            recent_budgets: std::collections::VecDeque::new(),
            envelope_builds: 0,
            full_table_builds: 0,
            envelope_refreshes: 0,
            parallel_plan: None,
            last_spec: None,
            spec_hits: 0,
            spec_misses: 0,
            metrics: RunnerMetrics::default(),
            telemetry: Telemetry::disabled(),
        })
    }

    /// The application (for inspection after a run).
    #[must_use]
    pub fn app(&self) -> &A {
        &self.app
    }

    /// Mutable access to the application, for output hooks that *move*
    /// finished buffers out of it (see
    /// [`VideoApp::encoded_output`]).
    pub fn app_mut(&mut self) -> &mut A {
        &mut self.app
    }

    /// The safety monitor accumulated across all runs of this runner.
    #[must_use]
    pub fn monitor(&self) -> &safety::SafetyMonitor {
        &self.monitor
    }

    /// Speculation diagnostics of all [`Runner::run_parallel_on`] calls
    /// so far: `(kernels consumed from the speculative phase, kernels
    /// re-executed at commit)`. Both zero for purely sequential runs.
    #[must_use]
    pub fn speculation(&self) -> (u64, u64) {
        (self.spec_hits, self.spec_misses)
    }

    /// Number of recurring frame budgets whose materialized constraint
    /// tables are currently cached (diagnostics: zero when no budget
    /// repeats; a paced steady-state run needs only a handful).
    #[must_use]
    pub fn cached_tables(&self) -> usize {
        self.tables_cache.len()
    }

    /// Diagnostics: how many times the budget-parametric envelope set
    /// was built. Exactly 1 per estimator-free run — the acceptance
    /// signal that saturated controlled runs no longer build tables per
    /// frame.
    #[must_use]
    pub fn envelope_builds(&self) -> u64 {
        self.envelope_builds
    }

    /// Diagnostics: how many full `ConstraintTables::new` builds ran
    /// (recurring-budget promotions only).
    #[must_use]
    pub fn full_table_builds(&self) -> u64 {
        self.full_table_builds
    }

    /// Diagnostics: how many in-place envelope refreshes ran. An
    /// estimator-driven run does 1 envelope build plus one refresh per
    /// frame whose estimates actually moved the profile — and 0 full
    /// table builds.
    #[must_use]
    pub fn envelope_refreshes(&self) -> u64 {
        self.envelope_refreshes
    }

    /// Attaches a telemetry registry: scheduler counters (`sched.*`)
    /// and the controller metric set
    /// ([`fgqos_core::ControllerMetrics`]) record into it from now on,
    /// and so do the pool metrics (`pool.*`) of
    /// [`Runner::run_parallel_on`]. Observe-only — results are
    /// byte-identical with or without it. An inert
    /// [`Telemetry::disabled`] registry detaches instrumentation.
    pub fn set_telemetry(&mut self, telemetry: &Telemetry) {
        self.telemetry = telemetry.clone();
        self.metrics = if telemetry.is_enabled() {
            RunnerMetrics::new(telemetry)
        } else {
            RunnerMetrics::default()
        };
    }

    /// The shared constraint tables for one frame budget: the stream's
    /// budget-parametric [`BudgetTables`] evaluated at `frame_budget`
    /// (built once, any budget, zero per-frame allocation; refreshed in
    /// place under an online estimator).
    ///
    /// Recurring finite budgets (paced streams, constant load) are
    /// promoted to a materialized [`ConstraintTables`] on their second
    /// use: per-query array reads then beat envelope evaluations, while
    /// one-shot stochastic budgets never pay a build. Infinite budgets
    /// stay on the (trivially cheap) parametric view. Moving budget
    /// sources (trace/channel) never promote: a channel sitting on its
    /// floor repeats a budget by coincidence, and materializing it would
    /// forfeit the zero-rebuild guarantee the parametric tables exist
    /// for. Both forms answer every query identically
    /// (`crates/sched/tests/proptest_budget.rs`).
    ///
    /// Every build runs and is counted exactly as for a lone runner;
    /// only its result is then swapped for the shared copy of equal
    /// content, so the lock is taken once per build, never per frame.
    fn tables_for(
        &mut self,
        frame_budget: Cycles,
        qs: &QualitySet,
    ) -> Result<SharedTables, SimError> {
        self.metrics.table_lookups.incr();
        if self.budget_tables.is_none() {
            let built = BudgetTables::new(
                self.order.clone(),
                &self.tiled_profile(),
                self.config.deadline_shape,
                self.iter.iterations(),
            )?;
            self.envelope_builds += 1;
            self.metrics.envelope_builds.incr();
            self.budget_tables = Some(ENVELOPES.intern(self.table_shape(), built));
        }
        if frame_budget.is_finite() && !self.config.budget.is_moving() {
            if let Some(t) = self.tables_cache.get(&frame_budget).map(Arc::clone) {
                // Refresh recency: the recurring budget must outlive a
                // burst of unique ones.
                self.touch_cached(frame_budget);
                return Ok(SharedTables::Fixed(t));
            }
            if self.recent_budgets.contains(&frame_budget) {
                return Ok(SharedTables::Fixed(
                    self.materialize_tables(frame_budget, qs)?,
                ));
            }
            if self.recent_budgets.len() >= TABLES_CACHE_CAP {
                self.recent_budgets.pop_front();
            }
            self.recent_budgets.push_back(frame_budget);
        }
        let tables = Arc::clone(self.budget_tables.as_ref().expect("just built"));
        Ok(SharedTables::AtBudget(tables, frame_budget))
    }

    /// Records the sourced budget into the `budget.*` metrics: the
    /// current-budget gauge and, once a previous finite budget exists,
    /// the absolute frame-to-frame move. Infinite budgets (unconstrained
    /// stream tail) record nothing.
    fn observe_budget(&mut self, budget: Cycles, prev: &mut Option<Cycles>) {
        if !budget.is_finite() {
            return;
        }
        self.metrics.budget_current.set(budget.get());
        if let Some(p) = *prev {
            self.metrics
                .budget_delta
                .record(p.get().abs_diff(budget.get()));
        }
        *prev = Some(budget);
    }

    /// Moves `budget` to the most-recently-used end of the cache order.
    fn touch_cached(&mut self, budget: Cycles) {
        if let Some(pos) = self.tables_cache_order.iter().position(|&b| b == budget) {
            self.tables_cache_order.remove(pos);
            self.tables_cache_order.push_back(budget);
        }
    }

    /// Builds the materialized tables for one budget, swaps them for the
    /// shared copy of equal content and caches that (LRU, bounded by
    /// [`TABLES_CACHE_CAP`]).
    fn materialize_tables(
        &mut self,
        frame_budget: Cycles,
        qs: &QualitySet,
    ) -> Result<Arc<ConstraintTables>, SimError> {
        let deadlines = DeadlineMap::uniform(qs.clone(), self.deadline_vec(frame_budget));
        let built = ConstraintTables::new(self.order.clone(), &self.tiled_profile(), &deadlines)?;
        self.full_table_builds += 1;
        self.metrics.full_table_builds.incr();
        let tables = PROMOTED.intern((self.table_shape(), frame_budget), built);
        if self.tables_cache.len() >= TABLES_CACHE_CAP {
            if let Some(oldest) = self.tables_cache_order.pop_front() {
                self.tables_cache.remove(&oldest);
            }
        }
        self.tables_cache.insert(frame_budget, Arc::clone(&tables));
        self.tables_cache_order.push_back(frame_budget);
        Ok(tables)
    }

    /// The current body profile tiled to the unrolled graph, for one
    /// table build.
    fn tiled_profile(&self) -> QualityProfile {
        self.refreshed_body
            .as_ref()
            .unwrap_or_else(|| self.app.profile())
            .tile(self.iter.iterations())
    }

    /// The fingerprint this runner's table builds are interned under.
    fn table_shape(&self) -> TableShape {
        (
            self.order.len(),
            self.app.profile().qualities().len(),
            self.iter.iterations(),
            self.config.deadline_shape,
        )
    }

    /// Per-instance deadline vector for one frame of budget `budget` —
    /// the budget → deadline mapping shared with the parametric tables
    /// (`fgqos_sched::budget_deadlines`: u128-exact scaling, guarded for
    /// degenerate iteration counts).
    fn deadline_vec(&self, budget: Cycles) -> Vec<Cycles> {
        budget_deadlines(
            self.config.deadline_shape,
            self.iter.iterations(),
            self.iter.body_len(),
            budget,
        )
    }

    /// Runs the full stream with the paper's controlled encoder and the
    /// default stochastic load model.
    ///
    /// # Errors
    ///
    /// Propagates controller protocol errors (none occur in normal
    /// operation).
    pub fn run_controlled(
        &mut self,
        policy: &mut dyn QualityPolicy,
        seed: u64,
    ) -> Result<StreamResult, SimError> {
        let mut exec = StochasticLoad::new(seed);
        self.run(Mode::Controlled, policy, &mut exec, None)
    }

    /// Runs the full stream at a constant quality level (uncontrolled
    /// baseline) with the default stochastic load model.
    ///
    /// # Errors
    ///
    /// Propagates controller protocol errors.
    pub fn run_constant(&mut self, q: Quality, seed: u64) -> Result<StreamResult, SimError> {
        let mut exec = StochasticLoad::new(seed);
        let mut policy = ConstantQuality::new(q);
        self.run(Mode::Constant, &mut policy, &mut exec, None)
    }

    /// Fully general virtual-clock run: any mode, policy, execution-time
    /// model and optional online average estimator.
    ///
    /// Equivalent to [`Runner::run_on`] with a fresh
    /// [`VirtualClock`] and a [`ModelBackend`] over `exec` — the
    /// deterministic configuration every figure and test uses.
    ///
    /// # Errors
    ///
    /// Propagates controller protocol errors.
    pub fn run(
        &mut self,
        mode: Mode,
        policy: &mut dyn QualityPolicy,
        exec: &mut dyn ExecTimeModel,
        estimator: Option<&mut dyn AvgEstimator>,
    ) -> Result<StreamResult, SimError> {
        let mut clock = VirtualClock::new();
        let mut backend = ModelBackend::new(exec);
        self.run_on(&mut clock, &mut backend, mode, policy, estimator)
    }

    /// Runs the full stream on an explicit runtime: any [`Clock`] (virtual
    /// or wall) and any [`ExecBackend`] (modeled or measured costs).
    ///
    /// On a [`VirtualClock`] this reproduces [`Runner::run`]
    /// byte-for-byte; on a [`crate::runtime::WallClock`] the pipeline
    /// waits for real camera arrivals and deadline misses reflect the
    /// host's actual timing.
    ///
    /// Every action runs in place at commit: no kernel DAG, no
    /// speculation, so this is the reference the speculative commit of
    /// the stepped API is checked against (see [`stepper`]).
    ///
    /// # Errors
    ///
    /// Propagates controller protocol errors.
    pub fn run_on(
        &mut self,
        clock: &mut dyn Clock,
        backend: &mut dyn ExecBackend,
        mode: Mode,
        policy: &mut dyn QualityPolicy,
        mut estimator: Option<&mut dyn AvgEstimator>,
    ) -> Result<StreamResult, SimError> {
        let mut s = self.open(mode)?;
        while self.prepare(&mut s, clock, policy, &mut estimator)? {
            self.commit(
                &mut s,
                clock,
                backend,
                policy,
                &mut estimator,
                &mut |app, d, body_action, mb| run_in_place(app, body_action, mb, d.quality),
            )?;
        }
        Ok(self.close(s, None, policy.name(), false))
    }

    /// Controlled parallel run on the deterministic virtual runtime —
    /// [`Runner::run_controlled`] with `workers` threads executing each
    /// frame's macroblock wavefront. Produces byte-identical results at
    /// any worker count.
    ///
    /// # Errors
    ///
    /// Propagates controller protocol and plan-validation errors.
    pub fn run_parallel(
        &mut self,
        policy: &mut dyn QualityPolicy,
        seed: u64,
        workers: usize,
    ) -> Result<StreamResult, SimError> {
        let mut exec = StochasticLoad::new(seed);
        let mut clock = VirtualClock::new();
        let mut backend = ModelBackend::new(&mut exec);
        self.run_parallel_on(
            &mut clock,
            &mut backend,
            Mode::Controlled,
            policy,
            None,
            workers,
        )
    }

    /// Runs the full stream like [`Runner::run_on`], but executes each
    /// frame's action kernels on a [`WorkStealingPool`] of `workers`
    /// threads before replaying the controller loop sequentially.
    ///
    /// # Determinism contract
    ///
    /// On a [`VirtualClock`] with a [`ModelBackend`], the returned
    /// [`StreamResult`] — every per-frame record, the safety monitor, the
    /// quality decisions — is byte-identical to [`Runner::run_on`] for
    /// *any* worker count, including 1. Speculatively computed kernels
    /// are only consumed when their quality class matches the
    /// controller's actual decision and all their data inputs were valid;
    /// everything else is re-executed in schedule order (see
    /// [`crate::runtime::parallel`]). On a wall clock the speedup is
    /// real: the pixel math has already run concurrently, so the commit
    /// loop is a cheap replay.
    ///
    /// # Errors
    ///
    /// Propagates controller protocol errors, and
    /// [`SimError::InvalidConfig`] if the app declares inconsistent data
    /// dependencies.
    pub fn run_parallel_on(
        &mut self,
        clock: &mut dyn Clock,
        backend: &mut dyn ExecBackend,
        mode: Mode,
        policy: &mut dyn QualityPolicy,
        mut estimator: Option<&mut dyn AvgEstimator>,
        workers: usize,
    ) -> Result<StreamResult, SimError> {
        let mut pool = WorkStealingPool::new(workers);
        pool.set_telemetry(&self.telemetry);
        let mut st = self.start_parallel(mode)?;
        while self.next_parallel_frame(&mut st, clock, policy, &mut estimator)? {
            // Phase 1: speculative wavefront execution. Kernels run as
            // their data dependencies complete, at last frame's quality.
            let view = self.parallel_kernels(&st).expect("frame just prepared");
            pool.run_dag(view.indegree(), view.succs(), |i| view.run_kernel(i));
            // Phase 2: sequential commit in static EDF order.
            self.commit_parallel_frame(&mut st, clock, backend, policy, &mut estimator)?;
        }
        Ok(self.finish_parallel(st, policy.name()))
    }

    /// Advances the pipeline to the next encodable frame: admits arrivals
    /// (recording overflow skips), pops, and idles the clock to the next
    /// arrival when the buffer is empty. `None` when the stream is done.
    fn next_frame(
        &mut self,
        clock: &mut dyn Clock,
        pipe: &mut InputPipeline,
        records: &mut [Option<FrameRecord>],
        delivered: &mut usize,
    ) -> Option<(usize, Cycles, Cycles)> {
        loop {
            let now = clock.now();
            // Equal-timestamp ordering: arrivals strictly before `now`,
            // then the pop (an encoder finishing exactly at its budget
            // deadline frees the slot first), then boundary arrivals.
            // Overflow drops the arriving frame, the newest so far.
            for f in pipe.admit_before(now) {
                records[f] = Some(self.skipped_record(f));
                *delivered = f + 1;
            }
            let popped = pipe.pop();
            for f in pipe.admit_through(now) {
                records[f] = Some(self.skipped_record(f));
                *delivered = f + 1;
            }
            match popped {
                Some((frame, arrival)) => return Some((frame, arrival, now)),
                None => {
                    if pipe.waiting() > 0 {
                        continue; // a boundary arrival just landed: pop it now
                    }
                    match pipe.next_arrival_time() {
                        Some(t) => {
                            clock.sleep_until(t);
                            continue;
                        }
                        None => return None,
                    }
                }
            }
        }
    }

    /// Refreshes the declared profile from the online estimator and
    /// returns the constraint tables for this frame's budget.
    ///
    /// When the estimator actually moves the profile, the
    /// budget-parametric envelopes are *refreshed*
    /// ([`BudgetTables::refresh_body`]: slopes, classes and hull
    /// structure are schedule facts; only the `Cav` intercepts shift) —
    /// no per-frame `ConstraintTables` build, no envelope rebuild, and no
    /// tiled profile until a table build needs one. Materialized
    /// per-budget tables baked the old profile in, so those caches are
    /// dropped. A converged estimator (no profile change) invalidates
    /// nothing at all.
    fn prepare_frame(
        &mut self,
        estimator: &mut Option<&mut dyn AvgEstimator>,
        body_profile: &mut QualityProfile,
        qs: &QualitySet,
        frame_budget: Cycles,
    ) -> Result<SharedTables, SimError> {
        if let Some(est) = estimator.as_deref_mut() {
            if apply_estimates(est, body_profile) {
                if let Some(tables) = self.budget_tables.as_mut() {
                    // The first refresh detaches the set from the shared
                    // copy: while other runners hold it, `make_mut`
                    // clones it once; as its sole holder, `make_mut`
                    // moves the data out and orphans the interner's weak
                    // entry. Either way refreshed content is never handed
                    // to another runner. Later refreshes update the now
                    // private set in place.
                    Arc::make_mut(tables).refresh_body(body_profile)?;
                    self.envelope_refreshes += 1;
                    self.metrics.envelope_refreshes.incr();
                }
                self.refreshed_body = Some(body_profile.clone());
                self.tables_cache.clear();
                self.tables_cache_order.clear();
                self.recent_budgets.clear();
            }
        }
        self.tables_for(frame_budget, qs)
    }

    /// Mean level and switch count over the *quality-sensitive* actions
    /// of the report (the whole report when no action is sensitive).
    ///
    /// The controller legitimately reports the maximal level at
    /// quality-insensitive positions (their suffix constraint is the
    /// binding one); including those levels in quality metrics would
    /// inflate them, so figures and PSNR key on the sensitive actions —
    /// `Motion_Estimate` in the paper's encoder.
    fn sensitive_quality_stats(
        &self,
        report: &fgqos_core::CycleReport,
        body_profile: &QualityProfile,
    ) -> (f64, usize) {
        let body_len = self.iter.body_len();
        let sensitive: Vec<bool> = (0..body_len)
            .map(|a| body_profile.quality_sensitive(a))
            .collect();
        if !sensitive.iter().any(|&s| s) {
            return (report.mean_quality(), report.quality_switches);
        }
        let mut sum = 0u64;
        let mut count = 0usize;
        let mut switches = 0usize;
        let mut prev: Option<fgqos_time::Quality> = None;
        for r in &report.records {
            let body_action = r.action.index() % body_len;
            if sensitive[body_action] {
                sum += u64::from(r.quality.level());
                count += 1;
                if let Some(p) = prev {
                    if p != r.quality {
                        switches += 1;
                    }
                }
                prev = Some(r.quality);
            }
        }
        if count == 0 {
            (report.mean_quality(), report.quality_switches)
        } else {
            (sum as f64 / count as f64, switches)
        }
    }

    fn skipped_record(&mut self, frame: usize) -> FrameRecord {
        FrameRecord {
            frame,
            skipped: true,
            is_iframe: self.app.scenario().frame(frame).is_iframe,
            start: Cycles::ZERO,
            encode_cycles: Cycles::ZERO,
            budget: Cycles::ZERO,
            latency: Cycles::ZERO,
            mean_quality: 0.0,
            misses: 0,
            fallbacks: 0,
            quality_switches: 0,
            psnr_db: self.app.skipped_psnr(frame),
        }
    }
}

/// Whether the encoder is the controlled build or an uncontrolled
/// constant-quality build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The controlled application software (deadlines from the buffer
    /// budget; Proposition 2.1 guarantees no skips for feasible budgets).
    Controlled,
    /// The uncontrolled baseline (no deadlines; skips emerge from buffer
    /// overflow).
    Constant,
}

/// Runs one action instance in place: its kernel, then its side
/// effects. Every commit that does not consume a speculated result runs
/// actions through here, so the in-place and the split (phase 1, then
/// commit) paths perform the same state transitions by construction.
fn run_in_place<A: VideoApp>(app: &mut A, action: ActionId, mb: usize, q: Quality) -> Option<u64> {
    let work = app.kernel(action, mb, q);
    app.apply(action, mb);
    work
}

/// Applies the estimator's current estimates to `profile` and reports
/// whether any cell actually changed (clamping and isotonic repair can
/// absorb an estimate without moving the table — a converged estimator
/// must not invalidate anything downstream).
fn apply_estimates(est: &mut dyn AvgEstimator, profile: &mut QualityProfile) -> bool {
    let levels: Vec<Quality> = profile.qualities().iter().collect();
    let mut changed = false;
    for action in 0..profile.n_actions() {
        for &q in &levels {
            if let Some(e) = est.estimate(ActionId::from_index(action), q) {
                let before = profile.avg(ActionId::from_index(action), q);
                // Clamping/monotonicity handled inside update_avg.
                let _ = profile.update_avg(action, q, e);
                changed |= profile.avg(ActionId::from_index(action), q) != before;
            }
        }
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::TableApp;
    use crate::scenario::LoadScenario;
    use fgqos_core::policy::MaxQuality;
    use fgqos_sched::TableQuery;

    fn small_runner(frames: usize, mb: usize, k: usize) -> Runner<TableApp> {
        let scenario = LoadScenario::paper_benchmark(5).truncated(frames);
        let app = TableApp::with_macroblocks(scenario, mb).unwrap();
        let config = RunConfig::paper_defaults()
            .scaled_to_macroblocks(mb)
            .with_capacity(k);
        Runner::new(app, config).unwrap()
    }

    /// Discarding a prepared frame on a detach also discards the
    /// overflow skips its prepare recorded: the truncated result is the
    /// one a detach just before that prepare gives.
    #[test]
    fn a_discarded_frame_takes_its_overflow_skips_with_it() {
        use crate::exec::StochasticLoad;
        use crate::runtime::{ModelBackend, VirtualClock};
        let run = |prepare_late: bool| {
            let mut r = small_runner(30, 8, 1);
            let mut st = r.start_parallel(Mode::Controlled).unwrap();
            let (mut clock, mut policy) = (VirtualClock::new(), MaxQuality::new());
            let mut backend = ModelBackend::new(StochasticLoad::new(3));
            for _ in 0..5 {
                assert!(r
                    .next_parallel_frame(&mut st, &mut clock, &mut policy, &mut None)
                    .unwrap());
                r.commit_parallel_frame(&mut st, &mut clock, &mut backend, &mut policy, &mut None)
                    .unwrap();
            }
            if prepare_late {
                // The camera ran on for four periods: arrivals overflow
                // the one-frame buffer and the prepare records skips.
                clock.advance(Cycles::new(r.config.period.get() * 4));
                assert!(r
                    .next_parallel_frame(&mut st, &mut clock, &mut policy, &mut None)
                    .unwrap());
                let pending = st.pending_frame().unwrap();
                assert!(
                    (pending..30).any(|f| st.record(f).is_some_and(|rec| rec.skipped)),
                    "the late prepare recorded overflow skips"
                );
            }
            r.finish_parallel_truncated(st, "detached")
        };
        let (late, on_time) = (run(true), run(false));
        assert_eq!(on_time.frames().len(), 5);
        assert_eq!(late.frames(), on_time.frames());
    }

    #[test]
    fn controlled_run_never_skips_or_misses() {
        let mut r = small_runner(40, 12, 1);
        let res = r.run_controlled(&mut MaxQuality::new(), 1).unwrap();
        assert_eq!(res.skips(), 0, "{}", res.summary());
        assert_eq!(res.misses(), 0, "{}", res.summary());
        assert_eq!(res.fallbacks(), 0);
        assert!(r.monitor().all_safe());
        assert_eq!(res.frames().len(), 40);
    }

    #[test]
    fn constant_high_quality_skips_under_load() {
        let mut r = small_runner(60, 12, 1);
        // q7 averages ~277k/MB versus a ~202k/MB budget: sustained
        // overload, must skip.
        let res = r.run_constant(Quality::new(7), 2).unwrap();
        assert!(
            res.skips() > 5,
            "expected heavy skipping: {}",
            res.summary()
        );
    }

    #[test]
    fn constant_low_quality_keeps_up() {
        let mut r = small_runner(60, 12, 1);
        let res = r.run_constant(Quality::new(0), 3).unwrap();
        assert_eq!(res.skips(), 0, "{}", res.summary());
    }

    #[test]
    fn controlled_beats_constant_q3_on_psnr_without_skips() {
        let mut r = small_runner(80, 12, 1);
        let controlled = r.run_controlled(&mut MaxQuality::new(), 7).unwrap();
        let mut r2 = small_runner(80, 12, 1);
        let constant = r2.run_constant(Quality::new(3), 7).unwrap();
        assert_eq!(controlled.skips(), 0);
        assert!(
            controlled.mean_psnr() >= constant.mean_psnr() - 0.3,
            "controlled {} vs constant {}",
            controlled.mean_psnr(),
            constant.mean_psnr()
        );
    }

    #[test]
    fn series_accessors_cover_all_frames() {
        let mut r = small_runner(25, 8, 1);
        let res = r.run_controlled(&mut MaxQuality::new(), 9).unwrap();
        assert_eq!(res.encode_series().len(), 25);
        assert_eq!(res.psnr_series().len(), 25);
        assert!(res.mean_encode_mcycles() > 0.0);
        assert!(res.summary().contains("frames"));
        assert!(res.label().contains("controlled-max"));
    }

    #[test]
    fn estimator_runs_do_not_break_safety() {
        use fgqos_core::estimator::EwmaEstimator;
        let mut r = small_runner(30, 10, 1);
        let qs = r.app().profile().qualities().clone();
        let mut est = EwmaEstimator::new(9, qs, 0.2);
        let mut exec = StochasticLoad::new(11);
        let mut policy = MaxQuality::new();
        let res = r
            .run(Mode::Controlled, &mut policy, &mut exec, Some(&mut est))
            .unwrap();
        assert_eq!(res.skips(), 0);
        assert_eq!(res.misses(), 0);
    }

    #[test]
    fn final_only_deadlines_also_safe() {
        let scenario = LoadScenario::paper_benchmark(5).truncated(30);
        let app = TableApp::with_macroblocks(scenario, 10).unwrap();
        let config = RunConfig::paper_defaults()
            .scaled_to_macroblocks(10)
            .with_deadline_shape(DeadlineShape::FinalOnly);
        let mut r = Runner::new(app, config).unwrap();
        let res = r.run_controlled(&mut MaxQuality::new(), 5).unwrap();
        assert_eq!(res.skips(), 0, "{}", res.summary());
        assert_eq!(res.misses(), 0);
    }

    #[test]
    fn run_on_virtual_clock_matches_legacy_run() {
        use crate::runtime::{ModelBackend, VirtualClock};
        let mut legacy = small_runner(50, 10, 1);
        let expected = legacy.run_controlled(&mut MaxQuality::new(), 21).unwrap();
        let mut seam = small_runner(50, 10, 1);
        let mut clock = VirtualClock::new();
        let mut backend = ModelBackend::new(StochasticLoad::new(21));
        let actual = seam
            .run_on(
                &mut clock,
                &mut backend,
                Mode::Controlled,
                &mut MaxQuality::new(),
                None,
            )
            .unwrap();
        // The explicit seam is the same computation: every per-frame
        // record is identical, not just the aggregates.
        assert_eq!(expected.frames(), actual.frames());
    }

    #[test]
    fn pipelined_mode_reproduces_the_sequential_series() {
        // The unrolling mode affects which *parallel* executions are
        // legal, not the controller: the static order and tables are
        // identical, so the series is too.
        let mut seq = small_runner(40, 10, 1);
        let expected = seq.run_controlled(&mut MaxQuality::new(), 33).unwrap();
        let scenario = LoadScenario::paper_benchmark(5).truncated(40);
        let app = TableApp::with_macroblocks(scenario, 10).unwrap();
        let config = RunConfig::paper_defaults()
            .scaled_to_macroblocks(10)
            .with_iteration_mode(IterationMode::Pipelined);
        let mut pip = Runner::new(app, config).unwrap();
        let actual = pip.run_controlled(&mut MaxQuality::new(), 33).unwrap();
        assert_eq!(expected.frames(), actual.frames());
    }

    #[test]
    fn parallel_run_matches_sequential_at_every_worker_count() {
        let mut seq = small_runner(40, 10, 1);
        let expected = seq.run_controlled(&mut MaxQuality::new(), 13).unwrap();
        for workers in [1, 2, 8] {
            let mut par = small_runner(40, 10, 1);
            let actual = par
                .run_parallel(&mut MaxQuality::new(), 13, workers)
                .unwrap();
            assert_eq!(
                expected.frames(),
                actual.frames(),
                "divergence at {workers} workers"
            );
            // TableApp kernels are quality-blind: speculation never
            // misses.
            assert_eq!(par.speculation().1, 0);
        }
    }

    #[test]
    fn telemetry_mirrors_diagnostics_and_leaves_results_identical() {
        let mut plain = small_runner(30, 10, 1);
        let expected = plain.run_controlled(&mut MaxQuality::new(), 17).unwrap();

        let mut observed = small_runner(30, 10, 1);
        let t = Telemetry::new();
        observed.set_telemetry(&t);
        let actual = observed.run_controlled(&mut MaxQuality::new(), 17).unwrap();
        // Observe-only: attaching the registry changes nothing.
        assert_eq!(expected.frames(), actual.frames());

        let snap = t.snapshot();
        assert_eq!(
            snap.counter("sched.envelope_builds"),
            Some(observed.envelope_builds())
        );
        assert_eq!(
            snap.counter("sched.full_table_builds"),
            Some(observed.full_table_builds())
        );
        assert_eq!(snap.counter("sched.table_lookups"), Some(30));
        assert_eq!(snap.counter("controller.frames"), Some(30));
        assert_eq!(snap.counter("controller.misses"), Some(0));
        let slack = snap
            .histogram("controller.deadline_slack_cycles")
            .expect("slack histogram registered");
        // Frames with an infinite budget (no buffer pressure yet) record
        // no slack; every deadline-bounded frame does.
        assert!(
            slack.count() > 0 && slack.count() <= 30,
            "{}",
            slack.count()
        );
        // Every runner metric is stable: the stable view drops nothing.
        assert_eq!(snap.stable_view().len(), snap.len());

        // Speculation counters mirror the parallel diagnostics.
        let mut par = small_runner(20, 10, 1);
        let tp = Telemetry::new();
        par.set_telemetry(&tp);
        par.run_parallel(&mut MaxQuality::new(), 17, 2).unwrap();
        let psnap = tp.snapshot();
        assert_eq!(psnap.counter("sched.spec_hits"), Some(par.speculation().0));
        assert_eq!(psnap.counter("sched.spec_misses"), Some(0));
    }

    #[test]
    fn parallel_run_in_pipelined_mode_matches_too() {
        let mut seq = small_runner(30, 8, 1);
        let expected = seq.run_controlled(&mut MaxQuality::new(), 29).unwrap();
        let scenario = LoadScenario::paper_benchmark(5).truncated(30);
        let app = TableApp::with_macroblocks(scenario, 8).unwrap();
        let config = RunConfig::paper_defaults()
            .scaled_to_macroblocks(8)
            .with_iteration_mode(IterationMode::Pipelined);
        let mut par = Runner::new(app, config).unwrap();
        let actual = par.run_parallel(&mut MaxQuality::new(), 29, 4).unwrap();
        assert_eq!(expected.frames(), actual.frames());
        assert!(par.monitor().all_safe());
    }

    #[test]
    fn constant_runs_share_one_envelope_set_across_all_frames() {
        // Uncontrolled frames all see budget +inf: 60 frames, 1 envelope
        // build, zero full table builds, nothing promoted.
        let mut r = small_runner(60, 12, 1);
        let res = r.run_constant(Quality::new(0), 4).unwrap();
        assert_eq!(res.frames().len(), 60);
        assert_eq!(r.envelope_builds(), 1, "one model, one envelope set");
        assert_eq!(r.full_table_builds(), 0);
        assert_eq!(r.cached_tables(), 0, "infinite budgets never promote");
        // Re-running reuses the same envelopes (the PSNR noise stream is
        // stateful across runs, so only timing fields are compared).
        let res2 = r.run_constant(Quality::new(0), 4).unwrap();
        assert_eq!(r.envelope_builds(), 1);
        for (a, b) in res.frames().iter().zip(res2.frames()) {
            assert_eq!(a.encode_cycles, b.encode_cycles);
            assert_eq!(a.budget, b.budget);
        }
    }

    #[test]
    fn saturated_controlled_runs_build_envelopes_once() {
        // Saturated controlled runs pop at stochastic instants, so
        // nearly every frame budget is unique — the regime that used to
        // rebuild ConstraintTables per frame. The parametric path builds
        // exactly one envelope set for the whole run.
        let mut r = small_runner(60, 12, 1);
        let res = r.run_controlled(&mut MaxQuality::new(), 4).unwrap();
        assert_eq!(res.skips(), 0);
        assert_eq!(r.envelope_builds(), 1, "O(1) builds per run");
        assert_eq!(r.full_table_builds(), 0, "no per-frame table builds");
        assert_eq!(r.cached_tables(), 0);
    }

    #[test]
    fn promoted_tables_cache_stays_bounded() {
        // Many budgets, each recurring once: every one is promoted, but
        // the cache must stay capped, not grow per budget.
        let mut r = small_runner(10, 8, 1);
        let qs = r.app().profile().qualities().clone();
        let budgets = 3 * TABLES_CACHE_CAP as u64;
        for i in 0..budgets {
            let b = Cycles::new(1_000_000 + i);
            assert!(matches!(
                r.tables_for(b, &qs).unwrap(),
                SharedTables::AtBudget(..)
            ));
            assert!(matches!(
                r.tables_for(b, &qs).unwrap(),
                SharedTables::Fixed(_)
            ));
        }
        assert_eq!(r.envelope_builds(), 1);
        assert_eq!(r.full_table_builds(), budgets);
        assert!(
            r.cached_tables() <= TABLES_CACHE_CAP,
            "cache grew past its cap: {}",
            r.cached_tables()
        );
    }

    #[test]
    fn repeated_budgets_promote_to_materialized_tables() {
        use crate::exec::Deterministic;
        // Paced deterministic run: every steady-state frame sees the
        // same budget. The parametric path notices the repeat and
        // promotes it to one materialized table (array-read queries, the
        // historical cached-path cost) while keeping envelope builds at
        // one — O(1) of each per run, never per frame.
        let scenario = LoadScenario::paper_benchmark(5).truncated(50);
        let app = TableApp::with_macroblocks(scenario, 12).unwrap();
        let base = RunConfig::paper_defaults().scaled_to_macroblocks(12);
        let config = base.with_period(base.period.saturating_mul(2));
        let mut r = Runner::new(app, config).unwrap();
        let mut exec = Deterministic::nominal();
        let mut policy = MaxQuality::new();
        let res = r
            .run(Mode::Controlled, &mut policy, &mut exec, None)
            .unwrap();
        assert_eq!(res.skips(), 0);
        assert_eq!(r.envelope_builds(), 1);
        assert!(
            (1..=3).contains(&r.full_table_builds()),
            "recurring budgets should materialize O(1) tables, got {}",
            r.full_table_builds()
        );
        assert!(r.cached_tables() >= 1);
    }

    #[test]
    fn table_eviction_is_lru_not_fifo() {
        // The recurring budget is touched between bursts of other
        // promoted budgets, so it must survive eviction even though it
        // was inserted first. (Each budget is asked for twice: the second
        // use promotes it.)
        let mut r = small_runner(10, 8, 1);
        let qs = r.app().profile().qualities().clone();
        let hot = Cycles::new(1_000_000);
        r.tables_for(hot, &qs).unwrap();
        r.tables_for(hot, &qs).unwrap();
        let hot_arc = Arc::clone(r.tables_cache.get(&hot).unwrap());
        for burst in 0..2 {
            for i in 0..(TABLES_CACHE_CAP - 1) {
                let other = Cycles::new(2_000_000 + (burst * 100 + i) as u64);
                r.tables_for(other, &qs).unwrap();
                r.tables_for(other, &qs).unwrap();
            }
            // Touch the hot entry: must still be the same cached tables.
            let again = r.tables_for(hot, &qs).unwrap();
            let again = match again {
                SharedTables::Fixed(t) => t,
                other => panic!("a promoted budget must yield fixed tables, got {other:?}"),
            };
            assert!(
                Arc::ptr_eq(&hot_arc, &again),
                "hot budget was evicted by a burst of unique budgets"
            );
        }
        assert!(r.cached_tables() <= TABLES_CACHE_CAP);
    }

    #[test]
    fn estimator_runs_refresh_envelopes_in_place() {
        use fgqos_core::estimator::EwmaEstimator;
        let mut r = small_runner(20, 8, 1);
        let qs = r.app().profile().qualities().clone();
        let mut est = EwmaEstimator::new(9, qs, 0.3);
        let mut exec = StochasticLoad::new(17);
        let mut policy = MaxQuality::new();
        r.run(Mode::Controlled, &mut policy, &mut exec, Some(&mut est))
            .unwrap();
        // The estimator rewrites the profile (nearly) every frame: the
        // parametric envelopes are built once and then refreshed in
        // place — never rebuilt, and never replaced by per-frame
        // `ConstraintTables` builds.
        assert_eq!(r.envelope_builds(), 1, "one build, then refreshes");
        assert_eq!(r.full_table_builds(), 0, "no per-frame table builds");
        assert!(
            r.envelope_refreshes() >= 10,
            "estimates move most frames (got {} refreshes)",
            r.envelope_refreshes()
        );
        assert_eq!(r.cached_tables(), 0, "got {}", r.cached_tables());
        // A later estimator-free run keeps using the same envelope set.
        let res = r.run_controlled(&mut MaxQuality::new(), 3).unwrap();
        assert_eq!(res.skips(), 0);
        assert_eq!(r.envelope_builds(), 1);
    }

    #[test]
    fn tables_promoted_after_an_estimator_run_use_the_refreshed_profile() {
        use fgqos_core::estimator::EwmaEstimator;
        // The refreshes read the body profile and leave the tiling for
        // later: a table promoted afterwards must still be built from the
        // refreshed profile, i.e. answer exactly as the refreshed
        // envelopes do at its budget.
        let mut r = small_runner(20, 8, 1);
        let qs = r.app().profile().qualities().clone();
        let mut est = EwmaEstimator::new(9, qs.clone(), 0.3);
        r.run(
            Mode::Controlled,
            &mut MaxQuality::new(),
            &mut StochasticLoad::new(17),
            Some(&mut est),
        )
        .unwrap();
        assert!(r.envelope_refreshes() > 0, "the estimator moved nothing");
        let b = Cycles::new(1_234_567);
        r.tables_for(b, &qs).unwrap();
        let SharedTables::Fixed(promoted) = r.tables_for(b, &qs).unwrap() else {
            panic!("a recurring budget is promoted");
        };
        let envelopes = Arc::clone(r.budget_tables.as_ref().unwrap());
        let view = envelopes.at_budget(b);
        for i in 0..=promoted.len() {
            assert_eq!(promoted.wcmin_budget_at(i), view.wcmin_budget_at(i));
            for qi in 0..promoted.quality_count() {
                assert_eq!(
                    promoted.av_budget_at(qi, i),
                    view.av_budget_at(qi, i),
                    "qi {qi} i {i}"
                );
            }
        }
    }

    #[test]
    fn converged_estimator_invalidates_nothing() {
        use fgqos_core::estimator::FrozenEstimator;
        // A frozen estimator never produces an estimate — the profile
        // never moves, so the run must behave exactly like an
        // estimator-free one: one envelope build, zero refreshes, zero
        // table builds, and the recurring-budget promotion still intact.
        let mut r = small_runner(20, 8, 1);
        let mut est = FrozenEstimator::new();
        let mut exec = StochasticLoad::new(17);
        let mut policy = MaxQuality::new();
        let with_frozen = r
            .run(Mode::Controlled, &mut policy, &mut exec, Some(&mut est))
            .unwrap();
        assert_eq!(r.envelope_builds(), 1, "converged run: 1 build total");
        assert_eq!(r.envelope_refreshes(), 0);
        assert_eq!(r.full_table_builds(), 0);
        // Byte-identical to the estimator-free run.
        let mut r2 = small_runner(20, 8, 1);
        let mut exec2 = StochasticLoad::new(17);
        let bare = r2
            .run(Mode::Controlled, &mut MaxQuality::new(), &mut exec2, None)
            .unwrap();
        assert_eq!(with_frozen.frames(), bare.frames());
    }

    #[test]
    fn wall_clock_run_completes_without_skips() {
        use crate::runtime::{MeasuredBackend, WallClock};
        // 6-macroblock frames, 5 frames, 10 ms per period: the measured
        // cost of TableApp's no-op actions is microseconds against a
        // multi-millisecond budget, so even a loaded host keeps up.
        let scenario = LoadScenario::paper_benchmark(5).truncated(5);
        let app = TableApp::with_macroblocks(scenario, 6).unwrap();
        let period = RunConfig::paper_defaults().scaled_to_macroblocks(6).period;
        let config = RunConfig::paper_defaults()
            .scaled_to_macroblocks(6)
            .with_capacity(1);
        let mut r = Runner::new(app, config).unwrap();
        let mut clock = WallClock::scaled(period, std::time::Duration::from_millis(10));
        let mut backend = MeasuredBackend::new();
        let res = r
            .run_on(
                &mut clock,
                &mut backend,
                Mode::Controlled,
                &mut MaxQuality::new(),
                None,
            )
            .unwrap();
        assert_eq!(res.frames().len(), 5);
        assert_eq!(res.skips(), 0, "{}", res.summary());
        // Real time actually passed: 5 frames x 10 ms of camera pacing.
        assert!(clock.now() >= period.saturating_mul(4));
    }

    /// A paced `mb`-macroblock stream: at `stretch` periods per frame of
    /// nominal work every steady-state budget recurs, so it promotes.
    fn paced_runner(mb: usize, stretch: u64) -> Runner<TableApp> {
        let scenario = LoadScenario::paper_benchmark(5).truncated(30);
        let app = TableApp::with_macroblocks(scenario, mb).unwrap();
        let base = RunConfig::paper_defaults().scaled_to_macroblocks(mb);
        Runner::new(app, base.with_period(base.period.saturating_mul(stretch))).unwrap()
    }

    /// Runs a paced runner through the stepped parallel path, so it
    /// builds all three shared structures: plan, envelopes, promotions.
    fn paced_run(r: &mut Runner<TableApp>) -> StreamResult {
        use crate::exec::Deterministic;
        let mut backend = ModelBackend::new(Deterministic::nominal());
        r.run_parallel_on(
            &mut VirtualClock::new(),
            &mut backend,
            Mode::Controlled,
            &mut MaxQuality::new(),
            None,
            1,
        )
        .unwrap()
    }

    /// A promoted table of `r` (the run must have promoted one).
    fn some_promoted(r: &Runner<TableApp>) -> (Cycles, Arc<ConstraintTables>) {
        let (&b, t) = r.tables_cache.iter().next().expect("a budget promoted");
        (b, Arc::clone(t))
    }

    #[test]
    fn runners_of_one_shape_share_plan_envelopes_and_promoted_tables() {
        let solo = paced_run(&mut paced_runner(8, 2));
        let mut a = paced_runner(8, 2);
        let mut b = paced_runner(8, 2);
        let res_a = paced_run(&mut a);
        let res_b = paced_run(&mut b);
        // One copy per content...
        let plan = |r: &Runner<TableApp>| Arc::clone(r.parallel_plan.as_ref().unwrap());
        let envs = |r: &Runner<TableApp>| Arc::clone(r.budget_tables.as_ref().unwrap());
        assert!(Arc::ptr_eq(&plan(&a), &plan(&b)));
        assert!(Arc::ptr_eq(&envs(&a), &envs(&b)));
        let (budget, promoted) = some_promoted(&a);
        assert!(Arc::ptr_eq(&promoted, &b.tables_cache[&budget]));
        // ...while every build still ran and counted as for a lone runner.
        for r in [&a, &b] {
            assert_eq!(r.envelope_builds(), 1);
            assert!(r.full_table_builds() >= 1);
        }
        // ...and sharing is invisible in the results.
        assert_eq!(res_a.frames(), solo.frames());
        assert_eq!(res_b.frames(), solo.frames());
    }

    #[test]
    fn estimator_refreshes_never_leak_into_runners_of_one_shape() {
        use fgqos_core::estimator::EwmaEstimator;
        fn run(r: &mut Runner<TableApp>, estimate: bool) -> StreamResult {
            let qs = r.app().profile().qualities().clone();
            let mut est = EwmaEstimator::new(9, qs, 0.3);
            let est = estimate.then_some(&mut est as &mut dyn AvgEstimator);
            let mut exec = StochasticLoad::new(17);
            r.run(Mode::Controlled, &mut MaxQuality::new(), &mut exec, est)
                .unwrap()
        }
        let envs = |r: &Runner<TableApp>| Arc::clone(r.budget_tables.as_ref().unwrap());
        let solo = run(&mut small_runner(20, 8, 1), false);
        // Sole holder: the refresh moves the set out of the interned copy.
        let mut a1 = small_runner(20, 8, 1);
        run(&mut a1, true);
        let mut b = small_runner(20, 8, 1);
        let res_b = run(&mut b, false);
        // Shared holder: the refresh clones the set B also holds.
        let mut a2 = small_runner(20, 8, 1);
        run(&mut a2, true);
        let fresh = BudgetTables::new(
            b.order.clone(),
            &b.app().profile().tile(b.iter.iterations()),
            b.config.deadline_shape,
            b.iter.iterations(),
        )
        .unwrap();
        for a in [&a1, &a2] {
            assert!(a.envelope_refreshes() > 0, "the estimator moved nothing");
            assert!(!Arc::ptr_eq(&envs(a), &envs(&b)));
            assert_ne!(*envs(a), fresh, "refreshed content equals the declared");
        }
        assert_eq!(*envs(&b), fresh, "B reads the declared profile's envelopes");
        let mut c = small_runner(20, 8, 1);
        run(&mut c, false);
        assert!(Arc::ptr_eq(&envs(&c), &envs(&b)));
        assert_eq!(res_b.frames(), solo.frames());
    }

    #[test]
    fn shared_copies_die_with_their_last_runner() {
        // A shape no other test in this binary builds, so no other test
        // can hold these copies alive.
        let mut a = paced_runner(5, 3);
        let mut b = paced_runner(5, 3);
        paced_run(&mut a);
        paced_run(&mut b);
        let plan = Arc::downgrade(a.parallel_plan.as_ref().unwrap());
        let envs = Arc::downgrade(a.budget_tables.as_ref().unwrap());
        let promoted = Arc::downgrade(&some_promoted(&a).1);
        drop(a);
        assert!(plan.upgrade().is_some(), "B still holds the plan");
        drop(b);
        assert!(plan.upgrade().is_none(), "the interner kept the plan alive");
        assert!(envs.upgrade().is_none(), "the interner kept the envelopes");
        assert!(promoted.upgrade().is_none(), "the interner kept a table");
    }

    #[test]
    fn bigger_buffer_reduces_constant_quality_skips() {
        let mut r1 = small_runner(80, 12, 1);
        let k1 = r1.run_constant(Quality::new(4), 13).unwrap().skips();
        let mut r2 = small_runner(80, 12, 2);
        let k2 = r2.run_constant(Quality::new(4), 13).unwrap().skips();
        assert!(k2 <= k1, "K=2 skipped {k2} vs K=1 {k1}");
    }
}
