//! Budget-parametric constraint tables: `Qual_Const` at *any* frame
//! budget with O(1) per-frame setup.
//!
//! [`ConstraintTables`] materializes the suffix budgets for one fixed
//! deadline map — O(|Q|·n) work and fresh allocations per build. That is
//! the right trade when deadlines are arbitrary, but the stream runners
//! always derive their deadlines from a *frame budget* `b` through a
//! [`DeadlineShape`]: every per-instance deadline is affine in `b` with a
//! common denominator (`⌊b·(k+1)/n⌋` for per-iteration pacing, `b` or `+∞`
//! for final-only). Saturated controlled runs pop frames at stochastic
//! instants, so `b` is fresh every frame and a per-budget cache never
//! hits — the serving layer then multiplies the rebuild cost by the
//! stream count.
//!
//! [`BudgetTables`] exploits the affine structure instead. For a fixed
//! (schedule, tiled profile, deadline shape), each suffix budget
//!
//! ```text
//! av(q, i)(b) = min_{j ≥ i} ( D_j(b) − Σ_{k=i..=j} Cav_q(α_k) )
//! ```
//!
//! is a lower envelope of integer lines over `b`: with `n` iterations,
//! `D_j(b) − Σ C = ⌊(m_j·b − n·S_j)/n⌋ + S_{i−1}` where `m_j` is the
//! deadline slope of position `j`'s iteration and `S` are prefix sums of
//! `Cav_q` along the schedule. Because the floor is monotone and every
//! term shares the denominator `n`, the minimum commutes with the floor,
//! so each cell reduces to *one* envelope evaluation plus a prefix-sum
//! offset. Within one deadline class (iteration) the binding position is
//! always the last one in the suffix (prefix sums grow along the
//! schedule), so the number of distinct envelopes is the number of
//! iterations — not the number of positions — and they nest: the
//! envelope for suffix `i` is the envelope over the classes whose last
//! position is `≥ i`. The envelopes are built once per (schedule,
//! profile, shape) in [`fgqos_time::series::LineEnvelope`] (exact
//! integer comparisons, no floats) and evaluated per frame in
//! O(log segments) per cell with zero allocation. The same construction
//! covers the minimal-quality worst-case side (`wcmin`).
//!
//! [`BudgetTables::at_budget`] exposes a [`ConstraintTables`]-compatible
//! view (the full [`TableQuery`] surface) for one budget;
//! [`SharedTables`] lets a controller hold either kind behind one cheap
//! clonable handle. Equivalence with `ConstraintTables::new` at every
//! budget — including 0, near-`u64::MAX` values and `+∞` — is
//! property-tested in `tests/proptest_budget.rs`.
//!
//! # Online-estimator refresh
//!
//! When an online estimator sharpens the execution-time profile between
//! frames, only the `Cav`/`Cwc` *values* move — the schedule, deadline
//! slopes, class structure and version map are untouched. Rather than
//! rebuilding, [`BudgetTables::refresh`] re-sweeps the prefix sums in
//! place and re-hulls the envelopes, reusing every buffer (O(n + hull
//! size) per quality, no allocation once warm). The runners call
//! [`BudgetTables::refresh_body`], which reads the per-iteration body
//! profile instead of its tiling and skips the quality levels whose body
//! averages did not move, and the worst-case side while no worst case
//! moved. Both are property-tested to be indistinguishable from a fresh
//! build over random schedules, shapes and refresh sequences.

use std::sync::Arc;

use fgqos_graph::{ActionId, GraphError};
use fgqos_time::series::{EnvelopeBuilder, LineEnvelope};
use fgqos_time::{ActionTimes, Cycles, QualityProfile, Slack};

use crate::{ConstraintTables, SchedError, TableQuery};

/// How a per-frame time budget is decomposed into action deadlines.
///
/// (Previously defined in `fgqos-sim`; it lives here so the scheduling
/// layer can precompute budget-parametric tables for each shape. The
/// simulator re-exports it under its historical path.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeadlineShape {
    /// Every action of macroblock `k` (0-based) gets deadline
    /// `⌊(k+1)·B/N⌋`: uniform pacing, the shape used for the paper's
    /// experiments ("deadlines on the termination of actions since the
    /// beginning of a cycle").
    PerIteration,
    /// Only the last macroblock's actions carry the budget `B`;
    /// everything else is unconstrained. Gives the controller maximal
    /// freedom inside the frame at the cost of pacing.
    FinalOnly,
}

/// The per-instance deadline vector for one frame of budget `budget`,
/// laid out by instance id (`iteration · body_len + body_action`) to
/// match `fgqos_graph::iterate::IteratedGraph`.
///
/// This is the single source of truth for the budget → deadline mapping;
/// [`BudgetTables`] and the simulator's materialized per-budget tables use
/// it. The arithmetic widens to `u128` before multiplying, so budgets up
/// to `u64::MAX − 1` (e.g. replayed wall-clock traces) produce exact
/// deadlines instead of wrapping, and a degenerate `iterations == 0`
/// returns the empty vector instead of underflowing the final-only
/// index.
#[must_use]
pub fn budget_deadlines(
    shape: DeadlineShape,
    iterations: usize,
    body_len: usize,
    budget: Cycles,
) -> Vec<Cycles> {
    let n = iterations;
    if n == 0 {
        return Vec::new();
    }
    let mut out = vec![Cycles::INFINITY; n * body_len];
    match shape {
        DeadlineShape::PerIteration => {
            if budget.is_infinite() {
                return out;
            }
            let b = u128::from(budget.get());
            for k in 0..n {
                // b·(k+1)/n computed in u128: for finite b the result is
                // ≤ b < u64::MAX, so the narrowing cannot fail.
                let scaled = b * (k as u128 + 1) / n as u128;
                let d = Cycles::new(u64::try_from(scaled).expect("scaled deadline fits in u64"));
                for a in 0..body_len {
                    out[k * body_len + a] = d;
                }
            }
        }
        DeadlineShape::FinalOnly => {
            for a in 0..body_len {
                out[(n - 1) * body_len + a] = budget;
            }
        }
    }
    out
}

/// One family of nested suffix envelopes: `versions[v]` is the lower
/// envelope over the `v` deadline classes with the largest last
/// positions, and `version_of` (stored once on [`BudgetTables`], shared
/// between families) maps a schedule position to the version covering
/// its suffix.
type EnvelopeVersions = Vec<LineEnvelope>;

/// Budget-parametric `Qual_Const` tables for one (schedule, tiled
/// profile, deadline shape).
///
/// Build once per stream with [`BudgetTables::new`]; then
/// [`BudgetTables::at_budget`] yields, in O(1) with zero allocation, a
/// view that answers every [`TableQuery`] question for that budget —
/// byte-for-byte the same answers as
/// `ConstraintTables::new(order, profile, uniform(budget_deadlines(b)))`.
///
/// # Example
///
/// ```
/// use fgqos_graph::GraphBuilder;
/// use fgqos_sched::{BudgetTables, DeadlineShape, TableQuery};
/// use fgqos_time::{Cycles, QualityProfile, QualitySet};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = GraphBuilder::new();
/// let x = b.action("x");
/// let _ = b.build()?;
/// let qs = QualitySet::contiguous(0, 1)?;
/// let mut pb = QualityProfile::builder(qs, 1);
/// pb.set_levels(0, &[(10, 20), (40, 80)])?;
/// let profile = pb.build()?;
/// // One action, one iteration, the whole budget on the final action.
/// let tables = BudgetTables::new(vec![x], &profile, DeadlineShape::FinalOnly, 1)?;
/// assert_eq!(tables.at_budget(Cycles::new(100)).max_feasible(0, Cycles::ZERO), Some(1));
/// assert_eq!(tables.at_budget(Cycles::new(50)).max_feasible(0, Cycles::ZERO), Some(0));
/// # Ok(())
/// # }
/// ```
///
/// Equality is exact over everything a query reads (and the structure
/// [`BudgetTables::refresh`] re-hulls from); only the scratch hull
/// builder and the body cells [`BudgetTables::refresh_body`] remembers
/// (always those the rest was derived from) are ignored. Two equal sets
/// answer every query identically, so one may stand in for the other.
#[derive(Debug, Clone)]
pub struct BudgetTables {
    order: Vec<ActionId>,
    /// Per position: its body action (instance index modulo the body
    /// length), the cell [`BudgetTables::refresh_body`] reads.
    body_of: Vec<u32>,
    n: usize,
    nq: usize,
    /// Denominator of the affine deadline terms (`N` iterations).
    iterations: u64,
    shape: DeadlineShape,
    /// Deadline slope of each position's iteration under `shape`
    /// (`None` ⇒ the deadline is `+∞` at every finite budget).
    d_slope: Vec<Option<u64>>,
    /// Action count of the profile the tables were built from (refresh
    /// profiles must match it).
    profile_actions: usize,
    /// Deadline classes `(slope, last_pos)` sorted by last position
    /// descending — the structural input to every suffix-envelope family,
    /// kept so [`BudgetTables::refresh`] can re-hull without re-deriving
    /// the schedule analysis.
    classes: Vec<(u64, usize)>,
    /// Scratch hull builder reused across refreshes.
    scratch: EnvelopeBuilder,
    /// The body cells of the last [`BudgetTables::refresh_body`] (empty
    /// until one, and after a [`BudgetTables::refresh`]): the next
    /// `refresh_body` skips the columns that still equal them.
    body_cells: Vec<ActionTimes>,
    /// `version_of[i]` (for `i` in `0..=n`): which envelope version
    /// covers the suffix starting at `i`. Shared by the av and wcmin
    /// families — the deadline classes depend only on schedule and
    /// shape.
    version_of: Vec<u32>,
    /// Per quality index: the nested suffix envelopes of the av side.
    av_envs: Vec<EnvelopeVersions>,
    /// `av_prefix[qi·(n+1) + i]`: Σ of `Cav_q` over positions `< i`.
    av_prefix: Vec<u128>,
    /// Suffix envelopes of the minimal-quality worst-case side.
    wc_envs: EnvelopeVersions,
    /// `wc_prefix[i]`: Σ of `Cwc_qmin` over positions `< i`.
    wc_prefix: Vec<u128>,
    /// `cwc_next[qi·n + i] = Cwc_q(α_i)` (budget-independent).
    cwc_next: Vec<Cycles>,
}

impl BudgetTables {
    /// Precomputes the envelopes for schedule `order` under the tiled
    /// `profile`, with deadlines generated from a frame budget by
    /// `shape` over `iterations` macroblocks.
    ///
    /// `profile` must cover `iterations` copies of the body, i.e.
    /// `profile.n_actions() == iterations · body_len`; instance ids in
    /// `order` map to iterations by `index / body_len` exactly as in
    /// `fgqos_graph::iterate::IteratedGraph`.
    ///
    /// # Errors
    ///
    /// [`SchedError::Graph`] (`ZeroIterations`) if `iterations == 0`;
    /// [`SchedError::DimensionMismatch`] if the profile does not tile
    /// over `iterations` or `order` references an action outside it.
    pub fn new(
        order: Vec<ActionId>,
        profile: &QualityProfile,
        shape: DeadlineShape,
        iterations: usize,
    ) -> Result<Self, SchedError> {
        if iterations == 0 {
            return Err(SchedError::Graph(GraphError::ZeroIterations));
        }
        if !profile.n_actions().is_multiple_of(iterations) {
            return Err(SchedError::DimensionMismatch {
                expected: profile.n_actions(),
                actual: iterations,
            });
        }
        let body_len = profile.n_actions() / iterations;
        if let Some(bad) = order.iter().find(|a| a.index() >= profile.n_actions()) {
            return Err(SchedError::DimensionMismatch {
                expected: profile.n_actions(),
                actual: bad.index() + 1,
            });
        }
        let n = order.len();
        let nq = profile.qualities().len();
        let iter_of = |a: ActionId| a.index() / body_len.max(1);

        // Deadline slope per position: m such that D(b) = ⌊m·b/N⌋.
        let d_slope: Vec<Option<u64>> = order
            .iter()
            .map(|&a| match shape {
                DeadlineShape::PerIteration => Some(iter_of(a) as u64 + 1),
                DeadlineShape::FinalOnly => {
                    (iter_of(a) == iterations - 1).then_some(iterations as u64)
                }
            })
            .collect();

        // Deadline classes: one line per iteration with a finite-slope
        // deadline present in the schedule. The binding position of a
        // class inside any suffix is its *last* position (prefix sums of
        // execution times grow along the schedule), so a class
        // contributes exactly while the suffix start is ≤ that position.
        let mut last_pos_of: std::collections::HashMap<u64, usize> =
            std::collections::HashMap::new();
        for (j, slope) in d_slope.iter().enumerate() {
            if let Some(m) = slope {
                last_pos_of.insert(*m, j); // later positions overwrite
            }
        }
        // Sorted by last position, descending: version v covers the v
        // classes whose last positions are the largest.
        let mut classes: Vec<(u64, usize)> = last_pos_of.iter().map(|(&m, &j)| (m, j)).collect();
        classes.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));

        // version_of[i] = number of classes whose last position is ≥ i:
        // one merged sweep from the high end over the descending-sorted
        // classes (O(n + classes), not O(n·classes)).
        let mut version_of = vec![0u32; n + 1];
        let mut live = 0usize;
        for i in (0..=n).rev() {
            while live < classes.len() && classes[live].1 >= i {
                live += 1;
            }
            version_of[i] = u32::try_from(live).expect("class count fits u32");
        }

        let levels: Vec<_> = profile.qualities().iter().collect();
        let mut av_prefix = Vec::with_capacity(nq * (n + 1));
        let mut av_envs = Vec::with_capacity(nq);
        let mut cwc_next = Vec::with_capacity(nq * n);
        for &q in &levels {
            let costs: Vec<u128> = order
                .iter()
                .map(|a| u128::from(profile.avg(*a, q).get()))
                .collect();
            let prefix = inclusive_prefix(&costs);
            av_envs.push(suffix_envelopes(&classes, &prefix, iterations as u64));
            av_prefix.extend_from_slice(&prefix);
            for a in &order {
                cwc_next.push(profile.worst(*a, q));
            }
        }
        let qmin = profile.qualities().min();
        let wc_costs: Vec<u128> = order
            .iter()
            .map(|a| u128::from(profile.worst(*a, qmin).get()))
            .collect();
        let wc_prefix = inclusive_prefix(&wc_costs);
        let wc_envs = suffix_envelopes(&classes, &wc_prefix, iterations as u64);

        let body_of = order
            .iter()
            .map(|a| u32::try_from(a.index() % body_len.max(1)).expect("body index fits u32"))
            .collect();
        Ok(BudgetTables {
            order,
            body_of,
            n,
            nq,
            iterations: iterations as u64,
            shape,
            d_slope,
            profile_actions: profile.n_actions(),
            classes,
            scratch: EnvelopeBuilder::new(),
            body_cells: Vec::new(),
            version_of,
            av_envs,
            av_prefix,
            wc_envs,
            wc_prefix,
            cwc_next,
        })
    }

    /// Re-derives the cost-dependent state — prefix sums, suffix
    /// envelopes, worst-case columns — from a refreshed `profile`,
    /// keeping the schedule structure (deadline slopes, classes, version
    /// map) fixed.
    ///
    /// A profile refresh only moves the `Cav`/`Cwc` values, so per
    /// quality level the work is one prefix sweep plus an O(hull size)
    /// re-hull of that quality's envelopes, all in place (no allocation
    /// once the buffers are warm). The refreshed tables answer every query
    /// exactly as `BudgetTables::new(order, profile, shape, iterations)`
    /// would. The online estimators use the cheaper
    /// [`BudgetTables::refresh_body`].
    ///
    /// # Errors
    ///
    /// [`SchedError::DimensionMismatch`] if `profile` does not have the
    /// action count or quality-level count the tables were built with.
    pub fn refresh(&mut self, profile: &QualityProfile) -> Result<(), SchedError> {
        self.check_refresh(profile, profile.n_actions())?;
        self.body_cells.clear();
        self.refresh_with(
            |_| true,
            true,
            |order, _, i, qi| profile.times_by_qidx(order[i].index(), qi),
        );
        Ok(())
    }

    /// [`BudgetTables::refresh`] from the per-iteration `body` profile:
    /// the tables end up exactly as after
    /// `refresh(&body.tile(iterations))`, without building the tiled
    /// profile. The sweep reads the body's few cells instead of the tiled
    /// table, and after a first `refresh_body` the tables remember the
    /// body cells, so a later one skips every quality level whose body
    /// averages did not move and, while no worst case moved (estimators
    /// only move averages), the worst-case side.
    ///
    /// # Errors
    ///
    /// [`SchedError::DimensionMismatch`] if `body` tiled over the
    /// iterations does not have the action count, or `body` does not have
    /// the quality-level count, the tables were built with.
    pub fn refresh_body(&mut self, body: &QualityProfile) -> Result<(), SchedError> {
        let tiled_actions = body.n_actions().saturating_mul(self.iterations as usize);
        self.check_refresh(body, tiled_actions)?;
        let nq = self.nq;
        let cell = |k: usize| body.times_by_qidx(k / nq, k % nq);
        let mut known = std::mem::take(&mut self.body_cells);
        let remembered = !known.is_empty();
        let av_moved = |qi: usize| {
            !remembered
                || (0..body.n_actions())
                    .any(|a| known[a * nq + qi].avg() != cell(a * nq + qi).avg())
        };
        let worst_moved =
            !remembered || (0..known.len()).any(|k| known[k].worst() != cell(k).worst());
        self.refresh_with(av_moved, worst_moved, |_, body_of, i, qi| {
            body.times_by_qidx(body_of[i] as usize, qi)
        });
        known.clear();
        known.extend((0..body.n_actions() * nq).map(cell));
        self.body_cells = known;
        Ok(())
    }

    fn check_refresh(&self, profile: &QualityProfile, actions: usize) -> Result<(), SchedError> {
        if actions != self.profile_actions {
            return Err(SchedError::DimensionMismatch {
                expected: self.profile_actions,
                actual: actions,
            });
        }
        if profile.qualities().len() != self.nq {
            return Err(SchedError::DimensionMismatch {
                expected: self.nq,
                actual: profile.qualities().len(),
            });
        }
        Ok(())
    }

    /// The refresh sweep. `times(order, body_of, i, qi)` are the new
    /// times of schedule position `i` at quality index `qi`; only the
    /// average side of the levels `av_moved` names, and the worst-case
    /// side if `worst_moved`, are re-derived. A re-derived side is
    /// re-hulled without checking whether its prefix sums moved: the
    /// check costs the sweep about as much as the hull it would save.
    fn refresh_with(
        &mut self,
        av_moved: impl Fn(usize) -> bool,
        worst_moved: bool,
        times: impl Fn(&[ActionId], &[u32], usize, usize) -> ActionTimes,
    ) {
        let BudgetTables {
            order,
            body_of,
            n,
            iterations,
            classes,
            scratch,
            av_envs,
            av_prefix,
            wc_envs,
            wc_prefix,
            cwc_next,
            ..
        } = self;
        let n = *n;
        // Quality sets are sorted, so the enumerate index is the storage
        // index — `times_by_qidx` skips the per-cell binary search that
        // `avg`/`worst` would redo 2·n·|Q| times per refresh.
        for (qi, envs) in av_envs.iter_mut().enumerate() {
            if av_moved(qi) {
                let prefix = &mut av_prefix[qi * (n + 1)..(qi + 1) * (n + 1)];
                let mut acc = 0u128;
                for (i, p) in prefix[1..].iter_mut().enumerate() {
                    acc += u128::from(times(order, body_of, i, qi).avg().get());
                    *p = acc;
                }
                suffix_envelopes_into(classes, prefix, *iterations, envs, scratch);
            }
            if worst_moved {
                for (i, w) in cwc_next[qi * n..(qi + 1) * n].iter_mut().enumerate() {
                    *w = times(order, body_of, i, qi).worst();
                }
            }
        }
        if !worst_moved {
            return;
        }
        let mut acc = 0u128;
        for (i, p) in wc_prefix[1..].iter_mut().enumerate() {
            // qmin is storage index 0 (sets are sorted ascending).
            acc += u128::from(times(order, body_of, i, 0).worst().get());
            *p = acc;
        }
        suffix_envelopes_into(classes, wc_prefix, *iterations, wc_envs, scratch);
    }

    /// The [`TableQuery`] view of these tables at frame budget `budget`
    /// — O(1), zero allocation.
    #[must_use]
    pub fn at_budget(&self, budget: Cycles) -> BudgetView<'_> {
        BudgetView {
            tables: self,
            budget,
        }
    }

    /// The schedule the tables were computed for.
    #[must_use]
    pub fn order(&self) -> &[ActionId] {
        &self.order
    }

    /// Number of scheduled actions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the schedule is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of quality levels.
    #[must_use]
    pub fn quality_count(&self) -> usize {
        self.nq
    }

    /// The deadline shape the envelopes encode.
    #[must_use]
    pub fn shape(&self) -> DeadlineShape {
        self.shape
    }

    /// Number of iterations (the denominator of the affine deadlines).
    #[must_use]
    pub fn iterations(&self) -> usize {
        self.iterations as usize
    }

    /// Largest segment count over all stored envelopes (diagnostics: for
    /// tiled profiles under sequential iteration order this is ≤ 2, so a
    /// cell evaluation is effectively O(1)).
    #[must_use]
    pub fn max_segments(&self) -> usize {
        self.av_envs
            .iter()
            .flatten()
            .chain(self.wc_envs.iter())
            .map(LineEnvelope::segments)
            .max()
            .unwrap_or(0)
    }

    /// Approximate resident size of the tables in bytes.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        let envs: usize = self
            .av_envs
            .iter()
            .flatten()
            .chain(self.wc_envs.iter())
            .map(LineEnvelope::memory_bytes)
            .sum();
        envs + (self.av_prefix.len() + self.wc_prefix.len()) * std::mem::size_of::<u128>()
            + self.cwc_next.len() * std::mem::size_of::<Cycles>()
            + self.d_slope.len() * std::mem::size_of::<Option<u64>>()
            + self.version_of.len() * std::mem::size_of::<u32>()
            + self.order.len() * std::mem::size_of::<ActionId>()
            + self.body_of.len() * std::mem::size_of::<u32>()
    }

    /// Envelope evaluation shared by the av and wcmin sides:
    /// `⌊env(b)/N⌋ + prefix[i]` with exact floor division.
    fn suffix_budget(
        &self,
        envs: &EnvelopeVersions,
        prefix: &[u128],
        i: usize,
        budget: Cycles,
    ) -> Slack {
        if i == self.n || budget.is_infinite() {
            return Slack::INFINITY;
        }
        let v = self.version_of[i] as usize;
        match envs[v].eval(budget.get()) {
            None => Slack::INFINITY,
            Some(num) => {
                let offset = i128::try_from(prefix[i]).expect("prefix sums fit in i128");
                Slack::new(num.div_euclid(i128::from(self.iterations)) + offset)
            }
        }
    }

    /// `D(b)` of position `i` (quality-independent under budget-derived
    /// deadline maps).
    fn deadline_of(&self, i: usize, budget: Cycles) -> Cycles {
        match self.d_slope[i] {
            None => Cycles::INFINITY,
            Some(m) => {
                if budget.is_infinite() {
                    Cycles::INFINITY
                } else {
                    let bm = u128::from(budget.get()) * u128::from(m);
                    // Hot path: the product usually fits u64, where the
                    // division is several times cheaper than in u128.
                    let scaled = match u64::try_from(bm) {
                        Ok(small) => small / self.iterations,
                        Err(_) => u64::try_from(bm / u128::from(self.iterations))
                            .expect("scaled deadline fits in u64"),
                    };
                    Cycles::new(scaled)
                }
            }
        }
    }
}

impl PartialEq for BudgetTables {
    fn eq(&self, other: &Self) -> bool {
        // Destructured so that a new field cannot be left out silently;
        // cheap scalars first, so unequal shapes fail fast.
        let BudgetTables {
            order,
            body_of,
            n,
            nq,
            iterations,
            shape,
            d_slope,
            profile_actions,
            classes,
            scratch: _,
            body_cells: _,
            version_of,
            av_envs,
            av_prefix,
            wc_envs,
            wc_prefix,
            cwc_next,
        } = self;
        *n == other.n
            && *nq == other.nq
            && *iterations == other.iterations
            && *shape == other.shape
            && *profile_actions == other.profile_actions
            && *wc_prefix == other.wc_prefix
            && *av_prefix == other.av_prefix
            && *cwc_next == other.cwc_next
            && *order == other.order
            && *body_of == other.body_of
            && *d_slope == other.d_slope
            && *classes == other.classes
            && *version_of == other.version_of
            && *wc_envs == other.wc_envs
            && *av_envs == other.av_envs
    }
}

impl Eq for BudgetTables {}

/// Inclusive-prefix-sum helper: `out[i] = Σ costs[..i]`, length `n + 1`.
fn inclusive_prefix(costs: &[u128]) -> Vec<u128> {
    let mut out = Vec::with_capacity(costs.len() + 1);
    let mut acc = 0u128;
    out.push(acc);
    for &c in costs {
        acc += c;
        out.push(acc);
    }
    out
}

/// Builds the nested suffix envelopes for one cost family.
///
/// `classes` are `(slope, last_pos)` pairs sorted by `last_pos`
/// descending; version `v` is the envelope over the first `v` classes,
/// with each class contributing the line `m·b − N·S_{last_pos+1}`.
///
/// Sequential schedules visit iterations in order, so last positions
/// descend exactly as slopes do — every version is then a prefix run of
/// one monotone hull ([`EnvelopeBuilder`]), built in O(total hull size).
/// Orders that interleave iterations non-monotonically (possible under
/// pipelined unrolling) fall back to a from-scratch build per version.
fn suffix_envelopes(
    classes: &[(u64, usize)],
    prefix: &[u128],
    iterations: u64,
) -> EnvelopeVersions {
    let mut versions = Vec::with_capacity(classes.len() + 1);
    let mut builder = EnvelopeBuilder::new();
    suffix_envelopes_into(classes, prefix, iterations, &mut versions, &mut builder);
    versions
}

/// In-place variant of [`suffix_envelopes`]: writes the versions into
/// `out`, reusing its envelopes' buffers, with `builder` as hull scratch.
/// This is what [`BudgetTables::refresh`] calls per changed quality —
/// O(total hull size) and allocation-free once `out` is warm (monotone
/// class orders, i.e. every sequential schedule).
fn suffix_envelopes_into(
    classes: &[(u64, usize)],
    prefix: &[u128],
    iterations: u64,
    out: &mut EnvelopeVersions,
    builder: &mut EnvelopeBuilder,
) {
    let line_of = |m: u64, last: usize| {
        let s = i128::try_from(prefix[last + 1]).expect("prefix sums fit in i128");
        (i128::from(m), -i128::from(iterations) * s)
    };
    out.resize_with(classes.len() + 1, || LineEnvelope::lower(Vec::new()));
    builder.clear();
    builder.snapshot_into(&mut out[0]); // version 0: the empty envelope
    if classes.windows(2).all(|w| w[1].0 < w[0].0) {
        for (v, &(m, last)) in classes.iter().enumerate() {
            let (m, c) = line_of(m, last);
            builder.push_shallower(m, c);
            builder.snapshot_into(&mut out[v + 1]);
        }
    } else {
        let mut lines: Vec<(i128, i128)> = Vec::with_capacity(classes.len());
        for (v, &(m, last)) in classes.iter().enumerate() {
            lines.push(line_of(m, last));
            out[v + 1] = LineEnvelope::lower(lines.clone());
        }
    }
}

/// A [`ConstraintTables`]-compatible view of [`BudgetTables`] at one
/// frame budget. Create with [`BudgetTables::at_budget`]; all
/// [`TableQuery`] methods answer exactly as the materialized tables for
/// that budget would.
#[derive(Debug, Clone, Copy)]
pub struct BudgetView<'a> {
    tables: &'a BudgetTables,
    budget: Cycles,
}

impl BudgetView<'_> {
    /// The budget this view evaluates at.
    #[must_use]
    pub fn budget(&self) -> Cycles {
        self.budget
    }

    /// The underlying parametric tables.
    #[must_use]
    pub fn tables(&self) -> &BudgetTables {
        self.tables
    }
}

impl TableQuery for BudgetView<'_> {
    fn order(&self) -> &[ActionId] {
        &self.tables.order
    }

    fn quality_count(&self) -> usize {
        self.tables.nq
    }

    fn av_budget_at(&self, qi: usize, i: usize) -> Slack {
        let t = self.tables;
        assert!(qi < t.nq && i <= t.n, "table coordinates out of range");
        t.suffix_budget(
            &t.av_envs[qi],
            &t.av_prefix[qi * (t.n + 1)..(qi + 1) * (t.n + 1)],
            i,
            self.budget,
        )
    }

    fn wcmin_budget_at(&self, i: usize) -> Slack {
        let t = self.tables;
        assert!(i <= t.n, "table coordinates out of range");
        t.suffix_budget(&t.wc_envs, &t.wc_prefix, i, self.budget)
    }

    fn deadline_at(&self, qi: usize, i: usize) -> Cycles {
        let t = self.tables;
        assert!(qi < t.nq && i < t.n, "table coordinates out of range");
        t.deadline_of(i, self.budget)
    }

    fn worst_at(&self, qi: usize, i: usize) -> Cycles {
        let t = self.tables;
        assert!(qi < t.nq && i < t.n, "table coordinates out of range");
        t.cwc_next[qi * t.n + i]
    }

    // Control-time hot path: the admit predicates compare in the
    // envelope's numerator domain (see `av_admits_by`), which saves the
    // 128-bit division that `av_budget_at` pays to report the exact slack.

    fn av_admits(&self, qi: usize, i: usize, t: Cycles) -> bool {
        let tb = self.tables;
        self.av_admits_by(qi, i, t, |v| tb.av_envs[qi][v].eval(self.budget.get()))
    }

    fn wc_admits(&self, qi: usize, i: usize, t: Cycles) -> bool {
        let tb = self.tables;
        self.wc_admits_by(qi, i, t, |v| tb.wc_envs[v].eval(self.budget.get()))
    }
}

impl BudgetView<'_> {
    /// `Qual_Constav` with the suffix envelope's value at the budget
    /// supplied by `num(version)`, called only when it is needed: the
    /// one copy of the av comparison, shared by the view itself and by
    /// the per-frame memo of [`FrameTables`]. Compares in the numerator
    /// domain: `t ≤ ⌊num/N⌋ + P  ⟺  N·(t − P) ≤ num` for integers.
    fn av_admits_by(
        &self,
        qi: usize,
        i: usize,
        t: Cycles,
        num: impl FnOnce(usize) -> Option<i128>,
    ) -> bool {
        let tb = self.tables;
        assert!(qi < tb.nq && i <= tb.n, "table coordinates out of range");
        if i == tb.n || self.budget.is_infinite() {
            return true;
        }
        let Some(num) = num(tb.version_of[i] as usize) else {
            return true; // no finite deadline in the suffix: slack +∞
        };
        if t.is_infinite() {
            return false;
        }
        let prefix =
            i128::try_from(tb.av_prefix[qi * (tb.n + 1) + i]).expect("prefix sums fit in i128");
        i128::from(tb.iterations) * (i128::from(t.get()) - prefix) <= num
    }

    /// `Qual_Constwc` with the wcmin envelope's value for the suffix
    /// after `i` supplied by `num(version)` — see
    /// [`BudgetView::av_admits_by`].
    fn wc_admits_by(
        &self,
        qi: usize,
        i: usize,
        t: Cycles,
        num: impl FnOnce(usize) -> Option<i128>,
    ) -> bool {
        let tb = self.tables;
        assert!(qi < tb.nq && i <= tb.n, "table coordinates out of range");
        if i == tb.n {
            return true;
        }
        if self.budget.is_infinite() {
            // Both the own deadline and the wcmin suffix are +∞.
            return true;
        }
        let cwc = i128::from(tb.cwc_next[qi * tb.n + i].get());
        // min(own, rest) admits t  ⟺  own admits t ∧ rest admits t.
        // Own bound: t + Cwc ≤ ⌊m·b/N⌋  ⟺  N·(t + Cwc) ≤ m·b.
        if let Some(m) = tb.d_slope[i] {
            if t.is_infinite() {
                return false;
            }
            let lhs = i128::from(tb.iterations) * (i128::from(t.get()) + cwc);
            let rhs = i128::from(m) * i128::from(self.budget.get());
            if lhs > rhs {
                return false;
            }
        }
        // Rest bound: t + Cwc − P_{i+1} ≤ ⌊num_wc/N⌋.
        let Some(num) = num(tb.version_of[i + 1] as usize) else {
            return true; // no finite deadline in the wcmin suffix: +∞
        };
        if t.is_infinite() {
            return false;
        }
        let prefix = i128::try_from(tb.wc_prefix[i + 1]).expect("prefix sums fit in i128");
        i128::from(tb.iterations) * (i128::from(t.get()) + cwc - prefix) <= num
    }
}

/// One frame's constraint tables as a controller reads them: a
/// [`SharedTables`] handle plus a lazy memo for
/// [`FrameTables::max_feasible`].
///
/// The frame budget is fixed for the whole frame, so on
/// budget-parametric tables each envelope's value at it is a per-frame
/// constant. The memo holds the values `q_M` reads: the av value of
/// every quality for one suffix version, and the wcmin value for one
/// version. Each is evaluated on its first probe; a probe of another
/// version resets that side. Any order of queries therefore answers
/// exactly as [`TableQuery::max_feasible`] on the same tables, with
/// O(|Q|) memory. The handle is immutable (an estimator refresh
/// replaces a shared [`BudgetTables`] copy-on-write), so the memo never
/// needs invalidating. [`SharedTables::Fixed`] tables are already
/// arrays and are read directly.
#[derive(Debug, Clone)]
pub struct FrameTables {
    tables: SharedTables,
    memo: EnvelopeMemo,
}

/// The envelope values [`FrameTables`] remembers. `None` marks a value
/// not yet evaluated; a stored `Some(None)` is an empty envelope (`+∞`).
#[derive(Debug, Clone)]
struct EnvelopeMemo {
    av_version: usize,
    /// `av[qi]`: quality `qi`'s av envelope of version `av_version`.
    av: Vec<Option<Option<i128>>>,
    wc_version: usize,
    /// The wcmin envelope of version `wc_version`.
    wc: Option<Option<i128>>,
}

impl EnvelopeMemo {
    fn av(&mut self, tables: &BudgetTables, qi: usize, v: usize, budget: Cycles) -> Option<i128> {
        if v != self.av_version {
            self.av.fill(None);
            self.av_version = v;
        }
        *self.av[qi].get_or_insert_with(|| tables.av_envs[qi][v].eval(budget.get()))
    }

    fn wc(&mut self, tables: &BudgetTables, v: usize, budget: Cycles) -> Option<i128> {
        if v != self.wc_version {
            self.wc = None;
            self.wc_version = v;
        }
        *self
            .wc
            .get_or_insert_with(|| tables.wc_envs[v].eval(budget.get()))
    }
}

impl FrameTables {
    /// Wraps one frame's tables with an empty memo.
    #[must_use]
    pub fn new(tables: impl Into<SharedTables>) -> Self {
        let tables = tables.into();
        let nq = match &tables {
            SharedTables::Fixed(_) => 0,
            SharedTables::AtBudget(t, _) => t.nq,
        };
        FrameTables {
            tables,
            memo: EnvelopeMemo {
                av_version: 0,
                av: vec![None; nq],
                wc_version: 0,
                wc: None,
            },
        }
    }

    /// The tables themselves.
    #[must_use]
    pub fn tables(&self) -> &SharedTables {
        &self.tables
    }

    /// `q_M` at position `i` and elapsed time `t` as a quality index —
    /// [`TableQuery::max_feasible`] on [`FrameTables::tables`], with
    /// budget-parametric envelope values read through the memo.
    ///
    /// # Panics
    ///
    /// Panics if `i > len()`.
    pub fn max_feasible(&mut self, i: usize, t: Cycles) -> Option<usize> {
        match &self.tables {
            SharedTables::Fixed(tables) => tables.max_feasible(i, t),
            SharedTables::AtBudget(tables, budget) => {
                let view = tables.at_budget(*budget);
                let memo = &mut self.memo;
                (0..tables.nq).rev().find(|&qi| {
                    view.av_admits_by(qi, i, t, |v| memo.av(tables, qi, v, *budget))
                        && view.wc_admits_by(qi, i, t, |v| memo.wc(tables, v, *budget))
                })
            }
        }
    }
}

/// A cheaply clonable handle to either flavor of constraint tables —
/// what a `CycleController` holds per cycle.
///
/// Frames of a paced stream share one [`ConstraintTables`] per budget
/// ([`SharedTables::Fixed`]); frames of a saturated stream each evaluate
/// the stream's [`BudgetTables`] at their own budget
/// ([`SharedTables::AtBudget`]) without building anything. Cloning is an
/// `Arc` bump either way.
#[derive(Debug, Clone)]
pub enum SharedTables {
    /// Fully materialized tables for one fixed deadline map.
    Fixed(Arc<ConstraintTables>),
    /// Budget-parametric tables evaluated at one frame budget.
    AtBudget(Arc<BudgetTables>, Cycles),
}

impl From<Arc<ConstraintTables>> for SharedTables {
    fn from(t: Arc<ConstraintTables>) -> Self {
        SharedTables::Fixed(t)
    }
}

impl From<ConstraintTables> for SharedTables {
    fn from(t: ConstraintTables) -> Self {
        SharedTables::Fixed(Arc::new(t))
    }
}

impl TableQuery for SharedTables {
    fn order(&self) -> &[ActionId] {
        match self {
            SharedTables::Fixed(t) => t.order(),
            SharedTables::AtBudget(t, _) => t.order(),
        }
    }

    fn quality_count(&self) -> usize {
        match self {
            SharedTables::Fixed(t) => t.quality_count(),
            SharedTables::AtBudget(t, _) => t.quality_count(),
        }
    }

    fn av_budget_at(&self, qi: usize, i: usize) -> Slack {
        match self {
            SharedTables::Fixed(t) => t.av_budget_at(qi, i),
            SharedTables::AtBudget(t, b) => t.at_budget(*b).av_budget_at(qi, i),
        }
    }

    fn wcmin_budget_at(&self, i: usize) -> Slack {
        match self {
            SharedTables::Fixed(t) => t.wcmin_budget_at(i),
            SharedTables::AtBudget(t, b) => t.at_budget(*b).wcmin_budget_at(i),
        }
    }

    fn deadline_at(&self, qi: usize, i: usize) -> Cycles {
        match self {
            SharedTables::Fixed(t) => t.deadline_at(qi, i),
            SharedTables::AtBudget(t, b) => TableQuery::deadline_at(&t.at_budget(*b), qi, i),
        }
    }

    fn worst_at(&self, qi: usize, i: usize) -> Cycles {
        match self {
            SharedTables::Fixed(t) => t.worst_at(qi, i),
            SharedTables::AtBudget(t, b) => TableQuery::worst_at(&t.at_budget(*b), qi, i),
        }
    }

    fn wc_admits(&self, qi: usize, i: usize, t: Cycles) -> bool {
        match self {
            SharedTables::Fixed(tb) => tb.wc_admits(qi, i, t),
            SharedTables::AtBudget(tb, b) => tb.at_budget(*b).wc_admits(qi, i, t),
        }
    }

    fn av_admits(&self, qi: usize, i: usize, t: Cycles) -> bool {
        match self {
            SharedTables::Fixed(tb) => tb.av_admits(qi, i, t),
            SharedTables::AtBudget(tb, b) => tb.at_budget(*b).av_admits(qi, i, t),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgqos_graph::GraphBuilder;
    use fgqos_time::{DeadlineMap, QualitySet};

    fn c(v: u64) -> Cycles {
        Cycles::new(v)
    }

    /// 2 iterations of a 2-action body, 2 quality levels; sequential
    /// instance order.
    fn setup(nq_hi: u8) -> (Vec<ActionId>, QualityProfile) {
        let mut b = GraphBuilder::new();
        let ids: Vec<ActionId> = (0..4).map(|i| b.action(format!("a{i}"))).collect();
        let _ = b.build().unwrap();
        let qs = QualitySet::contiguous(0, nq_hi).unwrap();
        let mut pb = QualityProfile::builder(qs.clone(), 4);
        for a in 0..4 {
            let levels: Vec<(u64, u64)> = (0..=u64::from(nq_hi))
                .map(|q| (10 * (q + 1) + a as u64, 20 * (q + 1) + a as u64))
                .collect();
            pb.set_levels(a, &levels).unwrap();
        }
        (ids, pb.build().unwrap())
    }

    fn reference(
        order: &[ActionId],
        profile: &QualityProfile,
        shape: DeadlineShape,
        iterations: usize,
        budget: Cycles,
    ) -> ConstraintTables {
        let body_len = profile.n_actions() / iterations;
        let dm = DeadlineMap::uniform(
            profile.qualities().clone(),
            budget_deadlines(shape, iterations, body_len, budget),
        );
        ConstraintTables::new(order.to_vec(), profile, &dm).unwrap()
    }

    fn assert_equivalent(
        bt: &BudgetTables,
        ct: &ConstraintTables,
        budget: Cycles,
        sample_t: &[Cycles],
    ) {
        let view = bt.at_budget(budget);
        assert_eq!(view.len(), ct.len());
        for i in 0..=ct.len() {
            assert_eq!(
                view.wcmin_budget_at(i),
                ct.wcmin_budget_at(i),
                "wcmin at i={i} budget={budget}"
            );
            for qi in 0..ct.quality_count() {
                assert_eq!(
                    view.av_budget_at(qi, i),
                    ct.av_budget_at(qi, i),
                    "av at qi={qi} i={i} budget={budget}"
                );
                if i < ct.len() {
                    assert_eq!(TableQuery::deadline_at(&view, qi, i), ct.deadline_at(qi, i));
                    assert_eq!(TableQuery::worst_at(&view, qi, i), ct.worst_at(qi, i));
                }
                for &t in sample_t {
                    assert_eq!(view.av_admits(qi, i, t), ct.av_admits(qi, i, t));
                    assert_eq!(view.wc_admits(qi, i, t), ct.wc_admits(qi, i, t));
                    assert_eq!(view.qual_const(qi, i, t), ct.qual_const(qi, i, t));
                }
            }
            for &t in sample_t {
                assert_eq!(view.max_feasible(i, t), ct.max_feasible(i, t));
                assert_eq!(view.max_feasible_soft(i, t), ct.max_feasible_soft(i, t));
            }
        }
    }

    #[test]
    fn matches_materialized_tables_at_many_budgets() {
        let (order, profile) = setup(1);
        let ts: Vec<Cycles> = [0u64, 1, 20, 45, 90, 200, 1_000]
            .iter()
            .map(|&v| c(v))
            .collect();
        for shape in [DeadlineShape::PerIteration, DeadlineShape::FinalOnly] {
            let bt = BudgetTables::new(order.clone(), &profile, shape, 2).unwrap();
            for budget in [
                Cycles::ZERO,
                c(1),
                c(37),
                c(100),
                c(101),
                c(5_000),
                c(u64::MAX / 2),
                c(u64::MAX / 2 + 7),
                c(u64::MAX - 1),
                Cycles::INFINITY,
            ] {
                let ct = reference(&order, &profile, shape, 2, budget);
                assert_equivalent(&bt, &ct, budget, &ts);
            }
        }
    }

    #[test]
    fn near_overflow_budget_regression() {
        // The legacy u64 path computed b·(k+1) before dividing: for
        // b = u64::MAX/2 and k ≥ 1 that wraps, producing bogus tiny
        // deadlines. The u128 path keeps the exact floors.
        let b = u64::MAX / 2;
        let d = budget_deadlines(DeadlineShape::PerIteration, 3, 2, c(b));
        assert_eq!(d.len(), 6);
        let expected: Vec<u64> = (0..3)
            .map(|k| u64::try_from(u128::from(b) * (k + 1) / 3).unwrap())
            .collect();
        for k in 0..3 {
            assert_eq!(d[k * 2], c(expected[k]), "iteration {k}");
            assert_eq!(d[k * 2 + 1], c(expected[k]));
            // Sanity: the wrapped u64 result would be far smaller.
            assert!(expected[k] >= b / 3);
        }
        // Deadlines are non-decreasing and end exactly at the budget.
        assert!(expected.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(expected[2], b);
    }

    #[test]
    fn zero_iterations_is_guarded_everywhere() {
        // budget_deadlines: empty, no index underflow in FinalOnly.
        assert!(budget_deadlines(DeadlineShape::FinalOnly, 0, 3, c(100)).is_empty());
        assert!(budget_deadlines(DeadlineShape::PerIteration, 0, 3, c(100)).is_empty());
        // BudgetTables::new: clean error.
        let (order, profile) = setup(1);
        assert!(matches!(
            BudgetTables::new(order, &profile, DeadlineShape::FinalOnly, 0),
            Err(SchedError::Graph(_))
        ));
    }

    #[test]
    fn constructor_validates_dimensions() {
        let (order, profile) = setup(1);
        // 4 actions do not tile over 3 iterations.
        assert!(matches!(
            BudgetTables::new(order.clone(), &profile, DeadlineShape::PerIteration, 3),
            Err(SchedError::DimensionMismatch { .. })
        ));
        // Out-of-range instance id.
        let mut bad = order;
        bad.push(ActionId::from_index(99));
        assert!(matches!(
            BudgetTables::new(bad, &profile, DeadlineShape::PerIteration, 2),
            Err(SchedError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn envelopes_stay_tiny_for_tiled_profiles() {
        // Uniformly tiled body costs + sequential order: per-iteration
        // envelopes collapse to ≤ 2 segments, the O(1)-evaluation claim.
        let mut b = GraphBuilder::new();
        let n_iter = 32usize;
        let body_len = 3usize;
        let ids: Vec<ActionId> = (0..n_iter * body_len)
            .map(|i| b.action(format!("a{i}")))
            .collect();
        let _ = b.build().unwrap();
        let qs = QualitySet::contiguous(0, 3).unwrap();
        let mut pb = QualityProfile::builder(qs, n_iter * body_len);
        for a in 0..n_iter * body_len {
            let base = (a % body_len) as u64;
            let levels: Vec<(u64, u64)> = (0..4)
                .map(|q| (100 + base + 10 * q, 200 + base + 20 * q))
                .collect();
            pb.set_levels(a, &levels).unwrap();
        }
        let profile = pb.build().unwrap();
        let bt = BudgetTables::new(ids, &profile, DeadlineShape::PerIteration, n_iter).unwrap();
        assert!(
            bt.max_segments() <= 2,
            "tiled envelopes grew to {} segments",
            bt.max_segments()
        );
        assert!(bt.memory_bytes() > 0);
        assert_eq!(bt.iterations(), n_iter);
        assert_eq!(bt.shape(), DeadlineShape::PerIteration);
        assert!(!bt.is_empty());
        assert_eq!(bt.quality_count(), 4);
        assert_eq!(bt.order().len(), n_iter * body_len);
    }

    /// Same dimensions as [`setup`], different cost values — the shape of
    /// an online-estimator profile refresh.
    fn refreshed_profile(nq_hi: u8) -> QualityProfile {
        let qs = QualitySet::contiguous(0, nq_hi).unwrap();
        let mut pb = QualityProfile::builder(qs, 4);
        for a in 0..4 {
            let levels: Vec<(u64, u64)> = (0..=u64::from(nq_hi))
                .map(|q| (13 * (q + 1) + 2 * a as u64, 29 * (q + 1) + 2 * a as u64))
                .collect();
            pb.set_levels(a, &levels).unwrap();
        }
        pb.build().unwrap()
    }

    #[test]
    fn refresh_matches_a_fresh_build() {
        let (order, profile) = setup(1);
        let profile2 = refreshed_profile(1);
        let ts: Vec<Cycles> = [0u64, 1, 20, 45, 90, 200, 1_000]
            .iter()
            .map(|&v| c(v))
            .collect();
        for shape in [DeadlineShape::PerIteration, DeadlineShape::FinalOnly] {
            let mut bt = BudgetTables::new(order.clone(), &profile, shape, 2).unwrap();
            bt.refresh(&profile2).unwrap();
            for budget in [Cycles::ZERO, c(37), c(100), c(5_000), Cycles::INFINITY] {
                let ct = reference(&order, &profile2, shape, 2, budget);
                assert_equivalent(&bt, &ct, budget, &ts);
            }
            // A second, no-op refresh changes nothing.
            bt.refresh(&profile2).unwrap();
            let ct = reference(&order, &profile2, shape, 2, c(100));
            assert_equivalent(&bt, &ct, c(100), &ts);
            // Refreshing back restores the original answers exactly.
            bt.refresh(&profile).unwrap();
            let fresh = BudgetTables::new(order.clone(), &profile, shape, 2).unwrap();
            for budget in [c(0), c(37), c(100), c(5_000)] {
                let view = bt.at_budget(budget);
                let want = fresh.at_budget(budget);
                for i in 0..=fresh.len() {
                    assert_eq!(view.wcmin_budget_at(i), want.wcmin_budget_at(i));
                    for qi in 0..fresh.quality_count() {
                        assert_eq!(view.av_budget_at(qi, i), want.av_budget_at(qi, i));
                    }
                }
            }
        }
    }

    #[test]
    fn refresh_validates_dimensions() {
        let (order, profile) = setup(1);
        let mut bt = BudgetTables::new(order, &profile, DeadlineShape::PerIteration, 2).unwrap();
        // Wrong action count.
        let qs = QualitySet::contiguous(0, 1).unwrap();
        let mut pb = QualityProfile::builder(qs, 2);
        for a in 0..2 {
            pb.set_levels(a, &[(10, 20), (30, 60)]).unwrap();
        }
        let short = pb.build().unwrap();
        assert!(matches!(
            bt.refresh(&short),
            Err(SchedError::DimensionMismatch { .. })
        ));
        // Wrong quality-level count.
        let wide = refreshed_profile(2);
        assert!(matches!(
            bt.refresh(&wide),
            Err(SchedError::DimensionMismatch { .. })
        ));
        // The failed refreshes left the tables usable.
        bt.refresh(&refreshed_profile(1)).unwrap();
    }

    #[test]
    fn equality_is_exact_and_ignores_only_the_scratch_builder() {
        let (order, profile) = setup(1);
        let shape = DeadlineShape::PerIteration;
        let tables = BudgetTables::new(order.clone(), &profile, shape, 2).unwrap();
        assert_eq!(
            tables,
            BudgetTables::new(order.clone(), &profile, shape, 2).unwrap()
        );
        // One cost cell, the deadline shape.
        let mut bumped = profile.clone();
        bumped
            .update_avg(3, fgqos_time::Quality::new(0), c(14))
            .unwrap();
        assert_ne!(
            tables,
            BudgetTables::new(order.clone(), &bumped, shape, 2).unwrap()
        );
        assert_ne!(
            tables,
            BudgetTables::new(order.clone(), &profile, DeadlineShape::FinalOnly, 2).unwrap()
        );
        // Every field but the scratch builder counts.
        let mutations: [fn(&mut BudgetTables); 15] = [
            |t| t.order.reverse(),
            |t| t.body_of[0] += 1,
            |t| t.n += 1,
            |t| t.nq += 1,
            |t| t.iterations += 1,
            |t| t.shape = DeadlineShape::FinalOnly,
            |t| t.d_slope[0] = None,
            |t| t.profile_actions += 1,
            |t| t.classes[0].0 += 1,
            |t| t.version_of[0] += 1,
            |t| t.av_envs[0].truncate(1),
            |t| t.av_prefix[1] += 1,
            |t| t.wc_envs.truncate(1),
            |t| t.wc_prefix[1] += 1,
            |t| t.cwc_next[0] = Cycles::ZERO,
        ];
        for (field, mutate) in mutations.iter().enumerate() {
            let mut other = tables.clone();
            mutate(&mut other);
            assert_ne!(tables, other, "mutation {field} went unseen");
        }
        let mut dirty = tables.clone();
        dirty.scratch.push_shallower(1, 0);
        // The remembered body cells are a cache of the same state.
        dirty.body_cells.push(profile.times_by_qidx(0, 0));
        assert_eq!(tables, dirty);
        // The materialized tables of two budgets one cycle apart differ.
        assert_ne!(
            reference(&order, &profile, shape, 2, c(240)),
            reference(&order, &profile, shape, 2, c(241))
        );
    }

    #[test]
    fn shared_tables_delegate_consistently() {
        let (order, profile) = setup(1);
        let shape = DeadlineShape::PerIteration;
        let budget = c(240);
        let bt = Arc::new(BudgetTables::new(order.clone(), &profile, shape, 2).unwrap());
        let ct = Arc::new(reference(&order, &profile, shape, 2, budget));
        let fixed = SharedTables::from(Arc::clone(&ct));
        let param = SharedTables::AtBudget(Arc::clone(&bt), budget);
        for i in 0..=ct.len() {
            for qi in 0..ct.quality_count() {
                assert_eq!(fixed.av_budget_at(qi, i), param.av_budget_at(qi, i));
                for t in [c(0), c(50), c(120), c(500)] {
                    assert_eq!(fixed.qual_const(qi, i, t), param.qual_const(qi, i, t));
                }
            }
            assert_eq!(fixed.wcmin_budget_at(i), param.wcmin_budget_at(i));
            assert_eq!(fixed.max_feasible(i, c(30)), param.max_feasible(i, c(30)));
        }
        assert_eq!(fixed.order(), param.order());
        assert_eq!(fixed.len(), param.len());
        // From<ConstraintTables> by value also works.
        let owned: SharedTables = reference(&order, &profile, shape, 2, budget).into();
        assert_eq!(owned.quality_count(), 2);
    }
}
