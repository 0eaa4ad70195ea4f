//! Per-frame budget sources: where a frame's time budget comes from.
//!
//! The paper's controller absorbs *compute* jitter against a budget
//! derived from the input pipeline's buffer deadlines (Fig. 3). This
//! module makes the budget itself a first-class, per-frame, dynamically
//! sourced quantity so the same controller also absorbs *channel*
//! jitter: a network feedback signal (congestion estimate, bandwidth
//! probe, receiver report) tightens the budget frame by frame, and the
//! fine-grain controller degrades quality instead of overrunning the
//! channel — Media-TCP-style quality-centric congestion response on top
//! of the unchanged safety argument.
//!
//! Three sources, selected per stream by the `Copy` [`BudgetSpec`]
//! carried in [`crate::runner::RunConfig`]:
//!
//! * [`BudgetSpec::Constant`] → the historical behavior: the budget is
//!   exactly the pipeline's buffer deadline, nothing else. Bit-for-bit
//!   identical to runs predating this seam.
//! * [`BudgetSpec::Trace`] → replay a recorded bandwidth trace: each
//!   frame's budget comes from the scenario's optional per-frame
//!   `budget_cycles` column (see
//!   [`crate::scenario::LoadScenario::from_trace_csv`]); frames without
//!   a recorded budget fall back to the pipeline deadline.
//! * [`BudgetSpec::Channel`] → a seeded simulated channel
//!   ([`ChannelBudget`]): bandwidth level shifts (cliffs and ramps),
//!   loss-driven multiplicative backoff, and RTT-smoothed recovery —
//!   the channel-side counterpart of
//!   [`crate::scenario::LoadScenario::adversarial`].
//!
//! Every source is **deterministic**: the budget of frame `f` is a pure
//! function of `(spec, f)`, never of wall time, worker count, or call
//! interleaving. A sourced budget never *loosens* the pipeline deadline
//! — the effective budget is the minimum of the two — so Proposition
//! 2.1's no-skip guarantee is preserved whenever the channel floor
//! keeps the minimal quality feasible.
//!
//! The budget-parametric tables of `fgqos_sched` make all of this
//! nearly free: feasibility at a never-seen budget is an O(log
//! segments) envelope evaluation (~21 ns), so a budget that moves every
//! frame costs no table rebuilds at all (the runner proves this with
//! its `full_table_builds == 0` counter).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use fgqos_time::Cycles;

/// Declarative selection of a stream's budget source.
///
/// `Copy`, so it rides in [`crate::runner::RunConfig`] (and through
/// `fgqos-serve`'s `StreamSpec`) without giving up the config's value
/// semantics. The runner turns it into a live [`BudgetSource`] at run
/// start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BudgetSpec {
    /// Budgets come from the input pipeline's buffer deadlines alone
    /// (the historical behavior, and the default).
    #[default]
    Constant,
    /// Budgets replay the scenario's recorded per-frame `budget_cycles`
    /// trace; frames without a recorded value use the pipeline deadline.
    Trace,
    /// Budgets come from a seeded simulated channel.
    Channel(ChannelParams),
}

impl BudgetSpec {
    /// Whether budgets can differ from the pipeline deadline — i.e.
    /// whether the per-frame budget is expected to *move*. The runner
    /// uses this to skip the recurring-budget table promotion (a moving
    /// budget repeating by coincidence must not trigger a full table
    /// materialization, or the zero-rebuild guarantee would be lost).
    #[must_use]
    pub fn is_moving(self) -> bool {
        !matches!(self, BudgetSpec::Constant)
    }
}

/// Parameters of the simulated channel ([`ChannelBudget`]).
///
/// All-integer so the spec stays `Copy + Eq` and the dynamics are exact:
/// probabilities are per-mille per frame, the budget band is
/// `[floor_cycles, cap_cycles]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChannelParams {
    /// Seed of the channel's own random process (independent of the
    /// load seed: the same channel can be replayed under any load).
    pub seed: u64,
    /// Lowest budget the channel ever grants, in cycles. Must be
    /// positive and at most `cap_cycles`; keep it above the stream's
    /// worst-case cost at the minimal quality to preserve the no-skip
    /// guarantee.
    pub floor_cycles: u64,
    /// Highest budget the channel ever grants, in cycles.
    pub cap_cycles: u64,
    /// Per-frame probability (‰) of a bandwidth level shift: the
    /// long-run target jumps anywhere in the band. Downward shifts are
    /// cliffs (applied immediately), upward shifts are ramps (recovered
    /// toward over `rtt_frames`).
    pub shift_per_mille: u16,
    /// Per-frame probability (‰) of a loss event: the current level
    /// halves (multiplicative backoff), bounded below by the floor.
    pub loss_per_mille: u16,
    /// RTT smoothing horizon in frames: recovery closes `1/rtt_frames`
    /// of the gap to the target per frame. Must be positive.
    pub rtt_frames: u16,
}

impl ChannelParams {
    /// A well-behaved access channel: occasional shifts, rare losses,
    /// gentle recovery.
    #[must_use]
    pub fn steady(floor_cycles: u64, cap_cycles: u64, seed: u64) -> Self {
        ChannelParams {
            seed,
            floor_cycles,
            cap_cycles,
            shift_per_mille: 25,
            loss_per_mille: 10,
            rtt_frames: 8,
        }
    }

    /// A hostile channel: frequent level shifts (cliffs included),
    /// heavy loss, fast dynamics — the channel-side counterpart of
    /// [`crate::scenario::LoadScenario::adversarial`]. Use it to stress
    /// the safety argument across bandwidth cliffs and flash congestion.
    #[must_use]
    pub fn adversarial(floor_cycles: u64, cap_cycles: u64, seed: u64) -> Self {
        ChannelParams {
            seed,
            floor_cycles,
            cap_cycles,
            shift_per_mille: 90,
            loss_per_mille: 45,
            rtt_frames: 4,
        }
    }

    /// Whether the band and smoothing horizon are well-formed.
    #[must_use]
    pub fn is_valid(self) -> bool {
        self.floor_cycles > 0 && self.floor_cycles <= self.cap_cycles && self.rtt_frames > 0
    }
}

/// A live per-frame budget provider, created from a [`BudgetSpec`] at
/// run start (one per stream; streams never share source state).
///
/// The contract every variant upholds: `frame_budget(f, d)` is
/// `min(d, source budget of frame f)` where the source budget depends
/// only on the spec and `f` — deterministic, replayable, and monotone
/// in neither direction (channels recover as well as collapse).
#[derive(Debug, Clone)]
pub enum BudgetSource {
    /// Pipeline deadlines pass through untouched.
    Constant,
    /// Recorded per-frame budgets.
    Trace(TraceBudget),
    /// Simulated channel.
    Channel(ChannelBudget),
}

impl BudgetSource {
    /// Builds the live source for a spec. `Trace` replays `trace`, the
    /// recorded per-frame budgets (consumed only for that variant).
    #[must_use]
    pub fn new(spec: BudgetSpec, trace: impl IntoIterator<Item = Option<Cycles>>) -> Self {
        match spec {
            BudgetSpec::Constant => BudgetSource::Constant,
            BudgetSpec::Trace => BudgetSource::Trace(TraceBudget::new(trace.into_iter().collect())),
            BudgetSpec::Channel(p) => BudgetSource::Channel(ChannelBudget::new(p)),
        }
    }

    /// The effective budget of camera frame `frame`, given the input
    /// pipeline's deadline-derived budget (possibly
    /// [`Cycles::INFINITY`] at the unconstrained stream tail). Never
    /// exceeds `deadline_budget`.
    pub fn frame_budget(&mut self, frame: usize, deadline_budget: Cycles) -> Cycles {
        match self {
            BudgetSource::Constant => deadline_budget,
            BudgetSource::Trace(t) => match t.budget_at(frame) {
                Some(b) => b.min(deadline_budget),
                None => deadline_budget,
            },
            BudgetSource::Channel(c) => c.budget_at(frame).min(deadline_budget),
        }
    }
}

/// Replay of a recorded bandwidth trace: one optional budget per frame.
///
/// Built from a scenario's `budget_cycles` column (see
/// [`BudgetSource::new`]) or directly from a vector. Frames past the end of the trace, or with no recorded value, yield `None`
/// (the pipeline deadline applies alone).
#[derive(Debug, Clone)]
pub struct TraceBudget {
    budgets: Vec<Option<Cycles>>,
}

impl TraceBudget {
    /// Wraps an explicit per-frame budget vector.
    #[must_use]
    pub fn new(budgets: Vec<Option<Cycles>>) -> Self {
        TraceBudget { budgets }
    }

    /// The recorded budget of frame `frame`, if any.
    #[must_use]
    pub fn budget_at(&self, frame: usize) -> Option<Cycles> {
        self.budgets.get(frame).copied().flatten()
    }
}

/// A seeded simulated channel: the bandwidth process behind
/// [`BudgetSpec::Channel`].
///
/// Dynamics per frame, in order (each event drawn from the channel's
/// own [`StdRng`]):
///
/// 1. **Level shift** (prob. `shift_per_mille`‰): the long-run target
///    jumps uniformly inside `[floor, cap]`. A target *below* the
///    current level is applied immediately — a bandwidth cliff; a
///    target above is only a goal for recovery — a ramp.
/// 2. **Loss** (prob. `loss_per_mille`‰): multiplicative backoff, the
///    level halves (never below the floor).
/// 3. **RTT-smoothed recovery** (otherwise): the level closes
///    `1/rtt_frames` of its gap to the target, at least 1 cycle.
/// 4. **Estimate jitter**: a small downward haircut (up to 1/64 of the
///    band) models conservative bandwidth estimation; the published
///    budget stays inside `[floor, cap]`.
///
/// The budget of frame `f` is a pure function of `(params, f)`:
/// querying out of order resets and replays the process, so any access
/// pattern sees the same channel.
#[derive(Debug, Clone)]
pub struct ChannelBudget {
    params: ChannelParams,
    rng: StdRng,
    /// Current bandwidth level (cycles of budget per frame).
    level: u64,
    /// Long-run target the level recovers toward.
    target: u64,
    /// Next frame index `advance` will produce.
    next_frame: usize,
    /// Budget most recently produced.
    last: u64,
}

impl ChannelBudget {
    /// Opens the channel at full capacity.
    ///
    /// # Panics
    ///
    /// Panics unless [`ChannelParams::is_valid`].
    #[must_use]
    pub fn new(params: ChannelParams) -> Self {
        assert!(
            params.is_valid(),
            "channel params need 0 < floor <= cap and rtt > 0"
        );
        ChannelBudget {
            params,
            rng: StdRng::seed_from_u64(params.seed ^ 0xC4A7_7E1B),
            level: params.cap_cycles,
            target: params.cap_cycles,
            next_frame: 0,
            last: params.cap_cycles,
        }
    }

    /// The parameters this channel was built with.
    #[must_use]
    pub fn params(&self) -> ChannelParams {
        self.params
    }

    /// The channel budget of frame `frame` — always within
    /// `[floor_cycles, cap_cycles]`.
    pub fn budget_at(&mut self, frame: usize) -> Cycles {
        if frame < self.next_frame {
            *self = ChannelBudget::new(self.params);
        }
        while self.next_frame <= frame {
            self.advance();
        }
        Cycles::new(self.last)
    }

    fn advance(&mut self) {
        let p = self.params;
        let band = p.cap_cycles - p.floor_cycles;
        if self.rng.gen_range(0u32..1000) < u32::from(p.shift_per_mille) {
            self.target = self.rng.gen_range(p.floor_cycles..=p.cap_cycles);
            if self.target < self.level {
                // Congestion is not smoothed: the cliff lands now.
                self.level = self.target;
            }
        }
        if self.rng.gen_range(0u32..1000) < u32::from(p.loss_per_mille) {
            self.level = (self.level / 2).max(p.floor_cycles);
        } else if self.level < self.target {
            let gap = self.target - self.level;
            self.level += (gap / u64::from(p.rtt_frames)).max(1);
            self.level = self.level.min(self.target);
        }
        let haircut = self.rng.gen_range(0..=(band / 64).max(1));
        self.last = self
            .level
            .saturating_sub(haircut)
            .clamp(p.floor_cycles, p.cap_cycles);
        self.next_frame += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{FrameInfo, LoadScenario};

    fn params() -> ChannelParams {
        ChannelParams::adversarial(1_000_000, 8_000_000, 7)
    }

    #[test]
    fn constant_source_passes_deadlines_through() {
        let mut s = BudgetSource::Constant;
        for (f, d) in [(0, Cycles::new(5)), (3, Cycles::INFINITY)] {
            assert_eq!(s.frame_budget(f, d), d);
        }
    }

    #[test]
    fn channel_is_deterministic_per_seed_and_bounded() {
        let mut a = ChannelBudget::new(params());
        let mut b = ChannelBudget::new(params());
        let mut c = ChannelBudget::new(ChannelParams {
            seed: 8,
            ..params()
        });
        let mut differs = false;
        for f in 0..400 {
            let va = a.budget_at(f);
            assert_eq!(va, b.budget_at(f), "frame {f}");
            let p = params();
            assert!(
                (p.floor_cycles..=p.cap_cycles).contains(&va.get()),
                "frame {f}: {va} outside the band"
            );
            differs |= va != c.budget_at(f);
        }
        assert!(differs, "different seeds must differ");
    }

    #[test]
    fn channel_replays_on_out_of_order_queries() {
        let mut s = ChannelBudget::new(params());
        let late = s.budget_at(50);
        let early = s.budget_at(3); // rewind: reset + replay
        let mut fresh = ChannelBudget::new(params());
        assert_eq!(fresh.budget_at(3), early);
        assert_eq!(fresh.budget_at(50), late);
    }

    #[test]
    fn adversarial_channel_produces_cliffs() {
        let mut s = ChannelBudget::new(params());
        let series: Vec<u64> = (0..200).map(|f| s.budget_at(f).get()).collect();
        let max = *series.iter().max().unwrap();
        let min = *series.iter().min().unwrap();
        assert!(
            max >= min.saturating_mul(2),
            "expected a 2x bandwidth cliff somewhere: min {min}, max {max}"
        );
        // And at least one frame-to-frame drop worth calling a cliff.
        let worst_drop = series
            .windows(2)
            .map(|w| w[0].saturating_sub(w[1]))
            .max()
            .unwrap();
        assert!(worst_drop > (max - min) / 4, "worst drop {worst_drop}");
    }

    #[test]
    fn sourced_budget_never_exceeds_the_pipeline_deadline() {
        let mut s = BudgetSource::Channel(ChannelBudget::new(params()));
        let tight = Cycles::new(10);
        for f in 0..50 {
            assert!(s.frame_budget(f, tight) <= tight);
            assert!(s.frame_budget(f, Cycles::INFINITY).is_finite());
        }
    }

    #[test]
    fn trace_source_reads_the_scenario_budgets() {
        let frames = vec![
            FrameInfo {
                scene: 0,
                index_in_scene: 0,
                is_iframe: true,
                activity: 1.0,
                motion: 0.5,
                texture: 0.5,
                psnr_base: 36.0,
                budget_cycles: Some(Cycles::new(1_234)),
            },
            FrameInfo {
                scene: 0,
                index_in_scene: 1,
                is_iframe: false,
                activity: 1.0,
                motion: 0.5,
                texture: 0.5,
                psnr_base: 36.0,
                budget_cycles: None,
            },
        ];
        let s = LoadScenario::from_frames(frames).unwrap();
        let mut src = BudgetSource::new(BudgetSpec::Trace, s.iter().map(|f| f.budget_cycles));
        let d = Cycles::new(9_999_999);
        assert_eq!(src.frame_budget(0, d), Cycles::new(1_234));
        assert_eq!(src.frame_budget(1, d), d, "absent budget falls back");
        assert_eq!(src.frame_budget(7, d), d, "past the trace end too");
        // A recorded budget looser than the deadline cannot loosen it.
        assert_eq!(src.frame_budget(0, Cycles::new(10)), Cycles::new(10));
    }

    #[test]
    fn spec_declares_motion() {
        assert!(!BudgetSpec::Constant.is_moving());
        assert!(BudgetSpec::Trace.is_moving());
        assert!(BudgetSpec::Channel(params()).is_moving());
    }

    #[test]
    #[should_panic(expected = "channel params")]
    fn invalid_channel_params_panic() {
        let _ = ChannelBudget::new(ChannelParams::steady(5, 4, 1));
    }
}
