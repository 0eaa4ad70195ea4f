//! Execution backends: how an action's cost reaches the controller.
//!
//! The controller's contract with the platform is tiny: after each action
//! it needs the elapsed cycle time (Section 2.2's `Ĉ(α)(i)`). *Where* that
//! time comes from is the backend's business — sampled from a stochastic
//! model on a virtual clock for reproducible experiments, or measured off
//! the real clock for live runs. [`ExecBackend`] separates "execute the
//! action and report its cost" from the quality decisions, which stay in
//! the runner/controller.

use fgqos_time::Cycles;

use crate::exec::{ExecCtx, ExecTimeModel};
use crate::runtime::Clock;

/// Accounts for the time consumed by action instances.
///
/// The runner calls [`ExecBackend::elapse`] immediately after the
/// application performed an action: `started` is the clock reading taken
/// right before the action ran, `ctx` describes the instance (declared
/// averages/worst cases, activity, reported work). The backend must
/// advance `clock` past the action and return its cost in cycles.
pub trait ExecBackend {
    /// Advances `clock` past the action instance described by `ctx` and
    /// returns the cycles it consumed.
    fn elapse(&mut self, clock: &mut dyn Clock, started: Cycles, ctx: &ExecCtx) -> Cycles;

    /// Human-readable name for labels and reports.
    fn name(&self) -> &'static str;
}

/// The simulation backend: costs come from an [`ExecTimeModel`] sample and
/// the clock is brought to `started + sample` — the modeled timeline.
///
/// On a [`crate::runtime::VirtualClock`] this reproduces the paper's
/// experiments deterministically; on a [`crate::runtime::WallClock`] it
/// paces the same simulation at real time. Anchoring to `started` rather
/// than the current instant keeps the wall clock locked to the modeled
/// timeline: the real compute time of the action is absorbed into the
/// modeled duration instead of accumulating as drift (when the model's
/// duration has already elapsed, the clock is simply not slept).
#[derive(Debug, Clone)]
pub struct ModelBackend<M> {
    model: M,
}

impl<M: ExecTimeModel> ModelBackend<M> {
    /// Wraps an execution-time model as a backend.
    pub fn new(model: M) -> Self {
        ModelBackend { model }
    }

    /// The wrapped model.
    pub fn model(&self) -> &M {
        &self.model
    }
}

impl<M: ExecTimeModel> ExecBackend for ModelBackend<M> {
    fn elapse(&mut self, clock: &mut dyn Clock, started: Cycles, ctx: &ExecCtx) -> Cycles {
        let dur = self.model.sample(ctx);
        clock.sleep_until(started + dur);
        dur
    }

    fn name(&self) -> &'static str {
        "model"
    }
}

/// The live backend: the application's action already consumed real time;
/// its cost is whatever the clock observed since `started`.
///
/// Only meaningful on a clock that moves by itself
/// ([`crate::runtime::WallClock`]); on a virtual clock every action would
/// appear free. Costs include everything the host did in between —
/// controller overhead, preemption — which is exactly what a live
/// deadline check must account for. Each action is charged at least the
/// configured *floor* (one cycle by default) so progress is visible even
/// below the clock's resolution; tests and paced replays inject a larger
/// floor instead of sleeping real time (see
/// [`MeasuredBackend::with_floor`]).
#[derive(Debug, Clone, Copy)]
pub struct MeasuredBackend {
    floor: Cycles,
}

impl Default for MeasuredBackend {
    fn default() -> Self {
        Self::new()
    }
}

impl MeasuredBackend {
    /// Creates the measuring backend with the default one-cycle floor.
    #[must_use]
    pub fn new() -> Self {
        Self::with_floor(Cycles::new(1))
    }

    /// Creates a measuring backend whose per-action charge is at least
    /// `floor` cycles. This makes the charge injectable: a test can
    /// assert exact timing on a [`crate::runtime::VirtualClock`] (where
    /// observed time is zero and every action costs exactly the floor)
    /// instead of sleeping wall time and hoping the host is idle.
    ///
    /// # Panics
    ///
    /// Panics if `floor` is zero or infinite.
    #[must_use]
    pub fn with_floor(floor: Cycles) -> Self {
        assert!(
            floor.is_finite() && floor > Cycles::ZERO,
            "floor must be positive and finite"
        );
        MeasuredBackend { floor }
    }

    /// The configured minimum per-action charge.
    #[must_use]
    pub fn floor(&self) -> Cycles {
        self.floor
    }
}

impl ExecBackend for MeasuredBackend {
    fn elapse(&mut self, clock: &mut dyn Clock, started: Cycles, _ctx: &ExecCtx) -> Cycles {
        (clock.now() - started).max(self.floor)
    }

    fn name(&self) -> &'static str {
        "measured"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Deterministic;
    use crate::runtime::{VirtualClock, WallClock};
    use fgqos_graph::ActionId;
    use fgqos_time::Quality;

    fn ctx(avg: u64, worst: u64) -> ExecCtx {
        ExecCtx {
            action: ActionId::from_index(0),
            iteration: 0,
            quality: Quality::new(3),
            avg: Cycles::new(avg),
            worst: Cycles::new(worst),
            activity: 1.0,
            work_units: None,
        }
    }

    #[test]
    fn model_backend_advances_clock_by_sample() {
        let mut clock = VirtualClock::new();
        let mut backend = ModelBackend::new(Deterministic::nominal());
        let cost = backend.elapse(&mut clock, Cycles::ZERO, &ctx(95_000, 350_000));
        assert_eq!(cost, Cycles::new(95_000));
        assert_eq!(clock.now(), Cycles::new(95_000));
        assert_eq!(backend.name(), "model");
        assert_eq!(backend.model().name(), "deterministic");
    }

    #[test]
    fn model_backend_anchors_to_the_started_instant() {
        // The clock ran ahead of `started` while the action computed
        // (wall-clock pacing): the backend must target started + dur,
        // absorbing the compute time instead of stacking on top of it.
        let mut clock = VirtualClock::at(Cycles::new(60));
        let mut backend = ModelBackend::new(Deterministic::nominal());
        let cost = backend.elapse(&mut clock, Cycles::new(50), &ctx(100, 200));
        assert_eq!(cost, Cycles::new(100));
        assert_eq!(clock.now(), Cycles::new(150));
        // Already past the target: the clock is left alone.
        let cost = backend.elapse(&mut clock, Cycles::new(10), &ctx(100, 200));
        assert_eq!(cost, Cycles::new(100));
        assert_eq!(clock.now(), Cycles::new(150));
    }

    #[test]
    fn measured_backend_charges_observed_time() {
        let mut clock = VirtualClock::at(Cycles::new(4_000));
        let mut backend = MeasuredBackend::new();
        // The "action" took the clock from 1_000 to 4_000.
        let cost = backend.elapse(&mut clock, Cycles::new(1_000), &ctx(1, 2));
        assert_eq!(cost, Cycles::new(3_000));
        assert_eq!(backend.name(), "measured");
    }

    #[test]
    fn measured_backend_floors_at_one_cycle() {
        let mut clock = VirtualClock::at(Cycles::new(50));
        let mut backend = MeasuredBackend::new();
        let cost = backend.elapse(&mut clock, Cycles::new(50), &ctx(1, 2));
        assert_eq!(cost, Cycles::new(1));
    }

    #[test]
    fn injected_floor_makes_charges_exact_without_sleeping() {
        // On a virtual clock nothing moves by itself, so the charge is
        // exactly the injected floor — no wall time, no flakiness.
        let mut clock = VirtualClock::new();
        let mut backend = MeasuredBackend::with_floor(Cycles::new(2_000_000));
        assert_eq!(backend.floor(), Cycles::new(2_000_000));
        let cost = backend.elapse(&mut clock, Cycles::ZERO, &ctx(1, 2));
        assert_eq!(cost, Cycles::new(2_000_000));
    }

    #[test]
    fn bad_floors_panic() {
        assert!(std::panic::catch_unwind(|| MeasuredBackend::with_floor(Cycles::ZERO)).is_err());
        assert!(
            std::panic::catch_unwind(|| MeasuredBackend::with_floor(Cycles::INFINITY)).is_err()
        );
    }

    #[test]
    fn measured_backend_observes_wall_time() {
        // Lower bound only: a loaded host can only make the observed
        // time larger, never smaller, so this cannot flake.
        let mut clock = WallClock::new(1_000_000_000);
        let started = clock.now();
        std::thread::sleep(std::time::Duration::from_millis(1));
        let mut backend = MeasuredBackend::new();
        let cost = backend.elapse(&mut clock, started, &ctx(1, 2));
        assert!(cost >= Cycles::new(1_000_000), "measured {cost}");
    }
}
