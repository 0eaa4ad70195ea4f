//! Time sources for the runner: deterministic virtual time and calibrated
//! wall-clock time.
//!
//! The paper's controller is defined over an abstract time domain
//! (Definition 2.1): it only ever *reads* the current instant and compares
//! it against per-action deadlines. Nothing in the control algorithm cares
//! whether the instant comes from a simulated cycle counter or a real
//! clock, which is what the [`Clock`] trait captures — the seam that lets
//! the same [`crate::runner::Runner`] drive both reproducible experiments
//! and live, real-time runs.

use std::time::{Duration, Instant};

use fgqos_time::Cycles;

/// A monotonic source of stream time, in cycles.
///
/// The runner uses exactly three operations: read the current instant
/// ([`Clock::now`]), account for modeled work ([`Clock::advance`]), and
/// idle until a known future event such as the next camera arrival
/// ([`Clock::sleep_until`]).
pub trait Clock {
    /// The current absolute stream time.
    fn now(&mut self) -> Cycles;

    /// Consumes `dur` cycles of modeled work: virtual clocks jump, wall
    /// clocks sleep the equivalent real duration (pacing a simulation at
    /// real time). Infinite durations are ignored.
    fn advance(&mut self, dur: Cycles);

    /// Idles until absolute time `t`. A no-op when `t` is in the past or
    /// infinite (there is no finite instant to wait for).
    fn sleep_until(&mut self, t: Cycles);

    /// Human-readable name for labels and reports.
    fn name(&self) -> &'static str;
}

/// The deterministic cycle counter the paper's experiments use (eliXim's
/// simulated cycle register, Section 3).
///
/// # Determinism
///
/// `VirtualClock` *is* the simulation's notion of time: it only moves when
/// the runner tells it to, by exactly the amount of modeled work, so two
/// runs with the same seeds produce byte-identical per-frame series
/// regardless of host load, optimization level or scheduling. Every test
/// and figure binary in this workspace runs on it. Compare [`WallClock`],
/// which trades this reproducibility for real-time behaviour.
///
/// # Example
///
/// ```
/// use fgqos_sim::runtime::{Clock, VirtualClock};
/// use fgqos_time::Cycles;
///
/// let mut c = VirtualClock::new();
/// c.advance(Cycles::new(100));
/// c.sleep_until(Cycles::new(70)); // already past: no-op
/// assert_eq!(c.now(), Cycles::new(100));
/// c.sleep_until(Cycles::new(250));
/// assert_eq!(c.now(), Cycles::new(250));
/// ```
#[derive(Debug, Clone, Default)]
pub struct VirtualClock {
    now: Cycles,
}

impl VirtualClock {
    /// A virtual clock starting at time zero.
    #[must_use]
    pub fn new() -> Self {
        VirtualClock { now: Cycles::ZERO }
    }

    /// A virtual clock starting at `t` (mid-stream restarts, tests).
    #[must_use]
    pub fn at(t: Cycles) -> Self {
        VirtualClock { now: t }
    }
}

impl Clock for VirtualClock {
    fn now(&mut self) -> Cycles {
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
        "virtual"
    }
}

/// Real time measured with [`std::time::Instant`] and reported in cycles
/// through a calibrated cycles-per-second ratio.
///
/// # Calibration vs determinism
///
/// The ratio maps the cycle domain of the declared profiles (the paper's
/// 8 GHz platform, [`fgqos_time::fig5::CLOCK_HZ`]) onto the host's wall
/// clock. A rate of `CLOCK_HZ` means deadlines are interpreted at the
/// paper's native speed; smaller rates stretch every period and deadline
/// proportionally — the "scaled-down period" used to serve streams on
/// hardware slower than the simulated platform (see
/// [`WallClock::scaled`]). Unlike [`VirtualClock`], readings include
/// whatever the host OS does between calls (scheduling, preemption,
/// `sleep` overshoot), so wall-clock runs are *not* reproducible; they
/// answer "does the controlled application keep its deadlines in real
/// time", not "what exactly happened at cycle `t`".
///
/// # Example
///
/// ```
/// use fgqos_sim::runtime::{Clock, WallClock};
/// use fgqos_time::Cycles;
///
/// // 1 Gcycle/s: one cycle per nanosecond.
/// let mut c = WallClock::new(1_000_000_000);
/// let t0 = c.now();
/// c.advance(Cycles::new(2_000_000)); // sleeps ~2 ms
/// assert!(c.now() - t0 >= Cycles::new(2_000_000));
/// ```
#[derive(Debug, Clone)]
pub struct WallClock {
    start: Instant,
    cycles_per_sec: u64,
}

impl WallClock {
    /// A wall clock starting now, with the given cycles-per-second ratio.
    ///
    /// # Panics
    ///
    /// Panics if `cycles_per_sec` is zero.
    #[must_use]
    pub fn new(cycles_per_sec: u64) -> Self {
        assert!(cycles_per_sec > 0, "cycle rate must be positive");
        WallClock {
            start: Instant::now(),
            cycles_per_sec,
        }
    }

    /// A wall clock calibrated so that `period` cycles span `wall_period`
    /// of real time — the scaled-down-period knob for running cycle-domain
    /// configurations on slower (or faster) real hardware.
    ///
    /// # Panics
    ///
    /// Panics if either period is zero or `period` is infinite.
    #[must_use]
    pub fn scaled(period: Cycles, wall_period: Duration) -> Self {
        assert!(
            period.is_finite() && period > Cycles::ZERO,
            "period must be positive and finite"
        );
        let nanos = wall_period.as_nanos();
        assert!(nanos > 0, "wall period must be positive");
        let rate = (u128::from(period.get()) * 1_000_000_000 / nanos).max(1);
        Self::new(u64::try_from(rate).expect("cycle rate fits u64"))
    }

    /// The calibrated cycles-per-second ratio.
    #[must_use]
    pub fn cycles_per_sec(&self) -> u64 {
        self.cycles_per_sec
    }

    fn cycles_of(&self, d: Duration) -> Cycles {
        let c = d.as_nanos() * u128::from(self.cycles_per_sec) / 1_000_000_000;
        Cycles::new(u64::try_from(c).unwrap_or(u64::MAX - 1))
    }

    fn duration_of(&self, t: Cycles) -> Duration {
        let nanos = u128::from(t.get()) * 1_000_000_000 / u128::from(self.cycles_per_sec);
        Duration::from_nanos(u64::try_from(nanos).unwrap_or(u64::MAX))
    }
}

impl Clock for WallClock {
    fn now(&mut self) -> Cycles {
        self.cycles_of(self.start.elapsed())
    }

    fn advance(&mut self, dur: Cycles) {
        if dur.is_infinite() {
            return;
        }
        let target = self.now() + dur;
        self.sleep_until(target);
    }

    fn sleep_until(&mut self, t: Cycles) {
        if t.is_infinite() {
            return;
        }
        let target = self.start + self.duration_of(t);
        if let Some(wait) = target.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
    }

    fn name(&self) -> &'static str {
        "wall"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtual_clock_is_deterministic_arithmetic() {
        let mut c = VirtualClock::new();
        assert_eq!(c.now(), Cycles::ZERO);
        c.advance(Cycles::new(10));
        c.advance(Cycles::new(5));
        assert_eq!(c.now(), Cycles::new(15));
        c.sleep_until(Cycles::new(100));
        assert_eq!(c.now(), Cycles::new(100));
        // Sleeping into the past never rewinds.
        c.sleep_until(Cycles::new(40));
        assert_eq!(c.now(), Cycles::new(100));
        // Infinite targets/durations are ignored (no finite instant).
        c.sleep_until(Cycles::INFINITY);
        c.advance(Cycles::INFINITY);
        assert_eq!(c.now(), Cycles::new(100));
        assert_eq!(c.name(), "virtual");
    }

    #[test]
    fn virtual_clock_can_start_mid_stream() {
        let mut c = VirtualClock::at(Cycles::new(777));
        assert_eq!(c.now(), Cycles::new(777));
    }

    #[test]
    fn wall_clock_is_monotonic_and_advances() {
        let mut c = WallClock::new(1_000_000_000); // 1 cycle = 1 ns
        let t0 = c.now();
        let t1 = c.now();
        assert!(t1 >= t0);
        let before = c.now();
        c.advance(Cycles::new(1_000_000)); // 1 ms
        assert!(c.now() - before >= Cycles::new(1_000_000));
        assert_eq!(c.name(), "wall");
    }

    #[test]
    fn wall_clock_sleep_until_reaches_target() {
        let mut c = WallClock::new(1_000_000_000);
        c.sleep_until(Cycles::new(500_000)); // 0.5 ms after start
        assert!(c.now() >= Cycles::new(500_000));
        // Past and infinite targets return immediately.
        c.sleep_until(Cycles::new(1));
        c.sleep_until(Cycles::INFINITY);
    }

    #[test]
    fn scaled_calibration_matches_rate_arithmetic() {
        // 320 Mcycle over 40 ms = the paper's 8 GHz.
        let c = WallClock::scaled(Cycles::mega(320), Duration::from_millis(40));
        assert_eq!(c.cycles_per_sec(), 8_000_000_000);
        // Scaling the period down 1000x slows the clock 1000x.
        let slow = WallClock::scaled(Cycles::mega(320), Duration::from_secs(40));
        assert_eq!(slow.cycles_per_sec(), 8_000_000);
    }

    #[test]
    fn bad_calibrations_panic() {
        assert!(std::panic::catch_unwind(|| WallClock::new(0)).is_err());
        assert!(std::panic::catch_unwind(|| WallClock::scaled(
            Cycles::ZERO,
            Duration::from_millis(1)
        ))
        .is_err());
        assert!(
            std::panic::catch_unwind(|| WallClock::scaled(Cycles::new(100), Duration::ZERO))
                .is_err()
        );
    }
}
