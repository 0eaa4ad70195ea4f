//! Churn-storm generation: seeded attach/detach scripts that stress the
//! serving layer's stream lifecycle management.
//!
//! A [`ChurnStorm`] turns a seed into a deterministic [`ChurnEvent`]
//! script with the statistics of a hostile serving day:
//!
//! * **Poisson arrivals** — exponential inter-arrival times, so attaches
//!   cluster unpredictably rather than pacing themselves politely;
//! * **heavy-tailed lifetimes** — Pareto-distributed stream lengths
//!   (many mayflies, a few hogs that camp on the capacity), built on
//!   [`LoadScenario::adversarial`] so each resident stream also fights
//!   the per-frame controller;
//! * **a flash crowd** — a burst of simultaneous attaches mid-storm,
//!   the admission ledger's worst case;
//! * **mid-life detaches** — a fraction of streams leave before their
//!   source ends, releasing capacity at arbitrary points and driving
//!   the re-admission pass.
//!
//! The script is a pure function of the configuration (seeded
//! [`StdRng`], no ambient entropy), so a storm replayed at any worker
//! count produces byte-identical admission logs and stream results —
//! the property `tests/integration_serve.rs` pins and the bench suite's
//! determinism cross-check rides on.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use fgqos_sim::runner::RunConfig;
use fgqos_sim::scenario::LoadScenario;
use fgqos_time::Cycles;

use crate::source::PacedSource;
use crate::StreamSpec;

/// What a churn script does at one instant.
pub enum ChurnAction {
    /// Attach this stream to the session.
    Attach(StreamSpec),
    /// Detach the stream with this name (mid-life departure).
    Detach(String),
}

impl std::fmt::Debug for ChurnAction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChurnAction::Attach(spec) => write!(f, "Attach({:?}, p{})", spec.name, spec.priority),
            ChurnAction::Detach(name) => write!(f, "Detach({name:?})"),
        }
    }
}

/// One timed event of a churn script, in server time.
#[derive(Debug)]
pub struct ChurnEvent {
    /// Server time the event fires at.
    pub at: Cycles,
    /// What happens.
    pub action: ChurnAction,
}

/// Configuration of a churn storm. Build one with
/// [`ChurnStorm::paper_default`] and override fields, then call
/// [`ChurnStorm::events`].
#[derive(Debug, Clone)]
pub struct ChurnStorm {
    /// Seed for every random draw in the script.
    pub seed: u64,
    /// Streams arriving by the Poisson process (the flash crowd is on
    /// top of these).
    pub arrivals: usize,
    /// Mean inter-arrival time between Poisson attaches, in camera
    /// periods of the generated streams.
    pub mean_interarrival_periods: f64,
    /// Minimum stream lifetime in frames (the Pareto scale).
    pub min_lifetime_frames: usize,
    /// Pareto shape of the lifetime tail; smaller is heavier. Must be
    /// positive.
    pub lifetime_alpha: f64,
    /// Hard cap on a stream's lifetime in frames.
    pub max_lifetime_frames: usize,
    /// Streams attaching simultaneously halfway through the arrival
    /// window.
    pub flash_crowd: usize,
    /// Fraction of streams detached mid-life by the script.
    pub detach_fraction: f64,
    /// Macroblocks per frame of every generated stream.
    pub macroblocks: usize,
}

impl ChurnStorm {
    /// The storm shape the bench suite and tests use: 12 Poisson
    /// arrivals, a 6-stream flash crowd, a quarter of streams leaving
    /// early, lifetimes 8–60 frames with a heavy tail.
    #[must_use]
    pub fn paper_default(seed: u64) -> Self {
        ChurnStorm {
            seed,
            arrivals: 12,
            mean_interarrival_periods: 4.0,
            min_lifetime_frames: 8,
            lifetime_alpha: 1.5,
            max_lifetime_frames: 60,
            flash_crowd: 6,
            detach_fraction: 0.25,
            macroblocks: 8,
        }
    }

    /// Generates the event script: attaches (Poisson plus flash crowd)
    /// and mid-life detaches, sorted by time with ties kept in
    /// generation order. Deterministic in the configuration.
    ///
    /// # Panics
    ///
    /// Panics when `lifetime_alpha` is not positive, when
    /// `min_lifetime_frames` is zero or exceeds `max_lifetime_frames`,
    /// or when `detach_fraction` is outside `[0, 1]`.
    #[must_use]
    pub fn events(&self) -> Vec<ChurnEvent> {
        assert!(self.lifetime_alpha > 0.0, "lifetime_alpha must be positive");
        assert!(
            self.min_lifetime_frames > 0 && self.min_lifetime_frames <= self.max_lifetime_frames,
            "lifetime bounds must satisfy 0 < min <= max"
        );
        assert!(
            (0.0..=1.0).contains(&self.detach_fraction),
            "detach_fraction must be in [0, 1]"
        );
        let mut rng = StdRng::seed_from_u64(self.seed);
        let config = RunConfig::paper_defaults().scaled_to_macroblocks(self.macroblocks);
        let period = config.period.get() as f64;

        let mut events: Vec<ChurnEvent> = Vec::new();
        let mut attach_times: Vec<f64> = Vec::new();
        let mut t = 0.0f64;
        for _ in 0..self.arrivals {
            // Exponential inter-arrival: -mean * ln(1 - u).
            let u: f64 = rng.gen_range(0.0..1.0);
            t += -(self.mean_interarrival_periods * period) * (1.0 - u).ln();
            attach_times.push(t);
        }
        // The flash crowd lands halfway through the arrival window.
        let spike = t / 2.0;
        for _ in 0..self.flash_crowd {
            attach_times.push(spike);
        }

        for (i, &at) in attach_times.iter().enumerate() {
            let name = format!("storm-{i:02}");
            let seed = self
                .seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(i as u64);
            // Pareto lifetime: min * (1 - u)^(-1/alpha), truncated.
            let u: f64 = rng.gen_range(0.0..1.0);
            let raw = self.min_lifetime_frames as f64 * (1.0 - u).powf(-1.0 / self.lifetime_alpha);
            let frames = (raw as usize).clamp(self.min_lifetime_frames, self.max_lifetime_frames);
            let priority = rng.gen_range(0..10u8);
            let scenario = LoadScenario::adversarial(seed).truncated(frames);
            let detach_early = rng.gen_bool(self.detach_fraction);
            events.push(ChurnEvent {
                at: Cycles::new(at as u64),
                action: ChurnAction::Attach(
                    StreamSpec::builder(name.clone())
                        .priority(priority)
                        .seed(seed)
                        .config(config)
                        .source(PacedSource::new(scenario))
                        .build(),
                ),
            });
            if detach_early {
                // Leave somewhere in the middle half of the nominal
                // lifetime, in server time.
                let frac = rng.gen_range(0.25..0.75);
                let leave = at + frac * frames as f64 * period;
                events.push(ChurnEvent {
                    at: Cycles::new(leave as u64),
                    action: ChurnAction::Detach(name),
                });
            }
        }

        events.sort_by_key(|e| e.at);
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storm_is_deterministic_and_sorted() {
        let a = ChurnStorm::paper_default(11).events();
        let b = ChurnStorm::paper_default(11).events();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.at, y.at);
            match (&x.action, &y.action) {
                (ChurnAction::Attach(sx), ChurnAction::Attach(sy)) => {
                    assert_eq!(sx.name, sy.name);
                    assert_eq!(sx.priority, sy.priority);
                    assert_eq!(sx.seed, sy.seed);
                }
                (ChurnAction::Detach(nx), ChurnAction::Detach(ny)) => assert_eq!(nx, ny),
                _ => panic!("scripts diverged in event kinds"),
            }
        }
        assert!(a.windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn storm_has_attaches_flash_crowd_and_detaches() {
        let storm = ChurnStorm::paper_default(7);
        let events = storm.events();
        let attaches = events
            .iter()
            .filter(|e| matches!(e.action, ChurnAction::Attach(_)))
            .count();
        let detaches = events
            .iter()
            .filter(|e| matches!(e.action, ChurnAction::Detach(_)))
            .count();
        assert_eq!(attaches, storm.arrivals + storm.flash_crowd);
        assert!(detaches > 0, "a quarter of 18 streams should leave early");
        // Flash crowd: some instant carries several simultaneous attaches.
        let mut max_simultaneous = 0usize;
        let mut i = 0;
        while i < events.len() {
            let t = events[i].at;
            let n = events[i..]
                .iter()
                .take_while(|e| e.at == t)
                .filter(|e| matches!(e.action, ChurnAction::Attach(_)))
                .count();
            max_simultaneous = max_simultaneous.max(n);
            i += events[i..].iter().take_while(|e| e.at == t).count();
        }
        assert!(max_simultaneous >= storm.flash_crowd);
    }
}
