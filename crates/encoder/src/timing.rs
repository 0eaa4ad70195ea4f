//! Calibration of per-action work counts onto the Fig. 5 cycle tables.
//!
//! The pixel encoder reports *raw work* (SAD evaluations, nonzero
//! coefficients, coded bits); this module converts it to cycles so that,
//! at nominal content, each action's **average lands on its Fig. 5
//! average**, while content variation moves individual instances between
//! the floor and the declared worst case (the execution-time model clamps
//! at `Cwc`, preserving the safety precondition).
//!
//! Calibration constants assume the representative workloads documented
//! on each function; this module's tests check that each action's cost at
//! that work lands on its Fig. 5 average.

use std::time::Duration;

use fgqos_time::fig5;

use crate::motion::{radius_for_quality, RADIUS_BY_QUALITY};

/// Fraction of the full search window a typical (early-terminating)
/// search visits. Motion cycles are normalized so that visiting this
/// fraction costs exactly the Fig. 5 average.
pub const TYPICAL_SEARCH_FRACTION: f64 = 0.7;

/// `Grab_Macro_Block`: fixed copy cost (Fig. 5: avg 12 000).
#[must_use]
pub fn grab_cycles() -> u64 {
    12_000
}

/// Number of candidate evaluations a "typical" search at level `q`
/// visits (the calibration anchor: this many evaluations cost exactly
/// the Fig. 5 average).
#[must_use]
pub fn typical_evaluations(q: u8) -> u32 {
    let r = radius_for_quality(q);
    let window = (2 * r + 1) * (2 * r + 1);
    ((f64::from(window) * TYPICAL_SEARCH_FRACTION).round() as u32).max(1)
}

/// `Motion_Estimate`: proportional to visited candidates, normalized per
/// quality level so a typical search costs the Fig. 5 average for that
/// level.
#[must_use]
pub fn motion_cycles(q: u8, evaluations: u32) -> u64 {
    let qi = usize::from(q).min(RADIUS_BY_QUALITY.len() - 1);
    let (avg, _) = fig5::MOTION_ESTIMATE_TIMES[qi];
    let typical = typical_evaluations(q);
    ((avg as f64) * f64::from(evaluations) / f64::from(typical)).round() as u64
}

/// `Discrete_Cosine_Transform`: fixed (Fig. 5 declares avg = wc =
/// 16 000 — the transform is data-independent).
#[must_use]
pub fn dct_cycles() -> u64 {
    16_000
}

/// `Quantize`: affine in the number of nonzero levels of the macroblock
/// (typical ≈ 83 nonzeros ⇒ 6 000 cycles).
#[must_use]
pub fn quantize_cycles(nonzeros: u32) -> u64 {
    5_000 + 12 * u64::from(nonzeros)
}

/// `Intra_Predict`: fixed (Fig. 5: avg = wc = 4 000).
#[must_use]
pub fn intra_cycles() -> u64 {
    4_000
}

/// `Compress`: affine in coded bits (typical ≈ 400 bits ⇒ 5 000 cycles;
/// bursts clamp at the 50 000 worst case downstream).
#[must_use]
pub fn compress_cycles(bits: u32) -> u64 {
    3_000 + 5 * u64::from(bits)
}

/// `Inverse_Quantize`: affine in nonzeros (typical ≈ 80 ⇒ 4 000).
#[must_use]
pub fn inverse_quantize_cycles(nonzeros: u32) -> u64 {
    3_600 + 5 * u64::from(nonzeros)
}

/// `Inverse_Discrete_Cosine_Transform`: affine in nonzeros (typical ≈ 83
/// ⇒ 20 000).
#[must_use]
pub fn idct_cycles(nonzeros: u32) -> u64 {
    17_500 + 30 * u64::from(nonzeros)
}

/// `Reconstruct`: affine in nonzeros (typical ≈ 80 ⇒ 10 000).
#[must_use]
pub fn reconstruct_cycles(nonzeros: u32) -> u64 {
    9_600 + 5 * u64::from(nonzeros)
}

/// Wall-clock calibration: the cycles-per-second rate at which a frame of
/// `macroblocks` macroblocks — carrying its proportional share of the
/// paper's 320 Mcycle period — spans exactly `wall_period` of real time.
///
/// At the paper's own scale this recovers the 8 GHz platform
/// (`wall_rate(1584, 40ms) == fig5::CLOCK_HZ`); smaller frames or longer
/// wall periods scale the rate down, which is how the live example runs
/// the pixel encoder on commodity hardware without violating deadlines.
/// Feed the result to `fgqos_sim::runtime::WallClock::new`.
///
/// # Panics
///
/// Panics if `macroblocks` is zero or `wall_period` is zero.
#[must_use]
pub fn wall_rate(macroblocks: usize, wall_period: Duration) -> u64 {
    assert!(macroblocks > 0, "macroblocks must be positive");
    let period_cycles = (u128::from(fig5::PERIOD_CYCLES) * macroblocks as u128
        / fig5::MACROBLOCKS_PER_FRAME as u128) as u64;
    // The rate arithmetic lives in one place: WallClock::scaled.
    fgqos_sim::runtime::WallClock::scaled(fgqos_time::Cycles::new(period_cycles), wall_period)
        .cycles_per_sec()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn motion_calibration_hits_fig5_averages_at_typical_work() {
        for q in 0..8u8 {
            let cycles = motion_cycles(q, typical_evaluations(q));
            let (avg, _) = fig5::MOTION_ESTIMATE_TIMES[q as usize];
            assert_eq!(cycles, avg, "q{q}");
        }
    }

    #[test]
    fn motion_full_search_stays_under_worst_case() {
        for q in 0..8u8 {
            let r = radius_for_quality(q);
            let window = ((2 * r + 1) * (2 * r + 1)) as u32;
            let cycles = motion_cycles(q, window);
            let (_, wc) = fig5::MOTION_ESTIMATE_TIMES[q as usize];
            // Full search = typical / 0.7 ≈ 1.43x the average — well
            // under every Fig. 5 worst case (wc/avg >= 3.5 at q>=1). At
            // q0 a single evaluation is the whole window.
            assert!(cycles <= wc, "q{q}: full search {cycles} exceeds wc {wc}");
        }
    }

    #[test]
    fn early_exit_makes_static_content_cheap() {
        // One evaluation at q7 should cost far less than the average.
        let one = motion_cycles(7, 1);
        let (avg, _) = fig5::MOTION_ESTIMATE_TIMES[7];
        assert!(one * 100 < avg, "one eval costs {one}");
    }

    #[test]
    fn affine_actions_hit_averages_at_typical_work() {
        assert_eq!(quantize_cycles(83), 5_996);
        assert_eq!(compress_cycles(400), 5_000);
        assert_eq!(inverse_quantize_cycles(80), 4_000);
        assert_eq!(idct_cycles(83), 19_990);
        assert_eq!(reconstruct_cycles(80), 10_000);
        assert_eq!(grab_cycles(), 12_000);
        assert_eq!(dct_cycles(), 16_000);
        assert_eq!(intra_cycles(), 4_000);
    }

    #[test]
    fn wall_rate_recovers_the_paper_platform() {
        // Full-size frames at the camera's real 40 ms period = 8 GHz.
        assert_eq!(
            wall_rate(fig5::MACROBLOCKS_PER_FRAME, Duration::from_millis(40)),
            fig5::CLOCK_HZ
        );
        // Stretching the period 1000x slows the platform 1000x.
        assert_eq!(
            wall_rate(fig5::MACROBLOCKS_PER_FRAME, Duration::from_secs(40)),
            fig5::CLOCK_HZ / 1000
        );
        // Rates never collapse to zero.
        assert!(wall_rate(1, Duration::from_secs(3600)) >= 1);
    }

    #[test]
    fn wall_rate_rejects_degenerate_inputs() {
        assert!(std::panic::catch_unwind(|| wall_rate(0, Duration::from_millis(1))).is_err());
        assert!(std::panic::catch_unwind(|| wall_rate(10, Duration::ZERO)).is_err());
    }

    #[test]
    fn work_monotonicity() {
        assert!(quantize_cycles(10) < quantize_cycles(100));
        assert!(compress_cycles(10) < compress_cycles(1_000));
        assert!(motion_cycles(3, 10) < motion_cycles(3, 60));
    }
}
