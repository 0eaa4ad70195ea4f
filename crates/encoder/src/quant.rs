//! Quantization and rate control.

use crate::dct::{round_clamped, BLOCK};

/// Quantization parameter bounds (MPEG-4-style).
pub const QP_MIN: u8 = 2;
/// Upper QP bound.
pub const QP_MAX: u8 = 40;

/// Uniform quantization of one 8×8 coefficient block with a flat step of
/// `2·qp` (DC uses `qp` to keep blocking artifacts down). Returns `i16`
/// levels.
///
/// The DC coefficient is peeled off so the 63-element AC tail is one
/// branch-free constant-step loop the compiler can vectorize; each
/// element's arithmetic is unchanged, and rounding goes through the
/// libm-free exact `round_clamped` the inverse DCT shares.
#[must_use]
pub fn quantize(coeffs: &[f32; BLOCK * BLOCK], qp: u8) -> [i16; BLOCK * BLOCK] {
    let mut out = [0i16; BLOCK * BLOCK];
    let ac_step = f32::from(qp) * 2.0;
    let dc_step = f32::from(qp);
    out[0] = round_clamped(coeffs[0] / dc_step, 2048.0);
    for (o, &c) in out[1..].iter_mut().zip(&coeffs[1..]) {
        *o = round_clamped(c / ac_step, 2048.0);
    }
    out
}

/// Inverse quantization back to coefficient space (DC peeled off like
/// [`quantize`]).
#[must_use]
pub fn dequantize(levels: &[i16; BLOCK * BLOCK], qp: u8) -> [f32; BLOCK * BLOCK] {
    let mut out = [0f32; BLOCK * BLOCK];
    let ac_step = f32::from(qp) * 2.0;
    let dc_step = f32::from(qp);
    out[0] = f32::from(levels[0]) * dc_step;
    for (o, &l) in out[1..].iter_mut().zip(&levels[1..]) {
        *o = f32::from(l) * ac_step;
    }
    out
}

/// Number of nonzero levels (work driver for Quantize/Inverse_Quantize
/// and a cheap texture statistic).
#[must_use]
pub fn nonzeros(levels: &[i16; BLOCK * BLOCK]) -> u32 {
    levels.iter().filter(|&&l| l != 0).count() as u32
}

/// Proportional rate controller steering the quantization parameter
/// toward a per-frame bit target (the paper encodes at a constant target
/// bitrate of 1.1 Mbit/s).
///
/// # Example
///
/// ```
/// use fgqos_encoder::quant::RateController;
///
/// let mut rc = RateController::new(44_000, 8);
/// let qp0 = rc.qp();
/// rc.end_frame(88_000); // spent double the target
/// assert!(rc.qp() > qp0); // quantize harder
/// ```
#[derive(Debug, Clone)]
pub struct RateController {
    target_bits_per_frame: u64,
    qp: f64,
}

impl RateController {
    /// Creates a controller with a per-frame bit target and initial QP.
    ///
    /// # Panics
    ///
    /// Panics if `target_bits_per_frame == 0` or `initial_qp` outside
    /// `[QP_MIN, QP_MAX]`.
    #[must_use]
    pub fn new(target_bits_per_frame: u64, initial_qp: u8) -> Self {
        assert!(target_bits_per_frame > 0, "bit target must be positive");
        assert!(
            (QP_MIN..=QP_MAX).contains(&initial_qp),
            "initial qp outside [{QP_MIN}, {QP_MAX}]"
        );
        RateController {
            target_bits_per_frame,
            qp: f64::from(initial_qp),
        }
    }

    /// The current quantization parameter.
    #[must_use]
    pub fn qp(&self) -> u8 {
        self.qp.round().clamp(f64::from(QP_MIN), f64::from(QP_MAX)) as u8
    }

    /// Reports the bits spent on the frame just encoded and adapts QP
    /// proportionally (ratio > 1 ⇒ coarser quantization next frame).
    pub fn end_frame(&mut self, bits_used: u64) {
        let ratio = bits_used as f64 / self.target_bits_per_frame as f64;
        // Proportional control in the log domain, gain 0.5, clamped step.
        let step = (0.5 * ratio.max(1e-3).ln()).clamp(-0.75, 0.75);
        self.qp = (self.qp * step.exp()).clamp(f64::from(QP_MIN), f64::from(QP_MAX));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dct;

    #[test]
    fn quantization_roundtrip_error_is_bounded_by_step() {
        let mut coeffs = [0f32; 64];
        for (i, c) in coeffs.iter_mut().enumerate() {
            *c = (i as f32 - 32.0) * 7.3;
        }
        for qp in [2u8, 8, 24, 40] {
            let deq = dequantize(&quantize(&coeffs, qp), qp);
            for (i, (&a, &b)) in coeffs.iter().zip(deq.iter()).enumerate() {
                let step = if i == 0 {
                    f32::from(qp)
                } else {
                    f32::from(qp) * 2.0
                };
                assert!(
                    (a - b).abs() <= step / 2.0 + 0.01,
                    "qp={qp} i={i}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn quantize_matches_the_elementwise_reference_bit_for_bit() {
        // The DC-peeled loops must reproduce the original per-element
        // branchy formulation exactly, including rounding and clamping.
        let mut seed = 0x0dd_ba11_u64;
        for _ in 0..32 {
            let mut coeffs = [0f32; 64];
            for c in coeffs.iter_mut() {
                seed = seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                *c = ((seed >> 33) % 10_000) as f32 / 2.0 - 2_500.0;
            }
            for qp in [QP_MIN, 7, 23, QP_MAX] {
                let ac_step = f32::from(qp) * 2.0;
                let dc_step = f32::from(qp);
                let q = quantize(&coeffs, qp);
                for (i, (&c, &l)) in coeffs.iter().zip(q.iter()).enumerate() {
                    let step = if i == 0 { dc_step } else { ac_step };
                    assert_eq!(l, (c / step).round().clamp(-2048.0, 2048.0) as i16);
                }
                let d = dequantize(&q, qp);
                for (i, (&l, &v)) in q.iter().zip(d.iter()).enumerate() {
                    let step = if i == 0 { dc_step } else { ac_step };
                    assert_eq!(v.to_bits(), (f32::from(l) * step).to_bits());
                }
            }
        }
    }

    #[test]
    fn coarser_qp_zeroes_more_coefficients() {
        let mut input = [0i16; 64];
        for (i, v) in input.iter_mut().enumerate() {
            *v = (((i * 23) % 60) as i16) - 30;
        }
        let coeffs = dct::forward(&input);
        let fine = nonzeros(&quantize(&coeffs, 2));
        let coarse = nonzeros(&quantize(&coeffs, 32));
        assert!(coarse < fine, "coarse {coarse} vs fine {fine}");
    }

    #[test]
    fn rate_controller_converges_both_directions() {
        let mut rc = RateController::new(10_000, 10);
        for _ in 0..10 {
            rc.end_frame(30_000);
        }
        assert!(rc.qp() >= 30, "overspending must raise qp: {}", rc.qp());
        for _ in 0..20 {
            rc.end_frame(1_000);
        }
        assert!(rc.qp() <= 10, "underspending must lower qp: {}", rc.qp());
    }

    #[test]
    fn rate_controller_clamps_qp() {
        let mut rc = RateController::new(100, QP_MIN);
        for _ in 0..50 {
            rc.end_frame(1); // massive underspend
        }
        assert_eq!(rc.qp(), QP_MIN);
        for _ in 0..50 {
            rc.end_frame(1_000_000);
        }
        assert_eq!(rc.qp(), QP_MAX);
    }

    #[test]
    fn constructor_validates() {
        assert!(std::panic::catch_unwind(|| RateController::new(0, 10)).is_err());
        assert!(std::panic::catch_unwind(|| RateController::new(10, 1)).is_err());
        assert!(std::panic::catch_unwind(|| RateController::new(10, 41)).is_err());
    }
}
