//! Quality-parameterized motion estimation.
//!
//! This is the action whose execution time the QoS controller modulates:
//! the quality level maps to the full-search radius (Fig. 5 gives 8
//! levels). Bigger radius ⇒ better prediction (fewer residual bits at the
//! same quantizer ⇒ higher PSNR at the target bitrate) and more SAD
//! evaluations ⇒ more cycles. Early termination on a good match makes the
//! cost *content-dependent*, which is exactly the load fluctuation the
//! controller exists to absorb.
//!
//! # Hot path
//!
//! [`search`] is the encoder's dominant kernel at high quality (up to
//! 33×33 = 1089 candidates per macroblock at radius 16). It allocates
//! nothing: ring offsets are enumerated inline rather than collected
//! into a `Vec`. It searches a [`PaddedFrame`], the reference with its
//! edges replicated once per frame, so every candidate — border
//! macroblocks included — is scored by one path,
//! [`PaddedFrame::sad_bounded`]: 16 row slices read straight from the
//! plane, with no per-pixel clamping, bailing out of a candidate as soon
//! as its running sum exceeds the current best. The bail is
//! conservative — a candidate is abandoned only once it *strictly*
//! exceeds the best SAD — so the winning vector, its SAD, the
//! first-found tie-break, and the `evaluations` count are byte-identical
//! to an exhaustive scorer over the per-pixel clamped reference
//! (`fgqos_bench::kernel_refs::search_reference`, whose tests pin it).

use crate::frame::{Frame, PaddedFrame, MB_SIZE, PAD};

/// Search radius (pixels) per quality level 0–7. Level 0 checks only the
/// zero vector (the paper's level-0 `Motion_Estimate` averages a mere 215
/// cycles — a trivial check).
pub const RADIUS_BY_QUALITY: [i32; 8] = [0, 1, 2, 4, 6, 8, 12, 16];

// Every candidate of a real search lies inside the padded reference.
const _: () = assert!(RADIUS_BY_QUALITY[RADIUS_BY_QUALITY.len() - 1] as usize <= PAD);

/// Early-termination threshold: a SAD below this (per 256-pixel block)
/// counts as "good enough" and stops the search.
pub const EARLY_EXIT_SAD: u32 = 512;

/// Result of one motion search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MotionResult {
    /// Best motion vector (dx, dy) in pixels.
    pub mv: (i32, i32),
    /// SAD of the best match.
    pub sad: u32,
    /// Number of candidate positions evaluated (the work count).
    pub evaluations: u32,
}

/// Search radius for a quality level (clamps levels above 7).
#[must_use]
pub fn radius_for_quality(q: u8) -> i32 {
    RADIUS_BY_QUALITY[usize::from(q).min(RADIUS_BY_QUALITY.len() - 1)]
}

/// Full-search motion estimation of the macroblock at `(ox, oy)` of
/// `current` against the padded `reference`, within `radius` pixels,
/// spiralling outward from the zero vector with early termination.
///
/// The spiral order matters: natural video has mostly small motion, so
/// checking near-zero candidates first makes early termination effective
/// and cost content-dependent.
#[must_use]
pub fn search(
    current: &Frame,
    reference: &PaddedFrame,
    ox: usize,
    oy: usize,
    radius: i32,
) -> MotionResult {
    let target = current.block(ox, oy);
    let mut best = MotionResult {
        mv: (0, 0),
        sad: u32::MAX,
        evaluations: 0,
    };
    // Scores one candidate offset, yielding `true` when the search can
    // terminate early. Bounding the SAD by `best.sad` keeps the
    // acceptance test exact: a true SAD `<= best.sad` is always summed
    // in full (the bail fires only strictly above the bound), so both
    // improvements and first-found ties behave as if every candidate
    // were scored exhaustively.
    macro_rules! cand {
        ($dx:expr, $dy:expr) => {{
            let (dx, dy) = ($dx, $dy);
            let s = reference.sad_bounded(&target, ox as i32 + dx, oy as i32 + dy, best.sad);
            best.evaluations += 1;
            if s < best.sad || (s == best.sad && (dx, dy) < best.mv) {
                best.sad = s;
                best.mv = (dx, dy);
            }
            best.sad <= EARLY_EXIT_SAD
        }};
    }
    // Ring 0 (zero vector) outward, in the order of the original
    // `Vec`-collected rings (`fgqos_bench::kernel_refs`).
    'rings: for r in 0..=radius {
        if r == 0 {
            if cand!(0, 0) {
                break 'rings;
            }
            continue;
        }
        for d in -r..=r {
            if cand!(d, -r) || cand!(d, r) {
                break 'rings;
            }
        }
        for d in (-r + 1)..r {
            if cand!(-r, d) || cand!(r, d) {
                break 'rings;
            }
        }
    }
    best
}

/// Motion-compensated 16×16 prediction for a vector: a plain block copy
/// from the padded reference.
#[must_use]
pub fn predict(
    reference: &PaddedFrame,
    ox: usize,
    oy: usize,
    mv: (i32, i32),
) -> [u8; MB_SIZE * MB_SIZE] {
    reference.block(
        (ox as i32).saturating_add(mv.0),
        (oy as i32).saturating_add(mv.1),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A frame with a bright 16x16 square at (x, y) on a mid-gray field.
    fn frame_with_square(x: usize, y: usize) -> Frame {
        let mut f = Frame::new(64, 64);
        for p in f.data_mut() {
            *p = 100;
        }
        for dy in 0..16 {
            for dx in 0..16 {
                f.set(x + dx, y + dy, 220);
            }
        }
        f
    }

    /// `search` against the padded plane of `reference`.
    fn search_frame(
        current: &Frame,
        reference: &Frame,
        ox: usize,
        oy: usize,
        radius: i32,
    ) -> MotionResult {
        search(current, &PaddedFrame::from_frame(reference), ox, oy, radius)
    }

    #[test]
    fn finds_exact_translation_within_radius() {
        let reference = frame_with_square(16, 16);
        let current = frame_with_square(20, 18); // moved by (+4, +2)

        // MB at (16,16) in current contains part of the square; its true
        // match in the reference is at offset (-4, -2)... search from the
        // current square MB (20 rounds to MB at 16): use MB origin 16,16.
        let r = search_frame(&current, &reference, 16, 16, 8);
        assert_eq!(r.mv, (-4, -2));
        assert_eq!(r.sad, 0);
        assert!(r.evaluations > 1);
    }

    #[test]
    fn zero_radius_checks_only_zero_vector() {
        let reference = frame_with_square(16, 16);
        let current = frame_with_square(24, 16);
        let r = search_frame(&current, &reference, 16, 16, 0);
        assert_eq!(r.evaluations, 1);
        assert_eq!(r.mv, (0, 0));
        assert!(r.sad > 0);
    }

    #[test]
    fn early_exit_on_static_content() {
        let reference = frame_with_square(16, 16);
        let current = reference.clone();
        let r = search_frame(&current, &reference, 16, 16, 16);
        // Zero vector matches perfectly: one evaluation, done.
        assert_eq!(r.evaluations, 1);
        assert_eq!(r.sad, 0);
        assert_eq!(r.mv, (0, 0));
    }

    #[test]
    fn larger_radius_never_worse() {
        let reference = frame_with_square(16, 16);
        let current = frame_with_square(28, 24); // (+12, +8)
        let small = search_frame(&current, &reference, 16, 16, 2);
        let large = search_frame(&current, &reference, 16, 16, 16);
        assert!(large.sad <= small.sad);
        assert!(large.evaluations >= small.evaluations);
    }

    #[test]
    fn radius_mapping_is_monotone() {
        for w in RADIUS_BY_QUALITY.windows(2) {
            assert!(w[0] <= w[1]);
        }
        assert_eq!(radius_for_quality(0), 0);
        assert_eq!(radius_for_quality(7), 16);
        assert_eq!(radius_for_quality(200), 16); // clamped
    }

    #[test]
    fn prediction_samples_reference() {
        let reference = frame_with_square(16, 16);
        let padded = PaddedFrame::from_frame(&reference);
        let p = predict(&padded, 16, 16, (0, 0));
        assert_eq!(p, reference.block(16, 16));
        let shifted = predict(&padded, 16, 16, (4, 2));
        assert_eq!(shifted, reference.block_clamped(20, 18));
        let border = predict(&padded, 0, 48, (-16, 16));
        assert_eq!(border, reference.block_clamped(-16, 64));
    }
}
