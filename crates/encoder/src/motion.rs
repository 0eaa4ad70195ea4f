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
//! to an exhaustive scorer over the per-pixel clamped reference.

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
    // Ring 0 (zero vector) outward, in the exact order `ring` yields.
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

/// Candidate offsets on the square ring of Chebyshev radius `r` — the
/// test oracle for the inline enumeration in [`search`].
#[cfg(test)]
fn ring(r: i32) -> Vec<(i32, i32)> {
    if r == 0 {
        return vec![(0, 0)];
    }
    let mut out = Vec::with_capacity((8 * r) as usize);
    for d in -r..=r {
        out.push((d, -r));
        out.push((d, r));
    }
    for d in (-r + 1)..r {
        out.push((-r, d));
        out.push((r, d));
    }
    out
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
    use crate::synth::SyntheticCamera;
    use fgqos_sim::scenario::LoadScenario;

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

    fn noise_frame(w: usize, h: usize, seed: &mut u64) -> Frame {
        let mut f = Frame::new(w, h);
        for p in f.data_mut() {
            *seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *p = (*seed >> 33) as u8;
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
    fn ring_sizes_are_correct() {
        assert_eq!(ring(0).len(), 1);
        assert_eq!(ring(1).len(), 8);
        assert_eq!(ring(3).len(), 24);
        // Full search over radius r must cover (2r+1)^2 candidates.
        let total: usize = (0..=4).map(|r| ring(r).len()).sum();
        assert_eq!(total, 81);
        // No duplicates.
        let mut all: Vec<(i32, i32)> = (0..=4).flat_map(ring).collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 81);
    }

    /// The original search, verbatim: `Vec`-collected rings and an
    /// exhaustive (unbounded) SAD of each per-pixel clamped candidate.
    fn search_reference(
        current: &Frame,
        reference: &Frame,
        ox: usize,
        oy: usize,
        radius: i32,
    ) -> MotionResult {
        use crate::frame::sad;
        let target = current.block(ox, oy);
        let mut best = MotionResult {
            mv: (0, 0),
            sad: u32::MAX,
            evaluations: 0,
        };
        'rings: for r in 0..=radius {
            for (dx, dy) in ring(r) {
                let cand = reference.block_clamped(ox as i32 + dx, oy as i32 + dy);
                let s = sad(&target, &cand);
                best.evaluations += 1;
                if s < best.sad || (s == best.sad && (dx, dy) < best.mv) {
                    best.sad = s;
                    best.mv = (dx, dy);
                }
                if best.sad <= EARLY_EXIT_SAD {
                    break 'rings;
                }
            }
        }
        best
    }

    /// Asserts padded `search` ≡ `search_reference` at every radius 0–16
    /// on every macroblock of `current`, border ones included.
    fn assert_matches_reference(current: &Frame, reference: &Frame, what: &str) {
        let padded = PaddedFrame::from_frame(reference);
        for mb in 0..current.macroblocks() {
            let (ox, oy) = current.mb_origin(mb);
            for radius in 0..=16 {
                assert_eq!(
                    search(current, &padded, ox, oy, radius),
                    search_reference(current, reference, ox, oy, radius),
                    "{what}: radius {radius} at macroblock {mb}"
                );
            }
        }
    }

    #[test]
    fn padded_search_matches_the_exhaustive_clamped_reference_on_noise() {
        // Noise defeats the early-exit threshold, so the bounded SAD's
        // bail logic (not just EARLY_EXIT_SAD) decides the work done; the
        // result — vector, SAD, and evaluation count — must still be
        // identical, including where candidates hang over the border.
        let mut seed = 0xbee5_u64;
        let current = noise_frame(64, 48, &mut seed);
        let reference = noise_frame(64, 48, &mut seed);
        assert_matches_reference(&current, &reference, "noise");
        // And on correlated content where early exit does fire.
        let reference = frame_with_square(16, 16);
        let current = frame_with_square(21, 19);
        assert_matches_reference(&current, &reference, "square");
    }

    #[test]
    fn padded_search_matches_the_exhaustive_clamped_reference_on_camera_frames() {
        for seed in 1..=3 {
            let scenario = LoadScenario::paper_benchmark(seed).truncated(6);
            let cam = SyntheticCamera::new(&scenario, 64, 48, seed);
            for f in [1, 4] {
                let (reference, current) = (cam.frame(f), cam.frame(f + 1));
                assert_matches_reference(&current, &reference, &format!("seed {seed} frame {f}"));
            }
        }
    }

    #[test]
    fn vectors_past_the_padding_still_sample_the_clamped_edge() {
        let mut seed = 0x0dd_u64;
        let current = noise_frame(48, 32, &mut seed);
        let reference = noise_frame(48, 32, &mut seed);
        let padded = PaddedFrame::from_frame(&reference);
        for mb in 0..current.macroblocks() {
            let (ox, oy) = current.mb_origin(mb);
            assert_eq!(
                search(&current, &padded, ox, oy, 24),
                search_reference(&current, &reference, ox, oy, 24),
                "macroblock {mb}"
            );
            for mv in [(-40, 3), (70, -70), (-1000, 999)] {
                let (x, y) = (
                    (ox as i32).saturating_add(mv.0),
                    (oy as i32).saturating_add(mv.1),
                );
                assert_eq!(predict(&padded, ox, oy, mv), reference.block_clamped(x, y));
            }
        }
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
