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
//!
//! Two more savings keep that identity.
//!
//! * **Successive elimination** (Li & Salari, 1995). For any two blocks,
//!   `|Σtarget − Σcandidate| ≤ SAD`. The reference plane keeps the sum of
//!   the block at every origin ([`PaddedFrame::block_sum`]), so a
//!   candidate whose bound is *strictly* above the current best SAD
//!   cannot win or tie, and is skipped without being scored. A bound
//!   equal to the best is still scored in full, so ties resolve as
//!   before. A skipped candidate still counts in `evaluations`: that
//!   count is the work unit of [`crate::timing::motion_cycles`], which
//!   every simulated timeline depends on. The early-exit test cannot
//!   change either, since the best match did not move.
//! * **Resuming** ([`SearchTrace`]). The spiral at radius `r` is a prefix
//!   of the spiral at any larger radius, and the best match after ring
//!   `k` fully determines how rings `k+1…` go. A trace records that state
//!   after each radius of [`RADIUS_BY_QUALITY`], plus the early exit if
//!   the search took one. A later search of the same macroblock in the
//!   same frame then reads its answer from the trace, or continues the
//!   spiral from the deepest recorded ring inside its radius, with the
//!   same vector, SAD and `evaluations` as a fresh search. The encoder
//!   keeps one trace per macroblock for the frame, so a mis-speculated
//!   search that the commit re-runs at another radius does not start
//!   again from ring 0.

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

/// The state before ring 0: no candidate seen yet.
const UNSEARCHED: MotionResult = MotionResult {
    mv: (0, 0),
    sad: u32::MAX,
    evaluations: 0,
};

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
///
/// A one-shot search: [`SearchTrace::search`] on an empty trace.
#[must_use]
pub fn search(
    current: &Frame,
    reference: &PaddedFrame,
    ox: usize,
    oy: usize,
    radius: i32,
) -> MotionResult {
    SearchTrace::default().search(current, reference, ox, oy, radius)
}

/// How far one macroblock's spiral has gone in this frame: the best match
/// after each radius of [`RADIUS_BY_QUALITY`] searched so far, and the
/// early exit once a search took it (see the module docs).
///
/// A trace belongs to one macroblock of one (current, reference) frame
/// pair; [`SearchTrace::clear`] it before the pair changes.
///
/// # Example
///
/// ```
/// use fgqos_encoder::frame::{Frame, PaddedFrame};
/// use fgqos_encoder::motion::{search, SearchTrace};
///
/// // A bright square that moved by (+6, +3).
/// let (mut reference, mut current) = (Frame::new(64, 64), Frame::new(64, 64));
/// for y in 0..16 {
///     for x in 0..16 {
///         reference.set(16 + x, 16 + y, 200);
///         current.set(22 + x, 19 + y, 200);
///     }
/// }
/// let reference = PaddedFrame::from_frame(&reference);
/// let mut trace = SearchTrace::default();
/// let wide = trace.search(&current, &reference, 16, 16, 8);
/// assert_eq!((wide.mv, wide.sad), ((-6, -3), 0));
/// // A narrower search reads its answer from the trace.
/// let narrow = trace.search(&current, &reference, 16, 16, 2);
/// assert_eq!(narrow, search(&current, &reference, 16, 16, 2));
/// assert!(narrow.evaluations < wide.evaluations);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchTrace {
    /// `checkpoints[i]`: the best match after ring
    /// `RADIUS_BY_QUALITY[i]`, valid for every radius up to `searched`.
    checkpoints: [MotionResult; RADIUS_BY_QUALITY.len()],
    /// The outermost ring searched in full (−1: none).
    searched: i32,
    /// The ring an earlier search exited early in, and its result.
    exit: Option<(i32, MotionResult)>,
}

impl Default for SearchTrace {
    fn default() -> Self {
        SearchTrace {
            checkpoints: [UNSEARCHED; RADIUS_BY_QUALITY.len()],
            searched: -1,
            exit: None,
        }
    }
}

impl SearchTrace {
    /// Forgets every ring searched (a new frame or macroblock).
    pub fn clear(&mut self) {
        *self = SearchTrace::default();
    }

    /// [`search`] at `radius`, reading what this trace already holds and
    /// recording what it adds.
    ///
    /// A search whose radius reaches an earlier early exit returns that
    /// exit. Otherwise the spiral continues from the deepest recorded
    /// ring inside `radius` (from ring 0 on an empty trace). Either way
    /// the result — vector, SAD and `evaluations` — equals a fresh
    /// search at `radius`.
    pub fn search(
        &mut self,
        current: &Frame,
        reference: &PaddedFrame,
        ox: usize,
        oy: usize,
        radius: i32,
    ) -> MotionResult {
        if let Some((ring, result)) = self.exit {
            if radius >= ring {
                return result;
            }
        }
        let reach = radius.min(self.searched);
        let (first, mut best) = RADIUS_BY_QUALITY
            .iter()
            .zip(&self.checkpoints)
            .rev()
            .find(|&(&r, _)| r <= reach)
            .map_or((0, UNSEARCHED), |(&r, &cp)| (r + 1, cp));
        if first > radius {
            return best;
        }
        let target = current.block(ox, oy);
        let target_sum: u32 = target.iter().map(|&p| u32::from(p)).sum();
        // Scores one candidate offset, yielding `true` when the search
        // can terminate early. The elimination bound and the bounded SAD
        // both compare *strictly* above `best.sad`, so every candidate
        // whose true SAD is `<= best.sad` is summed in full: improvements
        // and first-found ties behave as if every candidate were scored
        // exhaustively.
        macro_rules! cand {
            ($dx:expr, $dy:expr) => {{
                let (dx, dy) = ($dx, $dy);
                let (x, y) = (ox as i32 + dx, oy as i32 + dy);
                best.evaluations += 1;
                if target_sum.abs_diff(u32::from(reference.block_sum(x, y))) <= best.sad {
                    let s = reference.sad_bounded(&target, x, y, best.sad);
                    if s < best.sad || (s == best.sad && (dx, dy) < best.mv) {
                        best.sad = s;
                        best.mv = (dx, dy);
                    }
                }
                best.sad <= EARLY_EXIT_SAD
            }};
        }
        // Rings outward, in the order of the original `Vec`-collected
        // rings (`fgqos_bench::kernel_refs`).
        for r in first..=radius {
            let exited = 'ring: {
                if r == 0 {
                    break 'ring cand!(0, 0);
                }
                for d in -r..=r {
                    if cand!(d, -r) || cand!(d, r) {
                        break 'ring true;
                    }
                }
                for d in (-r + 1)..r {
                    if cand!(-r, d) || cand!(r, d) {
                        break 'ring true;
                    }
                }
                false
            };
            if exited {
                self.exit = Some((r, best));
                return best;
            }
            if let Some(i) = RADIUS_BY_QUALITY.iter().position(|&c| c == r) {
                self.checkpoints[i] = best;
            }
            self.searched = self.searched.max(r);
        }
        best
    }
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
    fn a_candidate_whose_bound_equals_the_best_is_still_scored() {
        // Flat blocks: every candidate's SAD equals its elimination
        // bound, so every candidate ties the zero vector at the bound,
        // and the tie-break must still reach the smallest vector.
        let mut reference = Frame::new(64, 64);
        reference.data_mut().fill(100);
        let mut current = Frame::new(64, 64);
        current.data_mut().fill(103);
        let r = search_frame(&current, &reference, 16, 16, 2);
        assert_eq!((r.mv, r.sad, r.evaluations), ((-2, -2), 3 * 256, 25));
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

    /// Asserts that every ordered pair and triple of quality radii,
    /// queried in turn on one trace, answers each query exactly as a
    /// fresh search at its radius does, on every macroblock. Returns the
    /// fresh radius-16 results.
    fn assert_resumes_like_fresh(
        current: &Frame,
        reference: &Frame,
        what: &str,
    ) -> Vec<MotionResult> {
        let padded = PaddedFrame::from_frame(reference);
        let mut widest = Vec::new();
        for mb in 0..current.macroblocks() {
            let (ox, oy) = current.mb_origin(mb);
            let fresh = RADIUS_BY_QUALITY.map(|r| search(current, &padded, ox, oy, r));
            for (&ra, &fa) in RADIUS_BY_QUALITY.iter().zip(&fresh) {
                let mut first = SearchTrace::default();
                assert_eq!(first.search(current, &padded, ox, oy, ra), fa);
                for (&rb, &fb) in RADIUS_BY_QUALITY.iter().zip(&fresh) {
                    let mut second = first;
                    let got = second.search(current, &padded, ox, oy, rb);
                    assert_eq!(got, fb, "{what}: macroblock {mb}, radii {ra} then {rb}");
                    for (&rc, &fc) in RADIUS_BY_QUALITY.iter().zip(&fresh) {
                        let mut third = second;
                        let got = third.search(current, &padded, ox, oy, rc);
                        assert_eq!(got, fc, "{what}: macroblock {mb}, radii {ra}, {rb}, {rc}");
                    }
                }
            }
            widest.push(fresh[RADIUS_BY_QUALITY.len() - 1]);
        }
        widest
    }

    #[test]
    fn a_resumed_search_equals_a_fresh_one() {
        use crate::synth::SyntheticCamera;
        use fgqos_sim::scenario::LoadScenario;
        let scenario = LoadScenario::paper_benchmark(4).truncated(200);
        let cam = SyntheticCamera::new(&scenario, 64, 48, 4);
        // Static content: every macroblock exits at ring 0.
        let still = cam.frame(30);
        let widest = assert_resumes_like_fresh(&still, &still, "static");
        assert!(widest.iter().all(|r| r.evaluations == 1));
        // High motion (scene 3 of the paper benchmark) and a scene cut
        // (scene 0 ends at frame 57): searches that run out to the rim.
        assert_resumes_like_fresh(&cam.frame(196), &cam.frame(195), "high motion");
        let widest = assert_resumes_like_fresh(&cam.frame(58), &cam.frame(57), "scene cut");
        assert!(widest.iter().any(|r| r.evaluations == 33 * 33));
        // Noise: early exit never fires, elimination prunes nothing.
        let mut seed = 0x7ace_u64;
        let mut noise = || {
            let mut f = Frame::new(64, 48);
            for p in f.data_mut() {
                seed = seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                *p = (seed >> 33) as u8;
            }
            f
        };
        let (current, reference) = (noise(), noise());
        assert_resumes_like_fresh(&current, &reference, "noise");
    }

    #[test]
    fn a_trace_past_the_table_radii_still_resumes_exactly() {
        // One-shot callers search any radius; the trace then holds
        // checkpoints only at the table radii and resumes from the
        // deepest one inside the query.
        let reference = frame_with_square(16, 16);
        let current = frame_with_square(40, 36);
        let padded = PaddedFrame::from_frame(&reference);
        let mut trace = SearchTrace::default();
        for radius in [24, 20, 3, 17, 0, 16, 9] {
            assert_eq!(
                trace.search(&current, &padded, 32, 32, radius),
                search(&current, &padded, 32, 32, radius),
                "radius {radius}"
            );
        }
        trace.clear();
        assert_eq!(trace, SearchTrace::default());
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
