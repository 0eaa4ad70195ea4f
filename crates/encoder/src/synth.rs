//! The synthetic camera: deterministic scene rendering driven by the
//! simulator's load scenario.
//!
//! Substitution (see DESIGN.md): the paper's 582-frame camera benchmark is
//! proprietary footage; what the figures depend on is its *statistics* —
//! per-scene motion and texture, scene cuts, noise. Each scene renders a
//! textured background (sum of sinusoidal gratings) plus moving rigid
//! rectangles; velocity scales with the scene's motion parameter and
//! texture with its texture parameter. Rendering frame `f` is a pure
//! function of `(seed, f)`, so the camera needs no storage.
//!
//! # Hot path
//!
//! Rendering is serial per-frame work on the encoder's critical path, so
//! [`SyntheticCamera::render_into`] is written for speed without changing
//! a single output byte:
//!
//! * the grating `sin(x·fx + drift + phase) + cos(y·fy − 0.6·drift)` is
//!   separable, so each frame computes one table of `width` sines and
//!   one cosine per row — the same `f64` expressions as a per-pixel
//!   evaluation, `width + height` calls instead of `2·width·height`;
//! * objects are filled by row spans that wrap at the frame edge, not by
//!   two `%` per pixel;
//! * the frame is rendered into a caller-owned buffer, so the encoder
//!   reuses one plane instead of allocating a frame per call.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use fgqos_sim::scenario::LoadScenario;

use crate::frame::Frame;

/// A moving rectangle in a scene.
#[derive(Debug, Clone, Copy)]
struct MovingObject {
    x0: f64,
    y0: f64,
    vx: f64,
    vy: f64,
    w: usize,
    h: usize,
    brightness: u8,
}

/// Per-scene rendering parameters (derived deterministically from the
/// scenario seed and scene index).
#[derive(Debug, Clone)]
struct SceneRender {
    grating_freq: (f64, f64),
    grating_amp: f64,
    phase: f64,
    base_luma: u8,
    objects: Vec<MovingObject>,
    noise_amp: f64,
}

/// Deterministic synthetic video source.
///
/// # Example
///
/// ```
/// use fgqos_encoder::synth::SyntheticCamera;
/// use fgqos_sim::scenario::LoadScenario;
///
/// let scenario = LoadScenario::paper_benchmark(3).truncated(10);
/// let cam = SyntheticCamera::new(&scenario, 48, 32, 7);
/// let f0 = cam.frame(0);
/// let f0_again = cam.frame(0);
/// assert_eq!(f0, f0_again); // pure function of the frame index
/// ```
#[derive(Debug, Clone)]
pub struct SyntheticCamera {
    width: usize,
    height: usize,
    seed: u64,
    scenes: Vec<SceneRender>,
    /// `(scene, index_in_scene)` per global frame.
    frame_map: Vec<(usize, usize)>,
}

impl SyntheticCamera {
    /// Builds a camera for a scenario at the given frame dimensions.
    ///
    /// # Panics
    ///
    /// Panics if dimensions are not positive multiples of 16 (checked by
    /// [`Frame::new`]).
    #[must_use]
    pub fn new(scenario: &LoadScenario, width: usize, height: usize, seed: u64) -> Self {
        // Validate dimensions early.
        let _probe = Frame::new(width, height);
        let mut scenes = Vec::with_capacity(scenario.scene_count());
        for (idx, profile) in scenario.scenes().iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(seed ^ (idx as u64).wrapping_mul(0x9E37_79B9));
            let n_objects = 2 + (profile.motion * 3.0) as usize;
            let max_speed = 1.0 + profile.motion * 7.0; // px/frame
            let objects = (0..n_objects)
                .map(|_| MovingObject {
                    x0: rng.gen_range(0.0..width as f64),
                    y0: rng.gen_range(0.0..height as f64),
                    vx: rng.gen_range(-max_speed..max_speed),
                    vy: rng.gen_range(-max_speed / 2.0..max_speed / 2.0),
                    w: rng.gen_range(8..(width / 2).max(9)),
                    h: rng.gen_range(8..(height / 2).max(9)),
                    brightness: rng.gen_range(40..220),
                })
                .collect();
            scenes.push(SceneRender {
                grating_freq: (
                    0.03 + profile.texture * rng.gen_range(0.05..0.25),
                    0.02 + profile.texture * rng.gen_range(0.05..0.2),
                ),
                grating_amp: 12.0 + profile.texture * 40.0,
                phase: rng.gen_range(0.0..std::f64::consts::TAU),
                base_luma: rng.gen_range(90..150),
                objects,
                noise_amp: 1.0 + profile.texture * 3.0,
            });
        }
        let frame_map = scenario
            .iter()
            .map(|info| (info.scene, info.index_in_scene))
            .collect();
        SyntheticCamera {
            width,
            height,
            seed,
            scenes,
            frame_map,
        }
    }

    /// Frame width in pixels.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Frame height in pixels.
    #[must_use]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Number of frames the camera produces.
    #[must_use]
    pub fn len(&self) -> usize {
        self.frame_map.len()
    }

    /// Whether the stream is empty (never true for valid scenarios).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.frame_map.is_empty()
    }

    /// Renders frame `f` into a new frame (pure function; no state).
    ///
    /// # Panics
    ///
    /// Panics if `f >= len()`.
    #[must_use]
    pub fn frame(&self, f: usize) -> Frame {
        let mut out = Frame::new(self.width, self.height);
        self.render_into(f, &mut out);
        out
    }

    /// Renders frame `f` over every pixel of `out`, reusing its buffer.
    /// The bytes equal [`SyntheticCamera::frame`]'s.
    ///
    /// # Panics
    ///
    /// Panics if `f >= len()` or `out` is not `width × height`.
    pub fn render_into(&self, f: usize, out: &mut Frame) {
        assert_eq!(
            (out.width(), out.height()),
            (self.width, self.height),
            "render target must match the camera dimensions"
        );
        let (scene_idx, k) = self.frame_map[f];
        let scene = &self.scenes[scene_idx];
        let t = k as f64;
        let w = self.width;
        // Background: drifting sinusoidal grating, one sine per column
        // and one cosine per row.
        let (fx, fy) = scene.grating_freq;
        let drift = t * 0.35;
        let base = f64::from(scene.base_luma);
        let sin_x: Vec<f64> = (0..w)
            .map(|x| (x as f64 * fx + drift + scene.phase).sin())
            .collect();
        for (y, row) in out.data_mut().chunks_exact_mut(w).enumerate() {
            let cos_y = (y as f64 * fy - drift * 0.6).cos();
            for (p, &sx) in row.iter_mut().zip(&sin_x) {
                let v = base + scene.grating_amp * (sx + cos_y) / 2.0;
                *p = v.clamp(0.0, 255.0) as u8;
            }
        }
        // Moving objects (wrap around the frame), filled span by span.
        for o in &scene.objects {
            let cx = (o.x0 + o.vx * t).rem_euclid(w as f64) as usize;
            let cy = (o.y0 + o.vy * t).rem_euclid(self.height as f64) as usize;
            for dy in 0..o.h {
                let y = (cy + dy) % self.height;
                let row = &mut out.data_mut()[y * w..(y + 1) * w];
                let mut dx = 0;
                while dx < o.w {
                    let x = (cx + dx) % w;
                    let span = (w - x).min(o.w - dx);
                    for (i, p) in row[x..x + span].iter_mut().enumerate() {
                        // Slight internal gradient so objects carry texture.
                        let v = i32::from(o.brightness) + ((dx + i + dy) % 16) as i32 - 8;
                        *p = v.clamp(0, 255) as u8;
                    }
                    dx += span;
                }
            }
        }
        // Sensor noise: deterministic per (seed, frame).
        let mut rng =
            StdRng::seed_from_u64(self.seed ^ (f as u64).wrapping_mul(0xD134_2543_DE82_EF95));
        let amp = scene.noise_amp;
        for p in out.data_mut() {
            let n = rng.gen_range(-amp..=amp);
            *p = (f64::from(*p) + n).clamp(0.0, 255.0) as u8;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::sad;

    impl SyntheticCamera {
        /// The original per-pixel renderer, verbatim: the oracle for
        /// [`SyntheticCamera::render_into`].
        fn render_reference(&self, f: usize) -> Frame {
            let (scene_idx, k) = self.frame_map[f];
            let scene = &self.scenes[scene_idx];
            let t = k as f64;
            let mut out = Frame::new(self.width, self.height);
            let (fx, fy) = scene.grating_freq;
            let drift = t * 0.35;
            for y in 0..self.height {
                for x in 0..self.width {
                    let v = f64::from(scene.base_luma)
                        + scene.grating_amp
                            * ((x as f64 * fx + drift + scene.phase).sin()
                                + (y as f64 * fy - drift * 0.6).cos())
                            / 2.0;
                    out.set(x, y, v.clamp(0.0, 255.0) as u8);
                }
            }
            for o in &scene.objects {
                let cx = (o.x0 + o.vx * t).rem_euclid(self.width as f64) as usize;
                let cy = (o.y0 + o.vy * t).rem_euclid(self.height as f64) as usize;
                for dy in 0..o.h {
                    for dx in 0..o.w {
                        let x = (cx + dx) % self.width;
                        let y = (cy + dy) % self.height;
                        let v = i32::from(o.brightness) + ((dx + dy) % 16) as i32 - 8;
                        out.set(x, y, v.clamp(0, 255) as u8);
                    }
                }
            }
            let mut rng =
                StdRng::seed_from_u64(self.seed ^ (f as u64).wrapping_mul(0xD134_2543_DE82_EF95));
            let amp = scene.noise_amp;
            for p in out.data_mut() {
                let n = rng.gen_range(-amp..=amp);
                *p = (f64::from(*p) + n).clamp(0.0, 255.0) as u8;
            }
            out
        }
    }

    #[test]
    fn render_into_matches_the_per_pixel_renderer_on_every_frame() {
        for (w, h) in [(48, 32), (176, 144)] {
            for seed in 1..=3 {
                let scenario = LoadScenario::paper_benchmark(seed);
                let cam = SyntheticCamera::new(&scenario, w, h, seed);
                // One buffer for the whole stream: every pixel must be
                // overwritten, whatever the previous frame left there.
                let mut out = Frame::new(w, h);
                for f in 0..cam.len() {
                    cam.render_into(f, &mut out);
                    assert!(
                        out == cam.render_reference(f),
                        "frame {f} of seed {seed} at {w}x{h}"
                    );
                }
            }
        }
    }

    #[test]
    fn render_into_rejects_a_mismatched_buffer() {
        let cam = camera(2);
        let mut wrong = Frame::new(32, 32);
        assert!(std::panic::catch_unwind(move || cam.render_into(0, &mut wrong)).is_err());
    }

    fn camera(frames: usize) -> SyntheticCamera {
        let scenario = LoadScenario::paper_benchmark(3).truncated(frames);
        SyntheticCamera::new(&scenario, 48, 32, 11)
    }

    #[test]
    fn frames_are_deterministic() {
        let cam = camera(10);
        assert_eq!(cam.frame(4), cam.frame(4));
        assert_eq!(cam.len(), 10);
        assert!(!cam.is_empty());
    }

    #[test]
    fn consecutive_frames_are_similar_within_a_scene() {
        let cam = camera(30);
        // Frames 5 and 6 are in scene 0 (58 frames long).
        let a = cam.frame(5);
        let b = cam.frame(6);
        let d: u64 = a
            .data()
            .iter()
            .zip(b.data())
            .map(|(&x, &y)| u64::from(x.abs_diff(y)))
            .sum();
        let per_pixel = d as f64 / a.data().len() as f64;
        assert!(per_pixel < 40.0, "temporal difference too big: {per_pixel}");
        assert!(per_pixel > 0.1, "frames must not be identical");
    }

    #[test]
    fn scene_cuts_change_content_sharply() {
        let scenario = LoadScenario::paper_benchmark(3).truncated(70);
        let cam = SyntheticCamera::new(&scenario, 48, 32, 11);
        // Scene 0 has 58 frames: 57 -> 58 crosses the cut.
        let within: u64 = {
            let a = cam.frame(56);
            let b = cam.frame(57);
            a.data()
                .iter()
                .zip(b.data())
                .map(|(&x, &y)| u64::from(x.abs_diff(y)))
                .sum()
        };
        let across: u64 = {
            let a = cam.frame(57);
            let b = cam.frame(58);
            a.data()
                .iter()
                .zip(b.data())
                .map(|(&x, &y)| u64::from(x.abs_diff(y)))
                .sum()
        };
        assert!(
            across > within * 2,
            "cut must be sharper: within {within}, across {across}"
        );
    }

    #[test]
    fn motion_is_trackable_by_block_search() {
        let cam = camera(20);
        let a = cam.frame(10);
        let b = cam.frame(11);
        let padded = crate::frame::PaddedFrame::from_frame(&a);
        // Some macroblock should match better with a nonzero motion vector
        // than with the zero vector (i.e. motion estimation has something
        // to find).
        let mut any_gain = false;
        for mb in 0..a.macroblocks() {
            let (ox, oy) = a.mb_origin(mb);
            let target = b.block(ox, oy);
            let zero = sad(&target, &a.block(ox, oy));
            let best = crate::motion::search(&b, &padded, ox, oy, 8);
            if best.sad + 256 < zero {
                any_gain = true;
                break;
            }
        }
        assert!(any_gain, "no macroblock benefited from motion search");
    }
}
