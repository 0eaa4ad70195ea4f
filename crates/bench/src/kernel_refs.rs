//! The encoder kernels in their original, unoptimized form: the timing
//! baselines of `bench_smoke` (`BENCH_kernels.json`) and the one
//! bit-identity oracle per kernel. This module's tests hold every
//! production kernel to its oracle under `cargo test`; `bench_smoke`
//! re-checks identity on the inputs it times.
//!
//! * [`dct_forward_reference`] / [`dct_inverse_reference`] — the 8×8
//!   DCT with a `cos()` per multiply, the oracle of
//!   [`fgqos_encoder::dct::forward`] / [`fgqos_encoder::dct::inverse`];
//! * [`search_reference`] — `Vec`-collected rings and an exhaustive SAD
//!   of each per-pixel clamped candidate, against the unpadded frame;
//! * [`compress_reference`] — one macroblock's `Compress` kernel with the
//!   zigzag order rebuilt per block and a bit-at-a-time writer.
//!
//! [`compress`] is the production form of the same macroblock coding,
//! built from the public entropy API exactly as the encoder's `Compress`
//! action uses it.

use fgqos_encoder::dct::BLOCK;
use fgqos_encoder::entropy::{encode_block, encode_mv, zigzag_order, BitWriter};
use fgqos_encoder::frame::{sad, Frame};
use fgqos_encoder::motion::{MotionResult, EARLY_EXIT_SAD};

#[inline]
fn basis(x: usize, u: usize) -> f32 {
    let angle = std::f32::consts::PI * (2.0 * x as f32 + 1.0) * u as f32 / (2.0 * BLOCK as f32);
    angle.cos()
}

#[inline]
fn scale(u: usize) -> f32 {
    if u == 0 {
        (1.0 / BLOCK as f32).sqrt()
    } else {
        (2.0 / BLOCK as f32).sqrt()
    }
}

/// The original scalar forward DCT: the oracle of
/// [`fgqos_encoder::dct::forward`] (bit-identical coefficients).
#[must_use]
pub fn dct_forward_reference(input: &[i16; BLOCK * BLOCK]) -> [f32; BLOCK * BLOCK] {
    let mut tmp = [0f32; BLOCK * BLOCK];
    let mut out = [0f32; BLOCK * BLOCK];
    // Rows.
    for y in 0..BLOCK {
        for u in 0..BLOCK {
            let mut acc = 0f32;
            for x in 0..BLOCK {
                acc += f32::from(input[y * BLOCK + x]) * basis(x, u);
            }
            tmp[y * BLOCK + u] = acc * scale(u);
        }
    }
    // Columns.
    for u in 0..BLOCK {
        for v in 0..BLOCK {
            let mut acc = 0f32;
            for y in 0..BLOCK {
                acc += tmp[y * BLOCK + u] * basis(y, v);
            }
            out[v * BLOCK + u] = acc * scale(v);
        }
    }
    out
}

/// The original scalar inverse DCT: the oracle of
/// [`fgqos_encoder::dct::inverse`] (identical residuals).
#[must_use]
pub fn dct_inverse_reference(coeffs: &[f32; BLOCK * BLOCK]) -> [i16; BLOCK * BLOCK] {
    let mut tmp = [0f32; BLOCK * BLOCK];
    let mut out = [0i16; BLOCK * BLOCK];
    // Columns.
    for u in 0..BLOCK {
        for y in 0..BLOCK {
            let mut acc = 0f32;
            for v in 0..BLOCK {
                acc += scale(v) * coeffs[v * BLOCK + u] * basis(y, v);
            }
            tmp[y * BLOCK + u] = acc;
        }
    }
    // Rows.
    for y in 0..BLOCK {
        for x in 0..BLOCK {
            let mut acc = 0f32;
            for u in 0..BLOCK {
                acc += scale(u) * tmp[y * BLOCK + u] * basis(x, u);
            }
            out[y * BLOCK + x] = acc.round().clamp(-4096.0, 4096.0) as i16;
        }
    }
    out
}

/// Candidate offsets on the square ring of Chebyshev radius `r`, in
/// search order.
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

/// The original motion search: the oracle of
/// [`fgqos_encoder::motion::search`] (same winner, SAD and `evaluations`).
#[must_use]
pub fn search_reference(
    current: &Frame,
    reference: &Frame,
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

/// Codes one macroblock as the encoder's `Compress` action does: the
/// mode bit, the vector of an inter block, then the four coefficient
/// blocks. Returns the stream and its length in bits.
#[must_use]
pub fn compress(levels: &[[i16; 64]; 4], mv: Option<(i32, i32)>) -> (Vec<u8>, usize) {
    let mut w = BitWriter::new();
    w.put_bit(mv.is_some());
    if let Some(mv) = mv {
        encode_mv(&mut w, mv);
    }
    for block in levels {
        encode_block(&mut w, block);
    }
    let bits = w.bit_len();
    (w.into_bytes(), bits)
}

/// The original bit-at-a-time writer.
#[derive(Default)]
struct BitByBit {
    bytes: Vec<u8>,
    bit_len: usize,
}

impl BitByBit {
    fn put_bit(&mut self, bit: bool) {
        if self.bit_len.is_multiple_of(8) {
            self.bytes.push(0);
        }
        if bit {
            let byte = self.bit_len / 8;
            self.bytes[byte] |= 1 << (7 - self.bit_len % 8);
        }
        self.bit_len += 1;
    }

    fn put_ue(&mut self, value: u64) {
        let v = value + 1;
        let bits = 64 - v.leading_zeros();
        for _ in 0..bits - 1 {
            self.put_bit(false);
        }
        for i in (0..bits).rev() {
            self.put_bit(v >> i & 1 == 1);
        }
    }

    fn put_se(&mut self, value: i64) {
        let mapped = if value > 0 {
            (value as u64) * 2 - 1
        } else {
            (-value as u64) * 2
        };
        self.put_ue(mapped);
    }
}

/// The original `Compress` kernel: the oracle of [`compress`] (same bytes
/// and bit count).
#[must_use]
pub fn compress_reference(levels: &[[i16; 64]; 4], mv: Option<(i32, i32)>) -> (Vec<u8>, usize) {
    let mut w = BitByBit::default();
    w.put_bit(mv.is_some());
    if let Some((x, y)) = mv {
        w.put_se(i64::from(x));
        w.put_se(i64::from(y));
    }
    for block in levels {
        let order = zigzag_order();
        let mut run = 0u64;
        for &pos in order.iter() {
            let l = block[pos];
            if l == 0 {
                run += 1;
            } else {
                w.put_ue(run);
                w.put_se(i64::from(l));
                run = 0;
            }
        }
        w.put_ue(63);
        w.put_se(0);
    }
    (w.bytes, w.bit_len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgqos_encoder::dct;
    use fgqos_encoder::frame::PaddedFrame;
    use fgqos_encoder::motion::{predict, search};
    use fgqos_encoder::synth::SyntheticCamera;
    use fgqos_sim::scenario::LoadScenario;

    fn lcg(seed: &mut u64) -> u64 {
        *seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *seed >> 33
    }

    /// Deterministic pseudo-random residual in the full ±255 range.
    fn lcg_block(seed: &mut u64) -> [i16; 64] {
        std::array::from_fn(|_| (lcg(seed) % 511) as i16 - 255)
    }

    fn noise_frame(w: usize, h: usize, seed: &mut u64) -> Frame {
        let mut f = Frame::new(w, h);
        for p in f.data_mut() {
            *p = lcg(seed) as u8;
        }
        f
    }

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

    #[test]
    fn vectorized_dct_matches_the_scalar_reference_bit_for_bit() {
        let mut seed = 0x5eed_cafe_u64;
        for _ in 0..64 {
            let input = lcg_block(&mut seed);
            let f_new = dct::forward(&input);
            let f_ref = dct_forward_reference(&input);
            for (i, (a, b)) in f_new.iter().zip(f_ref.iter()).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "forward coeff {i}");
            }
            assert_eq!(dct::inverse(&f_new), dct_inverse_reference(&f_ref));
        }
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

    /// Asserts padded `search` ≡ [`search_reference`] at every radius
    /// 0–16 on every macroblock of `current`, border ones included.
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
    fn compress_matches_the_bit_at_a_time_reference() {
        // Sparse levels as quantization leaves them (long zero runs, the
        // run-length path), dense full-range ones, and an all-zero
        // macroblock; each coded intra and at several vectors.
        let mut seed = 0xc0de_u64;
        let mut macroblocks: Vec<[[i16; 64]; 4]> = (0..24)
            .map(|i| {
                std::array::from_fn(|_| {
                    std::array::from_fn(|_| {
                        let v = lcg(&mut seed);
                        if i % 2 == 0 && !v.is_multiple_of(5) {
                            0
                        } else {
                            (v >> 3) as i16 % 2048
                        }
                    })
                })
            })
            .collect();
        macroblocks.push([[0; 64]; 4]);
        for levels in &macroblocks {
            for mv in [None, Some((0, 0)), Some((3, -2)), Some((-16, 16))] {
                assert_eq!(
                    compress(levels, mv),
                    compress_reference(levels, mv),
                    "mv {mv:?}"
                );
            }
        }
    }
}
