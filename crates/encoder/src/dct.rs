//! 8×8 forward and inverse discrete cosine transform.
//!
//! Separable float implementation of the type-II DCT used by MPEG-class
//! codecs, with orthonormal scaling so `idct(dct(x)) == x` exactly for
//! the ±255 residual range (rounding absorbs the float error — see the
//! golden round-trip test).
//!
//! # Hot-path layout
//!
//! The basis cosines and orthonormal scale factors are *pinned* compile-
//! time constants ([`f32::from_bits`] literals bit-identical to the
//! `cos()`-derived values of the original scalar code), so the transform
//! never calls libm and cannot drift across math-library versions. Each
//! pass accumulates all eight outputs of a row/column in lockstep over
//! fixed-width `[f32; 8]` lanes — per-output operation order is unchanged
//! from the original scalar code (bit-identical results), but the compiler
//! can keep the lanes in vector registers. The original
//! per-multiply-`cos()` implementation lives in bench code
//! (`fgqos_bench::kernel_refs`), which checks the bit identity and times
//! the two against each other.

/// Transform block edge (8×8 like MPEG-4; a 16×16 macroblock holds four
/// luma blocks).
pub const BLOCK: usize = 8;

const fn b(bits: u32) -> f32 {
    f32::from_bits(bits)
}

/// `BASIS[u][x] = cos(π·(2x+1)·u/16)`, bit-identical to the values the
/// reference implementation computes through `f32` `cos()`.
const BASIS: [[f32; BLOCK]; BLOCK] = [
    [
        b(0x3F80_0000),
        b(0x3F80_0000),
        b(0x3F80_0000),
        b(0x3F80_0000),
        b(0x3F80_0000),
        b(0x3F80_0000),
        b(0x3F80_0000),
        b(0x3F80_0000),
    ],
    [
        b(0x3F7B_14BE),
        b(0x3F54_DB31),
        b(0x3F0E_39D9),
        b(0x3E47_C5BC),
        b(0xBE47_C5C2),
        b(0xBF0E_39DC),
        b(0xBF54_DB32),
        b(0xBF7B_14BF),
    ],
    [
        b(0x3F6C_835E),
        b(0x3EC3_EF15),
        b(0xBEC3_EF18),
        b(0xBF6C_8360),
        b(0xBF6C_835E),
        b(0xBEC3_EF0B),
        b(0x3EC3_EF1B),
        b(0x3F6C_835F),
    ],
    [
        b(0x3F54_DB31),
        b(0xBE47_C5C2),
        b(0xBF7B_14BF),
        b(0xBF0E_39D6),
        b(0x3F0E_39D7),
        b(0x3F7B_14BE),
        b(0x3E47_C5B1),
        b(0xBF54_DB34),
    ],
    [
        b(0x3F35_04F3),
        b(0xBF35_04F3),
        b(0xBF35_04F1),
        b(0x3F35_04F7),
        b(0x3F35_04F3),
        b(0xBF35_04FB),
        b(0xBF35_04EF),
        b(0x3F35_04F4),
    ],
    [
        b(0x3F0E_39D9),
        b(0xBF7B_14BF),
        b(0x3E47_C5C8),
        b(0x3F54_DB2D),
        b(0xBF54_DB34),
        b(0xBE47_C57C),
        b(0x3F7B_14BF),
        b(0xBF0E_39D7),
    ],
    [
        b(0x3EC3_EF15),
        b(0xBF6C_835E),
        b(0x3F6C_8362),
        b(0xBEC3_EF25),
        b(0xBEC3_EF23),
        b(0x3F6C_835B),
        b(0xBF6C_8362),
        b(0x3EC3_EF25),
    ],
    [
        b(0x3E47_C5BC),
        b(0xBF0E_39D6),
        b(0x3F54_DB2D),
        b(0xBF7B_14BD),
        b(0x3F7B_14BE),
        b(0xBF54_DB3A),
        b(0x3F0E_39E9),
        b(0xBE47_C596),
    ],
];

/// `BASIS_T[x][u] = BASIS[u][x]`: transposed for unit-stride access when
/// the eight frequency outputs `u` are the vector lane.
const BASIS_T: [[f32; BLOCK]; BLOCK] = transpose(BASIS);

/// Orthonormal scale: `√(1/8)` for `u = 0`, `√(2/8)` otherwise — pinned
/// like [`BASIS`].
const SCALE: [f32; BLOCK] = [
    b(0x3EB5_04F3),
    b(0x3F00_0000),
    b(0x3F00_0000),
    b(0x3F00_0000),
    b(0x3F00_0000),
    b(0x3F00_0000),
    b(0x3F00_0000),
    b(0x3F00_0000),
];

const fn transpose(m: [[f32; BLOCK]; BLOCK]) -> [[f32; BLOCK]; BLOCK] {
    let mut out = [[0f32; BLOCK]; BLOCK];
    let mut i = 0;
    while i < BLOCK {
        let mut j = 0;
        while j < BLOCK {
            out[j][i] = m[i][j];
            j += 1;
        }
        i += 1;
    }
    out
}

/// Forward 8×8 DCT of a residual block (row-major `i16`, range roughly
/// ±255 after prediction). Returns coefficients as `f32`.
///
/// Bit-identical to the original scalar transform: the lane
/// restructuring only hoists loop-invariant loads — every output still
/// accumulates its terms in the same order.
#[must_use]
pub fn forward(input: &[i16; BLOCK * BLOCK]) -> [f32; BLOCK * BLOCK] {
    let mut tmp = [0f32; BLOCK * BLOCK];
    let mut out = [0f32; BLOCK * BLOCK];
    // Rows: all 8 frequency outputs of one row accumulate in lockstep.
    for y in 0..BLOCK {
        let row = &input[y * BLOCK..y * BLOCK + BLOCK];
        let mut acc = [0f32; BLOCK];
        for x in 0..BLOCK {
            let s = f32::from(row[x]);
            let basis = &BASIS_T[x];
            for u in 0..BLOCK {
                acc[u] += s * basis[u];
            }
        }
        for u in 0..BLOCK {
            tmp[y * BLOCK + u] = acc[u] * SCALE[u];
        }
    }
    // Columns: one output row `v` at a time, `u` as the lane.
    for v in 0..BLOCK {
        let mut acc = [0f32; BLOCK];
        for y in 0..BLOCK {
            let by = BASIS[v][y];
            let trow = &tmp[y * BLOCK..y * BLOCK + BLOCK];
            for u in 0..BLOCK {
                acc[u] += trow[u] * by;
            }
        }
        let sv = SCALE[v];
        for u in 0..BLOCK {
            out[v * BLOCK + u] = acc[u] * sv;
        }
    }
    out
}

/// Inverse 8×8 DCT back to spatial residuals (`i16`).
///
/// Bit-identical to the original scalar transform (same per-output term
/// order and association, `(scale·coeff)·basis`; the final rounding is
/// the exact libm-free `round_clamped`).
#[must_use]
pub fn inverse(coeffs: &[f32; BLOCK * BLOCK]) -> [i16; BLOCK * BLOCK] {
    let mut tmp = [0f32; BLOCK * BLOCK];
    let mut out = [0i16; BLOCK * BLOCK];
    // Columns: one spatial row `y` at a time, `u` as the lane.
    for y in 0..BLOCK {
        let mut acc = [0f32; BLOCK];
        for v in 0..BLOCK {
            let sv = SCALE[v];
            let bv = BASIS[v][y];
            let crow = &coeffs[v * BLOCK..v * BLOCK + BLOCK];
            for u in 0..BLOCK {
                acc[u] += sv * crow[u] * bv;
            }
        }
        tmp[y * BLOCK..y * BLOCK + BLOCK].copy_from_slice(&acc);
    }
    // Rows: all 8 spatial outputs of one row accumulate in lockstep.
    for y in 0..BLOCK {
        let mut acc = [0f32; BLOCK];
        for u in 0..BLOCK {
            let t = SCALE[u] * tmp[y * BLOCK + u];
            let basis = &BASIS[u];
            for x in 0..BLOCK {
                acc[x] += t * basis[x];
            }
        }
        for x in 0..BLOCK {
            out[y * BLOCK + x] = round_clamped(acc[x], 4096.0);
        }
    }
    out
}

/// `y` rounded half away from zero and clamped to `±lim`: exactly
/// `y.round().clamp(-lim, lim) as i16` for an integer `lim` below
/// 2¹⁵, NaN included (it maps to 0), but without `f32::round`, which is
/// a libm `roundf` call on the baseline x86-64 target.
///
/// Clamping first gives the same result as clamping after rounding,
/// since rounding is monotone and `±lim` are integers. On the clamped
/// value `t = y as i32` truncates toward zero and `y − t` is exact, so
/// adding ±1 when `|y − t| ≥ 0.5` is round-half-away. The whole body is
/// branch-free, so loops over blocks vectorize.
#[inline]
pub(crate) fn round_clamped(y: f32, lim: f32) -> i16 {
    let y = y.clamp(-lim, lim);
    let t = y as i32;
    let frac = y - t as f32;
    (t + i32::from(frac >= 0.5) - i32::from(frac <= -0.5)) as i16
}

/// Splits a 16×16 macroblock residual into its four 8×8 blocks
/// (row-major: top-left, top-right, bottom-left, bottom-right).
#[must_use]
pub fn split_macroblock(res: &[i16; 256]) -> [[i16; BLOCK * BLOCK]; 4] {
    let mut out = [[0i16; BLOCK * BLOCK]; 4];
    for (b, block) in out.iter_mut().enumerate() {
        let ox = (b % 2) * BLOCK;
        let oy = (b / 2) * BLOCK;
        for y in 0..BLOCK {
            for x in 0..BLOCK {
                block[y * BLOCK + x] = res[(oy + y) * 16 + ox + x];
            }
        }
    }
    out
}

/// Reassembles four 8×8 blocks into a 16×16 macroblock residual.
#[must_use]
pub fn merge_macroblock(blocks: &[[i16; BLOCK * BLOCK]; 4]) -> [i16; 256] {
    let mut out = [0i16; 256];
    for (b, block) in blocks.iter().enumerate() {
        let ox = (b % 2) * BLOCK;
        let oy = (b / 2) * BLOCK;
        for y in 0..BLOCK {
            for x in 0..BLOCK {
                out[(oy + y) * 16 + ox + x] = block[y * BLOCK + x];
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `cos(π·(2x+1)·u/16)` computed as the original scalar code did.
    fn basis(x: usize, u: usize) -> f32 {
        let angle = std::f32::consts::PI * (2.0 * x as f32 + 1.0) * u as f32 / (2.0 * BLOCK as f32);
        angle.cos()
    }

    /// The orthonormal scale computed as the original scalar code did.
    fn scale(u: usize) -> f32 {
        if u == 0 {
            (1.0 / BLOCK as f32).sqrt()
        } else {
            (2.0 / BLOCK as f32).sqrt()
        }
    }

    #[test]
    fn dc_block_transforms_to_single_coefficient() {
        let input = [64i16; 64];
        let c = forward(&input);
        // DC = 8 * 64 = 512 with orthonormal scaling.
        assert!((c[0] - 512.0).abs() < 0.01, "DC = {}", c[0]);
        for (i, &v) in c.iter().enumerate().skip(1) {
            assert!(v.abs() < 0.01, "AC[{i}] = {v}");
        }
    }

    #[test]
    fn lut_is_bit_identical_to_the_cos_derived_values() {
        for u in 0..BLOCK {
            for x in 0..BLOCK {
                assert_eq!(
                    BASIS[u][x].to_bits(),
                    basis(x, u).to_bits(),
                    "BASIS[{u}][{x}]"
                );
                assert_eq!(BASIS_T[x][u].to_bits(), BASIS[u][x].to_bits());
            }
            assert_eq!(SCALE[u].to_bits(), scale(u).to_bits(), "SCALE[{u}]");
        }
    }

    /// Deterministic pseudo-random residual in the full ±255 range.
    fn lcg_block(seed: &mut u64) -> [i16; 64] {
        let mut out = [0i16; 64];
        for v in out.iter_mut() {
            *seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *v = ((*seed >> 33) % 511) as i16 - 255;
        }
        out
    }

    #[test]
    fn roundtrip_is_exact_for_the_full_residual_range() {
        // Impulses at every position across the whole ±255 magnitude
        // range, the extreme constant blocks, and random dense blocks:
        // `idct(dct(x))` must reproduce `x` *exactly* — the float error
        // of the orthonormal 8×8 transform stays below the rounding
        // threshold everywhere in the residual domain.
        let mut cases: Vec<[i16; 64]> = Vec::new();
        for pos in 0..64 {
            for mag in [-255i16, -200, -128, -1, 1, 127, 200, 255] {
                let mut blk = [0i16; 64];
                blk[pos] = mag;
                cases.push(blk);
            }
        }
        cases.push([255i16; 64]);
        cases.push([-255i16; 64]);
        cases.push(std::array::from_fn(|i| if i % 2 == 0 { 255 } else { -255 }));
        let mut seed = 0xfeed_f00d_u64;
        for _ in 0..256 {
            cases.push(lcg_block(&mut seed));
        }
        for (n, input) in cases.iter().enumerate() {
            let back = inverse(&forward(input));
            assert_eq!(&back, input, "case {n} did not round-trip exactly");
        }
    }

    #[test]
    fn roundtrip_is_exact_up_to_rounding() {
        let mut input = [0i16; 64];
        for (i, v) in input.iter_mut().enumerate() {
            *v = ((i as i16 * 7) % 255) - 127;
        }
        let back = inverse(&forward(&input));
        for (a, b) in input.iter().zip(back.iter()) {
            assert!((a - b).abs() <= 1, "{a} vs {b}");
        }
    }

    #[test]
    fn parseval_energy_is_preserved() {
        let mut input = [0i16; 64];
        for (i, v) in input.iter_mut().enumerate() {
            *v = (((i * 37) % 200) as i16) - 100;
        }
        let spatial: f64 = input.iter().map(|&v| f64::from(v) * f64::from(v)).sum();
        let freq: f64 = forward(&input)
            .iter()
            .map(|&v| f64::from(v) * f64::from(v))
            .sum();
        assert!(
            (spatial - freq).abs() / spatial < 1e-4,
            "{spatial} vs {freq}"
        );
    }

    /// `round_clamped` against its definition at both limits in use.
    fn assert_rounds_like_libm(x: f32) {
        for lim in [2048.0, 4096.0] {
            assert_eq!(
                round_clamped(x, lim),
                x.round().clamp(-lim, lim) as i16,
                "{x:e} (bits {:#010x}) at limit {lim}",
                x.to_bits()
            );
        }
    }

    #[test]
    fn rounding_matches_libm_on_the_edge_cases() {
        let mut cases = vec![
            f32::NAN,
            -f32::NAN,
            f32::from_bits(0x7FC0_1234),
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.0,
            -0.0,
            f32::from_bits(1),
            f32::from_bits(0x007F_FFFF),
            -f32::from_bits(1),
            f32::MIN_POSITIVE,
            f32::MAX,
            f32::MIN,
            0.499_999_97,
            0.5,
            1.5,
            2.5,
            2047.5,
            2048.5,
            4095.5,
            4096.5,
            8_388_607.5,
            8_388_608.0,
            8_388_609.0,
            16_777_216.0,
            1e30,
        ];
        cases.extend(cases.clone().into_iter().map(|x| -x));
        for x in cases {
            assert_rounds_like_libm(x);
        }
    }

    #[test]
    fn rounding_matches_libm_on_a_sample_of_every_f32() {
        // Every bit pattern at a stride coprime to 2^32 (all exponents,
        // both signs, NaNs and subnormals): ~1M values.
        for bits in (0..=u32::MAX).step_by(4099) {
            assert_rounds_like_libm(f32::from_bits(bits));
        }
    }

    /// Every `f32` with 0.5 ≤ |x| < 8192, both signs: the values that
    /// round to a nonzero level below and past both limits. Below 0.5
    /// every value rounds to 0 and from 2^23 every value is an integer
    /// (both covered by the cases above). A few seconds in release;
    /// ignored in debug builds, where the sampled test runs instead.
    #[test]
    #[cfg_attr(debug_assertions, ignore)]
    fn rounding_matches_libm_on_every_f32_that_rounds_nonzero() {
        for bits in 0.5f32.to_bits()..8192f32.to_bits() {
            let x = f32::from_bits(bits);
            assert_rounds_like_libm(x);
            assert_rounds_like_libm(-x);
        }
    }

    #[test]
    fn split_merge_roundtrip() {
        let mut res = [0i16; 256];
        for (i, v) in res.iter_mut().enumerate() {
            *v = i as i16 - 128;
        }
        assert_eq!(merge_macroblock(&split_macroblock(&res)), res);
    }

    #[test]
    fn split_addresses_quadrants() {
        let mut res = [0i16; 256];
        res[0] = 1; // top-left quadrant
        res[8] = 2; // top-right
        res[8 * 16] = 3; // bottom-left
        res[8 * 16 + 8] = 4; // bottom-right
        let blocks = split_macroblock(&res);
        assert_eq!(blocks[0][0], 1);
        assert_eq!(blocks[1][0], 2);
        assert_eq!(blocks[2][0], 3);
        assert_eq!(blocks[3][0], 4);
    }
}
