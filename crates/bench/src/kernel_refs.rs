//! The encoder kernels in their original, unoptimized form: the timing
//! baselines and bit-identity oracles shared by `benches/kernels.rs` and
//! `bench_smoke` (`BENCH_kernels.json`).
//!
//! * [`search_reference`] — `Vec`-collected rings and an exhaustive SAD
//!   of each per-pixel clamped candidate, against the unpadded frame;
//! * [`compress_reference`] — one macroblock's `Compress` kernel with the
//!   zigzag order rebuilt per block and a bit-at-a-time writer.
//!
//! [`compress`] is the production form of the same macroblock coding,
//! built from the public entropy API exactly as the encoder's `Compress`
//! action uses it.

use fgqos_encoder::entropy::{encode_block, encode_mv, zigzag_order, BitWriter};
use fgqos_encoder::frame::{sad, Frame};
use fgqos_encoder::motion::{MotionResult, EARLY_EXIT_SAD};

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
