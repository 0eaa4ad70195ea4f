//! Entropy coding: zigzag scan, run-length pairs, Exp-Golomb bitstream.
//!
//! The `Compress` action of the pipeline. A matching decoder exists so
//! roundtrip tests can prove the bitstream is genuinely decodable — the
//! bit counts driving rate control and the Compress action's work units
//! are real.
//!
//! # Hot path
//!
//! `Compress` runs four times per macroblock, so its per-block cost is
//! kept to the coding itself: the scan order is the `const` table
//! [`ZIGZAG`] (checked against its construction, [`zigzag_order`]), and
//! [`BitWriter`] appends whole codes through a 64-bit accumulator that
//! is flushed to the byte buffer a word at a time. Its bytes and
//! [`BitWriter::bit_len`] equal a bit-at-a-time writer's exactly — the
//! bit count drives rate control and the Compress work count.

use crate::dct::BLOCK;

/// Zigzag scan order for an 8×8 block: `ZIGZAG[k]` is the raster index
/// of the `k`-th scanned coefficient.
pub const ZIGZAG: [u8; BLOCK * BLOCK] = [
    0, 1, 8, 16, 9, 2, 3, 10, 17, 24, 32, 25, 18, 11, 4, 5, //
    12, 19, 26, 33, 40, 48, 41, 34, 27, 20, 13, 6, 7, 14, 21, 28, //
    35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51, //
    58, 59, 52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63,
];

/// Zigzag scan order for an 8×8 block, constructed diagonal by diagonal
/// (the derivation of [`ZIGZAG`]).
#[must_use]
pub fn zigzag_order() -> [usize; BLOCK * BLOCK] {
    let mut order = [0usize; BLOCK * BLOCK];
    let mut idx = 0;
    for s in 0..(2 * BLOCK - 1) {
        let coords: Vec<(usize, usize)> = (0..=s.min(BLOCK - 1))
            .filter_map(|i| {
                let j = s - i;
                (j < BLOCK).then_some((i, j))
            })
            .collect();
        // Even diagonals run upward, odd downward.
        if s % 2 == 0 {
            for &(i, j) in coords.iter().rev() {
                order[idx] = i * BLOCK + j;
                idx += 1;
            }
        } else {
            for &(i, j) in &coords {
                order[idx] = i * BLOCK + j;
                idx += 1;
            }
        }
    }
    order
}

/// A growable bitstream writer, MSB first.
///
/// Bits collect in a 64-bit accumulator; each full word is appended to
/// the byte buffer at once, and [`BitWriter::into_bytes`] flushes the
/// zero-padded tail.
#[derive(Debug, Clone, Default)]
pub struct BitWriter {
    bytes: Vec<u8>,
    /// Pending bits, right-aligned (the oldest is the highest).
    acc: u64,
    /// Number of pending bits in `acc` (0–63).
    acc_bits: u32,
    bit_len: usize,
}

impl BitWriter {
    /// Creates an empty writer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty writer that reuses `buf`'s allocation (its
    /// contents are cleared). The per-macroblock compress kernel round-
    /// trips its stream buffer through this to stop allocating per
    /// block; the written bytes are identical to a fresh writer's.
    #[must_use]
    pub fn from_vec(mut buf: Vec<u8>) -> Self {
        buf.clear();
        BitWriter {
            bytes: buf,
            ..Self::default()
        }
    }

    /// Appends one bit.
    pub fn put_bit(&mut self, bit: bool) {
        self.put_bits(u64::from(bit), 1);
    }

    /// Appends the low `count` bits of `value`, most significant first
    /// (higher bits of `value` are ignored).
    ///
    /// # Panics
    ///
    /// Panics if `count > 64`.
    pub fn put_bits(&mut self, value: u64, count: u32) {
        assert!(count <= 64);
        if count == 0 {
            return;
        }
        let value = value & (u64::MAX >> (64 - count));
        let free = 64 - self.acc_bits;
        if count < free {
            self.acc = self.acc << count | value;
            self.acc_bits += count;
        } else {
            // Fill the word, flush it, keep the remainder pending.
            let rest = count - free;
            let word = if free == 64 {
                value
            } else {
                self.acc << free | value >> rest
            };
            self.bytes.extend_from_slice(&word.to_be_bytes());
            self.acc = value & !(u64::MAX << rest);
            self.acc_bits = rest;
        }
        self.bit_len += count as usize;
    }

    /// Unsigned Exp-Golomb code of `value`: `bits - 1` zeros, then
    /// `value + 1` in `bits` bits — one `2·bits − 1`-bit group whenever
    /// it fits in a word.
    pub fn put_ue(&mut self, value: u64) {
        let v = value + 1;
        let bits = 64 - v.leading_zeros();
        if bits <= 32 {
            self.put_bits(v, 2 * bits - 1);
        } else {
            self.put_bits(0, bits - 1);
            self.put_bits(v, bits);
        }
    }

    /// Signed Exp-Golomb code (0, 1, −1, 2, −2, ... mapping).
    pub fn put_se(&mut self, value: i64) {
        let mapped = if value > 0 {
            (value as u64) * 2 - 1
        } else {
            (-value as u64) * 2
        };
        self.put_ue(mapped);
    }

    /// Total bits written.
    #[must_use]
    pub fn bit_len(&self) -> usize {
        self.bit_len
    }

    /// Finishes and returns the byte buffer (zero-padded).
    #[must_use]
    pub fn into_bytes(mut self) -> Vec<u8> {
        if self.acc_bits > 0 {
            let tail = (self.acc << (64 - self.acc_bits)).to_be_bytes();
            self.bytes
                .extend_from_slice(&tail[..self.acc_bits.div_ceil(8) as usize]);
        }
        self.bytes
    }
}

/// A bitstream reader matching [`BitWriter`].
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> BitReader<'a> {
    /// Creates a reader over a byte buffer.
    #[must_use]
    pub fn new(bytes: &'a [u8]) -> Self {
        BitReader { bytes, pos: 0 }
    }

    /// Reads one bit; `None` at end of stream.
    pub fn bit(&mut self) -> Option<bool> {
        let byte = self.pos / 8;
        if byte >= self.bytes.len() {
            return None;
        }
        let bit = self.bytes[byte] >> (7 - self.pos % 8) & 1 == 1;
        self.pos += 1;
        Some(bit)
    }

    /// Reads `count` bits MSB-first.
    pub fn bits(&mut self, count: u32) -> Option<u64> {
        let mut v = 0u64;
        for _ in 0..count {
            v = v << 1 | u64::from(self.bit()?);
        }
        Some(v)
    }

    /// Reads an unsigned Exp-Golomb code.
    pub fn ue(&mut self) -> Option<u64> {
        let mut zeros = 0u32;
        while !self.bit()? {
            zeros += 1;
            if zeros > 63 {
                return None;
            }
        }
        let rest = self.bits(zeros)?;
        Some((1u64 << zeros | rest) - 1)
    }

    /// Reads a signed Exp-Golomb code.
    pub fn se(&mut self) -> Option<i64> {
        let v = self.ue()?;
        Some(if v % 2 == 1 {
            v.div_ceil(2) as i64
        } else {
            -((v / 2) as i64)
        })
    }

    /// Bits consumed so far.
    #[must_use]
    pub fn position(&self) -> usize {
        self.pos
    }
}

/// Encodes one quantized 8×8 block as `(run, level)` pairs in zigzag
/// order, terminated by an end-of-block marker. Returns bits written.
pub fn encode_block(w: &mut BitWriter, levels: &[i16; BLOCK * BLOCK]) -> usize {
    let start = w.bit_len();
    let mut run = 0u64;
    for &pos in &ZIGZAG {
        let l = levels[usize::from(pos)];
        if l == 0 {
            run += 1;
        } else {
            w.put_ue(run);
            w.put_se(i64::from(l));
            run = 0;
        }
    }
    // End of block: run code 63 + level 0 sentinel (level 0 is otherwise
    // never coded, so it is unambiguous).
    w.put_ue(63);
    w.put_se(0);
    w.bit_len() - start
}

/// Decodes one 8×8 block written by [`encode_block`].
#[must_use]
pub fn decode_block(r: &mut BitReader<'_>) -> Option<[i16; BLOCK * BLOCK]> {
    let mut out = [0i16; BLOCK * BLOCK];
    let mut idx = 0usize;
    loop {
        let run = r.ue()?;
        let level = r.se()?;
        if level == 0 {
            // End of block (run is the 63 sentinel by construction).
            return Some(out);
        }
        idx = idx.saturating_add(usize::try_from(run).ok()?);
        let &pos = ZIGZAG.get(idx)?; // `None`: corrupt stream
        out[usize::from(pos)] = i16::try_from(level).ok()?;
        idx += 1;
    }
}

/// Encodes a motion vector (signed Exp-Golomb per component). Returns
/// bits written.
pub fn encode_mv(w: &mut BitWriter, mv: (i32, i32)) -> usize {
    let start = w.bit_len();
    w.put_se(i64::from(mv.0));
    w.put_se(i64::from(mv.1));
    w.bit_len() - start
}

/// Decodes a motion vector.
#[must_use]
pub fn decode_mv(r: &mut BitReader<'_>) -> Option<(i32, i32)> {
    let x = r.se()?;
    let y = r.se()?;
    Some((i32::try_from(x).ok()?, i32::try_from(y).ok()?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zigzag_is_a_permutation() {
        let order = zigzag_order();
        let mut seen = [false; 64];
        for &i in &order {
            assert!(!seen[i], "duplicate {i}");
            seen[i] = true;
        }
        // Standard start: 0, then (0,1), (1,0) -> indices 1, 8...
        assert_eq!(order[0], 0);
        assert_eq!(order[1], 1);
        assert_eq!(order[2], 8);
        assert_eq!(order[63], 63);
    }

    #[test]
    fn bitwriter_reader_roundtrip() {
        let mut w = BitWriter::new();
        w.put_bits(0b1011, 4);
        w.put_ue(0);
        w.put_ue(5);
        w.put_se(-3);
        w.put_se(7);
        let bits = w.bit_len();
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.bits(4), Some(0b1011));
        assert_eq!(r.ue(), Some(0));
        assert_eq!(r.ue(), Some(5));
        assert_eq!(r.se(), Some(-3));
        assert_eq!(r.se(), Some(7));
        assert_eq!(r.position(), bits);
    }

    #[test]
    fn exp_golomb_exhaustive_roundtrip() {
        let mut w = BitWriter::new();
        for v in 0..300u64 {
            w.put_ue(v);
        }
        for v in -80i64..=80 {
            w.put_se(v);
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for v in 0..300u64 {
            assert_eq!(r.ue(), Some(v));
        }
        for v in -80i64..=80 {
            assert_eq!(r.se(), Some(v));
        }
    }

    #[test]
    fn block_roundtrip_sparse_and_dense() {
        let mut sparse = [0i16; 64];
        sparse[0] = 45;
        sparse[10] = -3;
        sparse[63] = 1;
        let mut dense = [0i16; 64];
        for (i, v) in dense.iter_mut().enumerate() {
            *v = (i as i16 % 17) - 8;
        }
        for block in [sparse, dense, [0i16; 64]] {
            let mut w = BitWriter::new();
            let bits = encode_block(&mut w, &block);
            assert!(bits > 0);
            let bytes = w.into_bytes();
            let mut r = BitReader::new(&bytes);
            assert_eq!(decode_block(&mut r), Some(block));
        }
    }

    #[test]
    fn sparser_blocks_cost_fewer_bits() {
        let mut sparse = [0i16; 64];
        sparse[0] = 5;
        let mut dense = [0i16; 64];
        for (i, v) in dense.iter_mut().enumerate() {
            *v = if i % 2 == 0 { 3 } else { -3 };
        }
        let mut w1 = BitWriter::new();
        let b1 = encode_block(&mut w1, &sparse);
        let mut w2 = BitWriter::new();
        let b2 = encode_block(&mut w2, &dense);
        assert!(b1 < b2);
    }

    #[test]
    fn from_vec_reuses_the_allocation_and_writes_identically() {
        let mut reference = BitWriter::new();
        reference.put_ue(41);
        reference.put_se(-7);
        reference.put_bits(0b101, 3);
        let expected = reference.into_bytes();

        let stale = vec![0xFFu8; 64]; // dirty contents must not leak
        let cap = stale.capacity();
        let ptr = stale.as_ptr();
        let mut w = BitWriter::from_vec(stale);
        assert_eq!(w.bit_len(), 0);
        w.put_ue(41);
        w.put_se(-7);
        w.put_bits(0b101, 3);
        let bytes = w.into_bytes();
        assert_eq!(bytes, expected);
        assert_eq!(bytes.capacity(), cap, "allocation must be reused");
        assert_eq!(bytes.as_ptr(), ptr, "allocation must be reused");
    }

    #[test]
    fn mv_roundtrip() {
        for mv in [(0, 0), (-16, 16), (7, -3)] {
            let mut w = BitWriter::new();
            encode_mv(&mut w, mv);
            let bytes = w.into_bytes();
            let mut r = BitReader::new(&bytes);
            assert_eq!(decode_mv(&mut r), Some(mv));
        }
    }

    #[test]
    fn reader_handles_truncation() {
        let mut r = BitReader::new(&[]);
        assert_eq!(r.bit(), None);
        assert_eq!(r.ue(), None);
        // A lonely zero byte is all zeros: ue runs out of stream.
        let bytes = [0u8];
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.ue(), None);
    }
}
