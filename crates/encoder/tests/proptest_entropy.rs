//! Property tests for the entropy coder: the word-accumulator
//! [`BitWriter`] must produce exactly the bytes and bit count of a
//! bit-at-a-time writer for any sequence of codes (the bit count drives
//! rate control and the `Compress` work count), and block coding must
//! round-trip through the `const` zigzag table.

use fgqos_encoder::entropy::{
    decode_block, encode_block, zigzag_order, BitReader, BitWriter, ZIGZAG,
};
use proptest::prelude::*;

/// The original bit-at-a-time writer: the oracle.
#[derive(Default)]
struct OracleWriter {
    bytes: Vec<u8>,
    bit_len: usize,
}

impl OracleWriter {
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

    fn put_bits(&mut self, value: u64, count: u32) {
        for i in (0..count).rev() {
            self.put_bit(value >> i & 1 == 1);
        }
    }

    fn put_ue(&mut self, value: u64) {
        let v = value + 1;
        let bits = 64 - v.leading_zeros();
        for _ in 0..bits - 1 {
            self.put_bit(false);
        }
        self.put_bits(v, bits);
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

/// One writer call. Values span every magnitude: a random word shifted
/// right by a random amount.
#[derive(Debug, Clone, Copy)]
enum Op {
    Bit(bool),
    Bits(u64, u32),
    Ue(u64),
    Se(i64),
}

fn arb_op() -> impl Strategy<Value = Op> {
    (0u8..4, any::<u64>(), 0u32..64, 0u32..=64).prop_map(|(kind, word, shift, count)| {
        let v = word >> shift;
        match kind {
            0 => Op::Bit(word & 1 == 1),
            1 => Op::Bits(v, count),
            // `put_ue(u64::MAX)` overflows `value + 1`.
            2 => Op::Ue(v.min(u64::MAX - 1)),
            // The signed mapping doubles the magnitude.
            _ => Op::Se(
                (v as i64 >> 1).clamp(-(1 << 62), 1 << 62) * if word & 1 == 1 { -1 } else { 1 },
            ),
        }
    })
}

fn arb_block() -> impl Strategy<Value = [i16; 64]> {
    (
        proptest::collection::vec(any::<i16>(), 64),
        proptest::collection::vec(proptest::bool::weighted(0.3), 64),
    )
        .prop_map(|(values, keep)| {
            let mut block = [0i16; 64];
            for ((b, v), k) in block.iter_mut().zip(values).zip(keep) {
                // Mostly small levels, as quantization yields, plus the
                // full i16 range.
                *b = if k { v } else { v % 8 };
            }
            block
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn word_writer_matches_the_bit_at_a_time_oracle(
        ops in proptest::collection::vec(arb_op(), 0..200),
        reuse in any::<bool>(),
    ) {
        let mut fast = if reuse {
            BitWriter::from_vec(vec![0xA5; 40])
        } else {
            BitWriter::new()
        };
        let mut oracle = OracleWriter::default();
        for op in &ops {
            match *op {
                Op::Bit(b) => {
                    fast.put_bit(b);
                    oracle.put_bit(b);
                }
                Op::Bits(v, n) => {
                    fast.put_bits(v, n);
                    oracle.put_bits(v, n);
                }
                Op::Ue(v) => {
                    fast.put_ue(v);
                    oracle.put_ue(v);
                }
                Op::Se(v) => {
                    fast.put_se(v);
                    oracle.put_se(v);
                }
            }
            prop_assert_eq!(fast.bit_len(), oracle.bit_len, "after {:?}", op);
        }
        prop_assert_eq!(fast.into_bytes(), oracle.bytes);
    }

    #[test]
    fn blocks_round_trip_and_match_the_oracle_bit_count(block in arb_block()) {
        let mut w = BitWriter::new();
        let bits = encode_block(&mut w, &block);
        prop_assert_eq!(bits, w.bit_len());
        let bytes = w.into_bytes();
        prop_assert_eq!(bytes.len(), bits.div_ceil(8));
        let mut r = BitReader::new(&bytes);
        prop_assert_eq!(decode_block(&mut r), Some(block));
        prop_assert_eq!(r.position(), bits);
    }
}

#[test]
fn zigzag_table_equals_its_construction() {
    assert_eq!(ZIGZAG.map(usize::from), zigzag_order());
}
