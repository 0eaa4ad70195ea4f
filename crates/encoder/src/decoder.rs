//! The matching decoder.
//!
//! A hybrid encoder is only correct if an independent decoder, given just
//! the bitstream and the previous reference frame, reproduces *exactly*
//! the encoder's reconstruction — otherwise encoder and decoder drift
//! apart frame after frame. This module implements that decoder; the
//! roundtrip tests in `tests/codec_roundtrip.rs` assert bit-exact
//! agreement.
//!
//! Per-macroblock stream layout (written by the `Compress` action):
//! one mode bit (1 = inter), the motion vector for inter blocks
//! (signed Exp-Golomb per component), then the four 8×8 coefficient
//! blocks as zigzag run-length pairs.

use crate::dct::{self, BLOCK};
use crate::entropy::{decode_block, decode_mv, BitReader};
use crate::frame::{Frame, PaddedFrame, MB_SIZE};
use crate::intra::dc_predict;
use crate::motion::predict;
use crate::quant::dequantize;

/// Decode error: the stream ended early or was malformed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// Macroblock at which decoding failed.
    pub macroblock: usize,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "bitstream truncated or malformed at macroblock {}",
            self.macroblock
        )
    }
}

impl std::error::Error for DecodeError {}

/// Decodes one macroblock from `reader` into `recon` at origin
/// `(ox, oy)`, predicting from the padded `reference` (inter) or from the
/// already decoded part of `recon` (intra).
///
/// # Errors
///
/// [`DecodeError`]-shaped `None` mapped by the caller; this helper
/// returns `None` on truncation.
fn decode_macroblock(
    reader: &mut BitReader<'_>,
    reference: &PaddedFrame,
    recon: &mut Frame,
    ox: usize,
    oy: usize,
    qp: u8,
) -> Option<()> {
    let is_inter = reader.bit()?;
    let prediction: [u8; MB_SIZE * MB_SIZE] = if is_inter {
        let mv = decode_mv(reader)?;
        predict(reference, ox, oy, mv)
    } else {
        dc_predict(recon, ox, oy)
    };
    let mut blocks = [[0i16; BLOCK * BLOCK]; 4];
    for b in &mut blocks {
        let levels = decode_block(reader)?;
        *b = dct::inverse(&dequantize(&levels, qp));
    }
    let residual = dct::merge_macroblock(&blocks);
    let mut out = [0u8; MB_SIZE * MB_SIZE];
    for i in 0..MB_SIZE * MB_SIZE {
        let v = i32::from(prediction[i]) + i32::from(residual[i]);
        out[i] = v.clamp(0, 255) as u8;
    }
    recon.write_block(ox, oy, &out);
    Some(())
}

/// Decodes a whole frame from per-macroblock substreams (raster order),
/// given the previous reference frame and the frame's quantization
/// parameter.
///
/// # Errors
///
/// [`DecodeError`] with the offending macroblock on truncated or
/// malformed input.
pub fn decode_frame(
    mb_streams: &[Vec<u8>],
    reference: &Frame,
    width: usize,
    height: usize,
    qp: u8,
) -> Result<Frame, DecodeError> {
    let reference = PaddedFrame::from_frame(reference);
    let mut recon = Frame::new(width, height);
    let expected = recon.macroblocks();
    for mb in 0..expected {
        let stream = mb_streams.get(mb).ok_or(DecodeError { macroblock: mb })?;
        let mut reader = BitReader::new(stream);
        let (ox, oy) = recon.mb_origin(mb);
        decode_macroblock(&mut reader, &reference, &mut recon, ox, oy, qp)
            .ok_or(DecodeError { macroblock: mb })?;
    }
    Ok(recon)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entropy::{encode_block, encode_mv, BitWriter};
    use crate::quant::quantize;

    /// Hand-encode one intra macroblock and decode it back.
    #[test]
    fn single_intra_macroblock_roundtrip() {
        let reference = Frame::new(16, 16);
        let mut w = BitWriter::new();
        w.put_bit(false); // intra

        // Residual: all 32 against the DC prediction of 128.
        let mut res = [32i16; 256];
        // Make it less trivial.
        res[0] = 40;
        let blocks = dct::split_macroblock(&res);
        let qp = 4;
        let mut levels_sum = 0u32;
        for b in &blocks {
            let lv = quantize(&dct::forward(b), qp);
            levels_sum += crate::quant::nonzeros(&lv);
            encode_block(&mut w, &lv);
        }
        assert!(levels_sum > 0);
        let streams = vec![w.into_bytes()];
        let decoded = decode_frame(&streams, &reference, 16, 16, qp).unwrap();
        // The decoded pixels must equal prediction (128) + dequantized
        // residual; with qp=4 the error per pixel is bounded by ~qp.
        for &p in decoded.data() {
            assert!(
                (i32::from(p) - 160).abs() <= 12,
                "pixel {p} too far from 160"
            );
        }
    }

    #[test]
    fn truncated_stream_reports_macroblock() {
        let reference = Frame::new(32, 16);
        let streams = vec![vec![0u8; 1]]; // way too short, and only 1 of 2
        let err = decode_frame(&streams, &reference, 32, 16, 8).unwrap_err();
        assert_eq!(err.macroblock, 0);
        let mut w = BitWriter::new();
        w.put_bit(false);
        for _ in 0..4 {
            encode_block(&mut w, &[0i16; 64]);
        }
        let err = decode_frame(&[w.into_bytes()], &reference, 32, 16, 8).unwrap_err();
        assert_eq!(err.macroblock, 1, "second macroblock missing");
        assert!(err.to_string().contains("macroblock 1"));
    }

    #[test]
    fn inter_macroblock_uses_motion_vector() {
        // Reference has a bright square; encode an inter MB with mv (4,2)
        // and zero residual: decoded block must equal the shifted block.
        let mut reference = Frame::new(32, 32);
        for y in 0..32 {
            for x in 0..32 {
                reference.set(x, y, ((x * 7 + y * 3) % 251) as u8);
            }
        }
        let mut w = BitWriter::new();
        w.put_bit(true); // inter
        encode_mv(&mut w, (4, 2));
        for _ in 0..4 {
            encode_block(&mut w, &[0i16; 64]);
        }
        // Frame of one MB: 16x16.
        let decoded = decode_frame(&[w.into_bytes()], &reference, 16, 16, 8).unwrap();
        let expected = reference.block_clamped(4, 2);
        assert_eq!(decoded.block(0, 0), expected);
    }
}
