//! The encoded output plane: what a stream hands to its consumers.
//!
//! The runner's [`crate::runner::StreamResult`] answers *how* a stream
//! was encoded (timings, quality decisions, safety verdicts); this
//! module answers *what came out*. [`EncodedFrame`] is one finished
//! frame's payload — per-macroblock bitstreams plus the metadata a
//! decoder or archiver needs (frame index, virtual timestamp, quality,
//! keyframe flag) — produced by
//! [`crate::app::VideoApp::encoded_output`] and shared downstream
//! behind an `Arc` so fan-out to any number of subscribers never copies
//! pixel data (see `fgqos_serve::distribute`).
//!
//! The type lives in `fgqos-sim` rather than `fgqos-encoder` because the
//! producer hook sits on [`crate::app::VideoApp`] (so timing-only
//! table apps can simply publish nothing), and `fgqos-encoder` depends
//! on this crate, not vice versa. `fgqos-encoder` re-exports it.

use fgqos_time::Cycles;

/// One finished encoded frame, ready for zero-copy distribution.
///
/// Payload buffers move out of the encoder's recycling path (see
/// `EncoderApp::encoded_output` in `fgqos-encoder`): the per-macroblock
/// byte vectors the encode kernels filled are *taken*, not copied, and
/// from then on the frame is immutable — consumers share it behind an
/// `Arc`.
#[derive(Debug, Clone, PartialEq)]
pub struct EncodedFrame {
    /// Index of the frame in its stream's scenario (0-based).
    pub frame: usize,
    /// Virtual completion timestamp: stream-local start of the frame's
    /// encode plus its encode time, offset to the serving clock by the
    /// publisher when the stream runs under a session.
    pub timestamp: Cycles,
    /// Mean committed quality level over the frame's macroblocks.
    pub mean_quality: f64,
    /// `true` when the frame was encoded intra-only (a scene change or
    /// stream start): decoding can start here without references.
    pub keyframe: bool,
    /// Quantization parameter the frame was encoded at.
    pub qp: u8,
    /// One finished bitstream per macroblock, in raster order.
    pub macroblock_streams: Vec<Vec<u8>>,
}

impl EncodedFrame {
    /// Total encoded payload size in bytes across all macroblocks.
    pub fn payload_bytes(&self) -> usize {
        self.macroblock_streams.iter().map(Vec::len).sum()
    }
}
