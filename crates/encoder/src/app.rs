//! [`EncoderApp`]: the pixel-level encoder as a controllable
//! [`VideoApp`].
//!
//! Each macroblock runs the nine Fig. 2 actions in the controller's EDF
//! order. The app carries real codec state (reference frame,
//! reconstruction in progress, bitstream, rate control); each action's
//! kernel performs the actual signal processing and reports its work
//! converted to cycles via [`crate::timing`].
//!
//! # Parallel structure
//!
//! The per-macroblock working state lives in one lock per macroblock
//! ([`MbState`]), and every action is split along the [`VideoApp`]
//! contract:
//!
//! * [`VideoApp::kernel`] — the pure signal processing, `&self` only:
//!   reads the frame-constant source/reference/QP, its own macroblock
//!   state, and (for intra prediction) the *reconstruction blocks* of the
//!   left/above macroblocks, which it declares as data dependencies;
//! * [`VideoApp::apply`] — the sequential side effects: bit
//!   accounting after `Compress`, writing the reconstruction block into
//!   the shared frame after `Reconstruct`.
//!
//! This is the classic macroblock wavefront: with
//! [`fgqos_graph::iterate::IterationMode::Pipelined`] unrolling, the
//! runner's work-stealing executor overlaps macroblocks diagonally while
//! [`fgqos_sim::runner::Runner::run_parallel_on`] keeps the controller's
//! timeline and quality decisions byte-identical to the sequential run.
//!
//! Two runtime pairings (see [`fgqos_sim::runtime`]):
//!
//! * simulation — [`EncoderApp::work_backend`] on a
//!   [`fgqos_sim::runtime::VirtualClock`]: reported work *is* the
//!   execution time, clamped at the declared worst case, fully
//!   deterministic;
//! * live — [`fgqos_sim::runtime::MeasuredBackend`] on a
//!   [`fgqos_sim::runtime::WallClock`] calibrated with
//!   [`crate::timing::wall_rate`]: actions cost the real time they took
//!   (see `examples/live_encoder.rs`).

use std::sync::{Mutex, MutexGuard, PoisonError};

use fgqos_core::CycleReport;
use fgqos_graph::{ActionId, PrecedenceGraph};
use fgqos_sim::app::{fig2_body, fig2_profile, VideoApp};
use fgqos_sim::output::EncodedFrame;
use fgqos_sim::scenario::LoadScenario;
use fgqos_sim::SimError;
use fgqos_time::{fig5, Cycles, Quality, QualityProfile};

use crate::dct;
use crate::entropy::{encode_block, encode_mv, BitWriter};
use crate::frame::{Frame, PaddedFrame, MB_SIZE};
use crate::intra::{dc_predict_blocks, decide_mode, MbMode};
use crate::motion::{predict, radius_for_quality, SearchTrace};
use crate::psnr::psnr;
use crate::quant::{dequantize, nonzeros, quantize, RateController};
use crate::synth::SyntheticCamera;
use crate::timing;

/// Resolved ids of the Fig. 2 actions in the body graph.
#[derive(Debug, Clone, Copy)]
struct Fig2Ids {
    grab: ActionId,
    me: ActionId,
    dct: ActionId,
    quant: ActionId,
    intra: ActionId,
    compress: ActionId,
    invq: ActionId,
    idct: ActionId,
    recon: ActionId,
}

impl Fig2Ids {
    fn resolve(g: &PrecedenceGraph) -> Self {
        let find = |n: &str| g.find(n).expect("fig2 body has all paper actions");
        Fig2Ids {
            grab: find(fig5::names::GRAB),
            me: find(fig5::names::MOTION_ESTIMATE),
            dct: find(fig5::names::DCT),
            quant: find(fig5::names::QUANTIZE),
            intra: find(fig5::names::INTRA_PREDICT),
            compress: find(fig5::names::COMPRESS),
            invq: find(fig5::names::INVERSE_QUANTIZE),
            idct: find(fig5::names::IDCT),
            recon: find(fig5::names::RECONSTRUCT),
        }
    }
}

/// Per-macroblock working state threaded between actions. One instance
/// per macroblock, behind its own lock, so kernels of different
/// macroblocks run concurrently. Opaque outside this module; public only
/// as the [`VideoApp::Snapshot`] type (the runner compares snapshots
/// around re-executions to cut mis-speculation cascades).
#[derive(Debug, Clone, PartialEq)]
pub struct MbState {
    target: [u8; 256],
    inter_pred: [u8; 256],
    inter_sad: u32,
    inter_mv: (i32, i32),
    prediction: [u8; 256],
    mode: MbMode,
    coeffs: [[f32; 64]; 4],
    levels: [[i16; 64]; 4],
    deq: [[f32; 64]; 4],
    /// Prediction residual produced by `DCT` (its input to the forward
    /// transform). `IDCT` writes its roundtripped residual to
    /// `recon_residual` instead: every field has exactly one writing
    /// action per frame, so a re-executed kernel can never clobber the
    /// speculated output of a *later* cache-committed one.
    residual: [i16; 256],
    /// Quantization-roundtripped residual produced by `IDCT`, read by
    /// `Reconstruct`.
    recon_residual: [i16; 256],
    nnz: u32,
    /// Reconstruction of this macroblock (written by `Reconstruct`, read
    /// by the right/below neighbours' intra prediction).
    recon_block: [u8; 256],
    /// This macroblock's bitstream (written by `Compress`).
    stream: Vec<u8>,
    /// Bits in `stream` (committed to the frame counters on apply).
    bits: u64,
}

impl Default for MbState {
    fn default() -> Self {
        MbState {
            target: [0; 256],
            inter_pred: [0; 256],
            inter_sad: u32::MAX,
            inter_mv: (0, 0),
            prediction: [128; 256],
            mode: MbMode::Intra,
            coeffs: [[0.0; 64]; 4],
            levels: [[0; 64]; 4],
            deq: [[0.0; 64]; 4],
            residual: [0; 256],
            recon_residual: [0; 256],
            nnz: 0,
            recon_block: [0; 256],
            stream: Vec::new(),
            bits: 0,
        }
    }
}

/// What one macroblock's lock guards: the working state other kernels
/// read, and the motion-search trace that only `Motion_Estimate` reads
/// and writes.
///
/// The trace lives beside [`MbState`], not in it, because snapshots
/// compare only what downstream kernels read: a re-run search that lands
/// on the same vector must re-validate even though its trace grew.
/// `Grab_Macro_Block` clears it, so it is valid for exactly one frame.
#[derive(Debug, Default)]
struct MbSlot {
    state: MbState,
    trace: SearchTrace,
}

/// Pixel-level encoder application (see module docs).
#[derive(Debug)]
pub struct EncoderApp {
    camera: SyntheticCamera,
    scenario: LoadScenario,
    body: PrecedenceGraph,
    profile: QualityProfile,
    ids: Fig2Ids,
    rc: RateController,
    /// Last completed reconstruction, edge-replicated: the reference of
    /// motion search and compensation. Refilled in place per frame.
    reference: PaddedFrame,
    /// Reconstruction of the frame being encoded.
    recon: Frame,
    /// Last *completed* reconstruction — what the display repeats when a
    /// frame is skipped, and the unpadded form of `reference`.
    displayed: Frame,
    has_reference: bool,
    /// Camera frame being encoded (rendered in place per frame).
    source: Frame,
    /// Camera frame a skipped frame is measured against (rendered in
    /// place per skip).
    skipped_source: Frame,
    frame_idx: usize,
    force_intra: bool,
    qp: u8,
    frame_bits: u64,
    total_bits: u64,
    frames_encoded: usize,
    /// Per-macroblock working state and search trace, one lock per
    /// macroblock.
    mb_states: Vec<Mutex<MbSlot>>,
    /// Finished streams of the last completed frame.
    last_frame_streams: Vec<Vec<u8>>,
    /// QP the last completed frame was coded at.
    last_frame_qp: u8,
    /// Camera index of the last completed frame.
    last_frame_index: usize,
    /// Whether the last completed frame was coded intra-only.
    last_frame_keyframe: bool,
    /// Set when `encoded_psnr` finishes a frame, cleared when
    /// `encoded_output` takes it: guards against double publication and
    /// against publishing a stale frame after a skip.
    fresh_output: bool,
    /// Reference the last completed frame was predicted from.
    prev_reference: Frame,
}

impl EncoderApp {
    /// Builds an encoder over a synthetic camera of `width × height`
    /// pixels following `scenario`.
    ///
    /// The per-frame bit target is the paper's 1.1 Mbit/s at 25 frame/s,
    /// scaled by the pixel ratio to the D1 frames of the cycle-accurate
    /// experiments.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] if the dimensions are not positive
    /// multiples of 16.
    pub fn new(
        scenario: LoadScenario,
        width: usize,
        height: usize,
        seed: u64,
    ) -> Result<Self, SimError> {
        if width == 0
            || height == 0
            || !width.is_multiple_of(MB_SIZE)
            || !height.is_multiple_of(MB_SIZE)
        {
            return Err(SimError::InvalidConfig(
                "frame dimensions must be positive multiples of 16",
            ));
        }
        let camera = SyntheticCamera::new(&scenario, width, height, seed);
        let body = fig2_body();
        let profile = fig2_profile();
        let ids = Fig2Ids::resolve(&body);
        let d1_pixels = 704.0 * 576.0;
        let ratio = (width * height) as f64 / d1_pixels;
        let per_frame = ((fig5::TARGET_BITRATE_BITS_PER_S as f64 / 25.0) * ratio).max(512.0) as u64;
        let macroblocks = (width / MB_SIZE) * (height / MB_SIZE);
        Ok(EncoderApp {
            camera,
            scenario,
            body,
            profile,
            ids,
            rc: RateController::new(per_frame, 12),
            reference: PaddedFrame::new(width, height),
            recon: Frame::new(width, height),
            displayed: Frame::new(width, height),
            has_reference: false,
            source: Frame::new(width, height),
            skipped_source: Frame::new(width, height),
            frame_idx: 0,
            force_intra: true,
            qp: 12,
            frame_bits: 0,
            total_bits: 0,
            frames_encoded: 0,
            mb_states: (0..macroblocks)
                .map(|_| Mutex::new(MbSlot::default()))
                .collect(),
            last_frame_streams: Vec::new(),
            last_frame_qp: 12,
            last_frame_index: 0,
            last_frame_keyframe: false,
            fresh_output: false,
            prev_reference: Frame::new(width, height),
        })
    }

    /// The simulation backend matching this app: the work reported by
    /// a kernel *is* the execution time in cycles (base 0, one cycle
    /// per unit), clamped at the declared worst case by the model.
    #[must_use]
    pub fn work_backend(
        seed: u64,
    ) -> fgqos_sim::runtime::ModelBackend<fgqos_sim::exec::WorkDriven> {
        fgqos_sim::runtime::ModelBackend::new(fgqos_sim::exec::WorkDriven::new(0, 1.0, seed))
    }

    /// Total bits produced so far (rate-control telemetry).
    #[must_use]
    pub fn total_bits(&self) -> u64 {
        self.total_bits
    }

    /// Frames fully encoded so far.
    #[must_use]
    pub fn frames_encoded(&self) -> usize {
        self.frames_encoded
    }

    /// Current quantization parameter.
    #[must_use]
    pub fn qp(&self) -> u8 {
        self.qp
    }

    /// The most recent completed reconstruction (displayed frame).
    #[must_use]
    pub fn displayed(&self) -> &Frame {
        &self.displayed
    }

    /// Per-macroblock bitstreams of the last completed frame (raster
    /// order), decodable by [`crate::decoder::decode_frame`].
    #[must_use]
    pub fn last_frame_streams(&self) -> &[Vec<u8>] {
        &self.last_frame_streams
    }

    /// QP the last completed frame was coded at.
    #[must_use]
    pub fn last_frame_qp(&self) -> u8 {
        self.last_frame_qp
    }

    /// Reference frame used for motion compensation of the *next* frame
    /// (the last completed reconstruction, i.e. the displayed frame).
    #[must_use]
    pub fn reference(&self) -> &Frame {
        &self.displayed
    }

    /// The reference frame the *last completed* frame was predicted from
    /// (what a decoder needs to reproduce it).
    #[must_use]
    pub fn last_frame_reference(&self) -> &Frame {
        &self.prev_reference
    }

    fn mb_origin(&self, mb: usize) -> (usize, usize) {
        self.source.mb_origin(mb)
    }

    /// Locks one macroblock's working state. Locks never nest (neighbour
    /// reads copy their data out before the own-state lock is taken), so
    /// ordering is trivial; a poisoned lock only means a sibling kernel
    /// panicked mid-frame, and the state is still well-formed bytes.
    fn lock_mb(&self, mb: usize) -> MutexGuard<'_, MbSlot> {
        self.mb_states[mb]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Reconstruction blocks of the above/left neighbours of `mb`
    /// (`None` at frame borders). Data-dependency edges guarantee those
    /// macroblocks' `Reconstruct` kernels already ran.
    fn neighbour_recon(&self, mb: usize) -> (Option<[u8; 256]>, Option<[u8; 256]>) {
        let cols = self.source.mb_cols();
        let above = (mb >= cols).then(|| self.lock_mb(mb - cols).state.recon_block);
        let left = (!mb.is_multiple_of(cols)).then(|| self.lock_mb(mb - 1).state.recon_block);
        (above, left)
    }

    fn run_grab(&self, slot: &mut MbSlot, mb: usize) -> u64 {
        let (ox, oy) = self.mb_origin(mb);
        // Reset in place but keep the stream's heap allocation from the
        // previous frame — a cleared `Vec` compares equal to a fresh
        // one, so snapshots (and speculation re-validation) see the
        // exact state the full reset produced.
        let st = &mut slot.state;
        let mut stream = std::mem::take(&mut st.stream);
        stream.clear();
        *st = MbState {
            target: self.source.block(ox, oy),
            stream,
            ..MbState::default()
        };
        slot.trace.clear();
        timing::grab_cycles()
    }

    /// The search resumes this frame's trace: a commit re-run at another
    /// radius reads or extends what the speculative search left.
    fn run_motion(&self, slot: &mut MbSlot, mb: usize, q: Quality) -> u64 {
        let MbSlot { state: st, trace } = slot;
        if self.force_intra || !self.has_reference {
            // I-frames skip the search: the trivial level-0 check.
            st.inter_sad = u32::MAX;
            st.inter_mv = (0, 0);
            return timing::motion_cycles(0, 1);
        }
        let (ox, oy) = self.mb_origin(mb);
        let radius = radius_for_quality(q.level());
        let result = trace.search(&self.source, &self.reference, ox, oy, radius);
        st.inter_mv = result.mv;
        st.inter_sad = result.sad;
        st.inter_pred = predict(&self.reference, ox, oy, result.mv);
        timing::motion_cycles(q.level(), result.evaluations)
    }

    fn run_intra(
        &self,
        st: &mut MbState,
        above: Option<&[u8; 256]>,
        left: Option<&[u8; 256]>,
    ) -> u64 {
        let intra_pred = dc_predict_blocks(above, left);
        if self.force_intra || !self.has_reference || st.inter_sad == u32::MAX {
            st.mode = MbMode::Intra;
            st.prediction = intra_pred;
        } else {
            let (mode, _) = decide_mode(&st.target, &intra_pred, st.inter_sad);
            st.mode = mode;
            st.prediction = match mode {
                MbMode::Intra => intra_pred,
                MbMode::Inter => st.inter_pred,
            };
        }
        timing::intra_cycles()
    }

    fn run_dct(&self, st: &mut MbState) -> u64 {
        let mut residual = [0i16; 256];
        for (r, (&t, &p)) in residual
            .iter_mut()
            .zip(st.target.iter().zip(st.prediction.iter()))
        {
            *r = i16::from(t) - i16::from(p);
        }
        st.residual = residual;
        let blocks = dct::split_macroblock(&residual);
        for (b, block) in blocks.iter().enumerate() {
            st.coeffs[b] = dct::forward(block);
        }
        timing::dct_cycles()
    }

    fn run_quantize(&self, st: &mut MbState) -> u64 {
        let mut nnz = 0u32;
        for b in 0..4 {
            st.levels[b] = quantize(&st.coeffs[b], self.qp);
            nnz += nonzeros(&st.levels[b]);
        }
        st.nnz = nnz;
        timing::quantize_cycles(nnz)
    }

    fn run_compress(&self, st: &mut MbState) -> u64 {
        // Round-trip the macroblock's stream buffer through the writer
        // so steady-state compression allocates nothing.
        let mut w = BitWriter::from_vec(std::mem::take(&mut st.stream));
        // 1 mode bit + MV for inter blocks + 4 coefficient blocks.
        w.put_bit(matches!(st.mode, MbMode::Inter));
        if matches!(st.mode, MbMode::Inter) {
            encode_mv(&mut w, st.inter_mv);
        }
        for b in 0..4 {
            encode_block(&mut w, &st.levels[b]);
        }
        let bits = w.bit_len() as u64;
        st.bits = bits;
        st.stream = w.into_bytes();
        timing::compress_cycles(bits as u32)
    }

    fn run_inverse_quantize(&self, st: &mut MbState) -> u64 {
        for b in 0..4 {
            st.deq[b] = dequantize(&st.levels[b], self.qp);
        }
        timing::inverse_quantize_cycles(st.nnz)
    }

    fn run_idct(&self, st: &mut MbState) -> u64 {
        let mut blocks = [[0i16; 64]; 4];
        for (block, deq) in blocks.iter_mut().zip(st.deq.iter()) {
            *block = dct::inverse(deq);
        }
        st.recon_residual = dct::merge_macroblock(&blocks);
        timing::idct_cycles(st.nnz)
    }

    fn run_reconstruct(&self, st: &mut MbState) -> u64 {
        let mut block = [0u8; 256];
        for (out, (&p, &r)) in block
            .iter_mut()
            .zip(st.prediction.iter().zip(st.recon_residual.iter()))
        {
            let v = i32::from(p) + i32::from(r);
            *out = v.clamp(0, 255) as u8;
        }
        st.recon_block = block;
        timing::reconstruct_cycles(st.nnz)
    }
}

impl VideoApp for EncoderApp {
    type Snapshot = MbState;

    fn body(&self) -> &PrecedenceGraph {
        &self.body
    }

    fn iterations(&self) -> usize {
        self.source.macroblocks()
    }

    fn profile(&self) -> &QualityProfile {
        &self.profile
    }

    fn scenario(&self) -> &LoadScenario {
        &self.scenario
    }

    fn begin_frame(&mut self, frame: usize) {
        self.frame_idx = frame;
        self.camera.render_into(frame, &mut self.source);
        self.force_intra = self.scenario.frame(frame).is_iframe || !self.has_reference;
        self.qp = self.rc.qp();
        self.frame_bits = 0;
    }

    fn encoded_psnr(&mut self, frame: usize, _quality_index: f64, _report: &CycleReport) -> f64 {
        // The frame is complete: finalize codec state here (the runner
        // calls this exactly once per encoded frame). Real pixels: the
        // quality index is implicit in the motion search already done.
        debug_assert_eq!(frame, self.frame_idx);
        let db = psnr(&self.source, &self.recon);
        // Copy the finished streams into per-macroblock buffers that
        // persist across frames (outer and inner allocations reused).
        self.last_frame_streams
            .resize_with(self.mb_states.len(), Vec::new);
        for (out, m) in self.last_frame_streams.iter_mut().zip(&self.mb_states) {
            let slot = m.lock().unwrap_or_else(PoisonError::into_inner);
            out.clear();
            out.extend_from_slice(&slot.state.stream);
        }
        self.last_frame_qp = self.qp;
        self.last_frame_index = frame;
        self.last_frame_keyframe = self.force_intra;
        self.fresh_output = true;
        // Rotate the frame planes without reallocating: the old
        // displayed frame becomes the previous reference, the recon
        // pixels are copied over the (recycled) plane it displaced, and
        // the padded reference is refilled in place.
        std::mem::swap(&mut self.prev_reference, &mut self.displayed);
        self.displayed.data_mut().copy_from_slice(self.recon.data());
        self.reference.refill(&self.recon);
        self.has_reference = true;
        self.frames_encoded += 1;
        self.rc.end_frame(self.frame_bits);
        db
    }

    fn skipped_psnr(&mut self, frame: usize) -> f64 {
        self.camera.render_into(frame, &mut self.skipped_source);
        psnr(&self.skipped_source, &self.displayed)
    }

    fn snapshot(&self, mb: usize) -> MbState {
        self.lock_mb(mb).state.clone()
    }

    fn data_preds(&self, action: ActionId, mb: usize) -> Vec<(ActionId, usize)> {
        // The *exact* read set of every kernel, beyond the direct Fig. 2
        // edges: taint tracking relies on it. Declaring only the graph
        // edges would let a re-validated intermediary hide a changed
        // input from a downstream cached result — e.g. an intra mode
        // flip with unchanged prediction bytes re-validates DCT, yet
        // Compress reads the mode directly and must be invalidated.
        let ids = self.ids;
        if action == ids.intra {
            // Own target + inter SAD/prediction (ME and Intra_Predict
            // are incomparable in the body graph), plus the left/above
            // reconstructions — the macroblock wavefront.
            let cols = self.source.mb_cols();
            let mut deps = vec![(ids.grab, mb), (ids.me, mb)];
            if !mb.is_multiple_of(cols) {
                deps.push((ids.recon, mb - 1));
            }
            if mb >= cols {
                deps.push((ids.recon, mb - cols));
            }
            deps
        } else if action == ids.dct {
            // Reads the grabbed target directly (no grab → DCT edge).
            vec![(ids.grab, mb)]
        } else if action == ids.compress {
            // Reads the coding mode and motion vector directly.
            vec![(ids.me, mb), (ids.intra, mb)]
        } else if action == ids.recon {
            // Reads the prediction directly.
            vec![(ids.intra, mb)]
        } else {
            Vec::new()
        }
    }

    fn kernel_class(&self, action: ActionId, _mb: usize, q: Quality) -> u64 {
        // Only the P-frame motion search depends on the quality level,
        // and only through its search radius: speculation at a level with
        // the same radius still hits.
        if action == self.ids.me && !self.force_intra && self.has_reference {
            1 + radius_for_quality(q.level()) as u64
        } else {
            0
        }
    }

    fn kernel(&self, action: ActionId, mb: usize, q: Quality) -> Option<u64> {
        let cycles = if action == self.ids.intra {
            // Copy neighbour context before taking the own-state lock:
            // locks stay leaf-level, no ordering discipline needed.
            let (above, left) = self.neighbour_recon(mb);
            let mut slot = self.lock_mb(mb);
            self.run_intra(&mut slot.state, above.as_ref(), left.as_ref())
        } else {
            let mut slot = self.lock_mb(mb);
            let st = &mut slot.state;
            if action == self.ids.grab {
                self.run_grab(&mut slot, mb)
            } else if action == self.ids.me {
                self.run_motion(&mut slot, mb, q)
            } else if action == self.ids.dct {
                self.run_dct(st)
            } else if action == self.ids.quant {
                self.run_quantize(st)
            } else if action == self.ids.compress {
                self.run_compress(st)
            } else if action == self.ids.invq {
                self.run_inverse_quantize(st)
            } else if action == self.ids.idct {
                self.run_idct(st)
            } else if action == self.ids.recon {
                self.run_reconstruct(st)
            } else {
                unreachable!("unknown action handed to encoder app");
            }
        };
        Some(cycles)
    }

    fn apply(&mut self, action: ActionId, mb: usize) {
        if action == self.ids.compress {
            let bits = self.lock_mb(mb).state.bits;
            self.frame_bits += bits;
            self.total_bits += bits;
        } else if action == self.ids.recon {
            let block = self.lock_mb(mb).state.recon_block;
            let (ox, oy) = self.mb_origin(mb);
            self.recon.write_block(ox, oy, &block);
        }
    }

    fn encoded_output(&mut self, timestamp: Cycles, mean_quality: f64) -> Option<EncodedFrame> {
        if !self.fresh_output {
            return None;
        }
        self.fresh_output = false;
        // Move the finished buffers out instead of copying them — the
        // next frame's `encoded_psnr` re-grows the (now empty) outer
        // vector; the published frame owns its payload for the lifetime
        // of the ring.
        Some(EncodedFrame {
            frame: self.last_frame_index,
            timestamp,
            mean_quality,
            keyframe: self.last_frame_keyframe,
            qp: self.last_frame_qp,
            macroblock_streams: std::mem::take(&mut self.last_frame_streams),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::motion::search;
    use fgqos_core::policy::MaxQuality;
    use fgqos_sim::exec::WorkDriven;
    use fgqos_sim::runner::{Mode, RunConfig, Runner};

    fn tiny_app(frames: usize) -> EncoderApp {
        let scenario = LoadScenario::paper_benchmark(3).truncated(frames);
        EncoderApp::new(scenario, 48, 32, 5).unwrap()
    }

    #[test]
    fn construction_validates_dimensions() {
        let scenario = LoadScenario::paper_benchmark(3).truncated(5);
        assert!(EncoderApp::new(scenario.clone(), 17, 32, 1).is_err());
        assert!(EncoderApp::new(scenario, 48, 32, 1).is_ok());
    }

    #[test]
    fn shape_matches_fig2() {
        let app = tiny_app(5);
        assert_eq!(app.body().len(), 9);
        assert_eq!(app.iterations(), 6); // 48x32 = 3x2 macroblocks
        assert_eq!(app.profile().n_actions(), 9);
        assert_eq!(app.scenario().frames(), 5);
    }

    /// End-to-end: the controlled pixel encoder over a short stream
    /// produces decodable quality (PSNR well above the skip level) and no
    /// skips. Runs through the explicit runtime seam (virtual clock +
    /// work backend) — the configuration every figure binary uses.
    #[test]
    fn controlled_pixel_run_is_safe_and_decent() {
        use fgqos_sim::runtime::VirtualClock;
        let scenario = LoadScenario::paper_benchmark(3).truncated(12);
        let app = EncoderApp::new(scenario, 48, 32, 5).unwrap();
        let n = app.iterations();
        let config = RunConfig::paper_defaults().scaled_to_macroblocks(n);
        let mut runner = Runner::new(app, config).unwrap();
        let mut policy = MaxQuality::new();
        let mut clock = VirtualClock::new();
        let mut backend = EncoderApp::work_backend(3);
        let res = runner
            .run_on(
                &mut clock,
                &mut backend,
                Mode::Controlled,
                &mut policy,
                None,
            )
            .unwrap();
        assert_eq!(res.skips(), 0, "{}", res.summary());
        assert_eq!(res.misses(), 0);
        // Encoded PSNR must be respectable for synthetic content.
        assert!(res.mean_psnr() > 26.0, "{}", res.summary());
        assert!(runner.app().frames_encoded() == 12);
        assert!(runner.app().total_bits() > 0);
    }

    /// Quality ordering at the codec level: encoding with a larger motion
    /// search budget must not lose PSNR on average (it can only find
    /// better predictions), and spends no more bits.
    #[test]
    fn higher_quality_improves_prediction() {
        use fgqos_core::policy::ConstantQuality;
        let mk = || {
            let scenario = LoadScenario::paper_benchmark(3).truncated(10);
            let app = EncoderApp::new(scenario, 48, 32, 5).unwrap();
            let n = app.iterations();
            // Generous period: constant quality runs without skips.
            let config = RunConfig::paper_defaults()
                .scaled_to_macroblocks(n)
                .with_period(fgqos_time::Cycles::mega(50));
            Runner::new(app, config).unwrap()
        };
        let mut lo_runner = mk();
        let mut exec = WorkDriven::new(0, 1.0, 3);
        let mut lo_policy = ConstantQuality::new(Quality::new(1));
        let lo = lo_runner
            .run(Mode::Constant, &mut lo_policy, &mut exec, None)
            .unwrap();
        let mut hi_runner = mk();
        let mut exec = WorkDriven::new(0, 1.0, 3);
        let mut hi_policy = ConstantQuality::new(Quality::new(7));
        let hi = hi_runner
            .run(Mode::Constant, &mut hi_policy, &mut exec, None)
            .unwrap();
        assert!(
            hi.mean_psnr() >= lo.mean_psnr() - 0.2,
            "q7 {} dB vs q1 {} dB",
            hi.mean_psnr(),
            lo.mean_psnr()
        );
        // More search ⇒ better prediction ⇒ no more residual bits.
        assert!(
            hi_runner.app().total_bits() <= lo_runner.app().total_bits() + 2_000,
            "q7 bits {} vs q1 bits {}",
            hi_runner.app().total_bits(),
            lo_runner.app().total_bits()
        );
    }

    #[test]
    fn skip_psnr_uses_displayed_frame() {
        let mut app = tiny_app(8);
        // Before anything is encoded, the displayed frame is black: PSNR
        // against real content is poor.
        let db = app.skipped_psnr(0);
        assert!(db < 20.0, "black repeat should be poor: {db}");
    }

    #[test]
    fn iframes_force_intra_mode() {
        let mut app = tiny_app(8);
        app.begin_frame(0); // scene start = I-frame
        assert!(app.force_intra);
        let me = app.ids.me;
        let work = run(&mut app, me, 0, Quality::new(7)).unwrap();
        // Trivial level-0 search cost, not a q7 search.
        assert!(work < 1_000, "I-frame ME cost {work}");
    }

    #[test]
    fn data_preds_form_the_macroblock_wavefront() {
        let app = tiny_app(4); // 3x2 macroblocks
        let ids = app.ids;
        // Top-left: only the same-iteration inputs.
        assert_eq!(
            app.data_preds(ids.intra, 0),
            vec![(ids.grab, 0), (ids.me, 0)]
        );
        // Interior bottom-middle (mb 4 = row 1, col 1): + left + above.
        assert_eq!(
            app.data_preds(ids.intra, 4),
            vec![(ids.grab, 4), (ids.me, 4), (ids.recon, 3), (ids.recon, 1)]
        );
        // Kernels whose reads bypass the body edges declare them.
        assert_eq!(
            app.data_preds(ids.compress, 4),
            vec![(ids.me, 4), (ids.intra, 4)]
        );
        assert_eq!(app.data_preds(ids.recon, 4), vec![(ids.intra, 4)]);
        assert_eq!(app.data_preds(ids.dct, 4), vec![(ids.grab, 4)]);
        // Pure-chain kernels need nothing extra.
        assert!(app.data_preds(ids.quant, 4).is_empty());
        assert!(app.data_preds(ids.idct, 4).is_empty());
    }

    /// Runs one action in place, kernel then apply, as every runner does
    /// when it has no speculated result to consume.
    fn run(app: &mut EncoderApp, action: ActionId, mb: usize, q: Quality) -> Option<u64> {
        let work = app.kernel(action, mb, q);
        app.apply(action, mb);
        work
    }

    /// Runs every action of `frame` on every macroblock in body order at
    /// quality `q`, then closes the frame.
    fn encode_frame(app: &mut EncoderApp, frame: usize, q: Quality) {
        let ids = app.ids;
        app.begin_frame(frame);
        for mb in 0..app.iterations() {
            for action in [
                ids.grab,
                ids.me,
                ids.intra,
                ids.dct,
                ids.quant,
                ids.compress,
                ids.invq,
                ids.idct,
                ids.recon,
            ] {
                run(app, action, mb, q);
            }
        }
        app.encoded_psnr(frame, 0.0, &CycleReport::from_records(Vec::new(), 0));
    }

    /// An app that has encoded the I-frame 0 and the P-frame 1 (which
    /// leaves a search trace on every macroblock) and grabbed P-frame 2.
    fn grabbed_p_frame() -> EncoderApp {
        let scenario = LoadScenario::paper_benchmark(3).truncated(4);
        let mut app = EncoderApp::new(scenario, 64, 48, 5).unwrap();
        encode_frame(&mut app, 0, Quality::new(7));
        encode_frame(&mut app, 1, Quality::new(7));
        app.begin_frame(2);
        assert!(!app.force_intra);
        let grab = app.ids.grab;
        for mb in 0..app.iterations() {
            run(&mut app, grab, mb, Quality::new(7));
        }
        app
    }

    #[test]
    fn a_commit_rerun_through_the_trace_equals_a_fresh_search() {
        let me = grabbed_p_frame().ids.me;
        let mut revalidated = 0;
        for (spec, commit) in [(7, 2), (2, 7), (7, 6), (4, 5)] {
            let (spec, commit) = (Quality::new(spec), Quality::new(commit));
            // A speculative search at `spec`, then the commit's re-run at
            // `commit`, against a fresh app that searches once at
            // `commit` and against a one-shot search.
            let mut resumed = grabbed_p_frame();
            let mut fresh = grabbed_p_frame();
            for mb in 0..resumed.iterations() {
                resumed.kernel(me, mb, spec);
                let speculated = resumed.snapshot(mb);
                let work = run(&mut resumed, me, mb, commit);
                let (ox, oy) = resumed.mb_origin(mb);
                let radius = radius_for_quality(commit.level());
                let once = search(&resumed.source, &resumed.reference, ox, oy, radius);
                assert_eq!(
                    work,
                    Some(timing::motion_cycles(commit.level(), once.evaluations))
                );
                assert_eq!(
                    work,
                    run(&mut fresh, me, mb, commit),
                    "{spec} then {commit}"
                );
                let state = resumed.snapshot(mb);
                assert_eq!(state, fresh.snapshot(mb), "{spec} then {commit}");
                assert_eq!((state.inter_mv, state.inter_sad), (once.mv, once.sad));
                // The trace is not part of the snapshot: a re-run that
                // lands on the same match re-validates.
                if (state.inter_mv, state.inter_sad) == (speculated.inter_mv, speculated.inter_sad)
                {
                    assert_eq!(state, speculated);
                    revalidated += 1;
                }
            }
        }
        assert!(revalidated > 0, "no re-run found the speculated vector");
    }

    #[test]
    fn kernel_class_tracks_the_search_radius_on_p_frames() {
        let mut app = tiny_app(8);
        app.begin_frame(0);
        // I-frame: the search is quality-blind.
        assert_eq!(app.kernel_class(app.ids.me, 0, Quality::new(0)), 0);
        assert_eq!(app.kernel_class(app.ids.me, 0, Quality::new(7)), 0);
        app.has_reference = true;
        app.force_intra = false;
        // P-frame: distinct radii, distinct classes; q0 radius is 0 but
        // the class is still distinct from the I-frame constant.
        let c0 = app.kernel_class(app.ids.me, 0, Quality::new(0));
        let c7 = app.kernel_class(app.ids.me, 0, Quality::new(7));
        assert_ne!(c0, 0);
        assert_ne!(c0, c7);
        // Non-ME kernels are quality-blind everywhere.
        assert_eq!(app.kernel_class(app.ids.dct, 0, Quality::new(7)), 0);
    }
}
