//! A from-scratch macroblock video encoder with the paper's Fig. 2 action
//! pipeline.
//!
//! The original evaluation instruments a proprietary STMicroelectronics
//! MPEG-4 encoder (~7000 lines of C). This crate is the substitution
//! documented in DESIGN.md: a real — if compact — hybrid video encoder
//! whose per-macroblock data flow is exactly the paper's Fig. 2:
//!
//! ```text
//! Grab_Macro_Block ─→ Motion_Estimate ─→ Discrete_Cosine_Transform ─→ Quantize
//!        └────────→ Intra_Predict ───────────↑                          ├─→ Compress
//!                                                Inverse_Quantize ←─────┘
//!                                                Inverse_DCT → Reconstruct
//! ```
//!
//! * [`frame`] — luma frames and 16×16 macroblock access;
//! * [`synth`] — the synthetic camera: deterministic scenes driven by the
//!   simulator's [`fgqos_sim::scenario::LoadScenario`] (moving objects,
//!   texture, noise, scene cuts);
//! * [`dct`] — 8×8 forward/inverse DCT;
//! * [`quant`] — uniform quantization and [`quant::RateController`]
//!   steering the quantization parameter toward a target bitrate;
//! * [`motion`] — full-search motion estimation whose **search radius is
//!   the quality level** (the knob the QoS controller turns), with early
//!   termination and work accounting;
//! * [`intra`] — DC intra prediction and the intra/inter decision;
//! * [`entropy`] — zigzag + run-length + Exp-Golomb bitstream (with a
//!   decoder used for roundtrip tests);
//! * [`timing`] — calibration of per-action work counts onto the Fig. 5
//!   cycle tables (work-driven execution times);
//! * [`psnr`] — quality measurement;
//! * [`app`] — [`app::EncoderApp`], the [`fgqos_sim::app::VideoApp`]
//!   implementation gluing it all to the controller and pipeline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod app;
pub mod dct;

/// Re-export of the encoded-output payload type the
/// [`app::EncoderApp`] produces through
/// [`fgqos_sim::app::VideoApp::encoded_output`] (defined in `fgqos-sim`
/// because the producer hook lives on `VideoApp`).
pub use fgqos_sim::output::EncodedFrame;
pub mod decoder;
pub mod entropy;
pub mod frame;
pub mod intra;
pub mod motion;
pub mod psnr;
pub mod quant;
pub mod synth;
pub mod timing;
