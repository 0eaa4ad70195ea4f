//! Integration: what a subscriber receives decodes.
//!
//! The output ring trims whole GOPs, so every retained suffix starts at
//! a keyframe, and a subscriber that lagged resumes at the front
//! keyframe. This test holds the plane to that promise from the
//! receiving end: a pixel stream is served (at lookahead depth 1) into
//! a two-frame ring, and one subscriber drains late for the first half
//! of the run, so it sees `Lagged(n)` gaps, then keeps up. A receiver
//! that knows only what it was delivered (plus the stream's frame size)
//! chains the decoder from the first keyframe and starts over at the
//! keyframe after each gap. Every frame it decodes must equal the
//! encoder's reconstruction, which shows as its PSNR against the camera
//! frame equalling the `psnr_db` the stream recorded, bit for bit; and
//! no decode may start at a frame that is not a keyframe.

use fine_grain_qos::encoder::app::EncoderApp;
use fine_grain_qos::encoder::decoder::decode_frame;
use fine_grain_qos::encoder::frame::Frame;
use fine_grain_qos::encoder::psnr::psnr;
use fine_grain_qos::encoder::synth::SyntheticCamera;
use fine_grain_qos::prelude::*;
use fine_grain_qos::sim::scenario::FrameInfo;

const W: usize = 48;
const H: usize = 32;
const FRAMES: usize = 48;
/// Keyframe cadence: a GOP the two-frame ring can hold whole.
const GOP: usize = 2;
const SEED: u64 = 7;
/// For the first `FRAMES / 2` ticks the subscriber drains every
/// `DRAIN_EVERY`th tick and falls behind; then it drains every tick.
const DRAIN_EVERY: usize = 5;

fn scenario() -> LoadScenario {
    let infos = (0..FRAMES)
        .map(|i| FrameInfo {
            scene: i / GOP,
            index_in_scene: i % GOP,
            is_iframe: i.is_multiple_of(GOP),
            activity: 0.85 + 0.1 * ((i as u64 * 7 + SEED) % 10) as f64 / 10.0,
            motion: 0.3,
            texture: 0.5,
            psnr_base: 36.0,
            budget_cycles: None,
        })
        .collect();
    LoadScenario::from_frames(infos).expect("valid scenario")
}

/// The test-side receiver: decodes the frames it is delivered in order,
/// each from the one it decoded before, and starts over at a keyframe
/// after a gap.
struct Receiver {
    camera: SyntheticCamera,
    /// The last decoded frame; `None` at the start and after a gap.
    reference: Option<Frame>,
    /// `(frame index, PSNR against the camera frame)` per decoded frame.
    decoded: Vec<(usize, f64)>,
    gaps: usize,
}

impl Receiver {
    fn new() -> Self {
        Receiver {
            camera: SyntheticCamera::new(&scenario(), W, H, SEED),
            reference: None,
            decoded: Vec::new(),
            gaps: 0,
        }
    }

    fn receive(&mut self, delivery: Delivery) {
        match delivery {
            Delivery::Frame(f) => {
                let reference = match self.reference.take() {
                    Some(previous) => previous,
                    None => {
                        assert!(f.keyframe, "decode starts at non-keyframe {}", f.frame);
                        Frame::new(W, H)
                    }
                };
                let frame = decode_frame(&f.macroblock_streams, &reference, W, H, f.qp)
                    .expect("a delivered frame decodes");
                let db = psnr(&self.camera.frame(f.frame), &frame);
                self.decoded.push((f.frame, db));
                self.reference = Some(frame);
            }
            Delivery::Lagged(_) => {
                self.gaps += 1;
                self.reference = None;
            }
            Delivery::Empty | Delivery::Closed => {}
        }
    }
}

fn run(workers: usize) -> (Receiver, ServeReport) {
    let server = ServerConfig::new(workers)
        .capacity(1e6)
        .ring(RingConfig::frames(2))
        .build();
    let mut session = server.session(
        |scn, spec: &StreamSpec| EncoderApp::new(scn, W, H, spec.seed),
        |spec: &StreamSpec| Box::new(EncoderApp::work_backend(spec.seed)) as Box<dyn ExecBackend>,
    );
    session
        .attach(
            StreamSpec::builder("cam")
                .seed(SEED)
                .config(RunConfig::paper_defaults().scaled_to_macroblocks((W / 16) * (H / 16)))
                .source(PacedSource::new(scenario()))
                .build(),
        )
        .expect("attach");
    let mut sub = session.subscribe("cam").expect("subscribe");
    let mut receiver = Receiver::new();
    let mut ticks = 0;
    while session.step().expect("step") {
        ticks += 1;
        if ticks >= FRAMES / 2 || ticks % DRAIN_EVERY == 0 {
            sub.drain().into_iter().for_each(|d| receiver.receive(d));
        }
    }
    let report = session.finish();
    sub.drain().into_iter().for_each(|d| receiver.receive(d));
    (receiver, report)
}

#[test]
fn a_lagging_subscriber_decodes_what_the_encoder_reconstructed() {
    let mut reference = None;
    for workers in [1usize, 2] {
        let (receiver, report) = run(workers);
        let result = report.outcome("cam").unwrap().result.as_ref().unwrap();
        assert!(receiver.gaps > 0, "the late subscriber must lag");
        // Keeping up, the receiver chains across keyframes to the end.
        let tail: Vec<usize> = (receiver.decoded.iter().rev())
            .map(|&(f, _)| f)
            .take(FRAMES / 4)
            .collect();
        assert!(
            tail.windows(2).all(|w| w[0] == w[1] + 1),
            "an unbroken decode chain at the end: {tail:?}"
        );
        for &(frame, db) in &receiver.decoded {
            let record = result.frames().iter().find(|r| r.frame == frame).unwrap();
            assert_eq!(
                db.to_bits(),
                record.psnr_db.to_bits(),
                "frame {frame}: decoded {db} dB, recorded {} dB",
                record.psnr_db
            );
        }
        let seen: Vec<(usize, u64)> = (receiver.decoded.iter())
            .map(|&(f, db)| (f, db.to_bits()))
            .collect();
        assert_eq!(
            *reference.get_or_insert(seen.clone()),
            seen,
            "{workers} workers"
        );
    }
}
