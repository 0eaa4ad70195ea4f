//! Codec substrate costs: DCT, quantization, motion search per quality
//! level, and entropy coding.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use fgqos_encoder::entropy::{encode_block, BitWriter};
use fgqos_encoder::frame::{Frame, PaddedFrame};
use fgqos_encoder::motion::{radius_for_quality, search};
use fgqos_encoder::synth::SyntheticCamera;
use fgqos_encoder::{dct, quant};
use fgqos_sim::scenario::LoadScenario;

fn test_frames() -> (PaddedFrame, Frame) {
    let scenario = LoadScenario::paper_benchmark(5).truncated(4);
    let cam = SyntheticCamera::new(&scenario, 176, 144, 9);
    (PaddedFrame::from_frame(&cam.frame(2)), cam.frame(3))
}

fn bench_dct(c: &mut Criterion) {
    let mut input = [0i16; 64];
    for (i, v) in input.iter_mut().enumerate() {
        *v = ((i as i16 * 13) % 200) - 100;
    }
    c.bench_function("dct_forward_8x8", |b| {
        b.iter(|| std::hint::black_box(dct::forward(&input)));
    });
    let coeffs = dct::forward(&input);
    c.bench_function("dct_inverse_8x8", |b| {
        b.iter(|| std::hint::black_box(dct::inverse(&coeffs)));
    });
    c.bench_function("quantize_8x8", |b| {
        b.iter(|| std::hint::black_box(quant::quantize(&coeffs, 12)));
    });
}

fn bench_motion(c: &mut Criterion) {
    let (reference, current) = test_frames();
    let mut g = c.benchmark_group("motion_search");
    for q in [0u8, 1, 3, 5, 7] {
        g.bench_with_input(BenchmarkId::from_parameter(q), &q, |b, &q| {
            let radius = radius_for_quality(q);
            b.iter(|| std::hint::black_box(search(&current, &reference, 64, 64, radius)));
        });
    }
    g.finish();
}

fn bench_entropy(c: &mut Criterion) {
    let mut input = [0i16; 64];
    for (i, v) in input.iter_mut().enumerate() {
        *v = ((i as i16 * 13) % 200) - 100;
    }
    let levels = quant::quantize(&dct::forward(&input), 12);
    c.bench_function("entropy_encode_block", |b| {
        b.iter(|| {
            let mut w = BitWriter::new();
            std::hint::black_box(encode_block(&mut w, &levels))
        });
    });
}

fn bench_synth(c: &mut Criterion) {
    let scenario = LoadScenario::paper_benchmark(5).truncated(8);
    let cam = SyntheticCamera::new(&scenario, 176, 144, 9);
    let mut out = Frame::new(176, 144);
    c.bench_function("synth_frame_qcif", |b| {
        b.iter(|| cam.render_into(3, std::hint::black_box(&mut out)));
    });
}

criterion_group!(benches, bench_dct, bench_motion, bench_entropy, bench_synth);
criterion_main!(benches);
