//! Encoder kernel costs: the vectorized hot paths against the scalar
//! references they replaced.
//!
//! * `dct_forward` / `dct_inverse` — the LUT-basis fixed-lane transforms
//!   vs [`fgqos_bench::kernel_refs::dct_forward_reference`] /
//!   [`fgqos_bench::kernel_refs::dct_inverse_reference`] (per-multiply
//!   `cos()`), the bit-identity oracle;
//! * `quant_roundtrip` — the DC-peeled branch-free quantizer loops vs a
//!   local copy of the original per-element branchy form;
//! * `motion_search` — the allocation-free bounded-SAD search over the
//!   padded reference vs the original `Vec`-ring, exhaustive-SAD search
//!   over per-pixel clamped candidates
//!   ([`fgqos_bench::kernel_refs::search_reference`]), on noise frames
//!   (worst case: early exit never fires), mixing interior and border
//!   macroblocks, plus a corner macroblock alone at radius 16 (about
//!   three quarters of its candidates hang over the border);
//! * `compress` — one macroblock's `Compress` kernel (const zigzag
//!   table, word-accumulator writer) vs the original per-block zigzag
//!   rebuild and bit-at-a-time writer
//!   ([`fgqos_bench::kernel_refs::compress_reference`]).
//!
//! The smoke gate lives in `bench_smoke` (`BENCH_kernels.json`); this
//! bench is the statistically careful version of the same comparisons.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use fgqos_bench::kernel_refs::{
    compress, compress_reference, dct_forward_reference, dct_inverse_reference, search_reference,
};
use fgqos_encoder::dct;
use fgqos_encoder::frame::{Frame, PaddedFrame};
use fgqos_encoder::motion::search;
use fgqos_encoder::quant::{dequantize, quantize};

fn lcg(seed: &mut u64) -> u64 {
    *seed = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *seed >> 33
}

fn residual_blocks(count: usize) -> Vec<[i16; 64]> {
    let mut seed = 0xce11_u64;
    (0..count)
        .map(|_| {
            let mut b = [0i16; 64];
            for v in &mut b {
                *v = (lcg(&mut seed) % 511) as i16 - 255;
            }
            b
        })
        .collect()
}

fn noise_frame(w: usize, h: usize, seed: &mut u64) -> Frame {
    let mut f = Frame::new(w, h);
    for p in f.data_mut() {
        *p = lcg(seed) as u8;
    }
    f
}

fn bench_dct(c: &mut Criterion) {
    let blocks = residual_blocks(64);
    let coeffs: Vec<[f32; 64]> = blocks.iter().map(dct::forward).collect();
    let mut g = c.benchmark_group("kernels_dct");
    g.bench_function("forward", |b| {
        b.iter(|| {
            for blk in &blocks {
                std::hint::black_box(dct::forward(blk));
            }
        });
    });
    g.bench_function("forward_reference", |b| {
        b.iter(|| {
            for blk in &blocks {
                std::hint::black_box(dct_forward_reference(blk));
            }
        });
    });
    g.bench_function("inverse", |b| {
        b.iter(|| {
            for cf in &coeffs {
                std::hint::black_box(dct::inverse(cf));
            }
        });
    });
    g.bench_function("inverse_reference", |b| {
        b.iter(|| {
            for cf in &coeffs {
                std::hint::black_box(dct_inverse_reference(cf));
            }
        });
    });
    g.finish();
}

fn bench_quant(c: &mut Criterion) {
    let blocks = residual_blocks(64);
    let coeffs: Vec<[f32; 64]> = blocks.iter().map(dct::forward).collect();
    let mut g = c.benchmark_group("kernels_quant");
    g.bench_function("roundtrip", |b| {
        b.iter(|| {
            for cf in &coeffs {
                let q = quantize(cf, 12);
                std::hint::black_box(dequantize(&q, 12));
            }
        });
    });
    g.bench_function("roundtrip_reference", |b| {
        b.iter(|| {
            for cf in &coeffs {
                // The original per-element branchy formulation.
                let mut q = [0i16; 64];
                for (i, (o, &cv)) in q.iter_mut().zip(cf.iter()).enumerate() {
                    let step = if i == 0 { 12.0f32 } else { 24.0 };
                    *o = (cv / step).round().clamp(-2048.0, 2048.0) as i16;
                }
                let mut d = [0f32; 64];
                for (i, (o, &l)) in d.iter_mut().zip(q.iter()).enumerate() {
                    let step = if i == 0 { 12.0f32 } else { 24.0 };
                    *o = f32::from(l) * step;
                }
                std::hint::black_box(d);
            }
        });
    });
    g.finish();
}

fn bench_motion(c: &mut Criterion) {
    let mut seed = 0x0b07_u64;
    let noise_cur = noise_frame(128, 96, &mut seed);
    let noise_ref = noise_frame(128, 96, &mut seed);
    let padded_ref = PaddedFrame::from_frame(&noise_ref);
    let mut g = c.benchmark_group("kernels_motion");
    for radius in [4i32, 16] {
        g.bench_with_input(BenchmarkId::new("search", radius), &radius, |b, &r| {
            b.iter(|| {
                for mb in [0usize, 21, 47] {
                    let (ox, oy) = noise_cur.mb_origin(mb);
                    std::hint::black_box(search(&noise_cur, &padded_ref, ox, oy, r));
                }
            });
        });
        g.bench_with_input(
            BenchmarkId::new("search_reference", radius),
            &radius,
            |b, &r| {
                b.iter(|| {
                    for mb in [0usize, 21, 47] {
                        let (ox, oy) = noise_cur.mb_origin(mb);
                        std::hint::black_box(search_reference(&noise_cur, &noise_ref, ox, oy, r));
                    }
                });
            },
        );
    }
    g.bench_function("search_border_16", |b| {
        b.iter(|| std::hint::black_box(search(&noise_cur, &padded_ref, 0, 0, 16)));
    });
    g.bench_function("search_border_16_reference", |b| {
        b.iter(|| std::hint::black_box(search_reference(&noise_cur, &noise_ref, 0, 0, 16)));
    });
    g.finish();
}

fn bench_compress(c: &mut Criterion) {
    let blocks = residual_blocks(64);
    let macroblocks: Vec<[[i16; 64]; 4]> = blocks
        .chunks_exact(4)
        .map(|mb| std::array::from_fn(|i| quantize(&dct::forward(&mb[i]), 12)))
        .collect();
    let mut g = c.benchmark_group("kernels_compress");
    g.bench_function("macroblock", |b| {
        b.iter(|| {
            for levels in &macroblocks {
                std::hint::black_box(compress(levels, Some((3, -2))));
            }
        });
    });
    g.bench_function("macroblock_reference", |b| {
        b.iter(|| {
            for levels in &macroblocks {
                std::hint::black_box(compress_reference(levels, Some((3, -2))));
            }
        });
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_dct,
    bench_quant,
    bench_motion,
    bench_compress
);
criterion_main!(benches);
