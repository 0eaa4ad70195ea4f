//! The vectorized encoder kernels against their original forms
//! ([`fgqos_bench::kernel_refs`]), with a bit-identity check on the same
//! inputs (`BENCH_kernels.json`).

use std::time::Duration;

use fgqos_bench::kernel_refs::{
    compress, compress_reference, dct_forward_reference, dct_inverse_reference, search_reference,
};
use fgqos_encoder::dct;
use fgqos_encoder::frame::{Frame, PaddedFrame};
use fgqos_encoder::motion::search;
use fgqos_encoder::quant::{dequantize, quantize};
use fgqos_encoder::synth::SyntheticCamera;
use fgqos_sim::scenario::LoadScenario;
use fgqos_telemetry::json::{JsonObj, JsonValue};

use crate::harness::{best_of, lcg, ms, ratio, Section, H, REPS, W};

/// Kernel smoke shapes: enough inner iterations that the timer
/// resolution is irrelevant, small enough to finish in milliseconds.
const KRN_BLOCKS: usize = 64;
const KRN_ITERS: usize = 200;
/// The LUT DCT must beat the `cos()`-per-multiply reference by this
/// factor (the real margin is far larger; 2× absorbs any host noise).
const KRN_DCT_MIN_SPEEDUP: f64 = 2.0;
/// Repetitions of the single border-macroblock search per timed rep.
const KRN_BORDER_ITERS: usize = 20;
/// The camera motion case: frames `KRN_CAMERA_FRAME - 1 → KRN_CAMERA_FRAME`
/// of the paper benchmark, inside its heavy-motion scene 3.
const KRN_CAMERA_FRAME: usize = 196;

/// Best-of-`REPS` wall time of `KRN_ITERS` passes of `f` over `items`.
fn time_each<T>(items: &[T], f: impl Fn(&T)) -> Duration {
    best_of(REPS, || {
        for _ in 0..KRN_ITERS {
            for item in items {
                f(std::hint::black_box(item));
            }
        }
    })
}

pub fn run() -> Section {
    let mut seed = 0xce11_u64;
    let blocks: Vec<[i16; 64]> = (0..KRN_BLOCKS)
        .map(|_| {
            let mut b = [0i16; 64];
            for v in &mut b {
                *v = (lcg(&mut seed) % 511) as i16 - 255;
            }
            b
        })
        .collect();
    let coeffs: Vec<[f32; 64]> = blocks.iter().map(dct::forward).collect();

    // Bit identity first: the speedup is meaningless if the outputs
    // moved.
    let mut bit_identical = true;
    for (blk, cf) in blocks.iter().zip(&coeffs) {
        let reference = dct_forward_reference(blk);
        bit_identical &= cf
            .iter()
            .zip(reference.iter())
            .all(|(a, b)| a.to_bits() == b.to_bits());
        bit_identical &= dct::inverse(cf) == dct_inverse_reference(&reference);
    }

    let t_fwd = time_each(&blocks, |b| {
        std::hint::black_box(dct::forward(b));
    });
    let t_fwd_ref = time_each(&blocks, |b| {
        std::hint::black_box(dct_forward_reference(b));
    });
    let t_inv = time_each(&coeffs, |c| {
        std::hint::black_box(dct::inverse(c));
    });
    let t_inv_ref = time_each(&coeffs, |c| {
        std::hint::black_box(dct_inverse_reference(c));
    });
    let dct_speedup = ratio(t_fwd_ref + t_inv_ref, t_fwd + t_inv);

    let t_quant = time_each(&coeffs, |c| {
        let q = quantize(c, 12);
        std::hint::black_box(dequantize(&q, 12));
    });

    // Motion on noise frames: the regime where the bounded SAD does the
    // work (early exit never fires, and successive elimination prunes
    // nothing).
    let mut fseed = 0x0b07_u64;
    let mut noise = |w: usize, h: usize| {
        let mut f = Frame::new(w, h);
        for p in f.data_mut() {
            *p = lcg(&mut fseed) as u8;
        }
        f
    };
    let cur = noise(W, H);
    let reff = noise(W, H);
    let padded = PaddedFrame::from_frame(&reff);
    let mbs = [0usize, 21, 47];
    for &mb in &mbs {
        let (ox, oy) = cur.mb_origin(mb);
        bit_identical &=
            search(&cur, &padded, ox, oy, 16) == search_reference(&cur, &reff, ox, oy, 16);
    }
    let t_search = best_of(REPS, || {
        for &mb in &mbs {
            let (ox, oy) = cur.mb_origin(mb);
            std::hint::black_box(search(&cur, &padded, ox, oy, 16));
        }
    });
    let t_search_ref = best_of(REPS, || {
        for &mb in &mbs {
            let (ox, oy) = cur.mb_origin(mb);
            std::hint::black_box(search_reference(&cur, &reff, ox, oy, 16));
        }
    });
    let search_speedup = ratio(t_search_ref, t_search);

    // Border macroblocks: about three quarters of the radius-16
    // candidates of the bottom-right corner hang over the frame edge,
    // the case the padded reference exists for.
    let corner = cur.macroblocks() - 1;
    let (cx, cy) = cur.mb_origin(corner);
    bit_identical &= search(&cur, &padded, cx, cy, 16) == search_reference(&cur, &reff, cx, cy, 16);
    let t_border = best_of(REPS, || {
        for _ in 0..KRN_BORDER_ITERS {
            std::hint::black_box(search(&cur, &padded, cx, cy, 16));
        }
    });
    let t_border_ref = best_of(REPS, || {
        for _ in 0..KRN_BORDER_ITERS {
            std::hint::black_box(search_reference(&cur, &reff, cx, cy, 16));
        }
    });
    let border_speedup = ratio(t_border_ref, t_border);

    // Motion on moving camera content, every macroblock: the regime
    // where successive elimination prunes most candidates (reported, not
    // gated).
    let scenario = LoadScenario::paper_benchmark(1).truncated(KRN_CAMERA_FRAME + 1);
    let camera = SyntheticCamera::new(&scenario, W, H, 1);
    let cam_ref = camera.frame(KRN_CAMERA_FRAME - 1);
    let cam_cur = camera.frame(KRN_CAMERA_FRAME);
    let cam_padded = PaddedFrame::from_frame(&cam_ref);
    let cam_origins: Vec<(usize, usize)> = (0..cam_cur.macroblocks())
        .map(|mb| cam_cur.mb_origin(mb))
        .collect();
    for &(ox, oy) in &cam_origins {
        bit_identical &= search(&cam_cur, &cam_padded, ox, oy, 16)
            == search_reference(&cam_cur, &cam_ref, ox, oy, 16);
    }
    let t_camera = best_of(REPS, || {
        for &(ox, oy) in &cam_origins {
            std::hint::black_box(search(&cam_cur, &cam_padded, ox, oy, 16));
        }
    });
    let t_camera_ref = best_of(REPS, || {
        for &(ox, oy) in &cam_origins {
            std::hint::black_box(search_reference(&cam_cur, &cam_ref, ox, oy, 16));
        }
    });
    let camera_speedup = ratio(t_camera_ref, t_camera);

    // Compress: one macroblock's entropy coding (inter, so the vector is
    // coded too) over the quantized residual blocks.
    let macroblocks: Vec<[[i16; 64]; 4]> = coeffs
        .chunks_exact(4)
        .map(|mb| std::array::from_fn(|i| quantize(&mb[i], 12)))
        .collect();
    for levels in &macroblocks {
        bit_identical &=
            compress(levels, Some((3, -2))) == compress_reference(levels, Some((3, -2)));
    }
    let t_compress = time_each(&macroblocks, |l| {
        std::hint::black_box(compress(l, Some((3, -2))));
    });
    let t_compress_ref = time_each(&macroblocks, |l| {
        std::hint::black_box(compress_reference(l, Some((3, -2))));
    });
    let compress_speedup = ratio(t_compress_ref, t_compress);

    let pass = bit_identical && dct_speedup >= KRN_DCT_MIN_SPEEDUP;
    let json = JsonObj::new()
        .str(
            "workload",
            &format!("encoder kernels, {KRN_BLOCKS} blocks x {KRN_ITERS} iters, best-of-{REPS}"),
        )
        .obj(
            "dct",
            JsonObj::new()
                .fixed("forward_ms", ms(t_fwd), 3)
                .fixed("forward_reference_ms", ms(t_fwd_ref), 3)
                .fixed("inverse_ms", ms(t_inv), 3)
                .fixed("inverse_reference_ms", ms(t_inv_ref), 3)
                .fixed("speedup", dct_speedup, 3)
                .set("min_speedup", JsonValue::Float(KRN_DCT_MIN_SPEEDUP)),
        )
        .obj(
            "quant",
            JsonObj::new().fixed("roundtrip_ms", ms(t_quant), 3),
        )
        .obj(
            "motion",
            JsonObj::new()
                .int("radius", 16)
                .fixed("search_ms", ms(t_search), 3)
                .fixed("search_reference_ms", ms(t_search_ref), 3)
                .fixed("speedup", search_speedup, 3),
        )
        .obj(
            "motion_border",
            JsonObj::new()
                .int("radius", 16)
                .int("macroblock", corner as u64)
                .int("iters", KRN_BORDER_ITERS as u64)
                .fixed("search_ms", ms(t_border), 3)
                .fixed("search_reference_ms", ms(t_border_ref), 3)
                .fixed("speedup", border_speedup, 3),
        )
        .obj(
            "motion_camera",
            JsonObj::new()
                .int("radius", 16)
                .int("frame", KRN_CAMERA_FRAME as u64)
                .int("macroblocks", cam_origins.len() as u64)
                .fixed("search_ms", ms(t_camera), 3)
                .fixed("search_reference_ms", ms(t_camera_ref), 3)
                .fixed("speedup", camera_speedup, 3),
        )
        .obj(
            "compress",
            JsonObj::new()
                .int("macroblocks", macroblocks.len() as u64)
                .fixed("compress_ms", ms(t_compress), 3)
                .fixed("compress_reference_ms", ms(t_compress_ref), 3)
                .fixed("speedup", compress_speedup, 3),
        )
        .bool("bit_identical", bit_identical)
        .obj(
            "gate",
            JsonObj::new().bool("enforced", true).bool("pass", pass),
        )
        .build()
        .pretty();
    let failures = if pass {
        Vec::new()
    } else {
        vec![format!(
            "encoder kernels lost a gate (dct speedup {dct_speedup:.3} vs minimum \
             {KRN_DCT_MIN_SPEEDUP}, bit_identical {bit_identical})"
        )]
    };
    Section {
        file: "BENCH_kernels.json",
        json,
        failures,
        ..Section::default()
    }
}
