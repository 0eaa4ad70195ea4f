//! Luma frames, macroblock addressing, and the padded reference plane.
//!
//! Motion vectors are unrestricted: a candidate block may hang over the
//! frame edge, and its outside pixels take the value of the nearest edge
//! pixel ([`Frame::get_clamped`]). Clamping every pixel of every
//! candidate made border macroblocks cost about three times as much
//! per candidate as interior ones. [`PaddedFrame`] does that clamping
//! once per frame instead: it stores the reference with [`PAD`] pixels
//! of edge replication on every side. Motion search
//! ([`PaddedFrame::sad_bounded`]) and motion compensation
//! ([`PaddedFrame::block`]) then read every candidate as 16 plain row
//! slices, with the same bytes the per-pixel clamp would have produced.
//! The padded plane also carries the pixel sum of the 16×16 block at
//! every origin ([`PaddedFrame::block_sum`]), the successive-elimination
//! bound of motion search.

use std::fmt;

/// Macroblock edge length in pixels (16×16 = the paper's "macroblocks of
/// 256 pixels").
pub const MB_SIZE: usize = 16;

/// Edge replication around a [`PaddedFrame`], in pixels on each side.
///
/// One macroblock is enough for *any* vector: a block whose origin lies
/// more than `PAD` pixels outside the frame sees only replicated edge
/// pixels, exactly like the block at `PAD` pixels out. So clamping the
/// origin into the padded plane gives the same bytes as clamping every
/// pixel. It also equals the largest search radius
/// ([`crate::motion::RADIUS_BY_QUALITY`]), so real searches never need
/// that origin clamp.
pub const PAD: usize = MB_SIZE;

/// A grayscale (luma) frame whose dimensions are multiples of 16.
///
/// # Example
///
/// ```
/// use fgqos_encoder::frame::{Frame, MB_SIZE};
///
/// let f = Frame::new(48, 32);
/// assert_eq!(f.macroblocks(), 6);
/// assert_eq!(f.mb_origin(4), (MB_SIZE, MB_SIZE));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    width: usize,
    height: usize,
    data: Vec<u8>,
}

impl Frame {
    /// Creates a black frame.
    ///
    /// # Panics
    ///
    /// Panics unless both dimensions are positive multiples of
    /// [`MB_SIZE`].
    #[must_use]
    pub fn new(width: usize, height: usize) -> Self {
        assert!(
            width > 0
                && height > 0
                && width.is_multiple_of(MB_SIZE)
                && height.is_multiple_of(MB_SIZE),
            "frame dimensions must be positive multiples of {MB_SIZE}"
        );
        Frame {
            width,
            height,
            data: vec![0; width * height],
        }
    }

    /// Frame width in pixels.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Frame height in pixels.
    #[must_use]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Number of macroblocks (`width/16 · height/16`).
    #[must_use]
    pub fn macroblocks(&self) -> usize {
        (self.width / MB_SIZE) * (self.height / MB_SIZE)
    }

    /// Macroblocks per row.
    #[must_use]
    pub fn mb_cols(&self) -> usize {
        self.width / MB_SIZE
    }

    /// Pixel origin `(x, y)` of macroblock `mb` (row-major order).
    ///
    /// # Panics
    ///
    /// Panics if `mb >= macroblocks()`.
    #[must_use]
    pub fn mb_origin(&self, mb: usize) -> (usize, usize) {
        assert!(mb < self.macroblocks(), "macroblock index out of range");
        let cols = self.mb_cols();
        ((mb % cols) * MB_SIZE, (mb / cols) * MB_SIZE)
    }

    /// Pixel at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range coordinates.
    #[inline]
    #[must_use]
    pub fn get(&self, x: usize, y: usize) -> u8 {
        self.data[y * self.width + x]
    }

    /// Sets pixel `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range coordinates.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, v: u8) {
        self.data[y * self.width + x] = v;
    }

    /// Pixel at signed coordinates, clamped to the frame border
    /// (unrestricted motion vectors sample the edge pixels).
    #[inline]
    #[must_use]
    pub fn get_clamped(&self, x: i32, y: i32) -> u8 {
        let xi = x.clamp(0, self.width as i32 - 1) as usize;
        let yi = y.clamp(0, self.height as i32 - 1) as usize;
        self.data[yi * self.width + xi]
    }

    /// Copies the 16×16 macroblock at `(ox, oy)` into a flat 256-byte
    /// array.
    ///
    /// # Panics
    ///
    /// Panics if the block does not fit in the frame.
    #[must_use]
    pub fn block(&self, ox: usize, oy: usize) -> [u8; MB_SIZE * MB_SIZE] {
        assert!(ox + MB_SIZE <= self.width && oy + MB_SIZE <= self.height);
        let mut out = [0u8; MB_SIZE * MB_SIZE];
        for dy in 0..MB_SIZE {
            let row = (oy + dy) * self.width + ox;
            out[dy * MB_SIZE..(dy + 1) * MB_SIZE].copy_from_slice(&self.data[row..row + MB_SIZE]);
        }
        out
    }

    /// 16×16 block sampled at a *signed* origin with per-pixel border
    /// clamping: the definition [`PaddedFrame::block`] reproduces from
    /// the padded plane.
    #[must_use]
    pub fn block_clamped(&self, ox: i32, oy: i32) -> [u8; MB_SIZE * MB_SIZE] {
        let mut out = [0u8; MB_SIZE * MB_SIZE];
        for dy in 0..MB_SIZE {
            for dx in 0..MB_SIZE {
                out[dy * MB_SIZE + dx] = self.get_clamped(ox + dx as i32, oy + dy as i32);
            }
        }
        out
    }

    /// Writes a 256-byte block at macroblock origin `(ox, oy)`.
    ///
    /// # Panics
    ///
    /// Panics if the block does not fit in the frame.
    pub fn write_block(&mut self, ox: usize, oy: usize, block: &[u8; MB_SIZE * MB_SIZE]) {
        assert!(ox + MB_SIZE <= self.width && oy + MB_SIZE <= self.height);
        for dy in 0..MB_SIZE {
            let row = (oy + dy) * self.width + ox;
            self.data[row..row + MB_SIZE].copy_from_slice(&block[dy * MB_SIZE..(dy + 1) * MB_SIZE]);
        }
    }

    /// Raw pixel data, row-major.
    #[must_use]
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// Mutable raw pixel data, row-major.
    #[must_use]
    pub fn data_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }
}

impl fmt::Display for Frame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{} luma frame", self.width, self.height)
    }
}

/// A frame stored with [`PAD`] pixels of edge replication on every side:
/// the reference plane of motion search and motion compensation.
///
/// Beside the pixels it keeps a `u16` plane of block sums: the sum of
/// the 16×16 block at every origin of the padded plane (at most
/// 256 · 255 = 65,280, so it fits). [`PaddedFrame::refill`] rebuilds it
/// with the pixels, and [`PaddedFrame::block_sum`] reads it through the
/// same origin clamp as [`PaddedFrame::block`], so a sum is exact for
/// every signed origin. Motion search uses it to rule out candidates
/// without scoring them (see [`crate::motion`]).
///
/// # Example
///
/// ```
/// use fgqos_encoder::frame::{Frame, PaddedFrame};
///
/// let mut f = Frame::new(32, 16);
/// f.set(0, 0, 200);
/// let padded = PaddedFrame::from_frame(&f);
/// // Outside the frame, the nearest edge pixel is repeated.
/// assert_eq!(padded.block(-16, -16), f.block_clamped(-16, -16));
/// assert_eq!(padded.block(-16, -16)[255], 200);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PaddedFrame {
    width: usize,
    height: usize,
    /// Bytes per padded row: `width + 2 * PAD`.
    stride: usize,
    data: Vec<u8>,
    /// Sum of the 16×16 block whose top-left pixel is `data[i]`, at every
    /// index `i` a block fits below (same stride as `data`; the last
    /// `MB_SIZE - 1` entries of each row hold values no clamped origin
    /// reads), then one spare row of scratch for [`Self::fill_sums`].
    sums: Vec<u16>,
}

impl PaddedFrame {
    /// Creates a black padded plane for frames of `width × height`.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Frame::new`].
    #[must_use]
    pub fn new(width: usize, height: usize) -> Self {
        let _probe = Frame::new(width, height);
        let stride = width + 2 * PAD;
        let rows = height + 2 * PAD;
        PaddedFrame {
            width,
            height,
            stride,
            data: vec![0; stride * rows],
            sums: vec![0; stride * (rows - MB_SIZE + 2)],
        }
    }

    /// Builds the padded plane of `frame`.
    #[must_use]
    pub fn from_frame(frame: &Frame) -> Self {
        let mut out = PaddedFrame::new(frame.width, frame.height);
        out.refill(frame);
        out
    }

    /// Overwrites this plane in place with `frame`, its replicated edges
    /// and its block sums (no allocation).
    ///
    /// # Panics
    ///
    /// Panics if `frame` has different dimensions.
    pub fn refill(&mut self, frame: &Frame) {
        assert_eq!(
            (frame.width, frame.height),
            (self.width, self.height),
            "padded plane and frame dimensions differ"
        );
        let (w, s) = (self.width, self.stride);
        for (y, row) in frame.data.chunks_exact(w).enumerate() {
            let out = &mut self.data[(y + PAD) * s..(y + PAD + 1) * s];
            out[..PAD].fill(row[0]);
            out[PAD..PAD + w].copy_from_slice(row);
            out[PAD + w..].fill(row[w - 1]);
        }
        let first = PAD * s;
        let last = (PAD + self.height - 1) * s;
        for r in 0..PAD {
            self.data.copy_within(first..first + s, r * s);
            self.data
                .copy_within(last..last + s, (PAD + self.height + r) * s);
        }
        self.fill_sums();
    }

    /// Rebuilds the block-sum plane from the pixels, in two passes of
    /// plain element-wise adds the compiler vectorizes. First the column
    /// sums: each row of `sums` gets the sum of the 16 pixel rows from
    /// its own down, slid from the row above (add the row entering, drop
    /// the row leaving). Then each row is summed 16 wide by four doubling
    /// steps (2, 4, 8, 16 columns), ping-ponging with the spare last row.
    /// No intermediate exceeds the final 16×16 sum, so `u16` never
    /// overflows.
    fn fill_sums(&mut self) {
        let s = self.stride;
        let last = self.sums.len() - s;
        let (sums, spare) = self.sums.split_at_mut(last);
        let (first, _) = sums.split_at_mut(s);
        first.fill(0);
        for row in self.data.chunks_exact(s).take(MB_SIZE) {
            for (c, &p) in first.iter_mut().zip(row) {
                *c += u16::from(p);
            }
        }
        for y in 1..sums.len() / s {
            let (above, below) = sums.split_at_mut(y * s);
            let prev = &above[(y - 1) * s..];
            let enter = &self.data[(y - 1 + MB_SIZE) * s..(y + MB_SIZE) * s];
            let leave = &self.data[(y - 1) * s..y * s];
            for (((c, &p), &e), &l) in below[..s].iter_mut().zip(prev).zip(enter).zip(leave) {
                *c = p + u16::from(e) - u16::from(l);
            }
        }
        for row in sums.chunks_exact_mut(s) {
            for (t, (&a, &b)) in spare.iter_mut().zip(row.iter().zip(&row[1..])) {
                *t = a + b;
            }
            for (r, (&a, &b)) in row.iter_mut().zip(spare.iter().zip(&spare[2..])) {
                *r = a + b;
            }
            for (t, (&a, &b)) in spare.iter_mut().zip(row.iter().zip(&row[4..])) {
                *t = a + b;
            }
            for (r, (&a, &b)) in row.iter_mut().zip(spare.iter().zip(&spare[8..])) {
                *r = a + b;
            }
        }
    }

    /// Index of the top-left pixel of the 16×16 block at signed origin
    /// `(ox, oy)`, in `data` and in `sums` alike. The origin is clamped
    /// into the padded plane, which leaves the block's bytes unchanged
    /// (see [`PAD`]).
    #[inline]
    fn block_start(&self, ox: i32, oy: i32) -> usize {
        let max_x = (self.width + 2 * PAD - MB_SIZE) as i32;
        let max_y = (self.height + 2 * PAD - MB_SIZE) as i32;
        let px = ox.saturating_add(PAD as i32).clamp(0, max_x) as usize;
        let py = oy.saturating_add(PAD as i32).clamp(0, max_y) as usize;
        py * self.stride + px
    }

    /// The 16×16 block at signed origin `(ox, oy)`; equals
    /// [`Frame::block_clamped`] of the source frame for every origin.
    #[must_use]
    pub fn block(&self, ox: i32, oy: i32) -> [u8; MB_SIZE * MB_SIZE] {
        let start = self.block_start(ox, oy);
        let mut out = [0u8; MB_SIZE * MB_SIZE];
        for (dy, dst) in out.chunks_exact_mut(MB_SIZE).enumerate() {
            let row = start + dy * self.stride;
            dst.copy_from_slice(&self.data[row..row + MB_SIZE]);
        }
        out
    }

    /// Sum of the pixels of the 16×16 block at signed origin `(ox, oy)`;
    /// equals the sum of [`PaddedFrame::block`] for every origin.
    #[inline]
    #[must_use]
    pub fn block_sum(&self, ox: i32, oy: i32) -> u16 {
        self.sums[self.block_start(ox, oy)]
    }

    /// SAD between `target` and the 16×16 block at signed origin
    /// `(ox, oy)`, with a row-wise early bail once the running sum
    /// exceeds `limit`.
    ///
    /// The return value is the *exact* SAD whenever it is `<= limit`;
    /// above the limit it may be any partial sum that is `> limit` (the
    /// running sum is monotone, so a bail can only happen when the true
    /// SAD also exceeds the limit). This lets motion search pass its
    /// current best as the limit and skip the tail of hopeless
    /// candidates without ever changing which candidate wins — ties at
    /// exactly `limit` are still summed in full.
    #[must_use]
    pub fn sad_bounded(
        &self,
        target: &[u8; MB_SIZE * MB_SIZE],
        ox: i32,
        oy: i32,
        limit: u32,
    ) -> u32 {
        let start = self.block_start(ox, oy);
        let mut total = 0u32;
        for (dy, trow) in target.chunks_exact(MB_SIZE).enumerate() {
            let row = start + dy * self.stride;
            let cand = &self.data[row..row + MB_SIZE];
            let mut acc = 0u32;
            for (&t, &c) in trow.iter().zip(cand) {
                acc += u32::from(t.abs_diff(c));
            }
            total += acc;
            if total > limit {
                return total;
            }
        }
        total
    }
}

/// Sum of absolute differences between two 256-byte blocks, the metric of
/// motion estimation and the intra/inter decision.
#[must_use]
pub fn sad(a: &[u8; MB_SIZE * MB_SIZE], b: &[u8; MB_SIZE * MB_SIZE]) -> u32 {
    a.iter()
        .zip(b.iter())
        .map(|(&x, &y)| u32::from(x.abs_diff(y)))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dimensions_must_be_mb_multiples() {
        assert!(std::panic::catch_unwind(|| Frame::new(17, 16)).is_err());
        assert!(std::panic::catch_unwind(|| Frame::new(0, 16)).is_err());
        let f = Frame::new(32, 16);
        assert_eq!(f.macroblocks(), 2);
        assert_eq!(f.mb_cols(), 2);
    }

    #[test]
    fn mb_origins_are_row_major() {
        let f = Frame::new(48, 32);
        assert_eq!(f.mb_origin(0), (0, 0));
        assert_eq!(f.mb_origin(2), (32, 0));
        assert_eq!(f.mb_origin(3), (0, 16));
        assert_eq!(f.mb_origin(5), (32, 16));
    }

    #[test]
    fn block_roundtrip() {
        let mut f = Frame::new(32, 32);
        let mut blk = [0u8; 256];
        for (i, v) in blk.iter_mut().enumerate() {
            *v = (i % 251) as u8;
        }
        f.write_block(16, 16, &blk);
        assert_eq!(f.block(16, 16), blk);
        assert_eq!(f.get(16, 16), 0);
        assert_eq!(f.get(17, 16), 1);
    }

    #[test]
    fn clamped_access_extends_borders() {
        let mut f = Frame::new(16, 16);
        f.set(0, 0, 200);
        f.set(15, 15, 99);
        assert_eq!(f.get_clamped(-5, -5), 200);
        assert_eq!(f.get_clamped(20, 20), 99);
        let blk = f.block_clamped(-16, -16);
        assert_eq!(blk[0], 200);
    }

    #[test]
    fn sad_counts_absolute_differences() {
        let a = [10u8; 256];
        let mut b = [10u8; 256];
        b[0] = 15;
        b[1] = 5;
        assert_eq!(sad(&a, &b), 10);
        assert_eq!(sad(&a, &a), 0);
    }

    fn noise_frame(w: usize, h: usize) -> Frame {
        let mut f = Frame::new(w, h);
        let mut seed = 0x5ad_cafe_u64;
        for p in f.data_mut() {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *p = (seed >> 33) as u8;
        }
        f
    }

    /// The original bounded SAD's per-pixel clamped path: the oracle
    /// for [`PaddedFrame::sad_bounded`] at every origin and limit.
    fn sad_clamped_bounded(
        f: &Frame,
        target: &[u8; MB_SIZE * MB_SIZE],
        ox: i32,
        oy: i32,
        limit: u32,
    ) -> u32 {
        let mut total = 0u32;
        for dy in 0..MB_SIZE {
            let yi = (oy + dy as i32).clamp(0, f.height as i32 - 1) as usize;
            let base = yi * f.width;
            let trow = &target[dy * MB_SIZE..(dy + 1) * MB_SIZE];
            let mut acc = 0u32;
            for (dx, &t) in trow.iter().enumerate() {
                let xi = (ox + dx as i32).clamp(0, f.width as i32 - 1) as usize;
                acc += u32::from(t.abs_diff(f.data[base + xi]));
            }
            total += acc;
            if total > limit {
                return total;
            }
        }
        total
    }

    #[test]
    fn padded_border_replicates_the_clamped_edge() {
        for (w, h) in [(16, 16), (48, 32), (176, 144)] {
            let f = noise_frame(w, h);
            let padded = PaddedFrame::from_frame(&f);
            // Padded row `py`, column `px` holds frame pixel
            // `(px - PAD, py - PAD)`.
            let pad = PAD as i32;
            for (py, row) in padded.data.chunks_exact(padded.stride).enumerate() {
                for (px, &got) in row.iter().enumerate() {
                    let (x, y) = (px as i32 - pad, py as i32 - pad);
                    assert_eq!(got, f.get_clamped(x, y), "({x}, {y}) at {w}x{h}");
                }
            }
        }
    }

    #[test]
    fn refill_overwrites_in_place() {
        let mut padded = PaddedFrame::from_frame(&noise_frame(48, 32));
        let ptr = padded.data.as_ptr();
        let mut next = Frame::new(48, 32);
        next.set(47, 31, 9);
        padded.refill(&next);
        assert_eq!(padded, PaddedFrame::from_frame(&next));
        assert_eq!(padded.data.as_ptr(), ptr, "allocation must be reused");
        assert!(std::panic::catch_unwind(move || padded.refill(&Frame::new(32, 32))).is_err());
    }

    #[test]
    fn padded_blocks_equal_clamped_blocks_at_every_origin() {
        let f = noise_frame(48, 32);
        let padded = PaddedFrame::from_frame(&f);
        for oy in -40..56 {
            for ox in -40..72 {
                assert_eq!(
                    padded.block(ox, oy),
                    f.block_clamped(ox, oy),
                    "({ox}, {oy})"
                );
            }
        }
    }

    #[test]
    fn bounded_sad_matches_the_clamped_oracle_at_every_limit() {
        let f = noise_frame(48, 32);
        let padded = PaddedFrame::from_frame(&f);
        let target = f.block(16, 16);
        // Interior and border origins, with and without a binding limit.
        for (ox, oy) in [
            (16, 16),
            (18, 15),
            (0, 0),
            (-7, -3),
            (40, 20),
            (45, 29),
            (-30, 50),
        ] {
            let exact = sad(&target, &f.block_clamped(ox, oy));
            for limit in [u32::MAX, exact, exact.saturating_sub(1), exact / 2, 0] {
                let got = padded.sad_bounded(&target, ox, oy, limit);
                assert_eq!(got, sad_clamped_bounded(&f, &target, ox, oy, limit));
                if limit >= exact {
                    assert_eq!(got, exact, "exact up to the limit");
                } else {
                    assert!(got > limit, "bail must exceed the limit");
                    assert!(got <= exact, "partial sums never exceed the true SAD");
                }
            }
        }
    }

    /// Asserts [`PaddedFrame::block_sum`] equals the brute-force sum of
    /// the clamped block at every origin of the padded plane, plus a ring
    /// of origins past it that the clamp folds back in.
    fn assert_sums_match(padded: &PaddedFrame, f: &Frame, what: &str) {
        let reach = PAD as i32 + 3;
        for oy in -reach..=f.height as i32 + 3 {
            for ox in -reach..=f.width as i32 + 3 {
                let want: u32 = f.block_clamped(ox, oy).iter().map(|&p| u32::from(p)).sum();
                assert_eq!(
                    u32::from(padded.block_sum(ox, oy)),
                    want,
                    "{what}: origin ({ox}, {oy})"
                );
            }
        }
    }

    #[test]
    fn block_sums_equal_brute_force_at_every_clamped_origin() {
        use crate::synth::SyntheticCamera;
        use fgqos_sim::scenario::LoadScenario;
        let scenario = LoadScenario::paper_benchmark(2).truncated(8);
        let cam = SyntheticCamera::new(&scenario, 64, 48, 2);
        let mut white = Frame::new(64, 48);
        white.data_mut().fill(255);
        let frames = [
            ("noise", noise_frame(64, 48)),
            ("camera 3", cam.frame(3)),
            ("white", white),
            ("camera 7", cam.frame(7)),
        ];
        // Refill one plane frame after frame: no stale sum survives.
        let mut padded = PaddedFrame::new(64, 48);
        for (what, f) in &frames {
            padded.refill(f);
            assert_sums_match(&padded, f, what);
        }
        assert_eq!(
            PaddedFrame::from_frame(&frames[2].1).block_sum(-99, 99),
            65_280
        );
    }

    #[test]
    fn display_mentions_dims() {
        assert_eq!(Frame::new(32, 16).to_string(), "32x16 luma frame");
    }
}
