//! Sample statistics, the output digest and span self-time accounting.

use std::collections::BTreeMap;

use fgqos_serve::{AdmissionDecision, AdmissionReport};
use fgqos_sim::runner::{FrameRecord, StreamResult};
use fgqos_telemetry::SpanEvent;

/// Percentiles a tail metric may fall back to, highest first. A tail
/// metric is named after the first entry (`*_p99_*`), and reports the
/// highest entry that has at least [`MIN_BEYOND`] samples beyond it.
pub const TAIL_PERCENTILES: [usize; 5] = [99, 95, 90, 75, 50];

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest rank (1-based) of percentile `p` among `n` samples.
fn rank(p: usize, n: usize) -> usize {
    (p * n).div_ceil(100).clamp(1, n)
}

/// The highest percentile of [`TAIL_PERCENTILES`] that `n` samples
/// support, or `None` when even the median has fewer than
/// [`MIN_BEYOND`] samples beyond it.
#[must_use]
pub fn tail_percentile(n: usize) -> Option<usize> {
    TAIL_PERCENTILES
        .iter()
        .copied()
        .find(|&p| n > 0 && n - rank(p, n) >= MIN_BEYOND)
}

/// Nearest-rank percentile `p` (1–100) of `sorted` (ascending).
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn percentile(sorted: &[f64], p: usize) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(p, sorted.len()) - 1]
}

/// Median of `values` (mean of the middle pair for even counts).
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A latency sample set summarised by the percentile rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Median.
    pub p50: f64,
    /// The tail value, at percentile [`Tail::tail_pct`].
    pub tail: f64,
    /// Which percentile `tail` is (99 whenever the sample supports it).
    pub tail_pct: usize,
    /// Number of samples.
    pub samples: usize,
}

/// Summarises `samples` by the percentile rule; `None` when there are
/// too few samples for any percentile.
#[must_use]
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let tail_pct = tail_percentile(samples.len())?;
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(Tail {
        p50: percentile(&sorted, 50),
        tail: percentile(&sorted, tail_pct),
        tail_pct,
        samples: sorted.len(),
    })
}

/// FNV-1a over everything the benchmark checks: stable across
/// toolchains and platforms, unlike `std`'s hasher.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds raw bytes in.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds an integer in.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Folds a float in, bit for bit.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Folds a length-prefixed string in.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    /// Folds every field of one frame record in.
    pub fn frame(&mut self, r: &FrameRecord) {
        self.u64(r.frame as u64);
        self.u64(u64::from(r.skipped));
        self.u64(u64::from(r.is_iframe));
        self.u64(r.start.get());
        self.u64(r.encode_cycles.get());
        self.u64(r.budget.get());
        self.u64(r.latency.get());
        self.f64(r.mean_quality);
        self.u64(r.misses as u64);
        self.u64(r.fallbacks as u64);
        self.u64(r.quality_switches as u64);
        self.f64(r.psnr_db);
    }

    /// Folds a whole stream result in: its label and every frame.
    pub fn result(&mut self, r: &StreamResult) {
        self.str(r.label());
        self.u64(r.frames().len() as u64);
        for f in r.frames() {
            self.frame(f);
        }
    }

    /// Folds an admission decision in.
    pub fn decision(&mut self, d: AdmissionDecision) {
        self.u64(match d {
            AdmissionDecision::Admit => 0,
            AdmissionDecision::Degrade(q) => 1 + u64::from(q.level()),
            AdmissionDecision::Reject => 1000,
        });
    }

    /// Folds the admission sequence and the lifecycle counters in.
    pub fn admission(&mut self, report: &AdmissionReport) {
        for (i, decision) in report.sequence() {
            self.u64(i as u64);
            self.decision(decision);
        }
        let l = report.lifecycle();
        for v in [
            l.attached,
            l.detached,
            l.readmitted,
            l.upgraded,
            l.downgraded,
        ] {
            self.u64(v as u64);
        }
    }

    /// The digest value.
    #[must_use]
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Frame accounting over stream results: what was offered, what
/// failed, and the PSNR the viewer saw.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FrameTally {
    /// Camera frames offered to the streams.
    pub offered: u64,
    /// Frames encoded (not skipped).
    pub committed: u64,
    /// Frames skipped, with a deadline miss, or of a stream that never ran.
    pub failed: u64,
    /// Sum of per-frame PSNR over frames of streams that ran (skips at
    /// their repeat PSNR).
    pub psnr_sum: f64,
    /// Frames in `psnr_sum`.
    pub psnr_frames: u64,
    /// Streams whose client left while they were still waiting to run.
    pub withdrawn: u64,
    /// Skipped frames and frames with a deadline miss (both in `failed`).
    pub skipped: u64,
    pub missed: u64,
}

impl FrameTally {
    /// Adds one stream that ran.
    pub fn add_result(&mut self, r: &StreamResult) {
        for f in r.frames() {
            self.offered += 1;
            if f.skipped {
                self.failed += 1;
                self.skipped += 1;
            } else {
                self.committed += 1;
                if f.misses > 0 {
                    self.failed += 1;
                    self.missed += 1;
                }
            }
            self.psnr_sum += f.psnr_db;
            self.psnr_frames += 1;
        }
    }

    /// Adds a stream that was refused and never ran: all its frames fail.
    pub fn add_refused(&mut self, frames: usize) {
        self.offered += frames as u64;
        self.failed += frames as u64;
    }

    /// Mean PSNR in dB (0 when no stream ran).
    #[must_use]
    pub fn psnr_db(&self) -> f64 {
        if self.psnr_frames == 0 {
            0.0
        } else {
            self.psnr_sum / self.psnr_frames as f64
        }
    }
}

/// Total and self time of one span name, in nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTime {
    /// Spans of this name.
    pub count: u64,
    /// Summed durations.
    pub total_ns: u64,
    /// Summed durations minus the parts covered by child spans.
    pub self_ns: u64,
}

/// Self time by interval containment: on each lane, a span's children
/// are the spans that start and end inside it; a span's self time is its
/// duration minus its direct children's durations.
#[must_use]
pub fn self_times(events: &[SpanEvent]) -> BTreeMap<&'static str, SpanTime> {
    let mut out: BTreeMap<&'static str, SpanTime> = BTreeMap::new();
    let mut sorted = events.to_vec();
    // Parents before the children they contain: by lane, start, then
    // longest first.
    sorted.sort_by_key(|e| (e.tid, e.start_ns, std::cmp::Reverse(e.dur_ns)));
    // Open spans: (end, index into sorted, child time so far).
    let mut stack: Vec<(u64, usize, u64)> = Vec::new();
    let close = |stack: &mut Vec<(u64, usize, u64)>, out: &mut BTreeMap<_, SpanTime>| {
        let (_, i, child) = stack.pop().expect("non-empty stack");
        let e: &SpanEvent = &sorted[i];
        let t = out.entry(e.name).or_default();
        t.count += 1;
        t.total_ns += e.dur_ns;
        t.self_ns += e.dur_ns.saturating_sub(child);
    };
    let mut lane = None;
    for (i, e) in sorted.iter().enumerate() {
        if lane != Some(e.tid) {
            while !stack.is_empty() {
                close(&mut stack, &mut out);
            }
            lane = Some(e.tid);
        }
        let end = e.start_ns + e.dur_ns;
        while stack.last().is_some_and(|&(top_end, _, _)| end > top_end) {
            close(&mut stack, &mut out);
        }
        if let Some(top) = stack.last_mut() {
            top.2 += e.dur_ns;
        }
        stack.push((end, i, 0));
    }
    while !stack.is_empty() {
        close(&mut stack, &mut out);
    }
    out
}

/// `num / den`, or 0 when nothing was measured.
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(1000), Some(99));
        assert_eq!(tail_percentile(999), Some(95));
        assert_eq!(tail_percentile(200), Some(95));
        assert_eq!(tail_percentile(199), Some(90));
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(40), Some(75));
        assert_eq!(tail_percentile(20), Some(50));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
        assert!(tail(&[1.0; 19]).is_none());
    }

    #[test]
    fn tail_reports_its_sample_count_and_nearest_rank_values() {
        let samples: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let t = tail(&samples).unwrap();
        assert_eq!(t.samples, 1000);
        assert_eq!(t.tail_pct, 99);
        assert_eq!(t.tail, 990.0);
        assert_eq!(t.p50, 500.0);
        // Exactly ten samples lie beyond the reported tail.
        assert_eq!(samples.iter().filter(|&&v| v > t.tail).count(), 10);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn digest_is_order_and_content_sensitive() {
        let mut a = Digest::default();
        a.u64(1);
        a.u64(2);
        let mut b = Digest::default();
        b.u64(2);
        b.u64(1);
        assert_ne!(a.finish(), b.finish());
        let mut c = Digest::default();
        c.u64(1);
        c.u64(2);
        assert_eq!(a.finish(), c.finish());
        // Known FNV-1a vector: the empty input is the offset basis.
        assert_eq!(Digest::default().finish(), 0xcbf2_9ce4_8422_2325);
        let mut d = Digest::default();
        d.bytes(b"a");
        assert_eq!(d.finish(), 0xaf63_dc4c_8601_ec8c);
    }

    fn span(name: &'static str, tid: u32, start_ns: u64, dur_ns: u64) -> SpanEvent {
        SpanEvent {
            name,
            cat: "test",
            tid,
            start_ns,
            dur_ns,
        }
    }

    #[test]
    fn self_time_subtracts_contained_children_per_lane() {
        let events = [
            span("tick", 0, 0, 100),
            span("prepare", 0, 10, 20),
            span("run_dag", 0, 30, 50),
            span("kernel", 0, 40, 10),
            // Another lane: not a child of the tick even though it
            // overlaps it in time.
            span("kernel", 1, 35, 30),
            span("deliver", 0, 100, 5),
        ];
        let t = self_times(&events);
        assert_eq!(t["tick"].self_ns, 30);
        assert_eq!(t["run_dag"].self_ns, 40);
        assert_eq!(t["prepare"].self_ns, 20);
        assert_eq!(t["deliver"].self_ns, 5);
        assert_eq!(
            t["kernel"],
            SpanTime {
                count: 2,
                total_ns: 40,
                self_ns: 40
            }
        );
    }
}
