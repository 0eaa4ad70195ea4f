//! The zero-copy output plane: GOP-aware encoded-frame rings with
//! M-independent broadcast fan-out.
//!
//! The serving layer computes per-stream results, but a production
//! server must also *deliver* bitstreams — to live viewers, to a
//! shadow-capture archiver, to replay-clip extraction — without the
//! output path ever feeding back into encode timing. This module is
//! that path:
//!
//! ```text
//!            commit (stepper)                    M subscribers
//!  EncoderApp ──EncodedFrame──► FrameRing ◄─cursor── Subscriber 0
//!   (buffers moved, not copied)  │ GOP-trimmed ◄─cursor── Subscriber 1
//!                                │ Arc-shared      ...
//!                                └─ snapshot() ◄─cursor── Subscriber M-1
//! ```
//!
//! Three properties are load-bearing, and all are test- or bench-gated:
//!
//! * **Zero-copy** — a frame's payload is moved from the encoder's
//!   recycling buffers into one [`EncodedFrame`], then shared behind an
//!   [`Arc`]: publishing, fan-out, snapshots and lagging all clone
//!   pointers, never pixel data.
//! * **O(1) in M** — [`Broadcast::publish`] appends to the shared ring
//!   and trims; it never iterates subscribers. Each [`Subscriber`] owns
//!   a cursor (a sequence number) into the ring and pulls at its own
//!   pace. A slow subscriber's cursor simply falls behind; when trimming
//!   overtakes it, the subscriber observes an explicit
//!   [`Delivery::Lagged`] gap and resumes at the ring base — the
//!   publisher never blocks (the stall counter is structurally zero;
//!   `BENCH_distribute.json` gates publish cost at M=64 ≤ 1.3× M=1).
//! * **GOP-aware, deterministic** — the ring trims whole
//!   groups-of-pictures from the front only, so the retained suffix
//!   always starts at a keyframe and every [`FrameRing::snapshot`] is
//!   independently decodable. Delivery and drop decisions are pure
//!   functions of (published sequence numbers, cursor position): replay
//!   the same serve and every subscriber sees the identical
//!   prefix-gap-suffix pattern, with exact `Lagged(n)` counts
//!   (proptest-gated).
//!
//! Wiring: [`crate::StreamSession::subscribe`] attaches a
//! subscriber to a named running stream; the session publishes after
//! each frame commit via
//! [`fgqos_sim::app::VideoApp::encoded_output`] (table apps
//! return `None` and publish nothing); detach or stream completion
//! closes the ring — subscribers drain what remains, then see
//! [`Delivery::Closed`].

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use fgqos_telemetry::{Histogram, HistogramData, Stability, TelemetrySnapshot};
use fgqos_time::Cycles;

pub use fgqos_sim::output::EncodedFrame;

/// Retention policy of a [`FrameRing`].
///
/// Both bounds trim at GOP granularity: the ring never splits a
/// group-of-pictures, so it may briefly exceed either bound while the
/// oldest group is still the *only* group (there is nothing
/// independently decodable to cut to).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingConfig {
    /// Virtual-time span to retain: the ring keeps the last `retain` of
    /// stream time, GOP-granular. [`Cycles::INFINITY`] disables the
    /// time bound.
    pub retain: Cycles,
    /// Hard-ish cap on retained frames (GOP-granular). Never zero.
    pub max_frames: usize,
}

impl RingConfig {
    /// Time-bounded retention: keep the last `retain` of stream time
    /// (WayCap-style shadow capture), with no frame-count bound.
    #[must_use]
    pub fn span(retain: Cycles) -> Self {
        RingConfig {
            retain,
            max_frames: usize::MAX,
        }
    }

    /// Count-bounded retention: keep roughly the last `max_frames`
    /// frames, with no time bound.
    #[must_use]
    pub fn frames(max_frames: usize) -> Self {
        RingConfig {
            retain: Cycles::INFINITY,
            max_frames: max_frames.max(1),
        }
    }
}

impl Default for RingConfig {
    /// Keeps the last 256 frames (≈10 s at 25 frame/s) per stream.
    fn default() -> Self {
        RingConfig::frames(256)
    }
}

/// Publication counters of one ring, surfaced per stream in
/// [`crate::ServeReport::summary`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PublishStats {
    /// Frames ever published into the ring.
    pub published: u64,
    /// Frames trimmed off the front (each one is a `Lagged` unit for
    /// any subscriber that had not consumed it yet).
    pub trimmed: u64,
    /// Frames currently retained.
    pub retained: usize,
    /// Subscribers ever attached.
    pub subscribers: u64,
    /// Times the publisher had to wait on a subscriber. Structurally
    /// zero — publishing never blocks — and bench/test-gated to stay so.
    pub publisher_stalls: u64,
    /// Largest single lag gap (frames dropped in one
    /// [`Delivery::Lagged`]) any subscriber of this ring ever observed.
    pub max_lag: u64,
    /// Distribution of lag-gap sizes across all subscribers: one
    /// observation per [`Delivery::Lagged`], valued at its dropped-frame
    /// count. Empty while every subscriber keeps up.
    pub lag: HistogramData,
}

/// Folds a set of per-ring [`PublishStats`] into `distribute.*` entries
/// of a telemetry snapshot. Inserts nothing when `stats` is empty (no
/// stream ever had a ring), so snapshots stay free of dead keys.
///
/// Every entry is [`Stability::Stable`]: delivery and drop decisions
/// are pure functions of published sequence numbers and cursor
/// positions, so the fold is identical across worker counts on
/// virtual-clock runs.
///
/// | name | kind | meaning |
/// |------|------|---------|
/// | `distribute.published` | counter | frames published, all rings |
/// | `distribute.trimmed` | counter | frames trimmed, all rings |
/// | `distribute.retained` | gauge | frames retained at capture |
/// | `distribute.subscribers` | counter | subscribers ever attached |
/// | `distribute.publisher_stalls` | counter | publisher waits (structurally 0) |
/// | `distribute.max_lag` | gauge | worst single lag gap, any ring |
/// | `distribute.lag` | histogram | lag-gap sizes, merged over rings |
pub fn record_publish_into(
    snap: &mut TelemetrySnapshot,
    stats: impl IntoIterator<Item = PublishStats>,
) {
    let mut total = PublishStats::default();
    let mut any = false;
    for s in stats {
        any = true;
        total.published += s.published;
        total.trimmed += s.trimmed;
        total.retained += s.retained;
        total.subscribers += s.subscribers;
        total.publisher_stalls += s.publisher_stalls;
        total.max_lag = total.max_lag.max(s.max_lag);
        total.lag.merge(&s.lag);
    }
    if !any {
        return;
    }
    snap.insert_counter(Stability::Stable, "distribute.published", total.published);
    snap.insert_counter(Stability::Stable, "distribute.trimmed", total.trimmed);
    snap.insert_gauge(
        Stability::Stable,
        "distribute.retained",
        total.retained as u64,
    );
    snap.insert_counter(
        Stability::Stable,
        "distribute.subscribers",
        total.subscribers,
    );
    snap.insert_counter(
        Stability::Stable,
        "distribute.publisher_stalls",
        total.publisher_stalls,
    );
    snap.insert_gauge(Stability::Stable, "distribute.max_lag", total.max_lag);
    snap.insert_histogram(Stability::Stable, "distribute.lag", total.lag);
}

/// A GOP-aware ring of published frames, addressed by a monotonically
/// increasing *sequence number* (`base_seq..next_seq`).
///
/// Sequence numbers — not frame indices — are the subscriber-facing
/// coordinate: a stream that skips camera frames publishes nothing for
/// them, so frame indices may have holes while sequence numbers never
/// do, which is what makes [`Delivery::Lagged`] counts exact.
#[derive(Debug)]
pub struct FrameRing {
    frames: VecDeque<Arc<EncodedFrame>>,
    /// Sequence number of `frames[0]`.
    base_seq: u64,
    config: RingConfig,
    published: u64,
    trimmed: u64,
}

impl FrameRing {
    /// An empty ring with the given retention policy.
    #[must_use]
    pub fn new(config: RingConfig) -> Self {
        FrameRing {
            frames: VecDeque::new(),
            base_seq: 0,
            config,
            published: 0,
            trimmed: 0,
        }
    }

    /// Publishes a frame, assigning it the next sequence number
    /// (returned), then trims expired GOPs off the front.
    pub fn publish(&mut self, frame: EncodedFrame) -> u64 {
        self.publish_arc(Arc::new(frame))
    }

    /// [`FrameRing::publish`] for an already-shared frame.
    pub fn publish_arc(&mut self, frame: Arc<EncodedFrame>) -> u64 {
        let seq = self.next_seq();
        self.frames.push_back(frame);
        self.published += 1;
        self.trim();
        seq
    }

    /// Drops whole GOPs from the front while the ring exceeds its
    /// retention bounds *and* a newer keyframe exists to cut to. The
    /// front of the ring is a keyframe after every trim, so any
    /// retained suffix decodes independently.
    fn trim(&mut self) {
        loop {
            let over =
                self.frames.len() > self.config.max_frames || self.span() >= self.config.retain;
            if !over {
                break;
            }
            // The cut point is the next keyframe strictly after the
            // front; with none, the current GOP is all there is.
            let Some(cut) = self
                .frames
                .iter()
                .skip(1)
                .position(|f| f.keyframe)
                .map(|p| p + 1)
            else {
                break;
            };
            for _ in 0..cut {
                self.frames.pop_front();
                self.base_seq += 1;
                self.trimmed += 1;
            }
        }
    }

    /// Virtual-time span currently covered (newest minus oldest
    /// timestamp; zero when fewer than two frames are retained).
    #[must_use]
    pub fn span(&self) -> Cycles {
        match (self.frames.front(), self.frames.back()) {
            (Some(first), Some(last)) => last.timestamp - first.timestamp,
            _ => Cycles::ZERO,
        }
    }

    /// The retained, independently decodable suffix: all frames from
    /// the first retained keyframe on, as `Arc` clones (no payload is
    /// copied). Empty if no keyframe is retained — the shadow-capture /
    /// replay-clip read path.
    #[must_use]
    pub fn snapshot(&self) -> Vec<Arc<EncodedFrame>> {
        let start = self
            .frames
            .iter()
            .position(|f| f.keyframe)
            .unwrap_or(self.frames.len());
        self.frames.iter().skip(start).cloned().collect()
    }

    /// The frame at sequence number `seq`, if still retained.
    #[must_use]
    pub fn get(&self, seq: u64) -> Option<&Arc<EncodedFrame>> {
        let offset = seq.checked_sub(self.base_seq)?;
        self.frames.get(usize::try_from(offset).ok()?)
    }

    /// Sequence number of the oldest retained frame.
    #[must_use]
    pub fn base_seq(&self) -> u64 {
        self.base_seq
    }

    /// Sequence number the next published frame will get.
    #[must_use]
    pub fn next_seq(&self) -> u64 {
        self.base_seq + self.frames.len() as u64
    }

    /// Number of currently retained frames.
    #[must_use]
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Whether the ring holds no frames.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Frames ever published.
    #[must_use]
    pub fn published(&self) -> u64 {
        self.published
    }

    /// Frames ever trimmed.
    #[must_use]
    pub fn trimmed(&self) -> u64 {
        self.trimmed
    }
}

/// What the publisher and all subscribers share.
#[derive(Debug)]
struct Shared {
    ring: Mutex<FrameRing>,
    closed: AtomicBool,
    /// Count of `subscribe` calls ever (diagnostics only: publishing
    /// must not depend on it).
    subscribers: AtomicU64,
    /// Structurally zero (publishing never waits); kept as an explicit,
    /// gateable counter so "the encoder is never back-pressured by the
    /// output plane" is a measured fact rather than a comment.
    publisher_stalls: AtomicU64,
    /// High-water mark of frames dropped in a single lag gap.
    max_lag: AtomicU64,
    /// Per-gap dropped-frame counts (fixed-bucket storage allocated
    /// once per ring; recording is a handful of relaxed atomic ops, so
    /// the delivery path never allocates).
    lag: Histogram,
}

fn lock_ring(shared: &Shared) -> std::sync::MutexGuard<'_, FrameRing> {
    shared.ring.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Single-publisher, M-subscriber fan-out over one shared
/// [`FrameRing`].
///
/// Cloning a `Broadcast` clones a handle to the same ring (cheap);
/// [`Broadcast::subscribe`] can be called at any time, including while
/// the stream is encoding. Publishing cost is independent of the number
/// of subscribers — the rpi-webrtc-streamer `FrameDistributor` shape.
#[derive(Debug, Clone)]
pub struct Broadcast {
    shared: Arc<Shared>,
}

impl Broadcast {
    /// A new fan-out over an empty ring.
    #[must_use]
    pub fn new(config: RingConfig) -> Self {
        Broadcast {
            shared: Arc::new(Shared {
                ring: Mutex::new(FrameRing::new(config)),
                closed: AtomicBool::new(false),
                subscribers: AtomicU64::new(0),
                publisher_stalls: AtomicU64::new(0),
                max_lag: AtomicU64::new(0),
                lag: Histogram::standalone(),
            }),
        }
    }

    /// Publishes one frame; returns its sequence number. O(1) in the
    /// subscriber count, and never blocks on subscriber progress.
    pub fn publish(&self, frame: EncodedFrame) -> u64 {
        lock_ring(&self.shared).publish(frame)
    }

    /// Attaches a subscriber starting at the most recent retained
    /// keyframe (instant decodability), or at the live edge when the
    /// ring holds none.
    pub fn subscribe(&self) -> Subscriber {
        let ring = lock_ring(&self.shared);
        let cursor = ring
            .frames
            .iter()
            .rposition(|f| f.keyframe)
            .map_or_else(|| ring.next_seq(), |p| ring.base_seq + p as u64);
        drop(ring);
        self.subscriber_at(cursor)
    }

    /// Attaches a subscriber at the oldest retained frame — full-ring
    /// replay (the replay-clip workload).
    pub fn subscribe_from_start(&self) -> Subscriber {
        let cursor = lock_ring(&self.shared).base_seq();
        self.subscriber_at(cursor)
    }

    /// Attaches a replay subscriber under a byte budget: the cursor
    /// starts at the oldest retained keyframe whose suffix (that frame
    /// through the newest) sums to at most `max_bytes` of payload
    /// ([`EncodedFrame::payload_bytes`]). Keyframe starts keep the clip
    /// independently decodable; when even the newest GOP exceeds the
    /// budget the subscriber joins at the live edge (an empty clip).
    pub fn subscribe_from_start_bytes(&self, max_bytes: usize) -> Subscriber {
        let ring = lock_ring(&self.shared);
        let mut cursor = ring.next_seq();
        let mut total = 0usize;
        for (offset, frame) in ring.frames.iter().enumerate().rev() {
            total = total.saturating_add(frame.payload_bytes());
            if total > max_bytes {
                break;
            }
            if frame.keyframe {
                cursor = ring.base_seq + offset as u64;
            }
        }
        drop(ring);
        self.subscriber_at(cursor)
    }

    fn subscriber_at(&self, cursor: u64) -> Subscriber {
        self.shared.subscribers.fetch_add(1, Ordering::Relaxed);
        Subscriber {
            shared: Arc::clone(&self.shared),
            cursor,
            lagged_frames: 0,
            lag_gaps: 0,
        }
    }

    /// Snapshot of the retained, independently decodable suffix (`Arc`
    /// clones only).
    #[must_use]
    pub fn snapshot(&self) -> Vec<Arc<EncodedFrame>> {
        lock_ring(&self.shared).snapshot()
    }

    /// Marks the stream finished. Retained frames stay drainable;
    /// subscribers see [`Delivery::Closed`] once they catch up.
    pub fn close(&self) {
        self.shared.closed.store(true, Ordering::Release);
    }

    /// Current publication counters.
    #[must_use]
    pub fn stats(&self) -> PublishStats {
        let ring = lock_ring(&self.shared);
        PublishStats {
            published: ring.published(),
            trimmed: ring.trimmed(),
            retained: ring.len(),
            subscribers: self.shared.subscribers.load(Ordering::Relaxed),
            publisher_stalls: self.shared.publisher_stalls.load(Ordering::Relaxed),
            max_lag: self.shared.max_lag.load(Ordering::Relaxed),
            lag: self.shared.lag.data(),
        }
    }
}

/// One delivery step observed by a [`Subscriber`].
#[derive(Debug, Clone, PartialEq)]
pub enum Delivery {
    /// The next frame in sequence (shared, not copied).
    Frame(Arc<EncodedFrame>),
    /// The subscriber fell behind trimming: exactly `n` frames were
    /// dropped for it. The next [`Delivery::Frame`] is the ring base —
    /// a keyframe — so decoding resumes cleanly.
    Lagged(u64),
    /// Caught up with the publisher; more frames may still come.
    Empty,
    /// Caught up and the stream is closed: no more frames, ever.
    Closed,
}

/// A pull cursor into one stream's shared ring.
///
/// Receiving is deterministic: the outcome of every
/// [`Subscriber::try_recv`] is a pure function of the cursor and the
/// sequence numbers retained at that point, so a replayed serve yields
/// an identical delivery log.
#[derive(Debug)]
pub struct Subscriber {
    shared: Arc<Shared>,
    /// Next sequence number to deliver.
    cursor: u64,
    lagged_frames: u64,
    lag_gaps: u64,
}

impl Subscriber {
    /// Delivers the next frame, a lag gap, or the at-head status.
    pub fn try_recv(&mut self) -> Delivery {
        let ring = lock_ring(&self.shared);
        if self.cursor < ring.base_seq() {
            let dropped = ring.base_seq() - self.cursor;
            self.cursor = ring.base_seq();
            self.lagged_frames += dropped;
            self.lag_gaps += 1;
            self.shared.max_lag.fetch_max(dropped, Ordering::Relaxed);
            self.shared.lag.record(dropped);
            return Delivery::Lagged(dropped);
        }
        match ring.get(self.cursor) {
            Some(frame) => {
                let frame = Arc::clone(frame);
                self.cursor += 1;
                Delivery::Frame(frame)
            }
            None if self.shared.closed.load(Ordering::Acquire) => Delivery::Closed,
            None => Delivery::Empty,
        }
    }

    /// Delivers everything available right now: frames and lag gaps up
    /// to the first [`Delivery::Empty`] / [`Delivery::Closed`] (which
    /// is not included).
    pub fn drain(&mut self) -> Vec<Delivery> {
        let mut out = Vec::new();
        while let d @ (Delivery::Frame(_) | Delivery::Lagged(_)) = self.try_recv() {
            out.push(d);
        }
        out
    }

    /// Next sequence number this subscriber will ask for.
    #[must_use]
    pub fn cursor(&self) -> u64 {
        self.cursor
    }

    /// Total frames this subscriber lost to trimming.
    #[must_use]
    pub fn lagged_frames(&self) -> u64 {
        self.lagged_frames
    }

    /// Number of distinct [`Delivery::Lagged`] gaps observed.
    #[must_use]
    pub fn lag_gaps(&self) -> u64 {
        self.lag_gaps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(i: usize, keyframe: bool) -> EncodedFrame {
        EncodedFrame {
            frame: i,
            timestamp: Cycles::new(i as u64 * 100),
            mean_quality: 5.0,
            keyframe,
            qp: 12,
            macroblock_streams: vec![vec![i as u8; 4]],
        }
    }

    /// Publishes `n` frames with a keyframe every `gop`.
    fn fill(b: &Broadcast, n: usize, gop: usize) {
        for i in 0..n {
            b.publish(frame(i, i % gop == 0));
        }
    }

    #[test]
    fn ring_trims_whole_gops_and_front_stays_keyframe() {
        let mut ring = FrameRing::new(RingConfig::frames(6));
        for i in 0..12 {
            ring.publish(frame(i, i % 4 == 0));
        }
        // Bounds are GOP-granular: at most one extra GOP beyond the cap.
        assert!(ring.len() <= 6 + 3);
        assert!(ring.frames.front().unwrap().keyframe);
        assert_eq!(ring.base_seq() + ring.len() as u64, 12);
        assert_eq!(ring.published(), 12);
        assert_eq!(ring.trimmed(), ring.base_seq());
    }

    #[test]
    fn ring_never_trims_the_only_gop() {
        let mut ring = FrameRing::new(RingConfig::frames(2));
        ring.publish(frame(0, true));
        for i in 1..8 {
            ring.publish(frame(i, false));
        }
        // One GOP, over the cap, nothing decodable to cut to: keep it.
        assert_eq!(ring.len(), 8);
        assert_eq!(ring.base_seq(), 0);
    }

    #[test]
    fn span_retention_keeps_last_k_seconds() {
        // 100 cycles/frame, keyframe every 5: retain ~10 frames of time.
        let mut ring = FrameRing::new(RingConfig::span(Cycles::new(1000)));
        for i in 0..50 {
            ring.publish(frame(i, i % 5 == 0));
        }
        assert!(ring.span() < Cycles::new(1000) + Cycles::new(5 * 100));
        assert!(ring.frames.front().unwrap().keyframe);
    }

    #[test]
    fn snapshot_starts_at_keyframe_and_shares_payload() {
        let b = Broadcast::new(RingConfig::frames(64));
        fill(&b, 10, 4);
        let snap = b.snapshot();
        assert!(snap[0].keyframe);
        assert_eq!(snap.len(), 10);
        // Shared, not copied: the ring still holds the same allocation.
        assert!(Arc::strong_count(&snap[0]) >= 2);
    }

    #[test]
    fn subscriber_sees_everything_when_keeping_up() {
        let b = Broadcast::new(RingConfig::frames(64));
        let mut sub = b.subscribe();
        fill(&b, 8, 4);
        let got = sub.drain();
        assert_eq!(got.len(), 8);
        for (i, d) in got.iter().enumerate() {
            match d {
                Delivery::Frame(f) => assert_eq!(f.frame, i),
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(sub.try_recv(), Delivery::Empty);
        b.close();
        assert_eq!(sub.try_recv(), Delivery::Closed);
    }

    #[test]
    fn slow_subscriber_lags_exactly_and_resumes_at_keyframe() {
        let b = Broadcast::new(RingConfig::frames(4));
        let mut sub = b.subscribe();
        fill(&b, 20, 4); // trims: base_seq advances past the cursor
        let base = {
            let ring = lock_ring(&b.shared);
            ring.base_seq()
        };
        assert!(base > 0);
        match sub.try_recv() {
            Delivery::Lagged(n) => assert_eq!(n, base),
            other => panic!("expected Lagged, got {other:?}"),
        }
        match sub.try_recv() {
            Delivery::Frame(f) => {
                assert!(f.keyframe, "post-gap frame must be a keyframe");
                assert_eq!(f.frame as u64, base);
            }
            other => panic!("expected Frame, got {other:?}"),
        }
        assert_eq!(sub.lagged_frames(), base);
        assert_eq!(sub.lag_gaps(), 1);
    }

    #[test]
    fn late_subscriber_starts_at_latest_keyframe() {
        let b = Broadcast::new(RingConfig::frames(64));
        fill(&b, 10, 4); // keyframes at 0, 4, 8
        let mut sub = b.subscribe();
        match sub.try_recv() {
            Delivery::Frame(f) => assert_eq!(f.frame, 8),
            other => panic!("unexpected {other:?}"),
        }
        let mut replay = b.subscribe_from_start();
        match replay.try_recv() {
            Delivery::Frame(f) => assert_eq!(f.frame, 0),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn byte_budget_clip_starts_at_oldest_fitting_keyframe() {
        // 12 frames of 4 payload bytes each, keyframes at 0, 4, 8.
        let b = Broadcast::new(RingConfig::frames(64));
        fill(&b, 12, 4);

        // 16 bytes buy exactly the newest GOP (frames 8..=11).
        let mut clip = b.subscribe_from_start_bytes(16);
        match clip.try_recv() {
            Delivery::Frame(f) => assert_eq!(f.frame, 8),
            other => panic!("unexpected {other:?}"),
        }

        // A generous budget replays the whole ring.
        let mut all = b.subscribe_from_start_bytes(1 << 20);
        match all.try_recv() {
            Delivery::Frame(f) => assert_eq!(f.frame, 0),
            other => panic!("unexpected {other:?}"),
        }

        // 8 bytes cover frames 10..=11 — no keyframe in the fitting
        // suffix, so the clip is empty and the cursor sits at the live
        // edge.
        let mut tiny = b.subscribe_from_start_bytes(8);
        assert_eq!(tiny.try_recv(), Delivery::Empty);
        b.publish(frame(12, true));
        match tiny.try_recv() {
            Delivery::Frame(f) => assert_eq!(f.frame, 12),
            other => panic!("unexpected {other:?}"),
        }
        // No lag is charged for a budget-trimmed start.
        assert_eq!(tiny.lag_gaps(), 0);
    }

    #[test]
    fn publish_never_stalls_and_stats_add_up() {
        let b = Broadcast::new(RingConfig::frames(4));
        let _slow = b.subscribe();
        let _also_slow = b.subscribe();
        fill(&b, 40, 4);
        let stats = b.stats();
        assert_eq!(stats.publisher_stalls, 0);
        assert_eq!(stats.published, 40);
        assert_eq!(stats.subscribers, 2);
        assert_eq!(stats.trimmed + stats.retained as u64, 40);
        // Nobody polled yet: lag is observed at delivery time.
        assert_eq!(stats.max_lag, 0);
        assert!(stats.lag.is_empty());
    }

    #[test]
    fn ring_retains_max_lag_and_lag_histogram() {
        let b = Broadcast::new(RingConfig::frames(4));
        let mut slow = b.subscribe();
        let mut slower = b.subscribe();
        fill(&b, 20, 4);
        let Delivery::Lagged(first_gap) = slow.try_recv() else {
            panic!("slow subscriber must lag");
        };
        slow.drain();
        fill(&b, 20, 4); // the drained subscriber falls behind again
        let Delivery::Lagged(second_gap) = slow.try_recv() else {
            panic!("slow subscriber must lag again");
        };
        let Delivery::Lagged(worst_gap) = slower.try_recv() else {
            panic!("never-polled subscriber must lag");
        };
        let stats = b.stats();
        assert_eq!(
            stats.max_lag,
            first_gap.max(second_gap).max(worst_gap),
            "max-lag gauge is the worst single gap"
        );
        assert_eq!(stats.lag.count(), 3, "one observation per lag gap");
        assert_eq!(stats.lag.sum(), first_gap + second_gap + worst_gap);
        assert_eq!(stats.lag.max(), stats.max_lag);
    }

    #[test]
    fn delivery_is_deterministic_under_replay() {
        let run = || {
            let b = Broadcast::new(RingConfig::frames(5));
            let mut sub = b.subscribe();
            let mut logbook = Vec::new();
            for i in 0..30 {
                b.publish(frame(i, i % 3 == 0));
                if i % 7 == 0 {
                    for d in sub.drain() {
                        logbook.push(match d {
                            Delivery::Frame(f) => (f.frame as i64, f.keyframe),
                            Delivery::Lagged(n) => (-(n as i64), false),
                            _ => unreachable!(),
                        });
                    }
                }
            }
            logbook
        };
        assert_eq!(run(), run());
    }
}
