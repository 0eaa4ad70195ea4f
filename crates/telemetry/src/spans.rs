//! Per-lane span capture with Chrome `trace_events` export.
//!
//! A [`SpanRecorder`] owns one preallocated buffer ("lane") per
//! worker thread plus one for the coordinating thread. Recording a
//! span is a lane-local `Mutex` lock (uncontended by construction —
//! each worker writes only its own lane) and a `Vec::push` within
//! reserved capacity, so the hot path never allocates; when a lane
//! fills up further spans are counted in [`SpanRecorder::dropped`]
//! instead of growing the buffer.
//!
//! The export format is the Chrome Trace Event JSON that
//! `chrome://tracing` and [Perfetto](https://ui.perfetto.dev) open
//! directly: complete (`"ph": "X"`) events with microsecond
//! timestamps relative to the recorder's creation.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::json::JsonObj;

/// Default per-lane span capacity (≈ 3.5 MiB of spans per worker).
pub const DEFAULT_SPAN_CAPACITY: usize = 1 << 16;

/// One recorded span: a named interval on a lane (worker thread).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    /// What ran (e.g. `"job"`, `"commit"`, `"tick"`).
    pub name: &'static str,
    /// Trace category (e.g. `"pool"`, `"serve"`).
    pub cat: &'static str,
    /// Lane = thread id in the exported trace.
    pub tid: u32,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

struct SpanInner {
    epoch: Instant,
    lanes: Vec<Mutex<Vec<SpanEvent>>>,
    dropped: AtomicU64,
}

/// Cloneable span-recording handle (inert when disabled).
#[derive(Clone, Default)]
pub struct SpanRecorder {
    inner: Option<Arc<SpanInner>>,
}

impl std::fmt::Debug for SpanRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            Some(inner) => f
                .debug_struct("SpanRecorder")
                .field("lanes", &inner.lanes.len())
                .finish_non_exhaustive(),
            None => f.write_str("SpanRecorder(disabled)"),
        }
    }
}

impl SpanRecorder {
    /// A live recorder with `lanes` preallocated buffers of
    /// `capacity` spans each.
    #[must_use]
    pub fn new(lanes: usize, capacity: usize) -> Self {
        SpanRecorder {
            inner: Some(Arc::new(SpanInner {
                epoch: Instant::now(),
                lanes: (0..lanes.max(1))
                    .map(|_| Mutex::new(Vec::with_capacity(capacity)))
                    .collect(),
                dropped: AtomicU64::new(0),
            })),
        }
    }

    /// An inert recorder: [`SpanRecorder::start`] returns `None` and
    /// nothing is captured.
    #[must_use]
    pub fn disabled() -> Self {
        SpanRecorder::default()
    }

    /// Whether spans are captured.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Number of lanes.
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.inner.as_ref().map_or(0, |i| i.lanes.len())
    }

    /// Begin a span: captures the clock only when enabled, so the
    /// disabled path costs one branch.
    #[inline]
    #[must_use]
    pub fn start(&self) -> Option<Instant> {
        self.inner.as_ref().map(|_| Instant::now())
    }

    /// Finish a span begun at `started` (from [`SpanRecorder::start`])
    /// and file it under `lane`; returns its duration, so a caller that
    /// also times the interval reads the clock once. Files nothing when
    /// the recorder is disabled, and returns `None` when `started` is
    /// `None`.
    #[inline]
    pub fn record(
        &self,
        lane: usize,
        name: &'static str,
        cat: &'static str,
        started: Option<Instant>,
    ) -> Option<Duration> {
        let t0 = started?;
        let dur = t0.elapsed();
        let Some(inner) = self.inner.as_deref() else {
            return Some(dur);
        };
        let dur_ns = dur.as_nanos().min(u128::from(u64::MAX)) as u64;
        let start_ns = t0
            .checked_duration_since(inner.epoch)
            .map_or(0, |d| d.as_nanos().min(u128::from(u64::MAX)) as u64);
        let lane = lane % inner.lanes.len();
        let mut buf = inner.lanes[lane].lock().expect("span lane poisoned");
        if buf.len() < buf.capacity() {
            buf.push(SpanEvent {
                name,
                cat,
                tid: lane as u32,
                start_ns,
                dur_ns,
            });
        } else {
            inner.dropped.fetch_add(1, Ordering::Relaxed);
        }
        Some(dur)
    }

    /// Spans dropped because a lane buffer filled up.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.dropped.load(Ordering::Relaxed))
    }

    /// Every captured span, ordered by `(tid, start)`.
    #[must_use]
    pub fn events(&self) -> Vec<SpanEvent> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for lane in &inner.lanes {
            out.extend_from_slice(&lane.lock().expect("span lane poisoned"));
        }
        out.sort_by_key(|s| (s.tid, s.start_ns));
        out
    }

    /// Export as Chrome Trace Event JSON (open in `chrome://tracing`
    /// or Perfetto).
    #[must_use]
    pub fn to_chrome_trace(&self) -> String {
        let events = self
            .events()
            .into_iter()
            .map(|s| {
                JsonObj::new()
                    .str("name", s.name)
                    .str("cat", s.cat)
                    .str("ph", "X")
                    .fixed("ts", s.start_ns as f64 / 1e3, 3)
                    .fixed("dur", s.dur_ns as f64 / 1e3, 3)
                    .int("pid", 1)
                    .int("tid", u64::from(s.tid))
                    .build()
            })
            .collect();
        JsonObj::new()
            .arr("traceEvents", events)
            .str("displayTimeUnit", "ms")
            .build()
            .pretty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::JsonValue;

    #[test]
    fn records_spans_per_lane() {
        let rec = SpanRecorder::new(2, 8);
        let t0 = rec.start();
        let dur = rec.record(1, "kernel", "pool", t0).expect("timed");
        let t1 = rec.start();
        rec.record(0, "commit", "serve", t1);
        let events = rec.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].tid, 0);
        assert_eq!(events[0].name, "commit");
        assert_eq!(events[1].tid, 1);
        assert_eq!(events[1].dur_ns, dur.as_nanos() as u64, "one clock read");
        assert_eq!(rec.dropped(), 0);
    }

    #[test]
    fn overflow_counts_drops_without_growing() {
        let rec = SpanRecorder::new(1, 2);
        for _ in 0..5 {
            let t = rec.start();
            rec.record(0, "k", "pool", t);
        }
        assert_eq!(rec.events().len(), 2);
        assert_eq!(rec.dropped(), 3);
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let rec = SpanRecorder::disabled();
        assert!(rec.start().is_none());
        assert_eq!(rec.record(0, "k", "pool", None), None);
        let timed = rec.record(0, "k", "pool", Some(Instant::now()));
        assert!(timed.is_some(), "a started span is still timed");
        assert!(rec.events().is_empty());
        assert_eq!(rec.lanes(), 0);
    }

    #[test]
    fn chrome_trace_shape() {
        let rec = SpanRecorder::new(1, 8);
        let t = rec.start();
        rec.record(0, "kernel", "pool", t);
        let trace = rec.to_chrome_trace();
        let doc = crate::json::parse(&trace).expect("valid json");
        let events = doc
            .as_obj()
            .and_then(|o| o.get("traceEvents"))
            .and_then(JsonValue::as_arr)
            .expect("traceEvents array");
        assert_eq!(events.len(), 1);
        let e = events[0].as_obj().expect("event object");
        assert_eq!(e.get("ph").and_then(JsonValue::as_str), Some("X"));
        assert_eq!(e.get("name").and_then(JsonValue::as_str), Some("kernel"));
        assert_eq!(e.get("pid").and_then(JsonValue::as_int), Some(1));
    }
}
