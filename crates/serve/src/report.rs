//! What a finished session reports: a [`StreamOutcome`] per stream and
//! the [`ServeReport`] around them.

use fgqos_core::safety::SafetyMonitor;
use fgqos_sim::runner::StreamResult;
use fgqos_telemetry::{Stability, TelemetrySnapshot};

use crate::admission::{AdmissionDecision, AdmissionReport};
use crate::distribute::{record_publish_into, PublishStats};

/// Outcome of one submitted stream.
#[derive(Debug)]
pub struct StreamOutcome {
    /// Stream name from the spec.
    pub name: String,
    /// Priority from the spec.
    pub priority: u8,
    /// What admission granted (the final grant, after any re-admission).
    pub decision: AdmissionDecision,
    /// Kind of source the stream was fed from.
    pub source_kind: &'static str,
    /// Frames the source delivered.
    pub frames: usize,
    /// The served result; `None` for streams that never ran. A detached
    /// stream's result covers only the frames delivered while attached.
    pub result: Option<StreamResult>,
    /// The stream's safety monitor after serving; `None` for streams
    /// that never ran. Safety is per stream: sharing the pool must not
    /// change any verdict.
    pub monitor: Option<SafetyMonitor>,
    /// Whether the stream left by caller [`crate::StreamSession::detach`]
    /// rather than by exhausting its source.
    pub detached: bool,
    /// How many budget-parametric envelope sets the stream's runner
    /// built — 1 per served stream on the default path, regardless of
    /// how many frames (and fresh budgets) it encoded.
    pub envelope_builds: u64,
    /// How many full `ConstraintTables` builds the stream's runner ran —
    /// 0 for a stream whose budgets never repeat, one per promoted
    /// recurring budget otherwise (see `Runner::full_table_builds`).
    pub table_builds: u64,
    /// How many in-place envelope refreshes the stream's runner ran —
    /// 0 without an online estimator, one per profile-moving frame with
    /// one (never a rebuild, never a table build).
    pub envelope_refreshes: u64,
    /// Times a re-admission pass improved this stream's grant. Exact
    /// even for streams that detached before the session finished (the
    /// ledger's records outlive their streams).
    pub readmissions: u32,
    /// Output-plane counters, when anyone subscribed to this stream
    /// (`None` means no ring was ever created — publishing is pay-only-
    /// if-subscribed).
    pub publish: Option<PublishStats>,
}

/// The server's report: outcomes in submission order plus the admission
/// report.
#[derive(Debug)]
pub struct ServeReport {
    pub(crate) outcomes: Vec<StreamOutcome>,
    pub(crate) admission: AdmissionReport,
    pub(crate) workers: usize,
    pub(crate) ticks: u64,
    pub(crate) snapshot: Option<TelemetrySnapshot>,
}

impl ServeReport {
    /// Per-stream outcomes, in submission (attach) order.
    #[must_use]
    pub fn outcomes(&self) -> &[StreamOutcome] {
        &self.outcomes
    }

    /// Outcome of the stream named `name`, if any.
    #[must_use]
    pub fn outcome(&self, name: &str) -> Option<&StreamOutcome> {
        self.outcomes.iter().find(|o| o.name == name)
    }

    /// The admission decisions, lifecycle counters and charges.
    #[must_use]
    pub fn admission(&self) -> &AdmissionReport {
        &self.admission
    }

    /// Pool width the streams shared.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Server ticks executed (each tick advances the streams due at the
    /// earliest pending frame deadline).
    #[must_use]
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Whether every served stream kept every safety guarantee.
    #[must_use]
    pub fn all_safe(&self) -> bool {
        self.outcomes
            .iter()
            .filter_map(|o| o.monitor.as_ref())
            .all(SafetyMonitor::all_safe)
    }

    /// The run's telemetry snapshot. When the server was built with
    /// [`crate::ServerConfig::telemetry`] enabled this is the full
    /// registry capture (controller, scheduler, pool, serve-layer and
    /// output-plane metrics, taken at [`crate::StreamSession::finish`]);
    /// otherwise a reduced snapshot derived from the report itself
    /// (`serve.ticks`, `admission.*`, `lifecycle.*`, `distribute.*`) —
    /// so [`ServeReport::summary`] reads the same keys either way.
    #[must_use]
    pub fn snapshot(&self) -> TelemetrySnapshot {
        if let Some(snap) = &self.snapshot {
            return snap.clone();
        }
        let mut snap = TelemetrySnapshot::new();
        snap.insert_counter(Stability::Stable, "serve.ticks", self.ticks);
        self.admission.record_into(&mut snap);
        record_publish_into(
            &mut snap,
            self.outcomes.iter().filter_map(|o| o.publish.clone()),
        );
        snap
    }

    /// Multi-line human summary: the admission line (capacity, grants,
    /// lifecycle counters), then one line per stream including its
    /// per-stream readmission count and — when anyone subscribed — its
    /// output-plane publish/trim/subscriber counters.
    ///
    /// The admission line is rendered from [`ServeReport::snapshot`]:
    /// the human summary and the exported JSON are two views of the
    /// same counters by construction.
    #[must_use]
    pub fn summary(&self) -> String {
        let mut s = format!(
            "{} ({} workers)\n",
            crate::admission::summary_from_snapshot(&self.snapshot()),
            self.workers
        );
        for o in &self.outcomes {
            let mut tag = String::new();
            if o.detached {
                tag.push_str(", detached");
            }
            if o.readmissions > 0 {
                tag.push_str(&format!(", readmitted x{}", o.readmissions));
            }
            if let Some(p) = &o.publish {
                tag.push_str(&format!(
                    ", published {} (trimmed {}, {} subs)",
                    p.published, p.trimmed, p.subscribers
                ));
            }
            match &o.result {
                Some(r) => s.push_str(&format!(
                    "  [{}] p{} {:?} ({}, {} frames{tag}): {}\n",
                    o.name,
                    o.priority,
                    o.decision,
                    o.source_kind,
                    o.frames,
                    r.summary()
                )),
                None => s.push_str(&format!(
                    "  [{}] p{} never ran ({:?}) ({}, {} frames{tag})\n",
                    o.name, o.priority, o.decision, o.source_kind, o.frames
                )),
            }
        }
        s
    }
}
