//! Priority admission control: who gets on the machine, and at what
//! quality ceiling.
//!
//! A shared machine cannot promise the paper's per-stream guarantees to
//! an unbounded number of streams: the controller keeps each *admitted*
//! stream safe, but admitting more aggregate demand than the platform has
//! cycles would starve every stream at once. Following the congestion
//! management literature (see PAPERS.md, "A New Approach to Manage QoS in
//! Distributed Multimedia Systems"), admission is resolved *before*
//! serving starts, deterministically:
//!
//! 1. Every candidate stream declares its utilization demand per quality
//!    level — `U(q) = Σ_a avg(a, q) · N / P`, the fraction of one core
//!    the stream needs to sustain its camera rate at level `q`.
//! 2. Candidates are ranked by priority (descending), ties broken by
//!    submission order — a total order, so the outcome is a pure function
//!    of the specs.
//! 3. Each candidate in rank order is **admitted** if its full-quality
//!    demand fits the remaining capacity, **degraded** to the highest
//!    quality ceiling that fits otherwise, and **rejected** if not even
//!    its minimum level fits.
//!
//! Degradation composes with the per-stream controllers rather than
//! replacing them: a degraded stream runs with a quality *ceiling*
//! ([`CeilingPolicy`]), and its fine-grain controller
//! still adapts frame by frame below that ceiling. The admission layer
//! hands out long-term budget shares; the controllers handle the
//! fine-grain, per-action adaptation the paper is about.

use fgqos_core::policy::{Choice, MaxQuality, PolicyCtx, QualityPolicy};
use fgqos_telemetry::{Stability, TelemetrySnapshot};
use fgqos_time::Quality;

/// What the admission layer granted one stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionDecision {
    /// Admitted at full quality range.
    Admit,
    /// Admitted with a quality ceiling: the stream's policy may never
    /// pick a level above it.
    Degrade(Quality),
    /// Not admitted: even the minimum level does not fit the remaining
    /// capacity.
    Reject,
}

impl AdmissionDecision {
    /// Whether the stream runs at all.
    #[must_use]
    pub fn is_admitted(&self) -> bool {
        !matches!(self, AdmissionDecision::Reject)
    }
}

/// One candidate stream's declared demand.
#[derive(Debug, Clone)]
pub struct StreamDemand {
    /// Submission index (position in the spec list).
    pub index: usize,
    /// Priority; higher is served first.
    pub priority: u8,
    /// `(quality, utilization)` per level, ascending by quality.
    /// Utilization is the fraction of one core needed to sustain the
    /// stream's camera rate at that level.
    pub utilization: Vec<(Quality, f64)>,
}

impl StreamDemand {
    /// Demand at the maximal level.
    #[must_use]
    pub fn at_max(&self) -> f64 {
        self.utilization.last().map_or(f64::INFINITY, |&(_, u)| u)
    }
}

/// Per-stream admission outcome with the numbers behind it.
#[derive(Debug, Clone)]
pub struct AdmissionRecord {
    /// Submission index of the stream.
    pub index: usize,
    /// Priority it was ranked at.
    pub priority: u8,
    /// The grant (the *current* grant, in a churn session: release-driven
    /// re-admission may improve it after the initial pricing).
    pub decision: AdmissionDecision,
    /// Utilization the stream asked for (maximal quality).
    pub demand_at_max: f64,
    /// Utilization actually charged against the capacity (0 when
    /// rejected).
    pub granted_utilization: f64,
    /// Lifecycle counter: how many times this stream's grant was improved
    /// by a re-admission pass after another stream released capacity
    /// (waiting → running, or a ceiling raised). Always 0 in a batch
    /// decision.
    pub readmissions: u32,
}

/// Aggregate stream lifecycle counters of a serving session — how much
/// churn the admission layer absorbed, observable without reading
/// per-stream outcomes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LifecycleCounts {
    /// Streams attached (batch submissions count each stream once).
    pub attached: usize,
    /// Streams detached by the caller before their source was exhausted.
    pub detached: usize,
    /// Waiting (previously rejected) streams that started running after a
    /// release freed capacity.
    pub readmitted: usize,
    /// Degraded streams whose quality ceiling was raised (possibly to a
    /// full admit) after a release.
    pub upgraded: usize,
    /// Running streams whose grant was *lowered* mid-run
    /// ([`AdmissionLedger::restrict`]) — the lag-driven ceiling
    /// feedback of [`crate::FeedbackConfig`].
    pub downgraded: usize,
}

/// The full admission outcome: per-stream records in decision order plus
/// aggregate counters.
#[derive(Debug, Clone)]
pub struct AdmissionReport {
    records: Vec<AdmissionRecord>,
    capacity: f64,
    used: f64,
    lifecycle: LifecycleCounts,
}

impl AdmissionReport {
    /// Per-stream records, in decision (rank) order.
    #[must_use]
    pub fn records(&self) -> &[AdmissionRecord] {
        &self.records
    }

    /// The record of the stream submitted at `index`.
    #[must_use]
    pub fn for_stream(&self, index: usize) -> Option<&AdmissionRecord> {
        self.records.iter().find(|r| r.index == index)
    }

    /// Streams admitted at full quality.
    #[must_use]
    pub fn admitted(&self) -> usize {
        self.count(|d| matches!(d, AdmissionDecision::Admit))
    }

    /// Streams admitted with a quality ceiling.
    #[must_use]
    pub fn degraded(&self) -> usize {
        self.count(|d| matches!(d, AdmissionDecision::Degrade(_)))
    }

    /// Streams turned away.
    #[must_use]
    pub fn rejected(&self) -> usize {
        self.count(|d| matches!(d, AdmissionDecision::Reject))
    }

    fn count(&self, pred: impl Fn(&AdmissionDecision) -> bool) -> usize {
        self.records.iter().filter(|r| pred(&r.decision)).count()
    }

    /// Capacity the decisions were made against, in cores.
    #[must_use]
    pub fn capacity(&self) -> f64 {
        self.capacity
    }

    /// Total utilization granted, in cores.
    #[must_use]
    pub fn granted_utilization(&self) -> f64 {
        self.used
    }

    /// The decision sequence in rank order — the determinism witness
    /// compared across worker counts and thread settings in tests.
    #[must_use]
    pub fn sequence(&self) -> Vec<(usize, AdmissionDecision)> {
        self.records.iter().map(|r| (r.index, r.decision)).collect()
    }

    /// Aggregate lifecycle counters (attach/detach/re-admit/upgrade).
    /// All-zero except `attached` for a batch decision; a churn session
    /// fills in the rest.
    #[must_use]
    pub fn lifecycle(&self) -> LifecycleCounts {
        self.lifecycle
    }

    /// Folds this report into a telemetry snapshot under the
    /// `admission.*` / `lifecycle.*` names. Derived from the finished
    /// report rather than counted at decision time, so the numbers are
    /// identical whether or not a live registry was attached (a
    /// decision that *upgrades* a grant would otherwise count twice).
    ///
    /// Metric names (all [`Stability::Stable`]):
    ///
    /// | name | kind | meaning |
    /// |---|---|---|
    /// | `admission.admitted` | counter | streams admitted at full quality |
    /// | `admission.degraded` | counter | streams admitted with a ceiling |
    /// | `admission.rejected` | counter | streams turned away |
    /// | `admission.granted_millicores` | gauge | utilization charged, in 1/1000 core |
    /// | `admission.capacity_millicores` | gauge | capacity decided against |
    /// | `lifecycle.attached` | counter | streams ever attached |
    /// | `lifecycle.detached` | counter | caller-driven departures |
    /// | `lifecycle.readmitted` | counter | waiting streams re-admitted |
    /// | `lifecycle.upgraded` | counter | ceilings raised after a release |
    /// | `lifecycle.downgraded` | counter | ceilings lowered by lag feedback |
    pub fn record_into(&self, snap: &mut TelemetrySnapshot) {
        let s = Stability::Stable;
        snap.insert_counter(s, "admission.admitted", self.admitted() as u64);
        snap.insert_counter(s, "admission.degraded", self.degraded() as u64);
        snap.insert_counter(s, "admission.rejected", self.rejected() as u64);
        snap.insert_gauge(s, "admission.granted_millicores", millicores(self.used));
        snap.insert_gauge(
            s,
            "admission.capacity_millicores",
            millicores(self.capacity),
        );
        snap.insert_counter(s, "lifecycle.attached", self.lifecycle.attached as u64);
        snap.insert_counter(s, "lifecycle.detached", self.lifecycle.detached as u64);
        snap.insert_counter(s, "lifecycle.readmitted", self.lifecycle.readmitted as u64);
        snap.insert_counter(s, "lifecycle.upgraded", self.lifecycle.upgraded as u64);
        snap.insert_counter(s, "lifecycle.downgraded", self.lifecycle.downgraded as u64);
    }

    /// One-line human summary, including the lifecycle counters.
    /// Formatted from the snapshot values this report exports
    /// ([`AdmissionReport::record_into`]), so the text and the JSON
    /// export can never disagree.
    #[must_use]
    pub fn summary(&self) -> String {
        let mut snap = TelemetrySnapshot::new();
        self.record_into(&mut snap);
        summary_from_snapshot(&snap)
    }
}

/// Cores → millicores, the integer unit the gauge exports (snapshots
/// carry `u64` only; 1/1000 core keeps two printed decimals exact).
fn millicores(cores: f64) -> u64 {
    (cores * 1000.0).round().max(0.0) as u64
}

/// Renders the `admission.*` / `lifecycle.*` values of a snapshot as the
/// canonical one-line summary — the single formatter behind both
/// [`AdmissionReport::summary`] and
/// [`crate::ServeReport::summary`].
pub(crate) fn summary_from_snapshot(snap: &TelemetrySnapshot) -> String {
    let c = |name: &str| snap.counter(name).unwrap_or(0);
    let g = |name: &str| snap.gauge(name).unwrap_or(0) as f64 / 1000.0;
    format!(
        "admission: {} admitted, {} degraded, {} rejected; {:.2}/{:.2} cores granted; \
         lifecycle: {} attached, {} detached, {} re-admitted, {} upgraded, {} downgraded",
        c("admission.admitted"),
        c("admission.degraded"),
        c("admission.rejected"),
        g("admission.granted_millicores"),
        g("admission.capacity_millicores"),
        c("lifecycle.attached"),
        c("lifecycle.detached"),
        c("lifecycle.readmitted"),
        c("lifecycle.upgraded"),
        c("lifecycle.downgraded"),
    )
}

/// The deterministic greedy admission controller described in the module
/// docs.
#[derive(Debug, Clone, Copy)]
pub struct AdmissionController {
    capacity: f64,
}

impl AdmissionController {
    /// A controller over `capacity` cores' worth of sustained demand.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is not finite and positive.
    #[must_use]
    pub fn new(capacity: f64) -> Self {
        assert!(
            capacity.is_finite() && capacity > 0.0,
            "capacity must be positive and finite"
        );
        AdmissionController { capacity }
    }

    /// The natural capacity of a `workers`-wide pool: one core each.
    #[must_use]
    pub fn for_workers(workers: usize) -> Self {
        Self::new(workers.max(1) as f64)
    }

    /// The capacity in cores.
    #[must_use]
    pub fn capacity(&self) -> f64 {
        self.capacity
    }

    /// The grant for one demand against `used` cores already committed:
    /// admit at full quality if it fits, else the highest quality ceiling
    /// that fits, else reject. Returns the decision and the utilization
    /// to charge. Pure — the single pricing rule behind every
    /// [`AdmissionLedger`] transition.
    #[must_use]
    pub fn grant(&self, used: f64, d: &StreamDemand) -> (AdmissionDecision, f64) {
        let demand_at_max = d.at_max();
        if d.utilization.is_empty() {
            (AdmissionDecision::Reject, 0.0)
        } else if used + demand_at_max <= self.capacity {
            (AdmissionDecision::Admit, demand_at_max)
        } else {
            // Highest ceiling that still fits, if any (max level
            // excluded — that would be a full admit).
            match d
                .utilization
                .iter()
                .rev()
                .skip(1)
                .find(|&&(_, u)| used + u <= self.capacity)
            {
                Some(&(q, u)) => (AdmissionDecision::Degrade(q), u),
                None => (AdmissionDecision::Reject, 0.0),
            }
        }
    }
}

/// The stateful side of admission for a *churn* session: a running
/// account of granted capacity that streams join and leave while the
/// server runs.
///
/// The ledger prices every transition with the same pure
/// [`AdmissionController::grant`] rule, so every decision remains a
/// deterministic function of (priorities, declared utilizations, attach
/// order) — worker counts and host scheduling never enter. Three
/// transitions exist:
///
/// * [`AdmissionLedger::attach`] — price one stream against the current
///   residual capacity (a batch [`AdmissionLedger::attach_batch`] prices
///   a whole population the same way, rank-ordered);
/// * [`AdmissionLedger::release`] — a stream finished or detached: its
///   granted utilization returns to the pool;
/// * [`AdmissionLedger::regrant`] — after a release, try to improve a
///   waiting or degraded stream's grant (re-admission). Callers drive the
///   pass in (priority desc, attach index asc) order so higher-priority
///   streams always see freed capacity first.
#[derive(Debug, Clone)]
pub struct AdmissionLedger {
    controller: AdmissionController,
    used: f64,
    records: Vec<AdmissionRecord>,
    lifecycle: LifecycleCounts,
}

impl AdmissionLedger {
    /// An empty ledger over `controller`'s capacity.
    #[must_use]
    pub fn new(controller: AdmissionController) -> Self {
        AdmissionLedger {
            controller,
            used: 0.0,
            records: Vec::new(),
            lifecycle: LifecycleCounts::default(),
        }
    }

    /// Capacity in cores.
    #[must_use]
    pub fn capacity(&self) -> f64 {
        self.controller.capacity()
    }

    /// Utilization currently charged, in cores.
    #[must_use]
    pub fn used(&self) -> f64 {
        self.used
    }

    /// Prices one arriving stream against the current residual capacity,
    /// charges its grant and records it. Deterministic given the call
    /// sequence.
    pub fn attach(&mut self, d: &StreamDemand) -> AdmissionDecision {
        let (decision, granted) = self.controller.grant(self.used, d);
        self.used += granted;
        self.lifecycle.attached += 1;
        self.records.push(AdmissionRecord {
            index: d.index,
            priority: d.priority,
            decision,
            demand_at_max: d.at_max(),
            granted_utilization: granted,
            readmissions: 0,
        });
        decision
    }

    /// Prices a whole population at once: [`AdmissionLedger::attach`] on
    /// each demand in rank order, (priority desc, index asc), so the
    /// outcome is a pure function of the demands — never of thread
    /// timing, worker counts or map iteration order. Returns the
    /// decisions in that order.
    ///
    /// # Panics
    ///
    /// Panics if the ledger already holds streams (batch pricing is an
    /// opening move, not a merge rule).
    pub fn attach_batch(&mut self, demands: &[StreamDemand]) -> Vec<(usize, AdmissionDecision)> {
        assert!(
            self.records.is_empty(),
            "attach_batch on a non-empty ledger"
        );
        let mut rank: Vec<&StreamDemand> = demands.iter().collect();
        rank.sort_by(|a, b| b.priority.cmp(&a.priority).then(a.index.cmp(&b.index)));
        rank.into_iter()
            .map(|d| (d.index, self.attach(d)))
            .collect()
    }

    /// Returns a finished or detached stream's granted utilization to the
    /// pool. `detached` distinguishes a caller-driven departure (counted
    /// in the lifecycle) from natural stream exhaustion.
    pub fn release(&mut self, index: usize, detached: bool) {
        if let Some(r) = self.records.iter_mut().find(|r| r.index == index) {
            self.used -= r.granted_utilization;
            r.granted_utilization = 0.0;
        }
        if detached {
            self.lifecycle.detached += 1;
        }
    }

    /// Attempts to improve stream `index`'s grant after a release:
    /// re-prices its demand against the residual capacity (its own
    /// current charge excluded) and returns the new decision when it is a
    /// strict improvement — a waiting stream admitted (possibly with a
    /// ceiling), or a degraded stream's ceiling raised. Returns `None`
    /// and changes nothing otherwise.
    pub fn regrant(&mut self, index: usize, d: &StreamDemand) -> Option<AdmissionDecision> {
        let pos = self.records.iter().position(|r| r.index == index)?;
        let current = self.records[pos].granted_utilization;
        let was = self.records[pos].decision;
        let (decision, granted) = self.controller.grant(self.used - current, d);
        let improves = match (was, decision) {
            (_, AdmissionDecision::Reject) => false,
            (AdmissionDecision::Reject, _) => true,
            (AdmissionDecision::Degrade(old), AdmissionDecision::Degrade(new)) => new > old,
            (AdmissionDecision::Degrade(_), AdmissionDecision::Admit) => true,
            (AdmissionDecision::Admit, _) => false,
        };
        if !improves {
            return None;
        }
        match was {
            AdmissionDecision::Reject => self.lifecycle.readmitted += 1,
            _ => self.lifecycle.upgraded += 1,
        }
        self.used += granted - current;
        let r = &mut self.records[pos];
        r.decision = decision;
        r.granted_utilization = granted;
        r.readmissions += 1;
        Some(decision)
    }

    /// Lowers stream `index`'s grant to the quality ceiling `cap`: the
    /// decision becomes [`AdmissionDecision::Degrade`]`(cap)` and the
    /// freed utilization returns to the pool, where a later
    /// [`Self::regrant`] pass can hand it back. The inverse of
    /// `regrant` — lag-driven ceiling feedback
    /// ([`crate::FeedbackConfig`]) calls this when a stream's
    /// fan-out ring lags chronically. Returns `None` and changes
    /// nothing unless the stream is admitted, `cap` is a declared
    /// level, and the move strictly shrinks the grant.
    pub fn restrict(
        &mut self,
        index: usize,
        d: &StreamDemand,
        cap: Quality,
    ) -> Option<AdmissionDecision> {
        let pos = self.records.iter().position(|r| r.index == index)?;
        let granted = d
            .utilization
            .iter()
            .find(|&&(q, _)| q == cap)
            .map(|&(_, u)| u)?;
        let current = self.records[pos].granted_utilization;
        if granted >= current || !self.records[pos].decision.is_admitted() {
            return None;
        }
        self.lifecycle.downgraded += 1;
        self.used += granted - current;
        let r = &mut self.records[pos];
        r.decision = AdmissionDecision::Degrade(cap);
        r.granted_utilization = granted;
        Some(r.decision)
    }

    /// Times stream `index`'s grant was improved by a re-admission pass.
    /// Records outlive their streams, so this is exact even for streams
    /// that detached before the session finished.
    #[must_use]
    pub fn readmissions(&self, index: usize) -> u32 {
        self.records
            .iter()
            .find(|r| r.index == index)
            .map_or(0, |r| r.readmissions)
    }

    /// The ledger's state as an [`AdmissionReport`]: records in decision
    /// order (attach order for incremental sessions, rank order for a
    /// batch opening), current charges, lifecycle counters.
    #[must_use]
    pub fn report(&self) -> AdmissionReport {
        AdmissionReport {
            records: self.records.clone(),
            capacity: self.controller.capacity(),
            used: self.used,
            lifecycle: self.lifecycle,
        }
    }
}

/// [`MaxQuality`] under an admission ceiling: picks the maximal
/// *feasible* level, clamped to the granted ceiling. The fine-grain
/// controller still degrades below the ceiling whenever the constraints
/// require it — admission only caps the top.
#[derive(Debug, Clone, Copy)]
pub struct CeilingPolicy {
    inner: MaxQuality,
    cap: Quality,
}

impl CeilingPolicy {
    /// A max-quality policy capped at `cap`.
    #[must_use]
    pub fn new(cap: Quality) -> Self {
        CeilingPolicy {
            inner: MaxQuality::new(),
            cap,
        }
    }

    /// The ceiling.
    #[must_use]
    pub fn cap(&self) -> Quality {
        self.cap
    }
}

impl QualityPolicy for CeilingPolicy {
    fn choose(&mut self, ctx: &PolicyCtx<'_>) -> Choice {
        let mut c = self.inner.choose(ctx);
        if !c.fallback && c.quality > self.cap {
            // Feasibility is monotone in the level: the ceiling is below
            // a feasible level, so it is feasible too.
            c.quality = self.cap;
        }
        c
    }

    fn name(&self) -> &'static str {
        "controlled-capped"
    }
}

/// The policy an admission decision grants a running stream.
pub(crate) fn policy_for(decision: AdmissionDecision) -> Box<dyn QualityPolicy> {
    match decision {
        AdmissionDecision::Degrade(cap) => Box::new(CeilingPolicy::new(cap)),
        _ => Box::new(MaxQuality::new()),
    }
}

/// The declared quality level one below a stream's current grant —
/// where lag feedback sends its ceiling next. `None` when the stream is
/// already at its lowest level (or not granted at all).
pub(crate) fn next_lower_cap(
    demand: &StreamDemand,
    decision: AdmissionDecision,
) -> Option<Quality> {
    let levels = &demand.utilization;
    let pos = match decision {
        AdmissionDecision::Admit => levels.len().checked_sub(1)?,
        AdmissionDecision::Degrade(cap) => levels.iter().position(|&(q, _)| q == cap)?,
        AdmissionDecision::Reject => return None,
    };
    (pos > 0).then(|| levels[pos - 1].0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demand(index: usize, priority: u8, levels: &[f64]) -> StreamDemand {
        StreamDemand {
            index,
            priority,
            utilization: levels
                .iter()
                .enumerate()
                .map(|(q, &u)| (Quality::new(q as u8), u))
                .collect(),
        }
    }

    /// Prices `demands` as a batch on a fresh ledger over `ctl`.
    fn batch(ctl: AdmissionController, demands: &[StreamDemand]) -> AdmissionReport {
        let mut ledger = AdmissionLedger::new(ctl);
        ledger.attach_batch(demands);
        ledger.report()
    }

    #[test]
    fn under_capacity_everyone_is_admitted() {
        let ctl = AdmissionController::for_workers(4);
        let report = batch(
            ctl,
            &[
                demand(0, 1, &[0.2, 0.5, 1.0]),
                demand(1, 5, &[0.2, 0.5, 1.0]),
                demand(2, 3, &[0.2, 0.5, 1.0]),
            ],
        );
        assert_eq!(report.admitted(), 3);
        assert_eq!(report.degraded(), 0);
        assert_eq!(report.rejected(), 0);
        assert!((report.granted_utilization() - 3.0).abs() < 1e-12);
        assert_eq!(report.lifecycle().attached, 3);
        // Rank order: priority desc, then index.
        let seq = report.sequence();
        assert_eq!(seq[0].0, 1);
        assert_eq!(seq[1].0, 2);
        assert_eq!(seq[2].0, 0);
    }

    #[test]
    fn overload_degrades_then_rejects_lowest_priority_first() {
        // Capacity 2.0; three streams wanting 1.0 each at max, 0.4 at
        // q1, 0.2 at q0.
        let ctl = AdmissionController::new(2.0);
        let report = batch(
            ctl,
            &[
                demand(0, 9, &[0.2, 0.4, 1.0]),
                demand(1, 9, &[0.2, 0.4, 1.0]),
                demand(2, 1, &[0.2, 0.4, 1.0]),
                demand(3, 0, &[1.5, 1.7, 2.0]),
            ],
        );
        // 0 and 1 admit (2.0 used); 2 degrades to q1 (0.4 doesn't fit —
        // nothing fits! 2.0 + 0.2 > 2.0) → reject; 3 rejects.
        assert_eq!(
            report.for_stream(0).unwrap().decision,
            AdmissionDecision::Admit
        );
        assert_eq!(
            report.for_stream(1).unwrap().decision,
            AdmissionDecision::Admit
        );
        assert_eq!(
            report.for_stream(2).unwrap().decision,
            AdmissionDecision::Reject
        );
        assert_eq!(
            report.for_stream(3).unwrap().decision,
            AdmissionDecision::Reject
        );
    }

    #[test]
    fn degradation_grants_the_highest_fitting_ceiling() {
        let ctl = AdmissionController::new(1.5);
        let report = batch(
            ctl,
            &[
                demand(0, 2, &[0.2, 0.5, 1.0]),
                demand(1, 1, &[0.1, 0.4, 0.9]),
            ],
        );
        assert_eq!(
            report.for_stream(0).unwrap().decision,
            AdmissionDecision::Admit
        );
        let r1 = report.for_stream(1).unwrap();
        assert_eq!(r1.decision, AdmissionDecision::Degrade(Quality::new(1)));
        assert!((r1.granted_utilization - 0.4).abs() < 1e-12);
        assert!(report.summary().contains("1 degraded"));
    }

    #[test]
    fn decisions_are_a_pure_function_of_the_demands() {
        let demands = vec![
            demand(0, 3, &[0.3, 0.8, 1.4]),
            demand(1, 3, &[0.3, 0.8, 1.4]),
            demand(2, 7, &[0.2, 0.6, 1.2]),
            demand(3, 1, &[0.1, 0.2, 0.3]),
        ];
        let ctl = AdmissionController::new(2.5);
        let a = batch(ctl, &demands).sequence();
        for _ in 0..10 {
            assert_eq!(batch(ctl, &demands).sequence(), a);
        }
    }

    #[test]
    fn empty_demand_is_rejected() {
        let ctl = AdmissionController::new(1.0);
        let report = batch(
            ctl,
            &[StreamDemand {
                index: 0,
                priority: 0,
                utilization: Vec::new(),
            }],
        );
        assert_eq!(report.rejected(), 1);
    }

    #[test]
    fn bad_capacity_panics() {
        assert!(std::panic::catch_unwind(|| AdmissionController::new(0.0)).is_err());
        assert!(std::panic::catch_unwind(|| AdmissionController::new(f64::NAN)).is_err());
    }

    #[test]
    fn release_frees_capacity_and_regrant_improves_in_order() {
        // Capacity 2.0: a p9 hog takes 1.8; a p5 stream degrades to q0
        // (0.2); a p3 stream is rejected outright.
        let ctl = AdmissionController::new(2.0);
        let mut ledger = AdmissionLedger::new(ctl);
        let hog = demand(0, 9, &[1.0, 1.4, 1.8]);
        let mid = demand(1, 5, &[0.2, 0.5, 1.0]);
        let low = demand(2, 3, &[0.3, 0.6, 1.2]);
        assert_eq!(ledger.attach(&hog), AdmissionDecision::Admit);
        assert_eq!(
            ledger.attach(&mid),
            AdmissionDecision::Degrade(Quality::new(0))
        );
        assert_eq!(ledger.attach(&low), AdmissionDecision::Reject);

        // The hog departs: 1.8 cores return to the pool.
        ledger.release(0, true);
        assert!((ledger.used() - 0.2).abs() < 1e-12);

        // Re-admission in priority order: mid upgrades to full (1.0),
        // then low is re-admitted with a q1 ceiling (0.6 fits, 0.9 not).
        assert_eq!(ledger.regrant(1, &mid), Some(AdmissionDecision::Admit));
        assert_eq!(
            ledger.regrant(2, &low),
            Some(AdmissionDecision::Degrade(Quality::new(1)))
        );
        // No further improvement available.
        assert_eq!(ledger.regrant(2, &low), None);

        let report = ledger.report();
        assert_eq!(report.lifecycle().detached, 1);
        assert_eq!(report.lifecycle().readmitted, 1);
        assert_eq!(report.lifecycle().upgraded, 1);
        assert_eq!(report.for_stream(1).unwrap().readmissions, 1);
        assert!(report.summary().contains("1 re-admitted"));
        assert!((ledger.used() - 1.6).abs() < 1e-12);
    }

    #[test]
    fn regrant_never_downgrades_a_full_admit() {
        let ctl = AdmissionController::new(2.0);
        let mut ledger = AdmissionLedger::new(ctl);
        let d = demand(0, 5, &[0.2, 0.5, 1.0]);
        assert_eq!(ledger.attach(&d), AdmissionDecision::Admit);
        assert_eq!(ledger.regrant(0, &d), None);
        assert_eq!(ledger.report().lifecycle().upgraded, 0);
    }

    #[test]
    fn restrict_frees_capacity_and_regrant_hands_it_back() {
        let ctl = AdmissionController::new(2.0);
        let mut ledger = AdmissionLedger::new(ctl);
        let d = demand(0, 5, &[0.2, 0.5, 1.0]);
        assert_eq!(ledger.attach(&d), AdmissionDecision::Admit);

        // Lag feedback caps the stream at q1: 0.5 cores stay charged,
        // 0.5 return to the pool.
        assert_eq!(
            ledger.restrict(0, &d, Quality::new(1)),
            Some(AdmissionDecision::Degrade(Quality::new(1)))
        );
        assert!((ledger.used() - 0.5).abs() < 1e-12);
        assert_eq!(ledger.report().lifecycle().downgraded, 1);
        assert!(ledger.report().summary().contains("1 downgraded"));

        // Raising the ceiling is regrant's job, not restrict's.
        assert_eq!(ledger.restrict(0, &d, Quality::new(2)), None);
        // Undeclared level: no change.
        assert_eq!(ledger.restrict(0, &d, Quality::new(7)), None);

        // Lag cleared: regrant restores the full admit.
        assert_eq!(ledger.regrant(0, &d), Some(AdmissionDecision::Admit));
        assert!((ledger.used() - 1.0).abs() < 1e-12);
        assert_eq!(ledger.report().lifecycle().upgraded, 1);
    }

    #[test]
    fn restrict_ignores_rejected_and_unknown_streams() {
        let ctl = AdmissionController::new(0.1);
        let mut ledger = AdmissionLedger::new(ctl);
        let d = demand(0, 5, &[0.2, 0.5, 1.0]);
        assert_eq!(ledger.attach(&d), AdmissionDecision::Reject);
        assert_eq!(ledger.restrict(0, &d, Quality::new(0)), None);
        assert_eq!(ledger.restrict(9, &d, Quality::new(0)), None);
        assert_eq!(ledger.report().lifecycle().downgraded, 0);
    }

    #[test]
    fn ceiling_policy_caps_without_breaking_fallback() {
        let p = CeilingPolicy::new(Quality::new(2));
        assert_eq!(p.cap(), Quality::new(2));
        assert_eq!(p.name(), "controlled-capped");
    }
}
