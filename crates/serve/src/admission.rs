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
//!
//! One [`AdmissionLedger`] per session owns every stream's admission
//! facts, by stream index (the attach order); the session's slots keep
//! none of them.

use std::cmp::Reverse;
use std::collections::BTreeSet;

use fgqos_core::policy::{Choice, MaxQuality, PolicyCtx, QualityPolicy};
use fgqos_telemetry::{Stability, TelemetrySnapshot};
use fgqos_time::Quality;

/// What the admission layer granted one stream. Ordered from the worst
/// grant to the best: `Reject < Degrade(q) < Degrade(q') < Admit` for
/// `q < q'`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AdmissionDecision {
    /// Not admitted: even the minimum level does not fit the remaining
    /// capacity.
    Reject,
    /// Admitted with a quality ceiling: the stream's policy may never
    /// pick a level above it.
    Degrade(Quality),
    /// Admitted at full quality range.
    Admit,
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

/// The one owner of every stream's admission facts — demand, priority,
/// decision, grant, re-admission count and feedback hold — stored by
/// stream index, which is the attach order (submission order for a
/// batch opening).
///
/// Every transition is priced by one pure rule, [`Self::grant`], so
/// every decision is a deterministic function of (priorities, declared
/// utilizations, attach order) — worker counts and host scheduling
/// never enter. [`Self::attach`] (or [`Self::attach_batch`]) prices an
/// arriving stream; [`Self::release`] returns a departed stream's grant
/// to the pool; [`Self::readmit`] then re-prices the waiting and
/// degraded streams in (priority desc, index asc) order, read from an
/// ordered set kept up to date at every transition; lag feedback lowers
/// one ceiling with [`Self::restrict`] and raises it with
/// [`Self::regrant`].
#[derive(Debug, Clone)]
pub struct AdmissionLedger {
    capacity: f64,
    used: f64,
    /// Every stream's facts, by stream index.
    streams: Vec<Stream>,
    /// Stream indices in decision order, for [`Self::report`].
    order: Vec<usize>,
    /// What [`Self::readmit`] re-prices, keyed (priority desc, index asc):
    /// the waiting and degraded streams not released or feedback-capped.
    improvable: BTreeSet<(Reverse<u8>, usize)>,
    lifecycle: LifecycleCounts,
}

/// One stream's admission facts. `capped` marks a ceiling imposed by
/// [`AdmissionLedger::restrict`], which only a regrant lifts.
#[derive(Debug, Clone)]
struct Stream {
    record: AdmissionRecord,
    demand: StreamDemand,
    capped: bool,
}

impl AdmissionLedger {
    /// An empty ledger over `capacity` cores' worth of sustained demand.
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
        AdmissionLedger {
            capacity,
            used: 0.0,
            streams: Vec::new(),
            order: Vec::new(),
            improvable: BTreeSet::new(),
            lifecycle: LifecycleCounts::default(),
        }
    }

    /// Capacity in cores.
    #[must_use]
    pub fn capacity(&self) -> f64 {
        self.capacity
    }

    /// Utilization currently charged, in cores.
    #[must_use]
    pub fn used(&self) -> f64 {
        self.used
    }

    /// The grant for one demand against `used` cores already committed:
    /// admit at full quality if it fits, else the highest quality ceiling
    /// that fits, else reject. Returns the decision and the utilization
    /// to charge. Pure — the single pricing rule behind every
    /// transition.
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

    /// Prices one arriving stream against the current residual capacity,
    /// charges its grant and records it at the next stream index.
    /// Deterministic given the call sequence.
    pub fn attach(&mut self, d: StreamDemand) -> AdmissionDecision {
        self.push(d);
        self.price(self.streams.len() - 1)
    }

    /// Prices a whole population at once: the stream at position `i` of
    /// `demands` gets index `i`, and each is priced as by
    /// [`AdmissionLedger::attach`] in rank order, (priority desc, index
    /// asc), so the outcome is a pure function of the demands — never of
    /// thread timing, worker counts or map iteration order. Returns the
    /// decisions in that order.
    ///
    /// # Panics
    ///
    /// Panics if the ledger already holds streams (batch pricing is an
    /// opening move, not a merge rule).
    pub fn attach_batch(&mut self, demands: Vec<StreamDemand>) -> Vec<(usize, AdmissionDecision)> {
        assert!(
            self.streams.is_empty(),
            "attach_batch on a non-empty ledger"
        );
        let mut rank: Vec<usize> = (0..demands.len()).collect();
        rank.sort_by_key(|&i| (Reverse(demands[i].priority), i));
        demands.into_iter().for_each(|d| self.push(d));
        rank.into_iter().map(|i| (i, self.price(i))).collect()
    }

    /// Records a not-yet-priced stream at the next index.
    fn push(&mut self, demand: StreamDemand) {
        let record = AdmissionRecord {
            index: self.streams.len(),
            priority: demand.priority,
            decision: AdmissionDecision::Reject,
            demand_at_max: demand.at_max(),
            granted_utilization: 0.0,
            readmissions: 0,
        };
        self.streams.push(Stream {
            record,
            demand,
            capped: false,
        });
    }

    /// Prices stream `i` for the first time.
    fn price(&mut self, i: usize) -> AdmissionDecision {
        let (decision, granted) = self.grant(self.used, &self.streams[i].demand);
        self.used += granted;
        self.lifecycle.attached += 1;
        self.order.push(i);
        let r = &mut self.streams[i].record;
        r.decision = decision;
        r.granted_utilization = granted;
        if decision != AdmissionDecision::Admit {
            self.improvable.insert((Reverse(r.priority), i));
        }
        decision
    }

    /// Returns a finished or detached stream's granted utilization to the
    /// pool. `detached` distinguishes a caller-driven departure (counted
    /// in the lifecycle) from natural stream exhaustion.
    pub fn release(&mut self, index: usize, detached: bool) {
        if let Some(s) = self.streams.get_mut(index) {
            self.used -= s.record.granted_utilization;
            s.record.granted_utilization = 0.0;
            self.improvable.remove(&(Reverse(s.record.priority), index));
        }
        if detached {
            self.lifecycle.detached += 1;
        }
    }

    /// The re-admission pass after a release: [`Self::regrant`] on each
    /// waiting stream and each stream degraded by admission (not by lag
    /// feedback), in [`Self::readmission_order`]. Returns the improved
    /// streams with their new decisions, in that order.
    pub fn readmit(&mut self) -> Vec<(usize, AdmissionDecision)> {
        let order: Vec<usize> = self.readmission_order().collect();
        (order.into_iter())
            .filter_map(|i| Some((i, self.regrant(i)?)))
            .collect()
    }

    /// The streams [`Self::readmit`] re-prices: (priority desc, index asc).
    pub fn readmission_order(&self) -> impl Iterator<Item = usize> + '_ {
        self.improvable.iter().map(|&(_, i)| i)
    }

    /// Attempts to improve stream `index`'s grant: re-prices its demand
    /// against the residual capacity (its own current charge excluded)
    /// and returns the new decision when it is a strict improvement — a
    /// waiting stream admitted (possibly with a ceiling), or a degraded
    /// stream's ceiling raised. A full admit lifts a feedback-imposed
    /// ceiling's hold. Returns `None` and changes nothing otherwise.
    pub fn regrant(&mut self, index: usize) -> Option<AdmissionDecision> {
        let s = self.streams.get(index)?;
        let (current, was) = (s.record.granted_utilization, s.record.decision);
        let (decision, granted) = self.grant(self.used - current, &s.demand);
        if decision <= was {
            return None;
        }
        match was {
            AdmissionDecision::Reject => self.lifecycle.readmitted += 1,
            _ => self.lifecycle.upgraded += 1,
        }
        self.used += granted - current;
        let s = &mut self.streams[index];
        s.record.decision = decision;
        s.record.granted_utilization = granted;
        s.record.readmissions += 1;
        if decision == AdmissionDecision::Admit {
            s.capped = false;
            self.improvable.remove(&(Reverse(s.record.priority), index));
        }
        Some(decision)
    }

    /// Lowers stream `index`'s quality ceiling one declared level: the
    /// decision becomes [`AdmissionDecision::Degrade`] at the level below
    /// the current grant, the freed utilization returns to the pool, and
    /// the ceiling counts as feedback-imposed: only [`Self::regrant`]
    /// raises it again, never a release's [`Self::readmit`] pass. The
    /// inverse of `regrant` — lag-driven ceiling feedback
    /// ([`crate::FeedbackConfig`]) calls this when a stream's fan-out
    /// ring lags chronically. Returns `None` and changes nothing unless
    /// the stream is admitted above its lowest level and the move
    /// strictly shrinks the grant.
    pub fn restrict(&mut self, index: usize) -> Option<AdmissionDecision> {
        let s = self.streams.get_mut(index)?;
        let levels = &s.demand.utilization;
        let at = match s.record.decision {
            AdmissionDecision::Admit => levels.len().checked_sub(1)?,
            AdmissionDecision::Degrade(cap) => {
                levels.binary_search_by_key(&cap, |&(q, _)| q).ok()?
            }
            AdmissionDecision::Reject => return None,
        };
        let (cap, granted) = levels[at.checked_sub(1)?];
        let current = s.record.granted_utilization;
        if granted >= current {
            return None;
        }
        self.lifecycle.downgraded += 1;
        self.used += granted - current;
        s.record.decision = AdmissionDecision::Degrade(cap);
        s.record.granted_utilization = granted;
        s.capped = true;
        self.improvable.remove(&(Reverse(s.record.priority), index));
        Some(s.record.decision)
    }

    /// Whether lag feedback imposed stream `index`'s current ceiling
    /// (see [`Self::restrict`]).
    #[must_use]
    pub fn is_capped(&self, index: usize) -> bool {
        self.streams.get(index).is_some_and(|s| s.capped)
    }

    /// Stream `index`'s record (it outlives the stream). Panics if no
    /// stream has that index.
    #[must_use]
    pub fn record(&self, index: usize) -> &AdmissionRecord {
        &self.streams[index].record
    }

    /// The ledger's state as an [`AdmissionReport`]: records in decision
    /// order (attach order for incremental sessions, rank order for a
    /// batch opening), current charges, lifecycle counters.
    #[must_use]
    pub fn report(&self) -> AdmissionReport {
        AdmissionReport {
            records: (self.order.iter())
                .map(|&i| self.streams[i].record.clone())
                .collect(),
            capacity: self.capacity,
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

#[cfg(test)]
mod tests {
    use super::*;

    fn demand(priority: u8, levels: &[f64]) -> StreamDemand {
        StreamDemand {
            priority,
            utilization: levels
                .iter()
                .enumerate()
                .map(|(q, &u)| (Quality::new(q as u8), u))
                .collect(),
        }
    }

    /// Prices `demands` as a batch on a fresh ledger over `capacity`.
    fn batch(capacity: f64, demands: &[StreamDemand]) -> AdmissionReport {
        let mut ledger = AdmissionLedger::new(capacity);
        ledger.attach_batch(demands.to_vec());
        ledger.report()
    }

    #[test]
    fn under_capacity_everyone_is_admitted() {
        let report = batch(
            4.0,
            &[
                demand(1, &[0.2, 0.5, 1.0]),
                demand(5, &[0.2, 0.5, 1.0]),
                demand(3, &[0.2, 0.5, 1.0]),
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
        let report = batch(
            2.0,
            &[
                demand(9, &[0.2, 0.4, 1.0]),
                demand(9, &[0.2, 0.4, 1.0]),
                demand(1, &[0.2, 0.4, 1.0]),
                demand(0, &[1.5, 1.7, 2.0]),
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
        let report = batch(
            1.5,
            &[demand(2, &[0.2, 0.5, 1.0]), demand(1, &[0.1, 0.4, 0.9])],
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
            demand(3, &[0.3, 0.8, 1.4]),
            demand(3, &[0.3, 0.8, 1.4]),
            demand(7, &[0.2, 0.6, 1.2]),
            demand(1, &[0.1, 0.2, 0.3]),
        ];
        let a = batch(2.5, &demands).sequence();
        for _ in 0..10 {
            assert_eq!(batch(2.5, &demands).sequence(), a);
        }
    }

    #[test]
    fn empty_demand_is_rejected() {
        let report = batch(
            1.0,
            &[StreamDemand {
                priority: 0,
                utilization: Vec::new(),
            }],
        );
        assert_eq!(report.rejected(), 1);
    }

    #[test]
    fn bad_capacity_panics() {
        assert!(std::panic::catch_unwind(|| AdmissionLedger::new(0.0)).is_err());
        assert!(std::panic::catch_unwind(|| AdmissionLedger::new(f64::NAN)).is_err());
    }

    #[test]
    fn release_frees_capacity_and_regrant_improves_in_order() {
        // Capacity 2.0: a p9 hog takes 1.8; a p5 stream degrades to q0
        // (0.2); a p3 stream is rejected outright.
        let mut ledger = AdmissionLedger::new(2.0);
        let low = demand(3, &[0.3, 0.6, 1.2]);
        let mid = demand(5, &[0.2, 0.5, 1.0]);
        let hog = demand(9, &[1.0, 1.4, 1.8]);
        assert_eq!(ledger.attach(hog), AdmissionDecision::Admit);
        assert_eq!(ledger.attach(low), AdmissionDecision::Reject);
        assert_eq!(
            ledger.attach(mid),
            AdmissionDecision::Degrade(Quality::new(0))
        );
        assert!(ledger.readmission_order().eq([2, 1]));

        // The hog departs: 1.8 cores return to the pool.
        ledger.release(0, true);
        assert!((ledger.used() - 0.2).abs() < 1e-12);

        // Re-admission in priority order: mid upgrades to full (1.0) and
        // leaves the order, then low is re-admitted with a q1 ceiling
        // (0.6 fits, 0.9 not).
        assert_eq!(
            ledger.readmit(),
            vec![
                (2, AdmissionDecision::Admit),
                (1, AdmissionDecision::Degrade(Quality::new(1))),
            ]
        );
        assert!(ledger.readmission_order().eq([1]));
        // No further improvement available.
        assert_eq!(ledger.readmit(), vec![]);

        let report = ledger.report();
        assert_eq!(report.lifecycle().detached, 1);
        assert_eq!(report.lifecycle().readmitted, 1);
        assert_eq!(report.lifecycle().upgraded, 1);
        assert_eq!(report.for_stream(2).unwrap().readmissions, 1);
        assert_eq!(ledger.record(1).readmissions, 1);
        assert!(report.summary().contains("1 re-admitted"));
        assert!((ledger.used() - 1.6).abs() < 1e-12);
    }

    #[test]
    fn regrant_never_downgrades_a_full_admit() {
        let mut ledger = AdmissionLedger::new(2.0);
        assert_eq!(
            ledger.attach(demand(5, &[0.2, 0.5, 1.0])),
            AdmissionDecision::Admit
        );
        assert_eq!(ledger.regrant(0), None);
        assert_eq!(ledger.report().lifecycle().upgraded, 0);
    }

    #[test]
    fn restrict_frees_capacity_and_regrant_hands_it_back() {
        let mut ledger = AdmissionLedger::new(2.0);
        let d = demand(5, &[0.2, 0.5, 1.0]);
        assert_eq!(ledger.attach(d), AdmissionDecision::Admit);

        // Lag feedback caps the stream one level down, at q1: 0.5 cores
        // stay charged, 0.5 return to the pool.
        assert_eq!(
            ledger.restrict(0),
            Some(AdmissionDecision::Degrade(Quality::new(1)))
        );
        assert!(ledger.is_capped(0));
        assert!((ledger.used() - 0.5).abs() < 1e-12);
        assert_eq!(ledger.report().lifecycle().downgraded, 1);
        assert!(ledger.report().summary().contains("1 downgraded"));

        // Then to q0, the lowest level, below which it cannot go.
        assert_eq!(
            ledger.restrict(0),
            Some(AdmissionDecision::Degrade(Quality::new(0)))
        );
        assert_eq!(ledger.restrict(0), None);
        assert_eq!(ledger.report().lifecycle().downgraded, 2);

        // Lag cleared: regrant restores the full admit.
        assert_eq!(ledger.regrant(0), Some(AdmissionDecision::Admit));
        assert!(!ledger.is_capped(0));
        assert!((ledger.used() - 1.0).abs() < 1e-12);
        assert_eq!(ledger.report().lifecycle().upgraded, 1);
    }

    /// A feedback-imposed ceiling leaves the re-admission order: a
    /// release's pass does not raise it, only a regrant does.
    #[test]
    fn a_release_never_lifts_a_feedback_ceiling() {
        let mut ledger = AdmissionLedger::new(2.0);
        ledger.attach(demand(5, &[0.2, 0.5, 1.0]));
        ledger.attach(demand(1, &[0.2, 0.5, 1.0]));
        assert!(ledger.restrict(1).is_some());
        ledger.release(0, false);
        assert_eq!(ledger.readmission_order().count(), 0);
        assert_eq!(ledger.readmit(), vec![]);
        assert_eq!(ledger.regrant(1), Some(AdmissionDecision::Admit));
    }

    #[test]
    fn restrict_ignores_rejected_and_unknown_streams() {
        let mut ledger = AdmissionLedger::new(0.1);
        assert_eq!(
            ledger.attach(demand(5, &[0.2, 0.5, 1.0])),
            AdmissionDecision::Reject
        );
        assert_eq!(ledger.restrict(0), None);
        assert_eq!(ledger.restrict(9), None);
        assert_eq!(ledger.report().lifecycle().downgraded, 0);
    }

    #[test]
    fn ceiling_policy_caps_without_breaking_fallback() {
        let p = CeilingPolicy::new(Quality::new(2));
        assert_eq!(p.cap(), Quality::new(2));
        assert_eq!(p.name(), "controlled-capped");
    }
}
