//! The ready index: a session's running streams ordered by when they
//! can next make progress (see "Ready index" on
//! [`StreamSession`](super::StreamSession)).

use std::collections::BTreeSet;

use fgqos_time::Cycles;

/// Every running stream of a session, ordered by when it can next make
/// progress: the non-exhausted ones by (server-time ready time, slot),
/// the exhausted ones by slot. A tick reads its due set and departures
/// here instead of re-reading every stream's clock.
#[derive(Default)]
pub(super) struct ReadyIndex {
    ready: BTreeSet<(Cycles, usize)>,
    exhausted: BTreeSet<usize>,
}

impl ReadyIndex {
    pub(super) fn insert(&mut self, slot: usize, at: Option<Cycles>) {
        match at {
            Some(t) => self.ready.insert((t, slot)),
            None => self.exhausted.insert(slot),
        };
    }

    pub(super) fn remove(&mut self, slot: usize, at: Option<Cycles>) {
        match at {
            Some(t) => self.ready.remove(&(t, slot)),
            None => self.exhausted.remove(&slot),
        };
    }

    /// The earliest ready time over the non-exhausted streams.
    pub(super) fn earliest(&self) -> Option<Cycles> {
        self.ready.first().map(|&(t, _)| t)
    }

    /// The time of the next tick at server time `now`: the earliest ready
    /// time, or `now` when an exhausted stream waits to depart.
    pub(super) fn next_tick_time(&self, now: Cycles) -> Option<Cycles> {
        let earliest = self.earliest();
        if self.exhausted.is_empty() {
            earliest
        } else {
            Some(earliest.map_or(now, |t| t.min(now)))
        }
    }

    /// The slots ready at `t`, in slot order.
    pub(super) fn ready_at(&self, t: Cycles) -> Vec<usize> {
        self.ready
            .range((t, 0)..=(t, usize::MAX))
            .map(|&(_, slot)| slot)
            .collect()
    }

    /// The slots filed at the first and at the second ready time among
    /// the slots not in `due` (sorted), each in slot order.
    pub(super) fn next_two(&self, due: &[usize]) -> (Vec<usize>, Vec<usize>) {
        let (mut next, mut after) = (Vec::new(), Vec::new());
        let mut times: [Option<Cycles>; 2] = [None, None];
        for &(t, slot) in &self.ready {
            if due.binary_search(&slot).is_ok() {
                continue;
            }
            if times[0].is_none_or(|t0| t0 == t) {
                times[0] = Some(t);
                next.push(slot);
            } else if times[1].is_none_or(|t1| t1 == t) {
                times[1] = Some(t);
                after.push(slot);
            } else {
                break;
            }
        }
        (next, after)
    }

    /// The lowest exhausted slot at or above `from`.
    pub(super) fn exhausted_from(&self, from: usize) -> Option<usize> {
        self.exhausted.range(from..).next().copied()
    }

    pub(super) fn len(&self) -> usize {
        self.ready.len() + self.exhausted.len()
    }
}

#[cfg(test)]
mod tests {
    use super::super::{SlotState, StreamSession};
    use crate::admission::AdmissionDecision;
    use crate::churn::ChurnStorm;
    use crate::{stochastic_backends, table_apps, ServerConfig};
    use fgqos_sim::app::VideoApp;
    use fgqos_time::Cycles;
    use std::collections::BTreeSet;

    /// What a tick needs, recomputed by brute force from every slot's
    /// clock and pipeline.
    struct Rescan {
        /// Every non-exhausted running slot as (ready time, slot).
        ready: BTreeSet<(Cycles, usize)>,
        /// What `next_tick_time` must answer: an exhausted stream counts
        /// as the current server time.
        next: Option<Cycles>,
        /// The slots ready at the earliest time, in slot order.
        due: Vec<usize>,
        exhausted: BTreeSet<usize>,
    }

    fn rescan<A: VideoApp>(session: &mut StreamSession<'_, A>) -> Rescan {
        let mut ready = BTreeSet::new();
        let mut exhausted = BTreeSet::new();
        for (i, slot) in session.slots.iter_mut().enumerate() {
            if let SlotState::Running(active) = &mut slot.state {
                match active.st.next_ready_time(active.clock.as_mut()) {
                    Some(t) => ready.insert((slot.attach_at + t, i)),
                    None => exhausted.insert(i),
                };
            }
        }
        let earliest = ready.iter().map(|&(t, _)| t).min();
        let due = ready
            .iter()
            .filter(|&&(t, _)| Some(t) == earliest)
            .map(|&(_, i)| i)
            .collect();
        let next = ready
            .iter()
            .map(|&(t, _)| t)
            .chain(exhausted.iter().map(|_| session.server_now))
            .min();
        Rescan {
            ready,
            next,
            due,
            exhausted,
        }
    }

    /// The streams a release may improve, by brute force: waiting, or
    /// running degraded at a ceiling lag feedback did not impose, in
    /// (priority desc, slot asc) order.
    fn readmission_rescan<A: VideoApp>(session: &StreamSession<'_, A>) -> Vec<usize> {
        let ledger = &session.ledger;
        let mut want: Vec<usize> = (0..session.slots.len())
            .filter(|&i| match session.slots[i].state {
                SlotState::Waiting(_) => true,
                SlotState::Running(_) => {
                    matches!(ledger.record(i).decision, AdmissionDecision::Degrade(_))
                        && !ledger.is_capped(i)
                }
                SlotState::Done => false,
            })
            .collect();
        want.sort_by_key(|&i| (std::cmp::Reverse(ledger.record(i).priority), i));
        want
    }

    /// Asserts that the session's ready index equals a rescan, that the
    /// ledger's re-admission order equals one too, and that every name
    /// resolves to its slot.
    fn assert_index_is_exact<A: VideoApp>(session: &mut StreamSession<'_, A>) {
        let tick = session.ticks();
        let want = rescan(session);
        let index = &session.index;
        assert_eq!(index.ready, want.ready, "ready entries at tick {tick}");
        assert_eq!(index.exhausted, want.exhausted, "exhausted at tick {tick}");
        assert_eq!(session.next_tick_time(), want.next, "next tick at {tick}");
        let due = index
            .earliest()
            .map_or_else(Vec::new, |t| index.ready_at(t));
        assert_eq!(due, want.due, "due set at tick {tick}");
        assert_eq!(session.running(), want.ready.len() + want.exhausted.len());
        let order: Vec<usize> = session.ledger.readmission_order().collect();
        assert_eq!(order, readmission_rescan(session), "re-admission at {tick}");
        assert_eq!(session.names.len(), session.slots.len());
        for (i, slot) in session.slots.iter().enumerate() {
            assert_eq!(session.slot_of(&slot.name), Some(i), "{}", slot.name);
        }
    }

    /// The ready index, the ledger's re-admission order and the name map
    /// equal a rescan of the slots before every tick of an overloaded
    /// churn storm — streams park, re-admit, degrade, detach and run
    /// dry — at one and two workers.
    #[test]
    fn ready_index_equals_a_rescan_through_a_churn_storm() {
        for workers in [1usize, 2] {
            let server = ServerConfig::new(workers).capacity(2.5).build();
            let mut session = server.session(table_apps(8), stochastic_backends());
            let (mut parked, mut degraded) = (0usize, false);
            for event in ChurnStorm::paper_default(5).events() {
                loop {
                    assert_index_is_exact(&mut session);
                    parked = parked.max(session.waiting());
                    degraded |= (0..session.slots.len()).any(|i| {
                        matches!(session.slots[i].state, SlotState::Running(_))
                            && matches!(
                                session.ledger.record(i).decision,
                                AdmissionDecision::Degrade(_)
                            )
                    });
                    match session.next_tick_time() {
                        Some(t) if t < event.at => assert!(session.step().unwrap()),
                        _ => break,
                    }
                }
                session.run_script(vec![event]).unwrap();
            }
            loop {
                assert_index_is_exact(&mut session);
                if !session.step().unwrap() {
                    break;
                }
            }
            assert_eq!(session.running(), 0);
            let report = session.finish();
            let life = report.admission().lifecycle();
            assert!(parked > 0, "the storm must park streams");
            assert!(life.readmitted > 0, "departures must re-admit");
            assert!(life.detached > 0, "the storm must detach streams");
            assert!(degraded, "the storm must run degraded streams");
            assert!(report.all_safe());
        }
    }
}
