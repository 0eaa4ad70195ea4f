//! One shared copy per distinct content of the immutable per-shape
//! structures a runner builds (kernel plan, budget envelopes, promoted
//! constraint tables).
//!
//! Streams of one shape build byte-identical tables. Holding one copy per
//! content instead of one per stream keeps the structures a serving tick
//! walks resident in cache, whichever stream the tick serves. An
//! [`Interner`] maps a cheap caller-supplied fingerprint to weak handles
//! of the live copies with that fingerprint; a hit is confirmed with full
//! equality, so the fingerprint only narrows the search and never decides
//! sharing on its own. Entries are weak: a copy lives exactly as long as
//! some runner holds it.
//!
//! The interner is consulted right after a build, never per frame, and
//! only hands out content it was given: a holder that mutates its copy
//! goes through [`Arc::make_mut`], which either clones a shared copy or
//! moves a sole owner's data out of the allocation the interner points
//! at. Either way the mutated content never becomes visible here.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Mutex, PoisonError, Weak};

/// Fingerprint count below which dead fingerprints are never swept.
const SWEEP_FLOOR: usize = 64;

/// A process-wide set of shared copies keyed by content.
pub(crate) struct Interner<K, T> {
    entries: Mutex<Entries<K, T>>,
}

struct Entries<K, T> {
    by_key: HashMap<K, Vec<Weak<T>>>,
    /// Fingerprint count that triggers the next sweep of dead entries
    /// (doubling, so sweeps cost O(1) amortized per insert).
    sweep_at: usize,
}

impl<K, T> Default for Interner<K, T> {
    fn default() -> Self {
        Interner {
            entries: Mutex::new(Entries {
                by_key: HashMap::new(),
                sweep_at: SWEEP_FLOOR,
            }),
        }
    }
}

impl<K: Eq + Hash, T: PartialEq> Interner<K, T> {
    /// The shared copy equal to `built`: a live copy registered under
    /// `key` if one compares equal (`built` is dropped), otherwise
    /// `built` itself, registered for later callers.
    pub(crate) fn intern(&self, key: K, built: T) -> Arc<T> {
        // Every update below leaves the map valid (a dead entry is only
        // swept later), so a guard poisoned by a panicking holder is safe
        // to recover.
        let mut entries = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
        let Entries { by_key, sweep_at } = &mut *entries;
        let live = by_key.entry(key).or_default();
        live.retain(|w| w.strong_count() > 0);
        if let Some(shared) = live.iter().filter_map(Weak::upgrade).find(|s| **s == built) {
            return shared;
        }
        let shared = Arc::new(built);
        live.push(Arc::downgrade(&shared));
        if by_key.len() > *sweep_at {
            by_key.retain(|_, live| {
                live.retain(|w| w.strong_count() > 0);
                !live.is_empty()
            });
            *sweep_at = (2 * by_key.len()).max(SWEEP_FLOOR);
        }
        shared
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_content_shares_one_copy_and_distinct_content_does_not() {
        let interner = Interner::default();
        let a = interner.intern(1, vec![1, 2, 3]);
        let b = interner.intern(1, vec![1, 2, 3]);
        assert!(Arc::ptr_eq(&a, &b));
        // Same fingerprint, different content: confirmed by equality.
        let c = interner.intern(1, vec![1, 2, 4]);
        assert!(!Arc::ptr_eq(&a, &c));
        // Equal content under another fingerprint is not searched.
        let d = interner.intern(2, vec![1, 2, 3]);
        assert!(!Arc::ptr_eq(&a, &d));
    }

    #[test]
    fn entries_are_weak_and_dead_fingerprints_are_swept() {
        let interner = Interner::default();
        let first = interner.intern(0usize, 0usize);
        let weak = Arc::downgrade(&first);
        drop(first);
        assert!(weak.upgrade().is_none(), "the interner kept a copy alive");
        // A fresh build of the dropped content is a new copy.
        let again = interner.intern(0, 0);
        assert_eq!(*again, 0);
        for k in 1..=4 * SWEEP_FLOOR {
            drop(interner.intern(k, k));
        }
        let entries = interner.entries.lock().unwrap();
        assert!(
            entries.by_key.len() <= 2 * SWEEP_FLOOR + 1,
            "{} fingerprints kept for one live copy",
            entries.by_key.len()
        );
    }
}
