//! Sequence algebra: the `σ̂` prefix-sum operator and feasibility margins.
//!
//! Definition 2.2 of the paper: a schedule `α` is feasible with respect to
//! execution times `C` and deadlines `D` iff `min(D(α) − Ĉ(α)) ≥ 0`, where
//! `σ̂(i) = Σ_{j≤i} σ(j)`.
//!
//! The [`LineEnvelope`]/[`EnvelopeBuilder`] pair at the bottom of this
//! module is the geometric core of the budget-parametric tables in
//! `fgqos-sched`. Because an online profile refresh only moves line
//! *intercepts* (slopes are schedule structure), the builder supports a
//! zero-allocation refresh cycle: [`EnvelopeBuilder::clear`] retains the
//! hull buffer and [`EnvelopeBuilder::snapshot_into`] re-hulls into an
//! existing envelope in O(hull size) without touching the heap once the
//! target buffers have warmed up.

use crate::{Cycles, Slack};

/// The `σ̂` operator: running prefix sums of a duration sequence.
///
/// # Example
///
/// ```
/// use fgqos_time::{Cycles, series::prefix_sums};
///
/// let c = [3u64, 4, 5].map(Cycles::new);
/// let hat = prefix_sums(&c);
/// assert_eq!(hat, vec![Cycles::new(3), Cycles::new(7), Cycles::new(12)]);
/// ```
#[must_use]
pub fn prefix_sums(durations: &[Cycles]) -> Vec<Cycles> {
    let mut acc = Cycles::ZERO;
    durations
        .iter()
        .map(|&c| {
            acc += c;
            acc
        })
        .collect()
}

/// `min(D(α) − Ĉ(α))`: the minimal margin of a schedule, as a signed
/// [`Slack`].
///
/// Returns [`Slack::INFINITY`] for the empty sequence (nothing to violate).
///
/// # Panics
///
/// Panics if the two slices have different lengths.
#[must_use]
pub fn min_slack(deadlines: &[Cycles], durations: &[Cycles]) -> Slack {
    assert_eq!(
        deadlines.len(),
        durations.len(),
        "deadline and duration sequences must align"
    );
    let mut acc = Cycles::ZERO;
    let mut worst = Slack::INFINITY;
    for (&d, &c) in deadlines.iter().zip(durations) {
        acc += c;
        worst = worst.min(d.slack_from(acc));
    }
    worst
}

/// Definition 2.2: whether the schedule respects every deadline under the
/// given execution times.
///
/// # Panics
///
/// Panics if the two slices have different lengths.
#[must_use]
pub fn is_feasible(deadlines: &[Cycles], durations: &[Cycles]) -> bool {
    min_slack(deadlines, durations).is_nonnegative()
}

/// Like [`min_slack`] but with the accumulation started at `offset` (the
/// time already consumed before the first listed action). Used for
/// suffix-feasibility checks from a controller state at elapsed time
/// `t = offset`.
///
/// # Panics
///
/// Panics if the two slices have different lengths.
#[must_use]
pub fn min_slack_from(offset: Cycles, deadlines: &[Cycles], durations: &[Cycles]) -> Slack {
    assert_eq!(
        deadlines.len(),
        durations.len(),
        "deadline and duration sequences must align"
    );
    let mut acc = offset;
    let mut worst = Slack::INFINITY;
    for (&d, &c) in deadlines.iter().zip(durations) {
        acc += c;
        worst = worst.min(d.slack_from(acc));
    }
    worst
}

/// Suffix margin table: `out[i] = min_{j ≥ i} (D(j) − Σ_{k=i..=j} C(k))`.
///
/// `out[i]` is the largest elapsed time `t` at which the suffix starting at
/// position `i` can still begin and meet all its deadlines — exactly the
/// right-hand side of the `Qual_Const` predicates of Section 2.2. Computed
/// in one reverse sweep using
/// `out[i] = min(D(i), out[i+1]) − C(i)`.
///
/// Returns a table of length `n + 1` with `out[n] = +∞` (empty suffix).
///
/// # Panics
///
/// Panics if the two slices have different lengths.
#[must_use]
pub fn suffix_budgets(deadlines: &[Cycles], durations: &[Cycles]) -> Vec<Slack> {
    assert_eq!(
        deadlines.len(),
        durations.len(),
        "deadline and duration sequences must align"
    );
    let n = deadlines.len();
    let mut out = vec![Slack::INFINITY; n + 1];
    for i in (0..n).rev() {
        let d_i = if deadlines[i].is_infinite() {
            Slack::INFINITY
        } else {
            Slack::new(i128::from(deadlines[i].get()))
        };
        out[i] = d_i.min(out[i + 1]).minus(durations[i]);
    }
    out
}

/// Lower envelope of integer lines `y = m·x + c` over `x ≥ 0`.
///
/// The budget-parametric constraint tables of `fgqos-sched` express each
/// suffix budget as `min_j (m_j · b − c_j)` over the frame budget `b` —
/// a lower envelope of lines with integer slopes and intercepts. This
/// type precomputes that envelope once (exact integer comparisons, no
/// floats, no divisions) and evaluates it per query in
/// `O(log segments)`.
///
/// Queries are restricted to `x ≥ 0`; lines that are never minimal on
/// that domain are discarded at construction.
///
/// # Numeric range
///
/// Construction compares lines by cross-multiplication in `i128`: with
/// `S` the slope range and `C` the intercept magnitude bound, products
/// stay exact while `S · C < 2¹²⁶` — comfortably true for cycle-domain
/// tables (slopes are iteration counts, intercepts are scaled prefix
/// sums of execution times).
///
/// # Example
///
/// ```
/// use fgqos_time::series::LineEnvelope;
///
/// // y = 3x  and  y = x + 6: the steeper line wins until x = 3.
/// let env = LineEnvelope::lower(vec![(3, 0), (1, 6)]);
/// assert_eq!(env.eval(0), Some(0));
/// assert_eq!(env.eval(2), Some(6));
/// assert_eq!(env.eval(3), Some(9));
/// assert_eq!(env.eval(10), Some(16));
/// assert_eq!(env.segments(), 2);
/// assert_eq!(LineEnvelope::lower(vec![]).eval(7), None);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineEnvelope {
    /// Hull lines `(slope, intercept)` in coverage order for increasing
    /// `x` (slopes strictly decreasing, intercepts strictly increasing).
    lines: Vec<(i128, i128)>,
}

impl LineEnvelope {
    /// Builds the lower envelope of `lines` (`(slope, intercept)` pairs)
    /// over `x ≥ 0`. Duplicate slopes keep the smallest intercept; an
    /// empty input yields the empty envelope (`eval` returns `None`,
    /// i.e. "+∞").
    #[must_use]
    pub fn lower(mut lines: Vec<(i128, i128)>) -> Self {
        // Coverage order for a minimum over x >= 0: steepest line first
        // (it can only win near x = 0), shallowest last (it wins as
        // x -> ∞). Ties on slope resolved by keeping the lowest line.
        lines.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        lines.dedup_by_key(|l| l.0);
        let mut b = EnvelopeBuilder::new();
        for (m, c) in lines {
            b.push_shallower(m, c);
        }
        b.snapshot()
    }

    /// Evaluates `min_j (m_j · x + c_j)` at `x`, or `None` for the empty
    /// envelope (the minimum over no lines, i.e. `+∞`).
    #[must_use]
    pub fn eval(&self, x: u64) -> Option<i128> {
        let at = |(m, c): (i128, i128)| m * i128::from(x) + c;
        // Along the hull, line `j + 1` is not above line `j` exactly
        // when `x` is at or past their crossing (slopes fall, so their
        // difference grows with `x`), and the crossings rise along the
        // hull. So that test holds for a prefix of the pairs, and the
        // line right after that prefix is the one minimal at `x`.
        let (mut lo, mut hi) = (0, self.lines.len().checked_sub(1)?);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if at(self.lines[mid + 1]) <= at(self.lines[mid]) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        Some(at(self.lines[lo]))
    }

    /// Number of envelope segments after construction.
    #[must_use]
    pub fn segments(&self) -> usize {
        self.lines.len()
    }

    /// Whether the envelope contains no lines (evaluates to `+∞`).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }

    /// Approximate resident size in bytes (diagnostics).
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        self.lines.len() * std::mem::size_of::<(i128, i128)>()
    }
}

/// Incremental lower-envelope construction for lines arriving in
/// *non-increasing slope* order.
///
/// The budget-parametric tables need one envelope per suffix of a
/// deadline-class sequence; when the classes arrive shallowest-last
/// (every sequential schedule does), each suffix envelope is a prefix
/// run of the same monotone-hull algorithm, so a single builder with an
/// O(hull) [`EnvelopeBuilder::snapshot`] per step replaces a from-scratch
/// `O(k log k)` build per suffix.
///
/// # Example
///
/// ```
/// use fgqos_time::series::{EnvelopeBuilder, LineEnvelope};
///
/// let mut b = EnvelopeBuilder::new();
/// b.push_shallower(3, 0);
/// b.push_shallower(1, 6);
/// assert_eq!(b.snapshot(), LineEnvelope::lower(vec![(3, 0), (1, 6)]));
/// ```
#[derive(Debug, Clone, Default)]
pub struct EnvelopeBuilder {
    hull: Vec<(i128, i128)>,
}

impl EnvelopeBuilder {
    /// An empty builder.
    #[must_use]
    pub fn new() -> Self {
        EnvelopeBuilder::default()
    }

    /// Adds a line whose slope is less than or equal to every slope
    /// pushed before (equal slopes keep the lower line). Amortized O(1).
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the slope ordering contract is
    /// violated — the resulting envelope would be wrong.
    pub fn push_shallower(&mut self, m: i128, c: i128) {
        debug_assert!(
            self.hull.last().is_none_or(|&(mt, _)| m <= mt),
            "push_shallower requires non-increasing slopes"
        );
        if let Some(&(mt, ct)) = self.hull.last() {
            if mt == m {
                if ct <= c {
                    return; // existing equal-slope line is not above
                }
                self.hull.pop();
            }
        }
        loop {
            match self.hull.len() {
                0 => break,
                1 => {
                    // A steeper line with an intercept that is not
                    // smaller is never minimal on x >= 0.
                    if self.hull[0].1 >= c {
                        self.hull.pop();
                    } else {
                        break;
                    }
                }
                _ => {
                    let (mu, cu) = self.hull[self.hull.len() - 2];
                    let (mt, ct) = self.hull[self.hull.len() - 1];
                    // The top line T is useless if the new line L
                    // overtakes U no later than T does:
                    //   (c_L − c_U)/(m_U − m_L) ≤ (c_T − c_U)/(m_U − m_T)
                    // cross-multiplied (both denominators positive).
                    if (c - cu) * (mu - mt) <= (ct - cu) * (mu - m) {
                        self.hull.pop();
                    } else {
                        break;
                    }
                }
            }
        }
        self.hull.push((m, c));
    }

    /// The envelope over every line pushed so far. O(hull size).
    #[must_use]
    pub fn snapshot(&self) -> LineEnvelope {
        let mut out = LineEnvelope { lines: Vec::new() };
        self.snapshot_into(&mut out);
        out
    }

    /// Writes the envelope over every line pushed so far into `out`,
    /// reusing its line buffer. O(hull size) copies,
    /// allocation-free once `out` has capacity — the intercept-refresh
    /// fast path of the budget-parametric tables.
    pub fn snapshot_into(&self, out: &mut LineEnvelope) {
        out.lines.clear();
        out.lines.extend_from_slice(&self.hull);
    }

    /// Empties the builder for a fresh sequence of lines, retaining the
    /// buffers' capacity.
    pub fn clear(&mut self) {
        self.hull.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_sums_of_empty_is_empty() {
        assert!(prefix_sums(&[]).is_empty());
    }

    #[test]
    fn min_slack_basic() {
        let d = [10u64, 20].map(Cycles::new);
        let c = [4u64, 5].map(Cycles::new);
        // completions: 4, 9 -> slacks 6, 11 -> min 6
        assert_eq!(min_slack(&d, &c), Slack::new(6));
        assert!(is_feasible(&d, &c));
    }

    #[test]
    fn min_slack_detects_miss() {
        let d = [10u64, 12].map(Cycles::new);
        let c = [4u64, 9].map(Cycles::new);
        // completions: 4, 13 -> slacks 6, -1
        assert_eq!(min_slack(&d, &c), Slack::new(-1));
        assert!(!is_feasible(&d, &c));
    }

    #[test]
    fn infinite_deadlines_never_bind() {
        let d = [Cycles::INFINITY, Cycles::new(100)];
        let c = [Cycles::new(60), Cycles::new(30)];
        assert_eq!(min_slack(&d, &c), Slack::new(10));
    }

    #[test]
    fn empty_schedule_is_feasible() {
        assert_eq!(min_slack(&[], &[]), Slack::INFINITY);
        assert!(is_feasible(&[], &[]));
    }

    #[test]
    fn offset_shifts_all_completions() {
        let d = [10u64, 20].map(Cycles::new);
        let c = [4u64, 5].map(Cycles::new);
        assert_eq!(min_slack_from(Cycles::new(3), &d, &c), Slack::new(3));
        assert_eq!(min_slack_from(Cycles::new(7), &d, &c), Slack::new(-1));
    }

    #[test]
    fn suffix_budgets_match_direct_evaluation() {
        let d = [10u64, 20, 25].map(Cycles::new);
        let c = [4u64, 5, 6].map(Cycles::new);
        let table = suffix_budgets(&d, &c);
        // Direct: budget[i] = max t with min_slack_from(t, d[i..], c[i..]) >= 0
        for i in 0..3 {
            let b = table[i];
            let t_ok = Cycles::new(u64::try_from(b.get()).unwrap());
            assert!(
                min_slack_from(t_ok, &d[i..], &c[i..]).is_nonnegative(),
                "budget at {i} must admit itself"
            );
            let t_bad = Cycles::new(u64::try_from(b.get()).unwrap() + 1);
            assert!(
                !min_slack_from(t_bad, &d[i..], &c[i..]).is_nonnegative(),
                "budget at {i} must be tight"
            );
        }
        assert_eq!(table[3], Slack::INFINITY);
    }

    #[test]
    fn suffix_budgets_with_infinite_deadlines() {
        let d = [Cycles::INFINITY, Cycles::new(10)];
        let c = [Cycles::new(3), Cycles::new(4)];
        let table = suffix_budgets(&d, &c);
        assert_eq!(table[1], Slack::new(6));
        assert_eq!(table[0], Slack::new(3));
        let d = [Cycles::INFINITY, Cycles::INFINITY];
        let table = suffix_budgets(&d, &c);
        assert_eq!(table[0], Slack::INFINITY);
    }

    #[test]
    fn suffix_budget_can_be_negative() {
        let d = [Cycles::new(2)];
        let c = [Cycles::new(5)];
        let table = suffix_budgets(&d, &c);
        assert_eq!(table[0], Slack::new(-3));
    }

    #[test]
    #[should_panic(expected = "must align")]
    fn mismatched_lengths_panic() {
        let _ = min_slack(&[Cycles::new(1)], &[]);
    }

    /// Brute-force minimum over the raw line set.
    fn direct_min(lines: &[(i128, i128)], x: u64) -> Option<i128> {
        lines.iter().map(|&(m, c)| m * i128::from(x) + c).min()
    }

    #[test]
    fn envelope_matches_direct_minimum() {
        let cases: Vec<Vec<(i128, i128)>> = vec![
            vec![],
            vec![(5, -3)],
            vec![(3, 0), (1, 6)],
            vec![(4, 0), (3, 1), (2, 10), (1, 100)],
            // Dominated and duplicate-slope lines.
            vec![(2, 5), (2, -1), (3, -1), (1, -2)],
            // Negative intercepts of mixed magnitude.
            vec![(7, -1000), (5, -900), (2, -10), (1, 0)],
            // Collinear-ish integer switch points.
            vec![(3, 0), (2, 2), (1, 4)],
        ];
        let xs = [0u64, 1, 2, 3, 5, 7, 100, 1_000_000, u64::MAX - 1];
        for lines in &cases {
            let env = LineEnvelope::lower(lines.clone());
            for &x in &xs {
                assert_eq!(
                    env.eval(x),
                    direct_min(lines, x),
                    "envelope disagrees with direct min for {lines:?} at x={x}"
                );
            }
        }
    }

    #[test]
    fn envelope_discards_useless_lines() {
        // (2, 5) is dominated by (2, -1); (10, 7) never wins on x >= 0.
        let env = LineEnvelope::lower(vec![(2, 5), (2, -1), (10, 7), (1, 0)]);
        assert!(env.segments() <= 2);
        assert!(!env.is_empty());
        assert!(env.memory_bytes() > 0);
    }

    #[test]
    fn snapshot_into_reuses_buffers_and_matches_snapshot() {
        let mut b = EnvelopeBuilder::new();
        let mut reused = LineEnvelope::lower(vec![]);
        for round in 0..3i128 {
            b.clear();
            // Intercepts move between rounds (the refresh scenario);
            // slopes stay fixed.
            for (m, c) in [(4, 0), (3, 1 + round), (2, 10 - round), (1, 100)] {
                b.push_shallower(m, c);
            }
            b.snapshot_into(&mut reused);
            assert_eq!(reused, b.snapshot(), "round {round}");
            for x in [0u64, 1, 3, 7, 1_000] {
                assert_eq!(reused.eval(x), b.snapshot().eval(x));
            }
        }
    }

    #[test]
    fn envelope_handles_huge_budgets_exactly() {
        // Slopes/intercepts shaped like per-iteration deadline terms at a
        // near-overflow budget: exact i128 evaluation, no wrapping.
        let n = 12i128;
        let lines: Vec<(i128, i128)> = (1..=n).map(|m| (m, -m * 1_000_000)).collect();
        let env = LineEnvelope::lower(lines.clone());
        for &x in &[u64::MAX / 2, u64::MAX / 2 + 3, u64::MAX - 1] {
            assert_eq!(env.eval(x), direct_min(&lines, x));
        }
    }
}
