//! The cycle-count time domain `R+ ∪ {+∞}` and signed slack values.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub};

/// A duration or instant measured in CPU cycles, in `N ∪ {+∞}`.
///
/// The paper's execution-time and deadline functions map into
/// `R+ ∪ {+∞}` (Definition 2.1); the experimental platform counts discrete
/// CPU cycles, so the carrier here is `u64` with [`Cycles::INFINITY`] as the
/// absorbing top element. All arithmetic saturates: `INFINITY + x` and
/// `INFINITY - x` stay infinite, finite subtraction floors at zero (use
/// [`Slack`] when a signed margin is needed).
///
/// # Example
///
/// ```
/// use fgqos_time::Cycles;
///
/// let t = Cycles::new(100) + Cycles::new(20);
/// assert_eq!(t, Cycles::new(120));
/// assert!(Cycles::INFINITY > t);
/// assert!((Cycles::INFINITY - t).is_infinite());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycles(u64);

impl Cycles {
    /// Zero cycles.
    pub const ZERO: Cycles = Cycles(0);
    /// The absorbing `+∞` element (deadlines of unconstrained actions).
    pub const INFINITY: Cycles = Cycles(u64::MAX);
    /// One megacycle, the unit of the paper's figures (`Mcycle`).
    pub const MEGA: Cycles = Cycles(1_000_000);

    /// Creates a finite cycle count.
    ///
    /// # Panics
    ///
    /// Panics if `value == u64::MAX`, which is reserved for
    /// [`Cycles::INFINITY`]; use that constant explicitly instead.
    #[must_use]
    pub fn new(value: u64) -> Self {
        assert!(
            value != u64::MAX,
            "u64::MAX is reserved for Cycles::INFINITY"
        );
        Cycles(value)
    }

    /// Creates a cycle count from megacycles.
    #[must_use]
    pub fn mega(mcycles: u64) -> Self {
        Cycles::new(mcycles * 1_000_000)
    }

    /// The raw count. [`Cycles::INFINITY`] reports `u64::MAX`.
    #[must_use]
    pub fn get(self) -> u64 {
        self.0
    }

    /// Whether this is the `+∞` element.
    #[must_use]
    pub fn is_infinite(self) -> bool {
        self.0 == u64::MAX
    }

    /// Whether this is a finite count.
    #[must_use]
    pub fn is_finite(self) -> bool {
        !self.is_infinite()
    }

    /// Saturating multiplication by a scalar (infinity is absorbing).
    #[must_use]
    pub fn saturating_mul(self, k: u64) -> Self {
        if self.is_infinite() {
            return self;
        }
        match self.0.checked_mul(k) {
            Some(v) if v != u64::MAX => Cycles(v),
            _ => Cycles::INFINITY,
        }
    }

    /// Minimum of two values.
    #[must_use]
    pub fn min(self, other: Self) -> Self {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Maximum of two values.
    #[must_use]
    pub fn max(self, other: Self) -> Self {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Signed margin `self − other` as a [`Slack`].
    ///
    /// `INFINITY − x` is [`Slack::INFINITY`] for finite `x`; a finite value
    /// minus `INFINITY` is [`Slack::NEG_INFINITY`].
    #[must_use]
    pub fn slack_from(self, other: Cycles) -> Slack {
        match (self.is_infinite(), other.is_infinite()) {
            (true, false) => Slack::INFINITY,
            (false, true) => Slack::NEG_INFINITY,
            (true, true) => Slack::ZERO, // ∞ − ∞ : treated as no margin either way
            (false, false) => Slack(i128::from(self.0) - i128::from(other.0)),
        }
    }
}

impl Add for Cycles {
    type Output = Cycles;

    fn add(self, rhs: Cycles) -> Cycles {
        if self.is_infinite() || rhs.is_infinite() {
            return Cycles::INFINITY;
        }
        match self.0.checked_add(rhs.0) {
            Some(v) if v != u64::MAX => Cycles(v),
            _ => Cycles::INFINITY,
        }
    }
}

impl AddAssign for Cycles {
    fn add_assign(&mut self, rhs: Cycles) {
        *self = *self + rhs;
    }
}

impl Sub for Cycles {
    type Output = Cycles;

    /// Saturating subtraction: floors at [`Cycles::ZERO`]; `∞ − x = ∞`.
    fn sub(self, rhs: Cycles) -> Cycles {
        if self.is_infinite() {
            return Cycles::INFINITY;
        }
        if rhs.is_infinite() {
            return Cycles::ZERO;
        }
        Cycles(self.0.saturating_sub(rhs.0))
    }
}

impl Sum for Cycles {
    fn sum<I: Iterator<Item = Cycles>>(iter: I) -> Cycles {
        iter.fold(Cycles::ZERO, Add::add)
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_infinite() {
            write!(f, "+inf")
        } else if self.0 >= 1_000_000 && self.0.is_multiple_of(100_000) {
            write!(f, "{}Mcy", self.0 as f64 / 1e6)
        } else {
            write!(f, "{}cy", self.0)
        }
    }
}

/// A signed time margin `D − Ĉ`, in cycles, with `±∞`.
///
/// Slack is the quantity the feasibility criterion of Definition 2.2 and
/// the `Qual_Const` predicates of Section 2.2 compare against the elapsed
/// time `t`: a schedule is feasible iff its minimal slack is non-negative.
///
/// # Example
///
/// ```
/// use fgqos_time::{Cycles, Slack};
///
/// let s = Cycles::new(100).slack_from(Cycles::new(130));
/// assert_eq!(s, Slack::new(-30));
/// assert!(!s.is_nonnegative());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Slack(i128);

impl Slack {
    /// Zero margin.
    pub const ZERO: Slack = Slack(0);
    /// Positive infinity (deadline `+∞`).
    pub const INFINITY: Slack = Slack(i128::MAX);
    /// Negative infinity (infinitely infeasible).
    pub const NEG_INFINITY: Slack = Slack(i128::MIN);

    /// Creates a finite slack.
    #[must_use]
    pub fn new(value: i128) -> Self {
        Slack(value)
    }

    /// The raw signed value.
    #[must_use]
    pub fn get(self) -> i128 {
        self.0
    }

    /// Whether the margin admits execution (`≥ 0`).
    #[must_use]
    pub fn is_nonnegative(self) -> bool {
        self.0 >= 0
    }

    /// Whether the elapsed time `t` satisfies `t ≤ self`, the comparison
    /// performed by the `Qual_Const` predicates.
    #[must_use]
    pub fn admits(self, t: Cycles) -> bool {
        if self == Slack::INFINITY {
            return true;
        }
        if t.is_infinite() {
            return false;
        }
        i128::from(t.get()) <= self.0
    }

    /// Minimum of two slacks.
    #[must_use]
    pub fn min(self, other: Self) -> Self {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Subtracts a (finite or infinite) duration from the margin.
    #[must_use]
    pub fn minus(self, c: Cycles) -> Self {
        if self == Slack::INFINITY {
            return self;
        }
        if self == Slack::NEG_INFINITY || c.is_infinite() {
            return Slack::NEG_INFINITY;
        }
        Slack(self.0 - i128::from(c.get()))
    }
}

impl fmt::Display for Slack {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Slack::INFINITY => write!(f, "+inf"),
            Slack::NEG_INFINITY => write!(f, "-inf"),
            Slack(v) => write!(f, "{v}cy"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addition_saturates_at_infinity() {
        assert_eq!(Cycles::new(1) + Cycles::new(2), Cycles::new(3));
        assert!((Cycles::INFINITY + Cycles::new(5)).is_infinite());
        assert!((Cycles::new(5) + Cycles::INFINITY).is_infinite());
        assert!((Cycles(u64::MAX - 1) + Cycles(u64::MAX - 1)).is_infinite());
    }

    #[test]
    fn subtraction_floors_and_preserves_infinity() {
        assert_eq!(Cycles::new(5) - Cycles::new(7), Cycles::ZERO);
        assert_eq!(Cycles::new(7) - Cycles::new(5), Cycles::new(2));
        assert!((Cycles::INFINITY - Cycles::new(5)).is_infinite());
        assert_eq!(Cycles::new(5) - Cycles::INFINITY, Cycles::ZERO);
    }

    #[test]
    fn new_rejects_reserved_max() {
        let r = std::panic::catch_unwind(|| Cycles::new(u64::MAX));
        assert!(r.is_err());
    }

    #[test]
    fn mega_and_display() {
        assert_eq!(Cycles::mega(320).get(), 320_000_000);
        assert_eq!(Cycles::mega(320).to_string(), "320Mcy");
        assert_eq!(Cycles::new(42).to_string(), "42cy");
        assert_eq!(Cycles::INFINITY.to_string(), "+inf");
    }

    #[test]
    fn sum_of_iterator() {
        let total: Cycles = [1u64, 2, 3].into_iter().map(Cycles::new).sum();
        assert_eq!(total, Cycles::new(6));
        let with_inf: Cycles = [Cycles::new(1), Cycles::INFINITY].into_iter().sum();
        assert!(with_inf.is_infinite());
    }

    #[test]
    fn saturating_mul() {
        assert_eq!(Cycles::new(7).saturating_mul(3), Cycles::new(21));
        assert!(Cycles::new(u64::MAX / 2).saturating_mul(3).is_infinite());
        assert!(Cycles::INFINITY.saturating_mul(0).is_infinite());
    }

    #[test]
    fn slack_signs() {
        assert_eq!(Cycles::new(10).slack_from(Cycles::new(4)), Slack::new(6));
        assert_eq!(Cycles::new(4).slack_from(Cycles::new(10)), Slack::new(-6));
        assert_eq!(Cycles::INFINITY.slack_from(Cycles::new(3)), Slack::INFINITY);
        assert_eq!(
            Cycles::new(3).slack_from(Cycles::INFINITY),
            Slack::NEG_INFINITY
        );
    }

    #[test]
    fn slack_admits_elapsed_time() {
        assert!(Slack::new(100).admits(Cycles::new(100)));
        assert!(Slack::new(100).admits(Cycles::new(99)));
        assert!(!Slack::new(100).admits(Cycles::new(101)));
        assert!(Slack::INFINITY.admits(Cycles::new(u64::MAX - 1)));
        assert!(!Slack::NEG_INFINITY.admits(Cycles::ZERO));
        assert!(Slack::INFINITY.admits(Cycles::INFINITY)); // t=inf admitted only by inf slack
        assert!(!Slack::new(5).admits(Cycles::INFINITY));
    }

    #[test]
    fn slack_minus_duration() {
        assert_eq!(Slack::new(10).minus(Cycles::new(4)), Slack::new(6));
        assert_eq!(Slack::INFINITY.minus(Cycles::new(4)), Slack::INFINITY);
        assert_eq!(Slack::new(10).minus(Cycles::INFINITY), Slack::NEG_INFINITY);
        assert_eq!(Slack::new(3).minus(Cycles::new(5)), Slack::new(-2));
    }

    #[test]
    fn min_max_helpers() {
        assert_eq!(Cycles::new(3).min(Cycles::new(5)), Cycles::new(3));
        assert_eq!(Cycles::new(3).max(Cycles::INFINITY), Cycles::INFINITY);
        assert_eq!(Slack::new(3).min(Slack::NEG_INFINITY), Slack::NEG_INFINITY);
    }
}
