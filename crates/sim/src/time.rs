//! Simulated time.
//!
//! The study runs on a virtual clock that starts at the moment the campaigns
//! are launched (the paper launched all campaigns on March 12, 2014). Time is
//! kept as whole seconds since that epoch in a [`SimTime`], and spans between
//! instants are [`SimDuration`]s. Both are plain `u64`s underneath, so clock
//! arithmetic is exact and the event queue ordering is total.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Rem, Sub, SubAssign};

/// An instant on the simulation clock, in whole seconds since the study epoch.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct SimTime(u64);

/// A span between two [`SimTime`]s, in whole seconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct SimDuration(u64);

impl SimDuration {
    /// The empty span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// One second.
    pub const SECOND: SimDuration = SimDuration(1);
    /// One minute.
    pub const MINUTE: SimDuration = SimDuration(60);
    /// One hour — the crawler granularity unit.
    pub const HOUR: SimDuration = SimDuration(3_600);
    /// One day — the budget-pacing unit.
    pub const DAY: SimDuration = SimDuration(86_400);
    /// One week — the crawler's stop-after-quiet threshold.
    pub const WEEK: SimDuration = SimDuration(7 * 86_400);

    /// A span of `n` seconds.
    pub const fn secs(n: u64) -> Self {
        SimDuration(n)
    }

    /// A span of `n` minutes.
    pub const fn minutes(n: u64) -> Self {
        SimDuration(n * 60)
    }

    /// A span of `n` hours.
    pub const fn hours(n: u64) -> Self {
        SimDuration(n * 3_600)
    }

    /// A span of `n` days.
    pub const fn days(n: u64) -> Self {
        SimDuration(n * 86_400)
    }

    /// The span as whole seconds.
    pub const fn as_secs(self) -> u64 {
        self.0
    }

    /// The span as fractional hours.
    pub fn as_hours_f64(self) -> f64 {
        self.0 as f64 / 3_600.0
    }

    /// The span as fractional days.
    pub fn as_days_f64(self) -> f64 {
        self.0 as f64 / 86_400.0
    }

    /// True when the span is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub const fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// Scale the span by a non-negative factor, rounding to whole seconds.
    ///
    /// # Panics
    /// Panics when `factor` is negative or not finite.
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "duration scale factor must be finite and non-negative, got {factor}"
        );
        SimDuration((self.0 as f64 * factor).round() as u64)
    }
}

impl SimTime {
    /// The study epoch (campaign launch).
    pub const EPOCH: SimTime = SimTime(0);

    /// The instant `n` seconds after the epoch.
    pub const fn from_secs(n: u64) -> Self {
        SimTime(n)
    }

    /// The instant at the start of day `n` (day 0 is launch day).
    pub const fn at_day(n: u64) -> Self {
        SimTime(n * 86_400)
    }

    /// Seconds since the epoch.
    pub const fn as_secs(self) -> u64 {
        self.0
    }

    /// Which whole day this instant falls in (day 0 is launch day).
    pub const fn day(self) -> u64 {
        self.0 / 86_400
    }

    /// Fractional days since the epoch; this is the x-axis of Figure 2.
    pub fn as_days_f64(self) -> f64 {
        self.0 as f64 / 86_400.0
    }

    /// Span since an earlier instant.
    ///
    /// # Panics
    /// Panics when `earlier` is after `self`.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        // lint:allow(panic-reachable-from-serve): documented panic; serve's callers, the online burst streams, compare within a sorted vector, earlier index first
        assert!(
            earlier.0 <= self.0,
            "since() called with a later instant: {earlier} > {self}"
        );
        SimDuration(self.0 - earlier.0)
    }

    /// Span since an earlier instant, zero when `earlier` is in the future.
    pub const fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// The later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// The earlier of two instants.
    pub fn min(self, other: SimTime) -> SimTime {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    // Like integer `-` with overflow checks: a negative duration is a bug
    // in the caller, and `saturating_sub` is the form that clamps.
    #[allow(clippy::expect_used)]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("duration subtraction underflow"),
        )
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Div<SimDuration> for SimDuration {
    type Output = u64;
    fn div(self, rhs: SimDuration) -> u64 {
        self.0 / rhs.0
    }
}

impl Rem<SimDuration> for SimDuration {
    type Output = SimDuration;
    fn rem(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 % rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let day = self.0 / 86_400;
        let rem = self.0 % 86_400;
        let (h, m, s) = (rem / 3_600, (rem % 3_600) / 60, rem % 60);
        write!(f, "d{day}+{h:02}:{m:02}:{s:02}")
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimTime({self})")
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let d = self.0 / 86_400;
        let rem = self.0 % 86_400;
        let (h, m, s) = (rem / 3_600, (rem % 3_600) / 60, rem % 60);
        if d > 0 {
            write!(f, "{d}d{h:02}h{m:02}m{s:02}s")
        } else if h > 0 {
            write!(f, "{h}h{m:02}m{s:02}s")
        } else if m > 0 {
            write!(f, "{m}m{s:02}s")
        } else {
            write!(f, "{s}s")
        }
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimDuration({self})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn day_arithmetic_is_exact() {
        let t = SimTime::at_day(3) + SimDuration::hours(5);
        assert_eq!(t.day(), 3);
        assert_eq!(t.as_secs(), 3 * 86_400 + 5 * 3_600);
        assert_eq!((t + SimDuration::hours(19)).day(), 4);
    }

    #[test]
    fn since_measures_spans() {
        let a = SimTime::at_day(1);
        let b = SimTime::at_day(2) + SimDuration::minutes(30);
        assert_eq!(b.since(a), SimDuration::secs(86_400 + 1_800));
        assert_eq!(b - a, b.since(a));
    }

    #[test]
    #[should_panic(expected = "later instant")]
    fn since_panics_on_inverted_order() {
        let _ = SimTime::EPOCH.since(SimTime::at_day(1));
    }

    #[test]
    fn saturating_since_clamps() {
        assert_eq!(
            SimTime::EPOCH.saturating_since(SimTime::at_day(1)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn duration_units_compose() {
        assert_eq!(SimDuration::days(1), SimDuration::hours(24));
        assert_eq!(SimDuration::hours(1), SimDuration::minutes(60));
        assert_eq!(SimDuration::minutes(1), SimDuration::secs(60));
        assert_eq!(SimDuration::WEEK, SimDuration::days(7));
    }

    #[test]
    fn duration_division_counts_periods() {
        assert_eq!(SimDuration::days(15) / SimDuration::hours(2), 180);
        assert_eq!(
            SimDuration::days(1) % SimDuration::hours(7),
            SimDuration::hours(3)
        );
    }

    #[test]
    fn mul_f64_rounds() {
        assert_eq!(SimDuration::secs(10).mul_f64(0.25), SimDuration::secs(3));
        assert_eq!(SimDuration::DAY.mul_f64(0.5), SimDuration::hours(12));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn mul_f64_rejects_negative() {
        let _ = SimDuration::DAY.mul_f64(-1.0);
    }

    #[test]
    fn display_formats() {
        let t = SimTime::at_day(2) + SimDuration::hours(4) + SimDuration::minutes(5);
        assert_eq!(t.to_string(), "d2+04:05:00");
        assert_eq!(SimDuration::secs(42).to_string(), "42s");
        assert_eq!(SimDuration::minutes(3).to_string(), "3m00s");
        assert_eq!(SimDuration::hours(2).to_string(), "2h00m00s");
        assert_eq!(
            (SimDuration::days(1) + SimDuration::secs(1)).to_string(),
            "1d00h00m01s"
        );
    }

    #[test]
    fn min_max_pick_endpoints() {
        let a = SimTime::at_day(1);
        let b = SimTime::at_day(2);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(a), a);
    }

    #[test]
    fn fractional_day_axis() {
        let t = SimTime::at_day(1) + SimDuration::hours(12);
        assert!((t.as_days_f64() - 1.5).abs() < 1e-12);
        assert!((SimDuration::hours(36).as_days_f64() - 1.5).abs() < 1e-12);
        assert!((SimDuration::minutes(90).as_hours_f64() - 1.5).abs() < 1e-12);
    }
}
