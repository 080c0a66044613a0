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

/// A point in simulated time (or a duration), in seconds.
///
/// Invariants: the inner value is finite and never NaN. All constructors
/// enforce this; arithmetic that would produce NaN panics in debug builds and
/// saturates to zero in release builds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SimTime(f64);

impl SimTime {
    /// The zero time / zero duration.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Creates a time from a number of seconds.
    ///
    /// # Panics
    /// Panics if `secs` is NaN or infinite.
    #[inline]
    pub fn from_secs(secs: f64) -> Self {
        assert!(secs.is_finite(), "SimTime must be finite, got {secs}");
        SimTime(secs)
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
        assert!(format!("{}", SimTime::from_secs(2.5 * 3600.0)).starts_with("2h"));
    }

    #[test]
    fn only_zero_is_zero() {
        assert!(SimTime::ZERO.is_zero());
        assert!(!SimTime::from_secs(0.1).is_zero());
    }
}
