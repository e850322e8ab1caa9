//! Timestamps and durations of the timed asynchronous system model.
//!
//! The model distinguishes two notions of local time:
//!
//! * [`HwTime`] — the reading of a process's *hardware clock*: monotone,
//!   drifting (bounded by ρ), never adjusted, and *unsynchronized* across
//!   processes.
//! * [`SyncTime`] — the reading of the *synchronized* (logical) clock built
//!   by the fail-aware clock synchronization protocol. When a process is
//!   synchronized, its `SyncTime` deviates from any other synchronized
//!   process's by at most ε. All protocol timestamps (decision send
//!   timestamps, slot boundaries, message validity windows) are `SyncTime`.
//!
//! Both are microsecond counts in `i64`, which covers ±292 000 years —
//! plenty for simulation and deployment alike.

// tw-lint: allow-file(float-state) -- f64 appears only in as_*_f64 display/metrics
// conversions; all protocol arithmetic stays in integral microseconds.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

macro_rules! impl_instant {
    ($name:ident, $doc:literal) => {
        #[doc = $doc]
        #[derive(
            Debug,
            Clone,
            Copy,
            PartialEq,
            Eq,
            PartialOrd,
            Ord,
            Hash,
            Serialize,
            Deserialize,
            Default,
        )]
        pub struct $name(pub i64);

        impl $name {
            /// The origin of this time base.
            pub const ZERO: $name = $name(0);
            /// Largest representable instant (useful as "never" deadline).
            pub const MAX: $name = $name(i64::MAX);

            /// Construct from whole microseconds.
            #[inline]
            pub const fn from_micros(us: i64) -> Self {
                $name(us)
            }

            /// Construct from whole milliseconds.
            #[inline]
            pub const fn from_millis(ms: i64) -> Self {
                $name(ms * 1_000)
            }

            /// This instant as microseconds since the origin.
            #[inline]
            pub const fn as_micros(self) -> i64 {
                self.0
            }

            /// The earlier of two instants.
            #[inline]
            pub fn min(self, other: Self) -> Self {
                if self <= other {
                    self
                } else {
                    other
                }
            }

            /// The later of two instants.
            #[inline]
            pub fn max(self, other: Self) -> Self {
                if self >= other {
                    self
                } else {
                    other
                }
            }

            /// Duration elapsed since `earlier` (may be negative).
            #[inline]
            pub fn since(self, earlier: Self) -> Duration {
                Duration(self.0 - earlier.0)
            }
        }

        impl Add<Duration> for $name {
            type Output = $name;
            #[inline]
            fn add(self, d: Duration) -> $name {
                $name(self.0 + d.0)
            }
        }

        impl AddAssign<Duration> for $name {
            #[inline]
            fn add_assign(&mut self, d: Duration) {
                self.0 += d.0;
            }
        }

        impl Sub<Duration> for $name {
            type Output = $name;
            #[inline]
            fn sub(self, d: Duration) -> $name {
                $name(self.0 - d.0)
            }
        }

        impl SubAssign<Duration> for $name {
            #[inline]
            fn sub_assign(&mut self, d: Duration) {
                self.0 -= d.0;
            }
        }

        impl Sub<$name> for $name {
            type Output = Duration;
            #[inline]
            fn sub(self, other: $name) -> Duration {
                Duration(self.0 - other.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}us", self.0)
            }
        }
    };
}

impl_instant!(
    HwTime,
    "An instant on a process's local *hardware* clock (unsynchronized)."
);
impl_instant!(
    SyncTime,
    "An instant on the *synchronized* clock provided by fail-aware clock sync."
);

/// A span of time in microseconds. Shared between both time bases; the
/// small (bounded by ρ and ε) discrepancies between bases are accounted
/// for explicitly in the protocol constants, not in the type system.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct Duration(pub i64);

impl Duration {
    /// The zero-length span.
    pub const ZERO: Duration = Duration(0);
    /// Largest representable span.
    pub const MAX: Duration = Duration(i64::MAX);

    /// Construct from whole microseconds.
    #[inline]
    pub const fn from_micros(us: i64) -> Self {
        Duration(us)
    }

    /// Construct from whole milliseconds.
    #[inline]
    pub const fn from_millis(ms: i64) -> Self {
        Duration(ms * 1_000)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: i64) -> Self {
        Duration(s * 1_000_000)
    }

    /// This span in whole microseconds.
    #[inline]
    pub const fn as_micros(self) -> i64 {
        self.0
    }

    /// This span in (fractional) milliseconds.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// This span in (fractional) seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// The smaller of two spans.
    #[inline]
    pub fn min(self, other: Self) -> Self {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// The larger of two spans.
    #[inline]
    pub fn max(self, other: Self) -> Self {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl Add for Duration {
    type Output = Duration;
    #[inline]
    fn add(self, d: Duration) -> Duration {
        Duration(self.0 + d.0)
    }
}

impl AddAssign for Duration {
    #[inline]
    fn add_assign(&mut self, d: Duration) {
        self.0 += d.0;
    }
}

impl Sub for Duration {
    type Output = Duration;
    #[inline]
    fn sub(self, d: Duration) -> Duration {
        Duration(self.0 - d.0)
    }
}

impl SubAssign for Duration {
    #[inline]
    fn sub_assign(&mut self, d: Duration) {
        self.0 -= d.0;
    }
}

impl Mul<i64> for Duration {
    type Output = Duration;
    #[inline]
    fn mul(self, k: i64) -> Duration {
        Duration(self.0 * k)
    }
}

impl Div<i64> for Duration {
    type Output = Duration;
    #[inline]
    fn div(self, k: i64) -> Duration {
        Duration(self.0 / k)
    }
}

impl Neg for Duration {
    type Output = Duration;
    #[inline]
    fn neg(self) -> Duration {
        Duration(-self.0)
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.abs() >= 1_000_000 && self.0 % 1_000 == 0 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0.abs() >= 1_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else {
            write!(f, "{}us", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instant_duration_arithmetic() {
        let t = SyncTime::from_millis(5);
        let d = Duration::from_millis(2);
        assert_eq!(t + d, SyncTime::from_millis(7));
        assert_eq!(t - d, SyncTime::from_millis(3));
        assert_eq!((t + d) - t, d);
        assert_eq!(t.since(t + d), -d);
    }

    #[test]
    fn duration_scaling() {
        let d = Duration::from_micros(300);
        assert_eq!(d * 4, Duration::from_micros(1200));
        assert_eq!((d * 4) / 2, Duration::from_micros(600));
    }

    #[test]
    fn min_max() {
        let a = SyncTime(4);
        let b = SyncTime(9);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
        assert_eq!(Duration(1).max(Duration(5)), Duration(5));
        assert_eq!(Duration(1).min(Duration(5)), Duration(1));
    }

    #[test]
    fn conversions() {
        assert_eq!(Duration::from_secs(1).as_micros(), 1_000_000);
        assert_eq!(Duration::from_millis(1).as_micros(), 1_000);
        assert!((Duration::from_micros(1_500).as_millis_f64() - 1.5).abs() < 1e-12);
        assert_eq!(HwTime::from_millis(3).as_micros(), 3_000);
    }

    #[test]
    fn display() {
        assert_eq!(Duration::from_micros(12).to_string(), "12us");
        assert_eq!(Duration::from_micros(1500).to_string(), "1.500ms");
        assert_eq!(Duration::from_secs(2).to_string(), "2.000s");
        assert_eq!(SyncTime(7).to_string(), "7us");
    }

    #[test]
    fn hw_and_sync_are_distinct_types() {
        // Purely a compile-shape test: since() stays within one base.
        let h = HwTime::from_micros(10);
        let s = SyncTime::from_micros(10);
        assert_eq!(h.since(HwTime::ZERO), Duration(10));
        assert_eq!(s.since(SyncTime::ZERO), Duration(10));
    }
}
