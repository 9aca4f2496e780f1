//! Virtual time for the discrete-event simulation.
//!
//! All latencies in the simulated cluster are expressed in nanoseconds of
//! *virtual* time. Throughput numbers reported by the benchmark harness are
//! committed transactions divided by elapsed virtual time, which makes runs
//! deterministic and independent of host machine speed.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in virtual time, in nanoseconds since simulation start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    pub const ZERO: SimTime = SimTime(0);

    #[inline]
    pub fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    #[inline]
    pub fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    #[inline]
    pub fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    #[inline]
    pub fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    #[inline]
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Saturating difference; useful for spans where clock skew is impossible
    /// but defensive arithmetic keeps invariants simple.
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }

    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }
}

/// A span of virtual time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(pub u64);

impl Duration {
    pub const ZERO: Duration = Duration(0);

    #[inline]
    pub fn from_nanos(ns: u64) -> Self {
        Duration(ns)
    }

    #[inline]
    pub fn from_micros(us: u64) -> Self {
        Duration(us * 1_000)
    }

    #[inline]
    pub fn from_millis(ms: u64) -> Self {
        Duration(ms * 1_000_000)
    }

    #[inline]
    pub fn as_nanos(self) -> u64 {
        self.0
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: Duration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Duration;
    #[inline]
    fn sub(self, rhs: SimTime) -> Duration {
        debug_assert!(self.0 >= rhs.0, "negative sim-time span");
        Duration(self.0 - rhs.0)
    }
}

impl Add for Duration {
    type Output = Duration;
    #[inline]
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl AddAssign for Duration {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}ns", self.0)
    }
}

impl fmt::Debug for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(SimTime::from_micros(3).as_nanos(), 3_000);
        assert_eq!(SimTime::from_millis(2).as_nanos(), 2_000_000);
        assert_eq!(SimTime::from_secs(1).as_secs_f64(), 1.0);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_micros(10) + Duration::from_micros(5);
        assert_eq!(t.as_nanos(), 15_000);
        assert_eq!((t - SimTime::from_micros(10)).as_nanos(), 5_000);
    }

    #[test]
    fn saturating_since_never_underflows() {
        let early = SimTime::from_nanos(5);
        let late = SimTime::from_nanos(9);
        assert_eq!(early.saturating_since(late), Duration::ZERO);
        assert_eq!(late.saturating_since(early), Duration(4));
    }

    #[test]
    fn debug_duration_units() {
        assert_eq!(format!("{:?}", Duration(999)), "999ns");
        assert_eq!(format!("{:?}", Duration(1_500)), "1.500us");
        assert_eq!(format!("{:?}", Duration(2_000_000)), "2.000ms");
    }
}
