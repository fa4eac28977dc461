//! Virtual time for the discrete-event simulation.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in (or duration of) virtual time, in microseconds.
///
/// The simulator never consults the wall clock; every delay is expressed as a
/// `SimTime`, which keeps runs fully deterministic and independent of host
/// load.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The zero instant.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates a time from microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros)
    }

    /// Creates a time from milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimTime(millis * 1_000)
    }

    /// The value in microseconds.
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// The value in (possibly fractional) milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(other.0))
    }

    /// Checked addition: `None` on overflow.
    pub fn checked_add(self, other: SimTime) -> Option<SimTime> {
        self.0.checked_add(other.0).map(SimTime)
    }

    /// Saturating multiplication by a scalar (backoff doubling, horizon
    /// estimates).
    pub fn saturating_mul(self, factor: u64) -> SimTime {
        SimTime(self.0.saturating_mul(factor))
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000 {
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
    fn conversions() {
        assert_eq!(SimTime::from_millis(2).as_micros(), 2_000);
        assert_eq!(SimTime::from_micros(1_500).as_millis_f64(), 1.5);
        assert_eq!(SimTime::ZERO.as_micros(), 0);
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_micros(300);
        let b = SimTime::from_micros(200);
        assert_eq!((a + b).as_micros(), 500);
        assert_eq!((a - b).as_micros(), 100);
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        let mut c = a;
        c += b;
        assert_eq!(c.as_micros(), 500);
        assert_eq!(a.saturating_mul(3).as_micros(), 900);
        assert_eq!(a.checked_add(b), Some(SimTime::from_micros(500)));
        assert_eq!(SimTime::from_micros(u64::MAX).checked_add(a), None);
        assert_eq!(
            SimTime::from_micros(u64::MAX).saturating_mul(2).as_micros(),
            u64::MAX
        );
    }

    #[test]
    fn ordering_and_display() {
        assert!(SimTime::from_micros(1) < SimTime::from_millis(1));
        assert_eq!(SimTime::from_micros(750).to_string(), "750us");
        assert_eq!(SimTime::from_millis(2).to_string(), "2.000ms");
    }
}
