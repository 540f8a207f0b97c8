//! Simulated time.
//!
//! Two notions of time are used throughout the workspace:
//!
//! * [`Cycles`] — *machine time* in nanoseconds. Storage levels, mapping
//!   devices and transfer channels are all parameterized in nanoseconds,
//!   which comfortably spans the 1960s range (a 0.2 µs thin-film
//!   associative search up to a ~100 ms tape seek) with integer
//!   arithmetic and perfect determinism.
//! * [`VirtualTime`] — *reference time*, the index of the current access
//!   in a reference string. Replacement policies (LRU timestamps, the
//!   ATLAS learning program's inactivity periods, Belady's MIN) are
//!   naturally expressed in reference time.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Mul, Sub};

/// A duration or instant of machine time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Debug)]
pub struct Cycles(pub u64);

impl Cycles {
    /// Zero duration.
    pub const ZERO: Cycles = Cycles(0);

    /// Constructs a duration from nanoseconds.
    #[must_use]
    pub const fn from_nanos(ns: u64) -> Cycles {
        Cycles(ns)
    }

    /// Constructs a duration from microseconds.
    #[must_use]
    pub const fn from_micros(us: u64) -> Cycles {
        Cycles(us * 1_000)
    }

    /// Constructs a duration from milliseconds.
    #[must_use]
    pub const fn from_millis(ms: u64) -> Cycles {
        Cycles(ms * 1_000_000)
    }

    /// Returns the duration in nanoseconds.
    #[must_use]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns the duration in (truncated) microseconds.
    #[must_use]
    pub(crate) const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Returns the duration as fractional milliseconds.
    #[must_use]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Saturating subtraction; useful when comparing instants that may be
    /// out of order.
    #[must_use]
    pub const fn saturating_sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.saturating_sub(rhs.0))
    }
}

impl Add for Cycles {
    type Output = Cycles;
    fn add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 + rhs.0)
    }
}

impl AddAssign for Cycles {
    fn add_assign(&mut self, rhs: Cycles) {
        self.0 += rhs.0;
    }
}

impl Sub for Cycles {
    type Output = Cycles;
    fn sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 - rhs.0)
    }
}

impl Mul<u64> for Cycles {
    type Output = Cycles;
    fn mul(self, rhs: u64) -> Cycles {
        Cycles(self.0 * rhs)
    }
}

impl Sum for Cycles {
    fn sum<I: Iterator<Item = Cycles>>(iter: I) -> Cycles {
        iter.fold(Cycles::ZERO, Add::add)
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 10_000_000 {
            write!(f, "{:.2}ms", self.as_millis_f64())
        } else if self.0 >= 10_000 {
            write!(f, "{}us", self.as_micros())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

/// Reference time: the index of an access within a reference string.
pub type VirtualTime = u64;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_constructors_agree() {
        assert_eq!(Cycles::from_micros(1), Cycles::from_nanos(1_000));
        assert_eq!(Cycles::from_millis(1), Cycles::from_micros(1_000));
    }

    #[test]
    fn arithmetic() {
        let a = Cycles::from_micros(5);
        let b = Cycles::from_micros(3);
        assert_eq!(a + b, Cycles::from_micros(8));
        assert_eq!(a - b, Cycles::from_micros(2));
        assert_eq!(b * 4, Cycles::from_micros(12));
        assert_eq!(b.saturating_sub(a), Cycles::ZERO);
        let total: Cycles = [a, b, b].into_iter().sum();
        assert_eq!(total, Cycles::from_micros(11));
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(Cycles::from_nanos(200).to_string(), "200ns");
        assert_eq!(Cycles::from_micros(80).to_string(), "80us");
        assert_eq!(Cycles::from_millis(34).to_string(), "34.00ms");
    }
}
