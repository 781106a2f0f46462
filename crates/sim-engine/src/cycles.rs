//! Processor-cycle time values.
//!
//! All latencies in the reproduced paper are expressed in 600 MHz processor
//! cycles (Table 3).  `Cycles` is a thin newtype over `u64` with saturating
//! arithmetic so that accumulating billions of cycles over a long simulation
//! can never wrap silently.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A duration or instant measured in processor clock cycles.
///
/// The paper models 600 MHz dual-issue processors; one cycle is therefore
/// 1/600 µs.  [`Cycles::as_micros`] performs that conversion for reporting.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycles(pub u64);

impl Cycles {
    /// Zero cycles.
    pub const ZERO: Cycles = Cycles(0);
    /// Largest representable value; used as "never" / sentinel.
    pub const MAX: Cycles = Cycles(u64::MAX);

    /// Processor clock frequency assumed by the paper (600 MHz).
    pub const CLOCK_MHZ: u64 = 600;

    /// Construct from a raw cycle count.
    #[inline]
    pub const fn new(raw: u64) -> Self {
        Cycles(raw)
    }

    /// The raw cycle count.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Convert to microseconds at the paper's 600 MHz clock.
    #[inline]
    pub fn as_micros(self) -> f64 {
        self.0 as f64 / Self::CLOCK_MHZ as f64
    }

    /// Construct from microseconds at the paper's 600 MHz clock.
    #[inline]
    pub fn from_micros(us: f64) -> Self {
        Cycles((us * Self::CLOCK_MHZ as f64).round() as u64)
    }

    /// Saturating addition.
    #[inline]
    pub fn saturating_add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.saturating_add(rhs.0))
    }

    /// Saturating subtraction (clamps at zero).
    #[inline]
    pub fn saturating_sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.saturating_sub(rhs.0))
    }

    /// The larger of two instants.
    #[inline]
    pub fn max(self, rhs: Cycles) -> Cycles {
        if self.0 >= rhs.0 {
            self
        } else {
            rhs
        }
    }

    /// The smaller of two instants.
    #[inline]
    pub fn min(self, rhs: Cycles) -> Cycles {
        if self.0 <= rhs.0 {
            self
        } else {
            rhs
        }
    }

    /// `true` if this is exactly zero.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add for Cycles {
    type Output = Cycles;
    #[inline]
    fn add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for Cycles {
    #[inline]
    fn add_assign(&mut self, rhs: Cycles) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for Cycles {
    type Output = Cycles;
    #[inline]
    fn sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for Cycles {
    #[inline]
    fn sub_assign(&mut self, rhs: Cycles) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl Mul<u64> for Cycles {
    type Output = Cycles;
    #[inline]
    fn mul(self, rhs: u64) -> Cycles {
        Cycles(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for Cycles {
    type Output = Cycles;
    #[inline]
    fn div(self, rhs: u64) -> Cycles {
        Cycles(self.0 / rhs)
    }
}

impl Sum for Cycles {
    fn sum<I: Iterator<Item = Cycles>>(iter: I) -> Cycles {
        iter.fold(Cycles::ZERO, |acc, c| acc + c)
    }
}

impl From<u64> for Cycles {
    #[inline]
    fn from(raw: u64) -> Self {
        Cycles(raw)
    }
}

impl From<Cycles> for u64 {
    #[inline]
    fn from(c: Cycles) -> u64 {
        c.0
    }
}

impl fmt::Debug for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}cy", self.0)
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_arithmetic() {
        let a = Cycles::new(100);
        let b = Cycles::new(18);
        assert_eq!(a + b, Cycles::new(118));
        assert_eq!(a - b, Cycles::new(82));
        assert_eq!(b - a, Cycles::ZERO, "subtraction saturates at zero");
        assert_eq!(a * 3, Cycles::new(300));
        assert_eq!(a / 4, Cycles::new(25));
    }

    #[test]
    fn saturates_instead_of_wrapping() {
        let max = Cycles::MAX;
        assert_eq!(max + Cycles::new(1), Cycles::MAX);
        assert_eq!(max * 2, Cycles::MAX);
        assert_eq!(Cycles::ZERO - Cycles::new(5), Cycles::ZERO);
    }

    #[test]
    fn add_assign_and_sub_assign() {
        let mut t = Cycles::new(10);
        t += Cycles::new(5);
        assert_eq!(t, Cycles::new(15));
        t -= Cycles::new(20);
        assert_eq!(t, Cycles::ZERO);
    }

    #[test]
    fn min_max() {
        let a = Cycles::new(7);
        let b = Cycles::new(9);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(a), a);
    }

    #[test]
    fn microsecond_conversion_matches_600mhz_clock() {
        // Table 3: a 3000-cycle soft trap is 5 us at 600 MHz.
        assert!((Cycles::new(3000).as_micros() - 5.0).abs() < 1e-9);
        assert_eq!(Cycles::from_micros(5.0), Cycles::new(3000));
        // 50 us slow soft trap = 30000 cycles.
        assert_eq!(Cycles::from_micros(50.0), Cycles::new(30000));
    }

    #[test]
    fn sum_of_iterator() {
        let total: Cycles = [1u64, 2, 3, 4].into_iter().map(Cycles::new).sum();
        assert_eq!(total, Cycles::new(10));
    }

    #[test]
    fn ordering_and_display() {
        assert!(Cycles::new(1) < Cycles::new(2));
        assert_eq!(format!("{}", Cycles::new(42)), "42");
        assert_eq!(format!("{:?}", Cycles::new(42)), "42cy");
    }
}
