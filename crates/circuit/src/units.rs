//! Strongly-typed physical quantities used throughout the workspace.
//!
//! Every electrical quantity that crosses a crate boundary is wrapped in a
//! newtype ([`Volt`], [`Farad`], [`Joule`], [`Watt`], [`Second`], [`Hertz`],
//! [`SquareMicron`]) so that, e.g., a boost capacitance can never be passed
//! where a supply voltage is expected. The wrappers are thin (`f64`-backed,
//! `Copy`) and provide only the arithmetic that is dimensionally meaningful:
//! addition/subtraction within a unit, scaling by a dimensionless factor, and
//! a handful of cross-unit products (`C * V^2 -> J`, `J / s -> W`, ...).
//!
//! # Examples
//!
//! ```
//! use dante_circuit::units::{Farad, Volt};
//!
//! let c = Farad::from_picofarads(10.0);
//! let v = Volt::new(0.4);
//! let e = c.switching_energy(v);
//! assert!((e.joules() - 10.0e-12 * 0.4 * 0.4).abs() < 1e-18);
//! ```

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

macro_rules! unit {
    ($(#[$meta:meta])* $name:ident, $unit:literal, $getter:ident) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
        pub struct $name(f64);

        impl $name {
            /// The zero value of this quantity.
            pub const ZERO: Self = Self(0.0);

            /// Creates a new quantity from a raw value in base SI units.
            ///
            /// # Panics
            ///
            /// Panics if `value` is NaN; every quantity in the simulator must
            /// be an ordered number.
            #[must_use]
            pub fn new(value: f64) -> Self {
                assert!(!value.is_nan(), concat!(stringify!($name), " cannot be NaN"));
                Self(value)
            }

            /// `const` constructor for compile-time constants. Unlike
            /// [`Self::new`] this performs no NaN validation, so it is
            /// intended only for literal constants.
            #[must_use]
            pub const fn const_new(value: f64) -> Self {
                Self(value)
            }

            /// Returns the raw value in base SI units.
            #[must_use]
            pub fn $getter(self) -> f64 {
                self.0
            }

            /// Returns the absolute value.
            #[must_use]
            pub fn abs(self) -> Self {
                Self(self.0.abs())
            }

            /// Returns the larger of `self` and `other`.
            #[must_use]
            pub fn max(self, other: Self) -> Self {
                if self.0 >= other.0 { self } else { other }
            }

            /// Returns the smaller of `self` and `other`.
            #[must_use]
            pub fn min(self, other: Self) -> Self {
                if self.0 <= other.0 { self } else { other }
            }

            /// Clamps the value into `[lo, hi]`.
            ///
            /// # Panics
            ///
            /// Panics if `lo > hi`.
            #[must_use]
            pub fn clamp(self, lo: Self, hi: Self) -> Self {
                assert!(lo.0 <= hi.0, "clamp bounds are inverted");
                Self(self.0.clamp(lo.0, hi.0))
            }

            /// Returns `true` when the value is finite (not inf/NaN).
            #[must_use]
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }
        }

        impl Add for $name {
            type Output = Self;
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = Self;
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl SubAssign for $name {
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        impl Neg for $name {
            type Output = Self;
            fn neg(self) -> Self {
                Self(-self.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = Self;
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl Mul<$name> for f64 {
            type Output = $name;
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl Div<f64> for $name {
            type Output = Self;
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        impl Div<$name> for $name {
            /// Ratio of two like quantities is dimensionless.
            type Output = f64;
            fn div(self, rhs: $name) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|x| x.0).sum())
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                if let Some(prec) = f.precision() {
                    write!(f, "{:.*} {}", prec, self.0, $unit)
                } else {
                    write!(f, "{} {}", self.0, $unit)
                }
            }
        }
    };
}

unit!(
    /// An electric potential in volts.
    Volt,
    "V",
    volts
);
unit!(
    /// A capacitance in farads.
    Farad,
    "F",
    farads
);
unit!(
    /// An energy in joules.
    Joule,
    "J",
    joules
);
unit!(
    /// A power in watts.
    Watt,
    "W",
    watts
);
unit!(
    /// A duration in seconds.
    Second,
    "s",
    seconds
);
unit!(
    /// A frequency in hertz.
    Hertz,
    "Hz",
    hertz
);
unit!(
    /// A silicon area in square micrometres.
    SquareMicron,
    "um^2",
    square_microns
);

impl Volt {
    /// Creates a potential from a value in millivolts.
    #[must_use]
    pub fn from_millivolts(mv: f64) -> Self {
        Self::new(mv * 1e-3)
    }

    /// Returns the value in millivolts.
    #[must_use]
    pub fn millivolts(self) -> f64 {
        self.0 * 1e3
    }

    /// Squares the potential; used by `C * V^2` energy terms.
    #[must_use]
    pub fn squared(self) -> f64 {
        self.0 * self.0
    }
}

impl Farad {
    /// Creates a capacitance from a value in picofarads.
    #[must_use]
    pub fn from_picofarads(pf: f64) -> Self {
        Self::new(pf * 1e-12)
    }

    /// Creates a capacitance from a value in femtofarads.
    #[must_use]
    pub fn from_femtofarads(ff: f64) -> Self {
        Self::new(ff * 1e-15)
    }

    /// Returns the value in picofarads.
    #[must_use]
    pub fn picofarads(self) -> f64 {
        self.0 * 1e12
    }

    /// Returns the value in femtofarads.
    #[must_use]
    pub fn femtofarads(self) -> f64 {
        self.0 * 1e15
    }

    /// Full-swing switching energy `C * V^2` of this capacitance at `v`.
    ///
    /// This is the energy drawn from the supply over one charge/discharge
    /// cycle of a rail-to-rail node, the convention used for all dynamic
    /// energy accounting in this workspace.
    #[must_use]
    pub fn switching_energy(self, v: Volt) -> Joule {
        Joule::new(self.0 * v.squared())
    }
}

impl Joule {
    /// Creates an energy from a value in picojoules.
    #[must_use]
    pub fn from_picojoules(pj: f64) -> Self {
        Self::new(pj * 1e-12)
    }

    /// Returns the value in picojoules.
    #[must_use]
    pub fn picojoules(self) -> f64 {
        self.0 * 1e12
    }
}

impl Watt {
    /// Creates a power from a value in microwatts.
    #[must_use]
    pub fn from_microwatts(uw: f64) -> Self {
        Self::new(uw * 1e-6)
    }

    /// Returns the value in microwatts.
    #[must_use]
    pub fn microwatts(self) -> f64 {
        self.0 * 1e6
    }

    /// Energy dissipated over a duration: `P * t`.
    #[must_use]
    pub fn energy_over(self, t: Second) -> Joule {
        Joule::new(self.0 * t.seconds())
    }
}

impl Second {
    /// Creates a duration from a value in nanoseconds.
    #[must_use]
    pub fn from_nanoseconds(ns: f64) -> Self {
        Self::new(ns * 1e-9)
    }

    /// Returns the value in nanoseconds.
    #[must_use]
    pub fn nanoseconds(self) -> f64 {
        self.0 * 1e9
    }
}

impl Hertz {
    /// Creates a frequency from a value in megahertz.
    #[must_use]
    pub fn from_megahertz(mhz: f64) -> Self {
        Self::new(mhz * 1e6)
    }

    /// Returns the value in megahertz.
    #[must_use]
    pub fn megahertz(self) -> f64 {
        self.0 * 1e-6
    }

    /// The period of one cycle at this frequency.
    ///
    /// # Panics
    ///
    /// Panics if the frequency is zero.
    #[must_use]
    pub fn period(self) -> Second {
        assert!(self.0 > 0.0, "period of a zero frequency is undefined");
        Second::new(1.0 / self.0)
    }
}

impl Div<Second> for Joule {
    /// Average power of an energy spread over a duration.
    type Output = Watt;
    fn div(self, rhs: Second) -> Watt {
        Watt::new(self.joules() / rhs.seconds())
    }
}

impl Mul<Second> for Watt {
    type Output = Joule;
    fn mul(self, rhs: Second) -> Joule {
        self.energy_over(rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn volt_constructors_and_accessors_round_trip() {
        let v = Volt::from_millivolts(450.0);
        assert!((v.volts() - 0.45).abs() < 1e-12);
        assert!((v.millivolts() - 450.0).abs() < 1e-9);
    }

    #[test]
    fn farad_unit_conversions_round_trip() {
        let c = Farad::from_picofarads(10.0);
        assert!((c.femtofarads() - 10_000.0).abs() < 1e-6);
        assert!((Farad::from_femtofarads(1500.0).picofarads() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn switching_energy_is_cv2() {
        let c = Farad::from_femtofarads(100.0);
        let v = Volt::new(0.8);
        let e = c.switching_energy(v);
        assert!((e.picojoules() - 0.1 * 0.64).abs() < 1e-12);
    }

    #[test]
    fn arithmetic_ops_behave_dimensionally() {
        let a = Volt::new(0.4);
        let b = Volt::new(0.1);
        assert!(((a + b).volts() - 0.5).abs() < 1e-12);
        assert!(((a - b).volts() - 0.3).abs() < 1e-12);
        assert!(((a * 2.0).volts() - 0.8).abs() < 1e-12);
        assert!(((2.0 * a).volts() - 0.8).abs() < 1e-12);
        assert!(((a / 2.0).volts() - 0.2).abs() < 1e-12);
        assert!((a / b - 4.0).abs() < 1e-12);
        assert!(((-b).volts() + 0.1).abs() < 1e-12);
    }

    #[test]
    fn power_times_time_is_energy() {
        let p = Watt::from_microwatts(5.0);
        let t = Second::from_nanoseconds(20.0);
        let e = p * t;
        assert!((e.picojoules() - 0.1).abs() < 1e-12);
        let back = e / t;
        assert!((back.microwatts() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn frequency_period_round_trips() {
        let f = Hertz::from_megahertz(50.0);
        assert!((f.period().nanoseconds() - 20.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "period of a zero frequency")]
    fn zero_frequency_period_panics() {
        let _ = Hertz::ZERO.period();
    }

    #[test]
    fn sum_accumulates() {
        let total: Joule = (0..4).map(|i| Joule::from_picojoules(f64::from(i))).sum();
        assert!((total.picojoules() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn min_max_clamp() {
        let a = Volt::new(0.3);
        let b = Volt::new(0.5);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert_eq!(Volt::new(0.7).clamp(a, b), b);
        assert_eq!(Volt::new(0.1).clamp(a, b), a);
    }

    #[test]
    fn display_includes_unit_and_precision() {
        assert_eq!(format!("{:.2}", Volt::new(0.456)), "0.46 V");
        assert_eq!(format!("{}", Hertz::new(5.0)), "5 Hz");
    }

    #[test]
    #[should_panic(expected = "cannot be NaN")]
    fn nan_rejected() {
        let _ = Volt::new(f64::NAN);
    }
}
