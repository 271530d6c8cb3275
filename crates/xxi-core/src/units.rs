//! Typed physical quantities.
//!
//! The white paper's central thesis is that **energy is the new first-class
//! design constraint** ("Energy First", §2.2). Getting energy accounting
//! right across a dozen interacting models is far easier when joules, watts,
//! seconds, and operation counts are distinct types: a model cannot
//! accidentally add a per-bit link energy to a per-op compute energy without
//! an explicit conversion.
//!
//! All quantities are thin `f64` newtypes with the obvious arithmetic plus
//! the physically meaningful cross-type operations:
//!
//! * `Power × Seconds = Energy`, `Energy ÷ Seconds = Power`
//! * `Energy ÷ Ops = energy per op (Energy)`, `Ops ÷ Seconds = Frequency`
//!
//! Constructors exist for the SI prefixes the models actually use
//! (picojoules for per-op energies, nanojoules for radio bits, megawatts for
//! datacenters, …).

use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

macro_rules! quantity {
    ($(#[$doc:meta])* $name:ident, $unit:literal) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, PartialOrd, Debug, Default)]
        pub struct $name(pub f64);

        impl $name {
            /// The zero quantity.
            pub const ZERO: $name = $name(0.0);

            /// Raw numeric value in base units.
            #[inline]
            pub fn value(self) -> f64 {
                self.0
            }

            /// True if the value is finite and non-negative.
            #[inline]
            // xxi-allow: model-reach -- checked by xxi lint (units-dimensional, ledger-conservation)
            pub fn is_physical(self) -> bool {
                self.0.is_finite() && self.0 >= 0.0
            }

            /// Component-wise maximum.
            #[inline]
            pub fn max(self, other: $name) -> $name {
                $name(self.0.max(other.0))
            }

            /// Component-wise minimum.
            #[inline]
            pub fn min(self, other: $name) -> $name {
                $name(self.0.min(other.0))
            }
        }

        impl Add for $name {
            type Output = $name;
            #[inline]
            fn add(self, rhs: $name) -> $name {
                $name(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, rhs: $name) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = $name;
            #[inline]
            fn sub(self, rhs: $name) -> $name {
                $name(self.0 - rhs.0)
            }
        }

        impl SubAssign for $name {
            #[inline]
            fn sub_assign(&mut self, rhs: $name) {
                self.0 -= rhs.0;
            }
        }

        impl Neg for $name {
            type Output = $name;
            #[inline]
            fn neg(self) -> $name {
                $name(-self.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: f64) -> $name {
                $name(self.0 * rhs)
            }
        }

        impl Mul<$name> for f64 {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl Div<f64> for $name {
            type Output = $name;
            #[inline]
            fn div(self, rhs: f64) -> $name {
                $name(self.0 / rhs)
            }
        }

        /// Dimensionless ratio of two like quantities.
        impl Div<$name> for $name {
            type Output = f64;
            #[inline]
            fn div(self, rhs: $name) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = $name>>(iter: I) -> $name {
                $name(iter.map(|q| q.0).sum())
            }
        }

        impl std::fmt::Display for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                if let Some(prec) = f.precision() {
                    write!(f, "{:.*} {}", prec, self.0, $unit)
                } else {
                    write!(f, "{} {}", self.0, $unit)
                }
            }
        }
    };
}

quantity!(
    /// Energy in joules.
    Energy,
    "J"
);
quantity!(
    /// Power in watts.
    Power,
    "W"
);
quantity!(
    /// Wall-clock / simulated physical time in seconds.
    ///
    /// Distinct from [`crate::time::SimTime`], which is the integer event
    /// clock of the DES engine; `Seconds` is used by the analytic models.
    Seconds,
    "s"
);
quantity!(
    /// Frequency in hertz.
    Frequency,
    "Hz"
);
quantity!(
    /// Operation count (dimensionless but typed, so ops and bits don't mix).
    Ops,
    "ops"
);
quantity!(
    /// Silicon area in square millimetres.
    Area,
    "mm^2"
);
quantity!(
    /// Supply or threshold voltage in volts.
    Volts,
    "V"
);
quantity!(
    /// Data volume in bits.
    Bits,
    "b"
);

impl Energy {
    /// Construct from picojoules (the natural unit for per-op energies).
    #[inline]
    pub fn from_pj(pj: f64) -> Energy {
        Energy(pj * 1e-12)
    }

    /// Construct from nanojoules (the natural unit for radio bits / DRAM).
    #[inline]
    pub fn from_nj(nj: f64) -> Energy {
        Energy(nj * 1e-9)
    }

    /// Construct from microjoules.
    #[inline]
    pub fn from_uj(uj: f64) -> Energy {
        Energy(uj * 1e-6)
    }

    /// Construct from millijoules.
    #[inline]
    pub fn from_mj(mj: f64) -> Energy {
        Energy(mj * 1e-3)
    }

    /// Construct from kilowatt-hours (battery capacities, datacenter bills).
    #[inline]
    // xxi-allow: model-reach -- checked by xxi lint (units-dimensional)
    pub fn from_kwh(kwh: f64) -> Energy {
        Energy(kwh * 3.6e6)
    }

    /// Value in picojoules.
    #[inline]
    pub fn pj(self) -> f64 {
        self.0 * 1e12
    }

    /// Value in nanojoules.
    #[inline]
    pub fn nj(self) -> f64 {
        self.0 * 1e9
    }

    /// Value in millijoules.
    #[inline]
    pub fn mj(self) -> f64 {
        self.0 * 1e3
    }
}

impl Power {
    /// Construct from milliwatts (sensor nodes).
    #[inline]
    pub fn from_mw(mw: f64) -> Power {
        Power(mw * 1e-3)
    }

    /// Construct from microwatts.
    #[inline]
    pub fn from_uw(uw: f64) -> Power {
        Power(uw * 1e-6)
    }

    /// Value in milliwatts.
    #[inline]
    pub fn mw(self) -> f64 {
        self.0 * 1e3
    }
}

impl Seconds {
    /// Construct from nanoseconds.
    #[inline]
    pub fn from_ns(ns: f64) -> Seconds {
        Seconds(ns * 1e-9)
    }

    /// Construct from microseconds.
    #[inline]
    pub fn from_us(us: f64) -> Seconds {
        Seconds(us * 1e-6)
    }

    /// Construct from milliseconds.
    #[inline]
    pub fn from_ms(ms: f64) -> Seconds {
        Seconds(ms * 1e-3)
    }

    /// Construct from hours.
    #[inline]
    pub fn from_hours(h: f64) -> Seconds {
        Seconds(h * 3600.0)
    }

    /// Value in milliseconds.
    #[inline]
    pub fn ms(self) -> f64 {
        self.0 * 1e3
    }

    /// Value in hours.
    #[inline]
    pub fn hours(self) -> f64 {
        self.0 / 3600.0
    }
}

impl Frequency {
    /// Construct from gigahertz.
    #[inline]
    pub fn from_ghz(ghz: f64) -> Frequency {
        Frequency(ghz * 1e9)
    }

    /// Value in gigahertz.
    #[inline]
    pub fn ghz(self) -> f64 {
        self.0 * 1e-9
    }

    /// The period of one cycle.
    #[inline]
    pub fn period(self) -> Seconds {
        Seconds(1.0 / self.0)
    }
}

impl Ops {
    /// Giga-operations constructor.
    #[inline]
    // xxi-allow: model-reach -- checked by xxi lint (units-dimensional)
    pub fn from_gops(g: f64) -> Ops {
        Ops(g * 1e9)
    }
}

impl Bits {
    /// Value in bytes.
    #[inline]
    pub fn bytes(self) -> f64 {
        self.0 / 8.0
    }
}

// ---- Physically meaningful cross-type operations -------------------------

impl Mul<Seconds> for Power {
    type Output = Energy;
    /// `P · t = E`
    #[inline]
    fn mul(self, rhs: Seconds) -> Energy {
        Energy(self.0 * rhs.0)
    }
}

impl Mul<Power> for Seconds {
    type Output = Energy;
    #[inline]
    fn mul(self, rhs: Power) -> Energy {
        Energy(self.0 * rhs.0)
    }
}

impl Div<Seconds> for Energy {
    type Output = Power;
    /// `E / t = P`
    #[inline]
    fn div(self, rhs: Seconds) -> Power {
        Power(self.0 / rhs.0)
    }
}

impl Div<Power> for Energy {
    type Output = Seconds;
    /// `E / P = t` — e.g. battery life.
    #[inline]
    fn div(self, rhs: Power) -> Seconds {
        Seconds(self.0 / rhs.0)
    }
}

impl Div<Ops> for Energy {
    type Output = Energy;
    /// Energy per operation (still joules, per one op).
    #[inline]
    fn div(self, rhs: Ops) -> Energy {
        Energy(self.0 / rhs.0)
    }
}

impl Div<Seconds> for Ops {
    type Output = Frequency;
    /// Throughput: ops per second.
    #[inline]
    fn div(self, rhs: Seconds) -> Frequency {
        Frequency(self.0 / rhs.0)
    }
}

impl Div<Frequency> for Ops {
    type Output = Seconds;
    /// Time to execute `ops` at a given throughput.
    #[inline]
    fn div(self, rhs: Frequency) -> Seconds {
        Seconds(self.0 / rhs.0)
    }
}

/// Energy efficiency in operations per joule — the quantity the paper's
/// §2.2 "energy pyramid" is written in (e.g. "an exa-op data center that
/// consumes no more than 10 MW" ⇒ 10¹⁸ ops/s ÷ 10⁷ W = 10¹¹ ops/J).
#[inline]
pub fn ops_per_joule(ops: Ops, energy: Energy) -> f64 {
    ops.0 / energy.0
}

/// Giga-operations per watt, the mobile-efficiency unit the paper quotes
/// ("today's ~10 giga-operations/watt", §2.1).
#[inline]
// xxi-allow: model-reach -- checked by xxi lint (units-dimensional) and tests/cross_layer.rs
pub fn gops_per_watt(throughput: Frequency, power: Power) -> f64 {
    (throughput.0 / 1e9) / power.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_on_like_quantities() {
        let a = Energy::from_pj(10.0);
        let b = Energy::from_pj(5.0);
        assert!(((a + b).pj() - 15.0).abs() < 1e-9);
        assert!(((a - b).pj() - 5.0).abs() < 1e-9);
        assert!(((a * 2.0).pj() - 20.0).abs() < 1e-9);
        assert!(((a / 2.0).pj() - 5.0).abs() < 1e-9);
        assert!((a / b - 2.0).abs() < 1e-12);
    }

    #[test]
    fn power_times_time_is_energy() {
        let p = Power::from_mw(100.0); // 0.1 W
        let t = Seconds::from_ms(10.0); // 0.01 s
        let e = p * t;
        assert!((e.mj() - 1.0).abs() < 1e-9);
        // and back
        let p2 = e / t;
        assert!((p2.mw() - 100.0).abs() < 1e-9);
        let t2 = e / p;
        assert!((t2.ms() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn battery_life_example() {
        // A 2 Wh battery (7200 J) at 1 W lasts 2 hours.
        let battery = Energy::from_kwh(0.002);
        let draw = Power(1.0);
        let life = battery / draw;
        assert!((life.hours() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn throughput_and_period() {
        let f = Frequency::from_ghz(2.0);
        assert!((f.period().value() - 0.5e-9).abs() < 1e-21);
        let ops = Ops::from_gops(4.0);
        let t = ops / f; // 4e9 ops at 2e9 ops/s = 2 s
        assert!((t.value() - 2.0).abs() < 1e-9);
        let thr = ops / Seconds(2.0);
        assert!((thr.ghz() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn energy_pyramid_arithmetic() {
        // Exa-op @ 10 MW ⇒ 1e18/1e7 = 1e11 ops per joule.
        let need = ops_per_joule(Ops(1e18), Power(10e6) * Seconds(1.0));
        assert!((need - 1e11).abs() / 1e11 < 1e-12);
        // Giga-op sensor @ 10 mW ⇒ also 1e11 ops/J: the pyramid is uniform.
        let sensor = ops_per_joule(Ops(1e9), Power::from_mw(10.0) * Seconds(1.0));
        assert!((sensor - 1e11).abs() / 1e11 < 1e-12);
    }

    #[test]
    fn gops_per_watt_matches_paper_anchor() {
        // "today's ~10 giga-operations/watt": 100 GOPS in 10 W.
        let g = gops_per_watt(Frequency(100e9), Power(10.0));
        assert!((g - 10.0).abs() < 1e-9);
    }

    #[test]
    fn display_formats_with_unit() {
        let e = Energy::from_pj(1.0);
        assert_eq!(format!("{e:.2}"), "0.00 J");
        assert_eq!(format!("{}", Power(2.5)), "2.5 W");
    }

    #[test]
    fn is_physical_rejects_nan_and_negative() {
        assert!(Energy(1.0).is_physical());
        assert!(Energy::ZERO.is_physical());
        assert!(!Energy(-1.0).is_physical());
        assert!(!Energy(f64::NAN).is_physical());
        assert!(!Energy(f64::INFINITY).is_physical());
    }

    #[test]
    fn sum_of_quantities() {
        let total: Energy = (0..10).map(|i| Energy::from_pj(i as f64)).sum();
        assert!((total.pj() - 45.0).abs() < 1e-9);
    }

    #[test]
    fn min_max_neg() {
        assert_eq!(Power(1.0).max(Power(2.0)), Power(2.0));
        assert_eq!(Power(1.0).min(Power(2.0)), Power(1.0));
        assert_eq!(-Power(1.0), Power(-1.0));
    }

    #[test]
    fn bits_and_bytes() {
        assert_eq!(Bits(512.0).bytes(), 64.0);
    }
}
