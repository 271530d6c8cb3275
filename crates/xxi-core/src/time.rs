//! Simulated time for the discrete-event engine.
//!
//! [`SimTime`] is an integer count of **picoseconds** since simulation
//! start. Integer time makes event ordering exact (no floating-point
//! tie-break ambiguity) and picosecond resolution is fine enough to express
//! a single cycle of a 100 GHz photonic link while still giving a simulated
//! horizon of ~213 days in a `u64`. Integer constructors and `+`, `+=`
//! and `-` panic past either end of that range in every build, rather
//! than wrapping in release; [`SimTime::saturating_add`],
//! [`SimTime::since`] and [`SimTime::from_seconds`] saturate instead.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

use crate::units::Seconds;

/// A point in simulated time, in integer picoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Simulation epoch.
    pub const ZERO: SimTime = SimTime(0);
    /// The far future; useful as an "infinite" deadline.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from picoseconds.
    #[inline]
    pub const fn from_ps(ps: u64) -> SimTime {
        SimTime(ps)
    }

    /// Construct from nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> SimTime {
        checked(ns.checked_mul(1_000))
    }

    /// Convert a duration in (fractional) milliseconds to sim time,
    /// rounding to the nearest picosecond. Negative and NaN inputs give
    /// [`SimTime::ZERO`]; inputs past the horizon give [`SimTime::MAX`].
    #[inline]
    pub fn from_ms_f64(ms: f64) -> SimTime {
        SimTime((ms * 1e9).round().max(0.0) as u64)
    }

    /// Convert a (non-negative, finite) physical duration to sim time,
    /// rounding to the nearest picosecond and saturating at the horizon.
    pub fn from_seconds(s: Seconds) -> SimTime {
        let ps = (s.value() * 1e12).round();
        if !ps.is_finite() || ps < 0.0 {
            return SimTime::ZERO;
        }
        if ps >= u64::MAX as f64 {
            return SimTime::MAX;
        }
        SimTime(ps as u64)
    }

    /// Picoseconds since the epoch.
    #[inline]
    pub const fn ps(self) -> u64 {
        self.0
    }

    /// Value as floating-point microseconds.
    #[inline]
    pub fn us(self) -> f64 {
        self.0 as f64 * 1e-6
    }

    /// Value as floating-point milliseconds.
    #[inline]
    pub fn ms(self) -> f64 {
        self.0 as f64 * 1e-9
    }

    /// Value as a physical duration.
    #[inline]
    pub fn seconds(self) -> Seconds {
        Seconds(self.0 as f64 * 1e-12)
    }

    /// Saturating addition of a delay.
    #[inline]
    pub fn saturating_add(self, delta: SimTime) -> SimTime {
        SimTime(self.0.saturating_add(delta.0))
    }

    /// Duration since an earlier instant; zero if `earlier` is later.
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(earlier.0))
    }
}

/// The picosecond count `ps`, or a panic when the arithmetic that made it
/// left the `u64` range.
#[inline]
const fn checked(ps: Option<u64>) -> SimTime {
    match ps {
        Some(ps) => SimTime(ps),
        None => panic!("SimTime out of range: past the ~213-day horizon or before zero"),
    }
}

impl Add for SimTime {
    type Output = SimTime;
    /// Panics past [`SimTime::MAX`] — use [`SimTime::saturating_add`] to
    /// cap there instead.
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        checked(self.0.checked_add(rhs.0))
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
    /// Panics if `rhs > self` — use [`SimTime::since`] for a saturating
    /// difference.
    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        checked(self.0.checked_sub(rhs.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ps = self.0;
        if ps >= 1_000_000_000_000 {
            write!(f, "{:.3}s", ps as f64 / 1e12)
        } else if ps >= 1_000_000_000 {
            write!(f, "{:.3}ms", ps as f64 / 1e9)
        } else if ps >= 1_000_000 {
            write!(f, "{:.3}us", ps as f64 / 1e6)
        } else if ps >= 1_000 {
            write!(f, "{:.3}ns", ps as f64 / 1e3)
        } else {
            write!(f, "{ps}ps")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_ns(1), SimTime::from_ps(1_000));
        assert_eq!(SimTime::from_ms_f64(1.0), SimTime::from_ns(1_000_000));
    }

    #[test]
    fn roundtrip_through_seconds() {
        let t = SimTime::from_ns(1_500);
        let s = t.seconds();
        assert!((s.value() - 1.5e-6).abs() < 1e-18);
        assert_eq!(SimTime::from_seconds(s), t);
    }

    #[test]
    fn from_seconds_clamps_pathologies() {
        assert_eq!(SimTime::from_seconds(Seconds(-1.0)), SimTime::ZERO);
        assert_eq!(SimTime::from_seconds(Seconds(f64::NAN)), SimTime::ZERO);
        assert_eq!(SimTime::from_seconds(Seconds(1e30)), SimTime::MAX);
    }

    #[test]
    fn from_ms_f64_rounds_and_clamps() {
        assert_eq!(SimTime::from_ms_f64(1.5), SimTime::from_ns(1_500_000));
        assert_eq!(SimTime::from_ms_f64(0.000_000_000_4), SimTime::ZERO);
        assert_eq!(SimTime::from_ms_f64(0.000_000_000_6), SimTime::from_ps(1));
        assert_eq!(SimTime::from_ms_f64(-3.0), SimTime::ZERO);
        assert_eq!(SimTime::from_ms_f64(f64::NEG_INFINITY), SimTime::ZERO);
        assert_eq!(SimTime::from_ms_f64(f64::NAN), SimTime::ZERO);
        assert_eq!(SimTime::from_ms_f64(1e300), SimTime::MAX);
        assert_eq!(SimTime::from_ms_f64(f64::INFINITY), SimTime::MAX);
    }

    #[test]
    fn ordering_and_arithmetic() {
        let a = SimTime::from_ns(10);
        let b = SimTime::from_ns(25);
        assert!(a < b);
        assert_eq!(b - a, SimTime::from_ns(15));
        assert_eq!(b.since(a), SimTime::from_ns(15));
        assert_eq!(a.since(b), SimTime::ZERO);
        let mut c = a;
        c += SimTime::from_ns(5);
        assert_eq!(c, SimTime::from_ns(15));
    }

    #[test]
    fn saturating_add_caps_at_max() {
        assert_eq!(SimTime::MAX.saturating_add(SimTime(1)), SimTime::MAX);
    }

    #[test]
    fn arithmetic_reaches_max_exactly() {
        assert_eq!(SimTime(u64::MAX - 1) + SimTime(1), SimTime::MAX);
        let mut t = SimTime::from_ps(u64::MAX - 5);
        t += SimTime(5);
        assert_eq!(t, SimTime::MAX);
        assert_eq!(SimTime::MAX - SimTime::MAX, SimTime::ZERO);
        let n = u64::MAX / 1_000;
        assert_eq!(SimTime::from_ns(n).ps(), n * 1_000);
    }

    #[test]
    fn leaving_the_range_panics_in_every_build() {
        let cases: [(&str, fn()); 4] = [
            ("MAX + 1", || _ = SimTime::MAX + SimTime(1)),
            ("MAX += 1", || {
                let mut t = SimTime::MAX;
                t += SimTime(1);
            }),
            ("0 - 1", || _ = SimTime::ZERO - SimTime(1)),
            ("from_ns", || _ = SimTime::from_ns(u64::MAX / 1_000 + 1)),
        ];
        for (name, case) in cases {
            let payload = std::panic::catch_unwind(case).expect_err(name);
            let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
            assert!(msg.contains("SimTime out of range"), "{name}: {msg:?}");
        }
    }

    #[test]
    fn display_picks_sensible_unit() {
        assert_eq!(SimTime::from_ps(5).to_string(), "5ps");
        assert_eq!(SimTime::from_ns(5).to_string(), "5.000ns");
        assert_eq!(SimTime::from_ns(5_000).to_string(), "5.000us");
        assert_eq!(SimTime::from_ns(5_000_000).to_string(), "5.000ms");
        assert_eq!(SimTime::from_ns(5_000_000_000).to_string(), "5.000s");
    }

    #[test]
    fn resolution_supports_100ghz_cycle() {
        // A 100 GHz cycle is 10 ps — representable exactly.
        let cycle = SimTime::from_seconds(Seconds(1.0 / 100e9));
        assert_eq!(cycle, SimTime::from_ps(10));
    }
}
