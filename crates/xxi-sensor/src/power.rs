//! Batteries and energy harvesters.

use xxi_core::units::{Energy, Power, Seconds};

/// A finite energy store.
#[derive(Clone, Debug)]
pub struct Battery {
    capacity: Energy,
    remaining: Energy,
}

impl Battery {
    /// A battery with the given capacity, fully charged.
    pub fn new(capacity: Energy) -> Battery {
        assert!(capacity.value() > 0.0);
        Battery {
            capacity,
            remaining: capacity,
        }
    }

    /// A CR2032-class coin cell: ~225 mAh at 3 V ≈ 2430 J.
    pub fn coin_cell() -> Battery {
        Battery::new(Energy(2430.0))
    }

    /// Remaining energy.
    pub fn remaining(&self) -> Energy {
        self.remaining
    }

    /// State of charge in [0, 1].
    pub fn soc(&self) -> f64 {
        self.remaining / self.capacity
    }

    /// Draw `e`; returns `false` (and empties) if insufficient.
    pub fn draw(&mut self, e: Energy) -> bool {
        assert!(e.value() >= 0.0);
        if e.value() <= self.remaining.value() {
            self.remaining -= e;
            true
        } else {
            self.remaining = Energy::ZERO;
            false
        }
    }

    /// Recharge by `e`, clamped at capacity.
    pub fn charge(&mut self, e: Energy) {
        assert!(e.value() >= 0.0);
        self.remaining = (self.remaining + e).min(self.capacity);
    }

    /// True once fully drained.
    pub fn dead(&self) -> bool {
        self.remaining.value() <= 0.0
    }
}

/// Harvester profile.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HarvestProfile {
    /// Solar-like: sinusoidal day/night cycle, zero at night.
    Solar,
}

/// An energy harvester sampled at fixed steps.
#[derive(Clone, Debug)]
pub struct Harvester {
    /// Peak harvest power.
    peak: Power,
    /// Period of the solar cycle (steps).
    period: u64,
    /// Steps into the current solar cycle: `step % period`.
    phase: u64,
}

impl Harvester {
    /// A harvester with `peak` power and a solar cycle of `period` steps.
    /// Solar is the one profile, and its day draws nothing, so neither
    /// `_profile` nor `_seed` changes what it harvests.
    pub fn new(_profile: HarvestProfile, peak: Power, period: u64, _seed: u64) -> Harvester {
        assert!(peak.value() >= 0.0 && period > 0);
        Harvester {
            peak,
            period,
            phase: 0,
        }
    }

    /// Power available during the next step.
    pub fn next_power(&mut self) -> Power {
        let k = self.phase;
        self.phase += 1;
        if self.phase == self.period {
            self.phase = 0;
        }
        // Daylight only (positive half of the cycle). Past half a cycle
        // `τ·k/period` lies strictly inside (π, 2π), where the sine is
        // negative, so it need not be evaluated.
        let s = if k > self.period / 2 {
            0.0
        } else {
            (std::f64::consts::TAU * (k as f64 / self.period as f64)).sin()
        };
        self.peak * s.max(0.0)
    }

    /// Energy harvested over one step of `dt`.
    pub fn harvest(&mut self, dt: Seconds) -> Energy {
        self.next_power() * dt
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn battery_draw_and_charge() {
        let mut b = Battery::new(Energy(100.0));
        assert!(b.draw(Energy(30.0)));
        assert!((b.soc() - 0.7).abs() < 1e-12);
        b.charge(Energy(50.0));
        assert!(
            (b.remaining().value() - 100.0).abs() < 1e-12,
            "clamped at capacity"
        );
        assert!(b.draw(Energy(100.0)));
        assert!(b.dead());
        assert!(!b.draw(Energy(1.0)));
    }

    #[test]
    fn overdraw_empties_and_fails() {
        let mut b = Battery::new(Energy(10.0));
        assert!(!b.draw(Energy(11.0)));
        assert!(b.dead());
    }

    #[test]
    fn coin_cell_capacity_sane() {
        let b = Battery::coin_cell();
        assert!((b.remaining().value() - 2430.0).abs() < 1.0);
    }

    #[test]
    fn solar_cycles_between_zero_and_peak() {
        let mut h = Harvester::new(HarvestProfile::Solar, Power::from_mw(10.0), 100, 1);
        let ps: Vec<f64> = (0..200).map(|_| h.next_power().value()).collect();
        let max = ps.iter().cloned().fold(0.0f64, f64::max);
        let zeros = ps.iter().filter(|&&p| p == 0.0).count();
        assert!((max - 0.01).abs() < 1e-4, "max={max}");
        // Half the cycle is night.
        assert!((90..=110).contains(&zeros), "zeros={zeros}");
    }

    #[test]
    fn solar_power_matches_the_modulo_formula_bit_for_bit() {
        let peak = Power::from_uw(150.0);
        let periods = (1..=400).chain([86_399, 86_400, 1_000_003]);
        for period in periods {
            let mut h = Harvester::new(HarvestProfile::Solar, peak, period, 1);
            for step in 0..2 * period {
                // The formula before the phase counter and the night skip.
                let phase = (step % period) as f64 / period as f64;
                let want = peak * (std::f64::consts::TAU * phase).sin().max(0.0);
                let got = h.next_power();
                assert_eq!(
                    got.value().to_bits(),
                    want.value().to_bits(),
                    "period {period}, step {step}"
                );
            }
        }
    }
}
