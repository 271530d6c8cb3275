//! Microcontroller energy model with duty cycling.

use serde::{Deserialize, Serialize};

use xxi_core::units::{Energy, Power};

/// A sensor-node MCU.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct Mcu {
    /// Power while actively computing.
    pub active_power: Power,
    /// Power while asleep (RAM retention + RTC).
    pub sleep_power: Power,
    /// Energy per executed operation.
    pub energy_per_op: Energy,
    /// Operations per second when active.
    pub ops_per_sec: f64,
}

impl Mcu {
    /// A Cortex-M-class MCU: 5 mW active at 50 Mops/s (100 pJ/op),
    /// 5 µW asleep.
    pub fn cortex_m_class() -> Mcu {
        Mcu {
            active_power: Power::from_mw(5.0),
            sleep_power: Power::from_uw(5.0),
            energy_per_op: Energy::from_pj(100.0),
            ops_per_sec: 50e6,
        }
    }

    /// Energy to execute `ops` operations.
    pub fn compute_energy(&self, ops: u64) -> Energy {
        self.energy_per_op * ops as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_is_self_consistent() {
        // active_power ≈ energy_per_op × ops_per_sec.
        let m = Mcu::cortex_m_class();
        let implied = m.energy_per_op.value() * m.ops_per_sec;
        assert!((implied - m.active_power.value()).abs() / m.active_power.value() < 1e-9);
    }

    #[test]
    fn compute_energy_scales_with_ops() {
        let m = Mcu::cortex_m_class();
        let e = m.compute_energy(1_000_000);
        assert!((e.value() - 1e-4).abs() < 1e-12); // 1 Mop × 100 pJ = 100 µJ
    }
}
