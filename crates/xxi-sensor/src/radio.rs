//! Radio models: the energy cost of getting a bit off the node.
//!
//! The §2.1 claim under test in experiment E10 — "the energy required to
//! communicate data often outweighs that of computation" — is a statement
//! about these numbers: tens to hundreds of nanojoules per transmitted bit
//! versus picojoules per MCU operation, a gap of 3–5 orders of magnitude.
//! Calibration is to published link budgets of each technology class.

use serde::{Deserialize, Serialize};

use xxi_core::units::Energy;

/// Radio technology class.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RadioTech {
    /// Bluetooth-Low-Energy-class short-range radio.
    BleClass,
    /// 802.15.4/Zigbee-class mesh radio.
    ZigbeeClass,
    /// LoRa-class long-range low-rate radio.
    LoraClass,
    /// WiFi-class high-rate radio.
    WifiClass,
}

/// A radio instance.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct Radio {
    /// Technology.
    pub tech: RadioTech,
    /// Transmit energy per bit.
    pub tx_per_bit: Energy,
    /// Fixed energy to wake the radio and acquire the link, per packet
    /// burst.
    pub startup: Energy,
    /// Data rate in bits/s.
    pub rate_bps: f64,
}

impl Radio {
    /// Calibrated parameters per class.
    pub fn new(tech: RadioTech) -> Radio {
        match tech {
            // BLE: ~10-30 nJ/bit at 1 Mb/s, small connection events.
            RadioTech::BleClass => Radio {
                tech,
                tx_per_bit: Energy::from_nj(20.0),
                startup: Energy::from_uj(50.0),
                rate_bps: 1e6,
            },
            // Zigbee: ~100-200 nJ/bit at 250 kb/s.
            RadioTech::ZigbeeClass => Radio {
                tech,
                tx_per_bit: Energy::from_nj(150.0),
                startup: Energy::from_uj(100.0),
                rate_bps: 250e3,
            },
            // LoRa: millijoules per small packet ⇒ ~5 µJ/bit at 5 kb/s.
            RadioTech::LoraClass => Radio {
                tech,
                tx_per_bit: Energy::from_uj(5.0),
                startup: Energy::from_uj(200.0),
                rate_bps: 5e3,
            },
            // WiFi: efficient per bit (~5 nJ) but heavy startup.
            RadioTech::WifiClass => Radio {
                tech,
                tx_per_bit: Energy::from_nj(5.0),
                startup: Energy::from_mj(2.0),
                rate_bps: 20e6,
            },
        }
    }

    /// Energy to transmit one burst of `bits`.
    pub fn tx_energy(&self, bits: u64) -> Energy {
        self.startup + self.tx_per_bit * bits as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_bit_energy_ordering() {
        let ble = Radio::new(RadioTech::BleClass);
        let zig = Radio::new(RadioTech::ZigbeeClass);
        let lora = Radio::new(RadioTech::LoraClass);
        let wifi = Radio::new(RadioTech::WifiClass);
        assert!(wifi.tx_per_bit.value() < ble.tx_per_bit.value());
        assert!(ble.tx_per_bit.value() < zig.tx_per_bit.value());
        assert!(zig.tx_per_bit.value() < lora.tx_per_bit.value());
    }

    #[test]
    fn radio_bit_vs_compute_op_gap() {
        // The §2.1 energy argument: a BLE bit (20 nJ) vs an MCU op (~10 pJ
        // class): ≥3 orders of magnitude.
        let ble = Radio::new(RadioTech::BleClass);
        let mcu_op = Energy::from_pj(10.0);
        assert!(ble.tx_per_bit.value() / mcu_op.value() >= 1e3);
    }

    #[test]
    fn small_bursts_dominated_by_startup() {
        let wifi = Radio::new(RadioTech::WifiClass);
        let small = wifi.tx_energy(80); // 10 bytes
        assert!(small.value() / wifi.startup.value() < 1.01);
        let big = wifi.tx_energy(8_000_000); // 1 MB
        assert!(big.value() > 10.0 * wifi.startup.value());
    }

    #[test]
    fn wifi_beats_ble_only_for_big_bursts() {
        let wifi = Radio::new(RadioTech::WifiClass);
        let ble = Radio::new(RadioTech::BleClass);
        // The crossover is (2 mJ − 50 µJ)/(20 nJ − 5 nJ) = 130 kbit.
        assert!(wifi.tx_energy(131_000).value() < ble.tx_energy(131_000).value());
        assert!(wifi.tx_energy(129_000).value() > ble.tx_energy(129_000).value());
        assert!(wifi.tx_energy(1_000).value() > ble.tx_energy(1_000).value());
    }
}
