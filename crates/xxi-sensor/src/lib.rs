//! # xxi-sensor
//!
//! Smart-sensor node simulation for the `xxi-arch` framework.
//!
//! §2.1 ("Smart Sensing and Computing"): *"the central requirement is to
//! compute within very tight energy, form-factor, and cost constraints …
//! the energy required to communicate data often outweighs that of
//! computation"*, with "intermittent power (e.g., from harvested energy)"
//! called out as a defining opportunity. Modules:
//!
//! * [`power`] — batteries (finite energy stores) and stochastic energy
//!   harvesters (solar-like day/night cycles, vibration bursts).
//! * [`radio`] — radio technologies with per-bit transmit energy, startup
//!   cost, and data rate (BLE-class, Zigbee-class, LoRa-class, WiFi-class).
//! * [`mcu`] — the microcontroller: active/sleep power, energy per op,
//!   duty cycling.
//! * [`node`] — the whole sensor node: sample → (optionally filter/
//!   compress) → transmit, under three policies; computes battery lifetime
//!   (experiment E10: on-sensor filtering vs send-raw).

pub mod mcu;
pub mod node;
pub mod power;
pub mod radio;

pub use mcu::Mcu;
pub use node::{
    lane_isa, FaultedNodeOutcome, NodeObservation, NodePolicy, SensorNode, SensorNodeConfig,
};
pub use power::{Battery, Harvester};
pub use radio::{Radio, RadioTech};
