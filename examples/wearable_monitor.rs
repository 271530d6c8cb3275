//! Data-centric personalized healthcare (Table A.1, scenario 1).
//!
//! A wearable ECG-class monitor on a coin cell must get clinically
//! relevant events to the phone/cloud. The paper's §2.1 claim: computing
//! on-sensor beats transmitting raw data, because radio bits cost orders
//! of magnitude more than MCU ops. This example sizes that decision for
//! four radio technologies and three processing policies.
//!
//! Run with: `cargo run --example wearable_monitor`

use xxi::core::table::fnum;
use xxi::core::units::{Energy, Seconds};
use xxi::core::Table;
use xxi::sensor::mcu::Mcu;
use xxi::sensor::node::{NodePolicy, SensorNode, SensorNodeConfig};
use xxi::sensor::power::Battery;
use xxi::sensor::radio::{Radio, RadioTech};

fn main() {
    println!("== Wearable health monitor: policy x radio -> battery life ==\n");
    let horizon = Seconds::from_hours(24.0 * 365.0);
    let mut t = Table::new(&[
        "radio",
        "send-raw (days)",
        "compress (days)",
        "filter (days)",
        "filter recall",
    ]);
    for tech in [
        RadioTech::BleClass,
        RadioTech::ZigbeeClass,
        RadioTech::LoraClass,
        RadioTech::WifiClass,
    ] {
        let node = SensorNode::new(
            SensorNodeConfig::default(),
            Mcu::cortex_m_class(),
            Radio::new(tech),
        );
        // A 1%-of-coin-cell budget keeps the simulation quick; lifetimes
        // scale linearly with capacity.
        let budget = || Battery::new(Energy(24.3));
        let scale = 100.0; // scale back to a full coin cell
        let raw = node.run(NodePolicy::SendRaw, budget(), horizon, 1);
        let comp = node.run(NodePolicy::CompressThenSend, budget(), horizon, 1);
        let filt = node.run(NodePolicy::FilterThenSend, budget(), horizon, 1);
        let days = |s: Seconds| fnum(s.value() * scale / 86_400.0);
        t.row(&[
            format!("{tech:?}"),
            days(raw.lifetime),
            days(comp.lifetime),
            days(filt.lifetime),
            fnum(filt.recall),
        ]);
    }
    print!("{}", t.render());

    println!("\nOn-sensor filtering extends life by ~an order of magnitude.");
}
