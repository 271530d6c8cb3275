//! `sensor-epochs`: E10's calls into xxi-sensor, single-threaded.
//!
//! Twelve short battery-bound runs (4 radios x 3 policies) replay one
//! seed; one long harvest-bound run keeps a ledger and a histogram and
//! synthesizes most of the samples. A change that helps the replays but
//! slows the long run shows here.

use xxi_core::des::fault::{Fault, FaultPlan};
use xxi_core::obs::{Layer, Trace};
use xxi_core::units::{Energy, Power, Seconds};
use xxi_core::SimTime;
use xxi_sensor::mcu::Mcu;
use xxi_sensor::node::{NodeOutcome, NodePolicy, SensorNode, SensorNodeConfig};
use xxi_sensor::power::{Battery, HarvestProfile, Harvester};
use xxi_sensor::radio::{Radio, RadioTech};

use crate::pass::{Check, Pass, Seeds};

const POLICIES: [NodePolicy; 3] = [
    NodePolicy::SendRaw,
    NodePolicy::CompressThenSend,
    NodePolicy::FilterThenSend,
];

pub struct Inputs {
    /// One node per radio, in E10's table order (BLE first).
    nodes: Vec<SensorNode>,
    battery: Battery,
    horizon: Seconds,
    epoch_dt: Seconds,
    life_seed: u64,
    breakdown_seed: u64,
    fault_seed: u64,
    /// Fault-free, two brownouts, radio killed at 50%: the instants are
    /// fractions of the fault-free lifetime, as in E10.
    plans: [FaultPlan; 3],
    /// The fault-free lifetime the plans were cut from.
    free_lifetime: f64,
    harvester: Harvester,
    observed_horizon: Seconds,
    observed_seed: u64,
}

pub fn setup(seeds: Seeds) -> Inputs {
    let cfg = SensorNodeConfig::default();
    let nodes: Vec<SensorNode> = [
        RadioTech::BleClass,
        RadioTech::ZigbeeClass,
        RadioTech::LoraClass,
        RadioTech::WifiClass,
    ]
    .into_iter()
    .map(|tech| SensorNode::new(cfg, Mcu::cortex_m_class(), Radio::new(tech)))
    .collect();
    let battery = Battery::new(Energy(1.0));
    let horizon = Seconds::from_hours(100_000.0);
    let fault_seed = seeds.or(4);

    // E10 cuts its brownout plans from the fault-free run's lifetime; the
    // benchmark runs that call once here so every plan exists before
    // timing starts (the pass repeats it and checks it reproduces).
    let free = nodes[0].run_faulted(
        NodePolicy::FilterThenSend,
        battery.clone(),
        horizon,
        fault_seed,
        &FaultPlan::new(),
    );
    let life = free.outcome.lifetime.value();
    let at = |frac: f64| SimTime::from_seconds(Seconds(life * frac));
    let mut brown = FaultPlan::new();
    for frac in [0.2, 0.4] {
        brown.at(at(frac), 0, Fault::Pause { for_time: at(0.05) });
    }
    let mut dead = FaultPlan::new();
    dead.at(at(0.5), 0, Fault::Kill);

    // A small indoor-solar cell: 150 uW peak on a 24 h cycle.
    let epoch_dt = Seconds(cfg.epoch_samples as f64 / cfg.sample_hz);
    let day_epochs = (24.0 * 3600.0 / epoch_dt.value()) as u64;
    let observed_seed = seeds.or(3);
    Inputs {
        nodes,
        battery,
        horizon,
        epoch_dt,
        life_seed: seeds.or(1),
        breakdown_seed: seeds.or(2),
        fault_seed,
        plans: [FaultPlan::new(), brown, dead],
        free_lifetime: life,
        harvester: Harvester::new(
            HarvestProfile::Solar,
            Power::from_uw(150.0),
            day_epochs.max(1),
            observed_seed,
        ),
        observed_horizon: Seconds::from_hours(500.0),
        observed_seed,
    }
}

impl Inputs {
    /// Epochs a run simulated: whole epochs lived, plus the one whose
    /// draw emptied the battery when it died before the horizon.
    fn epochs(&self, lifetime: Seconds, horizon: Seconds) -> u64 {
        let lived = (lifetime.value() / self.epoch_dt.value()).round() as u64;
        lived + u64::from(lifetime.value() < horizon.value())
    }

    fn outcome(&self, o: &NodeOutcome, horizon: Seconds, c: &mut Check<'_>) {
        c.num("lifetime_s", o.lifetime.value());
        c.int("bits_sent", o.bits_sent);
        c.num("recall", o.recall);
        c.num("radio_j", o.radio_energy.value());
        c.num("compute_j", o.compute_energy.value());
        c.law(
            o.lifetime.value() <= horizon.value() + self.epoch_dt.value(),
            || format!("lifetime {} s past the horizon", o.lifetime.value()),
        );
        c.law((0.0..=1.0).contains(&o.recall), || {
            format!("recall {} outside [0, 1]", o.recall)
        });
    }

    /// The plain runs spend only what the battery held.
    fn budget(&self, o: &NodeOutcome, c: &mut Check<'_>) {
        let spent = o.radio_energy.value() + o.compute_energy.value();
        let cap = self.battery.remaining().value();
        c.law(spent <= cap * (1.0 + 1e-12), || {
            format!("spent {spent} J from a {cap} J battery")
        });
    }

    fn samples(&self, c: &mut Check<'_>, epochs: u64) {
        c.count("sensor.epochs", epochs);
        c.count(
            "sensor.samples",
            epochs * SensorNodeConfig::default().epoch_samples as u64,
        );
    }
}

pub fn pass(inp: &Inputs, p: &mut Pass<'_>) {
    for node in &inp.nodes {
        for policy in POLICIES {
            p.call(
                "sensor.run",
                || node.run(policy, inp.battery.clone(), inp.horizon, inp.life_seed),
                |o, c| {
                    inp.outcome(o, inp.horizon, c);
                    inp.budget(o, c);
                    inp.samples(c, inp.epochs(o.lifetime, inp.horizon));
                },
            );
        }
    }

    // The send-raw energy breakdown (BLE).
    p.call(
        "sensor.run",
        || {
            inp.nodes[0].run(
                NodePolicy::SendRaw,
                inp.battery.clone(),
                inp.horizon,
                inp.breakdown_seed,
            )
        },
        |o, c| {
            inp.outcome(o, inp.horizon, c);
            inp.budget(o, c);
            inp.samples(c, inp.epochs(o.lifetime, inp.horizon));
        },
    );

    for (i, plan) in inp.plans.iter().enumerate() {
        p.call(
            "sensor.run_faulted",
            || {
                inp.nodes[0].run_faulted(
                    NodePolicy::FilterThenSend,
                    inp.battery.clone(),
                    inp.horizon,
                    inp.fault_seed,
                    plan,
                )
            },
            |f, c| {
                inp.outcome(&f.outcome, inp.horizon, c);
                c.int("deferred_epochs", f.deferred_epochs);
                c.num("probe_j", f.probe_energy.value());
                let m = &f.metrics;
                c.faults(m, true);
                c.int("anomaly_epochs", m.counter("sensor.anomaly_epochs"));
                c.int("reported_epochs", m.counter("sensor.reported_epochs"));
                c.law(
                    i != 0 || f.outcome.lifetime.value().to_bits() == inp.free_lifetime.to_bits(),
                    || "fault-free lifetime differs from the set-up run".to_string(),
                );
                inp.samples(c, m.counter("sensor.epochs"));
            },
        );
    }

    p.call(
        "sensor.run_observed",
        || {
            inp.nodes[0].run_observed(
                NodePolicy::FilterThenSend,
                inp.battery.clone(),
                Some(inp.harvester.clone()),
                inp.observed_horizon,
                inp.observed_seed,
                Trace::disabled(),
            )
        },
        |(o, obs), c| {
            inp.outcome(o, inp.observed_horizon, c);
            c.ledger(&obs.ledger);
            c.hist(&obs.epoch_energy);
            // The ledger's spend is the per-epoch draws, and its compute
            // and network layers are the outcome's totals. Harvest beyond
            // the battery's capacity is lost, so the battery's change is
            // bounded by (not equal to) harvest minus spend.
            let spent = obs.ledger.total_spent().value();
            let drawn = obs.epoch_energy.mean() * obs.epoch_energy.count() as f64;
            let harvest = obs.ledger.layer_total(Layer::Harvest).value();
            let cap = inp.battery.remaining().value();
            let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1e-12);
            c.law(close(spent, drawn), || {
                format!("ledger spend {spent} J != per-epoch draws {drawn} J")
            });
            c.law(
                close(
                    obs.ledger.layer_total(Layer::Compute).value(),
                    o.compute_energy.value(),
                ) && close(
                    obs.ledger.layer_total(Layer::Network).value(),
                    o.radio_energy.value(),
                ),
                || "ledger compute/network layers != the outcome's totals".to_string(),
            );
            c.law(spent <= cap + harvest + 1e-9, || {
                format!("spent {spent} J > battery {cap} J + harvest {harvest} J")
            });
            inp.samples(c, inp.epochs(o.lifetime, inp.observed_horizon));
        },
    );
}
