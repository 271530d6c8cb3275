//! Device↔cloud offload planning — experiment E16.
//!
//! §2.1 "Putting It All Together — Eco-System Architecture": *"runtime
//! platforms … that allow programs to divide effort between the portable
//! platform and the cloud while responding dynamically to changes in the
//! reliability and energy efficiency of the cloud uplink. How should
//! computation be split between the nodes and cloud infrastructure?"*
//!
//! The planner compares three executions of an application stage:
//!
//! * **Local** — run on the device: device energy for compute, latency =
//!   ops/device-speed.
//! * **Remote** — ship input up, compute in the cloud, ship output down:
//!   device pays radio energy; latency = transfer + RTT + cloud compute.
//! * **Split** — fraction `s` of ops local with a (modelled) intermediate
//!   data transfer; the planner scans `s` for the best point.
//!
//! The decision flips with uplink bandwidth and RTT, producing the
//! decision map of E16.

use xxi_core::units::{Energy, Seconds};

/// What an application stage needs.
#[derive(Clone, Copy, Debug)]
pub struct AppProfile {
    /// Total operations.
    pub ops: f64,
    /// Input bytes that must reach wherever the compute runs.
    pub input_bytes: f64,
    /// Output bytes that must come back to the device.
    pub output_bytes: f64,
    /// Intermediate state bytes exchanged if the stage is split.
    pub split_bytes: f64,
}

impl AppProfile {
    /// A compute-heavy, data-light stage (e.g. speech recognition on a
    /// short utterance): offload-friendly.
    pub fn compute_heavy() -> AppProfile {
        AppProfile {
            ops: 5e9,
            input_bytes: 100e3,
            output_bytes: 1e3,
            split_bytes: 50e3,
        }
    }

    /// A data-heavy, compute-light stage (e.g. local video filtering):
    /// offload-hostile.
    pub fn data_heavy() -> AppProfile {
        AppProfile {
            ops: 2e8,
            input_bytes: 50e6,
            output_bytes: 50e6,
            split_bytes: 10e6,
        }
    }
}

/// The portable device's compute/radio characteristics.
#[derive(Clone, Copy, Debug)]
pub struct DeviceModel {
    /// Device throughput, ops/s.
    pub ops_per_sec: f64,
    /// Device energy per op.
    pub energy_per_op: Energy,
    /// Radio energy per transmitted or received bit.
    pub radio_per_bit: Energy,
    /// Cloud throughput for this app, ops/s (includes cloud parallelism).
    pub cloud_ops_per_sec: f64,
}

impl DeviceModel {
    /// A smartphone-class device against a rack of cloud servers.
    pub fn phone_vs_rack() -> DeviceModel {
        DeviceModel {
            ops_per_sec: 10e9,
            energy_per_op: Energy::from_pj(300.0),
            radio_per_bit: Energy::from_nj(20.0),
            cloud_ops_per_sec: 500e9,
        }
    }
}

/// The network between them.
#[derive(Clone, Copy, Debug)]
pub struct Uplink {
    /// Bandwidth in bits/s (both directions, simplified).
    pub bps: f64,
    /// Round-trip time.
    pub rtt: Seconds,
}

/// The planner's decision.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Decision {
    /// Run entirely on the device.
    Local,
    /// Run entirely in the cloud.
    Remote,
    /// Run `local_fraction` of ops locally.
    Split {
        /// Fraction of ops executed on the device.
        local_fraction: f64,
    },
}

/// A costed plan.
#[derive(Clone, Copy, Debug)]
pub struct OffloadPlan {
    /// The chosen decision.
    pub decision: Decision,
    /// End-to-end latency.
    pub latency: Seconds,
    /// Energy drawn from the device battery.
    pub device_energy: Energy,
}

fn cost(
    app: &AppProfile,
    dev: &DeviceModel,
    up: &Uplink,
    local_fraction: f64,
) -> (Seconds, Energy) {
    assert!((0.0..=1.0).contains(&local_fraction));
    let local_ops = app.ops * local_fraction;
    let remote_ops = app.ops - local_ops;
    let mut latency = local_ops / dev.ops_per_sec;
    let mut energy = dev.energy_per_op.value() * local_ops;
    if remote_ops > 0.0 {
        // Bits that must travel: full input (cloud needs it) unless fully
        // local; intermediate for splits; output back down.
        let up_bytes = if local_fraction == 0.0 {
            app.input_bytes
        } else {
            app.split_bytes
        };
        let bits = (up_bytes + app.output_bytes) * 8.0;
        latency += bits / up.bps + up.rtt.value() + remote_ops / dev.cloud_ops_per_sec;
        energy += dev.radio_per_bit.value() * bits;
    }
    (Seconds(latency), Energy(energy))
}

/// Pick the plan minimizing `latency + lambda·energy` (scalarized); with
/// `lambda = 0` it is pure latency, large `lambda` is pure battery. Scans
/// Local, Remote, and nine split points.
pub fn plan_offload(
    app: &AppProfile,
    dev: &DeviceModel,
    up: &Uplink,
    lambda_s_per_joule: f64,
) -> OffloadPlan {
    let mut best: Option<(f64, Decision, Seconds, Energy)> = None;
    let mut consider = |dec: Decision, frac: f64| {
        let (lat, en) = cost(app, dev, up, frac);
        let score = lat.value() + lambda_s_per_joule * en.value();
        if best.as_ref().map(|(s, ..)| score < *s).unwrap_or(true) {
            best = Some((score, dec, lat, en));
        }
    };
    consider(Decision::Local, 1.0);
    consider(Decision::Remote, 0.0);
    for i in 1..10 {
        let f = i as f64 / 10.0;
        consider(Decision::Split { local_fraction: f }, f);
    }
    let (_, decision, latency, device_energy) = best.unwrap(); // xxi-allow: panic-path -- candidate list is non-empty
    OffloadPlan {
        decision,
        latency,
        device_energy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_uplink() -> Uplink {
        Uplink {
            bps: 50e6,
            rtt: Seconds::from_ms(20.0),
        }
    }

    fn slow_uplink() -> Uplink {
        Uplink {
            bps: 0.5e6,
            rtt: Seconds::from_ms(300.0),
        }
    }

    #[test]
    fn compute_heavy_offloads_on_fast_network() {
        let p = plan_offload(
            &AppProfile::compute_heavy(),
            &DeviceModel::phone_vs_rack(),
            &fast_uplink(),
            0.0,
        );
        assert_eq!(p.decision, Decision::Remote, "{p:?}");
        // Offload must beat the local 0.5 s compute time.
        assert!(p.latency.value() < 0.2, "latency={:?}", p.latency);
    }

    #[test]
    fn data_heavy_stays_local_even_on_fast_network() {
        let p = plan_offload(
            &AppProfile::data_heavy(),
            &DeviceModel::phone_vs_rack(),
            &fast_uplink(),
            0.0,
        );
        assert_eq!(p.decision, Decision::Local, "{p:?}");
    }

    #[test]
    fn slow_network_forces_local() {
        let p = plan_offload(
            &AppProfile::compute_heavy(),
            &DeviceModel::phone_vs_rack(),
            &slow_uplink(),
            0.0,
        );
        assert_eq!(p.decision, Decision::Local, "{p:?}");
    }

    #[test]
    fn battery_weight_changes_the_decision() {
        // On a mid-speed network, latency prefers remote but radio energy
        // is expensive: a battery-heavy objective flips to local/split.
        let app = AppProfile::compute_heavy();
        let dev = DeviceModel::phone_vs_rack();
        let up = Uplink {
            bps: 5e6,
            rtt: Seconds::from_ms(50.0),
        };
        let latency_first = plan_offload(&app, &dev, &up, 0.0);
        let battery_first = plan_offload(&app, &dev, &up, 10.0);
        assert_ne!(latency_first.decision, battery_first.decision);
        assert!(battery_first.device_energy.value() <= latency_first.device_energy.value());
    }

    #[test]
    fn planner_never_worse_than_both_pure_policies() {
        // Property: the chosen plan's scalarized score ≤ Local's and
        // Remote's, across a grid of networks.
        let app = AppProfile::compute_heavy();
        let dev = DeviceModel::phone_vs_rack();
        for bps in [0.2e6, 2e6, 20e6, 200e6] {
            for rtt_ms in [5.0, 50.0, 500.0] {
                let up = Uplink {
                    bps,
                    rtt: Seconds::from_ms(rtt_ms),
                };
                for lambda in [0.0, 1.0] {
                    let plan = plan_offload(&app, &dev, &up, lambda);
                    let score = plan.latency.value() + lambda * plan.device_energy.value();
                    let (ll, le) = super::cost(&app, &dev, &up, 1.0);
                    let (rl, re) = super::cost(&app, &dev, &up, 0.0);
                    assert!(score <= ll.value() + lambda * le.value() + 1e-12);
                    assert!(score <= rl.value() + lambda * re.value() + 1e-12);
                }
            }
        }
    }
}
