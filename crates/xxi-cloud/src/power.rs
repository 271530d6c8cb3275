//! Datacenter power models.
//!
//! §2.1: *"Memory and storage systems consume an increasing fraction of
//! the total data center power budget"*; §2.2 sets the target of "an
//! exa-op data center that consumes no more than 10 megawatts". The models
//! here supply the accounting: per-server power curves with (im)perfect
//! energy proportionality, the facility PUE multiplier, and the component
//! breakdown.

use xxi_core::units::{Frequency, Power};

/// A server's power curve.
#[derive(Clone, Copy, Debug)]
pub struct ServerPower {
    /// Power at idle.
    pub idle: Power,
    /// Power at full load.
    pub peak: Power,
    /// Throughput at full load, ops/s.
    pub peak_ops: Frequency,
    /// Fraction of server power in the memory + storage subsystem at peak.
    pub mem_storage_frac: f64,
}

impl ServerPower {
    /// A 2012-era commodity server: 100 W idle, 300 W peak, ~35% of peak
    /// in memory+storage.
    pub fn commodity_2012() -> ServerPower {
        ServerPower {
            idle: Power(100.0),
            peak: Power(300.0),
            peak_ops: Frequency(200e9), // 200 Gops/s
            mem_storage_frac: 0.35,
        }
    }

    /// Power at a load fraction `u ∈ [0,1]` (linear interpolation — the
    /// standard first-order model).
    pub fn at_load(&self, u: f64) -> Power {
        assert!((0.0..=1.0).contains(&u));
        self.idle + (self.peak - self.idle) * u
    }

    /// Energy proportionality: ratio of efficiency (ops/J) at load `u` to
    /// efficiency at peak. A perfectly proportional server scores 1.0
    /// everywhere; real servers score poorly at low load.
    // xxi-allow: model-reach -- checked by xxi lint (cloud-power-sanity)
    pub fn proportionality(&self, u: f64) -> f64 {
        assert!(u > 0.0 && u <= 1.0);
        let eff_u = (self.peak_ops.value() * u) / self.at_load(u).value();
        let eff_peak = self.peak_ops.value() / self.peak.value();
        eff_u / eff_peak
    }
}

/// A whole facility.
#[derive(Clone, Copy, Debug)]
pub struct DatacenterPower {
    /// Per-server curve.
    pub server: ServerPower,
    /// Number of servers.
    pub servers: u64,
    /// Power usage effectiveness (facility/IT power); 1.1 is excellent,
    /// ~1.9 was the 2012 industry average.
    pub pue: f64,
}

impl DatacenterPower {
    /// Total facility power with every server at load `u`.
    pub fn facility_power(&self, u: f64) -> Power {
        self.server.at_load(u) * self.servers as f64 * self.pue
    }

    /// Aggregate throughput at load `u`.
    pub fn throughput(&self, u: f64) -> Frequency {
        Frequency(self.server.peak_ops.value() * u * self.servers as f64)
    }

    /// Facility efficiency in ops/joule at load `u`.
    pub fn ops_per_joule(&self, u: f64) -> f64 {
        self.throughput(u).value() / self.facility_power(u).value()
    }

    /// Memory+storage share of facility IT power at load `u` (assumed to
    /// scale with the server total).
    // xxi-allow: model-reach -- checked by xxi lint (cloud-power-sanity)
    pub fn mem_storage_power(&self, u: f64) -> Power {
        self.server.at_load(u) * self.server.mem_storage_frac * self.servers as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_interpolation() {
        let s = ServerPower::commodity_2012();
        assert_eq!(s.at_load(0.0), Power(100.0));
        assert_eq!(s.at_load(1.0), Power(300.0));
        assert_eq!(s.at_load(0.5), Power(200.0));
    }

    #[test]
    fn poor_proportionality_at_low_load() {
        // The Barroso-Hölzle observation: servers spend their lives at
        // 10-50% load where efficiency is worst.
        let s = ServerPower::commodity_2012();
        assert!(s.proportionality(1.0) > 0.999);
        let p30 = s.proportionality(0.3);
        assert!((0.3..0.7).contains(&p30), "p30={p30}");
        let p10 = s.proportionality(0.1);
        assert!(p10 < 0.3, "p10={p10}");
    }

    #[test]
    fn facility_power_includes_pue() {
        let dc = DatacenterPower {
            server: ServerPower::commodity_2012(),
            servers: 10_000,
            pue: 1.5,
        };
        let p = dc.facility_power(1.0);
        assert!((p.value() - 300.0 * 10_000.0 * 1.5).abs() < 1.0);
        assert!((p.value() - 4.5e6).abs() < 1.0);
    }

    #[test]
    fn exa_op_at_10mw_needs_100x_efficiency() {
        // §2.2 pyramid: an exa-op (1e18 ops/s) facility in 10 MW needs
        // 1e11 ops/J; a 2012 commodity facility delivers ~1e9 — the 100×
        // gap the paper demands research close.
        let dc = DatacenterPower {
            server: ServerPower::commodity_2012(),
            servers: 50_000,
            pue: 1.5,
        };
        let achieved = dc.ops_per_joule(1.0);
        let needed = 1e18 / 10e6;
        let gap = needed / achieved;
        assert!((50.0..300.0).contains(&gap), "gap={gap}");
    }

    #[test]
    fn mem_storage_is_a_big_slice() {
        let dc = DatacenterPower {
            server: ServerPower::commodity_2012(),
            servers: 1000,
            pue: 1.2,
        };
        let frac = dc.mem_storage_power(1.0).value() / (dc.facility_power(1.0).value() / dc.pue);
        assert!((frac - 0.35).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn load_out_of_range_rejected() {
        ServerPower::commodity_2012().at_load(1.5);
    }
}
