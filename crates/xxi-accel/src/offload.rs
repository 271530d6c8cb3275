//! Accelerator-coverage economics.
//!
//! An accelerator only pays off on the fraction of a workload it covers —
//! Amdahl's law with energy attached. §2.2 asks research to "broaden the
//! class of applicable problems"; this module quantifies *why*: with 100×
//! efficiency on the covered region, total-energy gains saturate at
//! `1/(1−c)` for coverage `c`, so the uncovered 50% caps the win at 2×.
//! Per-invocation offload energy (argument marshalling, kicking the
//! device, synchronization) further gates how fine-grained offload can be.

use xxi_core::units::Energy;

/// Offload scenario parameters.
#[derive(Clone, Copy, Debug)]
pub struct OffloadConfig {
    /// Fraction of dynamic work the accelerator covers, `0 ≤ c ≤ 1`.
    pub coverage: f64,
    /// Accelerator energy-efficiency factor on covered work.
    pub efficiency: f64,
    /// Number of accelerator invocations over the workload.
    pub invocations: u64,
}

impl OffloadConfig {
    fn validate(&self) {
        assert!((0.0..=1.0).contains(&self.coverage));
        assert!(self.efficiency >= 1.0);
    }
}

/// End-to-end energy of the offloaded workload relative to host-only
/// (returns the ratio `offloaded/host`, < 1 when offload wins), where
/// host-only execution costs `host_energy` and each invocation costs
/// `invoke_energy` on the host.
pub fn offload_energy(cfg: &OffloadConfig, host_energy: Energy, invoke_energy: Energy) -> f64 {
    cfg.validate();
    let covered = host_energy.value() * cfg.coverage;
    let uncovered = host_energy.value() - covered;
    let overhead = invoke_energy.value() * cfg.invocations as f64;
    (uncovered + covered / cfg.efficiency + overhead) / host_energy.value()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(coverage: f64) -> OffloadConfig {
        OffloadConfig {
            coverage,
            efficiency: 100.0,
            invocations: 100,
        }
    }

    #[test]
    fn energy_gain_saturates_at_coverage_limit() {
        let host = Energy(1.0);
        let inv = Energy::from_uj(1.0);
        for c in [0.3, 0.6, 0.9] {
            let ratio = offload_energy(&cfg(c), host, inv);
            let gain = 1.0 / ratio;
            // An infinitely efficient, overhead-free accelerator's gain.
            let limit = 1.0 / (1.0 - c);
            assert!(gain < limit + 1e-9, "c={c} gain={gain}");
            assert!(gain > 0.8 * limit, "c={c} gain={gain}");
        }
    }

    #[test]
    fn the_100x_accelerator_yields_2x_system_energy_at_half_coverage() {
        // The quantitative form of the paper's "broaden the class of
        // applicable problems" imperative.
        let ratio = offload_energy(&cfg(0.5), Energy(1.0), Energy::ZERO);
        let gain = 1.0 / ratio;
        assert!((1.9..2.01).contains(&gain), "gain={gain}");
    }

    #[test]
    fn invocation_overhead_kills_fine_grained_offload() {
        let host = Energy::from_mj(10.0); // 10 mJ workload
        let invoke = Energy::from_uj(1.0);
        let coarse = OffloadConfig {
            invocations: 10,
            ..cfg(0.9)
        };
        let fine = OffloadConfig {
            invocations: 100_000,
            ..cfg(0.9)
        };
        let e_coarse = offload_energy(&coarse, host, invoke);
        let e_fine = offload_energy(&fine, host, invoke);
        assert!(e_coarse < 0.2, "coarse={e_coarse}");
        assert!(e_fine > 5.0, "fine-grained offload must lose: {e_fine}");
    }

    #[test]
    fn zero_coverage_is_identity_minus_overhead() {
        let c = OffloadConfig {
            coverage: 0.0,
            invocations: 0,
            ..cfg(0.0)
        };
        assert!((offload_energy(&c, Energy(1.0), Energy(1.0)) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn coverage_above_one_rejected() {
        offload_energy(&cfg(1.5), Energy(1.0), Energy::ZERO);
    }
}
