//! The invariant-checking co-processor — experiment E15.
//!
//! §2.4: *"Current highly-redundant approaches are not energy efficient; we
//! recommend research in lower-overhead approaches that employ dynamic
//! (hardware) checking of invariants supplied by software."*
//!
//! The model: an application maintains a state region; software supplies an
//! invariant (here, an incrementally-maintained checksum — the archetypal
//! software-visible invariant). A small checker co-processor re-derives the
//! invariant every `check_period` updates and compares. Faults corrupt the
//! region between checks.
//!
//! The baseline is **dual-modular redundancy (DMR)**: execute everything
//! twice and compare, ~100% detection at ~100% energy overhead. The
//! checker detects any corruption that *changes the checksum* (all
//! single-word corruptions here, a calibrated fraction in general),
//! at an energy overhead of one lightweight pass per period — the
//! coverage-per-joule argument the paper makes.

use xxi_core::rng::Rng64;
use xxi_core::units::Energy;

/// Checker configuration.
#[derive(Clone, Copy, Debug)]
pub struct CheckerConfig {
    /// Updates between invariant checks.
    pub check_period: u64,
    /// Energy per application update (the work being protected).
    pub e_update: Energy,
    /// Energy for the checker to verify the region once.
    pub e_check: Energy,
}

/// A state region protected by a software-supplied checksum invariant.
pub struct CheckedRegion {
    data: Vec<u64>,
    /// What the software believes it wrote (its own bookkeeping); the
    /// invariant is derived from this, never from possibly-corrupted
    /// memory.
    shadow: Vec<u64>,
    /// The invariant the software maintains.
    shadow_checksum: u64,
    cfg: CheckerConfig,
    updates: u64,
    corruptions_injected: u64,
    detected: u64,
    /// Updates executed since the last check (detection latency proxy).
    since_check: u64,
    detection_latencies: Vec<u64>,
    energy_app: Energy,
    energy_check: Energy,
}

fn checksum(data: &[u64]) -> u64 {
    // Position-sensitive checksum (Fletcher-style) so swaps are caught too.
    let mut a: u64 = 0;
    let mut b: u64 = 0;
    for &w in data {
        a = a.wrapping_add(w);
        b = b.wrapping_add(a);
    }
    a ^ b.rotate_left(32)
}

impl CheckedRegion {
    /// A region of `n` words under `cfg`.
    pub fn new(n: usize, cfg: CheckerConfig, seed: u64) -> CheckedRegion {
        let mut rng = Rng64::new(seed);
        let data: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
        let shadow = data.clone();
        let shadow_checksum = checksum(&data);
        CheckedRegion {
            data,
            shadow,
            shadow_checksum,
            cfg,
            updates: 0,
            corruptions_injected: 0,
            detected: 0,
            since_check: 0,
            detection_latencies: Vec::new(),
            energy_app: Energy::ZERO,
            energy_check: Energy::ZERO,
        }
    }

    /// One legitimate application update: writes a word *and* maintains the
    /// invariant (as correct software would). Periodically the checker
    /// fires.
    pub fn update(&mut self, idx: usize, value: u64) {
        self.data[idx] = value;
        self.shadow[idx] = value;
        self.shadow_checksum = checksum(&self.shadow); // software-maintained
        self.updates += 1;
        self.since_check += 1;
        self.energy_app += self.cfg.e_update;
        if self.updates.is_multiple_of(self.cfg.check_period) {
            self.run_check();
        }
    }

    /// A fault: corrupts a word *without* maintaining the invariant.
    pub fn corrupt(&mut self, idx: usize, xor: u64) {
        assert!(xor != 0, "a zero xor is not a corruption");
        self.data[idx] ^= xor;
        self.corruptions_injected += 1;
    }

    fn run_check(&mut self) {
        self.energy_check += self.cfg.e_check;
        let actual = checksum(&self.data);
        if actual != self.shadow_checksum {
            self.detected += 1;
            self.detection_latencies.push(self.since_check);
            // Recovery: restore from the software's copy (a real system
            // would roll back to a checkpoint).
            self.data.copy_from_slice(&self.shadow);
        }
        self.since_check = 0;
    }

    /// Corruption events detected.
    pub fn detected(&self) -> u64 {
        self.detected
    }

    /// Corruption events injected.
    pub fn injected(&self) -> u64 {
        self.corruptions_injected
    }

    /// Fraction of the application's energy spent on checking.
    pub fn energy_overhead(&self) -> f64 {
        self.energy_check.value() / self.energy_app.value().max(1e-30)
    }

    /// Mean updates between a corruption's check-window start and its
    /// detection (bounded by `check_period`).
    pub fn mean_detection_latency(&self) -> f64 {
        if self.detection_latencies.is_empty() {
            return 0.0;
        }
        self.detection_latencies.iter().sum::<u64>() as f64 / self.detection_latencies.len() as f64
    }
}

/// DMR baseline: detection coverage and energy overhead of full dual
/// execution with comparison.
pub fn dmr_coverage_and_overhead() -> (f64, f64) {
    (0.9999, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(period: u64) -> CheckerConfig {
        CheckerConfig {
            check_period: period,
            e_update: Energy::from_pj(100.0),
            e_check: Energy::from_pj(150.0), // one lightweight checker sweep
        }
    }

    #[test]
    fn clean_run_detects_nothing() {
        let mut r = CheckedRegion::new(64, cfg(10), 1);
        let mut rng = Rng64::new(2);
        for i in 0..1000 {
            r.update(i % 64, rng.next_u64());
        }
        assert_eq!(r.detected(), 0);
        assert_eq!(r.injected(), 0);
    }

    #[test]
    fn every_corruption_window_is_detected() {
        let mut r = CheckedRegion::new(64, cfg(10), 3);
        let mut rng = Rng64::new(4);
        let mut windows = 0;
        for round in 0..100 {
            // One corruption per window, in the region the app never
            // rewrites (indices 50..64), so overwrite-healing can't hide it.
            r.corrupt(50 + (round * 7) % 14, 0xDEAD_0000_0000_0001);
            windows += 1;
            for i in 0..50 {
                r.update(i % 50, rng.next_u64());
            }
        }
        assert_eq!(r.detected(), windows, "every corruption must be caught");
    }

    #[test]
    fn detection_latency_bounded_by_period() {
        let mut r = CheckedRegion::new(32, cfg(8), 5);
        let mut rng = Rng64::new(6);
        for round in 0..50 {
            r.corrupt(round % 32, 1 << (round % 60));
            for i in 0..24 {
                r.update(i % 32, rng.next_u64());
            }
        }
        assert!(r.mean_detection_latency() <= 8.0);
        assert!(r.mean_detection_latency() > 0.0);
    }

    #[test]
    fn checker_energy_overhead_beats_dmr() {
        // The paper's pitch: invariant checking gets most of the coverage
        // at a small fraction of DMR's 100% energy overhead.
        let mut r = CheckedRegion::new(64, cfg(10), 7);
        let mut rng = Rng64::new(8);
        for i in 0..10_000 {
            r.update(i % 64, rng.next_u64());
        }
        let overhead = r.energy_overhead();
        let (_, dmr_overhead) = dmr_coverage_and_overhead();
        assert!(overhead < 0.2 * dmr_overhead, "overhead={overhead}");
        assert!(overhead > 0.0);
    }

    #[test]
    fn longer_period_cheaper_but_slower_detection() {
        let run = |period| {
            let mut r = CheckedRegion::new(64, cfg(period), 9);
            let mut rng = Rng64::new(10);
            for round in 0..100 {
                r.corrupt(round % 64, 0xF0F0);
                for i in 0..period as usize * 3 {
                    r.update(i % 64, rng.next_u64());
                }
            }
            (r.energy_overhead(), r.mean_detection_latency())
        };
        let (oh_fast, lat_fast) = run(5);
        let (oh_slow, lat_slow) = run(50);
        assert!(oh_slow < oh_fast);
        assert!(lat_slow > lat_fast);
    }

    #[test]
    #[should_panic]
    fn zero_xor_rejected() {
        let mut r = CheckedRegion::new(4, cfg(2), 1);
        r.corrupt(0, 0);
    }
}
