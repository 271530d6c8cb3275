//! Banked DRAM with row-buffer locality.
//!
//! DRAM is the incumbent that §2.3's emerging NVMs challenge. The model
//! captures the two per-access properties the experiments compare against
//! NVM: row-buffer locality (open-page hits are fast and cheap) and
//! destructive reads requiring activation energy. Refresh, the standing
//! power NVMs do not pay, is E12's 50 mW/GiB reference row.

use xxi_core::metrics::Metrics;
use xxi_core::units::{Energy, Seconds};

/// DRAM geometry and timing/energy parameters. The page policy is open:
/// a row stays open after an access, betting on locality.
#[derive(Clone, Debug)]
pub struct DramConfig {
    /// Number of independent banks.
    pub banks: usize,
    /// Row (page) size in bytes.
    pub row_bytes: u64,
    /// Activate (RAS-to-CAS) delay.
    pub t_rcd: Seconds,
    /// Precharge delay.
    pub t_rp: Seconds,
    /// Column access (CAS) latency.
    pub t_cas: Seconds,
    /// Energy to activate a row.
    pub e_activate: Energy,
    /// Energy to transfer one 64-byte burst.
    pub e_burst: Energy,
}

impl Default for DramConfig {
    /// DDR3-1600-class timings: tRCD = tRP ≈ 13.75 ns, tCAS ≈ 13.75 ns;
    /// activate ≈ 2 nJ/row, burst ≈ 6 nJ incl. I/O.
    fn default() -> DramConfig {
        DramConfig {
            banks: 8,
            row_bytes: 8192,
            t_rcd: Seconds::from_ns(13.75),
            t_rp: Seconds::from_ns(13.75),
            t_cas: Seconds::from_ns(13.75),
            e_activate: Energy::from_nj(2.0),
            e_burst: Energy::from_nj(6.0),
        }
    }
}

/// The DRAM device model.
#[derive(Clone, Debug)]
pub struct Dram {
    cfg: DramConfig,
    /// Open row per bank (`None` = precharged).
    open_rows: Vec<Option<u64>>,
    /// `accesses`, `row_hits`, `row_misses`, `row_conflicts`, `activates`.
    pub metrics: Metrics,
}

/// Result of one DRAM access.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DramAccess {
    /// Total access latency.
    pub latency: Seconds,
    /// Energy consumed by this access (excludes standing refresh).
    pub energy: Energy,
}

impl Dram {
    /// Build a device.
    pub fn new(cfg: DramConfig) -> Dram {
        assert!(cfg.banks > 0 && cfg.row_bytes.is_power_of_two());
        Dram {
            open_rows: vec![None; cfg.banks],
            cfg,
            metrics: Metrics::new(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    #[inline]
    fn locate(&self, addr: u64) -> (usize, u64) {
        let row_addr = addr / self.cfg.row_bytes;
        (
            (row_addr % self.cfg.banks as u64) as usize,
            row_addr / self.cfg.banks as u64,
        )
    }

    /// Access one 64-byte burst at `addr`.
    pub fn access(&mut self, addr: u64) -> DramAccess {
        self.metrics.incr("accesses");
        let (bank, row) = self.locate(addr);
        let mut latency = self.cfg.t_cas;
        let mut energy = self.cfg.e_burst;
        match self.open_rows[bank] {
            Some(open) if open == row => self.metrics.incr("row_hits"),
            Some(_) => {
                // Conflict: precharge + activate + cas.
                self.metrics.incr("row_conflicts");
                self.metrics.incr("activates");
                latency += self.cfg.t_rp + self.cfg.t_rcd;
                energy += self.cfg.e_activate;
            }
            None => {
                // Miss on a precharged bank: activate + cas.
                self.metrics.incr("row_misses");
                self.metrics.incr("activates");
                latency += self.cfg.t_rcd;
                energy += self.cfg.e_activate;
            }
        }
        self.open_rows[bank] = Some(row);
        DramAccess { latency, energy }
    }

    /// Row-buffer hit rate so far.
    pub fn row_hit_rate(&self) -> f64 {
        self.metrics.ratio("row_hits", "accesses")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_streams_hit_the_row_buffer() {
        let mut d = Dram::new(DramConfig::default());
        for a in (0..8192u64).step_by(64) {
            d.access(a);
        }
        // First access opens the row; the remaining 127 hit.
        assert_eq!(d.metrics.counter("row_hits"), 127);
        assert_eq!(d.metrics.counter("activates"), 1);
        assert!(d.row_hit_rate() > 0.99 - 1.0 / 128.0);
    }

    #[test]
    fn row_hits_are_faster_and_cheaper() {
        let mut d = Dram::new(DramConfig::default());
        let miss = d.access(0);
        let hit = d.access(64);
        assert_eq!(d.metrics.counter("row_hits"), 1);
        assert!(hit.latency.value() < miss.latency.value());
        assert!(hit.energy.value() < miss.energy.value());
        // Hit = CAS only.
        assert!((hit.latency.value() - 13.75e-9).abs() < 1e-15);
        // Miss = RCD + CAS.
        assert!((miss.latency.value() - 27.5e-9).abs() < 1e-15);
    }

    #[test]
    fn bank_conflict_pays_precharge() {
        let cfg = DramConfig::default();
        let row_bytes = cfg.row_bytes;
        let banks = cfg.banks as u64;
        let mut d = Dram::new(cfg);
        // Two different rows in the same bank: row k and row k + banks.
        d.access(0);
        let conflict = d.access(row_bytes * banks);
        assert_eq!(d.metrics.counter("row_hits"), 0);
        assert_eq!(d.metrics.counter("row_conflicts"), 1);
        // RP + RCD + CAS.
        assert!((conflict.latency.value() - 41.25e-9).abs() < 1e-15);
    }

    #[test]
    fn interleaved_banks_avoid_conflicts() {
        let cfg = DramConfig::default();
        let row_bytes = cfg.row_bytes;
        let mut d = Dram::new(cfg);
        // Touch one row in each of the 8 banks, then touch them again:
        // second round is all hits under the open policy.
        for b in 0..8u64 {
            d.access(b * row_bytes);
        }
        for b in 0..8u64 {
            d.access(b * row_bytes + 64);
        }
        assert_eq!(d.metrics.counter("row_hits"), 8);
        assert_eq!(d.metrics.counter("row_conflicts"), 0);
    }
}
