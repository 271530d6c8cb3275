//! Emerging non-volatile memory device models.
//!
//! §2.3: *"Other emerging non-volatile storage technologies (e.g., STT-RAM,
//! PCRAM, and memristor) promise to disrupt the current design dichotomy
//! between volatile memory and non-volatile, long-term storage … yet
//! require re-architecting memory and storage systems to address the device
//! capabilities (e.g., longer, asymmetric, or variable latency, as well as
//! device wear out)."*
//!
//! Each [`NvmTech`] is parameterized by exactly those properties: read and
//! write latency (asymmetric), read and write energy (asymmetric), and
//! write endurance. [`NvmDevice`] tracks per-line wear so the Start-Gap
//! experiment in [`crate::wear`] can measure lifetime with and without
//! leveling.

use serde::{Deserialize, Serialize};

use xxi_core::units::{Energy, Seconds};

/// Non-volatile memory technology.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NvmTech {
    /// Phase-change memory.
    Pcm,
    /// Spin-transfer-torque magnetic RAM.
    SttRam,
    /// Resistive RAM / memristor.
    Memristor,
    /// NAND flash (block-erase granularity is abstracted to a high per-
    /// write cost and low endurance).
    Flash,
}

/// Device parameters for a 64-byte line access.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct NvmParams {
    /// Read latency.
    pub read_latency: Seconds,
    /// Write latency.
    pub write_latency: Seconds,
    /// Read energy per 64 B.
    pub read_energy: Energy,
    /// Write energy per 64 B.
    pub write_energy: Energy,
    /// Writes a cell endures before failing.
    pub endurance: u64,
    /// Standing (idle/refresh) power per GiB — zero for true NVM.
    pub idle_mw_per_gib: f64,
}

impl NvmTech {
    /// Literature-calibrated parameters (ISCA/MICRO 2009-2013 era surveys,
    /// which match the paper's vintage).
    pub fn params(self) -> NvmParams {
        match self {
            // PCM: reads ~2-4× DRAM latency, writes ~10×, endurance ~1e8.
            NvmTech::Pcm => NvmParams {
                read_latency: Seconds::from_ns(60.0),
                write_latency: Seconds::from_ns(300.0),
                read_energy: Energy::from_nj(2.0),
                write_energy: Energy::from_nj(30.0),
                endurance: 100_000_000,
                idle_mw_per_gib: 1.0,
            },
            // STT-RAM: near-DRAM reads, 2-3× writes, effectively unlimited
            // endurance (1e12 modeled as 1e12).
            NvmTech::SttRam => NvmParams {
                read_latency: Seconds::from_ns(20.0),
                write_latency: Seconds::from_ns(40.0),
                read_energy: Energy::from_nj(1.0),
                write_energy: Energy::from_nj(5.0),
                endurance: 1_000_000_000_000,
                idle_mw_per_gib: 0.5,
            },
            // Memristor/ReRAM: fast-ish reads, moderate writes, 1e9-1e10.
            NvmTech::Memristor => NvmParams {
                read_latency: Seconds::from_ns(30.0),
                write_latency: Seconds::from_ns(100.0),
                read_energy: Energy::from_nj(1.5),
                write_energy: Energy::from_nj(10.0),
                endurance: 5_000_000_000,
                idle_mw_per_gib: 0.5,
            },
            // Flash: microsecond reads, effective-millisecond program/erase
            // amortized, endurance ~1e5.
            NvmTech::Flash => NvmParams {
                read_latency: Seconds::from_us(25.0),
                write_latency: Seconds::from_us(200.0),
                read_energy: Energy::from_nj(250.0),
                write_energy: Energy::from_uj(2.0),
                endurance: 100_000,
                idle_mw_per_gib: 0.1,
            },
        }
    }
}

/// A line-addressed NVM array with per-line wear tracking.
#[derive(Clone, Debug)]
pub struct NvmDevice {
    tech: NvmTech,
    params: NvmParams,
    wear: Vec<u64>,
    reads: u64,
    writes: u64,
    failed_lines: u64,
}

impl NvmDevice {
    /// An array of `lines` 64-byte lines of `tech`.
    pub fn new(tech: NvmTech, lines: usize) -> NvmDevice {
        assert!(lines > 0);
        NvmDevice {
            tech,
            params: tech.params(),
            wear: vec![0; lines],
            reads: 0,
            writes: 0,
            failed_lines: 0,
        }
    }

    /// The technology.
    pub fn tech(&self) -> NvmTech {
        self.tech
    }

    /// Device parameters.
    pub fn params(&self) -> &NvmParams {
        &self.params
    }

    /// Number of lines.
    pub fn lines(&self) -> usize {
        self.wear.len()
    }

    /// Read line `idx`; returns latency.
    pub fn read(&mut self, idx: usize) -> Seconds {
        self.reads += 1;
        let _ = self.wear[idx]; // bounds-check as the real device would
        self.params.read_latency
    }

    /// Write line `idx`; returns latency. Each write wears the line; a
    /// line whose wear crosses the endurance budget is counted as failed
    /// (it keeps "working" so experiments can count total failures).
    pub fn write(&mut self, idx: usize) -> Seconds {
        self.writes += 1;
        self.wear[idx] += 1;
        if self.wear[idx] == self.params.endurance {
            self.failed_lines += 1;
        }
        self.params.write_latency
    }

    /// Reads served so far.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Writes served so far (the sum of every line's wear).
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Highest per-line wear.
    pub fn max_wear(&self) -> u64 {
        self.wear.iter().copied().max().unwrap_or(0)
    }

    /// Mean per-line wear.
    pub fn mean_wear(&self) -> f64 {
        self.wear.iter().sum::<u64>() as f64 / self.wear.len() as f64
    }

    /// Wear-imbalance factor: max/mean (1.0 = perfectly level). The figure
    /// of merit for wear leveling.
    pub fn wear_imbalance(&self) -> f64 {
        let mean = self.mean_wear();
        if mean == 0.0 {
            1.0
        } else {
            self.max_wear() as f64 / mean
        }
    }

    /// Lines that exceeded their endurance.
    pub fn failed_lines(&self) -> u64 {
        self.failed_lines
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn asymmetry_read_vs_write() {
        for tech in [
            NvmTech::Pcm,
            NvmTech::SttRam,
            NvmTech::Memristor,
            NvmTech::Flash,
        ] {
            let p = tech.params();
            assert!(
                p.write_latency.value() > p.read_latency.value(),
                "{tech:?} writes must be slower"
            );
            assert!(
                p.write_energy.value() > p.read_energy.value(),
                "{tech:?} writes must cost more energy"
            );
        }
    }

    #[test]
    fn technology_ordering_matches_literature() {
        let pcm = NvmTech::Pcm.params();
        let stt = NvmTech::SttRam.params();
        let flash = NvmTech::Flash.params();
        assert!(stt.read_latency.value() < pcm.read_latency.value());
        assert!(pcm.read_latency.value() < flash.read_latency.value());
        assert!(stt.endurance > pcm.endurance);
        assert!(pcm.endurance > flash.endurance);
    }

    #[test]
    fn nvm_idle_power_below_dram_refresh() {
        // The headline §2.3 advantage: no refresh.
        for tech in [
            NvmTech::Pcm,
            NvmTech::SttRam,
            NvmTech::Memristor,
            NvmTech::Flash,
        ] {
            assert!(tech.params().idle_mw_per_gib < 50.0);
        }
    }

    #[test]
    fn wear_accumulates_only_on_writes() {
        let mut d = NvmDevice::new(NvmTech::Pcm, 16);
        for _ in 0..10 {
            d.read(3);
        }
        assert_eq!(d.max_wear(), 0);
        for _ in 0..10 {
            d.write(3);
        }
        assert_eq!(d.max_wear(), 10);
        assert_eq!(d.reads(), 10);
        assert_eq!(d.writes(), 10);
    }

    #[test]
    fn line_fails_exactly_at_endurance() {
        let mut d = NvmDevice::new(NvmTech::Flash, 4);
        let endurance = d.params().endurance;
        for i in 0..endurance {
            assert_eq!(d.failed_lines(), 0, "failed early at write {i}");
            d.write(0);
        }
        assert_eq!(d.failed_lines(), 1);
    }

    #[test]
    fn wear_imbalance_metric() {
        let mut d = NvmDevice::new(NvmTech::Pcm, 4);
        // Uniform writes → imbalance 1.
        for i in 0..4 {
            d.write(i);
        }
        assert!((d.wear_imbalance() - 1.0).abs() < 1e-12);
        // Hammer one line → imbalance grows.
        for _ in 0..96 {
            d.write(0);
        }
        assert!(d.wear_imbalance() > 3.0);
        assert_eq!(d.max_wear(), 97);
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_access_panics() {
        let mut d = NvmDevice::new(NvmTech::Pcm, 4);
        d.read(4);
    }
}
