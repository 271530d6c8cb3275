//! Start-Gap wear leveling (Qureshi et al., MICRO 2009).
//!
//! PCM's ~10⁸-write endurance is useless if the OS keeps rewriting one hot
//! counter line: the device dies when its *hottest* line dies. Start-Gap is
//! the classic algebraic remedy the §2.3 "device wear out" agenda calls
//! for: instead of a remapping table, two registers (`start`, `gap`) define
//! a slowly rotating bijection from logical to physical lines, so hot
//! logical lines migrate across the whole physical array.
//!
//! Mechanics (exactly as published):
//!
//! * The physical array has `n + 1` lines for `n` logical lines; the spare
//!   is the "gap".
//! * Mapping: `pa = (la + start) mod n`, then `pa += 1` if `pa ≥ gap`.
//! * Every `psi` writes, the gap moves down one slot (one extra device
//!   write to copy the displaced line); when it wraps, `start` advances —
//!   after `n·(n+1)·psi` writes every logical line has visited every
//!   physical slot.
//!
//! The write overhead is `1/psi` (one extra write per `psi` demand writes).

use crate::nvm::NvmDevice;
use xxi_core::units::Seconds;

/// Start-Gap wear-leveling layer over an [`NvmDevice`].
///
/// ```
/// use xxi_mem::nvm::{NvmDevice, NvmTech};
/// use xxi_mem::wear::StartGap;
/// let mut sg = StartGap::new(NvmDevice::new(NvmTech::Pcm, 9), 4);
/// for _ in 0..1000 { sg.write(0); }   // hammer one logical line
/// // Wear is spread: no physical line absorbed it all.
/// assert!(sg.device().max_wear() < 1000);
/// ```
#[derive(Clone, Debug)]
pub struct StartGap {
    device: NvmDevice,
    /// Logical lines (device has `n + 1`).
    n: usize,
    start: usize,
    gap: usize,
    psi: u64,
    writes_since_move: u64,
    gap_moves: u64,
}

impl StartGap {
    /// Wrap `device` (which must have `n + 1` lines) exposing `n` logical
    /// lines, moving the gap every `psi` demand writes. The published
    /// sweet spot is `psi = 100` (1% overhead).
    pub fn new(device: NvmDevice, psi: u64) -> StartGap {
        assert!(device.lines() >= 2, "need at least one logical line + gap");
        assert!(psi >= 1);
        let n = device.lines() - 1;
        StartGap {
            device,
            n,
            start: 0,
            gap: n,
            psi,
            writes_since_move: 0,
            gap_moves: 0,
        }
    }

    /// Translate a logical line to its current physical line.
    pub fn translate(&self, la: usize) -> usize {
        assert!(la < self.n, "logical address out of range");
        let mut pa = (la + self.start) % self.n;
        if pa >= self.gap {
            pa += 1;
        }
        pa
    }

    /// Read logical line `la`.
    pub fn read(&mut self, la: usize) -> Seconds {
        let pa = self.translate(la);
        self.device.read(pa)
    }

    /// Write logical line `la`; periodically performs a gap move (which
    /// costs one additional device write).
    pub fn write(&mut self, la: usize) -> Seconds {
        let pa = self.translate(la);
        let lat = self.device.write(pa);
        self.writes_since_move += 1;
        if self.writes_since_move >= self.psi {
            self.writes_since_move = 0;
            self.move_gap();
        }
        lat
    }

    /// One gap-move step: copy line `gap − 1` into the gap slot (a device
    /// write), then the gap takes its place.
    fn move_gap(&mut self) {
        self.gap_moves += 1;
        if self.gap == 0 {
            // Gap wraps to the top; start advances, completing one rotation
            // step of the whole mapping.
            self.gap = self.n;
            self.start = (self.start + 1) % self.n;
        } else {
            // Copy displaced line into the current gap slot.
            self.device.write(self.gap);
            self.gap -= 1;
        }
    }

    /// Gap moves performed so far.
    pub fn gap_moves(&self) -> u64 {
        self.gap_moves
    }

    /// Borrow the underlying device (wear statistics etc.).
    pub fn device(&self) -> &NvmDevice {
        &self.device
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nvm::NvmTech;
    use std::collections::HashSet;

    fn fresh(n_logical: usize, psi: u64) -> StartGap {
        StartGap::new(NvmDevice::new(NvmTech::Pcm, n_logical + 1), psi)
    }

    #[test]
    fn mapping_is_injective_always() {
        let mut sg = fresh(17, 3);
        for step in 0..500 {
            let pas: HashSet<usize> = (0..17).map(|la| sg.translate(la)).collect();
            assert_eq!(pas.len(), 17, "collision after {step} writes");
            assert!(!pas.contains(&sg.gap), "mapped onto the gap");
            sg.write(step % 17);
        }
    }

    #[test]
    fn identity_mapping_initially() {
        let sg = fresh(8, 100);
        for la in 0..8 {
            assert_eq!(sg.translate(la), la);
        }
    }

    #[test]
    fn gap_moves_every_psi_writes() {
        let mut sg = fresh(8, 10);
        for _ in 0..9 {
            sg.write(0);
        }
        assert_eq!(sg.gap_moves(), 0);
        sg.write(0);
        assert_eq!(sg.gap_moves(), 1);
        for _ in 0..10 {
            sg.write(0);
        }
        assert_eq!(sg.gap_moves(), 2);
    }

    #[test]
    fn hot_line_migrates_across_physical_array() {
        // Hammer logical line 0; after enough gap moves it must occupy
        // many distinct physical slots.
        let mut sg = fresh(16, 4);
        let mut seen = HashSet::new();
        for _ in 0..16 * 17 * 4 {
            seen.insert(sg.translate(0));
            sg.write(0);
        }
        assert!(
            seen.len() >= 16,
            "hot line only visited {} slots",
            seen.len()
        );
    }

    #[test]
    fn leveling_flattens_wear_under_hotspot() {
        // The E12 headline: under a single-line hotspot, Start-Gap brings
        // max/mean wear from ~n down toward a small constant.
        let n = 64;
        let writes = 200_000u64;

        // Baseline: no leveling.
        let mut raw = NvmDevice::new(NvmTech::Pcm, n + 1);
        for _ in 0..writes {
            raw.write(0);
        }
        let raw_imbalance = raw.wear_imbalance();

        // Start-Gap with 1% overhead.
        let mut sg = fresh(n, 100);
        for _ in 0..writes {
            sg.write(0);
        }
        let leveled_imbalance = sg.device().wear_imbalance();

        assert!(raw_imbalance > (n as f64) / 2.0, "raw={raw_imbalance}");
        assert!(
            leveled_imbalance < raw_imbalance / 5.0,
            "leveled={leveled_imbalance} raw={raw_imbalance}"
        );
    }

    #[test]
    fn write_overhead_is_one_over_psi() {
        let mut sg = fresh(32, 100);
        let demand = 10_000u64;
        for i in 0..demand {
            sg.write((i % 32) as usize);
        }
        let device_writes = sg.device().writes();
        let overhead = device_writes as f64 / demand as f64 - 1.0;
        // Some gap moves (the wrap step) don't cost a write, so overhead is
        // at most 1/psi.
        assert!(overhead <= 0.0101, "overhead={overhead}");
        assert!(overhead >= 0.008, "overhead={overhead}");
    }

    #[test]
    fn reads_never_move_the_gap() {
        let mut sg = fresh(8, 2);
        for _ in 0..100 {
            sg.read(3);
        }
        assert_eq!(sg.gap_moves(), 0);
        assert_eq!(sg.device().reads(), 100);
    }

    #[test]
    #[should_panic]
    fn out_of_range_logical_address_panics() {
        let sg = fresh(8, 10);
        sg.translate(8);
    }
}
