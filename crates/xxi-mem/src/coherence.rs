//! MESI snooping-bus cache-coherence protocol.
//!
//! §2.2 asks for memory systems that "simplify programmability (e.g., by
//! extending coherence and virtual memory to accelerators when needed)".
//! This module provides the protocol substrate: a state-level MESI
//! simulator over a shared snooping bus connecting `n` caches.
//!
//! The simulator tracks protocol *states and traffic*, not data values —
//! the standard abstraction level for coherence studies. Per-line state is
//! kept in a map (effectively infinite caches), isolating protocol
//! behaviour from capacity effects, which [`crate::cache`] models
//! separately.
//!
//! The load-bearing invariant — **single writer / multiple readers** (at
//! most one cache in M or E; M/E excludes all other valid copies) — is
//! checked after every operation in debug builds and verified by property
//! tests.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};
use xxi_core::metrics::Metrics;

/// MESI stable states.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum MesiState {
    /// Modified: sole copy, dirty.
    Modified,
    /// Exclusive: sole copy, clean.
    Exclusive,
    /// Shared: possibly multiple copies, clean.
    Shared,
    /// Invalid / not present.
    Invalid,
}

use MesiState::*;

/// A system of `n` coherent caches on one snooping bus.
#[derive(Clone, Debug)]
pub struct CoherentSystem {
    n: usize,
    /// state[line][cache]
    lines: HashMap<u64, Vec<MesiState>>,
    /// Counters: `bus_rd`, `bus_rdx`, `bus_upgr`, `invalidations`,
    /// `writebacks`, `interventions` (cache-to-cache supply), `mem_reads`,
    /// `reads`, `writes`, `read_hits`, `write_hits`.
    pub metrics: Metrics,
}

impl CoherentSystem {
    /// A system with `n ≥ 1` caches.
    pub fn new(n: usize) -> CoherentSystem {
        assert!(n >= 1);
        CoherentSystem {
            n,
            lines: HashMap::new(),
            metrics: Metrics::new(),
        }
    }

    /// Current state of `line` in `cache`.
    pub fn state(&self, cache: usize, line: u64) -> MesiState {
        self.lines.get(&line).map(|v| v[cache]).unwrap_or(Invalid)
    }

    fn entry(&mut self, line: u64) -> &mut Vec<MesiState> {
        let n = self.n;
        self.lines.entry(line).or_insert_with(|| vec![Invalid; n])
    }

    /// Core `cache` reads `line`.
    pub fn read(&mut self, cache: usize, line: u64) {
        assert!(cache < self.n);
        self.metrics.incr("reads");
        let states = self.entry(line).clone();
        match states[cache] {
            Modified | Exclusive | Shared => {
                self.metrics.incr("read_hits");
            }
            Invalid => {
                // BusRd: snoopers with M supply data and downgrade; E
                // downgrades silently-ish (supplies in our model).
                self.metrics.incr("bus_rd");
                let mut supplied = false;
                let v = self.entry(line);
                for (i, s) in v.iter_mut().enumerate() {
                    if i == cache {
                        continue;
                    }
                    match *s {
                        Modified => {
                            *s = Shared;
                            supplied = true;
                        }
                        Exclusive => {
                            *s = Shared;
                            supplied = true;
                        }
                        Shared => supplied = true,
                        Invalid => {}
                    }
                }
                let any_shared = v
                    .iter()
                    .enumerate()
                    .any(|(i, s)| i != cache && *s == Shared);
                v[cache] = if any_shared { Shared } else { Exclusive };
                if supplied {
                    self.metrics.incr("interventions");
                    // An M supplier also writes back in MESI (no O state).
                    if states.contains(&Modified) {
                        self.metrics.incr("writebacks");
                    }
                } else {
                    self.metrics.incr("mem_reads");
                }
            }
        }
        self.check_invariant(line);
    }

    /// Core `cache` writes `line`.
    pub fn write(&mut self, cache: usize, line: u64) {
        assert!(cache < self.n);
        self.metrics.incr("writes");
        let states = self.entry(line).clone();
        match states[cache] {
            Modified => {
                self.metrics.incr("write_hits");
            }
            Exclusive => {
                // Silent upgrade E→M.
                self.metrics.incr("write_hits");
                self.entry(line)[cache] = Modified;
            }
            Shared => {
                // BusUpgr: invalidate other sharers, no data transfer.
                self.metrics.incr("bus_upgr");
                let mut inv = 0;
                let v = self.entry(line);
                for (i, s) in v.iter_mut().enumerate() {
                    if i != cache && *s == Shared {
                        *s = Invalid;
                        inv += 1;
                    }
                }
                v[cache] = Modified;
                self.metrics.count("invalidations", inv);
            }
            Invalid => {
                // BusRdX: fetch with intent to modify; invalidate everyone.
                self.metrics.incr("bus_rdx");
                let mut inv = 0;
                let mut had_m = false;
                let mut supplied = false;
                let v = self.entry(line);
                for (i, s) in v.iter_mut().enumerate() {
                    if i == cache {
                        continue;
                    }
                    match *s {
                        Modified => {
                            had_m = true;
                            supplied = true;
                            *s = Invalid;
                            inv += 1;
                        }
                        Exclusive | Shared => {
                            supplied = true;
                            *s = Invalid;
                            inv += 1;
                        }
                        Invalid => {}
                    }
                }
                v[cache] = Modified;
                self.metrics.count("invalidations", inv);
                if had_m {
                    self.metrics.incr("writebacks");
                }
                if supplied {
                    self.metrics.incr("interventions");
                } else {
                    self.metrics.incr("mem_reads");
                }
            }
        }
        self.check_invariant(line);
    }

    /// Evict `line` from `cache` (capacity pressure); M lines write back.
    pub fn evict(&mut self, cache: usize, line: u64) {
        let was_modified = self.entry(line)[cache] == Modified;
        if was_modified {
            self.metrics.incr("writebacks");
        }
        self.entry(line)[cache] = Invalid;
        self.check_invariant(line);
    }

    /// Verify single-writer/multiple-reader for `line`.
    fn check_invariant(&self, line: u64) {
        debug_assert!(self.holds_swmr(line), "SWMR violated on line {line:#x}");
    }

    /// Does `line` satisfy the SWMR invariant?
    pub fn holds_swmr(&self, line: u64) -> bool {
        let Some(v) = self.lines.get(&line) else {
            return true;
        };
        let m = v.iter().filter(|s| **s == Modified).count();
        let e = v.iter().filter(|s| **s == Exclusive).count();
        let s = v.iter().filter(|s| **s == Shared).count();
        // At most one owner; an owner excludes every other valid copy.
        m + e <= 1 && ((m + e == 0) || s == 0)
    }

    /// Check SWMR across all touched lines.
    pub fn holds_swmr_everywhere(&self) -> bool {
        self.lines.keys().all(|&l| self.holds_swmr(l))
    }

    /// Number of caches holding `line` in any valid state.
    pub fn sharers(&self, line: u64) -> usize {
        self.lines
            .get(&line)
            .map(|v| v.iter().filter(|s| **s != Invalid).count())
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xxi_core::rng::Rng64;

    #[test]
    fn cold_read_takes_exclusive_from_memory() {
        let mut sys = CoherentSystem::new(4);
        sys.read(0, 0x40);
        assert_eq!(sys.state(0, 0x40), Exclusive);
        assert_eq!(sys.metrics.counter("bus_rd"), 1);
        assert_eq!(sys.metrics.counter("mem_reads"), 1);
    }

    #[test]
    fn second_reader_downgrades_to_shared() {
        let mut sys = CoherentSystem::new(4);
        sys.read(0, 0x40);
        sys.read(1, 0x40);
        assert_eq!(sys.state(0, 0x40), Shared);
        assert_eq!(sys.state(1, 0x40), Shared);
        // Data supplied cache-to-cache, no second memory read.
        assert_eq!(sys.metrics.counter("mem_reads"), 1);
        assert_eq!(sys.metrics.counter("interventions"), 1);
    }

    #[test]
    fn silent_e_to_m_upgrade() {
        let mut sys = CoherentSystem::new(2);
        sys.read(0, 0x80);
        assert_eq!(sys.state(0, 0x80), Exclusive);
        sys.write(0, 0x80);
        assert_eq!(sys.state(0, 0x80), Modified);
        // No bus traffic for the upgrade.
        assert_eq!(sys.metrics.counter("bus_upgr"), 0);
        assert_eq!(sys.metrics.counter("bus_rdx"), 0);
    }

    #[test]
    fn write_to_shared_invalidates_peers() {
        let mut sys = CoherentSystem::new(4);
        for c in 0..4 {
            sys.read(c, 0x100);
        }
        assert_eq!(sys.sharers(0x100), 4);
        sys.write(2, 0x100);
        assert_eq!(sys.state(2, 0x100), Modified);
        for c in [0, 1, 3] {
            assert_eq!(sys.state(c, 0x100), Invalid);
        }
        assert_eq!(sys.metrics.counter("invalidations"), 3);
        assert_eq!(sys.metrics.counter("bus_upgr"), 1);
    }

    #[test]
    fn read_after_remote_write_forces_writeback_and_share() {
        let mut sys = CoherentSystem::new(2);
        sys.write(0, 0x200);
        assert_eq!(sys.state(0, 0x200), Modified);
        sys.read(1, 0x200);
        assert_eq!(sys.state(0, 0x200), Shared);
        assert_eq!(sys.state(1, 0x200), Shared);
        assert_eq!(sys.metrics.counter("writebacks"), 1);
        assert_eq!(sys.metrics.counter("interventions"), 1);
    }

    #[test]
    fn write_after_remote_write_migrates_ownership() {
        let mut sys = CoherentSystem::new(2);
        sys.write(0, 0x240);
        sys.write(1, 0x240);
        assert_eq!(sys.state(0, 0x240), Invalid);
        assert_eq!(sys.state(1, 0x240), Modified);
        assert_eq!(sys.metrics.counter("writebacks"), 1);
        // Both writes started from Invalid, so both issued BusRdX.
        assert_eq!(sys.metrics.counter("bus_rdx"), 2);
    }

    #[test]
    fn eviction_of_modified_writes_back() {
        let mut sys = CoherentSystem::new(2);
        sys.write(0, 0x280);
        sys.evict(0, 0x280);
        assert_eq!(sys.state(0, 0x280), Invalid);
        assert_eq!(sys.metrics.counter("writebacks"), 1);
        // Clean eviction does not write back.
        sys.read(1, 0x280);
        sys.evict(1, 0x280);
        assert_eq!(sys.metrics.counter("writebacks"), 1);
    }

    #[test]
    fn false_sharing_pingpong_generates_traffic() {
        // Two cores alternately writing the same line: every write is a
        // coherence miss — the communication cost §2.2 worries about.
        let mut sys = CoherentSystem::new(2);
        for i in 0..100 {
            sys.write(i % 2, 0x300);
        }
        // First write is a cold BusRdX; the other 99 each need BusRdX too.
        assert_eq!(sys.metrics.counter("bus_rdx"), 100);
        assert_eq!(sys.metrics.counter("write_hits"), 0);
        assert!(sys.metrics.counter("writebacks") >= 98);
    }

    #[test]
    fn random_stress_preserves_swmr() {
        let mut sys = CoherentSystem::new(8);
        let mut rng = Rng64::new(99);
        for _ in 0..50_000 {
            let cache = rng.below(8) as usize;
            let line = rng.below(64) * 64;
            match rng.below(3) {
                0 => sys.read(cache, line),
                1 => sys.write(cache, line),
                _ => sys.evict(cache, line),
            }
            // (Debug builds also assert per-op.)
        }
        assert!(sys.holds_swmr_everywhere());
        // Conservation: every write either hit or generated a bus op.
        let writes = sys.metrics.counter("writes");
        let covered = sys.metrics.counter("write_hits")
            + sys.metrics.counter("bus_upgr")
            + sys.metrics.counter("bus_rdx");
        assert_eq!(writes, covered);
    }
}
