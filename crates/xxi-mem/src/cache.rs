//! Set-associative cache model.
//!
//! A behavioural (not timing-accurate) cache: it answers hit/miss, tracks
//! dirty state for write-back traffic, and exposes the statistics the
//! experiments and the energy models consume. Four replacement policies are
//! implemented — true LRU, FIFO, random, and tree-PLRU (the hardware-
//! practical approximation) — so the experiments can quantify how much
//! replacement quality matters relative to the energy ladder.

use serde::{Deserialize, Serialize};

use xxi_core::metrics::Metrics;
use xxi_core::rng::Rng64;
use xxi_core::{Result, XxiError};

/// Replacement policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Replacement {
    /// True least-recently-used (access-stamp based).
    Lru,
    /// First-in first-out (fill-stamp based).
    Fifo,
    /// Uniformly random victim.
    Random,
    /// Tree pseudo-LRU (requires power-of-two associativity).
    TreePlru,
}

/// What kind of access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessKind {
    /// A load.
    Read,
    /// A store.
    Write,
}

/// Result of one access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Line present.
    Hit,
    /// Line absent; `writeback` reports whether a dirty victim was evicted.
    Miss {
        /// A dirty line was evicted and must be written downstream.
        writeback: bool,
    },
}

impl Outcome {
    /// True for hits.
    pub fn is_hit(self) -> bool {
        matches!(self, Outcome::Hit)
    }
}

/// Static cache geometry and policy.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Line size in bytes (power of two).
    pub line_bytes: u64,
    /// Associativity (ways per set).
    pub ways: u64,
    /// Replacement policy.
    pub replacement: Replacement,
    /// Allocate on write miss (write-allocate)? If false, write misses
    /// bypass the cache (they still count as misses).
    pub write_allocate: bool,
}

impl CacheConfig {
    /// A conventional L1: 32 KiB, 64 B lines, 8-way, LRU, write-allocate.
    pub fn l1() -> CacheConfig {
        CacheConfig {
            size_bytes: 32 * 1024,
            line_bytes: 64,
            ways: 8,
            replacement: Replacement::Lru,
            write_allocate: true,
        }
    }

    /// A conventional private L2: 256 KiB, 64 B lines, 8-way.
    pub fn l2() -> CacheConfig {
        CacheConfig {
            size_bytes: 256 * 1024,
            line_bytes: 64,
            ways: 8,
            replacement: Replacement::Lru,
            write_allocate: true,
        }
    }

    /// A shared L3 slice: 8 MiB, 64 B lines, 16-way.
    pub fn l3() -> CacheConfig {
        CacheConfig {
            size_bytes: 8 * 1024 * 1024,
            line_bytes: 64,
            ways: 16,
            replacement: Replacement::Lru,
            write_allocate: true,
        }
    }

    fn validate(&self) -> Result<u64> {
        if !self.line_bytes.is_power_of_two() {
            return Err(XxiError::config("line size must be a power of two"));
        }
        if self.ways == 0 || self.size_bytes == 0 {
            return Err(XxiError::config("cache must have nonzero size and ways"));
        }
        let lines = self.size_bytes / self.line_bytes;
        if lines == 0 || !lines.is_multiple_of(self.ways) {
            return Err(XxiError::config(
                "capacity must be a whole number of sets × ways × line",
            ));
        }
        let sets = lines / self.ways;
        if !sets.is_power_of_two() {
            return Err(XxiError::config("set count must be a power of two"));
        }
        if self.replacement == Replacement::TreePlru && !self.ways.is_power_of_two() {
            return Err(XxiError::config("tree-PLRU requires power-of-two ways"));
        }
        Ok(sets)
    }
}

#[derive(Clone, Debug, Default)]
struct Line {
    valid: bool,
    dirty: bool,
    tag: u64,
    /// LRU: last-access stamp. FIFO: fill stamp.
    stamp: u64,
}

#[derive(Clone, Debug)]
struct Set {
    lines: Vec<Line>,
    /// Tree-PLRU direction bits (ways − 1 of them), stored as a bitmask.
    plru: u64,
}

/// The cache.
#[derive(Clone, Debug)]
pub struct Cache {
    cfg: CacheConfig,
    sets: Vec<Set>,
    set_mask: u64,
    line_shift: u32,
    clock: u64,
    rng: Rng64,
    /// `accesses`, `hits`, `misses`, `evictions`, `writebacks`, `fills`.
    pub metrics: Metrics,
}

impl Cache {
    /// Build a cache; fails on inconsistent geometry.
    pub fn new(cfg: CacheConfig) -> Result<Cache> {
        let sets = cfg.validate()?;
        let line_shift = cfg.line_bytes.trailing_zeros();
        Ok(Cache {
            sets: (0..sets)
                .map(|_| Set {
                    lines: vec![Line::default(); cfg.ways as usize],
                    plru: 0,
                })
                .collect(),
            set_mask: sets - 1,
            line_shift,
            clock: 0,
            rng: Rng64::new(0xCACE),
            cfg,
            metrics: Metrics::new(),
        })
    }

    /// The configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Number of sets.
    pub fn num_sets(&self) -> usize {
        self.sets.len()
    }

    #[inline]
    fn index(&self, addr: u64) -> (usize, u64) {
        let line_addr = addr >> self.line_shift;
        (
            (line_addr & self.set_mask) as usize,
            line_addr >> self.sets.len().trailing_zeros(),
        )
    }

    /// Perform one access; returns hit/miss and whether a dirty victim was
    /// written back.
    pub fn access(&mut self, addr: u64, kind: AccessKind) -> Outcome {
        self.clock += 1;
        self.metrics.incr("accesses");
        let (set_idx, tag) = self.index(addr);
        let ways = self.cfg.ways as usize;
        let clock = self.clock;
        let replacement = self.cfg.replacement;

        // Hit path.
        if let Some(way) = self.sets[set_idx]
            .lines
            .iter()
            .position(|l| l.valid && l.tag == tag)
        {
            let set = &mut self.sets[set_idx];
            if replacement == Replacement::Lru {
                set.lines[way].stamp = clock;
            }
            if replacement == Replacement::TreePlru {
                set.plru = plru_touch(set.plru, way, ways);
            }
            if kind == AccessKind::Write {
                set.lines[way].dirty = true;
            }
            self.metrics.incr("hits");
            return Outcome::Hit;
        }

        // Miss path.
        self.metrics.incr("misses");
        if kind == AccessKind::Write && !self.cfg.write_allocate {
            return Outcome::Miss { writeback: false };
        }

        let victim = self.pick_victim(set_idx);
        let set = &mut self.sets[set_idx];
        let v = &mut set.lines[victim];
        let writeback = v.valid && v.dirty;
        if v.valid {
            self.metrics.incr("evictions");
        }
        if writeback {
            self.metrics.incr("writebacks");
        }
        *v = Line {
            valid: true,
            dirty: kind == AccessKind::Write,
            tag,
            stamp: clock,
        };
        if replacement == Replacement::TreePlru {
            set.plru = plru_touch(set.plru, victim, ways);
        }
        self.metrics.incr("fills");
        Outcome::Miss { writeback }
    }

    fn pick_victim(&mut self, set_idx: usize) -> usize {
        let ways = self.cfg.ways as usize;
        // Prefer an invalid way.
        if let Some(w) = self.sets[set_idx].lines.iter().position(|l| !l.valid) {
            return w;
        }
        match self.cfg.replacement {
            Replacement::Lru | Replacement::Fifo => self.sets[set_idx]
                .lines
                .iter()
                .enumerate()
                .min_by_key(|(_, l)| l.stamp)
                .map(|(i, _)| i)
                .unwrap(), // xxi-allow: panic-path -- a set always has >= 1 way
            Replacement::Random => self.rng.below(ways as u64) as usize,
            Replacement::TreePlru => plru_victim(self.sets[set_idx].plru, ways),
        }
    }

    /// Does the cache currently hold the line containing `addr`?
    pub fn contains(&self, addr: u64) -> bool {
        let (set_idx, tag) = self.index(addr);
        self.sets[set_idx]
            .lines
            .iter()
            .any(|l| l.valid && l.tag == tag)
    }

    /// Hit rate so far.
    pub fn hit_rate(&self) -> f64 {
        self.metrics.ratio("hits", "accesses")
    }

    /// Number of valid lines (for occupancy checks in tests).
    // xxi-allow: model-reach -- oracle for tests/properties.rs (cache_conservation)
    pub fn occupancy(&self) -> usize {
        self.sets
            .iter()
            .map(|s| s.lines.iter().filter(|l| l.valid).count())
            .sum()
    }
}

/// Update tree-PLRU bits after touching `way`: set each node on the path to
/// point *away* from the touched leaf.
fn plru_touch(mut bits: u64, way: usize, ways: usize) -> u64 {
    let levels = ways.trailing_zeros() as usize;
    let mut node = 0usize; // root at index 0 in a 1-based heap layout minus 1
    for level in 0..levels {
        // Bit of `way` at this level, MSB first.
        let dir = (way >> (levels - 1 - level)) & 1;
        if dir == 0 {
            bits |= 1 << node; // point right (away from left child we took)
        } else {
            bits &= !(1 << node); // point left
        }
        node = 2 * node + 1 + dir;
    }
    bits
}

/// Pick the tree-PLRU victim: follow the direction bits from the root.
fn plru_victim(bits: u64, ways: usize) -> usize {
    let levels = ways.trailing_zeros() as usize;
    let mut node = 0usize;
    let mut way = 0usize;
    for _ in 0..levels {
        let dir = ((bits >> node) & 1) as usize;
        way = (way << 1) | dir;
        node = 2 * node + 1 + dir;
    }
    way
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(replacement: Replacement) -> Cache {
        // 4 sets × 2 ways × 64 B = 512 B.
        Cache::new(CacheConfig {
            size_bytes: 512,
            line_bytes: 64,
            ways: 2,
            replacement,
            write_allocate: true,
        })
        .unwrap()
    }

    #[test]
    fn config_validation() {
        assert!(Cache::new(CacheConfig {
            size_bytes: 0,
            ..CacheConfig::l1()
        })
        .is_err());
        assert!(Cache::new(CacheConfig {
            line_bytes: 48,
            ..CacheConfig::l1()
        })
        .is_err());
        assert!(Cache::new(CacheConfig {
            ways: 3,
            replacement: Replacement::TreePlru,
            size_bytes: 3 * 64 * 4,
            line_bytes: 64,
            write_allocate: true,
        })
        .is_err());
        assert!(Cache::new(CacheConfig::l1()).is_ok());
        assert!(Cache::new(CacheConfig::l3()).is_ok());
    }

    #[test]
    fn first_access_misses_second_hits() {
        let mut c = tiny(Replacement::Lru);
        assert!(!c.access(0x1000, AccessKind::Read).is_hit());
        assert!(c.access(0x1000, AccessKind::Read).is_hit());
        // Same line, different byte.
        assert!(c.access(0x103F, AccessKind::Read).is_hit());
        // Next line misses.
        assert!(!c.access(0x1040, AccessKind::Read).is_hit());
        assert_eq!(c.metrics.counter("hits"), 2);
        assert_eq!(c.metrics.counter("misses"), 2);
    }

    #[test]
    #[allow(clippy::erasing_op, clippy::identity_op)] // k*256 spells out the set math
    fn lru_evicts_least_recent() {
        let mut c = tiny(Replacement::Lru);
        // Set 0 holds lines with addr bits [7:6]=0: addresses k*256.
        c.access(0 * 256, AccessKind::Read);
        c.access(1 * 256, AccessKind::Read);
        // Touch line 0 so line 1 is LRU.
        c.access(0 * 256, AccessKind::Read);
        // Fill a third line → evicts line 1.
        c.access(2 * 256, AccessKind::Read);
        assert!(c.contains(0));
        assert!(!c.contains(256));
        assert!(c.contains(512));
    }

    #[test]
    #[allow(clippy::erasing_op, clippy::identity_op)] // k*256 spells out the set math
    fn fifo_ignores_recency() {
        let mut c = tiny(Replacement::Fifo);
        c.access(0 * 256, AccessKind::Read);
        c.access(1 * 256, AccessKind::Read);
        c.access(0 * 256, AccessKind::Read); // does not refresh FIFO stamp
        c.access(2 * 256, AccessKind::Read); // evicts line 0 (first in)
        assert!(!c.contains(0));
        assert!(c.contains(256));
        assert!(c.contains(512));
    }

    #[test]
    #[allow(clippy::erasing_op, clippy::identity_op)] // k*256 spells out the set math
    fn writeback_on_dirty_eviction_only() {
        let mut c = tiny(Replacement::Lru);
        c.access(0 * 256, AccessKind::Write); // dirty
        c.access(1 * 256, AccessKind::Read); // clean
                                             // Evict dirty line 0.
        let o = c.access(2 * 256, AccessKind::Read);
        assert_eq!(o, Outcome::Miss { writeback: true });
        // Evict clean line 1.
        let o = c.access(3 * 256, AccessKind::Read);
        assert_eq!(o, Outcome::Miss { writeback: false });
        assert_eq!(c.metrics.counter("writebacks"), 1);
        assert_eq!(c.metrics.counter("evictions"), 2);
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = tiny(Replacement::Lru);
        c.access(0, AccessKind::Read);
        c.access(0, AccessKind::Write); // hit, now dirty
        c.access(256, AccessKind::Read);
        let o = c.access(512, AccessKind::Read); // evicts line 0
        assert_eq!(o, Outcome::Miss { writeback: true });
    }

    #[test]
    fn no_write_allocate_bypasses() {
        let mut c = Cache::new(CacheConfig {
            write_allocate: false,
            ..CacheConfig::l1()
        })
        .unwrap();
        assert!(!c.access(0x2000, AccessKind::Write).is_hit());
        // Still not cached.
        assert!(!c.contains(0x2000));
        assert!(!c.access(0x2000, AccessKind::Read).is_hit());
        assert!(c.contains(0x2000));
    }

    #[test]
    fn working_set_behaviour_small_fits_large_thrashes() {
        let mut c = Cache::new(CacheConfig::l1()).unwrap(); // 32 KiB
                                                            // 16 KiB working set, sequential, looped 10×: near-perfect reuse.
        let mut small = Cache::new(CacheConfig::l1()).unwrap();
        for _ in 0..10 {
            for a in (0..16 * 1024).step_by(64) {
                small.access(a, AccessKind::Read);
            }
        }
        assert!(small.hit_rate() > 0.89, "{}", small.hit_rate());
        // 4 MiB working set: hit rate collapses.
        for _ in 0..3 {
            for a in (0..4 * 1024 * 1024).step_by(64) {
                c.access(a, AccessKind::Read);
            }
        }
        assert!(c.hit_rate() < 0.05, "{}", c.hit_rate());
    }

    #[test]
    fn plru_behaves_like_lru_for_two_ways() {
        // With 2 ways tree-PLRU is exact LRU.
        let mut plru = tiny(Replacement::TreePlru);
        let mut lru = tiny(Replacement::Lru);
        let mut rng = xxi_core::rng::Rng64::new(77);
        for _ in 0..2000 {
            let addr = rng.below(16) * 256; // 16 lines mapping to set 0..4
            let a = plru.access(addr, AccessKind::Read).is_hit();
            let b = lru.access(addr, AccessKind::Read).is_hit();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn plru_eight_way_reasonable_hit_rate() {
        let mut c = Cache::new(CacheConfig {
            replacement: Replacement::TreePlru,
            ..CacheConfig::l1()
        })
        .unwrap();
        for _ in 0..10 {
            for a in (0..16 * 1024).step_by(64) {
                c.access(a, AccessKind::Read);
            }
        }
        // PLRU should retain a fitting working set nearly as well as LRU.
        assert!(c.hit_rate() > 0.85, "{}", c.hit_rate());
    }

    #[test]
    fn random_policy_fills_all_ways() {
        let mut c = tiny(Replacement::Random);
        for k in 0..8u64 {
            c.access(k * 256, AccessKind::Read);
        }
        // 4 sets × 2 ways but only set 0 exercised: occupancy = 2.
        assert_eq!(c.occupancy(), 2);
    }

    #[test]
    fn occupancy_never_exceeds_capacity() {
        let mut c = Cache::new(CacheConfig::l1()).unwrap();
        for a in (0..1_000_000).step_by(64) {
            c.access(a, AccessKind::Read);
        }
        assert_eq!(c.occupancy() as u64, 32 * 1024 / 64);
    }
}
