//! A cache side channel, demonstrated and then closed.
//!
//! §2.4 cites "information flow tracking (reducing side-channel attacks)"
//! and power "footprints"; the microarchitectural reality behind that
//! agenda is that shared caches leak. This module stages the classic
//! **prime + probe** attack against the `xxi-mem` cache model:
//!
//! 1. The attacker *primes* every set of a shared cache with its own lines.
//! 2. The victim runs one secret-dependent access: a table lookup indexed
//!    by the secret (the shape of a T-table AES or a secret-indexed array).
//! 3. The attacker *probes* its lines; the set the victim touched evicted
//!    one attacker line, so exactly that set misses — the secret's cache-set
//!    bits are recovered bit-for-bit.
//!
//! The architectural defense the paper family proposes — **partitioning**
//! (here: per-domain way partitioning, [`PartitionedCache`]) — removes the
//! interference: the victim's fills can no longer evict attacker lines, and
//! the attack's posterior collapses to chance. Both facts are tests.

use xxi_mem::cache::{AccessKind, Cache, CacheConfig};

/// Result of one prime+probe round.
#[derive(Clone, Debug)]
pub struct AttackResult {
    /// Set index the attacker inferred (most-missed probe set).
    pub inferred_set: usize,
    /// Number of probe misses observed in that set.
    pub signal_misses: u64,
}

/// The victim: performs one load whose cache set depends on `secret`.
/// Table base is placed so that the secret maps directly to a set index.
fn victim_access(cache: &mut Cache, secret: usize) {
    let line = cache.config().line_bytes;
    let addr = (secret as u64) * line; // set = secret % num_sets
    cache.access(addr, AccessKind::Read);
}

/// Run prime+probe against a shared cache and infer the victim's secret
/// cache set. The attacker's lines live in a disjoint address range that
/// maps onto the same sets (tag differs, set matches).
pub fn prime_probe_attack(cache: &mut Cache, secret: usize) -> AttackResult {
    let sets = cache.num_sets();
    let ways = cache.config().ways as usize;
    let line = cache.config().line_bytes;
    let attacker_base: u64 = 1 << 30;

    // Prime: fill every set with attacker lines.
    for way in 0..ways {
        for set in 0..sets {
            let addr = attacker_base + (way * sets + set) as u64 * line;
            cache.access(addr, AccessKind::Read);
        }
    }

    // Victim runs.
    victim_access(cache, secret);

    // Probe: re-touch the attacker lines, counting misses per set.
    let mut misses = vec![0u64; sets];
    for way in 0..ways {
        for (set, m) in misses.iter_mut().enumerate() {
            let addr = attacker_base + (way * sets + set) as u64 * line;
            if !cache.access(addr, AccessKind::Read).is_hit() {
                *m += 1;
            }
        }
    }

    let inferred_set = misses
        .iter()
        .enumerate()
        .max_by_key(|(_, &m)| m)
        .map(|(i, _)| i)
        .unwrap_or(0);
    AttackResult {
        inferred_set,
        signal_misses: misses[inferred_set],
    }
}

/// A way-partitioned shared cache: each security domain owns a disjoint
/// subset of the ways (implemented as one private sub-cache per domain —
/// behaviourally identical to way masks for this analysis). The §2.4
/// defense: isolation by construction, at a capacity cost.
pub struct PartitionedCache {
    partitions: Vec<Cache>,
}

impl PartitionedCache {
    /// Split a cache of `total_ways` ways among `domains` equal partitions.
    pub fn new(cfg: CacheConfig, domains: usize) -> PartitionedCache {
        assert!(domains >= 1 && cfg.ways as usize >= domains);
        let ways_each = cfg.ways as usize / domains;
        let size_each = cfg.size_bytes / domains as u64;
        let partitions = (0..domains)
            .map(|_| {
                Cache::new(CacheConfig {
                    size_bytes: size_each,
                    ways: ways_each as u64,
                    ..cfg.clone()
                })
                .expect("partition config valid") // xxi-allow: panic-path -- see the expect message
            })
            .collect();
        PartitionedCache { partitions }
    }

    /// Access on behalf of `domain`.
    pub fn access(&mut self, domain: usize, addr: u64, kind: AccessKind) -> bool {
        self.partitions[domain].access(addr, kind).is_hit()
    }

    /// The partition belonging to `domain`.
    pub fn partition_mut(&mut self, domain: usize) -> &mut Cache {
        &mut self.partitions[domain]
    }
}

/// Prime+probe against a partitioned cache: attacker in domain 0, victim in
/// domain 1. Returns the same statistics; with isolation the signal is
/// zero.
pub fn prime_probe_attack_partitioned(pc: &mut PartitionedCache, secret: usize) -> AttackResult {
    let (sets, ways, line) = {
        let c = pc.partition_mut(0);
        (
            c.num_sets(),
            c.config().ways as usize,
            c.config().line_bytes,
        )
    };
    let attacker_base: u64 = 1 << 30;
    for way in 0..ways {
        for set in 0..sets {
            let addr = attacker_base + (way * sets + set) as u64 * line;
            pc.access(0, addr, AccessKind::Read);
        }
    }
    victim_access(pc.partition_mut(1), secret);
    let mut misses = vec![0u64; sets];
    for way in 0..ways {
        for (set, m) in misses.iter_mut().enumerate() {
            let addr = attacker_base + (way * sets + set) as u64 * line;
            if !pc.access(0, addr, AccessKind::Read) {
                *m += 1;
            }
        }
    }
    let inferred_set = misses
        .iter()
        .enumerate()
        .max_by_key(|(_, &m)| m)
        .map(|(i, _)| i)
        .unwrap_or(0);
    AttackResult {
        inferred_set,
        signal_misses: misses[inferred_set],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xxi_mem::cache::Replacement;

    fn shared_cache() -> Cache {
        // 64 sets × 8 ways × 64 B = 32 KiB, LRU.
        Cache::new(CacheConfig {
            size_bytes: 32 * 1024,
            line_bytes: 64,
            ways: 8,
            replacement: Replacement::Lru,
            write_allocate: true,
        })
        .unwrap()
    }

    #[test]
    fn attack_recovers_every_secret_set() {
        let sets = shared_cache().num_sets();
        for secret in [0usize, 1, 7, 31, 42, 63] {
            let mut cache = shared_cache();
            let r = prime_probe_attack(&mut cache, secret);
            assert_eq!(
                r.inferred_set,
                secret % sets,
                "secret {secret} not recovered: {r:?}"
            );
            assert!(r.signal_misses >= 1);
        }
    }

    #[test]
    fn attack_distinguishes_two_secrets() {
        let mut c1 = shared_cache();
        let mut c2 = shared_cache();
        let r1 = prime_probe_attack(&mut c1, 5);
        let r2 = prime_probe_attack(&mut c2, 50);
        assert_ne!(r1.inferred_set, r2.inferred_set);
    }

    #[test]
    fn partitioning_blinds_the_attack() {
        for secret in [0usize, 13, 42, 63] {
            let mut pc = PartitionedCache::new(
                CacheConfig {
                    size_bytes: 32 * 1024,
                    line_bytes: 64,
                    ways: 8,
                    replacement: Replacement::Lru,
                    write_allocate: true,
                },
                2,
            );
            let r = prime_probe_attack_partitioned(&mut pc, secret);
            assert_eq!(
                r.signal_misses, 0,
                "partitioned cache leaked for secret {secret}: {r:?}"
            );
        }
    }

    #[test]
    fn partitioning_costs_capacity() {
        // The defense is not free: each domain sees half the cache. A
        // working set that fit before now thrashes.
        let cfg = CacheConfig {
            size_bytes: 32 * 1024,
            line_bytes: 64,
            ways: 8,
            replacement: Replacement::Lru,
            write_allocate: true,
        };
        let mut whole = Cache::new(cfg.clone()).unwrap();
        let mut pc = PartitionedCache::new(cfg, 2);
        // 24 KiB working set: fits 32 KiB, not 16 KiB.
        let pass = |f: &mut dyn FnMut(u64) -> bool| {
            let mut hits = 0;
            for _ in 0..5 {
                for a in (0..24 * 1024).step_by(64) {
                    if f(a) {
                        hits += 1;
                    }
                }
            }
            hits
        };
        let whole_hits = pass(&mut |a| whole.access(a, AccessKind::Read).is_hit());
        let part_hits = pass(&mut |a| pc.access(0, a, AccessKind::Read));
        assert!(
            whole_hits > part_hits,
            "whole={whole_hits} part={part_hits}"
        );
    }

    #[test]
    fn partition_construction_validates() {
        let cfg = CacheConfig {
            size_bytes: 32 * 1024,
            line_bytes: 64,
            ways: 8,
            replacement: Replacement::Lru,
            write_allocate: true,
        };
        let pc = PartitionedCache::new(cfg, 4);
        assert_eq!(pc.partitions.len(), 4);
    }
}
