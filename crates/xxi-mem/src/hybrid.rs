//! Hybrid DRAM + NVM main memory with page migration.
//!
//! The "rethought memory/storage stack" of §2.3: a small, fast, volatile
//! DRAM tier in front of a large, slow-to-write, non-volatile tier, managed
//! at page granularity. Hot pages are promoted into DRAM (evicting the
//! coldest resident page) using epoch-based access counting — the standard
//! first-order design from the PCM-hybrid literature (Qureshi et al., ISCA
//! 2009) that the paper's agenda builds on.
//!
//! The model answers the E12 questions: how close does a mostly-NVM system
//! get to all-DRAM latency, at what write-traffic cost, and how much
//! standing (refresh) power does it save?

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::nvm::{NvmParams, NvmTech};
use crate::trace::Access;
use xxi_core::metrics::Metrics;
use xxi_core::units::{Energy, Seconds};

/// Hybrid-memory configuration.
#[derive(Clone, Debug)]
pub struct HybridConfig {
    /// DRAM tier capacity in pages.
    pub dram_pages: usize,
    /// Page size in bytes.
    pub page_bytes: u64,
    /// NVM technology of the capacity tier.
    pub nvm: NvmTech,
    /// Accesses to a page within one epoch before it is promoted.
    pub promote_threshold: u32,
    /// Epoch length in accesses (counters halve each epoch).
    pub epoch_accesses: u64,
    /// DRAM access latency / energy per 64 B.
    pub dram_latency: Seconds,
    /// DRAM energy per 64 B.
    pub dram_energy: Energy,
}

impl Default for HybridConfig {
    fn default() -> HybridConfig {
        HybridConfig {
            dram_pages: 1024,
            page_bytes: 4096,
            nvm: NvmTech::Pcm,
            promote_threshold: 4,
            epoch_accesses: 100_000,
            dram_latency: Seconds::from_ns(60.0),
            dram_energy: Energy::from_nj(12.0),
        }
    }
}

/// A page-number hasher: one multiply by an odd constant (a bijection, so
/// distinct pages never collide in the full hash) and a rotate that
/// brings the well-mixed high product bits down to the bucket index.
/// Fixed, so runs are reproducible, and far cheaper than SipHash. It
/// gives up SipHash's defence against keys crafted to collide, which
/// page numbers from the model's own traces do not need.
#[derive(Clone, Copy, Debug, Default)]
struct PageHasher(u64);

impl Hasher for PageHasher {
    fn finish(&self) -> u64 {
        self.0.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(26)
    }

    fn write(&mut self, bytes: &[u8]) {
        self.0 = bytes
            .iter()
            .fold(self.0, |h, &b| h.rotate_left(8) ^ u64::from(b));
    }

    fn write_u64(&mut self, page: u64) {
        self.0 = page;
    }
}

/// Page-keyed map with [`PageHasher`].
type PageMap<V> = HashMap<u64, V, BuildHasherDefault<PageHasher>>;

/// The six event counters, counted in plain fields and posted to
/// [`HybridMemory::metrics`] by [`Counts::post`].
#[derive(Clone, Copy, Debug, Default)]
struct Counts {
    dram_hits: u64,
    nvm_reads: u64,
    nvm_writes: u64,
    promotions: u64,
    demotions: u64,
    migration_writes: u64,
}

impl Counts {
    /// Add the counts to `metrics` and reset them. A zero count creates no
    /// counter, just as no increment would.
    fn post(&mut self, metrics: &mut Metrics) {
        for (name, n) in [
            ("dram_hits", self.dram_hits),
            ("nvm_reads", self.nvm_reads),
            ("nvm_writes", self.nvm_writes),
            ("promotions", self.promotions),
            ("demotions", self.demotions),
            ("migration_writes", self.migration_writes),
        ] {
            if n > 0 {
                metrics.count(name, n);
            }
        }
        *self = Counts::default();
    }
}

/// The hybrid memory.
///
/// DRAM residents live in a dense slot array of `(epoch access count,
/// page)`, found through a page → slot map; an eviction is one min-scan
/// over that contiguous array, breaking count ties by the smallest page.
#[derive(Clone, Debug)]
pub struct HybridMemory {
    cfg: HybridConfig,
    /// `cfg.nvm`'s device parameters.
    nvm: NvmParams,
    /// Pages currently in DRAM, with their epoch access count.
    slots: Vec<(u32, u64)>,
    /// Page → index into `slots`, for every DRAM-resident page.
    slot_of: PageMap<usize>,
    /// Epoch access counters for NVM-resident pages.
    heat: PageMap<u32>,
    since_epoch: u64,
    total_latency: Seconds,
    total_energy: Energy,
    accesses: u64,
    /// Counts not yet posted to `metrics`.
    counts: Counts,
    /// `dram_hits`, `nvm_reads`, `nvm_writes`, `promotions`, `demotions`,
    /// `migration_writes`; posted once per [`HybridMemory::access`] or
    /// [`HybridMemory::run`] call.
    pub metrics: Metrics,
}

impl HybridMemory {
    /// Build from config.
    pub fn new(cfg: HybridConfig) -> HybridMemory {
        assert!(cfg.dram_pages > 0 && cfg.page_bytes.is_power_of_two());
        HybridMemory {
            nvm: cfg.nvm.params(),
            cfg,
            slots: Vec::new(),
            slot_of: PageMap::default(),
            heat: PageMap::default(),
            since_epoch: 0,
            total_latency: Seconds::ZERO,
            total_energy: Energy::ZERO,
            accesses: 0,
            counts: Counts::default(),
            metrics: Metrics::new(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &HybridConfig {
        &self.cfg
    }

    fn page_of(&self, addr: u64) -> u64 {
        addr / self.cfg.page_bytes
    }

    /// Serve one access.
    pub fn access(&mut self, a: Access) -> (Seconds, Energy) {
        let served = self.serve(a);
        self.counts.post(&mut self.metrics);
        served
    }

    /// [`HybridMemory::access`] without posting the counts.
    fn serve(&mut self, a: Access) -> (Seconds, Energy) {
        self.accesses += 1;
        self.since_epoch += 1;
        if self.since_epoch >= self.cfg.epoch_accesses {
            self.rotate_epoch();
        }
        let page = self.page_of(a.addr);

        let (lat, en) = if let Some(&slot) = self.slot_of.get(&page) {
            let count = &mut self.slots[slot].0;
            *count = count.saturating_add(1);
            self.counts.dram_hits += 1;
            (self.cfg.dram_latency, self.cfg.dram_energy)
        } else {
            // NVM access.
            let (lat, en) = if a.write {
                self.counts.nvm_writes += 1;
                (self.nvm.write_latency, self.nvm.write_energy)
            } else {
                self.counts.nvm_reads += 1;
                (self.nvm.read_latency, self.nvm.read_energy)
            };
            // Heat accounting and possible promotion.
            let heat = self.heat.entry(page).or_insert(0);
            *heat = heat.saturating_add(1);
            if *heat >= self.cfg.promote_threshold {
                self.promote(page);
            }
            (lat, en)
        };
        self.total_latency += lat;
        self.total_energy += en;
        (lat, en)
    }

    /// Promote `page` into DRAM, evicting the coldest resident page if
    /// full. Migration copies one page: charged as page-size/64 NVM reads
    /// plus (on demotion) page-size/64 NVM writes.
    fn promote(&mut self, page: u64) {
        let lines = (self.cfg.page_bytes / 64).max(1) as f64;
        let slot = if self.slots.len() >= self.cfg.dram_pages {
            // Evict coldest (min counter; ties broken by smallest page id
            // for determinism).
            let (slot, &(_, victim)) = self
                .slots
                .iter()
                .enumerate()
                .min_by_key(|&(_, resident)| *resident)
                .expect("dram non-empty"); // xxi-allow: panic-path -- see the expect message
            self.slot_of.remove(&victim);
            self.counts.demotions += 1;
            // Write the page back to NVM.
            self.counts.migration_writes += lines as u64;
            self.total_energy += self.nvm.write_energy * lines;
            self.slots[slot] = (0, page);
            slot
        } else {
            self.slots.push((0, page));
            self.slots.len() - 1
        };
        self.heat.remove(&page);
        self.slot_of.insert(page, slot);
        self.counts.promotions += 1;
        // Read the page out of NVM into DRAM.
        self.total_energy += self.nvm.read_energy * lines;
    }

    /// Epoch rotation: halve all heat counters (aging) and DRAM counters.
    fn rotate_epoch(&mut self) {
        self.since_epoch = 0;
        // xxi-allow: hashmap-order -- halving every counter is order-independent
        for c in self.heat.values_mut() {
            *c /= 2;
        }
        for (c, _) in &mut self.slots {
            *c /= 2;
        }
        self.heat.retain(|_, c| *c > 0);
    }

    /// Run a trace, posting the counts once at the end.
    pub fn run(&mut self, trace: &[Access]) {
        for &a in trace {
            self.serve(a);
        }
        self.counts.post(&mut self.metrics);
    }

    /// Average access latency so far.
    pub fn avg_latency(&self) -> Seconds {
        if self.accesses == 0 {
            Seconds::ZERO
        } else {
            Seconds(self.total_latency.value() / self.accesses as f64)
        }
    }

    /// Average dynamic energy per access so far (incl. migration).
    pub fn avg_energy(&self) -> Energy {
        if self.accesses == 0 {
            Energy::ZERO
        } else {
            Energy(self.total_energy.value() / self.accesses as f64)
        }
    }

    /// Fraction of accesses served from DRAM.
    pub fn dram_hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.metrics.counter("dram_hits") as f64 / self.accesses as f64
        }
    }

    /// Number of DRAM-resident pages.
    #[cfg(test)]
    fn dram_occupancy(&self) -> usize {
        self.slots.len()
    }
}

/// The `HashMap` model the slot array replaced, verbatim but for its
/// source-lint suppressions (test code is not linted): the oracle
/// [`HybridMemory`] must match bit for bit.
#[cfg(test)]
mod reference {
    use std::collections::HashMap;

    use super::HybridConfig;
    use crate::trace::Access;
    use xxi_core::metrics::Metrics;
    use xxi_core::units::{Energy, Seconds};

    /// The hybrid memory.
    #[derive(Clone, Debug)]
    pub(super) struct HybridMemory {
        cfg: HybridConfig,
        /// Pages currently in DRAM, with their epoch access count.
        dram: HashMap<u64, u32>,
        /// Epoch access counters for NVM-resident pages.
        heat: HashMap<u64, u32>,
        since_epoch: u64,
        total_latency: Seconds,
        total_energy: Energy,
        accesses: u64,
        /// `dram_hits`, `nvm_reads`, `nvm_writes`, `promotions`, `demotions`,
        /// `migration_writes`.
        pub(super) metrics: Metrics,
    }

    impl HybridMemory {
        /// Build from config.
        pub(super) fn new(cfg: HybridConfig) -> HybridMemory {
            assert!(cfg.dram_pages > 0 && cfg.page_bytes.is_power_of_two());
            HybridMemory {
                cfg,
                dram: HashMap::new(),
                heat: HashMap::new(),
                since_epoch: 0,
                total_latency: Seconds::ZERO,
                total_energy: Energy::ZERO,
                accesses: 0,
                metrics: Metrics::new(),
            }
        }

        fn page_of(&self, addr: u64) -> u64 {
            addr / self.cfg.page_bytes
        }

        /// Serve one access.
        pub(super) fn access(&mut self, a: Access) -> (Seconds, Energy) {
            self.accesses += 1;
            self.since_epoch += 1;
            if self.since_epoch >= self.cfg.epoch_accesses {
                self.rotate_epoch();
            }
            let page = self.page_of(a.addr);
            let nvm = self.cfg.nvm.params();

            let (lat, en) = if let Some(count) = self.dram.get_mut(&page) {
                *count = count.saturating_add(1);
                self.metrics.incr("dram_hits");
                (self.cfg.dram_latency, self.cfg.dram_energy)
            } else {
                // NVM access.
                let (lat, en) = if a.write {
                    self.metrics.incr("nvm_writes");
                    (nvm.write_latency, nvm.write_energy)
                } else {
                    self.metrics.incr("nvm_reads");
                    (nvm.read_latency, nvm.read_energy)
                };
                // Heat accounting and possible promotion.
                let heat = self.heat.entry(page).or_insert(0);
                *heat = heat.saturating_add(1);
                if *heat >= self.cfg.promote_threshold {
                    self.promote(page);
                }
                (lat, en)
            };
            self.total_latency += lat;
            self.total_energy += en;
            (lat, en)
        }

        /// Promote `page` into DRAM, evicting the coldest resident page if
        /// full. Migration copies one page: charged as page-size/64 NVM reads
        /// plus (on demotion) page-size/64 NVM writes.
        fn promote(&mut self, page: u64) {
            let nvm = self.cfg.nvm.params();
            let lines = (self.cfg.page_bytes / 64).max(1) as f64;
            if self.dram.len() >= self.cfg.dram_pages {
                // Evict coldest (min counter; ties broken by smallest page id
                // for determinism).
                let (&victim, _) = self
                    .dram
                    .iter()
                    .min_by_key(|(p, c)| (**c, **p))
                    .expect("dram non-empty");
                self.dram.remove(&victim);
                self.metrics.incr("demotions");
                // Write the page back to NVM.
                self.metrics.count("migration_writes", lines as u64);
                self.total_energy += nvm.write_energy * lines;
            }
            self.heat.remove(&page);
            self.dram.insert(page, 0);
            self.metrics.incr("promotions");
            // Read the page out of NVM into DRAM.
            self.total_energy += nvm.read_energy * lines;
        }

        /// Epoch rotation: halve all heat counters (aging) and DRAM counters.
        fn rotate_epoch(&mut self) {
            self.since_epoch = 0;
            for c in self.heat.values_mut() {
                *c /= 2;
            }
            for c in self.dram.values_mut() {
                *c /= 2;
            }
            self.heat.retain(|_, c| *c > 0);
        }

        /// Run a trace.
        pub(super) fn run(&mut self, trace: &[Access]) {
            for &a in trace {
                self.access(a);
            }
        }

        /// Average access latency so far.
        pub(super) fn avg_latency(&self) -> Seconds {
            if self.accesses == 0 {
                Seconds::ZERO
            } else {
                Seconds(self.total_latency.value() / self.accesses as f64)
            }
        }

        /// Average dynamic energy per access so far (incl. migration).
        pub(super) fn avg_energy(&self) -> Energy {
            if self.accesses == 0 {
                Energy::ZERO
            } else {
                Energy(self.total_energy.value() / self.accesses as f64)
            }
        }

        /// Fraction of accesses served from DRAM.
        pub(super) fn dram_hit_rate(&self) -> f64 {
            if self.accesses == 0 {
                0.0
            } else {
                self.metrics.counter("dram_hits") as f64 / self.accesses as f64
            }
        }

        /// Number of DRAM-resident pages.
        pub(super) fn dram_occupancy(&self) -> usize {
            self.dram.len()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceGen;
    use xxi_core::rng::Rng64;

    /// A seeded random configuration and trace: `dram_pages` 1–2 048 and
    /// epochs of 200–200 000 accesses (both log-uniform), thresholds 1–8,
    /// any technology, pages of 64 B–64 KiB, and a uniform or Zipf trace
    /// based anywhere from 0 to past 2⁴⁰.
    fn random_case(rng: &mut Rng64, max_len: usize) -> (HybridConfig, Vec<Access>) {
        let log_uniform =
            |rng: &mut Rng64, lo: f64, hi: f64| (lo.ln() + rng.next_f64() * (hi / lo).ln()).exp();
        let cfg = HybridConfig {
            dram_pages: log_uniform(rng, 1.0, 2049.0) as usize,
            page_bytes: 1 << rng.range_u64(6, 16),
            nvm: *rng.choose(&[
                NvmTech::Pcm,
                NvmTech::SttRam,
                NvmTech::Memristor,
                NvmTech::Flash,
            ]),
            promote_threshold: rng.range_u64(1, 8) as u32,
            epoch_accesses: log_uniform(rng, 200.0, 200_000.0) as u64,
            ..HybridConfig::default()
        };
        let base = match rng.below(3) {
            0 => 0,
            1 => rng.below(1 << 30) * 64,
            _ => (1 << 40) + rng.below(1 << 50) * 64,
        };
        let len = rng.range_u64(1, max_len as u64) as usize;
        let write_frac = rng.next_f64();
        let mut gen = TraceGen::new(rng.next_u64());
        let trace = if rng.chance(0.5) {
            let set_bytes = log_uniform(rng, 4096.0, (1u64 << 32) as f64) as u64;
            gen.uniform(len, base, set_bytes, 64, write_frac)
        } else {
            let objects = log_uniform(rng, 16.0, 100_000.0) as usize;
            let skew = rng.range_f64(0.5, 1.4);
            gen.zipf(
                len,
                base,
                objects,
                1 << rng.range_u64(6, 13),
                skew,
                write_frac,
            )
        };
        (cfg, trace)
    }

    /// Runs `cases` random cases through [`HybridMemory`] and the
    /// [`reference`] model (the first half of each trace one `access` at a
    /// time, the rest through `run`) and checks that they agree bit for
    /// bit.
    fn check_against_reference(cases: usize, max_len: usize, seed: u64) {
        let mut rng = Rng64::new(seed);
        let (mut evicting, mut aging) = (0, 0);
        for case in 0..cases {
            let (cfg, trace) = random_case(&mut rng, max_len);
            let mut new = HybridMemory::new(cfg.clone());
            let mut old = reference::HybridMemory::new(cfg.clone());
            let (one_by_one, rest) = trace.split_at(trace.len() / 2);
            for &a in one_by_one {
                let (lat, en) = new.access(a);
                let (ref_lat, ref_en) = old.access(a);
                assert_eq!(lat.value().to_bits(), ref_lat.value().to_bits());
                assert_eq!(en.value().to_bits(), ref_en.value().to_bits());
            }
            assert_eq!(
                new.metrics.counters().collect::<Vec<_>>(),
                old.metrics.counters().collect::<Vec<_>>(),
                "case {case}: {cfg:?}"
            );
            new.run(rest);
            old.run(rest);
            let what = format!("case {case}: {cfg:?}, {} accesses", trace.len());
            assert_eq!(
                new.avg_latency().value().to_bits(),
                old.avg_latency().value().to_bits(),
                "{what}"
            );
            assert_eq!(
                new.avg_energy().value().to_bits(),
                old.avg_energy().value().to_bits(),
                "{what}"
            );
            assert_eq!(
                new.dram_hit_rate().to_bits(),
                old.dram_hit_rate().to_bits(),
                "{what}"
            );
            assert_eq!(
                new.metrics.counters().collect::<Vec<_>>(),
                old.metrics.counters().collect::<Vec<_>>(),
                "{what}"
            );
            assert_eq!(new.dram_occupancy(), old.dram_occupancy(), "{what}");
            evicting += usize::from(new.metrics.counter("demotions") > 0);
            aging += usize::from(trace.len() as u64 >= cfg.epoch_accesses);
        }
        // The cases must reach the eviction scan and the epoch halving.
        assert!(
            evicting * 4 > cases && aging * 4 > cases,
            "{evicting} evicting, {aging} aging of {cases}"
        );
    }

    #[test]
    fn slot_array_matches_the_hashmap_model() {
        check_against_reference(240, 20_000, 0x4B1D);
    }

    #[test]
    #[ignore = "~1 000 cases of up to 300k accesses; run in release with --include-ignored"]
    fn slot_array_matches_the_hashmap_model_large() {
        check_against_reference(1_000, 300_000, 0x4B1D2);
    }

    #[test]
    fn hot_pages_get_promoted() {
        let mut m = HybridMemory::new(HybridConfig::default());
        // Hammer one page.
        for i in 0..100 {
            m.access(Access::read(4096 * 7 + (i % 64) * 64));
        }
        assert!(m.metrics.counter("promotions") >= 1);
        assert!(m.dram_occupancy() >= 1);
        // After promotion the page serves from DRAM.
        assert!(m.dram_hit_rate() > 0.9, "{}", m.dram_hit_rate());
    }

    #[test]
    fn cold_uniform_traffic_stays_in_nvm() {
        let mut m = HybridMemory::new(HybridConfig {
            promote_threshold: 8,
            ..HybridConfig::default()
        });
        let mut g = TraceGen::new(1);
        // 1 GiB span, 20k accesses: pages rarely repeat within an epoch.
        let t = g.uniform(20_000, 0, 1 << 30, 64, 0.3);
        m.run(&t);
        assert!(m.dram_hit_rate() < 0.1, "{}", m.dram_hit_rate());
        assert!(m.metrics.counter("nvm_reads") + m.metrics.counter("nvm_writes") > 15_000);
    }

    #[test]
    fn zipf_traffic_approaches_dram_latency() {
        // Skewed traffic: the hot head fits in DRAM, so average latency
        // lands near DRAM's, far below PCM write latency.
        let mut m = HybridMemory::new(HybridConfig::default());
        let mut g = TraceGen::new(2);
        let t = g.zipf(300_000, 0, 100_000, 4096, 1.1, 0.3);
        m.run(&t);
        assert!(m.dram_hit_rate() > 0.5, "hit={}", m.dram_hit_rate());
        let avg_ns = m.avg_latency().value() * 1e9;
        assert!(avg_ns < 150.0, "avg={avg_ns}ns");
    }

    #[test]
    fn dram_capacity_bound_respected() {
        let mut m = HybridMemory::new(HybridConfig {
            dram_pages: 8,
            promote_threshold: 1,
            ..HybridConfig::default()
        });
        let mut g = TraceGen::new(3);
        let t = g.uniform(10_000, 0, 1 << 24, 64, 0.0);
        m.run(&t);
        assert!(m.dram_occupancy() <= 8);
        assert!(m.metrics.counter("demotions") > 0);
    }

    #[test]
    fn migration_energy_is_charged() {
        let mut m = HybridMemory::new(HybridConfig {
            dram_pages: 1,
            promote_threshold: 1,
            ..HybridConfig::default()
        });
        // Two pages alternate, forcing promote/demote churn.
        for i in 0..50u64 {
            m.access(Access::read((i % 2) * 4096));
        }
        assert!(m.metrics.counter("migration_writes") > 0);
        // Energy per access exceeds the pure read energy because of
        // migration traffic.
        let pure_read = NvmTech::Pcm.params().read_energy;
        assert!(m.avg_energy().value() > pure_read.value());
    }
}
