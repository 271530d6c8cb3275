//! Synthetic memory-address trace generators.
//!
//! The paper's evaluation scenarios presuppose workload traces (search,
//! analytics, sensor streams) that are proprietary. These generators are
//! the documented substitution: each produces the *locality structure* a
//! class of workloads exhibits, which is all the cache/DRAM/NVM experiments
//! consume:
//!
//! * [`TraceGen::sequential`] — streaming scans (perfect spatial locality).
//! * [`TraceGen::uniform`] — worst-case random access (hash joins,
//!   pointer-dense graphs).
//! * [`TraceGen::zipf`] — skewed object popularity, the canonical "big
//!   data" distribution (Appendix A).

use xxi_core::rng::{Rng64, Zipf};

/// One memory access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Access {
    /// Byte address.
    pub addr: u64,
    /// `true` for a store, `false` for a load.
    pub write: bool,
}

impl Access {
    /// A load at `addr`.
    pub fn read(addr: u64) -> Access {
        Access { addr, write: false }
    }
}

/// Builder for synthetic traces. All generators take a `write_frac` giving
/// the probability each access is a store.
#[derive(Clone, Debug)]
pub struct TraceGen {
    rng: Rng64,
}

impl TraceGen {
    /// A generator with its own RNG stream.
    pub fn new(seed: u64) -> TraceGen {
        TraceGen {
            rng: Rng64::new(seed),
        }
    }

    /// Draw each access's store coin, in trace order. Every generator
    /// draws all of a trace's addresses first and its coins after them;
    /// every recorded output (goldens, perfbench digests) holds that order.
    fn mark_writes(&mut self, mut trace: Vec<Access>, write_frac: f64) -> Vec<Access> {
        for a in &mut trace {
            a.write = self.rng.chance(write_frac);
        }
        trace
    }

    /// `n` accesses walking sequentially through memory `step` bytes at a
    /// time starting at `base`.
    pub fn sequential(&mut self, n: usize, base: u64, step: u64, write_frac: f64) -> Vec<Access> {
        let trace = (0..n as u64)
            .map(|i| Access::read(base + i * step))
            .collect();
        self.mark_writes(trace, write_frac)
    }

    /// `n` uniformly random accesses over `[base, base + set_bytes)`,
    /// aligned to `align` bytes.
    pub fn uniform(
        &mut self,
        n: usize,
        base: u64,
        set_bytes: u64,
        align: u64,
        write_frac: f64,
    ) -> Vec<Access> {
        assert!(align > 0 && set_bytes >= align);
        let slots = set_bytes / align;
        let trace = (0..n)
            .map(|_| Access::read(base + self.rng.below(slots) * align))
            .collect();
        self.mark_writes(trace, write_frac)
    }

    /// `n` accesses over `objects` cache-line-sized objects with Zipf(`s`)
    /// popularity; object `k`'s line address is `base + k·line`.
    pub fn zipf(
        &mut self,
        n: usize,
        base: u64,
        objects: usize,
        line: u64,
        s: f64,
        write_frac: f64,
    ) -> Vec<Access> {
        let z = Zipf::new(objects, s);
        let trace = (0..n)
            .map(|_| Access::read(base + z.sample(&mut self.rng) as u64 * line))
            .collect();
        self.mark_writes(trace, write_frac)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The generators before they wrote one buffer, kept verbatim as the
    /// oracle: addresses into a `Vec<u64>`, then a second pass mapping
    /// each to an `Access` with its store coin.
    mod two_pass {
        use super::*;

        pub(super) struct RefGen {
            rng: Rng64,
        }

        impl RefGen {
            pub(super) fn new(seed: u64) -> RefGen {
                RefGen {
                    rng: Rng64::new(seed),
                }
            }

            fn mark_writes(&mut self, addrs: Vec<u64>, write_frac: f64) -> Vec<Access> {
                addrs
                    .into_iter()
                    .map(|addr| Access {
                        addr,
                        write: self.rng.chance(write_frac),
                    })
                    .collect()
            }

            pub(super) fn sequential(
                &mut self,
                n: usize,
                base: u64,
                step: u64,
                write_frac: f64,
            ) -> Vec<Access> {
                let addrs = (0..n as u64).map(|i| base + i * step).collect();
                self.mark_writes(addrs, write_frac)
            }

            pub(super) fn uniform(
                &mut self,
                n: usize,
                base: u64,
                set_bytes: u64,
                align: u64,
                write_frac: f64,
            ) -> Vec<Access> {
                assert!(align > 0 && set_bytes >= align);
                let slots = set_bytes / align;
                let addrs = (0..n)
                    .map(|_| base + self.rng.below(slots) * align)
                    .collect();
                self.mark_writes(addrs, write_frac)
            }

            pub(super) fn zipf(
                &mut self,
                n: usize,
                base: u64,
                objects: usize,
                line: u64,
                s: f64,
                write_frac: f64,
            ) -> Vec<Access> {
                let z = Zipf::new(objects, s);
                let addrs = (0..n)
                    .map(|_| base + z.sample(&mut self.rng) as u64 * line)
                    .collect();
                self.mark_writes(addrs, write_frac)
            }
        }
    }

    #[test]
    fn the_generators_match_the_two_pass_oracle() {
        let mut args = Rng64::new(40);
        for case in 0..100 {
            let seed = args.next_u64();
            let n = args.below(2_000) as usize;
            let base = args.below(1 << 40);
            let write_frac = [0.0, 1.0, args.next_f64()][case % 3];
            let (mut g, mut r) = (TraceGen::new(seed), two_pass::RefGen::new(seed));
            // One generator serves several calls, so each call must also
            // leave the stream where the oracle leaves it.
            for _ in 0..3 {
                let step = args.below(4096);
                assert_eq!(
                    g.sequential(n, base, step, write_frac),
                    r.sequential(n, base, step, write_frac),
                    "case {case}: sequential"
                );
                let align = 1 + args.below(256);
                let set_bytes = align * (1 + args.below(1 << 20));
                assert_eq!(
                    g.uniform(n, base, set_bytes, align, write_frac),
                    r.uniform(n, base, set_bytes, align, write_frac),
                    "case {case}: uniform"
                );
                let objects = 1 + args.below(5_000) as usize;
                let line = 1 + args.below(4096);
                let s = 2.0 * args.next_f64();
                assert_eq!(
                    g.zipf(n, base, objects, line, s, write_frac),
                    r.zipf(n, base, objects, line, s, write_frac),
                    "case {case}: zipf"
                );
            }
        }
    }

    #[test]
    fn sequential_addresses_ascend_by_step() {
        let mut g = TraceGen::new(1);
        let t = g.sequential(10, 1000, 8, 0.0);
        for (i, a) in t.iter().enumerate() {
            assert_eq!(a.addr, 1000 + 8 * i as u64);
            assert!(!a.write);
        }
    }

    #[test]
    fn uniform_respects_bounds_and_alignment() {
        let mut g = TraceGen::new(3);
        let t = g.uniform(10_000, 4096, 1 << 20, 64, 0.5);
        for a in &t {
            assert!(a.addr >= 4096 && a.addr < 4096 + (1 << 20));
            assert_eq!((a.addr - 4096) % 64, 0);
        }
        let writes = t.iter().filter(|a| a.write).count();
        assert!((writes as f64 / t.len() as f64 - 0.5).abs() < 0.03);
    }

    #[test]
    fn zipf_trace_is_skewed() {
        let mut g = TraceGen::new(4);
        let t = g.zipf(50_000, 0, 1000, 64, 1.0, 0.0);
        let mut counts = std::collections::HashMap::new();
        for a in &t {
            *counts.entry(a.addr).or_insert(0u64) += 1;
        }
        let hottest = *counts.values().max().unwrap();
        // Rank-0 under Zipf(1.0) over 1000 objects gets ~13% of accesses.
        assert!(hottest as f64 / t.len() as f64 > 0.08);
        // Far more than uniform (0.1%).
        assert!(hottest > 50 * (t.len() as u64 / 1000));
    }
}
